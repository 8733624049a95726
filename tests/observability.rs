//! The unified observability layer, end to end: statement profiler,
//! metrics registry (histograms + coherence), slow-statement log, and
//! the zero-cost-when-off guarantee pinned by a counting allocator.

use prima::obs;
use prima::{Prima, QueryOptions, SpanKind, StatementKind};
use prima_storage::probe::{self, ProbeEvent};
use prima_workloads::brep::{self, BrepConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

// ---------------------------------------------------------------------
// Counting allocator: pins the profiler-off zero-allocation guarantee.
// ---------------------------------------------------------------------

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: the TLS slot itself may be mid-teardown.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn profiler_off_entry_points_do_not_allocate() {
    // Warm the TLS slot and any lazy statics before counting.
    let _ = allocations();
    obs::event(SpanKind::BufferFix, 1, 0);
    assert!(!probe::enabled());

    let before = allocations();
    for i in 0..1000u64 {
        obs::event(SpanKind::BufferFix, i, 0);
        assert_eq!(obs::span(SpanKind::Parse, || i), i);
        assert_eq!(obs::observed(SpanKind::LockAcquire, || i + 1), i + 1);
        drop(obs::span_guard(SpanKind::RootAccess));
        assert!(probe::timer().is_none());
        probe::emit_elapsed(None, ProbeEvent::BufferFix, 0);
        assert_eq!(probe::observed(ProbeEvent::PageLoad, || i), i);
    }
    assert_eq!(allocations(), before, "disabled probes must not allocate");
}

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

#[test]
fn histogram_buckets_quantiles_and_overflow() {
    use obs::{bucket_bounds, bucket_index, LatencyHistogram, BUCKETS};

    // Power-of-two bucketing with 0–1 ns folded into bucket 0.
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 0);
    assert_eq!(bucket_index(2), 1);
    assert_eq!(bucket_index(1024), 10);
    assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    assert_eq!(bucket_bounds(10), (1024, 2048));
    assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);

    // Quantiles interpolate within the containing bucket and never
    // exceed the recorded maximum.
    let h = LatencyHistogram::default();
    for _ in 0..90 {
        h.record(700); // bucket 9: [512, 1024)
    }
    for _ in 0..10 {
        h.record(5_000); // bucket 12: [4096, 8192)
    }
    let s = h.snapshot();
    assert_eq!(s.count, 100);
    assert_eq!(s.max_ns, 5_000);
    // Interpolation stays within the containing bucket [512, 1024).
    let p50 = s.p50();
    assert!((512..1024).contains(&p50), "p50 = {p50}");
    assert!(s.p95() > 1024, "p95 must land in the slow bucket");
    assert!(s.p99() <= s.max_ns);

    // The overflow bucket reports the exact maximum, not an
    // interpolation into an unbounded range.
    let o = LatencyHistogram::default();
    o.record(1u64 << 45);
    o.record(3);
    let os = o.snapshot();
    assert_eq!(os.buckets[BUCKETS - 1], 1);
    assert_eq!(os.quantile(1.0), 1u64 << 45);
}

// ---------------------------------------------------------------------
// The profiled Table 2.1 query (the acceptance scenario)
// ---------------------------------------------------------------------

fn brep_db() -> Prima {
    let db = brep::open_db(4 << 20).expect("open");
    brep::populate(&db, &BrepConfig::with_assembly(4, 2, 2)).expect("populate");
    db
}

#[test]
fn profiled_table21_query_covers_every_layer() {
    let db = brep_db();
    // Cold buffer: the query must pay device reads, so the I/O leaf
    // spans are guaranteed to appear.
    db.storage().drop_cache().expect("drop_cache");

    let before = db.metrics();
    let session = db.session();
    session.set_profiling(true);
    let result = session
        .query("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2", &QueryOptions::default())
        .expect("table 2.1a query");
    assert_eq!(result.set.len(), 1);
    let profile = session.last_profile().expect("profiled statement leaves a profile");
    drop(session);
    let delta = db.metrics().delta(&before);

    // Well-formed tree rooted at Statement, scoped children disjoint.
    profile.validate().unwrap_or_else(|e| panic!("{e}\n{}", profile.render()));
    assert_eq!(profile.kind, StatementKind::Select);

    // Full layer coverage: parse → plan → snapshot pin → root access →
    // per-level assembly → buffer/I/O leaves.
    for kind in [
        SpanKind::Parse,
        SpanKind::Plan,
        SpanKind::SnapshotPin,
        SpanKind::RootAccess,
        SpanKind::AssemblyLevel(0),
        SpanKind::AssemblyLevel(1),
        SpanKind::BufferFix,
        SpanKind::PageLoad,
        SpanKind::BatchRead,
    ] {
        assert!(
            profile.root.find(kind).is_some(),
            "span tree misses {}:\n{}",
            kind.label(),
            profile.render()
        );
    }

    // The profile's counter deltas equal the kernel-wide deltas — the
    // statement was the only traffic (single thread, quiet kernel).
    let c = &profile.counters;
    assert_eq!(c.buffer.fix_calls, delta.buffer.fix_calls);
    assert_eq!(c.buffer.pages_loaded, delta.buffer.pages_loaded);
    assert_eq!(c.io.block_reads, delta.io.block_reads);
    assert_eq!(c.access.batch_reads, delta.access.batch_reads);
    assert_eq!(c.access.batch_atoms, delta.access.batch_atoms);
    assert!(c.buffer.pages_loaded > 0, "cold query must load pages");

    // And the span tree's leaf totals agree with those same counters
    // (leaves merge per enclosing frame, so sum across the tree).
    let (fixes, _, _) = profile.root.totals(SpanKind::BufferFix);
    let (loads, _, _) = profile.root.totals(SpanKind::PageLoad);
    let (batches, _, batch_bytes) = profile.root.totals(SpanKind::BatchRead);
    assert_eq!(fixes, c.buffer.fix_calls);
    assert_eq!(loads, c.buffer.pages_loaded);
    assert_eq!(batches, c.access.batch_reads);
    assert_eq!(batch_bytes, c.access.batch_atoms, "BatchRead bytes = atoms requested");

    // The select histogram saw exactly this statement.
    assert_eq!(delta.statement_latency(StatementKind::Select).count, 1);
    assert_eq!(delta.api.statements_executed, 1);
}

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

const DDL: &str = "
    CREATE ATOM_TYPE thing (id: IDENTIFIER, n: INTEGER, s: CHAR_VAR)
    KEYS_ARE (n);
";

#[test]
fn render_text_exposes_all_five_statement_kinds() {
    let db = Prima::builder().build_with_ddl(DDL).expect("build");
    let s = db.session();
    s.execute("INSERT thing (n: 1, s: 'a')").expect("insert");
    s.execute("MODIFY thing SET s = 'b' WHERE n = 1").expect("modify");
    s.execute("DELETE FROM thing WHERE n = 1").expect("delete");
    s.commit().expect("commit");
    s.query("SELECT ALL FROM thing", &QueryOptions::default()).expect("select");

    let text = db.metrics().render_text();
    for kind in StatementKind::ALL {
        let label = kind.label();
        assert!(
            text.contains(&format!("prima_statement_latency_count{{kind=\"{label}\"}} 1")),
            "missing count=1 for {label} in:\n{text}"
        );
        for q in ["0.5", "0.95", "0.99", "max"] {
            assert!(
                text.contains(&format!("prima_statement_latency_ns{{kind=\"{label}\",quantile=\"{q}\"}}")),
                "missing quantile {q} for {label}"
            );
        }
    }
    // Every counter family renders under its prefix.
    for family in ["buffer", "io", "access", "lock", "version", "api"] {
        assert!(text.contains(&format!("prima_{family}_")), "family {family} missing");
    }
}

/// The exposition is an interface: scrapers key on these names. Every
/// family line, in order, before the latency histograms.
#[test]
fn render_text_family_lines_are_pinned() {
    const NAMES: &[&str] = &[
        "prima_buffer_hits",
        "prima_buffer_misses",
        "prima_buffer_evictions",
        "prima_buffer_writebacks",
        "prima_buffer_fix_calls",
        "prima_buffer_pages_loaded",
        "prima_io_block_reads",
        "prima_io_block_writes",
        "prima_io_bytes_read",
        "prima_io_bytes_written",
        "prima_io_seeks",
        "prima_io_chained_runs",
        "prima_io_chained_blocks",
        "prima_io_wal_forces",
        "prima_io_wal_bytes",
        "prima_io_group_commit_batches",
        "prima_io_group_commit_commits",
        "prima_io_sim_time_ns",
        "prima_access_records_written",
        "prima_access_backref_updates",
        "prima_access_partition_reads",
        "prima_access_primary_reads",
        "prima_access_batch_reads",
        "prima_access_batch_pages",
        "prima_access_batch_atoms",
        "prima_lock_acquisitions",
        "prima_lock_waits",
        "prima_lock_wait_us_total",
        "prima_lock_wait_us_max",
        "prima_lock_timeouts",
        "prima_lock_deadlocks_detected",
        "prima_lock_overflow_fastfails",
        "prima_lock_waiting_now",
        "prima_lock_max_queue_depth",
        "prima_version_versions_installed",
        "prima_version_versions_reclaimed",
        "prima_version_snapshots_opened",
        "prima_version_snapshot_reads",
        "prima_version_max_chain_len",
        "prima_version_live_versions",
        "prima_version_live_chains",
        "prima_version_oldest_snapshot_lag",
        "prima_api_statements_parsed",
        "prima_api_plans_built",
        "prima_api_plan_reuses",
        "prima_api_statements_executed",
        "prima_api_cursor_fetches",
    ];
    let db = Prima::builder().build_with_ddl(DDL).expect("build");
    let text = db.metrics().render_text();
    let names: Vec<&str> = text
        .lines()
        .take_while(|l| !l.starts_with("prima_statement_latency"))
        .map(|l| l.split_once(' ').map_or(l, |(name, _)| name))
        .collect();
    assert_eq!(names, NAMES);
}

#[test]
fn coherence_invariants_hold_after_mixed_workload() {
    let db = brep_db();
    let s = db.session();
    s.execute("INSERT solid (solid_no: 777)").expect("insert");
    s.commit().expect("commit");
    s.query("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1", &QueryOptions::default())
        .expect("select");
    drop(s);
    db.metrics().check_coherence().expect("quiesced kernel must be coherent");
}

#[test]
fn api_counters_track_statements_and_cursor_fetches() {
    let db = brep_db();
    let before = db.metrics().api;

    let s = db.session();
    s.execute("INSERT solid (solid_no: 901)").expect("insert");
    s.commit().expect("commit");
    s.query("SELECT ALL FROM solid WHERE solid_no = 901", &QueryOptions::default())
        .expect("select");
    drop(s);

    let mut cursor = db.query_cursor("SELECT ALL FROM solid").expect("cursor");
    cursor.fetch(2).expect("fetch");
    cursor.fetch_all().expect("fetch_all");
    drop(cursor);

    let d = db.metrics().api.since(&before);
    // INSERT + SELECT; the commit and the fetches are not statements.
    assert_eq!(d.statements_executed, 2);
    assert_eq!(d.cursor_fetches, 2);
}

// ---------------------------------------------------------------------
// Slow-statement log
// ---------------------------------------------------------------------

#[test]
fn zero_threshold_captures_every_statement() {
    let db = Prima::builder()
        .slow_statement_threshold(Duration::ZERO)
        .slow_log_capacity(16)
        .build_with_ddl(DDL)
        .expect("build");

    let s = db.session();
    // The threshold force-enables profiling without set_profiling.
    assert!(s.profiling_enabled());
    s.execute("INSERT thing (n: 1, s: 'a')").expect("insert");
    s.execute("INSERT thing (n: 2, s: 'b')").expect("insert");
    s.commit().expect("commit");
    s.query("SELECT ALL FROM thing", &QueryOptions::default()).expect("select");

    // 2 INSERTs + 1 COMMIT + 1 SELECT, in order.
    let slow = db.slow_statements();
    assert_eq!(slow.len(), 4, "threshold 0 keeps every statement");
    assert_eq!(slow[0].kind, StatementKind::Insert);
    assert_eq!(slow[2].kind, StatementKind::Commit);
    assert_eq!(slow[3].kind, StatementKind::Select);
    for p in &slow {
        p.validate().unwrap_or_else(|e| panic!("{e}\n{}", p.render()));
    }

    // last_profile tracks the most recent statement on the session.
    let last = s.last_profile().expect("profiling on");
    assert_eq!(last.kind, StatementKind::Select);
    assert_eq!(last.statement, "SELECT ALL FROM thing");
}

#[test]
fn slow_log_ring_evicts_oldest() {
    let db = Prima::builder()
        .slow_statement_threshold(Duration::ZERO)
        .slow_log_capacity(3)
        .build_with_ddl(DDL)
        .expect("build");
    let s = db.session();
    for n in 0..5 {
        s.execute(&format!("INSERT thing (n: {n}, s: 'x')")).expect("insert");
    }
    s.commit().expect("commit");
    let slow = db.slow_statements();
    assert_eq!(slow.len(), 3);
    // Oldest evicted: the survivors are INSERT n=3, n=4, COMMIT.
    assert_eq!(slow[0].statement, "INSERT thing (n: 3, s: 'x')");
    assert_eq!(slow[2].kind, StatementKind::Commit);
}

#[test]
fn unprofiled_sessions_leave_no_profile() {
    let db = Prima::builder().build_with_ddl(DDL).expect("build");
    let s = db.session();
    assert!(!s.profiling_enabled());
    s.execute("INSERT thing (n: 1, s: 'a')").expect("insert");
    s.commit().expect("commit");
    assert!(s.last_profile().is_none());
    assert!(db.slow_statements().is_empty());
    // The histograms still recorded both statements.
    let m = db.metrics();
    assert_eq!(m.statement_latency(StatementKind::Insert).count, 1);
    assert_eq!(m.statement_latency(StatementKind::Commit).count, 1);
}
