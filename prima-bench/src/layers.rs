//! Per-layer numbers of a traced run. A layer is a module of the kernel
//! (Fig. 3.1): `mad` (lexer/parser), `session` (validate/plan, the
//! statement facade), `datasys` (molecule assembly), `access` (record
//! reads), `storage`/`buffer`/`io`/`wal` (pages, device, log), `lock`
//! and `version` (transactions).
//!
//! Counters are `Prima::metrics()` deltas over the untraced pass divided
//! by its operations. Times come from spans the benchmark takes around
//! the kernel's public functions: inside the traced pass for what an
//! operation calls directly, and as *replays* afterwards for the layers
//! an operation's own spans cannot separate — the statement's text
//! parsed and planned again, the result's atoms read again level by
//! level through `AccessSystem::read_atoms_batch_into`, pages fixed
//! while resident and again after `drop_cache()`.

use crate::driver::{Ctx, PassOut};
use crate::mesh::Rng;
use crate::run::{metric, Metric};
use crate::stats;
use crate::trace::{Name, NameTotals, Recorder};
use crate::workload::{adhoc_mql, Kind, Workload, ASM_MQL};
use prima::{AtomId, QueryOptions, Value};
use prima_mad::mql::parse_statement;
use prima_storage::PageId;
use std::hint::black_box;

/// Replays per unit cost, and molecules read again through the access
/// system: enough that `asm.cold`'s buffer (1 024 pages) has turned over
/// several times between a molecule's query and its replay.
const REPLAYS: usize = 2_000;
/// Pages fixed for the buffer's unit costs; fits every buffer used.
const FIX_PAGES: u32 = 32;

/// Mean cost in ns of the replayed calls.
pub struct Units {
    parse_ns: f64,
    prepare_ns: f64,
    batch_read_ns: f64,
    fix_hit_ns: f64,
    fix_miss_ns: f64,
}

pub fn unit_costs(ctx: &Ctx<'_>, rec: &mut Recorder) -> Result<Units, String> {
    let Ctx {
        db,
        w,
        solids,
        seed,
        ..
    } = *ctx;
    let session = db.session();
    let mut rng = Rng::new(seed, 99);
    let mut key = move || 1 + rng.below(solids as u64) as i64;
    let text = |k: i64| {
        if w.kind == Kind::Adhoc {
            adhoc_mql(k)
        } else {
            ASM_MQL.to_string()
        }
    };
    let first = rec.spans().len();

    for _ in 0..REPLAYS {
        let t = text(key());
        rec.time(Name::ParseStatement, || {
            black_box(parse_statement(black_box(&t))).map(drop)
        })
        .map_err(|e| format!("replay parse: {e}"))?;
    }
    for _ in 0..REPLAYS {
        let t = text(key());
        rec.time(Name::SessionPrepare, || {
            black_box(session.prepare(black_box(&t))).map(drop)
        })
        .map_err(|e| format!("replay prepare: {e}"))?;
    }

    // The atoms of REPLAYS results, node by node as assembly asks for
    // them (duplicates kept: the kernel does not merge them either).
    let opts = QueryOptions::new();
    let mut stmt = session
        .prepare(ASM_MQL)
        .map_err(|e| format!("replay: {e}"))?;
    let mut levels: Vec<Vec<Vec<AtomId>>> = Vec::with_capacity(REPLAYS.min(solids));
    for _ in 0..REPLAYS.min(solids) {
        let k = key();
        let r = if w.kind == Kind::Adhoc {
            session.query(&adhoc_mql(k), &opts)
        } else {
            stmt.bind(&[Value::Int(k)]).and_then(|s| s.query(&opts))
        }
        .map_err(|e| format!("replay query: {e}"))?;
        let mut by_node = vec![Vec::new(); r.set.nodes.len()];
        for m in &r.set.molecules {
            m.for_each(|a| by_node[a.node].push(a.atom.id));
        }
        levels.push(by_node);
    }
    let mut out = Vec::new();
    for by_node in &levels {
        rec.time(Name::ReadAtomsBatch, || {
            by_node
                .iter()
                .try_for_each(|ids| db.access().read_atoms_batch_into(ids, None, &mut out))
        })
        .map_err(|e| format!("replay batch read: {e}"))?;
        black_box(&out);
    }

    // Buffer unit costs last: `drop_cache` empties the buffer.
    let point = db
        .schema()
        .type_id("point")
        .ok_or("schema has no point type")?;
    let segment = db.access().type_segments()[point as usize];
    let storage = db.storage();
    let pages = storage
        .with_segment(segment, |s| s.allocated_pages())
        .map_err(|e| format!("replay fix: {e}"))?
        .min(u64::from(FIX_PAGES)) as u32;
    let fix_all = |rec: &mut Recorder, name: Option<Name>| -> Result<(), String> {
        for p in 0..pages {
            let id = PageId::new(segment, p);
            match name {
                Some(n) => rec.time(n, || storage.fix(id).map(drop)),
                None => storage.fix(id).map(drop),
            }
            .map_err(|e| format!("replay fix {id}: {e}"))?;
        }
        Ok(())
    };
    fix_all(rec, None)?;
    for _ in 0..REPLAYS / pages.max(1) as usize {
        fix_all(rec, Some(Name::StorageFixHit))?;
    }
    for _ in 0..8 {
        storage
            .drop_cache()
            .map_err(|e| format!("drop_cache: {e}"))?;
        fix_all(rec, Some(Name::StorageFixMiss))?;
    }

    let t = crate::trace::totals(&[&rec.spans()[first..]]);
    let mean = |n: Name| t[n as usize].mean_ns();
    Ok(Units {
        parse_ns: mean(Name::ParseStatement),
        prepare_ns: mean(Name::SessionPrepare),
        batch_read_ns: mean(Name::ReadAtomsBatch),
        fix_hit_ns: mean(Name::StorageFixHit),
        fix_miss_ns: mean(Name::StorageFixMiss),
    })
}

/// Sets an already listed metric.
pub fn set(metrics: &mut [Metric], name: &str, value: f64) {
    if let Some(m) = metrics.iter_mut().find(|m| m.name == name) {
        m.value = value;
    }
}

fn get(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them. A
/// metric that does not apply to the workload (a transaction span on a
/// read workload) is 0.
pub fn metrics(
    w: &Workload,
    base: &PassOut,
    traced: &PassOut,
    totals: &[NameTotals],
    units: &Units,
    all_latencies: &[u32],
) -> Vec<Metric> {
    let d = &base.delta;
    let n = base.issued.max(1) as f64;
    let per_op = |count: u64| count as f64 / n;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    // Spans: per traced operation.
    let ops = totals[Name::Op as usize].count.max(1) as f64;
    let span_per_op = |name: Name| totals[name as usize].total_ns as f64 / ops;
    let op_ns = span_per_op(Name::Op);
    let driver_ns = totals[Name::Op as usize].self_ns as f64 / ops;
    let bind_ns = span_per_op(Name::PreparedBind);
    let query_ns = span_per_op(Name::SessionQuery) + span_per_op(Name::PreparedQuery);
    let begin_ns = span_per_op(Name::SessionBegin);
    let modify_ns = span_per_op(Name::SessionModify);
    let commit_ns = span_per_op(Name::SessionCommit);

    // What an operation pays for parsing and planning: the unit costs
    // times the parses per operation (0 under plan reuse).
    let plan_ns = (units.prepare_ns - units.parse_ns).max(0.0);
    let parsed_per_op = per_op(d.api.statements_parsed);
    let front_ns = (units.parse_ns + plan_ns) * parsed_per_op;
    let access_ns = units.batch_read_ns.min(query_ns);
    let assembly_ns = (query_ns - access_ns - front_ns).max(0.0);
    let txn_ns = begin_ns + modify_ns + commit_ns;
    let layer_sum = driver_ns + bind_ns + front_ns + assembly_ns + access_ns + txn_ns;
    let storage_ns = per_op(d.buffer.fix_calls) * units.fix_hit_ns
        + per_op(d.buffer.pages_loaded) * (units.fix_miss_ns - units.fix_hit_ns).max(0.0);
    let share = |ns: f64| if op_ns > 0.0 { ns / op_ns } else { 0.0 };

    let tail = stats::highest_supported_percentile(all_latencies.len()).unwrap_or(stats::P50);
    let checkin = w.kind == Kind::Checkin;
    let us_if_checkin = |ns: f64| if checkin { ns / 1e3 } else { 0.0 };

    vec![
        metric("mad.parse_ns", "ns", units.parse_ns),
        metric("session.plan_ns", "ns", plan_ns),
        metric("api.statements_parsed_per_op", "count", parsed_per_op),
        metric("api.plan_reuses_per_op", "count", per_op(d.api.plan_reuses)),
        metric("session.bind_ns", "ns", bind_ns),
        metric("datasys.assembly_ns", "ns", assembly_ns),
        metric("access.batch_read_ns", "ns", units.batch_read_ns),
        metric(
            "access.batch_pages_per_op",
            "count",
            per_op(d.access.batch_pages),
        ),
        metric(
            "access.batch_atoms_per_op",
            "count",
            per_op(d.access.batch_atoms),
        ),
        metric(
            "buffer.hit_ratio",
            "ratio",
            ratio(d.buffer.hits, d.buffer.hits + d.buffer.misses),
        ),
        metric(
            "buffer.fix_calls_per_op",
            "count",
            per_op(d.buffer.fix_calls),
        ),
        metric(
            "buffer.pages_loaded_per_op",
            "count",
            per_op(d.buffer.pages_loaded),
        ),
        metric(
            "buffer.evictions_per_op",
            "count",
            per_op(d.buffer.evictions),
        ),
        metric("io.bytes_read_per_op", "bytes", per_op(d.io.bytes_read)),
        metric("storage.fix_hit_ns", "ns", units.fix_hit_ns),
        metric("storage.fix_miss_ns", "ns", units.fix_miss_ns),
        metric(
            "lock.acquisitions_per_op",
            "count",
            per_op(d.lock.acquisitions),
        ),
        metric("lock.wait_us_per_op", "us", per_op(d.lock.wait_us_total)),
        metric("lock.timeouts", "count", d.lock.timeouts as f64),
        metric("lock.deadlocks", "count", d.lock.deadlocks_detected as f64),
        metric(
            "version.versions_installed_per_op",
            "count",
            per_op(d.version.versions_installed),
        ),
        metric(
            "version.snapshot_reads_per_op",
            "count",
            per_op(d.version.snapshot_reads),
        ),
        metric("wal.bytes_per_op", "bytes", per_op(d.io.wal_bytes)),
        metric("wal.forces_per_op", "count", per_op(d.io.wal_forces)),
        metric(
            "wal.commits_per_force",
            "count",
            ratio(d.io.group_commit_commits, d.io.group_commit_batches),
        ),
        metric("txn.begin_us", "us", us_if_checkin(begin_ns)),
        metric("txn.checkout_us", "us", us_if_checkin(bind_ns + query_ns)),
        metric("txn.modify_us", "us", us_if_checkin(modify_ns)),
        metric("txn.commit_us", "us", us_if_checkin(commit_ns)),
        metric(
            "checkpoint_ms",
            "ms",
            if base.checkpoint_ms.is_empty() {
                0.0
            } else {
                stats::median(&base.checkpoint_ms)
            },
        ),
        metric("recovery.reopen_ms", "ms", 0.0),
        metric("wal.tail_bytes", "bytes", 0.0),
        metric("process.rss_mb", "MB", rss_mb()),
        metric("op.span_ns", "ns", op_ns),
        metric("driver.self_ns", "ns", driver_ns),
        metric("share.mad_session", "ratio", share(front_ns)),
        metric("share.datasys", "ratio", share(assembly_ns)),
        metric("share.access", "ratio", share(access_ns)),
        metric("share.storage_in_access", "ratio", share(storage_ns)),
        metric("share.txn", "ratio", share(txn_ns)),
        metric("share.layer_sum", "ratio", share(layer_sum)),
        metric(
            "trace_overhead_frac",
            "ratio",
            1.0 - ratio_f(traced.active_ops_per_s, base.ops_per_s()),
        ),
        metric("latency.p99_us", "us", base.percentile_us(stats::P99)),
        metric("latency.samples", "count", all_latencies.len() as f64),
        metric("latency.tail_percentile", "%", tail.percent),
        metric(
            "latency.tail_us",
            "us",
            f64::from(stats::percentile(all_latencies, tail)) / 1e3,
        ),
    ]
}

fn ratio_f(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Resident set of this process in MB, from `/proc/self/status`; 0 where
/// there is no such file.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer shares of one operation's time, for the human reader.
pub fn share_table(w: &Workload, m: &[Metric]) -> Vec<String> {
    let pct = |name: &str| format!("{:5.1} %", 100.0 * get(m, name));
    vec![
        format!(
            "{}: traced operation {:.0} ns = mad+session {} | datasys {} | access {} (storage within it {}) | txn {} | driver {:.1} % | sum {}",
            w.name,
            get(m, "op.span_ns"),
            pct("share.mad_session"),
            pct("share.datasys"),
            pct("share.access"),
            pct("share.storage_in_access"),
            pct("share.txn"),
            100.0 * ratio_f(get(m, "driver.self_ns") + get(m, "session.bind_ns"), get(m, "op.span_ns")),
            pct("share.layer_sum"),
        ),
        format!(
            "{}: pages loaded/op {:.3}, lock acquisitions/op {:.1}, WAL bytes/op {:.0}, tracing overhead {:.1} %",
            w.name,
            get(m, "buffer.pages_loaded_per_op"),
            get(m, "lock.acquisitions_per_op"),
            get(m, "wal.bytes_per_op"),
            100.0 * get(m, "trace_overhead_frac"),
        ),
    ]
}

/// Name and unit of every per-layer metric, in order.
#[cfg(test)]
pub fn listed() -> Vec<(&'static str, &'static str)> {
    let pass = PassOut {
        slices: vec![vec![1]],
        slice_s: 1.0,
        attempted: 1,
        failed: 0,
        failed_outside: 0,
        issued: 1,
        first_error: None,
        active_ops_per_s: 1.0,
        delta: prima::MetricsSnapshot::default(),
        checkpoint_ms: Vec::new(),
        recorders: Vec::new(),
    };
    let units = Units {
        parse_ns: 0.0,
        prepare_ns: 0.0,
        batch_read_ns: 0.0,
        fix_hit_ns: 0.0,
        fix_miss_ns: 0.0,
    };
    let totals = [NameTotals::default(); Name::ALL.len()];
    let w = &crate::workload::WORKLOADS[0];
    metrics(w, &pass, &pass, &totals, &units, &[1])
        .iter()
        .map(|m| (m.name, m.unit))
        .collect()
}
