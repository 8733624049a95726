//! One run of one workload: set up, warm up, measure, check, and — in a
//! traced run — take the per-layer numbers.

use crate::driver::{run_pass, Ctx, Pass, PassOut};
use crate::layers;
use crate::stats::{self, P50, P99};
use crate::trace::{self, Recorder};
use crate::workload::{self, Keys, Kind, Ops, Workload, SESSIONS};
use prima::{Prima, StatementKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

/// Transactions of the durability tail, and the seed of their key
/// stream: fixed, so the tail's log volume repeats exactly from run to
/// run and from seed to seed.
const TAIL_TXNS: usize = 2_000;
const TAIL_SEED: u64 = 0x7A11;

pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// 500 solids and one set-up instead of the workload's own.
    pub smoke: bool,
    /// Where database directories and trace files go.
    pub scratch: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

pub struct RunOut {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics of an untraced run, the per-layer metrics
    /// of a traced one.
    pub metrics: Vec<Metric>,
    /// Every failed check, in words.
    pub violations: Vec<String>,
    /// Lines for the human reader.
    pub notes: Vec<String>,
}

/// The end-to-end metrics, as (name, unit, better); an operation is a
/// statement, or a committed transaction on `txn.checkin`. The p99 is
/// not among them: calibration showed it cannot repeat within 10 % in
/// this sandbox (its spread over ten runs reached 33 % on `adhoc.point`,
/// beyond any bound `BENCHMARK.json` may set), so it is reported with the
/// per-layer metrics as `latency.p99_us`.
pub const END_TO_END: [(&str, &str, &str); 3] = [
    ("ops_per_s", "1/s", "higher"),
    ("p50_us", "us", "lower"),
    ("setup_s", "s", "lower"),
];

fn passes(w: &Workload, cfg: &RunCfg) -> Vec<Pass> {
    let window = |seconds: f64, warmup: f64, traced| {
        let slices = ((seconds / w.slice_s).round() as usize).max(1);
        Pass {
            warmup: Duration::from_secs_f64(warmup),
            slices,
            slice: Duration::from_secs_f64(seconds / slices as f64),
            traced,
        }
    };
    let warmup = (cfg.seconds * 0.2).clamp(0.25, 2.0);
    if cfg.trace {
        // Half the window untraced, half traced: the first gives the
        // counters per operation and the base of the tracing overhead.
        vec![
            window(cfg.seconds / 2.0, warmup, false),
            window(cfg.seconds / 2.0, 0.25, true),
        ]
    } else {
        vec![window(cfg.seconds, warmup, false)]
    }
}

pub fn run(w: &Workload, cfg: &RunCfg) -> Result<RunOut, String> {
    let dir = cfg
        .scratch
        .join(format!("data-{}-{}", w.name, std::process::id()));
    let out = run_in(w, cfg, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn run_in(w: &Workload, cfg: &RunCfg, dir: &Path) -> Result<RunOut, String> {
    let solids = if cfg.smoke { 500 } else { w.solids };
    let setups = if cfg.smoke || cfg.trace { 1 } else { w.setups };
    let mut notes = Vec::new();
    let mut violations = Vec::new();

    // Set up `setups` times, each into an emptied directory, and keep the
    // last kernel. The earlier one is dropped first: two 64 MiB buffers
    // side by side would show in the resident set.
    let mut setup_s = Vec::new();
    let mut db = None;
    for _ in 0..setups {
        drop(db.take());
        let _ = std::fs::remove_dir_all(dir);
        let t = Instant::now();
        db = Some(workload::set_up(w, solids, cfg.seed, dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let db = db.expect("set up at least once");
    notes.push(format!("{}: {}", w.name, w.why));
    notes.push(format!(
        "{}: {solids} solids = {} atoms, buffer {} KiB, set-up {:?} s",
        w.name,
        solids * crate::mesh::ATOMS_PER_SOLID,
        w.buffer_for(solids) / 1024,
        setup_s
    ));

    let epoch = Instant::now();
    let versions = AtomicU64::new(1);
    let mut acked = vec![0u64; solids + 1];
    let mut main_rec = Recorder::new(cfg.trace, 1 << 16, epoch);
    let ctx = Ctx {
        db: &db,
        w,
        solids,
        seed: cfg.seed,
        epoch,
        versions: &versions,
    };

    let mut outs: Vec<PassOut> = Vec::new();
    for pass in passes(w, cfg) {
        let out = run_pass(ctx, pass, &mut acked, &mut main_rec)?;
        check_pass(w, &db, &out, &mut violations);
        outs.push(out);
    }
    let base = &outs[0];
    notes.push(format!(
        "{}: {} operations in {} slices of {:.3} s, {} failed; {:.1} ops/s, p50 {:.2} us, p99 {:.2} us ({} samples)",
        w.name,
        base.attempted,
        base.slices.len(),
        base.slice_s,
        base.failed,
        base.ops_per_s(),
        base.percentile_us(P50),
        base.percentile_us(P99),
        base.attempted
    ));

    let mut metrics = if cfg.trace {
        let traced = &outs[1];
        let units = layers::unit_costs(&ctx, &mut main_rec)?;
        let mut recorders: Vec<&Recorder> = traced.recorders.iter().collect();
        recorders.push(&main_rec);
        let spans: Vec<&[trace::Span]> = recorders.iter().map(|r| r.spans()).collect();
        let totals = trace::totals(&spans);
        let path = cfg.scratch.join(format!("trace-{}.json", w.name));
        trace::write_file(&path, w.name, &recorders)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("{}: spans written to {}", w.name, path.display()));
        let m = layers::metrics(w, base, traced, &totals, &units, &base.all_sorted());
        notes.extend(layers::share_table(w, &m));
        m
    } else {
        let values = [
            base.ops_per_s(),
            base.percentile_us(P50),
            stats::median(&setup_s),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit, _), v)| metric(name, unit, v))
            .collect()
    };

    if w.kind == Kind::Checkin {
        let tail_wal_bytes = durability_tail(ctx, &mut acked)?;
        // Dropped without a checkpoint: the tail is in the log only.
        drop(db);
        let t = Instant::now();
        let reopened = Prima::open(dir).map_err(|e| format!("reopen: {e}"))?;
        let reopen_ms = t.elapsed().as_secs_f64() * 1e3;
        let verified = workload::verify_placements(&reopened, w, solids, cfg.seed, &acked);
        notes.push(format!(
            "{}: {TAIL_TXNS}-transaction tail wrote {tail_wal_bytes} WAL bytes; reopen took {reopen_ms:.2} ms; every point carries its last acknowledged placement: {}. Reopen-only: the OS cache survives, torn-write durability stays the crash fuzzer's job.",
            w.name,
            verified.is_ok()
        ));
        if let Err(e) = verified {
            violations.push(format!("{}: durability: {e}", w.name));
        }
        if cfg.trace {
            layers::set(&mut metrics, "wal.tail_bytes", tail_wal_bytes as f64);
            layers::set(&mut metrics, "recovery.reopen_ms", reopen_ms);
        }
    }

    let failed_outside: u64 = outs.iter().map(|o| o.failed_outside).sum();
    let failed: u64 = outs.iter().map(|o| o.failed).sum();
    if failed + failed_outside > 0 {
        let why = outs
            .iter()
            .find_map(|o| o.first_error.clone())
            .unwrap_or_default();
        violations.push(format!(
            "{failed} operations failed in the window, {failed_outside} outside it; first: {why}"
        ));
    }
    Ok(RunOut {
        correct: violations.is_empty(),
        attempted: base.attempted,
        failed: base.failed,
        metrics,
        violations,
        notes,
    })
}

/// The checks on a quiesced kernel after a pass: counters that must be
/// zero, plan reuse, statement counts against the driver's own, and the
/// kernel's cross-family coherence invariants.
fn check_pass(w: &Workload, db: &Prima, out: &PassOut, violations: &mut Vec<String>) {
    let d = &out.delta;
    let n = out.issued;
    let mut expect = |ok: bool, what: String| {
        if !ok {
            violations.push(format!("{}: {what}", w.name));
        }
    };
    let selects = d.statement_latency(StatementKind::Select).count;
    expect(
        selects == n,
        format!("kernel counted {selects} SELECTs, the driver issued {n}"),
    );
    if w.kind == Kind::Checkin {
        let commits = d.statement_latency(StatementKind::Commit).count;
        let all_failed = out.failed + out.failed_outside;
        expect(
            commits + all_failed == n,
            format!("kernel counted {commits} commits for {n} transactions"),
        );
        expect(
            d.lock.acquisitions > 0 && d.io.wal_bytes > 0,
            "transactions took no lock or wrote no log".into(),
        );
        expect(
            d.lock.timeouts == 0 && d.lock.deadlocks_detected == 0,
            "lock timeouts or deadlocks".into(),
        );
    } else {
        expect(
            d.lock.acquisitions == 0,
            format!(
                "{} lock acquisitions on auto-commit reads (must be 0)",
                d.lock.acquisitions
            ),
        );
        expect(
            d.io.wal_bytes == 0,
            format!(
                "{} WAL bytes on a read workload (must be 0)",
                d.io.wal_bytes
            ),
        );
    }
    if w.fits_buffer {
        expect(
            d.buffer.pages_loaded == 0,
            format!(
                "{} pages loaded although the data fits the buffer",
                d.buffer.pages_loaded
            ),
        );
    } else {
        expect(
            d.buffer.pages_loaded > n,
            format!(
                "{} pages loaded for {n} operations: the buffer does not miss",
                d.buffer.pages_loaded
            ),
        );
    }
    match w.kind {
        Kind::Adhoc => {
            expect(
                d.api.statements_parsed == n && d.api.plan_reuses == 0,
                format!(
                    "{} parses, {} plan reuses for {n} ad-hoc statements",
                    d.api.statements_parsed, d.api.plan_reuses
                ),
            );
        }
        Kind::Asm | Kind::Checkin => {
            expect(
                d.api.plan_reuses == n && d.api.statements_parsed == SESSIONS as u64,
                format!(
                    "{} plan reuses, {} parses for {n} prepared executions",
                    d.api.plan_reuses, d.api.statements_parsed
                ),
            );
        }
    }
    if let Err(broken) = db.metrics().check_coherence() {
        for b in broken {
            expect(false, format!("metrics incoherent: {b}"));
        }
    }
}

/// The durability tail: checkpoint, then exactly [`TAIL_TXNS`]
/// single-session check-ins on a fixed key stream. Returns the WAL
/// bytes the tail wrote. The caller drops the kernel, reopens it and
/// verifies every point against `acked`.
fn durability_tail(ctx: Ctx<'_>, acked: &mut [u64]) -> Result<u64, String> {
    let db = ctx.db;
    db.checkpoint()
        .map_err(|e| format!("checkpoint before the tail: {e}"))?;
    let before = db.metrics();
    let session = db.session();
    let attrs = workload::Attrs::of(db)?;
    let mut ops = Ops::new(ctx.w, &session, attrs, ctx.solids, ctx.versions)?;
    let mut keys = Keys::uniform(ctx.solids, TAIL_SEED);
    let mut rec = Recorder::off();
    for _ in 0..TAIL_TXNS {
        ops.run(keys.next(), &mut rec)
            .map_err(|e| format!("durability tail: {e}"))?;
    }
    for (mine, theirs) in acked.iter_mut().zip(&ops.acked) {
        *mine = (*mine).max(*theirs);
    }
    Ok(db.metrics().delta(&before).io.wal_bytes)
}
