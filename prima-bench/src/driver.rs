//! The closed-loop driver: session threads, warm-up, the measured
//! window cut into slices, and the exact latency record.

use crate::stats::{self, Percentile};
use crate::trace::{Name, Recorder};
use crate::workload::{Attrs, Keys, Kind, Ops, Workload, SESSIONS};
use prima::{MetricsSnapshot, Prima};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const PARK: u8 = 2;
const STOP: u8 = 3;

/// How long a parked or waiting thread sleeps between looks.
const POLL: Duration = Duration::from_micros(50);

/// Spans one traced session may keep (32 bytes each).
const SPAN_CAP: usize = 600_000;

struct Control {
    phase: AtomicU8,
    parked: AtomicUsize,
    window_start: OnceLock<Instant>,
}

/// What every pass of one run shares.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub db: &'a Prima,
    pub w: &'a Workload,
    pub solids: usize,
    pub seed: u64,
    /// Zero of the span clock.
    pub epoch: Instant,
    /// Source of check-in versions.
    pub versions: &'a AtomicU64,
}

/// The shape of one pass over the workload.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub warmup: Duration,
    pub slices: usize,
    pub slice: Duration,
    pub traced: bool,
}

/// What one session recorded.
struct SessionOut {
    /// Latency of every operation that ended inside the window, in ns, in
    /// completion order; `starts[s]..starts[s + 1]` is slice `s`.
    lat_ns: Vec<u32>,
    starts: Vec<usize>,
    /// Operations issued over the thread's life, warm-up included.
    issued: u64,
    failed_in_window: u64,
    failed_outside: u64,
    first_error: Option<String>,
    /// Seconds from the window's start to the session's last recorded
    /// operation (shorter than the window if the span buffer filled).
    active_s: f64,
    rec: Recorder,
    acked: Vec<u64>,
}

/// One pass's outcome, sessions merged.
pub struct PassOut {
    /// Per slice: the sessions' latencies merged and sorted ascending.
    pub slices: Vec<Vec<u32>>,
    pub slice_s: f64,
    /// Operations that ended inside the window, and how many of them
    /// failed; operations that failed outside it (warm-up, straddlers).
    pub attempted: u64,
    pub failed: u64,
    pub failed_outside: u64,
    /// Operations issued over the threads' whole life.
    pub issued: u64,
    pub first_error: Option<String>,
    /// Operations per second, each session over its own active time.
    pub active_ops_per_s: f64,
    /// Kernel counters over the threads' whole life, for `issued` ops.
    pub delta: MetricsSnapshot,
    pub checkpoint_ms: Vec<f64>,
    pub recorders: Vec<Recorder>,
}

impl PassOut {
    /// Median over the slices of each slice's throughput.
    pub fn ops_per_s(&self) -> f64 {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.len() as f64 / self.slice_s)
            .collect();
        stats::median(&per_slice)
    }

    /// Median over the slices of each slice's percentile `p`, in µs. A
    /// slice with fewer than ten samples beyond `p` would make the median
    /// jump, so the whole window is one sample then.
    pub fn percentile_us(&self, p: Percentile) -> f64 {
        if self.slices.iter().all(|s| p.supported_by(s.len())) {
            let per_slice: Vec<f64> = self
                .slices
                .iter()
                .map(|s| f64::from(stats::percentile(s, p)) / 1e3)
                .collect();
            stats::median(&per_slice)
        } else {
            f64::from(stats::percentile(&self.all_sorted(), p)) / 1e3
        }
    }

    pub fn all_sorted(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self.slices.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }
}

/// Runs one pass: spawns the sessions, lets them warm up, measures
/// `pass.slices` slices, stops and joins them. On `txn.checkin` every
/// slice begins with both sessions parked at a transaction boundary
/// while the main thread checkpoints — the log stays bounded and the
/// stall is inside the window. `acked` collects the check-ins'
/// acknowledged versions.
pub fn run_pass(
    ctx: Ctx<'_>,
    pass: Pass,
    acked: &mut [u64],
    main_rec: &mut Recorder,
) -> Result<PassOut, String> {
    let Ctx { db, w, .. } = ctx;
    let attrs = Attrs::of(db)?;
    let ctl = Control {
        phase: AtomicU8::new(WARMUP),
        parked: AtomicUsize::new(0),
        window_start: OnceLock::new(),
    };
    let before = db.metrics();
    let mut checkpoint_ms = Vec::new();

    let outs: Vec<Result<SessionOut, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|s| {
                let ctl = &ctl;
                scope.spawn(move || session_thread(ctx, s, pass, attrs, ctl))
            })
            .collect();

        std::thread::sleep(pass.warmup);
        let t0 = Instant::now();
        ctl.window_start.set(t0).expect("window starts once");
        ctl.phase.store(MEASURE, Ordering::SeqCst);
        let mut checkpoint_error = None;
        for s in 0..pass.slices {
            if w.kind == Kind::Checkin {
                match checkpoint_parked(db, &ctl, &handles, main_rec) {
                    Ok(ms) => checkpoint_ms.push(ms),
                    Err(e) => {
                        checkpoint_error = Some(e);
                        break;
                    }
                }
            }
            // One sleep per slice: with two session threads on two cores
            // every wake-up of this thread preempts a session, and 800
            // wake-ups a second put 0.5 % of `adhoc.point`'s 5 us
            // operations beyond their p99.
            let slice_end = t0 + pass.slice * (s as u32 + 1);
            std::thread::sleep(slice_end.saturating_duration_since(Instant::now()));
            // A traced session stops early when its span buffer is full.
            if handles.iter().all(|h| h.is_finished()) {
                break;
            }
        }
        ctl.phase.store(STOP, Ordering::SeqCst);
        let mut outs: Vec<_> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("session thread panicked".into()))
            })
            .collect();
        if let Some(e) = checkpoint_error {
            outs.push(Err(e));
        }
        outs
    });
    let delta = db.metrics().delta(&before);

    let mut out = PassOut {
        slices: vec![Vec::new(); pass.slices],
        slice_s: pass.slice.as_secs_f64(),
        attempted: 0,
        failed: 0,
        failed_outside: 0,
        issued: 0,
        first_error: None,
        active_ops_per_s: 0.0,
        delta,
        checkpoint_ms,
        recorders: Vec::new(),
    };
    for session in outs {
        let s = session?;
        for (i, slice) in out.slices.iter_mut().enumerate() {
            slice.extend_from_slice(&s.lat_ns[s.starts[i]..s.starts[i + 1]]);
        }
        out.attempted += s.lat_ns.len() as u64;
        out.failed += s.failed_in_window;
        out.failed_outside += s.failed_outside;
        out.issued += s.issued;
        out.first_error = out.first_error.or(s.first_error);
        if s.active_s > 0.0 {
            out.active_ops_per_s += s.lat_ns.len() as f64 / s.active_s;
        }
        for (mine, theirs) in acked.iter_mut().zip(&s.acked) {
            *mine = (*mine).max(*theirs);
        }
        out.recorders.push(s.rec);
    }
    for slice in &mut out.slices {
        slice.sort_unstable();
    }
    if out.attempted == 0 {
        return Err(format!(
            "{}: no operation completed inside the window",
            w.name
        ));
    }
    Ok(out)
}

/// Parks every session at an operation boundary, checkpoints, resumes.
/// Returns the checkpoint's duration in ms.
fn checkpoint_parked<T>(
    db: &Prima,
    ctl: &Control,
    handles: &[std::thread::ScopedJoinHandle<'_, T>],
    rec: &mut Recorder,
) -> Result<f64, String> {
    ctl.parked.store(0, Ordering::SeqCst);
    ctl.phase.store(PARK, Ordering::SeqCst);
    while ctl.parked.load(Ordering::SeqCst) < SESSIONS {
        if handles.iter().any(|h| h.is_finished()) {
            ctl.phase.store(STOP, Ordering::SeqCst);
            return Err("a session ended before the checkpoint".into());
        }
        std::thread::sleep(POLL);
    }
    let t = Instant::now();
    let done = rec.time(Name::PrimaCheckpoint, || db.checkpoint());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    ctl.phase
        .store(if done.is_ok() { MEASURE } else { STOP }, Ordering::SeqCst);
    done.map(|()| ms)
        .map_err(|e| format!("checkpoint inside the window: {e}"))
}

fn session_thread(
    ctx: Ctx<'_>,
    index: usize,
    pass: Pass,
    attrs: Attrs,
    ctl: &Control,
) -> Result<SessionOut, String> {
    let Ctx {
        db,
        w,
        solids,
        seed,
        epoch,
        versions,
    } = ctx;
    let session = db.session();
    let mut ops = Ops::new(w, &session, attrs, solids, versions)?;
    let mut keys = Keys::new(w, solids, seed, index);
    // Off while warming up; a traced pass switches it on with the window.
    let mut rec = Recorder::off();
    // Room for 2 M operations per second and session: the vector must
    // never grow inside the window. Untouched capacity costs no memory.
    let cap = (pass.slice.as_secs_f64() * pass.slices as f64 * 2e6) as usize + 1024;
    let mut out = SessionOut {
        lat_ns: Vec::with_capacity(cap),
        starts: vec![0; pass.slices + 1],
        issued: 0,
        failed_in_window: 0,
        failed_outside: 0,
        first_error: None,
        active_s: 0.0,
        rec: Recorder::off(),
        acked: Vec::new(),
    };
    let mut slice_now = 0;
    loop {
        let phase = ctl.phase.load(Ordering::SeqCst);
        if phase == STOP || rec.is_full() {
            break;
        }
        if phase == PARK {
            ctl.parked.fetch_add(1, Ordering::SeqCst);
            while ctl.phase.load(Ordering::SeqCst) == PARK {
                std::thread::sleep(POLL);
            }
            continue;
        }
        if phase == MEASURE && pass.traced && !rec.is_on() {
            rec = Recorder::new(true, SPAN_CAP, epoch);
        }
        let key = keys.next();
        let started = Instant::now();
        let open = rec.enter_op();
        let result = ops.run(key, &mut rec);
        rec.exit(open);
        let ended = Instant::now();
        out.issued += 1;

        let in_window = phase == MEASURE && {
            let t0 = *ctl.window_start.get().expect("set before MEASURE");
            let slice = ((ended - t0).as_nanos() / pass.slice.as_nanos()) as usize;
            if slice < pass.slices && out.lat_ns.len() < cap {
                while slice_now < slice {
                    slice_now += 1;
                    out.starts[slice_now] = out.lat_ns.len();
                }
                out.lat_ns
                    .push(u32::try_from((ended - started).as_nanos()).unwrap_or(u32::MAX));
                out.active_s = (ended - t0).as_secs_f64();
                true
            } else {
                false
            }
        };
        if let Err(e) = result {
            if in_window {
                out.failed_in_window += 1;
            } else {
                out.failed_outside += 1;
            }
            out.first_error.get_or_insert(e);
        }
    }
    while slice_now < pass.slices {
        slice_now += 1;
        out.starts[slice_now] = out.lat_ns.len();
    }
    out.rec = rec;
    out.acked = std::mem::take(&mut ops.acked);
    Ok(out)
}
