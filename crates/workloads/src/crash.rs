//! Randomized crash-consistency workload and committed-prefix oracle.
//!
//! One *crash schedule* = one seed. The seed derives a
//! [`FaultSchedule`] (when the simulated medium dies and how much of the
//! acknowledged-but-unpersisted state survives — see
//! `prima_storage::fault_disk`) **and** drives the Session workload that
//! runs against it, mirrored step by step in an in-memory model.
//!
//! [`run_schedule`] is the one runner. It owns every step the legs
//! share; a [`Leg`] supplies only its lock configuration and its
//! workload loop:
//!
//! | [`Leg`] | workload | isolation oracle while it runs |
//! |---|---|---|
//! | `Single` | one session: INSERT / MODIFY / DELETE bursts, point reads, commits, rollbacks, flushes (steal), checkpoints | read-your-own-writes |
//! | `Readers` | one writer, 1–2 readers in explicit transactions, no-wait lock table | readers see the last acked commit or conflict with a dirty writer; writer DML conflicts while a reader holds locks |
//! | `ReadersWithWaits` | `Readers` on a bounded-wait lock table, plus two-thread upgrade-deadlock episodes | the same, plus at most one deadlock victim per episode |
//! | `SnapshotReaders` | one writer, 1–2 readers outside any transaction (MVCC snapshot path) | readers always succeed, see the last acked commit and take no lock |
//! | `GroupCommit` | 2–4 threads committing concurrently over disjoint key ranges | — |
//!
//! The shared steps:
//!
//! * **build** — a durable kernel over a [`FaultDisk`] with a 16 KiB
//!   buffer, so the workload's record pages outgrow it and dirty pages
//!   of open transactions get stolen mid-flight. A crash during the
//!   bootstrap must leave either no database or an empty one.
//! * **DML** — one helper runs an INSERT / MODIFY / DELETE, checks the
//!   result kind, applies it to the model and recognises a duplicate key
//!   the model predicted; every other error goes back to the leg.
//! * **crash** — when the schedule fires, or at the end of the script
//!   (during the force of whatever the log still buffers, so that batch
//!   is torn too), the kernel is discarded and reopened from the
//!   **persisted image** with `Prima::open`-style restart recovery.
//! * **oracle**, over a list of committers (one per session that
//!   commits; the single-session and reader legs have one owning every
//!   key, the group leg one per thread with its own key range):
//!   * **committed prefix** — the recovered rows in each committer's
//!     range equal its model at the last *acknowledged* commit, or at the
//!     commit that was *in flight* when the crash hit its WAL force (the
//!     force may have fully persisted before the medium died — "commit
//!     returned an error but actually became durable"); never a
//!     frankenstate in between, and no row outside every range;
//!   * **losers are gone** — uncommitted and rolled-back work is absent;
//!   * **surrogates are never reused** — atoms carry the exact ids the
//!     model recorded for them, and a post-recovery insert allocates an
//!     id above everything any committer's durable history contained;
//!   * cross-family metric invariants hold on the recovered kernel.
//!
//! Each [`CrashReport`] also says where the crash cut the log relative
//! to the page records: whether it tore a batch carrying page deltas,
//! and whether it fell between a page's image and a delta of that page.
//!
//! Any violation panics with a `crash-consistency violation:` message
//! naming the leg, the seed and the step count. Every leg but
//! `GroupCommit` is deterministic from the seed; the fuzz tests print
//! the command that replays one schedule ([`Leg::seed_offset`],
//! [`Leg::seeds_var`]).

use prima::datasys::DmlResult;
use prima::txn::TxnError;
use prima::{
    LockConfig, MoleculeSet, Prima, PrimaError, QueryOptions, RetryPolicy, Session, Value,
};
use prima_storage::{BlockDevice, CrashPoint, FaultDisk, FaultSchedule, PageId, Wal, WalRecord};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Schema of the crash workload: one keyed atom type, like the recovery
/// kill-point suite — the oracle is about durability, not molecule
/// semantics.
pub const CRASH_DDL: &str = "
    CREATE ATOM_TYPE part (
        part_id : IDENTIFIER,
        part_no : INTEGER,
        name    : CHAR_VAR )
    KEYS_ARE (part_no);
";

/// `part_no → (name, surrogate seq)` — one model state.
type ModelState = BTreeMap<i64, (String, u64)>;

/// The key range of a committer that owns every key.
const ALL_KEYS: Range<i64> = i64::MIN..i64::MAX;

/// Which workload a crash schedule runs (module docs, table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// One session: the durability oracle alone.
    Single,
    /// One writer and 1–2 locking readers on a no-wait lock table.
    Readers,
    /// [`Leg::Readers`] on a bounded-wait lock table, plus contention
    /// episodes that race two sessions into an upgrade deadlock.
    ReadersWithWaits,
    /// One writer and 1–2 readers on the MVCC snapshot path.
    SnapshotReaders,
    /// 2–4 sessions committing concurrently, so one group-commit force
    /// carries several sessions' commits and the schedule tears it.
    GroupCommit,
}

impl Leg {
    /// Every leg.
    pub const ALL: [Leg; 5] =
        [Leg::Single, Leg::Readers, Leg::ReadersWithWaits, Leg::SnapshotReaders, Leg::GroupCommit];

    /// What the fuzz tests add to `PRIMA_FUZZ_SEED_BASE` for this leg
    /// over `SimDisk`; its `FileDisk` run adds another 1 000 000. The
    /// schedule and the workload both derive purely from the seed, so
    /// legs sharing seeds would replay each other's schedules.
    pub fn seed_offset(self) -> u64 {
        match self {
            Leg::Single => 0,
            Leg::Readers => 5_000_000,
            Leg::ReadersWithWaits => 7_000_000,
            Leg::SnapshotReaders => 8_000_000,
            Leg::GroupCommit => 9_000_000,
        }
    }

    /// The environment variable that sets this leg's schedule count.
    pub fn seeds_var(self) -> &'static str {
        match self {
            Leg::Single => "PRIMA_FUZZ_SEEDS",
            Leg::Readers => "PRIMA_FUZZ_MULTI_SEEDS",
            Leg::ReadersWithWaits => "PRIMA_FUZZ_WAITS",
            Leg::SnapshotReaders => "PRIMA_FUZZ_MVCC",
            Leg::GroupCommit => "PRIMA_FUZZ_GROUP",
        }
    }

    /// The reader legs interleave their sessions on one thread, so a
    /// parked lock request could never be woken: they fail fast, except
    /// the waits leg, whose conflicts exercise the park/timeout path.
    /// The others run the default (group commit on, bounded waits).
    fn lock_config(self) -> LockConfig {
        match self {
            Leg::Readers | Leg::SnapshotReaders => LockConfig::no_wait(),
            Leg::ReadersWithWaits => LockConfig::bounded(Duration::from_millis(15), 4),
            Leg::Single | Leg::GroupCommit => LockConfig::default(),
        }
    }
}

/// What one executed schedule did (for harness-level reporting).
#[derive(Debug, Clone)]
pub struct CrashReport {
    pub seed: u64,
    /// Statements issued before the crash stopped the workload.
    pub steps_run: usize,
    /// Commits acknowledged (`commit()` returned `Ok`).
    pub acked_commits: usize,
    /// Whether the crash hit while `build_with_ddl` was still running
    /// (no workload; recovery may legitimately find no database).
    pub bootstrap_crash: bool,
    /// Whether the matched state was the in-flight commit rather than
    /// the last acknowledged one.
    pub in_flight_won: bool,
    /// Whether the crash tore a WAL batch that carried page deltas.
    pub tore_delta_batch: bool,
    /// Whether the crash fell between a page's image and a delta of that
    /// page: the image is durable, the delta lost.
    pub image_then_lost_delta: bool,
}

/// Runs one seed-determined fault schedule of `leg` over `inner` (a
/// fresh `SimDisk` or `FileDisk`): builds the kernel, runs the leg's
/// workload, crashes, recovers from the persisted image and checks the
/// oracle (module docs). Panics with a seed-carrying message on any
/// violation; returns what happened otherwise.
pub fn run_schedule(leg: Leg, inner: Arc<dyn BlockDevice>, seed: u64, steps: usize) -> CrashReport {
    let fault = FaultDisk::new(inner, FaultSchedule::from_seed(seed));
    let run = Run { leg, seed, steps, fault: &fault };
    let built = Prima::builder()
        .buffer_bytes(16 << 10)
        .lock_config(leg.lock_config())
        .device(Arc::clone(&fault) as Arc<dyn BlockDevice>)
        .durable()
        .build_with_ddl(CRASH_DDL);
    let db = match built {
        Ok(db) => db,
        Err(e) if !fault.has_crashed() => run.fail("build failed without a crash", e),
        Err(_) => {
            // Crash during bootstrap: either no durable database exists
            // yet (open fails cleanly — it never came into existence) or
            // the initial checkpoint made it and the database must come
            // back empty.
            if let Ok(db) = Prima::open_device(fault.persisted_device()) {
                let state = read_all(&db);
                if !state.is_empty() {
                    run.fail("bootstrap crash recovered non-empty state", format!("{state:?}"));
                }
            }
            return CrashReport {
                seed,
                steps_run: 0,
                acked_commits: 0,
                bootstrap_crash: true,
                in_flight_won: false,
                tore_delta_batch: false,
                image_then_lost_delta: false,
            };
        }
    };
    let workload = match leg {
        Leg::Single => single(&run, &db),
        Leg::GroupCommit => group_commit(&run, &db),
        Leg::Readers | Leg::ReadersWithWaits | Leg::SnapshotReaders => readers(&run, &db),
    };
    // The device refuses everything now, so running the destructors is
    // equivalent to a process kill as far as the persisted image goes —
    // and it releases file handles, which `mem::forget` would leak
    // across hundreds of schedules.
    drop(db);
    let db = Prima::open_device(fault.persisted_device())
        .unwrap_or_else(|e| run.fail("recovery failed", e));
    let in_flight_won = run.check_recovered(&db, &workload.committers);
    let (tore_delta_batch, image_then_lost_delta) = workload.cut;
    CrashReport {
        seed,
        steps_run: workload.steps_run,
        acked_commits: workload.committers.iter().map(|c| c.acked.len() - 1).sum(),
        bootstrap_crash: false,
        in_flight_won,
        tore_delta_batch,
        image_then_lost_delta,
    }
}

/// The workload stopped because the device crashed.
struct Crashed;

/// One running schedule: what a violation report names, and the device
/// whose crash ends the workload.
struct Run<'a> {
    leg: Leg,
    seed: u64,
    steps: usize,
    fault: &'a FaultDisk,
}

impl Run<'_> {
    fn crashed(&self) -> bool {
        self.fault.has_crashed()
    }

    fn fail(&self, what: &str, detail: impl fmt::Display) -> ! {
        panic!(
            "crash-consistency violation: {what}\n\
             leg {:?}, seed {}, {} steps\n{detail}",
            self.leg, self.seed, self.steps
        )
    }

    /// `r`'s value. After the crash any error stops the workload;
    /// before it, an error is the violation `what`.
    fn ok<T, E: fmt::Display>(&self, r: Result<T, E>, what: &str) -> Result<T, Crashed> {
        match r {
            Ok(v) => Ok(v),
            Err(_) if self.crashed() => Err(Crashed),
            Err(e) => self.fail(what, e),
        }
    }

    /// Runs `step(n)` for `n = 1, 2, …` until the schedule's steps are
    /// used up or the device crashes; returns the steps run.
    fn drive(&self, mut step: impl FnMut(usize) -> Result<(), Crashed>) -> usize {
        let mut n = 0;
        while n < self.steps && !self.crashed() {
            n += 1;
            if step(n).is_err() {
                break;
            }
        }
        n
    }

    /// Pulls the plug if the schedule never did and says where the
    /// crash cut the log: `(tore_delta_batch, image_then_lost_delta)` of
    /// [`CrashReport`]. The single-session and reader legs call this
    /// while their sessions are still open, so an open transaction is a
    /// loser at the crash, not rolled back before it. When
    /// the log still buffers records — the open transaction's undo and
    /// page records — the plug is pulled during the force that would
    /// carry them, so the schedule's torn-write options cut that batch
    /// instead of dropping it whole.
    fn crash(&self, db: &Prima) -> (bool, bool) {
        let fault = self.fault;
        if !fault.has_crashed() {
            if let Some(wal) = db.storage().wal() {
                if wal.buffered_lsn() > wal.flushed_lsn() {
                    fault.arm(CrashPoint::OnWalForce(fault.wal_forces() + 1));
                    assert!(wal.force().is_err(), "the armed force crashes the device");
                }
            }
        }
        fault.crash_now();
        // The crashed kernel's group buffer still holds the records that
        // never became durable.
        let is_delta = |r: &WalRecord| matches!(r, WalRecord::PageDelta { .. });
        let torn = fault.torn_wal_batch().map(|b| Wal::decode(&b).unwrap_or_default());
        let tore_delta_batch = torn.is_some_and(|recs| recs.iter().any(is_delta));
        let durable = Wal::replay(&fault.persisted_device()).unwrap_or_default();
        let durable_lsn = durable.iter().map(WalRecord::lsn).max().unwrap_or(0);
        let imaged: HashSet<PageId> = durable
            .iter()
            .filter_map(|r| match r {
                WalRecord::PageImage { page, .. } => Some(*page),
                _ => None,
            })
            .collect();
        let lost = db.storage().wal().and_then(|w| w.unforced().ok()).unwrap_or_default();
        let image_then_lost_delta = lost.iter().any(|r| {
            matches!(r, WalRecord::PageDelta { lsn, page, .. }
                if *lsn > durable_lsn && imaged.contains(page))
        });
        (tore_delta_batch, image_then_lost_delta)
    }

    /// The recovery oracle (module docs): the committed prefix per
    /// committer, no row outside every committer's range, no reused
    /// surrogate, coherent metrics. Returns whether some committer's
    /// in-flight commit is what survived.
    fn check_recovered(&self, db: &Prima, committers: &[Model]) -> bool {
        let recovered = read_all(db);
        let mismatch = format!(
            "{} matches neither the last acknowledged commit nor the in-flight one",
            if self.leg == Leg::GroupCommit { "group-commit range" } else { "recovered state" }
        );
        let mut in_flight_won = false;
        // Surrogates are never reused: a fresh insert allocates above
        // every id the durable *history* ever contained — including
        // atoms inserted and later deleted across acknowledged commits
        // (every acked commit's records are forced, so recovery can
        // always see those ids in the WAL tail or the checkpointed
        // counters).
        let mut max_seq = 0;
        for c in committers {
            let seen: ModelState =
                recovered.range(c.keys.clone()).map(|(k, v)| (*k, v.clone())).collect();
            let won = if &seen == c.last_acked() {
                None
            } else if c.in_flight.as_ref() == Some(&seen) {
                in_flight_won = true;
                c.in_flight.as_ref()
            } else {
                self.fail(
                    &mismatch,
                    format!(
                        "keys {:?}, acked commits {}\nexpected: {:?}\n\
                         in-flight: {:?}\nrecovered: {seen:?}",
                        c.keys,
                        c.acked.len() - 1,
                        c.last_acked(),
                        c.in_flight
                    ),
                )
            };
            let seqs = c.acked.iter().chain(won).flat_map(|s| s.values().map(|(_, seq)| *seq));
            max_seq = seqs.fold(max_seq, u64::max);
        }
        if let Some(stray) =
            recovered.keys().find(|k| !committers.iter().any(|c| c.keys.contains(k)))
        {
            self.fail("recovered key outside every committer's range", stray);
        }
        let s = db.session();
        let post = s
            .execute("INSERT part (part_no: 100000, name: 'post-recovery')")
            .unwrap_or_else(|e| self.fail("post-recovery insert failed", e));
        s.commit().unwrap_or_else(|e| self.fail("post-recovery commit failed", e));
        if let DmlResult::Inserted(id) = post {
            if id.seq <= max_seq {
                self.fail(
                    "surrogate id reused after recovery",
                    format!("new seq {} <= durable max {max_seq}", id.seq),
                );
            }
        }
        drop(s);
        // Cross-family metric invariants must hold on a quiesced kernel;
        // a violation means a counter was dropped or double-bumped on the
        // recovery or post-recovery path.
        if let Err(violations) = db.metrics().check_coherence() {
            self.fail("metrics coherence violated", format!("{violations:?}"));
        }
        in_flight_won
    }
}

/// What a leg's workload leaves for the oracle.
struct Workload {
    /// One model per committing session.
    committers: Vec<Model>,
    /// Statements issued, summed over the sessions.
    steps_run: usize,
    /// [`Run::crash`]'s verdict on where the crash cut the log.
    cut: (bool, bool),
}

/// The model of one committing session over its key range.
struct Model {
    keys: Range<i64>,
    /// State at each acknowledged commit (index = acked commit count).
    acked: Vec<ModelState>,
    /// State of the open transaction.
    pending: ModelState,
    /// Set when a commit's force was in flight at the crash: the batch
    /// may have fully persisted, so this state is also admissible.
    in_flight: Option<ModelState>,
}

/// A DML statement of the workload.
enum Op {
    Insert(i64, String),
    Modify(i64, String),
    Delete(i64),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Insert(no, name) => write!(f, "INSERT part (part_no: {no}, name: '{name}')"),
            Op::Modify(no, name) => {
                write!(f, "MODIFY part SET name = '{name}' WHERE part_no = {no}")
            }
            Op::Delete(no) => write!(f, "DELETE FROM part WHERE part_no = {no}"),
        }
    }
}

/// How [`Model::dml`] went, for the leg to judge.
enum Dml {
    /// Executed and applied to the model.
    Applied,
    /// Rejected as the duplicate key the model predicted.
    Duplicate,
    /// Any other error.
    Failed(PrimaError),
}

impl Model {
    fn new(keys: Range<i64>) -> Model {
        Model { keys, acked: vec![ModelState::new()], pending: ModelState::new(), in_flight: None }
    }

    fn last_acked(&self) -> &ModelState {
        self.acked.last().expect("the initial state is acked")
    }

    /// The open transaction's work vanished.
    fn rollback(&mut self) {
        self.pending = self.last_acked().clone();
    }

    /// Commits `session`'s transaction: an acknowledged commit extends
    /// the history; one that failed because the device crashed is the
    /// in-flight commit.
    fn commit(&mut self, run: &Run, session: &Session) -> Result<(), Crashed> {
        match session.commit() {
            Ok(()) => {
                self.acked.push(self.pending.clone());
                Ok(())
            }
            Err(_) if run.crashed() => {
                self.in_flight = Some(self.pending.clone());
                Err(Crashed)
            }
            Err(e) => run.fail("unexpected commit error", e),
        }
    }

    /// Runs `op` on `session` and applies it to the open transaction's
    /// state. A conflict happens before any mutation, so the model never
    /// tracks a half-applied statement.
    fn dml(&mut self, run: &Run, session: &Session, op: &Op) -> Result<Dml, Crashed> {
        let result = match session.execute(&op.to_string()) {
            Ok(result) => result,
            Err(_) if run.crashed() => return Err(Crashed),
            // The key-uniqueness rejection surfaces through the txn layer
            // as a stringly Access error; anything else on an existing key
            // is a real failure, not the predicted duplicate.
            Err(e)
                if matches!(op, Op::Insert(no, _) if self.pending.contains_key(no))
                    && e.to_string().contains("duplicate key") =>
            {
                return Ok(Dml::Duplicate)
            }
            Err(e) => return Ok(Dml::Failed(e)),
        };
        match (op, result) {
            (Op::Insert(no, name), DmlResult::Inserted(id)) => {
                if self.pending.insert(*no, (name.clone(), id.seq)).is_some() {
                    run.fail("duplicate key accepted", format!("no={no}"));
                }
            }
            (Op::Modify(no, name), DmlResult::Modified(_)) => {
                self.pending.get_mut(no).expect("picked from pending").0 = name.clone();
            }
            (Op::Delete(no), DmlResult::Deleted(_)) => {
                self.pending.remove(no);
            }
            (op, other) => run.fail("DML wrong result", format!("{op}: {other:?}")),
        }
        Ok(Dml::Applied)
    }
}

/// A fat value: it spreads the extension over many pages, keeping
/// replacement (and therefore steal) in play.
fn fat_name(prefix: char, version: &mut u64) -> String {
    let name = format!("{prefix}{version}-{:0>400}", *version);
    *version += 1;
    name
}

/// [`Leg::Single`]: one session's INSERT / MODIFY / DELETE bursts, point
/// reads checked against the model, commits, rollbacks, buffer flushes
/// and checkpoints.
fn single(run: &Run, db: &Prima) -> Workload {
    let mut rng = SmallRng::seed_from_u64(run.seed ^ 0x3a3a_c0de_2026_0001);
    let session = db.session();
    let mut model = Model::new(ALL_KEYS);
    let mut version = 0u64;
    let steps_run = run.drive(|_| {
        let roll = rng.gen_range(0u32..100);
        if roll < 65 {
            // 35 %: a burst of INSERTs (duplicate keys possible; the
            // model predicts them); 20 %: a burst of MODIFYs on
            // scattered keys, re-dirtying cold pages so the following
            // misses can steal them while their images are still
            // unforced; 10 %: one DELETE.
            let burst = if roll < 55 { rng.gen_range(1usize..4) } else { 1 };
            for _ in 0..burst {
                let op = if roll < 35 {
                    let no = rng.gen_range(0i64..300);
                    Op::Insert(no, fat_name('v', &mut version))
                } else {
                    let Some(&no) = pick_key(&model.pending, &mut rng) else { break };
                    if roll < 55 {
                        Op::Modify(no, fat_name('m', &mut version))
                    } else {
                        Op::Delete(no)
                    }
                };
                if let Dml::Failed(e) = model.dml(run, &session, &op)? {
                    run.fail("unexpected DML error", format!("{op}: {e}"));
                }
            }
        } else if roll < 75 {
            // Point query on a random key: buffer misses that evict —
            // stealing dirty pages of the open transaction.
            let no = rng.gen_range(0i64..300);
            let query = format!("SELECT ALL FROM part WHERE part_no = {no}");
            let r =
                run.ok(session.query(&query, &QueryOptions::new()), "unexpected query error")?;
            let got: Vec<_> =
                state_of(&r.set).into_iter().map(|(k, (name, _))| (k, name)).collect();
            let want: Vec<_> =
                model.pending.get(&no).map(|(name, _)| (no, name.clone())).into_iter().collect();
            if got != want {
                run.fail(
                    "read-your-own-writes violated mid-workload",
                    format!("key {no}: kernel {got:?} vs model {want:?}"),
                );
            }
        } else if roll < 84 {
            model.commit(run, &session)?;
        } else if roll < 89 {
            run.ok(session.rollback(), "unexpected rollback error")?;
            model.rollback();
        } else if roll < 94 {
            // Buffer flush: exercises steal / WAL-before-data mid-txn.
            run.ok(db.storage().flush(), "unexpected flush error")?;
        } else {
            // CHECKPOINT (commit first: the gate wants a quiesced kernel).
            model.commit(run, &session)?;
            run.ok(db.checkpoint(), "unexpected checkpoint error")?;
        }
        Ok(())
    });
    Workload { cut: run.crash(db), committers: vec![model], steps_run }
}

/// The reader legs: one writer (single-statement DML, commits,
/// rollbacks, flushes) interleaved on one thread with 1–2 reader
/// sessions, which are the isolation oracle. The sessions' transparent
/// retry is off: the oracle asserts on the conflicts themselves.
///
/// * [`Leg::Readers`] and [`Leg::ReadersWithWaits`]: the readers run in
///   explicit transactions, so their queries take `Shared` locks. While
///   the writer has uncommitted manipulation (and so the extension
///   `IntentExclusive`), a reader's query must fail with a lock
///   conflict and never deliver the uncommitted state; while the writer
///   is clean, it must succeed and equal the last acknowledged commit
///   exactly. Readers randomly hold their locks across steps (strict
///   2PL); meanwhile writer DML must fail with a lock conflict and leave
///   no trace. The waits leg's bounded-wait table turns every conflict
///   into a park and a timeout — [`PrimaError::is_lock_conflict`] covers
///   both — and a slice of its steps runs [`contention_episode`]s.
/// * [`Leg::SnapshotReaders`]: the readers stay outside any transaction,
///   so every query takes the MVCC snapshot path and the oracle inverts:
///   a query must succeed even while the writer is dirty, see exactly
///   the last acknowledged commit, and never touch the lock table (no
///   lock-conflict error, no `lock.acquisitions` delta of
///   [`Prima::metrics`] across it — attributable, as the workload runs on
///   one thread).
fn readers(run: &Run, db: &Prima) -> Workload {
    let waits = run.leg == Leg::ReadersWithWaits;
    let snapshot_readers = run.leg == Leg::SnapshotReaders;
    let mut rng = SmallRng::seed_from_u64(run.seed ^ 0x3a3a_c0de_2026_0005);
    let session = || {
        let mut s = db.session();
        s.set_retry_policy(RetryPolicy::off());
        s
    };
    let writer = session();
    let readers: Vec<Session> = (0..rng.gen_range(1usize..3)).map(|_| session()).collect();
    // Whether reader i holds shared locks (its query succeeded and it has
    // not committed since).
    let mut holds = vec![false; readers.len()];
    let mut model = Model::new(ALL_KEYS);
    // Whether the writer's open transaction has uncommitted manipulation
    // (and therefore extension intent locks).
    let mut writer_dirty = false;
    let mut version = 0u64;
    let steps_run = run.drive(|step| {
        let roll = rng.gen_range(0u32..100);
        if roll < 40 {
            let op = match rng.gen_range(0u32..3) {
                0 => {
                    let name = fat_name('v', &mut version);
                    Op::Insert(rng.gen_range(0i64..300), name)
                }
                kind => {
                    let Some(&no) = pick_key(&model.pending, &mut rng) else { return Ok(()) };
                    if kind == 1 {
                        Op::Modify(no, fat_name('m', &mut version))
                    } else {
                        Op::Delete(no)
                    }
                }
            };
            let held = holds.contains(&true);
            match model.dml(run, &writer, &op)? {
                Dml::Applied if held => {
                    run.fail("writer DML succeeded while a reader held shared locks", &op)
                }
                // A predicted duplicate is rejected after the extension
                // intent lock, so the writer's transaction carries it.
                Dml::Applied | Dml::Duplicate => writer_dirty = true,
                // Only a lock-holding reader can push the writer off.
                Dml::Failed(e) if e.is_lock_conflict() && !held => {
                    run.fail("writer hit a lock conflict with no reader holding locks", e)
                }
                Dml::Failed(e) if e.is_lock_conflict() => {}
                Dml::Failed(e) => run.fail("unexpected writer DML error", format!("{op}: {e}")),
            }
        } else if roll < 70 {
            // A reader queries: point lookup or full scan, sometimes via
            // a streaming cursor.
            let r = rng.gen_range(0usize..readers.len());
            let reader = &readers[r];
            if !snapshot_readers {
                // An auto-commit read would take the snapshot path and
                // never conflict.
                run.ok(reader.begin(), "reader begin failed")?;
            }
            let locks_before = snapshot_readers.then(|| db.metrics().lock);
            let use_cursor = rng.gen_range(0u32..4) == 0;
            let committed = model.last_acked();
            let outcome = if rng.gen_range(0u32..2) == 0 {
                // Point lookup: graft the committed rest around the one
                // observed key so the comparison below stays uniform.
                let no = rng.gen_range(0i64..300);
                let query = format!("SELECT ALL FROM part WHERE part_no = {no}");
                reader.query(&query, &QueryOptions::new()).map(|res| {
                    let mut merged = committed.clone();
                    merged.remove(&no);
                    merged.extend(state_of(&res.set));
                    merged
                })
            } else if use_cursor {
                reader
                    .query_cursor("SELECT ALL FROM part", &QueryOptions::new())
                    .and_then(|mut c| c.fetch_all())
                    .map(|set| state_of(&set))
            } else {
                reader.query("SELECT ALL FROM part", &QueryOptions::new()).map(|r| state_of(&r.set))
            };
            match outcome {
                Ok(seen) => {
                    if writer_dirty && !snapshot_readers {
                        run.fail(
                            "reader query succeeded despite uncommitted writer DML",
                            format!("saw {} atoms", seen.len()),
                        );
                    }
                    // Snapshot readers too: the version store hides the
                    // writer's in-flight manipulation.
                    if &seen != committed {
                        run.fail(
                            "reader observed a state != last acknowledged commit",
                            format!(
                                "writer dirty: {writer_dirty}\n\
                                 saw: {seen:?}\ncommitted: {committed:?}"
                            ),
                        );
                    }
                    if let Some(before) = &locks_before {
                        let d = db.metrics().lock.since(before);
                        if d.acquisitions != 0 {
                            run.fail(
                                "snapshot reader generated lock-table traffic",
                                format!("{} acquisitions", d.acquisitions),
                            );
                        }
                    }
                    // Strict 2PL: sometimes keep the shared locks across
                    // later steps, otherwise release immediately.
                    // (Snapshot readers hold nothing to keep.)
                    if !snapshot_readers && rng.gen_range(0u32..3) == 0 {
                        holds[r] = true;
                    } else {
                        run.ok(reader.commit(), "reader commit failed")?;
                        holds[r] = false;
                    }
                }
                Err(_) if run.crashed() => return Err(Crashed),
                Err(e) if e.is_lock_conflict() => {
                    if snapshot_readers {
                        run.fail("snapshot reader hit a lock conflict", e);
                    }
                    if !writer_dirty {
                        run.fail("reader hit a lock conflict with no uncommitted writer", e);
                    }
                    // Immediate-conflict policy: roll the reader back so
                    // its partial locks cannot wedge the workload.
                    run.ok(reader.rollback(), "reader rollback failed")?;
                    holds[r] = false;
                }
                Err(e) => run.fail("unexpected reader error", e),
            }
        } else if roll < 76 {
            // A lock-holding reader lets go.
            if let Some(r) = holds.iter().position(|h| *h) {
                run.ok(readers[r].commit(), "reader commit failed")?;
                holds[r] = false;
            }
        } else if roll < 86 {
            model.commit(run, &writer)?;
            writer_dirty = false;
        } else if roll < 92 {
            run.ok(writer.rollback(), "unexpected rollback error")?;
            model.rollback();
            writer_dirty = false;
        } else if waits && roll >= 96 {
            contention_episode(run, db, step as u64);
        } else {
            // Buffer flush: steal under concurrency.
            run.ok(db.storage().flush(), "unexpected flush error")?;
        }
        Ok(())
    });
    Workload { cut: run.crash(db), committers: vec![model], steps_run }
}

/// [`Leg::GroupCommit`]: 2–4 worker threads (seed-chosen) each own a
/// disjoint `part_no` range and commit every 1–2 statements, so their
/// `TxnCommit` records genuinely overlap inside the WAL's group
/// coordinator and one leader's force routinely carries several
/// sessions' commits. The schedule then tears that *shared* batch (torn
/// prefix, bit rot, partial fsync — the whole [`FaultSchedule`] menu):
/// an ack must imply the covering force completed for *every* session
/// it covered. Ranges are disjoint, so the committed-prefix oracle
/// applies to each thread's range independently; a thread's torn batch
/// may have fully persisted, or its durable prefix may include the
/// thread's commit record while the force still errored, so its
/// in-flight commit is admissible.
///
/// Thread interleaving is genuinely concurrent, so unlike the other
/// legs a seed pins the fault schedule but not the exact interleaving;
/// the oracle holds for every interleaving by construction.
fn group_commit(run: &Run, db: &Prima) -> Workload {
    let threads = 2 + (run.seed % 3) as usize;
    let outcomes: Vec<(Model, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..threads).map(|t| scope.spawn(move || committer(run, db, t))).collect();
        handles.into_iter().map(|h| h.join().expect("committer thread panicked")).collect()
    });
    Workload {
        cut: run.crash(db),
        steps_run: outcomes.iter().map(|(_, steps)| steps).sum(),
        committers: outcomes.into_iter().map(|(model, _)| model).collect(),
    }
}

/// One [`Leg::GroupCommit`] thread over keys `1000·t .. 1000·t + 1000`:
/// its model and the statements it issued.
fn committer(run: &Run, db: &Prima, t: usize) -> (Model, usize) {
    let session = db.session();
    let base = 1_000 * t as i64;
    let mut rng = SmallRng::seed_from_u64(run.seed ^ (0x3a3a_c0de_2026_0009 + t as u64));
    let mut model = Model::new(base..base + 1_000);
    let mut steps_run = 0usize;
    let mut next_key = 0i64;
    let _ = (|| -> Result<(), Crashed> {
        'workload: while steps_run < run.steps && !run.crashed() {
            // 1–2 statements, then commit.
            for _ in 0..rng.gen_range(1usize..3) {
                steps_run += 1;
                let roll = rng.gen_range(0u32..100);
                let op = if roll < 60 || model.pending.is_empty() {
                    // Monotone in-range key: inserts collide only once
                    // the key wraps past 900 onto a still-live row.
                    let no = base + (next_key % 900);
                    next_key += 1;
                    Op::Insert(no, format!("t{t}-v{steps_run}-{:0>200}", steps_run))
                } else {
                    let Some(&no) = pick_key(&model.pending, &mut rng) else { continue };
                    if roll < 85 {
                        Op::Modify(no, format!("t{t}-m{steps_run}-{:0>200}", steps_run))
                    } else {
                        Op::Delete(no)
                    }
                };
                match model.dml(run, &session, &op)? {
                    Dml::Applied | Dml::Duplicate => {}
                    // The committers all touch the shared extension
                    // (upgrade-deadlock shape): a victim abort is
                    // expected traffic. The transaction is gone.
                    Dml::Failed(e) if retryable_abort(&e) => {
                        let _ = session.rollback();
                        model.rollback();
                        continue 'workload;
                    }
                    Dml::Failed(e) => run.fail("unexpected group DML error", format!("{op}: {e}")),
                }
            }
            model.commit(run, &session)?;
            // Occasional buffer flush: a flush-path force racing the
            // commit leaders.
            if rng.gen_range(0u32..10) == 0 {
                run.ok(db.storage().flush(), "unexpected group flush error")?;
            }
        }
        Ok(())
    })();
    (model, steps_run)
}

/// One contention episode of [`Leg::ReadersWithWaits`]: two contender
/// sessions on their own threads each SELECT a key (extension `Shared`)
/// and then INSERT under it (extension `IntentExclusive`) in the same
/// transaction — when their lock requests interleave, that is an S→IX
/// upgrade deadlock the table must resolve by victimizing one of them.
/// Contenders always roll back (keys far outside the workload's range),
/// so the model and the committed-prefix oracle are untouched; the main
/// writer and the readers never wait here, so they can never be picked
/// as victims.
///
/// Episode oracle (skipped once the crash has fired — the contenders'
/// errors are then the device's, not the lock manager's): every
/// contender error is retryable, and at most one of the two is a
/// [`TxnError::Deadlock`] victim.
fn contention_episode(run: &Run, db: &Prima, tag: u64) {
    let outcomes: Vec<Option<PrimaError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|i| {
                scope.spawn(move || {
                    // Explicit transaction: the SELECT must take the
                    // extension Shared so the INSERT is the S→IX upgrade
                    // (an auto-commit SELECT would snapshot-read without
                    // locking and no deadlock shape would form).
                    // In-transaction statements are never retried, so
                    // every error surfaces to the oracle below.
                    let session = db.session();
                    let key = 90_000 + (tag % 1_000) * 2 + i;
                    let query = format!("SELECT ALL FROM part WHERE part_no = {key}");
                    let outcome = session
                        .begin()
                        .and_then(|()| session.query(&query, &QueryOptions::new()))
                        .and_then(|_| {
                            session.execute(&format!("INSERT part (part_no: {key}, name: 'c')"))
                        });
                    // Always back out — durable state must not change.
                    let _ = session.rollback();
                    outcome.err()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("contender thread panicked")).collect()
    });
    if run.crashed() {
        return;
    }
    let mut victims = 0usize;
    for e in outcomes.iter().flatten() {
        if matches!(e, PrimaError::Txn(TxnError::Deadlock { .. })) {
            victims += 1;
        } else if !e.is_retryable() {
            run.fail("contender hit a non-retryable error", e);
        }
    }
    if victims > 1 {
        run.fail(
            "both contenders were chosen as deadlock victims",
            format!("{victims} victims in one two-party episode"),
        );
    }
}

/// The full `part` extension of `db` as a model state.
fn read_all(db: &Prima) -> ModelState {
    let r = db.session().query("SELECT ALL FROM part", &QueryOptions::new());
    state_of(&r.expect("post-recovery query must work").set)
}

/// Projects a molecule set onto the model representation.
fn state_of(set: &MoleculeSet) -> ModelState {
    set.molecules
        .iter()
        .map(|m| match &m.root.atom.values[..] {
            [Value::Id(id), Value::Int(no), Value::Str(name)] => (*no, (name.clone(), id.seq)),
            other => panic!("part should be (identifier, Int, Str), got {other:?}"),
        })
        .collect()
}

/// Whether a DML error means "the transaction was aborted, try again" —
/// a deadlock victimization or any other retryable contention outcome.
fn retryable_abort(e: &PrimaError) -> bool {
    matches!(e, PrimaError::Txn(TxnError::Deadlock { .. })) || e.is_retryable()
}

fn pick_key<'m>(model: &'m ModelState, rng: &mut SmallRng) -> Option<&'m i64> {
    if model.is_empty() {
        return None;
    }
    let idx = rng.gen_range(0usize..model.len());
    model.keys().nth(idx)
}
