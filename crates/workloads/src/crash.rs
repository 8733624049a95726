//! Randomized crash-consistency workload and committed-prefix oracle.
//!
//! One *crash schedule* = one seed. The seed derives a
//! [`FaultSchedule`] (when the simulated medium dies and how much of the
//! acknowledged-but-unpersisted state survives — see
//! `prima_storage::fault_disk`) **and** drives the Session workload that
//! runs against it: a random interleaving of INSERT / MODIFY / DELETE,
//! commits, rollbacks, buffer flushes (steal) and checkpoints, mirrored
//! step by step in an in-memory model.
//!
//! When the crash fires (or [`run_crash_schedule`] pulls the plug at the
//! end of the script), the kernel is discarded, the database is reopened
//! from the **persisted image** with `Prima::open`-style restart
//! recovery, and the recovered state is checked against the oracle:
//!
//! * **committed prefix** — the recovered database equals the model at
//!   the last *acknowledged* commit. The only admissible alternative is
//!   the model at the commit that was *in flight* when the crash hit its
//!   WAL force (the force may have fully persisted before the medium
//!   died — the classic "commit returned an error but actually became
//!   durable" outcome); the recovered state must be exactly one of the
//!   two, never a frankenstate in between.
//! * **losers are gone** — uncommitted and rolled-back work is absent.
//! * **surrogates are never reused** — atoms carry the exact ids the
//!   model recorded for them, and a post-recovery insert allocates an id
//!   above everything the durable state ever contained.
//!
//! Any violation panics with a one-line reproducer (`seed`, step count
//! and the command to replay it); the whole run is deterministic from
//! the seed.

use prima::datasys::DmlResult;
use prima::txn::TxnError;
use prima::{LockConfig, Prima, PrimaError, QueryOptions, RetryPolicy, Value};
use prima_storage::{BlockDevice, FaultDisk, FaultSchedule};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::BTreeMap;
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
}

fn repro(seed: u64, steps: usize, what: &str, detail: String) -> String {
    format!(
        "crash-consistency violation: {what}\n\
         PRIMA_FUZZ_REPRO: PRIMA_FUZZ_SEED_BASE={seed} PRIMA_FUZZ_SEEDS=1 \
         PRIMA_FUZZ_OPS={steps} cargo test --test crash_consistency -- --nocapture\n\
         {detail}"
    )
}

/// Cross-family metric invariants must hold on a quiesced kernel; a
/// violation here means a counter was dropped or double-bumped somewhere
/// on the recovery or post-recovery path.
fn check_metrics_coherence(db: &Prima, seed: u64, steps: usize, when: &str) {
    if let Err(violations) = db.metrics().check_coherence() {
        panic!(
            "{}",
            repro(seed, steps, "metrics coherence violated", format!("{when}: {violations:?}"))
        );
    }
}

/// Reads the full `part` extension as a model state.
fn observe(db: &Prima) -> ModelState {
    let set = db
        .session()
        .query("SELECT ALL FROM part", &QueryOptions::default())
        .expect("post-recovery query must work")
        .set;
    set.molecules
        .iter()
        .map(|m| {
            let v = &m.root.atom.values;
            let seq = match &v[0] {
                Value::Id(id) => id.seq,
                other => panic!("part_id should be an identifier, got {other:?}"),
            };
            let no = match &v[1] {
                Value::Int(n) => *n,
                other => panic!("part_no should be Int, got {other:?}"),
            };
            let name = match &v[2] {
                Value::Str(s) => s.clone(),
                other => panic!("name should be Str, got {other:?}"),
            };
            (no, (name, seq))
        })
        .collect()
}

/// Runs one seed-determined fault schedule over `inner` (a fresh
/// `SimDisk` or `FileDisk`), crashes, recovers from the persisted image
/// and checks the oracle. Panics with a seed-carrying reproducer on any
/// violation; returns what happened otherwise.
pub fn run_crash_schedule(inner: Arc<dyn BlockDevice>, seed: u64, steps: usize) -> CrashReport {
    let schedule = FaultSchedule::from_seed(seed);
    let fault = FaultDisk::new(inner, schedule);
    let device: Arc<dyn BlockDevice> = Arc::clone(&fault) as Arc<dyn BlockDevice>;

    // A small buffer keeps eviction (steal) in play: the workload's
    // record pages outgrow it, so dirty pages of open transactions get
    // stolen to the device mid-flight.
    let built = Prima::builder()
        .buffer_bytes(16 << 10)
        .device(device)
        .durable()
        .build_with_ddl(CRASH_DDL);
    let db = match built {
        Ok(db) => db,
        Err(e) => {
            if !fault.has_crashed() {
                panic!("{}", repro(seed, steps, "build failed without a crash", e.to_string()));
            }
            // Crash during bootstrap: either no durable database exists
            // yet (open fails cleanly — it never came into existence) or
            // the initial checkpoint made it and the database must come
            // back empty.
            if let Ok(db) = Prima::open_device(fault.persisted_device()) {
                let state = observe(&db);
                if !state.is_empty() {
                    panic!(
                        "{}",
                        repro(
                            seed,
                            steps,
                            "bootstrap crash recovered non-empty state",
                            format!("{state:?}"),
                        )
                    );
                }
            }
            return CrashReport {
                seed,
                steps_run: 0,
                acked_commits: 0,
                bootstrap_crash: true,
                in_flight_won: false,
            };
        }
    };

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x3a3a_c0de_2026_0001);
    let session = db.session();

    // The model: committed snapshots (index = acknowledged commit count)
    // plus the pending state of the open transaction.
    let mut snapshots: Vec<ModelState> = vec![ModelState::new()];
    let mut pending = ModelState::new();
    // Set when a commit's force was in flight at the crash: the batch
    // may have fully persisted, so this state is also admissible.
    let mut in_flight: Option<ModelState> = None;
    let mut version = 0u64;
    let mut steps_run = 0usize;

    'workload: for _ in 0..steps {
        if fault.has_crashed() {
            break;
        }
        steps_run += 1;
        let roll = rng.gen_range(0u32..100);
        if roll < 35 {
            // A burst of INSERTs (duplicate keys possible; the model
            // predicts them). Fat values spread the extension over many
            // pages, keeping replacement (and therefore steal) in play.
            for _ in 0..rng.gen_range(1usize..4) {
                let no = rng.gen_range(0i64..300);
                let name = format!("v{version}-{:0>400}", version);
                version += 1;
                match session.execute(&format!("INSERT part (part_no: {no}, name: '{name}')")) {
                    Ok(DmlResult::Inserted(id)) => {
                        let prev = pending.insert(no, (name, id.seq));
                        if prev.is_some() {
                            panic!(
                                "{}",
                                repro(seed, steps, "duplicate key accepted", format!("no={no}"))
                            );
                        }
                    }
                    Ok(other) => {
                        panic!("{}", repro(seed, steps, "INSERT wrong result", format!("{other:?}")))
                    }
                    Err(_) if fault.has_crashed() => break 'workload,
                    // The key-uniqueness rejection surfaces through the
                    // txn layer as a stringly Access error; anything else
                    // on an existing key is a real failure, not the
                    // predicted duplicate.
                    Err(e)
                        if pending.contains_key(&no)
                            && e.to_string().contains("duplicate key") => {}
                    Err(e) => {
                        panic!(
                            "{}",
                            repro(seed, steps, "unexpected INSERT error", e.to_string())
                        );
                    }
                }
            }
        } else if roll < 55 {
            // A burst of MODIFYs on scattered keys: re-dirties cold
            // pages, so the following misses can steal them while their
            // images are still unforced.
            for _ in 0..rng.gen_range(1usize..4) {
                let Some(&no) = pick_key(&pending, &mut rng) else { break };
                let name = format!("m{version}-{:0>400}", version);
                version += 1;
                match session
                    .execute(&format!("MODIFY part SET name = '{name}' WHERE part_no = {no}"))
                {
                    Ok(_) => pending.get_mut(&no).expect("picked from pending").0 = name,
                    Err(_) if fault.has_crashed() => break 'workload,
                    Err(e) => {
                        panic!("{}", repro(seed, steps, "unexpected MODIFY error", e.to_string()))
                    }
                }
            }
        } else if roll < 65 {
            // DELETE an existing key.
            let Some(&no) = pick_key(&pending, &mut rng) else { continue };
            match session.execute(&format!("DELETE FROM part WHERE part_no = {no}")) {
                Ok(_) => {
                    pending.remove(&no);
                }
                Err(_) if fault.has_crashed() => break 'workload,
                Err(e) => {
                    panic!("{}", repro(seed, steps, "unexpected DELETE error", e.to_string()))
                }
            }
        } else if roll < 75 {
            // Point query on a random key: buffer misses that evict —
            // stealing dirty pages of the open transaction.
            let no = rng.gen_range(0i64..300);
            match session
                .query(&format!("SELECT ALL FROM part WHERE part_no = {no}"), &QueryOptions::default())
            {
                Ok(r) => {
                    let got = r.set.molecules.first().map(|m| match &m.root.atom.values[2] {
                        Value::Str(s) => s.clone(),
                        other => panic!("name should be Str, got {other:?}"),
                    });
                    let want = pending.get(&no).map(|(name, _)| name.clone());
                    if got != want {
                        panic!(
                            "{}",
                            repro(
                                seed,
                                steps,
                                "read-your-own-writes violated mid-workload",
                                format!("key {no}: kernel {got:?} vs model {want:?}"),
                            )
                        );
                    }
                }
                Err(_) if fault.has_crashed() => break 'workload,
                Err(e) => {
                    panic!("{}", repro(seed, steps, "unexpected query error", e.to_string()))
                }
            }
        } else if roll < 84 {
            if !commit(&session, &fault, &mut snapshots, &mut pending, &mut in_flight, seed, steps)
            {
                break 'workload;
            }
        } else if roll < 89 {
            // ROLLBACK: the open transaction's work vanishes.
            match session.rollback() {
                Ok(()) => pending = snapshots.last().expect("initial snapshot").clone(),
                Err(_) if fault.has_crashed() => break 'workload,
                Err(e) => {
                    panic!("{}", repro(seed, steps, "unexpected rollback error", e.to_string()))
                }
            }
        } else if roll < 94 {
            // Buffer flush: exercises steal / WAL-before-data mid-txn.
            if db.storage().flush().is_err() {
                if fault.has_crashed() {
                    break 'workload;
                }
                panic!("{}", repro(seed, steps, "unexpected flush error", String::new()));
            }
        } else {
            // CHECKPOINT (commit first: the gate wants a quiesced kernel).
            if !commit(&session, &fault, &mut snapshots, &mut pending, &mut in_flight, seed, steps)
            {
                break 'workload;
            }
            match db.checkpoint() {
                Ok(()) => {}
                Err(_) if fault.has_crashed() => break 'workload,
                Err(e) => {
                    panic!("{}", repro(seed, steps, "unexpected checkpoint error", e.to_string()))
                }
            }
        }
    }

    // Pull the plug if the schedule never did: whatever is acknowledged
    // but unpersisted drains partially, exactly like a real power cut.
    fault.crash_now();

    // The device refuses everything now, so running the destructors is
    // equivalent to a process kill as far as the persisted image goes —
    // and it releases file handles, which `mem::forget` would leak
    // across hundreds of schedules.
    drop(session);
    drop(db);

    // Restart recovery from the persisted image.
    let db = match Prima::open_device(fault.persisted_device()) {
        Ok(db) => db,
        Err(e) => panic!("{}", repro(seed, steps, "recovery failed", e.to_string())),
    };
    let recovered = observe(&db);

    let acked = snapshots.len() - 1;
    let expected = snapshots.last().expect("initial snapshot");
    let in_flight_won = match (&recovered == expected, &in_flight) {
        (true, _) => false,
        (false, Some(alt)) if &recovered == alt => true,
        _ => panic!(
            "{}",
            repro(
                seed,
                steps,
                "recovered state matches neither the last acknowledged commit \
                 nor the in-flight one",
                format!(
                    "acked commits: {acked}\nexpected: {expected:?}\n\
                     in-flight: {in_flight:?}\nrecovered: {recovered:?}"
                ),
            )
        ),
    };
    // Surrogates are never reused: a fresh insert allocates above every
    // id the durable *history* ever contained — including atoms that
    // were inserted and later deleted across acknowledged commits (every
    // acked commit's records are forced, so recovery can always see
    // those ids in the WAL tail or the checkpointed counters).
    let max_seq = snapshots
        .iter()
        .chain(in_flight_won.then(|| in_flight.as_ref().expect("matched state exists")))
        .flat_map(|state| state.values().map(|(_, seq)| *seq))
        .max()
        .unwrap_or(0);
    let s = db.session();
    let post = s
        .execute("INSERT part (part_no: 100000, name: 'post-recovery')")
        .unwrap_or_else(|e| {
            panic!("{}", repro(seed, steps, "post-recovery insert failed", e.to_string()))
        });
    s.commit().unwrap_or_else(|e| {
        panic!("{}", repro(seed, steps, "post-recovery commit failed", e.to_string()))
    });
    if let DmlResult::Inserted(id) = post {
        if id.seq <= max_seq {
            panic!(
                "{}",
                repro(
                    seed,
                    steps,
                    "surrogate id reused after recovery",
                    format!("new seq {} <= durable max {max_seq}", id.seq),
                )
            );
        }
    }
    drop(s);
    check_metrics_coherence(&db, seed, steps, "after recovery + post-recovery insert");

    CrashReport { seed, steps_run, acked_commits: acked, bootstrap_crash: false, in_flight_won }
}

/// Runs one seed-determined fault schedule with **multiple sessions** on
/// the kernel: one writer (random INSERT / MODIFY / DELETE bursts,
/// commits, rollbacks, flushes) interleaved with 1–2 reader sessions.
/// The readers are the isolation oracle, the recovery pass at the end is
/// the durability oracle:
///
/// The readers run **in explicit transactions** (`Session::begin`) so
/// their queries take the locking read path — an auto-commit read would
/// snapshot-read past the writer without conflicting, which
/// [`run_multi_session_schedule_mvcc`] covers with its own oracle.
///
/// * whenever the writer has uncommitted manipulation in flight, a
///   reader's query **must** fail with a lock conflict (the writer holds
///   the extension `IntentExclusive`); it must *never* deliver the
///   uncommitted state;
/// * whenever the writer is clean, a reader's query **must** succeed and
///   equal the last acknowledged commit exactly — uncommitted and
///   rolled-back atoms are never observable, committed ones never
///   missing;
/// * readers randomly hold their shared locks across steps (strict 2PL:
///   released only at their commit); while they do, writer DML must fail
///   with a lock conflict and leave no trace in the recovered state;
/// * after the crash, the recovered database must satisfy the same
///   committed-prefix oracle as [`run_crash_schedule`].
///
/// The workload interleaves the sessions on one thread, so the lock
/// table runs in [`LockConfig::no_wait`] (a parked request could never
/// be woken) and the sessions' transparent retry is off — the oracle
/// asserts on the conflicts themselves. [`run_multi_session_schedule_waits`]
/// is the bounded-wait/deadlock variant.
///
/// Panics with a seed-carrying reproducer on any violation.
pub fn run_multi_session_schedule(
    inner: Arc<dyn BlockDevice>,
    seed: u64,
    steps: usize,
) -> CrashReport {
    run_multi_session(inner, seed, steps, false, false)
}

/// Like [`run_multi_session_schedule`], but the lock table runs in
/// bounded-wait mode (15 ms timeout, short queues), so every conflict in
/// the interleaved workload exercises the park/timeout path instead of
/// failing fast — [`PrimaError::is_lock_conflict`] covers both, the
/// oracles are unchanged. On top, a slice of the schedule runs
/// *contention episodes*: two genuinely concurrent contender sessions
/// race the same extension with the classic S→IX upgrade-deadlock shape
/// (SELECT, then INSERT in the same transaction). The episode oracle:
/// at most one contender is victimized ([`TxnError::Deadlock`]), every
/// contender error is retryable, and — because contenders always roll
/// back — the committed-prefix oracle at the end is untouched.
pub fn run_multi_session_schedule_waits(
    inner: Arc<dyn BlockDevice>,
    seed: u64,
    steps: usize,
) -> CrashReport {
    run_multi_session(inner, seed, steps, true, false)
}

/// Like [`run_multi_session_schedule`], but the readers stay outside any
/// transaction, so every query takes the MVCC **snapshot read path**.
/// The isolation oracle inverts accordingly:
///
/// * a reader's query must **succeed even while the writer is dirty**,
///   and what it sees must equal the last acknowledged commit exactly —
///   the snapshot hides uncommitted manipulation instead of conflicting
///   with it;
/// * a reader must never touch the lock table at all: any lock-conflict
///   error, and any `lock.acquisitions` delta of [`prima::Prima::metrics`]
///   across a reader query, is a violation (the workload is interleaved
///   on one thread, so the delta is attributable);
/// * the committed-prefix oracle after crash + recovery is unchanged —
///   versions are volatile and must leave no trace in durable state.
pub fn run_multi_session_schedule_mvcc(
    inner: Arc<dyn BlockDevice>,
    seed: u64,
    steps: usize,
) -> CrashReport {
    run_multi_session(inner, seed, steps, false, true)
}

fn run_multi_session(
    inner: Arc<dyn BlockDevice>,
    seed: u64,
    steps: usize,
    waits: bool,
    snapshot_readers: bool,
) -> CrashReport {
    let schedule = FaultSchedule::from_seed(seed);
    let fault = FaultDisk::new(inner, schedule);
    let device: Arc<dyn BlockDevice> = Arc::clone(&fault) as Arc<dyn BlockDevice>;

    let lock_config = if waits {
        LockConfig::bounded(Duration::from_millis(15), 4)
    } else {
        LockConfig::no_wait()
    };
    let built = Prima::builder()
        .buffer_bytes(16 << 10)
        .lock_config(lock_config)
        .device(device)
        .durable()
        .build_with_ddl(CRASH_DDL);
    let db = match built {
        Ok(db) => db,
        Err(e) => {
            if !fault.has_crashed() {
                panic!("{}", repro(seed, steps, "build failed without a crash", e.to_string()));
            }
            if let Ok(db) = Prima::open_device(fault.persisted_device()) {
                let state = observe(&db);
                if !state.is_empty() {
                    panic!(
                        "{}",
                        repro(
                            seed,
                            steps,
                            "bootstrap crash recovered non-empty state",
                            format!("{state:?}"),
                        )
                    );
                }
            }
            return CrashReport {
                seed,
                steps_run: 0,
                acked_commits: 0,
                bootstrap_crash: true,
                in_flight_won: false,
            };
        }
    };

    let mut rng = SmallRng::seed_from_u64(seed ^ 0x3a3a_c0de_2026_0005);
    // The oracle asserts on the conflict errors themselves, so the
    // sessions' transparent retry must not absorb them.
    let mut writer = db.session();
    writer.set_retry_policy(RetryPolicy::off());
    let readers: Vec<prima::Session> = (0..rng.gen_range(1usize..3))
        .map(|_| {
            let mut r = db.session();
            r.set_retry_policy(RetryPolicy::off());
            r
        })
        .collect();
    // Whether reader i currently holds shared locks (query succeeded and
    // it has not committed since).
    let mut reader_holds: Vec<bool> = vec![false; readers.len()];

    let mut snapshots: Vec<ModelState> = vec![ModelState::new()];
    let mut pending = ModelState::new();
    let mut in_flight: Option<ModelState> = None;
    // Whether the writer's open transaction has uncommitted manipulation
    // (and therefore extension intent locks).
    let mut writer_dirty = false;
    let mut version = 0u64;
    let mut steps_run = 0usize;

    'workload: for _ in 0..steps {
        if fault.has_crashed() {
            break;
        }
        steps_run += 1;
        let roll = rng.gen_range(0u32..100);
        if roll < 40 {
            // Writer DML: one single-victim statement (conflicts happen
            // before any mutation, so the model never needs to track a
            // half-applied statement).
            enum Op {
                Insert(i64, String),
                Modify(i64, String),
                Delete(i64),
            }
            let op = match rng.gen_range(0u32..3) {
                0 => {
                    let name = format!("v{version}-{:0>400}", version);
                    version += 1;
                    Op::Insert(rng.gen_range(0i64..300), name)
                }
                1 => {
                    let Some(&no) = pick_key(&pending, &mut rng) else { continue };
                    let name = format!("m{version}-{:0>400}", version);
                    version += 1;
                    Op::Modify(no, name)
                }
                _ => {
                    let Some(&no) = pick_key(&pending, &mut rng) else { continue };
                    Op::Delete(no)
                }
            };
            let stmt = match &op {
                Op::Insert(no, name) => format!("INSERT part (part_no: {no}, name: '{name}')"),
                Op::Modify(no, name) => {
                    format!("MODIFY part SET name = '{name}' WHERE part_no = {no}")
                }
                Op::Delete(no) => format!("DELETE FROM part WHERE part_no = {no}"),
            };
            match writer.execute(&stmt) {
                Ok(result) => {
                    if reader_holds.iter().any(|h| *h) {
                        panic!(
                            "{}",
                            repro(
                                seed,
                                steps,
                                "writer DML succeeded while a reader held shared locks",
                                stmt,
                            )
                        );
                    }
                    writer_dirty = true;
                    match (op, result) {
                        (Op::Insert(no, name), DmlResult::Inserted(id)) => {
                            if pending.insert(no, (name, id.seq)).is_some() {
                                panic!(
                                    "{}",
                                    repro(seed, steps, "duplicate key accepted", format!("no={no}"))
                                );
                            }
                        }
                        (Op::Modify(no, name), DmlResult::Modified(_)) => {
                            pending.get_mut(&no).expect("picked from pending").0 = name;
                        }
                        (Op::Delete(no), DmlResult::Deleted(_)) => {
                            pending.remove(&no);
                        }
                        (_, other) => panic!(
                            "{}",
                            repro(seed, steps, "DML wrong result", format!("{other:?}"))
                        ),
                    }
                }
                Err(_) if fault.has_crashed() => break 'workload,
                Err(e) if e.is_lock_conflict() => {
                    // Only a lock-holding reader can push the writer off.
                    if !reader_holds.iter().any(|h| *h) {
                        panic!(
                            "{}",
                            repro(
                                seed,
                                steps,
                                "writer hit a lock conflict with no reader holding locks",
                                e.to_string(),
                            )
                        );
                    }
                }
                Err(e)
                    if matches!(op, Op::Insert(no, _) if pending.contains_key(&no))
                        && e.to_string().contains("duplicate key") =>
                {
                    // Predicted duplicate-key rejection. Key uniqueness is
                    // checked after the extension intent lock, so the
                    // writer's transaction now carries it: count as dirty.
                    writer_dirty = true;
                }
                Err(e) => {
                    panic!("{}", repro(seed, steps, "unexpected writer DML error", e.to_string()))
                }
            }
        } else if roll < 70 {
            // A reader queries: point lookup or full scan, sometimes via
            // a streaming cursor.
            let r = rng.gen_range(0usize..readers.len());
            let reader = &readers[r];
            if !snapshot_readers {
                // Locking oracle: the query must run inside a
                // transaction — an auto-commit read would take the
                // snapshot path and never conflict.
                match reader.begin() {
                    Ok(()) => {}
                    Err(_) if fault.has_crashed() => break 'workload,
                    Err(e) => {
                        panic!("{}", repro(seed, steps, "reader begin failed", e.to_string()))
                    }
                }
            }
            let locks_before = snapshot_readers.then(|| db.metrics().lock);
            let use_cursor = rng.gen_range(0u32..4) == 0;
            let committed = snapshots.last().expect("initial snapshot");
            let point = rng.gen_range(0u32..2) == 0;
            let outcome: Result<ModelState, prima::PrimaError> = if point {
                // Point lookup: graft the committed rest around the one
                // observed key so the comparison below stays uniform.
                let no = rng.gen_range(0i64..300);
                reader
                    .query(
                        &format!("SELECT ALL FROM part WHERE part_no = {no}"),
                        &QueryOptions::default(),
                    )
                    .map(|res| {
                        let mut merged = committed.clone();
                        merged.remove(&no);
                        merged.extend(state_of(&res.set));
                        merged
                    })
            } else if use_cursor {
                reader
                    .query_cursor("SELECT ALL FROM part", &QueryOptions::default())
                    .and_then(|mut c| c.fetch_all())
                    .map(|set| state_of(&set))
            } else {
                reader
                    .query("SELECT ALL FROM part", &QueryOptions::default())
                    .map(|res| state_of(&res.set))
            };
            match outcome {
                Ok(seen) => {
                    if writer_dirty && !snapshot_readers {
                        panic!(
                            "{}",
                            repro(
                                seed,
                                steps,
                                "reader query succeeded despite uncommitted writer DML",
                                format!("saw {} atoms", seen.len()),
                            )
                        );
                    }
                    // Snapshot readers must see exactly the last
                    // acknowledged commit even while the writer is dirty
                    // — the version store hides in-flight manipulation.
                    if &seen != committed {
                        panic!(
                            "{}",
                            repro(
                                seed,
                                steps,
                                "reader observed a state != last acknowledged commit",
                                format!(
                                    "writer dirty: {writer_dirty}\n\
                                     saw: {seen:?}\ncommitted: {committed:?}"
                                ),
                            )
                        );
                    }
                    if let Some(before) = &locks_before {
                        let d = db.metrics().lock.since(before);
                        if d.acquisitions != 0 {
                            panic!(
                                "{}",
                                repro(
                                    seed,
                                    steps,
                                    "snapshot reader generated lock-table traffic",
                                    format!("{} acquisitions", d.acquisitions),
                                )
                            );
                        }
                    }
                    // Strict 2PL: sometimes keep the shared locks across
                    // later steps, otherwise release immediately.
                    // (Snapshot readers hold nothing to keep.)
                    if !snapshot_readers && rng.gen_range(0u32..3) == 0 {
                        reader_holds[r] = true;
                    } else {
                        match reader.commit() {
                            Ok(()) => reader_holds[r] = false,
                            Err(_) if fault.has_crashed() => break 'workload,
                            Err(e) => panic!(
                                "{}",
                                repro(seed, steps, "reader commit failed", e.to_string())
                            ),
                        }
                    }
                }
                Err(_) if fault.has_crashed() => break 'workload,
                Err(e) if e.is_lock_conflict() => {
                    if snapshot_readers {
                        panic!(
                            "{}",
                            repro(
                                seed,
                                steps,
                                "snapshot reader hit a lock conflict",
                                e.to_string(),
                            )
                        );
                    }
                    if !writer_dirty {
                        panic!(
                            "{}",
                            repro(
                                seed,
                                steps,
                                "reader hit a lock conflict with no uncommitted writer",
                                e.to_string(),
                            )
                        );
                    }
                    // Immediate-conflict policy: roll the reader back so
                    // its partial locks cannot wedge the workload.
                    match reader.rollback() {
                        Ok(()) => reader_holds[r] = false,
                        Err(_) if fault.has_crashed() => break 'workload,
                        Err(e) => panic!(
                            "{}",
                            repro(seed, steps, "reader rollback failed", e.to_string())
                        ),
                    }
                }
                Err(e) => {
                    panic!("{}", repro(seed, steps, "unexpected reader error", e.to_string()))
                }
            }
        } else if roll < 76 {
            // A lock-holding reader lets go.
            if let Some(r) = reader_holds.iter().position(|h| *h) {
                match readers[r].commit() {
                    Ok(()) => reader_holds[r] = false,
                    Err(_) if fault.has_crashed() => break 'workload,
                    Err(e) => {
                        panic!("{}", repro(seed, steps, "reader commit failed", e.to_string()))
                    }
                }
            }
        } else if roll < 86 {
            if !commit(&writer, &fault, &mut snapshots, &mut pending, &mut in_flight, seed, steps)
            {
                break 'workload;
            }
            writer_dirty = false;
        } else if roll < 92 {
            match writer.rollback() {
                Ok(()) => {
                    pending = snapshots.last().expect("initial snapshot").clone();
                    writer_dirty = false;
                }
                Err(_) if fault.has_crashed() => break 'workload,
                Err(e) => {
                    panic!("{}", repro(seed, steps, "unexpected rollback error", e.to_string()))
                }
            }
        } else if waits && roll >= 96 {
            // Genuine concurrency: two contender threads race an
            // upgrade-deadlock shape against the bounded-wait table.
            contention_episode(&db, &fault, seed, steps, steps_run as u64);
        } else {
            // Buffer flush: steal under concurrency.
            if db.storage().flush().is_err() {
                if fault.has_crashed() {
                    break 'workload;
                }
                panic!("{}", repro(seed, steps, "unexpected flush error", String::new()));
            }
        }
    }

    fault.crash_now();
    drop(readers);
    drop(writer);
    drop(db);

    // Restart recovery: same committed-prefix oracle as the single-
    // session leg (reader transactions never mutate durable state).
    let db = match Prima::open_device(fault.persisted_device()) {
        Ok(db) => db,
        Err(e) => panic!("{}", repro(seed, steps, "recovery failed", e.to_string())),
    };
    let recovered = observe(&db);
    let acked = snapshots.len() - 1;
    let expected = snapshots.last().expect("initial snapshot");
    let in_flight_won = match (&recovered == expected, &in_flight) {
        (true, _) => false,
        (false, Some(alt)) if &recovered == alt => true,
        _ => panic!(
            "{}",
            repro(
                seed,
                steps,
                "recovered state matches neither the last acknowledged commit \
                 nor the in-flight one",
                format!(
                    "acked commits: {acked}\nexpected: {expected:?}\n\
                     in-flight: {in_flight:?}\nrecovered: {recovered:?}"
                ),
            )
        ),
    };
    check_metrics_coherence(&db, seed, steps, "after multi-session recovery");
    CrashReport { seed, steps_run, acked_commits: acked, bootstrap_crash: false, in_flight_won }
}

/// Per-committer outcome of the group-commit schedule (one per worker
/// thread, each owning a disjoint key range).
struct CommitterOutcome {
    /// The thread's key-range base (`range = base .. base + 1000`).
    base: i64,
    /// Model at the last acknowledged commit, restricted to the range.
    last_acked: ModelState,
    /// Model at the commit whose force was in flight at the crash, if
    /// any — admissible exactly like the single-session leg's.
    in_flight: Option<ModelState>,
    acked: usize,
    steps_run: usize,
}

/// Runs one seed-determined fault schedule with **concurrently
/// committing sessions** — the cross-session group-commit leg. 2–4
/// worker threads (seed-chosen) each own a disjoint `part_no` range and
/// commit every 1–2 statements, so their `TxnCommit` records genuinely
/// overlap inside the WAL's group coordinator and one leader's force
/// routinely carries several sessions' commits. The schedule then tears
/// that *shared* batch (torn prefix, bit rot, partial fsync — the whole
/// [`FaultSchedule`] menu), which is exactly the new failure surface
/// group commit introduces: an ack must imply the covering force
/// completed, for *every* session it covered.
///
/// Oracle, per thread over its own key range (ranges are disjoint, so
/// the committed-prefix argument applies to each range independently):
/// the recovered rows in thread t's range equal t's last acknowledged
/// commit — or its in-flight one (the torn batch may have fully
/// persisted, or its durable prefix may happen to include t's commit
/// record while the force still errored). Any other state — a later
/// unacked commit surviving, an acked one missing, a frankenstate — is
/// a violation. Cross-family metric invariants (including the
/// group-commit counters) are checked after recovery.
///
/// Thread interleaving is genuinely concurrent, so unlike the
/// single-session legs a seed pins the fault schedule but not the exact
/// interleaving; the oracle holds for every interleaving by
/// construction (disjoint ranges, per-thread models).
pub fn run_group_commit_schedule(
    inner: Arc<dyn BlockDevice>,
    seed: u64,
    steps: usize,
) -> CrashReport {
    let schedule = FaultSchedule::from_seed(seed);
    let fault = FaultDisk::new(inner, schedule);
    let device: Arc<dyn BlockDevice> = Arc::clone(&fault) as Arc<dyn BlockDevice>;

    // Default builder config: group commit ON (the default path is the
    // one under test); small buffer keeps steal in play.
    let built = Prima::builder()
        .buffer_bytes(16 << 10)
        .device(device)
        .durable()
        .build_with_ddl(CRASH_DDL);
    let db = match built {
        Ok(db) => db,
        Err(e) => {
            if !fault.has_crashed() {
                panic!("{}", repro(seed, steps, "build failed without a crash", e.to_string()));
            }
            if let Ok(db) = Prima::open_device(fault.persisted_device()) {
                let state = observe(&db);
                if !state.is_empty() {
                    panic!(
                        "{}",
                        repro(
                            seed,
                            steps,
                            "bootstrap crash recovered non-empty state",
                            format!("{state:?}"),
                        )
                    );
                }
            }
            return CrashReport {
                seed,
                steps_run: 0,
                acked_commits: 0,
                bootstrap_crash: true,
                in_flight_won: false,
            };
        }
    };

    let threads = 2 + (seed % 3) as usize; // 2..=4 committers
    let outcomes: Vec<CommitterOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = &db;
                let fault = &fault;
                scope.spawn(move || {
                    let session = db.session();
                    let base = 1_000 * t as i64;
                    let mut rng =
                        SmallRng::seed_from_u64(seed ^ (0x3a3a_c0de_2026_0009 + t as u64));
                    let mut last_acked = ModelState::new();
                    let mut pending = ModelState::new();
                    let mut in_flight: Option<ModelState> = None;
                    let mut acked = 0usize;
                    let mut steps_run = 0usize;
                    let mut next_key = 0i64;

                    'workload: while steps_run < steps {
                        if fault.has_crashed() {
                            break;
                        }
                        // 1–2 statements, then commit: commits from the
                        // worker threads genuinely overlap inside the
                        // group coordinator.
                        for _ in 0..rng.gen_range(1usize..3) {
                            steps_run += 1;
                            let roll = rng.gen_range(0u32..100);
                            if roll < 60 || pending.is_empty() {
                                // Monotone in-range key: inserts never
                                // collide, within or across threads.
                                let no = base + (next_key % 900);
                                next_key += 1;
                                let name = format!("t{t}-v{steps_run}-{:0>200}", steps_run);
                                match session.execute(&format!(
                                    "INSERT part (part_no: {no}, name: '{name}')"
                                )) {
                                    Ok(DmlResult::Inserted(id)) => {
                                        pending.insert(no, (name, id.seq));
                                    }
                                    Ok(other) => panic!(
                                        "{}",
                                        repro(
                                            seed,
                                            steps,
                                            "group INSERT wrong result",
                                            format!("{other:?}"),
                                        )
                                    ),
                                    Err(_) if fault.has_crashed() => break 'workload,
                                    Err(e)
                                        if pending.contains_key(&no)
                                            && e.to_string().contains("duplicate key") =>
                                    {
                                        // Key wrapped past 900 onto a
                                        // still-live row; the model
                                        // predicted the rejection.
                                    }
                                    Err(e) if retryable_abort(&e) => {
                                        // Deadlock victim / lock conflict:
                                        // the transaction is gone, re-sync
                                        // the model to the last ack.
                                        let _ = session.rollback();
                                        pending = last_acked.clone();
                                        continue 'workload;
                                    }
                                    Err(e) => panic!(
                                        "{}",
                                        repro(
                                            seed,
                                            steps,
                                            "unexpected group INSERT error",
                                            e.to_string(),
                                        )
                                    ),
                                }
                            } else if roll < 85 {
                                let Some(&no) = pick_key(&pending, &mut rng) else { continue };
                                let name = format!("t{t}-m{steps_run}-{:0>200}", steps_run);
                                match session.execute(&format!(
                                    "MODIFY part SET name = '{name}' WHERE part_no = {no}"
                                )) {
                                    Ok(_) => {
                                        pending.get_mut(&no).expect("picked from pending").0 =
                                            name;
                                    }
                                    Err(_) if fault.has_crashed() => break 'workload,
                                    Err(e) if retryable_abort(&e) => {
                                        let _ = session.rollback();
                                        pending = last_acked.clone();
                                        continue 'workload;
                                    }
                                    Err(e) => panic!(
                                        "{}",
                                        repro(
                                            seed,
                                            steps,
                                            "unexpected group MODIFY error",
                                            e.to_string(),
                                        )
                                    ),
                                }
                            } else {
                                let Some(&no) = pick_key(&pending, &mut rng) else { continue };
                                match session
                                    .execute(&format!("DELETE FROM part WHERE part_no = {no}"))
                                {
                                    Ok(_) => {
                                        pending.remove(&no);
                                    }
                                    Err(_) if fault.has_crashed() => break 'workload,
                                    Err(e) if retryable_abort(&e) => {
                                        let _ = session.rollback();
                                        pending = last_acked.clone();
                                        continue 'workload;
                                    }
                                    Err(e) => panic!(
                                        "{}",
                                        repro(
                                            seed,
                                            steps,
                                            "unexpected group DELETE error",
                                            e.to_string(),
                                        )
                                    ),
                                }
                            }
                        }
                        match session.commit() {
                            Ok(()) => {
                                last_acked = pending.clone();
                                acked += 1;
                            }
                            Err(_) if fault.has_crashed() => {
                                // The force carrying this commit was in
                                // flight (or its shared batch was torn
                                // with our record possibly inside the
                                // durable prefix): admissible.
                                in_flight = Some(pending.clone());
                                break 'workload;
                            }
                            Err(e) => panic!(
                                "{}",
                                repro(seed, steps, "unexpected group commit error", e.to_string())
                            ),
                        }
                        // Occasional buffer flush: a flush-path force
                        // racing the commit leaders.
                        if rng.gen_range(0u32..10) == 0 && db.storage().flush().is_err() {
                            if fault.has_crashed() {
                                break 'workload;
                            }
                            panic!(
                                "{}",
                                repro(seed, steps, "unexpected group flush error", String::new())
                            );
                        }
                    }
                    // An open (uncommitted) transaction at the crash is a
                    // loser; recovery must roll it back to last_acked.
                    drop(session);
                    CommitterOutcome { base, last_acked, in_flight, acked, steps_run }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("committer thread panicked")).collect()
    });

    fault.crash_now();
    drop(db);

    let db = match Prima::open_device(fault.persisted_device()) {
        Ok(db) => db,
        Err(e) => panic!("{}", repro(seed, steps, "group recovery failed", e.to_string())),
    };
    let recovered = observe(&db);

    let mut in_flight_won = false;
    for o in &outcomes {
        let range_state: ModelState = recovered
            .range(o.base..o.base + 1_000)
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        if range_state == o.last_acked {
            continue;
        }
        match &o.in_flight {
            Some(alt) if &range_state == alt => in_flight_won = true,
            _ => panic!(
                "{}",
                repro(
                    seed,
                    steps,
                    "group-commit range matches neither the last acknowledged \
                     commit nor the in-flight one",
                    format!(
                        "range base {}: acked commits {}\nexpected: {:?}\n\
                         in-flight: {:?}\nrecovered: {range_state:?}",
                        o.base, o.acked, o.last_acked, o.in_flight
                    ),
                )
            ),
        }
    }
    // Nothing outside the threads' ranges may exist.
    if let Some((stray, _)) = recovered.iter().find(|(k, _)| **k >= 1_000 * threads as i64) {
        panic!(
            "{}",
            repro(seed, steps, "recovered key outside every committer's range", stray.to_string())
        );
    }
    check_metrics_coherence(&db, seed, steps, "after group-commit recovery");

    CrashReport {
        seed,
        steps_run: outcomes.iter().map(|o| o.steps_run).sum(),
        acked_commits: outcomes.iter().map(|o| o.acked).sum(),
        bootstrap_crash: false,
        in_flight_won,
    }
}

/// One contention episode of the waits-mode schedule: two contender
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
fn contention_episode(db: &Prima, fault: &FaultDisk, seed: u64, steps: usize, tag: u64) {
    let outcomes: Vec<Vec<PrimaError>> = std::thread::scope(|scope| {
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
                    let mut errors = Vec::new();
                    let selected = session.begin().and_then(|()| {
                        session.query(
                            &format!("SELECT ALL FROM part WHERE part_no = {key}"),
                            &QueryOptions::default(),
                        )
                    });
                    match selected {
                        Ok(_) => {
                            if let Err(e) = session
                                .execute(&format!("INSERT part (part_no: {key}, name: 'c')"))
                            {
                                errors.push(e);
                            }
                        }
                        Err(e) => errors.push(e),
                    }
                    // Always back out — durable state must not change.
                    let _ = session.rollback();
                    errors
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("contender thread panicked")).collect()
    });
    if fault.has_crashed() {
        return;
    }
    let mut victims = 0usize;
    for errors in &outcomes {
        for e in errors {
            if matches!(e, PrimaError::Txn(TxnError::Deadlock { .. })) {
                victims += 1;
            } else if !e.is_retryable() {
                panic!(
                    "{}",
                    repro(seed, steps, "contender hit a non-retryable error", e.to_string())
                );
            }
        }
    }
    if victims > 1 {
        panic!(
            "{}",
            repro(
                seed,
                steps,
                "both contenders were chosen as deadlock victims",
                format!("{victims} victims in one two-party episode"),
            )
        );
    }
}

/// Projects a molecule set onto the model representation.
fn state_of(set: &prima::MoleculeSet) -> ModelState {
    set.molecules
        .iter()
        .map(|m| {
            let v = &m.root.atom.values;
            let seq = match &v[0] {
                Value::Id(id) => id.seq,
                other => panic!("part_id should be an identifier, got {other:?}"),
            };
            let no = match &v[1] {
                Value::Int(n) => *n,
                other => panic!("part_no should be Int, got {other:?}"),
            };
            let name = match &v[2] {
                Value::Str(s) => s.clone(),
                other => panic!("name should be Str, got {other:?}"),
            };
            (no, (name, seq))
        })
        .collect()
}

/// One commit step against kernel and model. Returns `false` when the
/// crash stopped the workload.
fn commit(
    session: &prima::Session,
    fault: &FaultDisk,
    snapshots: &mut Vec<ModelState>,
    pending: &mut ModelState,
    in_flight: &mut Option<ModelState>,
    seed: u64,
    steps: usize,
) -> bool {
    match session.commit() {
        Ok(()) => {
            snapshots.push(pending.clone());
            true
        }
        Err(_) if fault.has_crashed() => {
            // The force carrying this commit was in flight: it may have
            // fully persisted even though the call errored.
            *in_flight = Some(pending.clone());
            false
        }
        Err(e) => panic!("{}", repro(seed, steps, "unexpected commit error", e.to_string())),
    }
}

/// Whether a DML error means "the transaction was aborted, try again" —
/// a deadlock victimization or any other retryable contention outcome.
/// The group-commit leg's committers all touch the shared extension
/// (upgrade-deadlock shape), so victim aborts are expected traffic, not
/// oracle violations.
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
