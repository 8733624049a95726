//! Contention robustness: bounded-wait queues, deadlock detection and
//! transparent session retry under genuinely concurrent load.
//!
//! Counterpart to `tests/isolation.rs` (which pins no-wait mode and
//! asserts on the conflicts themselves): here the lock table runs in its
//! blocking configurations and the scenarios use real threads. Deadlock
//! tests give the table a generous timeout so cycles are resolved by
//! detection (exactly one victim), never by the clock; timeout tests use
//! a short one. The conflict-heavy workload at the end is the headline
//! property: with the default bounded-wait config and the default retry
//! policy, no caller ever sees a conflict error.

use prima::txn::TxnError;
use prima::{LockConfig, Prima, PrimaError, QueryOptions, RetryPolicy, Value};
use prima_storage::{BlockDevice, FaultDisk, FaultSchedule, SimDisk};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const DDL: &str = "
CREATE ATOM_TYPE part
  ( id : IDENTIFIER, part_no : INTEGER, name : CHAR_VAR,
    sub : SET_OF (REF_TO (part.super)),
    super : SET_OF (REF_TO (part.sub)) )
KEYS_ARE (part_no);
";

fn db_with(config: LockConfig) -> Prima {
    Prima::builder().lock_config(config).build_with_ddl(DDL).unwrap()
}

/// Generous timeout: deadlocks must be resolved by detection, not by
/// the clock — a `LockTimeout` in these tests is a failure.
fn patient() -> LockConfig {
    LockConfig::bounded(Duration::from_secs(5), 64)
}

fn is_deadlock(e: &TxnError) -> bool {
    matches!(e, TxnError::Deadlock { .. })
}

/// Blocks until at least `want` waiters are parked in the lock table.
fn wait_for_queue(db: &Prima, want: usize) {
    let table = db.txn_manager().lock_table();
    for _ in 0..4000 {
        if table.queue_depths().iter().map(|(_, d)| *d).sum::<usize>() >= want {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("expected {want} parked waiters, queues stayed at {:?}", table.queue_depths());
}

fn names(db: &Prima) -> Vec<(i64, String)> {
    let s = db.session();
    let set = s.query("SELECT ALL FROM part", &QueryOptions::default()).unwrap().set;
    s.commit().unwrap();
    let mut out: Vec<(i64, String)> = set
        .molecules
        .iter()
        .map(|m| {
            let v = &m.root.atom.values;
            let no = match &v[1] {
                Value::Int(n) => *n,
                other => panic!("part_no should be Int, got {other:?}"),
            };
            let name = match &v[2] {
                Value::Str(s) => s.clone(),
                other => panic!("name should be Str, got {other:?}"),
            };
            (no, name)
        })
        .collect();
    out.sort();
    out
}

// ---------------------------------------------------------------------
// Deterministic deadlocks (kernel transactions)
// ---------------------------------------------------------------------

/// Locks `first`, rendezvouses, then tries `second` — the AB/BA shape.
/// Commits on success, aborts on error, reports what happened.
fn ab_ba(
    db: &Prima,
    barrier: &Barrier,
    first: prima::AtomId,
    second: prima::AtomId,
    tag: &str,
) -> Result<(), TxnError> {
    let t = db.begin().unwrap();
    t.modify_atom(first, &[(2, Value::Str(tag.into()))]).unwrap();
    barrier.wait();
    match t.modify_atom(second, &[(2, Value::Str(tag.into()))]) {
        Ok(()) => {
            t.commit().unwrap();
            Ok(())
        }
        Err(e) => {
            t.abort().unwrap();
            Err(e)
        }
    }
}

#[test]
fn two_txn_ab_ba_deadlock_aborts_exactly_one_victim() {
    let db = db_with(patient());
    let a = db.insert("part", &[("part_no", Value::Int(1))]).unwrap();
    let b = db.insert("part", &[("part_no", Value::Int(2))]).unwrap();

    let barrier = Barrier::new(2);
    let results = std::thread::scope(|s| {
        let h1 = s.spawn(|| ab_ba(&db, &barrier, a, b, "t1"));
        let h2 = s.spawn(|| ab_ba(&db, &barrier, b, a, "t2"));
        [h1.join().unwrap(), h2.join().unwrap()]
    });

    // Exactly one victim, and it is a detected deadlock — never a
    // timeout, never both sides, never a silent hang (we got here).
    let errors: Vec<&TxnError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(errors.len(), 1, "exactly one transaction must be victimized: {results:?}");
    assert!(is_deadlock(errors[0]), "victim must see Deadlock, got: {}", errors[0]);

    // The survivor's writes are complete; the victim's undo erased its
    // half-done first write (both atoms carry the survivor's tag).
    let winner = if results[0].is_ok() { "t1" } else { "t2" };
    assert_eq!(names(&db), vec![(1, winner.to_string()), (2, winner.to_string())]);

    let stats = db.metrics().lock;
    assert_eq!(stats.deadlocks_detected, 1, "one cycle, one victim: {stats:?}");
    assert_eq!(stats.timeouts, 0, "deadlock must be detected, not timed out: {stats:?}");
}

#[test]
fn victim_is_the_txn_with_fewest_locks_and_its_undo_is_applied() {
    let db = db_with(patient());
    let a = db.insert("part", &[("part_no", Value::Int(1), ), ("name", Value::Str("base".into()))]).unwrap();
    let b = db.insert("part", &[("part_no", Value::Int(2)), ("name", Value::Str("base".into()))]).unwrap();

    let barrier = Barrier::new(2);
    let results = std::thread::scope(|s| {
        // t1 carries extra inserted atoms — strictly more locks held.
        let h1 = s.spawn(|| {
            let t = db.begin().unwrap();
            for k in 101..104i64 {
                t.insert_atom(0, vec![Value::Null, Value::Int(k), Value::Str("bulk".into())])
                    .unwrap();
            }
            t.modify_atom(a, &[(2, Value::Str("t1".into()))]).unwrap();
            barrier.wait();
            match t.modify_atom(b, &[(2, Value::Str("t1".into()))]) {
                Ok(()) => {
                    t.commit().unwrap();
                    Ok(())
                }
                Err(e) => {
                    t.abort().unwrap();
                    Err(e)
                }
            }
        });
        // t2 holds only its marker insert and one atom.
        let h2 = s.spawn(|| {
            let t = db.begin().unwrap();
            t.insert_atom(0, vec![Value::Null, Value::Int(201), Value::Str("loser".into())])
                .unwrap();
            t.modify_atom(b, &[(2, Value::Str("t2".into()))]).unwrap();
            barrier.wait();
            match t.modify_atom(a, &[(2, Value::Str("t2".into()))]) {
                Ok(()) => {
                    t.commit().unwrap();
                    Ok(())
                }
                Err(e) => {
                    t.abort().unwrap();
                    Err(e)
                }
            }
        });
        [h1.join().unwrap(), h2.join().unwrap()]
    });

    // Victim choice is deterministic: t2 holds strictly fewer locks.
    assert!(results[0].is_ok(), "the lock-rich transaction must survive: {results:?}");
    assert!(
        results[1].as_ref().err().is_some_and(is_deadlock),
        "the lock-poor transaction must be the victim: {results:?}"
    );

    // The victim's undo is fully applied: its marker is gone, its write
    // to `b` is rolled back; the survivor's bulk inserts and writes are
    // all there.
    assert_eq!(
        names(&db),
        vec![
            (1, "t1".to_string()),
            (2, "t1".to_string()),
            (101, "bulk".to_string()),
            (102, "bulk".to_string()),
            (103, "bulk".to_string()),
        ]
    );
}

#[test]
fn three_txn_cycle_is_broken_by_a_single_victim() {
    let db = db_with(patient());
    let atoms: Vec<prima::AtomId> = (0..3i64)
        .map(|i| db.insert("part", &[("part_no", Value::Int(i))]).unwrap())
        .collect();

    let barrier = Barrier::new(3);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let atoms = &atoms;
                let barrier = &barrier;
                let db = &db;
                s.spawn(move || {
                    ab_ba(db, barrier, atoms[i], atoms[(i + 1) % 3], &format!("t{i}"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
    });

    let errors: Vec<&TxnError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(errors.len(), 1, "a 3-cycle needs exactly one victim: {results:?}");
    assert!(is_deadlock(errors[0]), "got: {}", errors[0]);

    let stats = db.metrics().lock;
    assert_eq!(stats.deadlocks_detected, 1, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
    assert_eq!(db.txn_manager().lock_table().locked_targets(), 0, "all locks drained");
}

// ---------------------------------------------------------------------
// Upgrade deadlock through the session/query path
// ---------------------------------------------------------------------

#[test]
fn session_upgrade_deadlock_victimizes_one_and_the_other_inserts() {
    let db = db_with(patient());
    for i in 0..4 {
        db.insert("part", &[("part_no", Value::Int(i)), ("name", Value::Str("v".into()))])
            .unwrap();
    }

    // Both sessions scan (extension Shared), then INSERT in the same
    // transaction (extension IntentExclusive) — the S→IX upgrade
    // deadlock. In-transaction statements are never retried, so the
    // victim's Deadlock surfaces raw.
    let barrier = Barrier::new(2);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2i64)
            .map(|i| {
                let db = &db;
                let barrier = &barrier;
                s.spawn(move || {
                    let session = db.session();
                    // Explicit transaction: the scan must take the
                    // extension Shared (a snapshot read would not), so
                    // the INSERT below is the S→IX upgrade.
                    session.begin().unwrap();
                    session.query("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
                    barrier.wait();
                    match session
                        .execute(&format!("INSERT part (part_no: {}, name: 'fresh')", 100 + i))
                    {
                        Ok(_) => {
                            session.commit().unwrap();
                            Ok(())
                        }
                        Err(e) => {
                            session.rollback().unwrap();
                            Err(e)
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
    });

    let errors: Vec<&PrimaError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(errors.len(), 1, "exactly one upgrader is victimized: {results:?}");
    assert!(
        matches!(errors[0], PrimaError::Txn(TxnError::Deadlock { .. })),
        "upgrade cycle must end in Deadlock, got: {}",
        errors[0]
    );
    assert!(errors[0].is_retryable(), "a deadlock victim is retryable by definition");

    // The survivor's row committed, the victim's never came into being.
    let committed = names(&db);
    let inserted: Vec<i64> =
        committed.iter().map(|(no, _)| *no).filter(|no| *no >= 100).collect();
    let winner = if results[0].is_ok() { 100 } else { 101 };
    assert_eq!(inserted, vec![winner]);

    let stats = db.metrics().lock;
    assert!(stats.deadlocks_detected >= 1, "{stats:?}");
    assert_eq!(stats.timeouts, 0, "{stats:?}");
}

// ---------------------------------------------------------------------
// Bounded waits: timeout when the holder stays, grant when it goes
// ---------------------------------------------------------------------

#[test]
fn bounded_wait_times_out_against_a_stubborn_holder_then_parks_through_a_commit() {
    let db = db_with(LockConfig::bounded(Duration::from_millis(60), 8));
    db.insert("part", &[("part_no", Value::Int(1)), ("name", Value::Str("old".into()))])
        .unwrap();

    let writer = db.session();
    writer.execute("MODIFY part SET name = 'new' WHERE part_no = 1").unwrap();

    // Retry off: the oracle is the timeout itself. In-transaction read —
    // outside one it would snapshot past the writer without waiting.
    let mut reader = db.session();
    reader.set_retry_policy(RetryPolicy::off());
    reader.begin().unwrap();
    let before = db.metrics().lock;
    let err = reader
        .query("SELECT ALL FROM part WHERE part_no = 1", &QueryOptions::default())
        .unwrap_err();
    assert!(
        matches!(err, PrimaError::Txn(TxnError::LockTimeout { .. })),
        "bounded wait against a live writer must time out, got: {err}"
    );
    assert!(err.is_lock_conflict() && err.is_retryable());
    reader.rollback().unwrap();

    let waited = db.metrics().lock.since(&before);
    assert!(waited.timeouts >= 1, "timeout not counted: {waited:?}");
    assert!(waited.waits >= 1 && waited.wait_us_total > 0, "{waited:?}");

    // Same blocked shape, but now the writer commits while the reader is
    // parked: the reader is granted within its wait budget and sees
    // exactly the committed state — no retry involved.
    let reader_result = std::thread::scope(|s| {
        let db = &db;
        let h = s.spawn(move || {
            let mut r = db.session();
            r.set_retry_policy(RetryPolicy::off());
            r.begin().unwrap();
            let got = r.query("SELECT ALL FROM part WHERE part_no = 1", &QueryOptions::default());
            if got.is_ok() {
                r.commit().unwrap();
            }
            got.map(|res| res.set.molecules[0].root.atom.values[2].clone())
        });
        wait_for_queue(db, 1);
        writer.commit().unwrap();
        h.join().unwrap()
    });
    assert_eq!(reader_result.unwrap(), Value::Str("new".into()));
}

// ---------------------------------------------------------------------
// FIFO fairness end to end
// ---------------------------------------------------------------------

#[test]
fn queued_writer_is_not_overtaken_by_a_later_reader() {
    let db = db_with(patient());
    let id = db
        .insert("part", &[("part_no", Value::Int(1)), ("name", Value::Str("base".into()))])
        .unwrap();

    // Holder pins the atom exclusively; a writer parks behind it; a
    // reader arrives later. FIFO: when the holder commits, the writer
    // must get the atom first, so the reader observes the writer's value
    // — overtaking would hand it the holder's.
    let t_hold = db.begin().unwrap();
    t_hold.modify_atom(id, &[(2, Value::Str("hold".into()))]).unwrap();

    let read_value = std::thread::scope(|s| {
        let db = &db;
        let w = s.spawn(move || {
            let t = db.begin().unwrap();
            t.modify_atom(id, &[(2, Value::Str("w".into()))]).unwrap();
            t.commit().unwrap();
        });
        wait_for_queue(db, 1);
        let r = s.spawn(move || {
            let t = db.begin().unwrap();
            let atom = t.read_atom(id).unwrap();
            t.commit().unwrap();
            atom.values[2].clone()
        });
        wait_for_queue(db, 2);
        t_hold.commit().unwrap();
        w.join().unwrap();
        r.join().unwrap()
    });
    assert_eq!(read_value, Value::Str("w".into()), "reader overtook the queued writer");

    let stats = db.metrics().lock;
    assert!(stats.max_queue_depth >= 2, "{stats:?}");
    assert_eq!(stats.deadlocks_detected, 0, "{stats:?}");
}

// ---------------------------------------------------------------------
// The headline property: conflict-heavy load, zero visible conflicts
// ---------------------------------------------------------------------

#[test]
fn conflict_heavy_sessions_see_zero_conflict_errors_under_default_retry() {
    // Default everything: bounded-wait lock table, default RetryPolicy.
    let db = db_with(LockConfig::default());
    db.insert("part", &[("part_no", Value::Int(1)), ("name", Value::Str("v0".into()))])
        .unwrap();

    const THREADS: usize = 4;
    const OPS: usize = 20;
    let round = Barrier::new(THREADS);
    let errors = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = &db;
                let round = &round;
                s.spawn(move || {
                    let session = db.session();
                    let mut errs: Vec<String> = Vec::new();
                    for i in 0..OPS {
                        // Every round, all threads fire at the same key
                        // at once, and the winner sits on its exclusive
                        // lock for a moment before committing: extension
                        // S→IX upgrades, atom X conflicts and deadlock
                        // shapes all occur; retry must absorb them all.
                        round.wait();
                        let stmt =
                            format!("MODIFY part SET name = 't{t}-{i}' WHERE part_no = 1");
                        if let Err(e) = session.execute(&stmt) {
                            errs.push(format!("{stmt}: {e}"));
                            let _ = session.rollback();
                            continue;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                        if let Err(e) = session.commit() {
                            errs.push(format!("commit after {stmt}: {e}"));
                            let _ = session.rollback();
                        }
                    }
                    errs
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect::<Vec<_>>()
    });
    assert!(errors.is_empty(), "caller-visible errors under default retry: {errors:#?}");

    // The workload really contended.
    let stats = db.metrics().lock;
    assert!(stats.waits > 0, "no lock ever waited; workload was not contended: {stats:?}");
    assert_eq!(stats.waiting_now, 0, "workload done, nobody should still be parked");
    assert_eq!(db.txn_manager().lock_table().locked_targets(), 0, "table fully drained");

    // Last committed value is one of the workload's writes.
    let final_names = names(&db);
    assert_eq!(final_names.len(), 1);
    assert!(final_names[0].1.starts_with('t'), "unexpected final value: {final_names:?}");
}

// ---------------------------------------------------------------------
// Group commit through the session API
// ---------------------------------------------------------------------

/// Polls `cond` for up to ~5 s; returns whether it ever held.
fn eventually(cond: impl Fn() -> bool) -> bool {
    for _ in 0..20_000 {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_micros(250));
    }
    false
}

/// Concurrent `Session::commit`s share WAL forces. The first commit
/// force is held inside the device until every other session's
/// `TxnCommit` record is buffered behind it, so the commits complete in
/// at most two forces: the stalled leader's, and one covering everybody
/// who queued meanwhile. A commit path that serialises sessions before
/// their records reach the log never lets the others queue, and fails.
#[test]
fn concurrent_session_commits_share_wal_forces() {
    const SESSIONS: u64 = 4;
    let fault = FaultDisk::new(Arc::new(SimDisk::new()), FaultSchedule::manual(21));
    let db = Prima::builder()
        .device(Arc::clone(&fault) as Arc<dyn BlockDevice>)
        .durable()
        .build_with_ddl(DDL)
        .unwrap();
    let wal = Arc::clone(db.storage().wal().expect("durable kernel has a WAL"));
    let step = Barrier::new(SESSIONS as usize + 1);

    let (before, queued) = std::thread::scope(|s| {
        for t in 0..SESSIONS {
            let (db, step) = (&db, &step);
            s.spawn(move || {
                let session = db.session();
                session.execute(&format!("INSERT part (part_no: {t}, name: 's{t}')")).unwrap();
                step.wait(); // inserted
                step.wait(); // device held
                session.commit().unwrap();
            });
        }
        step.wait();
        // Every record but the commits is buffered; nothing is forced yet.
        let inserted_lsn = wal.buffered_lsn();
        let before = fault.stats().snapshot();
        fault.hold_wal_appends();
        step.wait();
        let queued = eventually(|| {
            fault.stalled_wal_appends() == 1 && wal.buffered_lsn() == inserted_lsn + SESSIONS
        });
        // Release before asserting, so a failure cannot hang the scope.
        fault.release_wal_appends();
        (before, queued)
    });
    assert!(queued, "the other commit records never queued behind the stalled leader");

    let d = fault.stats().snapshot().since(&before);
    assert_eq!(d.group_commit_commits, SESSIONS, "every commit record forced exactly once");
    assert!(
        d.wal_forces < SESSIONS,
        "sessions shared forces: {} forces for {SESSIONS} commits",
        d.wal_forces
    );
    assert_eq!(names(&db).len(), SESSIONS as usize);
}
