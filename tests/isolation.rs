//! Query-path isolation: shared atom/extension locks on molecule
//! retrieval (strict two-phase).
//!
//! Two-session scenarios over one kernel: a reader must never observe a
//! concurrent session's uncommitted INSERT / MODIFY / DELETE. These
//! tests interleave the conflicting sessions on one thread, so they pin
//! [`LockConfig::no_wait`] — conflicting requests fail immediately with
//! `LockConflict` instead of parking in the (default) bounded-wait
//! queue, and "never observe" concretely means "either sees the
//! committed state or fails fast". Readers open their transaction
//! explicitly with `Session::begin()`: these tests pin the *locking*
//! read path, and a read issued outside a transaction now takes the
//! lock-free snapshot path instead (covered by `tests/snapshot.rs`). Queueing, timeouts and deadlock
//! victims are covered by `tests/contention.rs`. Read-your-own-writes
//! holds within a session, and everything a query locked is released at
//! commit/rollback (with the lock table reaping emptied entries — it
//! must not grow with every atom ever locked).

use prima::{LockConfig, Prima, QueryOptions, Value};

const DDL: &str = "
CREATE ATOM_TYPE part
  ( id : IDENTIFIER, part_no : INTEGER, name : CHAR_VAR,
    sub : SET_OF (REF_TO (part.super)),
    super : SET_OF (REF_TO (part.sub)),
    pts : SET_OF (REF_TO (pt.owner)) )
KEYS_ARE (part_no);
CREATE ATOM_TYPE pt
  ( id : IDENTIFIER, n : INTEGER, label : CHAR_VAR,
    owner : SET_OF (REF_TO (part.pts)) );
";

fn db() -> Prima {
    Prima::builder()
        .buffer_bytes(1 << 20)
        .lock_config(LockConfig::no_wait())
        .build_with_ddl(DDL)
        .unwrap()
}

fn names(db: &Prima, mql: &str) -> Vec<String> {
    let s = db.session();
    let set = s.query(mql, &QueryOptions::default()).unwrap().set;
    set.molecules
        .iter()
        .map(|m| match &m.root.atom.values[2] {
            Value::Str(s) => s.clone(),
            other => panic!("name should be Str, got {other:?}"),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Reader vs. uncommitted writer
// ---------------------------------------------------------------------

#[test]
fn reader_conflicts_with_uncommitted_insert() {
    let db = db();
    let writer = db.session();
    writer.execute("INSERT part (part_no: 1, name: 'dirty')").unwrap();

    // A second session's scan conflicts with the uncommitted insert
    // (extension lock), instead of silently including — or excluding —
    // the dirty atom.
    let reader = db.session();
    reader.begin().unwrap();
    let err = reader.query("SELECT ALL FROM part", &QueryOptions::default()).unwrap_err();
    assert!(err.is_lock_conflict(), "expected lock conflict, got: {err}");
    reader.rollback().unwrap();

    // After the writer commits, the same query sees exactly the
    // committed state.
    writer.commit().unwrap();
    assert_eq!(names(&db, "SELECT ALL FROM part"), vec!["dirty".to_string()]);
}

#[test]
fn uncommitted_modify_is_never_observable() {
    let db = db();
    db.insert("part", &[("part_no", Value::Int(1)), ("name", Value::Str("clean".into()))])
        .unwrap();

    let writer = db.session();
    writer.execute("MODIFY part SET name = 'dirty' WHERE part_no = 1").unwrap();

    // One-shot query: conflicts (it would otherwise see 'dirty').
    let reader = db.session();
    reader.begin().unwrap();
    let err = reader
        .query("SELECT ALL FROM part WHERE part_no = 1", &QueryOptions::default())
        .unwrap_err();
    assert!(err.is_lock_conflict(), "{err}");
    reader.rollback().unwrap();

    // Qualification flips are covered too: the reader's predicate
    // *excludes* the dirty value, so without extension locking the scan
    // would silently return the atom's absence — dirty state either way.
    reader.begin().unwrap();
    let err = reader
        .query("SELECT ALL FROM part WHERE name = 'clean'", &QueryOptions::default())
        .unwrap_err();
    assert!(err.is_lock_conflict(), "{err}");
    reader.rollback().unwrap();

    // Rollback releases the writer's locks; only the committed state was
    // ever visible to others.
    writer.rollback().unwrap();
    assert_eq!(names(&db, "SELECT ALL FROM part"), vec!["clean".to_string()]);
}

#[test]
fn uncommitted_delete_is_never_observable() {
    let db = db();
    db.insert("part", &[("part_no", Value::Int(7)), ("name", Value::Str("keeper".into()))])
        .unwrap();
    let writer = db.session();
    writer.execute("DELETE FROM part WHERE part_no = 7").unwrap();

    // Key lookup as well as full scan conflict instead of reporting the
    // atom gone while the delete is uncommitted.
    let reader = db.session();
    reader.begin().unwrap();
    let err = reader
        .query("SELECT ALL FROM part WHERE part_no = 7", &QueryOptions::default())
        .unwrap_err();
    assert!(err.is_lock_conflict(), "{err}");
    reader.rollback().unwrap();

    writer.rollback().unwrap();
    assert_eq!(names(&db, "SELECT ALL FROM part WHERE part_no = 7"), vec!["keeper".to_string()]);
}

#[test]
fn prepared_and_parallel_queries_conflict_like_one_shots() {
    let db = db();
    for i in 0..8 {
        db.insert("part", &[("part_no", Value::Int(i)), ("name", Value::Str("v".into()))])
            .unwrap();
    }
    let writer = db.session();
    writer.execute("MODIFY part SET name = 'dirty' WHERE part_no = 3").unwrap();

    let reader = db.session();
    reader.begin().unwrap();
    let mut stmt = reader.prepare("SELECT ALL FROM part WHERE part_no >= ?").unwrap();
    stmt.bind(&[Value::Int(0)]).unwrap();
    let err = stmt.execute().unwrap_err();
    assert!(err.is_lock_conflict(), "prepared: {err}");
    reader.rollback().unwrap();

    reader.begin().unwrap();
    let err = reader
        .query("SELECT ALL FROM part", &QueryOptions::new().threads(4))
        .unwrap_err();
    assert!(err.is_lock_conflict(), "parallel: {err}");
    reader.rollback().unwrap();
    writer.rollback().unwrap();
}

// ---------------------------------------------------------------------
// Cursors
// ---------------------------------------------------------------------

#[test]
fn cursor_fetch_never_streams_dirty_atoms() {
    let db = db();
    for i in 0..6 {
        db.insert("part", &[("part_no", Value::Int(i)), ("name", Value::Str("v".into()))])
            .unwrap();
    }

    // Direction 1: the open cursor's extension+atom locks block a writer.
    let reader = db.session();
    reader.begin().unwrap();
    let mut cursor = reader.query_cursor("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
    assert_eq!(cursor.fetch(2).unwrap().len(), 2);
    let writer = db.session();
    let err = writer.execute("MODIFY part SET name = 'dirty' WHERE part_no = 5").unwrap_err();
    assert!(err.is_lock_conflict(), "writer vs open cursor: {err}");
    writer.rollback().unwrap();
    // The stream keeps delivering committed state.
    let rest = cursor.fetch_all().unwrap();
    assert!(rest.molecules.iter().all(|m| m.root.atom.values[2] == Value::Str("v".into())));
    drop(cursor);
    reader.commit().unwrap();

    // Direction 2: with the reader's locks released mid-stream, a writer
    // gets in — the next fetch then conflicts rather than delivering the
    // writer's uncommitted values.
    reader.begin().unwrap();
    let mut cursor = reader.query_cursor("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
    assert_eq!(cursor.fetch(1).unwrap().len(), 1);
    reader.commit().unwrap(); // strict 2PL: locks go with the txn
    writer.execute("MODIFY part SET name = 'dirty' WHERE part_no = 4").unwrap();
    let err = cursor.fetch(10).unwrap_err();
    assert!(err.is_lock_conflict(), "fetch after writer moved in: {err}");
    reader.rollback().unwrap();
    writer.rollback().unwrap();
    let rest = cursor.fetch_all().unwrap();
    assert!(
        rest.molecules.iter().all(|m| m.root.atom.values[2] == Value::Str("v".into())),
        "post-rollback stream shows only committed values"
    );
}

// ---------------------------------------------------------------------
// Lock release, read-your-own-writes
// ---------------------------------------------------------------------

#[test]
fn query_locks_are_released_at_commit_and_rollback_and_table_reaped() {
    let db = db();
    for i in 0..10 {
        db.insert("part", &[("part_no", Value::Int(i)), ("name", Value::Str("v".into()))])
            .unwrap();
    }
    let locked = || db.metrics().lock.locked_targets;
    assert_eq!(locked(), 0, "auto-commit loads leave no locks behind");

    // A query holds its shared locks (strict 2PL) ...
    let reader = db.session();
    reader.begin().unwrap();
    reader.query("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
    assert!(locked() > 10, "extension + one lock per retrieved atom");
    let writer = db.session();
    let err = writer.execute("INSERT part (part_no: 99, name: 'w')").unwrap_err();
    assert!(err.is_lock_conflict(), "{err}");
    writer.rollback().unwrap();

    // ... until commit releases them and the table reaps emptied entries.
    reader.commit().unwrap();
    assert_eq!(locked(), 0, "commit must drain and reap the table");
    writer.execute("INSERT part (part_no: 99, name: 'w')").unwrap();
    writer.commit().unwrap();

    // Rollback releases read locks the same way.
    reader.begin().unwrap();
    reader.query("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
    assert!(locked() > 0);
    reader.rollback().unwrap();
    assert_eq!(locked(), 0, "rollback must drain and reap the table");
}

#[test]
fn read_your_own_writes_still_holds() {
    let db = db();
    let session = db.session();
    session.execute("INSERT part (part_no: 5, name: 'mine')").unwrap();
    session.execute("MODIFY part SET name = 'mine-v2' WHERE part_no = 5").unwrap();

    // Same-session query, prepared execution and cursor all see the
    // uncommitted state (the session's own exclusive locks tolerate its
    // shared re-acquisition).
    let got = session
        .query("SELECT ALL FROM part WHERE part_no = 5", &QueryOptions::default())
        .unwrap()
        .set;
    assert_eq!(got.molecules[0].root.atom.values[2], Value::Str("mine-v2".into()));

    let mut stmt = session.prepare("SELECT ALL FROM part WHERE part_no = ?").unwrap();
    stmt.bind(&[Value::Int(5)]).unwrap();
    assert_eq!(stmt.execute().unwrap().molecules().unwrap().set.len(), 1);

    let mut cursor =
        session.query_cursor("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
    assert_eq!(cursor.fetch_all().unwrap().len(), 1);
    drop(cursor);
    session.rollback().unwrap();
    assert!(names(&db, "SELECT ALL FROM part").is_empty());
}

#[test]
fn component_assembly_locks_conflict_with_component_writers() {
    let db = db();
    // A two-level molecule: part root with two pt components — the
    // component type is distinct from the root type, so the root
    // extension lock alone cannot mask the assembly-level check.
    let c1 = db.insert("pt", &[("n", Value::Int(10))]).unwrap();
    let c2 = db.insert("pt", &[("n", Value::Int(11))]).unwrap();
    db.insert(
        "part",
        &[("part_no", Value::Int(1)), ("pts", Value::ref_set(vec![c1, c2]))],
    )
    .unwrap();

    // Writer holds one *component* atom exclusively (transactional
    // modify via the atom-level session API).
    let writer = db.session();
    writer.modify_atom_named(c2, &[("label", Value::Str("dirty".into()))]).unwrap();

    // A reader's root access on `part` succeeds (different extension);
    // vertical assembly must conflict when it reaches the locked pt.
    let reader = db.session();
    reader.begin().unwrap();
    let err = reader
        .query("SELECT ALL FROM part-pt WHERE part_no = 1", &QueryOptions::default())
        .unwrap_err();
    assert!(err.is_lock_conflict(), "assembly vs component writer: {err}");
    reader.rollback().unwrap();
    writer.rollback().unwrap();
    let set = db
        .session()
        .query("SELECT ALL FROM part-pt WHERE part_no = 1", &QueryOptions::default())
        .unwrap()
        .set;
    assert_eq!(set.len(), 1, "committed molecule intact");
    assert_eq!(set.molecules[0].children(&set.molecules[0].root).len(), 2, "both components assembled");
}

#[test]
fn concurrent_readers_share_locks() {
    let db = db();
    for i in 0..5 {
        db.insert("part", &[("part_no", Value::Int(i)), ("name", Value::Str("v".into()))])
            .unwrap();
    }
    // Shared locks coexist: two sessions scan the same extension at once.
    let r1 = db.session();
    let r2 = db.session();
    r1.begin().unwrap();
    r2.begin().unwrap();
    assert_eq!(r1.query("SELECT ALL FROM part", &QueryOptions::default()).unwrap().set.len(), 5);
    assert_eq!(r2.query("SELECT ALL FROM part", &QueryOptions::default()).unwrap().set.len(), 5);
    r1.commit().unwrap();
    r2.commit().unwrap();
    assert_eq!(db.metrics().lock.locked_targets, 0);
}

#[test]
fn lock_maintenance_cost_tracks_own_locks_not_table_size() {
    let db = db();
    for i in 0..64 {
        db.insert("part", &[("part_no", Value::Int(i)), ("name", Value::Str("v".into()))])
            .unwrap();
    }
    let lock = || db.metrics().lock;

    // A long-lived reader pins the whole extension (65+ locks).
    let big = db.session();
    big.begin().unwrap();
    big.query("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
    let big_held = lock().locked_targets;
    assert!(big_held >= 65);

    // A second session reads one atom (key lookup: extension + atom). Its
    // commit must visit only its own two entries — not the whole table.
    let small = db.session();
    small.begin().unwrap();
    small.query("SELECT ALL FROM part WHERE part_no = 3", &QueryOptions::default()).unwrap();
    let before = lock().maintenance_visits;
    small.commit().unwrap();
    let visited = lock().maintenance_visits - before;
    assert!(
        visited <= 2,
        "releasing a 2-lock reader visited {visited} entries (table held {big_held})"
    );
    big.commit().unwrap();
    assert_eq!(lock().locked_targets, 0);
}

#[test]
fn cursor_retains_root_when_assembly_conflicts_midway() {
    let db = db();
    // Three part-pt molecules; the writer will lock a pt of the *second*
    // one, so the conflict hits mid-assembly (the part extension lock
    // alone cannot catch it) after the first fetch succeeded.
    let mut pts = Vec::new();
    for i in 0..3 {
        let p = db.insert("pt", &[("n", Value::Int(i))]).unwrap();
        db.insert("part", &[("part_no", Value::Int(i)), ("pts", Value::ref_set(vec![p]))])
            .unwrap();
        pts.push(p);
    }
    let reader = db.session();
    reader.begin().unwrap();
    let mut cursor =
        reader.query_cursor("SELECT ALL FROM part-pt", &QueryOptions::default()).unwrap();
    assert_eq!(cursor.fetch(1).unwrap().len(), 1);
    reader.commit().unwrap(); // release, letting the writer in

    let writer = db.session();
    writer.modify_atom_named(pts[1], &[("label", Value::Str("dirty".into()))]).unwrap();
    let err = cursor.fetch(10).unwrap_err();
    assert!(err.is_lock_conflict(), "{err}");
    reader.rollback().unwrap();
    writer.rollback().unwrap();

    // The conflicted root must still be in the stream: every remaining
    // molecule is delivered after the writer is gone.
    let rest = cursor.fetch_all().unwrap();
    assert_eq!(
        1 + rest.len(),
        3,
        "a mid-assembly conflict must not drop the root it was processing"
    );
}

#[test]
fn read_only_commits_skip_the_wal_force() {
    use prima_storage::{BlockDevice, SimDisk};
    use std::sync::Arc;
    let device = Arc::new(SimDisk::new());
    let db = Prima::builder()
        .buffer_bytes(1 << 20)
        .device(Arc::clone(&device) as Arc<dyn BlockDevice>)
        .durable()
        .build_with_ddl(DDL)
        .unwrap();
    db.insert("part", &[("part_no", Value::Int(1)), ("name", Value::Str("v".into()))])
        .unwrap();

    // Reader sessions: query + commit must cost no log traffic at all —
    // no bracket records, no commit record, no force.
    let before = device.stats().snapshot();
    for _ in 0..10 {
        let s = db.session();
        assert_eq!(s.query("SELECT ALL FROM part", &QueryOptions::default()).unwrap().set.len(), 1);
        s.commit().unwrap();
        let _ = db.read(db.access().all_ids(db.schema().type_id("part").unwrap()).unwrap()[0]);
    }
    let d = device.stats().snapshot().since(&before);
    assert_eq!(d.wal_forces, 0, "read-only commits must not force the WAL");
    assert_eq!(d.wal_bytes, 0, "read-only transactions must leave no log records");

    // A manipulating commit still forces exactly as before.
    let s = db.session();
    s.execute("INSERT part (part_no: 2, name: 'w')").unwrap();
    s.commit().unwrap();
    let d = device.stats().snapshot().since(&before);
    assert_eq!(d.wal_forces, 1, "a writing commit is the group-commit force point");
}

/// A profiled durable `COMMIT` records its log traffic as leaves of its
/// span tree: the commit record's `WalAppend` and the group-commit
/// `WalForce`, whose totals are the profile's own I/O counter deltas.
#[test]
fn profiled_durable_commit_carries_its_wal_leaves() {
    use prima::{SpanKind, StatementKind};
    use prima_storage::{BlockDevice, SimDisk};
    use std::sync::Arc;
    let db = Prima::builder()
        .buffer_bytes(1 << 20)
        .device(Arc::new(SimDisk::new()) as Arc<dyn BlockDevice>)
        .durable()
        .build_with_ddl(DDL)
        .unwrap();
    let s = db.session();
    s.execute("INSERT part (part_no: 1, name: 'w')").unwrap();
    s.set_profiling(true);
    s.commit().unwrap();

    let profile = s.last_profile().expect("profiled commit");
    assert_eq!(profile.kind, StatementKind::Commit);
    profile.validate().unwrap();
    let (appends, _, append_bytes) = profile.root.totals(SpanKind::WalAppend);
    assert!(appends >= 1 && append_bytes > 0, "commit record appended:\n{}", profile.render());
    let (forces, _, force_bytes) = profile.root.totals(SpanKind::WalForce);
    assert!(forces >= 1, "a writing commit forces the log:\n{}", profile.render());
    assert_eq!(forces, profile.counters.io.wal_forces, "one leaf per device force");
    assert_eq!(force_bytes, profile.counters.io.wal_bytes, "leaf bytes are the forced bytes");
}

// ---------------------------------------------------------------------
// Exact lock traffic of the locking read path
// ---------------------------------------------------------------------

/// A checkout-shaped query inside a transaction takes one `Shared` lock
/// per *distinct* atom of the molecule (the Fig. 2.3 box has 79 positions
/// over 27 atoms: an edge shared by two faces, a point shared by three
/// edges is locked once) plus one on the root extension — the 28 of
/// `prima-bench`'s 44 acquisitions per `txn.checkin`. A cursor charges 3
/// more: each pull re-pins the extension (`fetch_all` pulls twice: the
/// molecule, then end of stream) and revalidates its root under a fresh
/// lock. The same statements outside a transaction charge nothing.
#[test]
fn locking_read_path_takes_one_lock_per_distinct_atom() {
    use prima_workloads::brep::{self, BrepConfig};
    const CHECKOUT: &str = "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2";
    let db = brep::open_db(4 << 20).unwrap();
    brep::populate(&db, &BrepConfig::with_solids(3)).unwrap();
    let session = db.session();
    let mut prepared =
        session.prepare("SELECT ALL FROM brep-face-edge-point WHERE brep_no = ?").unwrap();
    prepared.bind(&[Value::Int(2)]).unwrap();
    for in_txn in [true, false] {
        for (entry, locks) in
            [("Session::query", 28), ("Prepared::query", 28), ("threads(4)", 28), ("cursor", 31)]
        {
            if in_txn {
                session.begin().unwrap();
            }
            let before = db.metrics().lock;
            let serial = QueryOptions::default();
            let set = match entry {
                "Session::query" => session.query(CHECKOUT, &serial).unwrap().set,
                "Prepared::query" => prepared.query(&serial).unwrap().set,
                "threads(4)" => session.query(CHECKOUT, &serial.threads(4)).unwrap().set,
                _ => session.query_cursor(CHECKOUT, &serial).unwrap().fetch_all().unwrap(),
            };
            let acquired = db.metrics().lock.since(&before).acquisitions;
            session.rollback().unwrap();
            assert_eq!(set.molecules.len(), 1, "{entry}");
            assert_eq!(set.molecules[0].atom_count(), 79, "{entry}");
            let expected = if in_txn { locks } else { 0 };
            assert_eq!(acquired, expected, "{entry}, inside a transaction: {in_txn}");
        }
    }
}
