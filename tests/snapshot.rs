//! Snapshot-read semantics: the MVCC version store's lock-free read
//! path (`crates/core/src/txn/mvcc.rs`).
//!
//! A read statement issued outside any transaction pins a snapshot of
//! the committed state and resolves every atom against the version
//! store instead of the lock table. These tests pin the contract from
//! both sides:
//!
//! * a reader concurrent with an **uncommitted** writer of the same
//!   atom type completes — no wait, no conflict, no retry — and sees
//!   exactly the committed state, across every query shape (one-shot,
//!   prepared, cursor, parallel assembly) and with **zero lock-table
//!   interaction**, proven by a `LockStats::acquisitions` delta of 0;
//! * a reader opened after the commit sees all of it;
//! * a session's own uncommitted writes stay visible to its in-
//!   transaction reads (those take the locking path by design);
//! * a long-running cursor keeps one stable snapshot across concurrent
//!   commits;
//! * version GC never reclaims a version still visible to an open
//!   snapshot, and reclaims promptly once the snapshot closes — also
//!   while many threads register snapshots concurrently with commits.
//!
//! The locking counterparts (readers *inside* transactions conflicting
//! with writers) live in `tests/isolation.rs` / `tests/contention.rs`.

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

/// `no_wait` lock table: if a snapshot read ever strayed onto the
/// locking path against a dirty writer it would error instead of
/// blocking the single-threaded test.
fn db() -> Prima {
    Prima::builder()
        .buffer_bytes(1 << 20)
        .lock_config(LockConfig::no_wait())
        .build_with_ddl(DDL)
        .unwrap()
}

fn names_of(set: &prima::MoleculeSet) -> Vec<String> {
    let mut out: Vec<String> = set
        .molecules
        .iter()
        .map(|m| match &m.root.atom.values[2] {
            Value::Str(s) => s.clone(),
            other => panic!("name should be Str, got {other:?}"),
        })
        .collect();
    out.sort();
    out
}

// ---------------------------------------------------------------------
// The acceptance property: dirty writer, lock-free reader
// ---------------------------------------------------------------------

#[test]
fn snapshot_reader_ignores_dirty_writer_with_zero_lock_traffic() {
    let db = db();
    for i in 0..4 {
        db.insert("part", &[("part_no", Value::Int(i)), ("name", Value::Str("clean".into()))])
            .unwrap();
    }

    // The writer dirties the extension every way at once: an uncommitted
    // INSERT, MODIFY and DELETE, all holding X/IX locks.
    let writer = db.session();
    writer.execute("INSERT part (part_no: 99, name: 'dirty-insert')").unwrap();
    writer.execute("MODIFY part SET name = 'dirty-modify' WHERE part_no = 1").unwrap();
    writer.execute("DELETE FROM part WHERE part_no = 2").unwrap();

    let committed = vec!["clean".to_string(); 4];
    let locks_before = db.metrics().lock;
    let versions_before = db.metrics().version;

    // One-shot.
    let reader = db.session();
    let got = reader.query("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
    assert_eq!(names_of(&got.set), committed, "one-shot");

    // Prepared (plan reuse), including a key lookup on the dirty key.
    let mut stmt = reader.prepare("SELECT ALL FROM part WHERE part_no = ?").unwrap();
    stmt.bind(&[Value::Int(1)]).unwrap();
    let got = stmt.execute().unwrap().molecules().unwrap();
    assert_eq!(names_of(&got.set), vec!["clean".to_string()], "prepared key lookup");
    stmt.bind(&[Value::Int(99)]).unwrap();
    let got = stmt.execute().unwrap().molecules().unwrap();
    assert_eq!(got.set.len(), 0, "uncommitted insert invisible to key lookup");

    // Streaming cursor.
    let mut cursor = reader.query_cursor("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
    assert_eq!(names_of(&cursor.fetch_all().unwrap()), committed, "cursor");
    drop(cursor);

    // Parallel assembly (one DU per molecule, guard shared by workers).
    let got = reader.query("SELECT ALL FROM part", &QueryOptions::new().threads(4)).unwrap();
    assert_eq!(names_of(&got.set), committed, "parallel");

    // Zero lock-table interaction for all of the above: not one
    // acquisition, wait, timeout or conflict — the read path never
    // touched the lock manager at all.
    let d = db.metrics().lock.since(&locks_before);
    assert_eq!(d.acquisitions, 0, "snapshot reads must not acquire locks:\n{d:?}");
    assert_eq!(d.waits, 0, "{d:?}");
    assert_eq!(d.timeouts, 0, "{d:?}");

    // ... and the version store did the work instead.
    let v = db.metrics().version.since(&versions_before);
    assert!(v.snapshots_opened >= 4, "each statement pins a snapshot: {v:?}");
    assert!(v.snapshot_reads > 0, "reads resolved through the store: {v:?}");
    assert!(v.live_versions > 0, "the dirty writer's before-images are chained: {v:?}");

    // The writer was never disturbed: its transaction commits, and only
    // then does a fresh read see the new state.
    writer.commit().unwrap();
    let after = db.session().query("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
    assert_eq!(
        names_of(&after.set),
        vec!["clean", "clean", "dirty-insert", "dirty-modify"],
        "reader after commit sees all of it"
    );
}

/// `Prima::read` runs on a fresh session with no transaction open: a
/// snapshot read that returns the committed value of an atom another
/// session has modified but not committed, without touching the lock
/// table.
#[test]
fn prima_read_is_a_lock_free_snapshot_read() {
    let db = db();
    let id = db
        .insert("part", &[("part_no", Value::Int(1)), ("name", Value::Str("clean".into()))])
        .unwrap();
    let writer = db.session();
    writer.execute("MODIFY part SET name = 'dirty' WHERE part_no = 1").unwrap();

    let before = db.metrics().lock;
    let atom = db.read(id).unwrap();
    assert_eq!(atom.values[2], Value::Str("clean".into()));
    let d = db.metrics().lock.since(&before);
    assert_eq!(d.acquisitions, 0, "Prima::read must not acquire locks:\n{d:?}");
    writer.rollback().unwrap();
}

#[test]
fn snapshot_reader_ignores_dirty_component_writer_during_assembly() {
    let db = db();
    let c1 = db.insert("pt", &[("n", Value::Int(10)), ("label", Value::Str("c-old".into()))]).unwrap();
    db.insert("part", &[("part_no", Value::Int(1)), ("pts", Value::ref_set(vec![c1]))]).unwrap();

    // Writer holds a *component* atom exclusively — the conflict a
    // locking reader would hit mid-assembly, not at root access.
    let writer = db.session();
    writer.modify_atom_named(c1, &[("label", Value::Str("c-dirty".into()))]).unwrap();

    let before = db.metrics().lock;
    let got = db
        .session()
        .query("SELECT ALL FROM part-pt WHERE part_no = 1", &QueryOptions::default())
        .unwrap();
    assert_eq!(got.set.len(), 1);
    assert_eq!(
        got.set.molecules[0].children(&got.set.molecules[0].root)[0].atom.values[2],
        Value::Str("c-old".into()),
        "assembly resolves the component's committed version"
    );
    assert_eq!(db.metrics().lock.since(&before).acquisitions, 0);
    writer.rollback().unwrap();
}

// ---------------------------------------------------------------------
// Back-reference partners are versioned like the atom a write names
// ---------------------------------------------------------------------

#[test]
fn snapshot_sees_a_dirty_writers_back_reference_partners_as_committed() {
    let db = db();
    let c1 = db.insert("pt", &[("n", Value::Int(1))]).unwrap();
    let c2 = db.insert("pt", &[("n", Value::Int(2))]).unwrap();
    let p = db
        .insert("part", &[("part_no", Value::Int(1)), ("pts", Value::ref_set(vec![c1]))])
        .unwrap();

    // Linking c2 rewrites c2.owner too — the implicit back-reference
    // update, which the writer's transaction leaves uncommitted as well.
    let writer = db.session();
    writer.modify_atom_named(p, &[("pts", Value::ref_set(vec![c1, c2]))]).unwrap();

    let reader = db.session();
    let query = |mql: &str| reader.query(mql, &QueryOptions::default()).unwrap().set;
    let part = query("SELECT ALL FROM part WHERE part_no = 1");
    assert_eq!(part.molecules[0].root.atom.values[5].ref_ids(), [c1]);
    let pt = query("SELECT ALL FROM pt WHERE n = 2");
    assert!(
        pt.molecules[0].root.atom.values[3].ref_ids().is_empty(),
        "the partner's back-reference is as uncommitted as the reference"
    );
    let mol = query("SELECT ALL FROM pt-part WHERE n = 2");
    let m = &mol.molecules[0];
    assert!(m.children(&m.root).is_empty(), "no uncommitted child in assembly");

    // A snapshot pinned before the commit keeps the pre-commit partner
    // after it; a fresh one sees the link from both sides.
    let mut cursor = reader
        .query_cursor("SELECT ALL FROM pt-part WHERE n = 2", &QueryOptions::default())
        .unwrap();
    writer.commit().unwrap();
    let pinned = cursor.fetch_all().unwrap();
    let m = &pinned.molecules[0];
    assert!(m.children(&m.root).is_empty(), "pinned snapshot after the commit");
    drop(cursor);
    let now = query("SELECT ALL FROM pt-part WHERE n = 2");
    let now = &now.molecules[0];
    assert_eq!(now.children(&now.root).len(), 1);
    assert_eq!(now.children(&now.root)[0].atom.id, p);
}

// ---------------------------------------------------------------------
// Read-your-own-writes: the in-transaction path is untouched
// ---------------------------------------------------------------------

#[test]
fn writer_still_reads_its_own_uncommitted_writes() {
    let db = db();
    db.insert("part", &[("part_no", Value::Int(1)), ("name", Value::Str("old".into()))]).unwrap();

    let writer = db.session();
    writer.execute("MODIFY part SET name = 'mine' WHERE part_no = 1").unwrap();
    // The writer's transaction is open, so its reads take the locking
    // path and see the dirty value — not the snapshot's committed one.
    let got = writer.query("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
    assert_eq!(names_of(&got.set), vec!["mine".to_string()]);

    // A concurrent snapshot reader still sees the committed value.
    let got = db.session().query("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
    assert_eq!(names_of(&got.set), vec!["old".to_string()]);
    writer.rollback().unwrap();
}

// ---------------------------------------------------------------------
// Cursor stability across concurrent commits
// ---------------------------------------------------------------------

#[test]
fn long_running_cursor_keeps_one_stable_snapshot() {
    let db = db();
    for i in 0..6 {
        db.insert("part", &[("part_no", Value::Int(i)), ("name", Value::Str(format!("v{i}")))])
            .unwrap();
    }

    let reader = db.session();
    let mut cursor = reader.query_cursor("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
    let first: Vec<_> = cursor.fetch(2).unwrap();
    assert_eq!(first.len(), 2);

    // Between fetches, a writer commits — twice — reshaping the
    // extension: modified names, a deleted root, a brand-new one.
    let writer = db.session();
    writer.execute("MODIFY part SET name = 'rewritten' WHERE part_no = 3").unwrap();
    writer.execute("DELETE FROM part WHERE part_no = 4").unwrap();
    writer.commit().unwrap();
    writer.execute("INSERT part (part_no: 50, name: 'newcomer')").unwrap();
    writer.commit().unwrap();

    // The stream continues exactly where the snapshot says: original
    // names, the deleted root still delivered, the newcomer absent.
    let rest = cursor.fetch_all().unwrap();
    let mut all = names_of(&prima::MoleculeSet {
        nodes: rest.nodes.clone(),
        molecules: first.into_iter().chain(rest.molecules).collect(),
    });
    all.sort();
    assert_eq!(all, vec!["v0", "v1", "v2", "v3", "v4", "v5"], "stable snapshot");
    drop(cursor);

    // A fresh statement sees the post-commit world.
    let now = db.session().query("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
    assert_eq!(names_of(&now.set), vec!["newcomer", "rewritten", "v0", "v1", "v2", "v5"]);
}

// ---------------------------------------------------------------------
// GC: the oldest open snapshot is the watermark
// ---------------------------------------------------------------------

#[test]
fn gc_spares_versions_visible_to_an_open_snapshot() {
    let db = db();
    db.insert("part", &[("part_no", Value::Int(1)), ("name", Value::Str("gen0".into()))]).unwrap();

    // Pin a snapshot by holding an unfinished cursor open.
    let reader = db.session();
    let mut cursor =
        reader.query_cursor("SELECT ALL FROM part WHERE part_no = 1", &QueryOptions::default())
            .unwrap();

    // Generations of committed overwrites pile up behind the snapshot.
    let writer = db.session();
    for g in 1..=5 {
        writer.execute(&format!("MODIFY part SET name = 'gen{g}' WHERE part_no = 1")).unwrap();
        writer.commit().unwrap();
    }
    let v = db.metrics().version;
    assert!(v.live_versions >= 1, "versions the snapshot can still see must survive GC: {v:?}");
    assert!(v.oldest_snapshot_lag >= 5, "the pinned snapshot is {} commits behind", v.oldest_snapshot_lag);

    // The pinned snapshot still resolves the original value.
    let seen = cursor.fetch_all().unwrap();
    assert_eq!(names_of(&seen), vec!["gen0".to_string()], "GC must not steal a visible version");

    // Closing the snapshot releases the watermark: the very next commit
    // reclaims the whole chain.
    drop(cursor);
    writer.execute("MODIFY part SET name = 'gen6' WHERE part_no = 1").unwrap();
    writer.commit().unwrap();
    let v = db.metrics().version;
    assert_eq!(v.live_versions, 0, "no snapshot open — versions die at commit: {v:?}");
    assert_eq!(v.oldest_snapshot_lag, 0);
}

// ---------------------------------------------------------------------
// Retry policy is bypassed on the snapshot path
// ---------------------------------------------------------------------

#[test]
fn snapshot_reads_succeed_with_retry_disabled_against_a_dirty_writer() {
    // With RetryPolicy::off() and a no_wait table, any excursion onto
    // the locking path against the dirty writer would surface a raw
    // LockConflict. Success here means the statement never needed the
    // retry machinery at all.
    let db = db();
    db.insert("part", &[("part_no", Value::Int(1)), ("name", Value::Str("v".into()))]).unwrap();
    let writer = db.session();
    writer.execute("MODIFY part SET name = 'dirty' WHERE part_no = 1").unwrap();

    let mut reader = db.session();
    reader.set_retry_policy(prima::RetryPolicy::off());
    for _ in 0..3 {
        let got = reader.query("SELECT ALL FROM part", &QueryOptions::default()).unwrap();
        assert_eq!(names_of(&got.set), vec!["v".to_string()]);
    }
    writer.rollback().unwrap();
}

// ---------------------------------------------------------------------
// Root access racing a delete-and-rollback writer
// ---------------------------------------------------------------------

/// A writer deletes committed atoms and rolls each delete back, over and
/// over: the delete frees the atom's address entry and record, and the
/// rollback restores both, the record wherever there is room. Snapshot
/// `SELECT`s race it over every root access path; each must succeed and
/// return exactly the committed molecules. This races the address-table
/// latch against page latches: a reader may hold a pointer whose slot
/// was freed or reused, meet a B*-tree candidate that is gone, or meet a
/// moved record a second time further on in a scan.
#[test]
fn snapshot_root_access_races_a_delete_rollback_writer() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    const N: i64 = 200;
    let db = Prima::builder()
        .buffer_bytes(1 << 20)
        .build_with_ddl(
            "CREATE ATOM_TYPE item
               ( id : IDENTIFIER, no : INTEGER, n : INTEGER, m : INTEGER, label : CHAR_VAR )
             KEYS_ARE (no);",
        )
        .unwrap();
    let ids: Vec<_> = (0..N)
        .map(|i| {
            let (v, label) = (Value::Int(i), Value::Str(format!("item {i}")));
            let attrs = [("no", v.clone()), ("n", v.clone()), ("m", v), ("label", label)];
            db.insert("item", &attrs).unwrap()
        })
        .collect();
    db.ldl("CREATE ACCESS PATH item_n ON item (n); CREATE PARTITION item_p ON item (no, m)")
        .unwrap();
    let paths = [
        ("key_lookup(no)", "SELECT ALL FROM item WHERE no = ", 1),
        ("access_path(item_n)", "SELECT ALL FROM item WHERE n >= 0", N as usize),
        ("type_scan", "SELECT ALL FROM item WHERE m >= 0", N as usize),
        ("partition_scan(item_p)", "SELECT no FROM item WHERE m >= 0", N as usize),
    ];
    /// Stops the writer when the reader is done, by success or panic.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let w = db.session();
            let mut rounds = 0;
            while !stop.load(Ordering::Relaxed) {
                w.begin().unwrap();
                w.delete_atom(ids[rounds % ids.len()]).unwrap();
                w.rollback().unwrap();
                rounds += 1;
            }
            rounds
        });
        let reader_done = Stop(&stop);
        let reader = db.session();
        reader.set_profiling(true);
        for (path, mql, expected) in paths {
            let (start, mut runs) = (Instant::now(), 0);
            while start.elapsed() < Duration::from_secs(1) {
                // The key lookup probes the atom the writer is on, more
                // or less.
                let mql = match expected {
                    1 => format!("{mql}{}", runs % N),
                    _ => mql.to_string(),
                };
                let got = reader.query(&mql, &QueryOptions::default());
                let got = got.unwrap_or_else(|e| panic!("{path}, run {runs}: {e}"));
                assert_eq!(got.set.len(), expected, "{path}, run {runs}: committed molecules");
                assert_eq!(reader.last_profile().unwrap().access("path"), Some(path));
                runs += 1;
            }
            assert!(runs > 0, "{path}");
        }
        drop(reader_done);
        assert!(writer.join().unwrap() > 0, "the writer ran");
    });
}

/// Snapshot registration is per-thread (a slot per thread stripe, not
/// the store's mutex), so it races GC from every side at once: a writer
/// keeps rewriting two atoms in one transaction — each commit publishes
/// a new position and reclaims — while three readers pin and release
/// snapshots as fast as they can. The two atoms are a molecule's root
/// and its component, read at different times by one snapshot; both
/// must show one commit's version (a reader registered too late for GC
/// to count it would meet a reclaimed entry and read the component's
/// newer base). Once every snapshot has closed, no version survives.
#[test]
fn concurrent_snapshot_registration_never_sees_a_torn_commit() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let db = db();
    let pt = db.insert("pt", &[("n", Value::Int(1)), ("label", Value::Str("v0".into()))]).unwrap();
    let part = db
        .insert(
            "part",
            &[
                ("part_no", Value::Int(1)),
                ("name", Value::Str("v0".into())),
                ("pts", Value::ref_set(vec![pt])),
            ],
        )
        .unwrap();
    let done = AtomicBool::new(false);
    let reads = std::thread::scope(|s| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    let session = db.session();
                    let mut reads = 0u64;
                    while !done.load(Ordering::Relaxed) || reads == 0 {
                        let got = session
                            .query("SELECT ALL FROM part-pt WHERE part_no = 1", &QueryOptions::new())
                            .unwrap();
                        let m = &got.set.molecules[0];
                        let children = m.children(&m.root);
                        assert_eq!(children.len(), 1, "the component is visible");
                        let (name, label) = (&m.root.atom.values[2], &children[0].atom.values[2]);
                        assert_eq!(name, label, "one commit, one version");
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        let writer = db.session();
        for round in 1..=300 {
            let v = Value::Str(format!("v{round}"));
            writer.begin().unwrap();
            writer.modify_atom_named(part, &[("name", v.clone())]).unwrap();
            writer.modify_atom_named(pt, &[("label", v)]).unwrap();
            writer.commit().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        readers.into_iter().map(|r| r.join().unwrap()).sum::<u64>()
    });
    assert!(reads >= 3, "every reader ran");
    let version = db.metrics().version;
    assert_eq!(version.live_versions, 0, "all snapshots closed: {version:?}");
    assert_eq!(version.live_chains, 0);
    assert_eq!(version.oldest_snapshot_lag, 0);
}
