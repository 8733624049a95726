//! Crash-recovery kill-point harness.
//!
//! A "crash" is `std::mem::forget` of the kernel (no destructors: no
//! rollback, no flush — exactly a process kill), after which the database
//! is reopened from what survived on the device: flushed pages, the
//! metadata snapshot and the *forced* WAL prefix. Both device backends
//! are exercised: a shared [`SimDisk`] `Arc` plays the surviving medium
//! in-memory, and [`FileDisk`] proves the same against real files.
//!
//! Kill points covered (ISSUE 3 acceptance):
//!   * no checkpoint since build (redo from the initial snapshot),
//!   * mid-transaction (loser rolled back),
//!   * post-commit-pre-flush (redo makes the commit win),
//!   * after in-process rollback (no resurrection),
//!   * after a failed statement was undone alone, with and without the
//!     transaction's commit,
//!   * after checkpoint + more commits (bounded redo),
//!   * a proptest-style randomized interleaving of INSERT / MODIFY /
//!     DELETE with commits at random positions;
//!   * page deltas: a torn data page rebuilt from its first-touch image
//!     plus deltas, a crash between a forced image and its delta, a
//!     delta whose base is missing, and a delta re-appended across a
//!     log reset.

use prima::{Prima, PrimaError, QueryOptions, Value};
use prima_storage::{
    BlockAddr, BlockDevice, Page, PageId, PageSize, PageType, SimDisk, StorageError,
    StorageSystem, Wal, WalRecord,
};
use std::collections::BTreeMap;
use std::sync::Arc;

const DDL: &str = "
    CREATE ATOM_TYPE part (
        part_id : IDENTIFIER,
        part_no : INTEGER,
        name    : CHAR_VAR )
    KEYS_ARE (part_no);
";

fn build_on(device: Arc<dyn BlockDevice>) -> Prima {
    Prima::builder()
        .buffer_bytes(1 << 20)
        .device(device)
        .durable()
        .build_with_ddl(DDL)
        .unwrap()
}

/// The kill switch: drop nothing, run no destructors.
fn crash(db: Prima) {
    std::mem::forget(db);
}

fn part_nos(db: &Prima) -> Vec<i64> {
    let set = db
        .session()
        .query("SELECT ALL FROM part", &QueryOptions::default())
        .unwrap()
        .set;
    let mut nos: Vec<i64> = set
        .molecules
        .iter()
        .map(|m| match &m.root.atom.values[1] {
            Value::Int(n) => *n,
            v => panic!("part_no should be Int, got {v:?}"),
        })
        .collect();
    nos.sort_unstable();
    nos
}

fn names_by_no(db: &Prima) -> BTreeMap<i64, String> {
    let set = db
        .session()
        .query("SELECT ALL FROM part", &QueryOptions::default())
        .unwrap()
        .set;
    set.molecules
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
        .collect()
}

fn insert_parts(db: &Prima, nos: std::ops::Range<i64>) {
    let s = db.session();
    for n in nos {
        s.execute(&format!("INSERT part (part_no: {n}, name: 'p{n}')")).unwrap();
    }
    s.commit().unwrap();
}

#[test]
fn committed_work_survives_crash_without_checkpoint() {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = build_on(Arc::clone(&device));
    insert_parts(&db, 0..25);
    // Kill point: nothing flushed since the initial (empty) checkpoint —
    // every committed page lives only in WAL redo records.
    crash(db);
    let db = Prima::open_device(device).unwrap();
    assert_eq!(part_nos(&db), (0..25).collect::<Vec<_>>());
}

#[test]
fn mid_transaction_crash_rolls_the_loser_back() {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = build_on(Arc::clone(&device));
    insert_parts(&db, 0..5);
    // An open transaction: inserts, a modify and a delete — never
    // committed. Forgetting the session skips even the in-process abort.
    let s = db.session();
    s.execute("INSERT part (part_no: 100, name: 'phantom')").unwrap();
    s.execute("MODIFY part SET name = 'mutated' WHERE part_no = 2").unwrap();
    s.execute("DELETE FROM part WHERE part_no = 4").unwrap();
    // Force the txn's WAL records out as a flush would (steal): even a
    // durable *prefix* of a loser must roll back cleanly.
    db.storage().flush().unwrap();
    std::mem::forget(s);
    crash(db);
    let db = Prima::open_device(device).unwrap();
    assert_eq!(part_nos(&db), vec![0, 1, 2, 3, 4], "loser fully undone");
    assert_eq!(names_by_no(&db)[&2], "p2", "modify rolled back");
}

#[test]
fn commit_then_crash_before_any_flush() {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = build_on(Arc::clone(&device));
    // Two committed transactions, one open one, then the kill point
    // right after the second commit returns (pages still dirty).
    insert_parts(&db, 0..10);
    let s = db.session();
    s.execute("MODIFY part SET name = 'renamed' WHERE part_no = 7").unwrap();
    s.commit().unwrap();
    s.execute("INSERT part (part_no: 999, name: 'uncommitted')").unwrap();
    std::mem::forget(s);
    crash(db);
    let db = Prima::open_device(device).unwrap();
    assert_eq!(part_nos(&db), (0..10).collect::<Vec<_>>());
    assert_eq!(names_by_no(&db)[&7], "renamed", "committed modify redone");
}

#[test]
fn rolled_back_work_stays_dead_after_crash() {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = build_on(Arc::clone(&device));
    insert_parts(&db, 0..3);
    let s = db.session();
    s.execute("INSERT part (part_no: 50, name: 'ghost')").unwrap();
    s.rollback().unwrap();
    crash(db);
    let db = Prima::open_device(device).unwrap();
    assert_eq!(part_nos(&db), vec![0, 1, 2]);
    // The key is free again after recovery.
    let s = db.session();
    s.execute("INSERT part (part_no: 50, name: 'reborn')").unwrap();
    s.commit().unwrap();
    assert_eq!(part_nos(&db), vec![0, 1, 2, 50]);
}

#[test]
fn checkpoint_bounds_redo_and_preserves_later_commits() {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = build_on(Arc::clone(&device));
    insert_parts(&db, 0..20);
    db.checkpoint().unwrap();
    insert_parts(&db, 20..30);
    let s = db.session();
    s.execute("DELETE FROM part WHERE part_no = 0").unwrap();
    s.commit().unwrap();
    crash(db);
    let db = Prima::open_device(device).unwrap();
    assert_eq!(part_nos(&db), (1..30).collect::<Vec<_>>());
}

#[test]
fn checkpoint_requires_quiesced_kernel() {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = build_on(device);
    let s = db.session();
    s.execute("INSERT part (part_no: 1, name: 'open')").unwrap();
    assert!(db.checkpoint().is_err(), "active transaction blocks checkpoint");
    s.commit().unwrap();
    db.checkpoint().unwrap();
}

#[test]
fn volatile_kernel_rejects_checkpoint() {
    let db = Prima::builder().build_with_ddl(DDL).unwrap();
    assert!(db.storage().wal().is_none(), "no log without durability");
    assert!(db.checkpoint().is_err());
}

#[test]
fn surrogates_of_deleted_atoms_are_not_reused_after_recovery() {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = build_on(Arc::clone(&device));
    insert_parts(&db, 0..3);
    // Capture the highest surrogate, then delete its atom and crash: a
    // rescan alone cannot see the deleted atom's id any more.
    let max_seq = |db: &Prima| {
        db.session()
            .query("SELECT ALL FROM part", &QueryOptions::default())
            .unwrap()
            .set
            .molecules
            .iter()
            .map(|m| match &m.root.atom.values[0] {
                Value::Id(id) => id.seq,
                v => panic!("identifier expected, got {v:?}"),
            })
            .max()
            .unwrap_or(0)
    };
    let before = max_seq(&db);
    let s = db.session();
    s.execute("DELETE FROM part WHERE part_no = 2").unwrap();
    s.commit().unwrap();
    crash(db);
    let db = Prima::open_device(device).unwrap();
    let s = db.session();
    s.execute("INSERT part (part_no: 9, name: 'after-crash')").unwrap();
    s.commit().unwrap();
    assert!(
        max_seq(&db) > before,
        "surrogates are never reused: new atom got seq {} <= pre-crash max {before}",
        max_seq(&db)
    );
}

#[test]
fn reopened_kernel_accepts_new_work_and_recovers_again() {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = build_on(Arc::clone(&device));
    insert_parts(&db, 0..5);
    crash(db);
    // First recovery, more committed work, second crash, second recovery:
    // surrogate counters and page allocation must continue seamlessly.
    let db = Prima::open_device(Arc::clone(&device)).unwrap();
    insert_parts(&db, 5..10);
    let before = names_by_no(&db);
    crash(db);
    let db = Prima::open_device(device).unwrap();
    assert_eq!(part_nos(&db), (0..10).collect::<Vec<_>>());
    assert_eq!(names_by_no(&db), before);
}

#[test]
fn file_disk_database_survives_process_style_crash() {
    let dir = std::env::temp_dir().join(format!("prima-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    struct Guard(std::path::PathBuf);
    impl Drop for Guard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let guard = Guard(dir.clone());

    let db = Prima::builder()
        .buffer_bytes(1 << 20)
        .path(&dir)
        .unwrap()
        .build_with_ddl(DDL)
        .unwrap();
    assert!(db.storage().wal().is_some(), "a path turns durability on");
    insert_parts(&db, 0..40);
    let s = db.session();
    s.execute("INSERT part (part_no: 777, name: 'loser')").unwrap();
    std::mem::forget(s);
    crash(db);

    // Reopen purely from the directory — a genuinely new "process view".
    let db = Prima::open(&dir).unwrap();
    assert_eq!(part_nos(&db), (0..40).collect::<Vec<_>>());
    // And the database keeps working durably after recovery.
    insert_parts(&db, 40..45);
    drop(db);
    let db = Prima::open(&dir).unwrap();
    assert_eq!(part_nos(&db), (0..45).collect::<Vec<_>>());
    drop(db);
    drop(guard);
}

// ---------------------------------------------------------------------
// A failed statement inside a transaction, then a crash
// ---------------------------------------------------------------------

/// Parts 0..3 committed; then, in one transaction, statement 1 renames
/// part 0, and statement 2 renames part 0 again and moves it to key 50
/// before failing on part 1's duplicate key, so it is undone alone. The
/// transaction commits or not, every page is flushed (steal), the kernel
/// crashes; returns what recovery shows next to the committed-prefix
/// model.
fn failed_statement_then_crash(commit: bool) -> (BTreeMap<i64, String>, BTreeMap<i64, String>) {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = build_on(Arc::clone(&device));
    insert_parts(&db, 0..3);
    let mut committed: BTreeMap<i64, String> = (0..3).map(|n| (n, format!("p{n}"))).collect();
    let s = db.session();
    s.execute("MODIFY part SET name = 's1' WHERE part_no = 0").unwrap();
    let before = db.metrics();
    let err = s
        .execute("MODIFY part SET name = 's2', part_no = 50 WHERE part_no < 3")
        .unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
    assert!(db.metrics().delta(&before).access.records_written > 0, "statement 2 wrote first");
    if commit {
        s.commit().unwrap();
        committed.insert(0, "s1".into());
    }
    db.storage().flush().unwrap();
    std::mem::forget(s);
    crash(db);
    let db = Prima::open_device(device).unwrap();
    (names_by_no(&db), committed)
}

#[test]
fn crash_before_commit_recovers_neither_statement() {
    let (recovered, committed) = failed_statement_then_crash(false);
    assert_eq!(recovered, committed);
}

#[test]
fn commit_then_crash_recovers_exactly_the_statement_that_succeeded() {
    let (recovered, committed) = failed_statement_then_crash(true);
    assert_eq!(committed[&0], "s1");
    assert_eq!(recovered, committed);
}

// ---------------------------------------------------------------------
// Randomized interleaving: a model-checked kill point
// ---------------------------------------------------------------------

/// One scripted step against both the kernel and an in-memory model.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(i64),
    Modify(i64),
    Delete(i64),
    Commit,
}

fn run_random_case(seed: u64, steps: usize) {
    // Deterministic splitmix64 stream per seed.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };

    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = build_on(Arc::clone(&device));
    // committed = model of the database at the last commit;
    // pending = model including the open transaction.
    let mut committed: BTreeMap<i64, String> = BTreeMap::new();
    let mut pending = committed.clone();
    let session = db.session();
    let mut version = 0u64;

    for step in 0..steps {
        let roll = next() % 100;
        let op = if roll < 40 {
            Op::Insert((next() % 64) as i64)
        } else if roll < 60 {
            Op::Modify((next() % 64) as i64)
        } else if roll < 75 {
            Op::Delete((next() % 64) as i64)
        } else {
            Op::Commit
        };
        match op {
            Op::Insert(no) => {
                let r = session.execute(&format!(
                    "INSERT part (part_no: {no}, name: 'v{version}')"
                ));
                match pending.entry(no) {
                    std::collections::btree_map::Entry::Occupied(_) => {
                        assert!(r.is_err(), "step {step}: duplicate key {no} must fail");
                    }
                    std::collections::btree_map::Entry::Vacant(e) => {
                        r.unwrap();
                        e.insert(format!("v{version}"));
                    }
                }
                version += 1;
            }
            Op::Modify(no) => {
                if let Some(name) = pending.get_mut(&no) {
                    session
                        .execute(&format!(
                            "MODIFY part SET name = 'm{version}' WHERE part_no = {no}"
                        ))
                        .unwrap();
                    *name = format!("m{version}");
                    version += 1;
                }
            }
            Op::Delete(no) => {
                if pending.contains_key(&no) {
                    session
                        .execute(&format!("DELETE FROM part WHERE part_no = {no}"))
                        .unwrap();
                    pending.remove(&no);
                }
            }
            Op::Commit => {
                session.commit().unwrap();
                committed = pending.clone();
                // Occasionally flush to exercise steal/WAL-before-data.
                if next() % 4 == 0 {
                    db.storage().flush().unwrap();
                }
            }
        }
    }

    // Kill point: whatever was not committed must vanish.
    std::mem::forget(session);
    crash(db);
    let db = Prima::open_device(device).unwrap();
    assert_eq!(
        names_by_no(&db),
        committed,
        "seed {seed}: recovered state must equal the committed prefix"
    );
}

#[test]
fn randomized_interleavings_recover_to_committed_prefix() {
    for case in 0u64..12 {
        run_random_case(0xc0ffee ^ (case * 0x9e37_79b9), 80);
    }
}

// ---------------------------------------------------------------------
// Direct atom interface: auto-commit transactional semantics (ISSUE 5)
// ---------------------------------------------------------------------

/// `Prima::modify` outside any explicit transaction runs in an internal
/// auto-commit session: its commit *forces* the WAL, and a process that
/// dies before that force leaves nothing recoverable of the call. Pinned
/// by arming the fault disk to crash on the very next WAL force — on the
/// pre-PR code `modify` bypassed the transaction layer entirely, never
/// forced, and the armed crash point was simply not reached.
#[test]
fn direct_modify_killed_before_its_commit_force_is_rolled_back() {
    use prima_storage::{CrashPoint, FaultDisk, FaultSchedule};
    let inner: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let mut sched = FaultSchedule::manual(1);
    sched.persist_pct = 100;
    sched.torn_in_flight = false;
    let fault = FaultDisk::new(Arc::clone(&inner), sched);
    let db = build_on(Arc::clone(&fault) as Arc<dyn BlockDevice>);
    let id = db.insert("part", &[("part_no", Value::Int(1)), ("name", Value::Str("old".into()))]).unwrap();

    // The next WAL force is the one carrying the modify's internal
    // commit: the call must die *inside* its own durability point.
    fault.arm(CrashPoint::OnWalForce(fault.wal_forces() + 1));
    let err = db.modify(id, &[("name", Value::Str("new".into()))]);
    assert!(
        err.is_err(),
        "modify must reach (and die on) its commit force — on the pre-PR \
         code it bypassed the txn layer and never forced"
    );
    assert!(fault.has_crashed(), "the armed force fired during the modify");
    drop(db);

    // Restart recovery: the un-forced modify is gone, the insert's
    // committed state is intact.
    let db = Prima::open_device(fault.persisted_device()).unwrap();
    assert_eq!(names_by_no(&db), BTreeMap::from([(1, "old".to_string())]));
}

/// The flip side: a direct call that *returned* is durable on its own —
/// pre-PR it was "durable at the next force", i.e. lost by a crash right
/// after the call.
#[test]
fn direct_modify_that_returned_survives_an_immediate_crash() {
    use prima_storage::{FaultDisk, FaultSchedule};
    let inner: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let mut sched = FaultSchedule::manual(2);
    sched.persist_pct = 0; // nothing unforced survives
    sched.torn_in_flight = false;
    let fault = FaultDisk::new(Arc::clone(&inner), sched);
    let db = build_on(Arc::clone(&fault) as Arc<dyn BlockDevice>);
    let id = db.insert("part", &[("part_no", Value::Int(1)), ("name", Value::Str("old".into()))]).unwrap();
    db.modify(id, &[("name", Value::Str("acked".into()))]).unwrap();

    // Plug pulled immediately after the call returned: no flush, no
    // checkpoint, the drive cache is lost wholesale.
    fault.crash_now();
    drop(db);
    let db = Prima::open_device(fault.persisted_device()).unwrap();
    assert_eq!(
        names_by_no(&db),
        BTreeMap::from([(1, "acked".to_string())]),
        "an acknowledged direct modify must be durable by itself"
    );

    // And the recovered kernel keeps serving transactional work.
    let s = db.session();
    s.execute("INSERT part (part_no: 2, name: 'post')").unwrap();
    s.commit().unwrap();
    assert_eq!(part_nos(&db), vec![1, 2]);
}

// ---------------------------------------------------------------------
// Page deltas: a page's first change after a checkpoint logs its full
// image, every later change only the bytes it changed
// ---------------------------------------------------------------------

fn part_pages(db: &Prima) -> Vec<PageId> {
    let t = db.schema().type_id("part").unwrap();
    let seg = db.access().type_segments()[t as usize];
    let extent = db.storage().with_segment(seg, |s| s.extent()).unwrap();
    (0..extent).map(|p| PageId::new(seg, p)).collect()
}

fn modify_parts(db: &Prima, nos: std::ops::Range<i64>, name: &str) {
    let s = db.session();
    for n in nos {
        s.execute(&format!("MODIFY part SET name = '{name}{n}' WHERE part_no = {n}")).unwrap();
    }
    s.commit().unwrap();
}

#[test]
fn torn_data_page_is_rebuilt_from_its_first_touch_image_plus_deltas() {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = build_on(Arc::clone(&device));
    insert_parts(&db, 0..10);
    db.checkpoint().unwrap();
    modify_parts(&db, 0..10, "after-checkpoint");
    insert_parts(&db, 10..15);
    db.storage().flush().unwrap();

    let log = Wal::replay(&device).unwrap();
    let pages = part_pages(&db);
    let size = db.storage().page_size(pages[0].segment).unwrap();
    for &id in &pages {
        let images = log
            .iter()
            .filter(|r| matches!(r, WalRecord::PageImage { page, .. } if *page == id))
            .count();
        assert_eq!(images, 1, "{id}: one image since the checkpoint");
        // Tear the flushed page: its back half never reached the medium.
        let addr = BlockAddr::new(id.segment, id.page);
        let mut block = vec![0u8; size.bytes()];
        device.read_block(addr, &mut block).unwrap();
        block[size.bytes() / 2..].fill(0xA5);
        device.write_block(addr, &block).unwrap();
        assert!(Page::from_bytes(id, size, block.into()).is_err(), "{id} is torn");
    }
    assert!(
        log.iter().any(|r| matches!(r, WalRecord::PageDelta { page, .. } if pages.contains(page))),
        "later changes were logged as deltas"
    );
    let expect = names_by_no(&db);
    crash(db);
    let db = Prima::open_device(device).unwrap();
    assert_eq!(names_by_no(&db), expect);
}

#[test]
fn crash_after_a_forced_image_before_its_delta_keeps_the_imaged_commit() {
    use prima_storage::{CrashPoint, FaultDisk, FaultSchedule};
    let mut sched = FaultSchedule::manual(3);
    sched.persist_pct = 0;
    sched.torn_in_flight = false;
    let fault = FaultDisk::new(Arc::new(SimDisk::new()), sched);
    let db = build_on(Arc::clone(&fault) as Arc<dyn BlockDevice>);
    insert_parts(&db, 0..5);
    db.checkpoint().unwrap();
    // The page's first change since the checkpoint: its commit forces
    // the page's image.
    modify_parts(&db, 1..2, "imaged");
    // Its next change is a delta, and the force that carries it dies.
    let s = db.session();
    s.execute("MODIFY part SET name = 'lost' WHERE part_no = 2").unwrap();
    fault.arm(CrashPoint::OnWalForce(fault.wal_forces() + 1));
    assert!(s.commit().is_err());

    let durable = Wal::replay(&fault.persisted_device()).unwrap();
    let lost = db.storage().wal().unwrap().unforced().unwrap();
    let lost_delta = lost
        .iter()
        .find_map(|r| match r {
            WalRecord::PageDelta { page, base_lsn, .. } => Some((*page, *base_lsn)),
            _ => None,
        })
        .expect("the lost batch carried a delta");
    assert!(
        durable.iter().any(|r| matches!(r,
            WalRecord::PageImage { lsn, page, .. } if (*page, *lsn) == lost_delta)),
        "the delta's base is the forced image"
    );
    std::mem::forget(s);
    drop(db);
    let db = Prima::open_device(fault.persisted_device()).unwrap();
    let names = names_by_no(&db);
    assert_eq!(names[&1], "imaged1");
    assert_eq!(names[&2], "p2");
}

#[test]
fn delta_whose_base_is_missing_is_a_typed_recovery_error() {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = build_on(Arc::clone(&device));
    insert_parts(&db, 0..5);
    db.checkpoint().unwrap();
    modify_parts(&db, 1..2, "first");
    modify_parts(&db, 2..3, "second");
    crash(db);
    // Cut every page image out of the log: the deltas lose their base.
    let log = device.wal_contents().unwrap();
    let mut kept = Vec::new();
    let mut pos = 0;
    while pos < log.len() {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        let record = &log[pos..pos + 8 + len];
        if !matches!(Wal::decode(record).unwrap().as_slice(), [WalRecord::PageImage { .. }]) {
            kept.extend_from_slice(record);
        }
        pos += 8 + len;
    }
    assert!(Wal::decode(&kept).unwrap().iter().any(|r| matches!(r, WalRecord::PageDelta { .. })));
    device.wal_reset().unwrap();
    device.wal_append(&kept).unwrap();
    match Prima::open_device(device) {
        Err(PrimaError::Storage(StorageError::RedoBaseMismatch { .. })) => {}
        other => panic!("expected a redo base mismatch, got {:?}", other.err()),
    }
}

#[test]
fn delta_reappended_by_a_log_reset_applies_onto_the_flushed_page() {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let wal = Wal::new(Arc::clone(&device));
    let storage = StorageSystem::with_wal(Arc::clone(&device), 1 << 16, Arc::clone(&wal));
    let seg = storage.create_segment(PageSize::Half, true).unwrap();
    let id = storage.allocate_page(seg).unwrap();
    storage.fix_new(id, PageType::Data).unwrap().write_payload(b"base").unwrap();
    // The image is forced and the page flushed, then a delta is appended
    // and the log reset before anything forces it: reset re-appends it.
    storage.flush().unwrap();
    storage.fix_mut(id).unwrap().write_payload(b"last").unwrap();
    wal.reset().unwrap();
    let records = Wal::replay(&device).unwrap();
    assert!(
        matches!(records.as_slice(), [WalRecord::PageDelta { page, .. }] if *page == id),
        "{records:?}"
    );
    let (next, segments) = storage.segments_snapshot();
    drop(storage); // crash: the frame holding "last" never reaches the device

    let restarted = StorageSystem::new(Arc::clone(&device), 1 << 16);
    restarted.restore_segments(next, &segments);
    assert_eq!(restarted.redo(&records).unwrap(), 1);
    assert_eq!(restarted.fix(id).unwrap().payload(), b"last");
    // Replaying the log again finds the delta already in the page.
    restarted.redo(&records).unwrap();
    restarted.drop_cache().unwrap();
    assert_eq!(restarted.fix(id).unwrap().payload(), b"last");
}

/// A modify that grows a record past its page's free space moves the
/// record. The new copy is written before the old one is deleted, so a
/// log that ends between the two page changes holds the record twice;
/// restart keeps one copy and the loser's undo restores its value.
#[test]
fn record_move_cut_between_its_two_pages_loses_nothing() {
    let device: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
    let db = build_on(Arc::clone(&device));
    let s = db.session();
    for n in 0..10 {
        s.execute(&format!("INSERT part (part_no: {n}, name: 'p{n}-{:0>350}')", n)).unwrap();
    }
    s.commit().unwrap();
    let before = names_by_no(&db);
    db.checkpoint().unwrap();
    let s = db.session();
    s.execute(&format!("MODIFY part SET name = 'grown-{:0>1500}' WHERE part_no = 0", 0))
        .unwrap();
    db.storage().wal().unwrap().force().unwrap();
    std::mem::forget(s);
    crash(db);

    // Cut the log before its last page record: the old copy's delete.
    let log = device.wal_contents().unwrap();
    let mut starts = Vec::new();
    let mut pos = 0;
    while pos < log.len() {
        starts.push(pos);
        pos += 8 + u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
    }
    let page_of = |at: usize| match Wal::decode(&log[at..]).unwrap().first() {
        Some(WalRecord::PageImage { page, .. } | WalRecord::PageDelta { page, .. }) => Some(*page),
        _ => None,
    };
    let pages: Vec<(usize, PageId)> =
        starts.iter().filter_map(|&at| page_of(at).map(|p| (at, p))).collect();
    let [.., (_, moved_to), (cut, moved_from)] = pages.as_slice() else {
        panic!("the move logged fewer than two page records")
    };
    assert_ne!(moved_to, moved_from, "the last two page records are on two pages");
    device.wal_reset().unwrap();
    device.wal_append(&log[..*cut]).unwrap();

    let db = Prima::open_device(device).unwrap();
    assert_eq!(names_by_no(&db), before);
    assert_eq!(part_nos(&db), (0..10).collect::<Vec<_>>(), "one copy per part");
}
