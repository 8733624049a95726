//! Transactions (Section 4) through the session: strict two-phase
//! locking, commit and rollback, and selective in-transaction recovery —
//! a failed statement is undone alone, and the transaction's earlier
//! statements survive commit.

use prima::{LockConfig, Prima, QueryOptions, Value};

const DDL: &str = "
CREATE ATOM_TYPE part
  ( id : IDENTIFIER, part_no : INTEGER, name : CHAR_VAR,
    sub : SET_OF (REF_TO (part.super)),
    super : SET_OF (REF_TO (part.sub)) )
KEYS_ARE (part_no);
";

// These tests interleave conflicting transactions on a single thread, so
// a blocked acquire could never be woken — run the lock table in no-wait
// mode, which fails conflicting requests immediately (the pre-queue
// behaviour). Blocking/queueing itself is covered by tests/contention.rs.
fn db() -> Prima {
    Prima::builder().lock_config(LockConfig::no_wait()).build_with_ddl(DDL).unwrap()
}

fn part(no: i64) -> [(&'static str, Value); 1] {
    [("part_no", Value::Int(no))]
}

fn name(s: &str) -> [(&'static str, Value); 1] {
    [("name", Value::Str(s.into()))]
}

#[test]
fn top_level_commit_makes_work_durable() {
    let db = db();
    let s = db.session();
    let attrs = [("part_no", Value::Int(1)), ("name", Value::Str("axle".into()))];
    let id = s.insert_atom_named("part", &attrs).unwrap();
    s.commit().unwrap();
    assert!(db.access().exists(id));
    assert_eq!(db.read(id).unwrap().values[2], Value::Str("axle".into()));
}

#[test]
fn top_level_abort_undoes_everything() {
    let db = db();
    let s = db.session();
    let a = s.insert_atom_named("part", &part(1)).unwrap();
    let b = s.insert_atom_named("part", &part(2)).unwrap();
    s.modify_atom_named(a, &name("renamed")).unwrap();
    s.rollback().unwrap();
    assert!(!db.access().exists(a));
    assert!(!db.access().exists(b));
}

/// A statement that fails after some of its writes is undone alone: the
/// MODIFY moves part 1 to key 5, then fails on part 2's duplicate key;
/// part 1's move is rolled back, the insert before it stays.
#[test]
fn subtransaction_abort_is_selective() {
    let db = db();
    let p1 = db.insert("part", &part(1)).unwrap();
    db.insert("part", &part(2)).unwrap();
    let s = db.session();
    let keep = s.insert_atom_named("part", &part(3)).unwrap();
    let before = db.metrics();
    let err = s.execute("MODIFY part SET part_no = 5 WHERE part_no < 3").unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
    assert!(db.metrics().delta(&before).access.records_written > 0, "the statement wrote first");
    // Lock-free inspection: the session still holds part 1 exclusively.
    let mid = db.access().read_atom(p1, None).unwrap();
    assert_eq!(mid.values[1], Value::Int(1), "the failed statement's work rolled back");
    assert!(db.access().exists(keep), "the earlier statement's work untouched");
    s.commit().unwrap();
    assert!(db.access().exists(keep));
    assert_eq!(db.read(p1).unwrap().values[1], Value::Int(1));
}

/// The failed statement's partial effects never become durable: with a
/// `(0,2)` cardinality on `pair.items`, connecting a third item fails on
/// the pair that already holds two, after it was connected to the pair
/// holding one. Commit keeps the transaction's earlier insert only.
#[test]
fn a_failed_statement_leaves_nothing_behind_at_commit() {
    let db = Prima::builder()
        .lock_config(LockConfig::no_wait())
        .build_with_ddl(
            "
            CREATE ATOM_TYPE pair
              ( id : IDENTIFIER, p : INTEGER,
                items : SET_OF (REF_TO (item.owner)) (0,2) )
            KEYS_ARE (p);
            CREATE ATOM_TYPE item
              ( id : IDENTIFIER, k : INTEGER,
                owner : SET_OF (REF_TO (pair.items)) )
            KEYS_ARE (k);
            ",
        )
        .unwrap();
    let item = |k: i64| db.insert("item", &[("k", Value::Int(k))]).unwrap();
    let (i1, i2, i3, i4) = (item(1), item(2), item(3), item(4));
    let pair = |p: i64, items: Vec<prima::AtomId>| {
        db.insert("pair", &[("p", Value::Int(p)), ("items", Value::ref_set(items))]).unwrap()
    };
    let (p1, p2) = (pair(1, vec![i1]), pair(2, vec![i2, i4]));

    let s = db.session();
    s.begin().unwrap();
    s.execute("INSERT item (k: 5)").unwrap();
    let err = s
        .execute("MODIFY pair SET items = CONNECT (SELECT ALL FROM item WHERE k = 3)")
        .unwrap_err();
    assert!(err.to_string().contains("cardinality violation"), "{err}");
    s.commit().unwrap();

    assert_eq!(db.read(p1).unwrap().values[2].ref_ids(), [i1], "pair 1 lost the third item");
    assert_eq!(db.read(p2).unwrap().values[2].ref_ids().len(), 2);
    assert!(db.read(i3).unwrap().values[2].ref_ids().is_empty(), "item 3 has no owner");
    let fifth = db.session().query("SELECT ALL FROM item WHERE k = 5", &QueryOptions::default());
    assert_eq!(fifth.unwrap().set.len(), 1, "the earlier statement committed");
}

/// A transaction's successful statements die with its rollback.
#[test]
fn child_commit_inherits_into_parent_abort() {
    let db = db();
    let s = db.session();
    let id = s.insert_atom_named("part", &part(7)).unwrap();
    assert!(db.access().exists(id), "visible in base after the statement");
    s.rollback().unwrap();
    assert!(!db.access().exists(id), "the statement's work dies with the transaction");
}

#[test]
fn delete_rollback_restores_references() {
    let db = db();
    // committed base data: parent part with one sub part.
    let child = db.insert("part", &part(2)).unwrap();
    let parent = db
        .insert("part", &[("part_no", Value::Int(1)), ("sub", Value::ref_set(vec![child]))])
        .unwrap();
    // Transactionally delete the child, then roll back.
    let s = db.session();
    s.delete_atom(child).unwrap();
    // Back-reference maintenance removed child from parent.sub. (Lock-free
    // access-layer read: this inspects the session's own uncommitted
    // state.)
    let p = db.access().read_atom(parent, None).unwrap();
    assert!(p.values[3].ref_ids().is_empty());
    s.rollback().unwrap();
    // Restored, including the association (both directions).
    assert!(db.access().exists(child));
    let p = db.read(parent).unwrap();
    assert_eq!(p.values[3].ref_ids(), [child]);
    let c = db.read(child).unwrap();
    assert_eq!(c.values[4].ref_ids(), [parent]);
}

#[test]
fn lock_conflicts_between_top_level_transactions() {
    let db = db();
    let id = db.insert("part", &part(1)).unwrap();
    let t1 = db.session();
    let t2 = db.session();
    t1.modify_atom_named(id, &name("t1")).unwrap();
    t2.begin().unwrap();
    let err = t2.modify_atom_named(id, &name("t2")).unwrap_err();
    assert!(err.to_string().contains("lock conflict"), "{err}");
    // Readers conflict with the exclusive lock too.
    assert!(t2.read_atom(id).is_err());
    t1.commit().unwrap();
    // After commit the lock is gone.
    t2.modify_atom_named(id, &name("t2")).unwrap();
    t2.commit().unwrap();
    assert_eq!(db.read(id).unwrap().values[2], Value::Str("t2".into()));
}

/// A later statement may touch what the transaction's earlier one holds;
/// another session conflicts until the transaction commits.
#[test]
fn siblings_conflict_but_parent_child_do_not() {
    let db = db();
    let id = db.insert("part", &part(1)).unwrap();
    let t = db.session();
    t.modify_atom_named(id, &name("parent")).unwrap();
    t.modify_atom_named(id, &name("child")).unwrap();
    let other = db.session();
    other.begin().unwrap();
    let err = other.modify_atom_named(id, &name("sibling"));
    assert!(err.is_err());
    // After t commits (its locks go), the other session may proceed.
    t.commit().unwrap();
    other.modify_atom_named(id, &name("sibling")).unwrap();
    other.commit().unwrap();
    assert_eq!(db.read(id).unwrap().values[2], Value::Str("sibling".into()));
}

#[test]
fn drop_without_commit_aborts() {
    let db = db();
    let id;
    {
        let s = db.session();
        id = s.insert_atom_named("part", &part(9)).unwrap();
        // dropped here
    }
    assert!(!db.access().exists(id), "dropped transaction aborted");
}

/// Statements modify one atom v0 → v1 → v2, then a statement writing v3
/// fails and is undone alone; rollback restores v0.
#[test]
fn nested_rollback_with_modify_chain() {
    let db = db();
    let id = db.insert("part", &[("part_no", Value::Int(1)), ("name", Value::Str("v0".into()))]).unwrap();
    db.insert("part", &part(2)).unwrap();
    let t = db.session();
    t.modify_atom_named(id, &name("v1")).unwrap();
    t.modify_atom_named(id, &name("v2")).unwrap();
    // v3 lands on part 1, then part 2's move to key 1 fails.
    let err = t.execute("MODIFY part SET name = 'v3', part_no = 1 WHERE part_no > 0").unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
    // Lock-free inspection: t still holds the atom exclusively.
    let mid = db.access().read_atom(id, None).unwrap();
    assert_eq!(mid.values[2], Value::Str("v2".into()), "the failed statement undone only");
    t.rollback().unwrap();
    assert_eq!(db.read(id).unwrap().values[2], Value::Str("v0".into()), "all undone");
}

/// A modify that changes no reference attribute has no old reference
/// targets to lock, so the atom's page is fixed twice: once to read the
/// atom, once to write its record.
#[test]
fn non_reference_modify_reads_the_atom_once() {
    let db = db();
    let id = db.insert("part", &part(1)).unwrap();
    let s = db.session();
    s.begin().unwrap();
    let before = db.metrics();
    s.modify_atom_named(id, &name("axle")).unwrap();
    assert_eq!(db.metrics().delta(&before).buffer.fix_calls, 2);
    s.commit().unwrap();
}
