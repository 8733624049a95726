//! Nested transactions (Section 4): Moss-style locking, commit
//! inheritance, selective in-transaction recovery.

use prima::{LockConfig, Prima, Value};

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

#[test]
fn top_level_commit_makes_work_durable() {
    let db = db();
    let t = db.begin().unwrap();
    let id = t.insert_atom(0, vec![Value::Null, Value::Int(1), Value::Str("axle".into())]).unwrap();
    t.commit().unwrap();
    assert!(db.access().exists(id));
    assert_eq!(db.read(id).unwrap().values[2], Value::Str("axle".into()));
}

#[test]
fn top_level_abort_undoes_everything() {
    let db = db();
    let t = db.begin().unwrap();
    let a = t.insert_atom(0, vec![Value::Null, Value::Int(1)]).unwrap();
    let b = t.insert_atom(0, vec![Value::Null, Value::Int(2)]).unwrap();
    t.modify_atom(a, &[(2, Value::Str("renamed".into()))]).unwrap();
    t.abort().unwrap();
    assert!(!db.access().exists(a));
    assert!(!db.access().exists(b));
}

#[test]
fn subtransaction_abort_is_selective() {
    let db = db();
    let t = db.begin().unwrap();
    let keep = t.insert_atom(0, vec![Value::Null, Value::Int(1)]).unwrap();
    // Child does work and fails.
    let c = t.begin_child().unwrap();
    let gone = c.insert_atom(0, vec![Value::Null, Value::Int(2)]).unwrap();
    c.abort().unwrap();
    assert!(!db.access().exists(gone), "child's work rolled back");
    assert!(db.access().exists(keep), "parent's work untouched");
    t.commit().unwrap();
    assert!(db.access().exists(keep));
}

#[test]
fn child_commit_inherits_into_parent_abort() {
    let db = db();
    let t = db.begin().unwrap();
    let c = t.begin_child().unwrap();
    let id = c.insert_atom(0, vec![Value::Null, Value::Int(7)]).unwrap();
    c.commit().unwrap();
    assert!(db.access().exists(id), "visible after subcommit");
    // Parent aborts: the inherited work must disappear too.
    t.abort().unwrap();
    assert!(!db.access().exists(id), "subcommitted work dies with the parent");
}

#[test]
fn delete_rollback_restores_references() {
    let db = db();
    // committed base data: parent part with one sub part.
    let child = db.insert("part", &[("part_no", Value::Int(2))]).unwrap();
    let parent = db
        .insert("part", &[("part_no", Value::Int(1)), ("sub", Value::ref_set(vec![child]))])
        .unwrap();
    // Transactionally delete the child, then abort.
    let t = db.begin().unwrap();
    t.delete_atom(child).unwrap();
    // Back-reference maintenance removed child from parent.sub. (Lock-free
    // access-layer read: `db.read` would rightly conflict with t's
    // exclusive lock — this inspects t's own uncommitted state.)
    let p = db.access().read_atom(parent, None).unwrap();
    assert!(p.values[3].ref_ids().is_empty());
    t.abort().unwrap();
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
    let id = db.insert("part", &[("part_no", Value::Int(1))]).unwrap();
    let t1 = db.begin().unwrap();
    let t2 = db.begin().unwrap();
    t1.modify_atom(id, &[(2, Value::Str("t1".into()))]).unwrap();
    let err = t2.modify_atom(id, &[(2, Value::Str("t2".into()))]).unwrap_err();
    assert!(err.to_string().contains("lock conflict"), "{err}");
    // Readers conflict with the exclusive lock too.
    assert!(t2.read_atom(id).is_err());
    t1.commit().unwrap();
    // After commit the lock is gone.
    t2.modify_atom(id, &[(2, Value::Str("t2".into()))]).unwrap();
    t2.commit().unwrap();
    assert_eq!(db.read(id).unwrap().values[2], Value::Str("t2".into()));
}

#[test]
fn siblings_conflict_but_parent_child_do_not() {
    let db = db();
    let id = db.insert("part", &[("part_no", Value::Int(1))]).unwrap();
    let t = db.begin().unwrap();
    t.modify_atom(id, &[(2, Value::Str("parent".into()))]).unwrap();
    // Child may touch what the parent holds.
    let c1 = t.begin_child().unwrap();
    c1.modify_atom(id, &[(2, Value::Str("child".into()))]).unwrap();
    // A sibling conflicts with c1's lock.
    let c2 = t.begin_child().unwrap();
    let err = c2.modify_atom(id, &[(2, Value::Str("sibling".into()))]);
    assert!(err.is_err());
    // After c1 commits (locks pass to parent), the sibling may proceed.
    c1.commit().unwrap();
    c2.modify_atom(id, &[(2, Value::Str("sibling".into()))]).unwrap();
    c2.commit().unwrap();
    t.commit().unwrap();
    assert_eq!(db.read(id).unwrap().values[2], Value::Str("sibling".into()));
}

#[test]
fn parent_cannot_commit_with_open_children() {
    let db = db();
    let t = db.begin().unwrap();
    let _c = t.begin_child().unwrap();
    // Cannot consume t while a child handle is live; use the manager API
    // directly by trying to commit: the Transaction::commit consumes, so
    // structure the test around the error.
    let result = t.commit();
    assert!(result.is_err(), "parent with active child must not commit");
}

#[test]
fn drop_without_commit_aborts() {
    let db = db();
    let id;
    {
        let t = db.begin().unwrap();
        id = t.insert_atom(0, vec![Value::Null, Value::Int(9)]).unwrap();
        // dropped here
    }
    assert!(!db.access().exists(id), "dropped transaction aborted");
}

#[test]
fn nested_rollback_with_modify_chain() {
    let db = db();
    let id = db.insert("part", &[("part_no", Value::Int(1)), ("name", Value::Str("v0".into()))]).unwrap();
    let t = db.begin().unwrap();
    t.modify_atom(id, &[(2, Value::Str("v1".into()))]).unwrap();
    let c = t.begin_child().unwrap();
    c.modify_atom(id, &[(2, Value::Str("v2".into()))]).unwrap();
    c.commit().unwrap();
    let c2 = t.begin_child().unwrap();
    c2.modify_atom(id, &[(2, Value::Str("v3".into()))]).unwrap();
    c2.abort().unwrap();
    // Lock-free inspection: t still holds the atom exclusively.
    let mid = db.access().read_atom(id, None).unwrap();
    assert_eq!(mid.values[2], Value::Str("v2".into()), "c2 undone only");
    t.abort().unwrap();
    assert_eq!(db.read(id).unwrap().values[2], Value::Str("v0".into()), "all undone");
}

/// A modify that changes no reference attribute has no old reference
/// targets to lock, so the atom's page is fixed twice: once to read the
/// atom, once to write its record.
#[test]
fn non_reference_modify_reads_the_atom_once() {
    let db = db();
    let id = db.insert("part", &[("part_no", Value::Int(1))]).unwrap();
    let t = db.begin().unwrap();
    let before = db.metrics();
    t.modify_atom(id, &[(2, Value::Str("axle".into()))]).unwrap();
    assert_eq!(db.metrics().delta(&before).buffer.fix_calls, 2);
    t.commit().unwrap();
}
