//! Molecule manipulation statements (Section 2.2): insert, delete
//! (components and whole molecules), modify with connect/disconnect —
//! all with system-enforced structural integrity.

use prima::datasys::DmlResult;
use prima_workloads::exec;
use prima::{Prima, PrimaError, Value};

const DDL: &str = "
CREATE ATOM_TYPE doc
  ( id : IDENTIFIER, doc_no : INTEGER, title : CHAR_VAR,
    chapters : SET_OF (REF_TO (chapter.doc)) )
KEYS_ARE (doc_no);
CREATE ATOM_TYPE chapter
  ( id : IDENTIFIER, chap_no : INTEGER, pages : INTEGER,
    doc : SET_OF (REF_TO (doc.chapters)) )
KEYS_ARE (chap_no);
";

fn setup() -> Prima {
    let db = Prima::builder().build_with_ddl(DDL).unwrap();
    for d in 1..=2i64 {
        let doc = db
            .insert("doc", &[("doc_no", Value::Int(d)), ("title", Value::Str(format!("doc {d}")))])
            .unwrap();
        for c in 0..3i64 {
            db.insert(
                "chapter",
                &[
                    ("chap_no", Value::Int(d * 10 + c)),
                    ("pages", Value::Int(10 + c)),
                    ("doc", Value::ref_set(vec![doc])),
                ],
            )
            .unwrap();
        }
    }
    db
}

#[test]
fn insert_statement_generates_surrogate() {
    let db = setup();
    let r = exec::execute(&db, "INSERT doc (doc_no: 3, title: 'fresh')").unwrap();
    let DmlResult::Inserted(id) = r else { panic!("{r:?}") };
    assert!(db.access().exists(id));
    assert_eq!(exec::query(&db, "SELECT ALL FROM doc WHERE doc_no = 3").unwrap().len(), 1);
}

#[test]
fn delete_whole_molecule_disconnects() {
    let db = setup();
    let r = exec::execute(&db, "DELETE FROM doc-chapter WHERE doc_no = 1").unwrap();
    // doc + its 3 chapters
    assert_eq!(r, DmlResult::Deleted(4));
    assert!(exec::query(&db, "SELECT ALL FROM doc WHERE doc_no = 1").unwrap().is_empty());
    // Chapters of doc 2 untouched.
    let set = exec::query(&db, "SELECT ALL FROM doc-chapter WHERE doc_no = 2").unwrap();
    assert_eq!(set.atoms_of("chapter").len(), 3);
}

#[test]
fn delete_only_component() {
    let db = setup();
    // Remove one chapter from doc 1's molecule; the doc stays.
    let r = exec::execute(&db, "DELETE ONLY (chapter) FROM doc-chapter WHERE doc_no = 1 AND chapter.chap_no = 10")
        .unwrap();
    // Implicit-EXISTS semantics qualify the doc-1 molecule; chapter
    // components of that molecule are deleted when they match? No: ONLY
    // deletes all atoms of the named component in qualifying molecules.
    // The residual predicate restricted the molecule, not the victims, so
    // all 3 chapters of doc 1 disappear.
    assert_eq!(r, DmlResult::Deleted(3));
    let set = exec::query(&db, "SELECT ALL FROM doc-chapter WHERE doc_no = 1").unwrap();
    assert_eq!(set.len(), 1, "doc survives");
    assert_eq!(set.atoms_of("chapter").len(), 0);
}

#[test]
fn modify_attribute_via_statement() {
    let db = setup();
    let r = exec::execute(&db, "MODIFY chapter SET pages = 99 WHERE chap_no = 11")
        .unwrap();
    assert_eq!(r, DmlResult::Modified(1));
    let set = exec::query(&db, "SELECT ALL FROM chapter WHERE chap_no = 11").unwrap();
    assert_eq!(set.molecules[0].root.atom.values[2], Value::Int(99));
}

#[test]
fn modify_connect_adds_association_both_ways() {
    let db = setup();
    // Chapter 20 currently belongs to doc 2; connect it to doc 1 as well
    // (chapters may be shared — n:m).
    exec::execute(&db, 
        "MODIFY chapter SET doc = CONNECT (SELECT ALL FROM doc WHERE doc_no = 1)
         WHERE chap_no = 20",
    )
    .unwrap();
    let set = exec::query(&db, "SELECT ALL FROM doc-chapter WHERE doc_no = 1").unwrap();
    let nos: Vec<i64> = set
        .atoms_of("chapter")
        .iter()
        .map(|a| a.values[1].as_int().unwrap())
        .collect();
    assert!(nos.contains(&20), "chapter 20 now reachable from doc 1: {nos:?}");
    // Back-reference on the chapter side lists both docs.
    let set = exec::query(&db, "SELECT ALL FROM chapter-doc WHERE chap_no = 20").unwrap();
    assert_eq!(set.atoms_of("doc").len(), 2);
}

#[test]
fn modify_disconnect_removes_association() {
    let db = setup();
    exec::execute(&db, 
        "MODIFY chapter SET doc = DISCONNECT (SELECT ALL FROM doc WHERE doc_no = 2)
         WHERE chap_no = 20",
    )
    .unwrap();
    let set = exec::query(&db, "SELECT ALL FROM chapter-doc WHERE chap_no = 20").unwrap();
    assert_eq!(set.atoms_of("doc").len(), 0, "chapter 20 disconnected");
    let set = exec::query(&db, "SELECT ALL FROM doc-chapter WHERE doc_no = 2").unwrap();
    assert_eq!(set.atoms_of("chapter").len(), 2);
}

#[test]
fn deleting_shared_component_disconnects_everywhere() {
    let db = setup();
    // Share chapter 20 between both docs, then delete it.
    exec::execute(&db, 
        "MODIFY chapter SET doc = CONNECT (SELECT ALL FROM doc WHERE doc_no = 1)
         WHERE chap_no = 20",
    )
    .unwrap();
    exec::execute(&db, "DELETE FROM chapter WHERE chap_no = 20").unwrap();
    for d in [1, 2] {
        let set = exec::query(&db, &format!("SELECT ALL FROM doc-chapter WHERE doc_no = {d}")).unwrap();
        let nos: Vec<i64> = set
            .atoms_of("chapter")
            .iter()
            .map(|a| a.values[1].as_int().unwrap())
            .collect();
        assert!(!nos.contains(&20), "doc {d} still references deleted chapter");
    }
}

#[test]
fn key_violation_through_mql_reported() {
    let db = setup();
    let err = exec::execute(&db, "INSERT doc (doc_no: 1, title: 'dup')").unwrap_err();
    assert!(err.to_string().contains("duplicate key"), "{err}");
}

// ---------------------------------------------------------------------
// A write that fails on one key changes no key
// ---------------------------------------------------------------------

const TWO_KEYS: &str =
    "CREATE ATOM_TYPE thing ( id : IDENTIFIER, k1 : INTEGER, k2 : INTEGER ) KEYS_ARE (k1, k2);";

fn thing(db: &Prima, k1: i64, k2: i64) -> prima::PrimaResult<prima::AtomId> {
    db.insert("thing", &[("k1", Value::Int(k1)), ("k2", Value::Int(k2))])
}

#[test]
fn failed_modify_leaves_every_key_map_as_it_was() {
    let db = Prima::builder().build_with_ddl(TWO_KEYS).unwrap();
    let a = thing(&db, 1, 1).unwrap();
    thing(&db, 2, 2).unwrap();
    // k1 = 3 is free, k2 = 2 is taken: the modify fails as a whole.
    let err = db.modify(a, &[("k1", Value::Int(3)), ("k2", Value::Int(2))]).unwrap_err();
    assert!(err.to_string().contains("duplicate key"), "{err}");
    assert_eq!(db.read(a).unwrap().values[1], Value::Int(1));
    let by_k1 = exec::query(&db, "SELECT ALL FROM thing WHERE k1 = 1").unwrap();
    assert_eq!(by_k1.len(), 1, "the key lookup still finds the record holding k1 = 1");
    thing(&db, 3, 3).expect("the failed modify claimed no k1 = 3");
}

#[test]
fn failed_insert_leaves_every_key_map_as_it_was() {
    let db = Prima::builder().build_with_ddl(TWO_KEYS).unwrap();
    thing(&db, 1, 1).unwrap();
    let err = thing(&db, 5, 1).unwrap_err();
    assert!(err.to_string().contains("duplicate key"), "{err}");
    thing(&db, 5, 2).expect("the failed insert left no k1 = 5 behind");
    assert_eq!(exec::query(&db, "SELECT ALL FROM thing WHERE k1 = 5").unwrap().len(), 1);
}

/// One `a` (`k = 1`, `v = 5`) linked to one `b` (`v = 500`).
const TWO_TYPE_DDL: &str = "
CREATE ATOM_TYPE a
  ( id : IDENTIFIER, k : INTEGER, v : INTEGER, bs : SET_OF (REF_TO (b.owners)) )
KEYS_ARE (k);
CREATE ATOM_TYPE b
  ( id : IDENTIFIER, v : INTEGER, owners : SET_OF (REF_TO (a.bs)) );
";

fn two_type_db() -> Prima {
    let db = Prima::builder().build_with_ddl(TWO_TYPE_DDL).unwrap();
    let b = db.insert("b", &[("v", Value::Int(500))]).unwrap();
    let attrs = [("k", Value::Int(1)), ("v", Value::Int(5)), ("bs", Value::ref_set(vec![b]))];
    db.insert("a", &attrs).unwrap();
    db
}

#[test]
fn modify_targets_resolve_when_compiled() {
    let db = two_type_db();
    // `k = 2` qualifies no molecule: the unknown target must fail anyway.
    for k in [1, 2] {
        let err = exec::execute(&db, &format!("MODIFY a SET nosuch = 1 WHERE k = {k}"))
            .unwrap_err();
        assert!(matches!(err, PrimaError::UnresolvedReference { .. }), "{err:?}");
    }
    let session = db.session();
    let err = session.prepare("MODIFY a SET nosuch = ? WHERE k = ?").err().unwrap();
    assert!(matches!(err, PrimaError::UnresolvedReference { .. }), "{err:?}");
    // Nothing was modified.
    let set = exec::query(&db, "SELECT ALL FROM a WHERE k = 1").unwrap();
    assert_eq!(set.molecules[0].root.atom.values[2], Value::Int(5));
}

#[test]
fn connect_needs_a_reference_attribute_whatever_the_data() {
    let db = two_type_db();
    for (verb, k) in [("CONNECT", 1), ("CONNECT", 2), ("DISCONNECT", 1), ("DISCONNECT", 2)] {
        let text = format!("MODIFY a SET v = {verb} (SELECT ALL FROM b) WHERE k = {k}");
        let err = exec::execute(&db, &text).unwrap_err();
        assert!(matches!(err, PrimaError::BadStatement(_)), "{text}: {err:?}");
        let expected = format!("{verb} target 'v' is not a reference attribute");
        assert!(err.to_string().contains(&expected), "{text}: {err}");
    }
}
