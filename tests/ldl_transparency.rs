//! E-LDL: "Such measures only serve to improve performance — they are …
//! not visible to the application referencing the MAD interface."
//! Every tuning structure changes the physical trace but never the
//! answer; structures can be created and dropped at any time.

use prima::Structure;
use prima_access::multidim::DimRange;
use prima_access::scan::Scan;
use prima_access::sort_order::SortOrder;
use prima_access::Ssa;
use std::ops::Bound;
use std::sync::Arc;
use prima_workloads::exec;
use prima_workloads::brep::{self, BrepConfig};
use prima_workloads::map::{self, MapConfig};

fn sort_order(db: &prima::Prima, name: &str) -> Arc<SortOrder> {
    match db.access().structure(name) {
        Some(Structure::SortOrder(so)) => so,
        _ => panic!("{name} is no sort order"),
    }
}

#[test]
fn access_path_changes_trace_not_answer() {
    let db = map::open_db(16 << 20).unwrap();
    map::populate(&db, &MapConfig { sheets: 1, grid: 10, seed: 3 }).unwrap();
    let q = "SELECT ALL FROM region WHERE area >= 100.0";
    let (before, p_before) = exec::query_profiled(&db, q).unwrap();
    assert_eq!(p_before.access("path"), Some("type_scan"));
    db.ldl("CREATE ACCESS PATH ap_area ON region (area)").unwrap();
    let (after, p_after) = exec::query_profiled(&db, q).unwrap();
    assert_eq!(p_after.access("path"), Some("access_path(ap_area)"));
    assert_eq!(before.molecules, after.molecules);
    // Drop it again: back to the scan, same answer.
    db.ldl("DROP STRUCTURE ap_area").unwrap();
    let (dropped, p_dropped) = exec::query_profiled(&db, q).unwrap();
    assert_eq!(p_dropped.access("path"), Some("type_scan"));
    assert_eq!(before.molecules, dropped.molecules);
}

#[test]
fn partition_changes_trace_not_answer() {
    let db = map::open_db(16 << 20).unwrap();
    map::populate(&db, &MapConfig { sheets: 1, grid: 8, seed: 3 }).unwrap();
    let q = "SELECT region_no FROM region WHERE land_use = 'forest'";
    let before = exec::query(&db, q).unwrap();
    db.ldl("CREATE PARTITION p ON region (region_no, land_use)").unwrap();
    let (after, profile) = exec::query_profiled(&db, q).unwrap();
    assert_eq!(profile.access("path"), Some("partition_scan(p)"));
    assert_eq!(before.molecules, after.molecules);
}

#[test]
fn cluster_changes_trace_not_answer() {
    let db = brep::open_db(16 << 20).unwrap();
    brep::populate(&db, &BrepConfig::with_solids(6)).unwrap();
    let q = "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 4";
    let before = exec::query(&db, q).unwrap();
    db.ldl("CREATE ATOM_CLUSTER cl ON brep (faces, edges, points) PAGESIZE 2K").unwrap();
    let (after, profile) = exec::query_profiled(&db, q).unwrap();
    assert_eq!(profile.access("cluster"), Some("cl"));
    assert_eq!(before.molecules, after.molecules);
}

#[test]
fn controlled_redundancy_two_sort_orders() {
    // "e.g. two different sort orders for the same object".
    let db = map::open_db(16 << 20).unwrap();
    map::populate(&db, &MapConfig { sheets: 1, grid: 6, seed: 3 }).unwrap();
    db.ldl(
        "CREATE SORT ORDER so_area ON region (area);
         CREATE SORT ORDER so_no ON region (region_no)",
    )
    .unwrap();
    assert_eq!(sort_order(&db, "so_area").len(), 36);
    assert_eq!(sort_order(&db, "so_no").len(), 36);
    // Each atom now has 2 redundant copies + 1 primary record (the n:m
    // atom↔record mapping of Section 3.2).
    let t = db.schema().type_id("region").unwrap();
    let some = db.access().all_ids(t).unwrap()[0];
    // both copies fresh
    let s1 = db.access().structure("so_area").unwrap().id();
    let s2 = db.access().structure("so_no").unwrap().id();
    assert!(!db.access().deferred_stale(some, s1));
    assert!(!db.access().deferred_stale(some, s2));
}

#[test]
fn structures_maintained_across_inserts_and_deletes() {
    let db = map::open_db(16 << 20).unwrap();
    map::populate(&db, &MapConfig { sheets: 1, grid: 4, seed: 3 }).unwrap();
    db.ldl(
        "CREATE ACCESS PATH ap ON region (region_no);
         CREATE SORT ORDER so ON region (area);
         CREATE PARTITION p ON region (region_no, land_use)",
    )
    .unwrap();
    // New atom appears in every structure.
    let sheet = exec::query(&db, "SELECT ALL FROM sheet WHERE sheet_no = 1").unwrap().molecules[0]
        .root
        .atom
        .id;
    db.insert(
        "region",
        &[
            ("region_no", prima::Value::Int(999)),
            ("land_use", prima::Value::Str("park".into())),
            ("area", prima::Value::Real(7.0)),
            ("sheet", prima::Value::Ref(Some(sheet))),
        ],
    )
    .unwrap();
    let (set, profile) =
        exec::query_profiled(&db, "SELECT ALL FROM region WHERE region_no = 999").unwrap();
    let path = profile.access("path").unwrap();
    assert!(path == "access_path(ap)" || path == "key_lookup(region_no)", "{path}");
    assert_eq!(set.len(), 1);
    assert_eq!(sort_order(&db, "so").len(), 17);
    // Delete removes it everywhere.
    exec::execute(&db, "DELETE FROM region WHERE region_no = 999").unwrap();
    let set = exec::query(&db, "SELECT ALL FROM region WHERE region_no = 999").unwrap();
    assert!(set.is_empty());
    assert_eq!(sort_order(&db, "so").len(), 16);
}

#[test]
fn duplicate_structure_name_rejected() {
    let db = map::open_db(8 << 20).unwrap();
    map::populate(&db, &MapConfig::default()).unwrap();
    db.ldl("CREATE ACCESS PATH dup ON region (region_no)").unwrap();
    assert!(db.ldl("CREATE SORT ORDER dup ON region (area)").is_err());
    assert!(db.ldl("DROP STRUCTURE nonexistent").is_err());
}

#[test]
fn failed_create_leaves_no_structure() {
    let db = prima::Prima::builder()
        .build_with_ddl("CREATE ATOM_TYPE doc (id : IDENTIFIER, n : INTEGER, body : CHAR_VAR)")
        .unwrap();
    db.insert("doc", &[("n", prima::Value::Int(1)), ("body", prima::Value::Str("b".repeat(10)))])
        .unwrap();
    let big = db
        .insert("doc", &[("n", prima::Value::Int(2)), ("body", prima::Value::Str("x".repeat(2000)))])
        .unwrap();
    // A partition uses 1 KiB pages: the 2 000-byte body does not fit.
    assert!(db.ldl("CREATE PARTITION p ON doc (body)").is_err());
    assert!(db.access().structure("p").is_none(), "the failed name stays free");
    // The failed partition was the first structure: id 0.
    for id in db.access().all_ids(big.atom_type).unwrap() {
        assert!(db.access().deferred_stale(id, 0), "no placement left behind");
    }
    db.ldl("CREATE SORT ORDER p ON doc (n)").unwrap();
    assert_eq!(sort_order(&db, "p").len(), 2);
}

#[test]
fn deleting_an_atom_with_a_stale_sort_key_unlinks_its_copy() {
    let db = map::open_db(16 << 20).unwrap();
    let stats = map::populate(&db, &MapConfig { sheets: 1, grid: 3, seed: 3 }).unwrap();
    db.ldl("CREATE SORT ORDER so ON region (area); SET UPDATE POLICY DEFERRED").unwrap();
    let victim = stats.region_ids[0];
    db.modify(victim, &[("area", prima::Value::Real(-1.0))]).unwrap();
    db.delete(victim).unwrap();
    assert_eq!(sort_order(&db, "so").len(), 8, "the copy filed under the old key is gone");
    let t = db.schema().type_id("region").unwrap();
    let scan = Scan::sort(db.access(), t, &[3], Ssa::True, Bound::Unbounded, Bound::Unbounded);
    assert_eq!(scan.unwrap().collect_remaining().unwrap().len(), 8);
}

/// The contents of a structure in a canonical order: equal for a
/// maintained structure and a freshly built twin.
fn contents(db: &prima::Prima, name: &str) -> Vec<String> {
    let mut out = Vec::new();
    match db.access().structure(name).unwrap() {
        Structure::SortOrder(so) => so
            .scan_keys(Bound::Unbounded, Bound::Unbounded, false, |k, id, ptr| {
                out.push(format!("{k:?} {:?}", so.read_copy(ptr).map(|a| (id, a))));
                true
            })
            .unwrap(),
        Structure::BTree(ix) => ix
            .tree
            .scan_range(Bound::Unbounded, Bound::Unbounded, false, |k, ids| {
                let mut ids = ids.to_vec();
                ids.sort_unstable();
                out.push(format!("{k:?} {ids:?}"));
                true
            })
            .unwrap(),
        Structure::Grid(gx) => {
            let window = vec![DimRange::all(); gx.key_attrs.len()];
            let mut entries = gx.grid.read().search(&window).unwrap();
            entries.sort_by(|a, b| (&a.keys, a.id).cmp(&(&b.keys, b.id)));
            out.extend(entries.iter().map(|e| format!("{e:?}")));
        }
        Structure::Partition(p) => {
            p.for_each(|_, atom| {
                out.push(format!("{atom:?}"));
                Ok(())
            })
            .unwrap();
            out.sort();
        }
        Structure::Cluster(ct) => {
            for ch in ct.characteristic_atoms() {
                out.push(format!("{ch:?} {:?}", ct.read_all(ch).unwrap()));
            }
        }
    }
    out
}

#[test]
fn maintained_structures_equal_fresh_ones_under_both_policies() {
    use prima::Value::{Int, Real, Ref, Str};
    let ldl = |suffix: &str| {
        format!(
            "CREATE PARTITION p{suffix} ON region (region_no, land_use);
             CREATE SORT ORDER so{suffix} ON region (area);
             CREATE ACCESS PATH ap{suffix} ON region (region_no);
             CREATE MULTIDIM ACCESS PATH g{suffix} ON node (x, y);
             CREATE ATOM_CLUSTER cl{suffix} ON sheet (regions) PAGESIZE 4K"
        )
    };
    for policy in ["IMMEDIATE", "DEFERRED"] {
        let db = map::open_db(16 << 20).unwrap();
        let s = map::populate(&db, &MapConfig { sheets: 2, grid: 4, seed: 5 }).unwrap();
        db.ldl(&format!("SET UPDATE POLICY {policy}; {}", ldl(""))).unwrap();
        let mut inserted = Vec::new();
        for (i, &sheet) in s.sheet_ids.iter().enumerate() {
            let no = 900 + i as i64;
            let attrs = [
                ("region_no", Int(no)),
                ("land_use", Str("park".into())),
                ("area", Real(no as f64)),
                ("sheet", Ref(Some(sheet))),
            ];
            inserted.push(db.insert("region", &attrs).unwrap());
        }
        // Keys of every kind, a cluster member's values, and the
        // reference that decides cluster membership.
        for (i, &r) in s.region_ids.iter().take(6).enumerate() {
            let attrs = [("area", Real(0.5 * i as f64)), ("land_use", Str(format!("use{i}")))];
            db.modify(r, &attrs).unwrap();
        }
        db.modify(s.region_ids[6], &[("region_no", Int(777))]).unwrap();
        db.modify(s.region_ids[7], &[("sheet", Ref(Some(s.sheet_ids[1])))]).unwrap();
        db.modify(inserted[0], &[("sheet", Ref(Some(s.sheet_ids[1])))]).unwrap();
        for (i, &n) in s.node_ids.iter().take(4).enumerate() {
            db.modify(n, &[("x", Real(-(i as f64))), ("y", Real(1e3 + i as f64))]).unwrap();
        }
        db.delete(inserted[1]).unwrap();
        db.delete(s.region_ids[10]).unwrap();
        db.ldl(&format!("RECONCILE; {}", ldl("_twin"))).unwrap();
        for name in ["p", "so", "ap", "g", "cl"] {
            let maintained = contents(&db, name);
            assert!(!maintained.is_empty(), "{policy}: {name} is empty");
            assert_eq!(maintained, contents(&db, &format!("{name}_twin")), "{policy}: {name}");
        }
    }
}
