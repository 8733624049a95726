//! Cross-crate scan behaviour at the access-system interface: the five
//! scans of Section 3.2 driven through a populated kernel, including
//! position keeping under NEXT/PRIOR and multi-dimensional selection
//! paths.

use prima::{Structure, Value};
use prima_access::multidim::DimRange;
use prima_access::scan::Scan;
use prima_access::{CmpOp, Ssa};
use prima_workloads::map::{self, MapConfig};
use std::ops::Bound;

fn db() -> prima::Prima {
    let db = map::open_db(32 << 20).unwrap();
    map::populate(&db, &MapConfig { sheets: 1, grid: 6, seed: 21 }).unwrap();
    db
}

#[test]
fn atom_type_scan_with_ssa_and_position() {
    let db = db();
    let t = db.schema().type_id("region").unwrap();
    let ssa = Ssa::Cmp { attr: 2, op: CmpOp::Eq, value: Value::Str("water".into()) };
    let mut scan = Scan::atom_type(db.access(), t, ssa).unwrap();
    let first = scan.next().unwrap().unwrap();
    let second = scan.next().unwrap().unwrap();
    assert_ne!(first.id, second.id);
    assert_eq!(scan.prior().unwrap().unwrap().id, first.id);
    let again = scan.next().unwrap().unwrap();
    assert_eq!(again.id, second.id);
    let rest = scan.collect_remaining().unwrap();
    // 36 regions; land_use cycles by (i+j) % 4 -> 10 water cells in a 6x6
    // grid; 2 already consumed.
    assert_eq!(rest.len() + 2, 10);
}

#[test]
fn sort_scan_strategies_agree() {
    let db = db();
    let t = db.schema().type_id("node").unwrap();
    let at = db.schema().atom_type(t).unwrap();
    let x = at.attribute_index("x").unwrap();
    let collect = |db: &prima::Prima| -> Vec<i64> {
        let mut s = Scan::sort(
            db.access(),
            t,
            &[x],
            Ssa::True,
            Bound::Unbounded,
            Bound::Unbounded,
        )
        .unwrap();
        s.collect_remaining()
            .unwrap()
            .iter()
            .map(|a| a.values[1].as_int().unwrap())
            .collect()
    };
    let explicit = collect(&db);
    db.ldl("CREATE ACCESS PATH apx ON node (x)").unwrap();
    let via_path = collect(&db);
    db.ldl("CREATE SORT ORDER sox ON node (x)").unwrap();
    let via_order = collect(&db);
    assert_eq!(explicit, via_path, "access path delivers the same order");
    assert_eq!(explicit, via_order, "sort order delivers the same order");
}

#[test]
fn access_path_scan_start_stop_directions() {
    let db = db();
    db.ldl("CREATE ACCESS PATH ap_no ON border (border_no)").unwrap();
    let Some(Structure::BTree(ix)) = db.access().structure("ap_no") else { panic!("no B*-tree") };
    let mut fwd = Scan::access_path(
        db.access(),
        &ix,
        Ssa::True,
        Bound::Included(vec![Value::Int(10)]),
        Bound::Included(vec![Value::Int(20)]),
        false,
    )
    .unwrap();
    let nos: Vec<i64> = fwd
        .collect_remaining()
        .unwrap()
        .iter()
        .map(|a| a.values[1].as_int().unwrap())
        .collect();
    assert_eq!(nos, (10..=20).collect::<Vec<_>>());
    let mut bwd = Scan::access_path(
        db.access(),
        &ix,
        Ssa::True,
        Bound::Included(vec![Value::Int(10)]),
        Bound::Included(vec![Value::Int(20)]),
        true,
    )
    .unwrap();
    let rev: Vec<i64> = bwd
        .collect_remaining()
        .unwrap()
        .iter()
        .map(|a| a.values[1].as_int().unwrap())
        .collect();
    assert_eq!(rev, (10..=20).rev().collect::<Vec<_>>());
}

#[test]
fn multidim_scan_selection_path() {
    let db = db();
    db.ldl("CREATE MULTIDIM ACCESS PATH g_xy ON node (x, y)").unwrap();
    let Some(Structure::Grid(gx)) = db.access().structure("g_xy") else { panic!("no grid") };
    let key = |v: f64| {
        let mut k = Vec::new();
        prima_mad::codec::encode_key(&Value::Real(v), &mut k);
        k
    };
    // x below 25 (jitter can push column 0 slightly negative), y
    // unrestricted descending.
    let ranges = vec![
        DimRange { start: Bound::Included(key(-1.0)), stop: Bound::Excluded(key(25.0)), descending: false },
        DimRange::all().descending(),
    ];
    let mut scan = Scan::multidim(db.access(), &gx, Ssa::True, &ranges).unwrap();
    let atoms = scan.collect_remaining().unwrap();
    // Nodes at grid x ∈ {0,10,20} (±0.4 jitter): 3 columns × 7 rows.
    assert_eq!(atoms.len(), 21);
    let t = db.schema().type_id("node").unwrap();
    let at = db.schema().atom_type(t).unwrap();
    let xi = at.attribute_index("x").unwrap();
    for a in &atoms {
        let x = a.values[xi].as_real().unwrap();
        assert!((-1.0..25.0).contains(&x));
    }
}

#[test]
fn cluster_scans_cover_vertical_access() {
    let db = db();
    db.ldl("CREATE ATOM_CLUSTER cl_sheet ON sheet (regions) PAGESIZE 1K").unwrap();
    let Some(Structure::Cluster(ct)) = db.access().structure("cl_sheet") else { panic!("no cluster") };
    // Atom-cluster-type scan: characteristic atoms in system order.
    let mut scan = Scan::cluster_type(db.access(), ct.clone(), Ssa::True).unwrap();
    let mut chars = 0;
    let mut members_total = 0;
    while let Some(_ch) = scan.next().unwrap() {
        chars += 1;
        members_total += scan.current_cluster_atoms().unwrap().len();
    }
    assert_eq!(chars, 1);
    assert_eq!(members_total, 36, "all regions of the sheet");
    // Atom-cluster scan: one type within one cluster with an SSA.
    let ch = ct.characteristic_atoms()[0];
    let region_t = db.schema().type_id("region").unwrap();
    let ssa = Ssa::Cmp { attr: 2, op: CmpOp::Eq, value: Value::Str("urban".into()) };
    let mut cscan = Scan::cluster(db.access(), &ct, ch, region_t, ssa).unwrap();
    let urban = cscan.collect_remaining().unwrap();
    assert_eq!(urban.len(), 9);
}

#[test]
fn scans_see_projections() {
    let db = db();
    let t = db.schema().type_id("region").unwrap();
    let mut scan = Scan::atom_type(db.access(), t, Ssa::True).unwrap().project(vec![0, 1]);
    let a = scan.next().unwrap().unwrap();
    assert!(matches!(a.values[1], Value::Int(_)), "region_no selected");
    assert!(matches!(a.values[2], Value::Null), "land_use projected away");
}

/// Every scan kind keeps the position rules of `scan/mod.rs`: PRIOR on a
/// fresh scan starts from the end; NEXT past the end stands after the
/// last row, so PRIOR returns the last atom; PRIOR past the start stands
/// before the first, so NEXT returns the first; an exhausted scan stays
/// exhausted in that direction; an empty set delivers nothing either way.
#[test]
fn every_scan_kind_keeps_the_position_rules() {
    let db = map::open_db(32 << 20).unwrap();
    map::populate(&db, &MapConfig { sheets: 2, grid: 4, seed: 21 }).unwrap();
    db.ldl(
        "CREATE PARTITION p_land ON region (region_no, land_use); \
         CREATE SORT ORDER sox ON node (x); \
         CREATE ACCESS PATH ap_no ON border (border_no); \
         CREATE MULTIDIM ACCESS PATH g_xy ON node (x, y); \
         CREATE ATOM_CLUSTER cl_sheet ON sheet (regions) PAGESIZE 1K",
    )
    .unwrap();
    let sys = db.access();
    let region = db.schema().type_id("region").unwrap();
    let node = db.schema().type_id("node").unwrap();
    let x = db.schema().atom_type(node).unwrap().attribute_index("x").unwrap();
    let Some(Structure::Partition(part)) = sys.structure("p_land") else { panic!("no partition") };
    let Some(Structure::BTree(ix)) = sys.structure("ap_no") else { panic!("no B*-tree") };
    let Some(Structure::Grid(gx)) = sys.structure("g_xy") else { panic!("no grid") };
    let Some(Structure::Cluster(ct)) = sys.structure("cl_sheet") else { panic!("no cluster") };
    let ch = ct.characteristic_atoms()[0];
    type Open<'a> = Box<dyn Fn(Ssa) -> Scan<'a> + 'a>;
    let kinds: Vec<(&str, Open)> = vec![
        ("atom_type", Box::new(|ssa| Scan::atom_type(sys, region, ssa).unwrap())),
        ("partition", Box::new(|ssa| Scan::partition(sys, part.clone(), ssa).unwrap())),
        (
            "sort",
            Box::new(|ssa| {
                Scan::sort(sys, node, &[x], ssa, Bound::Unbounded, Bound::Unbounded).unwrap()
            }),
        ),
        (
            "access_path",
            Box::new(|ssa| {
                Scan::access_path(sys, &ix, ssa, Bound::Unbounded, Bound::Unbounded, false).unwrap()
            }),
        ),
        (
            "multidim",
            Box::new(|ssa| {
                Scan::multidim(sys, &gx, ssa, &[DimRange::all(), DimRange::all()]).unwrap()
            }),
        ),
        ("cluster_type", Box::new(|ssa| Scan::cluster_type(sys, ct.clone(), ssa).unwrap())),
        ("cluster", Box::new(|ssa| Scan::cluster(sys, &ct, ch, region, ssa).unwrap())),
    ];
    let id = |a: Option<prima::Atom>| a.map(|a| a.id);
    for (kind, open) in &kinds {
        let all: Vec<_> = open(Ssa::True).collect_remaining().unwrap().iter().map(|a| a.id).collect();
        assert!(all.len() >= 2, "{kind}: {} atoms", all.len());
        let (first, last) = (Some(all[0]), Some(all[all.len() - 1]));

        // PRIOR on a fresh scan walks the set backward from the end.
        let mut scan = open(Ssa::True);
        let mut rev = Vec::new();
        while let Some(a) = scan.prior().unwrap() {
            rev.push(a.id);
        }
        rev.reverse();
        assert_eq!(rev, all, "{kind}: PRIOR from open");
        assert_eq!(id(scan.prior().unwrap()), None, "{kind}: exhausted backward stays so");
        assert_eq!(id(scan.next().unwrap()), first, "{kind}: NEXT from before the first");

        // NEXT past the end stands after the last row.
        let mut scan = open(Ssa::True);
        assert_eq!(scan.collect_remaining().unwrap().len(), all.len(), "{kind}");
        assert_eq!(id(scan.next().unwrap()), None, "{kind}: exhausted forward stays so");
        assert_eq!(id(scan.prior().unwrap()), last, "{kind}: PRIOR after the end");
        assert_eq!(id(scan.prior().unwrap()), Some(all[all.len() - 2]), "{kind}");
        assert_eq!(id(scan.next().unwrap()), last, "{kind}");

        // PRIOR past the start stands before the first row.
        let mut scan = open(Ssa::True);
        assert_eq!(id(scan.next().unwrap()), first, "{kind}");
        assert_eq!(id(scan.prior().unwrap()), None, "{kind}: PRIOR before the first");
        assert_eq!(id(scan.prior().unwrap()), None, "{kind}");
        assert_eq!(id(scan.next().unwrap()), first, "{kind}: NEXT after PRIOR past the start");

        // An empty set.
        let mut scan = open(Ssa::Not(Box::new(Ssa::True)));
        assert_eq!(id(scan.next().unwrap()), None, "{kind}: empty NEXT");
        assert_eq!(id(scan.prior().unwrap()), None, "{kind}: empty PRIOR");
        assert_eq!(id(scan.next().unwrap()), None, "{kind}: empty NEXT again");
    }
}
