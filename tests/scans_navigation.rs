//! Cross-crate scan behaviour at the access-system interface: the five
//! scans of Section 3.2 driven through a populated kernel, including
//! position keeping under NEXT/PRIOR and multi-dimensional selection
//! paths.

use prima::{Structure, Value};
use prima_access::multidim::DimRange;
use prima_access::scan::{
    AccessPathScan, AtomClusterScan, AtomClusterTypeScan, AtomTypeScan, MultidimScan, Scan,
    SortScan,
};
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
    let mut scan = AtomTypeScan::open(db.access(), t, ssa, None).unwrap();
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
        let mut s = SortScan::open(
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
    let mut fwd = AccessPathScan::open(
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
    let mut bwd = AccessPathScan::open(
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
    let mut scan = MultidimScan::open(db.access(), &gx, Ssa::True, &ranges).unwrap();
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
    let mut scan = AtomClusterTypeScan::open(db.access(), ct.clone(), Ssa::True).unwrap();
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
    let mut cscan = AtomClusterScan::open(&ct, ch, region_t, ssa).unwrap();
    let urban = cscan.collect_remaining().unwrap();
    assert_eq!(urban.len(), 9);
}

#[test]
fn scans_see_projections() {
    let db = db();
    let t = db.schema().type_id("region").unwrap();
    let mut scan = AtomTypeScan::open(db.access(), t, Ssa::True, Some(vec![0, 1])).unwrap();
    let a = scan.next().unwrap().unwrap();
    assert!(matches!(a.values[1], Value::Int(_)), "region_no selected");
    assert!(matches!(a.values[2], Value::Null), "land_use projected away");
}
