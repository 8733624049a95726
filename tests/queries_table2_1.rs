//! E-T2.1: the four queries of Table 2.1, executed with full semantics
//! against a generated BREP database (Fig. 2.3 schema, verbatim).

use prima_workloads::exec;
use prima::Value;
use prima_workloads::brep::{self, BrepConfig};

fn db_with(n: usize) -> (prima::Prima, prima_workloads::BrepStats) {
    let db = brep::open_db(16 << 20).expect("open");
    let stats = brep::populate(&db, &BrepConfig::with_assembly(n, 2, 2)).expect("populate");
    (db, stats)
}

#[test]
fn t2_1a_vertical_access_network_molecule() {
    let (db, _) = db_with(4);
    let set = exec::query(&db, "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2 (* qualification *)")
        .unwrap();
    assert_eq!(set.len(), 1, "key qualification yields one molecule");
    let m = &set.molecules[0];
    // brep -> 6 faces; each face -> 4 border edges; each edge -> 2 points.
    assert_eq!(set.atoms_of("face").len(), 6);
    assert_eq!(set.atoms_of("edge").len(), 24, "edges shared by two faces appear per lane");
    assert_eq!(set.atoms_of("point").len(), 48);
    assert_eq!(m.atom_count(), 1 + 6 + 24 + 48);
    // Distinct edges/points are the geometric counts (molecule overlap).
    let mut edge_ids: Vec<_> = set.atoms_of("edge").iter().map(|a| a.id).collect();
    edge_ids.sort();
    edge_ids.dedup();
    assert_eq!(edge_ids.len(), 12, "12 distinct edges of a box");
}

#[test]
fn t2_1a_uses_key_lookup() {
    let (db, _) = db_with(2);
    let (_, profile) =
        exec::query_profiled(&db, "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1")
            .unwrap();
    assert_eq!(profile.access("path"), Some("key_lookup(brep_no)"), "brep_no is KEYS_ARE");
}

#[test]
fn t2_1b_recursive_molecule_with_seed() {
    let (db, stats) = db_with(4);
    let root = stats.root_solid_nos[0];
    let set = exec::query(&db, &format!(
            "SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = {root} (* seed *)"
        ))
        .unwrap();
    assert_eq!(set.len(), 1);
    let m = &set.molecules[0];
    // 1 root + 2 subassemblies + 4 base solids.
    assert_eq!(m.atom_count(), 7);
    assert_eq!(m.depth(), 2);
    // Level-wise structure: 1 atom at level 0, 2 at level 1, 4 at level 2.
    let at = |node: usize, level: u32| {
        let mut n = 0;
        m.for_each(|a| n += usize::from(a.node == node && a.level == level));
        n
    };
    let node = m.root.node;
    assert_eq!(at(node, 0), 1);
    let child_node = m.root.children[0].node;
    assert_eq!(at(child_node, 1), 2);
    assert_eq!(at(child_node, 2), 4);
}

#[test]
fn t2_1b_missing_seed_is_rejected() {
    let (db, _) = db_with(2);
    let err = exec::query(&db, "SELECT ALL FROM piece_list").unwrap_err();
    assert!(err.to_string().contains("seed"), "got: {err}");
}

#[test]
fn t2_1c_horizontal_access_with_projection() {
    let (db, stats) = db_with(4);
    let set = exec::query(&db, "SELECT solid_no, description FROM solid WHERE sub = EMPTY")
        .unwrap();
    // Only base solids have no sub-parts.
    assert_eq!(set.len(), stats.base_solid_nos.len());
    for m in &set.molecules {
        // Projected attributes present, others nulled.
        assert!(matches!(m.root.atom.values[1], Value::Int(_)), "solid_no kept");
        assert!(matches!(m.root.atom.values[2], Value::Str(_)), "description kept");
        assert!(m.root.atom.values[3].is_empty_like(), "sub not selected (and empty)");
        assert!(matches!(m.root.atom.values[5], Value::Null | Value::Ref(None)), "brep nulled");
    }
}

#[test]
fn t2_1d_quantifier_and_qualified_projection() {
    let (db, _) = db_with(3);
    // All edges of box 1 are longer than 1.0 (extents start at 1.0), so
    // the quantified restriction holds; faces are filtered by area.
    let set = exec::query(&db, 
            "SELECT edge, (point, face := SELECT face_id, square_dim FROM face WHERE square_dim > 10.0)
             FROM brep-edge (face, point)
             WHERE brep_no = 1 AND EXISTS_AT_LEAST (2) edge: edge.length > 1.0",
        )
        .unwrap();
    assert_eq!(set.len(), 1);
    let face_node = set.node_id("face").unwrap();
    let m = &set.molecules[0];
    // Qualified projection kept only large faces, and projected them.
    for f in m.atoms_of_node(face_node) {
        let sq = f.values[1].as_real().unwrap();
        assert!(sq > 10.0, "face with area {sq} must have been filtered");
        assert!(matches!(f.values[2], Value::Null), "border projected away");
    }
    // The brep root is excluded from the SELECT list: skeleton only.
    assert!(!set.nodes[0].selected);
    assert!(matches!(m.root.atom.values[1], Value::Null), "brep_no not delivered");
}

#[test]
fn t2_1d_quantifier_can_reject() {
    let (db, _) = db_with(2);
    // No edge is longer than 1000: the quantified restriction fails.
    let set = exec::query(&db, 
            "SELECT ALL FROM brep-edge (face, point)
             WHERE brep_no = 1 AND EXISTS_AT_LEAST (2) edge: edge.length > 1000.0",
        )
        .unwrap();
    assert!(set.is_empty());
}

#[test]
fn symmetric_traversal_inverse_direction() {
    // "looking from points to all corresponding edges and faces is not
    // possible in the hierarchical example" — it is in MAD.
    let (db, _) = db_with(1);
    let set = exec::query(&db, "SELECT ALL FROM point-edge-face WHERE point_id <> EMPTY").unwrap();
    assert_eq!(set.len(), 8, "eight corners");
    for m in &set.molecules {
        assert_eq!(m.root.children.len(), 3, "each corner joins 3 edges");
    }
}

#[test]
fn scaling_molecule_sizes() {
    for n in [1usize, 4, 16] {
        let (db, _) = db_with(n);
        let set = exec::query(&db, "SELECT ALL FROM brep-face-edge-point WHERE brep_no > 0").unwrap();
        assert_eq!(set.len(), n);
        assert!(set.molecules.iter().all(|m| m.atom_count() == 79));
    }
}
