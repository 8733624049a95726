//! E-F2.1: the three modeling approaches of Fig. 2.1 on the same data —
//! redundancy, update cost and (a)symmetry behave as the paper describes.

use prima_workloads::modeling::{build, ModelingApproach};
use prima_workloads::exec;

#[test]
fn hierarchical_modeling_is_redundant() {
    let (_db, stats) = build(ModelingApproach::HierarchicalRedundant, 3).unwrap();
    // Every point is stored once per (face, edge) incidence: factor 6 for
    // a box (3 faces × 2 edges share each corner).
    assert!(stats.point_copies >= 5.9, "factor {}", stats.point_copies);
    assert!(stats.move_update_cost >= 6, "moving a corner touches every copy");
}

#[test]
fn network_modeling_avoids_redundancy_but_pays_connectors() {
    let (db, stats) = build(ModelingApproach::NetworkConnectors, 3).unwrap();
    assert_eq!(stats.point_copies, 1.0);
    assert_eq!(stats.move_update_cost, 1);
    // Connector records: 24 edge_point + 24 face_edge per solid.
    let s = db.schema();
    let fe = db.access().atom_count(s.type_id("face_edge").unwrap()).unwrap();
    let ep = db.access().atom_count(s.type_id("edge_point").unwrap()).unwrap();
    assert_eq!(fe, 3 * 24);
    assert_eq!(ep, 3 * 24);
}

#[test]
fn mad_modeling_is_non_redundant_and_connector_free() {
    let (_db, stats) = build(ModelingApproach::MadDirect, 3).unwrap();
    assert_eq!(stats.point_copies, 1.0);
    assert_eq!(stats.move_update_cost, 1);
    // 3 solids: 3 + 3 breps + 18 faces + 36 edges + 24 points.
    assert_eq!(stats.atoms, 3 + 3 + 18 + 36 + 24);
}

#[test]
fn atom_count_ordering_matches_fig_2_1() {
    let (_h_db, h) = build(ModelingApproach::HierarchicalRedundant, 2).unwrap();
    let (_n_db, n) = build(ModelingApproach::NetworkConnectors, 2).unwrap();
    let (_m_db, m) = build(ModelingApproach::MadDirect, 2).unwrap();
    assert!(h.atoms > n.atoms, "redundant copies outweigh connectors: {} vs {}", h.atoms, n.atoms);
    assert!(n.atoms > m.atoms, "connectors outweigh direct n:m: {} vs {}", n.atoms, m.atoms);
}

#[test]
fn only_mad_answers_the_symmetric_query() {
    // "looking from points to all corresponding edges and faces is not
    // possible in the hierarchical example".
    let (mdb, _) = build(ModelingApproach::MadDirect, 1).unwrap();
    let set = exec::query(&mdb, "SELECT ALL FROM point-edge WHERE point_id <> EMPTY").unwrap();
    assert_eq!(set.len(), 8);
    assert!(set.molecules.iter().all(|m| m.children(&m.root).len() == 3));

    let (hdb, _) = build(ModelingApproach::HierarchicalRedundant, 1).unwrap();
    let set = exec::query(&hdb, "SELECT ALL FROM hpoint-hedge WHERE point_no = 1").unwrap();
    // The copy sees only its owning edge.
    assert_eq!(set.molecules[0].children(&set.molecules[0].root).len(), 1);
}

#[test]
fn same_geometry_same_query_answers() {
    // The network and MAD models must agree on topology queries (the
    // hierarchical one cannot even express them symmetrically).
    let (ndb, _) = build(ModelingApproach::NetworkConnectors, 2).unwrap();
    let (mdb, _) = build(ModelingApproach::MadDirect, 2).unwrap();
    // Edges per solid's brep: network via nedge count, MAD via edge count.
    let n_edges = ndb.access().atom_count(ndb.schema().type_id("nedge").unwrap()).unwrap();
    let m_edges = mdb.access().atom_count(mdb.schema().type_id("edge").unwrap()).unwrap();
    assert_eq!(n_edges, m_edges);
}
