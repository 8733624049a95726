//! The three modeling disciplines of Fig. 2.1, built on the same kernel.
//!
//! Fig. 2.1 contrasts how a boundary representation can be modelled:
//!
//! * **hierarchical, redundant** — "there are several independent
//!   representations for every edge and every point. Since the DBMS is
//!   not aware of this redundancy, it must be handled by the application";
//! * **network, non-redundant** — "avoids redundancy, but at the cost of
//!   introducing a number of 'relation records' that represent n:m
//!   relationships";
//! * **direct and symmetric (MAD)** — n:m associations represented
//!   directly, no redundancy, no connector records.
//!
//! [`build`] creates the *same* set of box solids under each discipline;
//! [`ModelingStats`] reports the numbers experiment E-F2.1 tabulates:
//! atom count, stored bytes, and the **update cost** of moving one point
//! (how many atoms must be rewritten — the integrity hazard the paper
//! warns about).

use prima::{Prima, PrimaError, PrimaResult, Value};
use prima_mad::value::AtomId;

/// The modeling discipline under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelingApproach {
    /// Fig. 2.1 left: faces own private copies of edges and points.
    HierarchicalRedundant,
    /// Fig. 2.1 middle: connector ("relation record") atom types.
    NetworkConnectors,
    /// Fig. 2.1 right: MAD's direct n:m associations (the Fig. 2.3
    /// schema).
    MadDirect,
}

impl ModelingApproach {
    pub const ALL: [ModelingApproach; 3] = [
        ModelingApproach::HierarchicalRedundant,
        ModelingApproach::NetworkConnectors,
        ModelingApproach::MadDirect,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ModelingApproach::HierarchicalRedundant => "hierarchical (redundant)",
            ModelingApproach::NetworkConnectors => "network (relation records)",
            ModelingApproach::MadDirect => "MAD (direct, symmetric)",
        }
    }
}

/// Numbers for one discipline (the E-F2.1 table row).
#[derive(Debug, Clone)]
pub struct ModelingStats {
    pub approach: ModelingApproach,
    /// Total atoms stored.
    pub atoms: u64,
    /// Point representations stored for ONE geometric point on average
    /// (redundancy factor).
    pub point_copies: f64,
    /// Atoms rewritten when one geometric point moves.
    pub move_update_cost: usize,
}

/// Hierarchical schema: strict 1:n ownership downward; every face stores
/// its own edges, every edge its own points. No upward references — the
/// model *cannot* answer "which faces touch this point" without a full
/// scan (the asymmetry of Fig. 2.1's left column).
const HIER_DDL: &str = r#"
CREATE ATOM_TYPE hsolid
  ( id : IDENTIFIER, solid_no : INTEGER,
    faces : SET_OF (REF_TO (hface.owner)) )
KEYS_ARE (solid_no);
CREATE ATOM_TYPE hface
  ( id : IDENTIFIER, face_no : INTEGER,
    owner : REF_TO (hsolid.faces),
    edges : SET_OF (REF_TO (hedge.owner)) );
CREATE ATOM_TYPE hedge
  ( id : IDENTIFIER, edge_no : INTEGER,
    owner : REF_TO (hface.edges),
    points : SET_OF (REF_TO (hpoint.owner)) );
CREATE ATOM_TYPE hpoint
  ( id : IDENTIFIER, point_no : INTEGER, x : REAL, y : REAL, z : REAL,
    owner : REF_TO (hedge.points) );
"#;

/// Network schema: entities stored once; n:m relationships through
/// connector atom types (CODASYL-style "relation records").
const NET_DDL: &str = r#"
CREATE ATOM_TYPE nsolid
  ( id : IDENTIFIER, solid_no : INTEGER,
    faces : SET_OF (REF_TO (nface.owner)) )
KEYS_ARE (solid_no);
CREATE ATOM_TYPE nface
  ( id : IDENTIFIER, face_no : INTEGER,
    owner : REF_TO (nsolid.faces),
    fe : SET_OF (REF_TO (face_edge.face)) );
CREATE ATOM_TYPE face_edge
  ( id : IDENTIFIER,
    face : REF_TO (nface.fe),
    edge : REF_TO (nedge.fe) );
CREATE ATOM_TYPE nedge
  ( id : IDENTIFIER, edge_no : INTEGER,
    fe : SET_OF (REF_TO (face_edge.edge)),
    ep : SET_OF (REF_TO (edge_point.edge)) );
CREATE ATOM_TYPE edge_point
  ( id : IDENTIFIER,
    edge : REF_TO (nedge.ep),
    point : REF_TO (npoint.ep) );
CREATE ATOM_TYPE npoint
  ( id : IDENTIFIER, point_no : INTEGER, x : REAL, y : REAL, z : REAL,
    ep : SET_OF (REF_TO (edge_point.point)) );
"#;

/// Hexahedron topology shared by all three builders.
const EDGES: [(usize, usize); 12] = [
    (0, 1),
    (1, 2),
    (2, 3),
    (3, 0),
    (4, 5),
    (5, 6),
    (6, 7),
    (7, 4),
    (0, 4),
    (1, 5),
    (2, 6),
    (3, 7),
];
const FACES: [[usize; 4]; 6] =
    [[0, 1, 2, 3], [4, 5, 6, 7], [0, 9, 4, 8], [2, 10, 6, 11], [1, 10, 5, 9], [3, 11, 7, 8]];

/// Builds `n_solids` boxes under the given approach; returns the database
/// and the stats row.
pub fn build(approach: ModelingApproach, n_solids: usize) -> PrimaResult<(Prima, ModelingStats)> {
    match approach {
        ModelingApproach::HierarchicalRedundant => build_hierarchical(n_solids),
        ModelingApproach::NetworkConnectors => build_network(n_solids),
        ModelingApproach::MadDirect => build_mad(n_solids),
    }
}

fn corner(i: usize, s: usize) -> (f64, f64, f64) {
    let c = [
        (0., 0., 0.),
        (1., 0., 0.),
        (1., 1., 0.),
        (0., 1., 0.),
        (0., 0., 1.),
        (1., 0., 1.),
        (1., 1., 1.),
        (0., 1., 1.),
    ][i];
    (c.0 + s as f64 * 2.0, c.1, c.2)
}

fn build_hierarchical(n: usize) -> PrimaResult<(Prima, ModelingStats)> {
    let db = Prima::builder().build_with_ddl(HIER_DDL)?;
    let mut atoms = 0u64;
    let mut first_point: Option<AtomId> = None;
    let mut point_no = 1i64;
    let mut edge_no = 1i64;
    let mut face_no = 1i64;
    for s in 0..n {
        let solid = db.insert("hsolid", &[("solid_no", Value::Int(s as i64 + 1))])?;
        atoms += 1;
        for f in FACES {
            let face = db.insert(
                "hface",
                &[("face_no", Value::Int(face_no)), ("owner", Value::Ref(Some(solid)))],
            )?;
            face_no += 1;
            atoms += 1;
            for &e in &f {
                let (a, b) = EDGES[e];
                let edge = db.insert(
                    "hedge",
                    &[("edge_no", Value::Int(edge_no)), ("owner", Value::Ref(Some(face)))],
                )?;
                edge_no += 1;
                atoms += 1;
                for v in [a, b] {
                    let (x, y, z) = corner(v, s);
                    let p = db.insert(
                        "hpoint",
                        &[
                            ("point_no", Value::Int(point_no)),
                            ("x", Value::Real(x)),
                            ("y", Value::Real(y)),
                            ("z", Value::Real(z)),
                            ("owner", Value::Ref(Some(edge))),
                        ],
                    )?;
                    point_no += 1;
                    atoms += 1;
                    // Remember every copy of geometric corner 0 of solid 0.
                    if s == 0 && v == 0 && first_point.is_none() {
                        first_point = Some(p);
                    }
                }
            }
        }
    }
    // Moving one geometric point requires rewriting EVERY copy: corner 0
    // participates in 3 faces × 2 edges each... in this ownership tree a
    // vertex appears once per (face, edge) incidence: count the copies by
    // value.
    let copies = count_matching_points(&db, "hpoint", 0.0, 0.0, 0.0)?;
    let move_cost = copies.len();
    for id in &copies {
        db.modify(*id, &[("x", Value::Real(0.5))])?;
    }
    // points stored per geometric point: each solid has 8 distinct
    // corners but 24 hpoint atoms per... compute: total hpoints /
    // (8 * n).
    let total_points = db.access().atom_count(db.schema().type_id("hpoint").unwrap())?;
    let stats = ModelingStats {
        approach: ModelingApproach::HierarchicalRedundant,
        atoms,
        point_copies: total_points as f64 / (8.0 * n as f64),
        move_update_cost: move_cost,
    };
    Ok((db, stats))
}

fn count_matching_points(db: &Prima, ty: &str, x: f64, y: f64, z: f64) -> PrimaResult<Vec<AtomId>> {
    let t = db
        .schema()
        .type_id(ty)
        .ok_or_else(|| PrimaError::UnknownComponent(ty.to_string()))?;
    let at = db.schema().atom_type(t).unwrap().clone();
    let xi = at.attribute_index("x").unwrap();
    let yi = at.attribute_index("y").unwrap();
    let zi = at.attribute_index("z").unwrap();
    let mut out = Vec::new();
    for id in db.access().all_ids(t)? {
        let a = db.read(id)?;
        if a.values[xi].sem_eq(&Value::Real(x))
            && a.values[yi].sem_eq(&Value::Real(y))
            && a.values[zi].sem_eq(&Value::Real(z))
        {
            out.push(id);
        }
    }
    Ok(out)
}

fn build_network(n: usize) -> PrimaResult<(Prima, ModelingStats)> {
    let db = Prima::builder().build_with_ddl(NET_DDL)?;
    let mut atoms = 0u64;
    let mut point_no = 1i64;
    let mut edge_no = 1i64;
    let mut face_no = 1i64;
    let mut first_point = None;
    for s in 0..n {
        let solid = db.insert("nsolid", &[("solid_no", Value::Int(s as i64 + 1))])?;
        atoms += 1;
        // Entities once.
        let mut points = Vec::new();
        for v in 0..8 {
            let (x, y, z) = corner(v, s);
            let p = db.insert(
                "npoint",
                &[
                    ("point_no", Value::Int(point_no)),
                    ("x", Value::Real(x)),
                    ("y", Value::Real(y)),
                    ("z", Value::Real(z)),
                ],
            )?;
            point_no += 1;
            atoms += 1;
            points.push(p);
            if s == 0 && v == 0 {
                first_point = Some(p);
            }
        }
        let mut edges = Vec::new();
        for (a, b) in EDGES {
            let e = db.insert("nedge", &[("edge_no", Value::Int(edge_no))])?;
            edge_no += 1;
            atoms += 1;
            edges.push(e);
            // Connector records edge→point.
            for v in [a, b] {
                db.insert(
                    "edge_point",
                    &[("edge", Value::Ref(Some(e))), ("point", Value::Ref(Some(points[v])))],
                )?;
                atoms += 1;
            }
        }
        for f in FACES {
            let face = db.insert(
                "nface",
                &[("face_no", Value::Int(face_no)), ("owner", Value::Ref(Some(solid)))],
            )?;
            face_no += 1;
            atoms += 1;
            for &e in &f {
                db.insert(
                    "face_edge",
                    &[("face", Value::Ref(Some(face))), ("edge", Value::Ref(Some(edges[e])))],
                )?;
                atoms += 1;
            }
        }
    }
    // Moving a point touches exactly one atom.
    db.modify(first_point.expect("built at least one solid"), &[("x", Value::Real(0.5))])?;
    let stats = ModelingStats {
        approach: ModelingApproach::NetworkConnectors,
        atoms,
        point_copies: 1.0,
        move_update_cost: 1,
    };
    Ok((db, stats))
}

fn build_mad(n: usize) -> PrimaResult<(Prima, ModelingStats)> {
    let db = crate::brep::open_db(8 << 20)?;
    let stats = crate::brep::populate(&db, &crate::brep::BrepConfig::with_solids(n))?;
    let mut atoms = 0u64;
    for ty in ["solid", "brep", "face", "edge", "point"] {
        atoms += db.access().atom_count(db.schema().type_id(ty).unwrap())?;
    }
    // Moving a point touches exactly one atom (its placement record).
    let point_t = db.schema().type_id("point").unwrap();
    let some_point = db.access().all_ids(point_t)?[0];
    db.modify(
        some_point,
        &[(
            "placement",
            Value::Record(vec![
                ("x_coord".into(), Value::Real(0.5)),
                ("y_coord".into(), Value::Real(0.0)),
                ("z_coord".into(), Value::Real(0.0)),
            ]),
        )],
    )?;
    let _ = stats;
    Ok((
        db,
        ModelingStats {
            approach: ModelingApproach::MadDirect,
            atoms,
            point_copies: 1.0,
            move_update_cost: 1,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redundancy_factors_match_fig_2_1() {
        let (_db_h, h) = build(ModelingApproach::HierarchicalRedundant, 2).unwrap();
        let (_db_n, n) = build(ModelingApproach::NetworkConnectors, 2).unwrap();
        let (_db_m, m) = build(ModelingApproach::MadDirect, 2).unwrap();
        // Hierarchical stores every point once per (edge,face) incidence:
        // 6 faces × 4 edges × 2 points = 48 hpoints per solid -> factor 6.
        assert!(h.point_copies > 5.0, "hierarchical redundancy factor {}", h.point_copies);
        assert_eq!(n.point_copies, 1.0);
        assert_eq!(m.point_copies, 1.0);
        // Update cost: hierarchical must touch every copy of the corner.
        assert!(h.move_update_cost >= 3, "hierarchical move cost {}", h.move_update_cost);
        assert_eq!(n.move_update_cost, 1);
        assert_eq!(m.move_update_cost, 1);
        // Network pays connector atoms: more atoms than MAD for the same
        // data.
        assert!(n.atoms > m.atoms, "network {} vs MAD {}", n.atoms, m.atoms);
    }

    #[test]
    fn hierarchical_cannot_answer_symmetric_query_directly() {
        let (db, _) = build(ModelingApproach::HierarchicalRedundant, 1).unwrap();
        // point -> faces requires traversing upward; the hierarchical
        // schema has only owner links point->edge->face, so the MAD query
        // still works — but each point belongs to exactly ONE edge copy,
        // demonstrating the lost n:m semantics.
        let set = crate::exec::query(&db, "SELECT ALL FROM hpoint-hedge WHERE point_no = 1").unwrap();
        assert_eq!(set.atoms_of("hedge").len(), 1, "a copy knows only its owner");
        // In the MAD model the same question returns all incident edges.
        let (mdb, _) = build(ModelingApproach::MadDirect, 1).unwrap();
        let set = crate::exec::query(&mdb, "SELECT ALL FROM point-edge WHERE point_id <> EMPTY").unwrap();
        let some = set
            .molecules
            .iter()
            .map(|m| m.children(&m.root).len())
            .max()
            .unwrap_or(0);
        assert_eq!(some, 3, "a box corner joins three edges");
    }
}
