//! BREP solid-modeling workload (Fig. 2.1 / Fig. 2.3 of the paper).
//!
//! Generates a database over the *verbatim* Fig. 2.3 schema: solids with
//! an assembly hierarchy (`sub`/`super`, recursive n:m), each solid
//! optionally carrying a boundary representation (brep → faces → edges →
//! points with full symmetric associations). Geometry is a hexahedron
//! (box): 6 faces, 12 edges, 8 points per brep — Euler-consistent
//! (V − E + F = 2).

use prima::{Prima, PrimaResult, Value};
use prima_mad::ddl::FIG_2_3_DDL;
use prima_mad::value::AtomId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct BrepConfig {
    /// Number of *base* solids with boundary representations.
    pub solids: usize,
    /// Assembly hierarchy depth (0 = no hierarchy). Composite solids are
    /// created on top of base solids.
    pub assembly_depth: usize,
    /// Children per composite solid.
    pub assembly_fanout: usize,
    /// RNG seed (generation is deterministic given the config).
    pub seed: u64,
}

impl Default for BrepConfig {
    fn default() -> Self {
        BrepConfig { solids: 10, assembly_depth: 0, assembly_fanout: 2, seed: 42 }
    }
}

impl BrepConfig {
    pub fn with_solids(n: usize) -> Self {
        BrepConfig { solids: n, ..Default::default() }
    }

    pub fn with_assembly(n: usize, depth: usize, fanout: usize) -> Self {
        BrepConfig { solids: n, assembly_depth: depth, assembly_fanout: fanout, seed: 42 }
    }
}

/// What the generator produced.
#[derive(Debug, Clone, Default)]
pub struct BrepStats {
    pub solid_ids: Vec<AtomId>,
    pub brep_ids: Vec<AtomId>,
    /// solid_no of each base solid (brep_no equals it).
    pub base_solid_nos: Vec<i64>,
    /// solid_no of the assembly roots (empty without hierarchy).
    pub root_solid_nos: Vec<i64>,
    pub faces: usize,
    pub edges: usize,
    pub points: usize,
}

/// The schema used (Fig. 2.3, verbatim).
pub fn schema_ddl() -> &'static str {
    FIG_2_3_DDL
}

/// Builds a PRIMA instance with the Fig. 2.3 schema.
pub fn open_db(buffer_bytes: usize) -> PrimaResult<Prima> {
    Prima::builder().buffer_bytes(buffer_bytes).build_with_ddl(FIG_2_3_DDL)
}

/// Populates `db` with the configured workload.
pub fn populate(db: &Prima, cfg: &BrepConfig) -> PrimaResult<BrepStats> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut stats = BrepStats::default();
    let mut next_no: i64 = 1;
    // Base solids with boxes.
    for _ in 0..cfg.solids {
        let no = next_no;
        next_no += 1;
        let solid = db.insert(
            "solid",
            &[
                ("solid_no", Value::Int(no)),
                ("description", Value::Str(format!("base solid {no}"))),
            ],
        )?;
        let brep = insert_box(db, solid, no, &mut rng)?;
        stats.solid_ids.push(solid);
        stats.brep_ids.push(brep);
        stats.base_solid_nos.push(no);
        stats.faces += 6;
        stats.edges += 12;
        stats.points += 8;
    }
    // Assembly hierarchy: level by level, composites reference previously
    // created solids via sub/super ("solids are 'constructed' using
    // previously defined solids").
    let mut current_level: Vec<AtomId> = stats.solid_ids.clone();
    for _depth in 0..cfg.assembly_depth {
        if current_level.len() <= 1 {
            break;
        }
        let mut next_level = Vec::new();
        for chunk in current_level.chunks(cfg.assembly_fanout.max(1)) {
            let no = next_no;
            next_no += 1;
            let composite = db.insert(
                "solid",
                &[
                    ("solid_no", Value::Int(no)),
                    ("description", Value::Str(format!("assembly {no}"))),
                    ("sub", Value::ref_set(chunk.to_vec())),
                ],
            )?;
            stats.solid_ids.push(composite);
            next_level.push(composite);
        }
        current_level = next_level;
    }
    stats.root_solid_nos = if cfg.assembly_depth > 0 {
        // Roots are the last level created.
        let set: Vec<i64> = current_level
            .iter()
            .map(|id| {
                let a = db.read(*id).expect("exists");
                a.values[1].as_int().expect("solid_no set")
            })
            .collect();
        set
    } else {
        Vec::new()
    };
    Ok(stats)
}

/// Inserts one hexahedral boundary representation for `solid` and wires
/// every association of the Fig. 2.3 schema symmetrically.
/// Returns the brep's id.
pub fn insert_box(
    db: &Prima,
    solid: AtomId,
    brep_no: i64,
    rng: &mut SmallRng,
) -> PrimaResult<AtomId> {
    // Box corner coordinates with a random origin and extents.
    let ox: f64 = rng.gen_range(-100.0..100.0);
    let oy: f64 = rng.gen_range(-100.0..100.0);
    let oz: f64 = rng.gen_range(-100.0..100.0);
    let dx: f64 = rng.gen_range(1.0..10.0);
    let dy: f64 = rng.gen_range(1.0..10.0);
    let dz: f64 = rng.gen_range(1.0..10.0);

    let brep = db.insert(
        "brep",
        &[
            ("brep_no", Value::Int(brep_no)),
            (
                "hull",
                Value::Array(vec![Value::Real(dx), Value::Real(dy), Value::Real(dz)]),
            ),
            ("solid", Value::Ref(Some(solid))),
        ],
    )?;

    // 8 vertices of the box.
    let corners = [
        (0., 0., 0.),
        (1., 0., 0.),
        (1., 1., 0.),
        (0., 1., 0.),
        (0., 0., 1.),
        (1., 0., 1.),
        (1., 1., 1.),
        (0., 1., 1.),
    ];
    let mut points = Vec::with_capacity(8);
    for (cx, cy, cz) in corners {
        let p = db.insert(
            "point",
            &[
                (
                    "placement",
                    Value::Record(vec![
                        ("x_coord".into(), Value::Real(ox + cx * dx)),
                        ("y_coord".into(), Value::Real(oy + cy * dy)),
                        ("z_coord".into(), Value::Real(oz + cz * dz)),
                    ]),
                ),
                ("brep", Value::Ref(Some(brep))),
            ],
        )?;
        points.push(p);
    }

    // 12 edges (vertex index pairs of a hexahedron).
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
    let corner = |i: usize| -> (f64, f64, f64) {
        let (cx, cy, cz) = corners[i];
        (ox + cx * dx, oy + cy * dy, oz + cz * dz)
    };
    let mut edges = Vec::with_capacity(12);
    for (a, b) in EDGES {
        let (x1, y1, z1) = corner(a);
        let (x2, y2, z2) = corner(b);
        let length = ((x2 - x1).powi(2) + (y2 - y1).powi(2) + (z2 - z1).powi(2)).sqrt();
        let e = db.insert(
            "edge",
            &[
                ("length", Value::Real(length)),
                ("boundary", Value::ref_set(vec![points[a], points[b]])),
                ("brep", Value::Ref(Some(brep))),
            ],
        )?;
        edges.push(e);
    }

    // 6 faces (edge index quadruples and their corner points).
    const FACES: [([usize; 4], [usize; 4]); 6] = [
        ([0, 1, 2, 3], [0, 1, 2, 3]),     // bottom
        ([4, 5, 6, 7], [4, 5, 6, 7]),     // top
        ([0, 9, 4, 8], [0, 1, 5, 4]),     // front
        ([2, 10, 6, 11], [2, 3, 7, 6]),   // back
        ([1, 10, 5, 9], [1, 2, 6, 5]),    // right
        ([3, 11, 7, 8], [3, 0, 4, 7]),    // left
    ];
    for (i, (edge_idx, point_idx)) in FACES.iter().enumerate() {
        let area = match i {
            0 | 1 => dx * dy,
            2 | 3 => dx * dz,
            _ => dy * dz,
        };
        db.insert(
            "face",
            &[
                ("square_dim", Value::Real(area)),
                ("border", Value::ref_set(edge_idx.iter().map(|&e| edges[e]).collect())),
                (
                    "crosspoint",
                    Value::ref_set(point_idx.iter().map(|&p| points[p]).collect()),
                ),
                ("brep", Value::Ref(Some(brep))),
            ],
        )?;
    }
    Ok(brep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populate_builds_consistent_boxes() {
        let db = open_db(8 << 20).unwrap();
        let stats = populate(&db, &BrepConfig::with_solids(3)).unwrap();
        assert_eq!(stats.solid_ids.len(), 3);
        assert_eq!(stats.faces, 18);
        assert_eq!(stats.edges, 36);
        assert_eq!(stats.points, 24);
        // Back-references materialised: brep sees its 6 faces.
        let brep = db.read(stats.brep_ids[0]).unwrap();
        let schema = db.schema();
        let bt = schema.type_by_name("brep").unwrap();
        let faces = &brep.values[bt.attribute_index("faces").unwrap()];
        assert_eq!(faces.ref_ids().len(), 6);
        assert_eq!(
            brep.values[bt.attribute_index("edges").unwrap()].ref_ids().len(),
            12
        );
        assert_eq!(
            brep.values[bt.attribute_index("points").unwrap()].ref_ids().len(),
            8
        );
    }

    #[test]
    fn vertical_access_retrieves_whole_molecule() {
        let db = open_db(8 << 20).unwrap();
        populate(&db, &BrepConfig::with_solids(2)).unwrap();
        let set = crate::exec::query(&db, "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1")
            .unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.atoms_of("face").len(), 6);
        // Each face lists 4 border edges; edges shared between faces
        // appear under each (24 edge slots, 12 distinct edges).
        assert_eq!(set.atoms_of("edge").len(), 24);
    }

    #[test]
    fn assembly_hierarchy_is_recursive() {
        let db = open_db(8 << 20).unwrap();
        let stats = populate(&db, &BrepConfig::with_assembly(4, 2, 2)).unwrap();
        assert_eq!(stats.root_solid_nos.len(), 1);
        let root_no = stats.root_solid_nos[0];
        let set = crate::exec::query(&db, &format!(
                "SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = {root_no}"
            ))
            .unwrap();
        assert_eq!(set.len(), 1);
        // Root + 2 mid assemblies + 4 base solids.
        assert_eq!(set.molecules[0].atom_count(), 7);
        assert_eq!(set.molecules[0].depth(), 2);
    }

    #[test]
    fn determinism() {
        let db1 = open_db(4 << 20).unwrap();
        let db2 = open_db(4 << 20).unwrap();
        let s1 = populate(&db1, &BrepConfig::default()).unwrap();
        let s2 = populate(&db2, &BrepConfig::default()).unwrap();
        assert_eq!(s1.base_solid_nos, s2.base_solid_nos);
        let a1 = db1.read(s1.brep_ids[0]).unwrap();
        let a2 = db2.read(s2.brep_ids[0]).unwrap();
        assert_eq!(a1.values, a2.values);
    }
}
