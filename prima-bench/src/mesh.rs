//! The `mesh` dataset: the paper's Fig. 2.3 BREP schema, verbatim,
//! populated with hexahedral solids — the element → faces → edges →
//! nodes shape of a finite-element mesh. One size knob (`solids`) and a
//! seed; each solid is 1 solid + 1 brep + 8 points + 12 edges + 6 faces
//! = 28 atoms, and its `brep-face-edge-point` molecule materialises 79
//! atoms because edges and points are shared between faces.
//!
//! The loader goes through `Session::insert_atom_named` in batched
//! transactions. Auto-commit inserts (`prima_workloads::brep::populate`)
//! force the log once per atom, which on a durable kernel costs about
//! 14 ms per solid.

use prima::{AtomId, Prima, PrimaResult, Value};

/// Atoms per solid, and atoms in one `brep-face-edge-point` molecule.
pub const ATOMS_PER_SOLID: usize = 28;
pub const MOLECULE_ATOMS: usize = 1 + 6 + 6 * 4 + 6 * 4 * 2;
pub const POINTS_PER_BREP: usize = 8;

/// Solids loaded per transaction.
const SOLIDS_PER_TXN: usize = 50;

/// splitmix64: the benchmark's only source of randomness, so that key
/// sequences do not change when the repository's `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias at these sizes is
    /// below 2⁻⁴⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Unit-cube corner offsets, in point insertion order.
const CORNERS: [(f64, f64, f64); 8] = [
    (0., 0., 0.),
    (1., 0., 0.),
    (1., 1., 0.),
    (0., 1., 0.),
    (0., 0., 1.),
    (1., 0., 1.),
    (1., 1., 1.),
    (0., 1., 1.),
];
/// Edges as corner pairs, faces as (edge quadruple, corner quadruple).
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
const FACES: [([usize; 4], [usize; 4]); 6] = [
    ([0, 1, 2, 3], [0, 1, 2, 3]),
    ([4, 5, 6, 7], [4, 5, 6, 7]),
    ([0, 9, 4, 8], [0, 1, 5, 4]),
    ([2, 10, 6, 11], [2, 3, 7, 6]),
    ([1, 10, 5, 9], [1, 2, 6, 5]),
    ([3, 11, 7, 8], [3, 0, 4, 7]),
];

/// Origin and extents of solid `no`: a function of (`seed`, `no`) alone,
/// so the durability check can recompute any point without the loader.
fn geometry(seed: u64, no: i64) -> ([f64; 3], [f64; 3]) {
    let mut r = Rng::new(seed, no as u64);
    let origin = [
        r.unit() * 200.0 - 100.0,
        r.unit() * 200.0 - 100.0,
        r.unit() * 200.0 - 100.0,
    ];
    let extent = [
        1.0 + r.unit() * 9.0,
        1.0 + r.unit() * 9.0,
        1.0 + r.unit() * 9.0,
    ];
    (origin, extent)
}

/// The placement the loader gave corner `corner` of solid `no`.
pub fn corner_placement(seed: u64, no: i64, corner: usize) -> [f64; 3] {
    let (o, d) = geometry(seed, no);
    let (cx, cy, cz) = CORNERS[corner];
    [o[0] + cx * d[0], o[1] + cy * d[1], o[2] + cz * d[2]]
}

/// A `placement` record value.
pub fn placement(p: [f64; 3]) -> Value {
    Value::Record(vec![
        ("x_coord".into(), Value::Real(p[0])),
        ("y_coord".into(), Value::Real(p[1])),
        ("z_coord".into(), Value::Real(p[2])),
    ])
}

/// Reads a `placement` record value back.
pub fn placement_of(v: &Value) -> Option<[f64; 3]> {
    let Value::Record(fields) = v else {
        return None;
    };
    match fields.as_slice() {
        [(_, x), (_, y), (_, z)] => Some([x.as_real()?, y.as_real()?, z.as_real()?]),
        _ => None,
    }
}

/// What the loader wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loaded {
    pub solids: usize,
    pub atoms: usize,
}

/// Loads solids `1..=solids` (`solid_no` = `brep_no` = the solid's
/// number) and commits every [`SOLIDS_PER_TXN`] solids.
pub fn load(db: &Prima, solids: usize, seed: u64) -> PrimaResult<Loaded> {
    let session = db.session();
    let mut atoms = 0;
    for no in 1..=solids as i64 {
        atoms += insert_solid(&session, no, seed)?;
        if (no as usize).is_multiple_of(SOLIDS_PER_TXN) {
            session.commit()?;
        }
    }
    session.commit()?;
    Ok(Loaded { solids, atoms })
}

fn insert_solid(s: &prima::Session, no: i64, seed: u64) -> PrimaResult<usize> {
    let (_, d) = geometry(seed, no);
    let solid = s.insert_atom_named(
        "solid",
        &[
            ("solid_no", Value::Int(no)),
            ("description", Value::Str(format!("mesh element {no}"))),
        ],
    )?;
    let brep = s.insert_atom_named(
        "brep",
        &[
            ("brep_no", Value::Int(no)),
            (
                "hull",
                Value::Array(d.iter().map(|x| Value::Real(*x)).collect()),
            ),
            ("solid", Value::Ref(Some(solid))),
        ],
    )?;
    let corners: Vec<[f64; 3]> = (0..8).map(|c| corner_placement(seed, no, c)).collect();
    let mut points: Vec<AtomId> = Vec::with_capacity(8);
    for p in &corners {
        points.push(s.insert_atom_named(
            "point",
            &[
                ("placement", placement(*p)),
                ("brep", Value::Ref(Some(brep))),
            ],
        )?);
    }
    let mut edges: Vec<AtomId> = Vec::with_capacity(12);
    for (a, b) in EDGES {
        let length = (0..3)
            .map(|i| (corners[a][i] - corners[b][i]).powi(2))
            .sum::<f64>()
            .sqrt();
        edges.push(s.insert_atom_named(
            "edge",
            &[
                ("length", Value::Real(length)),
                ("boundary", Value::ref_set(vec![points[a], points[b]])),
                ("brep", Value::Ref(Some(brep))),
            ],
        )?);
    }
    for (i, (edge_idx, point_idx)) in FACES.iter().enumerate() {
        let area = match i {
            0 | 1 => d[0] * d[1],
            2 | 3 => d[0] * d[2],
            _ => d[1] * d[2],
        };
        s.insert_atom_named(
            "face",
            &[
                ("square_dim", Value::Real(area)),
                (
                    "border",
                    Value::ref_set(edge_idx.iter().map(|&e| edges[e]).collect()),
                ),
                (
                    "crosspoint",
                    Value::ref_set(point_idx.iter().map(|&p| points[p]).collect()),
                ),
                ("brep", Value::Ref(Some(brep))),
            ],
        )?;
    }
    Ok(ATOMS_PER_SOLID)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima::QueryOptions;
    use prima_mad::ddl::FIG_2_3_DDL;

    fn loaded(solids: usize, seed: u64) -> (Prima, Loaded) {
        let db = Prima::builder().build_with_ddl(FIG_2_3_DDL).unwrap();
        let l = load(&db, solids, seed).unwrap();
        (db, l)
    }

    #[test]
    fn same_seed_same_atoms_and_keys() {
        let (a, la) = loaded(60, 7);
        let (b, lb) = loaded(60, 7);
        assert_eq!(la, lb);
        assert_eq!(la.atoms, 60 * ATOMS_PER_SOLID);
        let schema = a.schema();
        for name in ["solid", "brep", "face", "edge", "point"] {
            let t = schema.type_id(name).unwrap();
            assert_eq!(
                a.access().atom_count(t).unwrap(),
                b.access().atom_count(t).unwrap()
            );
        }
        let point = schema.type_id("point").unwrap();
        assert_eq!(a.access().atom_count(point).unwrap(), 60 * 8);
        let ids = a.access().all_ids(point).unwrap();
        assert_eq!(ids, b.access().all_ids(point).unwrap());
        for id in ids.iter().take(16) {
            assert_eq!(a.read(*id).unwrap().values, b.read(*id).unwrap().values);
        }
        let mut k1 = Rng::new(7, 1);
        let mut k2 = Rng::new(7, 1);
        assert!((0..100).all(|_| k1.below(60) == k2.below(60)));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }

    #[test]
    fn molecule_has_79_atoms_and_generated_corners() {
        let (db, _) = loaded(3, 11);
        let s = db.session();
        let r = s
            .query(
                "SELECT ALL FROM brep-face-edge-point WHERE brep_no = 2",
                &QueryOptions::new(),
            )
            .unwrap();
        assert_eq!(r.set.molecules.len(), 1);
        assert_eq!(r.set.molecules[0].atom_count(), MOLECULE_ATOMS);
        let point_t = db.schema().type_by_name("point").unwrap();
        let at = point_t.attribute_index("placement").unwrap();
        let mut pts: Vec<_> = r.set.molecules[0].atoms_of_node(3);
        pts.sort_by_key(|a| a.id.seq);
        pts.dedup_by_key(|a| a.id);
        assert_eq!(pts.len(), POINTS_PER_BREP);
        for (c, p) in pts.iter().enumerate() {
            assert_eq!(
                placement_of(&p.values[at]),
                Some(corner_placement(11, 2, c))
            );
        }
    }
}
