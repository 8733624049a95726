//! Atom-cluster scans: vertical access to heterogeneous atom sets.
//!
//! "The atom-cluster-type scan reads all characteristic atoms of an
//! atom-cluster type in a system-defined order, possibly restricted by a
//! simple search argument which now has to be decidable in one pass
//! through a single atom cluster (single scan property \[DPS86\]).
//! Subsequently, direct access to all atoms belonging to an atom cluster
//! is possible […] The atom-cluster scan, however, offers another
//! possibility […] It reads all atoms of a certain atom type within one
//! single atom cluster in a system-defined order, again with the possible
//! restriction by a simple search argument." (Section 3.2.)

use super::Scan;
use crate::access_system::AccessSystem;
use crate::atom::Atom;
use crate::cluster::AtomClusterType;
use crate::error::AccessResult;
use crate::ssa::Ssa;
use prima_mad::value::{AtomId, AtomTypeId};
use std::sync::Arc;

/// Cursor over the characteristic atoms of one atom-cluster type.
///
/// The SSA is evaluated against the *characteristic atom*; thanks to the
/// cluster directory this is decidable in one pass through the cluster.
pub struct AtomClusterTypeScan<'a> {
    sys: &'a AccessSystem,
    cluster_type: Arc<AtomClusterType>,
    ssa: Ssa,
    chars: Vec<AtomId>,
    pos: isize,
}

impl<'a> AtomClusterTypeScan<'a> {
    pub fn open(
        sys: &'a AccessSystem,
        cluster_type: Arc<AtomClusterType>,
        ssa: Ssa,
    ) -> AccessResult<Self> {
        let chars = cluster_type.characteristic_atoms();
        Ok(AtomClusterTypeScan { sys, cluster_type, ssa, chars, pos: -1 })
    }

    /// The cluster type being scanned.
    pub fn cluster_type(&self) -> &Arc<AtomClusterType> {
        &self.cluster_type
    }

    /// Direct access to all member atoms of the current characteristic
    /// atom's cluster (one chained read).
    pub fn current_cluster_atoms(&self) -> AccessResult<Vec<Atom>> {
        let idx = self.pos;
        if idx < 0 || idx as usize >= self.chars.len() {
            return Ok(Vec::new());
        }
        self.cluster_type.read_all(self.chars[idx as usize])
    }
}

impl Scan for AtomClusterTypeScan<'_> {
    fn next(&mut self) -> AccessResult<Option<Atom>> {
        loop {
            let next = (self.pos + 1) as usize;
            if next >= self.chars.len() {
                return Ok(None);
            }
            self.pos += 1;
            let ch = self.sys.read_atom(self.chars[next], None)?;
            if self.ssa.eval(&ch) {
                return Ok(Some(ch));
            }
        }
    }

    fn prior(&mut self) -> AccessResult<Option<Atom>> {
        loop {
            if self.pos <= 0 {
                self.pos = -1;
                return Ok(None);
            }
            let cur = if self.pos as usize >= self.chars.len() {
                self.chars.len() - 1
            } else {
                (self.pos - 1) as usize
            };
            self.pos = cur as isize;
            let ch = self.sys.read_atom(self.chars[cur], None)?;
            if self.ssa.eval(&ch) {
                return Ok(Some(ch));
            }
        }
    }
}

/// Cursor over all atoms of one atom type within one single atom cluster.
pub struct AtomClusterScan {
    atoms: Vec<Atom>,
    ssa: Ssa,
    pos: isize,
}

impl AtomClusterScan {
    /// Opens the scan by reading the typed members out of the cluster
    /// (relative addressing: only covering pages are touched).
    pub fn open(
        cluster_type: &AtomClusterType,
        characteristic: AtomId,
        member_type: AtomTypeId,
        ssa: Ssa,
    ) -> AccessResult<Self> {
        let atoms = cluster_type.read_type(characteristic, member_type)?;
        Ok(AtomClusterScan { atoms, ssa, pos: -1 })
    }
}

impl Scan for AtomClusterScan {
    fn next(&mut self) -> AccessResult<Option<Atom>> {
        loop {
            let next = (self.pos + 1) as usize;
            if next >= self.atoms.len() {
                return Ok(None);
            }
            self.pos += 1;
            if self.ssa.eval(&self.atoms[next]) {
                return Ok(Some(self.atoms[next].clone()));
            }
        }
    }

    fn prior(&mut self) -> AccessResult<Option<Atom>> {
        loop {
            if self.pos <= 0 {
                self.pos = -1;
                return Ok(None);
            }
            let cur = if self.pos as usize >= self.atoms.len() {
                self.atoms.len() - 1
            } else {
                (self.pos - 1) as usize
            };
            self.pos = cur as isize;
            if self.ssa.eval(&self.atoms[cur]) {
                return Ok(Some(self.atoms[cur].clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structures::Structure;
    use crate::ssa::CmpOp;
    use prima_mad::schema::{AtomType, Attribute, AttrType, Cardinality, Schema};
    use prima_mad::value::Value;
    use prima_storage::{PageSize, StorageSystem};
    use std::sync::Arc as StdArc;

    /// brep (characteristic) -> faces, points.
    fn system() -> AccessSystem {
        let mut schema = Schema::new();
        schema
            .add_atom_type(AtomType::build(
                "brep",
                vec![
                    Attribute::new("id", AttrType::Identifier),
                    Attribute::new("brep_no", AttrType::Integer),
                    Attribute::new(
                        "faces",
                        AttrType::ref_set("face", "brep", Cardinality::any()),
                    ),
                    Attribute::new(
                        "points",
                        AttrType::ref_set("point", "brep", Cardinality::any()),
                    ),
                ],
                vec![],
            ))
            .unwrap();
        schema
            .add_atom_type(AtomType::build(
                "face",
                vec![
                    Attribute::new("id", AttrType::Identifier),
                    Attribute::new("square_dim", AttrType::Real),
                    Attribute::new("brep", AttrType::reference("brep", "faces")),
                ],
                vec![],
            ))
            .unwrap();
        schema
            .add_atom_type(AtomType::build(
                "point",
                vec![
                    Attribute::new("id", AttrType::Identifier),
                    Attribute::new("x", AttrType::Real),
                    Attribute::new("brep", AttrType::reference("brep", "points")),
                ],
                vec![],
            ))
            .unwrap();
        let storage = StdArc::new(StorageSystem::in_memory(16 << 20));
        AccessSystem::new(storage, schema).unwrap()
    }

    fn build_brep(sys: &AccessSystem, brep_no: i64, n_faces: usize, n_points: usize) -> AtomId {
        let brep = sys
            .insert_atom(0, vec![Value::Null, Value::Int(brep_no)], None)
            .unwrap();
        for i in 0..n_faces {
            sys.insert_atom(
                1,
                vec![Value::Null, Value::Real(i as f64), Value::Ref(Some(brep))],
                None,
            )
            .unwrap();
        }
        for i in 0..n_points {
            sys.insert_atom(
                2,
                vec![Value::Null, Value::Real(i as f64 / 2.0), Value::Ref(Some(brep))],
                None,
            )
            .unwrap();
        }
        brep
    }

    #[test]
    fn cluster_type_scan_delivers_characteristic_atoms() {
        let sys = system();
        for no in 0..5 {
            build_brep(&sys, no, 3, 4);
        }
        sys.create_cluster_type("brep_cl", 0, vec![2, 3], PageSize::K1).unwrap();
        let Some(Structure::Cluster(ct)) = sys.structure("brep_cl") else { panic!("no cluster") };
        let mut scan = AtomClusterTypeScan::open(&sys, ct, Ssa::True).unwrap();
        let mut count = 0;
        while let Some(ch) = scan.next().unwrap() {
            assert_eq!(ch.id.atom_type, 0);
            let members = scan.current_cluster_atoms().unwrap();
            assert_eq!(members.len(), 7, "3 faces + 4 points");
            count += 1;
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn cluster_type_scan_ssa_on_characteristic() {
        let sys = system();
        for no in 0..10 {
            build_brep(&sys, no, 1, 1);
        }
        sys.create_cluster_type("brep_cl", 0, vec![2, 3], PageSize::K1).unwrap();
        let Some(Structure::Cluster(ct)) = sys.structure("brep_cl") else { panic!("no cluster") };
        let ssa = Ssa::Cmp { attr: 1, op: CmpOp::Lt, value: Value::Int(3) };
        let mut scan = AtomClusterTypeScan::open(&sys, ct, ssa).unwrap();
        let hits = scan.collect_remaining().unwrap();
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn atom_cluster_scan_filters_by_type_and_ssa() {
        let sys = system();
        let brep = build_brep(&sys, 1, 5, 5);
        sys.create_cluster_type("brep_cl", 0, vec![2, 3], PageSize::K1).unwrap();
        let Some(Structure::Cluster(ct)) = sys.structure("brep_cl") else { panic!("no cluster") };
        // faces with square_dim >= 2
        let ssa = Ssa::Cmp { attr: 1, op: CmpOp::Ge, value: Value::Real(2.0) };
        let mut scan = AtomClusterScan::open(&ct, brep, 1, ssa).unwrap();
        let faces = scan.collect_remaining().unwrap();
        assert_eq!(faces.len(), 3, "faces 2,3,4");
        assert!(faces.iter().all(|a| a.id.atom_type == 1));
    }

    #[test]
    fn cluster_scan_next_prior() {
        let sys = system();
        let brep = build_brep(&sys, 1, 4, 0);
        sys.create_cluster_type("brep_cl", 0, vec![2, 3], PageSize::K1).unwrap();
        let Some(Structure::Cluster(ct)) = sys.structure("brep_cl") else { panic!("no cluster") };
        let mut scan = AtomClusterScan::open(&ct, brep, 1, Ssa::True).unwrap();
        let a = scan.next().unwrap().unwrap();
        let b = scan.next().unwrap().unwrap();
        assert_ne!(a.id, b.id);
        assert_eq!(scan.prior().unwrap().unwrap().id, a.id);
    }
}
