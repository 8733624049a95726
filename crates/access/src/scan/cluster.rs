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

use super::{Row, Scan};
use crate::access_system::AccessSystem;
use crate::atom::Atom;
use crate::cluster::AtomClusterType;
use crate::error::AccessResult;
use crate::ssa::Ssa;
use prima_mad::value::{AtomId, AtomTypeId};
use std::sync::Arc;

impl<'a> Scan<'a> {
    /// Opens an atom-cluster-type scan over the characteristic atoms of
    /// `cluster_type`. The SSA is evaluated against the characteristic
    /// atom; thanks to the cluster directory this is decidable in one
    /// pass through the cluster.
    pub fn cluster_type(
        sys: &'a AccessSystem,
        cluster_type: Arc<AtomClusterType>,
        ssa: Ssa,
    ) -> AccessResult<Self> {
        let rows = cluster_type.characteristic_atoms().into_iter().map(Row::Id).collect();
        Ok(Scan { cluster: Some(cluster_type), ..Scan::over(sys, ssa, rows) })
    }

    /// Opens an atom-cluster scan over the atoms of `member_type` within
    /// the cluster of `characteristic` (relative addressing: only
    /// covering pages are touched).
    pub fn cluster(
        sys: &'a AccessSystem,
        cluster_type: &AtomClusterType,
        characteristic: AtomId,
        member_type: AtomTypeId,
        ssa: Ssa,
    ) -> AccessResult<Self> {
        let atoms = cluster_type.read_type(characteristic, member_type)?;
        Ok(Scan::over(sys, ssa, atoms.into_iter().map(Row::Atom).collect()))
    }

    /// Direct access to all member atoms of the cluster of the
    /// characteristic atom an atom-cluster-type scan stands on (one
    /// chained read); empty off a row or on another scan.
    pub fn current_cluster_atoms(&self) -> AccessResult<Vec<Atom>> {
        let row = usize::try_from(self.pos).ok().and_then(|i| self.rows.get(i));
        match (&self.cluster, row) {
            (Some(ct), Some(Row::Id(id))) => ct.read_all(*id),
            _ => Ok(Vec::new()),
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
        let mut scan = Scan::cluster_type(&sys, ct, Ssa::True).unwrap();
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
        let mut scan = Scan::cluster_type(&sys, ct, ssa).unwrap();
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
        let mut scan = Scan::cluster(&sys, &ct, brep, 1, ssa).unwrap();
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
        let mut scan = Scan::cluster(&sys, &ct, brep, 1, Ssa::True).unwrap();
        let a = scan.next().unwrap().unwrap();
        let b = scan.next().unwrap().unwrap();
        assert_ne!(a.id, b.id);
        assert_eq!(scan.prior().unwrap().unwrap().id, a.id);
    }
}
