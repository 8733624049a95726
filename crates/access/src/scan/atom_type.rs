//! The atom-type scan, and the partition scan that reads like it.
//!
//! "The simplest of these scans is the atom-type scan. It successively
//! reads all atoms of one atom type in a system-defined order — either as
//! a whole or only selected attributes. In addition, the result set of
//! the scan can be restricted by a simple search argument decidable on
//! each atom. Hence, the atom-type scan corresponds to the relation scan
//! of the RSS." (Section 3.2.)
//!
//! System-defined order here is physical order: pages of the base record
//! file in allocation order, slots in slot order. The cursor loads one
//! page worth of records at a time, so NEXT costs buffer-level page I/O
//! exactly once per page in either direction.
//!
//! A partition scan walks a partition's file the same way ("partitions
//! collect the results of projections"): its records are copies, which
//! fall back to the primary record while deferred update has left them
//! stale.

use super::{Row, Scan};
use crate::access_system::AccessSystem;
use crate::atom::Atom;
use crate::error::AccessResult;
use crate::partition::Partition;
use crate::ssa::Ssa;
use prima_mad::value::AtomTypeId;
use std::sync::Arc;

/// The record file a paged scan reads, one page at a time.
pub(super) enum Paged {
    /// An atom type's base file: its records are the atoms.
    Base(AtomTypeId),
    /// A partition's file: its records are copies.
    Partition(Arc<Partition>),
}

impl Paged {
    /// The rows of page `page_no`, in slot order.
    pub(super) fn rows(&self, sys: &AccessSystem, page_no: u32) -> AccessResult<Vec<Row>> {
        let (file, copies) = match self {
            Paged::Base(t) => (sys.base_file(*t)?, None),
            Paged::Partition(p) => (p.file(), Some(p.id)),
        };
        let records = file.read_page_records(page_no)?.into_iter();
        records
            .map(|(_, bytes)| {
                let atom = Atom::decode(&bytes)?;
                Ok(match copies {
                    Some(s) => Row::Copy(s, atom),
                    None => Row::Atom(atom),
                })
            })
            .collect()
    }
}

impl<'a> Scan<'a> {
    /// Opens an atom-type scan over all atoms of `atom_type`, positioned
    /// before the first.
    pub fn atom_type(sys: &'a AccessSystem, atom_type: AtomTypeId, ssa: Ssa) -> AccessResult<Self> {
        let pages = sys.base_file(atom_type)?.page_numbers();
        Ok(Scan::over_pages(sys, ssa, Paged::Base(atom_type), pages))
    }

    /// Opens a partition scan: the partition's copies of its atom type's
    /// atoms, holding only the partition's attributes.
    pub fn partition(
        sys: &'a AccessSystem,
        partition: Arc<Partition>,
        ssa: Ssa,
    ) -> AccessResult<Self> {
        let pages = partition.file().page_numbers();
        Ok(Scan::over_pages(sys, ssa, Paged::Partition(partition), pages))
    }

    /// A scan that loads the rows of `pages` of `paged` one page at a time.
    fn over_pages(sys: &'a AccessSystem, ssa: Ssa, paged: Paged, pages: Vec<u32>) -> Self {
        Scan { paged: Some(paged), pages, ..Scan::over(sys, ssa, Vec::new()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssa::CmpOp;
    use prima_mad::schema::{AtomType, Attribute, AttrType, Schema};
    use prima_mad::value::Value;
    use prima_storage::StorageSystem;
    use std::sync::Arc;

    fn simple_system(n: i64) -> AccessSystem {
        let mut schema = Schema::new();
        schema
            .add_atom_type(AtomType::build(
                "item",
                vec![
                    Attribute::new("id", AttrType::Identifier),
                    Attribute::new("n", AttrType::Integer),
                    Attribute::new("name", AttrType::CharVar),
                ],
                vec![],
            ))
            .unwrap();
        let storage = Arc::new(StorageSystem::in_memory(8 << 20));
        let sys = AccessSystem::new(storage, schema).unwrap();
        for i in 0..n {
            sys.insert_atom(0, vec![Value::Null, Value::Int(i), Value::Str(format!("i{i}"))], None)
                .unwrap();
        }
        sys
    }

    #[test]
    fn full_scan_visits_all() {
        let sys = simple_system(300);
        let mut scan = Scan::atom_type(&sys, 0, Ssa::True).unwrap();
        let all = scan.collect_remaining().unwrap();
        assert_eq!(all.len(), 300);
    }

    #[test]
    fn ssa_restricts() {
        let sys = simple_system(100);
        let ssa = Ssa::Cmp { attr: 1, op: CmpOp::Lt, value: Value::Int(10) };
        let mut scan = Scan::atom_type(&sys, 0, ssa).unwrap();
        let hits = scan.collect_remaining().unwrap();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|a| a.values[1].as_int().unwrap() < 10));
    }

    #[test]
    fn projection_selects_attributes() {
        let sys = simple_system(5);
        let mut scan = Scan::atom_type(&sys, 0, Ssa::True).map(|s| s.project(vec![0, 1])).unwrap();
        let a = scan.next().unwrap().unwrap();
        assert_ne!(a.values[1], Value::Null);
        assert_eq!(a.values[2], Value::Null, "name projected away");
    }

    #[test]
    fn next_prior_ping_pong() {
        let sys = simple_system(50);
        let mut scan = Scan::atom_type(&sys, 0, Ssa::True).unwrap();
        let a1 = scan.next().unwrap().unwrap();
        let a2 = scan.next().unwrap().unwrap();
        assert_ne!(a1.id, a2.id);
        let back = scan.prior().unwrap().unwrap();
        assert_eq!(back.id, a1.id, "PRIOR returns to the previous atom");
        let fwd = scan.next().unwrap().unwrap();
        assert_eq!(fwd.id, a2.id);
    }

    #[test]
    fn prior_from_start_walks_backward_from_end() {
        let sys = simple_system(25);
        let mut fwd = Scan::atom_type(&sys, 0, Ssa::True).unwrap();
        let all = fwd.collect_remaining().unwrap();
        let mut bwd = Scan::atom_type(&sys, 0, Ssa::True).unwrap();
        let mut rev = Vec::new();
        while let Some(a) = bwd.prior().unwrap() {
            rev.push(a);
        }
        rev.reverse();
        assert_eq!(
            all.iter().map(|a| a.id).collect::<Vec<_>>(),
            rev.iter().map(|a| a.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_type_scans_empty() {
        let sys = simple_system(0);
        let mut scan = Scan::atom_type(&sys, 0, Ssa::True).unwrap();
        assert!(scan.next().unwrap().is_none());
        assert!(scan.prior().unwrap().is_none());
    }

    #[test]
    fn exhausted_scan_stays_exhausted_forward() {
        let sys = simple_system(3);
        let mut scan = Scan::atom_type(&sys, 0, Ssa::True).unwrap();
        while scan.next().unwrap().is_some() {}
        assert!(scan.next().unwrap().is_none());
        // But PRIOR can step back from the end.
        assert!(scan.prior().unwrap().is_some());
    }
}
