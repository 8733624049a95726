//! The atom-type scan.
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

use super::Scan;
use crate::access_system::AccessSystem;
use crate::atom::Atom;
use crate::error::AccessResult;
use crate::ssa::Ssa;
use prima_mad::value::AtomTypeId;

/// Cursor over all atoms of one type in physical order.
pub struct AtomTypeScan<'a> {
    sys: &'a AccessSystem,
    atom_type: AtomTypeId,
    ssa: Ssa,
    projection: Option<Vec<usize>>,
    /// Page numbers snapshot at open.
    pages: Vec<u32>,
    /// Index into `pages` of the page loaded in `records`; `pages.len()`
    /// means past-the-end.
    page_idx: usize,
    records: Vec<Atom>,
    /// Position within `records`: the *last returned* record; -1 = before
    /// first.
    rec_idx: isize,
    opened: bool,
}

impl<'a> AtomTypeScan<'a> {
    /// Opens the scan positioned before the first atom.
    pub fn open(
        sys: &'a AccessSystem,
        atom_type: AtomTypeId,
        ssa: Ssa,
        projection: Option<Vec<usize>>,
    ) -> AccessResult<Self> {
        let pages = sys.base_file(atom_type)?.page_numbers();
        Ok(AtomTypeScan {
            sys,
            atom_type,
            ssa,
            projection,
            pages,
            page_idx: 0,
            records: Vec::new(),
            rec_idx: -1,
            opened: false,
        })
    }

    fn load_page(&mut self, idx: usize) -> AccessResult<()> {
        self.records.clear();
        if let Some(&page_no) = self.pages.get(idx) {
            let raw = self.sys.base_file(self.atom_type)?.read_page_records(page_no)?;
            for (_, bytes) in raw {
                self.records.push(Atom::decode(&bytes)?);
            }
        }
        self.page_idx = idx;
        Ok(())
    }

    fn emit(&self, atom: &Atom) -> Atom {
        match &self.projection {
            Some(p) => atom.project(p),
            None => atom.clone(),
        }
    }
}

impl Scan for AtomTypeScan<'_> {
    fn next(&mut self) -> AccessResult<Option<Atom>> {
        if !self.opened {
            self.load_page(0)?;
            self.opened = true;
            self.rec_idx = -1;
        }
        loop {
            let next_idx = (self.rec_idx + 1) as usize;
            if next_idx < self.records.len() {
                self.rec_idx += 1;
                let atom = &self.records[next_idx];
                if self.ssa.eval(atom) {
                    return Ok(Some(self.emit(atom)));
                }
                continue;
            }
            // Advance to the next page.
            if self.page_idx + 1 >= self.pages.len().max(1) && self.pages.len() <= self.page_idx + 1
            {
                return Ok(None);
            }
            let idx = self.page_idx + 1;
            if idx >= self.pages.len() {
                return Ok(None);
            }
            self.load_page(idx)?;
            self.rec_idx = -1;
        }
    }

    fn prior(&mut self) -> AccessResult<Option<Atom>> {
        if !self.opened {
            // PRIOR from the initial position starts at the end.
            if self.pages.is_empty() {
                return Ok(None);
            }
            let last = self.pages.len() - 1;
            self.load_page(last)?;
            self.opened = true;
            self.rec_idx = self.records.len() as isize;
        }
        loop {
            if self.rec_idx > 0 {
                self.rec_idx -= 1;
                let atom = &self.records[self.rec_idx as usize];
                if self.ssa.eval(atom) {
                    return Ok(Some(self.emit(atom)));
                }
                continue;
            }
            if self.page_idx == 0 {
                self.rec_idx = -1;
                return Ok(None);
            }
            let idx = self.page_idx - 1;
            self.load_page(idx)?;
            self.rec_idx = self.records.len() as isize;
        }
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
        let mut scan = AtomTypeScan::open(&sys, 0, Ssa::True, None).unwrap();
        let all = scan.collect_remaining().unwrap();
        assert_eq!(all.len(), 300);
    }

    #[test]
    fn ssa_restricts() {
        let sys = simple_system(100);
        let ssa = Ssa::Cmp { attr: 1, op: CmpOp::Lt, value: Value::Int(10) };
        let mut scan = AtomTypeScan::open(&sys, 0, ssa, None).unwrap();
        let hits = scan.collect_remaining().unwrap();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|a| a.values[1].as_int().unwrap() < 10));
    }

    #[test]
    fn projection_selects_attributes() {
        let sys = simple_system(5);
        let mut scan = AtomTypeScan::open(&sys, 0, Ssa::True, Some(vec![0, 1])).unwrap();
        let a = scan.next().unwrap().unwrap();
        assert_ne!(a.values[1], Value::Null);
        assert_eq!(a.values[2], Value::Null, "name projected away");
    }

    #[test]
    fn next_prior_ping_pong() {
        let sys = simple_system(50);
        let mut scan = AtomTypeScan::open(&sys, 0, Ssa::True, None).unwrap();
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
        let mut fwd = AtomTypeScan::open(&sys, 0, Ssa::True, None).unwrap();
        let all = fwd.collect_remaining().unwrap();
        let mut bwd = AtomTypeScan::open(&sys, 0, Ssa::True, None).unwrap();
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
        let mut scan = AtomTypeScan::open(&sys, 0, Ssa::True, None).unwrap();
        assert!(scan.next().unwrap().is_none());
        assert!(scan.prior().unwrap().is_none());
    }

    #[test]
    fn exhausted_scan_stays_exhausted_forward() {
        let sys = simple_system(3);
        let mut scan = AtomTypeScan::open(&sys, 0, Ssa::True, None).unwrap();
        while scan.next().unwrap().is_some() {}
        assert!(scan.next().unwrap().is_none());
        // But PRIOR can step back from the end.
        assert!(scan.prior().unwrap().is_some());
    }
}
