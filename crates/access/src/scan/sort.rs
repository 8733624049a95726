//! The sort scan.
//!
//! "Unlike the atom-type scan, the sort scan serves to read all atoms of
//! one atom type in a 'user'-defined order according to a specified sort
//! criterion. In this case, the result set can be restricted by a simple
//! search argument as well as a start/stop condition. […] the sort scan
//! may be supported by a redundant storage structure, the sort order. […]
//! But the sort scan also works without such a sort order. It may engage
//! an access path if available, or has to perform the sort explicitly
//! creating a (temporary) sort order." (Section 3.2.)
//!
//! [`SortScan::open`] implements exactly that three-way strategy choice
//! and reports it via [`SortScan::source`], which experiment `E-SORT`
//! compares.

use super::Scan;
use crate::access_system::AccessSystem;
use crate::atom::Atom;
use crate::error::AccessResult;
use crate::record_file::RecordPtr;
use crate::sort_order::SortOrder;
use crate::ssa::Ssa;
use crate::structures::Structure;
use prima_mad::codec::encode_composite_key;
use prima_mad::value::{AtomId, AtomTypeId, Value};
use std::ops::Bound;
use std::sync::Arc;

/// How the sort scan is being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortSource {
    /// A redundant sort order materialises the atoms in key order.
    SortOrder,
    /// A B*-tree access path provides the key order; atoms are fetched by
    /// logical address.
    AccessPath,
    /// No supporting structure: explicit (temporary) sort of the
    /// qualifying atoms.
    Explicit,
}

enum Row {
    /// Key order entry backed by a copy in the scan's sort order.
    Copy { id: AtomId, ptr: RecordPtr },
    /// Key order entry to be fetched via logical address.
    ById(AtomId),
    /// Atom already materialised (explicit sort).
    Ready(Box<Atom>),
}

/// Cursor over one atom type in key order.
pub struct SortScan<'a> {
    sys: &'a AccessSystem,
    source: SortSource,
    /// The sort order serving the scan, kept for its whole life.
    order: Option<Arc<SortOrder>>,
    ssa: Ssa,
    rows: Vec<Row>,
    /// Last returned position; -1 = before first.
    pos: isize,
}

impl<'a> SortScan<'a> {
    /// Opens a sort scan over `key_attrs` of `atom_type` with optional
    /// start/stop conditions on the (composite) key values.
    pub fn open(
        sys: &'a AccessSystem,
        atom_type: AtomTypeId,
        key_attrs: &[usize],
        ssa: Ssa,
        start: Bound<Vec<Value>>,
        stop: Bound<Vec<Value>>,
    ) -> AccessResult<Self> {
        let enc = |b: &Bound<Vec<Value>>| match b {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(vs) => Bound::Included(encode_composite_key(vs)),
            Bound::Excluded(vs) => Bound::Excluded(encode_composite_key(vs)),
        };
        let start_k = enc(&start);
        let stop_k = enc(&stop);

        let structures = sys.structures_of(atom_type);
        let scan = |source, order, rows| SortScan { sys, source, order, ssa, rows, pos: -1 };

        // Strategy 1: a sort order over exactly these key attributes.
        if let Some(so) = structures.iter().find_map(|s| match s {
            Structure::SortOrder(so) if so.key_attrs == key_attrs => Some(so),
            _ => None,
        }) {
            let mut rows = Vec::new();
            so.scan_keys(start_k.clone(), stop_k.clone(), false, |_, id, ptr| {
                rows.push(Row::Copy { id, ptr });
                true
            })?;
            return Ok(scan(SortSource::SortOrder, Some(Arc::clone(so)), rows));
        }

        // Strategy 2: a B*-tree access path whose key prefix matches.
        if let Some(ix) = structures.iter().find_map(|s| match s {
            Structure::BTree(ix) if ix.key_attrs.starts_with(key_attrs) => Some(ix),
            _ => None,
        }) {
            let exact = ix.key_attrs.len() == key_attrs.len();
            let mut rows = Vec::new();
            // With a longer index key, bounds on the prefix still hold
            // (memcomparable prefix property), except an Included upper
            // bound must be widened; simplest correct handling: scan
            // unbounded above and stop via key check when exact, or
            // filter after fetch when prefix-only.
            let (lo, hi) = if exact {
                (start_k.clone(), stop_k.clone())
            } else {
                (
                    match &start_k {
                        Bound::Unbounded => Bound::Unbounded,
                        Bound::Included(k) | Bound::Excluded(k) => Bound::Included(k.clone()),
                    },
                    Bound::Unbounded,
                )
            };
            fn as_ref(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
                match b {
                    Bound::Unbounded => Bound::Unbounded,
                    Bound::Included(k) => Bound::Included(k.as_slice()),
                    Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
                }
            }
            ix.tree.scan_range(as_ref(&lo), as_ref(&hi), false, |_, ids| {
                for id in ids {
                    rows.push(Row::ById(*id));
                }
                true
            })?;
            if !exact {
                // Re-filter on the actual key bounds after fetch.
                let mut filtered = Vec::new();
                for row in rows {
                    let Row::ById(id) = row else { unreachable!() };
                    let atom = sys.read_atom(id, None)?;
                    let kv: Vec<Value> = key_attrs
                        .iter()
                        .map(|&i| atom.values.get(i).cloned().unwrap_or(Value::Null))
                        .collect();
                    let k = encode_composite_key(&kv);
                    if bound_contains(&start_k, &stop_k, &k) {
                        filtered.push(Row::Ready(Box::new(atom)));
                    }
                }
                // The index prefix order equals the key order, so rows are
                // already sorted.
                return Ok(scan(SortSource::AccessPath, None, filtered));
            }
            return Ok(scan(SortSource::AccessPath, None, rows));
        }

        // Strategy 3: explicit temporary sort.
        let mut atoms: Vec<(Vec<u8>, Atom)> = Vec::new();
        let ids = sys.all_ids(atom_type)?;
        for id in ids {
            let atom = sys.read_atom(id, None)?;
            let kv: Vec<Value> = key_attrs
                .iter()
                .map(|&i| atom.values.get(i).cloned().unwrap_or(Value::Null))
                .collect();
            let k = encode_composite_key(&kv);
            if bound_contains(&start_k, &stop_k, &k) {
                atoms.push((k, atom));
            }
        }
        atoms.sort_by(|a, b| a.0.cmp(&b.0));
        let rows = atoms.into_iter().map(|(_, a)| Row::Ready(Box::new(a))).collect();
        Ok(scan(SortSource::Explicit, None, rows))
    }

    /// Which strategy serves this scan.
    pub fn source(&self) -> SortSource {
        self.source
    }

    fn fetch(&self, row: &Row) -> AccessResult<Atom> {
        match (row, &self.order) {
            (Row::Ready(a), _) => Ok((**a).clone()),
            // Deferred update: a stale copy must be bypassed in favour of
            // the primary record.
            (Row::Copy { id, ptr }, Some(so)) if !self.sys.deferred_stale(*id, so.id) => {
                so.read_copy(*ptr)
            }
            (Row::ById(id) | Row::Copy { id, .. }, _) => self.sys.read_atom(*id, None),
        }
    }
}

fn bound_contains(start: &Bound<Vec<u8>>, stop: &Bound<Vec<u8>>, k: &[u8]) -> bool {
    let lo = match start {
        Bound::Unbounded => true,
        Bound::Included(s) => k >= s.as_slice(),
        Bound::Excluded(s) => k > s.as_slice(),
    };
    let hi = match stop {
        Bound::Unbounded => true,
        Bound::Included(e) => k <= e.as_slice(),
        Bound::Excluded(e) => k < e.as_slice(),
    };
    lo && hi
}

impl Scan for SortScan<'_> {
    fn next(&mut self) -> AccessResult<Option<Atom>> {
        loop {
            let next = (self.pos + 1) as usize;
            if next >= self.rows.len() {
                return Ok(None);
            }
            self.pos += 1;
            let atom = self.fetch(&self.rows[next])?;
            if self.ssa.eval(&atom) {
                return Ok(Some(atom));
            }
        }
    }

    fn prior(&mut self) -> AccessResult<Option<Atom>> {
        loop {
            if self.pos < 0 {
                return Ok(None);
            }
            // When past the end, step onto the last row; otherwise step
            // back one.
            let cur = if self.pos as usize >= self.rows.len() {
                self.rows.len() - 1
            } else if self.pos == 0 {
                self.pos = -1;
                return Ok(None);
            } else {
                (self.pos - 1) as usize
            };
            self.pos = cur as isize;
            let atom = self.fetch(&self.rows[cur])?;
            if self.ssa.eval(&atom) {
                return Ok(Some(atom));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssa::CmpOp;
    use prima_mad::schema::{AtomType, Attribute, AttrType, Schema};
    use prima_storage::StorageSystem;
    use std::sync::Arc;

    fn system(n: i64) -> AccessSystem {
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
        let storage = Arc::new(StorageSystem::in_memory(16 << 20));
        let sys = AccessSystem::new(storage, schema).unwrap();
        // Insert in reverse order so physical order != key order.
        for i in (0..n).rev() {
            sys.insert_atom(0, vec![Value::Null, Value::Int(i), Value::Str(format!("i{i}"))], None)
                .unwrap();
        }
        sys
    }

    fn collect_ns(scan: &mut SortScan<'_>) -> Vec<i64> {
        scan.collect_remaining()
            .unwrap()
            .iter()
            .map(|a| a.values[1].as_int().unwrap())
            .collect()
    }

    #[test]
    fn explicit_sort_when_no_structure() {
        let sys = system(50);
        let mut scan =
            SortScan::open(&sys, 0, &[1], Ssa::True, Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(scan.source(), SortSource::Explicit);
        assert_eq!(collect_ns(&mut scan), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sort_order_is_preferred() {
        let sys = system(50);
        sys.create_sort_order("by_n", 0, vec![1]).unwrap();
        let mut scan =
            SortScan::open(&sys, 0, &[1], Ssa::True, Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(scan.source(), SortSource::SortOrder);
        assert_eq!(collect_ns(&mut scan), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn access_path_used_when_no_sort_order() {
        let sys = system(50);
        sys.create_btree_index("ix_n", 0, vec![1]).unwrap();
        let mut scan =
            SortScan::open(&sys, 0, &[1], Ssa::True, Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(scan.source(), SortSource::AccessPath);
        assert_eq!(collect_ns(&mut scan), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn start_stop_conditions_apply() {
        let sys = system(100);
        sys.create_sort_order("by_n", 0, vec![1]).unwrap();
        let mut scan = SortScan::open(
            &sys,
            0,
            &[1],
            Ssa::True,
            Bound::Included(vec![Value::Int(20)]),
            Bound::Excluded(vec![Value::Int(30)]),
        )
        .unwrap();
        assert_eq!(collect_ns(&mut scan), (20..30).collect::<Vec<_>>());
    }

    #[test]
    fn ssa_composes_with_key_range() {
        let sys = system(100);
        let ssa = Ssa::Cmp { attr: 1, op: CmpOp::Ne, value: Value::Int(25) };
        let mut scan = SortScan::open(
            &sys,
            0,
            &[1],
            ssa,
            Bound::Included(vec![Value::Int(20)]),
            Bound::Included(vec![Value::Int(29)]),
        )
        .unwrap();
        let ns = collect_ns(&mut scan);
        assert_eq!(ns.len(), 9);
        assert!(!ns.contains(&25));
    }

    #[test]
    fn prior_walks_back() {
        let sys = system(10);
        sys.create_sort_order("by_n", 0, vec![1]).unwrap();
        let mut scan =
            SortScan::open(&sys, 0, &[1], Ssa::True, Bound::Unbounded, Bound::Unbounded).unwrap();
        let a = scan.next().unwrap().unwrap();
        let b = scan.next().unwrap().unwrap();
        assert!(a.values[1].as_int() < b.values[1].as_int());
        let back = scan.prior().unwrap().unwrap();
        assert_eq!(back.id, a.id);
    }

    #[test]
    fn stale_copies_fall_back_to_primary() {
        let sys = system(10);
        sys.create_sort_order("by_n", 0, vec![1]).unwrap();
        sys.set_update_policy(crate::structures::UpdatePolicy::Deferred);
        // Modify a non-key attribute: the copy goes stale but stays in
        // place.
        let victim = sys.all_ids(0).unwrap()[0];
        sys.modify_atom(victim, &[(2, Value::Str("fresh".into()))], None).unwrap();
        let mut scan =
            SortScan::open(&sys, 0, &[1], Ssa::True, Bound::Unbounded, Bound::Unbounded).unwrap();
        let all = scan.collect_remaining().unwrap();
        let updated = all.iter().find(|a| a.id == victim).unwrap();
        assert_eq!(
            updated.values[2],
            Value::Str("fresh".into()),
            "stale sort-order copy must be bypassed"
        );
    }
}
