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
//! [`Scan::sort`] implements exactly that three-way strategy choice and
//! reports it via [`Scan::sort_source`], which experiment `E-SORT`
//! compares.

use super::access_path::index_ids;
use super::{encode_bound, Row, Scan};
use crate::access_system::AccessSystem;
use crate::atom::Atom;
use crate::error::AccessResult;
use crate::ssa::Ssa;
use crate::structures::Structure;
use prima_mad::codec::encode_composite_key;
use prima_mad::value::{AtomTypeId, Value};
use std::ops::{Bound, RangeBounds};

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

impl<'a> Scan<'a> {
    /// Opens a sort scan over `key_attrs` of `atom_type` with optional
    /// start/stop conditions on the (composite) key values.
    pub fn sort(
        sys: &'a AccessSystem,
        atom_type: AtomTypeId,
        key_attrs: &[usize],
        ssa: Ssa,
        start: Bound<Vec<Value>>,
        stop: Bound<Vec<Value>>,
    ) -> AccessResult<Self> {
        let (start, stop) = (encode_bound(start), encode_bound(stop));
        let structures = sys.structures_of(atom_type);
        let order = structures.iter().find_map(|s| match s {
            Structure::SortOrder(so) if so.key_attrs == key_attrs => Some(so),
            _ => None,
        });
        let index = structures.iter().find_map(|s| match s {
            Structure::BTree(ix) if ix.key_attrs.starts_with(key_attrs) => Some(ix),
            _ => None,
        });
        let (source, rows) = match (order, index) {
            // Strategy 1: the copies of a sort order over exactly these
            // key attributes.
            (Some(so), _) => {
                let mut ptrs = Vec::new();
                so.scan_keys(start, stop, false, |_, _, ptr| {
                    ptrs.push(ptr);
                    true
                })?;
                let copies = ptrs.into_iter().map(|ptr| Ok(Row::Copy(so.id, so.read_copy(ptr)?)));
                (SortSource::SortOrder, copies.collect::<AccessResult<_>>()?)
            }
            // Strategy 2: the ids of a B*-tree over exactly these keys ...
            (None, Some(ix)) if ix.key_attrs.len() == key_attrs.len() => {
                let ids = index_ids(ix, &start, &stop, false)?;
                (SortSource::AccessPath, ids.into_iter().map(Row::Id).collect())
            }
            // ... or over a longer key, whose order is the prefix's order
            // and which the start key still bounds below (memcomparable
            // prefix property). Strategy 3: an explicit (temporary) sort.
            // Either way each atom is checked against both key bounds.
            (None, index) => {
                let mut atoms = match index {
                    Some(ix) => {
                        let from = match &start {
                            Bound::Unbounded => Bound::Unbounded,
                            Bound::Included(k) | Bound::Excluded(k) => Bound::Included(k.clone()),
                        };
                        let ids = index_ids(ix, &from, &Bound::Unbounded, false)?;
                        Scan::over(sys, Ssa::True, ids.into_iter().map(Row::Id).collect())
                    }
                    None => Scan::atom_type(sys, atom_type, Ssa::True)?,
                };
                let mut keyed: Vec<(Vec<u8>, Atom)> = Vec::new();
                for atom in atoms.collect_remaining()? {
                    let key: Vec<Value> = key_attrs
                        .iter()
                        .map(|&i| atom.values.get(i).cloned().unwrap_or(Value::Null))
                        .collect();
                    let key = encode_composite_key(&key);
                    if (start.as_ref(), stop.as_ref()).contains(&key) {
                        keyed.push((key, atom));
                    }
                }
                // A stable sort: an index's order among equal keys stays.
                keyed.sort_by(|a, b| a.0.cmp(&b.0));
                let source =
                    if index.is_some() { SortSource::AccessPath } else { SortSource::Explicit };
                (source, keyed.into_iter().map(|(_, atom)| Row::Atom(atom)).collect())
            }
        };
        Ok(Scan { sort_source: Some(source), ..Scan::over(sys, ssa, rows) })
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

    fn collect_ns(scan: &mut Scan<'_>) -> Vec<i64> {
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
            Scan::sort(&sys, 0, &[1], Ssa::True, Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(scan.sort_source(), Some(SortSource::Explicit));
        assert_eq!(collect_ns(&mut scan), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sort_order_is_preferred() {
        let sys = system(50);
        sys.create_sort_order("by_n", 0, vec![1]).unwrap();
        let mut scan =
            Scan::sort(&sys, 0, &[1], Ssa::True, Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(scan.sort_source(), Some(SortSource::SortOrder));
        assert_eq!(collect_ns(&mut scan), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn access_path_used_when_no_sort_order() {
        let sys = system(50);
        sys.create_btree_index("ix_n", 0, vec![1]).unwrap();
        let mut scan =
            Scan::sort(&sys, 0, &[1], Ssa::True, Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(scan.sort_source(), Some(SortSource::AccessPath));
        assert_eq!(collect_ns(&mut scan), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn start_stop_conditions_apply() {
        let sys = system(100);
        sys.create_sort_order("by_n", 0, vec![1]).unwrap();
        let mut scan = Scan::sort(
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
        let mut scan = Scan::sort(
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
            Scan::sort(&sys, 0, &[1], Ssa::True, Bound::Unbounded, Bound::Unbounded).unwrap();
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
            Scan::sort(&sys, 0, &[1], Ssa::True, Bound::Unbounded, Bound::Unbounded).unwrap();
        let all = scan.collect_remaining().unwrap();
        let updated = all.iter().find(|a| a.id == victim).unwrap();
        assert_eq!(
            updated.values[2],
            Value::Str("fresh".into()),
            "stale sort-order copy must be bypassed"
        );
    }
}
