//! Access-path scans: B*-tree and multi-dimensional.
//!
//! "A main usage of scans is on access paths where start and stop
//! conditions conveniently provide access to value ranges and where value
//! orders may be exploited for free (access-path scan). […] With n keys,
//! navigation has much more degrees of freedom. Therefore, start/stop
//! conditions and directions may be specified individually for every key
//! involved in the scan." (Section 3.2.)
//!
//! [`Scan::access_path`] drives a [`crate::structures::BTreeIndex`];
//! [`Scan::multidim`] drives a [`crate::structures::GridIndex`] with one
//! [`DimRange`] per key. Either delivers atom ids, read from the primary
//! records as the cursor steps.

use super::{encode_bound, Row, Scan};
use crate::access_system::AccessSystem;
use crate::error::AccessResult;
use crate::multidim::DimRange;
use crate::ssa::Ssa;
use crate::structures::{BTreeIndex, GridIndex};
use prima_mad::value::{AtomId, Value};
use std::ops::Bound;

impl<'a> Scan<'a> {
    /// Opens a B*-tree scan. `start`/`stop` are bounds over the index's
    /// key attribute values; `descending` reverses delivery order.
    pub fn access_path(
        sys: &'a AccessSystem,
        index: &BTreeIndex,
        ssa: Ssa,
        start: Bound<Vec<Value>>,
        stop: Bound<Vec<Value>>,
        descending: bool,
    ) -> AccessResult<Self> {
        let ids = index_ids(index, &encode_bound(start), &encode_bound(stop), descending)?;
        Ok(Scan::over(sys, ssa, ids.into_iter().map(Row::Id).collect()))
    }

    /// Opens a grid-file scan with per-dimension conditions (the
    /// n-dimensional "selection path").
    pub fn multidim(
        sys: &'a AccessSystem,
        index: &GridIndex,
        ssa: Ssa,
        ranges: &[DimRange],
    ) -> AccessResult<Self> {
        let entries = index.grid.read().search(ranges)?;
        Ok(Scan::over(sys, ssa, entries.into_iter().map(|e| Row::Id(e.id)).collect()))
    }
}

/// The ids `index` holds between the encoded keys `start` and `stop`, in
/// key order.
pub(super) fn index_ids(
    index: &BTreeIndex,
    start: &Bound<Vec<u8>>,
    stop: &Bound<Vec<u8>>,
    descending: bool,
) -> AccessResult<Vec<AtomId>> {
    let mut ids = Vec::new();
    let (lo, hi) = (start.as_ref().map(Vec::as_slice), stop.as_ref().map(Vec::as_slice));
    index.tree.scan_range(lo, hi, descending, |_, entry_ids| {
        ids.extend_from_slice(entry_ids);
        true
    })?;
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structures::Structure;
    use prima_mad::schema::{AtomType, Attribute, AttrType, Schema};
    use prima_storage::StorageSystem;
    use std::sync::Arc as StdArc;

    fn system(n: i64) -> AccessSystem {
        let mut schema = Schema::new();
        schema
            .add_atom_type(AtomType::build(
                "pt",
                vec![
                    Attribute::new("id", AttrType::Identifier),
                    Attribute::new("x", AttrType::Integer),
                    Attribute::new("y", AttrType::Integer),
                ],
                vec![],
            ))
            .unwrap();
        let storage = StdArc::new(StorageSystem::in_memory(16 << 20));
        let sys = AccessSystem::new(storage, schema).unwrap();
        for i in 0..n {
            sys.insert_atom(0, vec![Value::Null, Value::Int(i % 10), Value::Int(i / 10)], None)
                .unwrap();
        }
        sys
    }

    #[test]
    fn btree_scan_range_and_direction() {
        let sys = system(100);
        sys.create_btree_index("ix_x", 0, vec![1]).unwrap();
        let Some(Structure::BTree(ix)) = sys.structure("ix_x") else { panic!("no B*-tree") };
        let mut scan = Scan::access_path(
            &sys,
            &ix,
            Ssa::True,
            Bound::Included(vec![Value::Int(3)]),
            Bound::Included(vec![Value::Int(4)]),
            false,
        )
        .unwrap();
        let atoms = scan.collect_remaining().unwrap();
        assert_eq!(atoms.len(), 20, "x in {{3,4}}, 10 each");
        let xs: Vec<i64> = atoms.iter().map(|a| a.values[1].as_int().unwrap()).collect();
        assert!(xs.windows(2).all(|w| w[0] <= w[1]), "ascending order");

        let mut rev = Scan::access_path(
            &sys,
            &ix,
            Ssa::True,
            Bound::Included(vec![Value::Int(3)]),
            Bound::Included(vec![Value::Int(4)]),
            true,
        )
        .unwrap();
        let atoms = rev.collect_remaining().unwrap();
        let xs: Vec<i64> = atoms.iter().map(|a| a.values[1].as_int().unwrap()).collect();
        assert!(xs.windows(2).all(|w| w[0] >= w[1]), "descending order");
    }

    #[test]
    fn btree_scan_next_prior() {
        let sys = system(30);
        sys.create_btree_index("ix_x", 0, vec![1]).unwrap();
        let Some(Structure::BTree(ix)) = sys.structure("ix_x") else { panic!("no B*-tree") };
        let mut scan =
            Scan::access_path(&sys, &ix, Ssa::True, Bound::Unbounded, Bound::Unbounded, false)
                .unwrap();
        let a = scan.next().unwrap().unwrap();
        let b = scan.next().unwrap().unwrap();
        let back = scan.prior().unwrap().unwrap();
        assert_eq!(back.id, a.id);
        let fwd = scan.next().unwrap().unwrap();
        assert_eq!(fwd.id, b.id);
    }

    #[test]
    fn grid_scan_per_dimension_conditions() {
        let sys = system(100);
        sys.create_grid_index("g_xy", 0, vec![1, 2]).unwrap();
        let Some(Structure::Grid(gx)) = sys.structure("g_xy") else { panic!("no grid") };
        let enc = |i: i64| {
            let mut k = Vec::new();
            prima_mad::codec::encode_key(&Value::Int(i), &mut k);
            k
        };
        let ranges = vec![
            DimRange {
                start: Bound::Included(enc(2)),
                stop: Bound::Included(enc(4)),
                descending: false,
            },
            DimRange::exact(enc(5)),
        ];
        let mut scan = Scan::multidim(&sys, &gx, Ssa::True, &ranges).unwrap();
        let atoms = scan.collect_remaining().unwrap();
        assert_eq!(atoms.len(), 3, "x in 2..=4, y = 5");
        for a in &atoms {
            let x = a.values[1].as_int().unwrap();
            let y = a.values[2].as_int().unwrap();
            assert!((2..=4).contains(&x) && y == 5);
        }
    }

    #[test]
    fn ssa_filters_candidates() {
        let sys = system(100);
        sys.create_btree_index("ix_x", 0, vec![1]).unwrap();
        let Some(Structure::BTree(ix)) = sys.structure("ix_x") else { panic!("no B*-tree") };
        let ssa = Ssa::eq(2, Value::Int(0)); // y == 0
        let mut scan = Scan::access_path(
            &sys,
            &ix,
            ssa,
            Bound::Included(vec![Value::Int(5)]),
            Bound::Included(vec![Value::Int(5)]),
            false,
        )
        .unwrap();
        assert_eq!(scan.candidate_count(), 10);
        let atoms = scan.collect_remaining().unwrap();
        assert_eq!(atoms.len(), 1, "only y==0 among the ten x==5 atoms");
    }
}
