//! Access-path scans: B*-tree and multi-dimensional.
//!
//! "A main usage of scans is on access paths where start and stop
//! conditions conveniently provide access to value ranges and where value
//! orders may be exploited for free (access-path scan). […] With n keys,
//! navigation has much more degrees of freedom. Therefore, start/stop
//! conditions and directions may be specified individually for every key
//! involved in the scan." (Section 3.2.)
//!
//! [`AccessPathScan`] drives a [`crate::structures::BTreeIndex`];
//! [`MultidimScan`] drives a [`crate::structures::GridIndex`] with one
//! [`DimRange`] per key.

use super::Scan;
use crate::access_system::AccessSystem;
use crate::structures::{BTreeIndex, GridIndex};
use crate::atom::Atom;
use crate::error::AccessResult;
use crate::multidim::DimRange;
use crate::ssa::Ssa;
use prima_mad::codec::encode_composite_key;
use prima_mad::value::{AtomId, Value};
use std::ops::Bound;
use std::sync::Arc;

/// Cursor over a B*-tree access path with start/stop conditions and a
/// direction.
pub struct AccessPathScan<'a> {
    sys: &'a AccessSystem,
    ssa: Ssa,
    ids: Vec<AtomId>,
    pos: isize,
}

impl<'a> AccessPathScan<'a> {
    /// Opens the scan. `start`/`stop` are bounds over the index's key
    /// attribute values; `descending` reverses delivery order.
    pub fn open(
        sys: &'a AccessSystem,
        index: &Arc<BTreeIndex>,
        ssa: Ssa,
        start: Bound<Vec<Value>>,
        stop: Bound<Vec<Value>>,
        descending: bool,
    ) -> AccessResult<Self> {
        let enc = |b: &Bound<Vec<Value>>| match b {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(vs) => Bound::Included(encode_composite_key(vs)),
            Bound::Excluded(vs) => Bound::Excluded(encode_composite_key(vs)),
        };
        let lo = enc(&start);
        let hi = enc(&stop);
        fn as_ref(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
            match b {
                Bound::Unbounded => Bound::Unbounded,
                Bound::Included(k) => Bound::Included(k.as_slice()),
                Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
            }
        }
        let mut ids = Vec::new();
        index.tree.scan_range(as_ref(&lo), as_ref(&hi), descending, |_, entry_ids| {
            ids.extend_from_slice(entry_ids);
            true
        })?;
        Ok(AccessPathScan { sys, ssa, ids, pos: -1 })
    }

    /// Number of index entries in range (before SSA filtering).
    pub fn candidate_count(&self) -> usize {
        self.ids.len()
    }
}

impl Scan for AccessPathScan<'_> {
    fn next(&mut self) -> AccessResult<Option<Atom>> {
        loop {
            let next = (self.pos + 1) as usize;
            if next >= self.ids.len() {
                return Ok(None);
            }
            self.pos += 1;
            let atom = self.sys.read_atom(self.ids[next], None)?;
            if self.ssa.eval(&atom) {
                return Ok(Some(atom));
            }
        }
    }

    fn prior(&mut self) -> AccessResult<Option<Atom>> {
        loop {
            if self.pos <= 0 {
                self.pos = -1;
                return Ok(None);
            }
            let cur = if self.pos as usize >= self.ids.len() {
                self.ids.len() - 1
            } else {
                (self.pos - 1) as usize
            };
            self.pos = cur as isize;
            let atom = self.sys.read_atom(self.ids[cur], None)?;
            if self.ssa.eval(&atom) {
                return Ok(Some(atom));
            }
        }
    }
}

/// Cursor over a grid-file access path: one range + direction per key.
pub struct MultidimScan<'a> {
    sys: &'a AccessSystem,
    ssa: Ssa,
    ids: Vec<AtomId>,
    pos: isize,
}

impl<'a> MultidimScan<'a> {
    /// Opens the scan with per-dimension conditions (the n-dimensional
    /// "selection path").
    pub fn open(
        sys: &'a AccessSystem,
        index: &Arc<GridIndex>,
        ssa: Ssa,
        ranges: &[DimRange],
    ) -> AccessResult<Self> {
        let entries = index.grid.read().search(ranges)?;
        let ids = entries.into_iter().map(|e| e.id).collect();
        Ok(MultidimScan { sys, ssa, ids, pos: -1 })
    }

    pub fn candidate_count(&self) -> usize {
        self.ids.len()
    }
}

impl Scan for MultidimScan<'_> {
    fn next(&mut self) -> AccessResult<Option<Atom>> {
        loop {
            let next = (self.pos + 1) as usize;
            if next >= self.ids.len() {
                return Ok(None);
            }
            self.pos += 1;
            let atom = self.sys.read_atom(self.ids[next], None)?;
            if self.ssa.eval(&atom) {
                return Ok(Some(atom));
            }
        }
    }

    fn prior(&mut self) -> AccessResult<Option<Atom>> {
        loop {
            if self.pos <= 0 {
                self.pos = -1;
                return Ok(None);
            }
            let cur = if self.pos as usize >= self.ids.len() {
                self.ids.len() - 1
            } else {
                (self.pos - 1) as usize
            };
            self.pos = cur as isize;
            let atom = self.sys.read_atom(self.ids[cur], None)?;
            if self.ssa.eval(&atom) {
                return Ok(Some(atom));
            }
        }
    }
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
        let mut scan = AccessPathScan::open(
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

        let mut rev = AccessPathScan::open(
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
            AccessPathScan::open(&sys, &ix, Ssa::True, Bound::Unbounded, Bound::Unbounded, false)
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
        let mut scan = MultidimScan::open(&sys, &gx, Ssa::True, &ranges).unwrap();
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
        let mut scan = AccessPathScan::open(
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
