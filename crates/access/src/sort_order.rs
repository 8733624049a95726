//! Sort orders: redundant sorted record lists.
//!
//! "Since sorting an entire atom type is expensive and time consuming, the
//! sort scan may be supported by a redundant storage structure, the sort
//! order. It consists of a sorted list of physical records, one for each
//! atom of the resp. type." (Section 3.2.)
//!
//! A [`SortOrder`] materialises a full copy of every atom of its type in
//! its own record file, plus a sorted directory keyed by the
//! memcomparable encoding of the sort attributes. Scanning in key order
//! reads the *copies* (dense, sequential pages); with deferred update a
//! stale copy is bypassed in favour of the primary record (the caller
//! resolves via the address table's staleness bit).
//!
//! The sorted directory is memory-resident and rebuilt on load — tuning
//! structures live in unlogged segments and are regenerated after a
//! restart rather than recovered, so the directory never needs
//! persisting.

use crate::addressing::StructureId;
use crate::atom::Atom;
use crate::error::AccessResult;
use crate::record_file::{RecordFile, RecordPtr};
use parking_lot::{rank, RwLock};
use prima_mad::codec::encode_composite_key;
use prima_mad::value::{AtomId, AtomTypeId, Value};
use prima_storage::{PageSize, StorageSystem};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// A redundant sort order over one atom type.
pub struct SortOrder {
    pub id: StructureId,
    pub name: String,
    pub atom_type: AtomTypeId,
    /// Attribute indices forming the sort criterion (major first).
    pub key_attrs: Vec<usize>,
    file: RecordFile,
    /// (encoded key, atom id) -> record of the atom's copy.
    // lockrank: access.1 — registry peer; transient holds.
    index: RwLock<BTreeMap<(Vec<u8>, AtomId), RecordPtr>>,
}

impl SortOrder {
    /// Creates an empty sort order over a fresh segment.
    pub fn create(
        storage: Arc<StorageSystem>,
        id: StructureId,
        name: impl Into<String>,
        atom_type: AtomTypeId,
        key_attrs: Vec<usize>,
    ) -> AccessResult<SortOrder> {
        Ok(SortOrder {
            id,
            name: name.into(),
            atom_type,
            key_attrs,
            file: RecordFile::create_with(storage, PageSize::K4, false)?,
            index: RwLock::new_ranked(BTreeMap::new(), rank::ACCESS + 1),
        })
    }

    /// The sort key of an atom under this order.
    pub fn key_of(&self, atom: &Atom) -> Vec<u8> {
        let vals: Vec<Value> =
            self.key_attrs.iter().map(|&i| atom.values.get(i).cloned().unwrap_or(Value::Null)).collect();
        encode_composite_key(&vals)
    }

    /// Materialises the atom's copy; returns the record pointer.
    pub fn insert(&self, atom: &Atom) -> AccessResult<RecordPtr> {
        let key = self.key_of(atom);
        let ptr = self.file.insert(&atom.encode())?;
        self.index.write().insert((key, atom.id), ptr);
        Ok(ptr)
    }

    /// Replaces the copy after an atom modification. `old_key` is the key
    /// the atom had when last materialised here.
    pub fn update(&self, old_key: &[u8], atom: &Atom) -> AccessResult<RecordPtr> {
        let mut idx = self.index.write();
        let old_ptr = idx.remove(&(old_key.to_vec(), atom.id));
        let new_key = self.key_of(atom);
        let new_ptr = match old_ptr {
            Some(p) => self.file.update(p, &atom.encode())?,
            None => self.file.insert(&atom.encode())?,
        };
        idx.insert((new_key, atom.id), new_ptr);
        Ok(new_ptr)
    }

    /// Removes the copy of `id` whose key was `key`.
    pub fn remove(&self, key: &[u8], id: AtomId) -> AccessResult<bool> {
        let ptr = self.index.write().remove(&(key.to_vec(), id));
        match ptr {
            Some(p) => {
                self.file.delete(p)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Number of materialised copies.
    pub fn len(&self) -> usize {
        self.index.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.read().len() == 0
    }

    /// Walks atoms in key order within `[start, stop]` bounds over the
    /// *encoded* key, optionally reversed. The visitor gets
    /// `(key, atom id, record ptr)`; it returns `false` to stop.
    /// Reading the record is left to the caller so that stale copies can
    /// be bypassed (deferred update).
    pub fn scan_keys(
        &self,
        start: Bound<Vec<u8>>,
        stop: Bound<Vec<u8>>,
        reverse: bool,
        mut visit: impl FnMut(&[u8], AtomId, RecordPtr) -> bool,
    ) -> AccessResult<()> {
        let idx = self.index.read();
        // Bounds on the composite (key, id) space.
        let lo = match &start {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(k) => Bound::Included((k.clone(), AtomId::new(0, 0))),
            Bound::Excluded(k) => {
                Bound::Included((exclusive_successor(k), AtomId::new(0, 0)))
            }
        };
        let hi = match &stop {
            Bound::Unbounded => Bound::Unbounded,
            Bound::Included(k) => {
                Bound::Included((k.clone(), AtomId::new(u16::MAX, u64::MAX)))
            }
            Bound::Excluded(k) => Bound::Excluded((k.clone(), AtomId::new(0, 0))),
        };
        let range = idx.range((lo, hi));
        if reverse {
            for ((k, id), ptr) in range.rev() {
                if !visit(k, *id, *ptr) {
                    break;
                }
            }
        } else {
            for ((k, id), ptr) in range {
                if !visit(k, *id, *ptr) {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Reads the materialised copy at `ptr`.
    pub fn read_copy(&self, ptr: RecordPtr) -> AccessResult<Atom> {
        self.file.read_with(ptr, Atom::decode)
    }
}

/// Smallest byte string strictly greater than every string with prefix
/// `k` of the same length: append 0 — keys are compared bytewise, and
/// `k ++ [0] > k`.
fn exclusive_successor(k: &[u8]) -> Vec<u8> {
    let mut v = k.to_vec();
    v.push(0);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(seq: u64, no: i64, name: &str) -> Atom {
        Atom::new(
            AtomId::new(0, seq),
            vec![Value::Id(AtomId::new(0, seq)), Value::Int(no), Value::Str(name.into())],
        )
    }

    fn order(attrs: Vec<usize>) -> SortOrder {
        let storage = Arc::new(StorageSystem::in_memory(4 << 20));
        SortOrder::create(storage, 3, "by_no", 0, attrs).unwrap()
    }

    #[test]
    fn scan_in_key_order() {
        let so = order(vec![1]);
        for (seq, no) in [(1u64, 30i64), (2, 10), (3, 20)] {
            so.insert(&atom(seq, no, "n")).unwrap();
        }
        let mut nos = Vec::new();
        so.scan_keys(Bound::Unbounded, Bound::Unbounded, false, |_, id, ptr| {
            let a = so.read_copy(ptr).unwrap();
            assert_eq!(a.id, id);
            nos.push(a.values[1].as_int().unwrap());
            true
        })
        .unwrap();
        assert_eq!(nos, vec![10, 20, 30]);
    }

    #[test]
    fn reverse_scan() {
        let so = order(vec![1]);
        for no in 0..50 {
            so.insert(&atom(no as u64, no, "x")).unwrap();
        }
        let mut nos = Vec::new();
        so.scan_keys(Bound::Unbounded, Bound::Unbounded, true, |_, _, ptr| {
            nos.push(so.read_copy(ptr).unwrap().values[1].as_int().unwrap());
            true
        })
        .unwrap();
        assert_eq!(nos[0], 49);
        assert_eq!(nos[49], 0);
    }

    #[test]
    fn start_stop_conditions() {
        let so = order(vec![1]);
        for no in 0..100 {
            so.insert(&atom(no as u64, no, "x")).unwrap();
        }
        let lo = encode_composite_key(&[Value::Int(10)]);
        let hi = encode_composite_key(&[Value::Int(20)]);
        let mut nos = Vec::new();
        so.scan_keys(Bound::Included(lo), Bound::Excluded(hi), false, |_, _, ptr| {
            nos.push(so.read_copy(ptr).unwrap().values[1].as_int().unwrap());
            true
        })
        .unwrap();
        assert_eq!(nos, (10..20).collect::<Vec<i64>>());
    }

    #[test]
    fn update_moves_key() {
        let so = order(vec![1]);
        let mut a = atom(1, 5, "x");
        so.insert(&a).unwrap();
        let old_key = so.key_of(&a);
        a.values[1] = Value::Int(500);
        so.update(&old_key, &a).unwrap();
        let mut nos = Vec::new();
        so.scan_keys(Bound::Unbounded, Bound::Unbounded, false, |_, _, ptr| {
            nos.push(so.read_copy(ptr).unwrap().values[1].as_int().unwrap());
            true
        })
        .unwrap();
        assert_eq!(nos, vec![500]);
        assert_eq!(so.len(), 1);
    }

    #[test]
    fn remove_copy() {
        let so = order(vec![1]);
        let a = atom(1, 5, "x");
        so.insert(&a).unwrap();
        let key = so.key_of(&a);
        assert!(so.remove(&key, a.id).unwrap());
        assert!(!so.remove(&key, a.id).unwrap());
        assert_eq!(so.len(), 0);
    }

    #[test]
    fn composite_key_major_minor() {
        let so = order(vec![2, 1]); // sort by name, then no
        so.insert(&atom(1, 2, "beta")).unwrap();
        so.insert(&atom(2, 1, "alpha")).unwrap();
        so.insert(&atom(3, 1, "beta")).unwrap();
        let mut seqs = Vec::new();
        so.scan_keys(Bound::Unbounded, Bound::Unbounded, false, |_, id, _| {
            seqs.push(id.seq);
            true
        })
        .unwrap();
        assert_eq!(seqs, vec![2, 3, 1], "alpha first, then beta/1, beta/2");
    }

    #[test]
    fn duplicate_keys_coexist() {
        let so = order(vec![1]);
        for seq in 0..10u64 {
            so.insert(&atom(seq, 7, "same")).unwrap();
        }
        assert_eq!(so.len(), 10);
        let k = encode_composite_key(&[Value::Int(7)]);
        let mut n = 0;
        so.scan_keys(Bound::Included(k.clone()), Bound::Included(k), false, |_, _, _| {
            n += 1;
            true
        })
        .unwrap();
        assert_eq!(n, 10);
    }
}
