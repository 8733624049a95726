//! Partitions: vertical splits of atom types.
//!
//! "The projection of frequently used attributes may be supported by means
//! of partitions, i.e. separate storage of attribute combinations. This is
//! one of the tuning mechanisms triggered by the LDL." (Section 3.2.)
//! A partition is a redundant storage structure: each atom of the type
//! contributes one physical record holding only the selected attributes
//! ("partitions collect the results of projections"). Reads that touch
//! only partition attributes can be satisfied from the (smaller, denser)
//! partition file instead of the base file.

use crate::addressing::StructureId;
use crate::atom::Atom;
use crate::error::AccessResult;
use crate::record_file::{RecordFile, RecordPtr};
use prima_mad::value::AtomTypeId;
use prima_storage::{PageSize, StorageSystem};
use std::sync::Arc;

/// A vertical partition of one atom type.
pub struct Partition {
    pub id: StructureId,
    pub name: String,
    pub atom_type: AtomTypeId,
    /// Attribute indices stored in this partition (the IDENTIFIER
    /// attribute is always included so records are self-identifying).
    pub attrs: Vec<usize>,
    file: RecordFile,
}

impl Partition {
    /// Creates an empty partition over a fresh segment. Small page size:
    /// partition records are narrow, and dense packing is their point.
    pub fn create(
        storage: Arc<StorageSystem>,
        id: StructureId,
        name: impl Into<String>,
        atom_type: AtomTypeId,
        mut attrs: Vec<usize>,
        identifier_idx: usize,
    ) -> AccessResult<Partition> {
        if !attrs.contains(&identifier_idx) {
            attrs.push(identifier_idx);
        }
        attrs.sort_unstable();
        attrs.dedup();
        Ok(Partition {
            id,
            name: name.into(),
            atom_type,
            attrs,
            file: RecordFile::create_with(storage, PageSize::K1, false)?,
        })
    }

    /// True if every attribute in `needed` is stored here — then a read
    /// with that projection (or an SSA over those attributes) can be
    /// routed to the partition.
    pub fn covers(&self, needed: &[usize]) -> bool {
        needed.iter().all(|a| self.attrs.contains(a))
    }

    /// Stores the projection of `atom`, returning the record pointer for
    /// the address table.
    pub fn store(&self, atom: &Atom) -> AccessResult<RecordPtr> {
        let projected = atom.project(&self.attrs);
        self.file.insert(&projected.encode())
    }

    /// Replaces a stored projection (deferred or immediate maintenance).
    pub fn update(&self, ptr: RecordPtr, atom: &Atom) -> AccessResult<RecordPtr> {
        let projected = atom.project(&self.attrs);
        self.file.update(ptr, &projected.encode())
    }

    /// Removes a stored projection.
    pub fn remove(&self, ptr: RecordPtr) -> AccessResult<()> {
        self.file.delete(ptr)
    }

    /// Reads the projected atom stored at `ptr`.
    pub fn read(&self, ptr: RecordPtr) -> AccessResult<Atom> {
        Atom::decode(&self.file.read(ptr)?)
    }

    /// The partition's record file (read by the partition scan).
    pub(crate) fn file(&self) -> &RecordFile {
        &self.file
    }

    /// Sequential scan over the partition (physical order).
    pub fn for_each(&self, mut f: impl FnMut(RecordPtr, Atom) -> AccessResult<()>) -> AccessResult<()> {
        self.file.for_each(|ptr, bytes| f(ptr, Atom::decode(bytes)?))
    }

    /// Pages occupied — the density advantage measured by experiment
    /// E-T2.1c.
    pub fn page_count(&self) -> usize {
        self.file.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_mad::value::{AtomId, Value};

    fn wide_atom(seq: u64) -> Atom {
        Atom::new(
            AtomId::new(0, seq),
            vec![
                Value::Id(AtomId::new(0, seq)),
                Value::Int(seq as i64),
                Value::Str("x".repeat(100)), // wide payload outside partition
                Value::Real(0.5),
            ],
        )
    }

    fn part() -> Partition {
        let storage = Arc::new(StorageSystem::in_memory(1 << 20));
        // Store attrs {1}; identifier (0) is added automatically.
        Partition::create(storage, 7, "p_no", 0, vec![1], 0).unwrap()
    }

    #[test]
    fn store_and_read_projection() {
        let p = part();
        let a = wide_atom(1);
        let ptr = p.store(&a).unwrap();
        let back = p.read(ptr).unwrap();
        assert_eq!(back.id, a.id);
        assert_eq!(back.values[1], Value::Int(1));
        assert_eq!(back.values[2], Value::Null, "unselected attribute is nulled");
    }

    #[test]
    fn covers_routing() {
        let p = part();
        assert!(p.covers(&[0]));
        assert!(p.covers(&[1]));
        assert!(p.covers(&[0, 1]));
        assert!(!p.covers(&[2]));
        assert!(!p.covers(&[1, 3]));
    }

    #[test]
    fn partition_is_denser_than_base() {
        let storage = Arc::new(StorageSystem::in_memory(4 << 20));
        let base = RecordFile::create(Arc::clone(&storage), PageSize::K1).unwrap();
        let p = Partition::create(Arc::clone(&storage), 1, "narrow", 0, vec![1], 0).unwrap();
        for i in 0..500 {
            let a = wide_atom(i);
            base.insert(&a.encode()).unwrap();
            p.store(&a).unwrap();
        }
        assert!(
            p.page_count() * 2 < base.page_count(),
            "partition {} pages vs base {} pages",
            p.page_count(),
            base.page_count()
        );
    }

    #[test]
    fn update_and_remove() {
        let p = part();
        let mut a = wide_atom(1);
        let ptr = p.store(&a).unwrap();
        a.values[1] = Value::Int(99);
        let ptr2 = p.update(ptr, &a).unwrap();
        assert_eq!(p.read(ptr2).unwrap().values[1], Value::Int(99));
        p.remove(ptr2).unwrap();
        assert!(p.read(ptr2).is_err());
    }

    #[test]
    fn scan_visits_all() {
        let p = part();
        for i in 0..40 {
            p.store(&wide_atom(i)).unwrap();
        }
        let mut n = 0;
        p.for_each(|_, atom| {
            assert_eq!(atom.values[2], Value::Null);
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 40);
    }
}
