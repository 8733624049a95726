//! Atom clusters: physical contiguity for frequently used molecules.
//!
//! "In order to speed up construction of frequently used molecules, we
//! introduce the concept of atom clusters. They serve to allocate in
//! physical contiguity all atoms of the 'main lanes' to be traversed
//! during molecule derivation. […] An atom-cluster type is declared by
//! naming the atom types whose atoms are to be clustered. Such an atom
//! cluster corresponds mostly to a heterogeneous […] atom set defined by a
//! so-called characteristic atom. This characteristic atom simply
//! contains references to all atoms, grouped by atom types, belonging to
//! the atom cluster (Fig. 3.2a). Inserting a characteristic atom generates
//! a new atom cluster […] Modifying a characteristic atom adds new atoms
//! […] whereas deleting a characteristic atom deletes a whole atom
//! cluster." (Section 3.2.)
//!
//! The mapping follows Fig. 3.2 exactly: the whole cluster is **one
//! physical record** (b) stored in a **page sequence** (c); an auxiliary
//! directory at the head of the record gives *relative addressing* so a
//! single member atom can be fetched without reading the whole sequence.

use crate::addressing::StructureId;
use crate::atom::Atom;
use crate::error::{AccessError, AccessResult};
use parking_lot::{rank, RwLock};
use prima_mad::value::{AtomId, AtomTypeId};
use prima_storage::bytes::{le_u16, le_u32, le_u64};
use prima_storage::{PageSeqHandle, PageSequence, PageSize, SegmentId, StorageSystem};
use std::collections::HashMap;
use std::sync::Arc;

/// Directory entry size: atom type (2) + seq (8) + offset (4) + len (4).
const DIR_ENTRY: usize = 18;

/// An atom-cluster type: the redundant structure materialising one page
/// sequence per characteristic atom.
pub struct AtomClusterType {
    pub id: StructureId,
    pub name: String,
    /// The characteristic atom type whose reference attributes define the
    /// cluster membership.
    pub char_type: AtomTypeId,
    /// Reference attributes of `char_type` whose targets are clustered
    /// (in declaration order — the "grouped by atom types" of the paper).
    pub member_attrs: Vec<usize>,
    storage: Arc<StorageSystem>,
    segment: SegmentId,
    // lockrank: access.1 — registry peer; transient holds.
    clusters: RwLock<HashMap<AtomId, PageSeqHandle>>,
}

impl AtomClusterType {
    /// Declares a cluster type; its page sequences live in a fresh
    /// segment.
    pub fn create(
        storage: Arc<StorageSystem>,
        id: StructureId,
        name: impl Into<String>,
        char_type: AtomTypeId,
        member_attrs: Vec<usize>,
        page_size: PageSize,
    ) -> AccessResult<AtomClusterType> {
        let segment = storage.create_segment(page_size, false)?;
        Ok(AtomClusterType {
            id,
            name: name.into(),
            char_type,
            member_attrs,
            storage,
            segment,
            clusters: RwLock::new_ranked(HashMap::new(), rank::ACCESS + 1),
        })
    }

    /// Serialises members into the cluster record: directory first, atom
    /// images after (offsets relative to the start of the record).
    fn encode_cluster(atoms: &[Atom]) -> Vec<u8> {
        let images: Vec<Vec<u8>> = atoms.iter().map(super::atom::Atom::encode).collect();
        let dir_len = 4 + atoms.len() * DIR_ENTRY;
        let total: usize = dir_len + images.iter().map(std::vec::Vec::len).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&(atoms.len() as u32).to_le_bytes());
        let mut offset = dir_len;
        for (a, img) in atoms.iter().zip(&images) {
            out.extend_from_slice(&a.id.atom_type.to_le_bytes());
            out.extend_from_slice(&a.id.seq.to_le_bytes());
            out.extend_from_slice(&(offset as u32).to_le_bytes());
            out.extend_from_slice(&(img.len() as u32).to_le_bytes());
            offset += img.len();
        }
        for img in &images {
            out.extend_from_slice(img);
        }
        out
    }

    fn decode_directory(dir: &[u8]) -> Vec<(AtomId, u32, u32)> {
        let n = le_u32(&dir[0..4]) as usize;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let base = 4 + i * DIR_ENTRY;
            let t = le_u16(&dir[base..base + 2]);
            let s = le_u64(&dir[base + 2..base + 10]);
            let off = le_u32(&dir[base + 10..base + 14]);
            let len = le_u32(&dir[base + 14..base + 18]);
            out.push((AtomId::new(t, s), off, len));
        }
        out
    }

    /// Builds (or rebuilds) the cluster for `characteristic` from the
    /// already-fetched member atoms. The access system passes the members
    /// it resolved through the characteristic atom's references.
    pub fn materialize(&self, characteristic: AtomId, members: &[Atom]) -> AccessResult<()> {
        let blob = Self::encode_cluster(members);
        let mut clusters = self.clusters.write();
        match clusters.get(&characteristic) {
            Some(&handle) => {
                PageSequence::overwrite(&self.storage, handle, &blob)?;
            }
            None => {
                let handle = PageSequence::create(&self.storage, self.segment, &blob)?;
                clusters.insert(characteristic, handle);
            }
        }
        Ok(())
    }

    /// Deletes the cluster of `characteristic` (the characteristic atom
    /// was deleted).
    pub fn drop_cluster(&self, characteristic: AtomId) -> AccessResult<bool> {
        let handle = self.clusters.write().remove(&characteristic);
        match handle {
            Some(h) => {
                PageSequence::delete(&self.storage, h)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// True if a cluster is materialised for this characteristic atom.
    pub fn contains(&self, characteristic: AtomId) -> bool {
        self.clusters.read().contains_key(&characteristic)
    }

    /// All characteristic atoms with materialised clusters, in id order
    /// (the "system-defined order" of the atom-cluster-type scan).
    pub fn characteristic_atoms(&self) -> Vec<AtomId> {
        let mut v: Vec<AtomId> = self.clusters.read().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Reads the entire cluster — one chained I/O run when contiguous
    /// (Fig. 3.2c) — and decodes all member atoms.
    pub fn read_all(&self, characteristic: AtomId) -> AccessResult<Vec<Atom>> {
        let handle = self.handle(characteristic)?;
        let blob = PageSequence::read_all(&self.storage, handle)?;
        let dir = Self::decode_directory(&blob);
        let mut out = Vec::with_capacity(dir.len());
        for (_, off, len) in dir {
            out.push(Atom::decode(&blob[off as usize..(off + len) as usize])?);
        }
        Ok(out)
    }

    /// Member ids in cluster order, read from the directory only (header
    /// pages, no member transfer).
    pub fn members(&self, characteristic: AtomId) -> AccessResult<Vec<AtomId>> {
        let handle = self.handle(characteristic)?;
        let dir = self.read_directory(handle)?;
        Ok(dir.into_iter().map(|(id, _, _)| id).collect())
    }

    /// Direct access to a single member atom via relative addressing:
    /// only the directory and the pages covering the atom are read.
    // lint: allow(dead-surface, Fig. 3.2's relative addressing of one cluster member, pinned by tests/cluster_mapping.rs)
    pub fn read_one(&self, characteristic: AtomId, member: AtomId) -> AccessResult<Option<Atom>> {
        let handle = self.handle(characteristic)?;
        let dir = self.read_directory(handle)?;
        let Some(&(_, off, len)) = dir.iter().find(|(id, _, _)| *id == member) else {
            return Ok(None);
        };
        let bytes = PageSequence::read_relative(&self.storage, handle, off as usize, len as usize)?;
        Ok(Some(Atom::decode(&bytes)?))
    }

    /// All member atoms of one atom type within one cluster (the
    /// atom-cluster scan's source, Section 3.2).
    pub fn read_type(&self, characteristic: AtomId, t: AtomTypeId) -> AccessResult<Vec<Atom>> {
        let handle = self.handle(characteristic)?;
        let dir = self.read_directory(handle)?;
        let mut out = Vec::new();
        for (id, off, len) in dir {
            if id.atom_type == t {
                let bytes =
                    PageSequence::read_relative(&self.storage, handle, off as usize, len as usize)?;
                out.push(Atom::decode(&bytes)?);
            }
        }
        Ok(out)
    }

    fn handle(&self, characteristic: AtomId) -> AccessResult<PageSeqHandle> {
        self.clusters
            .read()
            .get(&characteristic)
            .copied()
            .ok_or(AccessError::NotACharacteristicAtom(characteristic))
    }

    fn read_directory(&self, handle: PageSeqHandle) -> AccessResult<Vec<(AtomId, u32, u32)>> {
        let head = PageSequence::read_relative(&self.storage, handle, 0, 4)?;
        if head.len() < 4 {
            return Ok(Vec::new());
        }
        let n = le_u32(&head[0..4]) as usize;
        let dir = PageSequence::read_relative(&self.storage, handle, 0, 4 + n * DIR_ENTRY)?;
        Ok(Self::decode_directory(&dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_mad::value::Value;

    fn member(t: AtomTypeId, seq: u64, payload: usize) -> Atom {
        Atom::new(
            AtomId::new(t, seq),
            vec![Value::Id(AtomId::new(t, seq)), Value::Str("m".repeat(payload))],
        )
    }

    fn cluster_type(storage: &Arc<StorageSystem>) -> AtomClusterType {
        AtomClusterType::create(
            Arc::clone(storage),
            11,
            "brep_cluster",
            9,
            vec![1, 2, 3],
            PageSize::K1,
        )
        .unwrap()
    }

    #[test]
    fn materialize_and_read_all() {
        let storage = Arc::new(StorageSystem::in_memory(4 << 20));
        let ct = cluster_type(&storage);
        let ch = AtomId::new(9, 1);
        let members: Vec<Atom> =
            (0..20).map(|i| member(1 + (i % 3) as u16, i, 50)).collect();
        ct.materialize(ch, &members).unwrap();
        assert!(ct.contains(ch));
        let back = ct.read_all(ch).unwrap();
        assert_eq!(back, members);
    }

    #[test]
    fn whole_cluster_read_is_chained() {
        let storage = Arc::new(StorageSystem::in_memory(4 << 20));
        let ct = cluster_type(&storage);
        let ch = AtomId::new(9, 1);
        let members: Vec<Atom> = (0..100).map(|i| member(1, i, 100)).collect();
        ct.materialize(ch, &members).unwrap();
        storage.flush().unwrap();
        let before = storage.io_stats().snapshot();
        let _ = ct.read_all(ch).unwrap();
        let io = storage.io_stats().snapshot().since(&before);
        assert_eq!(io.chained_runs, 1, "cluster read must use chained I/O");
    }

    #[test]
    fn single_member_access_reads_few_pages() {
        let storage = Arc::new(StorageSystem::in_memory(4 << 20));
        let ct = cluster_type(&storage);
        let ch = AtomId::new(9, 1);
        let members: Vec<Atom> = (0..200).map(|i| member(1, i, 100)).collect();
        ct.materialize(ch, &members).unwrap();
        storage.flush().unwrap();
        let before = storage.io_stats().snapshot();
        let got = ct.read_one(ch, AtomId::new(1, 150)).unwrap().unwrap();
        assert_eq!(got.id.seq, 150);
        let io = storage.io_stats().snapshot().since(&before);
        let total_pages = 200 * 120 / PageSize::K1.payload() + 1;
        assert!(
            (io.block_reads as usize) < total_pages / 2,
            "relative addressing must beat a full read: {} blocks",
            io.block_reads
        );
    }

    #[test]
    fn read_type_filters_members() {
        let storage = Arc::new(StorageSystem::in_memory(4 << 20));
        let ct = cluster_type(&storage);
        let ch = AtomId::new(9, 1);
        let members: Vec<Atom> = (0..30).map(|i| member(1 + (i % 3) as u16, i, 10)).collect();
        ct.materialize(ch, &members).unwrap();
        let t2 = ct.read_type(ch, 2).unwrap();
        assert_eq!(t2.len(), 10);
        assert!(t2.iter().all(|a| a.id.atom_type == 2));
    }

    #[test]
    fn modify_rematerialises() {
        let storage = Arc::new(StorageSystem::in_memory(4 << 20));
        let ct = cluster_type(&storage);
        let ch = AtomId::new(9, 1);
        ct.materialize(ch, &[member(1, 1, 10)]).unwrap();
        // Grow the cluster.
        let bigger: Vec<Atom> = (0..50).map(|i| member(1, i, 40)).collect();
        ct.materialize(ch, &bigger).unwrap();
        assert_eq!(ct.read_all(ch).unwrap().len(), 50);
        // Shrink again.
        ct.materialize(ch, &[member(1, 7, 10)]).unwrap();
        let back = ct.read_all(ch).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].id.seq, 7);
        assert_eq!(ct.characteristic_atoms().len(), 1);
    }

    #[test]
    fn drop_cluster_frees_and_forgets() {
        let storage = Arc::new(StorageSystem::in_memory(4 << 20));
        let ct = cluster_type(&storage);
        let ch = AtomId::new(9, 1);
        ct.materialize(ch, &[member(1, 1, 10)]).unwrap();
        assert!(ct.drop_cluster(ch).unwrap());
        assert!(!ct.drop_cluster(ch).unwrap());
        assert!(!ct.contains(ch));
        assert!(matches!(
            ct.read_all(ch),
            Err(AccessError::NotACharacteristicAtom(_))
        ));
    }

    #[test]
    fn characteristic_atoms_in_order() {
        let storage = Arc::new(StorageSystem::in_memory(4 << 20));
        let ct = cluster_type(&storage);
        for seq in [5u64, 1, 3] {
            ct.materialize(AtomId::new(9, seq), &[member(1, seq, 5)]).unwrap();
        }
        let chars = ct.characteristic_atoms();
        assert_eq!(
            chars,
            vec![AtomId::new(9, 1), AtomId::new(9, 3), AtomId::new(9, 5)]
        );
    }

    #[test]
    fn members_reads_directory_only() {
        let storage = Arc::new(StorageSystem::in_memory(4 << 20));
        let ct = cluster_type(&storage);
        let ch = AtomId::new(9, 1);
        let members: Vec<Atom> = (0..100).map(|i| member(1, i, 200)).collect();
        ct.materialize(ch, &members).unwrap();
        storage.flush().unwrap();
        let before = storage.io_stats().snapshot();
        let ids = ct.members(ch).unwrap();
        assert_eq!(ids.len(), 100);
        let io = storage.io_stats().snapshot().since(&before);
        assert!(io.block_reads < 10, "directory read touched {} blocks", io.block_reads);
    }

    #[test]
    fn empty_cluster_round_trips() {
        let storage = Arc::new(StorageSystem::in_memory(4 << 20));
        let ct = cluster_type(&storage);
        let ch = AtomId::new(9, 1);
        ct.materialize(ch, &[]).unwrap();
        assert_eq!(ct.read_all(ch).unwrap(), Vec::<Atom>::new());
        assert_eq!(ct.members(ch).unwrap(), Vec::<AtomId>::new());
    }
}
