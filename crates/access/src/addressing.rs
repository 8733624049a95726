//! Logical addressing: the n:m mapping between atoms and physical records.
//!
//! "Depending on the storage structure, a physical record corresponds to
//! either a part of an atom (a partition), an entire atom (in a sort
//! order) or an atom cluster. This establishes an n:m relationship between
//! atoms and physical records, whereas the usual mapping of conceptual to
//! internal schema is built on a 1:1 relationship. A sophisticated
//! addressing structure is required to manage such n:m relationships
//! \[Si87\]." (Section 3.2.)
//!
//! [`AddressTable`] is that structure: for every atom it records the
//! *primary* record (in the atom type's base file) and every *redundant
//! placement* in a tuning structure, tagged with the owning structure and
//! a staleness bit used by deferred update: a stale copy must not be used
//! until reconciled.
//!
//! ## Layout
//!
//! Surrogates are dense per-type sequences (`AtomId { atom_type, seq }`,
//! handed out from 1 and never reused), so the primary pointers are one
//! array of [`RecordPtr`] per atom type, indexed by `seq`: looking an
//! atom up is two bounds-checked indexings, no hashing. A slot no live
//! atom occupies — never allocated, deleted, or not yet re-attached at
//! restart — holds a sentinel pointer no page can have. An array is as
//! long as the highest surrogate of its type ever registered, so memory
//! grows with that surrogate (8 bytes each), not with the live count:
//! deletes leave holes that are never compacted.
//!
//! Redundant placements stay keyed by [`AtomId`]. That map holds only
//! atoms with a copy in some structure, so it is empty unless an LDL
//! structure exists.

use crate::record_file::RecordPtr;
use parking_lot::{rank, ShardedLock, ShardedLockReadGuard};
use prima_mad::value::AtomId;
use std::collections::HashMap;

/// Identifier of a tuning structure instance (partition, sort order,
/// cluster …), assigned by the access system.
pub type StructureId = u32;

/// One redundant placement of an atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    pub structure: StructureId,
    pub ptr: RecordPtr,
    /// Set while a deferred update is pending on this copy.
    pub stale: bool,
}

/// The empty slot of a primary array: no record lives at this pointer.
const NO_RECORD: RecordPtr = RecordPtr { page: u32::MAX, slot: u16::MAX };

/// What the latch protects.
#[derive(Debug, Default)]
struct Addresses {
    /// `primary[atom_type][seq]`: the atom's record in its type's base
    /// file, or [`NO_RECORD`].
    primary: Vec<Vec<RecordPtr>>,
    /// Redundant copies in tuning structures, by atom; an atom without
    /// copies has no entry.
    redundant: HashMap<AtomId, Vec<Placement>>,
}

impl Addresses {
    fn primary(&self, id: AtomId) -> Option<RecordPtr> {
        let of_type = self.primary.get(usize::from(id.atom_type))?;
        let ptr = *of_type.get(id.seq as usize)?;
        (ptr != NO_RECORD).then_some(ptr)
    }

    /// The slot of `id`, growing its type's array to reach it.
    fn slot(&mut self, id: AtomId) -> &mut RecordPtr {
        let (t, seq) = (usize::from(id.atom_type), id.seq as usize);
        if self.primary.len() <= t {
            self.primary.resize_with(t + 1, Vec::new);
        }
        let of_type = &mut self.primary[t];
        if of_type.len() <= seq {
            of_type.resize(seq + 1, NO_RECORD);
        }
        &mut of_type[seq]
    }
}

/// The addressing structure. Interior-mutable; shared by the access
/// system's components.
#[derive(Debug)]
pub struct AddressTable {
    // lockrank: buffer.1 — atom → location arrays and map, reader-striped
    // (a read locks its thread's stripe, a write every stripe, as one
    // rank acquisition). Transient holds only, but callers update it from inside `RecordFile::for_each`
    // page-guard callbacks (frame → this), so it sits just above the
    // buffer peer group and below the WAL ranks. Nothing fixes a page
    // while holding it (a batch read resolves its ids under one read
    // hold, then fixes pages after releasing it).
    latch: ShardedLock<Addresses>,
}

/// One read hold of the table's primary pointers, for resolving a batch
/// of ids under one latch acquisition. Fixing a page while it is held
/// breaks the lock order.
pub(crate) struct Primaries<'a>(ShardedLockReadGuard<'a, Addresses>);

impl Primaries<'_> {
    /// Primary record pointer, if the atom exists.
    pub fn get(&self, id: AtomId) -> Option<RecordPtr> {
        self.0.primary(id)
    }
}

impl Default for AddressTable {
    fn default() -> Self {
        AddressTable { latch: ShardedLock::new_ranked(Addresses::default(), rank::BUFFER + 1) }
    }
}

impl AddressTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a freshly inserted (or moved) atom's primary record.
    pub fn set_primary(&self, id: AtomId, ptr: RecordPtr) {
        *self.latch.write().slot(id) = ptr;
    }

    /// Registers `id`'s primary record unless it already has one (the
    /// restart scan met a record twice); returns whether it registered.
    pub(crate) fn attach(&self, id: AtomId, ptr: RecordPtr) -> bool {
        let mut addresses = self.latch.write();
        let slot = addresses.slot(id);
        let fresh = *slot == NO_RECORD;
        if fresh {
            *slot = ptr;
        }
        fresh
    }

    /// Primary record pointer, if the atom exists.
    pub fn primary(&self, id: AtomId) -> Option<RecordPtr> {
        self.latch.read().primary(id)
    }

    /// The primary pointers under one read hold (see [`Primaries`]).
    pub(crate) fn primaries(&self) -> Primaries<'_> {
        Primaries(self.latch.read())
    }

    /// True if the atom is known.
    pub fn exists(&self, id: AtomId) -> bool {
        self.primary(id).is_some()
    }

    /// Adds (or replaces) the placement of `id` in `structure`.
    pub fn set_placement(&self, id: AtomId, structure: StructureId, ptr: RecordPtr) {
        let mut addresses = self.latch.write();
        let placements = addresses.redundant.entry(id).or_default();
        if let Some(p) = placements.iter_mut().find(|p| p.structure == structure) {
            p.ptr = ptr;
            p.stale = false;
        } else {
            placements.push(Placement { structure, ptr, stale: false });
        }
    }

    /// Removes the placement of `id` in `structure`, returning it.
    pub fn remove_placement(&self, id: AtomId, structure: StructureId) -> Option<Placement> {
        let mut addresses = self.latch.write();
        let placements = addresses.redundant.get_mut(&id)?;
        let idx = placements.iter().position(|p| p.structure == structure)?;
        let removed = placements.remove(idx);
        if placements.is_empty() {
            addresses.redundant.remove(&id);
        }
        Some(removed)
    }

    /// Marks the copy in `structure` stale (deferred update pending).
    /// Returns true if such a placement exists.
    pub fn mark_stale(&self, id: AtomId, structure: StructureId) -> bool {
        let mut addresses = self.latch.write();
        if let Some(p) = addresses
            .redundant
            .get_mut(&id)
            .and_then(|placements| placements.iter_mut().find(|p| p.structure == structure))
        {
            p.stale = true;
            true
        } else {
            false
        }
    }

    /// The placement of `id` in `structure`, if any.
    pub fn placement(&self, id: AtomId, structure: StructureId) -> Option<Placement> {
        self.latch
            .read()
            .redundant
            .get(&id)
            .and_then(|placements| placements.iter().find(|p| p.structure == structure).copied())
    }

    /// All placements of an atom (primary excluded).
    #[cfg(test)]
    pub fn placements(&self, id: AtomId) -> Vec<Placement> {
        self.latch.read().redundant.get(&id).cloned().unwrap_or_default()
    }

    /// Number of *fresh* (non-stale) redundant copies.
    #[cfg(test)]
    pub fn fresh_copies(&self, id: AtomId) -> usize {
        self.latch
            .read()
            .redundant
            .get(&id)
            .map_or(0, |placements| placements.iter().filter(|p| !p.stale).count())
    }

    /// Drops the atom entirely (on delete): its placements go and its
    /// slot becomes a hole. Returns the primary record it had.
    pub fn remove_atom(&self, id: AtomId) -> Option<RecordPtr> {
        let mut addresses = self.latch.write();
        addresses.redundant.remove(&id);
        let ptr = addresses.primary(id)?;
        *addresses.slot(id) = NO_RECORD;
        Some(ptr)
    }

    /// Removes every placement belonging to `structure` (structure drop),
    /// returning the affected atoms.
    pub fn drop_structure(&self, structure: StructureId) -> Vec<AtomId> {
        let mut out = Vec::new();
        self.latch.write().redundant.retain(|id, placements| {
            let before = placements.len();
            placements.retain(|p| p.structure != structure);
            if placements.len() != before {
                out.push(*id);
            }
            !placements.is_empty()
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(p: u32, s: u16) -> RecordPtr {
        RecordPtr { page: p, slot: s }
    }

    #[test]
    fn primary_lifecycle() {
        let t = AddressTable::new();
        let id = AtomId::new(1, 1);
        assert!(!t.exists(id));
        t.set_primary(id, ptr(0, 0));
        assert!(t.exists(id));
        assert_eq!(t.primary(id), Some(ptr(0, 0)));
        t.remove_atom(id);
        assert!(!t.exists(id));
    }

    #[test]
    fn n_to_m_placements() {
        let t = AddressTable::new();
        let id = AtomId::new(1, 1);
        t.set_primary(id, ptr(0, 0));
        t.set_placement(id, 10, ptr(5, 1));
        t.set_placement(id, 11, ptr(9, 2));
        assert_eq!(t.placements(id).len(), 2);
        assert_eq!(t.fresh_copies(id), 2);
        // Replacing a placement keeps one entry per structure.
        t.set_placement(id, 10, ptr(6, 0));
        assert_eq!(t.placements(id).len(), 2);
        assert_eq!(t.placement(id, 10).unwrap().ptr, ptr(6, 0));
    }

    #[test]
    fn staleness_tracking() {
        let t = AddressTable::new();
        let id = AtomId::new(1, 1);
        t.set_primary(id, ptr(0, 0));
        t.set_placement(id, 10, ptr(5, 1));
        assert!(t.mark_stale(id, 10));
        assert_eq!(t.fresh_copies(id), 0);
        assert!(t.placement(id, 10).unwrap().stale);
        // Re-placing clears staleness (the deferred update completed).
        t.set_placement(id, 10, ptr(5, 1));
        assert_eq!(t.fresh_copies(id), 1);
        assert!(!t.mark_stale(id, 99), "unknown structure");
    }

    #[test]
    fn drop_structure_removes_all_its_placements() {
        let t = AddressTable::new();
        for i in 0..5 {
            let id = AtomId::new(1, i);
            t.set_primary(id, ptr(i as u32, 0));
            t.set_placement(id, 7, ptr(100 + i as u32, 0));
        }
        let affected = t.drop_structure(7);
        assert_eq!(affected.len(), 5);
        for i in 0..5 {
            assert!(t.placements(AtomId::new(1, i)).is_empty());
            assert!(t.exists(AtomId::new(1, i)), "primary untouched");
        }
    }

    /// What the table must answer, kept the simplest way: one hashed map
    /// for primaries, one for placements (insertion order per atom).
    #[derive(Default)]
    struct Model {
        primary: HashMap<AtomId, RecordPtr>,
        redundant: HashMap<AtomId, Vec<Placement>>,
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        SetPrimary(AtomId, RecordPtr),
        /// Reopen's duplicate check.
        Attach(AtomId, RecordPtr),
        /// A delete's removal.
        Remove(AtomId),
        /// A rollback's restore under the original id: the existence
        /// check `restore_atom` makes, then the new primary.
        Restore(AtomId, RecordPtr),
        SetPlacement(AtomId, StructureId, RecordPtr),
        RemovePlacement(AtomId, StructureId),
        MarkStale(AtomId, StructureId),
        DropStructure(StructureId),
    }

    /// Three types, surrogates 0..40 (0 is never handed out, but the
    /// table must answer for it) — small enough that deletes leave holes
    /// and ids come back.
    fn op(kind: u8, t: u16, seq: u8, s: u8, page: u16) -> Op {
        let id = AtomId::new(t % 3, u64::from(seq % 40));
        let ptr = ptr(u32::from(page), page % 7);
        let s = StructureId::from(s % 3);
        match kind % 8 {
            0 => Op::SetPrimary(id, ptr),
            1 => Op::Attach(id, ptr),
            2 => Op::Remove(id),
            3 => Op::Restore(id, ptr),
            4 => Op::SetPlacement(id, s, ptr),
            5 => Op::RemovePlacement(id, s),
            6 => Op::MarkStale(id, s),
            _ => Op::DropStructure(s),
        }
    }

    fn check_against_model(ops: &[(u8, u16, u8, u8, u16)]) {
        let t = AddressTable::new();
        let mut m = Model::default();
        for &(kind, ty, seq, s, page) in ops {
            let op = op(kind, ty, seq, s, page);
            match op {
                Op::SetPrimary(id, p) => {
                    t.set_primary(id, p);
                    m.primary.insert(id, p);
                }
                Op::Attach(id, p) => {
                    let fresh = !m.primary.contains_key(&id);
                    if fresh {
                        m.primary.insert(id, p);
                    }
                    assert_eq!(t.attach(id, p), fresh, "{op:?}");
                }
                Op::Remove(id) => {
                    m.redundant.remove(&id);
                    assert_eq!(t.remove_atom(id), m.primary.remove(&id), "{op:?}");
                }
                Op::Restore(id, p) => {
                    assert_eq!(t.exists(id), m.primary.contains_key(&id), "{op:?}");
                    if !t.exists(id) {
                        t.set_primary(id, p);
                        m.primary.insert(id, p);
                    }
                }
                Op::SetPlacement(id, s, p) => {
                    t.set_placement(id, s, p);
                    let placements = m.redundant.entry(id).or_default();
                    match placements.iter_mut().find(|pl| pl.structure == s) {
                        Some(pl) => *pl = Placement { structure: s, ptr: p, stale: false },
                        None => placements.push(Placement { structure: s, ptr: p, stale: false }),
                    }
                }
                Op::RemovePlacement(id, s) => {
                    let removed = m.redundant.get_mut(&id).and_then(|placements| {
                        let i = placements.iter().position(|pl| pl.structure == s)?;
                        Some(placements.remove(i))
                    });
                    assert_eq!(t.remove_placement(id, s), removed, "{op:?}");
                }
                Op::MarkStale(id, s) => {
                    let found = m
                        .redundant
                        .get_mut(&id)
                        .and_then(|placements| placements.iter_mut().find(|pl| pl.structure == s))
                        .map(|pl| pl.stale = true)
                        .is_some();
                    assert_eq!(t.mark_stale(id, s), found, "{op:?}");
                }
                Op::DropStructure(s) => {
                    let mut expected: Vec<AtomId> = m
                        .redundant
                        .iter_mut()
                        .filter_map(|(id, placements)| {
                            let before = placements.len();
                            placements.retain(|pl| pl.structure != s);
                            (placements.len() != before).then_some(*id)
                        })
                        .collect();
                    let mut affected = t.drop_structure(s);
                    expected.sort();
                    affected.sort();
                    assert_eq!(affected, expected, "{op:?}");
                }
            }
            m.redundant.retain(|_, placements| !placements.is_empty());
            // Every id of the universe, and ids beyond every array.
            let universe = || {
                (0..4).flat_map(|ty| (0..42).chain([u64::MAX]).map(move |seq| AtomId::new(ty, seq)))
            };
            let primaries = t.primaries();
            for id in universe() {
                assert_eq!(primaries.get(id), m.primary.get(&id).copied(), "{id} after {op:?}");
            }
            drop(primaries);
            for id in universe() {
                let placements = m.redundant.get(&id).cloned().unwrap_or_default();
                assert_eq!(t.placements(id), placements, "{id} after {op:?}");
                for s in 0..3 {
                    let want = placements.iter().find(|pl| pl.structure == s).copied();
                    assert_eq!(t.placement(id, s), want, "{id} in {s} after {op:?}");
                }
                let fresh = placements.iter().filter(|pl| !pl.stale).count();
                assert_eq!(t.fresh_copies(id), fresh, "{id} after {op:?}");
            }
            // The placement map holds only atoms with copies: empty once
            // no structure has any.
            assert_eq!(t.latch.read().redundant.len(), m.redundant.len(), "after {op:?}");
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn table_matches_hashed_model(
            ops in prop::collection::vec(
                (any::<u8>(), any::<u16>(), any::<u8>(), any::<u8>(), any::<u16>()),
                1..200,
            )
        ) {
            check_against_model(&ops);
        }
    }
}
