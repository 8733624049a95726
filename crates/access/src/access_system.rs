//! The access-system facade: the atom-oriented interface of PRIMA.
//!
//! Section 3.2's atom interface meets here: surrogate generation, direct
//! access by logical address, automatic back-reference maintenance and
//! `KEYS_ARE` uniqueness. This module keeps the per-type base record
//! files and the reads and writes over them; every write hands the
//! changed atom to the tuning structures ([`crate::structures`]:
//! partitions, sort orders, B*-trees, grid files, atom clusters), which
//! keep themselves up to date immediately or by deferred update.

use crate::addressing::AddressTable;
pub use crate::addressing::StructureId;
use crate::atom::Atom;
use crate::error::{AccessError, AccessResult};
use crate::integrity::{backref_ops, splice_backref, BackRefOp};
use crate::record_file::RecordFile;
use crate::structures::Registry;
use parking_lot::{rank, ShardedLock};
use prima_mad::codec::{encode_composite_key, encode_key};
use prima_mad::schema::Schema;
use prima_mad::value::{AtomId, AtomTypeId, Value};
use prima_storage::probe::{self, SpanKind};
use prima_storage::{PageSize, StorageSystem};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

prima_storage::counter_family! {
    /// Counters exposed for the experiments.
    pub struct AccessStats => AccessStatsSnapshot as "access" {
        /// Physical records written synchronously: by user operations and
        /// by filling a tuning structure at its creation (not by
        /// reconciliation).
        counter records_written,
        /// Implicit back-reference updates performed (system-enforced
        /// integrity).
        counter backref_updates,
        /// Reads satisfied from the primary record.
        counter primary_reads,
        /// Page-grouped batched reads executed (the non-degenerate
        /// `read_atoms_batch_into` path).
        counter batch_reads,
        /// Distinct data pages fixed across all batched reads.
        counter batch_pages,
        /// Atoms requested across all batched reads.
        counter batch_atoms,
    }
}

/// Uniqueness map of one `KEYS_ARE` attribute: encoded key -> atom.
/// Read by every key lookup, written only by inserts and key changes,
/// so it is reader-striped.
type KeyMap = ShardedLock<HashMap<Vec<u8>, AtomId>>;

/// A primary record a write is about to change, as shown to the write's
/// pre-write callback: after validation, **before** any page or key map
/// changes. The transaction layer turns it into a before-image: a WAL
/// undo record plus a version entry for the written atom, a
/// visibility-only version entry for a back-reference partner.
pub enum PreWrite<'a> {
    /// An insert, once its surrogate exists.
    Insert(AtomId),
    /// A modify: the atom's current value and the updates about to apply.
    Modify(&'a Atom, &'a [(usize, Value)]),
    /// A delete: the atom's current value.
    Delete(&'a Atom),
    /// A back-reference partner the write rewrites: its id, and a reader
    /// that reads and decodes its current value. The image is lazy: the
    /// partner rewrite itself never decodes the atom, and a callback that
    /// has no use for the image (the transaction already chained one)
    /// does not call the reader.
    Partner(AtomId, &'a dyn Fn() -> AccessResult<Atom>),
}

/// A write's pre-write callback, if anyone needs to see its
/// [`PreWrite`]s. It runs with no latch held — a partner's reader fixes
/// the partner's page from inside it, so the callback calls the reader
/// outside any latch of its own; an error stops the write before the
/// record it announces changes.
pub type OnPreWrite<'a> = Option<&'a dyn Fn(PreWrite<'_>) -> AccessResult<()>>;

/// Runs `pre` on `w`, if there is a callback.
fn before(pre: OnPreWrite<'_>, w: PreWrite<'_>) -> AccessResult<()> {
    pre.map_or(Ok(()), |f| f(w))
}

/// Primary-read requests of one batch that share a data page:
/// `((atom type, page), [(position in the batch, slot)])`.
type PageGroup = ((AtomTypeId, u32), Vec<(usize, u16)>);

/// Per-atom-type base storage.
struct TypeStore {
    file: RecordFile,
    next_seq: AtomicU64,
    /// One uniqueness map per `KEYS_ARE` attribute:
    /// encoded key value -> atom.
    // lockrank: buffer.1 — updated from inside `for_each` page-guard
    // callbacks at restart rescan, like the address table.
    key_maps: Vec<(usize, KeyMap)>,
    /// Live atom ids in insertion order (system-defined order of the
    /// atom-type scan is physical order; this is kept for statistics).
    count: AtomicU64,
}

/// The access system over one storage system and one schema.
pub struct AccessSystem {
    storage: Arc<StorageSystem>,
    schema: Schema,
    stores: Vec<TypeStore>,
    pub(crate) addresses: AddressTable,
    pub(crate) structures: Registry,
    pub(crate) stats: AccessStats,
}

impl AccessSystem {
    /// Builds an access system for a validated schema. One base record
    /// file (4K pages) per atom type.
    pub fn new(storage: Arc<StorageSystem>, schema: Schema) -> AccessResult<AccessSystem> {
        schema.validate()?;
        let files = schema
            .atom_types()
            .iter()
            .map(|_| RecordFile::create(Arc::clone(&storage), PageSize::K4))
            .collect::<AccessResult<Vec<_>>>()?;
        Ok(Self::with_files(storage, schema, files))
    }

    /// The one constructor: an access system over one base record file
    /// per atom type, in type order, with empty in-memory state.
    fn with_files(
        storage: Arc<StorageSystem>,
        schema: Schema,
        files: Vec<RecordFile>,
    ) -> AccessSystem {
        let stores = schema
            .atom_types()
            .iter()
            .zip(files)
            .map(|(at, file)| TypeStore {
                file,
                next_seq: AtomicU64::new(1),
                key_maps: at
                    .keys
                    .iter()
                    .filter_map(|k| at.attribute_index(k))
                    .map(|i| (i, ShardedLock::new_ranked(HashMap::new(), rank::BUFFER + 1)))
                    .collect(),
                count: AtomicU64::new(0),
            })
            .collect();
        AccessSystem {
            storage,
            schema,
            stores,
            addresses: AddressTable::new(),
            structures: Registry::default(),
            stats: AccessStats::default(),
        }
    }

    /// The base-record-file segment of every atom type, in type order —
    /// the access-layer half of the checkpoint's catalog snapshot.
    pub fn type_segments(&self) -> Vec<prima_storage::SegmentId> {
        self.stores.iter().map(|s| s.file.segment()).collect()
    }

    /// The surrogate counter of every atom type, in type order. Snapshot
    /// alongside [`AccessSystem::type_segments`]: surrogates are never
    /// reused, and a rescan alone cannot see the ids of atoms deleted
    /// before the crash.
    pub fn type_next_seqs(&self) -> Vec<u64> {
        self.stores.iter().map(|s| s.next_seq.load(Ordering::Relaxed)).collect()
    }

    /// Ensures the surrogate counter of `t` stays beyond `seq` — restart
    /// recovery feeds it every atom id found in the WAL tail (insert /
    /// modify / delete undo records), covering atoms allocated after the
    /// snapshot even when they no longer exist to be rescanned.
    pub fn note_allocated_seq(&self, t: AtomTypeId, seq: u64) -> AccessResult<()> {
        self.store_of(t)?.next_seq.fetch_max(seq + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Re-attaches an access system to existing storage after restart:
    /// each atom type's record file is re-attached to its snapshotted
    /// segment (`type_segments`, in type order), then scanned once to
    /// rebuild everything the access layer keeps in memory — the address
    /// table, `KEYS_ARE` uniqueness maps and live-atom counts. Surrogate
    /// counters resume from the *snapshot* (`type_next_seq`, same order;
    /// missing entries fall back to the scan) rather than the scan
    /// alone, so ids of atoms deleted before the crash are not handed
    /// out again; the caller additionally feeds WAL-tail allocations via
    /// [`AccessSystem::note_allocated_seq`]. Tuning structures are *not*
    /// recovered: they are redundant by definition and are re-created by
    /// re-running LDL.
    pub fn reopen(
        storage: Arc<StorageSystem>,
        schema: Schema,
        type_segments: &[prima_storage::SegmentId],
        type_next_seq: &[u64],
    ) -> AccessResult<AccessSystem> {
        schema.validate()?;
        let atom_types = schema.atom_types();
        if type_segments.len() != atom_types.len() {
            return Err(AccessError::RecoveryMismatch(format!(
                "snapshot has {} type segments but the schema declares {} atom types",
                type_segments.len(),
                atom_types.len()
            )));
        }
        let files = type_segments
            .iter()
            .map(|&segment| RecordFile::attach(Arc::clone(&storage), segment))
            .collect::<AccessResult<Vec<_>>>()?;
        let sys = Self::with_files(storage, schema, files);
        for (i, store) in sys.stores.iter().enumerate() {
            let mut max_seq = 0u64;
            let mut live = 0u64;
            let mut duplicates = Vec::new();
            store.file.for_each(|ptr, bytes| {
                let atom = Atom::decode(bytes)?;
                // A record move cut short by the crash left the record
                // twice (see `RecordFile::update`); its transaction is a
                // loser whose undo restores the values, so either copy
                // will do: keep the first.
                if !sys.addresses.attach(atom.id, ptr) {
                    duplicates.push(ptr);
                    return Ok(());
                }
                max_seq = max_seq.max(atom.id.seq);
                live += 1;
                for (attr, map) in &store.key_maps {
                    let v = &atom.values[*attr];
                    if !matches!(v, Value::Null) {
                        map.write()
                            .insert(encode_composite_key(std::slice::from_ref(v)), atom.id);
                    }
                }
                Ok(())
            })?;
            for ptr in duplicates {
                store.file.delete(ptr)?;
            }
            let snapshot_seq = type_next_seq.get(i).copied().unwrap_or(1);
            store.next_seq.store((max_seq + 1).max(snapshot_seq), Ordering::Relaxed);
            store.count.store(live, Ordering::Relaxed);
        }
        Ok(sys)
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn storage(&self) -> &Arc<StorageSystem> {
        &self.storage
    }

    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    fn store_of(&self, t: AtomTypeId) -> AccessResult<&TypeStore> {
        self.stores.get(t as usize).ok_or(AccessError::NoSuchAtomType(t))
    }

    /// Number of live atoms of a type.
    pub fn atom_count(&self, t: AtomTypeId) -> AccessResult<u64> {
        Ok(self.store_of(t)?.count.load(Ordering::Relaxed))
    }

    /// Base record file of a type (used by the atom-type scan).
    pub(crate) fn base_file(&self, t: AtomTypeId) -> AccessResult<&RecordFile> {
        Ok(&self.store_of(t)?.file)
    }

    // -----------------------------------------------------------------
    // Insert
    // -----------------------------------------------------------------

    /// Inserts an atom with positional values. The IDENTIFIER slot may be
    /// `Null`; the generated surrogate is placed there. Values may be
    /// shorter than the declared arity — missing attributes are unset
    /// ("values are assigned to all or only selected attributes").
    pub fn insert_atom(
        &self,
        t: AtomTypeId,
        values: Vec<Value>,
        pre: OnPreWrite<'_>,
    ) -> AccessResult<AtomId> {
        self.insert_body(t, None, values, pre)
    }

    /// Re-creates an atom under its *original* logical address (used by
    /// rollback to undo a delete — Section 4's selective in-transaction
    /// recovery). Behaves like insert (integrity, keys, structures) but
    /// does not generate a fresh surrogate.
    pub fn restore_atom(&self, atom: Atom) -> AccessResult<()> {
        self.insert_body(atom.id.atom_type, Some(atom.id), atom.values.into_vec(), None).map(drop)
    }

    /// The one insert body: under a fresh surrogate (`given` is `None`)
    /// or a given one that must not exist.
    fn insert_body(
        &self,
        t: AtomTypeId,
        given: Option<AtomId>,
        mut values: Vec<Value>,
        pre: OnPreWrite<'_>,
    ) -> AccessResult<AtomId> {
        let at = self.schema.atom_type(t).ok_or(AccessError::NoSuchAtomType(t))?;
        // Pad with type-appropriate null values.
        while values.len() < at.attributes.len() {
            values.push(at.attributes[values.len()].ty.null_value());
        }
        let store = self.store_of(t)?;
        let id = match given {
            Some(id) if self.addresses.exists(id) => return Err(AccessError::AtomAlreadyExists(id)),
            Some(id) => {
                // Surrogates are never reused: keep the counter beyond this id.
                store.next_seq.fetch_max(id.seq + 1, Ordering::Relaxed);
                id
            }
            None => AtomId::new(t, store.next_seq.fetch_add(1, Ordering::Relaxed)),
        };
        values[at.identifier_index()] = Value::Id(id);
        self.schema.check_atom_values(t, &values)?;
        self.check_references(at, id, &values)?;
        before(pre, PreWrite::Insert(id))?;
        self.rekey(store, at, id, None, Some(&values))?;
        let atom = Atom::new(id, values);
        // Primary record.
        let ptr = store.file.insert(&atom.encode())?;
        self.stats.records_written.add(1);
        self.addresses.set_primary(id, ptr);
        store.count.fetch_add(1, Ordering::Relaxed);
        // Implicit back-reference maintenance.
        let mut ops = Vec::new();
        for (i, attr) in at.attributes.iter().enumerate() {
            if attr.ty.is_reference() {
                ops.extend(backref_ops(
                    &self.schema,
                    id,
                    i,
                    &attr.ty.null_value(),
                    &atom.values[i],
                ));
            }
        }
        self.apply_backref_ops(&ops, pre)?;
        // Tuning structures.
        self.maintain(None, Some(&atom))?;
        Ok(id)
    }

    /// Moves `id`'s `KEYS_ARE` entries from its `old` values to its
    /// `new` ones (`None`: no values — an insert or a delete). Every
    /// changed key is checked before any map changes, all under the
    /// maps' write latches, so a `DuplicateKey` leaves every map as it
    /// was.
    fn rekey(
        &self,
        store: &TypeStore,
        at: &prima_mad::AtomType,
        id: AtomId,
        old: Option<&[Value]>,
        new: Option<&[Value]>,
    ) -> AccessResult<()> {
        fn value(vals: Option<&[Value]>, attr: usize) -> Option<&Value> {
            vals.and_then(|v| v.get(attr)).filter(|v| !matches!(v, Value::Null))
        }
        let key = |v: &Value| encode_composite_key(std::slice::from_ref(v));
        let mut changes = Vec::new();
        for (attr, map) in &store.key_maps {
            let (old_v, new_v) = (value(old, *attr), value(new, *attr));
            if old_v == new_v {
                continue;
            }
            let m = map.write();
            if let Some(v) = new_v {
                if m.get(&key(v)).is_some_and(|owner| *owner != id) {
                    return Err(AccessError::DuplicateKey {
                        atom_type: at.name.clone(),
                        attr: at.attributes[*attr].name.clone(),
                        value: v.to_string(),
                    });
                }
            }
            changes.push((m, old_v, new_v));
        }
        for (mut m, old_v, new_v) in changes {
            if let Some(k) = old_v.map(key) {
                if m.get(&k) == Some(&id) {
                    m.remove(&k);
                }
            }
            if let Some(v) = new_v {
                m.insert(key(v), id);
            }
        }
        Ok(())
    }

    /// Resolves named attribute assignments against a type name into the
    /// positional value vector `insert_atom` expects (missing attributes
    /// pre-filled with their type-appropriate null), as the MQL `INSERT`
    /// statement and the session's atom-level interface need it.
    pub fn resolve_named_values(
        &self,
        type_name: &str,
        attrs: &[(&str, Value)],
    ) -> AccessResult<(AtomTypeId, Vec<Value>)> {
        let at = self
            .schema
            .type_by_name(type_name)
            .ok_or_else(|| AccessError::Schema(prima_mad::SchemaError::UnknownAtomType(type_name.into())))?;
        let mut values: Vec<Value> =
            at.attributes.iter().map(|a| a.ty.null_value()).collect();
        for (name, v) in attrs {
            let idx = at.attribute_index(name).ok_or_else(|| {
                AccessError::Schema(prima_mad::SchemaError::UnknownAttribute {
                    atom_type: at.name.clone(),
                    attr: (*name).to_string(),
                })
            })?;
            values[idx] = v.clone();
        }
        Ok((at.id, values))
    }

    fn check_references(
        &self,
        at: &prima_mad::AtomType,
        from: AtomId,
        values: &[Value],
    ) -> AccessResult<()> {
        for (i, attr) in at.attributes.iter().enumerate() {
            if let Some(assoc) = self.schema.association_of(at.id, i) {
                for &target in values[i].ref_ids() {
                    if target.atom_type != assoc.to.atom_type {
                        return Err(AccessError::ReferenceTypeMismatch {
                            attr: attr.name.clone(),
                            expected: assoc.to.atom_type,
                            got: target,
                        });
                    }
                    // A self-reference is no dangling one, even while a
                    // restore re-creates the atom.
                    if target != from && !self.addresses.exists(target) {
                        return Err(AccessError::DanglingReference { from, to: target });
                    }
                }
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Read
    // -----------------------------------------------------------------

    /// Reads an atom's primary record, optionally projected onto selected
    /// attributes.
    pub fn read_atom(&self, id: AtomId, projection: Option<&[usize]>) -> AccessResult<Atom> {
        let atom = self.read_primary(id)?;
        self.stats.primary_reads.add(1);
        Ok(match projection {
            Some(proj) => atom.project(proj),
            None => atom,
        })
    }

    /// Batched read into a caller-owned buffer (cleared first, so
    /// per-level callers can recycle it): semantically identical to
    /// `ids.iter().map(|id| read_atom(id, projection))`, including result
    /// order and projection, except that an unknown atom yields `None`
    /// instead of failing the whole batch (molecule assembly skips
    /// dangling ids defensively). Of the other failures, the error of the
    /// lowest-position failing id wins, as it would sequentially. Primary
    /// record fetches are **grouped by owning page**, so each data page is
    /// fixed once per batch instead of once per atom. This amortises
    /// shard-lock traffic and LRU touches across all atoms resident on the
    /// page (the vertical molecule-assembly fast path; see Section 3.3 on
    /// fix/unfix cost).
    pub fn read_atoms_batch_into(
        &self,
        ids: &[AtomId],
        projection: Option<&[usize]>,
        out: &mut Vec<Option<Atom>>,
    ) -> AccessResult<()> {
        out.clear();
        // Degenerate batches skip the page-grouping machinery: one atom
        // cannot amortise anything (molecule levels with fan-out 1 hit
        // this constantly).
        if ids.len() <= 1 {
            for &id in ids {
                out.push(match self.read_atom(id, projection) {
                    Ok(a) => Some(a),
                    Err(AccessError::NoSuchAtom(_)) => None,
                    Err(e) => return Err(e),
                });
            }
            return Ok(());
        }
        let leaf = probe::leaf(SpanKind::BatchRead);
        out.resize_with(ids.len(), || None);
        // Lowest-position failure seen so far; reported once the whole
        // batch has been walked (matching sequential error order).
        let mut first_err: Option<(usize, AccessError)> = None;
        let record_err = |err_slot: &mut Option<(usize, AccessError)>, i: usize, e| {
            if err_slot.as_ref().is_none_or(|(p, _)| i < *p) {
                *err_slot = Some((i, e));
            }
        };
        // (atom type, page) -> positions in `ids` + their slots, built in
        // input order so per-page decode order is deterministic. Typical
        // batches touch few distinct pages (linear probe); large scattered
        // batches switch to a hashed index to stay linear overall.
        let mut groups: Vec<PageGroup> = Vec::new();
        let mut group_index: Option<HashMap<(AtomTypeId, u32), usize>> =
            (ids.len() > 64).then(HashMap::new);
        let primaries = self.addresses.primaries();
        for (i, &id) in ids.iter().enumerate() {
            // Unknown atom: a hole.
            let Some(ptr) = primaries.get(id) else { continue };
            let key = (id.atom_type, ptr.page);
            let slot = match &mut group_index {
                Some(index) => index.get(&key).copied(),
                None => groups.iter().position(|(k, _)| *k == key),
            };
            match slot {
                Some(g) => groups[g].1.push((i, ptr.slot)),
                None => {
                    if let Some(index) = &mut group_index {
                        index.insert(key, groups.len());
                    }
                    groups.push((key, vec![(i, ptr.slot)]));
                }
            }
        }
        drop(primaries);
        self.stats.batch_reads.add(1);
        self.stats.batch_atoms.add(ids.len() as u64);
        self.stats.batch_pages.add(groups.len() as u64);
        // Positions whose slot was freed or reused since the address
        // table was read: re-read one by one, as `read_primary` decides.
        let mut reread = Vec::new();
        let mut primary_hits = 0;
        for ((atom_type, page), entries) in groups {
            let store = self.store_of(atom_type)?;
            let slots: Vec<u16> = entries.iter().map(|(_, s)| *s).collect();
            // Decode in place under the (single) page fix — no per-record
            // byte-vector copy. Entries are position-ordered within the
            // group, so the first failure here is the group's lowest.
            let mut fail_pos = entries[0].0;
            let read = store.file.read_batch_on_page_with(page, &slots, |k, bytes| {
                let i = entries[k].0;
                fail_pos = i;
                match bytes.map(Atom::decode).transpose()? {
                    Some(atom) if atom.id == ids[i] => {
                        primary_hits += 1;
                        out[i] = Some(match projection {
                            Some(proj) => atom.project(proj),
                            None => atom,
                        });
                    }
                    _ => reread.push(i),
                }
                Ok(())
            });
            if let Err(e) = read {
                record_err(&mut first_err, fail_pos, e);
            }
        }
        self.stats.primary_reads.add(primary_hits);
        for i in reread {
            match self.read_atom(ids[i], projection) {
                Ok(atom) => out[i] = Some(atom),
                Err(AccessError::NoSuchAtom(_)) => {}
                Err(e) => record_err(&mut first_err, i, e),
            }
        }
        leaf.finish(ids.len() as u64);
        match first_err {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Reads the primary record directly.
    ///
    /// A reader without locks (a snapshot) races writers: the slot its
    /// pointer names may have been freed, or reused by another atom,
    /// since the pointer was read. Then the address entry decides: gone
    /// means the atom was deleted, a new pointer means it moved (a
    /// rollback restores a deleted atom elsewhere) and is read there. An
    /// unchanged entry keeps the read's outcome, so damage is not hidden.
    pub(crate) fn read_primary(&self, id: AtomId) -> AccessResult<Atom> {
        let mut ptr = self.addresses.primary(id).ok_or(AccessError::NoSuchAtom(id))?;
        let store = self.store_of(id.atom_type)?;
        loop {
            let read = store.file.read_with(ptr, Atom::decode);
            if read.as_ref().is_ok_and(|atom| atom.id == id) {
                return read;
            }
            match self.addresses.primary(id) {
                None => return Err(AccessError::NoSuchAtom(id)),
                Some(moved) if moved != ptr => ptr = moved,
                Some(_) => return read,
            }
        }
    }

    /// True if the atom exists.
    pub fn exists(&self, id: AtomId) -> bool {
        self.addresses.exists(id)
    }

    /// Key lookup: the atom whose `KEYS_ARE` attribute equals `value`.
    pub fn lookup_by_key(
        &self,
        t: AtomTypeId,
        attr: usize,
        value: &Value,
    ) -> AccessResult<Option<AtomId>> {
        let store = self.store_of(t)?;
        let Some((_, map)) = store.key_maps.iter().find(|(a, _)| *a == attr) else {
            return Ok(None);
        };
        thread_local! {
            /// The encoded key of this thread's last lookup, reused.
            static KEY: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        }
        Ok(KEY.with_borrow_mut(|key| {
            key.clear();
            encode_key(value, key);
            map.read().get(key.as_slice()).copied()
        }))
    }

    // -----------------------------------------------------------------
    // Modify
    // -----------------------------------------------------------------

    /// Modifies selected attributes of an atom. Reference-attribute
    /// changes trigger implicit back-reference updates; redundant copies
    /// follow the update policy.
    pub fn modify_atom(
        &self,
        id: AtomId,
        updates: &[(usize, Value)],
        pre: OnPreWrite<'_>,
    ) -> AccessResult<()> {
        let at = self
            .schema
            .atom_type(id.atom_type)
            .ok_or(AccessError::NoSuchAtomType(id.atom_type))?;
        let id_idx = at.identifier_index();
        if updates.iter().any(|(i, _)| *i == id_idx) {
            return Err(AccessError::IdentifierImmutable(id));
        }
        let old = self.read_primary(id)?;
        let mut new_values = old.values.to_vec();
        for (i, v) in updates {
            if *i >= new_values.len() {
                return Err(AccessError::BadAttribute { atom_type: id.atom_type, attr: *i });
            }
            new_values[*i] = v.clone();
        }
        self.schema.check_atom_values(id.atom_type, &new_values)?;
        self.check_references(at, id, &new_values)?;
        before(pre, PreWrite::Modify(&old, updates))?;
        self.rekey(self.store_of(id.atom_type)?, at, id, Some(&old.values), Some(&new_values))?;
        // Back-reference deltas.
        let mut ops = Vec::new();
        for (i, _) in updates {
            ops.extend(backref_ops(&self.schema, id, *i, &old.values[*i], &new_values[*i]));
        }
        // Rewrite the primary record — the "one physical record modified
        // now" of deferred update.
        let new_atom = Atom::new(id, new_values);
        self.write_primary(&new_atom)?;
        self.apply_backref_ops(&ops, pre)?;
        // Redundant copies.
        self.maintain(Some(&old), Some(&new_atom))
    }

    /// Resolves named attribute updates against the atom's type into the
    /// positional list [`AccessSystem::modify_atom`] expects (the
    /// session's atom-level interface).
    pub fn resolve_named_updates(
        &self,
        id: AtomId,
        updates: &[(&str, Value)],
    ) -> AccessResult<Vec<(usize, Value)>> {
        let at = self
            .schema
            .atom_type(id.atom_type)
            .ok_or(AccessError::NoSuchAtomType(id.atom_type))?;
        let mut by_idx = Vec::with_capacity(updates.len());
        for (name, v) in updates {
            let idx = at.attribute_index(name).ok_or_else(|| {
                AccessError::Schema(prima_mad::SchemaError::UnknownAttribute {
                    atom_type: at.name.clone(),
                    attr: (*name).to_string(),
                })
            })?;
            by_idx.push((idx, v.clone()));
        }
        Ok(by_idx)
    }

    fn write_primary(&self, atom: &Atom) -> AccessResult<()> {
        let store = self.store_of(atom.id.atom_type)?;
        let ptr = self.addresses.primary(atom.id).ok_or(AccessError::NoSuchAtom(atom.id))?;
        let new_ptr = store.file.update(ptr, &atom.encode())?;
        self.stats.records_written.add(1);
        if new_ptr != ptr {
            self.addresses.set_primary(atom.id, new_ptr);
        }
        Ok(())
    }

    /// Applies implicit updates to referenced atoms' primary records and
    /// (per policy) their redundant copies, announcing each partner to the
    /// write's pre-write callback first. The reference is added or
    /// removed in the record's bytes under one page fix; the partner is
    /// decoded, before and after, only when a tuning structure follows
    /// it and so needs both values.
    fn apply_backref_ops(&self, ops: &[BackRefOp], pre: OnPreWrite<'_>) -> AccessResult<()> {
        for op in ops {
            let id = op.target;
            let ptr = self.addresses.primary(id).ok_or(AccessError::NoSuchAtom(id))?;
            before(pre, PreWrite::Partner(id, &|| self.read_primary(id)))?;
            let followed = self.is_followed(id);
            let (mut written, mut images) = (false, None);
            let new_ptr = self.store_of(id.atom_type)?.file.update_with(ptr, |record| {
                let spliced = splice_backref(record, op)?;
                if let Some(new) = &spliced {
                    written = true;
                    if followed {
                        images = Some((Atom::decode(record)?, Atom::decode(new)?));
                    }
                }
                Ok(spliced)
            })?;
            if new_ptr != ptr {
                self.addresses.set_primary(id, new_ptr);
            }
            self.stats.records_written.add(u64::from(written));
            self.stats.backref_updates.add(1);
            if let Some((old, new)) = images {
                self.maintain(Some(&old), Some(&new))?;
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Delete
    // -----------------------------------------------------------------

    /// Deletes an atom; all references to it are disconnected
    /// (back-references adjusted on both sides), its redundant copies
    /// removed and its surrogate released.
    pub fn delete_atom(&self, id: AtomId, pre: OnPreWrite<'_>) -> AccessResult<()> {
        let at = self
            .schema
            .atom_type(id.atom_type)
            .ok_or(AccessError::NoSuchAtomType(id.atom_type))?;
        let old = self.read_primary(id)?;
        before(pre, PreWrite::Delete(&old))?;
        // Disconnect: for each reference this atom holds, remove the
        // back-reference in the target. (Symmetry means every atom that
        // references `id` is itself referenced from `id`, so this covers
        // both directions.)
        let mut ops = Vec::new();
        for (i, attr) in at.attributes.iter().enumerate() {
            if attr.ty.is_reference() {
                ops.extend(backref_ops(
                    &self.schema,
                    id,
                    i,
                    &old.values[i],
                    &attr.ty.null_value(),
                ));
            }
        }
        self.apply_backref_ops(&ops, pre)?;
        let store = self.store_of(id.atom_type)?;
        self.rekey(store, at, id, Some(&old.values), None)?;
        // Tuning structures.
        self.maintain(Some(&old), None)?;
        // Address entry, then primary record: a reader holding the old
        // pointer finds the slot freed and the entry gone.
        if let Some(ptr) = self.addresses.remove_atom(id) {
            store.file.delete(ptr)?;
        }
        store.count.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Helpers
    // -----------------------------------------------------------------

    /// All live atom ids of a type, in physical order.
    pub fn all_ids(&self, t: AtomTypeId) -> AccessResult<Vec<AtomId>> {
        let store = self.store_of(t)?;
        let mut out = Vec::new();
        store.file.for_each(|_, bytes| {
            out.push(Atom::decode(bytes)?.id);
            Ok(())
        })?;
        Ok(out)
    }
}
