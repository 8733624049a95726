//! The access-system facade: the atom-oriented interface of PRIMA.
//!
//! Everything Section 3.2 assigns to the access system meets here:
//! surrogate generation, direct access by logical address, automatic
//! back-reference maintenance, `KEYS_ARE` uniqueness, tuning structures
//! (partitions, sort orders, B*-trees, grid files, atom clusters) with
//! immediate or deferred maintenance of the redundant records, and the
//! cost-based choice among redundant copies on read.

use crate::addressing::AddressTable;
pub use crate::addressing::StructureId;
use crate::atom::Atom;
use crate::btree::BTree;
use crate::cluster::AtomClusterType;
use crate::deferred::{DeferredQueue, PendingOp};
use crate::error::{AccessError, AccessResult};
use crate::integrity::{apply_backref, backref_ops, BackRefOp};
use crate::multidim::GridFile;
use crate::partition::Partition;
use crate::record_file::RecordFile;
use crate::sort_order::SortOrder;
use parking_lot::{rank, RwLock};
use prima_mad::codec::encode_composite_key;
use prima_mad::schema::Schema;
use prima_mad::value::{AtomId, AtomTypeId, Value};
use prima_mad::AttrType;
use prima_storage::{PageSize, StorageSystem};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// When redundant copies (partitions, sort orders, clusters) are brought
/// up to date after a modification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// All copies synchronously — the baseline the paper argues against.
    Immediate,
    /// "During an update operation only one physical record is modified
    /// whereas all others are modified later" (Section 3.2).
    Deferred,
}

prima_storage::counter_family! {
    /// Counters exposed for the experiments.
    pub struct AccessStats => AccessStatsSnapshot as "access" {
        /// Physical records written synchronously by user operations.
        counter records_written,
        /// Implicit back-reference updates performed (system-enforced
        /// integrity).
        counter backref_updates,
        /// Reads satisfied from a partition instead of the primary record.
        counter partition_reads,
        /// Reads satisfied from the primary record.
        counter primary_reads,
        /// Page-grouped batched reads executed (the non-degenerate
        /// `read_atoms_batch` path).
        counter batch_reads,
        /// Distinct data pages fixed across all batched reads.
        counter batch_pages,
        /// Atoms requested across all batched reads.
        counter batch_atoms,
    }
}

/// Uniqueness map of one `KEYS_ARE` attribute: encoded key -> atom.
type KeyMap = RwLock<HashMap<Vec<u8>, AtomId>>;

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

/// A B*-tree access path over one attribute combination.
pub struct BTreeIndex {
    pub id: StructureId,
    pub name: String,
    pub atom_type: AtomTypeId,
    pub key_attrs: Vec<usize>,
    pub tree: BTree,
}

impl BTreeIndex {
    /// Composite key of an atom under this index.
    pub fn key_of(&self, values: &[Value]) -> Vec<u8> {
        let vals: Vec<Value> = self
            .key_attrs
            .iter()
            .map(|&i| values.get(i).cloned().unwrap_or(Value::Null))
            .collect();
        encode_composite_key(&vals)
    }
}

/// A grid-file access path over several attributes.
pub struct GridIndex {
    pub id: StructureId,
    pub name: String,
    pub atom_type: AtomTypeId,
    pub key_attrs: Vec<usize>,
    // lockrank: access.3 — write-held across grid-page splits (which fix
    // buffer pages: access < buffer).
    pub grid: RwLock<GridFile>,
}

impl GridIndex {
    /// Per-dimension keys of an atom under this index.
    pub fn keys_of(&self, values: &[Value]) -> Vec<Vec<u8>> {
        self.key_attrs
            .iter()
            .map(|&i| {
                let mut k = Vec::new();
                prima_mad::codec::encode_key(
                    values.get(i).unwrap_or(&Value::Null),
                    &mut k,
                );
                k
            })
            .collect()
    }
}

#[derive(Default)]
struct Structures {
    next_id: StructureId,
    by_name: HashMap<String, StructureId>,
    partitions: HashMap<StructureId, Arc<Partition>>,
    sort_orders: HashMap<StructureId, Arc<SortOrder>>,
    btrees: HashMap<StructureId, Arc<BTreeIndex>>,
    grids: HashMap<StructureId, Arc<GridIndex>>,
    clusters: HashMap<StructureId, Arc<AtomClusterType>>,
}

/// The access system over one storage system and one schema.
pub struct AccessSystem {
    storage: Arc<StorageSystem>,
    schema: Schema,
    stores: Vec<TypeStore>,
    addresses: AddressTable,
    // lockrank: access.0 — tuning-structure directory; read-held while
    // descending into a tree/grid/sort order.
    structures: RwLock<Structures>,
    /// member atom -> clusters containing it: (cluster structure,
    /// characteristic atom).
    // lockrank: access.1 — registry peers (membership, policy, key maps):
    // transient holds that never nest with one another.
    cluster_membership: RwLock<HashMap<AtomId, Vec<(StructureId, AtomId)>>>,
    deferred: DeferredQueue,
    // lockrank: access.1 — registry peer; transient holds.
    policy: RwLock<UpdatePolicy>,
    stats: AccessStats,
}

impl AccessSystem {
    /// Builds an access system for a validated schema. One base record
    /// file (4K pages) per atom type.
    pub fn new(storage: Arc<StorageSystem>, schema: Schema) -> AccessResult<AccessSystem> {
        schema.validate()?;
        let stores = schema
            .atom_types()
            .iter()
            .map(|at| {
                Ok(TypeStore {
                    file: RecordFile::create(Arc::clone(&storage), PageSize::K4)?,
                    next_seq: AtomicU64::new(1),
                    key_maps: at
                        .keys
                        .iter()
                        .filter_map(|k| at.attribute_index(k))
                        .map(|i| (i, RwLock::new_ranked(HashMap::new(), rank::BUFFER + 1)))
                        .collect(),
                    count: AtomicU64::new(0),
                })
            })
            .collect::<AccessResult<Vec<_>>>()?;
        Ok(AccessSystem {
            storage,
            schema,
            stores,
            addresses: AddressTable::new(),
            structures: RwLock::new_ranked(Structures::default(), rank::ACCESS),
            cluster_membership: RwLock::new_ranked(HashMap::new(), rank::ACCESS + 1),
            deferred: DeferredQueue::new(),
            policy: RwLock::new_ranked(UpdatePolicy::Deferred, rank::ACCESS + 1),
            stats: AccessStats::default(),
        })
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
        let mut stores = Vec::with_capacity(atom_types.len());
        for (at, &segment) in atom_types.iter().zip(type_segments) {
            let file = RecordFile::attach(Arc::clone(&storage), segment)?;
            stores.push(TypeStore {
                file,
                next_seq: AtomicU64::new(1),
                key_maps: at
                    .keys
                    .iter()
                    .filter_map(|k| at.attribute_index(k))
                    .map(|i| (i, RwLock::new_ranked(HashMap::new(), rank::BUFFER + 1)))
                    .collect(),
                count: AtomicU64::new(0),
            });
        }
        let sys = AccessSystem {
            storage,
            schema,
            stores,
            addresses: AddressTable::new(),
            structures: RwLock::new_ranked(Structures::default(), rank::ACCESS),
            cluster_membership: RwLock::new_ranked(HashMap::new(), rank::ACCESS + 1),
            deferred: DeferredQueue::new(),
            policy: RwLock::new_ranked(UpdatePolicy::Deferred, rank::ACCESS + 1),
            stats: AccessStats::default(),
        };
        for (i, store) in sys.stores.iter().enumerate() {
            let mut max_seq = 0u64;
            let mut live = 0u64;
            store.file.for_each(|ptr, bytes| {
                let atom = Atom::decode(bytes)?;
                sys.addresses.set_primary(atom.id, ptr);
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

    pub fn deferred_queue(&self) -> &DeferredQueue {
        &self.deferred
    }

    /// Sets the maintenance policy for redundant copies.
    pub fn set_update_policy(&self, p: UpdatePolicy) {
        *self.policy.write() = p;
    }

    pub fn update_policy(&self) -> UpdatePolicy {
        *self.policy.read()
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
    pub fn insert_atom(&self, t: AtomTypeId, values: Vec<Value>) -> AccessResult<AtomId> {
        self.insert_atom_with_hook(t, values, |_| Ok(()))
    }

    /// [`AccessSystem::insert_atom`] with a *pre-write hook*: `hook` runs
    /// after the surrogate is generated and the values validated, but
    /// **before any page is modified**. The transaction layer uses it to
    /// append the insert's undo record to the WAL ahead of the page
    /// images it causes — the forced log prefix then never contains a
    /// redo without its matching undo.
    pub fn insert_atom_with_hook(
        &self,
        t: AtomTypeId,
        mut values: Vec<Value>,
        hook: impl FnOnce(AtomId) -> AccessResult<()>,
    ) -> AccessResult<AtomId> {
        let at = self.schema.atom_type(t).ok_or(AccessError::NoSuchAtomType(t))?.clone();
        // Pad with type-appropriate null values.
        while values.len() < at.attributes.len() {
            values.push(at.attributes[values.len()].ty.null_value());
        }
        // Generate the surrogate.
        let store = self.store_of(t)?;
        let seq = store.next_seq.fetch_add(1, Ordering::Relaxed);
        let id = AtomId::new(t, seq);
        let id_idx = at.identifier_index();
        values[id_idx] = Value::Id(id);
        self.schema.check_atom_values(t, &values)?;
        self.check_references(&at, id, &values)?;
        hook(id)?;
        // Key uniqueness.
        for (attr, map) in &store.key_maps {
            let v = &values[*attr];
            if matches!(v, Value::Null) {
                continue;
            }
            let key = encode_composite_key(std::slice::from_ref(v));
            let mut m = map.write();
            if m.contains_key(&key) {
                return Err(AccessError::DuplicateKey {
                    atom_type: at.name.clone(),
                    attr: at.attributes[*attr].name.clone(),
                    value: v.to_string(),
                });
            }
            m.insert(key, id);
        }
        let atom = Atom::new(id, values);
        // Primary record.
        let ptr = store.file.insert(&atom.encode())?;
        self.stats.records_written.fetch_add(1, Ordering::Relaxed);
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
        self.apply_backref_ops(&ops)?;
        // Tuning structures.
        self.structures_on_insert(&atom)?;
        Ok(id)
    }

    /// Re-creates an atom under its *original* logical address (used by
    /// transaction rollback to undo a delete — Section 4's selective
    /// in-transaction recovery). Behaves like insert (integrity, keys,
    /// structures) but does not generate a fresh surrogate.
    pub fn restore_atom(&self, atom: Atom) -> AccessResult<()> {
        let id = atom.id;
        if self.addresses.exists(id) {
            return Err(AccessError::AtomAlreadyExists(id));
        }
        let at = self
            .schema
            .atom_type(id.atom_type)
            .ok_or(AccessError::NoSuchAtomType(id.atom_type))?
            .clone();
        let mut values = atom.values;
        while values.len() < at.attributes.len() {
            values.push(at.attributes[values.len()].ty.null_value());
        }
        values[at.identifier_index()] = Value::Id(id);
        self.schema.check_atom_values(id.atom_type, &values)?;
        self.check_references(&at, id, &values)?;
        let store = self.store_of(id.atom_type)?;
        // Surrogates are never reused: keep the counter beyond this id.
        store.next_seq.fetch_max(id.seq + 1, Ordering::Relaxed);
        for (attr, map) in &store.key_maps {
            let v = &values[*attr];
            if matches!(v, Value::Null) {
                continue;
            }
            let key = encode_composite_key(std::slice::from_ref(v));
            let mut m = map.write();
            if m.contains_key(&key) {
                return Err(AccessError::DuplicateKey {
                    atom_type: at.name.clone(),
                    attr: at.attributes[*attr].name.clone(),
                    value: v.to_string(),
                });
            }
            m.insert(key, id);
        }
        let restored = Atom::new(id, values);
        let ptr = store.file.insert(&restored.encode())?;
        self.stats.records_written.fetch_add(1, Ordering::Relaxed);
        self.addresses.set_primary(id, ptr);
        store.count.fetch_add(1, Ordering::Relaxed);
        let mut ops = Vec::new();
        for (i, attr) in at.attributes.iter().enumerate() {
            if attr.ty.is_reference() {
                ops.extend(backref_ops(
                    &self.schema,
                    id,
                    i,
                    &attr.ty.null_value(),
                    &restored.values[i],
                ));
            }
        }
        self.apply_backref_ops(&ops)?;
        self.structures_on_insert(&restored)?;
        Ok(())
    }

    /// Resolves named attribute assignments against a type name into the
    /// positional value vector `insert_atom` expects (missing attributes
    /// pre-filled with their type-appropriate null). Shared by the
    /// named-insert path here and the MQL `INSERT` statement upstairs.
    pub fn resolve_named_values(
        &self,
        type_name: &str,
        attrs: &[(&str, Value)],
    ) -> AccessResult<(AtomTypeId, Vec<Value>)> {
        let at = self
            .schema
            .type_by_name(type_name)
            .ok_or_else(|| AccessError::Schema(prima_mad::SchemaError::UnknownAtomType(type_name.into())))?
            .clone();
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

    /// Insert with named attributes (missing ones unset).
    pub fn insert_atom_named(
        &self,
        type_name: &str,
        attrs: &[(&str, Value)],
    ) -> AccessResult<AtomId> {
        let (t, values) = self.resolve_named_values(type_name, attrs)?;
        self.insert_atom(t, values)
    }

    fn check_references(
        &self,
        at: &prima_mad::AtomType,
        from: AtomId,
        values: &[Value],
    ) -> AccessResult<()> {
        for (i, attr) in at.attributes.iter().enumerate() {
            if let Some(assoc) = self.schema.association_of(at.id, i) {
                for target in values[i].referenced_ids() {
                    if target.atom_type != assoc.to.atom_type {
                        return Err(AccessError::ReferenceTypeMismatch {
                            attr: attr.name.clone(),
                            expected: assoc.to.atom_type,
                            got: target,
                        });
                    }
                    if !self.addresses.exists(target) {
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

    /// Reads an atom, optionally projecting onto selected attributes.
    /// With a projection, the cheapest *fresh* redundant copy covering it
    /// is chosen (paper: "the one with minimum access cost should be
    /// selected"); partitions beat the primary because their records are
    /// denser.
    pub fn read_atom(&self, id: AtomId, projection: Option<&[usize]>) -> AccessResult<Atom> {
        if let Some(proj) = projection {
            let structures = self.structures.read();
            // Candidate partitions covering the projection, fresh copies only.
            for placement in self.addresses.placements(id) {
                if placement.stale {
                    continue;
                }
                if let Some(p) = structures.partitions.get(&placement.structure) {
                    if p.covers(proj) {
                        self.stats.partition_reads.fetch_add(1, Ordering::Relaxed);
                        return Ok(p.read(placement.ptr)?.project(proj));
                    }
                }
            }
        }
        let atom = self.read_primary(id)?;
        self.stats.primary_reads.fetch_add(1, Ordering::Relaxed);
        Ok(match projection {
            Some(proj) => atom.project(proj),
            None => atom,
        })
    }

    /// Batched read: semantically identical to `ids.iter().map(|id|
    /// read_atom(id, projection))`, including result order, projection
    /// choice and error behaviour (the error of the lowest-position
    /// failing id wins, as it would sequentially) — but primary-record
    /// fetches are **grouped by owning page**, so each data page is fixed
    /// once per batch instead of once per atom. This amortises shard-lock
    /// traffic and LRU touches across all atoms resident on the page (the
    /// vertical molecule-assembly fast path; see Section 3.3 on fix/unfix
    /// cost).
    ///
    /// Atoms whose projection is served by a fresh covering partition fall
    /// back to the per-atom partition read, exactly as `read_atom` would.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    pub fn read_atoms_batch(
        &self,
        ids: &[AtomId],
        projection: Option<&[usize]>,
    ) -> AccessResult<Vec<Atom>> {
        let mut opt = Vec::new();
        self.batch_read_inner(ids, projection, &mut opt, true)?;
        // `strict` turned unknown atoms into position-ordered errors, so
        // every remaining entry is present.
        // lint: allow(error-hygiene, strict batch mode errored on any miss two lines up; remaining entries are all Some)
        Ok(opt.into_iter().map(|a| a.expect("strict batch entry")).collect())
    }

    /// Missing-tolerant batched read: like [`AccessSystem::read_atoms_batch`]
    /// but unknown atoms yield `None` instead of failing the whole batch
    /// (molecule assembly skips dangling ids defensively). Storage-level
    /// failures still propagate.
    pub fn read_atoms_batch_opt(
        &self,
        ids: &[AtomId],
        projection: Option<&[usize]>,
    ) -> AccessResult<Vec<Option<Atom>>> {
        let mut out = Vec::new();
        self.read_atoms_batch_into(ids, projection, &mut out)?;
        Ok(out)
    }

    /// [`AccessSystem::read_atoms_batch_opt`] writing into a caller-owned
    /// buffer (cleared first), so per-level callers can recycle it.
    pub fn read_atoms_batch_into(
        &self,
        ids: &[AtomId],
        projection: Option<&[usize]>,
        out: &mut Vec<Option<Atom>>,
    ) -> AccessResult<()> {
        self.batch_read_inner(ids, projection, out, false)
    }

    /// Shared batch-read core. `strict` makes an unknown atom an error
    /// (`NoSuchAtom`) competing position-wise with every other failure, so
    /// the returned error is the one a sequential `read_atom` loop would
    /// hit first; tolerant mode leaves unknown atoms as `None`.
    fn batch_read_inner(
        &self,
        ids: &[AtomId],
        projection: Option<&[usize]>,
        out: &mut Vec<Option<Atom>>,
        strict: bool,
    ) -> AccessResult<()> {
        out.clear();
        // Degenerate batches skip the page-grouping machinery: one atom
        // cannot amortise anything (molecule levels with fan-out 1 hit
        // this constantly).
        if ids.len() <= 1 {
            for &id in ids {
                out.push(match self.read_atom(id, projection) {
                    Ok(a) => Some(a),
                    Err(AccessError::NoSuchAtom(_)) if !strict => None,
                    Err(e) => return Err(e),
                });
            }
            return Ok(());
        }
        let probe_t = prima_storage::probe::timer();
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
        {
            // One structure-registry lock for the whole grouping pre-pass
            // (not one per id); released before any page is fixed, like
            // read_atom.
            let structures = projection.map(|_| self.structures.read());
            'ids: for (i, &id) in ids.iter().enumerate() {
                if let (Some(proj), Some(structures)) = (projection, structures.as_ref()) {
                    // Cheapest fresh covering copy first, as read_atom does.
                    for placement in self.addresses.placements(id) {
                        if placement.stale {
                            continue;
                        }
                        if let Some(p) = structures.partitions.get(&placement.structure) {
                            if p.covers(proj) {
                                match p.read(placement.ptr) {
                                    Ok(a) => {
                                        self.stats
                                            .partition_reads
                                            .fetch_add(1, Ordering::Relaxed);
                                        out[i] = Some(a.project(proj));
                                    }
                                    Err(e) => record_err(&mut first_err, i, e),
                                }
                                continue 'ids;
                            }
                        }
                    }
                }
                let Some(ptr) = self.addresses.primary(id) else {
                    // Unknown atom: an error in strict mode, a hole otherwise.
                    if strict {
                        record_err(&mut first_err, i, AccessError::NoSuchAtom(id));
                    }
                    continue;
                };
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
        }
        self.stats.batch_reads.fetch_add(1, Ordering::Relaxed);
        self.stats.batch_atoms.fetch_add(ids.len() as u64, Ordering::Relaxed);
        self.stats.batch_pages.fetch_add(groups.len() as u64, Ordering::Relaxed);
        for ((atom_type, page), entries) in groups {
            let store = self.store_of(atom_type)?;
            let slots: Vec<u16> = entries.iter().map(|(_, s)| *s).collect();
            // Decode in place under the (single) page fix — no per-record
            // byte-vector copy. Entries are position-ordered within the
            // group, so the first failure here is the group's lowest.
            let mut fail_pos = entries[0].0;
            let read = store.file.read_batch_on_page_with(page, &slots, |k, bytes| {
                fail_pos = entries[k].0;
                let Some(bytes) = bytes else {
                    // The address table points at a freed slot: surface the
                    // same storage error a direct read would produce.
                    return Err(AccessError::Storage(
                        prima_storage::StorageError::PageNotAllocated {
                            segment: store.file.segment(),
                            page,
                        },
                    ));
                };
                let atom = Atom::decode(bytes)?;
                self.stats.primary_reads.fetch_add(1, Ordering::Relaxed);
                out[entries[k].0] = Some(match projection {
                    Some(proj) => atom.project(proj),
                    None => atom,
                });
                Ok(())
            });
            if let Err(e) = read {
                record_err(&mut first_err, fail_pos, e);
            }
        }
        prima_storage::probe::emit_elapsed(
            probe_t,
            prima_storage::probe::ProbeEvent::BatchRead,
            ids.len() as u64,
        );
        match first_err {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Reads the primary record directly.
    pub(crate) fn read_primary(&self, id: AtomId) -> AccessResult<Atom> {
        let ptr = self.addresses.primary(id).ok_or(AccessError::NoSuchAtom(id))?;
        let store = self.store_of(id.atom_type)?;
        Atom::decode(&store.file.read(ptr)?)
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
        let key = encode_composite_key(std::slice::from_ref(value));
        Ok(map.read().get(&key).copied())
    }

    // -----------------------------------------------------------------
    // Modify
    // -----------------------------------------------------------------

    /// Modifies selected attributes of an atom. Reference-attribute
    /// changes trigger implicit back-reference updates; redundant copies
    /// follow the update policy.
    pub fn modify_atom(&self, id: AtomId, updates: &[(usize, Value)]) -> AccessResult<()> {
        let at = self
            .schema
            .atom_type(id.atom_type)
            .ok_or(AccessError::NoSuchAtomType(id.atom_type))?
            .clone();
        let id_idx = at.identifier_index();
        if updates.iter().any(|(i, _)| *i == id_idx) {
            return Err(AccessError::IdentifierImmutable(id));
        }
        let old = self.read_primary(id)?;
        let mut new_values = old.values.clone();
        for (i, v) in updates {
            if *i >= new_values.len() {
                return Err(AccessError::BadAttribute { atom_type: id.atom_type, attr: *i });
            }
            new_values[*i] = v.clone();
        }
        self.schema.check_atom_values(id.atom_type, &new_values)?;
        self.check_references(&at, id, &new_values)?;
        // Key maintenance.
        let store = self.store_of(id.atom_type)?;
        for (attr, map) in &store.key_maps {
            let old_v = &old.values[*attr];
            let new_v = &new_values[*attr];
            if old_v == new_v {
                continue;
            }
            let mut m = map.write();
            if !matches!(new_v, Value::Null) {
                let new_key = encode_composite_key(std::slice::from_ref(new_v));
                if let Some(existing) = m.get(&new_key) {
                    if *existing != id {
                        return Err(AccessError::DuplicateKey {
                            atom_type: at.name.clone(),
                            attr: at.attributes[*attr].name.clone(),
                            value: new_v.to_string(),
                        });
                    }
                }
                m.insert(new_key, id);
            }
            if !matches!(old_v, Value::Null) {
                let old_key = encode_composite_key(std::slice::from_ref(old_v));
                if m.get(&old_key) == Some(&id) && old_v != new_v {
                    m.remove(&old_key);
                }
            }
        }
        // Back-reference deltas.
        let mut ops = Vec::new();
        for (i, _) in updates {
            ops.extend(backref_ops(&self.schema, id, *i, &old.values[*i], &new_values[*i]));
        }
        // Rewrite the primary record — the "one physical record modified
        // now" of deferred update.
        let new_atom = Atom::new(id, new_values);
        self.write_primary(&new_atom)?;
        self.apply_backref_ops(&ops)?;
        // Redundant copies.
        self.structures_on_modify(&old, &new_atom)?;
        Ok(())
    }

    /// Resolves named attribute updates against the atom's type into the
    /// positional list [`AccessSystem::modify_atom`] expects. Shared by
    /// the named-modify path here and the session's atom-level interface.
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

    /// Named-attribute modify.
    pub fn modify_atom_named(&self, id: AtomId, updates: &[(&str, Value)]) -> AccessResult<()> {
        let by_idx = self.resolve_named_updates(id, updates)?;
        self.modify_atom(id, &by_idx)
    }

    fn write_primary(&self, atom: &Atom) -> AccessResult<()> {
        let store = self.store_of(atom.id.atom_type)?;
        let ptr = self.addresses.primary(atom.id).ok_or(AccessError::NoSuchAtom(atom.id))?;
        let new_ptr = store.file.update(ptr, &atom.encode())?;
        self.stats.records_written.fetch_add(1, Ordering::Relaxed);
        if new_ptr != ptr {
            self.addresses.set_primary(atom.id, new_ptr);
        }
        Ok(())
    }

    /// Applies implicit updates to referenced atoms' primary records and
    /// (per policy) their redundant copies.
    fn apply_backref_ops(&self, ops: &[BackRefOp]) -> AccessResult<()> {
        for op in ops {
            let old = self.read_primary(op.target)?;
            let mut values = old.values.clone();
            apply_backref(&mut values, op);
            let new_atom = Atom::new(op.target, values);
            self.write_primary(&new_atom)?;
            self.stats.backref_updates.fetch_add(1, Ordering::Relaxed);
            self.structures_on_modify(&old, &new_atom)?;
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Delete
    // -----------------------------------------------------------------

    /// Deletes an atom; all references to it are disconnected
    /// (back-references adjusted on both sides), its redundant copies
    /// removed and its surrogate released.
    pub fn delete_atom(&self, id: AtomId) -> AccessResult<()> {
        let at = self
            .schema
            .atom_type(id.atom_type)
            .ok_or(AccessError::NoSuchAtomType(id.atom_type))?
            .clone();
        let old = self.read_primary(id)?;
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
        self.apply_backref_ops(&ops)?;
        // Keys.
        let store = self.store_of(id.atom_type)?;
        for (attr, map) in &store.key_maps {
            let v = &old.values[*attr];
            if !matches!(v, Value::Null) {
                map.write().remove(&encode_composite_key(std::slice::from_ref(v)));
            }
        }
        // Structures.
        self.structures_on_delete(&old)?;
        // Primary record and address entry.
        if let Some(ptr) = self.addresses.primary(id) {
            store.file.delete(ptr)?;
        }
        self.addresses.remove_atom(id);
        store.count.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Tuning structures: creation / drop
    // -----------------------------------------------------------------

    fn register_name(&self, name: &str) -> AccessResult<StructureId> {
        let mut s = self.structures.write();
        if s.by_name.contains_key(name) {
            return Err(AccessError::DuplicateStructure(name.to_string()));
        }
        let id = s.next_id;
        s.next_id += 1;
        s.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Creates a partition over `attrs` of `t` and populates it from the
    /// existing atoms. "Such a redundant structure … may be generated and
    /// dropped at any time."
    pub fn create_partition(
        &self,
        name: &str,
        t: AtomTypeId,
        attrs: Vec<usize>,
    ) -> AccessResult<StructureId> {
        let at = self.schema.atom_type(t).ok_or(AccessError::NoSuchAtomType(t))?;
        let id_idx = at.identifier_index();
        let sid = self.register_name(name)?;
        let part = Arc::new(Partition::create(
            Arc::clone(&self.storage),
            sid,
            name,
            t,
            attrs,
            id_idx,
        )?);
        // Populate.
        let ids = self.all_ids(t)?;
        for aid in ids {
            let atom = self.read_primary(aid)?;
            let ptr = part.store(&atom)?;
            self.addresses.set_placement(aid, sid, ptr);
        }
        self.structures.write().partitions.insert(sid, part);
        Ok(sid)
    }

    /// Creates a sort order over `key_attrs` of `t`, populated.
    pub fn create_sort_order(
        &self,
        name: &str,
        t: AtomTypeId,
        key_attrs: Vec<usize>,
    ) -> AccessResult<StructureId> {
        let sid = self.register_name(name)?;
        let so = Arc::new(SortOrder::create(
            Arc::clone(&self.storage),
            sid,
            name,
            t,
            key_attrs,
        )?);
        for aid in self.all_ids(t)? {
            let atom = self.read_primary(aid)?;
            let ptr = so.insert(&atom)?;
            self.addresses.set_placement(aid, sid, ptr);
        }
        self.structures.write().sort_orders.insert(sid, so);
        Ok(sid)
    }

    /// Creates a B*-tree access path over `key_attrs` of `t`, populated.
    pub fn create_btree_index(
        &self,
        name: &str,
        t: AtomTypeId,
        key_attrs: Vec<usize>,
    ) -> AccessResult<StructureId> {
        let sid = self.register_name(name)?;
        let idx = Arc::new(BTreeIndex {
            id: sid,
            name: name.to_string(),
            atom_type: t,
            key_attrs,
            tree: BTree::create(Arc::clone(&self.storage))?,
        });
        for aid in self.all_ids(t)? {
            let atom = self.read_primary(aid)?;
            idx.tree.insert(&idx.key_of(&atom.values), aid)?;
        }
        self.structures.write().btrees.insert(sid, idx);
        Ok(sid)
    }

    /// Creates a multi-dimensional (grid file) access path, populated.
    pub fn create_grid_index(
        &self,
        name: &str,
        t: AtomTypeId,
        key_attrs: Vec<usize>,
    ) -> AccessResult<StructureId> {
        let sid = self.register_name(name)?;
        let grid = GridFile::create(Arc::clone(&self.storage), key_attrs.len())?;
        let idx = Arc::new(GridIndex {
            id: sid,
            name: name.to_string(),
            atom_type: t,
            key_attrs,
            grid: RwLock::new_ranked(grid, rank::ACCESS + 3),
        });
        for aid in self.all_ids(t)? {
            let atom = self.read_primary(aid)?;
            let keys = idx.keys_of(&atom.values);
            idx.grid.write().insert(keys, aid)?;
        }
        self.structures.write().grids.insert(sid, idx);
        Ok(sid)
    }

    /// Declares an atom-cluster type: `char_type`'s reference attributes
    /// `member_attrs` define membership. Clusters for all existing
    /// characteristic atoms are materialised.
    pub fn create_cluster_type(
        &self,
        name: &str,
        char_type: AtomTypeId,
        member_attrs: Vec<usize>,
        page_size: PageSize,
    ) -> AccessResult<StructureId> {
        let at = self
            .schema
            .atom_type(char_type)
            .ok_or(AccessError::NoSuchAtomType(char_type))?;
        for &a in &member_attrs {
            let attr = at
                .attributes
                .get(a)
                .ok_or(AccessError::BadAttribute { atom_type: char_type, attr: a })?;
            if !attr.ty.is_reference() {
                return Err(AccessError::StructureMismatch {
                    name: name.to_string(),
                    detail: format!("attribute '{}' is not a reference", attr.name),
                });
            }
        }
        let sid = self.register_name(name)?;
        let ct = Arc::new(AtomClusterType::create(
            Arc::clone(&self.storage),
            sid,
            name,
            char_type,
            member_attrs,
            page_size,
        )?);
        self.structures.write().clusters.insert(sid, Arc::clone(&ct));
        for ch in self.all_ids(char_type)? {
            self.materialize_cluster(&ct, ch)?;
        }
        Ok(sid)
    }

    /// Drops any tuning structure by name.
    pub fn drop_structure(&self, name: &str) -> AccessResult<()> {
        let mut s = self.structures.write();
        let sid = s
            .by_name
            .remove(name)
            .ok_or_else(|| AccessError::NoSuchStructure(name.to_string()))?;
        s.partitions.remove(&sid);
        s.sort_orders.remove(&sid);
        s.btrees.remove(&sid);
        s.grids.remove(&sid);
        if s.clusters.remove(&sid).is_some() {
            let mut membership = self.cluster_membership.write();
            for (_, v) in membership.iter_mut() {
                v.retain(|(st, _)| *st != sid);
            }
        }
        drop(s);
        self.addresses.drop_structure(sid);
        self.deferred.purge_structure(sid);
        Ok(())
    }

    /// Looks up a structure id by name.
    pub fn structure_id(&self, name: &str) -> Option<StructureId> {
        self.structures.read().by_name.get(name).copied()
    }

    /// The partition registered under `name`, if it is one.
    pub fn partition(&self, name: &str) -> Option<Arc<Partition>> {
        let s = self.structures.read();
        s.by_name.get(name).and_then(|sid| s.partitions.get(sid)).cloned()
    }

    pub fn sort_order(&self, name: &str) -> Option<Arc<SortOrder>> {
        let s = self.structures.read();
        s.by_name.get(name).and_then(|sid| s.sort_orders.get(sid)).cloned()
    }

    pub fn btree_index(&self, name: &str) -> Option<Arc<BTreeIndex>> {
        let s = self.structures.read();
        s.by_name.get(name).and_then(|sid| s.btrees.get(sid)).cloned()
    }

    pub fn grid_index(&self, name: &str) -> Option<Arc<GridIndex>> {
        let s = self.structures.read();
        s.by_name.get(name).and_then(|sid| s.grids.get(sid)).cloned()
    }

    pub fn cluster_type(&self, name: &str) -> Option<Arc<AtomClusterType>> {
        let s = self.structures.read();
        s.by_name.get(name).and_then(|sid| s.clusters.get(sid)).cloned()
    }

    /// Whether the copy of `id` in `structure` is stale (deferred update
    /// pending) or missing — in both cases a reader must use the primary.
    pub fn deferred_stale(&self, id: AtomId, structure: StructureId) -> bool {
        self.addresses.placement(id, structure).is_none_or(|p| p.stale)
    }

    /// Sort order by structure id (scan internals).
    pub fn sort_order_by_id(&self, sid: StructureId) -> Option<Arc<SortOrder>> {
        self.structures.read().sort_orders.get(&sid).cloned()
    }

    /// Partitions available for an atom type (scan planning).
    pub fn partitions_of(&self, t: AtomTypeId) -> Vec<Arc<Partition>> {
        self.structures
            .read()
            .partitions
            .values()
            .filter(|p| p.atom_type == t)
            .cloned()
            .collect()
    }

    /// Sort orders available for an atom type (scan planning).
    pub fn sort_orders_of(&self, t: AtomTypeId) -> Vec<Arc<SortOrder>> {
        self.structures
            .read()
            .sort_orders
            .values()
            .filter(|so| so.atom_type == t)
            .cloned()
            .collect()
    }

    /// B*-tree indexes available for an atom type.
    pub fn btrees_of(&self, t: AtomTypeId) -> Vec<Arc<BTreeIndex>> {
        self.structures
            .read()
            .btrees
            .values()
            .filter(|ix| ix.atom_type == t)
            .cloned()
            .collect()
    }

    /// Cluster types whose characteristic type is `t`.
    pub fn cluster_types_of(&self, t: AtomTypeId) -> Vec<Arc<AtomClusterType>> {
        self.structures
            .read()
            .clusters
            .values()
            .filter(|ct| ct.char_type == t)
            .cloned()
            .collect()
    }

    // -----------------------------------------------------------------
    // Structure maintenance on data changes
    // -----------------------------------------------------------------

    fn structures_on_insert(&self, atom: &Atom) -> AccessResult<()> {
        let structures = self.structures.read();
        let t = atom.id.atom_type;
        for p in structures.partitions.values().filter(|p| p.atom_type == t) {
            let ptr = p.store(atom)?;
            self.stats.records_written.fetch_add(1, Ordering::Relaxed);
            self.addresses.set_placement(atom.id, p.id, ptr);
        }
        for so in structures.sort_orders.values().filter(|s| s.atom_type == t) {
            let ptr = so.insert(atom)?;
            self.stats.records_written.fetch_add(1, Ordering::Relaxed);
            self.addresses.set_placement(atom.id, so.id, ptr);
        }
        for ix in structures.btrees.values().filter(|ix| ix.atom_type == t) {
            ix.tree.insert(&ix.key_of(&atom.values), atom.id)?;
        }
        for gx in structures.grids.values().filter(|gx| gx.atom_type == t) {
            let keys = gx.keys_of(&atom.values);
            gx.grid.write().insert(keys, atom.id)?;
        }
        // A new characteristic atom generates a new cluster.
        let cluster_types: Vec<Arc<AtomClusterType>> = structures
            .clusters
            .values()
            .filter(|ct| ct.char_type == t)
            .cloned()
            .collect();
        drop(structures);
        for ct in cluster_types {
            self.materialize_cluster(&ct, atom.id)?;
        }
        // If the new atom is referenced by characteristic atoms (it can
        // be, when inserted with back-references pre-connected), refresh
        // those clusters.
        self.queue_member_cluster_refresh(atom.id)?;
        Ok(())
    }

    fn structures_on_modify(&self, old: &Atom, new: &Atom) -> AccessResult<()> {
        let policy = self.update_policy();
        let structures = self.structures.read();
        let t = new.id.atom_type;
        for p in structures.partitions.values().filter(|p| p.atom_type == t) {
            match policy {
                UpdatePolicy::Immediate => {
                    if let Some(pl) = self.addresses.placement(new.id, p.id) {
                        let ptr = p.update(pl.ptr, new)?;
                        self.stats.records_written.fetch_add(1, Ordering::Relaxed);
                        self.addresses.set_placement(new.id, p.id, ptr);
                    }
                }
                UpdatePolicy::Deferred => {
                    if self.addresses.mark_stale(new.id, p.id) {
                        self.deferred
                            .push(PendingOp::RefreshCopy { structure: p.id, atom: new.id });
                    }
                }
            }
        }
        for so in structures.sort_orders.values().filter(|s| s.atom_type == t) {
            match policy {
                UpdatePolicy::Immediate => {
                    let old_key = so.key_of(old);
                    let ptr = so.update(&old_key, new)?;
                    self.stats.records_written.fetch_add(1, Ordering::Relaxed);
                    self.addresses.set_placement(new.id, so.id, ptr);
                }
                UpdatePolicy::Deferred => {
                    if self.addresses.mark_stale(new.id, so.id) {
                        self.deferred
                            .push(PendingOp::RefreshCopy { structure: so.id, atom: new.id });
                    }
                }
            }
        }
        // Access paths are maintained immediately (they hold no atom
        // copies, only entries; a stale entry would lose atoms).
        for ix in structures.btrees.values().filter(|ix| ix.atom_type == t) {
            let ok = ix.key_of(&old.values);
            let nk = ix.key_of(&new.values);
            if ok != nk {
                ix.tree.remove(&ok, new.id)?;
                ix.tree.insert(&nk, new.id)?;
            }
        }
        for gx in structures.grids.values().filter(|gx| gx.atom_type == t) {
            let ok = gx.keys_of(&old.values);
            let nk = gx.keys_of(&new.values);
            if ok != nk {
                let mut g = gx.grid.write();
                g.remove(&ok, new.id)?;
                g.insert(nk, new.id)?;
            }
        }
        // Characteristic atom changed -> its cluster must be rebuilt.
        let char_cluster_types: Vec<Arc<AtomClusterType>> = structures
            .clusters
            .values()
            .filter(|ct| ct.char_type == t && ct.contains(new.id))
            .cloned()
            .collect();
        drop(structures);
        for ct in char_cluster_types {
            match policy {
                UpdatePolicy::Immediate => self.materialize_cluster(&ct, new.id)?,
                UpdatePolicy::Deferred => self.deferred.push(PendingOp::RefreshCluster {
                    structure: ct.id,
                    characteristic: new.id,
                }),
            }
        }
        // Member atom changed -> clusters containing its copy are stale.
        self.queue_member_cluster_refresh(new.id)?;
        Ok(())
    }

    fn structures_on_delete(&self, atom: &Atom) -> AccessResult<()> {
        let structures = self.structures.read();
        let t = atom.id.atom_type;
        for p in structures.partitions.values().filter(|p| p.atom_type == t) {
            if let Some(pl) = self.addresses.remove_placement(atom.id, p.id) {
                p.remove(pl.ptr)?;
            }
        }
        for so in structures.sort_orders.values().filter(|s| s.atom_type == t) {
            let key = so.key_of(atom);
            so.remove(&key, atom.id)?;
            self.addresses.remove_placement(atom.id, so.id);
        }
        for ix in structures.btrees.values().filter(|ix| ix.atom_type == t) {
            ix.tree.remove(&ix.key_of(&atom.values), atom.id)?;
        }
        for gx in structures.grids.values().filter(|gx| gx.atom_type == t) {
            let keys = gx.keys_of(&atom.values);
            gx.grid.write().remove(&keys, atom.id)?;
        }
        // Deleting a characteristic atom deletes the whole cluster.
        let char_cluster_types: Vec<Arc<AtomClusterType>> = structures
            .clusters
            .values()
            .filter(|ct| ct.char_type == t)
            .cloned()
            .collect();
        drop(structures);
        for ct in char_cluster_types {
            if ct.contains(atom.id) {
                // Unregister memberships of this cluster's members.
                let members = ct.members(atom.id)?;
                let mut membership = self.cluster_membership.write();
                for m in members {
                    if let Some(v) = membership.get_mut(&m) {
                        v.retain(|(st, ch)| !(*st == ct.id && *ch == atom.id));
                    }
                }
                drop(membership);
                ct.drop_cluster(atom.id)?;
            }
        }
        // A deleted member makes containing clusters stale. (Back-ref
        // maintenance already updated the characteristic atoms; their
        // modify path queued the refresh. This covers direct membership
        // without references, which cannot happen, so it is just a
        // safety net.)
        self.queue_member_cluster_refresh(atom.id)?;
        self.cluster_membership.write().remove(&atom.id);
        Ok(())
    }

    fn queue_member_cluster_refresh(&self, member: AtomId) -> AccessResult<()> {
        let containing: Vec<(StructureId, AtomId)> = self
            .cluster_membership
            .read()
            .get(&member)
            .cloned()
            .unwrap_or_default();
        if containing.is_empty() {
            return Ok(());
        }
        let policy = self.update_policy();
        for (sid, ch) in containing {
            match policy {
                UpdatePolicy::Immediate => {
                    let ct = self.structures.read().clusters.get(&sid).cloned();
                    if let Some(ct) = ct {
                        if ct.contains(ch) {
                            self.materialize_cluster(&ct, ch)?;
                        }
                    }
                }
                UpdatePolicy::Deferred => self
                    .deferred
                    .push(PendingOp::RefreshCluster { structure: sid, characteristic: ch }),
            }
        }
        Ok(())
    }

    /// Resolves the member atoms of a characteristic atom and writes the
    /// cluster.
    fn materialize_cluster(&self, ct: &AtomClusterType, ch: AtomId) -> AccessResult<()> {
        let char_atom = self.read_primary(ch)?;
        let mut members = Vec::new();
        let mut member_ids = Vec::new();
        for &a in &ct.member_attrs {
            for target in char_atom.values.get(a).map(prima_mad::Value::referenced_ids).unwrap_or_default()
            {
                if self.addresses.exists(target) {
                    members.push(self.read_primary(target)?);
                    member_ids.push(target);
                }
            }
        }
        // Maintain the reverse membership map: clear old entries for this
        // (structure, characteristic) pair, then record the new members.
        {
            let mut membership = self.cluster_membership.write();
            for (_, v) in membership.iter_mut() {
                v.retain(|(st, c)| !(*st == ct.id && *c == ch));
            }
            for m in &member_ids {
                membership.entry(*m).or_default().push((ct.id, ch));
            }
        }
        ct.materialize(ch, &members)?;
        self.stats.records_written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Deferred reconciliation
    // -----------------------------------------------------------------

    /// Applies all pending deferred maintenance. Returns the number of
    /// actions performed.
    pub fn reconcile(&self) -> AccessResult<usize> {
        let mut n = 0;
        while let Some(op) = self.deferred.pop() {
            match op {
                PendingOp::RefreshCopy { structure, atom } => {
                    if !self.addresses.exists(atom) {
                        continue;
                    }
                    let current = self.read_primary(atom)?;
                    let s = self.structures.read();
                    if let Some(p) = s.partitions.get(&structure) {
                        if let Some(pl) = self.addresses.placement(atom, structure) {
                            let ptr = p.update(pl.ptr, &current)?;
                            self.addresses.set_placement(atom, structure, ptr);
                        }
                    } else if let Some(so) = s.sort_orders.get(&structure) {
                        if let Some(pl) = self.addresses.placement(atom, structure) {
                            // The copy at pl.ptr still holds the OLD key;
                            // read it to unlink, then update.
                            let old_copy = so.read_copy(pl.ptr)?;
                            let old_key = so.key_of(&old_copy);
                            let ptr = so.update(&old_key, &current)?;
                            self.addresses.set_placement(atom, structure, ptr);
                        }
                    }
                }
                PendingOp::DropCopy { structure, atom } => {
                    let s = self.structures.read();
                    if let Some(pl) = self.addresses.remove_placement(atom, structure) {
                        if let Some(p) = s.partitions.get(&structure) {
                            p.remove(pl.ptr)?;
                        }
                    }
                }
                PendingOp::RefreshCluster { structure, characteristic } => {
                    let ct = self.structures.read().clusters.get(&structure).cloned();
                    if let Some(ct) = ct {
                        if self.addresses.exists(characteristic) && ct.contains(characteristic) {
                            self.materialize_cluster(&ct, characteristic)?;
                        }
                    }
                }
            }
            n += 1;
        }
        Ok(n)
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

    /// Is this attribute a reference whose declared element type is a
    /// set? Used by callers that need the value shape.
    pub fn is_ref_set_attr(&self, t: AtomTypeId, attr: usize) -> bool {
        self.schema
            .atom_type(t)
            .and_then(|at| at.attributes.get(attr))
            .is_some_and(|a| matches!(a.ty, AttrType::RefSet(..)))
    }
}
