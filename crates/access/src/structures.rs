//! Tuning structures: one registry over the five kinds of Section 3.2.
//!
//! Partitions, sort orders, B*-trees, grid files and atom clusters "may
//! be generated and dropped at any time" and are kept up to date
//! immediately or by deferred update. Each is one [`Structure`] in one
//! registry; a write reaches every structure over its atom type through
//! one maintenance path (`on_insert`, `on_modify`, `on_delete`, one
//! `match` over the kinds each), and `refresh` rewrites a copy from its
//! primary record, now or at [`AccessSystem::reconcile`].
//!
//! The policy rule lives in one place: *copies* (partitions, sort orders,
//! clusters) follow the [`UpdatePolicy`]; *access paths* (B*-trees, grid
//! files) hold entries, not copies, and a stale entry would lose atoms,
//! so they are always maintained immediately.

use crate::access_system::AccessSystem;
use crate::addressing::StructureId;
use crate::atom::Atom;
use crate::btree::BTree;
use crate::cluster::AtomClusterType;
use crate::deferred::{DeferredQueue, Refresh};
use crate::error::{AccessError, AccessResult};
use crate::multidim::GridFile;
use crate::partition::Partition;
use crate::sort_order::SortOrder;
use parking_lot::{rank, RwLock, ShardedLock};
use prima_mad::codec::{encode_composite_key, encode_key};
use prima_mad::value::{AtomId, AtomTypeId, Value};
use prima_storage::PageSize;
use std::collections::HashMap;
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
        let vals: Vec<Value> =
            self.key_attrs.iter().map(|&i| values.get(i).cloned().unwrap_or(Value::Null)).collect();
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
                encode_key(values.get(i).unwrap_or(&Value::Null), &mut k);
                k
            })
            .collect()
    }
}

/// One tuning structure of any kind.
#[derive(Clone)]
pub enum Structure {
    Partition(Arc<Partition>),
    SortOrder(Arc<SortOrder>),
    BTree(Arc<BTreeIndex>),
    Grid(Arc<GridIndex>),
    Cluster(Arc<AtomClusterType>),
}

impl Structure {
    pub fn id(&self) -> StructureId {
        match self {
            Structure::Partition(p) => p.id,
            Structure::SortOrder(so) => so.id,
            Structure::BTree(ix) => ix.id,
            Structure::Grid(gx) => gx.id,
            Structure::Cluster(ct) => ct.id,
        }
    }

    pub fn name(&self) -> &str {
        match self {
            Structure::Partition(p) => &p.name,
            Structure::SortOrder(so) => &so.name,
            Structure::BTree(ix) => &ix.name,
            Structure::Grid(gx) => &gx.name,
            Structure::Cluster(ct) => &ct.name,
        }
    }

    /// The atom type whose writes the structure follows: for a cluster,
    /// the characteristic type.
    pub fn atom_type(&self) -> AtomTypeId {
        match self {
            Structure::Partition(p) => p.atom_type,
            Structure::SortOrder(so) => so.atom_type,
            Structure::BTree(ix) => ix.atom_type,
            Structure::Grid(gx) => gx.atom_type,
            Structure::Cluster(ct) => ct.char_type,
        }
    }

    /// Adds a new atom (or, at creation, an existing one). A new
    /// characteristic atom generates a new cluster.
    fn on_insert(&self, sys: &AccessSystem, atom: &Atom) -> AccessResult<()> {
        match self {
            Structure::BTree(ix) => return ix.tree.insert(&ix.key_of(&atom.values), atom.id),
            Structure::Grid(gx) => {
                return gx.grid.write().insert(gx.keys_of(&atom.values), atom.id);
            }
            Structure::Partition(p) => {
                sys.addresses.set_placement(atom.id, p.id, p.store(atom)?);
            }
            Structure::SortOrder(so) => {
                sys.addresses.set_placement(atom.id, so.id, so.insert(atom)?);
            }
            Structure::Cluster(ct) => sys.materialize_cluster(ct, atom)?,
        }
        sys.stats.records_written.add(1);
        Ok(())
    }

    /// Follows a modification of `old` into `new`.
    fn on_modify(&self, sys: &AccessSystem, old: &Atom, new: &Atom) -> AccessResult<()> {
        match self {
            Structure::BTree(ix) => {
                let (ok, nk) = (ix.key_of(&old.values), ix.key_of(&new.values));
                if ok != nk {
                    ix.tree.remove(&ok, new.id)?;
                    ix.tree.insert(&nk, new.id)?;
                }
                Ok(())
            }
            Structure::Grid(gx) => {
                let (ok, nk) = (gx.keys_of(&old.values), gx.keys_of(&new.values));
                if ok != nk {
                    let mut g = gx.grid.write();
                    g.remove(&ok, new.id)?;
                    g.insert(nk, new.id)?;
                }
                Ok(())
            }
            _ => self.copy_changed(sys, new.id),
        }
    }

    /// Removes a deleted atom. Deleting a characteristic atom deletes its
    /// whole cluster.
    fn on_delete(&self, sys: &AccessSystem, atom: &Atom) -> AccessResult<()> {
        match self {
            Structure::Partition(p) => {
                if let Some(pl) = sys.addresses.remove_placement(atom.id, p.id) {
                    p.remove(pl.ptr)?;
                }
            }
            Structure::SortOrder(so) => {
                if let Some(pl) = sys.addresses.remove_placement(atom.id, so.id) {
                    // A stale copy is still filed under the key it had.
                    let key =
                        if pl.stale { so.key_of(&so.read_copy(pl.ptr)?) } else { so.key_of(atom) };
                    so.remove(&key, atom.id)?;
                }
            }
            Structure::BTree(ix) => {
                ix.tree.remove(&ix.key_of(&atom.values), atom.id)?;
            }
            Structure::Grid(gx) => {
                gx.grid.write().remove(&gx.keys_of(&atom.values), atom.id)?;
            }
            Structure::Cluster(ct) => {
                if ct.drop_cluster(atom.id)? {
                    sys.structures.set_members(ct.id, atom.id, &[]);
                }
            }
        }
        Ok(())
    }

    /// Rewrites the copy of `atom` from its primary record; false if
    /// there is no copy to rewrite (access paths hold none).
    fn refresh(&self, sys: &AccessSystem, atom: AtomId) -> AccessResult<bool> {
        if !sys.exists(atom) {
            return Ok(false);
        }
        let current = sys.read_primary(atom)?;
        let placement = sys.addresses.placement(atom, self.id());
        let ptr = match (self, placement) {
            (Structure::Partition(p), Some(pl)) => p.update(pl.ptr, &current)?,
            // The copy may hold an older key than `current`: unlink it
            // under the key it is filed under.
            (Structure::SortOrder(so), Some(pl)) => {
                so.update(&so.key_of(&so.read_copy(pl.ptr)?), &current)?
            }
            (Structure::Cluster(ct), _) if ct.contains(atom) => {
                sys.materialize_cluster(ct, &current)?;
                return Ok(true);
            }
            _ => return Ok(false),
        };
        sys.addresses.set_placement(atom, self.id(), ptr);
        Ok(true)
    }

    /// The copy derived from `atom` (its own, or for a cluster the one
    /// `atom` characterises) is out of date: refresh it now, or mark it
    /// stale and queue the refresh, as the update policy says.
    fn copy_changed(&self, sys: &AccessSystem, atom: AtomId) -> AccessResult<()> {
        if sys.update_policy() == UpdatePolicy::Immediate {
            if self.refresh(sys, atom)? {
                sys.stats.records_written.add(1);
            }
            return Ok(());
        }
        let has_copy = match self {
            Structure::Cluster(ct) => ct.contains(atom),
            _ => sys.addresses.mark_stale(atom, self.id()),
        };
        if has_copy {
            sys.structures.deferred.push(Refresh { structure: self.id(), atom });
        }
        Ok(())
    }
}

/// The directory behind the registry latch.
#[derive(Default)]
struct Structures {
    next_id: StructureId,
    by_name: HashMap<String, StructureId>,
    by_id: HashMap<StructureId, Structure>,
}

/// The tuning-structure registry of one access system, with what
/// maintenance needs beside it: cluster membership, the deferred queue and
/// the update policy.
pub(crate) struct Registry {
    // lockrank: access.0 — tuning-structure directory, reader-striped;
    // read-held while a write maintains the structures over its atom type and while
    // reconciliation refreshes a copy.
    directory: ShardedLock<Structures>,
    /// member atom -> clusters containing it: (cluster structure,
    /// characteristic atom).
    // lockrank: access.1 — registry peers (membership, policy, key maps):
    // transient holds that never nest with one another.
    membership: RwLock<HashMap<AtomId, Vec<(StructureId, AtomId)>>>,
    deferred: DeferredQueue,
    // lockrank: access.1 — registry peer; transient holds.
    policy: RwLock<UpdatePolicy>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            directory: ShardedLock::new_ranked(Structures::default(), rank::ACCESS),
            membership: RwLock::new_ranked(HashMap::new(), rank::ACCESS + 1),
            deferred: DeferredQueue::new(),
            policy: RwLock::new_ranked(UpdatePolicy::Deferred, rank::ACCESS + 1),
        }
    }
}

impl Registry {
    /// Records `members` as the members of the cluster of `ch` in `sid`,
    /// replacing what was recorded.
    fn set_members(&self, sid: StructureId, ch: AtomId, members: &[Atom]) {
        let mut membership = self.membership.write();
        for v in membership.values_mut() {
            v.retain(|&e| e != (sid, ch));
        }
        for m in members {
            membership.entry(m.id).or_default().push((sid, ch));
        }
    }
}

impl AccessSystem {
    /// Creates a partition over `attrs` of `t` and populates it from the
    /// existing atoms. "Such a redundant structure … may be generated and
    /// dropped at any time."
    pub fn create_partition(
        &self,
        name: &str,
        t: AtomTypeId,
        attrs: Vec<usize>,
    ) -> AccessResult<StructureId> {
        let at = self.schema().atom_type(t).ok_or(AccessError::NoSuchAtomType(t))?;
        let id_idx = at.identifier_index();
        self.install(name, |sid| {
            let p = Partition::create(Arc::clone(self.storage()), sid, name, t, attrs, id_idx)?;
            Ok(Structure::Partition(Arc::new(p)))
        })
    }

    /// Creates a sort order over `key_attrs` of `t`, populated.
    pub fn create_sort_order(
        &self,
        name: &str,
        t: AtomTypeId,
        key_attrs: Vec<usize>,
    ) -> AccessResult<StructureId> {
        self.install(name, |sid| {
            let so = SortOrder::create(Arc::clone(self.storage()), sid, name, t, key_attrs)?;
            Ok(Structure::SortOrder(Arc::new(so)))
        })
    }

    /// Creates a B*-tree access path over `key_attrs` of `t`, populated.
    pub fn create_btree_index(
        &self,
        name: &str,
        t: AtomTypeId,
        key_attrs: Vec<usize>,
    ) -> AccessResult<StructureId> {
        self.install(name, |id| {
            let tree = BTree::create(Arc::clone(self.storage()))?;
            let name = name.to_string();
            Ok(Structure::BTree(Arc::new(BTreeIndex { id, name, atom_type: t, key_attrs, tree })))
        })
    }

    /// Creates a multi-dimensional (grid file) access path, populated.
    pub fn create_grid_index(
        &self,
        name: &str,
        t: AtomTypeId,
        key_attrs: Vec<usize>,
    ) -> AccessResult<StructureId> {
        self.install(name, |id| {
            let grid = GridFile::create(Arc::clone(self.storage()), key_attrs.len())?;
            let grid = RwLock::new_ranked(grid, rank::ACCESS + 3);
            let name = name.to_string();
            Ok(Structure::Grid(Arc::new(GridIndex { id, name, atom_type: t, key_attrs, grid })))
        })
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
        let at =
            self.schema().atom_type(char_type).ok_or(AccessError::NoSuchAtomType(char_type))?;
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
        self.install(name, |sid| {
            let ct = AtomClusterType::create(
                Arc::clone(self.storage()),
                sid,
                name,
                char_type,
                member_attrs,
                page_size,
            )?;
            Ok(Structure::Cluster(Arc::new(ct)))
        })
    }

    /// The one install step: builds the empty structure under a fresh id,
    /// fills it from the base file, then registers name and structure
    /// together. A failed fill registers nothing and leaves no placement.
    fn install(
        &self,
        name: &str,
        build: impl FnOnce(StructureId) -> AccessResult<Structure>,
    ) -> AccessResult<StructureId> {
        let duplicate = || AccessError::DuplicateStructure(name.to_string());
        let sid = {
            let mut d = self.structures.directory.write();
            if d.by_name.contains_key(name) {
                return Err(duplicate());
            }
            d.next_id += 1;
            d.next_id - 1
        };
        let structure = build(sid)?;
        let filled = self.all_ids(structure.atom_type()).and_then(|ids| {
            ids.into_iter().try_for_each(|id| structure.on_insert(self, &self.read_primary(id)?))
        });
        let mut d = self.structures.directory.write();
        match filled {
            Ok(()) if !d.by_name.contains_key(name) => {
                d.by_name.insert(name.to_string(), sid);
                d.by_id.insert(sid, structure);
                Ok(sid)
            }
            filled => {
                drop(d);
                self.forget(sid);
                Err(filled.err().unwrap_or_else(duplicate))
            }
        }
    }

    /// Drops any tuning structure by name.
    pub fn drop_structure(&self, name: &str) -> AccessResult<()> {
        let sid = {
            let mut d = self.structures.directory.write();
            let sid = d
                .by_name
                .remove(name)
                .ok_or_else(|| AccessError::NoSuchStructure(name.to_string()))?;
            d.by_id.remove(&sid);
            sid
        };
        self.forget(sid);
        Ok(())
    }

    /// Removes what an unregistered structure left behind: placements,
    /// cluster memberships and queued refreshes.
    fn forget(&self, sid: StructureId) {
        for v in self.structures.membership.write().values_mut() {
            v.retain(|(st, _)| *st != sid);
        }
        self.addresses.drop_structure(sid);
        self.structures.deferred.purge_structure(sid);
    }

    /// The structure registered under `name`.
    pub fn structure(&self, name: &str) -> Option<Structure> {
        let d = self.structures.directory.read();
        d.by_name.get(name).and_then(|sid| d.by_id.get(sid)).cloned()
    }

    /// The structures over atom type `t` (clusters: whose characteristic
    /// type is `t`), for scan planning.
    pub fn structures_of(&self, t: AtomTypeId) -> Vec<Structure> {
        let d = self.structures.directory.read();
        d.by_id.values().filter(|s| s.atom_type() == t).cloned().collect()
    }

    /// Whether the copy of `id` in `structure` is stale (deferred update
    /// pending) or missing — in both cases a reader must use the primary.
    pub fn deferred_stale(&self, id: AtomId, structure: StructureId) -> bool {
        self.addresses.placement(id, structure).is_none_or(|p| p.stale)
    }

    pub fn deferred_queue(&self) -> &DeferredQueue {
        &self.structures.deferred
    }

    /// Sets the maintenance policy for redundant copies.
    pub fn set_update_policy(&self, p: UpdatePolicy) {
        *self.structures.policy.write() = p;
    }

    pub fn update_policy(&self) -> UpdatePolicy {
        *self.structures.policy.read()
    }

    /// Brings every structure up to date after a write of one atom: an
    /// insert (`old` is `None`), a modify, or a delete (`new` is `None`).
    /// Besides the structures over the atom's type, the clusters holding
    /// the atom as a member are out of date.
    pub(crate) fn maintain(&self, old: Option<&Atom>, new: Option<&Atom>) -> AccessResult<()> {
        let Some(atom) = new.or(old) else { return Ok(()) };
        let directory = self.structures.directory.read();
        for s in directory.by_id.values().filter(|s| s.atom_type() == atom.id.atom_type) {
            match (old, new) {
                (Some(old), Some(new)) => s.on_modify(self, old, new)?,
                (Some(old), None) => s.on_delete(self, old)?,
                (None, _) => s.on_insert(self, atom)?,
            }
        }
        let containing =
            self.structures.membership.read().get(&atom.id).cloned().unwrap_or_default();
        for (sid, ch) in containing {
            if let Some(s) = directory.by_id.get(&sid) {
                s.copy_changed(self, ch)?;
            }
        }
        drop(directory);
        if new.is_none() {
            self.structures.membership.write().remove(&atom.id);
        }
        Ok(())
    }

    /// Whether [`AccessSystem::maintain`] has anything to do for a write
    /// of `id`: a structure over its type, or a cluster holding it (none
    /// can while there is no structure at all).
    pub(crate) fn is_followed(&self, id: AtomId) -> bool {
        let directory = self.structures.directory.read();
        !directory.by_id.is_empty()
            && (directory.by_id.values().any(|s| s.atom_type() == id.atom_type)
                || self.structures.membership.read().contains_key(&id))
    }

    /// Resolves the member atoms of a characteristic atom and writes the
    /// cluster.
    fn materialize_cluster(&self, ct: &AtomClusterType, ch: &Atom) -> AccessResult<()> {
        let mut members = Vec::new();
        for &a in &ct.member_attrs {
            for &target in ch.values.get(a).map_or(&[][..], Value::ref_ids) {
                if self.exists(target) {
                    members.push(self.read_primary(target)?);
                }
            }
        }
        self.structures.set_members(ct.id, ch.id, &members);
        ct.materialize(ch.id, &members)
    }

    /// Applies all pending deferred maintenance. Returns the number of
    /// copies rewritten.
    pub fn reconcile(&self) -> AccessResult<usize> {
        let mut n = 0;
        while let Some(Refresh { structure, atom }) = self.structures.deferred.pop() {
            let directory = self.structures.directory.read();
            if let Some(s) = directory.by_id.get(&structure) {
                n += usize::from(s.refresh(self, atom)?);
            }
        }
        Ok(n)
    }
}
