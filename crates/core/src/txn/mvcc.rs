//! MVCC version store: snapshot reads that never take a lock.
//!
//! PRIMA's workload is checkout/analyze/checkin — read-dominated. Under
//! strict 2PL (PR 5/6) every reader of an atom type serialises behind
//! any uncommitted writer of that type via the extension lock. The
//! version store removes readers from the lock table entirely:
//!
//! * **Writers** install a *version entry* — the before-image of every
//!   atom they touch, back-reference partners included — **before** the
//!   base storage is mutated, chained under the writer's transaction.
//!   A written atom gets an entry per write: the same image its WAL undo
//!   record carries, and the only in-memory one — abort replays these
//!   *undo entries* ([`VersionStore::undo_images`]). A partner rewritten
//!   by the integrity maintenance gets one *visibility-only* entry, on
//!   the transaction's first touch. Writers keep strict 2PL against each
//!   other; nothing about write-write conflicts changes.
//! * **Readers** register a [`Snapshot`] at statement start: a single
//!   `u64` position in the store's commit order (`commit_seq`). Every base
//!   read is then *resolved* through the store — if a chain says the
//!   atom changed after the snapshot (or is dirty right now), the
//!   reader gets the before-image instead of the base value; if the
//!   chain says the atom did not yet exist, the reader skips it. No
//!   lock is acquired anywhere on the path.
//!
//! # Version entries and visibility
//!
//! A chain holds entries **oldest-first**. Each entry
//! `{owner, end, image}` records "`image` was the atom's committed
//! value until commit `end`" — `end == None` means the overwrite is
//! still uncommitted (+∞), `image == None` means the atom did not
//! exist at that point (it was inserted by `owner`). The value visible
//! to snapshot `S` is the image of the **oldest entry with
//! `end > S`**; if no entry qualifies, the base value is visible
//! unchanged.
//!
//! Commit stamps a writer's entries with the next commit position
//! (keeping only the *deepest* entry per atom — intermediate images of
//! a multi-update transaction were never committed state). Abort also
//! stamps (with a bumped position) rather than deleting: a reader that
//! caught the dirty base value just before rollback restored it must
//! still resolve to the before-image — stamped entries age out through
//! the same GC as committed ones. A savepoint rollback is the same
//! stamp on the entries past the savepoint only; from then on those
//! entries belong to no later commit stamp, undo or rollback of their
//! transaction, which only ever touch its *unstamped* entries.
//!
//! # The race discipline
//!
//! Correctness under concurrent readers rests on two orderings, the
//! read-path mirror of "log the undo before the page image":
//!
//! 1. writers install the version entry **before** mutating base
//!    storage;
//! 2. readers read base **first**, then resolve through the store.
//!
//! Whatever the interleaving, a reader that saw a dirty/new base value
//! finds the entry that corrects it, and a reader whose resolve came
//! up empty is guaranteed its base read predated the mutation.
//!
//! # Garbage collection
//!
//! Stamped entries are queued per commit position; the reclaim
//! watermark is the **oldest active snapshot** (or the current commit
//! position when none is open). A group whose position is at or below
//! the watermark can no longer be seen by any present or future
//! snapshot and is dropped — with no readers open, versions die at the
//! commit that obsoleted them. [`VersionStats`] counts installs,
//! reclaims, snapshot reads and chain shape for observability
//! (`Prima::metrics().version`).
//!
//! Readers register without the store's mutex, so that pinning and
//! releasing a snapshot writes nothing another session writes:
//!
//! * the commit position is **published** in an atomic, stored under
//!   the store's mutex by every stamping commit or abort;
//! * the registry is one **slot per thread stripe**
//!   (`parking_lot::stripe`): a latch over a short list of
//!   `(position, readers)` pairs. A reader locks its own slot, reads
//!   the published position *inside* that latch, and registers it
//!   there; a [`Snapshot`] remembers its slot, because a cursor may drop
//!   it on another thread;
//! * GC runs under the store's mutex, after the new position is
//!   published, and takes the watermark as the minimum over every slot,
//!   locking each in turn.
//!
//! The race argument is the slot latch's total order. A reader that
//! registers in slot `i` before GC scans slot `i` is counted in the
//! watermark. One that registers after GC scanned slot `i` locked the
//! slot after GC released it, so its read of the position happens after
//! the publication: its position is at least the new one, and an entry
//! stamped at or below its position resolves to the base value, never to
//! the reclaimed image. Releasing a snapshot takes the store's mutex
//! (to run GC) only while version chains exist; with none there is
//! nothing its release could free.
//!
//! The store is volatile by design: restart recovery rebuilds the
//! kernel with an empty store (`Prima::open`), because the WAL undo
//! path already erases every uncommitted version from base storage —
//! crash semantics need no MVCC persistence.

use super::TxnId;
use parking_lot::{rank, stripe, CachePadded, Mutex, STRIPES};
use prima_access::Atom;
use prima_mad::value::{AtomId, AtomTypeId};
use prima_storage::IdBuildHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One link in an atom's version chain (see module docs for the
/// visibility rule).
struct VersionEntry {
    /// Transaction whose overwrite this before-image belongs to.
    owner: TxnId,
    /// Commit position at which the overwrite became permanent;
    /// `None` while the owner is active (+∞ for visibility).
    end: Option<u64>,
    /// The atom's value before the overwrite; `None` if it did not
    /// exist (the owner inserted it).
    image: Option<Atom>,
    /// Whether abort replays this entry (a write's before-image) or only
    /// readers see it (a back-reference partner's).
    undo: bool,
}

struct Inner {
    /// Version chains, oldest entry first.
    chains: HashMap<AtomId, Vec<VersionEntry>>,
    /// Atoms with entries owned by each active transaction.
    by_txn: HashMap<TxnId, Vec<AtomId>>,
    /// All atoms with live chains, per type — the "extras" index that
    /// lets a snapshot scan find atoms a dirty base scan cannot show it
    /// (deleted in base, or filtered out by a pushed-down predicate on
    /// the dirty value).
    by_type: HashMap<AtomTypeId, HashSet<AtomId>>,
    /// Stamped entry groups awaiting reclaim, in commit order.
    reclaim: VecDeque<(u64, Vec<AtomId>)>,
}

prima_storage::counter_family! {
    /// Counters for the version store (lock-free increments); the store
    /// shape is sampled under the store mutex by [`VersionStore::stats`].
    pub struct VersionStats => VersionStatsSnapshot as "version" {
        /// Version entries installed by writers (before-images chained).
        counter versions_installed,
        /// Entries dropped by GC (including intermediate images deduped at
        /// commit stamping).
        counter versions_reclaimed,
        /// Snapshots registered by readers.
        counter snapshots_opened,
        /// Base reads resolved through the store on the snapshot path.
        counter snapshot_reads,
        /// Longest chain ever observed at install time.
        gauge max_chain_len,
    } sampled {
        /// Entries currently live across all chains.
        live_versions,
        /// Atoms currently carrying a chain.
        live_chains,
        /// Commit positions between the oldest active snapshot and now
        /// (0 when no snapshot is open) — how much history GC must retain.
        oldest_snapshot_lag,
    }
}

/// Outcome of resolving one base read against a snapshot.
pub enum Resolution {
    /// No chain says otherwise: the base value (or base absence) is
    /// what the snapshot sees.
    Unchanged,
    /// The snapshot sees this before-image instead of the base value.
    Image(Atom),
    /// The atom did not exist at the snapshot: skip it even if base
    /// has it.
    Invisible,
}

/// One registry slot's readers: `(position, reader count)` pairs.
type Readers = Vec<(u64, u32)>;

/// The version store. One per kernel, shared by the transaction
/// manager (writer hooks) and every snapshot reader.
pub struct VersionStore {
    // lockrank: mvcc.0 — chain table; every hold is transient (no I/O;
    // GC takes the registry slots inside it).
    inner: Mutex<Inner>,
    /// The snapshot registry, one slot per thread stripe: the positions
    /// its readers pinned, with their reader counts. A slot holds a few
    /// pairs at most and keeps its capacity, so a warm registration
    /// allocates nothing.
    // lockrank: mvcc.1 — registry slots; a reader holds only its own,
    // GC each in turn inside `inner`.
    readers: [CachePadded<Mutex<Readers>>; STRIPES],
    /// Position in commit order, bumped under `inner` by every stamping
    /// commit or abort. A snapshot is a sampled value of it.
    published: AtomicU64,
    stats: VersionStats,
    /// Lock-free fast path: number of live chains. While 0, resolves
    /// return [`Resolution::Unchanged`] without touching the mutex —
    /// the single-writer-free case pays nothing per read. Release/
    /// Acquire pairing with the base-page synchronisation makes the
    /// shortcut sound (see the race discipline in the module docs).
    live_chains: AtomicUsize,
}

impl VersionStore {
    pub fn new() -> Arc<VersionStore> {
        Arc::new(VersionStore {
            inner: Mutex::new_ranked(Inner {
                chains: HashMap::new(),
                by_txn: HashMap::new(),
                by_type: HashMap::new(),
                reclaim: VecDeque::new(),
            }, rank::MVCC),
            readers: std::array::from_fn(|_| {
                CachePadded(Mutex::new_ranked(Vec::with_capacity(4), rank::MVCC + 1))
            }),
            published: AtomicU64::new(0),
            stats: VersionStats::default(),
            live_chains: AtomicUsize::new(0),
        })
    }

    /// Registers a reader at the current commit position, in the
    /// calling thread's registry slot (module docs, *Garbage
    /// collection*). The snapshot holds back GC until dropped.
    pub fn begin_snapshot(self: &Arc<Self>) -> Snapshot {
        let slot = stripe();
        let mut readers = self.readers[slot].lock();
        // Read inside the slot latch: the race argument depends on it.
        let seq = self.published.load(Ordering::Acquire);
        match readers.iter_mut().find(|(pos, _)| *pos == seq) {
            Some((_, n)) => *n += 1,
            None => readers.push((seq, 1)),
        }
        drop(readers);
        self.stats.snapshots_opened.add(1);
        Snapshot { store: Arc::clone(self), seq, slot }
    }

    /// Bumps the commit position under `inner` (the caller's guard) and
    /// publishes it; returns the new position.
    fn publish_next(&self, _inner: &mut Inner) -> u64 {
        let c = self.published.load(Ordering::Relaxed) + 1;
        self.published.store(c, Ordering::Release);
        c
    }

    /// The oldest registered snapshot position, if any reader is open.
    fn oldest_snapshot(&self) -> Option<u64> {
        let oldest = |slot: &Mutex<Readers>| slot.lock().iter().map(|&(p, _)| p).min();
        self.readers.iter().filter_map(|slot| oldest(slot)).min()
    }

    /// Chains `image` (the atom's value before `txn`'s overwrite;
    /// `None` for an insert) under `txn`. Must run **before** the base
    /// mutation it shadows. A visibility-only entry (`undo` false) is
    /// skipped when the chain already holds an unstamped entry — one of
    /// `txn`, as the exclusive lock on `id` guarantees: readers resolve
    /// to the oldest entry, so a later one is never read.
    pub fn install(&self, txn: TxnId, id: AtomId, image: Option<&Atom>, undo: bool) {
        let installed = self.install_with(txn, id, undo, || Ok::<_, Infallible>(image.cloned()));
        installed.unwrap_or_else(|never| match never {});
    }

    /// [`VersionStore::install`] with the image made on demand: `image`
    /// runs only when the entry is chained, and outside the store's
    /// latch, so it may read the atom from the buffer. Its error is
    /// returned and nothing is chained.
    pub fn install_with<E>(
        &self,
        txn: TxnId,
        id: AtomId,
        undo: bool,
        image: impl FnOnce() -> Result<Option<Atom>, E>,
    ) -> Result<(), E> {
        if !undo {
            let inner = self.inner.lock();
            if inner.chains.get(&id).is_some_and(|c| c.iter().any(|e| e.end.is_none())) {
                return Ok(());
            }
        }
        let image = image()?;
        let mut inner = self.inner.lock();
        let chain = inner.chains.entry(id).or_default();
        let fresh = chain.is_empty();
        chain.push(VersionEntry { owner: txn, end: None, image, undo });
        let len = chain.len() as u64;
        if fresh {
            inner.by_type.entry(id.atom_type).or_default().insert(id);
            self.live_chains.fetch_add(1, Ordering::Release);
        }
        inner.by_txn.entry(txn).or_default().push(id);
        drop(inner);
        self.stats.versions_installed.add(1);
        self.stats.max_chain_len.fetch_max(len, Ordering::Relaxed);
        Ok(())
    }

    /// `txn`'s savepoint: the number of entries it has installed and not
    /// rolled back. [`VersionStore::undo_images`] and
    /// [`VersionStore::rollback`] take it as `from`.
    pub fn mark(&self, txn: TxnId) -> usize {
        self.inner.lock().by_txn.get(&txn).map_or(0, Vec::len)
    }

    /// `txn`'s undo entries past savepoint `from`, newest first: for each
    /// of its writes since, the written atom's value before it (`None`:
    /// the write inserted it). `by_txn` lists the atom once per unstamped
    /// entry in install order, so the `n`-th last listing of an atom is
    /// its `n`-th last unstamped entry of `txn`.
    pub fn undo_images(&self, txn: TxnId, from: usize) -> Vec<(AtomId, Option<Atom>)> {
        let inner = self.inner.lock();
        let Some(ids) = inner.by_txn.get(&txn) else { return Vec::new() };
        let mut seen: HashMap<AtomId, usize> = HashMap::new();
        let mut out = Vec::new();
        for &id in ids.iter().skip(from).rev() {
            let n = seen.entry(id).or_default();
            let chain = inner.chains.get(&id).into_iter().flatten();
            let entry = chain.rev().filter(|e| e.owner == txn && e.end.is_none()).nth(*n);
            *n += 1;
            if let Some(e) = entry.filter(|e| e.undo) {
                out.push((id, e.image.clone()));
            }
        }
        out
    }

    /// Stamps `txn`'s entries at the next commit position. Only the
    /// deepest entry per atom survives — it carries the value from
    /// before the transaction's *first* touch; intermediate images were
    /// never committed state and are reclaimed on the spot.
    pub fn commit_stamp(&self, txn: TxnId) {
        let mut inner = self.inner.lock();
        let Some(ids) = inner.by_txn.remove(&txn) else { return };
        let c = self.publish_next(&mut inner);
        // `by_txn` lists an atom once per entry; stamp each atom once,
        // in first-listing order.
        let mut seen: HashSet<AtomId, IdBuildHasher> =
            HashSet::with_capacity_and_hasher(ids.len(), IdBuildHasher::default());
        let mut stamped: Vec<AtomId> = Vec::with_capacity(ids.len());
        let mut dropped = 0u64;
        for id in ids {
            if !seen.insert(id) {
                continue;
            }
            let Some(chain) = inner.chains.get_mut(&id) else { continue };
            let mut kept = false;
            chain.retain_mut(|e| {
                if e.owner != txn || e.end.is_some() {
                    return true;
                }
                if kept {
                    dropped += 1;
                    return false;
                }
                kept = true;
                e.end = Some(c);
                true
            });
            if kept {
                stamped.push(id);
            }
        }
        if !stamped.is_empty() {
            inner.reclaim.push_back((c, stamped));
        }
        self.gc_locked(&mut inner, dropped);
    }

    /// Retires `txn`'s entries past savepoint `from` once their writes
    /// are undone (`from` 0: all of them, on abort). Entries are
    /// *stamped* (at a bumped position), not deleted: a reader whose
    /// base read caught the dirty value resolves to the before-image
    /// until every snapshot from before the rollback has closed; after
    /// that the image equals the restored base value and GC drops it.
    pub fn rollback(&self, txn: TxnId, from: usize) {
        let mut inner = self.inner.lock();
        let mut ids = match inner.by_txn.get_mut(&txn) {
            None => return,
            Some(ids) if from > 0 => ids.split_off(from.min(ids.len())),
            Some(_) => inner.by_txn.remove(&txn).unwrap_or_default(),
        };
        if ids.is_empty() {
            return;
        }
        let c = self.publish_next(&mut inner);
        // Each listing past `from` is one of the atom's newest unstamped
        // entries of `txn`.
        for id in &ids {
            let chain = inner.chains.get_mut(id).into_iter().flatten();
            if let Some(e) = chain.rev().find(|e| e.owner == txn && e.end.is_none()) {
                e.end = Some(c);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        inner.reclaim.push_back((c, ids));
        self.gc_locked(&mut inner, 0);
    }

    /// Resolves base reads for snapshot `seq` in place (module docs:
    /// oldest entry with `end > seq`, else base): `bases[i]` is the base
    /// outcome for `ids[i]` (`None` = not in base) and becomes what the
    /// snapshot sees (`None` = not visible). One batch is one count of
    /// `ids.len()` reads and at most one hold of the store's mutex.
    pub fn resolve_all(&self, seq: u64, ids: &[AtomId], bases: &mut [Option<Atom>]) {
        self.stats.snapshot_reads.add(ids.len() as u64);
        if self.live_chains.load(Ordering::Acquire) == 0 {
            return;
        }
        let inner = self.inner.lock();
        for (&id, base) in ids.iter().zip(bases) {
            match Self::resolve_locked(&inner, seq, id) {
                Resolution::Unchanged => {}
                Resolution::Image(atom) => *base = Some(atom),
                Resolution::Invisible => *base = None,
            }
        }
    }

    fn resolve_locked(inner: &Inner, seq: u64, id: AtomId) -> Resolution {
        let Some(chain) = inner.chains.get(&id) else { return Resolution::Unchanged };
        for e in chain {
            if e.end.is_none_or(|end| end > seq) {
                return match &e.image {
                    Some(atom) => Resolution::Image(atom.clone()),
                    None => Resolution::Invisible,
                };
            }
        }
        Resolution::Unchanged
    }

    /// Atoms of `ty` that a base scan may have missed (deleted from
    /// base, or carrying a dirty value the scan's pushed-down predicate
    /// filtered out): every chained atom of the type not in `seen`
    /// whose visible version exists. The caller re-qualifies the
    /// returned images against the full root predicate.
    pub fn visible_extras(
        &self,
        seq: u64,
        ty: AtomTypeId,
        seen: &HashSet<AtomId, IdBuildHasher>,
    ) -> Vec<Atom> {
        if self.live_chains.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let inner = self.inner.lock();
        let Some(ids) = inner.by_type.get(&ty) else { return Vec::new() };
        let mut out = Vec::new();
        for id in ids {
            if seen.contains(id) {
                continue;
            }
            if let Resolution::Image(atom) = Self::resolve_locked(&inner, seq, *id) {
                out.push(atom);
            }
        }
        out
    }

    fn end_snapshot(&self, seq: u64, slot: usize) {
        let mut readers = self.readers[slot].lock();
        if let Some(i) = readers.iter().position(|(pos, _)| *pos == seq) {
            readers[i].1 -= 1;
            if readers[i].1 == 0 {
                readers.swap_remove(i);
            }
        }
        drop(readers);
        // With no chain alive there is nothing for GC to free.
        if self.live_chains.load(Ordering::Acquire) > 0 {
            let mut inner = self.inner.lock();
            self.gc_locked(&mut inner, 0);
        }
    }

    /// Reclaims every stamped group at or below the watermark (oldest
    /// active snapshot, else the current commit position): no present
    /// or future snapshot can resolve to those entries any more. Runs
    /// under `inner`, so after the latest position was published.
    fn gc_locked(&self, inner: &mut Inner, mut reclaimed: u64) {
        let now = self.published.load(Ordering::Relaxed);
        let watermark = self.oldest_snapshot().map_or(now, |oldest| oldest.min(now));
        while let Some((c, ids)) = inner.reclaim.pop_front() {
            if c > watermark {
                // Not yet reclaimable: put it back and stop (the deque is
                // ordered by commit position).
                inner.reclaim.push_front((c, ids));
                break;
            }
            for id in ids {
                let Some(chain) = inner.chains.get_mut(&id) else { continue };
                let before = chain.len();
                chain.retain(|e| e.end != Some(c));
                reclaimed += (before - chain.len()) as u64;
                if chain.is_empty() {
                    inner.chains.remove(&id);
                    if let Some(set) = inner.by_type.get_mut(&id.atom_type) {
                        set.remove(&id);
                        if set.is_empty() {
                            inner.by_type.remove(&id.atom_type);
                        }
                    }
                    self.live_chains.fetch_sub(1, Ordering::Release);
                }
            }
        }
        if reclaimed > 0 {
            self.stats.versions_reclaimed.add(reclaimed);
        }
    }

    /// Counters plus current store shape.
    pub fn stats(&self) -> VersionStatsSnapshot {
        let inner = self.inner.lock();
        let live_versions = inner.chains.values().map(|c| c.len() as u64).sum();
        let now = self.published.load(Ordering::Relaxed);
        let oldest_snapshot_lag = self.oldest_snapshot().map_or(0, |oldest| now - oldest);
        self.stats.snapshot(live_versions, inner.chains.len() as u64, oldest_snapshot_lag)
    }
}

/// A registered read position in commit order. Everything resolved
/// through one snapshot sees the database exactly as of its
/// registration, however long it lives and whatever commits in the
/// meantime; dropping it releases its hold on GC.
pub struct Snapshot {
    store: Arc<VersionStore>,
    seq: u64,
    /// The registry slot it is registered in: its opening thread's
    /// stripe, not necessarily the dropping thread's.
    slot: usize,
}

impl Snapshot {
    /// The version of `id` this snapshot sees, given the base read
    /// outcome (`None` = not in base). `None` means the atom is not
    /// visible at all.
    pub fn visible(&self, id: AtomId, mut base: Option<Atom>) -> Option<Atom> {
        self.visible_all(&[id], std::slice::from_mut(&mut base));
        base
    }

    /// [`Snapshot::visible`] of a batch, in place: `bases[i]` is the base
    /// outcome for `ids[i]`.
    pub fn visible_all(&self, ids: &[AtomId], bases: &mut [Option<Atom>]) {
        self.store.resolve_all(self.seq, ids, bases);
    }

    /// Visible atoms of `ty` a base scan cannot have delivered (see
    /// [`VersionStore::visible_extras`]).
    pub fn extras(&self, ty: AtomTypeId, seen: &HashSet<AtomId, IdBuildHasher>) -> Vec<Atom> {
        self.store.visible_extras(self.seq, ty, seen)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.store.end_snapshot(self.seq, self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_mad::value::Value;

    fn atom(id: AtomId, n: i64) -> Atom {
        Atom::new(id, vec![Value::Id(id), Value::Int(n)])
    }

    #[test]
    fn uncommitted_overwrite_resolves_to_before_image() {
        let store = VersionStore::new();
        let id = AtomId::new(1, 1);
        let snap = store.begin_snapshot();
        store.install(TxnId(7), id, Some(&atom(id, 1)), true);
        // Base now (conceptually) holds the dirty value 2.
        let seen = snap.visible(id, Some(atom(id, 2))).unwrap();
        assert_eq!(seen.values[1], Value::Int(1));
    }

    #[test]
    fn commit_stamp_splits_visibility_at_the_snapshot() {
        let store = VersionStore::new();
        let id = AtomId::new(1, 1);
        let before = store.begin_snapshot();
        store.install(TxnId(7), id, Some(&atom(id, 1)), true);
        store.commit_stamp(TxnId(7));
        let after = store.begin_snapshot();
        assert_eq!(before.visible(id, Some(atom(id, 2))).unwrap().values[1], Value::Int(1));
        assert_eq!(after.visible(id, Some(atom(id, 2))).unwrap().values[1], Value::Int(2));
    }

    #[test]
    fn uncommitted_insert_is_invisible_and_deleted_atom_resurfaces() {
        let store = VersionStore::new();
        let inserted = AtomId::new(1, 1);
        let deleted = AtomId::new(1, 2);
        let snap = store.begin_snapshot();
        store.install(TxnId(7), inserted, None, true);
        store.install(TxnId(7), deleted, Some(&atom(deleted, 5)), true);
        // Inserted atom present in base but invisible to the snapshot.
        assert!(snap.visible(inserted, Some(atom(inserted, 9))).is_none());
        // Deleted atom gone from base but visible via its image.
        assert_eq!(snap.visible(deleted, None).unwrap().values[1], Value::Int(5));
        // The extras index surfaces both; only the visible one returns.
        let extras = snap.extras(1, &HashSet::default());
        assert_eq!(extras.len(), 1);
        assert_eq!(extras[0].id, deleted);
    }

    #[test]
    fn intermediate_images_dedupe_to_the_deepest_at_commit() {
        let store = VersionStore::new();
        let id = AtomId::new(1, 1);
        let snap = store.begin_snapshot();
        store.install(TxnId(7), id, Some(&atom(id, 1)), true);
        store.install(TxnId(7), id, Some(&atom(id, 2)), true);
        store.commit_stamp(TxnId(7));
        // The pre-transaction value, not the intermediate one.
        assert_eq!(snap.visible(id, Some(atom(id, 3))).unwrap().values[1], Value::Int(1));
        assert_eq!(store.stats().live_versions, 1);
    }

    #[test]
    fn rollback_keeps_the_image_alive_for_open_snapshots() {
        let store = VersionStore::new();
        let id = AtomId::new(1, 1);
        let snap = store.begin_snapshot();
        store.install(TxnId(7), id, Some(&atom(id, 1)), true);
        store.rollback(TxnId(7), 0);
        // Even if this reader's base read caught the dirty value, the
        // stamped entry corrects it.
        assert_eq!(snap.visible(id, Some(atom(id, 99))).unwrap().values[1], Value::Int(1));
        drop(snap);
        assert_eq!(store.stats().live_versions, 0);
    }

    #[test]
    fn gc_waits_for_the_oldest_snapshot() {
        let store = VersionStore::new();
        let id = AtomId::new(1, 1);
        let old = store.begin_snapshot();
        store.install(TxnId(7), id, Some(&atom(id, 1)), true);
        store.commit_stamp(TxnId(7));
        // A later commit on another atom advances the watermark only as
        // far as the open snapshot allows.
        assert_eq!(store.stats().live_versions, 1);
        assert!(store.stats().oldest_snapshot_lag >= 1);
        assert_eq!(old.visible(id, Some(atom(id, 2))).unwrap().values[1], Value::Int(1));
        drop(old);
        assert_eq!(store.stats().live_versions, 0);
        assert_eq!(store.stats().oldest_snapshot_lag, 0);
    }

    #[test]
    fn a_rolled_back_first_touch_stays_out_of_the_commit() {
        let store = VersionStore::new();
        let (t, id) = (TxnId(7), AtomId::new(1, 1));
        let before = store.begin_snapshot();
        // Statement 1 makes the transaction's first touch (1 → 2) and
        // rolls back to its savepoint.
        let savepoint = store.mark(t);
        store.install(t, id, Some(&atom(id, 1)), true);
        assert_eq!(store.undo_images(t, savepoint).len(), 1);
        store.rollback(t, savepoint);
        assert_eq!(store.mark(t), savepoint);
        // Statement 2 writes the restored atom again (1 → 3).
        store.install(t, id, Some(&atom(id, 1)), true);
        assert_eq!(store.undo_images(t, 0).len(), 1, "the rolled-back entry is not replayed");
        store.commit_stamp(t);
        let after = store.begin_snapshot();
        assert_eq!(before.visible(id, Some(atom(id, 3))).unwrap().values[1], Value::Int(1));
        assert_eq!(after.visible(id, Some(atom(id, 3))).unwrap().values[1], Value::Int(3));
        drop((before, after));
        assert_eq!(store.stats().live_versions, 0);
    }

    #[test]
    fn partner_entries_are_first_touch_only_and_never_replayed() {
        let store = VersionStore::new();
        let (written, partner) = (AtomId::new(1, 1), AtomId::new(1, 2));
        let snap = store.begin_snapshot();
        store.install(TxnId(7), written, Some(&atom(written, 1)), true);
        store.install(TxnId(7), partner, Some(&atom(partner, 10)), false);
        store.install(TxnId(7), partner, Some(&atom(partner, 11)), false); // not the first touch
        store.install(TxnId(7), written, Some(&atom(written, 2)), true);
        assert_eq!(store.stats().live_versions, 3);
        let seen = snap.visible(partner, Some(atom(partner, 12))).unwrap();
        assert_eq!(seen.values[1], Value::Int(10), "the first touch's image");
        // Abort replays the written atom's images only, newest first.
        let undo: Vec<(AtomId, Value)> = store
            .undo_images(TxnId(7), 0)
            .into_iter()
            .map(|(id, image)| (id, image.unwrap().values[1].clone()))
            .collect();
        assert_eq!(undo, vec![(written, Value::Int(2)), (written, Value::Int(1))]);
    }

    #[test]
    fn no_open_snapshot_means_versions_die_at_commit() {
        let store = VersionStore::new();
        let id = AtomId::new(1, 1);
        store.install(TxnId(7), id, Some(&atom(id, 1)), true);
        store.commit_stamp(TxnId(7));
        let s = store.stats();
        assert_eq!(s.live_versions, 0);
        assert_eq!(s.live_chains, 0);
        assert_eq!(s.versions_installed, s.versions_reclaimed);
    }
}
