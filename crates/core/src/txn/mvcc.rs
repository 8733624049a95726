//! MVCC version store: snapshot reads that never take a lock.
//!
//! PRIMA's workload is checkout/analyze/checkin — read-dominated. Under
//! strict 2PL (PR 5/6) every reader of an atom type serialises behind
//! any uncommitted writer of that type via the extension lock. The
//! version store removes readers from the lock table entirely:
//!
//! * **Writers** install a *version entry* — the before-image of every
//!   atom they touch (the same image the logical undo log carries) —
//!   **before** the base storage is mutated, chained under the writer's
//!   transaction. Writers keep strict 2PL against each other; nothing
//!   about write-write conflicts changes.
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
//! the same GC as committed ones.
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
//! The store is volatile by design: restart recovery rebuilds the
//! kernel with an empty store (`Prima::open`), because the WAL undo
//! path already erases every uncommitted version from base storage —
//! crash semantics need no MVCC persistence.

use super::TxnId;
use parking_lot::{rank, Mutex};
use prima_access::Atom;
use prima_mad::value::{AtomId, AtomTypeId};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// Position in commit order; bumped by every stamping commit or
    /// abort. A snapshot is just a sampled value of this counter.
    commit_seq: u64,
    /// Active snapshots: position → number of registered readers.
    snapshots: BTreeMap<u64, usize>,
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

/// The version store. One per kernel, shared by the transaction
/// manager (writer hooks) and every snapshot reader.
pub struct VersionStore {
    // lockrank: mvcc.0 — chain table + snapshot registry; every hold is
    // transient (no I/O, no nested locks).
    inner: Mutex<Inner>,
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
                commit_seq: 0,
                snapshots: BTreeMap::new(),
                reclaim: VecDeque::new(),
            }, rank::MVCC),
            stats: VersionStats::default(),
            live_chains: AtomicUsize::new(0),
        })
    }

    /// Registers a reader at the current commit position. The snapshot
    /// holds back GC until dropped.
    pub fn begin_snapshot(self: &Arc<Self>) -> Snapshot {
        let mut inner = self.inner.lock();
        let seq = inner.commit_seq;
        *inner.snapshots.entry(seq).or_insert(0) += 1;
        drop(inner);
        self.stats.snapshots_opened.fetch_add(1, Ordering::Relaxed);
        Snapshot { store: Arc::clone(self), seq }
    }

    /// Chains `image` (the atom's value before `txn`'s overwrite;
    /// `None` for an insert) under `txn`. Must run **before** the base
    /// mutation it shadows.
    pub fn install(&self, txn: TxnId, id: AtomId, image: Option<Atom>) {
        let mut inner = self.inner.lock();
        let chain = inner.chains.entry(id).or_default();
        let fresh = chain.is_empty();
        chain.push(VersionEntry { owner: txn, end: None, image });
        let len = chain.len() as u64;
        if fresh {
            inner.by_type.entry(id.atom_type).or_default().insert(id);
            self.live_chains.fetch_add(1, Ordering::Release);
        }
        inner.by_txn.entry(txn).or_default().push(id);
        drop(inner);
        self.stats.versions_installed.fetch_add(1, Ordering::Relaxed);
        self.stats.max_chain_len.fetch_max(len, Ordering::Relaxed);
    }

    /// Moss subcommit: the child's entries are inherited by the parent
    /// (they become permanent — or vanish — with the top level).
    pub fn transfer(&self, from: TxnId, to: TxnId) {
        let mut inner = self.inner.lock();
        let Some(ids) = inner.by_txn.remove(&from) else { return };
        for id in &ids {
            if let Some(chain) = inner.chains.get_mut(id) {
                for e in chain.iter_mut().filter(|e| e.owner == from) {
                    e.owner = to;
                }
            }
        }
        inner.by_txn.entry(to).or_default().extend(ids);
    }

    /// Stamps `txn`'s entries at the next commit position. Only the
    /// deepest entry per atom survives — it carries the value from
    /// before the transaction's *first* touch; intermediate images were
    /// never committed state and are reclaimed on the spot.
    pub fn commit_stamp(&self, txn: TxnId) {
        let mut inner = self.inner.lock();
        let Some(ids) = inner.by_txn.remove(&txn) else { return };
        let c = inner.commit_seq + 1;
        inner.commit_seq = c;
        let mut stamped: Vec<AtomId> = Vec::with_capacity(ids.len());
        let mut dropped = 0u64;
        for id in ids {
            if stamped.contains(&id) {
                continue;
            }
            let Some(chain) = inner.chains.get_mut(&id) else { continue };
            let mut kept = false;
            chain.retain_mut(|e| {
                if e.owner != txn {
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

    /// Drops `txn`'s version bookkeeping on rollback. Entries are
    /// *stamped* (at a bumped position), not deleted: a reader whose
    /// base read caught the dirty value resolves to the before-image
    /// until every snapshot from before the abort has closed; after
    /// that the image equals the restored base value and GC drops it.
    pub fn rollback(&self, txn: TxnId) {
        let mut inner = self.inner.lock();
        let Some(ids) = inner.by_txn.remove(&txn) else { return };
        let c = inner.commit_seq + 1;
        inner.commit_seq = c;
        let mut stamped: Vec<AtomId> = Vec::with_capacity(ids.len());
        for id in ids {
            if stamped.contains(&id) {
                continue;
            }
            let Some(chain) = inner.chains.get_mut(&id) else { continue };
            let mut any = false;
            for e in chain.iter_mut().filter(|e| e.owner == txn) {
                e.end = Some(c);
                any = true;
            }
            if any {
                stamped.push(id);
            }
        }
        if !stamped.is_empty() {
            inner.reclaim.push_back((c, stamped));
        }
        self.gc_locked(&mut inner, 0);
    }

    /// Resolves one base read for snapshot `seq` (module docs:
    /// oldest entry with `end > seq`, else base).
    pub fn resolve(&self, seq: u64, id: AtomId) -> Resolution {
        self.stats.snapshot_reads.fetch_add(1, Ordering::Relaxed);
        if self.live_chains.load(Ordering::Acquire) == 0 {
            return Resolution::Unchanged;
        }
        let inner = self.inner.lock();
        Self::resolve_locked(&inner, seq, id)
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
    pub fn visible_extras(&self, seq: u64, ty: AtomTypeId, seen: &HashSet<AtomId>) -> Vec<Atom> {
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

    fn end_snapshot(&self, seq: u64) {
        let mut inner = self.inner.lock();
        if let Some(n) = inner.snapshots.get_mut(&seq) {
            *n -= 1;
            if *n == 0 {
                inner.snapshots.remove(&seq);
            }
        }
        self.gc_locked(&mut inner, 0);
    }

    /// Reclaims every stamped group at or below the watermark (oldest
    /// active snapshot, else the current commit position): no present
    /// or future snapshot can resolve to those entries any more.
    fn gc_locked(&self, inner: &mut Inner, mut reclaimed: u64) {
        let watermark =
            inner.snapshots.keys().next().copied().unwrap_or(inner.commit_seq);
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
            self.stats.versions_reclaimed.fetch_add(reclaimed, Ordering::Relaxed);
        }
    }

    /// Counters plus current store shape.
    pub fn stats(&self) -> VersionStatsSnapshot {
        let inner = self.inner.lock();
        let live_versions = inner.chains.values().map(|c| c.len() as u64).sum();
        let oldest_snapshot_lag = inner
            .snapshots
            .keys()
            .next()
            .map_or(0, |oldest| inner.commit_seq - oldest);
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
}

impl Snapshot {
    /// The version of `id` this snapshot sees, given the base read
    /// outcome (`None` = not in base). `None` means the atom is not
    /// visible at all.
    pub fn visible(&self, id: AtomId, base: Option<Atom>) -> Option<Atom> {
        match self.store.resolve(self.seq, id) {
            Resolution::Unchanged => base,
            Resolution::Image(atom) => Some(atom),
            Resolution::Invisible => None,
        }
    }

    /// Visible atoms of `ty` a base scan cannot have delivered (see
    /// [`VersionStore::visible_extras`]).
    pub fn extras(&self, ty: AtomTypeId, seen: &HashSet<AtomId>) -> Vec<Atom> {
        self.store.visible_extras(self.seq, ty, seen)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.store.end_snapshot(self.seq);
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
        store.install(TxnId(7), id, Some(atom(id, 1)));
        // Base now (conceptually) holds the dirty value 2.
        let seen = snap.visible(id, Some(atom(id, 2))).unwrap();
        assert_eq!(seen.values[1], Value::Int(1));
    }

    #[test]
    fn commit_stamp_splits_visibility_at_the_snapshot() {
        let store = VersionStore::new();
        let id = AtomId::new(1, 1);
        let before = store.begin_snapshot();
        store.install(TxnId(7), id, Some(atom(id, 1)));
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
        store.install(TxnId(7), inserted, None);
        store.install(TxnId(7), deleted, Some(atom(deleted, 5)));
        // Inserted atom present in base but invisible to the snapshot.
        assert!(snap.visible(inserted, Some(atom(inserted, 9))).is_none());
        // Deleted atom gone from base but visible via its image.
        assert_eq!(snap.visible(deleted, None).unwrap().values[1], Value::Int(5));
        // The extras index surfaces both; only the visible one returns.
        let extras = snap.extras(1, &HashSet::new());
        assert_eq!(extras.len(), 1);
        assert_eq!(extras[0].id, deleted);
    }

    #[test]
    fn intermediate_images_dedupe_to_the_deepest_at_commit() {
        let store = VersionStore::new();
        let id = AtomId::new(1, 1);
        let snap = store.begin_snapshot();
        store.install(TxnId(7), id, Some(atom(id, 1)));
        store.install(TxnId(7), id, Some(atom(id, 2)));
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
        store.install(TxnId(7), id, Some(atom(id, 1)));
        store.rollback(TxnId(7));
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
        store.install(TxnId(7), id, Some(atom(id, 1)));
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
    fn child_entries_transfer_to_the_parent() {
        let store = VersionStore::new();
        let id = AtomId::new(1, 1);
        let snap = store.begin_snapshot();
        store.install(TxnId(1), id, Some(atom(id, 1)));
        store.install(TxnId(2), id, Some(atom(id, 5))); // child's image: dirty
        store.transfer(TxnId(2), TxnId(1));
        store.commit_stamp(TxnId(1));
        // Deepest entry wins: the pre-transaction value.
        assert_eq!(snap.visible(id, Some(atom(id, 9))).unwrap().values[1], Value::Int(1));
    }

    #[test]
    fn no_open_snapshot_means_versions_die_at_commit() {
        let store = VersionStore::new();
        let id = AtomId::new(1, 1);
        store.install(TxnId(7), id, Some(atom(id, 1)));
        store.commit_stamp(TxnId(7));
        let s = store.stats();
        assert_eq!(s.live_versions, 0);
        assert_eq!(s.live_chains, 0);
        assert_eq!(s.versions_installed, s.versions_reclaimed);
    }
}
