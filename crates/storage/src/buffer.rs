//! The database buffer.
//!
//! Section 3.3 of the paper: existing replacement algorithms (LRU etc.
//! \[EH82\]) are tailored to **one** page size; PRIMA must manage five sizes
//! in one buffer. The paper rejects a static partition into one pool per
//! size (*"not very flexible when reference patterns change"*) and instead
//! *"the well-known LRU algorithm was altered in an appropriate way"*.
//! [`BufferManager`] is that modified LRU: one byte-budgeted pool whose
//! victim selection walks the global LRU order and evicts as many
//! least-recently-used unfixed pages as needed to free room for the
//! incoming page, whatever the size mix.
//!
//! Pages are accessed under a **fix/unfix** protocol: [`BufferManager::fix`]
//! and [`BufferManager::fix_mut`] return RAII guards; a fixed page is
//! never evicted.
//!
//! ## Replacement bookkeeping: intrusive O(1) LRU
//!
//! Recency used to be tracked as `BTreeMap<tick, PageId>`, costing two
//! O(log n) map operations plus a node allocation on **every** fix — the
//! hottest loop of molecule assembly (Section 3.3 makes fix/unfix the
//! dominant path). The pool now keeps an intrusive doubly-linked list
//! threaded through the frame table itself: each frame carries `prev`/
//! `next` *indices* into the frame arena, so a touch is unlink + push-tail
//! — O(1), allocation-free. Victim selection still walks from the LRU head
//! skipping fixed frames and evicts as many unfixed pages as the incoming
//! size needs (the paper's size-aware "modified LRU"); eviction *order* is
//! identical to the tick-based implementation (`lru_matches_reference_model`
//! pins this against a BTreeMap reference model).
//!
//! [`BufferStats`] additionally counts `fix_calls` (guard acquisitions —
//! shard-lock traffic) versus `pages_loaded` (device reads): the batched
//! atom-read path in `prima-access` exists to drive the first number down
//! toward the second.

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId, PageSize, PageType};
use crate::probe::{self, ProbeEvent};
use crate::wal::{Lsn, Wal, WalPayload};
use parking_lot::lock_api::{ArcRwLockReadGuard, ArcRwLockWriteGuard};
use parking_lot::{rank, Mutex, RawRwLock, RwLock};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Where the buffer loads and stores pages. Implemented by the storage
/// system over the (simulated) block device.
pub trait PageStore: Send + Sync {
    /// Reads the page image from external storage.
    fn load(&self, id: PageId) -> StorageResult<Page>;
    /// Writes the page image back (the implementation re-checksums).
    fn store(&self, page: &mut Page) -> StorageResult<()>;
    /// Page size of the given segment.
    fn page_size_of(&self, segment: u32) -> StorageResult<PageSize>;
    /// Whether updates to this segment's pages are WAL-logged (transient
    /// structures opt out; they are rebuilt, not recovered).
    fn wal_logged(&self, _segment: u32) -> bool {
        true
    }
}

crate::counter_family! {
    /// Buffer statistics (logical vs physical accesses).
    pub struct BufferStats => BufferStatsSnapshot as "buffer" {
        /// Fix requests satisfied from the pool.
        counter hits,
        /// Fix requests that caused a device read.
        counter misses,
        /// Pages pushed out by replacement.
        counter evictions,
        /// Dirty pages written back (eviction or flush).
        counter writebacks,
        /// Guard acquisitions (`fix`/`fix_mut`/`fix_new`): each one is a
        /// shard-lock round trip plus an LRU touch. Batched reads amortise
        /// several logical record accesses into one fix call.
        counter fix_calls,
        /// Pages actually read from the device. Every miss that completes
        /// its load counts here — including a racer whose freshly loaded
        /// image is discarded because another thread installed the page
        /// first — so `pages_loaded == misses` minus loads that failed
        /// with an error.
        counter pages_loaded,
    }
}

// lockrank: buffer.0 — per-page frame locks, same rank as the shard
// latches: the two interleave in *both* orders. Eviction write-locks an
// unfixed victim frame while holding the shard latch (shard → frame), and
// a caller holding a fixed page's guard may fix another page (frame →
// shard). The cycle cannot close because a fixed frame (`fix_count > 0`)
// is never chosen as a victim, so the frame locks taken under a shard
// latch are disjoint from guards held by fixers — the pair is modelled as
// one rank level, and peer frame guards (one batch read-holds several)
// are likewise data-dependent.
// lockrank-name: frame = buffer.0
type FrameRef = Arc<RwLock<Page>>;

/// Every frame lock is built here so the rank rides along.
fn new_frame(page: Page) -> FrameRef {
    Arc::new(RwLock::new_ranked(page, rank::BUFFER))
}

/// Sentinel for "no link" in the intrusive LRU list.
const NIL: usize = usize::MAX;

struct FrameMeta {
    id: PageId,
    frame: FrameRef,
    fix_count: u32,
    dirty: bool,
    size: PageSize,
    /// LSN of the newest WAL page image of this frame. The write-ahead
    /// invariant: the frame must not be stored while
    /// `recovery_lsn > wal.flushed_lsn()`.
    recovery_lsn: Lsn,
    /// Intrusive LRU links: arena indices of the neighbouring frames
    /// (towards LRU / towards MRU); `NIL` at the list ends.
    lru_prev: usize,
    lru_next: usize,
}

/// One latch shard of the pool. Frames live in a slot arena; the LRU order
/// is a doubly-linked list threaded through the arena by index, making
/// every touch O(1) with no allocation.
struct PoolInner {
    /// Slot arena; freed slots are recycled through `free_slots`.
    arena: Vec<Option<FrameMeta>>,
    free_slots: Vec<usize>,
    /// Page -> arena slot.
    index: HashMap<PageId, usize>,
    /// Head = least recently used, tail = most recently used.
    lru_head: usize,
    lru_tail: usize,
    used_bytes: usize,
    /// Number of dirty frames — lets flush_all be a cheap no-op on
    /// read-only paths (page-sequence chained reads call it per read).
    dirty_count: usize,
}

impl PoolInner {
    fn new() -> Self {
        PoolInner {
            arena: Vec::new(),
            free_slots: Vec::new(),
            index: HashMap::new(),
            lru_head: NIL,
            lru_tail: NIL,
            used_bytes: 0,
            dirty_count: 0,
        }
    }

    fn get(&self, id: PageId) -> Option<&FrameMeta> {
        let slot = *self.index.get(&id)?;
        self.arena[slot].as_ref()
    }

    fn get_mut(&mut self, id: PageId) -> Option<&mut FrameMeta> {
        let slot = *self.index.get(&id)?;
        self.arena[slot].as_mut()
    }

    fn resident(&self) -> usize {
        self.index.len()
    }

    /// Detaches `slot` from the LRU list (it must be linked).
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn lru_unlink(&mut self, slot: usize) {
        let (prev, next) = {
            // lint: allow(error-hygiene, intrusive LRU invariant: linked slots are occupied (checked by debug assertions))
            let m = self.arena[slot].as_ref().expect("linked slot");
            (m.lru_prev, m.lru_next)
        };
        match prev {
            NIL => self.lru_head = next,
            // lint: allow(error-hygiene, intrusive LRU invariant: linked slots are occupied)
            p => self.arena[p].as_mut().expect("linked prev").lru_next = next,
        }
        match next {
            NIL => self.lru_tail = prev,
            // lint: allow(error-hygiene, intrusive LRU invariant: linked slots are occupied)
            n => self.arena[n].as_mut().expect("linked next").lru_prev = prev,
        }
        // lint: allow(error-hygiene, intrusive LRU invariant: linked slots are occupied)
        let m = self.arena[slot].as_mut().expect("linked slot");
        m.lru_prev = NIL;
        m.lru_next = NIL;
    }

    /// Appends `slot` at the MRU end.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn lru_push_tail(&mut self, slot: usize) {
        let old_tail = self.lru_tail;
        {
            // lint: allow(error-hygiene, callers pass slots they just found in the page index)
            let m = self.arena[slot].as_mut().expect("slot occupied");
            m.lru_prev = old_tail;
            m.lru_next = NIL;
        }
        match old_tail {
            NIL => self.lru_head = slot,
            // lint: allow(error-hygiene, the LRU tail is occupied whenever the list is non-empty)
            t => self.arena[t].as_mut().expect("tail occupied").lru_next = slot,
        }
        self.lru_tail = slot;
    }

    /// Moves the page to the MRU end — O(1).
    fn touch(&mut self, id: PageId) {
        if let Some(&slot) = self.index.get(&id) {
            if self.lru_tail != slot {
                self.lru_unlink(slot);
                self.lru_push_tail(slot);
            }
        }
    }

    fn insert_frame(&mut self, id: PageId, frame: FrameRef, dirty: bool, size: PageSize) {
        let meta = FrameMeta {
            id,
            frame,
            fix_count: 1,
            dirty,
            size,
            recovery_lsn: 0,
            lru_prev: NIL,
            lru_next: NIL,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.arena[s] = Some(meta);
                s
            }
            None => {
                self.arena.push(Some(meta));
                self.arena.len() - 1
            }
        };
        self.index.insert(id, slot);
        self.lru_push_tail(slot);
        self.used_bytes += size.bytes();
        if dirty {
            self.dirty_count += 1;
        }
    }

    /// Unlinks and removes the frame, maintaining byte/dirty accounting.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn remove_frame(&mut self, id: PageId) -> Option<FrameMeta> {
        let slot = self.index.remove(&id)?;
        self.lru_unlink(slot);
        // lint: allow(error-hygiene, callers pass slots they just found in the page index)
        let meta = self.arena[slot].take().expect("indexed slot occupied");
        self.free_slots.push(slot);
        self.used_bytes -= meta.size.bytes();
        if meta.dirty {
            self.dirty_count -= 1;
        }
        Some(meta)
    }

    /// Least-recently-used page with no fixes, if any (the modified-LRU
    /// victim walk: skip fixed frames, oldest first).
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn lru_victim(&self) -> Option<PageId> {
        let mut slot = self.lru_head;
        while slot != NIL {
            // lint: allow(error-hygiene, intrusive LRU invariant: linked slots are occupied)
            let m = self.arena[slot].as_ref().expect("linked slot");
            if m.fix_count == 0 {
                return Some(m.id);
            }
            slot = m.lru_next;
        }
        None
    }

    /// Iterates over resident frames in arbitrary order.
    fn frames_mut(&mut self) -> impl Iterator<Item = &mut FrameMeta> {
        self.arena.iter_mut().flatten()
    }

    fn frames(&self) -> impl Iterator<Item = &FrameMeta> {
        self.arena.iter().flatten()
    }

    fn mark_dirty(&mut self, id: PageId) {
        if let Some(m) = self.get_mut(id) {
            if !m.dirty {
                m.dirty = true;
                self.dirty_count += 1;
            }
        }
    }

    /// Pages from LRU to MRU (test/diagnostic use).
    #[cfg(test)]
    fn lru_order(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        let mut slot = self.lru_head;
        while slot != NIL {
            let m = self.arena[slot].as_ref().expect("linked slot");
            out.push(m.id);
            slot = m.lru_next;
        }
        out
    }
}

/// The paper's buffer: byte budget, size-aware LRU victim selection. See
/// module docs.
///
/// The pool can be split into latch *shards* (by page-id hash) so that
/// concurrent fixes from parallel DUs do not serialise on one mutex; each
/// shard runs the modified-LRU algorithm over its slice of the byte
/// budget. One shard (the default of [`BufferManager::new`]) gives the
/// exact single-pool behaviour.
pub struct BufferManager {
    store: Arc<dyn PageStore>,
    capacity_bytes: usize,
    // lockrank: buffer.0 — shard latches.
    // lockrank-name: shard = buffer.0
    shards: Vec<Arc<Mutex<PoolInner>>>,
    shard_capacity: usize,
    stats: Arc<BufferStats>,
    /// When present, updates are WAL-logged: every unfix of an update
    /// guard appends a page image, and flush/eviction enforce
    /// write-ahead (force before store).
    wal: Option<Arc<Wal>>,
}

impl BufferManager {
    /// A buffer of `capacity_bytes` over the given page store (one latch
    /// shard: exact global LRU).
    pub fn new(store: Arc<dyn PageStore>, capacity_bytes: usize) -> Self {
        Self::with_shards(store, capacity_bytes, 1)
    }

    /// A buffer with `shards` latch shards (for multi-threaded use).
    ///
    /// Every shard must be able to hold one 8K page, so the effective
    /// shard count is clamped to `capacity_bytes / 8192` — the shard
    /// slices always sum to **at most** `capacity_bytes` (small budgets
    /// degrade to fewer shards rather than overcommitting the budget).
    pub fn with_shards(store: Arc<dyn PageStore>, capacity_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1).min((capacity_bytes / 8192).max(1));
        // Equal slices; with one shard this is the caller's exact byte
        // budget (tests use tiny pools deliberately).
        let shard_capacity = capacity_bytes / shards;
        BufferManager {
            store,
            capacity_bytes,
            shards: (0..shards)
                .map(|_| Arc::new(Mutex::new_ranked(PoolInner::new(), rank::BUFFER)))
                .collect(),
            shard_capacity,
            stats: Arc::new(BufferStats::default()),
            wal: None,
        }
    }

    /// Attaches a write-ahead log: from now on the pool logs page images
    /// on update-unfix and enforces WAL-before-data on flush/eviction.
    pub fn attach_wal(mut self, wal: Arc<Wal>) -> Self {
        self.wal = Some(wal);
        self
    }

    fn shard(&self, id: PageId) -> &Arc<Mutex<PoolInner>> {
        if self.shards.len() == 1 {
            return &self.shards[0];
        }
        let mut h = id.segment as u64 ^ 0x9e37_79b9_7f4a_7c15;
        h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(id.page as u64);
        h ^= h >> 33;
        &self.shards[(h as usize) % self.shards.len()]
    }

    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    pub fn stats(&self) -> Arc<BufferStats> {
        Arc::clone(&self.stats)
    }

    /// Bytes currently occupied by buffered pages.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().used_bytes).sum()
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.lock().resident()).sum()
    }

    /// Number of frames currently fixed (guard alive). Zero whenever no
    /// guards are held — tests use this to prove fix/unfix balance (e.g.
    /// that a dropped cursor leaks no fixes).
    pub fn fixed_frames(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().frames().filter(|m| m.fix_count > 0).count())
            .sum()
    }

    /// True if the page is currently buffered (for tests/benches).
    pub fn is_resident(&self, id: PageId) -> bool {
        self.shard(id).lock().get(id).is_some()
    }

    /// Fixes a page for reading. The returned guard keeps the page in the
    /// buffer and allows shared access.
    pub fn fix(&self, id: PageId) -> StorageResult<PageGuard> {
        probe::observed(ProbeEvent::BufferFix, || {
            self.stats.fix_calls.fetch_add(1, Ordering::Relaxed);
            let frame = self.fix_frame(id, false)?;
            let lock = frame.read_arc();
            Ok(PageGuard { lock: Some(lock), pool: Arc::clone(self.shard(id)), id })
        })
    }

    /// Fixes a page for update. Exclusive; the frame is marked dirty.
    pub fn fix_mut(&self, id: PageId) -> StorageResult<PageGuardMut> {
        probe::observed(ProbeEvent::BufferFix, || {
            self.stats.fix_calls.fetch_add(1, Ordering::Relaxed);
            let frame = self.fix_frame(id, true)?;
            let lock = frame.write_arc();
            Ok(PageGuardMut {
                lock: Some(lock),
                pool: Arc::clone(self.shard(id)),
                id,
                wal: self.guard_wal(id),
            })
        })
    }

    /// The WAL handle an update guard on `id` should log to, if any.
    fn guard_wal(&self, id: PageId) -> Option<Arc<Wal>> {
        self.wal.as_ref().filter(|_| self.store.wal_logged(id.segment)).cloned()
    }

    /// Installs a brand-new page (after allocation) without reading the
    /// device, and returns it fixed for update.
    pub fn fix_new(&self, id: PageId, ptype: PageType) -> StorageResult<PageGuardMut> {
        let probe_t = probe::timer();
        self.stats.fix_calls.fetch_add(1, Ordering::Relaxed);
        let size = self.store.page_size_of(id.segment)?;
        let page = Page::new(id, size, ptype);
        let frame = {
            let mut inner = self.shard(id).lock();
            if let Some(m) = inner.get_mut(id) {
                // Re-use of a freed page number: overwrite in place.
                m.fix_count += 1;
                let f = Arc::clone(&m.frame);
                inner.mark_dirty(id);
                inner.touch(id);
                drop(inner);
                *f.write() = page;
                f
            } else {
                self.make_room(&mut inner, size.bytes())?;
                let f: FrameRef = new_frame(page);
                inner.insert_frame(id, Arc::clone(&f), true, size);
                f
            }
        };
        let lock = frame.write_arc();
        probe::emit_elapsed(probe_t, ProbeEvent::BufferFix, 0);
        Ok(PageGuardMut {
            lock: Some(lock),
            pool: Arc::clone(self.shard(id)),
            id,
            wal: self.guard_wal(id),
        })
    }

    /// Drops a page from the buffer without write-back (used when the page
    /// is freed). No-op if not resident. Errors if the page is fixed.
    pub fn discard(&self, id: PageId) -> StorageResult<()> {
        let mut inner = self.shard(id).lock();
        if let Some(m) = inner.get(id) {
            if m.fix_count > 0 {
                return Err(StorageError::FixConflict(id.desc()));
            }
            inner.remove_frame(id);
        }
        Ok(())
    }

    /// Writes every dirty page back to the store; the pool keeps its
    /// contents (a checkpoint, not a shutdown).
    pub fn flush_all(&self) -> StorageResult<()> {
        for shard in &self.shards {
            let dirty: Vec<FrameRef> = {
                let mut inner = shard.lock();
                if inner.dirty_count == 0 {
                    continue;
                }
                let mut v = Vec::new();
                for m in inner.frames_mut() {
                    if m.dirty {
                        m.dirty = false;
                        v.push(Arc::clone(&m.frame));
                    }
                }
                inner.dirty_count = 0;
                v
            };
            for frame in &dirty {
                let mut page = frame.write();
                // WAL before data, checked *under* the frame's write
                // lock: a concurrent updater either finished before we
                // acquired it (its page image is already appended, the
                // force below covers it) or is blocked until after the
                // store. Forcing to the buffered tail is cheap when
                // nothing is pending.
                if let Some(wal) = &self.wal {
                    // lint: allow(lock-across-io, WAL-before-data requires forcing under the frame write lock; the victim is unfixed so nothing else waits on it)
                    wal.force()?;
                }
                self.store.store(&mut page)?;
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Flushes dirty pages and drops every unfixed frame — used by cold-
    /// read experiments to measure device I/O without restarting.
    pub fn evict_all(&self) -> StorageResult<()> {
        self.flush_all()?;
        for shard in &self.shards {
            let mut inner = shard.lock();
            let victims: Vec<PageId> =
                inner.frames().filter(|m| m.fix_count == 0).map(|m| m.id).collect();
            for id in victims {
                inner.remove_frame(id);
            }
        }
        Ok(())
    }

    fn fix_frame(&self, id: PageId, for_update: bool) -> StorageResult<FrameRef> {
        {
            let mut inner = self.shard(id).lock();
            if let Some(m) = inner.get_mut(id) {
                m.fix_count += 1;
                let f = Arc::clone(&m.frame);
                if for_update {
                    inner.mark_dirty(id);
                }
                inner.touch(id);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(f);
            }
        }
        // Miss: load from device outside the pool lock, then install.
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let page = probe::observed(ProbeEvent::PageLoad, || self.store.load(id))?;
        self.stats.pages_loaded.fetch_add(1, Ordering::Relaxed);
        let size = page.size();
        let mut inner = self.shard(id).lock();
        if let Some(m) = inner.get_mut(id) {
            // Someone installed it while we were loading.
            m.fix_count += 1;
            let f = Arc::clone(&m.frame);
            if for_update {
                inner.mark_dirty(id);
            }
            inner.touch(id);
            return Ok(f);
        }
        self.make_room(&mut inner, size.bytes())?;
        let f: FrameRef = new_frame(page);
        inner.insert_frame(id, Arc::clone(&f), for_update, size);
        Ok(f)
    }

    /// The modified-LRU core: evict least-recently-used *unfixed* pages
    /// until `need` more bytes fit within the (shard's) byte budget.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn make_room(&self, inner: &mut PoolInner, need: usize) -> StorageResult<()> {
        while inner.used_bytes + need > self.shard_capacity {
            let Some(vid) = inner.lru_victim() else {
                let unfixable: usize = inner
                    .frames()
                    .filter(|m| m.fix_count == 0)
                    .map(|m| m.size.bytes())
                    .sum();
                return Err(StorageError::BufferExhausted { needed: need, unfixable });
            };
            // lint: allow(error-hygiene, the victim id was read from the resident map under this same shard latch)
            let meta = inner.remove_frame(vid).expect("victim resident");
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            if meta.dirty {
                // WAL before data (steal policy: uncommitted changes may
                // be evicted, their undo records are already logged).
                if let Some(wal) = &self.wal {
                    if meta.recovery_lsn > wal.flushed_lsn() {
                        wal.force()?;
                    }
                }
                let mut page = meta.frame.write();
                self.store.store(&mut page)?;
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------------

/// Shared read access to a fixed page. Dropping the guard unfixes the page.
pub struct PageGuard {
    lock: Option<ArcRwLockReadGuard<RawRwLock, Page>>,
    // lockrank: buffer.0 — handle to the owning shard (`shards`), relocked on drop.
    pool: Arc<Mutex<PoolInner>>,
    id: PageId,
}

/// Exclusive write access to a fixed page. Dropping the guard unfixes it;
/// on a WAL-attached pool the drop also logs the page's after-image and
/// stamps the frame's `recovery_lsn`.
pub struct PageGuardMut {
    lock: Option<ArcRwLockWriteGuard<RawRwLock, Page>>,
    // lockrank: buffer.0 — handle to the owning shard (`shards`), relocked on drop.
    pool: Arc<Mutex<PoolInner>>,
    id: PageId,
    wal: Option<Arc<Wal>>,
}

impl std::fmt::Debug for PageGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard").field("id", &self.id).finish_non_exhaustive()
    }
}

impl std::fmt::Debug for PageGuardMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuardMut").field("id", &self.id).finish_non_exhaustive()
    }
}

impl std::ops::Deref for PageGuard {
    type Target = Page;
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn deref(&self) -> &Page {
        // lint: allow(error-hygiene, the Option is only None after drop has run)
        self.lock.as_ref().expect("guard alive")
    }
}

impl std::ops::Deref for PageGuardMut {
    type Target = Page;
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn deref(&self) -> &Page {
        // lint: allow(error-hygiene, the Option is only None after drop has run)
        self.lock.as_ref().expect("guard alive")
    }
}

impl std::ops::DerefMut for PageGuardMut {
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn deref_mut(&mut self) -> &mut Page {
        // lint: allow(error-hygiene, the Option is only None after drop has run)
        self.lock.as_mut().expect("guard alive")
    }
}

impl PageGuard {
    pub fn page_id(&self) -> PageId {
        self.id
    }
}

impl PageGuardMut {
    pub fn page_id(&self) -> PageId {
        self.id
    }
}

fn unfix(pool: &Mutex<PoolInner>, id: PageId, recovery_lsn: Lsn) {
    let mut inner = pool.lock();
    if let Some(m) = inner.get_mut(id) {
        debug_assert!(m.fix_count > 0, "unfix without fix on {id}");
        m.fix_count = m.fix_count.saturating_sub(1);
        if recovery_lsn > m.recovery_lsn {
            m.recovery_lsn = recovery_lsn;
        }
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.lock.take();
        unfix(&self.pool, self.id, 0);
    }
}

impl Drop for PageGuardMut {
    fn drop(&mut self) {
        // Physical redo: log the page's after-image while we still hold
        // the frame exclusively, then record the LSN on the frame so
        // flush/eviction can enforce write-ahead. If a poisoned log
        // refuses the append, pin the frame at `Lsn::MAX`: the dirty
        // page can then never pass the write-ahead check, so it is
        // never stolen — the flush that eventually needs it fails
        // loudly instead of persisting a page whose redo was lost.
        let mut lsn: Lsn = 0;
        if let (Some(wal), Some(page)) = (&self.wal, self.lock.as_deref_mut()) {
            page.update_checksum();
            lsn = wal
                .append(WalPayload::PageImage { page: self.id, bytes: page.as_bytes() })
                .unwrap_or(Lsn::MAX);
        }
        self.lock.take();
        unfix(&self.pool, self.id, lsn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{BlockAddr, BlockDevice, SimDisk};

    /// Minimal PageStore over a SimDisk for buffer tests: segment n is file
    /// n; page sizes fixed per segment at construction.
    struct TestStore {
        disk: SimDisk,
        sizes: Vec<PageSize>,
    }

    impl TestStore {
        fn new(sizes: &[PageSize]) -> Arc<Self> {
            let disk = SimDisk::new();
            for (i, s) in sizes.iter().enumerate() {
                disk.create_file(i as u32, s.bytes()).unwrap();
            }
            Arc::new(TestStore { disk, sizes: sizes.to_vec() })
        }
    }

    impl PageStore for TestStore {
        fn load(&self, id: PageId) -> StorageResult<Page> {
            let size = self.page_size_of(id.segment)?;
            let mut buf = vec![0u8; size.bytes()];
            self.disk.read_block(BlockAddr::new(id.segment, id.page), &mut buf)?;
            Page::from_bytes(id, size, &buf)
        }

        fn store(&self, page: &mut Page) -> StorageResult<()> {
            page.update_checksum();
            let id = page.id();
            self.disk.write_block(BlockAddr::new(id.segment, id.page), page.as_bytes())
        }

        fn page_size_of(&self, segment: u32) -> StorageResult<PageSize> {
            self.sizes
                .get(segment as usize)
                .copied()
                .ok_or(StorageError::UnknownSegment(segment))
        }
    }

    fn id(seg: u32, page: u32) -> PageId {
        PageId::new(seg, page)
    }

    #[test]
    fn fix_new_then_read_back_after_eviction() {
        let store = TestStore::new(&[PageSize::Half]);
        let buf = BufferManager::new(store, 2 * 512); // room for 2 pages
        {
            let mut g = buf.fix_new(id(0, 0), PageType::Data).unwrap();
            g.write_payload(b"page zero").unwrap();
        }
        {
            let mut g = buf.fix_new(id(0, 1), PageType::Data).unwrap();
            g.write_payload(b"page one").unwrap();
        }
        // Force both originals out.
        let _ = buf.fix_new(id(0, 2), PageType::Data).unwrap();
        let _ = buf.fix_new(id(0, 3), PageType::Data).unwrap();
        assert!(!buf.is_resident(id(0, 0)));
        let g = buf.fix(id(0, 0)).unwrap();
        assert_eq!(g.payload(), b"page zero");
    }

    #[test]
    fn hits_and_misses_counted() {
        let store = TestStore::new(&[PageSize::Half]);
        let buf = BufferManager::new(store, 10 * 512);
        {
            let mut g = buf.fix_new(id(0, 0), PageType::Data).unwrap();
            g.write_payload(b"x").unwrap();
        }
        let _ = buf.fix(id(0, 0)).unwrap(); // hit
        let _ = buf.fix(id(0, 5)).unwrap(); // miss (zero page)
        let d = buf.stats().snapshot();
        assert_eq!((d.hits, d.misses), (1, 1));
    }

    #[test]
    fn fixed_pages_are_never_evicted() {
        let store = TestStore::new(&[PageSize::Half]);
        let buf = BufferManager::new(store, 2 * 512);
        let g0 = buf.fix_new(id(0, 0), PageType::Data).unwrap();
        let g1 = buf.fix_new(id(0, 1), PageType::Data).unwrap();
        // Pool is full of fixed pages; a third fix must fail.
        let err = buf.fix_new(id(0, 2), PageType::Data).unwrap_err();
        assert!(matches!(err, StorageError::BufferExhausted { .. }));
        drop(g0);
        drop(g1);
        assert!(buf.fix_new(id(0, 2), PageType::Data).is_ok());
    }

    #[test]
    fn mixed_sizes_in_one_pool() {
        let store = TestStore::new(&[PageSize::Half, PageSize::K8]);
        let buf = BufferManager::new(store, 8192 + 512);
        {
            let _small = buf.fix_new(id(0, 0), PageType::Data).unwrap();
        }
        {
            let _big = buf.fix_new(id(1, 0), PageType::Data).unwrap();
        }
        assert_eq!(buf.resident(), 2);
        assert_eq!(buf.used_bytes(), 8192 + 512);
        // Another 8K page must evict *both*? No: evicting the small page is
        // not enough, so modified LRU keeps evicting until room: both go.
        let _big2 = buf.fix_new(id(1, 1), PageType::Data).unwrap();
        assert!(buf.used_bytes() <= 8192 + 512);
        let ev = buf.stats().snapshot().evictions;
        assert!(ev >= 1, "eviction expected, got {ev}");
    }

    #[test]
    fn size_aware_eviction_frees_enough_for_large_page() {
        // Pool fits sixteen 1/2K pages; bringing in one 8K page must evict
        // all sixteen in LRU order.
        let store = TestStore::new(&[PageSize::Half, PageSize::K8]);
        let buf = BufferManager::new(store, 8192);
        for p in 0..16 {
            let _ = buf.fix_new(id(0, p), PageType::Data).unwrap();
        }
        assert_eq!(buf.resident(), 16);
        let _ = buf.fix_new(id(1, 0), PageType::Data).unwrap();
        assert_eq!(buf.resident(), 1);
        assert_eq!(buf.stats().snapshot().evictions, 16);
    }

    #[test]
    fn lru_order_is_respected() {
        let store = TestStore::new(&[PageSize::Half]);
        let buf = BufferManager::new(store, 3 * 512);
        for p in 0..3 {
            let _ = buf.fix_new(id(0, p), PageType::Data).unwrap();
        }
        // Touch page 0 so page 1 becomes LRU.
        let _ = buf.fix(id(0, 0)).unwrap();
        let _ = buf.fix_new(id(0, 3), PageType::Data).unwrap();
        assert!(buf.is_resident(id(0, 0)));
        assert!(!buf.is_resident(id(0, 1)));
        assert!(buf.is_resident(id(0, 2)));
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let store = TestStore::new(&[PageSize::Half]);
        let disk_stats = store.disk.stats();
        let buf = BufferManager::new(Arc::clone(&store) as Arc<dyn PageStore>, 512);
        {
            let mut g = buf.fix_new(id(0, 0), PageType::Data).unwrap();
            g.write_payload(b"must survive").unwrap();
        }
        let w0 = disk_stats.snapshot().block_writes;
        let _ = buf.fix_new(id(0, 1), PageType::Data).unwrap();
        assert_eq!(disk_stats.snapshot().block_writes, w0 + 1);
        // And the content must be readable again.
        drop(buf);
        let store2: Arc<dyn PageStore> = store;
        let p = store2.load(id(0, 0)).unwrap();
        assert_eq!(p.payload(), b"must survive");
    }

    #[test]
    fn flush_all_persists_without_evicting() {
        let store = TestStore::new(&[PageSize::Half]);
        let buf = BufferManager::new(Arc::clone(&store) as Arc<dyn PageStore>, 4 * 512);
        {
            let mut g = buf.fix_new(id(0, 0), PageType::Data).unwrap();
            g.write_payload(b"checkpointed").unwrap();
        }
        buf.flush_all().unwrap();
        assert!(buf.is_resident(id(0, 0)));
        let p = (Arc::clone(&store) as Arc<dyn PageStore>).load(id(0, 0)).unwrap();
        assert_eq!(p.payload(), b"checkpointed");
    }

    #[test]
    fn discard_fixed_page_is_an_error() {
        let store = TestStore::new(&[PageSize::Half]);
        let buf = BufferManager::new(store, 4 * 512);
        let g = buf.fix_new(id(0, 0), PageType::Data).unwrap();
        assert!(matches!(buf.discard(id(0, 0)), Err(StorageError::FixConflict(_))));
        drop(g);
        assert!(buf.discard(id(0, 0)).is_ok());
        assert!(!buf.is_resident(id(0, 0)));
    }

    #[test]
    fn multi_shard_pool_never_exceeds_byte_budget() {
        // Regression: the old per-shard floor of 8192 bytes let a
        // multi-shard pool hold `shards * 8192` bytes regardless of the
        // requested budget. The shard count must be clamped instead.
        let store = TestStore::new(&[PageSize::Half]);
        let capacity = 2 * 8192;
        let buf = BufferManager::with_shards(store, capacity, 16);
        for p in 0..200 {
            let _ = buf.fix_new(id(0, p), PageType::Data).unwrap();
            assert!(
                buf.used_bytes() <= capacity,
                "page {p}: {} bytes resident exceeds budget {capacity}",
                buf.used_bytes()
            );
        }
    }

    #[test]
    fn tiny_budget_degrades_to_single_shard() {
        let store = TestStore::new(&[PageSize::Half]);
        let buf = BufferManager::with_shards(store, 4 * 512, 8);
        // A budget below one 8K page must behave like the exact
        // single-shard pool (fits 4 half-K pages).
        for p in 0..4 {
            let _ = buf.fix_new(id(0, p), PageType::Data).unwrap();
        }
        assert_eq!(buf.resident(), 4);
        assert_eq!(buf.used_bytes(), 4 * 512);
    }

    #[test]
    fn fix_call_and_load_accounting() {
        let store = TestStore::new(&[PageSize::Half]);
        let buf = BufferManager::new(store, 10 * 512);
        {
            let mut g = buf.fix_new(id(0, 0), PageType::Data).unwrap();
            g.write_payload(b"x").unwrap();
        }
        let _ = buf.fix(id(0, 0)).unwrap(); // hit: no load
        let _ = buf.fix(id(0, 5)).unwrap(); // miss: one load
        let d = buf.stats().snapshot();
        assert_eq!(d.fix_calls, 3, "fix_new + 2 fixes");
        assert_eq!(d.pages_loaded, 1, "only the miss touches the device");
        assert_eq!((d.hits, d.misses), (1, 1));
    }

    /// Reference model of the paper's modified LRU, implemented the way the
    /// pool used to be (tick counter + BTreeMap), driven through the same
    /// operation sequence as the real pool. Eviction order and residency
    /// must match exactly.
    struct ModelLru {
        capacity: usize,
        page_bytes: usize,
        clock: u64,
        ticks: std::collections::BTreeMap<u64, u32>,
        pages: HashMap<u32, u64>,
    }

    impl ModelLru {
        fn new(capacity: usize, page_bytes: usize) -> Self {
            ModelLru {
                capacity,
                page_bytes,
                clock: 0,
                ticks: std::collections::BTreeMap::new(),
                pages: HashMap::new(),
            }
        }

        /// Simulates one unfixed fix (hit-touch or miss-load + eviction).
        fn access(&mut self, page: u32) {
            self.clock += 1;
            if let Some(tick) = self.pages.remove(&page) {
                self.ticks.remove(&tick);
            } else {
                while (self.pages.len() + 1) * self.page_bytes > self.capacity {
                    let (&t, &victim) = self.ticks.iter().next().expect("victim");
                    self.ticks.remove(&t);
                    self.pages.remove(&victim);
                }
            }
            self.ticks.insert(self.clock, page);
            self.pages.insert(page, self.clock);
        }

        /// Pages from LRU to MRU.
        fn order(&self) -> Vec<u32> {
            self.ticks.values().copied().collect()
        }
    }

    #[test]
    fn lru_matches_reference_model() {
        // Property-style: a deterministic pseudo-random access pattern over
        // a page universe larger than the pool, checked op by op against
        // the tick/BTreeMap reference model the pool used to implement.
        let store = TestStore::new(&[PageSize::Half]);
        let capacity = 7 * 512;
        let buf = BufferManager::new(Arc::clone(&store) as Arc<dyn PageStore>, capacity);
        let mut model = ModelLru::new(capacity, 512);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for step in 0..4000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let page = (state % 23) as u32;
            let _ = buf.fix(id(0, page)).unwrap(); // guard dropped: unfixed
            model.access(page);
            let got: Vec<u32> =
                buf.shards[0].lock().lru_order().iter().map(|p| p.page).collect();
            assert_eq!(got, model.order(), "divergence at step {step}");
        }
    }

    #[test]
    fn guard_drop_unfixes() {
        let store = TestStore::new(&[PageSize::Half]);
        let buf = BufferManager::new(store, 512);
        {
            let _g = buf.fix_new(id(0, 0), PageType::Data).unwrap();
        }
        // After the guard is gone the page can be evicted.
        assert!(buf.fix_new(id(0, 1), PageType::Data).is_ok());
    }
}
