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
//!
//! ## Frames: reusable slots
//!
//! A frame is one page's slot: the page behind its lock, the number of
//! guards on it and the LSN of its newest log record. The kernel, not the
//! allocator, decides how page memory moves:
//!
//! * **Fix** (under the shard latch): a hit increments the frame's fix
//!   count and touches the LRU list. A miss takes a *spare* frame of its
//!   page size, if the shard has one, reads the page into that frame's
//!   block outside the latch (the device read overwrites every byte, and
//!   [`Page::from_bytes`] verifies it), then installs the frame under the
//!   latch again. A miss allocates only when there is no spare.
//! * **Unfix** (no latch): a guard releases the page lock and decrements
//!   the fix count — an update guard first raises the frame's recovery
//!   LSN to its record's (`fetch_max`). Only a fix takes a count from 0
//!   to 1, and it holds the latch, so a frame that victim selection reads
//!   as unfixed under the latch stays unfixed until the latch is released.
//! * **Eviction** (`make_room`, under the latch): the victim is written
//!   back if it is dirty — or if a running flush marked it clean and has
//!   not written it yet (evicted unwritten, the page would be read back
//!   stale from the device; that flush then skips the frame, whose copy
//!   may by then be older than the device's) — then kept as a spare if
//!   nothing else holds it (its `Arc` is unique: no guard between its
//!   decrement and its drop, no flush writing it back). The spare list
//!   holds at most `SPARE_FRAMES` (4) frames per shard, outside the byte
//!   budget; a full list frees its oldest frame. A frame is reset when it
//!   is installed again: fix count 1, recovery LSN 0, resident, and the
//!   dirty bit lives in the table, never in the frame.
//! * [`BufferManager::fix_new`] takes a spare too and reformats it
//!   (zero-filled, then a fresh header). Frames that leave through
//!   [`BufferManager::discard`] or [`BufferManager::evict_all`] are freed.
//!
//! `frames_reused` counts installs of a spare, so it never exceeds
//! `evictions`.
//!
//! ## Redo logging: an image first, then deltas
//!
//! On a WAL-attached pool an update guard logs its change when it is
//! dropped. A page whose header LSN is older than the log's last
//! truncation ([`Wal::reset_lsn`]) — or that [`BufferManager::fix_new`]
//! just created — logs a full `PageImage`. Any other update guard copies
//! the page once when it is fixed, diffs it against that copy when it is
//! dropped, and logs only the changed byte ranges as a `PageDelta` on the
//! page's current LSN. Either way the record's LSN becomes the page's
//! LSN. A volatile pool copies and logs nothing.

use crate::bytes::le_u64;
use crate::error::{StorageError, StorageResult};
use crate::hash::IdBuildHasher;
use crate::page::{Page, PageId, PageSize, PageType};
use crate::probe::{self, SpanKind};
use crate::wal::{DeltaRange, Lsn, Wal, WalPayload, DELTA_RANGE_HEADER};
use parking_lot::lock_api::{ArcRwLockReadGuard, ArcRwLockWriteGuard};
use parking_lot::{rank, Mutex, RawRwLock, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Where the buffer loads and stores pages. Implemented by the storage
/// system over the (simulated) block device.
pub trait PageStore: Send + Sync {
    /// Reads page `id` into `block`, a block of the segment's page size
    /// `size` that the device read overwrites whole, and verifies it
    /// ([`Page::from_bytes`]). The buffer passes a recycled frame's block
    /// here, so a miss allocates nothing.
    fn load_into(&self, id: PageId, size: PageSize, block: Box<[u8]>) -> StorageResult<Page>;
    /// Reads the page image from external storage into a fresh block.
    fn load(&self, id: PageId) -> StorageResult<Page> {
        let size = self.page_size_of(id.segment)?;
        self.load_into(id, size, vec![0u8; size.bytes()].into_boxed_slice())
    }
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
        /// Evicted frames installed again for another page (a miss or a
        /// `fix_new` that allocated no frame): at most `evictions`.
        counter frames_reused,
    }
}

/// Spare frames a shard keeps for its next misses (see the module docs).
const SPARE_FRAMES: usize = 4;

/// One page's slot; see the module docs for its lifecycle.
struct Frame {
    // lockrank: buffer.0 — per-page frame locks, same rank as the shard
    // latches: the two interleave in *both* orders. Eviction write-locks an
    // unfixed victim frame while holding the shard latch (shard → frame), and
    // a caller holding a fixed page's guard may fix another page (frame →
    // shard). The cycle cannot close because a fixed frame (`fix_count > 0`)
    // is never chosen as a victim, and a spare is held by no one else, so
    // the frame locks taken under a shard latch are disjoint from guards held
    // by fixers — the pair is modelled as one rank level, and peer frame
    // guards (one batch read-holds several) are likewise data-dependent.
    // lockrank-name: frame = buffer.0
    page: RwLock<Page>,
    /// Guards alive on the frame: a fix increments it under the shard
    /// latch, an unfix decrements it without (release, so a victim walk
    /// that reads 0 sees the guard's `recovery_lsn`).
    fix_count: AtomicU32,
    /// LSN of the newest WAL page record of this frame. The write-ahead
    /// invariant: the frame must not be stored while
    /// `recovery_lsn > wal.flushed_lsn()`.
    recovery_lsn: AtomicU64,
    /// Whether the frame is in its shard's table; set and cleared under
    /// the shard latch. A flush skips a frame that has left: its page
    /// was written back by the eviction (or freed), and may since have
    /// been read into another frame, changed and written again.
    resident: AtomicBool,
}

type FrameRef = Arc<Frame>;

/// Every frame lock is built here so the rank rides along.
fn new_frame(page: Page) -> FrameRef {
    Arc::new(Frame {
        page: RwLock::new_ranked(page, rank::BUFFER),
        fix_count: AtomicU32::new(0),
        recovery_lsn: AtomicU64::new(0),
        resident: AtomicBool::new(false),
    })
}

impl Frame {
    fn is_fixed(&self) -> bool {
        self.fix_count.load(Ordering::Acquire) > 0
    }

    /// Drops one fix; the guard's page lock is already released.
    fn unfix(&self) {
        let before = self.fix_count.fetch_sub(1, Ordering::Release);
        debug_assert!(before > 0, "unfix without fix");
    }
}

/// Sentinel for "no link" in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// Removals a shard remembers for [`PoolInner::removed_since`].
const RECENT_REMOVALS: usize = 64;

struct FrameMeta {
    id: PageId,
    frame: FrameRef,
    dirty: bool,
    /// Marked clean by a running [`BufferManager::flush_all`] that has
    /// not written it back yet: clean to a fixer, dirty to an eviction.
    flushing: bool,
    size: PageSize,
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
    index: HashMap<PageId, usize, IdBuildHasher>,
    /// Head = least recently used, tail = most recently used.
    lru_head: usize,
    lru_tail: usize,
    used_bytes: usize,
    /// Number of dirty frames — lets flush_all be a cheap no-op on
    /// read-only paths (page-sequence chained reads call it per read).
    dirty_count: usize,
    /// Frames removed so far, and the pages of the latest
    /// [`RECENT_REMOVALS`] of those removals, oldest first.
    removals: u64,
    recent_removals: VecDeque<PageId>,
    /// Evicted frames waiting for a miss of their size, oldest first.
    spares: Vec<(PageSize, FrameRef)>,
    /// Evicted frames freed instead of kept or reused: held elsewhere, or
    /// pushed out of a full spare list. While no load fails, `evictions`
    /// is `frames_reused + dropped + spares.len()`.
    dropped: u64,
}

impl PoolInner {
    fn new() -> Self {
        PoolInner {
            arena: Vec::new(),
            free_slots: Vec::new(),
            index: HashMap::default(),
            lru_head: NIL,
            lru_tail: NIL,
            used_bytes: 0,
            dirty_count: 0,
            removals: 0,
            recent_removals: VecDeque::with_capacity(RECENT_REMOVALS),
            spares: Vec::with_capacity(SPARE_FRAMES),
            dropped: 0,
        }
    }

    /// Whether `id` may have left the pool since `removals` read `since`:
    /// it did, or too many frames left since to tell.
    fn removed_since(&self, id: PageId, since: u64) -> bool {
        let n = (self.removals - since) as usize;
        n > self.recent_removals.len()
            || self.recent_removals.iter().rev().take(n).any(|&p| p == id)
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

    /// Fixes `id` if it is resident: one more fix, dirty if `for_update`,
    /// moved to the MRU end.
    fn fix_resident(&mut self, id: PageId, for_update: bool) -> Option<FrameRef> {
        let slot = *self.index.get(&id)?;
        let m = self.arena[slot].as_mut()?;
        m.frame.fix_count.fetch_add(1, Ordering::Relaxed);
        let frame = Arc::clone(&m.frame);
        if for_update && !m.dirty {
            m.dirty = true;
            self.dirty_count += 1;
        }
        if self.lru_tail != slot {
            self.lru_unlink(slot);
            self.lru_push_tail(slot);
        }
        Some(frame)
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

    /// Installs `frame` as page `id`, fixed once: a recycled frame starts
    /// over with no log record.
    fn insert_frame(&mut self, id: PageId, frame: FrameRef, dirty: bool, size: PageSize) {
        frame.fix_count.store(1, Ordering::Relaxed);
        frame.recovery_lsn.store(0, Ordering::Relaxed);
        frame.resident.store(true, Ordering::Relaxed);
        let meta =
            FrameMeta { id, frame, dirty, flushing: false, size, lru_prev: NIL, lru_next: NIL };
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
        meta.frame.resident.store(false, Ordering::Relaxed);
        self.free_slots.push(slot);
        self.used_bytes -= meta.size.bytes();
        if meta.dirty {
            self.dirty_count -= 1;
        }
        self.removals += 1;
        if self.recent_removals.len() == RECENT_REMOVALS {
            self.recent_removals.pop_front();
        }
        self.recent_removals.push_back(id);
        Some(meta)
    }

    /// Keeps an evicted, clean frame of `size` for the next miss — if
    /// nothing else holds it.
    fn keep_spare(&mut self, size: PageSize, mut frame: FrameRef) {
        if Arc::get_mut(&mut frame).is_none() {
            self.dropped += 1;
            return;
        }
        if self.spares.len() == SPARE_FRAMES {
            self.spares.remove(0);
            self.dropped += 1;
        }
        self.spares.push((size, frame));
    }

    /// The newest spare frame of `size`, if any.
    fn take_spare(&mut self, size: PageSize) -> Option<FrameRef> {
        let i = self.spares.iter().rposition(|(s, _)| *s == size)?;
        Some(self.spares.remove(i).1)
    }

    /// Least-recently-used page with no fixes, if any (the modified-LRU
    /// victim walk: skip fixed frames, oldest first).
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn lru_victim(&self) -> Option<PageId> {
        let mut slot = self.lru_head;
        while slot != NIL {
            // lint: allow(error-hygiene, intrusive LRU invariant: linked slots are occupied)
            let m = self.arena[slot].as_ref().expect("linked slot");
            if !m.frame.is_fixed() {
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
    shards: Vec<Mutex<PoolInner>>,
    shard_capacity: usize,
    stats: Arc<BufferStats>,
    /// When present, updates are WAL-logged: every unfix of an update
    /// guard appends a page image or delta, and flush/eviction enforce
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
                .map(|_| Mutex::new_ranked(PoolInner::new(), rank::BUFFER))
                .collect(),
            shard_capacity,
            stats: Arc::new(BufferStats::default()),
            wal: None,
        }
    }

    /// Attaches a write-ahead log: from now on the pool logs page images
    /// and deltas on update-unfix and enforces WAL-before-data on
    /// flush/eviction.
    pub fn attach_wal(mut self, wal: Arc<Wal>) -> Self {
        self.wal = Some(wal);
        self
    }

    fn shard(&self, id: PageId) -> &Mutex<PoolInner> {
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
    // lint: allow(dead-surface, the pin-leak check of the cursor tests in tests/session_api.rs)
    pub fn fixed_frames(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().frames().filter(|m| m.frame.is_fixed()).count())
            .sum()
    }

    /// True if the page is currently buffered (for tests/benches).
    #[cfg(test)]
    pub fn is_resident(&self, id: PageId) -> bool {
        self.shard(id).lock().get(id).is_some()
    }

    /// Fixes a page for reading. The returned guard keeps the page in the
    /// buffer and allows shared access.
    pub fn fix(&self, id: PageId) -> StorageResult<PageGuard> {
        probe::observed(SpanKind::BufferFix, || {
            self.stats.fix_calls.add(1);
            let frame = self.fix_frame(id, false)?;
            let lock = frame.page.read_arc();
            Ok(PageGuard { lock: Some(lock), frame, id })
        })
    }

    /// Fixes a page for update. Exclusive; the frame is marked dirty.
    pub fn fix_mut(&self, id: PageId) -> StorageResult<PageGuardMut> {
        probe::observed(SpanKind::BufferFix, || {
            self.stats.fix_calls.add(1);
            let frame = self.fix_frame(id, true)?;
            let lock = frame.page.write_arc();
            // A page with a record in the log changes by delta: keep its
            // pre-image to diff against at unfix.
            let log = self.guard_wal(id).map(|wal| {
                let before = (lock.lsn() >= wal.reset_lsn()).then(|| lock.as_bytes().into());
                RedoLog { wal, before }
            });
            Ok(PageGuardMut { lock: Some(lock), frame, id, log })
        })
    }

    /// The WAL handle an update guard on `id` should log to, if any.
    fn guard_wal(&self, id: PageId) -> Option<Arc<Wal>> {
        self.wal.as_ref().filter(|_| self.store.wal_logged(id.segment)).cloned()
    }

    /// Installs a brand-new page (after allocation) without reading the
    /// device, and returns it fixed for update.
    pub fn fix_new(&self, id: PageId, ptype: PageType) -> StorageResult<PageGuardMut> {
        let leaf = probe::leaf(SpanKind::BufferFix);
        self.stats.fix_calls.add(1);
        let size = self.store.page_size_of(id.segment)?;
        let (frame, resident) = {
            let mut inner = self.shard(id).lock();
            match inner.fix_resident(id, true) {
                Some(frame) => (frame, true),
                None => {
                    self.make_room(&mut inner, size.bytes())?;
                    let frame = match inner.take_spare(size) {
                        Some(spare) => {
                            // A spare is held by no one else: its lock is free.
                            spare.page.write().reformat(id, ptype);
                            self.stats.frames_reused.add(1);
                            spare
                        }
                        None => new_frame(Page::new(id, size, ptype)),
                    };
                    inner.insert_frame(id, Arc::clone(&frame), true, size);
                    (frame, false)
                }
            }
        };
        let mut lock = frame.page.write_arc();
        if resident {
            // Re-use of a freed page number: overwrite in place.
            lock.reformat(id, ptype);
        }
        leaf.finish(0);
        // A new page is always a first change: it logs a full image.
        let log = self.guard_wal(id).map(|wal| RedoLog { wal, before: None });
        Ok(PageGuardMut { lock: Some(lock), frame, id, log })
    }

    /// Drops a page from the buffer without write-back (used when the page
    /// is freed). No-op if not resident. Errors if the page is fixed.
    pub fn discard(&self, id: PageId) -> StorageResult<()> {
        let mut inner = self.shard(id).lock();
        if let Some(m) = inner.get(id) {
            if m.frame.is_fixed() {
                return Err(StorageError::FixConflict(id.desc()));
            }
            inner.remove_frame(id);
        }
        drop(inner);
        if let Some(wal) = self.guard_wal(id) {
            wal.forget_page(id);
        }
        Ok(())
    }

    /// Writes every dirty page back to the store; the pool keeps its
    /// contents (a checkpoint, not a shutdown).
    ///
    /// An unfixed page is marked clean when it is collected, so a change
    /// made while the flush runs marks it dirty again; a fixed one stays
    /// dirty. Either stays `flushing` until written: an eviction in
    /// between writes it back itself rather than dropping the only
    /// current copy, and the flush then skips it.
    pub fn flush_all(&self) -> StorageResult<()> {
        for shard in &self.shards {
            let dirty: Vec<(PageId, FrameRef)> = {
                let mut inner = shard.lock();
                if inner.dirty_count == 0 {
                    continue;
                }
                let mut v = Vec::new();
                let mut still_dirty = 0;
                for m in inner.frames_mut() {
                    if m.dirty {
                        // A fixed page may have an update guard between
                        // its fix, which set the bit, and its change,
                        // which can land after this flush's write.
                        if m.frame.is_fixed() {
                            still_dirty += 1;
                        } else {
                            m.dirty = false;
                        }
                        m.flushing = true;
                        v.push((m.id, Arc::clone(&m.frame)));
                    }
                }
                inner.dirty_count = still_dirty;
                v
            };
            let mut done = 0;
            let outcome = dirty.iter().try_for_each(|(_, frame)| {
                let mut page = frame.page.write();
                // Evicted meanwhile: written back then, and this copy may
                // be older than what the device holds now.
                if !frame.resident.load(Ordering::Relaxed) {
                    done += 1;
                    return Ok(());
                }
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
                self.stats.writebacks.add(1);
                done += 1;
                Ok(())
            });
            // A frame the flush failed to write stays `flushing`, so an
            // eviction still writes it back.
            let mut inner = shard.lock();
            for (id, frame) in &dirty[..done] {
                if let Some(m) = inner.get_mut(*id).filter(|m| Arc::ptr_eq(&m.frame, frame)) {
                    m.flushing = false;
                }
            }
            drop(inner);
            outcome?;
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
                inner.frames().filter(|m| !m.frame.is_fixed()).map(|m| m.id).collect();
            for id in victims {
                inner.remove_frame(id);
            }
        }
        Ok(())
    }

    fn fix_frame(&self, id: PageId, for_update: bool) -> StorageResult<FrameRef> {
        let shard = self.shard(id);
        let (mut since, size, spare) = {
            let mut inner = shard.lock();
            if let Some(frame) = inner.fix_resident(id, for_update) {
                self.stats.hits.add(1);
                return Ok(frame);
            }
            let size = self.store.page_size_of(id.segment)?;
            (inner.removals, size, inner.take_spare(size))
        };
        let reused = spare.is_some();
        let frame = spare.unwrap_or_else(|| new_frame(Page::new(id, size, PageType::Free)));
        loop {
            // Miss: load from device outside the pool latch, then install.
            self.stats.misses.add(1);
            {
                // Until it is installed the frame is this thread's alone,
                // so its lock blocks no one while the device reads.
                let mut page = frame.page.write();
                let block = page.take_block();
                *page = probe::observed(SpanKind::PageLoad, || {
                    self.store.load_into(id, size, block)
                })?;
            }
            self.stats.pages_loaded.add(1);
            let mut inner = shard.lock();
            if let Some(installed) = inner.fix_resident(id, for_update) {
                // Someone installed it while we were loading.
                if reused {
                    inner.keep_spare(size, frame);
                }
                return Ok(installed);
            }
            if inner.removed_since(id, since) {
                // Another thread installed, changed and wrote back the
                // page while we read it: our copy may be stale. Read again.
                since = inner.removals;
                continue;
            }
            self.make_room(&mut inner, size.bytes())?;
            if reused {
                self.stats.frames_reused.add(1);
            }
            inner.insert_frame(id, Arc::clone(&frame), for_update, size);
            return Ok(frame);
        }
    }

    /// The modified-LRU core: evict least-recently-used *unfixed* pages
    /// until `need` more bytes fit within the (shard's) byte budget. Each
    /// victim, written back if dirty, becomes a spare frame.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn make_room(&self, inner: &mut PoolInner, need: usize) -> StorageResult<()> {
        while inner.used_bytes + need > self.shard_capacity {
            let Some(vid) = inner.lru_victim() else {
                let unfixable: usize = inner
                    .frames()
                    .filter(|m| !m.frame.is_fixed())
                    .map(|m| m.size.bytes())
                    .sum();
                return Err(StorageError::BufferExhausted { needed: need, unfixable });
            };
            // lint: allow(error-hygiene, the victim id was read from the resident map under this same shard latch)
            let meta = inner.remove_frame(vid).expect("victim resident");
            self.stats.evictions.add(1);
            if meta.dirty || meta.flushing {
                // WAL before data (steal policy: uncommitted changes may
                // be evicted, their undo records are already logged).
                if let Some(wal) = &self.wal {
                    if meta.frame.recovery_lsn.load(Ordering::Relaxed) > wal.flushed_lsn() {
                        wal.force()?;
                    }
                }
                let mut page = meta.frame.page.write();
                self.store.store(&mut page)?;
                self.stats.writebacks.add(1);
            }
            inner.keep_spare(meta.size, meta.frame);
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
    frame: FrameRef,
    id: PageId,
}

/// Exclusive write access to a fixed page. Dropping the guard unfixes it;
/// on a WAL-attached pool the drop also logs the change (see the module
/// docs) and raises the frame's `recovery_lsn`.
pub struct PageGuardMut {
    lock: Option<ArcRwLockWriteGuard<RawRwLock, Page>>,
    frame: FrameRef,
    id: PageId,
    /// `None` on a volatile pool or an unlogged segment.
    log: Option<RedoLog>,
}

/// How an update guard logs its change.
struct RedoLog {
    wal: Arc<Wal>,
    /// The page as fixed, when the change can be logged as a delta;
    /// `None` logs a full image.
    before: Option<Box<[u8]>>,
}

impl RedoLog {
    /// Logs the change `page` carries and stamps its LSN; returns the
    /// record's LSN (`0`: nothing changed, nothing logged). If a poisoned
    /// log refuses the append, returns `Lsn::MAX`, which pins the frame:
    /// the dirty page can then never pass the write-ahead check, so it is
    /// never stolen — the flush that eventually needs it fails loudly
    /// instead of persisting a page whose redo was lost. The page LSN is
    /// cleared, so its next change is logged as a full image.
    fn append(&self, id: PageId, page: &mut Page) -> Lsn {
        let appended = match &self.before {
            // A truncation since the fix dropped the delta's base from
            // the log: fall back to an image.
            Some(before) if page.lsn() >= self.wal.reset_lsn() => {
                let ranges = changed_ranges(before, page.as_bytes());
                if ranges.is_empty() {
                    return 0;
                }
                self.wal.append(WalPayload::PageDelta {
                    page: id,
                    base_lsn: page.lsn(),
                    bytes: page.as_bytes(),
                    ranges: &ranges,
                })
            }
            _ => self.wal.append(WalPayload::PageImage { page: id, bytes: page.as_bytes() }),
        };
        match appended {
            Ok(lsn) => {
                page.set_lsn(lsn);
                lsn
            }
            Err(e) => {
                // Only builds that check lock ranks see this one: a change
                // made on a stale frame is a kernel defect, stopped here,
                // with the stack that made it, rather than at redo.
                assert!(!matches!(e, StorageError::StaleDeltaBase { .. }), "{e}");
                page.set_lsn(0);
                Lsn::MAX
            }
        }
    }
}

/// The byte ranges in which `after` differs from `before`; ranges at most
/// [`DELTA_RANGE_HEADER`] bytes apart are merged, since a separate range
/// would cost more than the unchanged bytes between them. Pages are at
/// most 8 KiB, so offsets and lengths fit a `u16`.
fn changed_ranges(before: &[u8], after: &[u8]) -> Vec<DeltaRange> {
    let n = before.len().min(after.len());
    let mut out: Vec<DeltaRange> = Vec::new();
    let mut i = 0;
    while i < n {
        // Skip equal words, then equal bytes.
        i += 8 * before[i..n]
            .chunks_exact(8)
            .zip(after[i..n].chunks_exact(8))
            .take_while(|(a, b)| le_u64(a) == le_u64(b))
            .count();
        while i < n && before[i] == after[i] {
            i += 1;
        }
        if i == n {
            break;
        }
        let start = i;
        while i < n && before[i] != after[i] {
            i += 1;
        }
        match out.last_mut() {
            Some((off, len)) if start - (*off as usize + *len as usize) <= DELTA_RANGE_HEADER => {
                *len = (i - *off as usize) as u16;
            }
            _ => out.push((start as u16, (i - start) as u16)),
        }
    }
    out
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

impl Drop for PageGuard {
    fn drop(&mut self) {
        self.lock.take();
        self.frame.unfix();
    }
}

impl Drop for PageGuardMut {
    fn drop(&mut self) {
        // Physical redo: log the change while we still hold the frame
        // exclusively, then raise the frame's recovery LSN so
        // flush/eviction can enforce write-ahead. The checksum is left
        // stale: write-back and redo recompute it.
        if let (Some(log), Some(page)) = (&self.log, self.lock.as_deref_mut()) {
            let lsn = log.append(self.id, page);
            self.frame.recovery_lsn.fetch_max(lsn, Ordering::Relaxed);
        }
        self.lock.take();
        self.frame.unfix();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{BlockAddr, BlockDevice, SimDisk};
    use crate::page::PAGE_HEADER_LEN;
    use crate::wal::WalRecord;

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
        fn load_into(
            &self,
            id: PageId,
            size: PageSize,
            mut block: Box<[u8]>,
        ) -> StorageResult<Page> {
            self.disk.read_block(BlockAddr::new(id.segment, id.page), &mut block)?;
            Page::from_bytes(id, size, block)
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

    /// A flush marks the pages it collected clean before it writes them.
    /// An eviction in that window must still write such a page back:
    /// evicted unwritten, the page is read back stale from the device by
    /// the next miss (here: never written at all, so it fails its check).
    #[test]
    fn eviction_during_a_flush_writes_the_collected_page_back() {
        let store = TestStore::new(&[PageSize::Half]);
        let buf = BufferManager::new(store, 2 * 512);
        for (p, text) in [(0, &b"zero"[..]), (1, &b"one"[..])] {
            buf.fix_new(id(0, p), PageType::Data).unwrap().write_payload(text).unwrap();
        }
        drop(buf.fix(id(0, 0)).unwrap()); // page 1 becomes the LRU victim
        // The flush writes page 0 first and waits for its lock, held here.
        let held = buf.fix(id(0, 0)).unwrap();
        std::thread::scope(|s| {
            let flush = s.spawn(|| buf.flush_all());
            let collected = || buf.shard(id(0, 1)).lock().get(id(0, 1)).is_some_and(|m| !m.dirty);
            while !collected() {
                std::thread::yield_now();
            }
            // Page 1 is collected but not yet written: evict it, read it back.
            drop(buf.fix_new(id(0, 2), PageType::Data).unwrap());
            assert!(!buf.is_resident(id(0, 1)));
            assert_eq!(buf.fix(id(0, 1)).unwrap().payload(), b"one");
            drop(held);
            flush.join().unwrap().unwrap();
        });
        assert_eq!(buf.fix(id(0, 0)).unwrap().payload(), b"zero");
    }

    /// A flush that reaches a collected page only after it was evicted,
    /// read back, changed and written again must not store its older
    /// copy over the device's newer one.
    #[test]
    fn a_flush_skips_a_page_evicted_since_it_was_collected() {
        let store = TestStore::new(&[PageSize::Half]);
        let buf = BufferManager::new(store, 2 * 512);
        for (p, text) in [(0, &b"zero"[..]), (1, &b"one v1"[..])] {
            buf.fix_new(id(0, p), PageType::Data).unwrap().write_payload(text).unwrap();
        }
        drop(buf.fix(id(0, 0)).unwrap()); // page 1 becomes the LRU victim
        let held = buf.fix(id(0, 0)).unwrap(); // the flush waits here first
        std::thread::scope(|s| {
            let flush = s.spawn(|| buf.flush_all());
            let collected = || buf.shard(id(0, 1)).lock().get(id(0, 1)).is_some_and(|m| !m.dirty);
            while !collected() {
                std::thread::yield_now();
            }
            // Page 1 leaves, comes back, changes and leaves again.
            drop(buf.fix_new(id(0, 2), PageType::Data).unwrap());
            buf.fix_mut(id(0, 1)).unwrap().write_payload(b"one v2").unwrap();
            drop(buf.fix_new(id(0, 3), PageType::Data).unwrap());
            assert!(!buf.is_resident(id(0, 1)));
            drop(held);
            flush.join().unwrap().unwrap();
        });
        assert_eq!(buf.fix(id(0, 1)).unwrap().payload(), b"one v2");
    }

    /// A page fixed while a flush collects it stays dirty: the guard may
    /// be an update guard whose change lands after the flush's write,
    /// and an eviction must then write that change back.
    #[test]
    fn a_page_fixed_during_a_flush_stays_dirty() {
        let store = TestStore::new(&[PageSize::Half]);
        let buf = BufferManager::new(store, 2 * 512);
        buf.fix_new(id(0, 0), PageType::Data).unwrap().write_payload(b"v1").unwrap();
        let meta = |f: fn(&FrameMeta) -> bool| buf.shard(id(0, 0)).lock().get(id(0, 0)).is_some_and(f);
        let held = buf.fix(id(0, 0)).unwrap(); // the flush waits for its lock
        std::thread::scope(|s| {
            let flush = s.spawn(|| buf.flush_all());
            while !meta(|m| m.flushing) {
                std::thread::yield_now();
            }
            assert!(meta(|m| m.dirty), "collected while fixed, still dirty");
            drop(held);
            flush.join().unwrap().unwrap();
        });
        assert!(meta(|m| m.dirty && !m.flushing), "written, and still dirty");
        drop(buf.fix(id(0, 0)).unwrap()); // unfixed now: the next flush cleans it
        buf.flush_all().unwrap();
        assert!(meta(|m| !m.dirty));
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

    /// A WAL-attached pool of half-K pages with its log device.
    fn logged_pool() -> (BufferManager, Arc<Wal>, Arc<dyn BlockDevice>) {
        let log: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
        let wal = Wal::new(Arc::clone(&log));
        let buf = BufferManager::new(TestStore::new(&[PageSize::Half]), 8 * 512)
            .attach_wal(Arc::clone(&wal));
        (buf, wal, log)
    }

    #[test]
    fn first_fix_after_reset_logs_an_image_then_deltas_of_the_changed_bytes() {
        let (buf, wal, log) = logged_pool();
        {
            let mut g = buf.fix_new(id(0, 0), PageType::Data).unwrap();
            assert!(g.log.as_ref().unwrap().before.is_none(), "a new page logs an image");
            g.write_payload(b"hello").unwrap();
        }
        wal.force().unwrap();
        wal.reset().unwrap();
        {
            let mut g = buf.fix_mut(id(0, 0)).unwrap();
            assert!(
                g.log.as_ref().unwrap().before.is_none(),
                "the page's record was truncated: no pre-image, an image"
            );
            g.payload_area_mut()[4] = b'O';
        }
        let image_lsn = buf.fix(id(0, 0)).unwrap().lsn();
        let before = buf.fix(id(0, 0)).unwrap().as_bytes().to_vec();
        {
            let mut g = buf.fix_mut(id(0, 0)).unwrap();
            assert!(g.log.as_ref().unwrap().before.is_some(), "later fixes diff a pre-image");
            let area = g.payload_area_mut();
            area[1] = b'E'; // bytes 1 and 3, one unchanged byte apart: one range
            area[3] = b'L';
            area[100] = 9; // far away: a range of its own
        }
        {
            let _unchanged = buf.fix_mut(id(0, 0)).unwrap();
        }
        wal.force().unwrap();
        let recs = Wal::replay(&log).unwrap();
        assert_eq!(recs.len(), 2, "image, delta; the unchanged fix logged nothing: {recs:?}");
        assert!(matches!(
            &recs[0],
            WalRecord::PageImage { lsn, page, bytes }
                if *lsn == image_lsn && *page == id(0, 0) && bytes.len() == 512
        ));
        let h = PAGE_HEADER_LEN as u16;
        assert_eq!(
            recs[1],
            WalRecord::PageDelta {
                lsn: image_lsn + 1,
                page: id(0, 0),
                base_lsn: image_lsn,
                ranges: vec![(h + 1, b"ElL".to_vec()), (h + 100, vec![9])],
            }
        );
        let after = buf.fix(id(0, 0)).unwrap();
        assert_eq!(after.lsn(), image_lsn + 1, "the delta's LSN is the page's");
        let changed: Vec<usize> = (0..512)
            .filter(|&i| !(24..32).contains(&i) && before[i] != after.as_bytes()[i])
            .collect();
        let h = PAGE_HEADER_LEN;
        assert_eq!(changed, vec![h + 1, h + 3, h + 100], "the ranges cover the changed bytes");
    }

    #[test]
    fn changed_ranges_merge_across_gaps_no_wider_than_a_range_header() {
        let before = [0u8; 64];
        let mut after = before;
        after[3] = 1;
        after[8] = 1; // gap of 4 unchanged bytes: merged
        after[14] = 1; // gap of 5: a new range
        after[63] = 1; // the last byte
        assert_eq!(changed_ranges(&before, &after), vec![(3, 6), (14, 1), (63, 1)]);
        assert!(changed_ranges(&before, &before).is_empty());
    }

    #[test]
    fn volatile_pool_copies_no_pre_image_and_logs_nothing() {
        let buf = BufferManager::new(TestStore::new(&[PageSize::Half]), 4 * 512);
        {
            let mut g = buf.fix_new(id(0, 0), PageType::Data).unwrap();
            assert!(g.log.is_none());
            g.write_payload(b"x").unwrap();
        }
        {
            let mut g = buf.fix_mut(id(0, 0)).unwrap();
            assert!(g.log.is_none(), "no WAL: no pre-image copy");
            g.write_payload(b"y").unwrap();
        }
        assert_eq!(buf.fix(id(0, 0)).unwrap().lsn(), 0, "nothing was logged");
    }

    /// A store whose next load of `held` parks after reading the device,
    /// until the test releases it.
    struct SlowStore {
        inner: Arc<TestStore>,
        held: PageId,
        hold: std::sync::Mutex<Option<(std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>)>>,
    }

    impl PageStore for SlowStore {
        fn load_into(&self, id: PageId, size: PageSize, block: Box<[u8]>) -> StorageResult<Page> {
            let page = self.inner.load_into(id, size, block)?;
            if id == self.held {
                let hold = self.hold.lock().unwrap().take();
                if let Some((loaded, release)) = hold {
                    loaded.send(()).unwrap();
                    release.recv().unwrap();
                }
            }
            Ok(page)
        }

        fn store(&self, page: &mut Page) -> StorageResult<()> {
            self.inner.store(page)
        }

        fn page_size_of(&self, segment: u32) -> StorageResult<PageSize> {
            self.inner.page_size_of(segment)
        }
    }

    /// A miss that read the device while another thread installed,
    /// changed and wrote back the same page must not install its stale
    /// copy over that change: it reads the page again.
    #[test]
    fn miss_racing_an_install_and_write_back_reads_again() {
        let (loaded_tx, loaded_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let store = Arc::new(SlowStore {
            inner: TestStore::new(&[PageSize::Half]),
            held: id(0, 0),
            hold: std::sync::Mutex::new(Some((loaded_tx, release_rx))),
        });
        let buf = BufferManager::new(Arc::clone(&store) as Arc<dyn PageStore>, 4 * 512);
        {
            let mut g = buf.fix_new(id(0, 0), PageType::Data).unwrap();
            g.write_payload(b"old").unwrap();
        }
        buf.evict_all().unwrap();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| buf.fix(id(0, 0)).unwrap().payload().to_vec());
            loaded_rx.recv().unwrap(); // the reader holds the device's "old"
            {
                let mut g = buf.fix_mut(id(0, 0)).unwrap();
                g.write_payload(b"new").unwrap();
            }
            buf.evict_all().unwrap(); // "new" is on the device, the frame gone
            release_tx.send(()).unwrap();
            assert_eq!(reader.join().unwrap(), b"new");
        });
        let d = buf.stats().snapshot();
        assert!(d.pages_loaded <= d.misses, "a re-read counts as a miss");
    }

    /// What a pool of [`TestStore`] pages must show: each page's payload
    /// in the pool (`current`) and on the device, and, for resident
    /// pages, the dirty bit and whether a logged change hit the page
    /// since it was loaded (then its recovery LSN is its header LSN, else
    /// 0).
    #[derive(Default)]
    struct FrameModel {
        current: HashMap<PageId, Vec<u8>>,
        device: HashMap<PageId, Vec<u8>>,
        dirty: HashMap<PageId, bool>,
        logged: HashMap<PageId, bool>,
    }

    /// Resident pages and their dirty bits, read from the pool.
    fn residents(buf: &BufferManager) -> HashMap<PageId, bool> {
        buf.shards[0].lock().frames().map(|m| (m.id, m.dirty)).collect()
    }

    /// Checks every resident frame (and every frame the test holds a
    /// handle to) against the model, plus the pool's fix and frame
    /// accounting.
    fn check_frames(
        buf: &BufferManager,
        model: &FrameModel,
        held: &[(PageId, FrameRef, usize)],
        step: usize,
    ) {
        let inner = buf.shards[0].lock();
        for m in inner.frames() {
            let page = m.frame.page.read();
            assert_eq!(page.id(), m.id, "step {step}: frame of {} holds page {}", m.id, page.id());
            assert_eq!(page.size(), m.size, "step {step}: size of {}", m.id);
            let want = model.current.get(&m.id).map_or(&[][..], Vec::as_slice);
            assert_eq!(page.payload(), want, "step {step}: bytes of {}", m.id);
            assert_eq!(m.dirty, model.dirty[&m.id], "step {step}: dirty bit of {}", m.id);
            let lsn = if model.logged[&m.id] { page.lsn() } else { 0 };
            assert_ne!(lsn, Lsn::MAX);
            assert_eq!(
                m.frame.recovery_lsn.load(Ordering::Relaxed),
                lsn,
                "step {step}: recovery LSN of {}",
                m.id
            );
        }
        for (id, frame, _) in held {
            let now = frame.page.read().id();
            assert_eq!(now, *id, "step {step}: a held frame was handed to another page");
        }
        let d = buf.stats().snapshot();
        assert!(d.frames_reused <= d.evictions);
        assert_eq!(
            d.evictions,
            d.frames_reused + inner.dropped + inner.spares.len() as u64,
            "step {step}: evictions are reused, dropped or spare frames"
        );
        drop(inner);
        assert_eq!(buf.fixed_frames(), 0, "step {step}: a fix outlived its guard");
    }

    /// Frames are recycled across pages of two sizes in a pool of a few
    /// pages: random fixes, updates, new pages, discards, flushes and
    /// evictions, while the test now and then holds a frame handle the
    /// way a flush in flight does. After every step no page shows
    /// another page's bytes, dirty bit or recovery LSN.
    #[test]
    fn recycled_frames_never_leak_state() {
        let sizes = [PageSize::Half, PageSize::K1];
        let pages_per_segment = [7u32, 4];
        for seed in 1..=24u64 {
            let log: Arc<dyn BlockDevice> = Arc::new(SimDisk::new());
            let wal = Wal::new(Arc::clone(&log));
            let buf = BufferManager::new(TestStore::new(&sizes), 3 * 1024).attach_wal(wal);
            let mut model = FrameModel::default();
            let mut held: Vec<(PageId, FrameRef, usize)> = Vec::new();
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ seed.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for step in 0..400 {
                let r = next();
                let seg = (r % 2) as u32;
                let page = id(seg, ((r >> 8) % u64::from(pages_per_segment[seg as usize])) as u32);
                let before = residents(&buf);
                let op = (r >> 16) % 16;
                match op {
                    0..=5 => {
                        let g = buf.fix(page).unwrap();
                        let want = model.current.get(&page).map_or(&[][..], Vec::as_slice);
                        assert_eq!(g.payload(), want, "step {step}: fix of {page}");
                    }
                    6..=9 => {
                        let bytes = format!("{page} at step {step} of seed {seed}").into_bytes();
                        buf.fix_mut(page).unwrap().write_payload(&bytes).unwrap();
                        model.current.insert(page, bytes);
                        model.dirty.insert(page, true);
                        model.logged.insert(page, true);
                    }
                    10 | 11 => {
                        drop(buf.fix_new(page, PageType::Data).unwrap());
                        model.current.insert(page, Vec::new());
                        model.dirty.insert(page, true);
                        model.logged.insert(page, true);
                    }
                    12 => {
                        buf.discard(page).unwrap();
                        let on_device = model.device.get(&page).cloned().unwrap_or_default();
                        model.current.insert(page, on_device);
                    }
                    13 => buf.flush_all().unwrap(),
                    14 => buf.evict_all().unwrap(),
                    _ => {
                        let frame = buf.shards[0].lock().get(page).map(|m| Arc::clone(&m.frame));
                        if let Some(frame) = frame {
                            held.push((page, frame, step + 1 + (r >> 24) as usize % 6));
                        }
                    }
                }
                // Dirty pages that left the pool other than by a discard,
                // and every page a flush wrote, are on the device now.
                let after = residents(&buf);
                for (&p, &was_dirty) in &before {
                    let written = match op {
                        12 => false,
                        13 => was_dirty,
                        _ => was_dirty && !after.contains_key(&p),
                    };
                    if written {
                        model.device.insert(p, model.current[&p].clone());
                    }
                }
                // Pages loaded by this step start clean and unlogged.
                for &p in after.keys() {
                    if !before.contains_key(&p) && !matches!(op, 6..=11) {
                        model.dirty.insert(p, false);
                        model.logged.insert(p, false);
                    }
                }
                if op == 13 {
                    model.dirty.values_mut().for_each(|d| *d = false);
                }
                held.retain(|&(_, _, until)| until > step);
                check_frames(&buf, &model, &held, step);
            }
            let d = buf.stats().snapshot();
            assert!(d.frames_reused > 0, "seed {seed}: no frame was reused");
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
