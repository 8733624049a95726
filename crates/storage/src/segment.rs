//! Segments and the storage-system facade.
//!
//! "As in conventional systems the objects, i.e. containers, offered by the
//! storage system are segments divided into pages of equal size"
//! (Section 3.3). Each segment chooses one of the five page sizes; the
//! mapping between its pages and the blocks of the underlying file is the
//! identity (that is *why* the paper restricts page sizes to the file
//! manager's block sizes).
//!
//! [`StorageSystem`] bundles a block device, the segment directory and the
//! buffer manager into the interface the access system programs against:
//! allocate/free pages, fix/unfix them through the buffer, create and read
//! page sequences, and observe I/O.

use crate::buffer::{BufferManager, PageGuard, PageGuardMut, PageStore};
use crate::disk::{BlockAddr, BlockDevice};
use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId, PageSize, PageType};
use crate::stats::IoStats;
use crate::wal::{Wal, WalRecord};
use parking_lot::{rank, RwLock};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Identifier of a segment (also the file number on the device).
pub type SegmentId = u32;

/// Per-segment allocation state. Kept in memory during operation and
/// snapshotted into the device's metadata blob at checkpoint
/// ([`StorageSystem::segments_snapshot`]), so a durable kernel can
/// restore the directory on restart.
#[derive(Debug)]
pub struct Segment {
    pub id: SegmentId,
    pub page_size: PageSize,
    next_page: u32,
    free: Vec<u32>,
    allocated: u64,
    /// Whether updates to this segment's pages are WAL-logged. Transient
    /// tuning structures opt out: they are regenerated, not recovered.
    logged: bool,
}

impl Segment {
    fn new(id: SegmentId, page_size: PageSize, logged: bool) -> Self {
        Segment { id, page_size, next_page: 0, free: Vec::new(), allocated: 0, logged }
    }

    /// Number of currently allocated pages.
    pub fn allocated_pages(&self) -> u64 {
        self.allocated
    }

    /// High-water mark: pages ever handed out.
    pub fn extent(&self) -> u32 {
        self.next_page
    }
}

/// Point-in-time copy of one segment directory entry — the unit of the
/// checkpoint's catalog snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    pub id: SegmentId,
    pub page_size: PageSize,
    pub next_page: u32,
    pub free: Vec<u32>,
    pub logged: bool,
}

/// Shared state implementing [`PageStore`] for the buffer: the device plus
/// the segment directory (for page-size lookup).
pub(crate) struct DiskStore {
    pub device: Arc<dyn BlockDevice>,
    // lockrank: storage.1 — segment catalog; read transiently on every
    // load/store, write-held only by segment creation.
    pub segments: RwLock<HashMap<SegmentId, Segment>>,
}

impl PageStore for DiskStore {
    fn load_into(&self, id: PageId, size: PageSize, mut block: Box<[u8]>) -> StorageResult<Page> {
        if block.len() != size.bytes() {
            return Err(StorageError::DeviceError(format!(
                "block for page {id} has {} bytes, page size is {}",
                block.len(),
                size.bytes()
            )));
        }
        self.device.read_block(BlockAddr::new(id.segment, id.page), &mut block)?;
        Page::from_bytes(id, size, block)
    }

    fn store(&self, page: &mut Page) -> StorageResult<()> {
        page.update_checksum();
        let id = page.id();
        self.device.write_block(BlockAddr::new(id.segment, id.page), page.as_bytes())
    }

    fn page_size_of(&self, segment: u32) -> StorageResult<PageSize> {
        self.segments
            .read()
            .get(&segment)
            .map(|s| s.page_size)
            .ok_or(StorageError::UnknownSegment(segment))
    }

    fn wal_logged(&self, segment: u32) -> bool {
        self.segments.read().get(&segment).is_none_or(|s| s.logged)
    }
}

/// The storage system: segments, buffered pages, page sequences.
pub struct StorageSystem {
    store: Arc<DiskStore>,
    buffer: BufferManager,
    // lockrank: storage.0 — segment-id allocator; taken before the catalog
    // write lock by segment creation.
    next_segment: RwLock<SegmentId>,
    wal: Option<Arc<Wal>>,
}

impl StorageSystem {
    /// Builds a storage system over `device` with a buffer of
    /// `buffer_bytes` (volatile: no write-ahead log).
    pub fn new(device: Arc<dyn BlockDevice>, buffer_bytes: usize) -> Self {
        Self::build(device, buffer_bytes, None)
    }

    /// Builds a *durable* storage system: page updates are logged to
    /// `wal`, and flush/eviction enforce write-ahead.
    pub fn with_wal(device: Arc<dyn BlockDevice>, buffer_bytes: usize, wal: Arc<Wal>) -> Self {
        Self::build(device, buffer_bytes, Some(wal))
    }

    fn build(device: Arc<dyn BlockDevice>, buffer_bytes: usize, wal: Option<Arc<Wal>>) -> Self {
        let store =
            Arc::new(DiskStore { device, segments: RwLock::new_ranked(HashMap::new(), rank::STORAGE + 1) });
        // Latch-shard the pool for parallel DUs; semantics per shard are
        // the paper's modified LRU.
        let shards = std::thread::available_parallelism().map_or(4, std::num::NonZero::get).min(16);
        let mut buffer = BufferManager::with_shards(
            Arc::clone(&store) as Arc<dyn PageStore>,
            buffer_bytes,
            shards,
        );
        if let Some(wal) = &wal {
            buffer = buffer.attach_wal(Arc::clone(wal));
        }
        StorageSystem { store, buffer, next_segment: RwLock::new_ranked(0, rank::STORAGE), wal }
    }

    /// Convenience: storage system over a fresh simulated disk.
    // lint: allow(dead-surface, the storage stack that other crates' unit tests and the property suite build on)
    pub fn in_memory(buffer_bytes: usize) -> Self {
        Self::new(Arc::new(crate::disk::SimDisk::new()), buffer_bytes)
    }

    /// Creates a segment with the chosen page size; its file is created on
    /// the device with the matching block length. `logged` says whether
    /// its page updates are WAL-logged. Transient structures (partitions,
    /// sort orders, clusters, access paths) pass `logged = false`: they
    /// are redundant by definition and are regenerated after restart, so
    /// logging their pages would only bloat the log.
    pub fn create_segment(&self, page_size: PageSize, logged: bool) -> StorageResult<SegmentId> {
        let mut next = self.next_segment.write();
        let id = *next;
        *next += 1;
        // lint: allow(lock-across-io, allocator lock must cover file creation or a racing checkpoint could snapshot an id whose file does not exist yet)
        self.store.device.create_file(id, page_size.bytes())?;
        self.store.segments.write().insert(id, Segment::new(id, page_size, logged));
        Ok(id)
    }

    /// Page size of a segment.
    pub fn page_size(&self, segment: SegmentId) -> StorageResult<PageSize> {
        self.store.page_size_of(segment)
    }

    /// Allocates one page in the segment. Freed pages are reused first.
    pub fn allocate_page(&self, segment: SegmentId) -> StorageResult<PageId> {
        let mut segs = self.store.segments.write();
        let seg = segs.get_mut(&segment).ok_or(StorageError::UnknownSegment(segment))?;
        let page = match seg.free.pop() {
            Some(p) => p,
            None => {
                let p = seg.next_page;
                seg.next_page += 1;
                p
            }
        };
        seg.allocated += 1;
        Ok(PageId::new(segment, page))
    }

    /// Allocates `count` *contiguous* pages (for a page sequence) and
    /// returns the first id. Contiguity is what enables chained I/O.
    pub fn allocate_run(&self, segment: SegmentId, count: u32) -> StorageResult<PageId> {
        let mut segs = self.store.segments.write();
        let seg = segs.get_mut(&segment).ok_or(StorageError::UnknownSegment(segment))?;
        let first = seg.next_page;
        seg.next_page += count;
        seg.allocated += count as u64;
        Ok(PageId::new(segment, first))
    }

    /// Frees one page: it leaves the buffer (no write-back) and becomes
    /// reusable.
    pub fn free_page(&self, id: PageId) -> StorageResult<()> {
        self.buffer.discard(id)?;
        let mut segs = self.store.segments.write();
        let seg = segs.get_mut(&id.segment).ok_or(StorageError::UnknownSegment(id.segment))?;
        if id.page >= seg.next_page {
            return Err(StorageError::PageOutOfRange { segment: id.segment, page: id.page });
        }
        seg.free.push(id.page);
        seg.allocated = seg.allocated.saturating_sub(1);
        Ok(())
    }

    /// Fixes a page for reading (through the buffer).
    pub fn fix(&self, id: PageId) -> StorageResult<PageGuard> {
        self.buffer.fix(id)
    }

    /// Fixes a page for update.
    pub fn fix_mut(&self, id: PageId) -> StorageResult<PageGuardMut> {
        self.buffer.fix_mut(id)
    }

    /// Installs a freshly allocated page, fixed for update, without device
    /// read.
    pub fn fix_new(&self, id: PageId, ptype: PageType) -> StorageResult<PageGuardMut> {
        self.buffer.fix_new(id, ptype)
    }

    /// Checkpoint: write all dirty pages back.
    pub fn flush(&self) -> StorageResult<()> {
        self.buffer.flush_all()
    }

    // -----------------------------------------------------------------
    // Durability: checkpoint, restart, redo
    // -----------------------------------------------------------------

    /// The write-ahead log, when this system is durable.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// The underlying block device.
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.store.device
    }

    /// Storage-level checkpoint: flushes every dirty page (forcing the
    /// WAL first — write-ahead), makes the device state durable, replaces
    /// the device's metadata blob with `meta` (the caller's catalog
    /// snapshot, which should embed [`StorageSystem::segments_snapshot`])
    /// and truncates the log. After this, restart recovery starts from
    /// `meta` with an empty log tail.
    pub fn checkpoint(&self, meta: &[u8]) -> StorageResult<()> {
        self.buffer.flush_all()?;
        self.store.device.sync()?;
        self.store.device.write_meta(meta)?;
        if let Some(wal) = &self.wal {
            // The marker rides through reset (which re-appends pending
            // records), so the fresh log starts with a checkpoint record
            // naming its recovery base — diagnostic only; replay treats
            // it as a no-op. A poisoned log refuses the append; the
            // reset below truncates away the torn fragment and clears
            // the poison, so on that path the marker is appended — and
            // forced — onto the fresh log afterwards instead (the
            // checkpoint still heals a poisoned kernel).
            let marker = wal.append(crate::wal::WalPayload::Checkpoint);
            wal.reset()?;
            if marker.is_err() {
                wal.append(crate::wal::WalPayload::Checkpoint)?;
                wal.force()?;
            }
        }
        self.store.device.sync()
    }

    /// The device's metadata blob (checkpoint snapshot), if any.
    pub fn read_meta(&self) -> StorageResult<Option<Vec<u8>>> {
        self.store.device.read_meta()
    }

    /// Point-in-time copy of the segment directory, for the checkpoint's
    /// catalog snapshot.
    pub fn segments_snapshot(&self) -> (SegmentId, Vec<SegmentMeta>) {
        // Allocator before directory — the lock order of segment creation.
        // The checkpoint gate has quiesced writers, so reading the two
        // under separate holds still yields one consistent snapshot.
        let next = *self.next_segment.read();
        let segs = self.store.segments.read();
        let mut metas: Vec<SegmentMeta> = segs
            .values()
            .map(|s| SegmentMeta {
                id: s.id,
                page_size: s.page_size,
                next_page: s.next_page,
                free: s.free.clone(),
                logged: s.logged,
            })
            .collect();
        metas.sort_by_key(|m| m.id);
        (next, metas)
    }

    /// Restores the segment directory from a checkpoint snapshot. The
    /// device files already exist (they survived with the device); only
    /// the in-memory directory is rebuilt, so this must run on a freshly
    /// constructed system before any allocation.
    pub fn restore_segments(&self, next_segment: SegmentId, metas: &[SegmentMeta]) {
        // Allocator before directory — the lock order of segment creation.
        *self.next_segment.write() = next_segment;
        let mut segs = self.store.segments.write();
        for m in metas {
            let mut seg = Segment::new(m.id, m.page_size, m.logged);
            seg.next_page = m.next_page;
            seg.free = m.free.clone();
            seg.allocated = (m.next_page as u64).saturating_sub(m.free.len() as u64);
            segs.insert(m.id, seg);
        }
    }

    /// Redo: rebuilds every page the log describes in memory, then
    /// writes each one once, checksummed, directly to the device
    /// (bypassing the buffer — recovery runs before any page is fixed).
    /// Returns the number of pages written.
    ///
    /// A page starts from its image in the log; a page whose first
    /// record is a delta (re-appended across a checkpoint's log reset)
    /// starts from the device. A delta applies iff the page's LSN equals
    /// its base, and is skipped when the page's LSN is already at or past
    /// the delta's own; anything else is a
    /// [`StorageError::RedoBaseMismatch`]. Replaying a log twice writes
    /// the same pages. Owning segments' extents grow to cover pages
    /// allocated after the snapshot was taken.
    pub fn redo(&self, records: &[WalRecord]) -> StorageResult<usize> {
        let mut pages: BTreeMap<PageId, Page> = BTreeMap::new();
        for rec in records {
            match rec {
                WalRecord::PageImage { lsn, page: id, bytes } => {
                    let size = self.redo_extent(*id)?;
                    if bytes.len() != size.bytes() {
                        return Err(StorageError::DeviceError(format!(
                            "redo image for {id} has {} bytes, segment page size is {}",
                            bytes.len(),
                            size.bytes()
                        )));
                    }
                    let mut page = Page::from_log_image(size, bytes);
                    page.set_lsn(*lsn);
                    pages.insert(*id, page);
                }
                WalRecord::PageDelta { lsn, page: id, base_lsn, ranges } => {
                    let page = match pages.entry(*id) {
                        Entry::Occupied(e) => e.into_mut(),
                        Entry::Vacant(e) => {
                            self.redo_extent(*id)?;
                            e.insert(self.store.load(*id)?)
                        }
                    };
                    if page.lsn() != *base_lsn {
                        if page.lsn() >= *lsn {
                            continue;
                        }
                        return Err(StorageError::RedoBaseMismatch {
                            page: id.desc(),
                            lsn: *lsn,
                            base_lsn: *base_lsn,
                            page_lsn: page.lsn(),
                        });
                    }
                    let buf = page.bytes_mut();
                    for (off, bytes) in ranges {
                        let start = *off as usize;
                        buf.get_mut(start..start + bytes.len())
                            .ok_or_else(|| {
                                StorageError::DeviceError(format!(
                                    "redo delta {lsn} writes past the end of page {id}"
                                ))
                            })?
                            .copy_from_slice(bytes);
                    }
                    page.set_lsn(*lsn);
                }
                _ => {}
            }
        }
        for page in pages.values_mut() {
            self.store.store(page)?;
        }
        Ok(pages.len())
    }

    /// Extends `id`'s segment to cover it (pages allocated after the
    /// checkpoint snapshot) and returns the segment's page size.
    fn redo_extent(&self, id: PageId) -> StorageResult<PageSize> {
        let mut segs = self.store.segments.write();
        let seg = segs.get_mut(&id.segment).ok_or(StorageError::UnknownSegment(id.segment))?;
        if id.page >= seg.next_page {
            seg.allocated += (id.page + 1 - seg.next_page) as u64;
            seg.next_page = id.page + 1;
        }
        Ok(seg.page_size)
    }

    /// Reads `count` contiguous pages starting at `first` in one chained
    /// run, bypassing the buffer (the page-sequence fast path; the caller
    /// gets owned page images). Pages currently dirty in the buffer are
    /// flushed first so the device image is current.
    pub fn read_run_chained(&self, first: PageId, count: u32) -> StorageResult<Vec<Page>> {
        let size = self.page_size(first.segment)?;
        // Make sure the device sees current contents for this run.
        self.buffer.flush_all()?;
        let mut buf = vec![0u8; count as usize * size.bytes()];
        self.store.device.read_chained(BlockAddr::new(first.segment, first.page), count, &mut buf)?;
        // The chained read needs one contiguous buffer, so each page
        // copies its block out of it.
        (first.page..)
            .zip(buf.chunks_exact(size.bytes()))
            .map(|(no, block)| {
                Page::from_bytes(PageId::new(first.segment, no), size, block.into())
            })
            .collect()
    }

    /// Drops the buffer cache (flushing dirty pages first): subsequent
    /// reads hit the device. For cold-read experiments.
    pub fn drop_cache(&self) -> StorageResult<()> {
        self.buffer.evict_all()
    }

    /// Device-level I/O statistics.
    pub fn io_stats(&self) -> Arc<IoStats> {
        self.store.device.stats()
    }

    /// Access to the buffer (used by page sequences and tests).
    pub fn buffer(&self) -> &BufferManager {
        &self.buffer
    }

    /// Runs `f` with the segment's metadata, if it exists.
    pub fn with_segment<R>(&self, id: SegmentId, f: impl FnOnce(&Segment) -> R) -> StorageResult<R> {
        let segs = self.store.segments.read();
        let seg = segs.get(&id).ok_or(StorageError::UnknownSegment(id))?;
        Ok(f(seg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> StorageSystem {
        StorageSystem::in_memory(64 * 1024)
    }

    #[test]
    fn create_segments_with_all_page_sizes() {
        let s = sys();
        for size in PageSize::ALL {
            let seg = s.create_segment(size, true).unwrap();
            assert_eq!(s.page_size(seg).unwrap(), size);
        }
    }

    #[test]
    fn allocate_write_read() {
        let s = sys();
        let seg = s.create_segment(PageSize::K1, true).unwrap();
        let id = s.allocate_page(seg).unwrap();
        {
            let mut g = s.fix_new(id, PageType::Data).unwrap();
            g.write_payload(b"molecule data").unwrap();
        }
        s.flush().unwrap();
        let g = s.fix(id).unwrap();
        assert_eq!(g.payload(), b"molecule data");
    }

    #[test]
    fn freed_pages_are_reused() {
        let s = sys();
        let seg = s.create_segment(PageSize::Half, true).unwrap();
        let a = s.allocate_page(seg).unwrap();
        let b = s.allocate_page(seg).unwrap();
        assert_ne!(a, b);
        s.free_page(a).unwrap();
        let c = s.allocate_page(seg).unwrap();
        assert_eq!(c, a, "free list should be reused first");
        s.with_segment(seg, |m| assert_eq!(m.allocated_pages(), 2)).unwrap();
    }

    #[test]
    fn allocate_run_is_contiguous() {
        let s = sys();
        let seg = s.create_segment(PageSize::Half, true).unwrap();
        let _ = s.allocate_page(seg).unwrap();
        let first = s.allocate_run(seg, 5).unwrap();
        for i in 0..5 {
            // All five ids are consecutive.
            let id = PageId::new(seg, first.page + i);
            let _ = s.fix_new(id, PageType::Data).unwrap();
        }
        let next = s.allocate_page(seg).unwrap();
        assert_eq!(next.page, first.page + 5);
    }

    #[test]
    fn chained_run_read_returns_current_contents() {
        let s = sys();
        let seg = s.create_segment(PageSize::Half, true).unwrap();
        let first = s.allocate_run(seg, 3).unwrap();
        for i in 0..3u32 {
            let id = PageId::new(seg, first.page + i);
            let mut g = s.fix_new(id, PageType::Data).unwrap();
            g.write_payload(format!("component {i}").as_bytes()).unwrap();
        }
        let pages = s.read_run_chained(first, 3).unwrap();
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[2].payload(), b"component 2");
        let io = s.io_stats().snapshot();
        assert_eq!(io.chained_runs, 1);
        assert_eq!(io.chained_blocks, 3);
    }

    #[test]
    fn unknown_segment_errors() {
        let s = sys();
        assert!(matches!(s.allocate_page(42), Err(StorageError::UnknownSegment(42))));
        assert!(s.page_size(42).is_err());
    }

    #[test]
    fn free_page_out_of_range_errors() {
        let s = sys();
        let seg = s.create_segment(PageSize::Half, true).unwrap();
        assert!(matches!(
            s.free_page(PageId::new(seg, 10)),
            Err(StorageError::PageOutOfRange { .. })
        ));
    }
}
