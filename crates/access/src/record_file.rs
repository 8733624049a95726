//! Physical records in slotted pages.
//!
//! "To manage redundancy in the access system, physical records are
//! introduced as byte strings of variable length. They are stored
//! consecutively in 'containers' offered by the storage system."
//! (Section 3.2.)
//!
//! A [`RecordFile`] owns one segment and lays records out in slotted
//! pages. Record identity is a stable [`RecordPtr`] (page, slot): slots
//! survive compaction; growth beyond the page is reported so the caller
//! (the atom store) can relocate the record and fix its address-table
//! entries.
//!
//! In-page layout (within the page payload area):
//! ```text
//! 0..2   slot count n
//! 2..4   heap offset (start of free space)
//! 4..    slot table: n entries of (offset u16, len u16); offset == 0xFFFF
//!        marks a free slot; len == 0 with a valid offset is an empty
//!        record
//! heap grows upward from the end of the slot table
//! ```

use crate::error::{AccessError, AccessResult};
use parking_lot::{rank, Mutex};
use prima_storage::{PageId, PageType, SegmentId, StorageSystem};
use std::sync::Arc;

/// Stable identity of a physical record within one record file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordPtr {
    pub page: u32,
    pub slot: u16,
}

impl std::fmt::Display for RecordPtr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}:{}", self.page, self.slot)
    }
}

const FREE_SLOT: u16 = 0xFFFF;
const SLOT_SIZE: usize = 4;
const HDR: usize = 4;

/// A heap of variable-length records over one segment.
pub struct RecordFile {
    storage: Arc<StorageSystem>,
    segment: SegmentId,
    /// Pages of this file in allocation order (physical scan order).
    // lockrank: buffer.0 — page list: buffer-level peer of the shard/frame
    // group. `insert` refreshes the free-space map while holding a frame
    // guard (frame → this), and `clear` frees pages while holding both
    // maps (this → shard); the cycle cannot close because writers into
    // one record file are serialised by the data system's extension
    // locks, and `clear` is only reached through wholesale structure
    // reorganisation holding the structure exclusively.
    pages: Mutex<Vec<u32>>,
    /// Free space per page (same indexing as `pages`), maintained
    /// optimistically for placement decisions.
    // lockrank: buffer.0 — free-space map; see `pages`.
    free_space: Mutex<Vec<usize>>,
    payload_cap: usize,
}

impl RecordFile {
    /// Creates a record file over a fresh segment with the given page
    /// size.
    pub fn create(
        storage: Arc<StorageSystem>,
        page_size: prima_storage::PageSize,
    ) -> AccessResult<Self> {
        Self::create_with(storage, page_size, true)
    }

    /// Creates a record file, choosing whether its segment is WAL-logged.
    /// Transient structures pass `logged = false` (they are regenerated
    /// after restart, not recovered).
    pub fn create_with(
        storage: Arc<StorageSystem>,
        page_size: prima_storage::PageSize,
        logged: bool,
    ) -> AccessResult<Self> {
        let segment = storage.create_segment_with(page_size, logged)?;
        let payload_cap = page_size.payload();
        Ok(RecordFile {
            storage,
            segment,
            pages: Mutex::new_ranked(Vec::new(), rank::BUFFER),
            free_space: Mutex::new_ranked(Vec::new(), rank::BUFFER),
            payload_cap,
        })
    }

    /// Re-attaches to an existing segment after restart: every allocated
    /// page of `segment` whose header marks it a data page re-enters the
    /// file, in page-number order — which *is* allocation order, because
    /// a record file allocates from its private segment and never frees
    /// individual pages. Free space is recomputed from the slotted-page
    /// headers.
    pub fn attach(storage: Arc<StorageSystem>, segment: SegmentId) -> AccessResult<Self> {
        let (page_size, extent) =
            storage.with_segment(segment, |s| (s.page_size, s.extent()))?;
        let file = RecordFile {
            storage: Arc::clone(&storage),
            segment,
            pages: Mutex::new_ranked(Vec::new(), rank::BUFFER),
            free_space: Mutex::new_ranked(Vec::new(), rank::BUFFER),
            payload_cap: page_size.payload(),
        };
        let mut pages = Vec::new();
        let mut free = Vec::new();
        for page_no in 0..extent {
            let g = storage.fix(PageId::new(segment, page_no))?;
            if g.page_type() != PageType::Data {
                continue;
            }
            free.push(page_free_space(g.payload_area()));
            pages.push(page_no);
        }
        *file.pages.lock() = pages;
        *file.free_space.lock() = free;
        Ok(file)
    }

    pub fn segment(&self) -> SegmentId {
        self.segment
    }

    /// Largest record this file can store.
    pub fn max_record_len(&self) -> usize {
        self.payload_cap - HDR - SLOT_SIZE
    }

    /// Number of pages currently in the file.
    pub fn page_count(&self) -> usize {
        self.pages.lock().len()
    }

    /// Page numbers in physical order (for scans).
    pub fn page_numbers(&self) -> Vec<u32> {
        self.pages.lock().clone()
    }

    /// Inserts a record, returning its stable pointer.
    pub fn insert(&self, data: &[u8]) -> AccessResult<RecordPtr> {
        if data.len() > self.max_record_len() {
            return Err(AccessError::RecordTooLarge {
                len: data.len(),
                max: self.max_record_len(),
            });
        }
        // Find a page with room (first fit over the free-space map).
        let need = data.len() + SLOT_SIZE;
        let candidate = {
            let free = self.free_space.lock();
            free.iter().position(|&f| f >= need)
        };
        let (page_no, page_idx) = match candidate {
            Some(idx) => (self.pages.lock()[idx], idx),
            None => {
                let id = self.storage.allocate_page(self.segment)?;
                {
                    let mut g = self.storage.fix_new(id, PageType::Data)?;
                    init_page(g.payload_area_mut());
                    g.set_payload_len(self.payload_cap)?;
                }
                let mut pages = self.pages.lock();
                let mut free = self.free_space.lock();
                pages.push(id.page);
                free.push(self.payload_cap - HDR);
                (id.page, pages.len() - 1)
            }
        };
        let pid = PageId::new(self.segment, page_no);
        let mut g = self.storage.fix_mut(pid)?;
        let slot = {
            let area = g.payload_area_mut();
            match page_insert(area, data) {
                Some(slot) => slot,
                None => {
                    // Free-space map was stale (fragmentation): compact and
                    // retry; if still no room, fall through to a new page.
                    page_compact(area);
                    match page_insert(area, data) {
                        Some(slot) => slot,
                        None => {
                            drop(g);
                            self.free_space.lock()[page_idx] = 0;
                            return self.insert(data);
                        }
                    }
                }
            }
        };
        self.free_space.lock()[page_idx] = page_free_space(g.payload_area());
        Ok(RecordPtr { page: page_no, slot })
    }

    /// Reads a record. A deleted or never-allocated slot reports as a
    /// missing record of this file's segment.
    pub fn read(&self, ptr: RecordPtr) -> AccessResult<Vec<u8>> {
        let g = self.storage.fix(PageId::new(self.segment, ptr.page))?;
        page_read(g.payload_area(), ptr.slot).map(<[u8]>::to_vec).ok_or(AccessError::Storage(
            prima_storage::StorageError::PageNotAllocated {
                segment: self.segment,
                page: ptr.page,
            },
        ))
    }

    /// Updates a record in place; if the new data does not fit in the
    /// page, the record is moved and the *new* pointer returned. A move
    /// writes the new copy before it deletes the old one, so a crash
    /// between the two page changes leaves the record twice — which
    /// restart drops to one copy — and never loses it.
    pub fn update(&self, ptr: RecordPtr, data: &[u8]) -> AccessResult<RecordPtr> {
        if data.len() > self.max_record_len() {
            return Err(AccessError::RecordTooLarge {
                len: data.len(),
                max: self.max_record_len(),
            });
        }
        let in_place = {
            let mut g = self.storage.fix_mut(PageId::new(self.segment, ptr.page))?;
            page_update(g.payload_area_mut(), ptr.slot, data)
        };
        self.refresh_free_space(ptr.page)?;
        if in_place {
            return Ok(ptr);
        }
        let moved = self.insert(data)?;
        self.delete(ptr)?;
        Ok(moved)
    }

    /// Deletes a record; its slot may be reused.
    pub fn delete(&self, ptr: RecordPtr) -> AccessResult<()> {
        let pid = PageId::new(self.segment, ptr.page);
        {
            let mut g = self.storage.fix_mut(pid)?;
            page_delete(g.payload_area_mut(), ptr.slot);
        }
        self.refresh_free_space(ptr.page)?;
        Ok(())
    }

    /// Visits all records in physical order: `(ptr, bytes)`.
    pub fn for_each(&self, mut f: impl FnMut(RecordPtr, &[u8]) -> AccessResult<()>) -> AccessResult<()> {
        let pages = self.pages.lock().clone();
        for page_no in pages {
            let g = self.storage.fix(PageId::new(self.segment, page_no))?;
            let area = g.payload_area();
            for slot in 0..page_slot_count(area) {
                if let Some(bytes) = page_read(area, slot) {
                    f(RecordPtr { page: page_no, slot }, bytes)?;
                }
            }
        }
        Ok(())
    }

    /// Reads several slots of one page under a **single** page fix — the
    /// storage-level primitive of the batched atom-read path. Invokes
    /// `f(slot_position, record_bytes)` for every requested slot while the
    /// page is fixed once, letting the caller decode in place without an
    /// intermediate byte-vector per record. A deleted or never-allocated
    /// slot yields `None` (the caller decides whether that is an error).
    pub fn read_batch_on_page_with(
        &self,
        page_no: u32,
        slots: &[u16],
        mut f: impl FnMut(usize, Option<&[u8]>) -> AccessResult<()>,
    ) -> AccessResult<()> {
        let g = self.storage.fix(PageId::new(self.segment, page_no))?;
        let area = g.payload_area();
        for (i, &slot) in slots.iter().enumerate() {
            f(i, page_read(area, slot))?;
        }
        Ok(())
    }

    /// Reads all records of one page (scan granularity): `(slot, bytes)`.
    pub fn read_page_records(&self, page_no: u32) -> AccessResult<Vec<(u16, Vec<u8>)>> {
        let g = self.storage.fix(PageId::new(self.segment, page_no))?;
        let area = g.payload_area();
        let mut out = Vec::new();
        for slot in 0..page_slot_count(area) {
            if let Some(bytes) = page_read(area, slot) {
                out.push((slot, bytes.to_vec()));
            }
        }
        Ok(out)
    }

    /// Number of live records (full scan; for stats and tests).
    pub fn record_count(&self) -> AccessResult<usize> {
        let mut n = 0;
        self.for_each(|_, _| {
            n += 1;
            Ok(())
        })?;
        Ok(n)
    }

    /// Frees every page and resets the file to empty (used by structures
    /// that reorganise wholesale, e.g. the grid file's rebuild).
    pub fn clear(&self) -> AccessResult<()> {
        let mut pages = self.pages.lock();
        let mut free = self.free_space.lock();
        for &p in pages.iter() {
            self.storage.free_page(PageId::new(self.segment, p))?;
        }
        pages.clear();
        free.clear();
        Ok(())
    }

    fn refresh_free_space(&self, page_no: u32) -> AccessResult<()> {
        let idx = { self.pages.lock().iter().position(|&p| p == page_no) };
        if let Some(idx) = idx {
            let g = self.storage.fix(PageId::new(self.segment, page_no))?;
            self.free_space.lock()[idx] = page_free_space(g.payload_area());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// In-page operations (pure functions over the payload area)
// ---------------------------------------------------------------------------

fn init_page(area: &mut [u8]) {
    area[0..2].copy_from_slice(&0u16.to_le_bytes());
    let heap_off = area.len() as u16;
    area[2..4].copy_from_slice(&heap_off.to_le_bytes());
}

fn page_slot_count(area: &[u8]) -> u16 {
    u16::from_le_bytes([area[0], area[1]])
}

fn heap_off(area: &[u8]) -> u16 {
    u16::from_le_bytes([area[2], area[3]])
}

fn slot_entry(area: &[u8], slot: u16) -> (u16, u16) {
    let base = HDR + slot as usize * SLOT_SIZE;
    (
        u16::from_le_bytes([area[base], area[base + 1]]),
        u16::from_le_bytes([area[base + 2], area[base + 3]]),
    )
}

fn set_slot_entry(area: &mut [u8], slot: u16, off: u16, len: u16) {
    let base = HDR + slot as usize * SLOT_SIZE;
    area[base..base + 2].copy_from_slice(&off.to_le_bytes());
    area[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
}

/// Contiguous free space between slot table end and heap start.
fn page_free_space(area: &[u8]) -> usize {
    let n = page_slot_count(area) as usize;
    let table_end = HDR + n * SLOT_SIZE;
    let heap = heap_off(area) as usize;
    heap.saturating_sub(table_end)
}

/// Inserts into the page; returns the slot or None when out of room
/// (caller may compact and retry).
fn page_insert(area: &mut [u8], data: &[u8]) -> Option<u16> {
    let n = page_slot_count(area);
    // Prefer a free slot (no table growth).
    let free_slot = (0..n).find(|&s| slot_entry(area, s).0 == FREE_SLOT);
    let need_table = if free_slot.is_some() { 0 } else { SLOT_SIZE };
    if page_free_space(area) < data.len() + need_table {
        return None;
    }
    let new_heap = heap_off(area) as usize - data.len();
    area[new_heap..new_heap + data.len()].copy_from_slice(data);
    area[2..4].copy_from_slice(&(new_heap as u16).to_le_bytes());
    let slot = match free_slot {
        Some(s) => s,
        None => {
            area[0..2].copy_from_slice(&(n + 1).to_le_bytes());
            n
        }
    };
    set_slot_entry(area, slot, new_heap as u16, data.len() as u16);
    Some(slot)
}

fn page_read(area: &[u8], slot: u16) -> Option<&[u8]> {
    if slot >= page_slot_count(area) {
        return None;
    }
    let (off, len) = slot_entry(area, slot);
    if off == FREE_SLOT {
        return None;
    }
    Some(&area[off as usize..off as usize + len as usize])
}

/// In-place update; true on success, false if the page lacks room.
fn page_update(area: &mut [u8], slot: u16, data: &[u8]) -> bool {
    if slot >= page_slot_count(area) {
        return false;
    }
    let (off, len) = slot_entry(area, slot);
    if off == FREE_SLOT {
        return false;
    }
    if data.len() <= len as usize {
        // Shrink/equal: overwrite in place (tail of old record becomes
        // internal fragmentation until compaction).
        let off = off as usize;
        area[off..off + data.len()].copy_from_slice(data);
        set_slot_entry(area, slot, off as u16, data.len() as u16);
        return true;
    }
    // Grow: try to place a fresh copy in free space, keeping the slot.
    if page_free_space(area) >= data.len() {
        let new_heap = heap_off(area) as usize - data.len();
        area[new_heap..new_heap + data.len()].copy_from_slice(data);
        area[2..4].copy_from_slice(&(new_heap as u16).to_le_bytes());
        set_slot_entry(area, slot, new_heap as u16, data.len() as u16);
        return true;
    }
    // Compact once, then retry the free-space placement.
    page_compact(area);
    if page_free_space(area) >= data.len() {
        let new_heap = heap_off(area) as usize - data.len();
        area[new_heap..new_heap + data.len()].copy_from_slice(data);
        area[2..4].copy_from_slice(&(new_heap as u16).to_le_bytes());
        set_slot_entry(area, slot, new_heap as u16, data.len() as u16);
        return true;
    }
    false
}

fn page_delete(area: &mut [u8], slot: u16) {
    if slot < page_slot_count(area) {
        set_slot_entry(area, slot, FREE_SLOT, 0);
    }
}

/// Rewrites all live records tightly at the end of the page, preserving
/// slot numbers.
fn page_compact(area: &mut [u8]) {
    let n = page_slot_count(area);
    let mut records: Vec<(u16, Vec<u8>)> = Vec::new();
    for s in 0..n {
        if let Some(bytes) = page_read(area, s) {
            records.push((s, bytes.to_vec()));
        }
    }
    let mut heap = area.len();
    for (s, bytes) in &records {
        heap -= bytes.len();
        area[heap..heap + bytes.len()].copy_from_slice(bytes);
        set_slot_entry(area, *s, heap as u16, bytes.len() as u16);
    }
    area[2..4].copy_from_slice(&(heap as u16).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_storage::PageSize;

    fn file() -> RecordFile {
        let storage = Arc::new(StorageSystem::in_memory(1 << 20));
        RecordFile::create(storage, PageSize::Half).unwrap()
    }

    #[test]
    fn insert_read_round_trip() {
        let f = file();
        let p = f.insert(b"hello atoms").unwrap();
        assert_eq!(f.read(p).unwrap(), b"hello atoms");
    }

    #[test]
    fn many_records_span_pages() {
        let f = file();
        let mut ptrs = Vec::new();
        for i in 0..200 {
            let data = format!("record number {i:04} with some padding payload");
            ptrs.push((f.insert(data.as_bytes()).unwrap(), data));
        }
        assert!(f.page_count() > 1, "200 records must not fit one 1/2K page");
        for (p, data) in &ptrs {
            assert_eq!(f.read(*p).unwrap(), data.as_bytes());
        }
        assert_eq!(f.record_count().unwrap(), 200);
    }

    #[test]
    fn update_in_place_and_grow() {
        let f = file();
        let p = f.insert(b"short").unwrap();
        let p2 = f.update(p, b"tiny").unwrap();
        assert_eq!(p, p2, "shrink stays in place");
        assert_eq!(f.read(p).unwrap(), b"tiny");
        let p3 = f.update(p, b"a noticeably longer record body").unwrap();
        assert_eq!(f.read(p3).unwrap(), b"a noticeably longer record body");
    }

    #[test]
    fn update_that_overflows_page_moves_record() {
        let f = file();
        // Fill a page almost completely.
        let big = vec![b'x'; 200];
        let a = f.insert(&big).unwrap();
        let b = f.insert(&big).unwrap();
        let _ = b;
        // Growing `a` beyond the remaining space forces a move.
        let huge = vec![b'y'; 400];
        let a2 = f.update(a, &huge).unwrap();
        assert_eq!(f.read(a2).unwrap(), huge);
        if a2 != a {
            // old slot must be gone
            assert!(f.read(a).is_err() || f.read(a).unwrap() != huge);
        }
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let f = file();
        let a = f.insert(b"one").unwrap();
        let _b = f.insert(b"two").unwrap();
        f.delete(a).unwrap();
        assert!(f.read(a).is_err());
        let c = f.insert(b"three").unwrap();
        // Reuses the freed slot on the same page.
        assert_eq!(c.page, a.page);
        assert_eq!(c.slot, a.slot);
        assert_eq!(f.record_count().unwrap(), 2);
    }

    #[test]
    fn oversized_record_rejected() {
        let f = file();
        let data = vec![0u8; 1000];
        assert!(matches!(f.insert(&data), Err(AccessError::RecordTooLarge { .. })));
    }

    #[test]
    fn for_each_visits_in_physical_order() {
        let f = file();
        for i in 0..50 {
            f.insert(format!("r{i:03}").as_bytes()).unwrap();
        }
        let mut seen = Vec::new();
        f.for_each(|ptr, bytes| {
            seen.push((ptr, bytes.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 50);
        // Physical order within a page follows slot order, pages in
        // allocation order.
        let pages: Vec<u32> = seen.iter().map(|(p, _)| p.page).collect();
        let mut sorted = pages.clone();
        sorted.sort_unstable();
        assert_eq!(pages, sorted);
    }

    #[test]
    fn fragmentation_is_compacted() {
        let f = file();
        // Alternate insert/delete to fragment, then insert a record that
        // only fits after compaction.
        let mut kept = Vec::new();
        let mut dropped = Vec::new();
        for i in 0..8 {
            let p = f.insert(&[i as u8; 50]).unwrap();
            if i % 2 == 0 {
                dropped.push(p);
            } else {
                kept.push((p, vec![i as u8; 50]));
            }
        }
        for p in dropped {
            f.delete(p).unwrap();
        }
        // 4*50 freed but scattered; a 150-byte record needs compaction.
        let big = vec![0xaa; 150];
        let p = f.insert(&big).unwrap();
        assert_eq!(f.read(p).unwrap(), big);
        for (p, data) in kept {
            assert_eq!(f.read(p).unwrap(), data);
        }
    }
}
