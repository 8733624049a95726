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
//!
//! Placement is leftmost first fit: an insert goes to the first page, in
//! allocation order, whose contiguous free space holds the record and a
//! slot entry. The file's free-space map answers that in O(log pages) with
//! a max-tree over the pages' free space. Insert, update and delete note the
//! page's new free space while they still hold its guard, so a write fixes
//! its page once.

use crate::error::{AccessError, AccessResult};
use parking_lot::{rank, Mutex};
use prima_storage::{PageId, PageSize, PageType, SegmentId, StorageSystem};
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
    // lockrank: buffer.0 — page list and free-space map: a buffer-level
    // peer of the shard/frame group. `insert`, `update` and `delete`
    // note free space while holding a frame guard (frame → this), and
    // `clear` frees pages while holding it (this → shard); the cycle
    // cannot close because writers into one record file are serialised
    // by the data system's extension locks, and `clear` is only reached
    // through wholesale structure reorganisation holding the structure
    // exclusively.
    map: Mutex<FreeSpaceMap>,
    payload_cap: usize,
}

/// The pages of a record file in allocation order (physical scan order)
/// and their free space, maintained optimistically for placement: a
/// max-tree (tournament tree) over the free space finds the leftmost page
/// with room in O(log pages).
struct FreeSpaceMap {
    /// Page numbers in allocation order.
    pages: Vec<u32>,
    /// Position in `pages` by page number (`NOT_IN_FILE` if absent). A
    /// record file's segment numbers its pages densely, so a vector
    /// indexed by page number suffices.
    position: Vec<u32>,
    /// Max-tree over the free space: `tree[leaves + i]` is the free space
    /// of `pages[i]` (0 past the last page), every inner node `k` the
    /// larger of `2k` and `2k + 1`; `tree[0]` is unused. `leaves` is a
    /// power of two.
    tree: Vec<usize>,
    leaves: usize,
}

const NOT_IN_FILE: u32 = u32::MAX;

impl FreeSpaceMap {
    fn new() -> Self {
        FreeSpaceMap { pages: Vec::new(), position: Vec::new(), tree: vec![0; 2], leaves: 1 }
    }

    /// The leftmost page whose free space is at least `need` (> 0).
    fn first_fit(&self, need: usize) -> Option<u32> {
        if self.tree[1] < need {
            return None;
        }
        let mut k = 1;
        while k < self.leaves {
            k = if self.tree[2 * k] >= need { 2 * k } else { 2 * k + 1 };
        }
        Some(self.pages[k - self.leaves])
    }

    /// Appends a page with `free` bytes of free space.
    fn push(&mut self, page: u32, free: usize) {
        if self.pages.len() == self.leaves {
            let leaves = 2 * self.leaves;
            let mut tree = vec![0; 2 * leaves];
            tree[leaves..leaves + self.leaves].copy_from_slice(&self.tree[self.leaves..]);
            for k in (1..leaves).rev() {
                tree[k] = tree[2 * k].max(tree[2 * k + 1]);
            }
            self.tree = tree;
            self.leaves = leaves;
        }
        let page_idx = page as usize;
        if self.position.len() <= page_idx {
            self.position.resize(page_idx + 1, NOT_IN_FILE);
        }
        self.position[page_idx] = self.pages.len() as u32;
        self.pages.push(page);
        self.set_leaf(self.pages.len() - 1, free);
    }

    /// Notes `page`'s free space; a page not in the file is ignored.
    fn set(&mut self, page: u32, free: usize) {
        if let Some(pos) = self.position_of(page) {
            self.set_leaf(pos, free);
        }
    }

    /// The noted free space of `page`, if it belongs to the file.
    #[cfg(test)]
    fn get(&self, page: u32) -> Option<usize> {
        self.position_of(page).map(|pos| self.tree[self.leaves + pos])
    }

    fn position_of(&self, page: u32) -> Option<usize> {
        self.position.get(page as usize).filter(|&&pos| pos != NOT_IN_FILE).map(|&pos| pos as usize)
    }

    fn set_leaf(&mut self, pos: usize, free: usize) {
        let mut k = self.leaves + pos;
        self.tree[k] = free;
        while k > 1 {
            k /= 2;
            self.tree[k] = self.tree[2 * k].max(self.tree[2 * k + 1]);
        }
    }
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
        let segment = storage.create_segment(page_size, logged)?;
        let payload_cap = page_size.payload();
        Ok(RecordFile {
            storage,
            segment,
            map: Mutex::new_ranked(FreeSpaceMap::new(), rank::BUFFER),
            payload_cap,
        })
    }

    /// Re-attaches to an existing segment after restart: every allocated
    /// page of `segment` whose header marks it a data page re-enters the
    /// file, in page-number order. That is allocation order for a logged
    /// file — the only kind ever attached — because it allocates from its
    /// private segment and never frees pages (only [`RecordFile::clear`]
    /// does, and the segment hands freed pages out again last-in first-out,
    /// but `clear` is reached only by transient structures). Free space is
    /// recomputed from the slotted-page headers.
    pub fn attach(storage: Arc<StorageSystem>, segment: SegmentId) -> AccessResult<Self> {
        let (page_size, extent) =
            storage.with_segment(segment, |s| (s.page_size, s.extent()))?;
        let mut map = FreeSpaceMap::new();
        for page_no in 0..extent {
            let g = storage.fix(PageId::new(segment, page_no))?;
            if g.page_type() != PageType::Data {
                continue;
            }
            map.push(page_no, page_free_space(g.payload_area()));
        }
        Ok(RecordFile {
            storage,
            segment,
            map: Mutex::new_ranked(map, rank::BUFFER),
            payload_cap: page_size.payload(),
        })
    }

    pub fn segment(&self) -> SegmentId {
        self.segment
    }

    /// Largest record this file can store.
    pub fn max_record_len(&self) -> usize {
        self.payload_cap - HDR - SLOT_SIZE
    }

    /// Number of pages currently in the file.
    #[cfg(test)]
    pub fn page_count(&self) -> usize {
        self.map.lock().pages.len()
    }

    /// Page numbers in physical order (for scans).
    pub fn page_numbers(&self) -> Vec<u32> {
        self.map.lock().pages.clone()
    }

    /// Inserts a record into the leftmost page with room (a new page if
    /// none has), returning its stable pointer.
    pub fn insert(&self, data: &[u8]) -> AccessResult<RecordPtr> {
        if data.len() > self.max_record_len() {
            return Err(AccessError::RecordTooLarge {
                len: data.len(),
                max: self.max_record_len(),
            });
        }
        let candidate = self.map.lock().first_fit(data.len() + SLOT_SIZE);
        let page_no = match candidate {
            Some(page_no) => page_no,
            None => {
                let id = self.storage.allocate_page(self.segment)?;
                {
                    let mut g = self.storage.fix_new(id, PageType::Data)?;
                    init_page(g.payload_area_mut());
                    g.set_payload_len(self.payload_cap)?;
                }
                self.map.lock().push(id.page, self.payload_cap - HDR);
                id.page
            }
        };
        let mut g = self.storage.fix_mut(PageId::new(self.segment, page_no))?;
        let area = g.payload_area_mut();
        // A stale map (a concurrent writer) may promise room that only
        // compaction yields, or not even that: then the page's real free
        // space is noted and the insert looks again.
        let slot = page_insert(area, data).or_else(|| {
            page_compact(area);
            page_insert(area, data)
        });
        self.map.lock().set(page_no, page_free_space(g.payload_area()));
        match slot {
            Some(slot) => Ok(RecordPtr { page: page_no, slot }),
            None => {
                drop(g);
                self.insert(data)
            }
        }
    }

    /// Reads a record. A deleted or never-allocated slot reports as a
    /// missing record of this file's segment.
    pub fn read(&self, ptr: RecordPtr) -> AccessResult<Vec<u8>> {
        self.read_with(ptr, |bytes| Ok(bytes.to_vec()))
    }

    /// [`RecordFile::read`], handing the record's bytes to `f` under the
    /// page fix instead of copying them out.
    pub fn read_with<T>(
        &self,
        ptr: RecordPtr,
        f: impl FnOnce(&[u8]) -> AccessResult<T>,
    ) -> AccessResult<T> {
        let g = self.storage.fix(PageId::new(self.segment, ptr.page))?;
        f(page_read(g.payload_area(), ptr.slot).ok_or(self.missing(ptr))?)
    }

    fn missing(&self, ptr: RecordPtr) -> AccessError {
        AccessError::Storage(prima_storage::StorageError::PageNotAllocated {
            segment: self.segment,
            page: ptr.page,
        })
    }

    /// Updates a record to `data`: [`RecordFile::update_with`] with
    /// bytes known in advance.
    pub fn update(&self, ptr: RecordPtr, data: &[u8]) -> AccessResult<RecordPtr> {
        self.update_with(ptr, |_| Ok(Some(data)))
    }

    /// Edits a record under one page fix: `edit` is handed the record's
    /// current bytes and returns its new ones, or `None` to leave it as
    /// it is. The new bytes are written in place when the page holds
    /// them; otherwise the record is moved and the *new* pointer
    /// returned. A move writes the new copy before it deletes the old
    /// one, so a crash between the two page changes leaves the record
    /// twice — which restart drops to one copy — and never loses it. A
    /// deleted or never-allocated slot reports as [`RecordFile::read`]
    /// does.
    pub fn update_with<D: AsRef<[u8]>>(
        &self,
        ptr: RecordPtr,
        edit: impl FnOnce(&[u8]) -> AccessResult<Option<D>>,
    ) -> AccessResult<RecordPtr> {
        let data = {
            let mut g = self.storage.fix_mut(PageId::new(self.segment, ptr.page))?;
            let area = g.payload_area_mut();
            let Some(data) = edit(page_read(area, ptr.slot).ok_or(self.missing(ptr))?)? else {
                return Ok(ptr);
            };
            let len = data.as_ref().len();
            if len > self.max_record_len() {
                return Err(AccessError::RecordTooLarge { len, max: self.max_record_len() });
            }
            let in_place = page_update(area, ptr.slot, data.as_ref());
            self.map.lock().set(ptr.page, page_free_space(area));
            if in_place {
                return Ok(ptr);
            }
            data
        };
        let moved = self.insert(data.as_ref())?;
        self.delete(ptr)?;
        Ok(moved)
    }

    /// Deletes a record; its slot may be reused.
    pub fn delete(&self, ptr: RecordPtr) -> AccessResult<()> {
        let mut g = self.storage.fix_mut(PageId::new(self.segment, ptr.page))?;
        page_delete(g.payload_area_mut(), ptr.slot);
        self.map.lock().set(ptr.page, page_free_space(g.payload_area()));
        Ok(())
    }

    /// Visits all records in physical order: `(ptr, bytes)`.
    pub fn for_each(&self, mut f: impl FnMut(RecordPtr, &[u8]) -> AccessResult<()>) -> AccessResult<()> {
        for page_no in self.page_numbers() {
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
    #[cfg(test)]
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
        let mut map = self.map.lock();
        for &p in &map.pages {
            self.storage.free_page(PageId::new(self.segment, p))?;
        }
        *map = FreeSpaceMap::new();
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

/// Rewrites all live records tightly at the end of the page in slot
/// order (slot 0 highest), preserving slot numbers. Records move from a
/// copy of the area, so compaction allocates nothing.
fn page_compact(area: &mut [u8]) {
    let mut buf = [0u8; PageSize::K8.bytes()];
    let copy = &mut buf[..area.len()];
    copy.copy_from_slice(area);
    let mut heap = area.len();
    for s in 0..page_slot_count(copy) {
        if let Some(bytes) = page_read(copy, s) {
            heap -= bytes.len();
            area[heap..heap + bytes.len()].copy_from_slice(bytes);
            set_slot_entry(area, s, heap as u16, bytes.len() as u16);
        }
    }
    area[2..4].copy_from_slice(&(heap as u16).to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Free space recomputed from `page`'s slotted-page header.
    fn real_free(f: &RecordFile, page: u32) -> usize {
        let g = f.storage.fix(PageId::new(f.segment, page)).unwrap();
        page_free_space(g.payload_area())
    }

    #[test]
    fn stale_map_entry_is_recomputed_after_failed_insert() {
        let f = file();
        let a = f.insert(&[1; 200]).unwrap();
        assert_eq!(f.insert(&[1; 200]).unwrap().page, a.page);
        let real = real_free(&f, a.page);
        assert!(real > 0 && real < 200 + SLOT_SIZE, "page has some room, not enough for 200");
        // A concurrent writer's stale view: the map promises room the page
        // does not have, even after compaction.
        f.map.lock().set(a.page, f.max_record_len() + SLOT_SIZE);
        let b = f.insert(&[2; 200]).unwrap();
        assert_ne!(b.page, a.page, "the record goes to a new page");
        assert_eq!(f.map.lock().get(a.page), Some(real), "the page keeps its real free space");
        assert_eq!(f.read(b).unwrap(), vec![2; 200]);
    }

    #[test]
    fn page_compact_golden() {
        // Holes (slots 1 and 5 deleted), a grown record (slot 2 moved to
        // the heap top, slot 0 grown through a first compaction), a shrunk
        // one (slot 3) and an empty one (slot 4). The expected table and
        // bytes are those of the earlier per-record compaction.
        let mut area = vec![0u8; 64];
        init_page(&mut area);
        for r in [&b"aaaa"[..], b"bbbbbbbb", b"cc", b"dddddd", b"", b"eee"] {
            page_insert(&mut area, r).unwrap();
        }
        page_delete(&mut area, 1);
        assert!(page_update(&mut area, 2, b"CCCCCCCCCC"));
        assert!(page_update(&mut area, 3, b"dd"));
        assert!(page_update(&mut area, 0, b"AAAAAAA"));
        page_delete(&mut area, 5);
        page_compact(&mut area);
        let table: Vec<(u16, u16)> = (0..page_slot_count(&area)).map(|s| slot_entry(&area, s)).collect();
        assert_eq!(
            table,
            [(57, 7), (FREE_SLOT, 0), (47, 10), (45, 2), (45, 0), (FREE_SLOT, 0)]
        );
        assert_eq!(heap_off(&area), 45);
        let expected: [u8; 64] = [
            6, 0, 45, 0, 57, 0, 7, 0, 255, 255, 0, 0, 47, 0, 10, 0, 45, 0, 2, 0, 45, 0, 0, 0, 255,
            255, 0, 0, 0, 0, 0, 67, 67, 67, 67, 67, 67, 67, 65, 65, 65, 65, 65, 65, 65, 100, 100,
            67, 67, 67, 67, 67, 67, 67, 67, 67, 67, 65, 65, 65, 65, 65, 65, 65,
        ];
        assert_eq!(area, expected);
    }

    /// Runs `ops` — `(kind, record, size)`: insert (half of them), grow,
    /// shrink or delete — against a file of `page_size`, checking after every operation
    /// that every live record reads back, that an insert (or a grow's
    /// move) landed where a naive leftmost first fit over the pages' free
    /// space puts it, and that every map entry equals the page's real free
    /// space.
    fn check_placement(page_size: PageSize, ops: &[(u8, prop::sample::Index, u16)]) {
        let storage = Arc::new(StorageSystem::in_memory(4 << 20));
        let f = RecordFile::create(storage, page_size).unwrap();
        let max = f.max_record_len();
        let mut live: Vec<(RecordPtr, Vec<u8>)> = Vec::new();
        let mut fill = 0u8;
        let mut bytes = |len: usize| {
            fill = fill.wrapping_add(1);
            vec![fill; len]
        };
        // Leftmost page of `pages` whose free space (`free`) holds `len`
        // bytes and a slot entry; `None`: a new page.
        let first_fit = |pages: &[u32], free: &[usize], len: usize| {
            free.iter().position(|&fr| fr >= len + SLOT_SIZE).map(|i| pages[i])
        };
        for &(kind, idx, size) in ops {
            let pages = f.page_numbers();
            let shadow: Vec<usize> = pages.iter().map(|&p| real_free(&f, p)).collect();
            let expect_at = |ptr: RecordPtr, free: &[usize], len: usize| {
                match first_fit(&pages, free, len) {
                    Some(page) => assert_eq!(ptr.page, page, "leftmost first fit"),
                    None => assert!(!pages.contains(&ptr.page), "a new page"),
                }
            };
            match kind % 8 {
                0..=3 => {
                    let data = bytes(size as usize % (max / 3));
                    let ptr = f.insert(&data).unwrap();
                    expect_at(ptr, &shadow, data.len());
                    live.push((ptr, data));
                }
                _ if live.is_empty() => continue,
                4 | 5 => {
                    let i = idx.index(live.len());
                    let (ptr, old) = &live[i];
                    let data = bytes((old.len() + 1 + size as usize % (max / 2)).min(max));
                    let moved = f.update(*ptr, &data).unwrap();
                    if moved != *ptr {
                        // The move's insert saw the old page as the failed
                        // grow left it (compacted); the old slot's delete
                        // does not change the page's free space.
                        let mut free = shadow.clone();
                        let at = pages.iter().position(|&p| p == ptr.page).unwrap();
                        free[at] = real_free(&f, ptr.page);
                        expect_at(moved, &free, data.len());
                        assert!(f.read(*ptr).is_err(), "the old copy is gone");
                    }
                    live[i] = (moved, data);
                }
                6 => {
                    let i = idx.index(live.len());
                    let (ptr, old) = &live[i];
                    let data = bytes(old.len() * (size as usize % 4) / 4);
                    assert_eq!(f.update(*ptr, &data).unwrap(), *ptr, "a shrink stays in place");
                    live[i].1 = data;
                }
                _ => {
                    let (ptr, _) = live.swap_remove(idx.index(live.len()));
                    f.delete(ptr).unwrap();
                }
            }
            for (ptr, data) in &live {
                assert_eq!(&f.read(*ptr).unwrap(), data);
            }
            let map = f.map.lock();
            for &p in &map.pages {
                assert_eq!(map.get(p), Some(real_free(&f, p)), "map entry of page {p}");
            }
        }
        assert_eq!(f.record_count().unwrap(), live.len());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn placement_matches_naive_first_fit_k1(
            ops in prop::collection::vec((any::<u8>(), any::<prop::sample::Index>(), any::<u16>()), 1..300)
        ) {
            check_placement(PageSize::K1, &ops);
        }

        #[test]
        fn placement_matches_naive_first_fit_k4(
            ops in prop::collection::vec((any::<u8>(), any::<prop::sample::Index>(), any::<u16>()), 1..300)
        ) {
            check_placement(PageSize::K4, &ops);
        }
    }
}
