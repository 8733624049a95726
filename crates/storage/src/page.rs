//! Pages: the unit of transfer between buffer and disk.
//!
//! Section 3.3: "the storage system of PRIMA supports pages of different
//! length. The page size of each segment can be chosen to be 1/2, 1, 2, 4
//! or 8 Kbyte" — exactly the five block sizes of the underlying file
//! manager, so page↔block mapping is the identity.
//!
//! Every page carries a fixed header "used for identification, description,
//! and fault tolerance": a type tag, its own id (so a misdirected read is
//! detectable), a payload length, page-sequence linkage fields, a
//! checksum over the payload, and the **page LSN** — the LSN of the
//! newest log record that describes the page, which makes redo of a
//! byte-range delta idempotent (see [`crate::wal`]).
//!
//! The checksum is verified on every page load, so it sits on the
//! buffer's miss path: a byte-serial hash of a 4 KiB page costs an order
//! of magnitude more than reading the block from the OS cache. It is
//! therefore word-parallel — four independent 64-bit multiply-rotate
//! lanes consume the used payload 32 bytes at a time, then the header
//! fields are folded in and the result is reduced to 32 bits.

use crate::bytes::{le_u16, le_u32, le_u64};
use crate::error::{PageRefDesc, StorageError, StorageResult};
use crate::wal::Lsn;

/// The five page sizes supported by the storage system (in bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PageSize {
    /// 512 bytes ("1/2 K").
    Half,
    /// 1 KByte.
    K1,
    /// 2 KByte.
    K2,
    /// 4 KByte.
    K4,
    /// 8 KByte.
    K8,
}

impl PageSize {
    /// All five sizes, smallest first.
    pub const ALL: [PageSize; 5] =
        [PageSize::Half, PageSize::K1, PageSize::K2, PageSize::K4, PageSize::K8];

    /// Size in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            PageSize::Half => 512,
            PageSize::K1 => 1024,
            PageSize::K2 => 2048,
            PageSize::K4 => 4096,
            PageSize::K8 => 8192,
        }
    }

    /// Payload capacity (size minus the fixed header).
    pub const fn payload(self) -> usize {
        self.bytes() - PAGE_HEADER_LEN
    }

    /// The smallest supported size that can hold `payload_len` payload
    /// bytes in one page, if any.
    #[cfg(test)]
    pub fn fitting(payload_len: usize) -> Option<PageSize> {
        PageSize::ALL.into_iter().find(|s| s.payload() >= payload_len)
    }
}

impl std::fmt::Display for PageSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageSize::Half => write!(f, "1/2K"),
            PageSize::K1 => write!(f, "1K"),
            PageSize::K2 => write!(f, "2K"),
            PageSize::K4 => write!(f, "4K"),
            PageSize::K8 => write!(f, "8K"),
        }
    }
}

/// Identity of a page: segment number plus page number within the segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    pub segment: u32,
    pub page: u32,
}

impl PageId {
    pub fn new(segment: u32, page: u32) -> Self {
        PageId { segment, page }
    }

    pub(crate) fn desc(self) -> PageRefDesc {
        PageRefDesc { segment: self.segment, page: self.page }
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.segment, self.page)
    }
}

/// What a page is used for; stored in the header so that readers can verify
/// they got the kind of page they expected ("description" role of the
/// header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageType {
    /// Freshly allocated, content not yet meaningful.
    Free = 0,
    /// Ordinary data page (physical records of the access system).
    Data = 1,
    /// Header page of a page sequence (Section 3.3 / Fig. 3.2c).
    SeqHeader = 2,
    /// Component page of a page sequence.
    SeqComponent = 3,
    /// Access-path page (B*-tree node, grid directory, ...).
    AccessPath = 4,
    /// Segment metadata (allocation directory).
    Meta = 5,
}

impl PageType {
    pub fn from_tag(tag: u8) -> Option<PageType> {
        Some(match tag {
            0 => PageType::Free,
            1 => PageType::Data,
            2 => PageType::SeqHeader,
            3 => PageType::SeqComponent,
            4 => PageType::AccessPath,
            5 => PageType::Meta,
            _ => return None,
        })
    }

    pub const fn name(self) -> &'static str {
        match self {
            PageType::Free => "free",
            PageType::Data => "data",
            PageType::SeqHeader => "seq-header",
            PageType::SeqComponent => "seq-component",
            PageType::AccessPath => "access-path",
            PageType::Meta => "meta",
        }
    }
}

/// Byte length of the fixed page header.
///
/// Layout (little-endian):
/// ```text
/// 0..2   magic 0x504D ("PM")
/// 2      page type tag
/// 3      flags (bit 0: dirty-on-disk marker used by fault-tolerance tests)
/// 4..8   segment id
/// 8..12  page number
/// 12..14 payload length actually used (pages are at most 8 KiB)
/// 14..16 page-sequence position (index of this component; 0 for header;
///        a sequence indexes at most 2 038 components)
/// 16..20 page-sequence link: header page number (or u32::MAX)
/// 20..24 checksum over the rest of the header and the used payload:
///        a four-lane word-parallel multiply-rotate hash, because every
///        buffer miss verifies it (bytes past the used payload are not
///        covered)
/// 24..32 page LSN: newest log record describing this page (0 = none)
/// ```
pub const PAGE_HEADER_LEN: usize = 32;

const MAGIC: u16 = 0x504D;
const NO_LINK: u32 = u32::MAX;

/// An in-memory page image: header plus payload, always exactly
/// `size.bytes()` long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    size: PageSize,
    buf: Box<[u8]>,
}

impl Page {
    /// A fresh page of the given size, typed and self-identified.
    pub fn new(id: PageId, size: PageSize, ptype: PageType) -> Page {
        Page::format(vec![0u8; size.bytes()].into_boxed_slice(), id, size, ptype)
    }

    /// Writes a fresh header into the zeroed block `buf`.
    fn format(buf: Box<[u8]>, id: PageId, size: PageSize, ptype: PageType) -> Page {
        let mut p = Page { size, buf };
        p.write_header(id, ptype);
        p
    }

    /// Turns this page into a fresh page `id` in place: its block is
    /// zero-filled, then formatted as by [`Page::new`]. The buffer
    /// reformats a recycled frame this way instead of allocating a block.
    pub(crate) fn reformat(&mut self, id: PageId, ptype: PageType) {
        self.buf.fill(0);
        self.write_header(id, ptype);
    }

    fn write_header(&mut self, id: PageId, ptype: PageType) {
        self.buf[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        self.buf[2] = ptype as u8;
        self.buf[4..8].copy_from_slice(&id.segment.to_le_bytes());
        self.buf[8..12].copy_from_slice(&id.page.to_le_bytes());
        self.set_seq_link(None, 0);
        self.update_checksum();
    }

    /// Takes the page's block out, leaving the page empty: a buffer frame
    /// hands its block to the next device read ([`Page::from_bytes`]
    /// makes a page of it again). An empty page must not be read.
    pub(crate) fn take_block(&mut self) -> Box<[u8]> {
        std::mem::take(&mut self.buf)
    }

    /// Reconstructs a page from the raw block `buf` read from the device,
    /// taking ownership of it, and verifies magic, size, identity, payload
    /// length and checksum (the "fault tolerance" role of the header).
    /// A completely zeroed block is accepted as a `Free` page, because the
    /// simulated file manager returns zeroes for never-written blocks.
    pub fn from_bytes(id: PageId, size: PageSize, buf: Box<[u8]>) -> StorageResult<Page> {
        if buf.len() != size.bytes() {
            return Err(StorageError::DeviceError(format!(
                "block for page {id} has {} bytes, page size is {}",
                buf.len(),
                size.bytes()
            )));
        }
        if buf.iter().all(|&b| b == 0) {
            return Ok(Page::format(buf, id, size, PageType::Free));
        }
        let page = Page { size, buf };
        let verified = le_u16(&page.buf[0..2]) == MAGIC
            && page.id() == id
            // A rotted length must not reach the hash's payload slice.
            && page.payload_len() <= size.payload()
            && page.stored_checksum() == page.compute_checksum();
        if !verified {
            return Err(StorageError::ChecksumMismatch(id.desc()));
        }
        Ok(page)
    }

    /// The page's identity as recorded in its header.
    pub fn id(&self) -> PageId {
        PageId {
            segment: le_u32(&self.buf[4..8]),
            page: le_u32(&self.buf[8..12]),
        }
    }

    pub fn size(&self) -> PageSize {
        self.size
    }

    pub fn page_type(&self) -> PageType {
        PageType::from_tag(self.buf[2]).unwrap_or(PageType::Free)
    }

    pub fn set_page_type(&mut self, t: PageType) {
        self.buf[2] = t as u8;
    }

    /// Number of payload bytes in use.
    pub fn payload_len(&self) -> usize {
        le_u16(&self.buf[12..14]) as usize
    }

    /// Read-only view of the used payload.
    pub fn payload(&self) -> &[u8] {
        &self.buf[PAGE_HEADER_LEN..PAGE_HEADER_LEN + self.payload_len()]
    }

    /// Read-only view of the whole payload area (used and unused).
    pub fn payload_area(&self) -> &[u8] {
        &self.buf[PAGE_HEADER_LEN..]
    }

    /// Mutable view of the whole payload area. Callers must call
    /// [`Page::set_payload_len`] (and the buffer layer re-checksums on
    /// write-back).
    pub fn payload_area_mut(&mut self) -> &mut [u8] {
        &mut self.buf[PAGE_HEADER_LEN..]
    }

    /// Declares how many payload bytes are meaningful.
    pub fn set_payload_len(&mut self, len: usize) -> StorageResult<()> {
        if len > self.size.payload() {
            return Err(StorageError::PayloadTooLarge { len, max: self.size.payload() });
        }
        self.buf[12..14].copy_from_slice(&(len as u16).to_le_bytes());
        Ok(())
    }

    /// Replaces the used payload wholesale.
    pub fn write_payload(&mut self, data: &[u8]) -> StorageResult<()> {
        self.set_payload_len(data.len())?;
        self.buf[PAGE_HEADER_LEN..PAGE_HEADER_LEN + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Page-sequence linkage: header page number this page belongs to
    /// (None if not in a sequence) and position within the sequence.
    #[cfg(test)]
    pub fn seq_link(&self) -> (Option<u32>, u32) {
        let hdr = le_u32(&self.buf[16..20]);
        let pos = le_u16(&self.buf[14..16]) as u32;
        (if hdr == NO_LINK { None } else { Some(hdr) }, pos)
    }

    /// Sets the page-sequence linkage; `pos` is below
    /// [`crate::PageSequence::max_components`], which fits 16 bits.
    pub fn set_seq_link(&mut self, header: Option<u32>, pos: u32) {
        debug_assert!(pos <= u16::MAX as u32, "sequence position {pos} exceeds 16 bits");
        self.buf[14..16].copy_from_slice(&(pos as u16).to_le_bytes());
        self.buf[16..20].copy_from_slice(&header.unwrap_or(NO_LINK).to_le_bytes());
    }

    /// LSN of the newest log record describing this page (`0`: none
    /// since the page was created).
    pub fn lsn(&self) -> Lsn {
        le_u64(&self.buf[24..32])
    }

    /// Stamps the page LSN; the buffer calls this after logging a change,
    /// redo after applying one.
    pub fn set_lsn(&mut self, lsn: Lsn) {
        self.buf[24..32].copy_from_slice(&lsn.to_le_bytes());
    }

    fn stored_checksum(&self) -> u32 {
        le_u32(&self.buf[20..24])
    }

    /// The page checksum over the header (bytes 0..20 and 24..32; 20..24
    /// hold the checksum itself) and the used payload.
    ///
    /// Each little-endian payload word goes to one of four lanes, so the
    /// lanes' multiply chains run in parallel instead of one byte at a
    /// time; a short tail is zero-padded (the payload length, in the
    /// header, tells a padded tail from real zeroes). Every step is a
    /// permutation of its lane for a fixed word, and the combine and
    /// avalanche are permutations too, so any change confined to one word
    /// changes the 64-bit result; only the final fold to the 4-byte field
    /// can collide.
    fn compute_checksum(&self) -> u32 {
        let mut lanes = LANE_SEEDS;
        let mut stripes = self.payload().chunks_exact(8 * LANES);
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = lane_step(*lane, le_u64(word));
            }
        }
        for (lane, word) in lanes.iter_mut().zip(stripes.remainder().chunks(8)) {
            *lane = lane_step(*lane, le_u64(word));
        }
        let mut h = lanes[0]
            ^ lanes[1].rotate_left(16)
            ^ lanes[2].rotate_left(32)
            ^ lanes[3].rotate_left(48);
        let b = &self.buf;
        for field in [&b[0..8], &b[8..16], &b[16..20], &b[24..PAGE_HEADER_LEN]] {
            h = lane_step(h, le_u64(field));
        }
        // Avalanche (the MurmurHash3 finalizer), then fold to 32 bits.
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^= h >> 33;
        (h ^ (h >> 32)) as u32
    }

    /// Recomputes and stores the checksum; called on write-back and by
    /// redo for every page it rebuilds (a buffered page's checksum is
    /// stale while it is being updated).
    pub fn update_checksum(&mut self) {
        let c = self.compute_checksum();
        self.buf[20..24].copy_from_slice(&c.to_le_bytes());
    }

    /// Raw bytes for transfer to the device.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Raw bytes, writable — redo applies logged byte ranges here.
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }

    /// A page over raw logged bytes, without the checksum and identity
    /// checks of [`Page::from_bytes`]: a logged image carries the stale
    /// checksum of a page that was still being updated. Redo recomputes
    /// the checksum before the page reaches the device.
    pub(crate) fn from_log_image(size: PageSize, bytes: &[u8]) -> Page {
        Page { size, buf: bytes.into() }
    }
}

/// Number of independent 64-bit lanes of the page checksum.
const LANES: usize = 4;
/// Odd multiplier of a lane step, so each step permutes the lane state.
const LANE_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Starting state of each lane.
const LANE_SEEDS: [u64; LANES] =
    [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344, 0xA409_3822_299F_31D0, 0x082E_FA98_EC4E_6C89];

#[inline]
fn lane_step(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(LANE_MUL).rotate_left(29)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_paper() {
        let bytes: Vec<usize> = PageSize::ALL.iter().map(|s| s.bytes()).collect();
        assert_eq!(bytes, vec![512, 1024, 2048, 4096, 8192]);
    }

    #[test]
    fn fitting_picks_smallest() {
        assert_eq!(PageSize::fitting(10), Some(PageSize::Half));
        assert_eq!(PageSize::fitting(512 - PAGE_HEADER_LEN), Some(PageSize::Half));
        assert_eq!(PageSize::fitting(512), Some(PageSize::K1));
        assert_eq!(PageSize::fitting(8192 - PAGE_HEADER_LEN), Some(PageSize::K8));
        assert_eq!(PageSize::fitting(9000), None);
    }

    #[test]
    fn round_trip_through_bytes() {
        let id = PageId::new(2, 17);
        let mut p = Page::new(id, PageSize::K1, PageType::Data);
        p.write_payload(b"engineering objects").unwrap();
        p.set_seq_link(Some(5), 3);
        p.set_lsn(0x1_0000_0007);
        p.update_checksum();
        let q = Page::from_bytes(id, PageSize::K1, p.as_bytes().into()).unwrap();
        assert_eq!(q.id(), id);
        assert_eq!(q.lsn(), 0x1_0000_0007);
        assert_eq!(q.page_type(), PageType::Data);
        assert_eq!(q.payload(), b"engineering objects");
        assert_eq!(q.seq_link(), (Some(5), 3));
    }

    #[test]
    fn zero_block_reads_as_free_page() {
        let id = PageId::new(0, 0);
        let zeroes = vec![0u8; 512].into_boxed_slice();
        let p = Page::from_bytes(id, PageSize::Half, zeroes).unwrap();
        assert_eq!(p.page_type(), PageType::Free);
        assert_eq!(p.payload_len(), 0);
    }

    #[test]
    fn corrupted_payload_detected() {
        let id = PageId::new(1, 1);
        let mut p = Page::new(id, PageSize::Half, PageType::Data);
        p.write_payload(b"abc").unwrap();
        p.update_checksum();
        let mut bytes = p.as_bytes().to_vec();
        bytes[PAGE_HEADER_LEN] ^= 0xff;
        assert!(matches!(
            Page::from_bytes(id, PageSize::Half, bytes.into()),
            Err(StorageError::ChecksumMismatch(_))
        ));
    }

    #[test]
    fn page_lsn_is_checksummed() {
        let id = PageId::new(1, 1);
        let mut p = Page::new(id, PageSize::Half, PageType::Data);
        assert_eq!(p.lsn(), 0, "a fresh page has no log record");
        p.set_lsn(42);
        p.update_checksum();
        let mut bytes = p.as_bytes().to_vec();
        bytes[24] ^= 0x01;
        assert!(matches!(
            Page::from_bytes(id, PageSize::Half, bytes.into()),
            Err(StorageError::ChecksumMismatch(_))
        ));
    }

    #[test]
    fn misdirected_read_detected() {
        let id = PageId::new(1, 1);
        let mut p = Page::new(id, PageSize::Half, PageType::Data);
        p.update_checksum();
        // read the bytes back under a different identity
        assert!(Page::from_bytes(PageId::new(1, 2), PageSize::Half, p.as_bytes().into()).is_err());
    }

    /// A full 4 KiB data page with a distinct byte in every payload
    /// position.
    fn full_page(id: PageId, lsn: Lsn, salt: u8) -> Page {
        let mut p = Page::new(id, PageSize::K4, PageType::Data);
        let payload: Vec<u8> =
            (0..PageSize::K4.payload()).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect();
        p.write_payload(&payload).unwrap();
        p.set_lsn(lsn);
        p.update_checksum();
        p
    }

    fn mismatch(id: PageId, bytes: Vec<u8>) -> bool {
        matches!(
            Page::from_bytes(id, PageSize::K4, bytes.into()),
            Err(StorageError::ChecksumMismatch(_))
        )
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let id = PageId::new(3, 77);
        let good = full_page(id, 0x0102_0304_0506, 0);
        assert_eq!(good.payload_len(), PageSize::K4.payload(), "every byte is checksummed");
        for byte in 0..PageSize::K4.bytes() {
            for bit in 0..8 {
                let mut bytes = good.as_bytes().to_vec();
                bytes[byte] ^= 1 << bit;
                assert!(mismatch(id, bytes), "flip of bit {bit} in byte {byte} undetected");
            }
        }
    }

    #[test]
    fn torn_write_is_detected() {
        let id = PageId::new(3, 77);
        let older = full_page(id, 10, 0x00);
        let newer = full_page(id, 11, 0x5A);
        for k in 1..8 {
            let mut torn = older.as_bytes().to_vec();
            torn[..k * 512].copy_from_slice(&newer.as_bytes()[..k * 512]);
            assert!(mismatch(id, torn), "newer image torn after {k} sectors undetected");
        }
    }

    /// Pins the on-disk page format: a changed hash makes existing
    /// database files unreadable, so it must show up here. One page runs
    /// only full 32-byte stripes, the other only a short tail.
    #[test]
    fn checksum_known_answer() {
        let p = full_page(PageId::new(3, 77), 0x0102_0304_0506, 0);
        assert_eq!(p.stored_checksum(), 0xEB8A_DAA4);
        let mut p = Page::new(PageId::new(2, 17), PageSize::Half, PageType::Data);
        p.write_payload(b"engineering objects").unwrap();
        p.update_checksum();
        assert_eq!(p.stored_checksum(), 0x9932_A5B0);
    }

    #[test]
    fn bytes_past_the_used_payload_are_unchecked() {
        let id = PageId::new(1, 1);
        let mut p = Page::new(id, PageSize::Half, PageType::Data);
        p.write_payload(b"abc").unwrap();
        p.update_checksum();
        let mut bytes = p.as_bytes().to_vec();
        bytes[PAGE_HEADER_LEN + 3] ^= 0xff;
        bytes[511] ^= 0x01;
        let q = Page::from_bytes(id, PageSize::Half, bytes.into()).unwrap();
        assert_eq!(q.payload(), b"abc");
    }

    /// A rotted payload-length field (here bit 7 of byte 13: 32 KiB more)
    /// is a checksum mismatch, not a slice panic in the hash.
    #[test]
    fn rotted_payload_length_is_a_mismatch() {
        let id = PageId::new(2, 5);
        let mut p = Page::new(id, PageSize::K4, PageType::Data);
        p.write_payload(b"engineering objects").unwrap();
        p.update_checksum();
        let mut bytes = p.as_bytes().to_vec();
        bytes[13] ^= 0x80;
        assert!(mismatch(id, bytes));
    }

    #[test]
    fn wrong_block_length_is_an_error() {
        let id = PageId::new(0, 0);
        let p = Page::new(id, PageSize::K1, PageType::Data);
        for len in [0, 512, 1023, 1025] {
            let mut bytes = p.as_bytes().to_vec();
            bytes.resize(len, 0);
            assert!(matches!(
                Page::from_bytes(id, PageSize::K1, bytes.into()),
                Err(StorageError::DeviceError(_))
            ));
        }
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut p = Page::new(PageId::new(0, 0), PageSize::Half, PageType::Data);
        let too_big = vec![0u8; 513];
        assert!(matches!(
            p.write_payload(&too_big),
            Err(StorageError::PayloadTooLarge { .. })
        ));
    }
}
