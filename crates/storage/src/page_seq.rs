//! Page sequences: arbitrary-length containers (Section 3.3, Fig. 3.2c).
//!
//! "The five page sizes, however, do not meet the most important
//! requirement of the access system concerning containers of arbitrary
//! length. […] Therefore, the storage system offers at its interface page
//! sequences as additional containers. A page sequence treats an arbitrary
//! number of pages as a whole. One of these pages is the so-called header
//! page, all others are component pages. The header page contains the
//! usual page header […] and a page sequence header, i.e. a list of all
//! pages belonging to the appropriate page sequence. A page sequence is
//! supported by a cluster mechanism of the underlying file manager enabling
//! an optimal transfer of the whole page sequence, e.g. by chained I/O."
//!
//! Two access styles are offered, mirroring the paper:
//! * [`PageSequence::read_all`] — the whole sequence in one chained run
//!   (molecule materialisation);
//! * [`PageSequence::read_relative`] — *relative addressing* within the
//!   sequence: fetch only the component pages covering a byte range,
//!   "achieving faster access to single atoms of the atom cluster".

use crate::bytes::le_u32;
use crate::error::{StorageError, StorageResult};
use crate::page::{PageId, PageType};
use crate::segment::{SegmentId, StorageSystem};

/// Handle to a page sequence: the identity of its header page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageSeqHandle {
    pub header: PageId,
}

/// Page-sequence operations over a [`StorageSystem`].
///
/// Layout of the header page payload:
/// ```text
/// 0..4   total data length (bytes across all component pages)
/// 4..8   component count n
/// 8..    n little-endian u32 component page numbers (same segment)
/// ```
/// Component pages carry raw data in their payload and link back to the
/// header via the page-header sequence fields.
pub struct PageSequence;

impl PageSequence {
    /// Maximum number of component pages a sequence in this segment can
    /// index (limited by the header page's payload).
    pub fn max_components(storage: &StorageSystem, segment: SegmentId) -> StorageResult<usize> {
        let size = storage.page_size(segment)?;
        Ok((size.payload() - 8) / 4)
    }

    /// Creates a page sequence holding `data`, allocated as one contiguous
    /// run (header first, then components) so chained I/O applies.
    pub fn create(
        storage: &StorageSystem,
        segment: SegmentId,
        data: &[u8],
    ) -> StorageResult<PageSeqHandle> {
        let size = storage.page_size(segment)?;
        let per_page = size.payload();
        let n_components = data.len().div_ceil(per_page).max(1) as u32;
        let max = Self::max_components(storage, segment)?;
        if n_components as usize > max {
            // We cannot know the header id before allocating; report with a
            // placeholder page number.
            return Err(StorageError::SequenceFull {
                header: PageId::new(segment, u32::MAX).desc(),
                capacity: max,
            });
        }
        let first = storage.allocate_run(segment, n_components + 1)?;
        let header_id = first;
        // Write components.
        for i in 0..n_components {
            let comp_id = PageId::new(segment, first.page + 1 + i);
            let mut g = storage.fix_new(comp_id, PageType::SeqComponent)?;
            let start = i as usize * per_page;
            let end = (start + per_page).min(data.len());
            g.write_payload(&data[start..end.max(start)])?;
            g.set_seq_link(Some(header_id.page), i + 1);
        }
        // Write header.
        {
            let mut g = storage.fix_new(header_id, PageType::SeqHeader)?;
            let mut payload = Vec::with_capacity(8 + n_components as usize * 4);
            payload.extend_from_slice(&(data.len() as u32).to_le_bytes());
            payload.extend_from_slice(&n_components.to_le_bytes());
            for i in 0..n_components {
                payload.extend_from_slice(&(first.page + 1 + i).to_le_bytes());
            }
            g.write_payload(&payload)?;
            g.set_seq_link(Some(header_id.page), 0);
        }
        Ok(PageSeqHandle { header: header_id })
    }

    /// Parses the header page: `(total_len, component page numbers)`.
    fn read_header(
        storage: &StorageSystem,
        handle: PageSeqHandle,
    ) -> StorageResult<(usize, Vec<u32>)> {
        let g = storage.fix(handle.header)?;
        if g.page_type() != PageType::SeqHeader {
            return Err(StorageError::WrongPageType {
                expected: "seq-header",
                found: g.page_type() as u8,
            });
        }
        let p = g.payload();
        let total = le_u32(&p[0..4]) as usize;
        let n = le_u32(&p[4..8]) as usize;
        let mut comps = Vec::with_capacity(n);
        for i in 0..n {
            comps.push(le_u32(&p[8 + i * 4..12 + i * 4]));
        }
        Ok((total, comps))
    }

    /// Total data length stored in the sequence.
    pub fn len(storage: &StorageSystem, handle: PageSeqHandle) -> StorageResult<usize> {
        Ok(Self::read_header(storage, handle)?.0)
    }

    /// Number of component pages.
    pub fn component_count(storage: &StorageSystem, handle: PageSeqHandle) -> StorageResult<usize> {
        Ok(Self::read_header(storage, handle)?.1.len())
    }

    /// Whether the components (plus header) are physically contiguous, and
    /// thus eligible for chained I/O.
    pub fn is_contiguous(storage: &StorageSystem, handle: PageSeqHandle) -> StorageResult<bool> {
        let (_, comps) = Self::read_header(storage, handle)?;
        Ok(comps
            .iter()
            .enumerate()
            .all(|(i, &p)| p == handle.header.page + 1 + i as u32))
    }

    /// Reads the entire sequence. If the pages are contiguous this is one
    /// chained run (header + components); otherwise it degrades to per-page
    /// buffered reads.
    pub fn read_all(storage: &StorageSystem, handle: PageSeqHandle) -> StorageResult<Vec<u8>> {
        let (total, comps) = Self::read_header(storage, handle)?;
        let mut out = Vec::with_capacity(total);
        if Self::is_contiguous(storage, handle)? {
            let pages = storage.read_run_chained(handle.header, comps.len() as u32 + 1)?;
            for page in pages.iter().skip(1) {
                out.extend_from_slice(page.payload());
            }
        } else {
            for &c in &comps {
                let g = storage.fix(PageId::new(handle.header.segment, c))?;
                out.extend_from_slice(g.payload());
            }
        }
        out.truncate(total);
        Ok(out)
    }

    /// Relative addressing: reads `len` bytes starting at byte `offset` of
    /// the sequence, touching only the covering component pages through the
    /// buffer.
    pub fn read_relative(
        storage: &StorageSystem,
        handle: PageSeqHandle,
        offset: usize,
        len: usize,
    ) -> StorageResult<Vec<u8>> {
        let (total, comps) = Self::read_header(storage, handle)?;
        let end = (offset + len).min(total);
        if offset >= end {
            return Ok(Vec::new());
        }
        let per_page = storage.page_size(handle.header.segment)?.payload();
        let mut out = Vec::with_capacity(end - offset);
        let first_page = offset / per_page;
        let last_page = (end - 1) / per_page;
        for pidx in first_page..=last_page {
            let comp = *comps.get(pidx).ok_or(StorageError::NotInSequence {
                header: handle.header.desc(),
                page: pidx as u32,
            })?;
            let g = storage.fix(PageId::new(handle.header.segment, comp))?;
            let page_start = pidx * per_page;
            let s = offset.max(page_start) - page_start;
            let e = end.min(page_start + per_page) - page_start;
            out.extend_from_slice(&g.payload()[s..e]);
        }
        Ok(out)
    }

    /// Replaces the sequence's contents. Reuses existing component pages;
    /// allocates additional ones (possibly non-contiguous — the price of
    /// growth) or frees surplus ones.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    pub fn overwrite(
        storage: &StorageSystem,
        handle: PageSeqHandle,
        data: &[u8],
    ) -> StorageResult<()> {
        let (_, mut comps) = Self::read_header(storage, handle)?;
        let seg = handle.header.segment;
        let per_page = storage.page_size(seg)?.payload();
        let needed = data.len().div_ceil(per_page).max(1);
        let max = Self::max_components(storage, seg)?;
        if needed > max {
            return Err(StorageError::SequenceFull { header: handle.header.desc(), capacity: max });
        }
        // Shrink: free surplus pages.
        while comps.len() > needed {
            // lint: allow(error-hygiene, the chain walk pushed at least the head component)
            let p = comps.pop().unwrap();
            storage.free_page(PageId::new(seg, p))?;
        }
        // Grow: allocate more (wherever the segment has room).
        while comps.len() < needed {
            let id = storage.allocate_page(seg)?;
            comps.push(id.page);
        }
        for (i, &c) in comps.iter().enumerate() {
            let comp_id = PageId::new(seg, c);
            // fix_new is correct even for re-used pages: content is replaced.
            let mut g = storage.fix_new(comp_id, PageType::SeqComponent)?;
            let start = i * per_page;
            let end = (start + per_page).min(data.len());
            g.write_payload(&data[start.min(data.len())..end])?;
            g.set_seq_link(Some(handle.header.page), i as u32 + 1);
        }
        // Rewrite header.
        let mut g = storage.fix_mut(handle.header)?;
        let mut payload = Vec::with_capacity(8 + comps.len() * 4);
        payload.extend_from_slice(&(data.len() as u32).to_le_bytes());
        payload.extend_from_slice(&(comps.len() as u32).to_le_bytes());
        for &c in &comps {
            payload.extend_from_slice(&c.to_le_bytes());
        }
        g.write_payload(&payload)?;
        Ok(())
    }

    /// Deletes the sequence, freeing header and component pages.
    pub fn delete(storage: &StorageSystem, handle: PageSeqHandle) -> StorageResult<()> {
        let (_, comps) = Self::read_header(storage, handle)?;
        for c in comps {
            storage.free_page(PageId::new(handle.header.segment, c))?;
        }
        storage.free_page(handle.header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageSize;

    fn sys() -> StorageSystem {
        StorageSystem::in_memory(256 * 1024)
    }

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn round_trip_small() {
        let s = sys();
        let seg = s.create_segment(PageSize::Half).unwrap();
        let d = data(100);
        let h = PageSequence::create(&s, seg, &d).unwrap();
        assert_eq!(PageSequence::read_all(&s, h).unwrap(), d);
        assert_eq!(PageSequence::len(&s, h).unwrap(), 100);
        assert_eq!(PageSequence::component_count(&s, h).unwrap(), 1);
    }

    #[test]
    fn round_trip_multi_page() {
        let s = sys();
        let seg = s.create_segment(PageSize::Half).unwrap();
        let d = data(5000); // ~11 half-K pages
        let h = PageSequence::create(&s, seg, &d).unwrap();
        assert_eq!(PageSequence::read_all(&s, h).unwrap(), d);
        assert!(PageSequence::component_count(&s, h).unwrap() > 5);
        assert!(PageSequence::is_contiguous(&s, h).unwrap());
    }

    #[test]
    fn whole_sequence_read_is_one_chained_run() {
        let s = sys();
        let seg = s.create_segment(PageSize::K1).unwrap();
        let d = data(10_000);
        let h = PageSequence::create(&s, seg, &d).unwrap();
        s.flush().unwrap();
        let before = s.io_stats().snapshot();
        let _ = PageSequence::read_all(&s, h).unwrap();
        let io = s.io_stats().snapshot().since(&before);
        assert_eq!(io.chained_runs, 1, "whole-sequence read must be chained");
        assert!(io.seeks <= 2);
    }

    #[test]
    fn relative_addressing_touches_few_pages() {
        let s = sys();
        let seg = s.create_segment(PageSize::Half).unwrap();
        let d = data(20_000);
        let h = PageSequence::create(&s, seg, &d).unwrap();
        s.flush().unwrap();
        let before = s.io_stats().snapshot();
        let slice = PageSequence::read_relative(&s, h, 10_000, 100).unwrap();
        assert_eq!(slice, &d[10_000..10_100]);
        let io = s.io_stats().snapshot().since(&before);
        // header + at most 2 component pages
        assert!(io.block_reads <= 3, "read {} blocks", io.block_reads);
    }

    #[test]
    fn relative_read_across_page_boundary() {
        let s = sys();
        let seg = s.create_segment(PageSize::Half).unwrap();
        let per = PageSize::Half.payload();
        let d = data(3 * per);
        let h = PageSequence::create(&s, seg, &d).unwrap();
        let slice = PageSequence::read_relative(&s, h, per - 10, 20).unwrap();
        assert_eq!(slice, &d[per - 10..per + 10]);
    }

    #[test]
    fn relative_read_clamps_at_end() {
        let s = sys();
        let seg = s.create_segment(PageSize::Half).unwrap();
        let d = data(100);
        let h = PageSequence::create(&s, seg, &d).unwrap();
        let slice = PageSequence::read_relative(&s, h, 90, 50).unwrap();
        assert_eq!(slice, &d[90..100]);
        assert!(PageSequence::read_relative(&s, h, 200, 10).unwrap().is_empty());
    }

    #[test]
    fn overwrite_grow_and_shrink() {
        let s = sys();
        let seg = s.create_segment(PageSize::Half).unwrap();
        let h = PageSequence::create(&s, seg, &data(100)).unwrap();
        let big = data(4000);
        PageSequence::overwrite(&s, h, &big).unwrap();
        assert_eq!(PageSequence::read_all(&s, h).unwrap(), big);
        let small = data(10);
        PageSequence::overwrite(&s, h, &small).unwrap();
        assert_eq!(PageSequence::read_all(&s, h).unwrap(), small);
        assert_eq!(PageSequence::component_count(&s, h).unwrap(), 1);
    }

    #[test]
    fn delete_frees_pages() {
        let s = sys();
        let seg = s.create_segment(PageSize::Half).unwrap();
        let h = PageSequence::create(&s, seg, &data(2000)).unwrap();
        let before = s.with_segment(seg, super::super::segment::Segment::allocated_pages).unwrap();
        PageSequence::delete(&s, h).unwrap();
        let after = s.with_segment(seg, super::super::segment::Segment::allocated_pages).unwrap();
        assert!(after < before);
        // Freed pages get reused by the next sequence.
        let h2 = PageSequence::create(&s, seg, &data(500)).unwrap();
        assert_eq!(PageSequence::read_all(&s, h2).unwrap(), data(500));
    }

    #[test]
    fn empty_sequence_is_valid() {
        let s = sys();
        let seg = s.create_segment(PageSize::Half).unwrap();
        let h = PageSequence::create(&s, seg, &[]).unwrap();
        assert_eq!(PageSequence::read_all(&s, h).unwrap(), Vec::<u8>::new());
        assert_eq!(PageSequence::component_count(&s, h).unwrap(), 1);
    }

    #[test]
    fn oversized_sequence_rejected() {
        let s = sys();
        let seg = s.create_segment(PageSize::Half).unwrap();
        let max = PageSequence::max_components(&s, seg).unwrap();
        let too_big = vec![0u8; (max + 1) * PageSize::Half.payload()];
        assert!(matches!(
            PageSequence::create(&s, seg, &too_big),
            Err(StorageError::SequenceFull { .. })
        ));
    }

    #[test]
    fn wrong_page_type_detected() {
        let s = sys();
        let seg = s.create_segment(PageSize::Half).unwrap();
        let id = s.allocate_page(seg).unwrap();
        let _ = s.fix_new(id, PageType::Data).unwrap();
        let err = PageSequence::read_all(&s, PageSeqHandle { header: id }).unwrap_err();
        assert!(matches!(err, StorageError::WrongPageType { .. }));
    }
}
