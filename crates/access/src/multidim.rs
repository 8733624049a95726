//! Multi-dimensional access paths (grid file).
//!
//! "Since we offer multi-dimensional access path structures, the effect of
//! key-sequential accesses needs some explanation. […] With n keys,
//! navigation has much more degrees of freedom. Therefore, start/stop
//! conditions and directions may be specified individually for every key
//! involved in the scan; hence, the user — the data system — determines
//! the selection path for elements in an n-dimensional space."
//! (Section 3.2.)
//!
//! [`GridFile`] implements the 1980s-canonical multi-dimensional
//! structure: per-dimension *scales* (split points) define a grid of
//! cells; a directory maps cells to *buckets* whose entries live as
//! physical records in a [`RecordFile`] (so bucket access is page I/O,
//! visible to the experiments). One simplification versus Nievergelt's
//! original: instead of incremental directory
//! splitting, the structure reorganises wholesale (equi-depth scales
//! recomputed from the data) when a bucket overflows — the query-side
//! behaviour (only overlapping buckets are read; per-key ranges and
//! directions) is identical.

use crate::error::AccessResult;
use crate::record_file::{RecordFile, RecordPtr};
use prima_mad::value::AtomId;
use prima_storage::{PageSize, StorageSystem};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

/// Per-dimension scan condition: start/stop bounds over the encoded key
/// space plus a direction — "specified individually for every key".
#[derive(Debug, Clone)]
pub struct DimRange {
    pub start: Bound<Vec<u8>>,
    pub stop: Bound<Vec<u8>>,
    pub descending: bool,
}

impl DimRange {
    /// Unrestricted ascending dimension.
    pub fn all() -> Self {
        DimRange { start: Bound::Unbounded, stop: Bound::Unbounded, descending: false }
    }

    /// Exact-match dimension.
    pub fn exact(key: Vec<u8>) -> Self {
        DimRange {
            start: Bound::Included(key.clone()),
            stop: Bound::Included(key),
            descending: false,
        }
    }

    pub fn descending(mut self) -> Self {
        self.descending = true;
        self
    }

    fn contains(&self, k: &[u8]) -> bool {
        let lower = match &self.start {
            Bound::Unbounded => true,
            Bound::Included(s) => k >= s.as_slice(),
            Bound::Excluded(s) => k > s.as_slice(),
        };
        let upper = match &self.stop {
            Bound::Unbounded => true,
            Bound::Included(e) => k <= e.as_slice(),
            Bound::Excluded(e) => k < e.as_slice(),
        };
        lower && upper
    }
}

/// One indexed entry: the encoded key per dimension plus the atom id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridEntry {
    pub keys: Vec<Vec<u8>>,
    pub id: AtomId,
}

impl GridEntry {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(self.keys.len() as u8);
        for k in &self.keys {
            out.extend_from_slice(&(k.len() as u16).to_le_bytes());
            out.extend_from_slice(k);
        }
        out.extend_from_slice(&self.id.atom_type.to_le_bytes());
        out.extend_from_slice(&self.id.seq.to_le_bytes());
        out
    }

    fn decode(buf: &[u8]) -> Option<GridEntry> {
        let dims = *buf.first()? as usize;
        let mut pos = 1;
        let mut keys = Vec::with_capacity(dims);
        for _ in 0..dims {
            let len = u16::from_le_bytes(buf.get(pos..pos + 2)?.try_into().ok()?) as usize;
            pos += 2;
            keys.push(buf.get(pos..pos + len)?.to_vec());
            pos += len;
        }
        let t = u16::from_le_bytes(buf.get(pos..pos + 2)?.try_into().ok()?);
        let s = u64::from_le_bytes(buf.get(pos + 2..pos + 10)?.try_into().ok()?);
        Some(GridEntry { keys, id: AtomId::new(t, s) })
    }
}

/// Soft bucket capacity; overflow beyond [`REBUILD_FACTOR`]× triggers
/// reorganisation.
const BUCKET_CAP: usize = 64;
const REBUILD_FACTOR: usize = 2;

type Cell = Vec<u16>;

/// A grid file over `dims` key dimensions.
pub struct GridFile {
    dims: usize,
    /// Split points per dimension, sorted ascending.
    scales: Vec<Vec<Vec<u8>>>,
    /// Cell coordinates -> bucket id.
    directory: HashMap<Cell, u32>,
    /// Bucket id -> record pointers of its entries.
    buckets: HashMap<u32, Vec<RecordPtr>>,
    file: RecordFile,
    next_bucket: u32,
    count: usize,
}

impl GridFile {
    /// Creates an empty grid file with `dims` dimensions over a fresh
    /// segment.
    pub fn create(storage: Arc<StorageSystem>, dims: usize) -> AccessResult<GridFile> {
        assert!(dims >= 1, "grid file needs at least one dimension");
        let file = RecordFile::create_with(storage, PageSize::K2, false)?;
        let mut g = GridFile {
            dims,
            scales: vec![Vec::new(); dims],
            directory: HashMap::new(),
            buckets: HashMap::new(),
            file,
            next_bucket: 1,
            count: 0,
        };
        g.directory.insert(vec![0; dims], 0);
        g.buckets.insert(0, Vec::new());
        Ok(g)
    }

    pub fn dims(&self) -> usize {
        self.dims
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of buckets (diagnostic: grows with the data).
    #[cfg(test)]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn cell_of(&self, keys: &[Vec<u8>]) -> Cell {
        keys.iter()
            .zip(&self.scales)
            .map(|(k, scale)| scale.partition_point(|s| s.as_slice() <= k.as_slice()) as u16)
            .collect()
    }

    /// Inserts an entry.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    pub fn insert(&mut self, keys: Vec<Vec<u8>>, id: AtomId) -> AccessResult<()> {
        assert_eq!(keys.len(), self.dims, "key arity must match dimensions");
        let entry = GridEntry { keys, id };
        let cell = self.cell_of(&entry.keys);
        // lint: allow(error-hygiene, extendible-hash invariant: the directory covers every cell mask, maintained by split/grow)
        let bucket = *self.directory.get(&cell).expect("directory covers all cells");
        let ptr = self.file.insert(&entry.encode())?;
        // lint: allow(error-hygiene, directory entries only ever point at live buckets)
        let b = self.buckets.get_mut(&bucket).expect("bucket exists");
        b.push(ptr);
        self.count += 1;
        if b.len() > BUCKET_CAP * REBUILD_FACTOR {
            self.rebuild()?;
        }
        Ok(())
    }

    /// Removes an entry (exact keys + id). Returns whether it existed.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    pub fn remove(&mut self, keys: &[Vec<u8>], id: AtomId) -> AccessResult<bool> {
        let cell = self.cell_of(keys);
        let Some(&bucket) = self.directory.get(&cell) else { return Ok(false) };
        // lint: allow(error-hygiene, directory entries only ever point at live buckets)
        let ptrs = self.buckets.get_mut(&bucket).expect("bucket exists");
        for (i, &ptr) in ptrs.iter().enumerate() {
            let bytes = self.file.read(ptr)?;
            if let Some(e) = GridEntry::decode(&bytes) {
                if e.id == id && e.keys == keys {
                    self.file.delete(ptr)?;
                    ptrs.remove(i);
                    self.count -= 1;
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// n-dimensional range search with per-key bounds and directions.
    /// Results are ordered by dimension priority (`ranges[0]` outermost),
    /// each dimension in its requested direction. Only buckets whose cell
    /// region overlaps every range are read.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    pub fn search(&self, ranges: &[DimRange]) -> AccessResult<Vec<GridEntry>> {
        assert_eq!(ranges.len(), self.dims, "one range per dimension");
        let mut seen_buckets = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (cell, &bucket) in &self.directory {
            let overlaps = cell
                .iter()
                .zip(ranges)
                .zip(&self.scales)
                .all(|((&ci, r), scale)| interval_overlaps(scale, ci, r));
            if !overlaps || !seen_buckets.insert(bucket) {
                continue;
            }
            // lint: allow(error-hygiene, directory entries only ever point at live buckets)
            let ptrs = self.buckets.get(&bucket).expect("bucket exists");
            for &ptr in ptrs {
                let bytes = self.file.read(ptr)?;
                if let Some(e) = GridEntry::decode(&bytes) {
                    if e.keys.iter().zip(ranges).all(|(k, r)| r.contains(k)) {
                        out.push(e);
                    }
                }
            }
        }
        out.sort_by(|a, b| {
            for (d, r) in ranges.iter().enumerate() {
                let c = a.keys[d].cmp(&b.keys[d]);
                let c = if r.descending { c.reverse() } else { c };
                if c != std::cmp::Ordering::Equal {
                    return c;
                }
            }
            a.id.cmp(&b.id)
        });
        Ok(out)
    }

    /// Reorganisation: recompute equi-depth scales from the data and
    /// redistribute entries 1:1 cell→bucket.
    fn rebuild(&mut self) -> AccessResult<()> {
        // Gather all entries.
        let mut entries = Vec::with_capacity(self.count);
        for ptrs in self.buckets.values() {
            for &ptr in ptrs {
                let bytes = self.file.read(ptr)?;
                if let Some(e) = GridEntry::decode(&bytes) {
                    entries.push(e);
                }
            }
        }
        // Choose splits per dimension: total buckets ≈ count / CAP spread
        // evenly over dimensions.
        let target_buckets = (entries.len() / BUCKET_CAP).max(1);
        let splits_per_dim =
            ((target_buckets as f64).powf(1.0 / self.dims as f64).ceil() as usize).max(1);
        for d in 0..self.dims {
            let mut keys: Vec<&[u8]> = entries.iter().map(|e| e.keys[d].as_slice()).collect();
            keys.sort_unstable();
            keys.dedup();
            let mut scale = Vec::new();
            if keys.len() > 1 {
                for i in 1..=splits_per_dim.min(keys.len() - 1) {
                    let idx = (i * keys.len() / (splits_per_dim + 1)).clamp(1, keys.len() - 1);
                    let split = keys[idx].to_vec();
                    if scale.last() != Some(&split) {
                        scale.push(split);
                    }
                }
            }
            self.scales[d] = scale;
        }
        // Rebuild directory/buckets and rewrite the file.
        self.file.clear()?;
        self.directory.clear();
        self.buckets.clear();
        self.next_bucket = 0;
        for e in entries {
            let cell = self.cell_of(&e.keys);
            let bucket = *self.directory.entry(cell).or_insert_with(|| {
                let b = self.next_bucket;
                self.next_bucket += 1;
                b
            });
            let ptr = self.file.insert(&e.encode())?;
            self.buckets.entry(bucket).or_default().push(ptr);
        }
        self.ensure_full_directory();
        Ok(())
    }

    /// Makes sure every cell of the grid has a bucket (cells without data
    /// map to fresh empty buckets), so inserts always find their cell.
    fn ensure_full_directory(&mut self) {
        let dims: Vec<usize> = self.scales.iter().map(|s| s.len() + 1).collect();
        let mut cell = vec![0u16; self.dims];
        loop {
            if !self.directory.contains_key(&cell) {
                let b = self.next_bucket;
                self.next_bucket += 1;
                self.directory.insert(cell.clone(), b);
                self.buckets.insert(b, Vec::new());
            }
            // Odometer increment over all cells.
            let mut d = 0;
            loop {
                if d == self.dims {
                    return;
                }
                cell[d] += 1;
                if (cell[d] as usize) < dims[d] {
                    break;
                }
                cell[d] = 0;
                d += 1;
            }
        }
    }
}

/// Does scale interval `ci` of `scale` overlap the range `r`?
/// Interval `ci` covers keys in `[scale[ci-1], scale[ci])` (unbounded at
/// the edges).
fn interval_overlaps(scale: &[Vec<u8>], ci: u16, r: &DimRange) -> bool {
    let ci = ci as usize;
    let lo: Option<&[u8]> = if ci == 0 { None } else { Some(&scale[ci - 1]) };
    let hi: Option<&[u8]> = scale.get(ci).map(std::vec::Vec::as_slice);
    // Range entirely below the interval?
    match (&r.stop, lo) {
        (Bound::Included(e), Some(lo)) if e.as_slice() < lo => return false,
        (Bound::Excluded(e), Some(lo)) if e.as_slice() <= lo => return false,
        _ => {}
    }
    // Range entirely above the interval? (hi is exclusive)
    match (&r.start, hi) {
        (Bound::Included(s), Some(hi)) if s.as_slice() >= hi => return false,
        (Bound::Excluded(s), Some(hi)) if s.as_slice() >= hi => return false,
        _ => {}
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_mad::codec::encode_composite_key;
    use prima_mad::value::Value;

    fn key(i: i64) -> Vec<u8> {
        encode_composite_key(&[Value::Int(i)])
    }

    fn grid(dims: usize) -> GridFile {
        let storage = Arc::new(StorageSystem::in_memory(8 << 20));
        GridFile::create(storage, dims).unwrap()
    }

    #[test]
    fn insert_and_exact_search_2d() {
        let mut g = grid(2);
        for x in 0..10i64 {
            for y in 0..10i64 {
                g.insert(vec![key(x), key(y)], AtomId::new(0, (x * 10 + y) as u64)).unwrap();
            }
        }
        assert_eq!(g.len(), 100);
        let hits = g.search(&[DimRange::exact(key(3)), DimRange::exact(key(7))]).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, AtomId::new(0, 37));
    }

    #[test]
    fn range_search_respects_both_dimensions() {
        let mut g = grid(2);
        for x in 0..20i64 {
            for y in 0..20i64 {
                g.insert(vec![key(x), key(y)], AtomId::new(0, (x * 100 + y) as u64)).unwrap();
            }
        }
        let r = |a: i64, b: i64| DimRange {
            start: Bound::Included(key(a)),
            stop: Bound::Excluded(key(b)),
            descending: false,
        };
        let hits = g.search(&[r(5, 10), r(0, 3)]).unwrap();
        assert_eq!(hits.len(), 5 * 3);
        for h in &hits {
            let x = h.id.seq / 100;
            let y = h.id.seq % 100;
            assert!((5..10).contains(&x) && y < 3, "unexpected hit {x},{y}");
        }
    }

    #[test]
    fn ordering_with_mixed_directions() {
        let mut g = grid(2);
        for x in 0..4i64 {
            for y in 0..4i64 {
                g.insert(vec![key(x), key(y)], AtomId::new(0, (x * 10 + y) as u64)).unwrap();
            }
        }
        let hits = g.search(&[DimRange::all(), DimRange::all().descending()]).unwrap();
        // dim0 ascending, dim1 descending.
        let seqs: Vec<u64> = hits.iter().map(|e| e.id.seq).collect();
        assert_eq!(&seqs[0..4], &[3, 2, 1, 0]);
        assert_eq!(&seqs[4..8], &[13, 12, 11, 10]);
    }

    #[test]
    fn overflow_triggers_rebuild_with_more_buckets() {
        let mut g = grid(1);
        for i in 0..1000i64 {
            g.insert(vec![key(i)], AtomId::new(0, i as u64)).unwrap();
        }
        assert!(g.bucket_count() > 4, "got {} buckets", g.bucket_count());
        assert_eq!(g.len(), 1000);
        let hits = g
            .search(&[DimRange {
                start: Bound::Included(key(990)),
                stop: Bound::Unbounded,
                descending: false,
            }])
            .unwrap();
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn remove_entries() {
        let mut g = grid(2);
        g.insert(vec![key(1), key(2)], AtomId::new(0, 12)).unwrap();
        g.insert(vec![key(1), key(3)], AtomId::new(0, 13)).unwrap();
        assert!(g.remove(&[key(1), key(2)], AtomId::new(0, 12)).unwrap());
        assert!(!g.remove(&[key(1), key(2)], AtomId::new(0, 12)).unwrap());
        assert_eq!(g.len(), 1);
        let hits = g.search(&[DimRange::all(), DimRange::all()]).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, AtomId::new(0, 13));
    }

    #[test]
    fn search_after_rebuild_is_complete() {
        let mut g = grid(2);
        let n = 600i64;
        for i in 0..n {
            g.insert(vec![key(i % 30), key(i / 30)], AtomId::new(0, i as u64)).unwrap();
        }
        let all = g.search(&[DimRange::all(), DimRange::all()]).unwrap();
        assert_eq!(all.len(), n as usize);
    }

    #[test]
    fn search_prunes_buckets() {
        let mut g = grid(1);
        for i in 0..2000i64 {
            g.insert(vec![key(i)], AtomId::new(0, i as u64)).unwrap();
        }
        // A narrow range must not touch most buckets: measure via I/O.
        // (Bucket pruning is observable through the storage stats in the
        // integration benches; here we check correctness only.)
        let hits = g
            .search(&[DimRange {
                start: Bound::Included(key(100)),
                stop: Bound::Included(key(105)),
                descending: false,
            }])
            .unwrap();
        assert_eq!(hits.len(), 6);
        assert_eq!(hits[0].id.seq, 100);
        assert_eq!(hits[5].id.seq, 105);
    }

    #[test]
    fn three_dimensions() {
        let mut g = grid(3);
        for i in 0..5i64 {
            g.insert(vec![key(i), key(i * 2), key(i * 3)], AtomId::new(0, i as u64)).unwrap();
        }
        let hits = g
            .search(&[DimRange::exact(key(2)), DimRange::all(), DimRange::all()])
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id.seq, 2);
    }
}
