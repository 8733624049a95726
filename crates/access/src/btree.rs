//! B*-tree access paths.
//!
//! "A main usage of scans is on access paths where start and stop
//! conditions conveniently provide access to value ranges and where value
//! orders may be exploited for free. … Linear orders based on B*-trees
//! only allow sequential NEXT/PRIOR traversal." (Section 3.2.)
//!
//! This is a page-based B+/B*-tree over one segment of the storage
//! system:
//!
//! * keys are **memcomparable byte strings** produced by
//!   [`prima_mad::codec::encode_key`] /
//!   [`prima_mad::codec::encode_composite_key`], so one tree serves any
//!   key attribute combination;
//! * leaves map keys to lists of [`AtomId`]s (non-unique indexes); heavy
//!   duplicate keys overflow into sibling entries with the same key;
//! * leaves are doubly linked for NEXT **and** PRIOR traversal;
//! * deletion is lazy (entries shrink and empty entries disappear, nodes
//!   are not merged) — the classical prototype trade-off; a `rebuild`
//!   compacts when needed.

use crate::error::{AccessError, AccessResult};
use parking_lot::{rank, Mutex};
use prima_mad::value::AtomId;
use prima_storage::bytes::{le_u16, le_u32, le_u64};
use prima_storage::{PageId, PageSize, PageType, SegmentId, StorageSystem};
use std::ops::Bound;
use std::sync::Arc;

const NONE_PAGE: u32 = u32::MAX;
/// Cap on ids per leaf entry before duplicates overflow into a fresh
/// entry with the same key.
const MAX_IDS_PER_ENTRY: usize = 96;

/// In-memory image of one node page.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        prev: u32,
        next: u32,
        /// Sorted by key; equal keys may repeat (duplicate overflow).
        entries: Vec<(Vec<u8>, Vec<AtomId>)>,
    },
    Internal {
        /// Child for keys below the first separator.
        child0: u32,
        /// `(separator, child)`: child holds keys >= separator.
        entries: Vec<(Vec<u8>, u32)>,
    },
}

impl Node {
    fn serialized_len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                11 + entries
                    .iter()
                    .map(|(k, ids)| 2 + k.len() + 2 + ids.len() * 10)
                    .sum::<usize>()
            }
            Node::Internal { entries, .. } => {
                7 + entries.iter().map(|(k, _)| 2 + k.len() + 4).sum::<usize>()
            }
        }
    }

    fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        match self {
            Node::Leaf { prev, next, entries } => {
                out.push(1);
                out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                out.extend_from_slice(&next.to_le_bytes());
                out.extend_from_slice(&prev.to_le_bytes());
                for (k, ids) in entries {
                    out.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    out.extend_from_slice(k);
                    out.extend_from_slice(&(ids.len() as u16).to_le_bytes());
                    for id in ids {
                        out.extend_from_slice(&id.atom_type.to_le_bytes());
                        out.extend_from_slice(&id.seq.to_le_bytes());
                    }
                }
            }
            Node::Internal { child0, entries } => {
                out.push(0);
                out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                out.extend_from_slice(&child0.to_le_bytes());
                for (k, c) in entries {
                    out.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    out.extend_from_slice(k);
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
        out
    }

    fn deserialize(buf: &[u8]) -> AccessResult<Node> {
        let err = || AccessError::Codec(prima_mad::codec::CodecError::Truncated);
        let is_leaf = *buf.first().ok_or_else(err)? == 1;
        let n = u16::from_le_bytes([buf[1], buf[2]]) as usize;
        let mut pos;
        if is_leaf {
            let next = le_u32(&buf[3..7]);
            let prev = le_u32(&buf[7..11]);
            pos = 11;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let klen =
                    le_u16(buf.get(pos..pos + 2).ok_or_else(err)?)
                        as usize;
                pos += 2;
                let key = buf.get(pos..pos + klen).ok_or_else(err)?.to_vec();
                pos += klen;
                let cnt =
                    le_u16(buf.get(pos..pos + 2).ok_or_else(err)?)
                        as usize;
                pos += 2;
                let mut ids = Vec::with_capacity(cnt);
                for _ in 0..cnt {
                    let t = le_u16(buf.get(pos..pos + 2).ok_or_else(err)?);
                    let s = le_u64(buf.get(pos + 2..pos + 10).ok_or_else(err)?);
                    ids.push(AtomId::new(t, s));
                    pos += 10;
                }
                entries.push((key, ids));
            }
            Ok(Node::Leaf { prev, next, entries })
        } else {
            let child0 = le_u32(&buf[3..7]);
            pos = 7;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let klen =
                    le_u16(buf.get(pos..pos + 2).ok_or_else(err)?)
                        as usize;
                pos += 2;
                let key = buf.get(pos..pos + klen).ok_or_else(err)?.to_vec();
                pos += klen;
                let c =
                    le_u32(buf.get(pos..pos + 4).ok_or_else(err)?);
                pos += 4;
                entries.push((key, c));
            }
            Ok(Node::Internal { child0, entries })
        }
    }
}

/// A page-based B*-tree mapping encoded keys to atom-id lists.
pub struct BTree {
    storage: Arc<StorageSystem>,
    segment: SegmentId,
    // lockrank: access.2 — root page number; held across splits that grow
    // a new root (which fix buffer pages: access < buffer).
    root: Mutex<u32>,
    payload_cap: usize,
}

impl BTree {
    /// Creates an empty tree in a fresh segment (4K pages: the classical
    /// index page size).
    pub fn create(storage: Arc<StorageSystem>) -> AccessResult<BTree> {
        let segment = storage.create_segment(PageSize::K4, false)?;
        let payload_cap = PageSize::K4.payload();
        let root_id = storage.allocate_page(segment)?;
        let tree = BTree { storage, segment, root: Mutex::new_ranked(root_id.page, rank::ACCESS + 2), payload_cap };
        tree.write_node(
            root_id.page,
            &Node::Leaf { prev: NONE_PAGE, next: NONE_PAGE, entries: Vec::new() },
        )?;
        Ok(tree)
    }

    pub fn segment(&self) -> SegmentId {
        self.segment
    }

    fn read_node(&self, page: u32) -> AccessResult<Node> {
        let g = self.storage.fix(PageId::new(self.segment, page))?;
        Node::deserialize(g.payload())
    }

    fn write_node(&self, page: u32, node: &Node) -> AccessResult<()> {
        let bytes = node.serialize();
        let mut g = self.storage.fix_mut(PageId::new(self.segment, page))?;
        if g.page_type() != PageType::AccessPath {
            g.set_page_type(PageType::AccessPath);
        }
        g.write_payload(&bytes)?;
        Ok(())
    }

    /// Inserts `(key, id)`. Duplicate keys accumulate ids; the same
    /// `(key, id)` pair is stored once.
    pub fn insert(&self, key: &[u8], id: AtomId) -> AccessResult<()> {
        let root = *self.root.lock();
        match self.insert_rec(root, key, id)? {
            None => Ok(()),
            Some((sep, right)) => {
                // Root split: new internal root.
                let new_root = self.storage.allocate_page(self.segment)?;
                self.write_node(
                    new_root.page,
                    &Node::Internal { child0: root, entries: vec![(sep, right)] },
                )?;
                *self.root.lock() = new_root.page;
                Ok(())
            }
        }
    }

    /// Recursive insert; returns `Some((separator, new_right_page))` when
    /// the child split.
    fn insert_rec(
        &self,
        page: u32,
        key: &[u8],
        id: AtomId,
    ) -> AccessResult<Option<(Vec<u8>, u32)>> {
        let mut node = self.read_node(page)?;
        match &mut node {
            Node::Leaf { entries, .. } => {
                // Find insertion point among possibly duplicated keys: the
                // LAST entry with this key (so overflow entries fill up in
                // order).
                let lb = entries.partition_point(|(k, _)| k.as_slice() < key);
                let ub = entries.partition_point(|(k, _)| k.as_slice() <= key);
                let mut placed = false;
                for e in &mut entries[lb..ub] {
                    if e.1.contains(&id) {
                        placed = true;
                        break;
                    }
                    if e.1.len() < MAX_IDS_PER_ENTRY {
                        e.1.push(id);
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    entries.insert(ub, (key.to_vec(), vec![id]));
                }
                self.finish_write(page, node)
            }
            Node::Internal { child0, entries } => {
                let idx = entries.partition_point(|(k, _)| k.as_slice() <= key);
                let child = if idx == 0 { *child0 } else { entries[idx - 1].1 };
                if let Some((sep, right)) = self.insert_rec(child, key, id)? {
                    let pos = entries.partition_point(|(k, _)| k.as_slice() <= sep.as_slice());
                    entries.insert(pos, (sep, right));
                    return self.finish_write(page, node);
                }
                Ok(None)
            }
        }
    }

    /// Writes the node back, splitting first if it no longer fits.
    fn finish_write(&self, page: u32, node: Node) -> AccessResult<Option<(Vec<u8>, u32)>> {
        if node.serialized_len() <= self.payload_cap {
            self.write_node(page, &node)?;
            return Ok(None);
        }
        // Split.
        match node {
            Node::Leaf { prev, next, mut entries } => {
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid.max(1));
                if right_entries.is_empty() {
                    // A single entry larger than the page: cannot split.
                    return Err(AccessError::RecordTooLarge {
                        len: 11 + entries[0].0.len() + entries[0].1.len() * 10,
                        max: self.payload_cap,
                    });
                }
                let sep = right_entries[0].0.clone();
                let right_page = self.storage.allocate_page(self.segment)?.page;
                // link: page <-> right_page <-> old next
                let right = Node::Leaf { prev: page, next, entries: right_entries };
                self.write_node(right_page, &right)?;
                if next != NONE_PAGE {
                    if let Node::Leaf { prev: _, next: nn, entries: ne } = self.read_node(next)? {
                        self.write_node(
                            next,
                            &Node::Leaf { prev: right_page, next: nn, entries: ne },
                        )?;
                    }
                }
                self.write_node(page, &Node::Leaf { prev, next: right_page, entries })?;
                Ok(Some((sep, right_page)))
            }
            Node::Internal { child0, mut entries } => {
                let mid = entries.len() / 2;
                let mut right_entries = entries.split_off(mid.max(1));
                let (sep, right_child0) = right_entries.remove(0);
                let right_page = self.storage.allocate_page(self.segment)?.page;
                self.write_node(
                    right_page,
                    &Node::Internal { child0: right_child0, entries: right_entries },
                )?;
                self.write_node(page, &Node::Internal { child0, entries })?;
                Ok(Some((sep, right_page)))
            }
        }
    }

    /// Removes `(key, id)`. Returns whether the pair existed. Duplicate-
    /// key chains may span several leaves; the search starts at the
    /// leftmost possible leaf and walks right while the key matches.
    pub fn remove(&self, key: &[u8], id: AtomId) -> AccessResult<bool> {
        let mut page = self.leaf_for(Some(key))?;
        loop {
            let Node::Leaf { prev, next, mut entries } = self.read_node(page)? else {
                unreachable!("leaf_for returns leaves");
            };
            let lb = entries.partition_point(|(k, _)| k.as_slice() < key);
            let ub = entries.partition_point(|(k, _)| k.as_slice() <= key);
            let mut removed = false;
            for entry in &mut entries[lb..ub] {
                if let Some(p) = entry.1.iter().position(|x| *x == id) {
                    entry.1.remove(p);
                    removed = true;
                    break;
                }
            }
            if removed {
                entries.retain(|(_, ids)| !ids.is_empty());
                self.write_node(page, &Node::Leaf { prev, next, entries })?;
                return Ok(true);
            }
            // The chain can only continue rightward if this leaf ends at
            // (or before) the key.
            if ub == entries.len() && next != NONE_PAGE {
                page = next;
                continue;
            }
            return Ok(false);
        }
    }

    /// All ids stored under exactly `key`.
    #[cfg(test)]
    pub fn lookup(&self, key: &[u8]) -> AccessResult<Vec<AtomId>> {
        let mut out = Vec::new();
        self.scan_range(Bound::Included(key), Bound::Included(key), false, |_, ids| {
            out.extend_from_slice(ids);
            true
        })?;
        Ok(out)
    }

    /// Walks entries with keys in the given bounds, in order (or reverse).
    /// The visitor returns `false` to stop early.
    pub fn scan_range(
        &self,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
        reverse: bool,
        mut visit: impl FnMut(&[u8], &[AtomId]) -> bool,
    ) -> AccessResult<()> {
        let in_lower = |k: &[u8]| match start {
            Bound::Unbounded => true,
            Bound::Included(s) => k >= s,
            Bound::Excluded(s) => k > s,
        };
        let in_upper = |k: &[u8]| match end {
            Bound::Unbounded => true,
            Bound::Included(e) => k <= e,
            Bound::Excluded(e) => k < e,
        };
        if !reverse {
            // Descend to the leaf containing the lower bound.
            let mut page = self.leaf_for(match start {
                Bound::Unbounded => None,
                Bound::Included(s) | Bound::Excluded(s) => Some(s),
            })?;
            loop {
                let Node::Leaf { next, entries, .. } = self.read_node(page)? else {
                    unreachable!("leaf_for returns leaves");
                };
                for (k, ids) in &entries {
                    if !in_lower(k) {
                        continue;
                    }
                    if !in_upper(k) {
                        return Ok(());
                    }
                    if !visit(k, ids) {
                        return Ok(());
                    }
                }
                if next == NONE_PAGE {
                    return Ok(());
                }
                page = next;
            }
        } else {
            // Find the rightmost leaf that can hold keys within the upper
            // bound: descend toward the bound, then keep advancing while
            // the next leaf still starts within the bound (duplicate-key
            // chains can span many leaves).
            let mut page = match end {
                Bound::Unbounded => self.rightmost_leaf()?,
                Bound::Included(e) | Bound::Excluded(e) => {
                    let mut p = self.leaf_for_upper(e)?;
                    loop {
                        let Node::Leaf { next, .. } = self.read_node(p)? else {
                            unreachable!("leaves only");
                        };
                        if next == NONE_PAGE {
                            break;
                        }
                        let Node::Leaf { entries: ne, .. } = self.read_node(next)? else {
                            unreachable!("leaves only");
                        };
                        match ne.first() {
                            Some((k, _)) if in_upper(k) => p = next,
                            _ => break,
                        }
                    }
                    p
                }
            };
            loop {
                let Node::Leaf { prev, entries, .. } = self.read_node(page)? else {
                    unreachable!("leaves only");
                };
                for (k, ids) in entries.iter().rev() {
                    if !in_upper(k) {
                        continue;
                    }
                    if !in_lower(k) {
                        return Ok(());
                    }
                    if !visit(k, ids) {
                        return Ok(());
                    }
                }
                if prev == NONE_PAGE {
                    return Ok(());
                }
                page = prev;
            }
        }
    }

    /// The *leftmost* leaf page that can contain `key` (or the smallest
    /// key, if None). Because a leaf split can place entries equal to the
    /// separator on the left side, equality routes left here.
    fn leaf_for(&self, key: Option<&[u8]>) -> AccessResult<u32> {
        let mut page = *self.root.lock();
        loop {
            match self.read_node(page)? {
                Node::Leaf { .. } => return Ok(page),
                Node::Internal { child0, entries } => {
                    page = match key {
                        None => child0,
                        Some(k) => {
                            let idx = entries.partition_point(|(s, _)| s.as_slice() < k);
                            if idx == 0 {
                                child0
                            } else {
                                entries[idx - 1].1
                            }
                        }
                    };
                }
            }
        }
    }

    /// The *rightmost* leaf whose key range can start at or before `key`
    /// (equality routes right) — the reverse-scan entry point.
    fn leaf_for_upper(&self, key: &[u8]) -> AccessResult<u32> {
        let mut page = *self.root.lock();
        loop {
            match self.read_node(page)? {
                Node::Leaf { .. } => return Ok(page),
                Node::Internal { child0, entries } => {
                    let idx = entries.partition_point(|(s, _)| s.as_slice() <= key);
                    page = if idx == 0 { child0 } else { entries[idx - 1].1 };
                }
            }
        }
    }

    fn rightmost_leaf(&self) -> AccessResult<u32> {
        let mut page = *self.root.lock();
        loop {
            match self.read_node(page)? {
                Node::Leaf { .. } => return Ok(page),
                Node::Internal { child0, entries } => {
                    page = entries.last().map_or(child0, |(_, c)| *c);
                }
            }
        }
    }

    /// Total number of `(key, id)` pairs (full scan).
    pub fn len(&self) -> AccessResult<usize> {
        let mut n = 0;
        self.scan_range(Bound::Unbounded, Bound::Unbounded, false, |_, ids| {
            n += ids.len();
            true
        })?;
        Ok(n)
    }

    pub fn is_empty(&self) -> AccessResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Tree height (1 = just a root leaf). Diagnostic.
    #[cfg(test)]
    pub fn height(&self) -> AccessResult<usize> {
        let mut h = 1;
        let mut page = *self.root.lock();
        loop {
            match self.read_node(page)? {
                Node::Leaf { .. } => return Ok(h),
                Node::Internal { child0, .. } => {
                    h += 1;
                    page = child0;
                }
            }
        }
    }

    /// Verifies structural invariants (key order inside and across leaves,
    /// separator consistency). Used by tests and property checks.
    // lint: allow(dead-surface, the storage property suite's structural check; ROADMAP item 3's `verify` will call it)
    pub fn check_invariants(&self) -> AccessResult<()> {
        // Walk all leaves via links and check global key order.
        let mut page = self.leaf_for(None)?;
        let mut last: Option<Vec<u8>> = None;
        loop {
            let Node::Leaf { next, entries, .. } = self.read_node(page)? else {
                unreachable!();
            };
            for (k, ids) in &entries {
                if let Some(prev) = &last {
                    assert!(
                        prev.as_slice() <= k.as_slice(),
                        "keys out of order across leaves"
                    );
                }
                assert!(!ids.is_empty(), "empty id list must have been removed");
                last = Some(k.clone());
            }
            if next == NONE_PAGE {
                break;
            }
            page = next;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_mad::codec::encode_composite_key;
    use prima_mad::value::Value;

    fn tree() -> BTree {
        let storage = Arc::new(StorageSystem::in_memory(4 << 20));
        BTree::create(storage).unwrap()
    }

    fn k(i: i64) -> Vec<u8> {
        encode_composite_key(&[Value::Int(i)])
    }

    fn id(n: u64) -> AtomId {
        AtomId::new(1, n)
    }

    #[test]
    fn insert_lookup_small() {
        let t = tree();
        t.insert(&k(5), id(50)).unwrap();
        t.insert(&k(3), id(30)).unwrap();
        t.insert(&k(8), id(80)).unwrap();
        assert_eq!(t.lookup(&k(3)).unwrap(), vec![id(30)]);
        assert_eq!(t.lookup(&k(9)).unwrap(), Vec::<AtomId>::new());
        assert_eq!(t.len().unwrap(), 3);
    }

    #[test]
    fn duplicate_pair_stored_once() {
        let t = tree();
        t.insert(&k(1), id(1)).unwrap();
        t.insert(&k(1), id(1)).unwrap();
        assert_eq!(t.lookup(&k(1)).unwrap(), vec![id(1)]);
    }

    #[test]
    fn non_unique_keys_accumulate() {
        let t = tree();
        for n in 0..10 {
            t.insert(&k(7), id(n)).unwrap();
        }
        let mut got = t.lookup(&k(7)).unwrap();
        got.sort();
        assert_eq!(got, (0..10).map(id).collect::<Vec<_>>());
    }

    #[test]
    fn thousands_of_keys_split_correctly() {
        let t = tree();
        let n = 5000i64;
        // Insert in a shuffled-ish order (multiplicative stride).
        for i in 0..n {
            let key = (i * 2654435761 % n + n) % n;
            t.insert(&k(key), id(key as u64)).unwrap();
        }
        assert!(t.height().unwrap() > 1, "tree must have split");
        t.check_invariants().unwrap();
        assert_eq!(t.len().unwrap(), n as usize);
        for probe in [0, 1, n / 2, n - 1] {
            assert_eq!(t.lookup(&k(probe)).unwrap(), vec![id(probe as u64)], "probe {probe}");
        }
    }

    #[test]
    fn range_scan_forward_and_reverse() {
        let t = tree();
        for i in 0..100 {
            t.insert(&k(i), id(i as u64)).unwrap();
        }
        let mut keys = Vec::new();
        t.scan_range(Bound::Included(&k(10)), Bound::Excluded(&k(20)), false, |key, _| {
            keys.push(key.to_vec());
            true
        })
        .unwrap();
        assert_eq!(keys.len(), 10);
        assert_eq!(keys[0], k(10));
        assert_eq!(keys[9], k(19));

        let mut rev = Vec::new();
        t.scan_range(Bound::Included(&k(10)), Bound::Excluded(&k(20)), true, |key, _| {
            rev.push(key.to_vec());
            true
        })
        .unwrap();
        keys.reverse();
        assert_eq!(rev, keys, "reverse scan mirrors forward scan");
    }

    #[test]
    fn reverse_scan_unbounded() {
        let t = tree();
        for i in 0..1000 {
            t.insert(&k(i), id(i as u64)).unwrap();
        }
        let mut seen = Vec::new();
        t.scan_range(Bound::Unbounded, Bound::Unbounded, true, |key, _| {
            seen.push(key.to_vec());
            true
        })
        .unwrap();
        assert_eq!(seen.len(), 1000);
        assert_eq!(seen[0], k(999));
        assert_eq!(seen[999], k(0));
    }

    #[test]
    fn early_stop_via_visitor() {
        let t = tree();
        for i in 0..100 {
            t.insert(&k(i), id(i as u64)).unwrap();
        }
        let mut n = 0;
        t.scan_range(Bound::Unbounded, Bound::Unbounded, false, |_, _| {
            n += 1;
            n < 5
        })
        .unwrap();
        assert_eq!(n, 5);
    }

    #[test]
    fn remove_and_lazy_cleanup() {
        let t = tree();
        for i in 0..500 {
            t.insert(&k(i), id(i as u64)).unwrap();
        }
        for i in (0..500).step_by(2) {
            assert!(t.remove(&k(i), id(i as u64)).unwrap());
        }
        assert!(!t.remove(&k(0), id(0)).unwrap(), "already gone");
        assert_eq!(t.len().unwrap(), 250);
        assert_eq!(t.lookup(&k(2)).unwrap(), Vec::<AtomId>::new());
        assert_eq!(t.lookup(&k(3)).unwrap(), vec![id(3)]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn heavy_duplicates_overflow_entries() {
        let t = tree();
        // Far beyond MAX_IDS_PER_ENTRY to force same-key entry chains and
        // splits.
        for n in 0..1000u64 {
            t.insert(&k(42), id(n)).unwrap();
        }
        let mut ids = t.lookup(&k(42)).unwrap();
        ids.sort();
        assert_eq!(ids.len(), 1000);
        assert_eq!(ids[999], id(999));
        t.check_invariants().unwrap();
        // Remove them all again.
        for n in 0..1000u64 {
            assert!(t.remove(&k(42), id(n)).unwrap(), "removing {n}");
        }
        assert_eq!(t.len().unwrap(), 0);
    }

    #[test]
    fn string_keys_work() {
        let t = tree();
        let key = |s: &str| encode_composite_key(&[Value::Str(s.into())]);
        for s in ["delta", "alpha", "charlie", "bravo"] {
            t.insert(&key(s), id(s.len() as u64)).unwrap();
        }
        let mut order = Vec::new();
        t.scan_range(Bound::Unbounded, Bound::Unbounded, false, |k, _| {
            order.push(k.to_vec());
            true
        })
        .unwrap();
        assert_eq!(order, vec![key("alpha"), key("bravo"), key("charlie"), key("delta")]);
    }
}
