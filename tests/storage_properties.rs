//! Property-based tests of the storage and index substrates: page
//! sequences hold arbitrary data, the B*-tree stays consistent with a
//! model under arbitrary operation sequences, and the buffer preserves
//! page contents under arbitrary access patterns.

use prima_storage::{PageSequence, PageSize, StorageSystem};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn page_sequence_round_trips_any_data(
        data in prop::collection::vec(any::<u8>(), 0..20_000),
        size_idx in 0usize..5,
    ) {
        let storage = StorageSystem::in_memory(1 << 20);
        let seg = storage.create_segment(PageSize::ALL[size_idx], true).unwrap();
        let h = PageSequence::create(&storage, seg, &data).unwrap();
        prop_assert_eq!(PageSequence::read_all(&storage, h).unwrap(), data.clone());
        // Relative reads agree with slices.
        if !data.is_empty() {
            let mid = data.len() / 2;
            let len = (data.len() - mid).min(300);
            let got = PageSequence::read_relative(&storage, h, mid, len).unwrap();
            prop_assert_eq!(&got[..], &data[mid..mid + len]);
        }
    }

    #[test]
    fn page_sequence_overwrite_sequences(
        contents in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..4000), 1..6)
    ) {
        let storage = StorageSystem::in_memory(1 << 20);
        let seg = storage.create_segment(PageSize::Half, true).unwrap();
        let h = PageSequence::create(&storage, seg, &contents[0]).unwrap();
        for c in &contents[1..] {
            PageSequence::overwrite(&storage, h, c).unwrap();
            prop_assert_eq!(&PageSequence::read_all(&storage, h).unwrap(), c);
        }
    }

    #[test]
    fn btree_matches_model(ops in prop::collection::vec(
        (any::<bool>(), 0u16..40, 0u64..200), 1..200))
    {
        use prima_access::btree::BTree;
        use prima_mad::codec::encode_composite_key;
        use prima_mad::value::{AtomId, Value};
        let storage = Arc::new(StorageSystem::in_memory(16 << 20));
        let tree = BTree::create(storage).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<AtomId>> = BTreeMap::new();
        for (insert, k, s) in ops {
            let key = encode_composite_key(&[Value::Int(k as i64)]);
            let id = AtomId::new(0, s);
            if insert {
                tree.insert(&key, id).unwrap();
                let e = model.entry(key).or_default();
                if !e.contains(&id) {
                    e.push(id);
                }
            } else {
                let removed = tree.remove(&key, id).unwrap();
                let model_removed = match model.get_mut(&key) {
                    Some(e) => {
                        let had = e.contains(&id);
                        e.retain(|x| *x != id);
                        if e.is_empty() {
                            model.remove(&key);
                        }
                        had
                    }
                    None => false,
                };
                prop_assert_eq!(removed, model_removed);
            }
        }
        // Compare full scans.
        let mut got: Vec<(Vec<u8>, Vec<AtomId>)> = Vec::new();
        tree.scan_range(Bound::Unbounded, Bound::Unbounded, false, |k, ids| {
            got.push((k.to_vec(), ids.to_vec()));
            true
        })
        .unwrap();
        // Merge duplicate-key overflow entries before comparing.
        let mut merged: BTreeMap<Vec<u8>, Vec<AtomId>> = BTreeMap::new();
        for (k, ids) in got {
            merged.entry(k).or_default().extend(ids);
        }
        prop_assert_eq!(merged.len(), model.len());
        for (k, ids) in &model {
            let mut got_ids = merged.get(k).cloned().unwrap_or_default();
            let mut want = ids.clone();
            got_ids.sort();
            want.sort();
            prop_assert_eq!(got_ids, want);
        }
        tree.check_invariants().unwrap();
    }

    #[test]
    fn buffer_preserves_contents_under_pressure(
        writes in prop::collection::vec((0u32..40, any::<u8>()), 1..120),
        capacity_pages in 2usize..8,
    ) {
        use prima_storage::PageType;
        let storage = StorageSystem::in_memory(capacity_pages * 512);
        let seg = storage.create_segment(PageSize::Half, true).unwrap();
        let mut model: BTreeMap<u32, u8> = BTreeMap::new();
        for (page, byte) in writes {
            let id = prima_storage::PageId::new(seg, page);
            if model.contains_key(&page) {
                let mut g = storage.fix_mut(id).unwrap();
                g.write_payload(&[byte; 16]).unwrap();
            } else {
                // Ensure allocation high-water mark covers the page no.
                while storage.with_segment(seg, |s| s.extent()).unwrap() <= page {
                    storage.allocate_page(seg).unwrap();
                }
                let mut g = storage.fix_new(id, PageType::Data).unwrap();
                g.write_payload(&[byte; 16]).unwrap();
            }
            model.insert(page, byte);
        }
        for (page, byte) in model {
            let g = storage.fix(prima_storage::PageId::new(seg, page)).unwrap();
            prop_assert_eq!(g.payload(), &[byte; 16][..]);
        }
    }
}
