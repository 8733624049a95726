//! Property-based tests over kernel invariants.
//!
//! * codec round-trips for arbitrary values;
//! * order-preservation of the key encoding;
//! * back-reference symmetry under arbitrary mutation sequences (the
//!   core invariant of the MAD model: "an association is symmetric in
//!   that the referenced record must contain a back-reference");
//! * sort-order scans equal explicit sorts.
//!
//! The same mutations inside one transaction, with savepoints kept and
//! rolled back, are a unit test of the transaction manager
//! (`prima::txn`'s `abort_restores_and_snapshots_never_see_a_transaction`).

use prima::{Prima, Value};
use prima_mad::codec;
use prima_mad::value::AtomId;
use proptest::prelude::*;

fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Real),
        any::<bool>().prop_map(Value::Bool),
        "[a-zA-Z0-9 _-]{0,24}".prop_map(Value::Str),
        (any::<u16>(), any::<u64>()).prop_map(|(t, s)| Value::Id(AtomId::new(t, s))),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_scalar().prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Set),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Value::Array),
            prop::collection::vec(("[a-z]{1,8}", inner), 0..4)
                .prop_map(Value::Record),
            prop::collection::vec(
                (any::<u16>(), any::<u64>()).prop_map(|(t, s)| AtomId::new(t, s)),
                0..5
            )
            .prop_map(Value::ref_set),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn codec_round_trip(v in arb_value()) {
        let mut buf = Vec::new();
        codec::encode_value(&v, &mut buf);
        let mut pos = 0;
        let back = codec::decode_value(&buf, &mut pos).unwrap();
        prop_assert_eq!(pos, buf.len());
        // Ref sets normalise on construction; everything round-trips
        // exactly.
        prop_assert_eq!(back, v);
    }

    #[test]
    fn key_encoding_preserves_order(a in arb_scalar(), b in arb_scalar()) {
        let mut ka = Vec::new();
        let mut kb = Vec::new();
        codec::encode_key(&a, &mut ka);
        codec::encode_key(&b, &mut kb);
        prop_assert_eq!(ka.cmp(&kb), a.total_cmp(&b),
            "keys must order like values: {:?} vs {:?}", a, b);
    }
}

// ---------------------------------------------------------------------
// Back-reference symmetry under random mutations
// ---------------------------------------------------------------------

const DDL: &str = "
CREATE ATOM_TYPE node
  ( id : IDENTIFIER, n : INTEGER,
    next : SET_OF (REF_TO (node.prev)),
    prev : SET_OF (REF_TO (node.next)) );
";

#[derive(Debug, Clone)]
enum Op {
    Insert,
    Delete(usize),
    Link(usize, usize),
    Unlink(usize, usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => Just(Op::Insert),
            1 => (any::<prop::sample::Index>()).prop_map(|i| Op::Delete(i.index(64))),
            4 => (any::<prop::sample::Index>(), any::<prop::sample::Index>())
                .prop_map(|(a, b)| Op::Link(a.index(64), b.index(64))),
            2 => (any::<prop::sample::Index>(), any::<prop::sample::Index>())
                .prop_map(|(a, b)| Op::Unlink(a.index(64), b.index(64))),
        ],
        1..60,
    )
}

/// Checks global symmetry: a ∈ b.prev ⇔ b ∈ a.next.
fn assert_symmetric(db: &Prima) {
    let t = db.schema().type_id("node").unwrap();
    let ids = db.access().all_ids(t).unwrap();
    for id in &ids {
        let atom = db.read(*id).unwrap();
        for &target in atom.values[2].ref_ids() {
            let back = db.read(target).unwrap();
            assert!(
                back.values[3].ref_ids().contains(id),
                "{id} -> {target} lacks back-reference"
            );
        }
        for &source in atom.values[3].ref_ids() {
            let fwd = db.read(source).unwrap();
            assert!(
                fwd.values[2].ref_ids().contains(id),
                "{id} <- {source} lacks forward reference"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn backrefs_stay_symmetric(ops in arb_ops()) {
        let db = Prima::builder().buffer_bytes(4 << 20).build_with_ddl(DDL).unwrap();
        let mut live: Vec<AtomId> = Vec::new();
        let mut n = 0i64;
        for op in ops {
            match op {
                Op::Insert => {
                    n += 1;
                    let id = db.insert("node", &[("n", Value::Int(n))]).unwrap();
                    live.push(id);
                }
                Op::Delete(i) => {
                    if !live.is_empty() {
                        let id = live.remove(i % live.len());
                        db.delete(id).unwrap();
                    }
                }
                Op::Link(a, b) => {
                    if live.len() >= 2 {
                        let from = live[a % live.len()];
                        let to = live[b % live.len()];
                        let atom = db.read(from).unwrap();
                        let mut next = atom.values[2].ref_ids().to_vec();
                        if !next.contains(&to) {
                            next.push(to);
                            db.modify(from, &[("next", Value::ref_set(next))]).unwrap();
                        }
                    }
                }
                Op::Unlink(a, b) => {
                    if live.len() >= 2 {
                        let from = live[a % live.len()];
                        let to = live[b % live.len()];
                        let atom = db.read(from).unwrap();
                        let next: Vec<AtomId> = atom.values[2]
                            .ref_ids()
                            .iter()
                            .copied()
                            .filter(|x| *x != to)
                            .collect();
                        db.modify(from, &[("next", Value::ref_set(next))]).unwrap();
                    }
                }
            }
        }
        assert_symmetric(&db);
        // And no dangling references to deleted atoms.
        let t = db.schema().type_id("node").unwrap();
        for id in db.access().all_ids(t).unwrap() {
            let atom = db.read(id).unwrap();
            for &r in atom.values[2].ref_ids().iter()
                .chain(atom.values[3].ref_ids()) {
                prop_assert!(db.access().exists(r), "dangling {r}");
            }
        }
    }

    #[test]
    fn sort_order_scan_equals_explicit_sort(values in prop::collection::vec(-1000i64..1000, 1..80)) {
        let db = Prima::builder().build_with_ddl(
            "CREATE ATOM_TYPE item (id: IDENTIFIER, v: INTEGER);"
        ).unwrap();
        for v in &values {
            db.insert("item", &[("v", Value::Int(*v))]).unwrap();
        }
        db.ldl("CREATE SORT ORDER so ON item (v)").unwrap();
        use prima_access::scan::{Scan, SortSource};
        use std::ops::Bound;
        let mut scan = Scan::sort(
            db.access(), 0, &[1], prima_access::Ssa::True,
            Bound::Unbounded, Bound::Unbounded,
        ).unwrap();
        prop_assert_eq!(scan.sort_source(), Some(SortSource::SortOrder));
        let got: Vec<i64> = scan.collect_remaining().unwrap()
            .iter().map(|a| a.values[1].as_int().unwrap()).collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
