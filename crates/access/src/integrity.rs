//! Referential integrity: system-enforced back-reference maintenance.
//!
//! "Performing update operations, [the access system] is responsible for
//! the automatic maintenance of referential integrity defined by
//! reference attributes (system-enforced integrity). An update operation
//! on a reference attribute thus includes implicit update operations on
//! other atoms to adjust the appropriate back-reference attributes."
//! (Section 3.2; see also the symmetry requirement of Section 2.2.)
//!
//! This module contains the *pure* half of that machinery: computing which
//! back-reference adjustments an attribute change implies
//! ([`backref_ops`]) and applying one adjustment to a target atom's
//! physical record ([`splice_backref`]). The adjustment edits the
//! reference in the record's bytes — the id is inserted into or removed
//! from the encoded reference set — so a partner is neither decoded nor
//! encoded to gain or lose one back-reference. The effectful half
//! (rewriting the target atoms' records under one page fix) lives in
//! [`crate::access_system`].

use crate::atom::Atom;
use crate::error::AccessResult;
use prima_mad::codec;
use prima_mad::schema::Schema;
use prima_mad::value::{AtomId, Value};

/// One implicit update: add or remove `source` in `target`'s
/// back-reference attribute `attr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackRefOp {
    pub target: AtomId,
    pub attr: usize,
    pub add: bool,
    pub source: AtomId,
}

/// Computes the implicit updates caused by changing reference attribute
/// `attr_idx` of atom `source` (type `source.atom_type`) from `old` to
/// `new`. Non-reference attributes yield no ops.
pub fn backref_ops(
    schema: &Schema,
    source: AtomId,
    attr_idx: usize,
    old: &Value,
    new: &Value,
) -> Vec<BackRefOp> {
    let Some(assoc) = schema.association_of(source.atom_type, attr_idx) else {
        return Vec::new();
    };
    let (old_ids, new_ids) = (old.ref_ids(), new.ref_ids());
    let mut ops = Vec::new();
    for id in old_ids {
        if !new_ids.contains(id) {
            ops.push(BackRefOp { target: *id, attr: assoc.to.attr, add: false, source });
        }
    }
    for id in new_ids {
        if !old_ids.contains(id) {
            ops.push(BackRefOp { target: *id, attr: assoc.to.attr, add: true, source });
        }
    }
    ops
}

/// Applies one back-reference adjustment to a target atom's physical
/// record: the new record image, or `None` when the adjustment changes
/// nothing. Handles both single-reference and reference-set back
/// attributes; the operation is idempotent (adding an existing reference
/// or removing an absent one is a no-op). The result is byte for byte the
/// encoding of the decoded atom with the adjustment applied.
pub fn splice_backref(record: &[u8], op: &BackRefOp) -> AccessResult<Option<Vec<u8>>> {
    Ok(codec::splice_backref_at(record, Atom::HEADER_LEN, op.attr, op.source, op.add)?)
}

/// [`splice_backref`] on a decoded value vector: the tests' oracle.
#[cfg(test)]
pub fn apply_backref(values: &mut [Value], op: &BackRefOp) {
    let Some(slot) = values.get_mut(op.attr) else { return };
    match slot {
        Value::RefSet(ids) => {
            if op.add {
                if let Err(pos) = ids.binary_search(&op.source) {
                    ids.insert(pos, op.source);
                }
            } else if let Ok(pos) = ids.binary_search(&op.source) {
                ids.remove(pos);
            }
        }
        Value::Ref(r) => {
            if op.add {
                *r = Some(op.source);
            } else if *r == Some(op.source) {
                *r = None;
            }
        }
        // An unset back attribute materialises as a set on first add.
        Value::Null if op.add => *slot = Value::RefSet(vec![op.source]),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_mad::schema::{AtomType, Attribute, AttrType, Cardinality};

    /// solid.sub <-> solid.super (recursive n:m association).
    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_atom_type(AtomType::build(
            "solid",
            vec![
                Attribute::new("solid_id", AttrType::Identifier),
                Attribute::new("sub", AttrType::ref_set("solid", "super", Cardinality::any())),
                Attribute::new("super", AttrType::ref_set("solid", "sub", Cardinality::any())),
                Attribute::new("brep", AttrType::reference("brep", "solid")),
            ],
            vec![],
        ))
        .unwrap();
        s.add_atom_type(AtomType::build(
            "brep",
            vec![
                Attribute::new("brep_id", AttrType::Identifier),
                Attribute::new("solid", AttrType::reference("solid", "brep")),
            ],
            vec![],
        ))
        .unwrap();
        s.validate().unwrap();
        s
    }

    #[test]
    fn adding_references_adds_backrefs() {
        let s = schema();
        let me = AtomId::new(0, 1);
        let kid = AtomId::new(0, 2);
        let ops = backref_ops(
            &s,
            me,
            1, // sub
            &Value::RefSet(vec![]),
            &Value::ref_set(vec![kid]),
        );
        assert_eq!(ops, vec![BackRefOp { target: kid, attr: 2, add: true, source: me }]);
    }

    #[test]
    fn removing_references_removes_backrefs() {
        let s = schema();
        let me = AtomId::new(0, 1);
        let a = AtomId::new(0, 2);
        let b = AtomId::new(0, 3);
        let ops = backref_ops(&s, me, 1, &Value::ref_set(vec![a, b]), &Value::ref_set(vec![b]));
        assert_eq!(ops, vec![BackRefOp { target: a, attr: 2, add: false, source: me }]);
    }

    #[test]
    fn unchanged_references_yield_no_ops() {
        let s = schema();
        let me = AtomId::new(0, 1);
        let a = AtomId::new(0, 2);
        let v = Value::ref_set(vec![a]);
        assert!(backref_ops(&s, me, 1, &v, &v).is_empty());
    }

    #[test]
    fn single_reference_change_swaps_target() {
        let s = schema();
        let me = AtomId::new(0, 1);
        let old_brep = AtomId::new(1, 10);
        let new_brep = AtomId::new(1, 11);
        let ops = backref_ops(
            &s,
            me,
            3, // brep
            &Value::Ref(Some(old_brep)),
            &Value::Ref(Some(new_brep)),
        );
        assert_eq!(ops.len(), 2);
        assert!(ops.contains(&BackRefOp { target: old_brep, attr: 1, add: false, source: me }));
        assert!(ops.contains(&BackRefOp { target: new_brep, attr: 1, add: true, source: me }));
    }

    #[test]
    fn non_reference_attribute_yields_nothing() {
        let s = schema();
        let ops = backref_ops(&s, AtomId::new(0, 1), 0, &Value::Null, &Value::Int(1));
        assert!(ops.is_empty());
    }

    #[test]
    fn apply_to_ref_set_is_idempotent_and_sorted() {
        let me = AtomId::new(0, 1);
        let mut values = vec![Value::Null, Value::ref_set(vec![AtomId::new(0, 5)])];
        let add = BackRefOp { target: AtomId::new(0, 9), attr: 1, add: true, source: me };
        apply_backref(&mut values, &add);
        apply_backref(&mut values, &add);
        assert_eq!(values[1], Value::ref_set(vec![me, AtomId::new(0, 5)]));
        let rm = BackRefOp { target: AtomId::new(0, 9), attr: 1, add: false, source: me };
        apply_backref(&mut values, &rm);
        apply_backref(&mut values, &rm);
        assert_eq!(values[1], Value::ref_set(vec![AtomId::new(0, 5)]));
    }

    #[test]
    fn apply_to_single_ref() {
        let me = AtomId::new(0, 1);
        let mut values = vec![Value::Ref(None)];
        apply_backref(&mut values, &BackRefOp { target: me, attr: 0, add: true, source: me });
        assert_eq!(values[0], Value::Ref(Some(me)));
        // Removing someone else's reference is a no-op.
        let other = AtomId::new(0, 2);
        apply_backref(&mut values, &BackRefOp { target: me, attr: 0, add: false, source: other });
        assert_eq!(values[0], Value::Ref(Some(me)));
        apply_backref(&mut values, &BackRefOp { target: me, attr: 0, add: false, source: me });
        assert_eq!(values[0], Value::Ref(None));
    }

    #[test]
    fn splice_on_a_record_matches_apply_on_its_atom() {
        let me = AtomId::new(0, 1);
        let (a, b) = (AtomId::new(0, 2), AtomId::new(1, 7));
        let atom = Atom::new(
            me,
            vec![
                Value::Id(me),
                Value::ref_set(vec![a, b]),
                Value::Null,
                Value::Ref(Some(b)),
                Value::Ref(None),
            ],
        );
        for attr in 0..6 {
            for source in [me, a, b] {
                for add in [true, false] {
                    let op = BackRefOp { target: me, attr, add, source };
                    let mut values = atom.values.to_vec();
                    apply_backref(&mut values, &op);
                    let want = Atom::new(me, values).encode();
                    let got = splice_backref(&atom.encode(), &op).unwrap();
                    assert_eq!(got.unwrap_or_else(|| atom.encode()), want, "{op:?}");
                }
            }
        }
    }

    #[test]
    fn out_of_range_attr_is_ignored() {
        let me = AtomId::new(0, 1);
        let mut values = vec![Value::Null];
        apply_backref(&mut values, &BackRefOp { target: me, attr: 9, add: true, source: me });
        assert_eq!(values, vec![Value::Null]);
    }
}
