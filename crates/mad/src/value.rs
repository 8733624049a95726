//! Typed values and atom identity.
//!
//! The paper's extended type concept (Section 2.2): attributes are drawn
//! from "a richer selection than in conventional data models" — scalars,
//! `IDENTIFIER` surrogates \[ML83\], typed `REFERENCE`s, `RECORD`, `ARRAY`,
//! and the repeating groups `SET` and `LIST`.
//!
//! Values carry their own variant so the kernel can type-check dynamically
//! constructed molecules; the schema layer checks values against declared
//! [`crate::schema::AttrType`]s.

use std::cmp::Ordering;
use std::fmt;

/// Numeric id of an atom type within a schema.
pub type AtomTypeId = u16;

/// The logical address of an atom: its type plus a surrogate that is
/// "generated by the access system when an atom is inserted and released
/// when the atom is deleted" (Section 3.2). Surrogates are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId {
    pub atom_type: AtomTypeId,
    pub seq: u64,
}

impl AtomId {
    pub fn new(atom_type: AtomTypeId, seq: u64) -> Self {
        AtomId { atom_type, seq }
    }
}

impl fmt::Display for AtomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}:{}", self.atom_type, self.seq)
    }
}

/// A dynamically typed MAD value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / not yet assigned (attributes may be inserted selectively,
    /// Section 3.2).
    Null,
    /// The atom's own surrogate (IDENTIFIER attribute).
    Id(AtomId),
    Int(i64),
    Real(f64),
    Bool(bool),
    /// CHAR / CHAR_VAR.
    Str(String),
    /// A single typed reference (the 1-side of an association); `None`
    /// models an unset reference.
    Ref(Option<AtomId>),
    /// A set of references (the n-side of an association). Kept sorted and
    /// duplicate-free by construction.
    RefSet(Vec<AtomId>),
    /// RECORD: named components.
    Record(Vec<(String, Value)>),
    /// ARRAY: fixed-length positional values.
    Array(Vec<Value>),
    /// SET_OF over non-reference element types.
    Set(Vec<Value>),
    /// LIST_OF: ordered, duplicates allowed.
    List(Vec<Value>),
}

/// Discriminant-only view of [`Value`], used in error messages and
/// type checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    Null,
    Id,
    Int,
    Real,
    Bool,
    Str,
    Ref,
    RefSet,
    Record,
    Array,
    Set,
    List,
}

impl Value {
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Null => ValueKind::Null,
            Value::Id(_) => ValueKind::Id,
            Value::Int(_) => ValueKind::Int,
            Value::Real(_) => ValueKind::Real,
            Value::Bool(_) => ValueKind::Bool,
            Value::Str(_) => ValueKind::Str,
            Value::Ref(_) => ValueKind::Ref,
            Value::RefSet(_) => ValueKind::RefSet,
            Value::Record(_) => ValueKind::Record,
            Value::Array(_) => ValueKind::Array,
            Value::Set(_) => ValueKind::Set,
            Value::List(_) => ValueKind::List,
        }
    }

    /// Builds a normalised reference set (sorted, deduplicated).
    pub fn ref_set(mut ids: Vec<AtomId>) -> Value {
        ids.sort_unstable();
        ids.dedup();
        Value::RefSet(ids)
    }

    /// All atom ids this value refers to (empty for non-reference values).
    pub fn ref_ids(&self) -> &[AtomId] {
        match self {
            Value::Ref(Some(id)) => std::slice::from_ref(id),
            Value::RefSet(ids) => ids,
            _ => &[],
        }
    }

    /// True for `Null`, unset `Ref`, and empty `RefSet` — the notion used
    /// by the `sub = EMPTY` predicate of Table 2.1c.
    pub fn is_empty_like(&self) -> bool {
        matches!(self, Value::Null | Value::Ref(None)) ||
            matches!(self, Value::RefSet(v) if v.is_empty()) ||
            matches!(self, Value::Set(v) if v.is_empty()) ||
            matches!(self, Value::List(v) if v.is_empty())
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(r) => Some(*r),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total order used by sort orders and access paths. Cross-kind
    /// comparisons order by kind tag; `Null` sorts first; `Real`/`Int`
    /// compare numerically; NaN sorts after all numbers (total order).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Real(a), Real(b)) => a.total_cmp(b),
            (Int(a), Real(b)) => (*a as f64).total_cmp(b),
            (Real(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Id(a), Id(b)) => a.cmp(b),
            (Ref(a), Ref(b)) => a.cmp(b),
            (RefSet(a), RefSet(b)) => a.cmp(b),
            (Record(a), Record(b)) => cmp_pairs(a, b),
            (Array(a), Array(b)) | (Set(a), Set(b)) | (List(a), List(b)) => cmp_seq(a, b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Value equality for predicate evaluation (Int/Real compare
    /// numerically, unlike `PartialEq`).
    pub fn sem_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

fn cmp_seq(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let c = x.total_cmp(y);
        if c != Ordering::Equal {
            return c;
        }
    }
    a.len().cmp(&b.len())
}

fn cmp_pairs(a: &[(String, Value)], b: &[(String, Value)]) -> Ordering {
    for ((an, av), (bn, bv)) in a.iter().zip(b.iter()) {
        let c = an.cmp(bn).then_with(|| av.total_cmp(bv));
        if c != Ordering::Equal {
            return c;
        }
    }
    a.len().cmp(&b.len())
}

fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Real(_) => 2,
        Value::Str(_) => 3,
        Value::Id(_) => 4,
        Value::Ref(_) => 5,
        Value::RefSet(_) => 6,
        Value::Record(_) => 7,
        Value::Array(_) => 8,
        Value::Set(_) => 9,
        Value::List(_) => 10,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Id(id) => write!(f, "{id}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Ref(Some(id)) => write!(f, "->{id}"),
            Value::Ref(None) => write!(f, "->NULL"),
            Value::RefSet(ids) => {
                write!(f, "{{")?;
                for (i, id) in ids.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "->{id}")?;
                }
                write!(f, "}}")
            }
            Value::Record(fields) => {
                write!(f, "(")?;
                for (i, (n, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                write!(f, ")")
            }
            Value::Array(vs) | Value::Set(vs) | Value::List(vs) => {
                let (open, close) = match self {
                    Value::Array(_) => ("[", "]"),
                    Value::Set(_) => ("{", "}"),
                    _ => ("<", ">"),
                };
                write!(f, "{open}")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "{close}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_set_normalises() {
        let a = AtomId::new(1, 5);
        let b = AtomId::new(1, 2);
        let v = Value::ref_set(vec![a, b, a]);
        assert_eq!(v, Value::RefSet(vec![b, a]));
    }

    #[test]
    fn referenced_ids_cover_ref_kinds() {
        let a = AtomId::new(2, 7);
        assert_eq!(Value::Ref(Some(a)).ref_ids(), [a]);
        assert!(Value::Ref(None).ref_ids().is_empty());
        assert_eq!(Value::ref_set(vec![a]).ref_ids(), [a]);
        assert!(Value::Int(3).ref_ids().is_empty());
    }

    #[test]
    fn empty_like_matches_paper_semantics() {
        assert!(Value::RefSet(vec![]).is_empty_like());
        assert!(Value::Ref(None).is_empty_like());
        assert!(Value::Null.is_empty_like());
        assert!(!Value::ref_set(vec![AtomId::new(0, 1)]).is_empty_like());
        assert!(!Value::Int(0).is_empty_like());
    }

    #[test]
    fn numeric_comparison_is_cross_kind() {
        assert_eq!(Value::Int(3).total_cmp(&Value::Real(3.0)), Ordering::Equal);
        assert!(Value::Int(2).total_cmp(&Value::Real(2.5)) == Ordering::Less);
        assert!(Value::Real(10.0).sem_eq(&Value::Int(10)));
    }

    #[test]
    fn null_sorts_first_nan_last() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(
            Value::Real(f64::NAN).total_cmp(&Value::Real(f64::INFINITY)),
            Ordering::Greater
        );
    }

    #[test]
    fn sequences_compare_lexicographically() {
        let a = Value::List(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::List(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::List(vec![Value::Int(1)]);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(c.total_cmp(&a), Ordering::Less);
    }

    #[test]
    fn display_round_readability() {
        let v = Value::Record(vec![
            ("x_coord".into(), Value::Real(1.5)),
            ("y_coord".into(), Value::Real(-2.0)),
        ]);
        assert_eq!(v.to_string(), "(x_coord: 1.5, y_coord: -2)");
        assert_eq!(Value::Str("ab".into()).to_string(), "'ab'");
        assert_eq!(Value::Ref(None).to_string(), "->NULL");
    }
}
