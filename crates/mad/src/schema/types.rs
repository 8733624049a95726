//! Attribute types: the paper's "richer selection than in conventional
//! data models" (Section 2.2).
//!
//! The two special attribute types implementing the association concept:
//! * `IDENTIFIER` — a surrogate \[ML83\] identifying each atom;
//! * `REF_TO (type.attr)` — a typed reference whose *target attribute*
//!   holds the back-reference (that is what makes associations symmetric).
//!
//! `SET_OF (REF_TO (...)) (min, max|VAR)` expresses the n-side of 1:n and
//! n:m relationship types, with cardinality restrictions "allowing for
//! refined structural integrity enforced by the system" (Fig. 2.3).

use crate::value::Value;
use std::fmt;

/// Cardinality restriction of a repeating group: `(min, max)` where
/// `max = None` renders as `VAR` (unbounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cardinality {
    pub min: u32,
    pub max: Option<u32>,
}

impl Cardinality {
    /// `(min, VAR)`.
    pub const fn var(min: u32) -> Self {
        Cardinality { min, max: None }
    }

    /// `(n, n)`.
    pub const fn exact(n: u32) -> Self {
        Cardinality { min: n, max: Some(n) }
    }

    /// `(min, max)`.
    pub const fn range(min: u32, max: u32) -> Self {
        Cardinality { min, max: Some(max) }
    }

    /// Unrestricted `(0, VAR)`.
    pub const fn any() -> Self {
        Cardinality { min: 0, max: None }
    }

    pub fn contains(&self, len: usize) -> bool {
        len >= self.min as usize && self.max.is_none_or(|m| len <= m as usize)
    }
}

impl fmt::Display for Cardinality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max {
            Some(m) => write!(f, "({},{})", self.min, m),
            None => write!(f, "({},VAR)", self.min),
        }
    }
}

/// The target of a reference attribute: `REF_TO (type.attr)` — note the
/// target names the *back-reference attribute*, not just the type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefTarget {
    pub type_name: String,
    pub attr_name: String,
}

impl RefTarget {
    pub fn new(type_name: impl Into<String>, attr_name: impl Into<String>) -> Self {
        RefTarget { type_name: type_name.into(), attr_name: attr_name.into() }
    }
}

impl fmt::Display for RefTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.type_name, self.attr_name)
    }
}

/// A MAD attribute type.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrType {
    /// Surrogate identity; exactly one per atom type.
    Identifier,
    Integer,
    Real,
    Boolean,
    /// Variable-length character string (`CHAR_VAR`).
    CharVar,
    /// Fixed-length character string (`CHAR(n)`).
    Char(usize),
    /// Single typed reference — the "1"-side of an association.
    Ref(RefTarget),
    /// `SET_OF (REF_TO (target)) (card)` — the "n"-side.
    RefSet(RefTarget, Cardinality),
    /// Named components (e.g. `placement: RECORD x,y,z: REAL END`).
    Record(Vec<(String, AttrType)>),
    /// Fixed-length positional collection (`ARRAY`, also used for domain
    /// shorthands like `HULL_DIM(3)` in Fig. 2.3).
    Array(Box<AttrType>, usize),
    /// `SET_OF` over non-reference elements.
    SetOf(Box<AttrType>, Cardinality),
    /// `LIST_OF`: ordered repeating group.
    ListOf(Box<AttrType>, Cardinality),
}

impl AttrType {
    /// Convenience: single reference.
    pub fn reference(type_name: &str, attr_name: &str) -> AttrType {
        AttrType::Ref(RefTarget::new(type_name, attr_name))
    }

    /// Convenience: reference set with cardinality.
    pub fn ref_set(type_name: &str, attr_name: &str, card: Cardinality) -> AttrType {
        AttrType::RefSet(RefTarget::new(type_name, attr_name), card)
    }

    /// The association target if this attribute participates in one.
    pub fn ref_target(&self) -> Option<&RefTarget> {
        match self {
            AttrType::Ref(t) | AttrType::RefSet(t, _) => Some(t),
            _ => None,
        }
    }

    /// True for `Ref` and `RefSet`.
    pub fn is_reference(&self) -> bool {
        self.ref_target().is_some()
    }

    /// True if the n-side (set-valued) of an association.
    #[cfg(test)]
    pub fn is_ref_set(&self) -> bool {
        matches!(self, AttrType::RefSet(..))
    }

    /// `(declared cardinality, actual length)` if this attribute is a
    /// repeating group and the value is present.
    pub fn cardinality_of(&self, v: &Value) -> Option<(Cardinality, usize)> {
        match (self, v) {
            (AttrType::RefSet(_, c), Value::RefSet(xs)) => Some((*c, xs.len())),
            (AttrType::SetOf(_, c), Value::Set(xs)) => Some((*c, xs.len())),
            (AttrType::ListOf(_, c), Value::List(xs)) => Some((*c, xs.len())),
            _ => None,
        }
    }

    /// Structural type check of a value against this declared type.
    /// `Null` passes everywhere except `Identifier`: attributes may be
    /// assigned selectively (Section 3.2).
    pub fn check_value(&self, v: &Value) -> Result<(), String> {
        match (self, v) {
            (AttrType::Identifier, Value::Id(_)) => Ok(()),
            (AttrType::Identifier, other) => {
                Err(format!("IDENTIFIER requires a surrogate, got {:?}", other.kind()))
            }
            (_, Value::Null) => Ok(()),
            (AttrType::Integer, Value::Int(_)) => Ok(()),
            (AttrType::Real, Value::Real(_)) | (AttrType::Real, Value::Int(_)) => Ok(()),
            (AttrType::Boolean, Value::Bool(_)) => Ok(()),
            (AttrType::CharVar, Value::Str(_)) => Ok(()),
            (AttrType::Char(n), Value::Str(s)) => {
                if s.chars().count() <= *n {
                    Ok(())
                } else {
                    Err(format!("CHAR({n}) got string of length {}", s.chars().count()))
                }
            }
            (AttrType::Ref(_), Value::Ref(_)) => Ok(()),
            (AttrType::RefSet(..), Value::RefSet(_)) => Ok(()),
            (AttrType::Record(fields), Value::Record(vals)) => {
                if fields.len() != vals.len() {
                    return Err(format!(
                        "RECORD arity mismatch: declared {}, got {}",
                        fields.len(),
                        vals.len()
                    ));
                }
                for ((fname, fty), (vname, vval)) in fields.iter().zip(vals) {
                    if fname != vname {
                        return Err(format!("RECORD field '{vname}' where '{fname}' declared"));
                    }
                    fty.check_value(vval)?;
                }
                Ok(())
            }
            (AttrType::Array(elem, n), Value::Array(vals)) => {
                if vals.len() != *n {
                    return Err(format!("ARRAY({n}) got {} elements", vals.len()));
                }
                vals.iter().try_for_each(|x| elem.check_value(x))
            }
            (AttrType::SetOf(elem, _), Value::Set(vals))
            | (AttrType::ListOf(elem, _), Value::List(vals)) => {
                vals.iter().try_for_each(|x| elem.check_value(x))
            }
            (decl, got) => Err(format!("declared {decl}, got {:?}", got.kind())),
        }
    }

    /// A canonical "unset" value of this type.
    pub fn null_value(&self) -> Value {
        match self {
            AttrType::Ref(_) => Value::Ref(None),
            AttrType::RefSet(..) => Value::RefSet(Vec::new()),
            AttrType::SetOf(..) => Value::Set(Vec::new()),
            AttrType::ListOf(..) => Value::List(Vec::new()),
            _ => Value::Null,
        }
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrType::Identifier => write!(f, "IDENTIFIER"),
            AttrType::Integer => write!(f, "INTEGER"),
            AttrType::Real => write!(f, "REAL"),
            AttrType::Boolean => write!(f, "BOOLEAN"),
            AttrType::CharVar => write!(f, "CHAR_VAR"),
            AttrType::Char(n) => write!(f, "CHAR({n})"),
            AttrType::Ref(t) => write!(f, "REF_TO ({t})"),
            AttrType::RefSet(t, c) => write!(f, "SET_OF (REF_TO ({t})) {c}"),
            AttrType::Record(fields) => {
                write!(f, "RECORD ")?;
                for (i, (n, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {t}")?;
                }
                write!(f, " END")
            }
            AttrType::Array(t, n) => write!(f, "ARRAY({n}) OF {t}"),
            AttrType::SetOf(t, c) => write!(f, "SET_OF ({t}) {c}"),
            AttrType::ListOf(t, c) => write!(f, "LIST_OF ({t}) {c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AtomId;

    #[test]
    fn cardinality_contains() {
        assert!(Cardinality::var(2).contains(2));
        assert!(Cardinality::var(2).contains(1000));
        assert!(!Cardinality::var(2).contains(1));
        assert!(Cardinality::exact(3).contains(3));
        assert!(!Cardinality::exact(3).contains(4));
        assert!(Cardinality::range(1, 4).contains(4));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Cardinality::var(4).to_string(), "(4,VAR)");
        let t = AttrType::ref_set("face", "brep", Cardinality::var(4));
        assert_eq!(t.to_string(), "SET_OF (REF_TO (face.brep)) (4,VAR)");
        assert_eq!(AttrType::reference("solid", "brep").to_string(), "REF_TO (solid.brep)");
    }

    #[test]
    fn check_scalars() {
        assert!(AttrType::Integer.check_value(&Value::Int(3)).is_ok());
        assert!(AttrType::Integer.check_value(&Value::Real(3.0)).is_err());
        assert!(AttrType::Real.check_value(&Value::Int(3)).is_ok(), "int widens to real");
        assert!(AttrType::CharVar.check_value(&Value::Str("x".into())).is_ok());
        assert!(AttrType::Char(2).check_value(&Value::Str("abc".into())).is_err());
        assert!(AttrType::Boolean.check_value(&Value::Null).is_ok(), "null allowed");
        assert!(AttrType::Identifier.check_value(&Value::Null).is_err());
    }

    #[test]
    fn check_record_structure() {
        let placement = AttrType::Record(vec![
            ("x_coord".into(), AttrType::Real),
            ("y_coord".into(), AttrType::Real),
            ("z_coord".into(), AttrType::Real),
        ]);
        let good = Value::Record(vec![
            ("x_coord".into(), Value::Real(0.0)),
            ("y_coord".into(), Value::Real(1.0)),
            ("z_coord".into(), Value::Real(2.0)),
        ]);
        placement.check_value(&good).unwrap();
        let wrong_name = Value::Record(vec![
            ("x".into(), Value::Real(0.0)),
            ("y_coord".into(), Value::Real(1.0)),
            ("z_coord".into(), Value::Real(2.0)),
        ]);
        assert!(placement.check_value(&wrong_name).is_err());
        let wrong_arity = Value::Record(vec![("x_coord".into(), Value::Real(0.0))]);
        assert!(placement.check_value(&wrong_arity).is_err());
    }

    #[test]
    fn check_array_and_groups() {
        let hull = AttrType::Array(Box::new(AttrType::Real), 3);
        assert!(hull
            .check_value(&Value::Array(vec![Value::Real(1.0), Value::Real(2.0), Value::Real(3.0)]))
            .is_ok());
        assert!(hull.check_value(&Value::Array(vec![Value::Real(1.0)])).is_err());
        let tags = AttrType::SetOf(Box::new(AttrType::CharVar), Cardinality::any());
        assert!(tags.check_value(&Value::Set(vec![Value::Str("a".into())])).is_ok());
        assert!(tags.check_value(&Value::Set(vec![Value::Int(1)])).is_err());
    }

    #[test]
    fn null_values_by_type() {
        assert_eq!(AttrType::reference("a", "b").null_value(), Value::Ref(None));
        assert_eq!(
            AttrType::ref_set("a", "b", Cardinality::any()).null_value(),
            Value::RefSet(vec![])
        );
        assert_eq!(AttrType::Integer.null_value(), Value::Null);
    }

    #[test]
    fn ref_value_checks() {
        let r = AttrType::reference("a", "b");
        assert!(r.check_value(&Value::Ref(Some(AtomId::new(1, 1)))).is_ok());
        assert!(r.check_value(&Value::RefSet(vec![])).is_err());
    }
}
