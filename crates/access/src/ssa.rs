//! Simple search arguments (SSAs).
//!
//! Scans accept a "simple search argument decidable on each atom"
//! (Section 3.2) — a predicate over one atom's attribute values, with no
//! cross-atom references. The data system pushes qualifications down to
//! scans in this form ("qualifications 'pushed down' for efficiency
//! reasons", Section 3.1).

use crate::atom::Atom;
use prima_mad::value::Value;
use std::cmp::Ordering;

/// Comparison operators available in SSAs (and reused by MQL's simple
/// terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn eval(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with operand sides swapped (`a op b` ⇔ `b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A simple search argument over one atom.
#[derive(Debug, Clone, PartialEq)]
pub enum Ssa {
    /// Always true (no restriction).
    True,
    /// `attr op constant`.
    Cmp { attr: usize, op: CmpOp, value: Value },
    /// `attr op ?slot` — a prepared-statement parameter that has not been
    /// bound yet. [`Ssa::bind`] turns it into [`Ssa::Cmp`]; evaluating an
    /// unbound parameter matches nothing (prepared execution always binds
    /// before running).
    CmpParam { attr: usize, op: CmpOp, slot: u16 },
    /// `attr = EMPTY` — null / unset reference / empty set (Table 2.1c).
    IsEmpty { attr: usize },
    /// `attr <> EMPTY`.
    NotEmpty { attr: usize },
    /// The set-valued attribute contains the given reference/value.
    Contains { attr: usize, value: Value },
    And(Vec<Ssa>),
    Or(Vec<Ssa>),
    Not(Box<Ssa>),
}

impl Ssa {
    /// Evaluates against an atom's attribute values. Attributes projected
    /// away (Null) behave like SQL: comparisons against them are false.
    /// Only the attributes the SSA touches are read, so an atom still in
    /// its record image decodes just those.
    pub fn eval(&self, atom: &Atom) -> bool {
        match self {
            Ssa::True => true,
            Ssa::Cmp { attr, op, value } => match atom.value(*attr).as_deref() {
                None | Some(Value::Null) => false,
                Some(v) => op.eval(v.total_cmp(value)),
            },
            Ssa::CmpParam { .. } => false,
            Ssa::IsEmpty { attr } => atom.value(*attr).is_some_and(|v| v.is_empty_like()),
            Ssa::NotEmpty { attr } => atom.value(*attr).is_some_and(|v| !v.is_empty_like()),
            Ssa::Contains { attr, value } => match atom.value(*attr).as_deref() {
                Some(Value::RefSet(ids)) => match value {
                    Value::Ref(Some(id)) | Value::Id(id) => ids.contains(id),
                    _ => false,
                },
                Some(Value::Set(vs)) | Some(Value::List(vs)) | Some(Value::Array(vs)) => {
                    vs.iter().any(|v| v.sem_eq(value))
                }
                _ => false,
            },
            Ssa::And(ts) => ts.iter().all(|t| t.eval(atom)),
            Ssa::Or(ts) => ts.iter().any(|t| t.eval(atom)),
            Ssa::Not(t) => !t.eval(atom),
        }
    }

    /// Convenience: equality SSA.
    #[cfg(test)]
    pub fn eq(attr: usize, value: Value) -> Ssa {
        Ssa::Cmp { attr, op: CmpOp::Eq, value }
    }

    /// Conjunction helper that flattens nested `And`s and drops `True`s.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    pub fn and(terms: Vec<Ssa>) -> Ssa {
        let mut flat = Vec::new();
        for t in terms {
            match t {
                Ssa::True => {}
                Ssa::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Ssa::True,
            // lint: allow(error-hygiene, this match arm runs only when flat.len() == 1)
            1 => flat.pop().unwrap(),
            _ => Ssa::And(flat),
        }
    }

    /// A copy with every [`Ssa::CmpParam`] replaced by a concrete
    /// [`Ssa::Cmp`] against the bound parameter values (prepared-statement
    /// execution; slots out of range stay unbound).
    pub fn bind(&self, params: &[Value]) -> Ssa {
        match self {
            Ssa::CmpParam { attr, op, slot } => match params.get(*slot as usize) {
                Some(v) => Ssa::Cmp { attr: *attr, op: *op, value: v.clone() },
                None => self.clone(),
            },
            Ssa::And(ts) => Ssa::And(ts.iter().map(|t| t.bind(params)).collect()),
            Ssa::Or(ts) => Ssa::Or(ts.iter().map(|t| t.bind(params)).collect()),
            Ssa::Not(t) => Ssa::Not(Box::new(t.bind(params))),
            leaf => leaf.clone(),
        }
    }

    /// Whether any unbound parameter placeholder remains.
    pub fn has_params(&self) -> bool {
        match self {
            Ssa::CmpParam { .. } => true,
            Ssa::And(ts) | Ssa::Or(ts) => ts.iter().any(Ssa::has_params),
            Ssa::Not(t) => t.has_params(),
            _ => false,
        }
    }

    /// Attribute indices the SSA touches (used for partition routing: a
    /// partition can decide an SSA only if it stores all touched
    /// attributes).
    pub fn attrs(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_attrs(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_attrs(&self, out: &mut Vec<usize>) {
        match self {
            Ssa::True => {}
            Ssa::Cmp { attr, .. }
            | Ssa::CmpParam { attr, .. }
            | Ssa::IsEmpty { attr }
            | Ssa::NotEmpty { attr }
            | Ssa::Contains { attr, .. } => out.push(*attr),
            Ssa::And(ts) | Ssa::Or(ts) => ts.iter().for_each(|t| t.collect_attrs(out)),
            Ssa::Not(t) => t.collect_attrs(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_mad::value::AtomId;

    /// An atom read back from its record, so an SSA reads its
    /// attributes from the image one by one.
    fn atom(values: Vec<Value>) -> Atom {
        Atom::decode(&Atom::new(AtomId::new(0, 1), values).encode()).unwrap()
    }

    #[test]
    fn cmp_semantics() {
        let a = atom(vec![Value::Int(10), Value::Str("cube".into())]);
        assert!(Ssa::Cmp { attr: 0, op: CmpOp::Gt, value: Value::Int(5) }.eval(&a));
        assert!(Ssa::Cmp { attr: 0, op: CmpOp::Le, value: Value::Real(10.0) }.eval(&a));
        assert!(!Ssa::Cmp { attr: 0, op: CmpOp::Ne, value: Value::Int(10) }.eval(&a));
        assert!(Ssa::eq(1, Value::Str("cube".into())).eval(&a));
    }

    #[test]
    fn null_comparisons_are_false() {
        let a = atom(vec![Value::Null]);
        assert!(!Ssa::eq(0, Value::Int(0)).eval(&a));
        assert!(!Ssa::Cmp { attr: 0, op: CmpOp::Ne, value: Value::Int(0) }.eval(&a));
        // But IsEmpty sees it.
        assert!(Ssa::IsEmpty { attr: 0 }.eval(&a));
    }

    #[test]
    fn empty_and_contains() {
        let a = atom(vec![
            Value::RefSet(vec![]),
            Value::ref_set(vec![AtomId::new(1, 5)]),
            Value::List(vec![Value::Int(1), Value::Int(2)]),
        ]);
        assert!(Ssa::IsEmpty { attr: 0 }.eval(&a));
        assert!(Ssa::NotEmpty { attr: 1 }.eval(&a));
        assert!(Ssa::Contains { attr: 1, value: Value::Ref(Some(AtomId::new(1, 5))) }.eval(&a));
        assert!(!Ssa::Contains { attr: 1, value: Value::Ref(Some(AtomId::new(1, 6))) }.eval(&a));
        assert!(Ssa::Contains { attr: 2, value: Value::Int(2) }.eval(&a));
    }

    #[test]
    fn boolean_combinators() {
        let a = atom(vec![Value::Int(3)]);
        let lt5 = Ssa::Cmp { attr: 0, op: CmpOp::Lt, value: Value::Int(5) };
        let gt4 = Ssa::Cmp { attr: 0, op: CmpOp::Gt, value: Value::Int(4) };
        assert!(Ssa::And(vec![lt5.clone(), Ssa::Not(Box::new(gt4.clone()))]).eval(&a));
        assert!(Ssa::Or(vec![gt4, lt5]).eval(&a));
        assert!(Ssa::True.eval(&a));
    }

    #[test]
    fn and_flattening() {
        let t = Ssa::and(vec![
            Ssa::True,
            Ssa::and(vec![Ssa::eq(0, Value::Int(1)), Ssa::True]),
            Ssa::eq(1, Value::Int(2)),
        ]);
        match &t {
            Ssa::And(xs) => assert_eq!(xs.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
        assert_eq!(Ssa::and(vec![]), Ssa::True);
        assert_eq!(Ssa::and(vec![Ssa::eq(0, Value::Int(1))]), Ssa::eq(0, Value::Int(1)));
    }

    #[test]
    fn attrs_collection() {
        let t = Ssa::And(vec![
            Ssa::eq(2, Value::Int(1)),
            Ssa::Or(vec![Ssa::IsEmpty { attr: 0 }, Ssa::eq(2, Value::Int(9))]),
        ]);
        assert_eq!(t.attrs(), vec![0, 2]);
    }

    #[test]
    fn param_binding() {
        let a = atom(vec![Value::Int(10)]);
        let p = Ssa::And(vec![
            Ssa::CmpParam { attr: 0, op: CmpOp::Eq, slot: 0 },
            Ssa::True,
        ]);
        assert!(p.has_params());
        assert!(!p.eval(&a), "unbound parameters match nothing");
        let bound = p.bind(&[Value::Int(10)]);
        assert!(!bound.has_params());
        assert!(bound.eval(&a));
        assert!(!p.bind(&[Value::Int(11)]).eval(&a));
        // Out-of-range slots stay unbound.
        assert!(Ssa::CmpParam { attr: 0, op: CmpOp::Eq, slot: 3 }
            .bind(&[Value::Int(1)])
            .has_params());
    }

    #[test]
    fn flip_is_involutive_on_order_ops() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.flip().flip(), op);
        }
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
    }
}
