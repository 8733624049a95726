//! Abstract syntax of MQL.
//!
//! MQL "follows the examples of SQL \[X3H286\] and its derivates" (Section
//! 2.2). The constructs covered are exactly those exercised by Table 2.1
//! plus the manipulation statements the paper describes prose-wise
//! (molecule insertion, deletion, modification; component connection and
//! disconnection — the paper gives no concrete syntax for these, so
//! theirs is our reconstruction).

use crate::schema::MoleculeGraph;
use crate::value::Value;
use std::fmt;

/// Any MQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Query),
    Insert(Insert),
    Delete(Delete),
    Modify(Modify),
}

/// A `SELECT … FROM … [WHERE …]` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub select: SelectList,
    /// The FROM clause: either a named molecule type or an inline
    /// structure expression.
    pub from: FromClause,
    pub predicate: Option<Predicate>,
}

/// The FROM clause before resolution.
#[derive(Debug, Clone, PartialEq)]
pub enum FromClause {
    /// A structure expression (`brep-face-edge-point`,
    /// `brep-edge (face, point)`, `solid.sub-solid (RECURSIVE)`), kept as
    /// a molecule graph whose component names may still refer to named
    /// molecule types.
    Structure(MoleculeGraph),
}

impl FromClause {
    pub fn graph(&self) -> &MoleculeGraph {
        match self {
            FromClause::Structure(g) => g,
        }
    }
}

/// The SELECT clause.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectList {
    /// `SELECT ALL` — the whole molecule.
    All,
    /// Explicit projection items.
    Items(Vec<SelectItem>),
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A whole component by name (`edge`, `point`) — unqualified
    /// projection of that component's atoms.
    Component(String),
    /// A single attribute (`solid_no`, or qualified `edge.length`).
    Attr(CompRef),
    /// Qualified projection (`face := SELECT … FROM face WHERE …`,
    /// Table 2.1d): only component atoms satisfying the nested query
    /// qualify, projected by its select list.
    Qualified { component: String, query: Box<Query> },
    /// Parenthesised group of items (Table 2.1d writes
    /// `edge, (point, face := …)`); grouping is structural sugar and is
    /// flattened during validation.
    Group(Vec<SelectItem>),
}

/// A reference to a component('s attribute) inside predicates and
/// projections: `brep_no`, `edge.length`, `piece_list (0).solid_no`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompRef {
    /// Component (atom type or molecule type) name; `None` means
    /// "resolve against the root / unique owner".
    pub component: Option<String>,
    /// Recursion level for seed qualification (`piece_list (0)`).
    pub level: Option<u32>,
    /// Attribute name.
    pub attr: String,
}

impl fmt::Display for CompRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(c) = &self.component {
            write!(f, "{c}")?;
            if let Some(l) = self.level {
                write!(f, " ({l})")?;
            }
            write!(f, ".")?;
        }
        write!(f, "{}", self.attr)
    }
}

/// Comparison operators of MQL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A WHERE-clause predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `ref op literal` or `ref op ref` (same-atom comparisons).
    Compare { left: Operand, op: CompareOp, right: Operand },
    /// `ref = EMPTY` (Table 2.1c).
    IsEmpty(CompRef),
    /// `ref <> EMPTY`.
    NotEmpty(CompRef),
    And(Vec<Predicate>),
    Or(Vec<Predicate>),
    Not(Box<Predicate>),
    /// `EXISTS_AT_LEAST (n) component: predicate` (Table 2.1d).
    ExistsAtLeast { n: u32, component: String, inner: Box<Predicate> },
    /// `FOR_ALL component: predicate` — "the ALL-quantifier could also be
    /// used".
    ForAll { component: String, inner: Box<Predicate> },
}

/// A comparison operand.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    Ref(CompRef),
    Literal(Value),
    /// A parameter placeholder (`?` or `:name`) by slot index; the slot
    /// table lives with the prepared statement
    /// ([`crate::mql::parse_statement_params`]).
    Param(u16),
}

/// A literal-or-parameter in value positions of DML statements
/// (`INSERT t (attr: ?)`, `MODIFY … SET attr = :v`).
#[derive(Debug, Clone, PartialEq)]
pub enum ValueExpr {
    Lit(Value),
    Param(u16),
}

impl From<Value> for ValueExpr {
    fn from(v: Value) -> Self {
        ValueExpr::Lit(v)
    }
}

/// `INSERT <atom type> (attr: value, …) [INTO <component ref of parent>]`
/// — molecule/component insertion; connections are established through
/// the reference-valued attribute assignments (back-references follow
/// automatically).
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub atom_type: String,
    pub assignments: Vec<(String, ValueExpr)>,
}

/// `DELETE FROM <structure> WHERE …` — removes the qualifying molecules
/// (all component atoms reachable in the molecule structure), thereby
/// automatically disconnecting them.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub from: FromClause,
    pub predicate: Option<Predicate>,
    /// `DELETE ONLY (a, b) FROM …`: restrict removal to the named
    /// components, disconnecting them from the surrounding molecule
    /// (component deletion).
    pub only_components: Option<Vec<String>>,
}

/// `MODIFY <structure> SET comp.attr = value, … WHERE …` — attribute
/// modification on qualifying molecules' components; assignments to
/// reference attributes connect/disconnect components.
#[derive(Debug, Clone, PartialEq)]
pub struct Modify {
    pub from: FromClause,
    pub predicate: Option<Predicate>,
    pub assignments: Vec<(CompRef, SetExpr)>,
}

/// Right-hand side of a MODIFY assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    Value(ValueExpr),
    /// `CONNECT TO (<query>)`: add references to the atoms selected by a
    /// sub-query (component connection).
    Connect(Box<Query>),
    /// `DISCONNECT (<query>)`: remove references.
    Disconnect(Box<Query>),
}

impl Predicate {
    /// Conjunction constructor flattening nested ANDs.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    pub fn and(terms: Vec<Predicate>) -> Predicate {
        let mut flat = Vec::new();
        for t in terms {
            match t {
                Predicate::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            // lint: allow(error-hygiene, guarded by the len == 1 check on the preceding line)
            flat.pop().unwrap()
        } else {
            Predicate::And(flat)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comp_ref_display() {
        let r = CompRef { component: Some("piece_list".into()), level: Some(0), attr: "solid_no".into() };
        assert_eq!(r.to_string(), "piece_list (0).solid_no");
        let r = CompRef { component: None, level: None, attr: "brep_no".into() };
        assert_eq!(r.to_string(), "brep_no");
    }

    #[test]
    fn and_flattens() {
        let a = Predicate::IsEmpty(CompRef { component: None, level: None, attr: "sub".into() });
        let b = Predicate::NotEmpty(CompRef { component: None, level: None, attr: "sup".into() });
        let p = Predicate::and(vec![a.clone(), Predicate::and(vec![b.clone()])]);
        assert_eq!(p, Predicate::And(vec![a.clone(), b]));
        assert_eq!(Predicate::and(vec![a.clone()]), a);
    }
}
