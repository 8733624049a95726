//! Processing plans (the internal query representation of Section 3.1).
//!
//! "Query preparation creates a finer grained processing plan adding
//! functional descriptors for sorting, duplicate elimination, evaluation
//! of qualified projection, molecule join as well as recursion."
//!
//! A statement is compiled into its plan once and run many times: a
//! prepared statement keeps its [`StatementPlan`], and a session's plan
//! cache keeps the plans of ad-hoc texts. [`ResolvedQuery`] is the plan
//! of a SELECT (and of the queries a DELETE or MODIFY runs). Its
//! [`PlanShape`] — the resolved hierarchical structure with per-edge
//! associations, the per-node projection descriptors and the result's
//! node table — is shared through an `Arc` by every execution; the
//! pushed-down root SSA and the residual molecule predicate are the only
//! parts binding parameters changes ([`ResolvedQuery::bind`]).
//!
//! A plan holds no names to resolve: every reference of a WHERE clause,
//! quantifier, DELETE ONLY list and MODIFY target was resolved to node and
//! attribute indices when the statement was compiled, so executing it
//! looks nothing up in the schema.
//!
//! The molecule-type-specific access decision ("a molecule-type-specific
//! optimization has to be aware of access methods, sort orders,
//! partitions of atom types, and physical clusters") is taken per
//! execution by `exec::find_roots`, which reports it as attributes of the
//! statement profile's root-access span (`path`, `roots`, `cluster`). A
//! cached plan therefore never goes stale when LDL adds a structure.

use super::molecule::NodeInfo;
use crate::error::{PrimaError, PrimaResult};
use prima_access::ssa::{CmpOp, Ssa};
use prima_mad::mql::{Insert, ValueExpr};
use prima_mad::schema::Association;
use prima_mad::value::{AtomTypeId, Value};
use std::ops::Deref;
use std::sync::Arc;

/// One resolved structure node.
#[derive(Debug, Clone)]
pub struct ResolvedNode {
    /// The component label (the atom type name as written in FROM).
    pub label: String,
    pub atom_type: AtomTypeId,
    /// Association used to reach this node from its parent (`None` for
    /// the root). `via.from` is the parent-side reference attribute.
    pub via: Option<Association>,
    /// Recursive edge: the node re-expands level by level.
    pub recursive: bool,
    pub parent: Option<usize>,
    pub children: Vec<usize>,
}

/// Per-node projection descriptor ("evaluation of qualified projection").
#[derive(Debug, Clone, PartialEq)]
pub enum NodeProjection {
    /// Keep the whole atom.
    All,
    /// Keep only these attribute indices.
    Attrs(Vec<usize>),
    /// Qualified projection: keep only atoms satisfying `ssa`, projected
    /// onto `attrs` (`None` = all attributes).
    Qualified { attrs: Option<Vec<usize>>, ssa: Ssa },
    /// Component not selected: the atom stays in the structure as an
    /// identifier-only skeleton.
    Exclude,
}

/// Resolved SELECT clause.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResolvedSelect {
    pub per_node: Vec<NodeProjection>,
}

/// The parts of a plan no parameter changes, shared by every execution.
#[derive(Debug)]
pub struct PlanShape {
    /// Pre-order node list; node 0 is the root.
    pub nodes: Vec<ResolvedNode>,
    /// Molecule-type aliases from inlining: `(name, node index)`.
    pub aliases: Vec<(String, usize)>,
    pub select: ResolvedSelect,
    /// The root type's `KEYS_ARE` attributes, `(index, name)`: an
    /// equality on one of them is a key lookup.
    pub root_keys: Vec<(usize, String)>,
    /// The result's node table ([`super::MoleculeSet::nodes`]), built
    /// once and shared by every result.
    pub node_infos: Arc<[NodeInfo]>,
    /// Per node, the attributes its projection keeps: the selected ones
    /// plus the identifier (`None`: the whole atom). Built once from
    /// `select`, so projecting a molecule builds no attribute list.
    pub kept: Vec<Option<Vec<usize>>>,
}

impl PlanShape {
    /// Whether any node is recursive.
    pub fn is_recursive(&self) -> bool {
        self.nodes.iter().any(|n| n.recursive)
    }
}

/// The atoms of a molecule a residual term ranges over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Atoms {
    /// The atoms at one structure node.
    Node(usize),
    /// The atoms of one type at one recursion level (a level reference:
    /// in a recursive structure one atom type backs several nodes).
    Level { atom_type: AtomTypeId, level: u32 },
}

/// The residual molecule predicate: the WHERE terms not decidable on the
/// root atom, compiled against the plan's nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Residual {
    And(Vec<Residual>),
    Or(Vec<Residual>),
    Not(Box<Residual>),
    /// At least `n` of `atoms` satisfy `ssa`. A component comparison is
    /// `n = 1` (existential), `EXISTS_AT_LEAST (n)` counts.
    AtLeast { n: u32, atoms: Atoms, ssa: Ssa },
    /// Every atom of `atoms` satisfies `ssa` (`FOR_ALL`).
    ForAll { atoms: Atoms, ssa: Ssa },
    /// Reference-to-reference: some value of `left` and some value of
    /// `right`, each `(atoms, attribute index)`, satisfy `op`.
    Refs { left: (Atoms, usize), op: CmpOp, right: (Atoms, usize) },
    /// `left op right` on two values; a slot not bound matches nothing.
    Values { left: ValueExpr, op: CmpOp, right: ValueExpr },
}

impl Residual {
    fn bind(&self, params: &[Value]) -> Residual {
        let all = |ts: &[Residual]| ts.iter().map(|t| t.bind(params)).collect();
        let bound = |v: &ValueExpr| value(v, params).map_or_else(|_| v.clone(), ValueExpr::Lit);
        match self {
            Residual::And(ts) => Residual::And(all(ts)),
            Residual::Or(ts) => Residual::Or(all(ts)),
            Residual::Not(t) => Residual::Not(Box::new(t.bind(params))),
            Residual::AtLeast { n, atoms, ssa } => {
                Residual::AtLeast { n: *n, atoms: *atoms, ssa: ssa.bind(params) }
            }
            Residual::ForAll { atoms, ssa } => {
                Residual::ForAll { atoms: *atoms, ssa: ssa.bind(params) }
            }
            Residual::Refs { .. } => self.clone(),
            Residual::Values { left, op, right } => {
                Residual::Values { left: bound(left), op: *op, right: bound(right) }
            }
        }
    }
}

/// The concrete value of a DML value expression or residual operand
/// with `params` bound.
pub(crate) fn value(ve: &ValueExpr, params: &[Value]) -> PrimaResult<Value> {
    match ve {
        ValueExpr::Lit(v) => Ok(v.clone()),
        ValueExpr::Param(slot) => params.get(usize::from(*slot)).cloned().ok_or_else(|| {
            PrimaError::UnboundParameter {
                slot: *slot,
                detail: "prepare the statement and bind values before executing".into(),
            }
        }),
    }
}

/// The validated, resolved internal query form: a shared [`PlanShape`]
/// (reached through `Deref`) plus the predicates.
#[derive(Debug, Clone)]
pub struct ResolvedQuery {
    pub shape: Arc<PlanShape>,
    /// Conjuncts decidable on the root atom, pushed down to the root
    /// access.
    pub root_ssa: Ssa,
    /// Remaining predicate, evaluated per assembled molecule.
    pub residual: Option<Residual>,
}

impl Deref for ResolvedQuery {
    type Target = PlanShape;

    fn deref(&self) -> &PlanShape {
        &self.shape
    }
}

impl ResolvedQuery {
    /// The plan with every parameter slot replaced by its bound value —
    /// the per-execution step of a compiled statement. The shape is
    /// shared, not copied; only the predicates are.
    pub fn bind(&self, params: &[Value]) -> ResolvedQuery {
        ResolvedQuery {
            shape: Arc::clone(&self.shape),
            root_ssa: self.root_ssa.bind(params),
            residual: self.residual.as_ref().map(|r| r.bind(params)),
        }
    }
}

/// A compiled statement: a SELECT's plan, or a manipulation statement
/// with the validated plans of the queries it runs. Parameters are bound
/// per execution — into the plans by [`ResolvedQuery::bind`], into DML
/// values by slot — and the plan itself is never rebuilt.
#[derive(Debug)]
pub enum StatementPlan {
    Select(ResolvedQuery),
    /// An INSERT runs no query; its values are resolved per execution.
    Insert(Insert),
    /// `qualification` selects the molecules the DELETE removes: the
    /// atoms of the `victims` nodes (every node, unless `DELETE ONLY`).
    Delete { qualification: ResolvedQuery, victims: Vec<usize> },
    /// `qualification` selects the molecules the MODIFY changes.
    Modify { qualification: ResolvedQuery, assignments: Vec<Assignment> },
}

/// A compiled MODIFY assignment: attribute `attr` of the atoms of node
/// `node` gets `value`.
#[derive(Debug)]
pub struct Assignment {
    pub node: usize,
    pub attr: usize,
    pub value: SetValue,
}

/// The right-hand side of a compiled MODIFY assignment. CONNECT and
/// DISCONNECT target a reference attribute: a set of references when
/// `set`, a single one otherwise.
#[derive(Debug)]
pub enum SetValue {
    Value(ValueExpr),
    /// Adds references to the roots of the sub-query's molecules.
    Connect { roots: ResolvedQuery, set: bool },
    /// Removes references to the roots of the sub-query's molecules.
    Disconnect { roots: ResolvedQuery, set: bool },
}

/// A literal bound of the root SSA (used to route to access paths):
/// `attr op value`, borrowed from the SSA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootBound<'a> {
    pub attr: usize,
    pub op: CmpOp,
    pub value: &'a Value,
}

/// The first simple comparison conjunct of `ssa`, in conjunct order,
/// that `f` maps to `Some` (helper for root access planning). The
/// bounds are visited where they stand: nothing is collected or copied.
pub fn find_root_bound<'a, T>(
    ssa: &'a Ssa,
    f: &mut impl FnMut(RootBound<'a>) -> Option<T>,
) -> Option<T> {
    match ssa {
        Ssa::Cmp { attr, op, value } => f(RootBound { attr: *attr, op: *op, value }),
        Ssa::And(ts) => ts.iter().find_map(|t| find_root_bound(t, f)),
        _ => None,
    }
}
