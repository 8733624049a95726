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
//! The molecule-type-specific access decision ("a molecule-type-specific
//! optimization has to be aware of access methods, sort orders,
//! partitions of atom types, and physical clusters") is taken per
//! execution by `exec::find_roots`, which reports it as attributes of the
//! statement profile's root-access span (`path`, `roots`, `cluster`). A
//! cached plan therefore never goes stale when LDL adds a structure.

use super::molecule::NodeInfo;
use prima_access::ssa::Ssa;
use prima_mad::mql::{CompRef, Insert, Predicate, ValueExpr};
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
    /// Attribute names of the root atom type (for cheap lookup without a
    /// schema reference).
    pub root_attrs: Vec<String>,
    /// The result's node table ([`super::MoleculeSet::nodes`]), built
    /// once and shared by every result.
    pub node_infos: Arc<[NodeInfo]>,
    /// Per node, the attributes its projection keeps: the selected ones
    /// plus the identifier (`None`: the whole atom). Built once from
    /// `select`, so projecting a molecule builds no attribute list.
    pub kept: Vec<Option<Vec<usize>>>,
}

impl PlanShape {
    /// First node with the given label.
    pub fn node_by_label(&self, label: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.label == label)
    }

    /// Attribute index on the root type.
    pub fn root_attr_index(&self, attr: &str) -> Option<usize> {
        self.root_attrs.iter().position(|a| a == attr)
    }

    /// Whether any node is recursive.
    pub fn is_recursive(&self) -> bool {
        self.nodes.iter().any(|n| n.recursive)
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
    pub residual: Option<Predicate>,
}

impl Deref for ResolvedQuery {
    type Target = PlanShape;

    fn deref(&self) -> &PlanShape {
        &self.shape
    }
}

impl ResolvedQuery {
    /// The plan with every parameter placeholder replaced by its bound
    /// value — the per-execution step of a compiled statement. The shape
    /// is shared, not copied; only the predicates are.
    pub fn bind(&self, params: &[Value]) -> ResolvedQuery {
        ResolvedQuery {
            shape: Arc::clone(&self.shape),
            root_ssa: self.root_ssa.bind(params),
            residual: self.residual.as_ref().map(|p| p.bind_params(params)),
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
    /// `qualification` selects the molecules the DELETE removes (only
    /// the named components with `DELETE ONLY`).
    Delete { qualification: ResolvedQuery, only_components: Option<Vec<String>> },
    /// `qualification` selects the molecules the MODIFY changes.
    Modify { qualification: ResolvedQuery, assignments: Vec<(CompRef, Assignment)> },
}

/// The right-hand side of a compiled MODIFY assignment.
#[derive(Debug)]
pub enum Assignment {
    Value(ValueExpr),
    /// Adds references to the roots of the sub-query's molecules.
    Connect(ResolvedQuery),
    /// Removes references to the roots of the sub-query's molecules.
    Disconnect(ResolvedQuery),
}

/// A literal bound of the root SSA (used to route to access paths):
/// `attr op value`, borrowed from the SSA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootBound<'a> {
    pub attr: usize,
    pub op: prima_access::CmpOp,
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
