//! Processing plans (the internal query representation of Section 3.1).
//!
//! "Query preparation creates a finer grained processing plan adding
//! functional descriptors for sorting, duplicate elimination, evaluation
//! of qualified projection, molecule join as well as recursion."
//!
//! [`ResolvedQuery`] is that internal form: the resolved hierarchical
//! structure with per-edge associations, the pushed-down root SSA, the
//! residual molecule predicate, and per-node projection descriptors.
//! The molecule-type-specific access decision ("a molecule-type-specific
//! optimization has to be aware of access methods, sort orders,
//! partitions of atom types, and physical clusters") is taken per
//! execution by `exec::find_roots`, which reports it as attributes of the
//! statement profile's root-access span (`path`, `roots`, `cluster`).

use prima_access::ssa::Ssa;
use prima_mad::mql::Predicate;
use prima_mad::schema::Association;
use prima_mad::value::{AtomTypeId, Value};

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

/// The validated, resolved internal query form.
#[derive(Debug, Clone)]
pub struct ResolvedQuery {
    /// Pre-order node list; node 0 is the root.
    pub nodes: Vec<ResolvedNode>,
    /// Molecule-type aliases from inlining: `(name, node index)`.
    pub aliases: Vec<(String, usize)>,
    pub select: ResolvedSelect,
    /// Conjuncts decidable on the root atom, pushed down to the root
    /// access.
    pub root_ssa: Ssa,
    /// Remaining predicate, evaluated per assembled molecule.
    pub residual: Option<Predicate>,
    /// Attribute names of the root atom type (for cheap lookup without a
    /// schema reference).
    pub root_attrs: Vec<String>,
}

impl ResolvedQuery {
    /// First node with the given label.
    pub fn node_by_label(&self, label: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.label == label)
    }

    /// Attribute index on the root type, via the schema-resolved label.
    /// (The schema is not stored here; validation pre-resolves attribute
    /// existence, and execution carries the schema. This helper is backed
    /// by the root SSA conversion, which resolves through the query's
    /// side schema view set during validation.)
    pub fn root_attr_index(&self, attr: &str) -> Option<usize> {
        self.root_attrs.iter().position(|a| a == attr)
    }

    /// Whether any node is recursive.
    pub fn is_recursive(&self) -> bool {
        self.nodes.iter().any(|n| n.recursive)
    }

    /// A copy of the plan with every parameter placeholder replaced by
    /// its bound value — the cheap per-execution step of a prepared
    /// statement (structure resolution, pushdown split and projection
    /// descriptors are reused verbatim; only predicate values change).
    pub fn bind_params(&self, params: &[prima_mad::value::Value]) -> ResolvedQuery {
        let mut bound = self.clone();
        bound.root_ssa = self.root_ssa.bind(params);
        bound.residual = self.residual.as_ref().map(|p| p.bind_params(params));
        bound
    }

    /// Whether the plan still contains unbound parameter placeholders.
    pub fn has_params(&self) -> bool {
        self.root_ssa.has_params()
            || self
                .residual
                .as_ref()
                .is_some_and(|p| !p.param_slots().is_empty())
    }
}

/// A literal bound extracted from the root SSA (used to route to access
/// paths): `attr op value`.
#[derive(Debug, Clone, PartialEq)]
pub struct RootBound {
    pub attr: usize,
    pub op: prima_access::CmpOp,
    pub value: Value,
}

/// Extracts simple comparison conjuncts from an SSA (helper for root
/// access planning).
pub fn root_bounds(ssa: &Ssa) -> Vec<RootBound> {
    let mut out = Vec::new();
    collect_bounds(ssa, &mut out);
    out
}

fn collect_bounds(ssa: &Ssa, out: &mut Vec<RootBound>) {
    match ssa {
        Ssa::Cmp { attr, op, value } => {
            out.push(RootBound { attr: *attr, op: *op, value: value.clone() });
        }
        Ssa::And(ts) => ts.iter().for_each(|t| collect_bounds(t, out)),
        _ => {}
    }
}
