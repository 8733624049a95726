//! Test-only reference for `SELECT ALL` queries: the naive depth-first
//! assembly walk — one `AccessSystem::read_atom` per component, an
//! ancestor *set* as the cycle guard of recursive edges — that the
//! kernel's level-batched assembler must agree with, and an evaluator of
//! the WHERE clause that reads the parsed predicate itself, resolving
//! every name on the assembled molecule. Valid on a quiescent database
//! (no version store to consult, no locks to take).
//!
//! What a WHERE clause means, as the evaluator reads it:
//! * a comparison of a component attribute with a value holds when some
//!   atom of the component satisfies it, a null value satisfying none;
//!   two references compare when some pair of their values does;
//! * a bare attribute is the root's (in a quantifier body, the
//!   quantified component's); a level reference `c (l).attr` ranges over
//!   every atom of `c`'s type at recursion level `l`;
//! * `EXISTS_AT_LEAST (n) c: p` counts `c`'s atoms satisfying `p`, and
//!   `FOR_ALL c: p` needs all of them to.

use prima::datasys::{validate, NodeProjection, ResolvedQuery};
use prima::{AccessSystem, Atom, AtomId, MolAtom, Molecule, Prima, Value};
use prima_access::CmpOp;
use prima_mad::mql::{parse_statement, CompRef, CompareOp, Operand, Predicate, Query, Statement};
use std::collections::HashSet;

/// The molecules of `mql`, ordered by root atom id.
pub fn molecules(db: &Prima, mql: &str) -> Vec<Molecule> {
    let sys = db.access();
    let query = parse_query(mql);
    // The plan gives the structure the walk follows; its predicates go
    // unused.
    let q = validate(sys.schema(), &query).unwrap();
    let select_all = q.select.per_node.iter().all(|p| *p == NodeProjection::All);
    assert!(select_all, "reference: SELECT ALL only");
    let mut ids = sys.all_ids(q.nodes[0].atom_type).unwrap();
    ids.sort();
    ids.into_iter()
        .map(|id| {
            let root = sys.read_atom(id, None).unwrap();
            let mut ancestors = HashSet::from([root.id]);
            let mut m = Molecule::new(MolAtom::new(0, 0, root));
            expand(sys, &q, &mut m, 0, &mut ancestors);
            m
        })
        .filter(|m| query.predicate.as_ref().is_none_or(|p| Where { db, q: &q, m }.holds(p)))
        .collect()
}

/// Appends the subtree below position `pos` of `m`, depth first, through
/// the constructor the kernel assembles with: a position's children
/// first (they must be appended one after the other), then each child's
/// subtree. `ancestors` is the set of recursion ids on the path to `pos`.
fn expand(
    sys: &AccessSystem,
    q: &ResolvedQuery,
    m: &mut Molecule,
    pos: usize,
    ancestors: &mut HashSet<AtomId>,
) {
    let (node, level) = (m.position(pos).node, m.position(pos).level);
    // The node's children, then — for a recursive node — its own incoming
    // edge re-applied one level deeper.
    let mut edges: Vec<(usize, bool)> =
        q.nodes[node].children.iter().map(|&c| (c, q.nodes[c].recursive)).collect();
    if q.nodes[node].recursive {
        edges.push((node, true));
    }
    let mut children = Vec::new();
    for (child, recursive) in edges {
        let attr = q.nodes[child].via.unwrap().from.attr;
        let ids = m.position(pos).atom.values.get(attr).map_or(&[][..], Value::ref_ids).to_vec();
        for id in ids {
            if recursive && ancestors.contains(&id) {
                continue;
            }
            let atom = sys.read_atom(id, None).unwrap();
            let child_level = if recursive { level + 1 } else { level };
            let at = m.push_child(pos, MolAtom::new(child, child_level, atom));
            children.push((at, recursive.then_some(id)));
        }
    }
    for (at, recursion_id) in children {
        if let Some(id) = recursion_id {
            ancestors.insert(id);
        }
        expand(sys, q, m, at, ancestors);
        if let Some(id) = recursion_id {
            ancestors.remove(&id);
        }
    }
}

/// One molecule under evaluation.
struct Where<'a> {
    db: &'a Prima,
    q: &'a ResolvedQuery,
    m: &'a Molecule,
}

impl Where<'_> {
    /// Whether the molecule satisfies `p`.
    fn holds(&self, p: &Predicate) -> bool {
        match p {
            Predicate::And(ts) => ts.iter().all(|t| self.holds(t)),
            Predicate::Or(ts) => ts.iter().any(|t| self.holds(t)),
            Predicate::Not(t) => !self.holds(t),
            Predicate::Compare { left: Operand::Ref(l), op, right: Operand::Ref(r) } => {
                let (ls, rs) = (self.values(l), self.values(r));
                ls.iter().any(|a| rs.iter().any(|b| cmp(*op).eval(a.total_cmp(b))))
            }
            Predicate::Compare { left: Operand::Ref(r), op, right: Operand::Literal(v) } => {
                self.values(r).iter().any(|a| compares(a, cmp(*op), v))
            }
            Predicate::Compare { left: Operand::Literal(v), op, right: Operand::Ref(r) } => {
                self.values(r).iter().any(|a| compares(a, cmp(*op).flip(), v))
            }
            Predicate::Compare { left: Operand::Literal(a), op, right: Operand::Literal(b) } => {
                cmp(*op).eval(a.total_cmp(b))
            }
            Predicate::Compare { .. } => panic!("reference: bind parameters into the text"),
            Predicate::IsEmpty(r) => self.values(r).iter().any(Value::is_empty_like),
            Predicate::NotEmpty(r) => self.values(r).iter().any(|v| !v.is_empty_like()),
            Predicate::ExistsAtLeast { n, component, inner } => {
                let node = self.node(component);
                let atoms = self.atoms(node, None);
                atoms.iter().filter(|a| self.body(node, inner, a)).count() >= *n as usize
            }
            Predicate::ForAll { component, inner } => {
                let node = self.node(component);
                self.atoms(node, None).iter().all(|a| self.body(node, inner, a))
            }
        }
    }

    /// Whether atom `a` of node `node` satisfies a quantifier body, whose
    /// references must all be to `node`.
    fn body(&self, node: usize, p: &Predicate, a: &Atom) -> bool {
        let value = |r: &CompRef| {
            let named = r.component.as_ref().map_or(node, |c| self.node(c));
            assert!(named == node && r.level.is_none(), "reference: body reads {r}");
            a.values[self.attr(node, r)].clone()
        };
        match p {
            Predicate::And(ts) => ts.iter().all(|t| self.body(node, t, a)),
            Predicate::Or(ts) => ts.iter().any(|t| self.body(node, t, a)),
            Predicate::Not(t) => !self.body(node, t, a),
            Predicate::Compare { left: Operand::Ref(r), op, right: Operand::Literal(v) } => {
                compares(&value(r), cmp(*op), v)
            }
            Predicate::Compare { left: Operand::Literal(v), op, right: Operand::Ref(r) } => {
                compares(&value(r), cmp(*op).flip(), v)
            }
            Predicate::IsEmpty(r) => value(r).is_empty_like(),
            Predicate::NotEmpty(r) => !value(r).is_empty_like(),
            other => panic!("reference: body not decidable on one atom: {other:?}"),
        }
    }

    /// The values of `r` across the molecule; a bare reference is to the
    /// root.
    fn values(&self, r: &CompRef) -> Vec<Value> {
        let node = r.component.as_ref().map_or(0, |c| self.node(c));
        let attr = self.attr(node, r);
        self.atoms(node, r.level).iter().map(|a| a.values[attr].clone()).collect()
    }

    /// The atoms of node `node`, one per position; with a level, the
    /// atoms of its type at that recursion level.
    fn atoms(&self, node: usize, level: Option<u32>) -> Vec<Atom> {
        let mut out = Vec::new();
        self.m.for_each(|p| {
            let hit = match level {
                None => p.node == node,
                Some(l) => {
                    p.level == l && self.q.nodes[p.node].atom_type == self.q.nodes[node].atom_type
                }
            };
            if hit {
                out.push((*p.atom).clone());
            }
        });
        out
    }

    /// The node a component name denotes: a label, else a molecule-type
    /// alias.
    fn node(&self, name: &str) -> usize {
        let q = self.q;
        q.nodes
            .iter()
            .position(|n| n.label == name)
            .or_else(|| q.aliases.iter().find(|(a, _)| a == name).map(|(_, i)| *i))
            .unwrap_or_else(|| panic!("reference: no component {name}"))
    }

    fn attr(&self, node: usize, r: &CompRef) -> usize {
        let schema = self.db.access().schema();
        let at = schema.atom_type(self.q.nodes[node].atom_type).unwrap();
        at.attribute_index(&r.attr).unwrap_or_else(|| panic!("reference: no attribute {r}"))
    }
}

/// `a op v` for an attribute value `a`: a null satisfies no comparison.
fn compares(a: &Value, op: CmpOp, v: &Value) -> bool {
    !matches!(a, Value::Null) && op.eval(a.total_cmp(v))
}

fn cmp(op: CompareOp) -> CmpOp {
    match op {
        CompareOp::Eq => CmpOp::Eq,
        CompareOp::Ne => CmpOp::Ne,
        CompareOp::Lt => CmpOp::Lt,
        CompareOp::Le => CmpOp::Le,
        CompareOp::Gt => CmpOp::Gt,
        CompareOp::Ge => CmpOp::Ge,
    }
}

fn parse_query(mql: &str) -> Query {
    match parse_statement(mql).unwrap() {
        Statement::Select(q) => q,
        other => panic!("not a SELECT: {other:?}"),
    }
}
