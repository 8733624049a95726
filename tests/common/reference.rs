//! Test-only reference for vertical assembly: the naive depth-first walk
//! — one `AccessSystem::read_atom` per component, an ancestor *set* as
//! the cycle guard of recursive edges — that the kernel's level-batched
//! assembler must agree with. Valid on a quiescent database (no version
//! store to consult, no locks to take) for `SELECT ALL` queries whose
//! predicate is decidable on the root atom.

use prima::datasys::{validate, NodeProjection, ResolvedQuery};
use prima::{AccessSystem, Atom, AtomId, MolAtom, Molecule, Prima, Value};
use prima_mad::mql::{parse_statement, Query, Statement};
use std::collections::HashSet;

/// The molecules of `mql`, ordered by root atom id.
pub fn molecules(db: &Prima, mql: &str) -> Vec<Molecule> {
    let sys = db.access();
    let q = validate(sys.schema(), &parse_query(mql)).unwrap();
    assert!(q.residual.is_none(), "reference: root-decidable predicates only");
    let select_all = q.select.per_node.iter().all(|p| *p == NodeProjection::All);
    assert!(select_all, "reference: SELECT ALL only");
    let mut ids = sys.all_ids(q.nodes[0].atom_type).unwrap();
    ids.sort();
    ids.into_iter()
        .map(|id| sys.read_atom(id, None).unwrap())
        .filter(|root| q.root_ssa.eval(root))
        .map(|root| {
            let mut ancestors = HashSet::from([root.id]);
            Molecule::new(expand(sys, &q, 0, root, 0, &mut ancestors))
        })
        .collect()
}

fn expand(
    sys: &AccessSystem,
    q: &ResolvedQuery,
    node: usize,
    atom: Atom,
    level: u32,
    ancestors: &mut HashSet<AtomId>,
) -> MolAtom {
    // The node's children, then — for a recursive node — its own incoming
    // edge re-applied one level deeper.
    let mut edges: Vec<(usize, bool)> =
        q.nodes[node].children.iter().map(|&c| (c, q.nodes[c].recursive)).collect();
    if q.nodes[node].recursive {
        edges.push((node, true));
    }
    let mut out = MolAtom::new(node, level, atom);
    for (child, recursive) in edges {
        let attr = q.nodes[child].via.unwrap().from.attr;
        let ids = out.atom.values.get(attr).map_or(&[][..], Value::ref_ids).to_vec();
        for id in ids {
            if recursive && !ancestors.insert(id) {
                continue;
            }
            let atom = sys.read_atom(id, None).unwrap();
            let child_level = if recursive { level + 1 } else { level };
            out.children.push(expand(sys, q, child, atom, child_level, ancestors));
            if recursive {
                ancestors.remove(&id);
            }
        }
    }
    out
}

fn parse_query(mql: &str) -> Query {
    match parse_statement(mql).unwrap() {
        Statement::Select(q) => q,
        other => panic!("not a SELECT: {other:?}"),
    }
}
