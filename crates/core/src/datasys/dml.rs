//! Data manipulation: molecule insertion, deletion and modification.
//!
//! "Analogously to retrieval capabilities, insert, delete, and modify
//! operations allow for dealing with an integral molecule as well as its
//! components. Modification especially supports connection and
//! disconnection of molecule components. The delete statement reflects
//! removal of single components as well as of whole component sets,
//! thereby automatically disconnecting these parts from the specified
//! surrounding molecules. […] Common to all manipulation operations is
//! the system-enforced support for structural integrity" (Section 2.2) —
//! the disconnection itself happens in the access system's back-reference
//! maintenance; this module translates statement semantics into atom
//! operations.
//!
//! Every statement runs on the session's transaction — undo-logged,
//! lock-protected, undone alone when it fails and wholly by
//! [`crate::session::Session::rollback`];
//! there is deliberately no direct-to-access-system writer (the recovery
//! subsystem assumes every manipulation is bracketed by the transaction
//! layer). Its reads run on the *locking* read path even though
//! auto-commit queries snapshot ([`crate::txn::mvcc`]): qualification
//! sub-reads must see the transaction's own uncommitted writes and must
//! lock what they will mutate, so the only guard here is the
//! transaction's own `read_guard()`.
//!
//! A statement arrives compiled ([`StatementPlan`]): its qualification
//! and CONNECT / DISCONNECT sub-queries were validated once, and an
//! execution only binds their parameters. Their *results* range over the
//! current data and are computed per execution; their plans are not.

use super::exec::{execute, AssemblyPool};
use super::plan::{Assignment, ResolvedQuery, StatementPlan};
use super::validate::resolve_ref;
use crate::error::{PrimaError, PrimaResult};
use crate::txn::Transaction;
use prima_access::AccessSystem;
use prima_mad::mql::{CompRef, Insert, ValueExpr};
use prima_mad::value::{AtomId, Value};
use prima_mad::AttrType;

/// Result of a manipulation statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmlResult {
    /// The inserted atom's logical address.
    Inserted(AtomId),
    /// Number of atoms deleted.
    Deleted(usize),
    /// Number of atoms modified.
    Modified(usize),
}

/// Executes a compiled non-SELECT statement in `txn` with `params`
/// bound: writes are the transaction's atom operations, and the
/// statement's *reads* (qualification sub-queries, current-value reads
/// for CONNECT/DISCONNECT) take `Shared` locks under the same
/// transaction, completing the two-phase bracket.
pub(crate) fn execute_statement(
    sys: &AccessSystem,
    txn: &Transaction,
    plan: &StatementPlan,
    params: &[Value],
) -> PrimaResult<DmlResult> {
    match plan {
        StatementPlan::Select(_) => Err(PrimaError::BadStatement(
            "SELECT must go through the query interface".into(),
        )),
        StatementPlan::Insert(i) => insert(sys, txn, i, params),
        StatementPlan::Delete { qualification, only_components } => {
            delete(sys, txn, &qualification.bind(params), only_components.as_deref())
        }
        StatementPlan::Modify { qualification, assignments } => {
            modify(sys, txn, &qualification.bind(params), assignments, params)
        }
    }
}

/// Concrete value of a DML value expression with `params` bound.
fn value(ve: &ValueExpr, params: &[Value]) -> PrimaResult<Value> {
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

fn insert(
    sys: &AccessSystem,
    txn: &Transaction,
    stmt: &Insert,
    params: &[Value],
) -> PrimaResult<DmlResult> {
    let pairs: Vec<(&str, Value)> = stmt
        .assignments
        .iter()
        .map(|(n, ve)| Ok((n.as_str(), value(ve, params)?)))
        .collect::<PrimaResult<_>>()?;
    let (t, values) = sys.resolve_named_values(&stmt.atom_type, &pairs)?;
    let id = txn.insert_atom(t, values)?;
    Ok(DmlResult::Inserted(id))
}

fn delete(
    sys: &AccessSystem,
    txn: &Transaction,
    resolved: &ResolvedQuery,
    only_components: Option<&[String]>,
) -> PrimaResult<DmlResult> {
    let set = execute(sys, resolved, 1, txn.read_guard(), &AssemblyPool::default())?;
    // Which structure nodes are deleted?
    let victim_nodes: Vec<usize> = match only_components {
        None => (0..resolved.nodes.len()).collect(),
        Some(names) => {
            let mut out = Vec::new();
            for n in names {
                out.push(resolved.node_by_label(n).ok_or_else(|| {
                    PrimaError::UnresolvedReference {
                        reference: n.clone(),
                        detail: "DELETE ONLY names unknown component".into(),
                    }
                })?);
            }
            out
        }
    };
    let mut deleted = 0usize;
    for m in &set.molecules {
        for &node in &victim_nodes {
            for atom in m.atoms_of_node(node) {
                // Molecules may overlap (non-disjoint); an atom can
                // already be gone.
                if sys.exists(atom.id) {
                    txn.delete_atom(atom.id)?;
                    deleted += 1;
                }
            }
        }
    }
    Ok(DmlResult::Deleted(deleted))
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
fn modify(
    sys: &AccessSystem,
    txn: &Transaction,
    resolved: &ResolvedQuery,
    assignments: &[(CompRef, Assignment)],
    params: &[Value],
) -> PrimaResult<DmlResult> {
    let set = execute(sys, resolved, 1, txn.read_guard(), &AssemblyPool::default())?;
    let mut modified = 0usize;
    for m in &set.molecules {
        for (target, assignment) in assignments {
            let (node, attr) = resolve_ref(resolved, target, sys.schema())?;
            // lint: allow(error-hygiene, plan node type ids were resolved against this same frozen schema during validation)
            let at = sys.schema().atom_type(resolved.nodes[node].atom_type).expect("resolved");
            let is_set = matches!(at.attributes[attr].ty, AttrType::RefSet(..));
            let is_single_ref = matches!(at.attributes[attr].ty, AttrType::Ref(_));
            let atom_ids: Vec<AtomId> =
                m.atoms_of_node(node).iter().map(|a| a.id).collect();
            for id in atom_ids {
                if !sys.exists(id) {
                    continue;
                }
                match assignment {
                    Assignment::Value(v) => {
                        txn.modify_atom(id, &[(attr, value(v, params)?)])?;
                        modified += 1;
                    }
                    Assignment::Connect(sub) => {
                        let targets = root_ids(sys, sub, params, txn)?;
                        let current = sys.read_atom(id, None)?;
                        let new_value = if is_set {
                            let mut ids = current.values[attr].ref_ids().to_vec();
                            ids.extend(targets.iter().copied());
                            Value::ref_set(ids)
                        } else if is_single_ref {
                            Value::Ref(targets.first().copied())
                        } else {
                            return Err(PrimaError::BadStatement(format!(
                                "CONNECT target '{}' is not a reference attribute",
                                at.attributes[attr].name
                            )));
                        };
                        txn.modify_atom(id, &[(attr, new_value)])?;
                        modified += 1;
                    }
                    Assignment::Disconnect(sub) => {
                        let targets = root_ids(sys, sub, params, txn)?;
                        let current = sys.read_atom(id, None)?;
                        let new_value = if is_set {
                            let ids: Vec<AtomId> = current.values[attr]
                                .ref_ids()
                                .iter()
                                .filter(|t| !targets.contains(t))
                                .copied()
                                .collect();
                            Value::ref_set(ids)
                        } else if is_single_ref {
                            match current.values[attr] {
                                Value::Ref(Some(t)) if targets.contains(&t) => Value::Ref(None),
                                ref other => other.clone(),
                            }
                        } else {
                            return Err(PrimaError::BadStatement(format!(
                                "DISCONNECT target '{}' is not a reference attribute",
                                at.attributes[attr].name
                            )));
                        };
                        txn.modify_atom(id, &[(attr, new_value)])?;
                        modified += 1;
                    }
                }
            }
        }
    }
    Ok(DmlResult::Modified(modified))
}

/// Runs a sub-query with `params` bound and returns its molecules' root
/// atom ids (the atoms a CONNECT/DISCONNECT refers to).
fn root_ids(
    sys: &AccessSystem,
    q: &ResolvedQuery,
    params: &[Value],
    txn: &Transaction,
) -> PrimaResult<Vec<AtomId>> {
    let set = execute(sys, &q.bind(params), 1, txn.read_guard(), &AssemblyPool::default())?;
    Ok(set.molecules.iter().map(|m| m.root.atom.id).collect())
}
