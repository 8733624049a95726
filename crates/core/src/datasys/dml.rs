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
//! and CONNECT / DISCONNECT sub-queries were validated once, its DELETE
//! ONLY components and MODIFY targets resolved to node and attribute
//! indices, and an execution only binds their parameters. Their
//! *results* range over the current data and are computed per
//! execution; their plans are not.

use super::exec::{execute, AssemblyPool};
use super::plan::{value, Assignment, ResolvedQuery, SetValue, StatementPlan};
use crate::error::{PrimaError, PrimaResult};
use crate::txn::Transaction;
use prima_access::AccessSystem;
use prima_mad::mql::Insert;
use prima_mad::value::{AtomId, Value};

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
        StatementPlan::Delete { qualification, victims } => {
            delete(sys, txn, &qualification.bind(params), victims)
        }
        StatementPlan::Modify { qualification, assignments } => {
            modify(sys, txn, &qualification.bind(params), assignments, params)
        }
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
    victims: &[usize],
) -> PrimaResult<DmlResult> {
    let set = execute(sys, resolved, 1, txn.read_guard(), &AssemblyPool::default())?;
    let mut deleted = 0usize;
    for m in &set.molecules {
        for &node in victims {
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

fn modify(
    sys: &AccessSystem,
    txn: &Transaction,
    resolved: &ResolvedQuery,
    assignments: &[Assignment],
    params: &[Value],
) -> PrimaResult<DmlResult> {
    let set = execute(sys, resolved, 1, txn.read_guard(), &AssemblyPool::default())?;
    let mut modified = 0usize;
    for m in &set.molecules {
        for &Assignment { node, attr, value: ref assigned } in assignments {
            let atom_ids: Vec<AtomId> = m.atoms_of_node(node).iter().map(|a| a.id).collect();
            for id in atom_ids {
                if !sys.exists(id) {
                    continue;
                }
                let new_value = match assigned {
                    SetValue::Value(v) => value(v, params)?,
                    SetValue::Connect { roots, set } => {
                        let targets = root_ids(sys, roots, params, txn)?;
                        if *set {
                            let current = sys.read_atom(id, None)?;
                            let mut ids = current.values[attr].ref_ids().to_vec();
                            ids.extend(targets.iter().copied());
                            Value::ref_set(ids)
                        } else {
                            Value::Ref(targets.first().copied())
                        }
                    }
                    SetValue::Disconnect { roots, set } => {
                        let targets = root_ids(sys, roots, params, txn)?;
                        let current = sys.read_atom(id, None)?;
                        if *set {
                            let ids: Vec<AtomId> = current.values[attr]
                                .ref_ids()
                                .iter()
                                .filter(|t| !targets.contains(t))
                                .copied()
                                .collect();
                            Value::ref_set(ids)
                        } else {
                            match current.values[attr] {
                                Value::Ref(Some(t)) if targets.contains(&t) => Value::Ref(None),
                                ref other => other.clone(),
                            }
                        }
                    }
                };
                txn.modify_atom(id, &[(attr, new_value)])?;
                modified += 1;
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
