//! Molecule management and query execution (Section 3.1).
//!
//! "A one-molecule-at-a-time interface is provided by the molecule
//! management. […] molecule processing has to cope with cursor management
//! and cluster management, hiding the underlying access system interface.
//! It deals with searching the qualified parts of the desired molecule
//! and combining these parts, while performing 'simple' projections and
//! qualifications 'pushed down' for efficiency reasons."
//!
//! Execution pipeline:
//!
//! 1. **Root access** — pick the cheapest way to the qualifying root
//!    atoms: a `KEYS_ARE` lookup, or one [`Scan`] cursor, opened over a
//!    B*-tree access path, a covering partition or the atom type with
//!    the pushed-down SSA, and drained. The choice is reported as
//!    attributes of the statement profile's root-access span.
//! 2. **Vertical assembly** — starting from each root, follow the
//!    resolved associations to fetch the dependent component atoms.
//!    When an atom cluster materialises the molecule, it is prefetched
//!    in one chained read ("cluster management").
//! 3. **Recursion** — recursive edges expand level by level; an ancestor
//!    set guards against reference cycles.
//! 4. **Residual qualification** — quantifiers and non-root predicates,
//!    evaluated per molecule.
//! 5. **Projection** — per-node descriptors, including qualified
//!    projections.
//!
//! ## Batched vertical assembly
//!
//! Step 2 is the kernel's hottest loop: the paper's molecule management
//! "deals with searching the qualified parts of the desired molecule and
//! combining these parts". Assembly proceeds **level by level**: each
//! round collects every dependent `AtomId` the current frontier
//! references and issues a single [`AccessSystem::read_atoms_batch_into`]
//! call, which groups the requests by owning page and fixes each page
//! once. Fan-out-`k` levels thus cost ~pages-per-level fix calls instead
//! of `k`.
//!
//! Molecules share sub-objects (Fig. 2.3: a point lies on three edges,
//! an edge on two faces), so each molecule keeps a table of its atoms by
//! id. A level fetches only the ids not yet in the table — each distinct
//! atom is locked, read and snapshot-resolved once per molecule — and
//! every position referencing it holds the same `Arc<Atom>`.
//!
//! The molecule is built in place: each level appends its positions to
//! the [`Molecule`]'s flat position vector, parent by parent, so every
//! position's children are one contiguous range of it
//! ([`Molecule::children`]). What assembly returns is that vector; there
//! is no second representation to fold it into. A position's recursion
//! ancestors live beside it in the scratch, not in the molecule.
//!
//! Assembly decodes nothing: an atom arrives as its checked record image
//! ([`prima_access::Values`]), and the frontier's references are read
//! from the bytes ([`Atom::ref_ids`]). A value is decoded when someone
//! reads it — a residual predicate, a projection, the caller. The table,
//! ancestor and frontier buffers come from the session's
//! [`AssemblyPool`], so repeated statements stop regrowing them; the
//! batch read groups its requests in scratch of its own.
//!
//! Cycle safety for recursive edges uses per-path ancestor chains
//! (immutable linked lists shared across siblings), which reproduce the
//! depth-first ancestor-set semantics under breadth-first expansion.
//!
//! Every read goes through the statement's [`ReadGuard`]: this module
//! never asks which visibility mode it runs under.

use super::molecule::{MolAtom, Molecule, MoleculeSet};
use super::plan::{find_root_bound, NodeProjection, ResolvedQuery};
use super::validate::{convert_op, predicate_to_atom_ssa, resolve_ref};
use crate::error::{PrimaError, PrimaResult};
use crate::obs::{self, SpanKind};
use crate::parallel::run_parallel;
use crate::txn::ReadGuard;
use parking_lot::{rank, Mutex};
use prima_access::cluster::AtomClusterType;
use prima_access::partition::Partition;
use prima_access::scan::Scan;
use prima_access::ssa::Ssa;
use prima_access::{AccessSystem, Atom, CmpOp, Structure};
use prima_mad::mql::{Operand, Predicate};
use prima_mad::schema::AtomType;
use prima_mad::value::{AtomId, Value};
use prima_storage::IdBuildHasher;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

/// Executes a resolved query under `guard`, returning the molecule set.
/// Root access takes the guard's view of the root type's extension; with
/// `threads > 1` each qualifying root becomes one read-only DU
/// ([`crate::parallel`]) and the workers share the guard — a locking
/// guard charges every worker's `Shared` locks to the same transaction
/// (the lock table is thread-safe and `Shared` self-compatible), a
/// snapshot guard stays wait-free — so either way the result and the
/// lock coverage equal serial execution.
pub fn execute(
    sys: &AccessSystem,
    q: &ResolvedQuery,
    threads: usize,
    guard: ReadGuard<'_>,
    pool: &AssemblyPool,
) -> PrimaResult<MoleculeSet> {
    let (roots, clusters) = find_roots(sys, q, guard)?;
    let mut molecules = Vec::new();
    if threads <= 1 {
        pool.with(|ctx| {
            for root in roots {
                if let Some(m) = process_root(sys, q, root, &clusters, ctx, guard)? {
                    molecules.push(m);
                }
            }
            PrimaResult::Ok(())
        })?;
    } else {
        let results = run_parallel(roots, threads, |root| {
            pool.with(|ctx| process_root(sys, q, root, &clusters, ctx, guard))
        })?;
        molecules.extend(results.into_iter().flatten());
    }
    Ok(MoleculeSet { nodes: Arc::clone(&q.node_infos), molecules })
}

/// Assembles, qualifies and projects a single root's molecule — the unit
/// of work of serial execution, of semantic parallelism (one DU per
/// molecule) and of the streaming [`crate::session::MoleculeCursor`].
/// Returns `None` when the molecule does not qualify.
///
/// Every component atom materialised into the molecule is `Shared`-locked
/// through a locking `guard` before it is read (prefetched cluster
/// members by the prefetch itself).
pub(crate) fn process_root(
    sys: &AccessSystem,
    q: &ResolvedQuery,
    root: Atom,
    clusters: &[Arc<AtomClusterType>],
    ctx: &mut AssemblyCtx,
    guard: ReadGuard<'_>,
) -> PrimaResult<Option<Molecule>> {
    let root = Arc::new(root);
    ctx.table.clear();
    ctx.table.insert(root.id, Some(Arc::clone(&root)));
    // Cluster management: prefetch the whole cluster in one chained read
    // if one materialises this root's molecule.
    if let Some(ct) = clusters.iter().find(|ct| ct.contains(root.id)) {
        guard.prefetch_cluster(ct, root.id, &mut ctx.need, &mut ctx.resolved)?;
        for a in ctx.resolved.drain(..).flatten() {
            ctx.table.entry(a.id).or_insert_with(|| Some(Arc::new(a)));
        }
    }
    let molecule = assemble_frontier(sys, q, root, ctx, guard)?;
    if let Some(res) = &q.residual {
        if !eval_residual(sys, q, &molecule, res)? {
            return Ok(None);
        }
    }
    Ok(apply_projection(q, molecule))
}

/// Root access selection ("molecule-type-specific optimization"): the
/// roots `guard` sees, plus the atom clusters that can prefetch their
/// molecules.
///
/// The root type's extension goes through [`ReadGuard::lock_extension`]
/// *before* any atom is inspected: a scan's outcome depends on the whole
/// extension (membership and attribute values), so under a locking
/// guard a concurrent transaction with uncommitted DML on the type —
/// which holds the extension `IntentExclusive` — conflicts here instead
/// of leaking dirty state into (or out of) the result. The base access
/// paths then produce *candidates* qualified on base values, and
/// [`ReadGuard::deliver_roots`] turns them into the roots this guard
/// sees (locked, or resolved to the snapshot's versions).
///
/// The choice is reported on the profile's root-access span: `path`
/// (from [`root_candidates`]), `roots` (the number delivered) and
/// `cluster` (the one that prefetches the molecules, if any). It is
/// recorded here, on the calling thread, because parallel DUs run on
/// workers that have no recorder.
pub(crate) fn find_roots(
    sys: &AccessSystem,
    q: &ResolvedQuery,
    guard: ReadGuard<'_>,
) -> PrimaResult<(Vec<Atom>, Vec<Arc<AtomClusterType>>)> {
    let _span = obs::span_guard(SpanKind::RootAccess);
    let root_type = q.nodes[0].atom_type;
    guard.lock_extension(root_type)?;
    let roots = guard.deliver_roots(root_type, &q.root_ssa, root_candidates(sys, q)?)?;
    let clusters: Vec<_> = sys
        .structures_of(root_type)
        .into_iter()
        .filter_map(|s| match s {
            Structure::Cluster(ct) => Some(ct),
            _ => None,
        })
        .collect();
    obs::attr("roots", || roots.len().to_string());
    obs::attr("cluster", || {
        let used = roots.iter().find_map(|r| clusters.iter().find(|ct| ct.contains(r.id)));
        used.map(|ct| ct.name.clone())
    });
    Ok((roots, clusters))
}

/// The root candidates of `q`, read through the cheapest access the root
/// type offers, which is recorded as the `path` attribute:
/// `key_lookup(<attr>)`, `access_path(<index>)`,
/// `partition_scan(<partition>)` or `type_scan`.
fn root_candidates(sys: &AccessSystem, q: &ResolvedQuery) -> PrimaResult<Vec<Atom>> {
    let root_type = q.nodes[0].atom_type;
    let at = node_type(sys, q, 0);
    // 1. KEYS_ARE equality -> direct lookup: a one-candidate access path.
    let key = find_root_bound(&q.root_ssa, &mut |b| {
        (b.op == CmpOp::Eq && at.is_key(&at.attributes[b.attr].name)).then_some(b)
    });
    if let Some(b) = key {
        obs::attr("path", || format!("key_lookup({})", at.attributes[b.attr].name));
        let Some(id) = sys.lookup_by_key(root_type, b.attr, b.value)? else {
            return Ok(Vec::new());
        };
        // Without a lock (snapshot) the atom may vanish from base
        // between lookup and read; its visible version, if any, comes
        // back through the guard's extras.
        return match sys.read_atom(id, None) {
            Ok(atom) => Ok(vec![atom]),
            Err(prima_access::AccessError::NoSuchAtom(_)) => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        };
    }
    // 2. A B*-tree over a bounded attribute.
    let structures = sys.structures_of(root_type);
    let index = find_root_bound(&q.root_ssa, &mut |b| {
        structures.iter().find_map(|s| match s {
            Structure::BTree(ix) if ix.key_attrs == [b.attr] => Some((b, ix)),
            _ => None,
        })
    });
    let ssa = q.root_ssa.clone();
    let mut scan = if let Some((b, ix)) = index {
        obs::attr("path", || format!("access_path({})", ix.name));
        let key = || vec![b.value.clone()];
        let (start, stop) = match b.op {
            CmpOp::Eq => (Bound::Included(key()), Bound::Included(key())),
            CmpOp::Gt => (Bound::Excluded(key()), Bound::Unbounded),
            CmpOp::Ge => (Bound::Included(key()), Bound::Unbounded),
            CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(key())),
            CmpOp::Le => (Bound::Unbounded, Bound::Included(key())),
            CmpOp::Ne => (Bound::Unbounded, Bound::Unbounded),
        };
        Scan::access_path(sys, ix, ssa, start, stop, false)?
    } else if let Some(part) = covering_partition(q, &structures) {
        // 3. A partition covering a single-component query's SSA and
        // projection is scanned instead of the (wider) base file —
        // "partitions collect the results of projections".
        obs::attr("path", || format!("partition_scan({})", part.name));
        Scan::partition(sys, Arc::clone(part), ssa)?
    } else {
        // 4. Atom-type scan with SSA pushdown.
        obs::attr("path", || "type_scan".to_string());
        Scan::atom_type(sys, root_type, ssa)?
    };
    Ok(scan.collect_remaining()?)
}

/// The partition of the root type that covers every attribute a
/// single-component query reads, if any.
fn covering_partition<'s>(
    q: &ResolvedQuery,
    structures: &'s [Structure],
) -> Option<&'s Arc<Partition>> {
    if q.nodes.len() != 1 {
        return None;
    }
    let mut needed = q.root_ssa.attrs();
    match q.select.per_node.first() {
        Some(NodeProjection::Attrs(attrs)) => needed.extend(attrs.iter().copied()),
        Some(NodeProjection::All) | None => needed.push(usize::MAX), // not coverable
        Some(NodeProjection::Qualified { attrs, ssa }) => {
            needed.extend(ssa.attrs());
            match attrs {
                Some(a) => needed.extend(a.iter().copied()),
                None => needed.push(usize::MAX),
            }
        }
        Some(NodeProjection::Exclude) => {}
    }
    needed.sort_unstable();
    needed.dedup();
    structures.iter().find_map(|s| match s {
        Structure::Partition(p) if p.covers(&needed) => Some(p),
        _ => None,
    })
}

/// Assembly scratch: the buffers one molecule's assembly fills, kept
/// across molecules (fan-out-1 molecules are dominated by allocation
/// churn otherwise) and, through an [`AssemblyPool`], across statements.
/// The molecule's positions are not among them: they are the result.
#[derive(Default)]
pub(crate) struct AssemblyCtx {
    /// Each position's ancestor chain, by position (recursive
    /// structures only).
    ancestors: Vec<Option<Arc<AncestorChain>>>,
    frontier: Vec<usize>,
    next_frontier: Vec<usize>,
    requests: Vec<FetchRequest>,
    /// The current molecule's atoms by id (`None`: invisible or
    /// dangling), shared by every position that references them.
    table: HashMap<AtomId, Option<Arc<Atom>>, IdBuildHasher>,
    need: Vec<AtomId>,
    resolved: Vec<Option<Atom>>,
}

/// The assembly scratch of one session: taken by a statement (by each
/// DU of a parallel one) and given back when it is done, so a prepared
/// statement stops regrowing its buffers on every execution.
pub struct AssemblyPool {
    // lockrank: obs.3 — assembly-scratch pool; popped and pushed
    // transiently around each use, never held while one runs.
    free: Mutex<Vec<AssemblyCtx>>,
}

impl Default for AssemblyPool {
    fn default() -> Self {
        AssemblyPool { free: Mutex::new_ranked(Vec::new(), rank::OBS + 3) }
    }
}

impl AssemblyPool {
    /// Runs `f` on a scratch from the pool and gives it back, emptied
    /// (it must not keep the last molecule's atoms alive).
    fn with<R>(&self, f: impl FnOnce(&mut AssemblyCtx) -> R) -> R {
        let mut ctx = self.free.lock().pop().unwrap_or_default();
        let out = f(&mut ctx);
        ctx.ancestors.clear();
        ctx.table.clear();
        self.free.lock().push(ctx);
        out
    }
}

/// Immutable per-path ancestor chain: reproduces the depth-first ancestor
/// *set* under breadth-first expansion. Each node reached through a
/// recursive edge extends its parent's chain; siblings share tails.
struct AncestorChain {
    id: AtomId,
    parent: Option<Arc<AncestorChain>>,
}

fn chain_contains(chain: &Option<Arc<AncestorChain>>, id: AtomId) -> bool {
    let mut cur = chain.as_deref();
    while let Some(link) = cur {
        if link.id == id {
            return true;
        }
        cur = link.parent.as_deref();
    }
    false
}

/// One component fetch requested by the current frontier.
struct FetchRequest {
    /// The requesting position.
    parent: usize,
    child_node: usize,
    recursive: bool,
    level: u32,
    id: AtomId,
}

/// Level-by-level vertical assembly: each round gathers every dependent
/// `AtomId` referenced by the current frontier, resolves the ones not yet
/// in `ctx.table` with one page-grouped batch read, then appends the
/// children to the molecule and advances. Requests are gathered parent by
/// parent, so the children of one position are appended one after the
/// other, as [`Molecule::push_child`] requires.
fn assemble_frontier(
    sys: &AccessSystem,
    q: &ResolvedQuery,
    root: Arc<Atom>,
    ctx: &mut AssemblyCtx,
    guard: ReadGuard<'_>,
) -> PrimaResult<Molecule> {
    // Ancestor chains are only needed when the structure recurses.
    let recursive_structure = q.is_recursive();
    ctx.ancestors.clear();
    if recursive_structure {
        ctx.ancestors.push(Some(Arc::new(AncestorChain { id: root.id, parent: None })));
    }
    let mut molecule = Molecule::new(MolAtom::new(0, 0, root));
    ctx.frontier.clear();
    ctx.frontier.push(0);
    let mut level_no = 0u32;
    while !ctx.frontier.is_empty() {
        // RAII so the `break` below and every `?` close the level span.
        let _level_span = obs::span_guard(SpanKind::AssemblyLevel(level_no));
        level_no += 1;
        // Gather this level's expansion requests in depth-first child
        // order (edge order x reference order per parent).
        ctx.requests.clear();
        for &pi in &ctx.frontier {
            let parent = molecule.position(pi);
            // Expansion edges: the node's children, plus its own incoming
            // edge re-applied when it recurses.
            let node = &q.nodes[parent.node];
            let again = node.recursive.then_some(parent.node);
            for child_idx in node.children.iter().copied().chain(again) {
                let child = &q.nodes[child_idx];
                // Validation gives every non-root node an association.
                let (Some(assoc), recursive) = (child.via, child.recursive) else { continue };
                for id in parent.atom.ref_ids(assoc.from.attr) {
                    if recursive && chain_contains(&ctx.ancestors[pi], id) {
                        // Cycle guard for recursive structures ("solids are
                        // constructed using previously defined solids" — a
                        // cycle would be a modelling error, but the kernel
                        // must not loop).
                        continue;
                    }
                    ctx.requests.push(FetchRequest {
                        parent: pi,
                        child_node: child_idx,
                        recursive,
                        level: if recursive { parent.level + 1 } else { parent.level },
                        id,
                    });
                }
            }
        }
        if ctx.requests.is_empty() {
            break;
        }
        // The level's ids not yet decoded for this molecule, in order of
        // first occurrence (a placeholder marks an id as requested).
        ctx.need.clear();
        for r in &ctx.requests {
            if let Entry::Vacant(e) = ctx.table.entry(r.id) {
                e.insert(None);
                ctx.need.push(r.id);
            }
        }
        // Shared-lock them before reading: a component with an uncommitted
        // writer conflicts here, before any dirty value can enter the
        // molecule. Ids already in the table stay locked (strict 2PL).
        // (No-op under a snapshot guard — the resolution below corrects
        // dirty reads instead.)
        guard.lock_atoms(ctx.need.iter().copied())?;
        // One batched read per level, one decode per distinct id — the
        // page group still costs a single fix. The guard resolves each
        // base outcome (including a base miss: under a snapshot the
        // component may be concurrently deleted).
        sys.read_atoms_batch_into(&ctx.need, None, &mut ctx.resolved)?;
        guard.resolve_all(&ctx.need, &mut ctx.resolved);
        for (&id, atom) in ctx.need.iter().zip(ctx.resolved.drain(..)) {
            ctx.table.insert(id, atom.map(Arc::new));
        }
        ctx.next_frontier.clear();
        molecule.reserve(ctx.requests.len());
        for r in ctx.requests.drain(..) {
            let atom = match ctx.table.get(&r.id) {
                Some(Some(a)) => Arc::clone(a),
                // Dangling ids cannot occur through the access system's
                // integrity maintenance (and invisible components are
                // simply not part of the snapshot's molecule); skip.
                _ => continue,
            };
            let child = molecule.push_child(r.parent, MolAtom::new(r.child_node, r.level, atom));
            if recursive_structure {
                let inherited = ctx.ancestors[r.parent].clone();
                ctx.ancestors.push(if r.recursive {
                    Some(Arc::new(AncestorChain { id: r.id, parent: inherited }))
                } else {
                    inherited
                });
            }
            ctx.next_frontier.push(child);
        }
        std::mem::swap(&mut ctx.frontier, &mut ctx.next_frontier);
    }
    Ok(molecule)
}

/// Residual predicate evaluation on one molecule. Non-root component
/// comparisons use existential semantics (a molecule qualifies when *some*
/// component atom satisfies the term); explicit quantifiers override.
fn eval_residual(
    sys: &AccessSystem,
    q: &ResolvedQuery,
    m: &Molecule,
    pred: &Predicate,
) -> PrimaResult<bool> {
    Ok(match pred {
        Predicate::And(ts) => {
            for t in ts {
                if !eval_residual(sys, q, m, t)? {
                    return Ok(false);
                }
            }
            true
        }
        Predicate::Or(ts) => {
            for t in ts {
                if eval_residual(sys, q, m, t)? {
                    return Ok(true);
                }
            }
            false
        }
        Predicate::Not(t) => !eval_residual(sys, q, m, t)?,
        Predicate::Compare { left, op, right } => {
            let op = convert_op(*op);
            match (left, right) {
                (Operand::Param(slot), _) | (_, Operand::Param(slot)) => {
                    // Prepared execution substitutes bound values before
                    // evaluation; reaching a placeholder means the
                    // statement was run without binding.
                    return Err(PrimaError::UnboundParameter {
                        slot: *slot,
                        detail: "prepare the statement and bind values before executing"
                            .into(),
                    });
                }
                (Operand::Ref(r), Operand::Literal(v)) => {
                    exists_atom(sys, q, m, r, |val| op.eval(val.total_cmp(v)))?
                }
                (Operand::Literal(v), Operand::Ref(r)) => {
                    exists_atom(sys, q, m, r, |val| op.flip().eval(val.total_cmp(v)))?
                }
                (Operand::Ref(l), Operand::Ref(rr)) => {
                    // exists a pair satisfying the comparison
                    let lv = ref_values(sys, q, m, l)?;
                    let rv = ref_values(sys, q, m, rr)?;
                    lv.iter().any(|a| rv.iter().any(|b| op.eval(a.total_cmp(b))))
                }
                (Operand::Literal(a), Operand::Literal(b)) => op.eval(a.total_cmp(b)),
            }
        }
        Predicate::IsEmpty(r) => exists_atom(sys, q, m, r, prima_mad::Value::is_empty_like)?,
        Predicate::NotEmpty(r) => exists_atom(sys, q, m, r, |v| !v.is_empty_like())?,
        Predicate::ExistsAtLeast { n, component, inner } => {
            count_matching(sys, q, m, component, inner)? >= *n as usize
        }
        Predicate::ForAll { component, inner } => {
            let node = q.node_by_label(component).ok_or_else(|| {
                PrimaError::UnresolvedReference {
                    reference: component.clone(),
                    detail: "quantifier over unknown component".into(),
                }
            })?;
            let atoms = m.atoms_of_node(node);
            let ssa = quantifier_ssa(sys, q, node, inner)?;
            atoms.iter().all(|a| ssa.eval(a))
        }
    })
}

fn count_matching(
    sys: &AccessSystem,
    q: &ResolvedQuery,
    m: &Molecule,
    component: &str,
    inner: &Predicate,
) -> PrimaResult<usize> {
    let node = q.node_by_label(component).ok_or_else(|| PrimaError::UnresolvedReference {
        reference: component.to_string(),
        detail: "quantifier over unknown component".into(),
    })?;
    let ssa = quantifier_ssa(sys, q, node, inner)?;
    Ok(m.atoms_of_node(node).iter().filter(|a| ssa.eval(a)).count())
}

fn quantifier_ssa(
    sys: &AccessSystem,
    q: &ResolvedQuery,
    node: usize,
    inner: &Predicate,
) -> PrimaResult<Ssa> {
    let at = node_type(sys, q, node);
    predicate_to_atom_ssa(inner, |attr| at.attribute_index(attr)).ok_or_else(|| {
        PrimaError::BadStatement(
            "quantifier body must be decidable on the quantified component".into(),
        )
    })
}

/// Values of `r` across the molecule (all atoms of the referenced node,
/// restricted to a recursion level when given).
fn ref_values(
    sys: &AccessSystem,
    q: &ResolvedQuery,
    m: &Molecule,
    r: &prima_mad::mql::CompRef,
) -> PrimaResult<Vec<Value>> {
    let (node, attr) = resolve_ref(q, r, sys.schema())?;
    let atoms = match r.level {
        // A level reference selects by recursion depth; in a recursive
        // structure the same atom type backs several structure nodes, so
        // match on type + level rather than the node index alone.
        Some(l) => {
            let t = q.nodes[node].atom_type;
            let mut out = Vec::new();
            m.for_each(|ma| {
                if ma.level == l && q.nodes[ma.node].atom_type == t {
                    out.push(ma.atom.values.get(attr).cloned());
                }
            });
            return Ok(out.into_iter().flatten().collect());
        }
        None => m.atoms_of_node(node),
    };
    Ok(atoms.iter().filter_map(|a| a.values.get(attr).cloned()).collect())
}

fn exists_atom(
    sys: &AccessSystem,
    q: &ResolvedQuery,
    m: &Molecule,
    r: &prima_mad::mql::CompRef,
    f: impl Fn(&Value) -> bool,
) -> PrimaResult<bool> {
    Ok(ref_values(sys, q, m, r)?.iter().any(f))
}

/// Applies per-node projections to one molecule. Returns `None` when a
/// qualified projection on the *root* rejects the whole molecule. A
/// `SELECT ALL` molecule is returned as assembled. A qualified
/// projection that rejects a component drops it with its subtree; the
/// qualification sees the component as assembled, before any projection.
fn apply_projection(q: &ResolvedQuery, mut m: Molecule) -> Option<Molecule> {
    let per_node = &q.select.per_node;
    if per_node.iter().all(|p| matches!(p, NodeProjection::All)) {
        return Some(m);
    }
    if per_node.iter().any(|p| matches!(p, NodeProjection::Qualified { .. })) {
        let qualifies = |ma: &MolAtom| match per_node.get(ma.node) {
            Some(NodeProjection::Qualified { ssa, .. }) => ssa.eval(&ma.atom),
            _ => true,
        };
        if !m.retain(qualifies) {
            return None;
        }
    }
    m.for_each_mut(|ma| {
        if let Some(kept) = q.kept.get(ma.node).and_then(Option::as_deref) {
            ma.atom = Arc::new(ma.atom.project(kept));
        }
    });
    Some(m)
}

/// The atom type of plan node `node`.
#[allow(clippy::unwrap_used, clippy::expect_used)]
fn node_type<'s>(sys: &'s AccessSystem, q: &ResolvedQuery, node: usize) -> &'s AtomType {
    // lint: allow(error-hygiene, plan node type ids were resolved against this same frozen schema during validation)
    sys.schema().atom_type(q.nodes[node].atom_type).expect("resolved")
}
