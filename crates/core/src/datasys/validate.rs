//! Query validation & modification (Section 3.1).
//!
//! "The query validation and modification checks the initial query for
//! syntactic and semantic correctness, performs the resolution of
//! predefined molecule types as well as the resolution of a meshed
//! molecule type into an equivalent hierarchical one which is easier to
//! cope with. Finally, it generates some internal representation of the
//! query, i.e. the processing plan."
//!
//! This module turns a parsed [`Query`] into a [`ResolvedQuery`]:
//!
//! 1. **Molecule-type resolution** — named molecule types in the FROM
//!    clause are inlined ([`resolve_molecule_types`]), keeping an *alias*
//!    so predicates can still address the molecule by its defined name
//!    (`piece_list (0).solid_no`).
//! 2. **Structure resolution** — every component is bound to an atom
//!    type, every edge to an association (disambiguated by `.attr` where
//!    given). The stored form is a tree: a meshed structure arrives from
//!    the parser already as its hierarchical reading.
//! 3. **Qualification pushdown** — conjuncts decidable on the root atom
//!    alone become a root SSA ("qualifications pushed down for
//!    efficiency reasons"); recursion seeds (`name (0).attr = c`) are
//!    pushed the same way. The rest compiles into the residual molecule
//!    predicate ([`Residual`]): every reference resolved to node and
//!    attribute indices, every quantifier body an SSA on the quantified
//!    component. A statement that names something it cannot resolve
//!    fails here, whatever the data.
//! 4. **Select resolution** — the SELECT list is mapped onto per-node
//!    projections, including qualified projections (nested SELECTs).
//!
//! [`plan_statement`] applies this to every query a statement runs —
//! a SELECT, a DELETE's or MODIFY's qualification, a CONNECT /
//! DISCONNECT sub-query — once, when the statement is compiled. A
//! parameter slot compiles to an unbound comparison ([`Ssa::CmpParam`])
//! and takes the type of the attribute it is first used with.

use crate::datasys::molecule::NodeInfo;
use crate::datasys::plan::{
    Assignment, Atoms, NodeProjection, PlanShape, Residual, ResolvedNode, ResolvedQuery,
    ResolvedSelect, SetValue, StatementPlan,
};
use crate::error::{PrimaError, PrimaResult};
use prima_access::ssa::{CmpOp, Ssa};
use prima_mad::mql::{
    CompRef, CompareOp, FromClause, Insert, Operand, Predicate, Query, SelectItem, SelectList,
    SetExpr, Statement, ValueExpr,
};
use prima_mad::schema::{AtomType, MoleculeGraph, MoleculeNode, Schema};
use prima_mad::{AttrType, SchemaError};
use std::sync::Arc;

/// Maximum molecule-type inlining depth (cycle guard).
const MAX_INLINE_DEPTH: usize = 16;

/// Inlines named molecule types in a FROM structure. Returns the expanded
/// graph plus aliases `(molecule type name, node index where its root
/// landed)` — indices refer to pre-order numbering of the expanded graph.
pub fn resolve_molecule_types(
    schema: &Schema,
    graph: &MoleculeGraph,
) -> PrimaResult<(MoleculeGraph, Vec<(String, usize)>)> {
    let mut aliases = Vec::new();
    let root = inline_node(schema, &graph.root, 0, &mut aliases)?;
    // Re-number aliases by pre-order index in the final tree.
    let expanded = MoleculeGraph::new(root);
    let mut names = Vec::new();
    collect_preorder(&expanded.root, &mut names);
    let aliases = aliases
        .into_iter()
        .filter_map(|(name, marker)| {
            names.iter().position(|n| n.starts_with(&marker)).map(|i| (name, i))
        })
        .collect();
    Ok((expanded, aliases))
}

/// Unique marker assigned to inlined roots so aliases survive expansion.
fn marker(name: &str, depth: usize) -> String {
    format!("\u{1}{name}\u{1}{depth}")
}

fn inline_node(
    schema: &Schema,
    node: &MoleculeNode,
    depth: usize,
    aliases: &mut Vec<(String, String)>,
) -> PrimaResult<MoleculeNode> {
    if depth > MAX_INLINE_DEPTH {
        return Err(PrimaError::UnknownComponent(format!(
            "molecule type nesting deeper than {MAX_INLINE_DEPTH} (cycle?)"
        )));
    }
    if schema.type_by_name(&node.component).is_none() {
        if let Some(mt) = schema.molecule_type(&node.component) {
            // Inline: the defined structure replaces this node; this
            // node's via/recursive markers apply to the inlined root.
            let mut inlined = inline_node(schema, &mt.graph.root, depth + 1, aliases)?;
            inlined.via_attr = node.via_attr.clone().or(inlined.via_attr);
            inlined.recursive = inlined.recursive || node.recursive;
            // Children written *after* the molecule-type name attach to
            // the inlined root.
            for c in &node.children {
                inlined.children.push(inline_node(schema, c, depth + 1, aliases)?);
            }
            let m = marker(&mt.name, aliases.len());
            aliases.push((mt.name.clone(), m.clone()));
            // Temporarily tag the inlined root so we can find its
            // pre-order index afterwards; the tag is removed during
            // structure resolution (labels are re-derived from types).
            let mut tagged = inlined;
            tagged.component = format!("{}{}", m, tagged.component);
            return Ok(tagged);
        }
        return Err(PrimaError::UnknownComponent(node.component.clone()));
    }
    let mut out = node.clone();
    out.children = node
        .children
        .iter()
        .map(|c| inline_node(schema, c, depth + 1, aliases))
        .collect::<PrimaResult<_>>()?;
    Ok(out)
}

fn collect_preorder(node: &MoleculeNode, out: &mut Vec<String>) {
    out.push(node.component.clone());
    for c in &node.children {
        collect_preorder(c, out);
    }
}

/// Strips an inlining marker prefix, returning the clean component name.
fn clean_name(component: &str) -> &str {
    if let Some(rest) = component.strip_prefix('\u{1}') {
        // marker is "\u{1}name\u{1}depth" prefixed to the real name.
        if let Some(p) = rest.find('\u{1}') {
            let tail = &rest[p + 1..];
            let digits = tail.chars().take_while(char::is_ascii_digit).count();
            return &tail[digits..];
        }
    }
    component
}

/// Validates and resolves a parsed query against the schema. Parameter
/// slots compile to unbound comparisons; typing them is
/// [`plan_statement`]'s part.
pub fn validate(schema: &Schema, query: &Query) -> PrimaResult<ResolvedQuery> {
    Compiler { schema, slot_types: Vec::new() }.query(query).map(|(q, _)| q)
}

/// Compiles a parsed statement with `slots` parameter slots into its
/// plan: a SELECT into its processing plan; a DELETE or MODIFY into the
/// plan of its qualification and of every CONNECT / DISCONNECT
/// sub-query, with its DELETE ONLY components and MODIFY targets
/// resolved. An INSERT runs no query and is kept as parsed.
///
/// Also returns each slot's type: the type of the attribute the slot is
/// first compared with, in WHERE order, or else assigned to by an
/// INSERT or MODIFY (`None` when neither).
pub fn plan_statement(
    schema: &Schema,
    stmt: &Statement,
    slots: usize,
) -> PrimaResult<(StatementPlan, Vec<Option<AttrType>>)> {
    let mut compiler = Compiler { schema, slot_types: vec![None; slots] };
    let plan = compiler.statement(stmt)?;
    Ok((plan, compiler.slot_types))
}

/// One statement's compile: the schema its names resolve against, and
/// the type of each parameter slot as far as it is known.
struct Compiler<'s> {
    schema: &'s Schema,
    slot_types: Vec<Option<AttrType>>,
}

/// What a query's names resolve against: its nodes, the atom type of
/// each, and its molecule-type aliases.
#[derive(Clone, Copy)]
struct Names<'a, 's> {
    nodes: &'a [ResolvedNode],
    types: &'a [&'s AtomType],
    aliases: &'a [(String, usize)],
}

impl<'a, 's> Names<'a, 's> {
    /// The names of a compiled query whose node types are `types`.
    fn of(q: &'a ResolvedQuery, types: &'a [&'s AtomType]) -> Self {
        Names { nodes: &q.nodes, types, aliases: &q.aliases }
    }

    /// The node a component name denotes: the first node with that
    /// label, else the node a molecule-type alias landed on.
    fn node(&self, name: &str) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.label == name)
            .or_else(|| self.aliases.iter().find(|(n, _)| n == name).map(|(_, i)| *i))
    }

    /// The node `r` names; `bare` when it names none.
    fn node_of(&self, r: &CompRef, bare: usize) -> PrimaResult<usize> {
        match &r.component {
            None => Ok(bare),
            Some(name) => self.node(name).ok_or_else(|| PrimaError::UnresolvedReference {
                reference: r.to_string(),
                detail: format!("no component '{name}' in FROM"),
            }),
        }
    }

    /// The index of `r`'s attribute on the type of node `node`.
    fn attr(&self, node: usize, r: &CompRef) -> PrimaResult<usize> {
        let at = self.types[node];
        at.attribute_index(&r.attr).ok_or_else(|| PrimaError::UnresolvedReference {
            reference: r.to_string(),
            detail: format!("atom type '{}' has no attribute '{}'", at.name, r.attr),
        })
    }

    /// A reference in a molecule predicate: its node, the atoms it ranges
    /// over (with a level, every atom of the node's type at that level)
    /// and its attribute. A bare reference is to the root.
    fn target(&self, r: &CompRef) -> PrimaResult<(usize, Atoms, usize)> {
        let node = self.node_of(r, 0)?;
        let attr = self.attr(node, r)?;
        let atoms = match r.level {
            Some(level) => Atoms::Level { atom_type: self.nodes[node].atom_type, level },
            None => Atoms::Node(node),
        };
        Ok((node, atoms, attr))
    }
}

/// A comparison operand: a reference, or a value or slot.
enum Side<'p> {
    Ref(&'p CompRef),
    Value(ValueExpr),
}

fn side(o: &Operand) -> Side<'_> {
    match o {
        Operand::Ref(r) => Side::Ref(r),
        Operand::Literal(v) => Side::Value(ValueExpr::Lit(v.clone())),
        Operand::Param(slot) => Side::Value(ValueExpr::Param(*slot)),
    }
}

impl<'s> Compiler<'s> {
    fn statement(&mut self, stmt: &Statement) -> PrimaResult<StatementPlan> {
        // The qualification of a DELETE or MODIFY: `SELECT ALL` over its
        // FROM and WHERE, whose molecules the statement changes.
        let qualification = |from: &FromClause, predicate: Option<&Predicate>| Query {
            select: SelectList::All,
            from: from.clone(),
            predicate: predicate.cloned(),
        };
        Ok(match stmt {
            Statement::Select(q) => StatementPlan::Select(self.query(q)?.0),
            Statement::Insert(i) => {
                self.insert_slots(i)?;
                StatementPlan::Insert(i.clone())
            }
            Statement::Delete(d) => {
                let (qualification, types) =
                    self.query(&qualification(&d.from, d.predicate.as_ref()))?;
                let names = Names::of(&qualification, &types);
                let victims = match &d.only_components {
                    None => (0..qualification.nodes.len()).collect(),
                    Some(only) => only
                        .iter()
                        .map(|n| {
                            names.node(n).ok_or_else(|| PrimaError::UnresolvedReference {
                                reference: n.clone(),
                                detail: "DELETE ONLY names unknown component".into(),
                            })
                        })
                        .collect::<PrimaResult<_>>()?,
                };
                StatementPlan::Delete { qualification, victims }
            }
            Statement::Modify(m) => {
                let (qualification, types) =
                    self.query(&qualification(&m.from, m.predicate.as_ref()))?;
                let names = Names::of(&qualification, &types);
                let assignments = m
                    .assignments
                    .iter()
                    .map(|(target, e)| self.assignment(names, target, e))
                    .collect::<PrimaResult<_>>()?;
                StatementPlan::Modify { qualification, assignments }
            }
        })
    }

    /// Compiles one query: its plan, and the atom type of each node.
    fn query(&mut self, query: &Query) -> PrimaResult<(ResolvedQuery, Vec<&'s AtomType>)> {
        let (expanded, aliases) = resolve_molecule_types(self.schema, query.from.graph())?;
        // Flatten the tree into nodes with parent/child indices (pre-order).
        let (mut nodes, mut types) = (Vec::new(), Vec::new());
        flatten(self.schema, &expanded.root, None, &mut nodes, &mut types)?;
        let names = Names { nodes: &nodes, types: &types, aliases: &aliases };
        // Predicate split: single terms on a root attribute push down to
        // the root access, every other conjunct is residual.
        let (mut root, mut rest) = (Vec::new(), Vec::new());
        if let Some(pred) = &query.predicate {
            let conjuncts = match pred {
                Predicate::And(ts) => ts.as_slice(),
                other => std::slice::from_ref(other),
            };
            for c in conjuncts {
                let term = matches!(
                    c,
                    Predicate::Compare { .. } | Predicate::IsEmpty(_) | Predicate::NotEmpty(_)
                );
                let on_root = if term { self.atom_ssa(names, 0, c)? } else { None };
                match on_root {
                    Some(ssa) => root.push(ssa),
                    None => rest.push(self.residual(names, c)?),
                }
            }
        }
        let root_ssa = Ssa::and(root);
        let residual = if rest.len() > 1 { Some(Residual::And(rest)) } else { rest.pop() };
        // Recursive structures need a root restriction (seed) — otherwise
        // the level-wise evaluation has no anchors.
        if nodes.iter().any(|n| n.recursive) && matches!(root_ssa, Ssa::True) {
            let name = aliases.first().map_or_else(|| nodes[0].label.clone(), |(n, _)| n.clone());
            return Err(PrimaError::MissingSeed(name));
        }
        let select = self.select(names, &query.select)?;
        let node_infos = nodes
            .iter()
            .zip(&select.per_node)
            .map(|(n, p)| NodeInfo {
                label: n.label.clone(),
                atom_type: n.atom_type,
                recursive: n.recursive,
                selected: !matches!(p, NodeProjection::Exclude),
            })
            .collect();
        let kept = (0..nodes.len()).map(|i| kept_attrs(types[i], &select.per_node[i])).collect();
        let root_type = types[0];
        let root_keys = (root_type.attributes.iter().enumerate())
            .filter(|(_, a)| root_type.is_key(&a.name))
            .map(|(i, a)| (i, a.name.clone()))
            .collect();
        let shape = PlanShape { nodes, aliases, select, root_keys, node_infos, kept };
        Ok((ResolvedQuery { shape: Arc::new(shape), root_ssa, residual }, types))
    }

    /// Compiles `pred` into an SSA over the atoms of node `node`: a root
    /// conjunct, a quantifier body or a qualified projection's predicate.
    /// A bare reference is to `node`. `None` when `pred` is not decidable
    /// on those atoms alone: a term compares two references or two
    /// values, quantifies, or reads another node or a recursion level.
    fn atom_ssa(
        &mut self,
        names: Names<'_, 's>,
        node: usize,
        pred: &Predicate,
    ) -> PrimaResult<Option<Ssa>> {
        let attr = |r: &CompRef| -> PrimaResult<Option<usize>> {
            let level_ok = r.level.is_none() || (r.level == Some(0) && node == 0);
            let on_node = names.node_of(r, node)? == node && level_ok;
            on_node.then(|| names.attr(node, r)).transpose()
        };
        Ok(match pred {
            Predicate::Compare { left, op, right } => {
                let (r, op, v) = match (side(left), side(right)) {
                    (Side::Ref(r), Side::Value(v)) => (r, convert_op(*op), v),
                    (Side::Value(v), Side::Ref(r)) => (r, convert_op(*op).flip(), v),
                    _ => return Ok(None),
                };
                attr(r)?.map(|a| self.compare(names.types[node], a, op, v))
            }
            Predicate::IsEmpty(r) => attr(r)?.map(|attr| Ssa::IsEmpty { attr }),
            Predicate::NotEmpty(r) => attr(r)?.map(|attr| Ssa::NotEmpty { attr }),
            Predicate::And(ts) => self.atom_ssas(names, node, ts)?.map(Ssa::and),
            Predicate::Or(ts) => self.atom_ssas(names, node, ts)?.map(Ssa::Or),
            Predicate::Not(t) => self.atom_ssa(names, node, t)?.map(|t| Ssa::Not(Box::new(t))),
            Predicate::ExistsAtLeast { .. } | Predicate::ForAll { .. } => None,
        })
    }

    fn atom_ssas(
        &mut self,
        names: Names<'_, 's>,
        node: usize,
        ts: &[Predicate],
    ) -> PrimaResult<Option<Vec<Ssa>>> {
        let mut out = Vec::with_capacity(ts.len());
        for t in ts {
            let Some(ssa) = self.atom_ssa(names, node, t)? else { return Ok(None) };
            out.push(ssa);
        }
        Ok(Some(out))
    }

    /// `attr op v` on atoms of type `at`; a slot takes the attribute's
    /// type unless an earlier use typed it.
    fn compare(&mut self, at: &AtomType, attr: usize, op: CmpOp, v: ValueExpr) -> Ssa {
        match v {
            ValueExpr::Lit(value) => Ssa::Cmp { attr, op, value },
            ValueExpr::Param(slot) => {
                self.note(slot, &at.attributes[attr].ty);
                Ssa::CmpParam { attr, op, slot }
            }
        }
    }

    fn note(&mut self, slot: u16, ty: &AttrType) {
        if let Some(t @ None) = self.slot_types.get_mut(usize::from(slot)) {
            *t = Some(ty.clone());
        }
    }

    /// Compiles a WHERE term that is not a root conjunct.
    fn residual(&mut self, names: Names<'_, 's>, pred: &Predicate) -> PrimaResult<Residual> {
        Ok(match pred {
            Predicate::And(ts) => Residual::And(self.residuals(names, ts)?),
            Predicate::Or(ts) => Residual::Or(self.residuals(names, ts)?),
            Predicate::Not(t) => Residual::Not(Box::new(self.residual(names, t)?)),
            Predicate::Compare { left, op, right } => {
                let op = convert_op(*op);
                match (side(left), side(right)) {
                    (Side::Ref(l), Side::Ref(r)) => {
                        let ((_, la, lx), (_, ra, rx)) = (names.target(l)?, names.target(r)?);
                        Residual::Refs { left: (la, lx), op, right: (ra, rx) }
                    }
                    (Side::Ref(r), Side::Value(v)) => {
                        self.exists(names, r, |c, at, attr| c.compare(at, attr, op, v))?
                    }
                    (Side::Value(v), Side::Ref(r)) => {
                        self.exists(names, r, |c, at, attr| c.compare(at, attr, op.flip(), v))?
                    }
                    (Side::Value(l), Side::Value(r)) => Residual::Values { left: l, op, right: r },
                }
            }
            Predicate::IsEmpty(r) => self.exists(names, r, |_, _, attr| Ssa::IsEmpty { attr })?,
            Predicate::NotEmpty(r) => self.exists(names, r, |_, _, attr| Ssa::NotEmpty { attr })?,
            Predicate::ExistsAtLeast { n, component, inner } => {
                let (atoms, ssa) = self.quantified(names, component, inner)?;
                Residual::AtLeast { n: *n, atoms, ssa }
            }
            Predicate::ForAll { component, inner } => {
                let (atoms, ssa) = self.quantified(names, component, inner)?;
                Residual::ForAll { atoms, ssa }
            }
        })
    }

    fn residuals(&mut self, names: Names<'_, 's>, ts: &[Predicate]) -> PrimaResult<Vec<Residual>> {
        ts.iter().map(|t| self.residual(names, t)).collect()
    }

    /// A term on one component attribute, `ssa` built for the attribute
    /// `r` resolves to: some atom of the component satisfies it.
    fn exists(
        &mut self,
        names: Names<'_, 's>,
        r: &CompRef,
        ssa: impl FnOnce(&mut Self, &AtomType, usize) -> Ssa,
    ) -> PrimaResult<Residual> {
        let (node, atoms, attr) = names.target(r)?;
        Ok(Residual::AtLeast { n: 1, atoms, ssa: ssa(self, names.types[node], attr) })
    }

    /// A quantifier's range, and its body as an SSA on the atoms of the
    /// quantified component.
    fn quantified(
        &mut self,
        names: Names<'_, 's>,
        component: &str,
        inner: &Predicate,
    ) -> PrimaResult<(Atoms, Ssa)> {
        let node = names.node(component).ok_or_else(|| PrimaError::UnresolvedReference {
            reference: component.to_string(),
            detail: "quantifier over unknown component".into(),
        })?;
        let ssa = self.atom_ssa(names, node, inner)?.ok_or_else(|| {
            PrimaError::BadStatement(
                "quantifier body must be decidable on the quantified component".into(),
            )
        })?;
        Ok((Atoms::Node(node), ssa))
    }

    /// Types the slots an INSERT assigns. Only a slot's attribute is
    /// resolved now; the others are checked when the INSERT runs, as
    /// one-shot text always was.
    fn insert_slots(&mut self, i: &Insert) -> PrimaResult<()> {
        for (name, ve) in &i.assignments {
            let ValueExpr::Param(slot) = ve else { continue };
            let at = self.schema.type_by_name(&i.atom_type).ok_or_else(|| {
                PrimaError::Schema(SchemaError::UnknownAtomType(i.atom_type.clone()))
            })?;
            let idx = at.attribute_index(name).ok_or_else(|| {
                PrimaError::Schema(SchemaError::UnknownAttribute {
                    atom_type: at.name.clone(),
                    attr: name.clone(),
                })
            })?;
            self.note(*slot, &at.attributes[idx].ty);
        }
        Ok(())
    }

    /// Resolves one MODIFY assignment; CONNECT and DISCONNECT need a
    /// reference attribute.
    fn assignment(
        &mut self,
        names: Names<'_, 's>,
        target: &CompRef,
        e: &SetExpr,
    ) -> PrimaResult<Assignment> {
        let node = names.node_of(target, 0)?;
        let attr = names.attr(node, target)?;
        let a = &names.types[node].attributes[attr];
        let set = matches!(a.ty, AttrType::RefSet(..));
        let reference = |verb: &str| {
            if set || matches!(a.ty, AttrType::Ref(_)) {
                Ok(())
            } else {
                Err(PrimaError::BadStatement(format!(
                    "{verb} target '{}' is not a reference attribute",
                    a.name
                )))
            }
        };
        let value = match e {
            SetExpr::Value(v) => {
                if let ValueExpr::Param(slot) = v {
                    self.note(*slot, &a.ty);
                }
                SetValue::Value(v.clone())
            }
            SetExpr::Connect(q) => {
                reference("CONNECT")?;
                SetValue::Connect { roots: self.query(q)?.0, set }
            }
            SetExpr::Disconnect(q) => {
                reference("DISCONNECT")?;
                SetValue::Disconnect { roots: self.query(q)?.0, set }
            }
        };
        Ok(Assignment { node, attr, value })
    }

    /// Maps the SELECT list onto per-node projections.
    fn select(&mut self, names: Names<'_, 's>, select: &SelectList) -> PrimaResult<ResolvedSelect> {
        let mut per_node: Vec<NodeProjection> = match select {
            SelectList::All => vec![NodeProjection::All; names.nodes.len()],
            SelectList::Items(_) => vec![NodeProjection::Exclude; names.nodes.len()],
        };
        let SelectList::Items(items) = select else { return Ok(ResolvedSelect { per_node }) };
        let mut flat = Vec::new();
        flatten_items(items, &mut flat);
        for item in flat {
            match item {
                SelectItem::Group(_) => unreachable!("flattened"),
                SelectItem::Component(name) => {
                    // A whole component — or a root attribute when the
                    // name is not a component.
                    if let Some(idx) = names.node(&name) {
                        per_node[idx] = NodeProjection::All;
                    } else {
                        let attr = names.types[0].attribute_index(&name).ok_or_else(|| {
                            PrimaError::UnresolvedReference {
                                reference: name.clone(),
                                detail: "neither a component nor a root attribute".into(),
                            }
                        })?;
                        add_attr(&mut per_node[0], attr);
                    }
                }
                SelectItem::Attr(r) => {
                    let node = names.node_of(&r, 0)?;
                    let attr = names.attr(node, &r)?;
                    add_attr(&mut per_node[node], attr);
                }
                SelectItem::Qualified { component, query } => {
                    let (node, projection) = self.qualified(names, &component, &query)?;
                    per_node[node] = projection;
                }
            }
        }
        Ok(ResolvedSelect { per_node })
    }

    /// A qualified projection (`face := SELECT … FROM face WHERE …`): its
    /// node, and the projection its WHERE and SELECT give that node.
    fn qualified(
        &mut self,
        names: Names<'_, 's>,
        component: &str,
        query: &Query,
    ) -> PrimaResult<(usize, NodeProjection)> {
        let node = names.node(component).ok_or_else(|| {
            PrimaError::UnresolvedReference {
                reference: component.to_string(),
                detail: "qualified projection on unknown component".into(),
            }
        })?;
        // The inner query must range over the same component type; its
        // WHERE becomes a per-atom SSA, its SELECT a projection.
        let inner_from = query.from.graph();
        if inner_from.root.component != names.nodes[node].label
            || !inner_from.root.children.is_empty()
        {
            return Err(PrimaError::BadStatement(format!(
                "qualified projection for '{component}' must SELECT … FROM {component}"
            )));
        }
        let at = names.types[node];
        let ssa = match &query.predicate {
            None => Ssa::True,
            Some(p) => {
                let ssa = self.atom_ssa(names, node, p)?.ok_or_else(|| {
                    PrimaError::BadStatement(format!(
                        "qualified projection predicate for '{component}' must be decidable on single atoms"
                    ))
                })?;
                // The projection SSA is part of the shape every execution
                // shares, which binding does not touch.
                if ssa.has_params() {
                    return Err(PrimaError::BadStatement(format!(
                        "parameters are not supported in the qualified projection for '{component}' (use them in the WHERE clause instead)"
                    )));
                }
                ssa
            }
        };
        let attrs = match &query.select {
            SelectList::All => None,
            SelectList::Items(items) => {
                let mut out = Vec::new();
                let mut flat = Vec::new();
                flatten_items(items, &mut flat);
                for it in flat {
                    match it {
                        SelectItem::Component(a) | SelectItem::Attr(CompRef { attr: a, .. }) => {
                            let idx = at.attribute_index(&a).ok_or_else(|| {
                                PrimaError::UnresolvedReference {
                                    reference: a.clone(),
                                    detail: format!("no attribute '{a}' on '{}'", at.name),
                                }
                            })?;
                            out.push(idx);
                        }
                        other => {
                            return Err(PrimaError::BadStatement(format!(
                                "unsupported nested projection item {other:?}"
                            )))
                        }
                    }
                }
                Some(out)
            }
        };
        Ok((node, NodeProjection::Qualified { attrs, ssa }))
    }
}

/// The attributes a node's projection keeps ([`PlanShape::kept`]).
fn kept_attrs(at: &AtomType, projection: &NodeProjection) -> Option<Vec<usize>> {
    let attrs: &[usize] = match projection {
        NodeProjection::All | NodeProjection::Qualified { attrs: None, .. } => return None,
        NodeProjection::Attrs(attrs) | NodeProjection::Qualified { attrs: Some(attrs), .. } => {
            attrs
        }
        NodeProjection::Exclude => &[],
    };
    Some(attrs.iter().copied().chain([at.identifier_index()]).collect())
}

fn flatten<'s>(
    schema: &'s Schema,
    node: &MoleculeNode,
    parent: Option<usize>,
    out: &mut Vec<ResolvedNode>,
    types: &mut Vec<&'s AtomType>,
) -> PrimaResult<()> {
    let name = clean_name(&node.component).to_string();
    let at = schema
        .type_by_name(&name)
        .ok_or_else(|| PrimaError::UnknownComponent(name.clone()))?;
    let via = match parent {
        None => None,
        Some(p) => {
            let parent_type = out[p].atom_type;
            let assoc = schema
                .association_between(parent_type, at.id, node.via_attr.as_deref())
                .map_err(|e| PrimaError::NoAssociation {
                    from: out[p].label.clone(),
                    to: name.clone(),
                    detail: e.to_string(),
                })?;
            Some(assoc)
        }
    };
    let idx = out.len();
    out.push(ResolvedNode {
        label: name,
        atom_type: at.id,
        via,
        recursive: node.recursive,
        parent,
        children: Vec::new(),
    });
    types.push(at);
    if let Some(p) = parent {
        out[p].children.push(idx);
    }
    for c in &node.children {
        flatten(schema, c, Some(idx), out, types)?;
    }
    Ok(())
}

fn convert_op(op: CompareOp) -> CmpOp {
    match op {
        CompareOp::Eq => CmpOp::Eq,
        CompareOp::Ne => CmpOp::Ne,
        CompareOp::Lt => CmpOp::Lt,
        CompareOp::Le => CmpOp::Le,
        CompareOp::Gt => CmpOp::Gt,
        CompareOp::Ge => CmpOp::Ge,
    }
}

fn add_attr(p: &mut NodeProjection, attr: usize) {
    match p {
        NodeProjection::Attrs(attrs) => {
            if !attrs.contains(&attr) {
                attrs.push(attr);
            }
        }
        NodeProjection::Exclude => *p = NodeProjection::Attrs(vec![attr]),
        NodeProjection::All | NodeProjection::Qualified { .. } => {}
    }
}

fn flatten_items(items: &[SelectItem], out: &mut Vec<SelectItem>) {
    for i in items {
        match i {
            SelectItem::Group(inner) => flatten_items(inner, out),
            other => out.push(other.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_mad::ddl::{load_script, FIG_2_3_DDL};
    use prima_mad::mql::ParseError;

    fn parse_query(src: &str) -> Result<Query, ParseError> {
        match prima_mad::mql::parse_statement(src)? {
            Statement::Select(q) => Ok(q),
            other => panic!("not a SELECT: {other:?}"),
        }
    }

    fn schema() -> Schema {
        let mut s = Schema::new();
        load_script(&mut s, FIG_2_3_DDL).unwrap();
        s
    }

    #[test]
    fn table_2_1a_resolves() {
        let s = schema();
        let q = parse_query("SELECT ALL FROM brep-face-edge-point WHERE brep_no = 1713").unwrap();
        let r = validate(&s, &q).unwrap();
        assert_eq!(r.nodes.len(), 4);
        assert_eq!(r.nodes[0].label, "brep");
        assert_eq!(r.nodes[3].label, "point");
        // brep_no = 1713 pushed to the root SSA.
        assert!(matches!(r.root_ssa, Ssa::Cmp { .. }));
        assert!(r.residual.is_none());
        // Edge face->edge resolved through face.border.
        let via = r.nodes[2].via.unwrap();
        let face = s.type_by_name("face").unwrap();
        assert_eq!(via.from.attr, face.attribute_index("border").unwrap());
    }

    #[test]
    fn table_2_1b_resolves_recursion_and_seed() {
        let s = schema();
        let q = parse_query("SELECT ALL FROM piece_list WHERE piece_list (0).solid_no = 4711")
            .unwrap();
        let r = validate(&s, &q).unwrap();
        // piece_list inlined: solid -(sub)- solid (recursive).
        assert_eq!(r.nodes.len(), 2);
        assert!(r.nodes[1].recursive);
        assert_eq!(r.nodes[1].via.unwrap().from.attr,
            s.type_by_name("solid").unwrap().attribute_index("sub").unwrap());
        // Seed became the root SSA.
        assert!(matches!(r.root_ssa, Ssa::Cmp { .. }));
        // Alias registered on the root.
        assert!(r.aliases.iter().any(|(n, i)| n == "piece_list" && *i == 0));
    }

    #[test]
    fn recursive_query_without_seed_rejected() {
        let s = schema();
        let q = parse_query("SELECT ALL FROM piece_list").unwrap();
        assert!(matches!(validate(&s, &q), Err(PrimaError::MissingSeed(_))));
    }

    #[test]
    fn table_2_1c_projection_on_root() {
        let s = schema();
        let q = parse_query("SELECT solid_no, description FROM solid WHERE sub = EMPTY").unwrap();
        let r = validate(&s, &q).unwrap();
        assert!(matches!(r.root_ssa, Ssa::IsEmpty { .. }));
        match &r.select.per_node[0] {
            NodeProjection::Attrs(attrs) => assert_eq!(attrs.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn table_2_1d_qualified_projection() {
        let s = schema();
        let q = parse_query(
            "SELECT edge, (point, face := SELECT face_id, square_dim FROM face WHERE square_dim > 1.9E4)
             FROM brep-edge (face, point)
             WHERE brep_no = 1713 AND EXISTS_AT_LEAST (2) edge: edge.length > 1.0E2",
        )
        .unwrap();
        let r = validate(&s, &q).unwrap();
        assert_eq!(r.nodes.len(), 4);
        let node = |label: &str| r.nodes.iter().position(|n| n.label == label).unwrap();
        let (edge_node, face_node) = (node("edge"), node("face"));
        assert!(matches!(r.select.per_node[edge_node], NodeProjection::All));
        assert!(matches!(r.select.per_node[face_node], NodeProjection::Qualified { .. }));
        assert!(matches!(r.select.per_node[0], NodeProjection::Exclude), "brep excluded");
        // Quantifier stays residual; brep_no pushed down.
        assert!(matches!(r.root_ssa, Ssa::Cmp { .. }));
        assert!(matches!(
            r.residual,
            Some(Residual::AtLeast { n: 2, atoms: Atoms::Node(n), .. }) if n == edge_node
        ));
    }

    #[test]
    fn unknown_component_rejected() {
        let s = schema();
        let q = parse_query("SELECT ALL FROM widget").unwrap();
        assert!(matches!(validate(&s, &q), Err(PrimaError::UnknownComponent(_))));
    }

    #[test]
    fn unknown_attribute_in_predicate_rejected() {
        let s = schema();
        let q = parse_query("SELECT ALL FROM solid WHERE colour = 1").unwrap();
        // 'colour' is not a root attribute: not pushed down, and residual
        // validation rejects it.
        assert!(validate(&s, &q).is_err());
    }

    #[test]
    fn named_molecule_types_inline_transitively() {
        let s = schema();
        // brep_obj = brep - face_obj = brep - face - edge_obj = … - point
        let q = parse_query("SELECT ALL FROM brep_obj WHERE brep_no = 1").unwrap();
        let r = validate(&s, &q).unwrap();
        let labels: Vec<&str> = r.nodes.iter().map(|n| n.label.as_str()).collect();
        assert_eq!(labels, vec!["brep", "face", "edge", "point"]);
        assert!(r.aliases.iter().any(|(n, _)| n == "brep_obj"));
    }

    #[test]
    fn slots_take_the_type_of_their_first_use() {
        let s = schema();
        let (stmt, names) = prima_mad::mql::parse_statement_params(
            "MODIFY brep-face SET face.square_dim = :k
             WHERE brep_no = :k AND EXISTS_AT_LEAST (1) face: square_dim > ? AND ? = 1",
        )
        .unwrap();
        let (_, types) = plan_statement(&s, &stmt, names.len()).unwrap();
        // `:k` is compared with `brep_no` before it is assigned to a REAL;
        // the body's bare `square_dim` is the face's; a slot compared
        // with a value stays untyped.
        assert_eq!(types, [Some(AttrType::Integer), Some(AttrType::Real), None]);
    }

    #[test]
    fn ambiguous_association_needs_via() {
        let s = schema();
        // solid-solid without .sub/.super is ambiguous.
        let q = parse_query("SELECT ALL FROM solid-solid WHERE solid_no = 1").unwrap();
        assert!(matches!(validate(&s, &q), Err(PrimaError::NoAssociation { .. })));
        let q = parse_query("SELECT ALL FROM solid.sub-solid WHERE solid_no = 1").unwrap();
        assert!(validate(&s, &q).is_ok());
    }
}
