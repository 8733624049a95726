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
//!    pushed the same way. The rest stays as a residual predicate.
//! 4. **Select resolution** — the SELECT list is mapped onto per-node
//!    projections, including qualified projections (nested SELECTs).
//!
//! [`plan_statement`] applies this to every query a statement runs —
//! a SELECT, a DELETE's or MODIFY's qualification, a CONNECT /
//! DISCONNECT sub-query — once, when the statement is compiled.

use crate::error::{PrimaError, PrimaResult};
use crate::datasys::molecule::NodeInfo;
use crate::datasys::plan::{
    Assignment, NodeProjection, PlanShape, ResolvedNode, ResolvedQuery, ResolvedSelect,
    StatementPlan,
};
use prima_access::ssa::{CmpOp, Ssa};
use prima_mad::mql::{
    CompRef, CompareOp, FromClause, Operand, Predicate, Query, SelectItem, SelectList, SetExpr,
    Statement,
};
use prima_mad::schema::{MoleculeGraph, MoleculeNode, Schema};
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

/// Validates and resolves a parsed query against the schema.
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub fn validate(schema: &Schema, query: &Query) -> PrimaResult<ResolvedQuery> {
    let (expanded, aliases) = resolve_molecule_types(schema, query.from.graph())?;
    // Flatten the tree into nodes with parent/child indices (pre-order).
    let mut nodes: Vec<ResolvedNode> = Vec::new();
    flatten(schema, &expanded.root, None, &mut nodes)?;
    // Label map: node labels (atom type name as written) + aliases.
    // First occurrence wins for duplicate labels.
    let root_attrs: Vec<String> = schema
        .atom_type(nodes[0].atom_type)
        // lint: allow(error-hygiene, root type was resolved a few lines up in this same pass)
        .expect("resolved root type")
        .attributes
        .iter()
        .map(|a| a.name.clone())
        .collect();
    let mut shape = PlanShape {
        nodes,
        aliases,
        select: ResolvedSelect::default(),
        root_attrs,
        node_infos: Arc::new([]),
        kept: Vec::new(),
    };
    // Predicate split.
    let (mut root_ssa, mut residual) = (Ssa::True, None);
    if let Some(pred) = &query.predicate {
        let (root_terms, rest) = split_predicate(&shape, pred)?;
        root_ssa = Ssa::and(root_terms);
        residual = rest;
        // Every referenced component must resolve.
        if let Some(res) = &residual {
            for r in res.comp_refs() {
                resolve_ref(&shape, r, schema)?;
            }
        }
    }
    // Recursive structures need a root restriction (seed) — otherwise the
    // level-wise evaluation has no anchors.
    if shape.is_recursive() && matches!(root_ssa, Ssa::True) {
        let name =
            shape.aliases.first().map_or_else(|| shape.nodes[0].label.clone(), |(n, _)| n.clone());
        return Err(PrimaError::MissingSeed(name));
    }
    // Select resolution.
    shape.select = resolve_select(schema, &shape, &query.select)?;
    shape.node_infos = shape
        .nodes
        .iter()
        .zip(&shape.select.per_node)
        .map(|(n, p)| NodeInfo {
            label: n.label.clone(),
            atom_type: n.atom_type,
            recursive: n.recursive,
            selected: !matches!(p, NodeProjection::Exclude),
        })
        .collect();
    shape.kept =
        (0..shape.nodes.len()).map(|i| kept_attrs(schema, &shape, i)).collect::<PrimaResult<_>>()?;
    Ok(ResolvedQuery { shape: Arc::new(shape), root_ssa, residual })
}

/// The attributes node `i`'s projection keeps ([`PlanShape::kept`]).
fn kept_attrs(schema: &Schema, shape: &PlanShape, i: usize) -> PrimaResult<Option<Vec<usize>>> {
    let attrs: &[usize] = match shape.select.per_node.get(i) {
        None | Some(NodeProjection::All) | Some(NodeProjection::Qualified { attrs: None, .. }) => {
            return Ok(None)
        }
        Some(NodeProjection::Attrs(attrs))
        | Some(NodeProjection::Qualified { attrs: Some(attrs), .. }) => attrs,
        Some(NodeProjection::Exclude) => &[],
    };
    let node = &shape.nodes[i];
    let at = schema
        .atom_type(node.atom_type)
        .ok_or_else(|| PrimaError::UnknownComponent(node.label.clone()))?;
    Ok(Some(attrs.iter().copied().chain([at.identifier_index()]).collect()))
}

/// Compiles a parsed statement into its plan: a SELECT into its
/// processing plan; a DELETE or MODIFY into the plan of its
/// qualification and of every CONNECT / DISCONNECT sub-query. An INSERT
/// runs no query and is kept as parsed.
pub fn plan_statement(schema: &Schema, stmt: &Statement) -> PrimaResult<StatementPlan> {
    // The qualification of a DELETE or MODIFY: `SELECT ALL` over its FROM
    // and WHERE, whose molecules the statement changes.
    let qualification = |from: &FromClause, predicate: Option<&Predicate>| Query {
        select: SelectList::All,
        from: from.clone(),
        predicate: predicate.cloned(),
    };
    Ok(match stmt {
        Statement::Select(q) => StatementPlan::Select(validate(schema, q)?),
        Statement::Insert(i) => StatementPlan::Insert(i.clone()),
        Statement::Delete(d) => StatementPlan::Delete {
            qualification: validate(schema, &qualification(&d.from, d.predicate.as_ref()))?,
            only_components: d.only_components.clone(),
        },
        Statement::Modify(m) => StatementPlan::Modify {
            qualification: validate(schema, &qualification(&m.from, m.predicate.as_ref()))?,
            assignments: m
                .assignments
                .iter()
                .map(|(target, e)| {
                    let assignment = match e {
                        SetExpr::Value(v) => Assignment::Value(v.clone()),
                        SetExpr::Connect(q) => Assignment::Connect(validate(schema, q)?),
                        SetExpr::Disconnect(q) => Assignment::Disconnect(validate(schema, q)?),
                    };
                    Ok((target.clone(), assignment))
                })
                .collect::<PrimaResult<_>>()?,
        },
    })
}

fn flatten(
    schema: &Schema,
    node: &MoleculeNode,
    parent: Option<usize>,
    out: &mut Vec<ResolvedNode>,
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
    if let Some(p) = parent {
        out[p].children.push(idx);
    }
    for c in &node.children {
        flatten(schema, c, Some(idx), out)?;
    }
    Ok(())
}

/// Resolves a component reference to `(node index, attribute index)`.
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub fn resolve_ref(
    q: &PlanShape,
    r: &CompRef,
    schema: &Schema,
) -> PrimaResult<(usize, usize)> {
    let node_idx = match &r.component {
        None => 0,
        Some(name) => q
            .node_by_label(name)
            .or_else(|| q.aliases.iter().find(|(n, _)| n == name).map(|(_, i)| *i))
            .ok_or_else(|| PrimaError::UnresolvedReference {
                reference: r.to_string(),
                detail: format!("no component '{name}' in FROM"),
            })?,
    };
    // lint: allow(error-hygiene, node type ids were interned into this schema by the resolve pass)
    let at = schema.atom_type(q.nodes[node_idx].atom_type).expect("resolved type");
    let attr = at.attribute_index(&r.attr).ok_or_else(|| PrimaError::UnresolvedReference {
        reference: r.to_string(),
        detail: format!("atom type '{}' has no attribute '{}'", at.name, r.attr),
    })?;
    Ok((node_idx, attr))
}

/// Splits a WHERE predicate into root-decidable SSA conjuncts and a
/// residual molecule predicate.
fn split_predicate(
    q: &PlanShape,
    pred: &Predicate,
) -> PrimaResult<(Vec<Ssa>, Option<Predicate>)> {
    let conjuncts: Vec<Predicate> = match pred {
        Predicate::And(ts) => ts.clone(),
        other => vec![other.clone()],
    };
    let mut root_ssas = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        match to_root_ssa(q, &c) {
            Some(ssa) => root_ssas.push(ssa),
            None => residual.push(c),
        }
    }
    let residual = if residual.is_empty() { None } else { Some(Predicate::and(residual)) };
    Ok((root_ssas, residual))
}

/// Attempts to express a predicate as an SSA over the root atom: bare
/// attribute references, explicit references to the root component, and
/// level-0 references of a recursive molecule all qualify.
fn to_root_ssa(q: &PlanShape, pred: &Predicate) -> Option<Ssa> {
    let is_root_ref = |r: &CompRef| -> bool {
        let comp_ok = match &r.component {
            None => true,
            Some(name) => {
                q.node_by_label(name) == Some(0)
                    || q.aliases.iter().any(|(n, idx)| n == name && *idx == 0)
            }
        };
        comp_ok && r.level.unwrap_or(0) == 0
    };
    match pred {
        Predicate::Compare { left: Operand::Ref(r), op, right: Operand::Literal(v) }
            if is_root_ref(r) =>
        {
            let attr = q.root_attr_index(&r.attr)?;
            Some(Ssa::Cmp { attr, op: convert_op(*op), value: v.clone() })
        }
        Predicate::Compare { left: Operand::Literal(v), op, right: Operand::Ref(r) }
            if is_root_ref(r) =>
        {
            let attr = q.root_attr_index(&r.attr)?;
            Some(Ssa::Cmp { attr, op: convert_op(*op).flip(), value: v.clone() })
        }
        // Parameter placeholders push down like literals: the plan keeps
        // an unbound comparison that `Ssa::bind` makes concrete per
        // execution (prepare once, bind + execute many).
        Predicate::Compare { left: Operand::Ref(r), op, right: Operand::Param(slot) }
            if is_root_ref(r) =>
        {
            let attr = q.root_attr_index(&r.attr)?;
            Some(Ssa::CmpParam { attr, op: convert_op(*op), slot: *slot })
        }
        Predicate::Compare { left: Operand::Param(slot), op, right: Operand::Ref(r) }
            if is_root_ref(r) =>
        {
            let attr = q.root_attr_index(&r.attr)?;
            Some(Ssa::CmpParam { attr, op: convert_op(*op).flip(), slot: *slot })
        }
        Predicate::IsEmpty(r) if is_root_ref(r) => {
            Some(Ssa::IsEmpty { attr: q.root_attr_index(&r.attr)? })
        }
        Predicate::NotEmpty(r) if is_root_ref(r) => {
            Some(Ssa::NotEmpty { attr: q.root_attr_index(&r.attr)? })
        }
        _ => None,
    }
}

pub(crate) fn convert_op(op: CompareOp) -> CmpOp {
    match op {
        CompareOp::Eq => CmpOp::Eq,
        CompareOp::Ne => CmpOp::Ne,
        CompareOp::Lt => CmpOp::Lt,
        CompareOp::Le => CmpOp::Le,
        CompareOp::Gt => CmpOp::Gt,
        CompareOp::Ge => CmpOp::Ge,
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
fn resolve_select(
    schema: &Schema,
    q: &PlanShape,
    select: &SelectList,
) -> PrimaResult<ResolvedSelect> {
    let mut per_node: Vec<NodeProjection> = match select {
        SelectList::All => vec![NodeProjection::All; q.nodes.len()],
        SelectList::Items(_) => vec![NodeProjection::Exclude; q.nodes.len()],
    };
    if let SelectList::Items(items) = select {
        let mut flat = Vec::new();
        flatten_items(items, &mut flat);
        for item in flat {
            match item {
                SelectItem::Group(_) => unreachable!("flattened"),
                SelectItem::Component(name) => {
                    // A whole component — or a root attribute when the
                    // name is not a component.
                    if let Some(idx) =
                        q.node_by_label(&name).or_else(|| alias_node(q, &name))
                    {
                        per_node[idx] = NodeProjection::All;
                    } else {
                        let attr = q.root_attr_index(&name).ok_or_else(|| {
                            PrimaError::UnresolvedReference {
                                reference: name.clone(),
                                detail: "neither a component nor a root attribute".into(),
                            }
                        })?;
                        add_attr(&mut per_node[0], attr);
                    }
                }
                SelectItem::Attr(r) => {
                    let (node, attr) = resolve_ref(q, &r, schema)?;
                    add_attr(&mut per_node[node], attr);
                }
                SelectItem::Qualified { component, query } => {
                    let node = q.node_by_label(&component).ok_or_else(|| {
                        PrimaError::UnresolvedReference {
                            reference: component.clone(),
                            detail: "qualified projection on unknown component".into(),
                        }
                    })?;
                    // The inner query must range over the same component
                    // type; its WHERE becomes a per-atom SSA, its SELECT a
                    // projection.
                    let inner_from = query.from.graph();
                    if inner_from.root.component != q.nodes[node].label
                        || !inner_from.root.children.is_empty()
                    {
                        return Err(PrimaError::BadStatement(format!(
                            "qualified projection for '{component}' must SELECT … FROM {component}"
                        )));
                    }
                    // lint: allow(error-hygiene, node type ids were interned into this schema by the resolve pass)
                    let at = schema.atom_type(q.nodes[node].atom_type).expect("resolved");
                    let ssa = match &query.predicate {
                        None => Ssa::True,
                        Some(p) => {
                            // The projection SSA is baked into the plan at
                            // validation time, before any binding — name
                            // the actual limitation instead of blaming
                            // decidability.
                            if !p.param_slots().is_empty() {
                                return Err(PrimaError::BadStatement(format!(
                                    "parameters are not supported in the qualified projection for '{component}' (use them in the WHERE clause instead)"
                                )));
                            }
                            predicate_to_atom_ssa(p, |attr| at.attribute_index(attr))
                                .ok_or_else(|| {
                                    PrimaError::BadStatement(format!(
                                        "qualified projection predicate for '{component}' must be decidable on single atoms"
                                    ))
                                })?
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
                                                detail: format!(
                                                    "no attribute '{a}' on '{}'",
                                                    at.name
                                                ),
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
                    per_node[node] = NodeProjection::Qualified { attrs, ssa };
                }
            }
        }
    }
    Ok(ResolvedSelect { per_node })
}

fn alias_node(q: &PlanShape, name: &str) -> Option<usize> {
    q.aliases.iter().find(|(n, _)| n == name).map(|(_, i)| *i)
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

/// Converts a single-component predicate into an [`Ssa`] (used by
/// qualified projections and quantifier bodies). Returns `None` when the
/// predicate references other components.
pub fn predicate_to_atom_ssa(
    pred: &Predicate,
    attr_index: impl Fn(&str) -> Option<usize> + Copy,
) -> Option<Ssa> {
    match pred {
        Predicate::Compare { left: Operand::Ref(r), op, right: Operand::Literal(v) } => {
            Some(Ssa::Cmp { attr: attr_index(&r.attr)?, op: convert_op(*op), value: v.clone() })
        }
        Predicate::Compare { left: Operand::Literal(v), op, right: Operand::Ref(r) } => {
            Some(Ssa::Cmp {
                attr: attr_index(&r.attr)?,
                op: convert_op(*op).flip(),
                value: v.clone(),
            })
        }
        Predicate::IsEmpty(r) => Some(Ssa::IsEmpty { attr: attr_index(&r.attr)? }),
        Predicate::NotEmpty(r) => Some(Ssa::NotEmpty { attr: attr_index(&r.attr)? }),
        Predicate::And(ts) => {
            let parts: Option<Vec<Ssa>> =
                ts.iter().map(|t| predicate_to_atom_ssa(t, attr_index)).collect();
            Some(Ssa::and(parts?))
        }
        Predicate::Or(ts) => {
            let parts: Option<Vec<Ssa>> =
                ts.iter().map(|t| predicate_to_atom_ssa(t, attr_index)).collect();
            Some(Ssa::Or(parts?))
        }
        Predicate::Not(t) => Some(Ssa::Not(Box::new(predicate_to_atom_ssa(t, attr_index)?))),
        _ => None,
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
        let edge_node = r.node_by_label("edge").unwrap();
        let face_node = r.node_by_label("face").unwrap();
        assert!(matches!(r.select.per_node[edge_node], NodeProjection::All));
        assert!(matches!(r.select.per_node[face_node], NodeProjection::Qualified { .. }));
        assert!(matches!(r.select.per_node[0], NodeProjection::Exclude), "brep excluded");
        // Quantifier stays residual; brep_no pushed down.
        assert!(matches!(r.root_ssa, Ssa::Cmp { .. }));
        assert!(matches!(r.residual, Some(Predicate::ExistsAtLeast { .. })));
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
    fn ambiguous_association_needs_via() {
        let s = schema();
        // solid-solid without .sub/.super is ambiguous.
        let q = parse_query("SELECT ALL FROM solid-solid WHERE solid_no = 1").unwrap();
        assert!(matches!(validate(&s, &q), Err(PrimaError::NoAssociation { .. })));
        let q = parse_query("SELECT ALL FROM solid.sub-solid WHERE solid_no = 1").unwrap();
        assert!(validate(&s, &q).is_ok());
    }
}
