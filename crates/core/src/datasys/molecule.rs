//! Molecule result representation.
//!
//! "The objects the user has to deal with are called molecule
//! occurrences, shortly molecules. Each molecule consists of more
//! primitive molecules and belongs to its molecule type" (Section 2.2).
//! A molecule occurrence here is a tree of *positions* mirroring the
//! (resolved, hierarchical) molecule structure of the query's FROM
//! clause; recursive structures carry the recursion *level* on every
//! position (level 0 = root, as used by the seed qualification
//! `piece_list (0).…`). Molecules share sub-objects (Fig. 2.3: a point
//! lies on three edges), so one atom may occupy several positions: every
//! position holds an [`Arc`], and assembly hands all positions of an id
//! the same decoded instance (`Arc::ptr_eq`; a projection gives each
//! projected position its own copy).

use prima_access::Atom;
use prima_mad::value::AtomId;
use std::fmt;
use std::sync::Arc;

/// One position inside a molecule occurrence: a structural place and the
/// (possibly shared) atom that occupies it.
#[derive(Debug, Clone, PartialEq)]
pub struct MolAtom {
    /// Index into the resolved structure's node list.
    pub node: usize,
    /// Recursion level (0 for non-recursive structures).
    pub level: u32,
    /// The atom at this position, shared with every other position of
    /// the molecule that references the same id.
    pub atom: Arc<Atom>,
    pub children: Vec<MolAtom>,
}

impl MolAtom {
    pub fn new(node: usize, level: u32, atom: impl Into<Arc<Atom>>) -> Self {
        MolAtom { node, level, atom: atom.into(), children: Vec::new() }
    }

    /// Number of positions in this subtree.
    pub fn atom_count(&self) -> usize {
        1 + self.children.iter().map(MolAtom::atom_count).sum::<usize>()
    }

    fn visit<'a>(&'a self, f: &mut impl FnMut(&'a MolAtom)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }
}

/// One molecule occurrence.
#[derive(Debug, Clone, PartialEq)]
pub struct Molecule {
    pub root: MolAtom,
}

impl Molecule {
    pub fn new(root: MolAtom) -> Self {
        Molecule { root }
    }

    /// Total number of positions (a shared atom counts once per position).
    pub fn atom_count(&self) -> usize {
        self.root.atom_count()
    }

    /// All atoms of a given structure node, in pre-order.
    pub fn atoms_of_node(&self, node: usize) -> Vec<&Atom> {
        let mut out = Vec::new();
        self.root.visit(&mut |m| {
            if m.node == node {
                out.push(&*m.atom);
            }
        });
        out
    }

    /// The atom id of every position, in pre-order: an atom shared by
    /// several positions appears once per position.
    pub fn atom_ids(&self) -> Vec<AtomId> {
        let mut out = Vec::new();
        self.root.visit(&mut |m| out.push(m.atom.id));
        out
    }

    /// Greatest recursion level present.
    pub fn depth(&self) -> u32 {
        let mut max = 0;
        self.root.visit(&mut |m| max = max.max(m.level));
        max
    }

    /// Visits every [`MolAtom`] in pre-order.
    pub fn for_each(&self, mut f: impl FnMut(&MolAtom)) {
        self.root.visit(&mut f);
    }
}

/// Description of one structure node, carried along with results so
/// applications can address components by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    pub label: String,
    pub atom_type: prima_mad::AtomTypeId,
    pub recursive: bool,
    /// Whether the SELECT list keeps this component's attribute values
    /// (excluded components remain as identifier-only skeleton).
    pub selected: bool,
}

/// A set of molecules: the result of an MQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct MoleculeSet {
    /// Structure description (index = node id used in [`MolAtom::node`]),
    /// shared with the plan that produced the set.
    pub nodes: Arc<[NodeInfo]>,
    pub molecules: Vec<Molecule>,
}

impl MoleculeSet {
    /// Node id of a component label.
    pub fn node_id(&self, label: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.label == label)
    }

    /// All atoms of the named component across all molecules.
    pub fn atoms_of(&self, label: &str) -> Vec<&Atom> {
        match self.node_id(label) {
            Some(id) => self.molecules.iter().flat_map(|m| m.atoms_of_node(id)).collect(),
            None => Vec::new(),
        }
    }

    /// Total atom count across molecules.
    pub fn atom_count(&self) -> usize {
        self.molecules.iter().map(Molecule::atom_count).sum()
    }

    pub fn len(&self) -> usize {
        self.molecules.len()
    }

    pub fn is_empty(&self) -> bool {
        self.molecules.is_empty()
    }
}

impl fmt::Display for MoleculeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} molecule(s)", self.molecules.len())?;
        for (i, m) in self.molecules.iter().enumerate() {
            writeln!(f, "molecule #{i}:")?;
            fmt_mol_atom(f, &m.root, &self.nodes, 1)?;
        }
        Ok(())
    }
}

fn fmt_mol_atom(
    f: &mut fmt::Formatter<'_>,
    m: &MolAtom,
    nodes: &[NodeInfo],
    indent: usize,
) -> fmt::Result {
    let label = nodes.get(m.node).map_or("?", |n| n.label.as_str());
    write!(f, "{}{} {}", "  ".repeat(indent), label, m.atom.id)?;
    if m.level > 0 {
        write!(f, " (level {})", m.level)?;
    }
    let shown: Vec<String> = m
        .atom
        .values
        .iter()
        .filter(|v| !matches!(v, prima_mad::Value::Null))
        .take(4)
        .map(std::string::ToString::to_string)
        .collect();
    writeln!(f, " [{}]", shown.join(", "))?;
    for c in &m.children {
        fmt_mol_atom(f, c, nodes, indent + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_mad::Value;

    fn atom(t: u16, seq: u64) -> Atom {
        Atom::new(AtomId::new(t, seq), vec![Value::Id(AtomId::new(t, seq))])
    }

    fn sample() -> MoleculeSet {
        // root (node 0) with two children of node 1, one grandchild node 1
        // at level 2 (recursive-ish).
        let mut root = MolAtom::new(0, 0, atom(0, 1));
        let mut c1 = MolAtom::new(1, 1, atom(1, 10));
        c1.children.push(MolAtom::new(1, 2, atom(1, 20)));
        root.children.push(c1);
        root.children.push(MolAtom::new(1, 1, atom(1, 11)));
        MoleculeSet {
            nodes: vec![
                NodeInfo { label: "solid".into(), atom_type: 0, recursive: false, selected: true },
                NodeInfo { label: "part".into(), atom_type: 1, recursive: true, selected: true },
            ]
            .into(),
            molecules: vec![Molecule::new(root)],
        }
    }

    #[test]
    fn counting_and_lookup() {
        let s = sample();
        assert_eq!(s.len(), 1);
        assert_eq!(s.atom_count(), 4);
        assert_eq!(s.molecules[0].depth(), 2);
        assert_eq!(s.atoms_of("part").len(), 3);
        assert_eq!(s.atoms_of("solid").len(), 1);
        assert_eq!(s.atoms_of("nothing").len(), 0);
        let mut node_1_at_level_2 = 0;
        s.molecules[0].for_each(|m| node_1_at_level_2 += usize::from(m.node == 1 && m.level == 2));
        assert_eq!(node_1_at_level_2, 1);
    }

    #[test]
    fn display_renders_structure() {
        let s = sample();
        let text = s.to_string();
        assert!(text.contains("molecule #0"));
        assert!(text.contains("solid @0:1"));
        assert!(text.contains("(level 2)"));
    }

    #[test]
    fn positions_accept_owned_or_shared_atoms() {
        let shared = Arc::new(atom(1, 10));
        let mut root = MolAtom::new(0, 0, atom(0, 1));
        root.children.push(MolAtom::new(1, 1, Arc::clone(&shared)));
        root.children.push(MolAtom::new(1, 2, shared));
        let m = Molecule::new(root);
        assert_eq!(m.atom_count(), 3);
        assert!(Arc::ptr_eq(&m.root.children[0].atom, &m.root.children[1].atom));
        assert_eq!(m.atom_ids()[1], m.atom_ids()[2]);
    }
}
