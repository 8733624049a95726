//! Molecule result representation.
//!
//! "The objects the user has to deal with are called molecule
//! occurrences, shortly molecules. Each molecule consists of more
//! primitive molecules and belongs to its molecule type" (Section 2.2).
//! A molecule occurrence here is a tree of *positions* mirroring the
//! (resolved, hierarchical) molecule structure of the query's FROM
//! clause; recursive structures carry the recursion *level* on every
//! position (level 0 = root, as used by the seed qualification
//! `piece_list (0).…`).
//!
//! The tree is stored flat: the molecule keeps its [`Molecule::root`]
//! and every other position in one vector, in the order they were
//! appended. A parent is appended before its children, and the children
//! of one position are appended one after the other, so they are one
//! contiguous range of that vector ([`Molecule::children`]). Assembly
//! appends level by level and hands its vector over as the molecule;
//! nothing is rebuilt for the caller. Positions are numbered in append
//! order, the root being position 0 ([`Molecule::position`]).
//!
//! Molecules share sub-objects (Fig. 2.3: a point lies on three edges),
//! so one atom may occupy several positions: every position holds an
//! [`Arc`], and assembly hands all positions of an id the same decoded
//! instance (`Arc::ptr_eq`; a projection gives each projected position
//! its own copy).

use prima_access::Atom;
use prima_mad::value::AtomId;
use std::fmt;
use std::sync::Arc;

/// One position inside a molecule occurrence: a structural place and the
/// (possibly shared) atom that occupies it. Its children are read
/// through the molecule that holds it ([`Molecule::children`]).
#[derive(Debug, Clone)]
pub struct MolAtom {
    /// Index into the resolved structure's node list.
    pub node: usize,
    /// Recursion level (0 for non-recursive structures).
    pub level: u32,
    /// The atom at this position, shared with every other position of
    /// the molecule that references the same id.
    pub atom: Arc<Atom>,
    /// The children: `first..first + count` of the molecule's positions
    /// after the root.
    first: u32,
    count: u32,
}

impl MolAtom {
    /// A position without children.
    pub fn new(node: usize, level: u32, atom: impl Into<Arc<Atom>>) -> Self {
        MolAtom { node, level, atom: atom.into(), first: 0, count: 0 }
    }

    fn child_range(&self) -> std::ops::Range<usize> {
        self.first as usize..(self.first + self.count) as usize
    }
}

/// One molecule occurrence: its root and every other position, flat.
#[derive(Debug, Clone)]
pub struct Molecule {
    pub root: MolAtom,
    /// The positions below the root, in append order (position `i` of
    /// the molecule is `positions[i - 1]`).
    positions: Vec<MolAtom>,
}

impl Molecule {
    /// A molecule of one position.
    pub fn new(root: MolAtom) -> Self {
        Molecule { root, positions: Vec::new() }
    }

    /// Appends `child`, without any children it had, as the next child of
    /// position `parent` and returns the child's position. The children
    /// of one position must be appended one after the other, with no
    /// other position between them, so that they stay one range; a
    /// child appended apart panics.
    pub fn push_child(&mut self, parent: usize, child: MolAtom) -> usize {
        let at = self.positions.len() as u32;
        let p = self.position_mut(parent);
        if p.count == 0 {
            p.first = at;
        }
        assert_eq!(p.first + p.count, at, "children of position {parent} appended apart");
        p.count += 1;
        self.positions.push(MolAtom { first: 0, count: 0, ..child });
        at as usize + 1
    }

    /// Makes room for `additional` more positions.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.positions.reserve(additional);
    }

    /// Position `i` in append order (0 is the root).
    pub fn position(&self, i: usize) -> &MolAtom {
        match i {
            0 => &self.root,
            i => &self.positions[i - 1],
        }
    }

    fn position_mut(&mut self, i: usize) -> &mut MolAtom {
        match i {
            0 => &mut self.root,
            i => &mut self.positions[i - 1],
        }
    }

    /// The children of `pos`, a position of this molecule, in order.
    pub fn children(&self, pos: &MolAtom) -> &[MolAtom] {
        &self.positions[pos.child_range()]
    }

    /// Total number of positions (a shared atom counts once per position).
    pub fn atom_count(&self) -> usize {
        1 + self.positions.len()
    }

    fn visit<'a>(&'a self, pos: &'a MolAtom, f: &mut impl FnMut(&'a MolAtom)) {
        f(pos);
        for c in self.children(pos) {
            self.visit(c, f);
        }
    }

    /// All atoms of a given structure node, in pre-order.
    pub fn atoms_of_node(&self, node: usize) -> Vec<&Atom> {
        let mut out = Vec::new();
        self.visit(&self.root, &mut |m| {
            if m.node == node {
                out.push(&*m.atom);
            }
        });
        out
    }

    /// The atom id of every position, in pre-order: an atom shared by
    /// several positions appears once per position.
    pub fn atom_ids(&self) -> Vec<AtomId> {
        let mut out = Vec::with_capacity(self.atom_count());
        self.visit(&self.root, &mut |m| out.push(m.atom.id));
        out
    }

    /// Greatest recursion level present.
    pub fn depth(&self) -> u32 {
        self.positions.iter().map(|m| m.level).fold(self.root.level, u32::max)
    }

    /// Visits every [`MolAtom`] in pre-order.
    pub fn for_each(&self, mut f: impl FnMut(&MolAtom)) {
        self.visit(&self.root, &mut f);
    }

    /// Visits every position, in append order, for an in-place change of
    /// its atom.
    pub(crate) fn for_each_mut(&mut self, mut f: impl FnMut(&mut MolAtom)) {
        f(&mut self.root);
        self.positions.iter_mut().for_each(f);
    }

    /// Keeps the positions `keep` accepts whose parent is kept, dropping
    /// every other one with its subtree, and closes the gaps. `keep`
    /// sees a position only if its parent was kept. Returns false (and
    /// leaves the molecule as it was) when `keep` rejects the root.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&MolAtom) -> bool) -> bool {
        const DROPPED: u32 = u32::MAX;
        if !keep(&self.root) {
            return false;
        }
        // A parent precedes its children, so one pass in append order
        // decides each position after its parent: `new_at[i]` is the
        // kept position's index once the gaps are closed.
        let mut new_at = vec![DROPPED; self.positions.len()];
        let mut kept = 0;
        for c in self.root.child_range() {
            if keep(&self.positions[c]) {
                new_at[c] = 0;
            }
        }
        for i in 0..self.positions.len() {
            if new_at[i] == DROPPED {
                continue;
            }
            new_at[i] = kept;
            kept += 1;
            for c in self.positions[i].child_range() {
                if keep(&self.positions[c]) {
                    new_at[c] = 0;
                }
            }
        }
        if kept as usize == self.positions.len() {
            return true;
        }
        // Kept siblings stay adjacent once the dropped ones between them
        // are gone: renumber each kept position's range.
        let renumber = |p: &mut MolAtom| {
            let mut kids = p.child_range().map(|c| new_at[c]).filter(|&n| n != DROPPED);
            (p.first, p.count) = match kids.next() {
                Some(first) => (first, 1 + kids.count() as u32),
                None => (0, 0),
            };
        };
        renumber(&mut self.root);
        let mut i = 0;
        self.positions.retain_mut(|p| {
            let keep = new_at[i] != DROPPED;
            i += 1;
            if keep {
                renumber(p);
            }
            keep
        });
        true
    }
}

/// Equality of the trees: the same positions with the same children, in
/// the same order, however each molecule's positions were appended.
impl PartialEq for Molecule {
    fn eq(&self, other: &Molecule) -> bool {
        fn same(a: &Molecule, x: &MolAtom, b: &Molecule, y: &MolAtom) -> bool {
            let (xs, ys) = (a.children(x), b.children(y));
            x.node == y.node
                && x.level == y.level
                && x.atom == y.atom
                && xs.len() == ys.len()
                && xs.iter().zip(ys).all(|(x, y)| same(a, x, b, y))
        }
        self.atom_count() == other.atom_count() && same(self, &self.root, other, &other.root)
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
            fmt_mol_atom(f, m, &m.root, &self.nodes, 1)?;
        }
        Ok(())
    }
}

fn fmt_mol_atom(
    f: &mut fmt::Formatter<'_>,
    mol: &Molecule,
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
    for c in mol.children(m) {
        fmt_mol_atom(f, mol, c, nodes, indent + 1)?;
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
        let mut m = Molecule::new(MolAtom::new(0, 0, atom(0, 1)));
        let c1 = m.push_child(0, MolAtom::new(1, 1, atom(1, 10)));
        m.push_child(0, MolAtom::new(1, 1, atom(1, 11)));
        m.push_child(c1, MolAtom::new(1, 2, atom(1, 20)));
        MoleculeSet {
            nodes: vec![
                NodeInfo { label: "solid".into(), atom_type: 0, recursive: false, selected: true },
                NodeInfo { label: "part".into(), atom_type: 1, recursive: true, selected: true },
            ]
            .into(),
            molecules: vec![m],
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
        let mut m = Molecule::new(MolAtom::new(0, 0, atom(0, 1)));
        m.push_child(0, MolAtom::new(1, 1, Arc::clone(&shared)));
        m.push_child(0, MolAtom::new(1, 2, shared));
        assert_eq!(m.atom_count(), 3);
        let kids = m.children(&m.root);
        assert!(Arc::ptr_eq(&kids[0].atom, &kids[1].atom));
        assert_eq!(m.atom_ids()[1], m.atom_ids()[2]);
    }

    #[test]
    #[should_panic(expected = "appended apart")]
    fn children_appended_apart_panic() {
        let mut m = Molecule::new(MolAtom::new(0, 0, atom(0, 1)));
        let a = m.push_child(0, leaf(10));
        m.push_child(a, leaf(20));
        m.push_child(0, leaf(11));
    }

    fn leaf(seq: u64) -> MolAtom {
        MolAtom::new(1, 0, atom(1, seq))
    }

    /// Pre-order whatever the append order; equal trees are equal
    /// whatever their layout, and sibling order counts.
    #[test]
    fn preorder_and_equality_ignore_the_layout() {
        // root -> 10, 11; 10 -> 20 -> 30; 11 -> 21.
        let mut level_order = Molecule::new(MolAtom::new(0, 0, atom(0, 1)));
        let a = level_order.push_child(0, leaf(10));
        let b = level_order.push_child(0, leaf(11));
        let c = level_order.push_child(a, leaf(20));
        level_order.push_child(b, leaf(21));
        level_order.push_child(c, leaf(30));
        let mut depth_first = Molecule::new(MolAtom::new(0, 0, atom(0, 1)));
        let a = depth_first.push_child(0, leaf(10));
        let b = depth_first.push_child(0, leaf(11));
        let c = depth_first.push_child(a, leaf(20));
        depth_first.push_child(c, leaf(30));
        depth_first.push_child(b, leaf(21));
        for m in [&level_order, &depth_first] {
            let seqs: Vec<u64> = m.atom_ids().iter().map(|id| id.seq).collect();
            assert_eq!(seqs, [1, 10, 20, 30, 11, 21]);
            assert_eq!(m.atom_count(), 6);
        }
        assert_eq!(level_order, depth_first);
        let mut swapped = Molecule::new(MolAtom::new(0, 0, atom(0, 1)));
        let b = swapped.push_child(0, leaf(11));
        let a = swapped.push_child(0, leaf(10));
        swapped.push_child(b, leaf(21));
        let c = swapped.push_child(a, leaf(20));
        swapped.push_child(c, leaf(30));
        assert_ne!(level_order, swapped);
    }

    /// `retain` drops a rejected position with its subtree, never shows
    /// the subtree to `keep`, and closes the gaps.
    #[test]
    fn retain_prunes_subtrees_and_compacts() {
        // root -> 10, 11, 12; 10 -> 20, 21; 11 -> 22; 12 -> 23.
        let mut m = Molecule::new(MolAtom::new(0, 0, atom(0, 1)));
        let p: Vec<usize> = [10, 11, 12].map(|s| m.push_child(0, leaf(s))).into();
        m.push_child(p[0], leaf(20));
        m.push_child(p[0], leaf(21));
        m.push_child(p[1], leaf(22));
        m.push_child(p[2], leaf(23));
        let mut seen = Vec::new();
        assert!(m.retain(|ma| {
            seen.push(ma.atom.id.seq);
            ![11, 21].contains(&ma.atom.id.seq)
        }));
        assert!(!seen.contains(&22), "a dropped subtree is not visited: {seen:?}");
        let mut want = Molecule::new(MolAtom::new(0, 0, atom(0, 1)));
        let a = want.push_child(0, leaf(10));
        let c = want.push_child(0, leaf(12));
        want.push_child(a, leaf(20));
        want.push_child(c, leaf(23));
        assert_eq!(m, want);
        assert_eq!(m.atom_count(), 5);
        assert_eq!(m.children(&m.root).len(), 2);
        assert!(!m.retain(|ma| ma.node != 0), "a rejected root rejects the molecule");
        assert_eq!(m, want);
    }
}
