//! Molecule types: dynamically superimposed structures over atoms.
//!
//! "Molecules are defined — in the query language, not in the schema — by
//! naming the atom types and their associations" (Section 2.1). A molecule
//! type is a rooted structure whose nodes are atom types (or previously
//! named molecule types, later inlined) and whose edges are associations;
//! Fig. 2.3c names four examples, including the *recursive*
//! `piece_list FROM solid.sub - solid (recursive)` and Table 2.1d shows a
//! tree-structured `brep-edge (face, point)` with brace expressions.

use std::fmt;

/// A node in a molecule structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoleculeNode {
    /// Atom-type name — or the name of a previously defined molecule type,
    /// which query validation inlines ("resolution of predefined molecule
    /// types", Section 3.1).
    pub component: String,
    /// Reference attribute on the *parent* used to reach this node, when
    /// disambiguation is needed (the `solid.sub - solid` notation); `None`
    /// lets the (unique) association be inferred.
    pub via_attr: Option<String>,
    /// Child components (brace expression `a (b, c)` produces two
    /// children).
    pub children: Vec<MoleculeNode>,
    /// Marks a recursive edge: the node re-expands through the same
    /// association level by level (`(recursive)` in Fig. 2.3c).
    pub recursive: bool,
}

impl MoleculeNode {
    pub fn leaf(component: impl Into<String>) -> Self {
        MoleculeNode {
            component: component.into(),
            via_attr: None,
            children: Vec::new(),
            recursive: false,
        }
    }

    #[cfg(test)]
    pub fn with_children(component: impl Into<String>, children: Vec<MoleculeNode>) -> Self {
        MoleculeNode { component: component.into(), via_attr: None, children, recursive: false }
    }

    /// Builder: set the disambiguating parent attribute.
    pub fn via(mut self, attr: impl Into<String>) -> Self {
        self.via_attr = Some(attr.into());
        self
    }

    /// Builder: mark recursive.
    pub fn recursive(mut self) -> Self {
        self.recursive = true;
        self
    }

    /// All component names in pre-order.
    #[cfg(test)]
    pub fn component_names(&self) -> Vec<&str> {
        let mut out = vec![self.component.as_str()];
        for c in &self.children {
            out.extend(c.component_names());
        }
        out
    }

    /// Number of nodes.
    #[cfg(test)]
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(MoleculeNode::node_count).sum::<usize>()
    }

    /// Depth of the structure (a single node has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(MoleculeNode::depth).max().unwrap_or(0)
    }
}

/// A molecule structure: a rooted tree of components. (Meshed — i.e.
/// non-hierarchical — molecule structures are resolved by the data system
/// "into an equivalent hierarchical one which is easier to cope with",
/// Section 3.1, so the stored form is always a tree.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoleculeGraph {
    pub root: MoleculeNode,
}

impl MoleculeGraph {
    pub fn new(root: MoleculeNode) -> Self {
        MoleculeGraph { root }
    }

    /// A linear chain `a-b-c-…` (the Table 2.1a notation).
    #[cfg(test)]
    pub fn linear(components: &[&str]) -> Self {
        let mut iter = components.iter().rev();
        let last = iter.next().expect("at least one component");
        let mut node = MoleculeNode::leaf(*last);
        for c in iter {
            node = MoleculeNode::with_children(*c, vec![node]);
        }
        MoleculeGraph { root: node }
    }

    #[cfg(test)]
    pub fn component_names(&self) -> Vec<&str> {
        self.root.component_names()
    }

    /// True if any edge is recursive.
    pub fn is_recursive(&self) -> bool {
        fn rec(n: &MoleculeNode) -> bool {
            n.recursive || n.children.iter().any(rec)
        }
        rec(&self.root)
    }
}

impl fmt::Display for MoleculeNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = &self.via_attr {
            // parent.attr - child form is printed by the parent; here we
            // only annotate.
            write!(f, ".{v}-")?;
        }
        write!(f, "{}", self.component)?;
        if self.recursive {
            write!(f, " (RECURSIVE)")?;
        }
        match self.children.len() {
            0 => Ok(()),
            1 => write!(f, "-{}", self.children[0]),
            _ => {
                write!(f, " (")?;
                for (i, c) in self.children.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for MoleculeGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.root)
    }
}

/// A named molecule type (`DEFINE MOLECULE TYPE name FROM structure`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoleculeType {
    pub name: String,
    pub graph: MoleculeGraph,
}

impl MoleculeType {
    pub fn new(name: impl Into<String>, graph: MoleculeGraph) -> Self {
        MoleculeType { name: name.into(), graph }
    }

    /// Convenience: a linear chain.
    #[cfg(test)]
    pub fn linear(name: impl Into<String>, components: &[&str]) -> Self {
        MoleculeType { name: name.into(), graph: MoleculeGraph::linear(components) }
    }
}

impl fmt::Display for MoleculeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DEFINE MOLECULE TYPE {} FROM {}", self.name, self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_chain_structure() {
        let g = MoleculeGraph::linear(&["brep", "face", "edge", "point"]);
        assert_eq!(g.component_names(), vec!["brep", "face", "edge", "point"]);
        assert_eq!(g.root.node_count(), 4);
        assert_eq!(g.root.depth(), 4);
        assert!(!g.is_recursive());
        assert_eq!(g.to_string(), "brep-face-edge-point");
    }

    #[test]
    fn branching_structure_table_2_1d() {
        // brep-edge (face, point)
        let g = MoleculeGraph::new(MoleculeNode::with_children(
            "brep",
            vec![MoleculeNode::with_children(
                "edge",
                vec![MoleculeNode::leaf("face"), MoleculeNode::leaf("point")],
            )],
        ));
        assert_eq!(g.root.node_count(), 4);
        assert_eq!(g.root.depth(), 3);
        assert_eq!(g.to_string(), "brep-edge (face, point)");
    }

    #[test]
    fn recursive_piece_list() {
        // DEFINE MOLECULE TYPE piece_list FROM solid.sub - solid (recursive)
        let g = MoleculeGraph::new(MoleculeNode {
            component: "solid".into(),
            via_attr: None,
            children: vec![MoleculeNode::leaf("solid").via("sub").recursive()],
            recursive: false,
        });
        assert!(g.is_recursive());
        let mt = MoleculeType::new("piece_list", g);
        assert!(mt.to_string().contains("RECURSIVE"));
    }

    #[test]
    fn single_component_molecule() {
        let g = MoleculeGraph::linear(&["solid"]);
        assert_eq!(g.root.node_count(), 1);
        assert_eq!(g.to_string(), "solid");
    }
}
