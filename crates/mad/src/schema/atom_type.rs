//! Atom types: "the atom type is put together by the constituent attribute
//! types" (Section 2.2), plus the `KEYS_ARE` constraint of Fig. 2.3.

use super::types::AttrType;
use crate::value::AtomTypeId;
use std::fmt;

/// One declared attribute of an atom type.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    pub name: String,
    pub ty: AttrType,
}

impl Attribute {
    pub fn new(name: impl Into<String>, ty: AttrType) -> Self {
        Attribute { name: name.into(), ty }
    }
}

/// An atom type declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct AtomType {
    /// Assigned by the schema on registration.
    pub id: AtomTypeId,
    pub name: String,
    pub attributes: Vec<Attribute>,
    /// `KEYS_ARE (...)`: attribute names whose values must be unique
    /// across the atom set (each listed name is an independent key, as in
    /// Fig. 2.3's single-attribute keys).
    pub keys: Vec<String>,
}

impl AtomType {
    /// Builds an unregistered atom type (id is set by
    /// [`super::Schema::add_atom_type`]).
    pub fn build(name: impl Into<String>, attributes: Vec<Attribute>, keys: Vec<String>) -> Self {
        AtomType { id: 0, name: name.into(), attributes, keys }
    }

    /// Looks up an attribute by name.
    pub fn attribute(&self, name: &str) -> Option<&Attribute> {
        self.attributes.iter().find(|a| a.name == name)
    }

    /// Positional index of an attribute.
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == name)
    }

    /// Index of the (unique) IDENTIFIER attribute.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    pub fn identifier_index(&self) -> usize {
        self.attributes
            .iter()
            .position(|a| matches!(a.ty, AttrType::Identifier))
            // lint: allow(error-hygiene, registration rejects atom types without an IDENTIFIER attribute)
            .expect("atom types always have an IDENTIFIER (checked on registration)")
    }

    /// Indices of all reference attributes (association endpoints).
    #[cfg(test)]
    pub fn reference_indices(&self) -> Vec<usize> {
        self.attributes
            .iter()
            .enumerate()
            .filter(|(_, a)| a.ty.is_reference())
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether `name` is declared as a key.
    pub fn is_key(&self, name: &str) -> bool {
        self.keys.iter().any(|k| k == name)
    }
}

impl fmt::Display for AtomType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CREATE ATOM_TYPE {}", self.name)?;
        write!(f, "  (")?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ",\n   ")?;
            }
            write!(f, "{} : {}", a.name, a.ty)?;
        }
        write!(f, ")")?;
        if !self.keys.is_empty() {
            write!(f, "\nKEYS_ARE ({})", self.keys.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::types::Cardinality;

    fn solid() -> AtomType {
        AtomType::build(
            "solid",
            vec![
                Attribute::new("solid_id", AttrType::Identifier),
                Attribute::new("solid_no", AttrType::Integer),
                Attribute::new("description", AttrType::CharVar),
                Attribute::new("sub", AttrType::ref_set("solid", "super", Cardinality::any())),
                Attribute::new("super", AttrType::ref_set("solid", "sub", Cardinality::any())),
            ],
            vec!["solid_no".into()],
        )
    }

    #[test]
    fn lookup_by_name_and_index() {
        let t = solid();
        assert_eq!(t.attribute_index("description"), Some(2));
        assert!(t.attribute("nothing").is_none());
        assert_eq!(t.identifier_index(), 0);
        assert_eq!(t.reference_indices(), vec![3, 4]);
        assert!(t.is_key("solid_no"));
        assert!(!t.is_key("description"));
    }

    #[test]
    fn display_resembles_ddl() {
        let text = solid().to_string();
        assert!(text.starts_with("CREATE ATOM_TYPE solid"));
        assert!(text.contains("solid_id : IDENTIFIER"));
        assert!(text.contains("KEYS_ARE (solid_no)"));
        assert!(text.contains("SET_OF (REF_TO (solid.super)) (0,VAR)"));
    }
}
