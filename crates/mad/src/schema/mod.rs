//! Schema objects of the MAD model: attribute types, atom types,
//! associations and molecule types.
//!
//! The schema level holds what the paper's DDL declares (Fig. 2.3):
//! atom types with their attribute types and key constraints, and named
//! molecule types. **Associations** are not separate schema objects —
//! exactly as in the paper they are *pairs of reference attributes* that
//! designate each other as back-references (Fig. 2.2); [`Schema::validate`]
//! checks that every reference attribute has a matching, symmetric
//! counterpart.

mod atom_type;
mod molecule_type;
mod types;

pub use atom_type::{AtomType, Attribute};
pub use molecule_type::{MoleculeGraph, MoleculeNode, MoleculeType};
pub use types::{AttrType, Cardinality, RefTarget};

use crate::value::{AtomTypeId, Value};
use std::collections::HashMap;
use std::fmt;

/// A fully resolved association endpoint: which attribute of which atom
/// type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttrRef {
    pub atom_type: AtomTypeId,
    pub attr: usize,
}

/// One direction of an association: following `from`'s reference attribute
/// leads to atoms of `to.atom_type`, whose attribute `to.attr` holds the
/// back-references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Association {
    pub from: AttrRef,
    pub to: AttrRef,
}

/// Errors raised while building or validating a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    DuplicateAtomType(String),
    DuplicateAttribute { atom_type: String, attr: String },
    UnknownAtomType(String),
    UnknownAttribute { atom_type: String, attr: String },
    /// The type must declare exactly one IDENTIFIER attribute.
    IdentifierCount { atom_type: String, found: usize },
    /// `REF_TO (B.y)` exists in A.x but B.y does not reference A.x back.
    AsymmetricAssociation { from: String, to: String },
    /// A reference attribute targets a non-reference attribute.
    NotAReference { atom_type: String, attr: String },
    KeyAttributeUnknown { atom_type: String, attr: String },
    DuplicateMoleculeType(String),
    UnknownMoleculeComponent { molecule: String, component: String },
    /// The edge between two molecule nodes is ambiguous or missing.
    NoAssociation { from: String, to: String },
    /// A value did not match the declared attribute type.
    TypeMismatch { atom_type: String, attr: String, detail: String },
    /// Cardinality restriction violated, e.g. a SET declared (2,2) holding
    /// three elements.
    CardinalityViolation { atom_type: String, attr: String, len: usize, card: Cardinality },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateAtomType(n) => write!(f, "duplicate atom type '{n}'"),
            SchemaError::DuplicateAttribute { atom_type, attr } => {
                write!(f, "duplicate attribute '{attr}' in atom type '{atom_type}'")
            }
            SchemaError::UnknownAtomType(n) => write!(f, "unknown atom type '{n}'"),
            SchemaError::UnknownAttribute { atom_type, attr } => {
                write!(f, "unknown attribute '{atom_type}.{attr}'")
            }
            SchemaError::IdentifierCount { atom_type, found } => write!(
                f,
                "atom type '{atom_type}' must declare exactly one IDENTIFIER attribute, found {found}"
            ),
            SchemaError::AsymmetricAssociation { from, to } => {
                write!(f, "association {from} -> {to} has no matching back-reference")
            }
            SchemaError::NotAReference { atom_type, attr } => {
                write!(f, "'{atom_type}.{attr}' is referenced as an association endpoint but is not a REFERENCE attribute")
            }
            SchemaError::KeyAttributeUnknown { atom_type, attr } => {
                write!(f, "KEYS_ARE names unknown attribute '{atom_type}.{attr}'")
            }
            SchemaError::DuplicateMoleculeType(n) => write!(f, "duplicate molecule type '{n}'"),
            SchemaError::UnknownMoleculeComponent { molecule, component } => {
                write!(f, "molecule type '{molecule}' uses unknown component '{component}'")
            }
            SchemaError::NoAssociation { from, to } => {
                write!(f, "no association between '{from}' and '{to}'")
            }
            SchemaError::TypeMismatch { atom_type, attr, detail } => {
                write!(f, "type mismatch for '{atom_type}.{attr}': {detail}")
            }
            SchemaError::CardinalityViolation { atom_type, attr, len, card } => write!(
                f,
                "cardinality violation for '{atom_type}.{attr}': {len} elements, declared {card}"
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

/// The MAD schema: atom types, their associations, and named molecule
/// types.
#[derive(Debug, Default, Clone)]
pub struct Schema {
    types: Vec<AtomType>,
    by_name: HashMap<String, AtomTypeId>,
    molecule_types: HashMap<String, MoleculeType>,
}

impl Schema {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an atom type; its id is its position. Reference targets are
    /// *not* checked here (types may be declared in any order) — call
    /// [`Schema::validate`] once all types are in.
    pub fn add_atom_type(&mut self, mut at: AtomType) -> Result<AtomTypeId, SchemaError> {
        if self.by_name.contains_key(&at.name) {
            return Err(SchemaError::DuplicateAtomType(at.name.clone()));
        }
        // exactly one IDENTIFIER
        let id_count = at
            .attributes
            .iter()
            .filter(|a| matches!(a.ty, AttrType::Identifier))
            .count();
        if id_count != 1 {
            return Err(SchemaError::IdentifierCount { atom_type: at.name.clone(), found: id_count });
        }
        // unique attribute names
        for (i, a) in at.attributes.iter().enumerate() {
            if at.attributes[..i].iter().any(|b| b.name == a.name) {
                return Err(SchemaError::DuplicateAttribute {
                    atom_type: at.name.clone(),
                    attr: a.name.clone(),
                });
            }
        }
        // keys must exist
        for k in &at.keys {
            if !at.attributes.iter().any(|a| &a.name == k) {
                return Err(SchemaError::KeyAttributeUnknown {
                    atom_type: at.name.clone(),
                    attr: k.clone(),
                });
            }
        }
        let id = self.types.len() as AtomTypeId;
        at.id = id;
        self.by_name.insert(at.name.clone(), id);
        self.types.push(at);
        Ok(id)
    }

    /// Checks that every reference attribute's target exists and that the
    /// target references back — the symmetry invariant of Fig. 2.2.
    pub fn validate(&self) -> Result<(), SchemaError> {
        for at in &self.types {
            for attr in &at.attributes {
                let Some(target) = attr.ty.ref_target() else { continue };
                let to_type = self
                    .type_by_name(&target.type_name)
                    .ok_or_else(|| SchemaError::UnknownAtomType(target.type_name.clone()))?;
                let to_attr = to_type
                    .attribute(&target.attr_name)
                    .ok_or_else(|| SchemaError::UnknownAttribute {
                        atom_type: target.type_name.clone(),
                        attr: target.attr_name.clone(),
                    })?;
                let Some(back) = to_attr.ty.ref_target() else {
                    return Err(SchemaError::NotAReference {
                        atom_type: target.type_name.clone(),
                        attr: target.attr_name.clone(),
                    });
                };
                if back.type_name != at.name || back.attr_name != attr.name {
                    return Err(SchemaError::AsymmetricAssociation {
                        from: format!("{}.{}", at.name, attr.name),
                        to: format!("{}.{}", target.type_name, target.attr_name),
                    });
                }
            }
        }
        Ok(())
    }

    pub fn atom_type(&self, id: AtomTypeId) -> Option<&AtomType> {
        self.types.get(id as usize)
    }

    pub fn type_by_name(&self, name: &str) -> Option<&AtomType> {
        self.by_name.get(name).map(|&id| &self.types[id as usize])
    }

    pub fn type_id(&self, name: &str) -> Option<AtomTypeId> {
        self.by_name.get(name).copied()
    }

    pub fn atom_types(&self) -> &[AtomType] {
        &self.types
    }

    /// The association leaving `from.attr`, fully resolved, if that
    /// attribute is a reference. Requires a validated schema.
    pub fn association_of(&self, from_type: AtomTypeId, attr: usize) -> Option<Association> {
        let at = self.atom_type(from_type)?;
        let a = at.attributes.get(attr)?;
        let target = a.ty.ref_target()?;
        let to_type = self.type_by_name(&target.type_name)?;
        let to_attr = to_type.attribute_index(&target.attr_name)?;
        Some(Association {
            from: AttrRef { atom_type: from_type, attr },
            to: AttrRef { atom_type: to_type.id, attr: to_attr },
        })
    }

    /// Finds the association connecting two atom types, optionally
    /// disambiguated by the attribute name on the `from` side (the
    /// `solid.sub - solid` notation of Fig. 2.3c).
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    pub fn association_between(
        &self,
        from: AtomTypeId,
        to: AtomTypeId,
        via_attr: Option<&str>,
    ) -> Result<Association, SchemaError> {
        let from_type = self.atom_type(from).ok_or_else(|| {
            SchemaError::UnknownAtomType(format!("#{from}"))
        })?;
        let mut candidates = Vec::new();
        for (i, a) in from_type.attributes.iter().enumerate() {
            if let Some(t) = a.ty.ref_target() {
                if self.type_id(&t.type_name) == Some(to)
                    && via_attr.is_none_or(|v| v == a.name)
                {
                    // lint: allow(error-hygiene, association ids come from the association table iterated here)
                    candidates.push(self.association_of(from, i).expect("validated"));
                }
            }
        }
        match candidates.len() {
            1 => Ok(candidates[0]),
            _ => Err(SchemaError::NoAssociation {
                from: from_type.name.clone(),
                to: self
                    .atom_type(to).map_or_else(|| format!("#{to}"), |t| t.name.clone()),
            }),
        }
    }

    /// Registers a named molecule type (Fig. 2.3c). Structure resolution
    /// against atom types happens in the data system's query validation.
    pub fn define_molecule_type(&mut self, mt: MoleculeType) -> Result<(), SchemaError> {
        if self.molecule_types.contains_key(&mt.name) {
            return Err(SchemaError::DuplicateMoleculeType(mt.name.clone()));
        }
        self.molecule_types.insert(mt.name.clone(), mt);
        Ok(())
    }

    pub fn molecule_type(&self, name: &str) -> Option<&MoleculeType> {
        self.molecule_types.get(name)
    }

    pub fn molecule_types(&self) -> impl Iterator<Item = &MoleculeType> {
        self.molecule_types.values()
    }

    /// Type-checks a full attribute assignment for an atom of `type_id`.
    /// `values` must be positionally aligned with the declared attributes;
    /// `Null` is accepted everywhere except the IDENTIFIER slot.
    pub fn check_atom_values(
        &self,
        type_id: AtomTypeId,
        values: &[Value],
    ) -> Result<(), SchemaError> {
        let at = self
            .atom_type(type_id)
            .ok_or_else(|| SchemaError::UnknownAtomType(format!("#{type_id}")))?;
        if values.len() != at.attributes.len() {
            return Err(SchemaError::TypeMismatch {
                atom_type: at.name.clone(),
                attr: "<arity>".into(),
                detail: format!(
                    "expected {} attribute values, got {}",
                    at.attributes.len(),
                    values.len()
                ),
            });
        }
        for (attr, v) in at.attributes.iter().zip(values) {
            attr.ty.check_value(v).map_err(|detail| SchemaError::TypeMismatch {
                atom_type: at.name.clone(),
                attr: attr.name.clone(),
                detail,
            })?;
            // Max-cardinality is enforced eagerly; min-cardinality is a
            // completeness condition checked by integrity validation
            // (atoms are built up incrementally).
            if let Some((card, len)) = attr.ty.cardinality_of(v) {
                if let Some(max) = card.max {
                    if len > max as usize {
                        return Err(SchemaError::CardinalityViolation {
                            atom_type: at.name.clone(),
                            attr: attr.name.clone(),
                            len,
                            card,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks *min*-cardinalities of one atom's values: the completeness
    /// side of the paper's "refined structural integrity".
    // lint: allow(dead-surface, the MAD minimum-cardinality check; ROADMAP item 3's `verify` will call it)
    pub fn check_min_cardinalities(
        &self,
        type_id: AtomTypeId,
        values: &[Value],
    ) -> Result<(), SchemaError> {
        let at = self
            .atom_type(type_id)
            .ok_or_else(|| SchemaError::UnknownAtomType(format!("#{type_id}")))?;
        for (attr, v) in at.attributes.iter().zip(values) {
            if let Some((card, len)) = attr.ty.cardinality_of(v) {
                if len < card.min as usize {
                    return Err(SchemaError::CardinalityViolation {
                        atom_type: at.name.clone(),
                        attr: attr.name.clone(),
                        len,
                        card,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_type_schema() -> Schema {
        // ATi (1:n) ATj exactly as in Fig. 2.2's declaration example.
        let mut s = Schema::new();
        s.add_atom_type(AtomType::build(
            "ati",
            vec![
                Attribute::new("idi", AttrType::Identifier),
                Attribute::new(
                    "ati_atj",
                    AttrType::ref_set("atj", "atj_ati", Cardinality::var(0)),
                ),
            ],
            vec![],
        ))
        .unwrap();
        s.add_atom_type(AtomType::build(
            "atj",
            vec![
                Attribute::new("idj", AttrType::Identifier),
                Attribute::new("atj_ati", AttrType::reference("ati", "ati_atj")),
            ],
            vec![],
        ))
        .unwrap();
        s
    }

    #[test]
    fn fig2_2_one_to_n_association_validates() {
        let s = two_type_schema();
        s.validate().unwrap();
        let assocs = s
            .atom_types()
            .iter()
            .flat_map(|at| (0..at.attributes.len()).filter_map(|i| s.association_of(at.id, i)))
            .count();
        assert_eq!(assocs, 2, "both directions listed");
        let a = s.association_between(0, 1, None).unwrap();
        assert_eq!(a.to.atom_type, 1);
    }

    #[test]
    fn asymmetric_association_rejected() {
        let mut s = Schema::new();
        s.add_atom_type(AtomType::build(
            "a",
            vec![
                Attribute::new("id", AttrType::Identifier),
                Attribute::new("b_ref", AttrType::reference("b", "a_ref")),
            ],
            vec![],
        ))
        .unwrap();
        // b.a_ref points at the WRONG attribute of a.
        s.add_atom_type(AtomType::build(
            "b",
            vec![
                Attribute::new("id", AttrType::Identifier),
                Attribute::new("a_ref", AttrType::reference("a", "id")),
            ],
            vec![],
        ))
        .unwrap();
        assert!(matches!(
            s.validate(),
            Err(SchemaError::NotAReference { .. }) | Err(SchemaError::AsymmetricAssociation { .. })
        ));
    }

    #[test]
    fn missing_identifier_rejected() {
        let mut s = Schema::new();
        let err = s
            .add_atom_type(AtomType::build(
                "x",
                vec![Attribute::new("n", AttrType::Integer)],
                vec![],
            ))
            .unwrap_err();
        assert!(matches!(err, SchemaError::IdentifierCount { found: 0, .. }));
    }

    #[test]
    fn duplicate_type_and_attribute_rejected() {
        let mut s = two_type_schema();
        let err = s
            .add_atom_type(AtomType::build(
                "ati",
                vec![Attribute::new("id", AttrType::Identifier)],
                vec![],
            ))
            .unwrap_err();
        assert!(matches!(err, SchemaError::DuplicateAtomType(_)));
        let err = s
            .add_atom_type(AtomType::build(
                "dup",
                vec![
                    Attribute::new("id", AttrType::Identifier),
                    Attribute::new("x", AttrType::Integer),
                    Attribute::new("x", AttrType::Real),
                ],
                vec![],
            ))
            .unwrap_err();
        assert!(matches!(err, SchemaError::DuplicateAttribute { .. }));
    }

    #[test]
    fn unknown_key_attribute_rejected() {
        let mut s = Schema::new();
        let err = s
            .add_atom_type(AtomType::build(
                "x",
                vec![Attribute::new("id", AttrType::Identifier)],
                vec!["nope".into()],
            ))
            .unwrap_err();
        assert!(matches!(err, SchemaError::KeyAttributeUnknown { .. }));
    }

    #[test]
    fn value_checking() {
        let s = two_type_schema();
        use crate::value::AtomId;
        // Correct values.
        s.check_atom_values(
            0,
            &[Value::Id(AtomId::new(0, 1)), Value::ref_set(vec![AtomId::new(1, 1)])],
        )
        .unwrap();
        // Wrong arity.
        assert!(s.check_atom_values(0, &[Value::Null]).is_err());
        // Wrong kind: integer where a ref set is declared.
        assert!(s
            .check_atom_values(0, &[Value::Id(AtomId::new(0, 1)), Value::Int(3)])
            .is_err());
    }

    #[test]
    fn cardinality_enforced() {
        let mut s = Schema::new();
        s.add_atom_type(AtomType::build(
            "edge",
            vec![
                Attribute::new("id", AttrType::Identifier),
                Attribute::new(
                    "boundary",
                    AttrType::ref_set("point", "line", Cardinality::exact(2)),
                ),
            ],
            vec![],
        ))
        .unwrap();
        s.add_atom_type(AtomType::build(
            "point",
            vec![
                Attribute::new("id", AttrType::Identifier),
                Attribute::new("line", AttrType::ref_set("edge", "boundary", Cardinality::var(1))),
            ],
            vec![],
        ))
        .unwrap();
        use crate::value::AtomId;
        let three = Value::ref_set(vec![AtomId::new(1, 1), AtomId::new(1, 2), AtomId::new(1, 3)]);
        let err = s
            .check_atom_values(0, &[Value::Id(AtomId::new(0, 1)), three])
            .unwrap_err();
        assert!(matches!(err, SchemaError::CardinalityViolation { len: 3, .. }));
        // Min-cardinality: one boundary point is incomplete for an edge.
        let one = Value::ref_set(vec![AtomId::new(1, 1)]);
        s.check_atom_values(0, &[Value::Id(AtomId::new(0, 1)), one.clone()]).unwrap();
        assert!(s
            .check_min_cardinalities(0, &[Value::Id(AtomId::new(0, 1)), one])
            .is_err());
    }

    #[test]
    fn molecule_type_registry() {
        let mut s = two_type_schema();
        let mt = MoleculeType::linear("pair", &["ati", "atj"]);
        s.define_molecule_type(mt.clone()).unwrap();
        assert!(s.molecule_type("pair").is_some());
        assert!(matches!(
            s.define_molecule_type(mt),
            Err(SchemaError::DuplicateMoleculeType(_))
        ));
    }
}
