//! Error type of the access system.

use prima_mad::codec::CodecError;
use prima_mad::value::AtomId;
use prima_mad::SchemaError;
use prima_storage::StorageError;
use std::fmt;

pub type AccessResult<T> = Result<T, AccessError>;

/// Errors raised at the atom-oriented interface.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessError {
    /// Propagated storage-system failure.
    Storage(StorageError),
    /// Schema/type violation.
    Schema(SchemaError),
    /// A physical record could not be decoded.
    Codec(CodecError),
    /// The atom id is not (or no longer) allocated.
    NoSuchAtom(AtomId),
    /// Restore attempted for an atom id that is still live.
    AtomAlreadyExists(AtomId),
    /// The atom type id is unknown to this access system.
    NoSuchAtomType(u16),
    /// A `KEYS_ARE` uniqueness constraint would be violated.
    DuplicateKey { atom_type: String, attr: String, value: String },
    /// A referenced atom does not exist (dangling reference on insert or
    /// modify).
    DanglingReference { from: AtomId, to: AtomId },
    /// The reference targets an atom of the wrong type for the
    /// association.
    ReferenceTypeMismatch { attr: String, expected: u16, got: AtomId },
    /// A record exceeds the maximum single-page payload; only atom
    /// clusters (page sequences) may exceed it.
    RecordTooLarge { len: usize, max: usize },
    /// A named tuning structure does not exist.
    NoSuchStructure(String),
    /// A tuning structure with this name already exists.
    DuplicateStructure(String),
    /// Structure exists but does not fit the operation (e.g. sort scan on
    /// an access path over different attributes).
    StructureMismatch { name: String, detail: String },
    /// Attribute index out of range for the atom type.
    BadAttribute { atom_type: u16, attr: usize },
    /// Attempt to modify the IDENTIFIER attribute (Section 3.2 forbids
    /// it: "excluding the logical address").
    IdentifierImmutable(AtomId),
    /// The characteristic atom type of a cluster operation is wrong.
    NotACharacteristicAtom(AtomId),
    /// Restart recovery found persistent state inconsistent with the
    /// checkpoint snapshot (e.g. schema/segment count drift).
    RecoveryMismatch(String),
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::Storage(e) => write!(f, "storage: {e}"),
            AccessError::Schema(e) => write!(f, "schema: {e}"),
            AccessError::Codec(e) => write!(f, "codec: {e}"),
            AccessError::NoSuchAtom(id) => write!(f, "no such atom {id}"),
            AccessError::AtomAlreadyExists(id) => write!(f, "atom {id} already exists"),
            AccessError::NoSuchAtomType(t) => write!(f, "no such atom type #{t}"),
            AccessError::DuplicateKey { atom_type, attr, value } => {
                write!(f, "duplicate key {atom_type}.{attr} = {value}")
            }
            AccessError::DanglingReference { from, to } => {
                write!(f, "dangling reference from {from} to {to}")
            }
            AccessError::ReferenceTypeMismatch { attr, expected, got } => {
                write!(f, "reference in '{attr}' must target type #{expected}, got {got}")
            }
            AccessError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds max {max}")
            }
            AccessError::NoSuchStructure(n) => write!(f, "no such tuning structure '{n}'"),
            AccessError::DuplicateStructure(n) => {
                write!(f, "tuning structure '{n}' already exists")
            }
            AccessError::StructureMismatch { name, detail } => {
                write!(f, "structure '{name}' unusable: {detail}")
            }
            AccessError::BadAttribute { atom_type, attr } => {
                write!(f, "attribute index {attr} out of range for type #{atom_type}")
            }
            AccessError::IdentifierImmutable(id) => {
                write!(f, "the IDENTIFIER of {id} cannot be modified")
            }
            AccessError::NotACharacteristicAtom(id) => {
                write!(f, "{id} is not a characteristic atom of a cluster type")
            }
            AccessError::RecoveryMismatch(detail) => {
                write!(f, "restart recovery mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for AccessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AccessError::Storage(e) => Some(e),
            AccessError::Schema(e) => Some(e),
            AccessError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for AccessError {
    fn from(e: StorageError) -> Self {
        AccessError::Storage(e)
    }
}

impl From<SchemaError> for AccessError {
    fn from(e: SchemaError) -> Self {
        AccessError::Schema(e)
    }
}

impl From<CodecError> for AccessError {
    fn from(e: CodecError) -> Self {
        AccessError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: AccessError = StorageError::UnknownSegment(3).into();
        assert!(e.to_string().contains("storage"));
        let e = AccessError::NoSuchAtom(AtomId::new(2, 9));
        assert_eq!(e.to_string(), "no such atom @2:9");
        let e = AccessError::DuplicateKey {
            atom_type: "solid".into(),
            attr: "solid_no".into(),
            value: "4711".into(),
        };
        assert!(e.to_string().contains("solid_no"));
    }
}
