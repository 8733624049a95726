//! Atoms as handled at the access-system interface.
//!
//! An atom is "composed of attributes of various types, has an identifier,
//! and belongs to its corresponding atom type" (Section 2.2). At this
//! layer an atom is its logical address plus a positionally aligned vector
//! of attribute values; `Null` marks attributes that were not assigned or
//! not selected (projection, Section 3.2).

use prima_mad::codec;
use prima_storage::bytes::le_u64;
use prima_mad::value::{AtomId, Value};

use crate::error::{AccessError, AccessResult};

/// An atom: logical address + attribute values (aligned with the atom
/// type's declared attributes).
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    pub id: AtomId,
    pub values: Vec<Value>,
}

impl Atom {
    /// Bytes of a physical record before its value vector: the atom id.
    pub(crate) const HEADER_LEN: usize = 10;

    pub fn new(id: AtomId, values: Vec<Value>) -> Self {
        Atom { id, values }
    }

    /// Value of attribute `idx`.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Encodes into a physical-record image: the atom id followed by the
    /// value vector (the id is stored so redundant copies are
    /// self-identifying).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 16 * self.values.len());
        out.extend_from_slice(&self.id.atom_type.to_le_bytes());
        out.extend_from_slice(&self.id.seq.to_le_bytes());
        codec::encode_values_into(&self.values, &mut out);
        out
    }

    /// Decodes a physical-record image.
    pub fn decode(buf: &[u8]) -> AccessResult<Atom> {
        if buf.len() < Self::HEADER_LEN {
            return Err(AccessError::Codec(prima_mad::codec::CodecError::Truncated));
        }
        let atom_type = u16::from_le_bytes([buf[0], buf[1]]);
        let seq = le_u64(&buf[2..Self::HEADER_LEN]);
        let values = codec::decode_values(&buf[Self::HEADER_LEN..])?;
        Ok(Atom { id: AtomId::new(atom_type, seq), values })
    }

    /// Projects onto the given attribute indices: unselected attributes
    /// become `Null`, preserving positional alignment ("it is allowed …
    /// to select attributes when reading an atom", Section 3.2).
    pub fn project(&self, attrs: &[usize]) -> Atom {
        let mut values = vec![Value::Null; self.values.len()];
        for &i in attrs {
            if let Some(v) = self.values.get(i) {
                values[i] = v.clone();
            }
        }
        Atom { id: self.id, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let a = Atom::new(
            AtomId::new(3, 17),
            vec![
                Value::Id(AtomId::new(3, 17)),
                Value::Int(4711),
                Value::Str("cube".into()),
                Value::ref_set(vec![AtomId::new(3, 18)]),
            ],
        );
        let buf = a.encode();
        assert_eq!(Atom::decode(&buf).unwrap(), a);
    }

    #[test]
    fn truncated_image_rejected() {
        assert!(Atom::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn projection_nulls_unselected() {
        let a = Atom::new(
            AtomId::new(0, 1),
            vec![Value::Id(AtomId::new(0, 1)), Value::Int(1), Value::Str("x".into())],
        );
        let p = a.project(&[0, 2]);
        assert_eq!(p.values[0], Value::Id(AtomId::new(0, 1)));
        assert_eq!(p.values[1], Value::Null);
        assert_eq!(p.values[2], Value::Str("x".into()));
        assert_eq!(p.id, a.id);
    }
}
