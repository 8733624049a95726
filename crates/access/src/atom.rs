//! Atoms as handled at the access-system interface.
//!
//! An atom is "composed of attributes of various types, has an identifier,
//! and belongs to its corresponding atom type" (Section 2.2). At this
//! layer an atom is its logical address plus a positionally aligned vector
//! of attribute values; `Null` marks attributes that were not assigned or
//! not selected (projection, Section 3.2).
//!
//! An atom read from a record is its id plus its record image: the
//! access system hands records up as "byte strings of variable length"
//! (Section 3.2), and [`Values`] keeps that byte string, checked on the
//! read, until a value is first looked at. Only then is the image
//! decoded, once. Molecule assembly follows references through
//! [`Atom::ref_ids`], which reads them from the bytes, so an atom nobody
//! looks into is never decoded; a projection decodes only the attributes
//! it keeps; and an unchanged atom is written back by copying its image.

use prima_mad::codec::{self, CodecError, RefIds};
use prima_storage::bytes::le_u64;
use prima_mad::value::{AtomId, Value};
use std::borrow::Cow;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

use crate::error::{AccessError, AccessResult};

/// An atom: logical address + attribute values (aligned with the atom
/// type's declared attributes).
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    pub id: AtomId,
    pub values: Values,
}

/// An atom's attribute values: a record image decoded on first read, or
/// a vector of values built in memory. It derefs to `[Value]`; a mutable
/// borrow decodes the image and drops it, so the vector is the atom's
/// only form from then on.
pub struct Values {
    /// The value-vector image this atom was read from; it passed
    /// [`codec::check_values`], so it decodes.
    image: Option<Box<[u8]>>,
    /// The decoded values: set on first read of an image, or from the
    /// start for values built in memory.
    decoded: OnceLock<Vec<Value>>,
}

impl Values {
    /// Values read from a record: `image` is checked now and decoded on
    /// first read.
    fn from_image(image: &[u8]) -> Result<Values, CodecError> {
        codec::check_values(image)?;
        Ok(Values { image: Some(image.into()), decoded: OnceLock::new() })
    }

    /// The values as a vector, decoding the image if it was not read.
    pub fn into_vec(self) -> Vec<Value> {
        match (self.decoded.into_inner(), self.image) {
            (Some(values), _) => values,
            (None, image) => decode_checked(image.as_deref(), |_| true),
        }
    }

    fn decoded(&self) -> &Vec<Value> {
        self.decoded.get_or_init(|| decode_checked(self.image.as_deref(), |_| true))
    }
}

/// Decodes a checked image (`None`: no image, no values), `Null` in the
/// positions `keep` rejects.
fn decode_checked(image: Option<&[u8]>, keep: impl FnMut(usize) -> bool) -> Vec<Value> {
    image.map_or_else(Vec::new, |image| checked(codec::decode_values_where(image, keep)))
}

/// The outcome of reading an image that passed [`codec::check_values`]:
/// the check accepts exactly what the decoder reads, so it is a value.
#[allow(clippy::expect_used)]
fn checked<T>(read: Result<T, CodecError>) -> T {
    // lint: allow(error-hygiene, images pass codec::check_values when read, and the check accepts exactly what the decoder and the ref walk read)
    read.expect("checked record image")
}

impl From<Vec<Value>> for Values {
    fn from(values: Vec<Value>) -> Values {
        Values { image: None, decoded: OnceLock::from(values) }
    }
}

impl Deref for Values {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        self.decoded()
    }
}

impl DerefMut for Values {
    fn deref_mut(&mut self) -> &mut [Value] {
        if self.image.is_some() {
            *self = Values::from(std::mem::take(self).into_vec());
        }
        self.decoded.get_mut().map_or(&mut [], Vec::as_mut_slice)
    }
}

impl IntoIterator for Values {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Values {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Default for Values {
    fn default() -> Values {
        Values::from(Vec::new())
    }
}

/// A clone copies the image when there is one (it decodes again on
/// first read), the values otherwise.
impl Clone for Values {
    fn clone(&self) -> Values {
        match &self.image {
            Some(image) => Values { image: Some(image.clone()), decoded: OnceLock::new() },
            None => Values::from(self.decoded().clone()),
        }
    }
}

/// Equality of the decoded values (so `Real(NaN)` is unequal to itself
/// whatever the form).
impl PartialEq for Values {
    fn eq(&self, other: &Values) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Values {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Atom {
    /// Bytes of a physical record before its value vector: the atom id.
    pub(crate) const HEADER_LEN: usize = 10;

    pub fn new(id: AtomId, values: Vec<Value>) -> Self {
        Atom { id, values: values.into() }
    }

    /// Value of attribute `idx`.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Value of attribute `idx`, decoded alone from the record image when
    /// the atom has not been decoded.
    pub(crate) fn value(&self, idx: usize) -> Option<Cow<'_, Value>> {
        match (self.values.decoded.get(), &self.values.image) {
            (None, Some(image)) => checked(codec::decode_value_at(image, idx)).map(Cow::Owned),
            _ => self.values.get(idx).map(Cow::Borrowed),
        }
    }

    /// The ids attribute `attr` references ([`Value::ref_ids`]), read
    /// from the record image when the atom has not been decoded.
    pub fn ref_ids(&self, attr: usize) -> AtomRefs<'_> {
        match (self.values.decoded.get(), &self.values.image) {
            (None, Some(image)) => AtomRefs::Image(checked(codec::ref_ids(image, attr))),
            (decoded, _) => AtomRefs::Decoded(
                decoded.and_then(|v| v.get(attr)).map_or(&[][..], Value::ref_ids).iter(),
            ),
        }
    }

    /// Encodes into a physical-record image: the atom id followed by the
    /// value vector (the id is stored so redundant copies are
    /// self-identifying). An atom read from a record and not changed
    /// since is copied from its image.
    pub fn encode(&self) -> Vec<u8> {
        let image = self.values.image.as_deref();
        let len = image.map_or_else(|| 16 * self.values.len(), <[u8]>::len);
        let mut out = Vec::with_capacity(Self::HEADER_LEN + len);
        out.extend_from_slice(&self.id.atom_type.to_le_bytes());
        out.extend_from_slice(&self.id.seq.to_le_bytes());
        match image {
            Some(image) => out.extend_from_slice(image),
            None => codec::encode_values_into(&self.values, &mut out),
        }
        out
    }

    /// Decodes a physical-record image: the id, and the value vector
    /// checked (a damaged record is an error here, not at a later read)
    /// but not yet decoded.
    pub fn decode(buf: &[u8]) -> AccessResult<Atom> {
        if buf.len() < Self::HEADER_LEN {
            return Err(AccessError::Codec(CodecError::Truncated));
        }
        let atom_type = u16::from_le_bytes([buf[0], buf[1]]);
        let seq = le_u64(&buf[2..Self::HEADER_LEN]);
        let values = Values::from_image(&buf[Self::HEADER_LEN..])?;
        Ok(Atom { id: AtomId::new(atom_type, seq), values })
    }

    /// Projects onto the given attribute indices: unselected attributes
    /// become `Null`, preserving positional alignment ("it is allowed …
    /// to select attributes when reading an atom", Section 3.2). Only the
    /// selected attributes are decoded or cloned.
    pub fn project(&self, attrs: &[usize]) -> Atom {
        let values = match (self.values.decoded.get(), &self.values.image) {
            (None, Some(image)) => decode_checked(Some(image), |i| attrs.contains(&i)),
            _ => {
                let all = self.values.decoded();
                let mut values = vec![Value::Null; all.len()];
                for &i in attrs {
                    if let Some(v) = all.get(i) {
                        values[i] = v.clone();
                    }
                }
                values
            }
        };
        Atom::new(self.id, values)
    }
}

/// The ids one reference attribute of an atom holds ([`Atom::ref_ids`]).
#[derive(Clone)]
pub enum AtomRefs<'a> {
    Decoded(std::slice::Iter<'a, AtomId>),
    Image(RefIds<'a>),
}

impl Iterator for AtomRefs<'_> {
    type Item = AtomId;

    fn next(&mut self) -> Option<AtomId> {
        match self {
            AtomRefs::Decoded(ids) => ids.next().copied(),
            AtomRefs::Image(ids) => ids.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            AtomRefs::Decoded(ids) => ids.size_hint(),
            AtomRefs::Image(ids) => ids.size_hint(),
        }
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
        for a in [a.clone(), Atom::decode(&a.encode()).unwrap()] {
            let p = a.project(&[0, 2]);
            assert_eq!(p.values[0], Value::Id(AtomId::new(0, 1)));
            assert_eq!(p.values[1], Value::Null);
            assert_eq!(p.values[2], Value::Str("x".into()));
            assert_eq!(p.id, a.id);
        }
    }

    /// An atom read from a record reads like the atom it was written
    /// from, whether a value was read yet or not: values, one value at a
    /// time, references, projections, clones and its encoding; a write
    /// through it drops the image, so the encoding follows the write.
    #[test]
    fn lazy_atoms_read_like_eager_ones() {
        let (a, b) = (AtomId::new(3, 18), AtomId::new(4, 2));
        let eager = Atom::new(
            AtomId::new(3, 17),
            vec![
                Value::Id(AtomId::new(3, 17)),
                Value::Str("cube".into()),
                Value::ref_set(vec![a, b]),
                Value::Ref(Some(b)),
                Value::Ref(None),
                Value::Record(vec![("x".into(), Value::Real(1.5))]),
                Value::Null,
            ],
        );
        let record = eager.encode();
        for touched in [false, true] {
            let lazy = Atom::decode(&record).unwrap();
            if touched {
                assert_eq!(lazy.get(1), eager.get(1));
            }
            for attr in 0..=eager.values.len() {
                let want = eager.get(attr).map_or(&[][..], Value::ref_ids);
                assert_eq!(lazy.ref_ids(attr).collect::<Vec<_>>(), want, "attr {attr}");
                assert_eq!(lazy.value(attr).as_deref(), eager.get(attr), "attr {attr}");
            }
            for keep in [&[][..], &[0, 2], &[1, 5, 9]] {
                assert_eq!(lazy.project(keep), eager.project(keep), "{keep:?}");
            }
            assert_eq!(lazy.clone(), eager);
            assert_eq!(lazy.encode(), record);
            // None of that decoded the atom itself.
            assert_eq!(lazy.values.decoded.get().is_some(), touched);
            assert_eq!(lazy.clone().values.into_vec(), eager.values.to_vec());
            let mut written = lazy;
            written.values[1] = Value::Str("sphere".into());
            let mut want = eager.values.to_vec();
            want[1] = Value::Str("sphere".into());
            assert_eq!(written.encode(), Atom::new(eager.id, want).encode());
        }
    }

    /// A stored record with a bad tag or invalid UTF-8 fails the read,
    /// direct or batched, with `Codec`: never an atom whose values fail
    /// to decode later.
    #[test]
    fn damaged_records_fail_the_read() {
        use crate::access_system::AccessSystem;
        use prima_mad::schema::{AtomType, AttrType, Attribute, Schema};
        use prima_storage::StorageSystem;
        use std::sync::Arc;

        let mut schema = Schema::new();
        let attrs = vec![
            Attribute::new("id", AttrType::Identifier),
            Attribute::new("name", AttrType::CharVar),
        ];
        schema.add_atom_type(AtomType::build("item", attrs, vec![])).unwrap();
        let sys = AccessSystem::new(Arc::new(StorageSystem::in_memory(1 << 20)), schema).unwrap();
        let ids: Vec<AtomId> = (0..3)
            .map(|i| sys.insert_atom(0, vec![Value::Null, Value::Str(format!("i{i}"))], None))
            .collect::<AccessResult<_>>()
            .unwrap();
        let file = sys.base_file(0).unwrap();
        let ptr = sys.addresses.primary(ids[1]).unwrap();
        let good = file.read(ptr).unwrap();
        // The record ends in the name's text; its first value's tag
        // follows the header and the value count.
        let damage = [
            (good.len() - 1, 0xff, CodecError::BadUtf8),
            (Atom::HEADER_LEN + 4, 200, CodecError::BadTag(200, 4)),
        ];
        for (at, byte, want) in damage {
            let mut bad = good.clone();
            bad[at] = byte;
            assert_eq!(file.update(ptr, &bad).unwrap(), ptr, "rewritten in place");
            let is_want = |r: AccessResult<_>| matches!(r, Err(AccessError::Codec(e)) if e == want);
            assert!(is_want(sys.read_atom(ids[1], None).map(drop)), "{want:?}");
            assert!(is_want(sys.read_atom(ids[1], Some(&[0])).map(drop)), "{want:?}");
            let mut out = Vec::new();
            assert!(is_want(sys.read_atoms_batch_into(&ids, None, &mut out)), "{want:?}");
        }
        file.update(ptr, &good).unwrap();
        assert_eq!(sys.read_atom(ids[1], None).unwrap().values[1], Value::Str("i1".into()));
    }
}
