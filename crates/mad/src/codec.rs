//! Value encoding: the on-record byte format and order-preserving keys.
//!
//! Two encodings live here:
//!
//! * [`encode_value`]/[`decode_value`] — a self-describing tagged format
//!   used for physical records (atoms, partitions, cluster members). The
//!   access system treats physical records as "byte strings of variable
//!   length" (Section 3.2); this codec is how atoms become such strings.
//!   The format is also read without decoding it:
//!   - [`check_values`] is the *checking walk*: it steps over a whole
//!     record image, allocating nothing, and fails exactly where a full
//!     decode fails, with the same error. An atom read from a
//!     record is checked once and decoded only when a value is read, so
//!     damage is an error at the read, never at a later value access.
//!   - [`ref_ids`] is the *ref walk*: it steps over the values before a
//!     reference attribute and yields that attribute's ids from the
//!     bytes. Molecule assembly follows references this way.
//!   - [`decode_values_where`] decodes only the values a projection
//!     keeps, [`decode_value_at`] only the one a search argument reads;
//!     [`skip_value`] steps over one value without building it.
//!   - [`splice_backref`] edits one reference value of a record image in
//!     place of a decode, change and encode: back-reference maintenance
//!     adds or removes one id in the partner's bytes.
//!
//!   Every length read from a record is checked against the bytes left,
//!   so a corrupt image is an error, never an allocation of what its
//!   bytes claim.
//! * [`encode_key`] — a *memcomparable* encoding: byte-wise lexicographic
//!   comparison of encoded keys equals [`Value::total_cmp`] on the values.
//!   B*-tree access paths and sort orders store these.

use crate::value::{AtomId, Value};

/// Errors when decoding a physical record back into values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended in the middle of a value.
    Truncated,
    /// Unknown tag byte at the given offset.
    BadTag(u8, usize),
    /// String payload was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record truncated"),
            CodecError::BadTag(t, off) => write!(f, "unknown value tag {t} at offset {off}"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string value"),
        }
    }
}

impl std::error::Error for CodecError {}

mod tag {
    pub const NULL: u8 = 0;
    pub const ID: u8 = 1;
    pub const INT: u8 = 2;
    pub const REAL: u8 = 3;
    pub const BOOL_FALSE: u8 = 4;
    pub const BOOL_TRUE: u8 = 5;
    pub const STR: u8 = 6;
    pub const REF_NONE: u8 = 7;
    pub const REF_SOME: u8 = 8;
    pub const REF_SET: u8 = 9;
    pub const RECORD: u8 = 10;
    pub const ARRAY: u8 = 11;
    pub const SET: u8 = 12;
    pub const LIST: u8 = 13;
}

/// Appends the tagged encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(tag::NULL),
        Value::Id(id) => {
            out.push(tag::ID);
            put_atom_id(id, out);
        }
        Value::Int(i) => {
            out.push(tag::INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Real(r) => {
            out.push(tag::REAL);
            out.extend_from_slice(&r.to_le_bytes());
        }
        Value::Bool(false) => out.push(tag::BOOL_FALSE),
        Value::Bool(true) => out.push(tag::BOOL_TRUE),
        Value::Str(s) => {
            out.push(tag::STR);
            put_len(s.len(), out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Ref(None) => out.push(tag::REF_NONE),
        Value::Ref(Some(id)) => {
            out.push(tag::REF_SOME);
            put_atom_id(id, out);
        }
        Value::RefSet(ids) => {
            out.push(tag::REF_SET);
            put_len(ids.len(), out);
            for id in ids {
                put_atom_id(id, out);
            }
        }
        Value::Record(fields) => {
            out.push(tag::RECORD);
            put_len(fields.len(), out);
            for (name, val) in fields {
                put_len(name.len(), out);
                out.extend_from_slice(name.as_bytes());
                encode_value(val, out);
            }
        }
        Value::Array(vs) | Value::Set(vs) | Value::List(vs) => {
            out.push(match v {
                Value::Array(_) => tag::ARRAY,
                Value::Set(_) => tag::SET,
                _ => tag::LIST,
            });
            put_len(vs.len(), out);
            for x in vs {
                encode_value(x, out);
            }
        }
    }
}

/// Appends the record image of a slice of values (an atom's attribute
/// vector) to `out`: the value count, then each value.
pub fn encode_values_into(vs: &[Value], out: &mut Vec<u8>) {
    put_len(vs.len(), out);
    for v in vs {
        encode_value(v, out);
    }
}

/// Decodes one value from `buf` at `*pos`, advancing `*pos`.
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value, CodecError> {
    let t = *buf.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    Ok(match t {
        tag::NULL => Value::Null,
        tag::ID => Value::Id(get_atom_id(buf, pos)?),
        tag::INT => Value::Int(i64::from_le_bytes(take::<8>(buf, pos)?)),
        tag::REAL => Value::Real(f64::from_le_bytes(take::<8>(buf, pos)?)),
        tag::BOOL_FALSE => Value::Bool(false),
        tag::BOOL_TRUE => Value::Bool(true),
        tag::STR => {
            let n = get_len(buf, pos)?;
            let bytes = take_slice(buf, pos, n)?;
            Value::Str(String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)?)
        }
        tag::REF_NONE => Value::Ref(None),
        tag::REF_SOME => Value::Ref(Some(get_atom_id(buf, pos)?)),
        tag::REF_SET => {
            let n = get_len(buf, pos)?;
            let mut ids = Vec::with_capacity(n.min(left(buf, *pos) / ID_LEN));
            for _ in 0..n {
                ids.push(get_atom_id(buf, pos)?);
            }
            Value::RefSet(ids)
        }
        tag::RECORD => {
            let n = get_len(buf, pos)?;
            let mut fields = Vec::with_capacity(n.min(left(buf, *pos)));
            for _ in 0..n {
                let ln = get_len(buf, pos)?;
                let name = String::from_utf8(take_slice(buf, pos, ln)?.to_vec())
                    .map_err(|_| CodecError::BadUtf8)?;
                let val = decode_value(buf, pos)?;
                fields.push((name, val));
            }
            Value::Record(fields)
        }
        tag::ARRAY | tag::SET | tag::LIST => {
            let n = get_len(buf, pos)?;
            let mut vs = Vec::with_capacity(n.min(left(buf, *pos)));
            for _ in 0..n {
                vs.push(decode_value(buf, pos)?);
            }
            match t {
                tag::ARRAY => Value::Array(vs),
                tag::SET => Value::Set(vs),
                _ => Value::List(vs),
            }
        }
        other => return Err(CodecError::BadTag(other, *pos - 1)),
    })
}

/// Advances `*pos` past one encoded value without building it: exactly
/// the bytes [`decode_value`] would consume. Text is not checked for
/// UTF-8 (see [`check_values`]).
pub fn skip_value(buf: &[u8], pos: &mut usize) -> Result<(), CodecError> {
    walk_value(buf, pos, false)
}

/// Checks a record image without building it: `Ok` exactly when a full
/// decode ([`decode_values_where`] keeping every value) succeeds, and
/// otherwise the error that decode returns. Allocates nothing.
pub fn check_values(buf: &[u8]) -> Result<(), CodecError> {
    let mut pos = 0;
    for _ in 0..get_len(buf, &mut pos)? {
        walk_value(buf, &mut pos, true)?;
    }
    Ok(())
}

/// Steps over one value the way [`decode_value`] reads it, failing where
/// it fails; text is checked for UTF-8 only when `utf8` is set.
fn walk_value(buf: &[u8], pos: &mut usize, utf8: bool) -> Result<(), CodecError> {
    let text = |buf: &[u8], pos: &mut usize| {
        let n = get_len(buf, pos)?;
        let bytes = take_slice(buf, pos, n)?;
        if utf8 && std::str::from_utf8(bytes).is_err() {
            return Err(CodecError::BadUtf8);
        }
        Ok(())
    };
    let t = *buf.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    match t {
        tag::NULL | tag::BOOL_FALSE | tag::BOOL_TRUE | tag::REF_NONE => Ok(()),
        tag::ID | tag::REF_SOME => advance(buf, pos, ID_LEN),
        tag::INT | tag::REAL => advance(buf, pos, 8),
        tag::STR => text(buf, pos),
        tag::REF_SET => {
            let n = get_len(buf, pos)?;
            advance(buf, pos, n.checked_mul(ID_LEN).ok_or(CodecError::Truncated)?)
        }
        tag::RECORD => {
            for _ in 0..get_len(buf, pos)? {
                text(buf, pos)?;
                walk_value(buf, pos, utf8)?;
            }
            Ok(())
        }
        tag::ARRAY | tag::SET | tag::LIST => {
            for _ in 0..get_len(buf, pos)? {
                walk_value(buf, pos, utf8)?;
            }
            Ok(())
        }
        other => Err(CodecError::BadTag(other, *pos - 1)),
    }
}

/// Decodes a record image produced by [`encode_values_into`], building
/// only the values whose position `keep` accepts; the others decode as
/// `Null` (their bytes are stepped over, unbuilt).
pub fn decode_values_where(
    buf: &[u8],
    mut keep: impl FnMut(usize) -> bool,
) -> Result<Vec<Value>, CodecError> {
    let mut pos = 0;
    let n = get_len(buf, &mut pos)?;
    let mut out = Vec::with_capacity(n.min(left(buf, pos)));
    for i in 0..n {
        out.push(if keep(i) {
            decode_value(buf, &mut pos)?
        } else {
            walk_value(buf, &mut pos, true)?;
            Value::Null
        });
    }
    Ok(out)
}

/// Decodes value `attr` of a record image alone, stepping over the
/// values before it unbuilt; `None` if the image has no value `attr`.
pub fn decode_value_at(buf: &[u8], attr: usize) -> Result<Option<Value>, CodecError> {
    let Some(mut pos) = seek(buf, 0, attr)? else { return Ok(None) };
    decode_value(buf, &mut pos).map(Some)
}

/// The ids value `attr` of a record image references: the ids
/// [`Value::ref_ids`] gives for the decoded value, read from the bytes.
/// Values before `attr` are stepped over, unbuilt; a value that is not a
/// reference, or an `attr` out of range, references nothing.
pub fn ref_ids(buf: &[u8], attr: usize) -> Result<RefIds<'_>, CodecError> {
    let Some(mut pos) = seek(buf, 0, attr)? else { return Ok(RefIds::default()) };
    let (n, mut at) = match *buf.get(pos).ok_or(CodecError::Truncated)? {
        tag::REF_SOME => (1, pos + 1),
        tag::REF_SET => {
            pos += 1;
            let n = get_len(buf, &mut pos)?;
            (n, pos)
        }
        _ => (0, pos),
    };
    let len = n.checked_mul(ID_LEN).ok_or(CodecError::Truncated)?;
    let (ids, _) = take_slice(buf, &mut at, len)?.as_chunks::<ID_LEN>();
    Ok(RefIds(ids.iter()))
}

/// The ids of one reference value, decoded from its bytes one at a time
/// ([`ref_ids`]).
#[derive(Clone, Default)]
pub struct RefIds<'a>(std::slice::Iter<'a, [u8; ID_LEN]>);

impl Iterator for RefIds<'_> {
    type Item = AtomId;

    fn next(&mut self) -> Option<AtomId> {
        self.0.next().map(atom_id_of)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

/// The record image `record` (an [`encode_values_into`] image) with
/// `source` added to (`add`) or removed from its value `attr` — the
/// back-reference adjustment of system-enforced integrity, made on the
/// bytes. A reference set keeps its ids sorted: the id is found by binary
/// search and inserted or removed, and the count rewritten. A single
/// reference is set to `source`, or cleared if it holds `source`; an
/// unset (`Null`) value becomes `{source}` on add. `Ok(None)` means the
/// adjustment changes nothing (the id is already there or already gone,
/// `attr` is out of range or not a reference), so the record need not be
/// rewritten. Otherwise the result is byte for byte the encoding of the
/// decoded, adjusted values.
pub fn splice_backref(
    record: &[u8],
    attr: usize,
    source: AtomId,
    add: bool,
) -> Result<Option<Vec<u8>>, CodecError> {
    splice_backref_at(record, 0, attr, source, add)
}

/// [`splice_backref`] on the value-vector image that starts at
/// `record[start..]`; the bytes before it (a record header) are kept.
pub fn splice_backref_at(
    record: &[u8],
    start: usize,
    attr: usize,
    source: AtomId,
    add: bool,
) -> Result<Option<Vec<u8>>, CodecError> {
    let Some(at) = seek(record, start, attr)? else { return Ok(None) };
    let t = *record.get(at).ok_or(CodecError::Truncated)?;
    let id = atom_id_bytes(&source);
    let spliced = match (t, add) {
        (tag::REF_SET, _) => {
            let mut pos = at + 1;
            let n = get_len(record, &mut pos)?;
            let ids_at = pos;
            let len = n.checked_mul(ID_LEN).ok_or(CodecError::Truncated)?;
            let (ids, _) = take_slice(record, &mut pos, len)?.as_chunks::<ID_LEN>();
            let found = ids.binary_search_by(|c| atom_id_of(c).cmp(&source));
            let count = |n: usize| u32::try_from(n).map_err(|_| CodecError::Truncated);
            match (found, add) {
                (Err(i), true) => {
                    let p = ids_at + i * ID_LEN;
                    let n = count(n + 1)?.to_le_bytes();
                    rebuilt(record, at + 1..p, &[&n, &record[ids_at..p], &id])
                }
                (Ok(i), false) => {
                    let p = ids_at + i * ID_LEN;
                    let n = count(n - 1)?.to_le_bytes();
                    rebuilt(record, at + 1..p + ID_LEN, &[&n, &record[ids_at..p]])
                }
                _ => return Ok(None),
            }
        }
        (tag::REF_SOME, _) => {
            let held = record.get(at + 1..at + 1 + ID_LEN).ok_or(CodecError::Truncated)?;
            match (held == id, add) {
                (false, true) => rebuilt(record, at + 1..at + 1 + ID_LEN, &[&id]),
                (true, false) => rebuilt(record, at..at + 1 + ID_LEN, &[&[tag::REF_NONE]]),
                _ => return Ok(None),
            }
        }
        (tag::REF_NONE, true) => rebuilt(record, at..at + 1, &[&[tag::REF_SOME], &id]),
        (tag::NULL, true) => {
            rebuilt(record, at..at + 1, &[&[tag::REF_SET], &1u32.to_le_bytes(), &id])
        }
        _ => return Ok(None),
    };
    Ok(Some(spliced))
}

/// Where value `attr` of the value-vector image at `buf[start..]`
/// starts, stepping over the values before it; `None` if the image has
/// no value `attr`.
fn seek(buf: &[u8], start: usize, attr: usize) -> Result<Option<usize>, CodecError> {
    let mut pos = start;
    if attr >= get_len(buf, &mut pos)? {
        return Ok(None);
    }
    for _ in 0..attr {
        skip_value(buf, &mut pos)?;
    }
    Ok(Some(pos))
}

/// `record` with the bytes in `cut` replaced by `with`, concatenated.
fn rebuilt(record: &[u8], cut: std::ops::Range<usize>, with: &[&[u8]]) -> Vec<u8> {
    let added: usize = with.iter().map(|w| w.len()).sum();
    let mut out = Vec::with_capacity(record.len() - cut.len() + added);
    out.extend_from_slice(&record[..cut.start]);
    for w in with {
        out.extend_from_slice(w);
    }
    out.extend_from_slice(&record[cut.end..]);
    out
}

fn put_len(n: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

fn get_len(buf: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    Ok(u32::from_le_bytes(take::<4>(buf, pos)?) as usize)
}

/// Encoded length of an [`AtomId`]: type, then sequence number.
const ID_LEN: usize = 10;

fn put_atom_id(id: &AtomId, out: &mut Vec<u8>) {
    out.extend_from_slice(&atom_id_bytes(id));
}

fn atom_id_bytes(id: &AtomId) -> [u8; ID_LEN] {
    let mut b = [0u8; ID_LEN];
    b[..2].copy_from_slice(&id.atom_type.to_le_bytes());
    b[2..].copy_from_slice(&id.seq.to_le_bytes());
    b
}

fn atom_id_of(b: &[u8; ID_LEN]) -> AtomId {
    let [t0, t1, seq @ ..] = *b;
    AtomId { atom_type: u16::from_le_bytes([t0, t1]), seq: u64::from_le_bytes(seq) }
}

fn get_atom_id(buf: &[u8], pos: &mut usize) -> Result<AtomId, CodecError> {
    Ok(atom_id_of(&take::<ID_LEN>(buf, pos)?))
}

fn take<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N], CodecError> {
    let mut a = [0u8; N];
    a.copy_from_slice(take_slice(buf, pos, N)?);
    Ok(a)
}

fn take_slice<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], CodecError> {
    let start = *pos;
    advance(buf, pos, n)?;
    Ok(&buf[start..*pos])
}

/// Moves `*pos` `n` bytes on, if `buf` has them.
fn advance(buf: &[u8], pos: &mut usize, n: usize) -> Result<(), CodecError> {
    match pos.checked_add(n) {
        Some(end) if end <= buf.len() => {
            *pos = end;
            Ok(())
        }
        _ => Err(CodecError::Truncated),
    }
}

/// Bytes of `buf` after `pos`: a bound on how many values a length read
/// at `pos` can really announce (every value takes at least one byte).
fn left(buf: &[u8], pos: usize) -> usize {
    buf.len().saturating_sub(pos)
}

// ---------------------------------------------------------------------------
// Order-preserving key encoding
// ---------------------------------------------------------------------------

/// Kind-rank bytes mirror [`Value::total_cmp`]'s cross-kind ordering.
fn key_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Real(_) => 2,
        Value::Str(_) => 3,
        Value::Id(_) => 4,
        Value::Ref(_) => 5,
        Value::RefSet(_) => 6,
        Value::Record(_) => 7,
        Value::Array(_) => 8,
        Value::Set(_) => 9,
        Value::List(_) => 10,
    }
}

/// Appends a memcomparable encoding of `v` to `out`: for any two values
/// `a`, `b`, `encode_key(a) <= encode_key(b)` (bytewise) iff
/// `a.total_cmp(b) != Greater`.
pub fn encode_key(v: &Value, out: &mut Vec<u8>) {
    out.push(key_rank(v));
    match v {
        Value::Null => {}
        Value::Bool(b) => out.push(*b as u8),
        // Numbers: both Int and Real map into the f64 order-preserving
        // image so cross-kind numeric comparison works. i64 values beyond
        // 2^53 lose precision in f64; to keep the order exact we encode
        // ints as (f64 image, raw offset image) — the second component
        // breaks ties exactly.
        Value::Int(i) => {
            put_f64_key(*i as f64, out);
            out.extend_from_slice(&((*i as u64) ^ (1 << 63)).to_be_bytes());
        }
        Value::Real(r) => {
            put_f64_key(*r, out);
            // Reals tie-break "below" any equal int image: pad with the
            // midpoint marker so Int(3) == Real(3.0) compares equal-ish;
            // exact equality of keys is only required for identical
            // values, and total_cmp says Int(3)==Real(3.0), so use the
            // same tie-break image derived from the float.
            let i = *r as i64;
            let exact = i as f64 == *r;
            if exact {
                out.extend_from_slice(&((i as u64) ^ (1 << 63)).to_be_bytes());
            } else {
                // Non-integral reals: tie-break bytes derived from the
                // float image keep uniqueness without disturbing order.
                out.extend_from_slice(&f64_key_image(*r).to_be_bytes());
            }
        }
        Value::Str(s) => put_escaped(s.as_bytes(), out),
        Value::Id(id) => put_atom_id_key(id, out),
        Value::Ref(opt) => {
            match opt {
                None => out.push(0),
                Some(id) => {
                    out.push(1);
                    put_atom_id_key(id, out);
                }
            }
        }
        Value::RefSet(ids) => {
            for id in ids {
                out.push(1);
                put_atom_id_key(id, out);
            }
            out.push(0);
        }
        Value::Record(fields) => {
            for (name, val) in fields {
                out.push(1);
                put_escaped(name.as_bytes(), out);
                encode_key(val, out);
            }
            out.push(0);
        }
        Value::Array(vs) | Value::Set(vs) | Value::List(vs) => {
            for x in vs {
                out.push(1);
                encode_key(x, out);
            }
            out.push(0);
        }
    }
}

/// Encodes a composite key (multi-attribute sort criteria / index keys).
pub fn encode_composite_key(vs: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vs.len() * 12);
    for v in vs {
        encode_key(v, &mut out);
    }
    out
}

/// IEEE-754 trick: flip sign bit for non-negative, flip all bits for
/// negative — the resulting u64 orders like the float (with -NaN first,
/// +NaN last, matching `f64::total_cmp`).
fn f64_key_image(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits & (1 << 63) == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

fn put_f64_key(x: f64, out: &mut Vec<u8>) {
    out.extend_from_slice(&f64_key_image(x).to_be_bytes());
}

/// 0x00-terminated with escaping (0x00 -> 0x00 0xFF) so that prefixes
/// order correctly and embedded NULs are safe.
fn put_escaped(bytes: &[u8], out: &mut Vec<u8>) {
    for &b in bytes {
        out.push(b);
        if b == 0 {
            out.push(0xFF);
        }
    }
    out.push(0);
    out.push(0);
}

fn put_atom_id_key(id: &AtomId, out: &mut Vec<u8>) {
    out.extend_from_slice(&id.atom_type.to_be_bytes());
    out.extend_from_slice(&id.seq.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes every value of a record image: the tests' full decode.
    fn decode_values(buf: &[u8]) -> Result<Vec<Value>, CodecError> {
        decode_values_where(buf, |_| true)
    }

    fn round_trip(v: &Value) {
        let mut buf = Vec::new();
        encode_value(v, &mut buf);
        let mut pos = 0;
        let back = decode_value(&buf, &mut pos).unwrap();
        assert_eq!(&back, v);
        assert_eq!(pos, buf.len(), "no trailing bytes");
    }

    #[test]
    fn round_trip_all_kinds() {
        round_trip(&Value::Null);
        round_trip(&Value::Id(AtomId::new(3, 99)));
        round_trip(&Value::Int(-42));
        round_trip(&Value::Real(3.25));
        round_trip(&Value::Bool(true));
        round_trip(&Value::Bool(false));
        round_trip(&Value::Str("Kaiserslautern".into()));
        round_trip(&Value::Str(String::new()));
        round_trip(&Value::Ref(None));
        round_trip(&Value::Ref(Some(AtomId::new(1, 2))));
        round_trip(&Value::ref_set(vec![AtomId::new(1, 2), AtomId::new(1, 3)]));
        round_trip(&Value::Record(vec![
            ("x".into(), Value::Real(1.0)),
            ("nested".into(), Value::List(vec![Value::Int(1), Value::Null])),
        ]));
        round_trip(&Value::Array(vec![Value::Real(0.0); 3]));
        round_trip(&Value::Set(vec![Value::Str("a".into())]));
    }

    #[test]
    fn values_vector_round_trip() {
        let vs = vec![Value::Int(1), Value::Str("two".into()), Value::Null];
        let mut buf = Vec::new();
        encode_values_into(&vs, &mut buf);
        assert_eq!(decode_values(&buf).unwrap(), vs);
    }

    #[test]
    fn truncated_input_detected() {
        let mut buf = Vec::new();
        encode_value(&Value::Int(7), &mut buf);
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        assert_eq!(decode_value(&buf, &mut pos), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_tag_detected() {
        let buf = vec![200u8];
        let mut pos = 0;
        assert!(matches!(decode_value(&buf, &mut pos), Err(CodecError::BadTag(200, 0))));
    }

    /// Length fields claiming far more than the image holds: a reference
    /// set, an array and the value count. No allocation may be sized by
    /// such a claim: one that large aborts the process.
    #[test]
    fn corrupt_lengths_are_errors_not_allocations() {
        let ref_set = [1, 0, 0, 0, tag::REF_SET, 0xff, 0xff, 0xff, 0xff];
        let mut array = ref_set;
        array[4] = tag::ARRAY;
        for image in [&ref_set[..], &array[..], &[0xff; 4][..]] {
            assert_eq!(decode_values(image), Err(CodecError::Truncated), "{image:?}");
        }
        assert_eq!(skip_value(&array, &mut 4), Err(CodecError::Truncated));
        let splice = splice_backref(&ref_set, 0, AtomId::new(0, 1), true);
        assert_eq!(splice, Err(CodecError::Truncated));
    }

    fn key(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        encode_key(v, &mut out);
        out
    }

    fn check_order(a: &Value, b: &Value) {
        let expect = a.total_cmp(b);
        let got = key(a).cmp(&key(b));
        // Key equality is only required to imply total_cmp equality for
        // identical logical values; distinct-but-equal (Int 3 / Real 3.0)
        // may produce equal keys too — both directions hold here.
        assert_eq!(got, expect, "key order mismatch for {a:?} vs {b:?}");
    }

    #[test]
    fn key_order_matches_value_order() {
        let samples = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(1),
            Value::Int(1_000_000),
            Value::Real(f64::NEG_INFINITY),
            Value::Real(-2.5),
            Value::Real(0.0),
            Value::Real(2.5),
            Value::Real(f64::INFINITY),
            Value::Str(String::new()),
            Value::Str("a".into()),
            Value::Str("ab".into()),
            Value::Str("b".into()),
            Value::Id(AtomId::new(0, 1)),
            Value::Id(AtomId::new(1, 0)),
        ];
        for a in &samples {
            for b in &samples {
                check_order(a, b);
            }
        }
    }

    #[test]
    fn int_real_cross_kind_keys() {
        check_order(&Value::Int(3), &Value::Real(3.5));
        check_order(&Value::Real(2.5), &Value::Int(3));
        check_order(&Value::Int(3), &Value::Real(3.0));
        check_order(&Value::Real(3.0), &Value::Int(3));
    }

    #[test]
    fn string_prefix_orders_before_extension() {
        assert!(key(&Value::Str("ab".into())) < key(&Value::Str("ab0".into())));
        // Embedded NUL is handled by escaping.
        let with_nul = Value::Str("a\0b".into());
        let plain = Value::Str("a".into());
        assert!(key(&plain) < key(&with_nul));
        check_order(&plain, &with_nul);
    }

    #[test]
    fn composite_keys_order_lexicographically() {
        let k1 = encode_composite_key(&[Value::Int(1), Value::Str("z".into())]);
        let k2 = encode_composite_key(&[Value::Int(2), Value::Str("a".into())]);
        assert!(k1 < k2);
    }

    fn image(vs: &[Value]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_values_into(vs, &mut out);
        out
    }

    #[test]
    fn splice_covers_every_reference_shape() {
        let (a, b, c) = (AtomId::new(1, 2), AtomId::new(1, 5), AtomId::new(2, 1));
        let cases = [
            // (before, source, add, after; None: no change)
            (Value::ref_set(vec![a, c]), b, true, Some(Value::ref_set(vec![a, b, c]))),
            (Value::ref_set(vec![a, b, c]), b, false, Some(Value::ref_set(vec![a, c]))),
            (Value::ref_set(vec![a, b]), b, true, None),
            (Value::ref_set(vec![a]), b, false, None),
            (Value::RefSet(vec![]), a, true, Some(Value::ref_set(vec![a]))),
            (Value::Ref(None), a, true, Some(Value::Ref(Some(a)))),
            (Value::Ref(Some(b)), a, true, Some(Value::Ref(Some(a)))),
            (Value::Ref(Some(a)), a, true, None),
            (Value::Ref(Some(a)), a, false, Some(Value::Ref(None))),
            (Value::Ref(Some(b)), a, false, None),
            (Value::Null, a, true, Some(Value::ref_set(vec![a]))),
            (Value::Null, a, false, None),
            (Value::Int(3), a, true, None),
        ];
        for (before, source, add, after) in cases {
            let vs = [Value::Str("head".into()), before.clone(), Value::Int(9)];
            let want = after.map(|v| image(&[vs[0].clone(), v, vs[2].clone()]));
            assert_eq!(splice_backref(&image(&vs), 1, source, add), Ok(want), "{before:?}");
        }
        assert_eq!(splice_backref(&image(&[Value::Null]), 1, a, true), Ok(None), "out of range");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Ids from a small domain, so a generated source is often
        /// already in a generated reference set.
        fn arb_id() -> impl Strategy<Value = AtomId> {
            (0u16..2, 0u64..4).prop_map(|(t, s)| AtomId::new(t, s))
        }

        /// The values a reference attribute can hold.
        fn arb_reference() -> impl Strategy<Value = Value> {
            prop_oneof![
                1 => Just(Value::Null),
                1 => Just(Value::Ref(None)),
                1 => arb_id().prop_map(|id| Value::Ref(Some(id))),
                2 => prop::collection::vec(arb_id(), 0..6).prop_map(Value::ref_set),
            ]
        }

        fn arb_value() -> impl Strategy<Value = Value> {
            let leaf = prop_oneof![
                arb_reference(),
                arb_id().prop_map(Value::Id),
                any::<i64>().prop_map(Value::Int),
                any::<f64>().prop_map(Value::Real),
                any::<bool>().prop_map(Value::Bool),
                "[a-z]{0,6}".prop_map(Value::Str),
            ];
            leaf.prop_recursive(3, 24, 4, |inner| {
                prop_oneof![
                    prop::collection::vec(("[a-z]{1,4}", inner.clone()), 0..3)
                        .prop_map(Value::Record),
                    prop::collection::vec(inner.clone(), 0..3).prop_map(Value::Array),
                    prop::collection::vec(inner.clone(), 0..3).prop_map(Value::Set),
                    prop::collection::vec(inner, 0..3).prop_map(Value::List),
                ]
            })
        }

        /// An atom's attribute values, half of them reference values.
        fn arb_values(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Value>> {
            prop::collection::vec(prop_oneof![arb_reference(), arb_value()], len)
        }

        /// The decoded-value semantics the splice must reproduce: add or
        /// remove `source` in value `attr` (a reference set stays sorted;
        /// an unset value becomes `{source}` on add).
        fn apply_backref(values: &mut [Value], attr: usize, source: AtomId, add: bool) {
            let Some(slot) = values.get_mut(attr) else { return };
            match slot {
                Value::RefSet(ids) => match (ids.binary_search(&source), add) {
                    (Err(pos), true) => ids.insert(pos, source),
                    (Ok(pos), false) => {
                        ids.remove(pos);
                    }
                    _ => {}
                },
                Value::Ref(r) if add => *r = Some(source),
                Value::Ref(r) if *r == Some(source) => *r = None,
                Value::Null if add => *slot = Value::RefSet(vec![source]),
                _ => {}
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn splice_equals_decode_apply_encode(
                vs in arb_values(1..6),
                at in any::<prop::sample::Index>(),
                source in arb_id(),
                add in any::<bool>(),
            ) {
                // One past the end is in the draw: out of range is a no-op.
                let attr = at.index(vs.len() + 1);
                let before = image(&vs);
                let mut applied = vs.clone();
                apply_backref(&mut applied, attr, source, add);
                let after = image(&applied);
                let want = (after != before).then_some(after);
                prop_assert_eq!(splice_backref(&before, attr, source, add), Ok(want));
            }

            #[test]
            fn skip_consumes_exactly_the_encoding(v in arb_value(), tail in any::<u8>()) {
                let mut buf = Vec::new();
                encode_value(&v, &mut buf);
                let len = buf.len();
                buf.push(tail);
                let mut pos = 0;
                prop_assert_eq!(skip_value(&buf, &mut pos), Ok(()));
                prop_assert_eq!(pos, len);
            }

            #[test]
            fn arbitrary_bytes_never_panic(
                bytes in prop::collection::vec(any::<u8>(), 0..48),
                attr in 0usize..4,
                source in arb_id(),
                add in any::<bool>(),
            ) {
                let _ = decode_values(&bytes);
                let _ = check_values(&bytes);
                let _ = ref_ids(&bytes, attr);
                let _ = decode_value_at(&bytes, attr);
                let _ = skip_value(&bytes, &mut 0);
                let _ = splice_backref(&bytes, attr, source, add);
            }

            #[test]
            fn damaged_images_never_panic(
                vs in arb_values(1..4),
                at in any::<prop::sample::Index>(),
                byte in any::<u8>(),
                attr in 0usize..4,
                source in arb_id(),
            ) {
                // One byte overwritten, then the image cut after it.
                let mut bytes = image(&vs);
                let i = at.index(bytes.len());
                bytes[i] = byte;
                for damaged in [&bytes[..], &bytes[..=i]] {
                    let _ = decode_values(damaged);
                    let _ = skip_value(damaged, &mut 4);
                    let _ = splice_backref(damaged, attr, source, true);
                    let _ = splice_backref(damaged, attr, source, false);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            // The checking walk accepts exactly the images the decoder
            // decodes, failing with the decoder's error, on images with
            // bits flipped, cut short or extended. On an image it
            // accepts, the projecting decode and the reference walk read
            // what the full decode does.
            #[test]
            fn check_accepts_exactly_what_decode_decodes(
                vs in arb_values(0..5),
                flips in prop::collection::vec((any::<prop::sample::Index>(), 0u8..8), 0..3),
                cut in (any::<bool>(), any::<prop::sample::Index>()),
                tail in prop::collection::vec(any::<u8>(), 0..3),
                kept in any::<u8>(),
            ) {
                let mut bytes = image(&vs);
                for (at, bit) in flips {
                    let i = at.index(bytes.len());
                    bytes[i] ^= 1 << bit;
                }
                if let (true, at) = cut {
                    bytes.truncate(at.index(bytes.len() + 1));
                }
                bytes.extend(tail);
                let decoded = decode_values(&bytes);
                prop_assert_eq!(check_values(&bytes), decoded.clone().map(drop));
                if let Ok(all) = decoded {
                    // Compared as images: `Real(NaN)` is unequal to itself.
                    let keep = |i: usize| i < 8 && kept & (1 << i) != 0;
                    let want: Vec<Value> = all
                        .iter()
                        .enumerate()
                        .map(|(i, v)| if keep(i) { v.clone() } else { Value::Null })
                        .collect();
                    let got = decode_values_where(&bytes, keep).unwrap();
                    prop_assert_eq!(image(&got), image(&want));
                    for attr in 0..=all.len() {
                        let ids: Vec<AtomId> = ref_ids(&bytes, attr).unwrap().collect();
                        prop_assert_eq!(&ids[..], all.get(attr).map_or(&[][..], Value::ref_ids));
                        let one = decode_value_at(&bytes, attr).unwrap();
                        let want = all.get(attr).map(|v| image(std::slice::from_ref(v)));
                        prop_assert_eq!(one.map(|v| image(&[v])), want);
                    }
                }
            }
        }
    }
}
