//! The WAL undo record: its format, and how restart recovery replays it.
//!
//! "…a flexible transaction concept … which should also focus on fine
//! grained intra-transaction parallelism and selective in-transaction
//! recovery in various failure events" (Section 4). Undo is *logical*:
//! each record stores the inverse operation; back-references regenerate
//! through the access system's own integrity maintenance when the inverse
//! is applied.
//!
//! [`UndoOp`] is only the log format and restart's replay. The transaction
//! manager builds one from a write's before-image just to append its
//! encoding ([`UndoOp::encode`]) to the write-ahead log *before* the
//! operation touches any page; in-process rollback replays the same
//! images from the version store instead. After a crash, `Prima::open`
//! decodes ([`UndoOp::decode`]) the undo records of loser transactions
//! and replays them in reverse log order through
//! [`UndoOp::apply_recovery`], which tolerates the partial states redo can
//! leave behind (an op whose page images never reached the forced log
//! prefix has nothing to undo).

use prima_access::{AccessError, AccessSystem, Atom};
use prima_mad::codec::{self, CodecError};
use prima_storage::bytes::{le_u32, le_u64};
use prima_mad::value::{AtomId, Value};

/// One logical undo record.
#[derive(Debug, Clone)]
pub enum UndoOp {
    /// Inverse of insert: delete the atom.
    UndoInsert { id: AtomId },
    /// Inverse of modify: restore the old attribute values.
    UndoModify { id: AtomId, old: Vec<(usize, Value)> },
    /// Inverse of delete: restore the atom with its old values (and
    /// thereby its outgoing references; back-references follow).
    UndoDelete { atom: Atom },
}

const KIND_INSERT: u8 = 1;
const KIND_MODIFY: u8 = 2;
const KIND_DELETE: u8 = 3;

impl UndoOp {
    /// The atom this entry concerns — recovery feeds every id it sees in
    /// the WAL tail back into the surrogate counters.
    pub fn atom_id(&self) -> AtomId {
        match self {
            UndoOp::UndoInsert { id } | UndoOp::UndoModify { id, .. } => *id,
            UndoOp::UndoDelete { atom } => atom.id,
        }
    }

    /// Applies the inverse operation at restart. Dangling references in
    /// restored values are dropped (the atoms they named may never have
    /// reached the forced log, or may be restored later in the reverse
    /// replay, which re-adds the back-reference symmetrically), and
    /// "already in the target state" outcomes are successes — replaying
    /// the undo of a half-redone or half-aborted transaction must be
    /// idempotent.
    pub fn apply_recovery(&self, sys: &AccessSystem) -> Result<(), AccessError> {
        let live = |v: &Value| {
            let mut v = v.clone();
            match &mut v {
                Value::Ref(Some(t)) if !sys.exists(*t) => v = Value::Ref(None),
                Value::RefSet(ids) => ids.retain(|t| sys.exists(*t)),
                _ => {}
            }
            v
        };
        let result = match self {
            UndoOp::UndoInsert { id } if sys.exists(*id) => sys.delete_atom(*id, None),
            UndoOp::UndoModify { id, old } if sys.exists(*id) => {
                let old: Vec<(usize, Value)> = old.iter().map(|(i, v)| (*i, live(v))).collect();
                sys.modify_atom(*id, &old, None)
            }
            UndoOp::UndoDelete { atom } => {
                sys.restore_atom(Atom::new(atom.id, atom.values.iter().map(live).collect()))
            }
            UndoOp::UndoInsert { .. } | UndoOp::UndoModify { .. } => Ok(()),
        };
        match result {
            Err(AccessError::AtomAlreadyExists(_)) | Err(AccessError::NoSuchAtom(_)) => Ok(()),
            other => other,
        }
    }

    /// Byte encoding for the write-ahead log.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let put_id = |out: &mut Vec<u8>, id: AtomId| {
            out.extend_from_slice(&id.atom_type.to_le_bytes());
            out.extend_from_slice(&id.seq.to_le_bytes());
        };
        match self {
            UndoOp::UndoInsert { id } => {
                out.push(KIND_INSERT);
                put_id(&mut out, *id);
            }
            UndoOp::UndoModify { id, old } => {
                out.push(KIND_MODIFY);
                put_id(&mut out, *id);
                out.extend_from_slice(&(old.len() as u32).to_le_bytes());
                for (idx, v) in old {
                    out.extend_from_slice(&(*idx as u32).to_le_bytes());
                    codec::encode_value(v, &mut out);
                }
            }
            UndoOp::UndoDelete { atom } => {
                out.push(KIND_DELETE);
                out.extend_from_slice(&atom.encode());
            }
        }
        out
    }

    /// Decodes a WAL undo payload.
    pub fn decode(buf: &[u8]) -> Result<UndoOp, AccessError> {
        let trunc = || AccessError::Codec(CodecError::Truncated);
        let get_id = |buf: &[u8]| -> Result<AtomId, AccessError> {
            if buf.len() < 10 {
                return Err(trunc());
            }
            Ok(AtomId::new(
                u16::from_le_bytes([buf[0], buf[1]]),
                le_u64(&buf[2..10]),
            ))
        };
        match buf.first() {
            Some(&KIND_INSERT) => Ok(UndoOp::UndoInsert { id: get_id(&buf[1..])? }),
            Some(&KIND_MODIFY) => {
                let id = get_id(&buf[1..])?;
                let rest = &buf[11..];
                if rest.len() < 4 {
                    return Err(trunc());
                }
                let n = le_u32(&rest[0..4]) as usize;
                let mut pos = 4usize;
                let mut old = Vec::with_capacity(n);
                for _ in 0..n {
                    if rest.len() < pos + 4 {
                        return Err(trunc());
                    }
                    let idx =
                        le_u32(&rest[pos..pos + 4]) as usize;
                    pos += 4;
                    let v = codec::decode_value(rest, &mut pos).map_err(AccessError::Codec)?;
                    old.push((idx, v));
                }
                Ok(UndoOp::UndoModify { id, old })
            }
            Some(&KIND_DELETE) => Ok(UndoOp::UndoDelete { atom: Atom::decode(&buf[1..])? }),
            _ => Err(trunc()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undo_ops_round_trip_through_bytes() {
        let id = AtomId::new(3, 17);
        let ops = [
            UndoOp::UndoInsert { id },
            UndoOp::UndoModify {
                id,
                old: vec![
                    (1, Value::Int(42)),
                    (2, Value::Str("before".into())),
                    (3, Value::ref_set(vec![AtomId::new(4, 9)])),
                ],
            },
            UndoOp::UndoDelete {
                atom: Atom::new(id, vec![Value::Id(id), Value::Int(7), Value::Null]),
            },
        ];
        for op in &ops {
            let bytes = op.encode();
            let back = UndoOp::decode(&bytes).unwrap();
            assert_eq!(format!("{op:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn truncated_payload_rejected() {
        assert!(UndoOp::decode(&[]).is_err());
        assert!(UndoOp::decode(&[KIND_MODIFY, 1]).is_err());
    }
}
