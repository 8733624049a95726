//! Checkpoint metadata snapshot and restart-recovery analysis.
//!
//! A durable kernel checkpoints by flushing all dirty pages and writing
//! one [`KernelMeta`] blob to the device's metadata area (then truncating
//! the WAL): the schema's DDL source, the storage system's segment
//! directory and the access layer's atom-type → base-segment catalog —
//! everything `Prima::open` needs that is not reconstructible from page
//! contents alone. Tuning structures are deliberately absent: they are
//! redundant and are re-created by re-running LDL.
//!
//! Restart recovery ([`crate::db::Prima::open`]) then proceeds in four
//! passes over the WAL tail:
//!
//! 1. **analysis + redo**: history is repeated page by page
//!    ([`prima_storage::StorageSystem::redo`]): each page the log
//!    describes starts from its full image (its first change since the
//!    checkpoint) and applies its byte-range deltas in log order, each
//!    iff the page's LSN equals the delta's base — a delta whose base is
//!    missing is a typed error, not a skipped record — and is written
//!    once. Transaction brackets sort top-level transactions into
//!    winners (commit record present), in-process-aborted (abort record
//!    present) and **losers**;
//! 2. **rebuild**: the access system re-attaches to the base segments
//!    and scans them, restoring the address table, key maps and
//!    surrogate counters;
//! 3. **undo**: the losers' logged [`UndoOp`]s replay in reverse log
//!    order through the (idempotent) recovery-apply path;
//! 4. **checkpoint**: the recovered state is flushed and the log
//!    truncated, so a crash during recovery simply recovers again.

use crate::error::{PrimaError, PrimaResult};
use crate::txn::UndoOp;
use prima_storage::bytes::{le_u32, le_u64};
use prima_storage::{PageSize, SegmentId, SegmentMeta, WalRecord};
use std::collections::HashSet;

const MAGIC: &[u8; 8] = b"PRMETA02";

/// The checkpoint's catalog snapshot. See module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelMeta {
    /// Buffer size the kernel was built with (reused on open).
    pub buffer_bytes: u64,
    /// MAD-DDL source of the schema, re-parsed on open.
    pub ddl: String,
    /// Next segment id to allocate.
    pub next_segment: SegmentId,
    /// Segment directory at checkpoint time.
    pub segments: Vec<SegmentMeta>,
    /// Base record-file segment of every atom type, in type order.
    pub type_segments: Vec<SegmentId>,
    /// Surrogate counter of every atom type, in type order — surrogates
    /// are never reused, and a post-crash rescan cannot see the ids of
    /// already-deleted atoms.
    pub type_next_seq: Vec<u64>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
fn size_code(s: PageSize) -> u8 {
    // lint: allow(error-hygiene, PageSize::ALL enumerates every variant of the closed enum)
    PageSize::ALL.iter().position(|&x| x == s).expect("known size") as u8
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> PrimaResult<&'a [u8]> {
        if self.buf.len() < self.pos + n {
            return Err(PrimaError::Recovery("checkpoint metadata truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> PrimaResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> PrimaResult<u32> {
        Ok(le_u32(self.take(4)?))
    }

    fn u64(&mut self) -> PrimaResult<u64> {
        Ok(le_u64(self.take(8)?))
    }
}

impl KernelMeta {
    /// Serialises the snapshot (little-endian, length-prefixed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.ddl.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.buffer_bytes.to_le_bytes());
        put_u32(&mut out, self.ddl.len() as u32);
        out.extend_from_slice(self.ddl.as_bytes());
        put_u32(&mut out, self.next_segment);
        put_u32(&mut out, self.segments.len() as u32);
        for s in &self.segments {
            put_u32(&mut out, s.id);
            out.push(size_code(s.page_size));
            out.push(s.logged as u8);
            put_u32(&mut out, s.next_page);
            put_u32(&mut out, s.free.len() as u32);
            for &p in &s.free {
                put_u32(&mut out, p);
            }
        }
        put_u32(&mut out, self.type_segments.len() as u32);
        for &s in &self.type_segments {
            put_u32(&mut out, s);
        }
        put_u32(&mut out, self.type_next_seq.len() as u32);
        for &s in &self.type_next_seq {
            out.extend_from_slice(&s.to_le_bytes());
        }
        out
    }

    /// Decodes a snapshot written by [`KernelMeta::encode`].
    pub fn decode(buf: &[u8]) -> PrimaResult<KernelMeta> {
        let mut r = Reader { buf, pos: 0 };
        if r.take(8)? != MAGIC {
            return Err(PrimaError::Recovery(
                "metadata blob does not start with the PRMETA02 magic".into(),
            ));
        }
        let buffer_bytes = r.u64()?;
        let ddl_len = r.u32()? as usize;
        let ddl = String::from_utf8(r.take(ddl_len)?.to_vec())
            .map_err(|_| PrimaError::Recovery("checkpoint DDL is not UTF-8".into()))?;
        let next_segment = r.u32()?;
        let n_segs = r.u32()? as usize;
        let mut segments = Vec::with_capacity(n_segs);
        for _ in 0..n_segs {
            let id = r.u32()?;
            let code = r.u8()? as usize;
            let page_size = *PageSize::ALL.get(code).ok_or_else(|| {
                PrimaError::Recovery(format!("unknown page-size code {code}"))
            })?;
            let logged = r.u8()? != 0;
            let next_page = r.u32()?;
            let n_free = r.u32()? as usize;
            let mut free = Vec::with_capacity(n_free);
            for _ in 0..n_free {
                free.push(r.u32()?);
            }
            segments.push(SegmentMeta { id, page_size, next_page, free, logged });
        }
        let n_types = r.u32()? as usize;
        let mut type_segments = Vec::with_capacity(n_types);
        for _ in 0..n_types {
            type_segments.push(r.u32()?);
        }
        let n_seqs = r.u32()? as usize;
        let mut type_next_seq = Vec::with_capacity(n_seqs);
        for _ in 0..n_seqs {
            type_next_seq.push(r.u64()?);
        }
        Ok(KernelMeta { buffer_bytes, ddl, next_segment, segments, type_segments, type_next_seq })
    }
}

/// Transaction verdicts from one WAL analysis pass.
#[derive(Debug, Default)]
pub struct WalAnalysis {
    /// Highest LSN seen (the resumed log continues after it).
    pub max_lsn: u64,
    /// Top-level transactions with neither a commit nor an abort record:
    /// their undo records must be replayed in reverse log order.
    pub losers: HashSet<u64>,
}

/// Sorts top-level transactions into winners and losers. Page records and
/// undo payloads are *not* collected here — the caller hands the records
/// to redo and decodes the undo payloads itself.
pub fn analyze(records: &[WalRecord]) -> WalAnalysis {
    let mut finished: HashSet<u64> = HashSet::new();
    for rec in records {
        if let WalRecord::TxnCommit { txn, .. } | WalRecord::TxnAbort { txn, .. } = rec {
            finished.insert(*txn);
        }
    }
    let mut analysis = WalAnalysis::default();
    for rec in records {
        analysis.max_lsn = analysis.max_lsn.max(rec.lsn());
        if let WalRecord::TxnBegin { txn, .. } | WalRecord::Undo { txn, .. } = rec {
            if !finished.contains(txn) {
                analysis.losers.insert(*txn);
            }
        }
    }
    analysis
}

/// Decodes one loser-undo payload.
pub fn decode_undo(payload: &[u8]) -> PrimaResult<UndoOp> {
    Ok(UndoOp::decode(payload)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trip() {
        let meta = KernelMeta {
            buffer_bytes: 8 << 20,
            ddl: "CREATE ATOM_TYPE t (id: IDENTIFIER);".into(),
            next_segment: 7,
            segments: vec![
                SegmentMeta {
                    id: 0,
                    page_size: PageSize::K4,
                    next_page: 12,
                    free: vec![3, 5],
                    logged: true,
                },
                SegmentMeta {
                    id: 4,
                    page_size: PageSize::Half,
                    next_page: 0,
                    free: vec![],
                    logged: false,
                },
            ],
            type_segments: vec![0, 1, 2],
            type_next_seq: vec![17, 1, 4],
        };
        let bytes = meta.encode();
        assert_eq!(KernelMeta::decode(&bytes).unwrap(), meta);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(KernelMeta::decode(b"nonsense").is_err());
        assert!(KernelMeta::decode(&KernelMeta::encode(&KernelMeta {
            buffer_bytes: 1,
            ddl: String::new(),
            next_segment: 0,
            segments: vec![],
            type_segments: vec![],
            type_next_seq: vec![],
        })[..12])
        .is_err());
    }

    #[test]
    fn analysis_sorts_winners_and_losers() {
        use prima_storage::PageId;
        let records = vec![
            WalRecord::TxnBegin { lsn: 1, txn: 1 },
            WalRecord::Undo { lsn: 2, txn: 1, payload: vec![9] },
            WalRecord::PageImage { lsn: 3, page: PageId::new(0, 0), bytes: vec![] },
            WalRecord::TxnCommit { lsn: 4, txn: 1 },
            WalRecord::TxnBegin { lsn: 5, txn: 2 },
            WalRecord::Undo { lsn: 6, txn: 2, payload: vec![7] },
            WalRecord::TxnBegin { lsn: 7, txn: 3 },
            WalRecord::Undo { lsn: 8, txn: 3, payload: vec![8] },
            WalRecord::TxnAbort { lsn: 9, txn: 3 },
        ];
        let a = analyze(&records);
        assert_eq!(a.max_lsn, 9);
        // txn 1 committed, txn 3 aborted in-process: only txn 2 is a loser.
        assert_eq!(a.losers, HashSet::from([2]));
    }
}
