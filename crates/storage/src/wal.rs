//! Write-ahead log.
//!
//! The paper defers media and crash recovery to a later report; this
//! module supplies the piece every kernel since the systems of the 1970s
//! has carried between Fig. 3.1's storage system and the devices: an
//! append-only, LSN-stamped log with
//!
//! * **physical redo** — written when an updater unfixes a page
//!   ([`crate::buffer::BufferManager`] stamps the frame's `recovery_lsn`
//!   and the page's header LSN with the record's LSN). The first logged
//!   change of a page since the last truncation ([`Wal::reset`]) is a
//!   full `PageImage`; every later one is a `PageDelta`: only the byte
//!   ranges that changed, plus `base_lsn`, the page LSN the change was
//!   made on. Redo applies a delta iff the rebuilt page's LSN equals its
//!   base, so replay is idempotent. Because every page changed since a
//!   checkpoint has a full image in the log, a torn data page is rebuilt
//!   from its image without a double-write buffer;
//! * **logical undo** — opaque payloads the transaction layer serialises
//!   (inverse atom operations), tagged with their top-level transaction;
//! * **transaction brackets** — begin / commit / abort records; commit
//!   *forces* the log, which is what makes `Session::commit` durable;
//! * **group append** — records accumulate in an in-process buffer and
//!   reach the device only on a force, one sequential
//!   [`BlockDevice::wal_append`] per force. Everything not yet forced is
//!   lost in a crash — exactly the contract recovery assumes;
//! * **cross-session group commit** — [`Wal::commit`] is the commit
//!   durability point. A committer appends its `TxnCommit` record and
//!   then either *leads* (performs the device force itself, lingering up
//!   to [`GROUP_COMMIT_MAX_WAIT`] for other in-flight committers'
//!   records, up to [`GROUP_COMMIT_MAX_BATCH`] commits) or
//!   *follows* (parks on a condvar until `flushed_lsn` covers its commit
//!   LSN). Either way the ack invariant holds: `commit` returns `Ok`
//!   only after a device append covering the caller's `TxnCommit` record
//!   returned `Ok` — so N concurrent committers share one fsync instead
//!   of paying N.
//!
//! A force never holds the group buffer's mutex across device I/O: the
//! pending batch is swapped out under the lock, written outside it, and
//! `flushed` is published after — appenders on other sessions are never
//! stalled behind an in-flight fsync. File order still equals LSN order
//! because batch swaps are serialised by a dedicated I/O lock.
//!
//! The write-ahead invariant is enforced at the buffer: no dirty page
//! reaches the device while its `recovery_lsn` exceeds
//! [`Wal::flushed_lsn`]. The transaction layer keeps the companion
//! invariant that a statement's undo record is appended *before* any of
//! its page records, so a forced prefix never contains a redo without the
//! matching undo.
//!
//! On-device format: a sequence of `[u32 body_len][u32 crc][body]`
//! records; `body = [u8 kind][u64 lsn][fields]`, where a page image's
//! fields are `[u32 segment][u32 page][u32 len][bytes]` and a page
//! delta's are `[u32 segment][u32 page][u64 base_lsn][u16 ranges]`
//! followed by `ranges × [u16 offset][u16 len][bytes]`. The CRC is the
//! IEEE CRC-32 of `body`. Replay stops at the first truncated or corrupt
//! record — the torn tail of a crash.

use crate::bytes::{le_u16, le_u32, le_u64};
use crate::disk::BlockDevice;
use crate::error::{StorageError, StorageResult};
use crate::page::PageId;
use crate::probe::{self, SpanKind};
use parking_lot::{rank, Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Log sequence number. `0` means "none"; real records start at 1.
pub type Lsn = u64;

const KIND_PAGE_IMAGE: u8 = 1;
const KIND_TXN_BEGIN: u8 = 2;
const KIND_TXN_COMMIT: u8 = 3;
const KIND_TXN_ABORT: u8 = 4;
const KIND_UNDO: u8 = 5;
const KIND_CHECKPOINT: u8 = 6;
const KIND_PAGE_DELTA: u8 = 7;

/// Bytes of one range header in a page delta (`[u16 offset][u16 len]`).
/// Two changed ranges separated by at most this many unchanged bytes are
/// logged as one: the merged range is never longer than the two apart.
pub const DELTA_RANGE_HEADER: usize = 4;

/// One changed range of a page delta as appended: `(offset, len)` into
/// the page's bytes.
pub type DeltaRange = (u16, u16);

// Cross-session group commit (see [`Wal::commit`]): both bound how long
// a commit leader lingers for company before forcing. It writes as soon
// as every transaction currently inside `commit` has its record in the
// batch, `GROUP_COMMIT_MAX_BATCH` commits are buffered, or
// `GROUP_COMMIT_MAX_WAIT` elapses — whichever comes first. A lone
// committer never lingers at all, so it pays exactly one force.

/// Longest a leader waits for further committers' records before
/// forcing, and the bound on one follower park (followers re-check
/// `flushed_lsn` and the leader flag on every wakeup, so a missed notify
/// costs at most one wait).
pub const GROUP_COMMIT_MAX_WAIT: Duration = Duration::from_micros(500);
/// Buffered commit records at which a lingering leader stops waiting and
/// forces.
pub const GROUP_COMMIT_MAX_BATCH: u64 = 64;

/// A record as appended (borrowed payloads; the LSN is assigned by
/// [`Wal::append`]).
#[derive(Debug)]
pub enum WalPayload<'a> {
    /// Full after-image of one page (physical redo): the page's first
    /// logged change since the last truncation.
    PageImage { page: PageId, bytes: &'a [u8] },
    /// The byte ranges of `bytes` (the page's after-image) that changed
    /// since the record with LSN `base_lsn`; only the ranges are logged.
    PageDelta { page: PageId, base_lsn: Lsn, bytes: &'a [u8], ranges: &'a [DeltaRange] },
    /// Top-level transaction started.
    TxnBegin { txn: u64 },
    /// Top-level transaction committed (the append is followed by a
    /// force).
    TxnCommit { txn: u64 },
    /// Top-level transaction rolled back in-process (its undo has been
    /// applied; recovery must not undo it again *if* this record made it
    /// to the device).
    TxnAbort { txn: u64 },
    /// Logical undo payload, opaque to the storage layer.
    Undo { txn: u64, payload: &'a [u8] },
    /// Checkpoint marker (diagnostic; the log is truncated right after).
    Checkpoint,
}

/// A decoded record from replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    PageImage { lsn: Lsn, page: PageId, bytes: Vec<u8> },
    /// `ranges` are `(offset, new bytes)` pairs.
    PageDelta { lsn: Lsn, page: PageId, base_lsn: Lsn, ranges: Vec<(u16, Vec<u8>)> },
    TxnBegin { lsn: Lsn, txn: u64 },
    TxnCommit { lsn: Lsn, txn: u64 },
    TxnAbort { lsn: Lsn, txn: u64 },
    Undo { lsn: Lsn, txn: u64, payload: Vec<u8> },
    Checkpoint { lsn: Lsn },
}

impl WalRecord {
    /// The record's LSN.
    pub fn lsn(&self) -> Lsn {
        match self {
            WalRecord::PageImage { lsn, .. }
            | WalRecord::PageDelta { lsn, .. }
            | WalRecord::TxnBegin { lsn, .. }
            | WalRecord::TxnCommit { lsn, .. }
            | WalRecord::TxnAbort { lsn, .. }
            | WalRecord::Undo { lsn, .. }
            | WalRecord::Checkpoint { lsn } => *lsn,
        }
    }
}

struct WalBuf {
    /// Encoded records not yet forced to the device.
    pending: Vec<u8>,
    /// LSN of the newest buffered record.
    buffered: Lsn,
    /// `TxnCommit` records among `pending` — the group-commit batch size
    /// a lingering leader watches.
    pending_commits: u64,
}

/// Group-commit coordinator state, guarded by [`Wal::group`]. The
/// condvar doubles as the leader's linger timer and the followers' park.
struct GroupState {
    /// A committer is currently performing (or about to perform) the
    /// shared force; later arrivals park instead of racing it.
    leader_active: bool,
}

/// The write-ahead log over a device's log area. See module docs.
pub struct Wal {
    device: Arc<dyn BlockDevice>,
    // lockrank: walio.1 — the append buffer; taken *inside* io_lock by a
    // force (batch swap) and bare by appenders.
    inner: Mutex<WalBuf>,
    /// Serialises batch swap + device append so file order == LSN order
    /// even with concurrent forces. Held across device I/O *instead of*
    /// `inner`, which is released before the write starts.
    // lockrank: walio.0
    io_lock: Mutex<()>,
    // lockrank: walgroup.0 — group-commit leader election; taken before
    // any walio lock on the commit path.
    group: Mutex<GroupState>,
    group_cv: Condvar,
    /// Transactions currently inside [`Wal::commit`]; a lingering leader
    /// stops waiting as soon as the batch covers all of them.
    committing: AtomicU64,
    next_lsn: AtomicU64,
    flushed: AtomicU64,
    /// First LSN assigned after the last truncation: a page whose LSN is
    /// below it has no record in the log, so its next change is logged
    /// as a full image.
    reset_lsn: AtomicU64,
    /// Set when a device append failed mid-batch: the log may carry a
    /// durable torn fragment, and appending *past* it would put records
    /// where replay (which stops at the first corrupt record) can never
    /// see them — later commits would return Ok yet be unrecoverable.
    /// A poisoned log refuses all further appends and forces (commits
    /// fail loudly); truncation — reopening the database, or a
    /// successful checkpoint reset — clears the condition.
    poisoned: AtomicBool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("flushed", &self.flushed.load(Ordering::Relaxed))
            .field("next_lsn", &self.next_lsn.load(Ordering::Relaxed))
            .finish()
    }
}

/// Slicing-by-8 lookup tables of the reflected IEEE polynomial:
/// `CRC_TABLES[0]` is the byte-at-a-time table, and `CRC_TABLES[k][i]` is
/// `CRC_TABLES[k - 1][i]` advanced over one more zero byte.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 { (c >> 1) ^ 0xedb8_8320 } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) — a real CRC, not a hash:
/// torn tails are exactly the burst errors CRCs guarantee to detect.
/// Slicing-by-8: eight table lookups per 8-byte word, independent of
/// each other, instead of a serial lookup per byte; the values are the
/// byte-at-a-time definition's.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = !0;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = le_u32(&word[0..4]) ^ crc;
        let hi = le_u32(&word[4..8]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Writes a record body's `[u8 kind][u64 lsn]` head.
fn put_head(buf: &mut Vec<u8>, kind: u8, lsn: Lsn) {
    buf.push(kind);
    buf.extend_from_slice(&lsn.to_le_bytes());
}

fn put_page(buf: &mut Vec<u8>, page: PageId) {
    buf.extend_from_slice(&page.segment.to_le_bytes());
    buf.extend_from_slice(&page.page.to_le_bytes());
}

impl Wal {
    /// A log whose first record gets LSN 1 (fresh database).
    pub fn new(device: Arc<dyn BlockDevice>) -> Arc<Wal> {
        Self::starting_at(device, 1)
    }

    /// A log resuming after replay: `first_lsn` must exceed every LSN
    /// already on the device so recovery-time appends stay monotone.
    pub fn starting_at(device: Arc<dyn BlockDevice>, first_lsn: Lsn) -> Arc<Wal> {
        Arc::new(Wal {
            device,
            inner: Mutex::new_ranked(
                WalBuf { pending: Vec::new(), buffered: first_lsn - 1, pending_commits: 0 },
                rank::WAL_IO + 1,
            ),
            io_lock: Mutex::new_ranked((), rank::WAL_IO),
            group: Mutex::new_ranked(GroupState { leader_active: false }, rank::WAL_GROUP),
            group_cv: Condvar::new(),
            committing: AtomicU64::new(0),
            next_lsn: AtomicU64::new(first_lsn),
            flushed: AtomicU64::new(first_lsn - 1),
            reset_lsn: AtomicU64::new(first_lsn),
            poisoned: AtomicBool::new(false),
        })
    }

    fn check_poison(&self) -> StorageResult<()> {
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(StorageError::DeviceError(
                "wal: a previous append failed mid-batch; the log tail is suspect — \
                 reopen the database to recover"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Appends one record to the in-process group buffer and returns its
    /// LSN. Not durable until a force covers it. Fails fast on a
    /// poisoned log — buffering records that can never become durable
    /// would only defer the error to commit time.
    ///
    /// The record is encoded straight into the buffer: the `[len][crc]`
    /// slot is reserved, the body written after it, and the slot filled
    /// in once the body's length and CRC are known.
    pub fn append(&self, payload: WalPayload<'_>) -> StorageResult<Lsn> {
        let leaf = probe::leaf(SpanKind::WalAppend);
        let is_commit = matches!(payload, WalPayload::TxnCommit { .. });
        let mut inner = self.inner.lock();
        self.check_poison()?;
        // LSN assignment under the buffer lock: file order == LSN order.
        let lsn = self.next_lsn.fetch_add(1, Ordering::Relaxed);
        let buf = &mut inner.pending;
        let start = buf.len();
        buf.extend_from_slice(&[0u8; 8]);
        match payload {
            WalPayload::PageImage { page, bytes } => {
                put_head(buf, KIND_PAGE_IMAGE, lsn);
                put_page(buf, page);
                buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                buf.extend_from_slice(bytes);
            }
            WalPayload::PageDelta { page, base_lsn, bytes, ranges } => {
                put_head(buf, KIND_PAGE_DELTA, lsn);
                put_page(buf, page);
                buf.extend_from_slice(&base_lsn.to_le_bytes());
                buf.extend_from_slice(&(ranges.len() as u16).to_le_bytes());
                for &(off, len) in ranges {
                    buf.extend_from_slice(&off.to_le_bytes());
                    buf.extend_from_slice(&len.to_le_bytes());
                    buf.extend_from_slice(&bytes[off as usize..off as usize + len as usize]);
                }
            }
            WalPayload::TxnBegin { txn } => {
                put_head(buf, KIND_TXN_BEGIN, lsn);
                buf.extend_from_slice(&txn.to_le_bytes());
            }
            WalPayload::TxnCommit { txn } => {
                put_head(buf, KIND_TXN_COMMIT, lsn);
                buf.extend_from_slice(&txn.to_le_bytes());
            }
            WalPayload::TxnAbort { txn } => {
                put_head(buf, KIND_TXN_ABORT, lsn);
                buf.extend_from_slice(&txn.to_le_bytes());
            }
            WalPayload::Undo { txn, payload } => {
                put_head(buf, KIND_UNDO, lsn);
                buf.extend_from_slice(&txn.to_le_bytes());
                buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                buf.extend_from_slice(payload);
            }
            WalPayload::Checkpoint => put_head(buf, KIND_CHECKPOINT, lsn),
        }
        let record_len = buf.len() - start;
        let crc = crc32(&buf[start + 8..]);
        buf[start..start + 4].copy_from_slice(&((record_len - 8) as u32).to_le_bytes());
        buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        inner.buffered = lsn;
        if is_commit {
            inner.pending_commits += 1;
        }
        drop(inner);
        leaf.finish(record_len as u64);
        if is_commit {
            // A leader may be lingering for exactly this record.
            self.group_cv.notify_all();
        }
        Ok(lsn)
    }

    /// One device append of `batch`, with the probe/IoStats accounting
    /// every log write must flow through — [`force`](Self::force) and
    /// [`reset`](Self::reset)'s re-append both funnel here, so profiler
    /// span trees and `prima_io_*` metrics see checkpoint-racing writes
    /// too. `commits` is the number of `TxnCommit` records the batch
    /// carries; batches carrying at least one feed the group-commit
    /// counters (`group_commit_batches` / `group_commit_commits`).
    fn append_batch(&self, batch: &[u8], commits: u64) -> StorageResult<()> {
        let leaf = probe::leaf(SpanKind::WalForce);
        self.device.wal_append(batch)?;
        if commits > 0 {
            let stats = self.device.stats();
            stats.group_commit_batches.add(1);
            stats.group_commit_commits.add(commits);
        }
        leaf.finish(batch.len() as u64);
        Ok(())
    }

    /// Forces every buffered record to the device in one sequential
    /// append. Returns the newest durable LSN.
    ///
    /// The buffer mutex is *not* held across the device write: the
    /// pending batch is swapped out under the lock, written under the
    /// I/O lock only, and `flushed` published after — concurrent
    /// appenders proceed while the force is in flight. On a device
    /// error the unwritten batch is spliced back in front of anything
    /// appended meanwhile (LSN order preserved) and the log is
    /// poisoned; a later [`reset`](Self::reset) can still re-append the
    /// full pending set onto a truncated log.
    pub fn force(&self) -> StorageResult<Lsn> {
        let _io = self.io_lock.lock();
        let (batch, upto, commits) = {
            let mut inner = self.inner.lock();
            self.check_poison()?;
            if inner.pending.is_empty() {
                return Ok(self.flushed.load(Ordering::Relaxed));
            }
            let batch = std::mem::take(&mut inner.pending);
            let commits = std::mem::replace(&mut inner.pending_commits, 0);
            (batch, inner.buffered, commits)
        };
        match self.append_batch(&batch, commits) {
            Ok(()) => {
                self.flushed.store(upto, Ordering::Relaxed);
                // Any force can cover parked committers' records —
                // flush-path forces included.
                self.group_cv.notify_all();
                Ok(upto)
            }
            Err(e) => {
                // The device may hold a torn fragment of this batch; see
                // the `poisoned` field docs.
                self.poisoned.store(true, Ordering::Relaxed);
                let mut inner = self.inner.lock();
                let mut restored = batch;
                restored.extend_from_slice(&inner.pending);
                inner.pending = restored;
                inner.pending_commits += commits;
                drop(inner);
                // Wake parked committers so they observe the poison.
                self.group_cv.notify_all();
                Err(e)
            }
        }
    }

    /// The commit durability point: appends `txn`'s `TxnCommit` record
    /// and returns once a device force covers it — `Ok` implies the
    /// record (and every record before it) is durable.
    ///
    /// This is the cross-session group commit: the first committer to
    /// find no force in flight becomes *leader*, lingers briefly for
    /// other in-flight committers (bounded by [`GROUP_COMMIT_MAX_WAIT`]
    /// and [`GROUP_COMMIT_MAX_BATCH`]),
    /// and performs one [`force`](Self::force) covering every batched
    /// record; the rest park on a condvar until `flushed_lsn` passes
    /// their commit LSN. A lone committer leads immediately without
    /// lingering, so a single-session writing commit costs exactly one
    /// force.
    pub fn commit(&self, txn: u64) -> StorageResult<Lsn> {
        self.committing.fetch_add(1, Ordering::SeqCst);
        let result = self.commit_grouped(txn);
        self.committing.fetch_sub(1, Ordering::SeqCst);
        result
    }

    fn commit_grouped(&self, txn: u64) -> StorageResult<Lsn> {
        let lsn = self.append(WalPayload::TxnCommit { txn })?;
        loop {
            let flushed = self.flushed.load(Ordering::Relaxed);
            if flushed >= lsn {
                // Someone's force covered us; our record is durable.
                return Ok(flushed);
            }
            let mut g = self.group.lock();
            // Re-check under the lock: a leader may have finished
            // between the naked load and the acquire.
            let flushed = self.flushed.load(Ordering::Relaxed);
            if flushed >= lsn {
                return Ok(flushed);
            }
            self.check_poison()?;
            if g.leader_active {
                // Follower: park until the leader publishes. Bounded
                // wait, then re-check — a timeout is not an error, just
                // another trip around the loop (and a chance to take
                // over leadership if the force failed).
                let _ = self.group_cv.wait_for(&mut g, GROUP_COMMIT_MAX_WAIT);
                continue;
            }
            // Leader: linger until every transaction currently inside
            // commit() has its record batched, the batch is full, or
            // max_wait elapses. A lone committer exits immediately.
            g.leader_active = true;
            let deadline = Instant::now() + GROUP_COMMIT_MAX_WAIT;
            loop {
                let en_route = self.committing.load(Ordering::SeqCst);
                let batched = self.inner.lock().pending_commits;
                if batched >= en_route.min(GROUP_COMMIT_MAX_BATCH) {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                if self.group_cv.wait_for(&mut g, deadline - now).timed_out() {
                    break;
                }
            }
            drop(g);
            let res = self.force();
            self.group.lock().leader_active = false;
            self.group_cv.notify_all();
            // Success: loop re-checks flushed (>= lsn, since our record
            // was in the batch the force swapped out). Failure: the
            // error is ours to report — our commit is not durable.
            res?;
        }
    }

    /// Newest LSN durably on the device.
    pub fn flushed_lsn(&self) -> Lsn {
        self.flushed.load(Ordering::Relaxed)
    }

    /// Newest LSN appended (durable or buffered).
    pub fn buffered_lsn(&self) -> Lsn {
        self.inner.lock().buffered
    }

    /// First LSN assigned after the last truncation ([`Wal::reset`]; for
    /// a new log, its first LSN). A page whose header LSN is below it has
    /// no record in the log, so its next logged change must be a full
    /// image.
    pub fn reset_lsn(&self) -> Lsn {
        self.reset_lsn.load(Ordering::Relaxed)
    }

    /// Records appended but not durable: the group buffer, which after a
    /// failed force also holds that force's batch. Crash tests compare it
    /// with what replay finds on the device.
    pub fn unforced(&self) -> StorageResult<Vec<WalRecord>> {
        Self::decode(&self.inner.lock().pending)
    }

    /// Truncates the device's log area (checkpoint: everything
    /// redo-relevant up to the force that preceded the flush is now in
    /// the flushed pages and metadata snapshot). Records still *pending*
    /// in the group buffer — e.g. page images of non-transactional
    /// writers racing the checkpoint — are not discarded: they are
    /// appended to the fresh log immediately (through the same
    /// accounting funnel as a force, so probes and `prima_io_*` see
    /// them), so `flushed == buffered` stays truthful. The LSN counter
    /// keeps increasing.
    pub fn reset(&self) -> StorageResult<()> {
        let _io = self.io_lock.lock();
        let mut inner = self.inner.lock();
        // lint: allow(lock-across-io, the io_lock IS the device-append serialisation; truncation must exclude concurrent forces and buffer mutation)
        self.device.wal_reset()?;
        // Truncation discards any torn fragment, so the log is clean
        // again.
        self.poisoned.store(false, Ordering::Relaxed);
        if !inner.pending.is_empty() {
            if let Err(e) = self.append_batch(&inner.pending, inner.pending_commits) {
                self.poisoned.store(true, Ordering::Relaxed);
                return Err(e);
            }
            inner.pending.clear();
        }
        inner.pending_commits = 0;
        self.flushed.store(inner.buffered, Ordering::Relaxed);
        self.reset_lsn.store(inner.buffered + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Decodes the device's entire log area. Replay stops silently at the
    /// first truncated or checksum-failing record (a crash's torn tail);
    /// corruption *before* valid records is reported as an error.
    pub fn replay(device: &Arc<dyn BlockDevice>) -> StorageResult<Vec<WalRecord>> {
        Self::decode(&device.wal_contents()?)
    }

    /// Decodes a byte stream in the on-device format, with
    /// [`replay`](Self::replay)'s torn-tail rule.
    pub fn decode(bytes: &[u8]) -> StorageResult<Vec<WalRecord>> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos + 8 <= bytes.len() {
            let len = le_u32(&bytes[pos..pos + 4]) as usize;
            let crc = le_u32(&bytes[pos + 4..pos + 8]);
            let body_start = pos + 8;
            if body_start + len > bytes.len() {
                break; // torn tail
            }
            let body = &bytes[body_start..body_start + len];
            if crc32(body) != crc {
                break; // torn tail (partial overwrite)
            }
            match Self::decode_body(body) {
                Some(rec) => out.push(rec),
                None => {
                    return Err(StorageError::DeviceError(format!(
                        "wal: undecodable record at byte {pos}"
                    )))
                }
            }
            pos = body_start + len;
        }
        Ok(out)
    }

    fn decode_body(body: &[u8]) -> Option<WalRecord> {
        if body.len() < 9 {
            return None;
        }
        let kind = body[0];
        let lsn = le_u64(&body[1..9]);
        let rest = &body[9..];
        Some(match kind {
            KIND_PAGE_DELTA => {
                if rest.len() < 18 {
                    return None;
                }
                let page = PageId::new(le_u32(&rest[0..4]), le_u32(&rest[4..8]));
                let base_lsn = le_u64(&rest[8..16]);
                let n = le_u16(&rest[16..18]) as usize;
                let mut ranges = Vec::with_capacity(n);
                let mut pos = 18;
                for _ in 0..n {
                    let head = rest.get(pos..pos + DELTA_RANGE_HEADER)?;
                    let (off, len) = (le_u16(&head[0..2]), le_u16(&head[2..4]) as usize);
                    pos += DELTA_RANGE_HEADER;
                    ranges.push((off, rest.get(pos..pos + len)?.to_vec()));
                    pos += len;
                }
                WalRecord::PageDelta { lsn, page, base_lsn, ranges }
            }
            KIND_PAGE_IMAGE => {
                if rest.len() < 12 {
                    return None;
                }
                let segment = le_u32(&rest[0..4]);
                let page = le_u32(&rest[4..8]);
                let n = le_u32(&rest[8..12]) as usize;
                if rest.len() < 12 + n {
                    return None;
                }
                WalRecord::PageImage {
                    lsn,
                    page: PageId::new(segment, page),
                    bytes: rest[12..12 + n].to_vec(),
                }
            }
            KIND_TXN_BEGIN | KIND_TXN_COMMIT | KIND_TXN_ABORT => {
                if rest.len() < 8 {
                    return None;
                }
                let txn = le_u64(&rest[0..8]);
                match kind {
                    KIND_TXN_BEGIN => WalRecord::TxnBegin { lsn, txn },
                    KIND_TXN_COMMIT => WalRecord::TxnCommit { lsn, txn },
                    _ => WalRecord::TxnAbort { lsn, txn },
                }
            }
            KIND_UNDO => {
                if rest.len() < 12 {
                    return None;
                }
                let txn = le_u64(&rest[0..8]);
                let n = le_u32(&rest[8..12]) as usize;
                if rest.len() < 12 + n {
                    return None;
                }
                WalRecord::Undo { lsn, txn, payload: rest[12..12 + n].to_vec() }
            }
            KIND_CHECKPOINT => WalRecord::Checkpoint { lsn },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimDisk;
    use crate::fault_disk::{FaultDisk, FaultSchedule};
    use crate::probe::Probe;

    fn device() -> Arc<dyn BlockDevice> {
        Arc::new(SimDisk::new())
    }

    #[test]
    fn append_force_replay_round_trip() {
        let dev = device();
        let wal = Wal::new(Arc::clone(&dev));
        let l1 = wal.append(WalPayload::TxnBegin { txn: 7 }).unwrap();
        let l2 = wal.append(WalPayload::Undo { txn: 7, payload: b"undo-bytes" }).unwrap();
        let l3 = wal
            .append(WalPayload::PageImage {
                page: PageId::new(2, 9),
                bytes: &[1, 2, 3, 4],
            })
            .unwrap();
        let l4 = wal.append(WalPayload::TxnCommit { txn: 7 }).unwrap();
        assert_eq!((l1, l2, l3, l4), (1, 2, 3, 4));
        assert_eq!(wal.flushed_lsn(), 0, "nothing durable before force");
        assert_eq!(wal.force().unwrap(), 4);
        assert_eq!(wal.flushed_lsn(), 4);
        let recs = Wal::replay(&dev).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0], WalRecord::TxnBegin { lsn: 1, txn: 7 });
        assert_eq!(
            recs[1],
            WalRecord::Undo { lsn: 2, txn: 7, payload: b"undo-bytes".to_vec() }
        );
        assert_eq!(
            recs[2],
            WalRecord::PageImage { lsn: 3, page: PageId::new(2, 9), bytes: vec![1, 2, 3, 4] }
        );
        assert_eq!(recs[3], WalRecord::TxnCommit { lsn: 4, txn: 7 });
    }

    /// The table-driven CRC keeps the bitwise definition's values: the
    /// IEEE check value pins the on-disk format.
    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Slicing-by-8 equals the bitwise definition at every length up to
    /// two 4 KiB pages and more, from starts off the word boundary (the
    /// reference CRC is carried along one byte at a time).
    #[test]
    fn sliced_crc32_matches_the_bitwise_definition() {
        let data: Vec<u8> =
            (0..9_008u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in [1, 5] {
            let mut reference: u32 = !0;
            for len in 0..=9_000 {
                let sliced = crc32(&data[start..start + len]);
                assert_eq!(sliced, !reference, "start {start}, length {len}");
                reference ^= data[start + len] as u32;
                for _ in 0..8 {
                    let carry = if reference & 1 == 1 { 0xedb8_8320 } else { 0 };
                    reference = (reference >> 1) ^ carry;
                }
            }
        }
    }

    /// A record is framed as `[len][crc][body]` with the CRC over exactly
    /// the body, although `append` encodes it in place.
    #[test]
    fn record_frame_covers_the_body() {
        let dev = device();
        let wal = Wal::new(Arc::clone(&dev));
        wal.append(WalPayload::Undo { txn: 3, payload: b"abc" }).unwrap();
        wal.force().unwrap();
        let log = dev.wal_contents().unwrap();
        let len = le_u32(&log[0..4]) as usize;
        assert_eq!(log.len(), 8 + len);
        assert_eq!(le_u32(&log[4..8]), crc32(&log[8..]));
    }

    fn delta<'a>(base_lsn: Lsn, bytes: &'a [u8], ranges: &'a [DeltaRange]) -> WalPayload<'a> {
        WalPayload::PageDelta { page: PageId::new(1, 4), base_lsn, bytes, ranges }
    }

    #[test]
    fn page_delta_round_trips() {
        let dev = device();
        let wal = Wal::new(Arc::clone(&dev));
        let page: Vec<u8> = (0..64u8).collect();
        let lsn = wal.append(delta(9, &page, &[(2, 3), (40, 1)])).unwrap();
        wal.force().unwrap();
        assert_eq!(
            Wal::replay(&dev).unwrap(),
            vec![WalRecord::PageDelta {
                lsn,
                page: PageId::new(1, 4),
                base_lsn: 9,
                ranges: vec![(2, vec![2, 3, 4]), (40, vec![40])],
            }]
        );
    }

    /// A delta cut at any byte, or with a flipped bit, ends replay right
    /// before it; the complete delta in front survives.
    #[test]
    fn torn_page_delta_stops_replay() {
        let dev = device();
        let wal = Wal::new(Arc::clone(&dev));
        let page = vec![7u8; 64];
        wal.append(delta(1, &page, &[(0, 8)])).unwrap();
        wal.force().unwrap();
        let first = dev.wal_contents().unwrap().len();
        wal.append(delta(2, &page, &[(8, 16), (30, 2)])).unwrap();
        wal.force().unwrap();
        let log = dev.wal_contents().unwrap();
        for cut in first..log.len() {
            let recs = Wal::decode(&log[..cut]).unwrap();
            assert_eq!(recs.len(), 1, "cut at byte {cut}");
        }
        for pos in first..log.len() {
            let mut rotted = log.clone();
            rotted[pos] ^= 0x40;
            assert_eq!(Wal::decode(&rotted).unwrap().len(), 1, "bit flip at byte {pos}");
        }
        assert_eq!(Wal::decode(&log).unwrap().len(), 2);
    }

    #[test]
    fn reset_lsn_marks_the_truncation() {
        let dev = device();
        let wal = Wal::starting_at(Arc::clone(&dev), 5);
        assert_eq!(wal.reset_lsn(), 5, "a new log starts at its first LSN");
        wal.append(WalPayload::TxnBegin { txn: 1 }).unwrap();
        wal.force().unwrap();
        wal.append(WalPayload::TxnBegin { txn: 2 }).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.reset_lsn(), 7, "the first LSN after the reset");
        assert!(wal.unforced().unwrap().is_empty(), "reset re-appended the pending record");
    }

    #[test]
    fn unforced_tail_is_lost() {
        let dev = device();
        let wal = Wal::new(Arc::clone(&dev));
        wal.append(WalPayload::TxnBegin { txn: 1 }).unwrap();
        wal.force().unwrap();
        wal.append(WalPayload::TxnCommit { txn: 1 }).unwrap(); // never forced
        drop(wal);
        let recs = Wal::replay(&dev).unwrap();
        assert_eq!(recs.len(), 1, "only the forced prefix survives");
    }

    #[test]
    fn torn_tail_stops_replay() {
        let dev = device();
        let wal = Wal::new(Arc::clone(&dev));
        wal.append(WalPayload::TxnBegin { txn: 1 }).unwrap();
        wal.force().unwrap();
        // Simulate a torn append: half a record at the end.
        dev.wal_append(&[13, 0, 0, 0, 99, 99]).unwrap();
        let recs = Wal::replay(&dev).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn reset_truncates_device_log() {
        let dev = device();
        let wal = Wal::new(Arc::clone(&dev));
        wal.append(WalPayload::Checkpoint).unwrap();
        wal.force().unwrap();
        wal.reset().unwrap();
        assert!(Wal::replay(&dev).unwrap().is_empty());
        // LSNs keep increasing after a reset.
        let lsn = wal.append(WalPayload::TxnBegin { txn: 2 }).unwrap();
        assert_eq!(lsn, 2);
    }

    #[test]
    fn group_append_is_one_device_transfer() {
        let dev = Arc::new(SimDisk::new());
        let wal = Wal::new(Arc::clone(&dev) as Arc<dyn BlockDevice>);
        for i in 0..10 {
            wal.append(WalPayload::TxnBegin { txn: i }).unwrap();
        }
        wal.force().unwrap();
        let s = dev.stats().snapshot();
        assert_eq!(s.wal_forces, 1, "ten records, one sequential append");
        assert!(s.wal_bytes > 0);
    }

    /// The satellite-1 regression: with the old code, `force` held the
    /// buffer mutex across `device.wal_append`, so an appender on a
    /// second thread blocked for the whole device write. Stall the
    /// device mid-force and prove an append on another thread completes
    /// while the force is still in flight.
    #[test]
    fn append_completes_while_force_is_stalled_on_device() {
        let fault = FaultDisk::new(Arc::new(SimDisk::new()), FaultSchedule::manual(11));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&fault) as Arc<dyn BlockDevice>;
        let wal = Wal::new(dev);
        wal.append(WalPayload::TxnBegin { txn: 1 }).unwrap();

        fault.hold_wal_appends();
        let forcer = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.force().unwrap())
        };
        // Wait until the force is provably inside the device call.
        while fault.stalled_wal_appends() == 0 {
            std::thread::yield_now();
        }
        // The old code deadlocked here: append needed the mutex the
        // stalled force was holding.
        let lsn = wal.append(WalPayload::TxnBegin { txn: 2 }).unwrap();
        assert_eq!(lsn, 2, "append proceeded during the in-flight force");
        fault.release_wal_appends();
        assert_eq!(forcer.join().unwrap(), 1, "force covered only the swapped batch");
        assert_eq!(wal.buffered_lsn(), 2);
        wal.force().unwrap();
        assert_eq!(wal.flushed_lsn(), 2);
    }

    /// Satellite 2: a poisoned log refuses appends immediately instead
    /// of buffering records that can never become durable.
    #[test]
    fn poisoned_log_fails_append_fast() {
        let fault = FaultDisk::new(Arc::new(SimDisk::new()), FaultSchedule::manual(12));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&fault) as Arc<dyn BlockDevice>;
        let wal = Wal::new(dev);
        wal.append(WalPayload::TxnBegin { txn: 1 }).unwrap();
        fault.fail_wal_appends(1);
        assert!(wal.force().is_err(), "injected device error fails the force");
        assert!(
            wal.append(WalPayload::TxnCommit { txn: 1 }).is_err(),
            "append must fail fast on a poisoned log"
        );
        // The batch the failed force swapped out was restored: reset
        // re-appends it onto the truncated log and clears the poison.
        wal.reset().unwrap();
        wal.append(WalPayload::TxnCommit { txn: 1 }).unwrap();
        wal.force().unwrap();
        let by_kind = Wal::replay(&(Arc::clone(&fault) as Arc<dyn BlockDevice>)).unwrap();
        assert_eq!(by_kind.len(), 2, "begin survived via reset re-append, then commit");
    }

    /// A failed force splices its batch back *in front of* records
    /// appended while the write was in flight, so the reset re-append
    /// keeps LSN order on the device.
    #[test]
    fn failed_force_restores_batch_in_lsn_order() {
        let fault = FaultDisk::new(Arc::new(SimDisk::new()), FaultSchedule::manual(13));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&fault) as Arc<dyn BlockDevice>;
        let wal = Wal::new(dev);
        wal.append(WalPayload::TxnBegin { txn: 1 }).unwrap();

        fault.hold_wal_appends();
        fault.fail_wal_appends(1);
        let forcer = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.force())
        };
        while fault.stalled_wal_appends() == 0 {
            std::thread::yield_now();
        }
        // Appended mid-force: must end up *after* txn 1 in the restored
        // pending buffer even though the force fails.
        wal.append(WalPayload::TxnBegin { txn: 2 }).unwrap();
        fault.release_wal_appends();
        assert!(forcer.join().unwrap().is_err());

        wal.reset().unwrap();
        let recs = Wal::replay(&(Arc::clone(&fault) as Arc<dyn BlockDevice>)).unwrap();
        assert_eq!(
            recs,
            vec![WalRecord::TxnBegin { lsn: 1, txn: 1 }, WalRecord::TxnBegin { lsn: 2, txn: 2 }],
            "reset re-appended the failed batch plus later records in LSN order"
        );
    }

    /// The tentpole in miniature: many threads commit concurrently;
    /// stalling the first force makes the rest pile into shared batches,
    /// so the device sees far fewer forces than commits — and the group
    /// counters account for every commit record made durable.
    #[test]
    fn concurrent_commits_share_forces() {
        const COMMITTERS: u64 = 8;
        let fault = FaultDisk::new(Arc::new(SimDisk::new()), FaultSchedule::manual(14));
        let dev: Arc<dyn BlockDevice> = Arc::clone(&fault) as Arc<dyn BlockDevice>;
        let wal = Wal::new(dev);

        fault.hold_wal_appends();
        let handles: Vec<_> = (0..COMMITTERS)
            .map(|t| {
                let wal = Arc::clone(&wal);
                std::thread::spawn(move || {
                    wal.append(WalPayload::TxnBegin { txn: t }).unwrap();
                    wal.commit(t).unwrap()
                })
            })
            .collect();
        // First leader is stalled inside the device append; give the
        // other committers time to batch up behind it.
        while fault.stalled_wal_appends() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        fault.release_wal_appends();
        for h in handles {
            h.join().unwrap();
        }

        let s = fault.stats().snapshot();
        assert_eq!(s.group_commit_commits, COMMITTERS, "every commit record accounted durable");
        assert!(
            s.group_commit_batches < COMMITTERS,
            "commits shared batches: {} batches for {COMMITTERS} commits",
            s.group_commit_batches
        );
        assert!(
            s.wal_forces < COMMITTERS,
            "one fsync covered many committers: {} forces for {COMMITTERS} commits",
            s.wal_forces
        );
        assert!(wal.flushed_lsn() >= COMMITTERS * 2, "all brackets durable");
    }

    /// `reset`'s re-append of checkpoint-racing pending records flows
    /// through the shared accounting funnel — it records a `WalForce`
    /// leaf and lands in the device's force counters instead of
    /// bypassing both.
    #[test]
    fn reset_reappend_is_accounted() {
        let dev = Arc::new(SimDisk::new());
        let wal = Wal::new(Arc::clone(&dev) as Arc<dyn BlockDevice>);
        wal.append(WalPayload::TxnBegin { txn: 1 }).unwrap();
        wal.append(WalPayload::TxnCommit { txn: 1 }).unwrap(); // never forced

        let recording = Probe::start();
        let before = dev.stats().snapshot();
        wal.reset().unwrap();
        let d = dev.stats().snapshot().since(&before);
        let root = recording.finish(Duration::ZERO);

        let (forces, _, bytes) = root.totals(SpanKind::WalForce);
        assert_eq!(forces, 1, "reset's re-append records a WalForce leaf");
        assert_eq!(bytes, d.wal_bytes, "the leaf carries the re-appended batch");
        assert_eq!(d.wal_forces, 1, "device force counter sees the re-append");
        assert!(d.wal_bytes > 0);
        assert_eq!(d.group_commit_commits, 1, "the re-appended commit record is accounted");
        assert_eq!(wal.flushed_lsn(), 2, "re-appended records are durable");
    }
}
