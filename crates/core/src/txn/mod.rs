//! Transactions: strict two-phase locking, statement savepoints, and
//! the version chain as the one in-memory undo.
//!
//! PRIMA's Section 4 adopts nested transactions \[Mo81\] for two jobs:
//! "fine grained intra-transaction parallelism and selective
//! in-transaction recovery". Each job has one smaller mechanism here:
//!
//! * **parallelism** — the units of work a query decomposes into are
//!   read-only and share the statement's one [`ReadGuard`]
//!   ([`crate::parallel`]); they need no transaction of their own;
//! * **selective recovery** — a statement that fails is rolled back to
//!   the *savepoint* taken when it started, and only it: the
//!   transaction stays open and its earlier statements stand.
//!
//! There is no separate undo list: the [`mvcc`] version chain is the one
//! in-memory before-image. The access system shows every write's
//! before-image to one pre-write callback ([`PreWrite`]) before it
//! changes the record; the manager turns the written atom's into its WAL
//! undo record and a version entry, and each back-reference partner's
//! into a visibility-only version entry. A savepoint is the length of the
//! transaction's entry list. Rolling back to it replays the entries past
//! it newest-first and stamps them as rolled back; abort is the rollback
//! to savepoint 0, so the two are one mechanism. Locks are held to the
//! end of the transaction (strict 2PL), which is why a savepoint needs
//! nothing from the lock table.
//!
//! A statement rollback appends no log record of its own: its undo
//! writes reach the log as page changes like any other. After a crash a
//! committed transaction is redone with the statement already undone,
//! and an uncommitted one replays all its undo records newest-first,
//! each statement's restoring the state that statement started from.
//!
//! # Waiting, deadlocks, victims
//!
//! A conflicting lock request waits in the target's FIFO queue, bounded
//! by [`LockConfig::wait_timeout`] ([`TxnError::LockTimeout`] on expiry).
//! A wait-for-graph cycle check runs whenever a request enqueues; on a
//! cycle the member holding the fewest locks (ties: the youngest) is
//! aborted with [`TxnError::Deadlock`], and its rollback wakes the
//! survivors. The queue is capped per target — at the cap, requests
//! degrade to an immediate [`TxnError::LockConflict`] — and
//! [`LockConfig::no_wait`] restores pure fail-fast behavior, which
//! single-threaded interleaving tests rely on.
//!
//! Deadlock victims surface to whoever issued the statement: `Session`
//! retries auto-commit statements transparently (rollback, exponential
//! backoff); in an explicit transaction the statement is rolled back and
//! the caller sees the retryable error and decides.
//!
//! # Who locks, who doesn't: the version store
//!
//! PRIMA's engineering workload is checkout → analyze → checkin, and the
//! long analyze phase is pure retrieval that must not stall behind a
//! concurrent checkin. Writers run strict 2PL against each other, but a
//! read-only statement registers a [`Snapshot`] instead of taking locks:
//! every base read resolves through the version chains to the newest
//! version committed before the snapshot — the stable, committed state
//! of the design the analysis started from. Read-only transactions never
//! touch the log either (the WAL bracket opens with the first undo
//! record), so a snapshot read is zero-log *and* zero-lock.
//!
//! [`ReadGuard`] carries that choice through the query path: a session
//! picks the mode once per statement (or once per cursor), and every read
//! — root access, assembly, cluster prefetch, cursor revalidation, DML
//! qualification sub-reads — goes through the guard's operations. In
//! `Locking` mode they acquire `Shared` locks (explicit transactions keep
//! it: their reads must see their own writes and stay serialisable); in
//! `Snapshot` mode the lock operations are no-ops and reads resolve
//! through the store.

mod lock;
pub mod mvcc;
mod undo;

pub use lock::{LockConfig, LockMode, LockStats, LockStatsSnapshot, LockTable, LockTarget};
pub use mvcc::{Snapshot, VersionStats, VersionStatsSnapshot, VersionStore};
pub use undo::UndoOp;

use crate::error::PrimaResult;
use parking_lot::{rank, Mutex, RwLock};
use prima_access::cluster::AtomClusterType;
use prima_access::ssa::Ssa;
use prima_access::{AccessError, AccessSystem, Atom, PreWrite};
use prima_mad::value::{AtomId, AtomTypeId, Value};
use prima_storage::{IdBuildHasher, Wal, WalPayload};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// Transaction-level errors.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnError {
    /// Another transaction holds a conflicting lock and
    /// waiting is disabled (or the target's wait queue is full); the
    /// caller decides between rollback and retry.
    LockConflict { target: LockTarget, holder: TxnId },
    /// The bounded wait for a conflicting lock expired without a grant.
    LockTimeout { target: LockTarget, waited: std::time::Duration },
    /// The request closed a wait-for cycle and `victim` was chosen to
    /// break it. `victim` is always the transaction receiving this error.
    Deadlock { victim: TxnId, target: LockTarget },
    /// Unknown or already finished transaction.
    NotActive(TxnId),
    /// Access-system failure while applying or undoing work.
    Access(String),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::LockConflict { target, holder } => {
                write!(f, "lock conflict on {target} held by {holder}")
            }
            TxnError::LockTimeout { target, waited } => {
                write!(f, "lock wait on {target} timed out after {waited:?}")
            }
            TxnError::Deadlock { victim, target } => {
                write!(f, "deadlock detected on {target}; {victim} chosen as victim")
            }
            TxnError::NotActive(t) => write!(f, "{t} is not active"),
            TxnError::Access(e) => write!(f, "access error in transaction: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<AccessError> for TxnError {
    fn from(e: AccessError) -> Self {
        TxnError::Access(e.to_string())
    }
}

/// The transaction manager: lock table plus active-transaction set.
///
/// On a durable kernel (storage with a [`Wal`]) the manager additionally
/// write-ahead-logs transaction brackets and undo records: commit and
/// abort append the matching record, commit *forces* the log (that is
/// the durability point of `Session::commit`), and every manipulation
/// appends its serialised [`UndoOp`] **before** the operation touches a
/// page — so a forced log prefix never contains a page image without the
/// undo that can reverse it. In memory, a transaction's before-images
/// live only in the version store: a savepoint rollback or an abort
/// replays them from there.
pub struct TxnManager {
    sys: Arc<AccessSystem>,
    locks: LockTable,
    /// Version store for lock-free snapshot reads. Volatile: a restart
    /// builds a fresh (empty) one — the WAL undo path already clears
    /// uncommitted versions from base storage, so recovery owes the
    /// store nothing.
    versions: Arc<VersionStore>,
    /// Active transactions, each with whether its WAL bracket is open,
    /// i.e. its `TxnBegin` has been appended. The bracket opens lazily
    /// with the first undo record: read-only transactions (every
    /// query-path txn) leave no trace in the log and skip the commit
    /// record *and its force* entirely — a reader session's commit costs
    /// no device I/O.
    // lockrank: txn.1 — active-transaction table; taken inside the gate
    // by begin, and held across WAL undo appends (txn < walio).
    active: Mutex<HashMap<TxnId, bool>>,
    next: AtomicU64,
    wal: Option<Arc<Wal>>,
    /// Checkpoint gate: [`TxnManager::begin`] holds it shared,
    /// [`TxnManager::quiesced`] exclusively — so "no active
    /// transactions" can be checked without racing new begins.
    // lockrank: txn.0
    gate: RwLock<()>,
}

impl TxnManager {
    pub fn with_config(sys: Arc<AccessSystem>, config: LockConfig) -> Arc<TxnManager> {
        let wal = sys.storage().wal().cloned();
        Arc::new(TxnManager {
            sys,
            locks: LockTable::with_config(config),
            versions: VersionStore::new(),
            active: Mutex::new_ranked(HashMap::new(), rank::TXN + 1),
            next: AtomicU64::new(1),
            wal,
            gate: RwLock::new_ranked((), rank::TXN),
        })
    }

    /// Starts a transaction.
    pub(crate) fn begin(self: &Arc<Self>) -> Transaction {
        // Blocks while a checkpoint holds the gate exclusively.
        let _gate = self.gate.read();
        let id = TxnId(self.next.fetch_add(1, Ordering::Relaxed));
        // No WAL bracket yet: `TxnBegin` is appended lazily with the
        // first undo record (see [`TxnManager::log_undo`]), so read-only
        // transactions never touch the log.
        self.active.lock().insert(id, false);
        Transaction { id, mgr: Arc::clone(self), finished: false }
    }

    /// Appends `op` to the WAL under `t`. Must run before the operation
    /// dirties any page — see the struct docs. The first undo record of
    /// a transaction opens its WAL bracket (`TxnBegin`) on the way.
    /// Fails when the log refuses the append (poisoned after a device
    /// error): the write must not proceed, since its undo could never
    /// become durable.
    fn log_undo(&self, t: TxnId, op: &UndoOp) -> prima_storage::StorageResult<()> {
        let Some(wal) = &self.wal else { return Ok(()) };
        if let Some(wal_open) = self.active.lock().get_mut(&t) {
            if !*wal_open {
                wal.append(WalPayload::TxnBegin { txn: t.0 })?;
                *wal_open = true;
            }
        }
        wal.append(WalPayload::Undo { txn: t.0, payload: &op.encode() })?;
        Ok(())
    }

    /// Shared atom lock — the read-path granule.
    fn lock_atom_shared(&self, t: TxnId, atom: AtomId) -> Result<(), TxnError> {
        self.locks.acquire(t, LockTarget::Atom(atom), LockMode::Shared)
    }

    /// Exclusive atom lock. Every atom-exclusive acquisition first
    /// announces `IntentExclusive` on the atom's type extension, so a
    /// concurrent scan of that type (which holds the extension `Shared`)
    /// conflicts even when it would have filtered the written atom out —
    /// an uncommitted write is *never* observable, not even as a changed
    /// qualification outcome or a missing scan row.
    fn lock_atom_exclusive(&self, t: TxnId, atom: AtomId) -> Result<(), TxnError> {
        self.locks.acquire(t, LockTarget::Extension(atom.atom_type), LockMode::IntentExclusive)?;
        self.locks.acquire(t, LockTarget::Atom(atom), LockMode::Exclusive)
    }

    /// Shared extension lock — taken by root access (scan, key lookup,
    /// access path, partition) before it inspects the type's atoms.
    fn lock_extension_shared(&self, t: TxnId, ty: AtomTypeId) -> Result<(), TxnError> {
        self.locks.acquire(t, LockTarget::Extension(ty), LockMode::Shared)
    }

    /// The lock family of the metrics registry: the table's counters,
    /// plus the table size and the active-transaction count, each read
    /// under its own latch.
    pub fn lock_stats(&self) -> LockStatsSnapshot {
        let active_txns = self.active.lock().len() as u64;
        self.locks.snapshot(active_txns)
    }

    /// The version store — snapshot registration for readers,
    /// [`VersionStatsSnapshot`] observability for everyone.
    pub fn versions(&self) -> &Arc<VersionStore> {
        &self.versions
    }

    /// A locking [`ReadGuard`] acquiring read locks on behalf of `t` —
    /// handed to the query path (root access, vertical assembly,
    /// cursors, DML qualification) so every atom that can flow into a
    /// result is covered by a `Shared` lock under `t`.
    pub fn read_guard(&self, t: TxnId) -> ReadGuard<'_> {
        ReadGuard { inner: GuardInner::Locking { mgr: self, txn: t } }
    }

    // -----------------------------------------------------------------
    // Transactional atom operations
    // -----------------------------------------------------------------

    fn insert_atom(
        &self,
        t: TxnId,
        atom_type: AtomTypeId,
        values: Vec<Value>,
    ) -> Result<AtomId, TxnError> {
        // The insert changes the type's extension: announce it before any
        // page is touched so concurrent scans conflict instead of missing
        // (or seeing) the uncommitted atom.
        self.locks.acquire(t, LockTarget::Extension(atom_type), LockMode::IntentExclusive)?;
        // Referenced atoms receive implicit back-reference updates: lock
        // them exclusively first.
        for v in &values {
            for &target in v.ref_ids() {
                self.lock_atom_exclusive(t, target)?;
            }
        }
        let id = self.sys.insert_atom(atom_type, values, Some(&|w| self.before_write(t, w)))?;
        self.lock_atom_exclusive(t, id)?;
        Ok(id)
    }

    fn modify_atom(
        &self,
        t: TxnId,
        id: AtomId,
        updates: &[(usize, Value)],
    ) -> Result<(), TxnError> {
        self.lock_atom_exclusive(t, id)?;
        // Lock atoms whose back-references will change: the old targets
        // (the atom is read for them only if a reference attribute is
        // updated) and the new ones.
        let schema = self.sys.schema();
        let is_reference = |i: usize| {
            schema
                .atom_type(id.atom_type)
                .and_then(|at| at.attributes.get(i))
                .is_some_and(|a| a.ty.is_reference())
        };
        let before = if updates.iter().any(|(i, _)| is_reference(*i)) {
            Some(self.sys.read_atom(id, None)?)
        } else {
            None
        };
        for (i, v) in updates {
            let old = before.as_ref().and_then(|b| b.values.get(*i));
            for &target in old.map_or(&[][..], Value::ref_ids) {
                self.lock_atom_exclusive(t, target)?;
            }
            for &target in v.ref_ids() {
                self.lock_atom_exclusive(t, target)?;
            }
        }
        Ok(self.sys.modify_atom(id, updates, Some(&|w| self.before_write(t, w)))?)
    }

    fn delete_atom(&self, t: TxnId, id: AtomId) -> Result<(), TxnError> {
        self.lock_atom_exclusive(t, id)?;
        let before = self.sys.read_atom(id, None)?;
        for v in &before.values {
            for &target in v.ref_ids() {
                self.lock_atom_exclusive(t, target)?;
            }
        }
        Ok(self.sys.delete_atom(id, Some(&|w| self.before_write(t, w)))?)
    }

    /// The pre-write callback of every transactional write: undo before
    /// do. The written atom's before-image is appended to the WAL as its
    /// undo record and chained as a version entry — both before the
    /// first page image, so a snapshot reader that catches the new base
    /// value always finds the image that corrects it. A back-reference
    /// partner's before-image becomes a visibility-only entry, read and
    /// decoded only if the version store chains it — on the
    /// transaction's first touch of the partner — and outside the
    /// store's latch.
    fn before_write(&self, t: TxnId, w: PreWrite<'_>) -> Result<(), AccessError> {
        let (id, image, undo) = match w {
            PreWrite::Partner(id, read) => {
                return self.versions.install_with(t, id, false, || read().map(Some));
            }
            PreWrite::Insert(id) => (id, None, UndoOp::UndoInsert { id }),
            PreWrite::Modify(atom, updates) => {
                let old = updates
                    .iter()
                    .map(|(i, _)| (*i, atom.values.get(*i).cloned().unwrap_or(Value::Null)))
                    .collect();
                (atom.id, Some(atom), UndoOp::UndoModify { id: atom.id, old })
            }
            PreWrite::Delete(atom) => {
                (atom.id, Some(atom), UndoOp::UndoDelete { atom: atom.clone() })
            }
        };
        self.log_undo(t, &undo).map_err(AccessError::Storage)?;
        self.versions.install(t, id, image, true);
        Ok(())
    }

    /// Reverses one write from its before-image and the current base:
    /// a write that inserted the atom (no image) by deleting it, one that
    /// deleted it by restoring the image, any other by modifying back the
    /// attributes that differ. Back-reference partners follow through
    /// the access system's integrity maintenance.
    fn undo_write(&self, id: AtomId, image: Option<Atom>) -> Result<(), AccessError> {
        let Some(image) = image else {
            return if self.sys.exists(id) { self.sys.delete_atom(id, None) } else { Ok(()) };
        };
        if !self.sys.exists(id) {
            return self.sys.restore_atom(image);
        }
        let base = self.sys.read_atom(id, None)?;
        let changed: Vec<(usize, Value)> = image
            .values
            .into_iter()
            .enumerate()
            .filter(|(i, v)| base.values.get(*i) != Some(v))
            .collect();
        if changed.is_empty() {
            return Ok(());
        }
        self.sys.modify_atom(id, &changed, None)
    }

    // -----------------------------------------------------------------
    // Savepoints, commit, abort
    // -----------------------------------------------------------------

    /// Rolls `t` back to savepoint `mark`: its writes since then are
    /// reversed newest-first and their version entries stamped as rolled
    /// back. `t` stays active and keeps its locks. Abort is the rollback
    /// to savepoint 0.
    fn rollback_to(&self, t: TxnId, mark: usize) -> Result<(), TxnError> {
        for (id, image) in self.versions.undo_images(t, mark) {
            self.undo_write(id, image)?;
        }
        // The store stamps rather than deletes the entries: a snapshot
        // reader that caught a dirty base value mid-rollback still
        // resolves to the correct before-image.
        self.versions.rollback(t, mark);
        Ok(())
    }

    fn wal_open(&self, t: TxnId) -> Result<bool, TxnError> {
        self.active.lock().get(&t).copied().ok_or(TxnError::NotActive(t))
    }

    fn commit(&self, t: TxnId) -> Result<(), TxnError> {
        if self.wal_open(t)? {
            // The durability point, reached while the transaction still
            // counts as active (a quiescing checkpoint cannot slip
            // between the force and the bookkeeping below). On a durable
            // kernel `Wal::commit` appends the commit record and returns
            // only once a device force covers it — the cross-session
            // group-commit point: everything buffered since the last
            // force, possibly several sessions' records, goes to the
            // device in one sequential append, and concurrent committers
            // share that one force (leader/follower coordination inside
            // the WAL). Read-only transactions (no bracket, no undo, no
            // page image) have nothing to make durable and skip both the
            // record and the force.
            if let Some(wal) = &self.wal {
                wal.commit(t.0).map_err(|e| TxnError::Access(e.to_string()))?;
            }
        }
        self.active.lock().remove(&t);
        // Stamp the version entries with this commit's position (after
        // the durability point: a failed force leaves the transaction
        // active and its versions uncommitted), then release the locks.
        self.versions.commit_stamp(t);
        self.locks.release_all(t);
        Ok(())
    }

    fn abort(&self, t: TxnId) -> Result<(), TxnError> {
        let wal_open = self.wal_open(t)?;
        // Reverse every write *before* the transaction leaves the active
        // set — a quiescing checkpoint must never observe a
        // half-rolled-back kernel as idle (it would flush the partial
        // state and truncate the undo records that could finish the job
        // after a crash).
        self.rollback_to(t, 0)?;
        // A durable abort records that its undo has been applied.
        // Unforced and best-effort: if the record is lost in a crash — or
        // refused by a poisoned log — restart simply replays the
        // (idempotent) undo again. A transaction that never opened its
        // bracket left nothing to record.
        if wal_open {
            if let Some(wal) = &self.wal {
                let _ = wal.append(WalPayload::TxnAbort { txn: t.0 });
            }
        }
        self.active.lock().remove(&t);
        self.locks.release_all(t);
        Ok(())
    }

    /// Runs `f` with the kernel transactionally quiesced: the checkpoint
    /// gate is held exclusively (new transactions cannot begin) and
    /// the active set is verified empty under it, so `f` observes no
    /// in-flight transactional work. Errors with the active count when
    /// transactions are open.
    pub fn quiesced<R>(&self, f: impl FnOnce() -> PrimaResult<R>) -> PrimaResult<R> {
        let _gate = self.gate.write();
        let active = self.active.lock().len();
        if active > 0 {
            return Err(crate::error::PrimaError::Recovery(format!(
                "checkpoint requires a quiesced kernel; {active} transaction(s) active"
            )));
        }
        f()
    }
}

/// Read-path visibility, in one of two modes. Every read the query path
/// makes (root access, vertical assembly, cluster prefetch, streaming
/// cursors, DML qualification sub-queries) goes through the operations
/// below, so the choice of mode is made once per statement and no read
/// site branches on it.
///
/// * **Locking** (explicit transactions, DML qualification): acquires
///   `Shared` locks on behalf of one transaction for every atom that can
///   flow into a result and for every type extension it scans, so
///   retrieval is bracketed by the same lock table as manipulation —
///   strict two-phase: everything acquired here is released at
///   commit/rollback, never earlier. Conflicts wait (bounded) in the lock
///   table's queue and surface as [`TxnError::LockConflict`] /
///   [`TxnError::LockTimeout`] / [`TxnError::Deadlock`] per its
///   [`LockConfig`]; the transaction's own locks never conflict with it.
///
/// * **Snapshot** (auto-commit reads): the lock operations are no-ops —
///   never reaching the lock table at all — and every base read is
///   resolved through the [`VersionStore`] to the version visible at
///   the guard's [`Snapshot`].
#[derive(Clone, Copy)]
pub struct ReadGuard<'a> {
    inner: GuardInner<'a>,
}

#[derive(Clone, Copy)]
enum GuardInner<'a> {
    Locking { mgr: &'a TxnManager, txn: TxnId },
    Snapshot(&'a Snapshot),
}

impl<'a> ReadGuard<'a> {
    /// A lock-free guard reading at `snap`'s registered position.
    pub fn snapshot(snap: &'a Snapshot) -> ReadGuard<'a> {
        ReadGuard { inner: GuardInner::Snapshot(snap) }
    }

    /// `Shared` lock on one atom (no-op on the snapshot path).
    pub fn lock_atom(&self, id: AtomId) -> PrimaResult<()> {
        match self.inner {
            GuardInner::Locking { mgr, txn } => crate::obs::observed(
                crate::obs::SpanKind::LockAcquire,
                || Ok(mgr.lock_atom_shared(txn, id)?),
            ),
            GuardInner::Snapshot(_) => Ok(()),
        }
    }

    /// `Shared` locks on a whole assembly level, before any of it is read
    /// (no-op on the snapshot path).
    pub(crate) fn lock_atoms(&self, ids: impl IntoIterator<Item = AtomId>) -> PrimaResult<()> {
        if let GuardInner::Locking { .. } = self.inner {
            for id in ids {
                self.lock_atom(id)?;
            }
        }
        Ok(())
    }

    /// `Shared` lock on a type extension, before scanning it (no-op on
    /// the snapshot path).
    pub fn lock_extension(&self, ty: AtomTypeId) -> PrimaResult<()> {
        match self.inner {
            GuardInner::Locking { mgr, txn } => crate::obs::observed(
                crate::obs::SpanKind::LockAcquire,
                || Ok(mgr.lock_extension_shared(txn, ty)?),
            ),
            GuardInner::Snapshot(_) => Ok(()),
        }
    }

    /// One base read outcome (`None` = not in base) as this guard sees
    /// it: unchanged under a lock, resolved to the snapshot's version
    /// otherwise. `None` means the atom is not visible.
    pub(crate) fn resolve(&self, id: AtomId, mut base: Option<Atom>) -> Option<Atom> {
        self.resolve_all(&[id], std::slice::from_mut(&mut base));
        base
    }

    /// [`ReadGuard::resolve`] of a batch, in place: `bases[i]` is the
    /// base outcome for `ids[i]` (counted as one batch of snapshot
    /// reads).
    pub(crate) fn resolve_all(&self, ids: &[AtomId], bases: &mut [Option<Atom>]) {
        if let GuardInner::Snapshot(s) = self.inner {
            s.visible_all(ids, bases);
        }
    }

    /// Reads one atom as this guard sees it: locked, then read from
    /// base — or read from base, then resolved (the version store's race
    /// discipline: base first). `None` when it does not exist or is not
    /// visible.
    pub(crate) fn read_atom(&self, sys: &AccessSystem, id: AtomId) -> PrimaResult<Option<Atom>> {
        self.lock_atom(id)?;
        let base = match sys.read_atom(id, None) {
            Ok(atom) => Some(atom),
            Err(AccessError::NoSuchAtom(_)) => None,
            Err(e) => return Err(e.into()),
        };
        Ok(self.resolve(id, base))
    }

    /// Hands the root candidates a base access path produced for type
    /// `ty` to the query, qualified against the root predicate `ssa`.
    /// A locking guard `Shared`-locks each candidate (the extension lock
    /// already keeps writers of `ty` out, so the base values stand).
    /// A snapshot guard resolves each candidate to its visible version,
    /// re-qualifies that (the base value a scan filtered on may be a
    /// dirty one), and appends the *extras*: chained atoms of `ty` the
    /// base path could not deliver — deleted from base, or filtered out
    /// on an uncommitted value — whose visible version qualifies.
    pub(crate) fn deliver_roots(
        &self,
        ty: AtomTypeId,
        ssa: &Ssa,
        mut roots: Vec<Atom>,
    ) -> PrimaResult<Vec<Atom>> {
        let snap = match self.inner {
            GuardInner::Locking { .. } => {
                self.lock_atoms(roots.iter().map(|a| a.id))?;
                roots.retain(|a| ssa.eval(a));
                return Ok(roots);
            }
            GuardInner::Snapshot(s) => s,
        };
        let mut seen: HashSet<AtomId, IdBuildHasher> =
            HashSet::with_capacity_and_hasher(roots.len(), IdBuildHasher::default());
        // Filtered in place: the collect reuses `roots`' buffer.
        let mut out: Vec<Atom> = roots
            .into_iter()
            // A scan meets an atom twice when a concurrent writer moved
            // its record to a page the scan had not read yet.
            .filter(|atom| seen.insert(atom.id))
            .filter_map(|atom| snap.visible(atom.id, Some(atom)))
            .filter(|vis| ssa.eval(vis))
            .collect();
        out.extend(snap.extras(ty, &seen).into_iter().filter(|a| ssa.eval(a)));
        Ok(out)
    }

    /// Prefetches the atom cluster `ct` materialising `root`'s molecule
    /// in one chained read: the visible members, ready to seed the
    /// molecule's decoded-atom table.
    ///
    /// Locking: the first read discovers the membership but may see a
    /// concurrent writer's in-flight values. Every member is locked,
    /// then re-read: an *active* writer conflicts here, and one that
    /// finished between the two reads has settled the values the second
    /// (buffer-hot) read picks up — assembly never serves a state the
    /// locks don't cover.
    ///
    /// Snapshot: each member resolves to its visible version (invisible
    /// members drop out). The chained read races concurrent writers
    /// without protection, so a failed read is a missed optimisation,
    /// not an error: assembly then fetches and resolves every component
    /// itself. The members resolve as one batch ([`ReadGuard::resolve_all`]).
    ///
    /// `ids` and `members` are the caller's scratch: `members` ends up
    /// with one entry per member, `None` where it is not visible.
    pub(crate) fn prefetch_cluster(
        &self,
        ct: &AtomClusterType,
        root: AtomId,
        ids: &mut Vec<AtomId>,
        members: &mut Vec<Option<Atom>>,
    ) -> PrimaResult<()> {
        let read = match self.inner {
            GuardInner::Locking { .. } => {
                self.lock_atoms(ct.read_all(root)?.iter().map(|a| a.id))?;
                ct.read_all(root)?
            }
            GuardInner::Snapshot(_) => ct.read_all(root).unwrap_or_default(),
        };
        ids.clear();
        ids.extend(read.iter().map(|a| a.id));
        members.clear();
        members.extend(read.into_iter().map(Some));
        self.resolve_all(ids, members);
        Ok(())
    }

    /// Re-checks a root delivered earlier (a cursor's queued root) before
    /// it is assembled. A locking guard — possibly of a later transaction
    /// than the one that delivered it — locks, re-reads and re-qualifies
    /// it against `ssa`: it may have been modified or deleted since, and
    /// a vanished or no-longer-qualifying root yields `None`. A snapshot
    /// never moves, so it passes the root through.
    pub(crate) fn recheck_root(
        &self,
        sys: &AccessSystem,
        ssa: &Ssa,
        root: &Atom,
    ) -> PrimaResult<Option<Atom>> {
        match self.inner {
            GuardInner::Locking { .. } => {
                Ok(self.read_atom(sys, root.id)?.filter(|a| ssa.eval(a)))
            }
            GuardInner::Snapshot(_) => Ok(Some(root.clone())),
        }
    }
}

/// Handle to one transaction, owned by a `Session`. Dropping an
/// unfinished transaction aborts it.
pub(crate) struct Transaction {
    id: TxnId,
    mgr: Arc<TxnManager>,
    finished: bool,
}

impl Transaction {
    /// A [`ReadGuard`] charging read locks to this transaction.
    pub(crate) fn read_guard(&self) -> ReadGuard<'_> {
        self.mgr.read_guard(self.id)
    }

    /// Transactional insert (exclusive locks on the new atom and on all
    /// referenced atoms — their back-references change).
    pub(crate) fn insert_atom(
        &self,
        t: AtomTypeId,
        values: Vec<Value>,
    ) -> Result<AtomId, TxnError> {
        self.mgr.insert_atom(self.id, t, values)
    }

    /// Transactional modify.
    pub(crate) fn modify_atom(
        &self,
        id: AtomId,
        updates: &[(usize, Value)],
    ) -> Result<(), TxnError> {
        self.mgr.modify_atom(self.id, id, updates)
    }

    /// Transactional delete.
    pub(crate) fn delete_atom(&self, id: AtomId) -> Result<(), TxnError> {
        self.mgr.delete_atom(self.id, id)
    }

    /// A savepoint: the transaction's version-entry count now.
    pub(crate) fn savepoint(&self) -> usize {
        self.mgr.versions.mark(self.id)
    }

    /// Undoes every write since `savepoint`; the transaction stays open
    /// and keeps its locks.
    pub(crate) fn rollback_to(&self, savepoint: usize) -> Result<(), TxnError> {
        self.mgr.rollback_to(self.id, savepoint)
    }

    /// Commits: the durability point, then the locks go.
    pub(crate) fn commit(mut self) -> Result<(), TxnError> {
        self.finished = true;
        self.mgr.commit(self.id)
    }

    /// Aborts, rolling back every write of the transaction.
    pub(crate) fn abort(mut self) -> Result<(), TxnError> {
        self.finished = true;
        self.mgr.abort(self.id)
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.mgr.abort(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_mad::{ddl, Schema};
    use prima_storage::{SimDisk, StorageSystem};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const DDL: &str = "
    CREATE ATOM_TYPE node
      ( id : IDENTIFIER, n : INTEGER,
        next : SET_OF (REF_TO (node.prev)),
        prev : SET_OF (REF_TO (node.next)) );
    ";

    fn manager() -> Arc<TxnManager> {
        let mut schema = Schema::new();
        ddl::load_script(&mut schema, DDL).unwrap();
        let storage = Arc::new(StorageSystem::new(Arc::new(SimDisk::new()), 4 << 20));
        TxnManager::with_config(
            Arc::new(AccessSystem::new(storage, schema).unwrap()),
            LockConfig::default(),
        )
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert,
        Delete(usize),
        Link(usize, usize),
        Unlink(usize, usize),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                3 => Just(Op::Insert),
                1 => (any::<prop::sample::Index>()).prop_map(|i| Op::Delete(i.index(64))),
                4 => (any::<prop::sample::Index>(), any::<prop::sample::Index>())
                    .prop_map(|(a, b)| Op::Link(a.index(64), b.index(64))),
                2 => (any::<prop::sample::Index>(), any::<prop::sample::Index>())
                    .prop_map(|(a, b)| Op::Unlink(a.index(64), b.index(64))),
            ],
            1..60,
        )
    }

    /// Applies `op` inside `txn`, tracking the live atoms.
    fn apply(txn: &Transaction, ty: AtomTypeId, live: &mut Vec<AtomId>, n: &mut i64, op: &Op) {
        match *op {
            Op::Insert => {
                *n += 1;
                live.push(txn.insert_atom(ty, vec![Value::Null, Value::Int(*n)]).unwrap());
            }
            Op::Delete(i) => {
                if !live.is_empty() {
                    txn.delete_atom(live.remove(i % live.len())).unwrap();
                }
            }
            Op::Link(a, b) | Op::Unlink(a, b) => {
                if live.len() >= 2 {
                    let (from, to) = (live[a % live.len()], live[b % live.len()]);
                    let atom = txn.read_guard().read_atom(&txn.mgr.sys, from).unwrap().unwrap();
                    let mut next = atom.values[2].ref_ids().to_vec();
                    next.retain(|x| *x != to);
                    if matches!(op, Op::Link(..)) {
                        next.push(to);
                    }
                    txn.modify_atom(from, &[(2, Value::ref_set(next))]).unwrap();
                }
            }
        }
    }

    /// Every atom of type `ty` in base storage.
    fn base_state(sys: &AccessSystem, ty: AtomTypeId) -> BTreeMap<AtomId, Atom> {
        let ids = sys.all_ids(ty).unwrap();
        ids.into_iter().map(|id| (id, sys.read_atom(id, None).unwrap())).collect()
    }

    /// `snap` sees exactly `before`: every atom it held, at its value
    /// then, and none of the atoms created since.
    fn assert_snapshot_sees(
        sys: &AccessSystem,
        ty: AtomTypeId,
        snap: &Snapshot,
        before: &BTreeMap<AtomId, Atom>,
    ) {
        let now = base_state(sys, ty);
        for id in before.keys().chain(now.keys()) {
            let seen = snap.visible(*id, now.get(id).cloned());
            assert_eq!(seen.as_ref(), before.get(id), "snapshot view of {id}");
        }
    }

    /// Global symmetry: a ∈ b.prev ⇔ b ∈ a.next.
    fn assert_symmetric(sys: &AccessSystem, ty: AtomTypeId) {
        let state = base_state(sys, ty);
        for (id, atom) in &state {
            for target in atom.values[2].ref_ids() {
                assert!(state[target].values[3].ref_ids().contains(id), "{id} -> {target}");
            }
            for source in atom.values[3].ref_ids() {
                assert!(state[source].values[2].ref_ids().contains(id), "{id} <- {source}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn abort_restores_and_snapshots_never_see_a_transaction(
            setup in arb_ops(),
            work in arb_ops(),
            modes in prop::collection::vec(0u8..3, 1..8),
        ) {
            let mgr = manager();
            let sys = Arc::clone(&mgr.sys);
            let ty = sys.schema().type_id("node").unwrap();
            let (mut live, mut n) = (Vec::new(), 0i64);
            let t = mgr.begin();
            for op in &setup {
                apply(&t, ty, &mut live, &mut n, op);
            }
            t.commit().unwrap();
            let before = base_state(&sys, ty);
            let snap = mgr.versions().begin_snapshot();

            // Chunks of the work run in the transaction itself (mode 0),
            // or behind a savepoint that is kept (1) or rolled back to (2).
            let top = mgr.begin();
            let chunk = work.len().div_ceil(modes.len());
            for (ops, mode) in work.chunks(chunk).zip(modes.iter().cycle()) {
                let savepoint = top.savepoint();
                let (saved, at_savepoint) = (live.clone(), base_state(&sys, ty));
                for op in ops {
                    apply(&top, ty, &mut live, &mut n, op);
                    assert_snapshot_sees(&sys, ty, &snap, &before);
                }
                if *mode == 2 {
                    top.rollback_to(savepoint).unwrap();
                    live = saved;
                    prop_assert_eq!(base_state(&sys, ty), at_savepoint);
                }
                assert_snapshot_sees(&sys, ty, &snap, &before);
            }
            top.abort().unwrap();
            prop_assert_eq!(base_state(&sys, ty), before);
            assert_symmetric(&sys, ty);
        }
    }
}
