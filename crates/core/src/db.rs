//! The PRIMA facade: "the conceptually simplest system structure […]
//! using PRIMA without additional components as a 'complete' DBMS. The
//! services at the MAD interface are directly made available to its
//! users." (Section 4.)
//!
//! # The session-centric surface
//!
//! Applications talk to the kernel through three objects (module
//! [`crate::session`]):
//!
//! ```text
//!   Prima ──session()──▶ Session ──prepare()──▶ Prepared
//!     │                    │  │                   │ bind(&[Value])
//!     │                    │  └─ execute(DML)     │ execute()/query()
//!     │                    │     commit/rollback  │ cursor()
//!     │                    └─ query(mql, &QueryOptions)
//!     │                       query_cursor(…) ──▶ MoleculeCursor (streaming)
//!     └─ direct atom interface (insert/read/modify/delete — each call
//!        an internal auto-commit Session, so it is undo-logged and
//!        commit-forced like statement DML)
//! ```
//!
//! * [`Session`] owns the transaction context: manipulation statements
//!   run under one [`Transaction`] with explicit [`Session::commit`] /
//!   [`Session::rollback`] (dropping the session rolls back).
//! * [`crate::session::Prepared`] parses and plans once; `?` / `:name` placeholders are
//!   bound per execution with type-checked values — the classic
//!   parse-once / execute-many server shape.
//! * [`MoleculeCursor`] streams result molecules piecewise instead of
//!   materialising the whole set, assembling each chunk lazily through
//!   the level-batched read path.
//! * [`QueryOptions`] selects semantic parallelism (`threads ≥ 1`; `0`
//!   is rejected, not clamped) and tracing for any of these entry points.
//!
//! [`Prima::session`] is the single query/manipulation path. Auto-commit
//! one-shot convenience for tests and examples lives in
//! `prima_workloads::exec`.

use crate::error::{PrimaError, PrimaResult};
use crate::ldl_exec;
use crate::obs::{MetricsSnapshot, Obs, StatementProfile, DEFAULT_SLOW_LOG_CAPACITY};
use crate::recovery::{self, KernelMeta};
use crate::session::{ApiStats, MoleculeCursor, QueryOptions, Session};
use crate::txn::{LockConfig, Transaction, TxnManager};
use prima_access::{AccessSystem, Atom, UpdatePolicy};
use prima_mad::ddl;
use prima_mad::value::{AtomId, Value};
use prima_mad::Schema;
use prima_storage::{BlockDevice, CostModel, FileDisk, SimDisk, StorageSystem, Wal, WalRecord};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Configuration for a PRIMA instance.
pub struct PrimaBuilder {
    buffer_bytes: usize,
    cost_model: CostModel,
    device: Option<Arc<dyn BlockDevice>>,
    durable: bool,
    lock_config: LockConfig,
    slow_statement_threshold: Option<Duration>,
    slow_log_capacity: usize,
}

impl Default for PrimaBuilder {
    fn default() -> Self {
        PrimaBuilder {
            buffer_bytes: 8 << 20,
            cost_model: CostModel::default(),
            device: None,
            durable: false,
            lock_config: LockConfig::default(),
            slow_statement_threshold: None,
            slow_log_capacity: DEFAULT_SLOW_LOG_CAPACITY,
        }
    }
}

impl PrimaBuilder {
    /// Database buffer size in bytes (default 8 MiB).
    pub fn buffer_bytes(mut self, bytes: usize) -> Self {
        self.buffer_bytes = bytes;
        self
    }

    /// Cost model of the simulated device.
    pub fn cost_model(mut self, m: CostModel) -> Self {
        self.cost_model = m;
        self
    }

    /// Lock-wait policy (default: bounded wait with deadlock detection;
    /// [`LockConfig::no_wait`] restores pure fail-fast conflicts, which
    /// single-threaded interleaving tests rely on).
    pub fn lock_config(mut self, config: LockConfig) -> Self {
        self.lock_config = config;
        self
    }

    /// Statements (and commits) taking at least this long are profiled
    /// and retained in the slow-statement ring
    /// ([`Prima::slow_statements`]). Setting a threshold force-enables
    /// span profiling on every session — a profile cannot be
    /// reconstructed after the fact — so `Duration::ZERO` captures
    /// every statement. Default: off.
    pub fn slow_statement_threshold(mut self, threshold: Duration) -> Self {
        self.slow_statement_threshold = Some(threshold);
        self
    }

    /// Capacity of the slow-statement ring (default
    /// [`DEFAULT_SLOW_LOG_CAPACITY`]; oldest entries are evicted).
    pub fn slow_log_capacity(mut self, capacity: usize) -> Self {
        self.slow_log_capacity = capacity;
        self
    }

    /// Backs the kernel with a **fresh** file-based database at `dir`
    /// (any previous database there is cleared) and turns durability on.
    /// Re-open a surviving database with [`Prima::open`] instead.
    pub fn path(self, dir: impl AsRef<Path>) -> PrimaResult<Self> {
        let disk = FileDisk::create(dir)?;
        Ok(self.device(Arc::new(disk)).durable())
    }

    /// Supplies a custom block device (e.g. a shared [`SimDisk`] in crash
    /// tests). Volatile unless [`PrimaBuilder::durable`] is also set.
    pub fn device(mut self, device: Arc<dyn BlockDevice>) -> Self {
        self.device = Some(device);
        self
    }

    /// Enables the durability subsystem: a write-ahead log on the
    /// device's log area, WAL-before-data in the buffer, force-on-commit
    /// and an initial checkpoint at build time. Requires a DDL-built
    /// schema (the checkpoint snapshot stores the DDL source).
    pub fn durable(mut self) -> Self {
        self.durable = true;
        self
    }

    /// Builds a kernel over an already-constructed schema. Durable
    /// kernels must be built from DDL ([`PrimaBuilder::build_with_ddl`]):
    /// the checkpoint snapshot persists the schema as its DDL source.
    pub fn build_with_schema(self, schema: Schema) -> PrimaResult<Prima> {
        if self.durable {
            return Err(PrimaError::Recovery(
                "a durable kernel needs the schema's DDL source; use build_with_ddl".into(),
            ));
        }
        self.assemble(schema, None)
    }

    /// Builds a kernel from a MAD-DDL script.
    pub fn build_with_ddl(self, ddl_src: &str) -> PrimaResult<Prima> {
        let mut schema = Schema::new();
        ddl::load_script(&mut schema, ddl_src).map_err(|e| match e {
            ddl::DdlError::Parse(p) => PrimaError::Parse(p),
            ddl::DdlError::Schema(s) => PrimaError::Schema(s),
        })?;
        let durable = self.durable;
        let db = self.assemble(schema, Some(ddl_src.to_string()))?;
        if durable {
            // Initial checkpoint: the catalog snapshot (with the freshly
            // created type segments) becomes the recovery base, so a
            // crash at *any* later point finds a valid snapshot.
            db.checkpoint()?;
        }
        Ok(db)
    }

    fn assemble(self, schema: Schema, ddl_src: Option<String>) -> PrimaResult<Prima> {
        let device: Arc<dyn BlockDevice> = match self.device {
            Some(d) => d,
            None => Arc::new(SimDisk::with_cost(self.cost_model)),
        };
        let storage = if self.durable {
            let wal = Wal::new(Arc::clone(&device));
            Arc::new(StorageSystem::with_wal(device, self.buffer_bytes, wal))
        } else {
            Arc::new(StorageSystem::new(device, self.buffer_bytes))
        };
        let access = Arc::new(AccessSystem::new(Arc::clone(&storage), schema)?);
        let txn = TxnManager::with_config(Arc::clone(&access), self.lock_config);
        let stats = Arc::new(ApiStats::default());
        let obs = Obs::new(
            Arc::clone(&storage),
            Arc::clone(&access),
            Arc::clone(&txn),
            Arc::clone(&stats),
            self.slow_statement_threshold,
            self.slow_log_capacity,
        );
        Ok(Prima {
            storage,
            access,
            txn,
            stats,
            obs,
            ddl: ddl_src,
            buffer_bytes: self.buffer_bytes,
        })
    }
}

/// An open PRIMA kernel instance.
pub struct Prima {
    storage: Arc<StorageSystem>,
    access: Arc<AccessSystem>,
    txn: Arc<TxnManager>,
    stats: Arc<ApiStats>,
    obs: Arc<Obs>,
    /// DDL source of the schema, kept for the checkpoint snapshot
    /// (`None` on schema-built, necessarily volatile kernels).
    ddl: Option<String>,
    buffer_bytes: usize,
}

impl Prima {
    /// Starts configuring a new instance.
    pub fn builder() -> PrimaBuilder {
        PrimaBuilder::default()
    }

    // -----------------------------------------------------------------
    // Durability: open (restart recovery) and checkpoint
    // -----------------------------------------------------------------

    /// Opens an existing file-backed database: runs restart recovery over
    /// the write-ahead-log tail (redo committed work, roll back losers)
    /// and returns a kernel in exactly the last committed state. See
    /// [`crate::recovery`] for the pass structure.
    pub fn open(dir: impl AsRef<Path>) -> PrimaResult<Prima> {
        Self::open_device(Arc::new(FileDisk::open(dir)?))
    }

    /// [`Prima::open`] over an already-constructed device — crash tests
    /// reopen from a shared [`SimDisk`] `Arc`, where only flushed pages
    /// and the forced log prefix survived the "crash" (instance drop).
    pub fn open_device(device: Arc<dyn BlockDevice>) -> PrimaResult<Prima> {
        let meta_bytes = device.read_meta()?.ok_or_else(|| {
            PrimaError::Recovery("device carries no checkpoint metadata".into())
        })?;
        let meta = KernelMeta::decode(&meta_bytes)?;

        // Pass 1: analysis + redo. The resumed log allocates LSNs past
        // everything replayed, so recovery's own page images stay ordered.
        let records = Wal::replay(&device)?;
        let analysis = recovery::analyze(&records);
        let wal = Wal::starting_at(Arc::clone(&device), analysis.max_lsn + 1);
        let storage = Arc::new(StorageSystem::with_wal(
            Arc::clone(&device),
            meta.buffer_bytes as usize,
            wal,
        ));
        storage.restore_segments(meta.next_segment, &meta.segments);
        for rec in &records {
            if let WalRecord::PageImage { page, bytes, .. } = rec {
                storage.apply_page_image(*page, bytes)?;
            }
        }
        device.sync()?;

        // Pass 2: rebuild the access layer by scanning the base segments.
        let mut schema = Schema::new();
        ddl::load_script(&mut schema, &meta.ddl).map_err(|e| {
            PrimaError::Recovery(format!("checkpointed DDL no longer loads: {e:?}"))
        })?;
        let access = Arc::new(AccessSystem::reopen(
            Arc::clone(&storage),
            schema,
            &meta.type_segments,
            &meta.type_next_seq,
        )?);
        // Decode every undo record once: all of them feed the surrogate
        // counters (ids are never reused, and the WAL tail is the only
        // witness of inserted-then-deleted atoms); the losers' ops are
        // kept for rollback.
        let mut loser_ops = Vec::new();
        for rec in &records {
            if let WalRecord::Undo { txn, payload, .. } = rec {
                let op = recovery::decode_undo(payload)?;
                let id = op.atom_id();
                access.note_allocated_seq(id.atom_type, id.seq)?;
                if analysis.losers.contains(txn) {
                    loser_ops.push(op);
                }
            }
        }

        // Pass 3: roll back losers, newest operation first.
        for op in loser_ops.iter().rev() {
            op.apply_recovery(&access)?;
        }

        // Pass 4: checkpoint the recovered state (truncates the log; a
        // crash in the middle of recovery just recovers again).
        let txn = TxnManager::new(Arc::clone(&access));
        let stats = Arc::new(ApiStats::default());
        let obs = Obs::new(
            Arc::clone(&storage),
            Arc::clone(&access),
            Arc::clone(&txn),
            Arc::clone(&stats),
            None,
            DEFAULT_SLOW_LOG_CAPACITY,
        );
        let db = Prima {
            storage,
            access,
            txn,
            stats,
            obs,
            ddl: Some(meta.ddl),
            buffer_bytes: meta.buffer_bytes as usize,
        };
        db.checkpoint()?;
        Ok(db)
    }

    /// Whether this kernel runs the durability subsystem.
    pub fn is_durable(&self) -> bool {
        self.storage.wal().is_some()
    }

    /// Checkpoint: flushes every dirty page (WAL forced first), snapshots
    /// the catalog (segment directory, atom-type base segments, surrogate
    /// counters, schema DDL) into the device's metadata blob and
    /// truncates the log. Restart work is bounded by the log tail written
    /// since the last checkpoint. Runs under the transaction manager's
    /// quiesce gate — it fails if transactions are active and blocks new
    /// begins for its duration, because flushed pages must not carry
    /// changes whose undo records the truncation would discard. (Every
    /// write path, including the direct atom interface, runs under the
    /// transaction manager, so the gate covers all of them.)
    pub fn checkpoint(&self) -> PrimaResult<()> {
        if self.storage.wal().is_none() {
            return Err(PrimaError::Recovery(
                "checkpoint on a volatile kernel (build with .path()/.durable())".into(),
            ));
        }
        let Some(ddl) = &self.ddl else {
            return Err(PrimaError::Recovery(
                "durable checkpoint requires a DDL-built schema".into(),
            ));
        };
        self.txn.quiesced(|| {
            let (next_segment, segments) = self.storage.segments_snapshot();
            let meta = KernelMeta {
                buffer_bytes: self.buffer_bytes as u64,
                ddl: ddl.clone(),
                next_segment,
                segments,
                type_segments: self.access.type_segments(),
                type_next_seq: self.access.type_next_seqs(),
            };
            Ok(self.storage.checkpoint(&meta.encode())?)
        })
    }

    /// The underlying access system (atom-oriented interface).
    pub fn access(&self) -> &Arc<AccessSystem> {
        &self.access
    }

    /// The underlying storage system (for I/O statistics).
    pub fn storage(&self) -> &Arc<StorageSystem> {
        &self.storage
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.access.schema()
    }

    // -----------------------------------------------------------------
    // Observability
    // -----------------------------------------------------------------

    /// The way to read the kernel's counters: one snapshot of every
    /// counter family (buffer, io, access, lock, version, api) plus the
    /// per-statement-kind latency histograms. Counters only grow;
    /// measure an operation as `metrics().delta(&before)` (see
    /// [`MetricsSnapshot::delta`]). The version family's live-shape
    /// gauges describe the current incarnation: the version store is
    /// volatile, rebuilt empty at [`Prima::open`].
    /// [`MetricsSnapshot::render_text`] gives the exposition format and
    /// [`MetricsSnapshot::check_coherence`] the cross-family invariants.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.metrics_snapshot()
    }

    /// Profiles of statements that exceeded the builder's
    /// [`PrimaBuilder::slow_statement_threshold`], oldest first (a
    /// bounded ring: the slowest-log capacity evicts oldest entries).
    pub fn slow_statements(&self) -> Vec<StatementProfile> {
        self.obs.slow_statements()
    }

    // -----------------------------------------------------------------
    // Sessions (the primary interface)
    // -----------------------------------------------------------------

    /// Opens a session: the transaction-owning conversation through
    /// which queries, prepared statements and manipulation run.
    pub fn session(&self) -> Session {
        Session::new(
            Arc::clone(&self.access),
            Arc::clone(&self.txn),
            Arc::clone(&self.stats),
            Arc::clone(&self.obs),
        )
    }

    /// Opens a streaming [`MoleculeCursor`] over a `SELECT` without an
    /// explicit session: the cursor owns a private session whose
    /// transaction (and read locks) live exactly as long as the cursor.
    pub fn query_cursor(&self, mql: &str) -> PrimaResult<MoleculeCursor<'static>> {
        self.session().into_cursor(mql, &QueryOptions::default())
    }

    // -----------------------------------------------------------------
    // LDL
    // -----------------------------------------------------------------

    /// Executes an LDL script (tuning structures; transparent to MQL).
    pub fn ldl(&self, src: &str) -> PrimaResult<usize> {
        ldl_exec::execute_ldl(&self.access, src)
    }

    /// Applies all pending deferred maintenance.
    pub fn reconcile(&self) -> PrimaResult<usize> {
        Ok(self.access.reconcile()?)
    }

    /// Sets the redundancy maintenance policy.
    pub fn set_update_policy(&self, p: UpdatePolicy) {
        self.access.set_update_policy(p);
    }

    // -----------------------------------------------------------------
    // Direct atom interface (application-layer style access)
    // -----------------------------------------------------------------
    //
    // Each call runs in a short-lived auto-commit session, so the write
    // is undo-logged, lock-protected and — on a durable kernel — forced
    // to the log at its internal commit, exactly like statement-level
    // DML. A call that dies before that commit force is rolled back by
    // restart recovery. Multi-call units of work belong in an explicit
    // `Prima::session` (these convenience wrappers commit per call).

    /// Inserts an atom by type name with named attribute values, returning
    /// its logical address. (The programmatic path applications use to
    /// load data; reference values connect components directly.)
    pub fn insert(&self, type_name: &str, attrs: &[(&str, Value)]) -> PrimaResult<AtomId> {
        let s = self.session();
        let id = s.insert_atom_named(type_name, attrs)?;
        s.commit()?;
        Ok(id)
    }

    /// Reads one atom (under a momentary `Shared` lock: an atom a
    /// concurrent transaction has uncommitted changes on conflicts).
    pub fn read(&self, id: AtomId) -> PrimaResult<Atom> {
        let s = self.session();
        let atom = s.read_atom(id)?;
        s.commit()?;
        Ok(atom)
    }

    /// Modifies named attributes of an atom.
    pub fn modify(&self, id: AtomId, attrs: &[(&str, Value)]) -> PrimaResult<()> {
        let s = self.session();
        s.modify_atom_named(id, attrs)?;
        s.commit()
    }

    /// Deletes an atom (disconnecting it everywhere).
    pub fn delete(&self, id: AtomId) -> PrimaResult<()> {
        let s = self.session();
        s.delete_atom(id)?;
        s.commit()
    }

    // -----------------------------------------------------------------
    // Transactions
    // -----------------------------------------------------------------

    /// Begins a top-level transaction (atom-level interface; MQL-level
    /// work units are better served by [`Prima::session`]).
    pub fn begin(&self) -> PrimaResult<Transaction> {
        Ok(self.txn.begin(None)?)
    }

    /// The transaction manager (for advanced nesting scenarios).
    pub fn txn_manager(&self) -> &Arc<TxnManager> {
        &self.txn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasys::DmlResult;

    const DDL: &str = "
        CREATE ATOM_TYPE thing (id: IDENTIFIER, n: INTEGER, s: CHAR_VAR)
        KEYS_ARE (n);
    ";

    fn db() -> Prima {
        Prima::builder().buffer_bytes(1 << 20).build_with_ddl(DDL).unwrap()
    }

    #[test]
    fn build_rejects_bad_ddl() {
        assert!(matches!(
            Prima::builder().build_with_ddl("CREATE NONSENSE"),
            Err(PrimaError::Parse(_))
        ));
        assert!(matches!(
            Prima::builder().build_with_ddl(
                "CREATE ATOM_TYPE a (id: IDENTIFIER, r: REF_TO (missing.x));"
            ),
            Err(PrimaError::Schema(_))
        ));
    }

    #[test]
    fn query_vs_execute_routing() {
        let d = db();
        let s = d.session();
        assert!(matches!(
            s.execute("SELECT ALL FROM thing"),
            Err(PrimaError::BadStatement(_))
        ));
        assert!(matches!(
            s.query("INSERT thing (n: 9, s: 'x')", &QueryOptions::default()),
            Err(PrimaError::BadStatement(_))
        ));
        let r = s.execute("INSERT thing (n: 1, s: 'one')").unwrap();
        assert!(matches!(r, DmlResult::Inserted(_)));
        s.commit().unwrap();
        assert_eq!(
            d.session().query("SELECT ALL FROM thing", &QueryOptions::default()).unwrap().set.len(),
            1
        );
    }

    #[test]
    fn direct_atom_interface_round_trip() {
        let d = db();
        let id = d.insert("thing", &[("n", Value::Int(7)), ("s", Value::Str("x".into()))]).unwrap();
        assert_eq!(d.read(id).unwrap().values[1], Value::Int(7));
        d.modify(id, &[("s", Value::Str("y".into()))]).unwrap();
        assert_eq!(d.read(id).unwrap().values[2], Value::Str("y".into()));
        d.delete(id).unwrap();
        assert!(d.read(id).is_err());
    }

    #[test]
    fn parse_errors_carry_position() {
        let d = db();
        let err = d.session().query("SELECT FROM", &QueryOptions::default()).unwrap_err();
        assert!(matches!(err, PrimaError::Parse(_)));
    }

    #[test]
    fn zero_threads_rejected_at_the_boundary() {
        let d = db();
        let s = d.session();
        assert!(matches!(
            s.query("SELECT ALL FROM thing", &QueryOptions::new().threads(0)),
            Err(PrimaError::BadStatement(_))
        ));
        // 1 = serial is valid.
        assert!(s.query("SELECT ALL FROM thing", &QueryOptions::new().threads(1)).is_ok());
    }

    #[test]
    fn one_shot_rejects_parameter_placeholders() {
        let d = db();
        let s = d.session();
        assert!(matches!(
            s.query("SELECT ALL FROM thing WHERE n = ?", &QueryOptions::default()),
            Err(PrimaError::UnboundParameter { .. })
        ));
        assert!(matches!(
            s.execute("INSERT thing (n: :v)"),
            Err(PrimaError::UnboundParameter { .. })
        ));
    }

    #[test]
    fn ldl_round_trip_and_reconcile() {
        let d = db();
        for i in 0..20 {
            d.insert("thing", &[("n", Value::Int(i)), ("s", Value::Str("v".into()))]).unwrap();
        }
        assert_eq!(d.ldl("CREATE SORT ORDER so ON thing (n); RECONCILE").unwrap(), 2);
        d.set_update_policy(UpdatePolicy::Deferred);
        let t = d.schema().type_id("thing").unwrap();
        let id = d.access().all_ids(t).unwrap()[0];
        d.modify(id, &[("s", Value::Str("w".into()))]).unwrap();
        assert!(!d.access().deferred_queue().is_empty());
        assert_eq!(d.reconcile().unwrap(), 1);
    }
}
