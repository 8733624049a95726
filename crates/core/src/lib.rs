//! # PRIMA — a DBMS kernel prototype implementing the MAD model
//!
//! Reproduction of *Härder, Meyer-Wegener, Mitschang, Sikeler: "PRIMA — a
//! DBMS Prototype Supporting Engineering Applications", VLDB 1987.*
//!
//! PRIMA is a three-layer DBMS kernel (Fig. 3.1 of the paper):
//!
//! ```text
//!   application layer          (examples/ in this repository)
//!   ───────────────────────── MAD interface: molecule sets ───────
//!   data system                crate prima       [`datasys`]
//!   ───────────────────────── atoms ──────────────────────────────
//!   access system              crate prima-access
//!   ───────────────────────── physical records / pages ───────────
//!   storage system             crate prima-storage
//!   ───────────────────────── blocks ─────────────────────────────
//!   (simulated) external devices
//! ```
//!
//! The entry point is [`Prima`]: open an in-memory kernel, load a schema
//! with MAD-DDL, tune it with LDL, and talk MQL through a [`Session`] —
//! one-shot, prepared (parse/plan once, bind + execute many), or
//! streaming through a [`MoleculeCursor`]:
//!
//! ```
//! use prima::{Prima, QueryOptions, Value};
//!
//! let db = Prima::builder().build_with_ddl("
//!     CREATE ATOM_TYPE solid (
//!         solid_id : IDENTIFIER,
//!         solid_no : INTEGER,
//!         sub      : SET_OF (REF_TO (solid.super)),
//!         super    : SET_OF (REF_TO (solid.sub)) )
//!     KEYS_ARE (solid_no);
//! ").unwrap();
//!
//! let session = db.session();
//! session.execute("INSERT solid (solid_no: 4711)").unwrap();
//! session.commit().unwrap();
//!
//! // Prepared: the plan is built once, each execution only binds values.
//! let mut stmt = session.prepare("SELECT ALL FROM solid WHERE solid_no = ?").unwrap();
//! stmt.bind(&[Value::Int(4711)]).unwrap();
//! let result = stmt.query(&QueryOptions::default()).unwrap();
//! assert_eq!(result.set.molecules.len(), 1);
//! ```
//!
//! Beyond the query path, the crate provides the PRIMA processing model.
//! Section 4 asks nested transactions \[Mo81\] for two jobs, and each has
//! one smaller mechanism here:
//!
//! * *fine grained intra-transaction parallelism* — semantic
//!   parallelism decomposes one user operation into concurrently
//!   executable units of work ([`parallel`], selected per query via
//!   [`QueryOptions::threads`]); they are read-only and share the
//!   statement's one read guard, so they need no subtransactions;
//! * *selective in-transaction recovery* — every write statement runs
//!   behind a savepoint of its session's transaction ([`txn`]): a
//!   statement that fails is undone alone, and the transaction stays
//!   open with its earlier statements intact.
//!
//! # Observability
//!
//! The [`obs`] module is the kernel's unified instrumentation layer —
//! one vocabulary across all three Fig. 3.1 layers:
//!
//! * **Statement profiler** — [`Session::set_profiling`] turns on the
//!   thread-local span recorder (`prima_storage::probe`, re-exported as
//!   [`obs`]; it lives in the bottom crate so the buffer, WAL and access
//!   system record into it directly); every statement then yields a
//!   [`StatementProfile`] ([`Session::last_profile`]): a tree of timed
//!   spans (parse → plan → lock acquisition → snapshot pin → per-level
//!   molecule assembly → buffer fixes / page loads / WAL appends &
//!   forces) plus the counter deltas the statement caused.
//!   `StatementProfile::render` prints it EXPLAIN-ANALYZE style. When
//!   profiling is off every probe is a single thread-local flag check —
//!   no clock reads, no allocation.
//! * **Metrics registry** — [`Prima::metrics`] returns a
//!   [`MetricsSnapshot`]: the six counter families (buffer, io, access,
//!   lock, version, api), each declared once with
//!   [`prima_storage::counter_family!`], and log-bucketed latency
//!   histograms per statement kind (select/insert/modify/delete/commit,
//!   p50/p95/p99/max). Counters only grow; measure with two snapshots
//!   and [`MetricsSnapshot::delta`].
//!   [`MetricsSnapshot::render_text`] emits a Prometheus-style text
//!   exposition; [`MetricsSnapshot::check_coherence`] asserts the
//!   cross-family invariants on a quiesced kernel.
//! * **Slow-statement log** — [`PrimaBuilder::slow_statement_threshold`]
//!   retains full profiles of statements over a latency threshold in a
//!   bounded ring ([`Prima::slow_statements`]); threshold zero captures
//!   every statement.
//!
//! # Concurrency invariants
//!
//! Every lock in the kernel carries a **rank** from the canonical
//! hierarchy in `crates/lint/src/ranks.rs`; a thread may acquire a lock
//! only while every lock it already holds ranks **≤** the new one
//! (equal ranks are peer groups whose mutual safety is argued at the
//! declaration site). The legal order is the Fig. 3.1 layer order, top
//! of the kernel first:
//!
//! | rank domain | base | Fig. 3.1 layer        | guards |
//! |-------------|------|-----------------------|--------|
//! | `api`       |  10  | MAD interface         | session txn slot, last-profile slot |
//! | `txn`       |  20  | data system           | checkpoint gate, active-txn table |
//! | `locktable` |  30  | data system           | granular lock table + wait queues |
//! | `mvcc`      |  40  | data system           | version store, then snapshot-registry slots (one per thread stripe) |
//! | `access`    |  50  | access system         | structure directory (reader-striped), registries, tree roots, grid files |
//! | `buffer`    |  60  | storage system        | shard latches, frame locks (one per buffer frame), record-file maps, then address table and key maps (reader-striped) |
//! | `walgroup`  |  70  | storage system (WAL)  | group-commit coordinator |
//! | `walio`     |  80  | storage system (WAL)  | device-append serialisation, append buffer |
//! | `storage`   |  90  | storage system        | segment-id allocator, segment catalog |
//! | `obs`       | 100  | (cross-cutting)       | slow log, parallel work queues |
//! | `device`    | 110  | devices               | block-device internals |
//!
//! A buffer frame's fix count and recovery LSN are atomics, not latched
//! state. A fix increments the count under its shard latch; an unfix
//! decrements it with no latch (an update guard first raises the
//! recovery LSN with `fetch_max`). Only a fix takes a count from 0 to 1,
//! so victim selection, which reads the counts under the latch, never
//! evicts a page a guard holds.
//!
//! The read-mostly catalog structures — the structure directory, the
//! address table and the key maps — are *reader-striped*
//! (`parking_lot::ShardedLock`): a reader locks only its own thread
//! stripe, a writer every stripe in order, which is one acquisition of
//! the lock's rank. Snapshot readers register in their stripe's slot of
//! the version store's registry, not under its mutex, and the counters
//! and latency histograms are striped the same way, so a snapshot read
//! writes no cache line another session's read writes, save the buffer
//! shard latch with its LRU touch and the version store's reference
//! count.
//!
//! Two enforcers keep the table honest:
//!
//! * **Static** — `cargo run -p prima-lint` (a required CI gate) walks
//!   the kernel sources and checks six rules:
//!   1. *lock-rank* — every `Mutex`/`RwLock`/`ShardedLock` declaration carries a
//!      `// lockrank: <domain>.<n>` annotation resolving against the
//!      table, and no function's nested acquisitions violate the order;
//!   2. *lock-across-io* — no guard (below the `device` domain) is live
//!      across a `BlockDevice` call, `fsync`, or WAL force;
//!   3. *error-hygiene* — no `unwrap`/`expect`/`panic!` in non-test
//!      kernel code;
//!   4. *ignored-result* — no `StorageResult`/`TxnResult`-returning
//!      call used as a bare statement;
//!   5. *dead-surface* — every kernel `pub fn` has a caller outside
//!      tests, or an allow saying why it stays;
//!   6. *allow-without-reason* — every
//!      `// lint: allow(<rule>, <reason>)` escape hatch must state a
//!      non-empty reason.
//! * **Dynamic** — the vendored `parking_lot` shim's
//!   `new_ranked` locks maintain a thread-local
//!   acquisition stack under `debug_assertions` (or the root `lockrank`
//!   feature, which the contention and crash-fuzz CI jobs enable in
//!   release) and panic on rank inversion, so every randomized fault
//!   schedule doubles as a lock-order model check. Release builds
//!   without the feature compile the tracking out to nothing; that is
//!   the build `prima-bench` measures.
//!
//! # Durability
//!
//! A kernel built with `PrimaBuilder::durable()` (plus a device) runs
//! write-ahead logging with steal/no-force buffering; `Prima::open` /
//! `Prima::open_device` replay the log after a crash (redo → rescan →
//! loser rollback). Redo is physical and logs what changed, not the
//! page: a page's first change after a checkpoint is logged as a full
//! image, every later one as the changed byte ranges on the page's
//! header LSN, and restart rebuilds each page from its image plus
//! deltas. The image per page per checkpoint is also the torn-page
//! protection — no double-write buffer. `Session::commit` is acknowledged only once a
//! device append covering the transaction's `TxnCommit` record has
//! completed. Under **cross-session group commit**
//! ([`prima_storage::Wal::commit`]) concurrently committing sessions
//! share that device force: one committer leads and forces a batch
//! covering every waiter's records (lingering at most 500 µs for
//! commits already en route), the rest park until the flushed LSN
//! reaches their commit — N committers, one fsync. A lone committer
//! never waits, so grouping costs nothing when there is no concurrency
//! to amortize.

pub mod db;
pub mod datasys;
pub mod error;
pub mod ldl_exec;
pub mod obs;
pub mod parallel;
pub mod recovery;
pub mod session;
pub mod txn;

pub use db::{Prima, PrimaBuilder};
pub use obs::{
    HistogramSnapshot, MetricsSnapshot, Span, SpanKind, StatementKind, StatementProfile,
};
pub use recovery::KernelMeta;
pub use datasys::molecule::{MolAtom, Molecule, MoleculeSet};
pub use error::{PrimaError, PrimaResult};
pub use session::{
    ApiStats, ApiStatsSnapshot, MoleculeCursor, ParamSlot, Prepared, QueryOptions, QueryResult,
    RetryPolicy, Session, StatementOutcome,
};
pub use txn::{LockConfig, LockStatsSnapshot, VersionStatsSnapshot};
pub use prima_access::{AccessSystem, Atom, Structure, UpdatePolicy};
pub use prima_mad::{AtomId, AtomTypeId, Schema, Value};
