//! Session-centric kernel API: sessions, prepared statements, streaming
//! molecule cursors.
//!
//! PRIMA's MAD interface is set-oriented and transactional: molecule sets
//! are "derived dynamically" per query and delivered to the application
//! piecewise, not as one materialised blob (Sections 3–4). This module is
//! that interface shape for the kernel facade:
//!
//! * [`Session`] — owns a transaction context. DML issued through
//!   [`Session::execute`] is undo-logged and lock-protected; explicit
//!   [`Session::commit`] / [`Session::rollback`] end the unit of work
//!   (dropping the session rolls uncommitted work back).
//! * [`Prepared`] — parse / validate / plan **once**, then
//!   [`Prepared::bind`] + [`Prepared::execute`] many times. MQL carries
//!   `?` (positional) and `:name` (named) placeholders; binding is
//!   type-checked against the attribute each parameter is compared with
//!   or assigned to.
//! * [`MoleculeCursor`] — a pull-based iterator over result molecules.
//!   Root atoms are located up front (they are the cheap part); component
//!   assembly runs lazily per fetched chunk through the level-batched
//!   read path, so a large result never materialises in full.
//!
//! [`QueryOptions`] is the one execution descriptor (degree of semantic
//! parallelism, trace on/off) accepted by both [`Session::query`] and
//! [`Prepared`].
//!
//! ## Isolation
//!
//! Reads take one of two paths, selected once per statement (once per
//! cursor) by whether the session has a transaction open; the choice is
//! a [`crate::txn::ReadGuard`], and the whole read path below the session
//! reads through it:
//!
//! * **Snapshot reads (no transaction open).** A read statement issued
//!   outside any transaction — the auto-commit case, and the hot path of
//!   a read-mostly workload — does not open one. It pins a
//!   [`crate::txn::Snapshot`] of the version store instead and runs with
//!   a snapshot-mode [`crate::txn::ReadGuard`]: **no lock is acquired**,
//!   concurrent writers are never waited on, and every atom read is
//!   resolved to the version committed as of the snapshot. Such a read
//!   cannot conflict, cannot deadlock, and leaves `LockStats` untouched.
//! * **Locking reads (transaction open).** A query — one-shot, prepared
//!   or cursor — issued inside a transaction (opened by
//!   [`Session::begin`] or lazily by an earlier DML) is bracketed by the
//!   same Moss lock table as manipulation (see [`crate::txn`]): it takes
//!   a `Shared` lock on the root type's extension before root access and
//!   a `Shared` lock on every atom that flows into a result, all held to
//!   the top-level commit/rollback (strict two-phase). Writers hold
//!   their atoms `Exclusive` and announce `IntentExclusive` on the
//!   written types' extensions, so a concurrent session's uncommitted
//!   INSERT/MODIFY/DELETE is **never observable**: the reader waits in
//!   the lock table's bounded FIFO queue and, if the wait expires (or
//!   waiting is disabled), sees a retryable error. A session still reads
//!   its own uncommitted writes (which is why transactions keep the
//!   locking path — a snapshot cannot see the session's own dirty
//!   atoms), and nested subtransactions tolerate their ancestors' locks
//!   (Moss's rule).
//!
//! ## Retry
//!
//! Statements that fail with a *retryable* error
//! ([`PrimaError::is_retryable`]: lock conflict, bounded-wait timeout,
//! deadlock victim) are transparently re-run under the session's
//! [`RetryPolicy`] — **only on auto-commit DML paths**, i.e. when the
//! failing statement itself (lazily) opened the session's transaction.
//! There is nothing else in such a transaction, so rolling it back via
//! the undo machinery and re-running the statement after an exponential
//! backoff is invisible to the caller. A statement issued inside an
//! explicit multi-statement transaction propagates the error instead:
//! the kernel cannot know whether earlier statements' results still
//! justify the retry, so that decision belongs to the application.
//! Reads never consult the policy at all: the lock-free snapshot path has
//! no retryable failure mode, and the locking path runs only inside an
//! already-open transaction — so the hot read path pays no retry
//! bookkeeping (not even the jitter PRNG draw). Cursor opens and fetches
//! never retry either (a stream's already-delivered prefix cannot be
//! rolled back transparently).

use crate::datasys::exec::{find_roots, node_infos, process_root, AssemblyCtx};
use crate::datasys::{self, DmlResult, ExecutionTrace, Molecule, MoleculeSet, NodeInfo};
use crate::datasys::plan::ResolvedQuery;
use crate::datasys::validate::resolve_ref;
use crate::error::{PrimaError, PrimaResult};
use crate::obs::{self, MetricsSnapshot, Obs, Probe, StatementKind, StatementProfile};
use crate::txn::{ReadGuard, Snapshot, Transaction, TxnId, TxnManager};
use parking_lot::{rank, Mutex};
use prima_access::cluster::AtomClusterType;
use prima_access::{AccessSystem, Atom};
use prima_mad::mql::{
    parse_statement_params, CompRef, Operand, Predicate, Query, SelectList, SetExpr, Statement,
    ValueExpr,
};
use prima_mad::value::{AtomId, Value};
use prima_mad::{AttrType, Schema};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// Options & outcomes
// ---------------------------------------------------------------------

/// Execution descriptor shared by every query entry point
/// ([`Session::query`], [`Session::query_cursor`], [`Prepared`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOptions {
    /// Worker threads for semantic parallelism (one DU per molecule).
    /// **Must be ≥ 1**: `1` means serial execution, `n > 1` decomposes
    /// molecule construction onto `n` workers. `0` is rejected by
    /// [`QueryOptions::validate`] — it is not "auto" and is never clamped
    /// silently.
    pub threads: usize,
    /// Return the [`ExecutionTrace`] (root access choice, cluster use,
    /// counts) alongside the molecule set.
    pub trace: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions { threads: 1, trace: false }
    }
}

impl QueryOptions {
    /// Serial, untraced.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the degree of semantic parallelism (`n ≥ 1`).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Requests the execution trace.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Boundary validation: `threads == 0` is an error, not a silent
    /// clamp (historically `query_parallel(mql, 0)` degraded to serial
    /// deep inside the worker pool).
    pub fn validate(&self) -> PrimaResult<()> {
        if self.threads == 0 {
            return Err(PrimaError::BadStatement(
                "QueryOptions.threads must be >= 1 (1 = serial; 0 is not 'auto')".into(),
            ));
        }
        Ok(())
    }
}

/// Transparent-retry policy for statements killed by transient contention
/// ([`PrimaError::is_retryable`]): the statement's (auto-commit)
/// transaction is rolled back through the undo machinery, the session
/// sleeps `backoff · 2^attempt` (optionally jittered up to +50% so
/// colliding sessions decorrelate), and the statement re-runs — up to
/// `max_attempts` total executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total executions (first try included); at least 1. `1` disables
    /// retrying.
    pub max_attempts: u32,
    /// Base backoff, doubled per retry.
    pub backoff: std::time::Duration,
    /// Adds a random fraction (0–50%) of the delay on top, so sessions
    /// that deadlocked together do not collide again in lockstep.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 5, backoff: std::time::Duration::from_millis(1), jitter: true }
    }
}

impl RetryPolicy {
    /// No retrying: the first retryable error propagates to the caller.
    pub fn off() -> Self {
        RetryPolicy { max_attempts: 1, backoff: std::time::Duration::ZERO, jitter: false }
    }

    /// Backoff before retry number `attempt` (0-based: the delay after
    /// the first failure is `delay(0)`).
    pub fn delay(&self, attempt: u32) -> std::time::Duration {
        let base = self.backoff.saturating_mul(1u32 << attempt.min(10));
        if !self.jitter || base.is_zero() {
            return base;
        }
        // splitmix64 over a process-global counter: cheap, dependency-free
        // decorrelation; cryptographic quality is irrelevant here.
        static SEED: AtomicU64 = AtomicU64::new(0x243F_6A88_85A3_08D3);
        let mut x = SEED.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        base + base.mul_f64((x % 512) as f64 / 1024.0)
    }
}

/// Result of a query execution: the molecule set plus, when requested via
/// [`QueryOptions::trace`], the execution trace.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub set: MoleculeSet,
    pub trace: Option<ExecutionTrace>,
}

/// Result of executing a prepared statement (SELECT or DML).
#[derive(Debug, Clone)]
pub enum StatementOutcome {
    Molecules(QueryResult),
    Dml(DmlResult),
}

impl StatementOutcome {
    /// The molecule set of a SELECT outcome.
    pub fn molecules(self) -> PrimaResult<QueryResult> {
        match self {
            StatementOutcome::Molecules(r) => Ok(r),
            StatementOutcome::Dml(d) => Err(PrimaError::BadStatement(format!(
                "statement produced a DML result ({d:?}), not molecules"
            ))),
        }
    }

    /// The DML result of a manipulation outcome.
    pub fn dml(self) -> PrimaResult<DmlResult> {
        match self {
            StatementOutcome::Dml(d) => Ok(d),
            StatementOutcome::Molecules(_) => Err(PrimaError::BadStatement(
                "statement produced molecules, not a DML result".into(),
            )),
        }
    }
}

// ---------------------------------------------------------------------
// API statistics (plan-cache accounting)
// ---------------------------------------------------------------------

prima_storage::counter_family! {
    /// Counters proving the prepare-once/execute-many contract: a prepared
    /// statement increments `statements_parsed` and `plans_built` once at
    /// [`Session::prepare`] time and `plan_reuses` on every subsequent
    /// SELECT execution. (Prepared DML skips re-parsing but re-validates
    /// its qualification sub-query per execution, so it counts towards
    /// neither; internal sub-query validations inside DELETE/MODIFY and
    /// `CONNECT`/`DISCONNECT` are likewise not facade-level plans and are
    /// not counted.)
    pub struct ApiStats => ApiStatsSnapshot as "api" {
        /// MQL texts run through the lexer+parser at the facade.
        counter statements_parsed,
        /// Facade-level query validations / plan constructions
        /// ([`datasys::validate()`]).
        counter plans_built,
        /// SELECT executions that reused an already-built plan (prepared
        /// re-runs, including cursors).
        counter plan_reuses,
        /// Statements actually executed through a session — SELECT (one-shot
        /// and prepared, snapshot or locking path) and DML alike. Commits
        /// and cursor fetches are not statements and count elsewhere.
        counter statements_executed,
        /// `MoleculeCursor::fetch` / `fetch_all` / iterator-step calls.
        counter cursor_fetches,
    }
}

impl ApiStats {
    fn parsed(&self) {
        self.statements_parsed.fetch_add(1, Ordering::Relaxed);
    }

    fn planned(&self) {
        self.plans_built.fetch_add(1, Ordering::Relaxed);
    }

    fn reused(&self) {
        self.plan_reuses.fetch_add(1, Ordering::Relaxed);
    }

    fn executed(&self) {
        self.statements_executed.fetch_add(1, Ordering::Relaxed);
    }

    fn cursor_fetched(&self) {
        self.cursor_fetches.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

/// One application conversation with the kernel: a transaction context
/// plus the prepare/execute machinery. Obtained from `Prima::session()`.
///
/// The transaction begins with [`Session::begin`] or lazily with the
/// first DML statement; `SELECT`s do not open one — outside a
/// transaction they run on the lock-free snapshot path (see the module
/// docs). [`Session::commit`] / [`Session::rollback`] end the current
/// transaction; the next DML begins a fresh one, so a session chains
/// units of work like a classic server connection. Dropping the session
/// aborts whatever was not committed.
pub struct Session {
    access: Arc<AccessSystem>,
    txn_mgr: Arc<TxnManager>,
    stats: Arc<ApiStats>,
    obs: Arc<Obs>,
    // lockrank: api.0 — the session's explicit-transaction slot; the
    // outermost lock a statement can hold.
    txn: Mutex<Option<Transaction>>,
    retry: RetryPolicy,
    /// Per-session profiler switch ([`Session::set_profiling`]); a
    /// kernel-wide slow-statement threshold overrides it to on.
    profiling: AtomicBool,
    // lockrank: api.1
    last_profile: Mutex<Option<StatementProfile>>,
}

impl Session {
    pub(crate) fn new(
        access: Arc<AccessSystem>,
        txn_mgr: Arc<TxnManager>,
        stats: Arc<ApiStats>,
        obs: Arc<Obs>,
    ) -> Session {
        Session {
            access,
            txn_mgr,
            stats,
            obs,
            txn: Mutex::new_ranked(None, rank::API),
            retry: RetryPolicy::default(),
            profiling: AtomicBool::new(false),
            last_profile: Mutex::new_ranked(None, rank::API + 1),
        }
    }

    /// Turns the statement profiler on or off for this session. While
    /// on, every statement leaves a [`StatementProfile`] retrievable
    /// via [`Session::last_profile`]. Orthogonal to the kernel-wide
    /// slow-statement threshold, which force-profiles every session.
    pub fn set_profiling(&self, on: bool) {
        self.profiling.store(on, Ordering::Relaxed);
    }

    /// Whether statements on this session are currently profiled.
    pub fn profiling_enabled(&self) -> bool {
        self.profiling.load(Ordering::Relaxed) || self.obs.profile_all()
    }

    /// The profile of the most recent profiled statement (including
    /// commits and cursor fetches), if any.
    pub fn last_profile(&self) -> Option<StatementProfile> {
        self.last_profile.lock().clone()
    }

    /// Brackets one statement: always records the latency histogram
    /// (and, for real statements, `statements_executed`); when
    /// profiling is on, additionally runs it as a profiled scope
    /// ([`Session::start_profile`]).
    fn statement_scope<R>(
        &self,
        kind: StatementKind,
        text: &str,
        f: impl FnOnce() -> PrimaResult<R>,
    ) -> PrimaResult<R> {
        let count_executed = kind != StatementKind::Commit;
        if !self.profiling_enabled() {
            let started = Instant::now();
            let out = f();
            self.obs.record_statement(kind, started.elapsed());
            if count_executed {
                self.stats.executed();
            }
            return out;
        }
        let scope = self.start_profile();
        let out = f();
        let total = self.finish_profile(scope, kind, text.to_string());
        self.obs.record_statement(kind, total);
        if count_executed {
            self.stats.executed();
        }
        out
    }

    /// [`Session::statement_scope`] for cursor fetches, split into a
    /// begin/end pair because a fetch mutably borrows the cursor while
    /// the session is only reachable through it. Bumps
    /// `cursor_fetches` instead of the histograms (a fetch is a slice
    /// of a statement, not a statement), but still produces a profile
    /// when profiling is on.
    fn begin_cursor_scope(&self) -> Option<ProfileScope> {
        self.stats.cursor_fetched();
        self.profiling_enabled().then(|| self.start_profile())
    }

    fn end_cursor_scope(&self, scope: Option<ProfileScope>) {
        if let Some(scope) = scope {
            self.finish_profile(scope, StatementKind::Select, "<cursor fetch>".into());
        }
    }

    /// Opens a profiled scope: the kernel counters at its start, the span
    /// recorder, the start time.
    fn start_profile(&self) -> ProfileScope {
        ProfileScope {
            before: self.obs.metrics_snapshot(),
            probe: Probe::start(),
            started: Instant::now(),
        }
    }

    /// Closes a profiled scope into a [`StatementProfile`] — span tree
    /// plus counter deltas — offered to the slow log and kept as
    /// [`Session::last_profile`]. Returns the scope's wall time.
    fn finish_profile(
        &self,
        scope: ProfileScope,
        kind: StatementKind,
        statement: String,
    ) -> std::time::Duration {
        let total = scope.started.elapsed();
        let root = scope.probe.finish(total);
        let counters = self.obs.metrics_snapshot().delta(&scope.before);
        let profile = StatementProfile { kind, statement, total, root, counters };
        self.obs.note_profile(&profile);
        *self.last_profile.lock() = Some(profile);
        total
    }

    /// The session's transparent-retry policy (default: on, 5 attempts,
    /// 1 ms exponential backoff with jitter).
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Replaces the session's retry policy ([`RetryPolicy::off`] to
    /// disable transparent retry entirely).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The schema (for application-side introspection).
    pub fn schema(&self) -> &Schema {
        self.access.schema()
    }

    /// Id of the transaction currently underway, if any.
    pub fn txn_id(&self) -> Option<TxnId> {
        self.txn.lock().as_ref().map(super::txn::Transaction::id)
    }

    /// Explicitly opens the session's transaction now (it otherwise
    /// begins lazily with the first DML statement). A no-op when one is
    /// already open.
    ///
    /// The choice matters for reads: outside a transaction they run on
    /// the lock-free snapshot path and observe the committed state as of
    /// the statement; inside one they go through the lock table, wait on
    /// concurrent writers, stay stable to commit/rollback under strict
    /// 2PL, and see the session's own uncommitted writes. Call `begin()`
    /// when a read-then-write unit of work needs the latter.
    pub fn begin(&self) -> PrimaResult<()> {
        let mut guard = self.txn.lock();
        if guard.is_none() {
            *guard = Some(self.txn_mgr.begin(None)?);
        }
        Ok(())
    }

    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn with_txn<R>(&self, f: impl FnOnce(&Transaction) -> PrimaResult<R>) -> PrimaResult<R> {
        let mut guard = self.txn.lock();
        if guard.is_none() {
            *guard = Some(self.txn_mgr.begin(None)?);
        }
        // lint: allow(error-hygiene, ensure_txn on the preceding line just filled the slot and the session lock is still held)
        f(guard.as_ref().expect("txn just ensured"))
    }

    /// The one place a read chooses its visibility: with no transaction
    /// open (the auto-commit case) it pins a snapshot of the committed
    /// state; `None` means the read runs on the open transaction's
    /// locking guard, which sees the session's own uncommitted writes.
    /// Statements hold the snapshot for exactly their own duration (so
    /// version GC resumes the moment they complete), cursors for their
    /// lifetime.
    fn pin_read_snapshot(&self) -> Option<Snapshot> {
        if self.txn.lock().is_some() {
            return None;
        }
        Some(obs::span(obs::SpanKind::SnapshotPin, || self.txn_mgr.versions().begin_snapshot()))
    }

    /// Runs `f` with the read guard [`Session::pin_read_snapshot`] chose:
    /// lock-free against `snapshot`, or charging `Shared` locks to the
    /// session's transaction (begun if none is open — a cursor fetching
    /// after a mid-stream commit continues under a fresh one).
    fn with_read_guard<R>(
        &self,
        snapshot: Option<&Snapshot>,
        f: impl FnOnce(ReadGuard<'_>) -> PrimaResult<R>,
    ) -> PrimaResult<R> {
        match snapshot {
            Some(snap) => f(ReadGuard::snapshot(snap)),
            None => self.with_txn(|t| f(t.read_guard())),
        }
    }

    /// [`Session::with_txn`] plus transparent retry under the session's
    /// [`RetryPolicy`]: when the statement itself opened the transaction
    /// (auto-commit — nothing else is in it) and `f` fails with a
    /// retryable contention error, the transaction is rolled back through
    /// the undo machinery and `f` re-runs after the policy's backoff.
    /// Inside an explicit transaction the error propagates untouched; on
    /// the final attempt the failed transaction is left open for the
    /// caller to roll back, exactly as `with_txn` would.
    fn with_txn_retry<R>(&self, f: impl Fn(&Transaction) -> PrimaResult<R>) -> PrimaResult<R> {
        let policy = self.retry;
        let mut attempt = 0u32;
        loop {
            let auto_commit = self.txn.lock().is_none();
            match self.with_txn(&f) {
                Err(e)
                    if auto_commit
                        && e.is_retryable()
                        && attempt + 1 < policy.max_attempts.max(1) =>
                {
                    self.rollback()?;
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Commits the session's current transaction (no-op when none is
    /// open). The next manipulation statement begins a fresh one.
    pub fn commit(&self) -> PrimaResult<()> {
        let Some(t) = self.txn.lock().take() else {
            return Ok(());
        };
        self.statement_scope(StatementKind::Commit, "COMMIT", || Ok(t.commit()?))
    }

    /// Rolls the current transaction back, undoing every manipulation
    /// issued through this session since the last commit.
    pub fn rollback(&self) -> PrimaResult<()> {
        match self.txn.lock().take() {
            Some(t) => Ok(t.abort()?),
            None => Ok(()),
        }
    }

    // -----------------------------------------------------------------
    // One-shot statements
    // -----------------------------------------------------------------

    /// Parses, plans and runs one `SELECT`, materialising the full
    /// molecule set. Outside a transaction it runs lock-free against a
    /// snapshot of the committed state; inside one it runs under the
    /// session's transaction and the retrieved atoms stay
    /// `Shared`-locked until [`Session::commit`] /
    /// [`Session::rollback`]. Parameterised statements must go through
    /// [`Session::prepare`].
    pub fn query(&self, mql: &str, opts: &QueryOptions) -> PrimaResult<QueryResult> {
        opts.validate()?;
        self.statement_scope(StatementKind::Select, mql, || {
            self.run_select(&self.plan_select(mql)?, opts)
        })
    }

    /// Runs a `SELECT` as a streaming [`MoleculeCursor`]: roots are
    /// located now, component assembly happens per
    /// [`MoleculeCursor::fetch`] chunk. Opened outside a transaction the
    /// cursor pins a snapshot for its whole lifetime — fetches are
    /// lock-free and the stream stays stable against concurrent commits.
    /// Opened inside one, roots are `Shared`-locked up front and each
    /// fetch runs under the session's transaction current *at fetch
    /// time* — after a commit/rollback the next fetch reacquires its
    /// locks under the fresh transaction.
    pub fn query_cursor(
        &self,
        mql: &str,
        opts: &QueryOptions,
    ) -> PrimaResult<MoleculeCursor<'_>> {
        opts.validate()?;
        let resolved = self.plan_select(mql)?;
        MoleculeCursor::open(SessionRef::Borrowed(self), &resolved, opts)
    }

    /// [`Session::query_cursor`] consuming the session: the cursor owns
    /// it and keeps its transaction (and therefore its locks) alive for
    /// the cursor's lifetime — dropping the cursor rolls the read
    /// transaction back. Backs `Prima::query_cursor`.
    pub fn into_cursor(
        self,
        mql: &str,
        opts: &QueryOptions,
    ) -> PrimaResult<MoleculeCursor<'static>> {
        opts.validate()?;
        let resolved = self.plan_select(mql)?;
        MoleculeCursor::open(SessionRef::Owned(Box::new(self)), &resolved, opts)
    }

    /// Executes one manipulation statement (`INSERT`/`DELETE`/`MODIFY`)
    /// under the session's transaction.
    pub fn execute(&self, mql: &str) -> PrimaResult<DmlResult> {
        self.stats.parsed();
        let (stmt, slots) = parse_statement_params(mql)?;
        if !slots.is_empty() {
            return Err(PrimaError::UnboundParameter {
                slot: 0,
                detail: "one-shot execute cannot run parameterized statements — prepare it"
                    .into(),
            });
        }
        if matches!(stmt, Statement::Select(_)) {
            return Err(PrimaError::BadStatement("use query() for SELECT".into()));
        }
        // The kind is only known after the parse, so the parse itself
        // stays outside the scope on this one-shot path.
        let kind = dml_kind(&stmt);
        self.statement_scope(kind, mql, || self.run_dml(&stmt))
    }

    /// Prepares a statement: parse + validate + plan now, bind and
    /// execute as often as needed.
    pub fn prepare(&self, mql: &str) -> PrimaResult<Prepared<'_>> {
        Prepared::new(self, mql)
    }

    // -----------------------------------------------------------------
    // Shared execution plumbing (also used by Prepared)
    // -----------------------------------------------------------------

    fn plan_select(&self, mql: &str) -> PrimaResult<ResolvedQuery> {
        self.stats.parsed();
        let (stmt, slots) = obs::span(obs::SpanKind::Parse, || parse_statement_params(mql))?;
        if !slots.is_empty() {
            return Err(PrimaError::UnboundParameter {
                slot: 0,
                detail: "one-shot query cannot run parameterized statements — prepare it"
                    .into(),
            });
        }
        let Statement::Select(q) = stmt else {
            return Err(PrimaError::BadStatement("use execute() for manipulation".into()));
        };
        self.stats.planned();
        obs::span(obs::SpanKind::Plan, || datasys::validate(self.access.schema(), &q))
    }

    /// Runs a planned SELECT under the read guard the session's state
    /// selects (module docs, *Isolation*).
    fn run_select(&self, plan: &ResolvedQuery, opts: &QueryOptions) -> PrimaResult<QueryResult> {
        let snapshot = self.pin_read_snapshot();
        let (set, trace) = self.with_read_guard(snapshot.as_ref(), |g| {
            datasys::execute(&self.access, plan, opts.threads, g)
        })?;
        Ok(QueryResult { set, trace: opts.trace.then_some(trace) })
    }

    fn run_dml(&self, stmt: &Statement) -> PrimaResult<DmlResult> {
        self.with_txn_retry(|t| {
            obs::span(obs::SpanKind::DmlApply, || {
                datasys::dml::execute_statement(&self.access, t, stmt)
            })
        })
    }

    // -----------------------------------------------------------------
    // Atom-level interface (application-layer style access, under the
    // session transaction)
    // -----------------------------------------------------------------

    /// Inserts an atom by type name with named attribute values under the
    /// session's transaction (undo-logged, lock-protected; visible to
    /// other sessions after [`Session::commit`]).
    pub fn insert_atom_named(
        &self,
        type_name: &str,
        attrs: &[(&str, Value)],
    ) -> PrimaResult<AtomId> {
        let (t, values) = self.access.resolve_named_values(type_name, attrs)?;
        self.with_txn_retry(|txn| Ok(txn.insert_atom(t, values.clone())?))
    }

    /// Reads one atom: lock-free against a snapshot outside a
    /// transaction, under a `Shared` lock of the session's transaction
    /// inside one.
    pub fn read_atom(&self, id: AtomId) -> PrimaResult<Atom> {
        let snapshot = self.pin_read_snapshot();
        self.with_read_guard(snapshot.as_ref(), |g| {
            g.read_atom(&self.access, id)?
                .ok_or_else(|| prima_access::AccessError::NoSuchAtom(id).into())
        })
    }

    /// Modifies named attributes of an atom under the session's
    /// transaction.
    pub fn modify_atom_named(&self, id: AtomId, attrs: &[(&str, Value)]) -> PrimaResult<()> {
        let by_idx = self.access.resolve_named_updates(id, attrs)?;
        self.with_txn_retry(|txn| Ok(txn.modify_atom(id, &by_idx)?))
    }

    /// Deletes an atom (disconnecting it everywhere) under the session's
    /// transaction.
    pub fn delete_atom(&self, id: AtomId) -> PrimaResult<()> {
        self.with_txn_retry(|txn| Ok(txn.delete_atom(id)?))
    }
}

// ---------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------

/// One parameter slot of a prepared statement.
#[derive(Debug, Clone)]
pub struct ParamSlot {
    /// `Some(name)` for `:name`, `None` for positional `?`.
    pub name: Option<String>,
    /// Declared type of the attribute this parameter is compared with or
    /// assigned to, when inferable — bindings are checked against it.
    pub expected: Option<AttrType>,
}

/// A prepared MQL statement: parsed, validated and (for `SELECT`s)
/// planned once at [`Session::prepare`] time. Re-executions skip the
/// lexer, parser and validator entirely — binding parameters only
/// substitutes values into a copy of the cached plan.
///
/// DML statements cache the parsed AST and parameter typing; their
/// qualification sub-query is re-planned per execution because it ranges
/// over current data (the cache skips parse + type resolution).
pub struct Prepared<'s> {
    session: &'s Session,
    stmt: Statement,
    /// The statement text, carried into profiles.
    text: String,
    /// Cached plan (SELECT only).
    plan: Option<ResolvedQuery>,
    slots: Vec<ParamSlot>,
    bound: Option<Vec<Value>>,
}

impl<'s> Prepared<'s> {
    fn new(session: &'s Session, mql: &str) -> PrimaResult<Prepared<'s>> {
        let stats = &session.stats;
        stats.parsed();
        let (stmt, names) = parse_statement_params(mql)?;
        let schema = session.access.schema();
        // Validate / plan once. DML statements validate through their
        // SELECT-equivalent so structural errors surface at prepare time.
        let (plan, typing_plan) = match &stmt {
            Statement::Select(q) => {
                stats.planned();
                let p = datasys::validate(schema, q)?;
                (Some(p), None)
            }
            Statement::Delete(d) => {
                stats.planned();
                let q = Query {
                    select: SelectList::All,
                    from: d.from.clone(),
                    predicate: d.predicate.clone(),
                };
                (None, Some(datasys::validate(schema, &q)?))
            }
            Statement::Modify(m) => {
                stats.planned();
                let q = Query {
                    select: SelectList::All,
                    from: m.from.clone(),
                    predicate: m.predicate.clone(),
                };
                (None, Some(datasys::validate(schema, &q)?))
            }
            Statement::Insert(_) => (None, None),
        };
        let mut slots: Vec<ParamSlot> =
            names.into_iter().map(|name| ParamSlot { name, expected: None }).collect();
        infer_param_types(schema, &stmt, plan.as_ref().or(typing_plan.as_ref()), &mut slots)?;
        Ok(Prepared { session, stmt, text: mql.to_string(), plan, slots, bound: None })
    }

    /// The statement's parameter slots, in positional order.
    pub fn params(&self) -> &[ParamSlot] {
        &self.slots
    }

    /// Binds positional values: exactly one per slot, type-checked
    /// against the attribute each parameter is used with.
    pub fn bind(&mut self, values: &[Value]) -> PrimaResult<&mut Self> {
        if values.len() != self.slots.len() {
            return Err(PrimaError::BadStatement(format!(
                "bind arity mismatch: statement has {} parameter(s), got {} value(s)",
                self.slots.len(),
                values.len()
            )));
        }
        for (i, (slot, v)) in self.slots.iter().zip(values).enumerate() {
            if let Some(expected) = &slot.expected {
                expected.check_value(v).map_err(|_| PrimaError::ParamTypeMismatch {
                    slot: i as u16,
                    expected: expected.to_string(),
                    got: format!("{:?}", v.kind()),
                })?;
            }
        }
        self.bound = Some(values.to_vec());
        Ok(self)
    }

    /// Binds by name (`:name` parameters; positional slots are addressed
    /// as `?1`, `?2`, …).
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    pub fn bind_named(&mut self, pairs: &[(&str, Value)]) -> PrimaResult<&mut Self> {
        let mut values: Vec<Option<Value>> = vec![None; self.slots.len()];
        for (name, v) in pairs {
            let idx = self
                .slots
                .iter()
                .position(|s| s.name.as_deref() == Some(*name))
                .or_else(|| {
                    name.strip_prefix('?')
                        .and_then(|n| n.parse::<usize>().ok())
                        .and_then(|n| n.checked_sub(1))
                        .filter(|i| *i < self.slots.len())
                })
                .ok_or_else(|| {
                    PrimaError::BadStatement(format!("no parameter named '{name}'"))
                })?;
            values[idx] = Some(v.clone());
        }
        let missing = values.iter().position(std::option::Option::is_none);
        if let Some(i) = missing {
            return Err(PrimaError::UnboundParameter {
                slot: i as u16,
                detail: match &self.slots[i].name {
                    Some(n) => format!("':{n}' was not supplied"),
                    None => "positional slot not supplied".into(),
                },
            });
        }
        // lint: allow(error-hygiene, an earlier loop returned on any None entry)
        let values: Vec<Value> = values.into_iter().map(|v| v.expect("checked")).collect();
        self.bind(&values)
    }

    fn bound_values(&self) -> PrimaResult<&[Value]> {
        if self.slots.is_empty() {
            return Ok(&[]);
        }
        self.bound.as_deref().ok_or(PrimaError::UnboundParameter {
            slot: 0,
            detail: "call bind() before execute()".into(),
        })
    }

    /// Executes with default options. SELECTs return
    /// [`StatementOutcome::Molecules`], manipulations
    /// [`StatementOutcome::Dml`]; re-execution reuses the cached plan.
    pub fn execute(&self) -> PrimaResult<StatementOutcome> {
        self.execute_with(&QueryOptions::default())
    }

    /// [`Prepared::execute`] with explicit [`QueryOptions`].
    pub fn execute_with(&self, opts: &QueryOptions) -> PrimaResult<StatementOutcome> {
        opts.validate()?;
        let params = self.bound_values()?;
        match &self.plan {
            Some(plan) => self.session.statement_scope(StatementKind::Select, &self.text, || {
                self.session.stats.reused();
                let bound;
                let plan = if params.is_empty() {
                    plan
                } else {
                    bound = plan.bind_params(params);
                    &bound
                };
                Ok(StatementOutcome::Molecules(self.session.run_select(plan, opts)?))
            }),
            None => {
                // Not counted as a plan reuse: DML re-runs its
                // qualification sub-query validation per execution (it
                // ranges over current data); only the parse and
                // parameter typing are cached.
                let bound;
                let stmt = if params.is_empty() {
                    &self.stmt
                } else {
                    bound = self.stmt.bind_params(params);
                    &bound
                };
                self.session.statement_scope(dml_kind(stmt), &self.text, || {
                    Ok(StatementOutcome::Dml(self.session.run_dml(stmt)?))
                })
            }
        }
    }

    /// Convenience for SELECTs: execute and unwrap the molecule set.
    pub fn query(&self, opts: &QueryOptions) -> PrimaResult<QueryResult> {
        self.execute_with(opts)?.molecules()
    }

    /// Opens a streaming cursor over this (bound) prepared SELECT.
    pub fn cursor(&self, opts: &QueryOptions) -> PrimaResult<MoleculeCursor<'s>> {
        opts.validate()?;
        let params = self.bound_values()?;
        let plan = self.plan.as_ref().ok_or_else(|| {
            PrimaError::BadStatement("cursors require a SELECT statement".into())
        })?;
        self.session.stats.reused();
        let bound;
        let plan = if params.is_empty() {
            plan
        } else {
            bound = plan.bind_params(params);
            &bound
        };
        MoleculeCursor::open(SessionRef::Borrowed(self.session), plan, opts)
    }
}

/// Infers the expected attribute type of each parameter slot from the
/// position it occurs in: comparisons against a component attribute take
/// that attribute's type; INSERT/MODIFY assignments take the assigned
/// attribute's type.
#[allow(clippy::unwrap_used, clippy::expect_used)]
fn infer_param_types(
    schema: &Schema,
    stmt: &Statement,
    plan: Option<&ResolvedQuery>,
    slots: &mut [ParamSlot],
) -> PrimaResult<()> {
    let note = |slot: u16, ty: AttrType, slots: &mut [ParamSlot]| {
        if let Some(s) = slots.get_mut(slot as usize) {
            if s.expected.is_none() {
                s.expected = Some(ty);
            }
        }
    };
    // Comparison positions (WHERE clauses).
    if let (Some(plan), Some(pred)) = (plan, statement_predicate(stmt)) {
        let mut pairs = Vec::new();
        collect_param_comparisons(pred, &mut pairs);
        for (r, slot) in pairs {
            if let Ok((node, attr)) = resolve_ref(plan, r, schema) {
                // lint: allow(error-hygiene, plan node type ids were resolved against this same frozen schema during validation)
                let at = schema.atom_type(plan.nodes[node].atom_type).expect("resolved");
                note(slot, at.attributes[attr].ty.clone(), slots);
            }
        }
    }
    // Assignment positions.
    match stmt {
        Statement::Insert(i) => {
            let at = schema.type_by_name(&i.atom_type).ok_or_else(|| {
                PrimaError::Schema(prima_mad::SchemaError::UnknownAtomType(i.atom_type.clone()))
            })?;
            for (name, ve) in &i.assignments {
                let idx = at.attribute_index(name).ok_or_else(|| {
                    PrimaError::Schema(prima_mad::SchemaError::UnknownAttribute {
                        atom_type: at.name.clone(),
                        attr: name.clone(),
                    })
                })?;
                if let ValueExpr::Param(slot) = ve {
                    note(*slot, at.attributes[idx].ty.clone(), slots);
                }
            }
        }
        Statement::Modify(m) => {
            if let Some(plan) = plan {
                for (target, expr) in &m.assignments {
                    if let SetExpr::Value(ValueExpr::Param(slot)) = expr {
                        if let Ok((node, attr)) = resolve_ref(plan, target, schema) {
                            let at = schema
                                .atom_type(plan.nodes[node].atom_type)
                                // lint: allow(error-hygiene, plan node type ids were resolved against this same frozen schema during validation)
                                .expect("resolved");
                            note(*slot, at.attributes[attr].ty.clone(), slots);
                        }
                    }
                }
            }
        }
        _ => {}
    }
    Ok(())
}

/// A profiled scope in flight ([`Session::start_profile`]).
struct ProfileScope {
    before: MetricsSnapshot,
    probe: Probe,
    started: Instant,
}

fn dml_kind(stmt: &Statement) -> StatementKind {
    match stmt {
        Statement::Select(_) => StatementKind::Select,
        Statement::Insert(_) => StatementKind::Insert,
        Statement::Modify(_) => StatementKind::Modify,
        Statement::Delete(_) => StatementKind::Delete,
    }
}

fn statement_predicate(stmt: &Statement) -> Option<&Predicate> {
    match stmt {
        Statement::Select(q) => q.predicate.as_ref(),
        Statement::Delete(d) => d.predicate.as_ref(),
        Statement::Modify(m) => m.predicate.as_ref(),
        Statement::Insert(_) => None,
    }
}

/// Collects `(attribute reference, parameter slot)` pairs from
/// comparisons of the form `ref op ?` / `? op ref`.
fn collect_param_comparisons<'p>(pred: &'p Predicate, out: &mut Vec<(&'p CompRef, u16)>) {
    match pred {
        Predicate::Compare { left, right, .. } => match (left, right) {
            (Operand::Ref(r), Operand::Param(s)) | (Operand::Param(s), Operand::Ref(r)) => {
                out.push((r, *s));
            }
            _ => {}
        },
        Predicate::And(ts) | Predicate::Or(ts) => {
            ts.iter().for_each(|t| collect_param_comparisons(t, out));
        }
        Predicate::Not(t) => collect_param_comparisons(t, out),
        Predicate::ExistsAtLeast { inner, .. } | Predicate::ForAll { inner, .. } => {
            collect_param_comparisons(inner, out);
        }
        Predicate::IsEmpty(_) | Predicate::NotEmpty(_) => {}
    }
}

// ---------------------------------------------------------------------
// Streaming molecule cursor
// ---------------------------------------------------------------------

/// The session a cursor streams through: borrowed from the caller
/// (`Session::query_cursor`, `Prepared::cursor`) or owned outright
/// (`Session::into_cursor`, backing `Prima::query_cursor`).
enum SessionRef<'s> {
    Borrowed(&'s Session),
    Owned(Box<Session>),
}

impl SessionRef<'_> {
    fn get(&self) -> &Session {
        match self {
            SessionRef::Borrowed(s) => s,
            SessionRef::Owned(s) => s,
        }
    }
}

/// A pull-based cursor over the molecules of one query — the paper's
/// "one-molecule-at-a-time interface" surfaced at the facade.
///
/// Opening the cursor performs root access only (key lookup / access
/// path / scan); the component atoms of each molecule are fetched lazily
/// through the level-batched read path when the molecule is pulled via
/// [`MoleculeCursor::fetch`] or iteration. The cursor never buffers
/// assembled molecules between calls, so at most one fetched chunk is
/// alive at a time; dropping it mid-stream simply abandons the remaining
/// (unread) roots without having fixed their pages.
///
/// Isolation-wise the cursor follows the session's read-path split
/// (module docs). Opened **outside a transaction** it pins a snapshot of
/// the committed state for its entire lifetime: open and every fetch are
/// lock-free, roots were already resolved to their snapshot-visible
/// versions at open, and a concurrent writer's commit mid-stream is
/// never observed — the stream is stable from first fetch to last, and
/// the pinned snapshot holds version GC back only while the cursor
/// lives. Opened **inside a transaction**, open and every fetch run
/// under the session's transaction, `Shared`-locking the root extension
/// and each delivered atom. If the session commits or rolls back
/// mid-stream, those locks are released with the transaction and the
/// next fetch reacquires them under the session's fresh transaction —
/// revalidating each root, so rolled-back or deleted atoms never stream
/// out.
pub struct MoleculeCursor<'s> {
    session: SessionRef<'s>,
    access: Arc<AccessSystem>,
    plan: ResolvedQuery,
    clusters: Vec<Arc<AtomClusterType>>,
    roots: VecDeque<Atom>,
    ctx: AssemblyCtx,
    nodes: Vec<NodeInfo>,
    trace: ExecutionTrace,
    /// `Some` when the cursor was opened outside a transaction: the
    /// pinned snapshot every fetch resolves against (and the thing that
    /// holds version GC back for the stream's lifetime).
    snapshot: Option<Snapshot>,
}

impl<'s> MoleculeCursor<'s> {
    fn open(
        session: SessionRef<'s>,
        plan: &ResolvedQuery,
        opts: &QueryOptions,
    ) -> PrimaResult<MoleculeCursor<'s>> {
        if opts.threads > 1 {
            return Err(PrimaError::BadStatement(
                "cursor delivery is piecewise and serial; use query() for parallel execution"
                    .into(),
            ));
        }
        if plan.has_params() {
            return Err(PrimaError::UnboundParameter {
                slot: 0,
                detail: "bind all parameters before opening a cursor".into(),
            });
        }
        let s = session.get();
        let access = Arc::clone(&s.access);
        let mut trace = ExecutionTrace::default();
        // No transaction open → the snapshot stays pinned for the
        // cursor's lifetime; otherwise open (and later fetch) under the
        // session's transaction, Shared-locking as usual.
        let snapshot = s.pin_read_snapshot();
        let roots = s.with_read_guard(snapshot.as_ref(), |g| {
            find_roots(&access, plan, &mut trace, g)
        })?;
        trace.roots_inspected = roots.len();
        let clusters = access.cluster_types_of(plan.nodes[0].atom_type);
        Ok(MoleculeCursor {
            session,
            ctx: AssemblyCtx::new(plan),
            nodes: node_infos(plan),
            plan: plan.clone(),
            clusters,
            roots: roots.into(),
            access,
            trace,
            snapshot,
        })
    }

    /// Structure description of the delivered molecules (same indices as
    /// [`crate::datasys::MolAtom::node`]).
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// Number of root candidates not yet pulled.
    pub fn remaining_roots(&self) -> usize {
        self.roots.len()
    }

    /// Execution trace so far (root access decision up front; molecule /
    /// atom counts grow as the stream is consumed).
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// Pulls and assembles up to `n` molecules — the paper's piecewise
    /// molecule-set delivery. Returns an empty vector when the stream is
    /// exhausted. (Roots whose molecule fails residual qualification are
    /// skipped and do not count towards `n`.)
    pub fn fetch(&mut self, n: usize) -> PrimaResult<Vec<Molecule>> {
        let scope = self.session.get().begin_cursor_scope();
        let result = (|| {
            let mut out = Vec::new();
            while out.len() < n {
                match self.next_molecule()? {
                    Some(m) => out.push(m),
                    None => break,
                }
            }
            Ok(out)
        })();
        self.session.get().end_cursor_scope(scope);
        result
    }

    /// Pulls the molecule set description plus every remaining molecule
    /// (equivalent to what a materialising query would have returned for
    /// the unread tail).
    pub fn fetch_all(&mut self) -> PrimaResult<MoleculeSet> {
        let scope = self.session.get().begin_cursor_scope();
        let result = (|| {
            let mut molecules = Vec::new();
            while let Some(m) = self.next_molecule()? {
                molecules.push(m);
            }
            Ok(MoleculeSet { nodes: self.nodes.clone(), molecules })
        })();
        self.session.get().end_cursor_scope(scope);
        result
    }

    fn next_molecule(&mut self) -> PrimaResult<Option<Molecule>> {
        let Self { session, access, plan, clusters, roots, ctx, trace, snapshot, .. } = self;
        session.get().with_read_guard(snapshot.as_ref(), |guard| {
            // Idempotent within one transaction; after a mid-stream
            // commit/rollback this pins the extension under the fresh
            // transaction before any root is revalidated.
            guard.lock_extension(plan.nodes[0].atom_type)?;
            // The root stays at the front of the queue until it has been
            // fully processed: an error mid-lock or mid-assembly leaves it
            // queued, so the documented rollback-and-retry path resumes
            // with the same root instead of silently dropping it from the
            // stream.
            while let Some(front) = roots.front() {
                // Roots were located at open time. A locking guard
                // re-reads and re-qualifies each one (it may have been
                // modified, or deleted by a rolled-back transaction,
                // since); a snapshot never moves and passes it through.
                let Some(root) = guard.recheck_root(access, &plan.root_ssa, front)? else {
                    roots.pop_front();
                    continue;
                };
                let produced = process_root(access, plan, root, clusters, ctx, trace, guard)?;
                roots.pop_front();
                if let Some(m) = produced {
                    trace.molecules += 1;
                    return Ok(Some(m));
                }
            }
            Ok(None)
        })
    }
}

impl Iterator for MoleculeCursor<'_> {
    type Item = PrimaResult<Molecule>;

    fn next(&mut self) -> Option<Self::Item> {
        let scope = self.session.get().begin_cursor_scope();
        let result = self.next_molecule().transpose();
        self.session.get().end_cursor_scope(scope);
        result
    }
}
