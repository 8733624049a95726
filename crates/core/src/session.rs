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
//! * [`Prepared`] — compile (parse / validate / plan) **once**, then
//!   [`Prepared::bind`] + [`Prepared::execute`] many times. MQL carries
//!   `?` (positional) and `:name` (named) placeholders. The compile that
//!   resolves the statement's names also types each slot by the attribute
//!   it is first compared with or assigned to; binding is checked against
//!   that type, and an execution binds the values into the plan's SSAs
//!   (and DML values) without copying the rest of the plan.
//! * [`MoleculeCursor`] — a pull-based iterator over result molecules
//!   that borrows its session. Root atoms are located up front (they are
//!   the cheap part); component assembly runs lazily per fetched chunk
//!   through the level-batched read path, so a large result never
//!   materialises in full.
//!
//! [`QueryOptions`] is the one execution descriptor (degree of semantic
//! parallelism) accepted by both [`Session::query`] and [`Prepared`]. A
//! query returns its molecules ([`QueryResult`]); *how* they were reached
//! is reported by the statement profile ([`Session::set_profiling`],
//! [`Session::last_profile`]), whose root-access span carries the access
//! choice. Statements, commits, cursor opens and cursor fetches are each
//! one profiled scope.
//!
//! ## Plan cache
//!
//! Every statement is compiled once. One-shot text — [`Session::query`],
//! [`Session::query_cursor`], [`Session::execute`] — is looked up in the
//! session's plan cache ([`PLAN_CACHE_ENTRIES`] statements) before it is
//! compiled, inside the statement's profiled scope. The key is
//! the text's token stream with each literal reduced to its kind
//! (integer, real or string). A statement is cached compiled with each
//! literal that stands where a parameter could — a comparison operand or
//! a DML value, outside a qualified projection, not sign-folded — lifted
//! into a slot; every other literal is kept, and a hit must repeat it
//! exactly. A hit costs one tokenising pass, one probe and one bind: no
//! parse, no validation, and no `Plan` span in the statement's profile,
//! whose root carries `plan_cache = hit` (`miss` when the text was
//! compiled). A literal that does not fit its slot's type, a text that
//! does not tokenise, and a statement whose lifted form does not compile
//! are compiled as written and not cached, so their outcome — error
//! included — is the uncached one. The access path is chosen per
//! execution, so a structure built by LDL later serves cached statements
//! too.
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
//!   same lock table as manipulation (see [`crate::txn`]): it takes a
//!   `Shared` lock on the root type's extension before root access and a
//!   `Shared` lock on every atom that flows into a result, all held to
//!   commit/rollback (strict two-phase). Writers hold
//!   their atoms `Exclusive` and announce `IntentExclusive` on the
//!   written types' extensions, so a concurrent session's uncommitted
//!   INSERT/MODIFY/DELETE is **never observable**: the reader waits in
//!   the lock table's bounded FIFO queue and, if the wait expires (or
//!   waiting is disabled), sees a retryable error. A session still reads
//!   its own uncommitted writes (which is why transactions keep the
//!   locking path — a snapshot cannot see the session's own dirty
//!   atoms).
//!
//! ## Statement atomicity
//!
//! Every write — MQL DML, prepared DML and the atom-level calls — runs
//! through one funnel that takes a savepoint before the statement. A
//! statement that fails leaves nothing behind: its writes are undone
//! newest-first back to the savepoint, and the transaction stays open
//! with its earlier statements (and all its locks) intact, so a later
//! [`Session::commit`] makes exactly the statements that succeeded
//! durable. Should that rollback itself fail, the whole transaction is
//! aborted.
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
//! explicit multi-statement transaction is rolled back to its savepoint
//! and propagates the error instead:
//! the kernel cannot know whether earlier statements' results still
//! justify the retry, so that decision belongs to the application.
//! Reads never consult the policy at all: the lock-free snapshot path has
//! no retryable failure mode, and the locking path runs only inside an
//! already-open transaction — so the hot read path pays no retry
//! bookkeeping (not even the jitter PRNG draw). Cursor opens and fetches
//! never retry either (a stream's already-delivered prefix cannot be
//! rolled back transparently).

use crate::datasys::exec::{find_roots, process_root, AssemblyCtx, AssemblyPool};
use crate::datasys::plan::{ResolvedQuery, StatementPlan};
use crate::datasys::validate::plan_statement;
use crate::datasys::{self, DmlResult, Molecule, MoleculeSet, NodeInfo};
use crate::error::{PrimaError, PrimaResult};
use crate::obs::{self, MetricsSnapshot, Obs, Probe, SpanKind, StatementKind, StatementProfile};
use crate::txn::{ReadGuard, Snapshot, Transaction, TxnManager};
use parking_lot::{rank, Mutex};
use prima_access::cluster::AtomClusterType;
use prima_access::{AccessSystem, Atom};
use prima_mad::mql::{
    parse_statement_lifted, parse_statement_params, unescape, ParamSlots, ParseError, Statement,
    TokenKind, Tokens,
};
use prima_mad::value::{AtomId, Value};
use prima_mad::{AttrType, Schema};
use std::collections::VecDeque;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
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
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions { threads: 1 }
    }
}

impl QueryOptions {
    /// Serial.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the degree of semantic parallelism (`n ≥ 1`).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
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

/// Executions of a retried statement, the first try included.
const RETRY_MAX_ATTEMPTS: u32 = 5;
/// Backoff before the first retry, doubled per further retry.
const RETRY_BACKOFF: std::time::Duration = std::time::Duration::from_millis(1);

/// Transparent-retry policy for statements killed by transient contention
/// ([`PrimaError::is_retryable`]). By default the statement's
/// (auto-commit) transaction is rolled back through the undo machinery,
/// the session sleeps a backoff that doubles per retry, jittered up to
/// +50% so colliding sessions decorrelate, and the statement re-runs — up
/// to five executions in all. [`RetryPolicy::off`] hands the first
/// retryable error to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: RETRY_MAX_ATTEMPTS }
    }
}

impl RetryPolicy {
    /// No retrying: the first retryable error propagates to the caller.
    pub fn off() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    /// Backoff before retry number `attempt` (0-based: the delay after
    /// the first failure is `delay(0)`).
    fn delay(attempt: u32) -> std::time::Duration {
        let base = RETRY_BACKOFF.saturating_mul(1u32 << attempt.min(10));
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

/// Result of a query execution: the molecule set. The access choice
/// that produced it is on the statement profile's root-access span
/// ([`crate::StatementProfile::access`]).
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub set: MoleculeSet,
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
    /// Counters proving the compile-once contract (module docs, *Plan
    /// cache*). Every MQL text handed to the facade counts
    /// `statements_parsed` and is then either compiled (`plans_built`) or
    /// served by the session's plan cache (`plan_cache_hits`), so
    /// `plans_built + plan_cache_hits <= statements_parsed`. A prepared
    /// statement's executions count `plan_reuses`.
    pub struct ApiStats => ApiStatsSnapshot as "api" {
        /// MQL texts handed to the facade: one per [`Session::prepare`]
        /// and one per one-shot `query`, `query_cursor` or `execute` —
        /// each is at least tokenised, a plan-cache hit too.
        counter statements_parsed,
        /// Statements compiled at the facade — parsed, validated and
        /// planned ([`plan_statement`]), a DML statement's qualification
        /// and sub-queries included: every prepared statement, and every
        /// one-shot text the plan cache did not serve (once, even when
        /// its lifted form was compiled before the text as written).
        counter plans_built,
        /// Executions of a prepared statement — SELECT, cursor or DML —
        /// each reusing the plan compiled at prepare time.
        counter plan_reuses,
        /// One-shot texts the session's plan cache served: tokenised,
        /// looked up and bound, not parsed or planned.
        counter plan_cache_hits,
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
        self.statements_parsed.add(1);
    }

    fn planned(&self) {
        self.plans_built.add(1);
    }

    fn reused(&self) {
        self.plan_reuses.add(1);
    }

    fn cache_hit(&self) {
        self.plan_cache_hits.add(1);
    }

    fn executed(&self) {
        self.statements_executed.add(1);
    }

    fn cursor_fetched(&self) {
        self.cursor_fetches.add(1);
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
/// aborts whatever was not committed. A statement that fails leaves
/// nothing behind, and the transaction stays open (module docs,
/// *Statement atomicity*).
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
    // lockrank: api.2 — the plan cache; held only to look up or insert
    // an entry, never while a statement compiles or runs.
    plan_cache: Mutex<PlanCache>,
    /// Molecule-assembly scratch, reused by the session's statements.
    assembly: AssemblyPool,
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
            plan_cache: Mutex::new_ranked(PlanCache::default(), rank::API + 2),
            assembly: AssemblyPool::default(),
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

    /// The profile of the most recent profiled scope (a statement, a
    /// commit, a cursor open or a cursor fetch), if any.
    pub fn last_profile(&self) -> Option<StatementProfile> {
        self.last_profile.lock().clone()
    }

    /// Opens a scope — a statement, a commit, a cursor open or a cursor
    /// fetch: its start time and, when profiling is on, the kernel
    /// counters at its start plus the span recorder.
    fn begin_scope(&self) -> Scope {
        let profile =
            self.profiling_enabled().then(|| (self.obs.metrics_snapshot(), Probe::start()));
        Scope { profile, started: Instant::now() }
    }

    /// Closes a scope. A profiled scope becomes a [`StatementProfile`] —
    /// span tree plus counter deltas — offered to the slow log and kept as
    /// [`Session::last_profile`]. A `statement` scope (statements and
    /// commits, not cursor opens or fetches) also records its kind's
    /// latency histogram and, unless it is a commit, `statements_executed`.
    fn end_scope(&self, scope: Scope, kind: StatementKind, text: &str, statement: bool) {
        let total = scope.started.elapsed();
        if let Some((before, probe)) = scope.profile {
            let root = probe.finish(total);
            let counters = self.obs.metrics_snapshot().delta(&before);
            let profile =
                StatementProfile { kind, statement: text.to_string(), total, root, counters };
            self.obs.note_profile(&profile);
            *self.last_profile.lock() = Some(profile);
        }
        if statement {
            self.obs.record_statement(kind, total);
            if kind != StatementKind::Commit {
                self.stats.executed();
            }
        }
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
        self.with_txn(|_| Ok(()))
    }

    /// Runs `f` on the session's transaction, begun if none is open.
    fn with_txn<R>(&self, f: impl FnOnce(&Transaction) -> PrimaResult<R>) -> PrimaResult<R> {
        f(self.txn.lock().get_or_insert_with(|| self.txn_mgr.begin()))
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

    /// The one funnel for every write: runs `f` on the session's
    /// transaction behind a savepoint (module docs, *Statement
    /// atomicity*), with transparent retry under the session's
    /// [`RetryPolicy`]. When the statement itself opened the transaction
    /// (auto-commit — nothing else is in it) and `f` fails with a
    /// retryable contention error, the transaction is rolled back and `f`
    /// re-runs after the policy's backoff. Any other failure — inside an
    /// explicit transaction, or on the final attempt — rolls back to the
    /// savepoint and leaves the transaction open for the caller.
    fn with_txn_retry<R>(&self, f: impl Fn(&Transaction) -> PrimaResult<R>) -> PrimaResult<R> {
        let policy = self.retry;
        let mut attempt = 0u32;
        loop {
            let mut slot = self.txn.lock();
            let auto_commit = slot.is_none();
            let t = slot.get_or_insert_with(|| self.txn_mgr.begin());
            let savepoint = t.savepoint();
            let err = match f(t) {
                Ok(r) => return Ok(r),
                Err(e) => e,
            };
            let retry = auto_commit && err.is_retryable() && attempt + 1 < policy.max_attempts;
            // A retried statement's transaction goes whole (nothing else
            // is in it); any other failed statement goes back to its
            // savepoint, and the transaction only if that fails.
            if retry || t.rollback_to(savepoint).is_err() {
                if let Some(t) = slot.take() {
                    t.abort()?;
                }
            }
            if !retry {
                return Err(err);
            }
            drop(slot);
            std::thread::sleep(RetryPolicy::delay(attempt));
            attempt += 1;
        }
    }

    /// Commits the session's current transaction (no-op when none is
    /// open). The next manipulation statement begins a fresh one.
    pub fn commit(&self) -> PrimaResult<()> {
        let Some(t) = self.txn.lock().take() else {
            return Ok(());
        };
        let scope = self.begin_scope();
        let out = t.commit();
        self.end_scope(scope, StatementKind::Commit, "COMMIT", true);
        Ok(out?)
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

    /// Compiles (or finds in the plan cache) and runs one `SELECT`,
    /// materialising the full molecule set. Outside a transaction it runs
    /// lock-free against a snapshot of the committed state; inside one it
    /// runs under the session's transaction and the retrieved atoms stay
    /// `Shared`-locked until [`Session::commit`] /
    /// [`Session::rollback`]. Parameterised statements must go through
    /// [`Session::prepare`].
    pub fn query(&self, mql: &str, opts: &QueryOptions) -> PrimaResult<QueryResult> {
        opts.validate()?;
        let scope = self.begin_scope();
        let out = self.one_shot_select(mql).and_then(|plan| self.run_select(&plan, opts));
        self.end_scope(scope, StatementKind::Select, mql, true);
        out
    }

    /// Runs a `SELECT` as a streaming [`MoleculeCursor`]: roots are
    /// located now (the open is profiled like a statement, so the access
    /// choice is in [`Session::last_profile`] right away), component
    /// assembly happens per [`MoleculeCursor::fetch`] chunk. Opened
    /// outside a transaction the cursor pins a snapshot for its whole
    /// lifetime — fetches are
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
        MoleculeCursor::open(self, mql, opts, || self.one_shot_select(mql))
    }

    /// Executes one manipulation statement (`INSERT`/`DELETE`/`MODIFY`)
    /// under the session's transaction.
    pub fn execute(&self, mql: &str) -> PrimaResult<DmlResult> {
        let scope = self.begin_scope();
        // The statement's kind labels the scope, so a text that does not
        // compile leaves no record.
        let (compiled, params) = match self.compile_one_shot(mql, false) {
            Ok(compiled) => compiled,
            Err(e) => {
                scope.abandon();
                return Err(e);
            }
        };
        let out = self.run_dml(&compiled.plan, &params);
        self.end_scope(scope, compiled.kind(), mql, true);
        out
    }

    /// Prepares a statement: compiles it now — always afresh, past the
    /// plan cache — to bind and execute as often as needed.
    pub fn prepare(&self, mql: &str) -> PrimaResult<Prepared<'_>> {
        Prepared::new(self, mql)
    }

    // -----------------------------------------------------------------
    // Compilation and shared execution plumbing (also used by Prepared)
    // -----------------------------------------------------------------

    /// The bound plan of one-shot SELECT text.
    fn one_shot_select(&self, mql: &str) -> PrimaResult<ResolvedQuery> {
        let (compiled, params) = self.compile_one_shot(mql, true)?;
        let StatementPlan::Select(plan) = &compiled.plan else {
            return Err(PrimaError::BadStatement("use execute() for manipulation".into()));
        };
        Ok(plan.bind(&params))
    }

    /// The compiled statement of one-shot `text` — a SELECT when `select`,
    /// a manipulation otherwise — and the values its slots bind: served
    /// by the plan cache, or compiled now (module docs, *Plan cache*).
    fn compile_one_shot(
        &self,
        text: &str,
        select: bool,
    ) -> PrimaResult<(Arc<Compiled>, Vec<Value>)> {
        self.stats.parsed();
        let wrong_kind = |is_select: bool| {
            let hint =
                if select { "use execute() for manipulation" } else { "use query() for SELECT" };
            (is_select != select).then(|| PrimaError::BadStatement(hint.into()))
        };
        if let Ok(key) = obs::span(SpanKind::Parse, || StatementKey::of(text)) {
            let hit = self.plan_cache.lock().get(&key);
            let found = match hit {
                Some(cached) => Some((cached, true)),
                None => self.cache_statement(text, &key).map(|cached| (cached, false)),
            };
            if let Some((cached, hit)) = found {
                if let Some(e) = wrong_kind(cached.compiled.kind() == StatementKind::Select) {
                    return Err(e);
                }
                let params = cached.slot_values(key.literals);
                if cached.compiled.check(&params).is_ok() {
                    if hit {
                        self.stats.cache_hit();
                    } else {
                        self.stats.planned();
                    }
                    obs::attr("plan_cache", || (if hit { "hit" } else { "miss" }).to_string());
                    return Ok((Arc::clone(&cached.compiled), params));
                }
            }
        }
        // Compiled as written, uncached.
        self.stats.planned();
        let (stmt, names) = obs::span(SpanKind::Parse, || parse_statement_params(text))?;
        if !names.is_empty() {
            let entry = if select { "query" } else { "execute" };
            return Err(PrimaError::UnboundParameter {
                slot: 0,
                detail: format!(
                    "one-shot {entry} cannot run parameterized statements — prepare it"
                ),
            });
        }
        if let Some(e) = wrong_kind(matches!(stmt, Statement::Select(_))) {
            return Err(e);
        }
        Ok((Arc::new(compile_parsed(self.access.schema(), &stmt, names)?), Vec::new()))
    }

    /// Compiles the lifted form of `text` ([`parse_statement_lifted`]) and
    /// caches it under `key`. `None` — nothing cached — when it does not
    /// compile or the text has placeholders of its own.
    fn cache_statement(&self, text: &str, key: &StatementKey) -> Option<Arc<CacheEntry>> {
        let lifted = obs::span(SpanKind::Parse, || parse_statement_lifted(text)).ok()?;
        if lifted.params.len() != lifted.literal_slots.iter().flatten().count() {
            return None;
        }
        let compiled =
            compile_parsed(self.access.schema(), &lifted.statement, lifted.params).ok()?;
        let literals = lifted
            .literal_slots
            .iter()
            .zip(&key.literals)
            .map(|(slot, v)| slot.map_or_else(|| Some(v.clone()), |_| None))
            .collect();
        let cached = Arc::new(CacheEntry {
            hash: key.hash,
            skeleton: key.skeleton.as_str().into(),
            literals,
            compiled: Arc::new(compiled),
        });
        self.plan_cache.lock().insert(Arc::clone(&cached));
        Some(cached)
    }

    /// Runs a planned SELECT under the read guard the session's state
    /// selects (module docs, *Isolation*).
    fn run_select(&self, plan: &ResolvedQuery, opts: &QueryOptions) -> PrimaResult<QueryResult> {
        let snapshot = self.pin_read_snapshot();
        let set = self.with_read_guard(snapshot.as_ref(), |g| {
            datasys::execute(&self.access, plan, opts.threads, g, &self.assembly)
        })?;
        Ok(QueryResult { set })
    }

    fn run_dml(&self, plan: &StatementPlan, params: &[Value]) -> PrimaResult<DmlResult> {
        self.with_txn_retry(|t| {
            obs::span(SpanKind::DmlApply, || {
                datasys::dml::execute_statement(&self.access, t, plan, params)
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
    /// Type of the attribute this parameter is first compared with (in
    /// WHERE order), or else assigned to; recorded by the statement's
    /// compile, and bindings are checked against it.
    pub expected: Option<AttrType>,
}

/// A prepared MQL statement: compiled once at [`Session::prepare`] time.
/// Executions skip the lexer, parser and validator entirely: binding
/// checks the values against the slots' types, and an execution binds
/// them into the plan's predicates — the rest of the plan (structure,
/// projection descriptors, result node table) is shared, not copied. A
/// DELETE or MODIFY keeps the plans of its qualification and
/// CONNECT / DISCONNECT sub-queries the same way; only their results are
/// computed per execution.
pub struct Prepared<'s> {
    session: &'s Session,
    compiled: Compiled,
    /// The statement text, carried into profiles.
    text: String,
    bound: Option<Vec<Value>>,
}

impl<'s> Prepared<'s> {
    fn new(session: &'s Session, mql: &str) -> PrimaResult<Prepared<'s>> {
        session.stats.parsed();
        session.stats.planned();
        let compiled = compile(session.access.schema(), mql)?;
        Ok(Prepared { session, compiled, text: mql.to_string(), bound: None })
    }

    /// The statement's parameter slots, in positional order.
    pub fn params(&self) -> &[ParamSlot] {
        &self.compiled.slots
    }

    /// Binds positional values: exactly one per slot, type-checked
    /// against the attribute each parameter is used with.
    pub fn bind(&mut self, values: &[Value]) -> PrimaResult<&mut Self> {
        let slots = self.compiled.slots.len();
        if values.len() != slots {
            return Err(PrimaError::BadStatement(format!(
                "bind arity mismatch: statement has {slots} parameter(s), got {} value(s)",
                values.len()
            )));
        }
        self.compiled.check(values)?;
        self.bound = Some(values.to_vec());
        Ok(self)
    }

    /// Binds by name (`:name` parameters; positional slots are addressed
    /// as `?1`, `?2`, …).
    pub fn bind_named(&mut self, pairs: &[(&str, Value)]) -> PrimaResult<&mut Self> {
        let slots = &self.compiled.slots;
        let mut values: Vec<Option<Value>> = vec![None; slots.len()];
        for (name, v) in pairs {
            let idx = slots
                .iter()
                .position(|s| s.name.as_deref() == Some(*name))
                .or_else(|| {
                    name.strip_prefix('?')
                        .and_then(|n| n.parse::<usize>().ok())
                        .and_then(|n| n.checked_sub(1))
                        .filter(|i| *i < slots.len())
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
                detail: match &slots[i].name {
                    Some(n) => format!("':{n}' was not supplied"),
                    None => "positional slot not supplied".into(),
                },
            });
        }
        let values: Vec<Value> = values.into_iter().flatten().collect();
        self.bind(&values)
    }

    fn bound_values(&self) -> PrimaResult<&[Value]> {
        if self.compiled.slots.is_empty() {
            return Ok(&[]);
        }
        self.bound.as_deref().ok_or(PrimaError::UnboundParameter {
            slot: 0,
            detail: "call bind() before execute()".into(),
        })
    }

    /// Executes with default options. SELECTs return
    /// [`StatementOutcome::Molecules`], manipulations
    /// [`StatementOutcome::Dml`]; every execution reuses the compiled
    /// plan.
    pub fn execute(&self) -> PrimaResult<StatementOutcome> {
        self.execute_with(&QueryOptions::default())
    }

    /// [`Prepared::execute`] with explicit [`QueryOptions`].
    pub fn execute_with(&self, opts: &QueryOptions) -> PrimaResult<StatementOutcome> {
        opts.validate()?;
        let params = self.bound_values()?;
        let session = self.session;
        let scope = session.begin_scope();
        session.stats.reused();
        let out = match &self.compiled.plan {
            StatementPlan::Select(plan) if params.is_empty() => {
                session.run_select(plan, opts).map(StatementOutcome::Molecules)
            }
            StatementPlan::Select(plan) => {
                session.run_select(&plan.bind(params), opts).map(StatementOutcome::Molecules)
            }
            dml => session.run_dml(dml, params).map(StatementOutcome::Dml),
        };
        session.end_scope(scope, self.compiled.kind(), &self.text, true);
        out
    }

    /// Convenience for SELECTs: execute and unwrap the molecule set.
    pub fn query(&self, opts: &QueryOptions) -> PrimaResult<QueryResult> {
        self.execute_with(opts)?.molecules()
    }

    /// Opens a streaming cursor over this (bound) prepared SELECT.
    pub fn cursor(&self, opts: &QueryOptions) -> PrimaResult<MoleculeCursor<'s>> {
        opts.validate()?;
        let params = self.bound_values()?;
        let StatementPlan::Select(plan) = &self.compiled.plan else {
            return Err(PrimaError::BadStatement("cursors require a SELECT statement".into()));
        };
        self.session.stats.reused();
        MoleculeCursor::open(self.session, &self.text, opts, || Ok(plan.bind(params)))
    }
}

// ---------------------------------------------------------------------
// Compilation and the plan cache
// ---------------------------------------------------------------------

/// Statements one session's plan cache holds.
pub const PLAN_CACHE_ENTRIES: usize = 64;

/// A compiled statement and its parameter slots: what a [`Prepared`]
/// wraps and a plan-cache entry holds.
struct Compiled {
    plan: StatementPlan,
    slots: Vec<ParamSlot>,
}

impl Compiled {
    fn kind(&self) -> StatementKind {
        match self.plan {
            StatementPlan::Select(_) => StatementKind::Select,
            StatementPlan::Insert(_) => StatementKind::Insert,
            StatementPlan::Modify { .. } => StatementKind::Modify,
            StatementPlan::Delete { .. } => StatementKind::Delete,
        }
    }

    /// Checks each value against the type of the attribute its slot is
    /// used with.
    fn check(&self, values: &[Value]) -> PrimaResult<()> {
        for (i, (slot, v)) in self.slots.iter().zip(values).enumerate() {
            if let Some(expected) = &slot.expected {
                expected.check_value(v).map_err(|_| PrimaError::ParamTypeMismatch {
                    slot: i as u16,
                    expected: expected.to_string(),
                    got: format!("{:?}", v.kind()),
                })?;
            }
        }
        Ok(())
    }
}

/// Compiles one statement: parse, then [`compile_parsed`].
fn compile(schema: &Schema, text: &str) -> PrimaResult<Compiled> {
    let (stmt, names) = obs::span(SpanKind::Parse, || parse_statement_params(text))?;
    compile_parsed(schema, &stmt, names)
}

/// Validates and plans a parsed statement, typing its parameter slots on
/// the way ([`plan_statement`]).
fn compile_parsed(schema: &Schema, stmt: &Statement, names: ParamSlots) -> PrimaResult<Compiled> {
    obs::span(SpanKind::Plan, || {
        let (plan, types) = plan_statement(schema, stmt, names.len())?;
        let slots = (names.into_iter().zip(types))
            .map(|(name, expected)| ParamSlot { name, expected })
            .collect();
        Ok(Compiled { plan, slots })
    })
}

/// One-shot text reduced to its plan-cache key: the token stream with
/// each literal replaced by its kind, and the literals' values in order.
struct StatementKey {
    hash: u64,
    skeleton: String,
    literals: Vec<Value>,
}

impl StatementKey {
    fn of(text: &str) -> Result<StatementKey, ParseError> {
        let mut skeleton = String::with_capacity(text.len() + 8);
        let mut literals = Vec::new();
        for token in Tokens::new(text) {
            let kind = token?.kind;
            // Identifiers and symbols never hold a space or a \u{1}, so
            // the encoding is one-to-one.
            let (text, value) = match kind {
                TokenKind::Int(i) => ("\u{1}i", Value::Int(i)),
                TokenKind::Real(r) => ("\u{1}r", Value::Real(r)),
                TokenKind::Str(s) => ("\u{1}s", Value::Str(unescape(s))),
                other => {
                    skeleton.push_str(other.symbol().unwrap_or_default());
                    skeleton.push(' ');
                    continue;
                }
            };
            skeleton.push_str(text);
            skeleton.push(' ');
            literals.push(value);
        }
        let hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(skeleton.as_str());
        Ok(StatementKey { hash, skeleton, literals })
    }
}

/// A cached statement: its key, and the compiled form of its lifted
/// statement.
struct CacheEntry {
    hash: u64,
    skeleton: Box<str>,
    /// Per literal of the text, in order: `None` where it was lifted into
    /// the next slot, the value it must equal where it stays verbatim.
    literals: Box<[Option<Value>]>,
    compiled: Arc<Compiled>,
}

impl CacheEntry {
    /// Whether `key` is this entry's statement: the same tokens, and the
    /// same value of every verbatim literal.
    fn matches(&self, key: &StatementKey) -> bool {
        self.hash == key.hash
            && *self.skeleton == *key.skeleton
            && self
                .literals
                .iter()
                .zip(&key.literals)
                .all(|(kept, v)| kept.as_ref().is_none_or(|k| k == v))
    }

    /// The slot values among a matching key's literals.
    fn slot_values(&self, mut literals: Vec<Value>) -> Vec<Value> {
        let mut kept = self.literals.iter();
        literals.retain(|_| kept.next().is_some_and(Option::is_none));
        literals
    }
}

/// A session's compiled one-shot statements, at most
/// [`PLAN_CACHE_ENTRIES`], replaced round-robin when full.
#[derive(Default)]
struct PlanCache {
    entries: Vec<Arc<CacheEntry>>,
    next: usize,
}

impl PlanCache {
    fn get(&self, key: &StatementKey) -> Option<Arc<CacheEntry>> {
        self.entries.iter().find(|e| e.matches(key)).cloned()
    }

    fn insert(&mut self, entry: Arc<CacheEntry>) {
        if self.entries.len() < PLAN_CACHE_ENTRIES {
            self.entries.push(entry);
        } else {
            self.entries[self.next] = entry;
            self.next = (self.next + 1) % PLAN_CACHE_ENTRIES;
        }
    }
}

/// A scope in flight ([`Session::begin_scope`]); `profile` holds the
/// counters at its start and the span recorder when profiling is on.
struct Scope {
    profile: Option<(MetricsSnapshot, Probe)>,
    started: Instant,
}

impl Scope {
    /// Closes the scope unrecorded.
    fn abandon(self) {
        if let Some((_, probe)) = self.profile {
            probe.finish(std::time::Duration::ZERO);
        }
    }
}

// ---------------------------------------------------------------------
// Streaming molecule cursor
// ---------------------------------------------------------------------

/// A pull-based cursor over the molecules of one query — the paper's
/// "one-molecule-at-a-time interface" surfaced at the facade. It borrows
/// the session it streams through ([`Session::query_cursor`],
/// [`Prepared::cursor`]).
///
/// Opening the cursor performs root access only (key lookup / access
/// path / scan, reported on the open's profile); the component atoms of
/// each molecule are fetched lazily through the level-batched read path
/// when the molecule is pulled via
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
///
/// The open and every fetch are profiled scopes of the session, labelled
/// with the cursor's statement text.
pub struct MoleculeCursor<'s> {
    session: &'s Session,
    access: Arc<AccessSystem>,
    /// The bound plan (its shape shared with the compiled statement).
    plan: ResolvedQuery,
    clusters: Vec<Arc<AtomClusterType>>,
    roots: VecDeque<Atom>,
    ctx: AssemblyCtx,
    /// The statement text, carried into the open and fetch profiles.
    text: String,
    /// `Some` when the cursor was opened outside a transaction: the
    /// pinned snapshot every fetch resolves against (and the thing that
    /// holds version GC back for the stream's lifetime).
    snapshot: Option<Snapshot>,
}

impl<'s> MoleculeCursor<'s> {
    /// Opens a cursor on the plan `plan` yields — compiled or bound inside
    /// the open's scope, so its profile shows the compile. A plan that
    /// fails leaves no record.
    fn open(
        session: &'s Session,
        text: &str,
        opts: &QueryOptions,
        plan: impl FnOnce() -> PrimaResult<ResolvedQuery>,
    ) -> PrimaResult<MoleculeCursor<'s>> {
        if opts.threads > 1 {
            return Err(PrimaError::BadStatement(
                "cursor delivery is piecewise and serial; use query() for parallel execution"
                    .into(),
            ));
        }
        let access = Arc::clone(&session.access);
        let scope = session.begin_scope();
        let plan = match plan() {
            Ok(plan) => plan,
            Err(e) => {
                scope.abandon();
                return Err(e);
            }
        };
        // No transaction open → the snapshot stays pinned for the
        // cursor's lifetime; otherwise open (and later fetch) under the
        // session's transaction, Shared-locking as usual.
        let snapshot = session.pin_read_snapshot();
        let found = session.with_read_guard(snapshot.as_ref(), |g| find_roots(&access, &plan, g));
        session.end_scope(scope, StatementKind::Select, text, false);
        let (roots, clusters) = found?;
        Ok(MoleculeCursor {
            session,
            ctx: AssemblyCtx::default(),
            plan,
            clusters,
            roots: roots.into(),
            access,
            text: text.to_string(),
            snapshot,
        })
    }

    /// Structure description of the delivered molecules (same indices as
    /// [`crate::datasys::MolAtom::node`]).
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.plan.node_infos
    }

    /// Number of root candidates not yet pulled.
    pub fn remaining_roots(&self) -> usize {
        self.roots.len()
    }

    /// Pulls and assembles up to `n` molecules — the paper's piecewise
    /// molecule-set delivery. Returns an empty vector when the stream is
    /// exhausted. (Roots whose molecule fails residual qualification are
    /// skipped and do not count towards `n`.)
    pub fn fetch(&mut self, n: usize) -> PrimaResult<Vec<Molecule>> {
        let scope = self.begin_fetch();
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
        self.end_fetch(scope);
        result
    }

    /// Pulls the molecule set description plus every remaining molecule
    /// (equivalent to what a materialising query would have returned for
    /// the unread tail).
    pub fn fetch_all(&mut self) -> PrimaResult<MoleculeSet> {
        let scope = self.begin_fetch();
        let result = (|| {
            let mut molecules = Vec::new();
            while let Some(m) = self.next_molecule()? {
                molecules.push(m);
            }
            Ok(MoleculeSet { nodes: Arc::clone(&self.plan.node_infos), molecules })
        })();
        self.end_fetch(scope);
        result
    }

    /// Opens a fetch's scope: a fetch is a slice of the cursor's
    /// statement, so it counts `cursor_fetches`, not the histograms.
    fn begin_fetch(&self) -> Scope {
        self.session.stats.cursor_fetched();
        self.session.begin_scope()
    }

    fn end_fetch(&self, scope: Scope) {
        self.session.end_scope(scope, StatementKind::Select, &self.text, false);
    }

    fn next_molecule(&mut self) -> PrimaResult<Option<Molecule>> {
        let Self { session, access, plan, clusters, roots, ctx, snapshot, .. } = self;
        session.with_read_guard(snapshot.as_ref(), |guard| {
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
                let produced = process_root(access, plan, root, clusters, ctx, guard)?;
                roots.pop_front();
                if produced.is_some() {
                    return Ok(produced);
                }
            }
            Ok(None)
        })
    }
}

impl Iterator for MoleculeCursor<'_> {
    type Item = PrimaResult<Molecule>;

    fn next(&mut self) -> Option<Self::Item> {
        let scope = self.begin_fetch();
        let result = self.next_molecule().transpose();
        self.end_fetch(scope);
        result
    }
}
