//! Granular lock table with Moss's nested-transaction rules and bounded
//! waiting.
//!
//! Two granules exist (Gray-style hierarchical locking, cut down to what
//! the kernel needs):
//!
//! * **atoms** — the unit DML and molecule assembly operate on;
//! * **type extensions** — "all atoms of one atom type", the granule a
//!   root scan reads. A query's root access takes `Shared` on the root
//!   type's extension; every manipulation takes `IntentExclusive` on the
//!   extension of each atom it writes. `Shared`/`IntentExclusive` are
//!   incompatible, so an uncommitted INSERT / DELETE / MODIFY is never
//!   silently missed (or seen) by a concurrent scan, while writers of
//!   *different* atoms coexist (`IntentExclusive` is compatible with
//!   itself).
//!
//! A transaction may hold several modes on the same target (scan then
//! insert ⇒ `Shared` + `IntentExclusive`, the classic SIX combination);
//! holders therefore carry a mode *set*, and a request conflicts when it
//! is incompatible with any mode a non-ancestor holds.
//!
//! # Waiting, timeouts, deadlocks
//!
//! A conflicting request no longer fails fast by default. It joins the
//! target's FIFO wait queue and parks on a condvar until it becomes
//! grantable, its bounded wait expires ([`TxnError::LockTimeout`]), or it
//! is chosen as a deadlock victim ([`TxnError::Deadlock`]). The policy:
//!
//! * **FIFO fairness** — a new request that conflicts with *any queued
//!   waiter* queues behind it even if it is compatible with the current
//!   holders, so a stream of readers cannot starve a waiting writer.
//!   Compatible co-waiters (S behind S) are granted together.
//! * **Upgrades** — a transaction that already holds modes on the target
//!   (S→X, S→SIX) never queues behind strangers' requests: only the
//!   current holders can block it, and if it must wait it is queued ahead
//!   of plain waiters. Two upgraders on the same target form a cycle and
//!   are resolved by victim selection, not by starvation.
//! * **Deadlock detection** — run at enqueue time (a new cycle needs a new
//!   wait-for edge, and edges only appear when someone enqueues). The
//!   wait-for graph is computed on demand under the table mutex: a waiter
//!   points at every conflicting non-ancestor holder and every
//!   incompatible non-ancestor waiter queued ahead of it. On a cycle the
//!   victim is the member holding the fewest locks (cheapest to roll
//!   back), ties broken youngest-first; the victim's `acquire` returns
//!   `Deadlock`, its caller aborts through the normal undo path, and
//!   `release_all` wakes the survivors.
//! * **Overload cap** — when a target's queue is at
//!   [`LockConfig::max_waiters_per_target`], further conflicting requests
//!   degrade to an immediate [`TxnError::LockConflict`] instead of
//!   growing the queue without bound.
//! * **No-wait mode** — [`LockConfig::no_wait`] restores the original
//!   fail-fast behavior exactly (queues stay empty, conflicts return
//!   `LockConflict`); single-threaded interleaving tests and fuzz
//!   schedules rely on it.
//!
//! Moss interaction: ancestors are never conflicts, as holders *or* as
//! waiters — a child never waits on (or deadlocks with) its own ancestor,
//! and `transfer` at subcommit re-checks waiters because merging a
//! child's modes into the parent can change who is grantable.
//!
//! Bookkeeping is indexed per transaction: `transfer` (subtransaction
//! commit) and `release_all` (top-level commit/abort) walk only the
//! transaction's own lock list — O(own locks), not O(table) — and entries
//! with no holders and no waiters are removed from the table, so the map
//! does not grow with every atom ever locked. [`LockTable::maintenance_visits`]
//! counts the entries those walks touch; a regression test pins the
//! O(own locks) behavior with it. [`LockStats`] counts acquisitions,
//! waits, wait time, timeouts and deadlocks.

use super::{TxnError, TxnId};
use parking_lot::{rank, Condvar, Mutex};
use prima_mad::value::{AtomId, AtomTypeId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

/// Lock modes. `IntentExclusive` exists only on type extensions (writers
/// announce "I change some atoms of this type"); atoms are locked
/// `Shared`/`Exclusive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    IntentExclusive,
    Exclusive,
}

/// What a lock protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockTarget {
    /// One atom.
    Atom(AtomId),
    /// The extension (current + future membership) of one atom type.
    Extension(AtomTypeId),
}

impl fmt::Display for LockTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockTarget::Atom(id) => write!(f, "{id}"),
            LockTarget::Extension(t) => write!(f, "extension(type{t})"),
        }
    }
}

/// Bit set of held modes (one transaction can hold Shared *and*
/// IntentExclusive on the same extension — SIX).
type ModeSet = u8;

const S: ModeSet = 1;
const IX: ModeSet = 2;
const X: ModeSet = 4;

fn bit(m: LockMode) -> ModeSet {
    match m {
        LockMode::Shared => S,
        LockMode::IntentExclusive => IX,
        LockMode::Exclusive => X,
    }
}

/// Standard compatibility: S+S and IX+IX coexist, everything else
/// conflicts (S vs IX included — that is the whole point of the intent
/// mode here: a scan must not overlap an uncommitted writer of the same
/// type).
fn compatible(held: ModeSet, req: LockMode) -> bool {
    match req {
        LockMode::Shared => held & (IX | X) == 0,
        LockMode::IntentExclusive => held & (S | X) == 0,
        LockMode::Exclusive => false,
    }
}

/// Whether two *requested* modes conflict (used for waiter-vs-waiter
/// ordering in the queue).
fn modes_conflict(a: LockMode, b: LockMode) -> bool {
    !compatible(bit(a), b)
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Wait-queue policy knobs, set once per [`LockTable`] (plumbed through
/// `Prima::builder().lock_config(..)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockConfig {
    /// How long a conflicting request may wait before failing with
    /// [`TxnError::LockTimeout`]. `Duration::ZERO` means fail fast with
    /// [`TxnError::LockConflict`] and never enqueue (the pre-wait-queue
    /// behavior).
    pub wait_timeout: Duration,
    /// Per-target queue cap: a conflicting request arriving at a full
    /// queue fails fast with [`TxnError::LockConflict`] instead of
    /// growing the queue (graceful degradation under overload).
    pub max_waiters_per_target: usize,
}

impl Default for LockConfig {
    fn default() -> Self {
        LockConfig { wait_timeout: Duration::from_millis(200), max_waiters_per_target: 64 }
    }
}

impl LockConfig {
    /// Fail-fast configuration: conflicts return [`TxnError::LockConflict`]
    /// immediately, no request ever parks.
    pub fn no_wait() -> Self {
        LockConfig { wait_timeout: Duration::ZERO, max_waiters_per_target: 0 }
    }

    /// Bounded wait with an explicit queue cap.
    pub fn bounded(wait_timeout: Duration, max_waiters_per_target: usize) -> Self {
        LockConfig { wait_timeout, max_waiters_per_target }
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

prima_storage::counter_family! {
    /// Contention counters, updated with relaxed atomics on the lock path.
    pub struct LockStats => LockStatsSnapshot as "lock" {
        /// Every [`LockTable::acquire`] call, granted or not — the total
        /// lock-table traffic. A pure snapshot reader must leave this at
        /// zero: the counter is what lets tests *prove* the lock-free claim
        /// rather than merely observe the absence of conflicts.
        counter acquisitions,
        /// Requests that parked at least once.
        counter waits,
        /// Total microseconds spent parked by requests that were eventually
        /// granted, timed out, or died as deadlock victims.
        counter wait_us_total,
        /// Longest single park, microseconds.
        gauge wait_us_max,
        /// Waits that expired into [`TxnError::LockTimeout`].
        counter timeouts,
        /// Cycles found by the enqueue-time wait-for-graph check; each
        /// dooms exactly one victim.
        counter deadlocks_detected,
        /// Conflicting requests bounced by the per-target queue cap.
        counter overflow_fastfails,
        /// Requests currently parked.
        gauge waiting_now,
        /// Deepest per-target queue ever observed.
        gauge max_queue_depth,
    }
}

impl LockStats {
    fn record_parked(&self, waited: Duration) {
        let us = waited.as_micros() as u64;
        self.wait_us_total.fetch_add(us, Relaxed);
        self.wait_us_max.fetch_max(us, Relaxed);
        self.waiting_now.fetch_sub(1, Relaxed);
        // The waiter parks on the statement's own thread, so the time
        // shows up in that statement's profile (no-op unprofiled).
        crate::obs::event(crate::obs::SpanKind::LockWait, waited.as_nanos() as u64, 0);
    }
}

// ---------------------------------------------------------------------------
// Table state
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
    /// The waiter's ancestor set (includes itself), captured at enqueue —
    /// used for conflict and wait-for-edge computation while parked.
    ancestors: Vec<TxnId>,
    /// Set when this waiter was chosen as a deadlock victim; it wakes,
    /// dequeues itself and returns [`TxnError::Deadlock`].
    doomed: bool,
    enqueued: Instant,
}

#[derive(Debug, Default)]
struct Entry {
    /// `(holder, modes)` — one slot per holding transaction.
    holders: Vec<(TxnId, ModeSet)>,
    /// FIFO wait queue (upgraders are inserted ahead of plain waiters).
    waiters: VecDeque<Waiter>,
}

impl Entry {
    fn holds(&self, t: TxnId) -> bool {
        self.holders.iter().any(|(h, _)| *h == t)
    }

    /// First holder whose mode set conflicts with `mode` and who is not in
    /// `ancestors` (Moss's rule: "all conflicting holders are ancestors").
    fn conflicting_holder(&self, ancestors: &[TxnId], mode: LockMode) -> Option<TxnId> {
        self.holders
            .iter()
            .find(|(h, held)| !compatible(*held, mode) && !ancestors.contains(h))
            .map(|(h, _)| *h)
    }

    /// Whether a request by `t` may be granted now. `queue_pos` is the
    /// requester's position if it is already queued (None for a fresh
    /// request, which must respect the whole queue). Holders always
    /// constrain; queued strangers only constrain non-upgraders — a
    /// transaction already holding modes on the target never queues
    /// behind strangers (cycles between upgraders are broken by victim
    /// selection instead).
    fn grantable(&self, t: TxnId, ancestors: &[TxnId], mode: LockMode, queue_pos: Option<usize>) -> bool {
        if self.conflicting_holder(ancestors, mode).is_some() {
            return false;
        }
        if self.holds(t) {
            return true;
        }
        let ahead = queue_pos.unwrap_or(self.waiters.len());
        !self.waiters.iter().take(ahead).any(|w| {
            !w.doomed && !ancestors.contains(&w.txn) && modes_conflict(w.mode, mode)
        })
    }

    /// First queued stranger whose requested mode conflicts with `mode`
    /// (reported as the `holder` of a fast-fail conflict when nobody
    /// *holds* a conflicting mode but the queue blocks the request).
    fn blocking_waiter(&self, ancestors: &[TxnId], mode: LockMode) -> Option<TxnId> {
        self.waiters
            .iter()
            .find(|w| !w.doomed && !ancestors.contains(&w.txn) && modes_conflict(w.mode, mode))
            .map(|w| w.txn)
    }
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<LockTarget, Entry>,
    /// Per-transaction list of targets the transaction holds locks on —
    /// the index `transfer`/`release_all` walk instead of the whole
    /// table. A target appears at most once per transaction (guarded by
    /// the holder-slot check in `acquire`).
    by_txn: HashMap<TxnId, Vec<LockTarget>>,
    /// Entries visited by `transfer` + `release_all` since construction
    /// (diagnostics; pins the O(own locks) maintenance cost).
    maintenance_visits: u64,
}

impl Inner {
    fn grant(&mut self, t: TxnId, target: LockTarget, mode: LockMode) {
        let e = self.entries.entry(target).or_default();
        match e.holders.iter_mut().find(|(h, _)| *h == t) {
            Some(slot) => slot.1 |= bit(mode),
            None => {
                e.holders.push((t, bit(mode)));
                self.by_txn.entry(t).or_default().push(target);
            }
        }
    }

    /// Removes `t`'s waiter from `target`'s queue, returning it.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn dequeue(&mut self, target: LockTarget, t: TxnId) -> Waiter {
        // lint: allow(error-hygiene, dequeue is only called for a txn whose waiter is queued and waiters pin their entry)
        let e = self.entries.get_mut(&target).expect("waiter keeps its entry alive");
        // lint: allow(error-hygiene, dequeue is only called for a txn whose waiter is queued)
        let pos = e.waiters.iter().position(|w| w.txn == t).expect("waiter is queued");
        // lint: allow(error-hygiene, position returned by the search on the previous line)
        let w = e.waiters.remove(pos).expect("position just found");
        if e.holders.is_empty() && e.waiters.is_empty() {
            self.entries.remove(&target);
        }
        w
    }

    /// Wait-for edges of the waiter at `pos` in `target`'s queue: every
    /// conflicting non-ancestor holder, plus (for non-upgraders) every
    /// incompatible non-ancestor, non-doomed waiter queued ahead.
    fn blockers(&self, target: LockTarget, pos: usize) -> Vec<TxnId> {
        let e = &self.entries[&target];
        let w = &e.waiters[pos];
        let mut out: Vec<TxnId> = e
            .holders
            .iter()
            .filter(|(h, held)| !compatible(*held, w.mode) && !w.ancestors.contains(h))
            .map(|(h, _)| *h)
            .collect();
        if !e.holds(w.txn) {
            out.extend(
                e.waiters
                    .iter()
                    .take(pos)
                    .filter(|a| {
                        !a.doomed && !w.ancestors.contains(&a.txn) && modes_conflict(a.mode, w.mode)
                    })
                    .map(|a| a.txn),
            );
        }
        out
    }

    /// `txn -> (target, queue position)` for every live (non-doomed)
    /// waiter. A transaction waits on at most one target at a time (it is
    /// inside one blocked `acquire`).
    fn waiting_map(&self) -> HashMap<TxnId, (LockTarget, usize)> {
        let mut m = HashMap::new();
        for (target, e) in &self.entries {
            for (i, w) in e.waiters.iter().enumerate() {
                if !w.doomed {
                    m.insert(w.txn, (*target, i));
                }
            }
        }
        m
    }

    /// Finds one wait-for cycle through `start` (which must be queued), as
    /// the list of transactions on the cycle. Only waiting transactions
    /// can be cycle members — a blocker that is not itself waiting has no
    /// outgoing edges.
    fn find_cycle(&self, start: TxnId) -> Option<Vec<TxnId>> {
        let waiting = self.waiting_map();
        let mut path = vec![start];
        let mut visited: HashSet<TxnId> = [start].into();
        if self.dfs(&waiting, start, start, &mut path, &mut visited) {
            Some(path)
        } else {
            None
        }
    }

    fn dfs(
        &self,
        waiting: &HashMap<TxnId, (LockTarget, usize)>,
        node: TxnId,
        start: TxnId,
        path: &mut Vec<TxnId>,
        visited: &mut HashSet<TxnId>,
    ) -> bool {
        let Some(&(target, pos)) = waiting.get(&node) else { return false };
        for b in self.blockers(target, pos) {
            if b == start {
                return true;
            }
            if visited.insert(b) {
                path.push(b);
                if self.dfs(waiting, b, start, path, visited) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }

    /// Victim = cycle member holding the fewest locks (cheapest rollback),
    /// ties broken youngest-first (largest TxnId — least work lost).
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    fn pick_victim(&self, cycle: &[TxnId]) -> TxnId {
        *cycle
            .iter()
            .min_by_key(|t| (self.by_txn.get(*t).map_or(0, Vec::len), std::cmp::Reverse(t.0)))
            // lint: allow(error-hygiene, a detected deadlock cycle has at least one participant)
            .expect("cycle is non-empty")
    }

    /// Marks `victim`'s waiter doomed wherever it is queued.
    fn doom(&mut self, victim: TxnId) {
        for e in self.entries.values_mut() {
            for w in &mut e.waiters {
                if w.txn == victim {
                    w.doomed = true;
                    return;
                }
            }
        }
    }
}

/// The lock table.
#[derive(Debug)]
pub struct LockTable {
    // lockrank: locktable.0 — entry map + wait queues; held across grant
    // bookkeeping and condvar parks, never across I/O or access descent.
    inner: Mutex<Inner>,
    /// Single condvar for all waiters: releases/transfers/grants are rare
    /// relative to parked time and wake everyone to re-check eligibility.
    cv: Condvar,
    config: LockConfig,
    stats: LockStats,
}

impl Default for LockTable {
    fn default() -> Self {
        LockTable {
            inner: Mutex::new_ranked(Inner::default(), rank::LOCKTABLE),
            cv: Condvar::new(),
            config: LockConfig::default(),
            stats: LockStats::default(),
        }
    }
}

impl LockTable {
    /// Table with the default bounded-wait configuration.
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_config(config: LockConfig) -> Self {
        LockTable { config, ..Self::default() }
    }

    pub fn config(&self) -> LockConfig {
        self.config
    }

    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Acquires `mode` on `target` for `t`. `ancestors` must contain `t`
    /// itself plus all its ancestors; a conflicting holder is tolerated
    /// iff it is in that set (Moss's rule: "all holders are ancestors").
    ///
    /// A conflicting request waits (bounded by
    /// [`LockConfig::wait_timeout`]) in the target's FIFO queue; it fails
    /// with [`TxnError::LockConflict`] when waiting is disabled or the
    /// queue is full, [`TxnError::LockTimeout`] when the wait expires, and
    /// [`TxnError::Deadlock`] when it is chosen to break a wait-for cycle.
    #[allow(clippy::unwrap_used, clippy::expect_used)]
    pub fn acquire(
        &self,
        t: TxnId,
        ancestors: &[TxnId],
        target: LockTarget,
        mode: LockMode,
    ) -> Result<(), TxnError> {
        self.stats.acquisitions.fetch_add(1, Relaxed);
        let mut inner = self.inner.lock();
        let can = match inner.entries.get(&target) {
            None => true,
            Some(e) => e.grantable(t, ancestors, mode, None),
        };
        if can {
            inner.grant(t, target, mode);
            return Ok(());
        }

        // Conflict. Identify a blocker for error reporting: a conflicting
        // holder if one exists, else the queued stranger we would wait on.
        let e = &inner.entries[&target];
        let holder = e
            .conflicting_holder(ancestors, mode)
            .or_else(|| e.blocking_waiter(ancestors, mode))
            // lint: allow(error-hygiene, a non-grantable request always has a holder or queued stranger blocking it)
            .expect("not grantable implies a blocker");
        if self.config.wait_timeout.is_zero() {
            return Err(TxnError::LockConflict { target, holder });
        }
        if e.waiters.len() >= self.config.max_waiters_per_target {
            self.stats.overflow_fastfails.fetch_add(1, Relaxed);
            return Err(TxnError::LockConflict { target, holder });
        }

        // Enqueue: upgraders go ahead of plain waiters (but behind other
        // queued upgraders) so holders block them but strangers do not.
        // lint: allow(error-hygiene, a conflict was just observed on this entry under the same lock acquisition)
        let e = inner.entries.get_mut(&target).expect("conflict implies entry");
        let pos = if e.holds(t) {
            let held: Vec<TxnId> = e.holders.iter().map(|(h, _)| *h).collect();
            let mut i = 0;
            while i < e.waiters.len() && held.contains(&e.waiters[i].txn) {
                i += 1;
            }
            i
        } else {
            e.waiters.len()
        };
        e.waiters.insert(
            pos,
            Waiter {
                txn: t,
                mode,
                ancestors: ancestors.to_vec(),
                doomed: false,
                enqueued: Instant::now(),
            },
        );
        let depth = e.waiters.len() as u64;
        self.stats.waits.fetch_add(1, Relaxed);
        self.stats.waiting_now.fetch_add(1, Relaxed);
        self.stats.max_queue_depth.fetch_max(depth, Relaxed);

        // Deadlock check: enqueuing added the only new wait-for edges, so
        // any new cycle runs through `t`. Doom victims until no cycle
        // through `t` remains (each doomed waiter loses its edges).
        let mut doomed_any = false;
        while let Some(cycle) = inner.find_cycle(t) {
            self.stats.deadlocks_detected.fetch_add(1, Relaxed);
            let victim = inner.pick_victim(&cycle);
            if victim == t {
                let w = inner.dequeue(target, t);
                self.stats.record_parked(w.enqueued.elapsed());
                if doomed_any {
                    self.cv.notify_all();
                }
                return Err(TxnError::Deadlock { victim, target });
            }
            inner.doom(victim);
            doomed_any = true;
        }
        if doomed_any {
            self.cv.notify_all();
        }

        // Park until grantable, doomed, or timed out.
        let deadline = Instant::now() + self.config.wait_timeout;
        loop {
            let e = &inner.entries[&target];
            // lint: allow(error-hygiene, the timed-out waiter was enqueued by this same call and nobody else removes it)
            let pos = e.waiters.iter().position(|w| w.txn == t).expect("still queued");
            if e.waiters[pos].doomed {
                let w = inner.dequeue(target, t);
                self.stats.record_parked(w.enqueued.elapsed());
                // Our removal may unblock waiters queued behind us.
                self.cv.notify_all();
                return Err(TxnError::Deadlock { victim: t, target });
            }
            if e.grantable(t, &e.waiters[pos].ancestors, mode, Some(pos)) {
                let w = inner.dequeue(target, t);
                self.stats.record_parked(w.enqueued.elapsed());
                inner.grant(t, target, mode);
                self.cv.notify_all();
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                let w = inner.dequeue(target, t);
                self.stats.record_parked(w.enqueued.elapsed());
                self.stats.timeouts.fetch_add(1, Relaxed);
                self.cv.notify_all();
                return Err(TxnError::LockTimeout { target, waited: self.config.wait_timeout });
            }
            self.cv.wait_for(&mut inner, deadline - now);
        }
    }

    /// Transfers all of `from`'s locks to `to` (subtransaction commit —
    /// "anti-inheritance"). Walks only `from`'s own lock list. Waiters on
    /// the touched targets are woken: merging modes into the parent can
    /// change who is grantable (e.g. the parent was the only other
    /// conflicting holder).
    pub fn transfer(&self, from: TxnId, to: TxnId) {
        let mut inner = self.inner.lock();
        let Some(targets) = inner.by_txn.remove(&from) else { return };
        let mut woke = false;
        for target in targets {
            inner.maintenance_visits += 1;
            let Some(e) = inner.entries.get_mut(&target) else { continue };
            let Some(pos) = e.holders.iter().position(|(h, _)| *h == from) else { continue };
            let (_, modes) = e.holders.swap_remove(pos);
            let new_holder = match e.holders.iter_mut().find(|(h, _)| *h == to) {
                Some(slot) => {
                    slot.1 |= modes;
                    false
                }
                None => {
                    e.holders.push((to, modes));
                    true
                }
            };
            woke |= !e.waiters.is_empty();
            if new_holder {
                inner.by_txn.entry(to).or_default().push(target);
            }
        }
        if woke {
            self.cv.notify_all();
        }
    }

    /// Releases all locks of `t` (top-level commit or abort), reaping
    /// entries with no holders and no waiters, and waking waiters on every
    /// target that still has some. Walks only `t`'s own lock list.
    pub fn release_all(&self, t: TxnId) {
        let mut inner = self.inner.lock();
        let Some(targets) = inner.by_txn.remove(&t) else { return };
        let mut woke = false;
        for target in targets {
            inner.maintenance_visits += 1;
            let Some(e) = inner.entries.get_mut(&target) else { continue };
            e.holders.retain(|(h, _)| *h != t);
            woke |= !e.waiters.is_empty();
            if e.holders.is_empty() && e.waiters.is_empty() {
                inner.entries.remove(&target);
            }
        }
        if woke {
            self.cv.notify_all();
        }
    }

    /// Number of targets with at least one lock or waiter (diagnostics).
    /// Returns to zero once every transaction has committed or aborted —
    /// drained entries are reaped, the table does not grow monotonically.
    pub fn locked_targets(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Number of locks `t` currently holds (diagnostics).
    pub fn held_by(&self, t: TxnId) -> usize {
        self.inner.lock().by_txn.get(&t).map_or(0, std::vec::Vec::len)
    }

    /// Targets that currently have waiters, with their queue depths
    /// (diagnostics; the live complement of the [`LockStats`] counters).
    pub fn queue_depths(&self) -> Vec<(LockTarget, usize)> {
        self.inner
            .lock()
            .entries
            .iter()
            .filter(|(_, e)| !e.waiters.is_empty())
            .map(|(t, e)| (*t, e.waiters.len()))
            .collect()
    }

    /// Entries visited by `transfer`/`release_all` so far — the
    /// maintenance cost, which must scale with the finishing
    /// transaction's own lock count, never with the table size.
    pub fn maintenance_visits(&self) -> u64 {
        self.inner.lock().maintenance_visits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::mpsc;
    use std::thread;

    fn atom(n: u64) -> LockTarget {
        LockTarget::Atom(AtomId::new(0, n))
    }

    fn ext(t: AtomTypeId) -> LockTarget {
        LockTarget::Extension(t)
    }

    /// Fail-fast table: the single-threaded conflict tests below pin the
    /// original no-wait semantics.
    fn no_wait() -> LockTable {
        LockTable::with_config(LockConfig::no_wait())
    }

    #[test]
    fn shared_locks_coexist() {
        let lt = no_wait();
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Shared).unwrap();
        lt.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Shared).unwrap();
        assert_eq!(lt.locked_targets(), 1);
    }

    #[test]
    fn exclusive_conflicts_with_stranger() {
        let lt = no_wait();
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Exclusive).unwrap();
        let err = lt.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Shared).unwrap_err();
        assert!(matches!(err, TxnError::LockConflict { holder: TxnId(1), .. }));
        let err = lt.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, TxnError::LockConflict { .. }));
    }

    #[test]
    fn intent_exclusive_coexists_with_itself_but_not_shared() {
        let lt = no_wait();
        // Two writers of different atoms announce intent on the same type.
        lt.acquire(TxnId(1), &[TxnId(1)], ext(7), LockMode::IntentExclusive).unwrap();
        lt.acquire(TxnId(2), &[TxnId(2)], ext(7), LockMode::IntentExclusive).unwrap();
        // A scanning reader conflicts with both.
        let err = lt.acquire(TxnId(3), &[TxnId(3)], ext(7), LockMode::Shared);
        assert!(err.is_err());
        // And a reader-held extension blocks a new writer.
        lt.acquire(TxnId(3), &[TxnId(3)], ext(8), LockMode::Shared).unwrap();
        let err = lt.acquire(TxnId(1), &[TxnId(1)], ext(8), LockMode::IntentExclusive);
        assert!(err.is_err());
    }

    #[test]
    fn scan_then_write_combines_modes_six_style() {
        let lt = no_wait();
        // One transaction scans (S) then inserts (IX) into the same type.
        lt.acquire(TxnId(1), &[TxnId(1)], ext(7), LockMode::Shared).unwrap();
        lt.acquire(TxnId(1), &[TxnId(1)], ext(7), LockMode::IntentExclusive).unwrap();
        // The combined hold blocks both readers and writers.
        assert!(lt.acquire(TxnId(2), &[TxnId(2)], ext(7), LockMode::Shared).is_err());
        assert!(lt
            .acquire(TxnId(2), &[TxnId(2)], ext(7), LockMode::IntentExclusive)
            .is_err());
        // Exactly one index entry despite two modes.
        assert_eq!(lt.held_by(TxnId(1)), 1);
    }

    #[test]
    fn ancestor_holding_lock_is_not_a_conflict() {
        let lt = no_wait();
        // parent 1 holds X; child 2 (ancestors [2,1]) may acquire.
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Exclusive).unwrap();
        lt.acquire(TxnId(2), &[TxnId(2), TxnId(1)], atom(1), LockMode::Exclusive).unwrap();
        // sibling 3 (ancestors [3,1]) conflicts with 2's X.
        let err = lt.acquire(TxnId(3), &[TxnId(3), TxnId(1)], atom(1), LockMode::Shared);
        assert!(err.is_err());
    }

    #[test]
    fn transfer_on_subcommit() {
        let lt = no_wait();
        lt.acquire(TxnId(2), &[TxnId(2), TxnId(1)], atom(1), LockMode::Exclusive).unwrap();
        lt.transfer(TxnId(2), TxnId(1));
        // A stranger still conflicts — now with txn 1.
        let err = lt.acquire(TxnId(9), &[TxnId(9)], atom(1), LockMode::Shared).unwrap_err();
        assert!(matches!(err, TxnError::LockConflict { holder: TxnId(1), .. }));
        // Another child of 1 may acquire (holder is its ancestor).
        lt.acquire(TxnId(3), &[TxnId(3), TxnId(1)], atom(1), LockMode::Shared).unwrap();
        // The transferred lock is indexed under the parent now.
        assert_eq!(lt.held_by(TxnId(2)), 0);
        assert_eq!(lt.held_by(TxnId(1)), 1);
    }

    #[test]
    fn release_all_clears_and_reaps_entries() {
        let lt = no_wait();
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Exclusive).unwrap();
        lt.acquire(TxnId(1), &[TxnId(1)], atom(2), LockMode::Shared).unwrap();
        lt.acquire(TxnId(1), &[TxnId(1)], ext(0), LockMode::IntentExclusive).unwrap();
        lt.release_all(TxnId(1));
        assert_eq!(lt.locked_targets(), 0, "empty entries must be reaped");
        lt.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Exclusive).unwrap();
    }

    #[test]
    fn table_does_not_grow_with_every_atom_ever_locked() {
        let lt = no_wait();
        for round in 0..50u64 {
            let t = TxnId(round + 1);
            for n in 0..100 {
                lt.acquire(t, &[t], atom(round * 100 + n), LockMode::Exclusive).unwrap();
            }
            lt.release_all(t);
            assert_eq!(lt.locked_targets(), 0, "round {round} left entries behind");
        }
    }

    #[test]
    fn maintenance_walks_own_locks_not_the_table() {
        let lt = no_wait();
        // A long-lived transaction holds 1000 locks.
        for n in 0..1000 {
            lt.acquire(TxnId(1), &[TxnId(1)], atom(n), LockMode::Shared).unwrap();
        }
        // A small transaction holds 2.
        lt.acquire(TxnId(2), &[TxnId(2)], atom(5000), LockMode::Exclusive).unwrap();
        lt.acquire(TxnId(2), &[TxnId(2)], atom(5001), LockMode::Exclusive).unwrap();
        let before = lt.maintenance_visits();
        lt.release_all(TxnId(2));
        assert_eq!(
            lt.maintenance_visits() - before,
            2,
            "releasing a 2-lock txn must visit 2 entries, not the 1000-entry table"
        );
        // Same for subtransaction transfer.
        lt.acquire(TxnId(3), &[TxnId(3), TxnId(1)], atom(6000), LockMode::Exclusive).unwrap();
        let before = lt.maintenance_visits();
        lt.transfer(TxnId(3), TxnId(1));
        assert_eq!(lt.maintenance_visits() - before, 1);
    }

    #[test]
    fn shared_then_upgrade_by_same_txn() {
        let lt = no_wait();
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Shared).unwrap();
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Exclusive).unwrap();
        let err = lt.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Shared);
        assert!(err.is_err());
    }

    // --- wait-queue behavior ------------------------------------------------

    /// Bounded-wait table with a generous timeout for blocking tests.
    fn waiting(ms: u64) -> Arc<LockTable> {
        Arc::new(LockTable::with_config(LockConfig::bounded(Duration::from_millis(ms), 16)))
    }

    #[test]
    fn waiter_is_granted_after_release() {
        let lt = waiting(5000);
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Exclusive).unwrap();
        let lt2 = Arc::clone(&lt);
        let h = thread::spawn(move || {
            lt2.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Exclusive)
        });
        // Give the waiter time to park, then release.
        while lt.queue_depths().is_empty() {
            thread::yield_now();
        }
        lt.release_all(TxnId(1));
        h.join().unwrap().expect("waiter granted after release");
        let s = lt.stats().snapshot();
        assert_eq!(s.waits, 1);
        assert_eq!(s.timeouts, 0);
        assert_eq!(s.waiting_now, 0);
        assert!(s.max_queue_depth >= 1);
    }

    #[test]
    fn bounded_wait_times_out() {
        let lt = waiting(30);
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Exclusive).unwrap();
        let err = lt.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Shared).unwrap_err();
        assert!(matches!(err, TxnError::LockTimeout { .. }));
        let s = lt.stats().snapshot();
        assert_eq!(s.timeouts, 1);
        assert!(s.wait_us_total > 0, "timed-out wait must be accounted");
        // The queue drained; the entry still has its holder.
        assert!(lt.queue_depths().is_empty());
    }

    #[test]
    fn queue_cap_degrades_to_fast_fail() {
        let lt = Arc::new(LockTable::with_config(LockConfig::bounded(
            Duration::from_millis(5000),
            1,
        )));
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Exclusive).unwrap();
        let lt2 = Arc::clone(&lt);
        let h = thread::spawn(move || {
            lt2.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Exclusive)
        });
        while lt.queue_depths().is_empty() {
            thread::yield_now();
        }
        // Queue is at the cap: the third request bounces immediately.
        let err = lt.acquire(TxnId(3), &[TxnId(3)], atom(1), LockMode::Shared).unwrap_err();
        assert!(matches!(err, TxnError::LockConflict { .. }));
        assert_eq!(lt.stats().snapshot().overflow_fastfails, 1);
        lt.release_all(TxnId(1));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn two_txn_deadlock_picks_exactly_one_victim() {
        let lt = waiting(5000);
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Exclusive).unwrap();
        lt.acquire(TxnId(2), &[TxnId(2)], atom(2), LockMode::Exclusive).unwrap();
        let lt2 = Arc::clone(&lt);
        let h = thread::spawn(move || {
            // 1 waits for 2's atom.
            lt2.acquire(TxnId(1), &[TxnId(1)], atom(2), LockMode::Exclusive)
        });
        while lt.queue_depths().is_empty() {
            thread::yield_now();
        }
        // 2 requests 1's atom: cycle {1, 2}. Both hold the same number of
        // locks, so the younger (2, the requester) dies immediately.
        let err = lt.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Exclusive).unwrap_err();
        assert!(matches!(err, TxnError::Deadlock { victim: TxnId(2), .. }));
        // The survivor is granted once the victim rolls back.
        lt.release_all(TxnId(2));
        h.join().unwrap().expect("survivor granted after victim released");
        let s = lt.stats().snapshot();
        assert_eq!(s.deadlocks_detected, 1);
    }

    #[test]
    fn victim_with_fewest_locks_is_preferred() {
        let lt = waiting(5000);
        // 1 holds two locks, 2 holds one: 2 is the cheaper victim even
        // though 1 is the requester closing the cycle.
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Exclusive).unwrap();
        lt.acquire(TxnId(1), &[TxnId(1)], atom(3), LockMode::Exclusive).unwrap();
        lt.acquire(TxnId(2), &[TxnId(2)], atom(2), LockMode::Exclusive).unwrap();
        let lt2 = Arc::clone(&lt);
        let h = thread::spawn(move || {
            let r = lt2.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Exclusive);
            if r.is_err() {
                // The victim's caller aborts, releasing its locks.
                lt2.release_all(TxnId(2));
            }
            r
        });
        while lt.queue_depths().is_empty() {
            thread::yield_now();
        }
        // 1 requests 2's atom, closing the cycle; parked 2 is doomed.
        let err = lt.acquire(TxnId(1), &[TxnId(1)], atom(2), LockMode::Exclusive);
        let parked = h.join().unwrap();
        assert!(
            matches!(parked, Err(TxnError::Deadlock { victim: TxnId(2), .. })),
            "parked txn 2 (fewest locks) must be the victim, got {parked:?}"
        );
        err.expect("requester granted once the victim aborts");
        lt.release_all(TxnId(1));
    }

    #[test]
    fn fifo_reader_does_not_overtake_queued_writer() {
        let lt = waiting(5000);
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Shared).unwrap();
        let lt2 = Arc::clone(&lt);
        let (tx, rx) = mpsc::channel();
        let writer = thread::spawn(move || {
            let r = lt2.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Exclusive);
            tx.send(()).unwrap();
            r
        });
        while lt.queue_depths().is_empty() {
            thread::yield_now();
        }
        // A fresh reader is compatible with the S holder but must queue
        // behind the waiting writer.
        let lt3 = Arc::clone(&lt);
        let reader = thread::spawn(move || {
            lt3.acquire(TxnId(3), &[TxnId(3)], atom(1), LockMode::Shared)
        });
        while lt.queue_depths().first().map_or(0, |(_, d)| *d) < 2 {
            thread::yield_now();
        }
        assert!(
            rx.try_recv().is_err(),
            "writer must still be parked while the first reader holds S"
        );
        // Release the original reader: the writer must be granted first.
        lt.release_all(TxnId(1));
        writer.join().unwrap().expect("writer granted in FIFO order");
        // The late reader is granted only after the writer releases.
        lt.release_all(TxnId(2));
        reader.join().unwrap().expect("reader granted after writer");
        lt.release_all(TxnId(3));
        assert_eq!(lt.locked_targets(), 0);
    }

    #[test]
    fn upgrade_waits_for_other_reader_not_for_queued_strangers() {
        let lt = waiting(5000);
        // 1 and 2 both hold S; 1 wants X (upgrade), blocked only by 2.
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Shared).unwrap();
        lt.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Shared).unwrap();
        let lt2 = Arc::clone(&lt);
        let h = thread::spawn(move || {
            lt2.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Exclusive)
        });
        while lt.queue_depths().is_empty() {
            thread::yield_now();
        }
        // 2 releases: the upgrade proceeds without self-blocking on 1's
        // own S hold.
        lt.release_all(TxnId(2));
        h.join().unwrap().expect("upgrade granted after the other reader left");
        lt.release_all(TxnId(1));
    }

    #[test]
    fn upgrade_deadlock_between_two_readers_dooms_one() {
        let lt = waiting(5000);
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Shared).unwrap();
        lt.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Shared).unwrap();
        let lt2 = Arc::clone(&lt);
        let h = thread::spawn(move || {
            let r = lt2.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Exclusive);
            if r.is_err() {
                lt2.release_all(TxnId(1));
            }
            r
        });
        while lt.queue_depths().is_empty() {
            thread::yield_now();
        }
        // 2 also upgrades: each waits for the other's S — a cycle no
        // release will ever break. Exactly one dies.
        let r2 = lt.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Exclusive);
        if r2.is_err() {
            lt.release_all(TxnId(2));
        }
        let r1 = h.join().unwrap();
        let deadlocks = [&r1, &r2]
            .iter()
            .filter(|r| matches!(r, Err(TxnError::Deadlock { .. })))
            .count();
        assert_eq!(deadlocks, 1, "exactly one upgrader dies: r1={r1:?} r2={r2:?}");
        assert_eq!(lt.stats().snapshot().deadlocks_detected, 1);
    }

    #[test]
    fn no_wait_config_keeps_queues_empty() {
        let lt = no_wait();
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Exclusive).unwrap();
        for _ in 0..10 {
            assert!(lt.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Shared).is_err());
        }
        let s = lt.stats().snapshot();
        assert_eq!(s.waits, 0);
        assert_eq!(s.max_queue_depth, 0);
        assert!(lt.queue_depths().is_empty());
    }

    #[test]
    fn stats_rendering_reports_a_timed_out_wait() {
        let lt = waiting(10);
        lt.acquire(TxnId(1), &[TxnId(1)], atom(1), LockMode::Exclusive).unwrap();
        let _ = lt.acquire(TxnId(2), &[TxnId(2)], atom(1), LockMode::Shared);
        let mut text = String::new();
        lt.stats().snapshot().render_into(&mut text);
        for line in [
            "prima_lock_acquisitions 2",
            "prima_lock_waits 1",
            "prima_lock_timeouts 1",
            "prima_lock_deadlocks_detected 0",
            "prima_lock_overflow_fastfails 0",
            "prima_lock_waiting_now 0",
            "prima_lock_max_queue_depth 1",
        ] {
            assert!(text.lines().any(|l| l == line), "missing {line:?}:\n{text}");
        }
    }
}
