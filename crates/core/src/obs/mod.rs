//! Unified observability: statement profiler, metrics registry,
//! slow-statement log.
//!
//! PRIMA's layered architecture (Fig. 3.1) makes performance opaque by
//! construction: one MQL statement crosses parse/plan, lock or snapshot
//! resolution, vertical assembly, buffer fixes, device I/O and WAL
//! forces, and each layer counts its own work in one counter family
//! (declared with `prima_storage::counter_family!`). This module joins
//! them:
//!
//! * **Statement profiler** ([`profile`]): hierarchical timed spans
//!   threaded through the statement path via a thread-local recorder
//!   plus the storage crate's probe hook, producing a
//!   [`StatementProfile`] (span tree + per-layer counter deltas)
//!   retrievable as `Session::last_profile()` and pretty-printable in
//!   EXPLAIN-ANALYZE style. Off by default; a no-op behind one
//!   thread-local flag read when off (allocation-free — pinned by
//!   test).
//! * **Metrics registry** ([`metrics`]): `Prima::metrics()` returns a
//!   [`MetricsSnapshot`]: the six counter families (buffer, io, access,
//!   lock, version, api) plus log-bucketed latency histograms per
//!   statement kind, rendered Prometheus-style by
//!   [`MetricsSnapshot::render_text`]. A profile's counter deltas are a
//!   `MetricsSnapshot` delta too.
//! * **Slow-statement log** ([`slowlog`]): statements exceeding
//!   `PrimaBuilder::slow_statement_threshold` leave their full profile
//!   in a bounded ring, queryable via `Prima::slow_statements()`. A
//!   configured threshold force-enables profiling on every session (a
//!   threshold of zero therefore captures every statement).

pub mod histogram;
pub mod metrics;
pub mod profile;
pub mod slowlog;

pub use histogram::{bucket_bounds, bucket_index, HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use metrics::MetricsSnapshot;
pub use profile::{
    event, observed, span, span_guard, Probe, Span, SpanGuard, SpanKind, StatementKind,
    StatementProfile,
};
pub use slowlog::{SlowLog, DEFAULT_SLOW_LOG_CAPACITY};

use crate::session::ApiStats;
use crate::txn::TxnManager;
use prima_access::AccessSystem;
use prima_storage::StorageSystem;
use std::sync::Arc;
use std::time::Duration;

/// The kernel's observability hub: owned by `Prima`, shared with every
/// session. Holds the per-kind latency histograms (always on), the
/// slow-statement ring, and references to every layer's stats source so
/// snapshots are taken in one place.
pub struct Obs {
    storage: Arc<StorageSystem>,
    access: Arc<AccessSystem>,
    txn: Arc<TxnManager>,
    api: Arc<ApiStats>,
    statements: [LatencyHistogram; 5],
    slow: SlowLog,
    slow_threshold: Option<Duration>,
}

impl Obs {
    pub(crate) fn new(
        storage: Arc<StorageSystem>,
        access: Arc<AccessSystem>,
        txn: Arc<TxnManager>,
        api: Arc<ApiStats>,
        slow_threshold: Option<Duration>,
        slow_log_capacity: usize,
    ) -> Arc<Obs> {
        Arc::new(Obs {
            storage,
            access,
            txn,
            api,
            statements: Default::default(),
            slow: SlowLog::new(slow_log_capacity),
            slow_threshold,
        })
    }

    /// Whether a slow-statement threshold forces profiling on for every
    /// statement (profiles cannot be reconstructed after the fact, so a
    /// configured threshold keeps the profiler running).
    pub fn profile_all(&self) -> bool {
        self.slow_threshold.is_some()
    }

    /// The configured slow-statement threshold, if any.
    pub fn slow_threshold(&self) -> Option<Duration> {
        self.slow_threshold
    }

    /// Records one completed statement into its kind's histogram.
    /// Allocation-free; runs for every statement, profiled or not.
    pub fn record_statement(&self, kind: StatementKind, total: Duration) {
        self.statements[kind.index()].record(total.as_nanos() as u64);
    }

    /// Offers a finished profile to the slow log (kept when the
    /// configured threshold is met).
    pub fn note_profile(&self, profile: &StatementProfile) {
        if let Some(threshold) = self.slow_threshold {
            if profile.total >= threshold {
                self.slow.push(profile.clone());
            }
        }
    }

    /// The slow-statement ring's current contents, oldest first.
    pub fn slow_statements(&self) -> Vec<StatementProfile> {
        self.slow.entries()
    }

    /// One snapshot of every layer's counters and the statement
    /// histograms.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut statements = [HistogramSnapshot::default(); 5];
        for kind in StatementKind::ALL {
            statements[kind.index()] = self.statements[kind.index()].snapshot();
        }
        MetricsSnapshot {
            buffer: self.storage.buffer().stats().snapshot(),
            io: self.storage.io_stats().snapshot(),
            access: self.access.stats().snapshot(),
            lock: self.txn.lock_table().stats().snapshot(),
            version: self.txn.versions().stats(),
            api: self.api.snapshot(),
            statements,
        }
    }
}
