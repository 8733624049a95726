//! The kernel-wide metrics registry: one coherent snapshot of every
//! layer's counters plus per-statement-kind latency histograms.

use super::histogram::HistogramSnapshot;
use super::profile::StatementKind;
use crate::session::ApiStatsSnapshot;
use crate::txn::{LockStatsSnapshot, VersionStatsSnapshot};
use prima_access::AccessStatsSnapshot;
use prima_storage::buffer::BufferStatsSnapshot;
use prima_storage::stats::IoSnapshot;
use std::fmt::Write as _;

/// One coherent point-in-time view across every layer of the Fig. 3.1
/// stack: the six counter families and the per-kind statement latency
/// histograms. Obtained from `Prima::metrics()`; a
/// [`StatementProfile`](super::StatementProfile) carries a delta of it.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Storage layer: buffer manager.
    pub buffer: BufferStatsSnapshot,
    /// Storage layer: device transfers + WAL.
    pub io: IoSnapshot,
    /// Access layer: record reads/writes, batched reads.
    pub access: AccessStatsSnapshot,
    /// Transaction layer: lock-table contention.
    pub lock: LockStatsSnapshot,
    /// Transaction layer: MVCC version store.
    pub version: VersionStatsSnapshot,
    /// Data-system facade: parse/plan/execute counters.
    pub api: ApiStatsSnapshot,
    /// Latency histogram per statement kind, indexed by
    /// [`StatementKind::index`].
    pub statements: [HistogramSnapshot; 5],
}

impl MetricsSnapshot {
    /// The histogram of one statement kind.
    pub fn statement_latency(&self, kind: StatementKind) -> &HistogramSnapshot {
        &self.statements[kind.index()]
    }

    /// Component-wise delta `self - earlier` across every family
    /// (gauges and running maxima keep their current value).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut statements = [HistogramSnapshot::default(); 5];
        for k in StatementKind::ALL {
            statements[k.index()] =
                self.statements[k.index()].delta(&earlier.statements[k.index()]);
        }
        MetricsSnapshot {
            buffer: self.buffer.since(&earlier.buffer),
            io: self.io.since(&earlier.io),
            access: self.access.since(&earlier.access),
            lock: self.lock.since(&earlier.lock),
            version: self.version.since(&earlier.version),
            api: self.api.since(&earlier.api),
            statements,
        }
    }

    /// Prometheus-style text rendering: every counter of every family
    /// as `prima_<family>_<field> <value>` lines, followed by the
    /// per-kind latency histograms (count, sum, quantiles, max).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.render_counters(&mut out);
        for kind in StatementKind::ALL {
            let h = self.statement_latency(kind);
            let k = kind.label();
            let _ = writeln!(out, "prima_statement_latency_count{{kind=\"{k}\"}} {}", h.count);
            let _ = writeln!(out, "prima_statement_latency_sum_ns{{kind=\"{k}\"}} {}", h.sum_ns);
            for (q, v) in
                [("0.5", h.p50()), ("0.95", h.p95()), ("0.99", h.p99()), ("max", h.max_ns)]
            {
                let _ = writeln!(
                    out,
                    "prima_statement_latency_ns{{kind=\"{k}\",quantile=\"{q}\"}} {v}"
                );
            }
        }
        out
    }

    /// Appends every family's `prima_<family>_<field> <value>` lines.
    pub(crate) fn render_counters(&self, out: &mut String) {
        self.buffer.render_into(out);
        self.io.render_into(out);
        self.access.render_into(out);
        self.lock.render_into(out);
        self.version.render_into(out);
        self.api.render_into(out);
    }

    /// Cross-layer coherence invariants over a **quiesced** kernel (no
    /// statement in flight, no transaction open). Returns every violated
    /// invariant; the crash-fuzz harness runs this after each schedule so
    /// counter-accounting bugs surface with a reproducible seed.
    pub fn check_coherence(&self) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        let mut check = |ok: bool, msg: String| {
            if !ok {
                violations.push(msg);
            }
        };
        // Buffer: fix_new bumps fix_calls without a hit/miss outcome, so
        // hit + miss can only undershoot the call count.
        check(
            self.buffer.hits + self.buffer.misses <= self.buffer.fix_calls,
            format!(
                "buffer: hits {} + misses {} > fix_calls {}",
                self.buffer.hits, self.buffer.misses, self.buffer.fix_calls
            ),
        );
        check(
            self.buffer.pages_loaded <= self.buffer.misses,
            format!(
                "buffer: pages_loaded {} > misses {}",
                self.buffer.pages_loaded, self.buffer.misses
            ),
        );
        // A reused frame is an evicted one installed again.
        check(
            self.buffer.frames_reused <= self.buffer.evictions,
            format!(
                "buffer: frames_reused {} > evictions {}",
                self.buffer.frames_reused, self.buffer.evictions
            ),
        );
        // I/O: chained blocks are double-counted into block_reads; a WAL
        // force always carries at least one appended byte.
        check(
            self.io.chained_blocks <= self.io.block_reads,
            format!(
                "io: chained_blocks {} > block_reads {}",
                self.io.chained_blocks, self.io.block_reads
            ),
        );
        check(
            self.io.wal_forces <= self.io.wal_bytes,
            format!("io: wal_forces {} > wal_bytes {}", self.io.wal_forces, self.io.wal_bytes),
        );
        // Group commit: every commit-carrying batch is a device force
        // (the WAL's shared accounting funnel — force *and* the
        // checkpoint reset's re-append — counts both or neither), and a
        // batch carries at least one commit record.
        check(
            self.io.group_commit_batches <= self.io.wal_forces,
            format!(
                "io: group_commit_batches {} > wal_forces {}",
                self.io.group_commit_batches, self.io.wal_forces
            ),
        );
        check(
            self.io.group_commit_batches <= self.io.group_commit_commits,
            format!(
                "io: group_commit_batches {} > group_commit_commits {}",
                self.io.group_commit_batches, self.io.group_commit_commits
            ),
        );
        // Access: a non-degenerate batch reads ≥ 2 atoms over ≥ 1 page.
        check(
            self.access.batch_reads <= self.access.batch_atoms,
            format!(
                "access: batch_reads {} > batch_atoms {}",
                self.access.batch_reads, self.access.batch_atoms
            ),
        );
        check(
            self.access.batch_pages <= self.access.batch_atoms,
            format!(
                "access: batch_pages {} > batch_atoms {}",
                self.access.batch_pages, self.access.batch_atoms
            ),
        );
        // Locking: every wait (and so every timeout) is an acquisition.
        check(
            self.lock.waits <= self.lock.acquisitions,
            format!(
                "lock: waits {} > acquisitions {}",
                self.lock.waits, self.lock.acquisitions
            ),
        );
        check(
            self.lock.timeouts <= self.lock.waits,
            format!("lock: timeouts {} > waits {}", self.lock.timeouts, self.lock.waits),
        );
        // MVCC: on a quiesced kernel the live-version gauge is exactly
        // installs minus reclaims.
        check(
            self.version.versions_reclaimed <= self.version.versions_installed
                && self.version.live_versions
                    == self.version.versions_installed - self.version.versions_reclaimed,
            format!(
                "version: live {} != installed {} - reclaimed {}",
                self.version.live_versions,
                self.version.versions_installed,
                self.version.versions_reclaimed
            ),
        );
        // API: a parsed text is compiled or served by the plan cache, at
        // most one of the two; the non-commit histograms account for
        // exactly the executed statements.
        check(
            self.api.plans_built + self.api.plan_cache_hits <= self.api.statements_parsed,
            format!(
                "api: plans_built {} + plan_cache_hits {} > statements_parsed {}",
                self.api.plans_built, self.api.plan_cache_hits, self.api.statements_parsed
            ),
        );
        let histogram_statements: u64 = [
            StatementKind::Select,
            StatementKind::Insert,
            StatementKind::Modify,
            StatementKind::Delete,
        ]
        .iter()
        .map(|k| self.statement_latency(*k).count)
        .sum();
        check(
            histogram_statements == self.api.statements_executed,
            format!(
                "api: non-commit histogram counts {} != statements_executed {}",
                histogram_statements, self.api.statements_executed
            ),
        );
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}
