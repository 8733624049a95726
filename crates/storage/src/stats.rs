//! I/O accounting.
//!
//! The PRIMA paper's storage-system arguments (page sizes, page sequences,
//! chained I/O, clustering) are all arguments about *how many* and *which*
//! block transfers a given operation causes. [`IoStats`] is the measuring
//! instrument: a cheap, thread-safe set of counters threaded through the
//! block devices and surfaced in the kernel's metrics registry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The one shape every layer's counter snapshot shares, so a kernel-wide
/// metrics view can compose them uniformly instead of knowing each
/// struct's ad-hoc `since()` / `detail()` methods.
///
/// Implementors are plain point-in-time copies of an atomic counter
/// struct ([`IoSnapshot`], the buffer / lock / version / access / API
/// snapshots in their home crates). [`StatsSnapshot::delta`] is the
/// component-wise difference for monotone counters; gauges and
/// running maxima keep their current value, exactly as the pre-existing
/// `since()` methods did. [`StatsSnapshot::fields`] names every counter
/// in declaration order — the single source the Prometheus-style text
/// rendering walks.
pub trait StatsSnapshot: Sized + Clone {
    /// Metric family name; rendered as the `prima_<family>_<field>`
    /// prefix.
    const FAMILY: &'static str;

    /// Component-wise counter delta `self - earlier` (gauges keep their
    /// current value).
    fn delta(&self, earlier: &Self) -> Self;

    /// `(counter name, value)` pairs in declaration order.
    fn fields(&self) -> Vec<(&'static str, u64)>;

    /// Appends this family's counters to a Prometheus-style text body.
    fn render_into(&self, out: &mut String) {
        use std::fmt::Write;
        for (name, value) in self.fields() {
            let _ = writeln!(out, "prima_{}_{} {}", Self::FAMILY, name, value);
        }
    }
}

/// Thread-safe I/O counters, shared between the device and its observers.
///
/// All counters use relaxed ordering: they are statistics, not
/// synchronization points.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Number of single-block read transfers.
    pub block_reads: AtomicU64,
    /// Number of single-block write transfers.
    pub block_writes: AtomicU64,
    /// Total bytes read from the device.
    pub bytes_read: AtomicU64,
    /// Total bytes written to the device.
    pub bytes_written: AtomicU64,
    /// Number of *seeks*: transfers whose block address was not contiguous
    /// with the previous transfer on the same device arm.
    pub seeks: AtomicU64,
    /// Number of chained-I/O runs (a page-sequence read satisfied by one
    /// multi-block transfer).
    pub chained_runs: AtomicU64,
    /// Blocks moved inside chained runs (also counted in `block_reads`).
    pub chained_blocks: AtomicU64,
    /// Write-ahead-log forces: each is one sequential append transfer to
    /// the log area (the device-level unit of group commit).
    pub wal_forces: AtomicU64,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes: AtomicU64,
    /// WAL forces whose batch carried at least one `TxnCommit` record —
    /// the device-level unit of cross-session group commit.
    pub group_commit_batches: AtomicU64,
    /// `TxnCommit` records made durable across all group-commit batches;
    /// `group_commit_commits / group_commit_batches` is the commits-per-
    /// force amortisation the group coordinator buys.
    pub group_commit_commits: AtomicU64,
    /// Accumulated simulated service time in nanoseconds (cost model).
    pub sim_time_ns: AtomicU64,
}

impl IoStats {
    /// Creates a fresh, zeroed counter set behind an [`Arc`].
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Zeroes every counter. Used between benchmark phases.
    pub fn reset(&self) {
        self.block_reads.store(0, Ordering::Relaxed);
        self.block_writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.seeks.store(0, Ordering::Relaxed);
        self.chained_runs.store(0, Ordering::Relaxed);
        self.chained_blocks.store(0, Ordering::Relaxed);
        self.wal_forces.store(0, Ordering::Relaxed);
        self.wal_bytes.store(0, Ordering::Relaxed);
        self.group_commit_batches.store(0, Ordering::Relaxed);
        self.group_commit_commits.store(0, Ordering::Relaxed);
        self.sim_time_ns.store(0, Ordering::Relaxed);
    }

    /// An owned point-in-time copy, convenient for diffing around an
    /// operation under measurement.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            block_reads: self.block_reads.load(Ordering::Relaxed),
            block_writes: self.block_writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
            chained_runs: self.chained_runs.load(Ordering::Relaxed),
            chained_blocks: self.chained_blocks.load(Ordering::Relaxed),
            wal_forces: self.wal_forces.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            group_commit_batches: self.group_commit_batches.load(Ordering::Relaxed),
            group_commit_commits: self.group_commit_commits.load(Ordering::Relaxed),
            sim_time_ns: self.sim_time_ns.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn add(&self, field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }
}

/// An immutable copy of [`IoStats`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub block_reads: u64,
    pub block_writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub seeks: u64,
    pub chained_runs: u64,
    pub chained_blocks: u64,
    pub wal_forces: u64,
    pub wal_bytes: u64,
    pub group_commit_batches: u64,
    pub group_commit_commits: u64,
    pub sim_time_ns: u64,
}

impl IoSnapshot {
    /// Component-wise difference `self - earlier`; saturates at zero so a
    /// reset between snapshots cannot produce nonsense.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            block_reads: self.block_reads.saturating_sub(earlier.block_reads),
            block_writes: self.block_writes.saturating_sub(earlier.block_writes),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            seeks: self.seeks.saturating_sub(earlier.seeks),
            chained_runs: self.chained_runs.saturating_sub(earlier.chained_runs),
            chained_blocks: self.chained_blocks.saturating_sub(earlier.chained_blocks),
            wal_forces: self.wal_forces.saturating_sub(earlier.wal_forces),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
            group_commit_batches: self
                .group_commit_batches
                .saturating_sub(earlier.group_commit_batches),
            group_commit_commits: self
                .group_commit_commits
                .saturating_sub(earlier.group_commit_commits),
            sim_time_ns: self.sim_time_ns.saturating_sub(earlier.sim_time_ns),
        }
    }

    /// Total transfers (reads + writes).
    pub fn transfers(&self) -> u64 {
        self.block_reads + self.block_writes
    }
}

impl StatsSnapshot for IoSnapshot {
    const FAMILY: &'static str = "io";

    fn delta(&self, earlier: &Self) -> Self {
        self.since(earlier)
    }

    fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("block_reads", self.block_reads),
            ("block_writes", self.block_writes),
            ("bytes_read", self.bytes_read),
            ("bytes_written", self.bytes_written),
            ("seeks", self.seeks),
            ("chained_runs", self.chained_runs),
            ("chained_blocks", self.chained_blocks),
            ("wal_forces", self.wal_forces),
            ("wal_bytes", self.wal_bytes),
            ("group_commit_batches", self.group_commit_batches),
            ("group_commit_commits", self.group_commit_commits),
            ("sim_time_ns", self.sim_time_ns),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff() {
        let s = IoStats::default();
        s.add(&s.block_reads, 5);
        s.add(&s.bytes_read, 5 * 4096);
        let a = s.snapshot();
        s.add(&s.block_reads, 3);
        s.add(&s.seeks, 1);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.block_reads, 3);
        assert_eq!(d.seeks, 1);
        assert_eq!(d.bytes_read, 0);
        assert_eq!(b.transfers(), 8);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::default();
        s.add(&s.block_writes, 7);
        s.add(&s.chained_runs, 2);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn since_saturates() {
        let a = IoSnapshot { block_reads: 10, ..Default::default() };
        let b = IoSnapshot { block_reads: 4, ..Default::default() };
        assert_eq!(b.since(&a).block_reads, 0);
    }
}
