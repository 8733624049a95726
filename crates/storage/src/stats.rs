//! Counter families, and I/O accounting.
//!
//! Every layer of the Fig. 3.1 stack reports through one *counter
//! family*: a set of counters bumped on its own hot paths (buffer and
//! I/O here, access in `prima-access`, lock, version and API in
//! `prima`). [`crate::counter_family!`] declares a family once and
//! generates the rest from that declaration; the kernel-wide metrics
//! registry (`prima::MetricsSnapshot`) composes the six families.
//! Counters only grow: a measurement is a `snapshot()` before, a
//! `snapshot()` after and `since()` between them.
//!
//! # Striping
//!
//! A `counter` field is a [`Counter`]: [`STRIPES`] relaxed `AtomicU64`
//! cells, one per thread stripe (`parking_lot::stripe`), each alone in a
//! 128-byte [`CachePadded`] block. A bump writes only the calling
//! thread's cell, so sessions on different cores bumping the same
//! counter write no common cache line; reading a counter sums its cells.
//! The block is 128 bytes, not 64, because adjacent-line prefetching
//! moves lines in pairs: two cells sharing a 128-byte pair still bounce
//! between cores. A `gauge` field (a current level or a running maximum)
//! stays one `AtomicU64` — it is not a sum — and is off the read path.
//! Summing the cells of a counter that other threads are bumping gives
//! a value between the counts before and after those bumps, as one
//! relaxed load did; on a quiesced kernel it is exact.
//!
//! The PRIMA paper's storage-system arguments (page sizes, page sequences,
//! chained I/O, clustering) are all arguments about *how many* and *which*
//! block transfers a given operation causes. [`IoStats`] is the measuring
//! instrument: threaded through the block devices.

use parking_lot::{stripe, CachePadded, STRIPES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone count striped over per-thread cells (module docs,
/// *Striping*): [`Counter::add`] writes the calling thread's cell,
/// [`Counter::get`] sums them.
#[derive(Default)]
pub struct Counter {
    cells: [CachePadded<AtomicU64>; STRIPES],
}

impl Counter {
    /// Adds `n` to the calling thread's cell.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[stripe()].fetch_add(n, Ordering::Relaxed);
    }

    /// The count: the sum of every thread's cell.
    pub fn get(&self) -> u64 {
        self.cells.iter().fold(0u64, |sum, c| sum.wrapping_add(c.load(Ordering::Relaxed)))
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// Declares one counter family: the counter struct, its `Copy` snapshot
/// struct, and from the one field list
///
/// * the fields — a `counter` field is a striped [`Counter`], a `gauge`
///   field one `AtomicU64`;
/// * `snapshot()` — each counter's sum and each gauge's relaxed load,
///   into the snapshot struct;
/// * `since(&earlier)` — the delta: a `counter` field subtracts
///   (saturating at zero), a `gauge` field (a current level or a running
///   maximum) keeps its current value;
/// * `fields()` — `(name, value)` pairs in declaration order;
/// * `render_into(&mut String)` — one `prima_<family>_<field> <value>`
///   line per field, in the same order.
///
/// ```text
/// counter_family! {
///     /// Doc of the atomic struct.
///     pub struct FooStats => FooStatsSnapshot as "foo" {
///         /// Doc of the field (on both structs).
///         counter things_done,
///         gauge busy_now,
///     }
/// }
/// ```
///
/// An optional trailing `sampled { field, … }` list adds gauges that have
/// no atomic: the owner computes them when it takes the snapshot and
/// passes them to `snapshot(..)` as arguments, in order.
#[macro_export]
macro_rules! counter_family {
    (
        $(#[$meta:meta])*
        $vis:vis struct $stats:ident => $snap:ident as $family:literal {
            $( $(#[$fmeta:meta])* $kind:ident $field:ident ),* $(,)?
        }
        $( sampled { $( $(#[$smeta:meta])* $sfield:ident ),* $(,)? } )?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $stats {
            $( $(#[$fmeta])* pub $field: $crate::counter_family!(@type $kind), )*
        }

        #[doc = concat!("Point-in-time copy of [`", stringify!($stats), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snap {
            $( $(#[$fmeta])* pub $field: u64, )*
            $($( $(#[$smeta])* pub $sfield: u64, )*)?
        }

        impl $stats {
            /// An owned point-in-time copy, for diffing around an
            /// operation under measurement.
            pub fn snapshot(&self $($(, $sfield: u64)*)?) -> $snap {
                $snap {
                    $( $field: $crate::counter_family!(@load $kind self.$field), )*
                    $($( $sfield, )*)?
                }
            }
        }

        impl $snap {
            /// The delta `self - earlier`: counters subtract (saturating
            /// at zero), gauges keep their current value.
            pub fn since(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $field: $crate::counter_family!(@since $kind self.$field, earlier.$field), )*
                    $($( $sfield: self.$sfield, )*)?
                }
            }

            /// `(field name, value)` pairs in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [
                    $( (stringify!($field), self.$field), )*
                    $($( (stringify!($sfield), self.$sfield), )*)?
                ]
                .into_iter()
            }

            /// Appends one `prima_<family>_<field> <value>` line per field.
            pub fn render_into(&self, out: &mut String) {
                use ::std::fmt::Write as _;
                for (name, value) in self.fields() {
                    let _ = writeln!(out, "prima_{}_{name} {value}", $family);
                }
            }
        }
    };
    (@type counter) => { $crate::stats::Counter };
    (@type gauge) => { ::std::sync::atomic::AtomicU64 };
    (@load counter $cell:expr) => { $cell.get() };
    (@load gauge $cell:expr) => { $cell.load(::std::sync::atomic::Ordering::Relaxed) };
    (@since counter $now:expr, $then:expr) => { $now.saturating_sub($then) };
    (@since gauge $now:expr, $then:expr) => { $now };
}

counter_family! {
    /// Thread-safe I/O counters, shared between the device and its
    /// observers.
    pub struct IoStats => IoSnapshot as "io" {
        /// Number of single-block read transfers.
        counter block_reads,
        /// Number of single-block write transfers.
        counter block_writes,
        /// Total bytes read from the device.
        counter bytes_read,
        /// Total bytes written to the device.
        counter bytes_written,
        /// Number of *seeks*: transfers whose block address was not
        /// contiguous with the previous transfer on the same device arm.
        counter seeks,
        /// Number of chained-I/O runs (a page-sequence read satisfied by
        /// one multi-block transfer).
        counter chained_runs,
        /// Blocks moved inside chained runs (also counted in
        /// `block_reads`).
        counter chained_blocks,
        /// Write-ahead-log forces: each is one sequential append transfer
        /// to the log area (the device-level unit of group commit).
        counter wal_forces,
        /// Bytes appended to the write-ahead log.
        counter wal_bytes,
        /// WAL forces whose batch carried at least one `TxnCommit` record
        /// — the device-level unit of cross-session group commit.
        counter group_commit_batches,
        /// `TxnCommit` records made durable across all group-commit
        /// batches; `group_commit_commits / group_commit_batches` is the
        /// commits-per-force amortisation the group coordinator buys.
        counter group_commit_commits,
        /// Accumulated simulated service time in nanoseconds (cost
        /// model).
        counter sim_time_ns,
    }
}

impl IoStats {
    /// Creates a fresh, zeroed counter set behind an [`Arc`].
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    counter_family! {
        /// A two-kind family for the generated code's contract.
        struct TestStats => TestSnapshot as "test" {
            counter done,
            /// A level, not a count.
            gauge level,
            counter bytes,
        } sampled {
            computed,
        }
    }

    #[test]
    fn snapshot_diff() {
        let s = IoStats::default();
        s.block_reads.add(5);
        s.bytes_read.add(5 * 4096);
        let a = s.snapshot();
        s.block_reads.add(3);
        s.seeks.add(1);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.block_reads, 3);
        assert_eq!(d.seeks, 1);
        assert_eq!(d.bytes_read, 0);
    }

    /// Four threads bump one counter, each on its own stripe (or a
    /// shared one): the sum and the delta are exact once they are done.
    #[test]
    fn striped_counter_sums_every_thread_exactly() {
        let s = Arc::new(TestStats::default());
        s.done.add(7);
        let before = s.snapshot(0);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..100_000 {
                        s.done.add(1);
                    }
                    s.level.fetch_max(9, Ordering::Relaxed);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let after = s.snapshot(0);
        assert_eq!(after.done, 400_007);
        assert_eq!(after.since(&before).done, 400_000);
        assert_eq!(after.level, 9, "a gauge is one atomic, not a sum");
    }

    #[test]
    fn since_saturates() {
        let a = IoSnapshot { block_reads: 10, ..Default::default() };
        let b = IoSnapshot { block_reads: 4, ..Default::default() };
        assert_eq!(b.since(&a).block_reads, 0);
    }

    #[test]
    fn counters_subtract_and_gauges_keep_current_value() {
        let earlier = TestSnapshot { done: 3, level: 9, bytes: 100, computed: 7 };
        let now = TestSnapshot { done: 5, level: 2, bytes: 40, computed: 1 };
        let d = now.since(&earlier);
        assert_eq!(d.done, 2, "counter subtracts");
        assert_eq!(d.bytes, 0, "counter saturates at zero");
        assert_eq!(d.level, 2, "gauge keeps the current value");
        assert_eq!(d.computed, 1, "sampled gauge keeps the current value");
    }

    #[test]
    fn field_list_and_rendering_follow_declaration_order() {
        let s = TestStats::default();
        s.done.add(4);
        let snap = s.snapshot(6);
        let fields: Vec<_> = snap.fields().collect();
        assert_eq!(fields, [("done", 4), ("level", 0), ("bytes", 0), ("computed", 6)]);
        let mut text = String::new();
        snap.render_into(&mut text);
        assert_eq!(text, "prima_test_done 4\nprima_test_level 0\nprima_test_bytes 0\nprima_test_computed 6\n");
    }
}
