//! Counter families, and I/O accounting.
//!
//! Every layer of the Fig. 3.1 stack reports through one *counter
//! family*: a set of relaxed `AtomicU64`s bumped on its own hot paths
//! (buffer and I/O here, access in `prima-access`, lock, version and API
//! in `prima`). [`crate::counter_family!`] declares a family once and
//! generates the rest from that declaration; the kernel-wide metrics
//! registry (`prima::MetricsSnapshot`) composes the six families.
//! Counters only grow: a measurement is a `snapshot()` before, a
//! `snapshot()` after and `since()` between them.
//!
//! The PRIMA paper's storage-system arguments (page sizes, page sequences,
//! chained I/O, clustering) are all arguments about *how many* and *which*
//! block transfers a given operation causes. [`IoStats`] is the measuring
//! instrument: threaded through the block devices.

use std::sync::Arc;

/// Declares one counter family: the atomic struct, its `Copy` snapshot
/// struct, and from the one field list
///
/// * `snapshot()` — relaxed loads into the snapshot struct;
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
            $( $(#[$fmeta])* pub $field: ::std::sync::atomic::AtomicU64, )*
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
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )*
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

    pub(crate) fn add(&self, field: &std::sync::atomic::AtomicU64, n: u64) {
        field.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
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
        s.done.fetch_add(4, std::sync::atomic::Ordering::Relaxed);
        let snap = s.snapshot(6);
        let fields: Vec<_> = snap.fields().collect();
        assert_eq!(fields, [("done", 4), ("level", 0), ("bytes", 0), ("computed", 6)]);
        let mut text = String::new();
        snap.render_into(&mut text);
        assert_eq!(text, "prima_test_done 4\nprima_test_level 0\nprima_test_bytes 0\nprima_test_computed 6\n");
    }
}
