//! Log-bucketed latency histograms.
//!
//! One [`LatencyHistogram`] per statement kind lives in the kernel's
//! observability hub and is fed on *every* statement — profiling on or
//! off — because recording is one clock read plus a handful of relaxed
//! atomic adds: no allocation, no lock. Like a counter family's counters
//! (`prima_storage::stats`), a histogram is striped: each thread stripe
//! records into its own 128-byte-aligned set of cells, and a snapshot
//! sums the stripes, so concurrent sessions write no common cache line.
//! Buckets are powers of two in
//! nanoseconds (bucket `i` covers `[2^i, 2^{i+1})`, bucket 0 also
//! absorbs 0–1 ns), which makes bucket boundaries deterministic and the
//! index computation a single `leading_zeros`.

use parking_lot::{stripe, CachePadded, STRIPES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets. Bucket 39 starts at `2^39` ns
/// (~9.2 minutes) and is the overflow bucket: anything slower lands
/// there and quantiles falling into it report the exact recorded
/// maximum instead of interpolating into an unbounded range.
pub const BUCKETS: usize = 40;

/// Bucket index of a latency: `floor(log2(nanos))` clamped to the
/// bucket range, with 0 and 1 ns in bucket 0.
pub fn bucket_index(nanos: u64) -> usize {
    if nanos < 2 {
        0
    } else {
        ((63 - nanos.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// `[low, high)` bounds of bucket `i` in nanoseconds. The last bucket's
/// high bound is `u64::MAX` (overflow).
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let low = if i == 0 { 0 } else { 1u64 << i };
    let high = if i >= BUCKETS - 1 { u64::MAX } else { 1u64 << (i + 1) };
    (low, high)
}

/// One stripe's cells.
#[derive(Debug)]
struct Cells {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Cells {
    fn default() -> Self {
        Cells {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// Thread-safe log₂-bucketed histogram of statement latencies, striped
/// per thread (module docs).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    stripes: [CachePadded<Cells>; STRIPES],
}

impl LatencyHistogram {
    /// Records one latency into the calling thread's stripe.
    /// Allocation-free.
    pub fn record(&self, nanos: u64) {
        let cells = &self.stripes[stripe()];
        cells.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum_ns.fetch_add(nanos, Ordering::Relaxed);
        // The maximum rarely moves: a load, and a write only when it does.
        if nanos > cells.max_ns.load(Ordering::Relaxed) {
            cells.max_ns.fetch_max(nanos, Ordering::Relaxed);
        }
    }

    /// An owned point-in-time copy: the stripes summed (the maximum is
    /// the largest stripe maximum).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for cells in &self.stripes {
            for (b, a) in out.buckets.iter_mut().zip(&cells.buckets) {
                *b += a.load(Ordering::Relaxed);
            }
            out.count += cells.count.load(Ordering::Relaxed);
            out.sum_ns += cells.sum_ns.load(Ordering::Relaxed);
            out.max_ns = out.max_ns.max(cells.max_ns.load(Ordering::Relaxed));
        }
        out
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], count: 0, sum_ns: 0, max_ns: 0 }
    }
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds, linearly
    /// interpolated within the containing bucket; a quantile landing in
    /// the overflow bucket reports the exact recorded maximum, and every
    /// result is capped at that maximum. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            if cum >= rank {
                if i == BUCKETS - 1 {
                    return self.max_ns;
                }
                let (low, high) = bucket_bounds(i);
                let into = rank - (cum - n); // 1-based position within the bucket
                let frac = into as f64 / n as f64;
                let v = low as f64 + frac * (high - low) as f64;
                return (v as u64).min(self.max_ns);
            }
        }
        self.max_ns
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean latency in nanoseconds (0 on an empty histogram).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Counter delta `self - earlier` (the recorded maximum keeps its
    /// current value, like every other running maximum in the kernel).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (b, (now, then)) in buckets.iter_mut().zip(self.buckets.iter().zip(&earlier.buckets)) {
            *b = now.saturating_sub(*then);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum_ns: self.sum_ns.saturating_sub(earlier.sum_ns),
            max_ns: self.max_ns.max(earlier.max_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_deterministic() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bounds(0), (0, 2));
        assert_eq!(bucket_bounds(10), (1024, 2048));
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn quantiles_interpolate_and_cap_at_max() {
        let h = LatencyHistogram::default();
        for _ in 0..100 {
            h.record(1000); // bucket 9: [512, 1024)
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let p50 = s.p50();
        assert!((512..=1000).contains(&p50), "p50 = {p50}");
        // Nothing interpolates past the recorded maximum.
        assert!(s.p99() <= s.max_ns);
        assert_eq!(s.max_ns, 1000);
    }

    #[test]
    fn overflow_bucket_reports_exact_max() {
        let h = LatencyHistogram::default();
        h.record(u64::MAX / 2); // far past 2^39 → overflow bucket
        h.record(10);
        let s = h.snapshot();
        assert_eq!(s.buckets[BUCKETS - 1], 1);
        assert_eq!(s.quantile(1.0), u64::MAX / 2);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = LatencyHistogram::default().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean_ns(), 0);
    }

    /// Four threads record into one histogram: count, sum, buckets and
    /// maximum are exact once they are done.
    #[test]
    fn striped_recording_sums_every_thread_exactly() {
        let h = std::sync::Arc::new(LatencyHistogram::default());
        h.record(5);
        let before = h.snapshot();
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for _ in 0..100_000 {
                        h.record(100);
                    }
                    h.record(1000 + t);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 400_005);
        assert_eq!(s.sum_ns, 5 + 400_000 * 100 + 4000 + 6);
        assert_eq!(s.buckets[bucket_index(100)], 400_000);
        assert_eq!(s.max_ns, 1003);
        let d = s.delta(&before);
        assert_eq!((d.count, d.sum_ns), (400_004, 400_000 * 100 + 4006));
    }

    #[test]
    fn delta_subtracts_counts() {
        let h = LatencyHistogram::default();
        h.record(100);
        let a = h.snapshot();
        h.record(100);
        h.record(200);
        let d = h.snapshot().delta(&a);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum_ns, 300);
    }
}
