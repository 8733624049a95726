//! Order statistics: latency percentiles over exact samples, and the
//! quartiles the acceptance rule is written in.

/// A percentile, kept as "all but one sample in `one_in`" so that ranks
/// are computed in whole numbers (100 × (1 − 0.9) is not 10 in floating
/// point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub percent: f64,
    one_in: usize,
}

pub const P50: Percentile = Percentile {
    percent: 50.0,
    one_in: 2,
};
pub const P99: Percentile = Percentile {
    percent: 99.0,
    one_in: 100,
};

/// Percentiles a latency report may quote, lowest first.
const LADDER: [Percentile; 5] = [
    P50,
    Percentile {
        percent: 90.0,
        one_in: 10,
    },
    P99,
    Percentile {
        percent: 99.9,
        one_in: 1_000,
    },
    Percentile {
        percent: 99.99,
        one_in: 10_000,
    },
];

impl Percentile {
    /// Whether at least ten of `n` samples lie beyond this percentile.
    pub fn supported_by(self, n: usize) -> bool {
        n / self.one_in >= 10
    }
}

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `n` samples beyond it; `None` below 20 samples, where not even the
/// median does.
pub fn highest_supported_percentile(n: usize) -> Option<Percentile> {
    LADDER.iter().copied().rev().find(|p| p.supported_by(n))
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u32], p: Percentile) -> u32 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() * (p.one_in - 1)).div_ceil(p.one_in);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), because that is what the acceptance rule computes. Needs
/// two values or more.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let highest = |n| highest_supported_percentile(n).map(|p| p.percent);
        assert_eq!(highest(19), None);
        assert_eq!(highest(20), Some(50.0));
        assert_eq!(highest(99), Some(50.0));
        assert_eq!(highest(100), Some(90.0));
        assert_eq!(highest(999), Some(90.0));
        assert_eq!(highest(1000), Some(99.0));
        assert_eq!(highest(10_000), Some(99.9));
        assert_eq!(highest(5_000_000), Some(99.99));
        assert!(P99.supported_by(1000) && !P99.supported_by(999));
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&v, P50), 500);
        assert_eq!(percentile(&v, P99), 990);
        assert_eq!(percentile(&v, LADDER[3]), 999);
        assert_eq!(percentile(&[7], P99), 7);
        assert_eq!(percentile(&[1, 2, 3], P50), 2);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4); [10, 20] extrapolates.
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
