//! Order statistics used for every reported number.
//!
//! Percentiles are nearest-rank (the smallest sample with at least `q`
//! of the samples at or below it), so a reported p99 is always a value
//! that was observed. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (exclusive method) because the
//! acceptance driver computes its spreads that way.

/// Median, quartiles and sample count of one metric over repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (must be non-empty).
    pub fn of(samples: &[f64]) -> Summary {
        let (q1, _, q3) = quartiles(samples);
        Summary { median: median(samples), q1, q3, n: samples.len() }
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0 or there is a single sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
    v
}

/// The median of `samples`; the mean of the two middle values when the
/// count is even.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` by the exclusive method: position `i * (n + 1) / 4`
/// (1-based) with linear interpolation, clamped to the sample range.
/// A single sample is its own three quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "quartiles of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Nearest-rank percentile of an **ascending** slice: the value at
/// 1-based rank `ceil(q * n)`.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "percentile rank outside [0, 1]");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5] — the
        // exclusive method extrapolates outside a two-sample range.
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 2.0, 4.0));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0, 9.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        // 5 samples: p50 is rank ceil(2.5) = 3, p99 is rank 5.
        assert_eq!(percentile_sorted(&[10, 20, 30, 40, 50], 0.50), 30);
        assert_eq!(percentile_sorted(&[10, 20, 30, 40, 50], 0.99), 50);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.median, s.q1, s.q3, s.n), (5.5, 2.75, 8.25, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn mean_of_counts() {
        assert_eq!(mean(&[1, 2, 3, 6]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
