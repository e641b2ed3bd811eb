//! Order statistics for the benchmark's reports: median, quartiles,
//! MAD and the highest percentile a sample supports. No min-of-N
//! anywhere — every reported timing is a median or a fixed percentile
//! over a stated number of samples.

/// Linear-interpolated quantile of an already sorted slice (the
/// "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted_copy(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted_copy(values), q)
}

/// The median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// First and third quartile by the *exclusive* method — the one
/// Python's `statistics.quantiles(values, n=4)` uses, which is what
/// the acceptance driver computes spreads with. Needs two samples.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let s = sorted_copy(values);
    let n = s.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based order statistics, clamped.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median — the
/// run-to-run spread the bounds are checked against. Zero for fewer
/// than two samples (unknown, reported as such by the caller).
pub fn spread_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles_exclusive(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The highest of the usual percentiles (p50, p75, p90, p95, p99,
/// p99.9) that still has at least ten samples beyond it, or `None`
/// when even the median does not (fewer than 20 samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per mille, so the count beyond a percentile is exact.
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|pm| n * (1000 - pm) / 1000 >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// Summary of one sample: what the reports print for every timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile (inclusive method; exclusive needs n ≥ 2).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Median absolute deviation.
    pub mad: f64,
}

impl Summary {
    /// Summarises a non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = if values.len() >= 2 {
            quartiles_exclusive(values)
        } else {
            (values[0], values[0])
        };
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
            mad: mad(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        // Deviations from the median 3: 2 1 0 1 97 -> median 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates; we follow it exactly.
        let (q1, q3) = quartiles_exclusive(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 45, 50], n=4) == [15, 30, 47.5]
        let (q1, q3) = quartiles_exclusive(&[30.0, 10.0, 50.0, 20.0, 45.0]);
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 47.5).abs() < 1e-12);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread_share(&[5.0]), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(900), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.95), 48.0);
    }
}
