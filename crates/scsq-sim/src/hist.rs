//! Log-bucketed latency histograms.
//!
//! [`LatencyHistogram`] is the fixed-size, allocation-free distribution
//! used by the observability layer to summarise ingress→egress element
//! latencies in simulated time. Buckets are powers of two in
//! nanoseconds, so recording is a couple of integer instructions and
//! the whole histogram is `Copy`. Histograms merge bucket-wise, which
//! is order-independent: merging per-run histograms from a parallel
//! sweep yields the same aggregate regardless of completion order, so
//! deterministic pipelines stay deterministic.

/// Number of power-of-two buckets. Bucket 0 holds exact zeros; bucket
/// `i` (for `1 <= i < 63`) holds values in `[2^(i-1), 2^i)`; bucket 63
/// holds everything from `2^62` up.
pub const LATENCY_BUCKETS: usize = 64;

/// A fixed-size log₂-bucketed histogram of nanosecond values.
///
/// ```
/// use scsq_sim::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for v in [100, 200, 400, 800] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), 800);
/// assert!(h.quantile(0.5) >= 200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    const fn bucket_index(nanos: u64) -> usize {
        if nanos == 0 {
            0
        } else {
            let idx = 64 - nanos.leading_zeros() as usize;
            if idx > 63 {
                63
            } else {
                idx
            }
        }
    }

    /// The inclusive upper bound of bucket `i` (the value reported for
    /// quantiles landing in that bucket), clamped to the observed max.
    fn bucket_upper(&self, i: usize) -> u64 {
        let hi = if i == 0 {
            0
        } else if i >= 63 {
            self.max
        } else {
            (1u64 << i) - 1
        };
        hi.min(self.max)
    }

    /// Records one value.
    pub fn record(&mut self, nanos: u64) {
        self.buckets[Self::bucket_index(nanos)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(nanos);
        if nanos > self.max {
            self.max = nanos;
        }
    }

    /// Merges another histogram into this one (bucket-wise addition;
    /// order-independent).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Number of recorded values.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub const fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing has been recorded.
    pub const fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the rank-`ceil(q·count)` sample, clamped to the
    /// observed maximum. Returns 0 for an empty histogram.
    ///
    /// The result is a conservative (upper-bound) estimate with at most
    /// one power of two of error — exactly reproducible across runs and
    /// executor tiers because it depends only on the bucket counts.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bucket_upper(i);
            }
        }
        self.max
    }

    /// Walks the histogram through a coalescing state probe. In a
    /// steady phase every bucket count, the total and the sum advance
    /// by a constant per period (recorded latencies repeat), so they
    /// extrapolate; a drifting max simply blocks the jump via a delta
    /// mismatch.
    pub fn probe(&mut self, p: &mut crate::coalesce::StateProbe<'_>) {
        for b in self.buckets.iter_mut() {
            p.num(b);
        }
        p.num(&mut self.count);
        p.num(&mut self.sum);
        p.num(&mut self.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(1023), 10);
        assert_eq!(LatencyHistogram::bucket_index(1024), 11);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn quantiles_bracket_the_samples() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        // p50 of 1..=1000 is 500; the bucket upper bound for 500 is 511.
        assert_eq!(h.quantile(0.5), 511);
        // p99 sample is 990; bucket upper bound is 1023, clamped to max.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(0.0), h.quantile(0.001));
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [5u64, 80, 3_000, 12] {
            a.record(v);
        }
        for v in [900u64, 2, 2, 70_000] {
            b.record(v);
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 8);
        assert_eq!(ab.max(), 70_000);
        assert_eq!(ab.sum(), a.sum() + b.sum());
    }

    #[test]
    fn quantile_upper_bound_never_exceeds_max() {
        let mut h = LatencyHistogram::new();
        h.record(5);
        h.record(6);
        // Both live in bucket [4, 8); upper bound 7 clamps to max 6.
        assert_eq!(h.quantile(0.5), 6);
        assert_eq!(h.quantile(1.0), 6);
    }
}
