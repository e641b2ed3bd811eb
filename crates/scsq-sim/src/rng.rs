//! Deterministic pseudo-random numbers for the simulator.
//!
//! All stochastic model inputs (jitter, the paper's five-repetition
//! protocol) flow through [`SplitMix64`], a tiny, well-mixed generator
//! with a 64-bit state. Seeding is explicit everywhere so experiment runs
//! are exactly reproducible.

/// SplitMix64 pseudo-random number generator (Steele, Lea & Flood 2014).
///
/// ```
/// use scsq_sim::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The current internal state — lets callers fingerprint the
    /// generator (e.g. a coalescing probe treating it as opaque shape).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of a double.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A multiplicative jitter factor in `[1 - amp, 1 + amp]`.
    ///
    /// Used to reproduce the paper's run-to-run variance across its five
    /// repetitions.
    ///
    /// # Panics
    ///
    /// Panics if `amp` is not in `[0, 1)`.
    #[inline]
    pub fn jitter(&mut self, amp: f64) -> f64 {
        assert!((0.0..1.0).contains(&amp), "amplitude must be in [0,1)");
        1.0 + amp * (2.0 * self.next_f64() - 1.0)
    }

    /// Derives an independent generator for a labeled subsystem.
    pub fn fork(&mut self, label: u64) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ label.rotate_left(17))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn floats_are_in_unit_interval() {
        let mut r = SplitMix64::new(99);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut r = SplitMix64::new(5);
        for _ in 0..1000 {
            let j = r.jitter(0.05);
            assert!((0.95..=1.05).contains(&j));
        }
    }

    #[test]
    fn mean_is_roughly_centered() {
        let mut r = SplitMix64::new(11);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn forked_generators_are_independent_streams() {
        let mut root = SplitMix64::new(1234);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
