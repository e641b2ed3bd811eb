//! Host-speed calibration.
//!
//! The sandbox this benchmark runs in does not have a steady clock
//! rate: its CPU slows by up to 1.65x for seconds to minutes at a time
//! (shared-core contention or frequency scaling — no steal time is
//! reported), and every instruction mix slows by nearly the same
//! factor. Left alone, that drift is several times larger than any
//! regression bound.
//!
//! So the CPU-bound timings are normalised: a small benchmark-owned
//! reference kernel is timed right before and after every measured
//! operation, the ratio of its time to a fixed nominal time is the
//! host's slowdown factor of that moment, and the operation's wall is
//! divided by it. Reported times are therefore "at nominal host
//! speed". The kernel is the benchmark's own code — never the program
//! under test — so a change to the program cannot move the yardstick.
//! Timer- and socket-bound timings (`served_mix`) are not normalised.

use std::time::Instant;

/// Iterations per reference sample: about a quarter millisecond.
const ITERS: u64 = 100_000;

/// What one iteration costs on a quiet host of the reference class, in
/// nanoseconds. Only its constancy matters: it fixes the unit.
const NOMINAL_NS_PER_ITER: f64 = 2.3;

/// Table words: 64 KiB, resident in L1/L2.
const WORDS: usize = 8192;

/// The reference kernel and its state.
#[derive(Debug)]
pub struct Calib {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for Calib {
    fn default() -> Self {
        Calib::new()
    }
}

impl Calib {
    /// A fresh kernel state.
    pub fn new() -> Calib {
        Calib {
            table: (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            samples: Vec::new(),
        }
    }

    /// A fixed mix of integer multiplies, shifts, table loads and
    /// stores and data-dependent branches.
    #[inline(never)]
    fn kernel(&mut self) -> u64 {
        let t = &mut self.table[..WORDS];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let (mut even, mut odd) = (0u64, 0u64);
        for i in 0..ITERS {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let v = t[z as usize % WORDS];
            if v & 1 == 0 {
                even = even.wrapping_add(v ^ i);
            } else {
                odd = odd.wrapping_add(v.rotate_left(7));
            }
            t[(z >> 20) as usize % WORDS] = v.wrapping_add(z);
        }
        even ^ odd
    }

    /// Times one reference sample and returns the host's slowdown
    /// factor right now (1.0 = nominal speed, 1.5 = half again slower).
    pub fn factor(&mut self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.kernel());
        let f = t0.elapsed().as_nanos() as f64 / (ITERS as f64 * NOMINAL_NS_PER_ITER);
        self.samples.push(f);
        f
    }

    /// Runs `f` bracketed by two reference samples; returns its result
    /// and its wall in seconds at nominal host speed.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.factor();
        let t0 = Instant::now();
        let value = f();
        let raw = t0.elapsed().as_secs_f64();
        let after = self.factor();
        (value, raw / ((before + after) / 2.0))
    }

    /// Median slowdown factor over every sample taken so far.
    pub fn median_factor(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            crate::stats::median(&self.samples)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_timed_divides_by_it() {
        let mut c = Calib::new();
        let f = c.factor();
        assert!(f > 0.0 && f.is_finite());
        let ((), s) = c.timed(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        // The wall at nominal speed is the raw wall over the mean of the
        // two factors around it, so it lies between raw/max and raw/min.
        // (No absolute range: an unoptimised build runs the kernel some
        // thirty times slower than nominal.)
        let (lo, hi) = (
            c.samples[1].min(c.samples[2]),
            c.samples[1].max(c.samples[2]),
        );
        assert!(s >= 0.005 / hi && s.is_finite(), "{s} {lo} {hi}");
        assert_eq!(c.samples.len(), 3);
        assert!(c.median_factor() > 0.0);
    }
}
