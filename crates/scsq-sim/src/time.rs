//! Simulation time: instants ([`SimTime`]) and durations ([`SimDur`]).
//!
//! Time is kept in integer nanoseconds so that event ordering is exact and
//! runs are reproducible; floating point only appears at the measurement
//! boundary (converting to seconds for bandwidth computation).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since the start of
/// the run.
///
/// ```
/// use scsq_sim::{SimTime, SimDur};
/// let t = SimTime::from_micros(3) + SimDur::from_nanos(500);
/// assert_eq!(t.as_nanos(), 3_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
///
/// ```
/// use scsq_sim::SimDur;
/// assert_eq!(SimDur::from_micros(2) * 3, SimDur::from_nanos(6_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ns` nanoseconds after the start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant `us` microseconds after the start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant `ms` milliseconds after the start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant `s` seconds after the start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the start of the run.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDur {
        assert!(
            self >= earlier,
            "SimTime::since: {earlier:?} is later than {self:?}"
        );
        SimDur(self.0 - earlier.0)
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDur {
    /// The zero-length duration.
    pub const ZERO: SimDur = SimDur(0);

    /// A duration of `ns` nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDur(ns)
    }

    /// A duration of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDur(us * 1_000)
    }

    /// A duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDur(ms * 1_000_000)
    }

    /// A duration of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDur(s * 1_000_000_000)
    }

    /// A duration of `s` seconds, rounded to whole nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        let v = s * 1e9;
        SimDur(if v < INTEGERS_FROM {
            round_below_2_52(v)
        } else {
            v as u64
        })
    }

    /// The length of this duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The length of this duration in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The time to move `bytes` bytes through a pipe of `bytes_per_sec`
    /// capacity. This is the workhorse conversion for all link models.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive.
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0,
            "bandwidth must be positive: {bytes_per_sec}"
        );
        SimDur::from_secs_f64(bytes as f64 / bytes_per_sec)
    }

    /// Saturating subtraction; clamps at zero.
    pub fn saturating_sub(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDur> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 + rhs.0)
    }
}

impl AddAssign for SimDur {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 - rhs.0)
    }
}

impl SubAssign for SimDur {
    fn sub_assign(&mut self, rhs: SimDur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDur {
    type Output = SimDur;
    fn mul(self, rhs: u64) -> SimDur {
        SimDur(self.0 * rhs)
    }
}

impl Mul<f64> for SimDur {
    type Output = SimDur;
    /// Scales the duration, rounding half away from zero to whole
    /// nanoseconds (saturating at `u64::MAX`).
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is negative or not finite.
    #[inline]
    fn mul(self, rhs: f64) -> SimDur {
        let v = self.0 as f64 * rhs;
        // NaN fails both compares.
        if rhs >= 0.0 && v < INTEGERS_FROM {
            SimDur(round_below_2_52(v))
        } else {
            scale_large(v, rhs)
        }
    }
}

/// Doubles from 2^52 up are all integers: rounding them is the identity.
const INTEGERS_FROM: f64 = (1u64 << 52) as f64;

/// `v.round() as u64` for `0 <= v < 2^52`, bit for bit, without
/// `f64::round` — a libm call on baseline x86-64, and durations are
/// rounded once per charged element.
#[inline]
fn round_below_2_52(v: f64) -> u64 {
    // Doubles in [2^52, 2^53] are spaced 1 apart, so this add rounds `v`
    // to the nearest integer, ties to even, and leaves it in the low
    // mantissa bits: the bit patterns of `shifted` and of 2^52 differ by
    // exactly that integer.
    let shifted = v + INTEGERS_FROM;
    let nearest = shifted.to_bits() - INTEGERS_FROM.to_bits();
    // Ties-to-even and half-away disagree only on a tie that went down.
    // Both subtractions are exact (Sterbenz: the operands are within a
    // factor of two, or one of them is zero).
    let tie_went_down = v - (shifted - INTEGERS_FROM) >= 0.5;
    nearest + tie_went_down as u64
}

/// The rest of `SimDur × f64`: an invalid factor, or a product of 2^52
/// or more, where only the saturating cast remains.
#[cold]
fn scale_large(v: f64, rhs: f64) -> SimDur {
    assert!(rhs.is_finite() && rhs >= 0.0, "invalid scale factor: {rhs}");
    SimDur(v as u64)
}

impl Div<u64> for SimDur {
    type Output = SimDur;
    fn div(self, rhs: u64) -> SimDur {
        SimDur(self.0 / rhs)
    }
}

impl Sum for SimDur {
    fn sum<I: Iterator<Item = SimDur>>(iter: I) -> SimDur {
        iter.fold(SimDur::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDur::from_secs(2), SimDur::from_millis(2_000));
    }

    #[test]
    fn for_bytes_matches_manual_computation() {
        // 1000 bytes at 1 GB/s is 1 microsecond.
        assert_eq!(SimDur::for_bytes(1_000, 1e9), SimDur::from_micros(1));
        // 3 MB at 125 MB/s (1 Gbps) is 24 ms.
        assert_eq!(SimDur::for_bytes(3_000_000, 125e6), SimDur::from_millis(24));
    }

    #[test]
    fn since_computes_elapsed() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(25);
        assert_eq!(b.since(a), SimDur::from_micros(15));
    }

    #[test]
    #[should_panic(expected = "later than")]
    fn since_panics_on_negative_elapsed() {
        SimTime::from_micros(1).since(SimTime::from_micros(2));
    }

    #[test]
    fn display_formats_scale() {
        assert_eq!(SimDur::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDur::from_micros(5).to_string(), "5.00us");
        assert_eq!(SimDur::from_millis(5).to_string(), "5.00ms");
        assert_eq!(SimDur::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(
            SimDur::from_nanos(5).saturating_sub(SimDur::from_nanos(10)),
            SimDur::ZERO
        );
    }
}
