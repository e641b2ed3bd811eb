//! A minimal complex number type for the FFT pipeline.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number with `f64` parts.
///
/// ```
/// use scsq_fft::Complex;
/// let i = Complex::new(0.0, 1.0);
/// assert_eq!(i * i, Complex::new(-1.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates `re + im·i`.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// A pure-real complex number.
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}` — the unit phasor used for twiddle factors.
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Squared magnitude.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scales by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl From<(f64, f64)> for Complex {
    fn from((re, im): (f64, f64)) -> Self {
        Complex::new(re, im)
    }
}

impl From<Complex> for (f64, f64) {
    fn from(c: Complex) -> Self {
        (c.re, c.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(3.0, -2.0);
        assert_eq!(a + Complex::ZERO, a);
        assert_eq!(a * Complex::ONE, a);
        assert_eq!(a - a, Complex::ZERO);
        assert_eq!(-a, Complex::new(-3.0, 2.0));
    }

    #[test]
    fn multiplication_matches_definition() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, 4.0);
        // (1+2i)(3+4i) = 3+4i+6i-8 = -5+10i
        assert_eq!(a * b, Complex::new(-5.0, 10.0));
    }

    #[test]
    fn cis_is_on_the_unit_circle() {
        for k in 0..16 {
            let c = Complex::cis(k as f64 * 0.5);
            assert!((c.abs() - 1.0).abs() < 1e-12);
        }
        let c = Complex::cis(std::f64::consts::FRAC_PI_2);
        assert!((c.re).abs() < 1e-12);
        assert!((c.im - 1.0).abs() < 1e-12);
    }

    #[test]
    fn norm_and_scale() {
        let a = Complex::new(3.0, 4.0);
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a.scale(2.0), Complex::new(6.0, 8.0));
    }

    #[test]
    fn conversions() {
        assert_eq!(Complex::from(2.5), Complex::new(2.5, 0.0));
        assert_eq!(Complex::from((1.0, -1.0)), Complex::new(1.0, -1.0));
        let t: (f64, f64) = Complex::new(5.0, 6.0).into();
        assert_eq!(t, (5.0, 6.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }
}
