//! Measurement statistics: online mean/variance and labeled series.
//!
//! The paper performs each experiment five times "to achieve low variance
//! in the measurements"; [`RunningStats`] implements Welford's online
//! algorithm so harness code can report mean and standard deviation, and
//! [`Series`] collects (x, y) points for figure regeneration.

use std::fmt;

/// Online mean / variance / extrema accumulator (Welford's algorithm).
///
/// ```
/// use scsq_sim::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; zero for an empty accumulator.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (divides by n-1); zero for fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4}",
            self.n,
            self.mean(),
            self.sample_std_dev()
        )
    }
}

/// A labeled series of (x, y) points — one plotted line of a figure.
///
/// ```
/// use scsq_sim::Series;
/// let mut s = Series::new("double buffering");
/// s.push(1000.0, 158.7);
/// assert_eq!(s.points().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    label: String,
    points: Vec<(f64, f64)>,
    /// Per-point sample standard deviation over the repetitions that
    /// produced the y value (zero when unrecorded or from one rep).
    devs: Vec<f64>,
}

impl Series {
    /// Creates an empty series with a display label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
            devs: Vec::new(),
        }
    }

    /// The display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends a point with no recorded spread.
    pub fn push(&mut self, x: f64, y: f64) {
        self.push_with_dev(x, y, 0.0);
    }

    /// Appends a point together with the sample standard deviation of
    /// the repetitions behind it.
    pub fn push_with_dev(&mut self, x: f64, y: f64, sd: f64) {
        self.points.push((x, y));
        self.devs.push(sd);
    }

    /// The collected points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The per-point sample standard deviations, parallel to
    /// [`Series::points`].
    pub fn devs(&self) -> &[f64] {
        &self.devs
    }

    /// The y value at a given x, if present (exact match).
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|(px, _)| *px == x).map(|(_, y)| *y)
    }

    /// The (x, y) pair with the largest y; `None` when empty.
    pub fn peak(&self) -> Option<(f64, f64)> {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Renders the series as CSV rows `label,x,y,sd`.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for ((x, y), sd) in self.points.iter().zip(&self.devs) {
            out.push_str(&format!("{},{},{},{}\n", self.label, x, y, sd));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_benign() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_observation() {
        let mut s = RunningStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (1..=100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-10);
        assert!((s.sample_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn series_peak_and_lookup() {
        let mut s = Series::new("q5");
        s.push(1.0, 350.0);
        s.push(4.0, 920.0);
        s.push(5.0, 700.0);
        assert_eq!(s.peak(), Some((4.0, 920.0)));
        assert_eq!(s.y_at(5.0), Some(700.0));
        assert_eq!(s.y_at(9.0), None);
    }

    #[test]
    fn series_csv_rendering() {
        let mut s = Series::new("p2p");
        s.push(1000.0, 100.0);
        s.push_with_dev(2000.0, 90.0, 1.5);
        assert_eq!(s.to_csv(), "p2p,1000,100,0\np2p,2000,90,1.5\n");
    }
}
