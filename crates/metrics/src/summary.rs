//! Summary statistics over a sample: mean, standard deviation, percentiles
//! and the empirical CDF.
//!
//! The paper characterises hot-launch behaviour by the 10th, 50th and 90th
//! percentiles plus mean ± standard deviation (Figure 15), and plots
//! hot-launch CDFs per app and scheme (Figures 13 and 16); [`Summary`] is
//! the one-stop type the experiment drivers hand their launch samples to.

use serde::{Deserialize, Serialize};

/// An immutable summary of a numeric sample.
///
/// Values are sorted at construction so percentile queries are O(1)-ish
/// (a single interpolation on the sorted slice).
///
/// # Examples
///
/// ```
/// use fleet_metrics::Summary;
///
/// let s = Summary::from_values([3.0, 1.0, 2.0]);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 3.0);
/// assert_eq!(s.percentile(50.0), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
    std_dev: f64,
}

impl Summary {
    /// Builds a summary from any iterator of values. NaN values are dropped.
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let mut sorted: Vec<f64> = values.into_iter().filter(|v| !v.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
        let n = sorted.len() as f64;
        let (mean, std_dev) = if sorted.is_empty() {
            (0.0, 0.0)
        } else {
            let mean = sorted.iter().sum::<f64>() / n;
            let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
            (mean, var.sqrt())
        };
        Summary { sorted, mean, std_dev }
    }

    /// Number of (non-NaN) samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean, or 0 for an empty sample.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation, or 0 for an empty sample.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Linear-interpolated percentile, `p` in `[0, 100]`.
    ///
    /// Returns 0 for an empty sample.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        match self.sorted.len() {
            0 => 0.0,
            1 => self.sorted[0],
            n => {
                let pos = p / 100.0 * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                let frac = pos - lo as f64;
                self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
            }
        }
    }

    /// The median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The 90th-percentile "tail" value the paper focuses on.
    pub fn p90(&self) -> f64 {
        self.percentile(90.0)
    }

    /// The 10th-percentile "best case" value (Figure 15b).
    pub fn p10(&self) -> f64 {
        self.percentile(10.0)
    }

    /// The 99th-percentile deep-tail value (the reclaim-policy tradeoff
    /// curves report it next to kill rate).
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// Fraction of samples `<= x`, in `[0, 1]`: the empirical CDF at `x`.
    /// Returns 0 for an empty sample.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Renders the empirical CDF as `points` evenly spaced `(value,
    /// fraction)` pairs.
    ///
    /// The first point is the sample minimum, the last the maximum.
    pub fn cdf_curve(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let (lo, hi) = (self.min(), self.max());
        if points == 1 || hi == lo {
            return vec![(hi, 1.0)];
        }
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }

    /// The sorted samples.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Summary::from_values(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_all_zero() {
        let s = Summary::from_values(std::iter::empty());
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.percentile(90.0), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn single_value() {
        let s = Summary::from_values([42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.median(), 42.0);
        assert_eq!(s.p90(), 42.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::from_values([0.0, 10.0]);
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.percentile(50.0), 5.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert_eq!(s.percentile(25.0), 2.5);
    }

    #[test]
    fn mean_and_std_dev() {
        let s = Summary::from_values([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nan_values_are_dropped() {
        let s = Summary::from_values([1.0, f64::NAN, 3.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn collects_from_iterator() {
        let s: Summary = (1..=100).map(|i| i as f64).collect();
        assert_eq!(s.len(), 100);
        assert!((s.median() - 50.5).abs() < 1e-9);
        assert!((s.p90() - 90.1).abs() < 1e-9);
        assert!((s.p10() - 10.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_out_of_range_panics() {
        Summary::from_values([1.0]).percentile(101.0);
    }

    #[test]
    fn empty_cdf() {
        let s = Summary::from_values(std::iter::empty());
        assert!(s.is_empty());
        assert_eq!(s.fraction_at_or_below(10.0), 0.0);
        assert!(s.cdf_curve(10).is_empty());
    }

    #[test]
    fn fractions_step_at_samples() {
        let s = Summary::from_values([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.fraction_at_or_below(0.5), 0.0);
        assert_eq!(s.fraction_at_or_below(1.0), 0.25);
        assert_eq!(s.fraction_at_or_below(2.9), 0.5);
        assert_eq!(s.fraction_at_or_below(4.0), 1.0);
        assert_eq!(s.fraction_at_or_below(9.0), 1.0);
    }

    #[test]
    fn curve_spans_sample_range() {
        let curve = Summary::from_values([0.0, 100.0]).cdf_curve(5);
        assert_eq!(curve.len(), 5);
        assert_eq!(curve[0], (0.0, 0.5));
        assert_eq!(curve[4], (100.0, 1.0));
    }

    #[test]
    fn degenerate_curve_collapses() {
        let s = Summary::from_values([7.0, 7.0, 7.0]);
        assert_eq!(s.cdf_curve(10), vec![(7.0, 1.0)]);
    }
}
