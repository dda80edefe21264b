//! The object-size distribution used by the workload models.
//!
//! Figure 7 of the paper shows that Android objects are overwhelmingly much
//! smaller than a 4 KiB page; [`SizeDistribution`] encodes exactly such
//! bucketed CDFs.

use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// A discrete distribution over size buckets, described by `(size, weight)`
/// pairs. Sampling returns one of the configured sizes with probability
/// proportional to its weight.
///
/// # Examples
///
/// ```
/// use fleet_sim::{SimRng, SizeDistribution};
///
/// // Mostly 32-byte objects, occasionally 4 KiB ones.
/// let dist = SizeDistribution::new(vec![(32, 95.0), (4096, 5.0)]).unwrap();
/// let mut rng = SimRng::seed_from(1);
/// let s = dist.sample(&mut rng);
/// assert!(s == 32 || s == 4096);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SizeDistribution {
    buckets: Vec<(u32, f64)>,
    total_weight: f64,
}

// Serialised as the bare bucket list (upstream: `#[serde(into/try_from =
// "Vec<(u32, f64)>")]`); hand-written because the vendored serde_derive
// does not support container attributes.
impl Serialize for SizeDistribution {
    fn to_value(&self) -> serde::Value {
        self.buckets.to_value()
    }
}

impl Deserialize for SizeDistribution {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let buckets = Vec::<(u32, f64)>::from_value(v)?;
        SizeDistribution::try_from(buckets).map_err(serde::DeError::custom)
    }
}

impl From<SizeDistribution> for Vec<(u32, f64)> {
    fn from(dist: SizeDistribution) -> Self {
        dist.buckets
    }
}

impl TryFrom<Vec<(u32, f64)>> for SizeDistribution {
    type Error = DistError;
    fn try_from(buckets: Vec<(u32, f64)>) -> Result<Self, DistError> {
        SizeDistribution::new(buckets)
    }
}

/// Error returned when a [`SizeDistribution`] cannot be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// No buckets were supplied.
    Empty,
    /// A weight was negative, NaN, or the total weight was zero.
    BadWeight,
    /// A bucket size was zero.
    ZeroSize,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Empty => write!(f, "distribution has no buckets"),
            DistError::BadWeight => {
                write!(f, "bucket weights must be non-negative and sum to a positive value")
            }
            DistError::ZeroSize => write!(f, "bucket sizes must be positive"),
        }
    }
}

impl std::error::Error for DistError {}

impl SizeDistribution {
    /// Builds a distribution from `(size_bytes, weight)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`DistError`] if no buckets are given, any size is zero, any
    /// weight is negative/NaN, or all weights are zero.
    pub fn new(buckets: Vec<(u32, f64)>) -> Result<Self, DistError> {
        if buckets.is_empty() {
            return Err(DistError::Empty);
        }
        let mut total = 0.0;
        for &(size, w) in &buckets {
            if size == 0 {
                return Err(DistError::ZeroSize);
            }
            if !w.is_finite() || w < 0.0 {
                return Err(DistError::BadWeight);
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(DistError::BadWeight);
        }
        Ok(SizeDistribution { buckets, total_weight: total })
    }

    /// A distribution that always returns `size`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn constant(size: u32) -> Self {
        SizeDistribution::new(vec![(size, 1.0)]).expect("constant size must be positive")
    }

    /// Samples a size in bytes.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        let mut x = rng.unit() * self.total_weight;
        for &(size, w) in &self.buckets {
            if x < w {
                return size;
            }
            x -= w;
        }
        // Floating-point slack: fall back to the last bucket.
        self.buckets.last().expect("non-empty by construction").0
    }

    /// The expected (mean) size in bytes.
    pub fn mean(&self) -> f64 {
        self.buckets.iter().map(|&(s, w)| s as f64 * w).sum::<f64>() / self.total_weight
    }

    /// Fraction of sampled objects with size `<= limit` (the CDF at `limit`).
    pub fn cdf_at(&self, limit: u32) -> f64 {
        self.buckets.iter().filter(|&&(s, _)| s <= limit).map(|&(_, w)| w).sum::<f64>()
            / self.total_weight
    }

    /// The configured `(size, weight)` buckets.
    pub fn buckets(&self) -> &[(u32, f64)] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_distribution_respects_weights() {
        let dist = SizeDistribution::new(vec![(16, 90.0), (1024, 10.0)]).unwrap();
        let mut rng = SimRng::seed_from(4);
        let n = 50_000;
        let small = (0..n).filter(|_| dist.sample(&mut rng) == 16).count();
        let frac = small as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.01, "small fraction {frac}");
    }

    #[test]
    fn size_distribution_rejects_bad_input() {
        assert_eq!(SizeDistribution::new(vec![]).unwrap_err(), DistError::Empty);
        assert_eq!(SizeDistribution::new(vec![(0, 1.0)]).unwrap_err(), DistError::ZeroSize);
        assert_eq!(SizeDistribution::new(vec![(8, -1.0)]).unwrap_err(), DistError::BadWeight);
        assert_eq!(SizeDistribution::new(vec![(8, 0.0)]).unwrap_err(), DistError::BadWeight);
    }

    #[test]
    fn size_distribution_mean_and_cdf() {
        let dist = SizeDistribution::new(vec![(10, 1.0), (30, 1.0)]).unwrap();
        assert!((dist.mean() - 20.0).abs() < 1e-9);
        assert!((dist.cdf_at(10) - 0.5).abs() < 1e-9);
        assert!((dist.cdf_at(9) - 0.0).abs() < 1e-9);
        assert!((dist.cdf_at(4096) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_distribution() {
        let dist = SizeDistribution::constant(512);
        let mut rng = SimRng::seed_from(0);
        for _ in 0..100 {
            assert_eq!(dist.sample(&mut rng), 512);
        }
    }
}
