//! The log2-bucketed histogram behind both the metric registry's latency
//! histograms and population-scale aggregation.
//!
//! Cohort runs (DESIGN.md §12) fold tens of thousands of device-days into
//! one percentile dashboard. Exact sample retention would make the merge
//! order observable (float summation) and the memory cost linear in the
//! cohort; [`LogHistogram`] instead keeps 64 power-of-two buckets of `u64`
//! counts, so absorbing and merging are commutative *integer* adds — the
//! property the parallel population runner leans on to stay bit-identical
//! whatever the thread count. Quantiles interpolate inside the matched
//! bucket, which is accurate to within the bucket's 2× width.

use serde::{Deserialize, Serialize};

/// A mergeable log2-bucketed histogram over `u64` values.
///
/// # Examples
///
/// ```
/// use fleet_obs::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [120, 130, 140, 900] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), 900);
/// assert!(h.quantile(0.5) >= 64 && h.quantile(0.5) <= 255);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Bucket `b` holds values in `[2^b, 2^(b+1))` (bucket 0 also holds 0).
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { buckets: vec![0; 64], count: 0, sum: 0, max: 0 }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value` (bulk absorption from a
    /// pre-counted source).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, interpolated inside the
    /// matched log2 bucket and clamped to the recorded max; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = if b == 0 { 0u64 } else { 1u64 << b };
                let hi = if b >= 63 { u64::MAX } else { (1u64 << (b + 1)) - 1 };
                let frac = (rank - seen) as f64 / n as f64;
                let v = lo as f64 + frac * (hi - lo) as f64;
                return (v as u64).min(self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Folds `other` into `self`. Commutative and associative: any merge
    /// order over any partition of the same observations yields identical
    /// state, which is what makes sharded aggregation order-free.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Per-bucket counts (64 entries; bucket `b` covers `[2^b, 2^(b+1))`).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_count_sum_max() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(1);
        h.record_n(1000, 3);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 3001);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 600.2).abs() < 1e-9);
    }

    #[test]
    fn quantiles_bracket_uniform_data() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        // True median 500; log2 buckets are 2x wide.
        assert!((256..=1000).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(0.99) <= h.max());
        assert!(h.quantile(0.5) <= h.quantile(0.999));
    }

    #[test]
    fn empty_and_zero_values() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.999), 0);
    }

    #[test]
    fn merge_equals_single_stream_any_partition() {
        let values: Vec<u64> = (0..500).map(|i| (i * i * 2654435761) % 100_000).collect();
        let mut whole = LogHistogram::new();
        for &v in &values {
            whole.record(v);
        }
        // Three shards merged in a scrambled order.
        let mut shards = [LogHistogram::new(), LogHistogram::new(), LogHistogram::new()];
        for (i, &v) in values.iter().enumerate() {
            shards[i % 3].record(v);
        }
        let mut merged = LogHistogram::new();
        for idx in [2, 0, 1] {
            merged.merge(&shards[idx]);
        }
        assert_eq!(merged, whole);
    }

    #[test]
    fn serde_round_trip() {
        let mut h = LogHistogram::new();
        h.record_n(12345, 7);
        let v = serde::Serialize::to_value(&h);
        let back: LogHistogram = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, h);
    }
}
