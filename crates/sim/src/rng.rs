//! Seeded randomness for deterministic runs.
//!
//! Every stochastic decision in the simulator (object sizes, access sampling,
//! launch jitter) flows through a [`SimRng`], which wraps a fixed-algorithm
//! PRNG. The wrapper also carries the convenience sampling methods the app
//! behaviour models need, so call sites stay terse.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random-number generator.
///
/// Two `SimRng`s created from the same seed produce identical streams, and
/// [`SimRng::fork`] derives an independent child stream so sub-components can
/// consume randomness without perturbing each other.
///
/// # Examples
///
/// ```
/// use fleet_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng { inner: StdRng::seed_from_u64(seed) }
    }

    /// Derives an independent child generator.
    ///
    /// The child is seeded from this generator's stream, so forking is itself
    /// deterministic but the two streams do not overlap in practice.
    pub fn fork(&mut self) -> SimRng {
        let seed = self.inner.gen::<u64>() ^ 0x9e37_79b9_7f4a_7c15;
        SimRng::seed_from(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick an index from an empty collection");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid uniform range {lo}..{hi}");
        lo + self.unit() * (hi - lo)
    }

    /// A standard normal sample (Box–Muller transform).
    pub fn standard_normal(&mut self) -> f64 {
        // Avoid ln(0) by drawing from (0, 1].
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev.is_finite() && std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// Picks a uniformly random element of `slice`, or `None` when empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.index(slice.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_deterministic_but_distinct() {
        let mut root1 = SimRng::seed_from(1);
        let mut root2 = SimRng::seed_from(1);
        let mut c1 = root1.fork();
        let mut c2 = root2.fork();
        assert_eq!(c1.next_u64(), c2.next_u64());
        // Child stream differs from the parent's continuation.
        assert_ne!(root1.next_u64(), c1.next_u64());
    }

    #[test]
    fn chance_edge_cases() {
        let mut r = SimRng::seed_from(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn unit_stays_in_range() {
        let mut r = SimRng::seed_from(11);
        for _ in 0..10_000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut r = SimRng::seed_from(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "variance {var}");
    }

    #[test]
    fn choose_none_on_empty() {
        let mut r = SimRng::seed_from(2);
        let empty: [u8; 0] = [];
        assert_eq!(r.choose(&empty), None);
        assert!(r.choose(&[1, 2, 3]).is_some());
    }
}
