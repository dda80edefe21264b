//! Property tests on the statistics layer.

use fleet_metrics::{Histogram, Summary};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percentiles_are_monotone_and_bounded(values in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let s = Summary::from_values(values.clone());
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile(p);
            prop_assert!(v >= prev, "percentile must be monotone in p");
            prop_assert!(v >= s.min() && v <= s.max());
            prev = v;
        }
        prop_assert!(s.mean() >= s.min() && s.mean() <= s.max());
        prop_assert!(s.std_dev() >= 0.0);
    }

    #[test]
    fn summary_is_order_invariant(mut values in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
        let a = Summary::from_values(values.clone());
        values.reverse();
        let b = Summary::from_values(values);
        prop_assert_eq!(a.median(), b.median());
        prop_assert_eq!(a.mean(), b.mean());
        prop_assert_eq!(a.p90(), b.p90());
    }

    #[test]
    fn cdf_fraction_is_monotone_and_inverts(values in proptest::collection::vec(0f64..1e6, 1..200)) {
        let cdf = Summary::from_values(values.clone());
        let mut prev = 0.0;
        let max = values.iter().cloned().fold(0.0, f64::max);
        for i in 0..=20 {
            let x = max * i as f64 / 20.0;
            let f = cdf.fraction_at_or_below(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev);
            prev = f;
        }
        prop_assert_eq!(cdf.fraction_at_or_below(max), 1.0);
    }

    #[test]
    fn histogram_totals_and_percentages(keys in proptest::collection::vec(0u32..40, 1..300), limit in 1u32..20) {
        let mut h = Histogram::new(limit);
        for &k in &keys {
            h.record(k);
        }
        prop_assert_eq!(h.total(), keys.len() as u64);
        let pcts = h.percentages();
        prop_assert_eq!(pcts.len() as u32, limit + 1);
        let sum: f64 = pcts.iter().sum();
        prop_assert!((sum - 100.0).abs() < 1e-6);
        let overflow_expect = keys.iter().filter(|&&k| k >= limit).count() as u64;
        prop_assert_eq!(h.overflow(), overflow_expect);
    }
}
