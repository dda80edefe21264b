//! Property tests on the simulation substrate.

use fleet_sim::{SimDuration, SimRng, SizeDistribution};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn duration_arithmetic_is_consistent(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!(da + db, SimDuration::from_nanos(a + b));
        prop_assert_eq!((da + db) - db, da);
        prop_assert_eq!(da.saturating_sub(da + db), SimDuration::ZERO);
        prop_assert_eq!(da.max(db).as_nanos(), a.max(b));
        prop_assert_eq!(da.min(db).as_nanos(), a.min(b));
    }

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut fa = a.fork();
        let mut fb = b.fork();
        prop_assert_eq!(fa.next_u64(), fb.next_u64());
    }

    #[test]
    fn size_distribution_samples_configured_sizes(
        buckets in proptest::collection::vec((1u32..16384, 0.1f64..100.0), 1..12),
        seed in any::<u64>(),
    ) {
        let dist = SizeDistribution::new(buckets.clone()).unwrap();
        let sizes: Vec<u32> = buckets.iter().map(|&(s, _)| s).collect();
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..200 {
            let s = dist.sample(&mut rng);
            prop_assert!(sizes.contains(&s), "sampled unconfigured size {s}");
        }
        let mean = dist.mean();
        let min = *sizes.iter().min().unwrap() as f64;
        let max = *sizes.iter().max().unwrap() as f64;
        // Small float slack: weighted means of equal sizes can land
        // epsilon outside the bucket range.
        prop_assert!(mean >= min * (1.0 - 1e-9) && mean <= max * (1.0 + 1e-9));
    }
}
