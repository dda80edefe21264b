//! Population-layer contracts: splittable seeds, aggregation differentials
//! and sampler distribution sanity (DESIGN.md §12).
//!
//! Three layers pin the cohort machinery down:
//!
//! * **Splittable-seed proptest** — for random specs, re-simulating any
//!   sampled device-day standalone from its derived seed is byte-identical
//!   (event-stream fingerprint + serialised row) to its in-population run,
//!   and the parallel cohort runner folds to the same bytes as a naive
//!   serial fold over those standalone rows.
//! * **Aggregation differential** — the batched exporter's counters,
//!   histogram buckets and percentiles equal the naive serial fold, for
//!   1-thread and N-thread runs, down to identical export JSON.
//! * **Sampler sanity** — at n = 10k, draws respect configured bounds and
//!   land near configured frequencies; degenerate (zero-variance) specs
//!   reduce exactly to today's fixed-config runs.

use fleet::population::{
    device_seed, run_device_day, run_population, sample_device, DevicePlan, PopulationAggregate,
    PopulationSpec, RangeF64, RangeU32, SLICE_LEN,
};
use fleet::{DeviceConfig, SchemeKind};
use proptest::prelude::*;

/// Serialises anything the export layer would write, for byte equality.
fn json_of<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("value serialises")
}

/// A cohort spec kept deliberately tiny: property cases simulate every
/// device-day twice, so the day shape must stay cheap in debug builds.
fn tiny_spec(
    seed: u64,
    devices: u32,
    zram_chance: f64,
    schemes: Vec<SchemeKind>,
) -> PopulationSpec {
    let mut spec = PopulationSpec::default_mix(seed, devices);
    spec.schemes = schemes;
    for class in &mut spec.classes {
        class.dram_mib = RangeU32 { lo: 2560, hi: 3072 };
        class.zram_chance = zram_chance;
    }
    for persona in &mut spec.personas {
        persona.working_set = RangeU32 { lo: 2, hi: 2 };
        persona.cycles = RangeU32 { lo: 1, hi: 2 };
        persona.usage_gap_secs = RangeU32 { lo: 5, hi: 8 };
    }
    spec.validate().expect("tiny spec stays valid");
    spec
}

fn scheme_mix_strategy() -> impl Strategy<Value = Vec<SchemeKind>> {
    prop_oneof![
        Just(vec![SchemeKind::Fleet]),
        Just(vec![SchemeKind::Android, SchemeKind::Fleet]),
        Just(SchemeKind::ALL.to_vec()),
    ]
}

fn tiny_spec_strategy() -> impl Strategy<Value = PopulationSpec> {
    (any::<u64>(), 2u32..5, prop_oneof![Just(0.0), Just(0.5), Just(1.0)], scheme_mix_strategy())
        .prop_map(|(seed, devices, zram, schemes)| tiny_spec(seed, devices, zram, schemes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The splittable-seed contract: any device-day of the cohort re-runs
    /// standalone to the same bytes, and the cohort aggregate equals the
    /// naive serial fold over those standalone rows — for a sequential
    /// *and* a multi-worker run.
    #[test]
    fn device_days_resimulate_byte_identically(spec in tiny_spec_strategy()) {
        let mut naive = PopulationAggregate::new(spec.devices, SLICE_LEN);
        for index in 0..spec.devices {
            let plan = sample_device(&spec, index).unwrap();
            prop_assert_eq!(plan.seed, device_seed(spec.seed, index));
            let in_population = run_device_day(&plan).unwrap();
            // Standalone re-run from nothing but (spec, index).
            let standalone = run_device_day(&sample_device(&spec, index).unwrap()).unwrap();
            prop_assert_eq!(standalone.fingerprint, in_population.fingerprint);
            prop_assert_eq!(json_of(&standalone), json_of(&in_population));
            naive.absorb(&in_population);
        }
        let sequential = run_population(&spec, 1).unwrap();
        let parallel = run_population(&spec, 3).unwrap();
        prop_assert_eq!(&sequential.aggregate, &naive);
        prop_assert_eq!(&parallel.aggregate, &naive);
        prop_assert_eq!(json_of(&sequential.aggregate), json_of(&naive));
    }
}

/// The batched exporter vs a naive serial fold, in detail: counters,
/// histogram buckets, derived percentiles and slice rows, for 1 and N
/// worker threads, down to identical export JSON bytes.
#[test]
fn aggregation_differential_against_naive_fold() {
    let spec = tiny_spec(0xC0_40_47, 9, 0.5, SchemeKind::ALL.to_vec());
    let mut naive = PopulationAggregate::new(spec.devices, SLICE_LEN);
    for index in 0..spec.devices {
        naive.absorb(&run_device_day(&sample_device(&spec, index).unwrap()).unwrap());
    }
    for threads in [1, 4] {
        let run = run_population(&spec, threads).unwrap();
        let agg = &run.aggregate;
        assert_eq!(agg.devices, naive.devices, "{threads} threads");
        assert_eq!(agg.launches, naive.launches);
        assert_eq!(agg.lmk_kills, naive.lmk_kills);
        assert_eq!(agg.faults, naive.faults);
        assert_eq!(agg.cohort_hash, naive.cohort_hash);
        assert_eq!(agg.launch.total_us.buckets(), naive.launch.total_us.buckets());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(agg.launch.total_us.quantile(q), naive.launch.total_us.quantile(q));
        }
        assert_eq!(agg.slices, naive.slices);
        assert_eq!(agg, &naive);
        assert_eq!(json_of(agg), json_of(&naive), "export bytes must not depend on threads");
    }
}

// ---------------------------------------------------------- sampler sanity

/// 10k draws from the standard mix: every sampled value respects its
/// configured bounds and grids.
#[test]
fn sampled_devices_respect_bounds_at_10k() {
    let spec = PopulationSpec::default_mix(0xF1EE7, 10_000);
    for index in 0..spec.devices {
        let plan = sample_device(&spec, index).unwrap();
        let class = spec.classes.iter().find(|c| c.name == plan.class).expect("known class");
        let persona = spec.personas.iter().find(|p| p.name == plan.persona).expect("known persona");
        let dram = plan.config.dram_mib;
        assert!(dram >= class.dram_mib.lo && dram <= class.dram_mib.hi, "device {index}");
        assert_eq!((dram - class.dram_mib.lo) % 256, 0, "DRAM off the 256 MiB grid");
        let ratio = plan.config.swap_mib as f64 / dram as f64;
        // round() moves the realised ratio by at most half a MiB.
        assert!(ratio >= class.swap_ratio.lo - 0.01 && ratio <= class.swap_ratio.hi + 0.01);
        assert!(
            plan.config.swappiness >= class.swappiness.lo
                && plan.config.swappiness <= class.swappiness.hi
        );
        if let Some(front) = plan.config.zram_front {
            assert!(class.zram_chance > 0.0, "zram sampled with zero chance");
            assert_ne!(plan.config.scheme, SchemeKind::AndroidNoSwap);
            let fraction = front.mib as f64 / plan.config.swap_mib as f64;
            assert!(
                fraction >= class.zram_fraction.lo - 0.01
                    && fraction <= class.zram_fraction.hi + 0.01
            );
            assert!(
                front.compression_ratio >= class.zram_ratio.lo
                    && front.compression_ratio <= class.zram_ratio.hi
            );
        }
        let k = plan.apps.len() as u32;
        assert!(k >= persona.working_set.lo && k <= persona.working_set.hi);
        for app in &plan.apps {
            assert!(persona.apps.contains(app), "app outside the persona list");
        }
        assert!(plan.cycles >= persona.cycles.lo && plan.cycles <= persona.cycles.hi);
        assert!(
            plan.usage_gap_secs >= persona.usage_gap_secs.lo
                && plan.usage_gap_secs <= persona.usage_gap_secs.hi
        );
    }
}

/// 10k draws hit configured frequencies within tolerance: class and
/// persona weights, the uniform scheme mix, and per-class zram adoption.
#[test]
fn sampled_frequencies_match_weights_at_10k() {
    let spec = PopulationSpec::default_mix(0xBEEF, 10_000);
    let n = spec.devices as f64;
    let plans: Vec<DevicePlan> =
        (0..spec.devices).map(|i| sample_device(&spec, i).unwrap()).collect();

    // Binomial sd at n=10k is ≤ 0.5pp for these rates; ±3pp is ~6 sigma.
    let tolerance = 0.03;
    let class_weight_total: f64 = spec.classes.iter().map(|c| c.weight as f64).sum();
    for class in &spec.classes {
        let got = plans.iter().filter(|p| p.class == class.name).count() as f64 / n;
        let want = class.weight as f64 / class_weight_total;
        assert!(
            (got - want).abs() < tolerance,
            "class {}: {got:.3} vs configured {want:.3}",
            class.name
        );
    }
    let persona_weight_total: f64 = spec.personas.iter().map(|p| p.weight as f64).sum();
    for persona in &spec.personas {
        let got = plans.iter().filter(|p| p.persona == persona.name).count() as f64 / n;
        let want = persona.weight as f64 / persona_weight_total;
        assert!(
            (got - want).abs() < tolerance,
            "persona {}: {got:.3} vs configured {want:.3}",
            persona.name
        );
    }
    for &scheme in &spec.schemes {
        let got = plans.iter().filter(|p| p.config.scheme == scheme).count() as f64 / n;
        let want = 1.0 / spec.schemes.len() as f64;
        assert!((got - want).abs() < tolerance, "scheme {scheme}: {got:.3} vs uniform {want:.3}");
    }
    // Zram adoption, conditioned on (class, swap-capable scheme).
    for class in &spec.classes {
        let eligible: Vec<_> = plans
            .iter()
            .filter(|p| p.class == class.name && p.config.scheme != SchemeKind::AndroidNoSwap)
            .collect();
        let got = eligible.iter().filter(|p| p.config.zram_front.is_some()).count() as f64
            / eligible.len() as f64;
        assert!(
            (got - class.zram_chance).abs() < 2.0 * tolerance,
            "class {} zram adoption: {got:.3} vs configured {:.3}",
            class.name,
            class.zram_chance
        );
    }
    // DRAM spreads across the grid: every step of the widest class shows up.
    let mid = &spec.classes[1];
    let steps = (mid.dram_mib.hi - mid.dram_mib.lo) / 256 + 1;
    let distinct: std::collections::BTreeSet<u32> =
        plans.iter().filter(|p| p.class == mid.name).map(|p| p.config.dram_mib).collect();
    assert_eq!(distinct.len() as u32, steps, "class {} missed DRAM grid points", mid.name);
}

/// The degeneracy contract: a zero-variance spec samples exactly today's
/// fixed Pixel 3 configuration (only the seed differs), and its device-day
/// is byte-identical to running the hand-built fixed-config plan.
#[test]
fn degenerate_spec_reduces_to_fixed_config_run() {
    let apps: Vec<String> = ["Twitter", "Telegram"].iter().map(|s| s.to_string()).collect();
    let spec = PopulationSpec::degenerate(0x5EED, 2, SchemeKind::Fleet, &apps);
    for index in 0..spec.devices {
        let sampled = sample_device(&spec, index).unwrap();
        // Exactly the fixed config, seed aside.
        let mut fixed_config = DeviceConfig::pixel3(SchemeKind::Fleet);
        fixed_config.seed = device_seed(spec.seed, index);
        assert_eq!(sampled.config, fixed_config);
        // And exactly the fixed plan: a hand-built DevicePlan over that
        // config runs to the same bytes as the sampled one.
        let fixed_plan = DevicePlan {
            index,
            seed: fixed_config.seed,
            class: "pixel3".to_string(),
            persona: "fixed".to_string(),
            config: fixed_config,
            apps: apps.clone(),
            cycles: 4,
            usage_gap_secs: 30,
        };
        assert_eq!(sampled, fixed_plan);
        let a = run_device_day(&sampled).unwrap();
        let b = run_device_day(&fixed_plan).unwrap();
        assert_eq!(json_of(&a), json_of(&b));
    }
}

/// The documented draw order is stable: widening the last-drawn range
/// (usage gap) cannot move any draw made before it.
#[test]
fn widening_the_last_range_leaves_earlier_draws_untouched() {
    let base = tiny_spec(0xAB, 4, 0.0, vec![SchemeKind::Fleet]);
    let mut widened = base.clone();
    // usage_gap is the LAST draw: widening it must not move anything else.
    for persona in &mut widened.personas {
        persona.usage_gap_secs = RangeU32 { lo: 5, hi: 60 };
    }
    for index in 0..base.devices {
        let a = sample_device(&base, index).unwrap();
        let b = sample_device(&widened, index).unwrap();
        assert_eq!(a.config, b.config, "earlier draws moved");
        assert_eq!(a.apps, b.apps);
        assert_eq!(a.cycles, b.cycles);
    }
}

/// `RangeF64::fixed` round-trips exactly (no float drift in degeneracy).
#[test]
fn fixed_float_range_is_exact() {
    let r = RangeF64::fixed(0.5);
    assert_eq!(r.lo, r.hi);
    let swap = DeviceConfig::pixel3(SchemeKind::Fleet);
    assert_eq!((swap.dram_mib as f64 * 0.5).round() as u32, swap.swap_mib);
}
