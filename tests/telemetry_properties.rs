//! Fleet-telemetry contracts (DESIGN.md §15): the cohort attribution/SLO
//! fold is thread-count-invariant down to exported JSON bytes, SLO windows
//! evaluate deterministically, and outlier drill-down replays each flagged
//! device-day to the bit-identical fingerprint the cohort recorded.

use fleet::population::{run_population, PopulationAggregate, PopulationSpec, RangeU32};
use fleet::{drill_down, SchemeKind, SloSpec};
use proptest::prelude::*;
use std::path::PathBuf;

/// Serialises anything the export layer would write, for byte equality.
fn json_of<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("value serialises")
}

/// A deliberately tiny cohort spec (property cases simulate every
/// device-day several times) with a pair of armed SLO monitors: one that
/// cannot pass (0 ms hot-launch ceiling) and one that cannot fail.
fn tiny_spec(seed: u64, devices: u32, zram_chance: f64) -> PopulationSpec {
    let mut spec = PopulationSpec::default_mix(seed, devices);
    for class in &mut spec.classes {
        class.dram_mib = RangeU32 { lo: 2560, hi: 3072 };
        class.zram_chance = zram_chance;
    }
    for persona in &mut spec.personas {
        persona.working_set = RangeU32 { lo: 2, hi: 2 };
        persona.cycles = RangeU32 { lo: 1, hi: 2 };
        persona.usage_gap_secs = RangeU32 { lo: 5, hi: 8 };
    }
    spec.slos = vec![
        SloSpec::hot_launch_ms("impossible-p50-0ms", 5000, 0, 2),
        SloSpec::hot_launch_ms("generous-p99", 9900, 1 << 30, 2),
        SloSpec::lmk_kills_milli("generous-kills", u64::MAX / 2, 4),
    ];
    spec.validate().expect("tiny spec stays valid");
    spec
}

/// A scratch directory under the system temp dir, unique per test.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fleet_telemetry_{}_{tag}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole invariant: with SLO monitors armed, a sequential and a
    /// 4-worker cohort run fold to byte-identical aggregates — telemetry
    /// histograms, slice rows, outlier pools, SLO verdicts and all — down
    /// to the exported JSON.
    #[test]
    fn telemetry_and_slo_folds_are_thread_count_invariant(
        seed in any::<u64>(),
        devices in 2u32..6,
        zram in prop_oneof![Just(0.0), Just(1.0)],
    ) {
        let spec = tiny_spec(seed, devices, zram);
        let sequential = run_population(&spec, 1).unwrap();
        let parallel = run_population(&spec, 4).unwrap();
        prop_assert_eq!(&sequential.aggregate, &parallel.aggregate);
        prop_assert_eq!(json_of(&sequential.aggregate), json_of(&parallel.aggregate));
        // The 0 ms ceiling breaches exactly the windows whose observed p50
        // strictly exceeds zero (a fully-resident hot launch can cost 0 µs,
        // and a 1-cycle day may record no hot launch at all — those windows
        // are skipped, never silently passed); the generous ones never
        // breach.
        let report = sequential.aggregate.slo_report();
        prop_assert_eq!(report.verdicts.len(), 3);
        let points = sequential.aggregate.slo_points(&spec.slos[0]);
        let expected = points.iter().filter(|p| p.value_milli > 0).count();
        prop_assert_eq!(report.verdicts[0].windows as usize, points.len());
        prop_assert_eq!(report.verdicts[0].breaches.len(), expected);
        prop_assert_eq!(report.verdicts[0].pass, expected == 0);
        prop_assert!(report.verdicts[1].pass, "1<<30 ms ceiling must hold");
        prop_assert!(report.verdicts[2].pass, "huge kill budget must hold");
    }

    /// Drill-down replays every ranked outlier standalone to the exact
    /// fingerprint the cohort fold recorded for that device index.
    #[test]
    fn drilldown_replays_outliers_bit_identically(seed in any::<u64>()) {
        let spec = tiny_spec(seed, 4, 0.5);
        let run = run_population(&spec, 2).unwrap();
        let outliers = run.aggregate.rank_outliers(3);
        prop_assert!(!outliers.is_empty(), "a nonempty cohort must rank outliers");
        let dir = scratch(&format!("prop_{seed:016x}"));
        let records = drill_down(&spec, &outliers, &dir).unwrap();
        prop_assert_eq!(records.len(), outliers.len());
        for record in &records {
            prop_assert!(
                record.matched,
                "outlier {} replayed to {:016x}, cohort saw {:016x}",
                record.index, record.replayed_fingerprint, record.cohort_fingerprint
            );
            for file in &record.files {
                prop_assert!(dir.join(file).is_file(), "missing artifact {file}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Telemetry rides the aggregate invisibly: armed monitors change verdicts
/// but not one byte of the simulation — the cohort hash and the rest of
/// the aggregate match a monitor-free run of the same spec.
#[test]
fn slo_monitors_never_perturb_the_cohort() {
    let armed = tiny_spec(0x7E1E, 5, 0.5);
    let mut plain = armed.clone();
    plain.slos.clear();
    let a = run_population(&armed, 2).unwrap().aggregate;
    let p = run_population(&plain, 2).unwrap().aggregate;
    assert_eq!(a.cohort_hash, p.cohort_hash);
    assert!(!a.slo_verdicts.is_empty());
    assert!(p.slo_verdicts.is_empty());
    assert_eq!(PopulationAggregate { slo_verdicts: Vec::new(), ..a }, p);
}

/// The attribution decomposition reconciles: per-scheme and per-class
/// launch counts each partition the cohort's hot launches, and every
/// span's components sum back to its total.
#[test]
fn attribution_partitions_hot_launches() {
    let spec = tiny_spec(0xA77B, 6, 0.5);
    let run = run_population(&spec, 3).unwrap();
    let agg = &run.aggregate;
    assert_eq!(agg.launch.launches(), agg.hot_launches);
    let by_scheme: u64 = agg.schemes.iter().map(|row| row.launch.launches()).sum();
    let by_class: u64 = agg.classes.iter().map(|c| c.attribution.launches()).sum();
    assert_eq!(by_scheme, agg.hot_launches);
    assert_eq!(by_class, agg.hot_launches);
    // cpu + fault_in + gc_pause sums back to total (decompress nests
    // inside fault_in), so the share percentages are a true decomposition.
    assert_eq!(
        agg.launch.total_us.sum(),
        agg.launch.cpu_us.sum() + agg.launch.fault_in_us.sum() + agg.launch.gc_pause_us.sum()
    );
    assert!(agg.launch.decompress_us.sum() <= agg.launch.fault_in_us.sum());
}

/// Drill-down is itself deterministic: two replays of the same outlier
/// list into fresh directories produce byte-identical row artifacts.
#[test]
fn drilldown_artifacts_are_reproducible() {
    let spec = tiny_spec(0xD811, 4, 1.0);
    let run = run_population(&spec, 2).unwrap();
    let outliers = run.aggregate.rank_outliers(2);
    let dir_a = scratch("repro_a");
    let dir_b = scratch("repro_b");
    let rec_a = drill_down(&spec, &outliers, &dir_a).unwrap();
    let rec_b = drill_down(&spec, &outliers, &dir_b).unwrap();
    assert_eq!(json_of(&rec_a), json_of(&rec_b));
    for record in &rec_a {
        let name = format!("outlier_{}.row.json", record.index);
        let a = std::fs::read(dir_a.join(&name)).unwrap();
        let b = std::fs::read(dir_b.join(&name)).unwrap();
        assert_eq!(a, b, "{name} differs between replays");
    }
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// Enforced SLO specs surface through `enforce_failures` (the repro exit
/// path) while non-enforcing breaches stay report-only.
#[test]
fn enforcement_splits_breaches_from_failures() {
    let mut spec = tiny_spec(0xEF0, 3, 0.0);
    spec.slos = vec![
        SloSpec::hot_launch_ms("report-only-0ms", 5000, 0, 2),
        SloSpec::hot_launch_ms("enforced-0ms", 5000, 0, 2).enforced(),
        SloSpec::hot_launch_ms("enforced-passing", 9900, 1 << 30, 2).enforced(),
    ];
    let run = run_population(&spec, 1).unwrap();
    let report = run.aggregate.slo_report();
    assert!(report.breaches() >= 2);
    assert_eq!(report.enforce_failures(), vec!["enforced-0ms"]);
}

/// A degenerate single-scheme cohort still attributes every launch to
/// exactly that scheme's row.
#[test]
fn single_scheme_cohort_attributes_to_one_row() {
    let mut spec = tiny_spec(0x51, 3, 0.0);
    spec.schemes = vec![SchemeKind::Fleet];
    let run = run_population(&spec, 1).unwrap();
    let fleet_idx =
        SchemeKind::ALL.iter().position(|&s| s == SchemeKind::Fleet).expect("Fleet in ALL");
    for (i, row) in run.aggregate.schemes.iter().enumerate() {
        if i == fleet_idx {
            assert_eq!(row.launch.launches(), run.aggregate.hot_launches);
        } else {
            assert_eq!(row.launch.launches(), 0);
        }
    }
}
