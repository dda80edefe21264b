//! Audited population smoke: a small flash-only cohort under the flight
//! recorder, with its event-stream hash pinned in
//! `tests/golden/population.txt` (alongside, not inside,
//! `tests/golden/traces.txt` — the existing golden traces are untouched).
//!
//! The cohort runs sequentially (`threads = 1`): installed audit pipelines
//! are thread-local, so the inline path is the one that lets the auditor
//! observe every device of the cohort. All six invariant families are
//! enforced online per device; the recorder's `(event count, hash)` pins
//! the whole cohort's behaviour.
//!
//! Intentional changes are re-blessed with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --features audit --test population_audit
//! ```
#![cfg(feature = "audit")]

use fleet::population::{run_population, PopulationSpec, RangeU32};
use fleet::probe::{install, shared, AuditPipeline};
use fleet_kernel::{FaultConfig, IntegrityConfig};
use std::fs;
use std::path::PathBuf;

/// Cohort seed; device seeds split from it.
const COHORT_SEED: u64 = 0xF1EE7;

/// Small enough to finish in seconds, big enough to cross a class, a
/// persona and a scheme boundary.
const COHORT_DEVICES: u32 = 6;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/population.txt")
}

/// The audited cohort: flash-only (zram adoption zeroed — hybrid stacks
/// emit extra tier events; the pinned stream stays on the paper's default
/// swap path), short days.
fn audited_spec() -> PopulationSpec {
    let mut spec = PopulationSpec::default_mix(COHORT_SEED, COHORT_DEVICES);
    for class in &mut spec.classes {
        class.zram_chance = 0.0;
    }
    for persona in &mut spec.personas {
        persona.working_set = RangeU32 { lo: 2, hi: 3 };
        persona.cycles = RangeU32 { lo: 1, hi: 2 };
        persona.usage_gap_secs = RangeU32 { lo: 5, hi: 10 };
    }
    spec
}

/// Runs the cohort inline under a fresh audit pipeline; returns the
/// recorder fingerprint after asserting the auditor stayed clean.
fn record_cohort() -> (u64, u64) {
    let spec = audited_spec();
    let pipeline = shared::<AuditPipeline>();
    let _guard = install(pipeline.clone());
    let run = run_population(&spec, 1).expect("audited cohort runs");
    assert_eq!(run.aggregate.devices, COHORT_DEVICES as u64);
    assert_eq!(run.aggregate.zram_devices, 0, "flash-only cohort sampled a zram device");
    let pipe = pipeline.lock().unwrap();
    assert_eq!(
        pipe.auditor().violations(),
        0,
        "auditor must stay clean across every device of the cohort"
    );
    let rec = pipe.recorder();
    assert!(rec.event_count() > 0, "cohort devices must stream events into the recorder");
    (rec.event_count(), rec.hash())
}

fn render(events: u64, hash: u64) -> String {
    format!(
        "# Golden audited population cohort (flash-only, sequential). Drift means\n\
         # observable cohort behaviour changed; re-bless intentional changes with:\n\
         # GOLDEN_BLESS=1 cargo test --features audit --test population_audit\n\
         cohort seed={COHORT_SEED:#x} devices={COHORT_DEVICES} events={events} hash={hash:016x}\n"
    )
}

#[test]
fn audited_cohort_matches_golden_hash() {
    let (events, hash) = record_cohort();
    let rendered = render(events, hash);
    let path = golden_path();

    if std::env::var_os("GOLDEN_BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        fs::write(&path, &rendered).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }

    let golden = fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "missing golden file {} ({err}); generate it with \
             GOLDEN_BLESS=1 cargo test --features audit --test population_audit",
            path.display()
        )
    });
    assert_eq!(
        golden, rendered,
        "audited population cohort drifted; if intentional, re-bless with GOLDEN_BLESS=1"
    );
}

/// The pinned fingerprint is bit-stable across in-process repeats — the
/// property the golden file relies on.
#[test]
fn audited_cohort_recording_is_deterministic() {
    let a = record_cohort();
    let b = record_cohort();
    assert_eq!(a, b);
}

/// Armed fault plans at population scale: the same cohort with silent
/// corruption + torn writeback injected and the integrity layer armed must
/// keep every auditor family clean (including the eighth, data integrity)
/// on every device, and two runs must land on the same recorder hash —
/// chaos is seeded, not random.
#[test]
fn armed_fault_plans_stay_clean_and_deterministic_at_cohort_scale() {
    let mut spec = audited_spec();
    // Hybrid stacks everywhere so both the zram and flash corruption paths
    // (store corruption, torn writeback) are exercised.
    for class in &mut spec.classes {
        class.zram_chance = 1.0;
    }
    spec.fault = FaultConfig::silent_corruption(0.2);
    spec.integrity = IntegrityConfig {
        quarantine_threshold: 2,
        scrub_interval_ticks: 1,
        ..IntegrityConfig::checked()
    };

    let mut fingerprints = Vec::new();
    let mut detected = 0;
    for _ in 0..2 {
        let pipeline = shared::<AuditPipeline>();
        let _guard = install(pipeline.clone());
        let run = run_population(&spec, 1).expect("armed cohort runs");
        assert_eq!(run.aggregate.devices, COHORT_DEVICES as u64);
        let pipe = pipeline.lock().unwrap();
        assert_eq!(
            pipe.auditor().violations(),
            0,
            "auditor must stay clean under armed corruption plans"
        );
        let rec = pipe.recorder();
        fingerprints.push((rec.event_count(), rec.hash()));
        detected = run.aggregate.corruptions_detected;
        assert!(
            run.aggregate.corruptions_detected <= run.aggregate.corruptions_injected,
            "detection can never outrun injection"
        );
    }
    assert_eq!(fingerprints[0], fingerprints[1], "armed cohort not deterministic across runs");
    assert!(detected > 0, "an intensity-0.2 cohort must actually inject corruption");
}

/// The audited inline run aggregates to the same bytes as an unaudited
/// parallel run: recording must not perturb the simulation.
#[test]
fn audit_does_not_perturb_the_cohort() {
    let spec = audited_spec();
    let audited = {
        let pipeline = shared::<AuditPipeline>();
        let _guard = install(pipeline);
        run_population(&spec, 1).expect("audited cohort runs")
    };
    let plain = run_population(&spec, 2).expect("plain cohort runs");
    assert_eq!(audited.aggregate, plain.aggregate);
    // The invariants must have run against heterogeneous stacks, not six
    // copies of one scheme.
    let covered = audited.aggregate.schemes.iter().filter(|row| row.devices > 0).count();
    assert!(covered >= 2, "cohort of {COHORT_DEVICES} covered only {covered} scheme(s)");
}
