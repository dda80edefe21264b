//! Determinism: identical seeds must produce bit-identical runs.
//!
//! Every stochastic decision flows through seeded RNG streams and every
//! container iterates in a deterministic order; these tests pin that down,
//! because the reproduction harness depends on it.

use fleet::{Device, DeviceConfig, FleetError, SchemeKind};
use fleet_apps::{profile_by_name, synthetic_app};
use fleet_kernel::FaultConfig;

/// A condensed fingerprint of a device run.
fn fingerprint(scheme: SchemeKind, seed: u64) -> Result<String, FleetError> {
    let mut config = DeviceConfig::pixel3(scheme);
    config.seed = seed;
    let mut dev = Device::try_new(config)?;
    let (a, cold_a) = dev.launch_cold(&profile_by_name("Twitter").unwrap());
    dev.run(8);
    let (b, _) = dev.launch_cold(&profile_by_name("Youtube").unwrap());
    dev.run(20);
    let hot_a = dev.try_switch_to(a)?;
    dev.run(8);
    let hot_b = dev.try_switch_to(b)?;
    dev.run(4);
    let mm = dev.mm();
    Ok(format!(
        "{:?}|{:?}|{:?}|faults={} swapped_out={} frames={} kills={} t={}",
        cold_a,
        hot_a,
        hot_b,
        mm.stats().faults,
        mm.stats().pages_swapped_out,
        mm.used_frames(),
        dev.kills().len(),
        dev.now(),
    ))
}

#[test]
fn same_seed_is_bit_identical_for_every_scheme() -> Result<(), FleetError> {
    for scheme in SchemeKind::ALL {
        let a = fingerprint(scheme, 42)?;
        let b = fingerprint(scheme, 42)?;
        assert_eq!(a, b, "{scheme} must be deterministic");
    }
    Ok(())
}

#[test]
fn different_seeds_diverge() -> Result<(), FleetError> {
    let a = fingerprint(SchemeKind::Fleet, 1)?;
    let b = fingerprint(SchemeKind::Fleet, 2)?;
    assert_ne!(a, b, "seeds must matter (launch jitter, graph shapes)");
    Ok(())
}

/// Like [`fingerprint`], but under an armed fault plan: launches may fail
/// (SIGBUS mid-launch) and the fingerprint additionally pins the
/// degradation counters.
fn faulty_fingerprint(scheme: SchemeKind, seed: u64, intensity: f64) -> String {
    let config = DeviceConfig {
        fault: FaultConfig::flaky_flash(intensity),
        seed,
        ..DeviceConfig::pixel3(scheme)
    };
    let mut dev = Device::try_new(config).unwrap();
    let (a, _) = dev.launch_cold(&profile_by_name("Twitter").unwrap());
    dev.run(8);
    let (b, _) = dev.launch_cold(&profile_by_name("Youtube").unwrap());
    dev.run(20);
    let hot_a = dev.try_switch_to(a);
    dev.run(8);
    let hot_b = dev.try_switch_to(b);
    dev.run(4);
    let mm = dev.mm();
    format!(
        "{:?}|{:?}|faults={} retries={} read_errs={} write_errs={} lost={} \
         sigbus={} lmk={} esc={} map_fail={} frames={} kills={} t={}",
        hot_a,
        hot_b,
        mm.stats().faults,
        mm.stats().fault_retries,
        mm.stats().swap_read_errors,
        mm.stats().swap_write_errors,
        mm.stats().pages_lost,
        dev.sigbus_kills(),
        dev.reclaim().total_kills(),
        dev.reclaim().escalations(),
        dev.map_failures(),
        mm.used_frames(),
        dev.kills().len(),
        dev.now(),
    )
}

#[test]
fn armed_fault_plans_are_deterministic_and_never_panic() {
    for scheme in SchemeKind::ALL {
        let a = faulty_fingerprint(scheme, 42, 0.05);
        let b = faulty_fingerprint(scheme, 42, 0.05);
        assert_eq!(a, b, "{scheme} under faults must be deterministic");
    }
    // A harsher plan still completes without panicking.
    let _ = faulty_fingerprint(SchemeKind::Fleet, 7, 0.5);
}

#[test]
fn quiet_fault_plan_is_bit_identical_to_no_plan() -> Result<(), FleetError> {
    // FaultConfig::default() must not change a single observable byte —
    // the property the golden-trace gate rests on.
    let quiet = DeviceConfig {
        fault: FaultConfig::default(),
        seed: 42,
        ..DeviceConfig::pixel3(SchemeKind::Fleet)
    };
    assert!(quiet.fault.is_quiet());
    let mut dev = Device::try_new(quiet)?;
    let (a, _) = dev.launch_cold(&profile_by_name("Twitter").unwrap());
    dev.run(10);
    let hot = dev.try_switch_to(a)?;
    let with_plan = format!("{:?}|{}|{}", hot, dev.mm().stats().faults, dev.mm().used_frames());
    assert_eq!(dev.sigbus_kills(), 0);
    assert_eq!(dev.mm().stats().fault_retries, 0);

    let mut dev2 = Device::try_new({
        let mut c = DeviceConfig::pixel3(SchemeKind::Fleet);
        c.seed = 42;
        c
    })?;
    let (a2, _) = dev2.launch_cold(&profile_by_name("Twitter").unwrap());
    dev2.run(10);
    let hot2 = dev2.try_switch_to(a2)?;
    let without_plan =
        format!("{:?}|{}|{}", hot2, dev2.mm().stats().faults, dev2.mm().used_frames());
    assert_eq!(with_plan, without_plan, "quiet plan diverged from plan-free device");
    Ok(())
}

#[test]
fn capacity_run_is_deterministic() -> Result<(), FleetError> {
    let run = || -> Result<_, FleetError> {
        let mut dev = Device::try_new(DeviceConfig::pixel3(SchemeKind::Android))?;
        let app = synthetic_app(2048, 180);
        let mut curve = Vec::new();
        for _ in 0..14 {
            dev.launch_cold(&app);
            dev.run(6);
            curve.push(dev.cached_apps());
        }
        Ok((curve, dev.kills().len(), dev.mm().swap().used_pages()))
    };
    assert_eq!(run()?, run()?);
    Ok(())
}

/// Runs a cheap slice of the registry and fingerprints everything a user
/// can observe: the rendered text and the export JSON.
fn harness_fingerprint(threads: usize) -> String {
    use fleet::experiment::harness::{run_experiments, select};

    let selected = select(&[
        "table1".into(),
        "table2".into(),
        "table3".into(),
        "fig4".into(),
        "proactive_reclaim".into(),
    ])
    .unwrap();
    let reports = run_experiments(&selected, 0xF1EE7, true, threads, false, None);
    let mut fp = String::new();
    for report in reports {
        let output = report.result.expect("experiment runs");
        fp.push_str(report.experiment.id);
        fp.push_str(&output.render());
        for artifact in &output.exports {
            fp.push_str(&serde_json::to_string_pretty(artifact).expect("export serialises"));
        }
    }
    fp
}

#[test]
fn parallel_and_sequential_harness_runs_are_bit_identical() {
    // The harness derives every experiment's seed from (master seed, id),
    // so rendered output and export JSON cannot depend on scheduling.
    let sequential = harness_fingerprint(1);
    let parallel = harness_fingerprint(4);
    assert_eq!(sequential, parallel);
}

#[test]
fn experiment_drivers_are_deterministic() {
    use fleet::experiment::{object_sizes, reaccess};
    let a = reaccess::fig6b(7, 6);
    let b = reaccess::fig6b(7, 6);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.depth, y.depth);
        assert_eq!(x.reaccess_coverage_pct, y.reaccess_coverage_pct);
        assert_eq!(x.mem_footprint_pct, y.mem_footprint_pct);
    }
    let a = object_sizes::fig7(3, 5_000);
    let b = object_sizes::fig7(3, 5_000);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cdf, y.cdf);
    }
}
