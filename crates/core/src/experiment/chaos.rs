//! Chaos: the swap data-integrity ladder under injected silent corruption.
//!
//! Not a figure from the paper — a robustness study of the repro itself
//! (DESIGN.md §14). Flash cells lie quietly: a store succeeds, the read
//! back returns garbage. The integrity layer's answer is a detection and
//! recovery ladder — checksummed slots, discard-and-refault for file
//! pages, SIGBUS for anon pages, slot quarantine for repeat offenders,
//! and runtime tier retirement when a tier's quarantine count saturates.
//! This sweep injects `silent_corruption` at increasing intensity over a
//! hybrid (zram + flash) stack and reports what each rung did, first on
//! single devices across schemes, then on a population cohort.
//!
//! Intensity 0 with the layer armed is the control: checksums compute and
//! verify on every store and fault, yet zero detections fire — the
//! zero-false-positive property the audit stream also proves.

use crate::config::{DeviceConfig, ZramFront};
use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::experiment::scenario::AppPool;
use crate::params::SchemeKind;
use crate::population::{run_population, PopulationSpec, RangeU32};
use fleet_kernel::{FaultConfig, IntegrityConfig};
use fleet_metrics::{Summary, Table};
use serde::Serialize;

/// The sweep's integrity policy: checksums on, an aggressive quarantine
/// threshold so saturation (and thus tier retirement) is reachable within
/// one experiment run, and a fast scrubber.
pub fn chaos_integrity() -> IntegrityConfig {
    IntegrityConfig {
        quarantine_threshold: 4,
        scrub_interval_ticks: 2,
        ..IntegrityConfig::checked()
    }
}

/// The sweep's standard corruption-intensity ladder.
pub fn standard_intensities() -> Vec<f64> {
    vec![0.0, 0.02, 0.10, 0.25]
}

/// One (scheme, intensity) cell of the single-device chaos sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosRow {
    /// Scheme under test.
    pub scheme: SchemeKind,
    /// `silent_corruption` intensity (per-store corruption probability;
    /// torn writebacks at half that).
    pub intensity: f64,
    /// Hot launches that completed.
    pub launches: usize,
    /// Launches lost to a SIGBUS kill mid-launch.
    pub failed_launches: u64,
    /// Median hot-launch time, ms.
    pub median_hot_ms: f64,
    /// 99th-percentile hot-launch time, ms.
    pub p99_hot_ms: f64,
    /// Corrupt copies the fault plan injected at store time.
    pub corruptions_injected: u64,
    /// Corruptions the checksum layer caught.
    pub corruptions_detected: u64,
    /// Anonymous pages lost to SIGBUS recovery.
    pub pages_lost: u64,
    /// Processes SIGBUS-killed over the run.
    pub sigbus_kills: u64,
    /// LMK kills over the run.
    pub lmk_kills: u64,
    /// Swap slots permanently quarantined.
    pub slots_quarantined: u64,
    /// Tiers retired at runtime (zram front and/or flash back).
    pub tiers_retired: u64,
    /// Background scrubber passes completed.
    pub scrub_passes: u64,
    /// Slots the scrubber verified.
    pub scrub_pages_scanned: u64,
    /// True when quarantine saturation put the device in degraded mode
    /// (flash back tier retired — no further swap stores at all).
    pub degraded: bool,
}

/// One intensity cell of the population-cohort chaos arm.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosCohortRow {
    /// `silent_corruption` intensity applied cohort-wide.
    pub intensity: f64,
    /// Device-days simulated.
    pub devices: u64,
    /// Scripted launches across the cohort.
    pub launches: u64,
    /// Cohort hot-launch p50, ms.
    pub hot_p50_ms: f64,
    /// Cohort hot-launch p99, ms.
    pub hot_p99_ms: f64,
    /// LMK kills across the cohort.
    pub lmk_kills: u64,
    /// SIGBUS kills across the cohort.
    pub sigbus_kills: u64,
    /// All kill records across the cohort.
    pub kills: u64,
    /// Corruptions injected cohort-wide.
    pub corruptions_injected: u64,
    /// Corruptions detected cohort-wide.
    pub corruptions_detected: u64,
    /// Slots quarantined cohort-wide.
    pub slots_quarantined: u64,
    /// Tier retirements across the cohort.
    pub tiers_retired: u64,
    /// Order-free cohort hash (XOR of device-day fingerprints).
    pub cohort_hash: u64,
}

/// Everything the chaos experiment exports: both arms of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosExport {
    /// Single-device scheme × intensity sweep.
    pub device: Vec<ChaosRow>,
    /// Population-cohort intensity sweep.
    pub cohort: Vec<ChaosCohortRow>,
}

/// Runs the single-device arm: the §7.2 pressure protocol on a hybrid
/// stack with `silent_corruption(intensity)` armed, for each scheme with
/// swap enabled.
pub fn chaos_devices(
    seed: u64,
    intensities: &[f64],
    launches: usize,
) -> Result<Vec<ChaosRow>, FleetError> {
    let apps: Vec<String> = ["Twitter", "Facebook", "Youtube", "Chrome", "Spotify"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let schemes = [SchemeKind::Android, SchemeKind::Marvin, SchemeKind::Fleet];
    let mut rows = Vec::new();
    for &scheme in &schemes {
        for &intensity in intensities {
            let config = DeviceConfig {
                zram_front: Some(ZramFront { mib: 512, compression_ratio: 2.5 }),
                fault: FaultConfig::silent_corruption(intensity),
                integrity: chaos_integrity(),
                seed,
                ..DeviceConfig::pixel3(scheme)
            };
            let mut pool = AppPool::with_config(config, &apps)?;
            let (reports, failed_launches) =
                pool.measure_hot_launches_under_faults("Twitter", launches)?;
            let device = pool.device();
            let stats = device.mm().stats();
            let summary = Summary::from_values(reports.iter().map(|r| r.total.as_millis_f64()));
            rows.push(ChaosRow {
                scheme,
                intensity,
                launches: reports.len(),
                failed_launches,
                median_hot_ms: summary.median(),
                p99_hot_ms: summary.percentile(99.0),
                corruptions_injected: stats.corruptions_injected,
                corruptions_detected: stats.corruptions_detected,
                pages_lost: stats.pages_lost,
                sigbus_kills: device.sigbus_kills(),
                lmk_kills: device.reclaim().total_kills(),
                slots_quarantined: stats.slots_quarantined,
                tiers_retired: stats.tiers_retired,
                scrub_passes: stats.scrub_passes,
                scrub_pages_scanned: stats.scrub_pages_scanned,
                degraded: device.mm().degraded(),
            });
        }
    }
    Ok(rows)
}

/// Runs the population arm: the default heterogeneous cohort (day script
/// shortened to keep the sweep tractable) with the chaos knobs applied
/// cohort-wide at each intensity.
pub fn chaos_cohorts(
    seed: u64,
    intensities: &[f64],
    devices: u32,
) -> Result<Vec<ChaosCohortRow>, FleetError> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows = Vec::new();
    for &intensity in intensities {
        let mut spec = PopulationSpec::default_mix(seed, devices);
        for p in &mut spec.personas {
            p.cycles = RangeU32 { lo: 2, hi: 4 };
            p.usage_gap_secs = RangeU32 { lo: 10, hi: 20 };
        }
        spec.fault = FaultConfig::silent_corruption(intensity);
        spec.integrity = chaos_integrity();
        let run = run_population(&spec, threads)?;
        let agg = run.aggregate;
        rows.push(ChaosCohortRow {
            intensity,
            devices: agg.devices,
            launches: agg.launches,
            hot_p50_ms: agg.hot_launch_quantile_ms(0.50),
            hot_p99_ms: agg.hot_launch_quantile_ms(0.99),
            lmk_kills: agg.lmk_kills,
            sigbus_kills: agg.sigbus_kills,
            kills: agg.kills,
            corruptions_injected: agg.corruptions_injected,
            corruptions_detected: agg.corruptions_detected,
            slots_quarantined: agg.slots_quarantined,
            tiers_retired: agg.tiers_retired,
            cohort_hash: agg.cohort_hash,
        });
    }
    Ok(rows)
}

/// Experiment `chaos`.
pub struct Chaos;

impl Experiment for Chaos {
    fn id(&self) -> &'static str {
        "chaos"
    }
    fn title(&self) -> &'static str {
        "DESIGN.md §14 — data-integrity ladder under injected silent corruption"
    }
    fn description(&self) -> &'static str {
        "Detection, quarantine and tier retirement under silent corruption, device and cohort"
    }
    fn module(&self) -> &'static str {
        "chaos"
    }
    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
        let launches = if ctx.quick { 4 } else { 10 };
        let cohort_devices = if ctx.quick { 6 } else { 16 };
        let intensities = standard_intensities();
        let device = chaos_devices(ctx.seed, &intensities, launches)?;
        let cohort = chaos_cohorts(ctx.seed, &intensities, cohort_devices)?;

        let mut out = ExperimentOutput::new();
        out.section(self.title());
        let mut t = Table::new([
            "Scheme",
            "Intensity",
            "Hot launches",
            "Failed",
            "Median (ms)",
            "p99 (ms)",
            "Injected",
            "Detected",
            "Lost pages",
            "SIGBUS",
            "Quarantined",
            "Retired",
            "Degraded",
        ]);
        for r in &device {
            t.row([
                format!("{:?}", r.scheme),
                format!("{:.2}", r.intensity),
                r.launches.to_string(),
                r.failed_launches.to_string(),
                format!("{:.0}", r.median_hot_ms),
                format!("{:.0}", r.p99_hot_ms),
                r.corruptions_injected.to_string(),
                r.corruptions_detected.to_string(),
                r.pages_lost.to_string(),
                r.sigbus_kills.to_string(),
                r.slots_quarantined.to_string(),
                r.tiers_retired.to_string(),
                if r.degraded { "yes" } else { "no" }.to_string(),
            ]);
        }
        out.table(t);
        out.text(
            "intensity 0 with checksums armed detects nothing (zero false \
             positives); rising intensity climbs the ladder: SIGBUS recovery, \
             slot quarantine, then runtime tier retirement into degraded mode",
        );

        out.section("Population cohort under cohort-wide silent corruption");
        let mut t = Table::new([
            "Intensity",
            "Devices",
            "Launches",
            "Hot p50 (ms)",
            "Hot p99 (ms)",
            "LMK kills",
            "SIGBUS",
            "Detected",
            "Quarantined",
            "Retired",
        ]);
        for r in &cohort {
            t.row([
                format!("{:.2}", r.intensity),
                r.devices.to_string(),
                r.launches.to_string(),
                format!("{:.0}", r.hot_p50_ms),
                format!("{:.0}", r.hot_p99_ms),
                r.lmk_kills.to_string(),
                r.sigbus_kills.to_string(),
                r.corruptions_detected.to_string(),
                r.slots_quarantined.to_string(),
                r.tiers_retired.to_string(),
            ]);
        }
        out.table(t);
        out.export(
            "chaos",
            "n/a (robustness study, not a paper figure)",
            &ChaosExport { device, cohort },
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_intensity_detects_nothing() {
        let rows = chaos_devices(19, &[0.0], 3).unwrap();
        for r in &rows {
            assert_eq!(r.corruptions_injected, 0);
            assert_eq!(r.corruptions_detected, 0);
            assert_eq!(r.slots_quarantined, 0);
            assert_eq!(r.tiers_retired, 0);
            assert_eq!(r.sigbus_kills, 0);
            assert!(!r.degraded);
            assert!(r.scrub_passes > 0, "the scrubber runs even on a clean device");
        }
    }

    #[test]
    fn out_of_range_intensity_is_a_config_error() {
        let err = chaos_devices(1, &[2.0], 1).unwrap_err();
        assert!(matches!(err, FleetError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn high_intensity_climbs_the_ladder() {
        let rows = chaos_devices(23, &[0.25], 4).unwrap();
        let detected: u64 = rows.iter().map(|r| r.corruptions_detected).sum();
        let quarantined: u64 = rows.iter().map(|r| r.slots_quarantined).sum();
        let retired: u64 = rows.iter().map(|r| r.tiers_retired).sum();
        assert!(detected > 0, "quarter-rate corruption must be caught");
        assert!(quarantined > 0, "detections at unmap must quarantine slots");
        assert!(retired > 0, "threshold 4 must retire at least one tier");
        for r in &rows {
            assert!(
                r.corruptions_detected <= r.corruptions_injected,
                "every detection maps to an injection"
            );
        }
    }

    #[test]
    fn cohort_arm_is_deterministic_and_detects_under_load() {
        let a = chaos_cohorts(29, &[0.0, 0.25], 3).unwrap();
        let b = chaos_cohorts(29, &[0.0, 0.25], 3).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a[0].corruptions_detected, 0, "quiet cohort stays clean");
        assert!(
            a[1].corruptions_detected <= a[1].corruptions_injected,
            "zero false positives cohort-wide"
        );
    }
}
