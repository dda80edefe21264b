//! Population-scale cohort simulation (extension; DESIGN.md §12).
//!
//! Not a paper figure — the ROADMAP's cohort-level extension. The paper
//! validates the co-design on one Pixel 3; this experiment samples a
//! heterogeneous cohort from [`PopulationSpec::default_mix`] (DRAM 3–12 GB
//! classes, vendor-style zram adoption, per-persona app mixes and usage
//! scripts), streams the device-days through the parallel cohort runner
//! and renders the population dashboard: p50/p99/p999 hot-launch, LMK kill
//! rate and zram writeback volume, overall and per scheme.
//!
//! Everything rendered and exported derives from the merged
//! [`PopulationAggregate`] alone, which is byte-identical whatever the
//! worker-thread count — `repro population --threads N` exports the same
//! JSON as a sequential run. Wall-clock throughput (simulated device-hours
//! per wall-second) is deliberately *not* here: it is the `fleet-bench`
//! headline row, where non-determinism belongs.

use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::params::SchemeKind;
use crate::population::{run_population, PopulationAggregate, PopulationSpec};
use fleet_kernel::{KillPolicy, ReclaimPolicy};
use fleet_metrics::Table;
use serde::Serialize;

/// Cohort size: quick keeps CI fast, full clears the 10k device-day bar.
pub fn cohort_devices(quick: bool) -> u32 {
    if quick {
        96
    } else {
        10_000
    }
}

/// The export payload: the spec identity plus the merged aggregate and the
/// headline percentiles derived from it. Pure function of the aggregate —
/// no wall-clock, no thread count.
#[derive(Debug, Clone, Serialize)]
pub struct PopulationExport {
    /// The population master seed the cohort was sampled from.
    pub seed: u64,
    /// Cohort size in device-days.
    pub devices: u32,
    /// Population hot-launch p50, ms.
    pub hot_p50_ms: f64,
    /// Population hot-launch p99, ms.
    pub hot_p99_ms: f64,
    /// Population hot-launch p999, ms.
    pub hot_p999_ms: f64,
    /// LMK kills per device-day.
    pub lmk_kills_per_device_day: f64,
    /// Reclaim-policy A/B over the same sampled cohort: the default
    /// Reactive deployment versus the SWAM-style proactive co-design.
    pub policies: Vec<PolicyCohortSummary>,
    /// The full merged aggregate of the default (Reactive) cohort
    /// (counters, launch attribution, run-slices, cohort hash, outlier
    /// pools).
    pub aggregate: PopulationAggregate,
}

/// One reclaim-policy arm of the cohort A/B.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyCohortSummary {
    /// Policy label (`reactive` / `swam`).
    pub policy: String,
    /// Hot-launch p50, ms.
    pub hot_p50_ms: f64,
    /// Hot-launch p99, ms.
    pub hot_p99_ms: f64,
    /// LMK kills per device-day.
    pub lmk_kills_per_device_day: f64,
    /// Cold relaunches forced by kills.
    pub cold_relaunches: u64,
    /// Pages the proactive daemon swapped out ahead of pressure.
    pub proactive_swapout_pages: u64,
}

fn policy_summary(label: &str, agg: &PopulationAggregate) -> PolicyCohortSummary {
    PolicyCohortSummary {
        policy: label.to_string(),
        hot_p50_ms: agg.hot_launch_quantile_ms(0.5),
        hot_p99_ms: agg.hot_launch_quantile_ms(0.99),
        lmk_kills_per_device_day: agg.lmk_kills_per_device_day(),
        cold_relaunches: agg.cold_relaunches,
        proactive_swapout_pages: agg.proactive_swapout_pages,
    }
}

fn policy_table(arms: &[PolicyCohortSummary]) -> Table {
    let mut t = Table::new([
        "Reclaim policy",
        "p50 (ms)",
        "p99 (ms)",
        "LMK/day",
        "Cold relaunches",
        "Proactive pages",
    ]);
    for arm in arms {
        t.row([
            arm.policy.clone(),
            format!("{:.0}", arm.hot_p50_ms),
            format!("{:.0}", arm.hot_p99_ms),
            format!("{:.2}", arm.lmk_kills_per_device_day),
            arm.cold_relaunches.to_string(),
            arm.proactive_swapout_pages.to_string(),
        ]);
    }
    t
}

fn dashboard(agg: &PopulationAggregate) -> Table {
    let mut t = Table::new([
        "Cohort",
        "Devices",
        "Hot launches",
        "p50 (ms)",
        "p99 (ms)",
        "p999 (ms)",
        "LMK/day",
        "Writeback pages",
    ]);
    t.row([
        "all".to_string(),
        agg.devices.to_string(),
        agg.hot_launches.to_string(),
        format!("{:.0}", agg.hot_launch_quantile_ms(0.5)),
        format!("{:.0}", agg.hot_launch_quantile_ms(0.99)),
        format!("{:.0}", agg.hot_launch_quantile_ms(0.999)),
        format!("{:.2}", agg.lmk_kills_per_device_day()),
        agg.zram_writeback_pages.to_string(),
    ]);
    for (scheme, row) in SchemeKind::ALL.iter().zip(&agg.schemes) {
        if row.devices == 0 {
            continue;
        }
        let hist = &row.launch.total_us;
        t.row([
            scheme.to_string(),
            row.devices.to_string(),
            hist.count().to_string(),
            format!("{:.0}", hist.quantile(0.5) as f64 / 1e3),
            format!("{:.0}", hist.quantile(0.99) as f64 / 1e3),
            format!("{:.0}", hist.quantile(0.999) as f64 / 1e3),
            format!("{:.2}", row.lmk_kills as f64 / row.devices as f64),
            "-".to_string(),
        ]);
    }
    t
}

/// Publishes the cohort dashboard into an installed obs pipeline so
/// `repro population --trace DIR` lands it in `population.metrics.json`.
#[cfg(feature = "obs")]
fn publish_obs(agg: &PopulationAggregate) {
    let Some(pipeline) = crate::probe::current::<fleet_obs::ObsPipeline>() else { return };
    let mut p = pipeline.lock().expect("obs pipeline lock");
    p.counter_add("population.device_days", agg.devices);
    p.counter_add("population.launches", agg.launches);
    p.counter_add("population.hot_launches", agg.hot_launches);
    p.counter_add("population.lmk_kills", agg.lmk_kills);
    p.counter_add("population.zram_writeback_pages", agg.zram_writeback_pages);
    p.gauge_set("population.cohort_hash", agg.cohort_hash);
    // Bulk-absorb the cohort histogram: one record_n per log2 bucket at the
    // bucket's lower bound (the obs histogram re-buckets identically).
    for (b, &n) in agg.launch.total_us.buckets().iter().enumerate() {
        if n > 0 {
            let lo_us = if b == 0 { 0u64 } else { 1u64 << b };
            p.latency_n("population.hot_launch_ns", lo_us.saturating_mul(1_000), n);
        }
    }
}

/// Experiment `population`.
pub const POPULATION: Experiment = Experiment {
    id: "population",
    title: "Extension — population-scale cohort simulation",
    description:
        "Cohort dashboard: hot-launch p50/p99/p999, kill rate, writeback across sampled devices",
    module: "population",
    aliases: &["cohort"],
    run,
};

fn run(ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let devices = cohort_devices(ctx.quick);
    let spec = PopulationSpec::default_mix(ctx.seed, devices);
    // The A/B arm: same seed, same sampled hardware and day scripts
    // (the policy knobs are applied, never sampled), Swam co-design on.
    let mut swam_spec = spec.clone();
    swam_spec.reclaim_policy = ReclaimPolicy::swam();
    swam_spec.kill_policy = KillPolicy::WssWeighted;
    // run_population drops to one inline worker by itself when an
    // audit/obs pipeline is installed (repro --trace), so the trace is
    // never silently empty under parallelism.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = run_population(&spec, threads)?;
    let agg = &run.aggregate;
    let swam_run = run_population(&swam_spec, threads)?;
    let policies =
        vec![policy_summary("reactive", agg), policy_summary("swam", &swam_run.aggregate)];
    #[cfg(feature = "obs")]
    publish_obs(agg);

    let mut out = ExperimentOutput::new();
    out.section(POPULATION.title);
    out.table(dashboard(agg));
    out.text(
        "Reclaim-policy A/B over the same sampled cohort (Swam arm: proactive \
         reclaim + WSS-weighted oom scoring):"
            .to_string(),
    );
    out.table(policy_table(&policies));
    out.text(format!(
        "{} device-days sampled from {} classes x {} personas x {} schemes \
         (seed {:#x}); {} zram devices; cohort hash {:016x}",
        agg.devices,
        spec.classes.len(),
        spec.personas.len(),
        spec.schemes.len(),
        spec.seed,
        agg.zram_devices,
        agg.cohort_hash,
    ));
    out.text(format!(
        "{:.1} simulated device-hours in {} run-slices of {} devices; \
         throughput headline lives in fleet-bench (BENCH_kernel.json, population row)",
        agg.device_hours(),
        agg.slices.len(),
        agg.slice_len,
    ));
    out.export(
        "population",
        "n/a (extension; SWAM-style cohort dashboard, PAPERS.md)",
        &PopulationExport {
            seed: spec.seed,
            devices,
            hot_p50_ms: agg.hot_launch_quantile_ms(0.5),
            hot_p99_ms: agg.hot_launch_quantile_ms(0.99),
            hot_p999_ms: agg.hot_launch_quantile_ms(0.999),
            lmk_kills_per_device_day: agg.lmk_kills_per_device_day(),
            policies,
            aggregate: agg.clone(),
        },
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{run_device_day, sample_device, RangeU32, SLICE_LEN};

    /// A tiny cohort through the real experiment path (spec shrunk, not the
    /// driver): dashboard renders, export is aggregate-only.
    #[test]
    fn dashboard_renders_and_exports_deterministically() {
        let mut spec = PopulationSpec::default_mix(0xF1EE7, 4);
        for p in &mut spec.personas {
            p.working_set = RangeU32 { lo: 2, hi: 2 };
            p.cycles = RangeU32 { lo: 1, hi: 1 };
            p.usage_gap_secs = RangeU32 { lo: 5, hi: 5 };
        }
        let mut agg = PopulationAggregate::new(spec.devices, SLICE_LEN);
        for i in 0..spec.devices {
            agg.absorb(&run_device_day(&sample_device(&spec, i).unwrap()).unwrap());
        }
        let rendered = format!("{}", dashboard(&agg));
        assert!(rendered.contains("all"));
        assert!(rendered.contains("p999 (ms)"));
        let a = serde_json::to_string_pretty(&serde::Serialize::to_value(&agg));
        let b = serde_json::to_string_pretty(&serde::Serialize::to_value(&agg.clone()));
        assert_eq!(a, b);
    }

    #[test]
    fn cohort_sizes_meet_the_bar() {
        assert!(cohort_devices(false) >= 10_000, "full runs must clear 10k device-days");
        assert!(cohort_devices(true) <= 128, "quick runs must stay CI-sized");
    }
}
