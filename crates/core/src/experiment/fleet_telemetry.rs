//! Fleet-scale telemetry triage (extension; DESIGN.md §15).
//!
//! Not a paper figure — the observability counterpart of the `population`
//! dashboard. Where that experiment reports *how fast* the cohort hot-
//! launches, this one reports *where the time goes* and *which devices to
//! look at*:
//!
//! 1. **Cohort span attribution** — per-scheme and per-device-class
//!    launch-latency decomposition (cpu / fault_in / decompress /
//!    gc_pause) from the [`PopulationAggregate`] fold.
//! 2. **SLO monitors** — two demo objectives over burn-rate windows: a
//!    deliberately *breaching* `hot-p99 ≤ 250 ms` (the paper-grade
//!    target a real Swam-era fleet misses) and a *passing*
//!    `hot-p50 ≤ 1500 ms`, so a quick CI run always shows one red and
//!    one green verdict.
//! 3. **Outlier drill-down** — the top-K device-days by z-score are
//!    re-simulated standalone when `--drilldown DIR` is given, writing a
//!    validated Perfetto trace + metrics JSON per outlier, and the replay
//!    must reproduce the in-cohort fingerprint bit for bit (the
//!    splitmix-split seed contract).

use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::experiment::population::cohort_devices;
use crate::params::SchemeKind;
use crate::population::{run_population, PopulationAggregate, PopulationSpec};
use crate::telemetry::{
    drill_down, DrilldownRecord, LaunchAttribution, Outlier, SloMetric, SloSpec, SloVerdict,
};
use fleet_metrics::Table;
use serde::Serialize;

/// The demo SLO pair every `fleet_telemetry` run arms: one objective the
/// simulated fleet misses (p99 ≤ 250 ms — tail launches under memory
/// pressure run to seconds) and one it holds (p50 ≤ 1500 ms), so the
/// verdict table always shows a breach *and* a pass. Both non-enforcing:
/// the breach is reported, the run exits cleanly.
pub fn demo_slos() -> Vec<SloSpec> {
    vec![
        SloSpec::hot_launch_ms("hot-p99-under-250ms", 9900, 250, 4),
        SloSpec::hot_launch_ms("hot-p50-under-1500ms", 5000, 1500, 4),
    ]
}

/// How many outliers a drill-down re-simulates.
pub fn drilldown_k(quick: bool) -> usize {
    if quick {
        2
    } else {
        4
    }
}

/// One row of the attribution export: a label plus the decomposition of
/// its launches into component shares and headline percentiles.
#[derive(Debug, Clone, Serialize)]
pub struct AttributionSummary {
    /// Row label ("all", a scheme name, or a device class).
    pub label: String,
    /// Hot launches folded into the row.
    pub launches: u64,
    /// CPU share of total launch time, percent.
    pub cpu_pct: f64,
    /// Page-fault stall share, percent.
    pub fault_in_pct: f64,
    /// Zram decompression share (subset of fault_in), percent.
    pub decompress_pct: f64,
    /// Launch-time GC stop-the-world share, percent.
    pub gc_pause_pct: f64,
    /// Total-launch p50, ms.
    pub total_p50_ms: f64,
    /// Total-launch p99, ms.
    pub total_p99_ms: f64,
}

impl AttributionSummary {
    fn from(label: &str, a: &LaunchAttribution) -> Self {
        AttributionSummary {
            label: label.to_string(),
            launches: a.launches(),
            cpu_pct: a.share_pct(&a.cpu_us),
            fault_in_pct: a.share_pct(&a.fault_in_us),
            decompress_pct: a.share_pct(&a.decompress_us),
            gc_pause_pct: a.share_pct(&a.gc_pause_us),
            total_p50_ms: a.total_us.quantile(0.5) as f64 / 1e3,
            total_p99_ms: a.total_us.quantile(0.99) as f64 / 1e3,
        }
    }
}

/// The export payload (`fleet_telemetry.json`): attribution rows, SLO
/// verdicts with the exit-code-relevant `slo_pass`, ranked outliers, any
/// drill-down records, and the full cohort aggregate.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryExport {
    /// Population master seed.
    pub seed: u64,
    /// Cohort size in device-days.
    pub devices: u32,
    /// Cohort-wide attribution row.
    pub overall: AttributionSummary,
    /// Per-scheme attribution rows (schemes with devices only).
    pub schemes: Vec<AttributionSummary>,
    /// Per-device-class attribution rows, name-sorted.
    pub classes: Vec<AttributionSummary>,
    /// One verdict per armed SLO, in spec order.
    pub slo_verdicts: Vec<SloVerdict>,
    /// True iff every *enforcing* SLO held (the run's exit-code verdict;
    /// demo specs are non-enforcing, so breaches report without failing).
    pub slo_pass: bool,
    /// Top-K device-days by z-score.
    pub outliers: Vec<Outlier>,
    /// Replay records when `--drilldown` was given.
    pub drilldown: Vec<DrilldownRecord>,
    /// The full commutative cohort fold backing every row above.
    pub aggregate: PopulationAggregate,
}

fn attribution_table(rows: &[AttributionSummary]) -> Table {
    let mut t = Table::new([
        "Cohort",
        "Launches",
        "cpu %",
        "fault_in %",
        "decompress %",
        "gc_pause %",
        "p50 (ms)",
        "p99 (ms)",
    ]);
    for r in rows {
        t.row([
            r.label.clone(),
            r.launches.to_string(),
            format!("{:.1}", r.cpu_pct),
            format!("{:.1}", r.fault_in_pct),
            format!("{:.1}", r.decompress_pct),
            format!("{:.1}", r.gc_pause_pct),
            format!("{:.0}", r.total_p50_ms),
            format!("{:.0}", r.total_p99_ms),
        ]);
    }
    t
}

fn slo_table(verdicts: &[SloVerdict]) -> Table {
    let mut t = Table::new([
        "SLO",
        "Metric",
        "Threshold",
        "Windows",
        "Breaches",
        "Worst observed",
        "Verdict",
    ]);
    for v in verdicts {
        let worst = v.breaches.iter().map(|b| b.value_milli).max();
        let unit = match v.spec.metric {
            SloMetric::HotLaunch => "ms",
            SloMetric::LmkKills => "kills/day",
        };
        t.row([
            v.spec.name.clone(),
            match v.spec.metric {
                SloMetric::HotLaunch => {
                    format!("hot_launch p{:.2}", v.spec.percentile_bp as f64 / 100.0)
                }
                SloMetric::LmkKills => "lmk_kills".to_string(),
            },
            format!("{:.1} {unit}", v.spec.threshold_milli as f64 / 1e3),
            v.windows.to_string(),
            v.breaches.len().to_string(),
            worst.map_or("-".to_string(), |w| format!("{:.1} {unit}", w as f64 / 1e3)),
            if v.pass { "PASS".to_string() } else { "BREACH".to_string() },
        ]);
    }
    t
}

fn outlier_table(outliers: &[Outlier]) -> Table {
    let mut t = Table::new([
        "Device",
        "Score",
        "z(latency)",
        "z(kills)",
        "Peak hot (ms)",
        "Kills",
        "Fingerprint",
    ]);
    for o in outliers {
        t.row([
            o.index.to_string(),
            format!("{:.2}", o.score),
            format!("{:.2}", o.z_latency),
            format!("{:.2}", o.z_kills),
            format!("{:.0}", o.peak_hot_us as f64 / 1e3),
            o.kills.to_string(),
            format!("{:016x}", o.fingerprint),
        ]);
    }
    t
}

/// Experiment `fleet_telemetry`.
pub const FLEET_TELEMETRY: Experiment = Experiment {
    id: "fleet_telemetry",
    title: "Extension — fleet telemetry: attribution, SLO monitors, outlier drill-down",
    description:
        "Where hot-launch time goes per scheme/class, SLO burn-rate verdicts, top-K outliers",
    module: "fleet_telemetry",
    aliases: &["telemetry", "triage"],
    run,
};

fn run(ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let devices = cohort_devices(ctx.quick);
    let mut spec = PopulationSpec::default_mix(ctx.seed, devices);
    spec.slos = demo_slos();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = run_population(&spec, threads)?;
    let agg = &run.aggregate;

    let overall = AttributionSummary::from("all", &agg.launch);
    let schemes: Vec<AttributionSummary> = SchemeKind::ALL
        .iter()
        .zip(&agg.schemes)
        .filter(|(_, row)| row.launch.launches() > 0)
        .map(|(s, row)| AttributionSummary::from(&s.to_string(), &row.launch))
        .collect();
    let classes: Vec<AttributionSummary> =
        agg.classes.iter().map(|c| AttributionSummary::from(&c.class, &c.attribution)).collect();

    let outliers = agg.rank_outliers(drilldown_k(ctx.quick));
    let drilled = match &ctx.drilldown {
        Some(dir) => {
            let records = drill_down(&spec, &outliers, dir)?;
            if let Some(bad) = records.iter().find(|r| !r.matched) {
                return Err(FleetError::InvalidConfig(format!(
                    "outlier {} replay diverged: cohort fingerprint {:016x}, replay {:016x}",
                    bad.index, bad.cohort_fingerprint, bad.replayed_fingerprint
                )));
            }
            records
        }
        None => Vec::new(),
    };

    let report = agg.slo_report();
    let mut out = ExperimentOutput::new();
    out.section(FLEET_TELEMETRY.title);
    out.text("Hot-launch latency attribution (who owns the milliseconds):".to_string());
    let mut rows = vec![overall.clone()];
    rows.extend(schemes.iter().cloned());
    out.table(attribution_table(&rows));
    out.text("Per device class:".to_string());
    out.table(attribution_table(&classes));
    out.text(format!(
        "SLO monitors over burn-rate windows of {} run-slice(s) x {} devices:",
        spec.slos.first().map_or(1, |s| s.window_slices),
        agg.slice_len,
    ));
    out.table(slo_table(&agg.slo_verdicts));
    out.text(format!(
        "Top-{} outlier device-days by z-score (re-simulate any of them with \
         `repro fleet_telemetry --drilldown DIR`):",
        outliers.len()
    ));
    out.table(outlier_table(&outliers));
    if !drilled.is_empty() {
        out.text(format!(
            "Drill-down: {} outlier device-day(s) re-simulated standalone; every \
             replayed fingerprint matched its in-cohort row ({} artifact files).",
            drilled.len(),
            drilled.iter().map(|r| r.files.len()).sum::<usize>(),
        ));
    }
    out.text(format!(
        "{} device-days (seed {:#x}); {} of {} SLOs breached; cohort hash {:016x}",
        agg.devices,
        spec.seed,
        report.verdicts.iter().filter(|v| !v.pass).count(),
        report.verdicts.len(),
        agg.cohort_hash,
    ));

    out.export(
        "fleet_telemetry",
        "n/a (extension; fleet triage telemetry, DESIGN.md \u{a7}15)",
        &TelemetryExport {
            seed: spec.seed,
            devices,
            overall,
            schemes,
            classes,
            slo_verdicts: agg.slo_verdicts.clone(),
            slo_pass: report.enforce_failures().is_empty(),
            outliers,
            drilldown: drilled,
            aggregate: agg.clone(),
        },
    );
    let failures = report.enforce_failures();
    if !failures.is_empty() {
        return Err(FleetError::SloBreached(failures.join(", ")));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{run_device_day, sample_device, RangeU32};

    fn tiny_spec(seed: u64, devices: u32) -> PopulationSpec {
        let mut spec = PopulationSpec::default_mix(seed, devices);
        for p in &mut spec.personas {
            p.working_set = RangeU32 { lo: 2, hi: 2 };
            p.cycles = RangeU32 { lo: 2, hi: 2 };
            p.usage_gap_secs = RangeU32 { lo: 5, hi: 5 };
        }
        spec
    }

    #[test]
    fn demo_slos_validate_and_pair_breach_with_pass() {
        let slos = demo_slos();
        assert_eq!(slos.len(), 2);
        for s in &slos {
            assert!(s.validate().is_ok());
            assert!(!s.enforce, "demo monitors must report, not fail the run");
        }
        assert!(slos[0].threshold_milli < slos[1].threshold_milli);
    }

    #[test]
    fn tables_render_attribution_slos_and_outliers() {
        let spec = tiny_spec(0xF1EE7, 6);
        let mut agg = PopulationAggregate::new(spec.devices, 2);
        for i in 0..spec.devices {
            agg.absorb(&run_device_day(&sample_device(&spec, i).unwrap()).unwrap());
        }
        agg.evaluate_slos(&demo_slos());
        let rows = vec![AttributionSummary::from("all", &agg.launch)];
        let rendered = format!("{}", attribution_table(&rows));
        assert!(rendered.contains("fault_in %"));
        let slo_rendered = format!("{}", slo_table(&agg.slo_verdicts));
        assert!(slo_rendered.contains("hot-p99-under-250ms"));
        assert!(slo_rendered.contains("PASS") || slo_rendered.contains("BREACH"));
        let outliers = agg.rank_outliers(2);
        assert!(!outliers.is_empty());
        let o_rendered = format!("{}", outlier_table(&outliers));
        assert!(o_rendered.contains("z(latency)"));
    }

    #[test]
    fn attribution_rows_cover_every_hot_launch() {
        let spec = tiny_spec(0xBEEF, 5);
        let mut agg = PopulationAggregate::new(spec.devices, 2);
        for i in 0..spec.devices {
            agg.absorb(&run_device_day(&sample_device(&spec, i).unwrap()).unwrap());
        }
        assert_eq!(agg.launch.launches(), agg.hot_launches);
        let scheme_total: u64 = agg.schemes.iter().map(|row| row.launch.launches()).sum();
        let class_total: u64 = agg.classes.iter().map(|c| c.attribution.launches()).sum();
        assert_eq!(scheme_total, agg.hot_launches, "scheme rows partition the launches");
        assert_eq!(class_total, agg.hot_launches, "class rows partition the launches");
    }
}
