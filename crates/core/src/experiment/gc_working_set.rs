//! Figure 12a: the background GC working set (§7.1 "GC working set").
//!
//! "We measure the number of objects accessed by the GC thread during a
//! single GC execution" for a backgrounded app: Android's full GC touches
//! the whole live heap (~7×10⁵ objects on the Pixel 3), while Fleet's BGC
//! touches only the background objects (~10⁵), a ≈7× reduction.

use crate::config::DeviceConfig;
use crate::device::Device;
use crate::error::FleetError;
use crate::experiment::access_trace;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::params::SchemeKind;
use fleet_apps::profile_by_name;
use fleet_metrics::Table;
use serde::Serialize;

/// One app's working-set comparison.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12aRow {
    /// App name.
    pub app: String,
    /// Objects traced by Android's background full GC (real-scale estimate).
    pub android: u64,
    /// Objects traced by Fleet with BGC disabled (full GC after grouping).
    pub fleet_without_bgc: u64,
    /// Objects traced by Fleet's BGC.
    pub fleet_with_bgc: u64,
}

fn background_gc_working_set(
    scheme: SchemeKind,
    disable_bgc: bool,
    app: &str,
    seed: u64,
) -> Result<u64, FleetError> {
    let mut config = DeviceConfig::pixel3(scheme);
    config.seed = seed;
    config.fleet_disable_bgc = disable_bgc;
    // Only the explicit measurement GC should run in the background.
    config.bg_gc_interval = fleet_sim::SimDuration::from_secs(100_000);
    let mut device = Device::try_new(config)?;
    let profile = profile_by_name(app).unwrap_or_else(|| panic!("unknown app {app}"));
    let (pid, _) = device.launch_cold(&profile);
    device.run(10);
    device.launch_cold(&profile_by_name("Telegram").expect("catalog app"));
    device.run(20); // Fleet groups at +10 s; the app settles into background
    let stats = device.try_run_gc(pid)?;
    Ok(stats.objects_traced * device.config().scale as u64)
}

/// Runs Figure 12a over the plotted apps.
pub fn fig12a(seed: u64) -> Result<Vec<Fig12aRow>, FleetError> {
    ["Twitter", "Youtube", "Twitch", "AmazonShop", "Chrome", "AngryBirds"]
        .iter()
        .map(|app| {
            Ok(Fig12aRow {
                app: app.to_string(),
                android: background_gc_working_set(SchemeKind::Android, false, app, seed)?,
                fleet_without_bgc: background_gc_working_set(SchemeKind::Fleet, true, app, seed)?,
                fleet_with_bgc: background_gc_working_set(SchemeKind::Fleet, false, app, seed)?,
            })
        })
        .collect()
}

/// Average reduction factor (Android / Fleet-with-BGC) across the rows.
pub fn average_reduction(rows: &[Fig12aRow]) -> f64 {
    let ratios: Vec<f64> =
        rows.iter().map(|r| r.android as f64 / r.fleet_with_bgc.max(1) as f64).collect();
    ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
}

/// Experiment `fig12`: 12a working-set table plus the 12b traces (the
/// latter measured by [`access_trace::fig12b`]).
pub const FIG12: Experiment = Experiment {
    id: "fig12",
    title: "Figure 12 — background GC working set",
    description: "Objects traced by background collections — the GC working set",
    module: "gc_working_set",
    aliases: &[],
    run,
};

fn run(ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let mut out = ExperimentOutput::new();
    out.section("Figure 12a — background GC working set (objects, real-scale)");
    let rows = fig12a(ctx.seed)?;
    out.export("fig12a", "≈7x working-set reduction", &rows);
    let mut t = Table::new(["App", "Android", "Fleet w/o BGC", "Fleet w/ BGC", "Reduction"]);
    for r in &rows {
        t.row([
            r.app.clone(),
            r.android.to_string(),
            r.fleet_without_bgc.to_string(),
            r.fleet_with_bgc.to_string(),
            format!("{:.1}x", r.android as f64 / r.fleet_with_bgc.max(1) as f64),
        ]);
    }
    out.table(t);
    out.text(format!(
        "average reduction {:.1}x   (paper: ≈7x, from ~7e5 to ~1e5 objects)",
        average_reduction(&rows)
    ));
    out.section("Figure 12b — accessed objects over 600 s (Twitch), Android vs Fleet");
    for result in access_trace::fig12b(ctx.seed)? {
        let bg_gc = access_trace::gc_samples_in_window(&result, 190.0, 480.0);
        out.text(format!(
            "{:>8}: GC-touched samples in the background window = {bg_gc}",
            result.scheme
        ));
    }
    out.text("paper shape: Fleet's background GC activity is an order of magnitude lower");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bgc_shrinks_the_background_working_set() {
        let rows: Vec<Fig12aRow> = ["Twitter", "Twitch"]
            .iter()
            .map(|app| Fig12aRow {
                app: app.to_string(),
                android: background_gc_working_set(SchemeKind::Android, false, app, 5).unwrap(),
                fleet_without_bgc: background_gc_working_set(SchemeKind::Fleet, true, app, 5)
                    .unwrap(),
                fleet_with_bgc: background_gc_working_set(SchemeKind::Fleet, false, app, 5)
                    .unwrap(),
            })
            .collect();
        for row in &rows {
            assert!(
                row.android as f64 >= 3.0 * row.fleet_with_bgc as f64,
                "{}: android {} vs bgc {}",
                row.app,
                row.android,
                row.fleet_with_bgc
            );
            // Without BGC, Fleet's background GC is a full GC again.
            assert!(
                row.fleet_without_bgc as f64 > 0.5 * row.android as f64,
                "{}: w/o bgc {} vs android {}",
                row.app,
                row.fleet_without_bgc,
                row.android
            );
        }
        let reduction = average_reduction(&rows);
        assert!(reduction >= 3.0, "average reduction {reduction} (paper: ≈7×)");
    }
}
