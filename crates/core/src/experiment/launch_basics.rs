//! Figure 2: hot-launch vs cold-launch times on an unloaded device.
//!
//! "We repeat the launch 20 times for each test case and calculate the
//! average and standard deviation" (§2.1). The headline: hot-launch is
//! drastically faster (Twitter: 273 ms hot vs 2390 ms cold, 8.75×).

use crate::config::DeviceConfig;
use crate::device::Device;
use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::params::SchemeKind;
use crate::ReclaimPolicy;
use fleet_apps::catalog;
use fleet_kernel::IntegrityConfig;
use fleet_metrics::{Summary, Table};
use serde::Serialize;

/// One app's row of Figure 2.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Row {
    /// App name.
    pub app: String,
    /// Hot-launch sample summary (ms).
    pub hot_mean_ms: f64,
    /// Hot-launch standard deviation (ms).
    pub hot_std_ms: f64,
    /// Cold-launch sample summary (ms).
    pub cold_mean_ms: f64,
    /// Cold-launch standard deviation (ms).
    pub cold_std_ms: f64,
}

/// Runs Figure 2: `launches` hot and cold launches per app on an idle
/// device (default Android, no memory pressure).
pub fn fig2(seed: u64, launches: usize) -> Result<Vec<Fig2Row>, FleetError> {
    fig2_configured(seed, launches, ReclaimPolicy::Reactive, IntegrityConfig::default())
}

/// [`fig2`] on devices with an explicit [`ReclaimPolicy`] and swap
/// [`IntegrityConfig`]. `fleet-bench` times it under a `Swam` policy whose
/// daemon never fires and with `IntegrityConfig::checked()` over a quiet
/// fault plan, isolating the cost of working-set tracking and of per-slot
/// checksums on the hot-launch path.
pub fn fig2_configured(
    seed: u64,
    launches: usize,
    policy: ReclaimPolicy,
    integrity: IntegrityConfig,
) -> Result<Vec<Fig2Row>, FleetError> {
    let mut rows = Vec::new();
    for profile in catalog() {
        let mut config = DeviceConfig::pixel3(SchemeKind::Android);
        config.seed = seed ^ profile.name.len() as u64;
        config.reclaim_policy = policy;
        config.integrity = integrity;
        let mut device = Device::try_new(config)?;

        // Cold samples: terminate and recreate each time (§2.1: "obtained
        // by explicitly terminating apps before the launch").
        let mut cold = Vec::new();
        let mut pid = None;
        for _ in 0..launches {
            if let Some(p) = pid.take() {
                device.kill(p);
            }
            let (p, report) = device.launch_cold(&profile);
            pid = Some(p);
            cold.push(report.total.as_millis_f64());
        }
        let target = pid.expect("at least one launch");

        // Hot samples: bounce against a small helper app; no pressure, so
        // nothing gets swapped and the launch sits near the render floor.
        let helper =
            catalog().into_iter().find(|a| a.name != profile.name).expect("catalog has ≥ 2 apps");
        device.launch_cold(&helper);
        device.run(2);
        let mut hot = Vec::new();
        for _ in 0..launches {
            let report = device.try_switch_to(target)?;
            hot.push(report.total.as_millis_f64());
            device.run(2);
            let (helper_pid, _) = {
                // Helper may have been killed under no-pressure? It cannot
                // be; just bring it back to the foreground.
                let helper_pid = device
                    .processes()
                    .find(|p| p.name == helper.name)
                    .map(|p| p.pid)
                    .expect("helper stays alive on an idle device");
                (helper_pid, ())
            };
            device.try_switch_to(helper_pid)?;
            device.run(2);
        }

        let hot = Summary::from_values(hot);
        let cold = Summary::from_values(cold);
        rows.push(Fig2Row {
            app: profile.name,
            hot_mean_ms: hot.mean(),
            hot_std_ms: hot.std_dev(),
            cold_mean_ms: cold.mean(),
            cold_std_ms: cold.std_dev(),
        });
    }
    Ok(rows)
}

/// Experiment `fig2`.
pub const FIG2: Experiment = Experiment {
    id: "fig2",
    title: "Figure 2 — hot vs cold launch times (idle device)",
    description: "Per-app hot and cold launch latency on an otherwise idle device",
    module: "launch_basics",
    aliases: &[],
    run,
};

fn run(ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let rows = fig2(ctx.seed, ctx.launches().min(10))?;
    let mut out = ExperimentOutput::new();
    out.section(FIG2.title);
    out.export("fig2", "hot ≪ cold; Twitter 273 vs 2390 ms", &rows);
    let mut t = Table::new([
        "App",
        "Hot (ms)",
        "Cold (ms)",
        "Cold/Hot",
        "Paper (hot/cold, Twitter: 273/2390)",
    ]);
    for r in &rows {
        t.row([
            r.app.clone(),
            format!("{:.0} ± {:.0}", r.hot_mean_ms, r.hot_std_ms),
            format!("{:.0} ± {:.0}", r.cold_mean_ms, r.cold_std_ms),
            format!("{:.1}x", r.cold_mean_ms / r.hot_mean_ms),
            "hot ≪ cold for every app".to_string(),
        ]);
    }
    out.table(t);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_is_several_times_faster_than_cold() {
        let rows = fig2(1, 4).unwrap();
        assert_eq!(rows.len(), 18);
        for row in &rows {
            assert!(
                row.cold_mean_ms > 3.0 * row.hot_mean_ms,
                "{}: cold {} vs hot {}",
                row.app,
                row.cold_mean_ms,
                row.hot_mean_ms
            );
        }
        // Twitter's ratio is the paper's headline: ≈ 8.75×.
        let twitter = rows.iter().find(|r| r.app == "Twitter").unwrap();
        let ratio = twitter.cold_mean_ms / twitter.hot_mean_ms;
        assert!((4.0..14.0).contains(&ratio), "Twitter cold/hot ratio {ratio}");
    }
}
