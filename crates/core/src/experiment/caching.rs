//! Figure 11: app-caching capacity (§7.1).
//!
//! 11a/11b: "continuously launch one additional app and count the number of
//! remaining active apps after each launch" with the Marvin-artifact
//! synthetic apps (2048 B and 512 B objects, 180 MB footprint). The paper
//! finds Fleet ≈ Marvin ≈ 1.3× Android for large objects, but Fleet ≈ 2×
//! Marvin for small objects (Marvin cannot swap sub-threshold objects).
//!
//! 11c: the same protocol with the 18 commercial apps in round-robin, two
//! cycles, comparing Android without swap, Android with swap, and Fleet.

use crate::config::DeviceConfig;
use crate::device::Device;
use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::params::SchemeKind;
use fleet_apps::{catalog, synthetic_app};
use fleet_metrics::Table;
use serde::Serialize;

/// One scheme's capacity curve: cached apps after each launch.
#[derive(Debug, Clone, Serialize)]
pub struct CapacityCurve {
    /// Scheme name.
    pub scheme: String,
    /// Number of live apps after the i-th launch.
    pub cached_after_launch: Vec<usize>,
    /// Maximum simultaneously cached apps.
    pub max_cached: usize,
    /// Launch index (1-based) at which the first LMK kill happened, if any.
    pub first_kill_at: Option<usize>,
}

/// The §7.1 capacity protocol on one device: cold-launch another
/// `object_size`-byte synthetic app, use it for `use_secs`, and count the
/// cached apps, `max_apps` times.
pub(crate) fn synthetic_capacity(
    config: DeviceConfig,
    object_size: u32,
    max_apps: usize,
    use_secs: u64,
) -> Result<CapacityCurve, FleetError> {
    let mut device = Device::try_new(config)?;
    let app = synthetic_app(object_size, 180);
    let mut cached = Vec::new();
    let mut first_kill_at = None;
    for i in 0..max_apps {
        device.launch_cold(&app);
        device.run(use_secs);
        cached.push(device.cached_apps());
        if first_kill_at.is_none() && !device.kills().is_empty() {
            first_kill_at = Some(i + 1);
        }
    }
    Ok(CapacityCurve {
        scheme: config.scheme.to_string(),
        max_cached: cached.iter().copied().max().unwrap_or(0),
        cached_after_launch: cached,
        first_kill_at,
    })
}

fn pixel3(scheme: SchemeKind, seed: u64) -> DeviceConfig {
    DeviceConfig { seed, ..DeviceConfig::pixel3(scheme) }
}

/// Figure 11a: large-object (2048 B) synthetic apps.
pub fn fig11a(seed: u64, max_apps: usize, use_secs: u64) -> Result<Vec<CapacityCurve>, FleetError> {
    [SchemeKind::Android, SchemeKind::Marvin, SchemeKind::Fleet]
        .into_iter()
        .map(|scheme| synthetic_capacity(pixel3(scheme, seed), 2048, max_apps, use_secs))
        .collect()
}

/// Figure 11b: small-object (512 B) synthetic apps.
pub fn fig11b(seed: u64, max_apps: usize, use_secs: u64) -> Result<Vec<CapacityCurve>, FleetError> {
    [SchemeKind::Android, SchemeKind::Marvin, SchemeKind::Fleet]
        .into_iter()
        .map(|scheme| synthetic_capacity(pixel3(scheme, seed), 512, max_apps, use_secs))
        .collect()
}

/// One scheme's commercial-app capacity series (Figure 11c).
#[derive(Debug, Clone, Serialize)]
pub struct CommercialCapacity {
    /// Scheme name ("Android w/o swap" / "Android" / "Fleet").
    pub scheme: String,
    /// `(app_name, live_apps_after_using_it)` over the round-robin.
    pub series: Vec<(String, usize)>,
    /// Maximum simultaneously cached apps.
    pub max_cached: usize,
}

/// Figure 11c: two round-robin cycles over the commercial catalog,
/// 30 seconds of use per app.
pub fn fig11c(
    seed: u64,
    cycles: usize,
    use_secs: u64,
) -> Result<Vec<CommercialCapacity>, FleetError> {
    [SchemeKind::AndroidNoSwap, SchemeKind::Android, SchemeKind::Fleet]
        .into_iter()
        .map(|scheme| {
            let mut device = Device::try_new(pixel3(scheme, seed))?;
            let apps = catalog();
            let mut pids = std::collections::BTreeMap::new();
            let mut series = Vec::new();
            for _ in 0..cycles {
                for app in &apps {
                    let alive =
                        pids.get(&app.name).copied().filter(|p| device.try_process(*p).is_ok());
                    match alive {
                        Some(pid) => {
                            device.try_switch_to(pid)?;
                        }
                        None => {
                            let (pid, _) = device.launch_cold(app);
                            pids.insert(app.name.clone(), pid);
                        }
                    }
                    device.run(use_secs);
                    series.push((app.name.clone(), device.cached_apps()));
                }
            }
            Ok(CommercialCapacity {
                scheme: scheme.to_string(),
                max_cached: series.iter().map(|&(_, n)| n).max().unwrap_or(0),
                series,
            })
        })
        .collect()
}

/// Renders capacity curves as the text table Figure 11 prints.
pub fn capacity_table(curves: &[CapacityCurve]) -> Table {
    let mut t = Table::new([
        "Scheme",
        "Max cached",
        "First kill at launch #",
        "Curve (cached after each launch)",
    ]);
    for c in curves {
        let curve: Vec<String> = c.cached_after_launch.iter().map(|n| n.to_string()).collect();
        t.row([
            c.scheme.clone(),
            c.max_cached.to_string(),
            c.first_kill_at.map(|n| n.to_string()).unwrap_or_else(|| "-".to_string()),
            curve.join(","),
        ]);
    }
    t
}

/// Experiment `fig11`: the three capacity protocols (11a/11b/11c).
pub struct Fig11;

impl Experiment for Fig11 {
    fn id(&self) -> &'static str {
        "fig11"
    }
    fn title(&self) -> &'static str {
        "Figure 11 — app-caching capacity"
    }
    fn description(&self) -> &'static str {
        "How many apps each scheme keeps cached before the LMK steps in"
    }
    fn module(&self) -> &'static str {
        "caching"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig11a", "fig11b", "fig11c"]
    }
    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
        let (max_apps, use_secs) = if ctx.quick { (20, 6) } else { (28, 30) };
        let mut out = ExperimentOutput::new();

        out.section("Figure 11a — caching capacity, large-object (2048 B) synthetic apps");
        let curves = fig11a(ctx.seed, max_apps, use_secs)?;
        out.export("fig11a", "Android ≈14, Marvin ≈18, Fleet ≈18", &curves);
        out.table(capacity_table(&curves));
        out.text("paper: Android max ≈14 (kills from 11), Marvin ≈18, Fleet ≈18");

        out.section("Figure 11b — caching capacity, small-object (512 B) synthetic apps");
        let curves = fig11b(ctx.seed, max_apps, use_secs)?;
        out.export("fig11b", "Marvin ≈9, Fleet ≈18 (2x)", &curves);
        out.table(capacity_table(&curves));
        out.text("paper: Marvin collapses to ≈9; Fleet stays ≈18 (2x)");

        out.section("Figure 11c — caching capacity, commercial apps (round-robin)");
        let results =
            fig11c(ctx.seed, if ctx.quick { 1 } else { 2 }, if ctx.quick { 8 } else { 30 })?;
        let mut t = Table::new(["Scheme", "Max cached", "Paper"]);
        for r in &results {
            t.row([
                r.scheme.clone(),
                r.max_cached.to_string(),
                "Fleet 17 ≈ 1.21x Android-with-swap".to_string(),
            ]);
        }
        out.table(t);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_and_marvin_beat_android_on_large_objects() {
        let curves = fig11a(3, 24, 8).unwrap();
        let max = |name: &str| curves.iter().find(|c| c.scheme == name).unwrap().max_cached;
        let android = max("Android");
        let marvin = max("Marvin");
        let fleet = max("Fleet");
        assert!(fleet > android, "Fleet {fleet} vs Android {android}");
        assert!(marvin > android, "Marvin {marvin} vs Android {android}");
        // Fleet ≈ Marvin for large objects (both ~1.3× Android in the paper).
        let ratio = fleet as f64 / marvin as f64;
        assert!((0.75..=1.4).contains(&ratio), "Fleet/Marvin ratio {ratio}");
    }

    #[test]
    fn marvin_collapses_on_small_objects() {
        let curves = fig11b(3, 24, 8).unwrap();
        let max = |name: &str| curves.iter().find(|c| c.scheme == name).unwrap().max_cached;
        let marvin = max("Marvin");
        let fleet = max("Fleet");
        assert!(
            fleet as f64 >= 1.5 * marvin as f64,
            "Fleet {fleet} should cache ≈2× Marvin {marvin} for small objects"
        );
    }

    #[test]
    fn fleet_object_size_insensitive() {
        let large = fig11a(3, 24, 8).unwrap();
        let small = fig11b(3, 24, 8).unwrap();
        let fleet_large = large.iter().find(|c| c.scheme == "Fleet").unwrap().max_cached;
        let fleet_small = small.iter().find(|c| c.scheme == "Fleet").unwrap().max_cached;
        let diff = (fleet_large as i64 - fleet_small as i64).abs();
        assert!(diff <= 3, "Fleet large {fleet_large} vs small {fleet_small}");
    }

    #[test]
    fn commercial_capacity_ordering() {
        let results = fig11c(9, 1, 6).unwrap();
        let max = |name: &str| results.iter().find(|c| c.scheme == name).unwrap().max_cached;
        let no_swap = max("Android w/o swap");
        let android = max("Android");
        let fleet = max("Fleet");
        assert!(fleet >= android, "Fleet {fleet} vs Android {android}");
        assert!(android >= no_swap, "swap should help: {android} vs {no_swap}");
        assert!(fleet > no_swap, "Fleet {fleet} vs no-swap {no_swap}");
    }
}
