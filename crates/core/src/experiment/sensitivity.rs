//! §7.4: sensitivity to the background heap-size scheme.
//!
//! ART grows the heap limit to `allocated × factor` after each GC. The
//! paper sweeps the background factor between 1.1× and 2×: Fleet's caching
//! gain needs the tight 1.1× (a loose limit lets background garbage pile up
//! and blunts BGC), while Fleet's *hot-launch* time is robust across both —
//! unlike Android, which is ≈31% faster at 1.1× than at 2×.

use crate::config::DeviceConfig;
use crate::error::FleetError;
use crate::experiment::caching::synthetic_capacity;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::experiment::scenario::AppPool;
use crate::params::SchemeKind;
use fleet_metrics::{Summary, Table};
use serde::Serialize;

/// One scheme × heap-factor cell.
#[derive(Debug, Clone, Serialize)]
pub struct SensitivityRow {
    /// Scheme name.
    pub scheme: String,
    /// Background heap-growth factor.
    pub factor: f64,
    /// Maximum cached synthetic apps.
    pub max_cached: usize,
    /// Median hot-launch time of the probe app, ms.
    pub median_hot_ms: f64,
}

/// Runs the sensitivity sweep: `{Android, Fleet} × {1.1, 2.0}`.
pub fn sensitivity(
    seed: u64,
    max_apps: usize,
    launches: usize,
) -> Result<Vec<SensitivityRow>, FleetError> {
    let mut rows = Vec::new();
    for scheme in [SchemeKind::Android, SchemeKind::Fleet] {
        for factor in [1.1, 2.0] {
            let config = DeviceConfig {
                heap_growth_background: factor,
                seed,
                ..DeviceConfig::pixel3(scheme)
            };
            // Caching capacity with synthetic apps.
            let max_cached = synthetic_capacity(config, 2048, max_apps, 10)?.max_cached;

            // Hot-launch medians with commercial apps.
            let config = DeviceConfig { seed: seed ^ 0x74, ..config };
            let apps: Vec<String> = ["Twitter", "Facebook", "Youtube", "Chrome", "Spotify"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let mut pool = AppPool::with_config(config, &apps)?;
            let reports = pool.measure_hot_launches("Twitter", launches)?;
            let median =
                Summary::from_values(reports.iter().map(|r| r.total.as_millis_f64())).median();

            rows.push(SensitivityRow {
                scheme: scheme.to_string(),
                factor,
                max_cached,
                median_hot_ms: median,
            });
        }
    }
    Ok(rows)
}

/// Experiment `sensitivity`.
pub struct Sensitivity;

impl Experiment for Sensitivity {
    fn id(&self) -> &'static str {
        "sensitivity"
    }
    fn title(&self) -> &'static str {
        "§7.4 — sensitivity to the background heap-size factor"
    }
    fn description(&self) -> &'static str {
        "Hot-launch sensitivity to the background heap-growth factor"
    }
    fn module(&self) -> &'static str {
        "sensitivity"
    }
    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
        let rows =
            sensitivity(ctx.seed, if ctx.quick { 14 } else { 24 }, if ctx.quick { 4 } else { 8 })?;
        let mut out = ExperimentOutput::new();
        out.section(self.title());
        let mut t = Table::new(["Scheme", "Factor", "Max cached", "Median hot (ms)"]);
        for r in &rows {
            t.row([
                r.scheme.clone(),
                format!("{:.1}", r.factor),
                r.max_cached.to_string(),
                format!("{:.0}", r.median_hot_ms),
            ]);
        }
        out.table(t);
        out.text(
            "paper: Fleet's caching gain needs 1.1x; Fleet's launch time is robust across factors, Android's varies ≈31%",
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_needs_tight_background_heaps_for_capacity() {
        let rows = sensitivity(23, 20, 4).unwrap();
        let get = |scheme: &str, factor: f64| {
            rows.iter().find(|r| r.scheme == scheme && r.factor == factor).unwrap()
        };
        let fleet_tight = get("Fleet", 1.1);
        let fleet_loose = get("Fleet", 2.0);
        let android_tight = get("Android", 1.1);
        // §7.4: at 1.1× Fleet caches ≈20% more than Android; at 2× the gap
        // shrinks toward parity.
        assert!(
            fleet_tight.max_cached > android_tight.max_cached,
            "fleet {} vs android {}",
            fleet_tight.max_cached,
            android_tight.max_cached
        );
        assert!(
            fleet_tight.max_cached >= fleet_loose.max_cached,
            "tight {} vs loose {}",
            fleet_tight.max_cached,
            fleet_loose.max_cached
        );
    }

    #[test]
    fn fleet_hot_launch_is_robust_across_factors() {
        let rows = sensitivity(29, 12, 5).unwrap();
        let get = |scheme: &str, factor: f64| {
            rows.iter().find(|r| r.scheme == scheme && r.factor == factor).unwrap().median_hot_ms
        };
        let fleet_var = (get("Fleet", 1.1) - get("Fleet", 2.0)).abs() / get("Fleet", 1.1);
        assert!(fleet_var < 0.35, "Fleet variation across factors {fleet_var}");
        // All medians are plausible launch times.
        for row in &rows {
            assert!(row.median_hot_ms > 100.0, "{:?}", row);
        }
    }
}
