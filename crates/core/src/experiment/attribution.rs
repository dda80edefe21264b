//! Launch attribution: where hot-launch time-to-first-frame goes.
//!
//! Not a paper figure — an observability study built on the same launch
//! accounting the tracing spans expose (DESIGN.md §10). Each hot launch
//! under the §7.2 pressure protocol is decomposed into the three spans of
//! [`crate::process::LaunchReport::spans`]: fault-in stalls (demand faults
//! on the launch working set, the launch GC's faults, and the unoverlapped
//! prefetch excess), GC pauses (launch-GC stop-the-world and Marvin's stub
//! reconciliation), and pure CPU render time. The three components sum to
//! the end-to-end latency *exactly* — the experiment asserts the
//! reconciliation rather than trusting it.

use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::experiment::scenario::{fig13_apps, AppPool};
use crate::params::SchemeKind;
use fleet_metrics::Table;
use serde::Serialize;

/// Mean per-launch latency decomposition for one scheme × app cell.
#[derive(Debug, Clone, Serialize)]
pub struct AttributionRow {
    /// Scheme the pool ran.
    pub scheme: String,
    /// The launched app.
    pub app: String,
    /// Hot launches measured.
    pub launches: usize,
    /// Mean end-to-end time-to-first-frame, ms.
    pub total_ms: f64,
    /// Mean page-fault stall share, ms (launch faults + launch-GC faults +
    /// prefetch excess).
    pub fault_in_ms: f64,
    /// Mean zram decompression share, ms — a *subset* of `fault_in_ms`,
    /// nonzero only on hybrid swap stacks.
    pub decompress_ms: f64,
    /// Mean GC share, ms (launch-GC pause + stub reconciliation).
    pub gc_ms: f64,
    /// Mean CPU render share, ms: the mean of the launches' `cpu` spans, so
    /// `total - fault_in - gc` up to float rounding.
    pub cpu_ms: f64,
}

/// Decomposes `launches` hot launches of each app in `apps` under the
/// §7.2 pressure protocol, per scheme.
///
/// # Errors
///
/// Propagates pool construction and launch failures ([`FleetError`]).
pub fn attribute_launches(
    seed: u64,
    schemes: &[SchemeKind],
    apps: &[String],
    launches: usize,
) -> Result<Vec<AttributionRow>, FleetError> {
    let mut rows = Vec::new();
    for &scheme in schemes {
        let mut pool = AppPool::under_pressure(scheme, &fig13_apps(), seed)?;
        for app in apps {
            let reports = pool.measure_hot_launches(app, launches)?;
            let n = reports.len().max(1) as f64;
            let mut total = 0.0;
            let mut cpu = 0.0;
            let mut fault_in = 0.0;
            let mut gc = 0.0;
            let mut decompress = 0.0;
            for r in &reports {
                let (c, f, g) = r.spans();
                // The reconciliation the trace spans rely on: the launch
                // children must tile the root span exactly, and the
                // decompress sub-span must nest inside fault-in.
                debug_assert_eq!(c + f + g, r.total, "launch components exceed the total");
                debug_assert!(r.decompress <= f, "decompression exceeds the fault stall");
                total += r.total.as_millis_f64();
                cpu += c.as_millis_f64();
                fault_in += f.as_millis_f64();
                gc += g.as_millis_f64();
                decompress += r.decompress.as_millis_f64();
            }
            rows.push(AttributionRow {
                scheme: scheme.to_string(),
                app: app.clone(),
                launches: reports.len(),
                total_ms: total / n,
                fault_in_ms: fault_in / n,
                decompress_ms: decompress / n,
                gc_ms: gc / n,
                cpu_ms: cpu / n,
            });
        }
    }
    Ok(rows)
}

/// The apps whose launches the experiment decomposes: a heavy social app,
/// a media app, and a browser — the three launch-profile shapes.
pub fn attribution_apps() -> Vec<String> {
    ["Twitter", "Youtube", "Chrome"].iter().map(|s| s.to_string()).collect()
}

/// Experiment `launch_attribution`.
pub struct LaunchAttribution;

impl Experiment for LaunchAttribution {
    fn id(&self) -> &'static str {
        "launch_attribution"
    }
    fn title(&self) -> &'static str {
        "DESIGN.md §10 — hot-launch latency attribution (fault-in / GC / CPU)"
    }
    fn description(&self) -> &'static str {
        "Decomposes hot-launch latency into fault-in, GC, and CPU render time"
    }
    fn module(&self) -> &'static str {
        "attribution"
    }
    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
        let launches = if ctx.quick { 3 } else { 8 };
        let schemes = [SchemeKind::Android, SchemeKind::Fleet];
        let rows = attribute_launches(ctx.seed, &schemes, &attribution_apps(), launches)?;
        let mut out = ExperimentOutput::new();
        out.section(self.title());
        let mut t = Table::new([
            "Scheme",
            "App",
            "Launches",
            "Total (ms)",
            "Fault-in (ms)",
            "GC (ms)",
            "CPU (ms)",
            "Fault-in %",
        ]);
        for r in &rows {
            let share = if r.total_ms > 0.0 { 100.0 * r.fault_in_ms / r.total_ms } else { 0.0 };
            t.row([
                r.scheme.clone(),
                r.app.clone(),
                r.launches.to_string(),
                format!("{:.0}", r.total_ms),
                format!("{:.0}", r.fault_in_ms),
                format!("{:.1}", r.gc_ms),
                format!("{:.0}", r.cpu_ms),
                format!("{share:.0}"),
            ]);
        }
        out.table(t);
        out.text(
            "components tile the end-to-end latency exactly; under `repro --trace` \
             the same decomposition appears as launch_hot -> cpu / fault_in / \
             gc_pause spans in the Perfetto trace",
        );
        out.export(
            "launch_attribution",
            "n/a (observability study; §7.2 attributes the gap to fault-in)",
            &rows,
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_reconcile_with_total() {
        let rows =
            attribute_launches(9, &[SchemeKind::Fleet], &["Twitter".to_string()], 2).unwrap();
        for r in &rows {
            assert!(r.launches > 0, "protocol produced no hot launches");
            let sum = r.fault_in_ms + r.gc_ms + r.cpu_ms;
            let err = (sum - r.total_ms).abs() / r.total_ms.max(1e-9);
            assert!(err < 0.01, "attribution off by {:.3}% for {}", err * 100.0, r.app);
            assert!(r.cpu_ms > 0.0, "render share cannot be zero");
        }
    }

    #[test]
    fn attribution_is_deterministic() {
        let a = attribute_launches(5, &[SchemeKind::Android], &["Chrome".to_string()], 2).unwrap();
        let b = attribute_launches(5, &[SchemeKind::Android], &["Chrome".to_string()], 2).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
