//! Proactive reclaim + OOMK co-design: responsiveness vs kill rate.
//!
//! Not a paper figure — the SWAM-style extension (PAPERS.md): per-process
//! working-set tracking, proactive swap-out of idle background apps ahead
//! of pressure, and WSS-weighted oom scoring, all behind the
//! [`ReclaimPolicy`] API. This sweep runs the §7.2 pressure protocol at
//! three memory-pressure levels (DRAM shrunk below the Pixel 3 baseline)
//! over the three runtimes, once under the legacy `Reactive` stack and
//! once under the `Swam` co-design, and reports the tradeoff curve the
//! co-design claims: fewer LMK kills per device-day at equal-or-better
//! hot-launch tails, because idle apps shrink to their warm core *before*
//! the watermark forces a kill.

use crate::config::DeviceConfig;
use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::experiment::scenario::{fig13_apps, AppPool};
use crate::params::SchemeKind;
use crate::process::LaunchKind;
use fleet_kernel::{KillPolicy, ReclaimPolicy};
use fleet_metrics::{Summary, Table};
use serde::Serialize;

/// Seconds in a simulated device-day (kill counts normalise to this).
const DAY_SECS: f64 = 86_400.0;

/// One memory-pressure level of the sweep: the Pixel 3 with its DRAM
/// shrunk, so the same §7.2 working set squeezes the page cache harder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PressureLevel {
    /// Stable label used in tables and exports.
    pub name: &'static str,
    /// Device DRAM in MiB (the §6 baseline is 4096).
    pub dram_mib: u32,
}

/// The sweep's pressure levels, mildest first.
pub fn pressure_levels() -> [PressureLevel; 3] {
    [
        PressureLevel { name: "baseline", dram_mib: 4096 },
        PressureLevel { name: "tight", dram_mib: 3840 },
        PressureLevel { name: "squeezed", dram_mib: 3584 },
    ]
}

/// One policy × scheme × pressure cell of the tradeoff sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ReclaimCell {
    /// Reclaim policy label (`reactive` / `swam`).
    pub policy: String,
    /// Runtime scheme.
    pub scheme: String,
    /// Pressure-level label.
    pub pressure: String,
    /// Hot launches measured.
    pub hot_launches: usize,
    /// Hot-launch p50, ms.
    pub hot_p50_ms: f64,
    /// Hot-launch p99, ms.
    pub hot_p99_ms: f64,
    /// Cold relaunches forced by kills during the script.
    pub cold_relaunches: u64,
    /// LMK kills over the scripted run.
    pub kills: u64,
    /// Kills normalised to one simulated device-day.
    pub kills_per_device_day: f64,
    /// Pages the proactive daemon swapped out ahead of pressure (zero
    /// under `reactive`).
    pub proactive_swapout_pages: u64,
    /// Simulated seconds the script covered.
    pub sim_secs: u64,
}

/// The two arms of the A/B: the legacy reactive stack and the Swam
/// co-design (proactive reclaim + WSS-weighted oom scoring).
pub fn policy_arms() -> [(&'static str, ReclaimPolicy, KillPolicy); 2] {
    [
        ("reactive", ReclaimPolicy::Reactive, KillPolicy::ColdestFirst),
        ("swam", ReclaimPolicy::swam(), KillPolicy::WssWeighted),
    ]
}

/// Runs one cell: the fig13 pool under the §7.2 rotation protocol,
/// `cycles` passes over three probe apps, under the given policy arm.
///
/// # Errors
///
/// Propagates pool construction and launch failures ([`FleetError`]).
fn run_cell(
    seed: u64,
    scheme: SchemeKind,
    level: PressureLevel,
    label: &str,
    reclaim: ReclaimPolicy,
    kill: KillPolicy,
    cycles: usize,
) -> Result<ReclaimCell, FleetError> {
    let config = DeviceConfig {
        dram_mib: level.dram_mib,
        reclaim_policy: reclaim,
        kill_policy: kill,
        seed,
        ..DeviceConfig::pixel3(scheme)
    };
    let mut pool = AppPool::with_config(config, &fig13_apps())?;
    let probes = ["Twitter", "Youtube", "Chrome"];
    let mut hot_ms = Vec::new();
    let mut cold = 0u64;
    for _ in 0..cycles {
        for probe in probes {
            let other = pool.next_other_app(probe);
            pool.launch(&other)?;
            pool.device_mut().run(30);
            let report = pool.launch(probe)?;
            match report.kind {
                LaunchKind::Hot => hot_ms.push(report.total.as_millis_f64()),
                LaunchKind::Cold => cold += 1,
            }
            pool.device_mut().run(30);
        }
    }
    let dev = pool.device();
    let kills = dev.reclaim().total_kills();
    let sim_secs = dev.now().as_nanos() / 1_000_000_000;
    let summary = Summary::from_values(hot_ms.iter().copied());
    Ok(ReclaimCell {
        policy: label.to_string(),
        scheme: scheme.to_string(),
        pressure: level.name.to_string(),
        hot_launches: hot_ms.len(),
        hot_p50_ms: summary.median(),
        hot_p99_ms: summary.p99(),
        cold_relaunches: cold,
        kills,
        kills_per_device_day: kills as f64 * DAY_SECS / (sim_secs.max(1) as f64),
        proactive_swapout_pages: dev.reclaim().proactive_pages(),
        sim_secs,
    })
}

/// Runs the full sweep: both policy arms × `schemes` × every pressure
/// level.
///
/// # Errors
///
/// Propagates pool construction and launch failures ([`FleetError`]).
pub fn measure_reclaim(
    seed: u64,
    schemes: &[SchemeKind],
    cycles: usize,
) -> Result<Vec<ReclaimCell>, FleetError> {
    let mut rows = Vec::new();
    for &scheme in schemes {
        for level in pressure_levels() {
            for (label, reclaim, kill) in policy_arms() {
                rows.push(run_cell(seed, scheme, level, label, reclaim, kill, cycles)?);
            }
        }
    }
    Ok(rows)
}

/// Experiment `proactive_reclaim`.
pub const PROACTIVE_RECLAIM: Experiment = Experiment {
    id: "proactive_reclaim",
    title: "Extension — proactive reclaim + OOMK co-design (Reactive vs Swam)",
    description:
        "Responsiveness-vs-kill-rate tradeoff curves per reclaim policy, scheme and pressure",
    module: "proactive_reclaim",
    aliases: &["swam", "reclaim"],
    run,
};

fn run(ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let cycles = if ctx.quick { 2 } else { 6 };
    let schemes = [SchemeKind::Android, SchemeKind::Marvin, SchemeKind::Fleet];
    let rows = measure_reclaim(ctx.seed, &schemes, cycles)?;
    let mut out = ExperimentOutput::new();
    out.section(PROACTIVE_RECLAIM.title);
    let mut t = Table::new([
        "Scheme",
        "Pressure",
        "Policy",
        "Hot p50 (ms)",
        "Hot p99 (ms)",
        "Kills/day",
        "Cold relaunches",
        "Proactive pages",
    ]);
    for r in &rows {
        t.row([
            r.scheme.clone(),
            r.pressure.clone(),
            r.policy.clone(),
            format!("{:.0}", r.hot_p50_ms),
            format!("{:.0}", r.hot_p99_ms),
            format!("{:.2}", r.kills_per_device_day),
            r.cold_relaunches.to_string(),
            r.proactive_swapout_pages.to_string(),
        ]);
    }
    out.table(t);
    out.text(
        "swam = working-set tracking + proactive swap-out of idle background apps \
         (dynamic swap target) + WSS-weighted oom scoring; reactive = the legacy \
         watermark-driven stack, bit-identical to the pre-ReclaimPolicy event streams",
    );
    out.text(
        "expectation: under pressure, swam drains idle apps' cold pages ahead of the \
         watermark, so fewer launches find the device below the kill threshold",
    );
    out.export(
        "proactive_reclaim",
        "n/a (extension; expectation: swam kills strictly fewer at equal-or-better p99 \
         on at least one pressure level)",
        &rows,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm_totals(rows: &[ReclaimCell], policy: &str) -> (u64, u64) {
        let kills = rows.iter().filter(|r| r.policy == policy).map(|r| r.kills).sum();
        let proactive =
            rows.iter().filter(|r| r.policy == policy).map(|r| r.proactive_swapout_pages).sum();
        (kills, proactive)
    }

    /// The acceptance criterion of the co-design, pinned as a test: on at
    /// least one pressure level the Swam arm strictly reduces kills at an
    /// equal-or-better hot-launch p99.
    #[test]
    fn swam_reduces_kills_at_equal_or_better_p99_somewhere() {
        let rows = measure_reclaim(11, &[SchemeKind::Android], 2).unwrap();
        let wins = pressure_levels().iter().any(|level| {
            let cell = |policy: &str| {
                rows.iter()
                    .find(|r| r.policy == policy && r.pressure == level.name)
                    .expect("cell present")
            };
            let (reactive, swam) = (cell("reactive"), cell("swam"));
            swam.kills < reactive.kills && swam.hot_p99_ms <= reactive.hot_p99_ms
        });
        assert!(
            wins,
            "swam must strictly reduce kills at equal-or-better p99 on >= 1 pressure level: \
             {rows:#?}"
        );
    }

    #[test]
    fn reactive_arm_never_reclaims_proactively_and_swam_does() {
        let rows = measure_reclaim(7, &[SchemeKind::Fleet], 1).unwrap();
        let (_, reactive_pages) = arm_totals(&rows, "reactive");
        let (_, swam_pages) = arm_totals(&rows, "swam");
        assert_eq!(reactive_pages, 0, "reactive must never touch the proactive daemon");
        assert!(swam_pages > 0, "swam must proactively swap out under the fig13 pool");
    }
}
