//! §7.3 runtime-cost experiments: CPU usage, memory overhead, power.
//!
//! Paper findings: Fleet costs +0.18% total CPU vs Android (mostly in the
//! GC thread, +0.16%) and −3.21% vs Marvin; the card table adds a fixed
//! 4 MiB per 4 GiB of heap; power draw is statistically indistinguishable
//! from Android (1851 ± 143 mW vs 1817 ± 197 mW).

use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::experiment::scenario::AppPool;
use crate::params::SchemeKind;
use fleet_heap::CardTable;
use fleet_metrics::{CpuAccounting, PowerModel, Table, ThreadClass};
use fleet_sim::SimDuration;
use serde::Serialize;

/// CPU-time totals for one scheme over the fg/bg cycling workload.
#[derive(Debug, Clone, Serialize)]
pub struct CpuRow {
    /// Scheme name.
    pub scheme: String,
    /// Total CPU seconds consumed (mutator + GC + kernel).
    pub total_cpu_s: f64,
    /// GC thread share of the total, percent.
    pub gc_share_pct: f64,
    /// Kernel (reclaim/swap) share of the total, percent.
    pub kernel_share_pct: f64,
}

fn cycling_workload(
    scheme: SchemeKind,
    seed: u64,
    cycles: usize,
) -> Result<(CpuAccounting, u64, u64, SimDuration), FleetError> {
    let apps: Vec<String> = ["Twitter", "Youtube", "AmazonShop", "Chrome", "Spotify"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut pool = AppPool::under_pressure(scheme, &apps, seed)?;
    let start = pool.device().now();
    let swap_before = pool.device().mm().swap().total_bytes_moved();
    // "launch an app, use it for 30 seconds, switch it to the background
    // for 30 seconds, and repeat" — rotated over the pool.
    for i in 0..cycles {
        let app = apps[i % apps.len()].clone();
        pool.launch(&app)?;
        pool.device_mut().run(30);
        let next = apps[(i + 1) % apps.len()].clone();
        pool.launch(&next)?;
        pool.device_mut().run(30);
    }
    let mut cpu = CpuAccounting::new();
    for proc in pool.device().processes() {
        cpu.merge(&proc.cpu);
    }
    cpu.charge(
        ThreadClass::Kernel,
        SimDuration::from_nanos(pool.device().mm().stats().kswapd_cpu_nanos),
    );
    let swap_bytes = pool.device().mm().swap().total_bytes_moved() - swap_before;
    let resident_bytes = pool.device().mm().used_frames() * fleet_heap::PAGE_SIZE;
    let window = pool.device().now() - start;
    Ok((cpu, swap_bytes, resident_bytes, window))
}

/// Runs the CPU-usage comparison.
pub fn cpu_usage(seed: u64, cycles: usize) -> Result<Vec<CpuRow>, FleetError> {
    [SchemeKind::Android, SchemeKind::Marvin, SchemeKind::Fleet]
        .into_iter()
        .map(|scheme| {
            let (cpu, _, _, _) = cycling_workload(scheme, seed, cycles)?;
            Ok(CpuRow {
                scheme: scheme.to_string(),
                total_cpu_s: cpu.total().as_secs_f64(),
                gc_share_pct: cpu.share_percent(ThreadClass::Gc),
                kernel_share_pct: cpu.share_percent(ThreadClass::Kernel),
            })
        })
        .collect()
}

/// Power report for one scheme.
#[derive(Debug, Clone, Serialize)]
pub struct PowerRow {
    /// Scheme name.
    pub scheme: String,
    /// Average draw in mW.
    pub average_mw: f64,
    /// CPU component, mW.
    pub cpu_mw: f64,
    /// Swap-I/O component, mW.
    pub swap_mw: f64,
}

/// Runs the power comparison (1 min foreground + 1 min background cycles).
pub fn power(seed: u64, cycles: usize) -> Result<Vec<PowerRow>, FleetError> {
    [SchemeKind::Android, SchemeKind::Fleet]
        .into_iter()
        .map(|scheme| {
            let (cpu, swap_bytes, resident, window) = cycling_workload(scheme, seed, cycles)?;
            // Scale activity back to real magnitude: the simulation runs at
            // 1/16 of the device's memory traffic.
            let scale = 16;
            let report =
                PowerModel::default().report(window, &cpu, swap_bytes * scale, resident * scale);
            Ok(PowerRow {
                scheme: scheme.to_string(),
                average_mw: report.average_mw,
                cpu_mw: report.cpu_mw,
                swap_mw: report.swap_mw,
            })
        })
        .collect()
}

/// The §7.3 memory-overhead accounting for the card table.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct OverheadReport {
    /// Card-table bytes for a 4 GiB heap at CARD_SHIFT = 10.
    pub card_table_bytes_per_4gib: u64,
    /// Card bytes per heap byte (1 / 1024).
    pub bytes_per_heap_byte: f64,
}

/// Computes the card-table overhead from the implementation itself.
pub fn memory_overhead() -> OverheadReport {
    let mut cards = CardTable::new(10);
    let four_gib: u64 = 4 * 1024 * 1024 * 1024;
    cards.dirty(four_gib - 1);
    OverheadReport {
        card_table_bytes_per_4gib: cards.footprint_bytes() as u64,
        bytes_per_heap_byte: 1.0 / cards.card_size() as f64,
    }
}

/// Experiment `cpu`.
pub const CPU: Experiment = Experiment {
    id: "cpu",
    title: "§7.3 — CPU usage",
    description: "GC and kernel CPU seconds consumed per scheme over the protocol",
    module: "runtime",
    aliases: &[],
    run: run_cpu,
};

fn run_cpu(ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let rows = cpu_usage(ctx.seed, if ctx.quick { 2 } else { 4 })?;
    let mut out = ExperimentOutput::new();
    out.section(CPU.title);
    let mut t = Table::new(["Scheme", "Total CPU (s)", "GC share %", "Kernel share %"]);
    for r in &rows {
        t.row([
            r.scheme.clone(),
            format!("{:.2}", r.total_cpu_s),
            format!("{:.2}", r.gc_share_pct),
            format!("{:.2}", r.kernel_share_pct),
        ]);
    }
    out.table(t);
    let get =
        |name: &str| rows.iter().find(|r| r.scheme == name).map(|r| r.total_cpu_s).unwrap_or(0.0);
    out.text(format!(
        "Fleet vs Android: {:+.2}%   (paper: +0.18%);  Fleet vs Marvin: {:+.2}%   (paper: −3.21%)",
        100.0 * (get("Fleet") - get("Android")) / get("Android"),
        100.0 * (get("Fleet") - get("Marvin")) / get("Marvin"),
    ));
    Ok(out)
}

/// Experiment `power`.
pub const POWER: Experiment = Experiment {
    id: "power",
    title: "§7.3 — power consumption",
    description: "Energy proxy derived from CPU time and swap I/O per scheme",
    module: "runtime",
    aliases: &[],
    run: run_power,
};

fn run_power(ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let rows = power(ctx.seed, if ctx.quick { 1 } else { 2 })?;
    let mut out = ExperimentOutput::new();
    out.section(POWER.title);
    let mut t = Table::new(["Scheme", "Average (mW)", "CPU (mW)", "Swap (mW)", "Paper"]);
    for r in &rows {
        let paper = if r.scheme == "Fleet" { "1851 ± 143 mW" } else { "1817 ± 197 mW" };
        t.row([
            r.scheme.clone(),
            format!("{:.0}", r.average_mw),
            format!("{:.0}", r.cpu_mw),
            format!("{:.0}", r.swap_mw),
            paper.to_string(),
        ]);
    }
    out.table(t);
    out.text("paper: equal within the standard error");
    Ok(out)
}

/// Experiment `overhead`.
pub const OVERHEAD: Experiment = Experiment {
    id: "overhead",
    title: "§7.3 — memory overhead (card table)",
    description: "Card-table and scheme metadata overhead relative to heap size",
    module: "runtime",
    aliases: &[],
    run: run_overhead,
};

fn run_overhead(_ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let report = memory_overhead();
    let mut out = ExperimentOutput::new();
    out.section(OVERHEAD.title);
    out.text(format!(
        "card table for a 4 GiB heap: {} MiB   (paper: 4 MB, fixed, ∝ heap size)",
        report.card_table_bytes_per_4gib / (1024 * 1024)
    ));
    out.text(format!("bytes of card table per heap byte: {:.6}", report.bytes_per_heap_byte));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_cpu_is_close_to_android_marvin_higher() {
        let rows = cpu_usage(17, 2).unwrap();
        let get = |name: &str| rows.iter().find(|r| r.scheme == name).unwrap();
        let android = get("Android");
        let fleet = get("Fleet");
        let marvin = get("Marvin");
        // Fleet in the same ballpark as Android (paper: +0.18%; the
        // simulator's launch-stall accounting is coarser, so allow 2x).
        let ratio = fleet.total_cpu_s / android.total_cpu_s;
        assert!((0.5..2.0).contains(&ratio), "Fleet vs Android CPU ratio {ratio}");
        // All schemes do comparable total work on the same workload.
        let marvin_ratio = marvin.total_cpu_s / fleet.total_cpu_s;
        assert!((0.3..3.0).contains(&marvin_ratio), "marvin/fleet ratio {marvin_ratio}");
        for row in &rows {
            assert!(row.total_cpu_s > 0.0);
            assert!(row.gc_share_pct >= 0.0 && row.gc_share_pct <= 100.0);
        }
    }

    #[test]
    fn power_is_comparable_between_fleet_and_android() {
        let rows = power(19, 2).unwrap();
        let get = |name: &str| rows.iter().find(|r| r.scheme == name).unwrap();
        let android = get("Android");
        let fleet = get("Fleet");
        // Paper: 1851 ± 143 vs 1817 ± 197 mW — same within noise. Require
        // the same ballpark (±25%) and a sane absolute range. (Our simulated
        // workload never idles, so absolutes run higher than the paper's.)
        let delta = (fleet.average_mw - android.average_mw).abs() / android.average_mw;
        assert!(delta < 0.25, "power delta {delta}");
        for row in &rows {
            assert!(
                (1500.0..4500.0).contains(&row.average_mw),
                "{}: {} mW",
                row.scheme,
                row.average_mw
            );
        }
    }

    #[test]
    fn card_table_overhead_matches_paper() {
        let report = memory_overhead();
        assert_eq!(report.card_table_bytes_per_4gib, 4 * 1024 * 1024);
        assert!((report.bytes_per_heap_byte - 1.0 / 1024.0).abs() < 1e-12);
    }
}
