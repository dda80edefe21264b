//! Figure 6: which objects are re-accessed at hot-launch (§4.2).
//!
//! 6a: the NRO (depth ≤ 2) and FYO (allocated just before backgrounding)
//! shares of launch re-accesses, with their memory footprints — the paper
//! finds ≈50% / ≈40% of re-accesses for ≈10% / ≈9% of memory, 68% combined.
//!
//! 6b: sweeping the depth parameter D for Twitter — the re-access coverage
//! climbs faster than the memory footprint at small D, which is why D = 2
//! is a good operating point.

use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use fleet_apps::{profile_by_name, AppBehavior};
use fleet_heap::{depth_map, AllocContext, DepthMap, Heap, HeapConfig, ObjectId};
use fleet_metrics::Table;
use fleet_sim::SimRng;
use serde::Serialize;
use std::collections::HashSet;

/// One app row of Figure 6a.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6aRow {
    /// App name.
    pub app: String,
    /// Share of re-accessed objects that are NRO (D = 2), percent.
    pub nro_share_pct: f64,
    /// Share of re-accessed objects that are FYO, percent.
    pub fyo_share_pct: f64,
    /// Share covered by NRO ∪ FYO, percent.
    pub both_share_pct: f64,
    /// NRO memory footprint, percent of live heap bytes.
    pub nro_mem_pct: f64,
    /// FYO memory footprint, percent of live heap bytes.
    pub fyo_mem_pct: f64,
    /// NRO ∪ FYO memory footprint, percent of live heap bytes.
    pub both_mem_pct: f64,
}

/// One depth point of Figure 6b.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig6bPoint {
    /// The depth parameter D.
    pub depth: u32,
    /// Launch re-accesses covered by NRO(D), percent.
    pub reaccess_coverage_pct: f64,
    /// NRO(D) memory footprint, percent of live heap bytes.
    pub mem_footprint_pct: f64,
}

/// A prepared backgrounded app with its ground-truth sets.
struct PreparedApp {
    heap: Heap,
    nro_by_depth: DepthMap,
    fyo: HashSet<ObjectId>,
    accessed: Vec<ObjectId>,
}

fn prepare(app: &str, seed: u64) -> PreparedApp {
    let mut profile = profile_by_name(app).unwrap_or_else(|| panic!("unknown app {app}"));
    // The heap is built at 1/16 scale; allocation rates must match.
    profile.fg_alloc_mib_per_sec /= 16.0;
    profile.bg_alloc_mib_per_sec /= 16.0;
    let mut heap = Heap::new(HeapConfig::default());
    let mut behavior = AppBehavior::new(profile.clone(), SimRng::seed_from(seed));
    behavior.build_initial_graph(&mut heap, profile.java_heap_bytes_scaled(16));
    // The last pre-background GC: whatever is allocated after this is FYO.
    heap.retire_alloc_targets();
    heap.clear_newly_allocated_flags();
    // A little more foreground use → young allocations in flagged regions
    // (sized so FYO land near the paper's ≈9% of heap memory).
    for _ in 0..8 {
        behavior.foreground_step(&mut heap, 1.0);
    }
    behavior.enter_background(&heap);
    heap.set_context(AllocContext::Background);
    // Ground truth at background time.
    let nro_by_depth = depth_map(&heap, None);
    let fyo: HashSet<ObjectId> = heap
        .object_ids()
        .filter(|&o| {
            let obj = heap.object(o);
            obj.context() == AllocContext::Foreground && heap.region(obj.region()).newly_allocated()
        })
        .collect();
    // 30 s later the app hot-launches (§4.2's protocol).
    let accessed = behavior.launch_access(&heap).objects;
    PreparedApp { heap, nro_by_depth, fyo, accessed }
}

fn live_bytes_of(heap: &Heap, set: impl Iterator<Item = ObjectId>) -> u64 {
    set.map(|o| heap.object(o).size() as u64).sum()
}

/// Runs Figure 6a over the paper's five analysed apps.
pub fn fig6a(seed: u64) -> Vec<Fig6aRow> {
    ["Twitter", "Facebook", "Youtube", "AmazonShop", "Tiktok"]
        .iter()
        .map(|app| {
            let prep = prepare(app, seed ^ app.len() as u64);
            let nro: HashSet<ObjectId> =
                prep.nro_by_depth.iter().filter(|&(_, d)| d <= 2).map(|(o, _)| o).collect();
            let acc: HashSet<ObjectId> = prep.accessed.iter().copied().collect();
            let total = acc.len().max(1) as f64;
            let nro_hits = acc.intersection(&nro).count() as f64;
            let fyo_hits = acc.intersection(&prep.fyo).count() as f64;
            let both_hits =
                acc.iter().filter(|o| nro.contains(o) || prep.fyo.contains(o)).count() as f64;
            let live = prep.heap.live_bytes().max(1) as f64;
            let nro_mem = live_bytes_of(&prep.heap, nro.iter().copied()) as f64;
            let fyo_mem = live_bytes_of(&prep.heap, prep.fyo.iter().copied()) as f64;
            let both_mem = live_bytes_of(
                &prep.heap,
                prep.heap.object_ids().filter(|o| nro.contains(o) || prep.fyo.contains(o)),
            ) as f64;
            Fig6aRow {
                app: app.to_string(),
                nro_share_pct: 100.0 * nro_hits / total,
                fyo_share_pct: 100.0 * fyo_hits / total,
                both_share_pct: 100.0 * both_hits / total,
                nro_mem_pct: 100.0 * nro_mem / live,
                fyo_mem_pct: 100.0 * fyo_mem / live,
                both_mem_pct: 100.0 * both_mem / live,
            }
        })
        .collect()
}

/// Runs Figure 6b: the NRO depth sweep on Twitter, D in `0..=max_depth`.
pub fn fig6b(seed: u64, max_depth: u32) -> Vec<Fig6bPoint> {
    let prep = prepare("Twitter", seed);
    let acc: HashSet<ObjectId> = prep.accessed.iter().copied().collect();
    let live = prep.heap.live_bytes().max(1) as f64;
    (0..=max_depth)
        .map(|depth| {
            let nro: Vec<ObjectId> =
                prep.nro_by_depth.iter().filter(|&(_, d)| d <= depth).map(|(o, _)| o).collect();
            let covered = nro.iter().filter(|o| acc.contains(o)).count() as f64;
            let mem = live_bytes_of(&prep.heap, nro.iter().copied()) as f64;
            Fig6bPoint {
                depth,
                reaccess_coverage_pct: 100.0 * covered / acc.len().max(1) as f64,
                mem_footprint_pct: 100.0 * mem / live,
            }
        })
        .collect()
}

/// Experiment `fig6` (6a shares and footprints; 6b depth sweep).
pub const FIG6: Experiment = Experiment {
    id: "fig6",
    title: "Figure 6 — NRO/FYO re-access shares and the depth sweep",
    description: "Re-access shares of backgrounded objects and the grouping-depth sweep",
    module: "reaccess",
    aliases: &[],
    run,
};

fn run(ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let mut out = ExperimentOutput::new();
    out.section("Figure 6a — NRO/FYO re-access shares and footprints");
    let rows = fig6a(ctx.seed);
    let mut t =
        Table::new(["App", "NRO %", "FYO %", "Both %", "NRO mem %", "FYO mem %", "Both mem %"]);
    for r in &rows {
        t.row([
            r.app.clone(),
            format!("{:.0}", r.nro_share_pct),
            format!("{:.0}", r.fyo_share_pct),
            format!("{:.0}", r.both_share_pct),
            format!("{:.1}", r.nro_mem_pct),
            format!("{:.1}", r.fyo_mem_pct),
            format!("{:.1}", r.both_mem_pct),
        ]);
    }
    out.table(t);
    out.text("paper averages: NRO ≈50%, FYO ≈40%, both ≈68% of re-accesses for ≈15.5% of memory");
    out.section("Figure 6b — NRO depth sweep (Twitter)");
    let points = fig6b(ctx.seed, 14);
    let mut t = Table::new(["Depth D", "Re-access coverage %", "Memory footprint %"]);
    for p in &points {
        t.row([
            p.depth.to_string(),
            format!("{:.0}", p.reaccess_coverage_pct),
            format!("{:.1}", p.mem_footprint_pct),
        ]);
    }
    out.table(t);
    out.text("paper shape: coverage rises much faster than footprint at small D");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nro_and_fyo_cover_most_reaccesses_cheaply() {
        let rows = fig6a(2);
        assert_eq!(rows.len(), 5);
        let avg = |f: fn(&Fig6aRow) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
        let nro = avg(|r| r.nro_share_pct);
        let fyo = avg(|r| r.fyo_share_pct);
        let both = avg(|r| r.both_share_pct);
        let both_mem = avg(|r| r.both_mem_pct);
        // Paper: NRO ≈ 50%, FYO ≈ 40%, combined ≈ 68% of re-accesses for
        // ≈ 15.5% of memory. Shapes, not exact values:
        assert!((30.0..85.0).contains(&nro), "NRO share {nro}");
        assert!((10.0..60.0).contains(&fyo), "FYO share {fyo}");
        assert!(both >= nro.max(fyo), "union dominates either");
        assert!(both > 55.0, "combined share {both}");
        assert!(both_mem < 30.0, "combined footprint {both_mem}%");
        assert!(both > 2.0 * both_mem, "coverage must be much denser than footprint");
    }

    #[test]
    fn depth_sweep_coverage_outpaces_footprint_early() {
        let points = fig6b(2, 10);
        assert_eq!(points.len(), 11);
        // Monotone in depth.
        for w in points.windows(2) {
            assert!(w[1].reaccess_coverage_pct >= w[0].reaccess_coverage_pct);
            assert!(w[1].mem_footprint_pct >= w[0].mem_footprint_pct);
        }
        // At D = 2 coverage is already large while footprint is small.
        let d2 = &points[2];
        assert!(d2.reaccess_coverage_pct > 30.0, "coverage at D=2: {}", d2.reaccess_coverage_pct);
        assert!(d2.mem_footprint_pct < 20.0, "footprint at D=2: {}", d2.mem_footprint_pct);
        assert!(d2.reaccess_coverage_pct > 2.0 * d2.mem_footprint_pct);
        // Deep sweep approaches full memory.
        let last = points.last().unwrap();
        assert!(last.mem_footprint_pct > 60.0);
    }
}
