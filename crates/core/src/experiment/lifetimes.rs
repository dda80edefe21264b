//! Figure 5: fore/background object lifetimes and footprints (§4.1).
//!
//! Protocol (Twitter): use the app in the foreground, switch it to the
//! background, then run an explicit GC every 15 seconds. An object's
//! lifetime is the number of GC cycles it survived; the paper finds most
//! BGO die within the first few cycles while > 40% of FGO outlive all 15.

use crate::config::DeviceConfig;
use crate::device::Device;
use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::params::SchemeKind;
use fleet_apps::catalog;
use fleet_heap::{AllocContext, ObjectId};
use fleet_metrics::{Histogram, Table};
use serde::Serialize;
use std::collections::HashMap;

/// Result of the lifetime study plus the per-app footprint split.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Figure 5a: FGO lifetime histogram (bucket = GC cycles survived;
    /// overflow = still alive after all cycles).
    pub fgo_lifetime: Histogram,
    /// Figure 5b: BGO lifetime histogram.
    pub bgo_lifetime: Histogram,
    /// Figure 5c: per-app `(name, fgo_mb, bgo_mb)` at real scale.
    pub footprints: Vec<FootprintRow>,
}

/// One bar pair of Figure 5c.
#[derive(Debug, Clone, Serialize)]
pub struct FootprintRow {
    /// App name.
    pub app: String,
    /// Live FGO megabytes (real scale).
    pub fgo_mb: f64,
    /// Live BGO megabytes (real scale).
    pub bgo_mb: f64,
}

/// Runs the Figure 5 study: `cycles` explicit GCs 15 s apart on a
/// backgrounded Twitter (5a/5b), plus the FGO/BGO footprint of every app
/// (5c).
pub fn fig5(seed: u64, cycles: u32) -> Result<Fig5Result, FleetError> {
    let mut config = DeviceConfig::pixel3(SchemeKind::Android);
    config.seed = seed;
    // Explicit GCs only: push the periodic trim cycle out of the way.
    config.bg_gc_interval = fleet_sim::SimDuration::from_secs(100_000);
    let mut device = Device::try_new(config)?;

    let twitter = catalog().into_iter().find(|a| a.name == "Twitter").expect("catalog app");
    let (pid, _) = device.launch_cold(&twitter);
    device.run(30); // foreground usage
    let helper = catalog().into_iter().find(|a| a.name == "Telegram").expect("catalog app");
    device.launch_cold(&helper); // Twitter → background

    // Birth cycle per object: FGO (alive at the switch) are cycle 0; BGO
    // are stamped with the first cycle that observes them.
    let mut birth: HashMap<ObjectId, (AllocContext, u32)> = HashMap::new();
    let mut fgo_lifetime = Histogram::new(cycles.saturating_sub(1));
    let mut bgo_lifetime = Histogram::new(cycles.saturating_sub(1));
    let snapshot = |device: &Device| -> Result<HashMap<ObjectId, AllocContext>, FleetError> {
        let proc = device.try_process(pid)?;
        Ok(proc.heap.object_ids().map(|o| (o, proc.heap.object(o).context())).collect())
    };
    for (obj, ctx) in snapshot(&device)? {
        birth.insert(obj, (ctx, 0));
    }

    for cycle in 0..cycles {
        device.run(15);
        // New allocations since the last snapshot are born this cycle.
        let live = snapshot(&device)?;
        for (&obj, &ctx) in &live {
            birth.entry(obj).or_insert((ctx, cycle));
        }
        device.try_run_gc(pid)?;
        let survivors = snapshot(&device)?;
        // Deaths this cycle: lifetime = cycles survived since birth.
        birth.retain(|obj, &mut (ctx, born)| {
            if survivors.contains_key(obj) {
                true
            } else {
                let lifetime = cycle.saturating_sub(born);
                match ctx {
                    AllocContext::Foreground => fgo_lifetime.record(lifetime),
                    AllocContext::Background => bgo_lifetime.record(lifetime),
                }
                false
            }
        });
    }
    // Still alive after all cycles → overflow bucket.
    for (_, &(ctx, _)) in birth.iter() {
        match ctx {
            AllocContext::Foreground => fgo_lifetime.record(cycles),
            AllocContext::Background => bgo_lifetime.record(cycles),
        }
    }

    // Figure 5c: footprints for every app after a short background stay.
    let mut footprints = Vec::new();
    for profile in catalog() {
        let mut config = DeviceConfig::pixel3(SchemeKind::Android);
        config.seed = seed ^ 0x5c ^ profile.footprint_mib as u64;
        let mut dev = Device::try_new(config)?;
        let (p, _) = dev.launch_cold(&profile);
        dev.run(20);
        let helper = catalog().into_iter().find(|a| a.name != profile.name).expect("catalog");
        dev.launch_cold(&helper);
        dev.run(20); // accumulate some BGO
        let stats = dev.try_process(p)?.heap.stats();
        let scale = dev.config().scale as f64;
        footprints.push(FootprintRow {
            app: profile.name,
            fgo_mb: stats.fgo_bytes as f64 * scale / (1024.0 * 1024.0),
            bgo_mb: stats.bgo_bytes as f64 * scale / (1024.0 * 1024.0),
        });
    }

    Ok(Fig5Result { fgo_lifetime, bgo_lifetime, footprints })
}

/// Experiment `fig5`.
pub const FIG5: Experiment = Experiment {
    id: "fig5",
    title: "Figure 5 — FGO/BGO lifetimes and footprints",
    description: "Lifetimes and heap footprints of foreground- vs background-allocated objects",
    module: "lifetimes",
    aliases: &[],
    run,
};

fn run(ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let result = fig5(ctx.seed, 15)?;
    let mut out = ExperimentOutput::new();
    out.section(FIG5.title);
    out.text(format!(
        "5a FGO alive after 15 GCs: {:.0}%   (paper: > 40%)",
        result.fgo_lifetime.overflow_percent()
    ));
    out.text(format!(
        "5b BGO alive after 15 GCs: {:.0}%   (paper: most BGO die within the first few GCs)",
        result.bgo_lifetime.overflow_percent()
    ));
    let bgo_early: u64 = (0..3).map(|c| result.bgo_lifetime.count(c)).sum();
    out.text(format!(
        "5b BGO dying within 3 GCs: {:.0}%",
        100.0 * bgo_early as f64 / result.bgo_lifetime.total().max(1) as f64
    ));
    let mut t = Table::new(["App", "FGO (MB)", "BGO (MB)", "Paper: FGO occupy the majority"]);
    for row in &result.footprints {
        t.row([
            row.app.clone(),
            format!("{:.1}", row.fgo_mb),
            format!("{:.2}", row.bgo_mb),
            String::new(),
        ]);
    }
    out.table(t);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bgo_die_young_fgo_live_long() {
        let result = fig5(11, 8).unwrap();
        let fgo = &result.fgo_lifetime;
        let bgo = &result.bgo_lifetime;
        assert!(fgo.total() > 0 && bgo.total() > 0);
        // §4.1: most BGO are reclaimed within the first several GCs…
        let bgo_early = (0..2).map(|c| bgo.count(c)).sum::<u64>() as f64 / bgo.total() as f64;
        assert!(bgo_early > 0.5, "early-dying BGO share {bgo_early}");
        // …while a large share of FGO survives every cycle.
        assert!(
            fgo.overflow_percent() > 40.0,
            "FGO surviving all cycles: {}%",
            fgo.overflow_percent()
        );
        // And BGO survivors are rare in comparison.
        assert!(fgo.overflow_percent() > 2.0 * bgo.overflow_percent());
    }

    #[test]
    fn fgo_dominate_footprints() {
        let result = fig5(13, 2).unwrap();
        assert_eq!(result.footprints.len(), 18);
        for row in &result.footprints {
            assert!(
                row.fgo_mb > 5.0 * row.bgo_mb.max(0.01),
                "{}: fgo {} vs bgo {}",
                row.app,
                row.fgo_mb,
                row.bgo_mb
            );
            assert!(row.fgo_mb > 1.0, "{} fgo {} MB", row.app, row.fgo_mb);
        }
    }
}
