//! Ablations and extensions beyond the paper's headline results.
//!
//! * [`fleet_variants`] — knock out each of Fleet's mechanisms (BGC, the
//!   `HOT_RUNTIME` refresh, the proactive `COLD_RUNTIME` swap-out, the NRO
//!   depth) and measure what it costs. This quantifies the design choices
//!   DESIGN.md calls out.
//! * [`asap_comparison`] — the related-work claim (§8): ASAP-style
//!   prefetching speeds hot-launches but "fails to address the adverse
//!   effects of GC", so it does not recover Fleet's caching capacity.
//! * [`zram_comparison`] — vendors ship compressed-RAM swap instead of a
//!   flash partition (§2.2); how do the schemes behave on it?

use crate::config::DeviceConfig;
use crate::error::FleetError;
use crate::experiment::caching::synthetic_capacity;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::experiment::scenario::AppPool;
use crate::params::SchemeKind;
use fleet_kernel::SwapMedium;
use fleet_metrics::{Summary, Table};
use serde::Serialize;

/// One measured configuration.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Human-readable variant name.
    pub variant: String,
    /// Median hot-launch time of the probe app, ms.
    pub median_hot_ms: f64,
    /// 90th-percentile hot-launch time, ms.
    pub p90_hot_ms: f64,
    /// Maximum cached synthetic apps.
    pub max_cached: usize,
}

fn probe_apps() -> Vec<String> {
    [
        "Twitter",
        "Facebook",
        "Instagram",
        "Youtube",
        "Tiktok",
        "Spotify",
        "Chrome",
        "GoogleMaps",
        "AmazonShop",
        "LinkedIn",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn measure_config(
    config: DeviceConfig,
    variant: &str,
    launches: usize,
    capacity_apps: usize,
) -> Result<AblationRow, FleetError> {
    // Hot-launch distribution of the probe app under pressure. A longer
    // usage gap than §7.2's 30 s ages the target deep into the cache, which
    // is where launch-page pinning and prefetching earn their keep.
    let mut pool = AppPool::with_config(config, &probe_apps())?;
    pool.set_usage_gap(120);
    let reports = pool.measure_hot_launches("Twitter", launches)?;
    let times = Summary::from_values(reports.iter().map(|r| r.total.as_millis_f64()));

    Ok(AblationRow {
        variant: variant.to_string(),
        median_hot_ms: times.median(),
        p90_hot_ms: times.p90(),
        max_cached: synthetic_capacity(config, 2048, capacity_apps, 10)?.max_cached,
    })
}

/// Knock out Fleet's mechanisms one at a time.
pub fn fleet_variants(
    seed: u64,
    launches: usize,
    capacity_apps: usize,
) -> Result<Vec<AblationRow>, FleetError> {
    let base = |seed| {
        let mut c = DeviceConfig::pixel3(SchemeKind::Fleet);
        c.seed = seed;
        c
    };
    let mut rows = Vec::new();
    rows.push(measure_config(base(seed), "Fleet (full)", launches, capacity_apps)?);
    let mut c = base(seed);
    c.fleet_disable_bgc = true;
    rows.push(measure_config(c, "Fleet w/o BGC", launches, capacity_apps)?);
    let mut c = base(seed);
    c.fleet_disable_hot_refresh = true;
    rows.push(measure_config(c, "Fleet w/o HOT_RUNTIME", launches, capacity_apps)?);
    let mut c = base(seed);
    c.fleet_disable_cold_madvise = true;
    rows.push(measure_config(c, "Fleet w/o COLD_RUNTIME", launches, capacity_apps)?);
    let mut c = base(seed);
    c.fleet.depth = 0;
    rows.push(measure_config(c, "Fleet D=0", launches, capacity_apps)?);
    let mut c = base(seed);
    c.fleet.depth = 8;
    rows.push(measure_config(c, "Fleet D=8", launches, capacity_apps)?);
    Ok(rows)
}

/// Android vs Android+ASAP-prefetch vs Fleet.
pub fn asap_comparison(
    seed: u64,
    launches: usize,
    capacity_apps: usize,
) -> Result<Vec<AblationRow>, FleetError> {
    let mut rows = Vec::new();
    let mut c = DeviceConfig::pixel3(SchemeKind::Android);
    c.seed = seed;
    rows.push(measure_config(c, "Android", launches, capacity_apps)?);
    let mut c = DeviceConfig::pixel3(SchemeKind::Android);
    c.seed = seed;
    c.prefetch_on_launch = true;
    rows.push(measure_config(c, "Android + ASAP prefetch", launches, capacity_apps)?);
    let mut c = DeviceConfig::pixel3(SchemeKind::Fleet);
    c.seed = seed;
    rows.push(measure_config(c, "Fleet", launches, capacity_apps)?);
    Ok(rows)
}

/// Flash vs zram swap for Android and Fleet.
pub fn zram_comparison(
    seed: u64,
    launches: usize,
    capacity_apps: usize,
) -> Result<Vec<AblationRow>, FleetError> {
    let mut rows = Vec::new();
    for scheme in [SchemeKind::Android, SchemeKind::Fleet] {
        for (medium, label) in [
            (SwapMedium::Flash, "flash"),
            (SwapMedium::Zram { compression_ratio: 2.8 }, "zram 2.8x"),
        ] {
            let mut c = DeviceConfig::pixel3(scheme);
            c.seed = seed;
            c.swap_medium = medium;
            rows.push(measure_config(c, &format!("{scheme} / {label}"), launches, capacity_apps)?);
        }
    }
    Ok(rows)
}

/// Renders ablation rows as the text table the extensions section prints.
pub fn ablation_table(rows: &[AblationRow]) -> Table {
    let mut t = Table::new(["Variant", "Hot p50 (ms)", "Hot p90 (ms)", "Max cached"]);
    for r in rows {
        t.row([
            r.variant.clone(),
            format!("{:.0}", r.median_hot_ms),
            format!("{:.0}", r.p90_hot_ms),
            r.max_cached.to_string(),
        ]);
    }
    t
}

/// Experiment `ablation`: mechanism knock-outs plus the ASAP and zram
/// comparisons.
pub const ABLATION: Experiment = Experiment {
    id: "ablation",
    title: "Extensions — ablations, ASAP prefetching, zram",
    description: "Fleet feature ablations plus ASAP prefetch and zram swap variants",
    module: "ablation",
    aliases: &[],
    run,
};

fn run(ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
    let (l, cap) = if ctx.quick { (4, 14) } else { (8, 22) };
    let mut out = ExperimentOutput::new();
    out.section("Extensions — Fleet mechanism ablations");
    let variants = fleet_variants(ctx.seed, l, cap)?;
    out.export("ablation_fleet", "mechanism knock-outs", &variants);
    out.table(ablation_table(&variants));
    out.text("BGC carries the caching capacity; COLD_RUNTIME buys headroom; HOT_RUNTIME is");
    out.text("precautionary at this pressure; the depth parameter D trades launch coverage");
    out.text("for launch-region footprint (see Figure 6b).");
    out.section("Extensions — ASAP-style prefetching vs Fleet (§8 related work)");
    out.table(ablation_table(&asap_comparison(ctx.seed, l, cap)?));
    out.text("paper's point: prefetching speeds launches but does not fix the GC-swap");
    out.text("conflict, so it cannot recover Fleet's caching capacity.");
    out.section("Extensions — flash vs zram (compressed-RAM) swap");
    out.table(ablation_table(&zram_comparison(ctx.seed, l, cap)?));
    out.text("zram removes the 20.3 MB/s flash penalty but eats DRAM for its store.");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(rows: &'a [AblationRow], name: &str) -> &'a AblationRow {
        rows.iter().find(|r| r.variant == name).unwrap_or_else(|| panic!("missing {name}"))
    }

    #[test]
    fn every_fleet_mechanism_earns_its_keep() {
        let rows = fleet_variants(31, 5, 20).unwrap();
        let full = get(&rows, "Fleet (full)");
        let no_bgc = get(&rows, "Fleet w/o BGC");
        let no_hot = get(&rows, "Fleet w/o HOT_RUNTIME");
        let no_cold = get(&rows, "Fleet w/o COLD_RUNTIME");
        // BGC is the caching-capacity mechanism.
        assert!(
            full.max_cached > no_bgc.max_cached,
            "BGC should buy capacity: {} vs {}",
            full.max_cached,
            no_bgc.max_cached
        );
        // HOT_RUNTIME is precautionary in this protocol: the target's idle
        // native pool absorbs its eviction share before the launch pages
        // age out, so pinning rarely fires — but it must never *hurt*.
        assert!(
            no_hot.p90_hot_ms > 0.85 * full.p90_hot_ms,
            "pinning must not slow launches: {} vs {}",
            no_hot.p90_hot_ms,
            full.p90_hot_ms
        );
        assert!(
            no_hot.median_hot_ms > 0.85 * full.median_hot_ms,
            "pinning must not slow medians: {} vs {}",
            no_hot.median_hot_ms,
            full.median_hot_ms
        );
        // COLD_RUNTIME buys capacity headroom (proactive reclaim).
        assert!(
            full.max_cached >= no_cold.max_cached,
            "proactive swap-out should not hurt capacity: {} vs {}",
            full.max_cached,
            no_cold.max_cached
        );
    }

    #[test]
    fn asap_speeds_launches_but_not_capacity() {
        let rows = asap_comparison(37, 5, 18).unwrap();
        let android = get(&rows, "Android");
        let asap = get(&rows, "Android + ASAP prefetch");
        let fleet = get(&rows, "Fleet");
        // Prefetching helps Android's launches…
        assert!(
            asap.median_hot_ms < android.median_hot_ms,
            "ASAP should speed launches: {} vs {}",
            asap.median_hot_ms,
            android.median_hot_ms
        );
        // …but the GC-swap conflict still caps its caching capacity.
        assert!(
            fleet.max_cached > asap.max_cached,
            "prefetching must not recover capacity: fleet {} vs asap {}",
            fleet.max_cached,
            asap.max_cached
        );
    }

    #[test]
    fn zram_trades_capacity_for_latency() {
        let rows = zram_comparison(41, 4, 18).unwrap();
        let android_flash = get(&rows, "Android / flash");
        let android_zram = get(&rows, "Android / zram 2.8x");
        // Zram swap-ins are near-DRAM speed: Android's launch tail shrinks.
        assert!(
            android_zram.p90_hot_ms < android_flash.p90_hot_ms * 1.05,
            "zram should not slow launches: {} vs {}",
            android_zram.p90_hot_ms,
            android_flash.p90_hot_ms
        );
        // Every row still runs and caches a sane number of apps.
        for row in &rows {
            assert!(row.max_cached >= 5, "{}: {}", row.variant, row.max_cached);
            assert!(row.median_hot_ms > 100.0);
        }
    }
}
