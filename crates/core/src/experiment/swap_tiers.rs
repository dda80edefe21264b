//! Tiered compressed swap: flash-only vs zram-only vs hybrid.
//!
//! Not a paper figure — an extension study of the swap backend itself.
//! Vendors back swap with zram (compressed DRAM) rather than the paper's
//! flash partition, and Ariadne-style hybrids put a zram front tier with
//! writeback ahead of flash. This sweep runs the §7.2 pressure protocol
//! over the three backends × the three runtimes and reports hot-launch
//! medians plus the tier stack's own counters (zram faults, writeback and
//! incompressible fall-through traffic, DRAM pinned by compressed slots).
//!
//! Expected ordering on the fig2 app set: zram-only faults at near-DRAM
//! speed but pins DRAM (more pressure, more kills), flash-only pays the
//! ~452× device gap on every refault, and the hybrid sits strictly between
//! — warm refaults decompress from zram, cold slots age out to flash. The
//! differential test below pins exactly that ordering.

use crate::config::{DeviceConfig, ZramFront};
use crate::error::FleetError;
use crate::experiment::harness::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::experiment::scenario::{fig13_apps, AppPool};
use crate::params::SchemeKind;
use fleet_kernel::{SwapMedium, SwapStats};
use fleet_metrics::{Summary, Table};
use serde::Serialize;

/// Compression ratio assumed for anonymous app pages (LZ4-class).
pub const ZRAM_RATIO: f64 = 2.5;

/// Uncompressed capacity of the hybrid's zram front tier, MiB (~25% of the
/// 2 GiB swap partition, the shipping zram-writeback proportion).
pub const HYBRID_FRONT_MIB: u32 = 512;

/// One swap-backend variant of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TierVariant {
    /// The paper's flash partition, nothing else.
    FlashOnly,
    /// The whole swap space on compressed DRAM.
    ZramOnly,
    /// A zram front tier with writeback, ahead of the flash partition.
    Hybrid,
}

impl TierVariant {
    /// All variants, sweep order.
    pub fn all() -> [TierVariant; 3] {
        [TierVariant::FlashOnly, TierVariant::ZramOnly, TierVariant::Hybrid]
    }

    /// Stable label used in tables and exports.
    pub fn label(self) -> &'static str {
        match self {
            TierVariant::FlashOnly => "flash-only",
            TierVariant::ZramOnly => "zram-only",
            TierVariant::Hybrid => "hybrid",
        }
    }

    /// The device configuration this variant runs.
    pub fn device(self, scheme: SchemeKind, seed: u64) -> DeviceConfig {
        let flash = DeviceConfig { seed, ..DeviceConfig::pixel3(scheme) };
        let compression_ratio = ZRAM_RATIO;
        match self {
            TierVariant::FlashOnly => flash,
            TierVariant::ZramOnly => {
                DeviceConfig { swap_medium: SwapMedium::Zram { compression_ratio }, ..flash }
            }
            TierVariant::Hybrid => DeviceConfig {
                zram_front: Some(ZramFront { mib: HYBRID_FRONT_MIB, compression_ratio }),
                ..flash
            },
        }
    }
}

/// One scheme × backend cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct TierRow {
    /// Runtime scheme.
    pub scheme: String,
    /// Swap backend label.
    pub tier: String,
    /// Hot launches measured.
    pub launches: usize,
    /// Median hot-launch latency, ms.
    pub median_ms: f64,
    /// 90th-percentile hot-launch latency, ms.
    pub p90_ms: f64,
    /// Mean per-launch decompression stall, ms (zero on flash-only).
    pub decompress_ms: f64,
    /// Faults served from the zram tier over the whole run.
    pub faults_zram: u64,
    /// Pages the writeback daemon demoted from zram to flash.
    pub writeback_pages: u64,
    /// Warm victims that probed incompressible and fell through to flash.
    pub fallthrough_pages: u64,
    /// The stack's schema-stable per-tier counters at the end of the run.
    pub swap: SwapStats,
}

/// The launch targets: the fig2 headline apps (a heavy social app, a media
/// app, a browser), measured under the full fig13 pressure pool.
pub fn tier_apps() -> Vec<String> {
    ["Twitter", "Youtube", "Chrome"].iter().map(|s| s.to_string()).collect()
}

/// Runs the sweep: every backend variant × every scheme in `schemes`,
/// `launches` hot launches of each target app.
///
/// # Errors
///
/// Propagates pool construction and launch failures ([`FleetError`]).
pub fn measure_tiers(
    seed: u64,
    schemes: &[SchemeKind],
    launches: usize,
) -> Result<Vec<TierRow>, FleetError> {
    let mut rows = Vec::new();
    for &scheme in schemes {
        for variant in TierVariant::all() {
            let mut pool = AppPool::with_config(variant.device(scheme, seed), &fig13_apps())?;
            let mut samples = Vec::new();
            let mut decompress = Vec::new();
            for app in tier_apps() {
                for report in pool.measure_hot_launches(&app, launches)? {
                    samples.push(report.total.as_millis_f64());
                    decompress.push(report.decompress.as_millis_f64());
                }
            }
            let stats = pool.device().mm().stats();
            let summary = Summary::from_values(samples.iter().copied());
            rows.push(TierRow {
                scheme: scheme.to_string(),
                tier: variant.label().to_string(),
                launches: samples.len(),
                median_ms: summary.median(),
                p90_ms: summary.p90(),
                decompress_ms: Summary::from_values(decompress).mean(),
                faults_zram: stats.faults_zram,
                writeback_pages: stats.zram_writeback_pages,
                fallthrough_pages: stats.zram_fallthrough_pages,
                swap: pool.device().mm().swap_stats(),
            });
        }
    }
    Ok(rows)
}

/// Experiment `swap_tiers`.
pub struct SwapTiers;

impl Experiment for SwapTiers {
    fn id(&self) -> &'static str {
        "swap_tiers"
    }
    fn title(&self) -> &'static str {
        "Extension — tiered compressed swap (flash / zram / hybrid)"
    }
    fn description(&self) -> &'static str {
        "Hot-launch latency and tier traffic across swap backends per scheme"
    }
    fn module(&self) -> &'static str {
        "swap_tiers"
    }
    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError> {
        let launches = if ctx.quick { 3 } else { 8 };
        let schemes = [SchemeKind::Android, SchemeKind::Marvin, SchemeKind::Fleet];
        let rows = measure_tiers(ctx.seed, &schemes, launches)?;
        let mut out = ExperimentOutput::new();
        out.section(self.title());
        let mut t = Table::new([
            "Scheme",
            "Backend",
            "Hot p50 (ms)",
            "Hot p90 (ms)",
            "Decompress (ms)",
            "Zram faults",
            "Writeback",
            "Fall-through",
        ]);
        for r in &rows {
            t.row([
                r.scheme.clone(),
                r.tier.clone(),
                format!("{:.0}", r.median_ms),
                format!("{:.0}", r.p90_ms),
                format!("{:.1}", r.decompress_ms),
                r.faults_zram.to_string(),
                r.writeback_pages.to_string(),
                r.fallthrough_pages.to_string(),
            ]);
        }
        out.table(t);
        out.text(
            "hybrid = 512 MiB zram front (2.5x) with writeback ahead of the 2 GiB flash \
             partition; warm victims land in zram, cold and incompressible ones in flash",
        );
        out.text(
            "under `repro --trace` the zram share of a launch shows up as a `decompress` \
             span nested in `fault_in`",
        );
        out.export(
            "swap_tiers",
            "n/a (extension; expectation: zram-only < hybrid < flash-only medians)",
            &rows,
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medians_for(scheme: SchemeKind) -> (f64, f64, f64) {
        let rows = measure_tiers(11, &[scheme], 3).unwrap();
        let median = |variant: TierVariant| {
            let row = rows.iter().find(|r| r.tier == variant.label()).unwrap();
            assert!(row.launches > 0, "{} produced no hot launches", row.tier);
            row.median_ms
        };
        (median(TierVariant::FlashOnly), median(TierVariant::ZramOnly), median(TierVariant::Hybrid))
    }

    #[test]
    fn hybrid_median_sits_strictly_between_zram_and_flash() {
        let (flash, zram, hybrid) = medians_for(SchemeKind::Android);
        assert!(
            hybrid < flash,
            "hybrid median {hybrid} must beat flash-only {flash} (warm refaults decompress)"
        );
        assert!(
            zram < hybrid,
            "zram-only median {zram} must beat hybrid {hybrid} (every fault is near-DRAM)"
        );
    }

    #[test]
    fn hybrid_actually_uses_both_tiers() {
        let rows = measure_tiers(11, &[SchemeKind::Android], 3).unwrap();
        let hybrid = rows.iter().find(|r| r.tier == "hybrid").unwrap();
        assert!(hybrid.faults_zram > 0, "no fault was ever served from zram");
        assert!(hybrid.decompress_ms > 0.0, "zram faults must attribute decompression time");
        let front = hybrid.swap.front.expect("hybrid stack exports a front tier");
        assert!(front.pages_written > 0, "nothing was ever stored in the front tier");
        assert!(hybrid.swap.back.pages_written > 0, "the flash tier fell out of use");
        // Flash-only rows carry no front tier and no decompression.
        let flash = rows.iter().find(|r| r.tier == "flash-only").unwrap();
        assert!(flash.swap.front.is_none());
        assert_eq!(flash.decompress_ms, 0.0);
        assert_eq!(flash.faults_zram, 0);
    }
}
