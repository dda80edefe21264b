//! Device configuration: the simulated Pixel 3 and the simulation scale.

use crate::params::{FleetParams, SchemeKind};
use fleet_kernel::{
    FaultConfig, IntegrityConfig, KillPolicy, MmConfig, ReclaimPolicy, SwapConfig, SwapMedium,
    PAGE_SIZE,
};
use fleet_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// A zram front tier placed ahead of the flash swap partition.
///
/// Vendors ship exactly this hybrid (Ariadne and most Android devices run
/// zram writeback): warm swap victims land in compressed DRAM where a
/// refault costs microseconds, while a background writeback daemon demotes
/// aging slots to flash. The front tier's *capacity* is what it can hold
/// uncompressed; the DRAM it pins is that divided by the compression ratio,
/// charged against the device's app DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZramFront {
    /// Uncompressed capacity of the zram tier in MiB (real scale).
    pub mib: u32,
    /// Compression ratio (stored bytes shrink by this factor; must be a
    /// finite value above 1.0).
    pub compression_ratio: f64,
}

/// The simulated device and run parameters.
///
/// The experiment platform of §6: a Pixel 3 with 4 GB LPDDR4X and a 2 GB
/// flash swap partition. The simulation runs at a configurable **scale**
/// (default 1/16): all capacities and footprints are divided by `scale`
/// while per-byte latencies are multiplied by it, so stall *times* stay at
/// real magnitude while the object count stays laptop-sized. DESIGN.md §5
/// discusses the fidelity consequences.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Memory-management scheme under test.
    pub scheme: SchemeKind,
    /// Scale divisor (see above).
    pub scale: u32,
    /// Physical DRAM in MiB (Pixel 3: 4096).
    pub dram_mib: u32,
    /// DRAM reserved for the system (kernel, system_server, SurfaceFlinger,
    /// zygote…), unavailable to cached apps. ~2.25 GiB held or churned by
    /// the system on a loaded Android 10 device.
    pub system_reserve_mib: u32,
    /// Swap partition size in MiB (§6: 2048).
    pub swap_mib: u32,
    /// Fleet parameters (Table 2).
    pub fleet: FleetParams,
    /// Marvin's large-object threshold in bytes (§6: 1024).
    pub marvin_threshold: u32,
    /// Heap-growth factor while an app is in the foreground.
    pub heap_growth_foreground: f64,
    /// Heap-growth factor while an app is in the background (§7.4 sweeps
    /// 1.1 vs 2.0).
    pub heap_growth_background: f64,
    /// Interval of the background maintenance GC cycle (Android's
    /// memory-trim GC; Fleet substitutes BGC, Marvin its bookmarking GC).
    pub bg_gc_interval: SimDuration,
    /// Ablation switch for Figure 12a: run Fleet *without* BGC (background
    /// collections fall back to the full tracing GC).
    pub fleet_disable_bgc: bool,
    /// Ablation: run Fleet without the periodic `madvise(HOT_RUNTIME)`
    /// refresh, leaving launch pages to ordinary LRU aging.
    pub fleet_disable_hot_refresh: bool,
    /// Ablation: run Fleet without the proactive `madvise(COLD_RUNTIME)`
    /// swap-out (cold pages leave only under reclaim pressure).
    pub fleet_disable_cold_madvise: bool,
    /// Extension: ASAP-style adaptive prepaging (Son et al., ATC '21) —
    /// prefetch the pages faulted by the previous hot-launch, overlapped
    /// with the launch render work. The paper's related-work point: this
    /// speeds launches but does nothing about the GC-swap conflict.
    pub prefetch_on_launch: bool,
    /// What backs the swap space: the paper's flash partition, or a
    /// vendor-style compressed-RAM (zram) device.
    pub swap_medium: SwapMedium,
    /// Optional zram front tier ahead of the flash partition. `None` (the
    /// default) reproduces the paper's flash-only device bit-for-bit;
    /// `Some` enables hotness-aware tiered placement with writeback.
    /// Requires `swap_medium` to be flash — a zram front of a zram back
    /// would model nothing.
    pub zram_front: Option<ZramFront>,
    /// Kernel reclaim balance (`vm.swappiness`-style, 0–200; default 50).
    pub swappiness: u32,
    /// Fault-injection rates for the swap device (DESIGN.md §9). The
    /// default is quiet — nothing is injected and the kernel behaves
    /// bit-identically to a build without the fault module.
    pub fault: FaultConfig,
    /// How reclaim daemons run (DESIGN.md §13). The default `Reactive`
    /// reproduces the pressure-driven kswapd/lmkd stack bit-for-bit;
    /// `Swam` adds working-set tracking and a proactive swap-out daemon
    /// that drains idle background apps ahead of pressure.
    pub reclaim_policy: ReclaimPolicy,
    /// How the low-memory killer picks victims. The default
    /// `ColdestFirst` is the legacy staleness order; `WssWeighted`
    /// scores candidates by reclaimable (resident minus working-set)
    /// pages.
    pub kill_policy: KillPolicy,
    /// Swap data-integrity layer (DESIGN.md §14). The default is disabled —
    /// no checksums are kept, no corruption is drawn, and the kernel
    /// behaves bit-identically to a build without the layer. Enabling it
    /// arms per-slot checksums with the quarantine/retirement ladder.
    pub integrity: IntegrityConfig,
    /// Master seed for the run.
    pub seed: u64,
}

impl DeviceConfig {
    /// The §6 Pixel 3 platform running `scheme`, at 1/16 scale.
    ///
    /// Experiment variants are struct updates of it; [`Self::validate`] (and
    /// [`Device::try_new`](crate::Device::try_new)) rejects an impossible
    /// combination, so a sweep cannot silently run one.
    ///
    /// ```
    /// use fleet::{DeviceConfig, SchemeKind};
    ///
    /// let cfg = DeviceConfig {
    ///     dram_mib: 6144, // a 6 GB variant
    ///     swap_mib: 4096,
    ///     ..DeviceConfig::pixel3(SchemeKind::Fleet)
    /// };
    /// assert!(cfg.validate().is_ok());
    /// assert!(DeviceConfig { scale: 0, ..cfg }.validate().is_err());
    /// ```
    pub fn pixel3(scheme: SchemeKind) -> Self {
        DeviceConfig {
            scheme,
            scale: 16,
            dram_mib: 4096,
            system_reserve_mib: 2304,
            swap_mib: 2048,
            fleet: FleetParams::default(),
            marvin_threshold: 1024,
            heap_growth_foreground: 2.0,
            heap_growth_background: 1.1,
            bg_gc_interval: SimDuration::from_secs(90),
            fleet_disable_bgc: false,
            fleet_disable_hot_refresh: false,
            fleet_disable_cold_madvise: false,
            prefetch_on_launch: false,
            swap_medium: SwapMedium::Flash,
            zram_front: None,
            swappiness: 50,
            fault: FaultConfig::default(),
            reclaim_policy: ReclaimPolicy::Reactive,
            kill_policy: KillPolicy::ColdestFirst,
            integrity: IntegrityConfig::default(),
            seed: 0xF1EE7,
        }
    }

    /// DRAM available to apps after the system reserve, scaled, in bytes.
    pub fn app_dram_bytes(&self) -> u64 {
        (self.dram_mib.saturating_sub(self.system_reserve_mib)) as u64 * 1024 * 1024
            / self.scale as u64
    }

    /// Swap capacity, scaled, in bytes. Zero for the no-swap scheme.
    pub fn swap_bytes(&self) -> u64 {
        if self.scheme == SchemeKind::AndroidNoSwap {
            0
        } else {
            self.swap_mib as u64 * 1024 * 1024 / self.scale as u64
        }
    }

    /// The kernel memory-manager configuration implied by this device, or
    /// the first constraint the device violates.
    ///
    /// A flash partition runs at [`SwapConfig::default`]'s §3.2 speeds.
    /// Bandwidths are divided by `scale` so that a *scaled* page population
    /// produces *real-scale* stall times. Every zram tier, back or front, is
    /// built by [`SwapConfig::try_zram`], which owns the zram rules.
    pub(crate) fn mm_config(&self) -> Result<MmConfig, String> {
        if self.scale == 0 {
            return Err("scale must be at least 1".into());
        }
        if self.system_reserve_mib >= self.dram_mib {
            return Err("system reserve exceeds DRAM".into());
        }
        if self.heap_growth_foreground < 1.0 || self.heap_growth_background < 1.0 {
            return Err("heap growth factors must be >= 1.0".into());
        }
        if self.marvin_threshold == 0 {
            return Err("marvin threshold must be positive".into());
        }
        if self.zram_front.is_some() {
            if !matches!(self.swap_medium, SwapMedium::Flash) {
                return Err("a zram front tier requires a flash-backed swap partition".into());
            }
            if self.swap_bytes() == 0 {
                return Err("a zram front tier requires a swap partition behind it".into());
            }
        }
        self.fault.validate()?;
        self.reclaim_policy.validate()?;
        self.integrity.validate()?;

        let scale = self.scale as u64;
        let scaled = |tier: SwapConfig| SwapConfig {
            read_bw: tier.read_bw / scale as f64,
            write_bw: tier.write_bw / scale as f64,
            op_latency: tier.op_latency * scale,
            ..tier
        };
        let swap = match self.swap_medium {
            SwapMedium::Flash => {
                SwapConfig { capacity_bytes: self.swap_bytes(), ..SwapConfig::default() }
            }
            SwapMedium::Zram { compression_ratio } => {
                SwapConfig::try_zram(self.swap_bytes(), compression_ratio)
                    .map_err(|e| format!("zram swap medium: {e}"))?
            }
        };
        let zram = match self.zram_front {
            Some(front) => {
                let capacity = front.mib as u64 * 1024 * 1024 / scale;
                let tier = SwapConfig::try_zram(capacity, front.compression_ratio)
                    .map_err(|e| format!("zram front tier: {e}"))?;
                Some(scaled(tier))
            }
            None => None,
        };
        let frames = self.app_dram_bytes() / PAGE_SIZE;
        Ok(MmConfig {
            dram_bytes: self.app_dram_bytes(),
            swap: scaled(swap),
            zram,
            file_read_bw: 300.0e6 / scale as f64,
            swappiness: self.swappiness,
            low_watermark_frames: frames / 24,
            high_watermark_frames: frames / 12,
            dram_page_cost: SimDuration::from_nanos(450 * scale),
            integrity: self.integrity,
        })
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.mm_config().map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::error::FleetError;

    fn fleet() -> DeviceConfig {
        DeviceConfig::pixel3(SchemeKind::Fleet)
    }

    fn zram_front(mib: u32, compression_ratio: f64) -> Option<ZramFront> {
        Some(ZramFront { mib, compression_ratio })
    }

    #[test]
    fn pixel3_defaults() {
        let cfg = fleet();
        assert!(cfg.validate().is_ok());
        // (4096 − 2304) MiB / 16 = 112 MiB for apps.
        assert_eq!(cfg.app_dram_bytes(), 112 * 1024 * 1024);
        // 2048 MiB / 16 = 128 MiB swap.
        assert_eq!(cfg.swap_bytes(), 128 * 1024 * 1024);
    }

    #[test]
    fn no_swap_scheme_disables_swap() {
        let cfg = DeviceConfig::pixel3(SchemeKind::AndroidNoSwap);
        assert_eq!(cfg.swap_bytes(), 0);
        assert_eq!(cfg.mm_config().unwrap().swap.capacity_bytes, 0);
    }

    #[test]
    fn scaled_bandwidth_preserves_stall_times() {
        let mm = DeviceConfig::pixel3(SchemeKind::Android).mm_config().unwrap();
        // A scaled page set 1/16 the size read at 1/16 bandwidth costs the
        // same wall-clock time as the full set at full bandwidth.
        let real_time = (16.0 * 100.0 * PAGE_SIZE as f64) / 20.3e6;
        let scaled_time = (100.0 * PAGE_SIZE as f64) / mm.swap.read_bw;
        assert!((real_time - scaled_time).abs() < 1e-9);
    }

    #[test]
    fn struct_updates_override_and_validate() {
        let cfg = DeviceConfig {
            dram_mib: 8192,
            swap_medium: SwapMedium::Zram { compression_ratio: 2.5 },
            seed: 42,
            ..fleet()
        };
        let mm = cfg.mm_config().unwrap();
        // (8192 − 2304) MiB / 16 of app DRAM, swapping to zram at LZ4 speed.
        assert_eq!(mm.dram_bytes, 368 * 1024 * 1024);
        assert_eq!(mm.swap.medium, SwapMedium::Zram { compression_ratio: 2.5 });
        assert_eq!(mm.swap.read_bw, 1.2e9 / 16.0);
        assert!(DeviceConfig { scale: 0, ..fleet() }.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let zram = SwapMedium::Zram { compression_ratio: 2.5 };
        for cfg in [
            DeviceConfig { scale: 0, ..fleet() },
            DeviceConfig { system_reserve_mib: 5000, ..fleet() },
            DeviceConfig { heap_growth_background: 0.9, ..fleet() },
            // A zram swap medium with no swap bytes behind it.
            DeviceConfig { swap_medium: zram, ..DeviceConfig::pixel3(SchemeKind::AndroidNoSwap) },
            DeviceConfig { swap_medium: zram, swap_mib: 0, ..fleet() },
        ] {
            assert!(matches!(Device::try_new(cfg), Err(FleetError::InvalidConfig(_))), "{cfg:?}");
            assert!(cfg.validate().is_err(), "{cfg:?}");
        }
    }

    #[test]
    fn zram_front_maps_to_a_hybrid_mm_config() {
        let mm = DeviceConfig { zram_front: zram_front(512, 2.5), ..fleet() }.mm_config().unwrap();
        let front = mm.zram.expect("hybrid config must carry a front tier");
        // 512 MiB / 16 scale = 32 MiB of uncompressed front capacity.
        assert_eq!(front.capacity_bytes, 32 * 1024 * 1024);
        assert_eq!(front.medium, SwapMedium::Zram { compression_ratio: 2.5 });
        // The flash partition behind it is untouched.
        assert_eq!(mm.swap.capacity_bytes, 128 * 1024 * 1024);
        assert_eq!(mm.swap.medium, SwapMedium::Flash);
        // And the default device carries no front at all.
        assert!(fleet().mm_config().unwrap().zram.is_none());
    }

    #[test]
    fn zram_front_validation_rejects_nonsense() {
        for cfg in [
            DeviceConfig { zram_front: zram_front(0, 2.5), ..fleet() },
            DeviceConfig { zram_front: zram_front(512, 1.0), ..fleet() },
            // Front of a zram back tier models nothing.
            DeviceConfig {
                swap_medium: SwapMedium::Zram { compression_ratio: 2.5 },
                zram_front: zram_front(512, 2.5),
                ..fleet()
            },
            // No-swap scheme leaves the front tier nothing to write back to.
            DeviceConfig {
                zram_front: zram_front(512, 2.5),
                ..DeviceConfig::pixel3(SchemeKind::AndroidNoSwap)
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?}");
        }
    }

    #[test]
    fn reclaim_policy_defaults_reactive_and_validates() {
        let cfg = fleet();
        assert_eq!(cfg.reclaim_policy, ReclaimPolicy::Reactive);
        assert_eq!(cfg.kill_policy, KillPolicy::ColdestFirst);

        let cfg = DeviceConfig {
            reclaim_policy: ReclaimPolicy::swam(),
            kill_policy: KillPolicy::WssWeighted,
            ..fleet()
        };
        assert!(cfg.validate().is_ok());

        let params = fleet_kernel::SwamParams { batch_pages: 0, ..Default::default() };
        let cfg = DeviceConfig { reclaim_policy: ReclaimPolicy::Swam(params), ..fleet() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn fault_rates_are_validated_and_default_quiet() {
        assert!(fleet().fault.is_quiet());
        let mut cfg = fleet();
        cfg.fault.read_transient_rate = 2.0;
        assert!(cfg.validate().is_err());
        let cfg = DeviceConfig {
            fault: FaultConfig::flaky_flash(0.1),
            ..DeviceConfig::pixel3(SchemeKind::Android)
        };
        assert!(cfg.validate().is_ok());
    }
}
