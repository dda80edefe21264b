//! Device configuration: the simulated Pixel 3 and the simulation scale.

use crate::error::FleetError;
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
    /// Swap read bandwidth at real scale, bytes/s (§3.2: 20.3 MB/s).
    pub swap_read_bw: f64,
    /// Swap write bandwidth at real scale, bytes/s.
    pub swap_write_bw: f64,
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
    /// Starts a [`DeviceConfigBuilder`] from the §6 Pixel 3 defaults.
    ///
    /// The builder is the preferred way to derive experiment variants:
    /// it keeps the Pixel 3 baseline in one place and validates the result
    /// in [`DeviceConfigBuilder::build`], so a sweep cannot silently run
    /// with an impossible configuration.
    ///
    /// ```
    /// use fleet::{DeviceConfig, SchemeKind};
    ///
    /// let cfg = DeviceConfig::builder(SchemeKind::Fleet)
    ///     .dram_mib(6144)
    ///     .swap_read_bw(40.0e6)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.dram_mib, 6144);
    /// ```
    pub fn builder(scheme: SchemeKind) -> DeviceConfigBuilder {
        DeviceConfigBuilder { config: DeviceConfig::pixel3(scheme) }
    }

    /// The §6 Pixel 3 platform running `scheme`, at 1/16 scale.
    pub fn pixel3(scheme: SchemeKind) -> Self {
        DeviceConfig {
            scheme,
            scale: 16,
            dram_mib: 4096,
            system_reserve_mib: 2304,
            swap_mib: 2048,
            swap_read_bw: 20.3e6,
            swap_write_bw: 15.0e6,
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

    /// The kernel memory-manager configuration implied by this device.
    ///
    /// Bandwidths are divided by `scale` so that a *scaled* page population
    /// produces *real-scale* stall times. Call it only on a validated config.
    pub(crate) fn mm_config(&self) -> MmConfig {
        let frames = self.app_dram_bytes() / PAGE_SIZE;
        let swap = match self.swap_medium {
            SwapMedium::Flash => SwapConfig {
                capacity_bytes: self.swap_bytes(),
                read_bw: self.swap_read_bw / self.scale as f64,
                write_bw: self.swap_write_bw / self.scale as f64,
                op_latency: SimDuration::from_micros(80 * self.scale as u64),
                medium: SwapMedium::Flash,
            },
            SwapMedium::Zram { compression_ratio } => {
                let base = SwapConfig::try_zram(self.swap_bytes(), compression_ratio)
                    .expect("zram swap medium validated by DeviceConfig::validate");
                SwapConfig {
                    read_bw: base.read_bw / self.scale as f64,
                    write_bw: base.write_bw / self.scale as f64,
                    op_latency: base.op_latency * self.scale as u64,
                    ..base
                }
            }
        };
        let zram = self.zram_front.map(|front| {
            let base = SwapConfig::try_zram(
                front.mib as u64 * 1024 * 1024 / self.scale as u64,
                front.compression_ratio,
            )
            .expect("zram front validated by DeviceConfig::validate");
            SwapConfig {
                read_bw: base.read_bw / self.scale as f64,
                write_bw: base.write_bw / self.scale as f64,
                op_latency: base.op_latency * self.scale as u64,
                ..base
            }
        });
        MmConfig {
            dram_bytes: self.app_dram_bytes(),
            swap,
            zram,
            file_read_bw: 300.0e6 / self.scale as f64,
            swappiness: self.swappiness,
            low_watermark_frames: frames / 24,
            high_watermark_frames: frames / 12,
            dram_page_cost: SimDuration::from_nanos(450 * self.scale as u64),
            integrity: self.integrity,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
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
        if let SwapMedium::Zram { compression_ratio } = self.swap_medium {
            if !compression_ratio.is_finite() || compression_ratio <= 1.0 {
                return Err("zram compression ratio must be a finite value above 1.0".into());
            }
        }
        if let Some(front) = self.zram_front {
            if front.mib == 0 {
                return Err("zram front tier must have a positive capacity".into());
            }
            if !front.compression_ratio.is_finite() || front.compression_ratio <= 1.0 {
                return Err("zram front compression ratio must be a finite value above 1.0".into());
            }
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
        Ok(())
    }
}

/// Builder for [`DeviceConfig`], seeded from the Pixel 3 defaults.
///
/// Created by [`DeviceConfig::builder`]. Every setter overrides one field of
/// the §6 platform; [`DeviceConfigBuilder::build`] validates the combination
/// and returns [`FleetError::InvalidConfig`] on contradiction, which is the
/// difference from mutating a `DeviceConfig` struct literal by hand.
#[derive(Debug, Clone)]
pub struct DeviceConfigBuilder {
    config: DeviceConfig,
}

impl DeviceConfigBuilder {
    /// Memory-management scheme under test.
    pub fn scheme(mut self, scheme: SchemeKind) -> Self {
        self.config.scheme = scheme;
        self
    }

    /// Scale divisor (capacities shrink, per-byte latencies grow).
    pub fn scale(mut self, scale: u32) -> Self {
        self.config.scale = scale;
        self
    }

    /// Physical DRAM in MiB.
    pub fn dram_mib(mut self, mib: u32) -> Self {
        self.config.dram_mib = mib;
        self
    }

    /// Swap partition size in MiB.
    pub fn swap_mib(mut self, mib: u32) -> Self {
        self.config.swap_mib = mib;
        self
    }

    /// Swap read bandwidth at real scale, bytes/s.
    pub fn swap_read_bw(mut self, bw: f64) -> Self {
        self.config.swap_read_bw = bw;
        self
    }

    /// Swap write bandwidth at real scale, bytes/s.
    pub fn swap_write_bw(mut self, bw: f64) -> Self {
        self.config.swap_write_bw = bw;
        self
    }

    /// Backs the swap space with a zram device at the given compression
    /// ratio instead of the paper's flash partition.
    pub fn zram(mut self, compression_ratio: f64) -> Self {
        self.config.swap_medium = SwapMedium::Zram { compression_ratio };
        self
    }

    /// Any [`SwapMedium`], for cases the [`Self::zram`] shorthand can't say.
    pub fn swap_medium(mut self, medium: SwapMedium) -> Self {
        self.config.swap_medium = medium;
        self
    }

    /// Places a zram front tier of `mib` MiB (uncompressed capacity, real
    /// scale) at the given compression ratio ahead of the flash partition,
    /// enabling hotness-aware tiered placement with writeback.
    pub fn zram_front(mut self, mib: u32, compression_ratio: f64) -> Self {
        self.config.zram_front = Some(ZramFront { mib, compression_ratio });
        self
    }

    /// Heap-growth factor while an app is in the background (§7.4).
    pub fn heap_growth_background(mut self, factor: f64) -> Self {
        self.config.heap_growth_background = factor;
        self
    }

    /// Kernel reclaim balance (`vm.swappiness`-style, 0–200).
    pub fn swappiness(mut self, swappiness: u32) -> Self {
        self.config.swappiness = swappiness;
        self
    }

    /// Master seed for the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Fault-injection rates for the swap device (default: quiet).
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.config.fault = fault;
        self
    }

    /// How reclaim daemons run (default: `Reactive`, the legacy
    /// pressure-driven stack). `ReclaimPolicy::swam()` enables SWAM-style
    /// proactive reclaim with working-set tracking.
    pub fn reclaim_policy(mut self, policy: ReclaimPolicy) -> Self {
        self.config.reclaim_policy = policy;
        self
    }

    /// How the low-memory killer picks victims (default: `ColdestFirst`).
    pub fn kill_policy(mut self, policy: KillPolicy) -> Self {
        self.config.kill_policy = policy;
        self
    }

    /// Swap data-integrity layer (default: disabled).
    /// `IntegrityConfig::checked()` arms per-slot checksums with the
    /// quarantine/retirement ladder and background scrubber.
    pub fn integrity(mut self, integrity: IntegrityConfig) -> Self {
        self.config.integrity = integrity;
        self
    }

    /// Validates the assembled configuration.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidConfig`] naming the first violated constraint.
    pub fn build(self) -> Result<DeviceConfig, FleetError> {
        self.config.validate().map_err(FleetError::InvalidConfig)?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel3_defaults() {
        let cfg = DeviceConfig::pixel3(SchemeKind::Fleet);
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
        assert_eq!(cfg.mm_config().swap.capacity_bytes, 0);
    }

    #[test]
    fn scaled_bandwidth_preserves_stall_times() {
        let cfg = DeviceConfig::pixel3(SchemeKind::Android);
        let mm = cfg.mm_config();
        // A scaled page set 1/16 the size read at 1/16 bandwidth costs the
        // same wall-clock time as the full set at full bandwidth.
        let real_time = (16.0 * 100.0 * PAGE_SIZE as f64) / 20.3e6;
        let scaled_time = (100.0 * PAGE_SIZE as f64) / mm.swap.read_bw;
        assert!((real_time - scaled_time).abs() < 1e-9);
    }

    #[test]
    fn builder_matches_pixel3_when_untouched() {
        let built = DeviceConfig::builder(SchemeKind::Marvin).build().unwrap();
        assert_eq!(built, DeviceConfig::pixel3(SchemeKind::Marvin));
    }

    #[test]
    fn builder_overrides_and_validates() {
        let cfg = DeviceConfig::builder(SchemeKind::Fleet)
            .dram_mib(8192)
            .swap_read_bw(40.0e6)
            .swap_write_bw(30.0e6)
            .zram(2.5)
            .seed(42)
            .build()
            .unwrap();
        assert_eq!(cfg.dram_mib, 8192);
        assert_eq!(cfg.swap_read_bw, 40.0e6);
        assert_eq!(cfg.swap_medium, SwapMedium::Zram { compression_ratio: 2.5 });
        assert_eq!(cfg.seed, 42);

        let err = DeviceConfig::builder(SchemeKind::Fleet).scale(0).build();
        assert!(matches!(err, Err(FleetError::InvalidConfig(_))));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = DeviceConfig::pixel3(SchemeKind::Fleet);
        cfg.scale = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = DeviceConfig::pixel3(SchemeKind::Fleet);
        cfg.system_reserve_mib = 5000;
        assert!(cfg.validate().is_err());
        let mut cfg = DeviceConfig::pixel3(SchemeKind::Fleet);
        cfg.heap_growth_background = 0.9;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zram_front_maps_to_a_hybrid_mm_config() {
        let cfg = DeviceConfig::builder(SchemeKind::Fleet).zram_front(512, 2.5).build().unwrap();
        let mm = cfg.mm_config();
        let front = mm.zram.expect("hybrid config must carry a front tier");
        // 512 MiB / 16 scale = 32 MiB of uncompressed front capacity.
        assert_eq!(front.capacity_bytes, 32 * 1024 * 1024);
        assert_eq!(front.medium, SwapMedium::Zram { compression_ratio: 2.5 });
        // The flash partition behind it is untouched.
        assert_eq!(mm.swap.capacity_bytes, 128 * 1024 * 1024);
        assert_eq!(mm.swap.medium, SwapMedium::Flash);
        // And the default device carries no front at all.
        assert!(DeviceConfig::pixel3(SchemeKind::Fleet).mm_config().zram.is_none());
    }

    #[test]
    fn zram_front_validation_rejects_nonsense() {
        let err = DeviceConfig::builder(SchemeKind::Fleet).zram_front(0, 2.5).build();
        assert!(matches!(err, Err(FleetError::InvalidConfig(_))));
        let err = DeviceConfig::builder(SchemeKind::Fleet).zram_front(512, 1.0).build();
        assert!(matches!(err, Err(FleetError::InvalidConfig(_))));
        // Front of a zram back tier models nothing.
        let err = DeviceConfig::builder(SchemeKind::Fleet).zram(2.5).zram_front(512, 2.5).build();
        assert!(matches!(err, Err(FleetError::InvalidConfig(_))));
        // No-swap scheme leaves the front tier nothing to write back to.
        let err = DeviceConfig::builder(SchemeKind::AndroidNoSwap).zram_front(512, 2.5).build();
        assert!(matches!(err, Err(FleetError::InvalidConfig(_))));
    }

    #[test]
    fn reclaim_policy_defaults_reactive_and_validates() {
        let cfg = DeviceConfig::pixel3(SchemeKind::Fleet);
        assert_eq!(cfg.reclaim_policy, ReclaimPolicy::Reactive);
        assert_eq!(cfg.kill_policy, KillPolicy::ColdestFirst);

        let cfg = DeviceConfig::builder(SchemeKind::Fleet)
            .reclaim_policy(ReclaimPolicy::swam())
            .kill_policy(KillPolicy::WssWeighted)
            .build()
            .unwrap();
        assert!(cfg.reclaim_policy.is_swam());
        assert_eq!(cfg.kill_policy, KillPolicy::WssWeighted);

        let params = fleet_kernel::SwamParams { batch_pages: 0, ..Default::default() };
        let err = DeviceConfig::builder(SchemeKind::Fleet)
            .reclaim_policy(ReclaimPolicy::Swam(params))
            .build();
        assert!(matches!(err, Err(FleetError::InvalidConfig(_))));
    }

    #[test]
    fn fault_rates_are_validated_and_default_quiet() {
        assert!(DeviceConfig::pixel3(SchemeKind::Fleet).fault.is_quiet());
        let mut cfg = DeviceConfig::pixel3(SchemeKind::Fleet);
        cfg.fault.read_transient_rate = 2.0;
        assert!(cfg.validate().is_err());
        let cfg = DeviceConfig::builder(SchemeKind::Android)
            .fault(FaultConfig::flaky_flash(0.1))
            .build()
            .unwrap();
        assert!(!cfg.fault.is_quiet());
    }
}
