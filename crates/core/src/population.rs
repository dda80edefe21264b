//! Population-scale fleet simulation: sampled device cohorts, streamed
//! device-days, mergeable percentile dashboards (DESIGN.md §12).
//!
//! The paper validates the co-design on one Pixel 3; the questions that
//! matter at fleet scale — p50/p99/p999 hot-launch, LMK kill rate, zram
//! writeback volume *across device classes* — need cohorts. This module
//! provides them in three pieces:
//!
//! * **Sampling.** A seeded [`PopulationSpec`] describes the cohort as
//!   distributions: weighted [`DeviceClass`]es (DRAM 3–12 GB, swap/zram
//!   sizing) and weighted [`Persona`]s (app mix, working-set size, usage
//!   cadence). [`sample_device`] materialises device `i` as a
//!   [`DevicePlan`] using *only* `(spec, i)`: the per-device seed is
//!   derived splitmix-style from the population seed by [`device_seed`],
//!   so any device-day can be re-simulated standalone, bit-identically —
//!   the splittable-seed contract `tests/population_properties.rs` pins.
//! * **Simulation.** [`run_device_day`] plays one device's active-use day
//!   (cold-boot its working set, then a seeded launch/usage script) and
//!   folds everything observable into a flat [`DeviceDayRow`] with an
//!   FNV-1a event fingerprint.
//! * **Aggregation.** [`run_population`] streams the cohort through
//!   worker-owned shards (each worker builds, runs and drops its own
//!   [`crate::Device`]s — state is fully `Send`, nothing is shared) and
//!   merges [`PopulationAggregate`]s. Every aggregate field is an integer
//!   counter, a log2-bucketed [`LogHistogram`], an XOR fingerprint or a
//!   per-slice row keyed by device index, so absorption and merging are
//!   commutative: the result is byte-identical whatever the thread count
//!   or completion order. Exports are batched run-slices
//!   ([`SliceRow`], [`SLICE_LEN`] devices each), not per-device JSON.

use crate::config::{DeviceConfig, ZramFront};
use crate::device::Device;
use crate::error::FleetError;
use crate::experiment::scenario::AppPool;
use crate::params::SchemeKind;
use crate::process::{LaunchKind, LaunchReport};
use crate::telemetry::{CohortTelemetry, LaunchSpanSample, SloSpec, SloVerdict};
use fleet_kernel::{FaultConfig, IntegrityConfig, KillPolicy, ReclaimPolicy};
use fleet_obs::LogHistogram;
use fleet_sim::SimRng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

// ------------------------------------------------------------------ ranges

/// An inclusive `[lo, hi]` integer range sampled uniformly on a step grid.
///
/// A zero-variance range (`lo == hi`) is sampled without consuming
/// randomness, so degenerate specs reduce exactly to fixed-config runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangeU32 {
    /// Smallest sampleable value.
    pub lo: u32,
    /// Largest sampleable value (inclusive).
    pub hi: u32,
}

impl RangeU32 {
    /// A zero-variance range.
    pub const fn fixed(v: u32) -> Self {
        RangeU32 { lo: v, hi: v }
    }

    /// Uniform sample from `{lo, lo+step, …} ∩ [lo, hi]`.
    fn sample(&self, rng: &mut SimRng, step: u32) -> u32 {
        debug_assert!(self.lo <= self.hi && step > 0);
        let n = (self.hi - self.lo) / step + 1;
        if n == 1 {
            self.lo
        } else {
            self.lo + step * rng.index(n as usize) as u32
        }
    }
}

/// An inclusive `[lo, hi]` float range; `lo == hi` samples without
/// consuming randomness.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RangeF64 {
    /// Smallest sampleable value.
    pub lo: f64,
    /// Largest sampleable value.
    pub hi: f64,
}

impl RangeF64 {
    /// A zero-variance range.
    pub const fn fixed(v: f64) -> Self {
        RangeF64 { lo: v, hi: v }
    }

    fn sample(&self, rng: &mut SimRng) -> f64 {
        debug_assert!(self.lo <= self.hi);
        if self.lo == self.hi {
            self.lo
        } else {
            rng.uniform(self.lo, self.hi)
        }
    }
}

// ------------------------------------------------------- spec: distributions

/// One weighted hardware class in the population (e.g. "entry", "flagship").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceClass {
    /// Display name, exported in per-device rows.
    pub name: String,
    /// Relative sampling weight (must be positive).
    pub weight: u32,
    /// Physical DRAM in MiB, sampled on a 256 MiB grid.
    pub dram_mib: RangeU32,
    /// Swap partition size as a fraction of DRAM.
    pub swap_ratio: RangeF64,
    /// Probability that the device ships a zram front tier.
    pub zram_chance: f64,
    /// Front-tier uncompressed capacity as a fraction of the swap size
    /// (only sampled when the zram draw hits).
    pub zram_fraction: RangeF64,
    /// Front-tier compression ratio (only sampled when the draw hits).
    pub zram_ratio: RangeF64,
    /// Kernel reclaim balance (`vm.swappiness`-style).
    pub swappiness: RangeU32,
}

/// One weighted usage persona: which apps, how many at once, how the day's
/// launch/usage script is shaped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Persona {
    /// Display name, exported in per-device rows.
    pub name: String,
    /// Relative sampling weight (must be positive).
    pub weight: u32,
    /// Candidate apps (Table 3 catalog names).
    pub apps: Vec<String>,
    /// Working-set size: how many of `apps` the device keeps installed and
    /// cycles through. Sampling the full list keeps catalog order (no
    /// draws), so a degenerate persona reduces to a fixed app list.
    pub working_set: RangeU32,
    /// Foreground-switch cycles in the active-use day.
    pub cycles: RangeU32,
    /// Seconds of other-app usage between launches (the §7.2 gap).
    pub usage_gap_secs: RangeU32,
}

/// A seeded description of a heterogeneous device cohort.
///
/// Everything a cohort run produces is a pure function of this value: the
/// per-device seed stream splits from `seed` ([`device_seed`]), and every
/// sampled choice draws from that per-device stream in a fixed order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationSpec {
    /// Population master seed.
    pub seed: u64,
    /// Cohort size in device-days.
    pub devices: u32,
    /// Weighted hardware classes (at least one).
    pub classes: Vec<DeviceClass>,
    /// Weighted usage personas (at least one).
    pub personas: Vec<Persona>,
    /// Scheme mix, sampled uniformly (at least one).
    pub schemes: Vec<SchemeKind>,
    /// Reclaim policy applied to every sampled device (not sampled — a
    /// cohort-wide deployment knob, so A/B cohorts differ only here and
    /// consume identical RNG streams).
    pub reclaim_policy: ReclaimPolicy,
    /// Kill policy applied to every sampled device (not sampled, like
    /// [`Self::reclaim_policy`]).
    pub kill_policy: KillPolicy,
    /// Fault-injection rates applied to every sampled device (not sampled,
    /// like [`Self::reclaim_policy`] — a cohort-wide chaos knob). The
    /// default quiet config draws no fates, so arming a hazard leaves the
    /// sampling stream and day scripts of the quiet cohort untouched.
    pub fault: FaultConfig,
    /// Swap data-integrity layer applied to every sampled device (not
    /// sampled; default disabled, which is bit-identical to a cohort that
    /// predates the layer).
    pub integrity: IntegrityConfig,
    /// Declarative SLO monitors evaluated over the merged per-slice
    /// telemetry after the cohort run (not sampled; empty = no monitors,
    /// which is bit-identical to a cohort that predates the layer).
    pub slos: Vec<SloSpec>,
}

impl PopulationSpec {
    /// The standard heterogeneous cohort: three hardware classes spanning
    /// 3–12 GB DRAM with vendor-style zram adoption, three personas over
    /// the Table 3 catalog, all four schemes in the mix.
    pub fn default_mix(seed: u64, devices: u32) -> Self {
        let class =
            |name: &str, weight: u32, dram: (u32, u32), swap: (f64, f64), zram_chance: f64| {
                DeviceClass {
                    name: name.to_string(),
                    weight,
                    dram_mib: RangeU32 { lo: dram.0, hi: dram.1 },
                    swap_ratio: RangeF64 { lo: swap.0, hi: swap.1 },
                    zram_chance,
                    zram_fraction: RangeF64 { lo: 0.25, hi: 0.5 },
                    zram_ratio: RangeF64 { lo: 2.0, hi: 3.5 },
                    swappiness: RangeU32 { lo: 50, hi: 100 },
                }
            };
        let persona = |name: &str,
                       weight: u32,
                       apps: &[&str],
                       ws: (u32, u32),
                       cycles: (u32, u32),
                       gap: (u32, u32)| Persona {
            name: name.to_string(),
            weight,
            apps: apps.iter().map(|s| s.to_string()).collect(),
            working_set: RangeU32 { lo: ws.0, hi: ws.1 },
            cycles: RangeU32 { lo: cycles.0, hi: cycles.1 },
            usage_gap_secs: RangeU32 { lo: gap.0, hi: gap.1 },
        };
        PopulationSpec {
            seed,
            devices,
            classes: vec![
                class("entry", 3, (3072, 4608), (0.4, 0.6), 0.25),
                class("mid", 4, (4096, 8192), (0.3, 0.5), 0.5),
                class("flagship", 2, (8192, 12288), (0.2, 0.4), 0.75),
            ],
            personas: vec![
                persona(
                    "messenger",
                    4,
                    &["Twitter", "Telegram", "Line", "Instagram", "Facebook", "LinkedIn"],
                    (3, 5),
                    (4, 8),
                    (15, 45),
                ),
                persona(
                    "streamer",
                    3,
                    &["Youtube", "Tiktok", "Twitch", "Spotify", "Rave", "BigoLive"],
                    (3, 4),
                    (3, 6),
                    (20, 60),
                ),
                persona(
                    "browser_gamer",
                    2,
                    &["Chrome", "Firefox", "GoogleMaps", "AmazonShop", "AngryBirds", "CandyCrush"],
                    (3, 5),
                    (3, 6),
                    (15, 40),
                ),
            ],
            schemes: SchemeKind::ALL.to_vec(),
            reclaim_policy: ReclaimPolicy::Reactive,
            kill_policy: KillPolicy::ColdestFirst,
            fault: FaultConfig::default(),
            integrity: IntegrityConfig::default(),
            slos: Vec::new(),
        }
    }

    /// A zero-variance spec: one class pinned to the §6 Pixel 3, one
    /// persona with a fixed app list and cadence, one scheme. Sampling any
    /// device from it yields [`DeviceConfig::pixel3`] with only the seed
    /// overridden — the degenerate-reduction contract the sampler tests pin.
    pub fn degenerate(seed: u64, devices: u32, scheme: SchemeKind, apps: &[String]) -> Self {
        let pixel3 = DeviceConfig::pixel3(scheme);
        PopulationSpec {
            seed,
            devices,
            classes: vec![DeviceClass {
                name: "pixel3".to_string(),
                weight: 1,
                dram_mib: RangeU32::fixed(pixel3.dram_mib),
                swap_ratio: RangeF64::fixed(pixel3.swap_mib as f64 / pixel3.dram_mib as f64),
                zram_chance: 0.0,
                zram_fraction: RangeF64::fixed(0.25),
                zram_ratio: RangeF64::fixed(2.5),
                swappiness: RangeU32::fixed(pixel3.swappiness),
            }],
            personas: vec![Persona {
                name: "fixed".to_string(),
                weight: 1,
                apps: apps.to_vec(),
                working_set: RangeU32::fixed(apps.len() as u32),
                cycles: RangeU32::fixed(4),
                usage_gap_secs: RangeU32::fixed(30),
            }],
            schemes: vec![scheme],
            reclaim_policy: ReclaimPolicy::Reactive,
            kill_policy: KillPolicy::ColdestFirst,
            fault: FaultConfig::default(),
            integrity: IntegrityConfig::default(),
            slos: Vec::new(),
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 {
            return Err("population must contain at least one device".into());
        }
        if self.classes.is_empty() || self.personas.is_empty() || self.schemes.is_empty() {
            return Err("population needs at least one class, persona and scheme".into());
        }
        for class in &self.classes {
            if class.weight == 0 {
                return Err(format!("class {} has zero weight", class.name));
            }
            if class.dram_mib.lo > class.dram_mib.hi
                || class.swap_ratio.lo > class.swap_ratio.hi
                || class.zram_fraction.lo > class.zram_fraction.hi
                || class.zram_ratio.lo > class.zram_ratio.hi
                || class.swappiness.lo > class.swappiness.hi
            {
                return Err(format!("class {} has an inverted range", class.name));
            }
            if class.dram_mib.lo <= 2304 {
                return Err(format!(
                    "class {}: DRAM must exceed the 2304 MiB system reserve",
                    class.name
                ));
            }
            if !(0.0..=1.0).contains(&class.zram_chance) {
                return Err(format!("class {}: zram chance outside [0, 1]", class.name));
            }
            if class.swap_ratio.lo <= 0.0 || class.zram_fraction.lo <= 0.0 {
                return Err(format!(
                    "class {}: swap and zram fractions must be positive",
                    class.name
                ));
            }
            if class.zram_chance > 0.0 && class.zram_ratio.lo <= 1.0 {
                return Err(format!("class {}: zram ratio must exceed 1.0", class.name));
            }
        }
        for persona in &self.personas {
            if persona.weight == 0 {
                return Err(format!("persona {} has zero weight", persona.name));
            }
            if persona.apps.is_empty() {
                return Err(format!("persona {} lists no apps", persona.name));
            }
            for app in &persona.apps {
                if fleet_apps::profile_by_name(app).is_none() {
                    return Err(format!("persona {}: unknown app {app}", persona.name));
                }
            }
            if persona.working_set.lo > persona.working_set.hi
                || persona.cycles.lo > persona.cycles.hi
                || persona.usage_gap_secs.lo > persona.usage_gap_secs.hi
            {
                return Err(format!("persona {} has an inverted range", persona.name));
            }
            if persona.working_set.lo == 0 || persona.cycles.lo == 0 {
                return Err(format!(
                    "persona {}: working set and cycles must be at least 1",
                    persona.name
                ));
            }
            if persona.working_set.hi as usize > persona.apps.len() {
                return Err(format!("persona {}: working set exceeds its app list", persona.name));
            }
        }
        self.reclaim_policy.validate()?;
        self.fault.validate()?;
        self.integrity.validate()?;
        for slo in &self.slos {
            slo.validate()?;
        }
        Ok(())
    }
}

// ------------------------------------------------------------------ sampling

/// Splits device `index`'s seed from the population seed (splitmix64-style
/// finaliser over the pair): stable across platforms, and no two devices
/// of a cohort share an RNG stream.
pub fn device_seed(population_seed: u64, index: u32) -> u64 {
    let mut z = population_seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Salt separating the day-script RNG stream from the sampling stream.
const SCRIPT_SALT: u64 = 0xDA11_5C21_F700_0001;

/// Everything needed to run one sampled device-day in isolation.
///
/// A plan is a pure function of `(spec, index)`; re-deriving it later (or
/// on another machine) reproduces the same device-day bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DevicePlan {
    /// Device index within the cohort.
    pub index: u32,
    /// The split per-device seed ([`device_seed`]).
    pub seed: u64,
    /// Sampled hardware class name.
    pub class: String,
    /// Sampled persona name.
    pub persona: String,
    /// The fully sampled, validated device configuration.
    pub config: DeviceConfig,
    /// The working set, cold-launched at day start and cycled through.
    pub apps: Vec<String>,
    /// Foreground-switch cycles in the day script.
    pub cycles: u32,
    /// Seconds of usage between launches.
    pub usage_gap_secs: u32,
}

fn choose_weighted<'a, T>(rng: &mut SimRng, items: &'a [T], weight: impl Fn(&T) -> u32) -> &'a T {
    if items.len() == 1 {
        return &items[0];
    }
    let total: u64 = items.iter().map(|i| weight(i) as u64).sum();
    let mut draw = rng.range(0, total);
    for item in items {
        let w = weight(item) as u64;
        if draw < w {
            return item;
        }
        draw -= w;
    }
    unreachable!("weights sum to total")
}

/// Samples device `index` of the cohort into a [`DevicePlan`].
///
/// Draw order (fixed; the splittable-seed contract depends on it): class →
/// persona → scheme → DRAM → swap ratio → swappiness → zram (chance,
/// fraction, ratio) → working set → cycles → usage gap. Zero-variance
/// ranges and single-entry mixes consume no randomness.
///
/// # Errors
///
/// [`FleetError::InvalidConfig`] if the spec is invalid or the sampled
/// combination fails [`DeviceConfig`] validation.
pub fn sample_device(spec: &PopulationSpec, index: u32) -> Result<DevicePlan, FleetError> {
    spec.validate().map_err(FleetError::InvalidConfig)?;
    let seed = device_seed(spec.seed, index);
    let mut rng = SimRng::seed_from(seed);

    let class = choose_weighted(&mut rng, &spec.classes, |c| c.weight);
    let persona = choose_weighted(&mut rng, &spec.personas, |p| p.weight);
    let scheme = if spec.schemes.len() == 1 {
        spec.schemes[0]
    } else {
        spec.schemes[rng.index(spec.schemes.len())]
    };

    let dram_mib = class.dram_mib.sample(&mut rng, 256);
    let swap_mib = (dram_mib as f64 * class.swap_ratio.sample(&mut rng)).round() as u32;
    let swappiness = class.swappiness.sample(&mut rng, 1);
    let zram_front = if scheme != SchemeKind::AndroidNoSwap && rng.chance(class.zram_chance) {
        let mib = (swap_mib as f64 * class.zram_fraction.sample(&mut rng)).round().max(1.0) as u32;
        Some(ZramFront { mib, compression_ratio: class.zram_ratio.sample(&mut rng) })
    } else {
        None
    };

    // Cohort-wide deployment knobs: applied, never sampled, so turning
    // Swam on leaves every RNG draw (and thus the sampled hardware and
    // day script) identical to the Reactive cohort.
    let mut builder = DeviceConfig::builder(scheme)
        .dram_mib(dram_mib)
        .swap_mib(swap_mib)
        .swappiness(swappiness)
        .reclaim_policy(spec.reclaim_policy)
        .kill_policy(spec.kill_policy)
        .fault(spec.fault)
        .integrity(spec.integrity)
        .seed(seed);
    if let Some(front) = zram_front {
        builder = builder.zram_front(front.mib, front.compression_ratio);
    }
    let config = builder.build()?;

    let k = persona.working_set.sample(&mut rng, 1) as usize;
    let apps = if k == persona.apps.len() {
        persona.apps.clone()
    } else {
        // Partial Fisher–Yates: pick k distinct apps, order-deterministic.
        let mut pool = persona.apps.clone();
        let mut picked = Vec::with_capacity(k);
        for _ in 0..k {
            picked.push(pool.swap_remove(rng.index(pool.len())));
        }
        picked
    };
    let cycles = persona.cycles.sample(&mut rng, 1);
    let usage_gap_secs = persona.usage_gap_secs.sample(&mut rng, 1);

    Ok(DevicePlan {
        index,
        seed,
        class: class.name.clone(),
        persona: persona.name.clone(),
        config,
        apps,
        cycles,
        usage_gap_secs,
    })
}

// ---------------------------------------------------------------- device-day

/// Streaming FNV-1a over the device-day's observable event stream.
#[derive(Debug, Clone, Copy)]
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mix_report(&mut self, cycle: u32, r: &LaunchReport) {
        self.mix(cycle as u64);
        self.mix(match r.kind {
            LaunchKind::Hot => 1,
            LaunchKind::Cold => 2,
        });
        self.mix(r.at.as_nanos());
        self.mix(r.total.as_nanos());
        self.mix(r.fault_stall.as_nanos());
        self.mix(r.decompress.as_nanos());
        self.mix(r.faulted_pages);
        self.mix(r.gc_stw.as_nanos());
    }
}

/// The flat, serialisable outcome of one device-day: identity, sampled
/// hardware, counters and the event-stream fingerprint. This row — not
/// the device — is what crosses thread boundaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceDayRow {
    /// Device index within the cohort.
    pub index: u32,
    /// The split per-device seed.
    pub seed: u64,
    /// Sampled hardware class name.
    pub class: String,
    /// Sampled persona name.
    pub persona: String,
    /// Sampled scheme.
    pub scheme: SchemeKind,
    /// Sampled DRAM in MiB.
    pub dram_mib: u32,
    /// Sampled swap partition in MiB.
    pub swap_mib: u32,
    /// Sampled zram front capacity in MiB (0 = flash-only).
    pub zram_front_mib: u32,
    /// Scripted foreground switches performed.
    pub launches: u64,
    /// Launches served hot from the cache.
    pub hot_launches: u64,
    /// Launches that had to cold-relaunch after a kill.
    pub cold_relaunches: u64,
    /// Scripted launches that died mid-launch (SIGBUS under injected
    /// corruption; always zero on quiet cohorts).
    pub failed_launches: u64,
    /// Hot-launch times, microseconds, in script order.
    pub hot_launch_us: Vec<u64>,
    /// Per-hot-launch latency decomposition (same script order as
    /// [`Self::hot_launch_us`]): the §10 span taxonomy flattened to
    /// integers for the cohort attribution fold.
    pub hot_spans: Vec<LaunchSpanSample>,
    /// LMK kills over the day.
    pub lmk_kills: u64,
    /// SIGBUS kills (lost swap slots under injected faults).
    pub sigbus_kills: u64,
    /// All kill records (LMK + pressure) the device logged.
    pub kills: u64,
    /// Kernel page faults served.
    pub faults: u64,
    /// Pages written to swap.
    pub swapped_out_pages: u64,
    /// Pages the zram writeback daemon demoted to flash.
    pub zram_writeback_pages: u64,
    /// Pages the proactive reclaim daemon swapped out ahead of pressure
    /// (zero under the Reactive policy).
    pub proactive_swapout_pages: u64,
    /// Silent corruptions injected into this device's swap stores (zero
    /// unless [`PopulationSpec::fault`] arms a corruption hazard *and*
    /// [`PopulationSpec::integrity`] is enabled).
    pub corruptions_injected: u64,
    /// Corruptions the integrity layer caught (fault/writeback/scrub/unmap).
    pub corruptions_detected: u64,
    /// Swap slots permanently quarantined.
    pub slots_quarantined: u64,
    /// Tiers retired at runtime by quarantine saturation.
    pub tiers_retired: u64,
    /// Simulated seconds the day covered.
    pub sim_secs: u64,
    /// FNV-1a fingerprint of the day's event stream (launch reports and
    /// closing device statistics). The integrity counters above are *not*
    /// mixed in: quiet cohorts must keep the fingerprints they had before
    /// the layer existed.
    pub fingerprint: u64,
}

/// Simulates one device-day from its plan, standalone.
///
/// Cold-boots the working set (the §7.2 pressure build-up), then runs the
/// scripted day: each cycle brings a seeded pick of the working set to the
/// foreground and uses it for the persona's gap. Deterministic given the
/// plan alone; in-population and standalone runs are byte-identical.
///
/// # Errors
///
/// [`FleetError::InvalidConfig`] / [`FleetError::UnknownApp`] if the plan's
/// config or app list is invalid.
pub fn run_device_day(plan: &DevicePlan) -> Result<DeviceDayRow, FleetError> {
    let mut pool = AppPool::with_config(plan.config, &plan.apps)?;
    pool.set_usage_gap(plan.usage_gap_secs as u64);
    let mut script = SimRng::seed_from(plan.seed ^ SCRIPT_SALT);
    let mut fp = Fingerprint::new();
    fp.mix(plan.index as u64);
    fp.mix(plan.seed);

    let mut hot_launch_us = Vec::new();
    let mut hot_spans = Vec::new();
    let (mut hot, mut cold, mut failed) = (0u64, 0u64, 0u64);
    for cycle in 0..plan.cycles {
        let target = &plan.apps[script.index(plan.apps.len())];
        match pool.launch(target) {
            Ok(report) => {
                fp.mix_report(cycle, &report);
                match report.kind {
                    LaunchKind::Hot => {
                        hot += 1;
                        hot_launch_us.push(report.total.as_micros());
                        hot_spans.push(LaunchSpanSample::from_report(&report));
                    }
                    LaunchKind::Cold => cold += 1,
                }
            }
            Err(FleetError::ProcessNotAlive(_)) => {
                // The target died mid-launch (SIGBUS under injected
                // corruption); the day goes on. The sentinel keeps armed
                // reruns bit-identical; quiet cohorts never branch here.
                failed += 1;
                fp.mix(cycle as u64);
                fp.mix(0xDEAD_FA11);
            }
            Err(e) => return Err(e),
        }
        pool.device_mut().run(plan.usage_gap_secs as u64);
    }
    pool.device_mut().run(5); // settle: let daemons drain the last gap

    let dev: &Device = pool.device();
    let stats = dev.mm().stats();
    let row = DeviceDayRow {
        index: plan.index,
        seed: plan.seed,
        class: plan.class.clone(),
        persona: plan.persona.clone(),
        scheme: plan.config.scheme,
        dram_mib: plan.config.dram_mib,
        swap_mib: plan.config.swap_mib,
        zram_front_mib: plan.config.zram_front.map_or(0, |f| f.mib),
        launches: hot + cold,
        hot_launches: hot,
        cold_relaunches: cold,
        failed_launches: failed,
        hot_launch_us,
        hot_spans,
        lmk_kills: dev.reclaim().total_kills(),
        sigbus_kills: dev.sigbus_kills(),
        kills: dev.kills().len() as u64,
        faults: stats.faults,
        swapped_out_pages: stats.pages_swapped_out,
        zram_writeback_pages: stats.zram_writeback_pages,
        proactive_swapout_pages: stats.proactive_swapout_pages,
        corruptions_injected: stats.corruptions_injected,
        corruptions_detected: stats.corruptions_detected,
        slots_quarantined: stats.slots_quarantined,
        tiers_retired: stats.tiers_retired,
        sim_secs: dev.now().as_nanos() / 1_000_000_000,
        fingerprint: 0,
    };
    fp.mix(row.lmk_kills);
    fp.mix(row.sigbus_kills);
    fp.mix(row.kills);
    fp.mix(row.faults);
    fp.mix(row.swapped_out_pages);
    fp.mix(row.zram_writeback_pages);
    fp.mix(row.proactive_swapout_pages);
    fp.mix(row.sim_secs);
    Ok(DeviceDayRow { fingerprint: fp.0, ..row })
}

// --------------------------------------------------------------- aggregation

/// Devices per export slice: the cohort exports one [`SliceRow`] per
/// [`SLICE_LEN`] device indices instead of one JSON record per device.
pub const SLICE_LEN: u32 = 256;

/// One batched run-slice: the aggregate of device indices
/// `[slice · SLICE_LEN, (slice+1) · SLICE_LEN)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SliceRow {
    /// Slice ordinal.
    pub slice: u32,
    /// Device-days absorbed into this slice.
    pub devices: u64,
    /// Scripted launches across the slice.
    pub launches: u64,
    /// Hot launches across the slice.
    pub hot_launches: u64,
    /// Sum of hot-launch times, microseconds.
    pub hot_launch_us_sum: u64,
    /// Largest hot-launch time in the slice, microseconds.
    pub hot_launch_us_max: u64,
    /// LMK kills across the slice.
    pub lmk_kills: u64,
    /// Zram writeback pages across the slice.
    pub zram_writeback_pages: u64,
}

/// The mergeable cohort aggregate: integer counters, log2 histograms, an
/// XOR cohort fingerprint and batched slice rows. [`Self::absorb`] and
/// [`Self::merge`] are commutative, so any sharding of the cohort over any
/// number of workers folds to identical bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationAggregate {
    /// Device-days absorbed.
    pub devices: u64,
    /// Devices that sampled a zram front tier.
    pub zram_devices: u64,
    /// Scripted launches.
    pub launches: u64,
    /// Hot launches.
    pub hot_launches: u64,
    /// Cold relaunches after kills.
    pub cold_relaunches: u64,
    /// Scripted launches that died mid-launch (SIGBUS under injected
    /// corruption).
    pub failed_launches: u64,
    /// LMK kills.
    pub lmk_kills: u64,
    /// SIGBUS kills.
    pub sigbus_kills: u64,
    /// All kill records.
    pub kills: u64,
    /// Kernel page faults.
    pub faults: u64,
    /// Pages written to swap.
    pub swapped_out_pages: u64,
    /// Zram writeback pages.
    pub zram_writeback_pages: u64,
    /// Pages the proactive reclaim daemon swapped out ahead of pressure.
    pub proactive_swapout_pages: u64,
    /// Silent corruptions injected cohort-wide.
    pub corruptions_injected: u64,
    /// Corruptions the integrity layer caught cohort-wide.
    pub corruptions_detected: u64,
    /// Swap slots permanently quarantined cohort-wide.
    pub slots_quarantined: u64,
    /// Tier retirements across the cohort.
    pub tiers_retired: u64,
    /// Total simulated seconds.
    pub sim_secs: u64,
    /// Population hot-launch distribution, microseconds.
    pub hot_launch_us: LogHistogram,
    /// Per-scheme hot-launch distributions, indexed like
    /// [`SchemeKind::ALL`].
    pub scheme_hot_launch_us: Vec<LogHistogram>,
    /// Per-scheme device counts, indexed like [`SchemeKind::ALL`].
    pub scheme_devices: Vec<u64>,
    /// Per-scheme LMK kills, indexed like [`SchemeKind::ALL`].
    pub scheme_lmk_kills: Vec<u64>,
    /// XOR of per-device event fingerprints (order-free cohort hash).
    pub cohort_hash: u64,
    /// Devices per slice row.
    pub slice_len: u32,
    /// Batched run-slice rows, one per [`Self::slice_len`] device indices.
    pub slices: Vec<SliceRow>,
    /// Launch attribution, per-slice SLO inputs, moment sums and outlier
    /// pools (DESIGN.md §15). Folds commutatively like every other field.
    pub telemetry: CohortTelemetry,
    /// Verdicts for the spec's SLO monitors, filled post-merge by
    /// [`Self::evaluate_slos`] (empty on shards and on specs without
    /// monitors).
    pub slo_verdicts: Vec<SloVerdict>,
}

fn scheme_index(scheme: SchemeKind) -> usize {
    SchemeKind::ALL.iter().position(|&s| s == scheme).expect("scheme in ALL")
}

impl PopulationAggregate {
    /// An empty aggregate sized for a cohort of `cohort_devices`.
    pub fn new(cohort_devices: u32, slice_len: u32) -> Self {
        assert!(slice_len > 0, "slice length must be positive");
        let slices = cohort_devices.div_ceil(slice_len);
        PopulationAggregate {
            devices: 0,
            zram_devices: 0,
            launches: 0,
            hot_launches: 0,
            cold_relaunches: 0,
            failed_launches: 0,
            lmk_kills: 0,
            sigbus_kills: 0,
            kills: 0,
            faults: 0,
            swapped_out_pages: 0,
            zram_writeback_pages: 0,
            proactive_swapout_pages: 0,
            corruptions_injected: 0,
            corruptions_detected: 0,
            slots_quarantined: 0,
            tiers_retired: 0,
            sim_secs: 0,
            hot_launch_us: LogHistogram::new(),
            scheme_hot_launch_us: vec![LogHistogram::new(); SchemeKind::ALL.len()],
            scheme_devices: vec![0; SchemeKind::ALL.len()],
            scheme_lmk_kills: vec![0; SchemeKind::ALL.len()],
            cohort_hash: 0,
            slice_len,
            slices: (0..slices)
                .map(|slice| SliceRow {
                    slice,
                    devices: 0,
                    launches: 0,
                    hot_launches: 0,
                    hot_launch_us_sum: 0,
                    hot_launch_us_max: 0,
                    lmk_kills: 0,
                    zram_writeback_pages: 0,
                })
                .collect(),
            telemetry: CohortTelemetry::new(cohort_devices, slice_len),
            slo_verdicts: Vec::new(),
        }
    }

    /// Folds one device-day into the aggregate.
    pub fn absorb(&mut self, row: &DeviceDayRow) {
        self.devices += 1;
        self.zram_devices += u64::from(row.zram_front_mib > 0);
        self.launches += row.launches;
        self.hot_launches += row.hot_launches;
        self.cold_relaunches += row.cold_relaunches;
        self.failed_launches += row.failed_launches;
        self.lmk_kills += row.lmk_kills;
        self.sigbus_kills += row.sigbus_kills;
        self.kills += row.kills;
        self.faults += row.faults;
        self.swapped_out_pages += row.swapped_out_pages;
        self.zram_writeback_pages += row.zram_writeback_pages;
        self.proactive_swapout_pages += row.proactive_swapout_pages;
        self.corruptions_injected += row.corruptions_injected;
        self.corruptions_detected += row.corruptions_detected;
        self.slots_quarantined += row.slots_quarantined;
        self.tiers_retired += row.tiers_retired;
        self.sim_secs += row.sim_secs;
        let si = scheme_index(row.scheme);
        self.scheme_devices[si] += 1;
        self.scheme_lmk_kills[si] += row.lmk_kills;
        for &us in &row.hot_launch_us {
            self.hot_launch_us.record(us);
            self.scheme_hot_launch_us[si].record(us);
        }
        self.cohort_hash ^= row.fingerprint;
        let slice = &mut self.slices[(row.index / self.slice_len) as usize];
        slice.devices += 1;
        slice.launches += row.launches;
        slice.hot_launches += row.hot_launches;
        slice.hot_launch_us_sum += row.hot_launch_us.iter().sum::<u64>();
        slice.hot_launch_us_max =
            slice.hot_launch_us_max.max(row.hot_launch_us.iter().copied().max().unwrap_or(0));
        slice.lmk_kills += row.lmk_kills;
        slice.zram_writeback_pages += row.zram_writeback_pages;
        self.telemetry.absorb(row);
    }

    /// Folds another shard into this one. Commutative with [`Self::absorb`]:
    /// any partition of the cohort over any merge order yields identical
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if the shards were sized for different cohorts.
    pub fn merge(&mut self, other: &PopulationAggregate) {
        assert_eq!(self.slice_len, other.slice_len, "shards must share a slice length");
        assert_eq!(self.slices.len(), other.slices.len(), "shards must share a cohort size");
        self.devices += other.devices;
        self.zram_devices += other.zram_devices;
        self.launches += other.launches;
        self.hot_launches += other.hot_launches;
        self.cold_relaunches += other.cold_relaunches;
        self.failed_launches += other.failed_launches;
        self.lmk_kills += other.lmk_kills;
        self.sigbus_kills += other.sigbus_kills;
        self.kills += other.kills;
        self.faults += other.faults;
        self.swapped_out_pages += other.swapped_out_pages;
        self.zram_writeback_pages += other.zram_writeback_pages;
        self.proactive_swapout_pages += other.proactive_swapout_pages;
        self.corruptions_injected += other.corruptions_injected;
        self.corruptions_detected += other.corruptions_detected;
        self.slots_quarantined += other.slots_quarantined;
        self.tiers_retired += other.tiers_retired;
        self.sim_secs += other.sim_secs;
        self.hot_launch_us.merge(&other.hot_launch_us);
        for (a, b) in self.scheme_hot_launch_us.iter_mut().zip(&other.scheme_hot_launch_us) {
            a.merge(b);
        }
        for (a, b) in self.scheme_devices.iter_mut().zip(&other.scheme_devices) {
            *a += b;
        }
        for (a, b) in self.scheme_lmk_kills.iter_mut().zip(&other.scheme_lmk_kills) {
            *a += b;
        }
        self.cohort_hash ^= other.cohort_hash;
        for (a, b) in self.slices.iter_mut().zip(&other.slices) {
            a.devices += b.devices;
            a.launches += b.launches;
            a.hot_launches += b.hot_launches;
            a.hot_launch_us_sum += b.hot_launch_us_sum;
            a.hot_launch_us_max = a.hot_launch_us_max.max(b.hot_launch_us_max);
            a.lmk_kills += b.lmk_kills;
            a.zram_writeback_pages += b.zram_writeback_pages;
        }
        self.telemetry.merge(&other.telemetry);
    }

    /// Evaluates `slos` against the merged per-slice telemetry and stores
    /// the verdicts. Called by [`run_population`] after the shards merge;
    /// a pure function of the order-free aggregate, so parallel and
    /// sequential runs verdict identically.
    pub fn evaluate_slos(&mut self, slos: &[SloSpec]) {
        self.slo_verdicts = self.telemetry.evaluate(slos);
    }

    /// The SLO verdicts as a report (breach totals, enforce failures).
    pub fn slo_report(&self) -> crate::telemetry::SloReport {
        crate::telemetry::SloReport { verdicts: self.slo_verdicts.clone() }
    }

    /// Hot-launch quantile in milliseconds (0 when no hot launch landed).
    pub fn hot_launch_quantile_ms(&self, q: f64) -> f64 {
        self.hot_launch_us.quantile(q) as f64 / 1e3
    }

    /// LMK kills per device-day.
    pub fn lmk_kills_per_device_day(&self) -> f64 {
        if self.devices == 0 {
            0.0
        } else {
            self.lmk_kills as f64 / self.devices as f64
        }
    }

    /// Total simulated device-hours absorbed.
    pub fn device_hours(&self) -> f64 {
        self.sim_secs as f64 / 3600.0
    }
}

// -------------------------------------------------------------- cohort runner

/// The outcome of a cohort run: the deterministic aggregate plus the
/// (non-deterministic, never exported) wall-clock cost.
#[derive(Debug)]
pub struct PopulationRun {
    /// The merged, thread-count-independent aggregate.
    pub aggregate: PopulationAggregate,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Worker threads actually used.
    pub threads: usize,
}

impl PopulationRun {
    /// The headline throughput: simulated device-hours per wall-second.
    pub fn device_hours_per_wall_sec(&self) -> f64 {
        self.aggregate.device_hours() / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Streams the cohort through `threads` worker-owned shards and merges.
///
/// With `threads == 1` every device-day runs inline on the calling thread
/// (so thread-local audit/obs pipelines observe the whole cohort); with
/// more, scoped workers pull device indices from a shared counter, own
/// every device they build, and fold rows into a private shard. The merged
/// aggregate is byte-identical for every thread count by construction.
///
/// When the calling thread has an audit or obs pipeline installed, the run
/// drops to one inline worker regardless of `threads`: worker threads have
/// no access to the caller's thread-local pipelines, so a parallel run
/// would silently record nothing. (This is how `repro --trace` captures
/// population experiments without a manual `--threads 1`.)
///
/// After the shards merge, any [`PopulationSpec::slos`] are evaluated and
/// the verdicts stored on the aggregate.
///
/// # Errors
///
/// The first sampling or simulation error ([`FleetError`]).
pub fn run_population(spec: &PopulationSpec, threads: usize) -> Result<PopulationRun, FleetError> {
    spec.validate().map_err(FleetError::InvalidConfig)?;
    let start = Instant::now();
    let mut threads = threads.clamp(1, spec.devices.max(1) as usize);
    if crate::probe::installed() {
        threads = 1;
    }
    let mut aggregate = if threads == 1 {
        let mut agg = PopulationAggregate::new(spec.devices, SLICE_LEN);
        for index in 0..spec.devices {
            agg.absorb(&run_device_day(&sample_device(spec, index)?)?);
        }
        agg
    } else {
        let next = AtomicU32::new(0);
        let shards = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut shard = PopulationAggregate::new(spec.devices, SLICE_LEN);
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= spec.devices {
                                break;
                            }
                            shard.absorb(&run_device_day(&sample_device(spec, index)?)?);
                        }
                        Ok::<_, FleetError>(shard)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("population worker panicked"))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let mut agg = PopulationAggregate::new(spec.devices, SLICE_LEN);
        for shard in &shards {
            agg.merge(shard);
        }
        agg
    };
    aggregate.evaluate_slos(&spec.slos);
    Ok(PopulationRun { aggregate, wall: start.elapsed(), threads })
}

// Workers own their devices outright; everything that crosses (or could
// cross) a thread boundary in the cohort runner must be Send. These bind
// the contract at compile time — adding an Rc/RefCell anywhere in the
// per-device state breaks the build, not a 2 a.m. cohort run.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Device>();
    assert_send::<AppPool>();
    assert_send::<DevicePlan>();
    assert_send::<DeviceDayRow>();
    assert_send::<PopulationAggregate>();
    assert_send::<PopulationSpec>();
    assert_send::<FleetError>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(seed: u64, devices: u32) -> PopulationSpec {
        let mut spec = PopulationSpec::default_mix(seed, devices);
        // Shrink the day so unit tests stay fast.
        for p in &mut spec.personas {
            p.working_set = RangeU32 { lo: 2, hi: 3 };
            p.cycles = RangeU32 { lo: 1, hi: 2 };
            p.usage_gap_secs = RangeU32 { lo: 5, hi: 10 };
        }
        spec
    }

    #[test]
    fn default_mix_validates() {
        assert!(PopulationSpec::default_mix(7, 100).validate().is_ok());
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut spec = PopulationSpec::default_mix(7, 10);
        spec.devices = 0;
        assert!(spec.validate().is_err());

        let mut spec = PopulationSpec::default_mix(7, 10);
        spec.classes[0].weight = 0;
        assert!(spec.validate().is_err());

        let mut spec = PopulationSpec::default_mix(7, 10);
        spec.classes[0].dram_mib = RangeU32 { lo: 2048, hi: 4096 };
        assert!(spec.validate().is_err(), "DRAM below the system reserve must be rejected");

        let mut spec = PopulationSpec::default_mix(7, 10);
        spec.personas[0].apps[0] = "NotAnApp".into();
        assert!(spec.validate().is_err());

        let mut spec = PopulationSpec::default_mix(7, 10);
        spec.personas[0].working_set =
            RangeU32 { lo: 1, hi: spec.personas[0].apps.len() as u32 + 1 };
        assert!(spec.validate().is_err());

        let mut spec = PopulationSpec::default_mix(7, 10);
        spec.fault.corruption_rate = 1.5;
        assert!(spec.validate().is_err(), "out-of-range fault rates must be rejected");

        let mut spec = PopulationSpec::default_mix(7, 10);
        spec.integrity = IntegrityConfig { quarantine_threshold: 0, ..IntegrityConfig::checked() };
        assert!(spec.validate().is_err(), "armed integrity with a zero threshold is nonsense");
    }

    #[test]
    fn chaos_knobs_apply_cohort_wide_without_disturbing_sampling() {
        // Arming fault injection + the integrity layer is a deployment
        // knob like the reclaim policy: every sampled device gets it, and
        // the sampled hardware/persona/script stays identical to the
        // quiet cohort's (no extra RNG draws at sampling time).
        let quiet = tiny_spec(13, 4);
        let mut armed = quiet.clone();
        armed.fault = FaultConfig::silent_corruption(0.05);
        armed.integrity = IntegrityConfig::checked();
        for index in 0..quiet.devices {
            let q = sample_device(&quiet, index).unwrap();
            let a = sample_device(&armed, index).unwrap();
            assert_eq!(a.config.fault, armed.fault);
            assert_eq!(a.config.integrity, armed.integrity);
            let mut neutral = a.clone();
            neutral.config.fault = q.config.fault;
            neutral.config.integrity = q.config.integrity;
            assert_eq!(neutral, q, "chaos knobs must not perturb the sampling stream");
        }
    }

    #[test]
    fn device_seeds_are_stable_and_distinct() {
        assert_eq!(device_seed(7, 0), device_seed(7, 0));
        let mut seen = std::collections::BTreeSet::new();
        for index in 0..10_000 {
            assert!(seen.insert(device_seed(0xF1EE7, index)), "seed collision at {index}");
        }
    }

    #[test]
    fn sampling_is_deterministic_and_validated() {
        let spec = PopulationSpec::default_mix(11, 64);
        for index in [0, 7, 63] {
            let a = sample_device(&spec, index).unwrap();
            let b = sample_device(&spec, index).unwrap();
            assert_eq!(a, b, "sampling must be a pure function of (spec, index)");
            assert!(a.config.validate().is_ok());
            assert_eq!(a.seed, device_seed(spec.seed, index));
            assert_eq!(a.config.seed, a.seed);
        }
    }

    #[test]
    fn device_day_reruns_bit_identically() {
        let spec = tiny_spec(3, 4);
        let plan = sample_device(&spec, 2).unwrap();
        let a = run_device_day(&plan).unwrap();
        let b = run_device_day(&plan).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.launches, plan.cycles as u64);
        assert!(a.fingerprint != 0);
    }

    #[test]
    fn absorb_then_merge_matches_single_fold() {
        let spec = tiny_spec(5, 6);
        let rows: Vec<DeviceDayRow> = (0..spec.devices)
            .map(|i| run_device_day(&sample_device(&spec, i).unwrap()).unwrap())
            .collect();
        let mut whole = PopulationAggregate::new(spec.devices, 2);
        for row in &rows {
            whole.absorb(row);
        }
        // Scrambled partition over three shards, merged out of order.
        let mut shards = vec![PopulationAggregate::new(spec.devices, 2); 3];
        for (i, row) in rows.iter().enumerate() {
            shards[(i * 2 + 1) % 3].absorb(row);
        }
        let mut merged = PopulationAggregate::new(spec.devices, 2);
        for idx in [1, 2, 0] {
            merged.merge(&shards[idx]);
        }
        assert_eq!(merged, whole);
    }

    #[test]
    fn parallel_and_sequential_cohorts_are_bit_identical() {
        let spec = tiny_spec(9, 5);
        let seq = run_population(&spec, 1).unwrap();
        let par = run_population(&spec, 3).unwrap();
        assert_eq!(seq.aggregate, par.aggregate);
        assert_eq!(seq.aggregate.devices, 5);
    }

    #[test]
    fn slo_monitors_evaluate_identically_across_thread_counts() {
        let mut spec = tiny_spec(21, 5);
        spec.slos = vec![
            SloSpec::hot_launch_ms("impossible", 5000, 0, 1),
            SloSpec::hot_launch_ms("generous", 9900, 1 << 30, 1),
        ];
        let seq = run_population(&spec, 1).unwrap();
        let par = run_population(&spec, 3).unwrap();
        assert_eq!(seq.aggregate, par.aggregate);
        let v = &seq.aggregate.slo_verdicts;
        assert_eq!(v.len(), 2);
        assert!(!v[0].pass, "a 0 ms objective must breach");
        assert!(v[1].pass, "a ~18-minute objective must hold");
        assert!(seq.aggregate.slo_report().breaches() >= 1);
        assert!(seq.aggregate.slo_report().enforce_failures().is_empty());
        assert_eq!(
            seq.aggregate.telemetry.overall.launches(),
            seq.aggregate.hot_launches,
            "attribution folds exactly the hot launches"
        );
    }

    #[test]
    fn degenerate_spec_samples_pixel3_exactly() {
        let apps: Vec<String> = ["Twitter", "Telegram"].iter().map(|s| s.to_string()).collect();
        let spec = PopulationSpec::degenerate(42, 3, SchemeKind::Fleet, &apps);
        for index in 0..3 {
            let plan = sample_device(&spec, index).unwrap();
            let mut expect = DeviceConfig::pixel3(SchemeKind::Fleet);
            expect.seed = device_seed(42, index);
            assert_eq!(plan.config, expect, "degenerate sampling must reduce to pixel3");
            assert_eq!(plan.apps, apps, "full working set keeps catalog order");
        }
    }
}
