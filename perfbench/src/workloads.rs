//! The four workloads. Each runs one *pass*: a timed set-up phase that
//! builds the pass's inputs, then the timed measured phase. A pass is a
//! pure function of the workload seed, so every pass of a run (and the
//! traced pass of a traced run) must reproduce the same fingerprint.

use std::collections::BTreeSet;

use fleet::experiment::scenario::{fig13_apps, AppPool};
use fleet::{
    run_device_day, run_population, sample_device, Device, DeviceConfig, FleetError, FleetParams,
    LaunchKind, LaunchReport, PopulationAggregate, PopulationSpec, SchemeKind,
};
use fleet_apps::{catalog, profile_by_name, AppBehavior};
use fleet_gc::{
    BackgroundObjectGc, Collector, FullCopyingGc, GcCostModel, GcStats, GroupingGc, MarvinGc,
    MinorGc, NoTouch,
};
use fleet_heap::{AllocContext, Heap, HeapConfig};
use fleet_kernel::{
    AccessKind, Advice, KernelStats, MemoryManager, MmConfig, Pid, SwapConfig, PAGE_SIZE,
};
use fleet_sim::SimRng;

use crate::pace::Model;
use crate::trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["idle_switch", "pressure_launch", "cohort", "mechanisms"];

/// Hot switches per app and direction on `idle_switch` (fig2 uses 10).
const IDLE_HOT_ROUNDS: usize = 3;
/// Cold launch/kill cycles per app on `idle_switch`.
const IDLE_COLD_LAUNCHES: usize = 2;
/// The §7.2 usage gap between launches, seconds.
const PRESSURE_GAP_SECS: u64 = 30;
/// Rounds per pool on `pressure_launch`; each makes every app the target
/// once, so a pass times about 100 hot launches.
const PRESSURE_ROUNDS: usize = 2;
/// Device-days in one `cohort` pass.
const COHORT_DEVICES: u32 = 24;
/// Candidate cohort seeds the benchmark seed chooses among (see [`cohort`]).
const COHORT_CANDIDATES: u64 = 256;
/// Times a cheap set-up phase is repeated; the pass reports the median.
const SETUP_REPS: usize = 9;
/// Catalog apps whose heaps `mechanisms` builds and collects.
const MECH_APPS: [&str; 4] = ["Twitter", "Youtube", "Chrome", "AngryBirds"];
/// madvise-cold → launch-fault round trips per app and swap tier.
const MECH_LAUNCH_ROUNDS: usize = 5;
/// Objects the `heap.alloc` script allocates.
const MECH_ALLOC_OBJECTS: u64 = 50_000;
/// Pressured memory managers `kernel.kswapd` reclaims from per pass.
const MECH_KSWAPD_MMS: usize = 4;

const SCRIPT_SALT: u64 = 0x7065_7266_6265_6e63;

/// How a workload's host time follows the pacer's probe (see
/// [`crate::pace`]). Each is the grid point (share in steps of 0.1, power
/// in steps of 0.1) that left the smallest spread of host time ÷ modelled
/// slowdown over the passes of one long run of seed 1 while the host's
/// speed varied: 25 one-round passes on `pressure_launch` (2.5 % standard
/// deviation ÷ mean left, 11 % unscaled), 97 on `mechanisms` (6.6 %,
/// 20 %) and 28 on a 12-device `cohort` (12 %, 13 %). `idle_switch` keeps
/// the block fit's share.
pub fn pace_model(workload: &str) -> Model {
    match workload {
        "mechanisms" => Model { map_share: 0.6, exponent: 1.4 },
        "pressure_launch" => Model { map_share: 0.6, exponent: 1.2 },
        "cohort" => Model { map_share: 1.0, exponent: 0.6 },
        _ => Model { map_share: 0.62, exponent: 1.0 },
    }
}

/// Inputs a pass runs with.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Worker threads handed to `run_population` (cohort only).
    pub threads: usize,
    /// Cohort only: also replay the cohort sequentially, one timed call
    /// per device-day, and check it folds to the parallel aggregate.
    pub replay: bool,
}

/// Simulated counters read from public stats at the end of a pass.
/// `None` where the workload's public surface does not expose the count.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounts {
    pub faults: u64,
    pub faults_launch: Option<u64>,
    pub faults_gc: Option<u64>,
    pub pages_swapped_out: u64,
    pub faults_zram: Option<u64>,
    pub zram_writeback_pages: u64,
    pub gc_collections: Option<u64>,
    pub gc_objects_traced: Option<u64>,
    pub lmk_kills: u64,
}

impl SimCounts {
    fn add_kernel(&mut self, s: &KernelStats) {
        self.faults += s.faults;
        *self.faults_launch.get_or_insert(0) += s.faults_launch;
        *self.faults_gc.get_or_insert(0) += s.faults_gc;
        self.pages_swapped_out += s.pages_swapped_out;
        *self.faults_zram.get_or_insert(0) += s.faults_zram;
        self.zram_writeback_pages += s.zram_writeback_pages;
    }

    fn add_gc(&mut self, s: &GcStats) {
        *self.gc_collections.get_or_insert(0) += 1;
        *self.gc_objects_traced.get_or_insert(0) += s.objects_traced;
    }
}

/// The outcome of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Simulated device-hours the measured phase covered.
    pub sim_hours: f64,
    /// Launches completed in the measured phase.
    pub launches: u64,
    /// Host time of each timed launch call, ms.
    pub launch_host_ms: Vec<f64>,
    /// Operations attempted and failed (launches, device-days or layer
    /// calls, depending on the workload).
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the pass's simulated results.
    pub fingerprint: u64,
    pub counts: SimCounts,
    /// Correctness violations beyond the fingerprint.
    pub problems: Vec<String>,
    /// Cohort only: wall of the parallel `run_population` call, ns.
    pub parallel_ns: f64,
}

impl Pass {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// Streaming FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mix_report(&mut self, r: &LaunchReport) {
        self.mix(match r.kind {
            LaunchKind::Hot => 1,
            LaunchKind::Cold => 2,
        });
        for v in [r.at.as_nanos(), r.total.as_nanos(), r.fault_stall.as_nanos()] {
            self.mix(v);
        }
        for v in [r.decompress.as_nanos(), r.faulted_pages, r.gc_stw.as_nanos()] {
            self.mix(v);
        }
    }

    fn mix_kernel(&mut self, s: &KernelStats) {
        for v in [
            s.faults,
            s.faults_mutator,
            s.faults_gc,
            s.faults_launch,
            s.pages_swapped_out,
            s.pages_dropped_file,
            s.faults_file,
            s.fault_stall_nanos,
            s.kswapd_cpu_nanos,
            s.faults_zram,
            s.pages_swapped_zram,
            s.zram_writeback_pages,
            s.decompress_stall_nanos,
            s.proactive_swapout_pages,
        ] {
            self.mix(v);
        }
    }

    fn mix_gc(&mut self, s: &GcStats) {
        self.mix(s.kind as u64);
        for v in [s.objects_traced, s.bytes_copied, s.objects_freed, s.bytes_freed] {
            self.mix(v);
        }
        for v in [s.regions_freed, s.cards_scanned, s.stw.as_nanos(), s.cpu.as_nanos()] {
            self.mix(v);
        }
    }
}

/// Runs one pass of `workload`.
///
/// # Panics
///
/// Panics on an unknown workload name (the caller validates it).
pub fn run_pass(workload: &str, ctx: Ctx, tr: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut fp = Fnv::new();
    fp.mix(ctx.seed);
    let root = tr.begin("bench.pass");
    let outcome = match workload {
        "idle_switch" => idle_switch(ctx, tr, &mut pass, &mut fp),
        "pressure_launch" => pressure_launch(ctx, tr, &mut pass, &mut fp),
        "cohort" => cohort(ctx, tr, &mut pass, &mut fp),
        "mechanisms" => {
            mechanisms(ctx, tr, &mut pass, &mut fp);
            Ok(())
        }
        other => panic!("unknown workload {other}"),
    };
    tr.end(root, 0);
    if let Err(e) = outcome {
        pass.fail(format!("simulator error: {e}"));
    }
    pass.fingerprint = fp.0;
    pass
}

/// Runs a cheap set-up `reps` times; returns the median time and the last
/// result (every repetition builds the same inputs).
fn repeated_setup<T>(
    reps: usize,
    tr: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> T,
) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = tr.now_s();
        last = Some(setup(tr));
        times.push(tr.now_s() - start);
    }
    (crate::median(times), last.expect("at least one repetition"))
}

/// `Device::run(n)` is `n` one-second slices; the benchmark runs them one
/// call at a time so the traced run can time each slice.
fn run_slices(device: &mut Device, secs: u64, tr: &mut Tracer) {
    for _ in 0..secs {
        let t = tr.begin("core.run");
        device.run(1);
        tr.end(t, 1);
    }
}

fn record_launch(pass: &mut Pass, fp: &mut Fnv, report: &LaunchReport) {
    pass.attempted += 1;
    pass.launches += 1;
    fp.mix_report(report);
}

fn launch_cold(
    device: &mut Device,
    profile: &fleet_apps::AppProfile,
    tr: &mut Tracer,
) -> (Pid, LaunchReport) {
    let t = tr.begin("core.launch_cold");
    let out = device.launch_cold(profile);
    tr.end(t, 1);
    out
}

/// A timed hot launch of a cached app.
fn hot_switch(device: &mut Device, pid: Pid, tr: &mut Tracer, pass: &mut Pass, fp: &mut Fnv) {
    let t = tr.begin("core.switch_to");
    let result = device.try_switch_to(pid);
    let ns = tr.end(t, result.as_ref().map_or(0, |r| r.faulted_pages));
    match result {
        Ok(report) => {
            record_launch(pass, fp, &report);
            pass.launch_host_ms.push(ns / 1e6);
            if report.kind != LaunchKind::Hot {
                pass.fail(format!("switch to cached {pid:?} was not hot"));
            }
        }
        Err(e) => {
            pass.attempted += 1;
            pass.fail(format!("hot launch failed: {e}"));
            fp.mix(0xDEAD_FA11);
        }
    }
}

/// Folds a finished device's closing statistics into the pass.
fn close_device(device: &Device, pass: &mut Pass, fp: &mut Fnv) {
    let stats = device.mm().stats();
    pass.counts.add_kernel(&stats);
    fp.mix_kernel(&stats);
    for proc in device.processes() {
        for gc in &proc.gcs {
            pass.counts.add_gc(&gc.stats);
            fp.mix(gc.at.as_nanos());
            fp.mix_gc(&gc.stats);
        }
    }
    let kills = device.reclaim().total_kills();
    pass.counts.lmk_kills += kills;
    fp.mix(kills);
    fp.mix(device.now().as_nanos());
    pass.sim_hours += device.now().as_secs_f64() / 3600.0;
}

// ------------------------------------------------------------ idle_switch

/// The fig2 protocol on idle Pixel 3s: per catalog app, cold launches with
/// kills in between, then hot switches against a helper app.
fn idle_switch(ctx: Ctx, tr: &mut Tracer, pass: &mut Pass, fp: &mut Fnv) -> Result<(), FleetError> {
    let apps = catalog();
    let (setup_s, devices) = repeated_setup(SETUP_REPS, tr, |tr| {
        apps.iter()
            .map(|profile| {
                let mut config = DeviceConfig::pixel3(SchemeKind::Android);
                config.seed = ctx.seed ^ profile.name.len() as u64;
                let t = tr.begin("core.pool_setup");
                let device = Device::try_new(config);
                tr.end(t, 1);
                device
            })
            .collect::<Result<Vec<_>, _>>()
    });
    pass.setup_s = setup_s;
    let devices = devices?;

    let start = tr.now_s();
    for (profile, mut device) in apps.iter().zip(devices) {
        let mut target = None;
        for _ in 0..IDLE_COLD_LAUNCHES {
            if let Some(pid) = target.take() {
                let t = tr.begin("core.kill");
                device.kill(pid);
                tr.end(t, 1);
            }
            let (pid, report) = launch_cold(&mut device, profile, tr);
            record_launch(pass, fp, &report);
            target = Some(pid);
        }
        let target = target.expect("at least one cold launch");
        let helper = apps.iter().find(|a| a.name != profile.name).expect("catalog has 2 apps");
        let (helper, report) = launch_cold(&mut device, helper, tr);
        record_launch(pass, fp, &report);
        run_slices(&mut device, 2, tr);
        for _ in 0..IDLE_HOT_ROUNDS {
            for pid in [target, helper] {
                hot_switch(&mut device, pid, tr, pass, fp);
                run_slices(&mut device, 2, tr);
            }
        }
        close_device(&device, pass, fp);
        if device.mm().stats().pages_swapped_out != 0 {
            pass.fail(format!("{}: idle device swapped", profile.name));
        }
    }
    pass.wall_s = tr.now_s() - start;
    Ok(())
}

// -------------------------------------------------------- pressure_launch

/// Brings `name` to the foreground the way `AppPool::launch` does, with the
/// cold (re)launch and the hot switch timed apart.
fn pool_launch(
    pool: &mut AppPool,
    name: &str,
    tr: &mut Tracer,
    pass: &mut Pass,
    fp: &mut Fnv,
) -> Result<(), FleetError> {
    let cached = pool.device().processes().any(|p| p.name == name);
    if cached {
        let (pid, _) = pool.ensure(name)?;
        hot_switch(pool.device_mut(), pid, tr, pass, fp);
    } else {
        let t = tr.begin("core.launch_cold");
        let ensured = pool.ensure(name);
        tr.end(t, 1);
        let (pid, _) = ensured?;
        let report = *pool.device().try_process(pid)?.launches.last().expect("cold launch");
        record_launch(pass, fp, &report);
    }
    Ok(())
}

/// The §7.2 protocol cut to [`PRESSURE_ROUNDS`] cycles per app: per
/// scheme, a pool of the fig13 apps under pressure; each cycle launches
/// another app, runs the usage gap, then hot-launches the target. Each
/// round makes every app the target once, in an order drawn from the seed.
fn pressure_launch(
    ctx: Ctx,
    tr: &mut Tracer,
    pass: &mut Pass,
    fp: &mut Fnv,
) -> Result<(), FleetError> {
    let apps = fig13_apps();
    let start = tr.now_s();
    let mut pools = Vec::new();
    for scheme in [SchemeKind::Android, SchemeKind::Marvin, SchemeKind::Fleet] {
        let t = tr.begin("core.pool_setup");
        let pool = AppPool::under_pressure(scheme, &apps, ctx.seed);
        tr.end(t, apps.len() as u64);
        pools.push(pool?);
    }
    pass.setup_s = tr.now_s() - start;

    let start = tr.now_s();
    let mut script = SimRng::seed_from(ctx.seed ^ SCRIPT_SALT);
    let mut targets = Vec::new();
    for _ in 0..PRESSURE_ROUNDS {
        let mut round = apps.clone();
        for i in (1..round.len()).rev() {
            round.swap(i, script.index(i + 1));
        }
        targets.extend(round);
    }
    for mut pool in pools {
        for target in &targets {
            let other = pool.next_other_app(target);
            pool_launch(&mut pool, &other, tr, pass, fp)?;
            run_slices(pool.device_mut(), PRESSURE_GAP_SECS, tr);
            pool_launch(&mut pool, target, tr, pass, fp)?;
        }
        close_device(pool.device(), pass, fp);
    }
    if pass.counts.pages_swapped_out == 0 {
        pass.fail("no page was swapped out under pressure".into());
    }
    pass.wall_s = tr.now_s() - start;
    Ok(())
}

// ------------------------------------------------------------------ cohort

fn mix_aggregate(fp: &mut Fnv, agg: &PopulationAggregate) {
    for v in [agg.devices, agg.zram_devices, agg.launches, agg.hot_launches, agg.cold_relaunches] {
        fp.mix(v);
    }
    for v in [agg.failed_launches, agg.lmk_kills, agg.kills, agg.faults, agg.swapped_out_pages] {
        fp.mix(v);
    }
    for v in [agg.zram_writeback_pages, agg.sim_secs, agg.cohort_hash] {
        fp.mix(v);
    }
}

/// The planned size of a sampled cohort, on the axes its host time, its
/// throughput ratios and its peak memory depend on: predicted host cost,
/// simulated seconds, scripted launches, total DRAM, and the two largest
/// DRAMs together (two device-days run at once, so the process's peak
/// memory follows the two largest).
///
/// The cost prediction is a least-squares fit of device-day host time on
/// the plan (working-set apps, cycles, simulated gap time, DRAM, scheme),
/// in ms on a 2-vCPU Xeon VM; only its ranking of candidates matters.
fn cohort_size(spec: &PopulationSpec, tr: &mut Tracer) -> Result<[f64; 5], FleetError> {
    let mut size = [0.0; 5];
    let mut largest = [0.0f64; 2];
    for index in 0..spec.devices {
        let t = tr.begin("population.sample_device");
        let plan = sample_device(spec, index);
        tr.end(t, 1);
        let plan = plan?;
        let (apps, cycles) = (plan.apps.len() as f64, f64::from(plan.cycles));
        let (gap, dram_gib) =
            (f64::from(plan.usage_gap_secs), f64::from(plan.config.dram_mib) / 1024.0);
        size[0] += 78.0 * apps
            + 11.0 * cycles
            + 29.0 * cycles * gap / 30.0
            + 8.0 * dram_gib
            + match plan.config.scheme {
                SchemeKind::Android => -225.0,
                SchemeKind::AndroidNoSwap => -180.0,
                SchemeKind::Marvin => -304.0,
                SchemeKind::Fleet => -153.0,
            };
        size[1] += 5.0 * apps + cycles * gap + 5.0;
        size[2] += cycles;
        size[3] += dram_gib;
        if dram_gib > largest[1] {
            largest = [f64::max(largest[0], dram_gib), f64::min(largest[0], dram_gib)];
        }
    }
    size[4] = largest[0] + largest[1];
    Ok(size)
}

/// Chooses the cohort seed: of [`COHORT_CANDIDATES`] seeds derived from
/// the benchmark seed, the one whose [`cohort_size`] is nearest the
/// candidates' mean (in standard deviations). Different benchmark seeds
/// thus give different cohorts of about the same size, so run-to-run
/// spread measures the simulator rather than the luck of the draw.
fn cohort_spec(seed: u64, tr: &mut Tracer) -> Result<PopulationSpec, FleetError> {
    let mut sizes = Vec::new();
    for j in 0..COHORT_CANDIDATES {
        let candidate = fleet::population::device_seed(seed, j as u32);
        let spec = PopulationSpec::default_mix(candidate, COHORT_DEVICES);
        sizes.push((candidate, cohort_size(&spec, tr)?));
    }
    let n = sizes.len() as f64;
    let mean: [f64; 5] = std::array::from_fn(|k| sizes.iter().map(|s| s.1[k]).sum::<f64>() / n);
    let var: [f64; 5] =
        std::array::from_fn(|k| sizes.iter().map(|s| (s.1[k] - mean[k]).powi(2)).sum::<f64>() / n);
    let distance =
        |s: &[f64; 5]| -> f64 { (0..5).map(|k| (s[k] - mean[k]).powi(2) / var[k].max(1e-9)).sum() };
    let (chosen, _) = sizes
        .iter()
        .min_by(|a, b| distance(&a.1).total_cmp(&distance(&b.1)))
        .expect("at least one candidate");
    Ok(PopulationSpec::default_mix(*chosen, COHORT_DEVICES))
}

/// A `PopulationSpec::default_mix` cohort through `run_population`.
fn cohort(ctx: Ctx, tr: &mut Tracer, pass: &mut Pass, fp: &mut Fnv) -> Result<(), FleetError> {
    let (setup_s, spec) = repeated_setup(1, tr, |tr| cohort_spec(ctx.seed, tr));
    pass.setup_s = setup_s;
    let spec = spec?;
    fp.mix(spec.seed);

    let start = tr.now_s();
    pass.attempted = u64::from(spec.devices);
    let t = tr.begin("population.run_population");
    let run = run_population(&spec, ctx.threads);
    pass.parallel_ns = tr.end(t, u64::from(spec.devices));
    let run = run.inspect_err(|_| pass.failed = pass.attempted)?;
    let agg = &run.aggregate;
    mix_aggregate(fp, agg);
    pass.launches = agg.launches;
    pass.sim_hours = agg.device_hours();
    // Host time per scripted launch, amortised over the cohort's threads.
    pass.launch_host_ms
        .push(pass.parallel_ns / 1e6 * ctx.threads as f64 / agg.launches.max(1) as f64);
    pass.counts.faults = agg.faults;
    pass.counts.pages_swapped_out = agg.swapped_out_pages;
    pass.counts.zram_writeback_pages = agg.zram_writeback_pages;
    pass.counts.lmk_kills = agg.lmk_kills;
    if agg.devices != u64::from(spec.devices) || agg.failed_launches != 0 {
        pass.fail(format!(
            "cohort absorbed {} device-days, {} failed launches",
            agg.devices, agg.failed_launches
        ));
    }

    if ctx.replay {
        // The same cohort one call at a time, folded into one shard per
        // worker and merged: must equal the parallel aggregate byte for byte.
        let threads = ctx.threads.max(1);
        let mut shards =
            vec![PopulationAggregate::new(spec.devices, fleet::population::SLICE_LEN); threads];
        for index in 0..spec.devices {
            let t = tr.begin("population.sample_device");
            let plan = sample_device(&spec, index);
            tr.end(t, 1);
            let t = tr.begin("population.run_device_day");
            let row = run_device_day(&plan?);
            tr.end(t, 1);
            let row = row?;
            let t = tr.begin("population.absorb");
            shards[index as usize % threads].absorb(&row);
            tr.end(t, 1);
        }
        let t = tr.begin("population.merge");
        let mut replay = PopulationAggregate::new(spec.devices, fleet::population::SLICE_LEN);
        for shard in &shards {
            replay.merge(shard);
        }
        replay.evaluate_slos(&spec.slos);
        tr.end(t, threads as u64);
        let same = serde_json::to_string(&replay).ok() == serde_json::to_string(agg).ok();
        if !same {
            pass.fail("sequential replay differs from the parallel cohort aggregate".into());
        }
    }
    pass.wall_s = tr.now_s() - start;
    Ok(())
}

// -------------------------------------------------------------- mechanisms

/// One catalog app's backgrounded heap, mapped into both memory managers.
struct MechApp {
    pid: Pid,
    heap: Heap,
    behavior: AppBehavior,
    map_len: u64,
}

fn mech_mm(swap: SwapConfig) -> MemoryManager {
    MemoryManager::new(MmConfig {
        dram_bytes: 256 * 1024 * 1024,
        swap,
        low_watermark_frames: 64,
        high_watermark_frames: 128,
        ..MmConfig::default()
    })
}

/// A memory manager filled to just under its low watermark, so one
/// `kswapd` call has a fixed amount of reclaim to do.
fn pressured_mm() -> MemoryManager {
    let mut mm = MemoryManager::new(MmConfig {
        dram_bytes: 8 * 1024 * 1024,
        swap: SwapConfig { capacity_bytes: 32 * 1024 * 1024, ..SwapConfig::default() },
        low_watermark_frames: 512,
        high_watermark_frames: 1024,
        ..MmConfig::default()
    });
    mm.map_range(Pid(1), 0, 8 * 1024 * 1024 - 64 * PAGE_SIZE).expect("fits");
    mm
}

/// Consecutive page indices folded into `(first, count)` runs.
fn page_runs(pages: &BTreeSet<u64>) -> Vec<(u64, u64)> {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &p in pages {
        match runs.last_mut() {
            Some((first, n)) if *first + *n == p => *n += 1,
            _ => runs.push((p, 1)),
        }
    }
    runs
}

/// Counts one layer call, failing it when `ok` is false.
fn layer_call(pass: &mut Pass, ok: bool, what: &str) {
    pass.attempted += 1;
    if !ok {
        pass.fail(format!("{what} failed"));
    }
}

/// The mechanism crates called directly: heap graphs, every collector over
/// clones of backgrounded heaps, and `MemoryManager` page scripts.
fn mechanisms(ctx: Ctx, tr: &mut Tracer, pass: &mut Pass, fp: &mut Fnv) {
    let start = tr.now_s();
    let marvin_threshold = DeviceConfig::pixel3(SchemeKind::Marvin).marvin_threshold;
    let mut apps = Vec::new();
    for (i, name) in MECH_APPS.iter().enumerate() {
        let profile = profile_by_name(name).expect("catalog app");
        let target = profile.java_heap_bytes_scaled(16);
        let mut heap = Heap::new(HeapConfig::default());
        let mut behavior = AppBehavior::new(profile, SimRng::seed_from(ctx.seed ^ (i as u64 + 1)));
        let t = tr.begin("apps.build_initial_graph");
        behavior.build_initial_graph(&mut heap, target);
        tr.end(t, heap.live_objects());
        heap.retire_alloc_targets();
        heap.clear_newly_allocated_flags();
        heap.update_limit_after_gc();
        fp.mix(heap.live_objects());
        fp.mix(heap.live_bytes());
        let last_page = heap.object_ids().map(|o| *heap.pages_of(o).end()).max().unwrap_or(0);
        apps.push(MechApp {
            pid: Pid(i as u32 + 1),
            heap,
            behavior,
            map_len: (last_page + 1) * PAGE_SIZE,
        });
    }
    let mut flash =
        mech_mm(SwapConfig { capacity_bytes: 256 * 1024 * 1024, ..SwapConfig::default() });
    let mut zram =
        mech_mm(SwapConfig::try_zram(128 * 1024 * 1024, 2.5).expect("valid zram config"));
    const RESIDENT: Pid = Pid(100);
    const RESIDENT_PAGES: u64 = 1024;
    for mm in [&mut flash, &mut zram] {
        for app in &apps {
            mm.map_range(app.pid, 0, app.map_len).expect("heap fits in DRAM");
        }
    }
    flash.map_range(RESIDENT, 0, RESIDENT_PAGES * PAGE_SIZE).expect("fits");
    let mut pressured: Vec<MemoryManager> = (0..MECH_KSWAPD_MMS).map(|_| pressured_mm()).collect();
    pass.setup_s = tr.now_s() - start;

    let start = tr.now_s();
    let mut sim_nanos = 0u64;

    // Allocation: a fresh heap, sizes drawn from the seed.
    let mut rng = SimRng::seed_from(ctx.seed ^ SCRIPT_SALT);
    let sizes: Vec<u32> = (0..MECH_ALLOC_OBJECTS).map(|_| 16 + rng.range(0, 240) as u32).collect();
    let mut heap = Heap::new(HeapConfig::default());
    let t = tr.begin("heap.alloc");
    for &size in &sizes {
        heap.alloc(size);
    }
    tr.end(t, MECH_ALLOC_OBJECTS);
    let used = heap.stats().used_bytes;
    layer_call(pass, used >= sizes.iter().map(|&s| u64::from(s)).sum::<u64>(), "heap.alloc");
    fp.mix(used);
    drop(heap);

    // Backgrounding: quiet-period mutator steps.
    for app in &mut apps {
        app.behavior.enter_background(&app.heap);
        app.heap.set_context(AllocContext::Background);
        for _ in 0..6 {
            let t = tr.begin("apps.background_step");
            let step = app.behavior.background_step(&mut app.heap, 5.0);
            tr.end(t, 1);
            layer_call(pass, true, "apps.background_step");
            fp.mix(step.allocated_bytes);
            fp.mix(step.accessed.len() as u64);
        }
    }

    // Every collector over a clone of each backgrounded heap.
    let cost = GcCostModel::default();
    let depth = FleetParams::default().depth;
    for app in &apps {
        for kind in ["gc.full", "gc.minor", "gc.bgc", "gc.marvin", "gc.grouping"] {
            let t = tr.begin("heap.clone");
            let mut heap = app.heap.clone();
            tr.end(t, heap.live_objects());
            let t = tr.begin(kind);
            let stats = match kind {
                "gc.full" => FullCopyingGc::new(cost).collect(&mut heap, &mut NoTouch),
                "gc.minor" => MinorGc::new(cost).collect(&mut heap, &mut NoTouch),
                "gc.bgc" => BackgroundObjectGc::new(cost).collect(&mut heap, &mut NoTouch),
                "gc.marvin" => {
                    MarvinGc::new(cost, marvin_threshold).collect(&mut heap, &mut NoTouch)
                }
                _ => {
                    let ws = app.behavior.working_set().clone();
                    GroupingGc::new(cost, depth, ws).collect_grouping(&mut heap, &mut NoTouch).0
                }
            };
            tr.end(t, stats.objects_traced);
            layer_call(pass, true, kind);
            pass.counts.add_gc(&stats);
            fp.mix_gc(&stats);
            sim_nanos += stats.duration().as_nanos();
            let t = tr.begin("heap.drop");
            drop(heap);
            tr.end(t, 0);
        }
    }

    // Launch round trips: swap the heap out, then fault in the pages the
    // app's next hot launch touches. One launch = launch_access + fault-in.
    for (tier, mm) in [("flash", &mut flash), ("zram", &mut zram)] {
        let (swap_out, fault_in) = match tier {
            "flash" => ("kernel.swap_out_flash", "kernel.fault_in_flash"),
            _ => ("kernel.swap_out_zram", "kernel.fault_in_zram"),
        };
        for app in &mut apps {
            for _ in 0..MECH_LAUNCH_ROUNDS {
                let t = tr.begin(swap_out);
                let out = mm.madvise(app.pid, 0, app.map_len, Advice::ColdRuntime);
                tr.end(t, out);
                layer_call(pass, out > 0, swap_out);
                fp.mix(out);

                let t = tr.begin("apps.launch_access");
                let access = app.behavior.launch_access(&app.heap);
                let access_ns = tr.end(t, access.objects.len() as u64);
                layer_call(pass, !access.objects.is_empty(), "apps.launch_access");
                let pages: BTreeSet<u64> =
                    access.objects.iter().flat_map(|&o| app.heap.pages_of(o)).collect();

                let t = tr.begin(fault_in);
                let mut faulted = 0;
                let mut ok = true;
                for (first, n) in page_runs(&pages) {
                    let o =
                        mm.access(app.pid, first * PAGE_SIZE, n * PAGE_SIZE, AccessKind::Launch);
                    faulted += o.faulted_pages;
                    ok &= !o.oom && !o.killed;
                    sim_nanos += o.latency.as_nanos();
                    fp.mix(o.latency.as_nanos());
                }
                let fault_ns = tr.end(t, faulted);
                layer_call(pass, ok && faulted > 0, fault_in);
                fp.mix(faulted);
                pass.launches += 1;
                pass.launch_host_ms.push((access_ns + fault_ns) / 1e6);
            }
        }
    }

    // Resident access: sweeps over a mapped, never-evicted range.
    for sweep in 0..8u64 {
        for chunk in 0..RESIDENT_PAGES / 64 {
            let base = ((chunk + sweep) % (RESIDENT_PAGES / 64)) * 64 * PAGE_SIZE;
            let t = tr.begin("kernel.access_resident");
            let o = flash.access(RESIDENT, base, 64 * PAGE_SIZE, AccessKind::Mutator);
            tr.end(t, o.touched_pages);
            layer_call(
                pass,
                o.faulted_pages == 0 && o.touched_pages == 64,
                "kernel.access_resident",
            );
            sim_nanos += o.latency.as_nanos();
        }
    }

    // Background reclaim on pressured memory managers.
    for mm in &mut pressured {
        let t = tr.begin("kernel.kswapd");
        let reclaimed = mm.kswapd();
        tr.end(t, reclaimed);
        layer_call(pass, reclaimed > 0, "kernel.kswapd");
        fp.mix(reclaimed);
    }

    for mm in [&flash, &zram].into_iter().chain(pressured.iter()) {
        let stats = mm.stats();
        pass.counts.add_kernel(&stats);
        fp.mix_kernel(&stats);
        sim_nanos += stats.kswapd_cpu_nanos;
    }
    pass.sim_hours = sim_nanos as f64 / 3.6e12;
    pass.wall_s = tr.now_s() - start;
}
