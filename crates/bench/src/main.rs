//! `fleet-bench` — the dependency-free performance runner behind
//! `BENCH_kernel.json`.
//!
//! Usage:
//!
//! ```text
//! fleet-bench [--quick] [--check] [--out PATH]
//! ```
//!
//! Times four layers of the simulator with plain `std::time::Instant` (no
//! Criterion, no external crates) and writes a schema-stable JSON report:
//!
//! * **microbench** — the rewritten index-based structures against their
//!   pre-rewrite map-based baselines, driven through identical op scripts:
//!   the intrusive-list `LruQueue` (by handle, as the kernel uses it) vs
//!   the `BTreeMap`-stamp reference, and the segment/chunk `PageTable` vs
//!   a `HashMap<PageKey, _>` model of the old layout. Both ops/sec numbers
//!   and the speedup are recorded; the rewrite's acceptance bar is ≥2×.
//! * **kernel** — end-to-end page ops through `MemoryManager`: resident
//!   access (table lookup + LRU touch), the cold→fault swap round-trip on
//!   the flash backend, and the same script split into store/load halves
//!   against a zram device (compression cost model, DRAM-charged slots).
//! * **gc** — a full tracing collection over a deterministic object graph.
//! * **figures** — wall-clock for the fig2 / fig5 / fig11 experiment
//!   drivers, end to end through the registry harness.
//! * **obs_overhead** — the fig2 driver inline with and without an
//!   installed observability pipeline; the zero-cost-when-idle contract's
//!   acceptance bar is <10% overhead with tracing live.
//! * **wss_overhead** — the fig2 driver under the legacy `Reactive`
//!   reclaim policy vs a `Swam` variant whose proactive daemon never
//!   fires, isolating the cost of always-on working-set-size tracking on
//!   the hot-launch path (the observe-only contract of DESIGN.md §13).
//! * **integrity_overhead** — the fig2 driver with the swap data-integrity
//!   layer off vs armed (`checked()`) over a quiet fault plan, isolating
//!   the per-slot checksum bookkeeping cost on the hot-launch path
//!   (DESIGN.md §14).
//! * **population** — the headline cohort-throughput row: a sampled
//!   heterogeneous cohort streamed through the parallel device-day runner
//!   (`fleet::population`), reported as simulated device-hours per
//!   wall-second.
//! * **telemetry_overhead** — the same cohort with no SLO monitors vs the
//!   demo monitors armed, isolating the online telemetry/SLO evaluation
//!   cost on the cohort path (DESIGN.md §15); the always-cheap contract's
//!   acceptance bar is <10%.
//!
//! `--quick` shrinks workloads for CI smoke runs; `--check` validates an
//! existing report against the schema (exit 1 on mismatch) instead of
//! benchmarking. Checking is strict: the file must parse back into the
//! report type, carry this binary's schema version, *and* have exactly the
//! expected key tree — the vendored deserialiser ignores unknown fields,
//! so drift is caught by comparing key skeletons, not just by parsing.
//! The default output path is the repo root's `BENCH_kernel.json`
//! regardless of the working directory.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::time::Instant;

use fleet::experiment::harness;
use fleet::population::{run_population, PopulationSpec};
use fleet_gc::{Collector, FullCopyingGc, GcCostModel, NoTouch};
use fleet_heap::{Heap, HeapConfig};
use fleet_kernel::lru::reference::MapLruQueue;
use fleet_kernel::{
    AccessKind, Advice, LruQueue, MemoryManager, MmConfig, PageKey, PageTable, Pid, SwapConfig,
    PAGE_SIZE,
};
use serde::{Deserialize, Serialize};

// ------------------------------------------------------------ JSON schema

/// The report schema this binary writes and `--check` enforces.
const SCHEMA_VERSION: u32 = 7;

/// The full report; field order is the (stable) key order in the file.
#[derive(Serialize, Deserialize)]
struct Report {
    schema_version: u32,
    /// True when produced by a `--quick` (CI smoke) run.
    quick: bool,
    microbench: Microbench,
    kernel: KernelBench,
    gc: GcBench,
    figures: Figures,
    obs_overhead: ObsOverhead,
    wss_overhead: WssOverhead,
    integrity_overhead: IntegrityOverhead,
    population: PopulationBench,
    telemetry_overhead: TelemetryOverhead,
}

#[derive(Serialize, Deserialize)]
struct Microbench {
    lru: Comparison,
    page_table: Comparison,
}

/// New structure vs map baseline over the identical op script.
#[derive(Serialize, Deserialize)]
struct Comparison {
    /// Operations per script pass (same for both sides).
    ops_per_pass: u64,
    new_ops_per_sec: f64,
    baseline_ops_per_sec: f64,
    /// `new_ops_per_sec / baseline_ops_per_sec`.
    speedup: f64,
}

#[derive(Serialize, Deserialize)]
struct KernelBench {
    access_resident_ops_per_sec: f64,
    swap_roundtrip_pages_per_sec: f64,
    /// Swap-out throughput against a zram device (compress + store).
    zram_write_pages_per_sec: f64,
    /// Fault-in throughput against a zram device (load + decompress).
    zram_read_pages_per_sec: f64,
}

#[derive(Serialize, Deserialize)]
struct GcBench {
    trace_objects: u64,
    full_gc_ms: f64,
}

#[derive(Serialize, Deserialize)]
struct Figures {
    fig2_ms: f64,
    fig5_ms: f64,
    fig11_ms: f64,
}

/// Cost of live tracing on the fig2 hot-launch path. Both sides compile
/// the obs layer in; `enabled` installs a fresh pipeline per round.
#[derive(Serialize, Deserialize)]
struct ObsOverhead {
    fig2_disabled_ms: f64,
    fig2_enabled_ms: f64,
    /// `(enabled - disabled) / disabled`, percent. May go slightly
    /// negative from timer noise on a quiet path.
    overhead_pct: f64,
}

/// Cost of working-set-size tracking on the fig2 hot-launch path: the
/// same driver under `Reactive` (tracking off) and under a `Swam` whose
/// daemon never fires (tracking on, no reclaim behaviour change).
#[derive(Serialize, Deserialize)]
struct WssOverhead {
    fig2_reactive_ms: f64,
    fig2_wss_ms: f64,
    /// `(wss - reactive) / reactive`, percent. May go slightly negative
    /// from timer noise — the access hook is one branch and one counter.
    overhead_pct: f64,
}

/// Cost of the swap data-integrity layer on the fig2 hot-launch path: the
/// same driver with the layer off and with `checked()` armed over a quiet
/// fault plan — per-slot checksums, scrub bookkeeping, no injected faults.
#[derive(Serialize, Deserialize)]
struct IntegrityOverhead {
    fig2_off_ms: f64,
    fig2_on_ms: f64,
    /// `(on - off) / off`, percent. May go slightly negative from timer
    /// noise — the store hook is one hash and one map insert.
    overhead_pct: f64,
}

/// Cohort-simulation throughput: a `PopulationSpec::default_mix` cohort
/// through `fleet::population::run_population` on all cores.
#[derive(Serialize, Deserialize)]
struct PopulationBench {
    /// Device-days streamed.
    devices: u64,
    /// Worker threads the cohort runner used.
    threads: u64,
    /// Simulated device-hours the cohort covered.
    sim_device_hours: f64,
    /// Wall-clock seconds the run took.
    wall_secs: f64,
    /// The headline: simulated device-hours per wall-second.
    device_hours_per_wall_sec: f64,
}

/// Cost of the online telemetry/SLO layer on the cohort path: the same
/// sampled cohort with `spec.slos` empty vs the demo monitors armed. The
/// attribution fold itself always runs; this isolates the burn-rate window
/// evaluation and verdict assembly.
#[derive(Serialize, Deserialize)]
struct TelemetryOverhead {
    cohort_plain_ms: f64,
    cohort_slo_ms: f64,
    /// `(slo - plain) / plain`, percent. May go slightly negative from
    /// timer noise — the evaluation is a post-merge pass over slice rows.
    overhead_pct: f64,
}

// ------------------------------------------------------------- timing core

/// Repeats `pass` until `min_secs` of measured time accumulates (at least
/// twice, after one untimed warmup), returning ops/sec. `pass` returns the
/// op count it performed.
fn ops_per_sec(min_secs: f64, mut pass: impl FnMut() -> u64) -> f64 {
    pass(); // warmup: touch allocations, fault in code paths
    let mut ops = 0u64;
    let mut secs = 0.0;
    let mut rounds = 0u32;
    while secs < min_secs || rounds < 2 {
        let start = Instant::now();
        ops += pass();
        secs += start.elapsed().as_secs_f64();
        rounds += 1;
    }
    ops as f64 / secs
}

/// Wall-clock milliseconds of `f`, best of `rounds` (after one warmup).
fn best_ms(rounds: u32, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

// -------------------------------------------------------- LRU microbench

fn lru_key(i: u64) -> PageKey {
    PageKey { pid: Pid((i % 7) as u32), index: i }
}

/// The shared LRU op script: insert `n`, four touch sweeps (every third
/// key), drain half, re-insert cold, drain the rest. Returns the op count.
fn lru_script_new(n: u64) -> u64 {
    let mut q = LruQueue::new();
    let mut ops = 0u64;
    let handles: Vec<_> = (0..n)
        .map(|i| {
            ops += 1;
            q.push_hot(lru_key(i))
        })
        .collect();
    for _ in 0..4 {
        for h in handles.iter().step_by(3) {
            q.touch_handle(*h);
            ops += 1;
        }
    }
    let evicted: Vec<_> = (0..n / 2).map(|_| q.pop_coldest().expect("non-empty")).collect();
    ops += n / 2;
    for &key in evicted.iter().take(n as usize / 4) {
        // Cold re-insertion of evicted keys: the kernel's swap-out path
        // uses the O(1) handle API, not the keyed compat shim.
        q.push_cold(key);
        ops += 1;
    }
    while q.pop_coldest().is_some() {
        ops += 1;
    }
    ops
}

fn lru_script_baseline(n: u64) -> u64 {
    let mut q = MapLruQueue::new();
    let mut ops = 0u64;
    for i in 0..n {
        q.insert(lru_key(i));
        ops += 1;
    }
    for _ in 0..4 {
        for i in (0..n).step_by(3) {
            q.touch(lru_key(i));
            ops += 1;
        }
    }
    let evicted: Vec<_> = (0..n / 2).map(|_| q.pop_coldest().expect("non-empty")).collect();
    ops += n / 2;
    for &key in evicted.iter().take(n as usize / 4) {
        q.reinsert_cold(key);
        ops += 1;
    }
    while q.pop_coldest().is_some() {
        ops += 1;
    }
    ops
}

// ------------------------------------------------- page-table microbench

/// The old page-table layout: one flat hash map over full page keys (the
/// baseline the segment/chunk rewrite replaced).
#[derive(Clone, Copy)]
struct BaselineEntry {
    resident: bool,
    #[allow(dead_code)]
    file: bool,
    node: u32,
}

/// Three Fleet address areas: Java heap near 0, native at 2⁴⁰, file
/// mappings at 2⁴¹ (page indices: address >> 12).
const AREAS: [u64; 3] = [0, 1 << 28, 1 << 29];

/// The shared page-table op script: map `n` pages per area, four lookup
/// sweeps, two swap-out/swap-in sweeps over every other page, unmap all.
fn page_table_script_new(n: u64) -> u64 {
    let mut pt = PageTable::default();
    let mut ops = 0u64;
    for base in AREAS {
        for i in 0..n {
            pt.map(base + i, base != 0, i as u32);
            ops += 1;
        }
    }
    for _ in 0..4 {
        for base in AREAS {
            for i in 0..n {
                assert!(pt.entry(base + i).is_some());
                ops += 1;
            }
        }
    }
    for _ in 0..2 {
        for base in AREAS {
            for i in (0..n).step_by(2) {
                pt.set_swapped(base + i);
                pt.set_resident(base + i, i as u32);
                ops += 2;
            }
        }
    }
    for base in AREAS {
        for i in 0..n {
            pt.unmap(base + i);
            ops += 1;
        }
    }
    ops
}

fn page_table_script_baseline(n: u64) -> u64 {
    let pid = Pid(1);
    let mut pt: HashMap<PageKey, BaselineEntry> = HashMap::new();
    let mut ops = 0u64;
    for base in AREAS {
        for i in 0..n {
            pt.insert(
                PageKey { pid, index: base + i },
                BaselineEntry { resident: true, file: base != 0, node: i as u32 },
            );
            ops += 1;
        }
    }
    for _ in 0..4 {
        for base in AREAS {
            for i in 0..n {
                assert!(pt.contains_key(&PageKey { pid, index: base + i }));
                ops += 1;
            }
        }
    }
    for _ in 0..2 {
        for base in AREAS {
            for i in (0..n).step_by(2) {
                let e = pt.get_mut(&PageKey { pid, index: base + i }).unwrap();
                e.resident = false;
                e.node = u32::MAX;
                let e = pt.get_mut(&PageKey { pid, index: base + i }).unwrap();
                e.resident = true;
                e.node = i as u32;
                ops += 2;
            }
        }
    }
    for base in AREAS {
        for i in 0..n {
            pt.remove(&PageKey { pid, index: base + i });
            ops += 1;
        }
    }
    ops
}

// ------------------------------------------------- kernel + GC end-to-end

fn loaded_mm() -> MemoryManager {
    loaded_mm_with(SwapConfig { capacity_bytes: 32 * 1024 * 1024, ..SwapConfig::default() })
}

/// `loaded_mm`, but swapping to compressed DRAM instead of flash. The
/// compressed slots charge against the frame pool, so the working set is
/// sized to leave headroom for them.
fn zram_mm() -> MemoryManager {
    loaded_mm_with(SwapConfig::try_zram(32 * 1024 * 1024, 2.5).expect("valid zram config"))
}

fn loaded_mm_with(swap: SwapConfig) -> MemoryManager {
    let mut mm =
        MemoryManager::new(MmConfig { dram_bytes: 32 * 1024 * 1024, swap, ..MmConfig::default() });
    for pid in 1..=8u32 {
        mm.map_range(Pid(pid), 0, 2 * 1024 * 1024).expect("fits");
    }
    mm
}

/// A deterministic object graph: a spine with square-root shortcuts, so
/// tracing touches every object through a mix of deep and wide edges.
fn bench_heap(objects: u64) -> Heap {
    let mut heap = Heap::new(HeapConfig::default());
    let ids: Vec<_> = (0..objects).map(|i| heap.alloc(32 + (i % 7) as u32 * 16)).collect();
    heap.add_root(ids[0]);
    for w in ids.windows(2) {
        heap.add_ref(w[0], w[1]);
    }
    for i in (0..objects as usize).step_by(31) {
        heap.add_ref(ids[i], ids[(i * i + 7) % objects as usize]);
    }
    heap
}

fn run_figures(quick: bool) -> Figures {
    let fig_ms = |id: &str| {
        let selected = harness::select(&[id.to_string()]).expect("registry id");
        let reports = harness::run_experiments(&selected, 0xF1EE7, quick, 1, false, None);
        let report = reports.into_iter().next().expect("one report");
        report.result.expect("experiment runs");
        report.elapsed.as_secs_f64() * 1e3
    };
    Figures { fig2_ms: fig_ms("fig2"), fig5_ms: fig_ms("fig5"), fig11_ms: fig_ms("fig11") }
}

/// Times the fig2 driver inline on this thread (installed pipelines are
/// thread-local, so the harness's worker pool would shed them). Traced and
/// untraced rounds interleave so clock-speed drift over the measurement
/// window lands on both sides equally; each side keeps its best round.
fn run_obs_overhead(quick: bool) -> ObsOverhead {
    let selected = harness::select(&["fig2".to_string()]).expect("registry id");
    let exp = selected[0];
    let ctx = harness::ExperimentCtx {
        seed: harness::derive_seed(0xF1EE7, exp.id()),
        quick,
        drilldown: None,
    };
    let plain = || {
        exp.run(&ctx).expect("fig2 runs");
    };
    let traced = || {
        // A fresh pipeline per round: steady-state recording cost, not the
        // cost of appending to an ever-growing span vector.
        let _guard = fleet::probe::install(fleet::probe::shared::<fleet::probe::ObsPipeline>());
        exp.run(&ctx).expect("fig2 runs");
    };
    plain();
    traced();
    let rounds = if quick { 2 } else { 5 };
    let mut disabled = f64::INFINITY;
    let mut enabled = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        plain();
        disabled = disabled.min(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        traced();
        enabled = enabled.min(start.elapsed().as_secs_f64() * 1e3);
    }
    ObsOverhead {
        fig2_disabled_ms: disabled,
        fig2_enabled_ms: enabled,
        overhead_pct: (enabled - disabled) / disabled * 100.0,
    }
}

/// Times the fig2 workload with WSS tracking off (`Reactive`) and on (a
/// `Swam` whose `idle_epochs = u32::MAX` keeps the proactive daemon from
/// ever granting a drain quota, so only the tracking machinery runs).
/// Rounds interleave and each side keeps its best, as in
/// [`run_obs_overhead`].
fn run_wss_overhead(quick: bool) -> WssOverhead {
    use fleet::experiment::launch_basics::{fig2, fig2_with_policy};
    use fleet::{ReclaimPolicy, SwamParams};
    let launches = if quick { 4 } else { 10 };
    let seed = harness::derive_seed(0xF1EE7, "fig2");
    let tracked =
        ReclaimPolicy::Swam(SwamParams { idle_epochs: u32::MAX, ..SwamParams::default() });
    let reactive_round = || {
        fig2(seed, launches).expect("fig2 runs");
    };
    let wss_round = || {
        fig2_with_policy(seed, launches, tracked).expect("fig2 runs");
    };
    reactive_round();
    wss_round();
    let rounds = if quick { 2 } else { 5 };
    let mut reactive = f64::INFINITY;
    let mut wss = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        reactive_round();
        reactive = reactive.min(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        wss_round();
        wss = wss.min(start.elapsed().as_secs_f64() * 1e3);
    }
    WssOverhead {
        fig2_reactive_ms: reactive,
        fig2_wss_ms: wss,
        overhead_pct: (wss - reactive) / reactive * 100.0,
    }
}

/// Times the fig2 workload with the integrity layer off and armed
/// (`checked()`, quiet plan: checksums and scrub bookkeeping run, nothing
/// is ever corrupt). Rounds interleave and each side keeps its best, as in
/// [`run_obs_overhead`].
fn run_integrity_overhead(quick: bool) -> IntegrityOverhead {
    use fleet::experiment::launch_basics::{fig2, fig2_with_integrity};
    use fleet_kernel::IntegrityConfig;
    let launches = if quick { 4 } else { 10 };
    let seed = harness::derive_seed(0xF1EE7, "fig2");
    let off_round = || {
        fig2(seed, launches).expect("fig2 runs");
    };
    let on_round = || {
        fig2_with_integrity(seed, launches, IntegrityConfig::checked()).expect("fig2 runs");
    };
    off_round();
    on_round();
    let rounds = if quick { 2 } else { 5 };
    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        off_round();
        off = off.min(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        on_round();
        on = on.min(start.elapsed().as_secs_f64() * 1e3);
    }
    IntegrityOverhead { fig2_off_ms: off, fig2_on_ms: on, overhead_pct: (on - off) / off * 100.0 }
}

/// Streams a sampled cohort through the population runner and reports the
/// device-hours-per-wall-second headline.
fn run_population_bench(quick: bool) -> PopulationBench {
    let devices = if quick { 24 } else { 160 };
    let spec = PopulationSpec::default_mix(0xF1EE7, devices);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Warmup: fault in code paths and the allocator on a few device-days.
    run_population(&PopulationSpec::default_mix(0xF1EE7, 4), threads).expect("cohort runs");
    let run = run_population(&spec, threads).expect("cohort runs");
    PopulationBench {
        devices: run.aggregate.devices,
        threads: run.threads as u64,
        sim_device_hours: run.aggregate.device_hours(),
        wall_secs: run.wall.as_secs_f64(),
        device_hours_per_wall_sec: run.device_hours_per_wall_sec(),
    }
}

/// Times the cohort runner with no SLO monitors and with the demo pair
/// armed over the *same* sampled cohort (monitors are a deployment knob:
/// no RNG impact). Rounds interleave and each side keeps its best, as in
/// [`run_obs_overhead`].
fn run_telemetry_overhead(quick: bool) -> TelemetryOverhead {
    use fleet::experiment::fleet_telemetry::demo_slos;
    let devices = if quick { 12 } else { 64 };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plain_spec = PopulationSpec::default_mix(0xF1EE7, devices);
    let mut slo_spec = plain_spec.clone();
    slo_spec.slos = demo_slos();
    let plain_round = || {
        run_population(&plain_spec, threads).expect("cohort runs");
    };
    let slo_round = || {
        run_population(&slo_spec, threads).expect("cohort runs");
    };
    plain_round();
    slo_round();
    let rounds = if quick { 2 } else { 5 };
    let mut plain = f64::INFINITY;
    let mut slo = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        plain_round();
        plain = plain.min(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        slo_round();
        slo = slo.min(start.elapsed().as_secs_f64() * 1e3);
    }
    TelemetryOverhead {
        cohort_plain_ms: plain,
        cohort_slo_ms: slo,
        overhead_pct: (slo - plain) / plain * 100.0,
    }
}

// ---------------------------------------------------------------- driver

fn run(quick: bool) -> Report {
    let (lru_n, pt_n, gc_objects) = if quick { (512, 512, 20_000) } else { (4096, 4096, 200_000) };
    let min_secs = if quick { 0.05 } else { 0.3 };

    eprintln!("microbench: lru ({lru_n} keys)…");
    let lru_ops = lru_script_new(lru_n);
    assert_eq!(lru_ops, lru_script_baseline(lru_n), "op scripts must match");
    let lru = Comparison {
        ops_per_pass: lru_ops,
        new_ops_per_sec: ops_per_sec(min_secs, || lru_script_new(lru_n)),
        baseline_ops_per_sec: ops_per_sec(min_secs, || lru_script_baseline(lru_n)),
        speedup: 0.0,
    };

    eprintln!("microbench: page table ({pt_n} pages × {} areas)…", AREAS.len());
    let pt_ops = page_table_script_new(pt_n);
    assert_eq!(pt_ops, page_table_script_baseline(pt_n), "op scripts must match");
    let page_table = Comparison {
        ops_per_pass: pt_ops,
        new_ops_per_sec: ops_per_sec(min_secs, || page_table_script_new(pt_n)),
        baseline_ops_per_sec: ops_per_sec(min_secs, || page_table_script_baseline(pt_n)),
        speedup: 0.0,
    };

    eprintln!("kernel: page ops through MemoryManager…");
    let access_resident = {
        let mut mm = loaded_mm();
        let mut i = 0u64;
        ops_per_sec(min_secs, || {
            for _ in 0..256 {
                i = (i + 1) % 512;
                mm.access(Pid(8), i * PAGE_SIZE, 64, AccessKind::Mutator);
            }
            256
        })
    };
    let swap_roundtrip = {
        let mut mm = loaded_mm();
        let pages = 256u64;
        ops_per_sec(min_secs, || {
            mm.madvise(Pid(1), 0, pages * PAGE_SIZE, Advice::ColdRuntime);
            let out = mm.access(Pid(1), 0, pages * PAGE_SIZE, AccessKind::Launch);
            assert!(!out.oom);
            pages
        })
    };
    let (zram_write, zram_read) = {
        // The same round-trip script, but the two halves timed apart:
        // madvise compresses+stores, the launch access loads+decompresses.
        let mut mm = zram_mm();
        let pages = 256u64;
        mm.madvise(Pid(1), 0, pages * PAGE_SIZE, Advice::ColdRuntime);
        mm.access(Pid(1), 0, pages * PAGE_SIZE, AccessKind::Launch);
        let (mut write_secs, mut read_secs, mut ops, mut rounds) = (0.0, 0.0, 0u64, 0u32);
        while write_secs + read_secs < 2.0 * min_secs || rounds < 2 {
            let start = Instant::now();
            mm.madvise(Pid(1), 0, pages * PAGE_SIZE, Advice::ColdRuntime);
            write_secs += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let out = mm.access(Pid(1), 0, pages * PAGE_SIZE, AccessKind::Launch);
            read_secs += start.elapsed().as_secs_f64();
            assert!(!out.oom);
            ops += pages;
            rounds += 1;
        }
        (ops as f64 / write_secs, ops as f64 / read_secs)
    };

    eprintln!("gc: full trace over {gc_objects} objects…");
    let full_gc_ms = best_ms(if quick { 2 } else { 5 }, || {
        let mut heap = bench_heap(gc_objects);
        FullCopyingGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);
    });

    eprintln!("figures: fig2 / fig5 / fig11 end to end…");
    let figures = run_figures(quick);

    eprintln!("obs overhead: fig2 with tracing off / on…");
    let obs_overhead = run_obs_overhead(quick);

    eprintln!("wss overhead: fig2 with working-set tracking off / on…");
    let wss_overhead = run_wss_overhead(quick);

    eprintln!("integrity overhead: fig2 with the checksum layer off / on…");
    let integrity_overhead = run_integrity_overhead(quick);

    eprintln!("population: cohort device-days on all cores…");
    let population = run_population_bench(quick);

    eprintln!("telemetry overhead: cohort with SLO monitors off / on…");
    let telemetry_overhead = run_telemetry_overhead(quick);

    let mut report = Report {
        schema_version: SCHEMA_VERSION,
        quick,
        microbench: Microbench { lru, page_table },
        kernel: KernelBench {
            access_resident_ops_per_sec: access_resident,
            swap_roundtrip_pages_per_sec: swap_roundtrip,
            zram_write_pages_per_sec: zram_write,
            zram_read_pages_per_sec: zram_read,
        },
        gc: GcBench { trace_objects: gc_objects, full_gc_ms },
        figures,
        obs_overhead,
        wss_overhead,
        integrity_overhead,
        population,
        telemetry_overhead,
    };
    report.microbench.lru.speedup =
        report.microbench.lru.new_ops_per_sec / report.microbench.lru.baseline_ops_per_sec;
    report.microbench.page_table.speedup = report.microbench.page_table.new_ops_per_sec
        / report.microbench.page_table.baseline_ops_per_sec;
    report
}

// ---------------------------------------------------------- schema check

/// Collects every object key path in `value` (arrays descend as `[]`).
fn key_skeleton(value: &serde::Value, path: &str, out: &mut BTreeSet<String>) {
    match value {
        serde::Value::Object(fields) => {
            for (key, child) in fields {
                let child_path =
                    if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                out.insert(child_path.clone());
                key_skeleton(child, &child_path, out);
            }
        }
        serde::Value::Array(items) => {
            let child_path = format!("{path}[]");
            for item in items {
                key_skeleton(item, &child_path, out);
            }
        }
        _ => {}
    }
}

/// Strict schema validation: parse, version match, and exact key-tree
/// equality against a round-trip through the report type (the vendored
/// deserialiser ignores unknown fields, so parsing alone misses drift).
fn check_report(text: &str) -> Result<Report, String> {
    let raw: serde::Value =
        serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let report: Report =
        serde_json::from_str(text).map_err(|e| format!("does not parse as a report: {e}"))?;
    if report.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema version {} does not match this binary's v{SCHEMA_VERSION}",
            report.schema_version
        ));
    }
    let mut found = BTreeSet::new();
    key_skeleton(&raw, "", &mut found);
    let mut expected = BTreeSet::new();
    key_skeleton(&serde::Serialize::to_value(&report), "", &mut expected);
    if found != expected {
        let mut why = String::from("key tree drifted from the schema:");
        for extra in found.difference(&expected) {
            why.push_str(&format!("\n  unexpected key `{extra}`"));
        }
        for missing in expected.difference(&found) {
            why.push_str(&format!("\n  missing key `{missing}`"));
        }
        return Err(why);
    }
    Ok(report)
}

fn default_out() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernel.json")
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: fleet-bench [--quick] [--check] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut check = false;
    let mut out = default_out();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--out" => {
                out = args
                    .next()
                    .map(Into::into)
                    .unwrap_or_else(|| usage_error("--out needs a path"));
            }
            other => usage_error(&format!("unknown flag `{other}`")),
        }
    }

    if check {
        // Schema validation only: parse + version + exact key tree.
        let text = match std::fs::read_to_string(&out) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {}: {e}", out.display());
                std::process::exit(1);
            }
        };
        match check_report(&text) {
            Ok(report) => {
                println!(
                    "{} ok (schema v{}, lru ×{:.2}, page table ×{:.2}, {:.1} device-h/s)",
                    out.display(),
                    report.schema_version,
                    report.microbench.lru.speedup,
                    report.microbench.page_table.speedup,
                    report.population.device_hours_per_wall_sec,
                );
            }
            Err(why) => {
                eprintln!("{} does not match the report schema: {why}", out.display());
                std::process::exit(1);
            }
        }
        return;
    }

    let report = run(quick);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n")
        .unwrap_or_else(|e| usage_error(&format!("cannot write {}: {e}", out.display())));

    println!();
    println!(
        "LRU:        {:>12.0} ops/s new  {:>12.0} ops/s map baseline  (×{:.2})",
        report.microbench.lru.new_ops_per_sec,
        report.microbench.lru.baseline_ops_per_sec,
        report.microbench.lru.speedup
    );
    println!(
        "Page table: {:>12.0} ops/s new  {:>12.0} ops/s map baseline  (×{:.2})",
        report.microbench.page_table.new_ops_per_sec,
        report.microbench.page_table.baseline_ops_per_sec,
        report.microbench.page_table.speedup
    );
    println!(
        "Kernel:     {:>12.0} resident accesses/s  {:>12.0} swap round-trip pages/s",
        report.kernel.access_resident_ops_per_sec, report.kernel.swap_roundtrip_pages_per_sec
    );
    println!(
        "Zram:       {:>12.0} store pages/s        {:>12.0} fault-in pages/s",
        report.kernel.zram_write_pages_per_sec, report.kernel.zram_read_pages_per_sec
    );
    println!(
        "GC:         full trace of {} objects in {:.1} ms",
        report.gc.trace_objects, report.gc.full_gc_ms
    );
    println!(
        "Figures:    fig2 {:.0} ms   fig5 {:.0} ms   fig11 {:.0} ms",
        report.figures.fig2_ms, report.figures.fig5_ms, report.figures.fig11_ms
    );
    println!(
        "Obs:        fig2 {:.0} ms untraced   {:.0} ms traced   ({:+.1}% overhead)",
        report.obs_overhead.fig2_disabled_ms,
        report.obs_overhead.fig2_enabled_ms,
        report.obs_overhead.overhead_pct
    );
    println!(
        "WSS:        fig2 {:.0} ms untracked   {:.0} ms tracked   ({:+.1}% overhead)",
        report.wss_overhead.fig2_reactive_ms,
        report.wss_overhead.fig2_wss_ms,
        report.wss_overhead.overhead_pct
    );
    println!(
        "Integrity:  fig2 {:.0} ms off   {:.0} ms armed   ({:+.1}% overhead)",
        report.integrity_overhead.fig2_off_ms,
        report.integrity_overhead.fig2_on_ms,
        report.integrity_overhead.overhead_pct
    );
    println!(
        "Population: {} device-days on {} threads — {:.1} simulated device-hours \
         in {:.1} s  ({:.1} device-hours/wall-sec)",
        report.population.devices,
        report.population.threads,
        report.population.sim_device_hours,
        report.population.wall_secs,
        report.population.device_hours_per_wall_sec
    );
    println!(
        "Telemetry:  cohort {:.0} ms plain   {:.0} ms with SLO monitors   ({:+.1}% overhead)",
        report.telemetry_overhead.cohort_plain_ms,
        report.telemetry_overhead.cohort_slo_ms,
        report.telemetry_overhead.overhead_pct
    );
    println!("wrote {}", out.display());
}
