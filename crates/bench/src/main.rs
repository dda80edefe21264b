//! `fleet-bench` — the dependency-free performance runner behind
//! `BENCH_kernel.json`.
//!
//! Usage:
//!
//! ```text
//! fleet-bench [--quick] [--check] [--out PATH]
//! ```
//!
//! Every row is a closure, and one function times them all: the whole set
//! runs in rotation for 5 rounds (2 under `--quick`), so drift in the
//! host's speed lands on every row alike, and each timed value is reported
//! as `{median, min, spread}` over the rounds, where `spread` is the
//! interquartile range over the median (the spread perfbench's `spread.py`
//! reports, here with `fleet_metrics::Summary`'s interpolated quartiles).
//! The report's sections:
//!
//! * **lru** — ns per op of the intrusive-list `LruQueue` (by handle, as
//!   the kernel uses it) and of the `BTreeMap`-stamp `MapLruQueue` it
//!   replaced, over one op script. The map baseline has not changed since
//!   it was written, so it doubles as a host-speed check.
//! * **kernel** — ns per page through `MemoryManager`: resident access
//!   (table lookup + LRU touch), a flash swap-out and fault-in round trip,
//!   and a zram store and a zram fault-in timed apart.
//! * **gc** — ms to build a deterministic object graph and collect it with
//!   the full tracing GC.
//! * **figures** — ms per run of the fig2, fig5 and fig11 registry
//!   experiments.
//! * **population** — ms per `PopulationSpec::default_mix` cohort through
//!   `fleet::population::run_population` at one and at two threads, and
//!   the headline of each: simulated device-hours per wall-second.
//! * **overhead** — four cost checks, each the same workload without
//!   (`base`) and with (`variant`) one layer armed: `obs`, fig2 under a
//!   live observability pipeline; `wss`, fig2 under a `Swam` reclaim
//!   policy whose daemon never fires, so only working-set tracking runs
//!   (DESIGN.md §13); `integrity`, fig2 with the swap integrity layer
//!   `checked()` over a quiet fault plan (§14); and `slo`, the two-thread
//!   cohort with the demo SLO monitors armed (§15). The fig2 base is
//!   `figures.fig2_ms` and the cohort base is `population.two_threads`.
//!
//! `--check` validates an existing report against the schema (exit 1 on
//! mismatch) instead of benchmarking. Checking is strict: the file must
//! parse back into the report type, carry this binary's schema version,
//! *and* have exactly the expected key tree — the vendored deserialiser
//! ignores unknown fields, so drift is caught by comparing key skeletons,
//! not just by parsing. The default output path is the repo root's
//! `BENCH_kernel.json` regardless of the working directory.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::time::Instant;

use fleet::experiment::fleet_telemetry::demo_slos;
use fleet::experiment::harness::{self, ExperimentCtx};
use fleet::experiment::launch_basics::fig2_configured;
use fleet::population::{run_population, PopulationSpec};
use fleet::{ReclaimPolicy, SwamParams};
use fleet_gc::{Collector, FullCopyingGc, GcCostModel, NoTouch};
use fleet_heap::{Heap, HeapConfig};
use fleet_kernel::lru::reference::MapLruQueue;
use fleet_kernel::{
    AccessKind, Advice, IntegrityConfig, LruQueue, MemoryManager, MmConfig, PageKey, Pid,
    SwapConfig, PAGE_SIZE,
};
use fleet_metrics::Summary;
use serde::{Deserialize, Serialize};

// ------------------------------------------------------------ JSON schema

/// The report schema this binary writes and `--check` enforces.
const SCHEMA_VERSION: u32 = 8;

/// The master seed every simulated row derives its seed from.
const SEED: u64 = 0xF1EE7;

/// The full report; field order is the (stable) key order in the file.
#[derive(Default, Serialize, Deserialize)]
struct Report {
    schema_version: u32,
    /// True when produced by a `--quick` (CI smoke) run.
    quick: bool,
    /// Rounds every row ran in rotation.
    rounds: u64,
    lru: LruBench,
    kernel: KernelBench,
    gc: GcBench,
    figures: Figures,
    population: PopulationBench,
    overhead: Overheads,
}

/// One timed value over the rounds.
#[derive(Default, Clone, Copy, Serialize, Deserialize)]
struct Stat {
    median: f64,
    min: f64,
    /// Interquartile range over the median.
    spread: f64,
}

impl Stat {
    fn of(samples: Vec<f64>) -> Stat {
        let s = Summary::from_values(samples);
        let median = s.median();
        Stat { median, min: s.min(), spread: (s.percentile(75.0) - s.percentile(25.0)) / median }
    }
}

/// The new LRU queue against its map baseline over the identical op script.
#[derive(Default, Serialize, Deserialize)]
struct LruBench {
    /// Operations per script pass (same for both sides).
    ops_per_pass: u64,
    new_ns_per_op: Stat,
    baseline_ns_per_op: Stat,
    /// Baseline median over new median.
    speedup: f64,
}

#[derive(Default, Serialize, Deserialize)]
struct KernelBench {
    access_resident_ns_per_page: Stat,
    swap_roundtrip_ns_per_page: Stat,
    /// Swap-out to a zram device (compress + store).
    zram_store_ns_per_page: Stat,
    /// Fault-in from a zram device (load + decompress).
    zram_fault_in_ns_per_page: Stat,
}

#[derive(Default, Serialize, Deserialize)]
struct GcBench {
    trace_objects: u64,
    /// Building the object graph and one full collection of it.
    full_gc_ms: Stat,
}

#[derive(Default, Serialize, Deserialize)]
struct Figures {
    fig2_ms: Stat,
    fig5_ms: Stat,
    fig11_ms: Stat,
}

/// Cohort-simulation throughput at fixed thread counts, so one host's
/// report compares with another's at equal parallelism.
#[derive(Default, Serialize, Deserialize)]
struct PopulationBench {
    /// Device-days in the cohort.
    devices: u64,
    /// Simulated device-hours the cohort covers.
    sim_device_hours: f64,
    /// The host's `available_parallelism`: two threads gain nothing on one
    /// core.
    host_parallelism: u64,
    one_thread: CohortRow,
    two_threads: CohortRow,
}

#[derive(Default, Serialize, Deserialize)]
struct CohortRow {
    wall_ms: Stat,
    /// The headline: `sim_device_hours` over the median wall time.
    device_hours_per_wall_sec: f64,
}

/// One cost check: the same workload without and with one layer armed.
#[derive(Default, Serialize, Deserialize)]
struct Overhead {
    base: Stat,
    variant: Stat,
    /// `(variant - base) / base` of the medians, percent. May go slightly
    /// negative from timer noise.
    overhead_pct: f64,
}

impl Overhead {
    fn new(base: Stat, variant: Stat) -> Overhead {
        Overhead {
            base,
            variant,
            overhead_pct: (variant.median - base.median) / base.median * 100.0,
        }
    }
}

/// The cost checks by name. Named fields rather than a map, so a report
/// missing one fails `--check`.
#[derive(Default, Serialize, Deserialize)]
struct Overheads {
    obs: Overhead,
    wss: Overhead,
    integrity: Overhead,
    slo: Overhead,
}

// ------------------------------------------------------------- timing core

/// One timed row. `run` does the work and returns how many units (ops,
/// pages, or 1 for a whole run) it did; `prepare`, untimed, runs before
/// each call to restore the state `run` consumes; `scale` turns seconds per
/// unit into the reported unit.
struct Row<'a> {
    prepare: Box<dyn FnMut() + 'a>,
    run: Box<dyn FnMut() -> u64 + 'a>,
    scale: f64,
}

impl<'a> Row<'a> {
    /// A row reported in ns per unit.
    fn ns(run: impl FnMut() -> u64 + 'a) -> Row<'a> {
        Row { prepare: Box::new(|| {}), run: Box::new(run), scale: 1e9 }
    }

    /// A row reported in ms per call.
    fn ms<T>(mut run: impl FnMut() -> T + 'a) -> Row<'a> {
        Row {
            prepare: Box::new(|| {}),
            run: Box::new(move || {
                run();
                1
            }),
            scale: 1e3,
        }
    }

    fn prepared_by<T>(self, mut prepare: impl FnMut() -> T + 'a) -> Row<'a> {
        Row {
            prepare: Box::new(move || {
                prepare();
            }),
            ..self
        }
    }
}

/// The one timer. Runs `rows` in rotation for `rounds` rounds, in reverse
/// order on odd rounds so no row always runs right after the same one. In
/// each round a row's sample is the time its `run` calls took until
/// `min_secs` passed (at least one call), over the units they did. There
/// is no warmup round: the median absorbs a cold first one.
fn time_rows<const N: usize>(mut rows: [Row<'_>; N], rounds: usize, min_secs: f64) -> [Stat; N] {
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(rounds));
    for round in 0..rounds {
        eprintln!("round {}/{rounds}: {N} rows…", round + 1);
        let mut order: Vec<_> = rows.iter_mut().zip(&mut samples).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for (row, samples) in order {
            let (mut secs, mut units) = (0.0, 0u64);
            while units == 0 || secs < min_secs {
                (row.prepare)();
                let start = Instant::now();
                units += (row.run)();
                secs += start.elapsed().as_secs_f64();
            }
            samples.push(secs / units as f64 * row.scale);
        }
    }
    samples.map(Stat::of)
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

// ------------------------------------------------- kernel + GC end-to-end

/// Pages each swap row moves per call.
const SWAP_PAGES: u64 = 256;

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

/// Swaps pid 1's first `SWAP_PAGES` pages out.
fn swap_out(mm: &mut MemoryManager) -> u64 {
    mm.madvise(Pid(1), 0, SWAP_PAGES * PAGE_SIZE, Advice::ColdRuntime);
    SWAP_PAGES
}

/// Faults pid 1's first `SWAP_PAGES` pages back in, as a launch does.
fn fault_in(mm: &mut MemoryManager) -> u64 {
    let out = mm.access(Pid(1), 0, SWAP_PAGES * PAGE_SIZE, AccessKind::Launch);
    assert!(!out.oom);
    SWAP_PAGES
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

/// A registry experiment as a row, run on this thread under the seed the
/// harness derives for it.
fn experiment(id: &str, quick: bool) -> impl FnMut() {
    let exp = harness::select(&[id.to_string()]).expect("registry id")[0];
    let ctx = ExperimentCtx { seed: harness::derive_seed(SEED, id), quick, drilldown: None };
    move || {
        exp.run(&ctx).expect("experiment runs");
    }
}

// ---------------------------------------------------------------- driver

fn run(quick: bool) -> Report {
    let (lru_n, gc_objects, devices) = if quick { (512, 20_000, 24) } else { (4096, 200_000, 160) };
    let (rounds, min_secs) = if quick { (2, 0.02) } else { (5, 0.2) };

    let lru_ops = lru_script_new(lru_n);
    assert_eq!(lru_ops, lru_script_baseline(lru_n), "op scripts must match");

    let (mut resident, mut next_page) = (loaded_mm(), 0u64);
    let mut flash = loaded_mm();
    let zram = RefCell::new(zram_mm());

    // The fig2 experiment's own seed and launch count, so `figures.fig2_ms`
    // is the base of the three fig2 cost checks.
    let fig2_seed = harness::derive_seed(SEED, "fig2");
    let fig2_launches =
        ExperimentCtx { seed: fig2_seed, quick, drilldown: None }.launches().min(10);
    let fig2 = |policy, integrity| {
        fig2_configured(fig2_seed, fig2_launches, policy, integrity).expect("fig2 runs")
    };
    // Tracking on, proactive reclaim never: the daemon grants no quota.
    let tracked =
        ReclaimPolicy::Swam(SwamParams { idle_epochs: u32::MAX, ..SwamParams::default() });

    let cohort = PopulationSpec::default_mix(SEED, devices);
    let slo_cohort = PopulationSpec { slos: demo_slos(), ..cohort.clone() };
    let device_hours = Cell::new(0.0);
    let run_cohort = |spec: &PopulationSpec, threads: usize| {
        let run = run_population(spec, threads).expect("cohort runs");
        device_hours.set(run.aggregate.device_hours());
    };

    eprintln!(
        "timing {rounds} rounds: lru {lru_n} keys, gc {gc_objects} objects, {devices} devices…"
    );
    let stats = time_rows(
        [
            Row::ns(|| lru_script_new(lru_n)),
            Row::ns(|| lru_script_baseline(lru_n)),
            Row::ns(|| {
                for _ in 0..256 {
                    next_page = (next_page + 1) % 512;
                    resident.access(Pid(8), next_page * PAGE_SIZE, 64, AccessKind::Mutator);
                }
                256
            }),
            Row::ns(|| {
                swap_out(&mut flash);
                fault_in(&mut flash)
            }),
            Row::ns(|| swap_out(&mut zram.borrow_mut()))
                .prepared_by(|| fault_in(&mut zram.borrow_mut())),
            Row::ns(|| fault_in(&mut zram.borrow_mut()))
                .prepared_by(|| swap_out(&mut zram.borrow_mut())),
            Row::ms(|| {
                FullCopyingGc::new(GcCostModel::default())
                    .collect(&mut bench_heap(gc_objects), &mut NoTouch)
            }),
            Row::ms(experiment("fig2", quick)),
            Row::ms(|| {
                // A fresh pipeline per call: steady-state recording cost, not
                // the cost of appending to an ever-growing span vector.
                let _guard =
                    fleet::probe::install(fleet::probe::shared::<fleet::probe::ObsPipeline>());
                fig2(ReclaimPolicy::Reactive, IntegrityConfig::default())
            }),
            Row::ms(|| fig2(tracked, IntegrityConfig::default())),
            Row::ms(|| fig2(ReclaimPolicy::Reactive, IntegrityConfig::checked())),
            Row::ms(experiment("fig5", quick)),
            Row::ms(experiment("fig11", quick)),
            Row::ms(|| run_cohort(&cohort, 1)),
            Row::ms(|| run_cohort(&cohort, 2)),
            Row::ms(|| run_cohort(&slo_cohort, 2)),
        ],
        rounds,
        min_secs,
    );
    #[rustfmt::skip]
    let [
        lru_new, lru_baseline, access_resident, swap_roundtrip, zram_store, zram_fault_in, full_gc,
        fig2_ms, obs, wss, integrity, fig5_ms, fig11_ms, one_thread, two_threads, slo,
    ] = stats;

    let hours = device_hours.get();
    let cohort_row = |wall_ms: Stat| CohortRow {
        wall_ms,
        device_hours_per_wall_sec: hours / (wall_ms.median / 1e3),
    };
    Report {
        schema_version: SCHEMA_VERSION,
        quick,
        rounds: rounds as u64,
        lru: LruBench {
            ops_per_pass: lru_ops,
            new_ns_per_op: lru_new,
            baseline_ns_per_op: lru_baseline,
            speedup: lru_baseline.median / lru_new.median,
        },
        kernel: KernelBench {
            access_resident_ns_per_page: access_resident,
            swap_roundtrip_ns_per_page: swap_roundtrip,
            zram_store_ns_per_page: zram_store,
            zram_fault_in_ns_per_page: zram_fault_in,
        },
        gc: GcBench { trace_objects: gc_objects, full_gc_ms: full_gc },
        figures: Figures { fig2_ms, fig5_ms, fig11_ms },
        population: PopulationBench {
            devices: u64::from(devices),
            sim_device_hours: hours,
            host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
            one_thread: cohort_row(one_thread),
            two_threads: cohort_row(two_threads),
        },
        overhead: Overheads {
            obs: Overhead::new(fig2_ms, obs),
            wss: Overhead::new(fig2_ms, wss),
            integrity: Overhead::new(fig2_ms, integrity),
            slo: Overhead::new(two_threads, slo),
        },
    }
}

// ---------------------------------------------------------- schema check

fn child_path(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Collects every object key path in `value` (arrays descend as `[]`).
fn key_skeleton(value: &serde::Value, path: &str, out: &mut BTreeSet<String>) {
    match value {
        serde::Value::Object(fields) => {
            for (key, child) in fields {
                let child_path = child_path(path, key);
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

/// Prints the report one value a line, each timed value as its median,
/// min and spread.
fn print_report(value: &serde::Value, path: &str) {
    let number = |key: &str| value[key].as_f64().unwrap_or(f64::NAN);
    match value.as_object() {
        Some(_) if value.get("median").is_some() => println!(
            "{path:<48} median {:>14.3}  min {:>14.3}  spread {:.3}",
            number("median"),
            number("min"),
            number("spread")
        ),
        Some(fields) => {
            for (key, child) in fields {
                print_report(child, &child_path(path, key));
            }
        }
        None => println!("{path:<48} {value}"),
    }
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
                    "{} ok (schema v{}, lru ×{:.2}, {:.2} device-h/s at one thread, {:.2} at two)",
                    out.display(),
                    report.schema_version,
                    report.lru.speedup,
                    report.population.one_thread.device_hours_per_wall_sec,
                    report.population.two_threads.device_hours_per_wall_sec,
                );
            }
            Err(why) => {
                eprintln!("{} does not match the report schema: {why}", out.display());
                std::process::exit(1);
            }
        }
        return;
    }

    let report = serde_json::to_value(&run(quick)).expect("report serializes");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n")
        .unwrap_or_else(|e| usage_error(&format!("cannot write {}: {e}", out.display())));
    println!();
    print_report(&report, "");
    println!("wrote {}", out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report as this binary writes it, with `edit` applied to its
    /// top-level fields.
    fn written(edit: impl FnOnce(&mut Vec<(String, serde::Value)>)) -> String {
        let report = Report { schema_version: SCHEMA_VERSION, ..Report::default() };
        let mut value = serde::Serialize::to_value(&report);
        let serde::Value::Object(fields) = &mut value else { panic!("a report is an object") };
        edit(fields);
        serde_json::to_string_pretty(&value).expect("report serializes")
    }

    fn section<'a>(
        fields: &'a mut [(String, serde::Value)],
        name: &str,
    ) -> &'a mut Vec<(String, serde::Value)> {
        match fields.iter_mut().find(|(key, _)| key == name) {
            Some((_, serde::Value::Object(section))) => section,
            _ => panic!("no `{name}` section"),
        }
    }

    #[test]
    fn rows_alternate_their_order() {
        let log = RefCell::new(Vec::new());
        let row = |id: usize| {
            let log = &log;
            Row::ns(move || {
                log.borrow_mut().push(id);
                1
            })
        };
        time_rows([row(0), row(1)], 4, 0.0);
        let log = log.into_inner();
        assert_eq!(log.len(), 8, "one call per row and round");
        let firsts: Vec<usize> = log.chunks(2).map(|round| round[0]).collect();
        assert_eq!(firsts.iter().filter(|&&id| id == 0).count(), 2, "{log:?}");
        assert_eq!(firsts.iter().filter(|&&id| id == 1).count(), 2, "{log:?}");
    }

    #[test]
    fn a_written_report_passes() {
        check_report(&written(|_| {})).expect("a written report passes");
    }

    #[test]
    fn a_wrong_schema_version_fails() {
        let text = written(|fields| fields[0].1 = serde::Value::Number(serde::Number::PosInt(7)));
        let why = check_report(&text).err().expect("version 7 fails");
        assert!(why.contains("schema version 7 does not match this binary's v8"), "{why}");
    }

    #[test]
    fn an_added_key_fails() {
        let text =
            written(|fields| section(fields, "gc").push(("extra".into(), serde::Value::Null)));
        let why = check_report(&text).err().expect("an added key fails");
        assert!(why.contains("unexpected key `gc.extra`"), "{why}");
    }

    #[test]
    fn a_missing_overhead_row_fails() {
        let text = written(|fields| section(fields, "overhead").retain(|(key, _)| key != "slo"));
        let why = check_report(&text).err().expect("a missing row fails");
        assert!(why.contains("missing field `slo`"), "{why}");
    }
}
