//! `perfbench` — host-time benchmark of the Fleet simulator.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--expect HEX] [--trace-out PATH] [--min-passes N]
//! perfbench --list-metrics
//! ```
//!
//! With `--trace 0` it repeats passes of the workload for `S` seconds (at
//! least `--min-passes`, default 3) and reports the end-to-end metrics as
//! medians over passes, in reference-host time: host time rescaled by a
//! speed probe run after every call (see [`pace`]).
//! With `--trace 1` it runs one untraced and one traced pass, writes the
//! traced pass's spans as Chrome-trace JSON to `--trace-out`, prints a
//! per-layer self-time table to stderr and reports the per-layer metrics.
//! Either way the last stdout line is one JSON result object.
//!
//! Every pass fingerprints its simulated results. Passes must match
//! `--expect` when given, else the first pass; a mismatch fails every
//! operation of the run.

mod layers;
mod pace;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::time::Instant;

use trace::Tracer;
use workloads::{run_pass, Ctx, Pass, WORKLOADS};

/// `(name, value, unit)` rows of one result line.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// End-to-end metric names and units, in output order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("device_hours_per_wall_s", "1/s"),
    ("launches_per_s", "1/s"),
    ("launch_host_ms_p50", "ms"),
    ("launch_host_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// An untraced run repeats passes until `--seconds` elapse, but by
/// default never fewer than this, so each median has three samples.
const MIN_PASSES: usize = 3;
/// Stop starting passes after this long, whatever `--seconds` says.
const MAX_RUN_SECS: f64 = 120.0;

/// Linear-interpolated quantile of ascending `sorted` (non-empty).
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(&values, 0.5)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    expect: Option<u64>,
    trace_out: Option<String>,
    min_passes: usize,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 \
         [--expect HEX] [--trace-out PATH] [--min-passes N] | --list-metrics",
        WORKLOADS.join(",")
    );
    std::process::exit(2);
}

fn parse_args() -> Option<Args> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut expect, mut trace_out, mut min_passes) = (None, None, MIN_PASSES);
    while let Some(flag) = raw.next() {
        if flag == "--list-metrics" {
            return None;
        }
        let value = raw.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = |what: &str| -> ! { usage(&format!("{flag}: {what} `{value}`")) };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => bad("unknown workload"),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| bad("not a u64"))),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = Some(s),
                _ => bad("not a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" | "1" => traced = Some(value == "1"),
                _ => bad("expected 0 or 1"),
            },
            "--expect" => {
                expect = Some(u64::from_str_radix(&value, 16).unwrap_or_else(|_| bad("not hex")))
            }
            "--trace-out" => trace_out = Some(value),
            "--min-passes" => match value.parse::<usize>() {
                Ok(n) if n > 0 => min_passes = n,
                _ => bad("not a positive integer"),
            },
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Some(Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        traced: traced.unwrap_or_else(|| usage("--trace is required")),
        expect,
        trace_out,
        min_passes,
    })
}

/// `{"end_to_end": {name: unit}, "per_layer": {name: unit}}`.
fn list_metrics() {
    let obj = |rows: Vec<(String, &str)>| {
        let body: Vec<String> = rows.iter().map(|(n, u)| format!("\"{n}\": \"{u}\"")).collect();
        format!("{{{}}}", body.join(", "))
    };
    let e2e = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    println!("{{\"end_to_end\": {}, \"per_layer\": {}}}", obj(e2e), obj(layers::table()));
}

/// The process's peak resident set (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn end_to_end(passes: &[Pass]) -> Metrics {
    let mut launch_ms: Vec<f64> = passes.iter().flat_map(|p| p.launch_host_ms.clone()).collect();
    launch_ms.sort_by(f64::total_cmp);
    let launch_q = |p: f64| if launch_ms.is_empty() { 0.0 } else { quantile(&launch_ms, p) };
    let per_wall =
        |f: &dyn Fn(&Pass) -> f64| median(passes.iter().map(|p| f(p) / p.wall_s).collect());
    let values = [
        median(passes.iter().map(|p| p.setup_s).collect()),
        median(passes.iter().map(|p| p.wall_s).collect()),
        per_wall(&|p| p.sim_hours),
        per_wall(&|p| p.launches as f64),
        launch_q(0.5),
        launch_q(0.9),
        peak_rss_mib(),
    ];
    END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n.to_string(), v, u)).collect()
}

/// The traced pass's self time per layer, largest first, with the top
/// three layers and calls named.
fn layer_table(workload: &str, spans: &[trace::Span]) -> String {
    let mut rows: Vec<(&str, u64)> = trace::self_time_by_layer(spans).into_iter().collect();
    rows.sort_by_key(|&(layer, ns)| (std::cmp::Reverse(ns), layer));
    let total: u64 = rows.iter().map(|r| r.1).sum();
    let mut out = format!("per-layer self time, {workload} (traced pass):\n");
    for (layer, ns) in &rows {
        let share = 100.0 * *ns as f64 / total.max(1) as f64;
        let _ = writeln!(out, "  {layer:<11} {:>10.1} ms  {share:>5.1} %", *ns as f64 / 1e6);
    }
    let top: Vec<&str> = rows.iter().take(3).map(|r| r.0).collect();
    let _ = writeln!(out, "  top layers by self time: {}", top.join(", "));
    // Device workloads reach the simulator only through `core`, so the
    // calls within a layer are the finer split.
    let mut calls: Vec<(&str, u64)> = trace::self_time_by_call(spans).into_iter().collect();
    calls.sort_by_key(|&(name, ns)| (std::cmp::Reverse(ns), name));
    let top: Vec<String> = calls
        .iter()
        .take(3)
        .map(|(name, ns)| format!("{name} {:.1} %", 100.0 * *ns as f64 / total.max(1) as f64))
        .collect();
    let _ = writeln!(out, "  top calls by self time: {}", top.join(", "));
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let Some(args) = parse_args() else {
        list_metrics();
        return;
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if args.workload == "cohort" { nproc.min(2) } else { 1 };
    let ctx = Ctx { seed: args.seed, threads, replay: args.traced };

    let start = Instant::now();
    let mut passes = Vec::new();
    let (mut raw_walls, mut slowdown) = (Vec::new(), 1.0);
    let mut traced = None;
    if args.traced {
        passes.push(run_pass(&args.workload, ctx, &mut Tracer::new(false)));
        let mut tr = Tracer::new(true);
        passes.push(run_pass(&args.workload, ctx, &mut tr));
        traced = Some(tr);
    } else {
        let mut tr = Tracer::paced(threads, workloads::pace_model(&args.workload));
        while passes.len() < args.min_passes
            || (start.elapsed().as_secs_f64() < args.seconds
                && start.elapsed().as_secs_f64() < MAX_RUN_SECS)
        {
            let before = tr.pace_totals();
            let pass = run_pass(&args.workload, ctx, &mut tr);
            let after = tr.pace_totals();
            let [host, reference, map, stream] = std::array::from_fn(|i| after[i] - before[i]);
            raw_walls.push(pass.wall_s * host / reference);
            eprintln!(
                "pass {}: setup {:.4} s, wall {:.4} s, host {:.3}x slower than reference \
                 (map unit {:.3}x, stream unit {:.3}x)",
                passes.len(),
                pass.setup_s,
                pass.wall_s,
                host / reference,
                map / host,
                stream / host
            );
            passes.push(pass);
        }
        let totals = tr.pace_totals();
        slowdown = totals[0] / totals[1];
    }

    // Simulated-output gate: every pass against the pinned (or first) print.
    let expected = args.expect.unwrap_or(passes[0].fingerprint);
    for (i, pass) in passes.iter_mut().enumerate() {
        if pass.fingerprint != expected {
            pass.problems.push(format!(
                "pass {i}: fingerprint {:016x} != expected {expected:016x}",
                pass.fingerprint
            ));
            pass.failed = pass.attempted;
        }
    }
    let mut attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mut problems: Vec<String> = passes.iter().flat_map(|p| p.problems.clone()).collect();

    let metrics = match &traced {
        None => end_to_end(&passes),
        Some(tr) => {
            let spans = tr.spans();
            let json = trace::chrome_trace(spans);
            attempted += 1;
            match fleet_obs::validate_chrome_trace(&json) {
                Ok(summary) => eprintln!("trace: {} spans validated", summary.spans),
                Err(e) => {
                    failed += 1;
                    problems.push(format!("chrome trace invalid: {e}"));
                }
            }
            if let Some(path) = &args.trace_out {
                if let Err(e) = std::fs::write(path, &json) {
                    failed += 1;
                    problems.push(format!("cannot write {path}: {e}"));
                } else {
                    eprintln!("trace: wrote {path}");
                }
            }
            eprint!("{}", layer_table(&args.workload, spans));
            let overhead_s =
                (passes[1].setup_s + passes[1].wall_s) - (passes[0].setup_s + passes[0].wall_s);
            eprintln!("tracing overhead: {overhead_s:+.3} s (traced pass − untraced pass)");
            layers::compute(spans, &passes[1], threads, overhead_s)
        }
    };

    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    let launch_samples: usize = passes.iter().map(|p| p.launch_host_ms.len()).sum();
    eprintln!(
        "{} seed {}: {} passes, {launch_samples} launch samples, fingerprint {:016x}, \
         {failed}/{attempted} operations failed",
        args.workload,
        args.seed,
        passes.len(),
        passes[0].fingerprint
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<42} {value:>16.6} {unit}");
    }
    let raw_wall_s = if raw_walls.is_empty() { passes[0].wall_s } else { median(raw_walls) };
    if !args.traced {
        eprintln!("host ran {slowdown:.3}x the reference host's time; unscaled wall_s about {raw_wall_s:.6}");
    }

    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"threads\": {threads}, \
         \"nproc\": {nproc}, \"profile\": \"{}\", \"obs\": {}, \"audit\": {}, \"passes\": {}, \
         \"launch_samples\": {launch_samples}, \"fingerprint\": \"{:016x}\", \
         \"expected\": \"{expected:016x}\", \"pinned\": {}, \"slowdown\": {slowdown}, \
         \"unscaled_wall_s\": {raw_wall_s}}}}}",
        args.workload,
        args.seed,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        cfg!(feature = "obs"),
        cfg!(feature = "audit"),
        passes.len(),
        passes[0].fingerprint,
        args.expect.is_some(),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && problems.is_empty(),
        body.join(", ")
    );
}
