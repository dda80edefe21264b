//! `repro` — regenerates every table and figure of the Fleet paper.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--seed N] [--export DIR] [--trace DIR] [--drilldown DIR]
//!       [--threads N] [--list] [SELECTOR ...]
//! ```
//!
//! A `SELECTOR` is an experiment id (`fig13`), an alias (`fig15`, `cdf`),
//! a driver module (`hot_launch`), or a glob over those (`fig1*`);
//! comma-separated lists work too (`repro hot_launch,fig11*`). With no
//! selector, `all` runs the full registry. `--list` prints the id table
//! with each experiment's one-line description.
//!
//! Experiments run in parallel (`--threads`, default: the machine's
//! parallelism). Each experiment's RNG seed is derived from `--seed` and
//! its id, so output — including `--export DIR` JSON, one file per
//! artifact — is bit-identical whatever the thread count.
//!
//! `--trace DIR` profiles each selected experiment: it runs sequentially
//! on the main thread under an installed observability pipeline and writes
//! `<id>.trace.json` (Chrome trace-event JSON; load it at
//! <https://ui.perfetto.dev>) plus `<id>.metrics.json` (counters, latency
//! histograms, time series) per experiment. Each trace is schema-validated
//! before it is written; a validation failure fails the run. Population
//! cohorts drop to one inline worker while a pipeline is installed, so
//! their traces are never silently empty.
//!
//! `--drilldown DIR` hands telemetry-style experiments (`fleet_telemetry`)
//! a directory for outlier drill-down artifacts: the top-K outlier
//! device-days are re-simulated standalone into `DIR/<id>/` as
//! `outlier_<n>.row.json` plus, in obs-enabled builds, a validated
//! `outlier_<n>.trace.json` and `outlier_<n>.metrics.json`.
//!
//! Each section prints the simulator's measurement next to the paper's
//! reported value. Absolute numbers are not expected to match (the
//! substrate is a simulator, not a Pixel 3); the *shape* — who wins, by
//! roughly what factor, where crossovers fall — is the reproduction target.
//! EXPERIMENTS.md records a snapshot of this output with commentary.

use fleet::experiment::export::ExportRecord;
use fleet::experiment::harness;
use fleet_metrics::Table;

struct Opts {
    quick: bool,
    seed: u64,
    what: Vec<String>,
    export: Option<std::path::PathBuf>,
    trace: Option<std::path::PathBuf>,
    drilldown: Option<std::path::PathBuf>,
    threads: usize,
    list: bool,
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: repro [--quick] [--seed N] [--export DIR] [--trace DIR] [--drilldown DIR] \
         [--threads N] [--list] [SELECTOR ...]"
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        quick: false,
        seed: 0xF1EE7,
        what: Vec::new(),
        export: None,
        trace: None,
        drilldown: None,
        threads: default_threads(),
        list: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--list" => opts.list = true,
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--seed needs a number"));
            }
            "--threads" => {
                opts.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage_error("--threads needs a positive number"));
            }
            "--export" => {
                let dir = args.next().unwrap_or_else(|| usage_error("--export needs a directory"));
                opts.export = Some(std::path::PathBuf::from(dir));
            }
            "--trace" => {
                let dir = args.next().unwrap_or_else(|| usage_error("--trace needs a directory"));
                opts.trace = Some(std::path::PathBuf::from(dir));
            }
            "--drilldown" => {
                let dir =
                    args.next().unwrap_or_else(|| usage_error("--drilldown needs a directory"));
                opts.drilldown = Some(std::path::PathBuf::from(dir));
            }
            other if other.starts_with('-') => usage_error(&format!("unknown flag `{other}`")),
            other => {
                opts.what.extend(other.split(',').filter(|s| !s.is_empty()).map(|s| s.to_string()))
            }
        }
    }
    if opts.what.is_empty() {
        opts.what.push("all".to_string());
    }
    opts
}

fn print_registry() {
    let mut t = Table::new(["Id", "Aliases", "Title"]);
    for exp in harness::REGISTRY {
        t.row([exp.id().to_string(), exp.aliases().join(", "), exp.title().to_string()]);
        t.row([String::new(), String::new(), format!("  {}", exp.description())]);
    }
    print!("{t}");
}

/// Runs `selected` sequentially on this thread under an installed
/// observability pipeline (and, with the `audit` feature, an audit
/// pipeline), writing a validated `<id>.trace.json` and `<id>.metrics.json`
/// per experiment into `dir`.
fn run_traced(
    selected: &[&'static dyn harness::Experiment],
    opts: &Opts,
    dir: &std::path::Path,
) -> Vec<harness::RunReport> {
    use std::time::Instant;
    let mut reports = Vec::new();
    for exp in selected {
        let pipelines = fleet::probe::Pipelines::default();
        let start = Instant::now();
        let result = pipelines.record(|| {
            let ctx = harness::ExperimentCtx {
                seed: harness::derive_seed(opts.seed, exp.id()),
                quick: opts.quick,
                drilldown: opts.drilldown.as_ref().map(|d| d.join(exp.id())),
            };
            exp.run(&ctx)
        });
        let elapsed = start.elapsed();
        eprintln!("done {:<18} ({:.1}s, traced)", exp.id(), elapsed.as_secs_f64());
        let result = result.and_then(|output| {
            let summary = pipelines.write_obs(dir, exp.id())?;
            println!(
                "[traced {} — {} spans on {} tracks, {}]",
                exp.id(),
                summary.spans,
                summary.tracks,
                dir.join(format!("{}.trace.json", exp.id())).display()
            );
            Ok(output)
        });
        reports.push(harness::RunReport { id: exp.id(), title: exp.title(), result, elapsed });
    }
    reports
}

fn main() {
    let opts = parse_args();
    if opts.list {
        print_registry();
        return;
    }

    let selected = match harness::select(&opts.what) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("run `repro --list` for the experiment table");
            std::process::exit(2);
        }
    };

    if let Some(dir) = &opts.export {
        if let Err(e) = std::fs::create_dir_all(dir) {
            usage_error(&format!("cannot create export dir {}: {e}", dir.display()));
        }
    }
    if let Some(dir) = &opts.trace {
        if let Err(e) = std::fs::create_dir_all(dir) {
            usage_error(&format!("cannot create trace dir {}: {e}", dir.display()));
        }
    }
    if let Some(dir) = &opts.drilldown {
        if let Err(e) = std::fs::create_dir_all(dir) {
            usage_error(&format!("cannot create drilldown dir {}: {e}", dir.display()));
        }
    }

    // Tracing installs a thread-local pipeline, so traced runs go inline on
    // this thread; the parallel pool keeps its run_experiments determinism
    // contract either way (seeds derive from --seed and the id alone).
    let reports = match &opts.trace {
        Some(dir) => run_traced(&selected, &opts, dir),
        None => harness::run_experiments(
            &selected,
            opts.seed,
            opts.quick,
            opts.threads,
            true,
            opts.drilldown.as_deref(),
        ),
    };

    let mut failed = false;
    for report in &reports {
        match &report.result {
            Ok(output) => {
                print!("{}", output.render());
                if let Some(dir) = &opts.export {
                    for artifact in &output.exports {
                        let record =
                            ExportRecord::new(&artifact.id, &artifact.paper, &artifact.data);
                        match record.write_to_dir(dir) {
                            Ok(path) => println!("[exported {}]", path.display()),
                            Err(e) => {
                                eprintln!("export of {} failed: {e}", artifact.id);
                                failed = true;
                            }
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("{} failed: {e}", report.id);
                failed = true;
            }
        }
    }

    println!();
    println!("done.");
    if failed {
        std::process::exit(1);
    }
}
