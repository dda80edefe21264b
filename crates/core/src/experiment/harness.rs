//! The experiment harness: a uniform driver API and a parallel runner.
//!
//! Every table and figure of the paper is an [`Experiment`]: a named unit
//! that takes an [`ExperimentCtx`] (its derived seed and the quick/full
//! switch) and returns an [`ExperimentOutput`] — render blocks for the
//! terminal plus serialisable export artifacts. The [`REGISTRY`] lists all
//! of them in paper order; [`select`] resolves user selectors (ids,
//! aliases, module names, `fig1*` globs) against it; [`run_experiments`]
//! executes a selection on a thread pool.
//!
//! Determinism contract: each experiment's RNG seed is [`derive_seed`]d
//! from the master seed and the experiment id, so a run's output depends
//! only on `(master seed, id, quick)` — never on which other experiments
//! run, in what order, or on how many threads. `tests/determinism.rs`
//! pins the parallel/sequential equivalence down.

use crate::error::FleetError;
use fleet_metrics::Table;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-experiment run context.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// This experiment's RNG seed, already derived from the master seed
    /// and the experiment id (see [`derive_seed`]).
    pub seed: u64,
    /// Trade fidelity for speed: fewer launches, shorter usage windows.
    pub quick: bool,
    /// Where this experiment should write outlier drill-down artifacts
    /// (already suffixed with the experiment id), or `None` when
    /// `--drilldown` was not given. Only telemetry-style experiments look
    /// at it.
    pub drilldown: Option<std::path::PathBuf>,
}

impl ExperimentCtx {
    /// The standard per-app launch count (§7.2 uses 20; quick runs 6).
    pub fn launches(&self) -> usize {
        if self.quick {
            6
        } else {
            20
        }
    }
}

/// One renderable piece of an experiment's terminal output.
#[derive(Debug, Clone)]
pub enum RenderBlock {
    /// A `====`-framed section header.
    Section(String),
    /// An aligned text table.
    Table(Table),
    /// A free-form line (commentary, paper references).
    Text(String),
}

/// A record destined for `--export DIR` as `<id>.json`.
///
/// The paper's artifact feeds raw measurements into Jupyter notebooks; the
/// analogue here is one pretty-printed JSON document per experiment that
/// any notebook or plotting script can consume.
#[derive(Debug, Clone, Serialize)]
pub struct ExportArtifact {
    /// Export file stem (e.g. "fig13").
    pub id: String,
    /// What the paper reports, stored alongside the data for side-by-side
    /// reading.
    pub paper_reference: String,
    /// The measured records, already serialised.
    pub data: serde::Value,
}

impl ExportArtifact {
    /// Writes the artifact as pretty JSON to `<dir>/<id>.json`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the directory is missing or unwritable.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(format!("{}.json", self.id));
        let json = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        std::fs::write(&path, json + "\n")?;
        Ok(path)
    }
}

/// What an experiment produces: render blocks in display order plus any
/// export artifacts.
#[derive(Debug, Clone, Default)]
pub struct ExperimentOutput {
    /// Terminal output, in order.
    pub blocks: Vec<RenderBlock>,
    /// JSON export payloads.
    pub exports: Vec<ExportArtifact>,
}

impl ExperimentOutput {
    /// An empty output.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section header.
    pub fn section(&mut self, title: impl Into<String>) {
        self.blocks.push(RenderBlock::Section(title.into()));
    }

    /// Appends a table.
    pub fn table(&mut self, table: Table) {
        self.blocks.push(RenderBlock::Table(table));
    }

    /// Appends a free-form line.
    pub fn text(&mut self, line: impl Into<String>) {
        self.blocks.push(RenderBlock::Text(line.into()));
    }

    /// Registers `data` for `--export DIR` under `<id>.json`, paired with
    /// the paper's reported value for side-by-side reading.
    pub fn export<T: Serialize>(
        &mut self,
        id: impl Into<String>,
        paper: impl Into<String>,
        data: &T,
    ) {
        self.exports.push(ExportArtifact {
            id: id.into(),
            paper_reference: paper.into(),
            data: data.to_value(),
        });
    }

    /// Renders the blocks as the `repro` binary prints them.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for block in &self.blocks {
            match block {
                RenderBlock::Section(title) => {
                    let _ = writeln!(out);
                    let _ = writeln!(out, "{}", "=".repeat(64));
                    let _ = writeln!(out, "{title}");
                    let _ = writeln!(out, "{}", "=".repeat(64));
                }
                RenderBlock::Table(t) => {
                    let _ = write!(out, "{t}");
                }
                RenderBlock::Text(line) => {
                    let _ = writeln!(out, "{line}");
                }
            }
        }
        out
    }
}

/// One table or figure of the paper, runnable by id.
pub trait Experiment: Sync {
    /// Canonical selector and export stem (e.g. "fig13").
    fn id(&self) -> &'static str;
    /// Human title printed by `repro --list`.
    fn title(&self) -> &'static str;
    /// One-line summary of what the experiment measures, printed under the
    /// title by `repro --list`.
    fn description(&self) -> &'static str;
    /// The `experiment::` submodule this driver lives in; also a selector.
    fn module(&self) -> &'static str;
    /// Extra selectors that resolve to this experiment (e.g. "fig15" for
    /// the fig13 experiment, which renders both).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }
    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Drivers are infallible simulations today, but the signature leaves
    /// room for config/export failures ([`FleetError`]).
    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, FleetError>;
}

/// All experiments, in paper order. `repro all` runs exactly this list.
pub static REGISTRY: &[&dyn Experiment] = &[
    &crate::experiment::tables::Table1,
    &crate::experiment::tables::Table2,
    &crate::experiment::tables::Table3,
    &crate::experiment::launch_basics::Fig2,
    &crate::experiment::hot_launch::Fig3,
    &crate::experiment::access_trace::Fig4,
    &crate::experiment::lifetimes::Fig5,
    &crate::experiment::reaccess::Fig6,
    &crate::experiment::object_sizes::Fig7,
    &crate::experiment::caching::Fig11,
    &crate::experiment::gc_working_set::Fig12,
    &crate::experiment::hot_launch::Fig13,
    &crate::experiment::frames::Fig14,
    &crate::experiment::runtime::CpuUsage,
    &crate::experiment::runtime::Power,
    &crate::experiment::runtime::MemoryOverhead,
    &crate::experiment::sensitivity::Sensitivity,
    &crate::experiment::scenario::Scenario,
    &crate::experiment::ablation::Ablation,
    &crate::experiment::resilience::Resilience,
    &crate::experiment::chaos::Chaos,
    &crate::experiment::attribution::LaunchAttribution,
    &crate::experiment::swap_tiers::SwapTiers,
    &crate::experiment::proactive_reclaim::ProactiveReclaim,
    &crate::experiment::population::Population,
    &crate::experiment::fleet_telemetry::FleetTelemetry,
];

/// Derives an experiment's RNG seed from the master seed and its id.
///
/// FNV-1a over the id, mixed with the master seed through a splitmix64
/// finaliser: stable across runs and platforms, and two experiments never
/// share a stream even under the same master seed.
pub fn derive_seed(master: u64, id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in id.bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = master ^ h;
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Does `pattern` (with `*` and `?` wildcards) match `text`?
fn glob_match(pattern: &str, text: &str) -> bool {
    fn matches(p: &[u8], t: &[u8]) -> bool {
        match (p.first(), t.first()) {
            (None, None) => true,
            (Some(b'*'), _) => matches(&p[1..], t) || (!t.is_empty() && matches(p, &t[1..])),
            (Some(b'?'), Some(_)) => matches(&p[1..], &t[1..]),
            (Some(a), Some(b)) if a == b => matches(&p[1..], &t[1..]),
            _ => false,
        }
    }
    matches(pattern.as_bytes(), text.as_bytes())
}

fn selector_matches(selector: &str, exp: &dyn Experiment) -> bool {
    let names = std::iter::once(exp.id())
        .chain(std::iter::once(exp.module()))
        .chain(exp.aliases().iter().copied());
    if selector.contains('*') || selector.contains('?') {
        names.into_iter().any(|n| glob_match(selector, n))
    } else {
        names.into_iter().any(|n| n == selector)
    }
}

/// Resolves selectors against the [`REGISTRY`].
///
/// A selector is `all`, an experiment id, an alias, a module name, or a
/// glob over any of those (`fig1*`). The result is deduplicated and in
/// registry (paper) order regardless of selector order.
///
/// # Errors
///
/// [`FleetError::UnknownExperiment`] for the first selector that matches
/// nothing.
pub fn select(selectors: &[String]) -> Result<Vec<&'static dyn Experiment>, FleetError> {
    for sel in selectors {
        if sel != "all" && !REGISTRY.iter().any(|e| selector_matches(sel, *e)) {
            return Err(FleetError::UnknownExperiment(sel.clone()));
        }
    }
    Ok(REGISTRY
        .iter()
        .filter(|e| selectors.iter().any(|s| s == "all" || selector_matches(s, **e)))
        .copied()
        .collect())
}

/// The outcome of one experiment run.
pub struct RunReport {
    /// The experiment's id.
    pub id: &'static str,
    /// The experiment's title.
    pub title: &'static str,
    /// Its output, or the error that stopped it.
    pub result: Result<ExperimentOutput, FleetError>,
    /// Wall-clock time the run took.
    pub elapsed: Duration,
}

/// Runs `selected` on up to `threads` worker threads.
///
/// Each experiment gets its own seed via [`derive_seed`], so the reports —
/// returned in `selected` order — are identical whatever `threads` is.
/// With `progress`, a `done <id> (<secs>)` line goes to stderr as each
/// experiment finishes (completion order, the one place parallelism shows).
/// A `drilldown` directory is forwarded to each experiment as
/// `drilldown/<id>` (only telemetry-style experiments write there).
pub fn run_experiments(
    selected: &[&'static dyn Experiment],
    master_seed: u64,
    quick: bool,
    threads: usize,
    progress: bool,
    drilldown: Option<&std::path::Path>,
) -> Vec<RunReport> {
    let threads = threads.clamp(1, selected.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunReport>>> = selected.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(exp) = selected.get(i) else { break };
                let ctx = ExperimentCtx {
                    seed: derive_seed(master_seed, exp.id()),
                    quick,
                    drilldown: drilldown.map(|d| d.join(exp.id())),
                };
                let start = Instant::now();
                let result = exp.run(&ctx);
                let elapsed = start.elapsed();
                if progress {
                    eprintln!(
                        "done {:<12} ({:.1}s{})",
                        exp.id(),
                        elapsed.as_secs_f64(),
                        if result.is_err() { ", FAILED" } else { "" }
                    );
                }
                *slots[i].lock().expect("slot lock") =
                    Some(RunReport { id: exp.id(), title: exp.title(), result, elapsed });
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot lock").expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The compile-time list of `experiment::` submodules (minus the
    /// harness itself). Kept literally in sync
    /// with `mod.rs` so a new driver module cannot be forgotten here.
    const DRIVER_MODULES: &[&str] = &[
        "ablation",
        "access_trace",
        "attribution",
        "caching",
        "chaos",
        "fleet_telemetry",
        "frames",
        "gc_working_set",
        "hot_launch",
        "launch_basics",
        "lifetimes",
        "object_sizes",
        "population",
        "proactive_reclaim",
        "reaccess",
        "resilience",
        "runtime",
        "scenario",
        "sensitivity",
        "swap_tiers",
        "tables",
    ];

    #[test]
    fn registry_ids_and_aliases_are_unique() {
        let mut seen = BTreeSet::new();
        for exp in REGISTRY {
            assert!(seen.insert(exp.id()), "duplicate id {}", exp.id());
            for alias in exp.aliases() {
                assert!(seen.insert(*alias), "alias {alias} collides");
            }
        }
    }

    #[test]
    fn every_experiment_has_a_description() {
        for exp in REGISTRY {
            let d = exp.description();
            assert!(!d.trim().is_empty(), "{} has an empty description", exp.id());
            assert!(!d.contains('\n'), "{} description must be one line", exp.id());
            assert!(d.len() <= 90, "{} description too long for --list", exp.id());
        }
    }

    #[test]
    fn every_driver_module_is_registered() {
        let registered: BTreeSet<&str> = REGISTRY.iter().map(|e| e.module()).collect();
        for module in DRIVER_MODULES {
            assert!(registered.contains(module), "module {module} has no experiment");
        }
        for module in &registered {
            assert!(DRIVER_MODULES.contains(module), "unknown module {module}");
        }
    }

    #[test]
    fn selectors_resolve_ids_aliases_modules_and_globs() {
        let ids = |sel: &str| -> Vec<&str> {
            select(&[sel.to_string()]).unwrap().iter().map(|e| e.id()).collect()
        };
        assert_eq!(ids("fig13"), ["fig13"]);
        assert_eq!(ids("fig15"), ["fig13"], "alias resolves to its experiment");
        assert_eq!(ids("hot_launch"), ["fig3", "fig13"], "module selects all its drivers");
        assert_eq!(ids("table*"), ["table1", "table2", "table3"]);
        assert_eq!(select(&["all".into()]).unwrap().len(), REGISTRY.len());
        // Dedup + registry order even with overlapping, shuffled selectors.
        let both = select(&["fig13".into(), "fig2".into(), "hot_launch".into()]).unwrap();
        let got: Vec<&str> = both.iter().map(|e| e.id()).collect();
        assert_eq!(got, ["fig2", "fig3", "fig13"]);
        assert!(matches!(
            select(&["fig99".into()]),
            Err(FleetError::UnknownExperiment(s)) if s == "fig99"
        ));
    }

    #[test]
    fn round_trips_through_json() {
        #[derive(Serialize)]
        struct Row {
            app: String,
            value: f64,
        }
        let mut out = ExperimentOutput::new();
        out.export("fig_test", "paper: 1.59x", &vec![Row { app: "Twitter".into(), value: 273.0 }]);
        let json = serde_json::to_string_pretty(&out.exports[0]).unwrap();
        assert!(json.contains("\"id\": \"fig_test\""));
        assert!(json.contains("\"paper_reference\": \"paper: 1.59x\""));
        assert!(json.contains("Twitter"));
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["data"][0]["value"], 273.0);
    }

    #[test]
    fn writes_a_file() {
        let dir = std::env::temp_dir().join(format!("fleet-export-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut out = ExperimentOutput::new();
        out.export("fig_demo", "ref", &vec![1, 2, 3]);
        let path = out.exports[0].write_to_dir(&dir).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("fig_demo"));
        assert!(body.ends_with("}\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(7, "fig13"), derive_seed(7, "fig13"));
        assert_ne!(derive_seed(7, "fig13"), derive_seed(8, "fig13"));
        let mut seeds = BTreeSet::new();
        for exp in REGISTRY {
            assert!(seeds.insert(derive_seed(0xF1EE7, exp.id())), "seed collision");
        }
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("fig1*", "fig13"));
        assert!(glob_match("fig1?", "fig12"));
        assert!(glob_match("*", "anything"));
        assert!(!glob_match("fig1*", "fig2"));
        assert!(!glob_match("fig1?", "fig1"));
    }

    #[test]
    fn render_frames_sections_and_keeps_order() {
        let mut out = ExperimentOutput::new();
        out.section("Title");
        out.text("a line");
        let rendered = out.render();
        assert!(rendered.contains("================"));
        assert!(rendered.contains("Title"));
        assert!(rendered.ends_with("a line\n"));
    }
}
