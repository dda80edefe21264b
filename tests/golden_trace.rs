//! Golden-trace regression suite.
//!
//! Three fast registry experiments run with the flight recorder attached;
//! the canonical event-stream fingerprint (event count, FNV-1a hash,
//! checkpoints, and the verbatim head of the stream) is committed under
//! `tests/golden/traces.txt`. Any behavioural drift in the kernel, heap,
//! GC or device layers changes the stream and fails this suite with a
//! structured diff of the first diverging event.
//!
//! With the `obs` feature the same three experiments also run traced, and
//! the span count plus the byte length and FNV-1a hash of the exported
//! `trace.json` and `metrics.json` are pinned in `tests/golden/obs.txt`.
//!
//! Intentional changes are re-blessed with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --features audit --test golden_trace
//! GOLDEN_BLESS=1 cargo test --release --features obs --test golden_trace obs
//! ```
#![cfg(any(feature = "audit", feature = "obs"))]

use fleet::experiment::harness::{derive_seed, ExperimentCtx, REGISTRY};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Master seed for the whole suite; per-experiment seeds derive from it.
const MASTER_SEED: u64 = 0xF1EE7;

/// The pinned experiments: each drives full `Device` stacks through the
/// kernel, heap and GC layers, and finishes in seconds under `quick`.
const GOLDEN_IDS: [&str; 3] = ["fig2", "fig5", "fig11"];

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file)
}

/// Runs `id` from the registry in quick mode at its golden seed, under
/// whatever pipelines the caller installed; returns the seed.
fn run_golden(id: &str) -> u64 {
    let exp = REGISTRY.iter().find(|e| e.id() == id).expect("golden id must be in REGISTRY");
    let seed = derive_seed(MASTER_SEED, id);
    let ctx = ExperimentCtx { seed, quick: true, drilldown: None };
    exp.run(&ctx).expect("golden experiment must run");
    seed
}

/// Compares `rendered` with the golden file at `path`, or rewrites the file
/// when `GOLDEN_BLESS` is set. On drift, panics with `explain(golden)`.
fn check_golden(path: &Path, rendered: &str, bless: &str, explain: impl FnOnce(&str) -> String) {
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        fs::write(path, rendered).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = fs::read_to_string(path).unwrap_or_else(|err| {
        panic!("missing golden file {} ({err}); generate it with {bless}", path.display())
    });
    if golden != rendered {
        panic!(
            "golden drift in {} — observable behaviour changed; if intentional, re-bless \
             with {bless} and justify in the commit message\n{}",
            path.display(),
            explain(&golden)
        );
    }
}

#[cfg(feature = "audit")]
mod audit {
    use super::*;
    use fleet::probe::{install, shared, AuditPipeline};

    const BLESS: &str = "GOLDEN_BLESS=1 cargo test --features audit --test golden_trace";

    /// One experiment's recorded fingerprint.
    struct Trace {
        id: &'static str,
        seed: u64,
        events: u64,
        hash: u64,
        checkpoints: Vec<(u64, u64)>,
        head: Vec<String>,
    }

    impl Trace {
        fn summary(&self) -> String {
            format!(
                "experiment={} seed={} quick=true events={} hash={:016x}",
                self.id, self.seed, self.events, self.hash
            )
        }
    }

    /// Runs `id` with a fresh audit pipeline installed and captures the
    /// recorder state.
    fn record(id: &'static str) -> Trace {
        let pipeline = shared::<AuditPipeline>();
        let seed = {
            let _guard = install(pipeline.clone());
            run_golden(id)
        };
        let pipe = pipeline.lock().unwrap();
        assert_eq!(pipe.auditor().violations(), 0, "{id}: auditor must stay clean");
        let rec = pipe.recorder();
        Trace {
            id,
            seed,
            events: rec.event_count(),
            hash: rec.hash(),
            checkpoints: rec.checkpoints().to_vec(),
            head: rec.head().to_vec(),
        }
    }

    /// Canonical text form of the golden file.
    fn render(traces: &[Trace]) -> String {
        let mut out = String::new();
        out.push_str("# Golden flight-recorder traces. Any drift means observable behaviour\n");
        out.push_str("# changed somewhere in kernel/heap/gc/device; re-bless intentional\n");
        let _ = writeln!(out, "# changes with: {BLESS}");
        let _ = writeln!(out, "# master_seed={MASTER_SEED:#x}");
        for t in traces {
            out.push('\n');
            let _ = writeln!(out, "{}", t.summary());
            for (count, hash) in &t.checkpoints {
                let _ = writeln!(out, "checkpoint {count} {hash:016x}");
            }
            for (i, line) in t.head.iter().enumerate() {
                let _ = writeln!(out, "head {} {}", i + 1, line);
            }
        }
        out
    }

    /// A parsed golden-file section.
    struct Section {
        summary: String,
        checkpoints: Vec<String>,
        head: Vec<String>,
    }

    fn parse(text: &str) -> Vec<(String, Section)> {
        let mut out: Vec<(String, Section)> = Vec::new();
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("experiment=") {
                let id = rest.split_whitespace().next().unwrap_or("").to_string();
                out.push((
                    id,
                    Section {
                        summary: line.to_string(),
                        checkpoints: Vec::new(),
                        head: Vec::new(),
                    },
                ));
            } else if let Some((_, section)) = out.last_mut() {
                if line.starts_with("checkpoint ") {
                    section.checkpoints.push(line.to_string());
                } else if let Some(rest) = line.strip_prefix("head ") {
                    // "head <n> <event>" — keep only the event.
                    let event = rest.split_once(' ').map(|(_, e)| e).unwrap_or("");
                    section.head.push(event.to_string());
                }
            }
        }
        out
    }

    /// Localizes the drift for one experiment: the exact first diverging
    /// head event when it happens early, else the first diverging
    /// checkpoint block.
    fn explain_drift(golden: &Section, fresh: &Trace) -> String {
        let mut msg = String::new();
        let _ = writeln!(msg, "  golden: {}", golden.summary);
        let _ = writeln!(msg, "  fresh:  {}", fresh.summary());
        for (i, (g, f)) in golden.head.iter().zip(&fresh.head).enumerate() {
            if g != f {
                let _ = writeln!(msg, "  first diverging event is head #{}:", i + 1);
                let _ = writeln!(msg, "    golden: {g}");
                let _ = writeln!(msg, "    fresh:  {f}");
                return msg;
            }
        }
        if golden.head.len() != fresh.head.len() {
            let _ = writeln!(
                msg,
                "  head streams agree but lengths differ: golden {} vs fresh {} events",
                golden.head.len(),
                fresh.head.len()
            );
            return msg;
        }
        let fresh_cps: Vec<String> = fresh
            .checkpoints
            .iter()
            .map(|(count, hash)| format!("checkpoint {count} {hash:016x}"))
            .collect();
        for (i, g) in golden.checkpoints.iter().enumerate() {
            match fresh_cps.get(i) {
                Some(f) if f == g => continue,
                Some(f) => {
                    let _ = writeln!(msg, "  first diverging checkpoint:");
                    let _ = writeln!(msg, "    golden: {g}");
                    let _ = writeln!(msg, "    fresh:  {f}");
                    return msg;
                }
                None => {
                    let _ = writeln!(msg, "  fresh stream ends before golden {g}");
                    return msg;
                }
            }
        }
        let _ = writeln!(msg, "  streams diverge after the recorded head/checkpoint window");
        msg
    }

    #[test]
    fn golden_traces_match() {
        let traces: Vec<Trace> = GOLDEN_IDS.map(record).into_iter().collect();
        check_golden(&golden_path("traces.txt"), &render(&traces), BLESS, |golden_text| {
            let golden = parse(golden_text);
            let mut msg = String::new();
            for trace in &traces {
                match golden.iter().find(|(id, _)| id == trace.id) {
                    Some((_, section)) => {
                        if section.summary != trace.summary()
                            || section.head.iter().ne(trace.head.iter())
                        {
                            let _ = writeln!(msg, "{}:", trace.id);
                            msg.push_str(&explain_drift(section, trace));
                        }
                    }
                    None => {
                        let _ = writeln!(msg, "{}: not present in golden file", trace.id);
                    }
                }
            }
            msg
        });
    }

    /// The recorder fingerprint of a golden experiment is bit-stable across
    /// repeated in-process runs — the property the golden file relies on.
    #[test]
    fn golden_recording_is_deterministic() {
        let a = record("fig5");
        let b = record("fig5");
        assert_eq!(a.events, b.events);
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.head, b.head);
    }
}

#[cfg(feature = "obs")]
mod obs {
    use super::*;
    use fleet::probe::{install, shared, ObsPipeline};

    const BLESS: &str =
        "GOLDEN_BLESS=1 cargo test --release --features obs --test golden_trace obs";

    /// 64-bit FNV-1a over `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Runs `id` traced under a fresh obs pipeline; returns its golden line.
    fn record(id: &str) -> String {
        let pipeline = shared::<ObsPipeline>();
        let seed = {
            let _guard = install(pipeline.clone());
            run_golden(id)
        };
        let pipe = pipeline.lock().unwrap();
        let (trace, metrics) = (pipe.trace_json(), pipe.metrics_json());
        let alloc = pipe.spans().iter().filter(|s| s.name == "alloc").count();
        format!(
            "experiment={id} seed={seed} quick=true spans={} alloc_spans={alloc} \
             trace_bytes={} trace_fnv={:016x} metrics_bytes={} metrics_fnv={:016x}",
            pipe.spans().len(),
            trace.len(),
            fnv1a(trace.as_bytes()),
            metrics.len(),
            fnv1a(metrics.as_bytes()),
        )
    }

    /// The obs exports of the golden experiments: any change to where a
    /// span lands, or to a metric, changes a hash here.
    #[test]
    fn golden_obs_exports_match() {
        let lines: Vec<String> = GOLDEN_IDS.iter().map(|id| record(id)).collect();
        let mut rendered = String::new();
        rendered.push_str("# Golden obs exports (trace.json and metrics.json) of traced quick\n");
        let _ = writeln!(rendered, "# runs; re-bless intentional changes with: {BLESS}");
        let _ = writeln!(rendered, "# master_seed={MASTER_SEED:#x}");
        for line in &lines {
            let _ = writeln!(rendered, "\n{line}");
        }
        check_golden(&golden_path("obs.txt"), &rendered, BLESS, |golden| {
            let mut msg = String::new();
            for line in &lines {
                if !golden.lines().any(|g| g == line) {
                    let _ = writeln!(msg, "  fresh: {line}");
                }
            }
            msg
        });
    }
}
