//! End-to-end smoke tests of the observability layer (`--features obs`).
//!
//! The contract under test, in order of importance:
//! * the launch span family reconciles — `cpu` + `fault_in` + `gc_pause`
//!   children tile the `launch_hot` root exactly (the `launch_attribution`
//!   experiment's decomposition is the same arithmetic),
//! * installing a pipeline observes without perturbing — simulation
//!   results are bit-identical with and without tracing,
//! * the exporters hold their schemas — the Chrome trace validates and
//!   `metrics.json` carries the expected metric families.
#![cfg(feature = "obs")]

use fleet::prelude::AppPool;
use fleet::probe::{install, shared, validate_chrome_trace, ObsPipeline, PlacedSpan};
use fleet::SchemeKind;

fn pool_apps() -> Vec<String> {
    ["Twitter", "Youtube", "Chrome", "Spotify"].iter().map(|s| s.to_string()).collect()
}

/// Scans placed spans for each `launch_hot` root and returns it with its
/// depth-1 children. Children are the spans the tracer placed immediately
/// after their root (one `feed_batch` per launch keeps the family
/// contiguous).
fn launch_families(spans: &[PlacedSpan]) -> Vec<(&PlacedSpan, Vec<&PlacedSpan>)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < spans.len() {
        if spans[i].name == "launch_hot" {
            let mut children = Vec::new();
            let mut j = i + 1;
            while j < spans.len() && spans[j].depth > spans[i].depth {
                if spans[j].depth == spans[i].depth + 1 {
                    children.push(&spans[j]);
                }
                j += 1;
            }
            out.push((&spans[i], children));
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

#[test]
fn launch_span_children_tile_the_root_exactly() {
    const APP: &str = "Twitter";
    let pipeline = shared::<ObsPipeline>();
    let (reports, launch_gc_faulted) = {
        let _guard = install(pipeline.clone());
        let mut pool = AppPool::under_pressure(SchemeKind::Fleet, &pool_apps(), 23).unwrap();
        let reports = pool.measure_hot_launches(APP, 3).unwrap();
        // A launch GC is recorded at its launch's start instant.
        let faulting_gcs: Vec<_> = pool
            .device()
            .processes()
            .filter(|p| p.name == APP)
            .flat_map(|p| &p.gcs)
            .filter(|gc| gc.stats.fault_stall.as_nanos() > 0)
            .map(|gc| gc.at)
            .collect();
        let faulted = reports.iter().any(|r| faulting_gcs.contains(&r.at));
        (reports, faulted)
    };
    assert_eq!(reports.len(), 3);
    assert!(launch_gc_faulted, "the run must include a launch GC that faults");
    let pipe = pipeline.lock().unwrap();
    let families = launch_families(pipe.spans());
    assert!(
        families.len() >= reports.len(),
        "every measured hot launch must leave a launch_hot span"
    );
    for (root, children) in &families {
        assert!(root.dur > 0, "a hot launch under pressure takes time");
        let sum: u64 = children.iter().map(|c| c.dur).sum();
        // The acceptance bar is 1%; the construction makes it exact.
        let err = root.dur.abs_diff(sum) as f64 / root.dur as f64;
        assert!(err < 0.01, "children ({sum} ns) must reconcile with the root ({} ns)", root.dur);
        assert_eq!(sum, root.dur, "the tiling is exact by construction");
    }
    // Each measured launch's children are its report's spans: the launch
    // GC's faults count as fault-in, as they do in the report.
    for r in &reports {
        let (root, children) = families
            .iter()
            .find(|(root, _)| {
                root.dur == r.total.as_nanos()
                    && root.args.contains(&("faulted_pages", r.faulted_pages))
            })
            .expect("a measured hot launch left no launch_hot span");
        let (cpu, fault_in, gc_pause) = r.spans();
        let got: Vec<(&str, u64)> = children.iter().map(|c| (c.name, c.dur)).collect();
        let want = [
            ("cpu", cpu.as_nanos()),
            ("fault_in", fault_in.as_nanos()),
            ("gc_pause", gc_pause.as_nanos()),
        ];
        assert_eq!(got, want, "launch at {} ns (root {} ns)", r.at.as_nanos(), root.dur);
    }
}

#[test]
fn installed_pipeline_does_not_perturb_the_simulation() {
    let baseline = {
        let mut pool = AppPool::under_pressure(SchemeKind::Fleet, &pool_apps(), 41).unwrap();
        pool.measure_hot_launches("Twitter", 3).unwrap()
    };
    let traced = {
        let pipeline = shared::<ObsPipeline>();
        let _guard = install(pipeline);
        let mut pool = AppPool::under_pressure(SchemeKind::Fleet, &pool_apps(), 41).unwrap();
        pool.measure_hot_launches("Twitter", 3).unwrap()
    };
    assert_eq!(format!("{baseline:?}"), format!("{traced:?}"), "tracing must observe, never steer");
}

#[test]
fn exporters_hold_their_schemas() {
    let pipeline = shared::<ObsPipeline>();
    {
        let _guard = install(pipeline.clone());
        let mut pool = AppPool::under_pressure(SchemeKind::Android, &pool_apps(), 7).unwrap();
        pool.measure_hot_launches("Chrome", 2).unwrap();
        pool.device_mut().run(10);
    }
    let pipe = pipeline.lock().unwrap();
    let summary = validate_chrome_trace(&pipe.trace_json()).expect("trace must validate");
    assert!(summary.spans > 0, "the protocol must leave spans");
    assert!(summary.tracks >= 2, "kernel track plus at least one app track");
    let metrics = pipe.metrics();
    assert!(metrics.counter("launch.hot") >= 2);
    assert!(metrics.counter("gc.collections") > 0, "pressure must trigger GCs");
    assert!(metrics.histogram("launch.total_ns").is_some(), "launch latency histogram must exist");
    assert!(
        metrics.histogram("kernel.fault_service_ns").is_some(),
        "fault-service latency histogram must exist"
    );
    assert!(
        metrics.series("mem.used_frames").is_some_and(|s| !s.is_empty()),
        "run() slices must sample the occupancy series"
    );
    let json = pipe.metrics_json();
    assert!(json.contains("\"schema_version\""));
    assert!(json.contains("launch.total_ns"));
}

#[test]
fn uninstalled_runs_record_nothing() {
    // No install: devices find no pipeline, logs stay disabled, and a
    // later reader sees an empty tracer — the default-off quiet gate.
    let mut pool = AppPool::under_pressure(SchemeKind::Fleet, &pool_apps(), 5).unwrap();
    pool.measure_hot_launches("Twitter", 1).unwrap();
    let pipeline = shared::<ObsPipeline>();
    let pipe = pipeline.lock().unwrap();
    assert!(pipe.spans().is_empty());
    assert_eq!(pipe.metrics().counter("launch.hot"), 0);
}

#[test]
fn swam_daemon_emits_proactive_reclaim_spans() -> Result<(), fleet::FleetError> {
    // The proactive daemon's drains surface on the kernel track: one
    // `proactive_reclaim` root per firing tick, plus the matching pages
    // counter — and only when the policy is Swam (the goldens pin the
    // default-off silence).
    use fleet::{Device, DeviceConfig, KillPolicy, ReclaimPolicy, SwamParams};
    use fleet_apps::profile_by_name;
    let pipeline = shared::<ObsPipeline>();
    let pages = {
        let _guard = install(pipeline.clone());
        let swam = ReclaimPolicy::Swam(SwamParams { idle_epochs: 1, ..SwamParams::default() });
        let config = DeviceConfig {
            reclaim_policy: swam,
            kill_policy: KillPolicy::WssWeighted,
            seed: 9,
            ..DeviceConfig::pixel3(SchemeKind::Fleet)
        };
        let mut dev = Device::try_new(config)?;
        for name in pool_apps() {
            dev.launch_cold(&profile_by_name(&name).unwrap());
            dev.run(10);
        }
        dev.run(120);
        dev.mm().stats().proactive_swapout_pages
    };
    assert!(pages > 0, "the single-epoch daemon must have drained an idle app");
    let pipe = pipeline.lock().unwrap();
    let drains: Vec<&PlacedSpan> =
        pipe.spans().iter().filter(|s| s.name == "proactive_reclaim").collect();
    assert!(!drains.is_empty(), "every firing tick must leave a span");
    let reclaimed: u64 = drains
        .iter()
        .map(|s| {
            assert_eq!(s.cat, "kernel");
            assert_eq!(s.depth, 0, "proactive_reclaim is a kernel-track root");
            s.args
                .iter()
                .find(|(k, _)| *k == "reclaimed")
                .map(|(_, v)| *v)
                .expect("span carries the reclaimed page count")
        })
        .sum();
    assert_eq!(reclaimed, pages, "span args must reconcile with the kernel counter");
    assert_eq!(pipe.metrics().counter("kernel.proactive_swapout_pages"), pages);
    Ok(())
}
