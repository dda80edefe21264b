//! Property tests over span placement (`--features obs`).
//!
//! Random launch/switch/kill/run scripts drive a traced device; whatever
//! the script does, the placed spans must keep the tracer's structural
//! invariants — proper nesting, sibling non-overlap, monotone roots — and
//! the exported Chrome trace must pass the schema validator. A second run
//! of the same script must place the identical spans.
#![cfg(feature = "obs")]

use fleet::probe::{install, shared, validate_chrome_trace, ObsPipeline, PlacedSpan};
use fleet::{Device, DeviceConfig, SchemeKind};
use fleet_apps::profile_by_name;
use proptest::prelude::*;

const APPS: [&str; 4] = ["Twitter", "Youtube", "Chrome", "Telegram"];

/// One scripted action against the device.
#[derive(Debug, Clone, Copy)]
enum Action {
    Launch(u8),
    Switch(u8),
    Kill(u8),
    Run(u8),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u8..4).prop_map(Action::Launch),
        (0u8..8).prop_map(Action::Switch),
        (0u8..8).prop_map(Action::Kill),
        (1u8..5).prop_map(Action::Run),
    ]
}

/// Runs a script under an installed pipeline and returns the placed spans.
fn run_script(scheme: SchemeKind, seed: u64, script: &[Action]) -> Vec<PlacedSpan> {
    let pipeline = shared::<ObsPipeline>();
    {
        let _guard = install(pipeline.clone());
        let mut config = DeviceConfig::pixel3(scheme);
        config.seed = seed;
        let mut dev = Device::new(config);
        for &action in script {
            match action {
                Action::Launch(i) => {
                    let app = profile_by_name(APPS[i as usize % APPS.len()]).unwrap();
                    dev.launch_cold(&app);
                }
                Action::Switch(i) => {
                    let alive = dev.alive();
                    if !alive.is_empty() {
                        let pid = alive[i as usize % alive.len()];
                        if dev.foreground() != Some(pid) {
                            dev.switch_to(pid);
                        }
                    }
                }
                Action::Kill(i) => {
                    let alive = dev.alive();
                    if !alive.is_empty() {
                        dev.kill(alive[i as usize % alive.len()]);
                    }
                }
                Action::Run(secs) => dev.run(secs as u64),
            }
        }
    }
    let pipe = pipeline.lock().unwrap();
    let trace = pipe.trace_json();
    validate_chrome_trace(&trace).expect("exported trace must pass the schema validator");
    pipe.spans().to_vec()
}

/// Structural invariants over placed spans, checked directly (the JSON
/// validator re-checks them after the microsecond round-trip).
fn check_nesting(spans: &[PlacedSpan]) {
    use std::collections::BTreeMap;
    let mut by_track: BTreeMap<u64, Vec<&PlacedSpan>> = BTreeMap::new();
    for s in spans {
        by_track.entry(s.track).or_default().push(s);
    }
    for (track, spans) in by_track {
        // Replay placement order with an enclosing-span stack.
        let mut stack: Vec<&PlacedSpan> = Vec::new();
        for s in spans {
            while let Some(top) = stack.last() {
                if s.start >= top.end() {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                assert!(
                    s.start >= top.start && s.end() <= top.end(),
                    "track {track}: span {} [{}, {}) escapes its parent {} [{}, {})",
                    s.name,
                    s.start,
                    s.end(),
                    top.name,
                    top.start,
                    top.end()
                );
            }
            stack.push(s);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_scripts_place_nested_deterministic_spans(
        seed in 1u64..500,
        script in proptest::collection::vec(action_strategy(), 5..25),
    ) {
        let spans = run_script(SchemeKind::Fleet, seed, &script);
        check_nesting(&spans);
        // Same script, fresh pipeline: identical placement.
        let again = run_script(SchemeKind::Fleet, seed, &script);
        prop_assert_eq!(spans, again);
    }

    #[test]
    fn all_schemes_trace_cleanly(
        seed in 1u64..100,
        script in proptest::collection::vec(action_strategy(), 5..15),
    ) {
        for scheme in [SchemeKind::Android, SchemeKind::Marvin, SchemeKind::Fleet] {
            let spans = run_script(scheme, seed, &script);
            check_nesting(&spans);
        }
    }
}
