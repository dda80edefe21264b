//! Randomized end-to-end smoke test under the online invariant auditor.
//!
//! Seeded random launch/switch/kill scenarios stream every cross-layer
//! transition through the flight recorder and the shadow-state auditor
//! (which panics with the event ring on the first violation), and the
//! canonical event-stream hash must be bit-identical across two runs of
//! the same scenario.
#![cfg(feature = "audit")]

use fleet::probe::{install, shared, AuditPipeline};
use fleet::{Device, DeviceConfig, FleetError, SchemeKind};
use fleet_apps::profile_by_name;

const APPS: [&str; 4] = ["Twitter", "Youtube", "Chrome", "Telegram"];

/// splitmix64 — the scenario script generator. Independent from the
/// device's own seeded RNG streams so scenario shape and simulation noise
/// cannot alias.
struct Script(u64);

impl Script {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Runs one seeded scenario with the auditor installed and returns the
/// recorder fingerprint `(event_count, hash)`.
fn run_scenario(scheme: SchemeKind, seed: u64) -> Result<(u64, u64), FleetError> {
    let pipeline = shared::<AuditPipeline>();
    let _guard = install(pipeline.clone());
    let mut config = DeviceConfig::pixel3(scheme);
    config.seed = seed;
    let mut dev = Device::try_new(config)?;
    let mut script = Script(seed);
    for _ in 0..30 {
        match script.below(10) {
            0..=3 => {
                let app = profile_by_name(APPS[script.below(APPS.len() as u64) as usize]).unwrap();
                dev.launch_cold(&app);
            }
            4..=6 => {
                let alive = dev.alive();
                if !alive.is_empty() {
                    let pid = alive[script.below(alive.len() as u64) as usize];
                    if dev.foreground() != Some(pid) {
                        dev.try_switch_to(pid)?;
                    }
                }
            }
            7 => {
                let alive = dev.alive();
                if !alive.is_empty() {
                    dev.kill(alive[script.below(alive.len() as u64) as usize]);
                }
            }
            _ => dev.run(1 + script.below(5)),
        }
    }
    drop(dev);
    let pipe = pipeline.lock().unwrap();
    assert_eq!(pipe.auditor().violations(), 0, "auditor must stay clean");
    assert!(pipe.recorder().event_count() > 0, "scenario must record events");
    Ok((pipe.recorder().event_count(), pipe.recorder().hash()))
}

#[test]
fn random_scenarios_audit_clean_and_hash_deterministically() -> Result<(), FleetError> {
    for scheme in SchemeKind::ALL {
        for seed in 1..=2 {
            let first = run_scenario(scheme, seed)?;
            let second = run_scenario(scheme, seed)?;
            assert_eq!(first, second, "{scheme} seed {seed}: event stream must be deterministic");
        }
    }
    Ok(())
}

#[test]
fn different_seeds_produce_different_event_streams() -> Result<(), FleetError> {
    let a = run_scenario(SchemeKind::Fleet, 101)?;
    let b = run_scenario(SchemeKind::Fleet, 202)?;
    assert_ne!(a.1, b.1, "seeds must shape the scenario and its trace");
    Ok(())
}

/// Like [`run_scenario`], but against a flaky flash device: launches may
/// fail with SIGBUS kills mid-scenario (tolerated via `try_switch_to`),
/// and the fifth invariant family (SwapIoError / FaultRetry / LmkKill /
/// EvacAbort) is live. The auditor must stay clean and the stream must
/// still hash deterministically.
fn run_faulty_scenario(scheme: SchemeKind, seed: u64, intensity: f64) -> (u64, u64) {
    use fleet_kernel::FaultConfig;
    let pipeline = shared::<AuditPipeline>();
    let _guard = install(pipeline.clone());
    let config = fleet::DeviceConfig::builder(scheme)
        .seed(seed)
        .fault(FaultConfig::flaky_flash(intensity))
        .build()
        .unwrap();
    let mut dev = Device::try_new(config).unwrap();
    let mut script = Script(seed ^ 0xFA17);
    for _ in 0..30 {
        match script.below(10) {
            0..=3 => {
                let app = profile_by_name(APPS[script.below(APPS.len() as u64) as usize]).unwrap();
                dev.launch_cold(&app);
            }
            4..=6 => {
                let alive = dev.alive();
                if !alive.is_empty() {
                    let pid = alive[script.below(alive.len() as u64) as usize];
                    if dev.foreground() != Some(pid) {
                        // A SIGBUS mid-launch is a legal degraded outcome.
                        let _ = dev.try_switch_to(pid);
                    }
                }
            }
            7 => {
                let alive = dev.alive();
                if !alive.is_empty() {
                    dev.kill(alive[script.below(alive.len() as u64) as usize]);
                }
            }
            _ => dev.run(1 + script.below(5)),
        }
    }
    drop(dev);
    let pipe = pipeline.lock().unwrap();
    assert_eq!(pipe.auditor().violations(), 0, "auditor must stay clean under faults");
    assert!(pipe.recorder().event_count() > 0, "scenario must record events");
    (pipe.recorder().event_count(), pipe.recorder().hash())
}

#[test]
fn faulty_scenarios_audit_clean_and_hash_deterministically() {
    for scheme in SchemeKind::ALL {
        let first = run_faulty_scenario(scheme, 3, 0.05);
        let second = run_faulty_scenario(scheme, 3, 0.05);
        assert_eq!(first, second, "{scheme}: faulty event stream must be deterministic");
    }
    // A harsh plan must degrade, not panic or corrupt shadow state.
    run_faulty_scenario(SchemeKind::Fleet, 9, 0.4);
}
