//! `ReclaimPolicy` API: Reactive invisibility and Swam audit discipline.
//!
//! The reclaim redesign routes kswapd, zram writeback, proactive swap-out
//! and lmkd escalation through one `ReclaimDriver`, so two properties keep
//! the golden-trace gate honest:
//!
//! * **Invisibility** — a device built with the default config and one
//!   built with an explicit `ReclaimPolicy::Reactive` +
//!   `KillPolicy::ColdestFirst` must be bit-identical under arbitrary
//!   scripts and fault plans (the committed goldens pin the same streams
//!   against the pre-redesign behaviour).
//! * **Discipline** — `ReclaimPolicy::Swam` must uphold all seven auditor
//!   invariant families, quiet and armed, and its event streams must hash
//!   deterministically.

use fleet::{Device, DeviceConfig, KillPolicy, ReclaimPolicy, SchemeKind};
use fleet_apps::profile_by_name;
use fleet_kernel::FaultConfig;

const APPS: [&str; 4] = ["Twitter", "Youtube", "Chrome", "Telegram"];

/// splitmix64 — the scenario script generator, independent from the
/// device's own seeded RNG streams (same construction as `audit_smoke`).
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

/// Drives 30 random ops (launch / switch / kill / run) and condenses every
/// externally observable counter into a comparison fingerprint.
fn drive_and_fingerprint(dev: &mut Device, script_seed: u64) -> String {
    let mut script = Script(script_seed);
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
                        // A SIGBUS mid-launch is a legal degraded outcome
                        // under an armed plan.
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
    let stats = dev.mm().stats();
    format!(
        "faults={} retries={} out={} proactive={} zram_wb={} lost={} \
         frames={} swap={} sigbus={} lmk={} esc={} kills={} t={}",
        stats.faults,
        stats.fault_retries,
        stats.pages_swapped_out,
        stats.proactive_swapout_pages,
        stats.zram_writeback_pages,
        stats.pages_lost,
        dev.mm().used_frames(),
        dev.mm().swap().used_pages(),
        dev.sigbus_kills(),
        dev.reclaim().total_kills(),
        dev.reclaim().escalations(),
        dev.kills().len(),
        dev.now(),
    )
}

/// Builds a device for `scheme`, optionally with an armed fault plan and
/// optionally spelling out the legacy policy pair explicitly.
fn build_device(scheme: SchemeKind, seed: u64, fault: Option<f64>, explicit: bool) -> Device {
    let mut config = DeviceConfig { seed, ..DeviceConfig::pixel3(scheme) };
    if let Some(intensity) = fault {
        config.fault = FaultConfig::flaky_flash(intensity);
    }
    if explicit {
        config.reclaim_policy = ReclaimPolicy::Reactive;
        config.kill_policy = KillPolicy::ColdestFirst;
    }
    Device::try_new(config).unwrap()
}

mod invisibility {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Spelling out the default policies must not change one observable
        /// byte — under random scripts, any scheme, and random (possibly
        /// armed) fault plans.
        #[test]
        fn explicit_reactive_is_bit_identical_to_default(
            seed in 1u64..1_000_000,
            scheme_idx in 0usize..SchemeKind::ALL.len(),
            armed in any::<bool>(),
            intensity in 0.01f64..0.25,
        ) {
            let scheme = SchemeKind::ALL[scheme_idx];
            let fault = armed.then_some(intensity);
            let mut default_dev = build_device(scheme, seed, fault, false);
            let mut explicit_dev = build_device(scheme, seed, fault, true);
            let a = drive_and_fingerprint(&mut default_dev, seed ^ 0x5CA1E);
            let b = drive_and_fingerprint(&mut explicit_dev, seed ^ 0x5CA1E);
            prop_assert_eq!(a, b, "{:?} seed {}: explicit Reactive diverged", scheme, seed);
        }

        /// Reactive never runs the proactive daemon or the WSS tracker, no
        /// matter the script: the counters that only Swam may move stay 0.
        #[test]
        fn reactive_never_moves_swam_counters(
            seed in 1u64..1_000_000,
            scheme_idx in 0usize..SchemeKind::ALL.len(),
        ) {
            let scheme = SchemeKind::ALL[scheme_idx];
            let mut dev = build_device(scheme, seed, None, true);
            drive_and_fingerprint(&mut dev, seed);
            prop_assert_eq!(dev.mm().stats().proactive_swapout_pages, 0);
            prop_assert_eq!(dev.mm().stats().wss_epochs, 0);
            prop_assert!(!dev.mm().wss_tracking_enabled());
            prop_assert_eq!(dev.reclaim().proactive_pages(), 0);
        }
    }
}

/// The Swam policy under the installed audit pipeline: every cross-layer
/// transition streams through the shadow-state auditor (seven invariant
/// families), quiet and armed, and must stay violation-free.
#[cfg(feature = "audit")]
mod swam_audit {
    use super::*;
    use fleet::probe::{install, shared, AuditPipeline};
    use fleet::{FleetError, SwamParams};

    /// One Swam scenario under the auditor; returns `(events, hash)`.
    fn swam_scenario(scheme: SchemeKind, seed: u64, fault: Option<f64>) -> (u64, u64) {
        let pipeline = shared::<AuditPipeline>();
        let _guard = install(pipeline.clone());
        // An aggressive parameterisation (single idle epoch) so the
        // proactive daemon actually fires within a 30-op script.
        let swam = ReclaimPolicy::Swam(SwamParams { idle_epochs: 1, ..SwamParams::default() });
        let mut config = DeviceConfig {
            reclaim_policy: swam,
            kill_policy: KillPolicy::WssWeighted,
            seed,
            ..DeviceConfig::pixel3(scheme)
        };
        if let Some(intensity) = fault {
            config.fault = FaultConfig::flaky_flash(intensity);
        }
        let mut dev = Device::try_new(config).unwrap();
        drive_and_fingerprint(&mut dev, seed ^ 0x5A7A);
        drop(dev);
        let pipe = pipeline.lock().unwrap();
        assert_eq!(pipe.auditor().violations(), 0, "{scheme}: Swam must audit clean");
        assert!(pipe.recorder().event_count() > 0, "scenario must record events");
        (pipe.recorder().event_count(), pipe.recorder().hash())
    }

    #[test]
    fn swam_audits_clean_quiet_and_armed_for_every_scheme() {
        for scheme in SchemeKind::ALL {
            let quiet_a = swam_scenario(scheme, 17, None);
            let quiet_b = swam_scenario(scheme, 17, None);
            assert_eq!(quiet_a, quiet_b, "{scheme}: quiet Swam stream must be deterministic");
            let armed_a = swam_scenario(scheme, 17, Some(0.05));
            let armed_b = swam_scenario(scheme, 17, Some(0.05));
            assert_eq!(armed_a, armed_b, "{scheme}: armed Swam stream must be deterministic");
        }
    }

    #[test]
    fn swam_proactive_daemon_fires_and_audits_clean() -> Result<(), FleetError> {
        // A background-heavy script on the paper's scheme: several apps
        // cached behind the foreground with long run stretches, so the
        // idle clocks cross the (single-epoch) threshold and the daemon
        // issues `ProactiveSwapOut` events the seventh family checks.
        let pipeline = shared::<AuditPipeline>();
        let _guard = install(pipeline.clone());
        let swam = ReclaimPolicy::Swam(SwamParams { idle_epochs: 1, ..SwamParams::default() });
        let config = DeviceConfig {
            reclaim_policy: swam,
            kill_policy: KillPolicy::WssWeighted,
            seed: 9,
            ..DeviceConfig::pixel3(SchemeKind::Fleet)
        };
        let mut dev = Device::try_new(config)?;
        for name in APPS {
            dev.launch_cold(&profile_by_name(name).unwrap());
            dev.run(10);
        }
        dev.run(120);
        let pages = dev.mm().stats().proactive_swapout_pages;
        assert!(pages > 0, "daemon must have drained an idle app");
        assert_eq!(dev.reclaim().proactive_pages(), pages);
        drop(dev);
        let pipe = pipeline.lock().unwrap();
        assert_eq!(pipe.auditor().violations(), 0, "proactive stream must audit clean");
        Ok(())
    }

    /// The audit streams themselves (not just the kernel counters) are
    /// identical between a default device and an explicit-Reactive one.
    #[test]
    fn default_and_explicit_reactive_audit_streams_match() {
        let stream = |explicit: bool| {
            let pipeline = shared::<AuditPipeline>();
            let _guard = install(pipeline.clone());
            let mut dev = build_device(SchemeKind::Fleet, 23, None, explicit);
            drive_and_fingerprint(&mut dev, 23);
            drop(dev);
            let pipe = pipeline.lock().unwrap();
            assert_eq!(pipe.auditor().violations(), 0);
            (pipe.recorder().event_count(), pipe.recorder().hash())
        };
        assert_eq!(stream(false), stream(true), "Reactive audit stream diverged from default");
    }
}
