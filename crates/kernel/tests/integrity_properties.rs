//! Property tests for the swap data-integrity layer (DESIGN.md §14).
//!
//! Random corruption plans (silent store corruption + torn writeback) drive
//! random kernel scripts over a hybrid zram/flash stack with the checksum
//! layer armed; after every operation the kernel's structural self-check
//! runs and, under `--features audit`, every emitted event replays through
//! the shadow auditor — so a corruption that is served, detected twice, or
//! quarantined without detection fails here. Accounting properties pin the
//! layer end to end: every injected corruption is detected exactly once by
//! teardown, quiet plans are provably invisible (the golden-gate property),
//! and the same seed yields byte-identical event streams.

use fleet_kernel::{
    AccessKind, Advice, FaultConfig, FaultPlan, IntegrityConfig, MemoryManager, MmConfig, PageKind,
    Pid, SwapConfig, PAGE_SIZE,
};
use proptest::prelude::*;

/// A small hybrid stack: zram front over flash back, tight quarantine
/// threshold so scripts can actually climb the retirement ladder.
fn integrity_mm(plan: Option<FaultPlan>, integrity: IntegrityConfig) -> MemoryManager {
    let mut mm = MemoryManager::new(MmConfig {
        dram_bytes: 24 * PAGE_SIZE,
        swap: SwapConfig { capacity_bytes: 32 * PAGE_SIZE, ..SwapConfig::default() },
        zram: Some(SwapConfig::try_zram(16 * PAGE_SIZE, 2.5).expect("valid zram config")),
        low_watermark_frames: 2,
        high_watermark_frames: 4,
        integrity,
        ..MmConfig::default()
    });
    if let Some(plan) = plan {
        mm.install_fault_plan(plan);
    }
    mm
}

fn checked_integrity() -> IntegrityConfig {
    IntegrityConfig {
        quarantine_threshold: 2,
        scrub_batch_pages: 8,
        scrub_interval_ticks: 1,
        ..IntegrityConfig::checked()
    }
}

/// Corruption-only fault mixes: silent store corruption and torn writeback,
/// every other fault kind quiet so the integrity ladder is isolated.
fn corruption_config_strategy() -> impl Strategy<Value = FaultConfig> {
    (0.0f64..1.0, 0.0f64..1.0).prop_map(|(c, t)| FaultConfig {
        corruption_rate: c,
        torn_writeback_rate: t,
        ..FaultConfig::default()
    })
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Map { pid: u8, page: u16, file: bool },
    Unmap { pid: u8, page: u16 },
    Access { pid: u8, page: u16 },
    Cold { pid: u8, page: u16 },
    Kswapd,
    Writeback,
    Scrub,
    KillProcess { pid: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3, 0u16..64, any::<bool>()).prop_map(|(pid, page, file)| Op::Map { pid, page, file }),
        (0u8..3, 0u16..64).prop_map(|(pid, page)| Op::Unmap { pid, page }),
        (0u8..3, 0u16..64).prop_map(|(pid, page)| Op::Access { pid, page }),
        (0u8..3, 0u16..64).prop_map(|(pid, page)| Op::Access { pid, page }),
        (0u8..3, 0u16..64).prop_map(|(pid, page)| Op::Cold { pid, page }),
        (0u8..3, 0u16..64).prop_map(|(pid, page)| Op::Cold { pid, page }),
        Just(Op::Kswapd),
        Just(Op::Writeback),
        Just(Op::Scrub),
        (0u8..3).prop_map(|pid| Op::KillProcess { pid }),
    ]
}

/// Runs `ops` with the integrity layer in `integrity` state over `plan`,
/// then tears every process down. Returns the canonical serialisation of
/// the full event stream (empty without the audit feature; the invariant
/// checks still run).
fn run_integrity_script(
    plan: Option<FaultPlan>,
    integrity: IntegrityConfig,
    ops: &[Op],
) -> Result<Vec<String>, TestCaseError> {
    let mut mm = integrity_mm(plan, integrity);
    #[cfg(feature = "audit")]
    let mut pipe = fleet_audit::AuditPipeline::new();
    #[cfg(feature = "audit")]
    let dev = pipe.attach();
    #[cfg(feature = "audit")]
    mm.probes_mut().audit.enable(0);

    #[allow(unused_mut)] // mutated only under the audit feature
    let mut stream: Vec<String> = Vec::new();
    #[allow(unused_mut, unused_variables)]
    let mut drain = |mm: &mut MemoryManager, stream: &mut Vec<String>| {
        #[cfg(feature = "audit")]
        for ev in mm.probes_mut().audit.drain() {
            stream.push(ev.to_string());
            pipe.feed(dev, ev);
        }
    };
    for &op in ops {
        match op {
            Op::Map { pid, page, file } => {
                let kind = if file { PageKind::File } else { PageKind::Anon };
                let _ =
                    mm.map_range_kind(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE, kind);
            }
            Op::Unmap { pid, page } => {
                mm.unmap_range(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE);
            }
            Op::Access { pid, page } => {
                let out =
                    mm.access(Pid(pid as u32), page as u64 * PAGE_SIZE, 64, AccessKind::Mutator);
                if out.killed {
                    // SIGBUS analog: the device kills the owner; the corrupt
                    // slot is quarantined on the way out.
                    mm.unmap_process(Pid(pid as u32));
                }
            }
            Op::Cold { pid, page } => {
                mm.madvise(
                    Pid(pid as u32),
                    page as u64 * PAGE_SIZE,
                    PAGE_SIZE,
                    Advice::ColdRuntime,
                );
            }
            Op::Kswapd => {
                mm.kswapd();
            }
            Op::Writeback => {
                mm.zram_writeback();
            }
            Op::Scrub => {
                mm.scrub_tick();
            }
            Op::KillProcess { pid } => {
                mm.unmap_process(Pid(pid as u32));
            }
        }
        mm.validate();
        drain(&mut mm, &mut stream);
        let stats = mm.stats();
        prop_assert!(
            stats.corruptions_detected <= stats.corruptions_injected,
            "detected {} > injected {}",
            stats.corruptions_detected,
            stats.corruptions_injected
        );
    }
    // Teardown detects every still-latent corruption on the unmap path.
    for pid in 0u8..3 {
        mm.unmap_process(Pid(pid as u32));
        mm.validate();
        drain(&mut mm, &mut stream);
    }
    let stats = mm.stats();
    prop_assert_eq!(
        stats.corruptions_detected,
        stats.corruptions_injected,
        "a corruption slipped through teardown undetected"
    );
    Ok(stream)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any corruption plan, any script: all auditor invariant families
    /// (including the eighth, data integrity) hold, and by teardown every
    /// injected corruption has been detected exactly once.
    #[test]
    fn every_injected_corruption_is_detected_exactly_once(
        seed in any::<u64>(),
        config in corruption_config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        run_integrity_script(
            Some(FaultPlan::new(seed, config)),
            checked_integrity(),
            &ops,
        )?;
    }

    /// A quiet plan under an armed integrity layer behaves bit-identically
    /// to no plan at all: same event stream (scrub passes included), zero
    /// injections, zero detections.
    #[test]
    fn quiet_plan_is_invisible_to_the_armed_layer(
        seed in any::<u64>(),
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let quiet = run_integrity_script(
            Some(FaultPlan::new(seed, FaultConfig::default())),
            checked_integrity(),
            &ops,
        )?;
        let bare = run_integrity_script(None, checked_integrity(), &ops)?;
        prop_assert_eq!(quiet, bare, "quiet plan diverged from a plan-free kernel");
        prop_assert!(!quiet_stats_leak(seed, &ops));
    }

    /// With the layer disabled, an armed corruption plan must not even draw
    /// from the fault stream — the property behind the golden-trace gate.
    #[test]
    fn disabled_layer_never_draws_from_an_armed_plan(
        seed in any::<u64>(),
        config in corruption_config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let armed = run_integrity_script(
            Some(FaultPlan::new(seed, config)),
            IntegrityConfig::default(),
            &ops,
        )?;
        let quiet = run_integrity_script(
            Some(FaultPlan::new(seed, FaultConfig::default())),
            IntegrityConfig::default(),
            &ops,
        )?;
        prop_assert_eq!(armed, quiet, "disabled integrity layer drew a corruption fate");
    }

    /// Same `(seed, config, script)` under armed corruption: byte-identical
    /// event streams.
    #[test]
    fn same_seed_means_byte_identical_event_streams(
        seed in any::<u64>(),
        config in corruption_config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let a = run_integrity_script(
            Some(FaultPlan::new(seed, config)),
            checked_integrity(),
            &ops,
        )?;
        let b = run_integrity_script(
            Some(FaultPlan::new(seed, config)),
            checked_integrity(),
            &ops,
        )?;
        prop_assert_eq!(a, b, "corruption schedule not deterministic");
    }
}

/// Re-runs a quiet-plan script and reports whether any integrity counter
/// moved (they must all stay zero — detection is a checksum comparison and
/// a quiet plan never corrupts a store).
fn quiet_stats_leak(seed: u64, ops: &[Op]) -> bool {
    let mut mm =
        integrity_mm(Some(FaultPlan::new(seed, FaultConfig::default())), checked_integrity());
    for &op in ops {
        match op {
            Op::Map { pid, page, file } => {
                let kind = if file { PageKind::File } else { PageKind::Anon };
                let _ =
                    mm.map_range_kind(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE, kind);
            }
            Op::Unmap { pid, page } => {
                mm.unmap_range(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE);
            }
            Op::Access { pid, page } => {
                let out =
                    mm.access(Pid(pid as u32), page as u64 * PAGE_SIZE, 64, AccessKind::Mutator);
                if out.killed {
                    mm.unmap_process(Pid(pid as u32));
                }
            }
            Op::Cold { pid, page } => {
                mm.madvise(
                    Pid(pid as u32),
                    page as u64 * PAGE_SIZE,
                    PAGE_SIZE,
                    Advice::ColdRuntime,
                );
            }
            Op::Kswapd => {
                mm.kswapd();
            }
            Op::Writeback => {
                mm.zram_writeback();
            }
            Op::Scrub => {
                mm.scrub_tick();
            }
            Op::KillProcess { pid } => {
                mm.unmap_process(Pid(pid as u32));
            }
        }
    }
    let stats = mm.stats();
    stats.corruptions_injected != 0
        || stats.corruptions_detected != 0
        || stats.slots_quarantined != 0
        || stats.tiers_retired != 0
}
