//! Property tests for the fault-injection module (DESIGN.md §9).
//!
//! Random `FaultConfig`s drive random kernel scripts; after every operation
//! the kernel's structural self-check runs and, under `--features audit`,
//! every emitted event is replayed through the event-sourced shadow auditor
//! — so any fault plan that breaks page conservation, residency membership,
//! or the fifth (fault/degradation) invariant family fails here. A second
//! property pins determinism: the same `(seed, config, script)` triple must
//! produce byte-identical event streams.

use fleet_kernel::{
    AccessKind, Advice, FaultConfig, FaultPlan, MemoryManager, MmConfig, PageKind, Pid, SwapConfig,
    SwapMedium, PAGE_SIZE,
};
use proptest::prelude::*;

fn fault_mm(frames: u64, swap_pages: u64, medium: SwapMedium, plan: FaultPlan) -> MemoryManager {
    let swap = match medium {
        SwapMedium::Flash => {
            SwapConfig { capacity_bytes: swap_pages * PAGE_SIZE, ..SwapConfig::default() }
        }
        SwapMedium::Zram { compression_ratio } => {
            SwapConfig::try_zram(swap_pages * PAGE_SIZE, compression_ratio)
                .expect("valid zram config")
        }
    };
    let mut mm = MemoryManager::new(MmConfig {
        dram_bytes: frames * PAGE_SIZE,
        swap,
        low_watermark_frames: 2,
        high_watermark_frames: 4,
        ..MmConfig::default()
    });
    mm.install_fault_plan(plan);
    mm
}

/// Any valid rate mix, biased toward the interesting low-probability corner
/// but also covering always-fails extremes.
fn fault_config_strategy() -> impl Strategy<Value = FaultConfig> {
    (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(
        |(t, p, w, s, x, c)| FaultConfig {
            read_transient_rate: t,
            read_permanent_rate: p,
            write_error_rate: w,
            latency_spike_rate: s,
            slot_exhaustion_rate: x,
            compress_fail_rate: c,
            ..FaultConfig::default()
        },
    )
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Map { pid: u8, page: u16, file: bool },
    Unmap { pid: u8, page: u16 },
    Access { pid: u8, page: u16 },
    Cold { pid: u8, page: u16 },
    Prefetch { pid: u8, page: u16 },
    Kswapd,
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
        (0u8..3, 0u16..64).prop_map(|(pid, page)| Op::Prefetch { pid, page }),
        Just(Op::Kswapd),
        (0u8..3).prop_map(|pid| Op::KillProcess { pid }),
    ]
}

/// Runs `ops` against a faulty kernel. Processes whose access reports
/// `killed` are torn down like the device would (full unmap), so no
/// partially-mapped corpse survives. Returns the canonical (Display)
/// serialisation of every event the run emitted; without the audit feature
/// the stream is empty but the invariant checks still run.
fn run_faulty_script(
    seed: u64,
    config: FaultConfig,
    medium: SwapMedium,
    ops: &[Op],
) -> Result<Vec<String>, TestCaseError> {
    let mut mm = fault_mm(24, 32, medium, FaultPlan::new(seed, config));
    #[cfg(feature = "audit")]
    let mut pipe = fleet_audit::AuditPipeline::new();
    #[cfg(feature = "audit")]
    let dev = pipe.attach();
    #[cfg(feature = "audit")]
    mm.probes_mut().audit.enable(0);

    #[allow(unused_mut)] // mutated only under the audit feature
    let mut stream: Vec<String> = Vec::new();
    let mut mapped: std::collections::HashMap<(u8, u16), ()> = std::collections::HashMap::new();
    for &op in ops {
        match op {
            Op::Map { pid, page, file } => {
                let kind = if file { PageKind::File } else { PageKind::Anon };
                if mm
                    .map_range_kind(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE, kind)
                    .is_ok()
                {
                    mapped.insert((pid, page), ());
                }
            }
            Op::Unmap { pid, page } => {
                mm.unmap_range(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE);
                mapped.remove(&(pid, page));
            }
            Op::Access { pid, page } => {
                let out =
                    mm.access(Pid(pid as u32), page as u64 * PAGE_SIZE, 64, AccessKind::Mutator);
                prop_assert!(out.retries <= 64 * 3, "retry budget exceeded: {}", out.retries);
                if out.killed {
                    // SIGBUS analog: the device kills the owner, releasing
                    // the poisoned slot. Mirror that here.
                    mm.unmap_process(Pid(pid as u32));
                    mapped.retain(|&(p, _), _| p != pid);
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
            Op::Prefetch { pid, page } => {
                mm.prefetch_many(Pid(pid as u32), &[(page as u64 * PAGE_SIZE, PAGE_SIZE)]);
            }
            Op::Kswapd => {
                mm.kswapd();
            }
            Op::KillProcess { pid } => {
                mm.unmap_process(Pid(pid as u32));
                mapped.retain(|&(p, _), _| p != pid);
            }
        }
        // Structural self-check after every op, faults armed or not.
        mm.validate();
        // Replay events through the shadow auditor (all five invariant
        // families, including SwapIoError/FaultRetry residency rules).
        #[cfg(feature = "audit")]
        for ev in mm.probes_mut().audit.drain() {
            stream.push(ev.to_string());
            pipe.feed(dev, ev);
        }
        // Black-box accounting: injected faults must never lose or invent
        // pages — a lost anon page stays (swapped) until its owner dies.
        let mut resident = 0;
        let mut swapped = 0;
        for pid in 0u8..3 {
            let mem = mm.process_mem(Pid(pid as u32));
            resident += mem.resident;
            swapped += mem.swapped;
        }
        prop_assert_eq!(resident + swapped, mapped.len() as u64, "fault plan broke conservation");
        prop_assert!(mm.used_frames() <= mm.frames_capacity());
        prop_assert!(mm.swap().used_pages() <= mm.swap().capacity_pages());
    }
    Ok(stream)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any fault plan, any script: every auditor invariant holds and pages
    /// are conserved on flash-backed swap.
    #[test]
    fn faulty_flash_scripts_uphold_invariants(
        seed in any::<u64>(),
        config in fault_config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        run_faulty_script(seed, config, SwapMedium::Flash, &ops)?;
    }

    /// Same, on zram (compression-failure faults become reachable).
    #[test]
    fn faulty_zram_scripts_uphold_invariants(
        seed in any::<u64>(),
        config in fault_config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        run_faulty_script(seed, config, SwapMedium::Zram { compression_ratio: 2.5 }, &ops)?;
    }

    /// Determinism: the same `(seed, config, script)` produces the same
    /// event stream byte for byte; a different fault seed (on a non-quiet
    /// plan, given enough swap traffic) is allowed to differ but must still
    /// pass all invariants — which the runs above already guarantee.
    #[test]
    fn same_seed_means_byte_identical_event_streams(
        seed in any::<u64>(),
        config in fault_config_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let a = run_faulty_script(seed, config, SwapMedium::Flash, &ops)?;
        let b = run_faulty_script(seed, config, SwapMedium::Flash, &ops)?;
        prop_assert_eq!(a, b, "fault schedule not deterministic");
    }

    /// A quiet plan must behave bit-identically to no plan at all — the
    /// property behind the golden-trace gate.
    #[test]
    fn quiet_plan_is_invisible(
        seed in any::<u64>(),
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let quiet = run_faulty_script(seed, FaultConfig::default(), SwapMedium::Flash, &ops)?;
        // Re-run without installing any plan.
        let mut mm = MemoryManager::new(MmConfig {
            dram_bytes: 24 * PAGE_SIZE,
            swap: SwapConfig { capacity_bytes: 32 * PAGE_SIZE, ..SwapConfig::default() },
            low_watermark_frames: 2,
            high_watermark_frames: 4,
            ..MmConfig::default()
        });
        #[cfg(feature = "audit")]
        mm.probes_mut().audit.enable(0);
        #[allow(unused_mut)] // mutated only under the audit feature
        let mut bare: Vec<String> = Vec::new();
        for &op in &ops {
            match op {
                Op::Map { pid, page, file } => {
                    let kind = if file { PageKind::File } else { PageKind::Anon };
                    let _ = mm.map_range_kind(
                        Pid(pid as u32),
                        page as u64 * PAGE_SIZE,
                        PAGE_SIZE,
                        kind,
                    );
                }
                Op::Unmap { pid, page } => {
                    mm.unmap_range(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE);
                }
                Op::Access { pid, page } => {
                    let out =
                        mm.access(Pid(pid as u32), page as u64 * PAGE_SIZE, 64, AccessKind::Mutator);
                    prop_assert!(!out.killed, "quiet plan injected a kill");
                }
                Op::Cold { pid, page } => {
                    mm.madvise(
                        Pid(pid as u32),
                        page as u64 * PAGE_SIZE,
                        PAGE_SIZE,
                        Advice::ColdRuntime,
                    );
                }
                Op::Prefetch { pid, page } => {
                    mm.prefetch_many(Pid(pid as u32), &[(page as u64 * PAGE_SIZE, PAGE_SIZE)]);
                }
                Op::Kswapd => {
                    mm.kswapd();
                }
                Op::KillProcess { pid } => {
                    mm.unmap_process(Pid(pid as u32));
                }
            }
            #[cfg(feature = "audit")]
            for ev in mm.probes_mut().audit.drain() {
                bare.push(ev.to_string());
            }
        }
        prop_assert_eq!(quiet, bare, "quiet plan diverged from a plan-free kernel");
    }
}

/// fleet-audit's `FaultRetry` invariant pins attempts to `[1, 3]`; the
/// kernel's retry budget must stay in lockstep with that bound.
#[test]
fn retry_budget_matches_auditor_bound() {
    assert_eq!(fleet_kernel::FAULT_RETRY_MAX, 3);
}
