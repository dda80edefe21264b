//! Property tests on the kernel model's invariants.

use fleet_kernel::{
    AccessKind, Advice, MemoryManager, MmConfig, PageKind, Pid, SwapConfig, SwapMedium, PAGE_SIZE,
};
use proptest::prelude::*;
use std::collections::HashMap;

fn small_mm(frames: u64, swap_pages: u64, medium: SwapMedium) -> MemoryManager {
    let swap = match medium {
        SwapMedium::Flash => {
            SwapConfig { capacity_bytes: swap_pages * PAGE_SIZE, ..SwapConfig::default() }
        }
        SwapMedium::Zram { compression_ratio } => {
            SwapConfig::try_zram(swap_pages * PAGE_SIZE, compression_ratio)
                .expect("valid zram config")
        }
    };
    MemoryManager::new(MmConfig {
        dram_bytes: frames * PAGE_SIZE,
        swap,
        low_watermark_frames: 2,
        high_watermark_frames: 4,
        ..MmConfig::default()
    })
}

/// A hybrid tier stack: a small zram front tier ahead of a flash back tier.
fn hybrid_mm(frames: u64, zram_pages: u64, flash_pages: u64) -> MemoryManager {
    MemoryManager::new(MmConfig {
        dram_bytes: frames * PAGE_SIZE,
        swap: SwapConfig { capacity_bytes: flash_pages * PAGE_SIZE, ..SwapConfig::default() },
        zram: Some(SwapConfig::try_zram(zram_pages * PAGE_SIZE, 2.5).expect("valid front tier")),
        low_watermark_frames: 2,
        high_watermark_frames: 4,
        ..MmConfig::default()
    })
}

#[derive(Debug, Clone, Copy)]
enum MmOp {
    Map { pid: u8, page: u16, file: bool },
    Unmap { pid: u8, page: u16 },
    Access { pid: u8, page: u16, gc: bool },
    Cold { pid: u8, page: u16 },
    Hot { pid: u8, page: u16 },
    Pin { pid: u8, page: u16 },
    Unpin { pid: u8, page: u16 },
    Prefetch { pid: u8, page: u16 },
    Kswapd,
    Writeback,
    KillProcess { pid: u8 },
}

fn op_strategy() -> impl Strategy<Value = MmOp> {
    prop_oneof![
        (0u8..4, 0u16..96, any::<bool>()).prop_map(|(pid, page, file)| MmOp::Map {
            pid,
            page,
            file
        }),
        (0u8..4, 0u16..96).prop_map(|(pid, page)| MmOp::Unmap { pid, page }),
        (0u8..4, 0u16..96, any::<bool>()).prop_map(|(pid, page, gc)| MmOp::Access {
            pid,
            page,
            gc
        }),
        (0u8..4, 0u16..96).prop_map(|(pid, page)| MmOp::Cold { pid, page }),
        (0u8..4, 0u16..96).prop_map(|(pid, page)| MmOp::Hot { pid, page }),
        (0u8..4, 0u16..96).prop_map(|(pid, page)| MmOp::Pin { pid, page }),
        (0u8..4, 0u16..96).prop_map(|(pid, page)| MmOp::Unpin { pid, page }),
        (0u8..4, 0u16..96).prop_map(|(pid, page)| MmOp::Prefetch { pid, page }),
        Just(MmOp::Kswapd),
        Just(MmOp::Writeback),
        (0u8..4).prop_map(|pid| MmOp::KillProcess { pid }),
    ]
}

fn run_script(mut mm: MemoryManager, ops: Vec<MmOp>) -> Result<(), TestCaseError> {
    // With the `audit` feature every kernel transition is replayed through
    // the event-sourced shadow auditor as well, so the same random scripts
    // exercise page conservation and residency membership from the outside.
    #[cfg(feature = "audit")]
    let mut pipe = fleet_audit::AuditPipeline::new();
    #[cfg(feature = "audit")]
    let dev = pipe.attach();
    #[cfg(feature = "audit")]
    mm.probes_mut().audit.enable(0);

    let mut mapped: HashMap<(u8, u16), ()> = HashMap::new();
    for op in ops {
        match op {
            MmOp::Map { pid, page, file } => {
                let kind = if file { PageKind::File } else { PageKind::Anon };
                if mm
                    .map_range_kind(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE, kind)
                    .is_ok()
                {
                    mapped.insert((pid, page), ());
                }
            }
            MmOp::Unmap { pid, page } => {
                mm.unmap_range(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE);
                mapped.remove(&(pid, page));
            }
            MmOp::Access { pid, page, gc } => {
                let kind = if gc { AccessKind::Gc } else { AccessKind::Mutator };
                let _ = mm.access(Pid(pid as u32), page as u64 * PAGE_SIZE, 64, kind);
            }
            MmOp::Cold { pid, page } => {
                mm.madvise(
                    Pid(pid as u32),
                    page as u64 * PAGE_SIZE,
                    PAGE_SIZE,
                    Advice::ColdRuntime,
                );
            }
            MmOp::Hot { pid, page } => {
                mm.madvise(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE, Advice::HotRuntime);
            }
            MmOp::Pin { pid, page } => {
                mm.pin_range(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE);
            }
            MmOp::Unpin { pid, page } => {
                mm.unpin_range(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE);
            }
            MmOp::Prefetch { pid, page } => {
                mm.prefetch_many(Pid(pid as u32), &[(page as u64 * PAGE_SIZE, PAGE_SIZE)]);
            }
            MmOp::Kswapd => {
                mm.kswapd();
            }
            MmOp::Writeback => {
                mm.zram_writeback();
            }
            MmOp::KillProcess { pid } => {
                mm.unmap_process(Pid(pid as u32));
                mapped.retain(|&(p, _), _| p != pid);
            }
        }
        // Invariants after every operation: the kernel's own structural
        // self-check (residency counts, swap slots, exact LRU membership)…
        mm.validate();
        // …the event-derived shadow state…
        #[cfg(feature = "audit")]
        {
            for ev in mm.probes_mut().audit.drain() {
                pipe.feed(dev, ev);
            }
            pipe.feed(
                dev,
                fleet_audit::AuditEvent::Counters {
                    used_frames: mm.used_frames(),
                    swap_used: mm.swap().used_pages(),
                },
            );
        }
        // …and the black-box accounting identities.
        let mut resident = 0;
        let mut swapped = 0;
        for pid in 0u8..4 {
            let mem = mm.process_mem(Pid(pid as u32));
            resident += mem.resident;
            swapped += mem.swapped;
        }
        prop_assert_eq!(resident + swapped, mapped.len() as u64, "mapped pages must be accounted");
        prop_assert!(mm.used_frames() <= mm.frames_capacity());
        prop_assert!(mm.swap().used_pages() <= mm.swap().capacity_pages());
        prop_assert!(resident <= mm.used_frames(), "process pages cannot exceed used frames");
        prop_assert!(mm.free_frames() <= mm.frames_capacity());
    }
    Ok(())
}

/// Replays a script for its event stream only (no shadow bookkeeping);
/// returns the canonical `Display` rendering of every audit event emitted.
#[cfg(feature = "audit")]
fn event_stream(mut mm: MemoryManager, ops: &[MmOp]) -> Vec<String> {
    mm.probes_mut().audit.enable(0);
    for &op in ops {
        match op {
            MmOp::Map { pid, page, file } => {
                let kind = if file { PageKind::File } else { PageKind::Anon };
                let _ =
                    mm.map_range_kind(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE, kind);
            }
            MmOp::Unmap { pid, page } => {
                mm.unmap_range(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE);
            }
            MmOp::Access { pid, page, gc } => {
                let kind = if gc { AccessKind::Gc } else { AccessKind::Mutator };
                let _ = mm.access(Pid(pid as u32), page as u64 * PAGE_SIZE, 64, kind);
            }
            MmOp::Cold { pid, page } => {
                mm.madvise(
                    Pid(pid as u32),
                    page as u64 * PAGE_SIZE,
                    PAGE_SIZE,
                    Advice::ColdRuntime,
                );
            }
            MmOp::Hot { pid, page } => {
                mm.madvise(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE, Advice::HotRuntime);
            }
            MmOp::Pin { pid, page } => {
                mm.pin_range(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE);
            }
            MmOp::Unpin { pid, page } => {
                mm.unpin_range(Pid(pid as u32), page as u64 * PAGE_SIZE, PAGE_SIZE);
            }
            MmOp::Prefetch { pid, page } => {
                mm.prefetch_many(Pid(pid as u32), &[(page as u64 * PAGE_SIZE, PAGE_SIZE)]);
            }
            MmOp::Kswapd => {
                mm.kswapd();
            }
            MmOp::Writeback => {
                mm.zram_writeback();
            }
            MmOp::KillProcess { pid } => {
                mm.unmap_process(Pid(pid as u32));
            }
        }
    }
    mm.probes_mut().audit.drain().into_iter().map(|e| e.to_string()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flash_scripts_conserve_pages(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        run_script(small_mm(48, 64, SwapMedium::Flash), ops)?;
    }

    /// Tentpole invariant: random scripts over random hybrid tier
    /// configurations uphold tier slot conservation (every swapped page in
    /// exactly one tier, the writeback FIFO exactly tracking the front
    /// tier) — `MemoryManager::validate` checks it after every op inside
    /// `run_script`.
    #[test]
    fn hybrid_scripts_conserve_tier_slots(
        ops in proptest::collection::vec(op_strategy(), 1..150),
        zram_pages in 4u64..24,
        flash_pages in 16u64..64,
    ) {
        run_script(hybrid_mm(48, zram_pages, flash_pages), ops)?;
    }

    /// Replaying the same script on the same hybrid tier config yields a
    /// byte-identical audit event stream: tier placement and writeback are
    /// fully deterministic.
    #[cfg(feature = "audit")]
    #[test]
    fn hybrid_event_streams_are_byte_identical(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        zram_pages in 4u64..24,
        flash_pages in 16u64..64,
    ) {
        let a = event_stream(hybrid_mm(48, zram_pages, flash_pages), &ops);
        let b = event_stream(hybrid_mm(48, zram_pages, flash_pages), &ops);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn zram_scripts_conserve_pages(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        run_script(small_mm(48, 64, SwapMedium::Zram { compression_ratio: 2.5 }), ops)?;
    }

    #[test]
    fn no_swap_scripts_conserve_pages(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        run_script(small_mm(48, 0, SwapMedium::Flash), ops)?;
    }

    #[test]
    fn pinned_pages_survive_reclaim(pages in 1u64..24, pressure in 24u64..40) {
        let mut mm = small_mm(32, 64, SwapMedium::Flash);
        // Pin a few pages of pid 1.
        mm.map_range(Pid(1), 0, pages * PAGE_SIZE).unwrap();
        mm.pin_range(Pid(1), 0, pages * PAGE_SIZE);
        // Create pressure from pid 2.
        let _ = mm.map_range(Pid(2), 0, pressure * PAGE_SIZE);
        mm.kswapd();
        // Every pinned page is still resident.
        for page in 0..pages {
            prop_assert!(mm.is_resident(Pid(1), page * PAGE_SIZE), "pinned page {page} evicted");
        }
    }

    #[test]
    fn faults_always_restore_residency(pages in 2u64..24) {
        let mut mm = small_mm(64, 64, SwapMedium::Flash);
        mm.map_range(Pid(1), 0, pages * PAGE_SIZE).unwrap();
        mm.madvise(Pid(1), 0, pages * PAGE_SIZE, Advice::ColdRuntime);
        prop_assert_eq!(mm.process_mem(Pid(1)).swapped, pages);
        let out = mm.access(Pid(1), 0, pages * PAGE_SIZE, AccessKind::Launch);
        prop_assert!(!out.oom);
        prop_assert_eq!(out.faulted_pages, pages);
        prop_assert_eq!(mm.process_mem(Pid(1)).swapped, 0);
        prop_assert!(out.latency > fleet_sim::SimDuration::ZERO);
    }

    /// Full swap round-trips: cold → fault-in cycles always restore exact
    /// residency, release every swap slot they took, and keep the LRU
    /// membership structurally valid at every step.
    #[test]
    fn swap_round_trips_are_lossless(
        pages in 1u64..24,
        cycles in 1usize..4,
        use_prefetch in any::<bool>(),
    ) {
        let mut mm = small_mm(32, 64, SwapMedium::Flash);
        mm.map_range(Pid(1), 0, pages * PAGE_SIZE).unwrap();
        let swap_before = mm.swap().used_pages();
        for _ in 0..cycles {
            mm.madvise(Pid(1), 0, pages * PAGE_SIZE, Advice::ColdRuntime);
            mm.validate();
            prop_assert_eq!(mm.process_mem(Pid(1)).swapped, pages);
            if use_prefetch {
                let (got, _) = mm.prefetch_many(Pid(1), &[(0, pages * PAGE_SIZE)]);
                prop_assert_eq!(got, pages);
            } else {
                let out = mm.access(Pid(1), 0, pages * PAGE_SIZE, AccessKind::Mutator);
                prop_assert!(!out.oom);
            }
            mm.validate();
            // Residency fully restored, no swap slots leaked.
            prop_assert_eq!(mm.process_mem(Pid(1)).swapped, 0);
            prop_assert_eq!(mm.process_mem(Pid(1)).resident, pages);
            prop_assert_eq!(mm.swap().used_pages(), swap_before);
            for page in 0..pages {
                prop_assert!(mm.is_resident(Pid(1), page * PAGE_SIZE));
            }
        }
    }
}
