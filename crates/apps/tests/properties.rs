//! Property tests on the workload models.

use fleet_apps::{catalog, synthetic_app, AppBehavior};
use fleet_heap::{depth_map, reachable_set, AllocContext, Heap, HeapConfig};
use fleet_sim::SimRng;
use proptest::prelude::*;

fn build(app_index: usize, target_kib: u64, seed: u64) -> (Heap, AppBehavior) {
    let apps = catalog();
    let profile = apps[app_index % apps.len()].clone();
    let mut heap = Heap::new(HeapConfig::default());
    let mut behavior = AppBehavior::new(profile, SimRng::seed_from(seed));
    behavior.build_initial_graph(&mut heap, target_kib * 1024);
    (heap, behavior)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn initial_graphs_are_fully_reachable(
        app in 0usize..18,
        target_kib in 64u64..512,
        seed in any::<u64>(),
    ) {
        let (heap, _) = build(app, target_kib, seed);
        prop_assert!(heap.live_bytes() >= target_kib * 1024);
        // Everything the builder allocates hangs off the roots.
        let reachable = reachable_set(&heap);
        prop_assert_eq!(reachable.len() as u64, heap.live_objects());
        // The framework tier exists and the data tier goes deep.
        let depths = depth_map(&heap, None);
        let max_depth = depths.iter().map(|(_, d)| d).max().unwrap_or(0);
        prop_assert!(max_depth >= 4, "graph too shallow: {max_depth}");
    }

    #[test]
    fn foreground_steps_never_break_the_graph(
        app in 0usize..18,
        seed in any::<u64>(),
        steps in 1usize..6,
    ) {
        let (mut heap, mut behavior) = build(app, 128, seed);
        for _ in 0..steps {
            let out = behavior.foreground_step(&mut heap, 0.5);
            prop_assert!(out.allocated_bytes > 0);
            for obj in out.accessed {
                prop_assert!(heap.contains(obj), "behaviour reported a dead access");
            }
        }
        prop_assert!(heap.validate_refs().is_ok());
    }

    #[test]
    fn launch_access_is_live_and_deduplicated(
        app in 0usize..18,
        seed in any::<u64>(),
    ) {
        let (mut heap, mut behavior) = build(app, 128, seed);
        behavior.foreground_step(&mut heap, 1.0);
        behavior.enter_background(&heap);
        heap.set_context(AllocContext::Background);
        let access = behavior.launch_access(&heap);
        let mut seen = std::collections::HashSet::new();
        for obj in &access.objects {
            prop_assert!(heap.contains(*obj));
            prop_assert!(seen.insert(*obj), "duplicate launch access {obj}");
        }
        // The launch set is a strict subset of the heap.
        prop_assert!((access.objects.len() as u64) < heap.live_objects());
        prop_assert!(access.alloc_bytes > 0);
    }

    #[test]
    fn synthetic_apps_only_allocate_their_size(
        size_pow in 6u32..12, // 64..4096 bytes
        seed in any::<u64>(),
    ) {
        let size = 1u32 << size_pow;
        let profile = synthetic_app(size, 180);
        let mut heap = Heap::new(HeapConfig::default());
        let mut behavior = AppBehavior::new(profile, SimRng::seed_from(seed));
        behavior.build_initial_graph(&mut heap, 128 * 1024);
        behavior.foreground_step(&mut heap, 0.2);
        for obj in heap.object_ids().collect::<Vec<_>>() {
            prop_assert_eq!(heap.object(obj).size(), size.max(16));
        }
    }

    #[test]
    fn working_set_is_a_small_live_subset(app in 0usize..18, seed in any::<u64>()) {
        let (mut heap, mut behavior) = build(app, 256, seed);
        behavior.foreground_step(&mut heap, 1.0);
        behavior.enter_background(&heap);
        let ws = behavior.working_set();
        prop_assert!(!ws.is_empty());
        for &obj in ws {
            prop_assert!(heap.contains(obj));
        }
        prop_assert!(
            (ws.len() as u64) * 4 < heap.live_objects(),
            "working set should be a small fraction: {} of {}",
            ws.len(),
            heap.live_objects()
        );
    }
}
