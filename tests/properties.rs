//! Property-based tests (proptest) over the core invariants.
//!
//! Random reference graphs and random mutation scripts must never violate:
//! * GC soundness — reachable objects survive, unreachable objects die,
//! * copying fidelity — sizes, contexts and topology are preserved,
//! * grouping completeness — every live FGO gets a class and a matching
//!   region,
//! * kernel conservation — resident + swapped = mapped, LRU order respects
//!   accesses.

use fleet_gc::{
    BackgroundObjectGc, Collector, FullCopyingGc, GcCostModel, GroupingGc, MarvinGc, NoTouch,
};
use fleet_heap::{
    depth_map, reachable_set, AllocContext, Heap, HeapConfig, ObjectClass, ObjectId, RegionKind,
};
use fleet_kernel::{
    AccessKind, Advice, MemoryManager, MmConfig, PageKind, Pid, SwapConfig, PAGE_SIZE,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// A random object graph: object sizes plus edges between earlier/later ids.
#[derive(Debug, Clone)]
struct GraphSpec {
    sizes: Vec<u32>,
    edges: Vec<(usize, usize)>,
    roots: Vec<usize>,
}

fn graph_strategy(max_objects: usize) -> impl Strategy<Value = GraphSpec> {
    (2..max_objects).prop_flat_map(|n| {
        let sizes = proptest::collection::vec(16u32..2048, n);
        let edges = proptest::collection::vec((0..n, 0..n), 0..3 * n);
        let roots = proptest::collection::vec(0..n, 1..4);
        (sizes, edges, roots).prop_map(|(sizes, edges, roots)| GraphSpec { sizes, edges, roots })
    })
}

fn build(spec: &GraphSpec) -> (Heap, Vec<ObjectId>) {
    let mut heap = Heap::new(HeapConfig::default());
    let ids: Vec<ObjectId> = spec.sizes.iter().map(|&s| heap.alloc(s)).collect();
    for &(from, to) in &spec.edges {
        heap.add_ref(ids[from], ids[to]);
    }
    for &r in &spec.roots {
        heap.add_root(ids[r]);
    }
    (heap, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn full_gc_is_sound(spec in graph_strategy(120)) {
        let (mut heap, ids) = build(&spec);
        let live_before = reachable_set(&heap);
        let sizes: HashMap<ObjectId, u32> =
            ids.iter().map(|&id| (id, heap.object(id).size())).collect();
        let depths_before = depth_map(&heap, None);

        FullCopyingGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);

        // Exactly the reachable set survives.
        for &id in &ids {
            prop_assert_eq!(heap.contains(id), live_before.contains(&id));
        }
        // Copying preserves sizes and graph shape.
        for &id in &live_before {
            prop_assert_eq!(heap.object(id).size(), sizes[&id]);
        }
        prop_assert_eq!(depth_map(&heap, None), depths_before);
        // No dangling references anywhere.
        for id in heap.object_ids().collect::<Vec<_>>() {
            for &r in heap.object(id).refs() {
                prop_assert!(heap.contains(r), "dangling {r} from {id}");
            }
        }
    }

    #[test]
    fn grouping_classifies_every_live_fgo(spec in graph_strategy(100), depth in 0u32..6) {
        let (mut heap, _) = build(&spec);
        heap.retire_alloc_targets();
        heap.clear_newly_allocated_flags();
        let live = reachable_set(&heap);
        let (_, outcome) = GroupingGc::new(GcCostModel::default(), depth, HashSet::new())
            .collect_grouping(&mut heap, &mut NoTouch);
        let mut classified = 0u64;
        for &id in &live {
            let class = heap.object(id).class().expect("live FGO must be classified");
            let kind = heap.region(heap.object(id).region()).kind();
            let expect = match class {
                ObjectClass::Nro | ObjectClass::Fyo => RegionKind::Launch,
                ObjectClass::Ws => RegionKind::Ws,
                ObjectClass::Cold => RegionKind::Cold,
            };
            prop_assert_eq!(kind, expect);
            classified += 1;
        }
        prop_assert_eq!(classified, outcome.launch_objects + outcome.ws_objects + outcome.cold_objects);
        // NRO really are the depth-bounded set.
        let depths = depth_map(&heap, None);
        for &id in &live {
            if depths.get(id).expect("live objects are reached") <= depth {
                prop_assert_eq!(heap.object(id).class(), Some(ObjectClass::Nro));
            }
        }
    }

    #[test]
    fn bgc_never_frees_fgo_and_frees_only_garbage_bgo(
        spec in graph_strategy(80),
        bgo_count in 1usize..40,
        attach in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let (mut heap, fgo_ids) = build(&spec);
        heap.cards_mut().clear();
        heap.set_context(AllocContext::Background);
        let mut bgo_ids = Vec::new();
        for i in 0..bgo_count {
            let b = heap.alloc(64);
            if attach[i % attach.len()] {
                // Attach under a root so it is reachable.
                let root = heap.roots()[0];
                heap.add_ref(root, b);
            }
            bgo_ids.push(b);
        }
        let live_before = reachable_set(&heap);
        BackgroundObjectGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);
        for &id in &fgo_ids {
            prop_assert!(heap.contains(id), "BGC must never free FGO");
        }
        for &id in &bgo_ids {
            prop_assert_eq!(heap.contains(id), live_before.contains(&id));
        }
    }

    #[test]
    fn marvin_gc_is_sound_with_random_bookmarks(
        spec in graph_strategy(80),
        marks in proptest::collection::vec(any::<bool>(), 80),
    ) {
        let (mut heap, ids) = build(&spec);
        let mut gc = MarvinGc::new(GcCostModel::default(), 1024);
        for (i, &id) in ids.iter().enumerate() {
            if marks[i % marks.len()] {
                gc.state_mut().mark_swapped(&heap, id);
            }
        }
        let live_before = reachable_set(&heap);
        let addr_before: HashMap<ObjectId, u64> =
            live_before.iter().map(|&id| (id, heap.address(id))).collect();
        gc.collect(&mut heap, &mut NoTouch);
        for &id in &ids {
            prop_assert_eq!(heap.contains(id), live_before.contains(&id));
        }
        // Non-moving: addresses are stable.
        for (&id, &addr) in &addr_before {
            prop_assert_eq!(heap.address(id), addr);
        }
        // Stubs of dead objects are gone.
        for obj in gc.state().swapped_objects().collect::<Vec<_>>() {
            prop_assert!(heap.contains(obj));
        }
    }

    #[test]
    fn kernel_conserves_pages(
        ops in proptest::collection::vec((0u8..5, 0u64..64), 1..200),
    ) {
        let mut mm = MemoryManager::new(MmConfig {
            dram_bytes: 48 * PAGE_SIZE,
            swap: SwapConfig { capacity_bytes: 48 * PAGE_SIZE, ..SwapConfig::default() },
            low_watermark_frames: 4,
            high_watermark_frames: 8,
            ..MmConfig::default()
        });
        let pid = Pid(1);
        let mut mapped: HashSet<u64> = HashSet::new();
        for (op, page) in ops {
            let addr = page * PAGE_SIZE;
            match op {
                0 => {
                    let kind = if page % 3 == 0 { PageKind::File } else { PageKind::Anon };
                    if mm.map_range_kind(pid, addr, PAGE_SIZE, kind).is_ok() {
                        mapped.insert(page);
                    }
                }
                1 => {
                    mm.unmap_range(pid, addr, PAGE_SIZE);
                    mapped.remove(&page);
                }
                2 => {
                    let _ = mm.access(pid, addr, 64, AccessKind::Mutator);
                }
                3 => {
                    mm.madvise(pid, addr, PAGE_SIZE, Advice::ColdRuntime);
                }
                _ => {
                    mm.kswapd();
                }
            }
            // Conservation: every mapped page is resident or swapped; counts match.
            let mem = mm.process_mem(pid);
            prop_assert_eq!(mem.resident + mem.swapped, mapped.len() as u64);
            prop_assert!(mm.used_frames() <= mm.frames_capacity());
            prop_assert!(mm.swap().used_pages() <= mm.swap().capacity_pages());
        }
    }

    #[test]
    fn lru_eviction_never_returns_a_recently_touched_page_first(
        touches in proptest::collection::vec(0u64..16, 1..64),
    ) {
        use fleet_kernel::{LruQueue, PageKey};
        let mut lru = LruQueue::new();
        for i in 0..16u64 {
            lru.insert(PageKey { pid: Pid(1), index: i });
        }
        for &t in &touches {
            lru.touch(PageKey { pid: Pid(1), index: t });
        }
        let last = *touches.last().expect("non-empty");
        // The most recently touched page is popped last.
        let mut order = Vec::new();
        while let Some(k) = lru.pop_coldest() {
            order.push(k.index);
        }
        prop_assert_eq!(order.len(), 16);
        prop_assert_eq!(*order.last().expect("non-empty"), last);
    }
}
