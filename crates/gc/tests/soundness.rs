//! Cross-collector soundness: arbitrary interleavings of every collector
//! with mutation in between must never create dangling references or free
//! reachable objects.
//!
//! This is exactly the bug class the card-table remembered sets guard
//! against (BGC, incremental re-grouping and the minor GC all consume and
//! must selectively preserve card information), so it gets its own
//! adversarial property test. Collections may also run out of copy budget
//! part-way, which aborts the evacuation: survivors stay in from-regions
//! whose allocation logs still name the objects copied out of them.

use fleet_gc::{
    BackgroundObjectGc, Collector, FullCopyingGc, GcCostModel, GroupingGc, MarvinGc, MemoryTouch,
    MinorGc, NoTouch,
};
use fleet_heap::{reachable_set, AllocContext, Heap, HeapConfig, ObjectClass, ObjectId};
use fleet_sim::SimDuration;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};

const CASES: u32 = 4096;
/// Cases of `any_collector_interleaving_is_sound` run so far, and per
/// copying collector (full, minor, BGC, grouping) the collections among
/// them whose evacuation aborted. Marvin never copies.
static CASES_RUN: AtomicU32 = AtomicU32::new(0);
static ABORTED: [AtomicU32; 4] =
    [AtomicU32::new(0), AtomicU32::new(0), AtomicU32::new(0), AtomicU32::new(0)];

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Allocate an object of the given size; attach it under an existing
    /// live object when the flag is set (else it is instant garbage).
    Alloc { size: u32, attach: bool, anchor: u8 },
    /// Add a reference between two existing live objects.
    Link { from: u8, to: u8 },
    /// Remove the first outgoing reference of an object.
    Unlink { from: u8 },
    /// Flip the allocation context (foreground ↔ background).
    FlipContext,
    /// Run a collector: 0=full, 1=minor, 2=bgc, 3=grouping(full),
    /// 4=grouping(incremental), 5=marvin. `grants` caps the copies the
    /// collection may make (see [`Budget`]).
    Collect { which: u8, grants: Option<u8> },
}

/// Grants `Some(k)` copies and then denies every further one, like a
/// device whose DRAM runs out mid-evacuation; `None` always grants.
struct Budget(Option<u8>);

impl MemoryTouch for Budget {
    fn touch(&mut self, _addr: u64, _size: u32) -> SimDuration {
        SimDuration::ZERO
    }

    fn copy_budget(&mut self, _bytes: u64) -> bool {
        match &mut self.0 {
            None => true,
            Some(0) => false,
            Some(k) => {
                *k -= 1;
                true
            }
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (16u32..2048, any::<bool>(), any::<u8>()).prop_map(|(size, attach, anchor)| Op::Alloc {
            size,
            attach,
            anchor
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(from, to)| Op::Link { from, to }),
        any::<u8>().prop_map(|from| Op::Unlink { from }),
        Just(Op::FlipContext),
        (0u8..6, prop_oneof![Just(None), (0u8..40).prop_map(Some)])
            .prop_map(|(which, grants)| Op::Collect { which, grants }),
    ]
}

/// Picks a live object deterministically from an index byte.
fn pick(heap: &Heap, index: u8) -> Option<ObjectId> {
    let ids: Vec<ObjectId> = heap.object_ids().collect();
    if ids.is_empty() {
        None
    } else {
        Some(ids[index as usize % ids.len()])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn any_collector_interleaving_is_sound(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut heap = Heap::new(HeapConfig::default());
        let root = heap.alloc(64);
        heap.add_root(root);
        let mut marvin = MarvinGc::new(GcCostModel::default(), 1024);
        let mut groupings = 0u32;

        for op in ops {
            match op {
                Op::Alloc { size, attach, anchor } => {
                    let obj = heap.alloc(size);
                    if attach {
                        if let Some(target) = pick(&heap, anchor) {
                            if target != obj {
                                heap.add_ref(target, obj);
                            }
                        }
                    }
                }
                Op::Link { from, to } => {
                    if let (Some(f), Some(t)) = (pick(&heap, from), pick(&heap, to)) {
                        heap.add_ref(f, t);
                    }
                }
                Op::Unlink { from } => {
                    if let Some(f) = pick(&heap, from) {
                        if let Some(&victim) = heap.object(f).refs().first() {
                            heap.remove_ref(f, victim);
                        }
                    }
                }
                Op::FlipContext => {
                    let next = match heap.context() {
                        AllocContext::Foreground => AllocContext::Background,
                        AllocContext::Background => AllocContext::Foreground,
                    };
                    heap.set_context(next);
                }
                Op::Collect { which, grants } => {
                    let live_before = reachable_set(&heap);
                    let touch = &mut Budget(grants);
                    let stats = match which {
                        0 => FullCopyingGc::new(GcCostModel::default()).collect(&mut heap, touch),
                        1 => MinorGc::new(GcCostModel::default()).collect(&mut heap, touch),
                        2 => BackgroundObjectGc::new(GcCostModel::default()).collect(&mut heap, touch),
                        3 | 4 => {
                            let incremental = which == 4 && groupings > 0;
                            groupings += 1;
                            GroupingGc::new(GcCostModel::default(), 2, HashSet::new())
                                .with_incremental(incremental)
                                .collect_grouping(&mut heap, touch)
                                .0
                        }
                        _ => marvin.collect(&mut heap, touch),
                    };
                    if stats.evac_aborted {
                        ABORTED[usize::from(which.min(3))].fetch_add(1, Ordering::Relaxed);
                    }
                    // Every reachable object survived the collection.
                    for &id in &live_before {
                        prop_assert!(heap.contains(id), "collector {which} freed reachable {id}");
                    }
                    // No dangling references anywhere in the heap.
                    prop_assert!(heap.validate_refs().is_ok(), "{:?}", heap.validate_refs());
                }
            }
            // The root never dies; accounting stays coherent.
            prop_assert!(heap.contains(root));
            prop_assert!(heap.live_bytes() <= heap.used_bytes());
        }
        // The budgets must keep reaching every copying collector's
        // aborted-evacuation path.
        if CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == CASES {
            let aborted: Vec<u32> = ABORTED.iter().map(|n| n.load(Ordering::Relaxed)).collect();
            eprintln!(
                "aborted evacuations in {CASES} cases: full {}, minor {}, BGC {}, grouping {}",
                aborted[0], aborted[1], aborted[2], aborted[3]
            );
            prop_assert!(aborted.iter().all(|&n| n > 0), "a copying collector never aborted");
        }
    }

    /// Differential tracing: ART's full GC walks the graph depth-first,
    /// Fleet's grouping GC breadth-first with a FIFO mark queue (§5.3.1).
    /// Traversal order must never change *what* is live — on any random
    /// object graph both collectors keep exactly the reachable set and
    /// identical survivor byte counts.
    #[test]
    fn dfs_and_bfs_tracing_agree_on_liveness(
        sizes in proptest::collection::vec(16u32..512, 1..40),
        edges in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..120),
        extra_roots in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let mut heap = Heap::new(HeapConfig::default());
        let ids: Vec<ObjectId> = sizes.iter().map(|&s| heap.alloc(s)).collect();
        heap.add_root(ids[0]);
        for &r in &extra_roots {
            heap.add_root(ids[r as usize % ids.len()]);
        }
        for &(from, to) in &edges {
            let f = ids[from as usize % ids.len()];
            let t = ids[to as usize % ids.len()];
            if f != t {
                heap.add_ref(f, t);
            }
        }
        let expected = reachable_set(&heap);
        let expected_bytes: u64 =
            expected.iter().map(|&id| heap.object(id).size() as u64).sum();

        let mut dfs_heap = heap.clone();
        let dfs = FullCopyingGc::new(GcCostModel::default()).collect(&mut dfs_heap, &mut NoTouch);
        let mut bfs_heap = heap;
        let (bfs, _) = GroupingGc::new(GcCostModel::default(), 2, HashSet::new())
            .collect_grouping(&mut bfs_heap, &mut NoTouch);

        let dfs_live: HashSet<ObjectId> = dfs_heap.object_ids().collect();
        let bfs_live: HashSet<ObjectId> = bfs_heap.object_ids().collect();
        prop_assert_eq!(&dfs_live, &expected, "DFS live set diverges from reachability");
        prop_assert_eq!(&bfs_live, &expected, "BFS live set diverges from reachability");
        prop_assert_eq!(dfs_heap.live_bytes(), expected_bytes);
        prop_assert_eq!(bfs_heap.live_bytes(), expected_bytes);
        // Both copy every survivor exactly once and trace the same count.
        prop_assert_eq!(dfs.bytes_copied, expected_bytes);
        prop_assert_eq!(bfs.bytes_copied, expected_bytes);
        prop_assert_eq!(dfs.objects_traced, expected.len() as u64);
        prop_assert_eq!(bfs.objects_traced, expected.len() as u64);
    }
}

/// Regression: a *young* FGO holding the only edge to a BGO. The write
/// barrier dirties the young object's card; the minor GC's card aging must
/// preserve it for the surviving object (BGC's remembered set), or the next
/// BGC frees a reachable BGO and leaves a dangling reference — found by the
/// 10k-device population sweep, where the following grouping GC panicked on
/// the dangle.
#[test]
fn minor_gc_preserves_young_fgo_to_bgo_cards() {
    let mut heap = Heap::new(HeapConfig::default());
    let root = heap.alloc(64);
    heap.add_root(root);

    // A background object, reachable only through a young FGO.
    heap.set_context(AllocContext::Background);
    let bgo = heap.alloc(64);
    heap.set_context(AllocContext::Foreground);

    // Flush newly-allocated state so the next alloc opens a fresh young
    // region, then create the young FGO with the only edge to the BGO.
    heap.clear_newly_allocated_flags();
    let young = heap.alloc(64);
    heap.add_ref(root, young);
    heap.add_ref(young, bgo);

    MinorGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);
    assert!(heap.contains(young));
    assert!(heap.contains(bgo), "minor GC must not free the BGO");

    BackgroundObjectGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);
    assert!(heap.contains(bgo), "BGC freed a BGO still referenced by a live young FGO");
    assert!(heap.validate_refs().is_ok(), "{:?}", heap.validate_refs());
}

/// Regression: a BGC that aborts its evacuation leaves a BGO in place in an
/// old region. Its card is the minor GC's only record of its edge to a
/// young object, so the BGC must keep it, or the next minor GC frees the
/// young object. `Device` runs a BGC while the app is in the background and
/// a minor GC once it is back in the foreground.
#[test]
fn aborted_bgc_keeps_old_to_young_cards() {
    let mut heap = Heap::new(HeapConfig::default());
    let root = heap.alloc(64);
    heap.add_root(root);
    heap.set_context(AllocContext::Background);
    let b = heap.alloc(64);
    heap.add_ref(root, b);
    MinorGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);

    let y = heap.alloc(64);
    heap.add_ref(b, y);
    let stats =
        BackgroundObjectGc::new(GcCostModel::default()).collect(&mut heap, &mut Budget(Some(0)));
    assert!(stats.evac_aborted);

    MinorGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);
    assert!(heap.contains(y), "the minor GC freed a young object referenced by an in-place BGO");
    assert!(heap.validate_refs().is_ok(), "{:?}", heap.validate_refs());
}

/// Regression: a full GC that aborts its evacuation leaves survivors in
/// their cold regions. An incremental re-grouping treats cold regions as an
/// untraced boundary and finds their edges only through their cards, so the
/// full GC must keep the cards of cold objects that reference non-cold
/// ones. `Device` reaches this through a foreground minor→full escalation
/// followed by an incremental re-grouping.
#[test]
fn aborted_full_gc_keeps_cold_remembered_set() {
    let mut heap = Heap::new(HeapConfig::default());
    let root = heap.alloc(64);
    heap.add_root(root);
    let c = heap.alloc(64);
    let y = heap.alloc(64);
    heap.add_ref(root, c);
    heap.add_ref(root, y);
    heap.add_ref(c, y);
    FullCopyingGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);
    GroupingGc::new(GcCostModel::default(), 0, HashSet::new())
        .collect_grouping(&mut heap, &mut NoTouch);
    let cold = |heap: &Heap, o: ObjectId| heap.object(o).class() == Some(ObjectClass::Cold);
    assert!(cold(&heap, c) && cold(&heap, y));

    // The DFS visits root, y, c: two grants move root and y, c stays cold.
    let c_addr = heap.address(c);
    let stats = FullCopyingGc::new(GcCostModel::default()).collect(&mut heap, &mut Budget(Some(2)));
    assert!(stats.evac_aborted);
    assert_eq!(heap.address(c), c_addr, "c must stay in its cold region");

    heap.remove_ref(root, y);
    GroupingGc::new(GcCostModel::default(), 0, HashSet::new())
        .with_incremental(true)
        .collect_grouping(&mut heap, &mut NoTouch);
    assert!(
        heap.contains(y),
        "the incremental grouping freed an object a cold survivor references"
    );
    assert!(heap.validate_refs().is_ok(), "{:?}", heap.validate_refs());
}
