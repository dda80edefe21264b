//! ART's full concurrent-copying GC — the default-Android baseline.
//!
//! "The GC performs liveness analysis of objects by traversing the object
//! reference graph and copies live objects to a new memory location" (§2.2).
//! The crucial property for the paper is that the trace *touches every live
//! object*, resident or swapped — when a background app's pages have been
//! swapped out, this GC faults them all back in (Figure 4's access spike at
//! 37 s), which is why default Android cannot keep many apps cached.

use crate::collector::{
    audit_evac_abort, audit_gc_end, audit_gc_start, obs_gc_phase, sweep_regions, Collector,
    GcCostModel, GcKind, GcStats, MemoryTouch,
};
use fleet_heap::{AllocContext, Heap, ObjectId, ObjectMarks, RegionKind, RegionSet};
use fleet_sim::SimDuration;

/// The full copying collector (DFS trace over the whole heap).
///
/// # Examples
///
/// ```
/// use fleet_gc::{Collector, FullCopyingGc, GcCostModel, NoTouch};
/// use fleet_heap::{Heap, HeapConfig};
///
/// let mut heap = Heap::new(HeapConfig::default());
/// let keep = heap.alloc(32);
/// heap.add_root(keep);
/// heap.alloc(32); // garbage
/// let stats = FullCopyingGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);
/// assert_eq!(stats.objects_traced, 1);
/// assert_eq!(stats.objects_freed, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FullCopyingGc {
    cost: GcCostModel,
}

impl FullCopyingGc {
    /// Creates a collector with the given cost model.
    pub fn new(cost: GcCostModel) -> Self {
        FullCopyingGc { cost }
    }
}

impl Collector for FullCopyingGc {
    fn collect(&mut self, heap: &mut Heap, touch: &mut dyn MemoryTouch) -> GcStats {
        let mut stats = GcStats::new(GcKind::Full);
        stats.stw += self.cost.stw_base;
        audit_gc_start(heap, GcKind::Full, true);

        let from_regions = heap.region_ids();
        heap.retire_alloc_targets();

        // DFS trace from the roots, touching every visited object at its
        // pre-copy address (this is what faults swapped pages back in).
        // The mark set is a dense bitmap over arena slots, not a hash set:
        // one bit test-and-set per edge.
        let mut live = ObjectMarks::for_heap(heap);
        let mut order: Vec<ObjectId> = Vec::new();
        let mut stack: Vec<ObjectId> = heap.roots().to_vec();
        for &r in heap.roots() {
            live.insert(r);
        }
        while let Some(obj) = stack.pop() {
            let (addr, size) = (heap.address(obj), heap.object(obj).size());
            stats.fault_stall += touch.touch(addr, size);
            stats.cpu += self.cost.per_object_trace;
            stats.objects_traced += 1;
            order.push(obj);
            for &next in heap.object(obj).refs() {
                if live.insert(next) {
                    stack.push(next);
                }
            }
        }
        let mark_end = stats.cpu + stats.fault_stall;
        let traced = stats.objects_traced;
        obs_gc_phase(heap, "gc_mark", 1, SimDuration::ZERO, mark_end, || vec![("objects", traced)]);

        // Copy survivors to fresh to-regions; Android treats all to-regions
        // equally, so placement only distinguishes FGO/BGO allocation spaces.
        // Every copy first asks the embedder for budget: a denial (DRAM too
        // low to back another to-region page under an armed fault plan)
        // aborts the evacuation — this and all remaining survivors stay at
        // their pre-copy addresses and the GC degrades to an in-place sweep.
        // The trace was exact, so soundness is unaffected; only compaction
        // is lost until a later collection retries.
        let mut aborted_at = None;
        let mut abort_obs: Option<(SimDuration, u32, u64)> = None;
        for (i, &obj) in order.iter().enumerate() {
            let size = heap.object(obj).size() as u64;
            if !touch.copy_budget(size) {
                let region = heap.object(obj).region().0;
                audit_evac_abort(heap, region, (order.len() - i) as u64);
                stats.evac_aborted = true;
                abort_obs = Some((
                    (stats.cpu + stats.fault_stall).saturating_sub(mark_end),
                    region,
                    (order.len() - i) as u64,
                ));
                aborted_at = Some(i);
                break;
            }
            let dest = match heap.object(obj).context() {
                AllocContext::Foreground => RegionKind::Eden,
                AllocContext::Background => RegionKind::Bg,
            };
            heap.copy_object(obj, dest);
            heap.set_class(obj, None); // a full GC destroys any RGS grouping
            stats.bytes_copied += size;
            stats.cpu += self.cost.copy_cost(size);
        }
        if let Some(i) = aborted_at {
            // In-place survivors lose their RGS grouping too: a full GC
            // invalidates every class, moved or not.
            for &obj in &order[i..] {
                heap.set_class(obj, None);
            }
        }
        let copy_dur = (stats.cpu + stats.fault_stall).saturating_sub(mark_end);
        let copied = stats.bytes_copied;
        obs_gc_phase(heap, "gc_copy", 1, mark_end, copy_dur, || vec![("bytes", copied)]);
        if let Some((rel, region, left)) = abort_obs {
            obs_gc_phase(heap, "gc_evac_abort", 2, rel, SimDuration::ZERO, || {
                vec![("region", u64::from(region)), ("objects_left", left)]
            });
        }

        // Sweep the from-regions: anything unmarked is garbage. After a
        // clean evacuation this empties and frees every from-region; after
        // an abort, regions still holding in-place survivors stay mapped.
        sweep_regions(heap, &from_regions, |o| live.contains(o), &mut stats);

        // All addresses moved: stale cards are dropped, then the one piece
        // of card information that outlives a full GC is rebuilt — which
        // foreground objects reference background objects (the BGC
        // remembered set). Everything else (old→young, cold boundaries) was
        // consumed: the young generation was collected and no cold regions
        // survive a full GC.
        heap.cards_mut().clear();
        let bg_regions: RegionSet =
            heap.regions().filter(|r| r.kind() == RegionKind::Bg).map(|r| r.id()).collect();
        if !bg_regions.is_empty() {
            let needs_card: Vec<ObjectId> = order
                .iter()
                .copied()
                .filter(|&o| {
                    heap.object(o).context() == AllocContext::Foreground
                        && heap
                            .object(o)
                            .refs()
                            .iter()
                            .any(|&r| bg_regions.contains(heap.object(r).region()))
                })
                .collect();
            for obj in needs_card {
                let addr = heap.address(obj);
                let size = heap.object(obj).size() as u64;
                heap.cards_mut().dirty_range(addr, size);
            }
        }
        // Post-GC allocations must open fresh (flagged) regions, not
        // continue into the to-regions that survivors were copied to.
        heap.retire_alloc_targets();
        heap.clear_newly_allocated_flags();
        heap.bump_gc_epoch();
        heap.update_limit_after_gc();
        audit_gc_end(heap, &stats);
        stats
    }

    fn kind(&self) -> GcKind {
        GcKind::Full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::NoTouch;
    use fleet_heap::{depth_map, HeapConfig};
    use fleet_sim::SimDuration;

    fn heap() -> Heap {
        Heap::new(HeapConfig { region_size: 4096, initial_limit: 8192, ..HeapConfig::default() })
    }

    #[test]
    fn collects_unreachable_graph() {
        let mut h = heap();
        let root = h.alloc(100);
        let kept = h.alloc(50);
        h.add_root(root);
        h.add_ref(root, kept);
        // Unreachable cycle.
        let a = h.alloc(10);
        let b = h.alloc(10);
        h.add_ref(a, b);
        h.add_ref(b, a);
        let stats = FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        assert_eq!(stats.objects_traced, 2);
        assert_eq!(stats.objects_freed, 2);
        assert_eq!(stats.bytes_freed, 20);
        assert!(h.contains(root) && h.contains(kept));
        assert!(!h.contains(a) && !h.contains(b));
    }

    #[test]
    fn preserves_reference_topology() {
        let mut h = heap();
        let root = h.alloc(64);
        h.add_root(root);
        let mut prev = root;
        let mut ids = vec![root];
        for _ in 0..20 {
            let next = h.alloc(32);
            h.add_ref(prev, next);
            prev = next;
            ids.push(next);
        }
        let before = depth_map(&h, None);
        FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        let after = depth_map(&h, None);
        assert_eq!(before, after, "copying must not change the graph shape");
        for id in ids {
            assert!(h.contains(id));
        }
    }

    #[test]
    fn frees_all_from_regions() {
        let mut h = heap();
        let root = h.alloc(100);
        h.add_root(root);
        for _ in 0..200 {
            h.alloc(100); // garbage filling several regions
        }
        let regions_before = h.stats().regions;
        assert!(regions_before > 2);
        let stats = FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        assert_eq!(stats.regions_freed, regions_before);
        // One compact region remains.
        assert_eq!(h.stats().regions, 1);
        assert_eq!(h.used_bytes(), 100);
    }

    #[test]
    fn working_set_is_whole_live_heap() {
        let mut h = heap();
        let root = h.alloc(16);
        h.add_root(root);
        let mut prev = root;
        for _ in 0..99 {
            let next = h.alloc(16);
            h.add_ref(prev, next);
            prev = next;
        }
        let stats = FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        assert_eq!(stats.objects_traced, 100);
        assert!(stats.cpu >= SimDuration::from_nanos(100 * 150));
    }

    #[test]
    fn touch_observer_sees_pre_copy_addresses() {
        struct Recorder(Vec<u64>);
        impl MemoryTouch for Recorder {
            fn touch(&mut self, addr: u64, _size: u32) -> SimDuration {
                self.0.push(addr);
                SimDuration::ZERO
            }
        }
        let mut h = heap();
        let root = h.alloc(100);
        h.add_root(root);
        let old_addr = h.address(root);
        let mut rec = Recorder(Vec::new());
        FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut rec);
        assert_eq!(rec.0, vec![old_addr]);
        assert_ne!(h.address(root), old_addr);
    }

    #[test]
    fn updates_heap_limit_and_epoch() {
        let mut h = heap();
        let root = h.alloc(3000);
        h.add_root(root);
        for _ in 0..10 {
            h.alloc(3000);
        }
        assert!(h.should_trigger_gc());
        FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        assert_eq!(h.gc_epoch(), 1);
        assert!(!h.should_trigger_gc());
        assert_eq!(h.limit(), 8192.max((3000f64 * 2.0) as u64));
    }

    /// Grants the first `grants` copy requests, then denies everything —
    /// the shape of a device whose DRAM runs out mid-evacuation.
    struct Budget {
        grants: usize,
    }

    impl MemoryTouch for Budget {
        fn touch(&mut self, _addr: u64, _size: u32) -> SimDuration {
            SimDuration::ZERO
        }
        fn copy_budget(&mut self, _bytes: u64) -> bool {
            if self.grants == 0 {
                false
            } else {
                self.grants -= 1;
                true
            }
        }
    }

    #[test]
    fn evac_abort_leaves_survivors_in_place_and_still_sweeps() {
        let mut h = heap();
        let root = h.alloc(64);
        h.add_root(root);
        let mut prev = root;
        let mut live_ids = vec![root];
        for _ in 0..9 {
            let next = h.alloc(64);
            h.add_ref(prev, next);
            prev = next;
            live_ids.push(next);
        }
        for _ in 0..20 {
            h.alloc(64); // garbage interleaved with the survivors
        }
        let before_addrs: Vec<u64> = live_ids.iter().map(|&o| h.address(o)).collect();
        let shape_before = depth_map(&h, None);

        let stats =
            FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut Budget { grants: 3 });

        // Exactly three survivors moved; the other seven kept their
        // pre-copy addresses.
        assert_eq!(stats.bytes_copied, 3 * 64);
        let moved =
            live_ids.iter().zip(&before_addrs).filter(|&(&o, &addr)| h.address(o) != addr).count();
        assert_eq!(moved, 3);
        // The sweep is unaffected by the abort: every garbage object died.
        assert_eq!(stats.objects_freed, 20);
        assert_eq!(stats.bytes_freed, 20 * 64);
        for id in &live_ids {
            assert!(h.contains(*id));
        }
        assert_eq!(depth_map(&h, None), shape_before, "abort must not change the graph");
        h.validate_refs().unwrap();
    }

    #[test]
    fn zero_budget_degrades_to_in_place_sweep() {
        let mut h = heap();
        let root = h.alloc(100);
        h.add_root(root);
        let addr = h.address(root);
        for _ in 0..50 {
            h.alloc(100);
        }
        let regions_before = h.stats().regions;
        let stats =
            FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut Budget { grants: 0 });
        assert_eq!(stats.bytes_copied, 0);
        assert_eq!(stats.objects_freed, 50);
        assert_eq!(h.address(root), addr, "nothing may move without budget");
        // Only the root's region survives; the all-garbage ones were freed.
        assert_eq!(stats.regions_freed, regions_before - 1);
        assert_eq!(h.stats().regions, 1);
        h.validate_refs().unwrap();
    }

    #[test]
    fn empty_heap_collection_is_safe() {
        let mut h = heap();
        let stats = FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        assert_eq!(stats.objects_traced, 0);
        assert_eq!(stats.objects_freed, 0);
    }
}
