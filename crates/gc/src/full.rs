//! ART's full concurrent-copying GC — the default-Android baseline.
//!
//! "The GC performs liveness analysis of objects by traversing the object
//! reference graph and copies live objects to a new memory location" (§2.2).
//! The crucial property for the paper is that the trace *touches every live
//! object*, resident or swapped — when a background app's pages have been
//! swapped out, this GC faults them all back in (Figure 4's access spike at
//! 37 s), which is why default Android cannot keep many apps cached.

use crate::collector::{
    begin, evacuate, finish, home_kind, keep_cards, sweep_regions, trace, Collector, GcCostModel,
    GcKind, GcStats, MemoryTouch,
};
use fleet_heap::Heap;

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
        let mut stats = begin(heap, GcKind::Full, true, &self.cost);
        let from_regions = heap.region_ids();

        // Every object is in scope: the DFS touches every live object at
        // its pre-copy address, which is what faults swapped pages back in.
        let traced = trace(heap, &self.cost, touch, &mut stats, &[], |_| true);

        // Android treats all to-regions equally, so placement only keeps
        // the FGO and BGO allocation spaces apart. A full GC destroys any
        // RGS grouping, of moved and in-place survivors alike.
        let copied = evacuate(heap, &self.cost, touch, &mut stats, &traced.order, |h, o| {
            h.set_class(o, None);
            home_kind(h, o)
        });
        for &obj in &traced.order[copied..] {
            heap.set_class(obj, None);
        }

        // Anything unmarked is garbage. After a clean evacuation this frees
        // every from-region; after an abort, regions still holding in-place
        // survivors stay mapped.
        sweep_regions(heap, &from_regions, |o| traced.live.contains(o), &mut stats);

        // Stale cards are dropped; what outlives a full GC is rebuilt.
        heap.cards_mut().clear();
        keep_cards(heap, &traced.order);
        finish(heap, &stats);
        stats
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
