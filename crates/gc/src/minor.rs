//! ART's minor GC: collects only regions allocated since the last GC.
//!
//! "Minor GC frees garbage objects from newly allocated regions after the
//! last GC" (§5.2). Liveness of young objects comes from two sources: the
//! roots, and old→young references found by scanning the dirty cards of the
//! card table — old regions are *not* traced wholesale.

use crate::collector::{
    audit_evac_abort, audit_gc_end, audit_gc_start, obs_gc_phase, sweep_regions, Collector,
    GcCostModel, GcKind, GcStats, MemoryTouch,
};
use fleet_heap::{AllocContext, Heap, ObjectId, ObjectMarks, RegionId, RegionKind, RegionSet};
use fleet_sim::SimDuration;

/// The minor (young-generation) collector.
///
/// # Examples
///
/// ```
/// use fleet_gc::{Collector, GcCostModel, MinorGc, NoTouch};
/// use fleet_heap::{Heap, HeapConfig};
///
/// let mut heap = Heap::new(HeapConfig::default());
/// let root = heap.alloc(32);
/// heap.add_root(root);
/// heap.alloc(32); // young garbage
/// let stats = MinorGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);
/// assert_eq!(stats.objects_freed, 1);
/// ```
#[derive(Debug, Clone)]
pub struct MinorGc {
    cost: GcCostModel,
}

impl MinorGc {
    /// Creates a collector with the given cost model.
    pub fn new(cost: GcCostModel) -> Self {
        MinorGc { cost }
    }
}

impl Collector for MinorGc {
    fn collect(&mut self, heap: &mut Heap, touch: &mut dyn MemoryTouch) -> GcStats {
        let mut stats = GcStats::new(GcKind::Minor);
        stats.stw += self.cost.stw_base;
        audit_gc_start(heap, GcKind::Minor, false);

        let young_regions: Vec<RegionId> =
            heap.regions().filter(|r| r.newly_allocated()).map(|r| r.id()).collect();
        let young_set: RegionSet = young_regions.iter().copied().collect();
        heap.retire_alloc_targets();

        let is_young = |heap: &Heap, obj: ObjectId| young_set.contains(heap.object(obj).region());

        // Old objects holding possible old→young references: the dirty cards.
        let mut boundary: Vec<ObjectId> = Vec::new();
        let dirty: Vec<usize> = heap.cards().dirty_cards().collect();
        for card in dirty {
            stats.cards_scanned += 1;
            stats.cpu += self.cost.per_card_scan;
            for obj in heap.objects_in_card(card) {
                if !is_young(heap, obj) {
                    boundary.push(obj);
                }
            }
        }

        // Trace young liveness from roots + carded old objects. Old objects
        // act as one-hop sources: their refs are scanned (the object itself
        // was recently written, hence resident) but old→old edges stop there.
        // Mark state lives in dense arena-slot bitmaps instead of hash sets.
        let mut live = ObjectMarks::for_heap(heap);
        let mut order: Vec<ObjectId> = Vec::new();
        let mut stack: Vec<ObjectId> = Vec::new();
        let seed = |heap: &Heap,
                    obj: ObjectId,
                    stats: &mut GcStats,
                    touch: &mut dyn MemoryTouch,
                    live: &mut ObjectMarks,
                    stack: &mut Vec<ObjectId>| {
            stats.fault_stall += touch.touch(heap.address(obj), heap.object(obj).size());
            stats.cpu += self.cost.per_object_trace;
            stats.objects_traced += 1;
            for &next in heap.object(obj).refs() {
                if young_set.contains(heap.object(next).region()) && live.insert(next) {
                    stack.push(next);
                }
            }
        };
        let roots: Vec<ObjectId> = heap.roots().to_vec();
        let mut seeded = ObjectMarks::for_heap(heap);
        for obj in roots.iter().copied().chain(boundary.iter().copied()) {
            if is_young(heap, obj) {
                if live.insert(obj) {
                    stack.push(obj);
                }
            } else if seeded.insert(obj) {
                seed(heap, obj, &mut stats, touch, &mut live, &mut stack);
            }
        }
        while let Some(obj) = stack.pop() {
            order.push(obj);
            stats.fault_stall += touch.touch(heap.address(obj), heap.object(obj).size());
            stats.cpu += self.cost.per_object_trace;
            stats.objects_traced += 1;
            for &next in heap.object(obj).refs() {
                if young_set.contains(heap.object(next).region()) && live.insert(next) {
                    stack.push(next);
                }
            }
        }

        let mark_end = stats.cpu + stats.fault_stall;
        let traced = stats.objects_traced;
        obs_gc_phase(heap, "gc_mark", 1, SimDuration::ZERO, mark_end, || {
            vec![("objects", traced), ("cards", stats.cards_scanned)]
        });

        // Evacuate young survivors, then sweep the young from-regions. A
        // copy-budget denial aborts the evacuation: remaining survivors are
        // promoted in place (their region just loses its newly-allocated
        // flag) and only proven-dead objects are swept.
        let mut abort_obs: Option<(SimDuration, u32, u64)> = None;
        for (i, &obj) in order.iter().enumerate() {
            let size = heap.object(obj).size() as u64;
            if !touch.copy_budget(size) {
                audit_evac_abort(heap, heap.object(obj).region().0, (order.len() - i) as u64);
                stats.evac_aborted = true;
                abort_obs = Some((
                    (stats.cpu + stats.fault_stall).saturating_sub(mark_end),
                    heap.object(obj).region().0,
                    (order.len() - i) as u64,
                ));
                break;
            }
            let dest = match heap.object(obj).context() {
                AllocContext::Foreground => RegionKind::Eden,
                AllocContext::Background => RegionKind::Bg,
            };
            heap.copy_object(obj, dest);
            stats.bytes_copied += size;
            stats.cpu += self.cost.copy_cost(size);
        }
        let copy_dur = (stats.cpu + stats.fault_stall).saturating_sub(mark_end);
        let copied = stats.bytes_copied;
        obs_gc_phase(heap, "gc_copy", 1, mark_end, copy_dur, || vec![("bytes", copied)]);
        if let Some((rel, region, left)) = abort_obs {
            obs_gc_phase(heap, "gc_evac_abort", 2, rel, SimDuration::ZERO, || {
                vec![("region", u64::from(region)), ("objects_left", left)]
            });
        }
        sweep_regions(heap, &young_regions, |o| live.contains(o), &mut stats);

        // Card aging, with the same preservation rules as BGC: boundary
        // objects that reference background objects keep their cards (BGC's
        // remembered set), and boundary objects in *cold* regions keep
        // theirs unconditionally (the incremental re-grouping remembered
        // set — see `GroupingGc::with_incremental`). Young survivors need
        // the same BGC rule: a young FGO holding the only edge to a BGO had
        // a dirty card from the write barrier, and dropping it here would
        // let the next BGC free a reachable BGO.
        heap.cards_mut().clear();
        let bg_regions: RegionSet =
            heap.regions().filter(|r| r.kind() == RegionKind::Bg).map(|r| r.id()).collect();
        let survivors: Vec<ObjectId> = order
            .iter()
            .copied()
            .filter(|&o| heap.contains(o) && !bg_regions.contains(heap.object(o).region()))
            .collect();
        for obj in seeded.iter().chain(survivors) {
            if !heap.contains(obj) {
                continue;
            }
            let in_cold = heap.region(heap.object(obj).region()).kind() == RegionKind::Cold;
            let refs_bgo = heap
                .object(obj)
                .refs()
                .iter()
                .any(|&r| bg_regions.contains(heap.object(r).region()));
            if in_cold || refs_bgo {
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
        GcKind::Minor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::NoTouch;
    use crate::full::FullCopyingGc;
    use fleet_heap::HeapConfig;

    fn heap() -> Heap {
        Heap::new(HeapConfig { region_size: 4096, initial_limit: 8192, ..HeapConfig::default() })
    }

    /// Builds a heap where `old` objects survived one full GC and `young`
    /// objects were allocated afterwards.
    fn aged_heap() -> (Heap, ObjectId) {
        let mut h = heap();
        let old_root = h.alloc(64);
        h.add_root(old_root);
        FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        (h, old_root)
    }

    #[test]
    fn young_garbage_dies_young_survivors_stay() {
        let (mut h, old_root) = aged_heap();
        let young_live = h.alloc(32);
        h.add_ref(old_root, young_live); // dirties old_root's card
        h.alloc(32); // young garbage
        let stats = MinorGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        assert_eq!(stats.objects_freed, 1);
        assert!(h.contains(young_live));
        assert!(h.contains(old_root));
    }

    #[test]
    fn old_objects_are_not_collected() {
        let (h, old_root) = aged_heap();
        // An *unreachable* old object: minor GC must not free it.
        let old_garbage = {
            let mut h2 = heap();
            let r = h2.alloc(64);
            h2.add_root(r);
            let g = h2.alloc(64);
            h2.add_ref(r, g);
            FullCopyingGc::new(GcCostModel::default()).collect(&mut h2, &mut NoTouch);
            h2.remove_ref(r, g);
            let stats = MinorGc::new(GcCostModel::default()).collect(&mut h2, &mut NoTouch);
            assert_eq!(stats.objects_freed, 0, "old garbage waits for a major GC");
            h2.contains(g)
        };
        assert!(old_garbage);
        let _ = old_root;
        let _ = h;
    }

    #[test]
    fn card_table_finds_old_to_young_refs() {
        let (mut h, old_root) = aged_heap();
        // A young object reachable ONLY through an old non-root object.
        let old_hidden = h.alloc(16); // young at first…
        h.add_ref(old_root, old_hidden);
        FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch); // …now old
        let young = h.alloc(16);
        h.add_ref(old_hidden, young); // dirties old_hidden's card
        let stats = MinorGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        assert!(h.contains(young), "young object reachable via carded old object survives");
        assert!(stats.cards_scanned > 0);
    }

    #[test]
    fn working_set_excludes_clean_old_objects() {
        let (mut h, old_root) = aged_heap();
        // Plenty of old objects that are never written again.
        let mut prev = old_root;
        for _ in 0..50 {
            let o = h.alloc(16);
            h.add_ref(prev, o);
            prev = o;
        }
        FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        // Young allocation with no old→young edge.
        let young = h.alloc(16);
        h.add_root(young);
        let stats = MinorGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        // Traced: the young root (+ the old root re-seeded from the root set),
        // but not the 50 clean old chain objects.
        assert!(stats.objects_traced <= 3, "traced {}", stats.objects_traced);
        assert!(h.contains(young));
    }

    #[test]
    fn newly_allocated_flags_are_consumed() {
        let (mut h, _) = aged_heap();
        h.alloc(16);
        assert!(h.regions().any(|r| r.newly_allocated()));
        MinorGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        assert!(h.regions().all(|r| !r.newly_allocated()));
    }
}
