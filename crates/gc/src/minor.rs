//! ART's minor GC: collects only regions allocated since the last GC.
//!
//! "Minor GC frees garbage objects from newly allocated regions after the
//! last GC" (§5.2). Liveness of young objects comes from two sources: the
//! roots, and old→young references found by scanning the dirty cards of the
//! card table — old regions are *not* traced wholesale.

use crate::collector::{
    begin, dirty_cards, evacuate, finish, home_kind, region_of, scan_cards, sweep_regions, trace,
    Collector, GcCostModel, GcKind, GcStats, MemoryTouch,
};
use fleet_heap::{Heap, ObjectId, RegionId, RegionKind, RegionSet};

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
        let mut stats = begin(heap, GcKind::Minor, false, &self.cost);
        let young_regions: Vec<RegionId> =
            heap.regions().filter(|r| r.newly_allocated()).map(|r| r.id()).collect();
        let young: RegionSet = young_regions.iter().copied().collect();
        let is_young = |obj: ObjectId| young.contains(heap.object(obj).region());

        // Trace young liveness from the roots and from the old objects on
        // dirty cards (possible old→young references). Old objects act as
        // one-hop sources: their refs are scanned (the object itself was
        // recently written, hence resident) but old→old edges stop there.
        let boundary = scan_cards(heap, &self.cost, &mut stats, |o| !is_young(o));
        let traced = trace(heap, &self.cost, touch, &mut stats, &boundary, is_young);

        // A copy-budget denial promotes the remaining survivors in place
        // (their region just loses its newly-allocated flag).
        evacuate(heap, &self.cost, touch, &mut stats, &traced.order, |h, o| home_kind(h, o));
        sweep_regions(heap, &young_regions, |o| traced.live.contains(o), &mut stats);

        // Card aging, with the same preservation rules as BGC: sources that
        // reference background objects keep their cards (BGC's remembered
        // set), and sources in *cold* regions keep theirs unconditionally
        // (the incremental re-grouping remembered set — see
        // `GroupingGc::with_incremental`). Young survivors outside
        // background regions need the same BGC rule: a young FGO holding the
        // only edge to a BGO had a dirty card from the write barrier, and
        // dropping it here would let the next BGC free a reachable BGO.
        let kind = |h: &Heap, o: ObjectId| region_of(h, o).kind();
        let refs_bgo = |h: &Heap, o: ObjectId| {
            h.object(o).refs().iter().any(|&r| kind(h, r) == RegionKind::Bg)
        };
        heap.cards_mut().clear();
        dirty_cards(heap, traced.sources.iter(), |h, o| {
            kind(h, o) == RegionKind::Cold || refs_bgo(h, o)
        });
        dirty_cards(heap, traced.order.iter().copied(), |h, o| match kind(h, o) {
            RegionKind::Bg => false,
            RegionKind::Cold => true,
            _ => refs_bgo(h, o),
        });
        finish(heap, &stats);
        stats
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
