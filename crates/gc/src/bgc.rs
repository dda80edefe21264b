//! Fleet's Background-object GC (§5.2).
//!
//! BGC replaces the major GC while an app is cached in the background. It
//! "aims to free garbage objects only from BGO to minimize access to the
//! FGO":
//!
//! 1. **Root set** — the ordinary roots plus every foreground object whose
//!    card is dirty (it was written since the last BGC, so it may hold a
//!    reference into the background heap). Dirty FGO were written recently,
//!    hence resident — scanning them does not fault swapped pages.
//! 2. **Trace** — references into foreground regions are treated as live
//!    *without accessing the object* ("it considers this object as a live
//!    object and does not access it"); only background objects are visited.
//! 3. **Evacuate** — live BGO are copied to fresh background to-regions and
//!    the background from-regions are released.
//! 4. **Card upkeep** — cards are cleared, then re-dirtied for every
//!    scanned FGO, so the next BGC sees its edges again, and for every BGO
//!    an aborted evacuation left in an old region with an edge into a
//!    newly-allocated one. (ART calls this card *aging*; without it a second
//!    BGC would free reachable BGO.)

use crate::collector::{
    audit_gc_end, begin, dirty_cards, evacuate, region_of, scan_cards, sweep_regions, trace,
    Collector, GcCostModel, GcKind, GcStats, MemoryTouch,
};
use fleet_heap::{Heap, ObjectId, RegionId, RegionKind, RegionSet};

/// The background-object collector.
///
/// # Examples
///
/// ```
/// use fleet_gc::{BackgroundObjectGc, Collector, GcCostModel, NoTouch};
/// use fleet_heap::{AllocContext, Heap, HeapConfig};
///
/// let mut heap = Heap::new(HeapConfig::default());
/// let fgo = heap.alloc(64);
/// heap.add_root(fgo);
/// heap.set_context(AllocContext::Background);
/// heap.alloc(64); // background garbage
/// let stats = BackgroundObjectGc::new(GcCostModel::default()).collect(&mut heap, &mut NoTouch);
/// assert_eq!(stats.objects_freed, 1);
/// assert!(heap.contains(fgo)); // FGO is out of scope for BGC
/// ```
#[derive(Debug, Clone)]
pub struct BackgroundObjectGc {
    cost: GcCostModel,
}

impl BackgroundObjectGc {
    /// Creates a collector with the given cost model.
    pub fn new(cost: GcCostModel) -> Self {
        BackgroundObjectGc { cost }
    }
}

impl Collector for BackgroundObjectGc {
    fn collect(&mut self, heap: &mut Heap, touch: &mut dyn MemoryTouch) -> GcStats {
        let mut stats = begin(heap, GcKind::Bgc, false, &self.cost);
        let bg_regions: Vec<RegionId> =
            heap.regions().filter(|r| r.kind() == RegionKind::Bg).map(|r| r.id()).collect();
        let bg: RegionSet = bg_regions.iter().copied().collect();
        let is_bgo = |obj: ObjectId| bg.contains(heap.object(obj).region());

        // FGO sources (roots and FGO on dirty cards) contribute their refs;
        // FGO found *during* the trace are live by fiat and never accessed.
        let dirty_fgo = scan_cards(heap, &self.cost, &mut stats, |o| !is_bgo(o));
        let traced = trace(heap, &self.cost, touch, &mut stats, &dirty_fgo, is_bgo);

        // Live BGO move into fresh background regions; background
        // from-regions are released once empty (always, unless the
        // evacuation aborted).
        let copied =
            evacuate(heap, &self.cost, touch, &mut stats, &traced.order, |_, _| RegionKind::Bg);
        sweep_regions(heap, &bg_regions, |o| traced.live.contains(o), &mut stats);

        // Card aging. BGC consumed only one piece of the card table's
        // information — which FGO may reference background objects. The same
        // dirty cards also serve as the minor GC's old→young remembered set
        // and as the incremental re-grouping's cold remembered set, and BGC
        // cannot tell those apart without tracing the foreground heap (the
        // very thing it exists to avoid). So every scanned FGO card is
        // re-dirtied: cards only retire when a collector that consumes their
        // full meaning (a full GC or a full grouping) clears them.
        //
        // BGO cards carry the old→young set too. A clean evacuation moves
        // every live BGO into a fresh region, which the next minor GC treats
        // as young. After an abort, a BGO left in place in an old region
        // keeps its card if it references an object in a newly-allocated
        // region, or that minor GC frees the target.
        let young = |h: &Heap, o: ObjectId| region_of(h, o).newly_allocated();
        heap.cards_mut().clear();
        dirty_cards(heap, traced.sources.iter(), |_, _| true);
        dirty_cards(heap, traced.order[copied..].iter().copied(), |h, o| {
            !young(h, o) && h.object(o).refs().iter().any(|&r| young(h, r))
        });
        heap.bump_gc_epoch();
        heap.update_limit_after_gc();
        audit_gc_end(heap, &stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::NoTouch;
    use fleet_heap::{AllocContext, HeapConfig};
    use fleet_sim::SimDuration;

    fn heap() -> Heap {
        Heap::new(HeapConfig { region_size: 4096, initial_limit: 8192, ..HeapConfig::default() })
    }

    /// FGO graph + switch to background.
    fn backgrounded_heap(fgo_count: usize) -> (Heap, Vec<ObjectId>) {
        let mut h = heap();
        let mut fgo = Vec::new();
        let root = h.alloc(64);
        h.add_root(root);
        fgo.push(root);
        let mut prev = root;
        for _ in 1..fgo_count {
            let o = h.alloc(64);
            h.add_ref(prev, o);
            prev = o;
            fgo.push(o);
        }
        // Cards dirtied during construction are ancient history by the time
        // the app is backgrounded; the grouping GC (or a full GC) would have
        // consumed them. Clear to model a settled foreground heap.
        h.cards_mut().clear();
        h.set_context(AllocContext::Background);
        (h, fgo)
    }

    #[test]
    fn frees_bgo_garbage_only() {
        let (mut h, fgo) = backgrounded_heap(10);
        let bgo_live = h.alloc(32);
        h.add_root(bgo_live);
        h.alloc(32); // BGO garbage
        h.alloc(32); // BGO garbage
        let stats = BackgroundObjectGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        assert_eq!(stats.objects_freed, 2);
        assert!(h.contains(bgo_live));
        for o in fgo {
            assert!(h.contains(o), "BGC must never free an FGO");
        }
    }

    #[test]
    fn working_set_excludes_clean_fgo() {
        let (mut h, _fgo) = backgrounded_heap(100);
        // A couple of BGO.
        let b = h.alloc(32);
        h.add_root(b);
        let stats = BackgroundObjectGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        // Traced: the FGO root chain head (seeded from roots) + 1 BGO;
        // the 99 clean chain FGO are never visited.
        assert!(stats.objects_traced <= 3, "traced {}", stats.objects_traced);
    }

    #[test]
    fn dirty_fgo_keeps_bgo_alive() {
        let (mut h, fgo) = backgrounded_heap(5);
        let hidden_bgo = h.alloc(32);
        // Reachable ONLY through an FGO written while in the background.
        h.add_ref(fgo[3], hidden_bgo); // write barrier dirties fgo[3]'s card
        let stats = BackgroundObjectGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        assert!(h.contains(hidden_bgo));
        assert!(stats.cards_scanned > 0);
        assert_eq!(stats.objects_freed, 0);
    }

    #[test]
    fn card_aging_preserves_liveness_across_bgcs() {
        let (mut h, fgo) = backgrounded_heap(5);
        let hidden_bgo = h.alloc(32);
        h.add_ref(fgo[3], hidden_bgo);
        let mut gc = BackgroundObjectGc::new(GcCostModel::default());
        gc.collect(&mut h, &mut NoTouch);
        assert!(h.contains(hidden_bgo));
        // Second BGC with NO new writes: the re-dirtied card must still
        // protect the BGO.
        gc.collect(&mut h, &mut NoTouch);
        assert!(h.contains(hidden_bgo), "card aging must keep FGO→BGO edges visible");
    }

    #[test]
    fn bgc_preserves_the_minor_gc_remembered_set() {
        // Regression: an old FGO referencing a *young* FGO must keep its
        // dirty card across a BGC, or a following minor GC frees the young
        // object and leaves a dangling reference.
        use crate::minor::MinorGc;
        let (mut h, fgo) = backgrounded_heap(5);
        // Young FGO (allocate in foreground context to land in Eden).
        h.set_context(AllocContext::Foreground);
        let young = h.alloc(32);
        h.add_ref(fgo[3], young); // dirties fgo[3]'s card
        h.set_context(AllocContext::Background);
        h.alloc(32); // some BGO garbage so the BGC has work
        BackgroundObjectGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        assert!(h.contains(young), "BGC must not touch young FGO");
        // The card must still be dirty, or the minor GC below is unsound.
        assert!(h.cards().is_dirty(h.address(fgo[3])));
        MinorGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        assert!(h.contains(young), "young FGO reachable via carded old FGO must survive");
        h.validate_refs().expect("no dangling references");
    }

    #[test]
    fn bgo_evacuation_compacts_into_bg_regions() {
        let (mut h, _) = backgrounded_heap(3);
        let keep = h.alloc(32);
        h.add_root(keep);
        for _ in 0..200 {
            h.alloc(32); // garbage spanning multiple Bg regions
        }
        let bg_regions_before = h.regions().filter(|r| r.kind() == RegionKind::Bg).count();
        assert!(bg_regions_before >= 2);
        BackgroundObjectGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        let bg_regions_after = h.regions().filter(|r| r.kind() == RegionKind::Bg).count();
        assert_eq!(bg_regions_after, 1);
        assert_eq!(h.region(h.object(keep).region()).kind(), RegionKind::Bg);
    }

    #[test]
    fn fgo_addresses_never_move() {
        let (mut h, fgo) = backgrounded_heap(10);
        let addrs: Vec<u64> = fgo.iter().map(|&o| h.address(o)).collect();
        h.alloc(32);
        BackgroundObjectGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        let after: Vec<u64> = fgo.iter().map(|&o| h.address(o)).collect();
        assert_eq!(addrs, after, "BGC must not move foreground objects");
    }

    #[test]
    fn touch_never_hits_clean_fgo_addresses() {
        struct Recorder(Vec<u64>);
        impl MemoryTouch for Recorder {
            fn touch(&mut self, addr: u64, _size: u32) -> SimDuration {
                self.0.push(addr);
                SimDuration::ZERO
            }
        }
        let (mut h, fgo) = backgrounded_heap(50);
        let clean_fgo_addrs: Vec<u64> = fgo[1..].iter().map(|&o| h.address(o)).collect();
        let b = h.alloc(32);
        h.add_root(b);
        let mut rec = Recorder(Vec::new());
        BackgroundObjectGc::new(GcCostModel::default()).collect(&mut h, &mut rec);
        for addr in &rec.0 {
            assert!(
                !clean_fgo_addrs.contains(addr),
                "BGC touched a clean FGO at {addr} — that is the page-fault storm Fleet avoids"
            );
        }
    }
}
