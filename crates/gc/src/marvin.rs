//! Marvin's bookmarking GC and object-granularity swap helpers.
//!
//! Marvin (Lebeck et al., ATC '20) is the paper's co-design baseline
//! (Table 1): it "saves corresponding references for each swapped-out
//! object, allowing it to locate live objects based on the references
//! without touching and swapping them back" (§2.2). The paper attributes
//! three drawbacks to it (§3.1/§6), each of which is a first-class mechanism
//! here:
//!
//! 1. **Long stop-the-world pauses** — reconciliation of the stub table is
//!    charged per stub inside the STW window,
//! 2. **Object-granularity analysis vs page-granularity swap** — only
//!    objects larger than a threshold (1024 B in §6) are bookmarked, and a
//!    page can only leave DRAM when *every* live byte on it belongs to
//!    bookmarked objects ([`swappable_pages`]); apps made of small objects
//!    therefore barely swap at all (Figure 11b),
//! 3. **LRU-agnostic eviction** — victim selection ignores the next
//!    hot-launch; that policy lives in the scheme layer.
//!
//! The collector itself is non-moving (bookmarks pin addresses), so
//! fragmentation persists — its heap limit tracks *used* rather than live
//! bytes.

use crate::collector::{audit_gc_end, begin, Collector, GcCostModel, GcKind, GcStats, MemoryTouch};
use fleet_heap::{Heap, ObjectId, ObjectMarks, PAGE_SIZE};

/// Marvin's persistent bookmarking state: which objects are swapped out and
/// therefore represented by resident stubs.
///
/// The stub table is a dense bitmap over arena slots (object ids are never
/// recycled), so the per-object `is_swapped` check on the trace hot path is
/// one bit test instead of a hash probe.
#[derive(Debug, Clone, Default)]
pub struct MarvinState {
    threshold: u32,
    swapped: ObjectMarks,
}

impl MarvinState {
    /// Creates a state with the large-object threshold (the paper evaluates
    /// Marvin with 1024 bytes, §6).
    pub fn new(threshold: u32) -> Self {
        MarvinState { threshold, swapped: ObjectMarks::default() }
    }

    /// True if `obj` is eligible for object-granularity swap.
    pub fn eligible(&self, heap: &Heap, obj: ObjectId) -> bool {
        heap.object(obj).size() >= self.threshold
    }

    /// Bookmarks `obj` as swapped out. Ineligible (small) objects are
    /// ignored, mirroring Marvin's inability to handle them. Returns whether
    /// the object was bookmarked.
    pub fn mark_swapped(&mut self, heap: &Heap, obj: ObjectId) -> bool {
        if self.eligible(heap, obj) {
            self.swapped.insert(obj);
            true
        } else {
            false
        }
    }

    /// Clears the bookmark after the object faults back in.
    pub fn mark_resident(&mut self, obj: ObjectId) {
        self.swapped.remove(obj);
    }

    /// True if `obj` is currently bookmarked (swapped out).
    pub fn is_swapped(&self, obj: ObjectId) -> bool {
        self.swapped.contains(obj)
    }

    /// Number of live stubs (drives the STW reconciliation cost).
    pub fn stub_count(&self) -> usize {
        self.swapped.len()
    }

    /// Iterates the bookmarked objects in ascending id order.
    pub fn swapped_objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.swapped.iter()
    }
}

/// Pages every live byte of which belongs to bookmarked objects — the only
/// pages Marvin can actually release. This is the paper's swap-amplification
/// mechanism: one small resident object pins its whole page.
pub fn swappable_pages(heap: &Heap, state: &MarvinState) -> Vec<u64> {
    let mut pages: Vec<u64> = Vec::new();
    for region in heap.regions() {
        if region.is_empty() {
            continue;
        }
        let first_page = region.base() / PAGE_SIZE;
        let page_count = region.size() as u64 / PAGE_SIZE;
        // A page is pinned if any non-bookmarked object overlaps it.
        let mut pinned = vec![false; page_count as usize];
        let mut occupied = vec![false; page_count as usize];
        for obj in heap.region_objects(region.id()) {
            let o = heap.object(obj);
            let start = o.offset() as u64;
            let end = start + o.size() as u64;
            let lo = (start / PAGE_SIZE) as usize;
            let hi = ((end - 1) / PAGE_SIZE) as usize;
            let swapped = state.is_swapped(obj);
            for p in lo..=hi {
                occupied[p] = true;
                if !swapped {
                    pinned[p] = true;
                }
            }
        }
        for (p, (&pin, &occ)) in pinned.iter().zip(&occupied).enumerate() {
            if occ && !pin {
                pages.push(first_page + p as u64);
            }
        }
    }
    pages
}

/// The bookmarking collector. Owns the persistent [`MarvinState`].
///
/// # Examples
///
/// ```
/// use fleet_gc::{Collector, GcCostModel, MarvinGc, NoTouch};
/// use fleet_heap::{Heap, HeapConfig};
///
/// let mut heap = Heap::new(HeapConfig::default());
/// let root = heap.alloc(2048);
/// heap.add_root(root);
/// let mut gc = MarvinGc::new(GcCostModel::default(), 1024);
/// let stats = gc.collect(&mut heap, &mut NoTouch);
/// assert_eq!(stats.objects_traced, 1);
/// ```
#[derive(Debug, Clone)]
pub struct MarvinGc {
    cost: GcCostModel,
    state: MarvinState,
}

impl MarvinGc {
    /// Creates a bookmarking collector with the given large-object
    /// threshold.
    pub fn new(cost: GcCostModel, threshold: u32) -> Self {
        MarvinGc { cost, state: MarvinState::new(threshold) }
    }

    /// The bookmarking state.
    pub fn state(&self) -> &MarvinState {
        &self.state
    }

    /// Mutable access to the bookmarking state (the scheme layer updates it
    /// as it swaps objects in and out).
    pub fn state_mut(&mut self) -> &mut MarvinState {
        &mut self.state
    }
}

impl Collector for MarvinGc {
    fn collect(&mut self, heap: &mut Heap, touch: &mut dyn MemoryTouch) -> GcStats {
        let mut stats = begin(heap, GcKind::Marvin, true, &self.cost);
        // Drawback (i): reconciling stubs with objects needs a long pause.
        stats.stw += self.cost.marvin_per_stub_stw * self.state.stub_count() as u64;

        // Mark phase: bookmarked objects are traversed via their resident
        // stubs (reference metadata) without touching object memory. The
        // mark set is a dense bitmap over arena slots.
        let mut live = ObjectMarks::for_heap(heap);
        let mut stack: Vec<ObjectId> = heap.roots().to_vec();
        for &r in heap.roots() {
            live.insert(r);
        }
        while let Some(obj) = stack.pop() {
            stats.cpu += self.cost.per_object_trace;
            stats.objects_traced += 1;
            if !self.state.is_swapped(obj) {
                stats.fault_stall += touch.touch(heap.address(obj), heap.object(obj).size());
            }
            for &next in heap.object(obj).refs() {
                if live.insert(next) {
                    stack.push(next);
                }
            }
        }

        // Sweep phase: non-moving, so garbage is freed in place and only
        // fully-empty regions are returned.
        let all: Vec<ObjectId> = heap.object_ids().collect();
        for obj in all {
            if !live.contains(obj) {
                stats.bytes_freed += heap.object(obj).size() as u64;
                stats.objects_freed += 1;
                self.state.mark_resident(obj); // drop the stub if any
                heap.free_object(obj);
            }
        }
        let empty: Vec<_> = heap.regions().filter(|r| r.is_empty()).map(|r| r.id()).collect();
        for rid in empty {
            heap.free_region(rid);
            stats.regions_freed += 1;
        }

        // Marvin does not consume card-table information (its remembered
        // set is the stub table), so the cards are left untouched: clearing
        // them would silently destroy the remembered sets other collectors
        // rely on. Non-moving, so no card addresses went stale either.
        heap.clear_newly_allocated_flags();
        heap.bump_gc_epoch();
        // Non-moving: fragmentation cannot be compacted away, so the trigger
        // threshold must track used (not live) bytes.
        let factor = heap.growth_factor();
        heap.set_limit((heap.used_bytes() as f64 * factor) as u64);
        audit_gc_end(heap, &stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::NoTouch;
    use fleet_heap::HeapConfig;
    use fleet_sim::SimDuration;

    fn heap() -> Heap {
        Heap::new(HeapConfig { region_size: 4096, initial_limit: 8192, ..HeapConfig::default() })
    }

    #[test]
    fn small_objects_are_never_bookmarked() {
        let mut h = heap();
        let small = h.alloc(512);
        let large = h.alloc(2048);
        let mut state = MarvinState::new(1024);
        assert!(!state.mark_swapped(&h, small));
        assert!(state.mark_swapped(&h, large));
        assert_eq!(state.stub_count(), 1);
        assert!(state.is_swapped(large));
        assert!(!state.is_swapped(small));
    }

    #[test]
    fn swapped_objects_are_not_touched_during_trace() {
        struct Recorder(Vec<u64>);
        impl MemoryTouch for Recorder {
            fn touch(&mut self, addr: u64, _size: u32) -> SimDuration {
                self.0.push(addr);
                SimDuration::ZERO
            }
        }
        let mut h = heap();
        let root = h.alloc(64);
        h.add_root(root);
        let big = h.alloc(2048);
        h.add_ref(root, big);
        let child = h.alloc(64);
        h.add_ref(big, child);
        let big_addr = h.address(big);
        let mut gc = MarvinGc::new(GcCostModel::default(), 1024);
        gc.state_mut().mark_swapped(&h, big);
        let mut rec = Recorder(Vec::new());
        let stats = gc.collect(&mut h, &mut rec);
        assert!(!rec.0.contains(&big_addr), "bookmarked object must not be touched");
        assert_eq!(stats.objects_traced, 3, "stub still contributes its references");
        assert!(h.contains(child), "objects reachable through stubs stay live");
    }

    #[test]
    fn stw_grows_with_stub_count() {
        let mut h = heap();
        let root = h.alloc(64);
        h.add_root(root);
        let mut gc = MarvinGc::new(GcCostModel::default(), 1024);
        let base_stw = gc.collect(&mut h, &mut NoTouch).stw;
        for _ in 0..100 {
            let big = h.alloc(2048);
            h.add_ref(root, big);
            gc.state_mut().mark_swapped(&h, big);
        }
        let loaded_stw = gc.collect(&mut h, &mut NoTouch).stw;
        assert!(
            loaded_stw > base_stw + SimDuration::from_micros(200),
            "{loaded_stw} vs {base_stw}"
        );
    }

    #[test]
    fn garbage_is_swept_in_place() {
        let mut h = heap();
        let root = h.alloc(64);
        h.add_root(root);
        let keep = h.alloc(64);
        h.add_ref(root, keep);
        let garbage = h.alloc(2048);
        let addr_keep = h.address(keep);
        let mut gc = MarvinGc::new(GcCostModel::default(), 1024);
        let stats = gc.collect(&mut h, &mut NoTouch);
        assert_eq!(stats.objects_freed, 1);
        assert_eq!(stats.bytes_freed, 2048);
        assert!(!h.contains(garbage));
        assert_eq!(h.address(keep), addr_keep, "bookmarking GC must not move objects");
    }

    #[test]
    fn swapped_garbage_loses_its_stub() {
        let mut h = heap();
        let root = h.alloc(64);
        h.add_root(root);
        let big = h.alloc(2048);
        let mut gc = MarvinGc::new(GcCostModel::default(), 1024);
        gc.state_mut().mark_swapped(&h, big);
        gc.collect(&mut h, &mut NoTouch);
        assert_eq!(gc.state().stub_count(), 0);
        assert!(!h.contains(big));
    }

    #[test]
    fn swappable_pages_require_pure_pages() {
        let mut h = heap();
        // Page 0: one large object (3000 B) + one small (500 B) sharing it.
        let big = h.alloc(3000);
        let small = h.alloc(500);
        let mut state = MarvinState::new(1024);
        state.mark_swapped(&h, big);
        // big spans pages 0..0 (0..3000) — small at 3000..3500 also page 0.
        let pages = swappable_pages(&h, &state);
        assert!(pages.is_empty(), "the small resident object pins the page");
        // Remove the pin: now the page is swappable.
        h.add_root(small); // keep borrow rules happy below
        h.remove_root(small);
        h.free_object(small);
        let pages = swappable_pages(&h, &state);
        assert_eq!(pages, vec![0]);
    }

    #[test]
    fn swappable_pages_multi_page_object() {
        let mut h = heap();
        // One 4096-aligned region: obj spans two pages cleanly.
        let big = h.alloc(4096 + 2048 - 4096); // 2048 bytes: page 0 only
        let big2 = h.alloc(2048); // 2048..4096: page 0 too
        let mut state = MarvinState::new(1024);
        state.mark_swapped(&h, big);
        state.mark_swapped(&h, big2);
        let pages = swappable_pages(&h, &state);
        assert_eq!(pages, vec![0], "page becomes swappable once all residents are bookmarked");
    }

    #[test]
    fn fragmentation_grows_under_marvin_but_not_full_gc() {
        use crate::full::FullCopyingGc;
        let build = || {
            let mut h = heap();
            let root = h.alloc(64);
            h.add_root(root);
            for _ in 0..50 {
                let live = h.alloc(100);
                h.add_ref(root, live);
                h.alloc(100); // interleaved garbage
            }
            h
        };
        let mut h = build();
        MarvinGc::new(GcCostModel::default(), 1024).collect(&mut h, &mut NoTouch);
        assert!(h.fragmentation() > 1.5, "non-moving sweep leaves holes: {}", h.fragmentation());
        let mut h = build();
        FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        assert!((h.fragmentation() - 1.0).abs() < 1e-9, "copying compacts: {}", h.fragmentation());
    }

    #[test]
    fn limit_tracks_used_bytes() {
        let mut h = heap();
        let root = h.alloc(64);
        h.add_root(root);
        // Fragmentation: garbage interleaved with live objects.
        for _ in 0..30 {
            let live = h.alloc(100);
            h.add_ref(root, live);
            h.alloc(100);
        }
        let mut gc = MarvinGc::new(GcCostModel::default(), 1024);
        gc.collect(&mut h, &mut NoTouch);
        // Non-moving: used stays above live.
        assert!(h.used_bytes() > h.live_bytes());
        assert_eq!(h.limit(), (h.used_bytes() as f64 * 2.0) as u64);
    }
}
