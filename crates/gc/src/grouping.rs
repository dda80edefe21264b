//! Fleet's RGS object-grouping GC (§5.3.1).
//!
//! This full GC runs once, Ts seconds after an app is backgrounded. Unlike
//! ART's DFS collector it traverses the graph **breadth-first with a FIFO
//! mark queue and a depth delimiter**, which yields every object's shortest
//! distance from the roots. During the traversal objects are classified:
//!
//! * **NRO** — depth ≤ D (Table 2: D = 2),
//! * **FYO** — allocated since the last GC (the region's newly-allocated
//!   flag),
//! * **WS** — marked by a mutator read barrier while the GC ran (supplied
//!   here as the working-set hint),
//! * **cold** — everything else.
//!
//! The copy phase then groups classes into dedicated region kinds — Launch
//! (NRO ∪ FYO), WS and Cold — so that bump-pointer allocation compacts each
//! class onto its own pages. The returned [`GroupingOutcome`] carries the
//! address ranges of each group for the `madvise` calls of §5.3.2.

use crate::collector::{
    begin, dirty_cards, evacuate, finish, keep_cards, scan_cards, sweep_regions, visit,
    GcCostModel, GcKind, GcStats, MemoryTouch,
};
use fleet_heap::{
    AllocContext, DepthMap, Heap, ObjectClass, ObjectId, ObjectMarks, RegionId, RegionKind,
    RegionSet,
};
use std::collections::HashSet;

/// Byte ranges of the grouped pages plus per-class tallies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupingOutcome {
    /// `[base, len)` ranges of launch regions (NRO ∪ FYO).
    pub launch_ranges: Vec<(u64, u64)>,
    /// `[base, len)` ranges of working-set regions.
    pub ws_ranges: Vec<(u64, u64)>,
    /// `[base, len)` ranges of cold regions.
    pub cold_ranges: Vec<(u64, u64)>,
    /// Objects classified NRO (before overlap with FYO).
    pub nro_objects: u64,
    /// Objects classified FYO (before overlap with NRO).
    pub fyo_objects: u64,
    /// Objects placed in launch regions (NRO ∪ FYO).
    pub launch_objects: u64,
    /// Bytes placed in launch regions.
    pub launch_bytes: u64,
    /// Objects placed in WS regions.
    pub ws_objects: u64,
    /// Bytes placed in WS regions.
    pub ws_bytes: u64,
    /// Objects placed in cold regions.
    pub cold_objects: u64,
    /// Bytes placed in cold regions.
    pub cold_bytes: u64,
}

/// The grouping collector. `depth` is the paper's D parameter; `ws` is the
/// set of objects the mutator read barriers marked while the GC ran.
#[derive(Debug, Clone)]
pub struct GroupingGc {
    cost: GcCostModel,
    depth: u32,
    ws: ObjectMarks,
    incremental: bool,
}

impl GroupingGc {
    /// Creates a grouping collector with NRO depth `depth` and the given
    /// working-set hint.
    pub fn new(cost: GcCostModel, depth: u32, ws: HashSet<ObjectId>) -> Self {
        GroupingGc { cost, depth, ws: ws.into_iter().collect(), incremental: false }
    }

    /// Enables *incremental* re-grouping: regions that are already
    /// [`RegionKind::Cold`] keep their placement and are treated as a live
    /// boundary — they are neither traced into nor copied, so a re-grouping
    /// never faults the (swapped-out) cold bulk back in. References from
    /// modified cold objects are found through the card table, exactly as
    /// BGC finds modified FGO. Garbage inside cold regions is not collected
    /// until the next full grouping.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Runs the grouping collection.
    ///
    /// Returns both the GC statistics and the [`GroupingOutcome`] describing
    /// where each class landed. (This richer return is why `GroupingGc` has
    /// its own entry point; the plain [`crate::Collector`] impl discards the
    /// outcome.)
    pub fn collect_grouping(
        &mut self,
        heap: &mut Heap,
        touch: &mut dyn MemoryTouch,
    ) -> (GcStats, GroupingOutcome) {
        let mut stats = begin(heap, GcKind::Grouping, !self.incremental, &self.cost);
        let mut outcome = GroupingOutcome::default();

        // Incremental mode: existing cold regions stay in place untouched.
        let kept_cold: RegionSet = if self.incremental {
            heap.regions().filter(|r| r.kind() == RegionKind::Cold).map(|r| r.id()).collect()
        } else {
            RegionSet::default()
        };
        let from_regions: Vec<RegionId> =
            heap.region_ids().into_iter().filter(|&id| !kept_cold.contains(id)).collect();

        // FYO: foreground objects in regions allocated since the last GC
        // (§5.3.1 uses ART's per-region newly-allocated flag).
        let fyo_regions: RegionSet =
            heap.regions().filter(|r| r.newly_allocated()).map(|r| r.id()).collect();

        // Dirty cards over kept cold regions: modified cold objects may
        // reference new objects; scan them (they are resident — recently
        // written) without tracing the rest of the cold space.
        let mut cold_sources: Vec<ObjectId> = Vec::new();
        if self.incremental {
            cold_sources = scan_cards(heap, &self.cost, &mut stats, |o| {
                kept_cold.contains(heap.object(o).region())
            });
            cold_sources.sort_unstable();
            cold_sources.dedup();
        }

        // BFS with a FIFO mark queue; depth comes for free from the
        // traversal order (the paper's "depth delimiter" in the mark queue).
        // Once the search drains its queue, `depths` holds every reached
        // object in BFS order.
        let mut depths = DepthMap::new(heap);
        for &root in heap.roots() {
            depths.reach(root, 0);
        }
        // Modified cold objects seed the queue's frontier as depth-boundary
        // sources: their references are scanned but they stay in place.
        for &src in &cold_sources {
            visit(heap, &self.cost, touch, &mut stats, src);
            for &next in heap.object(src).refs() {
                if !kept_cold.contains(heap.object(next).region()) {
                    // Conservative depth: beyond the NRO horizon.
                    depths.reach(next, self.depth + 1);
                }
            }
        }
        let mut head = 0;
        while let Some((obj, d)) = depths.queued(head) {
            head += 1;
            visit(heap, &self.cost, touch, &mut stats, obj);
            for &next in heap.object(obj).refs() {
                // Kept cold objects are a live boundary: kept in place,
                // never accessed.
                if !kept_cold.contains(heap.object(next).region()) {
                    depths.reach(next, d + 1);
                }
            }
        }

        // Classify and copy. BGO stay in background regions; FGO are grouped.
        // A copy-budget denial aborts the grouping mid-way: objects not yet
        // copied keep their old placement and class (no grouping benefit,
        // but nothing moves without a backing frame) and the tallies
        // honestly reflect only what was actually grouped.
        evacuate(heap, &self.cost, touch, &mut stats, depths.order(), |heap, obj| {
            let size = heap.object(obj).size() as u64;
            let context = heap.object(obj).context();
            let (dest, class) = if context == AllocContext::Background {
                (RegionKind::Bg, None)
            } else {
                let is_nro = depths.get(obj).is_some_and(|d| d <= self.depth);
                let is_fyo = fyo_regions.contains(heap.object(obj).region());
                if is_nro {
                    outcome.nro_objects += 1;
                }
                if is_fyo {
                    outcome.fyo_objects += 1;
                }
                if is_nro || is_fyo {
                    let class = if is_nro { ObjectClass::Nro } else { ObjectClass::Fyo };
                    outcome.launch_objects += 1;
                    outcome.launch_bytes += size;
                    (RegionKind::Launch, Some(class))
                } else if self.ws.contains(obj) {
                    outcome.ws_objects += 1;
                    outcome.ws_bytes += size;
                    (RegionKind::Ws, Some(ObjectClass::Ws))
                } else {
                    outcome.cold_objects += 1;
                    outcome.cold_bytes += size;
                    (RegionKind::Cold, Some(ObjectClass::Cold))
                }
            };
            heap.set_class(obj, class);
            dest
        });

        // Sweep the from-space: unmarked objects are garbage; regions are
        // released only once empty (always, unless the evacuation aborted).
        sweep_regions(heap, &from_regions, |o| depths.get(o).is_some(), &mut stats);

        // Record the grouped ranges for madvise (§5.3.2). Whole regions are
        // reported: their pages are mapped and cohesive by construction.
        for region in heap.regions() {
            let range = (region.base(), region.size() as u64);
            match region.kind() {
                RegionKind::Launch => outcome.launch_ranges.push(range),
                RegionKind::Ws => outcome.ws_ranges.push(range),
                RegionKind::Cold => outcome.cold_ranges.push(range),
                _ => {}
            }
        }

        // Cards moved with the objects: clear, then rebuild the remembered
        // sets the incremental collectors rely on: the cold sources scanned
        // this round (their edges stay relevant until a full grouping
        // re-examines the cold space) and the survivors' (`keep_cards`).
        heap.cards_mut().clear();
        dirty_cards(heap, cold_sources, |_, _| true);
        keep_cards(heap, depths.order());
        finish(heap, &stats);
        (stats, outcome)
    }
}

impl crate::collector::Collector for GroupingGc {
    fn collect(&mut self, heap: &mut Heap, touch: &mut dyn MemoryTouch) -> GcStats {
        self.collect_grouping(heap, touch).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{Collector, NoTouch};
    use crate::full::FullCopyingGc;
    use fleet_heap::HeapConfig;

    fn heap() -> Heap {
        Heap::new(HeapConfig { region_size: 4096, initial_limit: 8192, ..HeapConfig::default() })
    }

    /// root → mid → deep chain, all FGO, aged by a full GC so nothing is FYO.
    fn aged_chain(len: usize) -> (Heap, Vec<ObjectId>) {
        let mut h = heap();
        let ids: Vec<ObjectId> = (0..len).map(|_| h.alloc(64)).collect();
        h.add_root(ids[0]);
        for w in ids.windows(2) {
            h.add_ref(w[0], w[1]);
        }
        FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        (h, ids)
    }

    fn run(h: &mut Heap, depth: u32, ws: HashSet<ObjectId>) -> (GcStats, GroupingOutcome) {
        GroupingGc::new(GcCostModel::default(), depth, ws).collect_grouping(h, &mut NoTouch)
    }

    #[test]
    fn nro_classification_follows_depth() {
        let (mut h, ids) = aged_chain(10);
        let (_, out) = run(&mut h, 2, HashSet::new());
        assert_eq!(out.nro_objects, 3); // depths 0, 1, 2
        for (i, &id) in ids.iter().enumerate() {
            let expect = if i <= 2 { ObjectClass::Nro } else { ObjectClass::Cold };
            assert_eq!(h.object(id).class(), Some(expect), "object {i}");
        }
    }

    #[test]
    fn fyo_classification_uses_newly_allocated_flag() {
        let (mut h, ids) = aged_chain(6);
        // Young allocations since the last GC: FYO.
        let young = h.alloc(64);
        h.add_ref(ids[5], young);
        let (_, out) = run(&mut h, 1, HashSet::new());
        assert_eq!(out.fyo_objects, 1);
        assert_eq!(h.object(young).class(), Some(ObjectClass::Fyo));
        // NRO wins the label when both apply, but either way it is a launch
        // object.
        assert_eq!(out.launch_objects, out.nro_objects + out.fyo_objects);
    }

    #[test]
    fn ws_objects_group_into_ws_regions() {
        let (mut h, ids) = aged_chain(8);
        let ws: HashSet<ObjectId> = [ids[5], ids[6]].into_iter().collect();
        let (_, out) = run(&mut h, 1, ws);
        assert_eq!(out.ws_objects, 2);
        assert_eq!(h.object(ids[5]).class(), Some(ObjectClass::Ws));
        assert_eq!(h.region(h.object(ids[5]).region()).kind(), RegionKind::Ws);
        assert!(!out.ws_ranges.is_empty());
    }

    #[test]
    fn classes_land_in_disjoint_regions() {
        let (mut h, ids) = aged_chain(20);
        let ws: HashSet<ObjectId> = [ids[10]].into_iter().collect();
        let (_, out) = run(&mut h, 2, ws);
        // Every live object sits in a region whose kind matches its class.
        for &id in &ids {
            let kind = h.region(h.object(id).region()).kind();
            match h.object(id).class() {
                Some(ObjectClass::Nro) | Some(ObjectClass::Fyo) => {
                    assert_eq!(kind, RegionKind::Launch)
                }
                Some(ObjectClass::Ws) => assert_eq!(kind, RegionKind::Ws),
                Some(ObjectClass::Cold) => assert_eq!(kind, RegionKind::Cold),
                None => panic!("FGO must be classified"),
            }
        }
        // Ranges of the three groups never overlap.
        let mut all = Vec::new();
        all.extend(&out.launch_ranges);
        all.extend(&out.ws_ranges);
        all.extend(&out.cold_ranges);
        for (i, &(b1, l1)) in all.iter().enumerate() {
            for &(b2, l2) in &all[i + 1..] {
                assert!(b1 + l1 <= b2 || b2 + l2 <= b1, "ranges overlap");
            }
        }
    }

    #[test]
    fn garbage_is_collected_during_grouping() {
        let (mut h, _) = aged_chain(4);
        h.alloc(128); // unreachable
        let (stats, _) = run(&mut h, 2, HashSet::new());
        assert_eq!(stats.objects_freed, 1);
        assert_eq!(stats.bytes_freed, 128);
    }

    #[test]
    fn bfs_depth_equals_graph_shortest_path() {
        let mut h = heap();
        let root = h.alloc(16);
        h.add_root(root);
        let a = h.alloc(16);
        let b = h.alloc(16);
        h.add_ref(root, a);
        h.add_ref(a, b);
        h.add_ref(root, b); // shortcut: b is depth 1
        FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        let (_, out) = run(&mut h, 1, HashSet::new());
        assert_eq!(out.nro_objects, 3, "root, a and b are all within depth 1");
        assert_eq!(h.object(b).class(), Some(ObjectClass::Nro));
    }

    #[test]
    fn bgo_stay_out_of_fgo_groups() {
        let (mut h, ids) = aged_chain(4);
        h.set_context(AllocContext::Background);
        let bgo = h.alloc(32);
        h.add_ref(ids[3], bgo);
        let (_, out) = run(&mut h, 1, HashSet::new());
        assert_eq!(h.object(bgo).class(), None);
        assert_eq!(h.region(h.object(bgo).region()).kind(), RegionKind::Bg);
        assert_eq!(out.launch_objects + out.ws_objects + out.cold_objects, 4);
        // The FGO→BGO edge survives as a dirty card for the next BGC.
        assert!(h.cards().is_dirty(h.address(ids[3])));
    }

    #[test]
    fn incremental_regrouping_preserves_reachability() {
        // Regression: an object that goes cold while referencing a non-cold
        // object must keep that edge visible (via its card) or a later
        // incremental re-grouping frees the target and leaves a dangling
        // reference that crashes the next full GC.
        let (mut h, ids) = aged_chain(40);
        let gc = |h: &mut Heap, incremental: bool| {
            GroupingGc::new(GcCostModel::default(), 2, HashSet::new())
                .with_incremental(incremental)
                .collect_grouping(h, &mut NoTouch)
        };
        gc(&mut h, false); // full grouping: deep chain objects go cold
                           // A cold object gains a reference to a brand-new object.
        let deep = ids[30];
        assert_eq!(h.region(h.object(deep).region()).kind(), RegionKind::Cold);
        let newcomer = h.alloc(64);
        h.add_ref(deep, newcomer);
        // Several incremental re-groupings; the newcomer must survive.
        for _ in 0..3 {
            gc(&mut h, true);
            assert!(h.contains(newcomer), "cold→new edge must keep the target alive");
        }
        // A full GC over the result must not find dangling references.
        FullCopyingGc::new(GcCostModel::default()).collect(&mut h, &mut NoTouch);
        assert!(h.contains(newcomer));
        for &id in &ids {
            assert!(h.contains(id));
        }
    }

    #[test]
    fn incremental_regrouping_skips_cold_touches() {
        use fleet_sim::SimDuration;
        struct Recorder(Vec<u64>);
        impl MemoryTouch for Recorder {
            fn touch(&mut self, addr: u64, _size: u32) -> SimDuration {
                self.0.push(addr);
                SimDuration::ZERO
            }
        }
        let (mut h, _) = aged_chain(60);
        GroupingGc::new(GcCostModel::default(), 2, HashSet::new())
            .collect_grouping(&mut h, &mut NoTouch);
        let cold_addrs: Vec<u64> = h
            .object_ids()
            .filter(|&o| h.region(h.object(o).region()).kind() == RegionKind::Cold)
            .map(|o| h.address(o))
            .collect();
        assert!(!cold_addrs.is_empty());
        let mut rec = Recorder(Vec::new());
        GroupingGc::new(GcCostModel::default(), 2, HashSet::new())
            .with_incremental(true)
            .collect_grouping(&mut h, &mut rec);
        for addr in &rec.0 {
            assert!(
                !cold_addrs.contains(addr),
                "incremental re-grouping must not touch kept-cold objects"
            );
        }
    }

    #[test]
    fn deeper_depth_grows_launch_set() {
        let (mut h1, _) = aged_chain(30);
        let (_, shallow) = run(&mut h1, 1, HashSet::new());
        let (mut h2, _) = aged_chain(30);
        let (_, deep) = run(&mut h2, 8, HashSet::new());
        assert!(deep.launch_objects > shallow.launch_objects);
        assert!(deep.launch_bytes > shallow.launch_bytes);
    }
}
