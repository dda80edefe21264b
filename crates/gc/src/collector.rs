//! The collector interface, cost model and statistics, and the one core
//! the copying collectors share.
//!
//! ART runs one concurrent-copying engine (§2.2), and Fleet's BGC (§5.2)
//! and RGS grouping (§5.3.1) are policies over it. So are the collectors
//! here. The full, minor, BGC and grouping collectors each choose three
//! things: which objects they trace, where each survivor goes and which
//! cards outlive them. The mechanism is shared:
//!
//! * `begin` and `finish` open and close a collection,
//! * `scan_cards` reads the dirty cards,
//! * `trace` marks depth-first (the grouping GC keeps its own BFS),
//! * `evacuate` copies survivors under the embedder's copy budget,
//! * `sweep_regions` frees the dead and releases emptied regions,
//! * `dirty_cards` rebuilds a remembered set, and `keep_cards` applies the
//!   card rule of the collectors that trace the whole (non-cold) heap.

use fleet_heap::{AllocContext, Heap, ObjectId, ObjectMarks, Region, RegionId, RegionKind};
use fleet_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Which collector produced a [`GcStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GcKind {
    /// ART full concurrent-copying GC (the Android baseline).
    Full,
    /// ART minor GC over newly-allocated regions.
    Minor,
    /// Marvin's bookmarking GC.
    Marvin,
    /// Fleet's background-object GC (§5.2).
    Bgc,
    /// Fleet's RGS grouping GC (§5.3.1).
    Grouping,
}

impl std::fmt::Display for GcKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GcKind::Full => "full",
            GcKind::Minor => "minor",
            GcKind::Marvin => "marvin",
            GcKind::Bgc => "bgc",
            GcKind::Grouping => "grouping",
        };
        write!(f, "{s}")
    }
}

/// Observer for the memory the GC thread touches.
///
/// The embedding layer implements this by forwarding to the kernel model's
/// page LRU, so GC reads promote pages and fault swapped ones back in — the
/// §3.2 "GC may offset the effects of swapping" mechanism. The returned
/// duration is the stall the GC thread suffered (zero for resident pages).
pub trait MemoryTouch {
    /// The GC read `size` bytes at heap address `addr`.
    fn touch(&mut self, addr: u64, size: u32) -> SimDuration;

    /// Asks the embedder whether `bytes` more can be copied to a to-region.
    ///
    /// Copying collectors call this before evacuating each object. A `false`
    /// answer means the embedding layer cannot back another to-region page
    /// (DRAM below the low watermark while a fault plan is armed): the
    /// collector must abort evacuation — remaining live objects stay in
    /// place — and degrade to an in-place sweep of the garbage it has
    /// already proven dead. The default always grants, which preserves the
    /// legacy infallible-copy behaviour for [`NoTouch`] and quiet devices.
    fn copy_budget(&mut self, bytes: u64) -> bool {
        let _ = bytes;
        true
    }
}

/// A [`MemoryTouch`] that records nothing and never stalls; for unit tests
/// and heap-only usage.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTouch;

impl MemoryTouch for NoTouch {
    fn touch(&mut self, _addr: u64, _size: u32) -> SimDuration {
        SimDuration::ZERO
    }
}

/// CPU-cost constants for GC work, scaled for a mobile big core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GcCostModel {
    /// Cost of visiting one object during tracing (mark + scan refs).
    pub per_object_trace: SimDuration,
    /// Cost per byte copied to a to-region.
    pub copy_bytes_per_sec: f64,
    /// Cost of scanning one dirty card.
    pub per_card_scan: SimDuration,
    /// Base stop-the-world pause (two pause points of the CC collector).
    pub stw_base: SimDuration,
    /// Marvin: per-stub reconciliation cost inside the STW pause. This is
    /// drawback (i) of Marvin in §3.1 — "a long STW pause time to maintain
    /// consistency between the separated reference information and objects".
    pub marvin_per_stub_stw: SimDuration,
}

impl Default for GcCostModel {
    fn default() -> Self {
        GcCostModel {
            per_object_trace: SimDuration::from_nanos(150),
            copy_bytes_per_sec: 4.0e9,
            per_card_scan: SimDuration::from_nanos(200),
            stw_base: SimDuration::from_micros(800),
            marvin_per_stub_stw: SimDuration::from_nanos(2500),
        }
    }
}

impl GcCostModel {
    /// CPU cost of copying `bytes` bytes.
    pub fn copy_cost(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.copy_bytes_per_sec)
    }
}

/// What one collection did and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcStats {
    /// Which collector ran.
    pub kind: GcKind,
    /// Objects the GC thread visited — the paper's "GC working set"
    /// (Figure 12).
    pub objects_traced: u64,
    /// Bytes copied to to-regions.
    pub bytes_copied: u64,
    /// Garbage objects freed.
    pub objects_freed: u64,
    /// Garbage bytes freed.
    pub bytes_freed: u64,
    /// Regions released.
    pub regions_freed: u64,
    /// Dirty cards scanned.
    pub cards_scanned: u64,
    /// Stop-the-world pause experienced by mutators.
    pub stw: SimDuration,
    /// Total GC-thread CPU time (tracing, copying, card scans).
    pub cpu: SimDuration,
    /// Time the GC thread stalled on swapped-in pages.
    pub fault_stall: SimDuration,
    /// True when the copy phase ran out of copy budget and aborted
    /// evacuation (remaining live objects stayed in place; see
    /// [`MemoryTouch::copy_budget`]).
    pub evac_aborted: bool,
}

impl GcStats {
    pub(crate) fn new(kind: GcKind) -> Self {
        GcStats {
            kind,
            objects_traced: 0,
            bytes_copied: 0,
            objects_freed: 0,
            bytes_freed: 0,
            regions_freed: 0,
            cards_scanned: 0,
            stw: SimDuration::ZERO,
            cpu: SimDuration::ZERO,
            fault_stall: SimDuration::ZERO,
            evac_aborted: false,
        }
    }

    /// Wall-clock duration of the collection (CPU + fault stalls).
    pub fn duration(&self) -> SimDuration {
        self.cpu + self.fault_stall
    }
}

/// Emits a probe record, stamped with the owning pid, into the heap's
/// `audit` (flight-recorder event) or `obs` (span) log. Each kind compiles
/// to nothing without its feature, which is why the helpers here name
/// feature-only values with a leading `_`: a build without the feature
/// never reads them.
macro_rules! probe {
    (audit, $heap:ident, |$pid:ident| $ev:expr) => {{
        #[cfg(feature = "audit")]
        $heap.probes_mut().audit.push(|$pid| $ev);
    }};
    (obs, $heap:ident, |$pid:ident| $rec:expr) => {{
        #[cfg(feature = "obs")]
        $heap.probes_mut().obs.push(|$pid| $rec);
    }};
}

/// Opens a collection of `kind`: charges the base pause, announces it to
/// the auditor and retires the allocation targets, so that to-regions and
/// everything allocated after the collection open fresh regions.
///
/// `complete` declares the collection's soundness contract to the auditor:
/// a complete collection (full, Marvin, non-incremental grouping) sweeps the
/// whole heap, so everything unreachable at start must be gone at the end;
/// a partial collection (minor, BGC, incremental grouping) only promises
/// never to free a live object.
pub(crate) fn begin(heap: &mut Heap, kind: GcKind, _complete: bool, cost: &GcCostModel) -> GcStats {
    let mut stats = GcStats::new(kind);
    stats.stw += cost.stw_base;
    probe!(audit, heap, |pid| fleet_audit::AuditEvent::GcStart {
        pid,
        kind: kind.to_string(),
        complete: _complete,
    });
    heap.retire_alloc_targets();
    stats
}

/// Closes a compacting collection: post-GC allocations must open fresh
/// (flagged) regions, not continue into the to-regions survivors were
/// copied to. Then clears the newly-allocated flags, bumps the epoch,
/// resizes the heap limit from the live bytes and reports the counters.
pub(crate) fn finish(heap: &mut Heap, stats: &GcStats) {
    heap.retire_alloc_targets();
    heap.clear_newly_allocated_flags();
    heap.bump_gc_epoch();
    heap.update_limit_after_gc();
    audit_gc_end(heap, stats);
}

/// The region holding `obj`.
pub(crate) fn region_of(heap: &Heap, obj: ObjectId) -> &Region {
    heap.region(heap.object(obj).region())
}

/// The region kind `obj` is allocated into, and copied to by the full and
/// minor collectors: FGO and BGO keep to their own allocation spaces.
pub(crate) fn home_kind(heap: &Heap, obj: ObjectId) -> RegionKind {
    match heap.object(obj).context() {
        AllocContext::Foreground => RegionKind::Eden,
        AllocContext::Background => RegionKind::Bg,
    }
}

/// Scans every dirty card, charging its cost, and returns the objects on
/// them that `keep` accepts, in card order.
pub(crate) fn scan_cards(
    heap: &Heap,
    cost: &GcCostModel,
    stats: &mut GcStats,
    keep: impl Fn(ObjectId) -> bool,
) -> Vec<ObjectId> {
    let mut found = Vec::new();
    for card in heap.cards().dirty_cards() {
        stats.cards_scanned += 1;
        stats.cpu += cost.per_card_scan;
        found.extend(heap.objects_in_card(card).into_iter().filter(|&o| keep(o)));
    }
    found
}

/// Charges one traced object: the GC thread reads it at its current
/// address (which faults a swapped page back in) and scans it.
pub(crate) fn visit(
    heap: &Heap,
    cost: &GcCostModel,
    touch: &mut dyn MemoryTouch,
    stats: &mut GcStats,
    obj: ObjectId,
) {
    stats.fault_stall += touch.touch(heap.address(obj), heap.object(obj).size());
    stats.cpu += cost.per_object_trace;
    stats.objects_traced += 1;
}

/// What [`trace`] found.
pub(crate) struct Traced {
    /// The live in-scope objects in visit order: the evacuation order.
    pub order: Vec<ObjectId>,
    /// Marks of `order`.
    pub live: ObjectMarks,
    /// The out-of-scope roots and boundary objects scanned one hop.
    pub sources: ObjectMarks,
}

/// Marks the live objects `in_scope` accepts, depth-first from the roots
/// and then from `boundary`. A seed out of scope is a one-hop source: it is
/// touched and its references are scanned, but nothing out of scope is
/// followed further. References out of scope count as live without being
/// accessed. The mark sets are dense bitmaps over arena slots.
pub(crate) fn trace(
    heap: &Heap,
    cost: &GcCostModel,
    touch: &mut dyn MemoryTouch,
    stats: &mut GcStats,
    boundary: &[ObjectId],
    in_scope: impl Fn(ObjectId) -> bool,
) -> Traced {
    let mut t = Traced {
        order: Vec::new(),
        live: ObjectMarks::for_heap(heap),
        sources: ObjectMarks::for_heap(heap),
    };
    let mut stack = Vec::new();
    let mut scan = |obj, live: &mut ObjectMarks, stack: &mut Vec<ObjectId>| {
        visit(heap, cost, touch, stats, obj);
        for &next in heap.object(obj).refs() {
            if in_scope(next) && live.insert(next) {
                stack.push(next);
            }
        }
    };
    for &obj in heap.roots().iter().chain(boundary) {
        if in_scope(obj) {
            if t.live.insert(obj) {
                stack.push(obj);
            }
        } else if t.sources.insert(obj) {
            scan(obj, &mut t.live, &mut stack);
        }
    }
    while let Some(obj) = stack.pop() {
        t.order.push(obj);
        scan(obj, &mut t.live, &mut stack);
    }
    t
}

/// Ends the mark phase, then copies `order` to to-regions of the kind
/// `dest` picks for each object; `dest` runs after the budget check and may
/// also reclassify the object. Returns how many objects were copied.
///
/// Every copy first asks the embedder for budget. A denial (DRAM too low to
/// back another to-region page under an armed fault plan) aborts the
/// evacuation: that object and every later one, `order[copied..]`, stay at
/// their pre-copy addresses, and the collection degrades to an in-place
/// sweep. The trace was exact, so soundness is unaffected; only compaction
/// is lost until a later collection retries. The abort is announced as an
/// `EvacAbort` event naming the first denied object's region.
pub(crate) fn evacuate(
    heap: &mut Heap,
    cost: &GcCostModel,
    touch: &mut dyn MemoryTouch,
    stats: &mut GcStats,
    order: &[ObjectId],
    mut dest: impl FnMut(&mut Heap, ObjectId) -> RegionKind,
) -> usize {
    let mark_end = stats.duration();
    let (traced, cards, full) =
        (stats.objects_traced, stats.cards_scanned, stats.kind == GcKind::Full);
    // The full GC scans no cards, so its span carries no card count.
    obs_gc_phase(heap, "gc_mark", 1, SimDuration::ZERO, mark_end, || {
        let cards = (!full).then_some(("cards", cards));
        [("objects", traced)].into_iter().chain(cards).collect()
    });
    let mut copied = order.len();
    for (i, &obj) in order.iter().enumerate() {
        let size = u64::from(heap.object(obj).size());
        if !touch.copy_budget(size) {
            copied = i;
            break;
        }
        let kind = dest(heap, obj);
        heap.copy_object(obj, kind);
        stats.bytes_copied += size;
        stats.cpu += cost.copy_cost(size);
    }
    let copy_dur = stats.duration().saturating_sub(mark_end);
    let bytes = stats.bytes_copied;
    obs_gc_phase(heap, "gc_copy", 1, mark_end, copy_dur, || vec![("bytes", bytes)]);
    if let Some(&denied) = order.get(copied) {
        stats.evac_aborted = true;
        let (region, left) = (heap.object(denied).region().0, (order.len() - copied) as u64);
        probe!(audit, heap, |pid| fleet_audit::AuditEvent::EvacAbort {
            pid,
            region,
            objects_left: left,
        });
        obs_gc_phase(heap, "gc_evac_abort", 2, copy_dur, SimDuration::ZERO, || {
            vec![("region", u64::from(region)), ("objects_left", left)]
        });
    }
    copied
}

/// Sweeps each from-region with [`Heap::sweep_region`]: objects `is_live`
/// rejects are garbage, and regions left empty are released (all of them,
/// unless the evacuation aborted). Tallies what was reclaimed in `stats`.
pub(crate) fn sweep_regions(
    heap: &mut Heap,
    regions: &[RegionId],
    is_live: impl Fn(ObjectId) -> bool,
    stats: &mut GcStats,
) {
    for &rid in regions {
        let swept = heap.sweep_region(rid, &is_live);
        stats.objects_freed += swept.objects;
        stats.bytes_freed += swept.bytes;
        stats.regions_freed += u64::from(swept.region_freed);
    }
}

/// Dirties the card of each of `objs` that `keep` accepts: the part of a
/// remembered set a collection rebuilds after clearing the card table.
pub(crate) fn dirty_cards(
    heap: &mut Heap,
    objs: impl IntoIterator<Item = ObjectId>,
    keep: impl Fn(&Heap, ObjectId) -> bool,
) {
    for obj in objs {
        if keep(heap, obj) {
            let (addr, size) = (heap.address(obj), u64::from(heap.object(obj).size()));
            heap.cards_mut().dirty_range(addr, size);
        }
    }
}

/// Rebuilds the cards of the `survivors` of a collection that traced the
/// whole non-cold heap (the full GC and the grouping GC). The old→young set
/// was consumed, so a survivor keeps its card only for an edge a partial
/// collector cannot find without it:
///
/// * an FGO→BGO edge: the next BGC does not trace the foreground heap,
/// * an edge out of a cold region to a non-cold object: the next
///   incremental re-grouping treats cold regions as an untraced boundary,
///   so the edge may be the only path keeping its target alive. After a
///   clean full GC no cold region is left; after an aborted one, survivors
///   stay in theirs.
///
/// A rule whose region kind the heap no longer maps cannot fire, and is
/// skipped without reading the survivors.
pub(crate) fn keep_cards(heap: &mut Heap, survivors: &[ObjectId]) {
    let maps = |kind| heap.regions().any(|r| r.kind() == kind);
    let (bg, cold) = (maps(RegionKind::Bg), maps(RegionKind::Cold));
    if !bg && !cold {
        return;
    }
    dirty_cards(heap, survivors.iter().copied(), |heap, obj| {
        let o = heap.object(obj);
        let kind = |r: &ObjectId| region_of(heap, *r).kind();
        (bg && o.context() == AllocContext::Foreground
            && o.refs().iter().any(|r| kind(r) == RegionKind::Bg))
            || (cold
                && region_of(heap, obj).kind() == RegionKind::Cold
                && o.refs().iter().any(|r| kind(r) != RegionKind::Cold))
    });
}

/// Emits a [`GcEnd`](fleet_audit::AuditEvent::GcEnd) event carrying the
/// collection's reported counters, which the auditor cross-checks against
/// the object events observed inside the window.
pub(crate) fn audit_gc_end(_heap: &mut Heap, _stats: &GcStats) {
    probe!(audit, _heap, |pid| fleet_audit::AuditEvent::GcEnd {
        pid,
        kind: _stats.kind.to_string(),
        objects_traced: _stats.objects_traced,
        bytes_copied: _stats.bytes_copied,
        objects_freed: _stats.objects_freed,
        bytes_freed: _stats.bytes_freed,
    });
}

/// Pushes one GC phase span into the heap's obs log: `"gc_mark"` /
/// `"gc_copy"` at depth 1 (placed by the device layer under its
/// per-collection root span), `"gc_evac_abort"` at depth 2 inside the copy
/// phase. `rel_start` is the offset from the parent span's start; `args` is
/// only evaluated if the log is actually recording.
fn obs_gc_phase(
    _heap: &mut Heap,
    _name: &'static str,
    _depth: u8,
    _rel_start: SimDuration,
    _dur: SimDuration,
    _args: impl FnOnce() -> Vec<(&'static str, u64)>,
) {
    probe!(obs, _heap, |pid| {
        fleet_obs::ObsRecord::Span(fleet_obs::SpanRec {
            pid,
            name: _name,
            cat: "gc",
            depth: _depth,
            rel_start: _rel_start.as_nanos(),
            dur: _dur.as_nanos(),
            args: _args(),
        })
    });
}

/// A garbage collector over the modelled heap.
pub trait Collector {
    /// Runs one collection, reporting object touches to `touch`.
    fn collect(&mut self, heap: &mut Heap, touch: &mut dyn MemoryTouch) -> GcStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_copy_cost() {
        let m = GcCostModel::default();
        let c = m.copy_cost(4_000_000_000);
        assert_eq!(c, SimDuration::from_secs(1));
        assert_eq!(m.copy_cost(0), SimDuration::ZERO);
    }

    #[test]
    fn stats_duration_sums_components() {
        let mut s = GcStats::new(GcKind::Full);
        s.cpu = SimDuration::from_millis(2);
        s.fault_stall = SimDuration::from_millis(3);
        assert_eq!(s.duration(), SimDuration::from_millis(5));
    }

    #[test]
    fn kind_display() {
        assert_eq!(GcKind::Bgc.to_string(), "bgc");
        assert_eq!(GcKind::Grouping.to_string(), "grouping");
    }

    #[test]
    fn no_touch_is_free() {
        assert_eq!(NoTouch.touch(0, 100), SimDuration::ZERO);
    }
}
