//! The collector interface, cost model and statistics.

use fleet_heap::{Heap, ObjectId, RegionId};
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

/// Emits a probe record, stamped with the owning pid, into the heap's
/// `audit` (flight-recorder event) or `obs` (span) log. Each kind compiles
/// to nothing without its feature, which is why the helpers below take
/// `_`-prefixed parameters: a build without the feature never reads them.
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

/// Emits a [`GcStart`](fleet_audit::AuditEvent::GcStart) event.
///
/// `complete` declares the collection's soundness contract to the auditor:
/// a complete collection (full, Marvin, non-incremental grouping) sweeps the
/// whole heap, so everything unreachable at start must be gone at the end;
/// a partial collection (minor, BGC, incremental grouping) only promises
/// never to free a live object.
pub(crate) fn audit_gc_start(_heap: &mut Heap, _kind: GcKind, _complete: bool) {
    probe!(audit, _heap, |pid| fleet_audit::AuditEvent::GcStart {
        pid,
        kind: _kind.to_string(),
        complete: _complete,
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

/// Emits an [`EvacAbort`](fleet_audit::AuditEvent::EvacAbort) event when a
/// copying collector runs out of copy budget mid-evacuation: `region` is the
/// from-region of the first object denied, `objects_left` the live objects
/// left in place.
pub(crate) fn audit_evac_abort(_heap: &mut Heap, _region: u32, _objects_left: u64) {
    probe!(audit, _heap, |pid| fleet_audit::AuditEvent::EvacAbort {
        pid,
        region: _region,
        objects_left: _objects_left,
    });
}

/// Pushes one GC phase span into the heap's obs log: `"gc_mark"` /
/// `"gc_copy"` at depth 1 (placed by the device layer under its
/// per-collection root span), `"gc_evac_abort"` at depth 2 inside the copy
/// phase. `rel_start` is the offset from the parent span's start; `args` is
/// only evaluated if the log is actually recording.
pub(crate) fn obs_gc_phase(
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

    /// The collector's kind tag.
    fn kind(&self) -> GcKind;
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
