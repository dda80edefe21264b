//! The online invariant auditor: shadow state rebuilt from events, checked
//! at every step.
//!
//! Eight invariant families (see DESIGN.md §"Flight recorder"):
//!
//! 1. **Page conservation** — the event-derived resident and swapped page
//!    counts must equal what the kernel itself reports at every
//!    [`AuditEvent::Counters`] checkpoint, and a killed process must leave
//!    no page behind.
//! 2. **Residency / LRU membership** — a page is mapped at most once, is
//!    resident xor swapped, only faults when non-resident, only swaps out
//!    when resident, and LRU reclaim never evicts a pinned page.
//! 3. **GC soundness** — a collector never frees an object that was
//!    reachable when the collection started; a *complete* collection
//!    leaves exactly the reachable set alive with survivor bytes
//!    conserved; reported copy/free byte counts match the event stream;
//!    no dangling references remain at collection end; freed regions are
//!    empty.
//! 4. **Launch accounting** — a hot launch's reported fault count equals
//!    the launch-kind faults observed inside its window.
//! 5. **Fault resilience** — injected swap faults degrade, never corrupt:
//!    an I/O error is only reported against a page in the state the failing
//!    operation implies (reads target swapped pages, write-backs target
//!    resident victims), retries stay within the kernel's bounded budget,
//!    an LMK kill leaves its victim with zero mapped pages, and an
//!    evacuation abort names a region that actually exists. Page
//!    conservation (family 1) keeps holding under faults, so a lost or
//!    duplicated page still trips the `Counters` cross-check.
//! 6. **Tier slot conservation** — on a hybrid (zram + flash) stack every
//!    swapped anonymous page sits in exactly one tier: each swap-out is
//!    followed by exactly one [`AuditEvent::SwapTierStore`] naming a known
//!    tier, a [`AuditEvent::SwapWriteback`] *moves* a slot from zram to
//!    flash (never duplicates it, never targets a flash or resident page),
//!    and faulting/prefetching/unmapping the page retires its slot.
//! 7. **Proactive reclaim discipline** — the Swam daemon only touches
//!    background state: an [`AuditEvent::ProactiveSwapOut`] must name a
//!    mapped, resident, anonymous, unpinned page of a process that is not
//!    the current foreground app (tracked from [`AuditEvent::AppState`]),
//!    and it conserves frames exactly like an unadvised anonymous swap-out
//!    (resident goes down, the anon swap count goes up, so the family-1
//!    `Counters` cross-check keeps holding). An [`AuditEvent::WssSample`]
//!    estimate never exceeds the process's mapped page count.
//! 8. **Data integrity** — every [`AuditEvent::CorruptionDetected`] is
//!    structurally sound: it names a swapped copy (a non-resident
//!    anonymous page, a file page's flash read at fault time, or the slot
//!    the immediately-preceding unmap discarded) and fires at most once
//!    per slot; a detected-corrupt slot is never served by a fault or
//!    prefetch and is quarantined before its address is remapped; every
//!    [`AuditEvent::SlotQuarantined`] pairs with exactly one prior
//!    detection on the same tier; a tier is retired at most once, with
//!    the [`AuditEvent::TierRetired`] count matching the observed
//!    quarantines, and no store targets a retired tier (a retired flash
//!    back tier means device degraded mode: no anonymous swap-outs,
//!    proactive or advised or otherwise, and no further writebacks); a
//!    scrub pass never reports more detections than slots scanned, nor
//!    scans more slots than there are swapped anonymous pages.

use crate::event::AuditEvent;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Upper bound accepted for [`AuditEvent::FaultRetry::attempt`]; mirrors
/// `fleet_kernel::FAULT_RETRY_MAX` (this crate is dependency-free, so the
/// constant is duplicated and cross-checked by the kernel's tests).
const FAULT_RETRY_BOUND: u32 = 3;

#[derive(Debug, Clone, Copy)]
struct PageShadow {
    resident: bool,
    file: bool,
    pinned: bool,
}

#[derive(Debug, Default)]
struct GcWindow {
    kind: String,
    complete: bool,
    /// Objects reachable from the roots when the collection started.
    reachable: HashSet<u64>,
    reach_bytes: u64,
    copied_bytes: u64,
    freed_bytes: u64,
    freed_objects: u64,
}

#[derive(Debug, Default)]
struct HeapShadow {
    /// object id -> (size, region)
    objects: HashMap<u64, (u64, u32)>,
    /// Outgoing edges, as a multiset per source object.
    refs: HashMap<u64, Vec<u64>>,
    roots: BTreeSet<u64>,
    /// region id -> live objects it holds
    regions: HashMap<u32, u64>,
    gc: Option<GcWindow>,
}

impl HeapShadow {
    fn reachable(&self) -> (HashSet<u64>, u64) {
        let mut seen: HashSet<u64> = HashSet::new();
        let mut bytes = 0u64;
        let mut stack: Vec<u64> = self.roots.iter().copied().collect();
        while let Some(obj) = stack.pop() {
            if !seen.insert(obj) {
                continue;
            }
            bytes += self.objects.get(&obj).map(|&(size, _)| size).unwrap_or(0);
            if let Some(targets) = self.refs.get(&obj) {
                stack.extend(targets.iter().copied());
            }
        }
        (seen, bytes)
    }
}

#[derive(Debug, Default)]
struct DeviceShadow {
    frames: Option<u64>,
    pages: HashMap<(u32, u64), PageShadow>,
    /// Mapped pages per pid, to make the process-kill leak check O(1).
    pid_pages: HashMap<u32, u64>,
    resident: u64,
    swapped_anon: u64,
    /// Which tier each swapped page's slot lives in, on hybrid stacks.
    /// Flash-only stacks never emit tier events, so this stays empty.
    tiers: HashMap<(u32, u64), &'static str>,
    heaps: HashMap<u32, HeapShadow>,
    /// Open hot-launch windows: pid -> launch-kind faults seen so far.
    launches: HashMap<u32, u64>,
    /// The current foreground pid, tracked from [`AuditEvent::AppState`]
    /// transitions — the process proactive reclaim must never touch.
    foreground: Option<u32>,
    /// Detected-but-unresolved corrupt slots (family 8): page -> the tier
    /// its detection named. Cleared by the matching quarantine; a page in
    /// here may never fault, prefetch or remap.
    corrupt: HashMap<(u32, u64), &'static str>,
    /// Quarantined slot count per tier (family 8), cross-checked against
    /// the count each [`AuditEvent::TierRetired`] reports.
    quarantined: HashMap<&'static str, u64>,
    /// Tiers retired by quarantine saturation (family 8) — at most once
    /// each, and no store may target a retired tier afterwards.
    retired: HashSet<&'static str>,
    /// The most recent swapped-anon unmap, to validate the unmap-path
    /// detection that trails its own [`AuditEvent::PageUnmapped`].
    last_unmapped: Option<(u32, u64)>,
}

/// Rebuilds kernel and heap state purely from the event stream and checks
/// the invariant families online. See the module docs for the list.
#[derive(Debug, Default)]
pub struct Auditor {
    devices: HashMap<u32, DeviceShadow>,
    violations: u64,
}

impl Auditor {
    /// Creates an auditor with no shadow state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of violations reported so far (normally 0 — the pipeline
    /// panics on the first).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Consumes one event, updating shadow state and checking every
    /// invariant the event participates in.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn observe(&mut self, device: u32, event: &AuditEvent) -> Result<(), String> {
        let result = self.observe_inner(device, event);
        if result.is_err() {
            self.violations += 1;
        }
        result
    }

    fn observe_inner(&mut self, device: u32, event: &AuditEvent) -> Result<(), String> {
        use AuditEvent::*;
        let dev = self.devices.entry(device).or_default();
        match event {
            // ------------------------------------------------------ kernel
            PageMapped { pid, page, file } => {
                if dev.corrupt.contains_key(&(*pid, *page)) {
                    return Err(format!(
                        "data integrity: pid {pid} page {page} remapped while its \
                         detected-corrupt slot was never quarantined"
                    ));
                }
                if dev
                    .pages
                    .insert(
                        (*pid, *page),
                        PageShadow { resident: true, file: *file, pinned: false },
                    )
                    .is_some()
                {
                    return Err(format!("double map of pid {pid} page {page}"));
                }
                dev.resident += 1;
                *dev.pid_pages.entry(*pid).or_default() += 1;
                if let Some(frames) = dev.frames {
                    if dev.resident > frames {
                        return Err(format!(
                            "resident pages {} exceed DRAM frames {frames}",
                            dev.resident
                        ));
                    }
                }
            }
            PageUnmapped { pid, page, resident, file } => {
                let Some(shadow) = dev.pages.remove(&(*pid, *page)) else {
                    return Err(format!("unmap of unmapped pid {pid} page {page}"));
                };
                if shadow.resident != *resident || shadow.file != *file {
                    return Err(format!(
                        "unmap of pid {pid} page {page} disagrees with shadow: \
                         event resident={resident} file={file}, shadow resident={} file={}",
                        shadow.resident, shadow.file
                    ));
                }
                if shadow.resident {
                    dev.resident -= 1;
                } else if !shadow.file {
                    dev.swapped_anon -= 1;
                    // The unmap path may report the discarded slot corrupt
                    // right after this event; remember which page it was.
                    dev.last_unmapped = Some((*pid, *page));
                }
                dev.tiers.remove(&(*pid, *page));
                let count = dev.pid_pages.entry(*pid).or_default();
                *count -= 1;
            }
            PageFault { pid, page, file, kind } => {
                if dev.corrupt.contains_key(&(*pid, *page)) {
                    return Err(format!(
                        "data integrity: fault served pid {pid} page {page} from a \
                         detected-corrupt slot"
                    ));
                }
                let Some(shadow) = dev.pages.get_mut(&(*pid, *page)) else {
                    return Err(format!("fault on unmapped pid {pid} page {page}"));
                };
                if shadow.resident {
                    return Err(format!("fault on already-resident pid {pid} page {page}"));
                }
                if shadow.file != *file {
                    return Err(format!("fault kind mismatch on pid {pid} page {page}"));
                }
                shadow.resident = true;
                dev.resident += 1;
                if !*file {
                    dev.swapped_anon -= 1;
                }
                dev.tiers.remove(&(*pid, *page));
                if *kind == "launch" {
                    if let Some(faults) = dev.launches.get_mut(pid) {
                        *faults += 1;
                    }
                }
            }
            SwapOut { pid, page, file, advised } => {
                if !*file && dev.retired.contains("flash") {
                    return Err(format!(
                        "data integrity: anon swap-out of pid {pid} page {page} after the \
                         flash tier was retired (degraded devices stop swapping)"
                    ));
                }
                let Some(shadow) = dev.pages.get_mut(&(*pid, *page)) else {
                    return Err(format!("swap-out of unmapped pid {pid} page {page}"));
                };
                if !shadow.resident {
                    return Err(format!("swap-out of non-resident pid {pid} page {page}"));
                }
                if shadow.file != *file {
                    return Err(format!("swap-out kind mismatch on pid {pid} page {page}"));
                }
                if shadow.pinned && !*advised {
                    return Err(format!("LRU reclaim evicted pinned pid {pid} page {page}"));
                }
                shadow.resident = false;
                dev.resident -= 1;
                if !*file {
                    dev.swapped_anon += 1;
                }
            }
            PagePrefetched { pid, page, file } => {
                if dev.corrupt.contains_key(&(*pid, *page)) {
                    return Err(format!(
                        "data integrity: prefetch served pid {pid} page {page} from a \
                         detected-corrupt slot"
                    ));
                }
                let Some(shadow) = dev.pages.get_mut(&(*pid, *page)) else {
                    return Err(format!("prefetch of unmapped pid {pid} page {page}"));
                };
                if shadow.resident {
                    return Err(format!("prefetch of resident pid {pid} page {page}"));
                }
                if shadow.file != *file {
                    return Err(format!("prefetch kind mismatch on pid {pid} page {page}"));
                }
                shadow.resident = true;
                dev.resident += 1;
                if !*file {
                    dev.swapped_anon -= 1;
                }
                dev.tiers.remove(&(*pid, *page));
            }
            LruPromote { pid, page } => {
                let Some(shadow) = dev.pages.get(&(*pid, *page)) else {
                    return Err(format!("promote of unmapped pid {pid} page {page}"));
                };
                if !shadow.resident {
                    return Err(format!("promote of non-resident pid {pid} page {page}"));
                }
            }
            PagePinned { pid, page } => {
                let Some(shadow) = dev.pages.get_mut(&(*pid, *page)) else {
                    return Err(format!("pin of unmapped pid {pid} page {page}"));
                };
                if shadow.pinned {
                    return Err(format!("double pin of pid {pid} page {page}"));
                }
                shadow.pinned = true;
            }
            PageUnpinned { pid, page } => {
                let Some(shadow) = dev.pages.get_mut(&(*pid, *page)) else {
                    return Err(format!("unpin of unmapped pid {pid} page {page}"));
                };
                if !shadow.pinned {
                    return Err(format!("unpin of unpinned pid {pid} page {page}"));
                }
                shadow.pinned = false;
            }
            Counters { used_frames, swap_used } => {
                if dev.resident != *used_frames {
                    return Err(format!(
                        "page conservation: kernel reports {used_frames} used frames, \
                         events account for {}",
                        dev.resident
                    ));
                }
                if dev.swapped_anon != *swap_used {
                    return Err(format!(
                        "page conservation: kernel reports {swap_used} swap slots used, \
                         events account for {}",
                        dev.swapped_anon
                    ));
                }
            }

            // -------------------------------------------------------- heap
            RegionMapped { pid, region, .. } => {
                let heap = dev.heaps.entry(*pid).or_default();
                if heap.regions.insert(*region, 0).is_some() {
                    return Err(format!("pid {pid}: region {region} mapped twice"));
                }
            }
            RegionFreed { pid, region, .. } => {
                let heap = dev.heaps.entry(*pid).or_default();
                match heap.regions.remove(region) {
                    None => return Err(format!("pid {pid}: freeing unmapped region {region}")),
                    Some(live) if live > 0 => {
                        return Err(format!(
                            "pid {pid}: freeing region {region} that still holds {live} objects"
                        ));
                    }
                    Some(_) => {}
                }
            }
            ObjectAlloc { pid, object, region, size } => {
                let heap = dev.heaps.entry(*pid).or_default();
                let Some(live) = heap.regions.get_mut(region) else {
                    return Err(format!(
                        "pid {pid}: object {object} allocated in unmapped region {region}"
                    ));
                };
                *live += 1;
                if heap.objects.insert(*object, (*size, *region)).is_some() {
                    return Err(format!("pid {pid}: object id {object} allocated twice"));
                }
            }
            ObjectCopied { pid, object, from_region, to_region, size } => {
                let heap = dev.heaps.entry(*pid).or_default();
                let Some(&(shadow_size, shadow_region)) = heap.objects.get(object) else {
                    return Err(format!("pid {pid}: copy of unknown object {object}"));
                };
                if shadow_region != *from_region || shadow_size != *size {
                    return Err(format!(
                        "pid {pid}: copy of object {object} disagrees with shadow \
                         (event from={from_region} size={size}, shadow region={shadow_region} size={shadow_size})"
                    ));
                }
                if !heap.regions.contains_key(to_region) {
                    return Err(format!(
                        "pid {pid}: object {object} copied into unmapped region {to_region}"
                    ));
                }
                heap.objects.insert(*object, (*size, *to_region));
                *heap.regions.entry(*from_region).or_default() -= 1;
                *heap.regions.entry(*to_region).or_default() += 1;
                if let Some(gc) = heap.gc.as_mut() {
                    gc.copied_bytes += size;
                }
            }
            ObjectFreed { pid, object, region, size } => {
                let heap = dev.heaps.entry(*pid).or_default();
                let Some((shadow_size, shadow_region)) = heap.objects.remove(object) else {
                    return Err(format!("pid {pid}: free of unknown object {object}"));
                };
                if shadow_region != *region || shadow_size != *size {
                    return Err(format!(
                        "pid {pid}: free of object {object} disagrees with shadow \
                         (event region={region} size={size}, shadow region={shadow_region} size={shadow_size})"
                    ));
                }
                if heap.roots.contains(object) {
                    return Err(format!("pid {pid}: freed object {object} is still a root"));
                }
                heap.refs.remove(object);
                *heap.regions.entry(*region).or_default() -= 1;
                if let Some(gc) = heap.gc.as_mut() {
                    gc.freed_bytes += size;
                    gc.freed_objects += 1;
                    if gc.reachable.contains(object) {
                        return Err(format!(
                            "GC soundness: pid {pid}: {} GC freed object {object}, which was \
                             reachable from the roots when the collection started",
                            gc.kind
                        ));
                    }
                }
            }
            RefAdded { pid, from, to } => {
                let heap = dev.heaps.entry(*pid).or_default();
                if !heap.objects.contains_key(from) {
                    return Err(format!("pid {pid}: ref from unknown object {from}"));
                }
                if !heap.objects.contains_key(to) {
                    return Err(format!("pid {pid}: ref to unknown object {to}"));
                }
                heap.refs.entry(*from).or_default().push(*to);
            }
            RefRemoved { pid, from, to } => {
                let heap = dev.heaps.entry(*pid).or_default();
                let Some(targets) = heap.refs.get_mut(from) else {
                    return Err(format!("pid {pid}: removing ref from edgeless object {from}"));
                };
                let Some(pos) = targets.iter().position(|t| t == to) else {
                    return Err(format!("pid {pid}: removing nonexistent ref {from} -> {to}"));
                };
                targets.swap_remove(pos);
            }
            RootAdded { pid, object } => {
                let heap = dev.heaps.entry(*pid).or_default();
                if !heap.objects.contains_key(object) {
                    return Err(format!("pid {pid}: unknown object {object} added as root"));
                }
                if !heap.roots.insert(*object) {
                    return Err(format!("pid {pid}: object {object} added as root twice"));
                }
            }
            RootRemoved { pid, object } => {
                let heap = dev.heaps.entry(*pid).or_default();
                if !heap.roots.remove(object) {
                    return Err(format!("pid {pid}: removing non-root {object}"));
                }
            }
            GcStart { pid, kind, complete } => {
                let heap = dev.heaps.entry(*pid).or_default();
                if let Some(open) = heap.gc.as_ref() {
                    return Err(format!(
                        "pid {pid}: {kind} GC started while {} GC still open",
                        open.kind
                    ));
                }
                let (reachable, reach_bytes) = heap.reachable();
                heap.gc = Some(GcWindow {
                    kind: kind.clone(),
                    complete: *complete,
                    reachable,
                    reach_bytes,
                    ..GcWindow::default()
                });
            }
            GcEnd { pid, kind, bytes_copied, objects_freed, bytes_freed, .. } => {
                let heap = dev.heaps.entry(*pid).or_default();
                let Some(gc) = heap.gc.take() else {
                    return Err(format!("pid {pid}: {kind} GC ended without a start"));
                };
                if gc.kind != *kind {
                    return Err(format!(
                        "pid {pid}: GC kind mismatch: started {} ended {kind}",
                        gc.kind
                    ));
                }
                if gc.copied_bytes != *bytes_copied {
                    return Err(format!(
                        "GC soundness: pid {pid}: {kind} GC reports {bytes_copied} copied bytes \
                         but events account for {}",
                        gc.copied_bytes
                    ));
                }
                if gc.freed_objects != *objects_freed || gc.freed_bytes != *bytes_freed {
                    return Err(format!(
                        "GC soundness: pid {pid}: {kind} GC reports {objects_freed} freed objects \
                         / {bytes_freed} bytes but events account for {} / {}",
                        gc.freed_objects, gc.freed_bytes
                    ));
                }
                // No dangling references may survive a collection.
                for (from, targets) in &heap.refs {
                    for to in targets {
                        if !heap.objects.contains_key(to) {
                            return Err(format!(
                                "GC soundness: pid {pid}: after {kind} GC, object {from} holds a \
                                 dangling reference to freed object {to}"
                            ));
                        }
                    }
                }
                if gc.complete {
                    // A complete collection leaves exactly the objects that
                    // were reachable at its start, with bytes conserved.
                    if heap.objects.len() as u64 != gc.reachable.len() as u64 {
                        return Err(format!(
                            "GC soundness: pid {pid}: complete {kind} GC left {} objects alive \
                             but {} were reachable at start",
                            heap.objects.len(),
                            gc.reachable.len()
                        ));
                    }
                    let live_bytes: u64 = heap.objects.values().map(|&(size, _)| size).sum();
                    if live_bytes != gc.reach_bytes {
                        return Err(format!(
                            "GC soundness: pid {pid}: complete {kind} GC conserved {live_bytes} \
                             survivor bytes but {} were reachable at start",
                            gc.reach_bytes
                        ));
                    }
                    if let Some(missing) =
                        heap.objects.keys().find(|obj| !gc.reachable.contains(obj))
                    {
                        return Err(format!(
                            "GC soundness: pid {pid}: complete {kind} GC kept object {missing}, \
                             which was unreachable at start"
                        ));
                    }
                }
            }

            // ------------------------------------------------------ device
            DeviceAttached { frames, .. } => {
                dev.frames = Some(*frames);
            }
            ProcessSpawn { pid, .. } => {
                if dev.heaps.insert(*pid, HeapShadow::default()).is_some() {
                    return Err(format!("pid {pid} spawned twice"));
                }
            }
            ProcessKill { pid } => {
                dev.heaps.remove(pid);
                dev.launches.remove(pid);
                if dev.foreground == Some(*pid) {
                    dev.foreground = None;
                }
                let remaining = dev.pid_pages.get(pid).copied().unwrap_or(0);
                if remaining > 0 {
                    return Err(format!(
                        "page conservation: killed pid {pid} leaked {remaining} mapped pages"
                    ));
                }
            }
            AppState { pid, foreground } => {
                if *foreground {
                    dev.foreground = Some(*pid);
                } else if dev.foreground == Some(*pid) {
                    dev.foreground = None;
                }
            }
            LaunchStart { pid } => {
                if dev.launches.insert(*pid, 0).is_some() {
                    return Err(format!("pid {pid}: nested launch window"));
                }
            }
            LaunchEnd { pid, faulted_pages } => {
                let Some(faults) = dev.launches.remove(pid) else {
                    return Err(format!("pid {pid}: launch ended without a start"));
                };
                if faults != *faulted_pages {
                    return Err(format!(
                        "launch accounting: pid {pid}: launch report claims {faulted_pages} \
                         faulted pages but {faults} launch-kind faults were observed"
                    ));
                }
            }

            // -------------------------------------------------- fault events
            SwapIoError { pid, page, op, transient: _ } => {
                let Some(shadow) = dev.pages.get(&(*pid, *page)) else {
                    return Err(format!(
                        "fault resilience: swap I/O error on unmapped pid {pid} page {page}"
                    ));
                };
                match *op {
                    "read" => {
                        if shadow.resident {
                            return Err(format!(
                                "fault resilience: swap read error on resident pid {pid} \
                                 page {page} (nothing was being read from swap)"
                            ));
                        }
                    }
                    "write" | "reserve" => {
                        if !shadow.resident {
                            return Err(format!(
                                "fault resilience: swap {op} error on non-resident pid {pid} \
                                 page {page} (write-backs target resident victims)"
                            ));
                        }
                    }
                    other => {
                        return Err(format!(
                            "fault resilience: unknown swap I/O operation `{other}`"
                        ));
                    }
                }
            }
            FaultRetry { pid, page, attempt } => {
                let Some(shadow) = dev.pages.get(&(*pid, *page)) else {
                    return Err(format!(
                        "fault resilience: retry against unmapped pid {pid} page {page}"
                    ));
                };
                if shadow.resident {
                    return Err(format!(
                        "fault resilience: retry against resident pid {pid} page {page}"
                    ));
                }
                if *attempt == 0 || *attempt > FAULT_RETRY_BOUND {
                    return Err(format!(
                        "fault resilience: retry attempt {attempt} outside the bounded \
                         budget [1, {FAULT_RETRY_BOUND}] for pid {pid} page {page}"
                    ));
                }
            }
            LmkKill { pid, freed_pages: _ } => {
                let remaining = dev.pid_pages.get(pid).copied().unwrap_or(0);
                if remaining > 0 {
                    return Err(format!(
                        "fault resilience: LMK killed pid {pid} but {remaining} of its pages \
                         are still mapped (kills must fully unmap)"
                    ));
                }
            }
            EvacAbort { pid, region, objects_left: _ } => {
                let heap = dev.heaps.entry(*pid).or_default();
                if !heap.regions.contains_key(region) {
                    return Err(format!(
                        "fault resilience: pid {pid}: evacuation abort names unmapped \
                         region {region}"
                    ));
                }
            }

            // --------------------------------------------------- tiered swap
            SwapTierStore { pid, page, tier } => {
                let Some(shadow) = dev.pages.get(&(*pid, *page)) else {
                    return Err(format!(
                        "tier conservation: tier store for unmapped pid {pid} page {page}"
                    ));
                };
                if shadow.resident {
                    return Err(format!(
                        "tier conservation: tier store for resident pid {pid} page {page} \
                         (no swap-out to place)"
                    ));
                }
                if shadow.file {
                    return Err(format!(
                        "tier conservation: tier store for file pid {pid} page {page} \
                         (file pages are dropped, not stored)"
                    ));
                }
                if *tier != "zram" && *tier != "flash" {
                    return Err(format!(
                        "tier conservation: unknown tier `{tier}` for pid {pid} page {page}"
                    ));
                }
                if dev.retired.contains(tier) {
                    return Err(format!(
                        "data integrity: pid {pid} page {page} stored into the retired \
                         {tier} tier"
                    ));
                }
                if let Some(prev) = dev.tiers.insert((*pid, *page), tier) {
                    return Err(format!(
                        "tier conservation: pid {pid} page {page} stored in {tier} while its \
                         slot still lives in {prev} (a swapped page sits in exactly one tier)"
                    ));
                }
            }
            SwapWriteback { pid, page } => {
                if dev.retired.contains("flash") {
                    return Err(format!(
                        "data integrity: writeback of pid {pid} page {page} after the flash \
                         tier was retired"
                    ));
                }
                let Some(shadow) = dev.pages.get(&(*pid, *page)) else {
                    return Err(format!(
                        "tier conservation: writeback of unmapped pid {pid} page {page}"
                    ));
                };
                if shadow.resident {
                    return Err(format!(
                        "tier conservation: writeback of resident pid {pid} page {page}"
                    ));
                }
                match dev.tiers.get_mut(&(*pid, *page)) {
                    Some(tier) if *tier == "zram" => *tier = "flash",
                    Some(tier) => {
                        return Err(format!(
                            "tier conservation: writeback of pid {pid} page {page} whose slot \
                             lives in {tier}, not zram (writeback moves zram slots to flash)"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "tier conservation: writeback of pid {pid} page {page} that holds \
                             no tier slot"
                        ));
                    }
                }
            }

            // ------------------------------------------------ data integrity
            CorruptionDetected { pid, page, tier, source } => {
                if *tier != "zram" && *tier != "flash" {
                    return Err(format!(
                        "data integrity: unknown tier `{tier}` in detection for pid {pid} \
                         page {page}"
                    ));
                }
                match *source {
                    "fault" | "writeback" | "scrub" | "unmap" => {}
                    other => {
                        return Err(format!(
                            "data integrity: unknown detection source `{other}` for \
                             pid {pid} page {page}"
                        ));
                    }
                }
                let key = (*pid, *page);
                match dev.pages.get(&key) {
                    Some(shadow) if shadow.resident => {
                        return Err(format!(
                            "data integrity: detection against resident pid {pid} \
                             page {page} (checksums only cover swapped copies)"
                        ));
                    }
                    Some(shadow) if shadow.file => {
                        // A corrupt file copy is only caught by the demand
                        // fault's flash read; recovery is discard-and-refault,
                        // so no quarantine state to track.
                        if *source != "fault" || *tier != "flash" {
                            return Err(format!(
                                "data integrity: file-page detection for pid {pid} \
                                 page {page} outside the flash fault path \
                                 (tier={tier} source={source})"
                            ));
                        }
                    }
                    Some(_) => {
                        if dev.corrupt.insert(key, tier).is_some() {
                            return Err(format!(
                                "data integrity: pid {pid} page {page} detected corrupt \
                                 twice (detection is exactly-once per slot)"
                            ));
                        }
                    }
                    None => {
                        // Only the unmap path reports after its own
                        // `PageUnmapped`, and only for the slot that event
                        // just discarded.
                        if *source != "unmap" || dev.last_unmapped != Some(key) {
                            return Err(format!(
                                "data integrity: detection against unmapped pid {pid} \
                                 page {page} (source={source})"
                            ));
                        }
                        if dev.corrupt.insert(key, tier).is_some() {
                            return Err(format!(
                                "data integrity: pid {pid} page {page} detected corrupt \
                                 twice (detection is exactly-once per slot)"
                            ));
                        }
                    }
                }
            }
            SlotQuarantined { pid, page, tier } => {
                if *tier != "zram" && *tier != "flash" {
                    return Err(format!(
                        "data integrity: unknown tier `{tier}` in quarantine for \
                         pid {pid} page {page}"
                    ));
                }
                let Some(detected_tier) = dev.corrupt.remove(&(*pid, *page)) else {
                    return Err(format!(
                        "data integrity: pid {pid} page {page} quarantined without a \
                         prior corruption detection"
                    ));
                };
                if detected_tier != *tier {
                    return Err(format!(
                        "data integrity: pid {pid} page {page} quarantined in {tier} but \
                         its detection named {detected_tier}"
                    ));
                }
                *dev.quarantined.entry(tier).or_default() += 1;
            }
            TierRetired { tier, quarantined } => {
                if *tier != "zram" && *tier != "flash" {
                    return Err(format!("data integrity: retirement of unknown tier `{tier}`"));
                }
                if !dev.retired.insert(tier) {
                    return Err(format!("data integrity: {tier} tier retired twice"));
                }
                let seen = dev.quarantined.get(tier).copied().unwrap_or(0);
                if seen != *quarantined {
                    return Err(format!(
                        "data integrity: {tier} retirement reports {quarantined} \
                         quarantined slots but events account for {seen}"
                    ));
                }
            }
            ScrubPass { scanned, detected } => {
                if *detected > *scanned {
                    return Err(format!(
                        "data integrity: scrub pass reports {detected} detections in only \
                         {scanned} scanned slots"
                    ));
                }
                if *scanned > dev.swapped_anon {
                    return Err(format!(
                        "data integrity: scrub pass scanned {scanned} slots but only {} \
                         anonymous pages are swapped",
                        dev.swapped_anon
                    ));
                }
            }

            // ---------------------------------------------- proactive reclaim
            ProactiveSwapOut { pid, page } => {
                if dev.retired.contains("flash") {
                    return Err(format!(
                        "data integrity: proactive swap-out of pid {pid} page {page} after \
                         the flash tier was retired"
                    ));
                }
                if dev.foreground == Some(*pid) {
                    return Err(format!(
                        "proactive reclaim: daemon swapped out pid {pid} page {page} while \
                         that process is the foreground app"
                    ));
                }
                let Some(shadow) = dev.pages.get_mut(&(*pid, *page)) else {
                    return Err(format!(
                        "proactive reclaim: swap-out of unmapped pid {pid} page {page}"
                    ));
                };
                if !shadow.resident {
                    return Err(format!(
                        "proactive reclaim: swap-out of non-resident pid {pid} page {page}"
                    ));
                }
                if shadow.file {
                    return Err(format!(
                        "proactive reclaim: daemon touched file-backed pid {pid} page {page} \
                         (only anonymous pages are proactively swapped)"
                    ));
                }
                if shadow.pinned {
                    return Err(format!(
                        "proactive reclaim: daemon evicted pinned pid {pid} page {page}"
                    ));
                }
                // Frame conservation: the same transition as an unadvised
                // anonymous swap-out, so the `Counters` cross-check holds.
                shadow.resident = false;
                dev.resident -= 1;
                dev.swapped_anon += 1;
            }
            WssSample { pid, pages } => {
                let mapped = dev.pid_pages.get(pid).copied().unwrap_or(0);
                if *pages > mapped {
                    return Err(format!(
                        "proactive reclaim: WSS sample of {pages} pages for pid {pid} exceeds \
                         its {mapped} mapped pages (estimates are capped at the mapped count)"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AuditEvent::*;

    fn feed(auditor: &mut Auditor, events: &[AuditEvent]) -> Result<(), String> {
        for event in events {
            auditor.observe(0, event)?;
        }
        Ok(())
    }

    #[test]
    fn clean_page_lifecycle_passes() {
        let mut a = Auditor::new();
        feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                PageFault { pid: 1, page: 0, file: false, kind: "mutator" },
                Counters { used_frames: 1, swap_used: 0 },
                PageUnmapped { pid: 1, page: 0, resident: true, file: false },
                Counters { used_frames: 0, swap_used: 0 },
            ],
        )
        .unwrap();
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn fault_on_resident_page_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                PageFault { pid: 1, page: 0, file: false, kind: "mutator" },
            ],
        )
        .unwrap_err();
        assert!(err.contains("already-resident"), "{err}");
    }

    #[test]
    fn reclaim_of_pinned_page_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                PagePinned { pid: 1, page: 0 },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
            ],
        )
        .unwrap_err();
        assert!(err.contains("pinned"), "{err}");
        // But madvise may swap a pinned page explicitly.
        let mut a = Auditor::new();
        feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                PagePinned { pid: 1, page: 0 },
                SwapOut { pid: 1, page: 0, file: false, advised: true },
            ],
        )
        .unwrap();
    }

    #[test]
    fn kill_leaking_pages_is_caught() {
        let mut a = Auditor::new();
        let err =
            feed(&mut a, &[PageMapped { pid: 1, page: 0, file: false }, ProcessKill { pid: 1 }])
                .unwrap_err();
        assert!(err.contains("leaked"), "{err}");
    }

    fn tiny_heap_events() -> Vec<AuditEvent> {
        vec![
            ProcessSpawn { pid: 1, name: "app".into() },
            RegionMapped { pid: 1, region: 0, base: 0, len: 4096, kind: "eden".into() },
            ObjectAlloc { pid: 1, object: 0, region: 0, size: 100 },
            ObjectAlloc { pid: 1, object: 1, region: 0, size: 50 },
            ObjectAlloc { pid: 1, object: 2, region: 0, size: 10 },
            RootAdded { pid: 1, object: 0 },
            RefAdded { pid: 1, from: 0, to: 1 },
        ]
    }

    #[test]
    fn complete_gc_that_frees_garbage_passes() {
        let mut a = Auditor::new();
        let mut events = tiny_heap_events();
        events.extend([
            GcStart { pid: 1, kind: "full".into(), complete: true },
            RegionMapped { pid: 1, region: 1, base: 4096, len: 4096, kind: "fg".into() },
            ObjectCopied { pid: 1, object: 0, from_region: 0, to_region: 1, size: 100 },
            ObjectCopied { pid: 1, object: 1, from_region: 0, to_region: 1, size: 50 },
            ObjectFreed { pid: 1, object: 2, region: 0, size: 10 },
            RegionFreed { pid: 1, region: 0, base: 0, len: 4096 },
            GcEnd {
                pid: 1,
                kind: "full".into(),
                objects_traced: 2,
                bytes_copied: 150,
                objects_freed: 1,
                bytes_freed: 10,
            },
        ]);
        feed(&mut a, &events).unwrap();
    }

    #[test]
    fn freeing_a_reachable_object_is_caught() {
        let mut a = Auditor::new();
        let mut events = tiny_heap_events();
        events.extend([
            GcStart { pid: 1, kind: "full".into(), complete: true },
            ObjectFreed { pid: 1, object: 1, region: 0, size: 50 },
        ]);
        let err = feed(&mut a, &events).unwrap_err();
        assert!(err.contains("reachable"), "{err}");
    }

    #[test]
    fn complete_gc_keeping_garbage_is_caught() {
        let mut a = Auditor::new();
        let mut events = tiny_heap_events();
        events.extend([
            GcStart { pid: 1, kind: "full".into(), complete: true },
            GcEnd {
                pid: 1,
                kind: "full".into(),
                objects_traced: 2,
                bytes_copied: 0,
                objects_freed: 0,
                bytes_freed: 0,
            },
        ]);
        let err = feed(&mut a, &events).unwrap_err();
        assert!(err.contains("reachable at start"), "{err}");
    }

    #[test]
    fn partial_gc_may_keep_floating_garbage() {
        let mut a = Auditor::new();
        let mut events = tiny_heap_events();
        events.extend([
            GcStart { pid: 1, kind: "minor".into(), complete: false },
            GcEnd {
                pid: 1,
                kind: "minor".into(),
                objects_traced: 2,
                bytes_copied: 0,
                objects_freed: 0,
                bytes_freed: 0,
            },
        ]);
        feed(&mut a, &events).unwrap();
    }

    #[test]
    fn launch_fault_miscount_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                LaunchStart { pid: 1 },
                PageFault { pid: 1, page: 0, file: false, kind: "launch" },
                LaunchEnd { pid: 1, faulted_pages: 2 },
            ],
        )
        .unwrap_err();
        assert!(err.contains("launch accounting"), "{err}");
    }

    #[test]
    fn fault_events_in_the_right_states_pass() {
        let mut a = Auditor::new();
        feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                FaultRetry { pid: 1, page: 0, attempt: 1 },
                FaultRetry { pid: 1, page: 0, attempt: 2 },
                SwapIoError { pid: 1, page: 0, op: "read", transient: true },
                PageUnmapped { pid: 1, page: 0, resident: false, file: false },
                LmkKill { pid: 1, freed_pages: 0 },
                ProcessKill { pid: 1 },
            ],
        )
        .unwrap();
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn read_error_on_resident_page_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapIoError { pid: 1, page: 0, op: "read", transient: false },
            ],
        )
        .unwrap_err();
        assert!(err.contains("resident"), "{err}");
    }

    #[test]
    fn write_error_on_swapped_page_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                SwapIoError { pid: 1, page: 0, op: "write", transient: true },
            ],
        )
        .unwrap_err();
        assert!(err.contains("non-resident"), "{err}");
    }

    #[test]
    fn retry_past_the_budget_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                FaultRetry { pid: 1, page: 0, attempt: 4 },
            ],
        )
        .unwrap_err();
        assert!(err.contains("bounded"), "{err}");
    }

    #[test]
    fn lmk_kill_with_mapped_pages_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[PageMapped { pid: 1, page: 0, file: false }, LmkKill { pid: 1, freed_pages: 1 }],
        )
        .unwrap_err();
        assert!(err.contains("fully unmap"), "{err}");
    }

    #[test]
    fn evac_abort_of_unknown_region_is_caught() {
        let mut a = Auditor::new();
        let err = feed(&mut a, &[EvacAbort { pid: 1, region: 9, objects_left: 1 }]).unwrap_err();
        assert!(err.contains("unmapped"), "{err}");
    }

    #[test]
    fn tier_slot_lifecycle_passes() {
        let mut a = Auditor::new();
        feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                SwapTierStore { pid: 1, page: 0, tier: "zram" },
                SwapWriteback { pid: 1, page: 0 },
                PageFault { pid: 1, page: 0, file: false, kind: "mutator" },
                // After the fault retired the slot, a fresh swap-out may
                // place the page again.
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                SwapTierStore { pid: 1, page: 0, tier: "flash" },
                PageUnmapped { pid: 1, page: 0, resident: false, file: false },
            ],
        )
        .unwrap();
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn duplicate_tier_store_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                SwapTierStore { pid: 1, page: 0, tier: "zram" },
                SwapTierStore { pid: 1, page: 0, tier: "flash" },
            ],
        )
        .unwrap_err();
        assert!(err.contains("exactly one tier"), "{err}");
    }

    #[test]
    fn tier_store_for_resident_page_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapTierStore { pid: 1, page: 0, tier: "zram" },
            ],
        )
        .unwrap_err();
        assert!(err.contains("resident"), "{err}");
    }

    #[test]
    fn writeback_of_flash_slot_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                SwapTierStore { pid: 1, page: 0, tier: "flash" },
                SwapWriteback { pid: 1, page: 0 },
            ],
        )
        .unwrap_err();
        assert!(err.contains("not zram"), "{err}");
        // Double writeback is the same violation: the first move landed the
        // slot in flash.
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                SwapTierStore { pid: 1, page: 0, tier: "zram" },
                SwapWriteback { pid: 1, page: 0 },
                SwapWriteback { pid: 1, page: 0 },
            ],
        )
        .unwrap_err();
        assert!(err.contains("not zram"), "{err}");
    }

    #[test]
    fn writeback_without_a_tier_slot_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                SwapWriteback { pid: 1, page: 0 },
            ],
        )
        .unwrap_err();
        assert!(err.contains("no tier slot"), "{err}");
    }

    #[test]
    fn proactive_swap_out_lifecycle_passes() {
        let mut a = Auditor::new();
        feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                PageMapped { pid: 2, page: 0, file: false },
                AppState { pid: 2, foreground: true },
                WssSample { pid: 1, pages: 1 },
                ProactiveSwapOut { pid: 1, page: 0 },
                Counters { used_frames: 1, swap_used: 1 },
                PageFault { pid: 1, page: 0, file: false, kind: "launch" },
                Counters { used_frames: 2, swap_used: 0 },
            ],
        )
        .unwrap();
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn proactive_swap_out_of_foreground_app_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                AppState { pid: 1, foreground: true },
                ProactiveSwapOut { pid: 1, page: 0 },
            ],
        )
        .unwrap_err();
        assert!(err.contains("foreground"), "{err}");
        // Once the app moves to the background the daemon may take it.
        let mut a = Auditor::new();
        feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                AppState { pid: 1, foreground: true },
                AppState { pid: 1, foreground: false },
                ProactiveSwapOut { pid: 1, page: 0 },
            ],
        )
        .unwrap();
    }

    #[test]
    fn proactive_swap_out_of_pinned_or_file_page_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                PagePinned { pid: 1, page: 0 },
                ProactiveSwapOut { pid: 1, page: 0 },
            ],
        )
        .unwrap_err();
        assert!(err.contains("pinned"), "{err}");
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[PageMapped { pid: 1, page: 0, file: true }, ProactiveSwapOut { pid: 1, page: 0 }],
        )
        .unwrap_err();
        assert!(err.contains("file-backed"), "{err}");
    }

    #[test]
    fn proactive_swap_out_of_non_resident_page_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                ProactiveSwapOut { pid: 1, page: 0 },
                ProactiveSwapOut { pid: 1, page: 0 },
            ],
        )
        .unwrap_err();
        assert!(err.contains("non-resident"), "{err}");
    }

    #[test]
    fn wss_sample_above_mapped_count_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[PageMapped { pid: 1, page: 0, file: false }, WssSample { pid: 1, pages: 2 }],
        )
        .unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn corruption_ladder_lifecycle_passes() {
        // Detection at fault time, quarantine at unmap, retirement once the
        // count saturates — the clean degradation ladder.
        let mut a = Auditor::new();
        feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                SwapTierStore { pid: 1, page: 0, tier: "zram" },
                CorruptionDetected { pid: 1, page: 0, tier: "zram", source: "scrub" },
                PageUnmapped { pid: 1, page: 0, resident: false, file: false },
                SlotQuarantined { pid: 1, page: 0, tier: "zram" },
                TierRetired { tier: "zram", quarantined: 1 },
            ],
        )
        .unwrap();
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn unmap_path_detection_trails_its_own_unmap() {
        let mut a = Auditor::new();
        feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 7, file: false },
                SwapOut { pid: 1, page: 7, file: false, advised: false },
                PageUnmapped { pid: 1, page: 7, resident: false, file: false },
                CorruptionDetected { pid: 1, page: 7, tier: "flash", source: "unmap" },
                SlotQuarantined { pid: 1, page: 7, tier: "flash" },
            ],
        )
        .unwrap();
        // But any other source against an unmapped page is a violation.
        let mut a = Auditor::new();
        let err =
            feed(&mut a, &[CorruptionDetected { pid: 1, page: 7, tier: "flash", source: "scrub" }])
                .unwrap_err();
        assert!(err.contains("unmapped"), "{err}");
    }

    #[test]
    fn double_detection_of_one_slot_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                CorruptionDetected { pid: 1, page: 0, tier: "flash", source: "scrub" },
                CorruptionDetected { pid: 1, page: 0, tier: "flash", source: "fault" },
            ],
        )
        .unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn serving_a_detected_corrupt_slot_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                CorruptionDetected { pid: 1, page: 0, tier: "flash", source: "scrub" },
                PageFault { pid: 1, page: 0, file: false, kind: "mutator" },
            ],
        )
        .unwrap_err();
        assert!(err.contains("detected-corrupt"), "{err}");
    }

    #[test]
    fn quarantine_without_detection_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                PageUnmapped { pid: 1, page: 0, resident: false, file: false },
                SlotQuarantined { pid: 1, page: 0, tier: "flash" },
            ],
        )
        .unwrap_err();
        assert!(err.contains("without a prior"), "{err}");
    }

    #[test]
    fn double_tier_retirement_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                TierRetired { tier: "zram", quarantined: 0 },
                TierRetired { tier: "zram", quarantined: 0 },
            ],
        )
        .unwrap_err();
        assert!(err.contains("retired twice"), "{err}");
    }

    #[test]
    fn retirement_count_mismatch_is_caught() {
        let mut a = Auditor::new();
        let err = feed(&mut a, &[TierRetired { tier: "flash", quarantined: 3 }]).unwrap_err();
        assert!(err.contains("events account for 0"), "{err}");
    }

    #[test]
    fn store_into_a_retired_tier_is_caught() {
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                TierRetired { tier: "zram", quarantined: 0 },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                SwapTierStore { pid: 1, page: 0, tier: "zram" },
            ],
        )
        .unwrap_err();
        assert!(err.contains("retired zram tier"), "{err}");
        // A retired flash back tier bans anon swap-outs outright.
        let mut a = Auditor::new();
        let err = feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                TierRetired { tier: "flash", quarantined: 0 },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
            ],
        )
        .unwrap_err();
        assert!(err.contains("degraded"), "{err}");
    }

    #[test]
    fn scrub_detecting_more_than_it_scanned_is_caught() {
        let mut a = Auditor::new();
        let err = feed(&mut a, &[ScrubPass { scanned: 1, detected: 2 }]).unwrap_err();
        assert!(err.contains("in only"), "{err}");
        let mut a = Auditor::new();
        let err = feed(&mut a, &[ScrubPass { scanned: 5, detected: 0 }]).unwrap_err();
        assert!(err.contains("swapped"), "{err}");
    }

    #[test]
    fn gc_faults_do_not_count_against_the_launch() {
        let mut a = Auditor::new();
        feed(
            &mut a,
            &[
                PageMapped { pid: 1, page: 0, file: false },
                PageMapped { pid: 1, page: 1, file: false },
                SwapOut { pid: 1, page: 0, file: false, advised: false },
                SwapOut { pid: 1, page: 1, file: false, advised: false },
                LaunchStart { pid: 1 },
                PageFault { pid: 1, page: 0, file: false, kind: "launch" },
                PageFault { pid: 1, page: 1, file: false, kind: "gc" },
                LaunchEnd { pid: 1, faulted_pages: 1 },
            ],
        )
        .unwrap();
    }
}
