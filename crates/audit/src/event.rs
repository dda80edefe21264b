//! The structured event vocabulary of the flight recorder.

/// One state transition somewhere in the simulated stack.
///
/// Events speak only primitive types so the mechanism crates can emit them
/// without depending on each other: `pid` is the raw process id, `page` a
/// page index (virtual address / 4096), `object`/`region` the heap's
/// allocation-order identifiers. The [`std::fmt::Display`] impl is the
/// *canonical serialization* — golden-trace hashes are computed over it, so
/// its format is append-only: changing an existing line format re-blesses
/// every golden trace.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditEvent {
    // ------------------------------------------------------------- kernel
    /// A page was mapped (starts resident).
    PageMapped {
        /// Owning process.
        pid: u32,
        /// Page index.
        page: u64,
        /// File-backed (vs anonymous).
        file: bool,
    },
    /// A page was unmapped, releasing its frame or swap slot.
    PageUnmapped {
        /// Owning process.
        pid: u32,
        /// Page index.
        page: u64,
        /// Whether it was resident when unmapped.
        resident: bool,
        /// File-backed (vs anonymous).
        file: bool,
    },
    /// A non-resident page was faulted back in by an access.
    PageFault {
        /// Owning process.
        pid: u32,
        /// Page index.
        page: u64,
        /// File-backed (re-read from file) vs anonymous (swap-in).
        file: bool,
        /// Access source: `mutator`, `gc` or `launch`.
        kind: &'static str,
    },
    /// A resident page was pushed out (reclaim or `madvise(COLD_RUNTIME)`).
    SwapOut {
        /// Owning process.
        pid: u32,
        /// Page index.
        page: u64,
        /// File-backed pages are dropped; anonymous ones take a swap slot.
        file: bool,
        /// True when requested via madvise (may target pinned pages);
        /// false for LRU reclaim (must never touch pinned pages).
        advised: bool,
    },
    /// A swapped page was brought back by prefetch (not a demand fault).
    PagePrefetched {
        /// Owning process.
        pid: u32,
        /// Page index.
        page: u64,
        /// File-backed (vs anonymous).
        file: bool,
    },
    /// `madvise(HOT_RUNTIME)` rotated a resident page to the LRU hot end.
    LruPromote {
        /// Owning process.
        pid: u32,
        /// Page index.
        page: u64,
    },
    /// A page was excluded from LRU reclaim (Marvin's pinned Java heap).
    PagePinned {
        /// Owning process.
        pid: u32,
        /// Page index.
        page: u64,
    },
    /// A pinned page was returned to LRU control.
    PageUnpinned {
        /// Owning process.
        pid: u32,
        /// Page index.
        page: u64,
    },

    // --------------------------------------------------------------- heap
    /// A heap region was mapped.
    RegionMapped {
        /// Owning process.
        pid: u32,
        /// Region id.
        region: u32,
        /// First byte address.
        base: u64,
        /// Length in bytes.
        len: u64,
        /// Region kind name (`eden`, `bg`, `launch`, …).
        kind: String,
    },
    /// An empty heap region was released.
    RegionFreed {
        /// Owning process.
        pid: u32,
        /// Region id.
        region: u32,
        /// First byte address.
        base: u64,
        /// Length in bytes.
        len: u64,
    },
    /// An object was allocated.
    ObjectAlloc {
        /// Owning process.
        pid: u32,
        /// Object id.
        object: u64,
        /// Region holding the object.
        region: u32,
        /// Object size in bytes.
        size: u64,
    },
    /// A collector moved an object (identity preserved).
    ObjectCopied {
        /// Owning process.
        pid: u32,
        /// Object id.
        object: u64,
        /// Region it left.
        from_region: u32,
        /// Region it landed in.
        to_region: u32,
        /// Object size in bytes.
        size: u64,
    },
    /// A dead object was freed.
    ObjectFreed {
        /// Owning process.
        pid: u32,
        /// Object id.
        object: u64,
        /// Region it occupied.
        region: u32,
        /// Object size in bytes.
        size: u64,
    },
    /// A reference edge was added.
    RefAdded {
        /// Owning process.
        pid: u32,
        /// Source object.
        from: u64,
        /// Target object.
        to: u64,
    },
    /// One reference edge was removed.
    RefRemoved {
        /// Owning process.
        pid: u32,
        /// Source object.
        from: u64,
        /// Target object.
        to: u64,
    },
    /// An object became a GC root.
    RootAdded {
        /// Owning process.
        pid: u32,
        /// The root object.
        object: u64,
    },
    /// An object stopped being a GC root.
    RootRemoved {
        /// Owning process.
        pid: u32,
        /// The former root.
        object: u64,
    },
    /// A collection began.
    GcStart {
        /// Owning process.
        pid: u32,
        /// Collector name (`full`, `minor`, `marvin`, `bgc`, `grouping`).
        kind: String,
        /// True when the collection sweeps the whole heap, so everything
        /// unreachable at start must be gone at the end. Partial
        /// collections (minor, BGC, incremental grouping) may retain
        /// floating garbage and only promise never to free live objects.
        complete: bool,
    },
    /// A collection finished.
    GcEnd {
        /// Owning process.
        pid: u32,
        /// Collector name, matching the opening [`AuditEvent::GcStart`].
        kind: String,
        /// Objects traced (reported by the collector, cross-checked).
        objects_traced: u64,
        /// Bytes copied (must equal the sum of `ObjectCopied` sizes).
        bytes_copied: u64,
        /// Objects freed (must equal the `ObjectFreed` count).
        objects_freed: u64,
        /// Bytes freed (must equal the sum of `ObjectFreed` sizes).
        bytes_freed: u64,
    },

    // ------------------------------------------------------------- device
    /// A device joined the pipeline.
    DeviceAttached {
        /// DRAM frames of the device.
        frames: u64,
        /// Swap capacity in pages.
        swap_pages: u64,
    },
    /// A process was created (followed by a synthesized snapshot of its
    /// initial heap: regions, objects, references, roots).
    ProcessSpawn {
        /// The new process.
        pid: u32,
        /// App name.
        name: String,
    },
    /// A process died (explicit kill or LMK); every page and object it
    /// owned must already be gone.
    ProcessKill {
        /// The dead process.
        pid: u32,
    },
    /// A process moved between foreground and background.
    AppState {
        /// The process.
        pid: u32,
        /// True when it became the foreground app.
        foreground: bool,
    },
    /// A hot launch began; until the matching [`AuditEvent::LaunchEnd`],
    /// launch-kind faults of this pid are counted.
    LaunchStart {
        /// The launching process.
        pid: u32,
    },
    /// A hot launch finished.
    LaunchEnd {
        /// The launched process.
        pid: u32,
        /// Faulted pages the launch report claims — must equal the number
        /// of launch-kind [`AuditEvent::PageFault`]s inside the window.
        faulted_pages: u64,
    },
    /// Periodic cross-check of the kernel's own accounting against the
    /// event-derived shadow counts (page conservation).
    Counters {
        /// `MemoryManager::used_frames()` as the kernel reports it.
        used_frames: u64,
        /// `SwapDevice::used_pages()` as the kernel reports it.
        swap_used: u64,
    },

    // ----------------------------------------------------- fault injection
    /// An injected swap I/O error surfaced past the retry budget (reads) or
    /// on first roll (write-backs / reservations). Only emitted on devices
    /// with an armed fault plan.
    SwapIoError {
        /// Process owning the page.
        pid: u32,
        /// Page index.
        page: u64,
        /// Failing operation: `read`, `write` or `reserve`.
        op: &'static str,
        /// True when a retry could have helped (transient), false for a
        /// permanent media error.
        transient: bool,
    },
    /// One bounded retry of a transient swap read error.
    FaultRetry {
        /// Process owning the page.
        pid: u32,
        /// Page index.
        page: u64,
        /// Retry number, 1-based, never above the retry budget.
        attempt: u32,
    },
    /// The low-memory-killer driver killed a process during reclaim
    /// escalation; every page it owned must already be unmapped.
    LmkKill {
        /// The victim.
        pid: u32,
        /// DRAM frames the kill freed.
        freed_pages: u64,
    },
    /// The copying collector aborted evacuation mid-collection (allocation
    /// failure under pressure) and fell back to in-place marking for the
    /// remaining live objects.
    EvacAbort {
        /// Owning process.
        pid: u32,
        /// The region whose evacuation was abandoned.
        region: u32,
        /// Live objects left in place instead of being copied.
        objects_left: u64,
    },

    // -------------------------------------------------------- tiered swap
    /// A swap-out landed in a specific tier of a hybrid stack. Emitted
    /// immediately after the matching [`AuditEvent::SwapOut`], and only on
    /// devices with a zram front tier — flash-only stacks stay silent so
    /// their golden traces are unchanged.
    SwapTierStore {
        /// Owning process.
        pid: u32,
        /// Page index.
        page: u64,
        /// Tier the slot lives in: `zram` or `flash`.
        tier: &'static str,
    },
    /// The writeback daemon demoted an aging zram slot to flash. The page
    /// must currently hold a zram slot; afterwards it holds a flash slot —
    /// a move, never a duplicate.
    SwapWriteback {
        /// Owning process.
        pid: u32,
        /// Page index.
        page: u64,
    },

    // ------------------------------------------------------ data integrity
    /// A checksum verification found a silently-corrupted copy (DESIGN.md
    /// §14). Only emitted on devices with the integrity layer armed, and
    /// only for *injected* corruptions — the auditor proves zero false
    /// positives by pairing every detection with exactly one injection.
    CorruptionDetected {
        /// Process owning the page.
        pid: u32,
        /// Page index.
        page: u64,
        /// Tier holding the bad copy: `zram` or `flash`.
        tier: &'static str,
        /// Verification point: `fault` (demand fault-in), `writeback`
        /// (verify-before-retire on zram→flash demotion), `scrub`
        /// (background scrubber) or `unmap` (slot discarded unread).
        source: &'static str,
    },
    /// A corrupt slot was permanently removed from its tier's capacity.
    /// The page must have a prior [`AuditEvent::CorruptionDetected`]; a
    /// quarantined slot is never handed out again.
    SlotQuarantined {
        /// Process that owned the page.
        pid: u32,
        /// Page index.
        page: u64,
        /// Tier losing the slot: `zram` or `flash`.
        tier: &'static str,
    },
    /// Quarantine saturation retired a tier at runtime: a retired zram
    /// front stops accepting stores and drains via writeback; a retired
    /// flash back tier puts the device in degraded mode (no further swap
    /// stores at all). Emitted at most once per tier.
    TierRetired {
        /// The retired tier: `zram` or `flash`.
        tier: &'static str,
        /// Quarantined slots at retirement time.
        quarantined: u64,
    },
    /// The background scrubber verified a batch of cold slots.
    ScrubPass {
        /// Slots verified this pass.
        scanned: u64,
        /// Corruptions found this pass (each also emits its own
        /// [`AuditEvent::CorruptionDetected`]).
        detected: u64,
    },

    // -------------------------------------------------- proactive reclaim
    /// The proactive reclaim daemon (Swam policy) swapped an idle
    /// background app's cold anonymous page out ahead of pressure. The
    /// page must be mapped, resident, anonymous and unpinned, and the pid
    /// must not be the current foreground app; afterwards the page holds a
    /// back-tier swap slot exactly like an unadvised anon
    /// [`AuditEvent::SwapOut`]. Never emitted under the Reactive policy.
    ProactiveSwapOut {
        /// The idle background process.
        pid: u32,
        /// Page index.
        page: u64,
    },
    /// A working-set epoch sampled one process's decayed estimate (Swam
    /// policy). The estimate is capped at the process's mapped page count,
    /// which the auditor cross-checks against its shadow tables.
    WssSample {
        /// The sampled process.
        pid: u32,
        /// Decayed working-set estimate in pages.
        pages: u64,
    },
}

impl std::fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use AuditEvent::*;
        match self {
            PageMapped { pid, page, file } => {
                write!(f, "page_mapped pid={pid} page={page} file={file}")
            }
            PageUnmapped { pid, page, resident, file } => {
                write!(f, "page_unmapped pid={pid} page={page} resident={resident} file={file}")
            }
            PageFault { pid, page, file, kind } => {
                write!(f, "page_fault pid={pid} page={page} file={file} kind={kind}")
            }
            SwapOut { pid, page, file, advised } => {
                write!(f, "swap_out pid={pid} page={page} file={file} advised={advised}")
            }
            PagePrefetched { pid, page, file } => {
                write!(f, "page_prefetched pid={pid} page={page} file={file}")
            }
            LruPromote { pid, page } => write!(f, "lru_promote pid={pid} page={page}"),
            PagePinned { pid, page } => write!(f, "page_pinned pid={pid} page={page}"),
            PageUnpinned { pid, page } => write!(f, "page_unpinned pid={pid} page={page}"),
            RegionMapped { pid, region, base, len, kind } => {
                write!(
                    f,
                    "region_mapped pid={pid} region={region} base={base} len={len} kind={kind}"
                )
            }
            RegionFreed { pid, region, base, len } => {
                write!(f, "region_freed pid={pid} region={region} base={base} len={len}")
            }
            ObjectAlloc { pid, object, region, size } => {
                write!(f, "object_alloc pid={pid} object={object} region={region} size={size}")
            }
            ObjectCopied { pid, object, from_region, to_region, size } => {
                write!(
                    f,
                    "object_copied pid={pid} object={object} from={from_region} to={to_region} size={size}"
                )
            }
            ObjectFreed { pid, object, region, size } => {
                write!(f, "object_freed pid={pid} object={object} region={region} size={size}")
            }
            RefAdded { pid, from, to } => write!(f, "ref_added pid={pid} from={from} to={to}"),
            RefRemoved { pid, from, to } => write!(f, "ref_removed pid={pid} from={from} to={to}"),
            RootAdded { pid, object } => write!(f, "root_added pid={pid} object={object}"),
            RootRemoved { pid, object } => write!(f, "root_removed pid={pid} object={object}"),
            GcStart { pid, kind, complete } => {
                write!(f, "gc_start pid={pid} kind={kind} complete={complete}")
            }
            GcEnd { pid, kind, objects_traced, bytes_copied, objects_freed, bytes_freed } => {
                write!(
                    f,
                    "gc_end pid={pid} kind={kind} traced={objects_traced} copied_bytes={bytes_copied} freed={objects_freed} freed_bytes={bytes_freed}"
                )
            }
            DeviceAttached { frames, swap_pages } => {
                write!(f, "device_attached frames={frames} swap_pages={swap_pages}")
            }
            ProcessSpawn { pid, name } => write!(f, "process_spawn pid={pid} name={name}"),
            ProcessKill { pid } => write!(f, "process_kill pid={pid}"),
            AppState { pid, foreground } => {
                write!(f, "app_state pid={pid} foreground={foreground}")
            }
            LaunchStart { pid } => write!(f, "launch_start pid={pid}"),
            LaunchEnd { pid, faulted_pages } => {
                write!(f, "launch_end pid={pid} faulted={faulted_pages}")
            }
            Counters { used_frames, swap_used } => {
                write!(f, "counters used_frames={used_frames} swap_used={swap_used}")
            }
            SwapIoError { pid, page, op, transient } => {
                write!(f, "swap_io_error pid={pid} page={page} op={op} transient={transient}")
            }
            FaultRetry { pid, page, attempt } => {
                write!(f, "fault_retry pid={pid} page={page} attempt={attempt}")
            }
            LmkKill { pid, freed_pages } => {
                write!(f, "lmk_kill pid={pid} freed_pages={freed_pages}")
            }
            EvacAbort { pid, region, objects_left } => {
                write!(f, "evac_abort pid={pid} region={region} objects_left={objects_left}")
            }
            SwapTierStore { pid, page, tier } => {
                write!(f, "swap_tier_store pid={pid} page={page} tier={tier}")
            }
            SwapWriteback { pid, page } => {
                write!(f, "swap_writeback pid={pid} page={page}")
            }
            CorruptionDetected { pid, page, tier, source } => {
                write!(f, "corruption_detected pid={pid} page={page} tier={tier} source={source}")
            }
            SlotQuarantined { pid, page, tier } => {
                write!(f, "slot_quarantined pid={pid} page={page} tier={tier}")
            }
            TierRetired { tier, quarantined } => {
                write!(f, "tier_retired tier={tier} quarantined={quarantined}")
            }
            ScrubPass { scanned, detected } => {
                write!(f, "scrub_pass scanned={scanned} detected={detected}")
            }
            ProactiveSwapOut { pid, page } => {
                write!(f, "proactive_swap_out pid={pid} page={page}")
            }
            WssSample { pid, pages } => {
                write!(f, "wss_sample pid={pid} pages={pages}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_format_is_stable() {
        // These strings are hashed into committed golden traces; treat the
        // format as append-only.
        let cases: Vec<(AuditEvent, &str)> = vec![
            (
                AuditEvent::PageMapped { pid: 3, page: 17, file: true },
                "page_mapped pid=3 page=17 file=true",
            ),
            (
                AuditEvent::PageFault { pid: 1, page: 2, file: false, kind: "launch" },
                "page_fault pid=1 page=2 file=false kind=launch",
            ),
            (
                AuditEvent::GcStart { pid: 9, kind: "full".into(), complete: true },
                "gc_start pid=9 kind=full complete=true",
            ),
            (AuditEvent::LaunchEnd { pid: 4, faulted_pages: 12 }, "launch_end pid=4 faulted=12"),
            (
                AuditEvent::SwapIoError { pid: 2, page: 40, op: "read", transient: true },
                "swap_io_error pid=2 page=40 op=read transient=true",
            ),
            (
                AuditEvent::FaultRetry { pid: 2, page: 40, attempt: 3 },
                "fault_retry pid=2 page=40 attempt=3",
            ),
            (AuditEvent::LmkKill { pid: 6, freed_pages: 512 }, "lmk_kill pid=6 freed_pages=512"),
            (
                AuditEvent::EvacAbort { pid: 5, region: 7, objects_left: 19 },
                "evac_abort pid=5 region=7 objects_left=19",
            ),
            (
                AuditEvent::SwapTierStore { pid: 1, page: 33, tier: "zram" },
                "swap_tier_store pid=1 page=33 tier=zram",
            ),
            (AuditEvent::SwapWriteback { pid: 1, page: 33 }, "swap_writeback pid=1 page=33"),
            (AuditEvent::ProactiveSwapOut { pid: 8, page: 21 }, "proactive_swap_out pid=8 page=21"),
            (AuditEvent::WssSample { pid: 8, pages: 640 }, "wss_sample pid=8 pages=640"),
            (
                AuditEvent::CorruptionDetected { pid: 4, page: 99, tier: "flash", source: "fault" },
                "corruption_detected pid=4 page=99 tier=flash source=fault",
            ),
            (
                AuditEvent::SlotQuarantined { pid: 4, page: 99, tier: "flash" },
                "slot_quarantined pid=4 page=99 tier=flash",
            ),
            (
                AuditEvent::TierRetired { tier: "zram", quarantined: 16 },
                "tier_retired tier=zram quarantined=16",
            ),
            (
                AuditEvent::ScrubPass { scanned: 64, detected: 2 },
                "scrub_pass scanned=64 detected=2",
            ),
        ];
        for (event, expect) in cases {
            assert_eq!(event.to_string(), expect);
        }
    }
}
