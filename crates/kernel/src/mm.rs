//! The memory manager: frames, residency, faults, reclaim and madvise.
//!
//! This is the kernel half of the paper's "two-layer memory management"
//! (§2.2). It owns the DRAM frame budget, the global page LRU, and the swap
//! device, and implements:
//!
//! * demand paging — [`MemoryManager::access`] faults swapped pages back in
//!   at flash latency (the §3.2 hot-launch stall mechanism),
//! * watermark reclaim — [`MemoryManager::kswapd`] pushes cold pages out
//!   when free memory is low,
//! * Fleet's madvise extensions — [`MemoryManager::madvise`] with
//!   [`Advice::ColdRuntime`] (`COLD_RUNTIME`: actively swap a range out)
//!   and [`Advice::HotRuntime`] (`HOT_RUNTIME`: pin launch pages to the hot
//!   end of the LRU), §5.3.2,
//! * out-of-memory signalling — operations return [`MmError::OutOfMemory`]
//!   when neither frames nor swap slots are available, at which point the
//!   device layer invokes the low-memory killer.
//!
//! # Data layout
//!
//! Page metadata lives in real-page-table-shaped structures rather than
//! maps: each process owns a [`PageTable`] — a short sorted list of address
//! segments, each a directory of 512-page chunks holding one 8-byte
//! [`PageEntry`] (`flags` + LRU node handle) per page. A page lookup is a
//! couple of compares plus two array indexes; no hashing, no tree walk.
//! The entry stores the page's [`LruHandle`], so every LRU operation on the
//! access/fault/reclaim paths is O(1) pointer surgery in the intrusive
//! [`LruQueue`] slab.

use crate::fault::{retry_backoff, FaultPlan, ReadFault, FAULT_RETRY_MAX};
use crate::integrity::{slot_checksum, IntegrityConfig, CORRUPTION_FLIP};
use crate::lru::{LruHandle, LruQueue};
use crate::page::{pages_in_range, PageKey, PageKind, PageState, Pid, PAGE_SIZE};
use crate::swap::{SwapConfig, SwapDevice, SwapError};
use crate::tier::{SwapStack, SwapStats, SwapTier};
use fleet_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Emits a probe record into the kernel's `audit` (flight-recorder event)
/// or `obs` (span/metric) log. Each kind compiles to nothing without its
/// feature, so emission sites cost zero in normal builds.
macro_rules! probe {
    (audit, $self:ident, $ev:expr) => {{
        #[cfg(feature = "audit")]
        $self.probes.audit.push(|_| $ev);
    }};
    (obs, $self:ident, $rec:expr) => {{
        #[cfg(feature = "obs")]
        $self.probes.obs.push(move |_| $rec);
    }};
}

#[cfg(feature = "audit")]
use fleet_audit::AuditEvent;
/// An obs-only build's audit log carries nothing.
#[cfg(all(feature = "obs", not(feature = "audit")))]
type AuditEvent = ();

/// The kernel's instrumentation logs (see `fleet_obs::Probes`), drained by
/// the device layer.
#[cfg(any(feature = "audit", feature = "obs"))]
pub type Probes = fleet_obs::Probes<AuditEvent>;

/// Builds a child span of a `fault_service` span for one degradation event
/// (retry chain, discard-and-refault, fatal loss) at `rel` nanos into the
/// access, lasting `dur`.
#[cfg(feature = "obs")]
fn fault_child(
    name: &'static str,
    rel: u64,
    dur: SimDuration,
    page: u64,
    retries: u64,
) -> fleet_obs::SpanRec {
    fleet_obs::SpanRec {
        pid: 0,
        name,
        cat: "kernel",
        depth: 1,
        rel_start: rel,
        dur: dur.as_nanos(),
        args: vec![("page", page), ("retries", retries)],
    }
}

/// Who is touching memory; GC-kind accesses are the ones that "offset the
/// effects of swapping" in Figure 4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Application threads.
    Mutator,
    /// The garbage-collector thread.
    Gc,
    /// Accesses on the hot-launch critical path.
    Launch,
}

impl AccessKind {
    /// Canonical name used in flight-recorder events.
    pub fn audit_name(self) -> &'static str {
        match self {
            AccessKind::Mutator => "mutator",
            AccessKind::Gc => "gc",
            AccessKind::Launch => "launch",
        }
    }
}

/// Advice passed to [`MemoryManager::madvise`] — the paper's two new
/// `madvise` options (§5.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Advice {
    /// `COLD_RUNTIME`: the range will not be needed soon; actively swap its
    /// resident pages out ahead of memory pressure.
    ColdRuntime,
    /// `HOT_RUNTIME`: the range is about to be (or being) used on a launch
    /// critical path; rotate its resident pages to the hot end of the LRU
    /// so reclaim will not pick them.
    HotRuntime,
}

/// Result of an [`MemoryManager::access`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessOutcome {
    /// Stall time experienced by the accessing thread.
    pub latency: SimDuration,
    /// Pages that had to be faulted in from swap.
    pub faulted_pages: u64,
    /// Total pages touched (resident + faulted).
    pub touched_pages: u64,
    /// True when the access ran out of frames mid-way: the pages faulted
    /// before the failure are counted above and their state changes stand;
    /// the rest of the range was not touched. The caller should free memory
    /// (LMK) and retry the access.
    pub oom: bool,
    /// Bounded retries performed against transient swap I/O errors
    /// (injected by an armed [`FaultPlan`]; always zero on quiet devices).
    pub retries: u64,
    /// The injected share of `latency`: retry backoff, device-internal GC
    /// pauses and discard-and-refault penalties. Already included in
    /// `latency`; reported separately so callers can attribute degradation.
    pub degraded_latency: SimDuration,
    /// True when a permanent swap read error lost an anonymous page of this
    /// process. The page's data is gone; the access stopped early and the
    /// caller must kill the process (the SIGBUS path) rather than retry.
    pub killed: bool,
    /// The zram-decompression share of `latency`: stall spent reading pages
    /// back from the compressed front tier. Already included in `latency`;
    /// reported separately so launch attribution can show where hybrid swap
    /// wins come from. Always zero without a zram front tier.
    pub decompress_latency: SimDuration,
}

impl AccessOutcome {
    /// Combines two outcomes (e.g. across several ranges of one operation).
    pub fn merge(&mut self, other: AccessOutcome) {
        self.latency += other.latency;
        self.faulted_pages += other.faulted_pages;
        self.touched_pages += other.touched_pages;
        self.oom |= other.oom;
        self.retries += other.retries;
        self.degraded_latency += other.degraded_latency;
        self.killed |= other.killed;
        self.decompress_latency += other.decompress_latency;
    }
}

/// Errors from memory-manager operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmError {
    /// No DRAM frame and no swap slot could be found; the caller should
    /// kill a cached process and retry (the low-memory-killer path).
    OutOfMemory,
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::OutOfMemory => write!(f, "out of memory: no free frame and swap is full"),
        }
    }
}

impl std::error::Error for MmError {}

/// Memory-manager parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MmConfig {
    /// DRAM available for app pages, in bytes (Pixel 3: 4 GB minus the
    /// system reserve; the device layer decides the exact figure).
    pub dram_bytes: u64,
    /// Back-tier swap device parameters (flash by default; a zram-only
    /// configuration makes this the zram device).
    pub swap: SwapConfig,
    /// Optional zram front tier placed in front of `swap`, forming a hybrid
    /// [`SwapStack`]: warm victims are compressed into DRAM, cold ones go
    /// to the back tier, and a writeback daemon demotes aging zram slots.
    /// `None` (the default) keeps the single-device behaviour bit-for-bit.
    pub zram: Option<SwapConfig>,
    /// kswapd wakes below this many free frames…
    pub low_watermark_frames: u64,
    /// …and reclaims until this many frames are free.
    pub high_watermark_frames: u64,
    /// DRAM access cost per touched page (4 KiB / 9182.7 MB/s ≈ 0.45 µs).
    pub dram_page_cost: SimDuration,
    /// Sequential read bandwidth for re-reading dropped *file-backed* pages
    /// (readahead from flash, bytes/s). Far faster than the swap path.
    pub file_read_bw: f64,
    /// Reclaim balance, after Linux's `vm.swappiness` (0–200 here): the
    /// share of evictions that target anonymous memory while the file cache
    /// is above its floor. 50 ⇒ one eviction in four goes to anon.
    pub swappiness: u32,
    /// Swap data-integrity layer (per-slot checksums, quarantine, tier
    /// retirement — DESIGN.md §14). Off by default and bit-invisible when
    /// off: no checksum, no draw, no event.
    pub integrity: IntegrityConfig,
}

impl Default for MmConfig {
    fn default() -> Self {
        let dram_bytes: u64 = 4 * 1024 * 1024 * 1024;
        let frames = dram_bytes / PAGE_SIZE;
        MmConfig {
            dram_bytes,
            swap: SwapConfig::default(),
            zram: None,
            low_watermark_frames: frames / 32,
            high_watermark_frames: frames / 16,
            dram_page_cost: SimDuration::from_nanos(450),
            file_read_bw: 300.0e6,
            swappiness: 50,
            integrity: IntegrityConfig::default(),
        }
    }
}

impl MmConfig {
    /// A tiny configuration for unit tests and doc examples: 1 MiB of DRAM
    /// (256 frames) and 1 MiB of swap.
    pub fn small_test() -> Self {
        MmConfig {
            dram_bytes: 1024 * 1024,
            swap: SwapConfig { capacity_bytes: 1024 * 1024, ..SwapConfig::default() },
            zram: None,
            low_watermark_frames: 8,
            high_watermark_frames: 16,
            dram_page_cost: SimDuration::from_nanos(450),
            file_read_bw: 300.0e6,
            swappiness: 50,
            integrity: IntegrityConfig::default(),
        }
    }
}

/// Aggregate kernel counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct KernelStats {
    /// Page faults served from swap, total.
    pub faults: u64,
    /// Faults caused by mutator accesses.
    pub faults_mutator: u64,
    /// Faults caused by the GC thread — the §3.2 conflict.
    pub faults_gc: u64,
    /// Faults on the hot-launch critical path.
    pub faults_launch: u64,
    /// Pages pushed to swap (reclaim + madvise).
    pub pages_swapped_out: u64,
    /// File-backed pages dropped by reclaim (no swap slot needed).
    pub pages_dropped_file: u64,
    /// Faults served by re-reading a file-backed page.
    pub faults_file: u64,
    /// Total stall time of faulting threads.
    pub fault_stall_nanos: u64,
    /// CPU time spent in kswapd/reclaim.
    pub kswapd_cpu_nanos: u64,
    /// Bounded retries of transient swap I/O errors (fault injection).
    pub fault_retries: u64,
    /// Swap read operations that failed past the retry budget.
    pub swap_read_errors: u64,
    /// Swap write-backs that failed; the victim page stayed resident.
    pub swap_write_errors: u64,
    /// Anonymous pages lost to permanent read errors (owner killed).
    pub pages_lost: u64,
    /// Faults served from the zram front tier (hybrid swap only).
    pub faults_zram: u64,
    /// Pages placed into the zram front tier on swap-out (hybrid only).
    pub pages_swapped_zram: u64,
    /// Pages the writeback daemon demoted zram → flash (hybrid only).
    pub zram_writeback_pages: u64,
    /// Warm victims that proved incompressible and fell through to the
    /// flash tier instead of pinning a full DRAM frame (hybrid only).
    pub zram_fallthrough_pages: u64,
    /// Decompression share of fault stall: nanos spent reading pages back
    /// from the zram front tier (hybrid only).
    pub decompress_stall_nanos: u64,
    /// Pages the proactive reclaim daemon swapped out of idle background
    /// apps ahead of pressure (Swam reclaim policy only).
    pub proactive_swapout_pages: u64,
    /// Working-set epochs advanced by the proactive daemon (Swam only).
    pub wss_epochs: u64,
    /// Silent corruptions injected into stored slots (integrity layer
    /// armed with a corruption plan only).
    pub corruptions_injected: u64,
    /// Corruptions found by checksum verification (fault-in, writeback,
    /// scrub or unmap). Each injected corruption is detected at most once.
    pub corruptions_detected: u64,
    /// Slots permanently quarantined after a detection.
    pub slots_quarantined: u64,
    /// Tiers retired at runtime by quarantine saturation (0, 1 or 2).
    pub tiers_retired: u64,
    /// Background scrubber passes completed.
    pub scrub_passes: u64,
    /// Cold slots the scrubber has verified, total.
    pub scrub_pages_scanned: u64,
}

/// Per-process residency snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProcessMem {
    /// Pages in DRAM.
    pub resident: u64,
    /// Pages in swap.
    pub swapped: u64,
}

// ------------------------------------------------------------- page tables

/// Page-entry flag: the page is mapped (the entry is live).
const PE_MAPPED: u8 = 1;
/// Page-entry flag: the page is in DRAM (else it is in swap).
const PE_RESIDENT: u8 = 1 << 1;
/// Page-entry flag: the page is file-backed (else anonymous).
const PE_FILE: u8 = 1 << 2;
/// Page-entry flag: the page is excluded from LRU eviction.
const PE_PINNED: u8 = 1 << 3;
/// Page-entry flag: the (swapped, anonymous) page lives in the zram front
/// tier rather than the back tier. For zram pages the entry's `node` holds
/// the page's handle in the writeback FIFO instead of an LRU handle.
const PE_ZRAM: u8 = 1 << 4;

/// "No LRU node": the page is not on any queue (swapped or pinned).
const NO_NODE: u32 = u32::MAX;

/// One page's metadata: state flags plus its LRU node handle. 8 bytes —
/// 512 entries pack into one 4 KiB chunk, so walking a range of pages is a
/// linear scan of one array.
///
/// Public only for `fleet-bench`'s page-table microbenchmark; not part of
/// the supported API surface.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    flags: u8,
    /// Raw [`LruHandle`] of the page's node, or [`NO_NODE`].
    node: u32,
}

impl PageEntry {
    const EMPTY: PageEntry = PageEntry { flags: 0, node: NO_NODE };

    pub fn is_mapped(self) -> bool {
        self.flags & PE_MAPPED != 0
    }
    pub fn is_resident(self) -> bool {
        self.flags & PE_RESIDENT != 0
    }
    pub fn is_file(self) -> bool {
        self.flags & PE_FILE != 0
    }
    pub fn is_pinned(self) -> bool {
        self.flags & PE_PINNED != 0
    }
    pub fn is_zram(self) -> bool {
        self.flags & PE_ZRAM != 0
    }
}

/// Pages per chunk: 512 × 4 KiB = 2 MiB of address space per chunk, the
/// same span as one x86-64 last-level page-table page.
const CHUNK_PAGES: u64 = 512;

/// Adjacent-segment slack: a new chunk this close to an existing segment
/// extends it instead of opening a new one, keeping the segment list short
/// (heap, native and file mappings land in one segment each).
const SLACK_CHUNKS: u64 = 64;

/// A 2 MiB-aligned block of 512 page entries.
#[derive(Debug, Clone)]
struct Chunk {
    entries: Box<[PageEntry; CHUNK_PAGES as usize]>,
    /// Mapped entries in this chunk; the chunk is freed when it hits zero,
    /// so long-dead address ranges do not pin memory.
    mapped: u32,
}

impl Chunk {
    fn new() -> Chunk {
        Chunk { entries: Box::new([PageEntry::EMPTY; CHUNK_PAGES as usize]), mapped: 0 }
    }
}

/// A contiguous run of chunk slots starting at `first_chunk`.
#[derive(Debug, Clone)]
struct Segment {
    first_chunk: u64,
    chunks: Vec<Option<Chunk>>,
}

impl Segment {
    /// One past the last chunk index covered by this segment.
    fn end(&self) -> u64 {
        self.first_chunk + self.chunks.len() as u64
    }
}

/// One process's page table: a sorted list of non-overlapping segments.
/// Fleet processes have three widely separated address areas (Java heap
/// near 0, native at 2⁴⁰, file mappings at 2⁴¹), so the list stays at a
/// handful of entries and lookup is a couple of compares.
///
/// Public only for `fleet-bench`'s page-table microbenchmark; not part of
/// the supported API surface.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    segs: Vec<Segment>,
    mapped: u64,
    resident: u64,
    swapped: u64,
}

impl PageTable {
    /// The entry for `page`, if mapped.
    pub fn entry(&self, page: u64) -> Option<PageEntry> {
        let c = page / CHUNK_PAGES;
        for seg in &self.segs {
            if c < seg.first_chunk {
                return None;
            }
            let off = (c - seg.first_chunk) as usize;
            if off < seg.chunks.len() {
                let e = seg.chunks[off].as_ref()?.entries[(page % CHUNK_PAGES) as usize];
                return e.is_mapped().then_some(e);
            }
        }
        None
    }

    /// Mutable access to the entry for `page`, if mapped.
    fn entry_mut(&mut self, page: u64) -> Option<&mut PageEntry> {
        let c = page / CHUNK_PAGES;
        for seg in &mut self.segs {
            if c < seg.first_chunk {
                return None;
            }
            let off = (c - seg.first_chunk) as usize;
            if off < seg.chunks.len() {
                let e = &mut seg.chunks[off].as_mut()?.entries[(page % CHUNK_PAGES) as usize];
                return e.is_mapped().then_some(e);
            }
        }
        None
    }

    /// Index of a segment covering chunk `c`, creating or extending
    /// segments as needed (list stays sorted and non-overlapping).
    fn seg_index_for(&mut self, c: u64) -> usize {
        for (i, s) in self.segs.iter().enumerate() {
            if c >= s.first_chunk && c < s.end() {
                return i;
            }
        }
        let insert_at = self.segs.iter().position(|s| s.first_chunk > c).unwrap_or(self.segs.len());
        // Small gap after the predecessor: grow it forward.
        if insert_at > 0 {
            let limit = self.segs.get(insert_at).map(|s| s.first_chunk).unwrap_or(u64::MAX);
            let prev = &mut self.segs[insert_at - 1];
            if c - prev.end() <= SLACK_CHUNKS && c < limit {
                let new_len = (c - prev.first_chunk + 1) as usize;
                prev.chunks.resize_with(new_len, || None);
                return insert_at - 1;
            }
        }
        // Small gap before the successor: grow it backward.
        if insert_at < self.segs.len() {
            let next = &mut self.segs[insert_at];
            let gap = (next.first_chunk - c) as usize;
            if gap as u64 <= SLACK_CHUNKS {
                let mut chunks = Vec::with_capacity(next.chunks.len() + gap);
                chunks.resize_with(gap, || None);
                chunks.append(&mut next.chunks);
                next.chunks = chunks;
                next.first_chunk = c;
                return insert_at;
            }
        }
        self.segs.insert(insert_at, Segment { first_chunk: c, chunks: vec![None] });
        insert_at
    }

    /// Maps `page` (must not be mapped) as resident, with the given kind
    /// and LRU node.
    pub fn map(&mut self, page: u64, file: bool, node: u32) {
        let c = page / CHUNK_PAGES;
        let i = self.seg_index_for(c);
        let off = (c - self.segs[i].first_chunk) as usize;
        let chunk = self.segs[i].chunks[off].get_or_insert_with(Chunk::new);
        let e = &mut chunk.entries[(page % CHUNK_PAGES) as usize];
        debug_assert!(!e.is_mapped(), "double map of page {page}");
        *e = PageEntry { flags: PE_MAPPED | PE_RESIDENT | if file { PE_FILE } else { 0 }, node };
        chunk.mapped += 1;
        self.mapped += 1;
        self.resident += 1;
    }

    /// Unmaps `page`, returning its last entry; frees the chunk when it
    /// holds no other mapped pages.
    pub fn unmap(&mut self, page: u64) -> Option<PageEntry> {
        let c = page / CHUNK_PAGES;
        for seg in &mut self.segs {
            if c < seg.first_chunk {
                return None;
            }
            let off = (c - seg.first_chunk) as usize;
            if off < seg.chunks.len() {
                let slot = &mut seg.chunks[off];
                let chunk = slot.as_mut()?;
                let e = chunk.entries[(page % CHUNK_PAGES) as usize];
                if !e.is_mapped() {
                    return None;
                }
                chunk.entries[(page % CHUNK_PAGES) as usize] = PageEntry::EMPTY;
                chunk.mapped -= 1;
                if chunk.mapped == 0 {
                    *slot = None;
                }
                self.mapped -= 1;
                if e.is_resident() {
                    self.resident -= 1;
                } else {
                    self.swapped -= 1;
                }
                return Some(e);
            }
        }
        None
    }

    /// Flips a mapped page to `Swapped` and clears its LRU node.
    pub fn set_swapped(&mut self, page: u64) {
        let e = match self.entry_mut(page) {
            Some(e) => e,
            None => panic!("page-table invariant violated: set_swapped on unmapped page {page}"),
        };
        debug_assert!(e.is_resident());
        e.flags &= !PE_RESIDENT;
        e.node = NO_NODE;
        self.resident -= 1;
        self.swapped += 1;
    }

    /// Flips a mapped page to `Resident` with the given LRU node.
    pub fn set_resident(&mut self, page: u64, node: u32) {
        let e = match self.entry_mut(page) {
            Some(e) => e,
            None => panic!("page-table invariant violated: set_resident on unmapped page {page}"),
        };
        debug_assert!(!e.is_resident());
        e.flags |= PE_RESIDENT;
        e.node = node;
        self.resident += 1;
        self.swapped -= 1;
    }

    /// Mapped pages in ascending page-index order.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (u64, PageEntry)> + '_ {
        self.segs.iter().flat_map(|seg| {
            seg.chunks
                .iter()
                .enumerate()
                .filter_map(move |(ci, c)| {
                    c.as_ref().map(move |c| (seg.first_chunk + ci as u64, c))
                })
                .flat_map(|(chunk_idx, chunk)| {
                    chunk.entries.iter().enumerate().filter_map(move |(off, &e)| {
                        e.is_mapped().then_some((chunk_idx * CHUNK_PAGES + off as u64, e))
                    })
                })
        })
    }
}

/// A tiny sorted-vector map keyed by pid. Devices run at most a few dozen
/// processes, so binary search over a contiguous array beats both hashing
/// and a pointer-chasing tree — and iteration is ascending-pid, matching
/// the determinism contract of the former `BTreeMap<Pid, _>` exactly
/// (including the page-cache sentinel pid `u32::MAX` sorting last).
#[derive(Debug, Clone)]
struct PidMap<T> {
    entries: Vec<(u32, T)>,
}

impl<T> Default for PidMap<T> {
    fn default() -> Self {
        PidMap { entries: Vec::new() }
    }
}

impl<T> PidMap<T> {
    fn get(&self, pid: Pid) -> Option<&T> {
        self.entries.binary_search_by_key(&pid.0, |e| e.0).ok().map(|i| &self.entries[i].1)
    }

    fn get_mut(&mut self, pid: Pid) -> Option<&mut T> {
        self.entries.binary_search_by_key(&pid.0, |e| e.0).ok().map(|i| &mut self.entries[i].1)
    }

    fn get_or_insert_with(&mut self, pid: Pid, make: impl FnOnce() -> T) -> &mut T {
        let i = match self.entries.binary_search_by_key(&pid.0, |e| e.0) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (pid.0, make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    fn remove(&mut self, pid: Pid) -> Option<T> {
        self.entries.binary_search_by_key(&pid.0, |e| e.0).ok().map(|i| self.entries.remove(i).1)
    }

    /// Entries in ascending-pid order.
    fn iter(&self) -> impl Iterator<Item = (Pid, &T)> {
        self.entries.iter().map(|(p, t)| (Pid(*p), t))
    }
}

/// Decayed per-process working-set estimate, fed by the access path when
/// tracking is enabled (the Swam reclaim policy). Observe-only by
/// construction: updating it draws no RNG, writes no clock and perturbs no
/// LRU state, so enabling it cannot move any event stream.
#[derive(Debug, Clone, Copy, Default)]
struct WssEntry {
    /// Page touches recorded since the last epoch advance (an upper bound
    /// on unique pages: repeated touches across access calls count again).
    touched: u64,
    /// Decayed estimate, capped at the process's mapped page count.
    estimate: u64,
    /// Consecutive epochs with zero touches.
    idle_epochs: u32,
}

/// One process's working-set sample at an epoch advance (see
/// [`MemoryManager::wss_epoch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WssSnapshot {
    /// The sampled process.
    pub pid: Pid,
    /// Decayed working-set estimate in pages, capped at the mapped count.
    pub estimate: u64,
    /// Consecutive epochs the process has gone without touching a page.
    pub idle_epochs: u32,
}

/// One stored slot's integrity record: the checksum computed (and possibly
/// silently flipped by an injected corruption) at store time, plus the
/// store sequence number it was computed over. The copy is corrupt iff
/// `stored != slot_checksum(pid, index, seq)` — a deterministic comparison,
/// so detection can never fire on a clean slot (zero false positives).
#[derive(Debug, Clone, Copy)]
struct SlotRecord {
    /// Store sequence number the checksum covers.
    seq: u64,
    /// The checksum as stored (clean, or clean ^ [`CORRUPTION_FLIP`]).
    stored: u64,
    /// The corruption has been detected (and reported) already; repeat
    /// verifications stay silent so every injection is detected exactly
    /// once.
    detected: bool,
}

impl SlotRecord {
    fn corrupt(&self, key: PageKey) -> bool {
        self.stored != slot_checksum(key.pid.0, key.index, self.seq)
    }
}

/// Runtime state of the integrity layer (DESIGN.md §14). Empty and inert
/// when the layer is disabled.
#[derive(Debug, Clone)]
struct IntegrityState {
    config: IntegrityConfig,
    /// One record per swapped anonymous page (both tiers), keyed by page.
    slots: BTreeMap<PageKey, SlotRecord>,
    /// Monotonic store counter feeding [`slot_checksum`].
    store_seq: u64,
    /// Resume point of the background scrubber's cyclic scan.
    scrub_cursor: Option<PageKey>,
    /// Reclaim ticks since the last scrub pass.
    ticks_since_scrub: u32,
    /// The back tier was retired (quarantine saturation): device degraded
    /// mode — no further swap stores at all.
    degraded: bool,
}

impl IntegrityState {
    fn new(config: IntegrityConfig) -> Self {
        IntegrityState {
            config,
            slots: BTreeMap::new(),
            store_seq: 0,
            scrub_cursor: None,
            ticks_since_scrub: 0,
            degraded: false,
        }
    }
}

/// What one background scrub pass covered (see
/// [`MemoryManager::scrub_tick`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubReport {
    /// Cold slots verified this pass.
    pub scanned: u64,
    /// Corruptions found (each reported via its own detection event).
    pub detected: u64,
}

/// Outcome of one fault-injection roll on the swap-read path (see
/// [`MemoryManager::access`] and [`MemoryManager::prefetch_many`]). `Ok` may
/// still carry degradation: retry backoff and injected latency spikes.
enum ReadRoll {
    /// The read (eventually) succeeds after `retries` bounded retries,
    /// absorbing `extra` injected latency.
    Ok { retries: u32, extra: SimDuration },
    /// The read failed past the retry budget (or permanently); `retries`
    /// and `extra` account for the attempts made before giving up.
    Failed { retries: u32, extra: SimDuration },
}

/// Per-tier page counts of one batched read from swap (see
/// [`MemoryManager::read_tiers`]).
#[derive(Debug, Clone, Copy, Default)]
struct TierBatch {
    /// Anonymous pages in the back tier.
    anon: u64,
    /// Anonymous pages in the zram front tier.
    zram: u64,
    /// Dropped file-backed pages, re-read from their file.
    file: u64,
}

impl TierBatch {
    fn pages(&self) -> u64 {
        self.anon + self.zram + self.file
    }
}

/// The kernel memory manager.
///
/// # Examples
///
/// ```
/// use fleet_kernel::{AccessKind, MemoryManager, MmConfig, Pid};
///
/// let mut mm = MemoryManager::new(MmConfig::small_test());
/// mm.map_range(Pid(1), 0, 16 * 4096).unwrap();
/// let out = mm.access(Pid(1), 0, 4096, AccessKind::Mutator);
/// assert_eq!(out.touched_pages, 1);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryManager {
    config: MmConfig,
    frames_capacity: u64,
    /// Per-process page tables; an entry is dropped wholesale when the
    /// process is unmapped.
    tables: PidMap<PageTable>,
    resident_count: u64,
    /// Per-process LRUs of resident anonymous pages. Android places every
    /// app in its own memory cgroup; reclaim scans cgroups proportionally
    /// to their size rather than by perfect global recency. An entry
    /// appears when the process maps its first anon page and disappears
    /// when the process is unmapped — reclaim iterates in ascending-pid
    /// order, exactly like the former `BTreeMap<Pid, LruQueue>`.
    anon_lrus: PidMap<LruQueue>,
    /// LRU of resident file-backed pages (the global file list).
    file_lru: LruQueue,
    /// Monotonic eviction counter driving the anon/file balance and the
    /// proportional cgroup pick.
    eviction_seq: u64,
    swap: SwapStack,
    /// Writeback FIFO over zram-resident pages, in store order: nothing
    /// touches entries after insertion, so `pop_coldest` yields the oldest
    /// zram slot — the writeback daemon's demotion order. Empty without a
    /// front tier. A zram page's entry stores its FIFO handle in `node`.
    zram_fifo: LruQueue,
    /// Per-process working-set estimates; populated only when
    /// [`MemoryManager::enable_wss_tracking`] has armed the tracker.
    wss: PidMap<WssEntry>,
    wss_enabled: bool,
    /// Swap data-integrity layer: slot checksums, quarantine and tier
    /// retirement. Inert (empty, no draws, no events) unless enabled in
    /// [`MmConfig::integrity`].
    integrity: IntegrityState,
    stats: KernelStats,
    /// Instrumentation logs; disabled by default.
    #[cfg(any(feature = "audit", feature = "obs"))]
    probes: Probes,
}

impl MemoryManager {
    /// Creates a memory manager with no pages mapped.
    pub fn new(config: MmConfig) -> Self {
        let frames_capacity = config.dram_bytes / PAGE_SIZE;
        MemoryManager {
            config,
            frames_capacity,
            tables: PidMap::default(),
            resident_count: 0,
            anon_lrus: PidMap::default(),
            file_lru: LruQueue::new(),
            eviction_seq: 0,
            swap: match config.zram {
                Some(front) => SwapStack::with_front(front, config.swap),
                None => SwapStack::new(config.swap),
            },
            zram_fifo: LruQueue::new(),
            wss: PidMap::default(),
            wss_enabled: false,
            integrity: IntegrityState::new(config.integrity),
            stats: KernelStats::default(),
            #[cfg(any(feature = "audit", feature = "obs"))]
            probes: Probes::default(),
        }
    }

    /// The instrumentation logs (enabled and drained by the device layer).
    #[cfg(any(feature = "audit", feature = "obs"))]
    pub fn probes_mut(&mut self) -> &mut Probes {
        &mut self.probes
    }

    /// The configuration.
    pub fn config(&self) -> &MmConfig {
        &self.config
    }

    /// Total DRAM frames.
    pub fn frames_capacity(&self) -> u64 {
        self.frames_capacity
    }

    /// Frames currently free. Zram-backed swap consumes DRAM for its
    /// compressed store, so its footprint is subtracted too.
    pub fn free_frames(&self) -> u64 {
        self.frames_capacity
            .saturating_sub(self.resident_count)
            .saturating_sub(self.swap.frames_consumed())
    }

    /// Frames currently holding pages.
    pub fn used_frames(&self) -> u64 {
        self.resident_count
    }

    /// The swap stack (single back device by default, zram + flash when a
    /// front tier is configured).
    pub fn swap(&self) -> &SwapStack {
        &self.swap
    }

    /// The consolidated per-tier swap counter snapshot.
    pub fn swap_stats(&self) -> SwapStats {
        self.swap.stats()
    }

    /// Installs a fault plan on the swap stack: the back tier gets `plan`
    /// exactly as a single device would, the front tier (if any) an
    /// independent fork. With the default (quiet) plan every operation
    /// behaves exactly as before; an armed plan activates the degradation
    /// paths (bounded retries, discard-and-refault, write-back fallback,
    /// loss reporting).
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.swap.install_fault_plan(plan);
    }

    /// True when an armed (non-quiet) fault plan is installed.
    pub fn fault_active(&self) -> bool {
        self.swap.fault_active()
    }

    /// Records an LMK kill executed by the [`crate::ReclaimDriver`]. Only
    /// emits an audit event on fault-active devices so quiet golden traces
    /// are untouched (their kills are recorded by the device layer).
    pub(crate) fn note_lmk_kill(&mut self, _pid: Pid, _freed_pages: u64) {
        #[cfg(feature = "audit")]
        if self.swap.fault_active() {
            probe!(audit, self, AuditEvent::LmkKill { pid: _pid.0, freed_pages: _freed_pages });
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Per-process residency counts.
    pub fn process_mem(&self, pid: Pid) -> ProcessMem {
        self.table(pid)
            .map(|t| ProcessMem { resident: t.resident, swapped: t.swapped })
            .unwrap_or_default()
    }

    /// The state of one page, if mapped.
    pub fn page_state(&self, key: PageKey) -> Option<PageState> {
        let e = self.entry(key)?;
        Some(if e.is_resident() { PageState::Resident } else { PageState::Swapped })
    }

    /// True if the page covering `addr` is mapped and resident.
    pub fn is_resident(&self, pid: Pid, addr: u64) -> bool {
        self.page_state(PageKey::of_addr(pid, addr)) == Some(PageState::Resident)
    }

    // ----------------------------------------------------- table/queue access

    fn table(&self, pid: Pid) -> Option<&PageTable> {
        self.tables.get(pid)
    }

    fn table_mut(&mut self, pid: Pid) -> Option<&mut PageTable> {
        self.tables.get_mut(pid)
    }

    fn table_mut_or_create(&mut self, pid: Pid) -> &mut PageTable {
        self.tables.get_or_insert_with(pid, PageTable::default)
    }

    fn entry(&self, key: PageKey) -> Option<PageEntry> {
        self.table(key.pid)?.entry(key.index)
    }

    /// The anon LRU of `pid`, created on first use (mirrors cgroup
    /// creation: the entry appears when the process first maps anon
    /// memory).
    fn anon_queue_mut(&mut self, pid: Pid) -> &mut LruQueue {
        self.anon_lrus.get_or_insert_with(pid, LruQueue::new)
    }

    /// The anon LRU that must already exist (the page's handle points into
    /// it).
    fn anon_queue_existing(&mut self, pid: Pid) -> &mut LruQueue {
        match self.anon_lrus.get_mut(pid) {
            Some(q) => q,
            None => panic!(
                "mm invariant violated: pid {} has a queued anon page but no anon LRU",
                pid.0
            ),
        }
    }

    /// Fault-path lookup of a page table that *must* exist: the caller holds
    /// a [`PageEntry`] proving the page is mapped, so a missing table is a
    /// structural bug, never a recoverable condition. Panics with pid/page
    /// context instead of a bare `expect`.
    #[track_caller]
    fn table_expect(&mut self, pid: Pid, page: u64, op: &'static str) -> &mut PageTable {
        match self.tables.get_mut(pid) {
            Some(t) => t,
            None => panic!(
                "mm invariant violated during {op}: pid {} page {page} is mapped but has no table",
                pid.0
            ),
        }
    }

    /// Fault-path lookup of a page entry that *must* exist (same contract as
    /// [`MemoryManager::table_expect`], one level deeper).
    #[track_caller]
    fn entry_expect(&mut self, pid: Pid, page: u64, op: &'static str) -> &mut PageEntry {
        match self.tables.get_mut(pid).and_then(|t| t.entry_mut(page)) {
            Some(e) => e,
            None => panic!(
                "mm invariant violated during {op}: pid {} page {page} vanished mid-operation",
                pid.0
            ),
        }
    }

    /// The LRU a resident page of `pid` is queued on: the global file list,
    /// or the process's anon list, which must already exist.
    fn lru_of(&mut self, pid: Pid, file: bool) -> &mut LruQueue {
        if file {
            &mut self.file_lru
        } else {
            self.anon_queue_existing(pid)
        }
    }

    /// Detaches a queued page from its LRU via the O(1) handle stored in
    /// its page entry. No-op when the page is on no queue.
    fn queue_remove_entry(&mut self, key: PageKey, e: PageEntry) {
        if e.node != NO_NODE {
            self.lru_of(key.pid, e.is_file()).remove_handle(LruHandle::from_raw(e.node));
        }
    }

    /// Inserts a resident page at the hot end of its LRU, returning the raw
    /// node handle to store in its page entry.
    fn queue_push(&mut self, key: PageKey, file: bool) -> u32 {
        let h = if file {
            self.file_lru.push_hot(key)
        } else {
            self.anon_queue_mut(key.pid).push_hot(key)
        };
        h.raw()
    }

    fn anon_resident_total(&self) -> u64 {
        self.anon_lrus.iter().map(|(_, q)| q.len() as u64).sum()
    }

    /// The front (zram) tier that *must* exist: the caller holds a page
    /// entry with the zram flag set, so a missing front tier is a
    /// structural bug, never a recoverable condition.
    #[track_caller]
    fn front_expect(&mut self, op: &'static str) -> &mut SwapDevice {
        match self.swap.front_mut() {
            Some(f) => f,
            None => {
                panic!("mm invariant violated during {op}: zram-tagged page but no front tier")
            }
        }
    }

    /// Tags a freshly swapped-out page as zram-resident and enrolls it in
    /// the writeback FIFO (its entry's `node` stores the FIFO handle).
    fn note_zram_store(&mut self, victim: PageKey) {
        let raw = self.zram_fifo.push_hot(victim).raw();
        let em = self.entry_expect(victim.pid, victim.index, "zram store");
        em.flags |= PE_ZRAM;
        em.node = raw;
    }

    /// Releases a zram page's front-tier slot and FIFO node (page-in). The
    /// entry goes back to plain swapped state; the caller flips it resident
    /// afterwards.
    fn release_zram_slot(&mut self, key: PageKey, node_raw: u32) {
        self.zram_fifo.remove_handle(LruHandle::from_raw(node_raw));
        self.front_expect("zram slot release").release_page();
        let em = self.entry_expect(key.pid, key.index, "zram slot release");
        em.flags &= !PE_ZRAM;
        em.node = NO_NODE;
    }

    /// Which tier a swapped page's slot lives in.
    fn tier_of(e: PageEntry) -> SwapTier {
        if e.is_zram() {
            SwapTier::Zram
        } else {
            SwapTier::Flash
        }
    }

    // -------------------------------------------------------- data integrity

    /// True once quarantine saturation has retired the back tier: device
    /// degraded mode — no further swap stores at all; pressure falls back
    /// to file drops and LMK kills.
    pub fn degraded(&self) -> bool {
        self.integrity.degraded
    }

    /// Store-time checksum bookkeeping for one anon page entering `tier`:
    /// computes the slot checksum and rolls the tier's silent-corruption
    /// fate (a corrupt store records a checksum that can never verify).
    /// No-op unless the integrity layer is enabled.
    fn integrity_note_store(&mut self, key: PageKey, tier: SwapTier) {
        if !self.integrity.config.enabled {
            return;
        }
        self.integrity.store_seq += 1;
        let seq = self.integrity.store_seq;
        let clean = slot_checksum(key.pid.0, key.index, seq);
        let corrupt = self.swap.tier_mut(tier).fault_plan_mut().store_corrupt_fault();
        let stored = if corrupt {
            self.stats.corruptions_injected += 1;
            clean ^ CORRUPTION_FLIP
        } else {
            clean
        };
        self.integrity.slots.insert(key, SlotRecord { seq, stored, detected: false });
    }

    /// Drops the slot record of a page leaving swap through a clean path
    /// (page-in). No-op when the layer is disabled.
    fn integrity_note_release(&mut self, key: PageKey) {
        if self.integrity.config.enabled {
            self.integrity.slots.remove(&key);
        }
    }

    /// Fault-in verification: true when `key`'s stored copy is corrupt, in
    /// which case the detection is reported (once per slot — repeats stay
    /// silent) and the caller must take the SIGBUS path. Detection is a
    /// checksum comparison, never a draw, so it cannot move any schedule.
    fn integrity_verify_fault(&mut self, key: PageKey, _tier: SwapTier) -> bool {
        if !self.integrity.config.enabled {
            return false;
        }
        let Some(rec) = self.integrity.slots.get_mut(&key) else {
            return false;
        };
        if !rec.corrupt(key) {
            return false;
        }
        if !rec.detected {
            rec.detected = true;
            self.stats.corruptions_detected += 1;
            self.stats.pages_lost += 1;
            probe!(
                audit,
                self,
                AuditEvent::CorruptionDetected {
                    pid: key.pid.0,
                    page: key.index,
                    tier: _tier.as_str(),
                    source: "fault",
                }
            );
        }
        true
    }

    /// Reports a corruption found outside the fault path (`scrub` or
    /// `unmap`) exactly once. Returns true when this call was the first
    /// detection.
    fn integrity_detect(&mut self, key: PageKey, _tier: SwapTier, _source: &'static str) -> bool {
        let Some(rec) = self.integrity.slots.get_mut(&key) else {
            return false;
        };
        if !rec.corrupt(key) || rec.detected {
            return false;
        }
        rec.detected = true;
        self.stats.corruptions_detected += 1;
        probe!(
            audit,
            self,
            AuditEvent::CorruptionDetected {
                pid: key.pid.0,
                page: key.index,
                tier: _tier.as_str(),
                source: _source,
            }
        );
        true
    }

    /// Quarantines one slot of `tier` (the device must have released it via
    /// [`SwapDevice::release_page_quarantined`] already, or the caller does
    /// so right before): reports the quarantine and retires the tier when
    /// its quarantine count saturates the threshold.
    fn integrity_note_quarantine(&mut self, _key: PageKey, tier: SwapTier) {
        self.stats.slots_quarantined += 1;
        probe!(
            audit,
            self,
            AuditEvent::SlotQuarantined { pid: _key.pid.0, page: _key.index, tier: tier.as_str() }
        );
        let threshold = u64::from(self.integrity.config.quarantine_threshold);
        match tier {
            SwapTier::Zram => {
                if !self.swap.front_retired()
                    && self.swap.front().is_some_and(|f| f.quarantined_pages() >= threshold)
                {
                    let _q = self.swap.front().map_or(0, |f| f.quarantined_pages());
                    self.swap.retire_front();
                    self.stats.tiers_retired += 1;
                    probe!(audit, self, AuditEvent::TierRetired { tier: "zram", quarantined: _q });
                }
            }
            SwapTier::Flash => {
                if !self.integrity.degraded && self.swap.back().quarantined_pages() >= threshold {
                    let _q = self.swap.back().quarantined_pages();
                    self.integrity.degraded = true;
                    self.stats.tiers_retired += 1;
                    probe!(audit, self, AuditEvent::TierRetired { tier: "flash", quarantined: _q });
                }
            }
        }
    }

    /// One background scrubber step, ticked by the reclaim driver: every
    /// [`IntegrityConfig::scrub_interval_ticks`] reclaim ticks, verifies up
    /// to [`IntegrityConfig::scrub_batch_pages`] cold slots in cyclic page
    /// order. A corruption found here is reported immediately (`scrub`
    /// source); recovery happens at the page's next access or unmap, with
    /// no second report. Returns `None` on ticks where no pass is due (or
    /// the layer/scrubber is off).
    pub fn scrub_tick(&mut self) -> Option<ScrubReport> {
        if !self.integrity.config.enabled || self.integrity.config.scrub_batch_pages == 0 {
            return None;
        }
        self.integrity.ticks_since_scrub += 1;
        if self.integrity.ticks_since_scrub < self.integrity.config.scrub_interval_ticks {
            return None;
        }
        self.integrity.ticks_since_scrub = 0;
        let batch = self.integrity.config.scrub_batch_pages as usize;
        let mut keys: Vec<PageKey> = match self.integrity.scrub_cursor {
            Some(cursor) => self
                .integrity
                .slots
                .range((Bound::Excluded(cursor), Bound::Unbounded))
                .map(|(k, _)| *k)
                .take(batch)
                .collect(),
            None => self.integrity.slots.keys().copied().take(batch).collect(),
        };
        if keys.len() < batch {
            // Wrap around to the start of the slot map (without re-scanning
            // a slot twice in one pass).
            let missing = batch - keys.len();
            for k in self.integrity.slots.keys().copied().take(missing) {
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
        }
        self.integrity.scrub_cursor = keys.last().copied().or(self.integrity.scrub_cursor);
        let scanned = keys.len() as u64;
        let mut detected = 0u64;
        for key in keys {
            let tier = match self.entry(key) {
                Some(e) if !e.is_resident() => Self::tier_of(e),
                _ => continue,
            };
            if self.integrity_detect(key, tier, "scrub") {
                detected += 1;
            }
        }
        self.stats.scrub_passes += 1;
        self.stats.scrub_pages_scanned += scanned;
        probe!(audit, self, AuditEvent::ScrubPass { scanned, detected });
        Some(ScrubReport { scanned, detected })
    }

    /// Latency of re-reading `n` dropped file-backed pages (readahead).
    fn file_read_cost(&mut self, n: u64) -> SimDuration {
        if n == 0 {
            return SimDuration::ZERO;
        }
        self.stats.faults_file += n;
        let transfer = (n * PAGE_SIZE) as f64 / self.config.file_read_bw;
        SimDuration::from_micros(100) + SimDuration::from_secs_f64(transfer)
    }

    // ------------------------------------------------------------- map/unmap

    /// Maps `[base, base + len)` for `pid`. New pages start resident (they
    /// are written as they are allocated).
    ///
    /// Already-mapped pages in the range are left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`MmError::OutOfMemory`] when a frame cannot be found even
    /// after evicting; pages mapped before the failure stay mapped.
    pub fn map_range(&mut self, pid: Pid, base: u64, len: u64) -> Result<(), MmError> {
        self.map_range_kind(pid, base, len, PageKind::Anon)
    }

    /// Maps `[base, base + len)` with an explicit page kind (anonymous or
    /// file-backed).
    ///
    /// # Errors
    ///
    /// Returns [`MmError::OutOfMemory`] when a frame cannot be found even
    /// after evicting; pages mapped before the failure stay mapped.
    pub fn map_range_kind(
        &mut self,
        pid: Pid,
        base: u64,
        len: u64,
        kind: PageKind,
    ) -> Result<(), MmError> {
        let file = kind == PageKind::File;
        for index in pages_in_range(base, len) {
            let key = PageKey { pid, index };
            if self.entry(key).is_some() {
                continue;
            }
            self.take_frame()?;
            let node = self.queue_push(key, file);
            self.table_mut_or_create(pid).map(index, file, node);
            self.resident_count += 1;
            probe!(audit, self, AuditEvent::PageMapped { pid: pid.0, page: index, file });
        }
        Ok(())
    }

    /// Unmaps `[base, base + len)` for `pid`, releasing frames and swap
    /// slots. Unmapped pages in the range are ignored.
    pub fn unmap_range(&mut self, pid: Pid, base: u64, len: u64) {
        for index in pages_in_range(base, len) {
            let key = PageKey { pid, index };
            self.unmap_page(key);
        }
    }

    fn unmap_page(&mut self, key: PageKey) {
        let Some(e) = self.table_mut(key.pid).and_then(|t| t.unmap(key.index)) else {
            return;
        };
        probe!(
            audit,
            self,
            AuditEvent::PageUnmapped {
                pid: key.pid.0,
                page: key.index,
                resident: e.is_resident(),
                file: e.is_file(),
            }
        );
        if e.is_resident() {
            self.resident_count -= 1;
            self.queue_remove_entry(key, e);
        } else if !e.is_file() {
            // Only anonymous pages hold swap slots; file pages were dropped.
            let tier = Self::tier_of(e);
            let quarantine = self.integrity.config.enabled
                && self.integrity.slots.get(&key).is_some_and(|r| r.corrupt(key));
            if quarantine {
                // Slot discarded with a bad copy inside: last chance to
                // catch a corruption the run never read back.
                self.integrity_detect(key, tier, "unmap");
            }
            if e.is_zram() {
                self.zram_fifo.remove_handle(LruHandle::from_raw(e.node));
                let front = self.front_expect("unmap of a zram page");
                if quarantine {
                    front.release_page_quarantined();
                } else {
                    front.release_page();
                }
            } else if quarantine {
                self.swap.back_mut().release_page_quarantined();
            } else {
                self.swap.back_mut().release_page();
            }
            if quarantine {
                self.integrity_note_quarantine(key, tier);
            }
            self.integrity_note_release(key);
        }
    }

    /// Unmaps every page of `pid` (process killed). Returns freed frames.
    pub fn unmap_process(&mut self, pid: Pid) -> u64 {
        // Page tables iterate in ascending page order, so the audit event
        // stream (and thus the golden-trace hash) is deterministic.
        let indexes: Vec<u64> =
            self.table(pid).map(|t| t.iter_mapped().map(|(i, _)| i).collect()).unwrap_or_default();
        let before = self.free_frames();
        for index in indexes {
            self.unmap_page(PageKey { pid, index });
        }
        self.tables.remove(pid);
        self.anon_lrus.remove(pid);
        self.wss.remove(pid);
        self.free_frames() - before
    }

    // ---------------------------------------------------------------- access

    /// Touches `[addr, addr + len)` of `pid`: resident pages cost DRAM time
    /// and refresh their LRU position; swapped pages fault in at flash
    /// latency.
    ///
    /// When faulting needs a frame and none can be made free, the access
    /// stops early with [`AccessOutcome::oom`] set. The pages faulted before
    /// the failure keep their new state and are fully accounted; the caller
    /// should free memory (kill a process) and retry the access, merging the
    /// outcomes.
    pub fn access(&mut self, pid: Pid, addr: u64, len: u64, kind: AccessKind) -> AccessOutcome {
        let mut outcome = AccessOutcome::default();
        let mut batch = TierBatch::default();
        // Degradation events inside this access become children of one
        // "fault_service" span; buffered here because the parent's duration
        // is only known once the batched stall is added at the end.
        #[cfg(feature = "obs")]
        let mut obs_children: Vec<fleet_obs::SpanRec> = Vec::new();
        for index in pages_in_range(addr, len.max(1)) {
            let key = PageKey { pid, index };
            let Some(e) = self.entry(key) else {
                continue; // unmapped (e.g. native memory not modelled here)
            };
            if e.is_resident() {
                if e.node != NO_NODE {
                    self.lru_of(pid, e.is_file()).touch_handle(LruHandle::from_raw(e.node));
                }
                outcome.touched_pages += 1;
                outcome.latency += self.config.dram_page_cost;
                continue;
            }
            let file = e.is_file();
            if !file && self.integrity_verify_fault(key, Self::tier_of(e)) {
                // Checksum mismatch on the stored copy: the data is
                // gone. SIGBUS-analog — stop the access; the caller
                // kills the process, and the poisoned slot is
                // quarantined by `unmap_process`.
                outcome.killed = true;
                break;
            }
            if file
                && self.integrity.config.enabled
                && self.swap.back_mut().fault_plan_mut().store_corrupt_fault()
            {
                // A corrupted file read caught by its checksum: discard
                // the bad copy and re-read from the file — one wasted
                // read, never data loss.
                let penalty = self.file_read_cost(1);
                self.stats.corruptions_injected += 1;
                self.stats.corruptions_detected += 1;
                outcome.degraded_latency += penalty;
                outcome.latency += penalty;
                probe!(
                    audit,
                    self,
                    AuditEvent::CorruptionDetected {
                        pid: pid.0,
                        page: index,
                        tier: "flash",
                        source: "fault",
                    }
                );
            }
            if self.swap.fault_active() {
                // Each disposition of the read yields the stall it adds, the
                // retries it took and its `fault_service` child span, if any.
                let (_span, dur, retries) = match self.roll_read_fault(pid, index, Self::tier_of(e))
                {
                    ReadRoll::Ok { retries, extra } => {
                        ((retries > 0).then_some("fault_retry"), extra, retries)
                    }
                    // Discard-and-refault: the failing copy of a clean file
                    // page is dropped and re-read from its file — one wasted
                    // read plus backoff, but never data loss.
                    ReadRoll::Failed { retries, extra } if file => (
                        Some("fault_refault"),
                        extra + self.file_read_cost(1) + retry_backoff(retries + 1),
                        retries + 1,
                    ),
                    // Permanent loss of an anonymous page: the data is gone.
                    // Stop the access and report the SIGBUS-analog; the
                    // caller kills the process, which releases the poisoned
                    // slot via `unmap_process`.
                    ReadRoll::Failed { retries, extra } => {
                        outcome.killed = true;
                        self.stats.pages_lost += 1;
                        (Some("fault_fatal"), extra, retries)
                    }
                };
                outcome.retries += u64::from(retries);
                outcome.degraded_latency += dur;
                outcome.latency += dur;
                #[cfg(feature = "obs")]
                if let Some(name) = _span.filter(|_| self.probes.obs.is_enabled()) {
                    let rel = (outcome.latency - dur).as_nanos();
                    obs_children.push(fault_child(name, rel, dur, index, u64::from(retries)));
                }
                if outcome.killed {
                    break;
                }
            }
            if self.page_in(key, e, true, &mut batch).is_err() {
                outcome.oom = true;
                break;
            }
            outcome.touched_pages += 1;
            probe!(
                audit,
                self,
                AuditEvent::PageFault { pid: pid.0, page: index, file, kind: kind.audit_name() }
            );
        }
        let faults = batch.pages();
        let (stall, decompress) = self.read_tiers(batch);
        outcome.latency += stall;
        outcome.faulted_pages = faults;
        outcome.decompress_latency += decompress;
        self.stats.faults += faults;
        self.stats.fault_stall_nanos += stall.as_nanos();
        match kind {
            AccessKind::Mutator => self.stats.faults_mutator += faults,
            AccessKind::Gc => self.stats.faults_gc += faults,
            AccessKind::Launch => self.stats.faults_launch += faults,
        }
        #[cfg(feature = "obs")]
        if self.probes.obs.is_enabled() && (faults > 0 || !obs_children.is_empty()) {
            if faults > 0 {
                // The batched tier reads become the last child: this is the
                // fault_in slice of the launch attribution, broken out by
                // tier.
                obs_children.push(fleet_obs::SpanRec {
                    pid: 0,
                    name: "fault_batch",
                    cat: "kernel",
                    depth: 1,
                    rel_start: (outcome.latency - stall).as_nanos(),
                    dur: stall.as_nanos(),
                    args: vec![
                        ("pages", faults),
                        ("anon", batch.anon),
                        ("zram", batch.zram),
                        ("file", batch.file),
                    ],
                });
            }
            let dur = outcome.latency.as_nanos();
            let args = vec![
                ("pid", u64::from(pid.0)),
                ("pages", faults),
                ("retries", outcome.retries),
                ("kind", kind as u64),
            ];
            probe!(obs, self, fleet_obs::ObsRecord::root(0, "fault_service", "kernel", dur, args));
            for child in obs_children {
                probe!(obs, self, fleet_obs::ObsRecord::Span(child));
            }
            probe!(
                obs,
                self,
                fleet_obs::ObsRecord::Latency { name: "kernel.fault_service_ns", nanos: dur }
            );
        }
        // Feed the working-set tracker (Swam reclaim policy): a pure counter
        // bump, so it cannot perturb any event stream. GC traversal is
        // excluded — a collector touching the whole heap is exactly the
        // working-set inflation the paper's co-design exists to discount,
        // and counting it would hide every app's cold bulk from the
        // proactive daemon.
        if self.wss_enabled && outcome.touched_pages > 0 && kind != AccessKind::Gc {
            self.wss.get_or_insert_with(pid, WssEntry::default).touched += outcome.touched_pages;
        }
        outcome
    }

    /// The page-in step every page coming back from swap takes, demand
    /// fault or prefetch: takes a frame, frees the page's tier slot and
    /// checksum record, re-enrolls it on its LRU unless pinned (setting its
    /// referenced bit when `referenced`, as a demand fault does) and flips
    /// it resident. The read itself is counted into `batch` for one
    /// [`MemoryManager::read_tiers`] call per operation.
    ///
    /// # Errors
    ///
    /// [`MmError::OutOfMemory`] when no frame can be made free; the page
    /// stays swapped.
    fn page_in(
        &mut self,
        key: PageKey,
        e: PageEntry,
        referenced: bool,
        batch: &mut TierBatch,
    ) -> Result<(), MmError> {
        self.take_frame()?;
        let file = e.is_file();
        if file {
            batch.file += 1;
        } else {
            if e.is_zram() {
                self.release_zram_slot(key, e.node);
                batch.zram += 1;
            } else {
                self.swap.back_mut().release_page();
                batch.anon += 1;
            }
            self.integrity_note_release(key);
        }
        let node = if e.is_pinned() {
            NO_NODE
        } else {
            let raw = self.queue_push(key, file);
            if referenced {
                self.lru_of(key.pid, file).touch_handle(LruHandle::from_raw(raw));
            }
            raw
        };
        self.table_expect(key.pid, key.index, "page-in").set_resident(key.index, node);
        self.resident_count += 1;
        Ok(())
    }

    /// Reads a batch of paged-in pages, one operation per tier touched:
    /// zram decompression, the back tier, then file readahead. Returns
    /// `(stall, decompress)`; the zram share is pure memcpy-plus-decompress
    /// and reported separately so launch attribution can show it.
    fn read_tiers(&mut self, batch: TierBatch) -> (SimDuration, SimDuration) {
        let decompress = if batch.zram > 0 {
            self.front_expect("zram read").read_pages(batch.zram)
        } else {
            SimDuration::ZERO
        };
        self.stats.faults_zram += batch.zram;
        self.stats.decompress_stall_nanos += decompress.as_nanos();
        let stall = decompress
            + self.swap.back_mut().read_pages(batch.anon)
            + self.file_read_cost(batch.file);
        (stall, decompress)
    }

    /// Finds a free frame, evicting the coldest page if necessary.
    fn take_frame(&mut self) -> Result<(), MmError> {
        if self.free_frames() > 0 {
            return Ok(());
        }
        self.evict_one()?;
        // An eviction may not net a frame: a zram store of an
        // incompressible page (armed fault plan) consumes a full raw frame,
        // and any zram tier (front or back) charges a fraction of a frame
        // per compressed page. Keep evicting until a frame is actually
        // free. Quiet flash-only devices never take this loop (their
        // frames_consumed is always zero — single-eviction legacy
        // behaviour, bit-identical golden traces).
        while (self.swap.has_front() || self.swap.frames_consumed() > 0 || self.swap.fault_active())
            && self.free_frames() == 0
        {
            self.evict_one()?;
        }
        Ok(())
    }

    /// Flips an evicted page to `Swapped` in its table, clearing its LRU
    /// node (the queue pop already detached it).
    fn mark_swapped_out(&mut self, victim: PageKey) {
        self.table_expect(victim.pid, victim.index, "eviction").set_swapped(victim.index);
        self.resident_count -= 1;
    }

    /// Evicts one page. Policy mirrors Linux reclaim balance (swappiness):
    /// mostly drop file-backed pages (they are free to reclaim), but under
    /// sustained pressure every fourth eviction swaps an anonymous page —
    /// a continuously-streaming foreground therefore steadily pushes idle
    /// apps' heaps out to swap. Anonymous victims are chosen per-cgroup,
    /// proportionally to each process's resident anon size (Android's
    /// memcg reclaim), then coldest-first within that process. When the
    /// file cache is below its floor (an eighth of DRAM) anon goes first;
    /// when swap is full or absent, only file pages can go.
    fn evict_one(&mut self) -> Result<PageKey, MmError> {
        self.eviction_seq += 1;
        let file_floor = self.frames_capacity / 8;
        let file_resident = self.file_lru.len() as u64;
        let anon_possible =
            !self.swap.is_full() && !self.integrity.degraded && self.anon_resident_total() > 0;
        // swappiness / 200 of evictions go to anon (default 50 ⇒ 1 in 4),
        // spread evenly over the eviction sequence.
        let sw = self.config.swappiness.clamp(0, 200) as u64;
        let anon_turn =
            sw > 0 && (self.eviction_seq * sw) / 200 != ((self.eviction_seq - 1) * sw) / 200;
        let prefer_file = !self.file_lru.is_empty()
            && (!anon_possible || (file_resident > file_floor && !anon_turn));
        let order: [PageKind; 2] = if prefer_file {
            [PageKind::File, PageKind::Anon]
        } else {
            [PageKind::Anon, PageKind::File]
        };
        for kind in order {
            match kind {
                PageKind::File => {
                    if let Some(victim) = self.file_lru.pop_coldest() {
                        self.mark_swapped_out(victim);
                        self.stats.pages_dropped_file += 1;
                        probe!(
                            audit,
                            self,
                            AuditEvent::SwapOut {
                                pid: victim.pid.0,
                                page: victim.index,
                                file: true,
                                advised: false,
                            }
                        );
                        return Ok(victim);
                    }
                }
                PageKind::Anon => {
                    if self.swap.is_full() || self.integrity.degraded {
                        continue;
                    }
                    if let Some((victim, warm)) = self.pop_anon_proportional() {
                        match self.swap_out_anon(victim, warm) {
                            Ok(()) => return Ok(victim),
                            // Write-back failed (injected): the victim was
                            // re-queued resident; fall through to the file
                            // list so reclaim still makes progress.
                            Err(()) => continue,
                        }
                    }
                }
            }
        }
        Err(MmError::OutOfMemory)
    }

    /// Reserves a slot and writes one anon victim back to swap, placing it
    /// by hotness on a hybrid stack: warm victims (pages that earned a
    /// second chance in the LRU) go to the zram front tier, cold ones to
    /// the back tier, and warm-but-incompressible pages fall through to
    /// the back tier instead of pinning a full DRAM frame. On an injected
    /// write error or slot-exhaustion window the victim is re-queued at
    /// the hot end (the failed write-back touched it) and the caller falls
    /// back to the file list — at most one failed roll per
    /// [`MemoryManager::evict_one`] call, so reclaim cannot spin. Quiet
    /// single-tier devices always take the success path, byte-identical to
    /// the legacy `reserve_page` + `write_cost` sequence.
    fn swap_out_anon(&mut self, victim: PageKey, warm: bool) -> Result<(), ()> {
        let mut tier = SwapTier::Flash;
        if warm && self.swap.has_active_front() {
            let front = self.front_expect("tier placement");
            if front.is_full() {
                // Warm but no room up front: the writeback daemon is behind.
            } else if front.next_store_incompressible() {
                self.stats.zram_fallthrough_pages += 1;
            } else {
                tier = SwapTier::Zram;
            }
        }
        let dev = self.swap.tier_mut(tier);
        // The zram placement already drew the page's compressibility fate
        // via the probe above, so the front tier reserves with the decided
        // fate; the back tier draws its own (legacy single-device order).
        let reserved = match tier {
            SwapTier::Zram => dev.try_reserve_decided(false),
            SwapTier::Flash => dev.try_reserve(),
        };
        let written = reserved.and_then(|()| match dev.try_write(1) {
            Ok(op) => Ok(op),
            Err(e) => {
                dev.release_page();
                Err(e)
            }
        });
        match written {
            Ok(op) => {
                self.mark_swapped_out(victim);
                self.stats.pages_swapped_out += 1;
                self.stats.kswapd_cpu_nanos += op.latency.as_nanos();
                probe!(
                    audit,
                    self,
                    AuditEvent::SwapOut {
                        pid: victim.pid.0,
                        page: victim.index,
                        file: false,
                        advised: false,
                    }
                );
                if tier == SwapTier::Zram {
                    self.note_zram_store(victim);
                    self.stats.pages_swapped_zram += 1;
                }
                // Tier placement is only recorded on hybrid stacks, so the
                // single-tier (golden) event stream is untouched.
                if self.swap.has_front() {
                    probe!(
                        audit,
                        self,
                        AuditEvent::SwapTierStore {
                            pid: victim.pid.0,
                            page: victim.index,
                            tier: tier.as_str(),
                        }
                    );
                }
                self.integrity_note_store(victim, tier);
                Ok(())
            }
            Err(err) => {
                self.stats.swap_write_errors += 1;
                let op = if err == SwapError::Full { "reserve" } else { "write" };
                let _ = op;
                probe!(
                    audit,
                    self,
                    AuditEvent::SwapIoError {
                        pid: victim.pid.0,
                        page: victim.index,
                        op,
                        transient: true,
                    }
                );
                // The pop detached the victim; it is still resident, so put
                // it back on its queue and repair the handle in its entry.
                let raw = self.queue_push(victim, false);
                self.entry_expect(victim.pid, victim.index, "failed write-back").node = raw;
                Err(())
            }
        }
    }

    /// Rolls the fate of one swap read under an armed fault plan: transient
    /// errors retry with deterministic backoff up to [`FAULT_RETRY_MAX`]
    /// times; an error that persists past the budget (or a permanent one)
    /// is reported as `Failed` and the caller decides the disposition
    /// (discard-and-refault, skip, or kill). Device-internal GC pauses
    /// surface as extra latency on the `Ok` path. The roll draws from the
    /// fault plan of the tier holding the page, so hybrid tiers degrade
    /// independently (flash-only stacks draw from the back plan, exactly
    /// the legacy stream).
    fn roll_read_fault(&mut self, _pid: Pid, _index: u64, tier: SwapTier) -> ReadRoll {
        let mut retries = 0u32;
        let mut extra = SimDuration::ZERO;
        loop {
            match self.swap.tier_mut(tier).fault_plan_mut().read_fault() {
                None => return ReadRoll::Ok { retries, extra },
                Some(ReadFault::Spike(d)) => return ReadRoll::Ok { retries, extra: extra + d },
                Some(ReadFault::Transient) if retries < FAULT_RETRY_MAX => {
                    retries += 1;
                    extra += retry_backoff(retries);
                    self.stats.fault_retries += 1;
                    probe!(
                        audit,
                        self,
                        AuditEvent::FaultRetry { pid: _pid.0, page: _index, attempt: retries }
                    );
                }
                Some(other) => {
                    let _transient = other == ReadFault::Transient;
                    self.stats.swap_read_errors += 1;
                    probe!(
                        audit,
                        self,
                        AuditEvent::SwapIoError {
                            pid: _pid.0,
                            page: _index,
                            op: "read",
                            transient: _transient,
                        }
                    );
                    return ReadRoll::Failed { retries, extra };
                }
            }
        }
    }

    /// Picks an anon victim: a process chosen proportionally to its
    /// resident anon size (deterministic: driven by the eviction counter),
    /// then that process's coldest page. The returned flag is the victim's
    /// second-chance history — true means the page was referenced while on
    /// the inactive end (warm), the signal hotness-aware tier placement
    /// keys on.
    fn pop_anon_proportional(&mut self) -> Option<(PageKey, bool)> {
        let total = self.anon_resident_total();
        if total == 0 {
            return None;
        }
        // A multiplicative hash spreads consecutive eviction sequence
        // numbers across the [0, total) range deterministically.
        let target = self.eviction_seq.wrapping_mul(0x9e3779b97f4a7c15) % total;
        let mut acc = 0u64;
        let mut chosen: Option<Pid> = None;
        for (pid, q) in self.anon_lrus.iter() {
            acc += q.len() as u64;
            if target < acc {
                chosen = Some(pid);
                break;
            }
        }
        let start = chosen?;
        // Pop from the chosen process; fall back to later (then earlier)
        // processes if its queue yields nothing.
        let pids: Vec<Pid> = self.anon_lrus.iter().map(|(p, _)| p).collect();
        let start_idx = pids.iter().position(|&p| p == start).unwrap_or(0);
        for offset in 0..pids.len() {
            let pid = pids[(start_idx + offset) % pids.len()];
            if let Some(q) = self.anon_lrus.get_mut(pid) {
                if let Some(victim) = q.pop_coldest_classified() {
                    return Some(victim);
                }
            }
        }
        None
    }

    // --------------------------------------------------------------- reclaim

    /// Background reclaim: if free frames are below the low watermark,
    /// evict cold pages until the high watermark is met, swap space runs
    /// out, or nothing is evictable. Returns the number of pages reclaimed.
    pub fn kswapd(&mut self) -> u64 {
        if self.free_frames() >= self.config.low_watermark_frames {
            return 0;
        }
        #[cfg(feature = "obs")]
        let cpu_before = self.stats.kswapd_cpu_nanos;
        let mut reclaimed = 0;
        while self.free_frames() < self.config.high_watermark_frames {
            match self.evict_one() {
                Ok(_) => reclaimed += 1,
                Err(_) => break,
            }
        }
        #[cfg(feature = "obs")]
        if self.probes.obs.is_enabled() && reclaimed > 0 {
            let dur = self.stats.kswapd_cpu_nanos - cpu_before;
            let free = self.free_frames();
            probe!(
                obs,
                self,
                fleet_obs::ObsRecord::root(
                    0,
                    "kswapd_pass",
                    "kernel",
                    dur,
                    vec![("reclaimed", reclaimed), ("free_frames", free)],
                )
            );
            probe!(
                obs,
                self,
                fleet_obs::ObsRecord::Counter {
                    name: "kernel.kswapd_reclaimed_pages",
                    delta: reclaimed,
                }
            );
        }
        reclaimed
    }

    /// True when free memory is below the low watermark even though kswapd
    /// has run — the signal the device layer uses to consider an LMK kill.
    pub fn under_pressure(&self) -> bool {
        self.free_frames() < self.config.low_watermark_frames
    }

    /// The zram writeback daemon: demotes the oldest zram slots to the back
    /// tier when the front tier runs hot, so the compressed pool keeps
    /// tracking the warm set instead of filling with aging pages. Ticked by
    /// the device layer alongside kswapd; a strict no-op (zero cost, zero
    /// events) without a front tier. Returns pages demoted this tick.
    ///
    /// Policy: when the front tier is above 7/8 of its capacity, demote
    /// FIFO-oldest slots until it is back under 3/4, bounded per tick so
    /// one tick never monopolises kswapd. A back-tier reservation or write
    /// failure (genuine fullness or an injected fault) stops the tick; the
    /// page stays in zram, at the cold end of the FIFO, and is retried on a
    /// later tick.
    pub fn zram_writeback(&mut self) -> u64 {
        /// Upper bound on demotions per tick (one flash write burst).
        const WRITEBACK_BATCH: u64 = 64;
        let Some(front) = self.swap.front() else { return 0 };
        let capacity = front.capacity_pages();
        let high = capacity - capacity / 8;
        let target = capacity - capacity / 4;
        if front.used_pages() < high {
            return 0;
        }
        let mut moved = 0u64;
        while moved < WRITEBACK_BATCH && self.swap.front().is_some_and(|f| f.used_pages() > target)
        {
            if self.swap.back().is_full() || self.integrity.degraded {
                break; // nowhere to demote to; not an error
            }
            let Some(victim) = self.zram_fifo.pop_coldest() else { break };
            // Verify-before-retire, read side: a corrupt zram copy must not
            // be propagated to flash. Detect it, park it back at the cold
            // end (recovery happens at the next access or unmap) and stop
            // this tick — the daemon must not spin on a poisoned slot.
            if self.integrity.config.enabled
                && self.integrity.slots.get(&victim).is_some_and(|r| r.corrupt(victim))
            {
                self.integrity_detect(victim, SwapTier::Zram, "writeback");
                let raw = self.zram_fifo.push_cold(victim).raw();
                self.entry_expect(victim.pid, victim.index, "corrupt writeback").node = raw;
                break;
            }
            let back = self.swap.back_mut();
            let written = back.try_reserve().and_then(|()| match back.try_write(1) {
                Ok(op) => Ok(op),
                Err(e) => {
                    back.release_page();
                    Err(e)
                }
            });
            match written {
                Ok(op)
                    if self.integrity.config.enabled
                        && self.swap.back_mut().fault_plan_mut().torn_writeback_fault() =>
                {
                    // Verify-before-retire, write side: the flash copy came
                    // back torn, so the new slot is quarantined on the spot
                    // and the intact zram copy stays where it was (cold end,
                    // retried next tick). The write was issued, so its cost
                    // is still kswapd's.
                    self.stats.corruptions_injected += 1;
                    self.stats.corruptions_detected += 1;
                    self.stats.kswapd_cpu_nanos += op.latency.as_nanos();
                    probe!(
                        audit,
                        self,
                        AuditEvent::CorruptionDetected {
                            pid: victim.pid.0,
                            page: victim.index,
                            tier: "flash",
                            source: "writeback",
                        }
                    );
                    self.swap.back_mut().release_page_quarantined();
                    self.integrity_note_quarantine(victim, SwapTier::Flash);
                    let raw = self.zram_fifo.push_cold(victim).raw();
                    self.entry_expect(victim.pid, victim.index, "torn writeback").node = raw;
                    break;
                }
                Ok(op) => {
                    // Demotion decompresses the page out of the front tier
                    // and writes it to the back tier; both costs are
                    // kswapd's, not any mutator's.
                    let read = self.front_expect("writeback demotion").read_pages(1);
                    self.front_expect("writeback demotion").release_page();
                    self.stats.kswapd_cpu_nanos += (read + op.latency).as_nanos();
                    self.stats.zram_writeback_pages += 1;
                    let em = self.entry_expect(victim.pid, victim.index, "writeback demotion");
                    em.flags &= !PE_ZRAM;
                    em.node = NO_NODE;
                    moved += 1;
                    probe!(
                        audit,
                        self,
                        AuditEvent::SwapWriteback { pid: victim.pid.0, page: victim.index }
                    );
                }
                Err(_) => {
                    // Back tier refused (full or injected): the page stays
                    // in zram. Re-enroll it at the cold end so FIFO order
                    // is preserved for the retry.
                    self.stats.swap_write_errors += 1;
                    let raw = self.zram_fifo.push_cold(victim).raw();
                    self.entry_expect(victim.pid, victim.index, "failed writeback").node = raw;
                    break;
                }
            }
        }
        if moved > 0 {
            self.swap.note_writeback(moved);
        }
        moved
    }

    /// One kernel reclaim-daemon tick: the kswapd watermark scan followed
    /// by the zram writeback pass — the exact pair (and order) the device
    /// layer used to hand-tick, collapsed behind one entry point. Policy
    /// extensions (the Swam proactive pass) layer on top in
    /// `ReclaimDriver::tick`, which calls this first; kill escalation stays
    /// with the caller so its audit ordering barrier is preserved. Returns
    /// the pages kswapd reclaimed.
    pub fn reclaim_tick(&mut self) -> u64 {
        let reclaimed = self.kswapd();
        self.zram_writeback();
        reclaimed
    }

    // -------------------------------------------------- working-set tracking

    /// Arms the observe-only per-process working-set tracker (the Swam
    /// reclaim policy). Tracking draws no RNG, writes no clock and perturbs
    /// no LRU state; while it stays disarmed every access takes a single
    /// always-false branch, keeping legacy event streams bit-identical.
    pub fn enable_wss_tracking(&mut self) {
        self.wss_enabled = true;
    }

    /// True when working-set tracking is armed.
    pub fn wss_tracking_enabled(&self) -> bool {
        self.wss_enabled
    }

    /// The decayed working-set estimate of `pid` in pages (zero when the
    /// tracker is disarmed or the process has never been sampled).
    pub fn wss_estimate(&self, pid: Pid) -> u64 {
        self.wss.get(pid).map_or(0, |e| e.estimate)
    }

    /// Advances the working-set epoch: folds each process's touches since
    /// the last epoch into its decayed estimate
    /// (`estimate = touched + estimate / 2`, capped at the mapped page
    /// count), updates idle-epoch counters and returns the snapshots in
    /// ascending-pid order. Emits a `WssSample` audit event per process
    /// with a non-zero estimate. No-op (empty vec) while the tracker is
    /// disarmed.
    pub fn wss_epoch(&mut self) -> Vec<WssSnapshot> {
        if !self.wss_enabled {
            return Vec::new();
        }
        self.stats.wss_epochs += 1;
        let mut out = Vec::new();
        // Every process with a page table is sampled — a fully idle app
        // (zero touches, so no tracker entry of its own yet) is precisely
        // the proactive daemon's target and must still age its idle count.
        let pids: Vec<(Pid, u64)> = self.tables.iter().map(|(p, t)| (p, t.mapped)).collect();
        for (pid, mapped) in pids {
            let e = self.wss.get_or_insert_with(pid, WssEntry::default);
            e.estimate = (e.touched + e.estimate / 2).min(mapped);
            if e.touched == 0 {
                e.idle_epochs = e.idle_epochs.saturating_add(1);
            } else {
                e.idle_epochs = 0;
            }
            e.touched = 0;
            if e.estimate > 0 {
                probe!(audit, self, AuditEvent::WssSample { pid: pid.0, pages: e.estimate });
            }
            out.push(WssSnapshot { pid, estimate: e.estimate, idle_epochs: e.idle_epochs });
        }
        out
    }

    /// Proactively swaps up to `max_pages` of `pid`'s coldest resident
    /// anonymous pages out to the back tier, ahead of any watermark
    /// pressure (the Swam daemon's idle-app pass). Pinned pages are never
    /// taken (they are not enrolled in the anon LRU), file pages live on
    /// the file LRU and are untouched, and the write cost is charged to
    /// kswapd like any reclaim. Stops early when the back tier has no free
    /// slot. Returns the pages moved.
    pub fn proactive_swap_out(&mut self, pid: Pid, max_pages: u64) -> u64 {
        if self.integrity.degraded {
            return 0; // the back tier is retired; nothing to store to
        }
        let mut moved = 0u64;
        while moved < max_pages {
            let Some(victim) = self.anon_lrus.get_mut(pid).and_then(|q| q.pop_coldest()) else {
                break;
            };
            if !self.store_to_back(victim) {
                // No slot: re-enroll the victim at the cold end (it stays
                // the next candidate) and stop this pass.
                let raw = self.anon_queue_existing(pid).push_cold(victim).raw();
                self.entry_expect(pid, victim.index, "proactive swap-out").node = raw;
                break;
            }
            self.stats.proactive_swapout_pages += 1;
            self.mark_swapped_out(victim);
            moved += 1;
            probe!(audit, self, AuditEvent::ProactiveSwapOut { pid: pid.0, page: victim.index });
        }
        moved
    }

    /// The back-tier store of the advisory and proactive paths
    /// (`madvise(COLD_RUNTIME)`, the Swam idle-app pass): reserves a back
    /// slot for the anonymous page `key`, charges the write to kswapd and
    /// records the slot's checksum. Unlike reclaim's
    /// [`MemoryManager::swap_out_anon`] it never considers zram and never
    /// rolls the fault plan's write errors (DESIGN.md §9). Returns false,
    /// changing nothing, when the back tier is full or retired; otherwise
    /// the caller detaches the page from its LRU and marks it swapped.
    fn store_to_back(&mut self, key: PageKey) -> bool {
        let back = self.swap.back_mut();
        if self.integrity.degraded || back.is_full() || !back.reserve_page() {
            return false;
        }
        self.stats.pages_swapped_out += 1;
        self.stats.kswapd_cpu_nanos += self.swap.back().write_cost(1).as_nanos();
        self.integrity_note_store(key, SwapTier::Flash);
        true
    }

    // ------------------------------------------------------------- pinning

    /// Excludes the mapped pages of `[base, base + len)` from LRU eviction
    /// (Marvin's runtime-managed Java heap). Pinned pages can still be
    /// swapped explicitly with [`Advice::ColdRuntime`]. Returns the number
    /// of pages pinned.
    ///
    /// Only a resident page leaves its LRU: a swapped page is on none, and
    /// a zram page's `node` is its writeback-FIFO handle, which it keeps.
    pub fn pin_range(&mut self, pid: Pid, base: u64, len: u64) -> u64 {
        let mut pinned = 0;
        for index in pages_in_range(base, len) {
            let key = PageKey { pid, index };
            let Some(e) = self.entry(key) else { continue };
            if e.is_pinned() {
                continue;
            }
            let node = if e.is_resident() {
                self.queue_remove_entry(key, e);
                NO_NODE
            } else {
                e.node
            };
            let em = self.entry_expect(pid, index, "pin");
            em.flags |= PE_PINNED;
            em.node = node;
            pinned += 1;
            probe!(audit, self, AuditEvent::PagePinned { pid: pid.0, page: index });
        }
        pinned
    }

    /// Returns pinned pages of a range to kernel LRU control. Returns the
    /// number of pages unpinned. Only resident pages rejoin an LRU; a
    /// swapped page keeps its `node` (none, or its writeback-FIFO handle).
    pub fn unpin_range(&mut self, pid: Pid, base: u64, len: u64) -> u64 {
        let mut unpinned = 0;
        for index in pages_in_range(base, len) {
            let key = PageKey { pid, index };
            let Some(e) = self.entry(key) else { continue };
            if !e.is_pinned() {
                continue;
            }
            let node = if e.is_resident() { self.queue_push(key, e.is_file()) } else { e.node };
            let em = self.entry_expect(pid, index, "unpin");
            em.flags &= !PE_PINNED;
            em.node = node;
            unpinned += 1;
            probe!(audit, self, AuditEvent::PageUnpinned { pid: pid.0, page: index });
        }
        unpinned
    }

    /// True if the page covering `addr` is pinned.
    pub fn is_pinned(&self, pid: Pid, addr: u64) -> bool {
        self.entry(PageKey::of_addr(pid, addr)).is_some_and(|e| e.is_pinned())
    }

    // --------------------------------------------------------------- madvise

    /// Fleet's extended `madvise` system call (§5.3.2) over
    /// `[base, base + len)`:
    ///
    /// * [`Advice::ColdRuntime`] actively swaps the range's resident pages
    ///   out ahead of memory pressure, stopping early if swap fills up;
    /// * [`Advice::HotRuntime`] rotates the range's resident pages to the
    ///   hot end of the LRU so reclaim will not pick them; swapped pages
    ///   are left where they are.
    ///
    /// Returns the number of pages affected.
    pub fn madvise(&mut self, pid: Pid, base: u64, len: u64, advice: Advice) -> u64 {
        match advice {
            Advice::ColdRuntime => self.madvise_cold_impl(pid, base, len),
            Advice::HotRuntime => self.madvise_hot_impl(pid, base, len),
        }
    }

    fn madvise_cold_impl(&mut self, pid: Pid, base: u64, len: u64) -> u64 {
        let mut moved = 0;
        for index in pages_in_range(base, len) {
            let key = PageKey { pid, index };
            let Some(e) = self.entry(key) else { continue };
            if !e.is_resident() {
                continue;
            }
            let file = e.is_file();
            if file {
                self.stats.pages_dropped_file += 1;
            } else if !self.store_to_back(key) {
                // Advised-cold pages are cold by definition: always the
                // back tier, never zram. A full or retired one ends the call.
                break;
            }
            self.queue_remove_entry(key, e);
            self.mark_swapped_out(key);
            moved += 1;
            probe!(
                audit,
                self,
                AuditEvent::SwapOut { pid: pid.0, page: index, file, advised: true }
            );
        }
        moved
    }

    fn madvise_hot_impl(&mut self, pid: Pid, base: u64, len: u64) -> u64 {
        let mut promoted = 0;
        for index in pages_in_range(base, len) {
            let key = PageKey { pid, index };
            let Some(e) = self.entry(key) else { continue };
            if !e.is_resident() {
                continue;
            }
            if e.node != NO_NODE {
                self.lru_of(pid, e.is_file()).promote_handle(LruHandle::from_raw(e.node));
            }
            promoted += 1;
            probe!(audit, self, AuditEvent::LruPromote { pid: pid.0, page: index });
        }
        promoted
    }

    /// Prefetches swapped pages of several ranges back into DRAM in one
    /// batched operation (ASAP-style prepaging: the whole set is issued as
    /// one queued I/O, paying the setup latency once). Returns
    /// `(pages, latency)`; stops early (without error) when memory runs out.
    ///
    /// Prefetch is advisory: a corrupt or unreadable copy is skipped (it
    /// stays swapped, and a later demand fault deals with it), and pages
    /// come in without their referenced bit.
    pub fn prefetch_many(&mut self, pid: Pid, ranges: &[(u64, u64)]) -> (u64, SimDuration) {
        let mut batch = TierBatch::default();
        let mut degraded = SimDuration::ZERO;
        'outer: for &(base, len) in ranges {
            for index in pages_in_range(base, len) {
                let key = PageKey { pid, index };
                let Some(e) = self.entry(key) else { continue };
                if e.is_resident() {
                    continue;
                }
                if !e.is_file()
                    && self.integrity.config.enabled
                    && self.integrity.slots.get(&key).is_some_and(|r| r.corrupt(key))
                {
                    // The checksum catches the bad copy before it lands in
                    // DRAM; the SIGBUS disposition waits for a demand fault.
                    self.integrity_detect(key, Self::tier_of(e), "fault");
                    continue;
                }
                if self.swap.fault_active() {
                    match self.roll_read_fault(pid, index, Self::tier_of(e)) {
                        ReadRoll::Ok { extra, .. } => degraded += extra,
                        ReadRoll::Failed { extra, .. } => {
                            degraded += extra;
                            continue;
                        }
                    }
                }
                if self.page_in(key, e, false, &mut batch).is_err() {
                    break 'outer;
                }
                probe!(
                    audit,
                    self,
                    AuditEvent::PagePrefetched { pid: pid.0, page: index, file: e.is_file() }
                );
            }
        }
        let pages = batch.pages();
        let latency = self.read_tiers(batch).0 + degraded;
        #[cfg(feature = "obs")]
        if self.probes.obs.is_enabled() && pages > 0 {
            let (args, dur) =
                (vec![("pid", u64::from(pid.0)), ("pages", pages)], latency.as_nanos());
            probe!(obs, self, fleet_obs::ObsRecord::root(0, "prefetch", "kernel", dur, args));
        }
        (pages, latency)
    }

    // ------------------------------------------------------------ validation

    /// Checks the memory manager's internal bookkeeping for consistency and
    /// panics on the first inconsistency found. Used by the invariant test
    /// suites after every operation; always compiled (no feature gate) so
    /// plain tests can call it too.
    ///
    /// Invariants checked:
    ///
    /// * `resident_count` and the per-table resident/swapped/mapped
    ///   counters equal recounts over the page tables,
    /// * tier slot conservation: every swapped anonymous page holds exactly
    ///   one slot in exactly one tier — zram-tagged pages account for the
    ///   front tier's slots one-for-one, the rest for the back tier's
    ///   (file pages are dropped, not swapped, and hold no slot),
    /// * every zram-tagged page is enrolled in the writeback FIFO (via the
    ///   handle in its entry) and the FIFO holds nothing else,
    /// * resident pages plus the compressed zram store fit in DRAM,
    /// * every resident non-pinned page holds an LRU handle that resolves
    ///   back to it in exactly its proper queue, and the queues hold
    ///   nothing else,
    /// * pinned and flash-swapped pages are on no queue.
    pub fn validate(&self) {
        let mut resident = 0u64;
        let mut swapped_back = 0u64;
        let mut swapped_zram = 0u64;
        let mut queued = 0u64;
        for (pid, table) in self.tables.iter() {
            let (mut t_mapped, mut t_res, mut t_swap) = (0u64, 0u64, 0u64);
            for (index, e) in table.iter_mapped() {
                let key = PageKey { pid, index };
                t_mapped += 1;
                if e.is_resident() {
                    assert!(!e.is_zram(), "resident page {key:?} still carries the zram tag");
                    resident += 1;
                    t_res += 1;
                } else {
                    t_swap += 1;
                    if e.is_zram() {
                        assert!(!e.is_file(), "file page {key:?} tagged zram");
                        swapped_zram += 1;
                    } else if !e.is_file() {
                        swapped_back += 1;
                    }
                }
                if !e.is_resident() && e.is_zram() {
                    // Zram pages park their writeback-FIFO handle in `node`.
                    assert_ne!(e.node, NO_NODE, "zram page {key:?} missing its FIFO handle");
                    let q_key = self.zram_fifo.key_of(LruHandle::from_raw(e.node));
                    assert_eq!(
                        q_key,
                        Some(key),
                        "zram page {key:?} FIFO handle does not resolve to it"
                    );
                    continue;
                }
                let should_queue = e.is_resident() && !e.is_pinned();
                let in_queue = e.node != NO_NODE;
                assert_eq!(
                    in_queue,
                    should_queue,
                    "page {key:?} (resident {}, pinned {}) queue membership wrong",
                    e.is_resident(),
                    e.is_pinned()
                );
                if in_queue {
                    let h = LruHandle::from_raw(e.node);
                    let q_key = if e.is_file() {
                        self.file_lru.key_of(h)
                    } else {
                        self.anon_lrus.get(pid).and_then(|q| q.key_of(h))
                    };
                    assert_eq!(q_key, Some(key), "page {key:?} LRU handle does not resolve to it");
                    queued += 1;
                }
            }
            assert_eq!(t_mapped, table.mapped, "mapped counter wrong for pid {pid:?}");
            assert_eq!(t_res, table.resident, "resident counter wrong for pid {pid:?}");
            assert_eq!(t_swap, table.swapped, "swapped counter wrong for pid {pid:?}");
        }
        assert_eq!(
            resident, self.resident_count,
            "resident_count {} disagrees with page tables ({resident} resident)",
            self.resident_count
        );
        assert_eq!(
            swapped_back,
            self.swap.back().used_pages(),
            "back tier uses {} slots but {swapped_back} anon pages are swapped there",
            self.swap.back().used_pages()
        );
        let front_used = self.swap.front().map_or(0, |f| f.used_pages());
        assert_eq!(
            swapped_zram, front_used,
            "zram tier uses {front_used} slots but {swapped_zram} pages carry the zram tag"
        );
        assert_eq!(
            swapped_zram,
            self.zram_fifo.len() as u64,
            "writeback FIFO holds {} pages but {swapped_zram} pages carry the zram tag",
            self.zram_fifo.len()
        );
        assert!(
            self.resident_count + self.swap.frames_consumed() <= self.frames_capacity,
            "resident {} + zram {} exceed DRAM {}",
            self.resident_count,
            self.swap.frames_consumed(),
            self.frames_capacity
        );
        let queue_total = self.anon_resident_total() + self.file_lru.len() as u64;
        assert_eq!(
            queue_total, queued,
            "LRU queues hold {queue_total} pages but only {queued} mapped pages belong there"
        );
        if self.integrity.config.enabled {
            // Checksum bookkeeping conserves pages: exactly one slot record
            // per swapped anon page, each resolving to a live swapped entry.
            assert_eq!(
                self.integrity.slots.len() as u64,
                swapped_back + swapped_zram,
                "integrity records {} but {} anon pages are swapped",
                self.integrity.slots.len(),
                swapped_back + swapped_zram
            );
            for &key in self.integrity.slots.keys() {
                let e = self.entry(key).expect("slot record for an unmapped page");
                assert!(
                    !e.is_resident() && !e.is_file(),
                    "slot record for {key:?}, which is not a swapped anon page"
                );
            }
        } else {
            assert!(
                self.integrity.slots.is_empty(),
                "the disabled integrity layer must keep no slot records"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm_with_frames(frames: u64, swap_pages: u64) -> MemoryManager {
        MemoryManager::new(MmConfig {
            dram_bytes: frames * PAGE_SIZE,
            swap: SwapConfig { capacity_bytes: swap_pages * PAGE_SIZE, ..SwapConfig::default() },
            zram: None,
            low_watermark_frames: 0,
            high_watermark_frames: 0,
            dram_page_cost: SimDuration::from_nanos(450),
            file_read_bw: 300.0e6,
            swappiness: 50,
            integrity: IntegrityConfig::default(),
        })
    }

    #[test]
    fn map_and_access_resident() {
        let mut mm = mm_with_frames(8, 8);
        mm.map_range(Pid(1), 0, 3 * PAGE_SIZE).unwrap();
        assert_eq!(mm.used_frames(), 3);
        let out = mm.access(Pid(1), 0, 2 * PAGE_SIZE, AccessKind::Mutator);
        assert_eq!(out.touched_pages, 2);
        assert_eq!(out.faulted_pages, 0);
        assert_eq!(mm.stats().faults, 0);
    }

    #[test]
    fn mapping_past_dram_evicts_lru() {
        let mut mm = mm_with_frames(2, 4);
        mm.map_range(Pid(1), 0, 2 * PAGE_SIZE).unwrap();
        // Third page forces the eviction of page 0 (the coldest).
        mm.map_range(Pid(1), 2 * PAGE_SIZE, PAGE_SIZE).unwrap();
        assert_eq!(mm.used_frames(), 2);
        assert_eq!(mm.page_state(PageKey { pid: Pid(1), index: 0 }), Some(PageState::Swapped));
        assert_eq!(mm.stats().pages_swapped_out, 1);
    }

    #[test]
    fn fault_brings_page_back_at_flash_latency() {
        let mut mm = mm_with_frames(2, 4);
        mm.map_range(Pid(1), 0, 3 * PAGE_SIZE).unwrap(); // page 0 swapped
        let out = mm.access(Pid(1), 0, 1, AccessKind::Launch);
        assert_eq!(out.faulted_pages, 1);
        assert!(
            out.latency > SimDuration::from_micros(200),
            "flash fault should be slow: {}",
            out.latency
        );
        assert_eq!(mm.stats().faults_launch, 1);
        assert_eq!(mm.page_state(PageKey { pid: Pid(1), index: 0 }), Some(PageState::Resident));
    }

    #[test]
    fn oom_when_swap_full_and_no_frames() {
        let mut mm = mm_with_frames(2, 1);
        mm.map_range(Pid(1), 0, 2 * PAGE_SIZE).unwrap();
        mm.map_range(Pid(1), 2 * PAGE_SIZE, PAGE_SIZE).unwrap(); // swap now holds 1 page (full)
        let err = mm.map_range(Pid(1), 3 * PAGE_SIZE, PAGE_SIZE);
        assert_eq!(err, Err(MmError::OutOfMemory));
        // Killing the process frees everything and mapping succeeds again.
        let freed = mm.unmap_process(Pid(1));
        assert_eq!(freed, 2);
        assert_eq!(mm.swap().used_pages(), 0);
        mm.map_range(Pid(2), 0, 2 * PAGE_SIZE).unwrap();
    }

    #[test]
    fn unmap_releases_swap_slots() {
        let mut mm = mm_with_frames(1, 4);
        mm.map_range(Pid(1), 0, 2 * PAGE_SIZE).unwrap(); // page 0 swapped out
        assert_eq!(mm.swap().used_pages(), 1);
        mm.unmap_range(Pid(1), 0, 2 * PAGE_SIZE);
        assert_eq!(mm.swap().used_pages(), 0);
        assert_eq!(mm.used_frames(), 0);
    }

    #[test]
    fn gc_faults_are_attributed() {
        let mut mm = mm_with_frames(1, 4);
        mm.map_range(Pid(1), 0, 2 * PAGE_SIZE).unwrap();
        mm.access(Pid(1), 0, 1, AccessKind::Gc);
        assert_eq!(mm.stats().faults_gc, 1);
        assert_eq!(mm.stats().faults_mutator, 0);
    }

    #[test]
    fn madvise_cold_swaps_out_range() {
        let mut mm = mm_with_frames(8, 8);
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        let moved = mm.madvise(Pid(1), 0, 4 * PAGE_SIZE, Advice::ColdRuntime);
        assert_eq!(moved, 4);
        assert_eq!(mm.used_frames(), 0);
        assert_eq!(mm.process_mem(Pid(1)).swapped, 4);
    }

    #[test]
    fn madvise_cold_stops_when_swap_full() {
        let mut mm = mm_with_frames(8, 2);
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        let moved = mm.madvise(Pid(1), 0, 4 * PAGE_SIZE, Advice::ColdRuntime);
        assert_eq!(moved, 2);
        assert_eq!(mm.process_mem(Pid(1)).resident, 2);
    }

    #[test]
    fn madvise_hot_protects_pages_from_eviction() {
        let mut mm = mm_with_frames(4, 8);
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        // Promote page 0, then map two more pages forcing evictions.
        assert_eq!(mm.madvise(Pid(1), 0, PAGE_SIZE, Advice::HotRuntime), 1);
        mm.map_range(Pid(1), 4 * PAGE_SIZE, 2 * PAGE_SIZE).unwrap();
        assert_eq!(mm.page_state(PageKey { pid: Pid(1), index: 0 }), Some(PageState::Resident));
        // Pages 1 and 2 (cold, unreferenced) went instead.
        assert_eq!(mm.process_mem(Pid(1)).swapped, 2);
    }

    #[test]
    fn kswapd_restores_watermark() {
        let mut mm = MemoryManager::new(MmConfig {
            dram_bytes: 10 * PAGE_SIZE,
            swap: SwapConfig { capacity_bytes: 20 * PAGE_SIZE, ..SwapConfig::default() },
            zram: None,
            low_watermark_frames: 2,
            high_watermark_frames: 4,
            dram_page_cost: SimDuration::from_nanos(450),
            file_read_bw: 300.0e6,
            swappiness: 50,
            integrity: IntegrityConfig::default(),
        });
        mm.map_range(Pid(1), 0, 9 * PAGE_SIZE).unwrap(); // 1 free < low
        assert!(mm.under_pressure());
        let reclaimed = mm.kswapd();
        assert_eq!(reclaimed, 3); // free goes 1 → 4
        assert!(!mm.under_pressure());
        assert_eq!(mm.kswapd(), 0); // already satisfied
    }

    #[test]
    fn prefetch_restores_range() {
        let mut mm = mm_with_frames(4, 8);
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        mm.madvise(Pid(1), 0, 2 * PAGE_SIZE, Advice::ColdRuntime);
        let (pages, latency) = mm.prefetch_many(Pid(1), &[(0, 4 * PAGE_SIZE)]);
        assert_eq!(pages, 2);
        assert!(latency > SimDuration::ZERO);
        assert_eq!(mm.process_mem(Pid(1)).swapped, 0);
    }

    #[test]
    fn double_map_is_idempotent() {
        let mut mm = mm_with_frames(4, 4);
        mm.map_range(Pid(1), 0, 2 * PAGE_SIZE).unwrap();
        mm.map_range(Pid(1), 0, 2 * PAGE_SIZE).unwrap();
        assert_eq!(mm.used_frames(), 2);
    }

    #[test]
    fn swappiness_steers_the_anon_file_balance() {
        let run = |swappiness: u32| {
            let mut mm = MemoryManager::new(MmConfig {
                dram_bytes: 64 * PAGE_SIZE,
                swap: SwapConfig { capacity_bytes: 256 * PAGE_SIZE, ..SwapConfig::default() },
                low_watermark_frames: 0,
                high_watermark_frames: 0,
                swappiness,
                ..MmConfig::default()
            });
            // Half anon, half file, then heavy extra file demand.
            mm.map_range_kind(Pid(1), 0, 32 * PAGE_SIZE, PageKind::Anon).unwrap();
            mm.map_range_kind(Pid(2), 0, 32 * PAGE_SIZE, PageKind::File).unwrap();
            mm.map_range_kind(Pid(3), 0, 64 * PAGE_SIZE, PageKind::File).unwrap();
            mm.stats().pages_swapped_out
        };
        let low = run(0);
        let mid = run(50);
        let high = run(200);
        assert_eq!(low, 0, "swappiness 0 must never swap anon while file is droppable");
        assert!(high > mid, "higher swappiness swaps more anon: {high} vs {mid}");
        assert!(mid > 0, "default swappiness swaps some anon under sustained demand");
    }

    #[test]
    fn access_to_unmapped_range_is_free() {
        let mut mm = mm_with_frames(4, 4);
        let out = mm.access(Pid(1), 0, PAGE_SIZE, AccessKind::Mutator);
        assert_eq!(out.touched_pages, 0);
        assert_eq!(out.latency, SimDuration::ZERO);
    }

    #[test]
    fn access_oom_keeps_partial_progress() {
        let mut mm = mm_with_frames(2, 2);
        // Fill DRAM and swap: 2 resident + 2 swapped, nothing evictable left
        // once swap is full.
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        assert_eq!(mm.swap().used_pages(), 2);
        // Touching all four pages must fault two back in; each fault evicts
        // another page into the (full) swap, so the second fault cannot find
        // a frame and the access stops early with the oom flag.
        let out = mm.access(Pid(1), 0, 4 * PAGE_SIZE, AccessKind::Mutator);
        assert!(out.oom, "exhausted memory must set the oom flag");
        assert!(out.touched_pages < 4, "oom access must stop early, touched {}", out.touched_pages);
        // Partial progress is fully accounted: counters still balance.
        mm.validate();
        // Freeing memory lets a retry finish the range.
        mm.unmap_range(Pid(1), 0, 2 * PAGE_SIZE);
        let retry = mm.access(Pid(1), 0, 4 * PAGE_SIZE, AccessKind::Mutator);
        assert!(!retry.oom);
        mm.validate();
    }

    #[test]
    fn validate_accepts_all_page_states() {
        let mut mm = mm_with_frames(4, 8);
        mm.map_range(Pid(1), 0, 3 * PAGE_SIZE).unwrap();
        mm.map_range_kind(Pid(2), 0, 2 * PAGE_SIZE, PageKind::File).unwrap();
        mm.validate();
        mm.madvise(Pid(1), 0, PAGE_SIZE, Advice::ColdRuntime); // one swapped anon page
        mm.madvise(Pid(2), 0, PAGE_SIZE, Advice::ColdRuntime); // one dropped file page
        mm.pin_range(Pid(1), PAGE_SIZE, PAGE_SIZE); // one pinned page
        mm.validate();
        mm.unmap_process(Pid(1));
        mm.unmap_process(Pid(2));
        mm.validate();
        assert_eq!(mm.used_frames(), 0);
    }

    #[test]
    fn page_tables_cover_distant_address_areas() {
        // Java heap near 0, native at 2^40, file at 2^41: three segments,
        // all resolvable, no interference.
        let mut mm = mm_with_frames(64, 64);
        let native = 1u64 << 40;
        let file = 1u64 << 41;
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        mm.map_range(Pid(1), native, 4 * PAGE_SIZE).unwrap();
        mm.map_range_kind(Pid(1), file, 4 * PAGE_SIZE, PageKind::File).unwrap();
        mm.validate();
        assert!(mm.is_resident(Pid(1), 0));
        assert!(mm.is_resident(Pid(1), native));
        assert!(mm.is_resident(Pid(1), file));
        assert_eq!(mm.process_mem(Pid(1)).resident, 12);
        mm.unmap_range(Pid(1), native, 4 * PAGE_SIZE);
        mm.validate();
        assert!(!mm.is_resident(Pid(1), native));
        assert_eq!(mm.process_mem(Pid(1)).resident, 8);
    }

    // ----------------------------------------------------- fault injection

    use crate::fault::FaultConfig;

    fn arm(mm: &mut MemoryManager, seed: u64, config: FaultConfig) {
        mm.install_fault_plan(FaultPlan::new(seed, config));
    }

    #[test]
    fn quiet_plan_changes_nothing() {
        let scenario = |mm: &mut MemoryManager| {
            mm.map_range(Pid(1), 0, 6 * PAGE_SIZE).unwrap();
            mm.access(Pid(1), 0, 6 * PAGE_SIZE, AccessKind::Launch)
        };
        let mut plain = mm_with_frames(4, 8);
        let mut quiet = mm_with_frames(4, 8);
        quiet.install_fault_plan(FaultPlan::default());
        assert!(!quiet.fault_active());
        let a = scenario(&mut plain);
        let b = scenario(&mut quiet);
        assert_eq!(a, b);
        assert_eq!(plain.stats(), quiet.stats());
        assert_eq!(b.retries, 0);
        assert_eq!(b.degraded_latency, SimDuration::ZERO);
    }

    #[test]
    fn transient_read_errors_exhaust_the_retry_budget() {
        let mut mm = mm_with_frames(2, 8);
        mm.map_range(Pid(1), 0, 3 * PAGE_SIZE).unwrap(); // page 0 swapped
        arm(&mut mm, 7, FaultConfig { read_transient_rate: 1.0, ..FaultConfig::default() });
        let out = mm.access(Pid(1), 0, 1, AccessKind::Launch);
        // Every roll is transient: FAULT_RETRY_MAX bounded retries, then the
        // anon page is declared lost and the owner must die — no spin.
        assert_eq!(out.retries, FAULT_RETRY_MAX as u64);
        assert!(out.killed, "unreadable anon page must report the kill");
        assert!(!out.oom);
        assert!(out.degraded_latency > SimDuration::ZERO);
        assert_eq!(mm.stats().fault_retries, FAULT_RETRY_MAX as u64);
        assert_eq!(mm.stats().swap_read_errors, 1);
        assert_eq!(mm.stats().pages_lost, 1);
        // The page stays swapped (slot retained) until the kill unmaps it.
        assert_eq!(mm.page_state(PageKey { pid: Pid(1), index: 0 }), Some(PageState::Swapped));
        mm.validate();
        assert_eq!(mm.unmap_process(Pid(1)), 2);
        assert_eq!(mm.swap().used_pages(), 0);
        mm.validate();
    }

    #[test]
    fn permanent_read_error_on_file_page_discards_and_refaults() {
        let mut mm = mm_with_frames(8, 8);
        mm.map_range_kind(Pid(1), 0, 2 * PAGE_SIZE, PageKind::File).unwrap();
        mm.madvise(Pid(1), 0, PAGE_SIZE, Advice::ColdRuntime); // drop page 0
        arm(&mut mm, 11, FaultConfig { read_permanent_rate: 1.0, ..FaultConfig::default() });
        let out = mm.access(Pid(1), 0, 1, AccessKind::Launch);
        // Clean file page: the failing copy is discarded and re-read from
        // the file — degraded, but never lost and never fatal.
        assert!(!out.killed);
        assert_eq!(out.faulted_pages, 1);
        assert!(out.retries >= 1);
        assert!(out.degraded_latency > SimDuration::ZERO);
        assert_eq!(mm.stats().swap_read_errors, 1);
        assert_eq!(mm.stats().pages_lost, 0);
        assert_eq!(mm.page_state(PageKey { pid: Pid(1), index: 0 }), Some(PageState::Resident));
        mm.validate();
    }

    #[test]
    fn latency_spikes_degrade_but_never_fail() {
        let spike = SimDuration::from_millis(30);
        let mut mm = mm_with_frames(2, 8);
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap(); // pages 0,1 swapped
        arm(
            &mut mm,
            13,
            FaultConfig { latency_spike_rate: 1.0, latency_spike: spike, ..FaultConfig::default() },
        );
        let out = mm.access(Pid(1), 0, 2 * PAGE_SIZE, AccessKind::Launch);
        assert!(!out.killed && !out.oom);
        assert_eq!(out.faulted_pages, 2);
        assert_eq!(out.retries, 0);
        // One spike per faulted page, fully accounted inside latency.
        assert_eq!(out.degraded_latency, spike * 2);
        assert!(out.latency > out.degraded_latency);
        mm.validate();
    }

    #[test]
    fn write_back_failures_leave_no_page_lost() {
        let mut mm = mm_with_frames(4, 16);
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        arm(&mut mm, 17, FaultConfig { write_error_rate: 1.0, ..FaultConfig::default() });
        // Every anon write-back fails and there are no file pages to fall
        // back on: the mapping attempt surfaces OOM instead of spinning or
        // corrupting state, and every already-mapped page survives.
        let err = mm.map_range(Pid(2), 0, PAGE_SIZE);
        assert_eq!(err, Err(MmError::OutOfMemory));
        assert!(mm.stats().swap_write_errors >= 1);
        assert_eq!(mm.stats().pages_swapped_out, 0);
        assert_eq!(mm.process_mem(Pid(1)).resident, 4);
        mm.validate();
    }

    #[test]
    fn incompressible_zram_pressure_stays_consistent() {
        let mut mm = MemoryManager::new(MmConfig {
            dram_bytes: 4 * PAGE_SIZE,
            swap: SwapConfig::try_zram(16 * PAGE_SIZE, 2.0).unwrap(),
            zram: None,
            low_watermark_frames: 0,
            high_watermark_frames: 0,
            dram_page_cost: SimDuration::from_nanos(450),
            file_read_bw: 300.0e6,
            swappiness: 200, // always prefer anon so zram is exercised
            integrity: IntegrityConfig::default(),
        });
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        arm(&mut mm, 19, FaultConfig { compress_fail_rate: 1.0, ..FaultConfig::default() });
        // Every store is incompressible (net-zero eviction). take_frame must
        // keep evicting until it either frees a frame or honestly reports
        // OOM — and the books must balance either way.
        let _ = mm.map_range(Pid(1), 4 * PAGE_SIZE, PAGE_SIZE);
        mm.validate();
    }

    #[test]
    fn prefetch_skips_unreadable_pages() {
        let mut mm = mm_with_frames(8, 8);
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        mm.madvise(Pid(1), 0, 2 * PAGE_SIZE, Advice::ColdRuntime);
        arm(&mut mm, 23, FaultConfig { read_permanent_rate: 1.0, ..FaultConfig::default() });
        let (pages, _latency) = mm.prefetch_many(Pid(1), &[(0, 4 * PAGE_SIZE)]);
        // Advisory path: both swapped pages are unreadable and skipped; the
        // demand-fault path deals with them later.
        assert_eq!(pages, 0);
        assert_eq!(mm.process_mem(Pid(1)).swapped, 2);
        assert_eq!(mm.stats().swap_read_errors, 2);
        mm.validate();
    }

    // ------------------------------------------------------- hybrid tiers

    /// A hybrid stack: `zram_pages` of front tier (2:1) ahead of
    /// `flash_pages` of back tier.
    fn hybrid_mm(frames: u64, zram_pages: u64, flash_pages: u64) -> MemoryManager {
        MemoryManager::new(MmConfig {
            dram_bytes: frames * PAGE_SIZE,
            swap: SwapConfig { capacity_bytes: flash_pages * PAGE_SIZE, ..SwapConfig::default() },
            zram: Some(SwapConfig::try_zram(zram_pages * PAGE_SIZE, 2.0).unwrap()),
            low_watermark_frames: 0,
            high_watermark_frames: 0,
            dram_page_cost: SimDuration::from_nanos(450),
            file_read_bw: 300.0e6,
            swappiness: 50,
            integrity: IntegrityConfig::default(),
        })
    }

    #[test]
    fn warm_victims_go_to_zram_cold_to_flash() {
        // Warm case: pages referenced before eviction earn a second chance,
        // so their eventual eviction places them in the zram front tier.
        let mut mm = hybrid_mm(4, 8, 16);
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        mm.access(Pid(1), 0, 4 * PAGE_SIZE, AccessKind::Mutator); // referenced
        mm.map_range(Pid(1), 4 * PAGE_SIZE, 2 * PAGE_SIZE).unwrap(); // forces evictions
        assert!(mm.stats().pages_swapped_zram > 0, "warm victims must land in zram");
        assert_eq!(mm.swap().back().used_pages(), 0, "no warm victim may hit flash");
        mm.validate();

        // Cold case: never-referenced pages are evicted on their first pop
        // and go straight to the back tier.
        let mut cold = hybrid_mm(4, 8, 16);
        cold.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        cold.map_range(Pid(1), 4 * PAGE_SIZE, 2 * PAGE_SIZE).unwrap();
        assert_eq!(cold.stats().pages_swapped_zram, 0, "cold victims must skip zram");
        assert!(cold.swap().back().used_pages() > 0);
        assert_eq!(cold.swap().front().unwrap().used_pages(), 0);
        cold.validate();
    }

    #[test]
    fn zram_fault_in_is_fast_and_attributed() {
        let mut mm = hybrid_mm(4, 8, 16);
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        mm.access(Pid(1), 0, 4 * PAGE_SIZE, AccessKind::Mutator);
        mm.map_range(Pid(1), 4 * PAGE_SIZE, 2 * PAGE_SIZE).unwrap();
        let zram_used = mm.swap().front().unwrap().used_pages();
        assert!(zram_used > 0);
        // Fault the first evicted page back in: served by zram, slot freed,
        // and the stall is attributed to decompression.
        let out = mm.access(Pid(1), 0, 1, AccessKind::Launch);
        assert_eq!(out.faulted_pages, 1);
        assert!(out.decompress_latency > SimDuration::ZERO);
        assert_eq!(out.decompress_latency, out.latency, "the whole stall is decompression");
        assert!(
            out.latency < SimDuration::from_micros(100),
            "zram fault must be far below flash latency: {}",
            out.latency
        );
        assert_eq!(mm.stats().faults_zram, 1);
        assert_eq!(mm.swap().front().unwrap().used_pages(), zram_used - 1);
        mm.validate();
    }

    #[test]
    fn writeback_daemon_demotes_oldest_zram_slots() {
        let mut mm = hybrid_mm(8, 8, 16);
        mm.map_range(Pid(1), 0, 8 * PAGE_SIZE).unwrap();
        mm.access(Pid(1), 0, 8 * PAGE_SIZE, AccessKind::Mutator); // all warm
        mm.map_range(Pid(1), 8 * PAGE_SIZE, 4 * PAGE_SIZE).unwrap(); // fills zram
        let front_used = mm.swap().front().unwrap().used_pages();
        assert_eq!(front_used, 8, "the eight warm victims fill the front tier");
        // Above the 7/8 high mark: the daemon demotes down to 3/4.
        let moved = mm.zram_writeback();
        assert_eq!(moved, 2);
        assert_eq!(mm.swap().front().unwrap().used_pages(), 6);
        assert_eq!(mm.swap().back().used_pages(), 2);
        assert_eq!(mm.swap().writeback_pages(), 2);
        assert_eq!(mm.stats().zram_writeback_pages, 2);
        mm.validate();
        // FIFO order: the demoted pages are the oldest stores (pages 0, 1);
        // they now fault from flash (no decompression), while a still-zram
        // page decompresses.
        let demoted = mm.access(Pid(1), 0, 1, AccessKind::Mutator);
        assert_eq!(demoted.faulted_pages, 1);
        assert_eq!(demoted.decompress_latency, SimDuration::ZERO);
        let kept = mm.access(Pid(1), 4 * PAGE_SIZE, 1, AccessKind::Mutator);
        assert_eq!(kept.faulted_pages, 1);
        assert!(kept.decompress_latency > SimDuration::ZERO);
        mm.validate();
        // Below the high mark nothing moves.
        assert_eq!(mm.zram_writeback(), 0);
    }

    #[test]
    fn flash_only_stack_never_ticks_writeback() {
        let mut mm = mm_with_frames(2, 8);
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        assert_eq!(mm.zram_writeback(), 0);
        assert_eq!(mm.stats().zram_writeback_pages, 0);
        assert_eq!(mm.stats().pages_swapped_zram, 0);
        assert_eq!(mm.stats().faults_zram, 0);
        assert!(mm.swap_stats().front.is_none());
        mm.validate();
    }

    #[test]
    fn incompressible_warm_pages_fall_through_to_flash() {
        let mut mm = hybrid_mm(4, 8, 16);
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        mm.access(Pid(1), 0, 4 * PAGE_SIZE, AccessKind::Mutator); // all warm
        arm(&mut mm, 29, FaultConfig { compress_fail_rate: 1.0, ..FaultConfig::default() });
        mm.map_range(Pid(1), 4 * PAGE_SIZE, 2 * PAGE_SIZE).unwrap();
        // Every warm victim probes incompressible and falls through: the
        // front tier stays empty instead of pinning raw frames.
        assert!(mm.stats().zram_fallthrough_pages > 0);
        assert_eq!(mm.swap().front().unwrap().used_pages(), 0);
        assert!(mm.swap().back().used_pages() > 0);
        assert_eq!(mm.swap().front().unwrap().raw_pages(), 0);
        mm.validate();
    }

    #[test]
    fn pinning_zram_pages_keeps_their_fifo_handles() {
        let mut mm = MemoryManager::new(MmConfig {
            dram_bytes: 16 * PAGE_SIZE,
            swap: SwapConfig { capacity_bytes: 64 * PAGE_SIZE, ..SwapConfig::default() },
            zram: Some(SwapConfig::try_zram(16 * PAGE_SIZE, 2.5).unwrap()),
            low_watermark_frames: 2,
            high_watermark_frames: 4,
            ..MmConfig::default()
        });
        mm.map_range(Pid(1), 0, 8 * PAGE_SIZE).unwrap();
        mm.access(Pid(1), 0, 8 * PAGE_SIZE, AccessKind::Mutator); // warm
        mm.map_range(Pid(2), 0, 14 * PAGE_SIZE).unwrap();
        let zram = mm.swap().front().unwrap().used_pages();
        assert_eq!(zram, 4, "four warm pages of pid 1 land in zram");
        assert_eq!(mm.pin_range(Pid(1), 0, 8 * PAGE_SIZE), 8);
        mm.validate();
        // Pinned zram pages stay on the writeback FIFO and fault back in.
        assert_eq!(mm.unpin_range(Pid(1), 0, 4 * PAGE_SIZE), 4);
        mm.validate();
        mm.pin_range(Pid(1), 0, 4 * PAGE_SIZE);
        let out = mm.access(Pid(1), 0, 8 * PAGE_SIZE, AccessKind::Mutator);
        assert_eq!(out.faulted_pages, zram);
        assert!(mm.is_pinned(Pid(1), 0));
        mm.validate();
        mm.unmap_process(Pid(1));
        mm.validate();
    }

    #[test]
    fn empty_chunks_are_freed_under_address_churn() {
        // Map and fully unmap many widely spaced ranges; the table must not
        // accumulate chunks for dead address space.
        let mut mm = mm_with_frames(16, 16);
        for i in 0..64u64 {
            let base = i * 4 * 1024 * 1024; // a fresh 2 MiB chunk every time
            mm.map_range(Pid(1), base, 2 * PAGE_SIZE).unwrap();
            mm.unmap_range(Pid(1), base, 2 * PAGE_SIZE);
        }
        mm.validate();
        let table = mm.table(Pid(1)).unwrap();
        let live_chunks: usize =
            table.segs.iter().map(|s| s.chunks.iter().filter(|c| c.is_some()).count()).sum();
        assert_eq!(live_chunks, 0, "fully unmapped chunks must be freed");
        assert_eq!(mm.process_mem(Pid(1)), ProcessMem::default());
    }

    // --------------------------------------------------------- data integrity

    fn mm_with_integrity(
        frames: u64,
        swap_pages: u64,
        integrity: IntegrityConfig,
    ) -> MemoryManager {
        MemoryManager::new(MmConfig {
            dram_bytes: frames * PAGE_SIZE,
            swap: SwapConfig { capacity_bytes: swap_pages * PAGE_SIZE, ..SwapConfig::default() },
            zram: None,
            low_watermark_frames: 0,
            high_watermark_frames: 0,
            dram_page_cost: SimDuration::from_nanos(450),
            file_read_bw: 300.0e6,
            swappiness: 50,
            integrity,
        })
    }

    #[test]
    fn corrupt_anon_store_kills_at_fault_and_quarantines_at_unmap() {
        let mut mm = mm_with_integrity(2, 8, IntegrityConfig::checked());
        arm(&mut mm, 31, FaultConfig { corruption_rate: 1.0, ..FaultConfig::default() });
        mm.map_range(Pid(1), 0, 2 * PAGE_SIZE).unwrap();
        mm.map_range(Pid(1), 2 * PAGE_SIZE, PAGE_SIZE).unwrap(); // evicts one page, corruptly
        assert_eq!(mm.stats().corruptions_injected, 1);
        let out = mm.access(Pid(1), 0, PAGE_SIZE, AccessKind::Mutator);
        assert!(out.killed, "a corrupt anon slot is a SIGBUS");
        assert_eq!(mm.stats().corruptions_detected, 1);
        assert_eq!(mm.stats().pages_lost, 1);
        // Repeat access still dies but detects nothing new (exactly once).
        assert!(mm.access(Pid(1), 0, PAGE_SIZE, AccessKind::Mutator).killed);
        assert_eq!(mm.stats().corruptions_detected, 1);
        // The kill path unmaps the process; the poisoned slot is quarantined
        // and its capacity is permanently gone.
        mm.unmap_process(Pid(1));
        assert_eq!(mm.stats().slots_quarantined, 1);
        assert_eq!(mm.swap().back().quarantined_pages(), 1);
        assert_eq!(mm.swap().back().used_pages(), 0);
        mm.validate();
    }

    #[test]
    fn integrity_off_ignores_armed_corruption_plans() {
        let scenario = |mm: &mut MemoryManager| {
            mm.map_range(Pid(1), 0, 2 * PAGE_SIZE).unwrap();
            mm.map_range(Pid(1), 2 * PAGE_SIZE, PAGE_SIZE).unwrap();
            let out = mm.access(Pid(1), 0, 2 * PAGE_SIZE, AccessKind::Launch);
            assert!(!out.killed, "without checksums a silent corruption stays silent");
            out.latency
        };
        let mut plain = mm_with_frames(2, 8);
        let base_latency = scenario(&mut plain);
        let mut armed = mm_with_frames(2, 8);
        arm(&mut armed, 41, FaultConfig::silent_corruption(1.0));
        let armed_latency = scenario(&mut armed);
        assert_eq!(armed.stats().corruptions_injected, 0, "disabled layer must not draw");
        assert_eq!(base_latency, armed_latency);
        assert_eq!(format!("{:?}", plain.stats()), format!("{:?}", armed.stats()));
        armed.validate();
    }

    #[test]
    fn quarantine_saturation_retires_the_back_tier() {
        let integrity = IntegrityConfig { quarantine_threshold: 1, ..IntegrityConfig::checked() };
        let mut mm = mm_with_integrity(2, 8, integrity);
        arm(&mut mm, 33, FaultConfig { corruption_rate: 1.0, ..FaultConfig::default() });
        mm.map_range(Pid(1), 0, 2 * PAGE_SIZE).unwrap();
        mm.map_range(Pid(1), 2 * PAGE_SIZE, PAGE_SIZE).unwrap();
        assert!(mm.access(Pid(1), 0, 3 * PAGE_SIZE, AccessKind::Mutator).killed);
        mm.unmap_process(Pid(1));
        assert!(mm.degraded(), "one quarantined slot saturates a threshold of 1");
        assert_eq!(mm.stats().tiers_retired, 1);
        // Degraded mode: no further anon swap stores through any path.
        mm.map_range(Pid(2), 0, 2 * PAGE_SIZE).unwrap();
        assert_eq!(mm.proactive_swap_out(Pid(2), 8), 0);
        assert_eq!(mm.madvise(Pid(2), 0, PAGE_SIZE, Advice::ColdRuntime), 0);
        assert!(
            mm.map_range(Pid(2), 2 * PAGE_SIZE, PAGE_SIZE).is_err(),
            "no file pages and no usable swap must report an honest OOM"
        );
        mm.validate();
    }

    #[test]
    fn scrubber_detects_cold_corruption_and_defers_recovery() {
        let integrity = IntegrityConfig {
            scrub_interval_ticks: 1,
            scrub_batch_pages: 8,
            ..IntegrityConfig::checked()
        };
        let mut mm = mm_with_integrity(2, 8, integrity);
        arm(&mut mm, 57, FaultConfig { corruption_rate: 1.0, ..FaultConfig::default() });
        mm.map_range(Pid(1), 0, 2 * PAGE_SIZE).unwrap();
        mm.map_range(Pid(1), 2 * PAGE_SIZE, PAGE_SIZE).unwrap(); // one corrupt store
        let report = mm.scrub_tick().expect("due after one tick at interval 1");
        assert_eq!(report.scanned, 1);
        assert_eq!(report.detected, 1);
        assert_eq!(mm.stats().scrub_passes, 1);
        assert_eq!(mm.stats().scrub_pages_scanned, 1);
        // Recovery is deferred to the next access, with no second detection.
        assert!(mm.access(Pid(1), 0, 3 * PAGE_SIZE, AccessKind::Mutator).killed);
        assert_eq!(mm.stats().corruptions_detected, 1);
        mm.validate();
    }

    #[test]
    fn corrupt_file_read_discards_and_refaults() {
        let mut mm = mm_with_integrity(4, 8, IntegrityConfig::checked());
        arm(&mut mm, 63, FaultConfig { corruption_rate: 1.0, ..FaultConfig::default() });
        mm.map_range_kind(Pid(1), 0, 2 * PAGE_SIZE, PageKind::File).unwrap();
        mm.madvise(Pid(1), 0, 2 * PAGE_SIZE, Advice::ColdRuntime); // drop both
        let out = mm.access(Pid(1), 0, 2 * PAGE_SIZE, AccessKind::Mutator);
        // File pages never die: each corrupt read is discarded and re-read
        // at one extra file read's cost.
        assert!(!out.killed);
        assert_eq!(out.faulted_pages, 2);
        assert_eq!(mm.stats().corruptions_injected, 2);
        assert_eq!(mm.stats().corruptions_detected, 2);
        assert_eq!(mm.stats().pages_lost, 0);
        assert!(out.degraded_latency > SimDuration::ZERO);
        mm.validate();
    }

    #[test]
    fn front_retirement_falls_back_to_flash_only() {
        let integrity = IntegrityConfig { quarantine_threshold: 1, ..IntegrityConfig::checked() };
        let mut mm = MemoryManager::new(MmConfig {
            dram_bytes: 4 * PAGE_SIZE,
            swap: SwapConfig { capacity_bytes: 16 * PAGE_SIZE, ..SwapConfig::default() },
            zram: Some(SwapConfig::try_zram(8 * PAGE_SIZE, 2.0).unwrap()),
            low_watermark_frames: 0,
            high_watermark_frames: 0,
            dram_page_cost: SimDuration::from_nanos(450),
            file_read_bw: 300.0e6,
            swappiness: 50,
            integrity,
        });
        arm(&mut mm, 61, FaultConfig { corruption_rate: 1.0, ..FaultConfig::default() });
        mm.map_range(Pid(1), 0, 4 * PAGE_SIZE).unwrap();
        mm.access(Pid(1), 0, 4 * PAGE_SIZE, AccessKind::Mutator); // all warm
                                                                  // One new page needs a whole frame; each zram store only nets half
                                                                  // a frame back (2:1 compression), so two warm pages are evicted —
                                                                  // both stored corrupt.
        mm.map_range(Pid(2), 0, PAGE_SIZE).unwrap();
        assert_eq!(mm.swap().front().unwrap().used_pages(), 2);
        assert!(mm.access(Pid(1), 0, 4 * PAGE_SIZE, AccessKind::Mutator).killed);
        mm.unmap_process(Pid(1));
        assert!(mm.swap().front_retired(), "one zram quarantine saturates a threshold of 1");
        assert_eq!(mm.stats().tiers_retired, 1, "retirement happens exactly once");
        assert!(!mm.degraded(), "the back tier still serves");
        assert_eq!(mm.swap().front().unwrap().quarantined_pages(), 2);
        // New warm victims bypass the retired front and land on flash.
        mm.unmap_process(Pid(2));
        mm.map_range(Pid(3), 0, 4 * PAGE_SIZE).unwrap();
        mm.access(Pid(3), 0, 4 * PAGE_SIZE, AccessKind::Mutator); // warm
        mm.map_range(Pid(3), 4 * PAGE_SIZE, PAGE_SIZE).unwrap(); // forces one eviction
        assert_eq!(mm.swap().front().unwrap().used_pages(), 0, "retired front takes no stores");
        assert_eq!(mm.swap().back().used_pages(), 1, "warm victims fall back to flash");
        mm.validate();
    }

    #[test]
    fn torn_writeback_quarantines_the_flash_slot() {
        let mut mm = MemoryManager::new(MmConfig {
            dram_bytes: 8 * PAGE_SIZE,
            swap: SwapConfig { capacity_bytes: 16 * PAGE_SIZE, ..SwapConfig::default() },
            zram: Some(SwapConfig::try_zram(8 * PAGE_SIZE, 4.0).unwrap()),
            low_watermark_frames: 0,
            high_watermark_frames: 0,
            dram_page_cost: SimDuration::from_nanos(450),
            file_read_bw: 300.0e6,
            swappiness: 50,
            integrity: IntegrityConfig::checked(),
        });
        arm(&mut mm, 67, FaultConfig { torn_writeback_rate: 1.0, ..FaultConfig::default() });
        // Grow the zram front to its writeback high watermark (7 of 8):
        // keep every page warm so each eviction lands in zram.
        mm.map_range(Pid(1), 0, 8 * PAGE_SIZE).unwrap();
        mm.access(Pid(1), 0, 8 * PAGE_SIZE, AccessKind::Mutator);
        let mut next = 8u64;
        while mm.swap().front().unwrap().used_pages() < 7 {
            assert!(next < 64, "front tier never reached its high watermark");
            mm.map_range(Pid(1), next * PAGE_SIZE, PAGE_SIZE).unwrap();
            mm.access(Pid(1), next * PAGE_SIZE, PAGE_SIZE, AccessKind::Mutator);
            next += 1;
        }
        let moved = mm.zram_writeback();
        // Verify-before-retire: the torn flash copy never retires the zram
        // original — the new slot is quarantined, the page stays put.
        assert_eq!(moved, 0);
        assert_eq!(mm.stats().corruptions_injected, 1);
        assert_eq!(mm.stats().corruptions_detected, 1);
        assert_eq!(mm.stats().slots_quarantined, 1);
        assert_eq!(mm.swap().back().quarantined_pages(), 1);
        assert_eq!(mm.swap().back().used_pages(), 0);
        assert_eq!(mm.swap().front().unwrap().used_pages(), 7);
        assert_eq!(mm.stats().zram_writeback_pages, 0);
        mm.validate();
    }
}
