//! Per-process state: heap + behaviour + scheme bookkeeping + statistics.

use fleet_apps::AppBehavior;
use fleet_gc::{GcStats, GroupingOutcome, MarvinGc};
use fleet_heap::Heap;
use fleet_kernel::Pid;
use fleet_metrics::CpuAccounting;
use fleet_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Fore/background state of an app.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppState {
    /// The one interactive app.
    Foreground,
    /// Cached, awaiting a hot-launch.
    Background,
}

/// Whether a launch was served from the cache or from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LaunchKind {
    /// The app was cached: background → foreground switch.
    Hot,
    /// The app had to be (re)created: new process + full init.
    Cold,
}

impl std::fmt::Display for LaunchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchKind::Hot => write!(f, "hot"),
            LaunchKind::Cold => write!(f, "cold"),
        }
    }
}

/// One measured launch (the paper's launch-to-first-frame time).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaunchReport {
    /// Hot or cold.
    pub kind: LaunchKind,
    /// When the launch started.
    pub at: SimTime,
    /// Total time to first frame.
    pub total: SimDuration,
    /// Portion spent stalled on page faults.
    pub fault_stall: SimDuration,
    /// Portion of the fault stall spent decompressing zram slots (a subset
    /// of `fault_stall`; zero on flash-only devices).
    pub decompress: SimDuration,
    /// Pages faulted in from swap on the critical path.
    pub faulted_pages: u64,
    /// Stop-the-world pause of a launch-time GC, if one triggered.
    pub gc_stw: SimDuration,
}

/// A timestamped GC record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GcRecord {
    /// When the collection started.
    pub at: SimTime,
    /// What it did.
    pub stats: GcStats,
}

/// Fleet's per-process state machine (§5.1 workflow).
#[derive(Debug, Clone, Default)]
pub struct FleetProcState {
    /// When the RGS grouping GC is due (now + Ts after backgrounding).
    pub grouping_due: Option<SimTime>,
    /// The grouping result, once the grouping GC has run.
    pub grouped: Option<GroupingOutcome>,
    /// Next `madvise(HOT_RUNTIME)` refresh of the launch pages.
    pub hot_refresh_due: Option<SimTime>,
    /// How many grouping GCs have run over this process's lifetime (drives
    /// the incremental-regroup heuristic; survives foreground stops).
    pub groupings_done: u64,
}

impl FleetProcState {
    /// Resets the workflow (app returned to the foreground: "Fleet stops,
    /// and the foreground app executes the same as a default Android app").
    pub fn stop(&mut self) {
        self.grouping_due = None;
        self.grouped = None;
        self.hot_refresh_due = None;
    }
}

/// A live process on the device.
#[derive(Debug)]
pub struct Process {
    /// Kernel process id.
    pub pid: Pid,
    /// App display name.
    pub name: String,
    /// The Java heap.
    pub heap: Heap,
    /// The workload engine.
    pub behavior: AppBehavior,
    /// Fore/background state.
    pub state: AppState,
    /// Last time the app was (or became) foreground; LMK's coldness key.
    pub last_foreground: SimTime,
    /// Base address of the native anonymous mapping.
    pub native_base: u64,
    /// Length of the native anonymous mapping in bytes.
    pub native_len: u64,
    /// Base address of the file-backed mapping.
    pub file_base: u64,
    /// Length of the file-backed mapping in bytes.
    pub file_len: u64,
    /// Measured launches.
    pub launches: Vec<LaunchReport>,
    /// GC history.
    pub gcs: Vec<GcRecord>,
    /// CPU time by thread class.
    pub cpu: CpuAccounting,
    /// Marvin's persistent bookmarking collector (Marvin scheme only).
    pub marvin: Option<MarvinGc>,
    /// Next Marvin object-swap pass (Marvin scheme only).
    pub marvin_swap_due: Option<SimTime>,
    /// Fleet workflow state (Fleet scheme only).
    pub fleet: FleetProcState,
    /// Next background maintenance GC.
    pub next_bg_gc: Option<SimTime>,
    /// `(base, len)` byte ranges the last hot-launch touched — the history
    /// driving ASAP-style prepaging when `prefetch_on_launch` is set.
    pub last_launch_faults: Vec<(u64, u64)>,
}
