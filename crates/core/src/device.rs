//! The simulated device: processes, scheme logic, launches, LMK.
//!
//! `Device` is the top of the stack — it owns the kernel memory manager and
//! every process (heap + behaviour), advances virtual time in one-second
//! slices, and implements the three schemes' policies:
//!
//! * **Android** — full-heap concurrent-copying GC everywhere; the kernel's
//!   LRU swap does whatever it wants (§2.2, Table 1),
//! * **Marvin** — bookmarking GC; Java-heap pages are excluded from kernel
//!   LRU eviction and reclaimed only through Marvin's object-granularity
//!   swap of ≥ 1 KiB objects onto *pure* pages (§3.1, §6),
//! * **Fleet** — the §5.1 workflow: Ts after backgrounding run the RGS
//!   grouping GC, `madvise(COLD_RUNTIME)` the cold ranges, periodically
//!   `madvise(HOT_RUNTIME)` the launch ranges, and run BGC instead of full
//!   GCs while cached; Tf after foregrounding, stop.
//!
//! Hot-launches are measured exactly as the paper defines them: time to
//! first frame = render cost + page-fault stalls on the launch working set
//! + the pause/stall of a launch-triggered GC.

use crate::config::DeviceConfig;
use crate::error::FleetError;
use crate::params::SchemeKind;
use crate::process::{AppState, FleetProcState, GcRecord, LaunchKind, LaunchReport, Process};
use fleet_apps::{AppBehavior, AppProfile};
use fleet_gc::{
    swappable_pages, BackgroundObjectGc, Collector, FullCopyingGc, GcCostModel, GcKind, GcStats,
    GroupingGc, MarvinGc, MemoryTouch, MinorGc,
};
use fleet_heap::{AllocContext, Heap, HeapConfig, HeapEvent, ObjectId, RegionKind, PAGE_SIZE};
use fleet_kernel::{
    AccessKind, AccessOutcome, Advice, FaultPlan, LmkCandidate, MemoryManager, PageKind, Pid,
    ReclaimDriver,
};
use fleet_metrics::ThreadClass;
use fleet_sim::{Clock, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Runs an `audit` or `obs` instrumentation hook; each kind compiles to
/// nothing without its feature, so event construction is free.
macro_rules! probe {
    (audit, $hook:expr) => {{
        #[cfg(feature = "audit")]
        $hook;
    }};
    (obs, $hook:expr) => {{
        #[cfg(feature = "obs")]
        $hook;
    }};
}

#[cfg(any(feature = "audit", feature = "obs"))]
use crate::probe::Attached;
#[cfg(feature = "audit")]
use fleet_audit::AuditEvent;

/// Native anonymous mappings live far above any Java-heap address.
const NATIVE_BASE: u64 = 1 << 40;
/// File-backed mappings live in their own window above the native ones.
const FILE_BASE: u64 = 1 << 41;
/// Foreground page-cache churn lives in this window under a pseudo-pid.
const SCRATCH_BASE: u64 = 1 << 42;
/// Pseudo-process owning the global page cache (never killed/LMK'd).
const PAGECACHE_PID: Pid = Pid(u32::MAX);
/// The page cache keeps at most this many bytes of recent file pages
/// mapped; older cache pages are dropped as the window slides.
const PAGECACHE_WINDOW: u64 = 64 * 1024 * 1024;

/// Who generated a traced access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceSource {
    /// App threads.
    Mutator,
    /// The GC thread.
    Gc,
    /// The hot-launch critical path.
    Launch,
}

/// One sampled object access (Figure 4 / Figure 12b raw data).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSample {
    /// Seconds since the start of the run.
    pub secs: f64,
    /// Allocation-order object id.
    pub object: u64,
    /// Access source.
    pub source: TraceSource,
}

/// Object-access trace for one process (sampled 1-in-`every`).
#[derive(Debug, Clone)]
pub struct DeviceTrace {
    target: Pid,
    every: u64,
    counter: u64,
    samples: Vec<TraceSample>,
}

impl DeviceTrace {
    /// The collected samples.
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }
}

/// A record of an LMK kill.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KillRecord {
    /// When the kill happened.
    pub at: SimTime,
    /// Which process died.
    pub pid: Pid,
    /// Its app name.
    pub name: String,
}

/// The simulated phone.
pub struct Device {
    config: DeviceConfig,
    clock: Clock,
    mm: MemoryManager,
    procs: BTreeMap<Pid, Process>,
    foreground: Option<Pid>,
    next_pid: u32,
    rng: SimRng,
    kills: Vec<KillRecord>,
    /// The reclaim daemon: owns the per-slice tick (kswapd scan, zram
    /// writeback, proactive swap-out under Swam) and executes kills against
    /// the kernel under the configured kill policy.
    reclaim: ReclaimDriver,
    oom_touch_skips: u64,
    /// Processes killed because an anonymous page was lost to a permanent
    /// swap I/O error (the SIGBUS analog); fault injection only.
    sigbus_kills: u64,
    /// Mappings abandoned because memory was exhausted with nothing left to
    /// kill (the un-mapped remainder simply never becomes resident).
    map_failures: u64,
    /// Collections that ran out of copy budget mid-evacuation and degraded
    /// to an in-place sweep ([`fleet_gc::MemoryTouch::copy_budget`]);
    /// fault injection only.
    evac_aborts: u64,
    trace: Option<DeviceTrace>,
    gc_cost: GcCostModel,
    /// PSI-style IO-pressure tracker: EWMA of the fraction of wall time
    /// threads spend stalled on swap faults. Sustained thrash kills cached
    /// apps — §3.2's "high memory pressure, which may induce terminations".
    psi_ewma: f64,
    psi_last_stall_nanos: u64,
    /// Sliding page-cache window: next offset and trailing edge.
    scratch_head: u64,
    scratch_tail: u64,
    /// Per-app launch-page history for ASAP-style prepaging. Keyed by app
    /// name and persisted across LMK kills, like ASAP's on-disk profiles.
    launch_history: BTreeMap<String, Vec<(u64, u64)>>,
    /// Flight-recorder hookup, present when an audit pipeline was
    /// installed via [`crate::probe::install`] at construction time.
    #[cfg(feature = "audit")]
    audit: Option<Attached<fleet_audit::AuditPipeline>>,
    /// Tracing hookup, present when an obs pipeline was installed at
    /// construction time.
    #[cfg(feature = "obs")]
    obs: Option<Attached<fleet_obs::ObsPipeline>>,
}

struct KernelTouch<'a> {
    mm: &'a mut MemoryManager,
    pid: Pid,
    oom: &'a mut u64,
    /// Fast path: consecutive touches within one already-resident page skip
    /// the kernel call (real hardware pays a TLB hit, not a page walk).
    last_resident_page: Option<u64>,
    /// Set when an anonymous page of this process was lost to a permanent
    /// swap error mid-trace: the process must be SIGBUS-killed by the
    /// device once the collector unwinds.
    fatal: bool,
}

impl<'a> KernelTouch<'a> {
    fn new(mm: &'a mut MemoryManager, pid: Pid, oom: &'a mut u64) -> Self {
        KernelTouch { mm, pid, oom, last_resident_page: None, fatal: false }
    }
}

impl MemoryTouch for KernelTouch<'_> {
    fn touch(&mut self, addr: u64, size: u32) -> SimDuration {
        let size = size.max(1) as u64;
        let first_page = addr / PAGE_SIZE;
        let last_page = (addr + size - 1) / PAGE_SIZE;
        if first_page == last_page && self.last_resident_page == Some(first_page) {
            return SimDuration::ZERO;
        }
        let outcome = self.mm.access(self.pid, addr, size, AccessKind::Gc);
        if outcome.killed {
            self.fatal = true;
        }
        if outcome.oom {
            // Frames and swap both exhausted mid-trace: the untouched pages
            // stay where they are; the device-level LMK will make room soon.
            *self.oom += 1;
            self.last_resident_page = None;
        } else {
            self.last_resident_page = Some(last_page);
        }
        outcome.latency
    }

    fn copy_budget(&mut self, _bytes: u64) -> bool {
        // Under an armed fault plan, a collector running at the free-memory
        // floor aborts evacuation instead of deepening the shortage; quiet
        // plans always grant so golden traces are untouched (DESIGN.md §9).
        !self.mm.fault_active() || self.mm.free_frames() > self.mm.config().low_watermark_frames
    }
}

impl Device {
    /// Creates a device.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`DeviceConfig::validate`]; see
    /// [`Device::try_new`] for the fallible form.
    pub fn new(config: DeviceConfig) -> Self {
        Self::try_new(config).expect("invalid device configuration")
    }

    /// Creates a device, or reports why the configuration is invalid.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] if `config` fails
    /// [`DeviceConfig::validate`].
    pub fn try_new(config: DeviceConfig) -> Result<Self, FleetError> {
        config.validate().map_err(FleetError::InvalidConfig)?;
        let scale = config.scale as u64;
        let gc_cost = GcCostModel {
            per_object_trace: SimDuration::from_nanos(150 * scale),
            copy_bytes_per_sec: 4.0e9 / scale as f64,
            per_card_scan: SimDuration::from_nanos(200 * scale),
            stw_base: SimDuration::from_micros(800),
            marvin_per_stub_stw: SimDuration::from_nanos(6000 * scale),
        };
        #[allow(unused_mut)]
        let mut device = Device {
            mm: MemoryManager::new(config.mm_config()),
            clock: Clock::new(),
            procs: BTreeMap::new(),
            foreground: None,
            next_pid: 1,
            rng: SimRng::seed_from(config.seed),
            kills: Vec::new(),
            reclaim: ReclaimDriver::new(config.reclaim_policy, config.kill_policy),
            oom_touch_skips: 0,
            sigbus_kills: 0,
            map_failures: 0,
            evac_aborts: 0,
            trace: None,
            gc_cost,
            psi_ewma: 0.0,
            psi_last_stall_nanos: 0,
            scratch_head: 0,
            scratch_tail: 0,
            launch_history: BTreeMap::new(),
            config,
            #[cfg(feature = "audit")]
            audit: None,
            #[cfg(feature = "obs")]
            obs: None,
        };
        if !device.config.fault.is_quiet() {
            let plan = FaultPlan::new(device.config.seed, device.config.fault);
            device.mm.install_fault_plan(plan);
        }
        // Swam enables the kernel's observe-only working-set tracker;
        // Reactive leaves the kernel untouched (bit-identical streams).
        device.reclaim.attach(&mut device.mm);
        probe!(audit, device.attach_audit());
        probe!(obs, device.attach_obs());
        Ok(device)
    }

    /// Hooks this device up to the thread's installed audit pipeline (if
    /// any): registers a device ordinal, enables the kernel's event log, and
    /// announces capacities. Per-process heap logs are enabled at spawn.
    #[cfg(feature = "audit")]
    fn attach_audit(&mut self) {
        self.audit = Attached::current();
        if self.audit.is_some() {
            self.mm.probes_mut().audit.enable(0);
            let frames = self.mm.frames_capacity();
            let swap_pages = self.mm.swap().capacity_pages();
            self.audit_emit([AuditEvent::DeviceAttached { frames, swap_pages }]);
        }
    }

    /// The audit barrier: drains every component's buffered events into the
    /// pipeline — heap logs in pid order first, then the kernel's — and feeds
    /// the device-level `events` after them. Each component's stream stays
    /// internally ordered, and no auditor invariant spans a heap log and the
    /// kernel log.
    #[cfg(feature = "audit")]
    fn audit_emit(&mut self, events: impl IntoIterator<Item = AuditEvent>) {
        let Some(audit) = &self.audit else { return };
        let mut pipeline = audit.lock();
        for proc in self.procs.values_mut() {
            for event in proc.heap.probes_mut().audit.drain() {
                pipeline.feed(audit.ordinal, event);
            }
        }
        for event in self.mm.probes_mut().audit.drain().into_iter().chain(events) {
            pipeline.feed(audit.ordinal, event);
        }
    }

    /// Announces a newly spawned process and synthesizes a snapshot of its
    /// initial heap (built before its event log was enabled): regions,
    /// objects, reference edges and roots, in allocation order.
    #[cfg(feature = "audit")]
    fn audit_spawn(&mut self, pid: Pid) {
        if self.audit.is_none() {
            return;
        }
        let proc = self.procs.get(&pid).expect("alive");
        let (p, heap) = (pid.0, &proc.heap);
        let mut events = vec![AuditEvent::ProcessSpawn { pid: p, name: proc.name.clone() }];
        events.extend(heap.regions().map(|region| AuditEvent::RegionMapped {
            pid: p,
            region: region.id().0,
            base: region.base(),
            len: region.size() as u64,
            kind: region.kind().to_string(),
        }));
        events.extend(heap.object_ids().map(|obj| {
            let o = heap.object(obj);
            AuditEvent::ObjectAlloc {
                pid: p,
                object: obj.0 as u64,
                region: o.region().0,
                size: o.size() as u64,
            }
        }));
        for obj in heap.object_ids() {
            events.extend(heap.object(obj).refs().iter().map(|to| AuditEvent::RefAdded {
                pid: p,
                from: obj.0 as u64,
                to: to.0 as u64,
            }));
        }
        events.extend(
            heap.roots().iter().map(|root| AuditEvent::RootAdded { pid: p, object: root.0 as u64 }),
        );
        self.audit_emit(events);
        // From here on the heap reports its own transitions.
        self.procs.get_mut(&pid).expect("alive").heap.probes_mut().audit.enable(p);
    }

    /// Hooks this device up to the thread's installed observability
    /// pipeline (if any): registers a device ordinal, names the kernel
    /// track, and enables the kernel's span log. Per-process heap logs are
    /// enabled at spawn.
    #[cfg(feature = "obs")]
    fn attach_obs(&mut self) {
        self.obs = Attached::current();
        let Some(obs) = &self.obs else { return };
        self.mm.probes_mut().obs.enable(0);
        obs.lock().set_track_name(obs.ordinal, 0, "kernel (mm)".to_string());
    }

    /// Names the process's trace track and enables its heap span log so GC
    /// phase spans are recorded from the first collection on.
    #[cfg(feature = "obs")]
    fn obs_spawn(&mut self, pid: Pid) {
        let Some(obs) = &self.obs else { return };
        let proc = self.procs.get_mut(&pid).expect("alive");
        proc.heap.probes_mut().obs.enable(pid.0);
        obs.lock().set_track_name(obs.ordinal, pid.0, format!("{} (pid {})", proc.name, pid.0));
    }

    /// The obs barrier: drains the heap logs (pid order) and the kernel's
    /// into the tracer, anchored at the current virtual time. Between
    /// collections a heap log holds only slow-path `alloc` instants: GC
    /// phase spans are drained by [`Device::obs_gc_span`] right after their
    /// collection, so they nest under its root span.
    #[cfg(feature = "obs")]
    fn obs_flush(&mut self) {
        let Some(obs) = &self.obs else { return };
        let mut records = Vec::new();
        for proc in self.procs.values_mut() {
            records.append(&mut proc.heap.probes_mut().obs.drain());
        }
        records.append(&mut self.mm.probes_mut().obs.drain());
        if !records.is_empty() {
            obs.lock().feed_batch(obs.ordinal, self.clock.now().as_nanos(), records);
        }
    }

    /// Drains a dying process's heap log before its record is removed, so
    /// its last `alloc` instants are not lost with it.
    #[cfg(feature = "obs")]
    fn obs_reap(&mut self, pid: Pid) {
        let Some(obs) = &self.obs else { return };
        let Some(proc) = self.procs.get_mut(&pid) else { return };
        let records = proc.heap.probes_mut().obs.drain();
        if !records.is_empty() {
            obs.lock().feed_batch(obs.ordinal, self.clock.now().as_nanos(), records);
        }
    }

    /// Emits one collection's span family onto the app's track: a depth-0
    /// root span named after the collector, with the phase spans the
    /// collector pushed into the heap's obs log (`gc_mark` / `gc_copy` /
    /// `gc_evac_abort`) nested beneath it, plus the GC latency metrics.
    #[cfg(feature = "obs")]
    fn obs_gc_span(&mut self, pid: Pid, stats: &GcStats) {
        let Some(obs) = &self.obs else { return };
        let drained = match self.procs.get_mut(&pid) {
            Some(proc) => proc.heap.probes_mut().obs.drain(),
            None => Vec::new(),
        };
        // Slow-path `alloc` spans ("heap" cat, depth 0) ride in the same
        // buffer as the GC phase spans but are roots of their own: feed them
        // as a separate batch first, so the collection root inserted below
        // adopts only the phase spans as children.
        let (alloc_spans, mut records): (Vec<_>, Vec<_>) = drained
            .into_iter()
            .partition(|r| matches!(r, fleet_obs::ObsRecord::Span(s) if s.cat == "heap"));
        let name = match stats.kind {
            GcKind::Full => "gc_full",
            GcKind::Minor => "gc_minor",
            GcKind::Marvin => "gc_marvin",
            GcKind::Bgc => "gc_bgc",
            GcKind::Grouping => "gc_grouping",
        };
        let root = fleet_obs::ObsRecord::root(
            pid.0,
            name,
            "gc",
            stats.duration().as_nanos(),
            vec![
                ("stw_ns", stats.stw.as_nanos()),
                ("objects_traced", stats.objects_traced),
                ("bytes_freed", stats.bytes_freed),
                ("evac_aborted", u64::from(stats.evac_aborted)),
            ],
        );
        records.insert(0, root);
        let anchor = self.clock.now().as_nanos();
        let mut pipeline = obs.lock();
        if !alloc_spans.is_empty() {
            pipeline.feed_batch(obs.ordinal, anchor, alloc_spans);
        }
        pipeline.feed_batch(obs.ordinal, anchor, records);
        pipeline.latency("gc.stw_ns", stats.stw.as_nanos());
        pipeline.latency("gc.duration_ns", stats.duration().as_nanos());
        pipeline.counter_add("gc.collections", 1);
    }

    /// Emits the hot-launch span family: a root `launch` span of the full
    /// time-to-first-frame with `cpu` / `fault_in` / `gc_pause` children
    /// laid end to end — their durations sum *exactly* to the root's, which
    /// is what the `launch_attribution` experiment decomposes. On hybrid
    /// swap stacks the `fault_in` child additionally nests a `decompress`
    /// span covering the portion of the stall spent inflating zram slots;
    /// flash-only devices emit no such span, keeping their traces
    /// unchanged.
    #[cfg(feature = "obs")]
    fn obs_launch_span(
        &mut self,
        pid: Pid,
        report: &LaunchReport,
        cpu: SimDuration,
        fault_in: SimDuration,
        gc_pause: SimDuration,
    ) {
        let Some(obs) = &self.obs else { return };
        let total = report.total.as_nanos();
        let faulted = report.faulted_pages;
        let root_name = match report.kind {
            LaunchKind::Cold => "launch_cold",
            LaunchKind::Hot => "launch_hot",
        };
        let span =
            |name: &'static str, depth: u8, rel_start: u64, dur: u64, args: fleet_obs::SpanArgs| {
                fleet_obs::ObsRecord::Span(fleet_obs::SpanRec {
                    pid: pid.0,
                    name,
                    cat: "launch",
                    depth,
                    rel_start,
                    dur,
                    args,
                })
            };
        let mut records = vec![span(root_name, 0, 0, total, vec![("faulted_pages", faulted)])];
        let decompress = report.decompress;
        if total > 0 {
            records.push(span("cpu", 1, 0, cpu.as_nanos(), Vec::new()));
            records.push(span("fault_in", 1, cpu.as_nanos(), fault_in.as_nanos(), Vec::new()));
            if decompress > SimDuration::ZERO {
                // The decompression stall sits at the front of the fault
                // window: zram reads are served before the flash batch.
                records.push(span(
                    "decompress",
                    2,
                    cpu.as_nanos(),
                    decompress.as_nanos(),
                    Vec::new(),
                ));
            }
            records.push(span(
                "gc_pause",
                1,
                cpu.as_nanos() + fault_in.as_nanos(),
                gc_pause.as_nanos(),
                Vec::new(),
            ));
        }
        let mut pipeline = obs.lock();
        pipeline.feed_batch(obs.ordinal, self.clock.now().as_nanos(), records);
        pipeline.latency("launch.total_ns", total);
        pipeline.latency("launch.fault_in_ns", fault_in.as_nanos());
        pipeline.latency("launch.gc_ns", gc_pause.as_nanos());
        if decompress > SimDuration::ZERO {
            pipeline.latency("launch.decompress_ns", decompress.as_nanos());
        }
        pipeline.counter_add("launch.hot", 1);
    }

    /// Once per one-second slice: drains the component span logs and samples
    /// the degradation and occupancy counters onto the metric timeline, so
    /// `KernelStats` becomes a set of time series in `metrics.json`.
    #[cfg(feature = "obs")]
    fn obs_slice_sample(&mut self) {
        if self.obs.is_none() {
            return;
        }
        self.obs_flush();
        let now = self.clock.now().as_nanos();
        let faults = self.mm.stats().faults;
        let retries = self.mm.stats().fault_retries;
        let read_errors = self.mm.stats().swap_read_errors;
        let lost = self.mm.stats().pages_lost;
        let used = self.mm.used_frames();
        let swap_used = self.mm.swap().used_pages();
        let psi_micro = (self.psi_ewma * 1e6) as u64;
        let obs = self.obs.as_ref().expect("checked above");
        let mut pipeline = obs.lock();
        pipeline.sample("kernel.faults", now, faults);
        pipeline.sample("kernel.fault_retries", now, retries);
        pipeline.sample("kernel.swap_read_errors", now, read_errors);
        pipeline.sample("kernel.pages_lost", now, lost);
        pipeline.sample("mem.used_frames", now, used);
        pipeline.sample("swap.used_pages", now, swap_used);
        pipeline.sample("device.psi_micro", now, psi_micro);
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The kernel memory manager (for inspection).
    pub fn mm(&self) -> &MemoryManager {
        &self.mm
    }

    /// A live process.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not alive; see [`Device::try_process`] for the
    /// fallible form.
    pub fn process(&self, pid: Pid) -> &Process {
        self.try_process(pid).expect("process not alive")
    }

    /// A live process, or [`FleetError::ProcessNotAlive`].
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::ProcessNotAlive`] if `pid` has been killed or
    /// never existed.
    pub fn try_process(&self, pid: Pid) -> Result<&Process, FleetError> {
        self.procs.get(&pid).ok_or(FleetError::ProcessNotAlive(pid))
    }

    /// Pids of all live processes in creation order.
    pub fn alive(&self) -> Vec<Pid> {
        self.procs.keys().copied().collect()
    }

    /// Iterates over all live processes in pid order.
    pub fn processes(&self) -> impl Iterator<Item = &Process> {
        self.procs.values()
    }

    /// Number of live (cached + foreground) apps.
    pub fn cached_apps(&self) -> usize {
        self.procs.len()
    }

    /// The foreground pid, if an app is up.
    pub fn foreground(&self) -> Option<Pid> {
        self.foreground
    }

    /// LMK kills so far.
    pub fn kills(&self) -> &[KillRecord] {
        &self.kills
    }

    /// GC touches that could not be served because memory was exhausted.
    pub fn oom_touch_skips(&self) -> u64 {
        self.oom_touch_skips
    }

    /// Processes killed by an unrecoverable swap data loss (SIGBUS analog).
    /// Always zero under a quiet fault plan.
    pub fn sigbus_kills(&self) -> u64 {
        self.sigbus_kills
    }

    /// Mappings abandoned because memory was exhausted with no killable
    /// process left; the affected range simply never becomes resident.
    pub fn map_failures(&self) -> u64 {
        self.map_failures
    }

    /// Collections that ran out of copy budget mid-evacuation and degraded
    /// to an in-place sweep. Always zero under a quiet fault plan.
    pub fn evac_aborts(&self) -> u64 {
        self.evac_aborts
    }

    /// The reclaim driver (kill counters, escalation stats, proactive
    /// reclaim totals).
    pub fn reclaim(&self) -> &ReclaimDriver {
        &self.reclaim
    }

    /// Enables 1-in-`every` object-access tracing for `pid`.
    pub fn enable_trace(&mut self, pid: Pid, every: u64) {
        self.trace =
            Some(DeviceTrace { target: pid, every: every.max(1), counter: 0, samples: Vec::new() });
    }

    /// Stops tracing and returns the trace.
    pub fn take_trace(&mut self) -> Option<DeviceTrace> {
        self.trace.take()
    }

    fn heap_config(&self) -> HeapConfig {
        HeapConfig {
            region_size: self.config.fleet.region_size,
            card_shift: self.config.fleet.card_shift,
            initial_limit: 2 * 1024 * 1024,
            growth_factor_foreground: self.config.heap_growth_foreground,
            growth_factor_background: self.config.heap_growth_background,
        }
    }

    fn scaled_profile(&self, profile: &AppProfile) -> AppProfile {
        let mut p = profile.clone();
        p.fg_alloc_mib_per_sec /= self.config.scale as f64;
        p.bg_alloc_mib_per_sec /= self.config.scale as f64;
        p
    }

    // ------------------------------------------------------------- launching

    /// Cold-launches a new instance of `profile`, making it foreground.
    pub fn launch_cold(&mut self, profile: &AppProfile) -> (Pid, LaunchReport) {
        self.background_current();
        let pid = Pid(self.next_pid);
        self.next_pid += 1;

        let mut heap = Heap::new(self.heap_config());
        let scaled = self.scaled_profile(profile);
        let mut behavior = AppBehavior::new(scaled, self.rng.fork());
        behavior.build_initial_graph(&mut heap, profile.java_heap_bytes_scaled(self.config.scale));
        // The initial graph stands for a long-used foreground app: many GCs
        // have already run over it, so its regions are not "newly allocated"
        // and the heap limit sits at live × growth-factor.
        heap.retire_alloc_targets();
        heap.clear_newly_allocated_flags();
        heap.update_limit_after_gc();

        let native_len = profile.native_anon_bytes_scaled(self.config.scale);
        let file_len = profile.file_bytes_scaled(self.config.scale);
        let proc = Process {
            pid,
            name: profile.name.clone(),
            heap,
            behavior,
            state: AppState::Foreground,
            last_foreground: self.now(),
            native_base: NATIVE_BASE,
            native_len,
            file_base: FILE_BASE,
            file_len,
            launches: Vec::new(),
            gcs: Vec::new(),
            cpu: fleet_metrics::CpuAccounting::new(),
            marvin: if self.config.scheme == SchemeKind::Marvin {
                Some(MarvinGc::new(self.gc_cost, self.config.marvin_threshold))
            } else {
                None
            },
            marvin_swap_due: None,
            fleet: FleetProcState::default(),
            next_bg_gc: None,
            last_launch_faults: Vec::new(),
        };
        self.procs.insert(pid, proc);
        probe!(audit, self.audit_spawn(pid));
        probe!(obs, self.obs_spawn(pid));
        self.sync_heap(pid);
        self.map_with_retry(pid, NATIVE_BASE, native_len, PageKind::Anon);
        self.map_with_retry(pid, FILE_BASE, file_len, PageKind::File);
        self.foreground = Some(pid);
        probe!(audit, self.audit_emit([AuditEvent::AppState { pid: pid.0, foreground: true }]));

        let jitter = self.rng.normal(1.0, 0.05).clamp(0.8, 1.3);
        let total = SimDuration::from_millis_f64(profile.cold_launch_ms * jitter);
        let report = LaunchReport {
            kind: LaunchKind::Cold,
            at: self.now(),
            total,
            fault_stall: SimDuration::ZERO,
            decompress: SimDuration::ZERO,
            faulted_pages: 0,
            gc_stw: SimDuration::ZERO,
        };
        let proc = self.procs.get_mut(&pid).expect("just inserted");
        proc.cpu.charge(ThreadClass::Mutator, total);
        proc.launches.push(report);
        probe!(
            obs,
            self.obs_launch_span(pid, &report, total, SimDuration::ZERO, SimDuration::ZERO)
        );
        self.clock.advance(total);
        (pid, report)
    }

    /// Hot-launches a cached app: background → foreground switch, measured
    /// as time-to-first-frame.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a live cached process, or if an armed fault
    /// plan SIGBUS-kills the app mid-launch; under fault injection use
    /// [`Device::try_switch_to`] and treat the error as a failed launch.
    pub fn switch_to(&mut self, pid: Pid) -> LaunchReport {
        self.try_switch_to(pid).expect("switch_to a dead process")
    }

    /// Hot-launches a cached app, or reports that it is not alive.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::ProcessNotAlive`] if `pid` has been killed or
    /// never existed — or if the launch itself touched an anonymous page
    /// lost to a permanent swap error, SIGBUS-killing the app mid-launch.
    pub fn try_switch_to(&mut self, pid: Pid) -> Result<LaunchReport, FleetError> {
        if !self.procs.contains_key(&pid) {
            return Err(FleetError::ProcessNotAlive(pid));
        }
        if self.foreground == Some(pid) {
            // Already foreground: instantaneous.
            return Ok(LaunchReport {
                kind: LaunchKind::Hot,
                at: self.now(),
                total: SimDuration::ZERO,
                fault_stall: SimDuration::ZERO,
                decompress: SimDuration::ZERO,
                faulted_pages: 0,
                gc_stw: SimDuration::ZERO,
            });
        }
        self.background_current();
        probe!(audit, self.audit_emit([AuditEvent::LaunchStart { pid: pid.0 }]));
        // Place any spans buffered before the launch at their pre-launch
        // anchor, so the fault spans generated *during* the launch land
        // inside the launch window on the kernel track.
        probe!(obs, self.obs_flush());

        // --- sample the launch working set from ground truth.
        let access = {
            let proc = self.procs.get_mut(&pid).expect("checked above");
            proc.behavior.launch_access(&proc.heap)
        };

        // --- touch the launch pages (this is where swapped-out state hurts).
        let pages = self.object_pages(pid, &access.objects);
        // ASAP-style adaptive prepaging: pull in whatever the *previous*
        // hot-launch faulted, in one batched read overlapped with the render
        // work. Mispredictions (pages the launch no longer needs) still cost
        // bandwidth; unpredicted pages still fault on demand below.
        let mut prefetch_overlap = SimDuration::ZERO;
        if self.config.prefetch_on_launch {
            let name = self.procs.get(&pid).expect("alive").name.clone();
            let history = self.launch_history.get(&name).cloned().unwrap_or_default();
            let (_, latency) = self.mm.prefetch_many(pid, &history);
            prefetch_overlap = latency;
        }
        let Some(mut outcome) = self.touch_pages(pid, &pages, AccessKind::Launch) else {
            // The launch touched an anon page lost to a permanent swap
            // error; the app was SIGBUS-killed and the launch failed.
            return Err(FleetError::ProcessNotAlive(pid));
        };
        // Native working set: a slice of the anonymous mapping (slow when
        // swapped) and a larger slice of the file mapping (fast readahead).
        let (native_base, native_touch, file_base, file_touch) = {
            let proc = self.procs.get(&pid).expect("alive");
            let launch = proc.behavior.profile().launch;
            (
                proc.native_base,
                (proc.native_len as f64 * launch.native_touch_frac) as u64,
                proc.file_base,
                (proc.file_len as f64 * launch.file_touch_frac) as u64,
            )
        };
        let o = self.access_with_retry(pid, native_base, native_touch, AccessKind::Launch);
        outcome.merge(o);
        let o = self.access_with_retry(pid, file_base, file_touch, AccessKind::Launch);
        outcome.merge(o);
        if !self.procs.contains_key(&pid) {
            return Err(FleetError::ProcessNotAlive(pid));
        }

        self.record_access_objects(pid, &access.objects, TraceSource::Launch);

        // --- launch allocation burst; may trigger the §4.2 launch GC.
        {
            let proc = self.procs.get_mut(&pid).expect("alive");
            proc.heap.set_context(AllocContext::Foreground);
            proc.behavior.launch_allocate(&mut proc.heap, access.alloc_bytes);
        }
        self.sync_heap(pid);
        let mut gc_stw = SimDuration::ZERO;
        let mut gc_stall = SimDuration::ZERO;
        if self.procs.get(&pid).expect("alive").heap.should_trigger_gc() {
            // The launch GC runs concurrently, but its pauses and its page
            // faults (which share the flash device with launch faults)
            // lengthen the time to first frame.
            let stats = self.run_gc(pid);
            gc_stw = stats.stw;
            gc_stall = stats.fault_stall;
        }
        if !self.procs.contains_key(&pid) {
            return Err(FleetError::ProcessNotAlive(pid));
        }
        probe!(
            audit,
            self.audit_emit([AuditEvent::LaunchEnd {
                pid: pid.0,
                faulted_pages: outcome.faulted_pages
            }])
        );

        // --- foreground transition.
        let now = self.now();
        let proc = self.procs.get_mut(&pid).expect("alive");
        proc.state = AppState::Foreground;
        proc.last_foreground = now;
        proc.behavior.enter_foreground();
        proc.fleet.stop(); // Fleet stops once the app is foreground (§5.1)
        proc.next_bg_gc = None;
        proc.marvin_swap_due = None;
        let mut marvin_resume = SimDuration::ZERO;
        if let Some(marvin) = proc.marvin.as_mut() {
            // §3.1 drawback (i): resuming mutators over bookmarked objects
            // needs a stop-the-world reconciliation of the stub table.
            marvin_resume = self.gc_cost.marvin_per_stub_stw * marvin.state().stub_count() as u64;
            // Touched objects are resident again; their stubs retire.
            for &obj in &access.objects {
                marvin.state_mut().mark_resident(obj);
            }
        }
        self.foreground = Some(pid);
        probe!(audit, self.audit_emit([AuditEvent::AppState { pid: pid.0, foreground: true }]));

        let profile_hot_ms = self.procs.get(&pid).expect("alive").behavior.profile().hot_launch_ms;
        let jitter = self.rng.normal(1.0, 0.05).clamp(0.8, 1.3);
        let render = SimDuration::from_millis_f64(profile_hot_ms * jitter);
        // Prefetch I/O overlaps with render CPU; only the excess stalls.
        let prefetch_stall = prefetch_overlap.saturating_sub(render);
        let total = render + outcome.latency + gc_stw + gc_stall + marvin_resume + prefetch_stall;
        let report = LaunchReport {
            kind: LaunchKind::Hot,
            at: now,
            total,
            fault_stall: outcome.latency + gc_stall + prefetch_stall,
            decompress: outcome.decompress_latency,
            faulted_pages: outcome.faulted_pages,
            gc_stw: gc_stw + marvin_resume,
        };
        let proc = self.procs.get_mut(&pid).expect("alive");
        // Remember what this launch touched: the prefetch history for the
        // next launch of this app (ASAP's adaptive prepaging), surviving
        // process death like ASAP's persisted per-app profiles.
        let mut history: Vec<(u64, u64)> =
            page_runs(&pages).into_iter().map(|(p, n)| (p * PAGE_SIZE, n * PAGE_SIZE)).collect();
        history.push((native_base, native_touch));
        history.push((file_base, file_touch));
        proc.last_launch_faults = history.clone();
        let name = proc.name.clone();
        proc.cpu.charge(ThreadClass::Mutator, render);
        proc.launches.push(report);
        self.launch_history.insert(name, history);
        // The clock still reads launch-start here, so the kernel fault spans,
        // the launch's `alloc` instants and the launch span family all
        // anchor at the launch window.
        probe!(obs, self.obs_flush());
        probe!(
            obs,
            self.obs_launch_span(
                pid,
                &report,
                render,
                outcome.latency + prefetch_stall,
                gc_stw + gc_stall + marvin_resume,
            )
        );
        self.clock.advance(total);
        Ok(report)
    }

    /// Moves the current foreground app (if any) to the background and arms
    /// the scheme's background machinery.
    pub fn background_current(&mut self) {
        let Some(pid) = self.foreground.take() else { return };
        let Some(proc) = self.procs.get_mut(&pid) else { return };
        let now = self.clock.now();
        proc.state = AppState::Background;
        proc.last_foreground = now;
        // §4.1: "At the moment that an app switches to the background, all
        // existing objects are considered FGO, while all newly allocated
        // objects after the switching are classified as BGO."
        let stale_bgo: Vec<_> = proc
            .heap
            .object_ids()
            .filter(|&o| proc.heap.object(o).context() == AllocContext::Background)
            .collect();
        for obj in stale_bgo {
            proc.heap.set_object_context(obj, AllocContext::Foreground);
        }
        proc.heap.set_context(AllocContext::Background);
        proc.behavior.enter_background(&proc.heap);
        // First background maintenance GC comes sooner than the steady-state
        // interval (ART compacts an app shortly after it is backgrounded).
        proc.next_bg_gc = Some(now + SimDuration::from_secs(15));
        match self.config.scheme {
            SchemeKind::Fleet => {
                proc.fleet.grouping_due = Some(now + self.config.fleet.ts);
            }
            SchemeKind::Marvin => {
                proc.marvin_swap_due = Some(now + SimDuration::from_secs(10));
            }
            _ => {}
        }
        probe!(audit, self.audit_emit([AuditEvent::AppState { pid: pid.0, foreground: false }]));
    }

    // ------------------------------------------------------------- main loop

    /// Runs the device for `secs` seconds of virtual time in one-second
    /// slices: mutator activity, GC triggers, scheme timers, kswapd and LMK.
    pub fn run(&mut self, secs: u64) {
        for _ in 0..secs {
            let pids = self.alive();
            for pid in pids {
                if !self.procs.contains_key(&pid) {
                    continue; // killed earlier in this slice
                }
                self.step_process(pid, 1.0);
            }
            // One reclaim-daemon tick: the kswapd watermark scan and zram
            // writeback (hybrid stacks age their zram tier once per slice; a
            // no-op on flash-only devices), plus the proactive swap-out pass
            // when the Swam policy is active.
            self.reclaim_tick();
            self.update_psi(1.0);
            self.pressure_kill();
            probe!(
                audit,
                self.audit_emit([AuditEvent::Counters {
                    used_frames: self.mm.used_frames(),
                    swap_used: self.mm.swap().used_pages(),
                }])
            );
            probe!(obs, self.obs_slice_sample());
            self.clock.advance(SimDuration::from_secs(1));
        }
    }

    /// Folds the last slice's fault-stall time into the PSI EWMA.
    fn update_psi(&mut self, dt_secs: f64) {
        let stall = self.mm.stats().fault_stall_nanos;
        let delta = stall.saturating_sub(self.psi_last_stall_nanos) as f64 / 1e9;
        self.psi_last_stall_nanos = stall;
        let frac = (delta / dt_secs).min(4.0);
        self.psi_ewma = 0.90 * self.psi_ewma + 0.10 * frac;
    }

    /// Current IO-pressure EWMA (stalled seconds per second).
    pub fn psi(&self) -> f64 {
        self.psi_ewma
    }

    fn step_process(&mut self, pid: Pid, dt: f64) {
        let state = self.procs.get(&pid).expect("alive").state;
        match state {
            AppState::Foreground => {
                let out = {
                    let proc = self.procs.get_mut(&pid).expect("alive");
                    proc.behavior.foreground_step(&mut proc.heap, dt)
                };
                self.sync_heap(pid);
                self.touch_objects(pid, &out.accessed, AccessKind::Mutator);
                self.record_access_objects(pid, &out.accessed, TraceSource::Mutator);
                // Unrecoverable swap errors can SIGBUS-kill the process
                // anywhere a page is touched; every step below re-checks.
                let Some(proc) = self.procs.get_mut(&pid) else { return };
                proc.cpu.charge(ThreadClass::Mutator, SimDuration::from_secs_f64(dt * 0.35));
                if proc.heap.should_trigger_gc() {
                    self.run_gc(pid);
                }
                if !self.procs.contains_key(&pid) {
                    return;
                }
                self.foreground_churn(pid, dt);
            }
            AppState::Background => {
                let out = {
                    let proc = self.procs.get_mut(&pid).expect("alive");
                    proc.behavior.background_step(&mut proc.heap, dt)
                };
                self.sync_heap(pid);
                self.touch_objects(pid, &out.accessed, AccessKind::Mutator);
                self.record_access_objects(pid, &out.accessed, TraceSource::Mutator);
                let Some(proc) = self.procs.get_mut(&pid) else { return };
                proc.cpu.charge(ThreadClass::Mutator, SimDuration::from_secs_f64(dt * 0.01));
                self.service_background_timers(pid);
            }
        }
    }

    /// Foreground page-cache churn: a busy app streams media and code
    /// through the page cache. Fresh file pages enter at the hot end of the
    /// LRU and *stay mapped* (a sliding window), so the kernel must keep
    /// reclaiming — pushing idle apps' anonymous pages out to swap, exactly
    /// the pressure regime of the paper's experiments.
    fn foreground_churn(&mut self, pid: Pid, dt: f64) {
        let rate = {
            let proc = self.procs.get(&pid).expect("alive");
            proc.behavior.profile().fg_page_churn_mib_per_sec
        };
        let bytes = (rate / self.config.scale as f64 * dt * 1024.0 * 1024.0) as u64;
        if bytes == 0 {
            return;
        }
        let base = SCRATCH_BASE + self.scratch_head;
        self.scratch_head += bytes;
        loop {
            match self.mm.map_range_kind(PAGECACHE_PID, base, bytes, PageKind::File) {
                Ok(()) => break,
                Err(_) => {
                    if !self.lmk_kill(Some(pid)) {
                        return; // nothing killable; skip the churn
                    }
                }
            }
        }
        // Slide the window: drop cache pages beyond the retention budget.
        if self.scratch_head - self.scratch_tail > PAGECACHE_WINDOW {
            let drop_to = self.scratch_head - PAGECACHE_WINDOW;
            self.mm.unmap_range(
                PAGECACHE_PID,
                SCRATCH_BASE + self.scratch_tail,
                drop_to - self.scratch_tail,
            );
            self.scratch_tail = drop_to;
        }
    }

    fn service_background_timers(&mut self, pid: Pid) {
        let now = self.clock.now();
        // Any GC here may SIGBUS-kill the process under an armed fault plan,
        // so each timer re-checks liveness instead of expecting it.
        // Heap-pressure GC.
        if self.procs.get(&pid).is_some_and(|p| p.heap.should_trigger_gc()) {
            self.run_gc(pid);
        }
        // Fleet: grouping GC at +Ts, then periodic HOT_RUNTIME refreshes.
        if self.config.scheme == SchemeKind::Fleet {
            let due = self.procs.get(&pid).and_then(|p| p.fleet.grouping_due);
            if due.is_some_and(|t| now >= t) {
                self.run_grouping(pid);
            }
            let refresh = self.procs.get(&pid).and_then(|p| p.fleet.hot_refresh_due);
            if refresh.is_some_and(|t| now >= t) {
                self.refresh_hot_pages(pid);
            }
        }
        // Marvin: periodic object-swap pass.
        if self.config.scheme == SchemeKind::Marvin {
            let due = self.procs.get(&pid).and_then(|p| p.marvin_swap_due);
            if due.is_some_and(|t| now >= t) {
                self.marvin_swap_pass(pid);
                if let Some(proc) = self.procs.get_mut(&pid) {
                    proc.marvin_swap_due = Some(now + SimDuration::from_secs(30));
                }
            }
        }
        // Background maintenance GC (Android trim cycle; BGC under Fleet,
        // bookmarking GC under Marvin).
        let due = self.procs.get(&pid).and_then(|p| p.next_bg_gc);
        if due.is_some_and(|t| now >= t) {
            self.run_gc(pid);
            if let Some(proc) = self.procs.get_mut(&pid) {
                proc.next_bg_gc = Some(now + self.config.bg_gc_interval);
            }
        }
    }

    // ------------------------------------------------------------------- GC

    /// Runs the scheme-appropriate collector for `pid` now.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not alive; see [`Device::try_run_gc`] for the
    /// fallible form.
    pub fn run_gc(&mut self, pid: Pid) -> GcStats {
        self.try_run_gc(pid).expect("run_gc on a dead process")
    }

    /// Runs the scheme-appropriate collector for `pid` now, or reports that
    /// the process is not alive.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::ProcessNotAlive`] if `pid` has been killed or
    /// never existed.
    pub fn try_run_gc(&mut self, pid: Pid) -> Result<GcStats, FleetError> {
        let scheme = self.config.scheme;
        let state = self.try_process(pid)?.state;
        let (stats, fatal) = {
            let proc = self.procs.get_mut(&pid).expect("alive");
            let mut touch = KernelTouch::new(&mut self.mm, pid, &mut self.oom_touch_skips);
            let stats = match scheme {
                SchemeKind::Marvin => {
                    let mut gc = proc.marvin.take().expect("marvin scheme has a marvin gc");
                    let stats = gc.collect(&mut proc.heap, &mut touch);
                    proc.marvin = Some(gc);
                    stats
                }
                SchemeKind::Fleet
                    if state == AppState::Background && !self.config.fleet_disable_bgc =>
                {
                    BackgroundObjectGc::new(self.gc_cost).collect(&mut proc.heap, &mut touch)
                }
                // Foreground apps get ART's tiered policy: a minor GC over
                // the newly-allocated regions first, escalating to the full
                // collector only when that does not relieve the pressure.
                _ if state == AppState::Foreground => {
                    let minor = MinorGc::new(self.gc_cost).collect(&mut proc.heap, &mut touch);
                    if proc.heap.should_trigger_gc() {
                        let full =
                            FullCopyingGc::new(self.gc_cost).collect(&mut proc.heap, &mut touch);
                        let _ = minor; // the escalation's stats supersede it
                        full
                    } else {
                        minor
                    }
                }
                _ => FullCopyingGc::new(self.gc_cost).collect(&mut proc.heap, &mut touch),
            };
            (stats, touch.fatal)
        };
        if fatal {
            // The trace touched an anon page lost to a permanent swap error:
            // the process is not salvageable. Skip post-GC bookkeeping — the
            // kill unmaps everything the collector left behind.
            if stats.evac_aborted {
                self.evac_aborts += 1;
            }
            probe!(obs, self.obs_gc_span(pid, &stats));
            self.sigbus_kill(pid);
            return Ok(stats);
        }
        self.finish_gc(pid, stats);
        Ok(stats)
    }

    /// Fleet's RGS grouping GC (§5.3.1) plus the §5.3.2 madvise calls.
    pub fn run_grouping(&mut self, pid: Pid) -> GcStats {
        let depth = self.config.fleet.depth;
        let (stats, outcome, fatal) = {
            let proc = self.procs.get_mut(&pid).expect("alive");
            let ws = proc.behavior.working_set().clone();
            // After the first grouping, re-group incrementally: regions that
            // are already cold keep their placement and are NOT re-traced,
            // so a re-grouping does not fault the swapped bulk back in.
            // Every 8th grouping is full, bounding cold-garbage buildup.
            let incremental =
                proc.fleet.groupings_done > 0 && !proc.fleet.groupings_done.is_multiple_of(8);
            proc.fleet.groupings_done += 1;
            let mut touch = KernelTouch::new(&mut self.mm, pid, &mut self.oom_touch_skips);
            let (stats, outcome) = GroupingGc::new(self.gc_cost, depth, ws)
                .with_incremental(incremental)
                .collect_grouping(&mut proc.heap, &mut touch);
            (stats, outcome, touch.fatal)
        };
        if fatal {
            if stats.evac_aborted {
                self.evac_aborts += 1;
            }
            probe!(obs, self.obs_gc_span(pid, &stats));
            self.sigbus_kill(pid);
            return stats;
        }
        self.finish_gc(pid, stats);
        // Actively swap the cold ranges out; pin launch pages hot.
        let (cold, launch) = {
            let proc = self.procs.get_mut(&pid).expect("alive");
            let cold = outcome.cold_ranges.clone();
            let launch = outcome.launch_ranges.clone();
            proc.fleet.grouping_due = None;
            proc.fleet.grouped = Some(outcome);
            proc.fleet.hot_refresh_due = Some(self.clock.now() + self.config.fleet.hot_refresh);
            (cold, launch)
        };
        if !self.config.fleet_disable_cold_madvise {
            for (base, len) in cold {
                self.mm.madvise(pid, base, len, Advice::ColdRuntime);
            }
        }
        if !self.config.fleet_disable_hot_refresh {
            for (base, len) in launch {
                self.mm.madvise(pid, base, len, Advice::HotRuntime);
            }
        } else {
            self.procs.get_mut(&pid).expect("alive").fleet.hot_refresh_due = None;
        }
        stats
    }

    fn refresh_hot_pages(&mut self, pid: Pid) {
        let ranges: Vec<(u64, u64)> = {
            let proc = self.procs.get_mut(&pid).expect("alive");
            proc.fleet.hot_refresh_due = Some(self.clock.now() + self.config.fleet.hot_refresh);
            proc.fleet.grouped.as_ref().map(|g| g.launch_ranges.clone()).unwrap_or_default()
        };
        for (base, len) in ranges {
            self.mm.madvise(pid, base, len, Advice::HotRuntime);
        }
    }

    /// Marvin's background reclamation: bookmark cold large objects and
    /// release the pages that became pure.
    fn marvin_swap_pass(&mut self, pid: Pid) {
        let pages: Vec<u64> = {
            let proc = self.procs.get_mut(&pid).expect("alive");
            let ws = proc.behavior.working_set().clone();
            let mut gc = proc.marvin.take().expect("marvin scheme");
            let ids: Vec<ObjectId> = proc.heap.object_ids().collect();
            for obj in ids {
                // Object-LRU approximation: everything outside the working
                // set is cold. Crucially launch-agnostic (§3.1 drawback iii).
                if !ws.contains(&obj) {
                    gc.state_mut().mark_swapped(&proc.heap, obj);
                }
            }
            let pages = swappable_pages(&proc.heap, gc.state());
            proc.marvin = Some(gc);
            pages
        };
        for run in page_runs(&pages) {
            self.mm.madvise(pid, run.0 * PAGE_SIZE, run.1 * PAGE_SIZE, Advice::ColdRuntime);
        }
    }

    fn finish_gc(&mut self, pid: Pid, stats: GcStats) {
        if stats.evac_aborted {
            self.evac_aborts += 1;
        }
        probe!(obs, self.obs_gc_span(pid, &stats));
        // Paranoia hook: `FLEET_VALIDATE_HEAP=1` re-verifies the whole heap
        // after every collection (O(heap); used when hunting GC bugs — the
        // per-collector invariants are otherwise covered by the adversarial
        // interleaving test in fleet-gc/tests/soundness.rs).
        if std::env::var_os("FLEET_VALIDATE_HEAP").is_some_and(|v| v == "1") {
            let proc = self.procs.get(&pid).expect("alive");
            if let Err(msg) = proc.heap.validate_refs() {
                panic!("heap invariant broken after {} GC of {}: {msg}", stats.kind, proc.name);
            }
        }
        self.sync_heap(pid);
        let at = self.clock.now();
        let proc = self.procs.get_mut(&pid).expect("alive");
        let heap = &proc.heap;
        proc.behavior.prune(heap);
        proc.cpu.charge(ThreadClass::Gc, stats.cpu);
        proc.gcs.push(GcRecord { at, stats });
        self.record_gc_snapshot(pid, stats.kind);
    }

    // ------------------------------------------------------ memory plumbing

    /// Applies queued heap address-space events to the kernel.
    fn sync_heap(&mut self, pid: Pid) {
        let events = self.procs.get_mut(&pid).expect("alive").heap.drain_events();
        for event in events {
            match event {
                HeapEvent::RegionMapped { base, len } => {
                    self.map_with_retry(pid, base, len, PageKind::Anon);
                    if self.config.scheme == SchemeKind::Marvin {
                        // Marvin removes the Java heap from kernel LRU
                        // control; reclamation is object-granularity only.
                        self.mm.pin_range(pid, base, len);
                    }
                }
                HeapEvent::RegionFreed { base, len } => {
                    self.mm.unmap_range(pid, base, len);
                }
            }
        }
    }

    /// Maps `[base, base + len)` of `pid` as `kind`, LMK-killing other
    /// cached apps until it fits.
    fn map_with_retry(&mut self, pid: Pid, base: u64, len: u64, kind: PageKind) {
        while self.mm.map_range_kind(pid, base, len, kind).is_err() {
            if !self.lmk_kill(Some(pid)) {
                // Nothing left to kill: give up on the mapping. The kernel
                // treats accesses to unmapped pages as no-ops, so the
                // process limps along partially mapped rather than taking
                // the whole device down.
                self.map_failures += 1;
                return;
            }
        }
    }

    fn access_with_retry(
        &mut self,
        pid: Pid,
        base: u64,
        len: u64,
        kind: AccessKind,
    ) -> AccessOutcome {
        let mut merged = AccessOutcome::default();
        loop {
            // Partial progress before an OOM is kept: the retry re-walks the
            // range, but already-faulted pages are resident and free.
            let outcome = self.mm.access(pid, base, len, kind);
            let oom = outcome.oom;
            let killed = outcome.killed;
            merged.merge(outcome);
            if killed {
                // An anonymous page was lost to a permanent swap error: the
                // process cannot recover the data and takes a SIGBUS.
                self.sigbus_kill(pid);
                return merged;
            }
            if !oom {
                merged.oom = false;
                return merged;
            }
            if !self.lmk_kill(Some(pid)) {
                self.oom_touch_skips += 1;
                return merged;
            }
        }
    }

    /// The sorted, deduplicated pages under `pid`'s live `objects`; ids
    /// already freed are skipped.
    fn object_pages<'a>(
        &self,
        pid: Pid,
        objects: impl IntoIterator<Item = &'a ObjectId>,
    ) -> Vec<u64> {
        let heap = &self.procs.get(&pid).expect("alive").heap;
        let mut pages: Vec<u64> = objects
            .into_iter()
            .filter(|&&obj| heap.contains(obj))
            .flat_map(|&obj| heap.pages_of(obj))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// Touches sorted `pages` of `pid` run by run through
    /// [`Device::access_with_retry`], merging the outcomes. Returns `None`
    /// as soon as a permanent swap error SIGBUS-kills the process mid-walk.
    fn touch_pages(&mut self, pid: Pid, pages: &[u64], kind: AccessKind) -> Option<AccessOutcome> {
        let mut outcome = AccessOutcome::default();
        for (start, len) in page_runs(pages) {
            outcome.merge(self.access_with_retry(pid, start * PAGE_SIZE, len * PAGE_SIZE, kind));
            if !self.procs.contains_key(&pid) {
                return None;
            }
        }
        Some(outcome)
    }

    fn touch_objects(&mut self, pid: Pid, objects: &[ObjectId], kind: AccessKind) {
        let pages = self.object_pages(pid, objects);
        let Some(outcome) = self.touch_pages(pid, &pages, kind) else { return };
        let proc = self.procs.get_mut(&pid).expect("alive");
        proc.cpu.charge(ThreadClass::Kernel, outcome.latency);
        // Marvin: touched bookmarked objects become resident again.
        if let Some(marvin) = proc.marvin.as_mut() {
            for &obj in objects {
                marvin.state_mut().mark_resident(obj);
            }
        }
    }

    // ------------------------------------------------------------- reclaim

    /// One reclaim-daemon tick via the [`ReclaimDriver`]: kswapd scan, zram
    /// writeback, and (under Swam) the working-set epoch advance plus the
    /// proactive swap-out of idle background apps.
    fn reclaim_tick(&mut self) {
        let candidates = self.lmk_candidates(None);
        self.reclaim.tick(&mut self.mm, &candidates);
    }

    // ---------------------------------------------------------------- LMK

    /// Snapshots the current process set as LMK candidates. `protect`
    /// additionally shields one pid (e.g. the app whose launch is in
    /// progress) by presenting it as foreground.
    fn lmk_candidates(&self, protect: Option<Pid>) -> Vec<LmkCandidate> {
        self.procs
            .values()
            .map(|p| LmkCandidate {
                pid: p.pid,
                foreground: Some(p.pid) == self.foreground || Some(p.pid) == protect,
                last_foreground: p.last_foreground,
                pinned: false,
            })
            .collect()
    }

    /// Kills the coldest killable background app via the lmkd driver.
    /// Returns false when none exists.
    fn lmk_kill(&mut self, protect: Option<Pid>) -> bool {
        let candidates = self.lmk_candidates(protect);
        // Flush buffered component events first so the victim's heap events
        // precede its unmap/kill events in the audit stream.
        probe!(audit, self.audit_emit([]));
        match self.reclaim.kill_one(&mut self.mm, &candidates) {
            Some(_) => {
                self.reap_lmk_kills();
                true
            }
            None => false,
        }
    }

    /// Completes device-side teardown of processes the lmkd driver killed:
    /// removes their process records, emits the device-level kill events,
    /// and records the kills.
    fn reap_lmk_kills(&mut self) {
        for victim in self.reclaim.drain_kills() {
            probe!(obs, self.obs_reap(victim));
            let Some(proc) = self.procs.remove(&victim) else { continue };
            probe!(audit, self.audit_emit([AuditEvent::ProcessKill { pid: victim.0 }]));
            if self.foreground == Some(victim) {
                self.foreground = None;
            }
            self.kills.push(KillRecord { at: self.clock.now(), pid: victim, name: proc.name });
        }
    }

    /// Terminates a process hit by an unrecoverable data loss (a permanent
    /// swap read error on an anonymous page — the SIGBUS analog).
    fn sigbus_kill(&mut self, pid: Pid) {
        self.sigbus_kills += 1;
        self.kill(pid);
    }

    fn pressure_kill(&mut self) {
        // lmkd-style: if even after kswapd the free headroom is under half
        // the low watermark, a cached app dies.
        let threshold = self.mm.config().low_watermark_frames / 2;
        if self.mm.free_frames() < threshold {
            if self.mm.fault_active() {
                // Degraded mode: keep killing until the full low watermark is
                // restored, so the next fault burst has headroom to retry
                // into. The quiet path keeps the historical one-kill policy.
                let target = self.mm.config().low_watermark_frames;
                let candidates = self.lmk_candidates(None);
                probe!(audit, self.audit_emit([]));
                let _ = self.reclaim.escalate(&mut self.mm, &candidates, target);
                self.reap_lmk_kills();
                // Mark the escalation on the kernel track (drained by the
                // next obs_flush) and count it.
                probe!(obs, {
                    let free = self.mm.free_frames();
                    let log = &mut self.mm.probes_mut().obs;
                    log.push(|_| {
                        fleet_obs::ObsRecord::root(
                            0,
                            "lmkd_escalate",
                            "kernel",
                            0,
                            vec![("free_frames", free), ("target_frames", target)],
                        )
                    });
                    log.push(|_| fleet_obs::ObsRecord::Counter {
                        name: "lmkd.escalations",
                        delta: 1,
                    });
                });
            } else {
                self.lmk_kill(None);
            }
            return;
        }
        // PSI path: sustained swap thrash (as produced by background GCs
        // re-faulting swapped heaps, §3.2) kills the coldest cached app.
        if self.psi_ewma > 0.75 && self.lmk_kill(None) {
            // Hysteresis: give the survivors a chance to settle.
            self.psi_ewma = 0.35;
        }
    }

    /// Terminates a process, releasing all its memory.
    pub fn kill(&mut self, pid: Pid) {
        if !self.procs.contains_key(&pid) {
            return;
        }
        // Drain the victim's buffered heap events before it disappears.
        probe!(audit, self.audit_emit([]));
        probe!(obs, self.obs_reap(pid));
        let proc = self.procs.remove(&pid).expect("checked above");
        self.mm.unmap_process(pid);
        probe!(audit, self.audit_emit([AuditEvent::ProcessKill { pid: pid.0 }]));
        if self.foreground == Some(pid) {
            self.foreground = None;
        }
        self.kills.push(KillRecord { at: self.clock.now(), pid, name: proc.name });
    }

    // ------------------------------------------------------------- rendering

    /// Drives the foreground app through `secs` seconds of scripted swipe
    /// interaction at a 60 Hz target (§7.3's frame-rendering experiment) and
    /// returns the jank/FPS report.
    ///
    /// A frame completes after its render cost plus any page-fault stall and
    /// any stop-the-world pause of a GC it triggered; completions are fed to
    /// the jank detector (gap > 16.7 ms = jank).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not the current foreground app.
    pub fn run_frames(&mut self, pid: Pid, secs: u64) -> fleet_metrics::FrameReport {
        assert_eq!(self.foreground, Some(pid), "run_frames drives the foreground app");
        let mut script = {
            let proc = self.procs.get(&pid).expect("alive");
            fleet_apps::InteractionScript::new(proc.behavior.profile(), self.rng.fork())
        };
        let mut recorder = fleet_metrics::FrameRecorder::new();
        let deadline = self.clock.now() + SimDuration::from_secs(secs);
        let frame_dt = 1.0 / 60.0;
        let mut since_kswapd = 0u32;
        // Marvin's stub indirection taxes every object access on the render
        // path (§3.1); Figure 14 attributes its ~20% jank/FPS gap to this.
        let render_overhead = if self.config.scheme == SchemeKind::Marvin { 1.18 } else { 1.0 };
        while self.clock.now() < deadline {
            let work = script.next_frame();
            let work = fleet_apps::interact::FrameWork {
                render_cost: work.render_cost.mul_f64(render_overhead),
                ..work
            };
            // Mutator work for this frame: allocations + object touches.
            let out = {
                let proc = self.procs.get_mut(&pid).expect("alive");
                proc.behavior.foreground_step(&mut proc.heap, frame_dt)
            };
            self.sync_heap(pid);
            let pages = self.object_pages(pid, out.accessed.iter().take(work.touches as usize));
            let Some(touched) = self.touch_pages(pid, &pages, AccessKind::Mutator) else {
                break; // SIGBUS-killed by a permanent swap error
            };
            // A frame that triggers GC eats the pause on its critical path.
            let mut gc_pause = SimDuration::ZERO;
            if self.procs.get(&pid).expect("alive").heap.should_trigger_gc() {
                let stats = self.run_gc(pid);
                gc_pause = stats.stw;
            }
            if !self.procs.contains_key(&pid) {
                break;
            }
            // Marvin periodically reconciles the stub table with mutators
            // stopped; with bookmarked objects outstanding this lands in the
            // middle of frames (§3.1 drawback i).
            if self.config.scheme == SchemeKind::Marvin && recorder.frames() % 60 == 59 {
                let stubs = self
                    .procs
                    .get(&pid)
                    .expect("alive")
                    .marvin
                    .as_ref()
                    .map(|m| m.state().stub_count() as u64)
                    .unwrap_or(0);
                gc_pause += self.gc_cost.marvin_per_stub_stw * stubs / 8;
            }
            let frame_time = work.render_cost + touched.latency + gc_pause;
            // The next frame cannot start before the vsync slot either way.
            let advance = frame_time.max(SimDuration::from_secs_f64(frame_dt));
            self.clock.advance(advance);
            recorder.frame(self.clock.now());
            let proc = self.procs.get_mut(&pid).expect("alive");
            proc.cpu.charge(ThreadClass::Mutator, work.render_cost);
            // Housekeeping once per simulated second.
            since_kswapd += 1;
            if since_kswapd >= 60 {
                since_kswapd = 0;
                self.reclaim_tick();
                self.pressure_kill();
                probe!(
                    audit,
                    self.audit_emit([AuditEvent::Counters {
                        used_frames: self.mm.used_frames(),
                        swap_used: self.mm.swap().used_pages(),
                    }])
                );
            }
        }
        recorder.report()
    }

    // -------------------------------------------------------------- tracing

    fn record_access_objects(&mut self, pid: Pid, objects: &[ObjectId], source: TraceSource) {
        let now_secs = self.clock.now().as_secs_f64();
        if let Some(trace) = self.trace.as_mut() {
            if trace.target == pid {
                for &obj in objects {
                    trace.counter += 1;
                    if trace.counter % trace.every == 0 {
                        trace.samples.push(TraceSample {
                            secs: now_secs,
                            object: obj.0 as u64,
                            source,
                        });
                    }
                }
            }
        }
    }

    fn record_gc_snapshot(&mut self, pid: Pid, kind: GcKind) {
        let now_secs = self.clock.now().as_secs_f64();
        let Some(trace) = self.trace.as_mut() else { return };
        if trace.target != pid {
            return;
        }
        let proc = self.procs.get(&pid).expect("alive");
        let every = trace.every as usize;
        let ids: Vec<ObjectId> = proc.heap.object_ids().collect();
        for obj in ids.iter().step_by(every.max(1)) {
            // BGC only walks background regions; a full/grouping GC walks
            // everything. Sample accordingly so the trace reflects the
            // working set honestly.
            if kind == GcKind::Bgc {
                let region = proc.heap.object(*obj).region();
                if proc.heap.region(region).kind() != RegionKind::Bg {
                    continue;
                }
            }
            trace.samples.push(TraceSample {
                secs: now_secs,
                object: obj.0 as u64,
                source: TraceSource::Gc,
            });
        }
    }
}

/// Groups sorted page indices into `(start, len)` runs of contiguous pages.
fn page_runs(pages: &[u64]) -> Vec<(u64, u64)> {
    let mut runs = Vec::new();
    let mut iter = pages.iter().copied();
    let Some(first) = iter.next() else { return runs };
    let mut start = first;
    let mut len = 1;
    for page in iter {
        if page == start + len {
            len += 1;
        } else {
            runs.push((start, len));
            start = page;
            len = 1;
        }
    }
    runs.push((start, len));
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet_apps::{profile_by_name, synthetic_app};

    fn device(scheme: SchemeKind) -> Device {
        Device::new(DeviceConfig::pixel3(scheme))
    }

    /// A slow-path `alloc` span reaches the trace even when its process is
    /// killed before any collection or obs barrier drains its heap log.
    #[cfg(feature = "obs")]
    #[test]
    fn alloc_spans_of_a_killed_process_reach_the_trace() {
        use crate::probe::{install, shared, ObsPipeline};
        let pipeline = shared::<ObsPipeline>();
        let _guard = install(pipeline.clone());
        let mut dev = device(SchemeKind::Android);
        let (pid, _) = dev.launch_cold(&profile_by_name("Twitter").unwrap());
        let heap = &mut dev.procs.get_mut(&pid).unwrap().heap;
        // Two region-sized objects: the second one must open a fresh region.
        let region = heap.config().region_size;
        heap.alloc(region);
        heap.alloc(region);
        dev.kill(pid);
        let track = ObsPipeline::track(0, pid.0);
        let pipe = pipeline.lock().unwrap();
        let allocs = pipe.spans().iter().filter(|s| s.name == "alloc" && s.track == track);
        assert!(allocs.count() >= 1, "the killed process's alloc spans were lost");
    }

    #[test]
    fn page_runs_group_contiguous() {
        assert_eq!(page_runs(&[]), vec![]);
        assert_eq!(page_runs(&[5]), vec![(5, 1)]);
        assert_eq!(page_runs(&[1, 2, 3, 7, 8, 10]), vec![(1, 3), (7, 2), (10, 1)]);
    }

    #[test]
    fn cold_launch_creates_foreground_process() {
        let mut dev = device(SchemeKind::Android);
        let profile = profile_by_name("Twitter").unwrap();
        let (pid, report) = dev.launch_cold(&profile);
        assert_eq!(report.kind, LaunchKind::Cold);
        assert!(report.total.as_millis_f64() > 1500.0, "{}", report.total);
        assert_eq!(dev.foreground(), Some(pid));
        let proc = dev.process(pid);
        assert!(proc.heap.live_bytes() >= profile.java_heap_bytes_scaled(16));
        assert!(dev.mm().process_mem(pid).resident > 0);
    }

    #[test]
    fn hot_launch_on_idle_device_is_fast() {
        let mut dev = device(SchemeKind::Android);
        let twitter = profile_by_name("Twitter").unwrap();
        let telegram = profile_by_name("Telegram").unwrap();
        let (tw, _) = dev.launch_cold(&twitter);
        dev.run(5);
        let (_tg, _) = dev.launch_cold(&telegram);
        dev.run(5);
        let report = dev.switch_to(tw);
        assert_eq!(report.kind, LaunchKind::Hot);
        // No memory pressure: the hot launch is near the render floor
        // (Figure 2: Twitter ≈ 273 ms).
        assert!(report.total.as_millis_f64() < 450.0, "{}", report.total);
        assert!(report.total.as_millis_f64() > 150.0, "{}", report.total);
    }

    #[test]
    fn background_transition_arms_scheme_timers() {
        let mut dev = device(SchemeKind::Fleet);
        let profile = profile_by_name("Twitter").unwrap();
        let (pid, _) = dev.launch_cold(&profile);
        dev.launch_cold(&profile_by_name("Telegram").unwrap());
        let proc = dev.process(pid);
        assert_eq!(proc.state, AppState::Background);
        assert!(proc.fleet.grouping_due.is_some());
    }

    #[test]
    fn fleet_grouping_runs_after_ts() {
        let mut dev = device(SchemeKind::Fleet);
        let (pid, _) = dev.launch_cold(&profile_by_name("Twitter").unwrap());
        dev.launch_cold(&profile_by_name("Telegram").unwrap());
        dev.run(15); // Ts = 10 s
        let proc = dev.process(pid);
        assert!(proc.fleet.grouped.is_some(), "grouping GC should have run");
        let grouped = proc.fleet.grouped.as_ref().unwrap();
        assert!(!grouped.launch_ranges.is_empty());
        assert!(!grouped.cold_ranges.is_empty());
        assert!(proc.gcs.iter().any(|g| g.stats.kind == GcKind::Grouping));
        // Cold ranges were actively swapped out.
        assert!(dev.mm().process_mem(pid).swapped > 0, "COLD_RUNTIME should push pages out");
    }

    #[test]
    fn fleet_uses_bgc_in_background() {
        let mut dev = device(SchemeKind::Fleet);
        let (pid, _) = dev.launch_cold(&profile_by_name("Twitter").unwrap());
        dev.launch_cold(&profile_by_name("Telegram").unwrap());
        dev.run(80); // past the first maintenance GC
        let proc = dev.process(pid);
        assert!(
            proc.gcs.iter().any(|g| g.stats.kind == GcKind::Bgc),
            "BGC should run while cached"
        );
    }

    #[test]
    fn android_uses_full_gc_in_background() {
        let mut dev = device(SchemeKind::Android);
        let (pid, _) = dev.launch_cold(&profile_by_name("Twitter").unwrap());
        dev.launch_cold(&profile_by_name("Telegram").unwrap());
        dev.run(80);
        let proc = dev.process(pid);
        let bg_gcs: Vec<_> = proc.gcs.iter().filter(|g| g.stats.kind == GcKind::Full).collect();
        assert!(!bg_gcs.is_empty());
    }

    #[test]
    fn marvin_pins_java_pages_and_swaps_objects() {
        let mut dev = device(SchemeKind::Marvin);
        let big_objects = synthetic_app(2048, 180);
        let (pid, _) = dev.launch_cold(&big_objects);
        dev.launch_cold(&synthetic_app(2048, 180));
        dev.run(50);
        let proc = dev.process(pid);
        let marvin = proc.marvin.as_ref().unwrap();
        assert!(marvin.state().stub_count() > 0, "cold large objects should be bookmarked");
        assert!(dev.mm().process_mem(pid).swapped > 0, "pure pages should be released");
    }

    #[test]
    fn marvin_cannot_swap_small_objects() {
        let mut dev = device(SchemeKind::Marvin);
        let small_objects = synthetic_app(512, 180);
        let (pid, _) = dev.launch_cold(&small_objects);
        dev.launch_cold(&synthetic_app(512, 180));
        dev.run(50);
        let proc = dev.process(pid);
        let marvin = proc.marvin.as_ref().unwrap();
        assert_eq!(marvin.state().stub_count(), 0, "512 B objects are below the threshold");
        // Java pages are pinned and nothing is object-swappable: no swap.
        let heap_pages = dev.mm().process_mem(pid);
        assert!(
            heap_pages.swapped <= proc.native_len / PAGE_SIZE,
            "only native pages may swap under Marvin"
        );
    }

    #[test]
    fn capacity_pressure_triggers_lmk_kills() {
        let mut dev = device(SchemeKind::AndroidNoSwap);
        let app = synthetic_app(2048, 180);
        for _ in 0..20 {
            dev.launch_cold(&app);
            dev.run(3);
        }
        assert!(!dev.kills().is_empty(), "no-swap device must kill under pressure");
        assert!(dev.cached_apps() < 20);
    }

    #[test]
    fn deterministic_runs_with_same_seed() {
        let run = || {
            let mut dev = device(SchemeKind::Fleet);
            let (pid, _) = dev.launch_cold(&profile_by_name("Twitter").unwrap());
            dev.launch_cold(&profile_by_name("Telegram").unwrap());
            dev.run(40);
            let r = dev.switch_to(pid);
            (r.total, dev.mm().stats().faults, dev.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zram_device_consumes_dram_for_swap() {
        let mut config = DeviceConfig::pixel3(SchemeKind::Android);
        config.swap_medium = fleet_kernel::SwapMedium::Zram { compression_ratio: 2.8 };
        let mut dev = Device::new(config);
        let app = synthetic_app(2048, 180);
        for _ in 0..8 {
            dev.launch_cold(&app);
            dev.run(5);
        }
        let swap = dev.mm().swap();
        if swap.used_pages() > 0 {
            assert!(swap.frames_consumed() > 0, "zram store must occupy DRAM");
            assert!(swap.frames_consumed() < swap.used_pages(), "compression must help");
        }
        // Zram faults are near-DRAM speed: background GC stalls stay small.
        let pid = dev.alive()[0];
        let stats = dev.run_gc(pid);
        assert!(
            stats.fault_stall.as_millis_f64() < 200.0,
            "zram GC stall should be small: {}",
            stats.fault_stall
        );
    }

    #[test]
    fn prefetch_history_survives_kills() {
        let mut config = DeviceConfig::pixel3(SchemeKind::Android);
        config.prefetch_on_launch = true;
        let mut dev = Device::new(config);
        let profile = profile_by_name("Twitter").unwrap();
        let (pid, _) = dev.launch_cold(&profile);
        dev.run(3);
        dev.launch_cold(&profile_by_name("Telegram").unwrap());
        dev.run(3);
        dev.switch_to(pid); // records launch history under "Twitter"
        dev.run(3);
        dev.kill(pid);
        // Relaunch: the device-level history still exists and prefetching
        // must not panic or corrupt accounting.
        let (pid2, _) = dev.launch_cold(&profile);
        dev.launch_cold(&profile_by_name("Telegram").unwrap());
        dev.run(3);
        let report = dev.switch_to(pid2);
        assert!(report.total.as_millis_f64() > 0.0);
        assert!(dev.mm().used_frames() <= dev.mm().frames_capacity());
    }

    #[test]
    fn psi_rises_under_thrash_and_decays_when_idle() {
        let mut dev = device(SchemeKind::Android);
        assert_eq!(dev.psi(), 0.0);
        let app = synthetic_app(2048, 180);
        for _ in 0..16 {
            dev.launch_cold(&app);
            dev.run(4);
        }
        // Heavy overcommit produced stall time at some point; after a long
        // quiet period the EWMA decays back toward zero.
        dev.run(120);
        assert!(dev.psi() < 0.5, "psi should decay when quiet: {}", dev.psi());
    }

    #[test]
    fn ablation_flags_change_fleet_behaviour() {
        let run = |disable_cold: bool| {
            let mut config = DeviceConfig::pixel3(SchemeKind::Fleet);
            config.fleet_disable_cold_madvise = disable_cold;
            let mut dev = Device::new(config);
            let (pid, _) = dev.launch_cold(&profile_by_name("Twitter").unwrap());
            dev.launch_cold(&profile_by_name("Telegram").unwrap());
            dev.run(15);
            dev.mm().process_mem(pid).swapped
        };
        let with_cold = run(false);
        let without_cold = run(true);
        assert!(
            with_cold > without_cold,
            "COLD_RUNTIME must proactively swap: {with_cold} vs {without_cold}"
        );
    }

    #[test]
    fn trace_records_mutator_and_gc_samples() {
        let mut dev = device(SchemeKind::Android);
        let (pid, _) = dev.launch_cold(&profile_by_name("AmazonShop").unwrap());
        dev.enable_trace(pid, 100);
        dev.run(5);
        dev.launch_cold(&profile_by_name("Telegram").unwrap());
        dev.run(40); // bg maintenance GC at +15 s
        let trace = dev.take_trace().unwrap();
        assert!(trace.samples().iter().any(|s| s.source == TraceSource::Mutator));
        assert!(trace.samples().iter().any(|s| s.source == TraceSource::Gc));
    }
}
