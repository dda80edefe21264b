//! The unified reclaim policy surface: proactive reclaim + OOMK co-design.
//!
//! Before this module the reclaim surface was scattered: the device layer
//! hand-ticked [`MemoryManager::kswapd`], [`MemoryManager::zram_writeback`]
//! and a stateful `Lmkd` escalation driver separately, and the victim
//! policy was a free function. SWAM (PAPERS.md) argues the pieces belong together:
//! per-process working-set estimation, *proactive* swap-out of idle
//! background apps ahead of pressure, dynamic swap-target sizing, and a
//! kill policy that can weight oom-scores by working-set size. This module
//! fronts all of it:
//!
//! * [`ReclaimPolicy`] — `Reactive` (the historical watermark-driven
//!   behaviour, bit-identical event streams) or `Swam` (adds the
//!   working-set tracker and the proactive daemon, tuned by
//!   [`SwamParams`]),
//! * [`KillPolicy`] — `ColdestFirst` (lmkd's classic
//!   least-recently-foreground order) or `WssWeighted` (kill the app with
//!   the most resident memory *outside* its working set, freeing the most
//!   while hurting a relaunch the least),
//! * [`ReclaimDriver`] — the daemon: owns one deterministic tick order
//!   (kswapd scan, zram writeback, WSS epoch advance, proactive swap-out)
//!   and executes kills/escalations under the configured [`KillPolicy`].
//!
//! The driver replaced the old `choose_victim` / `Lmkd::kill_one` /
//! `Lmkd::escalate` split; those shims rode one release as deprecated and
//! are gone — only the victim-order function and the vocabulary types
//! survive in [`crate::lmk`].
//!
//! # Examples
//!
//! ```
//! use fleet_kernel::{KillPolicy, MemoryManager, MmConfig, ReclaimDriver, ReclaimPolicy};
//!
//! let mut mm = MemoryManager::new(MmConfig::small_test());
//! let mut driver = ReclaimDriver::new(ReclaimPolicy::swam(), KillPolicy::WssWeighted);
//! driver.attach(&mut mm); // enables working-set tracking for Swam
//! driver.tick(&mut mm, &[]); // kswapd + writeback + proactive pass
//! assert_eq!(driver.total_kills(), 0);
//! ```

use crate::lmk::{coldest_victim, LmkCandidate, LmkOutcome};
use crate::mm::{MemoryManager, MmError};
use crate::page::Pid;
use serde::{Deserialize, Serialize};

/// Tuning knobs of the SWAM-style proactive reclaim daemon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwamParams {
    /// An app must have spent this many consecutive reclaim epochs (device
    /// ticks) in the background before the daemon considers it idle and
    /// starts swapping its cold pages out. Apps keep mutating in the
    /// background, so idleness is a fore/background property, not a
    /// zero-touch one; the working-set estimate decides *which* pages are
    /// cold.
    pub idle_epochs: u32,
    /// Upper bound on pages proactively swapped out of one app per tick, so
    /// a single tick never monopolises the swap device.
    pub batch_pages: u64,
    /// Dynamic swap-target sizing: when an app crosses the idle threshold
    /// the daemon grants it a one-shot swap-out quota of its cold bulk,
    /// capped at `swap_room / headroom_div` where `swap_room` is the back
    /// tier's free capacity at that moment. A bigger divisor leaves more
    /// swap for reactive reclaim and kills the quota sooner.
    pub headroom_div: u64,
    /// Pages an app is never proactively shrunk below, so a relaunch always
    /// finds a warm core resident.
    pub min_resident_pages: u64,
}

impl Default for SwamParams {
    fn default() -> Self {
        SwamParams { idle_epochs: 2, batch_pages: 256, headroom_div: 4, min_resident_pages: 512 }
    }
}

impl SwamParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_pages == 0 {
            return Err("swam batch_pages must be positive".into());
        }
        if self.headroom_div == 0 {
            return Err("swam headroom_div must be positive".into());
        }
        Ok(())
    }
}

/// Which reclaim policy drives the kernel's daemon tick.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ReclaimPolicy {
    /// The historical behaviour: watermark-driven kswapd, zram writeback,
    /// kills only under pressure. Event streams are bit-identical to the
    /// pre-driver hand-ticked sequence.
    #[default]
    Reactive,
    /// SWAM-style proactive reclaim: decayed per-process working-set
    /// tracking, idle-app swap-out ahead of pressure, and a dynamically
    /// sized swap target.
    Swam(SwamParams),
}

impl ReclaimPolicy {
    /// The Swam policy at its default tuning.
    pub fn swam() -> Self {
        ReclaimPolicy::Swam(SwamParams::default())
    }

    /// True for the proactive (Swam) variant.
    pub fn is_swam(&self) -> bool {
        matches!(self, ReclaimPolicy::Swam(_))
    }

    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ReclaimPolicy::Reactive => Ok(()),
            ReclaimPolicy::Swam(p) => p.validate(),
        }
    }
}

/// How the driver orders kill victims when memory must be freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KillPolicy {
    /// lmkd's classic oom-score order: the background, unpinned app least
    /// recently in the foreground dies first (ties break on lower pid).
    #[default]
    ColdestFirst,
    /// WSS-weighted oom-score: among background, unpinned apps, kill the
    /// one with the most resident pages *outside* its tracked working set —
    /// the kill that frees the most memory while evicting the least warm
    /// state. Ties break coldest-first, then on lower pid. Without
    /// working-set tracking every estimate reads zero and the score
    /// degenerates to "largest resident app".
    WssWeighted,
}

impl KillPolicy {
    /// Picks the kill victim among `candidates` under this policy, or
    /// `None` when nothing is killable (foreground and pinned processes
    /// are always exempt).
    pub fn choose(&self, mm: &MemoryManager, candidates: &[LmkCandidate]) -> Option<Pid> {
        match self {
            KillPolicy::ColdestFirst => coldest_victim(candidates),
            KillPolicy::WssWeighted => candidates
                .iter()
                .filter(|c| !c.foreground && !c.pinned)
                .max_by_key(|c| {
                    let resident = mm.process_mem(c.pid).resident;
                    let cold = resident.saturating_sub(mm.wss_estimate(c.pid));
                    (cold, std::cmp::Reverse(c.last_foreground), std::cmp::Reverse(c.pid))
                })
                .map(|c| c.pid),
        }
    }
}

/// One app's standing with the proactive daemon: how many consecutive
/// ticks it has been background, and how many pages of its current idle
/// spell's drain quota remain. The quota is granted once, when the app
/// crosses the idle threshold, so an idle spell drains an app's cold bulk
/// exactly once instead of chasing every page the app re-touches — the
/// churn guard that keeps the daemon from thrashing against background
/// mutators.
#[derive(Debug, Clone, Copy, Default)]
struct IdleState {
    epochs: u32,
    quota: u64,
}

/// The reclaim daemon: one deterministic tick over every reclaim mechanism,
/// plus policy-driven kill execution. Replaces the hand-ticked
/// kswapd/writeback/lmkd trio the device layer used to sequence itself.
#[derive(Debug, Clone)]
pub struct ReclaimDriver {
    policy: ReclaimPolicy,
    kill_policy: KillPolicy,
    /// Kills not yet reaped by the device layer (which owns the process
    /// table and must drop its side of each victim).
    kill_log: Vec<Pid>,
    /// Per-pid idle clock and one-shot drain quota (Swam only; reset on
    /// foreground, dropped when the pid leaves the candidate set).
    idle: std::collections::BTreeMap<Pid, IdleState>,
    total_kills: u64,
    escalations: u64,
    proactive_pages: u64,
}

impl ReclaimDriver {
    /// A fresh driver with an empty kill log.
    pub fn new(policy: ReclaimPolicy, kill_policy: KillPolicy) -> Self {
        ReclaimDriver {
            policy,
            kill_policy,
            kill_log: Vec::new(),
            idle: std::collections::BTreeMap::new(),
            total_kills: 0,
            escalations: 0,
            proactive_pages: 0,
        }
    }

    /// The active reclaim policy.
    pub fn policy(&self) -> ReclaimPolicy {
        self.policy
    }

    /// The active kill policy.
    pub fn kill_policy(&self) -> KillPolicy {
        self.kill_policy
    }

    /// Arms the kernel side of the policy: Swam enables the observe-only
    /// working-set tracker (Reactive leaves the kernel untouched, so the
    /// legacy paths stay bit-identical). Call once after construction.
    pub fn attach(&self, mm: &mut MemoryManager) {
        if self.policy.is_swam() {
            mm.enable_wss_tracking();
        }
    }

    /// One reclaim-daemon tick, in one deterministic order: the kswapd
    /// watermark scan, the zram writeback pass
    /// ([`MemoryManager::reclaim_tick`] — the legacy hand-ticked pair),
    /// then under Swam the working-set epoch advance and the proactive
    /// swap-out pass over idle background apps. Kill decisions stay with
    /// the caller (see [`ReclaimDriver::kill_one`] and
    /// [`ReclaimDriver::escalate`]) so the device layer can flush its audit
    /// ordering barrier before a victim's pages are unmapped.
    pub fn tick(&mut self, mm: &mut MemoryManager, candidates: &[LmkCandidate]) {
        mm.reclaim_tick();
        self.scrub_pass(mm);
        if let ReclaimPolicy::Swam(params) = self.policy {
            self.proactive_pass(mm, candidates, params);
        }
    }

    /// The background integrity scrubber's turn: one
    /// [`MemoryManager::scrub_tick`] step over cold slots (a no-op unless
    /// the integrity layer and its scrubber are enabled). Runs after the
    /// reclaim pair so a freshly-demoted slot is scrubbable the same tick.
    fn scrub_pass(&mut self, mm: &mut MemoryManager) {
        #[cfg(feature = "obs")]
        let cpu_before = mm.stats().kswapd_cpu_nanos;
        let Some(report) = mm.scrub_tick() else { return };
        let _ = &report;
        #[cfg(feature = "obs")]
        if mm.probes_mut().obs.is_enabled() {
            let dur = mm.stats().kswapd_cpu_nanos - cpu_before;
            let (scanned, detected) = (report.scanned, report.detected);
            mm.probes_mut().obs.push(move |_| {
                fleet_obs::ObsRecord::root(
                    0,
                    "scrub",
                    "kernel",
                    dur,
                    vec![("scanned", scanned), ("detected", detected)],
                )
            });
            if detected > 0 {
                mm.probes_mut().obs.push(move |_| fleet_obs::ObsRecord::Counter {
                    name: "kernel.corruptions_detected",
                    delta: detected,
                });
            }
        }
    }

    /// The Swam proactive pass: advance the WSS epoch, size the dynamic
    /// swap target from the idle apps' cold bulk, and swap the coldest
    /// pages of the idlest background apps out ahead of pressure.
    fn proactive_pass(
        &mut self,
        mm: &mut MemoryManager,
        candidates: &[LmkCandidate],
        params: SwamParams,
    ) {
        let samples = mm.wss_epoch();
        #[cfg(feature = "obs")]
        let cpu_before = mm.stats().kswapd_cpu_nanos;
        // Advance the fore/background idle clocks: one epoch per tick in
        // the background, reset the moment an app reaches the foreground,
        // forgotten when a pid leaves the candidate set (kill or unmap).
        self.idle.retain(|pid, _| candidates.iter().any(|c| c.pid == *pid));
        for c in candidates {
            if c.foreground || c.pinned {
                self.idle.remove(&c.pid);
                continue;
            }
            let state = self.idle.entry(c.pid).or_default();
            state.epochs += 1;
            // Crossing the idle threshold grants the one-shot drain quota:
            // the app's resident bulk outside its tracked working set
            // (never below the warm-core floor), sized against the swap
            // room actually free right now — the dynamically resized swap
            // target.
            if state.epochs == params.idle_epochs {
                let estimate = samples.iter().find(|s| s.pid == c.pid).map_or(0, |s| s.estimate);
                let resident = mm.process_mem(c.pid).resident;
                let cold = resident.saturating_sub(estimate.max(params.min_resident_pages));
                let swap_room =
                    mm.swap().back().capacity_pages().saturating_sub(mm.swap().back().used_pages());
                state.quota = cold.min(swap_room / params.headroom_div.max(1));
            }
        }
        // Drain granted quotas, coldest app first (oldest last_foreground;
        // ties on lower pid), at most `batch_pages` per app per tick so one
        // tick never monopolises the swap device.
        let mut order: Vec<(fleet_sim::SimTime, Pid)> = candidates
            .iter()
            .filter(|c| {
                self.idle.get(&c.pid).is_some_and(|s| s.epochs >= params.idle_epochs && s.quota > 0)
            })
            .map(|c| (c.last_foreground, c.pid))
            .collect();
        order.sort();
        let mut moved = 0u64;
        for (_, pid) in order {
            let state = self.idle.get_mut(&pid).expect("filtered above");
            let batch = state.quota.min(params.batch_pages);
            let out = mm.proactive_swap_out(pid, batch);
            moved += out;
            state.quota = if out < batch {
                // LRU ran dry or the swap partition filled: this spell is
                // done, do not retry every tick.
                0
            } else {
                state.quota - out
            };
        }
        self.proactive_pages += moved;
        #[cfg(feature = "obs")]
        if moved > 0 {
            let dur = mm.stats().kswapd_cpu_nanos - cpu_before;
            let free = mm.free_frames();
            mm.probes_mut().obs.push(move |_| {
                fleet_obs::ObsRecord::root(
                    0,
                    "proactive_reclaim",
                    "kernel",
                    dur,
                    vec![("reclaimed", moved), ("free_frames", free)],
                )
            });
            mm.probes_mut().obs.push(move |_| fleet_obs::ObsRecord::Counter {
                name: "kernel.proactive_swapout_pages",
                delta: moved,
            });
        }
    }

    /// Kills the single best victim under the kill policy, unmapping all
    /// its pages. Returns the victim and the frames freed, or `None` when
    /// nothing is killable.
    pub fn kill_one(
        &mut self,
        mm: &mut MemoryManager,
        candidates: &[LmkCandidate],
    ) -> Option<(Pid, u64)> {
        let victim = self.kill_policy.choose(mm, candidates)?;
        let freed = self.execute(mm, victim);
        Some((victim, freed))
    }

    /// Escalating kill round: terminates candidates in policy order until
    /// `mm.free_frames()` reaches `target_free_frames`. Kills performed
    /// before a failure stay in the kill log; the caller must still reap
    /// them via [`ReclaimDriver::drain_kills`].
    ///
    /// # Errors
    ///
    /// [`MmError::OutOfMemory`] when no killable candidate remains and the
    /// target is still unmet.
    pub fn escalate(
        &mut self,
        mm: &mut MemoryManager,
        candidates: &[LmkCandidate],
        target_free_frames: u64,
    ) -> Result<LmkOutcome, MmError> {
        self.escalations += 1;
        let mut remaining: Vec<LmkCandidate> = candidates.to_vec();
        let mut out = LmkOutcome::default();
        while mm.free_frames() < target_free_frames {
            let Some(victim) = self.kill_policy.choose(mm, &remaining) else {
                return Err(MmError::OutOfMemory);
            };
            remaining.retain(|c| c.pid != victim);
            let freed = self.execute(mm, victim);
            out.killed.push(victim);
            out.freed_frames += freed;
        }
        Ok(out)
    }

    /// Unmaps the victim and records the kill.
    fn execute(&mut self, mm: &mut MemoryManager, victim: Pid) -> u64 {
        let freed = mm.unmap_process(victim);
        mm.note_lmk_kill(victim, freed);
        self.kill_log.push(victim);
        self.total_kills += 1;
        freed
    }

    /// Takes the kills the device layer has not yet reaped (process-table
    /// removal, kill records, audit `ProcessKill`).
    pub fn drain_kills(&mut self) -> Vec<Pid> {
        std::mem::take(&mut self.kill_log)
    }

    /// Total kills executed over the driver's lifetime.
    pub fn total_kills(&self) -> u64 {
        self.total_kills
    }

    /// Escalation rounds started over the driver's lifetime.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Pages the proactive daemon has swapped out over its lifetime.
    pub fn proactive_pages(&self) -> u64 {
        self.proactive_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm::MmConfig;
    use crate::page::PAGE_SIZE;
    use crate::swap::SwapConfig;
    use fleet_sim::SimTime;

    fn cand(pid: u32, fg: bool, last: u64) -> LmkCandidate {
        LmkCandidate {
            pid: Pid(pid),
            foreground: fg,
            last_foreground: SimTime::from_secs(last),
            pinned: false,
        }
    }

    fn small_mm(frames: u64, swap_pages: u64) -> MemoryManager {
        MemoryManager::new(MmConfig {
            dram_bytes: frames * PAGE_SIZE,
            swap: SwapConfig { capacity_bytes: swap_pages * PAGE_SIZE, ..SwapConfig::default() },
            low_watermark_frames: 0,
            high_watermark_frames: 0,
            ..MmConfig::small_test()
        })
    }

    #[test]
    fn coldest_first_matches_legacy_choice() {
        let mm = small_mm(16, 16);
        let procs = [cand(1, false, 30), cand(2, false, 5), cand(3, true, 0)];
        assert_eq!(KillPolicy::ColdestFirst.choose(&mm, &procs), Some(Pid(2)));
        assert_eq!(KillPolicy::ColdestFirst.choose(&mm, &[cand(3, true, 0)]), None);
    }

    #[test]
    fn wss_weighted_kills_the_most_cold_bulk() {
        let mut mm = small_mm(64, 64);
        mm.enable_wss_tracking();
        // Pid 1: big but entirely warm. Pid 2: smaller but all cold.
        mm.map_range(Pid(1), 0, 20 * PAGE_SIZE).unwrap();
        mm.map_range(Pid(2), 0, 12 * PAGE_SIZE).unwrap();
        mm.access(Pid(1), 0, 20 * PAGE_SIZE, crate::mm::AccessKind::Mutator);
        mm.wss_epoch(); // pid 1 estimate ≈ 20, pid 2 estimate 0
        let procs = [cand(1, false, 10), cand(2, false, 20)];
        assert_eq!(KillPolicy::WssWeighted.choose(&mm, &procs), Some(Pid(2)));
    }

    #[test]
    fn driver_escalates_like_lmkd() {
        let mut mm = small_mm(16, 0);
        mm.map_range(Pid(1), 0, 6 * PAGE_SIZE).unwrap();
        mm.map_range(Pid(2), 0, 6 * PAGE_SIZE).unwrap();
        mm.map_range(Pid(3), 0, 4 * PAGE_SIZE).unwrap();
        let candidates = [cand(1, false, 10), cand(2, false, 20), cand(3, false, 30)];
        let mut driver = ReclaimDriver::new(ReclaimPolicy::Reactive, KillPolicy::ColdestFirst);
        let out = driver.escalate(&mut mm, &candidates, 10).unwrap();
        assert_eq!(out.killed, vec![Pid(1), Pid(2)]);
        assert_eq!(out.freed_frames, 12);
        assert_eq!(driver.drain_kills(), vec![Pid(1), Pid(2)]);
        assert_eq!(driver.total_kills(), 2);
        assert_eq!(driver.escalations(), 1);
        mm.validate();
    }

    #[test]
    fn reactive_tick_equals_hand_ticked_daemons() {
        let build = || {
            let mut mm = MemoryManager::new(MmConfig::small_test());
            mm.map_range(Pid(1), 0, 300 * PAGE_SIZE).unwrap();
            mm.access(Pid(1), 0, 40 * PAGE_SIZE, crate::mm::AccessKind::Mutator);
            mm
        };
        let mut a = build();
        let mut b = build();
        let mut driver = ReclaimDriver::new(ReclaimPolicy::Reactive, KillPolicy::ColdestFirst);
        driver.tick(&mut a, &[]);
        b.kswapd();
        b.zram_writeback();
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.free_frames(), b.free_frames());
        a.validate();
    }

    #[test]
    fn swam_tick_swaps_idle_apps_ahead_of_pressure() {
        let mut mm = small_mm(256, 256);
        let params = SwamParams { idle_epochs: 1, min_resident_pages: 8, ..SwamParams::default() };
        let mut driver = ReclaimDriver::new(ReclaimPolicy::Swam(params), KillPolicy::WssWeighted);
        driver.attach(&mut mm);
        mm.map_range(Pid(1), 0, 200 * PAGE_SIZE).unwrap();
        mm.map_range(Pid(2), 0, 40 * PAGE_SIZE).unwrap();
        // Pid 2 stays busy; pid 1 goes idle.
        let candidates = [cand(1, false, 0), cand(2, true, 100)];
        for _ in 0..4 {
            mm.access(Pid(2), 0, 40 * PAGE_SIZE, crate::mm::AccessKind::Mutator);
            driver.tick(&mut mm, &candidates);
        }
        assert!(driver.proactive_pages() > 0, "idle app should be proactively swapped");
        assert!(mm.process_mem(Pid(1)).swapped > 0);
        assert!(mm.process_mem(Pid(1)).resident >= 8, "warm core must stay resident");
        assert_eq!(mm.process_mem(Pid(2)).swapped, 0, "busy foreground app untouched");
        assert!(mm.stats().proactive_swapout_pages > 0);
        mm.validate();
    }

    #[test]
    fn reactive_never_touches_wss_or_proactive_counters() {
        let mut mm = small_mm(64, 64);
        let mut driver = ReclaimDriver::new(ReclaimPolicy::Reactive, KillPolicy::ColdestFirst);
        driver.attach(&mut mm);
        mm.map_range(Pid(1), 0, 32 * PAGE_SIZE).unwrap();
        mm.access(Pid(1), 0, 32 * PAGE_SIZE, crate::mm::AccessKind::Mutator);
        driver.tick(&mut mm, &[cand(1, false, 0)]);
        assert!(!mm.wss_tracking_enabled());
        assert_eq!(mm.wss_estimate(Pid(1)), 0);
        assert_eq!(driver.proactive_pages(), 0);
        assert_eq!(mm.stats().proactive_swapout_pages, 0);
    }
}
