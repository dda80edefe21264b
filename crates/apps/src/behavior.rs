//! The live behaviour of a modelled app: graph construction, foreground
//! use, background residence and hot-launch access sets.
//!
//! The model encodes the empirical regularities of §4 of the paper
//! *generatively*, so that Fleet's mechanisms are predictive rather than
//! circular:
//!
//! * the object graph has a shallow framework tier (≈10% of bytes within
//!   BFS depth 2 of the roots — the eventual NRO) and deep data structures
//!   hanging off it (Figure 6b's depth analysis),
//! * foreground use allocates at a realistic rate; a configurable fraction
//!   of allocations is dropped immediately (dies at the next GC), the rest
//!   attaches to the graph,
//! * background residence allocates almost nothing and touches only a small
//!   working set (Figure 4's quiet middle period; §4.1's BGO die young),
//! * the hot-launch access set is sampled from *ground-truth graph
//!   properties at launch time* — depth from roots, allocation recency,
//!   working-set membership — with the probabilities in
//!   [`LaunchModel`](crate::profile::LaunchModel). Fleet's grouping decision
//!   was taken earlier, at background time, so its launch regions are a
//!   *prediction* of this set, exactly as on a real device.

use crate::profile::AppProfile;
use fleet_heap::{depth_map, AllocContext, Heap, ObjectId, ObjectMarks};
use fleet_sim::SimRng;
use std::collections::{HashSet, VecDeque};

/// How many objects the young-allocation window remembers.
const RECENT_WINDOW: usize = 4096;

/// BFS depth of the framework tier (matches the paper's D = 2 default, but
/// the graph is built independently of Fleet's parameter — see Figure 6b's
/// depth sweep, which only works if the graph has structure past depth 2).
const FRAMEWORK_DEPTH_BYTES_FRACTION: f64 = 0.095;

/// The sampled hot-launch working set.
#[derive(Debug, Clone, Default)]
pub struct LaunchAccess {
    /// Live objects the launch will touch, in a deterministic order.
    pub objects: Vec<ObjectId>,
    /// Bytes of fresh allocations performed during the launch.
    pub alloc_bytes: u64,
}

/// One step's worth of mutator activity.
#[derive(Debug, Clone, Default)]
pub struct StepOutcome {
    /// Objects the mutator accessed this step.
    pub accessed: Vec<ObjectId>,
    /// Bytes allocated this step.
    pub allocated_bytes: u64,
}

/// The behaviour engine for one app instance.
///
/// # Examples
///
/// ```
/// use fleet_apps::{profile_by_name, AppBehavior};
/// use fleet_heap::{Heap, HeapConfig};
/// use fleet_sim::SimRng;
///
/// let profile = profile_by_name("Twitter").unwrap();
/// let mut heap = Heap::new(HeapConfig::default());
/// let mut app = AppBehavior::new(profile, SimRng::seed_from(7));
/// app.build_initial_graph(&mut heap, 2 * 1024 * 1024);
/// assert!(heap.live_bytes() >= 2 * 1024 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct AppBehavior {
    profile: AppProfile,
    rng: SimRng,
    /// Framework-tier nodes new data structures attach to.
    attach_points: Vec<ObjectId>,
    /// Recently allocated, graph-attached foreground objects.
    recent: VecDeque<ObjectId>,
    /// Background working set, chosen when the app is backgrounded.
    ws: HashSet<ObjectId>,
    /// Snapshot of `recent` at the moment of backgrounding (the ground truth
    /// behind FYO).
    young_at_switch: HashSet<ObjectId>,
}

impl AppBehavior {
    /// Creates a behaviour engine from a profile and a dedicated RNG stream.
    pub fn new(profile: AppProfile, rng: SimRng) -> Self {
        AppBehavior {
            profile,
            rng,
            attach_points: Vec::new(),
            recent: VecDeque::new(),
            ws: HashSet::new(),
            young_at_switch: HashSet::new(),
        }
    }

    /// The app profile.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// The current background working set (empty while foreground).
    pub fn working_set(&self) -> &HashSet<ObjectId> {
        &self.ws
    }

    // -------------------------------------------------------------- building

    /// Builds the warmed-up foreground object graph: roots, a shallow
    /// framework tier, and deep data structures, totalling at least
    /// `target_bytes` of live objects.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-empty heap.
    pub fn build_initial_graph(&mut self, heap: &mut Heap, target_bytes: u64) {
        assert_eq!(heap.live_objects(), 0, "graph must be built on a fresh heap");
        let framework_budget = (target_bytes as f64 * FRAMEWORK_DEPTH_BYTES_FRACTION) as u64;

        // Roots: thread stacks, class loaders, statics.
        let mut roots = Vec::new();
        for _ in 0..16 {
            let r = heap.alloc(self.sample_size());
            heap.add_root(r);
            roots.push(r);
        }

        // Framework tier: depth-1 and depth-2 nodes under the roots.
        while heap.live_bytes() < framework_budget {
            let &root = self.rng.choose(&roots).expect("roots are non-empty");
            let mid = heap.alloc(self.sample_size());
            heap.add_ref(root, mid);
            self.attach_points.push(mid);
            let fanout = self.rng.range(2, 5);
            for _ in 0..fanout {
                if heap.live_bytes() >= framework_budget {
                    break;
                }
                let leaf = heap.alloc(self.sample_size());
                heap.add_ref(mid, leaf);
                self.attach_points.push(leaf);
            }
        }

        // Degenerate case (large objects or tiny targets): the roots alone
        // can exceed the framework budget, leaving no attach points. Fall
        // back to attaching data directly under the roots.
        if self.attach_points.is_empty() {
            self.attach_points.extend(roots.iter().copied());
        }

        // Data tier: chains hanging off framework nodes, depths 3 and past.
        while heap.live_bytes() < target_bytes {
            let &attach = self.rng.choose(&self.attach_points).expect("framework built above");
            let mut prev = attach;
            let chain = self.rng.range(6, 14);
            for _ in 0..chain {
                let node = heap.alloc(self.sample_size());
                heap.add_ref(prev, node);
                prev = node;
            }
        }
    }

    fn sample_size(&mut self) -> u32 {
        self.profile.size_dist.sample(&mut self.rng).max(16)
    }

    // ------------------------------------------------------------ mutator use

    /// One slice of foreground mutator activity covering `dt_secs`.
    ///
    /// Allocates at the profile's foreground rate (a `fg_garbage_ratio`
    /// share is dropped immediately), occasionally discards an old data
    /// chain ("timeline refresh"), and reports the objects it accessed.
    pub fn foreground_step(&mut self, heap: &mut Heap, dt_secs: f64) -> StepOutcome {
        let mut out = StepOutcome::default();
        let budget = (self.profile.fg_alloc_mib_per_sec * dt_secs * 1024.0 * 1024.0) as u64;
        while out.allocated_bytes < budget {
            let size = self.sample_size();
            let obj = heap.alloc(size);
            out.allocated_bytes += size as u64;
            if self.rng.chance(self.profile.fg_garbage_ratio) {
                // Never attached: garbage at the next collection.
                continue;
            }
            let target = self.pick_attach_target(heap);
            heap.add_ref(target, obj);
            self.push_recent(obj);
        }

        // Occasionally drop an old data structure: long-lived garbage.
        if self.rng.chance(0.2 * dt_secs.min(1.0)) {
            self.drop_random_subtree(heap);
        }

        out.accessed = self.sample_accesses(heap, (dt_secs * 400.0) as usize);
        out
    }

    /// One slice of background residence: near-zero allocation, working-set
    /// accesses only (Figure 4's quiet background period).
    pub fn background_step(&mut self, heap: &mut Heap, dt_secs: f64) -> StepOutcome {
        let mut out = StepOutcome::default();
        let budget = (self.profile.bg_alloc_mib_per_sec * dt_secs * 1024.0 * 1024.0) as u64;
        while out.allocated_bytes < budget {
            let size = self.sample_size();
            let obj = heap.alloc(size);
            out.allocated_bytes += size as u64;
            // §4.1: BGO die young — most are never attached.
            if !self.rng.chance(self.profile.bg_garbage_ratio) {
                let target = self.pick_attach_target(heap);
                heap.add_ref(target, obj);
            }
        }
        // Occasionally a cached app drops foreground state too (expired
        // caches, finished tasks) — the slow FGO death tail of Figure 5a.
        if self.rng.chance(0.05 * dt_secs.min(1.0)) {
            self.drop_random_subtree(heap);
        }
        let mut ws: Vec<ObjectId> = self.ws.iter().copied().filter(|&o| heap.contains(o)).collect();
        ws.sort_unstable(); // HashSet order is not deterministic; sampling must be
        let n = ((dt_secs * 8.0) as usize).min(ws.len());
        for _ in 0..n {
            if let Some(&obj) = self.rng.choose(&ws) {
                out.accessed.push(obj);
            }
        }
        out
    }

    fn pick_attach_target(&mut self, heap: &Heap) -> ObjectId {
        // Prefer attaching under recent structures, falling back to the
        // framework tier; both are pruned of dead ids lazily.
        for _ in 0..8 {
            let from_recent = !self.recent.is_empty() && self.rng.chance(0.6);
            let candidate = if from_recent {
                let idx = self.rng.index(self.recent.len());
                self.recent[idx]
            } else {
                let idx = self.rng.index(self.attach_points.len());
                self.attach_points[idx]
            };
            if heap.contains(candidate) {
                return candidate;
            }
        }
        // Last resort: a root (roots are always live).
        *self.rng.choose(heap.roots()).expect("heap has roots")
    }

    fn push_recent(&mut self, obj: ObjectId) {
        self.recent.push_back(obj);
        while self.recent.len() > RECENT_WINDOW {
            self.recent.pop_front();
        }
    }

    fn drop_random_subtree(&mut self, heap: &mut Heap) {
        if self.attach_points.is_empty() {
            return;
        }
        let idx = self.rng.index(self.attach_points.len());
        let attach = self.attach_points[idx];
        if heap.contains(attach) {
            let refs = heap.object(attach).refs().to_vec();
            if let Some(&victim) = self.rng.choose(&refs) {
                heap.remove_ref(attach, victim);
            }
        }
    }

    fn sample_accesses(&mut self, heap: &Heap, n: usize) -> Vec<ObjectId> {
        let mut accessed = Vec::with_capacity(n);
        for _ in 0..n {
            let obj = if !self.recent.is_empty() && self.rng.chance(0.6) {
                self.recent[self.rng.index(self.recent.len())]
            } else if self.rng.chance(0.7) && !self.attach_points.is_empty() {
                self.attach_points[self.rng.index(self.attach_points.len())]
            } else {
                // A short random walk into the data tier.
                let mut cur = *self.rng.choose(heap.roots()).expect("heap has roots");
                for _ in 0..self.rng.range(2, 8) {
                    let Some(o) = heap.try_object(cur) else { break };
                    match self.rng.choose(o.refs()) {
                        Some(&next) if heap.contains(next) => cur = next,
                        _ => break,
                    }
                }
                cur
            };
            if heap.contains(obj) {
                accessed.push(obj);
            }
        }
        accessed
    }

    // ----------------------------------------------------- state transitions

    /// Called when the app is switched to the background: snapshots the
    /// young-allocation window (the ground truth behind FYO) and picks the
    /// background working set.
    pub fn enter_background(&mut self, heap: &Heap) {
        self.young_at_switch = self.recent.iter().copied().filter(|&o| heap.contains(o)).collect();
        // Working set: a small slice of framework plus the most recent data.
        self.ws.clear();
        let live_attach: Vec<ObjectId> =
            self.attach_points.iter().copied().filter(|&o| heap.contains(o)).collect();
        let ws_target = (live_attach.len() / 8).clamp(4, 2000);
        for _ in 0..ws_target {
            if let Some(&o) = self.rng.choose(&live_attach) {
                self.ws.insert(o);
            }
        }
        for &o in self.recent.iter().rev().take(64) {
            if heap.contains(o) {
                self.ws.insert(o);
            }
        }
    }

    /// Called when the app returns to the foreground. The young-allocation
    /// window resets: "young" means *this* foreground session, matching the
    /// FYO definition (allocated since the last GC before backgrounding).
    pub fn enter_foreground(&mut self) {
        self.ws.clear();
        self.young_at_switch.clear();
        self.recent.clear();
    }

    /// Drops dead ids from the internal caches. Call after every GC.
    pub fn prune(&mut self, heap: &Heap) {
        self.attach_points.retain(|&o| heap.contains(o));
        self.recent.retain(|&o| heap.contains(o));
        self.ws.retain(|&o| heap.contains(o));
        self.young_at_switch.retain(|&o| heap.contains(o));
    }

    // ------------------------------------------------------------ hot launch

    /// Samples the set of live objects the next hot-launch will touch, from
    /// ground-truth graph properties (§4.2's analysis): objects near the
    /// roots, objects allocated just before backgrounding, working-set
    /// objects, and a thin scattering of everything else.
    pub fn launch_access(&mut self, heap: &Heap) -> LaunchAccess {
        let model = self.profile.launch;
        let depths = depth_map(heap, None);
        let mut objects = Vec::new();
        let mut included = ObjectMarks::for_heap(heap);
        // Ascending id order: the RNG draws below follow it.
        for obj in heap.object_ids() {
            let o = heap.object(obj);
            if o.context() == AllocContext::Background && !self.ws.contains(&obj) {
                continue; // background bookkeeping is not launch state
            }
            enum Class {
                Warm(f64),
                ColdSeed,
            }
            let class = match depths.get(obj) {
                Some(d) if d <= 2 => Class::Warm(model.near_root_reaccess),
                _ if self.young_at_switch.contains(&obj) => Class::Warm(model.young_reaccess),
                _ if self.ws.contains(&obj) => Class::Warm(model.ws_reaccess),
                Some(_) => Class::ColdSeed,
                None => Class::Warm(0.0), // unreachable garbage cannot be accessed
            };
            match class {
                Class::Warm(p) => {
                    if self.rng.chance(p) && included.insert(obj) {
                        objects.push(obj);
                    }
                }
                Class::ColdSeed => {
                    // Cold re-access is seed + data chain: re-opening one
                    // screen reloads a whole structure, not one random
                    // object. This keeps cold faults few and clustered.
                    if self.rng.chance(model.cold_reaccess) {
                        let mut cur = obj;
                        for _ in 0..6 {
                            if included.insert(cur) {
                                objects.push(cur);
                            }
                            match heap.object(cur).refs().first() {
                                Some(&next) if heap.contains(next) => cur = next,
                                _ => break,
                            }
                        }
                    }
                }
            }
        }
        let alloc_bytes = (heap.live_bytes() as f64 * model.launch_alloc_frac) as u64;
        LaunchAccess { objects, alloc_bytes }
    }

    /// Performs the fresh allocations of a launch burst (§4.2: "during a
    /// hot-launch, many new objects are created quickly").
    pub fn launch_allocate(&mut self, heap: &mut Heap, bytes: u64) -> u64 {
        let mut allocated = 0;
        while allocated < bytes {
            let size = self.sample_size();
            let obj = heap.alloc(size);
            allocated += size as u64;
            if !self.rng.chance(0.5) {
                let target = self.pick_attach_target(heap);
                heap.add_ref(target, obj);
                self.push_recent(obj);
            }
        }
        allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{profile_by_name, synthetic_app};
    use fleet_heap::HeapConfig;

    fn build(name: &str, bytes: u64) -> (Heap, AppBehavior) {
        let mut heap = Heap::new(HeapConfig::default());
        let mut app = AppBehavior::new(profile_by_name(name).unwrap(), SimRng::seed_from(42));
        app.build_initial_graph(&mut heap, bytes);
        (heap, app)
    }

    #[test]
    fn graph_reaches_target_bytes() {
        let (heap, _) = build("Twitter", 1_000_000);
        assert!(heap.live_bytes() >= 1_000_000);
        assert!(heap.live_bytes() < 1_100_000, "overshoot should be one chain at most");
    }

    #[test]
    fn framework_tier_is_about_ten_percent() {
        let (heap, _) = build("Twitter", 2_000_000);
        let depths = depth_map(&heap, Some(2));
        let shallow_bytes: u64 = depths.iter().map(|(o, _)| heap.object(o).size() as u64).sum();
        let frac = shallow_bytes as f64 / heap.live_bytes() as f64;
        // Figure 6a: NRO at D=2 occupy ≈10.4% of memory.
        assert!((0.05..0.18).contains(&frac), "shallow fraction {frac}");
    }

    #[test]
    fn graph_has_structure_past_depth_two() {
        let (heap, _) = build("Facebook", 1_000_000);
        let all = depth_map(&heap, None);
        let max_depth = all.iter().map(|(_, d)| d).max().unwrap();
        assert!(max_depth >= 6, "data tier should be deep, got {max_depth}");
    }

    #[test]
    fn foreground_step_allocates_and_accesses() {
        let (mut heap, mut app) = build("Twitter", 500_000);
        let before = heap.live_bytes();
        let out = app.foreground_step(&mut heap, 1.0);
        assert!(out.allocated_bytes >= 1024 * 1024, "1.2 MiB/s rate");
        assert!(!out.accessed.is_empty());
        assert!(heap.live_bytes() > before);
        // Some of the allocation is garbage (unattached → unreachable).
        let reachable = fleet_heap::reachable_set(&heap);
        assert!(
            (reachable.len() as u64) < heap.live_objects(),
            "unattached garbage should be unreachable"
        );
    }

    #[test]
    fn background_step_is_quiet() {
        let (mut heap, mut app) = build("Twitter", 500_000);
        app.enter_background(&heap);
        heap.set_context(fleet_heap::AllocContext::Background);
        let fg = app.foreground_step(&mut heap, 1.0).allocated_bytes;
        let bg = app.background_step(&mut heap, 1.0).allocated_bytes;
        assert!(bg * 5 < fg, "background allocation must be much smaller: {bg} vs {fg}");
    }

    #[test]
    fn launch_access_prefers_near_roots_and_young() {
        let (mut heap, mut app) = build("Twitter", 1_000_000);
        app.foreground_step(&mut heap, 2.0);
        app.enter_background(&heap);
        let access = app.launch_access(&heap);
        assert!(!access.objects.is_empty());
        let depths = depth_map(&heap, None);
        let near: Vec<ObjectId> = depths.iter().filter(|&(_, d)| d <= 2).map(|(o, _)| o).collect();
        let near_set: HashSet<ObjectId> = near.iter().copied().collect();
        let accessed_near = access.objects.iter().filter(|o| near_set.contains(o)).count();
        let near_rate = accessed_near as f64 / near.len() as f64;
        // Most near-root objects are re-accessed…
        assert!(near_rate > 0.7, "near-root re-access rate {near_rate}");
        // …while the overall set is a small fraction of the heap.
        let total_rate = access.objects.len() as f64 / heap.live_objects() as f64;
        assert!(total_rate < 0.4, "total re-access fraction {total_rate}");
    }

    #[test]
    fn launch_alloc_burst_matches_fraction() {
        let (mut heap, mut app) = build("Twitter", 500_000);
        app.enter_background(&heap);
        let access = app.launch_access(&heap);
        let expect = (heap.live_bytes() as f64 * app.profile().launch.launch_alloc_frac) as u64;
        assert_eq!(access.alloc_bytes, expect);
        let done = app.launch_allocate(&mut heap, access.alloc_bytes);
        assert!(done >= access.alloc_bytes);
    }

    #[test]
    fn prune_drops_dead_ids() {
        let (mut heap, mut app) = build("Twitter", 300_000);
        app.foreground_step(&mut heap, 0.5);
        app.enter_background(&heap);
        // Free all unattached garbage via a full trace by hand: simply prune
        // against a heap where we free one recent object.
        let victim = *app.recent.back().unwrap();
        // Detach from wherever it hangs, then free.
        let ids: Vec<ObjectId> = heap.object_ids().collect();
        for id in ids {
            if heap.object(id).refs().contains(&victim) {
                heap.remove_ref(id, victim);
            }
        }
        heap.free_object(victim);
        app.prune(&heap);
        assert!(!app.recent.contains(&victim));
        assert!(!app.ws.contains(&victim));
    }

    #[test]
    fn synthetic_app_builds_constant_objects() {
        let mut heap = Heap::new(HeapConfig::default());
        let mut app = AppBehavior::new(synthetic_app(512, 180), SimRng::seed_from(1));
        app.build_initial_graph(&mut heap, 512 * 1000);
        let ids: Vec<ObjectId> = heap.object_ids().collect();
        assert!(ids.iter().all(|&o| heap.object(o).size() == 512));
    }

    #[test]
    fn deterministic_across_same_seed() {
        let (heap_a, _) = build("Twitter", 400_000);
        let (heap_b, _) = build("Twitter", 400_000);
        assert_eq!(heap_a.live_bytes(), heap_b.live_bytes());
        assert_eq!(heap_a.live_objects(), heap_b.live_objects());
    }
}
