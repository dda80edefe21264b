//! Golden for the collectors' paths through the heap.
//!
//! The workspace goldens (`tests/golden/*.txt`) and the benchmark
//! fingerprints run quiet fault plans only, where every copy is granted, so
//! nothing there pins an aborted evacuation: the touches and copies after
//! the abort, the `EvacAbort` event, the `gc_evac_abort` span, or the cards
//! a collector keeps for the objects it left in place. Seeded scripts pin
//! them here. Each script mutates a small heap (4 KiB regions, so every
//! collection spans several) and runs all five collectors: the grouping GC
//! both full and incremental, and Marvin with bookmarked objects. Every
//! collection runs through a recording `MemoryTouch` that grants every copy
//! or only the first k, and `validate_refs` runs after it.
//!
//! Each script folds three FNV-1a hashes: its outcomes (each step's result;
//! for a collection its `GcStats`, every touch and budget answer, the
//! `GroupingOutcome`, the heap events, the dirty cards and each live
//! object's region, offset and class), the audit events and the obs records.
//! The outcome hash is always checked; the audit and obs hashes only when
//! their feature is on. Re-bless (with both features, so every column is
//! filled) with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --release -p fleet-gc --features audit,obs --test gc_paths
//! ```

use fleet_gc::{
    BackgroundObjectGc, Collector, FullCopyingGc, GcCostModel, GcStats, GroupingGc, MarvinGc,
    MemoryTouch, MinorGc,
};
use fleet_heap::{AllocContext, Heap, HeapConfig, ObjectId, RegionKind};
use fleet_sim::SimDuration;
use std::collections::{BTreeSet, HashSet};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Steps per script.
const STEPS: usize = 500;
/// One script per seed.
const SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];

/// SplitMix64: the script generator, independent of the simulator's RNG.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A live object, if any.
    fn pick(&mut self, heap: &Heap) -> Option<ObjectId> {
        let live = heap.live_objects();
        (live > 0).then(|| heap.object_ids().nth(self.below(live) as usize).expect("live object"))
    }
}

/// FNV-1a over a stream of lines.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn line(&mut self, line: &str) {
        for b in line.bytes().chain([b'\n']) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Folds every touch and budget answer into the outcome hash. It grants
/// `grants` copies (all of them for `None`) and then denies the rest, and
/// stalls each touch by an amount derived from its address, so the stall
/// accounting and the spans' offsets are pinned too.
struct Recorder<'a> {
    out: &'a mut Fnv,
    grants: Option<u64>,
}

impl MemoryTouch for Recorder<'_> {
    fn touch(&mut self, addr: u64, size: u32) -> SimDuration {
        self.out.line(&format!("touch {addr} {size}"));
        SimDuration::from_nanos((addr >> 6) % 8 * 250)
    }

    fn copy_budget(&mut self, bytes: u64) -> bool {
        let granted = match &mut self.grants {
            None => true,
            Some(0) => false,
            Some(k) => {
                *k -= 1;
                true
            }
        };
        self.out.line(&format!("budget {bytes} -> {granted}"));
        granted
    }
}

/// One script's state: the heap, its first root and the persistent
/// collector state (Marvin's bookmarks, whether a grouping ran yet).
struct Script {
    heap: Heap,
    root: ObjectId,
    marvin: MarvinGc,
    grouped: bool,
}

/// What one script pinned, plus what it reached (for the coverage check).
struct Run {
    outcome: u64,
    audit: u64,
    events: u64,
    obs: u64,
    records: u64,
    reached: BTreeSet<&'static str>,
}

/// Runs one collection through a [`Recorder`] and folds its outcome.
fn collect(
    s: &mut Script,
    g: &mut Gen,
    out: &mut Fnv,
    reached: &mut BTreeSet<&'static str>,
) -> String {
    let which = g.below(6);
    let grants = (g.below(2) == 0).then(|| g.below(12));
    let heap = &mut s.heap;
    let cost = GcCostModel::default();
    let mut touch = Recorder { out, grants };
    let (name, stats, grouping): (_, GcStats, _) = match which {
        0 => ("full", FullCopyingGc::new(cost).collect(heap, &mut touch), None),
        1 => ("minor", MinorGc::new(cost).collect(heap, &mut touch), None),
        2 => ("bgc", BackgroundObjectGc::new(cost).collect(heap, &mut touch), None),
        3 | 4 => {
            let incremental = which == 4 && s.grouped;
            s.grouped = true;
            if incremental {
                // The cards the incremental grouping scans for cold sources.
                let cold_source = heap.cards().dirty_cards().any(|card| {
                    heap.objects_in_card(card)
                        .iter()
                        .any(|&o| heap.region(heap.object(o).region()).kind() == RegionKind::Cold)
                });
                if cold_source {
                    reached.insert("cold_source");
                }
            }
            let depth = g.below(3) as u32;
            let ws: HashSet<ObjectId> = (0..g.below(4)).filter_map(|_| g.pick(heap)).collect();
            let (stats, outcome) = GroupingGc::new(cost, depth, ws)
                .with_incremental(incremental)
                .collect_grouping(heap, &mut touch);
            let name = if incremental { "grouping_incremental" } else { "grouping" };
            (name, stats, Some(outcome))
        }
        _ => {
            if s.marvin.state().stub_count() > 0 {
                reached.insert("marvin_stubs");
            }
            ("marvin", s.marvin.collect(heap, &mut touch), None)
        }
    };
    if stats.evac_aborted {
        reached.insert(
            ["full_abort", "minor_abort", "bgc_abort", "grouping_abort", "grouping_abort"]
                [which as usize],
        );
    }
    heap.validate_refs().unwrap_or_else(|err| panic!("{name} left the heap invalid: {err}"));

    // Bookmarks of objects another collector freed are dropped, as the
    // scheme layer drops the stubs of dead objects.
    let dead: Vec<ObjectId> =
        s.marvin.state().swapped_objects().filter(|&o| !heap.contains(o)).collect();
    for o in dead {
        s.marvin.state_mut().mark_resident(o);
    }

    out.line(&format!("{name} grants={grants:?} {stats:?}"));
    if let Some(outcome) = grouping {
        out.line(&format!("{outcome:?}"));
    }
    out.line(&format!("events {:?}", heap.drain_events()));
    out.line(&format!("cards {:?}", heap.cards().dirty_cards().collect::<Vec<_>>()));
    for id in heap.object_ids() {
        let o = heap.object(id);
        out.line(&format!("{id} {} +{} {:?}", o.region(), o.offset(), o.class()));
    }
    format!("collect {name}")
}

/// Runs one step, returning its outcome line.
fn step(
    s: &mut Script,
    g: &mut Gen,
    out: &mut Fnv,
    reached: &mut BTreeSet<&'static str>,
) -> String {
    let heap = &mut s.heap;
    match g.below(32) {
        0..=9 => {
            let size = if g.below(4) == 0 { 1024 + g.below(1024) } else { 16 + g.below(400) };
            let obj = heap.alloc(size as u32);
            let anchor = if g.below(4) == 0 { None } else { g.pick(heap) };
            if let Some(from) = anchor.filter(|&from| from != obj) {
                heap.add_ref(from, obj);
            }
            format!("alloc {size} -> {obj} under {anchor:?}")
        }
        10..=13 => match (g.pick(heap), g.pick(heap)) {
            (Some(from), Some(to)) => {
                heap.add_ref(from, to);
                format!("link {from} {to}")
            }
            _ => "link none".into(),
        },
        14 | 15 => {
            let from = g.pick(heap);
            let to = from.and_then(|f| heap.object(f).refs().first().copied());
            if let (Some(from), Some(to)) = (from, to) {
                heap.remove_ref(from, to);
            }
            format!("unlink {from:?} {to:?}")
        }
        16 => {
            let next = match heap.context() {
                AllocContext::Foreground => AllocContext::Background,
                AllocContext::Background => AllocContext::Foreground,
            };
            heap.set_context(next);
            format!("context {next:?}")
        }
        17 => {
            let obj = g.pick(heap);
            if let Some(obj) = obj {
                heap.add_root(obj);
            }
            format!("add_root {obj:?}")
        }
        18 => {
            let obj = g.pick(heap).filter(|&o| o != s.root);
            if let Some(obj) = obj {
                heap.remove_root(obj);
            }
            format!("remove_root {obj:?}")
        }
        19 => {
            let obj = g.pick(heap);
            let marked = obj.map(|o| s.marvin.state_mut().mark_swapped(heap, o));
            format!("bookmark {obj:?} -> {marked:?}")
        }
        20 => {
            let obj = s.marvin.state().swapped_objects().next();
            if let Some(obj) = obj {
                s.marvin.state_mut().mark_resident(obj);
            }
            format!("resident {obj:?}")
        }
        _ => collect(s, g, out, reached),
    }
}

fn run(seed: u64) -> Run {
    let mut heap =
        Heap::new(HeapConfig { region_size: 4096, initial_limit: 8192, ..HeapConfig::default() });
    #[cfg(feature = "audit")]
    heap.probes_mut().audit.enable(1);
    #[cfg(feature = "obs")]
    heap.probes_mut().obs.enable(1);
    let root = heap.alloc(64);
    heap.add_root(root);
    let mut s =
        Script { heap, root, marvin: MarvinGc::new(GcCostModel::default(), 1024), grouped: false };
    let mut g = Gen(seed ^ 0x6c00_0000_0000_0000);
    let mut outcome = Fnv::new();
    #[allow(unused_mut)] // the audit and obs columns advance only under their features
    let (mut audit, mut events, mut obs, mut records) = (Fnv::new(), 0u64, Fnv::new(), 0u64);
    let mut reached = BTreeSet::new();
    for _ in 0..STEPS {
        let line = step(&mut s, &mut g, &mut outcome, &mut reached);
        outcome.line(&line);
        #[cfg(feature = "audit")]
        for ev in s.heap.probes_mut().audit.drain() {
            audit.line(&ev.to_string());
            events += 1;
        }
        #[cfg(feature = "obs")]
        for rec in s.heap.probes_mut().obs.drain() {
            if let fleet_obs::ObsRecord::Span(span) = &rec {
                reached.insert(span.name);
            }
            obs.line(&format!("{rec:?}"));
            records += 1;
        }
    }
    outcome.line(&format!("{:?}", s.heap.stats()));
    Run { outcome: outcome.0, audit: audit.0, events, obs: obs.0, records, reached }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/gc_paths.txt")
}

#[test]
fn gc_paths_match_golden() {
    let mut rendered = String::from(
        "# Collector-path golden (crates/gc/tests/gc_paths.rs): per seeded script, FNV-1a\n\
         # hashes of the step outcomes + collection results, the audit events and the obs\n\
         # records. Re-bless with GOLDEN_BLESS=1 and --features audit,obs.\n",
    );
    let mut reached = BTreeSet::new();
    for seed in SEEDS {
        let r = run(seed);
        let _ = writeln!(
            rendered,
            "seed={seed} outcome={:016x} audit={:016x} events={} obs={:016x} records={}",
            r.outcome, r.audit, r.events, r.obs, r.records
        );
        reached.extend(r.reached);
    }

    // The scripts must keep reaching every path they exist to pin.
    let mut expected = vec![
        "full_abort",
        "minor_abort",
        "bgc_abort",
        "grouping_abort",
        "cold_source",
        "marvin_stubs",
    ];
    if cfg!(feature = "obs") {
        expected.extend(["gc_mark", "gc_copy", "gc_evac_abort"]);
    }
    let missing: Vec<_> = expected.iter().filter(|name| !reached.contains(*name)).collect();
    assert!(missing.is_empty(), "scripts no longer reach {missing:?}");

    let path = golden_path();
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        if !cfg!(all(feature = "audit", feature = "obs")) {
            panic!("bless with --features audit,obs so every column is recorded");
        }
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, &rendered).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("missing golden file {} ({err})", path.display()));
    // Columns whose feature is off were not recorded in this build.
    let mut skip = Vec::new();
    if !cfg!(feature = "audit") {
        skip.extend(["audit=", "events="]);
    }
    if !cfg!(feature = "obs") {
        skip.extend(["obs=", "records="]);
    }
    let keep = |line: &str| -> String {
        line.split(' ')
            .filter(|f| !skip.iter().any(|s| f.starts_with(s)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let want: Vec<String> = golden.lines().filter(|l| !l.starts_with('#')).map(keep).collect();
    let got: Vec<String> = rendered.lines().filter(|l| !l.starts_with('#')).map(keep).collect();
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(g, w, "collector-path drift in {}", path.display());
    }
    assert_eq!(got.len(), want.len(), "script count changed");
}
