//! Golden for the kernel's page paths between DRAM and swap.
//!
//! The workspace goldens (`tests/golden/*.txt`) pin quiet-plan experiments
//! only, so armed fault plans, the integrity ladder, prefetch and the
//! `fault_service` child spans are pinned here instead. Seeded scripts drive
//! one `MemoryManager` per stack through every operation that moves pages:
//! anon and file maps, accesses of all three kinds, madvise cold and hot,
//! multi-range prefetch, kswapd, zram writeback, proactive swap-out,
//! pin/unpin, scrub and reclaim ticks, working-set epochs, range unmaps and
//! process teardown (also after an access reports `killed`, as the device's
//! SIGBUS path does). `validate` runs after every step.
//!
//! Each script folds three FNV-1a hashes: its step outcomes (closed by the
//! final `stats()` and `swap_stats()`), the audit events and the obs records
//! each step emitted. The outcome hash is always checked; the audit and obs
//! hashes only when their feature is on. Re-bless (with both features, so
//! every column is filled) with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --release -p fleet-kernel --features audit,obs --test page_paths
//! ```

use fleet_kernel::{
    AccessKind, Advice, FaultConfig, FaultPlan, IntegrityConfig, MemoryManager, MmConfig, PageKind,
    Pid, SwapConfig, PAGE_SIZE,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Steps per script.
const STEPS: usize = 600;
/// Seeds per stack.
const SEEDS: [u64; 3] = [1, 2, 3];

/// One swap stack configuration under test.
struct Stack {
    name: &'static str,
    hybrid: bool,
    fault: FaultConfig,
    integrity: bool,
}

fn stacks() -> Vec<Stack> {
    let quiet = FaultConfig::default();
    let flaky = FaultConfig::flaky_flash(0.3);
    let corrupt = FaultConfig::silent_corruption(0.25);
    let mixed = FaultConfig {
        corruption_rate: corrupt.corruption_rate,
        torn_writeback_rate: corrupt.torn_writeback_rate,
        ..flaky
    };
    vec![
        Stack { name: "quiet_flash", hybrid: false, fault: quiet, integrity: false },
        Stack { name: "quiet_hybrid", hybrid: true, fault: quiet, integrity: false },
        Stack { name: "flaky_flash", hybrid: false, fault: flaky, integrity: false },
        Stack { name: "flaky_hybrid", hybrid: true, fault: flaky, integrity: false },
        Stack { name: "corrupt_hybrid", hybrid: true, fault: corrupt, integrity: true },
        Stack { name: "mixed_flash", hybrid: false, fault: mixed, integrity: true },
    ]
}

fn build(stack: &Stack, seed: u64) -> MemoryManager {
    let integrity = if stack.integrity {
        IntegrityConfig {
            quarantine_threshold: 8,
            scrub_batch_pages: 8,
            scrub_interval_ticks: 2,
            ..IntegrityConfig::checked()
        }
    } else {
        IntegrityConfig::default()
    };
    let mut mm = MemoryManager::new(MmConfig {
        dram_bytes: 24 * PAGE_SIZE,
        swap: SwapConfig { capacity_bytes: 48 * PAGE_SIZE, ..SwapConfig::default() },
        zram: stack
            .hybrid
            .then(|| SwapConfig::try_zram(16 * PAGE_SIZE, 2.5).expect("valid front tier")),
        low_watermark_frames: 2,
        high_watermark_frames: 4,
        integrity,
        ..MmConfig::default()
    });
    if !stack.fault.is_quiet() {
        mm.install_fault_plan(FaultPlan::new(seed, stack.fault));
    }
    mm.enable_wss_tracking();
    #[cfg(feature = "audit")]
    mm.probes_mut().audit.enable(0);
    #[cfg(feature = "obs")]
    mm.probes_mut().obs.enable(0);
    mm
}

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

    /// A pid in 1..=3.
    fn pid(&mut self) -> Pid {
        Pid(1 + self.below(3) as u32)
    }

    /// A `(base, len)` byte range of 1..=`max` pages inside a 32-page window.
    fn range(&mut self, max: u64) -> (u64, u64) {
        (self.below(32) * PAGE_SIZE, (1 + self.below(max)) * PAGE_SIZE)
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

/// What one script pinned, plus what it reached (for the coverage check).
struct Run {
    outcome: u64,
    audit: u64,
    events: u64,
    obs: u64,
    records: u64,
    reached: BTreeSet<&'static str>,
}

/// Runs one step, returning its outcome line.
fn step(mm: &mut MemoryManager, g: &mut Gen, reached: &mut BTreeSet<&'static str>) -> String {
    let pid = g.pid();
    match g.below(32) {
        0..=5 => {
            let (base, len) = g.range(8);
            let kind = if g.below(3) == 0 { PageKind::File } else { PageKind::Anon };
            let r = mm.map_range_kind(pid, base, len, kind);
            if r.is_err() {
                reached.insert("map_oom");
            }
            format!("map {pid:?} {base} {len} {kind:?} -> {r:?}")
        }
        6..=13 => {
            let (base, len) = g.range(8);
            let kind =
                [AccessKind::Mutator, AccessKind::Gc, AccessKind::Launch][g.below(3) as usize];
            let out = mm.access(pid, base, len, kind);
            let mut line = format!("access {pid:?} {base} {len} {kind:?} -> {out:?}");
            if out.oom {
                reached.insert("access_oom");
            }
            if out.killed {
                // The device's SIGBUS path: the owner dies and is unmapped.
                reached.insert("killed");
                let _ = write!(line, " kill -> {}", mm.unmap_process(pid));
            }
            line
        }
        14..=16 => {
            let (base, len) = g.range(8);
            let advice = if g.below(2) == 0 { Advice::ColdRuntime } else { Advice::HotRuntime };
            format!(
                "madvise {pid:?} {base} {len} {advice:?} -> {}",
                mm.madvise(pid, base, len, advice)
            )
        }
        17..=19 => {
            let ranges: Vec<(u64, u64)> = (0..1 + g.below(3)).map(|_| g.range(6)).collect();
            format!("prefetch {pid:?} {ranges:?} -> {:?}", mm.prefetch_many(pid, &ranges))
        }
        20 => format!("kswapd -> {}", mm.kswapd()),
        21 => format!("writeback -> {}", mm.zram_writeback()),
        22 => {
            let max = 1 + g.below(8);
            format!("proactive {pid:?} {max} -> {}", mm.proactive_swap_out(pid, max))
        }
        23 | 24 => {
            let (base, len) = g.range(8);
            if g.below(2) == 0 {
                format!("pin {pid:?} {base} {len} -> {}", mm.pin_range(pid, base, len))
            } else {
                format!("unpin {pid:?} {base} {len} -> {}", mm.unpin_range(pid, base, len))
            }
        }
        25 => format!("scrub -> {:?}", mm.scrub_tick()),
        26 | 27 => format!("reclaim -> {}", mm.reclaim_tick()),
        28 => format!("wss -> {:?}", mm.wss_epoch()),
        29 | 30 => {
            let (base, len) = g.range(6);
            mm.unmap_range(pid, base, len);
            format!("unmap {pid:?} {base} {len}")
        }
        _ => format!("unmap_process {pid:?} -> {}", mm.unmap_process(pid)),
    }
}

fn run(stack: &Stack, seed: u64) -> Run {
    let mut mm = build(stack, seed);
    let mut g = Gen(seed ^ 0x5eed_0000_0000_0000);
    let mut outcome = Fnv::new();
    #[allow(unused_mut)] // the audit and obs columns advance only under their features
    let (mut audit, mut events, mut obs, mut records) = (Fnv::new(), 0u64, Fnv::new(), 0u64);
    let mut reached = BTreeSet::new();
    for _ in 0..STEPS {
        let line = step(&mut mm, &mut g, &mut reached);
        mm.validate();
        outcome.line(&line);
        #[cfg(feature = "audit")]
        for ev in mm.probes_mut().audit.drain() {
            audit.line(&ev.to_string());
            events += 1;
        }
        #[cfg(feature = "obs")]
        for rec in mm.probes_mut().obs.drain() {
            if let fleet_obs::ObsRecord::Span(s) = &rec {
                reached.insert(s.name);
            }
            obs.line(&format!("{rec:?}"));
            records += 1;
        }
    }
    let stats = mm.stats();
    outcome.line(&format!("{stats:?}"));
    outcome.line(&format!("{:?}", mm.swap_stats()));
    for (name, hit) in [
        ("retry", stats.fault_retries > 0),
        ("read_error", stats.swap_read_errors > 0),
        ("write_error", stats.swap_write_errors > 0),
        ("page_lost", stats.pages_lost > 0),
        ("file_fault", stats.faults_file > 0),
        ("zram_fault", stats.faults_zram > 0),
        ("writeback", stats.zram_writeback_pages > 0),
        ("proactive", stats.proactive_swapout_pages > 0),
        ("corruption_detected", stats.corruptions_detected > 0),
        ("quarantine", stats.slots_quarantined > 0),
        ("tier_retired", stats.tiers_retired > 0),
        ("scrub", stats.scrub_passes > 0),
    ] {
        if hit {
            reached.insert(name);
        }
    }
    Run { outcome: outcome.0, audit: audit.0, events, obs: obs.0, records, reached }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/page_paths.txt")
}

#[test]
fn page_paths_match_golden() {
    let mut rendered = String::from(
        "# Kernel page-path golden (crates/kernel/tests/page_paths.rs): per seeded script,\n\
         # FNV-1a hashes of the step outcomes + final stats, the audit events and the obs\n\
         # records. Re-bless with GOLDEN_BLESS=1 and --features audit,obs.\n",
    );
    let mut reached = BTreeSet::new();
    for stack in stacks() {
        for seed in SEEDS {
            let r = run(&stack, seed);
            let _ = writeln!(
                rendered,
                "stack={} seed={seed} outcome={:016x} audit={:016x} events={} obs={:016x} records={}",
                stack.name, r.outcome, r.audit, r.events, r.obs, r.records
            );
            reached.extend(r.reached);
        }
    }

    // The scripts must keep reaching every path they exist to pin.
    let mut expected = vec![
        "map_oom",
        "access_oom",
        "killed",
        "retry",
        "read_error",
        "write_error",
        "page_lost",
        "file_fault",
        "zram_fault",
        "writeback",
        "proactive",
        "corruption_detected",
        "quarantine",
        "tier_retired",
        "scrub",
    ];
    if cfg!(feature = "obs") {
        expected.extend([
            "fault_service",
            "fault_retry",
            "fault_refault",
            "fault_fatal",
            "fault_batch",
            "prefetch",
            "kswapd_pass",
        ]);
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
        assert_eq!(g, w, "page-path drift in {}", path.display());
    }
    assert_eq!(got.len(), want.len(), "script count changed");
}
