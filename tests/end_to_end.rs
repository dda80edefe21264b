//! End-to-end integration tests: full device scenarios across every crate.

use fleet::{AppState, Device, DeviceConfig, FleetError, LaunchKind, SchemeKind};
use fleet_apps::{catalog, profile_by_name, synthetic_app};
use fleet_gc::GcKind;
use fleet_heap::RegionKind;

fn device(scheme: SchemeKind) -> Result<Device, FleetError> {
    Device::try_new(DeviceConfig::pixel3(scheme))
}

#[test]
fn fleet_full_pipeline_cold_to_hot() -> Result<(), FleetError> {
    let mut dev = device(SchemeKind::Fleet)?;
    let twitter = profile_by_name("Twitter").unwrap();
    let (pid, cold) = dev.launch_cold(&twitter);
    assert_eq!(cold.kind, LaunchKind::Cold);
    dev.run(10);

    // Background the app behind another one.
    dev.launch_cold(&profile_by_name("Telegram").unwrap());
    assert_eq!(dev.try_process(pid)?.state, AppState::Background);

    // Ts = 10 s later the grouping GC has run and cold pages are out.
    dev.run(15);
    let proc = dev.try_process(pid)?;
    let grouped = proc.fleet.grouped.as_ref().expect("grouping ran");
    assert!(grouped.launch_objects > 0);
    assert!(grouped.cold_objects > grouped.launch_objects, "most of the heap is cold");
    assert!(dev.mm().process_mem(pid).swapped > 0, "COLD_RUNTIME swapped the cold ranges");

    // The heap is now physically grouped: launch regions exist and every
    // classified object sits in a region matching its class.
    let heap = &dev.try_process(pid)?.heap;
    assert!(heap.regions().any(|r| r.kind() == RegionKind::Launch));
    assert!(heap.regions().any(|r| r.kind() == RegionKind::Cold));

    // BGC, not full GC, runs while cached.
    dev.run(90);
    let kinds: Vec<GcKind> = dev.try_process(pid)?.gcs.iter().map(|g| g.stats.kind).collect();
    assert!(kinds.contains(&GcKind::Grouping));
    assert!(kinds.contains(&GcKind::Bgc));
    assert!(!kinds.contains(&GcKind::Full), "Fleet must not full-GC a cached app: {kinds:?}");

    // Hot launch beats cold launch comfortably.
    let hot = dev.try_switch_to(pid)?;
    assert_eq!(hot.kind, LaunchKind::Hot);
    assert!(hot.total.as_millis_f64() * 2.0 < cold.total.as_millis_f64());
    Ok(())
}

#[test]
fn android_background_gc_faults_swapped_pages() -> Result<(), FleetError> {
    // The §3.2 conflict end-to-end: swap an Android app's pages out, run its
    // background GC, observe GC-attributed faults.
    let mut dev = device(SchemeKind::Android)?;
    let (pid, _) = dev.launch_cold(&profile_by_name("Twitter").unwrap());
    dev.run(5);
    dev.launch_cold(&profile_by_name("Telegram").unwrap());
    dev.run(5);
    // Force the app's anon pages out, then run its GC.
    let faults_before = dev.mm().stats().faults_gc;
    let swapped_before = dev.mm().process_mem(pid).swapped;
    assert_eq!(swapped_before, 0);
    // Manufacture pressure: many synthetic launches.
    for _ in 0..12 {
        dev.launch_cold(&synthetic_app(2048, 180));
        dev.run(3);
    }
    if dev.try_process(pid).is_err() {
        return Ok(()); // LMK got it first; pressure was real. Nothing more to check.
    }
    let swapped = dev.mm().process_mem(pid).swapped;
    if swapped == 0 {
        return Ok(()); // not enough pressure on this seed to swap the target
    }
    dev.try_run_gc(pid)?;
    let faults_after = dev.mm().stats().faults_gc;
    assert!(faults_after > faults_before, "a full GC over a swapped heap must fault pages back in");
    Ok(())
}

#[test]
fn marvin_keeps_java_pages_out_of_kernel_lru() -> Result<(), FleetError> {
    let mut dev = device(SchemeKind::Marvin)?;
    let (pid, _) = dev.launch_cold(&profile_by_name("Twitter").unwrap());
    dev.run(3);
    // Java heap pages are pinned.
    let heap_addr = {
        let proc = dev.try_process(pid)?;
        let obj = proc.heap.object_ids().next().expect("objects exist");
        proc.heap.address(obj)
    };
    assert!(dev.mm().is_pinned(pid, heap_addr), "Marvin pins the Java heap");
    Ok(())
}

#[test]
fn lmk_kills_free_all_memory() -> Result<(), FleetError> {
    let mut dev = device(SchemeKind::AndroidNoSwap)?;
    let app = synthetic_app(2048, 180);
    for _ in 0..16 {
        dev.launch_cold(&app);
        dev.run(3);
    }
    assert!(!dev.kills().is_empty());
    // Page accounting: every mapped page belongs to a live process or the
    // page cache; total resident never exceeds capacity.
    assert!(dev.mm().used_frames() <= dev.mm().frames_capacity());
    // Swap is disabled: no pages can be in swap.
    assert_eq!(dev.mm().swap().used_pages(), 0);
    Ok(())
}

#[test]
fn all_catalog_apps_survive_a_basic_cycle() -> Result<(), FleetError> {
    // Smoke: every Table 3 profile can cold-launch, background, and hot-launch.
    let mut dev = device(SchemeKind::Fleet)?;
    let mut pids = Vec::new();
    for profile in catalog().into_iter().take(6) {
        let (pid, _) = dev.launch_cold(&profile);
        pids.push(pid);
        dev.run(3);
    }
    dev.run(15);
    for pid in pids {
        if dev.try_process(pid).is_ok() {
            let report = dev.try_switch_to(pid)?;
            assert!(report.total.as_millis_f64() > 0.0);
            dev.run(2);
        }
    }
    Ok(())
}

#[test]
fn schemes_disagree_only_in_policy_not_in_correctness() -> Result<(), FleetError> {
    // Same workload under every scheme: apps launch, run, and hot-launch
    // without panics, and heap liveness stays consistent.
    for scheme in SchemeKind::ALL {
        let mut dev = device(scheme)?;
        let (a, _) = dev.launch_cold(&profile_by_name("Spotify").unwrap());
        dev.run(5);
        let (b, _) = dev.launch_cold(&profile_by_name("LinkedIn").unwrap());
        dev.run(20);
        for pid in [a, b] {
            if dev.try_process(pid).is_ok() {
                dev.try_switch_to(pid)?;
                dev.run(5);
                let proc = dev.try_process(pid)?;
                assert!(proc.heap.live_bytes() > 0);
                assert!(proc.heap.live_bytes() <= proc.heap.used_bytes());
            }
        }
    }
    Ok(())
}
