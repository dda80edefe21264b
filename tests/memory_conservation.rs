//! Memory-accounting invariants across the whole stack.
//!
//! Whatever the schemes do — copying GCs, object swaps, madvise, LMK kills —
//! pages and frames must always add up.

use fleet::{Device, DeviceConfig, FleetError, SchemeKind};
use fleet_apps::{profile_by_name, synthetic_app};
use fleet_heap::PAGE_SIZE;

fn check_invariants(dev: &Device) {
    let mm = dev.mm();
    // The kernel's own structural self-check: exact residency counts, swap
    // slot conservation and LRU membership (panics with the discrepancy).
    mm.validate();
    // Frames can never be overcommitted.
    assert!(mm.used_frames() <= mm.frames_capacity());
    // Swap can never be overcommitted.
    assert!(mm.swap().used_pages() <= mm.swap().capacity_pages());
    // Per-process residency sums are consistent with the page tables.
    for proc in dev.processes() {
        let mem = mm.process_mem(proc.pid);
        let heap_pages: u64 = proc.heap.regions().map(|r| r.size() as u64 / PAGE_SIZE).sum();
        let native_pages = proc.native_len.div_ceil(PAGE_SIZE);
        let file_pages = proc.file_len.div_ceil(PAGE_SIZE);
        assert!(
            mem.resident + mem.swapped <= heap_pages + native_pages + file_pages,
            "{}: resident {} + swapped {} exceeds mapped {}",
            proc.name,
            mem.resident,
            mem.swapped,
            heap_pages + native_pages + file_pages
        );
        // Heap-side accounting.
        assert!(proc.heap.live_bytes() <= proc.heap.used_bytes());
    }
}

#[test]
fn invariants_hold_through_a_stormy_run() -> Result<(), FleetError> {
    for scheme in SchemeKind::ALL {
        // With `--features audit` the run additionally streams every state
        // transition through the online invariant auditor, which panics on
        // the first violation with the flight-recorder ring as context.
        #[cfg(feature = "audit")]
        let _guard = fleet::probe::install(fleet::probe::shared::<fleet::probe::AuditPipeline>());
        let mut dev = Device::try_new(DeviceConfig::pixel3(scheme))?;
        let apps = [
            profile_by_name("Twitter").unwrap(),
            profile_by_name("Youtube").unwrap(),
            profile_by_name("Chrome").unwrap(),
        ];
        for _ in 0..2 {
            for app in &apps {
                dev.launch_cold(app);
                dev.run(7);
                check_invariants(&dev);
            }
        }
        // Pressure phase: pile on synthetic apps until kills happen.
        for _ in 0..10 {
            dev.launch_cold(&synthetic_app(2048, 180));
            dev.run(4);
            check_invariants(&dev);
        }
        // Hot-launch whatever survived.
        for pid in dev.alive() {
            if dev.try_process(pid).is_ok() && dev.foreground() != Some(pid) {
                dev.try_switch_to(pid)?;
                dev.run(2);
                check_invariants(&dev);
            }
        }
    }
    Ok(())
}

#[test]
fn killing_everything_returns_all_memory() -> Result<(), FleetError> {
    #[cfg(feature = "audit")]
    let _guard = fleet::probe::install(fleet::probe::shared::<fleet::probe::AuditPipeline>());
    let mut dev = Device::try_new(DeviceConfig::pixel3(SchemeKind::Fleet))?;
    for _ in 0..6 {
        dev.launch_cold(&synthetic_app(2048, 180));
        dev.run(12);
    }
    let pids = dev.alive();
    for pid in pids {
        dev.kill(pid);
    }
    assert_eq!(dev.cached_apps(), 0);
    // Only the shared page cache may remain resident.
    let cache_pages = 64 * 1024 * 1024 / PAGE_SIZE; // PAGECACHE_WINDOW bound
    assert!(
        dev.mm().used_frames() <= cache_pages,
        "only page-cache pages may remain: {}",
        dev.mm().used_frames()
    );
    assert_eq!(dev.mm().swap().used_pages(), 0, "kills must release swap slots");
    Ok(())
}

#[test]
fn gc_epochs_and_heap_limits_progress() -> Result<(), FleetError> {
    let mut dev = Device::try_new(DeviceConfig::pixel3(SchemeKind::Android))?;
    let (pid, _) = dev.launch_cold(&profile_by_name("Twitter").unwrap());
    dev.run(5);
    dev.launch_cold(&profile_by_name("Telegram").unwrap());
    dev.run(120); // a couple of background maintenance GCs
    let proc = dev.try_process(pid)?;
    assert!(proc.heap.gc_epoch() >= 1);
    assert!(proc.heap.limit() >= proc.heap.live_bytes(), "limit below live would GC-storm");
    assert!(!proc.gcs.is_empty());
    for record in &proc.gcs {
        assert!(record.stats.duration() > fleet_sim::SimDuration::ZERO);
    }
    Ok(())
}
