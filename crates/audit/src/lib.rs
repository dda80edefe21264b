//! Cross-layer flight recorder and online invariant auditor.
//!
//! The Fleet claims live in the *interaction* between layers: which pages
//! the kernel keeps resident versus which objects the GC copies. End-state
//! assertions cannot see a page that was swapped out and then "touched"
//! without a fault, or an LMK kill that leaks frames — those bugs only
//! exist in mid-run orderings. This crate makes the orderings observable:
//!
//! * [`AuditEvent`] — one structured, deterministic record per state
//!   transition in `fleet-kernel`, `fleet-heap`, `fleet-gc` and the device
//!   layer (page map/unmap, fault, swap-out, LRU promotion, region and
//!   object lifecycle, GC phases, launches, kills),
//! * [`Recorder`] — canonical serialization + streaming FNV-1a hash of the
//!   whole event stream, with periodic checkpoints and a ring buffer of
//!   the most recent events (the "flight recorder"),
//! * [`Auditor`] — shadow state rebuilt purely from events, checking eight
//!   invariant families *online*: page conservation, LRU/residency
//!   membership, GC soundness, launch accounting, fault/degradation
//!   consistency, swap-tier slot conservation, proactive-reclaim
//!   discipline (the Swam daemon only touches background, unpinned,
//!   anonymous pages and conserves frames), and swap data integrity,
//! * [`AuditPipeline`] — recorder + auditor behind one `feed` call;
//!   violations panic with the last events as context.
//!
//! Mechanism crates buffer events in a `fleet_obs::Log<AuditEvent>` (the
//! same log type that carries obs records); every emission site is compiled
//! out unless the emitting crate's `audit` feature is on, so the disabled
//! recorder costs nothing. The crate deliberately depends on nothing and
//! speaks only primitive types (`u32` pids and region ids, `u64` page
//! indexes and sizes), so every mechanism crate can emit events without
//! dependency cycles.
//!
//! # Examples
//!
//! ```
//! use fleet_audit::{AuditEvent, AuditPipeline};
//!
//! let mut pipe = AuditPipeline::new();
//! let dev = pipe.attach();
//! pipe.feed(dev, AuditEvent::PageMapped { pid: 1, page: 7, file: false });
//! pipe.feed(dev, AuditEvent::Counters { used_frames: 1, swap_used: 0 });
//! assert_eq!(pipe.recorder().event_count(), 2);
//! ```

#![warn(missing_docs)]

mod auditor;
mod event;
mod recorder;

pub use auditor::Auditor;
pub use event::AuditEvent;
pub use recorder::{Recorder, CHECKPOINT_INTERVAL, RING_CAPACITY};

/// Recorder + auditor behind a single `feed` call.
///
/// Multiple simulated devices can share one pipeline: each calls
/// [`AuditPipeline::attach`] once and tags every event with the returned
/// ordinal, so identical pids on different devices never collide.
#[derive(Debug, Default)]
pub struct AuditPipeline {
    recorder: Recorder,
    auditor: Auditor,
    devices: u32,
}

impl AuditPipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a device and returns its ordinal for [`AuditPipeline::feed`].
    pub fn attach(&mut self) -> u32 {
        let id = self.devices;
        self.devices += 1;
        id
    }

    /// Records `event` and checks every invariant it participates in.
    ///
    /// # Panics
    ///
    /// Panics on the first invariant violation, printing the violated
    /// invariant and the last [`RING_CAPACITY`] events as context.
    pub fn feed(&mut self, device: u32, event: AuditEvent) {
        self.recorder.record(device, &event);
        if let Err(msg) = self.auditor.observe(device, &event) {
            panic!(
                "audit violation at event #{} (device {device}): {msg}\n\
                 --- last {} events ---\n{}",
                self.recorder.event_count(),
                RING_CAPACITY,
                self.recorder.ring_dump(),
            );
        }
    }

    /// The flight recorder (hash, checkpoints, ring buffer).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The invariant auditor.
    pub fn auditor(&self) -> &Auditor {
        &self.auditor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_hash_is_deterministic() {
        let run = || {
            let mut pipe = AuditPipeline::new();
            let dev = pipe.attach();
            for page in 0..100 {
                pipe.feed(dev, AuditEvent::PageMapped { pid: 1, page, file: page % 2 == 0 });
            }
            pipe.feed(dev, AuditEvent::Counters { used_frames: 100, swap_used: 0 });
            pipe.recorder().hash()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "audit violation")]
    fn conservation_violation_panics() {
        let mut pipe = AuditPipeline::new();
        let dev = pipe.attach();
        pipe.feed(dev, AuditEvent::PageMapped { pid: 1, page: 0, file: false });
        pipe.feed(dev, AuditEvent::Counters { used_frames: 2, swap_used: 0 });
    }

    #[test]
    fn devices_do_not_collide() {
        let mut pipe = AuditPipeline::new();
        let a = pipe.attach();
        let b = pipe.attach();
        // Same (pid, page) on two devices is not a double map.
        pipe.feed(a, AuditEvent::PageMapped { pid: 1, page: 0, file: false });
        pipe.feed(b, AuditEvent::PageMapped { pid: 1, page: 0, file: false });
        pipe.feed(a, AuditEvent::Counters { used_frames: 1, swap_used: 0 });
        pipe.feed(b, AuditEvent::Counters { used_frames: 1, swap_used: 0 });
    }
}
