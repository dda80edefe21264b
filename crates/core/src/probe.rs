//! Instrumentation plumbing shared by the audit and obs pipelines.
//!
//! The mechanism crates buffer records in per-component `fleet_obs::Log`s;
//! this module owns the other half: one thread-local *installer* that hands
//! every subsequently created [`crate::Device`] the installed pipelines, and
//! the `Attached` hookup a device keeps to each. Experiments do not need to
//! thread pipelines through their APIs — installing them before building
//! devices is enough, which is how the golden suites record unmodified
//! registry experiments. Without an install nothing is recorded: component
//! logs stay disabled and their `push` closures never run. Without the
//! `audit` and `obs` features no pipeline type exists and devices carry no
//! hookup at all.
//!
//! # Examples
//!
#![cfg_attr(feature = "obs", doc = "```")]
#![cfg_attr(not(feature = "obs"), doc = "```ignore")]
//! use fleet::probe::{install, shared, ObsPipeline};
//! use fleet::{Device, DeviceConfig, SchemeKind};
//!
//! let pipeline = shared::<ObsPipeline>();
//! let _guard = install(pipeline.clone());
//! let mut device = Device::new(DeviceConfig::pixel3(SchemeKind::Fleet));
//! device.run(2);
//! drop(device);
//! let trace = pipeline.lock().unwrap().trace_json();
//! fleet::probe::validate_chrome_trace(&trace).unwrap();
//! ```

#[cfg(feature = "audit")]
pub use fleet_audit::{
    AuditEvent, AuditPipeline, Auditor, Recorder, CHECKPOINT_INTERVAL, RING_CAPACITY,
};
#[cfg(feature = "obs")]
pub use fleet_obs::{
    validate_chrome_trace, MetricRegistry, ObsPipeline, ObsRecord, PlacedSpan, SpanRec,
    TraceSummary, Tracer, METRICS_SCHEMA_VERSION,
};

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A pipeline shareable between devices and the harness/CLI.
pub type Shared<P> = Arc<Mutex<P>>;

/// A run-wide sink devices attach to: `AuditPipeline` or `ObsPipeline`.
pub trait Pipeline: Default + Send + 'static {
    /// Registers a device, returning its ordinal (0, 1, ...).
    fn attach(&mut self) -> u32;
}

#[cfg(feature = "audit")]
impl Pipeline for AuditPipeline {
    fn attach(&mut self) -> u32 {
        AuditPipeline::attach(self)
    }
}

#[cfg(feature = "obs")]
impl Pipeline for ObsPipeline {
    fn attach(&mut self) -> u32 {
        ObsPipeline::attach(self)
    }
}

thread_local! {
    /// The installed pipelines, one slot per pipeline type.
    static INSTALLED: RefCell<BTreeMap<TypeId, Box<dyn Any>>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// Creates an empty [`Shared`] pipeline.
pub fn shared<P: Pipeline>() -> Shared<P> {
    Shared::default()
}

/// Installs `pipeline` for this thread: every [`crate::Device`] created
/// while the returned guard is alive attaches to it. Pipelines of different
/// types install side by side; nested installs of one type stack, and
/// dropping a guard restores the previous pipeline of its type.
pub fn install<P: Pipeline>(pipeline: Shared<P>) -> InstallGuard {
    let slot = TypeId::of::<P>();
    let previous = INSTALLED.with(|s| s.borrow_mut().insert(slot, Box::new(pipeline)));
    InstallGuard { slot, previous }
}

/// Whether any pipeline is installed on this thread.
pub(crate) fn installed() -> bool {
    INSTALLED.with(|s| !s.borrow().is_empty())
}

/// The `P` installed on this thread, if any.
#[cfg(any(feature = "audit", feature = "obs"))]
pub(crate) fn current<P: Pipeline>() -> Option<Shared<P>> {
    INSTALLED.with(|s| s.borrow().get(&TypeId::of::<P>())?.downcast_ref::<Shared<P>>().cloned())
}

/// Uninstalls a pipeline (restoring any outer install of its type) when
/// dropped.
#[must_use = "dropping the guard immediately uninstalls the pipeline"]
pub struct InstallGuard {
    slot: TypeId,
    previous: Option<Box<dyn Any>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED.with(|s| {
            let mut installed = s.borrow_mut();
            match self.previous.take() {
                Some(previous) => installed.insert(self.slot, previous),
                None => installed.remove(&self.slot),
            };
        });
    }
}

/// A device's hookup to one installed pipeline: the shared sink plus the
/// ordinal the device registered under.
#[cfg(any(feature = "audit", feature = "obs"))]
pub(crate) struct Attached<P> {
    pipeline: Shared<P>,
    pub(crate) ordinal: u32,
}

#[cfg(any(feature = "audit", feature = "obs"))]
impl<P: Pipeline> Attached<P> {
    /// Registers a new device with this thread's installed `P`, if any.
    pub(crate) fn current() -> Option<Self> {
        let pipeline = current::<P>()?;
        let ordinal = pipeline.lock().expect("pipeline poisoned").attach();
        Some(Attached { pipeline, ordinal })
    }

    /// Locks the pipeline.
    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, P> {
        self.pipeline.lock().expect("pipeline poisoned")
    }
}

/// One fresh pipeline of every compiled-in kind, for recording a single run
/// (`repro --trace`, telemetry drill-down); empty without the features.
#[derive(Default)]
pub struct Pipelines {
    /// The flight recorder + auditor; a violation panics the run.
    #[cfg(feature = "audit")]
    pub audit: Shared<AuditPipeline>,
    /// The tracer + metric registry.
    #[cfg(feature = "obs")]
    pub obs: Shared<ObsPipeline>,
}

impl Pipelines {
    /// Runs `f` on this thread with every pipeline installed.
    pub fn record<T>(&self, f: impl FnOnce() -> T) -> T {
        #[cfg(feature = "audit")]
        let _audit = install(self.audit.clone());
        #[cfg(feature = "obs")]
        let _obs = install(self.obs.clone());
        f()
    }

    /// Validates the recorded trace and writes `<stem>.trace.json` and
    /// `<stem>.metrics.json` into `dir`.
    ///
    /// # Errors
    ///
    /// [`crate::FleetError::Serde`] for a trace that fails
    /// [`validate_chrome_trace`], or the I/O error of a failed write.
    #[cfg(feature = "obs")]
    pub fn write_obs(
        &self,
        dir: &std::path::Path,
        stem: &str,
    ) -> Result<TraceSummary, crate::FleetError> {
        let (trace, metrics) = {
            let pipe = self.obs.lock().expect("pipeline poisoned");
            (pipe.trace_json(), pipe.metrics_json())
        };
        let summary = validate_chrome_trace(&trace)
            .map_err(|e| crate::FleetError::Serde(format!("{stem}: invalid trace: {e}")))?;
        std::fs::write(dir.join(format!("{stem}.trace.json")), trace)?;
        std::fs::write(dir.join(format!("{stem}.metrics.json")), metrics)?;
        Ok(summary)
    }
}

#[cfg(all(test, any(feature = "audit", feature = "obs")))]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Sink(u32);

    impl Pipeline for Sink {
        fn attach(&mut self) -> u32 {
            self.0 += 1;
            self.0 - 1
        }
    }

    #[derive(Default)]
    struct Other;

    impl Pipeline for Other {
        fn attach(&mut self) -> u32 {
            0
        }
    }

    #[test]
    fn install_is_scoped_and_stacks_per_type() {
        assert!(current::<Sink>().is_none());
        let outer = shared::<Sink>();
        let inner = shared::<Sink>();
        {
            let _a = install(outer.clone());
            let other = install(shared::<Other>());
            assert!(Arc::ptr_eq(&current().unwrap(), &outer));
            {
                let _b = install(inner.clone());
                assert!(Arc::ptr_eq(&current().unwrap(), &inner));
            }
            // Out-of-order drops restore only their own type's slot.
            drop(other);
            assert!(current::<Other>().is_none());
            assert!(Arc::ptr_eq(&current().unwrap(), &outer));
        }
        assert!(!installed());
    }

    #[test]
    fn attached_devices_get_ordinals() {
        let _guard = install(shared::<Sink>());
        let a = Attached::<Sink>::current().unwrap();
        let b = Attached::<Sink>::current().unwrap();
        assert_eq!((a.ordinal, b.ordinal), (0, 1));
        assert!(Attached::<Other>::current().is_none());
    }
}
