//! # Fleet — fore/background-aware GC-swap co-design (ASPLOS '24), in simulation
//!
//! This crate is the top of the reproduction stack: it ties the Java-heap
//! model (`fleet-heap`), the collectors (`fleet-gc`), the kernel memory
//! model (`fleet-kernel`) and the app workloads (`fleet-apps`) into a
//! simulated Pixel 3 ([`Device`]) running one of the paper's comparison
//! schemes ([`SchemeKind`], Table 1):
//!
//! * **Android** — native full-heap GC + kernel LRU swap,
//! * **Marvin** — bookmarking GC + object-granularity swap,
//! * **Fleet** — background-object GC (§5.2) + runtime-guided swap (§5.3).
//!
//! The [`experiment`] module has one driver per table and figure of the
//! paper's evaluation; the `fleet-bench` crate's `repro` binary prints each
//! one next to the paper's numbers.
//!
//! # Examples
//!
//! ```
//! use fleet::{Device, DeviceConfig, FleetError, SchemeKind};
//! use fleet_apps::profile_by_name;
//!
//! let mut device = Device::try_new(DeviceConfig::pixel3(SchemeKind::Fleet))?;
//! let twitter = profile_by_name("Twitter").unwrap();
//! let (pid, cold) = device.launch_cold(&twitter);
//! device.launch_cold(&profile_by_name("Telegram").unwrap());
//! device.run(15); // Fleet groups + swaps 10 s after backgrounding
//! let hot = device.try_switch_to(pid)?;
//! assert!(hot.total < cold.total);
//! # Ok::<(), FleetError>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod device;
pub mod error;
pub mod experiment;
pub mod params;
pub mod population;
pub mod probe;
pub mod process;
pub mod telemetry;

pub use config::{DeviceConfig, ZramFront};
pub use device::{Device, DeviceTrace, KillRecord, TraceSample, TraceSource};
pub use error::FleetError;
pub use fleet_kernel::{KillPolicy, ReclaimPolicy, SwamParams};
pub use params::{FleetParams, SchemeKind};
pub use population::{
    run_device_day, run_population, sample_device, DeviceClass, DeviceDayRow, DevicePlan, Persona,
    PopulationAggregate, PopulationRun, PopulationSpec,
};
pub use process::{AppState, FleetProcState, GcRecord, LaunchKind, LaunchReport, Process};
pub use telemetry::{
    drill_down, DrilldownRecord, LaunchAttribution, LaunchSpanSample, Outlier, SloBreach,
    SloMetric, SloReport, SloSpec, SloVerdict,
};

/// The stable, supported surface of the reproduction in one import.
///
/// `use fleet::prelude::*;` brings in everything a downstream consumer —
/// an example, a bench, or an external driver — needs to build a device,
/// run experiments from the registry and summarise the results. Anything
/// *not* re-exported here (collector internals, page-table layouts, the
/// reference LRU model) is crate plumbing and may change without notice;
/// such items are marked `#[doc(hidden)]` at their definition sites.
pub mod prelude {
    pub use crate::config::{DeviceConfig, ZramFront};
    pub use crate::device::{Device, DeviceTrace, KillRecord};
    pub use crate::error::FleetError;
    pub use crate::experiment::harness::{
        run_experiments, select, Experiment, ExperimentCtx, ExperimentOutput, RunReport, REGISTRY,
    };
    pub use crate::experiment::scenario::AppPool;
    pub use crate::params::{FleetParams, SchemeKind};
    pub use crate::population::{
        run_device_day, run_population, sample_device, DeviceDayRow, DevicePlan,
        PopulationAggregate, PopulationRun, PopulationSpec,
    };
    pub use crate::process::{LaunchKind, LaunchReport};
    pub use crate::telemetry::{
        drill_down, DrilldownRecord, LaunchSpanSample, Outlier, SloMetric, SloReport, SloSpec,
        SloVerdict,
    };
    pub use fleet_kernel::{KillPolicy, ReclaimPolicy, SwamParams};
    pub use fleet_metrics::{Histogram, Summary, Table};
    pub use fleet_obs::LogHistogram;
}
