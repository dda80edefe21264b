//! One experiment driver per table and figure of the paper's evaluation.
//!
//! Each submodule returns plain serde-serialisable records and registers
//! an [`harness::Experiment`] that renders them next to the paper's
//! reported values; the `fleet-bench` crate's `repro` binary is a thin CLI
//! over [`harness::REGISTRY`]. DESIGN.md §4 is the index mapping each
//! figure/table to its experiment id.

pub mod ablation;
pub mod access_trace;
pub mod attribution;
pub mod caching;
pub mod chaos;
pub mod fleet_telemetry;
pub mod frames;
pub mod gc_working_set;
pub mod harness;
pub mod hot_launch;
pub mod launch_basics;
pub mod lifetimes;
pub mod object_sizes;
pub mod population;
pub mod proactive_reclaim;
pub mod reaccess;
pub mod resilience;
pub mod runtime;
pub mod scenario;
pub mod sensitivity;
pub mod swap_tiers;
pub mod tables;

pub use harness::{Experiment, ExperimentCtx, ExperimentOutput, RenderBlock, REGISTRY};
