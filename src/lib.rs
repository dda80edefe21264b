//! `fleet-repro` — top-level façade crate for the Fleet reproduction.
//!
//! This crate exists to host the workspace's runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`). It re-exports
//! the member crates under one roof so those artifacts can write
//! `fleet_repro::fleet::...` style paths.

pub use fleet;
pub use fleet_apps as apps;
pub use fleet_gc as gc;
pub use fleet_heap as heap;
pub use fleet_kernel as kernel;
pub use fleet_metrics as metrics;
pub use fleet_sim as sim;

/// Compiles README.md's Rust examples as doctests, so they cannot drift
/// from the API they show.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
