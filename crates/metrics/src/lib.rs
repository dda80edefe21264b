//! Measurement and reporting layer for the Fleet reproduction.
//!
//! The paper reports its results as launch-time distributions (Figures 2, 3,
//! 13, 15, 16), lifetime histograms (Figure 5), frame-rendering quality
//! (Figure 14, jank ratio and FPS), CPU-time shares and a power draw (§7.3).
//! This crate computes those statistics from simulated traces and renders
//! them as aligned text tables — the analogue of the artifact's Jupyter
//! notebooks.
//!
//! # Examples
//!
//! ```
//! use fleet_metrics::Summary;
//!
//! let launches = [101.0, 98.0, 120.0, 620.0, 104.0];
//! let s = Summary::from_values(launches);
//! assert_eq!(s.percentile(50.0), 104.0);
//! assert!(s.mean() > 100.0);
//! ```

#![warn(missing_docs)]

pub mod cpu;
pub mod frames;
pub mod histogram;
pub mod moments;
pub mod power;
pub mod stats;
pub mod summary;
pub mod table;

pub use cpu::{CpuAccounting, ThreadClass};
pub use frames::{FrameRecorder, FrameReport};
pub use histogram::Histogram;
pub use moments::Moments;
pub use power::{PowerModel, PowerReport};
pub use stats::{correlation, geometric_mean};
pub use summary::Summary;
pub use table::Table;
