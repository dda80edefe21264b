//! Deterministic simulation substrate for the Fleet reproduction.
//!
//! The paper ("More Apps, Faster Hot-Launch on Mobile Devices via
//! Fore/Background-aware GC-Swap Co-design", ASPLOS '24) evaluates on a real
//! Pixel 3. This workspace reproduces the system as a deterministic
//! simulator; this crate provides the two primitives every other layer
//! builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution virtual clock
//!   ([`Clock`]) that only moves when the simulation says so,
//! * [`SimRng`] and [`SizeDistribution`] — seeded randomness and the
//!   object-size distribution used by the app behaviour models.
//!
//! Everything here is deliberately free of wall-clock time and global state:
//! two runs with the same seed produce bit-identical traces, which the
//! integration tests assert.
//!
//! # Examples
//!
//! ```
//! use fleet_sim::{Clock, SimDuration};
//!
//! let mut clock = Clock::new();
//! clock.advance(SimDuration::from_millis(273));
//! assert_eq!(clock.now().as_millis(), 273);
//! ```

#![warn(missing_docs)]

pub mod dist;
pub mod rng;
pub mod time;

pub use dist::SizeDistribution;
pub use rng::SimRng;
pub use time::{Clock, SimDuration, SimTime};
