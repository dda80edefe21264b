//! Region-based Java-heap model for the Fleet reproduction.
//!
//! This crate models the part of the Android Runtime (ART) heap that the
//! paper's mechanisms live in:
//!
//! * a slab **object arena** with explicit reference edges ([`object`]),
//! * **regions** — 256 KiB segments with bump-pointer allocation, a
//!   *newly-allocated* flag (used to detect FYO) and a *kind* recording
//!   whether the region holds foreground or background objects, or one of
//!   the Launch/WS/Cold groups produced by RGS ([`region`]),
//! * a **card table** with the paper's `CARD_SHIFT = 10` and the write
//!   barrier that dirties a card whenever a foreground object is mutated
//!   ([`card`], §5.2 of the paper),
//! * the **heap** itself: allocation contexts (foreground vs background,
//!   which is what makes an object an FGO or a BGO), roots, a dynamic heap
//!   limit with a configurable growth factor (§7.4), and the copy machinery
//!   collectors use ([`heap`]),
//! * **graph utilities**: dense BFS depth maps from the roots (the "NRO" metric)
//!   and reachability ([`graph`]).
//!
//! The heap knows nothing about pages being resident or swapped — that is
//! the kernel crate's job. It reports address-space changes through
//! [`HeapEvent`]s so the embedding layer can keep the kernel's page tables in
//! sync.
//!
//! # Examples
//!
//! ```
//! use fleet_heap::{AllocContext, Heap, HeapConfig};
//!
//! let mut heap = Heap::new(HeapConfig::default());
//! let root = heap.alloc(64);
//! heap.add_root(root);
//! let child = heap.alloc(32);
//! heap.add_ref(root, child);
//! assert_eq!(heap.object(root).refs(), &[child]);
//! assert_eq!(heap.object(root).context(), AllocContext::Foreground);
//! ```

#![warn(missing_docs)]

pub mod bitmap;
pub mod card;
pub mod config;
pub mod graph;
pub mod heap;
pub mod object;
pub mod region;

pub use bitmap::{ObjectMarks, RegionSet, SlotBitmap};
pub use card::CardTable;
pub use config::{HeapConfig, PAGE_SIZE};
pub use graph::{depth_map, reachable_set, DepthMap};
pub use heap::{Heap, HeapEvent, HeapStats, Swept};
pub use object::{AllocContext, Object, ObjectClass, ObjectId};
pub use region::{Region, RegionId, RegionKind};
