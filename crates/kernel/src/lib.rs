//! Linux memory-subsystem model for the Fleet reproduction.
//!
//! The paper's kernel side consists of: the page-granularity LRU swap
//! mechanism ("the swap mechanism offloads the least-recently-used pages to
//! the swap partition", §2.2), a flash swap partition ~452× slower than DRAM
//! (§3.2), watermark-driven reclaim, the `madvise` system call extended with
//! Fleet's `COLD_RUNTIME`/`HOT_RUNTIME` options (§5.3.2), and the low-memory
//! killer that terminates cached apps under pressure (§3.2 "may induce
//! terminations of cached apps").
//!
//! This crate models all of that at page granularity:
//!
//! * [`page`] — process ids, page keys and access kinds,
//! * [`lru`] — a second-chance LRU over all mapped pages,
//! * [`swap`] — the swap device with the paper's measured bandwidths,
//! * [`tier`] — the tiered swap stack (an optional zram front tier with
//!   hotness-aware placement, in front of the flash tier),
//! * [`mm`] — the memory manager tying frames, LRU, swap, reclaim and
//!   the madvise extensions together,
//! * [`lmk`] — the low-memory-killer victim policy and vocabulary types
//!   (kill execution lives in [`reclaim`]),
//! * [`reclaim`] — the unified reclaim surface: [`ReclaimPolicy`]
//!   (reactive vs SWAM-style proactive), [`KillPolicy`] (coldest-first vs
//!   WSS-weighted oom scoring) and the [`ReclaimDriver`] that owns the
//!   daemon tick,
//! * [`fault`] — deterministic fault injection (I/O errors, latency
//!   spikes, slot exhaustion, zram compression failures, silent slot
//!   corruption, torn writebacks) for the degradation paths; quiet by
//!   default,
//! * [`integrity`] — the data-integrity layer: per-slot FNV-1a checksums,
//!   slot quarantine and runtime tier retirement policy; off by default.
//!
//! # Examples
//!
//! ```
//! use fleet_kernel::{AccessKind, MemoryManager, MmConfig, Pid};
//!
//! let mut mm = MemoryManager::new(MmConfig::small_test());
//! let pid = Pid(1);
//! mm.map_range(pid, 0, 64 * 4096).unwrap();
//! let outcome = mm.access(pid, 0, 128, AccessKind::Mutator);
//! assert_eq!(outcome.faulted_pages, 0); // freshly mapped pages are resident
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod integrity;
pub mod lmk;
pub mod lru;
pub mod mm;
pub mod page;
pub mod reclaim;
pub mod swap;
pub mod tier;

pub use fault::{retry_backoff, FaultConfig, FaultPlan, ReadFault, FAULT_RETRY_MAX};
pub use integrity::IntegrityConfig;
pub use lmk::{LmkCandidate, LmkOutcome};
pub use lru::{LruHandle, LruQueue};
pub use mm::{
    AccessKind, AccessOutcome, Advice, KernelStats, MemoryManager, MmConfig, MmError, ScrubReport,
    WssSnapshot,
};
pub use page::{PageKey, PageKind, PageState, Pid, PAGE_SIZE};
pub use reclaim::{KillPolicy, ReclaimDriver, ReclaimPolicy, SwamParams};
pub use swap::{SwapConfig, SwapDevice, SwapError, SwapMedium, TierStats};
pub use tier::{SwapStack, SwapStats, SwapTier};

// Send audit: population-scale cohort runs (fleet::population) move whole
// per-device kernel states onto worker threads, each worker owning its
// devices outright. Every stateful type in the mm stack must therefore be
// `Send`; these compile-time assertions turn an accidental Rc/RefCell (or a
// raw pointer without an explicit impl) anywhere in the state into a build
// error instead of a runtime surprise.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<MemoryManager>();
    assert_send::<SwapStack>();
    assert_send::<SwapDevice>();
    assert_send::<FaultPlan>();
    assert_send::<LruQueue>();
    assert_send::<ReclaimDriver>();
    assert_send::<KernelStats>();
};
