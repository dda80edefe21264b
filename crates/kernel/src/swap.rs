//! The flash-based swap device.
//!
//! §3.2 of the paper measures the Pixel 3's storage with tinymembench and
//! FIO: DRAM reads at 9182.7 MB/s versus 20.3 MB/s from the flash swap
//! partition — a ~452× gap. Those two constants are the defaults here and
//! drive every page-fault latency in the simulation.

use crate::fault::FaultPlan;
use crate::page::PAGE_SIZE;
use fleet_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// What backs the swap space.
///
/// The paper evaluates a flash partition (§6), but mainstream vendors also
/// ship compressed-RAM swap ("RAM plus", "memory expansion" — the zram
/// devices of §2.2's citations). Zram trades DRAM for capacity: swapped
/// pages still occupy `1/compression_ratio` of a frame, but come back at
/// memcpy-plus-decompress speed instead of flash speed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SwapMedium {
    /// A flash block device (the paper's 2 GB partition).
    Flash,
    /// Compressed RAM with the given compression ratio (typically ~2.8x
    /// with LZ4 on app heaps).
    Zram {
        /// Bytes of logical swap stored per byte of DRAM consumed.
        compression_ratio: f64,
    },
}

/// Swap device parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwapConfig {
    /// Device capacity in bytes (the paper uses a 2 GB partition, §6).
    pub capacity_bytes: u64,
    /// Sequential read bandwidth in bytes/second (paper: 20.3 MB/s).
    pub read_bw: f64,
    /// Write bandwidth in bytes/second (flash writes are slower; 15 MB/s).
    pub write_bw: f64,
    /// Fixed per-operation latency (request setup + flash access).
    pub op_latency: SimDuration,
    /// What backs the space.
    pub medium: SwapMedium,
}

impl Default for SwapConfig {
    fn default() -> Self {
        SwapConfig {
            capacity_bytes: 2 * 1024 * 1024 * 1024,
            read_bw: 20.3e6,
            write_bw: 15.0e6,
            op_latency: SimDuration::from_micros(80),
            medium: SwapMedium::Flash,
        }
    }
}

impl SwapConfig {
    /// A zram device: `capacity_bytes` of logical space at LZ4-class speed
    /// (1.2 GB/s read, 0.8 GB/s write, 4 µs per operation), consuming DRAM
    /// at `1/compression_ratio` per stored page.
    ///
    /// # Errors
    ///
    /// Returns the first [`SwapConfig::validate`] failure: a compression
    /// ratio not above 1 (zram below 1:1 compression is pointless) or zero
    /// capacity.
    pub fn try_zram(capacity_bytes: u64, compression_ratio: f64) -> Result<Self, String> {
        let config = SwapConfig {
            capacity_bytes,
            read_bw: 1.2e9,
            write_bw: 0.8e9,
            op_latency: SimDuration::from_micros(4),
            medium: SwapMedium::Zram { compression_ratio },
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks the configuration is physically meaningful.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid field: a zram compression
    /// ratio not above 1, a non-positive bandwidth, or zero capacity.
    pub fn validate(&self) -> Result<(), String> {
        if let SwapMedium::Zram { compression_ratio } = self.medium {
            if !compression_ratio.is_finite() || compression_ratio <= 1.0 {
                return Err(format!(
                    "zram compression_ratio {compression_ratio} must be > 1 \
                     (below 1:1 compression is pointless)"
                ));
            }
        }
        if !self.read_bw.is_finite() || self.read_bw <= 0.0 {
            return Err(format!("swap read_bw {} must be positive", self.read_bw));
        }
        if !self.write_bw.is_finite() || self.write_bw <= 0.0 {
            return Err(format!("swap write_bw {} must be positive", self.write_bw));
        }
        if self.capacity_bytes == 0 {
            return Err("swap capacity_bytes must be non-zero".to_string());
        }
        Ok(())
    }
}

/// Why a swap operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapError {
    /// A transient I/O error: the same operation may succeed on retry.
    TransientIo,
    /// No slot is free — either the device is genuinely full or an injected
    /// exhaustion window refused the reservation.
    Full,
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::TransientIo => write!(f, "transient swap I/O error"),
            SwapError::Full => write!(f, "swap device full"),
        }
    }
}

impl std::error::Error for SwapError {}

/// The swap partition: a capacity-limited store with asymmetric read/write
/// cost.
///
/// # Examples
///
/// ```
/// use fleet_kernel::{SwapConfig, SwapDevice};
///
/// let mut swap = SwapDevice::new(SwapConfig::default());
/// assert!(swap.reserve_page());
/// let fault = swap.read_pages(1);
/// assert!(fault.as_micros() > 100); // ~280 µs for 4 KiB at 20.3 MB/s
/// ```
#[derive(Debug, Clone)]
pub struct SwapDevice {
    config: SwapConfig,
    used_pages: u64,
    total_pages_written: u64,
    total_pages_read: u64,
    /// Deterministic fault schedule; a quiet default plan until one is
    /// installed, so plain devices never inject anything.
    fault: FaultPlan,
    /// Zram only: stored pages that failed compression and occupy a full
    /// frame each. Always `<= used_pages`.
    raw_pages: u64,
    /// Failed fallible operations (injected read/write errors and injected
    /// reservation refusals; genuine capacity exhaustion is not an error).
    io_errors: u64,
    /// Slots permanently removed from service after a detected corruption
    /// (DESIGN.md §14). Quarantined slots count against capacity but hold
    /// no page: `used_pages + quarantined_pages <= capacity_pages`.
    quarantined_pages: u64,
}

/// Schema-stable per-tier counters, returned by [`SwapDevice::tier_stats`]
/// and aggregated into `SwapStats` by the tier stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierStats {
    /// Pages currently stored in the tier.
    pub stored_pages: u64,
    /// Stored pages held raw after a compression failure (zram only).
    pub incompressible_pages: u64,
    /// Total pages ever written to the tier.
    pub pages_written: u64,
    /// Total pages ever read back from the tier.
    pub pages_read: u64,
    /// Failed fallible operations (injected I/O errors and refusals).
    pub io_errors: u64,
    /// DRAM frames the stored pages consume (zero for flash).
    pub frames_consumed: u64,
    /// Slots quarantined after a detected corruption (removed from
    /// capacity for the rest of the run; zero unless the integrity layer
    /// is armed).
    pub quarantined_pages: u64,
}

impl SwapDevice {
    /// Creates an empty swap device (quiet fault plan: nothing injected).
    pub fn new(config: SwapConfig) -> Self {
        SwapDevice {
            config,
            used_pages: 0,
            total_pages_written: 0,
            total_pages_read: 0,
            fault: FaultPlan::default(),
            raw_pages: 0,
            io_errors: 0,
            quarantined_pages: 0,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &SwapConfig {
        &self.config
    }

    /// Installs (arms) a fault plan. Replacing the plan mid-run resets its
    /// stream position.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// True when an armed (non-quiet) fault plan can inject faults. The
    /// degradation machinery in the memory manager and device layers is
    /// gated on this so quiet runs stay bit-identical to fault-free builds.
    pub fn fault_active(&self) -> bool {
        !self.fault.is_quiet()
    }

    /// The installed fault plan (decision stream for callers that roll
    /// per-page fates, e.g. the memory manager's fault-in path).
    pub fn fault_plan_mut(&mut self) -> &mut FaultPlan {
        &mut self.fault
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.config.capacity_bytes / PAGE_SIZE
    }

    /// Pages currently stored.
    pub fn used_pages(&self) -> u64 {
        self.used_pages
    }

    /// Free page slots (quarantined slots are permanently out of service).
    pub fn free_pages(&self) -> u64 {
        self.capacity_pages() - self.used_pages - self.quarantined_pages
    }

    /// True when no slot is free.
    pub fn is_full(&self) -> bool {
        self.used_pages + self.quarantined_pages >= self.capacity_pages()
    }

    /// Reserves a slot for one page being swapped out. Returns false when
    /// the device is full (the page then cannot be evicted).
    pub fn reserve_page(&mut self) -> bool {
        if self.is_full() {
            return false;
        }
        self.used_pages += 1;
        self.total_pages_written += 1;
        true
    }

    /// Reserves a slot through the fault plan: an armed plan may refuse the
    /// reservation (injected exhaustion window) or store the page raw on a
    /// zram device (compression failure).
    ///
    /// # Errors
    ///
    /// [`SwapError::Full`] when no slot is free or the reservation was
    /// refused by an injected exhaustion window.
    pub fn try_reserve(&mut self) -> Result<(), SwapError> {
        if self.is_full() {
            return Err(SwapError::Full);
        }
        if self.fault.reserve_fault() {
            self.io_errors += 1;
            return Err(SwapError::Full);
        }
        let raw =
            matches!(self.config.medium, SwapMedium::Zram { .. }) && self.fault.compress_fault();
        let reserved = self.reserve_page();
        debug_assert!(reserved, "fullness checked above");
        if raw {
            self.raw_pages += 1;
        }
        Ok(())
    }

    /// Whether the next page stored on this device would fail compression
    /// and sit raw (draws the fate from the fault plan; always false for
    /// flash media and quiet plans). The tier stack calls this *before*
    /// reserving so incompressible pages can fall through to the flash tier
    /// instead of pinning a full DRAM frame.
    pub fn next_store_incompressible(&mut self) -> bool {
        matches!(self.config.medium, SwapMedium::Zram { .. }) && self.fault.compress_fault()
    }

    /// Reserves a slot with an externally-decided compressibility fate
    /// (tier-stack use: the stack draws the fate once via
    /// [`SwapDevice::next_store_incompressible`] and routes the page).
    ///
    /// # Errors
    ///
    /// [`SwapError::Full`] when no slot is free or the reservation was
    /// refused by an injected exhaustion window.
    pub fn try_reserve_decided(&mut self, raw: bool) -> Result<(), SwapError> {
        if self.is_full() {
            return Err(SwapError::Full);
        }
        if self.fault.reserve_fault() {
            self.io_errors += 1;
            return Err(SwapError::Full);
        }
        let reserved = self.reserve_page();
        debug_assert!(reserved, "fullness checked above");
        if raw {
            self.raw_pages += 1;
        }
        Ok(())
    }

    /// Decides the fate of one write-back of `n` pages through the fault
    /// plan (quiet plans never fail) and returns its cost. On error the
    /// caller must leave the victim page resident.
    ///
    /// # Errors
    ///
    /// [`SwapError::TransientIo`] when the injected write-back fails.
    pub fn try_write(&mut self, n: u64) -> Result<SimDuration, SwapError> {
        if self.fault.write_fault() {
            self.io_errors += 1;
            return Err(SwapError::TransientIo);
        }
        Ok(self.write_cost(n))
    }

    /// Releases a slot (page faulted back in or unmapped while swapped).
    ///
    /// # Panics
    ///
    /// Panics if the device is empty.
    pub fn release_page(&mut self) {
        assert!(self.used_pages > 0, "releasing a page from an empty swap device");
        self.used_pages -= 1;
        // Raw-stored pages are not tracked per slot; clamping keeps the
        // count consistent (releases are attributed to compressed slots
        // first, a deterministic approximation documented in DESIGN.md §9).
        self.raw_pages = self.raw_pages.min(self.used_pages);
    }

    /// Releases a slot into quarantine: the stored page is gone (corruption
    /// detected, DESIGN.md §14) and the slot is never handed out again —
    /// capacity shrinks by one for the rest of the run.
    ///
    /// # Panics
    ///
    /// Panics if the device is empty.
    pub fn release_page_quarantined(&mut self) {
        self.release_page();
        self.quarantined_pages += 1;
    }

    /// Slots quarantined so far (zero unless the integrity layer is armed).
    pub fn quarantined_pages(&self) -> u64 {
        self.quarantined_pages
    }

    /// Latency of reading `n` pages back from the device (one operation:
    /// a single setup cost plus bandwidth-limited transfer). This is the
    /// cost a faulting thread stalls for.
    pub fn read_pages(&mut self, n: u64) -> SimDuration {
        if n == 0 {
            return SimDuration::ZERO;
        }
        self.total_pages_read += n;
        let transfer = (n * PAGE_SIZE) as f64 / self.config.read_bw;
        self.config.op_latency + SimDuration::from_secs_f64(transfer)
    }

    /// Latency of writing `n` pages out (charged to kswapd, not mutators).
    pub fn write_cost(&self, n: u64) -> SimDuration {
        if n == 0 {
            return SimDuration::ZERO;
        }
        let transfer = (n * PAGE_SIZE) as f64 / self.config.write_bw;
        self.config.op_latency + SimDuration::from_secs_f64(transfer)
    }

    /// Total pages ever written to the device.
    pub fn total_pages_written(&self) -> u64 {
        self.total_pages_written
    }

    /// Total pages ever read from the device.
    pub fn total_pages_read(&self) -> u64 {
        self.total_pages_read
    }

    /// Total bytes moved in either direction (for the power model).
    pub fn total_bytes_moved(&self) -> u64 {
        (self.total_pages_written + self.total_pages_read) * PAGE_SIZE
    }

    /// Zram only: stored pages that failed compression and occupy a full
    /// frame each.
    pub fn raw_pages(&self) -> u64 {
        self.raw_pages
    }

    /// Failed fallible operations so far (injected I/O errors and injected
    /// reservation refusals).
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// The schema-stable counter snapshot for this device as one tier.
    pub fn tier_stats(&self) -> TierStats {
        TierStats {
            stored_pages: self.used_pages,
            incompressible_pages: self.raw_pages,
            pages_written: self.total_pages_written,
            pages_read: self.total_pages_read,
            io_errors: self.io_errors,
            frames_consumed: self.frames_consumed(),
            quarantined_pages: self.quarantined_pages,
        }
    }

    /// DRAM frames consumed by the stored pages: zero for flash, the
    /// compressed size for zram. Incompressible pages (injected compression
    /// failures) are charged a full frame each.
    pub fn frames_consumed(&self) -> u64 {
        match self.config.medium {
            SwapMedium::Flash => 0,
            SwapMedium::Zram { compression_ratio } => {
                let compressed = self.used_pages - self.raw_pages;
                (compressed as f64 / compression_ratio).ceil() as u64 + self.raw_pages
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_accounting() {
        let mut swap =
            SwapDevice::new(SwapConfig { capacity_bytes: 3 * PAGE_SIZE, ..SwapConfig::default() });
        assert_eq!(swap.capacity_pages(), 3);
        assert!(swap.reserve_page());
        assert!(swap.reserve_page());
        assert!(swap.reserve_page());
        assert!(swap.is_full());
        assert!(!swap.reserve_page());
        swap.release_page();
        assert_eq!(swap.free_pages(), 1);
        assert!(swap.reserve_page());
    }

    #[test]
    fn read_latency_matches_bandwidth() {
        let mut swap = SwapDevice::new(SwapConfig::default());
        let one = swap.read_pages(1);
        // 4096 B / 20.3 MB/s ≈ 201 µs + 80 µs op latency.
        let expect_us = 4096.0 / 20.3e6 * 1e6 + 80.0;
        assert!((one.as_micros() as f64 - expect_us).abs() < 2.0, "{one}");
        // Batched read amortises the op latency.
        let ten = swap.read_pages(10);
        assert!(ten < one * 10);
        assert_eq!(swap.total_pages_read(), 11);
    }

    #[test]
    fn zero_page_ops_are_free() {
        let mut swap = SwapDevice::new(SwapConfig::default());
        assert_eq!(swap.read_pages(0), SimDuration::ZERO);
        assert_eq!(swap.write_cost(0), SimDuration::ZERO);
    }

    #[test]
    fn dram_to_swap_gap_is_about_452x() {
        // Sanity-check the paper's constants: 9182.7 / 20.3 ≈ 452.
        let gap: f64 = 9182.7 / 20.3;
        assert!((gap - 452.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "empty swap")]
    fn release_from_empty_panics() {
        SwapDevice::new(SwapConfig::default()).release_page();
    }

    #[test]
    fn zram_reads_are_orders_of_magnitude_faster() {
        let mut flash = SwapDevice::new(SwapConfig::default());
        let mut zram = SwapDevice::new(SwapConfig::try_zram(1024 * 1024 * 1024, 2.8).unwrap());
        let f = flash.read_pages(100);
        let z = zram.read_pages(100);
        assert!(f.as_nanos() > 50 * z.as_nanos(), "flash {f} vs zram {z}");
    }

    #[test]
    fn zram_consumes_dram_flash_does_not() {
        let mut flash = SwapDevice::new(SwapConfig::default());
        let mut zram = SwapDevice::new(SwapConfig::try_zram(1024 * 1024 * 1024, 2.0).unwrap());
        for _ in 0..100 {
            assert!(flash.reserve_page());
            assert!(zram.reserve_page());
        }
        assert_eq!(flash.frames_consumed(), 0);
        assert_eq!(zram.frames_consumed(), 50);
        zram.release_page();
        assert_eq!(zram.frames_consumed(), 50); // ceil(99/2)
    }

    #[test]
    fn zram_ratio_must_exceed_one() {
        let err = SwapConfig::try_zram(1024, 0.9).unwrap_err();
        assert!(err.contains("pointless"), "{err}");
        assert!(SwapConfig::try_zram(1024, 1.0).is_err());
        assert!(SwapConfig::try_zram(1024, f64::NAN).is_err());
        assert!(SwapConfig::try_zram(1024, 2.8).is_ok());
    }

    #[test]
    fn validate_rejects_instead_of_panicking() {
        let cfg = SwapConfig::try_zram(8 * PAGE_SIZE, 2.0).expect("valid zram config");
        assert_eq!(cfg.capacity_bytes, 8 * PAGE_SIZE);
        assert_eq!(cfg.medium, SwapMedium::Zram { compression_ratio: 2.0 });
        assert_eq!(cfg.op_latency, SimDuration::from_micros(4));
        assert!(SwapConfig { capacity_bytes: 0, ..SwapConfig::default() }.validate().is_err());
        assert!(SwapConfig { read_bw: 0.0, ..SwapConfig::default() }.validate().is_err());
        assert!(SwapConfig { write_bw: -1.0, ..SwapConfig::default() }.validate().is_err());
        // Defaults alone are valid flash.
        assert!(SwapConfig::default().validate().is_ok());
    }

    #[test]
    fn tier_stats_snapshot_counters() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut swap = SwapDevice::new(SwapConfig::default());
        assert!(swap.try_reserve().is_ok());
        let _ = swap.read_pages(3);
        swap.install_fault_plan(FaultPlan::new(
            5,
            FaultConfig { write_error_rate: 1.0, ..FaultConfig::default() },
        ));
        assert!(swap.try_write(1).is_err());
        let stats = swap.tier_stats();
        assert_eq!(stats.stored_pages, 1);
        assert_eq!(stats.pages_written, 1);
        assert_eq!(stats.pages_read, 3);
        assert_eq!(stats.io_errors, 1);
        assert_eq!(stats.frames_consumed, 0);
        assert_eq!(stats.incompressible_pages, 0);
    }

    #[test]
    fn decided_reservation_routes_raw_externally() {
        let mut zram = SwapDevice::new(SwapConfig::try_zram(1024 * 1024, 2.0).unwrap());
        // Quiet plan: the probe never marks a page incompressible.
        assert!(!zram.next_store_incompressible());
        zram.try_reserve_decided(false).unwrap();
        assert_eq!(zram.raw_pages(), 0);
        zram.try_reserve_decided(true).unwrap();
        assert_eq!(zram.raw_pages(), 1);
        assert_eq!(zram.used_pages(), 2);
    }

    #[test]
    fn quiet_try_ops_match_infallible_ops() {
        let mut a = SwapDevice::new(SwapConfig::default());
        let mut b = SwapDevice::new(SwapConfig::default());
        assert!(a.try_reserve().is_ok());
        assert!(b.reserve_page());
        assert_eq!(a.used_pages(), b.used_pages());
        let w = a.try_write(3).expect("quiet writes never fail");
        assert_eq!(w, b.write_cost(3));
    }

    #[test]
    fn injected_exhaustion_refuses_despite_capacity() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut swap = SwapDevice::new(SwapConfig::default());
        swap.install_fault_plan(FaultPlan::new(
            2,
            FaultConfig { slot_exhaustion_rate: 1.0, ..FaultConfig::default() },
        ));
        assert_eq!(swap.try_reserve(), Err(SwapError::Full));
        assert_eq!(swap.used_pages(), 0);
        assert!(!swap.is_full());
    }

    #[test]
    fn quarantined_slots_shrink_capacity_permanently() {
        let mut swap =
            SwapDevice::new(SwapConfig { capacity_bytes: 3 * PAGE_SIZE, ..SwapConfig::default() });
        assert!(swap.reserve_page());
        assert!(swap.reserve_page());
        swap.release_page_quarantined();
        assert_eq!(swap.quarantined_pages(), 1);
        assert_eq!(swap.used_pages(), 1);
        // Capacity 3, one used, one quarantined: exactly one slot left.
        assert_eq!(swap.free_pages(), 1);
        assert!(swap.reserve_page());
        assert!(swap.is_full());
        assert!(!swap.reserve_page(), "a quarantined slot is never reused");
        assert_eq!(swap.tier_stats().quarantined_pages, 1);
    }

    #[test]
    fn incompressible_pages_consume_full_frames() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut zram = SwapDevice::new(SwapConfig::try_zram(1024 * 1024 * 1024, 2.0).unwrap());
        zram.install_fault_plan(FaultPlan::new(
            3,
            FaultConfig { compress_fail_rate: 1.0, ..FaultConfig::default() },
        ));
        for _ in 0..10 {
            zram.try_reserve().expect("capacity remains");
        }
        assert_eq!(zram.raw_pages(), 10);
        assert_eq!(zram.frames_consumed(), 10); // raw: no 2:1 benefit
        zram.release_page();
        assert_eq!(zram.raw_pages(), 9);
    }
}
