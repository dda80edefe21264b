//! Heap configuration (Table 2 of the paper).

use serde::{Deserialize, Serialize};

/// Size of an OS page in bytes (4 KiB, §4.3).
pub const PAGE_SIZE: u64 = 4096;

/// Tunables of the heap model. Defaults follow Table 2 of the paper.
///
/// # Examples
///
/// ```
/// use fleet_heap::HeapConfig;
///
/// let cfg = HeapConfig::default();
/// assert_eq!(cfg.region_size, 256 * 1024);
/// assert_eq!(cfg.card_shift, 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeapConfig {
    /// Region size in bytes (Table 2: 256 KiB).
    pub region_size: u32,
    /// `CARD_SHIFT` for card-address conversion (Table 2: 10, i.e. 1 KiB
    /// of heap per card byte).
    pub card_shift: u32,
    /// Initial heap limit in bytes before the first growth.
    pub initial_limit: u64,
    /// Heap-limit growth factor applied after a GC while the app is in the
    /// *foreground*: `limit = live_bytes × factor`.
    pub growth_factor_foreground: f64,
    /// Growth factor applied after a GC while the app is in the
    /// *background*. §4.2: "When an app is in the background, the threshold
    /// is set to a value close to the memory usage" — hence the small 1.1
    /// default; §7.4 sweeps this between 1.1 and 2.0.
    pub growth_factor_background: f64,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            region_size: 256 * 1024,
            card_shift: 10,
            initial_limit: 8 * 1024 * 1024,
            growth_factor_foreground: 2.0,
            growth_factor_background: 1.1,
        }
    }
}

impl HeapConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: the region
    /// size must be a positive multiple of the page size and of the card
    /// size (so no card straddles two regions), and growth factors must be
    /// at least 1.
    pub fn validate(&self) -> Result<(), String> {
        if self.region_size == 0 || !(self.region_size as u64).is_multiple_of(PAGE_SIZE) {
            return Err(format!(
                "region_size {} must be a positive multiple of {PAGE_SIZE}",
                self.region_size
            ));
        }
        if self.card_shift == 0
            || self.card_shift >= 32
            || !(self.region_size as u64).is_multiple_of(1 << self.card_shift)
        {
            return Err(format!(
                "card_shift {} must give a card size that divides region_size {}",
                self.card_shift, self.region_size
            ));
        }
        if self.growth_factor_foreground < 1.0 || self.growth_factor_background < 1.0 {
            return Err("growth factors must be >= 1.0".to_string());
        }
        if self.initial_limit < self.region_size as u64 {
            return Err("initial_limit must hold at least one region".to_string());
        }
        Ok(())
    }

    /// Bytes of heap covered by one card-table byte.
    pub fn card_size(&self) -> u64 {
        1 << self.card_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let cfg = HeapConfig::default();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.card_size(), 1024);
        assert_eq!(cfg.growth_factor_background, 1.1);
    }

    #[test]
    fn rejects_unaligned_region() {
        let cfg = HeapConfig { region_size: 1000, ..HeapConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_oversized_card() {
        let cfg = HeapConfig { card_shift: 30, ..HeapConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_cards_straddling_regions() {
        // 8 KiB cards over 12 KiB regions: card 1 would cover bytes
        // 8192..16384, half in region 0 and half in region 1.
        let cfg = HeapConfig { region_size: 12288, card_shift: 13, ..HeapConfig::default() };
        assert!(cfg.validate().is_err());
        let cfg = HeapConfig { region_size: 12288, card_shift: 12, ..HeapConfig::default() };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn rejects_shrinking_growth() {
        let cfg = HeapConfig { growth_factor_background: 0.5, ..HeapConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_tiny_limit() {
        let cfg = HeapConfig { initial_limit: 1, ..HeapConfig::default() };
        assert!(cfg.validate().is_err());
    }
}
