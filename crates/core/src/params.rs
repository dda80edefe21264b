//! Fleet's parameters (Table 2) and the comparison schemes (Table 1).

use fleet_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Fleet's tunables; defaults are Table 2 of the paper.
///
/// # Examples
///
/// ```
/// use fleet::FleetParams;
///
/// let p = FleetParams::default();
/// assert_eq!(p.depth, 2);
/// assert_eq!(p.ts.as_millis(), 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetParams {
    /// Maximum depth to the roots for NRO (Table 2: D = 2).
    pub depth: u32,
    /// Wait time after backgrounding before Fleet starts (Table 2: 10 s).
    pub ts: SimDuration,
    /// Wait time after foregrounding before Fleet stops (Table 2: 3 s).
    pub tf: SimDuration,
    /// `CARD_SHIFT` for card-address conversion (Table 2: 10).
    pub card_shift: u32,
    /// Region size of the Java heap (Table 2: 256 KiB).
    pub region_size: u32,
    /// How often RGS re-issues `madvise(HOT_RUNTIME)` on the launch pages
    /// while the app stays cached (§5.3.2 "periodically execute").
    pub hot_refresh: SimDuration,
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams {
            depth: 2,
            ts: SimDuration::from_secs(10),
            tf: SimDuration::from_secs(3),
            card_shift: 10,
            region_size: 256 * 1024,
            hot_refresh: SimDuration::from_secs(5),
        }
    }
}

/// The comparison schemes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemeKind {
    /// Default Android with the swap partition disabled (the §3.1 "w/o
    /// swap" baseline).
    AndroidNoSwap,
    /// Default Android: native GC + page-granularity kernel LRU swap.
    Android,
    /// Marvin: bookmarking GC + object-granularity swap (kernel LRU swap of
    /// the Java heap is disabled; Marvin manages reclamation itself).
    Marvin,
    /// Fleet: background-object GC + runtime-guided swap.
    Fleet,
}

impl SchemeKind {
    /// All schemes in Table 1 order (plus the no-swap baseline first).
    pub const ALL: [SchemeKind; 4] =
        [SchemeKind::AndroidNoSwap, SchemeKind::Android, SchemeKind::Marvin, SchemeKind::Fleet];

    /// The scheme's position in [`SchemeKind::ALL`], which lists the
    /// variants in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Table 1's "GC approach" column.
    pub fn gc_approach(self) -> &'static str {
        match self {
            SchemeKind::AndroidNoSwap | SchemeKind::Android => "Native GC",
            SchemeKind::Marvin => "Bookmark GC",
            SchemeKind::Fleet => "Background-object GC (§5.2)",
        }
    }

    /// Table 1's swap "Granularity" column.
    pub fn swap_granularity(self) -> &'static str {
        match self {
            SchemeKind::AndroidNoSwap => "None",
            SchemeKind::Android => "Page",
            SchemeKind::Marvin => "Object",
            SchemeKind::Fleet => "Grouped page (§5.3.1)",
        }
    }

    /// Table 1's swap "Scheme" column.
    pub fn swap_scheme(self) -> &'static str {
        match self {
            SchemeKind::AndroidNoSwap => "Disabled",
            SchemeKind::Android => "LRU",
            SchemeKind::Marvin => "Object LRU",
            SchemeKind::Fleet => "Runtime-guided swap (§5.3)",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchemeKind::AndroidNoSwap => "Android w/o swap",
            SchemeKind::Android => "Android",
            SchemeKind::Marvin => "Marvin",
            SchemeKind::Fleet => "Fleet",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let p = FleetParams::default();
        assert_eq!(p.depth, 2);
        assert_eq!(p.ts, SimDuration::from_secs(10));
        assert_eq!(p.tf, SimDuration::from_secs(3));
        assert_eq!(p.card_shift, 10);
        assert_eq!(p.region_size, 256 * 1024);
    }

    #[test]
    fn table1_rows_are_complete() {
        for (i, scheme) in SchemeKind::ALL.into_iter().enumerate() {
            assert_eq!(scheme.index(), i);
            assert!(!scheme.gc_approach().is_empty());
            assert!(!scheme.swap_granularity().is_empty());
            assert!(!scheme.swap_scheme().is_empty());
            assert!(!scheme.to_string().is_empty());
        }
        assert_eq!(SchemeKind::Marvin.swap_granularity(), "Object");
        assert_eq!(SchemeKind::Android.swap_scheme(), "LRU");
    }
}
