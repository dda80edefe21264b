//! Heap regions: fixed-size segments with bump-pointer allocation.
//!
//! ART divides the heap into 256 KiB regions (Table 2). Fleet extends the
//! per-region metadata with a *region-type flag* marking regions that hold
//! foreground objects (§5.2 "FGO & BGO separation") and relies on ART's
//! existing *newly-allocated* flag to find FYO (§5.3.1). The RGS grouping GC
//! adds three to-region kinds: Launch, WS and Cold (§5.3.1 "Group into
//! regions").

use crate::object::ObjectId;
use serde::{Deserialize, Serialize};

/// Identifier of a region. Regions are never renumbered; freed slots are
/// retired and new regions extend the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegionId(pub u32);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "region#{}", self.0)
    }
}

/// What a region holds. This combines ART's allocation spaces with Fleet's
/// region-type flag and the RGS to-region kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RegionKind {
    /// Ordinary allocation region for foreground mutator allocation.
    Eden,
    /// Compacted foreground objects (region-type flag set, §5.2).
    Fg,
    /// Background allocation region (BGO live here).
    Bg,
    /// RGS launch region: NRO and FYO grouped for the next hot-launch.
    Launch,
    /// RGS working-set region: objects the background app still uses.
    Ws,
    /// RGS cold region: proactively swapped out.
    Cold,
}

impl RegionKind {
    /// Number of kinds; `kind as usize` indexes arrays of this length.
    pub(crate) const COUNT: usize = 6;
}

impl std::fmt::Display for RegionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RegionKind::Eden => "eden",
            RegionKind::Fg => "fg",
            RegionKind::Bg => "bg",
            RegionKind::Launch => "launch",
            RegionKind::Ws => "ws",
            RegionKind::Cold => "cold",
        };
        write!(f, "{s}")
    }
}

/// A fixed-size heap segment with a bump pointer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    id: RegionId,
    kind: RegionKind,
    base: u64,
    size: u32,
    top: u32,
    newly_allocated: bool,
    /// Allocation log: `(offset, object)` for every bump, so in strictly
    /// increasing offset order. Nothing edits it, since a region never
    /// reuses space: an entry holds its object only while the arena has
    /// that object live at this region and offset (see
    /// [`crate::Heap::region_objects`]).
    log: Vec<(u32, ObjectId)>,
    /// Live objects in the region: the log entries that still hold theirs.
    live: u32,
}

impl Region {
    pub(crate) fn new(
        id: RegionId,
        kind: RegionKind,
        base: u64,
        size: u32,
        newly_allocated: bool,
    ) -> Self {
        Region { id, kind, base, size, top: 0, newly_allocated, log: Vec::new(), live: 0 }
    }

    /// The region's identifier.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// The region's kind.
    pub fn kind(&self) -> RegionKind {
        self.kind
    }

    /// First heap address of the region.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Region capacity in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Bytes already bump-allocated.
    pub fn used(&self) -> u32 {
        self.top
    }

    /// Bytes still available.
    pub fn free(&self) -> u32 {
        self.size - self.top
    }

    /// ART's newly-allocated flag: true until the first GC after the region
    /// was created. §5.3.1 uses it to detect FYO.
    pub fn newly_allocated(&self) -> bool {
        self.newly_allocated
    }

    pub(crate) fn clear_newly_allocated(&mut self) {
        self.newly_allocated = false;
    }

    /// True when the region holds no live object.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of live objects in the region.
    pub fn live_objects(&self) -> u32 {
        self.live
    }

    /// The allocation log: `(offset, object)` per bump, offsets ascending.
    pub(crate) fn log(&self) -> &[(u32, ObjectId)] {
        &self.log
    }

    pub(crate) fn log_mut(&mut self) -> &mut Vec<(u32, ObjectId)> {
        &mut self.log
    }

    /// Bump-allocates `size` bytes for `obj`, returning the offset, or
    /// `None` when the region is full.
    pub(crate) fn bump(&mut self, size: u32, obj: ObjectId) -> Option<u32> {
        if size == 0 || size > self.free() {
            return None;
        }
        let offset = self.top;
        self.top += size;
        self.log.push((offset, obj));
        self.live += 1;
        Some(offset)
    }

    /// Counts one live object out: it was copied elsewhere or freed. Its
    /// log entry stays; the arena no longer places the object there.
    pub(crate) fn release_object(&mut self) {
        self.live -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_monotonic() {
        let mut r = Region::new(RegionId(0), RegionKind::Eden, 0, 1024, true);
        assert_eq!(r.bump(100, ObjectId(0)), Some(0));
        assert_eq!(r.bump(200, ObjectId(1)), Some(100));
        assert_eq!(r.used(), 300);
        assert_eq!(r.free(), 724);
        assert_eq!(r.log(), &[(0, ObjectId(0)), (100, ObjectId(1))]);
        assert_eq!(r.live_objects(), 2);
    }

    #[test]
    fn bump_rejects_overflow_and_zero() {
        let mut r = Region::new(RegionId(0), RegionKind::Eden, 0, 128, true);
        assert_eq!(r.bump(0, ObjectId(0)), None);
        assert_eq!(r.bump(129, ObjectId(0)), None);
        assert_eq!(r.bump(128, ObjectId(0)), Some(0));
        assert_eq!(r.bump(1, ObjectId(1)), None);
    }

    #[test]
    fn address_range_and_flags() {
        let mut r = Region::new(RegionId(3), RegionKind::Bg, 4096, 256, true);
        assert!(r.newly_allocated());
        r.clear_newly_allocated();
        assert!(!r.newly_allocated());
        assert!(r.is_empty());
        r.bump(10, ObjectId(9));
        assert!(!r.is_empty());
        // Releasing the object empties the region but keeps its log entry.
        r.release_object();
        assert!(r.is_empty());
        assert_eq!(r.log(), &[(0, ObjectId(9))]);
    }

    #[test]
    fn kind_display() {
        assert_eq!(RegionKind::Launch.to_string(), "launch");
        assert_eq!(RegionId(2).to_string(), "region#2");
    }
}
