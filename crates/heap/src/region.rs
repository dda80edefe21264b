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

    /// True for regions that hold foreground objects — the regions whose
    /// writes must dirty the card table and which BGC must not trace into.
    pub fn holds_foreground(self) -> bool {
        matches!(
            self,
            RegionKind::Eden
                | RegionKind::Fg
                | RegionKind::Launch
                | RegionKind::Ws
                | RegionKind::Cold
        )
    }
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
    /// Objects in the region, in increasing-offset order (bump allocation
    /// appends monotonically).
    objects: Vec<ObjectId>,
}

impl Region {
    pub(crate) fn new(
        id: RegionId,
        kind: RegionKind,
        base: u64,
        size: u32,
        newly_allocated: bool,
    ) -> Self {
        Region { id, kind, base, size, top: 0, newly_allocated, objects: Vec::new() }
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

    /// Objects in the region in increasing-offset order.
    pub fn objects(&self) -> &[ObjectId] {
        &self.objects
    }

    /// Bump-allocates `size` bytes, returning the offset, or `None` when the
    /// region is full.
    pub(crate) fn bump(&mut self, size: u32, obj: ObjectId) -> Option<u32> {
        if size == 0 || size > self.free() {
            return None;
        }
        let offset = self.top;
        self.top += size;
        self.objects.push(obj);
        Some(offset)
    }

    /// Unlinks `obj`, which the list holds at `offset`, by binary search:
    /// the list is in increasing-offset order. `offset_of` reads a listed
    /// object's offset.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not listed at `offset`: either it is not in this
    /// region or the list is out of order.
    pub(crate) fn remove_object_at(
        &mut self,
        obj: ObjectId,
        offset: u32,
        offset_of: impl Fn(ObjectId) -> u32,
    ) {
        match self.objects.binary_search_by_key(&offset, |&o| offset_of(o)) {
            Ok(pos) if self.objects[pos] == obj => {
                self.objects.remove(pos);
            }
            _ => panic!("{obj} is not listed at offset {offset} of {}", self.id),
        }
    }

    #[cfg(test)]
    pub(crate) fn objects_mut(&mut self) -> &mut Vec<ObjectId> {
        &mut self.objects
    }

    /// End address (exclusive) of the allocated part of the region.
    pub fn allocated_end(&self) -> u64 {
        self.base + self.top as u64
    }

    /// The address range `[base, base + size)` of the whole region.
    pub fn address_range(&self) -> std::ops::Range<u64> {
        self.base..self.base + self.size as u64
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
        assert_eq!(r.objects(), &[ObjectId(0), ObjectId(1)]);
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
    fn foreground_kinds() {
        assert!(RegionKind::Eden.holds_foreground());
        assert!(RegionKind::Fg.holds_foreground());
        assert!(RegionKind::Launch.holds_foreground());
        assert!(RegionKind::Ws.holds_foreground());
        assert!(RegionKind::Cold.holds_foreground());
        assert!(!RegionKind::Bg.holds_foreground());
    }

    #[test]
    fn address_range_and_flags() {
        let mut r = Region::new(RegionId(3), RegionKind::Bg, 4096, 256, true);
        assert_eq!(r.address_range(), 4096..4352);
        assert!(r.newly_allocated());
        r.clear_newly_allocated();
        assert!(!r.newly_allocated());
        r.bump(10, ObjectId(9));
        assert_eq!(r.allocated_end(), 4106);
        r.remove_object_at(ObjectId(9), 0, |_| 0);
        assert!(r.objects().is_empty());
    }

    #[test]
    fn remove_object_at_binary_searches_by_offset() {
        let mut r = Region::new(RegionId(0), RegionKind::Eden, 0, 1024, true);
        let offsets: Vec<u32> = (0..5).map(|i| r.bump(10 + i, ObjectId(i)).unwrap()).collect();
        let offset_of = |o: ObjectId| offsets[o.0 as usize];
        r.remove_object_at(ObjectId(0), offsets[0], offset_of);
        r.remove_object_at(ObjectId(2), offsets[2], offset_of);
        r.remove_object_at(ObjectId(4), offsets[4], offset_of);
        assert_eq!(r.objects(), &[ObjectId(1), ObjectId(3)]);
    }

    #[test]
    #[should_panic(expected = "not listed at offset 0")]
    fn remove_object_at_misses_panic() {
        let mut r = Region::new(RegionId(0), RegionKind::Eden, 0, 1024, true);
        r.bump(10, ObjectId(0));
        r.bump(10, ObjectId(1));
        // Object 1 lives at offset 10, not 0.
        r.remove_object_at(ObjectId(1), 0, |o| o.0 * 10);
    }

    #[test]
    fn kind_display() {
        assert_eq!(RegionKind::Launch.to_string(), "launch");
        assert_eq!(RegionId(2).to_string(), "region#2");
    }
}
