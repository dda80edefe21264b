//! Dense mark bitmaps over arena slot indices.
//!
//! Both [`ObjectId`] and [`RegionId`] are
//! dense arena indices (slots are never renumbered), so a flat bitmap of one
//! bit per slot replaces the `HashSet` visited/marked sets the tracing
//! collectors used to carry: marking becomes a shift, a mask and an OR on a
//! cache-resident word array — the same layout ART's region-space mark
//! bitmaps use — instead of a hash, a probe sequence and a possible
//! reallocation per object.
//!
//! [`SlotBitmap`] is the untyped engine; [`ObjectMarks`] and [`RegionSet`]
//! are the thin typed views the collectors use.

use crate::heap::Heap;
use crate::object::ObjectId;
use crate::region::RegionId;

const WORD_BITS: usize = 64;

/// A growable bitmap over `u32` slot indices with a live popcount.
///
/// # Examples
///
/// ```
/// use fleet_heap::SlotBitmap;
///
/// let mut marks = SlotBitmap::with_capacity(128);
/// assert!(marks.insert(7));
/// assert!(!marks.insert(7)); // already set
/// assert!(marks.contains(7));
/// assert_eq!(marks.len(), 1);
/// assert_eq!(marks.iter().collect::<Vec<_>>(), vec![7]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotBitmap {
    words: Vec<u64>,
    len: usize,
}

impl SlotBitmap {
    /// Creates an empty bitmap sized for `slots` indices (it still grows on
    /// demand if a larger index is inserted).
    pub fn with_capacity(slots: usize) -> Self {
        SlotBitmap { words: vec![0; slots.div_ceil(WORD_BITS)], len: 0 }
    }

    /// Sets `slot`; returns `true` if it was not set before (the idiom that
    /// replaces `HashSet::insert` in trace loops).
    pub fn insert(&mut self, slot: u32) -> bool {
        let (word, bit) = (slot as usize / WORD_BITS, slot as usize % WORD_BITS);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.words[word] & mask != 0 {
            return false;
        }
        self.words[word] |= mask;
        self.len += 1;
        true
    }

    /// Clears `slot`; returns `true` if it was set.
    pub fn remove(&mut self, slot: u32) -> bool {
        let (word, bit) = (slot as usize / WORD_BITS, slot as usize % WORD_BITS);
        let Some(w) = self.words.get_mut(word) else {
            return false;
        };
        let mask = 1u64 << bit;
        if *w & mask == 0 {
            return false;
        }
        *w &= !mask;
        self.len -= 1;
        true
    }

    /// True if `slot` is set.
    pub fn contains(&self, slot: u32) -> bool {
        let (word, bit) = (slot as usize / WORD_BITS, slot as usize % WORD_BITS);
        self.words.get(word).is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Number of set slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot is set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears every slot, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates the set slots in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some((wi * WORD_BITS) as u32 + bit)
            })
        })
    }
}

/// A mark bitmap over [`ObjectId`]s — the collectors' visited/live set.
///
/// # Examples
///
/// ```
/// use fleet_heap::{Heap, HeapConfig, ObjectMarks};
///
/// let mut heap = Heap::new(HeapConfig::default());
/// let a = heap.alloc(32);
/// let mut live = ObjectMarks::for_heap(&heap);
/// assert!(live.insert(a));
/// assert!(!live.insert(a));
/// assert!(live.contains(a));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObjectMarks(SlotBitmap);

impl ObjectMarks {
    /// An empty mark set sized to the heap's current arena.
    pub fn for_heap(heap: &Heap) -> Self {
        ObjectMarks(SlotBitmap::with_capacity(heap.object_slots()))
    }

    /// Marks `id`; returns `true` if it was unmarked before.
    pub fn insert(&mut self, id: ObjectId) -> bool {
        self.0.insert(id.0)
    }

    /// Unmarks `id`; returns `true` if it was marked.
    pub fn remove(&mut self, id: ObjectId) -> bool {
        self.0.remove(id.0)
    }

    /// True if `id` is marked.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.0.contains(id.0)
    }

    /// Number of marked objects.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates marked objects in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.0.iter().map(ObjectId)
    }
}

/// A membership bitmap over [`RegionId`]s (young set, background set, …).
///
/// # Examples
///
/// ```
/// use fleet_heap::{Heap, HeapConfig, RegionSet};
///
/// let mut heap = Heap::new(HeapConfig::default());
/// heap.alloc(32);
/// let mut young: RegionSet =
///     heap.regions().filter(|r| r.newly_allocated()).map(|r| r.id()).collect();
/// let some_region = heap.region_ids()[0];
/// assert!(young.contains(some_region));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RegionSet(SlotBitmap);

impl RegionSet {
    /// An empty set sized to the heap's current region table.
    pub fn for_heap(heap: &Heap) -> Self {
        RegionSet(SlotBitmap::with_capacity(heap.region_slots()))
    }

    /// Adds `id`; returns `true` if it was absent before.
    pub fn insert(&mut self, id: RegionId) -> bool {
        self.0.insert(id.0)
    }

    /// True if `id` is in the set.
    pub fn contains(&self, id: RegionId) -> bool {
        self.0.contains(id.0)
    }

    /// Number of regions in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl FromIterator<RegionId> for RegionSet {
    fn from_iter<I: IntoIterator<Item = RegionId>>(iter: I) -> Self {
        let mut set = RegionSet::default();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl FromIterator<ObjectId> for ObjectMarks {
    fn from_iter<I: IntoIterator<Item = ObjectId>>(iter: I) -> Self {
        let mut set = ObjectMarks::default();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut b = SlotBitmap::with_capacity(10);
        assert!(!b.contains(3));
        assert!(b.insert(3));
        assert!(!b.insert(3));
        assert!(b.contains(3));
        assert_eq!(b.len(), 1);
        assert!(b.remove(3));
        assert!(!b.remove(3));
        assert!(b.is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut b = SlotBitmap::with_capacity(1);
        assert!(b.insert(1_000));
        assert!(b.contains(1_000));
        assert!(!b.contains(999));
        assert!(!b.contains(1_000_000));
    }

    #[test]
    fn iter_is_ascending_and_complete() {
        let mut b = SlotBitmap::default();
        for &s in &[190u32, 3, 64, 63, 0, 127] {
            b.insert(s);
        }
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 3, 63, 64, 127, 190]);
    }

    #[test]
    fn clear_keeps_capacity_resets_count() {
        let mut b = SlotBitmap::with_capacity(256);
        b.insert(200);
        b.clear();
        assert!(b.is_empty());
        assert!(!b.contains(200));
    }

    #[test]
    fn word_boundary_slots() {
        let mut b = SlotBitmap::default();
        for s in [63u32, 64, 65, 127, 128] {
            assert!(b.insert(s));
            assert!(b.contains(s));
        }
        assert_eq!(b.len(), 5);
    }
}
