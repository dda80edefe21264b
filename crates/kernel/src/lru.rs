//! A second-chance LRU over mapped pages.
//!
//! Linux keeps pages on active/inactive lists; reclaim scans the inactive
//! tail and gives referenced pages a second chance by rotating them back.
//! We model the same behaviour with an *intrusive doubly-linked list* over a
//! slab arena of page nodes plus an *active* bit per node — the same shape
//! as the kernel's `struct page` LRU links:
//!
//! * an access unlinks the node and relinks it at the MRU end, setting the
//!   bit — three pointer writes, no hashing, no allocation,
//! * eviction pops the LRU end; pages with the bit set are demoted
//!   (bit cleared, relinked at the MRU end) instead of evicted — the second
//!   chance,
//! * `madvise(HOT_RUNTIME)` maps to [`LruQueue::promote`], which is exactly
//!   how Fleet keeps launch pages resident (§5.3.2 "move these pages to a
//!   highly used position in the LRU queue").
//!
//! Every operation is O(1) when addressed by [`LruHandle`] — the handle the
//! memory manager stores in its page-table entries. The key-addressed
//! methods ([`LruQueue::touch`], [`LruQueue::remove`], …) are a
//! compatibility surface for tests and small standalone uses; they locate
//! the node by walking the slab and are O(n).
//!
//! The previous map-based implementation (a `BTreeMap` recency index plus
//! two hash maps — 2–3 map operations per page access) is preserved
//! verbatim as [`reference::MapLruQueue`]: the differential proptests drive
//! both implementations through identical op sequences, and `fleet-bench`
//! times it as the committed baseline in `BENCH_kernel.json`.

use crate::page::PageKey;

const NIL: u32 = u32::MAX;

/// An O(1) handle to a page's node in a [`LruQueue`] slab.
///
/// Handed out by [`LruQueue::insert`]/[`LruQueue::reinsert_cold`] and stored
/// by the memory manager in its page-table entries. A handle is valid until
/// the node is removed or popped; using it afterwards is a logic error
/// (checked by `debug_assert!`s and by [`LruQueue::key_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LruHandle(u32);

impl LruHandle {
    /// The raw slab index (for compact storage in page-table entries).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from [`LruHandle::raw`].
    pub fn from_raw(raw: u32) -> Self {
        LruHandle(raw)
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    key: PageKey,
    prev: u32,
    next: u32,
    active: bool,
    /// Sticky referenced-history bit: set the first time the node survives a
    /// reclaim scan via second-chance rotation, never cleared while tracked.
    /// Eviction reads it to classify the victim hot/cold for tier placement.
    rotated: bool,
    in_use: bool,
}

/// A deterministic second-chance LRU queue of pages (intrusive linked list
/// over a slab arena; freed nodes are recycled through a free list).
///
/// # Examples
///
/// ```
/// use fleet_kernel::{LruQueue, PageKey, Pid};
///
/// let mut lru = LruQueue::new();
/// let a = PageKey { pid: Pid(1), index: 0 };
/// let b = PageKey { pid: Pid(1), index: 1 };
/// lru.insert(a);
/// lru.insert(b);
/// lru.touch(a); // a becomes the most recently used
/// assert_eq!(lru.pop_coldest(), Some(b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LruQueue {
    nodes: Vec<Node>,
    /// Head of the free list, threaded through `Node::next`.
    free: u32,
    /// Coldest end (eviction scans from here).
    head: u32,
    /// Hottest (MRU) end.
    tail: u32,
    len: usize,
}

impl LruQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        LruQueue { nodes: Vec::new(), free: NIL, head: NIL, tail: NIL, len: 0 }
    }

    /// Number of pages tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    // ------------------------------------------------------------ slab plumbing

    fn alloc_node(&mut self, key: PageKey) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] =
                Node { key, prev: NIL, next: NIL, active: false, rotated: false, in_use: true };
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx != NIL, "LRU slab full");
            self.nodes.push(Node {
                key,
                prev: NIL,
                next: NIL,
                active: false,
                rotated: false,
                in_use: true,
            });
            idx
        }
    }

    fn free_node(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        node.in_use = false;
        node.prev = NIL;
        node.next = self.free;
        self.free = idx;
    }

    fn link_tail(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = self.tail;
        self.nodes[idx as usize].next = NIL;
        if self.tail != NIL {
            self.nodes[self.tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
    }

    fn link_head(&mut self, idx: u32) {
        self.nodes[idx as usize].next = self.head;
        self.nodes[idx as usize].prev = NIL;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    // ------------------------------------------------------------- handle API

    /// Starts tracking a page at the MRU end (fresh pages are hot),
    /// returning its O(1) handle.
    ///
    /// The caller must know the page is not already tracked (the memory
    /// manager's page table does); for re-insert-or-move semantics use
    /// [`LruQueue::insert`].
    pub fn push_hot(&mut self, key: PageKey) -> LruHandle {
        let idx = self.alloc_node(key);
        self.link_tail(idx);
        self.len += 1;
        LruHandle(idx)
    }

    /// Starts tracking a page at the *cold* end (colder than every tracked
    /// page), returning its O(1) handle. Used when reclaim skipped a page
    /// and must put it back without rejuvenating it.
    pub fn push_cold(&mut self, key: PageKey) -> LruHandle {
        let idx = self.alloc_node(key);
        self.link_head(idx);
        self.len += 1;
        LruHandle(idx)
    }

    /// Records an access through a handle: relink at MRU and set the
    /// referenced bit.
    pub fn touch_handle(&mut self, handle: LruHandle) {
        debug_assert!(self.nodes[handle.0 as usize].in_use, "touch of a freed LRU node");
        self.unlink(handle.0);
        self.link_tail(handle.0);
        self.nodes[handle.0 as usize].active = true;
    }

    /// `madvise(HOT_RUNTIME)` through a handle: force the page to the MRU
    /// end with the referenced bit set.
    pub fn promote_handle(&mut self, handle: LruHandle) {
        self.touch_handle(handle);
    }

    /// Stops tracking a page through its handle, returning its key.
    pub fn remove_handle(&mut self, handle: LruHandle) -> PageKey {
        debug_assert!(self.nodes[handle.0 as usize].in_use, "remove of a freed LRU node");
        self.unlink(handle.0);
        self.free_node(handle.0);
        self.len -= 1;
        self.nodes[handle.0 as usize].key
    }

    /// The key behind a handle, or `None` if the node is not in use
    /// (used by the memory manager's `validate`).
    pub fn key_of(&self, handle: LruHandle) -> Option<PageKey> {
        let node = self.nodes.get(handle.0 as usize)?;
        node.in_use.then_some(node.key)
    }

    /// The handle currently tracking `key`, if any. O(n): walks the slab;
    /// meant for tests and validation, not hot paths (the memory manager
    /// stores handles in its page table instead).
    pub fn handle_of(&self, key: PageKey) -> Option<LruHandle> {
        self.nodes.iter().position(|n| n.in_use && n.key == key).map(|idx| LruHandle(idx as u32))
    }

    // -------------------------------------------------- key-addressed compat

    /// Starts tracking a page at the MRU end; if the page is already
    /// tracked it is moved there and its referenced bit cleared. O(n) when
    /// the page may already be present — hot paths use [`LruQueue::push_hot`]
    /// with the returned handle instead.
    pub fn insert(&mut self, key: PageKey) -> LruHandle {
        if let Some(h) = self.handle_of(key) {
            self.unlink(h.0);
            self.link_tail(h.0);
            self.nodes[h.0 as usize].active = false;
            h
        } else {
            self.push_hot(key)
        }
    }

    /// Re-inserts a page at the cold end (see [`LruQueue::push_cold`]),
    /// removing any existing node for it first.
    pub fn reinsert_cold(&mut self, key: PageKey) -> LruHandle {
        if let Some(h) = self.handle_of(key) {
            self.remove_handle(h);
        }
        self.push_cold(key)
    }

    /// Records an access: relink at MRU and set the referenced bit.
    ///
    /// No-op if the page is not tracked (e.g. currently swapped out).
    pub fn touch(&mut self, key: PageKey) {
        if let Some(h) = self.handle_of(key) {
            self.touch_handle(h);
        }
    }

    /// `madvise(HOT_RUNTIME)`: force the page to the MRU end with the
    /// referenced bit set, making it survive the next reclaim scans.
    pub fn promote(&mut self, key: PageKey) {
        self.touch(key);
    }

    /// Stops tracking a page (evicted, unmapped or being swapped out).
    /// No-op if the page is not tracked.
    pub fn remove(&mut self, key: PageKey) {
        if let Some(h) = self.handle_of(key) {
            self.remove_handle(h);
        }
    }

    /// True if the page is tracked. O(n); see [`LruQueue::handle_of`].
    pub fn contains(&self, key: PageKey) -> bool {
        self.handle_of(key).is_some()
    }

    // --------------------------------------------------------------- eviction

    /// Pops the eviction victim: the coldest page without the referenced
    /// bit. Referenced pages encountered on the way get their second chance
    /// (bit cleared, rotated to the MRU end). Returns `None` when empty.
    ///
    /// Terminates without a scan budget: every rotation clears a bit, so at
    /// most `len` rotations precede the pop.
    pub fn pop_coldest(&mut self) -> Option<PageKey> {
        self.pop_coldest_classified().map(|(key, _)| key)
    }

    /// [`LruQueue::pop_coldest`] plus the victim's hotness class: `true`
    /// when the page ever earned a second chance (its referenced bit was
    /// seen by a reclaim scan), `false` for never-referenced cold pages.
    /// Pop order is identical to `pop_coldest`.
    pub fn pop_coldest_classified(&mut self) -> Option<(PageKey, bool)> {
        loop {
            let idx = self.head;
            if idx == NIL {
                return None;
            }
            if self.nodes[idx as usize].active {
                // Second chance: demote to MRU with the bit cleared.
                self.unlink(idx);
                self.link_tail(idx);
                self.nodes[idx as usize].active = false;
                self.nodes[idx as usize].rotated = true;
            } else {
                let warm = self.nodes[idx as usize].rotated;
                return Some((self.remove_handle(LruHandle(idx)), warm));
            }
        }
    }

    /// The coldest page without popping it (for inspection/tests).
    pub fn peek_coldest(&self) -> Option<PageKey> {
        (self.head != NIL).then(|| self.nodes[self.head as usize].key)
    }

    /// Iterates tracked pages from coldest to hottest (for validation and
    /// debugging).
    pub fn iter(&self) -> impl Iterator<Item = PageKey> + '_ {
        let mut idx = self.head;
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let node = &self.nodes[idx as usize];
            idx = node.next;
            Some(node.key)
        })
    }
}

/// The pre-rewrite map-based LRU, kept as a behavioural reference.
///
/// The original `BTreeMap`-stamp implementation of the second-chance
/// LRU, preserved verbatim. It exists for two consumers only:
///
/// * the differential proptests, which drive it and [`LruQueue`]
///   through identical random op sequences and assert identical pop
///   order, and
/// * `fleet-bench`, which times it as `lru.baseline_ns_per_op` in
///   `BENCH_kernel.json`, the report's host-speed check.
///
/// It is not part of the supported API surface.
#[doc(hidden)]
pub mod reference {
    use crate::page::PageKey;
    use std::collections::{BTreeMap, HashMap};

    /// A deterministic second-chance LRU queue of pages (map-based).
    #[derive(Debug, Clone)]
    pub struct MapLruQueue {
        by_stamp: BTreeMap<u64, PageKey>,
        stamps: HashMap<PageKey, u64>,
        active: HashMap<PageKey, bool>,
        next_stamp: u64,
        cold_stamp: u64,
    }

    impl Default for MapLruQueue {
        fn default() -> Self {
            MapLruQueue::new()
        }
    }

    impl MapLruQueue {
        /// Creates an empty queue.
        pub fn new() -> Self {
            MapLruQueue {
                by_stamp: BTreeMap::new(),
                stamps: HashMap::new(),
                active: HashMap::new(),
                // Ordinary stamps count up from the middle of the space;
                // `reinsert_cold` hands out stamps counting down, so
                // re-inserted pages sort colder than everything else.
                next_stamp: 1 << 33,
                cold_stamp: (1 << 33) - 1,
            }
        }

        /// Re-inserts a page at the *cold* end.
        pub fn reinsert_cold(&mut self, key: PageKey) {
            if let Some(old) = self.stamps.remove(&key) {
                self.by_stamp.remove(&old);
            }
            let stamp = self.cold_stamp;
            self.cold_stamp -= 1;
            self.stamps.insert(key, stamp);
            self.by_stamp.insert(stamp, key);
            self.active.insert(key, false);
        }

        /// Number of pages tracked.
        pub fn len(&self) -> usize {
            self.stamps.len()
        }

        /// True when no pages are tracked.
        pub fn is_empty(&self) -> bool {
            self.stamps.is_empty()
        }

        /// True if the page is tracked.
        pub fn contains(&self, key: PageKey) -> bool {
            self.stamps.contains_key(&key)
        }

        fn restamp(&mut self, key: PageKey) {
            if let Some(old) = self.stamps.remove(&key) {
                self.by_stamp.remove(&old);
            }
            let stamp = self.next_stamp;
            self.next_stamp += 1;
            self.stamps.insert(key, stamp);
            self.by_stamp.insert(stamp, key);
        }

        /// Starts tracking a page at the MRU end.
        pub fn insert(&mut self, key: PageKey) {
            self.restamp(key);
            self.active.insert(key, false);
        }

        /// Records an access: restamp to MRU and set the referenced bit.
        pub fn touch(&mut self, key: PageKey) {
            if self.stamps.contains_key(&key) {
                self.restamp(key);
                self.active.insert(key, true);
            }
        }

        /// `madvise(HOT_RUNTIME)`: see [`MapLruQueue::touch`].
        pub fn promote(&mut self, key: PageKey) {
            self.touch(key);
        }

        /// Stops tracking a page.
        pub fn remove(&mut self, key: PageKey) {
            if let Some(stamp) = self.stamps.remove(&key) {
                self.by_stamp.remove(&stamp);
                self.active.remove(&key);
            }
        }

        /// Pops the eviction victim with second-chance rotation.
        pub fn pop_coldest(&mut self) -> Option<PageKey> {
            let mut budget = self.stamps.len() * 2 + 1;
            while budget > 0 {
                budget -= 1;
                let (&stamp, &key) = self.by_stamp.iter().next()?;
                if self.active.get(&key).copied().unwrap_or(false) {
                    self.by_stamp.remove(&stamp);
                    self.stamps.remove(&key);
                    let new_stamp = self.next_stamp;
                    self.next_stamp += 1;
                    self.stamps.insert(key, new_stamp);
                    self.by_stamp.insert(new_stamp, key);
                    self.active.insert(key, false);
                } else {
                    self.remove(key);
                    return Some(key);
                }
            }
            None
        }

        /// The coldest page without popping it.
        pub fn peek_coldest(&self) -> Option<PageKey> {
            self.by_stamp.values().next().copied()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::Pid;

    fn key(i: u64) -> PageKey {
        PageKey { pid: Pid(0), index: i }
    }

    #[test]
    fn eviction_follows_recency() {
        let mut lru = LruQueue::new();
        for i in 0..5 {
            lru.insert(key(i));
        }
        assert_eq!(lru.pop_coldest(), Some(key(0)));
        assert_eq!(lru.pop_coldest(), Some(key(1)));
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn touch_gives_second_chance() {
        let mut lru = LruQueue::new();
        lru.insert(key(0));
        lru.insert(key(1));
        lru.touch(key(0)); // referenced: survives one reclaim scan
                           // key(0) was relinked past key(1), so key(1) is the plain victim.
        assert_eq!(lru.pop_coldest(), Some(key(1)));
        // Now key(0) has its bit set: first pop rotates it, then evicts it.
        assert_eq!(lru.pop_coldest(), Some(key(0)));
        assert!(lru.is_empty());
    }

    #[test]
    fn second_chance_rotation_order() {
        let mut lru = LruQueue::new();
        lru.insert(key(0));
        lru.insert(key(1));
        lru.insert(key(2));
        lru.touch(key(0)); // 0 hot, order now: 1, 2, 0*
        assert_eq!(lru.pop_coldest(), Some(key(1)));
        assert_eq!(lru.pop_coldest(), Some(key(2)));
        assert_eq!(lru.pop_coldest(), Some(key(0)));
        assert_eq!(lru.pop_coldest(), None);
    }

    #[test]
    fn promote_keeps_launch_pages_resident() {
        let mut lru = LruQueue::new();
        lru.insert(key(0)); // launch page
        for i in 1..10 {
            lru.insert(key(i));
        }
        lru.promote(key(0));
        // Nine evictions should all pick other pages.
        for _ in 0..9 {
            assert_ne!(lru.pop_coldest(), Some(key(0)));
        }
        assert_eq!(lru.pop_coldest(), Some(key(0)));
    }

    #[test]
    fn touch_ignores_untracked_pages() {
        let mut lru = LruQueue::new();
        lru.touch(key(9));
        assert!(lru.is_empty());
        assert_eq!(lru.pop_coldest(), None);
    }

    #[test]
    fn peek_does_not_pop() {
        let mut lru = LruQueue::new();
        lru.insert(key(5));
        assert_eq!(lru.peek_coldest(), Some(key(5)));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn handles_survive_unrelated_churn() {
        let mut lru = LruQueue::new();
        let ha = lru.push_hot(key(0));
        for i in 1..8 {
            lru.push_hot(key(i));
        }
        // Pop a few cold pages; key(0) is coldest so protect it first.
        lru.promote_handle(ha);
        assert_eq!(lru.pop_coldest(), Some(key(1)));
        assert_eq!(lru.pop_coldest(), Some(key(2)));
        assert_eq!(lru.key_of(ha), Some(key(0)));
        assert_eq!(lru.remove_handle(ha), key(0));
        assert_eq!(lru.key_of(ha), None);
        assert_eq!(lru.len(), 5);
    }

    #[test]
    fn slab_recycles_freed_nodes() {
        let mut lru = LruQueue::new();
        for round in 0..4u64 {
            for i in 0..16 {
                lru.push_hot(key(round * 16 + i));
            }
            while lru.pop_coldest().is_some() {}
        }
        // Four full drain cycles over 16 pages must not grow the slab past
        // one generation of nodes.
        assert!(lru.nodes.len() <= 16, "slab grew to {}", lru.nodes.len());
    }

    #[test]
    fn push_cold_orders_before_everything() {
        let mut lru = LruQueue::new();
        lru.insert(key(1));
        lru.insert(key(2));
        lru.push_cold(key(3));
        lru.push_cold(key(4)); // colder still
        assert_eq!(lru.pop_coldest(), Some(key(4)));
        assert_eq!(lru.pop_coldest(), Some(key(3)));
        assert_eq!(lru.pop_coldest(), Some(key(1)));
    }

    #[test]
    fn classified_pop_reports_second_chance_history() {
        let mut lru = LruQueue::new();
        lru.insert(key(0));
        lru.insert(key(1));
        lru.touch(key(0)); // 0 referenced; order: 1, 0*
        assert_eq!(lru.pop_coldest_classified(), Some((key(1), false)));
        // key(0)'s bit is consumed by a rotation, marking it warm.
        assert_eq!(lru.pop_coldest_classified(), Some((key(0), true)));
        assert_eq!(lru.pop_coldest_classified(), None);
    }

    #[test]
    fn iter_walks_cold_to_hot() {
        let mut lru = LruQueue::new();
        lru.insert(key(0));
        lru.insert(key(1));
        lru.insert(key(2));
        lru.touch(key(0));
        let order: Vec<u64> = lru.iter().map(|k| k.index).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }
}
