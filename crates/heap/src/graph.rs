//! Reference-graph utilities: reachability and BFS depth from the roots.
//!
//! The paper defines *near-roots objects* (NRO) as objects whose shortest
//! path from the roots is at most a depth parameter D (§4.2). [`depth_map`]
//! computes exactly that shortest-path depth with a breadth-first search —
//! the same traversal order the RGS grouping GC uses (§5.3.1) — into a dense
//! [`DepthMap`].

use crate::heap::Heap;
use crate::object::ObjectId;
use std::collections::HashSet;

const UNREACHED: u32 = u32::MAX;

/// BFS depths from the roots, stored densely by arena slot (the
/// [`ObjectMarks`](crate::ObjectMarks) idiom): one `u32` per slot plus the
/// reached objects in BFS order, which is also the search's FIFO queue.
///
/// Equality compares the reached objects and their depths, not the arena
/// size or the visit order, so depth maps of one graph taken before and
/// after a copying GC compare equal.
#[derive(Debug, Clone)]
pub struct DepthMap {
    depth: Vec<u32>,
    order: Vec<ObjectId>,
}

impl DepthMap {
    /// An empty map sized to `heap`'s arena, for a breadth-first search to
    /// fill with [`reach`](Self::reach) while it walks [`queued`](Self::queued).
    pub fn new(heap: &Heap) -> Self {
        DepthMap { depth: vec![UNREACHED; heap.object_slots()], order: Vec::new() }
    }

    /// The depth of `id`, or `None` if the search did not reach it.
    pub fn get(&self, id: ObjectId) -> Option<u32> {
        self.depth.get(id.0 as usize).copied().filter(|&d| d != UNREACHED)
    }

    /// Number of reached objects.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing was reached (no live roots).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Reached objects and their depths in BFS order (depths never
    /// decrease along it).
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, u32)> + '_ {
        self.order.iter().map(|&id| (id, self.depth[id.0 as usize]))
    }

    /// The reached objects in BFS order.
    pub fn order(&self) -> &[ObjectId] {
        &self.order
    }

    /// The `i`-th reached object and its depth. The reached objects are
    /// the search's FIFO queue: its head is the first index not yet
    /// expanded.
    pub fn queued(&self, i: usize) -> Option<(ObjectId, u32)> {
        self.order.get(i).map(|&id| (id, self.depth[id.0 as usize]))
    }

    /// Records `id` at depth `d` and queues it, unless already reached.
    ///
    /// # Panics
    ///
    /// Panics if `id` is past the arena the map was sized to.
    pub fn reach(&mut self, id: ObjectId, d: u32) {
        let slot = &mut self.depth[id.0 as usize];
        if *slot == UNREACHED {
            *slot = d;
            self.order.push(id);
        }
    }
}

impl PartialEq for DepthMap {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(id, d)| other.get(id) == Some(d))
    }
}

/// BFS shortest-path depth from the root set for every reachable object.
///
/// Roots have depth 0. Traversal stops expanding past `max_depth` if given,
/// so callers that only need "depth ≤ D" trace O(|NRO|) objects, not
/// O(|heap|) (the map itself is still sized to the arena).
///
/// # Examples
///
/// ```
/// use fleet_heap::{depth_map, Heap, HeapConfig};
///
/// let mut heap = Heap::new(HeapConfig::default());
/// let root = heap.alloc(16);
/// let child = heap.alloc(16);
/// let grandchild = heap.alloc(16);
/// heap.add_root(root);
/// heap.add_ref(root, child);
/// heap.add_ref(child, grandchild);
/// let depths = depth_map(&heap, None);
/// assert_eq!(depths.get(root), Some(0));
/// assert_eq!(depths.get(grandchild), Some(2));
/// assert_eq!(depth_map(&heap, Some(1)).get(grandchild), None);
/// ```
pub fn depth_map(heap: &Heap, max_depth: Option<u32>) -> DepthMap {
    let mut map = DepthMap::new(heap);
    for &root in heap.roots() {
        if heap.contains(root) {
            map.reach(root, 0);
        }
    }
    let mut head = 0;
    while let Some((obj, d)) = map.queued(head) {
        head += 1;
        // Depths never decrease along the queue: nothing after this expands.
        if max_depth.is_some_and(|m| d >= m) {
            break;
        }
        for &next in heap.object(obj).refs() {
            if heap.contains(next) {
                map.reach(next, d + 1);
            }
        }
    }
    map
}

/// The set of objects reachable from the roots.
pub fn reachable_set(heap: &Heap) -> HashSet<ObjectId> {
    let mut seen: HashSet<ObjectId> = HashSet::new();
    let mut stack: Vec<ObjectId> =
        heap.roots().iter().copied().filter(|&r| heap.contains(r)).collect();
    seen.extend(stack.iter().copied());
    while let Some(obj) = stack.pop() {
        for &next in heap.object(obj).refs() {
            if heap.contains(next) && seen.insert(next) {
                stack.push(next);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeapConfig;

    fn chain(n: usize) -> (Heap, Vec<ObjectId>) {
        let mut h = Heap::new(HeapConfig::default());
        let ids: Vec<ObjectId> = (0..n).map(|_| h.alloc(16)).collect();
        h.add_root(ids[0]);
        for w in ids.windows(2) {
            h.add_ref(w[0], w[1]);
        }
        (h, ids)
    }

    #[test]
    fn depths_along_a_chain() {
        let (h, ids) = chain(5);
        let depths = depth_map(&h, None);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(depths.get(*id), Some(i as u32));
        }
    }

    #[test]
    fn max_depth_truncates() {
        let (h, ids) = chain(10);
        let depths = depth_map(&h, Some(3));
        assert_eq!(depths.len(), 4); // depths 0..=3
        assert_eq!(depths.get(ids[4]), None);
        assert_eq!(depths.iter().map(|(_, d)| d).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn shortest_path_wins_on_diamonds() {
        let mut h = Heap::new(HeapConfig::default());
        let root = h.alloc(16);
        let a = h.alloc(16);
        let b = h.alloc(16);
        h.add_root(root);
        h.add_ref(root, a);
        h.add_ref(a, b);
        h.add_ref(root, b); // direct shortcut
        let depths = depth_map(&h, None);
        assert_eq!(depths.get(b), Some(1));
    }

    #[test]
    fn unreachable_objects_are_absent() {
        let mut h = Heap::new(HeapConfig::default());
        let root = h.alloc(16);
        let garbage = h.alloc(16);
        h.add_root(root);
        let depths = depth_map(&h, None);
        assert_eq!(depths.get(garbage), None);
        let reach = reachable_set(&h);
        assert!(reach.contains(&root));
        assert!(!reach.contains(&garbage));
    }

    #[test]
    fn cycles_terminate() {
        let mut h = Heap::new(HeapConfig::default());
        let a = h.alloc(16);
        let b = h.alloc(16);
        h.add_root(a);
        h.add_ref(a, b);
        h.add_ref(b, a);
        let depths = depth_map(&h, None);
        assert_eq!(depths.len(), 2);
        assert_eq!(reachable_set(&h).len(), 2);
    }

    #[test]
    fn reach_keeps_the_first_depth_and_queues_once() {
        let (h, ids) = chain(3);
        let mut map = DepthMap::new(&h);
        map.reach(ids[2], 5);
        map.reach(ids[0], 0);
        map.reach(ids[2], 1);
        assert_eq!(map.get(ids[2]), Some(5));
        assert_eq!(map.get(ids[1]), None);
        assert_eq!(map.queued(0), Some((ids[2], 5)));
        assert_eq!(map.queued(1), Some((ids[0], 0)));
        assert_eq!(map.queued(2), None);
    }

    #[test]
    fn equality_ignores_arena_size() {
        let (mut h, ids) = chain(3);
        let before = depth_map(&h, None);
        h.alloc(16); // unreachable, grows the arena
        assert_eq!(depth_map(&h, None), before);
        h.remove_ref(ids[1], ids[2]);
        assert_ne!(depth_map(&h, None), before);
    }

    #[test]
    fn empty_roots_reach_nothing() {
        let mut h = Heap::new(HeapConfig::default());
        h.alloc(16);
        assert!(depth_map(&h, None).is_empty());
        assert!(reachable_set(&h).is_empty());
    }
}
