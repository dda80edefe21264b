//! Differential tests: the indexed heap lookups against references read
//! from the arena alone.
//!
//! * A region's allocation log keeps an entry for every bump, and the arena
//!   decides which entries still hold their object. `Heap::region_objects`
//!   and `Region::live_objects` must match the arena's live objects that
//!   name the region, in offset order.
//! * `Heap::objects_in_card` binary-searches a region's log and stops at the
//!   card's end; the reference is every live object whose address range
//!   overlaps the card, in address order.
//! * `depth_map` fills a dense arena-slot `DepthMap`; the reference is the
//!   `HashMap` + `VecDeque` breadth-first search it replaced, kept here
//!   verbatim as the oracle.
//!
//! Random scripts of allocation, reference edges, context switches,
//! target retirement, copies and frees (of the first, middle and last live
//! object of a region; objects straddling card boundaries) run on a heap
//! with 4 KiB regions and 1 KiB cards. After every step every lookup must
//! agree with its reference, and `validate_refs` must accept the logs.

use fleet_heap::{depth_map, AllocContext, Heap, HeapConfig, ObjectId, RegionId, RegionKind};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, VecDeque};

const REGION_SIZE: u32 = 4096;
const CARD_SHIFT: u32 = 10;
const KINDS: [RegionKind; 6] = [
    RegionKind::Eden,
    RegionKind::Fg,
    RegionKind::Bg,
    RegionKind::Launch,
    RegionKind::Ws,
    RegionKind::Cold,
];

/// Which of a region's live objects, in offset order, a copy or free picks.
#[derive(Debug, Clone, Copy)]
enum Pos {
    Front,
    Middle,
    End,
}

#[derive(Debug, Clone)]
enum Op {
    Alloc(u32),
    AddRef(usize, usize),
    SetContext(bool),
    Retire,
    Copy {
        region: usize,
        pos: Pos,
        dest: usize,
    },
    Free {
        region: usize,
        pos: Pos,
    },
    /// Retires the targets and frees every empty region (unmapped cards).
    FreeEmptyRegions,
}

fn pos_strategy() -> impl Strategy<Value = Pos> {
    (0usize..3).prop_map(|p| [Pos::Front, Pos::Middle, Pos::End][p])
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Sizes up to 1.5 cards: many objects straddle a card boundary.
        (16u32..1600).prop_map(Op::Alloc),
        // Sizes that start or end objects on and next to card boundaries.
        (0usize..7).prop_map(|i| Op::Alloc([1, 511, 512, 513, 1023, 1024, 1025][i])),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::AddRef(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Op::AddRef(a, b)),
        any::<bool>().prop_map(Op::SetContext),
        Just(Op::Retire),
        (any::<usize>(), pos_strategy(), 0usize..KINDS.len())
            .prop_map(|(region, pos, dest)| Op::Copy { region, pos, dest }),
        (any::<usize>(), pos_strategy()).prop_map(|(region, pos)| Op::Free { region, pos }),
        (any::<usize>(), pos_strategy()).prop_map(|(region, pos)| Op::Free { region, pos }),
        Just(Op::FreeEmptyRegions),
    ]
}

fn new_heap() -> Heap {
    let mut heap = Heap::new(HeapConfig {
        region_size: REGION_SIZE,
        card_shift: CARD_SHIFT,
        initial_limit: 2 * REGION_SIZE as u64,
        ..HeapConfig::default()
    });
    for size in [64, 900, 200] {
        let root = heap.alloc(size);
        heap.add_root(root);
    }
    heap
}

/// The live object at `pos` in the `region`-th non-empty region.
fn pick(heap: &Heap, region: usize, pos: Pos) -> Option<ObjectId> {
    let lists: Vec<Vec<ObjectId>> = heap
        .regions()
        .filter(|r| !r.is_empty())
        .map(|r| heap.region_objects(r.id()).collect())
        .collect();
    let list = lists.get(region % lists.len().max(1))?;
    let at = match pos {
        Pos::Front => 0,
        Pos::Middle => list.len() / 2,
        Pos::End => list.len() - 1,
    };
    Some(list[at])
}

fn apply(heap: &mut Heap, op: &Op) {
    match *op {
        Op::Alloc(size) => {
            heap.alloc(size);
        }
        Op::AddRef(a, b) => {
            let live: Vec<ObjectId> = heap.object_ids().collect();
            heap.add_ref(live[a % live.len()], live[b % live.len()]);
        }
        Op::SetContext(background) => heap.set_context(if background {
            AllocContext::Background
        } else {
            AllocContext::Foreground
        }),
        Op::Retire => heap.retire_alloc_targets(),
        Op::Copy { region, pos, dest } => {
            if let Some(obj) = pick(heap, region, pos) {
                heap.copy_object(obj, KINDS[dest]);
            }
        }
        Op::Free { region, pos } => {
            let Some(obj) = pick(heap, region, pos) else { return };
            if heap.roots().contains(&obj) {
                return;
            }
            // Drop every edge into the victim first so the heap stays valid.
            let holders: Vec<ObjectId> = heap.object_ids().collect();
            for holder in holders {
                while heap.object(holder).refs().contains(&obj) {
                    heap.remove_ref(holder, obj);
                }
            }
            heap.free_object(obj);
        }
        Op::FreeEmptyRegions => {
            heap.retire_alloc_targets();
            let empty: Vec<_> = heap.regions().filter(|r| r.is_empty()).map(|r| r.id()).collect();
            for id in empty {
                heap.free_region(id);
            }
        }
    }
}

/// Every region's live objects in offset order, read from the arena alone.
fn arena_members(heap: &Heap) -> BTreeMap<RegionId, Vec<ObjectId>> {
    let mut members: BTreeMap<RegionId, Vec<ObjectId>> = BTreeMap::new();
    for id in heap.object_ids() {
        members.entry(heap.object(id).region()).or_default().push(id);
    }
    for list in members.values_mut() {
        list.sort_by_key(|&id| heap.object(id).offset());
    }
    members
}

/// The live objects overlapping card `card`, in address order, from
/// `members` (the arena's view).
fn objects_in_card_scan(
    heap: &Heap,
    members: &BTreeMap<RegionId, Vec<ObjectId>>,
    card: usize,
) -> Vec<ObjectId> {
    let range = heap.cards().card_range(card);
    members
        .values()
        .flatten()
        .copied()
        .filter(|&id| {
            let addr = heap.address(id);
            addr < range.end && addr + heap.object(id).size() as u64 > range.start
        })
        .collect()
}

/// The `HashMap` breadth-first search `depth_map` replaced, plus the order
/// in which it reached objects.
fn depth_map_hashed(
    heap: &Heap,
    max_depth: Option<u32>,
) -> (HashMap<ObjectId, u32>, Vec<ObjectId>) {
    let mut depths: HashMap<ObjectId, u32> = HashMap::new();
    let mut order: Vec<ObjectId> = Vec::new();
    let mut queue: VecDeque<ObjectId> = VecDeque::new();
    for &root in heap.roots() {
        if heap.contains(root) && !depths.contains_key(&root) {
            depths.insert(root, 0);
            order.push(root);
            queue.push_back(root);
        }
    }
    while let Some(obj) = queue.pop_front() {
        let d = depths[&obj];
        if max_depth.is_some_and(|m| d >= m) {
            continue;
        }
        for &next in heap.object(obj).refs() {
            if heap.contains(next) && !depths.contains_key(&next) {
                depths.insert(next, d + 1);
                order.push(next);
                queue.push_back(next);
            }
        }
    }
    (depths, order)
}

fn check(heap: &Heap) -> Result<(), TestCaseError> {
    prop_assert_eq!(heap.validate_refs(), Ok(()));
    let members = arena_members(heap);
    for rid in members.keys() {
        prop_assert!(heap.try_region(*rid).is_some(), "a live object names unmapped {}", rid);
    }
    for region in heap.regions() {
        let expected = members.get(&region.id()).cloned().unwrap_or_default();
        prop_assert_eq!(region.live_objects() as usize, expected.len(), "{}", region.id());
        prop_assert_eq!(heap.region_objects(region.id()).collect::<Vec<_>>(), expected);
    }
    let cards_per_region = (REGION_SIZE >> CARD_SHIFT) as usize;
    for card in 0..(heap.region_slots() + 1) * cards_per_region {
        prop_assert_eq!(
            heap.objects_in_card(card),
            objects_in_card_scan(heap, &members, card),
            "card {}",
            card
        );
    }
    for max_depth in [None, Some(0), Some(1), Some(2), Some(3)] {
        let dense = depth_map(heap, max_depth);
        let (hashed, order) = depth_map_hashed(heap, max_depth);
        prop_assert_eq!(dense.len(), hashed.len());
        let reached: Vec<(ObjectId, u32)> = order.iter().map(|&o| (o, hashed[&o])).collect();
        prop_assert_eq!(dense.iter().collect::<Vec<_>>(), reached);
        for slot in 0..heap.object_slots() as u32 + 1 {
            let id = ObjectId(slot);
            prop_assert_eq!(dense.get(id), hashed.get(&id).copied(), "{} at {:?}", id, max_depth);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_lookups_match_the_scans_they_replaced(
        script in proptest::collection::vec(op_strategy(), 1..160),
    ) {
        let mut heap = new_heap();
        check(&heap)?;
        for op in &script {
            apply(&mut heap, op);
            check(&heap)?;
        }
    }
}

/// Frees and copies of the first, middle and last live object of a region,
/// each step checked against the references.
#[test]
fn removals_at_every_list_position() {
    let mut heap = new_heap();
    // Region 0: the three roots, then 300, 1000, 40 and 700 bytes;
    // region 1: 1100, 16 and 500 bytes.
    for size in [300, 1000, 40, 700, 1100, 16, 500] {
        heap.alloc(size);
    }
    heap.retire_alloc_targets();
    check(&heap).unwrap();
    for op in [
        Op::Free { region: 0, pos: Pos::Middle },
        Op::Copy { region: 0, pos: Pos::Front, dest: 1 },
        Op::Free { region: 0, pos: Pos::End },
        Op::Copy { region: 0, pos: Pos::Middle, dest: 5 },
        Op::Free { region: 1, pos: Pos::Front },
        Op::Free { region: 1, pos: Pos::End },
        Op::Free { region: 1, pos: Pos::Front },
    ] {
        apply(&mut heap, &op);
        check(&heap).unwrap();
    }
    assert_eq!(heap.live_objects(), 5);
}
