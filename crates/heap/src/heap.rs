//! The heap: arena + regions + roots + allocation contexts + card table.
//!
//! This is the mutable state every collector in `fleet-gc` operates on. The
//! design keeps the paper's mechanics observable:
//!
//! * every object knows the app state it was allocated under (FGO vs BGO),
//! * regions carry the *kind* and *newly-allocated* metadata Fleet keys on,
//! * mutating a foreground object dirties the BGC card table via the write
//!   barrier (§5.2),
//! * the heap limit grows by a configurable factor after each GC, with
//!   separate foreground/background factors (§4.2, §7.4).
//!
//! Address-space changes (regions mapped/freed) are queued as [`HeapEvent`]s
//! for the embedding layer to forward to the kernel model.

use crate::card::CardTable;
use crate::config::{HeapConfig, PAGE_SIZE};
use crate::object::{AllocContext, Object, ObjectClass, ObjectId};
use crate::region::{Region, RegionId, RegionKind};
use serde::{Deserialize, Serialize};

/// Emits a probe record stamped with the owning process id into the heap's
/// `audit` (flight-recorder event) or `obs` (span/metric) log. Each kind
/// compiles to nothing without its feature.
macro_rules! probe {
    (audit, $self:ident, |$pid:ident| $ev:expr) => {{
        #[cfg(feature = "audit")]
        $self.probes.audit.push(|$pid| $ev);
    }};
    (obs, $self:ident, |$pid:ident| $rec:expr) => {{
        #[cfg(feature = "obs")]
        $self.probes.obs.push(|$pid| $rec);
    }};
}

#[cfg(feature = "audit")]
use fleet_audit::AuditEvent;
/// An obs-only build's audit log carries nothing.
#[cfg(all(feature = "obs", not(feature = "audit")))]
type AuditEvent = ();

/// The heap's instrumentation logs (see `fleet_obs::Probes`), drained by
/// the device layer; the collectors in `fleet-gc` push their GC phase
/// events and spans here too.
#[cfg(any(feature = "audit", feature = "obs"))]
pub type Probes = fleet_obs::Probes<AuditEvent>;

/// An address-space change the kernel model must hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HeapEvent {
    /// A region was mapped at `[base, base + len)`.
    RegionMapped {
        /// First byte address of the region.
        base: u64,
        /// Region length in bytes.
        len: u64,
    },
    /// The region at `[base, base + len)` was released.
    RegionFreed {
        /// First byte address of the region.
        base: u64,
        /// Region length in bytes.
        len: u64,
    },
}

/// A point-in-time snapshot of heap occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeapStats {
    /// Bytes bump-allocated in live regions (includes garbage).
    pub used_bytes: u64,
    /// Bytes of live objects.
    pub live_bytes: u64,
    /// Live object count.
    pub live_objects: u64,
    /// Mapped region count.
    pub regions: u64,
    /// Live bytes in foreground objects.
    pub fgo_bytes: u64,
    /// Live bytes in background objects.
    pub bgo_bytes: u64,
    /// Live foreground object count.
    pub fgo_objects: u64,
    /// Live background object count.
    pub bgo_objects: u64,
    /// The current dynamic heap limit.
    pub limit: u64,
}

/// What one [`Heap::sweep_region`] reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Swept {
    /// Dead objects freed.
    pub objects: u64,
    /// Bytes of the dead objects freed.
    pub bytes: u64,
    /// Whether the region was left empty and released.
    pub region_freed: bool,
}

/// The region-based Java heap.
///
/// # Examples
///
/// ```
/// use fleet_heap::{AllocContext, Heap, HeapConfig};
///
/// let mut heap = Heap::new(HeapConfig::default());
/// let a = heap.alloc(128);
/// heap.add_root(a);
/// heap.set_context(AllocContext::Background);
/// let b = heap.alloc(64); // a BGO
/// heap.add_ref(a, b);     // write barrier dirties a's card
/// assert!(heap.cards().dirty_len() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Heap {
    config: HeapConfig,
    regions: Vec<Option<Region>>,
    arena: Vec<Option<Object>>,
    roots: Vec<ObjectId>,
    /// Current bump-allocation region per kind, indexed by `kind as usize`.
    alloc_targets: [Option<RegionId>; RegionKind::COUNT],
    context: AllocContext,
    gc_epoch: u32,
    limit: u64,
    used_bytes: u64,
    live_bytes: u64,
    live_objects: u64,
    events: Vec<HeapEvent>,
    cards: CardTable,
    /// Instrumentation logs; disabled by default.
    #[cfg(any(feature = "audit", feature = "obs"))]
    probes: Probes,
}

impl Heap {
    /// Creates an empty heap.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`HeapConfig::validate`].
    pub fn new(config: HeapConfig) -> Self {
        config.validate().expect("invalid heap configuration");
        let cards = CardTable::new(config.card_shift);
        Heap {
            config,
            regions: Vec::new(),
            arena: Vec::new(),
            roots: Vec::new(),
            alloc_targets: [None; RegionKind::COUNT],
            context: AllocContext::Foreground,
            gc_epoch: 0,
            limit: config.initial_limit,
            used_bytes: 0,
            live_bytes: 0,
            live_objects: 0,
            events: Vec::new(),
            cards,
            #[cfg(any(feature = "audit", feature = "obs"))]
            probes: Probes::default(),
        }
    }

    /// The instrumentation logs (enabled and drained by the device layer).
    #[cfg(any(feature = "audit", feature = "obs"))]
    pub fn probes_mut(&mut self) -> &mut Probes {
        &mut self.probes
    }

    /// The heap configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Current allocation context (the owner app's fore/background state).
    pub fn context(&self) -> AllocContext {
        self.context
    }

    /// Switches the allocation context. New allocations after a switch to
    /// [`AllocContext::Background`] become BGO and go to separate regions.
    pub fn set_context(&mut self, context: AllocContext) {
        if self.context != context {
            self.context = context;
            // New state, new allocation regions: keeps FGO and BGO apart.
            self.alloc_targets[RegionKind::Eden as usize] = None;
            self.alloc_targets[RegionKind::Bg as usize] = None;
        }
    }

    // ---------------------------------------------------------------- regions

    fn create_region(&mut self, kind: RegionKind) -> RegionId {
        let idx = self.regions.len() as u32;
        let id = RegionId(idx);
        let base = idx as u64 * self.config.region_size as u64;
        let region = Region::new(id, kind, base, self.config.region_size, true);
        self.events.push(HeapEvent::RegionMapped { base, len: self.config.region_size as u64 });
        self.regions.push(Some(region));
        probe!(audit, self, |pid| AuditEvent::RegionMapped {
            pid,
            region: idx,
            base,
            len: self.config.region_size as u64,
            kind: kind.to_string(),
        });
        id
    }

    /// The region with identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if the region was freed or never existed.
    pub fn region(&self, id: RegionId) -> &Region {
        self.try_region(id).expect("region freed or out of range")
    }

    /// The region with identifier `id`, or `None` if freed/unknown.
    pub fn try_region(&self, id: RegionId) -> Option<&Region> {
        self.regions.get(id.0 as usize).and_then(|r| r.as_ref())
    }

    pub(crate) fn region_mut(&mut self, id: RegionId) -> &mut Region {
        self.regions
            .get_mut(id.0 as usize)
            .and_then(|r| r.as_mut())
            .expect("region freed or out of range")
    }

    /// Iterates over all mapped regions in address order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.iter().filter_map(|r| r.as_ref())
    }

    /// Identifiers of all mapped regions in address order.
    pub fn region_ids(&self) -> Vec<RegionId> {
        self.regions().map(|r| r.id()).collect()
    }

    /// The region containing address `addr`, if mapped.
    pub fn region_of_addr(&self, addr: u64) -> Option<RegionId> {
        let idx = (addr / self.config.region_size as u64) as usize;
        self.regions.get(idx).and_then(|r| r.as_ref()).map(|r| r.id())
    }

    /// Releases an *empty* region back to the OS.
    ///
    /// # Panics
    ///
    /// Panics if the region still contains objects — collectors must copy or
    /// free every object first — or if it is a current allocation target.
    pub fn free_region(&mut self, id: RegionId) {
        let region = self
            .regions
            .get_mut(id.0 as usize)
            .and_then(|r| r.take())
            .expect("region freed or out of range");
        assert!(
            region.is_empty(),
            "freeing a region that still holds {} objects",
            region.live_objects()
        );
        assert!(
            !self.alloc_targets.contains(&Some(id)),
            "freeing a region that is an active allocation target"
        );
        self.used_bytes -= region.used() as u64;
        self.events.push(HeapEvent::RegionFreed { base: region.base(), len: region.size() as u64 });
        probe!(audit, self, |pid| AuditEvent::RegionFreed {
            pid,
            region: id.0,
            base: region.base(),
            len: region.size() as u64,
        });
    }

    /// Stops bump-allocating into the current target regions, so subsequent
    /// allocations open fresh regions. Collectors call this at GC start: it
    /// separates "regions allocated after this GC" (newly-allocated flag)
    /// from everything older.
    pub fn retire_alloc_targets(&mut self) {
        self.alloc_targets = [None; RegionKind::COUNT];
    }

    /// Clears the newly-allocated flag on every region (done at GC end).
    pub fn clear_newly_allocated_flags(&mut self) {
        for region in self.regions.iter_mut().filter_map(|r| r.as_mut()) {
            region.clear_newly_allocated();
        }
    }

    // ---------------------------------------------------------------- objects

    /// Allocates an object of `size` bytes in the current context.
    ///
    /// Foreground allocations go to [`RegionKind::Eden`] regions, background
    /// allocations to [`RegionKind::Bg`] regions — FGO and BGO never share a
    /// region (§5.2 "FGO & BGO separation").
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or exceeds the region size.
    pub fn alloc(&mut self, size: u32) -> ObjectId {
        let kind = match self.context {
            AllocContext::Foreground => RegionKind::Eden,
            AllocContext::Background => RegionKind::Bg,
        };
        self.alloc_in(size, kind, self.context)
    }

    /// Allocates into a region of a specific kind (used by collectors to copy
    /// survivors into to-regions).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or exceeds the region size.
    pub fn alloc_in(&mut self, size: u32, kind: RegionKind, context: AllocContext) -> ObjectId {
        assert!(size > 0, "cannot allocate a zero-sized object");
        assert!(size <= self.config.region_size, "object of {size} bytes exceeds the region size");
        let id = self.reserve_slot();
        let (region_id, offset) = self.bump_into(kind, size, id);
        let object = Object::new(size, context, self.gc_epoch, region_id, offset);
        self.arena[id.0 as usize] = Some(object);
        self.used_bytes += size as u64;
        self.live_bytes += size as u64;
        self.live_objects += 1;
        probe!(audit, self, |pid| AuditEvent::ObjectAlloc {
            pid,
            object: id.0 as u64,
            region: region_id.0,
            size: size as u64,
        });
        id
    }

    // Object ids are never recycled: a freed slot stays dead forever, so a
    // stale id held by a workload model can never silently alias a newer
    // object. The cost is 16 bytes per dead slot, negligible at simulation
    // scale.
    fn reserve_slot(&mut self) -> ObjectId {
        let slot = self.arena.len() as u32;
        self.arena.push(None);
        ObjectId(slot)
    }

    fn bump_into(&mut self, kind: RegionKind, size: u32, id: ObjectId) -> (RegionId, u32) {
        if let Some(target) = self.alloc_targets[kind as usize] {
            if let Some(offset) = self.region_mut(target).bump(size, id) {
                return (target, offset);
            }
        }
        let fresh = self.create_region(kind);
        self.alloc_targets[kind as usize] = Some(fresh);
        // Slow-path allocation opened a fresh region: an instant span on the
        // app's track ("heap" cat — the device feeds these separately so
        // they never adopt GC phase spans as children).
        probe!(obs, self, |pid| fleet_obs::ObsRecord::root(
            pid,
            "alloc",
            "heap",
            0,
            vec![("region", u64::from(fresh.0)), ("size", u64::from(size))],
        ));
        let offset =
            self.region_mut(fresh).bump(size, id).expect("fresh region can hold any valid object");
        (fresh, offset)
    }

    /// The object with identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if the object has been freed.
    pub fn object(&self, id: ObjectId) -> &Object {
        self.try_object(id).expect("object freed or out of range")
    }

    /// The object with identifier `id`, or `None` if freed/unknown.
    pub fn try_object(&self, id: ObjectId) -> Option<&Object> {
        self.arena.get(id.0 as usize).and_then(|o| o.as_ref())
    }

    /// True if `id` refers to a live object.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.try_object(id).is_some()
    }

    fn object_mut(&mut self, id: ObjectId) -> &mut Object {
        self.arena
            .get_mut(id.0 as usize)
            .and_then(|o| o.as_mut())
            .expect("object freed or out of range")
    }

    /// Iterates over the identifiers of all live objects in ascending id
    /// order.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.arena.iter().enumerate().filter(|(_, o)| o.is_some()).map(|(i, _)| ObjectId(i as u32))
    }

    /// Exclusive upper bound on [`ObjectId`] slot indices ever handed out
    /// (slots are never recycled). Sizes the collectors' mark bitmaps.
    pub fn object_slots(&self) -> usize {
        self.arena.len()
    }

    /// Exclusive upper bound on [`RegionId`] slot indices ever handed out
    /// (regions are never renumbered). Sizes region membership bitmaps.
    pub fn region_slots(&self) -> usize {
        self.regions.len()
    }

    /// The absolute heap address of an object.
    pub fn address(&self, id: ObjectId) -> u64 {
        let obj = self.object(id);
        self.region(obj.region()).base() + obj.offset() as u64
    }

    /// The page indices `[first, last]` an object spans.
    pub fn pages_of(&self, id: ObjectId) -> std::ops::RangeInclusive<u64> {
        let addr = self.address(id);
        let size = self.object(id).size().max(1) as u64;
        (addr / PAGE_SIZE)..=((addr + size - 1) / PAGE_SIZE)
    }

    // ----------------------------------------------------- reference mutation

    /// Adds a reference edge `from → to`, running the write barrier on
    /// `from`.
    ///
    /// # Panics
    ///
    /// Panics if either object has been freed.
    pub fn add_ref(&mut self, from: ObjectId, to: ObjectId) {
        assert!(self.contains(to), "dangling reference target {to}");
        self.write_barrier(from);
        self.object_mut(from).refs_mut().push(to);
        probe!(audit, self, |pid| AuditEvent::RefAdded {
            pid,
            from: from.0 as u64,
            to: to.0 as u64,
        });
    }

    /// Removes one `from → to` edge if present, running the write barrier.
    pub fn remove_ref(&mut self, from: ObjectId, to: ObjectId) {
        self.write_barrier(from);
        let refs = self.object_mut(from).refs_mut();
        if let Some(pos) = refs.iter().position(|&r| r == to) {
            refs.swap_remove(pos);
            probe!(audit, self, |pid| AuditEvent::RefRemoved {
                pid,
                from: from.0 as u64,
                to: to.0 as u64,
            });
        }
    }

    /// Replaces all outgoing edges of `from`, running the write barrier.
    ///
    /// # Panics
    ///
    /// Panics if any target has been freed.
    pub fn set_refs(&mut self, from: ObjectId, refs: Vec<ObjectId>) {
        for &to in &refs {
            assert!(self.contains(to), "dangling reference target {to}");
        }
        probe!(audit, self, |pid| AuditEvent::RefsCleared { pid, object: from.0 as u64 });
        #[cfg(feature = "audit")]
        for &to in &refs {
            probe!(audit, self, |pid| AuditEvent::RefAdded {
                pid,
                from: from.0 as u64,
                to: to.0 as u64,
            });
        }
        self.write_barrier(from);
        *self.object_mut(from).refs_mut() = refs;
    }

    /// Drops all outgoing edges of `from`, running the write barrier.
    pub fn clear_refs(&mut self, from: ObjectId) {
        self.write_barrier(from);
        self.object_mut(from).refs_mut().clear();
        probe!(audit, self, |pid| AuditEvent::RefsCleared { pid, object: from.0 as u64 });
    }

    /// The write barrier: every object write dirties the card covering the
    /// written object, as in ART. Fleet's BGC consumes the cards that fall in
    /// *foreground* regions to find FGO→BGO references without scanning the
    /// whole (possibly swapped) foreground heap (§5.2); the minor GC consumes
    /// the cards in old regions to find old→young references.
    fn write_barrier(&mut self, obj: ObjectId) {
        let addr = self.address(obj);
        let size = self.object(obj).size() as u64;
        self.cards.dirty_range(addr, size);
    }

    // ------------------------------------------------------------------ roots

    /// Registers a GC root.
    pub fn add_root(&mut self, id: ObjectId) {
        if !self.roots.contains(&id) {
            self.roots.push(id);
            probe!(audit, self, |pid| AuditEvent::RootAdded { pid, object: id.0 as u64 });
        }
    }

    /// Unregisters a GC root (no-op if absent).
    pub fn remove_root(&mut self, id: ObjectId) {
        let before = self.roots.len();
        self.roots.retain(|&r| r != id);
        if self.roots.len() != before {
            probe!(audit, self, |pid| AuditEvent::RootRemoved { pid, object: id.0 as u64 });
        }
    }

    /// The current root set.
    pub fn roots(&self) -> &[ObjectId] {
        &self.roots
    }

    // ----------------------------------------------------------- GC machinery

    /// Copies a live object into the current to-region of kind `dest`,
    /// counting it out of its old region. The object keeps its identifier.
    ///
    /// # Panics
    ///
    /// Panics if the object has been freed.
    pub fn copy_object(&mut self, id: ObjectId, dest: RegionKind) {
        let (size, old_region) = {
            let o = self.object(id);
            (o.size(), o.region())
        };
        self.region_mut(old_region).release_object();
        let (new_region, offset) = self.bump_into(dest, size, id);
        self.used_bytes += size as u64; // the from-region copy is reclaimed at free_region
        self.object_mut(id).relocate(new_region, offset);
        probe!(audit, self, |pid| AuditEvent::ObjectCopied {
            pid,
            object: id.0 as u64,
            from_region: old_region.0,
            to_region: new_region.0,
            size: size as u64,
        });
    }

    /// Frees a dead object, counting it out of its region.
    ///
    /// # Panics
    ///
    /// Panics if the object was already freed or is still a root.
    pub fn free_object(&mut self, id: ObjectId) {
        assert!(!self.roots.contains(&id), "freeing a root object {id}");
        let obj = self
            .arena
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .expect("object freed or out of range");
        self.region_mut(obj.region()).release_object();
        self.live_bytes -= obj.size() as u64;
        self.live_objects -= 1;
        probe!(audit, self, |pid| AuditEvent::ObjectFreed {
            pid,
            object: id.0 as u64,
            region: obj.region().0,
            size: obj.size() as u64,
        });
    }

    /// The object `id` if the arena has it live at `offset` of region
    /// `rid`, that is, if the log entry `(offset, id)` still holds it.
    /// Copies append a new entry and frees take the arena slot, so stale
    /// entries never match.
    fn member(&self, rid: RegionId, offset: u32, id: ObjectId) -> Option<&Object> {
        self.try_object(id).filter(|o| o.region() == rid && o.offset() == offset)
    }

    /// The live objects of region `rid` in increasing-offset order.
    ///
    /// # Panics
    ///
    /// Panics if the region was freed or never existed.
    pub fn region_objects(&self, rid: RegionId) -> impl Iterator<Item = ObjectId> + '_ {
        self.region(rid)
            .log()
            .iter()
            .filter(move |&&(offset, id)| self.member(rid, offset, id).is_some())
            .map(|&(_, id)| id)
    }

    /// Frees every live object of region `rid` that `is_live` rejects, in
    /// increasing-offset order, then releases the region if nothing in it
    /// is live any more.
    ///
    /// # Panics
    ///
    /// Panics if the region was freed, if a rejected object is a root, or
    /// if the emptied region is an allocation target.
    pub fn sweep_region(&mut self, rid: RegionId, is_live: impl Fn(ObjectId) -> bool) -> Swept {
        // Freeing never reads the log, so it can be borrowed out meanwhile.
        let log = std::mem::take(self.region_mut(rid).log_mut());
        let mut swept = Swept::default();
        for &(offset, id) in &log {
            let Some(size) = self.member(rid, offset, id).map(Object::size) else { continue };
            if !is_live(id) {
                self.free_object(id);
                swept.objects += 1;
                swept.bytes += size as u64;
            }
        }
        if self.region(rid).is_empty() {
            self.free_region(rid);
            swept.region_freed = true;
        } else {
            *self.region_mut(rid).log_mut() = log;
        }
        swept
    }

    /// Sets (or clears) the RGS classification of an object.
    pub fn set_class(&mut self, id: ObjectId, class: Option<ObjectClass>) {
        self.object_mut(id).set_class(class);
    }

    /// Rewrites the FGO/BGO context of an object. Used when the paper's
    /// rule "at the moment an app switches to the background, all existing
    /// objects are considered FGO" is applied (§4.1).
    pub fn set_object_context(&mut self, id: ObjectId, context: AllocContext) {
        self.object_mut(id).set_context(context);
    }

    /// The GC epoch — number of collections completed.
    pub fn gc_epoch(&self) -> u32 {
        self.gc_epoch
    }

    /// Increments the GC epoch (collectors call this once per collection).
    pub fn bump_gc_epoch(&mut self) {
        self.gc_epoch += 1;
    }

    /// True when allocation pressure has reached the dynamic heap limit and
    /// a GC should run (§4.2's threshold trigger).
    pub fn should_trigger_gc(&self) -> bool {
        self.used_bytes >= self.limit
    }

    /// The current dynamic heap limit in bytes.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Recomputes the heap limit after a GC: `live_bytes × factor`, floored
    /// at the initial limit. The factor is the fore- or background growth
    /// factor depending on the current context (§4.2, §7.4).
    pub fn update_limit_after_gc(&mut self) {
        let factor = match self.context {
            AllocContext::Foreground => self.config.growth_factor_foreground,
            AllocContext::Background => self.config.growth_factor_background,
        };
        self.limit = ((self.live_bytes as f64 * factor) as u64).max(self.config.initial_limit);
    }

    /// Overrides the heap limit directly. Non-moving collectors (Marvin's
    /// bookmarking GC) size the limit from *used* rather than live bytes
    /// because they cannot compact fragmentation away.
    pub fn set_limit(&mut self, limit: u64) {
        self.limit = limit.max(self.config.initial_limit);
    }

    /// The growth factor for the current context (fore- or background).
    pub fn growth_factor(&self) -> f64 {
        match self.context {
            AllocContext::Foreground => self.config.growth_factor_foreground,
            AllocContext::Background => self.config.growth_factor_background,
        }
    }

    /// Objects overlapping card `card` of the card table, in address order.
    pub fn objects_in_card(&self, card: usize) -> Vec<ObjectId> {
        let range = self.cards.card_range(card);
        let Some(rid) = self.region_of_addr(range.start) else {
            return Vec::new();
        };
        let region = self.region(rid);
        // A card never straddles regions (`HeapConfig::validate`).
        let start = (range.start - region.base()) as u32;
        let end = start + self.cards.card_size() as u32;
        // Log entries cover disjoint bump ranges in offset order, so of
        // those starting before the card only the last can reach into it.
        let log = region.log();
        let first = log.partition_point(|&(offset, _)| offset < start).saturating_sub(1);
        log[first..]
            .iter()
            .take_while(|&&(offset, _)| offset < end)
            .filter(|&&(offset, id)| {
                self.member(rid, offset, id).is_some_and(|o| offset + o.size() > start)
            })
            .map(|&(_, id)| id)
            .collect()
    }

    /// The BGC card table.
    pub fn cards(&self) -> &CardTable {
        &self.cards
    }

    /// Mutable access to the BGC card table (collectors clear it).
    pub fn cards_mut(&mut self) -> &mut CardTable {
        &mut self.cards
    }

    // ------------------------------------------------------------------ stats

    /// Point-in-time occupancy statistics.
    pub fn stats(&self) -> HeapStats {
        let mut fgo_bytes = 0;
        let mut bgo_bytes = 0;
        let mut fgo_objects = 0;
        let mut bgo_objects = 0;
        for obj in self.arena.iter().filter_map(|o| o.as_ref()) {
            match obj.context() {
                AllocContext::Foreground => {
                    fgo_bytes += obj.size() as u64;
                    fgo_objects += 1;
                }
                AllocContext::Background => {
                    bgo_bytes += obj.size() as u64;
                    bgo_objects += 1;
                }
            }
        }
        HeapStats {
            used_bytes: self.used_bytes,
            live_bytes: self.live_bytes,
            live_objects: self.live_objects,
            regions: self.regions().count() as u64,
            fgo_bytes,
            bgo_bytes,
            fgo_objects,
            bgo_objects,
            limit: self.limit,
        }
    }

    /// Bytes bump-allocated in mapped regions (live + garbage).
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Bytes of live objects.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Live object count.
    pub fn live_objects(&self) -> u64 {
        self.live_objects
    }

    /// Fragmentation ratio: used bytes per live byte (1.0 = perfectly
    /// compact). Non-moving collectors (Marvin) let this grow; copying
    /// collectors reset it to ~1 at every collection.
    pub fn fragmentation(&self) -> f64 {
        if self.live_bytes == 0 {
            1.0
        } else {
            self.used_bytes as f64 / self.live_bytes as f64
        }
    }

    /// Drains queued address-space events for the kernel model.
    pub fn drain_events(&mut self) -> Vec<HeapEvent> {
        std::mem::take(&mut self.events)
    }

    /// Verifies that no live object references a freed object, that every
    /// root is live, and that the region logs hold every live object
    /// exactly once: each log's offsets strictly ascend within the region's
    /// used bytes, its live members do not overlap, and their number is the
    /// region's live count. O(heap); used by debug assertions and tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate_refs(&self) -> Result<(), String> {
        for &root in &self.roots {
            if !self.contains(root) {
                return Err(format!("dead root {root}"));
            }
        }
        let mut live = 0u64;
        for (i, slot) in self.arena.iter().enumerate() {
            let Some(obj) = slot.as_ref() else { continue };
            live += 1;
            for &r in obj.refs() {
                if !self.contains(r) {
                    return Err(format!("obj#{i} holds a dangling reference to {r}"));
                }
            }
        }
        // A member names its region and offset, and offsets strictly
        // ascend, so no object is a member twice; per-region counts that
        // sum to the arena's then mean every live object is logged once.
        let mut counted = 0u64;
        for region in self.regions() {
            let (rid, used) = (region.id(), region.used());
            let mut next = 0u32;
            let mut end = 0u32;
            let mut members = 0u32;
            for &(offset, id) in region.log() {
                if offset < next || offset >= used {
                    return Err(format!(
                        "{rid} logs {id} at offset {offset} out of order or bounds (next {next}, used {used})"
                    ));
                }
                next = offset + 1;
                let Some(obj) = self.member(rid, offset, id) else { continue };
                if offset < end || offset + obj.size() > used {
                    return Err(format!(
                        "{rid} holds {id} at offset {offset} over the previous object or past used (previous end {end}, used {used})"
                    ));
                }
                end = offset + obj.size();
                members += 1;
            }
            if members != region.live_objects() {
                return Err(format!(
                    "{rid} holds {members} live objects, its count {}",
                    region.live_objects()
                ));
            }
            counted += u64::from(members);
        }
        if counted != live {
            return Err(format!("region logs hold {counted} live objects, the arena {live}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_heap() -> Heap {
        Heap::new(HeapConfig { region_size: 4096, initial_limit: 8192, ..HeapConfig::default() })
    }

    #[test]
    fn alloc_assigns_addresses_and_context() {
        let mut h = small_heap();
        let a = h.alloc(100);
        let b = h.alloc(50);
        assert_eq!(h.address(a), 0);
        assert_eq!(h.address(b), 100);
        assert_eq!(h.object(a).context(), AllocContext::Foreground);
        h.set_context(AllocContext::Background);
        let c = h.alloc(10);
        assert_eq!(h.object(c).context(), AllocContext::Background);
        // BGO live in a different region than FGO.
        assert_ne!(h.object(a).region(), h.object(c).region());
        assert_eq!(h.region(h.object(c).region()).kind(), RegionKind::Bg);
    }

    #[test]
    fn regions_roll_over_when_full() {
        let mut h = small_heap();
        let a = h.alloc(3000);
        let b = h.alloc(3000);
        assert_ne!(h.object(a).region(), h.object(b).region());
        assert_eq!(h.stats().regions, 2);
    }

    #[test]
    fn events_report_mapping_and_freeing() {
        let mut h = small_heap();
        let a = h.alloc(100);
        let events = h.drain_events();
        assert_eq!(events, vec![HeapEvent::RegionMapped { base: 0, len: 4096 }]);
        let region = h.object(a).region();
        h.retire_alloc_targets();
        h.free_object(a);
        h.free_region(region);
        let events = h.drain_events();
        assert_eq!(events, vec![HeapEvent::RegionFreed { base: 0, len: 4096 }]);
    }

    #[test]
    #[should_panic(expected = "still holds")]
    fn freeing_nonempty_region_panics() {
        let mut h = small_heap();
        let a = h.alloc(10);
        let region = h.object(a).region();
        h.retire_alloc_targets();
        h.free_region(region);
    }

    #[test]
    fn write_barrier_dirties_written_objects_card() {
        let mut h = small_heap();
        let fgo = h.alloc(64);
        h.set_context(AllocContext::Background);
        let bgo = h.alloc(64);
        let bgo2 = h.alloc(64);
        assert_eq!(h.cards().dirty_len(), 0);
        h.add_ref(fgo, bgo); // FGO write: dirty card at the FGO's address
        assert!(h.cards().is_dirty(h.address(fgo)));
        assert!(!h.cards().is_dirty(h.address(bgo)));
        h.add_ref(bgo, bgo2); // BGO write dirties its own (Bg-region) card
        assert!(h.cards().is_dirty(h.address(bgo)));
    }

    #[test]
    fn copy_preserves_identity_and_size() {
        let mut h = small_heap();
        let a = h.alloc(100);
        let b = h.alloc(40);
        h.add_ref(a, b);
        let old_addr = h.address(a);
        h.retire_alloc_targets();
        h.copy_object(a, RegionKind::Fg);
        assert_ne!(h.address(a), old_addr);
        assert_eq!(h.object(a).size(), 100);
        assert_eq!(h.object(a).refs(), &[b]);
        assert_eq!(h.region(h.object(a).region()).kind(), RegionKind::Fg);
    }

    #[test]
    fn object_ids_are_never_recycled() {
        let mut h = small_heap();
        let a = h.alloc(10);
        h.free_object(a);
        assert!(!h.contains(a));
        let b = h.alloc(10);
        assert_ne!(a, b, "a stale id must never alias a new object");
        assert_eq!(h.live_objects(), 1);
    }

    #[test]
    #[should_panic(expected = "root")]
    fn freeing_root_panics() {
        let mut h = small_heap();
        let a = h.alloc(10);
        h.add_root(a);
        h.free_object(a);
    }

    #[test]
    fn gc_trigger_follows_limit() {
        let mut h = small_heap();
        assert!(!h.should_trigger_gc());
        h.alloc(4000);
        h.alloc(4000);
        h.alloc(200);
        assert!(h.should_trigger_gc());
        // After "GC", limit grows from live bytes.
        h.update_limit_after_gc();
        assert_eq!(h.limit(), ((8200f64 * 2.0) as u64).max(8192));
        assert!(!h.should_trigger_gc());
    }

    #[test]
    fn background_growth_factor_is_tighter() {
        let mut h = Heap::new(HeapConfig {
            region_size: 4096,
            initial_limit: 4096,
            ..HeapConfig::default()
        });
        for _ in 0..100 {
            h.alloc(512);
        }
        h.set_context(AllocContext::Background);
        h.update_limit_after_gc();
        let bg_limit = h.limit();
        h.set_context(AllocContext::Foreground);
        h.update_limit_after_gc();
        let fg_limit = h.limit();
        assert!(bg_limit < fg_limit);
        assert_eq!(bg_limit, (51200f64 * 1.1) as u64);
    }

    #[test]
    fn objects_in_card_finds_overlaps() {
        let mut h = small_heap();
        let a = h.alloc(1000);
        let b = h.alloc(100);
        let c = h.alloc(3000 - 1100 + 100); // stays in region 0
        let card0 = h.cards().card_of(h.address(a));
        let in_card = h.objects_in_card(card0);
        assert!(in_card.contains(&a));
        assert!(in_card.contains(&b)); // b at offset 1000 overlaps card 0? card is 1024 bytes: b spans 1000..1100 — overlap yes
        let card1 = h.cards().card_of(1500);
        assert!(h.objects_in_card(card1).contains(&c));
    }

    #[test]
    fn objects_in_card_stops_at_the_card_end() {
        let mut h = small_heap();
        let ids: Vec<ObjectId> = (0..8).map(|_| h.alloc(300)).collect();
        // Card 1 covers [1024, 2048): objects at 900..1200 through 1800..2100.
        assert_eq!(h.objects_in_card(1), ids[3..7].to_vec());
        h.free_object(ids[4]);
        assert_eq!(h.objects_in_card(1), vec![ids[3], ids[5], ids[6]]);
        // Past the allocated end and past the mapped regions: nothing.
        assert!(h.objects_in_card(3).is_empty());
        assert!(h.objects_in_card(1000).is_empty());
        // Card bounds are exact: an object starting at a card's last byte is
        // in it, one ending at a card's first byte is not in the next.
        let mut h = small_heap();
        let a = h.alloc(1023);
        let b = h.alloc(1);
        let c = h.alloc(1024);
        let d = h.alloc(1);
        assert_eq!(h.objects_in_card(0), vec![a, b]);
        assert_eq!(h.objects_in_card(1), vec![c]);
        assert_eq!(h.objects_in_card(2), vec![d]);
    }

    #[test]
    fn validator_checks_region_lists() {
        let mut h = small_heap();
        let a = h.alloc(10);
        h.alloc(10);
        assert_eq!(h.validate_refs(), Ok(()));
        let region = h.object(a).region();
        h.region_mut(region).log_mut().swap(0, 1);
        let err = h.validate_refs().unwrap_err();
        assert!(err.contains("out of order"), "{err}");
        h.region_mut(region).log_mut().truncate(1);
        let err = h.validate_refs().unwrap_err();
        assert!(err.contains("holds 1 live objects, its count 2"), "{err}");
        // Consistent per-region counts still miss the unlogged object.
        h.region_mut(region).release_object();
        let err = h.validate_refs().unwrap_err();
        assert!(err.contains("hold 1 live objects, the arena 2"), "{err}");
    }

    #[test]
    fn unlink_handles_copies_into_the_same_region() {
        let mut h = small_heap();
        let ids: Vec<ObjectId> = (0..4).map(|_| h.alloc(100)).collect();
        let region = h.object(ids[0]).region();
        // The Eden target is still open: copying into Eden appends to the
        // same region, after its remaining objects; the old entry goes
        // stale.
        h.copy_object(ids[1], RegionKind::Eden);
        assert_eq!(h.object(ids[1]).region(), region);
        assert_eq!(h.region_objects(region).collect::<Vec<_>>(), [ids[0], ids[2], ids[3], ids[1]]);
        assert_eq!(h.region(region).live_objects(), 4);
        h.free_object(ids[0]);
        h.free_object(ids[1]);
        assert_eq!(h.region_objects(region).collect::<Vec<_>>(), [ids[2], ids[3]]);
        assert_eq!(h.region(region).live_objects(), 2);
        assert_eq!(h.validate_refs(), Ok(()));
    }

    #[test]
    fn sweep_region_frees_dead_members_in_offset_order() {
        let mut h = small_heap();
        let ids: Vec<ObjectId> = (0..5).map(|_| h.alloc(100)).collect();
        let region = h.object(ids[0]).region();
        h.add_root(ids[2]);
        h.retire_alloc_targets();
        // A copied-out object leaves a stale entry the sweep must skip.
        h.copy_object(ids[4], RegionKind::Fg);
        let swept = h.sweep_region(region, |o| o == ids[2]);
        assert_eq!(swept, Swept { objects: 3, bytes: 300, region_freed: false });
        assert_eq!(h.region_objects(region).collect::<Vec<_>>(), [ids[2]]);
        assert!(h.contains(ids[4]));
        assert_eq!(h.validate_refs(), Ok(()));
        h.remove_root(ids[2]);
        h.copy_object(ids[2], RegionKind::Fg);
        h.drain_events();
        let swept = h.sweep_region(region, |_| false);
        assert_eq!(swept, Swept { objects: 0, bytes: 0, region_freed: true });
        assert_eq!(h.drain_events(), [HeapEvent::RegionFreed { base: 0, len: 4096 }]);
        assert_eq!(h.validate_refs(), Ok(()));
    }

    #[test]
    fn pages_of_spans_boundaries() {
        let mut h = small_heap();
        let a = h.alloc(100);
        assert_eq!(h.pages_of(a), 0..=0);
        let big = h.alloc(4000 - 104); // fills most of the rest of page 0
        let _ = big;
        let b = h.alloc(200); // new region at base 4096
        assert_eq!(h.pages_of(b), 1..=1);
    }

    #[test]
    fn set_refs_validates_targets() {
        let mut h = small_heap();
        let a = h.alloc(10);
        let b = h.alloc(10);
        h.set_refs(a, vec![b, b]);
        assert_eq!(h.object(a).refs().len(), 2);
        h.remove_ref(a, b);
        assert_eq!(h.object(a).refs(), &[b]);
        h.clear_refs(a);
        assert!(h.object(a).refs().is_empty());
    }

    #[test]
    #[should_panic(expected = "dangling")]
    fn add_ref_rejects_dead_target() {
        let mut h = small_heap();
        let a = h.alloc(10);
        let b = h.alloc(10);
        h.free_object(b);
        h.add_ref(a, b);
    }

    #[test]
    fn stats_split_fgo_bgo() {
        let mut h = small_heap();
        h.alloc(100);
        h.alloc(100);
        h.set_context(AllocContext::Background);
        h.alloc(50);
        let s = h.stats();
        assert_eq!(s.fgo_bytes, 200);
        assert_eq!(s.bgo_bytes, 50);
        assert_eq!(s.fgo_objects, 2);
        assert_eq!(s.bgo_objects, 1);
        assert_eq!(s.live_objects, 3);
    }

    #[test]
    fn roots_are_deduplicated() {
        let mut h = small_heap();
        let a = h.alloc(10);
        h.add_root(a);
        h.add_root(a);
        assert_eq!(h.roots().len(), 1);
        h.remove_root(a);
        assert!(h.roots().is_empty());
    }
}
