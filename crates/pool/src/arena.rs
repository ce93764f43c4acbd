//! Record-and-replay memory planning for fixed-structure computations.
//!
//! A deterministic computation (one `sdm_peb::predict` at a fixed grid
//! shape and dispatch level) makes the *same sequence* of
//! pool checkouts every time it runs. This module exploits that:
//!
//! 1. **Record** — run the computation once while a thread-local
//!    recorder logs every checkout (element count + type) and every
//!    recycle as an alloc/free event stream ([`Trace`]).
//! 2. **Plan** — [`MemPlan::from_trace`] runs a liveness analysis over
//!    the stream and assigns every intermediate that dies inside the
//!    window to a *region* of a pre-sized arena, aliasing regions
//!    across buffers whose lifetimes do not overlap (classic
//!    interval-graph best-fit). Buffers that outlive the window — the
//!    returned prediction — are marked [`Placement::Escape`] and keep
//!    using the ordinary pool, because the caller may drop them on any
//!    thread at any time.
//! 3. **Replay** — run the same computation again with the arena
//!    installed: the k-th checkout is served from its pre-assigned
//!    region with **no pool traffic and no heap allocation**, and the
//!    matching recycle returns the buffer to its region. Values are
//!    computed by exactly the same kernel code as eager execution, so
//!    replay is bitwise identical by construction — the arena only
//!    redirects *where* intermediates live, never *what* is computed.
//!
//! # The eager-fallback contract
//!
//! Replay validates each checkout against the recorded stream (element
//! count and element type at the cursor). On the first mismatch the
//! session flags itself *diverged* and every subsequent checkout passes
//! through to the ordinary pool: the computation still completes with
//! correct (bitwise-eager) results, only the memory-planning win is
//! forfeited for that run. [`ReplayOutcome::complete`] tells the caller
//! the plan is stale so it can re-record.
//!
//! # Safety model
//!
//! Everything is safe Rust: the "arena" is a set of per-region slabs
//! (each an ordinary `Vec` moved in and out of its slot), not one raw
//! allocation carved up with pointer arithmetic, so Rust's ownership
//! rules enforce at runtime what the liveness analysis proved at plan
//! time — a region's storage is owned by at most one live buffer. The
//! planner's aliasing-safety property (two live buffers never share a
//! region) is additionally proptest-verified in `peb-plan`.

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use crate::Poolable;

/// One recorded checkout. Alloc events are implicitly numbered by their
/// position in the alloc stream (0, 1, 2, … in record order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocEvent {
    /// Requested length in elements.
    pub elems: usize,
    /// Size of one element in bytes.
    pub elem_bytes: usize,
    /// Element type of the checkout.
    pub ty: TypeId,
}

/// One event of a recorded trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A pool checkout on the recording thread.
    Alloc(AllocEvent),
    /// A recycle of the buffer produced by alloc number `alloc`.
    Free {
        /// Index into the alloc stream.
        alloc: u32,
    },
}

/// The alloc/free event stream of one recorded window.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events in record order. Allocs that have no matching `Free` were
    /// still live when the window closed (they escaped).
    pub events: Vec<Event>,
}

impl Trace {
    /// Number of checkouts in the window.
    pub fn alloc_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Alloc(_)))
            .count()
    }
}

/// Where one recorded checkout is served from during replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Served from arena region `0`-indexed by the payload.
    Region(u32),
    /// Outlives the replay window; served from the ordinary pool.
    Escape,
}

/// One arena region: a slab that serves every checkout assigned to it
/// (their lifetimes are pairwise disjoint, so they alias safely).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionSpec {
    /// Element type stored in this region.
    pub ty: TypeId,
    /// Size of one element in bytes.
    pub elem_bytes: usize,
    /// Capacity in elements (the max over all assigned checkouts).
    pub cap_elems: usize,
}

/// The static memory plan: a placement per recorded checkout plus the
/// region table sizing the arena.
#[derive(Clone, Debug)]
pub struct MemPlan {
    /// `(event, placement)` per checkout, in alloc-stream order.
    pub allocs: Vec<(AllocEvent, Placement)>,
    /// Region table; [`Placement::Region`] indexes into this.
    pub regions: Vec<RegionSpec>,
}

impl MemPlan {
    /// Liveness analysis + aliasing assignment over a recorded trace.
    ///
    /// Walks the event stream keeping a free-list of regions. A
    /// checkout that dies inside the window takes the smallest free
    /// region of its element type that fits (best-fit); if none fits,
    /// the largest free region of that type is grown to fit (strictly
    /// cheaper than opening a new region); with no free region at all a
    /// new one is opened. Never-freed checkouts escape to the pool.
    pub fn from_trace(trace: &Trace) -> MemPlan {
        let n_allocs = trace.alloc_count();
        let mut freed = vec![false; n_allocs];
        for e in &trace.events {
            if let Event::Free { alloc } = e {
                freed[*alloc as usize] = true;
            }
        }
        let mut regions: Vec<RegionSpec> = Vec::new();
        let mut free: Vec<u32> = Vec::new();
        let mut allocs: Vec<(AllocEvent, Placement)> = Vec::with_capacity(n_allocs);
        let mut next = 0usize;
        for e in &trace.events {
            match *e {
                Event::Alloc(ev) => {
                    let id = next;
                    next += 1;
                    if !freed[id] {
                        allocs.push((ev, Placement::Escape));
                        continue;
                    }
                    // Best fit among free regions of the same type.
                    let mut best: Option<(usize, usize)> = None; // (free_idx, cap)
                    let mut largest: Option<(usize, usize)> = None;
                    for (fi, &r) in free.iter().enumerate() {
                        let spec = regions[r as usize];
                        if spec.ty != ev.ty {
                            continue;
                        }
                        if spec.cap_elems >= ev.elems
                            && best.is_none_or(|(_, c)| spec.cap_elems < c)
                        {
                            best = Some((fi, spec.cap_elems));
                        }
                        if largest.is_none_or(|(_, c)| spec.cap_elems > c) {
                            largest = Some((fi, spec.cap_elems));
                        }
                    }
                    let r = match best.or(largest) {
                        Some((fi, _)) => {
                            let r = free.swap_remove(fi);
                            let spec = &mut regions[r as usize];
                            spec.cap_elems = spec.cap_elems.max(ev.elems);
                            r
                        }
                        None => {
                            regions.push(RegionSpec {
                                ty: ev.ty,
                                elem_bytes: ev.elem_bytes,
                                cap_elems: ev.elems,
                            });
                            (regions.len() - 1) as u32
                        }
                    };
                    allocs.push((ev, Placement::Region(r)));
                }
                Event::Free { alloc } => {
                    if let Some((_, Placement::Region(r))) = allocs.get(alloc as usize) {
                        free.push(*r);
                    }
                }
            }
        }
        MemPlan { allocs, regions }
    }

    /// Total arena footprint in bytes (sum of region slabs).
    pub fn arena_bytes(&self) -> usize {
        self.regions
            .iter()
            .map(|r| r.cap_elems * r.elem_bytes)
            .sum()
    }

    /// Bytes the region-placed checkouts would occupy without aliasing
    /// (what a no-reuse arena would cost).
    pub fn logical_bytes(&self) -> usize {
        self.allocs
            .iter()
            .filter(|(_, p)| matches!(p, Placement::Region(_)))
            .map(|(ev, _)| ev.elems * ev.elem_bytes)
            .sum()
    }

    /// Checkouts served by the arena (the rest escape to the pool).
    pub fn region_allocs(&self) -> usize {
        self.allocs
            .iter()
            .filter(|(_, p)| matches!(p, Placement::Region(_)))
            .count()
    }
}

/// The materialised arena: one slab per region, fully pre-allocated at
/// construction so replays never touch the heap.
pub struct Arena {
    plan: Rc<MemPlan>,
    /// `slots[r]` holds region `r`'s slab (`Box<Vec<T>>`) while no live
    /// buffer owns it.
    slots: Vec<Option<Box<dyn Any>>>,
    /// Slab pointer → region, for recycle-time identification.
    by_ptr: HashMap<usize, u32>,
    /// Total bytes materialised (the arena high-water mark).
    allocated_bytes: usize,
}

fn v_addr<T>(v: &[T]) -> usize {
    v.as_ptr() as usize
}

impl Arena {
    /// Pre-sizes every region of `plan`. `slab_for` must materialise a
    /// slab for a given region spec — it is a callback because element
    /// types are only known to the recording call sites; use
    /// [`Arena::for_plan`] for the standard element-type set.
    pub fn new(plan: Rc<MemPlan>, slab_for: impl Fn(&RegionSpec) -> Option<Box<dyn Any>>) -> Arena {
        let mut slots = Vec::with_capacity(plan.regions.len());
        let mut by_ptr = HashMap::with_capacity(plan.regions.len());
        let mut bytes = 0usize;
        for (r, spec) in plan.regions.iter().enumerate() {
            match slab_for(spec) {
                Some(slab) => {
                    if let Some(addr) = slab_addr(slab.as_ref(), spec) {
                        by_ptr.insert(addr, r as u32);
                    }
                    bytes += spec.cap_elems * spec.elem_bytes;
                    slots.push(Some(slab));
                }
                None => slots.push(None),
            }
        }
        peb_obs::count(peb_obs::Counter::ArenaBytes, bytes as u64);
        Arena {
            plan,
            slots,
            by_ptr,
            allocated_bytes: bytes,
        }
    }

    /// The plan this arena serves.
    pub fn plan(&self) -> &Rc<MemPlan> {
        &self.plan
    }

    /// Bytes materialised across all regions (high-water mark).
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_bytes
    }
}

/// Extracts the base address of a slab for the standard element types.
fn slab_addr(slab: &dyn Any, spec: &RegionSpec) -> Option<usize> {
    macro_rules! try_ty {
        ($($t:ty),*) => {
            $(if spec.ty == TypeId::of::<$t>() {
                return slab.downcast_ref::<Vec<$t>>().map(|v| v_addr(v));
            })*
        };
    }
    try_ty!(f32, f64, u64, u32, usize);
    // An element type outside the `impl_poolable!` set misses the ptr
    // map; its recycles simply fall through to the ordinary pool.
    None
}

impl Arena {
    /// Standard constructor covering every `impl_poolable!` primitive.
    /// Regions of element types outside this set are left empty; their
    /// checkouts fall through to the pool (still correct, not planned).
    pub fn for_plan(plan: Rc<MemPlan>) -> Arena {
        Arena::new(plan, |spec| {
            macro_rules! mk {
                ($($t:ty),*) => {
                    $(if spec.ty == TypeId::of::<$t>() {
                        let v: Vec<$t> = Vec::with_capacity(spec.cap_elems);
                        return Some(Box::new(v) as Box<dyn Any>);
                    })*
                };
            }
            mk!(f32, f64, u64, u32, usize);
            None
        })
    }
}

// ---------------------------------------------------------------------------
// Thread-local session state
// ---------------------------------------------------------------------------

struct RecordState {
    events: Vec<Event>,
    live: HashMap<usize, u32>,
    allocs: u32,
}

struct ReplayState {
    arena: Rc<RefCell<Arena>>,
    cursor: usize,
    diverged: bool,
    served: u32,
    escaped: u32,
}

enum Mode {
    Off,
    Record(RecordState),
    Replay(ReplayState),
}

thread_local! {
    /// Fast-path flag checked by every checkout/recycle; the full mode
    /// lives behind a second TLS slot so the common (off) case is one
    /// `Cell` read.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static MODE: RefCell<Mode> = const { RefCell::new(Mode::Off) };
}

/// Whether a record or replay session is active on this thread.
#[inline]
pub fn active() -> bool {
    ARMED.with(|a| a.get())
}

/// Opens a recording window on this thread.
///
/// # Panics
///
/// Panics if a record or replay session is already active — sessions
/// never nest (a plan records exactly one computation).
pub fn begin_record() {
    MODE.with(|m| {
        let mut m = m.borrow_mut();
        assert!(
            matches!(*m, Mode::Off),
            "arena session already active on this thread"
        );
        *m = Mode::Record(RecordState {
            events: Vec::new(),
            live: HashMap::new(),
            allocs: 0,
        });
    });
    ARMED.with(|a| a.set(true));
}

/// Closes the recording window, returning the event stream.
///
/// # Panics
///
/// Panics if no recording session is active.
pub fn end_record() -> Trace {
    ARMED.with(|a| a.set(false));
    MODE.with(|m| {
        let mut m = m.borrow_mut();
        match std::mem::replace(&mut *m, Mode::Off) {
            Mode::Record(rs) => Trace { events: rs.events },
            other => {
                *m = other;
                panic!("end_record without begin_record");
            }
        }
    })
}

/// Installs `arena` for a replay window on this thread.
///
/// # Panics
///
/// Panics if a record or replay session is already active.
pub fn begin_replay(arena: &Rc<RefCell<Arena>>) {
    MODE.with(|m| {
        let mut m = m.borrow_mut();
        assert!(
            matches!(*m, Mode::Off),
            "arena session already active on this thread"
        );
        *m = Mode::Replay(ReplayState {
            arena: Rc::clone(arena),
            cursor: 0,
            diverged: false,
            served: 0,
            escaped: 0,
        });
    });
    ARMED.with(|a| a.set(true));
}

/// What happened during a replay window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Every recorded checkout was matched in order — the plan is
    /// still valid for this computation.
    pub complete: bool,
    /// Checkouts served from arena regions.
    pub served: u32,
    /// Checkouts that escaped to the ordinary pool (by plan).
    pub escaped: u32,
    /// The checkout stream diverged from the recording; the tail of
    /// the run fell back to the pool and the plan should be rebuilt.
    pub diverged: bool,
}

/// Closes the replay window.
///
/// # Panics
///
/// Panics if no replay session is active.
pub fn end_replay() -> ReplayOutcome {
    ARMED.with(|a| a.set(false));
    MODE.with(|m| {
        let mut m = m.borrow_mut();
        match std::mem::replace(&mut *m, Mode::Off) {
            Mode::Replay(rs) => {
                let expected = rs.arena.borrow().plan.allocs.len();
                ReplayOutcome {
                    complete: !rs.diverged && rs.cursor == expected,
                    served: rs.served,
                    escaped: rs.escaped,
                    diverged: rs.diverged,
                }
            }
            other => {
                *m = other;
                panic!("end_replay without begin_replay");
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Hooks called from the pool checkout/recycle paths
// ---------------------------------------------------------------------------

/// Replay-mode interception of a checkout: `Some(buf)` serves the
/// checkout from the arena, `None` passes through to the pool (off,
/// recording, escape placement, or diverged).
pub(crate) fn replay_checkout<T: Poolable>(len: usize) -> Option<Vec<T>> {
    MODE.with(|m| {
        let mut m = m.borrow_mut();
        let Mode::Replay(rs) = &mut *m else {
            return None;
        };
        if rs.diverged {
            return None;
        }
        let mut arena = rs.arena.borrow_mut();
        let Some(&(ev, placement)) = arena.plan.allocs.get(rs.cursor) else {
            rs.diverged = true;
            return None;
        };
        if ev.ty != TypeId::of::<T>() || ev.elems != len {
            rs.diverged = true;
            return None;
        }
        rs.cursor += 1;
        let r = match placement {
            Placement::Escape => {
                rs.escaped += 1;
                return None;
            }
            Placement::Region(r) => r as usize,
        };
        match arena.slots[r].take() {
            Some(slab) => match slab.downcast::<Vec<T>>() {
                Ok(v) => {
                    let v = *v;
                    debug_assert!(v.is_empty() && v.capacity() >= len);
                    rs.served += 1;
                    Some(v)
                }
                Err(slab) => {
                    // Type-confused slab (stale ptr mapping after a
                    // leak); drop it and fall back for this checkout.
                    drop(slab);
                    rs.diverged = true;
                    None
                }
            },
            None => {
                // Region slab lost (a caller grew or leaked the buffer
                // on a previous run). Re-materialise to spec.
                let spec = arena.plan.regions[r];
                let v: Vec<T> = Vec::with_capacity(spec.cap_elems);
                arena.by_ptr.retain(|_, rr| *rr as usize != r);
                arena.by_ptr.insert(v_addr(&v), r as u32);
                arena.allocated_bytes += spec.cap_elems * spec.elem_bytes;
                peb_obs::count(
                    peb_obs::Counter::ArenaBytes,
                    (spec.cap_elems * spec.elem_bytes) as u64,
                );
                rs.served += 1;
                Some(v)
            }
        }
    })
}

/// Record-mode hook: logs the checkout that just produced `v`.
pub(crate) fn record_checkout<T: Poolable>(v: &[T], len: usize) {
    MODE.with(|m| {
        let mut m = m.borrow_mut();
        let Mode::Record(rs) = &mut *m else {
            return;
        };
        let id = rs.allocs;
        rs.allocs += 1;
        rs.events.push(Event::Alloc(AllocEvent {
            elems: len,
            elem_bytes: std::mem::size_of::<T>(),
            ty: TypeId::of::<T>(),
        }));
        rs.live.insert(v.as_ptr() as usize, id);
    });
}

/// Intercepts a recycle. Returns `true` when the buffer was consumed
/// (returned to its arena region); `false` passes it to the pool.
pub(crate) fn intercept_recycle<T: Poolable>(v: &mut Vec<T>) -> bool {
    MODE.with(|m| {
        let mut m = m.borrow_mut();
        match &mut *m {
            Mode::Record(rs) => {
                if let Some(id) = rs.live.remove(&(v.as_ptr() as usize)) {
                    rs.events.push(Event::Free { alloc: id });
                }
                false
            }
            Mode::Replay(rs) => {
                let mut arena = rs.arena.borrow_mut();
                let addr = v.as_ptr() as usize;
                let Some(&r) = arena.by_ptr.get(&addr) else {
                    return false;
                };
                let r = r as usize;
                if arena.plan.regions[r].ty != TypeId::of::<T>() || arena.slots[r].is_some() {
                    // Stale mapping — not actually this region's slab.
                    return false;
                }
                let mut buf = std::mem::take(v);
                buf.clear();
                arena.slots[r] = Some(Box::new(buf));
                true
            }
            Mode::Off => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(elems: usize) -> Event {
        Event::Alloc(AllocEvent {
            elems,
            elem_bytes: 4,
            ty: TypeId::of::<f32>(),
        })
    }

    #[test]
    fn disjoint_lifetimes_share_one_region() {
        // a(100) freed, then b(80) — b reuses a's region.
        let trace = Trace {
            events: vec![
                alloc(100),
                Event::Free { alloc: 0 },
                alloc(80),
                Event::Free { alloc: 1 },
            ],
        };
        let plan = MemPlan::from_trace(&trace);
        assert_eq!(plan.regions.len(), 1);
        assert_eq!(plan.regions[0].cap_elems, 100);
        assert_eq!(plan.allocs[0].1, Placement::Region(0));
        assert_eq!(plan.allocs[1].1, Placement::Region(0));
        assert_eq!(plan.arena_bytes(), 400);
        assert_eq!(plan.logical_bytes(), 720);
    }

    #[test]
    fn overlapping_lifetimes_get_distinct_regions() {
        let trace = Trace {
            events: vec![
                alloc(10),
                alloc(10),
                Event::Free { alloc: 0 },
                Event::Free { alloc: 1 },
            ],
        };
        let plan = MemPlan::from_trace(&trace);
        assert_eq!(plan.regions.len(), 2);
        assert_ne!(plan.allocs[0].1, plan.allocs[1].1);
    }

    #[test]
    fn never_freed_escapes() {
        let trace = Trace {
            events: vec![alloc(64)],
        };
        let plan = MemPlan::from_trace(&trace);
        assert!(plan.regions.is_empty());
        assert_eq!(plan.allocs[0].1, Placement::Escape);
    }

    #[test]
    fn undersized_free_region_grows_instead_of_opening_new() {
        // a(10) freed, then b(100): grow a's region to 100 rather than
        // keeping a dead 10-elem region plus a fresh 100-elem one.
        let trace = Trace {
            events: vec![
                alloc(10),
                Event::Free { alloc: 0 },
                alloc(100),
                Event::Free { alloc: 1 },
            ],
        };
        let plan = MemPlan::from_trace(&trace);
        assert_eq!(plan.regions.len(), 1);
        assert_eq!(plan.regions[0].cap_elems, 100);
    }

    #[test]
    fn mixed_types_never_share_regions() {
        let mut events = vec![alloc(32), Event::Free { alloc: 0 }];
        events.push(Event::Alloc(AllocEvent {
            elems: 16,
            elem_bytes: 2,
            ty: TypeId::of::<u16>(),
        }));
        events.push(Event::Free { alloc: 1 });
        let plan = MemPlan::from_trace(&Trace { events });
        assert_eq!(plan.regions.len(), 2);
        assert_ne!(plan.regions[0].ty, plan.regions[1].ty);
    }

    #[test]
    fn record_replay_roundtrip_serves_from_arena() {
        begin_record();
        let (a, _) = crate::take_cleared::<f32>(100);
        crate::recycle(a);
        let (b, _) = crate::take_cleared::<f32>(80);
        crate::recycle(b);
        let trace = end_record();
        assert_eq!(trace.alloc_count(), 2);

        let plan = Rc::new(MemPlan::from_trace(&trace));
        assert_eq!(plan.regions.len(), 1);
        let arena = Rc::new(RefCell::new(Arena::for_plan(Rc::clone(&plan))));
        let slab0 = {
            let ar = arena.borrow();
            ar.allocated_bytes()
        };
        assert_eq!(slab0, 400);

        for _ in 0..3 {
            begin_replay(&arena);
            let (a, fresh_a) = crate::take_cleared::<f32>(100);
            assert!(!fresh_a);
            let pa = a.as_ptr() as usize;
            crate::recycle(a);
            let (b, fresh_b) = crate::take_cleared::<f32>(80);
            assert!(!fresh_b);
            assert_eq!(b.as_ptr() as usize, pa, "aliased region must reuse storage");
            crate::recycle(b);
            let out = end_replay();
            assert!(out.complete, "{out:?}");
            assert_eq!(out.served, 2);
            assert_eq!(out.escaped, 0);
        }
    }

    #[test]
    fn replay_divergence_falls_back_to_pool() {
        begin_record();
        let (a, _) = crate::take_cleared::<f32>(100);
        crate::recycle(a);
        let trace = end_record();
        let plan = Rc::new(MemPlan::from_trace(&trace));
        let arena = Rc::new(RefCell::new(Arena::for_plan(plan)));

        begin_replay(&arena);
        // Different length than recorded: diverges, still served (pool).
        let (a, _) = crate::take_cleared::<f32>(999);
        assert!(a.capacity() >= 999);
        crate::recycle(a);
        let out = end_replay();
        assert!(out.diverged);
        assert!(!out.complete);
    }

    #[test]
    fn escaping_buffers_come_from_the_pool_not_the_arena() {
        begin_record();
        let (a, _) = crate::take_cleared::<f32>(50);
        // never recycled inside the window
        let trace = end_record();
        crate::recycle(a);
        let plan = Rc::new(MemPlan::from_trace(&trace));
        let arena = Rc::new(RefCell::new(Arena::for_plan(Rc::clone(&plan))));
        assert_eq!(arena.borrow().allocated_bytes(), 0);

        begin_replay(&arena);
        let (b, _) = crate::take_cleared::<f32>(50);
        let out_before = b.as_ptr() as usize;
        // keep it live past the window
        let outcome = end_replay();
        assert!(outcome.complete);
        assert_eq!(outcome.escaped, 1);
        assert_eq!(outcome.served, 0);
        // Recycling after the window is a plain pool recycle.
        crate::recycle(b);
        let (c, _) = crate::take_cleared::<f32>(50);
        let _ = (out_before, c);
    }
}
