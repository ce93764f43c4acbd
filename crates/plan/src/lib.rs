//! Record-and-replay execution plans for fixed-structure computations.
//!
//! `peb-plan` is the driver over the two lower-level mechanisms this
//! workspace already has:
//!
//! * `peb_pool::arena` — records the pool-checkout stream of one run,
//!   liveness-analyses it into an aliased arena ([`MemPlan`]), and
//!   serves replays from that arena with zero pool traffic and zero
//!   heap allocation;
//! * `peb_obs::optrace` — captures the flat op list (GEMM /
//!   conv-im2col / scan / ADI / stencil / fused-chain / FFT-line
//!   stages with resolved shapes and tile sizes) that the recorded run
//!   actually dispatched.
//!
//! [`Plan::record`] runs a closure **twice**: once un-recorded to warm
//! every cache the computation consults (FFT plan caches, pool
//! buckets), then once under a
//! recording window. The second run's checkout stream becomes the
//! memory plan; its op stream becomes the plan's op list.
//! [`Plan::replay`] re-executes the same closure with the arena
//! installed — the computation runs exactly the same kernel code as
//! eager execution, so results are **bitwise identical by
//! construction**; only the provenance of intermediate buffers changes.
//!
//! # Determinism prerequisites
//!
//! A plan is valid for a closure whose checkout stream is a pure
//! function of its inputs and the execution context: fixed input shape,
//! fixed dispatch level, fixed thread count. All
//! SDM-PEB inference paths satisfy this (the workspace's
//! bitwise-determinism contract). If the
//! stream ever diverges — a different shape, a level change — the
//! replay falls back to the ordinary pool mid-run and completes with
//! correct eager semantics; the returned [`ReplayOutcome`] says so.
//!
//! # Status
//!
//! Replay never beat eager execution (`plan.replay_over_eager` read
//! 0.88–1.07), so nothing in the product replays a plan: serving runs
//! `predict_batch` eagerly. The crate remains as the measurement probe
//! the benchmark's `plan.*` metrics record and replay through.
//!
//! # Threading
//!
//! A [`Plan`] is deliberately `!Send`: the arena it owns serves
//! checkouts on the thread that recorded them (pool checkouts are
//! thread-local, and worker threads inside `peb-par` regions keep
//! using their own warm pools). Build and replay plans on the thread
//! that owns the computation.

use std::cell::RefCell;
use std::rc::Rc;

pub use peb_obs::optrace::OpDesc;
pub use peb_pool::arena::{
    AllocEvent, Event, MemPlan, Placement, RegionSpec, ReplayOutcome, Trace,
};

use peb_pool::arena::{self, Arena};

/// Always `true`: [`Plan::replay`] has no eager mode to switch to. Kept
/// because the benchmark's environment fingerprint prints it.
#[inline]
pub fn enabled() -> bool {
    true
}

/// A recorded execution plan: the op list of one computation plus the
/// pre-sized, aliased arena its intermediates replay into.
pub struct Plan {
    mem: Rc<MemPlan>,
    arena: Rc<RefCell<Arena>>,
    ops: Vec<OpDesc>,
}

impl Plan {
    /// Records `f` into a plan. `f` runs **twice** — an un-recorded
    /// warmup (filling FFT plan caches and pool buckets) and the recorded
    /// run whose result is returned — so it must be a pure computation:
    /// same checkout stream every invocation under one execution context.
    pub fn record<R>(mut f: impl FnMut() -> R) -> (Plan, R) {
        let _warm = f();
        peb_obs::optrace::begin();
        arena::begin_record();
        let out = f();
        let trace = arena::end_record();
        let ops = peb_obs::optrace::finish();
        let mem = Rc::new(MemPlan::from_trace(&trace));
        let arena = Rc::new(RefCell::new(Arena::for_plan(Rc::clone(&mem))));
        (Plan { mem, arena, ops }, out)
    }

    /// Re-executes `f` with the plan's arena installed. Bitwise
    /// identical to eager execution (same kernels run; only buffer
    /// provenance differs). Returns the closure's result and what the
    /// replay did.
    pub fn replay<R>(&self, f: impl FnOnce() -> R) -> (R, ReplayOutcome) {
        arena::begin_replay(&self.arena);
        let out = f();
        let outcome = arena::end_replay();
        if outcome.complete {
            peb_obs::count(peb_obs::Counter::PlanReplays, 1);
        }
        (out, outcome)
    }

    /// The flat op list captured while recording, in dispatch order.
    pub fn ops(&self) -> &[OpDesc] {
        &self.ops
    }

    /// Arena footprint in bytes (what replays actually touch).
    pub fn arena_bytes(&self) -> usize {
        self.arena.borrow().allocated_bytes()
    }

    /// Bytes the planned intermediates would occupy without aliasing.
    pub fn logical_bytes(&self) -> usize {
        self.mem.logical_bytes()
    }

    /// Checkouts served from the arena per complete replay.
    pub fn planned_allocs(&self) -> usize {
        self.mem.region_allocs()
    }
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("ops", &self.ops.len())
            .field("regions", &self.mem.regions.len())
            .field("planned_allocs", &self.planned_allocs())
            .field("arena_bytes", &self.arena_bytes())
            .field("logical_bytes", &self.logical_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic "computation": a chain of pooled intermediates
    /// with one escaping output, shaped like a small forward pass.
    fn fake_forward(n: usize) -> Vec<f32> {
        let (mut a, _) = peb_pool::take_zeroed::<f32>(n);
        for (i, x) in a.iter_mut().enumerate() {
            *x = i as f32;
        }
        let (mut b, _) = peb_pool::take_zeroed::<f32>(n * 2);
        for (i, x) in b.iter_mut().enumerate() {
            *x = a[i % n] * 0.5;
        }
        peb_pool::recycle(a);
        let (mut out, _) = peb_pool::take_zeroed::<f32>(n);
        for (i, x) in out.iter_mut().enumerate() {
            *x = b[i] + b[i + n];
        }
        peb_pool::recycle(b);
        out
    }

    #[test]
    fn record_then_replay_is_bitwise_identical_and_allocation_free() {
        let (plan, eager) = Plan::record(|| fake_forward(64));
        assert!(plan.planned_allocs() >= 2, "{plan:?}");
        assert!(plan.arena_bytes() > 0);
        for _ in 0..3 {
            let (replayed, outcome) = plan.replay(|| fake_forward(64));
            assert!(outcome.complete && !outcome.diverged, "{outcome:?}");
            assert_eq!(outcome.served as usize, plan.planned_allocs());
            assert_eq!(replayed, eager, "replay must be bitwise identical");
            peb_pool::recycle(replayed);
        }
        peb_pool::recycle(eager);
    }

    #[test]
    fn divergent_replay_still_computes_correctly() {
        let (plan, _r) = Plan::record(|| fake_forward(64));
        // Different shape than recorded: diverges, result still right.
        let (replayed, outcome) = plan.replay(|| fake_forward(32));
        assert!(outcome.diverged && !outcome.complete, "{outcome:?}");
        let eager = fake_forward(32);
        assert_eq!(replayed, eager);
    }

    #[test]
    fn op_capture_lands_in_the_plan() {
        let (plan, _r) = Plan::record(|| {
            peb_obs::optrace::note("gemm", || "m=8 k=8 n=8".to_string());
            fake_forward(8)
        });
        assert_eq!(plan.ops().len(), 1);
        assert_eq!(plan.ops()[0].kind, "gemm");
        assert_eq!(plan.ops()[0].detail, "m=8 k=8 n=8");
    }
}
