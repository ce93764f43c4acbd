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
//! correct eager semantics; [`Plan::diverged_replays`] exposes the
//! count so callers re-record.
//!
//! # `PEB_PLAN=off`
//!
//! Under an execution context with `plan: false` (`PEB_PLAN=off`, or a
//! `peb_par::ctx::with` scope) [`Plan::replay`] runs the closure eagerly
//! with no arena.
//!
//! # Threading
//!
//! A [`Plan`] is deliberately `!Send`: the arena it owns serves
//! checkouts on the thread that recorded them (pool checkouts are
//! thread-local, and worker threads inside `peb-par` regions keep
//! using their own warm pools). Build and replay plans on the thread
//! that owns the computation — the serve engine's model-owner thread,
//! or an ILT driver loop.

use std::cell::Cell;
use std::cell::RefCell;
use std::rc::Rc;

pub use peb_obs::optrace::OpDesc;
pub use peb_pool::arena::{
    AllocEvent, Event, MemPlan, Placement, RegionSpec, ReplayOutcome, Trace,
};

use peb_pool::arena::{self, Arena};

/// Whether the calling thread's execution context replays plans.
#[inline]
pub fn enabled() -> bool {
    peb_par::ctx::current().plan
}

/// A recorded execution plan: the op list of one computation plus the
/// pre-sized, aliased arena its intermediates replay into.
pub struct Plan {
    mem: Rc<MemPlan>,
    arena: Rc<RefCell<Arena>>,
    ops: Vec<OpDesc>,
    replays: Cell<u64>,
    diverged: Cell<u64>,
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
        (
            Plan {
                mem,
                arena,
                ops,
                replays: Cell::new(0),
                diverged: Cell::new(0),
            },
            out,
        )
    }

    /// Re-executes `f` with the plan's arena installed. Bitwise
    /// identical to eager execution (same kernels run; only buffer
    /// provenance differs). Under `PEB_PLAN=off` this is a plain eager
    /// call. Returns the closure's result and what the replay did.
    pub fn replay<R>(&self, f: impl FnOnce() -> R) -> (R, ReplayOutcome) {
        if !enabled() {
            let out = f();
            return (
                out,
                ReplayOutcome {
                    complete: false,
                    served: 0,
                    escaped: 0,
                    diverged: false,
                },
            );
        }
        arena::begin_replay(&self.arena);
        let out = f();
        let outcome = arena::end_replay();
        if outcome.complete {
            self.replays.set(self.replays.get() + 1);
            peb_obs::count(peb_obs::Counter::PlanReplays, 1);
        } else {
            self.diverged.set(self.diverged.get() + 1);
        }
        (out, outcome)
    }

    /// The flat op list captured while recording, in dispatch order.
    pub fn ops(&self) -> &[OpDesc] {
        &self.ops
    }

    /// The memory plan (placements + region table).
    pub fn mem(&self) -> &MemPlan {
        &self.mem
    }

    /// Arena footprint in bytes (what replays actually touch).
    pub fn arena_bytes(&self) -> usize {
        self.arena.borrow().allocated_bytes()
    }

    /// Bytes the planned intermediates would occupy without aliasing.
    pub fn logical_bytes(&self) -> usize {
        self.mem.logical_bytes()
    }

    /// Number of arena regions (aliased slabs).
    pub fn region_count(&self) -> usize {
        self.mem.regions.len()
    }

    /// Checkouts served from the arena per complete replay.
    pub fn planned_allocs(&self) -> usize {
        self.mem.region_allocs()
    }

    /// Completed (non-diverged) replays of this plan.
    pub fn completed_replays(&self) -> u64 {
        self.replays.get()
    }

    /// Replays that diverged from the recorded stream and fell back to
    /// the pool. Non-zero means the plan is stale for its call site.
    pub fn diverged_replays(&self) -> u64 {
        self.diverged.get()
    }

    /// Renders the op list as one line per op (`kind detail`), for
    /// debugging and the bench report.
    pub fn describe_ops(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(op.kind);
            if !op.detail.is_empty() {
                out.push(' ');
                out.push_str(&op.detail);
            }
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("ops", &self.ops.len())
            .field("regions", &self.region_count())
            .field("planned_allocs", &self.planned_allocs())
            .field("arena_bytes", &self.arena_bytes())
            .field("logical_bytes", &self.logical_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_par::ctx::{self, ExecCtx};

    /// Runs `f` with replay forced on or off (whatever `PEB_PLAN` says).
    fn with_plan<R>(plan: bool, f: impl FnOnce() -> R) -> R {
        ctx::with(
            ExecCtx {
                plan,
                ..ctx::current()
            },
            f,
        )
    }

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
        with_plan(true, || {
            let (plan, eager) = Plan::record(|| fake_forward(64));
            assert!(plan.planned_allocs() >= 2, "{plan:?}");
            assert!(plan.arena_bytes() > 0);
            for _ in 0..3 {
                let (replayed, outcome) = plan.replay(|| fake_forward(64));
                assert!(outcome.complete, "{outcome:?}");
                assert_eq!(outcome.served as usize, plan.planned_allocs());
                assert_eq!(replayed, eager, "replay must be bitwise identical");
                peb_pool::recycle(replayed);
            }
            assert_eq!(plan.completed_replays(), 3);
            assert_eq!(plan.diverged_replays(), 0);
            peb_pool::recycle(eager);
        });
    }

    #[test]
    fn divergent_replay_still_computes_correctly() {
        with_plan(true, || {
            let (plan, _r) = Plan::record(|| fake_forward(64));
            // Different shape than recorded: diverges, result still right.
            let (replayed, outcome) = plan.replay(|| fake_forward(32));
            assert!(outcome.diverged);
            let eager = fake_forward(32);
            assert_eq!(replayed, eager);
            assert_eq!(plan.diverged_replays(), 1);
        });
    }

    #[test]
    fn plan_off_runs_eagerly() {
        let (plan, eager) = Plan::record(|| fake_forward(16));
        let (replayed, outcome) = with_plan(false, || plan.replay(|| fake_forward(16)));
        assert!(!outcome.complete && outcome.served == 0);
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
        assert!(plan.describe_ops().contains("gemm m=8 k=8 n=8"));
    }
}
