//! The op list of one recorded computation.
//!
//! Nothing in this workspace replays a plan: record-and-replay never
//! beat eager execution (`plan.replay_over_eager` read 0.88–1.07). This
//! crate is the surface the benchmark compiles against: [`Plan::record`]
//! runs a closure once inside a `peb_obs::optrace` window and keeps the
//! flat op list (GEMM / conv / scan / ADI / stencil / fused-chain / FFT
//! line stages with resolved shapes), which the benchmark parses for its
//! largest GEMM shape. [`Plan::arena_bytes`] and [`Plan::planned_allocs`]
//! read 0 and [`enabled`] reads `false`: there is no arena and nothing
//! replays.

pub use peb_obs::optrace::OpDesc;

/// Always `false`: nothing replays a plan. Kept because the benchmark
/// prints it in its environment fingerprint.
#[inline]
pub fn enabled() -> bool {
    false
}

/// What a plan-driven run did. Every run is eager, so no checkout is
/// ever served from a plan: `served` is always 0.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// Checkouts served from a plan arena (always 0: there is none).
    pub served: u32,
}

/// The op list one computation dispatched, in order.
#[derive(Debug)]
pub struct Plan {
    ops: Vec<OpDesc>,
}

impl Plan {
    /// Runs `f` once inside an op-trace window and returns its result
    /// together with the ops it dispatched.
    pub fn record<R>(f: impl FnOnce() -> R) -> (Plan, R) {
        peb_obs::optrace::begin();
        let out = f();
        let ops = peb_obs::optrace::finish();
        (Plan { ops }, out)
    }

    /// The flat op list captured while recording, in dispatch order.
    pub fn ops(&self) -> &[OpDesc] {
        &self.ops
    }

    /// Always 0: there is no arena.
    pub fn arena_bytes(&self) -> usize {
        0
    }

    /// Always 0: no checkout is planned.
    pub fn planned_allocs(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_capture_lands_in_the_plan() {
        let (plan, out) = Plan::record(|| {
            peb_obs::optrace::note("gemm", || "m=8 k=8 n=8".to_string());
            7
        });
        assert_eq!(out, 7);
        assert_eq!(plan.ops().len(), 1);
        assert_eq!(plan.ops()[0].kind, "gemm");
        assert_eq!(plan.ops()[0].detail, "m=8 k=8 n=8");
        assert_eq!((plan.arena_bytes(), plan.planned_allocs()), (0, 0));
    }
}
