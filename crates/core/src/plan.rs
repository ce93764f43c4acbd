//! Model-aware execution plans: recorded inference and ILT-gradient
//! windows over the generic `peb-plan` record/replay driver.
//!
//! [`InferPlan`] wraps one `predict` at a fixed (shape, dispatch) into
//! a replayable plan — the unit the `peb-serve` plan cache stores per
//! `(D, H, W)` key. [`GradPlan`] wraps an ILT
//! surrogate-gradient window (forward from a mask parameter, backward,
//! gradient read-out, gradient zeroing) so inverse-lithography inner
//! loops replay both sweeps of the tape through a planned arena.
//!
//! Backward replay is **inference/ILT-only** by design: a training step
//! mutates parameters between iterations through the optimiser, which
//! changes nothing about the checkout stream but makes plan reuse
//! pointless to reason about against checkpointing/rollback (`peb-guard`
//! restores can land mid-plan). ILT holds parameters frozen and mutates
//! only the input mask, which is exactly the fixed-structure contract.

use peb_tensor::Tensor;

use crate::solver::PebPredictor;

/// A replayable inference plan for one model at one clip geometry.
///
/// `!Send` by construction (the arena serves the recording thread);
/// build and replay on the thread that owns inference.
pub struct InferPlan {
    plan: peb_plan::Plan,
    dims: (usize, usize, usize),
    digest: u64,
}

impl InferPlan {
    /// Records `model.predict(clip)` into a plan. Runs the prediction
    /// twice (un-recorded warmup + recorded run) and returns the plan
    /// together with the recorded prediction.
    ///
    /// # Panics
    ///
    /// Panics if `clip` does not match the model's configured input
    /// dimensions (same contract as `predict`).
    pub fn record<M: PebPredictor + ?Sized>(model: &M, clip: &Tensor) -> (InferPlan, Tensor) {
        let s = clip.shape();
        let dims = (s[0], s[1], s[2]);
        let (plan, out) = peb_plan::Plan::record(|| model.predict(clip));
        let digest = out.bit_digest();
        (InferPlan { plan, dims, digest }, out)
    }

    /// Replays `model.predict(clip)` through the plan's arena. Bitwise
    /// identical to `model.predict(clip)` — including for a *different*
    /// model of the same architecture (values are always computed
    /// eagerly; the plan only redirects intermediate storage).
    pub fn predict<M: PebPredictor + ?Sized>(
        &self,
        model: &M,
        clip: &Tensor,
    ) -> (Tensor, peb_plan::ReplayOutcome) {
        self.plan.replay(|| model.predict(clip))
    }

    /// Clip geometry this plan was recorded at.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Bit digest of the recorded prediction (staleness checks: a
    /// hot-swapped model replays fine but produces a different digest).
    pub fn recorded_digest(&self) -> u64 {
        self.digest
    }

    /// The underlying generic plan (op list, arena stats).
    pub fn plan(&self) -> &peb_plan::Plan {
        &self.plan
    }
}

impl std::fmt::Debug for InferPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferPlan")
            .field("dims", &self.dims)
            .field("plan", &self.plan)
            .finish()
    }
}

/// A replayable surrogate-gradient window for ILT inner loops.
///
/// The closure must perform one complete gradient iteration and leave
/// the autograd state exactly as it found it — the canonical shape is:
///
/// 1. forward from the mask via [`crate::SdmPeb::forward_var`] (the
///    mask is a `Var::parameter` so it can receive gradients);
/// 2. reduce to a scalar objective and `backward()`;
/// 3. clone out the mask gradient;
/// 4. **zero every gradient** (mask and model parameters) before
///    returning, so each iteration sees the same `None → Some`
///    accumulation pattern and therefore the same checkout stream.
///
/// The closure returns whatever the loop needs (typically the objective
/// value and the mask gradient).
pub struct GradPlan {
    plan: peb_plan::Plan,
}

impl GradPlan {
    /// Records one gradient iteration (run twice: warmup + recorded).
    pub fn record<R>(f: impl FnMut() -> R) -> (GradPlan, R) {
        let (plan, out) = peb_plan::Plan::record(f);
        (GradPlan { plan }, out)
    }

    /// Replays one gradient iteration through the planned arena.
    pub fn step<R>(&self, f: impl FnOnce() -> R) -> (R, peb_plan::ReplayOutcome) {
        self.plan.replay(f)
    }

    /// The underlying generic plan (op list, arena stats).
    pub fn plan(&self) -> &peb_plan::Plan {
        &self.plan
    }
}

impl std::fmt::Debug for GradPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GradPlan")
            .field("plan", &self.plan)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SdmPeb, SdmPebConfig};
    use peb_tensor::Var;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs `f` with plan replay on, whatever `PEB_PLAN` says.
    fn with_replay(f: impl FnOnce()) {
        let scoped = peb_par::ExecCtx {
            plan: true,
            ..peb_par::ctx::current()
        };
        peb_par::ctx::with(scoped, f)
    }

    #[test]
    fn infer_plan_replay_matches_eager_bitwise() {
        with_replay(infer_plan_case)
    }

    fn infer_plan_case() {
        let mut rng = StdRng::seed_from_u64(7);
        let model = SdmPeb::new(SdmPebConfig::tiny((2, 16, 16)), &mut rng);
        let clip = Tensor::rand_uniform(&[2, 16, 16], 0.0, 0.9, &mut rng);
        let eager = model.predict(&clip);
        let (plan, recorded) = InferPlan::record(&model, &clip);
        assert_eq!(recorded.bit_digest(), eager.bit_digest());
        assert_eq!(plan.recorded_digest(), eager.bit_digest());
        for _ in 0..2 {
            let (out, outcome) = plan.predict(&model, &clip);
            assert!(outcome.complete, "{outcome:?}");
            assert!(outcome.served > 0, "arena must serve intermediates");
            assert_eq!(out.bit_digest(), eager.bit_digest());
        }
    }

    #[test]
    fn grad_plan_replays_backward_identically() {
        with_replay(grad_plan_case)
    }

    fn grad_plan_case() {
        let mut rng = StdRng::seed_from_u64(8);
        let model = SdmPeb::new(SdmPebConfig::tiny((2, 16, 16)), &mut rng);
        let mask = Var::parameter(Tensor::rand_uniform(&[2, 16, 16], 0.1, 0.8, &mut rng));
        let params = {
            use peb_nn::Parameterized;
            model.parameters()
        };
        let mut iter = || {
            let y = model.forward_var(&mask);
            let obj = y.mul(&y).mean();
            obj.backward();
            let g = mask.grad().expect("mask grad");
            mask.zero_grad();
            for p in &params {
                p.zero_grad();
            }
            let loss = obj.value().item();
            (loss, g)
        };
        let (plan, (l0, g0)) = GradPlan::record(&mut iter);
        let (r, outcome) = plan.step(iter);
        assert!(outcome.complete, "{outcome:?}");
        assert_eq!(r.0.to_bits(), l0.to_bits());
        assert_eq!(r.1.bit_digest(), g0.bit_digest());
    }
}
