//! A model-aware execution plan: one recorded `predict` over the generic
//! `peb-plan` record/replay layer.
//!
//! [`InferPlan`] wraps one `predict` at a fixed (shape, dispatch) into a
//! replayable plan. Nothing in the product replays it — serving runs
//! `predict_batch` eagerly, because replay never beat eager — it is the
//! probe the benchmark's `plan.*` metrics record and time.

use peb_tensor::Tensor;

use crate::solver::PebPredictor;

/// A replayable inference plan for one model at one clip geometry.
///
/// `!Send` by construction (the arena serves the recording thread);
/// build and replay on the thread that owns inference.
pub struct InferPlan {
    plan: peb_plan::Plan,
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
        let (plan, out) = peb_plan::Plan::record(|| model.predict(clip));
        (InferPlan { plan }, out)
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

    /// The underlying generic plan (op list, arena stats).
    pub fn plan(&self) -> &peb_plan::Plan {
        &self.plan
    }
}

impl std::fmt::Debug for InferPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferPlan")
            .field("plan", &self.plan)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SdmPeb, SdmPebConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn infer_plan_replay_matches_eager_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let model = SdmPeb::new(SdmPebConfig::tiny((2, 16, 16)), &mut rng);
        let clip = Tensor::rand_uniform(&[2, 16, 16], 0.0, 0.9, &mut rng);
        let eager = model.predict(&clip);
        let (plan, recorded) = InferPlan::record(&model, &clip);
        assert_eq!(recorded.bit_digest(), eager.bit_digest());
        for _ in 0..2 {
            let (out, outcome) = plan.predict(&model, &clip);
            assert!(outcome.complete, "{outcome:?}");
            assert!(outcome.served > 0, "arena must serve intermediates");
            assert_eq!(out.bit_digest(), eager.bit_digest());
        }
    }
}
