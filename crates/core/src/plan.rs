//! The op list of one `predict`, over the `peb-plan` stub.
//!
//! [`InferPlan`] records which kernels one `predict` dispatches at a
//! fixed (shape, dispatch level). Nothing replays it — inference is
//! always eager — and its [`InferPlan::predict`] is plain `predict`; it
//! stays because the benchmark reads the op list (for its largest GEMM
//! shape) and times the `plan.*` probes through it.

use peb_tensor::Tensor;

use crate::solver::PebPredictor;

/// The recorded op list of one `predict` at one clip geometry.
#[derive(Debug)]
pub struct InferPlan {
    plan: peb_plan::Plan,
}

impl InferPlan {
    /// Runs `model.predict(clip)` once inside an op-trace window and
    /// returns the plan together with the prediction.
    ///
    /// # Panics
    ///
    /// Panics if `clip` does not match the model's configured input
    /// dimensions (same contract as `predict`).
    pub fn record<M: PebPredictor + ?Sized>(model: &M, clip: &Tensor) -> (InferPlan, Tensor) {
        let (plan, out) = peb_plan::Plan::record(|| model.predict(clip));
        (InferPlan { plan }, out)
    }

    /// `model.predict(clip)`, eagerly; the outcome serves nothing.
    pub fn predict<M: PebPredictor + ?Sized>(
        &self,
        model: &M,
        clip: &Tensor,
    ) -> (Tensor, peb_plan::ReplayOutcome) {
        (model.predict(clip), peb_plan::ReplayOutcome::default())
    }

    /// The underlying op list.
    pub fn plan(&self) -> &peb_plan::Plan {
        &self.plan
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
        // The benchmark sizes its GEMM probe from these entries.
        let gemm_shape = |detail: &str| {
            let field = |key: &str| {
                detail.split_whitespace().find_map(|t| {
                    t.strip_prefix(key)?
                        .strip_prefix('=')?
                        .parse::<usize>()
                        .ok()
                })
            };
            Some((field("m")?, field("k")?, field("n")?))
        };
        assert!(
            plan.plan()
                .ops()
                .iter()
                .any(|o| o.kind == "gemm" && gemm_shape(&o.detail).is_some()),
            "the op list must hold a gemm with an m=… k=… n=… detail"
        );
        let (out, outcome) = plan.predict(&model, &clip);
        assert_eq!(outcome.served, 0);
        assert_eq!(out.bit_digest(), eager.bit_digest());
    }
}
