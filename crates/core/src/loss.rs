//! The customised PEB optimisation objectives (paper §III-D).
//!
//! `L = L_MaxSE + α·L_PEB-FL + β·L_Div` (Eq. 22) with
//!
//! * `L_MaxSE` — the single maximum squared error (Eq. 16, from DeePEB);
//! * `L_PEB-FL` — the PEB focal loss `Σ |e|^γ e²` (Eq. 17), which
//!   up-weights large errors to counter the extreme value imbalance of
//!   the inhibitor distribution (Fig. 6);
//! * `L_Div` — the differential depth divergence (Eqs. 18–21): a KL
//!   divergence between softmax-normalised layer-to-layer difference maps
//!   of prediction and ground truth, aligning inter-layer variation.

use peb_tensor::{Tensor, Var};

/// Combined PEB training loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PebLoss {
    /// Focal-term weight α (paper: 1.0).
    pub alpha: f32,
    /// Divergence-term weight β (paper: 0.1).
    pub beta: f32,
    /// Focusing parameter γ (paper: 1).
    pub gamma: f32,
    /// Softmax temperature τ of the difference maps (paper: 0.1).
    pub tau: f32,
    /// Include the focal term (Table III "w/o. Focal Loss" sets false).
    pub use_focal: bool,
    /// Include the divergence term (Table III "w/o. Regularization").
    pub use_divergence: bool,
}

impl PebLoss {
    /// The paper's configuration: α = 1.0, β = 0.1, γ = 1, τ = 0.1.
    pub fn paper() -> Self {
        PebLoss {
            alpha: 1.0,
            beta: 0.1,
            gamma: 1.0,
            tau: 0.1,
            use_focal: true,
            use_divergence: true,
        }
    }

    /// Table III "w/o. Focal Loss" ablation.
    pub fn without_focal(mut self) -> Self {
        self.use_focal = false;
        self
    }

    /// Table III "w/o. Regularization" ablation.
    pub fn without_divergence(mut self) -> Self {
        self.use_divergence = false;
        self
    }

    /// Eq. 16: maximum squared error over the volume.
    pub fn max_se(&self, pred: &Var, target: &Tensor) -> Var {
        pred.sub(&Var::constant(target.clone())).square().max_all()
    }

    /// Eq. 17: `Σ |e|^γ · e²` = `Σ |e|^(γ+2)` over all voxels. The sum
    /// dwarfs the single-voxel MaxSE term, which is the point: it gives a
    /// dense gradient everywhere while MaxSE polices the worst voxel, and
    /// Adam's per-parameter scaling absorbs the magnitude.
    pub fn focal(&self, pred: &Var, target: &Tensor) -> Var {
        pred.sub(&Var::constant(target.clone()))
            .abs_powf(self.gamma + 2.0)
            .sum()
    }

    /// Eqs. 18–21: KL divergence between softmax-normalised forward depth
    /// difference maps.
    ///
    /// # Panics
    ///
    /// Panics unless `pred` and `target` are `[D, H, W]` with `D ≥ 2`.
    pub fn depth_divergence(&self, pred: &Var, target: &Tensor) -> Var {
        let shape = pred.shape();
        assert_eq!(shape.len(), 3, "depth divergence expects [D, H, W]");
        assert!(shape[0] >= 2, "need at least two depth layers");
        assert_eq!(
            shape.as_slice(),
            target.shape(),
            "pred/target shape mismatch"
        );
        let (d, h, w) = (shape[0], shape[1], shape[2]);
        // ΔŶ_d = Ŷ_{d+1} − Ŷ_d, flattened to [D−1, H·W].
        let upper = pred.slice_axis(0, 1, d);
        let lower = pred.slice_axis(0, 0, d - 1);
        let diff_pred = upper.sub(&lower).reshape(&[d - 1, h * w]);
        let p = diff_pred.mul_scalar(1.0 / self.tau).softmax(1);
        // Ground-truth difference map probabilities (constant).
        let q = {
            let tv = target;
            let mut q = Tensor::zeros(&[d - 1, h * w]);
            for dz in 0..d - 1 {
                // softmax over the plane with temperature τ.
                let mut mx = f32::NEG_INFINITY;
                let mut vals = vec![0f32; h * w];
                for (i, v) in vals.iter_mut().enumerate() {
                    let (y, x) = (i / w, i % w);
                    *v = (tv.get(&[dz + 1, y, x]) - tv.get(&[dz, y, x])) / self.tau;
                    mx = mx.max(*v);
                }
                let mut z = 0f64;
                for v in &mut vals {
                    *v = (*v - mx).exp();
                    z += *v as f64;
                }
                let zi = 1.0 / z as f32;
                for (i, v) in vals.iter().enumerate() {
                    q.set(&[dz, i], v * zi);
                }
            }
            q
        };
        // KL(p ‖ q) = Σ p (ln p − ln q).
        let ln_q = Var::constant(q.map(|v| (v + 1e-12).ln()));
        p.mul(&p.ln_eps(1e-12).sub(&ln_q)).sum()
    }

    /// Eq. 22: the full combined loss as a differentiable node.
    pub fn combined(&self, pred: &Var, target: &Tensor) -> Var {
        let _span = peb_obs::span("train.loss");
        let mut total = self.max_se(pred, target);
        if self.use_focal {
            total = total.add(&self.focal(pred, target).mul_scalar(self.alpha));
        }
        if self.use_divergence {
            total = total.add(&self.depth_divergence(pred, target).mul_scalar(self.beta));
        }
        total
    }
}

impl Default for PebLoss {
    fn default() -> Self {
        PebLoss::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fields(seed: u64) -> (Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let target = Tensor::randn(&[3, 4, 4], &mut rng);
        let pred = &target + &Tensor::randn(&[3, 4, 4], &mut rng).mul_scalar(0.2);
        (pred, target)
    }

    /// `(L_MaxSE, L_PEB-FL, L_Div, Eq. 22 total)` of `loss` at `pred`.
    fn terms(loss: &PebLoss, pred: &Tensor, target: &Tensor) -> [f32; 4] {
        let p = Var::constant(pred.clone());
        [
            loss.max_se(&p, target),
            loss.focal(&p, target),
            loss.depth_divergence(&p, target),
            loss.combined(&p, target),
        ]
        .map(|v| v.value().item())
    }

    #[test]
    fn perfect_prediction_gives_zero_loss() {
        let (_, target) = fields(70);
        let [max_se, focal, divergence, total] = terms(&PebLoss::paper(), &target, &target);
        assert!(max_se.abs() < 1e-6);
        assert!(focal.abs() < 1e-6);
        assert!(divergence.abs() < 1e-4, "KL(p‖p) = 0, got {divergence}");
        assert!(total.abs() < 1e-4);
    }

    #[test]
    fn max_se_picks_worst_voxel() {
        let target = Tensor::zeros(&[2, 2, 2]);
        let mut pred = Tensor::zeros(&[2, 2, 2]);
        pred.set(&[1, 0, 1], 0.5);
        pred.set(&[0, 1, 1], -0.2);
        let loss = PebLoss::paper();
        let v = loss.max_se(&Var::constant(pred), &target).value().item();
        assert!((v - 0.25).abs() < 1e-6);
    }

    #[test]
    fn focal_upweights_large_errors_relative_to_mse() {
        // Two error patterns with the same MSE: concentrated vs spread.
        let target = Tensor::zeros(&[1, 1, 4]);
        let concentrated = Tensor::from_vec(vec![2.0, 0.0, 0.0, 0.0], &[1, 1, 4]).unwrap();
        let spread = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[1, 1, 4]).unwrap();
        let loss = PebLoss::paper();
        let fc = loss
            .focal(&Var::constant(concentrated), &target)
            .value()
            .item();
        let fs = loss.focal(&Var::constant(spread), &target).value().item();
        // Same MSE (=1) but |2|³/4 = 2 > 1 = |1|³: focal prefers spread.
        assert!(fc > fs, "concentrated {fc} vs spread {fs}");
    }

    #[test]
    fn divergence_is_nonnegative_and_zero_iff_matching_diffs() {
        let (pred, target) = fields(71);
        let loss = PebLoss::paper();
        let v = loss
            .depth_divergence(&Var::constant(pred), &target)
            .value()
            .item();
        assert!(v > 0.0);
        // Adding a per-layer constant leaves difference softmax unchanged
        // only if constant across the plane — shifting every voxel of
        // every layer by the same amount keeps Δ maps identical.
        let shifted = target.add_scalar(0.7);
        let v2 = loss
            .depth_divergence(&Var::constant(shifted), &target)
            .value()
            .item();
        assert!(
            v2.abs() < 1e-4,
            "uniform shift should not change Δ maps: {v2}"
        );
    }

    #[test]
    fn combined_respects_ablation_flags() {
        let (pred, target) = fields(72);
        let full = PebLoss::paper();
        let no_focal = PebLoss::paper().without_focal();
        let no_div = PebLoss::paper().without_divergence();
        let [max_se, focal, divergence, total] = terms(&full, &pred, &target);
        let [.., total_no_focal] = terms(&no_focal, &pred, &target);
        let [.., total_no_div] = terms(&no_div, &pred, &target);
        assert!((total - (max_se + focal + 0.1 * divergence)).abs() < 1e-5);
        assert!((total_no_focal - (max_se + 0.1 * divergence)).abs() < 1e-5);
        assert!((total_no_div - (max_se + focal)).abs() < 1e-5);
    }

    #[test]
    fn combined_is_differentiable() {
        let (pred, target) = fields(73);
        let p = Var::parameter(pred);
        PebLoss::paper().combined(&p, &target).backward();
        let g = p.grad().unwrap();
        assert!(g.data().iter().any(|v| *v != 0.0));
        assert!(g.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn combined_gradcheck() {
        let mut rng = StdRng::seed_from_u64(74);
        let target = Tensor::randn(&[2, 3, 3], &mut rng);
        let pred0 = &target + &Tensor::randn(&[2, 3, 3], &mut rng).mul_scalar(0.3);
        let loss = PebLoss::paper();
        let r = peb_tensor::check_gradients(
            &Var::parameter(pred0),
            |v| loss.combined(v, &target),
            1e-3,
        );
        assert!(r.ok(5e-2), "{r:?}");
    }
}
