//! One input-selective SSM block (per scan direction).

use rand::Rng;

use peb_nn::{Linear, Parameterized};
use peb_tensor::{Tensor, Var};

use crate::scan::selective_scan;

/// HiPPO-inspired initialisation of `A_log`: `A[c, n] = −(n + 1)` so each
/// state dimension starts with a distinct decay rate (the diagonal
/// approximation of the HiPPO matrix used by S4/Mamba).
pub fn hippo_a_log_init(channels: usize, state: usize) -> Tensor {
    Tensor::from_fn(&[channels, state], |i| {
        let n = i % state;
        ((n + 1) as f32).ln()
    })
}

/// A single-direction selective state-space block (Eqs. 6–11).
///
/// Holds the input-dependent projections `B, C = Linear_N(x)`,
/// `Δ = softplus(Broadcast(Linear_1(x)) + bias)` and the learned state
/// matrix `A = −exp(A_log)` plus skip weight `D`.
#[derive(Debug)]
pub struct SsmBlock {
    b_proj: Linear,
    c_proj: Linear,
    dt_proj: Linear,
    dt_bias: Var, // [C]
    a_log: Var,   // [C, N]
    d_skip: Var,  // [C]
    channels: usize,
    state: usize,
}

impl SsmBlock {
    /// Creates a block for sequences of `channels` features with an
    /// `state`-dimensional hidden state.
    pub fn new(channels: usize, state: usize, rng: &mut impl Rng) -> Self {
        SsmBlock {
            b_proj: Linear::new(channels, state, true, rng),
            c_proj: Linear::new(channels, state, true, rng),
            dt_proj: Linear::new(channels, 1, true, rng),
            // softplus(-0.5) ≈ 0.47: moderate default step size.
            dt_bias: Var::parameter(Tensor::full(&[channels], -0.5)),
            a_log: Var::parameter(hippo_a_log_init(channels, state)),
            d_skip: Var::parameter(Tensor::ones(&[channels])),
            channels,
            state,
        }
    }

    /// Hidden-state dimension `N`.
    pub fn state_dim(&self) -> usize {
        self.state
    }

    /// Applies the selective scan to an `[L, C]` sequence.
    ///
    /// # Panics
    ///
    /// Panics on a channel mismatch.
    pub fn forward(&self, x: &Var) -> Var {
        let s = x.shape();
        assert_eq!(s[1], self.channels, "SsmBlock channel mismatch");
        // Eq. 10: input-dependent projections.
        let b = self.b_proj.forward(x); // [L, N]
        let c = self.c_proj.forward(x); // [L, N]
                                        // Eq. 11: Δ = softplus(Broadcast_C(Linear_1(x)) + bias).
        let delta = self
            .dt_proj
            .forward(x) // [L, 1]
            .add(&self.dt_bias) // broadcast to [L, C]
            .softplus();
        // Eq. 7 discretisation happens inside the fused scan.
        let a = self.a_log.exp().mul_scalar(-1.0); // [C, N], negative
        selective_scan(x, &delta, &a, &b, &c, &self.d_skip)
    }
}

impl Parameterized for SsmBlock {
    fn parameters(&self) -> Vec<Var> {
        let mut p = Vec::new();
        p.extend(self.b_proj.parameters());
        p.extend(self.c_proj.parameters());
        p.extend(self.dt_proj.parameters());
        p.push(self.dt_bias.clone());
        p.push(self.a_log.clone());
        p.push(self.d_skip.clone());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hippo_init_distinct_decays() {
        let a = hippo_a_log_init(2, 4);
        // Row pattern ln(1), ln(2), ln(3), ln(4).
        assert_eq!(a.get(&[0, 0]), 0.0);
        assert!((a.get(&[1, 3]) - 4f32.ln()).abs() < 1e-6);
        // Resulting A = -exp(a_log) is strictly negative and distinct.
        let decays: Vec<f32> = (0..4).map(|n| -a.get(&[0, n]).exp()).collect();
        for wpair in decays.windows(2) {
            assert!(wpair[1] < wpair[0]);
        }
    }

    #[test]
    fn forward_shape_and_finite() {
        let mut rng = StdRng::seed_from_u64(50);
        let ssm = SsmBlock::new(4, 8, &mut rng);
        let x = Var::constant(Tensor::randn(&[32, 4], &mut rng));
        let y = ssm.forward(&x);
        assert_eq!(y.shape(), vec![32, 4]);
        assert!(y.value().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn end_to_end_gradients_flow_to_all_parameters() {
        let mut rng = StdRng::seed_from_u64(51);
        let ssm = SsmBlock::new(3, 4, &mut rng);
        let x = Var::constant(Tensor::randn(&[6, 3], &mut rng));
        ssm.forward(&x).square().sum().backward();
        for (i, p) in ssm.parameters().iter().enumerate() {
            let g = p.grad().unwrap_or_else(|| panic!("param {i} missing grad"));
            assert!(
                g.data().iter().any(|v| *v != 0.0),
                "param {i} gradient identically zero"
            );
        }
    }

    #[test]
    fn whole_block_gradcheck() {
        let mut rng = StdRng::seed_from_u64(52);
        let ssm = SsmBlock::new(2, 3, &mut rng);
        let x0 = Tensor::randn(&[5, 2], &mut rng);
        let r = peb_tensor::check_gradients(
            &Var::parameter(x0),
            |v| ssm.forward(v).square().sum(),
            1e-2,
        );
        assert!(r.ok(3e-2), "{r:?}");
    }

    #[test]
    fn selectivity_input_dependent_dynamics() {
        // Scaling the input changes Δ, so the output is NOT homogeneous of
        // degree 1 — unlike a time-invariant linear SSM.
        let mut rng = StdRng::seed_from_u64(53);
        let ssm = SsmBlock::new(2, 3, &mut rng);
        let x = Tensor::randn(&[8, 2], &mut rng);
        let y1 = ssm.forward(&Var::constant(x.clone())).value_clone();
        let y2 = ssm.forward(&Var::constant(x.mul_scalar(2.0))).value_clone();
        assert!(y2.max_abs_diff(&y1.mul_scalar(2.0)) > 1e-4);
    }
}

/// A linear time-invariant (LTI) S4-style block: the same recurrence with
/// *constant* learned `B`, `C`, `Δ` instead of input-dependent projections
/// (Eqs. 6–9 without the Eq. 10–11 selectivity).
///
/// This is the "structured state space model" ancestor of Mamba and the
/// natural ablation for the question *does selectivity matter for PEB?* —
/// exercised by the comparison test below.
#[derive(Debug)]
pub struct LtiSsmBlock {
    b_const: Var, // [N]
    c_const: Var, // [N]
    dt_log: Var,  // [C] (Δ = softplus)
    a_log: Var,   // [C, N]
    d_skip: Var,  // [C]
    channels: usize,
    state: usize,
}

impl LtiSsmBlock {
    /// Creates an LTI block with HiPPO-style decays.
    pub fn new(channels: usize, state: usize, rng: &mut impl Rng) -> Self {
        LtiSsmBlock {
            b_const: Var::parameter(crate::lecun_vec(state, rng)),
            c_const: Var::parameter(crate::lecun_vec(state, rng)),
            dt_log: Var::parameter(Tensor::full(&[channels], -0.5)),
            a_log: Var::parameter(hippo_a_log_init(channels, state)),
            d_skip: Var::parameter(Tensor::ones(&[channels])),
            channels,
            state,
        }
    }

    /// Applies the LTI recurrence to an `[L, C]` sequence.
    ///
    /// # Panics
    ///
    /// Panics on a channel mismatch.
    pub fn forward(&self, x: &Var) -> Var {
        let s = x.shape();
        assert_eq!(s[1], self.channels, "LtiSsmBlock channel mismatch");
        let l = s[0];
        // Broadcast the constant parameters to the per-token shapes the
        // scan kernel expects.
        let ones_l = Var::constant(Tensor::ones(&[l, 1]));
        let b = ones_l.mul(&self.b_const.reshape(&[1, self.state]));
        let c = ones_l.mul(&self.c_const.reshape(&[1, self.state]));
        let delta = Var::constant(Tensor::ones(&[l, self.channels]))
            .mul(&self.dt_log.reshape(&[1, self.channels]))
            .softplus();
        let a = self.a_log.exp().mul_scalar(-1.0);
        crate::selective_scan(x, &delta, &a, &b, &c, &self.d_skip)
    }
}

impl Parameterized for LtiSsmBlock {
    fn parameters(&self) -> Vec<Var> {
        vec![
            self.b_const.clone(),
            self.c_const.clone(),
            self.dt_log.clone(),
            self.a_log.clone(),
            self.d_skip.clone(),
        ]
    }
}

#[cfg(test)]
mod lti_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lti_block_is_linear_in_its_input() {
        let mut rng = StdRng::seed_from_u64(150);
        let block = LtiSsmBlock::new(2, 4, &mut rng);
        let x1 = Tensor::randn(&[6, 2], &mut rng);
        let x2 = Tensor::randn(&[6, 2], &mut rng);
        let f = |t: &Tensor| block.forward(&Var::constant(t.clone())).value_clone();
        let lhs = f(&x1.add_t(&x2).unwrap());
        let rhs = f(&x1).add_t(&f(&x2)).unwrap();
        // Linear up to the D·x skip (also linear) — exact.
        assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn selective_block_is_not_linear() {
        let mut rng = StdRng::seed_from_u64(151);
        let block = SsmBlock::new(2, 4, &mut rng);
        let x1 = Tensor::randn(&[6, 2], &mut rng);
        let x2 = Tensor::randn(&[6, 2], &mut rng);
        let f = |t: &Tensor| block.forward(&Var::constant(t.clone())).value_clone();
        let lhs = f(&x1.add_t(&x2).unwrap());
        let rhs = f(&x1).add_t(&f(&x2)).unwrap();
        assert!(lhs.max_abs_diff(&rhs) > 1e-4, "selectivity lost");
    }

    #[test]
    fn lti_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(152);
        let block = LtiSsmBlock::new(2, 3, &mut rng);
        let x = Var::constant(Tensor::randn(&[5, 2], &mut rng));
        block.forward(&x).square().sum().backward();
        assert!(block.parameters().iter().all(|p| p.grad().is_some()));
    }
}
