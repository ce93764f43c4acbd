//! One input-selective SSM block (per scan direction).

use rand::Rng;

use peb_nn::{Linear, Parameterized};
use peb_simd::scan::Walk;
use peb_tensor::{Tensor, Var};

use crate::scan::walked_scan;

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
}

impl SsmBlock {
    /// Creates a block for sequences of `channels` features with an
    /// `state`-dimensional hidden state.
    pub fn new(channels: usize, state: usize, rng: &mut impl Rng) -> Self {
        SsmBlock {
            b_proj: Linear::new(channels, state, rng),
            c_proj: Linear::new(channels, state, rng),
            dt_proj: Linear::new(channels, 1, rng),
            // softplus(-0.5) ≈ 0.47: moderate default step size.
            dt_bias: Var::parameter(Tensor::full(&[channels], -0.5)),
            a_log: Var::parameter(hippo_a_log_init(channels, state)),
            d_skip: Var::parameter(Tensor::ones(&[channels])),
            channels,
        }
    }

    /// Applies the selective scan along `walk` to an `[L, C]` sequence in
    /// step order (row `t` is step `t`, as [`crate::CausalDwConv1d`]
    /// writes it) and stores step `t`'s output in row `walk.row(t)`: bit
    /// for bit the block at [`Walk::Forward`] scattered back along the
    /// walk. The projections and softplus act token by token on the
    /// step-ordered rows.
    ///
    /// # Panics
    ///
    /// Panics on a channel mismatch or a walk that does not span `L`.
    pub fn forward(&self, x: &Var, walk: Walk) -> Var {
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
        walked_scan(x, &delta, &a, &b, &c, &self.d_skip, walk)
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
        let y = ssm.forward(&x, Walk::Forward);
        assert_eq!(y.shape(), vec![32, 4]);
        assert!(y.value().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn end_to_end_gradients_flow_to_all_parameters() {
        let mut rng = StdRng::seed_from_u64(51);
        let ssm = SsmBlock::new(3, 4, &mut rng);
        let x = Var::constant(Tensor::randn(&[6, 3], &mut rng));
        ssm.forward(&x, Walk::Forward).square().sum().backward();
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
            |v| ssm.forward(v, Walk::Forward).square().sum(),
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
        let y1 = ssm
            .forward(&Var::constant(x.clone()), Walk::Forward)
            .value_clone();
        let y2 = ssm
            .forward(&Var::constant(x.mul_scalar(2.0)), Walk::Forward)
            .value_clone();
        assert!(y2.max_abs_diff(&y1.mul_scalar(2.0)) > 1e-4);
    }

    #[test]
    fn selective_block_is_not_linear() {
        let mut rng = StdRng::seed_from_u64(151);
        let block = SsmBlock::new(2, 4, &mut rng);
        let x1 = Tensor::randn(&[6, 2], &mut rng);
        let x2 = Tensor::randn(&[6, 2], &mut rng);
        let f = |t: &Tensor| {
            block
                .forward(&Var::constant(t.clone()), Walk::Forward)
                .value_clone()
        };
        let lhs = f(&x1.add_t(&x2).unwrap());
        let rhs = f(&x1).add_t(&f(&x2)).unwrap();
        assert!(lhs.max_abs_diff(&rhs) > 1e-4, "selectivity lost");
    }
}
