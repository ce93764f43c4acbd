//! Multi-scale feature fusion (paper Fig. 2 centre).
//!
//! The paper's head projects each encoder stage's `[C_i, D, H_i, W_i]`
//! feature map to a common width `F` (`P_i`, `b_i`), nearest-upsamples
//! it to the first stage's `H₁ × W₁`, concatenates the `k` stages along
//! channels and mixes them with an MLP `F·k → hidden → F` (`fc1` with
//! GELU, then `fc2`).
//!
//! It runs here channel-major, at each stage's own resolution, using two
//! identities:
//!
//! - nearest upsampling commutes with any per-token linear map, so a
//!   stage can be mixed before it is upsampled;
//! - `fc1` over a concat is a sum of per-block products:
//!   `fc1(concat_i up(P_iᵀx_i + b_i)) = Σ_i up(M_iᵀx_i) + b'` with
//!   `M_i = P_i · W1_i` (`W1_i` the rows of `fc1` that read stage `i`)
//!   and the folded bias `b' = b1 + Σ_i W1_iᵀ b_i`, which is `fc1`
//!   applied to the concatenated stage biases.
//!
//! So each stage contributes one pointwise GEMM `[C_i, L_i] → [hidden,
//! L_i]`; contributions accumulate coarsest first, each upsampled by its
//! own stride into the next finer one (upsampling composes exactly), and
//! GELU and `fc2` run once at stage 1's resolution. Nothing is permuted
//! or concatenated, and only stage 1's resolution holds a `hidden`-wide
//! buffer. The function and the parameters are the paper's; only the
//! association of the sums differs from the concat form (tolerance-class,
//! see DESIGN §9).

use rand::Rng;

use peb_nn::{Linear, Parameterized};
use peb_tensor::Var;

/// Fuses per-stage feature volumes into one `[fusion_dim, D, H₁, W₁]`
/// volume.
pub struct FeatureFusion {
    projections: Vec<Linear>,
    fc1: Linear,
    fc2: Linear,
    fusion_dim: usize,
}

impl FeatureFusion {
    /// Creates the fusion head for stages with the given channel counts.
    ///
    /// # Panics
    ///
    /// Panics if `stage_channels` is empty.
    pub fn new(
        stage_channels: &[usize],
        fusion_dim: usize,
        mlp_hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            !stage_channels.is_empty(),
            "fusion needs at least one stage"
        );
        let projections = stage_channels
            .iter()
            .map(|&c| Linear::new(c, fusion_dim, rng))
            .collect::<Vec<_>>();
        let total = fusion_dim * stage_channels.len();
        let fc1 = Linear::new(total, mlp_hidden, rng);
        let fc2 = Linear::new(mlp_hidden, fusion_dim, rng);
        FeatureFusion {
            projections,
            fc1,
            fc2,
            fusion_dim,
        }
    }

    /// Output channel count.
    pub fn fusion_dim(&self) -> usize {
        self.fusion_dim
    }

    /// Fuses stage outputs (finest resolution first), each `[C_i, D, H_i,
    /// W_i]`, into `[fusion_dim, D, H₁, W₁]`: every deeper stage enters
    /// nearest-neighbour-upsampled to the first stage's `H₁ × W₁`.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs differs from the configured stages,
    /// depths differ, or a stage's resolution does not divide the
    /// previous stage's by one integer factor on both axes.
    pub fn forward(&self, stages: &[Var]) -> Var {
        let _span = peb_obs::span("model.fusion");
        let k = self.projections.len();
        assert_eq!(stages.len(), k, "fusion input count mismatch");
        let shapes: Vec<Vec<usize>> = stages.iter().map(Var::shape).collect();
        let factors: Vec<usize> = shapes
            .windows(2)
            .map(|p| {
                let (fine, coarse) = (&p[0], &p[1]);
                assert_eq!(coarse[1], fine[1], "depth must match across stages");
                let (h, w) = (coarse[2], coarse[3]);
                let (hf, wf) = (fine[2], fine[3]);
                assert!(
                    h > 0 && w > 0 && hf % h == 0 && wf % w == 0 && hf / h == wf / w,
                    "stage resolution {h}×{w} incompatible with {hf}×{wf}"
                );
                hf / h
            })
            .collect();
        let f = self.fusion_dim;
        // b' = fc1(concat_i b_i), added as stage 1's row bias.
        let biases: Vec<&Var> = self.projections.iter().map(Linear::bias).collect();
        let folded = self
            .fc1
            .forward(&Var::concat(&biases, 0).reshape(&[1, f * k]))
            .reshape(&[self.fc1.out_features()]);
        // Coarsest first: acc_i = M_iᵀ·x_i (+ b' at stage 1) + up(acc_{i+1}),
        // with M_i = P_i · W1_i ([C_i, hidden]) and W1_i stage i's rows
        // of fc1's [F·k, hidden] weight.
        let w1 = self.fc1.weight();
        let mut acc: Option<Var> = None;
        for (i, (x, proj)) in stages.iter().zip(&self.projections).enumerate().rev() {
            let mix = proj.weight().matmul(&w1.slice_axis(0, i * f, (i + 1) * f));
            let contrib = x.channel_linear(&mix, (i == 0).then_some(&folded));
            acc = Some(match acc {
                None => contrib,
                Some(coarse) => contrib.add_upsampled(&coarse, factors[i]),
            });
        }
        let hidden = acc.expect("at least one stage").gelu();
        hidden.channel_linear(self.fc2.weight(), Some(self.fc2.bias()))
    }
}

impl Parameterized for FeatureFusion {
    fn parameters(&self) -> Vec<Var> {
        let mut p = Vec::new();
        for proj in &self.projections {
            p.extend(proj.parameters());
        }
        p.extend(self.fc1.parameters());
        p.extend(self.fc2.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fuses_two_scales() {
        let mut rng = StdRng::seed_from_u64(85);
        let fusion = FeatureFusion::new(&[4, 8], 6, 16, &mut rng);
        let s1 = Var::constant(Tensor::randn(&[4, 2, 8, 8], &mut rng));
        let s2 = Var::constant(Tensor::randn(&[8, 2, 4, 4], &mut rng));
        let out = fusion.forward(&[s1, s2]);
        assert_eq!(out.shape(), vec![6, 2, 8, 8]);
    }

    #[test]
    fn single_stage_passthrough_shape() {
        let mut rng = StdRng::seed_from_u64(86);
        let fusion = FeatureFusion::new(&[4], 6, 8, &mut rng);
        let s1 = Var::constant(Tensor::randn(&[4, 3, 4, 4], &mut rng));
        assert_eq!(fusion.forward(&[s1]).shape(), vec![6, 3, 4, 4]);
    }

    #[test]
    fn gradients_flow() {
        let mut rng = StdRng::seed_from_u64(87);
        let fusion = FeatureFusion::new(&[2, 4], 4, 8, &mut rng);
        let s1 = Var::constant(Tensor::randn(&[2, 2, 4, 4], &mut rng));
        let s2 = Var::constant(Tensor::randn(&[4, 2, 2, 2], &mut rng));
        fusion.forward(&[s1, s2]).square().sum().backward();
        assert!(fusion.parameters().iter().all(|p| p.grad().is_some()));
    }

    /// Nearest-neighbour upsampling of the two trailing axes as index
    /// loops, with the block-summing adjoint: the oracle's upsample.
    fn upsample_oracle(v: &Var, factor: usize) -> Var {
        let shape = v.shape();
        let (h, w) = (shape[2], shape[3]);
        let planes = shape[0] * shape[1];
        let (oh, ow) = (h * factor, w * factor);
        let src = v.value_clone();
        let out = Tensor::from_fn(&[shape[0], shape[1], oh, ow], |o| {
            let (b, oy, ox) = (o / (oh * ow), o / ow % oh, o % ow);
            src.data()[(b * h + oy / factor) * w + ox / factor]
        });
        Var::from_op(out, vec![v.clone()], move |g| {
            let mut gx = Tensor::zeros(&shape);
            for b in 0..planes {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let at = (b * h + oy / factor) * w + ox / factor;
                        gx.data_mut()[at] += g.data()[(b * oh + oy) * ow + ox];
                    }
                }
            }
            vec![Some(gx)]
        })
    }

    /// The paper's head written out as it reads: project each stage
    /// token-major, upsample to stage 1, concatenate, run the MLP.
    fn concat_oracle(head: &FeatureFusion, stages: &[Var]) -> Var {
        let s0 = stages[0].shape();
        let (d, h1, w1) = (s0[1], s0[2], s0[3]);
        let f = head.fusion_dim;
        let mut volumes = Vec::new();
        for (x, proj) in stages.iter().zip(&head.projections) {
            let s = x.shape();
            let seq = x.reshape(&[s[0], d * s[2] * s[3]]).permute(&[1, 0]);
            let vol = proj
                .forward(&seq)
                .permute(&[1, 0])
                .reshape(&[f, d, s[2], s[3]]);
            volumes.push(upsample_oracle(&vol, h1 / s[2]));
        }
        let refs: Vec<&Var> = volumes.iter().collect();
        let cat = Var::concat(&refs, 0);
        let seq = cat
            .reshape(&[f * stages.len(), d * h1 * w1])
            .permute(&[1, 0]);
        let mixed = head.fc2.forward(&head.fc1.forward(&seq).gelu());
        mixed.permute(&[1, 0]).reshape(&[f, d, h1, w1])
    }

    fn max_abs(t: &Tensor) -> f32 {
        t.data().iter().fold(0f32, |m, v| m.max(v.abs()))
    }

    /// Forward within 1e-5 of the output range, and every parameter and
    /// input gradient within 1e-5 of its own largest magnitude, against
    /// the concat form with the same parameters.
    fn check_against_concat(channels: &[usize], dims: &[(usize, usize)], seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let head = FeatureFusion::new(channels, 5, 7, &mut rng);
        // Non-zero biases, so the bias fold is exercised.
        for p in head.parameters() {
            p.set_value(Tensor::randn(&p.shape(), &mut rng).mul_scalar(0.5));
        }
        let make = |rng: &mut StdRng| -> Vec<Var> {
            channels
                .iter()
                .zip(dims)
                .map(|(&c, &(h, w))| Var::parameter(Tensor::randn(&[c, 3, h, w], rng)))
                .collect()
        };
        let (a, b) = (make(&mut rng), make(&mut rng));
        for (x, y) in a.iter().zip(&b) {
            y.set_value(x.value_clone());
        }
        let ya = head.forward(&a);
        let weight = Tensor::randn(ya.value().shape(), &mut rng);
        let params = head.parameters();
        ya.weighted_sum(&weight).backward();
        let ga: Vec<Tensor> = params.iter().chain(&a).map(|p| p.grad().unwrap()).collect();
        params.iter().for_each(Var::zero_grad);
        let yb = concat_oracle(&head, &b);
        yb.weighted_sum(&weight).backward();
        let gb: Vec<Tensor> = params.iter().chain(&b).map(|p| p.grad().unwrap()).collect();

        let range = ya.value().max_value() - ya.value().min_value();
        let dy = ya.value().max_abs_diff(&yb.value());
        assert!(
            dy <= 1e-5 * range,
            "{channels:?}: forward Δ {dy} of range {range}"
        );
        for (i, (x, y)) in ga.iter().zip(&gb).enumerate() {
            let (d, scale) = (x.max_abs_diff(y), max_abs(y));
            assert!(
                d <= 1e-5 * scale,
                "{channels:?}: gradient {i} Δ {d} of {scale}"
            );
        }
    }

    #[test]
    fn matches_the_concat_form_with_two_stages() {
        check_against_concat(&[2, 4], &[(8, 8), (4, 4)], 81);
    }

    #[test]
    fn matches_the_concat_form_with_three_stages() {
        // Total factor 4 through two stride-2 steps, on non-square planes.
        check_against_concat(&[3, 5, 6], &[(8, 12), (4, 6), (2, 3)], 82);
    }

    #[test]
    fn matches_the_concat_form_with_one_stage() {
        check_against_concat(&[4], &[(5, 3)], 83);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn rejects_a_resolution_that_does_not_divide() {
        let mut rng = StdRng::seed_from_u64(89);
        let fusion = FeatureFusion::new(&[2, 4], 4, 8, &mut rng);
        let s1 = Var::constant(Tensor::ones(&[2, 1, 6, 6]));
        let s2 = Var::constant(Tensor::ones(&[4, 1, 4, 4]));
        fusion.forward(&[s1, s2]);
    }

    #[test]
    #[should_panic(expected = "input count")]
    fn rejects_wrong_input_count() {
        let mut rng = StdRng::seed_from_u64(88);
        let fusion = FeatureFusion::new(&[2, 4], 4, 8, &mut rng);
        let s1 = Var::constant(Tensor::ones(&[2, 1, 2, 2]));
        fusion.forward(&[s1]);
    }
}
