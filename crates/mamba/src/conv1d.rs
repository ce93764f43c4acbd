//! Causal depthwise 1-D convolution over token sequences.
//!
//! Mamba applies a short causal convolution along the scan direction
//! before the SSM; causality matters because each scan direction defines
//! its own notion of "past": the convolution runs along a [`Walk`],
//! reading the canonical rows where they are and writing step order.

use rand::Rng;

use peb_nn::{kaiming_uniform, Parameterized};
use peb_simd::scan::Walk;
use peb_tensor::{Tensor, Var};

/// Depthwise causal convolution on `[L, C]` sequences along a [`Walk`]:
/// output row `t` (step `t`) sees input rows `walk.row(t−k+1 ..= t)` of
/// its own channel.
#[derive(Debug, Clone)]
pub struct CausalDwConv1d {
    weight: Var, // [C, k]
    bias: Var,   // [C]
    channels: usize,
    kernel: usize,
}

impl CausalDwConv1d {
    /// Creates a layer.
    pub fn new(channels: usize, kernel: usize, rng: &mut impl Rng) -> Self {
        CausalDwConv1d {
            weight: Var::parameter(kaiming_uniform(&[channels, kernel], kernel, rng)),
            bias: Var::parameter(Tensor::zeros(&[channels])),
            channels,
            kernel,
        }
    }

    /// Applies the convolution along `walk`, preserving the `[L, C]`
    /// shape: output row `t` is step `t`, and the input gradient lands in
    /// the rows the walk read — bit for bit the plain layer
    /// ([`Walk::Forward`]) on the rows gathered into walk order.
    ///
    /// # Panics
    ///
    /// Panics if the channel count mismatches or `walk` does not span `L`.
    pub fn forward(&self, x: &Var, walk: Walk) -> Var {
        let s = x.shape();
        assert_eq!(s.len(), 2, "CausalDwConv1d expects [L, C]");
        assert_eq!(s[1], self.channels, "channel mismatch");
        let (l, c) = (s[0], s[1]);
        assert!(walk.spans(l), "{walk:?} does not span {l} rows");
        let k = self.kernel;
        let out = {
            let _span = peb_obs::span("scan.conv1d_fwd");
            causal_conv1d(&x.value(), &self.weight.value(), &self.bias.value(), walk)
        };
        let xc = x.clone();
        let wc = self.weight.clone();
        Var::from_op(
            out,
            vec![x.clone(), self.weight.clone(), self.bias.clone()],
            move |g| {
                let _span = peb_obs::span("scan.conv1d_bwd");
                let xv = xc.value();
                let wv = wc.value();
                let mut dx = Tensor::zeros(&[l, c]);
                let mut dw = Tensor::zeros(&[c, k]);
                let mut db = Tensor::zeros(&[c]);
                {
                    let gd = g.data();
                    let dxd = dx.data_mut();
                    let dwd = dw.data_mut();
                    let dbd = db.data_mut();
                    for t in 0..l {
                        for ci in 0..c {
                            let gv = gd[t * c + ci];
                            if gv == 0.0 {
                                continue;
                            }
                            dbd[ci] += gv;
                            for ki in 0..k {
                                let off = k - 1 - ki;
                                if t >= off {
                                    let src = walk.row(t - off) * c + ci;
                                    dxd[src] += gv * wv.data()[ci * k + ki];
                                    dwd[ci * k + ki] += gv * xv.data()[src];
                                }
                            }
                        }
                    }
                }
                vec![Some(dx), Some(dw), Some(db)]
            },
        )
    }
}

/// Tokens per parallel block of the forward (a fixed split, so the
/// output is the same at any thread count).
const CONV1D_BLOCK_TOKENS: usize = 256;

/// Forward of [`CausalDwConv1d`] along `walk`: `x [L, C]`,
/// `weight [C, k]`, `bias [C]`.
///
/// The taps are transposed once to `[k, C]`; each output row starts from
/// the bias and adds `w·x` tap by tap in ascending tap order, unfused,
/// across the channels — per element the same additions in the same
/// order as a per-channel loop, so the result is exact-class (identical
/// at every dispatch level and thread count). Token blocks fan out over
/// the pool.
fn causal_conv1d(x: &Tensor, weight: &Tensor, bias: &Tensor, walk: Walk) -> Tensor {
    let (l, c) = (x.shape()[0], x.shape()[1]);
    let k = weight.shape()[1];
    let taps = weight.permute(&[1, 0]).expect("conv1d taps [k, C]");
    let (xd, td, bd) = (x.data(), taps.data(), bias.data());
    let mut out = Tensor::for_overwrite(&[l, c]);
    let block = CONV1D_BLOCK_TOKENS * c.max(1);
    peb_par::parallel_chunks_mut_cost(out.data_mut(), block, 2 * k as u64, |at, rows| {
        for (r, row) in rows.chunks_mut(c).enumerate() {
            let t = at / c + r;
            row.copy_from_slice(bd);
            // Tap ki reads step t − (k − 1 − ki); the first k − 1 − t
            // taps fall before the sequence start.
            for ki in k.saturating_sub(t + 1)..k {
                let src = &xd[walk.row(t + ki + 1 - k) * c..][..c];
                for ((o, &w), &v) in row.iter_mut().zip(&td[ki * c..]).zip(src) {
                    *o += w * v;
                }
            }
        }
    });
    out
}

impl Parameterized for CausalDwConv1d {
    fn parameters(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_tensor::check_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Oracle: the per-channel triple loop, whose per-element order of
    /// additions the vectorised forward must reproduce.
    fn conv1d_naive(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
        let (l, c) = (x.shape()[0], x.shape()[1]);
        let k = w.shape()[1];
        let mut out = Tensor::zeros(&[l, c]);
        let od = out.data_mut();
        for t in 0..l {
            for ci in 0..c {
                let mut acc = b.data()[ci];
                for ki in 0..k {
                    let off = k - 1 - ki;
                    if t >= off {
                        acc += w.data()[ci * k + ki] * x.data()[(t - off) * c + ci];
                    }
                }
                od[t * c + ci] = acc;
            }
        }
        out
    }

    #[test]
    fn forward_is_the_naive_loop_bitwise_at_any_level_and_thread_count() {
        use peb_par::{ctx, ExecCtx};
        let mut rng = StdRng::seed_from_u64(44);
        let levels = ctx::levels();
        // L < k, L = 1, and a sequence long enough for several token
        // blocks across the pool; C around the 8-lane width.
        for (l, k) in [(2, 4), (1, 4), (1, 1), (9, 4), (700, 4), (600, 3)] {
            for c in [1, 7, 8, 9, 32] {
                let conv = CausalDwConv1d::new(c, k, &mut rng);
                conv.bias.set_value(Tensor::randn(&[c], &mut rng));
                let x = Tensor::randn(&[l, c], &mut rng);
                let want = conv1d_naive(&x, &conv.weight.value(), &conv.bias.value());
                for level in &levels {
                    for threads in [1, 2, 3, 7] {
                        let scoped = ExecCtx {
                            level: *level,
                            threads,
                            ..ctx::current()
                        };
                        let got = ctx::with(scoped, || {
                            conv.forward(&Var::constant(x.clone()), Walk::Forward)
                                .value_clone()
                        });
                        let same = got
                            .data()
                            .iter()
                            .zip(want.data())
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "L {l} k {k} C {c} {level:?} {threads} threads");
                    }
                }
            }
        }
    }

    #[test]
    fn identity_kernel_is_noop() {
        let mut rng = StdRng::seed_from_u64(40);
        let conv = CausalDwConv1d::new(2, 3, &mut rng);
        // Weight [.., .., 1] selects the current token.
        conv.weight
            .set_value(Tensor::from_vec(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0], &[2, 3]).unwrap());
        let x = Tensor::randn(&[5, 2], &mut rng);
        let y = conv
            .forward(&Var::constant(x.clone()), Walk::Forward)
            .value_clone();
        assert!(y.approx_eq(&x, 1e-6));
    }

    #[test]
    fn is_causal() {
        let mut rng = StdRng::seed_from_u64(41);
        let conv = CausalDwConv1d::new(1, 4, &mut rng);
        let mut a = Tensor::randn(&[6, 1], &mut rng);
        let ya = conv
            .forward(&Var::constant(a.clone()), Walk::Forward)
            .value_clone();
        // Perturb the last token: outputs before it must not change.
        a.data_mut()[5] += 10.0;
        let yb = conv.forward(&Var::constant(a), Walk::Forward).value_clone();
        for t in 0..5 {
            assert_eq!(ya.get(&[t, 0]), yb.get(&[t, 0]), "leak at t={t}");
        }
        assert_ne!(ya.get(&[5, 0]), yb.get(&[5, 0]));
    }

    #[test]
    fn gradcheck() {
        let mut rng = StdRng::seed_from_u64(42);
        let conv = CausalDwConv1d::new(2, 3, &mut rng);
        let x0 = Tensor::randn(&[4, 2], &mut rng);
        let r = check_gradients(
            &Var::parameter(x0),
            |v| conv.forward(v, Walk::Forward).square().sum(),
            1e-2,
        );
        assert!(r.ok(3e-2), "{r:?}");
    }

    #[test]
    fn weight_gradient_flows() {
        let mut rng = StdRng::seed_from_u64(43);
        let conv = CausalDwConv1d::new(2, 3, &mut rng);
        let x = Var::constant(Tensor::randn(&[4, 2], &mut rng));
        conv.forward(&x, Walk::Forward).square().sum().backward();
        assert!(conv.weight.grad().is_some());
        assert!(conv.bias.grad().is_some());
    }
}
