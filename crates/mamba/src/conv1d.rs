//! Causal depthwise 1-D convolution over token sequences.
//!
//! Mamba applies a short causal convolution along the scan direction
//! before the SSM; causality matters because each scan direction defines
//! its own notion of "past".

use rand::Rng;

use peb_nn::{kaiming_uniform, Parameterized};
use peb_tensor::{Tensor, Var};

/// Depthwise causal convolution on `[L, C]` sequences: output token `t`
/// sees tokens `t−k+1 ..= t` of its own channel.
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

    /// Applies the convolution, preserving the `[L, C]` shape.
    ///
    /// # Panics
    ///
    /// Panics if the channel count mismatches.
    pub fn forward(&self, x: &Var) -> Var {
        let s = x.shape();
        assert_eq!(s.len(), 2, "CausalDwConv1d expects [L, C]");
        assert_eq!(s[1], self.channels, "channel mismatch");
        let (l, c) = (s[0], s[1]);
        let k = self.kernel;
        let out = {
            let _span = peb_obs::span("scan.conv1d_fwd");
            let xv = x.value();
            let wv = self.weight.value();
            let bv = self.bias.value();
            let mut out = Tensor::zeros(&[l, c]);
            let od = out.data_mut();
            for t in 0..l {
                for ci in 0..c {
                    let mut acc = bv.data()[ci];
                    for ki in 0..k {
                        // Kernel tap ki reads token t − (k − 1 − ki).
                        let off = k - 1 - ki;
                        if t >= off {
                            acc += wv.data()[ci * k + ki] * xv.data()[(t - off) * c + ci];
                        }
                    }
                    od[t * c + ci] = acc;
                }
            }
            out
        };
        let xc = x.clone();
        let wc = self.weight.clone();
        Var::from_op(
            out,
            vec![x.clone(), self.weight.clone(), self.bias.clone()],
            move |g| {
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
                                    dxd[(t - off) * c + ci] += gv * wv.data()[ci * k + ki];
                                    dwd[ci * k + ki] += gv * xv.data()[(t - off) * c + ci];
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

    #[test]
    fn identity_kernel_is_noop() {
        let mut rng = StdRng::seed_from_u64(40);
        let conv = CausalDwConv1d::new(2, 3, &mut rng);
        // Weight [.., .., 1] selects the current token.
        conv.weight
            .set_value(Tensor::from_vec(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0], &[2, 3]).unwrap());
        let x = Tensor::randn(&[5, 2], &mut rng);
        let y = conv.forward(&Var::constant(x.clone())).value_clone();
        assert!(y.approx_eq(&x, 1e-6));
    }

    #[test]
    fn is_causal() {
        let mut rng = StdRng::seed_from_u64(41);
        let conv = CausalDwConv1d::new(1, 4, &mut rng);
        let mut a = Tensor::randn(&[6, 1], &mut rng);
        let ya = conv.forward(&Var::constant(a.clone())).value_clone();
        // Perturb the last token: outputs before it must not change.
        a.data_mut()[5] += 10.0;
        let yb = conv.forward(&Var::constant(a)).value_clone();
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
            |v| conv.forward(v).square().sum(),
            1e-2,
        );
        assert!(r.ok(3e-2), "{r:?}");
    }

    #[test]
    fn weight_gradient_flows() {
        let mut rng = StdRng::seed_from_u64(43);
        let conv = CausalDwConv1d::new(2, 3, &mut rng);
        let x = Var::constant(Tensor::randn(&[4, 2], &mut rng));
        conv.forward(&x).square().sum().backward();
        assert!(conv.weight.grad().is_some());
        assert!(conv.bias.grad().is_some());
    }
}
