//! Fully connected layer.

use rand::Rng;

use peb_tensor::{Tensor, Var};

use crate::init::lecun_uniform;
use crate::Parameterized;

/// A dense affine map applied to the trailing feature axis.
///
/// Weights are stored `[in, out]`, so the forward pass is a plain
/// `x · W + b` on `[L, in]` sequences.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Var,
    bias: Var,
    out_features: usize,
}

impl Linear {
    /// Creates a layer with LeCun-uniform (variance-preserving) weights
    /// and a zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let weight = Var::parameter(lecun_uniform(
            &[in_features, out_features],
            in_features,
            rng,
        ));
        let bias = Var::parameter(Tensor::zeros(&[out_features]));
        Linear {
            weight,
            bias,
            out_features,
        }
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The `[in, out]` weight.
    pub fn weight(&self) -> &Var {
        &self.weight
    }

    /// The `[out]` bias.
    pub fn bias(&self) -> &Var {
        &self.bias
    }

    /// Applies the layer to a `[L, in]` sequence, producing `[L, out]`:
    /// one GEMM with the bias added in its write-back.
    ///
    /// # Panics
    ///
    /// Panics if the trailing axis of `x` is not `in_features`.
    pub fn forward(&self, x: &Var) -> Var {
        x.matmul_bias(&self.weight, &self.bias)
    }
}

impl Parameterized for Linear {
    fn parameters(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_bias() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Linear::new(4, 3, &mut rng);
        let x = Var::constant(Tensor::ones(&[5, 4]));
        let y = layer.forward(&x);
        assert_eq!(y.shape(), vec![5, 3]);
        assert_eq!(layer.parameters().len(), 2);
        assert_eq!(layer.parameter_count(), 4 * 3 + 3);
    }

    #[test]
    fn gradients_reach_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Linear::new(2, 2, &mut rng);
        let x = Var::constant(Tensor::ones(&[1, 2]));
        layer.forward(&x).sum().backward();
        for p in layer.parameters() {
            let g = p.grad().expect("gradient");
            assert!(g.data().iter().any(|v| *v != 0.0) || g.len() == 2);
        }
    }

    #[test]
    fn forward_bit_equals_matmul_then_add() {
        // The bias rides in the GEMM write-back: same bits as the
        // separate broadcast add it replaced, below and across KC.
        let mut rng = StdRng::seed_from_u64(5);
        for k in [3, 300] {
            let layer = Linear::new(k, 9, &mut rng);
            layer.bias().set_value(Tensor::randn(&[9], &mut rng));
            let x = Var::constant(Tensor::randn(&[33, k], &mut rng));
            let fused = layer.forward(&x).value_clone();
            let plain = x.matmul(layer.weight()).add(layer.bias());
            assert_eq!(fused.bit_digest(), plain.value().bit_digest(), "k={k}");
        }
    }

    #[test]
    fn zero_bias_at_init() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = Linear::new(3, 3, &mut rng);
        let x = Var::constant(Tensor::zeros(&[1, 3]));
        assert_eq!(layer.forward(&x).value().data(), &[0.0, 0.0, 0.0]);
    }
}
