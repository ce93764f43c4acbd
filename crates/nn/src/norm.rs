//! Layer normalisation.

use peb_tensor::{Tensor, Var};

use crate::Parameterized;

/// Layer normalisation over the trailing feature axis of `[L, C]`
/// sequences, with learned scale and shift.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Var,
    beta: Var,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer with unit scale and zero shift.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Var::parameter(Tensor::ones(&[dim])),
            beta: Var::parameter(Tensor::zeros(&[dim])),
            dim,
            eps: 1e-5,
        }
    }

    /// Normalises `[L, C]` per token over the feature axis: one fused
    /// pass per token ([`Var::layer_norm`]).
    ///
    /// # Panics
    ///
    /// Panics if the trailing axis of `x` is not the configured dimension.
    pub fn forward(&self, x: &Var) -> Var {
        let shape = x.shape();
        assert_eq!(
            *shape.last().expect("rank >= 1"),
            self.dim,
            "LayerNorm dimension mismatch"
        );
        x.layer_norm(&self.gamma, &self.beta, self.eps)
    }
}

impl Parameterized for LayerNorm {
    fn parameters(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_tensor::check_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_is_standardised() {
        let mut rng = StdRng::seed_from_u64(15);
        let ln = LayerNorm::new(8);
        let x = Var::constant(
            Tensor::randn(&[4, 8], &mut rng)
                .mul_scalar(3.0)
                .add_scalar(5.0),
        );
        let y = ln.forward(&x).value_clone();
        for row in 0..4 {
            let r = y.slice_axis(0, row, row + 1).unwrap();
            assert!(r.mean().abs() < 1e-4, "row mean {}", r.mean());
            let var = r.map(|v| v * v).mean() - r.mean() * r.mean();
            assert!((var - 1.0).abs() < 1e-2, "row var {var}");
        }
    }

    #[test]
    fn gamma_beta_affect_output() {
        let ln = LayerNorm::new(4);
        ln.gamma.set_value(Tensor::full(&[4], 2.0));
        ln.beta.set_value(Tensor::full(&[4], 1.0));
        let x = Var::constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap());
        let y = ln.forward(&x).value_clone();
        assert!((y.mean() - 1.0).abs() < 1e-4); // beta shifts the mean
    }

    #[test]
    fn gradcheck_through_norm() {
        let mut rng = StdRng::seed_from_u64(16);
        let ln = LayerNorm::new(5);
        let x0 = Tensor::randn(&[3, 5], &mut rng);
        let w = Tensor::randn(&[3, 5], &mut rng);
        let r = check_gradients(
            &Var::parameter(x0),
            |v| ln.forward(v).weighted_sum(&w),
            1e-2,
        );
        assert!(r.ok(3e-2), "{r:?}");
    }

    #[test]
    fn works_on_higher_rank() {
        let ln = LayerNorm::new(4);
        let x = Var::constant(Tensor::ones(&[2, 3, 4]));
        assert_eq!(ln.forward(&x).shape(), vec![2, 3, 4]);
    }
}
