//! Two-layer MLP (feed-forward network) block.

use rand::Rng;

use peb_tensor::Var;

use crate::{Linear, Parameterized};

/// `Linear → GELU → Linear` feed-forward block on `[L, C]`.
#[derive(Debug, Clone)]
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
}

impl Mlp {
    /// Creates a block with the given hidden width.
    pub fn new(dim: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        Mlp {
            fc1: Linear::new(dim, hidden, rng),
            fc2: Linear::new(hidden, dim, rng),
        }
    }

    /// Applies the block to `[L, C]`, producing `[L, C]`.
    pub fn forward(&self, x: &Var) -> Var {
        self.fc2.forward(&self.fc1.forward(x).gelu())
    }
}

impl Parameterized for Mlp {
    fn parameters(&self) -> Vec<Var> {
        let mut p = self.fc1.parameters();
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
    fn shapes() {
        let mut rng = StdRng::seed_from_u64(26);
        let mlp = Mlp::new(4, 16, &mut rng);
        let x = Var::constant(Tensor::ones(&[3, 4]));
        assert_eq!(mlp.forward(&x).shape(), vec![3, 4]);
        assert_eq!(mlp.parameters().len(), 4);
    }

    #[test]
    fn nonlinearity_present() {
        // f(2x) != 2 f(x) for a nonlinear block (bias-free check at two
        // scales would still catch pure linearity with bias).
        let mut rng = StdRng::seed_from_u64(27);
        let mlp = Mlp::new(3, 8, &mut rng);
        let x = Tensor::randn(&[2, 3], &mut rng);
        let y1 = mlp.forward(&Var::constant(x.clone())).value_clone();
        let y2 = mlp.forward(&Var::constant(x.mul_scalar(2.0))).value_clone();
        assert!(y2.max_abs_diff(&y1.mul_scalar(2.0)) > 1e-4);
    }
}
