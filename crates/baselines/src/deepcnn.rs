//! DeepCNN baseline (Watanabe et al. [41] + residual connection).

use rand::Rng;

use peb_nn::{Conv2d, Parameterized};
use peb_tensor::{Tensor, Var};

use sdm_peb::PebPredictor;

/// DeepCNN hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeepCnnConfig {
    /// Input volume `(D, H, W)`; depth becomes the channel axis.
    pub input_dims: (usize, usize, usize),
    /// Hidden channel width.
    pub width: usize,
    /// Number of residual blocks.
    pub blocks: usize,
}

impl DeepCnnConfig {
    /// Experiment-scale defaults.
    pub fn for_grid(input_dims: (usize, usize, usize)) -> Self {
        DeepCnnConfig {
            input_dims,
            width: 24,
            blocks: 3,
        }
    }
}

/// Residual 2-D CNN over the clip, depth levels as channels.
pub struct DeepCnn {
    stem: Conv2d,
    blocks: Vec<(Conv2d, Conv2d)>,
    head: Conv2d,
    config: DeepCnnConfig,
}

impl DeepCnn {
    /// Builds the network.
    pub fn new(config: DeepCnnConfig, rng: &mut impl Rng) -> Self {
        let d = config.input_dims.0;
        let w = config.width;
        let blocks = (0..config.blocks)
            .map(|_| {
                (
                    Conv2d::new(w, w, 3, 1, 1, rng),
                    Conv2d::new(w, w, 3, 1, 1, rng),
                )
            })
            .collect();
        DeepCnn {
            stem: Conv2d::new(d, w, 3, 1, 1, rng),
            blocks,
            head: Conv2d::new(w, d, 3, 1, 1, rng),
            config,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &DeepCnnConfig {
        &self.config
    }
}

impl Parameterized for DeepCnn {
    fn parameters(&self) -> Vec<Var> {
        let mut p = self.stem.parameters();
        for (a, b) in &self.blocks {
            p.extend(a.parameters());
            p.extend(b.parameters());
        }
        p.extend(self.head.parameters());
        p
    }
}

impl PebPredictor for DeepCnn {
    fn name(&self) -> &'static str {
        "DeepCNN"
    }

    fn forward_train(&self, acid: &Tensor) -> Var {
        let (d, h, w) = self.config.input_dims;
        assert_eq!(acid.shape(), [d, h, w], "DeepCNN input dims mismatch");
        let x = Var::constant(acid.clone()); // [D, H, W] = channels-first 2-D
        let mut f = self.stem.forward(&x).relu();
        for (a, b) in &self.blocks {
            let inner = b.forward(&a.forward(&f).relu());
            f = f.add(&inner).relu(); // residual connection
        }
        self.head.forward(&f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(120);
        let model = DeepCnn::new(
            DeepCnnConfig {
                input_dims: (4, 16, 16),
                width: 8,
                blocks: 2,
            },
            &mut rng,
        );
        let acid = Tensor::rand_uniform(&[4, 16, 16], 0.0, 0.9, &mut rng);
        let y = model.predict(&acid);
        assert_eq!(y.shape(), &[4, 16, 16]);
    }

    #[test]
    fn gradients_flow_and_training_reduces_loss() {
        use peb_nn::{Adam, Optimizer};
        let mut rng = StdRng::seed_from_u64(121);
        let model = DeepCnn::new(
            DeepCnnConfig {
                input_dims: (2, 8, 8),
                width: 6,
                blocks: 1,
            },
            &mut rng,
        );
        let acid = Tensor::rand_uniform(&[2, 8, 8], 0.0, 0.9, &mut rng);
        let target = acid.map(|a| a * 1.7 - 0.3);
        let params = model.parameters();
        let mut opt = Adam::new(1e-2);
        let loss_at = |m: &DeepCnn| {
            let d = m.forward_train(&acid).sub(&Var::constant(target.clone()));
            d.square().mean().value().item()
        };
        let before = loss_at(&model);
        for _ in 0..10 {
            opt.zero_grad(&params);
            model
                .forward_train(&acid)
                .sub(&Var::constant(target.clone()))
                .square()
                .mean()
                .backward();
            opt.step(&params);
        }
        let after = loss_at(&model);
        assert!(after < before * 0.7, "{before} -> {after}");
    }
}
