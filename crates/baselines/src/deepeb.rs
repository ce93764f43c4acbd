//! DeePEB baseline (Wang et al., ICCAD 2022 [15]).
//!
//! DeePEB extends FNO with a CNN-based local branch: the spectral branch
//! captures low-frequency global behaviour while parallel convolutions
//! recover the high-frequency local detail the mode truncation discards.

use rand::Rng;

use peb_nn::{Conv3d, Linear, Parameterized};
use peb_tensor::{Tensor, Var};

use sdm_peb::PebPredictor;

use crate::fno::{pointwise, SpectralConv3d};

/// DeePEB hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeePebConfig {
    /// Input volume `(D, H, W)`.
    pub input_dims: (usize, usize, usize),
    /// Lifted channel width.
    pub width: usize,
    /// Retained spectral modes per axis.
    pub modes: (usize, usize, usize),
    /// Number of combined global+local blocks.
    pub layers: usize,
}

impl DeePebConfig {
    /// Experiment-scale defaults.
    pub fn for_grid(input_dims: (usize, usize, usize)) -> Self {
        DeePebConfig {
            input_dims,
            width: 8,
            modes: (3, 6, 6),
            layers: 2,
        }
    }
}

struct Block {
    spectral: SpectralConv3d,
    local: Conv3d,
    bypass: Linear,
}

/// FNO global branch + CNN local branch.
pub struct DeePeb {
    lift: Linear,
    blocks: Vec<Block>,
    project: Linear,
    config: DeePebConfig,
}

impl DeePeb {
    /// Builds the network.
    pub fn new(config: DeePebConfig, rng: &mut impl Rng) -> Self {
        let w = config.width;
        let blocks = (0..config.layers)
            .map(|_| Block {
                spectral: SpectralConv3d::new(w, w, config.input_dims, config.modes, rng),
                local: Conv3d::new(w, w, 3, rng),
                bypass: Linear::new(w, w, rng),
            })
            .collect();
        DeePeb {
            lift: Linear::new(1, w, rng),
            blocks,
            project: Linear::new(w, 1, rng),
            config,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &DeePebConfig {
        &self.config
    }
}

impl Parameterized for DeePeb {
    fn parameters(&self) -> Vec<Var> {
        let mut p = self.lift.parameters();
        for b in &self.blocks {
            p.extend(b.spectral.parameters());
            p.extend(b.local.parameters());
            p.extend(b.bypass.parameters());
        }
        p.extend(self.project.parameters());
        p
    }
}

impl PebPredictor for DeePeb {
    fn name(&self) -> &'static str {
        "DeePEB"
    }

    fn forward_train(&self, acid: &Tensor) -> Var {
        let (d, h, w) = self.config.input_dims;
        assert_eq!(acid.shape(), [d, h, w], "DeePEB input dims mismatch");
        let x = Var::constant(acid.reshape(&[1, d, h, w]).expect("lift reshape"));
        let mut f = pointwise(&x, &self.lift);
        for block in &self.blocks {
            let global = block.spectral.forward(&f);
            let local = block.local.forward(&f);
            let skip = pointwise(&f, &block.bypass);
            f = global.add(&local).add(&skip).gelu();
        }
        pointwise(&f, &self.project).reshape(&[d, h, w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> DeePebConfig {
        DeePebConfig {
            input_dims: (2, 8, 8),
            width: 4,
            modes: (1, 2, 2),
            layers: 1,
        }
    }

    #[test]
    fn forward_shape_and_gradients() {
        let mut rng = StdRng::seed_from_u64(150);
        let model = DeePeb::new(tiny(), &mut rng);
        let acid = Tensor::rand_uniform(&[2, 8, 8], 0.0, 0.9, &mut rng);
        let y = model.predict(&acid);
        assert_eq!(y.shape(), &[2, 8, 8]);
        model.forward_train(&acid).square().sum().backward();
        assert!(model.parameters().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn local_branch_adds_high_frequency_capacity() {
        // DeePEB with the same width/modes has strictly more parameters
        // than a pure FNO block set (the local conv + bypass).
        use crate::fno::{Fno, FnoConfig};
        let mut rng = StdRng::seed_from_u64(151);
        let deepeb = DeePeb::new(tiny(), &mut rng);
        let fno = Fno::new(
            FnoConfig {
                input_dims: (2, 8, 8),
                width: 4,
                modes: (1, 2, 2),
                layers: 1,
            },
            &mut rng,
        );
        assert!(deepeb.parameter_count() > fno.parameter_count());
    }

    #[test]
    fn training_reduces_loss() {
        use peb_nn::{Adam, Optimizer};
        let mut rng = StdRng::seed_from_u64(152);
        let model = DeePeb::new(tiny(), &mut rng);
        let acid = Tensor::rand_uniform(&[2, 8, 8], 0.0, 0.9, &mut rng);
        let target = acid.map(|a| 1.2 * a + 0.1);
        let params = model.parameters();
        let mut opt = Adam::new(5e-3);
        let loss = |m: &DeePeb| {
            m.forward_train(&acid)
                .sub(&Var::constant(target.clone()))
                .square()
                .mean()
                .value()
                .item()
        };
        let before = loss(&model);
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
        assert!(loss(&model) < before * 0.8);
    }
}
