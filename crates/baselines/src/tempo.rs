//! TEMPO-resist baseline (modified from TEMPO [5]).
//!
//! TEMPO predicts 3-D aerial images one height at a time with a 2-D
//! conditional generator. The paper adapts it to PEB; we keep the defining
//! property — slice-wise 2-D prediction conditioned on the depth index —
//! using a strided encoder–decoder generator with shared weights across
//! depth levels. The original's adversarial discriminator is replaced by
//! the regression loss used for all methods (documented substitution in
//! DESIGN.md): CD accuracy in Table II comes from the generator, and the
//! characteristic D-pass runtime is preserved.

use rand::Rng;

use peb_nn::{Conv2d, ConvTranspose2d, Parameterized};
use peb_tensor::{Tensor, Var};

use sdm_peb::PebPredictor;

/// TEMPO-resist hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TempoResistConfig {
    /// Input volume `(D, H, W)`.
    pub input_dims: (usize, usize, usize),
    /// Generator base width.
    pub width: usize,
}

impl TempoResistConfig {
    /// Experiment-scale defaults.
    pub fn for_grid(input_dims: (usize, usize, usize)) -> Self {
        TempoResistConfig {
            input_dims,
            width: 40,
        }
    }
}

/// Slice-wise conditional generator.
pub struct TempoResist {
    enc1: Conv2d,
    enc2: Conv2d,
    mid: Conv2d,
    dec1: ConvTranspose2d,
    dec2: ConvTranspose2d,
    head: Conv2d,
    config: TempoResistConfig,
}

impl TempoResist {
    /// Builds the generator. Input per slice: the acid plane plus a
    /// constant depth-encoding channel (normalised depth), so one set of
    /// weights serves every height, exactly as TEMPO conditions on height.
    pub fn new(config: TempoResistConfig, rng: &mut impl Rng) -> Self {
        let w = config.width;
        TempoResist {
            enc1: Conv2d::new(2, w, 3, 2, 1, rng),
            enc2: Conv2d::new(w, w * 2, 3, 2, 1, rng),
            mid: Conv2d::new(w * 2, w * 2, 3, 1, 1, rng),
            dec1: ConvTranspose2d::new(w * 2, w, 4, 2, 1, rng),
            dec2: ConvTranspose2d::new(w, w, 4, 2, 1, rng),
            head: Conv2d::new(w, 1, 3, 1, 1, rng),
            config,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &TempoResistConfig {
        &self.config
    }

    fn generate_slice(&self, plane: &Var) -> Var {
        let e1 = self.enc1.forward(plane).leaky_relu(0.2);
        let e2 = self.enc2.forward(&e1).leaky_relu(0.2);
        let m = self.mid.forward(&e2).leaky_relu(0.2);
        let d1 = self.dec1.forward_leaky_relu(&[&m], 0.2);
        let d2 = self.dec2.forward_leaky_relu(&[&d1], 0.2);
        self.head.forward(&d2)
    }
}

impl Parameterized for TempoResist {
    fn parameters(&self) -> Vec<Var> {
        let mut p = self.enc1.parameters();
        p.extend(self.enc2.parameters());
        p.extend(self.mid.parameters());
        p.extend(self.dec1.parameters());
        p.extend(self.dec2.parameters());
        p.extend(self.head.parameters());
        p
    }
}

impl PebPredictor for TempoResist {
    fn name(&self) -> &'static str {
        "TEMPO-resist"
    }

    fn forward_train(&self, acid: &Tensor) -> Var {
        let (d, h, w) = self.config.input_dims;
        assert_eq!(acid.shape(), [d, h, w], "TEMPO input dims mismatch");
        let mut slices = Vec::with_capacity(d);
        for k in 0..d {
            // Condition channel: normalised depth of this slice.
            let depth_code = if d > 1 {
                k as f32 / (d - 1) as f32
            } else {
                0.0
            };
            let mut plane = Tensor::zeros(&[2, h, w]);
            {
                let (src, dst) = (acid.data(), plane.data_mut());
                dst[..h * w].copy_from_slice(&src[k * h * w..(k + 1) * h * w]);
                for v in &mut dst[h * w..] {
                    *v = depth_code;
                }
            }
            let out = self.generate_slice(&Var::constant(plane)); // [1, H, W]
            slices.push(out);
        }
        let refs: Vec<&Var> = slices.iter().collect();
        Var::concat(&refs, 0) // [D, H, W]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(130);
        let model = TempoResist::new(
            TempoResistConfig {
                input_dims: (3, 16, 16),
                width: 8,
            },
            &mut rng,
        );
        let acid = Tensor::rand_uniform(&[3, 16, 16], 0.0, 0.9, &mut rng);
        assert_eq!(model.predict(&acid).shape(), &[3, 16, 16]);
    }

    #[test]
    fn depth_conditioning_differentiates_identical_slices() {
        let mut rng = StdRng::seed_from_u64(131);
        let model = TempoResist::new(
            TempoResistConfig {
                input_dims: (2, 8, 8),
                width: 6,
            },
            &mut rng,
        );
        // Same acid content at both depths; only the condition channel
        // differs, so the outputs must differ.
        let mut acid = Tensor::zeros(&[2, 8, 8]);
        for y in 0..8 {
            for x in 0..8 {
                let v = ((y * x) % 4) as f32 * 0.2;
                acid.set(&[0, y, x], v);
                acid.set(&[1, y, x], v);
            }
        }
        let out = model.predict(&acid);
        let s0 = out.slice_axis(0, 0, 1).unwrap();
        let s1 = out.slice_axis(0, 1, 2).unwrap();
        assert!(s0.max_abs_diff(&s1) > 1e-6);
    }

    #[test]
    fn gradients_flow() {
        let mut rng = StdRng::seed_from_u64(132);
        let model = TempoResist::new(
            TempoResistConfig {
                input_dims: (2, 8, 8),
                width: 6,
            },
            &mut rng,
        );
        let acid = Tensor::rand_uniform(&[2, 8, 8], 0.0, 0.9, &mut rng);
        model.forward_train(&acid).square().sum().backward();
        assert!(model.parameters().iter().all(|p| p.grad().is_some()));
    }
}
