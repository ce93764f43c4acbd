//! Depthwise overlapped patch embedding / merging (paper Fig. 3).
//!
//! Downsamples the spatial (x–y) axes of a `[C, D, H, W]` volume with an
//! overlapping strided convolution (kernel > stride) while keeping the
//! depth resolution intact — every depth level is embedded independently
//! with shared weights, as one [`Conv2d`] call over the depth planes.
//! Overlap preserves local continuity at patch boundaries, which the
//! paper contrasts with non-overlapped merging.

use rand::Rng;

use peb_tensor::Var;

use crate::{Conv2d, Parameterized};

/// Overlapped patch embedding applied per depth level.
#[derive(Debug, Clone)]
pub struct OverlappedPatchEmbed {
    proj: Conv2d,
    cin: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
}

impl OverlappedPatchEmbed {
    /// Creates an embedding with `kernel > stride` (overlapping) or
    /// `kernel == stride` (the non-overlapped ablation).
    ///
    /// Padding is `kernel / 2` so the output extent is `ceil(H / stride)`
    /// for overlapped configurations.
    ///
    /// # Panics
    ///
    /// Panics if `kernel < stride` (patches would skip pixels).
    pub fn new(cin: usize, cout: usize, kernel: usize, stride: usize, rng: &mut impl Rng) -> Self {
        assert!(
            kernel >= stride,
            "kernel {kernel} must cover stride {stride}"
        );
        let pad = if kernel > stride { kernel / 2 } else { 0 };
        OverlappedPatchEmbed {
            proj: Conv2d::new(cin, cout, kernel, stride, pad, true, rng),
            cin,
            cout,
            kernel,
            stride,
        }
    }

    /// Whether patches overlap.
    pub fn is_overlapped(&self) -> bool {
        self.kernel > self.stride
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.cout
    }

    /// Embeds `[C, D, H, W]` into `[C', D, H', W']` (depth preserved):
    /// one planes-batched convolution, the depth levels sharing its
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics on a channel mismatch.
    pub fn forward(&self, x: &Var) -> Var {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "patch embed expects [C, D, H, W]");
        assert_eq!(shape[0], self.cin, "patch embed channel mismatch");
        self.proj.forward(x)
    }
}

impl Parameterized for OverlappedPatchEmbed {
    fn parameters(&self) -> Vec<Var> {
        self.proj.parameters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn downsamples_space_preserves_depth() {
        let mut rng = StdRng::seed_from_u64(22);
        let embed = OverlappedPatchEmbed::new(1, 8, 7, 4, &mut rng);
        let x = Var::constant(Tensor::ones(&[1, 5, 16, 16]));
        let y = embed.forward(&x);
        assert_eq!(y.shape(), vec![8, 5, 4, 4]);
        assert!(embed.is_overlapped());
    }

    #[test]
    fn non_overlapped_variant() {
        let mut rng = StdRng::seed_from_u64(23);
        let embed = OverlappedPatchEmbed::new(2, 4, 2, 2, &mut rng);
        let x = Var::constant(Tensor::ones(&[2, 3, 8, 8]));
        assert_eq!(embed.forward(&x).shape(), vec![4, 3, 4, 4]);
        assert!(!embed.is_overlapped());
    }

    #[test]
    fn depth_levels_share_weights() {
        let mut rng = StdRng::seed_from_u64(24);
        let embed = OverlappedPatchEmbed::new(1, 2, 3, 2, &mut rng);
        // Identical content at two depth levels embeds identically.
        let mut x = Tensor::zeros(&[1, 2, 8, 8]);
        for y in 0..8 {
            for xx in 0..8 {
                let v = ((y * 8 + xx) % 5) as f32;
                x.set(&[0, 0, y, xx], v);
                x.set(&[0, 1, y, xx], v);
            }
        }
        let out = embed.forward(&Var::constant(x)).value_clone();
        let d0 = out.slice_axis(1, 0, 1).unwrap();
        let d1 = out.slice_axis(1, 1, 2).unwrap();
        assert!(d0.approx_eq(&d1, 1e-6));
    }

    #[test]
    fn gradients_flow_to_projection() {
        let mut rng = StdRng::seed_from_u64(25);
        let embed = OverlappedPatchEmbed::new(1, 2, 3, 2, &mut rng);
        let x = Var::constant(Tensor::ones(&[1, 2, 4, 4]));
        embed.forward(&x).square().sum().backward();
        for p in embed.parameters() {
            assert!(p.grad().is_some());
        }
    }
}
