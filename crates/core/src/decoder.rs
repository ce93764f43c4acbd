//! Transposed-convolution decoder (paper Fig. 2 right).
//!
//! Three (or more) transposed-convolution layers with LeakyReLU
//! activations between them restore the fused features to the full input
//! resolution, every depth level with the same weights: each layer is one
//! planes-batched call over the depth axis, run as direct sub-pixel
//! convolutions with its bias and LeakyReLU applied as each output is
//! written (`ConvTranspose2d::forward_leaky_relu`).
//!
//! In addition to Fig. 2's decoder, this implementation accepts an
//! optional full-resolution *skip* volume (the stem features), which the
//! refinement layer reads next to the upsampled features as a second
//! channel block: their concatenation, never materialised. At the
//! paper's scale the stage-1 latent is 125×125 px and carries enough
//! spatial detail; at this reproduction's 32–128 px grids the latent
//! alone cannot represent sub-pixel contact edges, so the skip restores
//! the full-resolution path (documented as a scaled-reproduction
//! adaptation in DESIGN.md §1).

use rand::Rng;

use peb_nn::{ConvTranspose2d, Parameterized};
use peb_tensor::Var;

/// Negative slope of the LeakyReLU after every layer but the last.
const LEAKY_SLOPE: f32 = 0.01;

/// Per-depth-level transposed-conv decoder ending in one output channel.
pub struct Decoder {
    layers: Vec<ConvTranspose2d>,
    head_mid: ConvTranspose2d,
    head: ConvTranspose2d,
    upsample_factor: usize,
    skip_channels: usize,
}

impl Decoder {
    /// Builds a decoder that upsamples by `factor` (a power of two) using
    /// stride-2 transposed convolutions, then refines the upsampled
    /// features and the `skip_channels`-wide full-resolution skip, read
    /// as two channel blocks, down to a single output channel. At least
    /// three layers total, matching the paper's "3 transpose convolution
    /// layers".
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not a nonzero power of two.
    pub fn new(
        in_channels: usize,
        factor: usize,
        skip_channels: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            factor > 0 && factor & (factor - 1) == 0,
            "decoder factor {factor} must be a power of two"
        );
        let mut layers = Vec::new();
        let mut c = in_channels;
        let mut f = factor;
        while f > 1 {
            let next = (c / 2).max(4);
            layers.push(ConvTranspose2d::new(c, next, 4, 2, 1, rng));
            c = next;
            f /= 2;
        }
        while layers.len() < 2 {
            let next = (c / 2).max(4);
            layers.push(ConvTranspose2d::new(c, next, 3, 1, 1, rng));
            c = next;
        }
        // Two-layer full-resolution refinement head: the skip carries raw
        // input detail that a single linear tap cannot exploit.
        let head_mid = ConvTranspose2d::new(c + skip_channels, (c / 2).max(8), 3, 1, 1, rng);
        let head = ConvTranspose2d::new((c / 2).max(8), 1, 3, 1, 1, rng);
        Decoder {
            layers,
            head_mid,
            head,
            upsample_factor: factor,
            skip_channels,
        }
    }

    /// Decodes `[C, D, H', W']` into `[D, H'·factor, W'·factor]`.
    ///
    /// `skip`, when configured, must be `[skip_channels, D, H, W]` at the
    /// full output resolution.
    ///
    /// Every layer is one planes-batched call over depth. Off the
    /// autograd tape the depth axis is walked in slabs sized by
    /// [`peb_pool::tile::slab_items`], so the full-resolution
    /// intermediates — each freed as its consumer finishes — stay
    /// bounded by the slab, not the volume; depth planes are independent,
    /// so the slabbing never changes a bit. On the tape every
    /// intermediate lives until `backward` anyway, and one whole-volume
    /// pass keeps each weight gradient a single ascending-plane sum.
    ///
    /// # Panics
    ///
    /// Panics if a skip was configured but not provided (or vice versa),
    /// or shapes disagree.
    pub fn forward(&self, x: &Var, skip: Option<&Var>) -> Var {
        assert_eq!(
            skip.is_some(),
            self.skip_channels > 0,
            "skip presence must match configuration"
        );
        if let Some(skip) = skip {
            assert_eq!(skip.shape()[0], self.skip_channels, "skip channel mismatch");
        }
        let s = x.shape();
        let d = s[1];
        // A depth plane's share of what a slab reads and writes: its
        // input features and its full-resolution output.
        let out_plane = s[2] * s[3] * self.upsample_factor * self.upsample_factor;
        let plane_bytes = 4 * (s[0] * s[2] * s[3] + out_plane);
        let slab = if peb_tensor::grad_enabled() {
            d
        } else {
            peb_pool::tile::slab_items(plane_bytes, d)
        };
        if slab >= d {
            return self.decode(x, skip);
        }
        let slabs: Vec<Var> = (0..d)
            .step_by(slab)
            .map(|z0| {
                let z1 = (z0 + slab).min(d);
                let skip = skip.map(|v| v.slice_axis(1, z0, z1));
                self.decode(&x.slice_axis(1, z0, z1), skip.as_ref())
            })
            .collect();
        peb_obs::count(peb_obs::Counter::SlabPasses, slabs.len() as u64);
        Var::concat(&slabs.iter().collect::<Vec<_>>(), 0)
    }

    /// Decodes every depth plane of `x` (and `skip`) in one pass.
    fn decode(&self, x: &Var, skip: Option<&Var>) -> Var {
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = layer.forward_leaky_relu(&[&cur], LEAKY_SLOPE);
        }
        let mut blocks = vec![&cur];
        blocks.extend(skip);
        let mid = self.head_mid.forward_leaky_relu(&blocks, LEAKY_SLOPE);
        let out = self.head.forward(&mid);
        let s = out.shape(); // [1, D, H, W]
        out.reshape(&s[1..])
    }
}

impl Parameterized for Decoder {
    fn parameters(&self) -> Vec<Var> {
        let mut p: Vec<Var> = self.layers.iter().flat_map(|l| l.parameters()).collect();
        p.extend(self.head_mid.parameters());
        p.extend(self.head.parameters());
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
    fn restores_full_resolution_with_skip() {
        let mut rng = StdRng::seed_from_u64(90);
        let dec = Decoder::new(8, 4, 1, &mut rng);
        let x = Var::constant(Tensor::randn(&[8, 3, 4, 4], &mut rng));
        let skip = Var::constant(Tensor::randn(&[1, 3, 16, 16], &mut rng));
        let y = dec.forward(&x, Some(&skip));
        assert_eq!(y.shape(), vec![3, 16, 16]);
        assert!(
            dec.layers.len() + 1 >= 3,
            "paper uses three transpose convs"
        );
    }

    #[test]
    fn works_without_skip() {
        let mut rng = StdRng::seed_from_u64(91);
        let dec = Decoder::new(8, 1, 0, &mut rng);
        let x = Var::constant(Tensor::ones(&[8, 2, 4, 4]));
        assert_eq!(dec.forward(&x, None).shape(), vec![2, 4, 4]);
    }

    #[test]
    fn skip_affects_output() {
        let mut rng = StdRng::seed_from_u64(92);
        let dec = Decoder::new(4, 2, 1, &mut rng);
        let x = Var::constant(Tensor::randn(&[4, 2, 2, 2], &mut rng));
        let s1 = Var::constant(Tensor::zeros(&[1, 2, 4, 4]));
        let s2 = Var::constant(Tensor::ones(&[1, 2, 4, 4]));
        let y1 = dec.forward(&x, Some(&s1)).value_clone();
        let y2 = dec.forward(&x, Some(&s2)).value_clone();
        assert!(y1.max_abs_diff(&y2) > 1e-6);
    }

    #[test]
    fn gradients_flow_through_all_layers() {
        let mut rng = StdRng::seed_from_u64(93);
        let dec = Decoder::new(4, 2, 1, &mut rng);
        let x = Var::constant(Tensor::randn(&[4, 2, 2, 2], &mut rng));
        let skip = Var::constant(Tensor::randn(&[1, 2, 4, 4], &mut rng));
        dec.forward(&x, Some(&skip)).square().sum().backward();
        assert!(dec.parameters().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn a_volume_decodes_as_its_planes_stacked_whatever_the_slab() {
        let mut rng = StdRng::seed_from_u64(96);
        let dec = Decoder::new(8, 4, 2, &mut rng);
        let d = 5;
        let x = Var::constant(Tensor::randn(&[8, d, 3, 5], &mut rng));
        let skip = Var::constant(Tensor::randn(&[2, d, 12, 20], &mut rng));
        // On the tape (one whole-volume pass) …
        let taped = dec.forward(&x, Some(&skip)).value().bit_digest();
        // … its own D = 1 calls, stacked …
        let planes: Vec<Var> = (0..d)
            .map(|z| {
                dec.forward(
                    &x.slice_axis(1, z, z + 1),
                    Some(&skip.slice_axis(1, z, z + 1)),
                )
            })
            .collect();
        let stacked = Var::concat(&planes.iter().collect::<Vec<_>>(), 0);
        assert_eq!(stacked.value().bit_digest(), taped);
        // … and off the tape, from one-plane slabs to the whole volume.
        for tile_bytes in [1, 3 * 4 * (8 * 15 + 240), usize::MAX] {
            let scoped = peb_par::ExecCtx {
                tile_bytes,
                ..peb_par::ctx::current()
            };
            let slabbed = peb_par::ctx::with(scoped, || {
                peb_tensor::no_grad(|| dec.forward(&x, Some(&skip)).value().bit_digest())
            });
            assert_eq!(slabbed, taped, "tile_bytes = {tile_bytes}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_factor() {
        let mut rng = StdRng::seed_from_u64(94);
        Decoder::new(4, 3, 0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "skip presence")]
    fn rejects_missing_skip() {
        let mut rng = StdRng::seed_from_u64(95);
        let dec = Decoder::new(4, 2, 1, &mut rng);
        let x = Var::constant(Tensor::ones(&[4, 1, 2, 2]));
        dec.forward(&x, None);
    }
}
