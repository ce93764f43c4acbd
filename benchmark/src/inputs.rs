//! Input generation. Everything timed is derived from `--seed`; the
//! canary inputs behind the golden files are derived from
//! [`CANARY_SEED`] instead, so their outputs can be committed.

use peb_litho::{DillParams, Grid, MaskClip, MaskConfig, OpticsParams};
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the canary inputs (warm-up ops, compared against
/// `golden/*.json`). Never mixed with `--seed`.
pub const CANARY_SEED: u64 = 0x5d4d_5045;

/// Mask seed of clip `i` under workload seed `seed`.
pub fn mask_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i as u64)
}

/// Contact-layer mask for `grid`. `MaskConfig::generate` retries
/// internally and falls back to a centred contact, so it cannot fail
/// for the demo configuration.
pub fn mask(grid: &Grid, mask_seed: u64) -> MaskClip {
    MaskConfig::demo(grid.nx)
        .generate(mask_seed)
        .expect("demo mask config always places a contact")
}

/// `mask → aerial image → Dill photoacid`: the volume a PEB solver
/// (rigorous or learned) receives.
pub fn photoacid(grid: &Grid, clip: &MaskClip) -> Tensor {
    let aerial = OpticsParams::paper()
        .aerial_image(grid, clip)
        .expect("mask matches grid");
    DillParams::paper().photoacid(&aerial)
}

/// A unique serving clip: a few separable Gaussian blobs (photoacid
/// under contacts looks like this) placed by `(seed, i)`. Cheap enough
/// — a handful of `exp` per axis — to generate inside a load loop
/// without moving the offered load.
pub fn blob_clip(dims: (usize, usize, usize), seed: u64, i: u64) -> Tensor {
    let (d, h, w) = dims;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i);
    let mut data = vec![0.0f32; d * h * w];
    for _ in 0..3 {
        let cy = rng.gen_range(0.0..h as f32);
        let cx = rng.gen_range(0.0..w as f32);
        let sigma = rng.gen_range(1.5..(h as f32 / 4.0).max(2.0));
        let peak = rng.gen_range(0.3..0.9f32);
        let decay = rng.gen_range(0.02..0.2f32);
        let gauss = |n: usize, c: f32| -> Vec<f32> {
            (0..n)
                .map(|p| (-(p as f32 - c).powi(2) / (2.0 * sigma * sigma)).exp())
                .collect()
        };
        let (gy, gx) = (gauss(h, cy), gauss(w, cx));
        for z in 0..d {
            let az = peak * (-decay * z as f32).exp();
            for y in 0..h {
                let row = &mut data[(z * h + y) * w..(z * h + y + 1) * w];
                let ay = az * gy[y];
                for (v, &g) in row.iter_mut().zip(&gx) {
                    *v = (*v + ay * g).min(0.9);
                }
            }
        }
    }
    Tensor::from_vec(data, &[d, h, w]).expect("blob clip shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_clips_are_seeded_unique_and_physical() {
        let a = blob_clip((4, 16, 16), 1, 0);
        assert_eq!(a.bit_digest(), blob_clip((4, 16, 16), 1, 0).bit_digest());
        assert_ne!(a.bit_digest(), blob_clip((4, 16, 16), 1, 1).bit_digest());
        assert_ne!(a.bit_digest(), blob_clip((4, 16, 16), 2, 0).bit_digest());
        assert!(a.data().iter().all(|v| (0.0..=0.9).contains(v)));
        assert!(a.max_value() > 0.05, "not an empty clip");
    }
}
