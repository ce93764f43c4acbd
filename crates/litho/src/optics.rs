//! Simplified partially-coherent aerial-image model.
//!
//! The paper's optical step is S-Litho's rigorous Abbe/Hopkins imaging at
//! λ = 193 nm, NA = 1.35. We replace it with a Gaussian point-spread model
//! whose width is set by the Rayleigh resolution of that system, broadened
//! with depth (defocus through the resist), attenuated by absorption, and
//! modulated by a standing-wave term — the depth structure whose smoothing
//! is the whole point of PEB (§I of the paper). This preserves the aspects
//! the learning task sees: band-limited 2-D structure per depth level and
//! smooth, causal variation along z (paper Fig. 4).

use serde::{Deserialize, Serialize};

use peb_fft::convolve2d_periodic;
use peb_tensor::Tensor;

use crate::{Grid, LithoError, MaskClip, Result};

/// Optical model parameters (lengths in nanometres).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpticsParams {
    /// Exposure wavelength. Paper: 193 nm (ArF).
    pub wavelength_nm: f32,
    /// Numerical aperture. Paper: 1.35 (immersion).
    pub na: f32,
    /// Point-spread σ at best focus as a fraction of the Rayleigh
    /// resolution `0.61 λ / NA`.
    pub psf_sigma_frac: f32,
    /// Defocus broadening slope: added σ per nm of depth.
    pub defocus_slope: f32,
    /// Resist absorption coefficient (1/nm); intensity decays as
    /// `exp(−α·z)`.
    pub absorption: f32,
    /// Standing-wave relative amplitude in `[0, 1)`.
    pub standing_wave: f32,
    /// Resist refractive index (sets the standing-wave period `λ / 2n`).
    pub refractive_index: f32,
}

impl OpticsParams {
    /// Paper §IV settings with moderate resist constants.
    pub fn paper() -> Self {
        OpticsParams {
            wavelength_nm: 193.0,
            na: 1.35,
            psf_sigma_frac: 0.2,
            defocus_slope: 0.03,
            absorption: 0.004,
            standing_wave: 0.15,
            refractive_index: 1.7,
        }
    }

    /// Rayleigh resolution `0.61 λ / NA` in nm.
    pub fn rayleigh_nm(&self) -> f32 {
        0.61 * self.wavelength_nm / self.na
    }

    /// PSF σ (nm) at depth `z_nm` below the resist surface.
    pub fn sigma_at(&self, z_nm: f32) -> f32 {
        let s0 = self.psf_sigma_frac * self.rayleigh_nm();
        (s0 * s0 + (self.defocus_slope * z_nm).powi(2)).sqrt()
    }

    /// Computes the 3-D aerial image `[D, H, W]` of a mask clip.
    ///
    /// Intensities are normalised so that a fully open mask at the surface
    /// gives 1.0 before absorption.
    ///
    /// # Errors
    ///
    /// Returns an error if the grid and mask disagree or FFT sizes are
    /// invalid.
    pub fn aerial_image(&self, grid: &Grid, mask: &MaskClip) -> Result<Tensor> {
        let _span = peb_obs::span("litho.aerial");
        if mask.pattern.shape() != [grid.ny, grid.nx] {
            return Err(LithoError::Config {
                detail: format!(
                    "mask shape {:?} does not match grid {:?}",
                    mask.pattern.shape(),
                    grid.shape2()
                ),
            });
        }
        // Each depth plane is written straight into the volume: no
        // per-plane tensors kept until a final concat.
        let plane = grid.ny * grid.nx;
        let mut image = Tensor::zeros(&grid.shape3());
        for k in 0..grid.nz {
            let z = grid.depth_of(k);
            let sigma_px = self.sigma_at(z) / grid.dx;
            let kernel = gaussian_kernel_periodic(grid.ny, grid.nx, sigma_px, grid.dy / grid.dx);
            let img = convolve2d_periodic(&mask.pattern, &kernel)?;
            let atten = (-self.absorption * z).exp();
            let phase =
                2.0 * std::f32::consts::TAU * self.refractive_index * z / self.wavelength_nm;
            let swing = 1.0 + self.standing_wave * phase.cos();
            let out = &mut image.data_mut()[k * plane..(k + 1) * plane];
            for (dst, v) in out.iter_mut().zip(img.data()) {
                *dst = (v * atten * swing).max(0.0);
            }
        }
        Ok(image)
    }
}

impl Default for OpticsParams {
    fn default() -> Self {
        OpticsParams::paper()
    }
}

/// Unit-sum periodic Gaussian kernel with its peak at `(0, 0)` (wrapped
/// corners), ready for [`convolve2d_periodic`]. `aspect` scales the y
/// spacing relative to x.
fn gaussian_kernel_periodic(ny: usize, nx: usize, sigma_px: f32, aspect: f32) -> Tensor {
    let s2 = 2.0 * sigma_px * sigma_px;
    let mut k = Tensor::zeros(&[ny, nx]);
    {
        let data = k.data_mut();
        for y in 0..ny {
            // Wrapped (periodic) displacement from the origin.
            let dy = {
                let d = y.min(ny - y) as f32;
                d * aspect
            };
            for x in 0..nx {
                let dx = x.min(nx - x) as f32;
                data[y * nx + x] = (-(dx * dx + dy * dy) / s2).exp();
            }
        }
    }
    let total = k.sum();
    k.map(|v| v / total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MaskConfig;

    #[test]
    fn open_frame_gives_attenuated_unity() {
        // A fully open mask should give intensity ≈ exp(-αz)·swing.
        let grid = Grid::small();
        let clip = MaskClip {
            pattern: Tensor::ones(&[grid.ny, grid.nx]),
            contacts: vec![],
            style: crate::ClipStyle::Random,
            seed: 0,
        };
        let p = OpticsParams::paper();
        let img = p.aerial_image(&grid, &clip).unwrap();
        for k in 0..grid.nz {
            let z = grid.depth_of(k);
            let phase = 2.0 * std::f32::consts::TAU * p.refractive_index * z / p.wavelength_nm;
            let expect = (-p.absorption * z).exp() * (1.0 + p.standing_wave * phase.cos());
            let got = img.slice_axis(0, k, k + 1).unwrap().mean();
            assert!((got - expect).abs() < 1e-3, "layer {k}: {got} vs {expect}");
        }
    }

    #[test]
    fn contacts_are_brighter_than_background() {
        let grid = Grid::small();
        let clip = MaskConfig::demo(grid.nx).generate(3).unwrap();
        let img = OpticsParams::paper().aerial_image(&grid, &clip).unwrap();
        let top = img.slice_axis(0, 0, 1).unwrap();
        let c = &clip.contacts[0];
        let centre = top.get(&[0, c.cy.round() as usize, c.cx.round() as usize]);
        assert!(
            centre > top.mean(),
            "centre {centre} vs mean {}",
            top.mean()
        );
        assert!(img.min_value() >= 0.0);
    }

    #[test]
    fn deeper_layers_are_dimmer_on_average() {
        let grid = Grid::small();
        let clip = MaskConfig::demo(grid.nx).generate(5).unwrap();
        let mut p = OpticsParams::paper();
        p.standing_wave = 0.0; // isolate absorption
        let img = p.aerial_image(&grid, &clip).unwrap();
        let m0 = img.slice_axis(0, 0, 1).unwrap().mean();
        let mlast = img.slice_axis(0, grid.nz - 1, grid.nz).unwrap().mean();
        assert!(mlast < m0);
    }

    #[test]
    fn defocus_blurs_deeper_layers() {
        // Peak contrast (max - mean) should drop with depth when defocus
        // dominates.
        let grid = Grid::small();
        let clip = MaskConfig::demo(grid.nx).generate(6).unwrap();
        let mut p = OpticsParams::paper();
        p.standing_wave = 0.0;
        p.absorption = 0.0;
        p.defocus_slope = 0.3;
        let img = p.aerial_image(&grid, &clip).unwrap();
        let contrast = |k: usize| {
            let s = img.slice_axis(0, k, k + 1).unwrap();
            s.max_value() - s.mean()
        };
        assert!(contrast(grid.nz - 1) < contrast(0));
    }

    #[test]
    fn kernel_is_normalised_and_centred() {
        let k = gaussian_kernel_periodic(16, 16, 2.0, 1.0);
        assert!((k.sum() - 1.0).abs() < 1e-5);
        assert_eq!(k.argmax(), 0); // peak at origin for wrapped kernels
                                   // Symmetry: k(1, 0) == k(15, 0).
        assert!((k.get(&[1, 0]) - k.get(&[15, 0])).abs() < 1e-7);
    }

    #[test]
    fn mismatched_grid_rejected() {
        let grid = Grid::small();
        let clip = MaskConfig::demo(64).generate(1).unwrap(); // 64 ≠ 32
        assert!(OpticsParams::paper().aerial_image(&grid, &clip).is_err());
    }
}
