//! FFT-based periodic (circular) convolution.
//!
//! The lithography simulation window is treated as periodic — the standard
//! assumption for dense-clip simulation — so circular convolution via the
//! FFT is both exact for that boundary condition and fast.

use peb_tensor::Tensor;

use crate::fft1d::FftError;
use crate::fftnd::{fft2d, ifft2d, ComplexField};

/// Circular 2-D convolution of two `[H, W]` tensors of identical shape.
///
/// The kernel is indexed with its origin at element `(0, 0)`; centre a
/// symmetric kernel by placing its peak there and wrapping the tails (see
/// `peb-litho`'s kernel builders).
///
/// # Errors
///
/// Returns [`FftError`] on empty extents.
///
/// # Panics
///
/// Panics if the shapes differ or are not rank-2.
pub fn convolve2d_periodic(signal: &Tensor, kernel: &Tensor) -> Result<Tensor, FftError> {
    assert_eq!(signal.shape(), kernel.shape(), "convolve2d shapes");
    assert_eq!(signal.rank(), 2, "convolve2d rank");
    let fs = fft2d(&ComplexField::from_real(signal))?;
    let fk = fft2d(&ComplexField::from_real(kernel))?;
    Ok(ifft2d(&fs.hadamard(&fk))?.real())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel() {
        let mut kernel = Tensor::zeros(&[8, 8]);
        kernel.set(&[0, 0], 1.0);
        let signal = Tensor::from_fn(&[8, 8], |i| (i % 7) as f32);
        let out = convolve2d_periodic(&signal, &kernel).unwrap();
        assert!(out.approx_eq(&signal, 1e-4));
    }

    #[test]
    fn shift_kernel_rolls_signal() {
        let mut kernel = Tensor::zeros(&[4, 4]);
        kernel.set(&[0, 1], 1.0); // shift x by +1 (circular)
        let mut signal = Tensor::zeros(&[4, 4]);
        signal.set(&[2, 0], 1.0);
        let out = convolve2d_periodic(&signal, &kernel).unwrap();
        assert!((out.get(&[2, 1]) - 1.0).abs() < 1e-4);
        assert!(out.get(&[2, 0]).abs() < 1e-4);
    }

    #[test]
    fn matches_direct_convolution() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let s = Tensor::randn(&[8, 8], &mut rng);
        let k = Tensor::randn(&[8, 8], &mut rng);
        let fast = convolve2d_periodic(&s, &k).unwrap();
        let mut direct = Tensor::zeros(&[8, 8]);
        for oy in 0..8usize {
            for ox in 0..8usize {
                let mut acc = 0f32;
                for ky in 0..8usize {
                    for kx in 0..8usize {
                        let sy = (oy + 8 - ky) % 8;
                        let sx = (ox + 8 - kx) % 8;
                        acc += s.get(&[sy, sx]) * k.get(&[ky, kx]);
                    }
                }
                direct.set(&[oy, ox], acc);
            }
        }
        assert!(fast.max_abs_diff(&direct) < 1e-3);
    }

    #[test]
    fn preserves_total_mass_for_unit_kernel() {
        // A kernel summing to 1 preserves the signal mean.
        let kernel = Tensor::full(&[4, 4], 1.0 / 16.0);
        let signal = Tensor::from_fn(&[4, 4], |i| i as f32);
        let out = convolve2d_periodic(&signal, &kernel).unwrap();
        assert!((out.mean() - signal.mean()).abs() < 1e-4);
    }
}
