//! Multi-dimensional FFTs over a dense complex field.

use peb_tensor::Tensor;

use crate::fft1d::{fft1d_inplace, FftError};
use crate::Complex;

/// A dense N-D array of complex values (row-major), the frequency-domain
/// counterpart of [`peb_tensor::Tensor`].
///
/// Storage is checked out of the thread-local `peb-pool` and recycled on
/// drop, so repeated spectral round trips (the aerial-image convolution
/// hot path) reuse the same buffers instead of allocating.
#[derive(Debug, PartialEq)]
pub struct ComplexField {
    data: Vec<Complex>,
    shape: Vec<usize>,
}

/// Checks out an empty pooled `Complex` buffer with capacity ≥ `cap`.
fn alloc_cleared(cap: usize) -> Vec<Complex> {
    peb_pool::take_cleared(cap).0
}

impl ComplexField {
    /// All-zero field.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        let mut data = alloc_cleared(n);
        data.resize(n, Complex::ZERO);
        ComplexField {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Builds a field from a real tensor (imaginary parts zero).
    pub fn from_real(t: &Tensor) -> Self {
        let mut data = alloc_cleared(t.len());
        data.extend(t.data().iter().map(|&r| Complex::new(r, 0.0)));
        ComplexField {
            data,
            shape: t.shape().to_vec(),
        }
    }

    /// Extracts the real parts as a tensor.
    pub fn real(&self) -> Tensor {
        Tensor::from_fn(&self.shape, |i| self.data[i].re)
    }

    /// Extracts the imaginary parts as a tensor.
    #[cfg(test)]
    fn imag(&self) -> Tensor {
        Tensor::from_fn(&self.shape, |i| self.data[i].im)
    }

    /// Shape of the field.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Immutable element buffer.
    pub fn data(&self) -> &[Complex] {
        &self.data
    }

    /// Mutable element buffer.
    pub fn data_mut(&mut self) -> &mut [Complex] {
        &mut self.data
    }

    /// Pointwise complex product with another field of identical shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &ComplexField) -> ComplexField {
        assert_eq!(self.shape, other.shape, "hadamard shape mismatch");
        let mut data = alloc_cleared(self.data.len());
        data.extend(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| a * b),
        );
        ComplexField {
            data,
            shape: self.shape.clone(),
        }
    }

    /// FFT along one axis, in place.
    ///
    /// The `outer·inner` lines along the axis are independent, so they
    /// fan out over the `peb-par` pool with a per-chunk gather/scatter
    /// buffer; every element belongs to exactly one line, keeping the
    /// result thread-count independent.
    fn transform_axis(&mut self, axis: usize, inverse: bool) -> Result<(), FftError> {
        let shape = &self.shape;
        let outer: usize = shape[..axis].iter().product();
        let mid = shape[axis];
        let inner: usize = shape[axis + 1..].iter().product();
        // The only failure mode is an empty axis, which is
        // line-independent — check it once, up front. (Non-power-of-two
        // lengths dispatch to the Bluestein kernel per line.)
        if mid == 0 {
            return Err(FftError::Empty);
        }
        let lines = outer * inner;
        let _span = peb_obs::span("fft.axis");
        peb_obs::count(peb_obs::Counter::FftLines, lines as u64);
        let slots = peb_par::UnsafeSlice::new(&mut self.data);
        // ~5·n·log₂n complex flops per line, plus the gather/scatter.
        let line_cost =
            5 * (mid as u64) * (usize::BITS - mid.leading_zeros()) as u64 + 4 * mid as u64;
        peb_par::parallel_chunks_cost(lines, lines.div_ceil(64), line_cost, |range| {
            let mut line = peb_pool::PoolBuf::<Complex>::zeroed(mid);
            for li in range {
                let (o, i) = (li / inner, li % inner);
                for (m, slot) in line.iter_mut().enumerate() {
                    // SAFETY: line `li` owns exactly the strided positions
                    // `(o·mid + m)·inner + i`; lines are disjoint.
                    *slot = unsafe { *slots.get_mut((o * mid + m) * inner + i) };
                }
                fft1d_inplace(&mut line, inverse).expect("length checked nonzero");
                for (m, slot) in line.iter().enumerate() {
                    // SAFETY: as above.
                    unsafe { *slots.get_mut((o * mid + m) * inner + i) = *slot };
                }
            }
        });
        Ok(())
    }
}

impl Clone for ComplexField {
    fn clone(&self) -> Self {
        ComplexField {
            data: peb_pool::take_copy(&self.data).0,
            shape: self.shape.clone(),
        }
    }
}

impl Drop for ComplexField {
    /// Returns the storage to the thread-local `peb-pool`.
    fn drop(&mut self) {
        peb_pool::recycle(std::mem::take(&mut self.data));
    }
}

/// Forward 2-D FFT of an `[H, W]` field.
///
/// # Errors
///
/// Returns [`FftError`] if the field has an empty axis.
pub fn fft2d(field: &ComplexField) -> Result<ComplexField, FftError> {
    transform_all(field, false, 2)
}

/// Inverse 2-D FFT (scaled so that `ifft2d(fft2d(x)) == x`).
///
/// # Errors
///
/// Returns [`FftError`] on invalid shapes.
pub fn ifft2d(field: &ComplexField) -> Result<ComplexField, FftError> {
    transform_all(field, true, 2)
}

/// Forward 3-D FFT of a `[D, H, W]` field.
///
/// # Errors
///
/// Returns [`FftError`] on invalid shapes.
pub fn fft3d(field: &ComplexField) -> Result<ComplexField, FftError> {
    transform_all(field, false, 3)
}

/// Inverse 3-D FFT.
///
/// # Errors
///
/// Returns [`FftError`] on invalid shapes.
pub fn ifft3d(field: &ComplexField) -> Result<ComplexField, FftError> {
    transform_all(field, true, 3)
}

fn transform_all(
    field: &ComplexField,
    inverse: bool,
    expect_rank: usize,
) -> Result<ComplexField, FftError> {
    assert_eq!(
        field.shape().len(),
        expect_rank,
        "expected rank-{expect_rank} field, got {:?}",
        field.shape()
    );
    let mut out = field.clone();
    for axis in 0..expect_rank {
        out.transform_axis(axis, inverse)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn random_field(shape: &[usize], seed: u64) -> ComplexField {
        let mut rng = StdRng::seed_from_u64(seed);
        ComplexField::from_real(&Tensor::randn(shape, &mut rng))
    }

    #[test]
    fn fft2d_roundtrip() {
        let f = random_field(&[8, 16], 1);
        let back = ifft2d(&fft2d(&f).unwrap()).unwrap();
        assert!(back.real().approx_eq(&f.real(), 1e-4));
        assert!(back.imag().approx_eq(&f.imag(), 1e-4));
    }

    #[test]
    fn fft3d_roundtrip() {
        let f = random_field(&[4, 8, 8], 2);
        let back = ifft3d(&fft3d(&f).unwrap()).unwrap();
        assert!(back.real().approx_eq(&f.real(), 1e-4));
    }

    #[test]
    fn dc_component_is_sum() {
        let f = random_field(&[4, 4], 3);
        let total: f32 = f.real().sum();
        let spec = fft2d(&f).unwrap();
        assert!((spec.data()[0].re - total).abs() < 1e-3);
        assert!(spec.data()[0].im.abs() < 1e-4);
    }

    #[test]
    fn real_input_spectrum_is_hermitian() {
        let f = random_field(&[8, 8], 4);
        let spec = fft2d(&f).unwrap();
        // X[-k] = conj(X[k]) for real input.
        for ky in 0..8usize {
            for kx in 0..8usize {
                let a = spec.data()[ky * 8 + kx];
                let b = spec.data()[((8 - ky) % 8) * 8 + (8 - kx) % 8];
                assert!((a.re - b.re).abs() < 1e-3);
                assert!((a.im + b.im).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn hadamard_matches_manual() {
        let a = random_field(&[2, 2], 5);
        let b = random_field(&[2, 2], 6);
        let h = a.hadamard(&b);
        for i in 0..4 {
            let expect = a.data()[i] * b.data()[i];
            assert!((h.data()[i].re - expect.re).abs() < 1e-6);
        }
    }
}
