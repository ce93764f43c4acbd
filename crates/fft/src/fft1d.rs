//! 1-D FFT: iterative radix-2 for power-of-two lengths, Bluestein's
//! chirp-z algorithm for everything else.
//!
//! Bluestein rewrites the DFT as a convolution,
//! `X[k] = w^{k²/2} Σ_t (x[t]·w^{t²/2}) · w^{-(k-t)²/2}`, which is
//! evaluated with power-of-two FFTs of length `m ≥ 2n−1`. The quadratic
//! chirp exponents are reduced `k² mod 2n` in integer arithmetic before
//! touching `f32`, which keeps the twiddle phase accurate for any length.

use std::error::Error;
use std::fmt;

use crate::Complex;

/// Errors from FFT entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FftError {
    /// Zero-length input.
    Empty,
}

impl fmt::Display for FftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FftError::Empty => write!(f, "fft input must be non-empty"),
        }
    }
}

impl Error for FftError {}

/// In-place FFT of any nonzero length. `inverse` selects the sign
/// convention; inverse transforms are scaled by `1/N` so
/// `ifft(fft(x)) == x`. Power-of-two lengths run the radix-2 kernel,
/// all others Bluestein's algorithm; both execute through the
/// thread-local plan cache in `crate::plan`, so twiddle tables,
/// bit-reversal permutations and Bluestein filter spectra are computed
/// once per `(length, direction)` per thread.
///
/// # Errors
///
/// Returns [`FftError::Empty`] for zero-length input.
pub fn fft1d_inplace(data: &mut [Complex], inverse: bool) -> Result<(), FftError> {
    if data.is_empty() {
        return Err(FftError::Empty);
    }
    crate::plan::fft_inplace_planned(data, inverse);
    Ok(())
}

/// Forward FFT of a slice, allocating the output.
///
/// # Errors
///
/// Returns [`FftError::Empty`] for zero-length input.
pub fn fft1d(data: &[Complex]) -> Result<Vec<Complex>, FftError> {
    let _span = peb_obs::span("fft.fft1d");
    peb_obs::count(peb_obs::Counter::FftLines, 1);
    let mut out = data.to_vec();
    fft1d_inplace(&mut out, false)?;
    Ok(out)
}

/// Inverse FFT of a slice (scaled by `1/N`), allocating the output.
///
/// # Errors
///
/// Returns [`FftError::Empty`] for zero-length input.
pub fn ifft1d(data: &[Complex]) -> Result<Vec<Complex>, FftError> {
    let _span = peb_obs::span("fft.fft1d");
    peb_obs::count(peb_obs::Counter::FftLines, 1);
    let mut out = data.to_vec();
    fft1d_inplace(&mut out, true)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(N²) reference DFT.
    fn dft(data: &[Complex]) -> Vec<Complex> {
        let n = data.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (t, &x) in data.iter().enumerate() {
                    acc += x * Complex::cis(-std::f32::consts::TAU * (k * t) as f32 / n as f32);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_reference_dft() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        // Powers of two take the radix-2 kernel; the rest take Bluestein.
        for &n in &[1usize, 2, 3, 4, 5, 6, 7, 8, 12, 17, 31, 32, 48, 64] {
            let data: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let fast = fft1d(&data).unwrap();
            let slow = dft(&data);
            for (a, b) in fast.iter().zip(&slow) {
                assert!(
                    (a.re - b.re).abs() < 2e-3 && (a.im - b.im).abs() < 2e-3,
                    "n={n}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn roundtrip() {
        let data: Vec<Complex> = (0..16)
            .map(|i| Complex::new(i as f32, -(i as f32)))
            .collect();
        let back = ifft1d(&fft1d(&data).unwrap()).unwrap();
        for (a, b) in back.iter().zip(&data) {
            assert!((a.re - b.re).abs() < 1e-4 && (a.im - b.im).abs() < 1e-4);
        }
    }

    #[test]
    fn roundtrip_prime_length() {
        let data: Vec<Complex> = (0..13)
            .map(|i| Complex::new((i as f32).sin(), (i as f32).cos()))
            .collect();
        let back = ifft1d(&fft1d(&data).unwrap()).unwrap();
        for (a, b) in back.iter().zip(&data) {
            assert!((a.re - b.re).abs() < 1e-4 && (a.im - b.im).abs() < 1e-4);
        }
    }

    #[test]
    fn parseval() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        let data: Vec<Complex> = (0..64)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect();
        let spec = fft1d(&data).unwrap();
        let time_e: f32 = data.iter().map(|c| c.norm_sqr()).sum();
        let freq_e: f32 = spec.iter().map(|c| c.norm_sqr()).sum::<f32>() / 64.0;
        assert!((time_e - freq_e).abs() < 1e-2);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::ONE;
        let spec = fft1d(&data).unwrap();
        for c in spec {
            assert!((c.re - 1.0).abs() < 1e-5 && c.im.abs() < 1e-5);
        }
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(fft1d(&[]).unwrap_err(), FftError::Empty);
        assert_eq!(ifft1d(&[]).unwrap_err(), FftError::Empty);
    }
}
