//! Fast Fourier transforms for the SDM-PEB reproduction.
//!
//! Provides an iterative radix-2 complex FFT in one, two and three
//! dimensions plus convolution helpers. Two subsystems consume it:
//!
//! * `peb-litho` — computes aerial images by (circular) convolution of the
//!   mask with optical kernels;
//! * `peb-baselines` — the FNO and DeePEB models apply learned filters in
//!   the frequency domain.
//!
//! Any nonzero length is supported: powers of two run the radix-2
//! kernel, everything else Bluestein's chirp-z algorithm. The workspace
//! still keeps H/W grid sizes as powers of two for speed (see DESIGN.md
//! §7).
//!
//! # Example
//!
//! ```
//! use peb_fft::{fft1d, ifft1d, Complex};
//!
//! # fn main() -> Result<(), peb_fft::FftError> {
//! let signal: Vec<Complex> = (0..8).map(|i| Complex::new(i as f32, 0.0)).collect();
//! let spectrum = fft1d(&signal)?;
//! let back = ifft1d(&spectrum)?;
//! assert!((back[3].re - 3.0).abs() < 1e-4);
//! # Ok(())
//! # }
//! ```

mod complex;
mod convolve;
mod fft1d;
mod fftnd;
mod plan;

pub use complex::Complex;
pub use convolve::convolve2d_periodic;
pub use fft1d::{fft1d, fft1d_inplace, ifft1d, FftError};
pub use fftnd::{fft2d, fft3d, ifft2d, ifft3d, ComplexField};
