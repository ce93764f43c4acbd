//! The learning-based PEB baselines of the paper's Table II.
//!
//! Four comparison models, all implementing [`sdm_peb::PebPredictor`] so
//! the shared trainer and benchmark harness treat them uniformly:
//!
//! * [`DeepCnn`] — residual CNN after Watanabe et al. \[41\], "customized
//!   … with a residual connection": 2-D convolutions over the clip with
//!   depth levels as channels (the original is a 2-D lithography CNN).
//! * [`TempoResist`] — TEMPO \[5\] "modified … to suit our 3D PEB
//!   simulation": a per-depth-slice 2-D encoder–decoder generator
//!   conditioned on the depth index. Its D separate forward passes make
//!   it the slowest learned model, as in the paper.
//! * [`Fno`] — the 3-D Fourier Neural Operator \[19\]: spectral
//!   convolutions with truncated modes plus pointwise bypasses.
//! * [`DeePeb`] — DeePEB \[15\]: an FNO global branch for low-frequency
//!   information plus a CNN local branch for high-frequency detail.

mod deepcnn;
mod deepeb;
mod fno;
mod tempo;

pub use deepcnn::{DeepCnn, DeepCnnConfig};
pub use deepeb::{DeePeb, DeePebConfig};
pub use fno::{Fno, FnoConfig, SpectralConv3d};
pub use tempo::{TempoResist, TempoResistConfig};
