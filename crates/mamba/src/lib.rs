//! Structured state-space models (Mamba-style selective scan) and the
//! spatial-depthwise Mamba attention unit (SDM unit) of SDM-PEB.
//!
//! The paper's core architectural contribution is a three-direction
//! selective scan over 3-D feature volumes (Fig. 5): a *spatial* scan
//! (depth-major per spatial position), a *depth-forward* scan (whole
//! shallow levels first) and a *depth-backward* scan. Each direction runs
//! an input-dependent SSM (Eqs. 6–11) whose recurrence
//!
//! ```text
//! h_t = exp(Δ_t ⊙ A) ⊙ h_{t−1} + Δ_t · B_t · x_t,    y_t = C_t · h_t + D ⊙ x_t
//! ```
//!
//! is implemented here as a fused autograd operation with a hand-derived
//! backward pass ([`selective_scan`]), validated against finite
//! differences in the test suite.
//!
//! # Example
//!
//! ```
//! use peb_mamba::{SdmUnit, SdmUnitConfig, ScanDirection};
//! use peb_tensor::{Tensor, Var};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let cfg = SdmUnitConfig::new(8, 16, 4);
//! let unit = SdmUnit::new(cfg, &mut rng);
//! // A [C=8, D=2, H=4, W=4] feature volume as a [L=32, C=8] sequence.
//! let x = Var::constant(Tensor::ones(&[32, 8]));
//! let y = unit.forward(&x, (2, 4, 4));
//! assert_eq!(y.shape(), vec![32, 8]);
//! ```

mod conv1d;
mod directions;
mod scan;
mod sdm_unit;
mod ssm;

pub use conv1d::CausalDwConv1d;
pub use directions::{gather_rows, ScanDirection, ScanOrder};
pub use scan::selective_scan;
pub use sdm_unit::{SdmUnit, SdmUnitConfig};
pub use ssm::{hippo_a_log_init, LtiSsmBlock, SsmBlock};

/// LeCun-uniform 1-D parameter vector (shared init helper).
pub(crate) fn lecun_vec(n: usize, rng: &mut impl rand::Rng) -> peb_tensor::Tensor {
    peb_nn::lecun_uniform(&[n], n, rng)
}
