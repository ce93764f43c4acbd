//! Neural-network building blocks on the `peb-tensor` autograd engine.
//!
//! Everything the SDM-PEB model and its baselines need: linear layers,
//! dense and depthwise convolutions (2-D and 3-D), transposed convolutions
//! for the decoder, layer normalisation, the reduction-ratio efficient
//! self-attention of the paper's Eq. 15, overlapped patch embedding
//! (Fig. 3), MLP blocks, and the Adam optimiser with the paper's
//! step-decay schedule.
//!
//! # Conventions
//!
//! * Volumes are `[C, D, H, W]`; token sequences are `[L, C]`.
//! * There is no batch axis — training accumulates gradients over clips
//!   exactly as the paper does ("batch size of 8 by accumulating
//!   gradients over 8 clips").
//! * Every layer exposes `parameters()` for the optimiser.
//!
//! # Example
//!
//! ```
//! use peb_nn::{Linear, Adam, Optimizer, Parameterized};
//! use peb_tensor::{Tensor, Var};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let layer = Linear::new(4, 2, &mut rng);
//! let mut opt = Adam::new(1e-2);
//! let x = Var::constant(Tensor::ones(&[3, 4]));
//! let loss = layer.forward(&x).square().mean();
//! loss.backward();
//! opt.step(&layer.parameters());
//! ```

mod attention;
mod conv;
mod init;
mod linear;
mod mlp;
mod norm;
mod optim;
mod patch;

pub use attention::EfficientSelfAttention;
pub use conv::{Conv2d, Conv3d, ConvTranspose2d, DwConv3d};
pub use init::{kaiming_bound, kaiming_uniform, lecun_bound, lecun_uniform};
pub use linear::Linear;
pub use mlp::Mlp;
pub use norm::LayerNorm;
pub use optim::{Adam, OptimState, Optimizer, StepDecay};
pub use patch::OverlappedPatchEmbed;

use peb_tensor::Var;

/// Anything that owns trainable parameters.
pub trait Parameterized {
    /// All trainable parameters, in a stable order.
    fn parameters(&self) -> Vec<Var>;

    /// Total number of scalar weights.
    fn parameter_count(&self) -> usize {
        self.parameters().iter().map(|p| p.value().len()).sum()
    }
}
