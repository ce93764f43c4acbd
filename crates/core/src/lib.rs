//! SDM-PEB: Spatial-Depthwise Mamba for Enhanced Post-Exposure Bake
//! Simulation — the paper's primary contribution.
//!
//! Given a 3-D photoacid distribution `[A]₀` (from exposure), the model
//! predicts the post-bake inhibitor distribution `[I]` in the
//! log-transformed label space `Y = −ln(−ln([I]) / k_c)` used by DeePEB
//! and this paper. The architecture (Fig. 2):
//!
//! 1. a depthwise 3-D stem convolution;
//! 2. a hierarchical encoder of up to four stages, each built from
//!    overlapped patch merging, efficient spatial self-attention
//!    (Eq. 15), a feed-forward network and a spatial-depthwise
//!    Mamba-based attention unit (Fig. 5);
//! 3. multi-scale feature fusion (upsample + concat + MLP);
//! 4. a transposed-convolution decoder back to full resolution.
//!
//! Training minimises `L = L_MaxSE + α·L_PEB-FL + β·L_Div` (Eq. 22) with
//! the paper's α = 1.0, β = 0.1, γ = 1, τ = 0.1.
//!
//! # Example
//!
//! ```
//! use sdm_peb::{SdmPeb, SdmPebConfig, PebPredictor};
//! use peb_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let cfg = SdmPebConfig::tiny((8, 16, 16)); // D, H, W
//! let model = SdmPeb::new(cfg, &mut rng);
//! let acid = Tensor::full(&[8, 16, 16], 0.3);
//! let y = model.predict(&acid); // label-space prediction
//! assert_eq!(y.shape(), &[8, 16, 16]);
//! ```

mod decoder;
mod encoder;
mod fusion;
mod label;
mod loss;
mod metrics;
mod model;
mod plan;
pub mod quant;
mod solver;
mod train;

pub use decoder::Decoder;
pub use encoder::{EncoderStage, EncoderStageConfig};
pub use fusion::FeatureFusion;
pub use label::LabelTransform;
pub use loss::PebLoss;
pub use metrics::{cd_error_nm, cd_histogram, nrmse, rmse, ssim, CdErrorStats, CD_BUCKET_LABELS};
pub use model::{SdmPeb, SdmPebConfig};
pub use peb_guard::{PebError, Result};
pub use plan::InferPlan;
pub use quant::{checkpoint_params, quantize_checkpoint, QuantBudgets, QuantReport};
pub use solver::{restore_parameters, PebPredictor};
pub use train::{EpochStats, GuardConfig, TrainConfig, TrainReport, Trainer};
