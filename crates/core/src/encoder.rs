//! One hierarchical encoder stage (paper Fig. 2, left-to-right blocks).
//!
//! A stage consists of depthwise overlapped patch merging (spatial
//! downsampling, depth preserved), then a transformer-style block:
//! per-depth-level efficient spatial self-attention, a feed-forward
//! network, and the spatial-depthwise Mamba unit — each pre-normalised
//! and residual.

use rand::Rng;

use peb_mamba::{SdmUnit, SdmUnitConfig};
use peb_nn::{EfficientSelfAttention, LayerNorm, Mlp, OverlappedPatchEmbed, Parameterized};
use peb_tensor::Var;

/// Configuration of one encoder stage.
#[derive(Debug, Clone)]
pub struct EncoderStageConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Output (embedding) channels.
    pub out_channels: usize,
    /// Patch-merging kernel (larger than the stride ⇒ overlapped).
    pub patch_kernel: usize,
    /// Patch-merging stride (spatial downsampling factor).
    pub patch_stride: usize,
    /// Attention heads.
    pub heads: usize,
    /// Attention sequence-reduction ratio `r` (Eq. 15); must divide the
    /// per-depth-level token count `H'·W'`.
    pub reduction: usize,
    /// FFN hidden width multiplier.
    pub mlp_ratio: usize,
    /// SSM state dimension of the SDM unit.
    pub ssm_state: usize,
    /// Use only the bidirectional depth scans (Table III "2-D Scan").
    pub scan_2d: bool,
    /// Include the SDM unit at all (architecture exploration switch).
    pub use_sdm: bool,
    /// Overlapped (kernel > stride) vs non-overlapped patch merging — the
    /// Fig. 3 comparison.
    pub overlapped: bool,
}

/// One encoder stage.
pub struct EncoderStage {
    embed: OverlappedPatchEmbed,
    norm_attn: LayerNorm,
    attn: EfficientSelfAttention,
    norm_ffn: LayerNorm,
    ffn: Mlp,
    norm_sdm: LayerNorm,
    sdm: Option<SdmUnit>,
    config: EncoderStageConfig,
}

impl EncoderStage {
    /// Builds a stage.
    pub fn new(config: EncoderStageConfig, rng: &mut impl Rng) -> Self {
        let c = config.out_channels;
        let sdm = config.use_sdm.then(|| {
            let mut cfg = SdmUnitConfig::new(c, c, config.ssm_state);
            if config.scan_2d {
                cfg = cfg.bidirectional_2d();
            }
            SdmUnit::new(cfg, rng)
        });
        let kernel = if config.overlapped {
            config.patch_kernel
        } else {
            config.patch_stride
        };
        EncoderStage {
            embed: OverlappedPatchEmbed::new(
                config.in_channels,
                c,
                kernel,
                config.patch_stride,
                rng,
            ),
            norm_attn: LayerNorm::new(c),
            attn: EfficientSelfAttention::new(c, config.heads, config.reduction, rng),
            norm_ffn: LayerNorm::new(c),
            ffn: Mlp::new(c, c * config.mlp_ratio, rng),
            norm_sdm: LayerNorm::new(c),
            sdm,
            config,
        }
    }

    /// Stage configuration.
    pub fn config(&self) -> &EncoderStageConfig {
        &self.config
    }

    /// Processes `[C_in, D, H, W]` into `[C_out, D, H', W']`.
    ///
    /// # Panics
    ///
    /// Panics on channel mismatches or when the reduction ratio does not
    /// divide the downsampled plane size.
    pub fn forward(&self, x: &Var) -> Var {
        let e = self.embed.forward(x); // [C, D, H', W']
        let es = e.shape();
        let (c, d, h, w) = (es[0], es[1], es[2], es[3]);
        let l = d * h * w;
        // Token sequence view: [L, C] with depth-major order.
        let mut seq = e.reshape(&[c, l]).permute(&[1, 0]);
        // Per-depth-level spatial self-attention with shared weights.
        let normed = self.norm_attn.forward(&seq);
        seq = seq.add(&self.attn.forward_planes(&normed, d));
        // Feed-forward (position-wise, so the full sequence at once).
        seq = seq.add(&self.ffn.forward(&self.norm_ffn.forward(&seq)));
        // Spatial-depthwise Mamba unit over the volume.
        if let Some(sdm) = &self.sdm {
            seq = seq.add(&sdm.forward(&self.norm_sdm.forward(&seq), (d, h, w)));
        }
        // Back to volume layout.
        seq.permute(&[1, 0]).reshape(&[c, d, h, w])
    }
}

impl Parameterized for EncoderStage {
    fn parameters(&self) -> Vec<Var> {
        let mut p = Vec::new();
        p.extend(self.embed.parameters());
        p.extend(self.norm_attn.parameters());
        p.extend(self.attn.parameters());
        p.extend(self.norm_ffn.parameters());
        p.extend(self.ffn.parameters());
        p.extend(self.norm_sdm.parameters());
        if let Some(sdm) = &self.sdm {
            p.extend(sdm.parameters());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stage_config() -> EncoderStageConfig {
        EncoderStageConfig {
            in_channels: 1,
            out_channels: 8,
            patch_kernel: 3,
            patch_stride: 2,
            heads: 2,
            reduction: 4,
            mlp_ratio: 2,
            ssm_state: 4,
            scan_2d: false,
            use_sdm: true,
            overlapped: true,
        }
    }

    #[test]
    fn stage_downsamples_space_only() {
        let mut rng = StdRng::seed_from_u64(80);
        let stage = EncoderStage::new(stage_config(), &mut rng);
        let x = Var::constant(Tensor::randn(&[1, 3, 8, 8], &mut rng));
        let y = stage.forward(&x);
        assert_eq!(y.shape(), vec![8, 3, 4, 4]);
        assert!(y.value().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn no_sdm_variant_runs_and_is_smaller() {
        let mut rng = StdRng::seed_from_u64(81);
        let mut cfg = stage_config();
        cfg.use_sdm = false;
        let without = EncoderStage::new(cfg, &mut rng);
        let with = EncoderStage::new(stage_config(), &mut rng);
        assert!(without.parameter_count() < with.parameter_count());
        let x = Var::constant(Tensor::ones(&[1, 2, 4, 4]));
        assert_eq!(without.forward(&x).shape(), vec![8, 2, 2, 2]);
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let mut rng = StdRng::seed_from_u64(82);
        let stage = EncoderStage::new(stage_config(), &mut rng);
        let x = Var::constant(Tensor::randn(&[1, 2, 4, 4], &mut rng));
        stage.forward(&x).square().sum().backward();
        let missing = stage
            .parameters()
            .iter()
            .filter(|p| p.grad().is_none())
            .count();
        assert_eq!(missing, 0);
    }
}
