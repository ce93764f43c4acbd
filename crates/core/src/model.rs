//! The assembled SDM-PEB model (paper Fig. 2).

use rand::Rng;

use peb_nn::{DwConv3d, Parameterized};
use peb_tensor::{Tensor, Var};

use crate::decoder::Decoder;
use crate::encoder::{EncoderStage, EncoderStageConfig};
use crate::fusion::FeatureFusion;
use crate::solver::PebPredictor;

/// Full-model hyper-parameters.
///
/// The paper's production configuration (strides `[8,2,2,2]`, dims
/// `[64,128,320,512]`, reductions `[64,16,4,1]`, fusion 768) targets
/// 1000×1000×80 GPU inputs; the constructors here scale the same shape to
/// CPU-size grids while preserving the architecture.
#[derive(Debug, Clone)]
pub struct SdmPebConfig {
    /// Input volume `(D, H, W)`.
    pub input_dims: (usize, usize, usize),
    /// Channels per encoder stage.
    pub stage_channels: Vec<usize>,
    /// Patch-merging kernels per stage.
    pub patch_kernels: Vec<usize>,
    /// Patch-merging strides per stage.
    pub patch_strides: Vec<usize>,
    /// Attention heads per stage.
    pub heads: Vec<usize>,
    /// Attention reduction ratios per stage (Eq. 15).
    pub reductions: Vec<usize>,
    /// FFN width multiplier.
    pub mlp_ratio: usize,
    /// SSM state dimension in every SDM unit.
    pub ssm_state: usize,
    /// Fusion channel width.
    pub fusion_dim: usize,
    /// Fusion MLP hidden width (paper: 768 at production scale).
    pub fusion_hidden: usize,
    /// Table III ablation: use only the first encoder stage.
    pub single_stage: bool,
    /// Table III ablation: bidirectional depth scans only.
    pub scan_2d: bool,
    /// Disable SDM units entirely (exploration switch).
    pub use_sdm: bool,
    /// Overlapped patch merging (Fig. 3a) vs non-overlapped (Fig. 3b).
    pub overlapped: bool,
}

impl SdmPebConfig {
    /// Experiment-scale configuration for a `(D, H, W)` grid with
    /// power-of-two `H = W ≥ 32`.
    ///
    /// The paper's stage-1 stride of 8 is relative to 1000-pixel inputs
    /// (a 125-px finest latent); scaled CPU grids use stride 4.
    pub fn for_grid(input_dims: (usize, usize, usize)) -> Self {
        let (_, h, _) = input_dims;
        let (k0, s0) = (7usize, 4usize);
        // Keep the finest-stage attention cost bounded: reduce the
        // sequence by roughly (H/8)² at stage 1.
        let r0 = ((h / s0) * (h / s0) / 64).max(1);
        // Use up to four stages, stopping while the plane still has at
        // least one pixel (small demo grids get fewer stages).
        let channels_full = [12usize, 24, 36, 48];
        let heads_full = [1usize, 2, 4, 4];
        let mut stage_channels = Vec::new();
        let mut patch_kernels = Vec::new();
        let mut patch_strides = Vec::new();
        let mut heads = Vec::new();
        let mut reductions = Vec::new();
        let mut plane = h;
        for i in 0..4 {
            let stride = if i == 0 { s0 } else { 2 };
            if plane % stride != 0 || plane / stride == 0 {
                break;
            }
            plane /= stride;
            stage_channels.push(channels_full[i]);
            patch_kernels.push(if i == 0 { k0 } else { 3 });
            patch_strides.push(stride);
            heads.push(heads_full[i]);
            reductions.push(if i == 0 {
                r0.min(plane * plane)
            } else if plane * plane % 4 == 0 {
                4
            } else {
                1
            });
        }
        SdmPebConfig {
            input_dims,
            stage_channels,
            patch_kernels,
            patch_strides,
            heads,
            reductions,
            mlp_ratio: 2,
            ssm_state: 8,
            fusion_dim: 32,
            fusion_hidden: 96,
            single_stage: false,
            scan_2d: false,
            use_sdm: true,
            overlapped: true,
        }
    }

    /// Minimal two-stage configuration for unit tests and doc examples
    /// (`H = W ≥ 16`).
    pub fn tiny(input_dims: (usize, usize, usize)) -> Self {
        SdmPebConfig {
            input_dims,
            stage_channels: vec![6, 12],
            patch_kernels: vec![3, 3],
            patch_strides: vec![2, 2],
            heads: vec![1, 2],
            reductions: vec![4, 1],
            mlp_ratio: 2,
            ssm_state: 4,
            fusion_dim: 12,
            fusion_hidden: 24,
            single_stage: false,
            scan_2d: false,
            use_sdm: true,
            overlapped: true,
        }
    }

    /// Table III "Single Layer Encoder" ablation.
    pub fn single_stage(mut self) -> Self {
        self.single_stage = true;
        self
    }

    /// Table III "2-D Scan" ablation.
    pub fn scan_2d(mut self) -> Self {
        self.scan_2d = true;
        self
    }

    /// Fig. 3(a)→(b) design-choice ablation: non-overlapped patch merging.
    #[cfg(test)]
    fn non_overlapped(mut self) -> Self {
        self.overlapped = false;
        self
    }

    fn stage_count(&self) -> usize {
        if self.single_stage {
            1
        } else {
            self.stage_channels.len()
        }
    }

    /// Checks that the model this configuration describes can be built:
    /// one entry per stage in every per-stage list, non-zero strides and
    /// reductions, and every stage's stride and attention reduction
    /// dividing the plane it sees.
    ///
    /// # Errors
    ///
    /// Returns the first failed check, naming the offending field or
    /// stage.
    pub fn check(&self) -> Result<(), String> {
        let n = self.stage_channels.len();
        if n == 0 {
            return Err("need at least one stage".into());
        }
        for (name, len) in [
            ("patch_kernels", self.patch_kernels.len()),
            ("patch_strides", self.patch_strides.len()),
            ("heads", self.heads.len()),
            ("reductions", self.reductions.len()),
        ] {
            if len != n {
                return Err(format!("{name} must have one entry per stage"));
            }
        }
        let (_, mut hh, mut ww) = self.input_dims;
        for i in 0..self.stage_count() {
            let (s, r) = (self.patch_strides[i], self.reductions[i]);
            if s == 0 {
                return Err(format!("patch_strides[{i}] must be positive"));
            }
            if r == 0 {
                return Err(format!("reductions[{i}] must be positive"));
            }
            if hh % s != 0 || ww % s != 0 {
                return Err(format!("stride {s} does not divide stage {i} input"));
            }
            hh /= s;
            ww /= s;
            if (hh * ww) % r != 0 {
                return Err(format!(
                    "reduction {r} does not divide plane {hh}×{ww} at stage {i}"
                ));
            }
        }
        Ok(())
    }
}

/// The SDM-PEB network.
pub struct SdmPeb {
    stem: DwConv3d,
    stages: Vec<EncoderStage>,
    fusion: FeatureFusion,
    decoder: Decoder,
    config: SdmPebConfig,
}

impl SdmPeb {
    /// Builds the model from a configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`SdmPebConfig::check`]'s message if the
    /// configuration cannot be built.
    pub fn new(config: SdmPebConfig, rng: &mut impl Rng) -> Self {
        if let Err(why) = config.check() {
            panic!("{why}");
        }
        let n = config.stage_count();
        let mut stages = Vec::with_capacity(n);
        for i in 0..n {
            stages.push(EncoderStage::new(
                EncoderStageConfig {
                    in_channels: if i == 0 {
                        1
                    } else {
                        config.stage_channels[i - 1]
                    },
                    out_channels: config.stage_channels[i],
                    patch_kernel: config.patch_kernels[i],
                    patch_stride: config.patch_strides[i],
                    heads: config.heads[i],
                    reduction: config.reductions[i],
                    mlp_ratio: config.mlp_ratio,
                    ssm_state: config.ssm_state,
                    scan_2d: config.scan_2d,
                    use_sdm: config.use_sdm,
                    overlapped: config.overlapped,
                },
                rng,
            ));
        }
        let fusion = FeatureFusion::new(
            &config.stage_channels[..n],
            config.fusion_dim,
            config.fusion_hidden,
            rng,
        );
        // Full-resolution skip: raw input + stem features (2 channels).
        let decoder = Decoder::new(config.fusion_dim, config.patch_strides[0], 2, rng);
        SdmPeb {
            stem: DwConv3d::new(1, 3, rng),
            stages,
            fusion,
            decoder,
            config,
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &SdmPebConfig {
        &self.config
    }

    /// Differentiable forward pass: photoacid `[D, H, W]` → label-space
    /// prediction `[D, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if `acid` does not match the configured input dimensions.
    pub fn forward(&self, acid: &Tensor) -> Var {
        let (d, h, w) = self.config.input_dims;
        assert_eq!(acid.shape(), [d, h, w], "input dims mismatch");
        let input = Var::constant(acid.reshape(&[1, d, h, w]).expect("input reshape"));
        self.forward_inner(&input)
    }

    /// Differentiable forward pass from a graph node, for callers that
    /// need gradients **with respect to the input** (ILT mask
    /// optimisation): pass the photoacid as a `Var::parameter` and its
    /// `grad()` is populated by `backward()`. [`SdmPeb::forward`]
    /// wraps the input in a constant, which cannot receive gradients.
    ///
    /// # Panics
    ///
    /// Panics if `acid` does not match the configured input dimensions.
    pub fn forward_var(&self, acid: &Var) -> Var {
        let (d, h, w) = self.config.input_dims;
        assert_eq!(acid.shape(), [d, h, w], "input dims mismatch");
        let input = acid.reshape(&[1, d, h, w]);
        self.forward_inner(&input)
    }

    fn forward_inner(&self, input: &Var) -> Var {
        let _span = peb_obs::span("model.forward");
        let x = self.stem.forward(input);
        let skip = Var::concat(&[&x, input], 0);
        let mut features = Vec::with_capacity(self.stages.len());
        let mut cur = x;
        for stage in &self.stages {
            cur = stage.forward(&cur);
            features.push(cur.clone());
        }
        let fused = self.fusion.forward(&features);
        self.decoder.forward(&fused, Some(&skip))
    }
}

impl Parameterized for SdmPeb {
    fn parameters(&self) -> Vec<Var> {
        let mut p = self.stem.parameters();
        for s in &self.stages {
            p.extend(s.parameters());
        }
        p.extend(self.fusion.parameters());
        p.extend(self.decoder.parameters());
        p
    }
}

impl PebPredictor for SdmPeb {
    fn name(&self) -> &'static str {
        "SDM-PEB"
    }

    fn forward_train(&self, acid: &Tensor) -> Var {
        self.forward(acid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tiny_model_end_to_end_shape() {
        let mut rng = StdRng::seed_from_u64(100);
        let model = SdmPeb::new(SdmPebConfig::tiny((4, 16, 16)), &mut rng);
        let acid = Tensor::rand_uniform(&[4, 16, 16], 0.0, 0.9, &mut rng);
        let y = model.forward(&acid);
        assert_eq!(y.shape(), vec![4, 16, 16]);
        assert!(y.value().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ablations_change_model_size() {
        let mut rng = StdRng::seed_from_u64(101);
        let full = SdmPeb::new(SdmPebConfig::tiny((4, 16, 16)), &mut rng);
        let single = SdmPeb::new(SdmPebConfig::tiny((4, 16, 16)).single_stage(), &mut rng);
        let bi = SdmPeb::new(SdmPebConfig::tiny((4, 16, 16)).scan_2d(), &mut rng);
        assert!(single.parameter_count() < full.parameter_count());
        assert!(bi.parameter_count() < full.parameter_count());
        assert_eq!(single.stages.len(), 1);
    }

    #[test]
    fn training_step_reduces_loss_on_single_sample() {
        use crate::loss::PebLoss;
        use peb_nn::{Adam, Optimizer};
        let mut rng = StdRng::seed_from_u64(102);
        let model = SdmPeb::new(SdmPebConfig::tiny((2, 16, 16)), &mut rng);
        let acid = Tensor::rand_uniform(&[2, 16, 16], 0.0, 0.9, &mut rng);
        let target = acid.map(|a| 1.5 - a); // simple smooth mapping
        let loss_fn = PebLoss::paper();
        let params = model.parameters();
        let mut opt = Adam::new(3e-3);
        let initial = loss_fn
            .combined(&model.forward(&acid), &target)
            .value()
            .item();
        for _ in 0..8 {
            opt.zero_grad(&params);
            let loss = loss_fn.combined(&model.forward(&acid), &target);
            loss.backward();
            opt.step(&params);
        }
        let after = loss_fn
            .combined(&model.forward(&acid), &target)
            .value()
            .item();
        assert!(
            after < initial * 0.9,
            "loss did not drop: {initial} -> {after}"
        );
    }

    #[test]
    #[should_panic(expected = "input dims")]
    fn rejects_wrong_input_shape() {
        let mut rng = StdRng::seed_from_u64(103);
        let model = SdmPeb::new(SdmPebConfig::tiny((4, 16, 16)), &mut rng);
        model.forward(&Tensor::zeros(&[2, 8, 8]));
    }

    #[test]
    fn config_validation_catches_bad_reduction() {
        let mut cfg = SdmPebConfig::tiny((4, 16, 16));
        cfg.reductions = vec![3, 1]; // 3 does not divide 64
        let result = std::panic::catch_unwind(|| {
            let mut rng = StdRng::seed_from_u64(104);
            SdmPeb::new(cfg, &mut rng)
        });
        assert!(result.is_err());
    }
}

#[cfg(test)]
mod overlap_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn non_overlapped_variant_runs_and_differs() {
        let mut rng = StdRng::seed_from_u64(120);
        let acid = Tensor::rand_uniform(&[2, 16, 16], 0.0, 0.9, &mut rng);
        let over = SdmPeb::new(SdmPebConfig::tiny((2, 16, 16)), &mut rng);
        let non = SdmPeb::new(SdmPebConfig::tiny((2, 16, 16)).non_overlapped(), &mut rng);
        let yo = over.forward(&acid);
        let yn = non.forward(&acid);
        assert_eq!(yo.shape(), yn.shape());
        // Overlapped kernels are strictly larger, so the embedding has
        // more weights.
        assert!(over.parameter_count() > non.parameter_count());
    }
}
