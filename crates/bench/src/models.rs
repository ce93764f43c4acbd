//! Uniform construction and training of all compared models.

use std::path::{Path, PathBuf};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use peb_baselines::{
    DeePeb, DeePebConfig, DeepCnn, DeepCnnConfig, Fno, FnoConfig, TempoResist, TempoResistConfig,
};
use peb_data::Dataset;
use peb_guard::{Context, OptKind, TrainCheckpoint};
use peb_par::ctx::{process_env, read_var, ConfigError};
use sdm_peb::{
    checkpoint_params, restore_parameters, PebError, PebLoss, PebPredictor, SdmPeb, SdmPebConfig,
    TrainConfig, Trainer,
};

/// Which model (or SDM-PEB ablation) to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Residual CNN baseline (ref. \[41\]).
    DeepCnn,
    /// Slice-wise conditional generator baseline (ref. \[5\]).
    TempoResist,
    /// Fourier Neural Operator baseline (ref. \[19\]).
    Fno,
    /// FNO + local CNN baseline (ref. \[15\]).
    DeePeb,
    /// The full SDM-PEB model.
    SdmPeb,
    /// Table III row 1: first encoder stage only.
    SdmPebSingleStage,
    /// Table III row 2: bidirectional depth scans only.
    SdmPeb2dScan,
    /// Table III row 3: trained without the focal loss.
    SdmPebNoFocal,
    /// Table III row 4: trained without the divergence regulariser.
    SdmPebNoRegularization,
}

impl ModelKind {
    /// Stable slug for cache file names.
    pub fn slug(self) -> &'static str {
        match self {
            ModelKind::DeepCnn => "deepcnn",
            ModelKind::TempoResist => "tempo",
            ModelKind::Fno => "fno",
            ModelKind::DeePeb => "deepeb",
            ModelKind::SdmPeb => "sdmpeb",
            ModelKind::SdmPebSingleStage => "sdmpeb-single",
            ModelKind::SdmPeb2dScan => "sdmpeb-2d",
            ModelKind::SdmPebNoFocal => "sdmpeb-nofocal",
            ModelKind::SdmPebNoRegularization => "sdmpeb-noreg",
        }
    }

    /// The five Table II rows, in the paper's order.
    pub const TABLE2: [ModelKind; 5] = [
        ModelKind::DeepCnn,
        ModelKind::TempoResist,
        ModelKind::Fno,
        ModelKind::DeePeb,
        ModelKind::SdmPeb,
    ];

    /// The five Table III rows, in the paper's order.
    pub const TABLE3: [ModelKind; 5] = [
        ModelKind::SdmPebSingleStage,
        ModelKind::SdmPeb2dScan,
        ModelKind::SdmPebNoFocal,
        ModelKind::SdmPebNoRegularization,
        ModelKind::SdmPeb,
    ];

    /// Row label as printed in the paper.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::DeepCnn => "DeepCNN",
            ModelKind::TempoResist => "TEMPO-resist",
            ModelKind::Fno => "FNO",
            ModelKind::DeePeb => "DeePEB",
            ModelKind::SdmPeb => "SDM-PEB",
            ModelKind::SdmPebSingleStage => "Single Layer Encoder",
            ModelKind::SdmPeb2dScan => "2-D Scan",
            ModelKind::SdmPebNoFocal => "w/o. Focal Loss",
            ModelKind::SdmPebNoRegularization => "w/o. Regularization",
        }
    }

    /// The loss configuration this variant trains with (Eq. 22 plus the
    /// Table III loss ablations).
    pub fn loss(self) -> PebLoss {
        match self {
            ModelKind::SdmPebNoFocal => PebLoss::paper().without_focal(),
            ModelKind::SdmPebNoRegularization => PebLoss::paper().without_divergence(),
            _ => PebLoss::paper(),
        }
    }
}

/// Builds a model for `(D, H, W)` inputs with a deterministic per-kind
/// seed.
pub fn build_model(kind: ModelKind, dims: (usize, usize, usize)) -> Box<dyn PebPredictor> {
    let mut rng = StdRng::seed_from_u64(0xD0C5 + kind.label().len() as u64);
    match kind {
        ModelKind::DeepCnn => Box::new(DeepCnn::new(DeepCnnConfig::for_grid(dims), &mut rng)),
        ModelKind::TempoResist => Box::new(TempoResist::new(
            TempoResistConfig::for_grid(dims),
            &mut rng,
        )),
        ModelKind::Fno => Box::new(Fno::new(FnoConfig::for_grid(dims), &mut rng)),
        ModelKind::DeePeb => Box::new(DeePeb::new(DeePebConfig::for_grid(dims), &mut rng)),
        ModelKind::SdmPeb | ModelKind::SdmPebNoFocal | ModelKind::SdmPebNoRegularization => {
            Box::new(SdmPeb::new(SdmPebConfig::for_grid(dims), &mut rng))
        }
        ModelKind::SdmPebSingleStage => Box::new(SdmPeb::new(
            SdmPebConfig::for_grid(dims).single_stage(),
            &mut rng,
        )),
        ModelKind::SdmPeb2dScan => Box::new(SdmPeb::new(
            SdmPebConfig::for_grid(dims).scan_2d(),
            &mut rng,
        )),
    }
}

/// Fault-tolerance options for harness training runs, settable per
/// binary via `--checkpoint-dir <path>` / `--resume` CLI flags or the
/// `PEB_CKPT_DIR` / `PEB_RESUME` environment variables (flags win).
#[derive(Debug, Clone, Default)]
pub struct TrainOptions {
    /// Root directory for training checkpoints; each model checkpoints
    /// into a `<slug>-<epochs>ep/` subdirectory. `None` disables
    /// checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume each model from its newest valid checkpoint (requires
    /// `checkpoint_dir`; an empty directory falls back to training from
    /// scratch).
    pub resume: bool,
}

impl TrainOptions {
    /// Resolves `PEB_CKPT_DIR` / `PEB_RESUME` from `lookup`, or the
    /// [`ConfigError`] of the first rejected variable: pure, like
    /// `peb_par::ctx::ExecCtx::from_lookup`. `PEB_RESUME` is
    /// `1|true|on|0|false|off`. A variable that is set but empty counts
    /// as unset.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, ConfigError> {
        let checkpoint_dir = read_var(&lookup, "PEB_CKPT_DIR", "a directory path", |s| {
            Some(PathBuf::from(s))
        })?;
        let resume = read_var(
            &lookup,
            "PEB_RESUME",
            "1|true|on|0|false|off",
            |s| match s {
                "1" | "true" | "on" => Some(true),
                "0" | "false" | "off" => Some(false),
                _ => None,
            },
        )?;
        Ok(TrainOptions {
            checkpoint_dir,
            resume: resume.unwrap_or(false),
        })
    }

    /// [`TrainOptions::from_lookup`] over the process environment.
    pub fn from_env() -> Result<Self, ConfigError> {
        Self::from_lookup(process_env)
    }

    /// Applies `--checkpoint-dir <path>` (or `--checkpoint-dir=<path>`)
    /// and `--resume` from `args` (the process arguments after the
    /// program name) on top of `self`: flags win over the environment.
    pub fn with_args(mut self, args: impl IntoIterator<Item = String>) -> Result<Self, PebError> {
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if a == "--checkpoint-dir" {
                let v = args
                    .next()
                    .ok_or_else(|| PebError::config("--checkpoint-dir requires a path argument"))?;
                self.checkpoint_dir = Some(PathBuf::from(v));
            } else if let Some(v) = a.strip_prefix("--checkpoint-dir=") {
                self.checkpoint_dir = Some(PathBuf::from(v));
            } else if a == "--resume" {
                self.resume = true;
            }
        }
        if self.resume && self.checkpoint_dir.is_none() {
            return Err(PebError::config(
                "--resume requires --checkpoint-dir (or PEB_CKPT_DIR)",
            ));
        }
        Ok(self)
    }
}

/// A trained model with bookkeeping.
pub struct TrainedModel {
    /// Which variant this is.
    pub kind: ModelKind,
    /// The trained network.
    pub model: Box<dyn PebPredictor>,
    /// Wall-clock training time.
    pub train_time: Duration,
    /// Final training loss.
    pub final_loss: f32,
}

/// Weight-cache location for a trained model.
fn weight_cache_path(kind: ModelKind, dataset: &Dataset, epochs: usize) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("target");
    p.push("peb-cache");
    p.push(format!(
        "weights-{}-{}x{}x{}-{}ep.bin",
        kind.slug(),
        dataset.grid.nz,
        dataset.grid.ny,
        dataset.grid.nx,
        epochs
    ));
    p
}

/// Restores cached weights into `model`. The cache is a params-only
/// `PEBCKPT1` checkpoint, so a torn, stale or foreign file fails its CRC,
/// magic or shape check and leaves the model untouched.
fn restore_cached(model: &dyn PebPredictor, path: &Path) -> Result<(), PebError> {
    let ckpt = TrainCheckpoint::load(path)?;
    restore_parameters(model, &checkpoint_params(&ckpt)?)
}

/// Writes `model`'s weights as a params-only checkpoint (atomic, CRC'd).
fn save_cached(model: &dyn PebPredictor, path: &Path) -> Result<(), PebError> {
    TrainCheckpoint {
        epoch: 0,
        seed: 0,
        opt_kind: OptKind::Adam,
        opt_t: 0,
        lr_scale: 1.0,
        rollbacks: 0,
        epoch_stats: Vec::new(),
        params: model.parameters().iter().map(|p| p.value_clone()).collect(),
        opt_m: Vec::new(),
        opt_v: Vec::new(),
        quant: None,
    }
    .save(path)
}

/// Trains every requested model on the same data with the same budget
/// (the paper's "same train-test split … for a fair comparison").
///
/// Models are trained on standardised labels (see
/// [`peb_data::LabelStats`]); [`crate::evaluate_model`] destandardises
/// predictions with the same statistics before computing metrics.
/// Trained weights are cached under `target/peb-cache/` so every
/// table/figure binary shares one training run per configuration; delete
/// the cache (or change `PEB_EPOCHS`) to retrain. A rejected
/// `PEB_CKPT_DIR` / `PEB_RESUME` value is a [`PebError::Config`].
pub fn train_models(
    kinds: &[ModelKind],
    dataset: &Dataset,
    epochs: usize,
) -> Result<Vec<TrainedModel>, PebError> {
    let opts = TrainOptions::from_env().map_err(|e| PebError::config(e.to_string()))?;
    train_models_with(kinds, dataset, epochs, &opts)
}

/// [`train_models`] with explicit fault-tolerance options (checkpoint
/// directory and resume behaviour); the table/figure binaries feed their
/// CLI flags through here.
///
/// # Errors
///
/// Propagates any [`PebError`] from training — divergence with an
/// exhausted retry budget, checkpoint I/O failures, or a corrupt
/// checkpoint store on resume.
pub fn train_models_with(
    kinds: &[ModelKind],
    dataset: &Dataset,
    epochs: usize,
    opts: &TrainOptions,
) -> Result<Vec<TrainedModel>, PebError> {
    let dims = (dataset.grid.nz, dataset.grid.ny, dataset.grid.nx);
    let stats = peb_data::LabelStats::from_dataset(dataset);
    let pairs: Vec<_> = peb_data::augment_with_flips(&dataset.training_pairs())
        .into_iter()
        .map(|(acid, label)| (acid, stats.normalize(&label)))
        .collect();
    let mut out = Vec::with_capacity(kinds.len());
    for &kind in kinds {
        let model = build_model(kind, dims);
        let cache = weight_cache_path(kind, dataset, epochs);
        if restore_cached(model.as_ref(), &cache).is_ok() {
            eprintln!("[harness] {}: restored cached weights", kind.label());
            out.push(TrainedModel {
                kind,
                model,
                train_time: Duration::ZERO,
                final_loss: f32::NAN,
            });
            continue;
        }
        eprintln!(
            "[harness] training {} ({epochs} epochs on {} augmented clips)…",
            kind.label(),
            pairs.len()
        );
        let mut cfg = TrainConfig::quick(epochs);
        cfg.loss = kind.loss();
        cfg.guard.checkpoint_dir = opts
            .checkpoint_dir
            .as_ref()
            .map(|root| root.join(format!("{}-{epochs}ep", kind.slug())));
        let trainer = Trainer::new(cfg);
        let report = if opts.resume && trainer.config.guard.checkpoint_dir.is_some() {
            trainer.resume(model.as_ref(), &pairs)
        } else {
            trainer.fit(model.as_ref(), &pairs)
        }
        .with_ctx(|| format!("training {}", kind.label()))?;
        if let Some(epoch) = report.resumed_from {
            eprintln!(
                "[harness]   {}: resumed from checkpoint at epoch {epoch}",
                kind.label()
            );
        }
        eprintln!(
            "[harness]   {}: final loss {:.4} in {:.1?}",
            kind.label(),
            report.final_loss,
            report.elapsed
        );
        if let Err(e) = save_cached(model.as_ref(), &cache) {
            eprintln!("[harness] could not cache weights: {e}");
        }
        out.push(TrainedModel {
            kind,
            model,
            train_time: report.elapsed,
            final_loss: report.final_loss,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table<'a>(rows: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            rows.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        }
    }

    fn resolved(rows: &[(&str, &str)]) -> (Option<PathBuf>, bool) {
        let opts = TrainOptions::from_lookup(table(rows)).expect("valid");
        (opts.checkpoint_dir, opts.resume)
    }

    #[test]
    fn unset_empty_and_accepted_values_resolve() {
        assert_eq!(resolved(&[]), (None, false));
        // Set-but-empty counts as unset.
        assert_eq!(
            resolved(&[("PEB_CKPT_DIR", ""), ("PEB_RESUME", "")]),
            (None, false)
        );
        for (value, resume) in [
            ("1", true),
            ("true", true),
            ("on", true),
            ("0", false),
            ("false", false),
            ("off", false),
        ] {
            let rows = [("PEB_CKPT_DIR", "ckpt"), ("PEB_RESUME", value)];
            assert_eq!(
                resolved(&rows),
                (Some(PathBuf::from("ckpt")), resume),
                "{value}"
            );
        }
    }

    #[test]
    fn invalid_values_name_variable_value_and_accepted_set() {
        for (var, value) in [
            ("PEB_RESUME", "yes"),
            ("PEB_RESUME", "2"),
            ("PEB_RESUME", "ON"),
        ] {
            let err = TrainOptions::from_lookup(table(&[(var, value)])).expect_err(value);
            assert_eq!((err.var, err.value.as_str()), (var, value));
            assert!(err.to_string().contains(err.expected), "{err}");
        }
    }

    #[test]
    fn flags_win_over_the_environment() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let env = TrainOptions {
            checkpoint_dir: Some(PathBuf::from("env")),
            resume: false,
        };
        let opts = env
            .clone()
            .with_args(args(&["--checkpoint-dir=flag", "--resume"]))
            .expect("valid flags");
        assert_eq!(opts.checkpoint_dir, Some(PathBuf::from("flag")));
        assert!(opts.resume);
        let kept = env.with_args(args(&[])).expect("no flags");
        assert_eq!(kept.checkpoint_dir, Some(PathBuf::from("env")));
        let err = TrainOptions::default().with_args(args(&["--resume"]));
        assert!(err.is_err(), "--resume without a directory");
    }
}
