//! Dataset generation via the rigorous simulator.

use std::time::Duration;

use peb_litho::{ContactCd, Grid, LithoFlow, MaskClip, MaskConfig};
use peb_tensor::Tensor;
use sdm_peb::LabelTransform;

/// One supervised sample: everything the models and metrics need.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The mask clip this sample was simulated from.
    pub clip: MaskClip,
    /// Initial photoacid `[A]₀` (model input), `[D, H, W]`.
    pub acid0: Tensor,
    /// Rigorous final inhibitor `[I]` (ground truth), `[D, H, W]`.
    pub inhibitor: Tensor,
    /// Label-space target `Y = −ln(−ln([I]) / k_c)`.
    pub label: Tensor,
    /// Ground-truth contact CDs from the rigorous profile.
    pub cds: Vec<ContactCd>,
    /// Wall-clock time of the rigorous PEB solve for this sample.
    pub rigorous_peb_time: Duration,
}

/// Dataset generation configuration.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Simulation grid.
    pub grid: Grid,
    /// Training samples.
    pub n_train: usize,
    /// Held-out test samples.
    pub n_test: usize,
    /// Base seed; sample `i` uses `seed + i` (train/test splits never
    /// overlap because test seeds continue after train seeds — the fixed
    /// split shared by all methods, as the paper requires for fairness).
    pub seed: u64,
    /// Mask generator settings.
    pub mask: MaskConfig,
}

impl DatasetConfig {
    /// Default configuration for a grid.
    pub fn for_grid(grid: Grid, n_train: usize, n_test: usize) -> Self {
        DatasetConfig {
            grid,
            n_train,
            n_test,
            seed: 1000,
            mask: MaskConfig::demo(grid.nx),
        }
    }
}

/// A generated train/test dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Simulation grid shared by all samples.
    pub grid: Grid,
    /// Training samples.
    pub train: Vec<Sample>,
    /// Test samples.
    pub test: Vec<Sample>,
}

impl Dataset {
    /// Generates a dataset by running the rigorous flow per clip.
    ///
    /// # Errors
    ///
    /// Propagates litho-simulation errors.
    pub fn generate(cfg: &DatasetConfig) -> peb_litho::Result<Self> {
        let flow = LithoFlow::new(cfg.grid);
        let label = LabelTransform {
            kc: flow.peb.kc,
            ..LabelTransform::paper()
        };
        let make = |seed: u64| -> peb_litho::Result<Sample> {
            let clip = cfg.mask.generate(seed)?;
            let sim = flow.run(&clip)?;
            Ok(Sample {
                label: label.encode(&sim.inhibitor),
                acid0: sim.acid0,
                inhibitor: sim.inhibitor,
                cds: sim.cds,
                rigorous_peb_time: sim.peb_elapsed,
                clip,
            })
        };
        let mut train = Vec::with_capacity(cfg.n_train);
        for i in 0..cfg.n_train {
            train.push(make(cfg.seed + i as u64)?);
        }
        let mut test = Vec::with_capacity(cfg.n_test);
        for i in 0..cfg.n_test {
            test.push(make(cfg.seed + (cfg.n_train + i) as u64)?);
        }
        Ok(Dataset {
            grid: cfg.grid,
            train,
            test,
        })
    }

    /// `(acid, label)` pairs for the trainer.
    pub fn training_pairs(&self) -> Vec<(Tensor, Tensor)> {
        self.train
            .iter()
            .map(|s| (s.acid0.clone(), s.label.clone()))
            .collect()
    }

    /// Mean rigorous PEB solve time across all samples (the "S-Litho"
    /// runtime column of the speedup comparison).
    pub fn mean_rigorous_peb_time(&self) -> Duration {
        let all: Vec<&Sample> = self.train.iter().chain(self.test.iter()).collect();
        if all.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = all.iter().map(|s| s.rigorous_peb_time).sum();
        total / all.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DatasetConfig {
        let mut grid = Grid::small();
        grid.nz = 4;
        let mut cfg = DatasetConfig::for_grid(grid, 2, 1);
        cfg.seed = 77;
        cfg
    }

    #[test]
    fn generate_produces_consistent_samples() {
        let ds = Dataset::generate(&small_cfg()).expect("test value");
        assert_eq!(ds.train.len(), 2);
        assert_eq!(ds.test.len(), 1);
        for s in ds.train.iter().chain(&ds.test) {
            assert_eq!(s.acid0.shape(), &ds.grid.shape3());
            assert_eq!(s.label.shape(), &ds.grid.shape3());
            // Label transform must invert back to the inhibitor.
            let decoded = LabelTransform::paper().decode(&s.label);
            assert!(decoded.max_abs_diff(&s.inhibitor) < 1e-3);
            assert!(!s.cds.is_empty());
        }
    }

    #[test]
    fn train_and_test_differ() {
        let ds = Dataset::generate(&small_cfg()).expect("test value");
        assert_ne!(ds.train[0].acid0, ds.test[0].acid0);
        assert_ne!(ds.train[0].clip.seed, ds.test[0].clip.seed);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate(&small_cfg()).expect("test value");
        let b = Dataset::generate(&small_cfg()).expect("test value");
        assert_eq!(a.train[0].acid0, b.train[0].acid0);
        assert_eq!(a.train[0].label, b.train[0].label);
    }

    #[test]
    fn training_pairs_match_samples() {
        let ds = Dataset::generate(&small_cfg()).expect("test value");
        let pairs = ds.training_pairs();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, ds.train[0].acid0);
        assert_eq!(pairs[1].1, ds.train[1].label);
    }
}

/// Standardisation statistics of the label space, computed on the
/// training split.
///
/// The raw label `Y = −ln(−ln([I])/k_c)` spans roughly `[−3, 14]`, which
/// destabilises small-budget training; every model in the harness is
/// trained on `(Y − mean) / std` and predictions are destandardised
/// before metrics. This is a training-convenience reparameterisation
/// only — the loss terms still act on the paper's label space geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelStats {
    /// Mean of the training labels.
    pub mean: f32,
    /// Standard deviation of the training labels (≥ 1e-6).
    pub std: f32,
}

impl LabelStats {
    /// Computes statistics over the training split.
    ///
    /// # Panics
    ///
    /// Panics on an empty training split.
    pub fn from_dataset(ds: &Dataset) -> Self {
        assert!(!ds.train.is_empty(), "LabelStats needs training samples");
        let mut sum = 0f64;
        let mut count = 0usize;
        for s in &ds.train {
            sum += s.label.data().iter().map(|&v| v as f64).sum::<f64>();
            count += s.label.len();
        }
        let mean = (sum / count as f64) as f32;
        let mut var = 0f64;
        for s in &ds.train {
            var += s
                .label
                .data()
                .iter()
                .map(|&v| ((v - mean) as f64).powi(2))
                .sum::<f64>();
        }
        let std = ((var / count as f64).sqrt() as f32).max(1e-6);
        LabelStats { mean, std }
    }

    /// `(t − mean) / std` elementwise.
    pub fn normalize(&self, t: &Tensor) -> Tensor {
        let (m, s) = (self.mean, self.std);
        t.map(|v| (v - m) / s)
    }

    /// `t · std + mean` elementwise.
    pub fn denormalize(&self, t: &Tensor) -> Tensor {
        let (m, s) = (self.mean, self.std);
        t.map(|v| v * s + m)
    }
}

#[cfg(test)]
mod label_stats_tests {
    use super::*;

    #[test]
    fn standardisation_roundtrip_and_moments() {
        let mut grid = Grid::small();
        grid.nz = 3;
        let cfg = DatasetConfig::for_grid(grid, 2, 1);
        let ds = Dataset::generate(&cfg).expect("test value");
        let stats = LabelStats::from_dataset(&ds);
        assert!(stats.std > 0.0);
        let t = &ds.train[0].label;
        let back = stats.denormalize(&stats.normalize(t));
        assert!(back.max_abs_diff(t) < 1e-3);
        // Normalised training labels have ~zero mean overall.
        let mut total = 0f64;
        let mut n = 0usize;
        for s in &ds.train {
            let z = stats.normalize(&s.label);
            total += z.data().iter().map(|&v| v as f64).sum::<f64>();
            n += z.len();
        }
        assert!((total / n as f64).abs() < 1e-3);
    }
}

/// Expands `(acid, label)` pairs with the grid's mirror symmetries:
/// identity, x-flip, y-flip and both. The PEB physics is equivariant
/// under these (zero-flux boundaries, isotropic lateral diffusion), so
/// this quadruples the effective training set for free — the standard
/// lithography-ML augmentation.
pub fn augment_with_flips(pairs: &[(Tensor, Tensor)]) -> Vec<(Tensor, Tensor)> {
    let mut out = Vec::with_capacity(pairs.len() * 4);
    for (acid, label) in pairs {
        out.push((acid.clone(), label.clone()));
        // Axis 2 = x, axis 1 = y for [D, H, W] volumes.
        let fx = |t: &Tensor| t.flip_axis(2).expect("x flip");
        let fy = |t: &Tensor| t.flip_axis(1).expect("y flip");
        out.push((fx(acid), fx(label)));
        out.push((fy(acid), fy(label)));
        out.push((fy(&fx(acid)), fy(&fx(label))));
    }
    out
}

#[cfg(test)]
mod augment_tests {
    use super::*;

    #[test]
    fn quadruples_and_preserves_statistics() {
        let a = Tensor::from_fn(&[2, 3, 4], |i| i as f32);
        let l = a.mul_scalar(2.0);
        let aug = augment_with_flips(&[(a.clone(), l)]);
        assert_eq!(aug.len(), 4);
        for (acid, label) in &aug {
            assert_eq!(acid.shape(), a.shape());
            assert!((acid.sum() - a.sum()).abs() < 1e-3);
            // Label stays locked to its acid under the same transform.
            assert!(label.approx_eq(&acid.mul_scalar(2.0), 1e-5));
        }
        // The flipped variants differ from the original.
        assert_ne!(aug[1].0, aug[0].0);
        assert_ne!(aug[2].0, aug[0].0);
    }
}
