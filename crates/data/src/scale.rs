//! Experiment-size presets driven by the `PEB_SCALE` / `PEB_EPOCHS`
//! environment variables.

use peb_litho::Grid;
use peb_par::ctx::{process_env, read_var, ConfigError};

use crate::dataset::DatasetConfig;

/// Experiment scale used by every benchmark binary.
///
/// The paper's setting (100 clips of 1000×1000×80 voxels, 500 epochs on
/// two RTX 3090s) is far beyond a CI-sized CPU budget, so the harness
/// exposes three presets; all architecture and physics settings are
/// identical across them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// 32×32×8 grid, 12 train / 4 test clips, 60 epochs. Default.
    Tiny,
    /// 64×64×16 grid, 24 train / 8 test clips, 40 epochs.
    Small,
    /// 128×128×32 grid, 60 train / 20 test clips, 80 epochs.
    Full,
}

impl ExperimentScale {
    /// Resolves the preset and the training epochs from `lookup`, or the
    /// [`ConfigError`] of the first rejected variable: pure, like
    /// `peb_par::ctx::ExecCtx::from_lookup`. `PEB_SCALE` is `tiny` (the
    /// default), `small` or `full`; `PEB_EPOCHS`, a positive integer,
    /// overrides the preset's [`ExperimentScale::epochs`]. A variable
    /// that is set but empty counts as unset.
    pub fn from_lookup(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<(Self, usize), ConfigError> {
        let scale = read_var(&lookup, "PEB_SCALE", "tiny|small|full", |s| match s {
            "tiny" => Some(ExperimentScale::Tiny),
            "small" => Some(ExperimentScale::Small),
            "full" => Some(ExperimentScale::Full),
            _ => None,
        })?
        .unwrap_or(ExperimentScale::Tiny);
        let epochs = read_var(&lookup, "PEB_EPOCHS", "a positive integer", |s| {
            s.parse::<usize>().ok().filter(|&n| n > 0)
        })?;
        Ok((scale, epochs.unwrap_or_else(|| scale.epochs())))
    }

    /// [`ExperimentScale::from_lookup`] over the process environment.
    pub fn from_env() -> Result<(Self, usize), ConfigError> {
        Self::from_lookup(process_env)
    }

    /// The simulation grid of this preset.
    pub fn grid(self) -> Grid {
        match self {
            ExperimentScale::Tiny => Grid::new(32, 32, 8, 4.0, 4.0, 10.0),
            ExperimentScale::Small => Grid::new(64, 64, 16, 4.0, 4.0, 5.0),
            ExperimentScale::Full => Grid::new(128, 128, 32, 2.0, 2.0, 2.5),
        }
        .expect("preset grids are valid")
    }

    /// Dataset configuration (sizes + seed) of this preset.
    pub fn dataset_config(self) -> DatasetConfig {
        let (train, test) = match self {
            ExperimentScale::Tiny => (12, 4),
            ExperimentScale::Small => (24, 8),
            ExperimentScale::Full => (60, 20),
        };
        DatasetConfig::for_grid(self.grid(), train, test)
    }

    /// Default training epochs of this preset (`PEB_EPOCHS` overrides
    /// them through [`ExperimentScale::from_lookup`]).
    pub fn epochs(self) -> usize {
        match self {
            ExperimentScale::Tiny => 60,
            ExperimentScale::Small => 40,
            ExperimentScale::Full => 80,
        }
    }

    /// Preset name for file naming and logs.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentScale::Tiny => "tiny",
            ExperimentScale::Small => "small",
            ExperimentScale::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        for s in [
            ExperimentScale::Tiny,
            ExperimentScale::Small,
            ExperimentScale::Full,
        ] {
            let g = s.grid();
            assert_eq!(g.thickness_nm(), 80.0, "{s:?} resist thickness");
            let cfg = s.dataset_config();
            assert!(cfg.n_train > cfg.n_test);
            assert!(s.epochs() >= 8);
            assert!(!s.name().is_empty());
        }
    }

    fn table<'a>(rows: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            rows.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn tiny_is_the_default() {
        let tiny = (ExperimentScale::Tiny, 60);
        assert_eq!(ExperimentScale::from_lookup(table(&[])), Ok(tiny));
        // Set-but-empty counts as unset.
        let empty = [("PEB_SCALE", ""), ("PEB_EPOCHS", "")];
        assert_eq!(ExperimentScale::from_lookup(table(&empty)), Ok(tiny));
        let set = [("PEB_SCALE", "small"), ("PEB_EPOCHS", "3")];
        assert_eq!(
            ExperimentScale::from_lookup(table(&set)),
            Ok((ExperimentScale::Small, 3))
        );
    }

    #[test]
    fn invalid_values_name_variable_value_and_accepted_set() {
        for (var, value) in [
            ("PEB_SCALE", "smal"),
            ("PEB_SCALE", "Tiny"),
            ("PEB_EPOCHS", "0"),
            ("PEB_EPOCHS", "abc"),
            ("PEB_EPOCHS", "-4"),
        ] {
            let err = ExperimentScale::from_lookup(table(&[(var, value)])).expect_err(value);
            assert_eq!((err.var, err.value.as_str()), (var, value));
            assert!(err.to_string().contains(&err.expected), "{err}");
        }
    }
}

#[cfg(test)]
mod epoch_override_tests {
    #[test]
    fn default_epochs_are_positive_without_override() {
        for s in [
            super::ExperimentScale::Tiny,
            super::ExperimentScale::Small,
            super::ExperimentScale::Full,
        ] {
            assert!(s.epochs() > 0);
        }
    }
}
