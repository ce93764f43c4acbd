//! Dataset preparation with on-disk caching.

use std::path::PathBuf;

use peb_data::{load_dataset, save_dataset, Dataset, ExperimentScale};
use peb_guard::{Context, PebError};
use peb_litho::LithoFlow;

/// Cache directory for generated datasets (`target/peb-cache`).
fn cache_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // workspace root
    p.push("target");
    p.push("peb-cache");
    p
}

/// Generates (or loads from cache) the dataset for a scale preset.
///
/// The rigorous solves take the bulk of the harness time; the cache makes
/// every subsequent table/figure binary start instantly. A cache that
/// fails to load (damaged, truncated, or an older format) is reported
/// and regenerated, never trusted and never fatal.
///
/// # Errors
///
/// Returns a typed [`PebError`] when dataset generation fails or the
/// cache directory cannot be created.
pub fn prepare_dataset(scale: ExperimentScale) -> Result<Dataset, PebError> {
    let dir = cache_dir();
    std::fs::create_dir_all(&dir).with_ctx(|| format!("creating cache dir {}", dir.display()))?;
    let path = dir.join(format!("dataset-{}.bin", scale.name()));
    if path.exists() {
        match load_dataset(&path) {
            Ok(ds) => {
                eprintln!("[harness] loaded cached dataset {}", path.display());
                return Ok(ds);
            }
            Err(e) => eprintln!("[harness] cache unreadable ({e}); regenerating"),
        }
    }
    eprintln!(
        "[harness] generating {} dataset ({} train / {} test clips) — rigorous solves…",
        scale.name(),
        scale.dataset_config().n_train,
        scale.dataset_config().n_test
    );
    let ds = Dataset::generate(&scale.dataset_config())
        .map_err(PebError::from)
        .ctx("dataset generation")?;
    if let Err(e) = save_dataset(&ds, &path) {
        eprintln!("[harness] could not cache dataset: {e}");
    }
    Ok(ds)
}

/// The rigorous flow matching a scale preset (used to develop model
/// predictions into profiles/CDs).
pub fn prepare_flow(scale: ExperimentScale) -> LithoFlow {
    LithoFlow::new(scale.grid())
}
