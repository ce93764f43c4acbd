//! Fault-injection scenarios, drivable from the environment.
//!
//! Run directly (`cargo test -p sdm-peb --test chaos_suite`) every
//! scenario arms its fault programmatically. With `PEB_CHAOS` set (as in
//! the CI chaos matrix: `nan-spike`, `truncate-ckpt`, `kill-resume`,
//! `truncate-data`), only the matching scenario runs and the fault
//! arrives through the real environment latch in `peb_guard::chaos` —
//! exercising the exact path an operator would use against a production
//! run. A set `PEB_CHAOS` that does not parse fails every scenario, so a
//! typo in the matrix cannot pass by skipping them all.
//!
//! Chaos state is process-global and one-shot, so scenarios serialise on
//! a mutex and re-arm explicitly where they need more than one fault.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use peb_guard::chaos::{self, Chaos};
use peb_guard::PebError;
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{TrainConfig, Trainer};

fn lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    match M.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// `Some(tag)` when `PEB_CHAOS` selects a single scenario for this
/// process; `None` when unset (every scenario arms itself).
fn env_scenario() -> Option<String> {
    std::env::var("PEB_CHAOS").ok()
}

/// True when this scenario should run: either the env selects it (the
/// fault then arrives via the env latch) or no scenario is selected (the
/// test arms `fault` itself).
fn engage(tag: &str, fault: Chaos) -> bool {
    let env = env_scenario();
    if let Some(s) = &env {
        assert!(
            chaos::parse(s).is_some(),
            "PEB_CHAOS={s:?} does not parse: no scenario would run"
        );
    }
    match env {
        Some(s) if s.split(':').next() == Some(tag) => true, // env latch armed
        Some(_) => false,                                    // another scenario's process
        None => {
            chaos::arm(fault);
            true
        }
    }
}

const DIMS: (usize, usize, usize) = (2, 16, 16);

fn fresh_model() -> sdm_peb::SdmPeb {
    let mut rng = StdRng::seed_from_u64(42);
    sdm_peb::SdmPeb::new(sdm_peb::SdmPebConfig::tiny(DIMS), &mut rng)
}

fn toy_data() -> Vec<(Tensor, Tensor)> {
    (0..4)
        .map(|s| {
            let mut r = StdRng::seed_from_u64(1000 + s);
            let acid = Tensor::rand_uniform(&[DIMS.0, DIMS.1, DIMS.2], 0.0, 0.9, &mut r);
            let label = acid.map(|a| 1.5 * a - 0.4);
            (acid, label)
        })
        .collect()
}

fn config(epochs: usize, dir: Option<PathBuf>) -> TrainConfig {
    let mut cfg = TrainConfig::quick(epochs);
    cfg.accumulate = 2;
    cfg.guard.checkpoint_dir = dir;
    cfg
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("peb_chaos_suite").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// `PEB_CHAOS=nan-spike`: a NaN poisons the weights mid-epoch; the
/// divergence sentinel must roll back, retry with a smaller LR, and the
/// run must still converge — visible in the `guard_rollbacks` counter.
#[test]
fn scenario_nan_spike() {
    let _g = lock();
    if !engage("nan-spike", Chaos::NanSpike { epoch: 1 }) {
        return;
    }
    // Counters only tick while tracing is on.
    peb_obs::set_mode(peb_obs::TraceMode::Json);
    peb_obs::reset();
    let model = fresh_model();
    let report = Trainer::new(config(3, None))
        .fit(&model, &toy_data())
        .expect("run must recover from the NaN spike");
    chaos::disarm();

    let rollback_count = peb_obs::counter_value(peb_obs::Counter::GuardRollbacks);
    let retry_count = peb_obs::counter_value(peb_obs::Counter::GuardRetries);
    peb_obs::reset();
    peb_obs::set_mode(peb_obs::TraceMode::Off);
    assert_eq!(report.rollbacks, 1);
    assert_eq!(rollback_count, 1, "rollback must be counted");
    assert_eq!(retry_count, 1);
    for p in peb_nn::Parameterized::parameters(&model) {
        assert!(p.value().data().iter().all(|v| v.is_finite()));
    }
    assert!(
        report.final_loss < report.epoch_losses[0],
        "{:?}",
        report.epoch_losses
    );
}

/// `PEB_CHAOS=truncate-ckpt`: the first checkpoint written is truncated
/// on disk. The run itself is unaffected; a later resume must detect the
/// damage via CRC, fall back past it, and degrade to a typed error only
/// when *no* checkpoint survives.
#[test]
fn scenario_truncate_ckpt() {
    let _g = lock();
    if !engage("truncate-ckpt", Chaos::TruncateCkpt { bytes: 16 }) {
        return;
    }
    let dir = temp_dir("truncate-ckpt");
    let data = toy_data();
    let cfg = config(2, Some(dir.clone()));
    let model = fresh_model();
    let report = Trainer::new(cfg.clone())
        .fit(&model, &data)
        .expect("truncation must not fail the writing run");
    chaos::disarm();

    // Both checkpoints exist on disk; epoch 1's is truncated.
    assert_eq!(peb_guard::list_checkpoints(&dir), vec![2, 1]);
    assert!(peb_guard::TrainCheckpoint::load(&peb_guard::checkpoint_path(&dir, 1)).is_err());

    // Resume: the valid epoch-2 checkpoint is newest, training is
    // already complete, history must match the original bitwise.
    let resumed = fresh_model();
    let resumed_report = Trainer::new(cfg.clone())
        .resume(&resumed, &data)
        .expect("resume from the surviving checkpoint");
    assert_eq!(resumed_report.resumed_from, Some(2));
    let bits = |r: &sdm_peb::TrainReport| -> Vec<u32> {
        r.epoch_losses.iter().map(|l| l.to_bits()).collect()
    };
    assert_eq!(bits(&report), bits(&resumed_report));

    // Corrupt the survivor too: resume must fail with a typed Corrupt
    // error, not a panic.
    let newest = peb_guard::checkpoint_path(&dir, 2);
    let mut bytes = std::fs::read(&newest).expect("read ckpt");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).expect("rewrite ckpt");
    let err = Trainer::new(cfg)
        .resume(&fresh_model(), &data)
        .expect_err("all checkpoints corrupt");
    assert!(err.is_corrupt(), "expected Corrupt, got {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `PEB_CHAOS=kill-resume`: the process dies right after the first
/// epoch's checkpoint; a fresh process resumes and must land on exactly
/// the uninterrupted trajectory.
#[test]
fn scenario_kill_resume() {
    let _g = lock();
    if !engage("kill-resume", Chaos::Kill { epoch: 1 }) {
        return;
    }
    let data = toy_data();
    let baseline = fresh_model();
    let baseline_report = Trainer::new(config(2, None))
        .fit(&baseline, &data)
        .expect("uninterrupted run");

    let dir = temp_dir("kill-resume");
    let cfg = config(2, Some(dir.clone()));
    let err = Trainer::new(cfg.clone())
        .fit(&fresh_model(), &data)
        .expect_err("armed kill must abort");
    assert!(matches!(err.root(), PebError::Injected { .. }), "{err}");
    chaos::disarm();

    let survivor = fresh_model();
    let report = Trainer::new(cfg)
        .resume(&survivor, &data)
        .expect("resume after kill");
    assert_eq!(report.resumed_from, Some(1));
    let bits = |r: &sdm_peb::TrainReport| -> Vec<u32> {
        r.epoch_losses.iter().map(|l| l.to_bits()).collect()
    };
    assert_eq!(bits(&baseline_report), bits(&report));
    for (a, b) in peb_nn::Parameterized::parameters(&baseline)
        .iter()
        .zip(peb_nn::Parameterized::parameters(&survivor))
    {
        assert_eq!(
            a.value()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.value()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "weights must be bitwise identical after kill/resume"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `PEB_CHAOS=truncate-data`: a freshly saved dataset cache is truncated;
/// the loader must reject it as corrupt (its callers then regenerate).
#[test]
fn scenario_truncate_data() {
    let _g = lock();
    if !engage("truncate-data", Chaos::TruncateData { bytes: 64 }) {
        return;
    }
    let mut grid = peb_litho::Grid::small();
    grid.nz = 3;
    let mut dcfg = peb_data::DatasetConfig::for_grid(grid, 2, 1);
    dcfg.seed = 11;
    let ds = peb_data::Dataset::generate(&dcfg).expect("generate");
    let dir = temp_dir("truncate-data");
    let path = dir.join("chaos-data.bin");
    peb_data::save_dataset(&ds, &path).expect("save (chaos truncates after write)");
    chaos::disarm();

    let err = peb_data::load_dataset(&path).expect_err("the truncated cache must not load");
    assert!(err.is_corrupt(), "expected Corrupt, got {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// When the counters are pinned by name in CI dashboards, renames break
/// alerting silently — keep the guard counter names stable.
#[test]
fn guard_counter_names_are_stable() {
    let profile = peb_obs::snapshot();
    for name in [
        "guard_skipped_batches",
        "guard_rollbacks",
        "guard_retries",
        "guard_checkpoints",
    ] {
        assert!(
            profile.counters.iter().any(|c| c.name == name),
            "missing counter {name}"
        );
    }
}
