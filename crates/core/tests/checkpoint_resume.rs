//! Checkpoint/resume determinism and divergence-rollback behaviour.
//!
//! The headline guarantee of `peb-guard` + `Trainer`: killing a run after
//! any epoch and resuming from its checkpoint produces a trajectory
//! bitwise identical to the uninterrupted run — at any thread count and
//! at either dispatch level.
//! Chaos state and checkpoint directories are process-global, so every
//! test here serialises on one mutex.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use peb_guard::chaos::{self, Chaos};
use peb_guard::PebError;
use peb_par::ctx::{self, ExecCtx, Level};
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{SdmPeb, SdmPebConfig, TrainConfig, TrainReport, Trainer};

fn lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = M.get_or_init(|| Mutex::new(())).lock();
    match guard {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

const DIMS: (usize, usize, usize) = (2, 16, 16);

fn fresh_model() -> SdmPeb {
    let mut rng = StdRng::seed_from_u64(42);
    SdmPeb::new(SdmPebConfig::tiny(DIMS), &mut rng)
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
    let dir = std::env::temp_dir().join("peb_ckpt_resume_test").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn param_bits(model: &SdmPeb) -> Vec<Vec<u32>> {
    peb_nn::Parameterized::parameters(model)
        .iter()
        .map(|p| p.value().data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn loss_bits(report: &TrainReport) -> Vec<u32> {
    report.epoch_losses.iter().map(|l| l.to_bits()).collect()
}

/// Runs training uninterrupted, then replays the same run killed after
/// every single epoch (resuming each time from the latest checkpoint),
/// and demands bitwise-identical weights and loss history at the end.
/// The whole case runs under `scoped`.
fn kill_at_every_epoch_matches_uninterrupted(scoped: ExecCtx) {
    ctx::with(scoped, || kill_at_every_epoch_case(scoped))
}

fn kill_at_every_epoch_case(scoped: ExecCtx) {
    let epochs = 4;
    let data = toy_data();

    let baseline = fresh_model();
    let baseline_report = Trainer::new(config(epochs, None))
        .fit(&baseline, &data)
        .expect("uninterrupted run");

    let dir = temp_dir(&format!(
        "kill-every-epoch-{}-{}t",
        scoped.level.name(),
        scoped.threads
    ));
    let cfg = config(epochs, Some(dir.clone()));
    // Kill after each epoch's checkpoint in turn: epoch 1, 2, 3 — each
    // run dies, each subsequent run resumes exactly where it stopped.
    for kill_after in 1..epochs as u64 {
        chaos::arm(Chaos::Kill { epoch: kill_after });
        let model = fresh_model(); // "new process": fresh weights, restored from disk
        let err = Trainer::new(cfg.clone())
            .resume(&model, &data)
            .expect_err("armed kill must abort the run");
        assert!(
            matches!(err.root(), PebError::Injected { .. }),
            "expected injected kill, got {err}"
        );
    }
    chaos::disarm();
    let survivor = fresh_model();
    let final_report = Trainer::new(cfg)
        .resume(&survivor, &data)
        .expect("final resume");

    assert_eq!(
        final_report.resumed_from,
        Some(epochs - 1),
        "the last kill stopped after epoch {}",
        epochs - 1
    );
    assert_eq!(
        loss_bits(&baseline_report),
        loss_bits(&final_report),
        "loss history must be bitwise identical"
    );
    assert_eq!(
        param_bits(&baseline),
        param_bits(&survivor),
        "weights must be bitwise identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_resume_is_bitwise_identical_single_thread() {
    let _g = lock();
    kill_at_every_epoch_matches_uninterrupted(ExecCtx {
        threads: 1,
        ..ctx::current()
    });
}

#[test]
fn kill_resume_is_bitwise_identical_four_threads() {
    let _g = lock();
    kill_at_every_epoch_matches_uninterrupted(ExecCtx {
        threads: 4,
        ..ctx::current()
    });
}

#[test]
fn kill_resume_is_bitwise_identical_with_scalar_kernels() {
    let _g = lock();
    kill_at_every_epoch_matches_uninterrupted(ExecCtx {
        level: Level::Scalar,
        threads: 1,
        ..ctx::current()
    });
}

#[test]
fn nan_spike_rolls_back_and_converges() {
    let _g = lock();
    let data = toy_data();
    // Reference: the same run without any fault.
    let clean = fresh_model();
    let clean_report = Trainer::new(config(3, None))
        .fit(&clean, &data)
        .expect("clean run");

    chaos::arm(Chaos::NanSpike { epoch: 1 });
    let model = fresh_model();
    let report = Trainer::new(config(3, None))
        .fit(&model, &data)
        .expect("run must recover from the spike");
    chaos::disarm();

    assert_eq!(report.rollbacks, 1, "exactly one rollback expected");
    assert_eq!(report.epochs.len(), 3);
    for p in peb_nn::Parameterized::parameters(&model) {
        assert!(
            p.value().data().iter().all(|v| v.is_finite()),
            "weights must be finite after rollback"
        );
    }
    // The retried epochs run at a backed-off LR, so the trajectory
    // differs from the clean run — but it must still train.
    assert!(
        report.final_loss.is_finite() && report.final_loss < report.epoch_losses[0],
        "loss must still decrease: {:?}",
        report.epoch_losses
    );
    assert!(clean_report.final_loss.is_finite());
}

#[test]
fn exhausted_retry_budget_is_a_divergence_error() {
    let _g = lock();
    let data = toy_data();
    let mut cfg = config(2, None);
    cfg.guard.max_retries = 0;
    chaos::arm(Chaos::NanSpike { epoch: 0 });
    let model = fresh_model();
    let err = Trainer::new(cfg)
        .fit(&model, &data)
        .expect_err("no retries: the spike must be fatal");
    chaos::disarm();
    match err.root() {
        PebError::Divergence { rollbacks, .. } => assert_eq!(*rollbacks, 0),
        other => panic!("expected Divergence, got {other}"),
    }
}

#[test]
fn resume_with_wrong_seed_is_rejected() {
    let _g = lock();
    let data = toy_data();
    let dir = temp_dir("wrong-seed");
    let cfg = config(2, Some(dir.clone()));
    let model = fresh_model();
    Trainer::new(cfg.clone())
        .fit(&model, &data)
        .expect("seed run");

    let mut other = cfg;
    other.seed += 1;
    let resumed = fresh_model();
    let err = Trainer::new(other)
        .resume(&resumed, &data)
        .expect_err("different seed cannot reproduce the trajectory");
    assert!(
        matches!(err.root(), PebError::Config { .. }),
        "expected Config error, got {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoints_are_pruned_to_the_keep_budget() {
    let _g = lock();
    let data = toy_data();
    let dir = temp_dir("prune");
    let mut cfg = config(5, Some(dir.clone()));
    cfg.guard.keep_checkpoints = 2;
    let model = fresh_model();
    Trainer::new(cfg).fit(&model, &data).expect("run");
    let epochs = peb_guard::list_checkpoints(&dir);
    assert_eq!(epochs, vec![5, 4], "newest two checkpoints retained");
    std::fs::remove_dir_all(&dir).ok();
}
