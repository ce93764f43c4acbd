//! Measures the cost of the `peb-guard` fault-tolerance layer on the
//! training loop and emits `BENCH_guard.json`.
//!
//! Two identical tiny SDM-PEB training runs — checkpointing off and
//! checkpointing every epoch — establish the end-to-end overhead, then
//! the checkpoint encode/save and load/decode paths are timed directly
//! against the real on-disk artifact. The benchmark asserts that (a) the
//! checkpointed run reproduces the plain run bitwise (the guard layer
//! must be numerically invisible) and (b) one atomic checkpoint write
//! costs less than 5% of one training epoch.

use std::path::PathBuf;
use std::time::Instant;

use peb_guard::{checkpoint_path, list_checkpoints, TrainCheckpoint};
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{SdmPeb, SdmPebConfig, TrainConfig, TrainReport, Trainer};

const EPOCHS: usize = 6;
const SAVE_REPS: usize = 20;
const DIMS: (usize, usize, usize) = (2, 16, 16);

fn fresh_model() -> SdmPeb {
    let mut rng = StdRng::seed_from_u64(42);
    SdmPeb::new(SdmPebConfig::tiny(DIMS), &mut rng)
}

fn toy_data() -> Vec<(Tensor, Tensor)> {
    (0..16)
        .map(|s| {
            let mut r = StdRng::seed_from_u64(1000 + s);
            let acid = Tensor::rand_uniform(&[DIMS.0, DIMS.1, DIMS.2], 0.0, 0.9, &mut r);
            let label = acid.map(|a| 1.5 * a - 0.4);
            (acid, label)
        })
        .collect()
}

fn run_fit(dir: Option<PathBuf>) -> (f64, TrainReport) {
    let mut cfg = TrainConfig::quick(EPOCHS);
    cfg.accumulate = 2;
    cfg.guard.checkpoint_dir = dir;
    cfg.guard.checkpoint_every = 1;
    let model = fresh_model();
    let data = toy_data();
    let start = Instant::now();
    let report = Trainer::new(cfg).fit(&model, &data).expect("training run");
    (start.elapsed().as_secs_f64(), report)
}

fn loss_bits(r: &TrainReport) -> Vec<u32> {
    r.epoch_losses.iter().map(|l| l.to_bits()).collect()
}

fn main() {
    let exec = peb_par::ctx::init_or_exit();
    let dir = std::env::temp_dir().join(format!("peb_bench_guard_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");

    let (wall_off, report_off) = run_fit(None);
    let (wall_on, report_on) = run_fit(Some(dir.clone()));

    let identical = loss_bits(&report_off) == loss_bits(&report_on);
    let mean_epoch = wall_off / EPOCHS as f64;

    // Time the checkpoint encode+atomic-write and read+decode paths
    // directly on the newest real artifact of the run above.
    let newest = *list_checkpoints(&dir).first().expect("checkpoints written");
    let ckpt_file = checkpoint_path(&dir, newest);
    let ckpt_bytes = std::fs::metadata(&ckpt_file).expect("ckpt metadata").len();
    let ckpt = TrainCheckpoint::load(&ckpt_file).expect("load newest checkpoint");

    let scratch = dir.join("bench-save.bin");
    let start = Instant::now();
    for _ in 0..SAVE_REPS {
        ckpt.save(&scratch).expect("timed save");
    }
    let mean_save = start.elapsed().as_secs_f64() / SAVE_REPS as f64;
    let start = Instant::now();
    for _ in 0..SAVE_REPS {
        let _ = TrainCheckpoint::load(&scratch).expect("timed load");
    }
    let mean_load = start.elapsed().as_secs_f64() / SAVE_REPS as f64;
    std::fs::remove_dir_all(&dir).ok();

    let overhead = mean_save / mean_epoch;
    println!("== peb-guard benchmark (tiny SDM-PEB, {EPOCHS} epochs) ==");
    println!("  wall time   ckpt off: {wall_off:.3}s   ckpt every epoch: {wall_on:.3}s");
    println!(
        "  mean epoch: {:.3}ms   checkpoint save: {:.3}ms   load: {:.3}ms   ({ckpt_bytes} bytes)",
        1e3 * mean_epoch,
        1e3 * mean_save,
        1e3 * mean_load
    );
    println!(
        "  checkpoint overhead: {:.2}% of one epoch   bitwise identical on vs off: {identical}",
        100.0 * overhead
    );
    assert!(identical, "checkpointing changed the training trajectory");
    assert!(
        overhead < 0.05,
        "checkpoint save {:.3}ms exceeds 5% of epoch time {:.3}ms",
        1e3 * mean_save,
        1e3 * mean_epoch
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": \"tiny sdm-peb training, checkpoint every epoch\",\n",
            "  \"exec\": {},\n",
            "  \"epochs\": {},\n",
            "  \"wall_seconds_ckpt_off\": {:.6},\n",
            "  \"wall_seconds_ckpt_on\": {:.6},\n",
            "  \"mean_epoch_seconds\": {:.6},\n",
            "  \"mean_checkpoint_save_seconds\": {:.6},\n",
            "  \"mean_checkpoint_load_seconds\": {:.6},\n",
            "  \"checkpoint_bytes\": {},\n",
            "  \"checkpoint_overhead_fraction_of_epoch\": {:.6},\n",
            "  \"bitwise_identical_ckpt_on_vs_off\": {}\n",
            "}}\n"
        ),
        exec.to_json(),
        EPOCHS,
        wall_off,
        wall_on,
        mean_epoch,
        mean_save,
        mean_load,
        ckpt_bytes,
        overhead,
        identical,
    );
    std::fs::write("BENCH_guard.json", &json).expect("write BENCH_guard.json");
    println!("  wrote BENCH_guard.json");
}
