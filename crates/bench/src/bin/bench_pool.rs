//! Measures the `peb-pool` buffer pool and the `peb-fft` plan cache on
//! the Table I micro pipeline, and emits `BENCH_pool.json`.
//!
//! One "step" is the full workload the pool was built for: the rigorous
//! lithography chain (aerial image FFT convolution → PEB ADI →
//! development) followed by one SDM-PEB training step (forward, Eq. 22
//! loss, backward, Adam update). The benchmark runs the step loop twice —
//! pool disabled, pool enabled — and reports wall time, fresh tensor
//! allocations per step, pool hit rates and FFT plan-cache hits, plus
//! bitwise-identity verdicts for pooled-vs-unpooled and 1-vs-4-thread
//! runs of the same pipeline.

use std::time::Instant;

use peb_litho::{Grid, LithoFlow, MaskConfig};
use peb_nn::{Adam, Optimizer, Parameterized};
use peb_obs::TraceMode;
use peb_par::ctx::{self, ExecCtx};
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{LabelTransform, PebLoss, PebPredictor, SdmPeb, SdmPebConfig};

const STEPS: usize = 15;
const MODEL_SEED: u64 = 1;

fn micro_grid() -> Grid {
    Grid::new(16, 16, 4, 8.0, 8.0, 20.0).expect("micro grid")
}

/// One full pipeline step; returns the prediction so identity checks can
/// compare outputs.
fn step(grid: Grid, model: &SdmPeb, loss: &PebLoss, opt: &mut Adam) -> Tensor {
    let clip = MaskConfig::demo(grid.nx).generate(1).expect("clip");
    let sim = LithoFlow::new(grid).run(&clip).expect("rigorous chain");
    let label = LabelTransform::paper().encode(&sim.inhibitor);
    let params = model.parameters();
    params.iter().for_each(|p| p.zero_grad());
    let pred = model.forward_train(&sim.acid0);
    loss.combined(&pred, &label).backward();
    opt.step(&params);
    pred.value_clone()
}

/// Runs `STEPS` pipeline steps from a fresh model and returns
/// `(wall_seconds, final_prediction, counters)`.
fn run_config(pool: bool, threads: usize) -> (f64, Tensor, peb_obs::Profile) {
    let scoped = ExecCtx {
        pool,
        threads,
        ..ctx::current()
    };
    ctx::with(scoped, run_steps)
}

fn run_steps() -> (f64, Tensor, peb_obs::Profile) {
    let grid = micro_grid();
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let model = SdmPeb::new(SdmPebConfig::tiny((grid.nz, grid.ny, grid.nx)), &mut rng);
    let loss = PebLoss::paper();
    let mut opt = Adam::new(1e-3);
    // Warm-up step: populates pools and FFT plan caches so the measured
    // loop reflects steady state, which is what training runs see.
    let _ = step(grid, &model, &loss, &mut opt);
    peb_obs::reset();
    let start = Instant::now();
    let mut last = None;
    for _ in 0..STEPS {
        last = Some(step(grid, &model, &loss, &mut opt));
    }
    let wall = start.elapsed().as_secs_f64();
    (wall, last.expect("at least one step"), peb_obs::snapshot())
}

fn bits_identical(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn main() {
    let exec = ctx::init_or_exit();
    // Counters only tick while tracing is on; summary mode is reverted
    // before exit so no trace file or table is emitted as a side effect.
    peb_obs::set_mode(TraceMode::Summary);

    let (wall_off, pred_off, prof_off) = run_config(false, 1);
    let (wall_on, pred_on, prof_on) = run_config(true, 1);
    let (wall_on4, pred_on4, _) = run_config(true, 4);

    let allocs_off = prof_off.counter("tensor_allocs") as f64 / STEPS as f64;
    let allocs_on = prof_on.counter("tensor_allocs") as f64 / STEPS as f64;
    let pool_hits = prof_on.counter("pool_hits");
    let pool_misses = prof_on.counter("pool_misses");
    let plan_hits = prof_on.counter("fft_plan_hits");
    let alloc_reduction = allocs_off / allocs_on.max(1.0);
    let identical_pooling = bits_identical(&pred_off, &pred_on);
    let identical_threads = bits_identical(&pred_on, &pred_on4);

    println!("== peb-pool benchmark (table1 micro pipeline, {STEPS} steps) ==");
    println!("  wall time   pool off: {wall_off:.3}s   pool on: {wall_on:.3}s   pool on ×4 threads: {wall_on4:.3}s");
    println!("  tensor_allocs/step   off: {allocs_off:.0}   on: {allocs_on:.0}   ({alloc_reduction:.1}× reduction)");
    println!(
        "  pool hit rate: {:.1}% ({pool_hits} hits, {pool_misses} misses)   fft plan hits: {plan_hits}",
        100.0 * pool_hits as f64 / (pool_hits + pool_misses).max(1) as f64
    );
    println!("  bitwise identical — pooled vs unpooled: {identical_pooling}, 1 vs 4 threads: {identical_threads}");
    assert!(
        identical_pooling && identical_threads,
        "pooling or threading changed the numbers"
    );
    assert!(
        alloc_reduction >= 10.0,
        "allocation reduction {alloc_reduction:.1}× is below the 10× budget"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": \"table1 micro: litho chain + sdm-peb train step\",\n",
            "  \"exec\": {},\n",
            "  \"steps\": {},\n",
            "  \"wall_seconds_pool_off\": {:.6},\n",
            "  \"wall_seconds_pool_on\": {:.6},\n",
            "  \"wall_seconds_pool_on_4_threads\": {:.6},\n",
            "  \"tensor_allocs_per_step_pool_off\": {:.1},\n",
            "  \"tensor_allocs_per_step_pool_on\": {:.1},\n",
            "  \"alloc_reduction_factor\": {:.2},\n",
            "  \"pool_hits\": {},\n",
            "  \"pool_misses\": {},\n",
            "  \"fft_plan_hits\": {},\n",
            "  \"bitwise_identical_pool_on_vs_off\": {},\n",
            "  \"bitwise_identical_1_vs_4_threads\": {}\n",
            "}}\n"
        ),
        exec.to_json(),
        STEPS,
        wall_off,
        wall_on,
        wall_on4,
        allocs_off,
        allocs_on,
        alloc_reduction,
        pool_hits,
        pool_misses,
        plan_hits,
        identical_pooling,
        identical_threads,
    );
    std::fs::write("BENCH_pool.json", &json).expect("write BENCH_pool.json");
    println!("  wrote BENCH_pool.json");
    peb_obs::set_mode(TraceMode::Off);
}
