//! `predict_offline`: the paper's product. One `SdmPeb::predict` on a
//! 32×128×128 photoacid volume, in process, sequential, unique clips.
//! Kernel-bound (nn / mamba / tensor / simd / par), working set far
//! beyond L2, no serving code at all.

use std::time::Duration;

use peb_litho::Grid;
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{PebPredictor, SdmPeb, SdmPebConfig};

use super::{
    check_golden, metric, run_sequential, Args, Metric, Traced, Window, Workload, COMPUTE_THREADS,
};
use crate::golden::{self, Probe};
use crate::inputs::{mask, mask_seed, photoacid, CANARY_SEED};
use crate::json::{obj, Json};
use crate::layers;
use crate::trace;

pub const DIMS: (usize, usize, usize) = (32, 128, 128);
pub const WEIGHT_SEED: u64 = 42;
const WARMUP_OPS: usize = 3;
/// One output in this many is recomputed at one thread and bit-compared.
const REPLAY_EVERY: usize = 16;

pub fn grid() -> Grid {
    let (d, h, w) = DIMS;
    // 4 nm pixels, 80 nm resist.
    Grid::new(w, h, d, 4.0, 4.0, 80.0 / d as f32).expect("static grid is valid")
}

pub fn model(dims: (usize, usize, usize)) -> SdmPeb {
    let mut rng = StdRng::seed_from_u64(WEIGHT_SEED);
    SdmPeb::new(SdmPebConfig::for_grid(dims), &mut rng)
}

pub struct PredictOffline {
    model: SdmPeb,
    clips: Vec<Tensor>,
    cursor: usize,
    outputs: Vec<Tensor>,
    canary_failures: Vec<String>,
    /// Wall time of the first warm-up op: a `predict` on a cold pool.
    first_predict_ms: f64,
}

impl PredictOffline {
    pub fn setup(args: &Args) -> Result<Self, String> {
        let grid = grid();
        // Enough unique clips for an op 2.5× faster than today's.
        let n_clips = (args.seconds * 2.5).ceil() as usize + 2;
        let clips = (0..n_clips)
            .map(|i| photoacid(&grid, &mask(&grid, mask_seed(args.seed, i))))
            .collect();
        let model = model(DIMS);

        let mut first_predict_ms = 0.0;
        let probes: Vec<Probe> = (0..WARMUP_OPS)
            .map(|i| {
                let canary = photoacid(&grid, &mask(&grid, mask_seed(CANARY_SEED, i)));
                let t = std::time::Instant::now();
                let y = model.predict(&canary);
                if i == 0 {
                    first_predict_ms = t.elapsed().as_secs_f64() * 1e3;
                }
                Probe::of(y.data())
            })
            .collect();
        let measured = obj([
            ("workload", Json::Str("predict_offline".into())),
            (
                "canaries",
                Json::Arr(probes.iter().map(Probe::to_json).collect()),
            ),
        ]);
        let canary_failures = check_golden(args, "predict_offline", measured, |want| {
            let want = want
                .get("canaries")
                .and_then(Json::as_arr)
                .filter(|w| w.len() == probes.len())
                .ok_or("golden file lacks 3 \"canaries\"")?;
            for (i, (p, g)) in probes.iter().zip(want).enumerate() {
                p.matches(&Probe::from_json(g)?, golden::VOLUME_TOL)
                    .map_err(|e| format!("clip {i}: {e}"))?;
            }
            Ok(())
        })?;
        Ok(PredictOffline {
            model,
            clips,
            cursor: 0,
            outputs: Vec::new(),
            canary_failures,
            first_predict_ms,
        })
    }
}

impl Workload for PredictOffline {
    fn window(&mut self, dur: Duration) -> Window {
        let Self {
            model,
            clips,
            cursor,
            outputs,
            ..
        } = self;
        run_sequential(dur, || {
            let clip = clips.get(*cursor)?;
            let y = trace::in_span("core.predict", *cursor as u64, || model.predict(clip));
            *cursor += 1;
            outputs.push(y);
            Some(true)
        })
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = self.canary_failures.clone();
        let (d, h, w) = DIMS;
        for (i, y) in self.outputs.iter().enumerate() {
            if y.shape() != [d, h, w] {
                failures.push(format!("op {i}: output shape {:?}", y.shape()));
            } else if !y.data().iter().all(|v| v.is_finite()) {
                failures.push(format!("op {i}: non-finite output"));
            } else if i.is_multiple_of(REPLAY_EVERY) {
                // The repo's contract: bitwise identical at any thread
                // count. Recomputing at one thread catches a race or a
                // thread-dependent reduction in a later kernel change.
                let again = peb_par::with_thread_count(1, || self.model.predict(&self.clips[i]));
                if again.bit_digest() != y.bit_digest() {
                    failures.push(format!(
                        "op {i}: output differs bitwise from a 1-thread recomputation"
                    ));
                }
            }
        }
        failures
    }

    fn compute_threads(&self) -> usize {
        COMPUTE_THREADS
    }

    fn layer_metrics(&mut self, traced: &Traced) -> Result<Vec<Metric>, String> {
        let (mut m, error) = layers::model(&layers::ModelSpec {
            config: SdmPebConfig::for_grid(DIMS),
            clip: &self.clips[0],
            threads: COMPUTE_THREADS,
            par_speedup: true,
            plan: false,
            fma_peak_gflops: traced.fma_peak_gflops,
        });
        m.push(metric("pool.first_predict_ms", self.first_predict_ms, "ms"));
        error.map_or(Ok(m), Err)
    }

    fn describe(&self) -> String {
        format!(
            "SdmPeb::predict {DIMS:?} for_grid weights_seed={WEIGHT_SEED} warmup={WARMUP_OPS} \
             clips={} replay_every={REPLAY_EVERY}",
            self.clips.len()
        )
    }
}
