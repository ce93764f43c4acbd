//! `train_step`: the same kernel crates as `predict_offline`, used the
//! other way round — backward kernels, the autograd tape, the
//! optimiser — so a layout or packing choice that helps inference but
//! costs training shows. One op is one full step at 16×64×64:
//! `zero_grad → forward_train → PebLoss::paper().combined → backward →
//! Adam::step`.

use std::time::Duration;

use peb_litho::{Grid, LithoFlow};
use peb_nn::{Adam, Optimizer, Parameterized};
use peb_tensor::{Tensor, Var};
use sdm_peb::{LabelTransform, PebLoss, PebPredictor, SdmPeb, SdmPebConfig};

use super::{
    check_golden, metric, predict_offline, run_sequential, Args, Metric, Traced, Window, Workload,
    COMPUTE_THREADS,
};
use crate::golden;
use crate::inputs::{mask, mask_seed, CANARY_SEED};
use crate::json::{obj, Json};
use crate::layers;
use crate::trace;

pub const DIMS: (usize, usize, usize) = (16, 64, 64);
/// Stable from the first step on two clips. (`TrainConfig`'s 5e-3
/// default spikes the loss 10× at step 2 here; the trainer pairs it
/// with a rollback guard this op does not run.)
pub const LR: f32 = 1e-3;
const WARMUP_STEPS: usize = 3;

/// One rigorous `(photoacid, label)` training pair.
pub struct Pair {
    pub acid: Tensor,
    pub label: Tensor,
}

pub fn rigorous_pair(mask_seed: u64) -> Pair {
    let grid = Grid::medium(); // 64×64×16
    let sim = LithoFlow::new(grid)
        .run(&mask(&grid, mask_seed))
        .expect("paper-parameter flow on a valid grid");
    Pair {
        label: LabelTransform::paper().encode(&sim.inhibitor),
        acid: sim.acid0,
    }
}

/// The model, optimiser and loss of a training run, with the step
/// split at its public seams (each a span when tracing is on).
pub struct Stepper {
    pub model: SdmPeb,
    params: Vec<Var>,
    opt: Adam,
    loss_fn: PebLoss,
}

impl Stepper {
    pub fn new(dims: (usize, usize, usize)) -> Self {
        let model = predict_offline::model(dims);
        Stepper {
            params: model.parameters(),
            model,
            opt: Adam::new(LR),
            loss_fn: PebLoss::paper(),
        }
    }

    /// One full training step on `pair`; returns the loss.
    pub fn step(&mut self, pair: &Pair, op: u64) -> f32 {
        let _step = trace::span("core.train_step", op);
        trace::in_span("core.train_zero_grad", op, || {
            self.opt.zero_grad(&self.params)
        });
        let pred = trace::in_span("core.train_fwd", op, || {
            self.model.forward_train(&pair.acid)
        });
        let loss = trace::in_span("core.train_loss", op, || {
            self.loss_fn.combined(&pred, &pair.label)
        });
        trace::in_span("core.train_bwd", op, || loss.backward());
        trace::in_span("core.train_opt", op, || self.opt.step(&self.params));
        // Bound to a local so the `Ref` from `value()` drops before `loss`.
        let value = loss.value().item();
        value
    }
}

pub struct TrainStep {
    stepper: Stepper,
    /// `[canary, seeded]`, cycled by the timed steps.
    pairs: [Pair; 2],
    first_loss: f32,
    losses: Vec<f32>,
    canary_failures: Vec<String>,
}

impl TrainStep {
    pub fn setup(args: &Args) -> Result<Self, String> {
        let pairs = [
            rigorous_pair(mask_seed(CANARY_SEED, 0)),
            rigorous_pair(mask_seed(args.seed, 0)),
        ];
        let mut stepper = Stepper::new(DIMS);
        // Warm-up on the canary pair from seed-42 weights: the first
        // losses of training are a fixed sequence, checked against
        // golden.
        let warm: Vec<f32> = (0..WARMUP_STEPS)
            .map(|i| stepper.step(&pairs[0], i as u64))
            .collect();
        let measured = obj([
            ("workload", Json::Str("train_step".into())),
            (
                "warmup_losses",
                Json::Arr(warm.iter().map(|&l| Json::Num(f64::from(l))).collect()),
            ),
        ]);
        let canary_failures = check_golden(args, "train_step", measured, |want| {
            let want = want
                .get("warmup_losses")
                .and_then(Json::as_f64_vec)
                .filter(|w| w.len() == WARMUP_STEPS)
                .ok_or("golden file lacks 3 \"warmup_losses\"")?;
            for (i, (&l, &g)) in warm.iter().zip(&want).enumerate() {
                golden::loss_matches(f64::from(l), g).map_err(|e| format!("step {i}: {e}"))?;
            }
            Ok(())
        })?;
        Ok(TrainStep {
            stepper,
            pairs,
            first_loss: warm[0],
            losses: Vec::new(),
            canary_failures,
        })
    }
}

impl Workload for TrainStep {
    fn window(&mut self, dur: Duration) -> Window {
        let Self {
            stepper,
            pairs,
            losses,
            ..
        } = self;
        run_sequential(dur, || {
            let i = losses.len();
            let loss = stepper.step(&pairs[i % 2], (WARMUP_STEPS + i) as u64);
            losses.push(loss);
            Some(true)
        })
    }

    fn verify(&mut self) -> Vec<String> {
        let mut failures = self.canary_failures.clone();
        failures.extend(
            self.losses
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.is_finite())
                .map(|(i, l)| format!("step {i}: loss {l}")),
        );
        // Training must train: the last canary-pair loss sits below the
        // very first step's (same pair, so like is compared with like).
        if let Some(last) = self.losses.iter().step_by(2).next_back() {
            if last.is_finite() && *last >= self.first_loss {
                failures.push(format!(
                    "final canary loss {last} did not drop below the first step's {}",
                    self.first_loss
                ));
            }
        }
        failures
    }

    fn compute_threads(&self) -> usize {
        COMPUTE_THREADS
    }

    fn layer_metrics(&mut self, traced: &Traced) -> Result<Vec<Metric>, String> {
        let config = SdmPebConfig::for_grid(DIMS);
        let (mut m, error) = layers::model(&layers::ModelSpec {
            config: config.clone(),
            clip: &self.pairs[0].acid,
            threads: COMPUTE_THREADS,
            par_speedup: true,
            plan: false,
            fma_peak_gflops: traced.fma_peak_gflops,
        });
        // The exact split of the step, from the traced window's spans.
        for (name, span) in [
            ("core.train_fwd_ms", "core.train_fwd"),
            ("core.train_loss_ms", "core.train_loss"),
            ("core.train_bwd_ms", "core.train_bwd"),
            ("core.train_opt_ms", "core.train_opt"),
        ] {
            m.push(metric(
                name,
                crate::trace::mean_ms(&traced.spans, span),
                "ms",
            ));
        }
        m.extend(layers::train(
            &config,
            &self.pairs[0],
            crate::stats::mean(&traced.latencies_ms),
        ));
        error.map_or(Ok(m), Err)
    }

    fn describe(&self) -> String {
        format!(
            "train step {DIMS:?} for_grid Adam lr={LR} PebLoss::paper warmup={WARMUP_STEPS} \
             pairs=[canary,seeded] rigorous 64x64x16"
        )
    }
}
