//! `rigorous_cd`: the baseline the surrogate is sold against. One
//! `LithoFlow::run` (optics → Dill → full 90 s PEB bake → Mack →
//! eikonal → metrology) per unique mask on a 64×64×16 grid, yielding
//! per-contact CDs. Exercises litho / fft / simd::{thomas,stencil} and
//! no model code at all.

use std::time::Duration;

use peb_litho::{
    measure_contact_cds, solve_eikonal, ContactCd, Grid, LithoFlow, MaskClip, PebSolver,
};
use peb_tensor::Tensor;

use super::{
    check_golden, run_sequential, Args, Metric, Traced, Window, Workload, COMPUTE_THREADS,
};
use crate::golden::{self, Cd, Probe};
use crate::inputs::{mask, mask_seed, CANARY_SEED};
use crate::json::{obj, Json};
use crate::layers;
use crate::trace;

pub fn grid() -> Grid {
    // 256 nm window at 4 nm, 100 nm resist at 6.25 nm.
    Grid::new(64, 64, 16, 4.0, 4.0, 6.25).expect("static grid is valid")
}

/// What an op keeps for verification.
pub struct Outcome {
    pub inhibitor: Tensor,
    pub cds: Vec<ContactCd>,
}

/// `LithoFlow::run` re-expressed as its public stages, one span each.
/// Same calls in the same order as the product's own `run`, so the sum
/// of the stage spans over the whole-`run` time is the coverage.
pub fn staged_run(flow: &LithoFlow, clip: &MaskClip, op: u64) -> Outcome {
    let _run = trace::span("litho.run", op);
    let aerial = trace::in_span("litho.optics", op, || {
        flow.optics.aerial_image(&flow.grid, clip)
    })
    .expect("mask matches grid");
    let acid0 = trace::in_span("litho.dill", op, || flow.dill.photoacid(&aerial));
    let state = trace::in_span("litho.peb", op, || {
        PebSolver::new(flow.peb, flow.grid, flow.scheme)
            .and_then(|s| s.run(&acid0))
            .expect("paper bake parameters are valid")
    });
    let rate = trace::in_span("litho.mack", op, || flow.mack.rate_field(&state.inhibitor));
    let arrival = trace::in_span("litho.eikonal", op, || {
        solve_eikonal(&flow.grid, &rate, flow.eikonal)
    })
    .expect("rate field matches grid");
    let cds = trace::in_span("litho.metrology", op, || {
        measure_contact_cds(
            &flow.grid,
            &arrival,
            flow.mack.duration,
            &clip.contacts,
            flow.cd_layer,
        )
    })
    .expect("CD layer inside grid");
    Outcome {
        inhibitor: state.inhibitor,
        cds,
    }
}

/// The product's own entry point, under one span when tracing is on.
pub fn whole_run(flow: &LithoFlow, clip: &MaskClip, op: u64) -> Outcome {
    let _run = trace::span("litho.run_whole", op);
    let sim = flow
        .run(clip)
        .expect("paper-parameter flow on a valid grid");
    Outcome {
        inhibitor: sim.inhibitor,
        cds: sim.cds,
    }
}

fn as_golden_cds(cds: &[ContactCd]) -> Vec<Cd> {
    cds.iter()
        .map(|c| (f64::from(c.cd_x_nm), f64::from(c.cd_y_nm), c.open))
        .collect()
}

pub struct RigorousCd {
    flow: LithoFlow,
    masks: Vec<MaskClip>,
    cursor: usize,
    outcomes: Vec<Outcome>,
    canary_failures: Vec<String>,
}

impl RigorousCd {
    pub fn setup(args: &Args) -> Result<Self, String> {
        let grid = grid();
        let flow = LithoFlow::new(grid);
        // An op takes seconds; one mask per second of window is plenty.
        let masks = (0..args.seconds.ceil() as usize + 2)
            .map(|i| mask(&grid, mask_seed(args.seed, i)))
            .collect();
        // One warm-up op on the canary mask, checked against golden.
        let canary = whole_run(&flow, &mask(&grid, mask_seed(CANARY_SEED, 0)), 0);
        let (probe, cds) = (
            Probe::of(canary.inhibitor.data()),
            as_golden_cds(&canary.cds),
        );
        let measured = obj([
            ("workload", Json::Str("rigorous_cd".into())),
            ("inhibitor", probe.to_json()),
            ("cds", golden::cds_to_json(&cds)),
        ]);
        let canary_failures = check_golden(args, "rigorous_cd", measured, |want| {
            let inhibitor = want.get("inhibitor").ok_or("golden lacks \"inhibitor\"")?;
            probe
                .matches(&Probe::from_json(inhibitor)?, golden::VOLUME_TOL)
                .map_err(|e| format!("inhibitor: {e}"))?;
            let want_cds = golden::cds_from_json(want.get("cds").ok_or("golden lacks \"cds\"")?)?;
            golden::cds_match(&cds, &want_cds)
        })?;
        Ok(RigorousCd {
            flow,
            masks,
            cursor: 0,
            outcomes: Vec::new(),
            canary_failures,
        })
    }
}

impl Workload for RigorousCd {
    fn window(&mut self, dur: Duration) -> Window {
        let Self {
            flow,
            masks,
            cursor,
            outcomes,
            ..
        } = self;
        run_sequential(dur, || {
            let clip = masks.get(*cursor)?;
            // Traced windows alternate the stage-by-stage form with the
            // product's own `run`, so `litho.coverage` compares the two
            // under the same machine conditions.
            outcomes.push(if trace::enabled() && cursor.is_multiple_of(2) {
                staged_run(flow, clip, *cursor as u64)
            } else {
                whole_run(flow, clip, *cursor as u64)
            });
            *cursor += 1;
            Some(true)
        })
    }

    /// Seeded masks have no golden; their outputs must be physical:
    /// inhibitor a finite concentration in [0, 1] that was deprotected
    /// somewhere, one CD per drawn contact, every CD inside the window.
    fn verify(&mut self) -> Vec<String> {
        let (wx, wy) = self.flow.grid.window_nm();
        let mut failures = self.canary_failures.clone();
        for (i, (o, m)) in self.outcomes.iter().zip(&self.masks).enumerate() {
            let (lo, hi) = (o.inhibitor.min_value(), o.inhibitor.max_value());
            let physical = lo.is_finite() && hi.is_finite() && lo >= 0.0 && hi <= 1.0 + 1e-5;
            if !physical || lo > 0.9 {
                failures.push(format!(
                    "op {i}: inhibitor range [{lo}, {hi}] is not physical"
                ));
            } else if o.cds.len() != m.contacts.len() {
                failures.push(format!(
                    "op {i}: {} CDs for {} contacts",
                    o.cds.len(),
                    m.contacts.len()
                ));
            } else if let Some(c) = o
                .cds
                .iter()
                .find(|c| !(0.0..=wx).contains(&c.cd_x_nm) || !(0.0..=wy).contains(&c.cd_y_nm))
            {
                failures.push(format!("op {i}: CD outside the window: {c:?}"));
            }
        }
        failures
    }

    fn compute_threads(&self) -> usize {
        COMPUTE_THREADS
    }

    fn layer_metrics(&mut self, traced: &Traced) -> Result<Vec<Metric>, String> {
        Ok(layers::litho(&self.flow, &self.masks[0], &traced.spans))
    }

    fn describe(&self) -> String {
        let g = self.flow.grid;
        format!(
            "LithoFlow::run {}x{}x{} dx={} dz={} bake={}s dt={}s warmup=1 masks={}",
            g.nx,
            g.ny,
            g.nz,
            g.dx,
            g.dz,
            self.flow.peb.duration,
            self.flow.peb.dt,
            self.masks.len()
        )
    }
}
