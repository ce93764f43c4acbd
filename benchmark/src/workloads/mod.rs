//! The five workloads. Each one sets up, runs timed windows of its op,
//! verifies every output outside the timed intervals, and tears down.

use std::time::{Duration, Instant};

use crate::env;

pub mod fleet_open;
pub mod predict_offline;
pub mod rigorous_cd;
pub mod serve_closed;
pub mod train_step;

pub const NAMES: [&str; 5] = [
    "predict_offline",
    "train_step",
    "rigorous_cd",
    "serve_closed",
    "fleet_open",
];

/// Compute threads of every in-process kernel (`peb_par` override on
/// the thread that runs the workload). Serving engines are pinned to 1
/// by their own configs.
pub const COMPUTE_THREADS: usize = 2;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one timed window observed.
#[derive(Debug, Default)]
pub struct Window {
    /// Ops started.
    pub attempted: u64,
    /// Ops that returned an error, were refused or timed out. Outputs
    /// that fail verification are added later by [`Workload::verify`].
    pub errors: u64,
    /// Per-op wall time of every op that returned an output, in ms.
    pub latencies_ms: Vec<f64>,
    /// First op start (open loop: window start) to last op end.
    pub wall: Duration,
    /// CPU time of this process (and its workers) over the window.
    pub cpu_ms: f64,
}

/// Set-up parameters shared by all workloads.
#[derive(Debug, Clone)]
pub struct Args {
    pub seed: u64,
    /// Length of the longest window this run will ask for; sizes the
    /// pre-generated inputs.
    pub seconds: f64,
    pub bench_dir: std::path::PathBuf,
    pub worker_bin: Option<std::path::PathBuf>,
    /// Rewrite `golden/<workload>.json` from this run's canary outputs
    /// instead of comparing against it.
    pub regen_golden: bool,
}

/// What the traced window hands to the per-layer probes.
pub struct Traced {
    /// Span totals of the traced window, by name.
    pub spans: std::collections::BTreeMap<&'static str, crate::trace::NameStat>,
    /// Op latencies of the traced window in ms, ascending.
    pub latencies_ms: Vec<f64>,
    /// All-core FMA peak at the workload's compute-thread pin.
    pub fma_peak_gflops: f64,
}

pub trait Workload {
    /// Runs ops for `dur` (an op in flight at the deadline finishes).
    /// Records spans when tracing is enabled. May be called more than
    /// once; inputs stay unique across calls.
    fn window(&mut self, dur: Duration) -> Window;

    /// Verifies every output recorded so far — the warm-up canaries
    /// against golden, the windows' outputs by the workload's own
    /// checks — outside any timed interval. One message per failure.
    fn verify(&mut self) -> Vec<String>;

    /// Compute threads this workload's model code runs at.
    fn compute_threads(&self) -> usize;

    /// The layer metrics this workload exercises (traced runs only):
    /// counters the product already exposes plus the outside-in probes
    /// of `crate::layers`. Layers it does not touch are reported as 0
    /// by the caller.
    fn layer_metrics(&mut self, traced: &Traced) -> Result<Vec<Metric>, String>;

    /// Peak RSS of helper processes (fleet workers), in MiB.
    fn helper_rss_mib(&self) -> f64 {
        0.0
    }

    /// Size facts for the fingerprint (grid, thread pins, op counts).
    fn describe(&self) -> String;
}

/// Compares a run's canary document against `golden/<workload>.json`
/// with `compare`, or rewrites the file under `--regen-golden`. A
/// missing or unreadable golden file is an error; a mismatch is a
/// verification failure (the run continues and reports it).
pub fn check_golden(
    args: &Args,
    workload: &str,
    measured: crate::json::Json,
    compare: impl FnOnce(&crate::json::Json) -> Result<(), String>,
) -> Result<Vec<String>, String> {
    if args.regen_golden {
        crate::golden::store(&args.bench_dir, workload, &measured)?;
        return Ok(Vec::new());
    }
    let want = crate::golden::load(&args.bench_dir, workload)?;
    Ok(compare(&want)
        .err()
        .map(|e| format!("{workload}: canary differs from golden: {e}"))
        .into_iter()
        .collect())
}

/// Builds the workload, including its warm-up ops and their golden
/// check. Everything this does is `setup_s`.
pub fn setup(name: &str, args: &Args) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "predict_offline" => Box::new(predict_offline::PredictOffline::setup(args)?),
        "train_step" => Box::new(train_step::TrainStep::setup(args)?),
        "rigorous_cd" => Box::new(rigorous_cd::RigorousCd::setup(args)?),
        "serve_closed" => Box::new(serve_closed::ServeClosed::setup(args)?),
        "fleet_open" => Box::new(fleet_open::FleetOpen::setup(args)?),
        other => return Err(format!("unknown workload {other:?}; one of {NAMES:?}")),
    })
}

/// Sequential closed loop shared by the three in-process workloads:
/// calls `op(i)` until `dur` has passed or `op` reports it is out of
/// inputs (`None`). `op` returns `Some(ok)`.
pub fn run_sequential(dur: Duration, mut op: impl FnMut() -> Option<bool>) -> Window {
    let mut w = Window::default();
    let cpu0 = process_cpu_ms();
    let start = Instant::now();
    while start.elapsed() < dur {
        let t = Instant::now();
        let Some(ok) = op() else { break };
        let lat = t.elapsed();
        w.attempted += 1;
        if ok {
            w.latencies_ms.push(lat.as_secs_f64() * 1e3);
        } else {
            w.errors += 1;
        }
    }
    w.wall = start.elapsed();
    w.cpu_ms = process_cpu_ms() - cpu0;
    w
}

pub fn process_cpu_ms() -> f64 {
    env::cpu_ms(std::process::id()).unwrap_or(0.0)
}
