//! One benchmark for the whole SDM-PEB stack. See `README.md`.
//!
//! ```text
//! peb_benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//!               [--bench-dir <dir>] [--worker-bin <path>] [--regen-golden]
//! peb_benchmark --workload all …      every workload, one process each
//! peb_benchmark --selfcheck …         two full sets, compared to the bounds
//! ```

mod env;
mod golden;
mod inputs;
mod json;
mod layers;
mod schedule;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::{obj, Json};
use workloads::{metric, Metric, Traced, Window};

#[derive(Debug, Clone)]
struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bench_dir: PathBuf,
    worker_bin: Option<PathBuf>,
    regen_golden: bool,
    selfcheck: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bench_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        worker_bin: None,
        regen_golden: false,
        selfcheck: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?,
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--bench-dir" => cli.bench_dir = PathBuf::from(value()?),
            "--worker-bin" => cli.worker_bin = Some(PathBuf::from(value()?)),
            "--regen-golden" => cli.regen_golden = true,
            "--selfcheck" => cli.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Everything one workload run produced.
struct RunResult {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

fn end_to_end(
    setup_s: f64,
    w: &Window,
    verification_failures: usize,
    peak_rss_mib: f64,
) -> (Vec<Metric>, u64) {
    let failed = (w.errors + verification_failures as u64).min(w.attempted);
    let ok = w.attempted - failed;
    let lat = stats::sorted(w.latencies_ms.clone());
    let pct = |p: f64| {
        if lat.is_empty() {
            0.0
        } else {
            stats::percentile(&lat, p)
        }
    };
    if !lat.is_empty() {
        println!(
            "# latency ms over {} ops: p50 {:.3} p75 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} max {:.3} \
             mean {:.3}; highest percentile with >= 10 samples beyond it: {}",
            lat.len(),
            pct(50.0),
            pct(75.0),
            pct(90.0),
            pct(95.0),
            pct(99.0),
            pct(100.0),
            stats::mean(&lat),
            stats::supported_tail(lat.len()).map_or("none".to_string(), |p| format!("p{p}")),
        );
    }
    let values = [
        setup_s,
        ok as f64 / w.wall.as_secs_f64().max(1e-9),
        pct(50.0),
        pct(90.0),
        ok as f64 / w.attempted.max(1) as f64,
        peak_rss_mib,
    ];
    (
        spec::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| metric(name, v, unit))
            .collect(),
        failed,
    )
}

fn obs_counters() -> (u64, u64) {
    (
        peb_obs::counter_value(peb_obs::Counter::PoolMisses),
        peb_obs::counter_value(peb_obs::Counter::TensorAllocs),
    )
}

fn run_workload(cli: &Cli, started: Instant) -> Result<RunResult, String> {
    let args = workloads::Args {
        seed: cli.seed,
        seconds: cli.seconds,
        bench_dir: cli.bench_dir.clone(),
        worker_bin: cli.worker_bin.clone(),
        regen_golden: cli.regen_golden,
    };
    let mut wl = workloads::setup(&cli.workload, &args)?;
    let setup_s = started.elapsed().as_secs_f64();
    println!("# {}: {}", cli.workload, wl.describe());

    if !cli.trace {
        let w = wl.window(Duration::from_secs_f64(cli.seconds));
        let failures = wl.verify();
        let rss = env::peak_rss_mib(std::process::id()).unwrap_or(0.0) + wl.helper_rss_mib();
        let (metrics, failed) = end_to_end(setup_s, &w, failures.len(), rss);
        return Ok(RunResult {
            attempted: w.attempted,
            failed,
            failures,
            metrics,
        });
    }

    // Traced run: a quarter-length untraced window for the overhead
    // baseline, then an equal traced window (the benchmark's spans on, and the
    // product's existing obs counters on so they can be read).
    let untraced = wl.window(Duration::from_secs_f64(cli.seconds / 4.0));
    trace::set_enabled(true);
    peb_obs::set_mode(peb_obs::TraceMode::Summary);
    let (miss0, alloc0) = obs_counters();
    let traced = wl.window(Duration::from_secs_f64(cli.seconds / 4.0));
    let (miss1, alloc1) = obs_counters();
    peb_obs::set_mode(peb_obs::TraceMode::Off);
    trace::set_enabled(false);
    let spans = trace::drain();
    let by_name = trace::by_name(&spans);

    let out_dir = cli.bench_dir.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join(format!("trace_{}.json", cli.workload));
    std::fs::write(&trace_path, trace::chrome_trace(&spans).render())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!(
        "# {} spans written to {}\n{}",
        spans.len(),
        trace_path.display(),
        trace::render_table(&by_name)
    );

    let failures = wl.verify();
    let rate = |w: &Window| (w.attempted - w.errors) as f64 / w.wall.as_secs_f64().max(1e-9);
    let ops = traced.latencies_ms.len().max(1) as f64;
    let machine = layers::machine(wl.compute_threads());
    println!("# {}", machine.note);
    let mut measured: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |ms: Vec<Metric>| {
        for m in ms {
            measured.insert(m.name, m.value);
        }
    };
    put(machine.metrics);
    put(vec![
        metric(
            "trace.overhead_share",
            1.0 - rate(&traced) / rate(&untraced).max(1e-9),
            "ratio",
        ),
        metric("proc.cpu_ms_per_op", traced.cpu_ms / ops, "ms"),
        metric("pool.misses_per_op", (miss1 - miss0) as f64 / ops, "count"),
        metric(
            "pool.fresh_allocs_per_op",
            (alloc1 - alloc0) as f64 / ops,
            "count",
        ),
    ]);
    put(wl.layer_metrics(&Traced {
        spans: by_name,
        latencies_ms: stats::sorted(traced.latencies_ms.clone()),
        fma_peak_gflops: machine.fma_peak_gflops,
    })?);

    let attempted = untraced.attempted + traced.attempted;
    let failed = (untraced.errors + traced.errors + failures.len() as u64).min(attempted);
    // Every declared layer metric is printed; a layer this workload
    // does not exercise reads 0.
    let metrics = spec::PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, measured.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ok(RunResult {
        attempted,
        failed,
        failures,
        metrics,
    })
}

fn result_json(r: &RunResult) -> Json {
    obj([
        ("correct", Json::Bool(r.failures.is_empty())),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "metrics",
            obj(r.metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })),
        ),
    ])
}

fn repo_root(cli: &Cli) -> PathBuf {
    cli.bench_dir
        .parent()
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
}

/// One workload in this process. Prints `workload metric value unit`
/// lines, any failure, the fingerprint, and the result object last.
fn single(cli: &Cli, started: Instant) -> ExitCode {
    let r =
        match peb_par::with_thread_count(workloads::COMPUTE_THREADS, || run_workload(cli, started))
        {
            Ok(r) => r,
            Err(e) => {
                eprintln!("peb_benchmark: {e}");
                return ExitCode::from(2);
            }
        };
    for m in &r.metrics {
        println!("{} {} {} {}", cli.workload, m.name, m.value, m.unit);
    }
    println!("{} ops_attempted {} count", cli.workload, r.attempted);
    println!("{} ops_ok {} count", cli.workload, r.attempted - r.failed);
    for f in &r.failures {
        println!("FAILED {}: {f}", cli.workload);
    }
    let fp = env::fingerprint(
        &repo_root(cli),
        vec![
            ("workload", Json::Str(cli.workload.clone())),
            ("seed", Json::Num(cli.seed as f64)),
            ("seconds", Json::Num(cli.seconds)),
            ("trace", Json::Bool(cli.trace)),
            (
                "compute_threads",
                Json::Num(workloads::COMPUTE_THREADS as f64),
            ),
        ],
    );
    println!("# fingerprint {}", fp.render());
    println!("{}", result_json(&r).render());
    if r.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` in a child process and returns its parsed result
/// line. The child inherits stderr; its stdout is echoed.
fn child(cli: &Cli, workload: &str) -> Result<(bool, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .arg("--bench-dir")
        .arg(&cli.bench_dir);
    if let Some(w) = &cli.worker_bin {
        cmd.arg("--worker-bin").arg(w);
    }
    if cli.regen_golden {
        cmd.arg("--regen-golden");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in &lines {
        println!("{l}");
    }
    let doc = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{workload}: result lacks metrics"));
    };
    let values = metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let correct = doc.get("correct") == Some(&Json::Bool(true)) && out.status.success();
    Ok((correct, values))
}

fn run_all(cli: &Cli) -> Result<BTreeMap<&'static str, BTreeMap<String, f64>>, String> {
    let mut set = BTreeMap::new();
    let mut wrong = Vec::new();
    for name in workloads::NAMES {
        let (correct, values) = child(cli, name)?;
        if !correct {
            wrong.push(name);
        }
        set.insert(name, values);
    }
    if wrong.is_empty() {
        Ok(set)
    } else {
        Err(format!("output checks failed on {wrong:?}"))
    }
}

/// Full runs of one set interleaved with the other's (A B A B A B).
const SELFCHECK_RUNS_PER_SET: usize = 3;

/// Two sets of full runs of the same code; every end-to-end metric of
/// every workload must agree within its bound in `BENCHMARK.json`. Like
/// the driver's acceptance check, a set's value is the median of its
/// runs: one run's p99 is a couple of samples, and one slow process
/// start doubles a 0.3 s `setup_s`.
fn selfcheck(cli: &Cli) -> Result<bool, String> {
    let path = repo_root(cli).join("BENCHMARK.json");
    let doc = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|t| Json::parse(&t))?;
    let specs: Vec<(String, bool, f64)> = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for _ in 0..SELFCHECK_RUNS_PER_SET {
        first.push(run_all(cli)?);
        second.push(run_all(cli)?);
    }
    let mut within = true;
    println!("# selfcheck: workload metric first second worse_by bound verdict");
    for name in workloads::NAMES {
        for (metric, lower_is_better, bound) in &specs {
            let med = |set: &[BTreeMap<&str, BTreeMap<String, f64>>]| {
                stats::median(&set.iter().map(|r| r[name][metric]).collect::<Vec<_>>())
            };
            let (a, b) = (med(&first), med(&second));
            // How much worse the second set is, as a share of the first.
            let worse = if *lower_is_better { b - a } else { a - b } / a.abs().max(1e-12);
            let ok = worse <= *bound;
            within &= ok;
            println!(
                "selfcheck {name} {metric} {a} {b} {worse:+.4} {bound} {}",
                if ok { "ok" } else { "EXCEEDS" }
            );
        }
    }
    Ok(within)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("peb_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ambient = env::ambient_peb_vars();
    if !ambient.is_empty() {
        eprintln!(
            "peb_benchmark: refusing to start with {ambient:?} set: every PEB_* knob changes \
             the program being measured. Unset them; worker settings are passed explicitly."
        );
        return ExitCode::from(2);
    }
    let outcome = if cli.selfcheck {
        selfcheck(&cli)
    } else if cli.workload == "all" {
        run_all(&cli).map(|_| true)
    } else {
        return single(&cli, started);
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("peb_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
