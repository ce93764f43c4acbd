//! Eager-vs-replay benchmark for execution plans: emits
//! `BENCH_plan.json`.
//!
//! For each grid tier the same model and clip run the eager `predict`
//! path and the recorded `Plan::replay` path under repeat-min timing
//! (one discarded warmup repetition each, minimum over the measured
//! repetitions — the repo's standard discipline for single-core boxes
//! where the mean is scheduler noise). Replay must be bitwise identical
//! to eager — the digest check always runs, on every repetition — and
//! allocation-free: the `pool_misses` and `tensor_allocs` counter
//! deltas over a measured replay must both be zero.
//!
//! A second section drives the in-process serving stack through one
//! closed-loop client with the plan cache disabled, then enabled
//! (`ExecCtx::plan`), reporting QPS/p99 for both and the engine's plan
//! cache counters.
//!
//! Speed-ratio gates (replay no slower than eager; planned serving no
//! slower than unplanned) are hardware-gated: enforced at ≥ 4 cores or
//! under `PEB_BENCH_STRICT=1`, otherwise skipped with a machine-readable
//! `gate_skip_reason`. Identity and zero-alloc asserts are *never*
//! skipped.
//!
//! Knobs: `PEB_PLAN_BENCH_TIERS` (comma list of `HxWxD` names, default
//! `64x64x16,256x256x32,512x512x80`), `PEB_PLAN_BENCH_REPEATS`
//! (measured repetitions per path, default 3), `PEB_PLAN_BENCH_SECS`
//! (serve window seconds, default 1.5), `PEB_PLAN_BENCH_WARMUP_SECS`
//! (serve warmup, default 0.5).

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use peb_par::ctx::{self, ExecCtx};
use peb_serve::{Client, ServeConfig, Server};
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{InferPlan, PebPredictor, SdmPeb, SdmPebConfig};

/// Tier name (paper convention `H x W x D`) → internal `(d, h, w)`.
fn parse_tier(name: &str) -> Option<(usize, usize, usize)> {
    let mut it = name.trim().split('x');
    let h: usize = it.next()?.parse().ok()?;
    let w: usize = it.next()?.parse().ok()?;
    let d: usize = it.next()?.parse().ok()?;
    if it.next().is_some() || h == 0 || w == 0 || d == 0 {
        return None;
    }
    Some((d, h, w))
}

struct TierRow {
    name: String,
    voxels: usize,
    eager_min_s: f64,
    replay_min_s: f64,
    ratio: f64,
    arena_bytes: usize,
    logical_bytes: usize,
    regions: usize,
    planned_allocs: usize,
    served: u32,
    escaped: u32,
}

fn counter(name: &str) -> u64 {
    peb_obs::snapshot().counter(name)
}

fn bench_tier(name: &str, dims: (usize, usize, usize), repeats: usize) -> TierRow {
    let (d, h, w) = dims;
    let mut rng = StdRng::seed_from_u64(42);
    let model = SdmPeb::new(SdmPebConfig::tiny(dims), &mut rng);
    let clip = Tensor::rand_uniform(&[d, h, w], 0.05, 0.9, &mut rng);

    // Eager path: one discarded warmup, then repeat-min.
    let eager_digest = model.predict(&clip).bit_digest();
    let mut eager_min = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let out = model.predict(&clip);
        eager_min = eager_min.min(t0.elapsed().as_secs_f64());
        assert_eq!(out.bit_digest(), eager_digest, "eager run not reproducible");
    }

    // Recorded path: `record` runs its own warmup + recorded pass; one
    // more discarded replay warms the pool buckets escapes land in.
    let (plan, recorded) = InferPlan::record(&model, &clip);
    assert_eq!(
        recorded.bit_digest(),
        eager_digest,
        "{name}: recording run diverged from eager"
    );
    drop(plan.predict(&model, &clip));

    let mut replay_min = f64::INFINITY;
    for rep in 0..repeats {
        let t0 = Instant::now();
        let (out, outcome) = plan.predict(&model, &clip);
        replay_min = replay_min.min(t0.elapsed().as_secs_f64());
        assert_eq!(
            out.bit_digest(),
            eager_digest,
            "{name}: replay {rep} diverged from eager"
        );
        assert!(
            outcome.complete,
            "{name}: replay {rep} incomplete: {outcome:?}"
        );
    }

    // Zero-alloc assert on a dedicated (untimed) replay: counters need
    // trace collection on, which would perturb the timed repetitions.
    peb_obs::set_mode(peb_obs::TraceMode::Summary);
    let (m0, a0) = (counter("pool_misses"), counter("tensor_allocs"));
    let (out, outcome) = plan.predict(&model, &clip);
    let (m1, a1) = (counter("pool_misses"), counter("tensor_allocs"));
    peb_obs::set_mode(peb_obs::TraceMode::Off);
    assert_eq!(
        out.bit_digest(),
        eager_digest,
        "{name}: counted replay diverged"
    );
    assert!(
        outcome.complete,
        "{name}: counted replay incomplete: {outcome:?}"
    );
    assert_eq!(m1 - m0, 0, "{name}: replay missed the pool");
    assert_eq!(a1 - a0, 0, "{name}: replay allocated fresh heap");
    drop(out);

    println!(
        "  {name:>12}  eager {:>9.2}ms  replay {:>9.2}ms  ({:.3}x)  arena {:.1} MiB (logical {:.1} MiB, {} regions, {} checkouts)",
        eager_min * 1e3,
        replay_min * 1e3,
        replay_min / eager_min,
        plan.plan().arena_bytes() as f64 / (1024.0 * 1024.0),
        plan.plan().logical_bytes() as f64 / (1024.0 * 1024.0),
        plan.plan().region_count(),
        plan.plan().planned_allocs(),
    );
    TierRow {
        name: name.to_string(),
        voxels: d * h * w,
        eager_min_s: eager_min,
        replay_min_s: replay_min,
        ratio: replay_min / eager_min,
        arena_bytes: plan.plan().arena_bytes(),
        logical_bytes: plan.plan().logical_bytes(),
        regions: plan.plan().region_count(),
        planned_allocs: plan.plan().planned_allocs(),
        served: outcome.served,
        escaped: outcome.escaped,
    }
}

struct ServeRow {
    plan_cache: bool,
    requests: u64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    plan_hits: u64,
    plan_misses: u64,
    arena_hwm_bytes: u64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

const SERVE_GRID: (usize, usize, usize) = (4, 16, 16);

fn serve_clip() -> Tensor {
    let (d, h, w) = SERVE_GRID;
    Tensor::from_vec(
        (0..d * h * w)
            .map(|i| (i as f32 * 0.017).sin() * 0.4 + 0.5)
            .collect(),
        &[d, h, w],
    )
    .expect("clip")
}

/// One closed-loop serving window through a single keep-alive client,
/// with the plan cache on or off for the whole server lifetime (the
/// engine thread adopts the context the server is started under).
fn bench_serve(plan_cache: bool, warmup: Duration, window: Duration) -> ServeRow {
    let scoped = ExecCtx {
        plan: plan_cache,
        ..ctx::current()
    };
    ctx::with(scoped, || serve_window(plan_cache, warmup, window))
}

fn serve_window(plan_cache: bool, warmup: Duration, window: Duration) -> ServeRow {
    let mut config = ServeConfig::from_env().unwrap_or_else(|e| ctx::exit_invalid(&e));
    config.addr = "127.0.0.1:0".into();
    config.grid = SERVE_GRID;
    config.seed = 42;
    let server = Server::start(config).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let clip = serve_clip();
    let digest = {
        let model = SdmPeb::new(
            SdmPebConfig::tiny(SERVE_GRID),
            &mut StdRng::seed_from_u64(42),
        );
        model.predict(&clip).bit_digest()
    };

    let t_warm = Instant::now();
    while t_warm.elapsed() < warmup {
        let y = client.infer(&clip).expect("warmup infer");
        assert_eq!(y.bit_digest(), digest, "served bits diverged in warmup");
    }
    let mut lat_us: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < window {
        let r0 = Instant::now();
        let y = client.infer(&clip).expect("infer");
        lat_us.push(r0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(
            y.bit_digest(),
            digest,
            "served bits diverged (plan_cache={plan_cache})"
        );
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = server.handle().stats();
    let row = ServeRow {
        plan_cache,
        requests: lat_us.len() as u64,
        qps: lat_us.len() as f64 / elapsed,
        p50_us: 0.0,
        p99_us: 0.0,
        plan_hits: stats.plan_hits.load(Ordering::Relaxed),
        plan_misses: stats.plan_misses.load(Ordering::Relaxed),
        arena_hwm_bytes: stats.arena_hwm_bytes.load(Ordering::Relaxed),
    };
    server.shutdown();
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    ServeRow {
        p50_us: percentile(&lat_us, 50.0),
        p99_us: percentile(&lat_us, 99.0),
        ..row
    }
}

fn main() {
    let exec = ctx::init_or_exit();
    let repeats: usize = std::env::var("PEB_PLAN_BENCH_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3);
    let tiers_env = std::env::var("PEB_PLAN_BENCH_TIERS")
        .unwrap_or_else(|_| "64x64x16,256x256x32,512x512x80".to_string());
    let window_s: f64 = std::env::var("PEB_PLAN_BENCH_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.5);
    let warmup_s: f64 = std::env::var("PEB_PLAN_BENCH_WARMUP_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.5);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Replay is what the tiers measure, whatever `PEB_PLAN` says.
    let replaying = ExecCtx { plan: true, ..exec };

    println!(
        "bench_plan: tiers={tiers_env} repeats={repeats} cores={cores} level={}",
        exec.level.name()
    );
    let mut rows: Vec<TierRow> = Vec::new();
    for name in tiers_env.split(',').filter(|s| !s.trim().is_empty()) {
        let dims = parse_tier(name)
            .unwrap_or_else(|| panic!("bad tier {name:?}: expected HxWxD, e.g. 64x64x16"));
        rows.push(ctx::with(replaying, || {
            bench_tier(name.trim(), dims, repeats)
        }));
    }

    println!("  serve: plan cache off vs on ({window_s}s window)");
    let warmup = Duration::from_secs_f64(warmup_s);
    let window = Duration::from_secs_f64(window_s);
    let off = bench_serve(false, warmup, window);
    let on = bench_serve(true, warmup, window);
    for r in [&off, &on] {
        println!(
            "    plan_cache={:<5} qps={:>8.1} p50={:>8.1}us p99={:>9.1}us hits={} misses={} arena_hwm={}",
            r.plan_cache, r.qps, r.p50_us, r.p99_us, r.plan_hits, r.plan_misses, r.arena_hwm_bytes
        );
    }
    assert_eq!(off.plan_hits, 0, "plan-off serving must never hit a plan");
    assert!(on.plan_hits > 0, "planned serving must replay cached plans");
    assert!(
        on.arena_hwm_bytes > 0,
        "planned serving must report arena high water"
    );

    // Speed-ratio gates: meaningless where the client, engine and
    // kernels fight over one core, so they require ≥ 4 cores or
    // PEB_BENCH_STRICT=1. Identity + zero-alloc asserts already ran
    // unconditionally above.
    let strict = std::env::var("PEB_BENCH_STRICT").as_deref() == Ok("1");
    let gates_apply = strict || cores >= 4;
    let gate_skip_reason = if gates_apply {
        "null".to_string()
    } else {
        format!("\"hardware_cores {cores} < 4 and PEB_BENCH_STRICT unset\"")
    };
    if gates_apply {
        for r in &rows {
            assert!(
                r.ratio <= 1.10,
                "{}: replay {:.3}x slower than eager (gate 1.10x)",
                r.name,
                r.ratio
            );
        }
        let serve_ratio = on.qps / off.qps.max(1e-9);
        assert!(
            serve_ratio >= 0.90,
            "plan cache cost throughput: {serve_ratio:.2}x of unplanned QPS"
        );
        println!("  ratio gates: replay <= 1.10x eager, planned QPS >= 0.90x unplanned — ok");
    } else {
        println!("  ratio gates skipped: {gate_skip_reason}");
    }

    let tier_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"tier\":\"{}\",\"voxels\":{},\"eager_min_s\":{:.6},\"replay_min_s\":{:.6},\"replay_vs_eager\":{:.4},\"arena_bytes\":{},\"logical_bytes\":{},\"regions\":{},\"planned_allocs\":{},\"served\":{},\"escaped\":{},\"digest_ok\":true,\"zero_alloc_replay\":true}}",
                r.name,
                r.voxels,
                r.eager_min_s,
                r.replay_min_s,
                r.ratio,
                r.arena_bytes,
                r.logical_bytes,
                r.regions,
                r.planned_allocs,
                r.served,
                r.escaped,
            )
        })
        .collect();
    let serve_json: Vec<String> = [&off, &on]
        .iter()
        .map(|r| {
            format!(
                "{{\"plan_cache\":{},\"requests\":{},\"qps\":{:.2},\"p50_us\":{:.1},\"p99_us\":{:.1},\"plan_hits\":{},\"plan_misses\":{},\"arena_hwm_bytes\":{}}}",
                r.plan_cache,
                r.requests,
                r.qps,
                r.p50_us,
                r.p99_us,
                r.plan_hits,
                r.plan_misses,
                r.arena_hwm_bytes
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"plan\",\n  \"exec\": {},\n  \"hardware_cores\": {},\n  \"repeats\": {},\n  \"timing\": \"repeat-min, warmup discarded\",\n  \"ratio_gates_enforced\": {},\n  \"gate_skip_reason\": {},\n  \"tiers\": [{}],\n  \"serve\": [{}]\n}}\n",
        replaying.to_json(),
        cores,
        repeats,
        gates_apply,
        gate_skip_reason,
        tier_json.join(","),
        serve_json.join(","),
    );
    std::fs::write("BENCH_plan.json", &json).expect("write BENCH_plan.json");
    println!("  wrote BENCH_plan.json");
}
