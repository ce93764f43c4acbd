//! Chaos-verified fleet availability: emits `BENCH_fleet.json` with
//! availability, p50/p99 latency, retry/failover/restart counts and
//! time-to-recovery under a scripted chaos schedule at load.
//!
//! Two stages:
//!
//! 1. **baseline** — a 1-worker fleet, no faults: the clean p50/p99 and
//!    throughput floor.
//! 2. **chaos** — a 3-worker fleet with one fault armed per shard
//!    (countdowns stagger them through the window): shard 0 aborts
//!    mid-batch (`kill-worker:10`), shard 1 wedges alive-but-silent
//!    (`hang-worker:40`), shard 2 corrupts a response frame
//!    (`corrupt-resp:5`). The load keeps running while the router
//!    fails over and the supervisor restarts the dead and wedged
//!    workers.
//!
//! Every 200-response is digest-checked against the in-process
//! reference model — a fleet answer that differs by one bit from the
//! single-process answer is a hard failure, which also proves no
//! corrupt frame is ever forwarded. In-binary gates: availability
//! (successes over everything except router/worker deadline sheds)
//! ≥ 99%, both restartable faults recovered (restarts ≥ 2, all shards
//! back up), and the corrupt frame caught by the CRC gate. The
//! chaos-vs-baseline throughput-ratio gate needs ≥4 cores (or
//! `PEB_BENCH_STRICT=1`) — on fewer cores router, workers and load
//! generator all fight over the same core and the ratio measures the
//! scheduler, not the fleet; the artifact records `gate_skip_reason`.
//!
//! Knobs: `PEB_FLEET_BENCH_SECS` (window per stage, default 2),
//! `PEB_FLEET_BENCH_WARMUP_SECS` (default 0.5), `PEB_FLEET_BENCH_CONNS`
//! (closed-loop clients, default 2), `PEB_FLEET_WORKER_BIN` (worker
//! binary; defaults to the `peb_worker` sibling of this executable).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use peb_fleet::{Fleet, FleetConfig};
use peb_serve::{Client, ClientError};
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{PebPredictor, SdmPeb, SdmPebConfig};

const GRID: (usize, usize, usize) = (4, 16, 16);
const SEED: u64 = 42;
const CLIPS: usize = 8;

struct StageResult {
    name: &'static str,
    workers: usize,
    ok: u64,
    shed: u64,
    errors: u64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn test_clip(tag: u64) -> Tensor {
    let (d, h, w) = GRID;
    Tensor::from_vec(
        (0..d * h * w)
            .map(|i| ((i as f32 + tag as f32 * 37.0) * 0.01).cos() * 0.3 + 0.5)
            .collect(),
        &[d, h, w],
    )
    .expect("clip")
}

fn worker_env() -> Vec<(String, String)> {
    vec![
        ("PEB_SERVE_GRID".to_string(), "4x16x16".to_string()),
        ("PEB_SERVE_MODEL".to_string(), "tiny".to_string()),
        ("PEB_SERVE_SEED".to_string(), SEED.to_string()),
        ("PEB_SERVE_MAX_BATCH".to_string(), "4".to_string()),
        ("PEB_SERVE_MAX_WAIT_US".to_string(), "200".to_string()),
        ("PEB_SERVE_THREADS".to_string(), "1".to_string()),
    ]
}

fn fleet_config(workers: usize) -> FleetConfig {
    FleetConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        worker_bin: std::env::var("PEB_FLEET_WORKER_BIN")
            .ok()
            .filter(|v| !v.is_empty())
            .map(std::path::PathBuf::from),
        worker_env: worker_env(),
        deadline_us: 10_000_000,
        probe_interval: Duration::from_millis(100),
        probe_timeout: Duration::from_millis(500),
        probe_fails: 2,
        // Bound what one hung worker can cost a request, so failover
        // still fits inside the deadline.
        attempt_timeout: Some(Duration::from_secs(1)),
        ..FleetConfig::default()
    }
    .normalized()
}

/// Closed-loop load at `conns` clients for `warmup + window`, digesting
/// every success against `refs`. Only the measured window is counted.
fn run_stage(
    name: &'static str,
    fleet: &Fleet,
    conns: usize,
    warmup: Duration,
    window: Duration,
    refs: &[u64],
) -> StageResult {
    let stop = Arc::new(AtomicBool::new(false));
    let measure = Arc::new(AtomicBool::new(false));
    let addr = fleet.addr();
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let measure = Arc::clone(&measure);
            let refs = refs.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let clips: Vec<Tensor> = (0..CLIPS as u64).map(test_clip).collect();
                let mut lat_us: Vec<f64> = Vec::new();
                let (mut ok, mut shed, mut errors) = (0u64, 0u64, 0u64);
                let mut i = c; // offset so conns don't march in lockstep
                while !stop.load(Ordering::Relaxed) {
                    let measured = measure.load(Ordering::Relaxed);
                    let tag = i % CLIPS;
                    i += 1;
                    let t0 = Instant::now();
                    match client.infer(&clips[tag]) {
                        Ok(y) => {
                            assert_eq!(
                                y.bit_digest(),
                                refs[tag],
                                "fleet answer for clip {tag} differs from the \
                                 single-process reference"
                            );
                            if measured {
                                lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
                                ok += 1;
                            }
                        }
                        Err(ClientError::Status(504, _)) => {
                            if measured {
                                shed += 1;
                            }
                        }
                        Err(_) => {
                            if measured {
                                errors += 1;
                            }
                            match Client::connect(addr) {
                                Ok(c) => client = c,
                                Err(_) => break,
                            }
                        }
                    }
                }
                (lat_us, ok, shed, errors)
            })
        })
        .collect();
    std::thread::sleep(warmup);
    measure.store(true, Ordering::Relaxed);
    let t0 = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut all_lat: Vec<f64> = Vec::new();
    let (mut ok, mut shed, mut errors) = (0u64, 0u64, 0u64);
    for w in workers {
        let (lat, o, s, e) = w.join().expect("load thread");
        all_lat.extend(lat);
        ok += o;
        shed += s;
        errors += e;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    all_lat.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    StageResult {
        name,
        workers: fleet.shards().slots().len(),
        ok,
        shed,
        errors,
        qps: ok as f64 / elapsed,
        p50_us: percentile(&all_lat, 50.0),
        p99_us: percentile(&all_lat, 99.0),
        max_us: all_lat.last().copied().unwrap_or(0.0),
    }
}

fn main() {
    let exec = peb_par::ctx::init_or_exit();
    let window_s: f64 = std::env::var("PEB_FLEET_BENCH_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let warmup_s: f64 = std::env::var("PEB_FLEET_BENCH_WARMUP_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.5);
    let conns: usize = std::env::var("PEB_FLEET_BENCH_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
        .max(1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let window = Duration::from_secs_f64(window_s);
    let warmup = Duration::from_secs_f64(warmup_s);

    // Single-process reference digests: the bits every fleet answer
    // must reproduce exactly.
    let model = SdmPeb::new(SdmPebConfig::tiny(GRID), &mut StdRng::seed_from_u64(SEED));
    let refs: Vec<u64> = (0..CLIPS as u64)
        .map(|t| model.predict(&test_clip(t)).bit_digest())
        .collect();

    println!(
        "bench_fleet: conns={conns} window={window_s}s grid={}x{}x{} cores={cores}",
        GRID.0, GRID.1, GRID.2
    );

    // Stage 1: clean single-worker baseline.
    let baseline_fleet = Fleet::start(fleet_config(1)).expect("baseline fleet");
    let baseline = run_stage("baseline", &baseline_fleet, conns, warmup, window, &refs);
    baseline_fleet.shutdown();
    println!(
        "  baseline: qps={:>8.1} p50={:>8.1}us p99={:>9.1}us ok={} shed={} errors={}",
        baseline.qps, baseline.p50_us, baseline.p99_us, baseline.ok, baseline.shed, baseline.errors
    );

    // Stage 2: three workers, one scripted fault per shard. Countdowns
    // stagger the faults through the load window: the corrupt frame
    // lands almost immediately, the kill a moment later, the wedge
    // deeper in (probes also count toward its request countdown).
    let mut chaos_cfg = fleet_config(3);
    chaos_cfg.worker_chaos = vec![
        (0, "kill-worker:10".to_string()),
        (1, "hang-worker:40".to_string()),
        (2, "corrupt-resp:5".to_string()),
    ];
    let fleet = Fleet::start(chaos_cfg).expect("chaos fleet");
    let shards = fleet.shards();

    let chaos = run_stage("chaos", &fleet, conns, warmup, window, &refs);
    println!(
        "  chaos:    qps={:>8.1} p50={:>8.1}us p99={:>9.1}us ok={} shed={} errors={}",
        chaos.qps, chaos.p50_us, chaos.p99_us, chaos.ok, chaos.shed, chaos.errors
    );

    // Recovery gate: both restartable faults (kill, hang) must be
    // restarted and routable again. The load window may end mid-restart,
    // so allow a post-window grace period before judging.
    let recover_deadline = Instant::now() + Duration::from_secs(30);
    while (shards.up_count() < 3 || shards.total_restarts() < 2)
        && Instant::now() < recover_deadline
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    // Time-to-recovery is clocked by the supervisor's own restart path
    // (down declaration → replacement routable) — sampling up_count
    // from outside misses short outages on a loaded single-core box.
    let time_to_recovery = shards.worst_outage();

    let stats = fleet.stats();
    let retries = stats.retries.load(Ordering::Relaxed);
    let failovers = stats.failovers.load(Ordering::Relaxed);
    let corrupt_rejected = stats.corrupt_rejected.load(Ordering::Relaxed);
    let router_shed = stats.deadline_shed.load(Ordering::Relaxed);
    let restarts = shards.total_restarts();
    let up = shards.up_count();
    // Killed/hung workers must be restarted and serving again.
    assert!(
        restarts >= 2,
        "kill-worker and hang-worker must both force a restart (saw {restarts})"
    );
    assert_eq!(up, 3, "all shards must be routable again after chaos");
    assert!(
        corrupt_rejected >= 1,
        "the scripted corrupt-resp frame must be caught by the CRC gate"
    );
    // One more digest-checked round trip against the restarted fleet.
    {
        let mut c = Client::connect(fleet.addr()).expect("connect");
        for (tag, want) in refs.iter().enumerate() {
            let y = c
                .infer(&test_clip(tag as u64))
                .expect("post-recovery infer");
            assert_eq!(y.bit_digest(), *want, "post-recovery digest for clip {tag}");
        }
    }
    fleet.shutdown();

    // Availability gate: everything except deadline sheds must succeed.
    let attempted = chaos.ok + chaos.errors;
    let availability = if attempted == 0 {
        0.0
    } else {
        chaos.ok as f64 / attempted as f64
    };
    assert!(
        attempted > 0,
        "chaos stage served no measured requests — window too short"
    );
    assert!(
        availability >= 0.99,
        "availability {availability:.4} under chaos fell below 0.99 \
         (ok={}, errors={}, sheds excluded={})",
        chaos.ok,
        chaos.errors,
        chaos.shed
    );
    println!(
        "  availability={availability:.4} retries={retries} failovers={failovers} \
         restarts={restarts} corrupt_rejected={corrupt_rejected} \
         time_to_recovery={:.0}ms",
        time_to_recovery.as_secs_f64() * 1e3
    );

    // Throughput-ratio gate: a 3-worker fleet under chaos should keep a
    // decent fraction of the 1-worker clean throughput — but only where
    // the processes are not all time-slicing one core.
    let strict = std::env::var("PEB_BENCH_STRICT").as_deref() == Ok("1");
    let ratio_gate_applies = strict || cores >= 4;
    let ratio = chaos.qps / baseline.qps.max(1e-9);
    let gate_skip_reason = if ratio_gate_applies {
        "null".to_string()
    } else {
        format!("\"hardware_cores {cores} < 4 and PEB_BENCH_STRICT unset\"")
    };
    if ratio_gate_applies {
        assert!(
            ratio >= 0.5,
            "chaos-fleet throughput collapsed to {ratio:.2}x of the clean baseline"
        );
        println!("  throughput-ratio gate: {ratio:.2}x (>= 0.5x)");
    } else {
        println!("  throughput-ratio gate skipped: {gate_skip_reason}");
    }

    let stage_json = |s: &StageResult| {
        format!(
            "{{\"stage\":\"{}\",\"workers\":{},\"ok\":{},\"shed\":{},\"errors\":{},\"qps\":{:.2},\"p50_us\":{:.1},\"p99_us\":{:.1},\"max_us\":{:.1}}}",
            s.name, s.workers, s.ok, s.shed, s.errors, s.qps, s.p50_us, s.p99_us, s.max_us
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"fleet\",\n  \"exec\": {},\n  \"grid\": \"{}x{}x{}\",\n  \"hardware_cores\": {},\n  \"window_s\": {},\n  \"warmup_s\": {},\n  \"conns\": {},\n  \"chaos_schedule\": [\"0:kill-worker:10\", \"1:hang-worker:40\", \"2:corrupt-resp:5\"],\n  \"stages\": [{},{}],\n  \"availability\": {:.6},\n  \"retries\": {},\n  \"failovers\": {},\n  \"restarts\": {},\n  \"corrupt_rejected\": {},\n  \"router_deadline_shed\": {},\n  \"time_to_recovery_ms\": {:.1},\n  \"throughput_ratio\": {:.3},\n  \"ratio_gate_enforced\": {},\n  \"gate_skip_reason\": {},\n  \"digest_ok\": true\n}}\n",
        exec.to_json(),
        GRID.0,
        GRID.1,
        GRID.2,
        cores,
        window_s,
        warmup_s,
        conns,
        stage_json(&baseline),
        stage_json(&chaos),
        availability,
        retries,
        failovers,
        restarts,
        corrupt_rejected,
        router_shed,
        time_to_recovery.as_secs_f64() * 1e3,
        ratio,
        ratio_gate_applies,
        gate_skip_reason,
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("  wrote BENCH_fleet.json");
}
