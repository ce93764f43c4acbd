//! `fleet_open`: the same serving code used differently. Independent
//! flows hit a shared fleet (an **open loop**: seeded slot-paced
//! arrivals at 20 req/s, sent on schedule whether or not earlier
//! requests have returned; see `schedule::paced_arrivals`) through the `peb_fleet` router to two
//! `peb_worker` processes. Light load, realistic 32 KiB frames, an
//! extra router hop and a process boundary — so the coalescer's
//! `max_wait_us`, which buys throughput on `serve_closed`, shows as
//! latency here.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use peb_fleet::{clip_digest, Fleet, FleetConfig, Ring};
use peb_serve::{clip::encode_clip, Client, ModelPreset, ServeConfig};

use super::serve_closed::{
    bitcheck, latency_p99, response_ok, served_model, warmed_clients, Counters, BITCHECK_EVERY,
};
use super::{metric, process_cpu_ms, Args, Metric, Traced, Window, Workload};
use crate::env;
use crate::inputs::blob_clip;
use crate::layers;
use crate::schedule::{paced_arrivals, run_open_loop, Arrival};
use crate::stats::{percentile, sorted};
use crate::trace;

pub const DIMS: (usize, usize, usize) = (8, 32, 32);
pub const WORKERS: usize = 2;
pub const CONNS: usize = 2;
pub const RATE_PER_S: f64 = 20.0;
const WARMUP_PER_CONN: u64 = 20;
/// Nothing is shed by design: the deadline is far beyond any latency.
const DEADLINE_US: u64 = 10_000_000;
/// An arrival sent more than this after it was due counts as late.
const LATE_AFTER: Duration = Duration::from_millis(1);

/// The serving configuration every worker runs (passed through
/// `FleetConfig::worker_env`; the benchmark's own environment carries
/// no `PEB_*` variable).
pub fn worker_serve_config() -> ServeConfig {
    ServeConfig {
        grid: DIMS,
        preset: ModelPreset::ForGrid,
        compute_threads: Some(1),
        ..ServeConfig::default()
    }
}

pub fn fleet_config(worker_bin: PathBuf) -> FleetConfig {
    let (d, h, w) = DIMS;
    let env = [
        ("PEB_SERVE_GRID", format!("{d}x{h}x{w}")),
        ("PEB_SERVE_MODEL", "for-grid".to_string()),
        ("PEB_SERVE_THREADS", "1".to_string()),
    ];
    FleetConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        deadline_us: DEADLINE_US,
        worker_bin: Some(worker_bin),
        worker_env: env.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        ..FleetConfig::default()
    }
}

pub fn start_fleet(args: &Args) -> Result<Fleet, String> {
    let bin = args
        .worker_bin
        .clone()
        .ok_or("fleet_open needs --worker-bin <path to target/release/peb_worker>")?;
    if !bin.is_file() {
        return Err(format!(
            "{} is missing: build the product first (cargo build --release -p peb-fleet --bin \
             peb_worker in the repository root; benchmark/run.sh does this)",
            bin.display()
        ));
    }
    Fleet::start(fleet_config(bin)).map_err(|e| format!("starting fleet: {e}"))
}

/// `/stats` counters and engine-thread CPU summed over every worker
/// (a sum, so which pid pairs with which shard does not matter).
fn worker_counters(fleet: &Fleet, pids: &[u32]) -> Result<Counters, String> {
    let shards = fleet.shards();
    let mut total = Counters::default();
    for (slot, &pid) in shards.slots().iter().zip(pids) {
        let addr = slot.addr().ok_or("a worker is down")?;
        let body = Client::connect(addr)
            .and_then(|mut c| c.request("GET", "/stats", &[]))
            .map_err(|e| format!("worker /stats: {e}"))?
            .body;
        total = total.plus(Counters::read(&String::from_utf8_lossy(&body), pid)?);
    }
    Ok(total)
}

fn workers_cpu_ms(pids: &[u32]) -> f64 {
    pids.iter().filter_map(|&p| env::cpu_ms(p)).sum()
}

pub struct FleetOpen {
    seed: u64,
    /// The keep-alive connections, warmed up in set-up and reused by
    /// every window (`None` after a failed exchange until reconnected).
    /// Declared before `fleet` so they close before the router stops.
    clients: Vec<Mutex<Option<Client>>>,
    fleet: Option<Fleet>,
    worker_pids: Vec<u32>,
    /// Arrivals already issued by earlier windows (keeps clips unique).
    issued: u64,
    sampled: Vec<(u64, u64)>,
    last: LastWindow,
    /// Latency of the very first request: plan record on a cold pool.
    first_request_ms: f64,
}

/// What the layer metrics and the validity check need from the most
/// recent window.
#[derive(Default)]
struct LastWindow {
    arrivals: Vec<Arrival>,
    first_index: u64,
    dur: Duration,
    wall: Duration,
    counters: Counters,
    worker_cpu_ms: f64,
}

impl FleetOpen {
    pub fn setup(args: &Args) -> Result<Self, String> {
        let fleet = start_fleet(args)?;
        let worker_pids = env::child_pids();
        if worker_pids.len() != WORKERS {
            return Err(format!(
                "expected {WORKERS} worker processes, found {worker_pids:?}"
            ));
        }
        let (clients, first_request_ms) =
            warmed_clients(fleet.addr(), DIMS, args.seed, CONNS, WARMUP_PER_CONN)?;
        let clients = clients.into_iter().map(|c| Mutex::new(Some(c))).collect();
        Ok(FleetOpen {
            seed: args.seed,
            clients,
            fleet: Some(fleet),
            worker_pids,
            issued: 0,
            sampled: Vec::new(),
            last: LastWindow::default(),
            first_request_ms,
        })
    }

    fn fleet(&self) -> &Fleet {
        self.fleet.as_ref().expect("fleet lives until drop")
    }
}

impl Workload for FleetOpen {
    fn window(&mut self, dur: Duration) -> Window {
        let n = (RATE_PER_S * dur.as_secs_f64()).round().max(1.0) as usize;
        // A fresh schedule per window, still a function of the seed.
        let due = paced_arrivals(self.seed ^ self.issued, n, dur);
        let (seed, first, addr) = (self.seed, self.issued, self.fleet().addr());
        let before = worker_counters(self.fleet(), &self.worker_pids).unwrap_or_default();
        let (own0, workers0) = (process_cpu_ms(), workers_cpu_ms(&self.worker_pids));
        let sampled = Mutex::new(Vec::new());
        let clients = &self.clients;
        let (arrivals, wall) = run_open_loop(&due, CONNS, |conn| {
            let sampled = &sampled;
            move |k: usize| {
                let i = first + k as u64;
                let clip = blob_clip(DIMS, seed, i);
                let mut client = clients[conn].lock().expect("connection slot lock");
                let reply = trace::in_span("fleet.client_infer", i, || match client.as_mut() {
                    Some(c) => c.infer(&clip).map_err(|e| e.to_string()),
                    None => Err("not connected".to_string()),
                });
                match reply {
                    Ok(y) if response_ok(&y, DIMS) => {
                        if i.is_multiple_of(BITCHECK_EVERY) {
                            sampled
                                .lock()
                                .expect("sample list lock")
                                .push((i, y.bit_digest()));
                        }
                        true
                    }
                    _ => {
                        // A failed exchange may have left the stream
                        // mid-frame; the next arrival gets a fresh one.
                        *client = Client::connect(addr).ok();
                        false
                    }
                }
            }
        });
        let worker_cpu_ms = workers_cpu_ms(&self.worker_pids) - workers0;
        let cpu_ms = process_cpu_ms() - own0 + worker_cpu_ms;
        let after = worker_counters(self.fleet(), &self.worker_pids).unwrap_or_default();
        self.sampled
            .extend(sampled.into_inner().expect("sample list lock"));
        self.issued += n as u64;
        let w = Window {
            attempted: arrivals.len() as u64,
            errors: arrivals.iter().filter(|a| !a.ok).count() as u64,
            latencies_ms: arrivals
                .iter()
                .filter(|a| a.ok)
                .map(|a| a.latency().as_secs_f64() * 1e3)
                .collect(),
            wall,
            cpu_ms,
        };
        self.last = LastWindow {
            arrivals,
            first_index: first,
            dur,
            wall,
            counters: after.minus(before),
            worker_cpu_ms,
        };
        w
    }

    fn verify(&mut self) -> Vec<String> {
        let cfg = worker_serve_config();
        let mut failures = bitcheck(&served_model(&cfg), DIMS, self.seed, &self.sampled);
        // An open loop that fell behind its own schedule measured the
        // generator, not the fleet: the run is invalid, not slow.
        let a = &self.last.arrivals;
        if let Some(last_sent) = a.iter().map(|x| x.sent).max() {
            let achieved = a.len() as f64 / last_sent.max(self.last.dur).as_secs_f64();
            let offered = a.len() as f64 / self.last.dur.as_secs_f64();
            if achieved < 0.98 * offered {
                failures.push(format!(
                    "invalid run: sent {achieved:.2} req/s < 0.98 × offered {offered:.2}"
                ));
            }
            let late = a.iter().filter(|x| x.lateness() > LATE_AFTER).count();
            if late * 2 > a.len() {
                failures.push(format!(
                    "invalid run: {late} of {} arrivals were sent late",
                    a.len()
                ));
            }
        }
        failures
    }

    fn compute_threads(&self) -> usize {
        1
    }

    fn layer_metrics(&mut self, traced: &Traced) -> Result<Vec<Metric>, String> {
        let a = &self.last.arrivals;
        let n = a.len().max(1) as f64;
        let ok_lat = sorted(
            a.iter()
                .filter(|x| x.ok)
                .map(|x| x.latency().as_secs_f64() * 1e3)
                .collect(),
        );
        let lateness = sorted(a.iter().map(|x| x.lateness().as_secs_f64() * 1e3).collect());
        let pct = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { percentile(v, p) };
        // Which shard owns each of the window's clips.
        let ring = Ring::new(WORKERS);
        let mut per_shard = [0usize; WORKERS];
        for x in a {
            let body = encode_clip(&blob_clip(
                DIMS,
                self.seed,
                self.last.first_index + x.index as u64,
            ));
            per_shard[ring.owner(clip_digest(&body))] += 1;
        }
        let fleet = self.fleet();
        let fs = fleet.stats();
        let load =
            |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed) as f64;
        let mut m = self.last.counters.metrics(self.last.wall, WORKERS);
        m.extend([
            metric(
                "fleet.shard_skew",
                *per_shard.iter().max().expect("at least one shard") as f64 / n,
                "ratio",
            ),
            metric("fleet.retries", load(&fs.retries), "count"),
            metric("fleet.failovers", load(&fs.failovers), "count"),
            metric(
                "fleet.restarts",
                fleet.shards().total_restarts() as f64,
                "count",
            ),
            metric("fleet.gen_late_p99_ms", pct(&lateness, 99.0), "ms"),
            metric(
                "fleet.late_share",
                a.iter().filter(|x| x.lateness() > LATE_AFTER).count() as f64 / n,
                "ratio",
            ),
            metric("fleet.latency_p95_ms", pct(&ok_lat, 95.0), "ms"),
            metric(
                "fleet.worker_cpu_ms_per_op",
                self.last.worker_cpu_ms / n,
                "ms",
            ),
            metric("pool.first_predict_ms", self.first_request_ms, "ms"),
            latency_p99(traced),
        ]);
        let cfg = worker_serve_config();
        let (model_metrics, error) = layers::model(&layers::ModelSpec {
            config: sdm_peb::SdmPebConfig::for_grid(DIMS),
            clip: &blob_clip(DIMS, self.seed, 1 << 62),
            threads: 1,
            par_speedup: false,
            plan: true,
            fma_peak_gflops: traced.fma_peak_gflops,
        });
        m.extend(model_metrics);
        m.extend(layers::serve_hops(
            &cfg,
            &served_model(&cfg),
            self.seed,
            Some(fleet),
        )?);
        error.map_or(Ok(m), Err)
    }

    fn helper_rss_mib(&self) -> f64 {
        self.worker_pids
            .iter()
            .filter_map(|&p| env::peak_rss_mib(p))
            .sum()
    }

    fn describe(&self) -> String {
        format!(
            "open loop slot-paced {RATE_PER_S} req/s conns={CONNS} clip={DIMS:?} workers={WORKERS} \
             preset=for-grid PEB_SERVE_THREADS=1 deadline_us={DEADLINE_US} \
             warmup_per_conn={WARMUP_PER_CONN} bitcheck_every={BITCHECK_EVERY}"
        )
    }
}

impl Drop for FleetOpen {
    fn drop(&mut self) {
        // Graceful drain: closes each worker's stdin, waits for it to
        // exit, kills stragglers, reaps all of them.
        self.clients.clear();
        if let Some(f) = self.fleet.take() {
            f.shutdown();
        }
    }
}
