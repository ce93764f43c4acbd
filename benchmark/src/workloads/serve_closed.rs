//! `serve_closed`: the overhead-dominated regime. Two callers that each
//! wait for their reply (a **closed loop**, 2 keep-alive connections on
//! 2 threads) saturate one in-process `peb_serve::Server` whose single
//! engine thread is the only compute resource. A 4×16×16 clip is ≈ 1 K
//! voxels, so `peb-plan` replay, `peb-pool`, the batch coalescer and
//! HTTP framing do most of the work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use peb_serve::{Client, ModelPreset, ServeConfig, Server};
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{PebPredictor, SdmPeb, SdmPebConfig};

use super::{metric, process_cpu_ms, Args, Metric, Traced, Window, Workload};
use crate::inputs::blob_clip;
use crate::json::Json;
use crate::layers;
use crate::trace;

pub const DIMS: (usize, usize, usize) = (4, 16, 16);
pub const CONNS: usize = 2;
const WARMUP_PER_CONN: u64 = 50;
/// One response in this many is bit-compared with an in-process
/// `predict` of the same clip after the window.
pub const BITCHECK_EVERY: u64 = 16;

pub fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        grid: DIMS,
        preset: ModelPreset::Tiny,
        compute_threads: Some(1),
        ..ServeConfig::default()
    }
}

/// The model a server built from `cfg` serves (same constructor calls
/// as `peb_serve::engine::build_model`, which is private).
pub fn served_model(cfg: &ServeConfig) -> SdmPeb {
    let arch = match cfg.preset {
        ModelPreset::Tiny => SdmPebConfig::tiny(cfg.grid),
        ModelPreset::ForGrid => SdmPebConfig::for_grid(cfg.grid),
    };
    SdmPeb::new(arch, &mut StdRng::seed_from_u64(cfg.seed))
}

/// Shape and finiteness of one response (CRC was already verified by
/// `Client::infer`'s `PEBRESP2` decode).
pub fn response_ok(y: &Tensor, dims: (usize, usize, usize)) -> bool {
    y.shape() == [dims.0, dims.1, dims.2] && y.data().iter().all(|v| v.is_finite())
}

/// Bit-compares sampled `(clip index, response digest)` pairs with an
/// in-process `predict` — the repo's bitwise serving contract.
pub fn bitcheck(
    model: &SdmPeb,
    dims: (usize, usize, usize),
    seed: u64,
    sampled: &[(u64, u64)],
) -> Vec<String> {
    sampled
        .iter()
        .filter(|&&(i, digest)| model.predict(&blob_clip(dims, seed, i)).bit_digest() != digest)
        .map(|(i, _)| format!("request {i}: response differs bitwise from in-process predict"))
        .collect()
}

/// The serving counters the layer metrics are made of, read from a
/// server's `/stats` document (`ServeStats::to_json`, in process or
/// over HTTP) plus its engine thread's CPU time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    batches: f64,
    batched_requests: f64,
    plan_hits: f64,
    plan_misses: f64,
    shed: f64,
    engine_cpu_ms: f64,
}

impl Counters {
    pub fn read(stats_json: &str, pid: u32) -> Result<Self, String> {
        let doc = Json::parse(stats_json).map_err(|e| format!("/stats: {e}"))?;
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("/stats lacks {k:?}"))
        };
        let Some(Json::Obj(hist)) = doc.get("batch_hist") else {
            return Err("/stats lacks \"batch_hist\"".into());
        };
        let mut c = Counters {
            plan_hits: num("plan_hits")?,
            plan_misses: num("plan_misses")?,
            shed: num("shed")? + num("deadline_shed")?,
            engine_cpu_ms: crate::env::thread_cpu_ms(pid, "peb-serve-engin").unwrap_or(0.0),
            ..Counters::default()
        };
        for (size, count) in hist {
            let (size, count) = (size.parse::<f64>().ok(), count.as_f64());
            let (Some(size), Some(count)) = (size, count) else {
                return Err("malformed batch_hist entry".into());
            };
            c.batches += count;
            c.batched_requests += size * count;
        }
        Ok(c)
    }

    fn add_scaled(self, o: Counters, k: f64) -> Counters {
        Counters {
            batches: self.batches + k * o.batches,
            batched_requests: self.batched_requests + k * o.batched_requests,
            plan_hits: self.plan_hits + k * o.plan_hits,
            plan_misses: self.plan_misses + k * o.plan_misses,
            shed: self.shed + k * o.shed,
            engine_cpu_ms: self.engine_cpu_ms + k * o.engine_cpu_ms,
        }
    }

    pub fn plus(self, o: Counters) -> Counters {
        self.add_scaled(o, 1.0)
    }

    pub fn minus(self, o: Counters) -> Counters {
        self.add_scaled(o, -1.0)
    }

    /// The `serve.*` counter metrics over a window of `wall` on
    /// `engines` engine threads.
    pub fn metrics(&self, wall: Duration, engines: usize) -> Vec<Metric> {
        let planned = (self.plan_hits + self.plan_misses).max(1.0);
        let engine_ms = (wall.as_secs_f64() * 1e3 * engines as f64).max(1e-9);
        vec![
            metric(
                "serve.batch_mean",
                self.batched_requests / self.batches.max(1.0),
                "count",
            ),
            metric("serve.plan_hit_share", self.plan_hits / planned, "ratio"),
            metric("serve.shed_count", self.shed, "count"),
            metric(
                "serve.engine_busy_share",
                self.engine_cpu_ms / engine_ms,
                "ratio",
            ),
        ]
    }
}

/// Nearest-rank p99 of the traced window's requests. A layer metric, not
/// an end-to-end one: a quarter window holds too few samples beyond it
/// for a regression bound, but it is where HTTP and coalescer changes
/// show first.
pub fn latency_p99(traced: &Traced) -> Metric {
    let lat = &traced.latencies_ms;
    let p99 = if lat.is_empty() {
        0.0
    } else {
        crate::stats::percentile(lat, 99.0)
    };
    metric("serve.latency_p99_ms", p99, "ms")
}

/// Opens `conns` keep-alive connections to `addr` and sends `per_conn`
/// discarded requests down each. Warm-up clips live in
/// their own index space (top bit set). Also returns the latency of the
/// very first request.
pub fn warmed_clients(
    addr: std::net::SocketAddr,
    dims: (usize, usize, usize),
    seed: u64,
    conns: usize,
    per_conn: u64,
) -> Result<(Vec<Client>, f64), String> {
    let mut clients = Vec::with_capacity(conns);
    let mut first_ms = None;
    for c in 0..conns as u64 {
        let mut client = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
        for k in 0..per_conn {
            let clip = blob_clip(dims, seed, (1 << 63) | (c * per_conn + k));
            let t = Instant::now();
            let y = client
                .infer(&clip)
                .map_err(|e| format!("warm-up request failed: {e}"))?;
            first_ms.get_or_insert(t.elapsed().as_secs_f64() * 1e3);
            if !response_ok(&y, dims) {
                return Err("warm-up response is malformed".into());
            }
        }
        clients.push(client);
    }
    Ok((clients, first_ms.unwrap_or(0.0)))
}

pub struct ServeClosed {
    seed: u64,
    clients: Vec<Client>,
    server: Option<Server>,
    next: AtomicU64,
    sampled: Vec<(u64, u64)>,
    /// Counter deltas and wall time of the most recent window.
    last: (Counters, Duration),
    /// Latency of the very first request: plan record on a cold pool.
    first_request_ms: f64,
}

impl ServeClosed {
    pub fn setup(args: &Args) -> Result<Self, String> {
        let server = Server::start(config()).map_err(|e| format!("starting server: {e}"))?;
        let (clients, first_request_ms) =
            warmed_clients(server.addr(), DIMS, args.seed, CONNS, WARMUP_PER_CONN)?;
        Ok(ServeClosed {
            seed: args.seed,
            clients,
            server: Some(server),
            next: AtomicU64::new(0),
            sampled: Vec::new(),
            last: Default::default(),
            first_request_ms,
        })
    }

    fn counters(&self) -> Counters {
        let server = self.server.as_ref().expect("server lives until drop");
        Counters::read(&server.handle().stats().to_json(), std::process::id())
            .expect("ServeStats::to_json is well-formed")
    }
}

impl Workload for ServeClosed {
    fn window(&mut self, dur: Duration) -> Window {
        let before = self.counters();
        let cpu0 = process_cpu_ms();
        let (seed, next) = (self.seed, &self.next);
        let start = Instant::now();
        let per_conn: Vec<(Window, Vec<(u64, u64)>)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    s.spawn(move || {
                        let mut w = Window::default();
                        let mut sampled = Vec::new();
                        while start.elapsed() < dur {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let clip = blob_clip(DIMS, seed, i);
                            let t = Instant::now();
                            let reply =
                                trace::in_span("serve.client_infer", i, || client.infer(&clip));
                            let lat = t.elapsed();
                            w.attempted += 1;
                            match reply {
                                Ok(y) if response_ok(&y, DIMS) => {
                                    w.latencies_ms.push(lat.as_secs_f64() * 1e3);
                                    if i.is_multiple_of(BITCHECK_EVERY) {
                                        sampled.push((i, y.bit_digest()));
                                    }
                                }
                                _ => w.errors += 1,
                            }
                        }
                        (w, sampled)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop client thread"))
                .collect()
        });
        let mut w = Window {
            wall: start.elapsed(),
            cpu_ms: process_cpu_ms() - cpu0,
            ..Window::default()
        };
        for (part, sampled) in per_conn {
            w.attempted += part.attempted;
            w.errors += part.errors;
            w.latencies_ms.extend(part.latencies_ms);
            self.sampled.extend(sampled);
        }
        self.last = (self.counters().minus(before), w.wall);
        w
    }

    fn verify(&mut self) -> Vec<String> {
        bitcheck(&served_model(&config()), DIMS, self.seed, &self.sampled)
    }

    fn compute_threads(&self) -> usize {
        1
    }

    fn layer_metrics(&mut self, traced: &Traced) -> Result<Vec<Metric>, String> {
        let cfg = config();
        let mut m = self.last.0.metrics(self.last.1, 1);
        m.push(metric("pool.first_predict_ms", self.first_request_ms, "ms"));
        m.push(latency_p99(traced));
        let (model_metrics, error) = layers::model(&layers::ModelSpec {
            config: SdmPebConfig::tiny(DIMS),
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
            None,
        )?);
        error.map_or(Ok(m), Err)
    }

    fn describe(&self) -> String {
        let c = config();
        format!(
            "closed loop conns={CONNS} clip={DIMS:?} preset=tiny engine_threads=1 max_batch={} \
             max_wait_us={} queue={} warmup_per_conn={WARMUP_PER_CONN} bitcheck_every={BITCHECK_EVERY}",
            c.max_batch, c.max_wait_us, c.queue_cap
        )
    }
}

impl Drop for ServeClosed {
    fn drop(&mut self) {
        // Connections first: the server's connection threads exit when
        // their peers hang up.
        self.clients.clear();
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}
