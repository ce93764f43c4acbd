//! The fleet front-end: accepts the same HTTP/`PEBCLIP1` protocol as a
//! single worker, shards `/infer` across worker processes by clip
//! digest, propagates deadlines, and retries failed attempts on
//! fallback shards.
//!
//! Routing rules (DESIGN §15):
//!
//! - The shard *preference order* for a request is a pure function of
//!   its clip digest (consistent hashing, [`crate::ring`]). Down shards
//!   are skipped, not re-hashed — the ring shrinks.
//! - The router's remaining deadline rides the `X-Peb-Deadline-Us`
//!   header to the worker, whose batch coalescer sheds late jobs with
//!   504. The per-attempt socket read budget is the remaining deadline,
//!   optionally capped by `attempt_timeout` so a hung worker costs one
//!   attempt's cap instead of the whole budget.
//! - An attempt failure (connect refused/reset, timeout, bad CRC, 429,
//!   5xx) marks the shard suspect (the supervisor probes it out of
//!   cadence) and retries on the next shard in preference order after a
//!   capped exponential backoff with deterministic jitter. Retries stop
//!   when the deadline expires (504) or attempts are exhausted (502).
//! - Worker responses failing the CRC-32 integrity check are **never
//!   forwarded**; they count as `corrupt_rejected` and retry.
//!
//! Router routes: `/infer` and `/swap` forward (sharded / fan-out);
//! `/healthz`, `/readyz` and `/stats` answer locally; `/version`
//! forwards to the first routable shard.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use peb_serve::http::encode_response;
use peb_serve::{Client, ClientError, ClientTimeouts, Method, Request, RequestParser};

use crate::config::FleetConfig;
use crate::ring::{clip_digest, fnv64, Ring};
use crate::stats::FleetStats;
use crate::supervisor::{Shards, Supervisor};

/// Read timeout on router connections (bounds shutdown latency).
const READ_POLL: Duration = Duration::from_millis(100);

/// Largest request body the router accepts (matches a worker's own
/// limit for paper-scale grids, with header slack).
const MAX_BODY: usize = 64 * 1024 * 1024;

/// A running fleet: router + supervisor + workers.
pub struct Fleet {
    addr: SocketAddr,
    config: FleetConfig,
    supervisor: Option<Supervisor>,
    stats: Arc<FleetStats>,
    stop: Arc<AtomicBool>,
    acceptors: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Everything a connection thread needs to route (cheaply cloneable).
#[derive(Clone)]
struct RouterCtx {
    config: FleetConfig,
    ring: Arc<Ring>,
    shards: Arc<Shards>,
    /// The supervisor's checkpoint record: `/swap` writes the committed
    /// path here so restarted workers reload it.
    ckpt: Arc<Mutex<Option<String>>>,
    stats: Arc<FleetStats>,
}

impl Fleet {
    /// Starts the workers (via [`Supervisor::start`]), binds the router
    /// address, and begins accepting.
    ///
    /// # Errors
    ///
    /// Propagates worker spawn failures and socket errors.
    pub fn start(config: FleetConfig) -> std::io::Result<Fleet> {
        let config = config.normalized();
        let supervisor = Supervisor::start(&config)?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(FleetStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let ctx = RouterCtx {
            config: config.clone(),
            ring: Arc::new(Ring::new(config.workers)),
            shards: Arc::clone(supervisor.shards()),
            ckpt: supervisor.checkpoint_cell(),
            stats: Arc::clone(&stats),
        };
        let mut acceptors = Vec::with_capacity(config.conn_workers);
        for i in 0..config.conn_workers {
            let listener = listener.try_clone()?;
            let ctx = ctx.clone();
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            acceptors.push(
                std::thread::Builder::new()
                    .name(format!("peb-fleet-accept-{i}"))
                    .spawn(move || accept_loop(&listener, &ctx, &stop, &conns))?,
            );
        }
        Ok(Fleet {
            addr,
            config,
            supervisor: Some(supervisor),
            stats,
            stop,
            acceptors,
            conns,
        })
    }

    /// The router's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Fleet counters (tests, the bench).
    pub fn stats(&self) -> &Arc<FleetStats> {
        &self.stats
    }

    /// The shared shard table (tests inspect states and restarts).
    pub fn shards(&self) -> Arc<Shards> {
        self.supervisor
            .as_ref()
            .map(|s| Arc::clone(s.shards()))
            .unwrap_or_else(|| Arc::new(Shards::empty()))
    }

    /// The routing ring (tests compute which shard owns a clip).
    pub fn ring(&self) -> Ring {
        Ring::new(self.config.workers)
    }

    /// Graceful stop: stop accepting, finish in-flight requests, then
    /// drain every worker.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        for _ in 0..self.acceptors.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for a in self.acceptors.drain(..) {
            let _ = a.join();
        }
        let conns = {
            let mut g = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *g)
        };
        for c in conns {
            let _ = c.join();
        }
        if let Some(s) = self.supervisor.take() {
            s.shutdown(self.config.drain_timeout);
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    ctx: &RouterCtx,
    stop: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        let ctx = ctx.clone();
        let stop = Arc::clone(stop);
        let spawned = std::thread::Builder::new()
            .name("peb-fleet-conn".to_string())
            .spawn(move || handle_conn(stream, &ctx, &stop));
        if let Ok(j) = spawned {
            let mut conns = conns.lock().unwrap_or_else(|e| e.into_inner());
            // A finished thread keeps its stack until its handle is joined
            // or dropped: reap those before adding to the list.
            conns.retain(|c| !c.is_finished());
            conns.push(j);
        }
    }
}

/// Per-connection-thread cache of upstream clients, one per shard.
/// Keep-alive to the workers amortises connect cost; any attempt
/// failure drops the cached client so the next attempt reconnects.
type Upstreams = HashMap<usize, Client>;

fn handle_conn(mut stream: TcpStream, ctx: &RouterCtx, stop: &Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut parser = RequestParser::with_max_body(MAX_BODY);
    let mut buf = [0u8; 16 * 1024];
    let mut upstreams = Upstreams::new();
    loop {
        loop {
            match parser.poll() {
                Ok(Some(req)) => {
                    ctx.stats.tick_request();
                    let (status, content_type, body) = route(ctx, &mut upstreams, &req);
                    let keep = req.keep_alive;
                    let wire = encode_response(status, content_type, &body, keep);
                    if stream.write_all(&wire).is_err() || !keep {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    ctx.stats.tick_request();
                    let body = format!("{e}\n");
                    let wire = encode_response(e.status(), "text/plain", body.as_bytes(), false);
                    let _ = stream.write_all(&wire);
                    return;
                }
            }
        }
        if stop.load(Ordering::Acquire) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => parser.feed(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Routes one request; returns `(status, content_type, body)`.
fn route(
    ctx: &RouterCtx,
    upstreams: &mut Upstreams,
    req: &Request,
) -> (u16, &'static str, Vec<u8>) {
    match (&req.method, req.path()) {
        (Method::Get, "/healthz") => (200, "text/plain", b"ok\n".to_vec()),
        (Method::Get, "/readyz") => {
            let up = ctx.shards.up_count();
            if up > 0 {
                (
                    200,
                    "text/plain",
                    format!("ready ({up} shards up)\n").into_bytes(),
                )
            } else {
                (503, "text/plain", b"not ready: no shard up\n".to_vec())
            }
        }
        (Method::Get, "/stats") => (
            200,
            "application/json",
            ctx.stats.to_json(&ctx.shards).into_bytes(),
        ),
        (Method::Get, "/version") => forward_first_up(ctx, upstreams, req),
        (Method::Post, "/infer") => infer(ctx, upstreams, req),
        (Method::Post, "/swap") => swap_all(ctx, upstreams, req),
        (_, "/healthz" | "/readyz" | "/stats" | "/version" | "/infer" | "/swap") => (
            405,
            "text/plain",
            b"method not allowed on this route\n".to_vec(),
        ),
        _ => (404, "text/plain", b"no such route\n".to_vec()),
    }
}

/// Resolves this request's absolute deadline: the client's
/// `X-Peb-Deadline-Us` header, else the fleet default. `None` = none.
fn request_deadline(ctx: &RouterCtx, req: &Request) -> Result<Option<Instant>, String> {
    let us = match req.header("x-peb-deadline-us") {
        Some(v) => v
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("x-peb-deadline-us {v:?} is not a microsecond count"))?,
        None => ctx.config.deadline_us,
    };
    Ok((us > 0).then(|| Instant::now() + Duration::from_micros(us)))
}

/// The sharded `/infer` path: preference order, deadline propagation,
/// retries with failover and backoff.
fn infer(
    ctx: &RouterCtx,
    upstreams: &mut Upstreams,
    req: &Request,
) -> (u16, &'static str, Vec<u8>) {
    let deadline = match request_deadline(ctx, req) {
        Ok(d) => d,
        Err(detail) => return (400, "text/plain", format!("{detail}\n").into_bytes()),
    };
    let digest = clip_digest(&req.body);
    let prefer = ctx.ring.prefer(digest);
    let mut last_failure: Option<String> = None;
    let mut prev_shard: Option<usize> = None;
    for attempt in 0..ctx.config.max_attempts {
        // Deadline check between attempts: shed rather than dispatch
        // work the client has already given up on.
        let remaining = match remaining_budget(deadline) {
            Ok(r) => r,
            Err(()) => {
                ctx.stats.tick_deadline_shed();
                return (504, "text/plain", b"deadline expired at router\n".to_vec());
            }
        };
        // Skip shards that are not routable *right now*; the preference
        // order itself never changes (the ring shrinks, DESIGN §15).
        let candidates: Vec<usize> = prefer
            .iter()
            .copied()
            .filter(|&s| ctx.shards.slots()[s].routable())
            .collect();
        if candidates.is_empty() {
            // Total outage: wait one backoff step for the supervisor to
            // bring something back, bounded by the deadline.
            backoff(ctx, digest, attempt, deadline);
            last_failure = Some("no shard up".to_string());
            continue;
        }
        let shard = candidates[attempt % candidates.len()];
        if attempt > 0 {
            ctx.stats.tick_retry(prev_shard != Some(shard));
        }
        prev_shard = Some(shard);
        match try_shard(ctx, upstreams, shard, req, remaining) {
            Ok((status, body)) => {
                let ct = if status == 200 {
                    "application/octet-stream"
                } else {
                    "text/plain"
                };
                return (status, ct, body);
            }
            Err(failure) => {
                last_failure = Some(failure);
                ctx.shards.slots()[shard].mark_suspect();
                backoff(ctx, digest, attempt, deadline);
            }
        }
    }
    if remaining_budget(deadline).is_err() {
        ctx.stats.tick_deadline_shed();
        return (504, "text/plain", b"deadline expired at router\n".to_vec());
    }
    let detail = last_failure.unwrap_or_else(|| "no attempt ran".to_string());
    (
        502,
        "text/plain",
        format!("all attempts failed: {detail}\n").into_bytes(),
    )
}

/// One upstream attempt. `Ok` carries a response to forward verbatim
/// (200 with a verified frame, or a deterministic non-retryable status);
/// `Err` carries the retryable failure description.
fn try_shard(
    ctx: &RouterCtx,
    upstreams: &mut Upstreams,
    shard: usize,
    req: &Request,
    remaining: Option<Duration>,
) -> Result<(u16, Vec<u8>), String> {
    let slot = &ctx.shards.slots()[shard];
    let addr = slot
        .addr()
        .ok_or_else(|| format!("shard {shard} has no address"))?;
    // Socket budget for this attempt: the remaining deadline when one
    // exists (clamped away from zero — a zero socket timeout is an
    // error, and remaining==0 was shed before dispatch), further capped
    // by `attempt_timeout` so a *hung* worker cannot consume the whole
    // deadline on one attempt and starve the failover retry.
    let attempt_budget = match (remaining, ctx.config.attempt_timeout) {
        (Some(r), Some(cap)) => Some(r.min(cap)),
        (Some(r), None) => Some(r),
        (None, cap) => cap,
    };
    let timeouts = match attempt_budget {
        Some(b) => ClientTimeouts::uniform(b.max(Duration::from_millis(1))),
        None => ClientTimeouts::default(),
    };
    let mut client = match upstreams.remove(&shard) {
        Some(mut c) => {
            c.set_read_timeout(timeouts.read)
                .map_err(|e| format!("shard {shard}: {e}"))?;
            c
        }
        None => Client::connect_with(addr, timeouts).map_err(|e| format!("shard {shard}: {e}"))?,
    };
    let deadline_header;
    let mut headers: Vec<(&str, &str)> = Vec::with_capacity(1);
    if let Some(r) = remaining {
        deadline_header = (r.as_micros() as u64).max(1).to_string();
        headers.push(("x-peb-deadline-us", deadline_header.as_str()));
    }
    let resp = client
        .request_with_headers("POST", &req.target, &headers, &req.body)
        .map_err(|e| format!("shard {shard}: {e}"))?;
    if resp.status == 200 {
        // Integrity gate: a corrupt or legacy frame is a worker fault,
        // retried elsewhere — never forwarded.
        if let Err(e) = peb_serve::clip::resp_integrity_ok(&resp.body) {
            ctx.stats.tick_corrupt_rejected();
            return Err(format!("shard {shard}: {e}"));
        }
        upstreams.insert(shard, client);
        return Ok((200, resp.body));
    }
    let retryable = ClientError::Status(resp.status, String::new()).is_retryable();
    if retryable {
        return Err(format!(
            "shard {shard}: status {} {}",
            resp.status,
            String::from_utf8_lossy(&resp.body).trim_end()
        ));
    }
    // Deterministic client error (400/404/413/…): forward verbatim.
    upstreams.insert(shard, client);
    Ok((resp.status, resp.body))
}

/// `Ok(Some(d))` = budget left, `Ok(None)` = no deadline, `Err` = gone.
fn remaining_budget(deadline: Option<Instant>) -> Result<Option<Duration>, ()> {
    match deadline {
        None => Ok(None),
        Some(dl) => {
            let now = Instant::now();
            if now >= dl {
                Err(())
            } else {
                Ok(Some(dl - now))
            }
        }
    }
}

/// Capped exponential backoff with deterministic jitter, never sleeping
/// past the deadline. Jitter derives from `(digest, attempt)` so a
/// retry storm for different clips de-synchronises without any RNG
/// state (reproducible runs stay reproducible).
fn backoff(ctx: &RouterCtx, digest: u64, attempt: usize, deadline: Option<Instant>) {
    let base = ctx
        .config
        .backoff_base_us
        .saturating_mul(1u64 << attempt.min(16))
        .min(ctx.config.backoff_cap_us);
    let mut key = [0u8; 12];
    key[..8].copy_from_slice(&digest.to_le_bytes());
    key[8..].copy_from_slice(&(attempt as u32).to_le_bytes());
    let jitter = fnv64(&key) % (base / 2 + 1);
    let mut sleep = Duration::from_micros(base + jitter);
    if let Ok(Some(r)) = remaining_budget(deadline) {
        sleep = sleep.min(r);
    } else if deadline.is_some() {
        return; // deadline already gone; the caller sheds next
    }
    std::thread::sleep(sleep);
}

/// `/version`: forward to the first routable shard.
fn forward_first_up(
    ctx: &RouterCtx,
    upstreams: &mut Upstreams,
    req: &Request,
) -> (u16, &'static str, Vec<u8>) {
    for (shard, slot) in ctx.shards.slots().iter().enumerate() {
        if !slot.routable() {
            continue;
        }
        let Some(addr) = slot.addr() else { continue };
        let mut client = match upstreams.remove(&shard) {
            Some(c) => c,
            None => match Client::connect_with(addr, ClientTimeouts::default()) {
                Ok(c) => c,
                Err(_) => continue,
            },
        };
        if let Ok(resp) = client.request("GET", &req.target, &req.body) {
            upstreams.insert(shard, client);
            return (resp.status, "application/json", resp.body);
        }
    }
    (503, "text/plain", b"no shard up\n".to_vec())
}

/// `/swap`: fan out to every routable worker, record the checkpoint for
/// restarts, answer with the first worker's response. A worker that
/// rejects the swap keeps its previous model (per-worker 409 semantics
/// hold); the fleet records the checkpoint only if *all* ups accepted.
fn swap_all(
    ctx: &RouterCtx,
    upstreams: &mut Upstreams,
    req: &Request,
) -> (u16, &'static str, Vec<u8>) {
    let mut first_ok: Option<Vec<u8>> = None;
    let mut first_err: Option<(u16, Vec<u8>)> = None;
    let mut attempted = 0usize;
    for (shard, slot) in ctx.shards.slots().iter().enumerate() {
        if !slot.routable() {
            continue;
        }
        let Some(addr) = slot.addr() else { continue };
        attempted += 1;
        let mut client = match upstreams.remove(&shard) {
            Some(c) => c,
            None => match Client::connect_with(addr, ClientTimeouts::default()) {
                Ok(c) => c,
                Err(e) => {
                    first_err.get_or_insert((502, format!("shard {shard}: {e}\n").into_bytes()));
                    continue;
                }
            },
        };
        match client.request("POST", "/swap", &req.body) {
            Ok(resp) if resp.status == 200 => {
                upstreams.insert(shard, client);
                first_ok.get_or_insert(resp.body);
            }
            Ok(resp) => {
                upstreams.insert(shard, client);
                first_err.get_or_insert((resp.status, resp.body));
            }
            Err(e) => {
                first_err.get_or_insert((502, format!("shard {shard}: {e}\n").into_bytes()));
            }
        }
    }
    if attempted == 0 {
        return (503, "text/plain", b"no shard up\n".to_vec());
    }
    match (first_ok, first_err) {
        (Some(body), None) => {
            // Every up worker accepted: restarted workers must reload
            // this checkpoint too.
            let path = String::from_utf8_lossy(&req.body).trim().to_string();
            *ctx.ckpt.lock().unwrap_or_else(|e| e.into_inner()) = Some(path);
            (200, "application/json", body)
        }
        (_, Some((status, body))) => (status, "text/plain", body),
        (None, None) => (503, "text/plain", b"no shard up\n".to_vec()),
    }
}
