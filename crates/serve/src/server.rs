//! The TCP front end: blocking accept loops, per-connection request
//! loops, routing, and graceful shutdown.
//!
//! Routes:
//!
//! | method | path | body | response |
//! |--------|------|------|----------|
//! | GET | `/healthz` | — | `200 ok` (liveness: the process answers) |
//! | GET | `/readyz` | — | `200 ready`, or `503` while the queue is past its high-water mark or a swap is in flight |
//! | GET | `/stats` | — | JSON counters + batch histogram + model version |
//! | GET | `/version` | — | JSON model version |
//! | POST | `/infer` | `PEBCLIP1` frame | `PEBRESP2` frame (CRC-32 footer) |
//! | POST | `/swap` | checkpoint path (text) | JSON new model version |
//!
//! `/infer` honours an optional `X-Peb-Deadline-Us` header: the request
//! is shed with 504 if the batch coalescer cannot run it within that
//! many microseconds of arrival (routers propagate their remaining
//! budget here, so a slow worker never wastes compute on an answer the
//! caller already gave up on).
//!
//! Every error is a typed [`ServeError`] with a deterministic status:
//! 429 when the inference queue sheds, 409 when a hot-swap is rejected
//! (the previous model keeps serving), 4xx for malformed inputs.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::clip;
use crate::config::ServeConfig;
use crate::engine::{Engine, EngineHandle};
use crate::error::ServeError;
use crate::http::{encode_response, HttpError, Method, Request, RequestParser};
use crate::stats::version_json;

/// Read timeout on connections: bounds how long a quiet socket delays
/// noticing shutdown.
const READ_POLL: Duration = Duration::from_millis(100);

/// Chaos: once a `hang-worker` fault fires, every connection thread
/// parks instead of serving — the process stays alive but health
/// probes time out, exactly the wedge a supervisor must detect.
static WEDGED: AtomicBool = AtomicBool::new(false);

/// A running server (engine + accept threads).
pub struct Server {
    addr: SocketAddr,
    engine: Option<Engine>,
    handle: EngineHandle,
    stop: Arc<AtomicBool>,
    acceptors: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `config.addr`, spawns the engine and the accept threads.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind, clone) from the OS.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let config = config.normalized();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (engine, handle) = Engine::spawn(&config);
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        // /swap bodies are small paths; /infer bodies are one clip frame.
        let max_body = config.max_body_bytes().max(4096);
        let mut acceptors = Vec::with_capacity(config.conn_workers);
        for i in 0..config.conn_workers {
            let listener = listener.try_clone()?;
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            acceptors.push(
                std::thread::Builder::new()
                    .name(format!("peb-serve-accept-{i}"))
                    .spawn(move || accept_loop(&listener, &handle, &stop, &conns, max_body))?,
            );
        }
        Ok(Server {
            addr,
            engine: Some(engine),
            handle,
            stop,
            acceptors,
            conns,
        })
    }

    /// The bound address (resolves port 0 for tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct engine access (in-process clients, tests).
    pub fn handle(&self) -> &EngineHandle {
        &self.handle
    }

    /// Graceful stop: accept loops wake and exit, open connections
    /// finish their current request, queued inferences drain.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake every acceptor blocked in accept().
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
        if let Some(e) = self.engine.take() {
            e.shutdown();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    handle: &EngineHandle,
    stop: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    max_body: usize,
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
        let handle = handle.clone();
        let stop = Arc::clone(stop);
        let spawned = std::thread::Builder::new()
            .name("peb-serve-conn".to_string())
            .spawn(move || handle_conn(stream, &handle, &stop, max_body));
        if let Ok(j) = spawned {
            let mut conns = conns.lock().unwrap_or_else(|e| e.into_inner());
            // A finished thread keeps its stack until its handle is joined
            // or dropped: reap those before adding to the list.
            conns.retain(|c| !c.is_finished());
            conns.push(j);
        }
    }
}

fn handle_conn(
    mut stream: TcpStream,
    handle: &EngineHandle,
    stop: &Arc<AtomicBool>,
    max_body: usize,
) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let mut parser = RequestParser::with_max_body(max_body);
    let mut buf = [0u8; 16 * 1024];
    loop {
        if WEDGED.load(Ordering::Acquire) {
            park_wedged(stop);
            return;
        }
        // Serve everything already buffered (pipelining).
        loop {
            match parser.poll() {
                Ok(Some(req)) => {
                    // Chaos hook: an armed `hang-worker` fault wedges the
                    // whole process at this request — no thread reads or
                    // writes again, so `/healthz` probes time out and
                    // the supervisor must restart us.
                    if peb_guard::chaos::take_hang_worker() {
                        WEDGED.store(true, Ordering::Release);
                    }
                    if WEDGED.load(Ordering::Acquire) {
                        park_wedged(stop);
                        return;
                    }
                    handle.stats().tick_request();
                    if !respond(&mut stream, handle, &req) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    handle.stats().tick_request();
                    write_http_error(&mut stream, &e);
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

/// Parks a wedged connection thread. The wedge deliberately survives
/// everything except process death or an in-process [`Server::shutdown`]
/// (tests must still be able to join their threads); a real supervisor
/// sees probe timeouts and kills the process.
fn park_wedged(stop: &Arc<AtomicBool>) {
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Routes one request and writes its response. Returns whether the
/// connection stays open.
fn respond(stream: &mut TcpStream, handle: &EngineHandle, req: &Request) -> bool {
    let _span = peb_obs::span("serve.request");
    let result: Result<(&'static str, Vec<u8>), ServeError> = route(handle, req);
    match result {
        Ok((content_type, body)) => {
            // Chaos hook: an armed `disconnect` fault drops this client
            // after the headers, before the body — the in-flight
            // inference itself has already completed safely.
            if peb_guard::chaos::take_disconnect() {
                let full = encode_response(200, content_type, &body, false);
                let head_len = full.len() - body.len();
                let _ = stream.write_all(&full[..head_len]);
                let _ = stream.flush();
                let _ = stream.shutdown(Shutdown::Both);
                return false;
            }
            let keep = req.keep_alive;
            let mut wire = encode_response(200, content_type, &body, keep);
            // Chaos hook: an armed `corrupt-resp` fault flips the last
            // byte of a binary response — the CRC-32 footer no longer
            // verifies, so a checking reader must reject the frame
            // instead of deserialising garbage.
            if content_type == "application/octet-stream" && peb_guard::chaos::take_corrupt_resp() {
                if let Some(last) = wire.last_mut() {
                    *last ^= 0xFF;
                }
            }
            if stream.write_all(&wire).is_err() {
                return false;
            }
            keep
        }
        Err(e) => {
            // Terminal engine loss closes; app-level errors keep the
            // connection usable.
            let keep = req.keep_alive && e != ServeError::EngineGone;
            let body = format!("{e}\n");
            let wire = encode_response(e.status(), "text/plain", body.as_bytes(), keep);
            if stream.write_all(&wire).is_err() {
                return false;
            }
            keep
        }
    }
}

fn route(handle: &EngineHandle, req: &Request) -> Result<(&'static str, Vec<u8>), ServeError> {
    match (&req.method, req.path()) {
        (Method::Get, "/healthz") => Ok(("text/plain", b"ok\n".to_vec())),
        (Method::Get, "/readyz") => match handle.stats().readiness() {
            Ok(()) => Ok(("text/plain", b"ready\n".to_vec())),
            Err(detail) => Err(ServeError::NotReady { detail }),
        },
        (Method::Get, "/stats") => Ok(("application/json", handle.stats().to_json().into_bytes())),
        (Method::Get, "/version") => Ok((
            "application/json",
            version_json(&handle.stats().version()).into_bytes(),
        )),
        (Method::Post, "/infer") => {
            reject_prec_selection(req)?;
            let deadline = requested_deadline(req)?;
            let t = clip::decode_clip(&req.body)?;
            let y = handle.infer_with(t, deadline)?;
            Ok(("application/octet-stream", clip::encode_resp(&y)))
        }
        (Method::Post, "/swap") => {
            let path = std::str::from_utf8(&req.body)
                .map_err(|_| ServeError::BadClip {
                    detail: "swap body must be a UTF-8 checkpoint path".into(),
                })?
                .trim();
            if path.is_empty() {
                return Err(ServeError::SwapRejected {
                    detail: "empty checkpoint path".into(),
                });
            }
            let v = handle.swap(std::path::PathBuf::from(path))?;
            Ok(("application/json", version_json(&v).into_bytes()))
        }
        (_, "/healthz" | "/readyz" | "/stats" | "/version" | "/infer" | "/swap") => {
            Err(ServeError::MethodNotAllowed)
        }
        _ => Err(ServeError::NotFound),
    }
}

/// Compute is always f32 (DESIGN §13): a `?prec=` other than `f32` on
/// `/infer` is a 400, never a silent reinterpretation of a request that
/// asked for something this server no longer does.
fn reject_prec_selection(req: &Request) -> Result<(), ServeError> {
    let pairs = req.query().into_iter().flat_map(|q| q.split('&'));
    for pair in pairs {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k == "prec" && v != "f32" {
            return Err(ServeError::BadClip {
                detail: "precision selection was removed; compute is f32".into(),
            });
        }
    }
    Ok(())
}

/// Resolves the `X-Peb-Deadline-Us` header into an absolute instant.
/// `None` means no deadline was propagated; an unparsable value is a
/// 400, not a silently unbounded request.
fn requested_deadline(req: &Request) -> Result<Option<Instant>, ServeError> {
    let Some(v) = req.header("x-peb-deadline-us") else {
        return Ok(None);
    };
    let us: u64 = v.trim().parse().map_err(|_| {
        ServeError::Http(HttpError::BadHeader {
            detail: format!("x-peb-deadline-us {v:?} is not a microsecond count"),
        })
    })?;
    Ok(Some(Instant::now() + Duration::from_micros(us)))
}

fn write_http_error(stream: &mut TcpStream, e: &HttpError) {
    let body = format!("{e}\n");
    let wire = encode_response(e.status(), "text/plain", body.as_bytes(), false);
    let _ = stream.write_all(&wire);
}
