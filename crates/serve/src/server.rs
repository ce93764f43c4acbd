//! The worker's request handler behind the shared [`crate::front`]:
//! routing, the chaos hooks, and graceful shutdown.
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

use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::clip;
use crate::config::ServeConfig;
use crate::engine::{Engine, EngineHandle};
use crate::error::ServeError;
use crate::front::Front;
use crate::http::{encode_response, HttpError, Method, Request};
use crate::stats::version_json;

/// Chaos: once a `hang-worker` fault fires, every connection thread
/// parks instead of serving — the process stays alive but health
/// probes time out, exactly the wedge a supervisor must detect.
static WEDGED: AtomicBool = AtomicBool::new(false);

/// A running server (engine + HTTP front end).
pub struct Server {
    front: Front,
    engine: Engine,
    handle: EngineHandle,
}

impl Server {
    /// Spawns the engine, binds `config.addr` and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind, spawn) from the OS.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let config = config.normalized();
        let (engine, handle) = Engine::spawn(&config);
        // /swap bodies are small paths; /infer bodies are one clip frame.
        let max_body = config.max_body_bytes().max(4096);
        let conn_handle = handle.clone();
        let front = Front::start(&config.addr, "peb-serve", max_body, move || {
            let handle = conn_handle.clone();
            Box::new(move |stream, req, stop| serve(stream, &handle, req, stop))
        })?;
        Ok(Server {
            front,
            engine,
            handle,
        })
    }

    /// The bound address (resolves port 0 for tests).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Direct engine access (in-process clients, tests).
    pub fn handle(&self) -> &EngineHandle {
        &self.handle
    }

    /// Graceful stop: the front end stops accepting and joins every
    /// connection once its current request is answered, then queued
    /// inferences drain.
    pub fn shutdown(self) {
        self.front.shutdown();
        self.engine.shutdown();
    }
}

/// One connection's handler: the chaos wedge, the request count, then
/// [`respond`]. Returns whether the connection stays open.
fn serve(
    stream: &mut TcpStream,
    handle: &EngineHandle,
    req: Result<&Request, &HttpError>,
    stop: &AtomicBool,
) -> bool {
    // Chaos hook: an armed `hang-worker` fault wedges the whole process
    // at this request — no thread answers again, so `/healthz` probes
    // time out and the supervisor must restart us.
    if req.is_ok() && peb_guard::chaos::take_hang_worker() {
        WEDGED.store(true, Ordering::Release);
    }
    if WEDGED.load(Ordering::Acquire) {
        park_wedged(stop);
        return false;
    }
    handle.stats().tick_request();
    req.is_ok_and(|req| respond(stream, handle, req))
}

/// Parks a wedged connection thread. The wedge deliberately survives
/// everything except process death or an in-process [`Server::shutdown`]
/// (tests must still be able to join their threads); a real supervisor
/// sees probe timeouts and kills the process.
fn park_wedged(stop: &AtomicBool) {
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
            let deadline = req
                .deadline_us()?
                .map(|us| Instant::now() + Duration::from_micros(us));
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
