//! peb-serve: production inference service for SDM-PEB.
//!
//! Mask-clip → resist-image inference over a dependency-free HTTP/1.1
//! subset, with the three production properties the rest of the
//! workspace builds toward:
//!
//! - **Dynamic batching** — requests arriving within `max_wait_us` of
//!   each other fold into one engine batch (up to `max_batch`), with a
//!   *bitwise* guarantee: a clip's prediction is bit-identical whatever
//!   batch it lands in (see [`sdm_peb::PebPredictor::predict_batch`]).
//! - **Hot-swappable checkpoints** — `POST /swap` splices a `PEBCKPT1`
//!   checkpoint's weights into the serving model between batches; a
//!   corrupt or mismatched file is rejected (409) and the previous
//!   version keeps serving without a dropped request.
//! - **Backpressure** — the inference queue is bounded; when it is
//!   full, requests are shed immediately with 429 instead of queueing
//!   into latency collapse. `/readyz` goes 503 *before* that point (at
//!   the queue high-water mark, or while a swap is in flight) so
//!   routers drain away early.
//! - **Deadlines** — an `X-Peb-Deadline-Us` request header propagates
//!   the caller's remaining budget; the batch coalescer sheds expired
//!   jobs with 504 rather than serving answers nobody is waiting for.
//! - **Integrity** — `/infer` responses are `PEBRESP2` frames carrying
//!   a CRC-32 footer, so a proxy can reject a torn or corrupted frame
//!   (502) instead of forwarding garbage bits.
//!
//! ```no_run
//! use peb_serve::{Client, ServeConfig, Server};
//! use peb_tensor::Tensor;
//!
//! let server = Server::start(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServeConfig::default()
//! }).expect("bind");
//! let mut client = Client::connect(server.addr()).expect("connect");
//! let y = client.infer(&Tensor::full(&[8, 16, 16], 0.3)).expect("infer");
//! assert_eq!(y.shape(), &[8, 16, 16]);
//! server.shutdown();
//! ```
//!
//! Observability: per-request spans (`serve.request`, `serve.batch`,
//! `serve.swap`) and counters (`serve_requests`, `serve_batches`,
//! `serve_shed`, `serve_hotswaps`) flow through `peb-obs` under
//! `PEB_TRACE`. Fault injection: `PEB_CHAOS=truncate-ckpt|bitflip-ckpt`
//! corrupts the next hot-swap load, `PEB_CHAOS=disconnect` drops the
//! next client mid-response, and the fleet-grade faults
//! `kill-worker[:N]` (abort at the top of a batch), `hang-worker[:N]`
//! (wedge every connection thread) and `corrupt-resp[:N]` (flip a
//! response byte so the CRC footer fails) exercise supervisor restart
//! and router failover (see `peb-guard`'s chaos module).

pub mod client;
pub mod clip;
pub mod config;
pub mod engine;
pub mod error;
pub mod front;
pub mod http;
pub mod server;
pub mod stats;

pub use client::{Client, ClientError, ClientResponse, ClientTimeouts};
pub use config::{ModelPreset, ServeConfig};
pub use engine::{Engine, EngineHandle};
pub use error::{Result, ServeError};
pub use http::{HttpError, Method, Request, RequestParser};
pub use server::Server;
pub use stats::{ModelVersion, ServeStats};
