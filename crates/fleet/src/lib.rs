//! peb-fleet: supervised multi-process sharded serving for SDM-PEB.
//!
//! Turns `peb-serve` into an N-process service with availability under
//! fault (DESIGN §15):
//!
//! - **Sharding** — a dependency-free router accepts the existing
//!   HTTP/`PEBCLIP1` protocol and routes each `/infer` by consistent
//!   hashing its clip digest across worker processes ([`ring`]). The
//!   preference order is deterministic and independent of which workers
//!   are up: a down shard is *skipped* (the ring shrinks), never
//!   re-hashed.
//! - **Deadlines** — per-request budgets (`X-Peb-Deadline-Us`, default
//!   `PEB_FLEET_DEADLINE_US`) propagate from router to the worker's
//!   batch coalescer; late work is shed with 504 at whichever layer
//!   notices first, never served after the caller gave up.
//! - **Retries** — connect failures, timeouts, CRC-bad frames, 429 and
//!   5xx retry on the next shard in preference order under capped
//!   exponential backoff with deterministic jitter, bounded by the
//!   deadline. Inference is idempotent (bitwise-deterministic, even),
//!   so retries are always safe.
//! - **Supervision** — workers are child processes health-probed on a
//!   cadence; crashes (`try_wait`) and hangs (probe timeout) restart
//!   the worker with the fleet's current checkpoint reloaded. Degraded
//!   operation is first-class: the fleet keeps answering while any
//!   shard is up, and `/stats` reports per-shard state.
//!
//! The response integrity contract: every byte the router forwards from
//! a 200 `/infer` passed the `PEBRESP2` CRC-32 check — a corrupted
//! worker response is a retry, never a forward. Combined with the
//! serving layer's batching invariance and cross-process bitwise
//! determinism (same seed → same bits), every successful fleet response
//! is bitwise identical to the single-process answer;
//! `tests/failover_determinism.rs` asserts exactly that with all three
//! faults armed under load.
//!
//! Chaos faults for this layer (`PEB_CHAOS`, see `peb-guard`):
//! `kill-worker[:N]` aborts a worker at the top of a batch,
//! `hang-worker[:N]` wedges it alive-but-unresponsive,
//! `corrupt-resp[:N]` flips a response byte so the CRC footer fails.

pub mod config;
pub mod ring;
pub mod router;
pub mod stats;
pub mod supervisor;

pub use config::FleetConfig;
pub use ring::{clip_digest, fnv64, Ring};
pub use router::Fleet;
pub use stats::FleetStats;
pub use supervisor::{ShardSlot, ShardState, Shards, Supervisor};
