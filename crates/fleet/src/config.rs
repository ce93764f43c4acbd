//! Fleet configuration (`PEB_FLEET_*` environment variables).
//!
//! The fleet layers *on top of* the per-worker `PEB_SERVE_*` variables:
//! every worker process inherits the parent's `PEB_SERVE_*` environment
//! (model preset, grid, seed, batching knobs) with only its
//! bind address overridden, so one set of serving knobs configures the
//! whole fleet.

use std::time::Duration;

use peb_par::ctx::{self, read_parsed, read_var, ConfigError};

/// Consecutive failed health probes before a worker is declared down and
/// restarted (absorbs one slow probe on a loaded box).
pub(crate) const PROBE_FAILS: u32 = 2;
/// Per-probe connect/read budget; a hung worker fails by timeout.
pub(crate) const PROBE_TIMEOUT: Duration = Duration::from_millis(500);
/// First retry backoff in microseconds (doubles per attempt).
pub(crate) const BACKOFF_BASE_US: u64 = 2_000;
/// Retry backoff ceiling in microseconds.
pub(crate) const BACKOFF_CAP_US: u64 = 100_000;

/// Everything the router + supervisor need, with env-var overrides.
///
/// | env | field | default |
/// |-----|-------|---------|
/// | `PEB_FLEET_ADDR` | `addr` | `127.0.0.1:7979` |
/// | `PEB_FLEET_WORKERS` | `workers` | `2` |
/// | `PEB_FLEET_DEADLINE_US` | `deadline_us` | `2_000_000` (2 s) |
/// | `PEB_FLEET_PROBE_MS` | `probe_interval` | `250` |
/// | `PEB_FLEET_ATTEMPT_MS` | `attempt_timeout` | unset (deadline only) |
/// | `PEB_FLEET_DRAIN_MS` | `drain_timeout` | `3_000` |
/// | `PEB_FLEET_WORKER_BIN` | `worker_bin` | sibling `peb_worker` |
///
/// The retry and probe policy is fixed: [`FleetConfig::attempt_limit`]
/// routing attempts per request, a backoff of 2 ms doubling up to
/// 100 ms between them, and a worker restarted after 2 consecutive
/// health probes fail or outlast 500 ms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Router bind address (`host:port`; port 0 lets the OS pick).
    pub addr: String,
    /// Number of worker processes (= shards on the hash ring).
    pub workers: usize,
    /// Default per-request deadline in microseconds, applied when the
    /// client sends no `X-Peb-Deadline-Us` header. `0` disables the
    /// default (requests without the header then have no deadline).
    pub deadline_us: u64,
    /// How often the supervisor probes each worker's `/healthz`.
    pub probe_interval: Duration,
    /// Optional per-attempt socket budget cap. Without it a hung worker
    /// consumes the entire remaining deadline on one attempt, leaving
    /// nothing for failover; with it the router gives up on the wedged
    /// shard after this long and retries elsewhere while budget remains.
    pub attempt_timeout: Option<Duration>,
    /// How long a graceful drain waits for a worker to exit after its
    /// stdin closes, before escalating to a hard kill.
    pub drain_timeout: Duration,
    /// Path to the `peb_worker` binary. `None` → a `peb_worker` sibling
    /// of the current executable (how the `peb_fleet` binary finds it).
    pub worker_bin: Option<std::path::PathBuf>,
    /// Per-shard `PEB_CHAOS` specs injected into the *first* spawn of
    /// that shard only (restarts come up clean) — the chaos schedule
    /// hook for the failover tests.
    pub worker_chaos: Vec<(usize, String)>,
    /// Extra environment for every worker spawn (tests and the bench
    /// pin `PEB_SERVE_*` knobs here instead of mutating the parent's
    /// process-global environment, which is racy under parallel tests).
    pub worker_env: Vec<(String, String)>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            addr: "127.0.0.1:7979".to_string(),
            workers: 2,
            deadline_us: 2_000_000,
            probe_interval: Duration::from_millis(250),
            attempt_timeout: None,
            drain_timeout: Duration::from_millis(3_000),
            worker_bin: None,
            worker_chaos: Vec::new(),
            worker_env: Vec::new(),
        }
    }
}

impl FleetConfig {
    /// Defaults overridden by any set `PEB_FLEET_*` variables; a value
    /// that does not parse is an error, never a silent default.
    pub fn from_env() -> Result<Self, ConfigError> {
        Self::from_lookup(ctx::process_env)
    }

    fn from_lookup(env: impl Fn(&str) -> Option<String>) -> Result<Self, ConfigError> {
        const COUNT: &str = "a non-negative integer";
        let millis = |var, floor: u64| -> Result<Option<Duration>, ConfigError> {
            let ms: Option<u64> = read_parsed(&env, var, COUNT)?;
            Ok(ms.map(|v| Duration::from_millis(v.max(floor))))
        };
        let d = FleetConfig::default();
        Ok(FleetConfig {
            addr: read_var(&env, "PEB_FLEET_ADDR", "an address", |s| {
                Some(s.to_string())
            })?
            .unwrap_or(d.addr),
            workers: read_parsed(&env, "PEB_FLEET_WORKERS", COUNT)?.unwrap_or(d.workers),
            deadline_us: read_parsed(&env, "PEB_FLEET_DEADLINE_US", COUNT)?
                .unwrap_or(d.deadline_us),
            probe_interval: millis("PEB_FLEET_PROBE_MS", 1)?.unwrap_or(d.probe_interval),
            attempt_timeout: millis("PEB_FLEET_ATTEMPT_MS", 1)?,
            drain_timeout: millis("PEB_FLEET_DRAIN_MS", 0)?.unwrap_or(d.drain_timeout),
            worker_bin: read_var(&env, "PEB_FLEET_WORKER_BIN", "a path", |s| {
                Some(std::path::PathBuf::from(s))
            })?,
            ..d
        }
        .normalized())
    }

    /// Clamps a zero worker count to one so a typo'd env var cannot
    /// wedge the router.
    pub fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        self
    }

    /// Upper bound on routing attempts per request, first try included:
    /// two per worker, so every shard can be tried twice.
    pub fn attempt_limit(&self) -> usize {
        2 * self.workers.max(1)
    }

    /// Resolves the worker binary path: the explicit override, or a
    /// `peb_worker` sibling of the current executable.
    pub fn worker_bin(&self) -> std::path::PathBuf {
        if let Some(p) = &self.worker_bin {
            return p.clone();
        }
        let mut p = std::env::current_exe().unwrap_or_else(|_| std::path::PathBuf::from("."));
        p.set_file_name("peb_worker");
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_overrides_defaults_and_rejects_bad_values() {
        let env = |rows: &'static [(&str, &str)]| {
            move |name: &str| rows.iter().find(|r| r.0 == name).map(|r| r.1.to_string())
        };
        assert_eq!(
            FleetConfig::from_lookup(env(&[])),
            Ok(FleetConfig::default().normalized())
        );
        let c = FleetConfig::from_lookup(env(&[
            ("PEB_FLEET_WORKERS", "3"),
            ("PEB_FLEET_PROBE_MS", "0"),
            ("PEB_FLEET_WORKER_BIN", "/opt/peb_worker"),
        ]))
        .expect("valid");
        assert_eq!((c.workers, c.attempt_limit()), (3, 6));
        assert_eq!(c.probe_interval, Duration::from_millis(1));
        assert_eq!(c.worker_bin(), std::path::PathBuf::from("/opt/peb_worker"));
        // An empty value counts as unset, as for every variable.
        assert_eq!(
            FleetConfig::from_lookup(env(&[("PEB_FLEET_ADDR", ""), ("PEB_FLEET_WORKER_BIN", "")])),
            Ok(FleetConfig::default().normalized())
        );
        let err = FleetConfig::from_lookup(env(&[("PEB_FLEET_WORKERS", "two")])).expect_err("two");
        assert_eq!((err.var, err.value.as_str()), ("PEB_FLEET_WORKERS", "two"));
    }

    #[test]
    fn normalized_clamps_zeros() {
        let c = FleetConfig {
            workers: 0,
            ..FleetConfig::default()
        }
        .normalized();
        assert_eq!(c.workers, 1);
        assert_eq!(c.attempt_limit(), 2, "2 attempts per (single) worker");
    }

    #[test]
    fn default_attempts_scale_with_workers() {
        let c = FleetConfig {
            workers: 3,
            ..FleetConfig::default()
        };
        assert_eq!(c.attempt_limit(), 6);
    }
}
