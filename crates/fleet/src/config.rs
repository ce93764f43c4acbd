//! Fleet configuration (`PEB_FLEET_*` environment variables).
//!
//! The fleet layers *on top of* the per-worker `PEB_SERVE_*` variables:
//! every worker process inherits the parent's `PEB_SERVE_*` environment
//! (model preset, grid, seed, batching knobs) with only its
//! bind address overridden, so one set of serving knobs configures the
//! whole fleet.

use std::time::Duration;

use peb_par::ctx::{self, read_parsed, ConfigError};

/// Everything the router + supervisor need, with env-var overrides.
///
/// | env | field | default |
/// |-----|-------|---------|
/// | `PEB_FLEET_ADDR` | `addr` | `127.0.0.1:7979` |
/// | `PEB_FLEET_WORKERS` | `workers` | `2` |
/// | `PEB_FLEET_DEADLINE_US` | `deadline_us` | `2_000_000` (2 s) |
/// | `PEB_FLEET_RETRIES` | `max_attempts` | `2·workers` |
/// | `PEB_FLEET_PROBE_MS` | `probe_interval` | `250` |
/// | `PEB_FLEET_PROBE_TIMEOUT_MS` | `probe_timeout` | `500` |
/// | `PEB_FLEET_PROBE_FAILS` | `probe_fails` | `2` |
/// | `PEB_FLEET_BACKOFF_US` | `backoff_base` | `2_000` |
/// | `PEB_FLEET_BACKOFF_CAP_US` | `backoff_cap` | `100_000` |
/// | `PEB_FLEET_ATTEMPT_MS` | `attempt_timeout` | unset (deadline only) |
/// | `PEB_FLEET_DRAIN_MS` | `drain_timeout` | `3_000` |
/// | `PEB_FLEET_CONNS` | `conn_workers` | `2` |
/// | `PEB_FLEET_WORKER_BIN` | `worker_bin` | sibling `peb_worker` |
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
    /// Upper bound on routing attempts per request (first try included).
    /// `0` → `2·workers` after normalisation.
    pub max_attempts: usize,
    /// How often the supervisor probes each worker's `/healthz`.
    pub probe_interval: Duration,
    /// Per-probe connect/read budget; a hung worker fails by timeout.
    pub probe_timeout: Duration,
    /// Consecutive probe failures before a worker is declared down and
    /// restarted (absorbs one slow probe on a loaded box).
    pub probe_fails: u32,
    /// First retry backoff in microseconds (doubles per attempt).
    pub backoff_base_us: u64,
    /// Backoff ceiling in microseconds.
    pub backoff_cap_us: u64,
    /// Optional per-attempt socket budget cap. Without it a hung worker
    /// consumes the entire remaining deadline on one attempt, leaving
    /// nothing for failover; with it the router gives up on the wedged
    /// shard after this long and retries elsewhere while budget remains.
    pub attempt_timeout: Option<Duration>,
    /// How long a graceful drain waits for a worker to exit after its
    /// stdin closes, before escalating to a hard kill.
    pub drain_timeout: Duration,
    /// Router connection-handling threads.
    pub conn_workers: usize,
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
            max_attempts: 0,
            probe_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_millis(500),
            probe_fails: 2,
            backoff_base_us: 2_000,
            backoff_cap_us: 100_000,
            attempt_timeout: None,
            drain_timeout: Duration::from_millis(3_000),
            conn_workers: 2,
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
            addr: env("PEB_FLEET_ADDR").unwrap_or(d.addr),
            workers: read_parsed(&env, "PEB_FLEET_WORKERS", COUNT)?.unwrap_or(d.workers),
            deadline_us: read_parsed(&env, "PEB_FLEET_DEADLINE_US", COUNT)?
                .unwrap_or(d.deadline_us),
            max_attempts: read_parsed(&env, "PEB_FLEET_RETRIES", COUNT)?.unwrap_or(d.max_attempts),
            probe_interval: millis("PEB_FLEET_PROBE_MS", 1)?.unwrap_or(d.probe_interval),
            probe_timeout: millis("PEB_FLEET_PROBE_TIMEOUT_MS", 1)?.unwrap_or(d.probe_timeout),
            probe_fails: read_parsed(&env, "PEB_FLEET_PROBE_FAILS", COUNT)?
                .unwrap_or(d.probe_fails),
            backoff_base_us: read_parsed(&env, "PEB_FLEET_BACKOFF_US", COUNT)?
                .unwrap_or(d.backoff_base_us),
            backoff_cap_us: read_parsed(&env, "PEB_FLEET_BACKOFF_CAP_US", COUNT)?
                .unwrap_or(d.backoff_cap_us),
            attempt_timeout: millis("PEB_FLEET_ATTEMPT_MS", 1)?,
            drain_timeout: millis("PEB_FLEET_DRAIN_MS", 0)?.unwrap_or(d.drain_timeout),
            conn_workers: read_parsed(&env, "PEB_FLEET_CONNS", COUNT)?.unwrap_or(d.conn_workers),
            worker_bin: env("PEB_FLEET_WORKER_BIN")
                .filter(|v| !v.is_empty())
                .map(std::path::PathBuf::from),
            ..d
        }
        .normalized())
    }

    /// Clamps degenerate values so a typo'd env var cannot wedge the
    /// router (zero workers, zero attempts, …).
    pub fn normalized(mut self) -> Self {
        self.workers = self.workers.max(1);
        if self.max_attempts == 0 {
            self.max_attempts = 2 * self.workers;
        }
        self.probe_fails = self.probe_fails.max(1);
        self.backoff_base_us = self.backoff_base_us.max(1);
        self.backoff_cap_us = self.backoff_cap_us.max(self.backoff_base_us);
        self.conn_workers = self.conn_workers.max(1);
        self
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
        assert_eq!((c.workers, c.max_attempts), (3, 6));
        assert_eq!(c.probe_interval, Duration::from_millis(1));
        assert_eq!(c.worker_bin(), std::path::PathBuf::from("/opt/peb_worker"));
        let err = FleetConfig::from_lookup(env(&[("PEB_FLEET_WORKERS", "two")])).expect_err("two");
        assert_eq!((err.var, err.value.as_str()), ("PEB_FLEET_WORKERS", "two"));
    }

    #[test]
    fn normalized_clamps_zeros() {
        let c = FleetConfig {
            workers: 0,
            max_attempts: 0,
            probe_fails: 0,
            backoff_base_us: 0,
            backoff_cap_us: 0,
            conn_workers: 0,
            ..FleetConfig::default()
        }
        .normalized();
        assert_eq!(c.workers, 1);
        assert_eq!(c.max_attempts, 2, "2 attempts per (single) worker");
        assert_eq!(c.probe_fails, 1);
        assert!(c.backoff_base_us >= 1);
        assert!(c.backoff_cap_us >= c.backoff_base_us);
        assert_eq!(c.conn_workers, 1);
    }

    #[test]
    fn default_attempts_scale_with_workers() {
        let c = FleetConfig {
            workers: 3,
            ..FleetConfig::default()
        }
        .normalized();
        assert_eq!(c.max_attempts, 6);
    }
}
