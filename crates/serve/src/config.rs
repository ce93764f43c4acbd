//! Serving configuration (`PEB_SERVE_*` environment variables).

use peb_par::ctx::{self, read_parsed, read_var, ConfigError};

use crate::clip;

/// Model size preset used to build the served architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelPreset {
    /// `SdmPebConfig::tiny` — tests and the smoke benchmark.
    Tiny,
    /// `SdmPebConfig::for_grid` — the paper-scale architecture.
    ForGrid,
}

/// Everything the server needs to come up, with env-var overrides.
///
/// | env | field | default |
/// |-----|-------|---------|
/// | `PEB_SERVE_ADDR` | `addr` | `127.0.0.1:7878` |
/// | `PEB_SERVE_GRID` | `grid` (`DxHxW`) | `8x16x16` |
/// | `PEB_SERVE_MODEL` | `preset` (`tiny`/`for-grid`) | `tiny` |
/// | `PEB_SERVE_SEED` | `seed` | `42` |
/// | `PEB_SERVE_MAX_BATCH` | `max_batch` | `8` |
/// | `PEB_SERVE_MAX_WAIT_US` | `max_wait_us` | `500` |
/// | `PEB_SERVE_QUEUE` | `queue_cap` | `64` |
/// | `PEB_SERVE_READY_HWM` | `ready_hwm` | `3·queue_cap/4` |
/// | `PEB_SERVE_WORKERS` | `conn_workers` | `2` |
/// | `PEB_SERVE_THREADS` | `compute_threads` | unset (peb-par default) |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 lets the OS pick — tests).
    pub addr: String,
    /// Model grid `(D, H, W)`; clips larger than this are rejected 413.
    pub grid: (usize, usize, usize),
    /// Architecture preset.
    pub preset: ModelPreset,
    /// Weight-init seed for the base (un-swapped) model.
    pub seed: u64,
    /// Upper bound on clips folded into one engine batch.
    pub max_batch: usize,
    /// How long the batcher waits for stragglers once one job is in
    /// hand, in microseconds. `0` = never wait (pure greedy drain).
    pub max_wait_us: u64,
    /// Bounded inference queue depth; a full queue sheds with 429.
    pub queue_cap: usize,
    /// Readiness high-water mark: `/readyz` answers 503 while the
    /// queue holds more than this many jobs (or a swap is in flight),
    /// so routers stop sending work *before* the queue fills and 429s
    /// start. `None` → `3·queue_cap/4` after normalisation.
    pub ready_hwm: Option<usize>,
    /// Connection-handling threads (each runs its own accept loop).
    pub conn_workers: usize,
    /// Kernel thread count forced on the engine thread (`None` = the
    /// `peb-par` default). The batching-invariance tests pin this to 1
    /// and 4 — results are bitwise identical either way.
    pub compute_threads: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            grid: (8, 16, 16),
            preset: ModelPreset::Tiny,
            seed: 42,
            max_batch: 8,
            max_wait_us: 500,
            queue_cap: 64,
            ready_hwm: None,
            conn_workers: 2,
            compute_threads: None,
        }
    }
}

impl ServeConfig {
    /// Defaults overridden by any set `PEB_SERVE_*` variables; a value
    /// that does not parse is an error, never a silent default.
    pub fn from_env() -> Result<Self, ConfigError> {
        Self::from_lookup(ctx::process_env)
    }

    fn from_lookup(env: impl Fn(&str) -> Option<String>) -> Result<Self, ConfigError> {
        const COUNT: &str = "a non-negative integer";
        let d = ServeConfig::default();
        Ok(ServeConfig {
            addr: env("PEB_SERVE_ADDR").unwrap_or(d.addr),
            grid: read_var(&env, "PEB_SERVE_GRID", "DxHxW, all positive", parse_grid)?
                .unwrap_or(d.grid),
            preset: read_var(&env, "PEB_SERVE_MODEL", "tiny|for-grid", |s| match s {
                "for-grid" | "for_grid" => Some(ModelPreset::ForGrid),
                "tiny" => Some(ModelPreset::Tiny),
                _ => None,
            })?
            .unwrap_or(d.preset),
            seed: read_parsed(&env, "PEB_SERVE_SEED", COUNT)?.unwrap_or(d.seed),
            max_batch: read_parsed(&env, "PEB_SERVE_MAX_BATCH", COUNT)?.unwrap_or(d.max_batch),
            max_wait_us: read_parsed(&env, "PEB_SERVE_MAX_WAIT_US", COUNT)?
                .unwrap_or(d.max_wait_us),
            queue_cap: read_parsed(&env, "PEB_SERVE_QUEUE", COUNT)?.unwrap_or(d.queue_cap),
            ready_hwm: read_parsed(&env, "PEB_SERVE_READY_HWM", COUNT)?,
            conn_workers: read_parsed(&env, "PEB_SERVE_WORKERS", COUNT)?.unwrap_or(d.conn_workers),
            compute_threads: read_var(&env, "PEB_SERVE_THREADS", "a positive integer", |s| {
                s.parse().ok().filter(|&n: &usize| n > 0)
            })?,
        }
        .normalized())
    }

    /// Clamps degenerate values so a typo'd env var cannot wedge the
    /// server (zero-size batches, zero workers, …).
    pub fn normalized(mut self) -> Self {
        self.max_batch = self.max_batch.max(1);
        self.queue_cap = self.queue_cap.max(1);
        self.conn_workers = self.conn_workers.max(1);
        // Default high-water at 3/4 of the queue, clamped into
        // [1, queue_cap] so readiness can neither trip on an empty
        // queue nor stay green past the shed point.
        let hwm = self.ready_hwm.unwrap_or(3 * self.queue_cap / 4);
        self.ready_hwm = Some(hwm.clamp(1, self.queue_cap));
        self
    }

    /// The resolved readiness high-water mark (post-normalisation).
    pub fn ready_hwm(&self) -> usize {
        self.ready_hwm.unwrap_or(3 * self.queue_cap / 4).max(1)
    }

    /// Largest `/infer` body the HTTP layer should accept: one frame at
    /// the model grid, plus slack for the header.
    pub fn max_body_bytes(&self) -> usize {
        clip::frame_bytes(self.grid)
    }
}

/// Parses `DxHxW` (e.g. `8x16x16`).
pub fn parse_grid(s: &str) -> Option<(usize, usize, usize)> {
    let mut it = s.split('x');
    let d = it.next()?.trim().parse().ok()?;
    let h = it.next()?.trim().parse().ok()?;
    let w = it.next()?.trim().parse().ok()?;
    if it.next().is_some() || d == 0 || h == 0 || w == 0 {
        return None;
    }
    Some((d, h, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_parses() {
        assert_eq!(parse_grid("8x16x16"), Some((8, 16, 16)));
        assert_eq!(parse_grid(" 1x2x3 "), Some((1, 2, 3)));
        assert_eq!(parse_grid("0x2x3"), None);
        assert_eq!(parse_grid("1x2"), None);
        assert_eq!(parse_grid("1x2x3x4"), None);
        assert_eq!(parse_grid("axbxc"), None);
    }

    #[test]
    fn lookup_overrides_defaults_and_rejects_bad_values() {
        let env = |rows: &'static [(&str, &str)]| {
            move |name: &str| rows.iter().find(|r| r.0 == name).map(|r| r.1.to_string())
        };
        assert_eq!(
            ServeConfig::from_lookup(env(&[])),
            Ok(ServeConfig::default().normalized())
        );
        // What the fleet benchmark passes its workers.
        let c = ServeConfig::from_lookup(env(&[
            ("PEB_SERVE_GRID", "4x16x16"),
            ("PEB_SERVE_MODEL", "for-grid"),
            ("PEB_SERVE_THREADS", "1"),
        ]))
        .expect("valid");
        assert_eq!(c.grid, (4, 16, 16));
        assert_eq!(c.preset, ModelPreset::ForGrid);
        assert_eq!(c.compute_threads, Some(1));
        let err = ServeConfig::from_lookup(env(&[("PEB_SERVE_THREADS", "0")])).expect_err("zero");
        assert_eq!((err.var, err.value.as_str()), ("PEB_SERVE_THREADS", "0"));
    }

    #[test]
    fn normalized_clamps_zeros() {
        let c = ServeConfig {
            max_batch: 0,
            queue_cap: 0,
            conn_workers: 0,
            ..ServeConfig::default()
        }
        .normalized();
        assert_eq!(c.max_batch, 1);
        assert_eq!(c.queue_cap, 1);
        assert_eq!(c.conn_workers, 1);
        assert_eq!(c.ready_hwm(), 1);
    }

    #[test]
    fn ready_hwm_defaults_to_three_quarters_and_clamps() {
        let c = ServeConfig::default().normalized();
        assert_eq!(c.ready_hwm(), 48, "3/4 of the default 64-deep queue");
        let c = ServeConfig {
            queue_cap: 8,
            ready_hwm: Some(100),
            ..ServeConfig::default()
        }
        .normalized();
        assert_eq!(c.ready_hwm(), 8, "hwm clamps to the queue depth");
    }

    #[test]
    fn max_body_covers_exactly_one_grid_frame() {
        let c = ServeConfig::default();
        assert_eq!(c.max_body_bytes(), clip::frame_bytes(c.grid));
    }
}
