//! Lock-free serving counters, the batch-size histogram, and the live
//! model-version record backing `/stats` and `/version`.
//!
//! Counters are mirrored into `peb-obs` (`serve_requests`,
//! `serve_batches`, `serve_shed`, `serve_hotswaps`) so a `PEB_TRACE=summary`
//! run folds serving activity into the same profile as the kernels, but
//! the local atomics here are unconditional — `/stats` must work even
//! with tracing off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use peb_par::ExecCtx;

use crate::config::ServeConfig;

/// Histogram buckets: batch sizes `1..=MAX_HIST_BATCH`, larger batches
/// collapse into the last bucket.
pub const MAX_HIST_BATCH: usize = 32;

/// The model version currently answering `/infer`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelVersion {
    /// Monotonic version number; 0 is the seed-initialised base model,
    /// each successful hot-swap increments it.
    pub version: u64,
    /// Training epoch recorded in the loaded checkpoint (0 for base).
    pub epoch: u64,
    /// Where the weights came from (`"seed"` or a checkpoint path).
    pub source: String,
    /// CRC-32 of the loaded checkpoint (0 for the seed model).
    pub crc: u32,
}

impl ModelVersion {
    /// The seed-initialised base model, version 0.
    pub fn base(seed: u64) -> Self {
        ModelVersion {
            version: 0,
            epoch: 0,
            source: format!("seed:{seed}"),
            crc: 0,
        }
    }
}

/// Shared serving statistics (one per server, `Arc`-cloned everywhere).
#[derive(Debug)]
pub struct ServeStats {
    /// Requests that reached a terminal response (any status).
    pub requests: AtomicU64,
    /// Engine batches executed.
    pub batches: AtomicU64,
    /// Requests shed with 429 (queue full).
    pub shed: AtomicU64,
    /// Requests shed with 504 (propagated deadline expired before the
    /// batch coalescer could run them).
    pub deadline_shed: AtomicU64,
    /// Jobs currently accepted into the bounded queue and not yet
    /// drained into a batch — the `/readyz` high-water signal.
    pub queue_depth: AtomicU64,
    /// Checkpoint swaps submitted and not yet committed/rejected; a
    /// non-zero value turns `/readyz` 503 (the splice happens between
    /// batches, so routers should drain away first).
    pub swaps_inflight: AtomicU64,
    /// Successful checkpoint hot-swaps.
    pub hotswaps: AtomicU64,
    /// Hot-swaps rejected (corrupt/mismatched checkpoint).
    pub swaps_rejected: AtomicU64,
    /// Batch-size histogram; index `i` counts batches of size `i + 1`
    /// (last bucket also absorbs anything larger).
    pub batch_hist: [AtomicU64; MAX_HIST_BATCH],
    /// Batching knob: upper bound on clips folded into one batch.
    pub max_batch: usize,
    /// Batching knob: straggler wait in microseconds.
    pub max_wait_us: u64,
    /// Bounded inference queue depth (full → 429).
    pub queue_cap: usize,
    /// Readiness high-water mark (`queue_depth > ready_hwm` → 503 on
    /// `/readyz`).
    pub ready_hwm: usize,
    /// The execution context the engine thread runs under: the context
    /// of the thread that started the server, with
    /// `ServeConfig::compute_threads` applied.
    pub exec: ExecCtx,
    version: Mutex<ModelVersion>,
}

impl ServeStats {
    /// Fresh stats advertising the seed base model and the serving
    /// knobs `/stats` reports (batching limits, queue depth).
    pub fn new(config: &ServeConfig) -> Self {
        let caller = peb_par::ctx::current();
        ServeStats {
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_shed: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            swaps_inflight: AtomicU64::new(0),
            hotswaps: AtomicU64::new(0),
            swaps_rejected: AtomicU64::new(0),
            batch_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            max_batch: config.max_batch,
            max_wait_us: config.max_wait_us,
            queue_cap: config.queue_cap,
            ready_hwm: config.ready_hwm(),
            exec: ExecCtx {
                threads: config.compute_threads.unwrap_or(caller.threads),
                ..caller
            },
            version: Mutex::new(ModelVersion::base(config.seed)),
        }
    }

    /// Records one terminal response.
    pub fn tick_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        peb_obs::count(peb_obs::Counter::ServeRequests, 1);
    }

    /// Records one executed batch of `n` clips.
    pub fn tick_batch(&self, n: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        peb_obs::count(peb_obs::Counter::ServeBatches, 1);
        let bucket = n.clamp(1, MAX_HIST_BATCH) - 1;
        self.batch_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one shed request.
    pub fn tick_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        peb_obs::count(peb_obs::Counter::ServeShed, 1);
    }

    /// Records one request shed because its deadline expired (504).
    pub fn tick_deadline_shed(&self) {
        self.deadline_shed.fetch_add(1, Ordering::Relaxed);
        peb_obs::count(peb_obs::Counter::FleetDeadlineShed, 1);
    }

    /// Notes one job accepted into the bounded queue.
    pub fn queue_push(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes one job drained from the queue into a batch.
    pub fn queue_pop(&self) {
        // Saturating: a racing pop on a fresh stats block must not wrap.
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| d.checked_sub(1));
    }

    /// Whether the server should advertise readiness: the queue is at
    /// or below the high-water mark and no swap is in flight. Returns
    /// the failing condition otherwise.
    pub fn readiness(&self) -> Result<(), String> {
        let depth = self.queue_depth.load(Ordering::Relaxed);
        if depth > self.ready_hwm as u64 {
            return Err(format!(
                "queue depth {depth} above high-water mark {}",
                self.ready_hwm
            ));
        }
        let swaps = self.swaps_inflight.load(Ordering::Relaxed);
        if swaps > 0 {
            return Err(format!("{swaps} checkpoint swap(s) in flight"));
        }
        Ok(())
    }

    /// Records a successful hot-swap and publishes the new version.
    pub fn tick_hotswap(&self, v: ModelVersion) {
        self.hotswaps.fetch_add(1, Ordering::Relaxed);
        peb_obs::count(peb_obs::Counter::ServeHotswaps, 1);
        *self.version_guard() = v;
    }

    /// Records a rejected hot-swap (version unchanged).
    pub fn tick_swap_rejected(&self) {
        self.swaps_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// The currently-served model version.
    pub fn version(&self) -> ModelVersion {
        self.version_guard().clone()
    }

    fn version_guard(&self) -> std::sync::MutexGuard<'_, ModelVersion> {
        self.version.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Non-empty `(batch_size, count)` histogram entries.
    pub fn batch_hist_entries(&self) -> Vec<(usize, u64)> {
        self.batch_hist
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((i + 1, n))
            })
            .collect()
    }

    /// Renders the `/stats` JSON body.
    ///
    /// `plan_hits` and `plan_misses` are always `0`: the engine replays
    /// no plans, but the benchmark's serving workload still reads both
    /// keys.
    pub fn to_json(&self) -> String {
        let v = self.version();
        let hist: Vec<String> = self
            .batch_hist_entries()
            .iter()
            .map(|(size, count)| format!("\"{size}\":{count}"))
            .collect();
        format!(
            "{{\"requests\":{},\"batches\":{},\"shed\":{},\"deadline_shed\":{},\"queue_depth\":{},\"ready_hwm\":{},\"swaps_inflight\":{},\"hotswaps\":{},\"swaps_rejected\":{},\"plan_hits\":0,\"plan_misses\":0,\"max_batch\":{},\"max_wait_us\":{},\"queue_cap\":{},\"batch_hist\":{{{}}},\"model\":{},\"exec\":{}}}",
            self.requests.load(Ordering::Relaxed),
            self.batches.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            self.deadline_shed.load(Ordering::Relaxed),
            self.queue_depth.load(Ordering::Relaxed),
            self.ready_hwm,
            self.swaps_inflight.load(Ordering::Relaxed),
            self.hotswaps.load(Ordering::Relaxed),
            self.swaps_rejected.load(Ordering::Relaxed),
            self.max_batch,
            self.max_wait_us,
            self.queue_cap,
            hist.join(","),
            version_json(&v),
            self.exec.to_json(),
        )
    }
}

/// Renders the `/version` JSON body.
pub fn version_json(v: &ModelVersion) -> String {
    format!(
        "{{\"version\":{},\"epoch\":{},\"source\":{},\"crc\":{}}}",
        v.version,
        v.epoch,
        json_string(&v.source),
        v.crc
    )
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with_seed(seed: u64) -> ServeStats {
        ServeStats::new(&ServeConfig {
            seed,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn histogram_buckets_by_size() {
        let s = stats_with_seed(7);
        s.tick_batch(1);
        s.tick_batch(1);
        s.tick_batch(4);
        s.tick_batch(MAX_HIST_BATCH + 100); // collapses into last bucket
        assert_eq!(
            s.batch_hist_entries(),
            vec![(1, 2), (4, 1), (MAX_HIST_BATCH, 1)]
        );
    }

    #[test]
    fn version_updates_on_hotswap() {
        let s = stats_with_seed(7);
        assert_eq!(s.version().version, 0);
        assert_eq!(s.version().source, "seed:7");
        s.tick_hotswap(ModelVersion {
            version: 1,
            epoch: 3,
            source: "/tmp/ckpt_3.peb".into(),
            crc: 0xDEAD_BEEF,
        });
        assert_eq!(s.version().version, 1);
        assert_eq!(s.hotswaps.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn json_is_wellformed_enough() {
        let s = stats_with_seed(1);
        s.tick_request();
        s.tick_batch(2);
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"requests\":1"));
        assert!(j.contains("\"batch_hist\":{\"2\":1}"));
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_keeps_the_zero_plan_keys_and_no_arena_keys() {
        let s = stats_with_seed(1);
        s.tick_request();
        s.tick_batch(1);
        let j = s.to_json();
        // The benchmark's contract: both keys present, both zero.
        assert!(j.contains(",\"plan_hits\":0,\"plan_misses\":0,"), "{j}");
        // The cache's invalidation and arena keys went with the cache.
        assert!(!j.contains("invalidations") && !j.contains("arena"), "{j}");
    }

    #[test]
    fn readiness_tracks_queue_depth_and_swaps() {
        let s = ServeStats::new(&ServeConfig {
            queue_cap: 4,
            ready_hwm: Some(2),
            ..ServeConfig::default()
        });
        assert!(s.readiness().is_ok());
        s.queue_push();
        s.queue_push();
        assert!(s.readiness().is_ok(), "at the high-water mark is ready");
        s.queue_push();
        assert!(s.readiness().is_err(), "above the high-water mark");
        s.queue_pop();
        assert!(s.readiness().is_ok());
        s.swaps_inflight.fetch_add(1, Ordering::Relaxed);
        assert!(s.readiness().is_err(), "swap in flight blocks readiness");
        s.swaps_inflight.fetch_sub(1, Ordering::Relaxed);
        assert!(s.readiness().is_ok());
        // Saturating pop: never wraps below zero.
        s.queue_pop();
        s.queue_pop();
        s.queue_pop();
        assert_eq!(s.queue_depth.load(Ordering::Relaxed), 0);
        let j = s.to_json();
        assert!(j.contains("\"ready_hwm\":2"), "{j}");
        assert!(j.contains("\"queue_depth\":0"), "{j}");
        assert!(j.contains("\"deadline_shed\":0"), "{j}");
        assert!(j.contains("\"swaps_inflight\":0"), "{j}");
    }

    #[test]
    fn json_reports_knobs_and_exec_context() {
        let s = ServeStats::new(&ServeConfig {
            seed: 9,
            max_batch: 5,
            max_wait_us: 123,
            queue_cap: 17,
            compute_threads: Some(3),
            ..ServeConfig::default()
        });
        let j = s.to_json();
        assert!(j.contains("\"max_batch\":5"), "{j}");
        assert!(j.contains("\"max_wait_us\":123"), "{j}");
        assert!(j.contains("\"queue_cap\":17"), "{j}");
        // The engine's context: the caller's, at the configured threads.
        let exec = ExecCtx {
            threads: 3,
            ..peb_par::ctx::current()
        };
        assert!(
            j.ends_with(&format!(",\"exec\":{}}}", exec.to_json())),
            "{j}"
        );
    }
}
