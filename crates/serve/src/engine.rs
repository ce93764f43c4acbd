//! The inference engine: one thread that owns the model, batches
//! requests, and hot-swaps checkpoints between batches.
//!
//! # Why a single owner thread
//!
//! `Var` (the autograd handle every model parameter lives in) is
//! `Rc`-based and deliberately not `Send`, so the model cannot be
//! shared behind an `Arc` across connection threads. Instead the engine
//! thread *owns* the [`SdmPeb`] instance outright and everything else
//! talks to it through channels carrying plain [`Tensor`]s (which are
//! `Send`). This buys three properties at once:
//!
//! 1. **Dynamic batching** is a natural consequence: the thread drains
//!    the bounded job queue into a batch (up to `max_batch`, waiting at
//!    most `max_wait_us` for stragglers) and runs one
//!    [`PebPredictor::predict_batch`] call per batch.
//! 2. **Hot-swap drain is free**: control messages are only processed
//!    *between* batches, so by construction the old model has finished
//!    every in-flight request before it is dropped — no epoch counting,
//!    no read-write locks.
//! 3. **Backpressure is explicit**: the job queue is a
//!    `sync_channel(queue_cap)`; when it is full, `try_send` fails and
//!    the caller sheds the request with 429 instead of queueing
//!    unboundedly.
//!
//! Clips smaller than the model grid are zero-padded (corner-anchored)
//! up to the grid and the prediction is cropped back, so one
//! fixed-architecture model serves every clip size up to its grid —
//! this is the "padded batch" in DESIGN §12.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{InferPlan, PebPredictor, SdmPeb, SdmPebConfig};

use crate::config::{ModelPreset, ServeConfig};
use crate::error::ServeError;
use crate::stats::{ModelVersion, ServeStats};

/// How long the engine blocks waiting for work before re-checking the
/// control channel (bounds hot-swap and shutdown latency when idle).
const IDLE_POLL: Duration = Duration::from_millis(20);

/// One inference request travelling to the engine thread.
struct InferJob {
    clip: Tensor,
    /// Propagated deadline (`X-Peb-Deadline-Us`); the batch coalescer
    /// sheds the job with 504 if it is still unserved at this instant,
    /// and never waits for stragglers past it.
    deadline: Option<Instant>,
    reply: SyncSender<Result<Tensor, ServeError>>,
}

/// Control-plane messages (processed between batches).
enum CtrlMsg {
    Swap {
        path: PathBuf,
        reply: SyncSender<Result<ModelVersion, ServeError>>,
    },
    Shutdown,
}

/// Cloneable client half: submit clips, request swaps.
#[derive(Clone)]
pub struct EngineHandle {
    jobs: SyncSender<InferJob>,
    ctrl: Sender<CtrlMsg>,
    stats: Arc<ServeStats>,
    grid: (usize, usize, usize),
}

impl EngineHandle {
    /// Runs one clip through the next batch, blocking until its
    /// prediction is ready.
    ///
    /// # Errors
    ///
    /// [`ServeError::ClipTooLarge`] when the clip exceeds the model
    /// grid, [`ServeError::Overloaded`] when the bounded queue is full
    /// (the request is shed, never queued), [`ServeError::EngineGone`]
    /// after shutdown.
    pub fn infer(&self, clip: Tensor) -> Result<Tensor, ServeError> {
        self.infer_with(clip, None)
    }

    /// [`EngineHandle::infer`] with an optional propagated
    /// deadline. A job whose deadline has already passed when the batch
    /// coalescer picks it up is shed with
    /// [`ServeError::DeadlineExceeded`] (504) rather than served late,
    /// and the coalescer never waits for stragglers past the earliest
    /// deadline in the forming batch.
    ///
    /// # Errors
    ///
    /// Same as [`EngineHandle::infer`], plus
    /// [`ServeError::DeadlineExceeded`].
    pub fn infer_with(
        &self,
        clip: Tensor,
        deadline: Option<Instant>,
    ) -> Result<Tensor, ServeError> {
        let s = clip.shape();
        let &[d, h, w] = s else {
            return Err(ServeError::BadClip {
                detail: format!("expected a rank-3 clip, got shape {s:?}"),
            });
        };
        let dims = (d, h, w);
        if dims.0 > self.grid.0 || dims.1 > self.grid.1 || dims.2 > self.grid.2 {
            return Err(ServeError::ClipTooLarge {
                got: dims,
                max: self.grid,
            });
        }
        if let Some(dl) = deadline {
            if Instant::now() >= dl {
                self.stats.tick_deadline_shed();
                return Err(ServeError::DeadlineExceeded);
            }
        }
        let (tx, rx) = mpsc::sync_channel(1);
        match self.jobs.try_send(InferJob {
            clip,
            deadline,
            reply: tx,
        }) {
            Ok(()) => self.stats.queue_push(),
            Err(TrySendError::Full(_)) => {
                self.stats.tick_shed();
                return Err(ServeError::Overloaded);
            }
            Err(TrySendError::Disconnected(_)) => return Err(ServeError::EngineGone),
        }
        rx.recv().map_err(|_| ServeError::EngineGone)?
    }

    /// Hot-swaps the served model to the checkpoint at `path`,
    /// blocking until the swap commits or is rejected.
    ///
    /// # Errors
    ///
    /// [`ServeError::SwapRejected`] when the checkpoint fails CRC,
    /// decoding, or shape validation — the previous model keeps
    /// serving. [`ServeError::EngineGone`] after shutdown.
    pub fn swap(&self, path: PathBuf) -> Result<ModelVersion, ServeError> {
        // While a swap is in flight `/readyz` answers 503, steering
        // routers away before the between-batches splice.
        self.stats.swaps_inflight.fetch_add(1, Ordering::Relaxed);
        let r = (|| {
            let (tx, rx) = mpsc::sync_channel(1);
            self.ctrl
                .send(CtrlMsg::Swap { path, reply: tx })
                .map_err(|_| ServeError::EngineGone)?;
            rx.recv().map_err(|_| ServeError::EngineGone)?
        })();
        self.stats.swaps_inflight.fetch_sub(1, Ordering::Relaxed);
        r
    }

    /// The shared statistics block.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// The model grid `(D, H, W)` this engine serves.
    pub fn grid(&self) -> (usize, usize, usize) {
        self.grid
    }
}

/// The engine thread plus its shutdown plumbing.
pub struct Engine {
    ctrl: Sender<CtrlMsg>,
    join: Option<JoinHandle<()>>,
}

impl Engine {
    /// Builds the model from `config` and starts the engine thread.
    pub fn spawn(config: &ServeConfig) -> (Engine, EngineHandle) {
        let stats = Arc::new(ServeStats::new(config));
        let (jobs_tx, jobs_rx) = mpsc::sync_channel(config.queue_cap);
        let (ctrl_tx, ctrl_rx) = mpsc::channel();
        let handle = EngineHandle {
            jobs: jobs_tx,
            ctrl: ctrl_tx.clone(),
            stats: Arc::clone(&stats),
            grid: config.grid,
        };
        let cfg = config.clone();
        let join = std::thread::Builder::new()
            .name("peb-serve-engine".to_string())
            .spawn(move || {
                // The caller's context (with `compute_threads` applied)
                // governs every kernel the engine thread runs.
                peb_par::ctx::with(stats.exec, || {
                    engine_main(&cfg, &stats, &jobs_rx, &ctrl_rx);
                })
            })
            .unwrap_or_else(|e| panic!("spawning engine thread: {e}"));
        (
            Engine {
                ctrl: ctrl_tx,
                join: Some(join),
            },
            handle,
        )
    }

    /// Stops the engine: queued jobs drain (every accepted request gets
    /// a reply), then the thread exits and later submissions fail with
    /// [`ServeError::EngineGone`].
    pub fn shutdown(mut self) {
        let _ = self.ctrl.send(CtrlMsg::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        let _ = self.ctrl.send(CtrlMsg::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

fn build_model(config: &ServeConfig) -> SdmPeb {
    let cfg = match config.preset {
        ModelPreset::Tiny => SdmPebConfig::tiny(config.grid),
        ModelPreset::ForGrid => SdmPebConfig::for_grid(config.grid),
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    SdmPeb::new(cfg, &mut rng)
}

/// Per-engine cache of recorded execution plans, keyed like the FFT
/// plan cache: one entry per padded clip geometry. Lives entirely on the
/// engine thread (plans are `!Send` by design — their arenas serve the
/// thread that recorded them).
type PlanCache = HashMap<(usize, usize, usize), InferPlan>;

fn engine_main(
    config: &ServeConfig,
    stats: &Arc<ServeStats>,
    jobs: &Receiver<InferJob>,
    ctrl: &Receiver<CtrlMsg>,
) {
    let mut model = build_model(config);
    let mut version: u64 = 0;
    let mut plans = PlanCache::new();
    loop {
        // Control plane first: swaps land between batches, so the old
        // model is fully drained before it is dropped.
        let mut shutting_down = false;
        while let Ok(msg) = ctrl.try_recv() {
            match msg {
                CtrlMsg::Swap { path, reply } => {
                    let r = handle_swap(config, stats, &mut model, &mut plans, &mut version, &path);
                    let _ = reply.send(r);
                }
                CtrlMsg::Shutdown => shutting_down = true,
            }
        }
        if shutting_down {
            // Drain: every request already accepted into the queue gets
            // a real prediction before the thread exits.
            while let Ok(job) = jobs.try_recv() {
                let batch = collect_batch(config, jobs, job);
                run_batch(config, stats, &model, &mut plans, batch);
            }
            return;
        }
        match jobs.recv_timeout(IDLE_POLL) {
            Ok(first) => {
                let batch = collect_batch(config, jobs, first);
                run_batch(config, stats, &model, &mut plans, batch);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Gathers up to `max_batch` jobs: greedy drain of whatever is queued,
/// then wait up to `max_wait_us` for stragglers — never past the
/// earliest propagated deadline already in the forming batch (waiting
/// longer could only turn a servable request into a 504 shed).
fn collect_batch(
    config: &ServeConfig,
    jobs: &Receiver<InferJob>,
    first: InferJob,
) -> Vec<InferJob> {
    let mut batch = vec![first];
    while batch.len() < config.max_batch {
        match jobs.try_recv() {
            Ok(j) => batch.push(j),
            Err(_) => break,
        }
    }
    if config.max_wait_us > 0 && batch.len() < config.max_batch {
        let mut wait_until = Instant::now() + Duration::from_micros(config.max_wait_us);
        while batch.len() < config.max_batch {
            if let Some(earliest) = batch.iter().filter_map(|j| j.deadline).min() {
                wait_until = wait_until.min(earliest);
            }
            let now = Instant::now();
            if now >= wait_until {
                break;
            }
            match jobs.recv_timeout(wait_until - now) {
                Ok(j) => batch.push(j),
                Err(_) => break,
            }
        }
    }
    batch
}

fn run_batch(
    config: &ServeConfig,
    stats: &Arc<ServeStats>,
    model: &SdmPeb,
    plans: &mut PlanCache,
    mut batch: Vec<InferJob>,
) {
    let _span = peb_obs::span("serve.batch");
    // Every collected job has left the bounded queue, whatever its fate.
    for _ in &batch {
        stats.queue_pop();
    }
    // Chaos hook: an armed kill-worker fault aborts the whole process
    // at the top of a batch — mid-request from the router's point of
    // view — exercising supervisor restart and router failover.
    if peb_guard::chaos::take_kill_worker() {
        eprintln!("peb-serve: chaos kill-worker fired, aborting");
        std::process::abort();
    }
    // Deadline sheds happen at batch start: a job whose propagated
    // deadline has already passed is answered 504 now rather than
    // served late (the caller has given up; compute would be wasted).
    let now = Instant::now();
    let mut kept = Vec::with_capacity(batch.len());
    for job in batch.drain(..) {
        if job.deadline.is_some_and(|dl| now >= dl) {
            stats.tick_deadline_shed();
            let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
        } else {
            kept.push(job);
        }
    }
    let batch = kept;
    if batch.is_empty() {
        return;
    }
    stats.tick_batch(batch.len());
    let padded: Vec<Tensor> = batch
        .iter()
        .map(|j| pad_to_grid(&j.clip, config.grid))
        .collect();
    let outputs = if peb_plan::enabled() {
        // Planned path: every padded clip replays through the cached
        // plan for its geometry. A miss records one (costing an extra
        // warmup predict, amortised across the key's lifetime). Replay is
        // bitwise identical to predict_batch by the plan contract, and
        // predict_batch is batch-composition invariant, so no result
        // depends on which other requests happened to share the batch.
        padded
            .iter()
            .map(|clip| predict_planned(stats, model, plans, clip))
            .collect()
    } else {
        model.predict_batch(&padded)
    };
    for (job, out) in batch.into_iter().zip(outputs) {
        let s = job.clip.shape();
        let cropped = crop_to(&out, (s[0], s[1], s[2]));
        // A gone receiver just means the client hung up; inference
        // results are not transactional.
        let _ = job.reply.send(Ok(cropped));
    }
}

/// One planned inference: replay the cached plan for this geometry, or
/// record a fresh one. Always returns the bitwise-eager prediction.
fn predict_planned(
    stats: &Arc<ServeStats>,
    model: &SdmPeb,
    plans: &mut PlanCache,
    clip: &Tensor,
) -> Tensor {
    let s = clip.shape();
    let key = (s[0], s[1], s[2]);
    if let Some(plan) = plans.get(&key) {
        let (out, outcome) = plan.predict(model, clip);
        if outcome.complete {
            stats.tick_plan_hit();
        } else {
            // The checkout stream diverged (the context changed under us).
            // The result is still bitwise-eager — only the planning win
            // was lost — but the plan is stale: drop it so the next
            // request at this key re-records.
            plans.remove(&key);
        }
        return out;
    }
    let (plan, out) = InferPlan::record(model, clip);
    stats.tick_plan_miss();
    plans.insert(key, plan);
    let total: u64 = plans
        .values()
        .map(|pl| pl.plan().arena_bytes() as u64)
        .sum();
    stats.note_arena_bytes(total);
    out
}

fn handle_swap(
    config: &ServeConfig,
    stats: &Arc<ServeStats>,
    model: &mut SdmPeb,
    plans: &mut PlanCache,
    version: &mut u64,
    path: &std::path::Path,
) -> Result<ModelVersion, ServeError> {
    let _span = peb_obs::span("serve.swap");
    // Chaos hook: an armed truncate-ckpt/bitflip-ckpt corrupts the
    // incoming file exactly once, exercising the reject path below.
    peb_guard::chaos::mangle_checkpoint(path);
    let rejected = |detail: String| {
        stats.tick_swap_rejected();
        ServeError::SwapRejected { detail }
    };
    // CRC + header validation without decoding the full payload; a
    // corrupt file is rejected here and the live model is untouched.
    let meta = peb_guard::peek(path).map_err(|e| rejected(e.to_string()))?;
    let ckpt = peb_guard::TrainCheckpoint::load(path).map_err(|e| rejected(e.to_string()))?;
    // A v2 (int8-quantized, params-empty) checkpoint dequantizes here;
    // a v1 checkpoint passes its f32 params through untouched.
    let params = sdm_peb::checkpoint_params(&ckpt).map_err(|e| rejected(e.to_string()))?;
    // CRC proves the bytes arrived as written, not that they were worth
    // writing: a diverged run checkpoints NaNs that would serve as NaNs.
    if let Some(i) = params
        .iter()
        .position(|p| p.data().iter().any(|v| !v.is_finite()))
    {
        return Err(rejected(format!("parameter {i} holds a non-finite value")));
    }
    // Splice the weights into a *fresh* instance so a shape mismatch
    // can never leave the serving model half-written.
    let fresh = build_model(config);
    sdm_peb::restore_parameters(&fresh, &params).map_err(|e| rejected(e.to_string()))?;
    *model = fresh; // old model drops here — after its last batch
                    // Plans recorded against the old weights would replay *correctly*
                    // against the new ones (replay computes values eagerly), but they
                    // describe a retired model; invalidate atomically with the splice
                    // so `/stats` reflects the cache behaviour the swap caused.
    let dropped = plans.len() as u64;
    plans.clear();
    stats.tick_plan_invalidations(dropped);
    *version += 1;
    let v = ModelVersion {
        version: *version,
        epoch: meta.epoch,
        source: path.display().to_string(),
        crc: meta.crc,
    };
    stats.tick_hotswap(v.clone());
    Ok(v)
}

fn pad_to_grid(clip: &Tensor, grid: (usize, usize, usize)) -> Tensor {
    let s = clip.shape();
    let (d, h, w) = (s[0], s[1], s[2]);
    let (gd, gh, gw) = grid;
    if (d, h, w) == grid {
        return clip.clone();
    }
    let mut out = vec![0.0f32; gd * gh * gw];
    let src = clip.data();
    for z in 0..d {
        for y in 0..h {
            let src_row = (z * h + y) * w;
            let dst_row = (z * gh + y) * gw;
            out[dst_row..dst_row + w].copy_from_slice(&src[src_row..src_row + w]);
        }
    }
    Tensor::from_vec(out, &[gd, gh, gw]).unwrap_or_else(|e| panic!("padding clip: {e}"))
}

fn crop_to(full: &Tensor, dims: (usize, usize, usize)) -> Tensor {
    let s = full.shape();
    let (gd, gh, gw) = (s[0], s[1], s[2]);
    let (d, h, w) = dims;
    if (gd, gh, gw) == dims {
        return full.clone();
    }
    let src = full.data();
    let mut out = Vec::with_capacity(d * h * w);
    for z in 0..d {
        for y in 0..h {
            let src_row = (z * gh + y) * gw;
            out.extend_from_slice(&src[src_row..src_row + w]);
        }
    }
    Tensor::from_vec(out, &[d, h, w]).unwrap_or_else(|e| panic!("cropping clip: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            grid: (4, 16, 16),
            max_batch: 4,
            max_wait_us: 0,
            queue_cap: 8,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn pad_and_crop_roundtrip_bitwise() {
        let clip = Tensor::from_vec(
            (0..2 * 3 * 5).map(|i| i as f32 * 0.25 - 1.0).collect(),
            &[2, 3, 5],
        )
        .expect("tensor");
        let padded = pad_to_grid(&clip, (4, 16, 16));
        assert_eq!(padded.shape(), &[4, 16, 16]);
        let back = crop_to(&padded, (2, 3, 5));
        assert_eq!(back.bit_digest(), clip.bit_digest());
        // Padding is zero outside the clip.
        assert_eq!(padded.data()[4 * 16 * 16 - 1], 0.0);
    }

    #[test]
    fn engine_serves_and_rejects_oversized() {
        let cfg = tiny_config();
        let (engine, handle) = Engine::spawn(&cfg);
        let y = handle
            .infer(Tensor::full(&[4, 16, 16], 0.3))
            .expect("inference");
        assert_eq!(y.shape(), &[4, 16, 16]);
        let err = handle
            .infer(Tensor::zeros(&[5, 16, 16]))
            .expect_err("oversized");
        assert!(matches!(err, ServeError::ClipTooLarge { .. }));
        engine.shutdown();
        let err = handle.infer(Tensor::zeros(&[1, 1, 1])).expect_err("gone");
        assert_eq!(err, ServeError::EngineGone);
    }

    #[test]
    fn small_clip_matches_padded_crop_of_direct_predict() {
        let cfg = tiny_config();
        let (engine, handle) = Engine::spawn(&cfg);
        let clip = Tensor::from_vec(
            (0..2 * 8 * 8).map(|i| (i as f32 * 0.01).sin()).collect(),
            &[2, 8, 8],
        )
        .expect("tensor");
        let served = handle.infer(clip.clone()).expect("inference");
        engine.shutdown();

        let model = build_model(&cfg);
        let direct = crop_to(&model.predict(&pad_to_grid(&clip, cfg.grid)), (2, 8, 8));
        assert_eq!(served.bit_digest(), direct.bit_digest());
    }

    #[test]
    fn expired_deadline_sheds_with_504_and_queue_depth_settles() {
        let cfg = tiny_config();
        let (engine, handle) = Engine::spawn(&cfg);
        let past = Instant::now()
            .checked_sub(Duration::from_millis(1))
            .unwrap_or_else(Instant::now);
        let err = handle
            .infer_with(Tensor::zeros(&[4, 16, 16]), Some(past))
            .expect_err("expired deadline");
        assert_eq!(err, ServeError::DeadlineExceeded);
        // A generous deadline serves normally.
        let y = handle
            .infer_with(
                Tensor::zeros(&[4, 16, 16]),
                Some(Instant::now() + Duration::from_secs(30)),
            )
            .expect("served within deadline");
        assert_eq!(y.shape(), &[4, 16, 16]);
        let stats = Arc::clone(handle.stats());
        engine.shutdown();
        assert!(stats.deadline_shed.load(Ordering::Relaxed) >= 1);
        assert_eq!(stats.queue_depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn batch_stats_are_recorded() {
        let cfg = tiny_config();
        let (engine, handle) = Engine::spawn(&cfg);
        handle.infer(Tensor::zeros(&[4, 16, 16])).expect("infer");
        let stats = Arc::clone(handle.stats());
        engine.shutdown();
        assert!(stats.batches.load(Ordering::Relaxed) >= 1);
        assert!(!stats.batch_hist_entries().is_empty());
    }
}
