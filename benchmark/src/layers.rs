//! Per-layer probes, all from outside the product: (a) the sequential
//! public stages of an op, (b) nested paths around the same clip whose
//! p50 differences are the hop costs, (c) stand-alone replays of public
//! blocks at the shapes the workload's model derives.
//!
//! Every probe runs a discarded warm-up call, then `REPS` timed calls,
//! and reports the median.

use std::time::{Duration, Instant};

use peb_litho::{LithoFlow, MaskClip, PebParams, PebSolver};
use peb_mamba::{selective_scan, SdmUnit, SdmUnitConfig};
use peb_nn::{
    DwConv3d, EfficientSelfAttention, LayerNorm, Mlp, OverlappedPatchEmbed, Parameterized,
};
use peb_serve::{clip, Client, RequestParser, ServeConfig, Server};
use peb_tensor::{Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{
    Decoder, EncoderStage, EncoderStageConfig, FeatureFusion, InferPlan, PebPredictor, SdmPeb,
    SdmPebConfig,
};

use crate::inputs::blob_clip;
use crate::stats::{self, median};
use crate::trace;
use crate::workloads::predict_offline::WEIGHT_SEED;
use crate::workloads::rigorous_cd::{staged_run, whole_run};
use crate::workloads::train_step::{Pair, Stepper};
use crate::workloads::{metric, Metric};

const REPS: usize = 3;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time in ms of `REPS` calls of `f` after one warm-up call.
fn time_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms(t.elapsed())
        })
        .collect();
    median(&samples)
}

/// Like [`time_ms`] for calls too short for one clock read: times
/// batches of `batch` calls and reports microseconds per call.
fn time_us<R>(batch: usize, mut f: impl FnMut() -> R) -> f64 {
    time_ms(|| {
        for _ in 0..batch {
            std::hint::black_box(f());
        }
    }) * 1e3
        / batch as f64
}

fn rng(salt: u64) -> StdRng {
    StdRng::seed_from_u64(WEIGHT_SEED ^ (salt << 32))
}

// ---------------------------------------------------------------------------
// Machine context: what the hardware can do, measured in this run.
// ---------------------------------------------------------------------------

/// 256-bit FMA throughput of one core: ten independent accumulator
/// chains, so the loop is bound by FMA issue rate, not latency.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_loop(iters: u64) -> f32 {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps};
    let a = _mm256_set1_ps(0.999_999);
    let b = _mm256_set1_ps(1e-7);
    let mut acc = [_mm256_set1_ps(1.0); 10];
    for _ in 0..iters {
        for r in &mut acc {
            *r = _mm256_fmadd_ps(*r, a, b);
        }
    }
    let mut sum = acc[0];
    for r in &acc[1..] {
        sum = _mm256_add_ps(sum, *r);
    }
    let mut out = [0.0f32; 8];
    // SAFETY: `out` holds exactly the eight lanes the store writes.
    unsafe { _mm256_storeu_ps(out.as_mut_ptr(), sum) };
    out.iter().sum()
}

/// GFLOP/s of `fma_loop` on this thread (0 without AVX2+FMA: the
/// product's SIMD level needs both, so there is no peak to compare to).
fn fma_gflops_one_thread() -> f64 {
    #[cfg(target_arch = "x86_64")]
    if peb_simd::detected() {
        const ITERS: u64 = 20_000_000;
        // SAFETY: `peb_simd::detected()` is the product's own runtime
        // check for AVX2 and FMA.
        let t = time_ms(|| unsafe { fma_loop(std::hint::black_box(ITERS)) });
        return (ITERS * 10 * 8 * 2) as f64 / (t * 1e-3) / 1e9;
    }
    0.0
}

/// Runs `f` on `threads` threads at once and sums the results — the
/// all-core rate a kernel at that thread count is up against.
fn on_threads(threads: usize, f: impl Fn() -> f64 + Sync) -> f64 {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(&f)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .sum()
    })
}

/// `y ← y + α·x` (`peb_simd::elementwise::vaxpy`) over arrays far
/// beyond cache: 12 bytes moved per element.
fn triad_gbps_one_thread(elems: usize) -> f64 {
    let x = vec![1.0f32; elems];
    let mut y = vec![2.0f32; elems];
    let t = time_ms(|| peb_simd::elementwise::vaxpy(&mut y, 0.5, &x));
    (elems * 12) as f64 / (t * 1e-3) / 1e9
}

/// The Dill chain shape (`×s → exp → 1−x`) as one fused sweep over a
/// 16 MiB volume: 8 bytes moved per element.
fn fused_chain_gbps() -> f64 {
    let n = 4 << 20;
    let x = Tensor::full(&[n], 0.4);
    let t = time_ms(|| x.fused().mul_scalar(-2.2).exp().sub_from_scalar(1.0).eval());
    (n * 8) as f64 / (t * 1e-3) / 1e9
}

pub struct Machine {
    pub fma_peak_gflops: f64,
    pub metrics: Vec<Metric>,
    pub note: String,
}

/// Roofline context at `threads` threads (the workload's compute pin).
pub fn machine(threads: usize) -> Machine {
    let fma = on_threads(threads, fma_gflops_one_thread);
    // A bandwidth measurement wants arrays ≥ 4× the last-level cache.
    // Virtualised hosts report L3s of hundreds of MiB, so the arrays are
    // capped; both sizes are printed with the result.
    let llc = crate::env::last_level_cache_bytes().unwrap_or(32 << 20);
    let array_bytes = (4 * llc).clamp(64 << 20, 256 << 20);
    let triad = on_threads(threads, || triad_gbps_one_thread(array_bytes / 4));
    Machine {
        fma_peak_gflops: fma,
        metrics: vec![
            metric("simd.fma_peak_gflops", fma, "GFLOP/s"),
            metric("simd.triad_gbps", triad, "GB/s"),
            metric("simd.fused_chain_gbps", fused_chain_gbps(), "GB/s"),
        ],
        note: format!(
            "triad arrays 2×{} MiB per thread × {threads} threads; last-level cache {} MiB \
             (4× rule {})",
            array_bytes >> 20,
            llc >> 20,
            if array_bytes >= 4 * llc {
                "met"
            } else {
                "NOT met: arrays capped at 256 MiB"
            }
        ),
    }
}

// ---------------------------------------------------------------------------
// Model blocks: a replica of `SdmPeb` assembled from its public parts.
// ---------------------------------------------------------------------------

/// `SdmPeb` rebuilt from the public blocks it is made of, drawing from
/// the RNG in the product constructor's order, so it carries the same
/// weights and its forward is the product's `forward_inner` with a span
/// around every block.
struct Replica {
    stem: DwConv3d,
    stages: Vec<EncoderStage>,
    fusion: FeatureFusion,
    decoder: Decoder,
}

fn stage_config(c: &SdmPebConfig, i: usize) -> EncoderStageConfig {
    EncoderStageConfig {
        in_channels: if i == 0 { 1 } else { c.stage_channels[i - 1] },
        out_channels: c.stage_channels[i],
        patch_kernel: c.patch_kernels[i],
        patch_stride: c.patch_strides[i],
        heads: c.heads[i],
        reduction: c.reductions[i],
        mlp_ratio: c.mlp_ratio,
        ssm_state: c.ssm_state,
        scan_2d: c.scan_2d,
        use_sdm: c.use_sdm,
        overlapped: c.overlapped,
    }
}

const STAGE_SPANS: [&str; 4] = ["core.stage1", "core.stage2", "core.stage3", "core.stage4"];

impl Replica {
    fn new(c: &SdmPebConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(WEIGHT_SEED);
        let n = if c.single_stage {
            1
        } else {
            c.stage_channels.len()
        };
        let stages = (0..n)
            .map(|i| EncoderStage::new(stage_config(c, i), &mut rng))
            .collect();
        let fusion = FeatureFusion::new(
            &c.stage_channels[..n],
            c.fusion_dim,
            c.fusion_hidden,
            &mut rng,
        );
        let decoder = Decoder::new(c.fusion_dim, c.patch_strides[0], 2, &mut rng);
        Replica {
            stem: DwConv3d::new(1, 3, &mut rng),
            stages,
            fusion,
            decoder,
        }
    }

    fn predict(&self, acid: &Tensor, op: u64) -> Tensor {
        let _all = trace::span("core.replica", op);
        let s = acid.shape();
        let input = Var::constant(acid.reshape(&[1, s[0], s[1], s[2]]).expect("input reshape"));
        let (x, skip) = trace::in_span("core.stem", op, || {
            let x = self.stem.forward(&input);
            let skip = Var::concat(&[&x, &input], 0);
            (x, skip)
        });
        let mut features = Vec::with_capacity(self.stages.len());
        let mut cur = x;
        for (stage, name) in self.stages.iter().zip(STAGE_SPANS) {
            cur = trace::in_span(name, op, || stage.forward(&cur));
            features.push(cur.clone());
        }
        let fused = trace::in_span("core.fusion", op, || self.fusion.forward(&features));
        trace::in_span("core.decoder", op, || {
            self.decoder.forward(&fused, Some(&skip)).value_clone()
        })
    }
}

/// What to probe for one model workload.
pub struct ModelSpec<'a> {
    pub config: SdmPebConfig,
    pub clip: &'a Tensor,
    /// Compute threads the workload runs this model at.
    pub threads: usize,
    /// 1-vs-2-thread speed-up (the in-process workloads).
    pub par_speedup: bool,
    /// Record/replay probes (the served models).
    pub plan: bool,
    pub fma_peak_gflops: f64,
}

/// Largest GEMM (by flops) among a plan's ops, as `(m, k, n)`.
fn largest_gemm(ops: &[peb_plan::OpDesc]) -> Option<(usize, usize, usize)> {
    ops.iter()
        .filter(|o| o.kind == "gemm")
        .filter_map(|o| {
            let field = |key: &str| {
                o.detail.split_whitespace().find_map(|t| {
                    t.strip_prefix(key)?
                        .strip_prefix('=')?
                        .parse::<usize>()
                        .ok()
                })
            };
            Some((field("m")?, field("k")?, field("n")?))
        })
        .max_by_key(|&(m, k, n)| m * k * n)
}

/// `core.*`, `nn.*`, `mamba.*`, `tensor.*`, `plan.*` and
/// `par.predict_speedup_2t` for one model at one clip geometry. Returns
/// the metrics and, on a replica mismatch, an error line. The caller
/// has already drained the traced window's spans and switched tracing
/// off; the block split records and drains its own.
pub fn model(spec: &ModelSpec) -> (Vec<Metric>, Option<String>) {
    let c = &spec.config;
    let (d, h, _) = c.input_dims;
    let model = SdmPeb::new(c.clone(), &mut StdRng::seed_from_u64(WEIGHT_SEED));
    let replica = Replica::new(c);
    let mut out = Vec::new();
    let mut error = None;

    peb_par::with_thread_count(spec.threads, || {
        // (c) block replays, traced so the split comes from spans. The
        // whole `predict` and the replica alternate, so the coverage
        // ratio compares them under the same machine conditions.
        if replica.predict(spec.clip, 0).bit_digest() != model.predict(spec.clip).bit_digest() {
            error = Some(
                "layer probe: the public-block replica no longer reproduces SdmPeb::predict \
                 bitwise; core.* split is stale"
                    .to_string(),
            );
        }
        trace::set_enabled(true);
        let whole: Vec<f64> = (0..REPS)
            .map(|rep| {
                let t = Instant::now();
                std::hint::black_box(model.predict(spec.clip));
                let whole_ms = ms(t.elapsed());
                replica.predict(spec.clip, rep as u64);
                whole_ms
            })
            .collect();
        trace::set_enabled(false);
        let predict_ms = stats::mean(&whole);
        let by = trace::by_name(&trace::drain());
        let stage_ms = |name: &str| trace::mean_ms(&by, name);
        let blocks = ["core.stem", "core.fusion", "core.decoder"]
            .iter()
            .chain(&STAGE_SPANS)
            .map(|n| stage_ms(n))
            .sum::<f64>();
        out.extend([
            metric("core.stem_ms", stage_ms("core.stem"), "ms"),
            metric("core.stage1_ms", stage_ms("core.stage1"), "ms"),
            metric("core.stage2_ms", stage_ms("core.stage2"), "ms"),
            metric("core.stage3_ms", stage_ms("core.stage3"), "ms"),
            metric("core.stage4_ms", stage_ms("core.stage4"), "ms"),
            metric("core.fusion_ms", stage_ms("core.fusion"), "ms"),
            metric("core.decoder_ms", stage_ms("core.decoder"), "ms"),
            metric("core.predict_ms", predict_ms, "ms"),
            metric("core.coverage", blocks / predict_ms, "ratio"),
        ]);

        // Stage-1 shapes: [1, D, H, W] → [C, D, H', W'], L = D·H'·W'.
        let s1 = stage_config(c, 0);
        let (ch, hp) = (s1.out_channels, h / s1.patch_stride);
        let (plane, tokens) = (hp * hp, d * hp * hp);
        let mut r = rng(1);
        let vol_in = Var::constant(Tensor::randn(&[1, d, h, h], &mut r));
        let seq = Var::constant(Tensor::randn(&[tokens, ch], &mut r));
        let one_plane = Var::constant(Tensor::randn(&[plane, ch], &mut r));
        let vol = Var::constant(Tensor::randn(&[ch, d, hp, hp], &mut r));

        let kernel = if s1.overlapped {
            s1.patch_kernel
        } else {
            s1.patch_stride
        };
        let embed = OverlappedPatchEmbed::new(1, ch, kernel, s1.patch_stride, &mut r);
        let attn = EfficientSelfAttention::new(ch, s1.heads, s1.reduction, &mut r);
        let mlp = Mlp::new(ch, ch * s1.mlp_ratio, &mut r);
        let norm = LayerNorm::new(ch);
        let dw = DwConv3d::new(ch, 3, &mut r);
        let sdm = SdmUnit::new(SdmUnitConfig::new(ch, ch, s1.ssm_state), &mut r);
        // The stage runs attention once per depth level; report the
        // whole stage's share, like the other blocks.
        let attn_ms = time_ms(|| attn.forward(&one_plane)) * d as f64;
        out.extend([
            metric(
                "nn.patch_embed_ms",
                time_ms(|| embed.forward(&vol_in)),
                "ms",
            ),
            metric("nn.attention_ms", attn_ms, "ms"),
            metric("nn.mlp_ms", time_ms(|| mlp.forward(&seq)), "ms"),
            metric("nn.layernorm_ms", time_ms(|| norm.forward(&seq)), "ms"),
            metric("nn.dwconv3d_ms", time_ms(|| dw.forward(&vol)), "ms"),
            metric(
                "mamba.sdm_unit_ms",
                time_ms(|| sdm.forward(&seq, (d, hp, hp))),
                "ms",
            ),
        ]);
        let scan = ScanOperands::new(tokens, ch, s1.ssm_state, false);
        let scan_ms = time_ms(|| scan.forward());
        out.extend([
            metric("mamba.scan_fwd_ms", scan_ms, "ms"),
            metric(
                "mamba.scan_melem_per_s",
                (tokens * ch * s1.ssm_state) as f64 / (scan_ms * 1e-3) / 1e6,
                "Melem/s",
            ),
            metric(
                "tensor.transpose2_gbps",
                (tokens * ch * 8) as f64 / (time_ms(|| seq.value().transpose2()) * 1e-3) / 1e9,
                "GB/s",
            ),
        ]);

        // GEMM at the largest shape the model's own plan lists.
        let (plan, _) = InferPlan::record(&model, spec.clip);
        if let Some((m, k, n)) = largest_gemm(plan.plan().ops()) {
            let a = Tensor::randn(&[m, k], &mut r);
            let b = Tensor::randn(&[k, n], &mut r);
            let t = time_ms(|| a.matmul(&b).expect("gemm shapes agree"));
            let gflops = (2 * m * k * n) as f64 / (t * 1e-3) / 1e9;
            out.push(metric("tensor.gemm_gflops", gflops, "GFLOP/s"));
            out.push(metric(
                "tensor.gemm_peak_share",
                if spec.fma_peak_gflops > 0.0 {
                    gflops / spec.fma_peak_gflops
                } else {
                    0.0
                },
                "ratio",
            ));
        }

        if spec.plan {
            let record_ms = {
                let t = Instant::now();
                std::hint::black_box(InferPlan::record(&model, spec.clip));
                ms(t.elapsed())
            };
            let replay_ms = time_ms(|| plan.predict(&model, spec.clip));
            let (_, outcome) = plan.predict(&model, spec.clip);
            out.extend([
                metric("plan.record_ms", record_ms, "ms"),
                metric("plan.replay_ms", replay_ms, "ms"),
                metric("plan.eager_ms", predict_ms, "ms"),
                metric("plan.replay_over_eager", predict_ms / replay_ms, "ratio"),
                metric(
                    "plan.arena_mb",
                    plan.plan().arena_bytes() as f64 / (1 << 20) as f64,
                    "MiB",
                ),
                metric(
                    "plan.served_share",
                    outcome.served as f64 / plan.plan().planned_allocs().max(1) as f64,
                    "ratio",
                ),
            ]);
        }
        if spec.par_speedup {
            let one = peb_par::with_thread_count(1, || time_ms(|| model.predict(spec.clip)));
            out.push(metric("par.predict_speedup_2t", one / predict_ms, "ratio"));
        }
    });
    (out, error)
}

/// Operands of one stand-alone `selective_scan` at `[L, C]` × state `N`.
struct ScanOperands {
    u: Var,
    delta: Var,
    a: Var,
    b: Var,
    c: Var,
    d: Var,
}

impl ScanOperands {
    fn new(l: usize, ch: usize, n: usize, trainable: bool) -> Self {
        let mut r = rng(2);
        let wrap = |t: Tensor| {
            if trainable {
                Var::parameter(t)
            } else {
                Var::constant(t)
            }
        };
        ScanOperands {
            u: wrap(Tensor::randn(&[l, ch], &mut r)),
            delta: wrap(Tensor::rand_uniform(&[l, ch], 0.01, 0.1, &mut r)),
            a: wrap(Tensor::rand_uniform(&[ch, n], -2.0, -0.5, &mut r)),
            b: wrap(Tensor::randn(&[l, n], &mut r)),
            c: wrap(Tensor::randn(&[l, n], &mut r)),
            d: wrap(Tensor::randn(&[ch], &mut r)),
        }
    }

    fn forward(&self) -> Var {
        selective_scan(&self.u, &self.delta, &self.a, &self.b, &self.c, &self.d)
    }

    fn vars(&self) -> [&Var; 6] {
        [&self.u, &self.delta, &self.a, &self.b, &self.c, &self.d]
    }
}

/// Forward + backward of `f`'s scalarised output; gradients are cleared
/// outside the timed call so every repetition accumulates from empty.
fn fwdbwd_ms(params: &[Var], mut f: impl FnMut() -> Var) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    for rep in 0..=REPS {
        let t = Instant::now();
        f().sum().backward();
        if rep > 0 {
            samples.push(ms(t.elapsed()));
        }
        for p in params {
            p.zero_grad();
        }
    }
    median(&samples)
}

/// The training-only probes at stage-1 shapes, plus the 1-vs-2-thread
/// speed-up of a whole step (`two_thread_step_ms` is the traced
/// window's mean step).
pub fn train(config: &SdmPebConfig, pair: &Pair, two_thread_step_ms: f64) -> Vec<Metric> {
    let (d, h, _) = config.input_dims;
    let s1 = stage_config(config, 0);
    let (ch, hp) = (s1.out_channels, h / s1.patch_stride);
    let mut r = rng(3);
    let embed = OverlappedPatchEmbed::new(1, ch, s1.patch_kernel, s1.patch_stride, &mut r);
    let attn = EfficientSelfAttention::new(ch, s1.heads, s1.reduction, &mut r);
    let vol_in = Var::constant(Tensor::randn(&[1, d, h, h], &mut r));
    let one_plane = Var::constant(Tensor::randn(&[hp * hp, ch], &mut r));
    let scan = ScanOperands::new(d * hp * hp, ch, s1.ssm_state, true);
    let scan_vars: Vec<Var> = scan.vars().into_iter().cloned().collect();
    let one_thread_step_ms = peb_par::with_thread_count(1, || {
        let mut stepper = Stepper::new(config.input_dims);
        time_ms(|| stepper.step(pair, 0))
    });
    vec![
        metric(
            "nn.patch_embed_fwdbwd_ms",
            fwdbwd_ms(&embed.parameters(), || embed.forward(&vol_in)),
            "ms",
        ),
        metric(
            "nn.attention_fwdbwd_ms",
            fwdbwd_ms(&attn.parameters(), || attn.forward(&one_plane)) * d as f64,
            "ms",
        ),
        metric(
            "mamba.scan_fwdbwd_ms",
            fwdbwd_ms(&scan_vars, || scan.forward()),
            "ms",
        ),
        metric(
            "par.train_speedup_2t",
            one_thread_step_ms / two_thread_step_ms,
            "ratio",
        ),
    ]
}

// ---------------------------------------------------------------------------
// Litho: whole run against its stages, and the kernels under them.
// ---------------------------------------------------------------------------

/// `litho.coverage` (Σ stage spans ÷ `LithoFlow::run`), the bake's
/// voxel-step rate, its 1-vs-2-thread speed-up (on a tenth of the bake)
/// and the optics convolution. `window` is the traced window's by-name
/// table: its ops alternated `rigorous_cd::staged_run` with the
/// product's own `LithoFlow::run`. Two more pairs run here, so each side
/// of the ratio has three samples taken next to the other side's (one
/// op wanders by a few percent on a shared machine).
pub fn litho(
    flow: &LithoFlow,
    clip: &MaskClip,
    window: &std::collections::BTreeMap<&'static str, trace::NameStat>,
) -> Vec<Metric> {
    trace::set_enabled(true);
    for pair in 0..2 {
        whole_run(flow, clip, pair);
        staged_run(flow, clip, pair);
    }
    trace::set_enabled(false);
    let mut staged = trace::by_name(&trace::drain());
    for (name, w) in window {
        let s = staged.entry(name).or_default();
        s.count += w.count;
        s.total_ns += w.total_ns;
        s.self_ns += w.self_ns;
    }
    let staged = &staged;
    let whole_ms = trace::mean_ms(staged, "litho.run_whole");
    let stage = |n: &str| trace::mean_ms(staged, n);
    let stages: f64 = [
        "litho.optics",
        "litho.dill",
        "litho.peb",
        "litho.mack",
        "litho.eikonal",
        "litho.metrology",
    ]
    .iter()
    .map(|n| stage(n))
    .sum();
    let steps = (flow.peb.duration / flow.peb.dt).round() as f64;
    let short_bake = PebParams {
        duration: flow.peb.duration / 10.0,
        ..flow.peb
    };
    let acid0 = Tensor::full(&flow.grid.shape3(), 0.3);
    let bake = || {
        PebSolver::new(short_bake, flow.grid, flow.scheme)
            .and_then(|s| s.run(&acid0))
            .expect("short bake")
    };
    let two = time_ms(bake);
    let one = peb_par::with_thread_count(1, || time_ms(bake));
    let plane = Tensor::full(&flow.grid.shape2(), 0.5);
    let kernel = Tensor::full(
        &flow.grid.shape2(),
        1.0 / flow.grid.shape2().iter().product::<usize>() as f32,
    );
    vec![
        metric("litho.optics_ms", stage("litho.optics"), "ms"),
        metric("litho.dill_ms", stage("litho.dill"), "ms"),
        metric("litho.peb_ms", stage("litho.peb"), "ms"),
        metric("litho.mack_ms", stage("litho.mack"), "ms"),
        metric("litho.eikonal_ms", stage("litho.eikonal"), "ms"),
        metric("litho.metrology_ms", stage("litho.metrology"), "ms"),
        metric("litho.coverage", stages / whole_ms, "ratio"),
        metric(
            "litho.peb_mvoxel_steps_per_s",
            flow.grid.voxels() as f64 * steps / (stage("litho.peb") * 1e-3).max(1e-12) / 1e6,
            "Mvoxel/s",
        ),
        metric("par.peb_speedup_2t", one / two, "ratio"),
        metric(
            "fft.conv2d_ms",
            time_ms(|| peb_fft::convolve2d_periodic(&plane, &kernel).expect("power-of-two plane")),
            "ms",
        ),
    ]
}

// ---------------------------------------------------------------------------
// Serving hops: nested paths around the same clips.
// ---------------------------------------------------------------------------

const HOP_CLIPS: u64 = 40;
const HOP_WARMUP_CLIPS: u64 = 5;

fn timed_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    ms(t.elapsed())
}

/// The nested serving paths, `predict` → `EngineHandle::infer` →
/// `Client::infer` → (with `fleet`) `Client::infer` through the router,
/// all at the servers' one compute thread and one request at a time.
/// Each path wraps the previous one, and every clip goes down all of
/// them back to back, so the median of the per-clip *differences* is a
/// hop's cost with the machine's slow drift cancelled. Also the codec
/// pieces of the HTTP hop, timed alone.
pub fn serve_hops(
    cfg: &ServeConfig,
    model: &SdmPeb,
    seed: u64,
    fleet: Option<&peb_fleet::Fleet>,
) -> Result<Vec<Metric>, String> {
    let dims = cfg.grid;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..cfg.clone()
    })
    .map_err(|e| format!("hop probe server: {e}"))?;
    let handle = server.handle().clone();
    let mut direct = Client::connect(server.addr()).map_err(|e| format!("hop probe: {e}"))?;
    let mut routed = fleet
        .map(|f| Client::connect(f.addr()).map_err(|e| format!("router probe: {e}")))
        .transpose()?;
    let (mut engine_hop, mut http_hop, mut router_hop) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..HOP_CLIPS + HOP_WARMUP_CLIPS {
        let c = blob_clip(dims, seed, (1 << 62) | i);
        let predict = peb_par::with_thread_count(1, || {
            timed_ms(|| {
                std::hint::black_box(model.predict(&c));
            })
        });
        let engine = timed_ms(|| {
            std::hint::black_box(handle.infer(c.clone()).expect("engine infer"));
        });
        let client = timed_ms(|| {
            std::hint::black_box(direct.infer(&c).expect("client infer"));
        });
        let via_router = routed.as_mut().map(|r| {
            timed_ms(|| {
                std::hint::black_box(r.infer(&c).expect("routed infer"));
            })
        });
        if i >= HOP_WARMUP_CLIPS {
            engine_hop.push(engine - predict);
            http_hop.push(client - engine);
            router_hop.extend(via_router.map(|r| r - client));
        }
    }
    drop(direct);
    server.shutdown();

    let sample = blob_clip(dims, seed, 1 << 62);
    let frame = clip::encode_clip(&sample);
    let resp = clip::encode_resp(&sample);
    let mut request = format!(
        "POST /infer HTTP/1.1\r\nhost: peb-serve\r\ncontent-length: {}\r\n\r\n",
        frame.len()
    )
    .into_bytes();
    request.extend_from_slice(&frame);
    let max_body = cfg.max_body_bytes();
    let mut out = vec![
        metric("serve.engine_hop_ms", median(&engine_hop), "ms"),
        metric("serve.http_hop_ms", median(&http_hop), "ms"),
        metric(
            "serve.encode_clip_us",
            time_us(50, || clip::encode_clip(&sample)),
            "us",
        ),
        metric(
            "serve.decode_resp_us",
            time_us(50, || clip::decode_resp(&resp).expect("own frame decodes")),
            "us",
        ),
        metric(
            "serve.parse_request_us",
            time_us(50, || {
                let mut p = RequestParser::with_max_body(max_body);
                p.feed(&request);
                p.poll().expect("well-formed request")
            }),
            "us",
        ),
        metric(
            "serve.crc_us",
            time_us(50, || {
                clip::resp_integrity_ok(&resp).expect("own frame is intact")
            }),
            "us",
        ),
    ];
    if let Some(fleet) = fleet {
        let ring = fleet.ring();
        out.extend([
            metric("fleet.router_hop_ms", median(&router_hop), "ms"),
            metric(
                "fleet.hash_us",
                time_us(50, || ring.owner(peb_fleet::clip_digest(&frame))),
                "us",
            ),
        ]);
    }
    Ok(out)
}
