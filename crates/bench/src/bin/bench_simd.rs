//! Measures the `peb-simd` dispatch layer and emits `BENCH_simd.json`.
//!
//! Five microkernels are timed on both backends through the forced
//! `*_scalar` / `*_simd` entry points — packed GEMM, the selective-scan
//! lane recurrence, the factored ADI line solve in its interleaved and
//! contiguous-row forms, and the PEB reaction half-step — plus the
//! planes-batched conv layers at the 32×128×128 model's shapes (ns/voxel,
//! GFLOP/s and share of the measured FMA peak at 1 and 2 threads) and the
//! end-to-end Table I micro training step (the `BENCH_pool.json`
//! workload) with the dispatch level forced to scalar and to the
//! detected best level. The run asserts the headline acceptance gates:
//! SIMD GEMM at ≥2× scalar GFLOP/s on AVX2 hardware, and bitwise
//! identity of the pipeline across 1 vs 4 threads with SIMD on.

use std::time::Instant;

use peb_litho::{Grid, LithoFlow, MaskConfig};
use peb_nn::{Adam, Optimizer, Parameterized};
use peb_par::ctx::{self, ExecCtx};
use peb_par::UnsafeSlice;
use peb_simd::{elementwise as ew, gemm, reaction, scan, thomas};
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{LabelTransform, PebLoss, PebPredictor, SdmPeb, SdmPebConfig};

const STEPS: usize = 15;
const MODEL_SEED: u64 = 1;

fn pseudo(len: usize, salt: u32, lo: f32, hi: f32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
            lo + (x as f32 / u32::MAX as f32) * (hi - lo)
        })
        .collect()
}

/// Times `reps` calls of `f` and converts `flops_per_call` to GFLOP/s.
fn gflops(reps: usize, flops_per_call: f64, mut f: impl FnMut()) -> f64 {
    // One untimed call warms caches and the page tables.
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    let wall = start.elapsed().as_secs_f64();
    reps as f64 * flops_per_call / wall / 1e9
}

/// Packed GEMM, both backends, on a square problem sized to stress the
/// register tile and the packing loop.
fn bench_gemm() -> (f64, f64) {
    let (m, k, n) = (256usize, 256usize, 256usize);
    let a = pseudo(m * k, 1, -1.0, 1.0);
    let b = pseudo(k * n, 2, -1.0, 1.0);
    let mut out = vec![0f32; m * n];
    let flops = 2.0 * (m * k * n) as f64;
    let scalar = gflops(4, flops, || gemm::gemm_scalar(&a, &b, &mut out, m, k, n));
    let simd = if peb_simd::detected() {
        gflops(16, flops, || {
            gemm::gemm_simd(&a, &b, &mut out, m, k, n);
        })
    } else {
        scalar
    };
    (scalar, simd)
}

/// Selective-scan forward recurrence over full lane groups.
fn bench_scan() -> (f64, f64) {
    let (l, ch, n) = (256usize, 64usize, 16usize);
    let u = pseudo(l * ch, 3, -1.0, 1.0);
    let delta = pseudo(l * ch, 4, 0.05, 0.5);
    let a = pseudo(ch * n, 5, -1.5, -0.2);
    let b = pseudo(l * n, 6, -1.0, 1.0);
    let c = pseudo(l * n, 7, -1.0, 1.0);
    let d = pseudo(ch, 8, -1.0, 1.0);
    let mut y = vec![0f32; l * ch];
    // exp + 2 fma + dot accumulation per (t, state, lane): ~12 flops.
    let flops = 12.0 * (l * ch * n) as f64;
    let mut run = |simd: bool| {
        let ys = UnsafeSlice::new(&mut y);
        let mut apack = Vec::new();
        let mut h = vec![0f32; n * 8];
        for ci0 in (0..ch).step_by(8) {
            scan::pack_a_lanes8(&a, n, ci0, &mut apack);
            h.iter_mut().for_each(|v| *v = 0.0);
            // SAFETY: single-threaded; lane groups are disjoint.
            unsafe {
                if simd {
                    scan::scan_forward_lanes8_simd(
                        &u,
                        &delta,
                        &apack,
                        &b,
                        &c,
                        &d[ci0..],
                        &mut h,
                        &ys,
                        None,
                        l,
                        ch,
                        n,
                        ci0,
                    );
                } else {
                    scan::scan_forward_lanes8_scalar(
                        &u,
                        &delta,
                        &apack,
                        &b,
                        &c,
                        &d[ci0..],
                        &mut h,
                        &ys,
                        None,
                        l,
                        ch,
                        n,
                        ci0,
                    );
                }
            }
        }
    };
    let scalar = gflops(8, flops, || run(false));
    let simd = if peb_simd::detected() {
        gflops(32, flops, || run(true))
    } else {
        scalar
    };
    (scalar, simd)
}

/// Factored tridiagonal line solves in interleaved groups of eight.
fn bench_adi() -> (f64, f64) {
    let n = 64usize; // line length
    let groups = 128usize; // 8 lines each
    let r = 0.37f32;
    let a = vec![-r; n];
    let c = vec![-r; n];
    let mut bdiag = vec![1.0 + 2.0 * r; n];
    bdiag[0] = 1.0 + r;
    bdiag[n - 1] = 1.0 + r;
    let (mut beta, mut gamma) = (Vec::new(), Vec::new());
    thomas::factor_tridiagonal(&a, &bdiag, &c, &mut beta, &mut gamma);
    let field0 = pseudo(n * groups * 8, 9, -1.0, 1.0);
    let mut field = field0.clone();
    // Elimination (5 flops) + back substitution (2 flops) per element.
    let flops = 7.0 * (n * groups * 8) as f64;
    let mut run = |simd: bool| {
        field.copy_from_slice(&field0);
        let slots = UnsafeSlice::new(&mut field);
        for g in 0..groups {
            // SAFETY: single-threaded; groups own disjoint interleaves.
            unsafe {
                if simd {
                    thomas::solve_factored_lines8_simd(
                        &a,
                        &beta,
                        &gamma,
                        &slots,
                        g * n * 8,
                        8,
                        n,
                        0.0,
                        0.0,
                    );
                } else {
                    thomas::solve_factored_lines8_scalar(
                        &a,
                        &beta,
                        &gamma,
                        &slots,
                        g * n * 8,
                        8,
                        n,
                        0.0,
                        0.0,
                    );
                }
            }
        }
    };
    let scalar = gflops(16, flops, || run(false));
    let simd = if peb_simd::detected() {
        gflops(64, flops, || run(true))
    } else {
        scalar
    };
    (scalar, simd)
}

/// Times `reps` calls of `f` over `cells` cells; returns ns per cell.
fn ns_per_cell(reps: usize, cells: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / (reps * cells) as f64
}

/// The two bake kernels on the `rigorous_cd` volume (64×64×16): the
/// contiguous-row (x-axis) line solve and the reaction half-step, as
/// `[scalar, simd]` ns per cell.
fn bench_bake_kernels() -> ([f64; 2], [f64; 2]) {
    let (nz, ny, nx) = (16usize, 64usize, 64usize);
    let cells = nz * ny * nx;
    let r = 0.37f32;
    let a = vec![-r; nx];
    let mut bdiag = vec![1.0 + 2.0 * r; nx];
    bdiag[0] = 1.0 + r;
    bdiag[nx - 1] = 1.0 + r;
    let (mut beta, mut gamma) = (Vec::new(), Vec::new());
    thomas::factor_tridiagonal(&a, &bdiag, &a, &mut beta, &mut gamma);
    // Solves and half-steps are contractions: the fields stay finite
    // however often they are re-applied in place.
    let mut field = pseudo(cells, 11, 0.0, 1.0);
    let mut scratch = vec![0f32; 8 * nx];
    let mut rows = |simd: bool| {
        for group in field.chunks_exact_mut(8 * nx) {
            if simd {
                thomas::solve_factored_rows8_simd(&a, &beta, &gamma, group, &mut scratch, 0.0, 0.0);
            } else {
                thomas::solve_factored_rows8_scalar(
                    &a,
                    &beta,
                    &gamma,
                    group,
                    &mut scratch,
                    0.0,
                    0.0,
                );
            }
        }
    };
    let rows_s = ns_per_cell(16, cells, || rows(false));
    let rows_v = if peb_simd::detected() {
        ns_per_cell(64, cells, || rows(true))
    } else {
        rows_s
    };

    let mut acid = pseudo(cells, 12, 0.0, 1.0);
    let mut base = pseudo(cells, 13, 0.0, 0.4);
    let mut inhibitor = vec![1.0f32; cells];
    let (kr, kc, dt) = (8.6993f32, 0.9f32, 0.05f32);
    let mut react = |simd: bool| {
        if simd {
            reaction::half_step_simd(&mut acid, &mut base, &mut inhibitor, kr, kc, dt);
        } else {
            reaction::half_step_scalar(&mut acid, &mut base, &mut inhibitor, kr, kc, dt);
        }
    };
    let react_s = ns_per_cell(16, cells, || react(false));
    let react_v = if peb_simd::detected() {
        ns_per_cell(64, cells, || react(true))
    } else {
        react_s
    };
    ([rows_s, rows_v], [react_s, react_v])
}

/// Elementwise axpy on a large buffer (bandwidth-bound reference point).
fn bench_axpy() -> (f64, f64) {
    let len = 1 << 16;
    let x = pseudo(len, 10, -1.0, 1.0);
    let mut y = vec![0f32; len];
    let flops = 2.0 * len as f64;
    let scalar = gflops(256, flops, || ew::vaxpy_scalar_backend(&mut y, 0.5, &x));
    let simd = if peb_simd::detected() {
        gflops(1024, flops, || {
            ew::vaxpy_simd_backend(&mut y, 0.5, &x);
        })
    } else {
        scalar
    };
    (scalar, simd)
}

/// GFLOP/s of a dependency-free FMA loop on one core (ten 8-lane
/// accumulator chains: bound by issue rate, not latency); 0 without
/// AVX2+FMA, where the vector level does not exist.
fn fma_peak_gflops() -> f64 {
    #[cfg(target_arch = "x86_64")]
    if peb_simd::detected() {
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fma_loop(iters: u64) -> f32 {
            use std::arch::x86_64::*;
            let (a, b) = (_mm256_set1_ps(0.999_999), _mm256_set1_ps(1e-7));
            let mut acc = [_mm256_set1_ps(1.0); 10];
            for _ in 0..iters {
                for r in &mut acc {
                    *r = _mm256_fmadd_ps(*r, a, b);
                }
            }
            let sum = acc.into_iter().reduce(|s, r| _mm256_add_ps(s, r));
            let mut lanes = [0f32; 8];
            // SAFETY: `lanes` holds exactly the eight lanes stored.
            unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sum.expect("ten chains")) };
            lanes.iter().sum()
        }
        const ITERS: u64 = 10_000_000;
        let flops = (ITERS * 10 * 8 * 2) as f64;
        // SAFETY: `detected()` is the runtime check for AVX2 and FMA.
        return gflops(2, flops, || unsafe {
            std::hint::black_box(fma_loop(std::hint::black_box(ITERS)));
        });
    }
    0.0
}

/// One row of the planes-batched conv table: a layer pass at a
/// 32×128×128-model shape, at one thread count.
struct ConvRow {
    name: &'static str,
    threads: usize,
    /// Per output element of the pass (forward: the layer's output;
    /// backward: its input gradient).
    ns_per_voxel: f64,
    gflops: f64,
    /// `gflops` over `threads ×` the one-core FMA peak.
    peak_share: f64,
}

/// Forward and backward of the three planes-batched conv families at
/// the shapes the 32×128×128 model gives them — the decoder's last
/// up-sampling layer on eight depth planes, the stage-1 patch embedding and
/// the stem — at 1 and 2 threads.
fn bench_conv_planes(fma_peak: f64) -> Vec<ConvRow> {
    use peb_nn::{Conv2d, ConvTranspose2d, DwConv3d};
    use peb_tensor::Var;
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let up = ConvTranspose2d::new(16, 8, 4, 2, 1, &mut rng);
    let embed = Conv2d::new(1, 12, 7, 4, 3, true, &mut rng);
    let stem = DwConv3d::new(1, 3, &mut rng);
    type Layer<'a> = (&'static str, &'static str, Box<dyn Fn(&Var) -> Var + 'a>);
    // (names, forward, input shape, multiply-adds per pass)
    let cases: [(Layer, [usize; 4], usize); 3] = [
        (
            (
                "convt2_planes_fwd",
                "convt2_planes_bwd",
                Box::new(|x| up.forward(x)),
            ),
            [16, 8, 64, 64],
            16 * 8 * 16 * 8 * 64 * 64,
        ),
        (
            (
                "conv2d_planes_fwd",
                "conv2d_planes_bwd",
                Box::new(|x| embed.forward(x)),
            ),
            [1, 32, 128, 128],
            12 * 49 * 32 * 32 * 32,
        ),
        (
            (
                "dw3_rows_fwd",
                "dw3_rows_bwd",
                Box::new(|x| stem.forward(x)),
            ),
            [1, 32, 128, 128],
            27 * 32 * 128 * 128,
        ),
    ];
    let mut rows = Vec::new();
    for ((fwd_name, bwd_name, forward), shape, macs) in &cases {
        let x = Var::constant(Tensor::randn(shape, &mut rng));
        for threads in [1usize, 2] {
            let mut row = |name, voxels: usize, flops: f64, f: &mut dyn FnMut()| {
                let gf = peb_par::with_thread_count(threads, || gflops(6, flops, f));
                rows.push(ConvRow {
                    name,
                    threads,
                    ns_per_voxel: flops / gf / voxels as f64,
                    gflops: gf,
                    peak_share: if fma_peak > 0.0 {
                        gf / (threads as f64 * fma_peak)
                    } else {
                        0.0
                    },
                });
            };
            let y = forward(&x);
            let seed = Tensor::ones(&y.shape());
            row(fwd_name, seed.len(), 2.0 * *macs as f64, &mut || {
                std::hint::black_box(peb_tensor::no_grad(|| forward(&x)));
            });
            // dX and dW: twice the forward's multiply-adds.
            row(bwd_name, x.value().len(), 4.0 * *macs as f64, &mut || {
                y.backward_with(seed.clone());
            });
        }
    }
    rows
}

fn micro_grid() -> Grid {
    Grid::new(16, 16, 4, 8.0, 8.0, 20.0).expect("micro grid")
}

/// One full Table I micro pipeline step (the `BENCH_pool.json` workload).
fn step(grid: Grid, model: &SdmPeb, loss: &PebLoss, opt: &mut Adam) -> Tensor {
    let clip = MaskConfig::demo(grid.nx).generate(1).expect("clip");
    let sim = LithoFlow::new(grid).run(&clip).expect("rigorous chain");
    let label = LabelTransform::paper().encode(&sim.inhibitor);
    let params = model.parameters();
    params.iter().for_each(|p| p.zero_grad());
    let pred = model.forward_train(&sim.acid0);
    loss.combined(&pred, &label).backward();
    opt.step(&params);
    pred.value_clone()
}

/// `STEPS` end-to-end steps at the given dispatch level and thread
/// count; returns `(wall_seconds, final_prediction)`.
fn run_pipeline(level: peb_simd::Level, threads: usize) -> (f64, Tensor) {
    let scoped = ExecCtx {
        level,
        threads,
        ..ctx::current()
    };
    ctx::with(scoped, run_steps)
}

fn run_steps() -> (f64, Tensor) {
    let grid = micro_grid();
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let model = SdmPeb::new(SdmPebConfig::tiny((grid.nz, grid.ny, grid.nx)), &mut rng);
    let loss = PebLoss::paper();
    let mut opt = Adam::new(1e-3);
    let _ = step(grid, &model, &loss, &mut opt);
    let start = Instant::now();
    let mut last = None;
    for _ in 0..STEPS {
        last = Some(step(grid, &model, &loss, &mut opt));
    }
    (start.elapsed().as_secs_f64(), last.expect("step output"))
}

fn bits_identical(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn main() {
    let exec = ctx::init_or_exit();
    let detected = peb_simd::detected();
    let best = peb_simd::best_level();

    let (gemm_s, gemm_v) = bench_gemm();
    let (scan_s, scan_v) = bench_scan();
    let (adi_s, adi_v) = bench_adi();
    let (axpy_s, axpy_v) = bench_axpy();
    let ([rows_s, rows_v], [react_s, react_v]) = bench_bake_kernels();
    // Bytes moved per cell: one field read + written by the row solve,
    // three by the reaction half-step.
    let (rows_bytes, react_bytes) = (8.0, 24.0);

    let fma_peak = fma_peak_gflops();
    let conv_rows = bench_conv_planes(fma_peak);

    let (wall_scalar, _) = run_pipeline(peb_simd::Level::Scalar, 1);
    let (wall_simd, pred1) = run_pipeline(best, 1);
    let (wall_simd4, pred4) = run_pipeline(best, 4);
    let identical_threads = bits_identical(&pred1, &pred4);

    println!("== peb-simd benchmark (dispatch: {}) ==", best.name());
    println!(
        "  GEMM 256³      scalar: {gemm_s:6.2} GFLOP/s   simd: {gemm_v:6.2} GFLOP/s   ({:.2}×)",
        gemm_v / gemm_s
    );
    println!(
        "  scan 256×64×16 scalar: {scan_s:6.2} GFLOP/s   simd: {scan_v:6.2} GFLOP/s   ({:.2}×)",
        scan_v / scan_s
    );
    println!(
        "  ADI 1024×64    scalar: {adi_s:6.2} GFLOP/s   simd: {adi_v:6.2} GFLOP/s   ({:.2}×)",
        adi_v / adi_s
    );
    println!(
        "  axpy 64k       scalar: {axpy_s:6.2} GFLOP/s   simd: {axpy_v:6.2} GFLOP/s   ({:.2}×)",
        axpy_v / axpy_s
    );
    println!(
        "  ADI rows 64×64×16  scalar: {rows_s:5.2} ns/cell ({:5.2} GB/s)   simd: {rows_v:5.2} ns/cell ({:5.2} GB/s)",
        rows_bytes / rows_s,
        rows_bytes / rows_v
    );
    println!(
        "  reaction 64×64×16  scalar: {react_s:5.2} ns/cell ({:5.2} GB/s)   simd: {react_v:5.2} ns/cell ({:5.2} GB/s)",
        react_bytes / react_s,
        react_bytes / react_v
    );
    println!("  FMA peak, one core: {fma_peak:.1} GFLOP/s");
    for r in &conv_rows {
        println!(
            "  {:<18} ×{} threads: {:7.2} ns/voxel  {:6.2} GFLOP/s  ({:.3} of FMA peak)",
            r.name, r.threads, r.ns_per_voxel, r.gflops, r.peak_share
        );
    }
    println!(
        "  table1 step ×{STEPS}: scalar {wall_scalar:.3}s   simd {wall_simd:.3}s   simd ×4 threads {wall_simd4:.3}s"
    );
    println!("  bitwise identical 1 vs 4 threads (simd on): {identical_threads}");

    assert!(
        identical_threads,
        "threading changed the numbers with SIMD on"
    );
    if detected {
        assert!(
            gemm_v >= 2.0 * gemm_s,
            "SIMD GEMM {gemm_v:.2} GFLOP/s is below 2x scalar {gemm_s:.2}"
        );
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": \"peb-simd microkernels + table1 micro train step\",\n",
            "  \"exec\": {},\n",
            "  \"gemm_gflops_scalar\": {:.3},\n",
            "  \"gemm_gflops_simd\": {:.3},\n",
            "  \"gemm_speedup\": {:.3},\n",
            "  \"scan_gflops_scalar\": {:.3},\n",
            "  \"scan_gflops_simd\": {:.3},\n",
            "  \"scan_speedup\": {:.3},\n",
            "  \"adi_gflops_scalar\": {:.3},\n",
            "  \"adi_gflops_simd\": {:.3},\n",
            "  \"adi_speedup\": {:.3},\n",
            "  \"adi_rows_ns_per_cell_scalar\": {:.3},\n",
            "  \"adi_rows_ns_per_cell_simd\": {:.3},\n",
            "  \"adi_rows_gbps_scalar\": {:.3},\n",
            "  \"adi_rows_gbps_simd\": {:.3},\n",
            "  \"reaction_ns_per_cell_scalar\": {:.3},\n",
            "  \"reaction_ns_per_cell_simd\": {:.3},\n",
            "  \"reaction_gbps_scalar\": {:.3},\n",
            "  \"reaction_gbps_simd\": {:.3},\n",
            "  \"axpy_gflops_scalar\": {:.3},\n",
            "  \"axpy_gflops_simd\": {:.3},\n",
            "  \"fma_peak_gflops_one_core\": {:.3},\n",
            "  \"conv_planes\": [{}],\n",
            "  \"steps\": {},\n",
            "  \"wall_seconds_scalar_level\": {:.6},\n",
            "  \"wall_seconds_simd_level\": {:.6},\n",
            "  \"wall_seconds_simd_level_4_threads\": {:.6},\n",
            "  \"end_to_end_speedup\": {:.3},\n",
            "  \"bitwise_identical_1_vs_4_threads\": {}\n",
            "}}\n"
        ),
        exec.to_json(),
        gemm_s,
        gemm_v,
        gemm_v / gemm_s,
        scan_s,
        scan_v,
        scan_v / scan_s,
        adi_s,
        adi_v,
        adi_v / adi_s,
        rows_s,
        rows_v,
        rows_bytes / rows_s,
        rows_bytes / rows_v,
        react_s,
        react_v,
        react_bytes / react_s,
        react_bytes / react_v,
        axpy_s,
        axpy_v,
        fma_peak,
        conv_rows
            .iter()
            .map(|r| format!(
                "\n    {{\"name\": \"{}\", \"threads\": {}, \"ns_per_voxel\": {:.3}, \
                 \"gflops\": {:.3}, \"fma_peak_share\": {:.4}}}",
                r.name, r.threads, r.ns_per_voxel, r.gflops, r.peak_share
            ))
            .collect::<Vec<_>>()
            .join(","),
        STEPS,
        wall_scalar,
        wall_simd,
        wall_simd4,
        wall_scalar / wall_simd,
        identical_threads,
    );
    std::fs::write("BENCH_simd.json", &json).expect("write BENCH_simd.json");
    println!("  wrote BENCH_simd.json");
}
