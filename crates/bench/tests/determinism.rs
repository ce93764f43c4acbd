//! Bitwise determinism of every parallelised hot path.
//!
//! The `peb-par` contract: work is split at fixed, thread-count-independent
//! chunk boundaries and cross-chunk reductions combine in ascending chunk
//! order, so `PEB_THREADS=1` and `PEB_THREADS=4` must produce *identical
//! bits* — not merely close values. These tests drive each parallel kernel
//! at both thread counts through `peb_par::with_thread_count` and compare
//! exact bit patterns.
//!
//! These tests run at the process-default `PEB_SIMD` dispatch level —
//! the AVX2+FMA vector path on supporting hardware — so they pin the
//! thread-count contract *with SIMD on*. Cross-level checks (scalar vs
//! vector) live in `simd_determinism.rs`.

use peb_litho::{
    measure_contact_cds, solve_eikonal, EikonalConfig, Grid, MackParams, MaskConfig, PebParams,
    PebSolver, TimeScheme,
};
use peb_mamba::selective_scan;
use peb_nn::{Conv2d, Parameterized};
use peb_par::ctx::{self, ExecCtx};
use peb_tensor::{Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at flat index {i}: {x} vs {y}"
        );
    }
}

fn at_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    peb_par::with_thread_count(threads, f)
}

#[test]
fn matmul_is_bitwise_deterministic_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(1001);
    let a = Tensor::randn(&[150, 70], &mut rng);
    let b = Tensor::randn(&[70, 90], &mut rng);
    let one = at_threads(1, || a.matmul(&b).unwrap());
    let four = at_threads(4, || a.matmul(&b).unwrap());
    assert_bits_eq(&one, &four, "matmul");
    let ab = Tensor::randn(&[3, 20, 16], &mut rng);
    let bb = Tensor::randn(&[3, 16, 24], &mut rng);
    let one = at_threads(1, || ab.bmm(&bb).unwrap());
    let four = at_threads(4, || ab.bmm(&bb).unwrap());
    assert_bits_eq(&one, &four, "bmm");
}

#[test]
fn conv_forward_and_backward_are_bitwise_deterministic() {
    let mut rng = StdRng::seed_from_u64(1002);
    let conv = Conv2d::new(4, 6, 3, 1, 1, true, &mut rng);
    let x0 = Tensor::randn(&[4, 16, 16], &mut rng);
    let run = || {
        let x = Var::parameter(x0.clone());
        let y = conv.forward(&x);
        conv.parameters().iter().for_each(|p| p.zero_grad());
        y.square().sum().backward();
        (y.value_clone(), x.grad().unwrap())
    };
    let (y1, g1) = at_threads(1, run);
    let (y4, g4) = at_threads(4, run);
    assert_bits_eq(&y1, &y4, "conv2d forward");
    assert_bits_eq(&g1, &g4, "conv2d input grad");
}

#[test]
fn peb_adi_step_is_bitwise_deterministic() {
    let grid = Grid::new(16, 16, 6, 4.0, 4.0, 10.0).unwrap();
    let params = PebParams {
        duration: 5.0,
        ..PebParams::paper()
    };
    let solver = PebSolver::new(params, grid, TimeScheme::ImplicitLod).unwrap();
    let mut rng = StdRng::seed_from_u64(1003);
    let acid0 = Tensor::rand_uniform(&grid.shape3(), 0.0, 1.0, &mut rng);
    let one = at_threads(1, || solver.run(&acid0).unwrap());
    let four = at_threads(4, || solver.run(&acid0).unwrap());
    assert_bits_eq(&one.acid, &four.acid, "PEB acid");
    assert_bits_eq(&one.inhibitor, &four.inhibitor, "PEB inhibitor");
}

#[test]
fn selective_scan_is_bitwise_deterministic() {
    let (l, ch, n) = (24usize, 10usize, 4usize);
    let mut rng = StdRng::seed_from_u64(1004);
    let u0 = Tensor::randn(&[l, ch], &mut rng);
    let delta = Var::constant(Tensor::rand_uniform(&[l, ch], 0.05, 0.5, &mut rng));
    let a = Var::constant(Tensor::rand_uniform(&[ch, n], -1.5, -0.2, &mut rng));
    let b = Var::constant(Tensor::randn(&[l, n], &mut rng));
    let c = Var::constant(Tensor::randn(&[l, n], &mut rng));
    let d = Var::constant(Tensor::randn(&[ch], &mut rng));
    let run = || {
        let u = Var::parameter(u0.clone());
        let y = selective_scan(&u, &delta, &a, &b, &c, &d);
        y.square().sum().backward();
        (y.value_clone(), u.grad().unwrap())
    };
    let (y1, g1) = at_threads(1, run);
    let (y4, g4) = at_threads(4, run);
    assert_bits_eq(&y1, &y4, "selective_scan forward");
    assert_bits_eq(&g1, &g4, "selective_scan input grad");
}

#[test]
fn eikonal_and_metrology_are_bitwise_deterministic() {
    // Development + CD extraction must close the determinism contract
    // end to end: inhibitor → Mack rate → eikonal arrival → contact CDs.
    let grid = Grid::small();
    let clip = MaskConfig::demo(grid.nx).generate(42).unwrap();
    let mut rng = StdRng::seed_from_u64(1006);
    let inhibitor = Tensor::rand_uniform(&grid.shape3(), 0.05, 1.0, &mut rng);
    let mack = MackParams::paper();
    let run = || {
        let rate = mack.rate_field(&inhibitor);
        let arrival = solve_eikonal(&grid, &rate, EikonalConfig::default()).unwrap();
        let cds = measure_contact_cds(&grid, &arrival, 30.0, &clip.contacts, grid.nz - 1).unwrap();
        (arrival, cds)
    };
    let (s1, cds1) = at_threads(1, run);
    let (s4, cds4) = at_threads(4, run);
    assert_bits_eq(&s1, &s4, "eikonal arrival");
    assert_eq!(cds1.len(), cds4.len(), "contact count");
    assert!(!cds1.is_empty(), "demo clip produced no contacts");
    for (i, (a, b)) in cds1.iter().zip(&cds4).enumerate() {
        assert_eq!(
            a.cd_x_nm.to_bits(),
            b.cd_x_nm.to_bits(),
            "contact {i} cd_x: {} vs {}",
            a.cd_x_nm,
            b.cd_x_nm
        );
        assert_eq!(
            a.cd_y_nm.to_bits(),
            b.cd_y_nm.to_bits(),
            "contact {i} cd_y: {} vs {}",
            a.cd_y_nm,
            b.cd_y_nm
        );
        assert_eq!(a.open, b.open, "contact {i} open flag");
        assert_eq!(a.centre, b.centre, "contact {i} centre");
    }
}

/// One full training step on the micro pipeline: rigorous litho chain,
/// SDM-PEB forward, Eq. 22 loss, backward, Adam update. Returns the
/// prediction and one representative parameter after the update.
fn full_pipeline_step() -> (Tensor, Tensor) {
    use peb_litho::LithoFlow;
    use peb_nn::{Adam, Optimizer};
    use sdm_peb::{LabelTransform, PebLoss, PebPredictor, SdmPeb, SdmPebConfig};

    let grid = Grid::new(16, 16, 4, 8.0, 8.0, 20.0).unwrap();
    let clip = MaskConfig::demo(grid.nx).generate(7).unwrap();
    let sim = LithoFlow::new(grid).run(&clip).unwrap();
    let label = LabelTransform::paper().encode(&sim.inhibitor);
    let mut rng = StdRng::seed_from_u64(1007);
    let model = SdmPeb::new(SdmPebConfig::tiny((grid.nz, grid.ny, grid.nx)), &mut rng);
    let params = model.parameters();
    params.iter().for_each(|p| p.zero_grad());
    let pred = model.forward_train(&sim.acid0);
    PebLoss::paper().combined(&pred, &label).backward();
    Adam::new(1e-3).step(&params);
    (pred.value_clone(), params[0].value_clone())
}

/// [`full_pipeline_step`] under `scoped` at the given thread count.
fn step_under(scoped: ExecCtx, threads: usize) -> (Tensor, Tensor) {
    ctx::with(ExecCtx { threads, ..scoped }, full_pipeline_step)
}

/// Largest pooled `f32` buffer, as a power of two: `peb_pool`'s last
/// bucket holds buffers of `2^26` elements.
const LARGEST_BUCKET: u32 = 26;

/// Empties every `f32` bucket of this thread's pool, fills each buffer
/// it held to capacity with NaN, and returns them all.
fn poison_f32_pool() {
    let mut drained = Vec::new();
    for b in 0..=LARGEST_BUCKET {
        loop {
            let (v, fresh) = peb_pool::take_cleared::<f32>(1 << b);
            if fresh {
                break;
            }
            drained.push(v);
        }
    }
    assert!(!drained.is_empty(), "the first step left nothing pooled");
    for mut v in drained {
        v.resize(v.capacity(), f32::NAN);
        peb_pool::recycle(v);
    }
}

#[test]
fn full_pipeline_is_bitwise_identical_on_a_cold_and_a_poisoned_pool() {
    // Every checkout is zeroed or empty, so nothing a recycled buffer
    // held may reach a result. A fresh thread starts with a cold pool;
    // the second step runs on buffers that all hold NaN.
    std::thread::spawn(|| {
        let cold = step_under(ctx::current(), 1);
        poison_f32_pool();
        let poisoned = step_under(ctx::current(), 1);
        assert_bits_eq(
            &cold.0,
            &poisoned.0,
            "pipeline prediction (cold/poisoned pool)",
        );
        assert_bits_eq(
            &cold.1,
            &poisoned.1,
            "updated parameter (cold/poisoned pool)",
        );
    })
    .join()
    .expect("pipeline thread");
}

#[test]
fn full_pipeline_is_bitwise_deterministic_across_thread_counts() {
    let (pred1, param1) = at_threads(1, full_pipeline_step);
    let (pred4, param4) = at_threads(4, full_pipeline_step);
    assert_bits_eq(&pred1, &pred4, "pipeline prediction (1 vs 4 threads)");
    assert_bits_eq(&param1, &param4, "updated parameter (1 vs 4 threads)");
}

#[test]
fn full_pipeline_is_bitwise_identical_tiled_vs_untiled() {
    // Slab tiling reorders whole-element units of work into cache-sized
    // slabs (the transposed-conv bands, the decoder's depth slabs); it
    // must never change a bit, at any thread count. `usize::MAX` makes
    // every volume one slab.
    let tiled = |tile_bytes| ExecCtx {
        tile_bytes,
        ..ctx::current()
    };
    // Small enough that even the 16×16×4 micro volume splits into slabs.
    let (pred_tiled_1t, param_tiled) = step_under(tiled(1 << 10), 1);
    let (pred_tiled_4t, _) = step_under(tiled(1 << 10), 4);
    let (pred_flat_1t, param_flat) = step_under(tiled(usize::MAX), 1);
    let (pred_flat_4t, _) = step_under(tiled(usize::MAX), 4);
    assert_bits_eq(
        &pred_tiled_1t,
        &pred_flat_1t,
        "pipeline prediction (tile on/off)",
    );
    assert_bits_eq(&param_tiled, &param_flat, "updated parameter (tile on/off)");
    assert_bits_eq(
        &pred_tiled_1t,
        &pred_tiled_4t,
        "tiled prediction (1 vs 4 threads)",
    );
    assert_bits_eq(
        &pred_flat_1t,
        &pred_flat_4t,
        "untiled prediction (1 vs 4 threads)",
    );
}

#[test]
fn gradients_check_with_fusion_on() {
    // The fused backward sweeps (exp / sigmoid / square) must still match
    // finite differences.
    let mut rng = StdRng::seed_from_u64(1008);
    let x0 = Tensor::randn(&[12], &mut rng).mul_scalar(0.5);
    let report = peb_tensor::check_gradients(
        &Var::parameter(x0),
        |v| v.sigmoid().mul(&v.exp()).square().sum(),
        1e-2,
    );
    assert!(report.ok(2e-2), "fused-chain gradcheck: {report:?}");
}

#[test]
fn fft_is_bitwise_deterministic() {
    let mut rng = StdRng::seed_from_u64(1005);
    let f = peb_fft::ComplexField::from_real(&Tensor::randn(&[32, 32], &mut rng));
    let one = at_threads(1, || peb_fft::fft2d(&f).unwrap());
    let four = at_threads(4, || peb_fft::fft2d(&f).unwrap());
    for (i, (x, y)) in one.data().iter().zip(four.data()).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "fft2d re at {i}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "fft2d im at {i}");
    }
}
