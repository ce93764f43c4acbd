//! Determinism of the SIMD dispatch layer across levels and threads.
//!
//! The `peb-simd` contract has two halves:
//!
//! * for a **fixed dispatch level**, every kernel — and therefore the
//!   whole pipeline — is bitwise identical across runs and across
//!   `PEB_THREADS`;
//! * the **bit-exact kernel class** (ADI line solves, explicit stencil,
//!   elementwise arithmetic, optimiser updates) reproduces the scalar
//!   level on the AVX2+FMA level to the bit, so the physics solver does
//!   not depend on `PEB_SIMD` at all. Tolerance-class kernels (GEMM,
//!   scan, `exp`) may differ across levels by bounded amounts.
//!
//! Each case runs under its own `ExecCtx`, so the tests share no state.

use peb_litho::{Grid, MaskConfig, PebParams, PebSolver, TimeScheme};
use peb_par::ctx::{self, at_level, levels, ExecCtx};
use peb_simd::Level;
use peb_tensor::{check_gradients, Tensor, Var};
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

/// One full training step on the micro pipeline: litho chain, SDM-PEB
/// forward, Eq. 22 loss, backward, Adam update.
fn full_pipeline_step() -> (Tensor, Tensor) {
    use peb_litho::LithoFlow;
    use peb_nn::{Adam, Optimizer, Parameterized as _};
    use sdm_peb::{LabelTransform, PebLoss, PebPredictor, SdmPeb, SdmPebConfig};

    let grid = Grid::new(16, 16, 4, 8.0, 8.0, 20.0).unwrap();
    let clip = MaskConfig::demo(grid.nx).generate(7).unwrap();
    let sim = LithoFlow::new(grid).run(&clip).unwrap();
    let label = LabelTransform::paper().encode(&sim.inhibitor);
    let mut rng = StdRng::seed_from_u64(2007);
    let model = SdmPeb::new(SdmPebConfig::tiny((grid.nz, grid.ny, grid.nx)), &mut rng);
    let params = model.parameters();
    params.iter().for_each(|p| p.zero_grad());
    let pred = model.forward_train(&sim.acid0);
    PebLoss::paper().combined(&pred, &label).backward();
    Adam::new(1e-3).step(&params);
    (pred.value_clone(), params[0].value_clone())
}

#[test]
fn pipeline_is_bitwise_deterministic_across_threads_at_every_level() {
    // The acceptance gate: with SIMD on, 1 and 4 threads must still
    // agree to the bit (and likewise with SIMD forced off).
    for level in levels() {
        let at = |threads| {
            at_level(level, || {
                peb_par::with_thread_count(threads, full_pipeline_step)
            })
        };
        let ((pred1, param1), (pred4, param4)) = (at(1), at(4));
        let name = level.name();
        assert_bits_eq(
            &pred1,
            &pred4,
            &format!("[{name}] prediction 1 vs 4 threads"),
        );
        assert_bits_eq(
            &param1,
            &param4,
            &format!("[{name}] parameter 1 vs 4 threads"),
        );
    }
}

/// Bit digests of [`full_pipeline_step`] at `level` and `threads`.
fn digests_at(level: Level, threads: usize) -> (u64, u64) {
    let (pred, param) = at_level(level, || {
        peb_par::with_thread_count(threads, full_pipeline_step)
    });
    (pred.bit_digest(), param.bit_digest())
}

/// ROADMAP item 0 as a regression: one thread pins `Scalar` while
/// another pins the best level, concurrently (the full pipeline is
/// level-dependent: optics FFT, Dill `exp`, GEMM). With a process-global
/// level the two clobbered each other and a run mixed levels.
#[test]
fn concurrent_threads_at_different_levels_each_match_their_sequential_digest() {
    let levels = [Level::Scalar, peb_simd::best_level()];
    let sequential = levels.map(|l| digests_at(l, 4));
    let start = std::sync::Barrier::new(levels.len());
    let concurrent = std::thread::scope(|s| {
        let runs = levels.map(|l| {
            let start = &start;
            s.spawn(move || {
                start.wait();
                // Several passes, so the two threads overlap for the
                // whole pipeline whatever their relative speed.
                [(); 3].map(|()| digests_at(l, 4))
            })
        });
        runs.map(|r| r.join().expect("pipeline thread"))
    });
    for ((level, want), got) in levels.iter().zip(sequential).zip(concurrent) {
        assert_eq!(
            got,
            [want; 3],
            "{} run diverged from its own sequential digest",
            level.name()
        );
    }
}

#[test]
fn peb_solver_is_bitwise_identical_across_dispatch_levels() {
    // The PEB physics chain uses only bit-exact kernels (factored
    // tridiagonal solves, the explicit stencil, the reaction half-step
    // with its lane-exact exp), so the *entire solver output* must not
    // depend on PEB_SIMD.
    let grid = Grid::new(16, 16, 6, 4.0, 4.0, 10.0).unwrap();
    // dt below the explicit-Euler stability limit for this grid so both
    // time schemes can run the same configuration.
    let params = PebParams {
        duration: 5.0,
        dt: 0.05,
        ..PebParams::paper()
    };
    let mut rng = StdRng::seed_from_u64(2003);
    let acid0 = Tensor::rand_uniform(&grid.shape3(), 0.0, 1.0, &mut rng);
    for (scheme, scheme_name) in [
        (TimeScheme::ImplicitLod, "implicit"),
        (TimeScheme::ExplicitEuler, "explicit"),
    ] {
        let mut results = Vec::new();
        for level in levels() {
            let solver = PebSolver::new(params, grid, scheme).unwrap();
            let state = at_level(level, || solver.run(&acid0).unwrap());
            results.push((level.name(), state));
        }
        let (_, base) = &results[0];
        for (name, other) in &results[1..] {
            assert_bits_eq(
                &base.acid,
                &other.acid,
                &format!("{scheme_name} acid scalar vs {name}"),
            );
            assert_bits_eq(
                &base.inhibitor,
                &other.inhibitor,
                &format!("{scheme_name} inhibitor scalar vs {name}"),
            );
        }
    }
}

#[test]
fn optimizer_trajectory_is_bitwise_identical_across_dispatch_levels() {
    use peb_nn::{Adam, Optimizer};
    let mut runs = Vec::new();
    for level in levels() {
        runs.push(at_level(level, || {
            let mut rng = StdRng::seed_from_u64(2005);
            let p_adam = Var::parameter(Tensor::randn(&[37], &mut rng));
            let mut adam = Adam::new(1e-2);
            for _ in 0..5 {
                p_adam.zero_grad();
                p_adam.square().sum().backward();
                adam.step(std::slice::from_ref(&p_adam));
            }
            (level.name(), p_adam.value_clone())
        }));
    }
    for (name, adam_p) in &runs[1..] {
        assert_bits_eq(&runs[0].1, adam_p, &format!("Adam params scalar vs {name}"));
    }
}

#[test]
fn model_forward_stays_close_across_dispatch_levels() {
    // GEMM and the scan are tolerance-class, so levels may differ — but
    // only within a tight envelope on a tiny model.
    use sdm_peb::{PebPredictor, SdmPeb, SdmPebConfig};
    let shape = (4usize, 12usize, 12usize);
    let mut outputs = Vec::new();
    for level in levels() {
        let mut rng = StdRng::seed_from_u64(2009);
        let model = SdmPeb::new(SdmPebConfig::tiny(shape), &mut rng);
        let x = Tensor::rand_uniform(&[shape.0, shape.1, shape.2], 0.0, 1.0, &mut rng);
        outputs.push((level.name(), at_level(level, || model.predict(&x))));
    }
    for (name, y) in &outputs[1..] {
        let diff = outputs[0].1.max_abs_diff(y);
        assert!(diff < 1e-3, "forward scalar vs {name}: max abs diff {diff}");
    }
}

#[test]
fn gradcheck_passes_with_simd_on() {
    // Finite-difference gradients for the conv and SDM blocks with the
    // vector kernels active. The scan's backward recomputes exp(Δ·a) with
    // the forward's polynomial lane `exp`, so it differentiates the
    // function the forward computed; the tolerance covers the central
    // difference's truncation and f32 round-off.
    if peb_simd::detected() {
        at_level(Level::Avx2Fma, gradcheck_conv_and_scan);
    }
}

fn gradcheck_conv_and_scan() {
    use peb_mamba::selective_scan;
    use peb_nn::{Conv2d, Parameterized};
    let mut rng = StdRng::seed_from_u64(2011);
    let conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
    let x = Var::parameter(Tensor::randn(&[2, 6, 6], &mut rng));
    let report = check_gradients(&x, |v| conv.forward(v).square().sum(), 1e-2);
    assert!(report.ok(3e-2), "conv2d gradcheck: {}", report.max_rel_err);
    for p in conv.parameters() {
        p.zero_grad();
    }

    let (l, ch, n) = (6usize, 10usize, 3usize);
    let delta = Var::constant(Tensor::rand_uniform(&[l, ch], 0.05, 0.5, &mut rng));
    let a = Var::constant(Tensor::rand_uniform(&[ch, n], -1.5, -0.2, &mut rng));
    let b = Var::constant(Tensor::randn(&[l, n], &mut rng));
    let c = Var::constant(Tensor::randn(&[l, n], &mut rng));
    let d = Var::constant(Tensor::randn(&[ch], &mut rng));
    let u = Var::parameter(Tensor::randn(&[l, ch], &mut rng));
    let report = check_gradients(
        &u,
        |v| selective_scan(v, &delta, &a, &b, &c, &d).square().sum(),
        1e-2,
    );
    assert!(report.ok(3e-2), "scan gradcheck: {}", report.max_rel_err);
}

#[test]
fn simd_dispatch_counter_ticks_on_the_vector_path() {
    if !peb_simd::detected() {
        return;
    }
    peb_obs::set_mode(peb_obs::TraceMode::Summary);
    let before = peb_obs::counter_value(peb_obs::Counter::SimdDispatch);
    at_level(Level::Avx2Fma, || {
        let mut rng = StdRng::seed_from_u64(2013);
        let a = Tensor::randn(&[24, 24], &mut rng);
        let b = Tensor::randn(&[24, 24], &mut rng);
        let _ = a.matmul(&b).unwrap();
        let _ = a.add_t(&b).unwrap();
    });
    let after = peb_obs::counter_value(peb_obs::Counter::SimdDispatch);
    peb_obs::set_mode(peb_obs::TraceMode::Off);
    assert!(
        after > before,
        "simd_dispatch did not advance ({before} -> {after})"
    );
}

#[test]
fn pipeline_is_bitwise_identical_tiled_vs_untiled_at_every_level() {
    // Slab tiling reorders whole-element work only, so it too must be
    // invisible at both dispatch levels.
    for level in levels() {
        let run = |tile_bytes| {
            let scoped = ExecCtx {
                level,
                tile_bytes,
                ..ctx::current()
            };
            ctx::with(scoped, full_pipeline_step)
        };
        let ((pred_tiled, param_tiled), (pred_flat, param_flat)) = (run(1 << 10), run(usize::MAX));
        let name = level.name();
        assert_bits_eq(
            &pred_tiled,
            &pred_flat,
            &format!("[{name}] prediction tile on/off"),
        );
        assert_bits_eq(
            &param_tiled,
            &param_flat,
            &format!("[{name}] parameter tile on/off"),
        );
    }
}
