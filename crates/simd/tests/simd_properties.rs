//! Property suite pinning the peb-simd determinism contract.
//!
//! Two claims from the crate docs are exercised over randomized inputs:
//!
//! * **bit-exact kernels** (elementwise arithmetic, axpy, optimiser
//!   updates, factored tridiagonal line solves, the reaction half-step
//!   with its exact `exp`) reproduce the scalar
//!   backend *to the bit* on the SIMD backend;
//! * **tolerance kernels** (GEMM, the scan recurrence, `exp`/`sigmoid`)
//!   stay within a fixed ULP/absolute envelope of the scalar backend.
//!
//! All tests drive the forced `*_scalar` / `*_simd` backend variants, so
//! they do not depend on the dispatch level. On hardware without AVX2+FMA
//! the forced SIMD variants return `false` and each comparison
//! degenerates to scalar-vs-scalar, which is vacuously bit-exact.

use peb_par::UnsafeSlice;
use peb_simd::{elementwise as ew, gemm, optim, reaction, scan, thomas, ulp_diff};
use proptest::prelude::*;
use proptest::prop::collection::vec as pvec;

/// Hybrid closeness for accumulation kernels: a tight ULP bound away
/// from zero, an absolute bound where cancellation makes ULPs
/// meaningless.
fn close(want: f32, got: f32, ulps: u32, abs: f32) -> bool {
    ulp_diff(want, got) <= ulps || (want - got).abs() <= abs
}

fn assert_bits(want: &[f32], got: &[f32], what: &str) -> Result<(), TestCaseError> {
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        prop_assert_eq!(w.to_bits(), g.to_bits(), "{}[{}]: {} vs {}", what, i, w, g);
    }
    Ok(())
}

fn values(len: usize) -> impl Strategy<Value = Vec<f32>> {
    pvec(-4.0f32..4.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // -- GEMM (tolerance class: FMA + per-panel reassociation) ----------

    #[test]
    fn gemm_simd_tracks_scalar_within_ulps(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..24,
        seed in 0u32..1000,
    ) {
        let a = pseudo(m * k, seed, -2.0, 2.0);
        let b = pseudo(k * n, seed.wrapping_add(1), -2.0, 2.0);
        let mut scalar = vec![0f32; m * n];
        let mut simd = vec![0f32; m * n];
        gemm::gemm_scalar(&a, &b, &mut scalar, m, k, n);
        if gemm::gemm_simd(&a, &b, &mut simd, m, k, n) {
            // k additions of |ab| ≤ 4 bound the cancellation floor.
            let abs = k as f32 * 1e-5;
            for (i, (w, g)) in scalar.iter().zip(&simd).enumerate() {
                prop_assert!(
                    close(*w, *g, 256, abs),
                    "out[{}]: scalar {} vs simd {} ({} ulp)",
                    i, w, g, ulp_diff(*w, *g)
                );
            }
        }
    }

    // -- Elementwise (bit-exact class) ----------------------------------

    #[test]
    fn elementwise_binops_are_bitwise_identical_across_backends(
        len in 0usize..67,
        seed in 0u32..1000,
    ) {
        let a = pseudo(len, seed, -3.0, 3.0);
        // Keep divisors away from zero so ÷ stays finite.
        let b: Vec<f32> = pseudo(len, seed.wrapping_add(1), 0.5, 3.5);
        let mut scalar = vec![0f32; len];
        let mut simd = vec![0f32; len];
        type Pair = (fn(&[f32], &[f32], &mut [f32]), fn(&[f32], &[f32], &mut [f32]) -> bool, &'static str);
        let kernels: [Pair; 4] = [
            (ew::vadd_scalar_backend, ew::vadd_simd_backend, "vadd"),
            (ew::vsub_scalar_backend, ew::vsub_simd_backend, "vsub"),
            (ew::vmul_scalar_backend, ew::vmul_simd_backend, "vmul"),
            (ew::vdiv_scalar_backend, ew::vdiv_simd_backend, "vdiv"),
        ];
        for (scalar_k, simd_k, name) in kernels {
            scalar_k(&a, &b, &mut scalar);
            if simd_k(&a, &b, &mut simd) {
                assert_bits(&scalar, &simd, name)?;
            }
        }
    }

    #[test]
    fn axpy_scale_and_sqrt_are_bitwise_identical_across_backends(
        x in values(51),
        alpha in -2.0f32..2.0,
    ) {
        let y0 = pseudo(x.len(), 7, -1.0, 1.0);
        let mut ys = y0.clone();
        let mut yv = y0.clone();
        ew::vaxpy_scalar_backend(&mut ys, alpha, &x);
        if ew::vaxpy_simd_backend(&mut yv, alpha, &x) {
            assert_bits(&ys, &yv, "vaxpy")?;
        }
        let (mut ys, mut yv) = (y0.clone(), y0.clone());
        ew::vadd_assign_scalar_backend(&mut ys, &x);
        if ew::vadd_assign_simd_backend(&mut yv, &x) {
            assert_bits(&ys, &yv, "vadd_assign")?;
        }
        let mut scalar = vec![0f32; x.len()];
        let mut simd = vec![0f32; x.len()];
        ew::vmul_scalar_scalar_backend(&x, alpha, &mut scalar);
        if ew::vmul_scalar_simd_backend(&x, alpha, &mut simd) {
            assert_bits(&scalar, &simd, "vmul_scalar")?;
        }
        ew::vadd_scalar_scalar_backend(&x, alpha, &mut scalar);
        if ew::vadd_scalar_simd_backend(&x, alpha, &mut simd) {
            assert_bits(&scalar, &simd, "vadd_scalar")?;
        }
        let absx: Vec<f32> = x.iter().map(|v| v.abs()).collect();
        ew::vsqrt_scalar_backend(&absx, &mut scalar);
        if ew::vsqrt_simd_backend(&absx, &mut simd) {
            assert_bits(&scalar, &simd, "vsqrt")?;
        }
    }

    #[test]
    fn exp_and_sigmoid_stay_within_ulp_envelope(x in values(40)) {
        let mut scalar = vec![0f32; x.len()];
        let mut simd = vec![0f32; x.len()];
        ew::vexp_scalar_backend(&x, &mut scalar);
        if ew::vexp_simd_backend(&x, &mut simd) {
            for (i, (w, g)) in scalar.iter().zip(&simd).enumerate() {
                prop_assert!(
                    ulp_diff(*w, *g) <= 16,
                    "vexp[{}]({}): {} vs {} ({} ulp)",
                    i, x[i], w, g, ulp_diff(*w, *g)
                );
            }
        }
        ew::vsigmoid_scalar_backend(&x, &mut scalar);
        if ew::vsigmoid_simd_backend(&x, &mut simd) {
            for (i, (w, g)) in scalar.iter().zip(&simd).enumerate() {
                prop_assert!(
                    close(*w, *g, 32, 1e-6),
                    "vsigmoid[{}]({}): {} vs {} ({} ulp)",
                    i, x[i], w, g, ulp_diff(*w, *g)
                );
            }
        }
    }

    // -- Optimiser updates (bit-exact class) ----------------------------

    #[test]
    fn adam_and_sgd_steps_match_scalar_reference_bitwise(
        len in 1usize..70,
        seed in 0u32..1000,
        step in 1u32..50,
    ) {
        // The dispatched entries take the process-default backend
        // (SIMD on AVX2 hardware); the scalar loops below are the
        // original peb-nn expressions, so this pins SIMD == scalar bits.
        let grad = pseudo(len, seed, -1.0, 1.0);
        let (b1, b2, eps, lr) = (0.9f32, 0.999f32, 1e-8f32, 2e-3f32);
        let inv_bc1 = 1.0 / (1.0 - b1.powi(step as i32));
        let inv_bc2 = 1.0 / (1.0 - b2.powi(step as i32));
        let mut m = pseudo(len, seed.wrapping_add(1), -0.5, 0.5);
        let mut v = pseudo(len, seed.wrapping_add(2), 0.0, 0.5);
        let mut p = pseudo(len, seed.wrapping_add(3), -1.0, 1.0);
        let (mut mr, mut vr, mut pr) = (m.clone(), v.clone(), p.clone());
        for j in 0..len {
            let g = grad[j];
            mr[j] = mr[j] * b1 + g * (1.0 - b1);
            vr[j] = vr[j] * b2 + (g * g) * (1.0 - b2);
            let mhat = mr[j] * inv_bc1;
            let vhat = vr[j] * inv_bc2;
            pr[j] -= mhat / (vhat.sqrt() + eps) * lr;
        }
        optim::adam_moments(&mut m, &mut v, &grad, b1, b2);
        optim::adam_apply(&mut p, &m, &v, inv_bc1, inv_bc2, eps, lr);
        assert_bits(&mr, &m, "adam m")?;
        assert_bits(&vr, &v, "adam v")?;
        assert_bits(&pr, &p, "adam p")?;

        let mut vel = pseudo(len, seed.wrapping_add(4), -1.0, 1.0);
        let mut p = pseudo(len, seed.wrapping_add(5), -1.0, 1.0);
        let (mut velr, mut pr) = (vel.clone(), p.clone());
        for j in 0..len {
            velr[j] = velr[j] * 0.9 + grad[j];
            pr[j] -= velr[j] * lr;
        }
        optim::sgd_momentum(&mut vel, &grad, 0.9);
        optim::sgd_apply(&mut p, &vel, lr);
        assert_bits(&velr, &vel, "sgd vel")?;
        assert_bits(&pr, &p, "sgd p")?;
    }

    // -- Scan lane recurrence (tolerance class) -------------------------

    #[test]
    fn scan_lane_recurrence_tracks_scalar_within_envelope(
        l in 1usize..14,
        n in 1usize..7,
        seed in 0u32..1000,
    ) {
        let ch = 8usize; // one full lane group
        let u = pseudo(l * ch, seed, -1.0, 1.0);
        let delta = pseudo(l * ch, seed.wrapping_add(1), 0.05, 0.5);
        let a = pseudo(ch * n, seed.wrapping_add(2), -1.5, -0.2);
        let b = pseudo(l * n, seed.wrapping_add(3), -1.0, 1.0);
        let c = pseudo(l * n, seed.wrapping_add(4), -1.0, 1.0);
        let d = pseudo(ch, seed.wrapping_add(5), -1.0, 1.0);
        let mut apack = Vec::new();
        scan::pack_a_lanes8(&a, n, 0, &mut apack);

        let run_scalar = |y: &mut Vec<f32>, traj: &mut Vec<f32>| {
            let ys = UnsafeSlice::new(y);
            let ts = UnsafeSlice::new(traj);
            let mut h = vec![0f32; n * 8];
            // SAFETY: single-threaded, one group owning everything.
            unsafe {
                scan::scan_forward_lanes8_scalar(
                    &u, &delta, &apack, &b, &c, &d, &mut h, &ys, Some(&ts), l, ch, n, 0,
                )
            };
        };
        let mut y_s = vec![0f32; l * ch];
        let mut t_s = vec![0f32; l * ch * n];
        run_scalar(&mut y_s, &mut t_s);

        let mut y_v = vec![0f32; l * ch];
        let mut t_v = vec![0f32; l * ch * n];
        let used_simd = {
            let ys = UnsafeSlice::new(&mut y_v);
            let ts = UnsafeSlice::new(&mut t_v);
            let mut h = vec![0f32; n * 8];
            // SAFETY: as above.
            unsafe {
                scan::scan_forward_lanes8_simd(
                    &u, &delta, &apack, &b, &c, &d, &mut h, &ys, Some(&ts), l, ch, n, 0,
                )
            }
        };
        if used_simd {
            // |Δ·a| ≤ 0.75 keeps e ∈ (0.47, 1); states are geometric sums
            // of ≤ l bounded terms, so errors stay near the ULP floor.
            for (i, (w, g)) in y_s.iter().zip(&y_v).enumerate() {
                prop_assert!(
                    close(*w, *g, 1024, 1e-4),
                    "y[{}]: {} vs {} ({} ulp)", i, w, g, ulp_diff(*w, *g)
                );
            }
            for (i, (w, g)) in t_s.iter().zip(&t_v).enumerate() {
                prop_assert!(
                    close(*w, *g, 1024, 1e-4),
                    "h_traj[{}]: {} vs {} ({} ulp)", i, w, g, ulp_diff(*w, *g)
                );
            }
        }
    }

    #[test]
    fn scan_without_a_trajectory_returns_the_same_y_bitwise(
        l in 1usize..14,
        n in 1usize..7,
        seed in 0u32..1000,
    ) {
        let ch = 8usize;
        let u = pseudo(l * ch, seed, -1.0, 1.0);
        let delta = pseudo(l * ch, seed.wrapping_add(1), 0.05, 0.5);
        let a = pseudo(ch * n, seed.wrapping_add(2), -1.5, -0.2);
        let b = pseudo(l * n, seed.wrapping_add(3), -1.0, 1.0);
        let c = pseudo(l * n, seed.wrapping_add(4), -1.0, 1.0);
        let d = pseudo(ch, seed.wrapping_add(5), -1.0, 1.0);
        let mut apack = Vec::new();
        scan::pack_a_lanes8(&a, n, 0, &mut apack);
        let run = |simd: bool, record: bool| {
            let mut y = vec![0f32; l * ch];
            let mut traj = vec![0f32; l * ch * n];
            let mut h = vec![0f32; n * 8];
            let ys = UnsafeSlice::new(&mut y);
            let ts = UnsafeSlice::new(&mut traj);
            let traj = record.then_some(&ts);
            // SAFETY: single-threaded, one group owning everything.
            let ran = unsafe {
                if simd {
                    scan::scan_forward_lanes8_simd(
                        &u, &delta, &apack, &b, &c, &d, &mut h, &ys, traj, l, ch, n, 0,
                    )
                } else {
                    scan::scan_forward_lanes8_scalar(
                        &u, &delta, &apack, &b, &c, &d, &mut h, &ys, traj, l, ch, n, 0,
                    );
                    true
                }
            };
            ran.then_some(y)
        };
        for simd in [false, true] {
            if let (Some(recorded), Some(bare)) = (run(simd, true), run(simd, false)) {
                assert_bits(&recorded, &bare, "y without trajectory")?;
            }
        }
    }

    // -- The select stage of the fused chains (bit-exact class) ----------

    #[test]
    fn leaky_relu_stage_is_bitwise_identical_across_backends(
        len in 0usize..70,
        slope in 0.001f32..0.5,
        seed in 0u32..1000,
    ) {
        use peb_simd::fused::{vchain_scalar_backend, vchain_simd_backend, Stage};
        // Ragged tails, both signs, the zeros of either sign and — for
        // the slope-0 (ReLU) form — the non-finite inputs.
        let mut x = pseudo(len, seed, -3.0, 3.0);
        for (i, v) in x.iter_mut().enumerate() {
            match i % 11 {
                3 => *v = 0.0,
                7 => *v = -0.0,
                _ => {}
            }
        }
        let mut wild = x.clone();
        for (i, v) in wild.iter_mut().enumerate() {
            match i % 13 {
                1 => *v = f32::NAN,
                5 => *v = f32::NEG_INFINITY,
                9 => *v = f32::INFINITY,
                _ => {}
            }
        }
        let b = pseudo(len, seed.wrapping_add(1), -1.0, 1.0);
        // Scalar backend ≡ the per-element definition (where one is
        // given) ≡ the AVX2 backend.
        let check = |input: &[f32],
                     stages: &[Stage],
                     definition: Option<&dyn Fn(f32) -> f32>|
         -> Result<(), TestCaseError> {
            let mut want = vec![0f32; len];
            vchain_scalar_backend(input, stages, &mut want);
            if let Some(f) = definition {
                let plain: Vec<f32> = input.iter().map(|&v| f(v)).collect();
                assert_bits(&plain, &want, "stage definition")?;
            }
            let mut got = vec![0f32; len];
            if vchain_simd_backend(input, stages, &mut got) {
                assert_bits(&want, &got, "leaky stage")?;
            }
            Ok(())
        };
        let leaky = |v: f32| if v >= 0.0 { v } else { slope * v };
        let relu = |v: f32| if v > 0.0 { v } else { 0.0 };
        check(&x, &[Stage::LeakyRelu(slope)], Some(&leaky))?;
        check(&wild, &[Stage::LeakyRelu(0.0)], Some(&relu))?;
        check(
            &x,
            &[Stage::AddT(&b), Stage::LeakyRelu(slope), Stage::MulScalar(1.5)],
            None,
        )?;
    }

    // -- ADI line solves (bit-exact class) ------------------------------

    #[test]
    fn factored_line_solves_are_bitwise_identical_across_backends(
        n in 2usize..40,
        r in 0.01f32..0.9,
        bump_first in 0.0f32..0.2,
        seed in 0u32..1000,
    ) {
        // The constant-coefficient diffusion system implicit_axis builds.
        let a = vec![-r; n];
        let c = vec![-r; n];
        let mut b = vec![1.0 + 2.0 * r; n];
        b[0] = 1.0 + r;
        b[n - 1] = 1.0 + r;
        let (mut beta, mut gamma) = (Vec::new(), Vec::new());
        thomas::factor_tridiagonal(&a, &b, &c, &mut beta, &mut gamma);

        let stride = 8usize;
        let field0 = pseudo(n * stride, seed, -1.0, 1.0);
        let solve = |field: &mut Vec<f32>, simd: bool| -> bool {
            let slots = UnsafeSlice::new(field);
            // SAFETY: single-threaded, one group owning the whole field.
            unsafe {
                if simd {
                    thomas::solve_factored_lines8_simd(
                        &a, &beta, &gamma, &slots, 0, stride, n, bump_first, 0.0,
                    )
                } else {
                    thomas::solve_factored_lines8_scalar(
                        &a, &beta, &gamma, &slots, 0, stride, n, bump_first, 0.0,
                    );
                    true
                }
            }
        };
        let mut scalar = field0.clone();
        solve(&mut scalar, false);
        let mut simd = field0.clone();
        if solve(&mut simd, true) {
            assert_bits(&scalar, &simd, "lines8")?;
        }

        // And the interleaved group must agree with eight per-line
        // `solve_factored` replays bit for bit.
        for j in 0..stride {
            let mut line: Vec<f32> = (0..n).map(|k| field0[k * stride + j]).collect();
            line[0] += bump_first;
            thomas::solve_factored(&a, &beta, &gamma, &mut line);
            for (k, v) in line.iter().enumerate() {
                prop_assert_eq!(
                    v.to_bits(),
                    scalar[k * stride + j].to_bits(),
                    "line {} element {}", j, k
                );
            }
        }
    }

    #[test]
    fn contiguous_row_solves_match_per_row_solve_factored_bitwise(
        n in 2usize..=70,
        r in 0.01f32..0.9,
        bump_first in 0.0f32..0.2,
        bump_last in 0.0f32..0.2,
        seed in 0u32..1000,
    ) {
        // Eight adjacent rows of `n` floats: for most `n` the row stride
        // is not a multiple of 8, so rows start unaligned and the column
        // tail takes the lane-by-lane transpose.
        let a = vec![-r; n];
        let mut b = vec![1.0 + 2.0 * r; n];
        b[0] = 1.0 + r + bump_first;
        b[n - 1] = 1.0 + r + bump_last;
        let (mut beta, mut gamma) = (Vec::new(), Vec::new());
        thomas::factor_tridiagonal(&a, &b, &a, &mut beta, &mut gamma);

        let rows0 = pseudo(8 * n, seed, -1.0, 1.0);
        let mut want = rows0.clone();
        for row in want.chunks_exact_mut(n) {
            row[0] += bump_first;
            row[n - 1] += bump_last;
            thomas::solve_factored(&a, &beta, &gamma, row);
        }
        let mut scratch = vec![0f32; 8 * n];
        let mut scalar = rows0.clone();
        thomas::solve_factored_rows8_scalar(
            &a, &beta, &gamma, &mut scalar, &mut scratch, bump_first, bump_last,
        );
        assert_bits(&want, &scalar, "rows8 scalar")?;
        let mut simd = rows0.clone();
        if thomas::solve_factored_rows8_simd(
            &a, &beta, &gamma, &mut simd, &mut scratch, bump_first, bump_last,
        ) {
            assert_bits(&want, &simd, "rows8 simd")?;
        }
    }

    // -- Reaction half-step (bit-exact class) ---------------------------

    #[test]
    fn reaction_half_step_is_bitwise_identical_across_backends_and_splits(
        len in 1usize..70,
        split in 0usize..70,
        kr in 0.0f32..12.0,
        kc in 0.0f32..2.0,
        dt in 0.001f32..0.06,
        seed in 0u32..1000,
    ) {
        let a0 = pseudo(len, seed, 0.0, 1.0);
        let b0 = pseudo(len, seed.wrapping_add(1), 0.0, 1.0);
        let i0 = pseudo(len, seed.wrapping_add(2), 0.0, 1.0);

        let (mut a_s, mut b_s, mut i_s) = (a0.clone(), b0.clone(), i0.clone());
        reaction::half_step_scalar(&mut a_s, &mut b_s, &mut i_s, kr, kc, dt);
        let (mut a_v, mut b_v, mut i_v) = (a0.clone(), b0.clone(), i0.clone());
        if reaction::half_step_simd(&mut a_v, &mut b_v, &mut i_v, kr, kc, dt) {
            assert_bits(&a_s, &a_v, "acid")?;
            assert_bits(&b_s, &b_v, "base")?;
            assert_bits(&i_s, &i_v, "inhibitor")?;
        }

        // Any split of the fields into sub-slices gives the same bits
        // (lanes and ragged tails regroup, values do not move).
        let cut = split.min(len);
        let (mut a_p, mut b_p, mut i_p) = (a0.clone(), b0.clone(), i0.clone());
        reaction::half_step(&mut a_p[..cut], &mut b_p[..cut], &mut i_p[..cut], kr, kc, dt);
        reaction::half_step(&mut a_p[cut..], &mut b_p[cut..], &mut i_p[cut..], kr, kc, dt);
        assert_bits(&a_s, &a_p, "split acid")?;
        assert_bits(&b_s, &b_p, "split base")?;
        assert_bits(&i_s, &i_p, "split inhibitor")?;

        // Against the formula the solver used before this kernel: RK4 +
        // clamp are the same expression (bitwise), the inhibitor differs
        // only by the exponential's few ULP.
        for j in 0..len {
            let (a1, b1) = rk4_neutralise(a0[j], b0[j], kr, dt);
            let (a1, b1) = (a1.max(0.0), b1.max(0.0));
            prop_assert_eq!(a1.to_bits(), a_s[j].to_bits(), "acid[{}]", j);
            prop_assert_eq!(b1.to_bits(), b_s[j].to_bits(), "base[{}]", j);
            let want_i = i0[j] * (-kc * (0.5 * (a0[j] + a1)) * dt).exp();
            prop_assert!(
                ulp_diff(want_i, i_s[j]) <= 4,
                "inhibitor[{}]: {} vs {} ({} ulp)", j, want_i, i_s[j], ulp_diff(want_i, i_s[j])
            );
            // A − B is conserved to round-off (no clamp fires on [0,1]²
            // at these rates: |δ| ≤ kr·dt·A·B < min(A, B)).
            let drift = (a_s[j] - b_s[j]) - (a0[j] - b0[j]);
            prop_assert!(drift.abs() <= 4.0 * f32::EPSILON, "A−B drift {} at {}", drift, j);
        }
    }
}

/// The pre-kernel scalar RK4 of the neutralisation pair (`peb-litho`'s
/// `rk4_neutralise`, verbatim).
fn rk4_neutralise(a: f32, b: f32, kr: f32, dt: f32) -> (f32, f32) {
    let f = |a: f32, b: f32| -kr * a * b;
    let k1 = f(a, b);
    let k2 = f(a + 0.5 * dt * k1, b + 0.5 * dt * k1);
    let k3 = f(a + 0.5 * dt * k2, b + 0.5 * dt * k2);
    let k4 = f(a + dt * k3, b + dt * k3);
    let delta = dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    (a + delta, b + delta)
}

#[test]
fn exact_exp_tracks_libm_and_is_bitwise_identical_across_backends() {
    // Dense sweep of [−88, 88]. Where the result is a normal number the
    // kernel's exponential stays within 2 ULP of libm; below that
    // (x ≲ −87.7) it flushes to zero instead of going subnormal.
    let xs: Vec<f32> = (0..=176_000).map(|i| -88.0 + i as f32 * 1e-3).collect();
    let mut scalar = vec![0f32; xs.len()];
    reaction::exp_exact_scalar(&xs, &mut scalar);
    let mut simd = vec![0f32; xs.len()];
    if reaction::exp_exact_simd(&xs, &mut simd) {
        for (i, (s, v)) in scalar.iter().zip(&simd).enumerate() {
            assert_eq!(s.to_bits(), v.to_bits(), "exp({})", xs[i]);
        }
    }
    for (x, got) in xs.iter().zip(&scalar) {
        let want = x.exp();
        if *x >= -87.6 {
            assert!(
                ulp_diff(*got, want) <= 2,
                "exp({x}): {got} vs libm {want} ({} ulp)",
                ulp_diff(*got, want)
            );
        } else {
            assert!((got - want).abs() <= f32::MIN_POSITIVE, "exp({x}): {got}");
        }
    }
}

/// Deterministic pseudo-random fill (Weyl sequence), independent of the
/// proptest RNG so shrunk cases stay reproducible from `seed` alone.
fn pseudo(len: usize, salt: u32, lo: f32, hi: f32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(salt.wrapping_mul(40503));
            lo + (x as f32 / u32::MAX as f32) * (hi - lo)
        })
        .collect()
}
