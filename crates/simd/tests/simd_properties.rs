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
//! Every test calls the dispatched entry points and pins the backend
//! through the execution context ([`at_level`]): `Level::Scalar`, and
//! `Level::Avx2Fma` when the CPU has it, so no result depends on the
//! process-default level. On hardware without AVX2+FMA only the scalar
//! side runs.

use peb_par::ctx::{self, ExecCtx};
use peb_par::UnsafeSlice;
use peb_simd::{detected, elementwise as ew, gemm, optim, reaction, scan, thomas, ulp_diff, Level};
use proptest::prelude::*;
use proptest::prop::collection::vec as pvec;

/// Runs `f` with the calling thread's dispatch level pinned to `level`.
fn at_level<R>(level: Level, f: impl FnOnce() -> R) -> R {
    ctx::with(
        ExecCtx {
            level,
            ..ctx::current()
        },
        f,
    )
}

/// `Level::Scalar`, then `Level::Avx2Fma` when the CPU has it.
fn levels() -> Vec<Level> {
    let mut levels = vec![Level::Scalar];
    if detected() {
        levels.push(Level::Avx2Fma);
    }
    levels
}

/// `kernel(x, out)` at `level`, returning `out`.
fn unary(level: Level, kernel: fn(&[f32], &mut [f32]), x: &[f32]) -> Vec<f32> {
    let mut out = vec![0f32; x.len()];
    at_level(level, || kernel(x, &mut out));
    out
}

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
        let run = |level| {
            let mut out = vec![0f32; m * n];
            at_level(level, || gemm::gemm(&a, &b, &mut out, m, k, n));
            out
        };
        let scalar = run(Level::Scalar);
        if detected() {
            let simd = run(Level::Avx2Fma);
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
        type Binary = (fn(&[f32], &[f32], &mut [f32]), &'static str);
        let kernels: [Binary; 4] =
            [(ew::vadd, "vadd"), (ew::vsub, "vsub"), (ew::vmul, "vmul"), (ew::vdiv, "vdiv")];
        for (kernel, name) in kernels {
            let run = |level| {
                let mut out = vec![0f32; len];
                at_level(level, || kernel(&a, &b, &mut out));
                out
            };
            let scalar = run(Level::Scalar);
            if detected() {
                assert_bits(&scalar, &run(Level::Avx2Fma), name)?;
            }
        }
    }

    #[test]
    fn axpy_scale_and_sqrt_are_bitwise_identical_across_backends(
        x in values(51),
        alpha in -2.0f32..2.0,
    ) {
        if !detected() {
            return Ok(());
        }
        let y0 = pseudo(x.len(), 7, -1.0, 1.0);
        // Each kernel's output at `level`, from a fresh copy of `y0`.
        let run = |level, kernel: &dyn Fn(&mut Vec<f32>)| {
            let mut y = y0.clone();
            at_level(level, || kernel(&mut y));
            y
        };
        let absx: Vec<f32> = x.iter().map(|v| v.abs()).collect();
        type InPlace<'k> = (&'k dyn Fn(&mut Vec<f32>), &'static str);
        let kernels: [InPlace; 5] = [
            (&|y| ew::vaxpy(y, alpha, &x), "vaxpy"),
            (&|y| ew::vadd_assign(y, &x), "vadd_assign"),
            (&|y| ew::vmul_scalar(&x, alpha, y), "vmul_scalar"),
            (&|y| ew::vadd_scalar(&x, alpha, y), "vadd_scalar"),
            (&|y| ew::vsqrt(&absx, y), "vsqrt"),
        ];
        for (kernel, name) in kernels {
            assert_bits(&run(Level::Scalar, kernel), &run(Level::Avx2Fma, kernel), name)?;
        }
    }

    #[test]
    fn exp_and_sigmoid_stay_within_ulp_envelope(x in values(40)) {
        if !detected() {
            return Ok(());
        }
        let scalar = unary(Level::Scalar, ew::vexp, &x);
        let simd = unary(Level::Avx2Fma, ew::vexp, &x);
        for (i, (w, g)) in scalar.iter().zip(&simd).enumerate() {
            prop_assert!(
                ulp_diff(*w, *g) <= 16,
                "vexp[{}]({}): {} vs {} ({} ulp)",
                i, x[i], w, g, ulp_diff(*w, *g)
            );
        }
        let scalar = unary(Level::Scalar, ew::vsigmoid, &x);
        let simd = unary(Level::Avx2Fma, ew::vsigmoid, &x);
        for (i, (w, g)) in scalar.iter().zip(&simd).enumerate() {
            prop_assert!(
                close(*w, *g, 32, 1e-6),
                "vsigmoid[{}]({}): {} vs {} ({} ulp)",
                i, x[i], w, g, ulp_diff(*w, *g)
            );
        }
    }

    // -- Optimiser updates (bit-exact class) ----------------------------

    #[test]
    fn adam_and_sgd_steps_match_scalar_reference_bitwise(
        len in 1usize..70,
        seed in 0u32..1000,
        step in 1u32..50,
    ) {
        // The scalar loops below are the original peb-nn expressions;
        // the dispatched entries must reproduce them bit for bit at
        // every level.
        let grad = pseudo(len, seed, -1.0, 1.0);
        let (b1, b2, eps, lr) = (0.9f32, 0.999f32, 1e-8f32, 2e-3f32);
        let inv_bc1 = 1.0 / (1.0 - b1.powi(step as i32));
        let inv_bc2 = 1.0 / (1.0 - b2.powi(step as i32));
        let m0 = pseudo(len, seed.wrapping_add(1), -0.5, 0.5);
        let v0 = pseudo(len, seed.wrapping_add(2), 0.0, 0.5);
        let p0 = pseudo(len, seed.wrapping_add(3), -1.0, 1.0);
        let (mut mr, mut vr, mut pr) = (m0.clone(), v0.clone(), p0.clone());
        for j in 0..len {
            let g = grad[j];
            mr[j] = mr[j] * b1 + g * (1.0 - b1);
            vr[j] = vr[j] * b2 + (g * g) * (1.0 - b2);
            let mhat = mr[j] * inv_bc1;
            let vhat = vr[j] * inv_bc2;
            pr[j] -= mhat / (vhat.sqrt() + eps) * lr;
        }

        let vel0 = pseudo(len, seed.wrapping_add(4), -1.0, 1.0);
        let q0 = pseudo(len, seed.wrapping_add(5), -1.0, 1.0);
        let (mut velr, mut qr) = (vel0.clone(), q0.clone());
        for j in 0..len {
            velr[j] = velr[j] * 0.9 + grad[j];
            qr[j] -= velr[j] * lr;
        }

        for level in levels() {
            let (mut m, mut v, mut p) = (m0.clone(), v0.clone(), p0.clone());
            let (mut vel, mut q) = (vel0.clone(), q0.clone());
            at_level(level, || {
                optim::adam_moments(&mut m, &mut v, &grad, b1, b2);
                optim::adam_apply(&mut p, &m, &v, inv_bc1, inv_bc2, eps, lr);
                optim::sgd_momentum(&mut vel, &grad, 0.9);
                optim::sgd_apply(&mut q, &vel, lr);
            });
            let at = level.name();
            assert_bits(&mr, &m, &format!("{at} adam m"))?;
            assert_bits(&vr, &v, &format!("{at} adam v"))?;
            assert_bits(&pr, &p, &format!("{at} adam p"))?;
            assert_bits(&velr, &vel, &format!("{at} sgd vel"))?;
            assert_bits(&qr, &q, &format!("{at} sgd p"))?;
        }
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

        // `(y, h_traj)` of the one lane group at `level`.
        let run = |level| {
            let mut y = vec![0f32; l * ch];
            let mut traj = vec![0f32; l * ch * n];
            {
                let ys = UnsafeSlice::new(&mut y);
                let ts = UnsafeSlice::new(&mut traj);
                let mut h = vec![0f32; n * 8];
                // SAFETY: single-threaded, one group owning everything.
                at_level(level, || unsafe {
                    scan::scan_forward_lanes8(
                        &u, &delta, &apack, &b, &c, &d, &mut h, &ys, Some(&ts), l, ch, n, 0,
                    )
                });
            }
            (y, traj)
        };
        let (y_s, t_s) = run(Level::Scalar);
        if detected() {
            let (y_v, t_v) = run(Level::Avx2Fma);
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
        let run = |level, record: bool| {
            let mut y = vec![0f32; l * ch];
            let mut traj = vec![0f32; l * ch * n];
            let mut h = vec![0f32; n * 8];
            let ys = UnsafeSlice::new(&mut y);
            let ts = UnsafeSlice::new(&mut traj);
            let traj = record.then_some(&ts);
            // SAFETY: single-threaded, one group owning everything.
            at_level(level, || unsafe {
                scan::scan_forward_lanes8(
                    &u, &delta, &apack, &b, &c, &d, &mut h, &ys, traj, l, ch, n, 0,
                )
            });
            y
        };
        for level in levels() {
            assert_bits(&run(level, true), &run(level, false), "y without trajectory")?;
        }
    }

    // -- The select stage of the fused chains (bit-exact class) ----------

    #[test]
    fn leaky_relu_stage_is_bitwise_identical_across_backends(
        len in 0usize..70,
        slope in 0.001f32..0.5,
        seed in 0u32..1000,
    ) {
        use peb_simd::fused::{vchain, Stage};
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
            let run = |level| {
                let mut out = vec![0f32; len];
                at_level(level, || vchain(input, stages, &mut out));
                out
            };
            let want = run(Level::Scalar);
            if let Some(f) = definition {
                let plain: Vec<f32> = input.iter().map(|&v| f(v)).collect();
                assert_bits(&plain, &want, "stage definition")?;
            }
            if detected() {
                assert_bits(&want, &run(Level::Avx2Fma), "leaky stage")?;
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
        let solve = |level| {
            let mut field = field0.clone();
            let slots = UnsafeSlice::new(&mut field);
            // SAFETY: single-threaded, one group owning the whole field.
            at_level(level, || unsafe {
                thomas::solve_factored_lines8(
                    &a, &beta, &gamma, &slots, 0, stride, n, bump_first, 0.0,
                )
            });
            field
        };
        let scalar = solve(Level::Scalar);
        if detected() {
            assert_bits(&scalar, &solve(Level::Avx2Fma), "lines8")?;
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
        for level in levels() {
            let mut rows = rows0.clone();
            at_level(level, || {
                thomas::solve_factored_rows8(
                    &a, &beta, &gamma, &mut rows, &mut scratch, bump_first, bump_last,
                )
            });
            assert_bits(&want, &rows, &format!("rows8 {}", level.name()))?;
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

        let run = |level| {
            let (mut a, mut b, mut i) = (a0.clone(), b0.clone(), i0.clone());
            at_level(level, || reaction::half_step(&mut a, &mut b, &mut i, kr, kc, dt));
            (a, b, i)
        };
        let (a_s, b_s, i_s) = run(Level::Scalar);
        if detected() {
            let (a_v, b_v, i_v) = run(Level::Avx2Fma);
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

/// Best-of-5 wall time of `f`, in seconds.
fn best_of_5(mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn dispatched_sigmoid_and_softplus_beat_their_scalar_backends_twofold() {
    // A lane-math body that is not inlined into its `target_feature`
    // wrapper calls every AVX intrinsic out of line and runs slower
    // than the scalar backend; this pins the inlining.
    if !detected() {
        return;
    }
    let x = pseudo(1 << 20, 11, -8.0, 8.0);
    let mut out = vec![0f32; x.len()];
    type K = fn(&[f32], &mut [f32]);
    let kernels: [(&str, K); 2] = [("vsigmoid", ew::vsigmoid), ("vsoftplus", ew::vsoftplus)];
    for (name, kernel) in kernels {
        let mut time_at = |level| at_level(level, || best_of_5(|| kernel(&x, &mut out)));
        let t_simd = time_at(Level::Avx2Fma);
        let t_scalar = time_at(Level::Scalar);
        assert!(
            2.0 * t_simd <= t_scalar,
            "{name}: dispatched {:.2} ns/elem vs scalar backend {:.2} ns/elem",
            t_simd * 1e9 / x.len() as f64,
            t_scalar * 1e9 / x.len() as f64
        );
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
