//! Property suite pinning the peb-simd determinism contract.
//!
//! Two claims from the crate docs are exercised over randomized inputs:
//!
//! * **bit-exact kernels** (elementwise arithmetic, axpy, optimiser
//!   updates, factored tridiagonal line solves, the reaction half-step
//!   with its exact `exp`) reproduce the scalar
//!   backend *to the bit* on the SIMD backend;
//! * **tolerance kernels** (GEMM, the scan recurrence and its adjoint,
//!   `exp`/`sigmoid`) stay within a fixed ULP/absolute envelope of the
//!   scalar backend.
//!
//! Every test calls the dispatched entry points and pins the backend
//! through the execution context (`peb_par::ctx::at_level`): `Level::Scalar`, and
//! `Level::Avx2Fma` when the CPU has it, so no result depends on the
//! process-default level. On hardware without AVX2+FMA only the scalar
//! side runs.

use peb_par::ctx::{self, at_level, levels, ExecCtx};
use peb_par::UnsafeSlice;
use peb_simd::fused::{vchain, Stage};
use peb_simd::{detected, elementwise as ew, gemm, optim, reaction, scan, thomas, ulp_diff, Level};
use proptest::prelude::*;
use proptest::prop::collection::vec as pvec;

/// The one-stage chain `stage` over `x` at `level`.
fn one_stage(level: Level, stage: Stage<'_>, x: &[f32]) -> Vec<f32> {
    let mut out = vec![0f32; x.len()];
    at_level(level, || vchain(x, &[stage], &mut out));
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
            at_level(level, || gemm::gemm(&a, &b, &mut out, m, k, n, gemm::Bias::None));
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
        for stage in [Stage::AddT(&b), Stage::SubT(&b), Stage::MulT(&b), Stage::DivT(&b)] {
            let scalar = one_stage(Level::Scalar, stage, &a);
            if detected() {
                assert_bits(&scalar, &one_stage(Level::Avx2Fma, stage, &a), stage.name())?;
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
            (&|y| vchain(&x, &[Stage::MulScalar(alpha)], y), "mul_scalar"),
            (&|y| vchain(&x, &[Stage::AddScalar(alpha)], y), "add_scalar"),
            (&|y| vchain(&absx, &[Stage::Sqrt], y), "sqrt"),
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
        let scalar = one_stage(Level::Scalar, Stage::Exp, &x);
        let simd = one_stage(Level::Avx2Fma, Stage::Exp, &x);
        for (i, (w, g)) in scalar.iter().zip(&simd).enumerate() {
            prop_assert!(
                ulp_diff(*w, *g) <= 16,
                "exp[{}]({}): {} vs {} ({} ulp)",
                i, x[i], w, g, ulp_diff(*w, *g)
            );
        }
        let scalar = one_stage(Level::Scalar, Stage::Sigmoid, &x);
        let simd = one_stage(Level::Avx2Fma, Stage::Sigmoid, &x);
        for (i, (w, g)) in scalar.iter().zip(&simd).enumerate() {
            prop_assert!(
                close(*w, *g, 32, 1e-6),
                "sigmoid[{}]({}): {} vs {} ({} ulp)",
                i, x[i], w, g, ulp_diff(*w, *g)
            );
        }
    }

    // -- Optimiser updates (bit-exact class) ----------------------------

    #[test]
    fn adam_step_matches_scalar_reference_bitwise(
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

        for level in levels() {
            let (mut m, mut v, mut p) = (m0.clone(), v0.clone(), p0.clone());
            at_level(level, || {
                optim::adam_moments(&mut m, &mut v, &grad, b1, b2);
                optim::adam_apply(&mut p, &m, &v, inv_bc1, inv_bc2, eps, lr);
            });
            let at = level.name();
            assert_bits(&mr, &m, &format!("{at} adam m"))?;
            assert_bits(&vr, &v, &format!("{at} adam v"))?;
            assert_bits(&pr, &p, &format!("{at} adam p"))?;
        }
    }

    // -- Scan recurrence (tolerance class) ------------------------------

    #[test]
    fn scan_lane_recurrence_tracks_scalar_within_envelope(
        l in 1usize..14,
        ch in 1usize..21,
        n in 1usize..7,
        seed in 0u32..1000,
    ) {
        // ch covers one group, ragged tails of 1..7 lanes and several
        // groups.
        let case = ScanCase::new(l, ch, n, seed);
        let (y_s, t_s) = at_level(Level::Scalar, || case.forward(true));
        if detected() {
            let (y_v, t_v) = at_level(Level::Avx2Fma, || case.forward(true));
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
        ch in 1usize..21,
        n in 1usize..7,
        seed in 0u32..1000,
    ) {
        let case = ScanCase::new(l, ch, n, seed);
        for level in levels() {
            let (recorded, _) = at_level(level, || case.forward(true));
            let (unrecorded, _) = at_level(level, || case.forward(false));
            assert_bits(&recorded, &unrecorded, "y without trajectory")?;
        }
    }

    // -- Scan adjoint, ragged tails loaded in place ----------------------

    #[test]
    fn scan_backward_lanes_match_the_per_lane_oracle_at_scalar(
        l in 1usize..14,
        ch in 1usize..21,
        n in 1usize..10,
        seed in 0u32..1000,
    ) {
        // n = 8 runs the whole-block transpose of the lane sums, every
        // other n its remainder; ch covers one group, ragged tails of
        // 1..7 lanes, and several groups.
        let case = ScanCase::new(l, ch, n, seed);
        let (y, grads) = case.kernels(Level::Scalar);
        case.check_oracle(&y, &grads)?;
    }

    #[test]
    fn scan_backward_lanes_track_scalar_within_envelope(
        l in 1usize..14,
        ch in 1usize..21,
        n in 1usize..10,
        seed in 0u32..1000,
    ) {
        if detected() {
            let case = ScanCase::new(l, ch, n, seed);
            let (_, scalar) = case.kernels(Level::Scalar);
            let (_, simd) = case.kernels(Level::Avx2Fma);
            grads_within_envelope(&scalar, &simd)?;
        }
    }

    // -- The select stage of the fused chains (bit-exact class) ----------

    #[test]
    fn leaky_relu_stage_is_bitwise_identical_across_backends(
        len in 0usize..70,
        slope in 0.001f32..0.5,
        seed in 0u32..1000,
    ) {
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

/// The AVX2 level's scan gradients against the scalar level's, within
/// the forward's envelope: the backward's `e` is the same lane `exp` the
/// AVX forward used.
fn grads_within_envelope(
    scalar: &[Vec<f32>; 6],
    simd: &[Vec<f32>; 6],
) -> Result<(), TestCaseError> {
    for (name, (want, got)) in GRAD_NAMES.iter().zip(scalar.iter().zip(simd)) {
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            prop_assert!(
                close(*w, *g, 1024, 1e-4),
                "{}[{}]: {} vs {} ({} ulp)",
                name,
                i,
                w,
                g,
                ulp_diff(*w, *g)
            );
        }
    }
    Ok(())
}

/// `[du, ddelta, da, db, dc, dskip]`, the order of [`ScanCase`]'s gradients.
const GRAD_NAMES: [&str; 6] = ["du", "ddelta", "da", "db", "dc", "dskip"];

/// One selective scan's operands and output gradient `g`, at `[L, ch]`
/// activations and state size `n`.
#[derive(Clone)]
struct ScanCase {
    l: usize,
    ch: usize,
    n: usize,
    u: Vec<f32>,
    delta: Vec<f32>,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    d: Vec<f32>,
    g: Vec<f32>,
}

impl ScanCase {
    fn new(l: usize, ch: usize, n: usize, seed: u32) -> Self {
        ScanCase {
            l,
            ch,
            n,
            u: pseudo(l * ch, seed, -1.0, 1.0),
            delta: pseudo(l * ch, seed.wrapping_add(1), 0.05, 0.5),
            a: pseudo(ch * n, seed.wrapping_add(2), -1.5, -0.2),
            b: pseudo(l * n, seed.wrapping_add(3), -1.0, 1.0),
            c: pseudo(l * n, seed.wrapping_add(4), -1.0, 1.0),
            d: pseudo(ch, seed.wrapping_add(5), -1.0, 1.0),
            g: pseudo(l * ch, seed.wrapping_add(6), -1.0, 1.0),
        }
    }

    /// The per-lane scalar loops the lane kernels replaced: `y`, the six
    /// gradients, and `Σ|term|` of every `db` and `dc` entry.
    fn oracle(&self) -> (Vec<f32>, [Vec<f32>; 6], [Vec<f32>; 2]) {
        let ScanCase { l, ch, n, .. } = *self;
        let (u, delta, a, b, c, d, g) = (
            &self.u,
            &self.delta,
            &self.a,
            &self.b,
            &self.c,
            &self.d,
            &self.g,
        );
        let mut y = vec![0f32; l * ch];
        let mut traj = vec![0f32; l * ch * n];
        for ci in 0..ch {
            let mut h = vec![0f32; n];
            for t in 0..l {
                let dt = delta[t * ch + ci];
                let ut = u[t * ch + ci];
                let dtu = dt * ut;
                let mut acc = 0f32;
                for (ni, hv) in h.iter_mut().enumerate() {
                    let e = (dt * a[ci * n + ni]).exp();
                    *hv = e * *hv + dtu * b[t * n + ni];
                    acc += c[t * n + ni] * *hv;
                }
                y[t * ch + ci] = acc + d[ci] * ut;
                traj[(t * ch + ci) * n..(t * ch + ci + 1) * n].copy_from_slice(&h);
            }
        }
        let [mut du, mut ddelta, mut da, mut db, mut dc, mut dskip] = [
            vec![0f32; l * ch],
            vec![0f32; l * ch],
            vec![0f32; ch * n],
            vec![0f32; l * n],
            vec![0f32; l * n],
            vec![0f32; ch],
        ];
        let (mut db_abs, mut dc_abs) = (vec![0f32; l * n], vec![0f32; l * n]);
        for ci in 0..ch {
            let mut dh = vec![0f32; n];
            for t in (0..l).rev() {
                let gy = g[t * ch + ci];
                let dt = delta[t * ch + ci];
                let ut = u[t * ch + ci];
                dskip[ci] += gy * ut;
                let mut du_acc = gy * d[ci];
                let mut ddt_acc = 0f32;
                for (ni, dhv) in dh.iter_mut().enumerate() {
                    let h_t = traj[(t * ch + ci) * n + ni];
                    dc[t * n + ni] += gy * h_t;
                    dc_abs[t * n + ni] += (gy * h_t).abs();
                    let dht = gy * c[t * n + ni] + *dhv;
                    let av = a[ci * n + ni];
                    let e = (dt * av).exp();
                    let h_prev = if t == 0 {
                        0.0
                    } else {
                        traj[((t - 1) * ch + ci) * n + ni]
                    };
                    let de = dht * h_prev;
                    ddt_acc += de * av * e;
                    da[ci * n + ni] += de * dt * e;
                    let bv = b[t * n + ni];
                    ddt_acc += dht * bv * ut;
                    du_acc += dht * dt * bv;
                    db[t * n + ni] += dht * dt * ut;
                    db_abs[t * n + ni] += (dht * dt * ut).abs();
                    *dhv = dht * e;
                }
                du[t * ch + ci] += du_acc;
                ddelta[t * ch + ci] += ddt_acc;
            }
        }
        (y, [du, ddelta, da, db, dc, dskip], [db_abs, dc_abs])
    }

    /// Checks the scalar level's `y` and gradients against
    /// [`ScanCase::oracle`]: bitwise, except that several lane groups
    /// keep `db`/`dc` within the recursive-summation bound.
    fn check_oracle(&self, y: &[f32], grads: &[Vec<f32>; 6]) -> Result<(), TestCaseError> {
        let ch = self.ch;
        let (want_y, want, abs) = self.oracle();
        assert_bits(&want_y, y, "y")?;
        // Per-channel gradients keep every lane's expression order.
        for i in [0, 1, 2, 5] {
            assert_bits(&want[i], &grads[i], GRAD_NAMES[i])?;
        }
        for i in [3, 4] {
            if ch <= 8 {
                // One group: lanes add in the oracle's ascending order.
                assert_bits(&want[i], &grads[i], GRAD_NAMES[i])?;
            } else {
                // Several groups regroup the ascending channel sum into
                // per-group partials; both orders lie within the
                // recursive-summation bound (ch − 1)·ε·Σ|term| of the
                // exact sum, so of each other within twice that.
                for (k, ((w, g), s)) in want[i].iter().zip(&grads[i]).zip(&abs[i - 3]).enumerate() {
                    let bound = 2.0 * ch as f32 * f32::EPSILON * s;
                    prop_assert!(
                        (w - g).abs() <= bound,
                        "{}[{}]: {} vs {} (bound {})",
                        GRAD_NAMES[i],
                        k,
                        w,
                        g,
                        bound
                    );
                }
            }
        }
        Ok(())
    }

    /// The operands along `walk`, as the scan entries take them.
    fn operands(&self, walk: scan::Walk) -> scan::Operands<'_> {
        scan::Operands {
            u: &self.u,
            delta: &self.delta,
            a: &self.a,
            b: &self.b,
            c: &self.c,
            d: &self.d,
            dims: (self.l, self.ch, self.n),
            walk,
        }
    }

    /// `y` and, when `record`, the state trajectory of `scan::forward`
    /// in the calling thread's context, both written over NaN.
    fn forward(&self, record: bool) -> (Vec<f32>, Vec<f32>) {
        let ScanCase { l, ch, n, .. } = *self;
        let mut y = vec![f32::NAN; l * ch];
        let len = if record {
            scan::trajectory_len(l, ch, n)
        } else {
            0
        };
        let mut traj = vec![f32::NAN; len];
        let ops = self.operands(scan::Walk::Forward);
        scan::forward(ops, &mut y, record.then_some(&mut traj[..]));
        (y, traj)
    }

    /// `y` and the six gradients of the output gradient `g` through
    /// `scan::forward` and `scan::backward` along `walk`, in the calling
    /// thread's context, every output written over NaN.
    fn entries(&self, walk: scan::Walk) -> (Vec<f32>, [Vec<f32>; 6]) {
        let ScanCase { l, ch, n, .. } = *self;
        let ops = self.operands(walk);
        let mut y = vec![f32::NAN; l * ch];
        let mut traj = vec![f32::NAN; scan::trajectory_len(l, ch, n)];
        scan::forward(ops, &mut y, Some(&mut traj));
        let mut grads = [l * ch, l * ch, ch * n, l * n, l * n, ch].map(|len| vec![f32::NAN; len]);
        let [du, ddelta, da, db, dc, dskip] = grads.each_mut().map(Vec::as_mut_slice);
        let out = scan::Grads {
            du,
            ddelta,
            da,
            db,
            dc,
            dskip,
        };
        scan::backward(ops, &self.g, &traj, out);
        (y, grads)
    }

    /// [`ScanCase::entries`] along the forward walk at `level`.
    fn kernels(&self, level: Level) -> (Vec<f32>, [Vec<f32>; 6]) {
        at_level(level, || self.entries(scan::Walk::Forward))
    }
}

/// `y` and the six gradients of `case` along `walk` at `level` and
/// `threads`.
fn entries_at(
    case: &ScanCase,
    walk: scan::Walk,
    level: Level,
    threads: usize,
) -> (Vec<f32>, [Vec<f32>; 6]) {
    let at = ExecCtx {
        level,
        threads,
        ..ctx::current()
    };
    ctx::with(at, || case.entries(walk))
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn scan_entries_match_the_per_lane_oracle_at_every_width() {
    // All-tail widths (1, 3, 4, 7), one full group, a full group plus a
    // tail, and several groups with and without a tail. L·N is long
    // enough that several groups fan out over the pool both ways.
    let (l, n) = (512, 5);
    for ch in [1, 3, 4, 7, 8, 9, 12, 19, 36] {
        let case = ScanCase::new(l, ch, n, 90 + ch as u32);
        let mut by_level = Vec::new();
        for level in levels() {
            let (y, grads) = entries_at(&case, scan::Walk::Forward, level, 1);
            for threads in [3, 7] {
                let (y_t, grads_t) = entries_at(&case, scan::Walk::Forward, level, threads);
                let what = format!("ch={ch} {} {threads} threads", level.name());
                assert_eq!(bits(&y), bits(&y_t), "{what}: y");
                for (name, (one, many)) in GRAD_NAMES.iter().zip(grads.iter().zip(&grads_t)) {
                    assert_eq!(bits(one), bits(many), "{what}: {name}");
                }
            }
            by_level.push((y, grads));
        }
        let (y, scalar) = &by_level[0];
        case.check_oracle(y, scalar)
            .unwrap_or_else(|e| panic!("ch={ch} scalar: {e}"));
        if let Some((_, simd)) = by_level.get(1) {
            grads_within_envelope(scalar, simd).unwrap_or_else(|e| panic!("ch={ch} avx2: {e}"));
        }
    }
}

/// The rows a gathered copy of `walk`'s order holds at each step, by the
/// index formulas of the copies the walks replaced (not `Walk::row`).
fn gathered_rows(walk: scan::Walk, l: usize) -> Vec<usize> {
    match walk {
        scan::Walk::Forward => (0..l).collect(),
        scan::Walk::Reverse { .. } => (0..l).rev().collect(),
        scan::Walk::DepthInnermost { d, hw } => (0..hw)
            .flat_map(|p| (0..d).map(move |z| z * hw + p))
            .collect(),
    }
}

#[test]
fn walked_scan_entries_are_the_forward_walk_scattered_back_bitwise() {
    // The walk only moves y and g: the forward walk over the same
    // step-ordered operands, with g gathered into step order and y
    // scattered back to the walked rows, gives the same bits — y and
    // all six gradients, every walk, a ragged tail and several groups,
    // every level, 1, 3 and 7 threads.
    let (d, hw, n) = (8, 64, 5);
    let l = d * hw;
    for ch in [7, 19] {
        let case = ScanCase::new(l, ch, n, 80 + ch as u32);
        for walk in [
            scan::Walk::Forward,
            scan::Walk::Reverse { len: l },
            scan::Walk::DepthInnermost { d, hw },
        ] {
            let rows = gathered_rows(walk, l);
            let mut gathered = case.clone();
            gathered.g = rows
                .iter()
                .flat_map(|&r| case.g[r * ch..(r + 1) * ch].to_vec())
                .collect();
            for level in levels() {
                for threads in [1, 3, 7] {
                    let what = format!("ch={ch} {walk:?} {} {threads} threads", level.name());
                    let (y, grads) = entries_at(&case, walk, level, threads);
                    let (y_fwd, want) = entries_at(&gathered, scan::Walk::Forward, level, threads);
                    let mut want_y = vec![f32::NAN; l * ch];
                    for (t, &r) in rows.iter().enumerate() {
                        want_y[r * ch..(r + 1) * ch].copy_from_slice(&y_fwd[t * ch..(t + 1) * ch]);
                    }
                    assert_eq!(bits(&y), bits(&want_y), "{what}: y");
                    for (name, (got, want)) in GRAD_NAMES.iter().zip(grads.iter().zip(&want)) {
                        assert_eq!(bits(got), bits(want), "{what}: {name}");
                    }
                }
            }
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
    // A lane-math body that is not inlined into the chain's
    // `target_feature` wrapper calls every AVX intrinsic out of line and
    // runs slower than the scalar backend; this pins the inlining of
    // every transcendental stage.
    if !detected() {
        return;
    }
    let x = pseudo(1 << 20, 11, -8.0, 8.0);
    let mut out = vec![0f32; x.len()];
    for stage in [Stage::Sigmoid, Stage::Softplus, Stage::Exp] {
        let name = stage.name();
        let mut time_at = |level| at_level(level, || best_of_5(|| vchain(&x, &[stage], &mut out)));
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

#[test]
fn dispatched_gemm_beats_its_scalar_backend_by_half() {
    // Every AVX kernel is a generic body inlined into its seam-generated
    // `target_feature` instantiation; if that inlining stops, each lane
    // op becomes a call and the vector GEMM falls below the scalar one.
    if !detected() {
        return;
    }
    let n = 256;
    let (a, b) = (pseudo(n * n, 12, -1.0, 1.0), pseudo(n * n, 13, -1.0, 1.0));
    let mut out = vec![0f32; n * n];
    let mut time_at = |level| {
        at_level(level, || {
            best_of_5(|| gemm::gemm(&a, &b, &mut out, n, n, n, gemm::Bias::None))
        })
    };
    let t_simd = time_at(Level::Avx2Fma);
    let t_scalar = time_at(Level::Scalar);
    let gflops = |t: f64| 2.0 * (n * n * n) as f64 / t / 1e9;
    assert!(
        1.5 * t_simd <= t_scalar,
        "256³ gemm: dispatched {:.1} GFLOP/s vs scalar backend {:.1} GFLOP/s",
        gflops(t_simd),
        gflops(t_scalar)
    );
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
