//! Vectorized in-place updates and `f64` sums.
//!
//! Every dense elementwise pass — the eager tensor ops and the fused
//! chains alike — runs through [`crate::fused::vchain`]; this module
//! keeps what is not a chain stage. `vaxpy` and `vadd_assign` use only
//! IEEE-exact lane operations in the scalar expression order, so their
//! SIMD results are **bitwise identical** to the scalar path.
//! `vsum_f64` changes the accumulation bracketing on the SIMD path
//! (eight f64 partial sums) and is tolerance-class; each path is
//! deterministic. The tests below also pin the exact and transcendental
//! chain stages one at a time.

use crate::{simd_active, Simd8};

/// `y += α·x` over equal-length slices, unfused (`*y += x * alpha`), so
/// bit-exact across backends; the body of [`vaxpy`] and of the
/// depthwise conv's row sweeps.
#[inline(always)]
pub(crate) fn axpy_generic<V: Simd8>(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len());
    let av = V::splat(alpha);
    let n8 = y.len() - y.len() % 8;
    let mut i = 0;
    while i < n8 {
        // Unfused x·α then add, matching `*y += x * alpha` bitwise.
        let ys = &mut y[i..i + 8];
        V::load(ys).add(V::load(&x[i..]).mul(av)).store(ys);
        i += 8;
    }
    for j in i..y.len() {
        y[j] += x[j] * alpha;
    }
}

dispatched! {
    /// `y += α·x` (unfused; bit-exact across backends).
    pub fn vaxpy<V>(y: &mut [f32], alpha: f32, x: &[f32]) {
        axpy_generic::<V>(y, alpha, x)
    }
}

dispatched! {
    /// `y += x` elementwise (bit-exact across backends).
    pub fn vadd_assign<V>(y: &mut [f32], x: &[f32]) {
        assert_eq!(y.len(), x.len());
        let n8 = y.len() - y.len() % 8;
        let mut i = 0;
        while i < n8 {
            let ys = &mut y[i..i + 8];
            V::load(ys).add(V::load(&x[i..])).store(ys);
            i += 8;
        }
        for j in i..y.len() {
            y[j] += x[j];
        }
    }
}

/// `Σ x[i]` accumulated in `f64`.
///
/// The scalar path sums sequentially (matching the pre-SIMD reduction
/// bit for bit); the SIMD path keeps eight f64 partial sums folded in a
/// fixed lane order — deterministic, but bracketed differently, so the
/// two paths agree only to rounding. Two bodies by contract, so this is
/// the one entry that branches outside `dispatched!`.
pub fn vsum_f64(x: &[f32]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        crate::note_dispatch();
        // SAFETY: as in `dispatched!`: `simd_active()` only holds where
        // the CPU has AVX2+FMA.
        return unsafe { sum_f64_avx(x) };
    }
    sum_f64_scalar(x)
}

/// `Σ x[i]` accumulated in `f64` in ascending index order at every
/// level: [`vsum_f64`]'s scalar path, and the order softmax normalises in.
pub fn sum_f64_scalar(x: &[f32]) -> f64 {
    let mut acc = 0f64;
    for &v in x {
        acc += v as f64;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn sum_f64_avx(x: &[f32]) -> f64 {
    use std::arch::x86_64::*;
    let mut acc_lo = _mm256_setzero_pd();
    let mut acc_hi = _mm256_setzero_pd();
    let n8 = x.len() - x.len() % 8;
    let mut i = 0;
    while i < n8 {
        // SAFETY: `i + 8 <= x.len()`.
        let v = unsafe { _mm256_loadu_ps(x.as_ptr().add(i)) };
        acc_lo = _mm256_add_pd(acc_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
        acc_hi = _mm256_add_pd(acc_hi, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)));
        i += 8;
    }
    // Fold the eight partials in fixed lane order, then the tail.
    let mut lanes = [0f64; 8];
    // SAFETY: `lanes` holds the two stores' eight doubles.
    unsafe {
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc_lo);
        _mm256_storeu_pd(lanes.as_mut_ptr().add(4), acc_hi);
    }
    let mut acc = lanes.iter().sum::<f64>();
    for &v in &x[i..] {
        acc += v as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{vchain, Stage};
    use crate::{detected, ulp_diff, Level};
    use peb_par::ctx::{at_level, levels};

    fn pseudo(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x as f32 / u32::MAX as f32) * 8.0 - 4.0
            })
            .collect()
    }

    /// The one-stage chain `stage` over `x` at `level`.
    fn one_stage(level: Level, stage: Stage<'_>, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0f32; x.len()];
        at_level(level, || vchain(x, &[stage], &mut out));
        out
    }

    #[test]
    fn exact_kernels_match_bitwise_across_backends() {
        for len in [0usize, 1, 7, 8, 9, 31, 33, 64, 101] {
            let a = pseudo(len, 1);
            let b: Vec<f32> = pseudo(len, 2).iter().map(|v| v + 5.0).collect();
            let stages = [
                Stage::AddT(&b),
                Stage::SubT(&b),
                Stage::MulT(&b),
                Stage::DivT(&b),
            ];
            for stage in stages {
                let s = one_stage(Level::Scalar, stage, &a);
                if detected() {
                    for (x, y) in s.iter().zip(&one_stage(Level::Avx2Fma, stage, &a)) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{} len {len}", stage.name());
                    }
                }
            }
        }
    }

    #[test]
    fn axpy_matches_plain_loop_bitwise() {
        let x = pseudo(37, 3);
        let mut want = pseudo(37, 4);
        let y0 = want.clone();
        for (y, xv) in want.iter_mut().zip(&x) {
            *y += *xv * 0.37;
        }
        for level in levels() {
            let mut got = y0.clone();
            at_level(level, || vaxpy(&mut got, 0.37, &x));
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(w.to_bits(), g.to_bits(), "{}", level.name());
            }
        }
    }

    #[test]
    fn exp_and_sigmoid_within_ulps_of_scalar() {
        let x = pseudo(100, 5);
        if !detected() {
            return;
        }
        for stage in [Stage::Exp, Stage::Sigmoid] {
            let s = one_stage(Level::Scalar, stage, &x);
            let v = one_stage(Level::Avx2Fma, stage, &x);
            for (a, b) in s.iter().zip(&v) {
                assert!(ulp_diff(*a, *b) <= 16, "{} {a} vs {b}", stage.name());
            }
        }
    }

    #[test]
    fn sigmoid_scalar_backend_matches_reference_formula() {
        let xs = [-100.0f32, -3.5, -0.0, 0.0, 1e-6, 2.5, 100.0];
        let out = one_stage(Level::Scalar, Stage::Sigmoid, &xs);
        for (x, got) in xs.iter().zip(&out) {
            let want = if *x >= 0.0 {
                1.0 / (1.0 + (-x).exp())
            } else {
                let e = x.exp();
                e / (1.0 + e)
            };
            assert_eq!(want.to_bits(), got.to_bits(), "x = {x}");
        }
    }

    #[test]
    fn softplus_scalar_backend_is_the_reference_formula_bitwise() {
        // The special points, then a dense sweep of [−100, 100] (which
        // straddles the x > 20 switch); 200 022 inputs end in a ragged
        // tail.
        let mut xs = vec![-88.0f32, -20.0, -1e-30, -0.0, 0.0, 20.0, 20.000_002, 1e30];
        xs.extend([f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
        xs.extend((0..10).map(|i| 19.999_99 + i as f32 * 2e-6));
        xs.extend((0..=200_000).map(|i| -100.0 + i as f32 * 1e-3));
        let want = |x: f32| if x > 20.0 { x } else { x.exp().ln_1p() };
        let got = one_stage(Level::Scalar, Stage::Softplus, &xs);
        for (x, g) in xs.iter().zip(&got) {
            assert_eq!(g.to_bits(), want(*x).to_bits(), "softplus({x:e})");
        }
        if detected() {
            let simd = one_stage(Level::Avx2Fma, Stage::Softplus, &xs);
            for (x, (s, v)) in xs.iter().zip(got.iter().zip(&simd)) {
                // The lane exp flushes below ≈ −87.3 where libm goes
                // subnormal; elsewhere exp + ln1p stay within 4 ULP.
                let ok = ulp_diff(*s, *v) <= 4
                    || (s.abs() < f32::MIN_POSITIVE && v.abs() < f32::MIN_POSITIVE)
                    || (s.is_nan() && v.is_nan());
                assert!(
                    ok,
                    "softplus({x:e}): {s:e} vs {v:e} ({} ulp)",
                    ulp_diff(*s, *v)
                );
            }
        }
    }

    #[test]
    fn sum_paths_agree_to_rounding() {
        let x = pseudo(1003, 6);
        let seq = sum_f64_scalar(&x);
        let got = vsum_f64(&x);
        assert!((seq - got).abs() <= 1e-6 * seq.abs().max(1.0));
    }
}
