//! Vectorized elementwise and reduction kernels.
//!
//! The binary ops, scalar ops, `vsqrt`, `vaxpy`, and `vadd_assign` use
//! only IEEE-exact lane operations in the scalar expression order, so
//! their SIMD results are **bitwise identical** to the scalar path.
//! `vexp`, `vsigmoid` and `vsoftplus` use the polynomial [`Simd8::exp`]
//! (and [`Simd8::ln1p`]) on the SIMD path and are tolerance-class (a few
//! ULP from libm). `vsum_f64` changes the accumulation bracketing on the
//! SIMD path (eight f64 partial sums) and is likewise tolerance-class;
//! each path is deterministic.

use crate::{simd_active, ScalarX8, Simd8};

/// Generates the dispatched entry for a kernel whose generic body is
/// `$generic`: the AVX2+FMA instantiation when the calling thread's
/// level is [`Level::Avx2Fma`](crate::Level), the scalar one otherwise.
macro_rules! dispatched {
    ($(#[$doc:meta])* $name:ident, $generic:ident, ($($arg:ident : $ty:ty),*)) => {
        $(#[$doc])*
        pub fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if simd_active() {
                crate::note_dispatch();
                // SAFETY: `simd_active()` implies AVX2+FMA were detected.
                unsafe { avx::$name($($arg),*) };
                return;
            }
            $generic::<ScalarX8>($($arg),*)
        }
    };
}

/// `#[target_feature]` instantiations of the generic bodies.
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::*;
    use crate::AvxX8;

    macro_rules! avx_wrap {
        ($name:ident, $generic:ident, ($($arg:ident : $ty:ty),*)) => {
            #[target_feature(enable = "avx2,fma")]
            pub unsafe fn $name($($arg: $ty),*) {
                $generic::<AvxX8>($($arg),*)
            }
        };
    }

    avx_wrap!(vadd, binop_add_generic, (a: &[f32], b: &[f32], out: &mut [f32]));
    avx_wrap!(vsub, binop_sub_generic, (a: &[f32], b: &[f32], out: &mut [f32]));
    avx_wrap!(vmul, binop_mul_generic, (a: &[f32], b: &[f32], out: &mut [f32]));
    avx_wrap!(vdiv, binop_div_generic, (a: &[f32], b: &[f32], out: &mut [f32]));
    avx_wrap!(vadd_scalar, add_scalar_generic, (x: &[f32], s: f32, out: &mut [f32]));
    avx_wrap!(vmul_scalar, mul_scalar_generic, (x: &[f32], s: f32, out: &mut [f32]));
    avx_wrap!(vsqrt, sqrt_generic, (x: &[f32], out: &mut [f32]));
    avx_wrap!(vexp, exp_generic, (x: &[f32], out: &mut [f32]));
    avx_wrap!(vsigmoid, sigmoid_generic, (x: &[f32], out: &mut [f32]));
    avx_wrap!(vsoftplus, softplus_generic, (x: &[f32], out: &mut [f32]));
    avx_wrap!(vaxpy, axpy_generic, (y: &mut [f32], alpha: f32, x: &[f32]));
    avx_wrap!(vadd_assign, add_assign_generic, (y: &mut [f32], x: &[f32]));
}

macro_rules! binop_generic {
    ($generic:ident, $method:ident, $op:tt) => {
        #[inline(always)]
        fn $generic<V: Simd8>(a: &[f32], b: &[f32], out: &mut [f32]) {
            assert!(a.len() == b.len() && a.len() == out.len());
            let n8 = a.len() - a.len() % 8;
            let mut i = 0;
            while i < n8 {
                V::load(&a[i..]).$method(V::load(&b[i..])).store(&mut out[i..]);
                i += 8;
            }
            // Tail: the lane op is IEEE-exact, so plain f32 matches both
            // backends bit for bit.
            for j in i..a.len() {
                out[j] = a[j] $op b[j];
            }
        }
    };
}

binop_generic!(binop_add_generic, add, +);
binop_generic!(binop_sub_generic, sub, -);
binop_generic!(binop_mul_generic, mul, *);
binop_generic!(binop_div_generic, div, /);

#[inline(always)]
pub(crate) fn add_scalar_generic<V: Simd8>(x: &[f32], s: f32, out: &mut [f32]) {
    assert_eq!(x.len(), out.len());
    let sv = V::splat(s);
    let n8 = x.len() - x.len() % 8;
    let mut i = 0;
    while i < n8 {
        V::load(&x[i..]).add(sv).store(&mut out[i..]);
        i += 8;
    }
    for j in i..x.len() {
        out[j] = x[j] + s;
    }
}

#[inline(always)]
fn mul_scalar_generic<V: Simd8>(x: &[f32], s: f32, out: &mut [f32]) {
    assert_eq!(x.len(), out.len());
    let sv = V::splat(s);
    let n8 = x.len() - x.len() % 8;
    let mut i = 0;
    while i < n8 {
        V::load(&x[i..]).mul(sv).store(&mut out[i..]);
        i += 8;
    }
    for j in i..x.len() {
        out[j] = x[j] * s;
    }
}

#[inline(always)]
fn sqrt_generic<V: Simd8>(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len());
    let n8 = x.len() - x.len() % 8;
    let mut i = 0;
    while i < n8 {
        V::load(&x[i..]).sqrt().store(&mut out[i..]);
        i += 8;
    }
    for j in i..x.len() {
        out[j] = x[j].sqrt();
    }
}

/// Stable two-branch sigmoid, branch resolved lanewise:
///   x ≥ 0: 1 / (1 + exp(−x));   x < 0: e / (1 + e) with e = exp(x).
/// Both branches share e = exp(−|x|) and one division.
// A plain fn, not a closure: closures are not `inline(always)`, and an
// out-of-line body would call every AVX lane op as a function.
#[inline(always)]
pub(crate) fn sigmoid8<V: Simd8>(x: V) -> V {
    let one = V::splat(1.0);
    let e = x.select_nonneg(V::zero().sub(x), x).exp();
    x.select_nonneg(one, e).div(one.add(e))
}

/// `x > 20 ? x : ln(1 + exp(x))` lanewise. The branch is taken on the
/// sign of `x − 20⁺` (20⁺ the float after 20), so `x = 20` takes the
/// `ln1p` lane, and on the scalar backend so does NaN, as the scalar
/// `if x > 20.0` does.
#[inline(always)]
fn softplus8<V: Simd8>(x: V) -> V {
    const ABOVE_20: f32 = f32::from_bits(20f32.to_bits() + 1);
    x.sub(V::splat(ABOVE_20)).select_nonneg(x, x.exp().ln1p())
}

/// Generates `$generic::<V>(x, out)`: `out = $lane(x)` over 8-lane
/// blocks, the tail through the same lane math on a zero-padded block
/// so every element sees one implementation per backend.
macro_rules! lanewise_generic {
    ($generic:ident, $lane:path) => {
        #[inline(always)]
        fn $generic<V: Simd8>(x: &[f32], out: &mut [f32]) {
            assert_eq!(x.len(), out.len());
            let n8 = x.len() - x.len() % 8;
            let mut i = 0;
            while i < n8 {
                let v: V = $lane(V::load(&x[i..]));
                v.store(&mut out[i..]);
                i += 8;
            }
            if i < x.len() {
                let mut pad = [0f32; 8];
                pad[..x.len() - i].copy_from_slice(&x[i..]);
                let r: V = $lane(V::from_array(pad));
                out[i..].copy_from_slice(&r.to_array()[..x.len() - i]);
            }
        }
    };
}

lanewise_generic!(exp_generic, Simd8::exp);
lanewise_generic!(sigmoid_generic, sigmoid8);
lanewise_generic!(softplus_generic, softplus8);

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

#[inline(always)]
pub(crate) fn add_assign_generic<V: Simd8>(y: &mut [f32], x: &[f32]) {
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

dispatched!(
    /// `out = a + b` elementwise (bit-exact across backends).
    vadd, binop_add_generic,
    (a: &[f32], b: &[f32], out: &mut [f32])
);
dispatched!(
    /// `out = a − b` elementwise (bit-exact across backends).
    vsub, binop_sub_generic,
    (a: &[f32], b: &[f32], out: &mut [f32])
);
dispatched!(
    /// `out = a × b` elementwise (bit-exact across backends).
    vmul, binop_mul_generic,
    (a: &[f32], b: &[f32], out: &mut [f32])
);
dispatched!(
    /// `out = a ÷ b` elementwise (bit-exact across backends).
    vdiv, binop_div_generic,
    (a: &[f32], b: &[f32], out: &mut [f32])
);
dispatched!(
    /// `out = x + s` (bit-exact across backends).
    vadd_scalar, add_scalar_generic,
    (x: &[f32], s: f32, out: &mut [f32])
);
dispatched!(
    /// `out = x × s` (bit-exact across backends).
    vmul_scalar, mul_scalar_generic,
    (x: &[f32], s: f32, out: &mut [f32])
);
dispatched!(
    /// `out = √x` elementwise (bit-exact across backends).
    vsqrt, sqrt_generic,
    (x: &[f32], out: &mut [f32])
);
dispatched!(
    /// `out = exp(x)` elementwise (tolerance-class on the SIMD path).
    vexp, exp_generic,
    (x: &[f32], out: &mut [f32])
);
dispatched!(
    /// Numerically stable logistic sigmoid (tolerance-class on SIMD).
    vsigmoid, sigmoid_generic,
    (x: &[f32], out: &mut [f32])
);
dispatched!(
    /// Softplus `x > 20 ? x : ln(1 + exp(x))` (tolerance-class on SIMD;
    /// the scalar backend is that expression in libm, bit for bit).
    vsoftplus, softplus_generic,
    (x: &[f32], out: &mut [f32])
);
dispatched!(
    /// `y += α·x` (unfused; bit-exact across backends).
    vaxpy, axpy_generic,
    (y: &mut [f32], alpha: f32, x: &[f32])
);
dispatched!(
    /// `y += x` elementwise (bit-exact across backends).
    vadd_assign, add_assign_generic,
    (y: &mut [f32], x: &[f32])
);

/// `Σ x[i]` accumulated in `f64`.
///
/// The scalar path sums sequentially (matching the pre-SIMD reduction
/// bit for bit); the SIMD path keeps eight f64 partial sums folded in a
/// fixed lane order — deterministic, but bracketed differently, so the
/// two paths agree only to rounding.
pub fn vsum_f64(x: &[f32]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        crate::note_dispatch();
        // SAFETY: `simd_active()` implies AVX2+FMA were detected.
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
unsafe fn sum_f64_avx(x: &[f32]) -> f64 {
    use std::arch::x86_64::*;
    let mut acc_lo = _mm256_setzero_pd();
    let mut acc_hi = _mm256_setzero_pd();
    let n8 = x.len() - x.len() % 8;
    let mut i = 0;
    while i < n8 {
        let v = _mm256_loadu_ps(x.as_ptr().add(i));
        acc_lo = _mm256_add_pd(acc_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
        acc_hi = _mm256_add_pd(acc_hi, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)));
        i += 8;
    }
    // Fold the eight partials in fixed lane order, then the tail.
    let mut lanes = [0f64; 8];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc_lo);
    _mm256_storeu_pd(lanes.as_mut_ptr().add(4), acc_hi);
    let mut acc = lanes.iter().sum::<f64>();
    for &v in &x[i..] {
        acc += v as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{at_level, detected, levels, ulp_diff, Level};

    fn pseudo(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x as f32 / u32::MAX as f32) * 8.0 - 4.0
            })
            .collect()
    }

    /// `kernel(x, out)` at `level`, returning `out`.
    fn unary(level: Level, kernel: fn(&[f32], &mut [f32]), x: &[f32]) -> Vec<f32> {
        let mut out = vec![0f32; x.len()];
        at_level(level, || kernel(x, &mut out));
        out
    }

    #[test]
    fn exact_kernels_match_bitwise_across_backends() {
        for len in [0usize, 1, 7, 8, 9, 64, 101] {
            let a = pseudo(len, 1);
            let b: Vec<f32> = pseudo(len, 2).iter().map(|v| v + 5.0).collect();
            type K = (&'static str, fn(&[f32], &[f32], &mut [f32]));
            let kernels: [K; 4] = [("add", vadd), ("sub", vsub), ("mul", vmul), ("div", vdiv)];
            for (name, kernel) in kernels {
                let run = |level| {
                    let mut out = vec![0f32; len];
                    at_level(level, || kernel(&a, &b, &mut out));
                    out
                };
                let s = run(Level::Scalar);
                if detected() {
                    for (x, y) in s.iter().zip(&run(Level::Avx2Fma)) {
                        assert_eq!(x.to_bits(), y.to_bits(), "{name} len {len}");
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
        for (name, kernel) in [
            ("exp", vexp as fn(&[f32], &mut [f32])),
            ("sigmoid", vsigmoid),
        ] {
            let s = unary(Level::Scalar, kernel, &x);
            let v = unary(Level::Avx2Fma, kernel, &x);
            for (a, b) in s.iter().zip(&v) {
                assert!(ulp_diff(*a, *b) <= 16, "{name} {a} vs {b}");
            }
        }
    }

    #[test]
    fn sigmoid_scalar_backend_matches_reference_formula() {
        let xs = [-100.0f32, -3.5, -0.0, 0.0, 1e-6, 2.5, 100.0];
        let out = unary(Level::Scalar, vsigmoid, &xs);
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
        let got = unary(Level::Scalar, vsoftplus, &xs);
        for (x, g) in xs.iter().zip(&got) {
            assert_eq!(g.to_bits(), want(*x).to_bits(), "softplus({x:e})");
        }
        if detected() {
            let simd = unary(Level::Avx2Fma, vsoftplus, &xs);
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
