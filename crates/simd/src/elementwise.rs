//! Vectorized elementwise and reduction kernels.
//!
//! The binary ops, scalar ops, `vsqrt`, `vaxpy`, and `vadd_assign` use
//! only IEEE-exact lane operations in the scalar expression order, so
//! their SIMD results are **bitwise identical** to the scalar path.
//! `vexp` and `vsigmoid` use the polynomial [`Simd8::exp`] on the SIMD
//! path and are tolerance-class (a few ULP from libm). `vsum_f64` changes
//! the accumulation bracketing on the SIMD path (eight f64 partial sums)
//! and is likewise tolerance-class; each path is deterministic.

use crate::{simd_active, ScalarX8, Simd8};

/// Generates the dispatched / forced-scalar / forced-SIMD entry trio for
/// a kernel whose generic body is `$generic`.
macro_rules! dispatched {
    ($(#[$doc:meta])* $name:ident, $scalar:ident, $simd:ident, $generic:ident,
     ($($arg:ident : $ty:ty),*)) => {
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
        /// Forced scalar-backend variant of the same kernel.
        pub fn $scalar($($arg: $ty),*) {
            $generic::<ScalarX8>($($arg),*)
        }
        /// Forced SIMD-backend variant; returns `false` (no-op) without
        /// AVX2+FMA.
        pub fn $simd($($arg: $ty),*) -> bool {
            #[cfg(target_arch = "x86_64")]
            if crate::detected() {
                // SAFETY: guarded by `detected()`.
                unsafe { avx::$name($($arg),*) };
                return true;
            }
            let _ = ($(&$arg),*);
            false
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

#[inline(always)]
fn exp_generic<V: Simd8>(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len());
    let n8 = x.len() - x.len() % 8;
    let mut i = 0;
    while i < n8 {
        V::load(&x[i..]).exp().store(&mut out[i..]);
        i += 8;
    }
    if i < x.len() {
        // Run the tail through the same lane math as the body so every
        // element sees one exp implementation per backend.
        let mut pad = [0f32; 8];
        pad[..x.len() - i].copy_from_slice(&x[i..]);
        let r = V::from_array(pad).exp().to_array();
        out[i..].copy_from_slice(&r[..x.len() - i]);
    }
}

#[inline(always)]
fn sigmoid_generic<V: Simd8>(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len());
    let one = V::splat(1.0);
    // Stable two-branch sigmoid, branch resolved lanewise:
    //   x ≥ 0: 1 / (1 + exp(−x));   x < 0: e / (1 + e) with e = exp(x).
    // Both branches share e = exp(−|x|) and one division.
    let sig = |xv: V| {
        let e = xv.select_nonneg(V::zero().sub(xv), xv).exp();
        let num = xv.select_nonneg(one, e);
        num.div(one.add(e))
    };
    let n8 = x.len() - x.len() % 8;
    let mut i = 0;
    while i < n8 {
        sig(V::load(&x[i..])).store(&mut out[i..]);
        i += 8;
    }
    if i < x.len() {
        let mut pad = [0f32; 8];
        pad[..x.len() - i].copy_from_slice(&x[i..]);
        let r = sig(V::from_array(pad)).to_array();
        out[i..].copy_from_slice(&r[..x.len() - i]);
    }
}

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
    vadd, vadd_scalar_backend, vadd_simd_backend, binop_add_generic,
    (a: &[f32], b: &[f32], out: &mut [f32])
);
dispatched!(
    /// `out = a − b` elementwise (bit-exact across backends).
    vsub, vsub_scalar_backend, vsub_simd_backend, binop_sub_generic,
    (a: &[f32], b: &[f32], out: &mut [f32])
);
dispatched!(
    /// `out = a × b` elementwise (bit-exact across backends).
    vmul, vmul_scalar_backend, vmul_simd_backend, binop_mul_generic,
    (a: &[f32], b: &[f32], out: &mut [f32])
);
dispatched!(
    /// `out = a ÷ b` elementwise (bit-exact across backends).
    vdiv, vdiv_scalar_backend, vdiv_simd_backend, binop_div_generic,
    (a: &[f32], b: &[f32], out: &mut [f32])
);
dispatched!(
    /// `out = x + s` (bit-exact across backends).
    vadd_scalar, vadd_scalar_scalar_backend, vadd_scalar_simd_backend, add_scalar_generic,
    (x: &[f32], s: f32, out: &mut [f32])
);
dispatched!(
    /// `out = x × s` (bit-exact across backends).
    vmul_scalar, vmul_scalar_scalar_backend, vmul_scalar_simd_backend, mul_scalar_generic,
    (x: &[f32], s: f32, out: &mut [f32])
);
dispatched!(
    /// `out = √x` elementwise (bit-exact across backends).
    vsqrt, vsqrt_scalar_backend, vsqrt_simd_backend, sqrt_generic,
    (x: &[f32], out: &mut [f32])
);
dispatched!(
    /// `out = exp(x)` elementwise (tolerance-class on the SIMD path).
    vexp, vexp_scalar_backend, vexp_simd_backend, exp_generic,
    (x: &[f32], out: &mut [f32])
);
dispatched!(
    /// Numerically stable logistic sigmoid (tolerance-class on SIMD).
    vsigmoid, vsigmoid_scalar_backend, vsigmoid_simd_backend, sigmoid_generic,
    (x: &[f32], out: &mut [f32])
);
dispatched!(
    /// `y += α·x` (unfused; bit-exact across backends).
    vaxpy, vaxpy_scalar_backend, vaxpy_simd_backend, axpy_generic,
    (y: &mut [f32], alpha: f32, x: &[f32])
);
dispatched!(
    /// `y += x` elementwise (bit-exact across backends).
    vadd_assign, vadd_assign_scalar_backend, vadd_assign_simd_backend, add_assign_generic,
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

/// Forced sequential-accumulation sum (the scalar reference).
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
    use crate::ulp_diff;

    fn pseudo(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x as f32 / u32::MAX as f32) * 8.0 - 4.0
            })
            .collect()
    }

    #[test]
    fn exact_kernels_match_bitwise_across_backends() {
        for len in [0usize, 1, 7, 8, 9, 64, 101] {
            let a = pseudo(len, 1);
            let b: Vec<f32> = pseudo(len, 2).iter().map(|v| v + 5.0).collect();
            let mut s = vec![0f32; len];
            let mut v = vec![0f32; len];
            type K = (
                &'static str,
                fn(&[f32], &[f32], &mut [f32]),
                fn(&[f32], &[f32], &mut [f32]) -> bool,
            );
            let kernels: [K; 4] = [
                ("add", vadd_scalar_backend, vadd_simd_backend),
                ("sub", vsub_scalar_backend, vsub_simd_backend),
                ("mul", vmul_scalar_backend, vmul_simd_backend),
                ("div", vdiv_scalar_backend, vdiv_simd_backend),
            ];
            for (name, scalar, simd) in kernels {
                scalar(&a, &b, &mut s);
                if simd(&a, &b, &mut v) {
                    for (x, y) in s.iter().zip(&v) {
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
        let mut got = want.clone();
        for (y, xv) in want.iter_mut().zip(&x) {
            *y += *xv * 0.37;
        }
        if !vaxpy_simd_backend(&mut got, 0.37, &x) {
            vaxpy_scalar_backend(&mut got, 0.37, &x);
        }
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn exp_and_sigmoid_within_ulps_of_scalar() {
        let x = pseudo(100, 5);
        let mut s = vec![0f32; 100];
        let mut v = vec![0f32; 100];
        vexp_scalar_backend(&x, &mut s);
        if vexp_simd_backend(&x, &mut v) {
            for (a, b) in s.iter().zip(&v) {
                assert!(ulp_diff(*a, *b) <= 16, "exp {a} vs {b}");
            }
        }
        vsigmoid_scalar_backend(&x, &mut s);
        if vsigmoid_simd_backend(&x, &mut v) {
            for (a, b) in s.iter().zip(&v) {
                assert!(ulp_diff(*a, *b) <= 16, "sigmoid {a} vs {b}");
            }
        }
    }

    #[test]
    fn sigmoid_scalar_backend_matches_reference_formula() {
        let xs = [-100.0f32, -3.5, -0.0, 0.0, 1e-6, 2.5, 100.0];
        let mut out = vec![0f32; xs.len()];
        vsigmoid_scalar_backend(&xs, &mut out);
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
    fn sum_paths_agree_to_rounding() {
        let x = pseudo(1003, 6);
        let seq = sum_f64_scalar(&x);
        let got = vsum_f64(&x);
        assert!((seq - got).abs() <= 1e-6 * seq.abs().max(1.0));
    }
}
