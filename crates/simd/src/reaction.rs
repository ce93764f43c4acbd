//! The PEB solver's Strang reaction half-step as one 8-lane kernel.
//!
//! Per cell, over a sub-step `δt`:
//!
//! ```text
//! (A, B) ← RK4 of Ȧ = Ḃ = −kr·A·B, then clamped at 0
//! I      ← I · exp(−kc · Ā · δt),   Ā = ½(A_before + A_after)
//! ```
//!
//! The kernel is **bit-exact class**: every lane performs the scalar
//! expression sequence with IEEE-exact operations only (`+ − ×`, `max`,
//! `min`, `floor`, and an integer-built `2ⁿ`), including the exponential —
//! [`exp_exact`] is the Cephes range-reduction/polynomial of
//! [`Simd8::exp`]'s AVX backend written with unfused `mul`/`add`. Results
//! are therefore bitwise identical across backends and independent of how
//! a caller splits a field into slices (ragged tails run the same lanes
//! on a zero-padded group).

use crate::{simd_active, ScalarX8, Simd8};

/// `exp(x)` from IEEE-exact lane operations only, so every backend
/// returns the same bits. Within 2 ULP of libm where the result is a
/// normal number; inputs are clamped to `±88.376` (NaN clamps low), so
/// `x ≲ −87.7` flushes to `+0.0` and large `x` saturates at
/// `exp(88.376) ≈ 2.4e38`.
#[inline(always)]
pub(crate) fn exp_exact<V: Simd8>(x: V) -> V {
    const EXP_HI: f32 = 88.376_26;
    const EXP_LO: f32 = -88.376_26;
    const C1: f32 = 0.693_359_4; // ln2 high part
    const C2: f32 = -2.121_944_4e-4; // ln2 low part
    const P: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_5e-1,
        5.000_000_3e-1,
    ];
    let x = x.max(V::splat(EXP_LO)).min(V::splat(EXP_HI));
    // n = floor(x / ln2 + 1/2)
    let n = x
        .mul(V::splat(std::f32::consts::LOG2_E))
        .add(V::splat(0.5))
        .floor();
    // r = x − n·ln2, split into high/low parts for accuracy.
    let r = x.sub(n.mul(V::splat(C1))).sub(n.mul(V::splat(C2)));
    // Polynomial for exp(r) on r ∈ [−ln2/2, ln2/2].
    let mut y = V::splat(P[0]);
    for p in &P[1..] {
        y = y.mul(r).add(V::splat(*p));
    }
    let y = y.mul(r.mul(r)).add(r).add(V::splat(1.0));
    y.mul(n.pow2n())
}

/// Sub-step constants, splatted once per call.
#[derive(Clone, Copy)]
struct Consts<V> {
    neg_kr: V,
    neg_kc: V,
    dt: V,
    half_dt: V,
    dt_sixth: V,
}

impl<V: Simd8> Consts<V> {
    /// `Ȧ = Ḃ = −kr·(A + h)·(B + h)`, the RK4 stage derivative.
    // A plain fn, not a closure: closures are not `inline(always)`, and
    // an out-of-line body would call every AVX lane op as a function.
    #[inline(always)]
    fn rate(&self, a: V, b: V, h: V) -> V {
        self.neg_kr.mul(a.add(h)).mul(b.add(h))
    }
}

/// Loads up to eight floats, zero-padding the missing lanes.
#[inline(always)]
fn load_padded<V: Simd8>(s: &[f32]) -> V {
    let mut p = [0f32; 8];
    p[..s.len()].copy_from_slice(s);
    V::from_array(p)
}

/// One half-step for eight cells; returns the new `(A, B, I)`.
#[inline(always)]
fn cells8<V: Simd8>(a0: V, b0: V, i0: V, c: Consts<V>) -> (V, V, V) {
    let two = V::splat(2.0);
    let k1 = c.neg_kr.mul(a0).mul(b0);
    let k2 = c.rate(a0, b0, c.half_dt.mul(k1));
    let k3 = c.rate(a0, b0, c.half_dt.mul(k2));
    let k4 = c.rate(a0, b0, c.dt.mul(k3));
    let delta = c.dt_sixth.mul(k1.add(two.mul(k2)).add(two.mul(k3)).add(k4));
    let a1 = a0.add(delta).max(V::zero());
    let b1 = b0.add(delta).max(V::zero());
    let mean_a = V::splat(0.5).mul(a0.add(a1));
    let i1 = i0.mul(exp_exact(c.neg_kc.mul(mean_a).mul(c.dt)));
    (a1, b1, i1)
}

#[inline(always)]
fn half_step_generic<V: Simd8>(
    acid: &mut [f32],
    base: &mut [f32],
    inhibitor: &mut [f32],
    kr: f32,
    kc: f32,
    dt: f32,
) {
    let len = acid.len();
    assert!(base.len() == len && inhibitor.len() == len);
    let c = Consts {
        neg_kr: V::splat(-kr),
        neg_kc: V::splat(-kc),
        dt: V::splat(dt),
        half_dt: V::splat(0.5 * dt),
        dt_sixth: V::splat(dt / 6.0),
    };
    let n8 = len - len % 8;
    let mut i = 0;
    while i < n8 {
        let (a, b, inh) = cells8(
            V::load(&acid[i..]),
            V::load(&base[i..]),
            V::load(&inhibitor[i..]),
            c,
        );
        a.store(&mut acid[i..]);
        b.store(&mut base[i..]);
        inh.store(&mut inhibitor[i..]);
        i += 8;
    }
    if i < len {
        // Ragged tail: the same lanes on a zero-padded group.
        let (a, b, inh) = cells8(
            load_padded(&acid[i..]),
            load_padded(&base[i..]),
            load_padded(&inhibitor[i..]),
            c,
        );
        acid[i..].copy_from_slice(&a.to_array()[..len - i]);
        base[i..].copy_from_slice(&b.to_array()[..len - i]);
        inhibitor[i..].copy_from_slice(&inh.to_array()[..len - i]);
    }
}

#[inline(always)]
fn exp_exact_generic<V: Simd8>(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len());
    for (xs, os) in x.chunks(8).zip(out.chunks_mut(8)) {
        os.copy_from_slice(&exp_exact(load_padded::<V>(xs)).to_array()[..xs.len()]);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx {
    use crate::AvxX8;

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn half_step(
        acid: &mut [f32],
        base: &mut [f32],
        inhibitor: &mut [f32],
        kr: f32,
        kc: f32,
        dt: f32,
    ) {
        super::half_step_generic::<AvxX8>(acid, base, inhibitor, kr, kc, dt)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp_exact(x: &[f32], out: &mut [f32]) {
        super::exp_exact_generic::<AvxX8>(x, out)
    }
}

/// Advances `(acid, base, inhibitor)` in place by one reaction half-step
/// of length `dt` (see the module docs). Bitwise identical at every
/// dispatch level and under any split of the fields into sub-slices.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub fn half_step(
    acid: &mut [f32],
    base: &mut [f32],
    inhibitor: &mut [f32],
    kr: f32,
    kc: f32,
    dt: f32,
) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        crate::note_dispatch();
        // SAFETY: `simd_active()` implies AVX2+FMA were detected.
        unsafe { avx::half_step(acid, base, inhibitor, kr, kc, dt) };
        return;
    }
    half_step_generic::<ScalarX8>(acid, base, inhibitor, kr, kc, dt)
}

/// Forced scalar-backend variant of [`half_step`].
pub fn half_step_scalar(
    acid: &mut [f32],
    base: &mut [f32],
    inhibitor: &mut [f32],
    kr: f32,
    kc: f32,
    dt: f32,
) {
    half_step_generic::<ScalarX8>(acid, base, inhibitor, kr, kc, dt)
}

/// Forced SIMD-backend variant of [`half_step`]; returns `false` (no-op)
/// without AVX2+FMA.
pub fn half_step_simd(
    acid: &mut [f32],
    base: &mut [f32],
    inhibitor: &mut [f32],
    kr: f32,
    kc: f32,
    dt: f32,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if crate::detected() {
        // SAFETY: guarded by `detected()`.
        unsafe { avx::half_step(acid, base, inhibitor, kr, kc, dt) };
        return true;
    }
    let _ = (acid, base, inhibitor, kr, kc, dt);
    false
}

/// The kernel's exponential on the scalar backend: `out[i] = exp(x[i])`.
pub fn exp_exact_scalar(x: &[f32], out: &mut [f32]) {
    exp_exact_generic::<ScalarX8>(x, out)
}

/// The kernel's exponential on the SIMD backend; returns `false` (no-op)
/// without AVX2+FMA.
pub fn exp_exact_simd(x: &[f32], out: &mut [f32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if crate::detected() {
        // SAFETY: guarded by `detected()`.
        unsafe { avx::exp_exact(x, out) };
        return true;
    }
    let _ = (x, out);
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_exact_saturates_at_the_clamps_and_swallows_nan() {
        let x = [-1e9f32, -100.0, -88.0, 0.0, 88.0, 100.0, 1e9, f32::NAN];
        let mut got = [0f32; 8];
        exp_exact_scalar(&x, &mut got);
        assert_eq!(got[0].to_bits(), 0);
        assert_eq!(got[1].to_bits(), 0);
        assert_eq!(got[2].to_bits(), 0, "below the normal range flushes");
        assert_eq!(got[3], 1.0);
        assert!(crate::ulp_diff(got[4], 88f32.exp()) <= 2);
        assert!(got[5] > 2.4e38 && got[5].is_finite(), "saturates finite");
        assert_eq!(got[6].to_bits(), got[5].to_bits());
        assert_eq!(got[7].to_bits(), 0, "NaN clamps low");
        let mut simd = [1f32; 8];
        if exp_exact_simd(&x, &mut simd) {
            assert_eq!(got.map(f32::to_bits), simd.map(f32::to_bits));
        }
    }

    #[test]
    fn half_step_matches_the_plain_f32_formula_bitwise() {
        // The scalar expression the kernel promises to reproduce, with
        // the kernel's own exponential.
        let (kr, kc, dt) = (8.6993f32, 0.9f32, 0.05f32);
        let reference = |a0: f32, b0: f32, i0: f32| {
            let f = |a: f32, b: f32| -kr * a * b;
            let k1 = f(a0, b0);
            let k2 = f(a0 + 0.5 * dt * k1, b0 + 0.5 * dt * k1);
            let k3 = f(a0 + 0.5 * dt * k2, b0 + 0.5 * dt * k2);
            let k4 = f(a0 + dt * k3, b0 + dt * k3);
            let delta = dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
            let clamp = |v: f32| if v > 0.0 { v } else { 0.0 };
            let (a1, b1) = (clamp(a0 + delta), clamp(b0 + delta));
            let mut e = [0f32];
            exp_exact_scalar(&[-kc * (0.5 * (a0 + a1)) * dt], &mut e);
            (a1, b1, i0 * e[0])
        };
        let n = 13; // one full group + a ragged tail
        let mut a: Vec<f32> = (0..n).map(|i| i as f32 / n as f32).collect();
        let mut b: Vec<f32> = (0..n).map(|i| 0.4 - 0.03 * i as f32).collect();
        let mut inh: Vec<f32> = (0..n).map(|i| 1.0 - 0.05 * i as f32).collect();
        let want: Vec<_> = (0..n).map(|i| reference(a[i], b[i], inh[i])).collect();
        half_step(&mut a, &mut b, &mut inh, kr, kc, dt);
        for i in 0..n {
            assert_eq!(a[i].to_bits(), want[i].0.to_bits(), "acid[{i}]");
            assert_eq!(b[i].to_bits(), want[i].1.to_bits(), "base[{i}]");
            assert_eq!(inh[i].to_bits(), want[i].2.to_bits(), "inhibitor[{i}]");
        }
    }
}
