//! Vectorized selective-scan forward recurrence.
//!
//! The scan's channel lanes are mutually independent, so eight adjacent
//! channels ride in one vector: each lane's recurrence keeps exactly the
//! per-lane expression order of the scalar loop. The scalar backend is
//! therefore **bitwise identical** to the original per-lane code; the
//! SIMD backend fuses the multiply–adds and uses the polynomial
//! [`Simd8::exp`], so it is tolerance-class (but deterministic for a
//! fixed level, at any `PEB_THREADS`).
//!
//! Layout contract (`[L, C]` row-major activations, as in `peb-mamba`):
//!
//! * `u`/`delta` rows hold channels contiguously, so the group
//!   `ci0..ci0+8` loads directly;
//! * `a` is pre-packed per group by [`pack_a_lanes8`] into `[N][8]`
//!   interleaved order;
//! * the running state `h` is `[N][8]` interleaved;
//! * `y` and the optional state trajectory are written through
//!   [`peb_par::UnsafeSlice`] because a lane group owns strided
//!   positions of the shared output.

use peb_par::UnsafeSlice;

use crate::{simd_active, ScalarX8, Simd8};

/// Packs rows `ci0..ci0+8` of the `[C, N]` state matrix into interleaved
/// `[N][8]` order: `out[ni·8 + j] = a[(ci0+j)·n + ni]`.
pub fn pack_a_lanes8(a: &[f32], n: usize, ci0: usize, out: &mut Vec<f32>) {
    out.clear();
    for ni in 0..n {
        for j in 0..8 {
            out.push(a[(ci0 + j) * n + ni]);
        }
    }
}

/// Runs the forward recurrence for the eight channel lanes `ci0..ci0+8`.
///
/// Per time step `t` and state index `ni`, each lane computes the scalar
/// recurrence
///
/// ```text
/// e  = exp(Δ_t · a[ni]);  h[ni] = e·h[ni] + (Δ_t·u_t)·b_t[ni]
/// y_t = Σ_ni c_t[ni]·h[ni] + d·u_t
/// ```
///
/// `h` (length `n·8`, `[N][8]` interleaved) carries the state and must be
/// zeroed by the caller before the first time step. When `h_traj` is
/// `Some`, the state after each step is transposed into the trajectory's
/// native `[(t·ch + ci)·n + ni]` layout.
///
/// # Safety
///
/// The caller must own columns `ci0..ci0+8` of `y` (positions `t·ch+ci`)
/// and the corresponding `h_traj` rows exclusively — the standard
/// `UnsafeSlice` disjoint-writes contract of the lane-parallel scan.
/// Requires `ci0 + 8 <= ch`.
#[allow(clippy::too_many_arguments)]
pub unsafe fn scan_forward_lanes8(
    u: &[f32],
    delta: &[f32],
    a_pack: &[f32],
    b: &[f32],
    c: &[f32],
    skip8: &[f32],
    h: &mut [f32],
    y: &UnsafeSlice<f32>,
    h_traj: Option<&UnsafeSlice<f32>>,
    l: usize,
    ch: usize,
    n: usize,
    ci0: usize,
) {
    debug_assert!(ci0 + 8 <= ch);
    debug_assert!(h.len() >= n * 8 && a_pack.len() >= n * 8 && skip8.len() >= 8);
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        crate::note_dispatch();
        // SAFETY: `simd_active()` implies AVX2+FMA were detected; the
        // aliasing contract is the caller's.
        unsafe { scan_fwd_avx2(u, delta, a_pack, b, c, skip8, h, y, h_traj, l, ch, n, ci0) };
        return;
    }
    // SAFETY: aliasing contract is the caller's.
    unsafe {
        scan_fwd_generic::<ScalarX8>(u, delta, a_pack, b, c, skip8, h, y, h_traj, l, ch, n, ci0)
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn scan_fwd_avx2(
    u: &[f32],
    delta: &[f32],
    a_pack: &[f32],
    b: &[f32],
    c: &[f32],
    skip8: &[f32],
    h: &mut [f32],
    y: &UnsafeSlice<f32>,
    h_traj: Option<&UnsafeSlice<f32>>,
    l: usize,
    ch: usize,
    n: usize,
    ci0: usize,
) {
    // SAFETY: forwarded caller contract.
    unsafe {
        scan_fwd_generic::<crate::AvxX8>(u, delta, a_pack, b, c, skip8, h, y, h_traj, l, ch, n, ci0)
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn scan_fwd_generic<V: Simd8>(
    u: &[f32],
    delta: &[f32],
    a_pack: &[f32],
    b: &[f32],
    c: &[f32],
    skip8: &[f32],
    h: &mut [f32],
    y: &UnsafeSlice<f32>,
    h_traj: Option<&UnsafeSlice<f32>>,
    l: usize,
    ch: usize,
    n: usize,
    ci0: usize,
) {
    let skipv = V::load(skip8);
    for t in 0..l {
        let dtv = V::load(&delta[t * ch + ci0..]);
        let utv = V::load(&u[t * ch + ci0..]);
        let dtu = dtv.mul(utv);
        let mut acc = V::zero();
        for ni in 0..n {
            let av = V::load(&a_pack[ni * 8..]);
            let e = dtv.mul(av).exp();
            let hs = &mut h[ni * 8..ni * 8 + 8];
            // h = e·h + (Δ·u)·b — unfused on the scalar backend, matching
            // `e * *hv + dtu * bd[..]` bit for bit.
            let hv = e.mul_add(V::load(hs), dtu.mul(V::splat(b[t * n + ni])));
            hv.store(hs);
            acc = V::splat(c[t * n + ni]).mul_add(hv, acc);
        }
        let yv = skipv.mul_add(utv, acc);
        // SAFETY: lane group owns y positions t·ch+ci0..+8 (caller
        // contract).
        yv.store(unsafe { y.slice_mut(t * ch + ci0..t * ch + ci0 + 8) });
        if let Some(traj) = h_traj {
            // The group's trajectory rows for step t are the contiguous
            // block [(t·ch+ci0)·n, (t·ch+ci0+8)·n): transpose [N][8] → 8
            // rows of n.
            // SAFETY: caller contract, as above.
            let dst = unsafe { traj.slice_mut((t * ch + ci0) * n..(t * ch + ci0 + 8) * n) };
            for (ni, hs) in h.chunks_exact(8).enumerate().take(n) {
                for (j, v) in hs.iter().enumerate() {
                    dst[j * n + ni] = *v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{at_level, Level};

    /// The original per-lane scalar recurrence, as written in peb-mamba.
    #[allow(clippy::too_many_arguments)]
    fn reference(
        u: &[f32],
        delta: &[f32],
        a: &[f32],
        b: &[f32],
        c: &[f32],
        d: &[f32],
        l: usize,
        ch: usize,
        n: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut y = vec![0f32; l * ch];
        let mut traj = vec![0f32; l * ch * n];
        let mut h = vec![0f32; n];
        for ci in 0..ch {
            h.iter_mut().for_each(|v| *v = 0.0);
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
        (y, traj)
    }

    fn pseudo(len: usize, salt: u32, lo: f32, hi: f32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                lo + (x as f32 / u32::MAX as f32) * (hi - lo)
            })
            .collect()
    }

    #[test]
    fn scalar_backend_matches_per_lane_loop_bitwise() {
        let (l, ch, n) = (11, 16, 5);
        let u = pseudo(l * ch, 1, -1.0, 1.0);
        let delta = pseudo(l * ch, 2, 0.05, 0.5);
        let a = pseudo(ch * n, 3, -1.5, -0.2);
        let b = pseudo(l * n, 4, -1.0, 1.0);
        let c = pseudo(l * n, 5, -1.0, 1.0);
        let d = pseudo(ch, 6, -1.0, 1.0);
        let (want_y, want_traj) = reference(&u, &delta, &a, &b, &c, &d, l, ch, n);

        let mut y = vec![0f32; l * ch];
        let mut traj = vec![0f32; l * ch * n];
        {
            let ys = UnsafeSlice::new(&mut y);
            let ts = UnsafeSlice::new(&mut traj);
            let mut apack = Vec::new();
            let mut h = vec![0f32; n * 8];
            for ci0 in (0..ch).step_by(8) {
                pack_a_lanes8(&a, n, ci0, &mut apack);
                h.iter_mut().for_each(|v| *v = 0.0);
                // SAFETY: single-threaded test; groups disjoint.
                at_level(Level::Scalar, || unsafe {
                    scan_forward_lanes8(
                        &u,
                        &delta,
                        &apack,
                        &b,
                        &c,
                        &d[ci0..],
                        &mut h,
                        &ys,
                        Some(&ts),
                        l,
                        ch,
                        n,
                        ci0,
                    )
                });
            }
        }
        for (w, g) in want_y.iter().zip(&y) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
        for (w, g) in want_traj.iter().zip(&traj) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
    }
}
