//! Packed register-tile GEMM microkernel.
//!
//! `out += a[m×k] · b[k×n]` built BLIS-style: B is packed into
//! zero-padded `KC×NR` column panels and A into `MR×KC` row panels (both
//! checked out of the `peb-pool` scratch pool), then an `MR×NR` = 8×8
//! register tile accumulates one fused multiply–add chain per output
//! element.
//!
//! # Accumulation order
//!
//! For every output element the `kc` blocks ascend and the `kk` offsets
//! within a block ascend, independent of how the caller partitions rows —
//! so results are bitwise reproducible at any `PEB_THREADS` and any
//! caller-side row panelling, for a fixed dispatch level. The SIMD path
//! fuses each multiply–add (FMA), so it differs from the scalar path by
//! bounded ULPs; the scalar path keeps unfused `mul`+`add`.

use crate::{simd_active, ScalarX8, Simd8};

/// Register-tile rows.
pub const MR: usize = 8;
/// Register-tile columns (one vector).
pub const NR: usize = 8;
/// `k`-dimension cache block: one packed `KC×NC` panel of `b` stays hot
/// while row panels of `a` stream over it.
pub const KC: usize = 256;
/// `n`-dimension cache block bounding the packed `b` panel.
pub const NC: usize = 1024;

/// Dispatched GEMM: `out += a · b`, `out` pre-zeroed or pre-accumulated
/// by the caller.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        crate::note_dispatch();
        // SAFETY: `simd_active()` implies AVX2+FMA were detected.
        unsafe { gemm_avx2(a, b, out, m, k, n) };
        return;
    }
    gemm_generic::<ScalarX8>(a, b, out, m, k, n)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_avx2(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_generic::<crate::AvxX8>(a, b, out, m, k, n)
}

#[inline(always)]
fn gemm_generic<V: Simd8>(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let mut apack = peb_pool::PoolBuf::<f32>::cleared(m.div_ceil(MR) * MR * KC.min(k));
    let mut bpack = peb_pool::PoolBuf::<f32>::cleared(NC.min(n).div_ceil(NR) * NR * KC.min(k));
    for jc in (0..n).step_by(NC) {
        let nb = NC.min(n - jc);
        for kc in (0..k).step_by(KC) {
            let kb = KC.min(k - kc);
            pack_b(b, &mut bpack, n, jc, kc, nb, kb);
            pack_a(a, &mut apack, k, kc, kb, m);
            for ir in (0..m).step_by(MR) {
                let mb = MR.min(m - ir);
                let ap = &apack[(ir / MR) * kb * MR..][..kb * MR];
                for jr in (0..nb).step_by(NR) {
                    let nr = NR.min(nb - jr);
                    let bp = &bpack[(jr / NR) * kb * NR..][..kb * NR];
                    let acc = tile::<V>(ap, bp, kb);
                    if nr == NR {
                        for (ii, accv) in acc.iter().enumerate().take(mb) {
                            let row = &mut out[(ir + ii) * n + jc + jr..][..NR];
                            V::load(row).add(*accv).store(row);
                        }
                    } else {
                        // Right-edge tile: only `nr` columns are real.
                        for (ii, accv) in acc.iter().enumerate().take(mb) {
                            let lane = accv.to_array();
                            let row = &mut out[(ir + ii) * n + jc + jr..][..nr];
                            for (o, v) in row.iter_mut().zip(lane) {
                                *o += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// 8×8 register tile: `acc[ii][jj] = Σ_kk ap[kk][ii] · bp[kk][jj]`.
#[inline(always)]
fn tile<V: Simd8>(ap: &[f32], bp: &[f32], kb: usize) -> [V; MR] {
    let mut acc = [V::zero(); MR];
    for kk in 0..kb {
        let bv = V::load(&bp[kk * NR..kk * NR + NR]);
        let arow = &ap[kk * MR..kk * MR + MR];
        for (ii, accv) in acc.iter_mut().enumerate() {
            *accv = V::splat(arow[ii]).mul_add(bv, *accv);
        }
    }
    acc
}

/// Packs `a[0..m, kc..kc+kb]` into `MR`-interleaved row panels:
/// `buf[(ir/MR)·kb·MR + kk·MR + ii] = a[(ir+ii)·k + kc+kk]`, zero-padding
/// rows past `m`.
fn pack_a(a: &[f32], buf: &mut Vec<f32>, k: usize, kc: usize, kb: usize, m: usize) {
    buf.clear();
    for ir in (0..m).step_by(MR) {
        let mb = MR.min(m - ir);
        for kk in 0..kb {
            for ii in 0..MR {
                buf.push(if ii < mb {
                    a[(ir + ii) * k + kc + kk]
                } else {
                    0.0
                });
            }
        }
    }
}

/// Packs `b[kc..kc+kb, jc..jc+nb]` into `NR`-wide column panels:
/// `buf[(jr/NR)·kb·NR + kk·NR + jj] = b[(kc+kk)·n + jc+jr+jj]`,
/// zero-padding columns past `nb`.
fn pack_b(b: &[f32], buf: &mut Vec<f32>, n: usize, jc: usize, kc: usize, nb: usize, kb: usize) {
    buf.clear();
    for jr in (0..nb).step_by(NR) {
        let nr = NR.min(nb - jr);
        for kk in 0..kb {
            let row = &b[(kc + kk) * n + jc + jr..];
            buf.extend_from_slice(&row[..nr]);
            buf.resize(buf.len() + (NR - nr), 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{at_level, detected, ulp_diff, Level};

    fn pseudo(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn naive(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
    }

    /// `a · b` at `level` into a zeroed output.
    fn gemm_at(level: Level, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0f32; m * n];
        at_level(level, || gemm(a, b, &mut out, m, k, n));
        out
    }

    /// Reassociated k-sums can cancel, so a pure ULP bound on the result
    /// blows up near zero; accept either tight ULPs or an absolute error
    /// small against the Σ|a||b| ≈ k work that produced the element.
    fn close(w: f32, g: f32, k: usize) -> bool {
        ulp_diff(w, g) <= 256 || (w - g).abs() <= k as f32 * 1e-6
    }

    #[test]
    fn scalar_backend_tracks_naive_within_ulps() {
        // The packed kernel brackets k-sums per KC block, so it is not
        // bitwise equal to the naive triple loop — but stays within tight
        // ULP bounds for unit-scale inputs.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (9, 300, 17),
            (64, 64, 64),
            (13, 7, 130),
        ] {
            let a = pseudo(m * k, 1);
            let b = pseudo(k * n, 2);
            let mut want = vec![0f32; m * n];
            naive(&a, &b, &mut want, m, k, n);
            let got = gemm_at(Level::Scalar, &a, &b, m, k, n);
            for (w, g) in want.iter().zip(&got) {
                assert!(close(*w, *g, k), "({m},{k},{n}): {w} vs {g}");
            }
        }
    }

    #[test]
    fn simd_backend_tracks_scalar_within_ulps() {
        for &(m, k, n) in &[(8, 8, 8), (65, 300, 33), (7, 513, 9)] {
            let a = pseudo(m * k, 3);
            let b = pseudo(k * n, 4);
            if !detected() {
                return; // no AVX2 on this machine
            }
            let scalar = gemm_at(Level::Scalar, &a, &b, m, k, n);
            let simd = gemm_at(Level::Avx2Fma, &a, &b, m, k, n);
            for (s, v) in scalar.iter().zip(&simd) {
                assert!(close(*s, *v, k), "({m},{k},{n}): {s} vs {v}");
            }
        }
    }

    #[test]
    fn simd_backend_is_self_deterministic() {
        let (m, k, n) = (33, 129, 65);
        let a = pseudo(m * k, 5);
        let b = pseudo(k * n, 6);
        if !detected() {
            return;
        }
        let r1 = gemm_at(Level::Avx2Fma, &a, &b, m, k, n);
        let r2 = gemm_at(Level::Avx2Fma, &a, &b, m, k, n);
        for (x, y) in r1.iter().zip(&r2) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
