//! Register-tile GEMM microkernel.
//!
//! `out = (0 + a[m×k] · b[k×n]) + bias`, built BLIS-style: B is packed
//! into zero-padded `KC×NR` column panels (checked out of the `peb-pool`
//! scratch pool), and an `MR×NR` = 8×8 register tile accumulates one
//! fused multiply–add chain per output element, splatting each `a`
//! element straight from its row-major row (rows past `m` repeat the
//! last row; those lanes are never written back).
//!
//! The kernel **overwrites** its output: the first `kc` block adds its
//! tile to zero in registers (`0 + acc`, the value a zeroed output's load
//! gave), and later blocks add to what the earlier ones stored. So the
//! caller hands over an output with any contents
//! (`peb_pool::take_for_overwrite`).
//!
//! # Accumulation order
//!
//! For every output element the `kc` blocks ascend and the `kk` offsets
//! within a block ascend, independent of how the caller partitions rows
//! or columns — so results are bitwise reproducible at any `PEB_THREADS`
//! and any caller-side row or column panelling, for a fixed dispatch
//! level. The SIMD path fuses each multiply–add (FMA), so it differs from
//! the scalar path by bounded ULPs; the scalar path keeps unfused
//! `mul`+`add`.
//!
//! # Bias epilogue
//!
//! A [`Bias`] is added in the write-back of the last `kc` block, after
//! the element's last product: `(0 + a·b) + bias`. That is the value
//! the GEMM followed by a separate bias add produces, bit for bit, for
//! every `k` (with `k = 0` the write-back is `0 + bias`).

use std::ops::Range;

use crate::Simd8;

/// Register-tile rows.
pub const MR: usize = 8;
/// Register-tile columns (one vector).
pub const NR: usize = 8;
/// `k`-dimension cache block: one packed `KC×NC` panel of `b` stays hot
/// while row panels of `a` stream over it.
pub const KC: usize = 256;
/// `n`-dimension cache block bounding the packed `b` panel.
pub const NC: usize = 1024;

/// A bias broadcast over the GEMM output and added in its write-back.
#[derive(Debug, Clone, Copy)]
pub enum Bias<'a> {
    /// No bias.
    None,
    /// `bias[i]` is added to every element of output row `i` (length `m`).
    Row(&'a [f32]),
    /// `bias[j]` is added to every element of output column `j` (length
    /// `n`).
    Col(&'a [f32]),
}

impl<'a> Bias<'a> {
    /// The bias for output rows `rows`: a row bias is sliced, a column
    /// bias is shared by every row panel.
    pub fn rows(self, rows: Range<usize>) -> Bias<'a> {
        match self {
            Bias::Row(b) => Bias::Row(&b[rows]),
            other => other,
        }
    }

    fn check(self, m: usize, n: usize) {
        match self {
            Bias::None => {}
            Bias::Row(b) => assert_eq!(b.len(), m, "row bias length"),
            Bias::Col(b) => assert_eq!(b.len(), n, "column bias length"),
        }
    }

    /// The bias of output element `(i, j)`.
    #[inline(always)]
    fn at(self, i: usize, j: usize) -> Option<f32> {
        match self {
            Bias::None => None,
            Bias::Row(b) => Some(b[i]),
            Bias::Col(b) => Some(b[j]),
        }
    }

    /// The bias of output elements `(i, j..j + NR)` as one vector.
    #[inline(always)]
    fn lanes<V: Simd8>(self, i: usize, j: usize) -> Option<V> {
        match self {
            Bias::None => None,
            Bias::Row(b) => Some(V::splat(b[i])),
            Bias::Col(b) => Some(V::load(&b[j..j + NR])),
        }
    }
}

/// Dispatched GEMM: `out = (0 + a · b) + bias`. The previous contents of
/// `out` are never read.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k`, `n`.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize, bias: Bias) {
    assert_eq!(out.len(), m * n, "gemm output length");
    // SAFETY: `out` holds the whole `m×n` output and is borrowed
    // exclusively for the call.
    unsafe { gemm_cols(a, b, out.as_mut_ptr(), m, k, n, 0..n, bias) }
}

dispatched! {
    /// [`gemm`] restricted to output columns `cols`, written through a raw
    /// pointer so that disjoint column blocks of one output can run
    /// concurrently. Columns outside `cols` are neither read nor written;
    /// columns inside are overwritten.
    ///
    /// # Safety
    ///
    /// `out` must be valid for reads and writes of `m·n` elements (row-major,
    /// row stride `n`), and no other thread may access columns `cols` of any
    /// row while the call runs.
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with `m`, `k`, `n`, or `cols`
    /// leaves `0..n`.
    pub unsafe fn gemm_cols<V>(
        a: &[f32],
        b: &[f32],
        out: *mut f32,
        m: usize,
        k: usize,
        n: usize,
        cols: Range<usize>,
        bias: Bias,
    ) {
        assert_eq!(a.len(), m * k, "gemm lhs length");
        assert_eq!(b.len(), k * n, "gemm rhs length");
        assert!(cols.start <= cols.end && cols.end <= n, "gemm column range");
        bias.check(m, n);
        if m == 0 || cols.is_empty() {
            return;
        }
        // One output row segment: `len` columns from `j` of row `i`.
        // SAFETY: at every use below, `i < m` and `j + len <= cols.end <=
        // n`, so the segment lies inside the caller's `m·n` output and inside
        // the columns it handed over; segments never overlap within this
        // call.
        let row = |i: usize, j: usize, len: usize| unsafe {
            std::slice::from_raw_parts_mut(out.add(i * n + j), len)
        };
        if k == 0 {
            // No products: the write-back is `0 + bias`.
            for i in 0..m {
                for (jj, o) in row(i, cols.start, cols.len()).iter_mut().enumerate() {
                    *o = bias.at(i, cols.start + jj).map_or(0.0, |bv| 0.0 + bv);
                }
            }
            return;
        }
        let width = cols.len();
        let mut bpack =
            peb_pool::PoolBuf::<f32>::cleared(NC.min(width).div_ceil(NR) * NR * KC.min(k));
        for jc in (cols.start..cols.end).step_by(NC) {
            let nb = NC.min(cols.end - jc);
            for kc in (0..k).step_by(KC) {
                let kb = KC.min(k - kc);
                let (first, last) = (kc == 0, kc + kb == k);
                pack_b(b, &mut bpack, n, jc, kc, nb, kb);
                for ir in (0..m).step_by(MR) {
                    let mb = MR.min(m - ir);
                    // Rows past `m` repeat the last row; their lanes are
                    // never written back.
                    let arows: [&[f32]; MR] =
                        std::array::from_fn(|ii| &a[(ir + ii).min(m - 1) * k + kc..][..kb]);
                    for jr in (0..nb).step_by(NR) {
                        let nr = NR.min(nb - jr);
                        let bp = &bpack[(jr / NR) * kb * NR..][..kb * NR];
                        let acc = tile::<V>(&arows, bp, kb);
                        let j = jc + jr;
                        if nr == NR {
                            for (ii, accv) in acc.iter().enumerate().take(mb) {
                                let seg = row(ir + ii, j, NR);
                                let base = if first { V::zero() } else { V::load(seg) };
                                let mut v = base.add(*accv);
                                if let (true, Some(bv)) = (last, bias.lanes::<V>(ir + ii, j)) {
                                    v = v.add(bv);
                                }
                                v.store(seg);
                            }
                        } else {
                            // Right-edge tile: only `nr` columns are real.
                            for (ii, accv) in acc.iter().enumerate().take(mb) {
                                let lane = accv.to_array();
                                for (jj, (o, v)) in
                                    row(ir + ii, j, nr).iter_mut().zip(lane).enumerate()
                                {
                                    let base = if first { 0.0 } else { *o };
                                    *o = base + v;
                                    if last {
                                        if let Some(bv) = bias.at(ir + ii, j + jj) {
                                            *o += bv;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// 8×8 register tile: `acc[ii][jj] = Σ_kk arows[ii][kk] · bp[kk][jj]`,
/// each `a` element splatted straight from its row.
#[inline(always)]
fn tile<V: Simd8>(arows: &[&[f32]; MR], bp: &[f32], kb: usize) -> [V; MR] {
    // Checked once here: every row holds `kb` elements.
    let arows = arows.map(|r| &r[..kb]);
    let mut acc = [V::zero(); MR];
    for kk in 0..kb {
        let bv = V::load(&bp[kk * NR..kk * NR + NR]);
        for (accv, arow) in acc.iter_mut().zip(arows) {
            // SAFETY: `kk < kb == arow.len()`. Eight checked reads per
            // `kk` cost a third of the 512³ rate: LLVM keeps the row
            // lengths live and spills.
            let av = unsafe { *arow.get_unchecked(kk) };
            *accv = V::splat(av).mul_add(bv, *accv);
        }
    }
    acc
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
    use crate::{detected, ulp_diff, Level};
    use peb_par::ctx::{at_level, levels};

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
        at_level(level, || gemm(a, b, &mut out, m, k, n, Bias::None));
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
    fn bias_epilogue_bit_equals_gemm_then_add() {
        // Ragged MR/NR edges; k straddles KC, and k = 0 leaves the bias
        // alone. Every output starts as NaN: the kernel overwrites it, so
        // the result is `(0 + a·b) + bias` — the plain product into NaN
        // equals the product into zeros bit for bit, and the biased one
        // equals the plain one plus the bias (signed-zero biases
        // included, and `0 + −0 = +0` at k = 0). The second shape has
        // ragged rows, only full column tiles, and k past two KC blocks.
        for (m, n, ks) in [
            (19, 37, &[0, 1, 10, 255, 256, 257, 600][..]),
            (13, 16, &[515][..]),
        ] {
            let mut row = pseudo(m, 9);
            let mut col = pseudo(n, 10);
            row[..2].copy_from_slice(&[-0.0, 0.0]);
            col[..2].copy_from_slice(&[-0.0, 0.0]);
            for level in levels() {
                for &k in ks {
                    let a = pseudo(m * k, 12);
                    let b = pseudo(k * n, 13);
                    let product = |init: f32, bias| {
                        let mut out = vec![init; m * n];
                        at_level(level, || gemm(&a, &b, &mut out, m, k, n, bias));
                        out
                    };
                    let plain = product(f32::NAN, Bias::None);
                    for (idx, (p, z)) in plain.iter().zip(&product(0.0, Bias::None)).enumerate() {
                        assert_eq!(p.to_bits(), z.to_bits(), "{level:?} {m}x{k}x{n} at {idx}");
                    }
                    for bias in [Bias::Row(&row), Bias::Col(&col)] {
                        let fused = product(f32::NAN, bias);
                        for (idx, (p, f)) in plain.iter().zip(&fused).enumerate() {
                            let want = p + bias.at(idx / n, idx % n).expect("bias");
                            assert_eq!(
                                want.to_bits(),
                                f.to_bits(),
                                "{level:?} {m}x{k}x{n} {bias:?} at {idx}: {want} vs {f}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn column_ranges_bit_equal_the_whole_product() {
        // Columns split at arbitrary (not NC-aligned) points compute the
        // same bits as one call, and leave every other column untouched.
        let (m, k, n) = (11, 300, 2100);
        let a = pseudo(m * k, 14);
        let b = pseudo(k * n, 15);
        let col = pseudo(n, 16);
        for level in levels() {
            let mut whole = vec![0f32; m * n];
            at_level(level, || gemm(&a, &b, &mut whole, m, k, n, Bias::Col(&col)));
            let mut parts = vec![f32::NAN; m * n];
            for cols in [0..5, 5..1029, 1029..1030, 1030..n] {
                let w = cols.len();
                let mut seg = vec![0f32; m * n];
                // SAFETY: `seg` holds the whole output; one call at a time.
                at_level(level, || unsafe {
                    gemm_cols(
                        &a,
                        &b,
                        seg.as_mut_ptr(),
                        m,
                        k,
                        n,
                        cols.clone(),
                        Bias::Col(&col),
                    )
                });
                for i in 0..m {
                    let r = i * n + cols.start;
                    parts[r..r + w].copy_from_slice(&seg[r..r + w]);
                    assert!(
                        seg[i * n..r].iter().all(|&v| v == 0.0),
                        "wrote left of {cols:?}"
                    );
                    assert!(
                        seg[r + w..(i + 1) * n].iter().all(|&v| v == 0.0),
                        "wrote right of {cols:?}"
                    );
                }
            }
            for (x, y) in whole.iter().zip(&parts) {
                assert_eq!(x.to_bits(), y.to_bits(), "{level:?}");
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
