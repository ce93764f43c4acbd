//! Low-level GEMM kernels.
//!
//! The production path is the packed register-tile microkernel in
//! [`peb_simd::gemm`], driven here over the [`peb_par`] pool in fixed
//! [`MC`]-row panels, or — for short, wide products — in fixed
//! [`NC`]-column blocks. The microkernel accumulates every output
//! element's `k` products in an order that depends only on the problem
//! shape — never on the row or column panelling or the thread count — so
//! [`matmul_par`] is bitwise reproducible at any `PEB_THREADS` for a fixed
//! SIMD dispatch level. Across dispatch levels (and against the reference
//! ikj triple loop the unit tests keep as their oracle) results differ by
//! bounded ULPs: the packed kernel brackets k-sums per cache block and
//! the AVX2 path fuses multiply–adds.

pub use peb_simd::gemm::Bias;
use peb_simd::gemm::NC;

/// Rows per panel; also the parallel chunk size, so chunk boundaries are a
/// function of `m` only — never of the thread count.
pub const MC: usize = 64;

/// Parallel GEMM driver: `out = (0 + a[m×k] · b[k×n]) + bias`; the
/// previous contents of `out` are never read.
///
/// Splits `m` into fixed [`MC`]-row panels and fans them out over the
/// [`peb_par`] pool; each panel runs the [`peb_simd::gemm`] microkernel on
/// its disjoint slice of `out`. A product with at most two panels whose
/// `n` spans two or more [`NC`] blocks (a channel-major projection: few
/// output channels, many tokens) fans out over `NC`-column blocks
/// instead, which would otherwise leave all but one or two threads idle.
/// The cost hint (`2·k·n` flops per row, `2·k·m` per column) keeps small
/// products — common in autograd tails — off the pool entirely without
/// changing the panel boundaries.
///
/// The bias is added in the microkernel's write-back (see
/// [`peb_simd::gemm`]), bit for bit as a separate add after the product.
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k`, `n`.
pub fn matmul_par(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize, bias: Bias) {
    assert_eq!(out.len(), m * n, "matmul output length");
    let slots = peb_par::UnsafeSlice::new(out);
    if m <= 2 * MC && n.div_ceil(NC) >= 2 {
        let col_flops = 2 * (k as u64) * (m as u64);
        peb_par::parallel_chunks_cost(n, NC, col_flops, |cols| {
            // SAFETY: `slots` is the whole `m×n` output and column
            // blocks are disjoint by construction.
            unsafe { peb_simd::gemm::gemm_cols(a, b, slots.as_mut_ptr(), m, k, n, cols, bias) };
        });
        return;
    }
    let row_flops = 2 * (k as u64) * (n as u64);
    peb_par::parallel_chunks_cost(m, MC, row_flops, |rows| {
        let sub_a = &a[rows.start * k..rows.end * k];
        // SAFETY: row panels are disjoint by construction.
        let sub_out = unsafe { slots.slice_mut(rows.start * n..rows.end * n) };
        peb_simd::gemm::gemm(sub_a, b, sub_out, rows.len(), k, n, bias.rows(rows));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference ikj kernel (the pre-blocking implementation): the oracle
    /// the packed microkernel is checked against.
    ///
    /// `out += a[m×k] · b[k×n]`, `out` zeroed by the caller.
    fn matmul_naive(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (kk, &av) in arow.iter().enumerate() {
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    }

    fn pseudo(len: usize, salt: u32) -> Vec<f32> {
        // Cheap deterministic fill with varied magnitudes (no RNG dep).
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    /// Reassociated k-sums can cancel, so a pure ULP bound on the result
    /// blows up near zero; accept either tight ULPs or an absolute error
    /// small against the Σ|a||b| ≈ k work that produced the element.
    fn close(w: f32, g: f32, k: usize) -> bool {
        peb_simd::ulp_diff(w, g) <= 256 || (w - g).abs() <= k as f32 * 1e-6
    }

    #[test]
    fn packed_tracks_naive_within_ulps() {
        // Cover: within one block, straddling MC/KC/NC boundaries, thin
        // and wide shapes.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (65, 300, 17), (130, 7, 1030)] {
            let a = pseudo(m * k, 1);
            let b = pseudo(k * n, 2);
            let mut naive = vec![0f32; m * n];
            let mut packed = vec![0f32; m * n];
            matmul_naive(&a, &b, &mut naive, m, k, n);
            matmul_par(&a, &b, &mut packed, m, k, n, Bias::None);
            for (x, y) in naive.iter().zip(packed.iter()) {
                assert!(close(*x, *y, k), "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn column_split_bit_equals_one_unsplit_call_at_any_thread_count() {
        // m ≤ 2·MC with n over two NC blocks takes the column split; the
        // reference is one microkernel call over the whole output. Bias
        // kinds cycle so the split hands each block the right slice.
        let k = 37;
        for (case, m) in [1, 9, 32, 64, 128].into_iter().enumerate() {
            for n in [2047, 2048, 5000, 32_768] {
                let a = pseudo(m * k, 5);
                let b = pseudo(k * n, 6);
                let (row, col) = (pseudo(m, 7), pseudo(n, 8));
                let (bias, kind) = [
                    (Bias::None, "no bias"),
                    (Bias::Row(&row), "row bias"),
                    (Bias::Col(&col), "column bias"),
                ][case % 3];
                let mut want = vec![0f32; m * n];
                peb_simd::gemm::gemm(&a, &b, &mut want, m, k, n, bias);
                for threads in [1, 2, 3, 7] {
                    // The driver overwrites: NaN must not survive.
                    let mut got = vec![f32::NAN; m * n];
                    peb_par::with_thread_count(threads, || {
                        matmul_par(&a, &b, &mut got, m, k, n, bias)
                    });
                    let same = want
                        .iter()
                        .zip(&got)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "m={m} n={n}, {kind}, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn row_panels_slice_the_row_bias() {
        // Over two MC panels (or under two NC blocks) the rows split:
        // each panel must add its own rows' bias.
        let k = 40;
        for (m, n) in [(150, 300), (96, 512)] {
            let a = pseudo(m * k, 9);
            let b = pseudo(k * n, 10);
            let row = pseudo(m, 11);
            let mut want = vec![0f32; m * n];
            peb_simd::gemm::gemm(&a, &b, &mut want, m, k, n, Bias::Row(&row));
            for threads in [1, 2, 3, 7] {
                let mut got = vec![f32::NAN; m * n];
                peb_par::with_thread_count(threads, || {
                    matmul_par(&a, &b, &mut got, m, k, n, Bias::Row(&row))
                });
                let same = want
                    .iter()
                    .zip(&got)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "m={m} n={n} at {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let (m, k, n) = (150, 64, 33);
        let a = pseudo(m * k, 3);
        let b = pseudo(k * n, 4);
        let mut seq = vec![0f32; m * n];
        let mut par = vec![0f32; m * n];
        peb_par::with_thread_count(1, || matmul_par(&a, &b, &mut seq, m, k, n, Bias::None));
        peb_par::with_thread_count(4, || matmul_par(&a, &b, &mut par, m, k, n, Bias::None));
        for (x, y) in seq.iter().zip(par.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
