//! Low-level GEMM kernels.
//!
//! The production path is the packed register-tile microkernel in
//! [`peb_simd::gemm`], driven here in fixed [`MC`]-row panels over the
//! [`peb_par`] pool. The microkernel accumulates every output element's
//! `k` products in an order that depends only on the problem shape —
//! never on the row panelling or thread count — so [`matmul_par`] is
//! bitwise reproducible at any `PEB_THREADS` for a fixed SIMD dispatch
//! level. Across dispatch levels (and against the reference ikj triple
//! loop the unit tests keep as their oracle) results differ by bounded
//! ULPs: the packed kernel brackets k-sums per cache block and the AVX2
//! path fuses multiply–adds.
//!
//! [`transpose_into`] is the blocked transpose behind
//! `Tensor::transpose2`, for callers that drive [`matmul_par`] on raw
//! slices (the conv layers' per-plane GEMMs).

pub use crate::transpose::transpose_into;

/// Rows per panel; also the parallel chunk size, so chunk boundaries are a
/// function of `m` only — never of the thread count.
pub const MC: usize = 64;

/// Parallel GEMM driver: `out += a[m×k] · b[k×n]`, `out` pre-zeroed.
///
/// Splits `m` into fixed [`MC`]-row panels and fans them out over the
/// [`peb_par`] pool; each panel runs the [`peb_simd::gemm`] microkernel on
/// its disjoint slice of `out`. The cost hint (`2·k·n` flops per row)
/// keeps small products — common in autograd tails — off the pool
/// entirely without changing the panel boundaries.
pub fn matmul_par(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let slots = peb_par::UnsafeSlice::new(out);
    let row_flops = 2 * (k as u64) * (n as u64);
    peb_par::parallel_chunks_cost(m, MC, row_flops, |rows| {
        let sub_a = &a[rows.start * k..rows.end * k];
        // SAFETY: row panels are disjoint by construction.
        let sub_out = unsafe { slots.slice_mut(rows.start * n..rows.end * n) };
        peb_simd::gemm::gemm(sub_a, b, sub_out, rows.len(), k, n);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference ikj kernel (the pre-blocking implementation): the oracle
    /// the packed microkernel is checked against.
    ///
    /// `out += a[m×k] · b[k×n]`, `out` pre-zeroed by the caller.
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
            matmul_par(&a, &b, &mut packed, m, k, n);
            for (x, y) in naive.iter().zip(packed.iter()) {
                assert!(close(*x, *y, k), "({m},{k},{n}): {x} vs {y}");
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
        peb_par::with_thread_count(1, || matmul_par(&a, &b, &mut seq, m, k, n));
        peb_par::with_thread_count(4, || matmul_par(&a, &b, &mut par, m, k, n));
        for (x, y) in seq.iter().zip(par.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
