//! Dense matrix multiplication (2-D and batched 3-D).

use crate::kernels::{self, Bias};
use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Matrix product of two rank-2 tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Runs the packed `peb-simd` register-tile microkernel with row
    /// panels spread over the `peb-par` pool; bitwise identical at any
    /// `PEB_THREADS` for a fixed SIMD dispatch level.
    ///
    /// # Errors
    ///
    /// Returns a shape error unless `self` is `[m, k]` and `other` is
    /// `[k, n]`.
    pub fn matmul(&self, other: &Self) -> Result<Self> {
        let (ls, rs) = (self.shape(), other.shape());
        if ls.len() != 2 || rs.len() != 2 || ls[1] != rs[0] {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: ls.to_vec(),
                rhs: rs.to_vec(),
            });
        }
        let (m, k, n) = (ls[0], ls[1], rs[1]);
        Ok(gemm_new(
            self.data(),
            other.data(),
            (m, k, n),
            Bias::None,
            &[m, n],
        ))
    }

    /// Batched matrix product: `[b, m, k] × [b, k, n] → [b, m, n]`.
    ///
    /// # Errors
    ///
    /// Returns a shape error unless both operands are rank-3 with matching
    /// batch and inner dimensions.
    pub fn bmm(&self, other: &Self) -> Result<Self> {
        let (ls, rs) = (self.shape(), other.shape());
        if ls.len() != 3 || rs.len() != 3 || ls[0] != rs[0] || ls[2] != rs[1] {
            return Err(TensorError::ShapeMismatch {
                op: "bmm",
                lhs: ls.to_vec(),
                rhs: rs.to_vec(),
            });
        }
        let (b, m, k, n) = (ls[0], ls[1], ls[2], rs[2]);
        let _span = peb_obs::span("gemm.bmm");
        peb_obs::count(peb_obs::Counter::GemmFlops, 2 * (b * m * k * n) as u64);
        peb_obs::optrace::note("gemm.bmm", || format!("b={b} m={m} k={k} n={n}"));
        let mut out = Tensor::for_overwrite(&[b, m, n]);
        // Batches are independent; when there is only one, run_parallel
        // falls through without entering a parallel region, so the inner
        // GEMM still parallelises over its row panels.
        peb_par::parallel_chunks_mut_cost(out.data_mut(), m * n, 2 * k as u64, |offset, chunk| {
            let bi = offset / (m * n);
            matmul_into(
                &self.data()[bi * m * k..(bi + 1) * m * k],
                &other.data()[bi * k * n..(bi + 1) * k * n],
                chunk,
                m,
                k,
                n,
            );
        });
        Ok(out)
    }

    /// Transpose of a rank-2 tensor, moved through in-register 8×8
    /// blocks inside cache-sized outer blocks
    /// (`peb_simd::transpose::transpose_into`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 (use [`Tensor::permute`] for
    /// general axis permutations).
    pub fn transpose2(&self) -> Self {
        assert_eq!(self.rank(), 2, "transpose2 requires a matrix");
        let _span = peb_obs::span("gemm.transpose2");
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let mut out = Tensor::zeros(&[n, m]);
        peb_simd::transpose::transpose_into(self.data(), m, n, out.data_mut());
        out
    }
}

/// `a[m×k] · b[k×n] + bias` into a fresh tensor of `shape` (which holds
/// `m·n` elements in the product's row-major order), the bias added in
/// the GEMM write-back — bit for bit the product followed by a
/// broadcast add.
pub(crate) fn gemm_new(
    a: &[f32],
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    bias: Bias,
    shape: &[usize],
) -> Tensor {
    debug_assert_eq!(crate::shape::numel(shape), m * n);
    let _span = peb_obs::span("gemm.matmul");
    peb_obs::count(peb_obs::Counter::GemmFlops, 2 * (m * k * n) as u64);
    peb_obs::optrace::note("gemm", || format!("m={m} k={k} n={n}"));
    // The kernel overwrites every element, so the pooled output skips
    // the zero-fill.
    let mut out = Tensor::for_overwrite(shape);
    kernels::matmul_par(a, b, out.data_mut(), m, k, n, bias);
    out
}

/// `out = a[m×k] · b[k×n]`; the previous contents of `out` are never read.
pub(crate) fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    kernels::matmul_par(a, b, out, m, k, n, Bias::None);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec((0..9).map(|x| x as f32).collect(), &[3, 3]).unwrap();
        let c = a.matmul(&Tensor::eye(3)).unwrap();
        assert!(c.approx_eq(&a, 0.0));
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&Tensor::zeros(&[2, 2])).is_err());
        assert!(a.matmul(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 2, 3]).unwrap();
        let b = Tensor::from_vec((0..12).map(|x| (x as f32) * 0.5).collect(), &[2, 3, 2]).unwrap();
        let c = a.bmm(&b).unwrap();
        for bi in 0..2 {
            let asub = Tensor::from_vec(a.data()[bi * 6..(bi + 1) * 6].to_vec(), &[2, 3]).unwrap();
            let bsub = Tensor::from_vec(b.data()[bi * 6..(bi + 1) * 6].to_vec(), &[3, 2]).unwrap();
            let csub = asub.matmul(&bsub).unwrap();
            assert_eq!(&c.data()[bi * 4..(bi + 1) * 4], csub.data());
        }
    }

    #[test]
    fn transpose2_roundtrip() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose2();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]), a.get(&[1, 2]));
        assert!(t.transpose2().approx_eq(&a, 0.0));
    }
}
