//! Blocked matrix transpose on in-register 8×8 block transposes, shared
//! by `peb-tensor`'s `Tensor::transpose2`, the transposing case of its
//! `Tensor::permute` and its matmul backward.
//!
//! Pure data movement: every backend produces the same bits.

use crate::Simd8;

/// Outer block edge. A block's 64 output rows are revisited by the next
/// eight-row band of the source while their cache lines are still
/// resident, so each output line is completed before it is evicted.
const BLOCK: usize = 64;

/// Transposes the tile of `src` (`[m, n]`) at `(i0, j0)` into `out`
/// (`[n, m]`): up to 8×8, ragged at the matrix edges.
#[inline(always)]
fn tile<V: Simd8>(src: &[f32], m: usize, n: usize, i0: usize, j0: usize, out: &mut [f32]) {
    let (r, c) = ((m - i0).min(8), (n - j0).min(8));
    let mut rows = [V::zero(); 8];
    for (k, row) in rows.iter_mut().enumerate().take(r) {
        let at = (i0 + k) * n + j0;
        // A full load may run past column `n` into the next row; those
        // lanes land in output rows ≥ `c`, which are never stored.
        *row = if at + 8 <= src.len() {
            V::load(&src[at..])
        } else {
            let mut pad = [0f32; 8];
            pad[..c].copy_from_slice(&src[at..at + c]);
            V::from_array(pad)
        };
    }
    for (jj, col) in V::transpose8(rows).into_iter().enumerate().take(c) {
        let at = (j0 + jj) * m + i0;
        if r == 8 {
            col.store(&mut out[at..]);
        } else {
            out[at..at + r].copy_from_slice(&col.to_array()[..r]);
        }
    }
}

dispatched! {
    /// `out[j·m + i] = src[i·n + j]`: writes the transpose of the row-major
    /// `[m, n]` matrix `src` into `out` (`[n, m]`), at the current dispatch
    /// level.
    ///
    /// # Panics
    ///
    /// Panics unless both slices hold `m·n` elements.
    pub fn transpose_into<V>(src: &[f32], m: usize, n: usize, out: &mut [f32]) {
        assert!(src.len() == m * n && out.len() == m * n);
        for ib in (0..m).step_by(BLOCK) {
            for jb in (0..n).step_by(BLOCK) {
                for i0 in (ib..(ib + BLOCK).min(m)).step_by(8) {
                    for j0 in (jb..(jb + BLOCK).min(n)).step_by(8) {
                        tile::<V>(src, m, n, i0, j0, out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_par::ctx::{at_level, levels};

    #[test]
    fn matches_the_index_definition_on_ragged_shapes() {
        for &(m, n) in &[
            (1, 1),
            (1, 9),
            (9, 1),
            (8, 8),
            (7, 13),
            (12, 70),
            (70, 12),
            (65, 129),
        ] {
            let src: Vec<f32> = (0..m * n).map(|i| i as f32).collect();
            for level in levels() {
                let mut out = vec![0f32; m * n];
                at_level(level, || transpose_into(&src, m, n, &mut out));
                for i in 0..m {
                    for j in 0..n {
                        assert_eq!(out[j * m + i], src[i * n + j], "({m},{n}) at ({i},{j})");
                    }
                }
            }
        }
    }
}
