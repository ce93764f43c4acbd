//! Layer normalisation as one pass per token.
//!
//! A lane group is eight rows (lane `l` = row `r0 + l`): the block is
//! moved lane-major into an L1 scratch buffer (through
//! `Simd8::transpose8` for rows of eight or more columns), each lane's
//! mean and
//! variance are summed in `f64` in ascending column order
//! (`Simd8::widen_add`), and the normalised, scaled and shifted block
//! is moved back. Rows past the end are zero-padded lanes and are never
//! stored.
//!
//! # Exact-class
//!
//! Per element this is the composition it replaced — two axis means, a
//! broadcast subtract, a square, `+ eps`, `√`, a broadcast divide, `× γ`
//! and `+ β` — operation for operation:
//!
//! * `μ = (Σ_f64 x as f32)·(1/C)`;
//! * `d = x − μ`;
//! * `var = (Σ_f64 d·d as f32)·(1/C)`;
//! * `σ = √(var + eps)`;
//! * `y = d/σ·γ + β`.
//!
//! Only IEEE-exact lane operations appear, so every backend produces the
//! same bits, and a row's bits do not depend on its lane.

use peb_pool::PoolBuf;

use crate::Simd8;

dispatched! {
    /// `out = LayerNorm(x)` over rows of `gamma.len()` columns.
    ///
    /// # Panics
    ///
    /// Panics if the columns are zero, `beta` differs from `gamma` in
    /// length, or `x` and `out` are not the same whole number of rows.
    pub fn layer_norm<V>(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) {
        let c = gamma.len();
        assert!(c > 0, "layer_norm: zero columns");
        assert_eq!(beta.len(), c, "layer_norm: beta length");
        assert_eq!(x.len(), out.len(), "layer_norm: output length");
        assert!(x.len().is_multiple_of(c), "layer_norm: ragged rows");
        let inv_c = V::splat(1.0 / c as f32);
        let eps = V::splat(eps);
        // Column `j` of the block's eight rows at `buf[j·8..]`.
        let mut buf = PoolBuf::<f32>::zeroed(c * 8);
        for (xs, os) in x.chunks(8 * c).zip(out.chunks_mut(8 * c)) {
            gather::<V>(xs, c, &mut buf);
            let mut sum = V::wide_zero();
            for lanes in buf.chunks_exact(8) {
                sum = V::load(lanes).widen_add(sum);
            }
            let mu = V::narrow(sum).mul(inv_c);
            let mut sq = V::wide_zero();
            for lanes in buf.chunks_exact_mut(8) {
                let d = V::load(lanes).sub(mu);
                d.store(lanes);
                sq = d.mul(d).widen_add(sq);
            }
            let sigma = V::narrow(sq).mul(inv_c).add(eps).sqrt();
            for ((lanes, &ga), &be) in buf.chunks_exact_mut(8).zip(gamma).zip(beta) {
                let y = V::load(lanes)
                    .div(sigma)
                    .mul(V::splat(ga))
                    .add(V::splat(be));
                y.store(lanes);
            }
            scatter::<V>(&buf, c, os);
        }
    }
}

/// Column windows of eight: `0, 8, …` and a last one ending at `c`
/// (overlapping its predecessor when `8` does not divide `c ≥ 8`).
fn windows(c: usize) -> impl Iterator<Item = usize> {
    (0..c / 8)
        .map(|w| 8 * w)
        .chain((!c.is_multiple_of(8)).then(|| c - 8))
}

/// The rows of `xs` (at most eight, `c` columns each) lane-major into
/// `buf`: `buf[j·8 + l] = xs[l·c + j]`, lanes past the last row zero.
/// `8 × 8` blocks go through `Simd8::transpose8`; rows narrower than
/// eight columns element by element.
#[inline(always)]
fn gather<V: Simd8>(xs: &[f32], c: usize, buf: &mut [f32]) {
    let live = xs.len() / c;
    if c < 8 {
        for (l, row) in xs.chunks_exact(c).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                buf[j * 8 + l] = v;
            }
        }
        for j in 0..c {
            buf[j * 8 + live..j * 8 + 8].fill(0.0);
        }
        return;
    }
    for c0 in windows(c) {
        let mut rows = [V::zero(); 8];
        for (r, row) in rows.iter_mut().zip(xs.chunks_exact(c)) {
            *r = V::load(&row[c0..c0 + 8]);
        }
        let cols = buf[c0 * 8..(c0 + 8) * 8].chunks_exact_mut(8);
        for (col, dst) in V::transpose8(rows).into_iter().zip(cols) {
            col.store(dst);
        }
    }
}

/// The inverse of [`gather`] for the `os.len() / c` rows.
#[inline(always)]
fn scatter<V: Simd8>(buf: &[f32], c: usize, os: &mut [f32]) {
    if c < 8 {
        for (l, row) in os.chunks_exact_mut(c).enumerate() {
            for (j, o) in row.iter_mut().enumerate() {
                *o = buf[j * 8 + l];
            }
        }
        return;
    }
    for c0 in windows(c) {
        let mut cols = [V::zero(); 8];
        for (col, src) in cols
            .iter_mut()
            .zip(buf[c0 * 8..(c0 + 8) * 8].chunks_exact(8))
        {
            *col = V::load(src);
        }
        for (row, dst) in V::transpose8(cols).into_iter().zip(os.chunks_exact_mut(c)) {
            row.store(&mut dst[c0..c0 + 8]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_par::ctx::{at_level, levels};

    /// The per-row expression the kernel replays, in plain `f32`/`f64`.
    fn reference(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32) -> Vec<f32> {
        let c = gamma.len();
        let inv_c = 1.0 / c as f32;
        let mut out = Vec::with_capacity(x.len());
        for row in x.chunks_exact(c) {
            let mu = row.iter().fold(0f64, |a, &v| a + v as f64) as f32 * inv_c;
            let var = row
                .iter()
                .fold(0f64, |a, &v| a + ((v - mu) * (v - mu)) as f64) as f32
                * inv_c;
            let sigma = (var + eps).sqrt();
            for ((&v, &ga), &be) in row.iter().zip(gamma).zip(beta) {
                out.push((v - mu) / sigma * ga + be);
            }
        }
        out
    }

    #[test]
    fn rows_are_the_plain_expression_bitwise_at_every_level() {
        for (c, rows) in [(1, 3), (5, 9), (12, 17), (33, 8)] {
            let x: Vec<f32> = (0..c * rows)
                .map(|i| ((i * 7919 % 113) as f32 - 56.0) * 0.37 + 1e3)
                .collect();
            let gamma: Vec<f32> = (0..c).map(|i| 0.5 + i as f32 * 0.25).collect();
            let beta: Vec<f32> = (0..c).map(|i| i as f32 * -0.125).collect();
            let want = reference(&x, &gamma, &beta, 1e-5);
            for level in levels() {
                let mut got = vec![f32::NAN; x.len()];
                at_level(level, || layer_norm(&x, &gamma, &beta, 1e-5, &mut got));
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "C={c} rows={rows} {level:?}");
            }
        }
    }
}
