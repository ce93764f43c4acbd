//! Broadcasting elementwise binary operations and gradient reduction.

use crate::shape::{broadcast_shapes, numel, strides_for};
use crate::{Result, Tensor};

/// How one operand lines up against an output viewed as `[rows, cols]`.
#[derive(Clone, Copy)]
enum Side {
    /// One element per output element.
    Full,
    /// One `[cols]` vector shared by every row (`[…, C] ∘ [C]`).
    RowVec,
    /// One scalar per row (`[…, C] ∘ […, 1]`; a one-element operand is
    /// the single-row case).
    Col,
}

/// A broadcast (or its adjoint reduction) that factors into rows ×
/// columns: the output axes split at one point such that each operand is
/// either present or expanded on *all* axes of each side: a trailing
/// vector, a per-row scalar, outer products of the two, and one-element
/// operands. That covers every broadcast the model makes — SsmBlock's Δ
/// outer sum `[L, 1] ∘ [C]` (C = 12…48) in predict and training, and
/// the training backward's reductions `[…, C] → [C]`, `[L, C] → [L, 1]`,
/// `[L, 1] → [1]` and `[C, D, H, W] → [C, 1, 1, 1]`. Anything else (an
/// expanded axis between two kept ones) takes the generic odometer walk,
/// which no model shape reaches.
struct RowPlan {
    cols: usize,
    lhs: Side,
    rhs: Side,
}

/// Classifies `shape` against `out_shape` split at axis `k`, or `None`
/// when the operand mixes kept and expanded axes on one side.
fn side_at(shape: &[usize], out_shape: &[usize], k: usize) -> Option<Side> {
    let offset = out_shape.len() - shape.len();
    // (any kept, any expanded) over the non-trivial axes of one side.
    let scan = |axes: std::ops::Range<usize>| {
        let (mut kept, mut expanded) = (false, false);
        for i in axes {
            if out_shape[i] == 1 {
                continue;
            }
            if i >= offset && shape[i - offset] == out_shape[i] {
                kept = true;
            } else {
                expanded = true;
            }
        }
        (!(kept && expanded)).then_some(expanded)
    };
    match (scan(0..k)?, scan(k..out_shape.len())?) {
        (false, false) => Some(Side::Full),
        (true, false) => Some(Side::RowVec),
        (false, true) => Some(Side::Col),
        // Expanded on both sides of a split: the operand has one element,
        // the other one is therefore full, and the split at axis 0 (where
        // this reads as `Col`) was tried first.
        (true, true) => None,
    }
}

fn row_plan(lhs: &[usize], rhs: &[usize], out_shape: &[usize]) -> Option<RowPlan> {
    // The smallest split gives the longest rows.
    (0..=out_shape.len()).find_map(|k| {
        Some(RowPlan {
            cols: numel(&out_shape[k..]),
            lhs: side_at(lhs, out_shape, k)?,
            rhs: side_at(rhs, out_shape, k)?,
        })
    })
}

/// Target length of one kernel call in the row loops. Long rows are cut
/// into column chunks of this width; short rows are grouped so that a
/// call still covers about this many elements — the Δ outer sum's
/// 12-to-48-wide rows would otherwise pay a kernel dispatch each. Per-row
/// scalars and shared row vectors are expanded into an L1-resident
/// buffer of this size, so every side of every shape feeds the same
/// two-slice kernels.
const BLOCK: usize = 1024;

/// One operand of a row loop: yields the slice that lines up with a
/// block of the output.
struct Rows<'a> {
    data: &'a [f32],
    side: Side,
    cols: usize,
    /// `Col`: the splatted scalars; `RowVec` with grouped rows: the
    /// vector repeated once per row of a group.
    buf: peb_pool::PoolBuf<f32>,
}

impl<'a> Rows<'a> {
    fn new(data: &'a [f32], side: Side, cols: usize, group: usize) -> Self {
        let width = cols.min(BLOCK) * group;
        let buf = match side {
            Side::RowVec if group > 1 => {
                let mut tiled = peb_pool::PoolBuf::cleared(width);
                for _ in 0..group {
                    tiled.extend_from_slice(data);
                }
                tiled
            }
            Side::Col => peb_pool::PoolBuf::zeroed(width),
            // Read straight from `data`.
            Side::Full | Side::RowVec => peb_pool::PoolBuf::cleared(0),
        };
        Rows {
            data,
            side,
            cols,
            buf,
        }
    }

    /// The operand's values for columns `c0..c0 + len` of rows
    /// `row0..row0 + rows` (`rows > 1` only with `c0 == 0, len == cols`).
    fn block(&mut self, row0: usize, rows: usize, c0: usize, len: usize) -> &[f32] {
        match self.side {
            Side::Full => &self.data[row0 * self.cols + c0..][..rows * len],
            Side::RowVec if rows == 1 => &self.data[c0..c0 + len],
            Side::RowVec => &self.buf[..rows * len],
            Side::Col => {
                if c0 == 0 {
                    for (seg, &v) in self
                        .buf
                        .chunks_exact_mut(len)
                        .zip(&self.data[row0..row0 + rows])
                    {
                        seg.fill(v);
                    }
                }
                &self.buf[..rows * len]
            }
        }
    }
}

impl Tensor {
    /// Applies a binary operation with NumPy-style broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::ShapeMismatch`] when the shapes do not
    /// broadcast together.
    pub fn broadcast_zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.shape() == other.shape() {
            return self.zip_map(other, f);
        }
        self.broadcast_with(other, &f, |a, b, out| {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = f(x, y);
            }
        })
    }

    /// Broadcasting binary operation given both as a per-element function
    /// and as a same-length slice kernel computing the same values.
    ///
    /// Shapes that factor into rows × columns (see [`RowPlan`]) run as row
    /// loops over `row_op`; every other shape walks the output with the
    /// generic odometer and `f`. Per element both evaluate the one pure
    /// function, so the two paths are bitwise interchangeable.
    pub(crate) fn broadcast_with(
        &self,
        other: &Self,
        f: impl Fn(f32, f32) -> f32,
        row_op: impl Fn(&[f32], &[f32], &mut [f32]),
    ) -> Result<Self> {
        let out_shape = broadcast_shapes(self.shape(), other.shape())?;
        let n = numel(&out_shape);
        let _span = crate::tensor::ew_span("ew.broadcast", n);
        let mut data = crate::tensor::alloc_cleared(n);
        if n > 0 {
            match row_plan(self.shape(), other.shape(), &out_shape) {
                Some(plan) => {
                    data.resize(n, 0.0);
                    zip_rows(&plan, self.data(), other.data(), &mut data, row_op);
                }
                None => zip_odometer(self, other, &out_shape, &mut data, f),
            }
        }
        Ok(Tensor::from_pooled(data, &out_shape))
    }

    /// Sums `self` down to `target_shape`, the adjoint of broadcasting.
    ///
    /// Axes that were expanded by broadcasting (extent 1 in the target, or
    /// missing leading axes) are summed out. Used by autograd to reduce an
    /// output gradient back to each operand's shape.
    ///
    /// Every target element accumulates its sources in `f32`, in ascending
    /// source order, whichever path runs: column sums as row-by-row vector
    /// adds, row sums as one sequential pass per row, any other pattern by
    /// the generic index walk.
    ///
    /// # Panics
    ///
    /// Panics if `target_shape` does not broadcast to `self.shape()`.
    pub fn reduce_to_shape(&self, target_shape: &[usize]) -> Self {
        if self.shape() == target_shape {
            return self.clone();
        }
        let _span = crate::tensor::ew_span("ew.reduce", self.len());
        let src_shape = self.shape();
        let rank = src_shape.len();
        assert!(
            target_shape.len() <= rank,
            "reduce_to_shape: target rank {} exceeds source rank {}",
            target_shape.len(),
            rank
        );
        // Left-pad the target with 1s to the source rank.
        let mut padded = vec![1usize; rank - target_shape.len()];
        padded.extend_from_slice(target_shape);
        for (i, (&s, &t)) in src_shape.iter().zip(padded.iter()).enumerate() {
            assert!(
                t == s || t == 1,
                "reduce_to_shape: axis {i} cannot reduce {s} -> {t}"
            );
        }
        let out_n = numel(&padded);
        let mut out = crate::tensor::alloc_cleared(out_n);
        out.resize(out_n, 0.0);
        match row_plan(src_shape, &padded, src_shape) {
            Some(plan) => reduce_rows(&plan, self.data(), &mut out),
            None => reduce_odometer(self, &padded, &mut out),
        }
        Tensor::from_pooled(out, target_shape)
    }
}

/// Row loops of a planned broadcast: `out[r, c] = op(lhs[r, c], rhs[r, c])`
/// with each side read through its [`Rows`] view, about [`BLOCK`]
/// elements per `row_op` call.
fn zip_rows(
    plan: &RowPlan,
    lhs: &[f32],
    rhs: &[f32],
    out: &mut [f32],
    row_op: impl Fn(&[f32], &[f32], &mut [f32]),
) {
    let cols = plan.cols;
    // Never more rows than there are: a `[2, 12]` output sizes (and
    // fills) its splat buffers for 24 elements, not for a full block.
    let group = (BLOCK / cols).clamp(1, out.len() / cols);
    let mut l = Rows::new(lhs, plan.lhs, cols, group);
    let mut r = Rows::new(rhs, plan.rhs, cols, group);
    for (gi, out_rows) in out.chunks_mut(group * cols).enumerate() {
        let (row0, rows) = (gi * group, out_rows.len() / cols);
        let width = if rows == 1 { BLOCK } else { out_rows.len() };
        for (ci, out_block) in out_rows.chunks_mut(width).enumerate() {
            let (c0, len) = (ci * BLOCK, out_block.len() / rows);
            row_op(
                l.block(row0, rows, c0, len),
                r.block(row0, rows, c0, len),
                out_block,
            );
        }
    }
}

/// The generic broadcast: walks output coordinates incrementally (no
/// div/mod per axis per element), reading each operand through strides
/// that are 0 on its expanded axes. Appends `numel(out_shape)` values.
fn zip_odometer(
    lhs: &Tensor,
    rhs: &Tensor,
    out_shape: &[usize],
    data: &mut Vec<f32>,
    f: impl Fn(f32, f32) -> f32,
) {
    let l_strides = effective_strides(lhs.shape(), out_shape);
    let r_strides = effective_strides(rhs.shape(), out_shape);
    let (ld, rd) = (lhs.data(), rhs.data());
    let rank = out_shape.len();
    let mut coords = vec![0usize; rank];
    let mut li = 0usize;
    let mut ri = 0usize;
    for _ in 0..numel(out_shape) {
        data.push(f(ld[li], rd[ri]));
        for axis in (0..rank).rev() {
            coords[axis] += 1;
            li += l_strides[axis];
            ri += r_strides[axis];
            if coords[axis] < out_shape[axis] {
                break;
            }
            coords[axis] = 0;
            li -= l_strides[axis] * out_shape[axis];
            ri -= r_strides[axis] * out_shape[axis];
        }
    }
}

/// Planned reduction of `[rows, cols]` (`plan.lhs` is `Full`) onto a
/// zeroed target laid out as `plan.rhs`.
fn reduce_rows(plan: &RowPlan, src: &[f32], out: &mut [f32]) {
    let seq_sum = |xs: &[f32]| xs.iter().fold(0f32, |acc, &v| acc + v);
    match plan.rhs {
        Side::Full => out.copy_from_slice(src),
        Side::RowVec => {
            // An exact lane add either way; a plain loop has no dispatch
            // cost on the 12-to-48-wide `[…, C] → [C]` rows.
            for row in src.chunks_exact(plan.cols.max(1)) {
                for (o, &v) in out.iter_mut().zip(row) {
                    *o += v;
                }
            }
        }
        Side::Col => {
            for (o, row) in out.iter_mut().zip(src.chunks_exact(plan.cols.max(1))) {
                *o = seq_sum(row);
            }
        }
    }
}

/// The generic reduction: every source element, in flat order, is added
/// into the target element its coordinates project onto.
fn reduce_odometer(src: &Tensor, padded: &[usize], out: &mut [f32]) {
    let src_shape = src.shape();
    let src_strides = strides_for(src_shape);
    let dst_strides = strides_for(padded);
    for (flat, &v) in src.data().iter().enumerate() {
        let mut dst = 0usize;
        for axis in 0..src_shape.len() {
            let c = (flat / src_strides[axis]) % src_shape[axis];
            let cc = if padded[axis] == 1 { 0 } else { c };
            dst += cc * dst_strides[axis];
        }
        out[dst] += v;
    }
}

/// Strides to read a (possibly lower-rank) operand as if broadcast to
/// `out_shape`: broadcast axes get stride 0.
fn effective_strides(shape: &[usize], out_shape: &[usize]) -> Vec<usize> {
    let strides = strides_for(shape);
    let offset = out_shape.len() - shape.len();
    let mut out = vec![0usize; out_shape.len()];
    for i in 0..shape.len() {
        out[offset + i] = if shape[i] == 1 { 0 } else { strides[i] };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_row_and_column() {
        let col = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap();
        let row = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3]).unwrap();
        let sum = col.broadcast_zip(&row, |a, b| a + b).unwrap();
        assert_eq!(sum.shape(), &[2, 3]);
        assert_eq!(sum.data(), &[11.0, 21.0, 31.0, 12.0, 22.0, 32.0]);
    }

    #[test]
    fn broadcast_scalar() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let s = Tensor::scalar(10.0);
        let out = a.broadcast_zip(&s, |x, y| x * y).unwrap();
        assert_eq!(out.data(), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn broadcast_missing_leading_axis() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let out = a.broadcast_zip(&b, |x, y| x + y).unwrap();
        assert_eq!(out.data(), &[1.0, 3.0, 5.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_axes() {
        let g = Tensor::ones(&[2, 3]);
        assert_eq!(g.reduce_to_shape(&[1, 3]).data(), &[2.0, 2.0, 2.0]);
        assert_eq!(g.reduce_to_shape(&[2, 1]).data(), &[3.0, 3.0]);
        assert_eq!(g.reduce_to_shape(&[3]).data(), &[2.0, 2.0, 2.0]);
        assert_eq!(g.reduce_to_shape(&[]).item(), 6.0);
    }

    #[test]
    fn reduce_is_adjoint_of_broadcast() {
        // <broadcast(x), g> == <x, reduce(g)> for linear broadcast.
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]).unwrap();
        let g = Tensor::from_vec((0..6).map(|i| i as f32 * 0.3).collect(), &[2, 3]).unwrap();
        let bx = Tensor::zeros(&[2, 3]).broadcast_zip(&x, |_, b| b).unwrap();
        let lhs: f32 = bx.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
        let rg = g.reduce_to_shape(&[3]);
        let rhs: f32 = x.data().iter().zip(rg.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }
}
