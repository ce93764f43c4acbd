//! Shape manipulation: reshape, permute, concat, slice, pad, upsampling.

use crate::shape::{numel, strides_for};
use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        if numel(shape) != self.len() {
            return Err(TensorError::LengthMismatch {
                len: self.len(),
                shape: shape.to_vec(),
            });
        }
        let _span = crate::tensor::ew_span("ew.copy", self.len());
        Ok(Tensor::from_pooled(
            crate::tensor::alloc_copy(self.data()),
            shape,
        ))
    }

    /// Materialised axis permutation; `perm[i]` is the source axis placed
    /// at output axis `i`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Invalid`] if `perm` is not a permutation of
    /// `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Result<Self> {
        let rank = self.rank();
        if perm.len() != rank {
            return Err(TensorError::Invalid {
                detail: format!("permute: perm {perm:?} for rank {rank}"),
            });
        }
        let mut seen = vec![false; rank];
        for &p in perm {
            if p >= rank || seen[p] {
                return Err(TensorError::Invalid {
                    detail: format!("permute: {perm:?} is not a permutation"),
                });
            }
            seen[p] = true;
        }
        let _span = crate::tensor::ew_span("ew.permute", self.len());
        let src_shape = self.shape();
        let src_strides = strides_for(src_shape);
        let out_shape: Vec<usize> = perm.iter().map(|&p| src_shape[p]).collect();
        let n = self.len();
        let src = self.data();
        let mut out = crate::tensor::alloc_cleared(n);
        if n == 0 {
            return Ok(Tensor::from_pooled(out, &out_shape));
        }
        // Output axes as (extent, stride in the source buffer), with
        // size-1 axes dropped and source-contiguous neighbours merged, so
        // e.g. a head split `[L, h, d] → [h, d, L]` is seen as the plain
        // matrix transpose it is.
        let mut dims: Vec<(usize, usize)> = Vec::with_capacity(rank);
        for &p in perm {
            let (extent, stride) = (src_shape[p], src_strides[p]);
            if extent == 1 {
                continue;
            }
            match dims.last_mut() {
                Some((e, s)) if *s == extent * stride => (*e, *s) = (*e * extent, stride),
                _ => dims.push((extent, stride)),
            }
        }
        match dims[..] {
            // The innermost axis stays innermost: contiguous row copies.
            [ref outer @ .., (len, 1)] => {
                for_each_offset(outer, |at| out.extend_from_slice(&src[at..at + len]));
            }
            // The two innermost output axes are a transposed matrix.
            [ref outer @ .., (cols, 1), (rows, stride)] if stride == cols => {
                out.resize(n, 0.0);
                let mut blocks = out.chunks_exact_mut(rows * cols);
                for_each_offset(outer, |at| {
                    let block = blocks.next().expect("one output block per outer index");
                    crate::transpose::transpose_into(&src[at..at + rows * cols], rows, cols, block);
                });
            }
            // Anything else: one element per step of the odometer.
            _ => for_each_offset(&dims, |at| out.push(src[at])),
        }
        Ok(Tensor::from_pooled(out, &out_shape))
    }

    /// Concatenates tensors along `axis`.
    ///
    /// # Errors
    ///
    /// Returns an error if `parts` is empty, the axis is out of range, or
    /// non-`axis` extents differ.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Result<Self> {
        let _span = crate::tensor::ew_span("ew.concat", parts.iter().map(|p| p.len()).sum());
        let first = parts.first().ok_or_else(|| TensorError::Invalid {
            detail: "concat of zero tensors".into(),
        })?;
        let rank = first.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let mut total_axis = 0usize;
        for p in parts {
            if p.rank() != rank {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: first.shape().to_vec(),
                    rhs: p.shape().to_vec(),
                });
            }
            for a in 0..rank {
                if a != axis && p.shape()[a] != first.shape()[a] {
                    return Err(TensorError::ShapeMismatch {
                        op: "concat",
                        lhs: first.shape().to_vec(),
                        rhs: p.shape().to_vec(),
                    });
                }
            }
            total_axis += p.shape()[axis];
        }
        let mut out_shape = first.shape().to_vec();
        out_shape[axis] = total_axis;
        let outer: usize = first.shape()[..axis].iter().product();
        let inner: usize = first.shape()[axis + 1..].iter().product();
        let mut out = crate::tensor::alloc_cleared(numel(&out_shape));
        for o in 0..outer {
            for p in parts {
                let mid = p.shape()[axis];
                let chunk = mid * inner;
                out.extend_from_slice(&p.data()[o * chunk..(o + 1) * chunk]);
            }
        }
        Ok(Tensor::from_pooled(out, &out_shape))
    }

    /// Extracts `[start, end)` along `axis`.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid axis or range.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Result<Self> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let dim = self.shape()[axis];
        if start > end || end > dim {
            return Err(TensorError::IndexOutOfBounds {
                detail: format!("slice [{start}, {end}) on axis {axis} of extent {dim}"),
            });
        }
        let _span = crate::tensor::ew_span("ew.copy", self.len());
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let mut out_shape = self.shape().to_vec();
        out_shape[axis] = end - start;
        let mut out = crate::tensor::alloc_cleared(numel(&out_shape));
        let src = self.data();
        for o in 0..outer {
            let base = (o * dim + start) * inner;
            out.extend_from_slice(&src[base..base + (end - start) * inner]);
        }
        Ok(Tensor::from_pooled(out, &out_shape))
    }

    /// Zero-pads each axis by `(before, after)` amounts.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Invalid`] if `pads.len() != rank`.
    pub fn pad(&self, pads: &[(usize, usize)]) -> Result<Self> {
        if pads.len() != self.rank() {
            return Err(TensorError::Invalid {
                detail: format!("pad: {} specs for rank {}", pads.len(), self.rank()),
            });
        }
        let out_shape: Vec<usize> = self
            .shape()
            .iter()
            .zip(pads)
            .map(|(&d, &(b, a))| d + b + a)
            .collect();
        let mut out = Tensor::zeros(&out_shape);
        let src_shape = self.shape().to_vec();
        let out_strides = strides_for(&out_shape);
        let rank = src_shape.len();
        let src = self.data();
        let dst = out.data_mut();
        let mut coords = vec![0usize; rank];
        // Base offset of the padded region's origin in the output buffer.
        let base: usize = pads
            .iter()
            .zip(out_strides.iter())
            .map(|(&(b, _), &s)| b * s)
            .sum();
        let mut dst_idx = base;
        for &v in src {
            dst[dst_idx] = v;
            for axis in (0..rank).rev() {
                coords[axis] += 1;
                dst_idx += out_strides[axis];
                if coords[axis] < src_shape[axis] {
                    break;
                }
                coords[axis] = 0;
                dst_idx -= out_strides[axis] * src_shape[axis];
            }
        }
        Ok(out)
    }

    /// Crops `pads` back off each axis, the inverse of [`Tensor::pad`].
    ///
    /// # Errors
    ///
    /// Returns an error if any crop exceeds the axis extent.
    pub fn crop(&self, pads: &[(usize, usize)]) -> Result<Self> {
        if pads.len() != self.rank() {
            return Err(TensorError::Invalid {
                detail: format!("crop: {} specs for rank {}", pads.len(), self.rank()),
            });
        }
        let mut cur = self.clone();
        for (axis, &(b, a)) in pads.iter().enumerate() {
            let dim = cur.shape()[axis];
            if b + a > dim {
                return Err(TensorError::IndexOutOfBounds {
                    detail: format!("crop ({b},{a}) on axis {axis} extent {dim}"),
                });
            }
            cur = cur.slice_axis(axis, b, dim - a)?;
        }
        Ok(cur)
    }

    /// Nearest-neighbour upsampling of the two trailing axes by `factor`.
    ///
    /// Works on any rank ≥ 2 tensor; leading axes are treated as batch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Invalid`] for rank < 2 or `factor == 0`.
    pub fn upsample2_nearest(&self, factor: usize) -> Result<Self> {
        if self.rank() < 2 || factor == 0 {
            return Err(TensorError::Invalid {
                detail: format!("upsample2_nearest: rank {} factor {factor}", self.rank()),
            });
        }
        let _span = crate::tensor::ew_span("ew.copy", self.len());
        let rank = self.rank();
        let (h, w) = (self.shape()[rank - 2], self.shape()[rank - 1]);
        let batch: usize = self.shape()[..rank - 2].iter().product();
        let (oh, ow) = (h * factor, w * factor);
        let mut out_shape = self.shape().to_vec();
        out_shape[rank - 2] = oh;
        out_shape[rank - 1] = ow;
        let src = self.data();
        let mut out = crate::tensor::alloc_cleared(batch * oh * ow);
        for b in 0..batch {
            for oy in 0..oh {
                let iy = oy / factor;
                for ox in 0..ow {
                    let ix = ox / factor;
                    out.push(src[(b * h + iy) * w + ix]);
                }
            }
        }
        Ok(Tensor::from_pooled(out, &out_shape))
    }
}

/// Calls `f` with the source offset of every index of `dims`
/// (`(extent, stride)` per axis, all extents ≥ 1) in row-major order,
/// walking coordinates incrementally instead of dividing per element.
fn for_each_offset(dims: &[(usize, usize)], mut f: impl FnMut(usize)) {
    let mut coords = vec![0usize; dims.len()];
    let mut at = 0usize;
    loop {
        f(at);
        let mut axis = dims.len();
        loop {
            if axis == 0 {
                return;
            }
            axis -= 1;
            let (extent, stride) = dims[axis];
            coords[axis] += 1;
            at += stride;
            if coords[axis] < extent {
                break;
            }
            coords[axis] = 0;
            at -= stride * extent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_checks_len() {
        let t = Tensor::arange(6);
        assert!(t.reshape(&[2, 3]).is_ok());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn permute_matrix_transpose() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let p = t.permute(&[1, 0]).unwrap();
        assert!(p.approx_eq(&t.transpose2(), 0.0));
    }

    #[test]
    fn permute_3d() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap();
        let p = t.permute(&[2, 0, 1]).unwrap();
        assert_eq!(p.shape(), &[4, 2, 3]);
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..4 {
                    assert_eq!(p.get(&[c, a, b]), t.get(&[a, b, c]));
                }
            }
        }
    }

    #[test]
    fn permute_rejects_invalid() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(t.permute(&[0, 0]).is_err());
        assert!(t.permute(&[0]).is_err());
        assert!(t.permute(&[0, 2]).is_err());
    }

    #[test]
    fn concat_axis1() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0], &[2, 1]).unwrap();
        let c = Tensor::concat(&[&a, &b], 1).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
    }

    #[test]
    fn slice_middle_axis() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap();
        let s = t.slice_axis(1, 1, 3).unwrap();
        assert_eq!(s.shape(), &[2, 2, 4]);
        assert_eq!(s.get(&[0, 0, 0]), t.get(&[0, 1, 0]));
        assert_eq!(s.get(&[1, 1, 3]), t.get(&[1, 2, 3]));
    }

    #[test]
    fn slice_concat_roundtrip() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let a = t.slice_axis(1, 0, 2).unwrap();
        let b = t.slice_axis(1, 2, 4).unwrap();
        assert!(Tensor::concat(&[&a, &b], 1).unwrap().approx_eq(&t, 0.0));
    }

    #[test]
    fn pad_crop_roundtrip() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32 + 1.0).collect(), &[2, 3]).unwrap();
        let p = t.pad(&[(1, 2), (0, 1)]).unwrap();
        assert_eq!(p.shape(), &[5, 4]);
        assert_eq!(p.get(&[0, 0]), 0.0);
        assert_eq!(p.get(&[1, 0]), 1.0);
        assert_eq!(p.sum(), t.sum());
        assert!(p.crop(&[(1, 2), (0, 1)]).unwrap().approx_eq(&t, 0.0));
    }

    #[test]
    fn upsample_nearest() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        let u = t.upsample2_nearest(2).unwrap();
        assert_eq!(u.shape(), &[1, 4, 4]);
        assert_eq!(u.get(&[0, 0, 1]), 1.0);
        assert_eq!(u.get(&[0, 3, 3]), 4.0);
        assert_eq!(u.sum(), t.sum() * 4.0);
    }
}

impl Tensor {
    /// Reverses the order of elements along `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for an invalid axis.
    pub fn flip_axis(&self, axis: usize) -> Result<Self> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let shape = self.shape();
        let outer: usize = shape[..axis].iter().product();
        let mid = shape[axis];
        let inner: usize = shape[axis + 1..].iter().product();
        let src = self.data();
        let mut out = crate::tensor::alloc_cleared(self.len());
        out.resize(self.len(), 0.0);
        for o in 0..outer {
            for m in 0..mid {
                let dst_m = mid - 1 - m;
                out[(o * mid + dst_m) * inner..(o * mid + dst_m + 1) * inner]
                    .copy_from_slice(&src[(o * mid + m) * inner..(o * mid + m + 1) * inner]);
            }
        }
        Ok(Tensor::from_pooled(out, shape))
    }
}

#[cfg(test)]
mod flip_tests {
    use super::*;

    #[test]
    fn flip_1d() {
        let t = Tensor::arange(4);
        assert_eq!(t.flip_axis(0).unwrap().data(), &[3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn flip_middle_axis_involution() {
        let t = Tensor::from_fn(&[2, 3, 4], |i| i as f32);
        let f = t.flip_axis(1).unwrap();
        assert_eq!(f.get(&[0, 0, 2]), t.get(&[0, 2, 2]));
        assert!(f.flip_axis(1).unwrap().approx_eq(&t, 0.0));
        assert!(t.flip_axis(3).is_err());
    }
}
