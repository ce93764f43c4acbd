//! Reductions over all elements or a single axis.
//!
//! Reductions accumulate in `f64` so large volumes (millions of voxels in a
//! PEB grid) do not lose precision in the running sum.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Sum of all elements, accumulated in `f64` (vectorized into eight
    /// fixed-order `f64` partials on the SIMD path — deterministic per
    /// dispatch level).
    pub fn sum(&self) -> f32 {
        peb_simd::elementwise::vsum_f64(self.data()) as f32
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn max_value(&self) -> f32 {
        assert!(!self.is_empty(), "max_value of empty tensor");
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn min_value(&self) -> f32 {
        assert!(!self.is_empty(), "min_value of empty tensor");
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Flat index of the maximum element (first occurrence).
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn argmax(&self) -> usize {
        assert!(!self.is_empty(), "argmax of empty tensor");
        let mut best = 0usize;
        let mut bv = self.data()[0];
        for (i, &v) in self.data().iter().enumerate() {
            if v > bv {
                bv = v;
                best = i;
            }
        }
        best
    }

    /// Sum over one axis, removing it from the shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for an invalid axis.
    pub fn sum_axis(&self, axis: usize) -> Result<Self> {
        self.reduce_axis(axis, |acc, v| acc + v as f64, 0.0, |acc, _| acc as f32)
    }

    /// Mean over one axis, removing it from the shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for an invalid axis.
    pub fn mean_axis(&self, axis: usize) -> Result<Self> {
        let n = *self.shape().get(axis).ok_or(TensorError::AxisOutOfRange {
            axis,
            rank: self.rank(),
        })? as f64;
        self.reduce_axis(
            axis,
            |acc, v| acc + v as f64,
            0.0,
            move |acc, _| (acc / n) as f32,
        )
    }

    fn reduce_axis(
        &self,
        axis: usize,
        fold: impl Fn(f64, f32) -> f64,
        init: f64,
        finish: impl Fn(f64, usize) -> f32,
    ) -> Result<Self> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let _span = crate::tensor::ew_span("ew.reduce_axis", self.len());
        let shape = self.shape();
        let outer: usize = shape[..axis].iter().product();
        let mid = shape[axis];
        let inner: usize = shape[axis + 1..].iter().product();
        let mut out_shape = shape.to_vec();
        out_shape.remove(axis);
        let src = self.data();
        let mut out = crate::tensor::alloc_cleared(outer * inner);
        for o in 0..outer {
            for i in 0..inner {
                let mut acc = init;
                for m in 0..mid {
                    acc = fold(acc, src[(o * mid + m) * inner + i]);
                }
                out.push(finish(acc, mid));
            }
        }
        Ok(Tensor::from_pooled(out, &out_shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t234() -> Tensor {
        Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap()
    }

    #[test]
    fn global_reductions() {
        let t = t234();
        assert_eq!(t.sum(), 276.0);
        assert_eq!(t.mean(), 11.5);
        assert_eq!(t.max_value(), 23.0);
        assert_eq!(t.min_value(), 0.0);
        assert_eq!(t.argmax(), 23);
    }

    #[test]
    fn sum_axis_middle() {
        let t = t234();
        let s = t.sum_axis(1).unwrap();
        assert_eq!(s.shape(), &[2, 4]);
        // Sum over axis 1 of element (0, :, 0) = 0 + 4 + 8.
        assert_eq!(s.get(&[0, 0]), 12.0);
        assert_eq!(s.get(&[1, 3]), 15.0 + 19.0 + 23.0);
    }

    #[test]
    fn mean_axis_matches_sum() {
        let t = t234();
        let m = t.mean_axis(2).unwrap();
        let s = t.sum_axis(2).unwrap();
        assert!(m.approx_eq(&s.mul_scalar(0.25), 1e-6));
    }

    #[test]
    fn axis_out_of_range() {
        assert!(t234().sum_axis(3).is_err());
    }
}
