//! Reductions over all elements.
//!
//! Reductions accumulate in `f64` so large volumes (millions of voxels in a
//! PEB grid) do not lose precision in the running sum.

use crate::Tensor;

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
}
