//! Shape arithmetic shared by raw tensors and autograd operations.

use crate::{Result, TensorError};

/// A tensor shape: the extent of each axis, outermost first (row-major).
pub type Shape = Vec<usize>;

/// Row-major strides for `shape` (in elements, not bytes).
///
/// The last axis always has stride 1; an empty shape yields empty strides.
pub fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0; shape.len()];
    let mut acc = 1usize;
    for (s, &dim) in strides.iter_mut().zip(shape.iter()).rev() {
        *s = acc;
        acc *= dim;
    }
    strides
}

/// Number of elements implied by `shape` (1 for a scalar/empty shape).
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Computes the broadcast result shape of two operand shapes.
///
/// Shapes align from the trailing axis; each pair of extents must be equal
/// or one of them must be 1 (NumPy semantics).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when any aligned pair of extents
/// differs and neither is 1.
pub fn broadcast_shapes(lhs: &[usize], rhs: &[usize]) -> Result<Shape> {
    let rank = lhs.len().max(rhs.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let l = if i < lhs.len() {
            lhs[lhs.len() - 1 - i]
        } else {
            1
        };
        let r = if i < rhs.len() {
            rhs[rhs.len() - 1 - i]
        } else {
            1
        };
        out[rank - 1 - i] = if l == r {
            l
        } else if l == 1 {
            r
        } else if r == 1 {
            l
        } else {
            return Err(TensorError::ShapeMismatch {
                op: "broadcast",
                lhs: lhs.to_vec(),
                rhs: rhs.to_vec(),
            });
        };
    }
    Ok(out)
}

/// Converts multi-axis coordinates into a flat row-major index.
pub fn ravel(coords: &[usize], shape: &[usize]) -> usize {
    debug_assert_eq!(coords.len(), shape.len());
    let mut flat = 0usize;
    for (&c, &d) in coords.iter().zip(shape.iter()) {
        debug_assert!(c < d);
        flat = flat * d + c;
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert!(strides_for(&[]).is_empty());
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[3, 1], &[1, 4]).unwrap(), vec![3, 4]);
        assert_eq!(broadcast_shapes(&[2, 3], &[3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[], &[2, 2]).unwrap(), vec![2, 2]);
    }

    #[test]
    fn broadcast_rejects_mismatch() {
        assert!(broadcast_shapes(&[2, 3], &[2, 4]).is_err());
    }

    /// Converts a flat index into multi-axis coordinates for `shape`.
    fn unravel(mut flat: usize, shape: &[usize]) -> Vec<usize> {
        let mut coords = vec![0usize; shape.len()];
        for i in (0..shape.len()).rev() {
            coords[i] = flat % shape[i];
            flat /= shape[i];
        }
        coords
    }

    #[test]
    fn ravel_unravel_roundtrip() {
        let shape = [2, 3, 5];
        for flat in 0..numel(&shape) {
            let coords = unravel(flat, &shape);
            assert_eq!(ravel(&coords, &shape), flat);
        }
    }
}
