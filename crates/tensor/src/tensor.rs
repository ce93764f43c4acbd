//! The raw dense tensor type.

use serde::{Deserialize, Serialize};

use crate::shape::{numel, ravel, strides_for, Shape};
use crate::{Result, TensorError};

/// A contiguous, row-major, N-dimensional array of `f32`.
///
/// `Tensor` is the storage type shared by the physics simulator (which uses
/// it directly) and the autograd layer (which wraps it in [`crate::Var`]).
/// All operations allocate fresh output tensors unless documented otherwise.
///
/// # Example
///
/// ```
/// use peb_tensor::Tensor;
///
/// # fn main() -> Result<(), peb_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

/// Checks out an **empty** pooled buffer with capacity ≥ `cap` from the
/// thread-local `peb-pool`, counting a `tensor_allocs` only when fresh
/// heap storage was allocated (a pool miss).
/// Every constructor routes through here so dropped tensors (recycled by
/// the `Drop` impl) feed the next construction.
pub(crate) fn alloc_cleared(cap: usize) -> Vec<f32> {
    let (v, fresh) = peb_pool::take_cleared(cap);
    if fresh {
        peb_obs::count(peb_obs::Counter::TensorAllocs, 1);
    }
    v
}

/// Pooled copy of a slice, with the same alloc accounting as
/// [`alloc_cleared`].
pub(crate) fn alloc_copy(src: &[f32]) -> Vec<f32> {
    let (v, fresh) = peb_pool::take_copy(src);
    if fresh {
        peb_obs::count(peb_obs::Counter::TensorAllocs, 1);
    }
    v
}

/// Span around a `Tensor`-level elementwise / data-movement entry point
/// touching `elems` elements (names `ew.*`: chain, broadcast, reduce,
/// permute, softmax, concat, zip, map, copy).
///
/// Calls below [`SPAN_MIN_ELEMS`] get no span: recording one costs about
/// as much as streaming that many floats, so it would distort what it
/// measures and tax small-clip serving. Together with the kernel spans
/// this attributes a full-size `predict` to named spans.
pub(crate) fn ew_span(name: &'static str, elems: usize) -> Option<peb_obs::SpanGuard> {
    (elems >= SPAN_MIN_ELEMS).then(|| peb_obs::span(name))
}

/// Smallest call [`ew_span`] attributes (16 KiB of `f32`).
const SPAN_MIN_ELEMS: usize = 4096;

impl Tensor {
    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        if data.len() != numel(shape) {
            return Err(TensorError::LengthMismatch {
                len: data.len(),
                shape: shape.to_vec(),
            });
        }
        peb_obs::count(peb_obs::Counter::TensorAllocs, 1);
        Ok(Self {
            data,
            shape: shape.to_vec(),
        })
    }

    /// Wraps a buffer that came from [`alloc_cleared`]/[`alloc_copy`]
    /// (whose checkout already did the alloc accounting) without counting
    /// a second `tensor_allocs`.
    pub(crate) fn from_pooled(data: Vec<f32>, shape: &[usize]) -> Self {
        debug_assert_eq!(data.len(), numel(shape));
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        let mut data = alloc_cleared(1);
        data.push(value);
        Self {
            data,
            shape: Vec::new(),
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = numel(shape);
        let mut data = alloc_cleared(n);
        data.resize(n, value);
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a one-filled tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n = numel(shape);
        let mut data = alloc_cleared(n);
        for i in 0..n {
            data.push(f(i));
        }
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Shape of the tensor, outermost axis first.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (number of axes).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row-major strides (in elements).
    pub fn strides(&self) -> Vec<usize> {
        strides_for(&self.shape)
    }

    /// Reads the element at multi-axis `coords`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `coords` is out of range.
    pub fn get(&self, coords: &[usize]) -> f32 {
        self.data[ravel(coords, &self.shape)]
    }

    /// Writes the element at multi-axis `coords`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `coords` is out of range.
    pub fn set(&mut self, coords: &[usize], value: f32) {
        let idx = ravel(coords, &self.shape);
        self.data[idx] = value;
    }

    /// Returns the single element of a scalar or one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() requires exactly one element, got shape {:?}",
            self.shape
        );
        self.data[0]
    }

    /// FNV-1a digest over the exact bit patterns of every element.
    ///
    /// Two tensors digest equal iff their flat buffers are bitwise
    /// identical, which is what the workspace's determinism contracts
    /// (SIMD level, thread count, fusion, tiling, batching) compare.
    /// The shape is deliberately excluded so a reshape of the same
    /// buffer digests the same.
    pub fn bit_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in &self.data {
            h ^= v.to_bits() as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let _span = ew_span("ew.map", self.data.len());
        let mut data = alloc_cleared(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Self {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ (use the
    /// broadcasting entry points in this crate for mixed shapes).
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let mut data = alloc_cleared(self.data.len());
        data.extend(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b)),
        );
        Ok(Self {
            data,
            shape: self.shape.clone(),
        })
    }

    /// True when every element differs from `other` by at most `tol`.
    ///
    /// Returns `false` (rather than erroring) on shape mismatch, which is
    /// the convenient behaviour inside assertions.
    pub fn approx_eq(&self, other: &Self, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Maximum absolute difference against `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let (data, fresh) = peb_pool::take_copy(&self.data);
        if fresh {
            peb_obs::count(peb_obs::Counter::TensorAllocs, 1);
        }
        Self {
            data,
            shape: self.shape.clone(),
        }
    }
}

impl Drop for Tensor {
    /// Returns the storage to the thread-local `peb-pool` so the next
    /// same-sized constructor reuses it instead of allocating. A no-op
    /// when the buffer was moved out.
    fn drop(&mut self) {
        peb_pool::recycle(std::mem::take(&mut self.data));
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, …, {:.4}] ({} elems)",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1],
                self.data.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
        assert_eq!(t.get(&[1, 2, 3]), 23.0);
        assert_eq!(t.get(&[1, 0, 2]), 14.0);
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(a.map(|x| x * 2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.zip_map(&b, |x, y| x + y).unwrap().data(), &[11.0, 22.0]);
        assert!(a.zip_map(&Tensor::zeros(&[3]), |x, _| x).is_err());
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn display_nonempty() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(!format!("{t}").is_empty());
        assert!(!format!("{t:?}").is_empty());
    }
}
