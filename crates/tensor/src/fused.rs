//! Lazy fused elementwise chains over [`Tensor`].
//!
//! [`Tensor::fused`] starts a bounded chain builder; each combinator
//! records one elementwise stage, and [`FusedChain::eval`] executes the
//! whole chain as a **single** streaming sweep through
//! [`peb_simd::fused::vchain`] — one pool checkout for the output
//! instead of one per stage, and one pass over memory instead of k.
//!
//! The fused result is bitwise identical to evaluating the same stages
//! as separate tensor ops at the same `PEB_SIMD` dispatch level (see the
//! determinism contract in `peb_simd::fused`). Those eager ops are the
//! oracle: `peb_simd::fused`'s tests pin each stage against its kernel,
//! and `fused_matches_eager_ops_bitwise` below pins whole chains.
//!
//! # Example
//!
//! ```
//! use peb_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![0.0, 1.0], &[2]).unwrap();
//! let b = Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap();
//! // sigmoid((a + b) * 0.5) in one sweep.
//! let y = a.fused().add(&b).mul_scalar(0.5).sigmoid().eval();
//! assert_eq!(y.shape(), &[2]);
//! ```

use peb_simd::fused::Stage;

use crate::Tensor;

/// A bounded chain of elementwise stages pending evaluation.
///
/// Built by [`Tensor::fused`]; consumed by [`FusedChain::eval`]. Binary
/// combinators require the operand to have the source's shape (fusion is
/// same-shape only — broadcasting calls keep using the eager ops).
#[must_use = "a fused chain does nothing until eval()"]
pub struct FusedChain<'a> {
    src: &'a Tensor,
    stages: Vec<Stage<'a>>,
}

impl Tensor {
    /// Starts a lazily fused elementwise chain rooted at this tensor.
    pub fn fused(&self) -> FusedChain<'_> {
        FusedChain {
            src: self,
            stages: Vec::new(),
        }
    }
}

// Builder-style stage names intentionally mirror the elementwise tensor
// ops they fuse; the chain is not a numeric type, so the std::ops traits
// (which consume two operands and return a value) do not fit.
#[allow(clippy::should_implement_trait)]
impl<'a> FusedChain<'a> {
    fn operand(&mut self, b: &'a Tensor, make: fn(&'a [f32]) -> Stage<'a>) {
        assert_eq!(
            b.shape(),
            self.src.shape(),
            "fused chain operands must be same-shape"
        );
        self.stages.push(make(b.data()));
    }

    /// `acc + b`
    pub fn add(mut self, b: &'a Tensor) -> Self {
        self.operand(b, Stage::AddT);
        self
    }

    /// `acc − b`
    pub fn sub(mut self, b: &'a Tensor) -> Self {
        self.operand(b, Stage::SubT);
        self
    }

    /// `b − acc`
    pub fn rsub(mut self, b: &'a Tensor) -> Self {
        self.operand(b, Stage::RsubT);
        self
    }

    /// `acc × b`
    pub fn mul(mut self, b: &'a Tensor) -> Self {
        self.operand(b, Stage::MulT);
        self
    }

    /// `acc ÷ b`
    pub fn div(mut self, b: &'a Tensor) -> Self {
        self.operand(b, Stage::DivT);
        self
    }

    /// `acc + s`
    pub fn add_scalar(mut self, s: f32) -> Self {
        self.stages.push(Stage::AddScalar(s));
        self
    }

    /// `acc × s`
    pub fn mul_scalar(mut self, s: f32) -> Self {
        self.stages.push(Stage::MulScalar(s));
        self
    }

    /// `s − acc`
    pub fn sub_from_scalar(mut self, s: f32) -> Self {
        self.stages.push(Stage::SubFromScalar(s));
        self
    }

    /// `√acc`
    pub fn sqrt(mut self) -> Self {
        self.stages.push(Stage::Sqrt);
        self
    }

    /// `exp(acc)` (backend exponential — tolerance-class on SIMD).
    pub fn exp(mut self) -> Self {
        self.stages.push(Stage::Exp);
        self
    }

    /// Numerically stable logistic sigmoid.
    pub fn sigmoid(mut self) -> Self {
        self.stages.push(Stage::Sigmoid);
        self
    }

    /// `−acc`
    pub fn neg(mut self) -> Self {
        self.stages.push(Stage::Neg);
        self
    }

    /// `if acc ≥ 0 { acc } else { slope × acc }`; with `slope == 0` it is
    /// ReLU, `max(acc, +0.0)` (`−0.0`, `−∞` and NaN give `+0.0`).
    pub fn leaky_relu(mut self, slope: f32) -> Self {
        self.stages.push(Stage::LeakyRelu(slope));
        self
    }

    /// Number of recorded stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the chain has no stages yet.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Executes the chain as one streaming sweep and one pool checkout,
    /// ticking `fused_ops` once per collapsed stage.
    pub fn eval(self) -> Tensor {
        if self.stages.is_empty() {
            return self.src.clone();
        }
        let _span = crate::tensor::ew_span("ew.chain", self.src.len());
        peb_obs::optrace::note("fused", || {
            let names: Vec<&str> = self.stages.iter().map(|s| s.name()).collect();
            format!("chain=[{}] len={}", names.join(","), self.src.len())
        });
        let n = self.src.len();
        let mut data = crate::tensor::alloc_cleared(n);
        data.resize(n, 0.0);
        peb_simd::fused::vchain(self.src.data(), &self.stages, &mut data);
        peb_obs::count(peb_obs::Counter::FusedOps, self.stages.len() as u64);
        Tensor::from_pooled(data, self.src.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(len: usize, salt: u32) -> Tensor {
        Tensor::from_fn(&[len], |i| {
            let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
            (x as f32 / u32::MAX as f32) * 4.0 - 2.0
        })
    }

    #[test]
    fn fused_matches_eager_ops_bitwise() {
        let a = t(101, 1);
        let b = t(101, 2);
        let eager = (&(&a + &b) * &b).mul_scalar(0.5).sigmoid();
        let fused = a.fused().add(&b).mul(&b).mul_scalar(0.5).sigmoid().eval();
        for (x, y) in eager.data().iter().zip(fused.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn empty_chain_is_identity() {
        let a = t(9, 5);
        let out = a.fused().eval();
        assert_eq!(a.data(), out.data());
    }

    #[test]
    #[should_panic(expected = "same-shape")]
    fn rejects_shape_mismatch() {
        let a = t(8, 6);
        let b = t(9, 7);
        let _ = a.fused().add(&b);
    }
}
