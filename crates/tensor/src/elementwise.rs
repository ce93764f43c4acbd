//! Raw (non-autograd) elementwise arithmetic.
//!
//! Broadcasting variants return [`crate::Result`]; the `std::ops`
//! implementations panic on incompatible shapes for ergonomic use in the
//! physics code where shapes are statically known.
//!
//! Same-shape binary ops and the dense unary ops run as one-stage
//! [`peb_simd::fused::vchain`] calls, and so do the row loops of
//! broadcasts that factor into rows × columns (SsmBlock's Δ outer sum,
//! the only broadcast the model makes, and rank-0 operands — see
//! `broadcast.rs`); only the remaining broadcast shapes, which no model
//! shape reaches, take the strided scalar walk. The `+ − × ÷ √` and
//! scalar stages are bitwise identical to the plain expressions at every
//! dispatch level; `exp`/`sigmoid`/`softplus` use the polynomial vector
//! exponential (and logarithm) on SIMD (bounded-ULP, deterministic per
//! dispatch level).

use std::ops::{Add, Div, Mul, Neg, Sub};

use peb_simd::fused::{vchain, Stage};

use crate::{Result, Tensor};

/// A binary stage constructor (`Stage::AddT`, …).
type BinaryStage = for<'b> fn(&'b [f32]) -> Stage<'b>;

/// Runs the one-stage chain `stage(b)` over `a` into a pooled output.
fn zip_kernel(a: &Tensor, b: &Tensor, stage: BinaryStage) -> Tensor {
    let n = a.data().len();
    let _span = crate::tensor::ew_span("ew.zip", n);
    let mut data = crate::tensor::alloc_cleared(n);
    data.resize(n, 0.0);
    vchain(a.data(), &[stage(b.data())], &mut data);
    Tensor::from_pooled(data, a.shape())
}

/// Runs the one-stage chain `stage` over `a` into a pooled output.
fn map_kernel(a: &Tensor, stage: Stage<'_>) -> Tensor {
    let n = a.data().len();
    let _span = crate::tensor::ew_span("ew.map", n);
    let mut data = crate::tensor::alloc_cleared(n);
    data.resize(n, 0.0);
    vchain(a.data(), &[stage], &mut data);
    Tensor::from_pooled(data, a.shape())
}

impl Tensor {
    /// `f` with broadcasting: a same-shape pair runs the one-stage chain
    /// `stage`, a broadcast pair runs it on its row blocks (or `f` on the
    /// generic walk).
    fn binary(&self, other: &Self, f: fn(f32, f32) -> f32, stage: BinaryStage) -> Result<Self> {
        if self.shape() == other.shape() {
            return Ok(zip_kernel(self, other, stage));
        }
        self.broadcast_with(other, f, |a, b, out| vchain(a, &[stage(b)], out))
    }

    /// Broadcasting addition.
    ///
    /// # Errors
    ///
    /// Returns a shape error when operands do not broadcast.
    pub fn add_t(&self, other: &Self) -> Result<Self> {
        self.binary(other, |a, b| a + b, |b| Stage::AddT(b))
    }

    /// Broadcasting subtraction.
    ///
    /// # Errors
    ///
    /// Returns a shape error when operands do not broadcast.
    pub fn sub_t(&self, other: &Self) -> Result<Self> {
        self.binary(other, |a, b| a - b, |b| Stage::SubT(b))
    }

    /// Broadcasting multiplication.
    ///
    /// # Errors
    ///
    /// Returns a shape error when operands do not broadcast.
    pub fn mul_t(&self, other: &Self) -> Result<Self> {
        self.binary(other, |a, b| a * b, |b| Stage::MulT(b))
    }

    /// Broadcasting division.
    ///
    /// # Errors
    ///
    /// Returns a shape error when operands do not broadcast.
    pub fn div_t(&self, other: &Self) -> Result<Self> {
        self.binary(other, |a, b| a / b, |b| Stage::DivT(b))
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        map_kernel(self, Stage::AddScalar(s))
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Self {
        map_kernel(self, Stage::MulScalar(s))
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Self {
        map_kernel(self, Stage::Exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Self {
        self.map(f32::ln)
    }

    /// Elementwise absolute value.
    pub fn abs_t(&self) -> Self {
        self.map(f32::abs)
    }

    /// Elementwise square root.
    pub fn sqrt_t(&self) -> Self {
        map_kernel(self, Stage::Sqrt)
    }

    /// Logistic sigmoid, numerically stable on both tails.
    pub fn sigmoid(&self) -> Self {
        map_kernel(self, Stage::Sigmoid)
    }

    /// Softplus `x > 20 ? x : ln(1 + exp(x))`.
    pub(crate) fn softplus(&self) -> Self {
        map_kernel(self, Stage::Softplus)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $raw:ident, $opname:literal) => {
        impl $trait<&Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.$raw(rhs)
                    .unwrap_or_else(|e| panic!(concat!($opname, ": {}"), e))
            }
        }
        impl $trait<Tensor> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                (&self).$method(&rhs)
            }
        }
    };
}

impl_binop!(Add, add, add_t, "tensor add");
impl_binop!(Sub, sub, sub_t, "tensor sub");
impl_binop!(Mul, mul, mul_t, "tensor mul");
impl_binop!(Div, div, div_t, "tensor div");

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.map(|x| -x)
    }
}

impl Neg for Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        -&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_overloads() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!((&a + &b).data(), &[4.0, 7.0]);
        assert_eq!((&b - &a).data(), &[2.0, 3.0]);
        assert_eq!((&a * &b).data(), &[3.0, 10.0]);
        assert_eq!((&b / &a).data(), &[3.0, 2.5]);
        assert_eq!((-&a).data(), &[-1.0, -2.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = Tensor::from_vec(vec![1.0, 4.0], &[2]).unwrap();
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 5.0]);
        assert_eq!(a.mul_scalar(0.5).data(), &[0.5, 2.0]);
        assert_eq!(a.sqrt_t().data(), &[1.0, 2.0]);
    }

    #[test]
    fn sigmoid_stability() {
        let t = Tensor::from_vec(vec![-100.0, 0.0, 100.0], &[3]).unwrap();
        let s = t.sigmoid();
        assert!(s.data()[0] >= 0.0 && s.data()[0] < 1e-30);
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!((s.data()[2] - 1.0).abs() < 1e-6);
        assert!(s.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn exp_ln_roundtrip() {
        let t = Tensor::from_vec(vec![0.5, 1.0, 2.0], &[3]).unwrap();
        assert!(t.ln().exp().approx_eq(&t, 1e-5));
    }
}
