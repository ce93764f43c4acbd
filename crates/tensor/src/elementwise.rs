//! Raw (non-autograd) elementwise arithmetic.
//!
//! Broadcasting variants return [`crate::Result`]; the `std::ops`
//! implementations panic on incompatible shapes for ergonomic use in the
//! physics code where shapes are statically known.
//!
//! Same-shape binary ops and the dense unary ops route through the
//! runtime-dispatched `peb-simd` kernels, and so do broadcasts that
//! factor into rows × columns (bias, LayerNorm statistics, rank-0
//! operands — see `broadcast.rs`); only the remaining broadcast shapes
//! take the strided scalar walk. The SIMD `+ − × ÷ √` and scalar
//! ops are bitwise identical to the plain expressions; `exp`/`sigmoid`
//! use the polynomial vector exponential (bounded-ULP, deterministic per
//! dispatch level).

use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::{Result, Tensor};

/// Runs a same-shape binary `peb-simd` kernel into a pooled output.
fn zip_kernel(a: &Tensor, b: &Tensor, kernel: fn(&[f32], &[f32], &mut [f32])) -> Tensor {
    let n = a.data().len();
    let _span = crate::tensor::ew_span("ew.zip", n);
    let mut data = crate::tensor::alloc_cleared(n);
    data.resize(n, 0.0);
    kernel(a.data(), b.data(), &mut data);
    Tensor::from_pooled(data, a.shape())
}

/// Runs a unary `peb-simd` kernel into a pooled output.
fn map_kernel(a: &Tensor, kernel: impl FnOnce(&[f32], &mut [f32])) -> Tensor {
    let n = a.data().len();
    let _span = crate::tensor::ew_span("ew.map", n);
    let mut data = crate::tensor::alloc_cleared(n);
    data.resize(n, 0.0);
    kernel(a.data(), &mut data);
    Tensor::from_pooled(data, a.shape())
}

impl Tensor {
    /// Broadcasting addition.
    ///
    /// # Errors
    ///
    /// Returns a shape error when operands do not broadcast.
    pub fn add_t(&self, other: &Self) -> Result<Self> {
        if self.shape() == other.shape() {
            return Ok(zip_kernel(self, other, peb_simd::elementwise::vadd));
        }
        self.broadcast_with(other, |a, b| a + b, peb_simd::elementwise::vadd)
    }

    /// Broadcasting subtraction.
    ///
    /// # Errors
    ///
    /// Returns a shape error when operands do not broadcast.
    pub fn sub_t(&self, other: &Self) -> Result<Self> {
        if self.shape() == other.shape() {
            return Ok(zip_kernel(self, other, peb_simd::elementwise::vsub));
        }
        self.broadcast_with(other, |a, b| a - b, peb_simd::elementwise::vsub)
    }

    /// Broadcasting multiplication.
    ///
    /// # Errors
    ///
    /// Returns a shape error when operands do not broadcast.
    pub fn mul_t(&self, other: &Self) -> Result<Self> {
        if self.shape() == other.shape() {
            return Ok(zip_kernel(self, other, peb_simd::elementwise::vmul));
        }
        self.broadcast_with(other, |a, b| a * b, peb_simd::elementwise::vmul)
    }

    /// Broadcasting division.
    ///
    /// # Errors
    ///
    /// Returns a shape error when operands do not broadcast.
    pub fn div_t(&self, other: &Self) -> Result<Self> {
        if self.shape() == other.shape() {
            return Ok(zip_kernel(self, other, peb_simd::elementwise::vdiv));
        }
        self.broadcast_with(other, |a, b| a / b, peb_simd::elementwise::vdiv)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        map_kernel(self, |x, out| peb_simd::elementwise::vadd_scalar(x, s, out))
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Self {
        map_kernel(self, |x, out| peb_simd::elementwise::vmul_scalar(x, s, out))
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Self {
        map_kernel(self, peb_simd::elementwise::vexp)
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
        map_kernel(self, peb_simd::elementwise::vsqrt)
    }

    /// Elementwise power with a scalar exponent.
    pub fn powf_t(&self, p: f32) -> Self {
        self.map(|x| x.powf(p))
    }

    /// Elementwise clamp to `[lo, hi]`.
    pub fn clamp_t(&self, lo: f32, hi: f32) -> Self {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Logistic sigmoid, numerically stable on both tails.
    pub fn sigmoid(&self) -> Self {
        map_kernel(self, peb_simd::elementwise::vsigmoid)
    }
}

/// Numerically stable logistic sigmoid.
pub(crate) fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
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
        assert_eq!(a.powf_t(2.0).data(), &[1.0, 16.0]);
        assert_eq!(a.clamp_t(0.0, 2.0).data(), &[1.0, 2.0]);
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
