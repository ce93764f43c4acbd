//! N-dimensional `f32` tensors with reverse-mode automatic differentiation.
//!
//! This crate is the numeric substrate of the SDM-PEB reproduction. It
//! provides two layers:
//!
//! * [`Tensor`] — a plain, contiguous, row-major N-D array of `f32` with
//!   elementwise arithmetic, broadcasting, matrix multiplication,
//!   reductions and shape manipulation. Used directly by the physics
//!   simulator, which needs no gradients.
//! * [`Var`] — a node in a dynamically built computation graph wrapping a
//!   [`Tensor`]. Calling [`Var::backward`] runs reverse-mode automatic
//!   differentiation over the graph. All neural-network layers are built
//!   from `Var` operations; custom fused operations (convolutions, the
//!   Mamba selective scan) plug in through [`Var::from_op`]. Inference
//!   runs the same operations inside [`no_grad`], which records nothing.
//!
//! # Example
//!
//! ```
//! use peb_tensor::{Tensor, Var};
//!
//! # fn main() -> Result<(), peb_tensor::TensorError> {
//! let x = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3])?);
//! let y = x.mul(&x).sum(); // y = sum(x^2)
//! y.backward();
//! let g = x.grad().expect("leaf gradient");
//! assert_eq!(g.data(), &[2.0, 4.0, 6.0]); // dy/dx = 2x
//! # Ok(())
//! # }
//! ```

mod autograd;
mod broadcast;
mod construct;
mod elementwise;
mod error;
pub mod fused;
mod grad_check;
pub mod kernels;
mod matmul;
mod reduce;
mod shape;
mod shape_ops;
mod tensor;
mod transpose;

pub use autograd::{grad_enabled, no_grad, Var, VarId};
pub use error::TensorError;
pub use fused::FusedChain;
pub use grad_check::{check_gradients, numeric_gradient, GradCheckReport};
pub use shape::{broadcast_shapes, strides_for, Shape};
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
