//! Reverse-mode automatic differentiation over [`Tensor`] values.
//!
//! A [`Var`] wraps a tensor inside a dynamically built computation DAG.
//! Every operation records its parents and a backward closure; calling
//! [`Var::backward`] on a scalar output propagates gradients to every
//! reachable node that requires them.
//!
//! Node identifiers increase monotonically with creation order, and an
//! operation's parents always exist before its output, so visiting nodes in
//! decreasing id order is a valid reverse topological order — no explicit
//! sort-free graph traversal is needed beyond reachability.
//!
//! # Inference off the tape
//!
//! Inside [`no_grad`] nothing is recorded: every operation builds a
//! constant node (no parents, no backward closure), so an intermediate's
//! buffer returns to the pool the moment its last handle drops instead of
//! living until the graph does. Values are computed by the same kernels
//! either way — a tape-free forward is bitwise identical to a taped one.
//!
//! # Saved state is a handle, never a copy
//!
//! A backward closure captures its operands as [`Var`] handles (an `Rc`
//! bump) and receives the operation's own output from the node it belongs
//! to; no operation copies a tensor at forward time for backward's sake.

mod attention;
mod elementwise;
mod linalg;
mod norm;
mod reduce;
mod shape;

use std::cell::{Cell, Ref, RefCell};
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::Tensor;

/// Unique, creation-ordered identifier of an autograd node.
pub type VarId = u64;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> VarId {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// Whether operations on this thread record onto the tape.
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Whether operations on the calling thread record onto the autograd
/// tape (`true` everywhere except inside [`no_grad`]).
pub fn grad_enabled() -> bool {
    GRAD_ENABLED.with(Cell::get)
}

/// Runs `f` with tape recording switched off on the calling thread.
///
/// Every [`Var`] operation inside the scope yields a constant node:
/// `requires_grad()` is `false`, no parents are retained and no backward
/// closure is kept, so each intermediate is freed as soon as its last
/// handle drops. Parameters are untouched (their `grad()` stays as it
/// was). Scopes nest; the previous state is restored on exit, including
/// when `f` panics. Other threads keep recording.
///
/// Calling [`Var::backward`] inside the scope panics: there is no tape
/// to walk, and silently doing nothing would hide the mistake.
///
/// # Example
///
/// ```
/// use peb_tensor::{no_grad, Tensor, Var};
///
/// let w = Var::parameter(Tensor::scalar(3.0));
/// let y = no_grad(|| w.mul(&w));
/// assert_eq!(y.value().item(), 9.0);
/// assert!(!y.requires_grad());
/// ```
pub fn no_grad<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            GRAD_ENABLED.with(|g| g.set(self.0));
        }
    }
    let _restore = Restore(GRAD_ENABLED.with(|g| g.replace(false)));
    f()
}

/// Backward closure: maps the output gradient and the node's own output
/// value to one gradient per parent (`None` for parents that do not
/// require gradients).
type BackFn = Box<dyn Fn(&Tensor, &Tensor) -> Vec<Option<Tensor>>>;

struct Node {
    id: VarId,
    value: RefCell<Tensor>,
    grad: RefCell<Option<Tensor>>,
    requires_grad: bool,
    parents: Vec<Var>,
    backward: Option<BackFn>,
}

/// A node in the autograd graph: a tensor plus provenance.
///
/// `Var` is a cheap reference-counted handle; cloning shares the node.
/// Graphs are single-threaded by design (the training loop owns them).
///
/// # Example
///
/// ```
/// use peb_tensor::{Tensor, Var};
///
/// let w = Var::parameter(Tensor::scalar(3.0));
/// let loss = w.mul(&w).mul_scalar(0.5); // 0.5 w²
/// loss.backward();
/// assert_eq!(w.grad().unwrap().item(), 3.0); // d/dw = w
/// ```
#[derive(Clone)]
pub struct Var {
    node: Rc<Node>,
}

impl Var {
    /// Wraps a tensor as a constant (no gradient tracked).
    pub fn constant(value: Tensor) -> Self {
        Self::leaf(value, false)
    }

    /// Wraps a tensor as a trainable parameter (gradient accumulated).
    pub fn parameter(value: Tensor) -> Self {
        Self::leaf(value, true)
    }

    fn leaf(value: Tensor, requires_grad: bool) -> Self {
        Var {
            node: Rc::new(Node {
                id: next_id(),
                value: RefCell::new(value),
                grad: RefCell::new(None),
                requires_grad,
                parents: Vec::new(),
                backward: None,
            }),
        }
    }

    /// Creates a node from a custom operation.
    ///
    /// `back` receives the gradient flowing into this node and must return
    /// one `Option<Tensor>` per entry of `parents`, in order. This is the
    /// extension point used by the convolution and selective-scan kernels
    /// in downstream crates.
    ///
    /// When no parent requires a gradient, or inside [`no_grad`], the node
    /// is a constant: `parents` and `back` are dropped on the spot.
    pub fn from_op(
        value: Tensor,
        parents: Vec<Var>,
        back: impl Fn(&Tensor) -> Vec<Option<Tensor>> + 'static,
    ) -> Self {
        Self::from_op_out(value, parents, move |g, _| back(g))
    }

    /// [`Var::from_op`] for operations whose derivative reads their own
    /// output: `back` receives `(grad, output)`, the output borrowed from
    /// the node, so the forward pass keeps no copy of it.
    pub fn from_op_out(
        value: Tensor,
        parents: Vec<Var>,
        back: impl Fn(&Tensor, &Tensor) -> Vec<Option<Tensor>> + 'static,
    ) -> Self {
        let requires_grad = grad_enabled() && parents.iter().any(Var::requires_grad);
        Var {
            node: Rc::new(Node {
                id: next_id(),
                value: RefCell::new(value),
                grad: RefCell::new(None),
                requires_grad,
                parents: if requires_grad { parents } else { Vec::new() },
                backward: if requires_grad {
                    Some(Box::new(back))
                } else {
                    None
                },
            }),
        }
    }

    /// Stable identifier of this node.
    pub fn id(&self) -> VarId {
        self.node.id
    }

    /// Whether gradients flow into this node.
    pub fn requires_grad(&self) -> bool {
        self.node.requires_grad
    }

    /// Borrows the tensor value.
    ///
    /// # Panics
    ///
    /// Panics if the value is mutably borrowed (only the optimiser mutates
    /// values, never while a forward/backward pass is in flight).
    pub fn value(&self) -> Ref<'_, Tensor> {
        self.node.value.borrow()
    }

    /// Clones the tensor value out of the node.
    pub fn value_clone(&self) -> Tensor {
        self.node.value.borrow().clone()
    }

    /// Shape of the value (cloned, so no borrow is held).
    pub fn shape(&self) -> Vec<usize> {
        self.node.value.borrow().shape().to_vec()
    }

    /// Replaces the value in place (optimiser step).
    ///
    /// # Panics
    ///
    /// Panics if the new shape differs — parameters never change shape.
    pub fn set_value(&self, value: Tensor) {
        assert_eq!(
            self.node.value.borrow().shape(),
            value.shape(),
            "set_value must preserve shape"
        );
        *self.node.value.borrow_mut() = value;
    }

    /// Current accumulated gradient, if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.node.grad.borrow().clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.node.grad.borrow_mut() = None;
    }

    /// Adds `g` into the accumulated gradient (as a backward pass would).
    ///
    /// Used by optimisation utilities such as gradient clipping that
    /// rescale stored gradients outside a backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `g` does not match the value's shape.
    pub fn accumulate_grad(&self, g: Tensor) {
        assert_eq!(
            self.value().shape(),
            g.shape(),
            "accumulate_grad shape mismatch"
        );
        accumulate(&self.node, g);
    }

    /// Detaches the value from the graph as a constant.
    pub fn detach(&self) -> Var {
        Var::constant(self.value_clone())
    }

    /// Runs reverse-mode differentiation from this scalar node.
    ///
    /// Accumulates gradients into every reachable node with
    /// `requires_grad`; leaf parameters keep their gradients until
    /// [`Var::zero_grad`], which is how gradient accumulation across
    /// micro-batches works.
    ///
    /// # Panics
    ///
    /// Panics if the node does not hold exactly one element.
    pub fn backward(&self) {
        let seed = {
            let v = self.value();
            assert_eq!(
                v.len(),
                1,
                "backward() requires a scalar output, got shape {:?}",
                v.shape()
            );
            Tensor::full(v.shape(), 1.0)
        };
        self.backward_with(seed);
    }

    /// Runs reverse-mode differentiation with an explicit output gradient.
    ///
    /// # Panics
    ///
    /// Panics if `seed` does not match the node's shape, or when called
    /// inside [`no_grad`].
    fn backward_with(&self, seed: Tensor) {
        assert!(
            grad_enabled(),
            "backward() called inside peb_tensor::no_grad: nothing was recorded on this thread"
        );
        assert_eq!(
            self.value().shape(),
            seed.shape(),
            "backward seed shape mismatch"
        );
        if !self.requires_grad() {
            return;
        }
        accumulate(&self.node, seed);
        // Collect reachable grad-requiring nodes, then sweep in decreasing
        // id order (a valid reverse topological order by construction).
        let mut order: Vec<Rc<Node>> = Vec::new();
        let mut seen: HashSet<VarId> = HashSet::new();
        let mut stack: Vec<Rc<Node>> = vec![self.node.clone()];
        while let Some(n) = stack.pop() {
            if !seen.insert(n.id) {
                continue;
            }
            for p in &n.parents {
                if p.requires_grad() {
                    stack.push(p.node.clone());
                }
            }
            order.push(n);
        }
        order.sort_by_key(|n| std::cmp::Reverse(n.id));
        for n in order {
            let Some(back) = n.backward.as_ref() else {
                continue;
            };
            let grad = n.grad.borrow().clone();
            let Some(grad) = grad else { continue };
            let parent_grads = back(&grad, &n.value.borrow());
            debug_assert_eq!(parent_grads.len(), n.parents.len());
            for (p, g) in n.parents.iter().zip(parent_grads) {
                if let Some(g) = g {
                    if p.requires_grad() {
                        debug_assert_eq!(
                            g.shape(),
                            p.value().shape(),
                            "gradient shape mismatch for parent"
                        );
                        accumulate(&p.node, g);
                    }
                }
            }
            // Free intermediate gradients eagerly; leaves keep theirs.
            if n.backward.is_some() {
                *n.grad.borrow_mut() = None;
            }
        }
    }
}

fn accumulate(node: &Rc<Node>, g: Tensor) {
    let mut slot = node.grad.borrow_mut();
    *slot = Some(match slot.take() {
        Some(existing) => existing + g,
        None => g,
    });
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.node.id)
            .field("shape", &self.value().shape())
            .field("requires_grad", &self.requires_grad())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_chain_rule() {
        let x = Var::parameter(Tensor::scalar(2.0));
        // y = (x^2 + x) * x = x^3 + x^2 ; dy/dx = 3x^2 + 2x = 16
        let y = x.mul(&x).add(&x).mul(&x);
        y.backward();
        assert!((x.grad().unwrap().item() - 16.0).abs() < 1e-5);
    }

    #[test]
    fn constants_get_no_grad() {
        let x = Var::parameter(Tensor::scalar(2.0));
        let c = Var::constant(Tensor::scalar(5.0));
        let y = x.mul(&c);
        y.backward();
        assert!(c.grad().is_none());
        assert_eq!(x.grad().unwrap().item(), 5.0);
    }

    #[test]
    fn grad_accumulates_across_backwards() {
        let x = Var::parameter(Tensor::scalar(1.0));
        x.mul_scalar(3.0).backward();
        x.mul_scalar(4.0).backward();
        assert_eq!(x.grad().unwrap().item(), 7.0);
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn shared_subexpression_accumulates() {
        let x = Var::parameter(Tensor::scalar(3.0));
        let s = x.mul(&x); // x²
        let y = s.add(&s); // 2x² ; dy/dx = 4x = 12
        y.backward();
        assert!((x.grad().unwrap().item() - 12.0).abs() < 1e-5);
    }

    #[test]
    fn detach_blocks_gradient() {
        let x = Var::parameter(Tensor::scalar(2.0));
        let y = x.detach().mul(&x);
        y.backward();
        // Only the non-detached path contributes: d/dx (c * x) = c = 2.
        assert_eq!(x.grad().unwrap().item(), 2.0);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar() {
        let x = Var::parameter(Tensor::zeros(&[2]));
        x.backward();
    }

    #[test]
    fn no_grad_scopes_nest_and_restore() {
        assert!(grad_enabled());
        no_grad(|| {
            assert!(!grad_enabled());
            no_grad(|| assert!(!grad_enabled()));
            assert!(
                !grad_enabled(),
                "leaving the inner scope keeps the outer one"
            );
        });
        assert!(grad_enabled());
    }

    #[test]
    fn no_grad_is_restored_when_the_closure_panics() {
        let caught = std::panic::catch_unwind(|| no_grad(|| panic!("boom")));
        assert!(caught.is_err());
        assert!(grad_enabled());
    }

    #[test]
    fn no_grad_is_thread_local() {
        // The other thread starts (and checks) while this one is inside
        // the scope, and still records.
        no_grad(|| {
            let recorded = std::thread::spawn(|| {
                let w = Var::parameter(Tensor::scalar(2.0));
                let y = w.mul(&w);
                y.backward();
                (
                    grad_enabled(),
                    y.requires_grad(),
                    w.grad().map(|g| g.item()),
                )
            })
            .join()
            .unwrap();
            assert_eq!(recorded, (true, true, Some(4.0)));
            assert!(!grad_enabled());
        });
    }

    #[test]
    fn no_grad_builds_constant_nodes_and_frees_dropped_inputs() {
        let w = Var::parameter(Tensor::ones(&[777]));
        // `x`'s node is kept alive by `y` on the tape, freed off it: the
        // next same-size checkout is (or is not) `x`'s storage.
        let next_checkout_reuses_input = || {
            let x = w.mul_scalar(2.0);
            let storage = x.value().data().as_ptr();
            let y = x.add_scalar(1.0);
            drop(x);
            let reused = Tensor::zeros(&[777]).data().as_ptr() == storage;
            (y, reused)
        };
        let (y, reused) = no_grad(next_checkout_reuses_input);
        assert!(
            reused,
            "no parents retained: the input went back to the pool"
        );
        assert!(!y.requires_grad());
        assert!(y.node.parents.is_empty() && y.node.backward.is_none());
        assert!(w.grad().is_none());
        let (y, reused) = next_checkout_reuses_input();
        assert!(!reused, "the tape keeps the input alive");
        assert!(y.requires_grad());
        assert_eq!(y.node.parents.len(), 1);
    }

    #[test]
    #[should_panic(expected = "no_grad")]
    fn backward_inside_no_grad_panics() {
        let w = Var::parameter(Tensor::scalar(2.0));
        no_grad(|| w.mul(&w).backward());
    }

    #[test]
    fn backward_with_seed() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let y = x.mul(&x);
        y.backward_with(Tensor::from_vec(vec![1.0, 10.0], &[2]).unwrap());
        assert_eq!(x.grad().unwrap().data(), &[2.0, 40.0]);
    }
}
