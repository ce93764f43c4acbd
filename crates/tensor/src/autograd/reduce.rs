//! Differentiable reductions and normalisations.

use crate::shape::unravel;
use crate::{Tensor, Var};

impl Var {
    /// Sum of all elements, returning a scalar node.
    pub fn sum(&self) -> Var {
        let shape = self.shape();
        let out = Tensor::scalar(self.value().sum());
        Var::from_op(out, vec![self.clone()], move |g| {
            vec![Some(Tensor::full(&shape, g.item()))]
        })
    }

    /// Mean of all elements, returning a scalar node.
    pub fn mean(&self) -> Var {
        let shape = self.shape();
        let n = shape.iter().product::<usize>().max(1) as f32;
        let out = Tensor::scalar(self.value().mean());
        Var::from_op(out, vec![self.clone()], move |g| {
            vec![Some(Tensor::full(&shape, g.item() / n))]
        })
    }

    /// Sum over `axis`, removing it.
    ///
    /// # Panics
    ///
    /// Panics on an invalid axis.
    pub fn sum_axis(&self, axis: usize) -> Var {
        let src_shape = self.shape();
        let out = self.value().sum_axis(axis).expect("Var::sum_axis");
        Var::from_op(out, vec![self.clone()], move |g| {
            // Broadcast the reduced gradient back along `axis`.
            let mut keep = src_shape.clone();
            keep[axis] = 1;
            let gk = g.reshape(&keep).expect("sum_axis backward reshape");
            let gx = Tensor::zeros(&src_shape)
                .broadcast_zip(&gk, |_, b| b)
                .expect("sum_axis backward broadcast");
            vec![Some(gx)]
        })
    }

    /// Mean over `axis`, removing it.
    ///
    /// # Panics
    ///
    /// Panics on an invalid axis.
    pub fn mean_axis(&self, axis: usize) -> Var {
        let n = self.shape()[axis] as f32;
        self.sum_axis(axis).mul_scalar(1.0 / n)
    }

    /// Maximum over all elements; the gradient routes to the first argmax.
    ///
    /// This is the differentiable core of the MaxSE loss (Eq. 16).
    pub fn max_all(&self) -> Var {
        let (idx, shape, out) = {
            let v = self.value();
            let idx = v.argmax();
            (idx, v.shape().to_vec(), Tensor::scalar(v.data()[idx]))
        };
        Var::from_op(out, vec![self.clone()], move |g| {
            let mut gx = Tensor::zeros(&shape);
            gx.data_mut()[idx] = g.item();
            vec![Some(gx)]
        })
    }

    /// Softmax along `axis` (numerically stabilised by the axis max).
    ///
    /// # Panics
    ///
    /// Panics on an invalid axis.
    pub fn softmax(&self, axis: usize) -> Var {
        let shape = self.shape();
        let _span = crate::tensor::ew_span("ew.softmax", shape.iter().product());
        assert!(
            axis < shape.len(),
            "softmax axis {axis} rank {}",
            shape.len()
        );
        let outer: usize = shape[..axis].iter().product();
        let mid = shape[axis];
        let inner: usize = shape[axis + 1..].iter().product();
        let mut out = self.value_clone();
        {
            let data = out.data_mut();
            for o in 0..outer {
                for i in 0..inner {
                    let at = |m: usize| (o * mid + m) * inner + i;
                    let mut mx = f32::NEG_INFINITY;
                    for m in 0..mid {
                        mx = mx.max(data[at(m)]);
                    }
                    let mut z = 0f64;
                    for m in 0..mid {
                        let e = (data[at(m)] - mx).exp();
                        data[at(m)] = e;
                        z += e as f64;
                    }
                    let zi = 1.0 / z as f32;
                    for m in 0..mid {
                        data[at(m)] *= zi;
                    }
                }
            }
        }
        Var::from_op_out(out, vec![self.clone()], move |g, y| {
            // dX = Y ⊙ (G − sum(G ⊙ Y, axis))
            let mut gx = g.clone();
            let gd = gx.data_mut();
            let yd = y.data();
            for o in 0..outer {
                for i in 0..inner {
                    let at = |m: usize| (o * mid + m) * inner + i;
                    let mut dot = 0f64;
                    for m in 0..mid {
                        dot += (gd[at(m)] * yd[at(m)]) as f64;
                    }
                    let dot = dot as f32;
                    for m in 0..mid {
                        gd[at(m)] = yd[at(m)] * (gd[at(m)] - dot);
                    }
                }
            }
            vec![Some(gx)]
        })
    }

    /// Dot-product-style weighted sum: `sum(self ⊙ w)` for a constant
    /// weight tensor (convenience for losses).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn weighted_sum(&self, w: &Tensor) -> Var {
        assert_eq!(self.shape(), w.shape(), "weighted_sum shape mismatch");
        let prod = self.value().zip_map(w, |a, b| a * b).expect("weighted_sum");
        let out = Tensor::scalar(prod.sum());
        let w = w.clone();
        Var::from_op(out, vec![self.clone()], move |g| {
            vec![Some(w.mul_scalar(g.item()))]
        })
    }

    /// Index of the maximum element of the current value (no gradient).
    pub fn argmax_coords(&self) -> Vec<usize> {
        let v = self.value();
        unravel(v.argmax(), v.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sum_mean_gradients() {
        let x = Var::parameter(Tensor::ones(&[2, 3]));
        x.sum().backward();
        assert!(x.grad().unwrap().approx_eq(&Tensor::ones(&[2, 3]), 0.0));
        x.zero_grad();
        x.mean().backward();
        assert!(x
            .grad()
            .unwrap()
            .approx_eq(&Tensor::full(&[2, 3], 1.0 / 6.0), 1e-7));
    }

    #[test]
    fn sum_axis_gradient_broadcasts() {
        let x = Var::parameter(Tensor::ones(&[2, 3]));
        // sum over axis 0 then weight rows differently.
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        x.sum_axis(0).weighted_sum(&w).backward();
        let g = x.grad().unwrap();
        assert_eq!(g.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn max_all_routes_to_argmax() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0, 5.0, 3.0], &[3]).unwrap());
        x.max_all().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0, 0.0]);
        assert_eq!(x.max_all().value().item(), 5.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Var::parameter(Tensor::randn(&[4, 5], &mut rng));
        let y = x.softmax(1);
        let row_sums = y.value().sum_axis(1).unwrap();
        assert!(row_sums.approx_eq(&Tensor::ones(&[4]), 1e-5));
    }

    #[test]
    fn softmax_gradcheck() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Var::parameter(Tensor::randn(&[3, 4], &mut rng));
        let w = Tensor::randn(&[3, 4], &mut rng);
        let report = check_gradients(&x, |v| v.softmax(1).weighted_sum(&w), 1e-2);
        assert!(report.ok(2e-2), "{report:?}");
    }

    #[test]
    fn softmax_axis0_gradcheck() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Var::parameter(Tensor::randn(&[3, 2], &mut rng));
        let w = Tensor::randn(&[3, 2], &mut rng);
        let report = check_gradients(&x, |v| v.softmax(0).weighted_sum(&w), 1e-2);
        assert!(report.ok(2e-2), "{report:?}");
    }

    #[test]
    fn softmax_extreme_inputs_stable() {
        let x = Var::parameter(Tensor::from_vec(vec![1000.0, 0.0, -1000.0], &[3]).unwrap());
        let y = x.softmax(0);
        assert!(y.value().data().iter().all(|v| v.is_finite()));
        assert!((y.value().data()[0] - 1.0).abs() < 1e-6);
    }
}
