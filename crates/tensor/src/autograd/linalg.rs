//! Differentiable matrix products.

use crate::Var;

impl Var {
    /// Matrix product `[m, k] × [k, n] → [m, n]` with gradients.
    ///
    /// # Panics
    ///
    /// Panics on incompatible shapes.
    pub fn matmul(&self, other: &Var) -> Var {
        let out = self
            .value()
            .matmul(&other.value())
            .expect("Var::matmul shapes");
        let (a, b) = (self.clone(), other.clone());
        Var::from_op(out, vec![self.clone(), other.clone()], move |g| {
            // dA = G · Bᵀ ; dB = Aᵀ · G
            let ga = g.matmul(&b.value().transpose2()).expect("matmul back A");
            let gb = a.value().transpose2().matmul(g).expect("matmul back B");
            vec![Some(ga), Some(gb)]
        })
    }

    /// Batched matrix product `[b, m, k] × [b, k, n] → [b, m, n]`.
    ///
    /// # Panics
    ///
    /// Panics on incompatible shapes.
    pub fn bmm(&self, other: &Var) -> Var {
        let out = self.value().bmm(&other.value()).expect("Var::bmm shapes");
        let (a, b) = (self.clone(), other.clone());
        Var::from_op(out, vec![self.clone(), other.clone()], move |g| {
            let av = a.value();
            let bv = b.value();
            let bt = bv.permute(&[0, 2, 1]).expect("bmm transpose");
            let at = av.permute(&[0, 2, 1]).expect("bmm transpose");
            let ga = g.bmm(&bt).expect("bmm back A");
            let gb = at.bmm(g).expect("bmm back B");
            vec![Some(ga), Some(gb)]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_gradients;
    use crate::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_gradcheck() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Var::parameter(Tensor::randn(&[3, 4], &mut rng));
        let b = Var::parameter(Tensor::randn(&[4, 2], &mut rng));
        let fa = check_gradients(&a, |v| v.matmul(&b).sum(), 1e-2);
        assert!(fa.ok(2e-2), "{fa:?}");
        let a2 = a.detach();
        let bp = Var::parameter(b.value_clone());
        let fb = check_gradients(&bp, |v| a2.matmul(v).sum(), 1e-2);
        assert!(fb.ok(2e-2), "{fb:?}");
    }

    #[test]
    fn bmm_gradcheck() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Var::parameter(Tensor::randn(&[2, 2, 3], &mut rng));
        let b = Var::constant(Tensor::randn(&[2, 3, 2], &mut rng));
        let fa = check_gradients(&a, |v| v.bmm(&b).sum(), 1e-2);
        assert!(fa.ok(2e-2), "{fa:?}");
    }

    #[test]
    fn matmul_known_gradient() {
        // y = sum(A·B); dA = ones·Bᵀ (row sums of B broadcast).
        let a = Var::parameter(Tensor::ones(&[2, 2]));
        let b = Var::constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        a.matmul(&b).sum().backward();
        assert_eq!(a.grad().unwrap().data(), &[3.0, 7.0, 3.0, 7.0]);
    }
}
