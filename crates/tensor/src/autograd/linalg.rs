//! Differentiable matrix products.

use crate::kernels::Bias;
use crate::matmul::gemm_new;
use crate::shape::numel;
use crate::{Tensor, Var};

/// `dA = G · Bᵀ` and `dB = Aᵀ · G` for `C = A · B`.
fn matmul_grads(a: &Var, b: &Var, g: &Tensor) -> Vec<Option<Tensor>> {
    let ga = g.matmul(&b.value().transpose2()).expect("matmul back A");
    let gb = a.value().transpose2().matmul(g).expect("matmul back B");
    vec![Some(ga), Some(gb)]
}

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
            matmul_grads(&a, &b, g)
        })
    }

    /// Affine map `[m, k] × [k, n] + [n] → [m, n]`: the bias is added
    /// to every row in the GEMM write-back, bit for bit
    /// `self.matmul(other).add(bias)` in one pass. Gradients are the
    /// product's plus `Σ_rows g` for the bias.
    ///
    /// # Panics
    ///
    /// Panics on incompatible shapes.
    pub fn matmul_bias(&self, other: &Var, bias: &Var) -> Var {
        let (ls, rs) = (self.shape(), other.shape());
        assert!(
            ls.len() == 2 && rs.len() == 2 && ls[1] == rs[0] && bias.shape() == [rs[1]],
            "Var::matmul_bias shapes: {ls:?} × {rs:?} + {:?}",
            bias.shape()
        );
        let (m, k, n) = (ls[0], ls[1], rs[1]);
        let out = gemm_new(
            self.value().data(),
            other.value().data(),
            (m, k, n),
            Bias::Col(bias.value().data()),
            &[m, n],
        );
        let (a, b) = (self.clone(), other.clone());
        let parents = vec![self.clone(), other.clone(), bias.clone()];
        Var::from_op(out, parents, move |g| {
            let mut grads = matmul_grads(&a, &b, g);
            grads.push(Some(g.reduce_to_shape(&[n])));
            grads
        })
    }

    /// A per-token affine map over a channel-major tensor — a pointwise
    /// (1×1×1) convolution. `self` is `[in, …]`, `weight` is `[in, out]`
    /// (the `Linear` layout) and `bias` is `[out]`; the result is
    /// `[out, …]` with `y[:, t] = weightᵀ · x[:, t] + bias` at every
    /// trailing position `t`.
    ///
    /// One GEMM over the flattened trailing axes with the bias added in
    /// its write-back: no reshape, permute or broadcast pass. The
    /// backward is two GEMMs plus the bias's row sums; the weight's
    /// gradient transposes whichever of `x` and `g` is smaller (either
    /// form gives the same bits).
    ///
    /// # Panics
    ///
    /// Panics on incompatible shapes.
    pub fn channel_linear(&self, weight: &Var, bias: Option<&Var>) -> Var {
        let xs = self.shape();
        let ws = weight.shape();
        assert!(
            !xs.is_empty() && ws.len() == 2 && ws[0] == xs[0],
            "Var::channel_linear shapes: {xs:?} with weight {ws:?}"
        );
        let (cin, cout, n) = (ws[0], ws[1], numel(&xs[1..]));
        let mut shape = xs.clone();
        shape[0] = cout;
        let out = {
            let wt = weight.value().transpose2(); // [out, in]
            let bv = bias.map(|b| b.value());
            let row_bias = match &bv {
                Some(b) => {
                    assert_eq!(b.shape(), [cout], "Var::channel_linear bias shape");
                    Bias::Row(b.data())
                }
                None => Bias::None,
            };
            gemm_new(
                wt.data(),
                self.value().data(),
                (cout, cin, n),
                row_bias,
                &shape,
            )
        };
        let mut parents = vec![self.clone(), weight.clone()];
        parents.extend(bias.cloned());
        let (x, w, has_bias) = (self.clone(), weight.clone(), bias.is_some());
        Var::from_op(out, parents, move |g| {
            // dX = W · G: [in, out] × [out, n].
            let gx = x
                .requires_grad()
                .then(|| gemm_new(w.value().data(), g.data(), (cin, cout, n), Bias::None, &xs));
            // dW = X · Gᵀ, or (G · Xᵀ)ᵀ: the same products in the same
            // order per element, so the smaller transpose wins.
            let gw = if cin <= cout {
                let xt = transposed(x.value().data(), cin, n);
                gemm_new(
                    g.data(),
                    xt.data(),
                    (cout, n, cin),
                    Bias::None,
                    &[cout, cin],
                )
                .transpose2()
            } else {
                let gt = transposed(g.data(), cout, n);
                gemm_new(
                    x.value().data(),
                    gt.data(),
                    (cin, n, cout),
                    Bias::None,
                    &[cin, cout],
                )
            };
            let mut grads = vec![gx, Some(gw)];
            if has_bias {
                let mut rows = vec![1; xs.len()];
                rows[0] = cout;
                let gb = g
                    .reduce_to_shape(&rows)
                    .reshape(&[cout])
                    .expect("bias rows");
                grads.push(Some(gb));
            }
            grads
        })
    }
}

/// `[rows, cols]` data transposed into a fresh `[cols, rows]` tensor.
fn transposed(data: &[f32], rows: usize, cols: usize) -> Tensor {
    let _span = peb_obs::span("gemm.transpose2");
    let mut out = Tensor::zeros(&[cols, rows]);
    peb_simd::transpose::transpose_into(data, rows, cols, out.data_mut());
    out
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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matmul_bias_bit_equals_matmul_then_add() {
        let mut rng = StdRng::seed_from_u64(3);
        for k in [1, 10, 257] {
            let x = Var::parameter(Tensor::randn(&[70, k], &mut rng));
            let w = Var::parameter(Tensor::randn(&[k, 13], &mut rng));
            let b = Var::parameter(Tensor::randn(&[13], &mut rng));
            let g = Tensor::randn(&[70, 13], &mut rng);
            let fused = x.matmul_bias(&w, &b);
            fused.weighted_sum(&g).backward();
            let grads: Vec<Tensor> = [&x, &w, &b].iter().map(|p| p.grad().unwrap()).collect();
            [&x, &w, &b].iter().for_each(|p| p.zero_grad());
            let plain = x.matmul(&w).add(&b);
            plain.weighted_sum(&g).backward();
            assert_eq!(bits(&fused.value()), bits(&plain.value()), "k={k}");
            for (p, want) in [&x, &w, &b].iter().zip(&grads) {
                assert_eq!(bits(&p.grad().unwrap()), bits(want), "k={k} gradient");
            }
        }
    }

    #[test]
    fn matmul_bias_gradcheck() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Var::constant(Tensor::randn(&[3, 4], &mut rng));
        let w = Var::constant(Tensor::randn(&[4, 2], &mut rng));
        let b = Var::constant(Tensor::randn(&[2], &mut rng));
        let r = check_gradients(&x, |v| v.matmul_bias(&w, &b).square().sum(), 1e-2);
        assert!(r.ok(2e-2), "x: {r:?}");
        let r = check_gradients(&w, |v| x.matmul_bias(v, &b).square().sum(), 1e-2);
        assert!(r.ok(2e-2), "w: {r:?}");
        let r = check_gradients(&b, |v| x.matmul_bias(&w, v).square().sum(), 1e-2);
        assert!(r.ok(2e-2), "b: {r:?}");
    }

    /// `channel_linear` spelled out token-major: `[in, …] → [L, in] →
    /// x·W + b → [out, …]`.
    fn channel_linear_oracle(x: &Var, w: &Var, b: Option<&Var>) -> Var {
        let s = x.shape();
        let l = s[1..].iter().product();
        let seq = x.reshape(&[s[0], l]).permute(&[1, 0]).matmul(w);
        let seq = match b {
            Some(b) => seq.add(b),
            None => seq,
        };
        let mut shape = s.clone();
        shape[0] = w.shape()[1];
        seq.permute(&[1, 0]).reshape(&shape)
    }

    #[test]
    fn channel_linear_matches_the_token_major_form() {
        let mut rng = StdRng::seed_from_u64(5);
        // Narrow-to-wide and wide-to-narrow (the two weight-gradient
        // forms), with and without a bias, over several trailing axes.
        for (cin, cout, with_bias) in [(3, 7, true), (9, 4, true), (5, 5, false)] {
            let x = Var::parameter(Tensor::randn(&[cin, 2, 5, 3], &mut rng));
            let w = Var::parameter(Tensor::randn(&[cin, cout], &mut rng));
            let b = Var::parameter(Tensor::randn(&[cout], &mut rng));
            let b = with_bias.then_some(&b);
            let g = Tensor::randn(&[cout, 2, 5, 3], &mut rng);
            let params: Vec<&Var> = [&x, &w].into_iter().chain(b).collect();
            let y = x.channel_linear(&w, b);
            y.weighted_sum(&g).backward();
            let grads: Vec<Tensor> = params.iter().map(|p| p.grad().unwrap()).collect();
            params.iter().for_each(|p| p.zero_grad());
            let want = channel_linear_oracle(&x, &w, b);
            want.weighted_sum(&g).backward();
            let tag = format!("{cin}→{cout}, bias {with_bias}");
            assert_eq!(y.shape(), want.shape(), "{tag}");
            assert!(
                y.value().max_abs_diff(&want.value()) <= 1e-5,
                "{tag}: forward"
            );
            for (p, got) in params.iter().zip(&grads) {
                let d = got.max_abs_diff(&p.grad().unwrap());
                assert!(d <= 1e-5, "{tag}: gradient Δ {d}");
            }
        }
    }

    #[test]
    fn channel_linear_gradcheck() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = Var::constant(Tensor::randn(&[3, 2, 2], &mut rng));
        let w = Var::constant(Tensor::randn(&[3, 4], &mut rng));
        let b = Var::constant(Tensor::randn(&[4], &mut rng));
        let r = check_gradients(&x, |v| v.channel_linear(&w, Some(&b)).square().sum(), 1e-2);
        assert!(r.ok(2e-2), "x: {r:?}");
        let r = check_gradients(&w, |v| x.channel_linear(v, Some(&b)).square().sum(), 1e-2);
        assert!(r.ok(2e-2), "w: {r:?}");
        let r = check_gradients(&b, |v| x.channel_linear(&w, Some(v)).square().sum(), 1e-2);
        assert!(r.ok(2e-2), "b: {r:?}");
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
