//! Differentiable reductions and normalisations.

use peb_simd::fused::Stage;

use crate::{Tensor, Var};

/// Elements per parallel softmax chunk (rounded up to whole slabs).
const SOFTMAX_CHUNK_ELEMS: usize = 1 << 14;

/// Per-element cost hint for the softmax fan-out: a compare, the lane
/// exponential, an f64 add and a multiply.
const SOFTMAX_COST: u64 = 8;

/// `dst = exp(src − max) / Σ exp(src − max)` for one line.
///
/// The max is folded in eight lanes (`v > a` skips NaN as `f32::max`
/// does; the sign of a zero max cannot change `x − max`'s exponential).
/// The shifted exponentials run as one fused `[+(−max), exp]` sweep at
/// the dispatch level — `x + (−m)` is `x − m` in IEEE — and are summed
/// in f64 in ascending order before one `× 1/Σ` pass.
fn softmax_line(src: &[f32], dst: &mut [f32]) {
    let mut lanes = [f32::NEG_INFINITY; 8];
    let blocks = src.chunks_exact(8);
    let tail = blocks.remainder();
    for b in blocks {
        for (a, &v) in lanes.iter_mut().zip(b) {
            if v > *a {
                *a = v;
            }
        }
    }
    let m = lanes
        .into_iter()
        .chain(tail.iter().copied())
        .fold(f32::NEG_INFINITY, f32::max);
    peb_simd::fused::vchain(src, &[Stage::AddScalar(-m), Stage::Exp], dst);
    let zi = 1.0 / peb_simd::elementwise::sum_f64_scalar(dst) as f32;
    for v in dst {
        *v *= zi;
    }
}

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
    /// Each line runs through `softmax_line`; blocks of lines fan out
    /// over the pool. Deterministic at any thread count; at the scalar
    /// level it is the strided libm loop bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on an invalid axis.
    pub fn softmax(&self, axis: usize) -> Var {
        let shape = self.shape();
        let n: usize = shape.iter().product();
        let _span = crate::tensor::ew_span("ew.softmax", n);
        assert!(
            axis < shape.len(),
            "softmax axis {axis} rank {}",
            shape.len()
        );
        let outer: usize = shape[..axis].iter().product();
        let mid = shape[axis];
        let inner: usize = shape[axis + 1..].iter().product();
        let out = {
            let xv = self.value();
            let x = xv.data();
            let mut data = crate::tensor::alloc_cleared(n);
            data.resize(n, 0.0);
            // Whole `[mid, inner]` slabs per chunk, about 16 Ki elements.
            let slab = (mid * inner).max(1);
            let chunk = slab * SOFTMAX_CHUNK_ELEMS.div_ceil(slab);
            peb_par::parallel_chunks_mut_cost(&mut data, chunk, SOFTMAX_COST, |at, out| {
                let x = &x[at..at + out.len()];
                if inner == 1 {
                    for (src, dst) in x.chunks(mid).zip(out.chunks_mut(mid)) {
                        softmax_line(src, dst);
                    }
                    return;
                }
                // Lines along another axis are strided: gather each into
                // a scratch row and scatter the result back.
                let (mut src, mut dst) = (vec![0f32; mid], vec![0f32; mid]);
                for (xs, os) in x.chunks(slab).zip(out.chunks_mut(slab)) {
                    for i in 0..inner {
                        for (m, v) in src.iter_mut().enumerate() {
                            *v = xs[m * inner + i];
                        }
                        softmax_line(&src, &mut dst);
                        for (m, v) in dst.iter().enumerate() {
                            os[m * inner + i] = *v;
                        }
                    }
                }
            });
            Tensor::from_pooled(data, &shape)
        };
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
        let y = x.softmax(1).value_clone();
        for row in y.data().chunks(5) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    /// Oracle: softmax as a strided per-line libm loop, which the line
    /// kernel must reproduce bit for bit at the scalar level.
    fn softmax_strided(x: &Tensor, axis: usize) -> Tensor {
        let shape = x.shape();
        let outer: usize = shape[..axis].iter().product();
        let mid = shape[axis];
        let inner: usize = shape[axis + 1..].iter().product();
        let mut out = x.clone();
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
        out
    }

    fn same_bits(a: &Tensor, b: &Tensor) -> bool {
        a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    #[test]
    fn softmax_lines_match_the_strided_loop_at_any_thread_count() {
        use peb_par::{ctx, ExecCtx};
        use peb_simd::Level;
        let mut rng = StdRng::seed_from_u64(6);
        // Last axis, axis 0 and a middle axis; ragged line lengths, and
        // more than one parallel chunk where the tensor allows it.
        for (shape, axis) in [
            (vec![64, 3, 131], 2),
            (vec![130, 70], 0),
            (vec![8, 130, 40], 1),
        ] {
            let mut x = Tensor::randn(&shape, &mut rng).mul_scalar(4.0);
            let line = shape[axis + 1..].iter().product::<usize>();
            // Line 0 of the first slab: a ±0 maximum, −∞ and a huge
            // negative entry; the next line holds a NaN (all-NaN output).
            for (m, v) in [-0.0, 0.0, -3.0, f32::NEG_INFINITY, -1e30]
                .into_iter()
                .enumerate()
            {
                x.data_mut()[m * line] = v;
            }
            x.data_mut()[if line == 1 { shape[axis] } else { 1 }] = f32::NAN;
            for level in ctx::levels() {
                let run = |threads| {
                    let scoped = ExecCtx {
                        level,
                        threads,
                        ..ctx::current()
                    };
                    ctx::with(scoped, || {
                        Var::constant(x.clone()).softmax(axis).value_clone()
                    })
                };
                let one = run(1);
                if level == Level::Scalar {
                    let want = softmax_strided(&x, axis);
                    assert!(
                        same_bits(&one, &want),
                        "{shape:?} axis {axis}: not the strided loop"
                    );
                }
                for threads in [2, 3, 7] {
                    let got = run(threads);
                    assert!(
                        same_bits(&one, &got),
                        "{shape:?} axis {axis} {level:?} {threads} threads"
                    );
                }
            }
        }
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
