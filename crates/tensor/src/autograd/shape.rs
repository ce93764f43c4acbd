//! Differentiable shape manipulation.

use crate::{Tensor, Var};

impl Var {
    /// Reshape preserving element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let src_shape = self.shape();
        let out = self.value().reshape(shape).expect("Var::reshape");
        Var::from_op(out, vec![self.clone()], move |g| {
            vec![Some(g.reshape(&src_shape).expect("reshape backward"))]
        })
    }

    /// Axis permutation; the backward pass applies the inverse permutation.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a valid permutation.
    pub fn permute(&self, perm: &[usize]) -> Var {
        let out = self.value().permute(perm).expect("Var::permute");
        let mut inverse = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        Var::from_op(out, vec![self.clone()], move |g| {
            vec![Some(g.permute(&inverse).expect("permute backward"))]
        })
    }

    /// Concatenates nodes along `axis`.
    ///
    /// # Panics
    ///
    /// Panics on incompatible shapes or an empty input list.
    pub fn concat(parts: &[&Var], axis: usize) -> Var {
        let (out, extents) = {
            let values: Vec<_> = parts.iter().map(|p| p.value()).collect();
            let refs: Vec<&Tensor> = values.iter().map(|v| &**v).collect();
            let out = Tensor::concat(&refs, axis).expect("Var::concat");
            let extents: Vec<usize> = refs.iter().map(|v| v.shape()[axis]).collect();
            (out, extents)
        };
        let parents: Vec<Var> = parts.iter().map(|&p| p.clone()).collect();
        Var::from_op(out, parents, move |g| {
            let mut grads = Vec::with_capacity(extents.len());
            let mut start = 0usize;
            for &e in &extents {
                grads.push(Some(
                    g.slice_axis(axis, start, start + e)
                        .expect("concat backward"),
                ));
                start += e;
            }
            grads
        })
    }

    /// Extracts `[start, end)` along `axis`; the gradient zero-pads back.
    ///
    /// # Panics
    ///
    /// Panics on an invalid range.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Var {
        let src_shape = self.shape();
        let out = self
            .value()
            .slice_axis(axis, start, end)
            .expect("Var::slice_axis");
        Var::from_op(out, vec![self.clone()], move |g| {
            let mut pads = vec![(0usize, 0usize); src_shape.len()];
            pads[axis] = (start, src_shape[axis] - end);
            vec![Some(g.pad(&pads).expect("slice backward"))]
        })
    }

    /// `self + up(coarse)`: `coarse` nearest-neighbour upsampled by
    /// `factor` on the two trailing axes and added to `self`, in one
    /// pass. `self` is `[…, H, W]`, `coarse` `[…, H/factor, W/factor]`
    /// with the same leading axes.
    ///
    /// The gradient is `g` itself for `self` and the `factor × factor`
    /// block sums of `g` for `coarse`.
    ///
    /// # Panics
    ///
    /// Panics unless the shapes line up as above with `factor ≥ 1`.
    pub fn add_upsampled(&self, coarse: &Var, factor: usize) -> Var {
        let out = self
            .value()
            .add_upsampled(&coarse.value(), factor)
            .expect("Var::add_upsampled");
        let (fine_grad, coarse_grad) = (self.requires_grad(), coarse.requires_grad());
        Var::from_op(out, vec![self.clone(), coarse.clone()], move |g| {
            vec![
                fine_grad.then(|| g.clone()),
                coarse_grad.then(|| g.block_sum(factor)),
            ]
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
    fn reshape_permute_gradcheck() {
        let mut rng = StdRng::seed_from_u64(6);
        let w = Tensor::randn(&[3, 2, 2], &mut rng);
        let x = Var::parameter(Tensor::randn(&[2, 2, 3], &mut rng));
        let report = check_gradients(&x, |v| v.permute(&[2, 0, 1]).weighted_sum(&w), 1e-2);
        assert!(report.ok(2e-2), "{report:?}");
        let report2 = check_gradients(
            &x,
            |v| {
                v.reshape(&[4, 3])
                    .weighted_sum(&w.reshape(&[4, 3]).unwrap())
            },
            1e-2,
        );
        assert!(report2.ok(2e-2), "{report2:?}");
    }

    #[test]
    fn concat_splits_gradient() {
        let a = Var::parameter(Tensor::ones(&[2, 1]));
        let b = Var::parameter(Tensor::ones(&[2, 2]));
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        Var::concat(&[&a, &b], 1).weighted_sum(&w).backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0, 4.0]);
        assert_eq!(b.grad().unwrap().data(), &[2.0, 3.0, 5.0, 6.0]);
    }

    #[test]
    fn slice_pads_gradient_back() {
        let x = Var::parameter(Tensor::arange(5));
        x.slice_axis(0, 1, 3).sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    /// `fine + up(coarse)` and its adjoint as plain index loops over
    /// `[planes, h·f, w·f]`; the block sums accumulate rows then columns
    /// ascending from zero, the order the kernel documents.
    fn add_upsampled_oracle(
        fine: &Tensor,
        coarse: &Tensor,
        g: &Tensor,
        f: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let rank = coarse.rank();
        let (h, w) = (coarse.shape()[rank - 2], coarse.shape()[rank - 1]);
        let planes = coarse.len() / (h * w);
        let (oh, ow) = (h * f, w * f);
        let mut out = vec![0f32; fine.len()];
        let mut gc = vec![0f32; coarse.len()];
        for b in 0..planes {
            for oy in 0..oh {
                for ox in 0..ow {
                    let o = (b * oh + oy) * ow + ox;
                    let c = (b * h + oy / f) * w + ox / f;
                    out[o] = fine.data()[o] + coarse.data()[c];
                }
            }
            for iy in 0..h {
                for ix in 0..w {
                    for dy in 0..f {
                        for dx in 0..f {
                            let o = (b * oh + iy * f + dy) * ow + ix * f + dx;
                            gc[(b * h + iy) * w + ix] += g.data()[o];
                        }
                    }
                }
            }
        }
        (out, gc)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn add_upsampled_matches_index_loops_at_any_thread_count() {
        let mut rng = StdRng::seed_from_u64(8);
        // Odd batch axes and odd planes, sized so every factor's forward
        // and backward pass crosses the parallel cutoff in several chunks.
        for f in [1, 2, 4] {
            let coarse_t = Tensor::randn(&[5, 7, 33, 31], &mut rng);
            let fine_t = Tensor::randn(&[5, 7, 33 * f, 31 * f], &mut rng);
            let g = Tensor::randn(fine_t.shape(), &mut rng);
            let (want_out, want_gc) = add_upsampled_oracle(&fine_t, &coarse_t, &g, f);
            for threads in [1, 2, 3, 7] {
                let fine = Var::parameter(fine_t.clone());
                let coarse = Var::parameter(coarse_t.clone());
                let y = peb_par::with_thread_count(threads, || {
                    let y = fine.add_upsampled(&coarse, f);
                    y.weighted_sum(&g).backward();
                    y
                });
                let tag = format!("factor {f}, {threads} threads");
                assert_eq!(bits(y.value().data()), bits(&want_out), "forward, {tag}");
                assert_eq!(
                    bits(fine.grad().unwrap().data()),
                    bits(g.data()),
                    "fine grad, {tag}"
                );
                assert_eq!(
                    bits(coarse.grad().unwrap().data()),
                    bits(&want_gc),
                    "coarse grad, {tag}"
                );
            }
        }
    }

    #[test]
    fn add_upsampled_gradcheck() {
        let mut rng = StdRng::seed_from_u64(7);
        for f in [1, 2, 4] {
            let coarse = Var::constant(Tensor::randn(&[3, 2, 3], &mut rng));
            let fine = Var::constant(Tensor::randn(&[3, 2 * f, 3 * f], &mut rng));
            let w = Tensor::randn(fine.value().shape(), &mut rng);
            let r = check_gradients(
                &fine,
                |v| v.add_upsampled(&coarse, f).weighted_sum(&w),
                1e-2,
            );
            assert!(r.ok(2e-2), "fine, factor {f}: {r:?}");
            let r = check_gradients(&coarse, |v| fine.add_upsampled(v, f).weighted_sum(&w), 1e-2);
            assert!(r.ok(2e-2), "coarse, factor {f}: {r:?}");
        }
    }

    #[test]
    #[should_panic(expected = "add_upsampled")]
    fn add_upsampled_rejects_mismatched_planes() {
        let fine = Var::constant(Tensor::zeros(&[2, 4, 6]));
        let coarse = Var::constant(Tensor::zeros(&[2, 2, 2]));
        fine.add_upsampled(&coarse, 2);
    }
}
