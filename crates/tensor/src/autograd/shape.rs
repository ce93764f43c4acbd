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

    /// Zero padding; the gradient crops back.
    ///
    /// # Panics
    ///
    /// Panics if `pads.len()` differs from the rank.
    pub fn pad(&self, pads: &[(usize, usize)]) -> Var {
        let out = self.value().pad(pads).expect("Var::pad");
        let pads = pads.to_vec();
        Var::from_op(out, vec![self.clone()], move |g| {
            vec![Some(g.crop(&pads).expect("pad backward"))]
        })
    }

    /// Nearest-neighbour upsampling of the two trailing axes; the gradient
    /// sums each `factor × factor` block.
    ///
    /// # Panics
    ///
    /// Panics for rank < 2 or `factor == 0`.
    pub fn upsample2_nearest(&self, factor: usize) -> Var {
        let src_shape = self.shape();
        let out = self
            .value()
            .upsample2_nearest(factor)
            .expect("Var::upsample2_nearest");
        Var::from_op(out, vec![self.clone()], move |g| {
            let rank = src_shape.len();
            let (h, w) = (src_shape[rank - 2], src_shape[rank - 1]);
            let batch: usize = src_shape[..rank - 2].iter().product();
            let (oh, ow) = (h * factor, w * factor);
            let gd = g.data();
            let mut out = Tensor::zeros(&src_shape);
            let od = out.data_mut();
            for b in 0..batch {
                for oy in 0..oh {
                    let iy = oy / factor;
                    for ox in 0..ow {
                        let ix = ox / factor;
                        od[(b * h + iy) * w + ix] += gd[(b * oh + oy) * ow + ox];
                    }
                }
            }
            vec![Some(out)]
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

    #[test]
    fn pad_crops_gradient_back() {
        let x = Var::parameter(Tensor::ones(&[2]));
        let w = Tensor::from_vec(vec![5.0, 1.0, 2.0, 7.0], &[4]).unwrap();
        x.pad(&[(1, 1)]).weighted_sum(&w).backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn upsample_gradient_pools() {
        let x = Var::parameter(Tensor::ones(&[1, 2, 2]));
        x.upsample2_nearest(2).sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn upsample_gradcheck() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Var::parameter(Tensor::randn(&[1, 2, 3], &mut rng));
        let w = Tensor::randn(&[1, 4, 6], &mut rng);
        let report = check_gradients(&x, |v| v.upsample2_nearest(2).weighted_sum(&w), 1e-2);
        assert!(report.ok(2e-2), "{report:?}");
    }
}
