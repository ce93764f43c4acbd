//! Efficient spatial self-attention with sequence reduction (paper Eq. 15).
//!
//! Standard multi-head attention is `O(L²)`; PEB inputs are large, so the
//! key/value sequence is shortened by a reduction ratio `r`:
//! `K̂ = Reshape(L/r, C·r)(K)`, `K = Linear_{C·r → C}(K̂)`, dropping the
//! complexity to `O(L²/r)` — the SegFormer/PVT trick the paper adopts.

use rand::Rng;

use peb_tensor::Var;

use crate::{Linear, Parameterized};

/// Multi-head self-attention with spatial sequence reduction.
///
/// [`EfficientSelfAttention::forward_planes`] attends within each depth
/// plane of a stage's token sequence in one pass; its output bits are
/// those of the per-plane composition (head-split `bmm`, scale, softmax,
/// `bmm`, merge) at every dispatch level — it is exact-class.
#[derive(Debug, Clone)]
pub struct EfficientSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    reduce: Option<Linear>,
    dim: usize,
    heads: usize,
    reduction: usize,
}

impl EfficientSelfAttention {
    /// Creates an attention block.
    ///
    /// # Panics
    ///
    /// Panics unless `dim` is divisible by `heads` and `reduction ≥ 1`.
    pub fn new(dim: usize, heads: usize, reduction: usize, rng: &mut impl Rng) -> Self {
        assert!(
            dim.is_multiple_of(heads),
            "dim {dim} not divisible by heads {heads}"
        );
        assert!(reduction >= 1, "reduction must be >= 1");
        let reduce = (reduction > 1).then(|| Linear::new(dim * reduction, dim, rng));
        EfficientSelfAttention {
            wq: Linear::new(dim, dim, rng),
            wk: Linear::new(dim, dim, rng),
            wv: Linear::new(dim, dim, rng),
            wo: Linear::new(dim, dim, rng),
            reduce,
            dim,
            heads,
            reduction,
        }
    }

    /// The configured reduction ratio `r`.
    pub fn reduction(&self) -> usize {
        self.reduction
    }

    /// Applies self-attention to one `[L, C]` sequence:
    /// [`EfficientSelfAttention::forward_planes`] with one plane.
    ///
    /// # Panics
    ///
    /// As [`EfficientSelfAttention::forward_planes`].
    pub fn forward(&self, x: &Var) -> Var {
        self.forward_planes(x, 1)
    }

    /// Applies self-attention within each of `planes` equal consecutive
    /// runs of an `[L, C]` sequence — the per-depth-level attention of an
    /// encoder stage, with shared weights. Tokens attend only to tokens
    /// of their own plane.
    ///
    /// The q/k/v/o projections and the sequence-reduction fold each run
    /// as one GEMM over the whole sequence (a GEMM row does not depend on
    /// how many rows there are, and the fold stays inside a plane because
    /// `r` divides the plane length), and the attention core is one
    /// fused kernel over all planes ([`Var::attention`]). The output is
    /// bitwise identical to running [`EfficientSelfAttention::forward`]
    /// on each plane and concatenating, at every dispatch level and
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if `planes` does not divide `L`, if the reduction ratio does
    /// not divide the plane length `L / planes`, or if `C` is not the
    /// configured dimension.
    pub fn forward_planes(&self, x: &Var, planes: usize) -> Var {
        let shape = x.shape();
        assert_eq!(shape.len(), 2, "attention expects [L, C]");
        let (l, c) = (shape[0], shape[1]);
        assert_eq!(c, self.dim, "attention dim mismatch");
        assert!(
            planes > 0 && l.is_multiple_of(planes),
            "sequence length {l} not divisible into {planes} planes"
        );
        let plane = l / planes;
        assert!(
            plane.is_multiple_of(self.reduction),
            "plane length {plane} ({l} tokens / {planes} planes) not divisible by reduction {}",
            self.reduction
        );
        let q = self.wq.forward(x);

        // Sequence reduction (Eq. 15): fold r consecutive tokens into the
        // channel axis, then project back to C.
        let kv_in = match &self.reduce {
            Some(proj) => {
                let folded = x.reshape(&[l / self.reduction, c * self.reduction]);
                proj.forward(&folded) // [L/r, C]
            }
            None => x.clone(),
        };
        let k = self.wk.forward(&kv_in); // [L/r, C]
        let v = self.wv.forward(&kv_in); // [L/r, C]
        self.wo.forward(&q.attention(&k, &v, planes, self.heads))
    }
}

impl Parameterized for EfficientSelfAttention {
    fn parameters(&self) -> Vec<Var> {
        let mut p = Vec::new();
        p.extend(self.wq.parameters());
        p.extend(self.wk.parameters());
        p.extend(self.wv.parameters());
        p.extend(self.wo.parameters());
        if let Some(r) = &self.reduce {
            p.extend(r.parameters());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_tensor::{check_gradients, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_with_and_without_reduction() {
        let mut rng = StdRng::seed_from_u64(17);
        let x = Var::constant(Tensor::randn(&[16, 8], &mut rng));
        for r in [1usize, 4] {
            let attn = EfficientSelfAttention::new(8, 2, r, &mut rng);
            assert_eq!(attn.forward(&x).shape(), vec![16, 8]);
        }
    }

    #[test]
    fn reduction_shrinks_parameter_of_kv_path_not_output() {
        let mut rng = StdRng::seed_from_u64(18);
        let plain = EfficientSelfAttention::new(8, 2, 1, &mut rng);
        let reduced = EfficientSelfAttention::new(8, 2, 4, &mut rng);
        // Reduced variant has an extra projection.
        assert!(reduced.parameter_count() > plain.parameter_count());
    }

    #[test]
    fn attention_mixes_information_across_tokens() {
        let mut rng = StdRng::seed_from_u64(19);
        let attn = EfficientSelfAttention::new(4, 1, 1, &mut rng);
        // Two inputs differing only in token 0 must differ in token 3's
        // output (global mixing).
        let mut a = Tensor::randn(&[4, 4], &mut rng);
        let b = {
            let mut b = a.clone();
            b.data_mut()[0] += 1.0;
            b
        };
        let ya = attn.forward(&Var::constant(a.clone())).value_clone();
        let yb = attn.forward(&Var::constant(b)).value_clone();
        let row3_a = ya.slice_axis(0, 3, 4).unwrap();
        let row3_b = yb.slice_axis(0, 3, 4).unwrap();
        assert!(row3_a.max_abs_diff(&row3_b) > 1e-6);
        a.data_mut()[0] += 0.0;
    }

    #[test]
    fn gradcheck_small_attention() {
        let mut rng = StdRng::seed_from_u64(20);
        let attn = EfficientSelfAttention::new(4, 2, 2, &mut rng);
        let x0 = Tensor::randn(&[4, 4], &mut rng);
        let r = check_gradients(
            &Var::parameter(x0),
            |v| attn.forward(v).square().sum(),
            1e-2,
        );
        assert!(r.ok(3e-2), "{r:?}");
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_bad_sequence_length() {
        let mut rng = StdRng::seed_from_u64(21);
        let attn = EfficientSelfAttention::new(4, 1, 4, &mut rng);
        let x = Var::constant(Tensor::ones(&[6, 4])); // 6 % 4 != 0
        attn.forward(&x);
    }
}
