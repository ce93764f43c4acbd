//! Fused multi-head attention over depth planes.

use peb_par::UnsafeSlice;
use peb_simd::attention::Heads;

use crate::{grad_enabled, Tensor, Var};

/// Elements per parallel chunk of the score-gradient row loop (rounded
/// up to whole rows).
const DS_CHUNK_ELEMS: usize = 1 << 14;

impl Var {
    /// Multi-head attention `softmax(q_h·k_hᵀ/√dh)·v_h` over `planes`
    /// independent planes: `self` (the queries) is `[planes·P, C]`, `k`
    /// and `v` are `[planes·pr, C]`, and plane `z` attends from its `P`
    /// query rows to its own `pr` key rows only. Head `h` owns columns
    /// `h·dh..(h + 1)·dh` (`dh = C / heads`) of every operand and of the
    /// `[planes·P, C]` output.
    ///
    /// One fused kernel per plane ([`peb_simd::attention`]): the scores
    /// never leave L1, and every output bit equals the composition it
    /// replaced — head-split `bmm`, `× 1/√dh`, `softmax`, `bmm`, head
    /// merge — at each dispatch level. Planes fan out over the pool, one
    /// chunk each and sharing nothing, so any thread count gives the same
    /// bits. The `gemm_flops` counter ticks the two products' flops.
    ///
    /// While the tape records, the forward also keeps the normalised
    /// scores (`[planes·heads, P, pr]`) for the backward, which runs four
    /// batched products per (plane, head) — `dV = Pᵀ·dO`, `dP = dO·Vᵀ`,
    /// `dQ = dS·K`, `dK = dSᵀ·Q` with `dS = P ⊙ (dP − rowdot(dP, P))/√dh`;
    /// each plane owns its gradient rows.
    ///
    /// # Panics
    ///
    /// Panics on mismatched shapes, if `planes` does not divide both row
    /// counts, or if `heads` does not divide `C`.
    pub fn attention(&self, k: &Var, v: &Var, planes: usize, heads: usize) -> Var {
        let (qs, ks) = (self.shape(), k.shape());
        assert!(
            qs.len() == 2 && ks.len() == 2 && ks[1] == qs[1] && v.shape() == ks,
            "Var::attention shapes: q {qs:?}, k {ks:?}, v {:?}",
            v.shape()
        );
        assert!(
            planes > 0 && qs[0].is_multiple_of(planes) && ks[0].is_multiple_of(planes),
            "Var::attention: {planes} planes do not divide {} query and {} key rows",
            qs[0],
            ks[0]
        );
        let g = Heads {
            rows: qs[0] / planes,
            keys: ks[0] / planes,
            width: qs[1],
            heads,
        };
        let record = grad_enabled() && [self, k, v].iter().any(|x| x.requires_grad());
        let mut out = Tensor::for_overwrite(&qs);
        let mut probs = record.then(|| Tensor::zeros(&[planes * heads, g.rows, g.keys]));
        {
            let _span = peb_obs::span("attn.fwd");
            // Per plane and head, the 2·P·dh·pr flops of each of the two
            // products the kernel fuses.
            let flops = 4 * (g.rows * g.keys * g.width) as u64;
            peb_obs::count(peb_obs::Counter::GemmFlops, planes as u64 * flops);
            peb_obs::optrace::note("attn", || format!("planes={planes} {g:?}"));
            let (qv, kv, vv) = (self.value(), k.value(), v.value());
            let (qd, kd, vd) = (qv.data(), kv.data(), vv.data());
            let (qn, kn, pn) = (g.rows * g.width, g.keys * g.width, heads * g.rows * g.keys);
            let out_s = UnsafeSlice::new(out.data_mut());
            let probs_s = probs.as_mut().map(|p| UnsafeSlice::new(p.data_mut()));
            peb_par::parallel_chunks_cost(planes, 1, flops, |range| {
                for z in range {
                    // SAFETY: plane `z`'s output rows and scores belong
                    // to this chunk alone.
                    let o = unsafe { out_s.slice_mut(z * qn..(z + 1) * qn) };
                    // SAFETY: as above.
                    let p = probs_s
                        .as_ref()
                        .map(|s| unsafe { s.slice_mut(z * pn..(z + 1) * pn) });
                    let (q, k, v) = (
                        &qd[z * qn..][..qn],
                        &kd[z * kn..][..kn],
                        &vd[z * kn..][..kn],
                    );
                    peb_simd::attention::attention(q, k, v, o, p, g);
                }
            });
        }
        let (q, k, v) = (self.clone(), k.clone(), v.clone());
        let parents = vec![q.clone(), k.clone(), v.clone()];
        Var::from_op(out, parents, move |grad| {
            let probs = probs
                .as_ref()
                .expect("attention scores kept while recording");
            attention_backward(grad, [&q, &k, &v], probs, planes, g)
        })
    }
}

/// The gradients of [`Var::attention`] for `q`, `k` and `v`.
fn attention_backward(
    grad: &Tensor,
    [q, k, v]: [&Var; 3],
    probs: &Tensor,
    planes: usize,
    g: Heads,
) -> Vec<Option<Tensor>> {
    let _span = peb_obs::span("attn.bwd");
    let pr = g.keys;
    let dout = split_heads(grad, planes, g);
    let vh = split_heads(&v.value(), planes, g);
    // dP = dO·Vᵀ, then dS = P ⊙ (dP − rowdot(dP, P)) · scale in place.
    let mut ds = dout
        .bmm(&vh.permute(&[0, 2, 1]).expect("Vᵀ"))
        .expect("dO·Vᵀ");
    let scale = g.scale();
    let pd = probs.data();
    peb_par::parallel_chunks_mut_cost(
        ds.data_mut(),
        pr * DS_CHUNK_ELEMS.div_ceil(pr),
        4,
        |at, chunk| {
            for (dp, y) in chunk.chunks_mut(pr).zip(pd[at..].chunks(pr)) {
                let dot = dp
                    .iter()
                    .zip(y)
                    .fold(0f64, |acc, (&a, &b)| acc + (a * b) as f64)
                    as f32;
                for (d, &y) in dp.iter_mut().zip(y) {
                    *d = y * (*d - dot) * scale;
                }
            }
        },
    );
    let dq = q.requires_grad().then(|| {
        let kh = split_heads(&k.value(), planes, g);
        merge_heads(&ds.bmm(&kh).expect("dS·K"), planes, g)
    });
    let dk = k.requires_grad().then(|| {
        let qh = split_heads(&q.value(), planes, g);
        let dst = ds.permute(&[0, 2, 1]).expect("dSᵀ");
        merge_heads(&dst.bmm(&qh).expect("dSᵀ·Q"), planes, g)
    });
    let dv = v.requires_grad().then(|| {
        let pt = probs.permute(&[0, 2, 1]).expect("Pᵀ");
        merge_heads(&pt.bmm(&dout).expect("Pᵀ·dO"), planes, g)
    });
    vec![dq, dk, dv]
}

/// `[planes·n, C]` rows into `[planes·heads, n, dh]` head blocks.
fn split_heads(x: &Tensor, planes: usize, g: Heads) -> Tensor {
    let (c, dh) = (g.width, g.head_dim());
    let n = x.shape()[0] / planes;
    let mut out = Tensor::zeros(&[planes * g.heads, n, dh]);
    let src = x.data();
    for (b, block) in out.data_mut().chunks_mut(n * dh).enumerate() {
        let (z, h) = (b / g.heads, b % g.heads);
        for (i, row) in block.chunks_mut(dh).enumerate() {
            row.copy_from_slice(&src[(z * n + i) * c + h * dh..][..dh]);
        }
    }
    out
}

/// The inverse of [`split_heads`].
fn merge_heads(x: &Tensor, planes: usize, g: Heads) -> Tensor {
    let (c, dh) = (g.width, g.head_dim());
    let n = x.shape()[1];
    let mut out = Tensor::zeros(&[planes * n, c]);
    let dst = out.data_mut();
    for (b, block) in x.data().chunks(n * dh).enumerate() {
        let (z, h) = (b / g.heads, b % g.heads);
        for (i, row) in block.chunks(dh).enumerate() {
            dst[(z * n + i) * c + h * dh..][..dh].copy_from_slice(row);
        }
    }
    out
}
