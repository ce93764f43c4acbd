//! Layer normalisation as one fused operation.

use peb_par::UnsafeSlice;

use crate::shape::numel;
use crate::{Tensor, Var};

/// Elements per parallel chunk of the forward (rounded to whole 8-row
/// lane groups).
const CHUNK_ELEMS: usize = 1 << 14;

/// Per-element cost hint for the fan-outs: two `f64` adds, a subtract,
/// a square, a divide and the affine.
const COST: u64 = 8;

/// Rows per backward chunk; fixed, so the `γ`/`β` partials — and the
/// order they are combined in — never depend on the thread count.
const BWD_ROWS: usize = 256;

impl Var {
    /// Layer normalisation over the trailing axis: per row of `C`
    /// elements, `y = (x − μ)/√(var + eps)·γ + β` with `gamma` and `beta`
    /// of shape `[C]`.
    ///
    /// One pass per row ([`peb_simd::norm::layer_norm`]), rows fanned out
    /// over the pool in fixed blocks. Every output bit equals the
    /// composition it replaced — two axis means (sums in `f64`, ascending),
    /// a broadcast subtract, a square, `+ eps`, `√`, a broadcast divide,
    /// `× γ`, `+ β` — at every dispatch level and thread count.
    ///
    /// The backward is the closed form `dx = (γg − mean(γg) −
    /// x̂·mean(γg·x̂))/σ` per row with `x̂ = (x − μ)/σ`, `dγ = Σ g·x̂` and
    /// `dβ = Σ g` summed as partials over fixed row chunks, in chunk
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `self` has rank 0 or a zero-width trailing axis, or
    /// `gamma`/`beta` are not `[C]`.
    pub fn layer_norm(&self, gamma: &Var, beta: &Var, eps: f32) -> Var {
        let shape = self.shape();
        let c = shape.last().copied().unwrap_or(0);
        assert!(
            c > 0 && gamma.shape() == [c] && beta.shape() == [c],
            "Var::layer_norm shapes: x {shape:?}, gamma {:?}, beta {:?}",
            gamma.shape(),
            beta.shape()
        );
        let n = numel(&shape);
        let mut out = Tensor::for_overwrite(&shape);
        {
            let _span = crate::tensor::ew_span("ew.layernorm", n);
            let (xv, gv, bv) = (self.value(), gamma.value(), beta.value());
            let (x, ga, be) = (xv.data(), gv.data(), bv.data());
            let chunk = 8 * c * CHUNK_ELEMS.div_ceil(8 * c);
            peb_par::parallel_chunks_mut_cost(out.data_mut(), chunk, COST, |at, o| {
                peb_simd::norm::layer_norm(&x[at..at + o.len()], ga, be, eps, o);
            });
        }
        let (x, gamma) = (self.clone(), gamma.clone());
        let parents = vec![self.clone(), gamma.clone(), beta.clone()];
        Var::from_op(out, parents, move |g| {
            layer_norm_backward(g, &x.value(), &gamma.value(), eps, x.requires_grad())
        })
    }
}

/// `(μ, σ)` of one row, in the forward's expression order.
fn row_stats(row: &[f32], eps: f32) -> (f32, f32) {
    let inv_c = 1.0 / row.len() as f32;
    let mu = row.iter().fold(0f64, |a, &v| a + v as f64) as f32 * inv_c;
    let var = row
        .iter()
        .fold(0f64, |a, &v| a + ((v - mu) * (v - mu)) as f64) as f32
        * inv_c;
    (mu, (var + eps).sqrt())
}

/// The gradients of [`Var::layer_norm`] for `x` (when `want_dx`),
/// `gamma` and `beta`.
fn layer_norm_backward(
    g: &Tensor,
    x: &Tensor,
    gamma: &Tensor,
    eps: f32,
    want_dx: bool,
) -> Vec<Option<Tensor>> {
    let _span = crate::tensor::ew_span("ew.layernorm_bwd", x.len());
    let c = gamma.len();
    let rows = x.len() / c;
    let chunks = rows.div_ceil(BWD_ROWS);
    let (xd, gd, ga) = (x.data(), g.data(), gamma.data());
    let mut dx = want_dx.then(|| Tensor::zeros(x.shape()));
    // Per chunk: Σ g·x̂ then Σ g, `c` each.
    let mut partials = vec![0f64; chunks * 2 * c];
    {
        let dx_s = dx.as_mut().map(|t| UnsafeSlice::new(t.data_mut()));
        let part_s = UnsafeSlice::new(&mut partials);
        peb_par::parallel_chunks_cost(rows, BWD_ROWS, COST * c as u64, |range| {
            let ci = range.start / BWD_ROWS;
            // SAFETY: chunk `ci` owns its partials and its rows of `dx`.
            let part = unsafe { part_s.slice_mut(ci * 2 * c..(ci + 1) * 2 * c) };
            let (dgamma, dbeta) = part.split_at_mut(c);
            // SAFETY: as above.
            let mut dxc = dx_s
                .as_ref()
                .map(|s| unsafe { s.slice_mut(range.start * c..range.end * c) });
            let mut xhat = vec![0f32; c];
            for r in range.clone() {
                let (xr, gr) = (&xd[r * c..][..c], &gd[r * c..][..c]);
                let (mu, sigma) = row_stats(xr, eps);
                let (mut m1, mut m2) = (0f64, 0f64);
                for j in 0..c {
                    xhat[j] = (xr[j] - mu) / sigma;
                    let gg = (gr[j] * ga[j]) as f64;
                    m1 += gg;
                    m2 += gg * xhat[j] as f64;
                    dgamma[j] += (gr[j] * xhat[j]) as f64;
                    dbeta[j] += gr[j] as f64;
                }
                if let Some(dxc) = dxc.as_deref_mut() {
                    let (m1, m2) = (m1 / c as f64, m2 / c as f64);
                    let row = &mut dxc[(r - range.start) * c..][..c];
                    for j in 0..c {
                        let gg = (gr[j] * ga[j]) as f64;
                        row[j] = ((gg - m1 - xhat[j] as f64 * m2) / sigma as f64) as f32;
                    }
                }
            }
        });
    }
    let mut sums = vec![0f64; 2 * c];
    for part in partials.chunks(2 * c) {
        for (s, p) in sums.iter_mut().zip(part) {
            *s += p;
        }
    }
    let to_tensor = |v: &[f64]| Tensor::from_fn(&[c], |j| v[j] as f32);
    vec![dx, Some(to_tensor(&sums[..c])), Some(to_tensor(&sums[c..]))]
}
