//! The three PEB scan orderings of Fig. 5(b).
//!
//! A `[C, D, H, W]` volume flattened depth-major gives the canonical token
//! order `t = (d·H + h)·W + w`. The three scans re-order those tokens:
//!
//! * **Depth-forward** — canonical order: the entire shallow level is
//!   processed before deeper levels.
//! * **Depth-backward** — the exact reverse.
//! * **Spatial** — depth-innermost order `t = (h·W + w)·D + d`: for each
//!   spatial position, all depth levels are visited consecutively, so the
//!   SSM state mixes information *along z* at a fixed (x, y).

use peb_tensor::{Tensor, Var};

/// One of the three selective-scan directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanDirection {
    /// Depth-innermost traversal (per-position z scans).
    Spatial,
    /// Shallow-to-deep level-major traversal.
    DepthForward,
    /// Deep-to-shallow level-major traversal.
    DepthBackward,
}

impl ScanDirection {
    /// All three directions in the paper's order.
    pub const ALL: [ScanDirection; 3] = [
        ScanDirection::Spatial,
        ScanDirection::DepthForward,
        ScanDirection::DepthBackward,
    ];

    /// The 2-D ablation of Table III: depth-forward and depth-backward
    /// only (adapted from Vision Mamba's bidirectional scan).
    pub const BIDIRECTIONAL_2D: [ScanDirection; 2] =
        [ScanDirection::DepthForward, ScanDirection::DepthBackward];
}

/// A precomputed token permutation and its inverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOrder {
    /// `indices[t]` is the canonical token placed at scan position `t`.
    pub indices: Vec<usize>,
    /// `inverse[i]` is the scan position of canonical token `i`.
    pub inverse: Vec<usize>,
}

impl ScanOrder {
    /// Builds the ordering for a direction on a `(D, H, W)` volume.
    pub fn new(direction: ScanDirection, dims: (usize, usize, usize)) -> Self {
        let (d, h, w) = dims;
        let len = d * h * w;
        let mut indices = Vec::with_capacity(len);
        match direction {
            ScanDirection::DepthForward => indices.extend(0..len),
            ScanDirection::DepthBackward => indices.extend((0..len).rev()),
            ScanDirection::Spatial => {
                for hy in 0..h {
                    for wx in 0..w {
                        for dz in 0..d {
                            indices.push((dz * h + hy) * w + wx);
                        }
                    }
                }
            }
        }
        let mut inverse = vec![0usize; len];
        for (t, &src) in indices.iter().enumerate() {
            inverse[src] = t;
        }
        ScanOrder { indices, inverse }
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the ordering is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// Differentiable row gather: `y[t, :] = x[idx[t], :]` for an `[L, C]`
/// sequence. The backward pass scatters gradients back (exact adjoint;
/// duplicate indices accumulate).
///
/// # Panics
///
/// Panics if `x` is not rank-2 or an index is out of range.
pub fn gather_rows(x: &Var, idx: &[usize]) -> Var {
    let s = x.shape();
    assert_eq!(s.len(), 2, "gather_rows expects [L, C]");
    let (l, c) = (s[0], s[1]);
    let out = {
        let _span = peb_obs::span("scan.gather");
        let xv = x.value();
        let mut out = Tensor::zeros(&[idx.len(), c]);
        let od = out.data_mut();
        for (t, &src) in idx.iter().enumerate() {
            assert!(src < l, "gather index {src} out of range {l}");
            od[t * c..(t + 1) * c].copy_from_slice(&xv.data()[src * c..(src + 1) * c]);
        }
        out
    };
    let idx = idx.to_vec();
    Var::from_op(out, vec![x.clone()], move |g| {
        let mut dx = Tensor::zeros(&[l, c]);
        let dxd = dx.data_mut();
        let gd = g.data();
        for (t, &src) in idx.iter().enumerate() {
            for ci in 0..c {
                dxd[src * c + ci] += gd[t * c + ci];
            }
        }
        vec![Some(dx)]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_are_permutations() {
        for dir in ScanDirection::ALL {
            let order = ScanOrder::new(dir, (3, 4, 5));
            let mut seen = [false; 60];
            for &i in &order.indices {
                assert!(!seen[i], "{dir:?} repeats {i}");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s));
            // Inverse really inverts.
            for (t, &src) in order.indices.iter().enumerate() {
                assert_eq!(order.inverse[src], t);
            }
        }
    }

    #[test]
    fn depth_forward_is_identity() {
        let order = ScanOrder::new(ScanDirection::DepthForward, (2, 2, 2));
        assert_eq!(order.indices, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn depth_backward_reverses() {
        let order = ScanOrder::new(ScanDirection::DepthBackward, (2, 2, 2));
        assert_eq!(order.indices, (0..8).rev().collect::<Vec<_>>());
    }

    #[test]
    fn spatial_groups_depth_contiguously() {
        let (d, h, w) = (3, 2, 2);
        let order = ScanOrder::new(ScanDirection::Spatial, (d, h, w));
        // First d tokens are the full depth column at (h=0, w=0).
        for dz in 0..d {
            assert_eq!(order.indices[dz], dz * h * w);
        }
        // Next d tokens are the column at (h=0, w=1).
        for dz in 0..d {
            assert_eq!(order.indices[d + dz], dz * h * w + 1);
        }
    }

    #[test]
    fn gather_roundtrip_and_gradient() {
        let x =
            Var::parameter(Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[4, 2]).unwrap());
        let order = ScanOrder::new(ScanDirection::DepthBackward, (4, 1, 1));
        let y = gather_rows(&x, &order.indices);
        assert_eq!(y.value().data()[0..2], [6.0, 7.0]);
        // Gather then inverse-gather restores the sequence.
        let back = gather_rows(&y, &order.inverse);
        assert!(back.value().approx_eq(&x.value(), 0.0));
        // Gradient of sum of first gathered row hits source row 3.
        x.zero_grad();
        y.slice_axis(0, 0, 1).sum().backward();
        let g = x.grad().unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
    }
}
