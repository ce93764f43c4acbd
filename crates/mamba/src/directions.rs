//! The three PEB scan orderings of Fig. 5(b).
//!
//! A `[C, D, H, W]` volume flattened depth-major gives the canonical token
//! order `t = (d·H + h)·W + w`. The three scans visit those tokens in
//! different orders, each a [`Walk`]: step `t` visits canonical row
//! `walk.row(t)`.
//!
//! * **Depth-forward** — canonical order: the entire shallow level is
//!   processed before deeper levels.
//! * **Depth-backward** — the exact reverse.
//! * **Spatial** — depth-innermost order `t = (h·W + w)·D + d`: for each
//!   spatial position, all depth levels are visited consecutively, so the
//!   SSM state mixes information *along z* at a fixed (x, y).

use peb_simd::scan::Walk;

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

    /// The walk of this direction over the canonical tokens of a
    /// `(D, H, W)` volume.
    pub fn walk(self, (d, h, w): (usize, usize, usize)) -> Walk {
        match self {
            ScanDirection::DepthForward => Walk::Forward,
            ScanDirection::DepthBackward => Walk::Reverse { len: d * h * w },
            ScanDirection::Spatial => Walk::DepthInnermost { d, hw: h * w },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(dir: ScanDirection, dims: (usize, usize, usize)) -> Vec<usize> {
        let walk = dir.walk(dims);
        (0..dims.0 * dims.1 * dims.2).map(|t| walk.row(t)).collect()
    }

    #[test]
    fn orders_are_permutations() {
        for dir in ScanDirection::ALL {
            let dims = (3, 4, 5);
            assert!(dir.walk(dims).spans(60));
            let mut seen = [false; 60];
            for i in rows(dir, dims) {
                assert!(!seen[i], "{dir:?} repeats {i}");
                seen[i] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn depth_forward_is_identity() {
        assert_eq!(
            rows(ScanDirection::DepthForward, (2, 2, 2)),
            (0..8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn depth_backward_reverses() {
        assert_eq!(
            rows(ScanDirection::DepthBackward, (2, 2, 2)),
            (0..8).rev().collect::<Vec<_>>()
        );
    }

    #[test]
    fn spatial_groups_depth_contiguously() {
        let (d, h, w) = (3, 2, 2);
        let walk = ScanDirection::Spatial.walk((d, h, w));
        // First d steps are the full depth column at (h=0, w=0), the next
        // d the column at (h=0, w=1).
        for dz in 0..d {
            assert_eq!(walk.row(dz), dz * h * w);
            assert_eq!(walk.row(d + dz), dz * h * w + 1);
        }
    }
}
