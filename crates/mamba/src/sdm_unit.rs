//! The spatial-depthwise Mamba-based attention unit (paper Fig. 5a).
//!
//! Pipeline per Fig. 5(a): the normalised sequence is linearly projected
//! into a content path `x` and a gate path `z`; each scan direction runs
//! `Conv1d → SiLU → selective SSM` along its own token ordering — a walk:
//! the conv1d reads the canonical rows along it and the scan stores its
//! output back along it, so no reordered copy is made; the direction
//! outputs are gated by `SiLU(z)` and summed; a final linear projection
//! and a kernel-3 depthwise 3-D convolution refine the result.

use rand::Rng;

use peb_nn::{DwConv3d, LayerNorm, Linear, Parameterized};
use peb_tensor::Var;

use crate::conv1d::CausalDwConv1d;
use crate::directions::ScanDirection;
use crate::ssm::SsmBlock;

/// SDM unit hyper-parameters.
#[derive(Debug, Clone)]
pub struct SdmUnitConfig {
    /// Token feature dimension `C_i` of the host encoder stage.
    pub dim: usize,
    /// Hidden dimension `C_h` of the content/gate paths.
    pub hidden: usize,
    /// SSM state dimension `N`.
    pub state: usize,
    /// Active scan directions (all three for the full model; forward +
    /// backward for the 2-D-scan ablation of Table III).
    pub directions: Vec<ScanDirection>,
}

impl SdmUnitConfig {
    /// Full three-direction configuration.
    pub fn new(dim: usize, hidden: usize, state: usize) -> Self {
        SdmUnitConfig {
            dim,
            hidden,
            state,
            directions: ScanDirection::ALL.to_vec(),
        }
    }

    /// The Table III "2-D Scan" ablation (depth-forward/backward only).
    pub fn bidirectional_2d(mut self) -> Self {
        self.directions = ScanDirection::BIDIRECTIONAL_2D.to_vec();
        self
    }
}

/// Depthwise causal Conv1d kernel along each scan.
const CONV_KERNEL: usize = 3;

struct Branch {
    direction: ScanDirection,
    conv: CausalDwConv1d,
    ssm: SsmBlock,
}

/// The spatial-depthwise Mamba attention unit.
pub struct SdmUnit {
    in_proj_x: Linear,
    in_proj_z: Linear,
    branches: Vec<Branch>,
    /// Normalises the summed, gated branch outputs before projection —
    /// the selective scan accumulates state over long sequences, and
    /// without this the unit's output variance grows with both sequence
    /// length and direction count.
    combine_norm: LayerNorm,
    out_proj: Linear,
    dw: DwConv3d,
    config: SdmUnitConfig,
}

impl SdmUnit {
    /// Creates a unit from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if no scan direction is configured.
    pub fn new(config: SdmUnitConfig, rng: &mut impl Rng) -> Self {
        assert!(
            !config.directions.is_empty(),
            "SdmUnit needs at least one scan direction"
        );
        let branches = config
            .directions
            .iter()
            .map(|&direction| Branch {
                direction,
                conv: CausalDwConv1d::new(config.hidden, CONV_KERNEL, rng),
                ssm: SsmBlock::new(config.hidden, config.state, rng),
            })
            .collect();
        SdmUnit {
            in_proj_x: Linear::new(config.dim, config.hidden, rng),
            in_proj_z: Linear::new(config.dim, config.hidden, rng),
            branches,
            combine_norm: LayerNorm::new(config.hidden),
            out_proj: Linear::new(config.hidden, config.dim, rng),
            dw: DwConv3d::new(config.dim, 3, rng),
            config,
        }
    }

    /// Configured hyper-parameters.
    pub fn config(&self) -> &SdmUnitConfig {
        &self.config
    }

    /// Applies the unit to an `[L, C]` sequence whose tokens are the
    /// depth-major flattening of a `(D, H, W)` volume.
    ///
    /// # Panics
    ///
    /// Panics if `L ≠ D·H·W` or `C` differs from the configured dimension.
    pub fn forward(&self, x: &Var, dims: (usize, usize, usize)) -> Var {
        let s = x.shape();
        let (d, h, w) = dims;
        assert_eq!(s[0], d * h * w, "token count must equal D·H·W");
        assert_eq!(s[1], self.config.dim, "SdmUnit dim mismatch");
        let xs = self.in_proj_x.forward(x);
        let gate = self.in_proj_z.forward(x).silu();
        let mut acc: Option<Var> = None;
        for branch in &self.branches {
            let walk = branch.direction.walk(dims);
            let driven = branch.conv.forward(&xs, walk).silu();
            let gated = branch.ssm.forward(&driven, walk).mul(&gate);
            acc = Some(match acc {
                Some(prev) => prev.add(&gated),
                None => gated,
            });
        }
        let combined = self
            .combine_norm
            .forward(&acc.expect("at least one direction"));
        let projected = self.out_proj.forward(&combined);
        // [L, C] → [C, D, H, W] → DW-Conv3d → back.
        let vol = projected
            .permute(&[1, 0])
            .reshape(&[self.config.dim, d, h, w]);
        self.dw
            .forward(&vol)
            .reshape(&[self.config.dim, d * h * w])
            .permute(&[1, 0])
    }
}

impl Parameterized for SdmUnit {
    fn parameters(&self) -> Vec<Var> {
        let mut p = Vec::new();
        p.extend(self.in_proj_x.parameters());
        p.extend(self.in_proj_z.parameters());
        for b in &self.branches {
            p.extend(b.conv.parameters());
            p.extend(b.ssm.parameters());
        }
        p.extend(self.combine_norm.parameters());
        p.extend(self.out_proj.parameters());
        p.extend(self.dw.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_simd::scan::Walk;
    use peb_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn unit(dirs: usize, seed: u64) -> SdmUnit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfg = SdmUnitConfig::new(4, 8, 4);
        if dirs == 2 {
            cfg = cfg.bidirectional_2d();
        }
        SdmUnit::new(cfg, &mut rng)
    }

    #[test]
    fn forward_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(60);
        let u = unit(3, 60);
        let x = Var::constant(Tensor::randn(&[2 * 3 * 4, 4], &mut rng));
        let y = u.forward(&x, (2, 3, 4));
        assert_eq!(y.shape(), vec![24, 4]);
        assert!(y.value().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ablated_unit_has_fewer_parameters() {
        let full = unit(3, 61);
        let bi = unit(2, 61);
        assert!(full.parameter_count() > bi.parameter_count());
        assert_eq!(full.branches.len(), 3);
        assert_eq!(bi.branches.len(), 2);
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let mut rng = StdRng::seed_from_u64(62);
        let u = unit(3, 62);
        let x = Var::constant(Tensor::randn(&[8, 4], &mut rng));
        u.forward(&x, (2, 2, 2)).square().sum().backward();
        for (i, p) in u.parameters().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing gradient");
        }
    }

    #[test]
    fn whole_unit_gradcheck() {
        // Seed picked for a numerically well-conditioned finite-difference
        // point; the scan recurrence makes some inits too stiff for h=1e-2.
        // A 1×2×2 volume keeps the finite-difference cost low.
        let mut rng = StdRng::seed_from_u64(65);
        let u = SdmUnit::new(SdmUnitConfig::new(2, 4, 2), &mut rng);
        let x0 = Tensor::randn(&[4, 2], &mut rng);
        let r = peb_tensor::check_gradients(
            &Var::parameter(x0),
            |v| u.forward(v, (1, 2, 2)).square().sum(),
            1e-2,
        );
        assert!(r.ok(3e-2), "{r:?}");
    }

    #[test]
    fn spatial_scan_sees_depth_structure_2d_scan_order_differs() {
        // The same input through the full unit vs the 2-D-scan unit (same
        // seed so shared components initialise identically in count) must
        // differ: the spatial branch contributes.
        let mut rng = StdRng::seed_from_u64(64);
        let x = Tensor::randn(&[12, 4], &mut rng);
        let full = unit(3, 99);
        let y_full = full.forward(&Var::constant(x.clone()), (3, 2, 2));
        let bi = unit(2, 99);
        let y_bi = bi.forward(&Var::constant(x), (3, 2, 2));
        assert!(y_full.value().max_abs_diff(&y_bi.value()) > 1e-5);
    }

    /// The rows of each direction's order by the index formula of the
    /// gathered copies the walks replaced.
    fn gather_indices(dir: ScanDirection, (d, h, w): (usize, usize, usize)) -> Vec<usize> {
        match dir {
            ScanDirection::DepthForward => (0..d * h * w).collect(),
            ScanDirection::DepthBackward => (0..d * h * w).rev().collect(),
            ScanDirection::Spatial => (0..h * w)
                .flat_map(|p| (0..d).map(move |z| z * h * w + p))
                .collect(),
        }
    }

    fn inverse(idx: &[usize]) -> Vec<usize> {
        let mut inv = vec![0; idx.len()];
        for (t, &r) in idx.iter().enumerate() {
            inv[r] = t;
        }
        inv
    }

    /// Differentiable row gather `y[t] = x[idx[t]]` for a permutation
    /// `idx`; its backward copies each gradient row back.
    fn gather(x: &Var, idx: &[usize]) -> Var {
        let rows = |v: &Tensor, idx: &[usize]| {
            let c = v.len() / idx.len();
            let data = idx.iter().flat_map(|&r| v.data()[r * c..][..c].to_vec());
            Tensor::from_vec(data.collect(), v.shape()).unwrap()
        };
        let inv = inverse(idx);
        Var::from_op(rows(&x.value(), idx), vec![x.clone()], move |g| {
            vec![Some(rows(g, &inv))]
        })
    }

    /// The unit as it ran before its branches walked: each branch on a
    /// gathered copy in scan order, scattered back.
    fn gathered_forward(u: &SdmUnit, x: &Var, dims: (usize, usize, usize)) -> Var {
        let (d, h, w) = dims;
        let xs = u.in_proj_x.forward(x);
        let gate = u.in_proj_z.forward(x).silu();
        let mut acc: Option<Var> = None;
        for branch in &u.branches {
            let idx = gather_indices(branch.direction, dims);
            let driven = branch
                .conv
                .forward(&gather(&xs, &idx), Walk::Forward)
                .silu();
            let scanned = branch.ssm.forward(&driven, Walk::Forward);
            let gated = gather(&scanned, &inverse(&idx)).mul(&gate);
            acc = Some(match acc {
                Some(prev) => prev.add(&gated),
                None => gated,
            });
        }
        let projected = u.out_proj.forward(&u.combine_norm.forward(&acc.unwrap()));
        let vol = projected.permute(&[1, 0]).reshape(&[u.config.dim, d, h, w]);
        u.dw.forward(&vol)
            .reshape(&[u.config.dim, d * h * w])
            .permute(&[1, 0])
    }

    #[test]
    fn walked_unit_is_the_gathered_unit_bitwise() {
        // The output and every gradient: the walks move addresses, not
        // arithmetic.
        let mut rng = StdRng::seed_from_u64(66);
        let dims = (3, 2, 4);
        let u = unit(3, 66);
        let x = Tensor::randn(&[24, 4], &mut rng);
        let weights = Tensor::randn(&[24, 4], &mut rng);
        let params = u.parameters();
        let run = |f: &dyn Fn(&Var) -> Var| {
            params.iter().for_each(Var::zero_grad);
            let xv = Var::parameter(x.clone());
            let y = f(&xv);
            y.weighted_sum(&weights).backward();
            let grads: Vec<Tensor> = params.iter().map(|p| p.grad().unwrap()).collect();
            (y.value_clone(), xv.grad().unwrap(), grads)
        };
        let (y, dx, grads) = run(&|v| u.forward(v, dims));
        let (want_y, want_dx, want) = run(&|v| gathered_forward(&u, v, dims));
        assert_eq!(y.bit_digest(), want_y.bit_digest(), "y");
        assert_eq!(dx.bit_digest(), want_dx.bit_digest(), "dx");
        for (i, (got, want)) in grads.iter().zip(&want).enumerate() {
            assert_eq!(got.bit_digest(), want.bit_digest(), "param {i}");
        }
    }

    #[test]
    #[should_panic(expected = "token count")]
    fn rejects_dim_mismatch() {
        let u = unit(3, 65);
        let x = Var::constant(Tensor::ones(&[10, 4]));
        u.forward(&x, (2, 2, 2)); // 10 ≠ 8
    }
}
