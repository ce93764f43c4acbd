//! 3-D eikonal solver for development-front propagation.
//!
//! Solves `|∇S(x, y, z)| = 1/R(x, y, z)` for the arrival time `S` of the
//! developer front, which enters from the resist top surface (depth index
//! 0). This replaces the open-source fast iterative solver [31] cited by
//! the paper; we use the fast sweeping method (Gauss–Seidel over the 8
//! sweep orderings of 3-D space) with a Godunov upwind update that handles
//! anisotropic grid spacing.

use peb_tensor::Tensor;

use crate::{Grid, LithoError, Result};

/// Eikonal solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EikonalConfig {
    /// Convergence tolerance on the max update per full sweep set (s).
    pub tol: f32,
    /// Maximum number of 8-sweep rounds.
    pub max_rounds: usize,
}

impl Default for EikonalConfig {
    fn default() -> Self {
        EikonalConfig {
            tol: 1e-4,
            max_rounds: 12,
        }
    }
}

/// Solves for the arrival-time field `S` (seconds), shape `[D, H, W]`.
///
/// The front starts at the top surface: the initial condition is
/// `S = (dz/2) / R` for the top layer (time for the front to reach the
/// first voxel centre), infinity elsewhere.
///
/// # Errors
///
/// Returns [`LithoError::Config`] if `rate` does not match the grid or
/// contains non-positive entries.
pub fn solve_eikonal(grid: &Grid, rate: &Tensor, cfg: EikonalConfig) -> Result<Tensor> {
    if rate.shape() != grid.shape3() {
        return Err(LithoError::Config {
            detail: format!(
                "rate shape {:?} does not match grid {:?}",
                rate.shape(),
                grid.shape3()
            ),
        });
    }
    if rate.min_value() <= 0.0 {
        return Err(LithoError::Config {
            detail: "development rate must be strictly positive".into(),
        });
    }
    let (nz, ny, nx) = (grid.nz, grid.ny, grid.nx);
    let (hx, hy, hz) = (grid.dx, grid.dy, grid.dz);
    let mut s = Tensor::full(&grid.shape3(), f32::INFINITY);
    {
        let sd = s.data_mut();
        let rd = rate.data();
        for y in 0..ny {
            for x in 0..nx {
                let idx = y * nx + x;
                sd[idx] = 0.5 * hz / rd[idx];
            }
        }
    }
    let rd = rate.data();
    let at = |z: usize, y: usize, x: usize| (z * ny + y) * nx + x;
    let _span = peb_obs::span("litho.eikonal");
    let mut rounds = 0usize;
    loop {
        let mut max_change = 0f32;
        // The 8 sweep orderings of (z, y, x).
        peb_obs::count(peb_obs::Counter::EikonalSweeps, 8);
        for dir in 0..8u8 {
            let zs: Box<dyn Iterator<Item = usize>> = if dir & 1 == 0 {
                Box::new(0..nz)
            } else {
                Box::new((0..nz).rev())
            };
            for z in zs {
                let ys: Box<dyn Iterator<Item = usize>> = if dir & 2 == 0 {
                    Box::new(0..ny)
                } else {
                    Box::new((0..ny).rev())
                };
                for y in ys {
                    let xs: Box<dyn Iterator<Item = usize>> = if dir & 4 == 0 {
                        Box::new(0..nx)
                    } else {
                        Box::new((0..nx).rev())
                    };
                    for x in xs {
                        let sd = s.data();
                        let ax = neighbour_min(sd, x, nx, |i| at(z, y, i));
                        let ay = neighbour_min(sd, y, ny, |j| at(z, j, x));
                        // z: only the voxel above feeds the front downward
                        // at z=0 (the surface is the source); both
                        // neighbours elsewhere.
                        let az = if z == 0 {
                            if nz > 1 {
                                sd[at(1, y, x)]
                            } else {
                                f32::INFINITY
                            }
                        } else if z + 1 == nz {
                            sd[at(z - 1, y, x)]
                        } else {
                            sd[at(z - 1, y, x)].min(sd[at(z + 1, y, x)])
                        };
                        let slowness = 1.0 / rd[at(z, y, x)];
                        let u = godunov_update(&[(ax, hx), (ay, hy), (az, hz)], slowness);
                        let idx = at(z, y, x);
                        let cur = s.data()[idx];
                        if u < cur {
                            max_change = max_change.max(cur - u);
                            s.data_mut()[idx] = u;
                        }
                    }
                }
            }
        }
        rounds += 1;
        if max_change < cfg.tol || rounds >= cfg.max_rounds {
            break;
        }
    }
    Ok(s)
}

fn neighbour_min(sd: &[f32], i: usize, n: usize, at: impl Fn(usize) -> usize) -> f32 {
    let lo = if i > 0 { sd[at(i - 1)] } else { f32::INFINITY };
    let hi = if i + 1 < n {
        sd[at(i + 1)]
    } else {
        f32::INFINITY
    };
    lo.min(hi)
}

/// Godunov upwind solve of `Σ ((u − aᵢ)/hᵢ)₊² = s²` for `u`, adding axes
/// in order of increasing neighbour value.
fn godunov_update(axes: &[(f32, f32); 3], slowness: f32) -> f32 {
    let mut sorted: Vec<(f32, f32)> = axes
        .iter()
        .copied()
        .filter(|(a, _)| a.is_finite())
        .collect();
    if sorted.is_empty() {
        return f32::INFINITY;
    }
    sorted.sort_by(|l, r| l.0.total_cmp(&r.0));
    // Try with 1, then 2, then 3 active axes.
    let mut u = sorted[0].0 + slowness * sorted[0].1;
    for m in 2..=sorted.len() {
        if u <= sorted[m - 1].0 {
            break;
        }
        // Solve Σ_{i<m} ((u − aᵢ)/hᵢ)² = s².
        let mut alpha = 0f64; // Σ 1/hᵢ²
        let mut beta = 0f64; // Σ aᵢ/hᵢ²
        let mut gamma = 0f64; // Σ aᵢ²/hᵢ²
        for &(a, h) in &sorted[..m] {
            let w = 1.0 / (h as f64 * h as f64);
            alpha += w;
            beta += a as f64 * w;
            gamma += (a as f64) * (a as f64) * w;
        }
        let s2 = (slowness as f64) * (slowness as f64);
        let disc = beta * beta - alpha * (gamma - s2);
        if disc < 0.0 {
            break;
        }
        u = ((beta + disc.sqrt()) / alpha) as f32;
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_rate_gives_planar_front() {
        let grid = Grid::new(8, 8, 6, 4.0, 4.0, 10.0).unwrap();
        let rate = Tensor::full(&grid.shape3(), 2.0); // nm/s
        let s = solve_eikonal(&grid, &rate, EikonalConfig::default()).unwrap();
        // Depth of layer k is (k+0.5)·dz; arrival = depth / rate.
        for k in 0..grid.nz {
            let expect = grid.depth_of(k) / 2.0;
            let got = s.get(&[k, 4, 4]);
            assert!(
                (got - expect).abs() / expect < 0.05,
                "layer {k}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn slow_region_blocks_front() {
        let grid = Grid::new(8, 8, 4, 4.0, 4.0, 10.0).unwrap();
        let mut rate = Tensor::full(&grid.shape3(), 10.0);
        // A slow slab at layer 1 except one fast column at (4, 4).
        for y in 0..8 {
            for x in 0..8 {
                if !(y == 4 && x == 4) {
                    rate.set(&[1, y, x], 0.001);
                }
            }
        }
        let s = solve_eikonal(&grid, &rate, EikonalConfig::default()).unwrap();
        // Below the slab, the point under the fast column is reached much
        // earlier than a far corner.
        assert!(s.get(&[2, 4, 4]) < s.get(&[2, 0, 0]) * 0.9);
    }

    #[test]
    fn arrival_increases_with_depth_for_uniform_rate() {
        let grid = Grid::new(8, 8, 5, 4.0, 4.0, 8.0).unwrap();
        let rate = Tensor::full(&grid.shape3(), 5.0);
        let s = solve_eikonal(&grid, &rate, EikonalConfig::default()).unwrap();
        for k in 1..grid.nz {
            assert!(s.get(&[k, 3, 3]) > s.get(&[k - 1, 3, 3]));
        }
    }

    #[test]
    fn lateral_development_occurs() {
        // Fast channel down one column, then the front spreads laterally
        // in a fast bottom layer.
        let grid = Grid::new(16, 16, 3, 4.0, 4.0, 10.0).unwrap();
        let mut rate = Tensor::full(&grid.shape3(), 0.001);
        for z in 0..3 {
            rate.set(&[z, 8, 8], 20.0);
        }
        for y in 0..16 {
            for x in 0..16 {
                rate.set(&[2, y, x], 20.0);
            }
        }
        let s = solve_eikonal(&grid, &rate, EikonalConfig::default()).unwrap();
        // Bottom layer far from the channel is reached via the channel +
        // lateral path, not by slow vertical development (which would take
        // ~25000 s).
        assert!(s.get(&[2, 8, 0]) < 100.0, "got {}", s.get(&[2, 8, 0]));
    }

    #[test]
    fn rejects_bad_inputs() {
        let grid = Grid::small();
        assert!(solve_eikonal(&grid, &Tensor::ones(&[1, 2, 3]), EikonalConfig::default()).is_err());
        let zero_rate = Tensor::zeros(&grid.shape3());
        assert!(solve_eikonal(&grid, &zero_rate, EikonalConfig::default()).is_err());
    }

    #[test]
    fn godunov_single_axis() {
        let u = godunov_update(
            &[(1.0, 2.0), (f32::INFINITY, 1.0), (f32::INFINITY, 1.0)],
            0.5,
        );
        assert!((u - 2.0).abs() < 1e-6); // 1.0 + 0.5·2.0
    }

    #[test]
    fn godunov_two_axes_matches_quadratic() {
        // a1 = a2 = 0, h = 1: u/√... → 2 (u/1)² = s² → u = s/√2.
        let u = godunov_update(&[(0.0, 1.0), (0.0, 1.0), (f32::INFINITY, 1.0)], 1.0);
        assert!((u - 1.0 / 2f32.sqrt()).abs() < 1e-5);
    }
}

/// Solves the same eikonal problem with the fast *iterative* method (FIM)
/// of Jeong & Whitaker — the solver the paper cites \[31\].
///
/// FIM maintains an active list of narrow-band voxels and relaxes them
/// until convergence, which parallelises better than sweeping on real
/// hardware; here it serves as an independent cross-check of the
/// fast-sweeping solver (the test suite asserts both agree).
///
/// # Errors
///
/// Same contract as [`solve_eikonal`].
pub fn solve_eikonal_fim(grid: &Grid, rate: &Tensor, cfg: EikonalConfig) -> Result<Tensor> {
    if rate.shape() != grid.shape3() {
        return Err(LithoError::Config {
            detail: format!(
                "rate shape {:?} does not match grid {:?}",
                rate.shape(),
                grid.shape3()
            ),
        });
    }
    if rate.min_value() <= 0.0 {
        return Err(LithoError::Config {
            detail: "development rate must be strictly positive".into(),
        });
    }
    let (nz, ny, nx) = (grid.nz, grid.ny, grid.nx);
    let (hx, hy, hz) = (grid.dx, grid.dy, grid.dz);
    let n = nz * ny * nx;
    let at = |z: usize, y: usize, x: usize| (z * ny + y) * nx + x;
    let rd = rate.data();
    let mut s = vec![f32::INFINITY; n];
    let mut active = std::collections::VecDeque::new();
    let mut in_list = vec![false; n];
    // Source: the top layer, seeded like the sweeping solver.
    for y in 0..ny {
        for x in 0..nx {
            let idx = at(0, y, x);
            s[idx] = 0.5 * hz / rd[idx];
            // Its neighbours form the initial band.
            for (dz, dy, dx) in [
                (1isize, 0isize, 0isize),
                (0, 1, 0),
                (0, -1, 0),
                (0, 0, 1),
                (0, 0, -1),
            ] {
                let (zz, yy, xx) = (dz, y as isize + dy, x as isize + dx);
                if zz >= 0
                    && (zz as usize) < nz
                    && yy >= 0
                    && (yy as usize) < ny
                    && xx >= 0
                    && (xx as usize) < nx
                {
                    let nidx = at(zz as usize, yy as usize, xx as usize);
                    if !in_list[nidx] && s[nidx].is_infinite() {
                        in_list[nidx] = true;
                        active.push_back(nidx);
                    }
                }
            }
        }
    }
    let update = |s: &[f32], idx: usize| -> f32 {
        let z = idx / (ny * nx);
        let y = (idx / nx) % ny;
        let x = idx % nx;
        let axis_min = |lo: Option<usize>, hi: Option<usize>| -> f32 {
            let a = lo.map(|i| s[i]).unwrap_or(f32::INFINITY);
            let b = hi.map(|i| s[i]).unwrap_or(f32::INFINITY);
            a.min(b)
        };
        let ax = axis_min(
            (x > 0).then(|| at(z, y, x - 1)),
            (x + 1 < nx).then(|| at(z, y, x + 1)),
        );
        let ay = axis_min(
            (y > 0).then(|| at(z, y - 1, x)),
            (y + 1 < ny).then(|| at(z, y + 1, x)),
        );
        let az = if z == 0 {
            if nz > 1 {
                s[at(1, y, x)]
            } else {
                f32::INFINITY
            }
        } else if z + 1 == nz {
            s[at(z - 1, y, x)]
        } else {
            s[at(z - 1, y, x)].min(s[at(z + 1, y, x)])
        };
        godunov_update(&[(ax, hx), (ay, hy), (az, hz)], 1.0 / rd[idx])
    };
    let mut guard = 0usize;
    let guard_limit = n * 64; // generous convergence bound
    while let Some(idx) = active.pop_front() {
        in_list[idx] = false;
        guard += 1;
        if guard > guard_limit {
            break;
        }
        let new = update(&s, idx);
        if new < s[idx] - cfg.tol {
            s[idx] = new;
            // Re-activate neighbours that might improve.
            let z = idx / (ny * nx);
            let y = (idx / nx) % ny;
            let x = idx % nx;
            let mut push = |zz: isize, yy: isize, xx: isize| {
                if zz >= 0
                    && (zz as usize) < nz
                    && yy >= 0
                    && (yy as usize) < ny
                    && xx >= 0
                    && (xx as usize) < nx
                {
                    let nidx = at(zz as usize, yy as usize, xx as usize);
                    if !in_list[nidx] {
                        in_list[nidx] = true;
                        active.push_back(nidx);
                    }
                }
            };
            push(z as isize - 1, y as isize, x as isize);
            push(z as isize + 1, y as isize, x as isize);
            push(z as isize, y as isize - 1, x as isize);
            push(z as isize, y as isize + 1, x as isize);
            push(z as isize, y as isize, x as isize - 1);
            push(z as isize, y as isize, x as isize + 1);
        } else if new < s[idx] {
            s[idx] = new;
        }
    }
    Ok(Tensor::from_vec(s, &grid.shape3())?)
}

#[cfg(test)]
mod fim_tests {
    use super::*;

    #[test]
    fn fim_matches_fast_sweeping_uniform() {
        let grid = Grid::new(16, 16, 6, 4.0, 4.0, 10.0).unwrap();
        let rate = Tensor::full(&grid.shape3(), 3.0);
        let fsm = solve_eikonal(&grid, &rate, EikonalConfig::default()).unwrap();
        let fim = solve_eikonal_fim(&grid, &rate, EikonalConfig::default()).unwrap();
        assert!(
            fsm.max_abs_diff(&fim) < 0.05,
            "solvers diverge: {}",
            fsm.max_abs_diff(&fim)
        );
    }

    #[test]
    fn fim_matches_fast_sweeping_heterogeneous() {
        use rand::{rngs::StdRng, SeedableRng};
        let grid = Grid::new(16, 16, 4, 4.0, 4.0, 10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let rate = Tensor::rand_uniform(&grid.shape3(), 0.5, 20.0, &mut rng);
        let fsm = solve_eikonal(&grid, &rate, EikonalConfig::default()).unwrap();
        let fim = solve_eikonal_fim(&grid, &rate, EikonalConfig::default()).unwrap();
        // Relative agreement on the (finite) arrival times.
        let mut max_rel = 0f32;
        for (a, b) in fsm.data().iter().zip(fim.data()) {
            if a.is_finite() && b.is_finite() {
                max_rel = max_rel.max((a - b).abs() / a.abs().max(1.0));
            }
        }
        assert!(max_rel < 0.02, "relative mismatch {max_rel}");
    }

    #[test]
    fn fim_rejects_bad_inputs() {
        let grid = Grid::small();
        assert!(
            solve_eikonal_fim(&grid, &Tensor::ones(&[1, 1, 1]), EikonalConfig::default()).is_err()
        );
    }
}
