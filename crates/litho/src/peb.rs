//! Rigorous post-exposure-bake reaction–diffusion solver (Eqs. 1–4).
//!
//! Integrates the coupled system
//!
//! ```text
//! ∂[I]/∂t = −kc [I][A]                                   (catalysis, Eq. 1)
//! ∂[A]/∂t = −kr [A][B] + ∇·(D_A ∇[A])                    (Eq. 2)
//! ∂[B]/∂t = −kr [A][B] + ∇·(D_B ∇[B])                    (Eq. 3)
//! ```
//!
//! with zero-flux boundaries in x/y and a Robin condition for the acid at
//! the top resist surface, `D_A ∂[A]/∂z = h([A]_top − [A]_sat)` (Eq. 4).
//! Diffusion is anisotropic: the paper specifies separate normal (z) and
//! lateral (x/y) diffusion lengths, `L = √(2DT)` ⇒ `D = L²/(2T)`.
//!
//! Two time integrators are provided:
//!
//! * [`TimeScheme::ImplicitLod`] — locally one-dimensional (Lie-split)
//!   implicit sweeps per axis (Thomas solver). Unconditionally stable, so
//!   the paper's Δt = 0.1 s is usable even though `D_z,A ≈ 27 nm²/s` would
//!   limit an explicit scheme to Δt ≲ 0.02 s on a 1 nm z-grid.
//! * [`TimeScheme::ExplicitEuler`] — reference explicit scheme used for
//!   cross-validation at small Δt.
//!
//! Reaction and diffusion are combined by Strang splitting (half reaction,
//! full diffusion, half reaction); the reaction half-steps use RK4 for the
//! acid–base pair and an exact exponential update for the inhibitor.

use serde::{Deserialize, Serialize};

use peb_tensor::Tensor;

use crate::{Grid, LithoError, Result};

/// PEB physical parameters; defaults are the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PebParams {
    /// Acid normal (z) diffusion length `L_{N,A}` in nm. Table I: 70.
    pub normal_diff_len_a: f32,
    /// Base normal diffusion length `L_{N,B}` in nm. Table I: 15.
    pub normal_diff_len_b: f32,
    /// Acid lateral (x/y) diffusion length `L_{L,A}` in nm. Table I: 10.
    pub lateral_diff_len_a: f32,
    /// Base lateral diffusion length `L_{L,B}` in nm. Table I: 10.
    pub lateral_diff_len_b: f32,
    /// Catalysis coefficient `k_c` (1/s). Table I: 0.9.
    pub kc: f32,
    /// Acid–base neutralisation coefficient `k_r` (1/s). Table I: 8.6993.
    pub kr: f32,
    /// Acid surface transfer coefficient `h_A` (nm/s). Table I: 0.027.
    pub h_a: f32,
    /// Base surface transfer coefficient `h_B`. Table I: 0.
    pub h_b: f32,
    /// Acid saturation concentration `[A]_sat`. Table I: 0.9.
    pub a_sat: f32,
    /// Base saturation concentration `[B]_sat`. Table I: 0.
    pub b_sat: f32,
    /// Initial inhibitor `[I](t=0)`. Table I: 1.0.
    pub inhibitor0: f32,
    /// Initial base quencher `[B](t=0)`. Table I: 0.4.
    pub base0: f32,
    /// Baseline time step Δt in seconds. Table I: 0.1.
    pub dt: f32,
    /// Bake duration T in seconds. Table I: 90.
    pub duration: f32,
}

impl PebParams {
    /// The paper's Table I values.
    pub fn paper() -> Self {
        PebParams {
            normal_diff_len_a: 70.0,
            normal_diff_len_b: 15.0,
            lateral_diff_len_a: 10.0,
            lateral_diff_len_b: 10.0,
            kc: 0.9,
            kr: 8.6993,
            h_a: 0.027,
            h_b: 0.0,
            a_sat: 0.9,
            b_sat: 0.0,
            inhibitor0: 1.0,
            base0: 0.4,
            dt: 0.1,
            duration: 90.0,
        }
    }

    /// Acid diffusivities `(lateral, normal)` in nm²/s from `L = √(2DT)`.
    pub fn diffusivity_a(&self) -> (f32, f32) {
        let t = self.duration;
        (
            self.lateral_diff_len_a.powi(2) / (2.0 * t),
            self.normal_diff_len_a.powi(2) / (2.0 * t),
        )
    }

    /// Base diffusivities `(lateral, normal)` in nm²/s.
    pub fn diffusivity_b(&self) -> (f32, f32) {
        let t = self.duration;
        (
            self.lateral_diff_len_b.powi(2) / (2.0 * t),
            self.normal_diff_len_b.powi(2) / (2.0 * t),
        )
    }
}

impl Default for PebParams {
    fn default() -> Self {
        PebParams::paper()
    }
}

/// Time integration scheme for the diffusion operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeScheme {
    /// Locally one-dimensional implicit sweeps — unconditionally stable.
    ImplicitLod,
    /// Reference forward-Euler scheme — conditionally stable, used for
    /// solver cross-validation.
    ExplicitEuler,
}

/// Concentration fields at the end of (or during) the bake.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PebState {
    /// Photoacid `[A]`, shape `[D, H, W]`.
    pub acid: Tensor,
    /// Base quencher `[B]`, shape `[D, H, W]`.
    pub base: Tensor,
    /// Inhibitor `[I]`, shape `[D, H, W]`.
    pub inhibitor: Tensor,
}

/// The rigorous PEB solver, standing in for S-Litho's resist bake step.
#[derive(Debug, Clone)]
pub struct PebSolver {
    params: PebParams,
    grid: Grid,
    scheme: TimeScheme,
}

/// Boundary condition of one end of an implicit sweep line.
#[derive(Clone, Copy)]
enum EndBc {
    /// Reflective (zero-flux).
    Neumann,
    /// Robin in/out-diffusion: flux `h (u − sat)` with `h` in nm/s.
    Robin { h: f32, sat: f32 },
}

impl PebSolver {
    /// Creates a solver.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::Config`] for non-positive Δt/duration, and for
    /// explicit integration when Δt violates the stability limit.
    pub fn new(params: PebParams, grid: Grid, scheme: TimeScheme) -> Result<Self> {
        if params.dt <= 0.0 || params.duration <= 0.0 {
            return Err(LithoError::Config {
                detail: format!(
                    "dt={} and duration={} must be positive",
                    params.dt, params.duration
                ),
            });
        }
        if scheme == TimeScheme::ExplicitEuler {
            let (dl_a, dn_a) = params.diffusivity_a();
            let (dl_b, dn_b) = params.diffusivity_b();
            let limit = |dl: f32, dn: f32| {
                0.5 / (dl / (grid.dx * grid.dx)
                    + dl / (grid.dy * grid.dy)
                    + dn / (grid.dz * grid.dz))
            };
            let max_dt = limit(dl_a, dn_a).min(limit(dl_b, dn_b));
            if params.dt > max_dt {
                return Err(LithoError::Config {
                    detail: format!(
                        "explicit scheme unstable: dt={} exceeds limit {max_dt:.4}",
                        params.dt
                    ),
                });
            }
        }
        Ok(PebSolver {
            params,
            grid,
            scheme,
        })
    }

    /// Parameters in use.
    pub fn params(&self) -> &PebParams {
        &self.params
    }

    /// Runs the bake from an initial photoacid field.
    ///
    /// Initial conditions follow the paper: uniform inhibitor
    /// (`inhibitor0`) and base (`base0`), photoacid from the Dill model.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::Config`] if `acid0` does not match the grid.
    pub fn run(&self, acid0: &Tensor) -> Result<PebState> {
        let shape = self.grid.shape3();
        if acid0.shape() != shape {
            return Err(LithoError::Config {
                detail: format!(
                    "acid0 shape {:?} does not match grid {:?}",
                    acid0.shape(),
                    shape
                ),
            });
        }
        let mut state = PebState {
            acid: acid0.clone(),
            base: Tensor::full(&shape, self.params.base0),
            inhibitor: Tensor::full(&shape, self.params.inhibitor0),
        };
        let _span = peb_obs::span("litho.peb_run");
        let steps = (self.params.duration / self.params.dt).round().max(1.0) as usize;
        let dt = self.params.duration / steps as f32;
        for _ in 0..steps {
            let _step_span = peb_obs::span("litho.peb_step");
            self.reaction_half_step(&mut state, dt * 0.5);
            self.diffuse(&mut state.acid, self.params.diffusivity_a(), true, dt);
            self.diffuse(&mut state.base, self.params.diffusivity_b(), false, dt);
            self.reaction_half_step(&mut state, dt * 0.5);
        }
        Ok(state)
    }

    /// Strang half-step for the local reactions.
    ///
    /// The acid–base pair `(A, B)` evolves under `Ȧ = Ḃ = −kr·A·B` (RK4);
    /// the inhibitor uses the exact update
    /// `I ← I · exp(−kc · Ā · δt)` with `Ā` the trapezoidal mean of the
    /// acid over the sub-step.
    ///
    /// Every cell is independent (pointwise ODEs, libm `exp` on every
    /// path), so the element range fans out over the `peb-par` pool with
    /// bitwise-identical results at any thread count.
    fn reaction_half_step(&self, state: &mut PebState, dt: f32) {
        let _span = peb_obs::span("litho.reaction_half");
        let kr = self.params.kr;
        let kc = self.params.kc;
        let n = state.acid.len();
        let acid = peb_par::UnsafeSlice::new(state.acid.data_mut());
        let base = peb_par::UnsafeSlice::new(state.base.data_mut());
        let inhibitor = peb_par::UnsafeSlice::new(state.inhibitor.data_mut());
        peb_par::parallel_chunks_cost(n, n.div_ceil(64), 40, |range| {
            for idx in range {
                // SAFETY: chunk ranges are disjoint and each index touches
                // only its own element of the three fields.
                let a = unsafe { acid.get_mut(idx) };
                let b = unsafe { base.get_mut(idx) };
                let i = unsafe { inhibitor.get_mut(idx) };
                let a0 = *a;
                let (a1, b1) = rk4_neutralise(a0, *b, kr, dt);
                *a = a1.max(0.0);
                *b = b1.max(0.0);
                let mean_a = 0.5 * (a0 + *a);
                *i *= (-kc * mean_a * dt).exp();
            }
        });
    }

    /// One diffusion step for a species with `(lateral, normal)`
    /// diffusivities. `robin_top` enables the Eq. 4 surface condition at
    /// depth index 0 (acid only; the base has `h = 0` ⇒ Neumann).
    fn diffuse(&self, field: &mut Tensor, (d_lat, d_norm): (f32, f32), robin_top: bool, dt: f32) {
        let top_bc = if robin_top {
            EndBc::Robin {
                h: self.params.h_a,
                sat: self.params.a_sat,
            }
        } else if self.params.h_b > 0.0 {
            EndBc::Robin {
                h: self.params.h_b,
                sat: self.params.b_sat,
            }
        } else {
            EndBc::Neumann
        };
        match self.scheme {
            TimeScheme::ImplicitLod => {
                let (nz, ny, nx) = (self.grid.nz, self.grid.ny, self.grid.nx);
                let plane = ny * nx;
                let rx = d_lat * dt / (self.grid.dx * self.grid.dx);
                let ry = d_lat * dt / (self.grid.dy * self.grid.dy);
                let rz = d_norm * dt / (self.grid.dz * self.grid.dz);
                let data = field.data_mut();
                // Lie splitting: x, then y, then z implicit sweeps. The x
                // and y sweeps only couple cells within one z-plane, so
                // when tiled they stream cache-sized z-slabs: the y
                // sweep re-reads each slab while it is still resident from
                // the x sweep, instead of two full-volume passes. Per-line
                // arithmetic is untouched — tiled output is bitwise
                // identical to untiled.
                match peb_pool::tile::slab_items(plane * std::mem::size_of::<f32>(), nz) {
                    Some(sd) if sd < nz => {
                        let mut z0 = 0;
                        while z0 < nz {
                            let zl = sd.min(nz - z0);
                            let sub = &mut data[z0 * plane..(z0 + zl) * plane];
                            let sub_shape = [zl, ny, nx];
                            implicit_axis_on(
                                sub,
                                &sub_shape,
                                2,
                                rx,
                                EndBc::Neumann,
                                EndBc::Neumann,
                            );
                            implicit_axis_on(
                                sub,
                                &sub_shape,
                                1,
                                ry,
                                EndBc::Neumann,
                                EndBc::Neumann,
                            );
                            peb_obs::count(peb_obs::Counter::SlabPasses, 1);
                            z0 += zl;
                        }
                    }
                    _ => {
                        let shape = [nz, ny, nx];
                        implicit_axis_on(data, &shape, 2, rx, EndBc::Neumann, EndBc::Neumann);
                        implicit_axis_on(data, &shape, 1, ry, EndBc::Neumann, EndBc::Neumann);
                    }
                }
                // The z sweep's lines span the full depth; its xy lines
                // fan out over the pool in fixed blocks.
                implicit_axis_on(
                    data,
                    &[nz, ny, nx],
                    0,
                    rz,
                    top_bc_scaled(top_bc, dt, self.grid.dz),
                    EndBc::Neumann,
                );
            }
            TimeScheme::ExplicitEuler => {
                explicit_step(field, &self.grid, d_lat, d_norm, top_bc, dt);
            }
        }
    }
}

/// Pre-scales a Robin condition into the dimensionless form used by the
/// implicit solver (`h·dt/dz`).
fn top_bc_scaled(bc: EndBc, dt: f32, dz: f32) -> EndBc {
    match bc {
        EndBc::Neumann => EndBc::Neumann,
        EndBc::Robin { h, sat } => EndBc::Robin {
            h: h * dt / dz,
            sat,
        },
    }
}

/// RK4 integration of the neutralisation pair over `dt`.
///
/// `A − B` is conserved by the exact dynamics; RK4 preserves it to
/// round-off because both derivatives are identical.
fn rk4_neutralise(a: f32, b: f32, kr: f32, dt: f32) -> (f32, f32) {
    let f = |a: f32, b: f32| -kr * a * b;
    let k1 = f(a, b);
    let k2 = f(a + 0.5 * dt * k1, b + 0.5 * dt * k1);
    let k3 = f(a + 0.5 * dt * k2, b + 0.5 * dt * k2);
    let k4 = f(a + dt * k3, b + dt * k3);
    let delta = dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    (a + delta, b + delta)
}

/// Implicit backward-Euler sweep of one axis: solves
/// `(I − r·L_axis) u_new = u_old` line by line, where `r = D·dt/h²` and
/// `L_axis` is the 1-D Laplacian with the given end conditions.
///
/// Every line of the axis shares one constant-coefficient matrix, so the
/// elimination is factored **once** (`peb_simd::thomas`) and each line
/// replays only the cheap per-line operations — bitwise identical to the
/// in-line `solve_tridiagonal` elimination. Groups of eight lines that
/// are adjacent in the innermost dimension solve in place through the
/// vectorized interleaved kernel (no gather/scatter); leftover lines — and
/// all of axis 2, whose lines are not memory-adjacent — take the scalar
/// factored path. The `outer·inner` lines fan out over the `peb-par`
/// pool; each line reads and writes only its own strided positions, so
/// the sweep stays bitwise identical at any thread count.
fn implicit_axis_on(
    data: &mut [f32],
    shape: &[usize],
    axis: usize,
    r: f32,
    bc_first: EndBc,
    bc_last: EndBc,
) {
    if r == 0.0 {
        return;
    }
    let outer: usize = shape[..axis].iter().product();
    let n = shape[axis];
    let inner: usize = shape[axis + 1..].iter().product();
    if n == 1 {
        return;
    }
    let _span = peb_obs::span("litho.adi_axis");
    peb_obs::count(peb_obs::Counter::AdiLines, (outer * inner) as u64);
    peb_obs::optrace::note("adi.sweep", || {
        format!("axis={axis} n={n} lines={} r={r}", outer * inner)
    });
    // Coefficient arrays are identical for every line of this axis;
    // checked out of the thread-local pool (the solver rebuilds them for
    // every axis of every step).
    let mut lower = peb_pool::PoolBuf::<f32>::cleared(n);
    lower.resize(n, -r);
    let mut diag = peb_pool::PoolBuf::<f32>::cleared(n);
    diag.resize(n, 1.0 + 2.0 * r);
    // Reflective end rows lose one neighbour.
    diag[0] = 1.0 + r;
    diag[n - 1] = 1.0 + r;
    let mut rhs_bump_first = 0.0f32;
    if let EndBc::Robin { h, sat } = bc_first {
        // h here is the pre-scaled h·dt/dz.
        diag[0] += h;
        rhs_bump_first = h * sat;
    }
    let mut rhs_bump_last = 0.0f32;
    if let EndBc::Robin { h, sat } = bc_last {
        diag[n - 1] += h;
        rhs_bump_last = h * sat;
    }
    // Shared factorization: upper is constant −r, so build it inline.
    let mut upper = peb_pool::PoolBuf::<f32>::cleared(n);
    upper.resize(n, -r);
    let mut beta = peb_pool::PoolBuf::<f32>::cleared(n);
    let mut gamma = peb_pool::PoolBuf::<f32>::cleared(n);
    peb_simd::thomas::factor_tridiagonal(&lower, &diag, &upper, &mut beta, &mut gamma);
    let lines = outer * inner;
    let slots = peb_par::UnsafeSlice::new(data);
    let (lower, beta, gamma) = (&lower[..], &beta[..], &gamma[..]);
    let line_cost = 10 * n as u64;
    peb_par::parallel_chunks_cost(lines, lines.div_ceil(64), line_cost, |range| {
        let mut line = peb_pool::PoolBuf::<f32>::zeroed(n);
        let mut li = range.start;
        while li < range.end {
            let (o, i) = (li / inner, li % inner);
            if i + 8 <= inner && li + 8 <= range.end {
                // Eight lines adjacent in the innermost dimension: element
                // k of the group is the contiguous 8 floats at
                // `(o·n + k)·inner + i` — solve in place, no staging.
                // SAFETY: the group owns exactly those strided positions;
                // lines are disjoint across workers.
                unsafe {
                    peb_simd::thomas::solve_factored_lines8(
                        lower,
                        beta,
                        gamma,
                        &slots,
                        (o * n) * inner + i,
                        inner,
                        n,
                        rhs_bump_first,
                        rhs_bump_last,
                    );
                }
                li += 8;
                continue;
            }
            for (k, lk) in line.iter_mut().enumerate() {
                // SAFETY: line `li` owns exactly the strided positions
                // `(o·n + k)·inner + i`; lines are disjoint.
                *lk = unsafe { *slots.get_mut((o * n + k) * inner + i) };
            }
            line[0] += rhs_bump_first;
            line[n - 1] += rhs_bump_last;
            peb_simd::thomas::solve_factored(lower, beta, gamma, &mut line);
            for (k, lk) in line.iter().enumerate() {
                // SAFETY: as above.
                unsafe { *slots.get_mut((o * n + k) * inner + i) = *lk };
            }
            li += 1;
        }
    });
}

/// Reference explicit step (all axes at once), one vectorized
/// `peb_simd::stencil` slice update per z-plane. The SIMD kernel keeps
/// the exact scalar expression order (no FMA), so results are bitwise
/// identical to the pre-SIMD loop at every dispatch level.
///
/// When tiled the step streams cache-sized z-slabs instead of
/// freezing a full-volume copy: each slab's pre-step planes are copied
/// to a slab-sized scratch immediately before computing it (so the
/// frozen read hits cache), and the neighbour planes every slab needs
/// are saved up front. Identical values are read and written either way,
/// so tiled output is bitwise identical to the untiled path.
fn explicit_step(field: &mut Tensor, grid: &Grid, d_lat: f32, d_norm: f32, top_bc: EndBc, dt: f32) {
    let _span = peb_obs::span("litho.explicit_step");
    let (nz, ny, nx) = (grid.nz, grid.ny, grid.nx);
    peb_obs::optrace::note("stencil", || {
        format!("grid={nz}x{ny}x{nx} dt={dt} prec={:?}", peb_simd::prec())
    });
    let p = peb_simd::stencil::StencilParams {
        rx: d_lat * dt / (grid.dx * grid.dx),
        ry: d_lat * dt / (grid.dy * grid.dy),
        rz: d_norm * dt / (grid.dz * grid.dz),
        robin_top: match top_bc {
            // Left-assoc `h·dt/dz` matches the pre-SIMD inline expression.
            EndBc::Robin { h, sat } => Some((h * dt / grid.dz, sat)),
            EndBc::Neumann => None,
        },
    };
    let plane = ny * nx;
    if peb_simd::prec() == peb_simd::Prec::Bf16 {
        // bf16 branch: freeze the pre-step field as a *bf16* copy —
        // the kernel is bandwidth-bound, so halving the streamed read
        // width is the win. The half-size frozen copy already fits
        // where the f32 copy would have forced slab tiling, so the
        // tiled path is bypassed here (one narrowing, no halo
        // bookkeeping). The write side stays full f32.
        let mut src = peb_pool::PoolBuf::<u16>::cleared(field.data().len());
        src.extend(field.data().iter().map(|&v| peb_simd::bf16::f32_to_bf16(v)));
        peb_par::parallel_chunks_mut_cost(field.data_mut(), plane, 14, |offset, dst| {
            let z = offset / plane;
            peb_simd::stencil::explicit_slice_bf16(&src, dst, z, nz, ny, nx, p);
        });
        return;
    }
    if let Some(sd) = peb_pool::tile::slab_items(plane * std::mem::size_of::<f32>(), nz) {
        if sd < nz {
            explicit_step_tiled(field, nz, ny, nx, sd, p);
            return;
        }
    }
    let src = peb_pool::PoolBuf::copy_of(field.data());
    // Every cell reads the frozen `src` copy and writes only itself:
    // z-slices update in parallel with no ordering sensitivity.
    peb_par::parallel_chunks_mut_cost(field.data_mut(), plane, 14, |offset, dst| {
        let z = offset / plane;
        peb_simd::stencil::explicit_slice(&src, dst, z, nz, ny, nx, p);
    });
}

/// Slab-streamed explicit step. Each slab of `sd` z-planes is computed
/// from a private scratch copy `[halo_below?, slab planes, halo_above?]`
/// taken from the pre-step field: the slab's own planes are copied just
/// before use (only this worker writes them), and the cross-slab halo
/// planes are saved for every slab *before* any write. Passing the
/// scratch with a virtual depth places boundary handling (Robin top at
/// `z = 0`, bottom mirror at `z = nz−1`) only on the true surfaces.
fn explicit_step_tiled(
    field: &mut Tensor,
    nz: usize,
    ny: usize,
    nx: usize,
    sd: usize,
    p: peb_simd::stencil::StencilParams,
) {
    let plane = ny * nx;
    let nslabs = nz.div_ceil(sd);
    let mut halos = peb_pool::PoolBuf::<f32>::cleared(nslabs * 2 * plane);
    halos.resize(nslabs * 2 * plane, 0.0);
    {
        let data = field.data();
        for k in 0..nslabs {
            let z0 = k * sd;
            let z1 = (z0 + sd).min(nz);
            if z0 > 0 {
                halos[k * 2 * plane..k * 2 * plane + plane]
                    .copy_from_slice(&data[(z0 - 1) * plane..z0 * plane]);
            }
            if z1 < nz {
                halos[(k * 2 + 1) * plane..(k * 2 + 2) * plane]
                    .copy_from_slice(&data[z1 * plane..(z1 + 1) * plane]);
            }
        }
    }
    let slots = peb_par::UnsafeSlice::new(field.data_mut());
    let halos = &halos[..];
    let slab_cost = (sd * plane) as u64 * 14;
    peb_par::parallel_chunks_cost(nslabs, 1, slab_cost, |range| {
        let mut scratch = peb_pool::PoolBuf::<f32>::cleared((sd + 2) * plane);
        for k in range {
            let z0 = k * sd;
            let z1 = (z0 + sd).min(nz);
            let zl = z1 - z0;
            let has_below = z0 > 0;
            let has_above = z1 < nz;
            let vnz = zl + has_below as usize + has_above as usize;
            scratch.clear();
            if has_below {
                scratch.extend_from_slice(&halos[k * 2 * plane..k * 2 * plane + plane]);
            }
            // SAFETY: slabs are disjoint; only this worker touches planes
            // z0..z1, and it copies them before writing.
            let own = unsafe { slots.slice_mut(z0 * plane..z1 * plane) };
            scratch.extend_from_slice(own);
            if has_above {
                scratch.extend_from_slice(&halos[(k * 2 + 1) * plane..(k * 2 + 2) * plane]);
            }
            let zoff = has_below as usize;
            for lz in 0..zl {
                let dst = &mut own[lz * plane..(lz + 1) * plane];
                peb_simd::stencil::explicit_slice(&scratch, dst, zoff + lz, vnz, ny, nx, p);
            }
            peb_obs::count(peb_obs::Counter::SlabPasses, 1);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> Grid {
        Grid::new(16, 16, 6, 4.0, 4.0, 10.0).unwrap()
    }

    fn short_params() -> PebParams {
        PebParams {
            duration: 5.0,
            ..PebParams::paper()
        }
    }

    #[test]
    fn mass_behaviour_without_reactions_or_surface_loss() {
        // Pure diffusion with Neumann BCs everywhere conserves mass.
        let grid = tiny_grid();
        let mut p = short_params();
        p.kr = 0.0;
        p.kc = 0.0;
        p.h_a = 0.0;
        let solver = PebSolver::new(p, grid, TimeScheme::ImplicitLod).unwrap();
        let mut acid0 = Tensor::zeros(&grid.shape3());
        acid0.set(&[2, 8, 8], 1.0);
        let out = solver.run(&acid0).unwrap();
        assert!(
            (out.acid.sum() - 1.0).abs() < 1e-3,
            "mass {}",
            out.acid.sum()
        );
        // And it spreads: the peak is no longer 1.
        assert!(out.acid.max_value() < 0.9);
        assert!(out.acid.min_value() >= -1e-6);
    }

    #[test]
    fn neutralisation_consumes_acid_and_base_equally() {
        let grid = tiny_grid();
        let mut p = short_params();
        p.h_a = 0.0; // isolate the reaction
        let solver = PebSolver::new(p, grid, TimeScheme::ImplicitLod).unwrap();
        let acid0 = Tensor::full(&grid.shape3(), 0.8);
        let out = solver.run(&acid0).unwrap();
        // A − B is conserved pointwise by the neutralisation.
        let diff0 = 0.8 - p.base0;
        let diff = out.acid.zip_map(&out.base, |a, b| a - b).unwrap();
        assert!(diff.map(|d| (d - diff0).abs()).max_value() < 1e-3);
        assert!(out.acid.max_value() < 0.8);
        assert!(out.base.max_value() < p.base0);
    }

    #[test]
    fn inhibitor_decays_only_where_acid_is() {
        let grid = tiny_grid();
        let mut p = short_params();
        p.h_a = 0.0;
        let solver = PebSolver::new(p, grid, TimeScheme::ImplicitLod).unwrap();
        let mut acid0 = Tensor::zeros(&grid.shape3());
        // Acid only in one corner column.
        for z in 0..grid.nz {
            acid0.set(&[z, 2, 2], 0.9);
        }
        let out = solver.run(&acid0).unwrap();
        let near = out.inhibitor.get(&[2, 2, 2]);
        let far = out.inhibitor.get(&[2, 13, 13]);
        assert!(near < 0.9, "near {near}");
        assert!(far > 0.98, "far {far}");
        assert!(out.inhibitor.max_value() <= 1.0 + 1e-6);
        assert!(out.inhibitor.min_value() >= 0.0);
    }

    #[test]
    fn implicit_matches_explicit_at_small_dt() {
        let grid = Grid::new(8, 8, 4, 8.0, 8.0, 20.0).unwrap();
        let mut p = short_params();
        p.duration = 2.0;
        p.dt = 0.002;
        let mut acid0 = Tensor::zeros(&grid.shape3());
        acid0.set(&[1, 4, 4], 1.0);
        acid0.set(&[2, 2, 5], 0.7);
        let imp = PebSolver::new(p, grid, TimeScheme::ImplicitLod)
            .unwrap()
            .run(&acid0)
            .unwrap();
        let exp = PebSolver::new(p, grid, TimeScheme::ExplicitEuler)
            .unwrap()
            .run(&acid0)
            .unwrap();
        let d = imp.acid.max_abs_diff(&exp.acid);
        assert!(d < 5e-3, "acid mismatch {d}");
        let di = imp.inhibitor.max_abs_diff(&exp.inhibitor);
        assert!(di < 5e-3, "inhibitor mismatch {di}");
    }

    #[test]
    fn explicit_bf16_tracks_f32_run() {
        // The bf16 branch narrows the frozen pre-step field (one RNE
        // rounding per step on O(1) values); the diffusion operator is
        // dissipative, so the per-step noise stays bounded instead of
        // compounding. Gate the full short bake at 5% absolute.
        let grid = Grid::new(8, 8, 4, 8.0, 8.0, 20.0).unwrap();
        let mut p = short_params();
        p.duration = 1.0;
        p.dt = 0.002;
        let mut acid0 = Tensor::zeros(&grid.shape3());
        acid0.set(&[1, 4, 4], 1.0);
        acid0.set(&[2, 2, 5], 0.7);
        let run = || {
            PebSolver::new(p, grid, TimeScheme::ExplicitEuler)
                .unwrap()
                .run(&acid0)
                .unwrap()
        };
        let f32_run = peb_simd::with_prec(peb_simd::Prec::F32, run);
        let bf16_run = peb_simd::with_prec(peb_simd::Prec::Bf16, run);
        let d = f32_run.acid.max_abs_diff(&bf16_run.acid);
        assert!(d < 0.05, "acid mismatch {d}");
        let di = f32_run.inhibitor.max_abs_diff(&bf16_run.inhibitor);
        assert!(di < 0.05, "inhibitor mismatch {di}");
        // The plain (no-override) path is bitwise whichever forced run
        // matches the ambient precision — f32 by default, bf16 when the
        // suite runs under PEB_PREC=bf16.
        let plain = run();
        let expect = if peb_simd::prec() == peb_simd::Prec::Bf16 {
            &bf16_run
        } else {
            &f32_run
        };
        assert_eq!(plain.acid.bit_digest(), expect.acid.bit_digest());
    }

    #[test]
    fn explicit_rejects_unstable_dt() {
        let grid = Grid::new(16, 16, 8, 2.0, 2.0, 1.0).unwrap();
        let p = PebParams::paper(); // dt = 0.1 ≫ explicit limit on 1 nm z
        assert!(matches!(
            PebSolver::new(p, grid, TimeScheme::ExplicitEuler),
            Err(LithoError::Config { .. })
        ));
        assert!(PebSolver::new(p, grid, TimeScheme::ImplicitLod).is_ok());
    }

    #[test]
    fn robin_surface_drives_top_toward_saturation() {
        let grid = tiny_grid();
        let mut p = short_params();
        p.kr = 0.0;
        p.kc = 0.0;
        p.h_a = 5.0; // strong exchange to make the effect visible quickly
        p.duration = 20.0;
        let solver = PebSolver::new(p, grid, TimeScheme::ImplicitLod).unwrap();
        let acid0 = Tensor::zeros(&grid.shape3());
        let out = solver.run(&acid0).unwrap();
        let top = out.acid.slice_axis(0, 0, 1).unwrap().mean();
        let bottom = out.acid.slice_axis(0, grid.nz - 1, grid.nz).unwrap().mean();
        assert!(top > 0.5, "top {top} should rise toward a_sat");
        assert!(top > bottom, "gradient should point downward");
    }

    #[test]
    fn diffusivities_follow_length_formula() {
        let p = PebParams::paper();
        let (dl, dn) = p.diffusivity_a();
        assert!((dl - 10.0f32.powi(2) / 180.0).abs() < 1e-4);
        assert!((dn - 70.0f32.powi(2) / 180.0).abs() < 1e-3);
    }

    #[test]
    fn rk4_conserves_difference() {
        let (a, b) = rk4_neutralise(0.8, 0.4, 8.7, 0.05);
        assert!(((a - b) - 0.4).abs() < 1e-6);
        assert!(a < 0.8 && b < 0.4);
        assert!(a > 0.0 && b > 0.0);
    }

    #[test]
    fn tiled_solver_is_bitwise_identical_to_untiled() {
        // Force a tile target small enough that the tiny grid actually
        // slabs (one 16×16 plane = 1 KiB), then compare against the
        // untiled path bit for bit, for both integrators.
        let grid = tiny_grid();
        let mut p = short_params();
        let mut acid0 = Tensor::zeros(&grid.shape3());
        acid0.set(&[1, 3, 4], 0.9);
        acid0.set(&[4, 10, 2], 0.6);
        for scheme in [TimeScheme::ImplicitLod, TimeScheme::ExplicitEuler] {
            if scheme == TimeScheme::ExplicitEuler {
                // D = L²/(2·duration), so keep the duration long enough
                // for dt to sit inside the explicit stability limit.
                p.dt = 0.002;
                p.duration = 0.5;
            }
            let solver = PebSolver::new(p, grid, scheme).unwrap();
            let run = |tile_bytes| {
                let scoped = peb_par::ExecCtx {
                    tile_bytes,
                    ..peb_par::ctx::current()
                };
                peb_par::ctx::with(scoped, || solver.run(&acid0).unwrap())
            };
            let (untiled, tiled) = (run(None), run(Some(2 << 10)));
            for (field, u, t) in [
                ("acid", &untiled.acid, &tiled.acid),
                ("base", &untiled.base, &tiled.base),
                ("inhibitor", &untiled.inhibitor, &tiled.inhibitor),
            ] {
                for (a, b) in u.data().iter().zip(t.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{field} ({scheme:?})");
                }
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let grid = tiny_grid();
        let solver = PebSolver::new(short_params(), grid, TimeScheme::ImplicitLod).unwrap();
        assert!(solver.run(&Tensor::zeros(&[2, 2, 2])).is_err());
    }
}
