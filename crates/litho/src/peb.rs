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

/// The two diffusing species; the discriminant indexes per-species
/// arrays.
#[derive(Clone, Copy)]
enum Species {
    Acid = 0,
    Base = 1,
}

/// Boundary condition of the resist top surface (depth index 0); every
/// other face is reflective.
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
    /// Returns [`LithoError::Config`] naming the field when `dt` or
    /// `duration` is not a positive finite number or any other parameter
    /// is negative or non-finite, and for explicit integration when Δt
    /// violates the stability limit.
    pub fn new(params: PebParams, grid: Grid, scheme: TimeScheme) -> Result<Self> {
        let p = &params;
        for (field, value, positive) in [
            ("dt", p.dt, true),
            ("duration", p.duration, true),
            ("normal_diff_len_a", p.normal_diff_len_a, false),
            ("normal_diff_len_b", p.normal_diff_len_b, false),
            ("lateral_diff_len_a", p.lateral_diff_len_a, false),
            ("lateral_diff_len_b", p.lateral_diff_len_b, false),
            ("kc", p.kc, false),
            ("kr", p.kr, false),
            ("h_a", p.h_a, false),
            ("h_b", p.h_b, false),
            ("a_sat", p.a_sat, false),
            ("b_sat", p.b_sat, false),
            ("inhibitor0", p.inhibitor0, false),
            ("base0", p.base0, false),
        ] {
            let in_range = if positive { value > 0.0 } else { value >= 0.0 };
            if !(value.is_finite() && in_range) {
                let bound = if positive { "positive" } else { "non-negative" };
                return Err(LithoError::Config {
                    detail: format!("{field}={value} must be finite and {bound}"),
                });
            }
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
        match self.scheme {
            TimeScheme::ImplicitLod => self.run_implicit(&mut state, steps, dt),
            TimeScheme::ExplicitEuler => {
                for _ in 0..steps {
                    let _step_span = peb_obs::span("litho.peb_step");
                    self.reaction_half_step(&mut state, dt * 0.5);
                    for (field, species) in [
                        (&mut state.acid, Species::Acid),
                        (&mut state.base, Species::Base),
                    ] {
                        let (d_lat, d_norm) = self.diffusivity(species);
                        let top = self.top_bc(species);
                        explicit_step(field, &self.grid, d_lat, d_norm, top, dt);
                    }
                    self.reaction_half_step(&mut state, dt * 0.5);
                }
            }
        }
        Ok(state)
    }

    /// `(lateral, normal)` diffusivities of a species in nm²/s.
    fn diffusivity(&self, species: Species) -> (f32, f32) {
        match species {
            Species::Acid => self.params.diffusivity_a(),
            Species::Base => self.params.diffusivity_b(),
        }
    }

    /// The Eq. 4 surface condition of a species: always Robin for the
    /// acid; the base has `h = 0` ⇒ Neumann in the paper's parameters.
    fn top_bc(&self, species: Species) -> EndBc {
        let p = &self.params;
        match species {
            Species::Acid => EndBc::Robin {
                h: p.h_a,
                sat: p.a_sat,
            },
            Species::Base if p.h_b > 0.0 => EndBc::Robin {
                h: p.h_b,
                sat: p.b_sat,
            },
            Species::Base => EndBc::Neumann,
        }
    }

    /// Strang half-step for the local reactions over the whole volume
    /// (explicit scheme; the implicit scheme folds it into its phases).
    ///
    /// Every cell is independent (`peb_simd::reaction` is pointwise and
    /// split-invariant), so the element range fans out over the `peb-par`
    /// pool with bitwise-identical results at any thread count.
    fn reaction_half_step(&self, state: &mut PebState, dt: f32) {
        let _span = peb_obs::span("litho.reaction_half");
        let (kr, kc) = (self.params.kr, self.params.kc);
        let n = state.acid.len();
        let acid = peb_par::UnsafeSlice::new(state.acid.data_mut());
        let base = peb_par::UnsafeSlice::new(state.base.data_mut());
        let inhibitor = peb_par::UnsafeSlice::new(state.inhibitor.data_mut());
        peb_par::parallel_chunks_cost(n, n.div_ceil(64), REACTION_COST, |range| {
            // SAFETY: chunk ranges are disjoint.
            let (a, b, i) = unsafe {
                (
                    acid.slice_mut(range.clone()),
                    base.slice_mut(range.clone()),
                    inhibitor.slice_mut(range),
                )
            };
            peb_simd::reaction::half_step(a, b, i, kr, kc, dt);
        });
    }

    /// The whole implicit-LOD bake: per step `R½ · x,y,z(A) · x,y,z(B) ·
    /// R½` (Strang around Lie-split backward-Euler sweeps), executed as
    /// **two** fork-joins per step over a plan built once:
    ///
    /// * **phase P** fans out over z-planes and runs, while a plane is
    ///   cache-resident, `x_A, y_A, x_B, y_B` — acid and base diffusion
    ///   never read each other, so hoisting `x_B, y_B` ahead of `z_A`
    ///   changes no operand;
    /// * **phase C** fans out over blocks of y-rows and runs `z_A, z_B`,
    ///   then on the same cells the trailing reaction half-step and —
    ///   except after the last step — the next step's leading one (two
    ///   applications of `δt/2`, never one of `δt`). Step 0's leading
    ///   half-step rides at the front of its phase P.
    ///
    /// Every cell sees exactly the original operation sequence and every
    /// kernel is lane-exact, so the result is bitwise independent of the
    /// thread count, the dispatch level and the partition sizes.
    fn run_implicit(&self, state: &mut PebState, steps: usize, dt: f32) {
        let (nz, ny, nx) = (self.grid.nz, self.grid.ny, self.grid.nx);
        let plane = ny * nx;
        let plan = LodPlan::new(self, dt);
        let (kr, kc, half_dt) = (self.params.kr, self.params.kc, dt * 0.5);
        let acid = peb_par::UnsafeSlice::new(state.acid.data_mut());
        let base = peb_par::UnsafeSlice::new(state.base.data_mut());
        let inhibitor = peb_par::UnsafeSlice::new(state.inhibitor.data_mut());
        let plane_cost = plane as u64 * 4 * SWEEP_COST;
        let row_cost = (nz * nx) as u64 * 2 * (SWEEP_COST + REACTION_COST);
        for step in 0..steps {
            let _step_span = peb_obs::span("litho.peb_step");
            {
                let _phase = peb_obs::span("litho.adi_planes");
                peb_obs::count(peb_obs::Counter::AdiLines, plan.plane_lines);
                peb_obs::optrace::note("adi.planes", || {
                    format!(
                        "x,y of A,B nz={nz} ny={ny} nx={nx} lines={}",
                        plan.plane_lines
                    )
                });
                peb_par::parallel_chunks_cost(nz, plan.planes_per_chunk, plane_cost, |zs| {
                    let mut scratch = peb_pool::PoolBuf::<f32>::zeroed((8 * nx).max(ny));
                    for z in zs {
                        let cells = z * plane..(z + 1) * plane;
                        // SAFETY: plane `z` belongs to this chunk alone.
                        let (a, b) = unsafe {
                            (acid.slice_mut(cells.clone()), base.slice_mut(cells.clone()))
                        };
                        if step == 0 {
                            // SAFETY: as above.
                            let i = unsafe { inhibitor.slice_mut(cells) };
                            peb_simd::reaction::half_step(a, b, i, kr, kc, half_dt);
                        }
                        plan.sweep_plane(Species::Acid, a, nx, &mut scratch);
                        plan.sweep_plane(Species::Base, b, nx, &mut scratch);
                    }
                });
            }
            let _phase = peb_obs::span("litho.adi_columns");
            peb_obs::count(peb_obs::Counter::AdiLines, plan.column_lines);
            peb_obs::optrace::note("adi.columns", || {
                format!(
                    "z of A,B + reaction nz={nz} ny={ny} nx={nx} lines={}",
                    plan.column_lines
                )
            });
            let half_steps = if step + 1 < steps { 2 } else { 1 };
            peb_par::parallel_chunks_cost(ny, plan.rows_per_block, row_cost, |ys| {
                let mut line = peb_pool::PoolBuf::<f32>::zeroed(nz);
                let (first, count) = (ys.start * nx, ys.len() * nx);
                for (field, species) in [(&acid, Species::Acid), (&base, Species::Base)] {
                    if let Some(sys) = &plan.z[species as usize] {
                        // SAFETY: the z-lines through rows `ys` belong to
                        // this chunk alone.
                        unsafe { sys.sweep_strided(field, first, count, plane, &mut line) };
                    }
                }
                for z in 0..nz {
                    let cells = z * plane + first..z * plane + first + count;
                    // SAFETY: rows `ys` of every plane belong to this
                    // chunk alone.
                    let (a, b, i) = unsafe {
                        (
                            acid.slice_mut(cells.clone()),
                            base.slice_mut(cells.clone()),
                            inhibitor.slice_mut(cells),
                        )
                    };
                    for _ in 0..half_steps {
                        peb_simd::reaction::half_step(a, b, i, kr, kc, half_dt);
                    }
                }
            });
        }
    }
}

/// Cost hints (estimated scalar ops per cell) for the `peb-par` inline
/// cutoff: one implicit line sweep (≈1 ns per cell through the vector
/// kernels) and one reaction half-step (≈2 ns).
const SWEEP_COST: u64 = 3;
const REACTION_COST: u64 = 6;

/// Items (z-planes or y-rows of `cells_per_item` cells each) per phase
/// chunk: about [`CHUNK_CELLS`] cells, but at least eight chunks when
/// there are that many items. Depends on the grid alone, never on the
/// thread count.
fn chunk_items(total: usize, cells_per_item: usize) -> usize {
    (CHUNK_CELLS / cells_per_item.max(1)).clamp(1, total.div_ceil(8).max(1))
}

/// Cells of one field a phase chunk aims to cover: with two or three
/// fields in flight the chunk's working set stays L2-resident.
const CHUNK_CELLS: usize = 32 << 10;

/// One `(species, axis)` backward-Euler system
/// `(I − r·L_axis) u_new = u_old`, `r = D·dt/h²`, with `L_axis` the 1-D
/// Laplacian — reflective at both ends, optionally Robin at the first.
/// Every line of the axis shares the matrix, so it is factored once per
/// bake (`peb_simd::thomas`) and each line replays only the per-line
/// operations, bitwise identical to the in-line `solve_tridiagonal`
/// elimination.
struct AxisSystem {
    lower: Vec<f32>,
    beta: Vec<f32>,
    gamma: Vec<f32>,
    /// Robin source term added to each line's first right-hand-side
    /// element (`0` when reflective).
    bump_first: f32,
}

/// The far end of every axis is reflective: no source term. The kernels
/// add it unconditionally, so the scalar leftovers do too.
const BUMP_LAST: f32 = 0.0;

impl AxisSystem {
    /// Factors the system for lines of `n` cells; `None` when the sweep
    /// is the identity (`r = 0` or a single cell).
    fn new(n: usize, r: f32, bc_first: EndBc) -> Option<Self> {
        if r == 0.0 || n == 1 {
            return None;
        }
        let lower = vec![-r; n];
        let mut diag = vec![1.0 + 2.0 * r; n];
        // Reflective end rows lose one neighbour.
        diag[0] = 1.0 + r;
        diag[n - 1] = 1.0 + r;
        let mut bump_first = 0.0f32;
        if let EndBc::Robin { h, sat } = bc_first {
            // h here is the pre-scaled h·dt/dz.
            diag[0] += h;
            bump_first = h * sat;
        }
        let (mut beta, mut gamma) = (Vec::new(), Vec::new());
        // The super-diagonal equals the sub-diagonal: constant −r.
        peb_simd::thomas::factor_tridiagonal(&lower, &diag, &lower, &mut beta, &mut gamma);
        Some(AxisSystem {
            lower,
            beta,
            gamma,
            bump_first,
        })
    }

    /// Solves one gathered line in place.
    fn solve_line(&self, line: &mut [f32]) {
        line[0] += self.bump_first;
        line[line.len() - 1] += BUMP_LAST;
        peb_simd::thomas::solve_factored(&self.lower, &self.beta, &self.gamma, line);
    }

    /// Solves the contiguous lines (rows) of `field`: groups of eight
    /// adjacent rows through the transposing vector kernel, leftover rows
    /// in place with the scalar solve. `scratch` holds `≥ 8·n` floats.
    fn sweep_rows(&self, field: &mut [f32], scratch: &mut [f32]) {
        let n = self.beta.len();
        let mut groups = field.chunks_exact_mut(8 * n);
        for rows in &mut groups {
            peb_simd::thomas::solve_factored_rows8(
                &self.lower,
                &self.beta,
                &self.gamma,
                rows,
                scratch,
                self.bump_first,
                BUMP_LAST,
            );
        }
        for row in groups.into_remainder().chunks_exact_mut(n) {
            self.solve_line(row);
        }
    }

    /// Solves `count` strided lines: element `k` of line `l` lives at
    /// `slots[first + l + k·stride]`. Groups of eight memory-adjacent
    /// lines solve in place through the interleaved vector kernel (no
    /// gather/scatter), leftover lines gather into `line` (`≥ n` floats).
    ///
    /// # Safety
    ///
    /// The caller must own every such position exclusively.
    unsafe fn sweep_strided(
        &self,
        slots: &peb_par::UnsafeSlice<f32>,
        first: usize,
        count: usize,
        stride: usize,
        line: &mut [f32],
    ) {
        let n = self.beta.len();
        let line = &mut line[..n];
        let mut l = 0;
        while l + 8 <= count {
            // SAFETY: forwarded caller contract.
            unsafe {
                peb_simd::thomas::solve_factored_lines8(
                    &self.lower,
                    &self.beta,
                    &self.gamma,
                    slots,
                    first + l,
                    stride,
                    n,
                    self.bump_first,
                    BUMP_LAST,
                );
            }
            l += 8;
        }
        for l in l..count {
            for (k, lk) in line.iter_mut().enumerate() {
                // SAFETY: forwarded caller contract.
                *lk = unsafe { *slots.get_mut(first + l + k * stride) };
            }
            self.solve_line(line);
            for (k, lk) in line.iter().enumerate() {
                // SAFETY: as above.
                unsafe { *slots.get_mut(first + l + k * stride) = *lk };
            }
        }
    }
}

/// Everything the implicit scheme derives from `(params, grid, dt)`,
/// built once per bake: the six `(species, axis)` systems (indexed by
/// `Species as usize`), the two phase partitions, and the per-phase line
/// counts reported to `Counter::AdiLines`.
struct LodPlan {
    x: [Option<AxisSystem>; 2],
    y: [Option<AxisSystem>; 2],
    z: [Option<AxisSystem>; 2],
    /// z-planes per phase-P chunk and y-rows per phase-C chunk;
    /// functions of the grid alone.
    planes_per_chunk: usize,
    rows_per_block: usize,
    plane_lines: u64,
    column_lines: u64,
}

impl LodPlan {
    fn new(solver: &PebSolver, dt: f32) -> Self {
        let g = &solver.grid;
        let (nz, ny, nx) = (g.nz, g.ny, g.nx);
        let species = [Species::Acid, Species::Base];
        let x = species.map(|s| {
            let (d_lat, _) = solver.diffusivity(s);
            AxisSystem::new(nx, d_lat * dt / (g.dx * g.dx), EndBc::Neumann)
        });
        let y = species.map(|s| {
            let (d_lat, _) = solver.diffusivity(s);
            AxisSystem::new(ny, d_lat * dt / (g.dy * g.dy), EndBc::Neumann)
        });
        let z = species.map(|s| {
            let (_, d_norm) = solver.diffusivity(s);
            // Pre-scale the Robin coefficient to the solver's
            // dimensionless `h·dt/dz`.
            let top = match solver.top_bc(s) {
                EndBc::Neumann => EndBc::Neumann,
                EndBc::Robin { h, sat } => EndBc::Robin {
                    h: h * dt / g.dz,
                    sat,
                },
            };
            AxisSystem::new(nz, d_norm * dt / (g.dz * g.dz), top)
        });
        let lines = |sys: &[Option<AxisSystem>; 2], per_sweep: usize| {
            (sys.iter().flatten().count() * per_sweep) as u64
        };
        LodPlan {
            plane_lines: lines(&x, nz * ny) + lines(&y, nz * nx),
            column_lines: lines(&z, ny * nx),
            planes_per_chunk: chunk_items(nz, ny * nx),
            rows_per_block: chunk_items(ny, nz * nx),
            x,
            y,
            z,
        }
    }

    /// `x` then `y` sweep of one species over one z-plane. `scratch`
    /// holds `≥ max(8·nx, ny)` floats.
    fn sweep_plane(&self, species: Species, field: &mut [f32], nx: usize, scratch: &mut [f32]) {
        if let Some(sys) = &self.x[species as usize] {
            sys.sweep_rows(field, scratch);
        }
        if let Some(sys) = &self.y[species as usize] {
            let slots = peb_par::UnsafeSlice::new(field);
            // SAFETY: `field` is borrowed mutably, so every position of
            // its `nx` columns is ours.
            unsafe { sys.sweep_strided(&slots, 0, nx, nx, scratch) };
        }
    }
}

/// Reference explicit step (all axes at once), one vectorized
/// `peb_simd::stencil` slice update per z-plane. The SIMD kernel keeps
/// the exact scalar expression order (no FMA), so results are bitwise
/// identical to the pre-SIMD loop at every dispatch level.
fn explicit_step(field: &mut Tensor, grid: &Grid, d_lat: f32, d_norm: f32, top_bc: EndBc, dt: f32) {
    let _span = peb_obs::span("litho.explicit_step");
    let (nz, ny, nx) = (grid.nz, grid.ny, grid.nx);
    peb_obs::optrace::note("stencil", || format!("grid={nz}x{ny}x{nx} dt={dt}"));
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
    let src = peb_pool::PoolBuf::copy_of(field.data());
    // Every cell reads the frozen `src` copy and writes only itself:
    // z-slices update in parallel with no ordering sensitivity.
    peb_par::parallel_chunks_mut_cost(field.data_mut(), plane, 14, |offset, dst| {
        let z = offset / plane;
        peb_simd::stencil::explicit_slice(&src, dst, z, nz, ny, nx, p);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_par::ctx::{self, ExecCtx, Level};

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
    fn non_physical_parameters_are_rejected_by_name() {
        let grid = tiny_grid();
        type Set = fn(&mut PebParams, f32);
        let fields: [(&str, Set, bool); 14] = [
            ("dt", |p, v| p.dt = v, false),
            ("duration", |p, v| p.duration = v, false),
            ("normal_diff_len_a", |p, v| p.normal_diff_len_a = v, true),
            ("normal_diff_len_b", |p, v| p.normal_diff_len_b = v, true),
            ("lateral_diff_len_a", |p, v| p.lateral_diff_len_a = v, true),
            ("lateral_diff_len_b", |p, v| p.lateral_diff_len_b = v, true),
            ("kc", |p, v| p.kc = v, true),
            ("kr", |p, v| p.kr = v, true),
            ("h_a", |p, v| p.h_a = v, true),
            ("h_b", |p, v| p.h_b = v, true),
            ("a_sat", |p, v| p.a_sat = v, true),
            ("b_sat", |p, v| p.b_sat = v, true),
            ("inhibitor0", |p, v| p.inhibitor0 = v, true),
            ("base0", |p, v| p.base0 = v, true),
        ];
        for (field, set, zero_ok) in fields {
            for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1.0, -0.0, 0.0] {
                let mut p = short_params();
                set(&mut p, value);
                let got = PebSolver::new(p, grid, TimeScheme::ImplicitLod);
                if value == 0.0 && zero_ok {
                    assert!(got.is_ok(), "{field}={value} is physical");
                    continue;
                }
                match got {
                    Err(LithoError::Config { detail }) => assert!(
                        detail.starts_with(&format!("{field}=")),
                        "{field}={value}: {detail}"
                    ),
                    other => panic!("{field}={value} accepted: {other:?}"),
                }
            }
        }
    }

    /// The bake as the equations read: whole-volume `R½ → x,y,z(A) →
    /// x,y,z(B) → R½` per step, every line gathered and eliminated with
    /// the classic in-line Thomas solve.
    fn line_by_line_bake(solver: &PebSolver, acid0: &Tensor) -> PebState {
        let (p, g) = (solver.params, solver.grid);
        let shape = [g.nz, g.ny, g.nx];
        let steps = (p.duration / p.dt).round().max(1.0) as usize;
        let dt = p.duration / steps as f32;
        let mut state = PebState {
            acid: acid0.clone(),
            base: Tensor::full(&shape, p.base0),
            inhibitor: Tensor::full(&shape, p.inhibitor0),
        };
        let scalar = ExecCtx {
            level: Level::Scalar,
            ..ctx::current()
        };
        let react = |s: &mut PebState| {
            ctx::with(scalar, || {
                peb_simd::reaction::half_step(
                    s.acid.data_mut(),
                    s.base.data_mut(),
                    s.inhibitor.data_mut(),
                    p.kr,
                    p.kc,
                    dt * 0.5,
                )
            })
        };
        let sweep = |data: &mut [f32], axis: usize, r: f32, robin: Option<(f32, f32)>| {
            let n = shape[axis];
            let inner: usize = shape[axis + 1..].iter().product();
            let outer: usize = shape[..axis].iter().product();
            let (a, c) = (vec![-r; n], vec![-r; n]);
            let mut b = vec![1.0 + 2.0 * r; n];
            b[0] = 1.0 + r;
            b[n - 1] = 1.0 + r;
            let mut bump = 0.0;
            if let Some((h, sat)) = robin {
                b[0] += h;
                bump = h * sat;
            }
            let (mut line, mut scratch) = (vec![0f32; n], vec![0f32; n]);
            for o in 0..outer {
                for i in 0..inner {
                    for k in 0..n {
                        line[k] = data[(o * n + k) * inner + i];
                    }
                    line[0] += bump;
                    crate::tridiag::solve_tridiagonal(&a, &b, &c, &mut line, &mut scratch);
                    for k in 0..n {
                        data[(o * n + k) * inner + i] = line[k];
                    }
                }
            }
        };
        for _ in 0..steps {
            react(&mut state);
            for (field, (d_lat, d_norm), robin) in [
                (&mut state.acid, p.diffusivity_a(), Some((p.h_a, p.a_sat))),
                (&mut state.base, p.diffusivity_b(), None),
            ] {
                let data = field.data_mut();
                sweep(data, 2, d_lat * dt / (g.dx * g.dx), None);
                sweep(data, 1, d_lat * dt / (g.dy * g.dy), None);
                let robin = robin.map(|(h, sat)| (h * dt / g.dz, sat));
                sweep(data, 0, d_norm * dt / (g.dz * g.dz), robin);
            }
            react(&mut state);
        }
        state
    }

    #[test]
    fn phased_bake_is_bitwise_the_line_by_line_bake_on_a_ragged_grid() {
        // No dimension is a multiple of 8: every vector kernel meets its
        // ragged rows, columns and tails. (`Grid::new` insists on FFT
        // sizes, which the bake does not need.)
        let grid = Grid {
            nx: 13,
            ny: 10,
            nz: 5,
            dx: 4.0,
            dy: 5.0,
            dz: 10.0,
        };
        let solver = PebSolver::new(short_params(), grid, TimeScheme::ImplicitLod).unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(77);
        let acid0 = Tensor::rand_uniform(&grid.shape3(), 0.0, 0.9, &mut rng);
        let want = line_by_line_bake(&solver, &acid0);
        for threads in [1, 3, 4] {
            let got = peb_par::with_thread_count(threads, || solver.run(&acid0).unwrap());
            for (field, w, g) in [
                ("acid", &want.acid, &got.acid),
                ("base", &want.base, &got.base),
                ("inhibitor", &want.inhibitor, &got.inhibitor),
            ] {
                assert_eq!(
                    w.bit_digest(),
                    g.bit_digest(),
                    "{field} at {threads} threads"
                );
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
