//! Property-based tests for the physics substrate.

use proptest::prelude::*;

use peb_litho::{
    solve_eikonal, ClipStyle, EikonalConfig, Grid, LithoFlow, MackParams, MaskConfig, PebParams,
    PebSolver, TimeScheme,
};
use peb_tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn concentrations_stay_physical(seed in 0u64..200, base0 in 0.1f32..0.6) {
        let grid = Grid::new(16, 16, 4, 8.0, 8.0, 20.0).unwrap();
        let mut params = PebParams::paper();
        params.duration = 4.0;
        params.base0 = base0;
        let solver = PebSolver::new(params, grid, TimeScheme::ImplicitLod).unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let acid0 = Tensor::rand_uniform(&grid.shape3(), 0.0, 0.9, &mut rng);
        let out = solver.run(&acid0).unwrap();
        for field in [&out.acid, &out.base, &out.inhibitor] {
            prop_assert!(field.min_value() >= -1e-5);
            prop_assert!(field.max_value() <= 1.0 + 1e-5);
        }
        // Reactions only consume: totals cannot grow (surface influx is
        // bounded by a_sat and the acid starts below it only sometimes, so
        // only check base and inhibitor which have no source).
        prop_assert!(out.base.sum() <= base0 * grid.voxels() as f32 + 1e-3);
        prop_assert!(out.inhibitor.sum() <= grid.voxels() as f32 + 1e-3);
    }

    #[test]
    fn more_acid_never_increases_inhibitor(seed in 0u64..200) {
        // Monotonicity: scaling the initial acid up can only deprotect more.
        let grid = Grid::new(8, 8, 3, 8.0, 8.0, 20.0).unwrap();
        let mut params = PebParams::paper();
        params.duration = 3.0;
        let solver = PebSolver::new(params, grid, TimeScheme::ImplicitLod).unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let acid_low = Tensor::rand_uniform(&grid.shape3(), 0.0, 0.45, &mut rng);
        let acid_high = acid_low.mul_scalar(1.8);
        let low = solver.run(&acid_low).unwrap();
        let high = solver.run(&acid_high).unwrap();
        let violations = low
            .inhibitor
            .data()
            .iter()
            .zip(high.inhibitor.data())
            .filter(|(l, h)| **h > **l + 1e-3)
            .count();
        prop_assert_eq!(violations, 0);
    }

    #[test]
    fn eikonal_arrival_scales_inversely_with_rate(scale in 1.5f32..4.0) {
        let grid = Grid::new(8, 8, 4, 4.0, 4.0, 10.0).unwrap();
        let rate1 = Tensor::full(&grid.shape3(), 2.0);
        let rate2 = rate1.mul_scalar(scale);
        let s1 = solve_eikonal(&grid, &rate1, EikonalConfig::default()).unwrap();
        let s2 = solve_eikonal(&grid, &rate2, EikonalConfig::default()).unwrap();
        let ratio = s1.get(&[3, 4, 4]) / s2.get(&[3, 4, 4]);
        prop_assert!((ratio - scale).abs() / scale < 0.02, "ratio {} vs {}", ratio, scale);
    }

    #[test]
    fn mack_rate_monotone(m1 in 0.0f32..1.0, m2 in 0.0f32..1.0) {
        let p = MackParams::paper();
        let (lo, hi) = if m1 < m2 { (m1, m2) } else { (m2, m1) };
        prop_assert!(p.rate(lo) >= p.rate(hi));
    }

    #[test]
    fn mask_generation_never_panics_and_stays_in_bounds(
        seed in 0u64..500,
        style_idx in 0usize..3,
    ) {
        let style = [ClipStyle::RegularArray, ClipStyle::Staggered, ClipStyle::Random][style_idx];
        let mut cfg = MaskConfig::demo(64);
        cfg.style = style;
        // With fill probability < 1 some seeds legitimately place zero
        // contacts, which the generator reports as a Layout error — that
        // is valid behaviour, not a panic.
        match cfg.generate(seed) {
            Ok(clip) => {
                prop_assert!(!clip.contacts.is_empty());
                for c in &clip.contacts {
                    prop_assert!(c.cx - c.w * 0.5 >= -0.5);
                    prop_assert!(c.cx + c.w * 0.5 <= 64.5);
                    prop_assert!(c.cy - c.h * 0.5 >= -0.5);
                    prop_assert!(c.cy + c.h * 0.5 <= 64.5);
                }
            }
            Err(peb_litho::LithoError::Layout { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }
}

#[test]
fn end_to_end_flow_smoke() {
    // One full run on the small grid touching every stage.
    let grid = Grid::small();
    let clip = MaskConfig::demo(grid.nx).generate(99).unwrap();
    let mut flow = LithoFlow::new(grid);
    flow.peb.duration = 30.0; // shorten for test runtime
    let sim = flow.run(&clip).unwrap();
    assert_eq!(sim.arrival.shape(), &grid.shape3());
    assert!(sim.cds.len() == clip.contacts.len());
}

/// A grid on which no dimension is a multiple of 8 and the phase
/// partitions are uneven (5 plane chunks, 7 row blocks), large enough
/// that both phases of every step really fan out over the pool.
/// (`Grid::new` insists on FFT sizes, which the bake does not need.)
fn ragged_grid() -> Grid {
    Grid {
        nx: 37,
        ny: 27,
        nz: 9,
        dx: 4.0,
        dy: 5.0,
        dz: 8.0,
    }
}

#[test]
fn ragged_bake_is_bitwise_identical_at_odd_thread_counts() {
    let grid = ragged_grid();
    let mut params = PebParams::paper();
    params.duration = 3.0;
    let solver = PebSolver::new(params, grid, TimeScheme::ImplicitLod).unwrap();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(41);
    let acid0 = Tensor::rand_uniform(&grid.shape3(), 0.0, 0.9, &mut rng);
    let one = peb_par::with_thread_count(1, || solver.run(&acid0).unwrap());
    for threads in [3, 4] {
        let many = peb_par::with_thread_count(threads, || solver.run(&acid0).unwrap());
        for (field, a, b) in [
            ("acid", &one.acid, &many.acid),
            ("base", &one.base, &many.base),
            ("inhibitor", &one.inhibitor, &many.inhibitor),
        ] {
            assert_eq!(
                a.bit_digest(),
                b.bit_digest(),
                "{field} at {threads} threads"
            );
        }
    }
}

#[test]
fn pure_diffusion_conserves_acid_mass() {
    // No reactions and no surface exchange: every face is zero-flux, so
    // the implicit sweeps only move acid around.
    let mut params = PebParams::paper();
    params.duration = 10.0;
    params.kr = 0.0;
    params.kc = 0.0;
    params.h_a = 0.0;
    params.h_b = 0.0;
    let grid = ragged_grid();
    let solver = PebSolver::new(params, grid, TimeScheme::ImplicitLod).unwrap();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
    let acid0 = Tensor::rand_uniform(&grid.shape3(), 0.0, 0.9, &mut rng);
    let out = solver.run(&acid0).unwrap();
    let mass = |t: &Tensor| t.data().iter().map(|&v| f64::from(v)).sum::<f64>();
    let (before, after) = (mass(&acid0), mass(&out.acid));
    assert!(
        ((after - before) / before).abs() < 1e-4,
        "acid mass {before} -> {after}"
    );
    // It did diffuse, and nothing else moved.
    assert!(out.acid.max_value() < acid0.max_value());
    assert_eq!(out.inhibitor.min_value(), params.inhibitor0);
    let uniform = Tensor::full(&grid.shape3(), params.base0);
    assert!(out.base.max_abs_diff(&uniform) < 1e-5);
}
