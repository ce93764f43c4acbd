//! The bake's observer contract, pinned on the benchmark grid.
//!
//! Alone in its test binary: `peb-obs` counters and spans are
//! process-global, so no other test may run a bake beside this one.

use peb_litho::{Grid, PebParams, PebSolver, TimeScheme};
use peb_obs::TraceMode;
use peb_tensor::Tensor;

#[test]
fn full_bake_reports_its_lines_and_its_two_phases_per_step() {
    // The `rigorous_cd` benchmark grid and the paper's 900-step bake.
    let grid = Grid::new(64, 64, 16, 4.0, 4.0, 6.25).unwrap();
    let solver = PebSolver::new(PebParams::paper(), grid, TimeScheme::ImplicitLod).unwrap();
    let acid0 = Tensor::full(&grid.shape3(), 0.3);
    let steps = 900;

    peb_obs::set_mode(TraceMode::Summary);
    peb_obs::reset();
    solver.run(&acid0).unwrap();
    let profile = peb_obs::snapshot();
    peb_obs::set_mode(TraceMode::Off);

    // One solve per line per axis per species per step, exactly as the
    // sweep-at-a-time solver counted them.
    let (nz, ny, nx) = (grid.nz as u64, grid.ny as u64, grid.nx as u64);
    assert_eq!(2 * steps * (nz * ny + nz * nx + ny * nx), 11_059_200);
    assert_eq!(profile.counter("adi_tridiag_solves"), 11_059_200);

    // Two fork-joins per step, each its own child span of the step.
    let count = |path: &str| {
        profile
            .spans
            .iter()
            .find(|s| s.path == path)
            .map_or(0, |s| s.stat.count)
    };
    assert_eq!(count("litho.peb_run/litho.peb_step"), steps);
    assert_eq!(
        count("litho.peb_run/litho.peb_step/litho.adi_planes"),
        steps
    );
    assert_eq!(
        count("litho.peb_run/litho.peb_step/litho.adi_columns"),
        steps
    );
    assert_eq!(profile.span_count("adi"), 2 * steps);
}
