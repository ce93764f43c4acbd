//! Regenerates **Fig. 4**: vertical (x–z) visualisation of the photoacid
//! distribution at the initial stage and the inhibitor at the final
//! stage, showing the continuous, causal depthwise variation that
//! motivates the SDM unit.
//!
//! Outputs ASCII heatmaps to stdout plus PGM images and a CSV of the
//! depth profiles under `target/figures/`.

use std::path::PathBuf;

use peb_bench::viz::{ascii_heatmap, vertical_section, write_csv, write_pgm};
use peb_data::ExperimentScale;
use peb_litho::{LithoFlow, MaskConfig};

fn main() {
    let (scale, _) = ExperimentScale::from_env().unwrap_or_else(|e| peb_par::ctx::exit_invalid(&e));
    let grid = scale.grid();
    let clip = MaskConfig::demo(grid.nx).generate(4242).expect("mask");
    let flow = LithoFlow::new(grid);
    eprintln!("[fig4] rigorous solve on one clip…");
    let sim = flow.run(&clip).expect("simulation");

    // Cut through the row of the first contact.
    let y = clip.contacts[0].cy.round() as usize;
    let acid_xz = vertical_section(&sim.acid0, y);
    let inhibitor_xz = vertical_section(&sim.inhibitor, y);

    println!("== Fig. 4(a): photoacid at the initial stage (x–z section, top row = surface) ==");
    print!("{}", ascii_heatmap(&acid_xz));
    println!("\n== Fig. 4(b): inhibitor at the final stage (x–z section) ==");
    print!("{}", ascii_heatmap(&inhibitor_xz));

    let out = PathBuf::from("target/figures");
    std::fs::create_dir_all(&out).expect("figures dir");
    write_pgm(&acid_xz, 0.0, 1.0, &out.join("fig4_acid_xz.pgm")).expect("pgm");
    write_pgm(&inhibitor_xz, 0.0, 1.0, &out.join("fig4_inhibitor_xz.pgm")).expect("pgm");

    // Depth profiles through the contact centre: the smooth gradual
    // change the paper highlights.
    let x = clip.contacts[0].cx.round() as usize;
    let depth: Vec<f32> = (0..grid.nz).map(|k| grid.depth_of(k)).collect();
    let acid_profile: Vec<f32> = (0..grid.nz).map(|k| sim.acid0.get(&[k, y, x])).collect();
    let inhibitor_profile: Vec<f32> = (0..grid.nz)
        .map(|k| sim.inhibitor.get(&[k, y, x]))
        .collect();
    write_csv(
        &[
            ("depth_nm", depth),
            ("acid_initial", acid_profile.clone()),
            ("inhibitor_final", inhibitor_profile.clone()),
        ],
        &out.join("fig4_depth_profiles.csv"),
    )
    .expect("csv");

    // The depthwise continuity claim, quantified: successive layers
    // differ by bounded steps everywhere in the volume.
    let mut max_step = 0f32;
    for k in 1..grid.nz {
        let upper = sim.inhibitor.slice_axis(0, k, k + 1).expect("slice");
        let lower = sim.inhibitor.slice_axis(0, k - 1, k).expect("slice");
        max_step = max_step.max(upper.max_abs_diff(&lower));
    }
    println!(
        "\n[fig4] max layer-to-layer inhibitor step anywhere in the volume: {max_step:.3} \
         (continuous depthwise variation; acid/inhibitor profiles at the contact \
         centre are in the CSV)"
    );
    let _ = (acid_profile, inhibitor_profile);
    println!("[fig4] wrote target/figures/fig4_*.pgm and fig4_depth_profiles.csv");

    peb_bench::emit_profile("fig4");
}
