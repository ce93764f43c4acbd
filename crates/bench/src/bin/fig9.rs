//! Regenerates **Fig. 9**: vertical (x–z) profiles of a centre contact
//! and a corner contact — ground truth, prediction and difference —
//! demonstrating consistent simulation along the depth direction.

use std::path::PathBuf;

use peb_bench::viz::{ascii_heatmap, vertical_section, write_pgm};
use peb_bench::{prepare_dataset, prepare_flow, train_models, ModelKind};
use peb_data::ExperimentScale;
use peb_guard::{Context, PebError};

fn main() -> Result<(), PebError> {
    let (scale, epochs) =
        ExperimentScale::from_env().unwrap_or_else(|e| peb_par::ctx::exit_invalid(&e));
    eprintln!("[fig9] scale = {}", scale.name());
    let dataset = prepare_dataset(scale)?;
    let flow = prepare_flow(scale);
    let trained = train_models(&[ModelKind::SdmPeb], &dataset, epochs)?;
    let model = &trained[0].model;

    let sample = &dataset.test[0];
    let stats = peb_data::LabelStats::from_dataset(&dataset);
    let pred = peb_bench::predict_inhibitor(model.as_ref(), sample, flow.peb.kc, &stats);
    let truth = &sample.inhibitor;

    // Centre contact: closest to the clip centre; corner contact: the
    // closest to (0, 0) — the red/blue boxes of Fig. 8.
    let (h, w) = (dataset.grid.ny as f32, dataset.grid.nx as f32);
    let centre = sample
        .clip
        .contacts
        .iter()
        .min_by(|a, b| {
            let da = (a.cy - h / 2.0).powi(2) + (a.cx - w / 2.0).powi(2);
            let db = (b.cy - h / 2.0).powi(2) + (b.cx - w / 2.0).powi(2);
            da.total_cmp(&db)
        })
        .expect("contacts");
    let corner = sample
        .clip
        .contacts
        .iter()
        .min_by(|a, b| (a.cy.powi(2) + a.cx.powi(2)).total_cmp(&(b.cy.powi(2) + b.cx.powi(2))))
        .expect("contacts");

    let out = PathBuf::from("target/figures");
    std::fs::create_dir_all(&out).ctx("creating figures dir")?;

    for (name, contact) in [("centre", centre), ("corner", corner)] {
        let y = contact.cy.round() as usize;
        let gt = vertical_section(truth, y);
        let pr = vertical_section(&pred, y);
        let diff = &pr - &gt;
        println!("\n== Fig. 9 {name} contact (row y = {y}) ==");
        println!("(a) ground truth:");
        print!("{}", ascii_heatmap(&gt));
        println!("(b) prediction:");
        print!("{}", ascii_heatmap(&pr));
        let max_abs = diff.abs_t().max_value();
        println!("(c) difference: max |diff| = {max_abs:.3}");
        write_pgm(&gt, 0.0, 1.0, &out.join(format!("fig9_{name}_truth.pgm"))).ctx("writing pgm")?;
        write_pgm(&pr, 0.0, 1.0, &out.join(format!("fig9_{name}_pred.pgm"))).ctx("writing pgm")?;
        write_pgm(&diff, -0.1, 0.1, &out.join(format!("fig9_{name}_diff.pgm")))
            .ctx("writing pgm")?;
    }

    // Depthwise-consistency shape check: per-layer NRMSE should not blow
    // up with depth (the SDM unit's selling point).
    let nz = dataset.grid.nz;
    println!("\nper-layer inhibitor RMSE (depth consistency):");
    for k in 0..nz {
        let gt = truth.slice_axis(0, k, k + 1).expect("slice");
        let pr = pred.slice_axis(0, k, k + 1).expect("slice");
        println!("  layer {k:>2}: {:.4}", sdm_peb::rmse(&pr, &gt));
    }
    println!("[fig9] wrote target/figures/fig9_*.pgm");

    peb_bench::emit_profile("fig9");
    Ok(())
}
