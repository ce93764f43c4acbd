//! Regenerates **Fig. 8**: top-down comparison of ground truth (a),
//! SDM-PEB prediction (b) and their difference (c) at the top and bottom
//! resist surfaces on a held-out clip. Writes six PGM images and prints
//! per-surface max-abs-difference (the paper reports errors within 0.1).

use std::path::PathBuf;

use peb_bench::viz::write_pgm;
use peb_bench::{prepare_dataset, prepare_flow, train_models, ModelKind};
use peb_data::ExperimentScale;
use peb_guard::{Context, PebError};
use peb_tensor::Tensor;

fn plane(volume: &Tensor, layer: usize) -> Tensor {
    let s = volume.shape().to_vec();
    volume
        .slice_axis(0, layer, layer + 1)
        .expect("layer slice")
        .reshape(&[s[1], s[2]])
        .expect("plane reshape")
}

fn main() -> Result<(), PebError> {
    let (scale, epochs) =
        ExperimentScale::from_env().unwrap_or_else(|e| peb_par::ctx::exit_invalid(&e));
    eprintln!("[fig8] scale = {}", scale.name());
    let dataset = prepare_dataset(scale)?;
    let flow = prepare_flow(scale);
    let trained = train_models(&[ModelKind::SdmPeb], &dataset, epochs)?;
    let model = &trained[0].model;

    let sample = &dataset.test[0];
    let stats = peb_data::LabelStats::from_dataset(&dataset);
    let pred = peb_bench::predict_inhibitor(model.as_ref(), sample, flow.peb.kc, &stats);
    let truth = &sample.inhibitor;
    let nz = dataset.grid.nz;

    let out = PathBuf::from("target/figures");
    std::fs::create_dir_all(&out).ctx("creating figures dir")?;

    println!("== Fig. 8: top-down ground truth / prediction / difference ==");
    for (surface, layer) in [("top", 0usize), ("bottom", nz - 1)] {
        let gt = plane(truth, layer);
        let pr = plane(&pred, layer);
        let diff = &pr - &gt;
        write_pgm(
            &gt,
            0.0,
            1.0,
            &out.join(format!("fig8_{surface}_truth.pgm")),
        )
        .ctx("writing pgm")?;
        write_pgm(&pr, 0.0, 1.0, &out.join(format!("fig8_{surface}_pred.pgm")))
            .ctx("writing pgm")?;
        write_pgm(
            &diff,
            -0.1,
            0.1,
            &out.join(format!("fig8_{surface}_diff.pgm")),
        )
        .ctx("writing pgm")?;
        let max_abs = diff.abs_t().max_value();
        let within =
            diff.data().iter().filter(|v| v.abs() <= 0.1).count() as f32 / diff.len() as f32;
        println!(
            "{surface:>6} surface: max |diff| = {max_abs:.3}, {:.1}% of pixels within ±0.1 \
             (paper: 'absolute errors across most positions … within 0.1')",
            within * 100.0
        );
    }
    println!("[fig8] wrote target/figures/fig8_*.pgm (truth / pred / diff × top / bottom)");

    peb_bench::emit_profile("fig8");
    Ok(())
}
