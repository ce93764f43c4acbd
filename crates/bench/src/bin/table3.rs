//! Regenerates **Table III**: the ablation study — Single Layer Encoder,
//! 2-D Scan, w/o Focal Loss, w/o Regularization vs the full SDM-PEB.

use peb_bench::{
    evaluate_model, prepare_dataset, prepare_flow, train_models, ModelKind, TrainOptions,
    PAPER_TABLE3,
};
use peb_data::ExperimentScale;
use peb_guard::PebError;

fn main() -> Result<(), PebError> {
    let (scale, epochs) =
        ExperimentScale::from_env().unwrap_or_else(|e| peb_par::ctx::exit_invalid(&e));
    let train_opts = TrainOptions::from_env_or_exit("table3");
    eprintln!("[table3] scale = {}", scale.name());
    let dataset = prepare_dataset(scale)?;
    let flow = prepare_flow(scale);

    let trained = train_models(&ModelKind::TABLE3, &dataset, epochs, &train_opts)?;
    let rows: Vec<_> = trained
        .iter()
        .map(|t| {
            let mut row = evaluate_model(t.model.as_ref(), &dataset, &flow);
            row.name = t.kind.label().to_string(); // ablation label, not "SDM-PEB"
            row
        })
        .collect();

    println!("\n== Table III (paper reference) ==");
    println!(
        "{:<22} {:>10} {:>8} {:>7} {:>7}",
        "Methodology", "I-NRMSE%", "R-NRMSE%", "CDx/nm", "CDy/nm"
    );
    for (name, a, b, c, d) in PAPER_TABLE3 {
        println!("{name:<22} {a:>10.2} {b:>8.2} {c:>7.2} {d:>7.2}");
    }

    println!("\n== Table III (measured, scale={}) ==", scale.name());
    println!(
        "{:<22} {:>10} {:>8} {:>7} {:>7}",
        "Methodology", "I-NRMSE%", "R-NRMSE%", "CDx/nm", "CDy/nm"
    );
    for row in &rows {
        println!(
            "{:<22} {:>10.2} {:>8.2} {:>7.2} {:>7.2}",
            row.name, row.inhibitor_nrmse_pct, row.rate_nrmse_pct, row.cd_x_nm, row.cd_y_nm
        );
    }

    // Shape checks: the full model should beat every ablation.
    let full = rows.last().expect("five rows");
    let mut worse = 0;
    for row in &rows[..rows.len() - 1] {
        if row.inhibitor_nrmse_pct >= full.inhibitor_nrmse_pct {
            worse += 1;
        }
    }
    println!(
        "\n[shape] {worse}/4 ablations degrade inhibitor NRMSE vs the full model \
         (paper: 4/4)"
    );

    peb_bench::emit_profile("table3");
    Ok(())
}
