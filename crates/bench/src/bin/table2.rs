//! Regenerates **Table II**: comparison of learning-based PEB solvers —
//! inhibitor RMSE/NRMSE, development-rate RMSE/NRMSE, CD error in x/y,
//! and runtime — plus the speedup-over-rigorous-simulation paragraph.
//!
//! Scale: `PEB_SCALE=tiny|small|full` (see DESIGN.md §3). Absolute
//! numbers differ from the paper (synthetic substrate, CPU budget); the
//! *shape* — SDM-PEB ranked first, TEMPO-resist slowest, every model
//! orders-of-magnitude faster than the rigorous solver — is the target.

use peb_bench::{
    evaluate_model, evaluate_rigorous_baseline, prepare_dataset, prepare_flow, render_table,
    train_models_with, ModelKind, TrainOptions, PAPER_TABLE2,
};
use peb_data::ExperimentScale;
use peb_guard::PebError;

fn main() -> Result<(), PebError> {
    let (scale, epochs) =
        ExperimentScale::from_env().unwrap_or_else(|e| peb_par::ctx::exit_invalid(&e));
    let train_opts = TrainOptions::from_env()
        .unwrap_or_else(|e| peb_par::ctx::exit_invalid(&e))
        .with_args(std::env::args().skip(1))?;
    eprintln!("[table2] scale = {}", scale.name());
    let dataset = prepare_dataset(scale)?;
    let flow = prepare_flow(scale);

    let trained = train_models_with(&ModelKind::TABLE2, &dataset, epochs, &train_opts)?;
    let rows: Vec<_> = trained
        .iter()
        .map(|t| evaluate_model(t.model.as_ref(), &dataset, &flow))
        .collect();

    println!("\n== Table II (paper reference) ==");
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>8}",
        "Method", "I-RMSEe3", "I-NRMSE%", "R-RMSE", "R-NRMSE%", "CDx", "CDy", "RT/s"
    );
    for (name, a, b, c, d, e, f, g) in PAPER_TABLE2 {
        println!("{name:<22} {a:>9.2} {b:>9.2} {c:>9.3} {d:>9.2} {e:>7.2} {f:>7.2} {g:>8.2}");
    }

    println!();
    print!(
        "{}",
        render_table(
            &format!("Table II (measured, scale={})", scale.name()),
            &rows
        )
    );

    // Speedup paragraph.
    let (trivial_nrmse, rigorous_s) = evaluate_rigorous_baseline(&dataset, &flow);
    let sdm = rows.last().expect("five rows");
    println!("\n== Runtime comparison (paper: SDM-PEB 1.06 s vs S-Litho 147 s = 138×) ==");
    println!("rigorous PEB solve (this substrate): {rigorous_s:.3} s/clip");
    println!(
        "SDM-PEB inference:                   {:.3} s/clip  -> {:.0}x speedup",
        sdm.runtime_s,
        rigorous_s / sdm.runtime_s.max(1e-9)
    );
    for row in &rows {
        println!(
            "  {:<14} RT {:>7.3} s  ({:.2}x vs SDM-PEB)",
            row.name,
            row.runtime_s,
            row.runtime_s / sdm.runtime_s.max(1e-9)
        );
    }
    println!("\n(sanity) trivial no-bake predictor NRMSE: {trivial_nrmse:.1}%");

    // Shape checks the harness asserts so regressions are loud.
    let best_nrmse = rows
        .iter()
        .map(|r| r.inhibitor_nrmse_pct)
        .fold(f32::INFINITY, f32::min);
    if (sdm.inhibitor_nrmse_pct - best_nrmse).abs() < 1e-6 {
        println!("[shape] SDM-PEB has the lowest inhibitor NRMSE — matches the paper");
    } else {
        println!(
            "[shape][!] SDM-PEB NRMSE {:.2}% is not the minimum {:.2}% at this budget",
            sdm.inhibitor_nrmse_pct, best_nrmse
        );
    }
    let tempo = &rows[1];
    let slowest = rows.iter().map(|r| r.runtime_s).fold(0.0f32, f32::max);
    if (tempo.runtime_s - slowest).abs() < 1e-6 {
        println!("[shape] TEMPO-resist is the slowest learned model — matches the paper");
    }

    peb_bench::emit_profile("table2");
    Ok(())
}
