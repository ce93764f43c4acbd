//! Regenerates **Fig. 7**: percentage counts of CD errors (x and y
//! directions) in 0–1 / 1–2 / 2–3 / 3–4 / >4 nm buckets, for every
//! Table II method.

use peb_bench::{
    evaluate_model, prepare_dataset, prepare_flow, train_models, ModelKind, TrainOptions,
};
use peb_data::ExperimentScale;
use peb_guard::PebError;
use sdm_peb::CD_BUCKET_LABELS;

fn main() -> Result<(), PebError> {
    let (scale, epochs) =
        ExperimentScale::from_env().unwrap_or_else(|e| peb_par::ctx::exit_invalid(&e));
    let train_opts = TrainOptions::from_env_or_exit("fig7");
    eprintln!("[fig7] scale = {}", scale.name());
    let dataset = prepare_dataset(scale)?;
    let flow = prepare_flow(scale);

    let trained = train_models(&ModelKind::TABLE2, &dataset, epochs, &train_opts)?;
    let rows: Vec<_> = trained
        .iter()
        .map(|t| evaluate_model(t.model.as_ref(), &dataset, &flow))
        .collect();

    for (axis, pick) in [("(a) x direction", 0usize), ("(b) y direction", 1usize)] {
        println!("\n== Fig. 7{axis}: CD-error bucket percentages ==");
        print!("{:<14}", "Method");
        for label in CD_BUCKET_LABELS {
            print!(" {label:>7}");
        }
        println!(" (nm)");
        for row in &rows {
            let hist = if pick == 0 {
                row.cd_hist.0
            } else {
                row.cd_hist.1
            };
            print!("{:<14}", row.name);
            for v in hist {
                print!(" {v:>6.1}%");
            }
            println!();
        }
    }

    // Shape check: the paper reports SDM-PEB's errors concentrated in the
    // 0–1 nm bucket more than every baseline.
    let sdm = rows.last().expect("five rows");
    let best_bucket0 = rows.iter().map(|r| r.cd_hist.0[0]).fold(0.0f32, f32::max);
    println!(
        "\n[shape] SDM-PEB 0–1 nm share (x): {:.1}% — max across methods: {:.1}%{}",
        sdm.cd_hist.0[0],
        best_bucket0,
        if (sdm.cd_hist.0[0] - best_bucket0).abs() < 1e-6 {
            " (SDM-PEB leads, as in the paper)"
        } else {
            ""
        }
    );

    peb_bench::emit_profile("fig7");
    Ok(())
}
