//! Regenerates **Fig. 6**: value-range frequency histograms of (a) the
//! photoacid and (b) the inhibitor over the training set, exposing the
//! inhibitor's orders-of-magnitude imbalance that motivates the PEB
//! focal loss.

use peb_bench::prepare_dataset;
use peb_data::{value_histogram, ExperimentScale, HISTOGRAM_BIN_LABELS};
use peb_guard::PebError;

fn bar(frac: f64, width: usize) -> String {
    let n = (frac * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

fn main() -> Result<(), PebError> {
    let (scale, _) = ExperimentScale::from_env().unwrap_or_else(|e| peb_par::ctx::exit_invalid(&e));
    let dataset = prepare_dataset(scale)?;

    let acid_hist = value_histogram(dataset.train.iter().map(|s| &s.acid0));
    let inhibitor_hist = value_histogram(dataset.train.iter().map(|s| &s.inhibitor));

    println!("== Fig. 6(a): photoacid value-range frequencies (linear scale) ==");
    for (label, f) in HISTOGRAM_BIN_LABELS.iter().zip(acid_hist) {
        println!("{label:<12} {f:>8.4}  {}", bar(f, 50));
    }

    println!("\n== Fig. 6(b): inhibitor value-range frequencies (log scale, as in the paper) ==");
    for (label, f) in HISTOGRAM_BIN_LABELS.iter().zip(inhibitor_hist) {
        // Log-scale bar: map 1e-4..1 to 0..50 characters.
        let logbar = if f > 0.0 {
            ((f.log10() + 4.0) / 4.0).clamp(0.0, 1.0)
        } else {
            0.0
        };
        println!("{label:<12} {f:>9.5}  {}", bar(logbar, 50));
    }

    // The imbalance claim, quantified.
    let max = inhibitor_hist.iter().cloned().fold(0.0f64, f64::max);
    let min_nonzero = inhibitor_hist
        .iter()
        .cloned()
        .filter(|f| *f > 0.0)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\n[fig6] inhibitor bin frequencies span {:.1} orders of magnitude \
         (paper: 'can even differ by several orders of magnitude')",
        (max / min_nonzero).log10()
    );

    peb_bench::emit_profile("fig6");
    Ok(())
}
