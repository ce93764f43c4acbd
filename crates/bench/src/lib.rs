//! Shared harness for regenerating the paper's tables and figures.
//!
//! Every `src/bin/tableN.rs` / `src/bin/figN.rs` binary builds on this
//! crate: dataset preparation (with on-disk caching), uniform model
//! construction and training, the full evaluation pipeline (inhibitor →
//! development rate → resist profile → CDs), and table rendering with
//! paper-reference columns.
//!
//! Scale is controlled by `PEB_SCALE` (`tiny` default / `small` / `full`)
//! — see [`peb_data::ExperimentScale`].

mod eval;
mod models;
mod prepare;
mod render;
pub mod viz;

pub use eval::{evaluate_model, evaluate_rigorous_baseline, predict_inhibitor, EvalRow};
pub use models::{
    build_model, train_models, train_models_with, ModelKind, TrainOptions, TrainedModel,
};
pub use prepare::{prepare_dataset, prepare_flow};
pub use render::{format_row, render_table, PAPER_TABLE2, PAPER_TABLE3};

/// Writes the `peb-obs` JSON profile for this binary when
/// `PEB_TRACE=json` is active, alongside the binary's regular outputs.
///
/// The default path is `PROFILE_<tag>.json`; `PEB_TRACE_OUT` overrides
/// it. Other trace modes are untouched (in `summary` mode the table
/// still prints to stderr at exit through the `peb-obs` hook), so the
/// call is safe to keep unconditionally at the end of every `main`.
pub fn emit_profile(tag: &str) {
    if peb_obs::mode() != peb_obs::TraceMode::Json {
        return;
    }
    let path = peb_obs::trace_out(peb_par::ctx::process_env)
        .unwrap_or_else(|| format!("PROFILE_{tag}.json"));
    match peb_obs::write_json(&path) {
        Ok(()) => eprintln!("[{tag}] peb-obs profile written to {path}"),
        Err(e) => eprintln!("[{tag}] failed to write profile {path}: {e}"),
    }
}
