//! Dataset plumbing for the SDM-PEB reproduction.
//!
//! Generates `(photoacid, inhibitor)` training pairs by running the
//! rigorous `peb-litho` flow over generated mask clips, exactly as the
//! paper generates its data with S-Litho over 100 proprietary clips.
//! Datasets are cached on disk as `PEBDATA3` — CRC-checked, written
//! atomically, decoded by `peb_guard::codec`'s bounds-checked cursor — so
//! the expensive rigorous solves run once per configuration;
//! [`load_dataset`] rejects any damaged cache and the caller regenerates.
//!
//! The [`ExperimentScale`] type centralises the `PEB_SCALE` / `PEB_EPOCHS`
//! environment switches used by every benchmark binary: `tiny` (default),
//! `small` or `full`, and an optional epoch override. Values outside
//! those sets are rejected, never ignored.

mod dataset;
mod io;
mod scale;
mod stats;

pub use dataset::{augment_with_flips, Dataset, DatasetConfig, LabelStats, Sample};
pub use io::{load_dataset, save_dataset};
pub use scale::ExperimentScale;
pub use stats::{value_histogram, HISTOGRAM_BIN_LABELS};
