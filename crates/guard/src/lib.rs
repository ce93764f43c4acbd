//! `peb-guard`: the fault-tolerance layer of the SDM-PEB workspace.
//!
//! The ROADMAP north-star is a production service, and production means
//! failure is an input, not an exception: a NaN spike mid-training, a
//! truncated dataset cache, a process killed between epochs. This crate
//! centralises the three mechanisms that turn those events from aborts
//! into recoveries:
//!
//! * [`PebError`] — the workspace-typed error with context chains
//!   ([`Context::ctx`]), returned by every fallible public entry point in
//!   `peb-data`, the `sdm-peb` trainer, `peb-litho::flow` and the bench
//!   binaries;
//! * [`TrainCheckpoint`] — versioned, CRC-32-checked, atomically-written
//!   training checkpoints with newest-valid fallback ([`load_latest`]) so
//!   a torn or corrupted latest file degrades to the previous good epoch;
//! * [`codec`] — the one little-endian tensor codec and sealed-frame
//!   check (length, magic, CRC-32 footer) behind every file the
//!   workspace writes: `PEBCKPT1` checkpoints, which also hold the bench
//!   harness's weight cache, and `peb-data`'s `PEBDATA3` dataset caches;
//! * [`chaos`] — the deterministic fault-injection harness (`PEB_CHAOS`)
//!   that drives NaN spikes, checkpoint/dataset truncation and bit flips,
//!   and mid-run kill/resume through the test suite and CI.
//!
//! The divergence sentinel itself (detect → rollback → LR backoff →
//! retry → typed failure) lives in `sdm_peb::Trainer`, which consumes
//! all three pieces; see DESIGN.md §10 for the state machine.

#![forbid(unsafe_code)]

pub mod chaos;
mod checkpoint;
pub mod codec;
mod error;

pub use checkpoint::{
    atomic_write, checkpoint_path, list_checkpoints, load_latest, prune_checkpoints, EpochRecord,
    QuantSlot, QuantTensor, TrainCheckpoint,
};
pub use codec::crc32;
pub use error::{Context, PebError, Result};
