//! Versioned, CRC-checked, atomically-written training checkpoints.
//!
//! # Wire format (`PEBCKPT1`, version 1, little-endian)
//!
//! | field | encoding |
//! |-------|----------|
//! | magic | 8 bytes `"PEBCKPT1"` |
//! | version | `u32` (currently 1) |
//! | epoch | `u64` — epochs *completed* when this state was captured |
//! | seed | `u64` — the shuffle seed of the run |
//! | opt_kind | `u32` — always 0 = Adam; other values are rejected |
//! | opt_t | `u64` — optimiser step counter (Adam bias correction) |
//! | lr_scale | `f32` — divergence-backoff multiplier in effect |
//! | rollbacks | `u64` — rollbacks performed so far |
//! | epoch_stats | `u64` count, then per epoch `f32` mean loss + `u64` skipped batches |
//! | params | `u64` count, then tensors (rank `u64`, dims `u64`…, data `f32`…) |
//! | opt_m | `u64` count, then per slot `u8` presence tag + tensor |
//! | opt_v | same as `opt_m` |
//! | crc | `u32` CRC-32 (IEEE) of **every** preceding byte, magic included |
//!
//! # Atomicity protocol
//!
//! [`atomic_write`] stages the full payload in `<name>.tmp.<pid>` in the
//! destination directory, `fsync`s the file, renames it over the
//! destination, and `fsync`s the directory. A crash at any point leaves
//! either the old checkpoint or the new one — never a torn file — and a
//! torn *write* that does land (e.g. chaos-injected truncation or bit
//! flips) is caught by the CRC on load and reported as
//! [`PebError::Corrupt`], at which point resume falls back to the
//! previous retained checkpoint.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use peb_tensor::Tensor;

use crate::codec::{
    open_sealed, put_f32, put_tensor, put_u32, put_u64, seal, Cursor, MIN_TENSOR_BYTES,
};
use crate::error::{Context, PebError, Result};

const MAGIC: &[u8; 8] = b"PEBCKPT1";
const VERSION: u32 = 1;
/// Version written when a quantized-weight section is present. A
/// checkpoint with `quant: None` still writes version 1 **byte for
/// byte** — the upgrade is strictly additive, and every pre-existing
/// file remains readable.
const VERSION_QUANT: u32 = 2;

/// The optimiser tag on the wire: training runs Adam only, so `opt_m` /
/// `opt_v` hold its first / second moments and `opt_t` its step.
const OPT_ADAM: u32 = 0;

/// Per-epoch bookkeeping persisted with the weights so a resumed run
/// reports the same history as an uninterrupted one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Mean combined loss over the epoch.
    pub mean_loss: f32,
    /// Micro-batches dropped by the non-finite guard.
    pub skipped_batches: u64,
}

/// A per-channel absmax-quantized parameter tensor as stored in a
/// version-2 checkpoint. `peb-guard` treats this as opaque data — the
/// quantization/dequantization semantics (symmetric int8, per
/// output-channel scales over the leading axis) live with the consumer
/// (`sdm_peb_core::quant`).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    /// Original (dequantized) tensor shape.
    pub shape: Vec<usize>,
    /// One dequantization scale per output channel (`shape[0]` entries).
    pub scales: Vec<f32>,
    /// Row-major int8 codes, one per original element.
    pub codes: Vec<i8>,
}

impl QuantTensor {
    /// Number of elements the dequantized tensor holds.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One parameter slot of a quantized checkpoint: rank ≥ 2 weights carry
/// int8 codes, everything else (biases, scalars — where quantization
/// saves nothing and costs accuracy) stays full f32.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantSlot {
    /// Full-precision parameter (rank ≤ 1, or excluded from PTQ).
    F32(Tensor),
    /// Per-channel absmax int8 parameter.
    I8(QuantTensor),
}

/// Full training state at an epoch boundary.
///
/// Restoring every field reproduces the uninterrupted trajectory
/// *bitwise*: weights and moments round-trip exactly (f32 ↔ LE bytes is
/// lossless), and the shuffle RNG is reconstructed by replaying `epoch`
/// shuffles from `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Epochs completed.
    pub epoch: u64,
    /// Shuffle seed of the run (resume replays the RNG stream).
    pub seed: u64,
    /// Adam's step counter.
    pub opt_t: u64,
    /// Divergence-backoff LR multiplier in effect.
    pub lr_scale: f32,
    /// Rollbacks performed so far.
    pub rollbacks: u64,
    /// Per-epoch history up to `epoch`.
    pub epoch_stats: Vec<EpochRecord>,
    /// Model parameters in `Parameterized::parameters()` order.
    pub params: Vec<Tensor>,
    /// Adam's first moments, per parameter; `None` for parameters the
    /// optimiser has not touched yet.
    pub opt_m: Vec<Option<Tensor>>,
    /// Adam's second moments, per parameter.
    pub opt_v: Vec<Option<Tensor>>,
    /// Post-training-quantized weights, written as a version-2 tagged
    /// section. `None` (every training checkpoint) keeps the file at
    /// version 1, byte-identical to the pre-quantization format. A
    /// quantized serving checkpoint carries one slot per parameter here
    /// and leaves `params` empty — consumers restore by dequantizing.
    pub quant: Option<Vec<QuantSlot>>,
}

impl TrainCheckpoint {
    /// Serialises and atomically writes the checkpoint to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`PebError::Io`] when staging, syncing or renaming fails.
    pub fn save(&self, path: &Path) -> Result<()> {
        let _span = peb_obs::span("guard.checkpoint.save");
        let bytes = self.to_bytes();
        atomic_write(path, &bytes).with_ctx(|| format!("writing checkpoint {}", path.display()))?;
        peb_obs::count(peb_obs::Counter::GuardCheckpoints, 1);
        Ok(())
    }

    /// Loads and CRC-validates a checkpoint.
    ///
    /// # Errors
    ///
    /// [`PebError::Io`] when the file cannot be read, [`PebError::Corrupt`]
    /// on bad magic, version, checksum, or an undecodable payload.
    pub fn load(path: &Path) -> Result<Self> {
        let _span = peb_obs::span("guard.checkpoint.load");
        let bytes = fs::read(path).with_ctx(|| format!("reading checkpoint {}", path.display()))?;
        Self::from_bytes(&bytes).with_ctx(|| format!("decoding checkpoint {}", path.display()))
    }

    /// Serialises to the wire format (CRC footer included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w =
            Vec::with_capacity(1024 + 4 * self.params.iter().map(Tensor::len).sum::<usize>());
        w.extend_from_slice(MAGIC);
        put_u32(
            &mut w,
            if self.quant.is_some() {
                VERSION_QUANT
            } else {
                VERSION
            },
        );
        put_u64(&mut w, self.epoch);
        put_u64(&mut w, self.seed);
        put_u32(&mut w, OPT_ADAM);
        put_u64(&mut w, self.opt_t);
        put_f32(&mut w, self.lr_scale);
        put_u64(&mut w, self.rollbacks);
        put_u64(&mut w, self.epoch_stats.len() as u64);
        for s in &self.epoch_stats {
            put_f32(&mut w, s.mean_loss);
            put_u64(&mut w, s.skipped_batches);
        }
        put_u64(&mut w, self.params.len() as u64);
        for t in &self.params {
            put_tensor(&mut w, t);
        }
        put_opt_tensors(&mut w, &self.opt_m);
        put_opt_tensors(&mut w, &self.opt_v);
        if let Some(slots) = &self.quant {
            put_u64(&mut w, slots.len() as u64);
            for slot in slots {
                match slot {
                    QuantSlot::F32(t) => {
                        w.push(0);
                        put_tensor(&mut w, t);
                    }
                    QuantSlot::I8(q) => {
                        w.push(1);
                        put_u64(&mut w, q.shape.len() as u64);
                        for &d in &q.shape {
                            put_u64(&mut w, d as u64);
                        }
                        put_u64(&mut w, q.scales.len() as u64);
                        for &s in &q.scales {
                            put_f32(&mut w, s);
                        }
                        put_u64(&mut w, q.codes.len() as u64);
                        w.extend(q.codes.iter().map(|&c| c as u8));
                    }
                }
            }
        }
        seal(&mut w);
        w
    }

    /// Decodes the wire format, validating magic, version and CRC.
    ///
    /// # Errors
    ///
    /// Returns [`PebError::Corrupt`] describing the first violated field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (mut r, _) = open_sealed(bytes, MAGIC, "checkpoint")?;
        let version = r.version()?;
        let epoch = r.u64()?;
        let seed = r.u64()?;
        r.opt_tag()?;
        let opt_t = r.u64()?;
        let lr_scale = r.f32()?;
        let rollbacks = r.u64()?;
        let n_stats = r.count("epoch stats", EPOCH_RECORD_BYTES)?;
        let mut epoch_stats = Vec::with_capacity(n_stats);
        for _ in 0..n_stats {
            epoch_stats.push(EpochRecord {
                mean_loss: r.f32()?,
                skipped_batches: r.u64()?,
            });
        }
        let n_params = r.count("parameters", MIN_TENSOR_BYTES)?;
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            params.push(r.tensor()?);
        }
        let opt_m = r.opt_tensors()?;
        let opt_v = r.opt_tensors()?;
        let quant = if version >= VERSION_QUANT {
            Some(r.quant_slots()?)
        } else {
            None
        };
        r.finish("checkpoint")?;
        Ok(TrainCheckpoint {
            epoch,
            seed,
            opt_t,
            lr_scale,
            rollbacks,
            epoch_stats,
            params,
            opt_m,
            opt_v,
            quant,
        })
    }
}

// --- header peek ------------------------------------------------------------

/// Validated header metadata of an on-disk checkpoint, decoded without
/// materialising the parameter tensors.
///
/// The whole file is still read and CRC-checked (corruption anywhere in
/// the payload must be caught before a consumer trusts the header), but
/// the tensor payload is never decoded into `Vec<f32>` storage — on
/// serve-sized models that is the difference between a metadata probe
/// and a full model load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptMeta {
    /// Epochs completed when the state was captured.
    pub epoch: u64,
    /// Shuffle seed of the originating run.
    pub seed: u64,
    /// Number of parameter tensors in the payload.
    pub n_params: u64,
    /// Total file size in bytes (CRC footer included).
    pub file_bytes: u64,
    /// The validated CRC-32 — a stable content fingerprint, usable as a
    /// version identity for hot-swap registries.
    pub crc: u32,
    /// Wire-format version: 1 = plain f32, 2 = carries a quantized
    /// weight section (`n_params` is then typically 0).
    pub version: u32,
}

/// Reads and CRC-validates `path`, decoding only the checkpoint header.
///
/// # Errors
///
/// [`PebError::Io`] when the file cannot be read, [`PebError::Corrupt`]
/// on bad magic, version, checksum or a truncated header — the same
/// corruption classes as [`TrainCheckpoint::load`], so a file that
/// `peek`s clean will also load (barring a race with a concurrent
/// rewrite).
pub fn peek(path: &Path) -> Result<CkptMeta> {
    let _span = peb_obs::span("guard.checkpoint.peek");
    let bytes = fs::read(path).with_ctx(|| format!("reading checkpoint {}", path.display()))?;
    peek_bytes(&bytes).with_ctx(|| format!("peeking checkpoint {}", path.display()))
}

/// [`peek`] over an in-memory image.
///
/// # Errors
///
/// Returns [`PebError::Corrupt`] describing the first violated field.
pub fn peek_bytes(bytes: &[u8]) -> Result<CkptMeta> {
    let (mut r, crc) = open_sealed(bytes, MAGIC, "checkpoint")?;
    let version = r.version()?;
    let epoch = r.u64()?;
    let seed = r.u64()?;
    r.opt_tag()?;
    let _opt_t = r.u64()?;
    let _lr_scale = r.f32()?;
    let _rollbacks = r.u64()?;
    let n_stats = r.count("epoch stats", EPOCH_RECORD_BYTES)?;
    // Skip the fixed-width epoch records without decoding them.
    r.take(n_stats * EPOCH_RECORD_BYTES)?;
    let n_params = r.count("parameters", MIN_TENSOR_BYTES)? as u64;
    Ok(CkptMeta {
        epoch,
        seed,
        n_params,
        file_bytes: bytes.len() as u64,
        crc,
        version,
    })
}

// --- checkpoint directory management ---------------------------------------

/// File name for the checkpoint written after `epoch` completed epochs.
pub fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("ckpt-{epoch:06}.bin"))
}

/// Epoch numbers of all checkpoint files in `dir`, descending (newest
/// first). Unreadable directory entries and foreign files are ignored.
pub fn list_checkpoints(dir: &Path) -> Vec<u64> {
    let mut epochs: Vec<u64> = fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name();
                    let name = name.to_str()?;
                    let stem = name.strip_prefix("ckpt-")?.strip_suffix(".bin")?;
                    stem.parse::<u64>().ok()
                })
                .collect()
        })
        .unwrap_or_default();
    epochs.sort_unstable_by(|a, b| b.cmp(a));
    epochs
}

/// Loads the newest checkpoint in `dir` that passes validation, skipping
/// (and reporting to stderr) corrupt ones — the on-disk half of the
/// rollback story: a torn or chaos-mangled latest file degrades to the
/// previous good epoch instead of killing the run.
///
/// Returns `Ok(None)` when the directory holds no checkpoint files at
/// all.
///
/// # Errors
///
/// Returns the *last* decode error when checkpoint files exist but none
/// validates.
pub fn load_latest(dir: &Path) -> Result<Option<TrainCheckpoint>> {
    let epochs = list_checkpoints(dir);
    if epochs.is_empty() {
        return Ok(None);
    }
    let mut last_err = None;
    for epoch in &epochs {
        let path = checkpoint_path(dir, *epoch);
        match TrainCheckpoint::load(&path) {
            Ok(ckpt) => return Ok(Some(ckpt)),
            Err(e) => {
                eprintln!(
                    "[peb-guard] skipping unreadable checkpoint {}: {e}",
                    path.display()
                );
                last_err = Some(e);
            }
        }
    }
    match last_err {
        Some(e) => Err(e.context(format!(
            "no valid checkpoint among {} candidate(s) in {}",
            epochs.len(),
            dir.display()
        ))),
        // Unreachable (`epochs` non-empty means the loop either returned
        // or set `last_err`), but a typed error beats a panic here too.
        None => Err(PebError::corrupt("checkpoint scan inconsistency")),
    }
}

/// Deletes all but the newest `keep` checkpoints in `dir`. Best-effort:
/// removal failures are ignored (the next prune retries).
pub fn prune_checkpoints(dir: &Path, keep: usize) {
    for epoch in list_checkpoints(dir).into_iter().skip(keep) {
        let _ = fs::remove_file(checkpoint_path(dir, epoch));
    }
}

// --- atomic write ----------------------------------------------------------

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// `fsync`, rename over the destination, `fsync` the directory.
///
/// # Errors
///
/// Returns any underlying I/O error; on failure the destination is
/// untouched (the stale temp file is removed best-effort).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("checkpoint");
    let tmp = match dir {
        Some(d) => d.join(format!(".{file_name}.tmp.{}", std::process::id())),
        None => PathBuf::from(format!(".{file_name}.tmp.{}", std::process::id())),
    };
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        if let Some(d) = dir {
            // Persist the rename itself; ignore platforms/filesystems
            // where directories cannot be opened for sync.
            if let Ok(dirf) = File::open(d) {
                let _ = dirf.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

// --- checkpoint sections -----------------------------------------------------

fn put_opt_tensors(w: &mut Vec<u8>, slots: &[Option<Tensor>]) {
    put_u64(w, slots.len() as u64);
    for slot in slots {
        match slot {
            Some(t) => {
                w.push(1);
                put_tensor(w, t);
            }
            None => w.push(0),
        }
    }
}

/// Wire size of one epoch record (`f32` mean loss + `u64` skipped).
const EPOCH_RECORD_BYTES: usize = 12;

impl Cursor<'_> {
    fn version(&mut self) -> Result<u32> {
        match self.u32()? {
            v @ (VERSION | VERSION_QUANT) => Ok(v),
            v => Err(PebError::corrupt(format!(
                "unsupported checkpoint version {v} (expected {VERSION} or {VERSION_QUANT})"
            ))),
        }
    }

    fn opt_tag(&mut self) -> Result<()> {
        match self.u32()? {
            OPT_ADAM => Ok(()),
            other => Err(PebError::corrupt(format!("unknown optimiser kind {other}"))),
        }
    }

    fn opt_tensors(&mut self) -> Result<Vec<Option<Tensor>>> {
        let n = self.count("optimiser slots", 1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(match self.u8()? {
                0 => None,
                1 => Some(self.tensor()?),
                tag => return Err(PebError::corrupt(format!("bad optimiser slot tag {tag}"))),
            });
        }
        Ok(out)
    }

    fn quant_slots(&mut self) -> Result<Vec<QuantSlot>> {
        let n = self.count("quantized slots", 1 + MIN_TENSOR_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(match self.u8()? {
                0 => QuantSlot::F32(self.tensor()?),
                1 => QuantSlot::I8(self.quant_tensor()?),
                tag => return Err(PebError::corrupt(format!("bad quantized slot tag {tag}"))),
            });
        }
        Ok(out)
    }

    fn quant_tensor(&mut self) -> Result<QuantTensor> {
        let (shape, total) = self.shape(1)?;
        let n_scales = self.count("quant scales", 4)?;
        let scales = self.f32s(n_scales)?;
        if shape.first() != Some(&n_scales) {
            return Err(PebError::corrupt(format!(
                "quant scale count {n_scales} disagrees with leading dim of shape {shape:?}"
            )));
        }
        if let Some(s) = scales.iter().find(|s| !(s.is_finite() && **s >= 0.0)) {
            return Err(PebError::corrupt(format!(
                "quant scale {s} is not a finite non-negative number"
            )));
        }
        let n_codes = self.count("quant codes", 1)?;
        if n_codes != total {
            return Err(PebError::corrupt(format!(
                "quant code count {n_codes} disagrees with shape product {total}"
            )));
        }
        let codes = self.take(n_codes)?.iter().map(|&b| b as i8).collect();
        Ok(QuantTensor {
            shape,
            scales,
            codes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::crc32;

    fn sample_checkpoint() -> TrainCheckpoint {
        TrainCheckpoint {
            epoch: 3,
            seed: 20250705,
            opt_t: 12,
            lr_scale: 0.5,
            rollbacks: 1,
            epoch_stats: vec![
                EpochRecord {
                    mean_loss: 1.25,
                    skipped_batches: 0,
                },
                EpochRecord {
                    mean_loss: 0.75,
                    skipped_batches: 2,
                },
            ],
            params: vec![
                Tensor::from_fn(&[2, 3], |i| i as f32 - 2.5),
                Tensor::scalar(-0.0),
            ],
            opt_m: vec![Some(Tensor::full(&[2, 3], 1e-9)), None],
            opt_v: vec![Some(Tensor::full(&[2, 3], f32::MIN_POSITIVE)), None],
            quant: None,
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let ckpt = sample_checkpoint();
        let decoded = TrainCheckpoint::from_bytes(&ckpt.to_bytes()).expect("roundtrip decodes");
        assert_eq!(decoded.epoch, ckpt.epoch);
        assert_eq!(decoded.lr_scale.to_bits(), ckpt.lr_scale.to_bits());
        for (a, b) in decoded.params.iter().zip(&ckpt.params) {
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(decoded.opt_m, ckpt.opt_m);
        assert_eq!(decoded.opt_v, ckpt.opt_v);
    }

    #[test]
    fn optimiser_tags_other_than_adam_are_corrupt() {
        let mut bytes = sample_checkpoint().to_bytes();
        // magic 8 + version 4 + epoch 8 + seed 8, then the tag.
        assert_eq!(bytes[28..32], OPT_ADAM.to_le_bytes());
        for tag in [1u32, 2, u32::MAX] {
            bytes[28..32].copy_from_slice(&tag.to_le_bytes());
            let payload = bytes.len() - 4;
            let crc = crc32(&bytes[..payload]);
            bytes[payload..].copy_from_slice(&crc.to_le_bytes());
            let err = TrainCheckpoint::from_bytes(&bytes).expect_err("tag");
            assert!(err.is_corrupt(), "{err}");
            assert!(peek_bytes(&bytes).expect_err("tag").is_corrupt());
        }
    }

    #[test]
    fn unquantized_checkpoints_stay_version_1() {
        // The v2 upgrade must not move a single byte of a training
        // checkpoint: version stays 1 and no trailing section appears.
        let bytes = sample_checkpoint().to_bytes();
        let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        assert_eq!(version, 1);
        let meta = peek_bytes(&bytes).expect("peek");
        assert_eq!(meta.version, 1);
    }

    #[test]
    fn quantized_checkpoint_roundtrips_as_version_2() {
        let mut ckpt = sample_checkpoint();
        ckpt.params.clear();
        ckpt.opt_m.clear();
        ckpt.opt_v.clear();
        ckpt.quant = Some(vec![
            QuantSlot::I8(QuantTensor {
                shape: vec![2, 3],
                scales: vec![0.25, 0.5],
                codes: vec![1, -2, 3, -4, 5, -127],
            }),
            QuantSlot::F32(Tensor::from_fn(&[3], |i| i as f32 * 0.5)),
        ]);
        let bytes = ckpt.to_bytes();
        let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        assert_eq!(version, 2);
        let meta = peek_bytes(&bytes).expect("peek accepts v2");
        assert_eq!(meta.version, 2);
        assert_eq!(meta.n_params, 0);
        let back = TrainCheckpoint::from_bytes(&bytes).expect("v2 decodes");
        assert_eq!(back.quant, ckpt.quant);
        assert!(back.params.is_empty());
        // Code count must agree with the shape product, scale count with
        // the leading dim, and every scale must be finite and ≥ 0.
        let rejected = |what: &str, mangle: fn(&mut QuantTensor)| {
            let mut bad = ckpt.clone();
            if let Some(QuantSlot::I8(q)) = bad.quant.as_mut().and_then(|s| s.first_mut()) {
                mangle(q);
            }
            assert!(
                TrainCheckpoint::from_bytes(&bad.to_bytes())
                    .expect_err(what)
                    .is_corrupt(),
                "{what}"
            );
        };
        rejected("mismatched code count", |q| q.codes.truncate(5));
        rejected("mismatched scale count", |q| q.scales.truncate(1));
        rejected("NaN scale", |q| q.scales[0] = f32::NAN);
        rejected("infinite scale", |q| q.scales[1] = f32::INFINITY);
        rejected("negative scale", |q| q.scales[0] = -0.25);
    }

    #[test]
    fn peek_matches_full_decode_and_rejects_corruption() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes();
        let meta = peek_bytes(&bytes).expect("peek decodes");
        assert_eq!(meta.epoch, ckpt.epoch);
        assert_eq!(meta.seed, ckpt.seed);
        assert_eq!(meta.n_params, ckpt.params.len() as u64);
        assert_eq!(meta.file_bytes, bytes.len() as u64);
        // The fingerprint is the stored CRC footer.
        let crc = u32::from_le_bytes([
            bytes[bytes.len() - 4],
            bytes[bytes.len() - 3],
            bytes[bytes.len() - 2],
            bytes[bytes.len() - 1],
        ]);
        assert_eq!(meta.crc, crc);
        // Any corruption a full load would reject, peek rejects too.
        let mut mangled = bytes.clone();
        mangled[bytes.len() / 2] ^= 0x01;
        assert!(peek_bytes(&mangled).expect_err("corrupt").is_corrupt());
        assert!(peek_bytes(&bytes[..20])
            .expect_err("truncated")
            .is_corrupt());
    }

    #[test]
    fn single_bit_flip_is_detected() {
        let bytes = sample_checkpoint().to_bytes();
        for probe in [8usize, bytes.len() / 2, bytes.len() - 5] {
            let mut mangled = bytes.clone();
            mangled[probe] ^= 0x10;
            let err = TrainCheckpoint::from_bytes(&mangled).expect_err("bit flip must not decode");
            assert!(
                err.is_corrupt(),
                "wrong class for flipped byte {probe}: {err}"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_checkpoint().to_bytes();
        for cut in [0usize, 7, 12, bytes.len() - 1] {
            let err =
                TrainCheckpoint::from_bytes(&bytes[..cut]).expect_err("truncation must not decode");
            assert!(err.is_corrupt(), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn atomic_write_then_load_and_prune() {
        let dir = std::env::temp_dir().join(format!("peb_guard_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = sample_checkpoint();
        for epoch in 1..=4u64 {
            let mut c = ckpt.clone();
            c.epoch = epoch;
            c.save(&checkpoint_path(&dir, epoch)).expect("save");
        }
        assert_eq!(list_checkpoints(&dir), vec![4, 3, 2, 1]);
        prune_checkpoints(&dir, 2);
        assert_eq!(list_checkpoints(&dir), vec![4, 3]);
        let latest = load_latest(&dir).expect("load").expect("present");
        assert_eq!(latest.epoch, 4);
        // No stray temp files.
        let stray = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(stray, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_latest_falls_back_past_corrupt_newest() {
        let dir = std::env::temp_dir().join(format!("peb_guard_fallback_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut ckpt = sample_checkpoint();
        ckpt.epoch = 1;
        ckpt.save(&checkpoint_path(&dir, 1)).expect("save epoch 1");
        ckpt.epoch = 2;
        ckpt.save(&checkpoint_path(&dir, 2)).expect("save epoch 2");
        // Truncate the newest: resume must degrade to epoch 1.
        let newest = checkpoint_path(&dir, 2);
        let bytes = std::fs::read(&newest).expect("read");
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).expect("truncate");
        let loaded = load_latest(&dir).expect("fallback works").expect("present");
        assert_eq!(loaded.epoch, 1);
        // All corrupt → typed error, not a panic.
        let oldest = checkpoint_path(&dir, 1);
        std::fs::write(&oldest, b"garbage").expect("mangle");
        let err = load_latest(&dir).expect_err("all corrupt");
        assert!(err.is_corrupt());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_is_none() {
        let dir = std::env::temp_dir().join(format!("peb_guard_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert_eq!(load_latest(&dir).expect("ok"), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
