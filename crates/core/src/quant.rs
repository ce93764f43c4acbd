//! Post-training quantization (PTQ) of serving checkpoints.
//!
//! Weights are quantized **per output channel** (the leading axis) with
//! symmetric absmax int8 — `scale = absmax/127`, `q = round(x/scale)`
//! clamped to `±127` — and stored in the `PEBCKPT1` version-2 frame
//! ([`peb_guard::QuantSlot`]). Rank ≤ 1 parameters (biases, scalars)
//! stay f32: quantizing them saves almost nothing and costs
//! disproportionate accuracy.
//!
//! Quantization is **gated, not assumed**: [`quantize_checkpoint`]
//! calibrates over a held-out clip set by comparing the model's f32
//! predictions against its dequantized-weight predictions, and refuses
//! to produce a quantized checkpoint that violates the caller's
//! accuracy budgets. Int8 is a storage format only: the serving path
//! restores a quantized checkpoint by dequantizing once at load/swap time
//! ([`checkpoint_params`]) and every kernel computes in f32.

#![deny(clippy::unwrap_used)]

use peb_guard::{PebError, QuantSlot, QuantTensor, Result, TrainCheckpoint};
use peb_tensor::Tensor;

use crate::metrics::{rmse, ssim};
use crate::solver::{restore_parameters, PebPredictor};

/// Accuracy budgets a quantized checkpoint must meet on the held-out
/// calibration clips (f32 predictions vs dequantized-weight
/// predictions, per clip).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantBudgets {
    /// Largest tolerated per-clip RMSE between f32 and int8-weight
    /// predictions, in label space.
    pub max_rmse: f32,
    /// Smallest tolerated per-clip SSIM between the two predictions.
    pub min_ssim: f32,
}

impl Default for QuantBudgets {
    fn default() -> Self {
        // The documented "looser" int8 budget (DESIGN §13): label-space
        // values are O(1), so 0.05 RMSE ≈ 5% of the dynamic range.
        QuantBudgets {
            max_rmse: 0.05,
            min_ssim: 0.98,
        }
    }
}

/// Calibration outcome over the held-out clip set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantReport {
    /// Worst per-clip RMSE observed.
    pub rmse_max: f32,
    /// Worst (lowest) per-clip SSIM observed.
    pub ssim_min: f32,
    /// Clips calibrated over.
    pub clips: usize,
    /// Bytes of quantized weight payload (codes + scales).
    pub quant_bytes: usize,
    /// Bytes the same parameters occupy in f32.
    pub f32_bytes: usize,
}

/// Quantizes one parameter: per-output-channel absmax int8 for rank ≥ 2
/// tensors, f32 passthrough otherwise.
pub fn quantize_slot(t: &Tensor) -> QuantSlot {
    if t.rank() < 2 || t.is_empty() {
        return QuantSlot::F32(t.clone());
    }
    let ch = t.shape()[0];
    let row = t.len() / ch;
    let mut scales = Vec::with_capacity(ch);
    let mut codes = Vec::with_capacity(t.len());
    for r in t.data().chunks_exact(row) {
        let absmax = r.iter().fold(0f32, |m, &x| m.max(x.abs()));
        let s = absmax / 127.0;
        scales.push(s);
        if s > 0.0 {
            let inv = 1.0 / s;
            codes.extend(
                r.iter()
                    .map(|&x| (x * inv).round().clamp(-127.0, 127.0) as i8),
            );
        } else {
            codes.extend(std::iter::repeat_n(0i8, row));
        }
    }
    QuantSlot::I8(QuantTensor {
        shape: t.shape().to_vec(),
        scales,
        codes,
    })
}

/// Dequantizes one checkpoint slot back to f32.
///
/// # Errors
///
/// Returns [`PebError::Shape`] when an i8 slot's scale count disagrees
/// with its leading dimension or its code count with its shape.
pub fn dequantize_slot(slot: &QuantSlot) -> Result<Tensor> {
    match slot {
        QuantSlot::F32(t) => Ok(t.clone()),
        QuantSlot::I8(q) => {
            let total = q.len();
            let ch = *q.shape.first().unwrap_or(&0);
            if ch == 0 || q.scales.len() != ch || q.codes.len() != total {
                return Err(PebError::shape(format!(
                    "quant slot inconsistent: shape {:?}, {} scales, {} codes",
                    q.shape,
                    q.scales.len(),
                    q.codes.len()
                )));
            }
            let row = total / ch;
            let mut data = Vec::with_capacity(total);
            for (c, chunk) in q.codes.chunks_exact(row).enumerate() {
                let s = q.scales[c];
                data.extend(chunk.iter().map(|&v| v as f32 * s));
            }
            Ok(Tensor::from_vec(data, &q.shape)?)
        }
    }
}

/// Materialises a checkpoint's parameters for restore: plain `params`
/// from a v1 frame, dequantized weights from a v2 quantized frame.
///
/// # Errors
///
/// Returns [`PebError::Shape`] on an inconsistent quantized slot.
pub fn checkpoint_params(ckpt: &TrainCheckpoint) -> Result<Vec<Tensor>> {
    match &ckpt.quant {
        None => Ok(ckpt.params.clone()),
        Some(slots) => slots.iter().map(dequantize_slot).collect(),
    }
}

/// Produces an inference-only quantized checkpoint from a trained one,
/// calibrated over `clips` (a held-out set) against `budgets`.
///
/// The procedure (DESIGN §13):
///
/// 1. quantize every rank ≥ 2 parameter per-channel (absmax int8);
/// 2. splice the **dequantized** weights into `model` and compare its
///    predictions on every clip against the f32-weight predictions
///    (per-clip RMSE + SSIM — exactly the degradation a server that
///    swaps this checkpoint in will exhibit);
/// 3. restore the model's original f32 weights (the model is left
///    untouched on every path, success or failure);
/// 4. fail — producing no checkpoint — if any clip violates `budgets`.
///
/// The returned checkpoint carries empty `params`/`opt_m`/`opt_v` (it
/// is not resumable for training) and the quantized section; restore
/// through [`checkpoint_params`].
///
/// # Errors
///
/// [`PebError::Shape`] when `ckpt`'s parameters do not match `model`;
/// [`PebError::Config`] when `clips` is empty or a budget is violated.
pub fn quantize_checkpoint<M: PebPredictor + ?Sized>(
    model: &M,
    ckpt: &TrainCheckpoint,
    clips: &[Tensor],
    budgets: QuantBudgets,
) -> Result<(TrainCheckpoint, QuantReport)> {
    let _span = peb_obs::span("quant.calibrate");
    if clips.is_empty() {
        return Err(PebError::config(
            "PTQ calibration requires at least one held-out clip",
        ));
    }
    let slots: Vec<QuantSlot> = ckpt.params.iter().map(quantize_slot).collect();
    let deq: Vec<Tensor> = slots
        .iter()
        .map(dequantize_slot)
        .collect::<Result<Vec<_>>>()?;

    // f32 reference predictions, with the checkpoint's own weights.
    restore_parameters(model, &ckpt.params)?;
    let reference: Vec<Tensor> = clips.iter().map(|c| model.predict(c)).collect();

    // Quantized-weight predictions; always restore the f32 weights
    // afterwards, even if a later step fails.
    restore_parameters(model, &deq)?;
    let quantized: Vec<Tensor> = clips.iter().map(|c| model.predict(c)).collect();
    restore_parameters(model, &ckpt.params)?;

    let mut rmse_max = 0f32;
    let mut ssim_min = 1f32;
    for (q, r) in quantized.iter().zip(&reference) {
        rmse_max = rmse_max.max(rmse(q, r));
        if q.rank() == 3 {
            ssim_min = ssim_min.min(ssim(q, r));
        }
    }
    let quant_bytes: usize = slots
        .iter()
        .map(|s| match s {
            QuantSlot::F32(t) => t.len() * 4,
            QuantSlot::I8(q) => q.codes.len() + q.scales.len() * 4,
        })
        .sum();
    let f32_bytes: usize = ckpt.params.iter().map(|t| t.len() * 4).sum();
    let report = QuantReport {
        rmse_max,
        ssim_min,
        clips: clips.len(),
        quant_bytes,
        f32_bytes,
    };
    if rmse_max > budgets.max_rmse || ssim_min < budgets.min_ssim {
        return Err(PebError::config(format!(
            "PTQ budget violated: rmse_max {rmse_max:.5} (budget {:.5}), ssim_min {ssim_min:.5} \
             (budget {:.5}) over {} clips",
            budgets.max_rmse,
            budgets.min_ssim,
            clips.len()
        )));
    }
    let mut out = ckpt.clone();
    out.params = Vec::new();
    out.opt_m = Vec::new();
    out.opt_v = Vec::new();
    out.quant = Some(slots);
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_guard::OptKind;

    #[test]
    fn slot_quantization_respects_rank_rule() {
        let w = Tensor::from_fn(&[4, 6], |i| (i as f32 - 12.0) * 0.1);
        match quantize_slot(&w) {
            QuantSlot::I8(q) => {
                assert_eq!(q.shape, vec![4, 6]);
                assert_eq!(q.scales.len(), 4);
                assert_eq!(q.codes.len(), 24);
            }
            QuantSlot::F32(_) => panic!("rank-2 weight must quantize"),
        }
        let bias = Tensor::from_fn(&[6], |i| i as f32);
        assert!(matches!(quantize_slot(&bias), QuantSlot::F32(_)));
    }

    #[test]
    fn dequantize_roundtrip_error_is_half_step() {
        let w = Tensor::from_fn(&[3, 40], |i| ((i * 29) % 83) as f32 / 41.0 - 1.0);
        let slot = quantize_slot(&w);
        let back = dequantize_slot(&slot).expect("consistent slot");
        assert_eq!(back.shape(), w.shape());
        for (ch, (row, brow)) in w
            .data()
            .chunks_exact(40)
            .zip(back.data().chunks_exact(40))
            .enumerate()
        {
            let absmax = row.iter().fold(0f32, |m, &x| m.max(x.abs()));
            let half = absmax / 127.0 * 0.5 + 1e-7;
            for (x, b) in row.iter().zip(brow) {
                assert!((x - b).abs() <= half, "ch {ch}: {x} vs {b}");
            }
        }
    }

    #[test]
    fn inconsistent_slot_is_shape_error() {
        let mut q = match quantize_slot(&Tensor::from_fn(&[2, 3], |i| i as f32)) {
            QuantSlot::I8(q) => q,
            QuantSlot::F32(_) => panic!("must quantize"),
        };
        q.scales.pop();
        assert!(dequantize_slot(&QuantSlot::I8(q)).is_err());
    }

    #[test]
    fn zero_channels_dequantize_to_zero() {
        let w = Tensor::zeros(&[2, 5]);
        let back = dequantize_slot(&quantize_slot(&w)).expect("slot");
        assert!(back.data().iter().all(|&v| v == 0.0));
    }

    fn ckpt_of(params: Vec<Tensor>) -> TrainCheckpoint {
        TrainCheckpoint {
            epoch: 1,
            seed: 7,
            opt_kind: OptKind::Adam,
            opt_t: 1,
            lr_scale: 1.0,
            rollbacks: 0,
            epoch_stats: Vec::new(),
            params,
            opt_m: Vec::new(),
            opt_v: Vec::new(),
            quant: None,
        }
    }

    #[test]
    fn checkpoint_params_dispatches_on_frame_version() {
        let plain = ckpt_of(vec![Tensor::from_fn(&[2, 2], |i| i as f32)]);
        assert_eq!(checkpoint_params(&plain).expect("v1").len(), 1);
        let mut quantized = ckpt_of(Vec::new());
        quantized.quant = Some(vec![quantize_slot(&Tensor::from_fn(&[2, 2], |i| i as f32))]);
        let back = checkpoint_params(&quantized).expect("v2");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].shape(), &[2, 2]);
    }

    // A linear probe model: y = scale ⊙ broadcast over the clip. Its
    // prediction error under weight quantization is exactly the weight
    // quantization error, which makes budget arithmetic testable.
    struct Probe(peb_tensor::Var);

    impl peb_nn::Parameterized for Probe {
        fn parameters(&self) -> Vec<peb_tensor::Var> {
            vec![self.0.clone()]
        }
    }

    impl PebPredictor for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn forward_train(&self, acid: &Tensor) -> peb_tensor::Var {
            // Mean of the weight matrix scales the whole clip.
            let m = self.0.value().data().iter().sum::<f32>() / self.0.value().len() as f32;
            peb_tensor::Var::constant(acid.mul_scalar(m))
        }
    }

    #[test]
    fn quantize_checkpoint_gates_and_restores_model() {
        let w = Tensor::from_fn(&[2, 8], |i| ((i * 13) % 17) as f32 / 17.0 - 0.5);
        let model = Probe(peb_tensor::Var::parameter(w.clone()));
        let ckpt = ckpt_of(vec![w.clone()]);
        let clips: Vec<Tensor> = (0..3)
            .map(|s| Tensor::from_fn(&[2, 6, 6], |i| ((i + s * 31) % 11) as f32 / 11.0))
            .collect();
        let (qckpt, report) =
            quantize_checkpoint(&model, &ckpt, &clips, QuantBudgets::default()).expect("gates");
        assert!(qckpt.params.is_empty());
        assert!(qckpt.quant.is_some());
        assert_eq!(report.clips, 3);
        assert!(report.rmse_max <= QuantBudgets::default().max_rmse);
        assert!(report.ssim_min >= QuantBudgets::default().min_ssim);
        assert!(report.quant_bytes < report.f32_bytes);
        // Model weights are untouched.
        for (a, b) in model.0.value().data().iter().zip(w.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The quantized frame round-trips the wire format.
        let wire = qckpt.to_bytes();
        let back = TrainCheckpoint::from_bytes(&wire).expect("wire");
        assert_eq!(back.quant, qckpt.quant);
        // An impossible budget refuses to quantize and leaves weights
        // intact.
        let impossible = QuantBudgets {
            max_rmse: 0.0,
            min_ssim: 1.1,
        };
        assert!(quantize_checkpoint(&model, &ckpt, &clips, impossible).is_err());
        for (a, b) in model.0.value().data().iter().zip(w.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // No clips → config error.
        assert!(quantize_checkpoint(&model, &ckpt, &[], QuantBudgets::default()).is_err());
    }
}
