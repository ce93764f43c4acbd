//! The common interface every learned PEB solver implements.

use peb_nn::Parameterized;
use peb_tensor::{Tensor, Var};

/// A trainable model mapping photoacid volumes to label-space inhibitor
/// predictions (`Y = −ln(−ln([I]) / k_c)`).
///
/// Both SDM-PEB and all Table II baselines implement this trait, which is
/// what the shared [`crate::Trainer`] and the benchmark harness consume.
pub trait PebPredictor: Parameterized {
    /// Human-readable model name (as printed in Table II).
    fn name(&self) -> &'static str;

    /// Differentiable forward pass for training.
    fn forward_train(&self, acid: &Tensor) -> Var;

    /// Inference: returns the label-space prediction tensor.
    ///
    /// Runs [`PebPredictor::forward_train`] inside `peb_tensor::no_grad`:
    /// the same kernels and the same bits, but nothing is recorded, so
    /// every intermediate returns to the pool as soon as it is consumed.
    fn predict(&self, acid: &Tensor) -> Tensor {
        let _span = peb_obs::span("model.predict");
        peb_tensor::no_grad(|| self.forward_train(acid)).value_clone()
    }

    /// Batched inference: one engine invocation over `clips`, returning
    /// one prediction per clip in order.
    ///
    /// **Bitwise contract:** the result for clip `i` is bit-identical to
    /// `self.predict(&clips[i])` — batching (any size, any arrival
    /// order) must never change a single output bit. On this CPU
    /// backend the clips stream one at a time through the tiled/fused
    /// kernel path (which already saturates the cores via `peb-par`); a
    /// literal 5-D batch axis would re-bracket GEMM accumulation and
    /// break that contract, so the batch win here is amortised dispatch
    /// and pooled-buffer reuse across the batch, not kernel-level
    /// batching. `peb-serve` relies on this contract for its dynamic
    /// batcher (see DESIGN §12).
    fn predict_batch(&self, clips: &[Tensor]) -> Vec<Tensor> {
        let _span = peb_obs::span("model.predict_batch");
        clips.iter().map(|clip| self.predict(clip)).collect()
    }
}

/// Copies checkpointed parameter values into a model, in
/// [`Parameterized::parameters`] order.
///
/// This is the serving half of the `PEBCKPT1` round trip: a registry
/// builds the architecture once and splices successive checkpoints'
/// weights in. Values are validated *before* any write, so a mismatch
/// leaves the model untouched.
///
/// # Errors
///
/// Returns [`peb_guard::PebError::Shape`] when the tensor count or any
/// tensor's shape disagrees with the model's parameters.
pub fn restore_parameters<M: Parameterized + ?Sized>(
    model: &M,
    values: &[Tensor],
) -> peb_guard::Result<()> {
    let params = model.parameters();
    if params.len() != values.len() {
        return Err(peb_guard::PebError::shape(format!(
            "parameter count mismatch: model has {}, checkpoint holds {}",
            params.len(),
            values.len()
        )));
    }
    for (i, (p, v)) in params.iter().zip(values).enumerate() {
        if p.shape() != v.shape() {
            return Err(peb_guard::PebError::shape(format!(
                "parameter {i} shape mismatch: model {:?}, checkpoint {:?}",
                p.shape(),
                v.shape()
            )));
        }
    }
    for (p, v) in params.iter().zip(values) {
        p.set_value(v.clone());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Constant(Var);

    impl Parameterized for Constant {
        fn parameters(&self) -> Vec<Var> {
            vec![self.0.clone()]
        }
    }

    impl PebPredictor for Constant {
        fn name(&self) -> &'static str {
            "constant"
        }
        fn forward_train(&self, acid: &Tensor) -> Var {
            // Broadcast one scalar parameter over the volume.
            Var::constant(Tensor::zeros(acid.shape())).add(&self.0)
        }
    }

    #[test]
    fn default_predict_uses_forward() {
        let m = Constant(Var::parameter(Tensor::scalar(2.5)));
        let y = m.predict(&Tensor::zeros(&[2, 2, 2]));
        assert_eq!(y.shape(), &[2, 2, 2]);
        assert_eq!(y.data()[0], 2.5);
        assert_eq!(m.name(), "constant");
    }

    #[test]
    fn predict_batch_matches_sequential_bitwise() {
        let m = Constant(Var::parameter(Tensor::scalar(1.25)));
        let clips: Vec<Tensor> = (0..3)
            .map(|i| Tensor::full(&[2, 2, 2], i as f32 * 0.1))
            .collect();
        let batched = m.predict_batch(&clips);
        assert_eq!(batched.len(), clips.len());
        for (clip, out) in clips.iter().zip(&batched) {
            assert_eq!(out.bit_digest(), m.predict(clip).bit_digest());
        }
    }

    #[test]
    fn restore_parameters_validates_then_writes() {
        let m = Constant(Var::parameter(Tensor::scalar(0.0)));
        // Wrong count.
        assert!(restore_parameters(&m, &[]).is_err());
        // Wrong shape leaves the model untouched.
        assert!(restore_parameters(&m, &[Tensor::zeros(&[3])]).is_err());
        assert_eq!(m.0.value().item(), 0.0);
        restore_parameters(&m, &[Tensor::scalar(7.5)]).expect("restore");
        assert_eq!(m.0.value().item(), 7.5);
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn PebPredictor> = Box::new(Constant(Var::parameter(Tensor::scalar(0.0))));
        assert_eq!(boxed.parameters().len(), 1);
    }
}
