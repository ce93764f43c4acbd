//! Optimisers and the paper's learning-rate schedule.

use std::collections::HashMap;

use peb_tensor::{Tensor, Var, VarId};

/// Common optimiser interface.
pub trait Optimizer {
    /// Applies one update using the gradients currently stored on
    /// `params`, then leaves the gradients untouched (call
    /// [`Optimizer::zero_grad`] when the accumulation window ends).
    fn step(&mut self, params: &[Var]);

    /// Clears gradients on `params`.
    fn zero_grad(&mut self, params: &[Var]) {
        for p in params {
            p.zero_grad();
        }
    }

    /// Updates the learning rate (driven by a schedule).
    fn set_lr(&mut self, lr: f32);

    /// Current learning rate.
    fn lr(&self) -> f32;
}

/// Portable snapshot of an optimiser's internal state, keyed by
/// *parameter order* rather than by runtime [`VarId`] (ids are not stable
/// across processes, so checkpoints store slots aligned with
/// `Parameterized::parameters()`).
///
/// `None` slots mean the optimiser has not touched that parameter yet;
/// restoring them leaves the lazy-init behaviour identical to a fresh
/// run, which is what makes checkpoint/resume bitwise-faithful.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimState {
    /// Step counter (bias correction).
    pub t: u64,
    /// First moments, per parameter.
    pub m: Vec<Option<Tensor>>,
    /// Second moments, per parameter.
    pub v: Vec<Option<Tensor>>,
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: HashMap<VarId, Tensor>,
    v: HashMap<VarId, Tensor>,
}

impl Adam {
    /// Creates an Adam optimiser with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }

    /// Exports step counter and moments in `params` order.
    pub fn export_state(&self, params: &[Var]) -> OptimState {
        OptimState {
            t: self.t as u64,
            m: params
                .iter()
                .map(|p| self.m.get(&p.id()).cloned())
                .collect(),
            v: params
                .iter()
                .map(|p| self.v.get(&p.id()).cloned())
                .collect(),
        }
    }

    /// Restores state exported by [`Adam::export_state`], re-keying the
    /// slots onto the current [`VarId`]s of `params`. The restored
    /// trajectory is bitwise identical to the exporting run's.
    pub fn restore_state(&mut self, params: &[Var], state: &OptimState) {
        self.t = state.t as i32;
        self.m.clear();
        self.v.clear();
        for (p, slot) in params.iter().zip(&state.m) {
            if let Some(t) = slot {
                self.m.insert(p.id(), t.clone());
            }
        }
        for (p, slot) in params.iter().zip(&state.v) {
            if let Some(t) = slot {
                self.v.insert(p.id(), t.clone());
            }
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &[Var]) {
        let _span = peb_obs::span("optim.step");
        peb_obs::count(peb_obs::Counter::OptimSteps, 1);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for p in params {
            let Some(g) = p.grad() else { continue };
            // Moments and the parameter update run in place through the
            // vectorized `peb-simd` kernels (one pooled clone of the
            // parameter instead of ~6 temporaries per step); the
            // per-element expressions keep the exact operation order of
            // the tensor-op formulation, so results are bit-identical.
            let m = self
                .m
                .entry(p.id())
                .or_insert_with(|| Tensor::zeros(g.shape()));
            let v = self
                .v
                .entry(p.id())
                .or_insert_with(|| Tensor::zeros(g.shape()));
            peb_simd::optim::adam_moments(
                m.data_mut(),
                v.data_mut(),
                g.data(),
                self.beta1,
                self.beta2,
            );
            let (inv_bc1, inv_bc2) = (1.0 / bc1, 1.0 / bc2);
            let mut new = p.value_clone();
            peb_simd::optim::adam_apply(
                new.data_mut(),
                m.data(),
                v.data(),
                inv_bc1,
                inv_bc2,
                self.eps,
                self.lr,
            );
            p.set_value(new);
        }
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }
}

/// Step-decay schedule: a learning-rate multiplier `γ^(epoch / step)`.
///
/// The paper decays by 0.7 every 100 epochs from a base of 0.03; the
/// base rate is the optimiser's, and this schedule scales it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepDecay {
    /// Epochs between decays.
    pub step_size: usize,
    /// Multiplicative decay per step.
    pub gamma: f32,
}

impl StepDecay {
    /// Learning-rate multiplier at `epoch` (0-based).
    pub fn lr_at(&self, epoch: usize) -> f32 {
        self.gamma.powi((epoch / self.step_size) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(x0: f32) -> Var {
        Var::parameter(Tensor::scalar(x0))
    }

    #[test]
    fn adam_descends_poorly_scaled_quadratic() {
        // f(x, y) = x² + 100 y²; Adam's per-coordinate scaling handles the
        // conditioning.
        let p = Var::parameter(Tensor::from_vec(vec![3.0, 3.0], &[2]).unwrap());
        let scale = Tensor::from_vec(vec![1.0, 100.0], &[2]).unwrap();
        let mut opt = Adam::new(0.1);
        for _ in 0..200 {
            opt.zero_grad(std::slice::from_ref(&p));
            p.square().weighted_sum(&scale).backward();
            opt.step(std::slice::from_ref(&p));
        }
        assert!(
            p.value().data().iter().all(|v| v.abs() < 0.05),
            "{:?}",
            p.value()
        );
    }

    #[test]
    fn step_skips_params_without_grad() {
        let p = quadratic_param(1.0);
        let mut opt = Adam::new(0.1);
        opt.step(std::slice::from_ref(&p)); // no backward happened
        assert_eq!(p.value().item(), 1.0);
    }

    #[test]
    fn gradient_accumulation_equals_sum() {
        // Two backward passes before one step behave like a summed batch.
        let p = quadratic_param(2.0);
        p.mul_scalar(3.0).backward();
        p.mul_scalar(1.0).backward();
        assert_eq!(p.grad().expect("accumulated").item(), 4.0);
    }

    #[test]
    fn adam_state_roundtrip_continues_bitwise() {
        // Two optimisers: one runs 20 steps straight; the other exports
        // after 10, restores into a fresh instance, and runs 10 more.
        // Trajectories must agree to the bit.
        let run_steps = |p: &Var, opt: &mut Adam, n: usize| {
            for _ in 0..n {
                opt.zero_grad(std::slice::from_ref(p));
                p.square().mean().backward();
                opt.step(std::slice::from_ref(p));
            }
        };
        let a = Var::parameter(Tensor::from_vec(vec![3.0, -2.0], &[2]).unwrap());
        let b = Var::parameter(Tensor::from_vec(vec![3.0, -2.0], &[2]).unwrap());
        let mut opt_a = Adam::new(0.05);
        let mut opt_b = Adam::new(0.05);
        run_steps(&a, &mut opt_a, 20);
        run_steps(&b, &mut opt_b, 10);
        let state = opt_b.export_state(std::slice::from_ref(&b));
        let mut resumed = Adam::new(0.05);
        resumed.restore_state(std::slice::from_ref(&b), &state);
        run_steps(&b, &mut resumed, 10);
        for (x, y) in a.value().data().iter().zip(b.value().data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn untouched_params_export_empty_slots() {
        let p = quadratic_param(1.0);
        let opt = Adam::new(0.1);
        let state = opt.export_state(std::slice::from_ref(&p));
        assert_eq!(state.t, 0);
        assert_eq!(state.m, vec![None]);
        assert_eq!(state.v, vec![None]);
    }

    #[test]
    fn paper_schedule_decays() {
        let s = StepDecay {
            step_size: 100,
            gamma: 0.7,
        };
        assert_eq!(s.lr_at(0), 1.0);
        assert_eq!(s.lr_at(99), 1.0);
        assert_eq!(s.lr_at(100), 0.7);
        assert_eq!(s.lr_at(450), 0.7f32.powi(4));
    }
}
