//! Finite-difference gradient checks for the fusion block and decoder
//! head — the two model components assembled in `peb-core` rather than
//! imported from `peb-nn`/`peb-mamba` (whose own suites already gradcheck
//! their layers).
//!
//! Inputs are checked with `check_gradients`; one representative
//! parameter per block is checked by perturbing the parameter in place
//! and comparing the analytic gradient against central differences.

use peb_nn::Parameterized;
use peb_tensor::{check_gradients, numeric_gradient, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{Decoder, FeatureFusion};

/// Analytic-vs-numeric check on one parameter of a module whose forward
/// pass is captured by `f` (a pure scalar loss of the current weights).
fn param_gradcheck(param: &Var, all: &[Var], f: impl Fn() -> Var, eps: f32, tol: f32) {
    let p0 = param.value_clone();
    all.iter().for_each(|p| p.zero_grad());
    f().backward();
    let analytic = param.grad().expect("parameter got no gradient");
    let numeric = numeric_gradient(
        &p0,
        |v| {
            param.set_value(v.value_clone());
            f()
        },
        eps,
    );
    param.set_value(p0);
    let mut max_rel = 0f32;
    for (&a, &n) in analytic.data().iter().zip(numeric.data()) {
        max_rel = max_rel.max((a - n).abs() / 1f32.max(a.abs()).max(n.abs()));
    }
    assert!(
        max_rel <= tol,
        "parameter gradcheck failed: {max_rel} > {tol}"
    );
}

#[test]
fn fusion_input_gradcheck() {
    let mut rng = StdRng::seed_from_u64(301);
    let fusion = FeatureFusion::new(&[2, 4], 4, 8, &mut rng);
    let s1 = Tensor::randn(&[2, 2, 4, 4], &mut rng);
    let s2 = Var::constant(Tensor::randn(&[4, 2, 2, 2], &mut rng));
    let r = check_gradients(
        &Var::parameter(s1),
        |v| fusion.forward(&[v.clone(), s2.clone()]).square().sum(),
        1e-2,
    );
    assert!(r.ok(3e-2), "finest stage: {}", r.max_rel_err);
    // The coarser stage flows through the nearest-neighbour upsample too.
    let s1 = Var::constant(Tensor::randn(&[2, 2, 4, 4], &mut rng));
    let s2 = Tensor::randn(&[4, 2, 2, 2], &mut rng);
    let r = check_gradients(
        &Var::parameter(s2),
        |v| fusion.forward(&[s1.clone(), v.clone()]).square().sum(),
        1e-2,
    );
    assert!(r.ok(3e-2), "coarse stage: {}", r.max_rel_err);
}

#[test]
fn fusion_parameter_gradcheck() {
    let mut rng = StdRng::seed_from_u64(302);
    let fusion = FeatureFusion::new(&[2, 4], 4, 8, &mut rng);
    let s1 = Var::constant(Tensor::randn(&[2, 2, 4, 4], &mut rng));
    let s2 = Var::constant(Tensor::randn(&[4, 2, 2, 2], &mut rng));
    let params = fusion.parameters();
    // First projection weight — representative of every linear path.
    param_gradcheck(
        &params[0],
        &params,
        || fusion.forward(&[s1.clone(), s2.clone()]).square().sum(),
        1e-2,
        3e-2,
    );
}

#[test]
fn three_stage_fusion_gradcheck() {
    // Factors 2 then 2 (a total of 4) on non-square planes: the coarsest
    // stage reaches stage 1 through two upsample-accumulates, the middle
    // one through one.
    let mut rng = StdRng::seed_from_u64(303);
    let fusion = FeatureFusion::new(&[2, 3, 4], 3, 6, &mut rng);
    let dims = [(4, 8), (2, 4), (1, 2)];
    let stages: Vec<Var> = [2, 3, 4]
        .iter()
        .zip(dims)
        .map(|(&c, (h, w))| Var::constant(Tensor::randn(&[c, 2, h, w], &mut rng)))
        .collect();
    for i in 0..3 {
        let r = check_gradients(
            &Var::parameter(stages[i].value_clone()),
            |v| {
                let mut inputs = stages.clone();
                inputs[i] = v.clone();
                fusion.forward(&inputs).square().sum()
            },
            1e-2,
        );
        assert!(r.ok(3e-2), "stage {i}: {}", r.max_rel_err);
    }
    let params = fusion.parameters();
    // The coarsest projection's weight, fc1's weight (read per stage
    // block and by the folded bias) and the middle projection's bias.
    for idx in [4, 6, 3] {
        param_gradcheck(
            &params[idx],
            &params,
            || fusion.forward(&stages).square().sum(),
            1e-2,
            3e-2,
        );
    }
}

#[test]
fn decoder_input_and_skip_gradcheck() {
    // Seed picked so no LeakyReLU pre-activation sits within ±eps of its
    // kink, where central differences straddle both slopes.
    let mut rng = StdRng::seed_from_u64(305);
    let dec = Decoder::new(4, 2, 1, &mut rng);
    let x = Tensor::randn(&[4, 2, 2, 2], &mut rng);
    let skip = Var::constant(Tensor::randn(&[1, 2, 4, 4], &mut rng));
    let r = check_gradients(
        &Var::parameter(x),
        |v| dec.forward(v, Some(&skip)).square().sum(),
        1e-2,
    );
    assert!(r.ok(3e-2), "latent input: {}", r.max_rel_err);
    let x = Var::constant(Tensor::randn(&[4, 2, 2, 2], &mut rng));
    let skip = Tensor::randn(&[1, 2, 4, 4], &mut rng);
    let r = check_gradients(
        &Var::parameter(skip),
        |v| dec.forward(&x, Some(v)).square().sum(),
        1e-2,
    );
    assert!(r.ok(3e-2), "skip input: {}", r.max_rel_err);
}

#[test]
fn decoder_parameter_gradcheck() {
    let mut rng = StdRng::seed_from_u64(304);
    let dec = Decoder::new(4, 2, 1, &mut rng);
    let x = Var::constant(Tensor::randn(&[4, 2, 2, 2], &mut rng));
    let skip = Var::constant(Tensor::randn(&[1, 2, 4, 4], &mut rng));
    let params = dec.parameters();
    // The last parameter belongs to the refinement head — the layer the
    // skip path feeds, and the one PR 2's decoder rework touched.
    let last = params.len() - 1;
    param_gradcheck(
        &params[last],
        &params,
        || dec.forward(&x, Some(&skip)).square().sum(),
        1e-2,
        3e-2,
    );
}
