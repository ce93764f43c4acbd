//! Inverse lithography (ILT) with a differentiable surrogate.
//!
//! The inner loop of ILT asks: *which photoacid distribution makes the
//! baked inhibitor field match a target pattern?* With SDM-PEB as a
//! differentiable surrogate for the bake, each iteration is one
//! forward + backward sweep through the autograd tape from the mask to a
//! scalar objective, followed by a projected gradient step on the mask.
//!
//! ```sh
//! cargo run --release -p sdm-peb --example ilt
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use peb_tensor::{Tensor, Var};
use sdm_peb::{PebPredictor, SdmPeb, SdmPebConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dims = (4usize, 32usize, 32usize);
    let mut rng = StdRng::seed_from_u64(11);
    let model = SdmPeb::new(SdmPebConfig::tiny(dims), &mut rng);

    // A self-consistent inverse problem: pick a "true" photoacid field,
    // run it through the surrogate to get the target inhibitor pattern,
    // then recover the field from a corrupted initial guess. (A real ILT
    // flow would use a trained surrogate and a drawn target layout; the
    // optimisation mechanics are identical.)
    let shape = [dims.0, dims.1, dims.2];
    let truth = Tensor::rand_uniform(&shape, 0.1, 0.9, &mut rng);
    let target = model.predict(&truth);
    let noisy = Tensor::rand_uniform(&shape, -0.25, 0.25, &mut rng);
    let init = truth
        .zip_map(&noisy, |t, n| (t + n).clamp(0.0, 1.0))
        .expect("same shape");

    // The mask is a `Var::parameter` so `backward()` deposits a gradient
    // on it; model parameters stay frozen (their grads are zeroed, never
    // applied).
    let mask = Var::parameter(init);
    let params = {
        use peb_nn::Parameterized;
        model.parameters()
    };

    println!(
        "optimising a {}×{}×{} photoacid field through the surrogate …",
        dims.0, dims.1, dims.2
    );
    let lr = 4.0f32;
    let steps = 12;
    for it in 0..=steps {
        let y = model.forward_var(&mask);
        let obj = y.sub(&Var::constant(target.clone())).square().mean();
        obj.backward();
        let grad = mask.grad().expect("mask gradient after backward");
        mask.zero_grad();
        for p in &params {
            p.zero_grad();
        }
        apply_step(&mask, &grad, lr);
        if it % 3 == 0 {
            println!("iter {it:2}  objective {:.6}", obj.value().item());
        }
    }

    let recovered = mask.value_clone();
    let err = recovered
        .zip_map(&truth, |a, b| (a - b) * (a - b))
        .expect("same shape")
        .mean()
        .sqrt();
    println!("done: mask RMSE vs truth {err:.4}");
    Ok(())
}

/// Projected gradient-descent update: step against the surrogate
/// gradient, then clamp back into the physical exposure range.
fn apply_step(mask: &Var, grad: &Tensor, lr: f32) {
    let updated = mask
        .value_clone()
        .zip_map(grad, |v, g| (v - lr * g).clamp(0.0, 1.0))
        .expect("gradient matches mask shape");
    mask.set_value(updated);
}
