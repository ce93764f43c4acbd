//! A tour of the spatial-depthwise Mamba machinery: the selective-scan
//! recurrence, the three PEB scan orderings, and a full SDM unit.
//!
//! ```sh
//! cargo run --release -p sdm-peb --example selective_scan_tour
//! ```

use peb_mamba::{selective_scan, ScanDirection, SdmUnit, SdmUnitConfig};
use peb_tensor::{Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. The raw recurrence: an impulse decaying through the state.
    let l = 10usize;
    let mut u = Tensor::zeros(&[l, 1]);
    u.set(&[0, 0], 1.0);
    let delta = Tensor::full(&[l, 1], 0.4);
    let a = Tensor::from_vec(vec![-1.0], &[1, 1]).unwrap();
    let b = Tensor::ones(&[l, 1]);
    let c = Tensor::ones(&[l, 1]);
    let d = Tensor::zeros(&[1]);
    let y = selective_scan(
        &Var::constant(u),
        &Var::constant(delta),
        &Var::constant(a),
        &Var::constant(b),
        &Var::constant(c),
        &Var::constant(d),
    );
    println!("impulse response of the SSM (A = −1, Δ = 0.4):");
    for (t, v) in y.value().data().iter().enumerate() {
        println!(
            "  t={t}: {v:+.4}  {}",
            "▇".repeat((v.abs() * 40.0) as usize)
        );
    }

    // 2. The three scan orderings on a small (D=2, H=2, W=3) volume: each
    //    is a walk over the canonical rows, step t visiting row walk.row(t).
    println!("\nscan orderings over a 2×2×3 volume (canonical token ids):");
    for dir in ScanDirection::ALL {
        let walk = dir.walk((2, 2, 3));
        let rows: Vec<usize> = (0..12).map(|t| walk.row(t)).collect();
        println!("  {dir:?}: {rows:?}");
    }

    // 3. A full SDM unit: gradient flows through every parameter.
    let mut rng = StdRng::seed_from_u64(1);
    let unit = SdmUnit::new(SdmUnitConfig::new(8, 16, 4), &mut rng);
    let x = Var::constant(Tensor::randn(&[2 * 4 * 4, 8], &mut rng));
    let out = unit.forward(&x, (2, 4, 4));
    out.square().sum().backward();
    let params = peb_nn::Parameterized::parameters(&unit);
    let with_grads = params.iter().filter(|p| p.grad().is_some()).count();
    println!(
        "\nSDM unit: {} tokens → {} tokens, {} parameters, {}/{} with gradients",
        x.shape()[0],
        out.shape()[0],
        peb_nn::Parameterized::parameter_count(&unit),
        with_grads,
        params.len()
    );
}
