//! Property-based tests for the selective scan and scan orderings.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use peb_mamba::{selective_scan, ScanDirection, ScanOrder};
use peb_tensor::{Tensor, Var};

struct Fixed {
    delta: Var,
    a: Var,
    b: Var,
    c: Var,
    d: Var,
}

fn fixed(l: usize, ch: usize, n: usize, seed: u64) -> Fixed {
    let mut rng = StdRng::seed_from_u64(seed);
    Fixed {
        delta: Var::constant(Tensor::rand_uniform(&[l, ch], 0.05, 0.5, &mut rng)),
        a: Var::constant(Tensor::rand_uniform(&[ch, n], -1.5, -0.2, &mut rng)),
        b: Var::constant(Tensor::randn(&[l, n], &mut rng)),
        c: Var::constant(Tensor::randn(&[l, n], &mut rng)),
        d: Var::constant(Tensor::randn(&[ch], &mut rng)),
    }
}

fn run(u: &Tensor, f: &Fixed) -> Tensor {
    selective_scan(&Var::constant(u.clone()), &f.delta, &f.a, &f.b, &f.c, &f.d).value_clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scan_is_linear_in_the_drive_for_fixed_parameters(
        seed in 0u64..500,
        alpha in -2.0f32..2.0,
    ) {
        // With Δ, B, C, D fixed (not input-derived), the recurrence is a
        // linear map of u.
        let (l, ch, n) = (7, 2, 3);
        let f = fixed(l, ch, n, seed);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let u1 = Tensor::randn(&[l, ch], &mut rng);
        let u2 = Tensor::randn(&[l, ch], &mut rng);
        let lhs = run(&u1.mul_scalar(alpha).add_t(&u2).unwrap(), &f);
        let rhs = run(&u1, &f).mul_scalar(alpha).add_t(&run(&u2, &f)).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn scan_is_causal(seed in 0u64..500, t_perturb in 0usize..7) {
        // Changing the input at time t must not affect outputs before t.
        let (l, ch, n) = (7, 2, 2);
        let f = fixed(l, ch, n, seed);
        let mut rng = StdRng::seed_from_u64(seed + 2);
        let u = Tensor::randn(&[l, ch], &mut rng);
        let mut up = u.clone();
        up.set(&[t_perturb, 0], up.get(&[t_perturb, 0]) + 3.0);
        let y = run(&u, &f);
        let yp = run(&up, &f);
        for t in 0..t_perturb {
            for c in 0..ch {
                prop_assert_eq!(y.get(&[t, c]), yp.get(&[t, c]), "leak at t={}", t);
            }
        }
    }

    #[test]
    fn scan_orders_are_bijective(d in 1usize..4, h in 1usize..5, w in 1usize..5) {
        for dir in ScanDirection::ALL {
            let order = ScanOrder::new(dir, (d, h, w));
            prop_assert_eq!(order.len(), d * h * w);
            let mut seen = vec![false; order.len()];
            for &i in &order.indices {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
            for (t, &src) in order.indices.iter().enumerate() {
                prop_assert_eq!(order.inverse[src], t);
            }
        }
    }

    #[test]
    fn state_is_bounded_for_bounded_inputs(seed in 0u64..500) {
        // Negative A and bounded Δ give a contraction: outputs cannot
        // exceed the geometric-series bound.
        let (l, ch, n) = (64, 2, 2);
        let f = fixed(l, ch, n, seed);
        let u = Tensor::ones(&[l, ch]);
        let y = run(&u, &f);
        prop_assert!(y.data().iter().all(|v| v.is_finite() && v.abs() < 1e3));
    }
}
