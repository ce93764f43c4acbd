//! Property-based tests for the selective scan and scan orderings.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use peb_mamba::{selective_scan, ScanDirection, ScanOrder};
use peb_par::ctx::{self, ExecCtx};
use peb_tensor::{check_gradients, Tensor, Var};

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

/// Channel widths the properties run at: one lane group, padded tails of
/// 1, 3, 4 and 7 lanes, and several groups (the model's stage widths are
/// 12, 24, 36 and 48).
const WIDTHS: [usize; 8] = [1, 7, 8, 9, 12, 19, 36, 48];

/// Finite-difference check of all six operands' gradients at `ch`
/// channels, at the calling thread's dispatch level.
fn gradcheck_all_operands(ch: usize) {
    let (l, n) = (5usize, 3usize);
    let mut rng = StdRng::seed_from_u64(60 + ch as u64);
    let ops = [
        Tensor::randn(&[l, ch], &mut rng),
        Tensor::rand_uniform(&[l, ch], 0.05, 0.5, &mut rng),
        Tensor::rand_uniform(&[ch, n], -1.5, -0.2, &mut rng),
        Tensor::randn(&[l, n], &mut rng),
        Tensor::randn(&[l, n], &mut rng),
        Tensor::randn(&[ch], &mut rng),
    ];
    let weights = Tensor::randn(&[l, ch], &mut rng);
    let names = ["u", "delta", "a", "b", "c", "d"];
    for (i, name) in names.iter().enumerate() {
        // Δ sits inside the exponent: a smaller step keeps the central
        // difference's truncation error under the tolerance.
        let eps = if i == 1 { 1e-3 } else { 1e-2 };
        let report = check_gradients(
            &Var::parameter(ops[i].clone()),
            |v| {
                let vars: Vec<Var> = (0..6)
                    .map(|j| {
                        if j == i {
                            v.clone()
                        } else {
                            Var::constant(ops[j].clone())
                        }
                    })
                    .collect();
                selective_scan(&vars[0], &vars[1], &vars[2], &vars[3], &vars[4], &vars[5])
                    .weighted_sum(&weights)
            },
            eps,
        );
        assert!(
            report.ok(3e-2),
            "ch={ch} {name}: max rel err {}",
            report.max_rel_err
        );
    }
}

#[test]
fn gradcheck_all_operands_on_padded_and_multi_group_widths() {
    for level in ctx::levels() {
        let at = ExecCtx {
            level,
            ..ctx::current()
        };
        for ch in [12, 19] {
            ctx::with(at, || gradcheck_all_operands(ch));
        }
    }
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
        for ch in WIDTHS {
            let (l, n) = (7, 3);
            let f = fixed(l, ch, n, seed);
            let mut rng = StdRng::seed_from_u64(seed + 1);
            let u1 = Tensor::randn(&[l, ch], &mut rng);
            let u2 = Tensor::randn(&[l, ch], &mut rng);
            let lhs = run(&u1.mul_scalar(alpha).add_t(&u2).unwrap(), &f);
            let rhs = run(&u1, &f).mul_scalar(alpha).add_t(&run(&u2, &f)).unwrap();
            prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3, "ch={}", ch);
        }
    }

    #[test]
    fn scan_is_causal(seed in 0u64..500, t_perturb in 0usize..7) {
        // Changing the input at time t must not affect outputs before t.
        for ch in WIDTHS {
            let (l, n) = (7, 2);
            let f = fixed(l, ch, n, seed);
            let mut rng = StdRng::seed_from_u64(seed + 2);
            let u = Tensor::randn(&[l, ch], &mut rng);
            // Perturb the first and the last channel: the last is the
            // padded tail's last real lane.
            let mut up = u.clone();
            for c in [0, ch - 1] {
                up.set(&[t_perturb, c], u.get(&[t_perturb, c]) + 3.0);
            }
            let y = run(&u, &f);
            let yp = run(&up, &f);
            for t in 0..t_perturb {
                for c in 0..ch {
                    prop_assert_eq!(y.get(&[t, c]), yp.get(&[t, c]), "ch={} leak at t={}", ch, t);
                }
            }
            // … while each perturbed channel does respond at t.
            for c in [0, ch - 1] {
                prop_assert!(
                    y.get(&[t_perturb, c]) != yp.get(&[t_perturb, c]),
                    "ch={} c={} deaf",
                    ch,
                    c
                );
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
        for ch in WIDTHS {
            let (l, n) = (64, 2);
            let f = fixed(l, ch, n, seed);
            let u = Tensor::ones(&[l, ch]);
            let y = run(&u, &f);
            prop_assert!(y.data().iter().all(|v| v.is_finite() && v.abs() < 1e3), "ch={}", ch);
        }
    }
}
