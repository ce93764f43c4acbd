//! Property-based tests for the selective scan and scan orderings.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use peb_mamba::{selective_scan, CausalDwConv1d, ScanDirection, SsmBlock, Walk};
use peb_nn::Parameterized;
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
        let len = d * h * w;
        for dir in ScanDirection::ALL {
            let walk = dir.walk((d, h, w));
            prop_assert!(walk.spans(len));
            let rows: Vec<usize> = (0..len).map(|t| walk.row(t)).collect();
            prop_assert_eq!(&rows, &gather_indices(dir, (d, h, w)), "{:?}", dir);
            let mut seen = vec![false; len];
            for &i in &rows {
                prop_assert!(!seen[i]);
                seen[i] = true;
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

/// The rows of each direction's order by the index formula of the
/// gathered copies the walks replaced: a gathered copy holds canonical
/// row `idx[t]` at row `t`.
fn gather_indices(dir: ScanDirection, (d, h, w): (usize, usize, usize)) -> Vec<usize> {
    let len = d * h * w;
    match dir {
        ScanDirection::DepthForward => (0..len).collect(),
        ScanDirection::DepthBackward => (0..len).rev().collect(),
        ScanDirection::Spatial => {
            let mut idx = Vec::with_capacity(len);
            for hy in 0..h {
                for wx in 0..w {
                    for dz in 0..d {
                        idx.push((dz * h + hy) * w + wx);
                    }
                }
            }
            idx
        }
    }
}

/// Row `t` of the result is row `idx[t]` of `x`.
fn gather(x: &Tensor, idx: &[usize]) -> Tensor {
    let c = x.len() / idx.len();
    let rows = idx.iter().flat_map(|&r| x.data()[r * c..][..c].to_vec());
    Tensor::from_vec(rows.collect(), x.shape()).unwrap()
}

/// The inverse of [`gather`]: row `idx[t]` of the result is row `t`.
fn scatter(x: &Tensor, idx: &[usize]) -> Tensor {
    let c = x.len() / idx.len();
    let mut out = x.clone();
    for (t, &r) in idx.iter().enumerate() {
        out.data_mut()[r * c..][..c].copy_from_slice(&x.data()[t * c..][..c]);
    }
    out
}

/// Runs `f` at every dispatch level and at 1, 3 and 7 threads.
fn at_every_level_and_odd_threads(mut f: impl FnMut(ExecCtx)) {
    for level in ctx::levels() {
        for threads in [1, 3, 7] {
            f(ExecCtx {
                level,
                threads,
                ..ctx::current()
            });
        }
    }
}

/// `layer(x)` and its weighted-sum gradients: `(y, dx, parameter grads)`.
fn forward_backward(
    layer: &dyn Fn(&Var) -> Var,
    params: &[Var],
    x: &Tensor,
    weights: &Tensor,
) -> (Tensor, Tensor, Vec<Tensor>) {
    params.iter().for_each(Var::zero_grad);
    let xv = Var::parameter(x.clone());
    let y = layer(&xv);
    y.weighted_sum(weights).backward();
    let grads = params.iter().map(|p| p.grad().unwrap()).collect();
    (y.value_clone(), xv.grad().unwrap(), grads)
}

const WALK_DIMS: [(usize, usize, usize); 3] = [(3, 2, 5), (1, 4, 3), (7, 1, 1)];

#[test]
fn walked_conv1d_is_the_plain_one_on_the_gathered_rows_bitwise() {
    // The walk only moves addresses: each output, dx, dW and db element is
    // the same sum in the same order as the plain layer's on the rows
    // gathered into walk order, whose dx scatters back.
    let mut rng = StdRng::seed_from_u64(80);
    for dims in WALK_DIMS {
        let l = dims.0 * dims.1 * dims.2;
        for c in [1, 9] {
            let conv = CausalDwConv1d::new(c, 3, &mut rng);
            let x = Tensor::randn(&[l, c], &mut rng);
            let g = Tensor::randn(&[l, c], &mut rng);
            let params = conv.parameters();
            for dir in ScanDirection::ALL {
                let idx = gather_indices(dir, dims);
                at_every_level_and_odd_threads(|at| {
                    let (y, dx, dp) = ctx::with(at, || {
                        forward_backward(&|v| conv.forward(v, dir.walk(dims)), &params, &x, &g)
                    });
                    let (wy, wdx, wdp) = ctx::with(at, || {
                        let conv = |v: &Var| conv.forward(v, Walk::Forward);
                        forward_backward(&conv, &params, &gather(&x, &idx), &g)
                    });
                    let what = format!("{dims:?} c={c} {dir:?} {at:?}");
                    assert_eq!(y.bit_digest(), wy.bit_digest(), "{what}: y");
                    assert_eq!(
                        dx.bit_digest(),
                        scatter(&wdx, &idx).bit_digest(),
                        "{what}: dx"
                    );
                    for (p, (got, want)) in dp.iter().zip(&wdp).enumerate() {
                        assert_eq!(got.bit_digest(), want.bit_digest(), "{what}: param {p}");
                    }
                });
            }
        }
    }
}

#[test]
fn walked_ssm_block_is_the_plain_one_scattered_back_bitwise() {
    // The drive side stays in step order, so every projection, its
    // gradients and the scan's run exactly as in the plain block; only
    // the output (and its gradient) sits in the walk's rows.
    let mut rng = StdRng::seed_from_u64(81);
    for dims in WALK_DIMS {
        let l = dims.0 * dims.1 * dims.2;
        for c in [7, 19] {
            let block = SsmBlock::new(c, 4, &mut rng);
            let x = Tensor::randn(&[l, c], &mut rng);
            let g = Tensor::randn(&[l, c], &mut rng);
            let params = block.parameters();
            for dir in ScanDirection::ALL {
                let idx = gather_indices(dir, dims);
                at_every_level_and_odd_threads(|at| {
                    let (y, dx, dp) = ctx::with(at, || {
                        forward_backward(&|v| block.forward(v, dir.walk(dims)), &params, &x, &g)
                    });
                    let (wy, wdx, wdp) = ctx::with(at, || {
                        let block = |v: &Var| block.forward(v, Walk::Forward);
                        forward_backward(&block, &params, &x, &gather(&g, &idx))
                    });
                    let what = format!("{dims:?} c={c} {dir:?} {at:?}");
                    assert_eq!(y.bit_digest(), scatter(&wy, &idx).bit_digest(), "{what}: y");
                    assert_eq!(dx.bit_digest(), wdx.bit_digest(), "{what}: dx");
                    for (p, (got, want)) in dp.iter().zip(&wdp).enumerate() {
                        assert_eq!(got.bit_digest(), want.bit_digest(), "{what}: param {p}");
                    }
                });
            }
        }
    }
}
