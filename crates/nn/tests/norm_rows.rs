//! `LayerNorm` as one fused row pass against the nine-op composition it
//! replaced.
//!
//! The layer used to normalise with two axis means (a strided scalar
//! `f64` fold), a broadcast subtract, a square, `+ eps`, `√`, a broadcast
//! divide, `× γ` and `+ β`. That composition lives on here as
//! [`oracle`]; the fused pass must reproduce it to the bit at every
//! dispatch level — narrow and wide rows, row counts on and off the
//! eight-row lane groups, constant rows (zero variance) and rows offset
//! far from zero — and its `x`, `γ` and `β` gradients must be bitwise
//! identical at 1, 3 and 7 threads.

use peb_nn::{LayerNorm, Parameterized};
use peb_par::ctx::{self, levels, ExecCtx, Level};
use peb_tensor::{Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The per-row mean over the trailing axis as the removed
/// `Tensor::mean_axis` computed it for `Var::mean_axis`: an ascending
/// `f64` sum, rounded to `f32`, times `1/C`.
fn row_means(x: &Tensor) -> Tensor {
    let c = *x.shape().last().unwrap();
    let sums: Vec<f32> = x
        .data()
        .chunks(c)
        .map(|row| row.iter().fold(0f64, |a, &v| a + v as f64) as f32)
        .collect();
    let mut keep = x.shape().to_vec();
    *keep.last_mut().unwrap() = 1;
    Tensor::from_vec(sums, &keep)
        .unwrap()
        .mul_scalar(1.0 / c as f32)
}

/// The nine-op composition.
fn oracle(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
    let centred = x.sub_t(&row_means(x)).unwrap();
    let var = row_means(&centred.mul_t(&centred).unwrap());
    let sigma = var.add_scalar(eps).sqrt_t();
    centred
        .div_t(&sigma)
        .unwrap()
        .mul_t(gamma)
        .unwrap()
        .add_t(beta)
        .unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn with_ctx<R>(level: Level, threads: usize, f: impl FnOnce() -> R) -> R {
    let scoped = ExecCtx {
        level,
        threads,
        ..ctx::current()
    };
    ctx::with(scoped, f)
}

/// A layer with random `γ` and `β`.
fn layer(c: usize, rng: &mut StdRng) -> LayerNorm {
    let ln = LayerNorm::new(c);
    let p = ln.parameters();
    p[0].set_value(Tensor::randn(&[c], rng).add_scalar(1.0));
    p[1].set_value(Tensor::randn(&[c], rng));
    ln
}

/// `[rows, c]` normal samples plus `offset`, with row 0 constant.
fn input(rows: usize, c: usize, offset: f32, rng: &mut StdRng) -> Tensor {
    let mut x = Tensor::randn(&[rows, c], rng).add_scalar(offset);
    x.data_mut()[..c].fill(offset + 0.5);
    x
}

#[test]
fn fused_forward_is_the_nine_op_composition_bitwise() {
    let mut rng = StdRng::seed_from_u64(440);
    for c in [1, 5, 12, 36, 48, 64] {
        let ln = layer(c, &mut rng);
        let p = ln.parameters();
        let (gamma, beta) = (p[0].value_clone(), p[1].value_clone());
        for rows in [1, 7, 8, 33, 4097] {
            for offset in [0.0, 1e4] {
                let x = input(rows, c, offset, &mut rng);
                for level in levels() {
                    let want = with_ctx(level, 1, || oracle(&x, &gamma, &beta, 1e-5));
                    let got = with_ctx(level, 1, || {
                        ln.forward(&Var::constant(x.clone())).value_clone()
                    });
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "C={c} rows={rows} offset={offset} {level:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn gradients_are_bitwise_at_any_thread_count() {
    let mut rng = StdRng::seed_from_u64(441);
    for (rows, c) in [(4097, 12), (600, 48), (33, 5)] {
        let ln = layer(c, &mut rng);
        let x = input(rows, c, 3.0, &mut rng);
        let w = Tensor::randn(&[rows, c], &mut rng);
        for level in levels() {
            let run = |threads| {
                with_ctx(level, threads, || {
                    let xv = Var::parameter(x.clone());
                    let params = ln.parameters();
                    params.iter().for_each(Var::zero_grad);
                    ln.forward(&xv).weighted_sum(&w).backward();
                    let mut grads = vec![bits(&xv.grad().unwrap())];
                    grads.extend(params.iter().map(|p| bits(&p.grad().unwrap())));
                    grads
                })
            };
            let one = run(1);
            for threads in [3, 7] {
                assert!(
                    run(threads) == one,
                    "rows={rows} C={c} {level:?}: {threads} threads differ from 1"
                );
            }
        }
    }
}

#[test]
fn gamma_and_beta_gradients_match_finite_differences() {
    let mut rng = StdRng::seed_from_u64(442);
    let ln = layer(5, &mut rng);
    let x = Var::constant(input(9, 5, 2.0, &mut rng));
    let w = Tensor::randn(&[9, 5], &mut rng);
    let params = ln.parameters();
    ln.forward(&x).weighted_sum(&w).backward();
    for p in &params {
        let analytic = p.grad().unwrap();
        let value = p.value_clone();
        for i in 0..value.len() {
            let at = |delta: f32| {
                let mut v = value.clone();
                v.data_mut()[i] += delta;
                p.set_value(v);
                let f = ln.forward(&x).weighted_sum(&w).value().item();
                p.set_value(value.clone());
                f
            };
            let numeric = (at(1e-2) - at(-1e-2)) / 2e-2;
            let a = analytic.data()[i];
            let err = (a - numeric).abs() / 1f32.max(a.abs()).max(numeric.abs());
            assert!(err <= 2e-2, "parameter {i}: {a} vs {numeric}");
        }
    }
}
