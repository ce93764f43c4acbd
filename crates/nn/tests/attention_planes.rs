//! `EfficientSelfAttention::forward_planes` against the per-plane
//! composition it replaced.
//!
//! An encoder stage used to run attention one depth plane at a time:
//! slice the plane's tokens, project q/k/v (folding `r` tokens first for
//! k/v), split heads with permutes, `bmm`, `× 1/√dh`, `softmax`, `bmm`,
//! merge heads, project, and concatenate the planes. That composition
//! lives on here as [`oracle`]. The fused form — whole-sequence GEMMs and
//! one attention kernel over all planes — must reproduce it to the bit at
//! every dispatch level, across the stage geometries the models build
//! and ragged ones; its gradients must match finite differences; and
//! forward and gradients must be bitwise identical at 1, 3, 4 and 7
//! threads.

use peb_nn::{EfficientSelfAttention, Parameterized};
use peb_par::ctx::{self, levels, ExecCtx, Level};
use peb_tensor::{Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The per-plane composition, on plain tensors with the layer's own
/// parameters (`parameters()` order: q, k, v, o weight/bias pairs, then
/// the reduction fold's).
fn oracle(attn: &EfficientSelfAttention, x: &Tensor, planes: usize, heads: usize) -> Tensor {
    let params: Vec<Tensor> = attn.parameters().iter().map(Var::value_clone).collect();
    let linear = |x: &Tensor, i: usize| {
        x.matmul(&params[2 * i])
            .unwrap()
            .add_t(&params[2 * i + 1])
            .unwrap()
    };
    let (l, c) = (x.shape()[0], x.shape()[1]);
    let (p, r, dh) = (l / planes, attn.reduction(), c / heads);
    let pr = p / r;
    let outs: Vec<Tensor> = (0..planes)
        .map(|z| {
            let s = x.slice_axis(0, z * p, (z + 1) * p).unwrap();
            let q = linear(&s, 0);
            let kv_in = if r > 1 {
                linear(&s.reshape(&[pr, c * r]).unwrap(), 4)
            } else {
                s
            };
            let (k, v) = (linear(&kv_in, 1), linear(&kv_in, 2));
            let qh = q
                .reshape(&[p, heads, dh])
                .unwrap()
                .permute(&[1, 0, 2])
                .unwrap();
            let kh = k
                .reshape(&[pr, heads, dh])
                .unwrap()
                .permute(&[1, 2, 0])
                .unwrap();
            let vh = v
                .reshape(&[pr, heads, dh])
                .unwrap()
                .permute(&[1, 0, 2])
                .unwrap();
            let scores = qh.bmm(&kh).unwrap().mul_scalar(1.0 / (dh as f32).sqrt());
            let probs = Var::constant(scores).softmax(2).value_clone();
            let ctx = probs.bmm(&vh).unwrap().permute(&[1, 0, 2]).unwrap();
            linear(&ctx.reshape(&[p, c]).unwrap(), 3)
        })
        .collect();
    Tensor::concat(&outs.iter().collect::<Vec<_>>(), 0).unwrap()
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

/// A layer with random (not zero) biases, so every bias path shows.
fn layer(c: usize, heads: usize, r: usize, rng: &mut StdRng) -> EfficientSelfAttention {
    let attn = EfficientSelfAttention::new(c, heads, r, rng);
    for p in attn.parameters() {
        if p.shape().len() == 1 {
            p.set_value(Tensor::randn(&p.shape(), rng).mul_scalar(0.3));
        }
    }
    attn
}

#[test]
fn fused_forward_is_the_per_plane_composition_bitwise() {
    let mut rng = StdRng::seed_from_u64(430);
    // (C, heads, P, r): the four `for_grid` stages at 32×128×128, the two
    // `tiny` stages at 16×16, and ragged planes with dh = 9 and r = 1.
    let geometries = [
        (12, 1, 1024, 16),
        (24, 2, 256, 4),
        (36, 4, 64, 4),
        (48, 4, 16, 4),
        (6, 1, 64, 4),
        (12, 2, 16, 1),
        (18, 2, 1, 1),
        (18, 2, 7, 1),
        (18, 2, 9, 1),
        (18, 2, 33, 1),
    ];
    let planes = 3;
    for (c, heads, p, r) in geometries {
        let attn = layer(c, heads, r, &mut rng);
        let x = Tensor::randn(&[planes * p, c], &mut rng);
        for level in levels() {
            let want = with_ctx(level, 1, || oracle(&attn, &x, planes, heads));
            let got = with_ctx(level, 1, || {
                attn.forward_planes(&Var::constant(x.clone()), planes)
                    .value_clone()
            });
            assert_eq!(
                bits(&got),
                bits(&want),
                "C={c} heads={heads} P={p} r={r} {level:?}"
            );
        }
    }
}

/// `Σ w ⊙ forward_planes(x)` and, after one backward, the gradients of
/// `x` and of every parameter.
fn forward_and_grads(
    attn: &EfficientSelfAttention,
    x: &Tensor,
    w: &Tensor,
    planes: usize,
) -> Vec<Tensor> {
    let xv = Var::parameter(x.clone());
    let params = attn.parameters();
    params.iter().for_each(Var::zero_grad);
    let y = attn.forward_planes(&xv, planes);
    y.weighted_sum(w).backward();
    let mut out = vec![y.value_clone(), xv.grad().unwrap()];
    out.extend(params.iter().map(|p| p.grad().unwrap()));
    out
}

#[test]
fn gradients_match_finite_differences() {
    let mut rng = StdRng::seed_from_u64(431);
    let planes = 3;
    for r in [1, 2] {
        let attn = layer(4, 2, r, &mut rng);
        let x = Tensor::randn(&[planes * 4, 4], &mut rng);
        let w = Tensor::randn(&[planes * 4, 4], &mut rng);
        let analytic = forward_and_grads(&attn, &x, &w, planes);
        let loss = |x: &Tensor| {
            attn.forward_planes(&Var::constant(x.clone()), planes)
                .weighted_sum(&w)
                .value()
                .item()
        };
        // x, then each parameter in `parameters()` order.
        let mut leaves = vec![(x.clone(), None)];
        leaves.extend(
            attn.parameters()
                .into_iter()
                .map(|p| (p.value_clone(), Some(p))),
        );
        for (k, (value, param)) in leaves.into_iter().enumerate() {
            let eps = 1e-2;
            let mut worst = 0f32;
            for i in 0..value.len() {
                let at = |delta: f32| {
                    let mut v = value.clone();
                    v.data_mut()[i] += delta;
                    match &param {
                        Some(p) => {
                            p.set_value(v);
                            let f = loss(&x);
                            p.set_value(value.clone());
                            f
                        }
                        None => loss(&v),
                    }
                };
                let numeric = (at(eps) - at(-eps)) / (2.0 * eps);
                let a = analytic[k + 1].data()[i];
                worst = worst.max((a - numeric).abs() / 1f32.max(a.abs()).max(numeric.abs()));
            }
            assert!(worst <= 3e-2, "r={r} leaf {k}: relative error {worst}");
        }
    }
}

#[test]
fn forward_and_gradients_are_bitwise_at_any_thread_count() {
    let mut rng = StdRng::seed_from_u64(432);
    let planes = 3;
    for (c, heads, p, r) in [(24, 2, 256, 4), (18, 2, 33, 1)] {
        let attn = layer(c, heads, r, &mut rng);
        let x = Tensor::randn(&[planes * p, c], &mut rng);
        let w = Tensor::randn(&[planes * p, c], &mut rng);
        for level in levels() {
            let run = |threads| {
                with_ctx(level, threads, || {
                    forward_and_grads(&attn, &x, &w, planes)
                        .iter()
                        .map(bits)
                        .collect::<Vec<_>>()
                })
            };
            let one = run(1);
            for threads in [3, 4, 7] {
                assert!(
                    run(threads) == one,
                    "C={c} P={p} {level:?}: {threads} threads differ from 1"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "sequence length 10 not divisible into 3 planes")]
fn rejects_planes_not_dividing_the_sequence() {
    let mut rng = StdRng::seed_from_u64(433);
    let attn = EfficientSelfAttention::new(4, 1, 1, &mut rng);
    attn.forward_planes(&Var::constant(Tensor::ones(&[10, 4])), 3);
}

#[test]
#[should_panic(expected = "plane length 6 (12 tokens / 2 planes) not divisible by reduction 4")]
fn rejects_a_reduction_not_dividing_the_plane() {
    let mut rng = StdRng::seed_from_u64(434);
    let attn = EfficientSelfAttention::new(4, 1, 4, &mut rng);
    // 12 tokens divide by r = 4, but each plane of 6 does not.
    attn.forward_planes(&Var::constant(Tensor::ones(&[12, 4])), 2);
}
