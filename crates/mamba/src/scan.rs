//! The selective-scan recurrence as a fused autograd operation.

use peb_pool::PoolBuf;
use peb_simd::scan::{backward, forward, trajectory_len, Grads, Operands, Walk};
use peb_tensor::{Tensor, Var};

/// Runs the selective SSM recurrence over a sequence.
///
/// Shapes: `u` and `delta` are `[L, C]`; `a` is `[C, N]` (the continuous
/// state matrix, negative for stability); `b` and `c` are `[L, N]`
/// (input-dependent projections, Eq. 10); `d` is `[C]` (skip weight).
/// Returns `y` of shape `[L, C]` where
///
/// ```text
/// h_t = exp(delta_t ⊗ a) ⊙ h_{t−1} + (delta_t ⊙ u_t) ⊗ b_t
/// y_t[c] = Σ_n c_t[n] · h_t[c, n] + d[c] · u_t[c]
/// ```
///
/// This is the ZOH discretisation of Eq. 7 specialised to diagonal `A`
/// with the simplified `B̄ = Δ·B` Euler rule used by Mamba.
///
/// Both directions run `peb_simd::scan`'s [`forward`] and [`backward`].
/// The backward pass recomputes only `exp(Δ·a)`: a recording forward
/// stores the full state trajectory ([`trajectory_len`] floats) and the
/// backward runs the adjoint recurrence over it in reverse, producing
/// exact gradients for all six operands. When nothing records — inside
/// `peb_tensor::no_grad`, or when no operand requires a gradient — the
/// trajectory is neither allocated nor written; `y` is bit-equal either
/// way.
///
/// # Panics
///
/// Panics on inconsistent operand shapes.
pub fn selective_scan(u: &Var, delta: &Var, a: &Var, b: &Var, c: &Var, d: &Var) -> Var {
    walked_scan(u, delta, a, b, c, d, Walk::Forward)
}

/// [`selective_scan`] along `walk`: `u`, `delta`, `b` and `c` hold step
/// `t` of the recurrence in row `t` (as [`crate::CausalDwConv1d`] writes
/// them), and `y` — like its gradient — holds it in row `walk.row(t)`, so
/// the output lands in canonical order as the kernels store it. Bit for
/// bit the forward scan scattered back along the walk, forward and
/// backward.
///
/// # Panics
///
/// Panics on inconsistent operand shapes or a walk that does not span
/// `L`.
pub(crate) fn walked_scan(
    u: &Var,
    delta: &Var,
    a: &Var,
    b: &Var,
    c: &Var,
    d: &Var,
    walk: Walk,
) -> Var {
    let (l, ch) = {
        let s = u.shape();
        assert_eq!(s.len(), 2, "u must be [L, C]");
        (s[0], s[1])
    };
    let n = {
        let s = a.shape();
        assert_eq!(s, vec![ch, s[1]], "a must be [C, N]");
        s[1]
    };
    assert_eq!(delta.shape(), vec![l, ch], "delta must match u");
    assert_eq!(b.shape(), vec![l, n], "b must be [L, N]");
    assert_eq!(c.shape(), vec![l, n], "c must be [L, N]");
    assert_eq!(d.shape(), vec![ch], "d must be [C]");
    assert!(walk.spans(l), "{walk:?} does not span {l} rows");
    peb_obs::optrace::note("scan", || format!("l={l} c={ch} n={n}"));

    let vars = [u, delta, a, b, c, d].map(Var::clone);
    let record = peb_tensor::grad_enabled() && vars.iter().any(Var::requires_grad);
    let dims = (l, ch, n);
    let (y, traj) = {
        let values = vars.each_ref().map(Var::value);
        let _span = peb_obs::span("scan.fwd");
        peb_obs::count(peb_obs::Counter::ScanLanes, ch as u64);
        // Pooled so repeated forward/backward passes reuse one buffer; it
        // is handed to the backward closure and recycles when the graph
        // node drops. Only the backward reads it, so a non-recording call
        // keeps it empty.
        let mut traj =
            PoolBuf::<f32>::for_overwrite(if record { trajectory_len(l, ch, n) } else { 0 });
        let mut y = Tensor::for_overwrite(&[l, ch]);
        let ops = operands(values.each_ref().map(|v| &**v), dims, walk);
        forward(ops, y.data_mut(), record.then_some(&mut traj[..]));
        (y, traj)
    };
    let parents = vars.to_vec();
    Var::from_op(y, parents, move |g| {
        let values = vars.each_ref().map(Var::value);
        let _span = peb_obs::span("scan.bwd");
        peb_obs::count(peb_obs::Counter::ScanLanes, ch as u64);
        let shapes: [&[usize]; 6] = [&[l, ch], &[l, ch], &[ch, n], &[l, n], &[l, n], &[ch]];
        let mut grads = shapes.map(Tensor::for_overwrite);
        let [du, ddelta, da, db, dc, dskip] = grads.each_mut().map(Tensor::data_mut);
        backward(
            operands(values.each_ref().map(|v| &**v), dims, walk),
            g.data(),
            &traj,
            Grads {
                du,
                ddelta,
                da,
                db,
                dc,
                dskip,
            },
        );
        grads.into_iter().map(Some).collect()
    })
}

/// `[u, Δ, a, b, c, d]` as `peb_simd::scan` takes them.
fn operands(values: [&Tensor; 6], dims: (usize, usize, usize), walk: Walk) -> Operands<'_> {
    let [u, delta, a, b, c, d] = values.map(Tensor::data);
    Operands {
        u,
        delta,
        a,
        b,
        c,
        d,
        dims,
        walk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_tensor::numeric_gradient;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Operands {
        u: Tensor,
        delta: Tensor,
        a: Tensor,
        b: Tensor,
        c: Tensor,
        d: Tensor,
    }

    fn operands(l: usize, ch: usize, n: usize, seed: u64) -> Operands {
        let mut rng = StdRng::seed_from_u64(seed);
        Operands {
            u: Tensor::randn(&[l, ch], &mut rng),
            delta: Tensor::rand_uniform(&[l, ch], 0.05, 0.5, &mut rng),
            a: Tensor::rand_uniform(&[ch, n], -1.5, -0.2, &mut rng),
            b: Tensor::randn(&[l, n], &mut rng),
            c: Tensor::randn(&[l, n], &mut rng),
            d: Tensor::randn(&[ch], &mut rng),
        }
    }

    fn run(o: &Operands) -> Var {
        selective_scan(
            &Var::constant(o.u.clone()),
            &Var::constant(o.delta.clone()),
            &Var::constant(o.a.clone()),
            &Var::constant(o.b.clone()),
            &Var::constant(o.c.clone()),
            &Var::constant(o.d.clone()),
        )
    }

    #[test]
    fn matches_naive_recurrence() {
        let o = operands(5, 2, 3, 31);
        let y = run(&o).value_clone();
        // Naive reference.
        let (l, ch, n) = (5usize, 2usize, 3usize);
        let mut h = vec![0f32; ch * n];
        for t in 0..l {
            for ci in 0..ch {
                let dt = o.delta.get(&[t, ci]);
                let ut = o.u.get(&[t, ci]);
                let mut acc = 0f32;
                for ni in 0..n {
                    let e = (dt * o.a.get(&[ci, ni])).exp();
                    h[ci * n + ni] = e * h[ci * n + ni] + dt * ut * o.b.get(&[t, ni]);
                    acc += o.c.get(&[t, ni]) * h[ci * n + ni];
                }
                let expect = acc + o.d.data()[ci] * ut;
                assert!(
                    (y.get(&[t, ci]) - expect).abs() < 1e-5,
                    "t={t} c={ci}: {} vs {expect}",
                    y.get(&[t, ci])
                );
            }
        }
    }

    /// The per-lane scalar recurrence every lane ran before the lane
    /// kernels — the ragged tail's loop until it joined them — with the
    /// trajectory in its per-lane `[(t·ch + ci)·n + ni]` layout.
    fn oracle_forward(o: &Operands) -> (Vec<f32>, Vec<f32>) {
        let (l, ch, n) = (o.u.shape()[0], o.u.shape()[1], o.a.shape()[1]);
        let (ud, dd, ad, bd, cd, skip) = (
            o.u.data(),
            o.delta.data(),
            o.a.data(),
            o.b.data(),
            o.c.data(),
            o.d.data(),
        );
        let mut y = vec![0f32; l * ch];
        let mut traj = vec![0f32; l * ch * n];
        for ci in 0..ch {
            let mut h = vec![0f32; n];
            for t in 0..l {
                let dt = dd[t * ch + ci];
                let ut = ud[t * ch + ci];
                let dtu = dt * ut;
                let mut acc = 0f32;
                for (ni, hv) in h.iter_mut().enumerate() {
                    let e = (dt * ad[ci * n + ni]).exp();
                    *hv = e * *hv + dtu * bd[t * n + ni];
                    acc += cd[t * n + ni] * *hv;
                }
                y[t * ch + ci] = acc + skip[ci] * ut;
                traj[(t * ch + ci) * n..(t * ch + ci + 1) * n].copy_from_slice(&h);
            }
        }
        (y, traj)
    }

    /// The per-lane scalar backward the lane kernel replaced, over
    /// [`oracle_forward`]'s trajectory: `[du, ddelta, da, db, dc, dskip]`
    /// with `db`/`dc` summed in ascending channel order, and `Σ|term|`
    /// of every `db` and `dc` entry.
    fn oracle_backward(o: &Operands, g: &[f32], traj: &[f32]) -> ([Vec<f32>; 6], [Vec<f32>; 2]) {
        let (l, ch, n) = (o.u.shape()[0], o.u.shape()[1], o.a.shape()[1]);
        let (ud, dd, ad, bd, cd, skip) = (
            o.u.data(),
            o.delta.data(),
            o.a.data(),
            o.b.data(),
            o.c.data(),
            o.d.data(),
        );
        let [mut du, mut ddelta, mut da, mut db, mut dc, mut dskip] = [
            vec![0f32; l * ch],
            vec![0f32; l * ch],
            vec![0f32; ch * n],
            vec![0f32; l * n],
            vec![0f32; l * n],
            vec![0f32; ch],
        ];
        let (mut db_abs, mut dc_abs) = (vec![0f32; l * n], vec![0f32; l * n]);
        for ci in 0..ch {
            let mut dh = vec![0f32; n];
            for t in (0..l).rev() {
                let gy = g[t * ch + ci];
                let dt = dd[t * ch + ci];
                let ut = ud[t * ch + ci];
                dskip[ci] += gy * ut;
                let mut du_acc = gy * skip[ci];
                let mut ddt_acc = 0f32;
                for (ni, dhv) in dh.iter_mut().enumerate() {
                    let h_t = traj[(t * ch + ci) * n + ni];
                    dc[t * n + ni] += gy * h_t;
                    dc_abs[t * n + ni] += (gy * h_t).abs();
                    let dht = gy * cd[t * n + ni] + *dhv;
                    let av = ad[ci * n + ni];
                    let e = (dt * av).exp();
                    let h_prev = if t == 0 {
                        0.0
                    } else {
                        traj[((t - 1) * ch + ci) * n + ni]
                    };
                    let de = dht * h_prev;
                    ddt_acc += de * av * e;
                    da[ci * n + ni] += de * dt * e;
                    let bv = bd[t * n + ni];
                    ddt_acc += dht * bv * ut;
                    du_acc += dht * dt * bv;
                    db[t * n + ni] += dht * dt * ut;
                    db_abs[t * n + ni] += (dht * dt * ut).abs();
                    *dhv = dht * e;
                }
                du[t * ch + ci] += du_acc;
                ddelta[t * ch + ci] += ddt_acc;
            }
        }
        ([du, ddelta, da, db, dc, dskip], [db_abs, dc_abs])
    }

    #[test]
    fn scalar_level_matches_the_per_lane_oracles_bitwise() {
        // Pad lanes are exact at the scalar level: every width — one
        // group, ragged tails of 1..7 lanes, several groups — reproduces
        // the per-lane loops to the bit, except that several groups
        // regroup the cross-channel db/dc sums.
        let names = ["du", "ddelta", "da", "db", "dc", "dskip"];
        for ch in [1usize, 7, 8, 9, 12, 19] {
            let (l, n) = (9, 5);
            let o = operands(l, ch, n, 40 + ch as u64);
            let g = Tensor::randn(&[l, ch], &mut StdRng::seed_from_u64(41));
            let scalar = peb_par::ExecCtx {
                level: peb_simd::Level::Scalar,
                ..peb_par::ctx::current()
            };
            let (y, got) = peb_par::ctx::with(scalar, || {
                let vars =
                    [&o.u, &o.delta, &o.a, &o.b, &o.c, &o.d].map(|t| Var::parameter(t.clone()));
                let y = selective_scan(&vars[0], &vars[1], &vars[2], &vars[3], &vars[4], &vars[5]);
                y.weighted_sum(&g).backward();
                (y.value_clone(), vars.map(|v| v.grad().unwrap()))
            });
            let (want_y, traj) = oracle_forward(&o);
            let (want, abs) = oracle_backward(&o, g.data(), &traj);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(y.data()), bits(&want_y), "ch={ch}: y");
            for (i, name) in names.iter().enumerate() {
                let got = got[i].data();
                if i == 3 || i == 4 {
                    for (k, ((w, v), s)) in want[i].iter().zip(got).zip(&abs[i - 3]).enumerate() {
                        // One group adds lanes in the oracle's order;
                        // several stay within twice the recursive-summation
                        // bound (ch − 1)·ε·Σ|term| of each other.
                        let bound = if ch <= 8 {
                            0.0
                        } else {
                            2.0 * ch as f32 * f32::EPSILON * s
                        };
                        assert!((w - v).abs() <= bound, "ch={ch}: {name}[{k}] {w} vs {v}");
                        if ch <= 8 {
                            assert_eq!(w.to_bits(), v.to_bits(), "ch={ch}: {name}[{k}]");
                        }
                    }
                } else {
                    assert_eq!(bits(got), bits(&want[i]), "ch={ch}: {name}");
                }
            }
        }
    }

    /// The rows of each direction's order by the index formula of the
    /// gathered copies the walks replaced: `idx[t]` is the row a gathered
    /// copy holds at `t`.
    fn gather_indices(dir: crate::ScanDirection, (d, h, w): (usize, usize, usize)) -> Vec<usize> {
        use crate::ScanDirection::*;
        match dir {
            DepthForward => (0..d * h * w).collect(),
            DepthBackward => (0..d * h * w).rev().collect(),
            Spatial => (0..h * w)
                .flat_map(|p| (0..d).map(move |z| z * h * w + p))
                .collect(),
        }
    }

    /// Row `t` of the result is row `idx[t]` of `x`.
    fn gather(x: &Tensor, idx: &[usize]) -> Tensor {
        let c = x.len() / idx.len();
        let data = idx.iter().flat_map(|&r| x.data()[r * c..][..c].to_vec());
        Tensor::from_vec(data.collect(), x.shape()).unwrap()
    }

    /// Row `idx[t]` of the result is row `t` of `x`.
    fn scatter(x: &Tensor, idx: &[usize]) -> Tensor {
        let c = x.len() / idx.len();
        let mut out = x.clone();
        for (t, &r) in idx.iter().enumerate() {
            out.data_mut()[r * c..][..c].copy_from_slice(&x.data()[t * c..][..c]);
        }
        out
    }

    #[test]
    fn walked_scan_is_the_forward_scan_scattered_back_bitwise() {
        // y, and all six gradients of a canonical-order output gradient,
        // every direction, a ragged tail and several groups, at every
        // level and at 1, 3 and 7 threads.
        let dims = (3, 2, 5);
        let (l, n) = (30, 5);
        for ch in [7, 19] {
            let o = operands(l, ch, n, 70 + ch as u64);
            let g = Tensor::randn(&[l, ch], &mut StdRng::seed_from_u64(71));
            let run = |g: &Tensor, walk: Walk| {
                let v = [&o.u, &o.delta, &o.a, &o.b, &o.c, &o.d].map(|t| Var::parameter(t.clone()));
                let y = walked_scan(&v[0], &v[1], &v[2], &v[3], &v[4], &v[5], walk);
                y.weighted_sum(g).backward();
                (y.value_clone(), v.map(|v| v.grad().unwrap()))
            };
            for dir in crate::ScanDirection::ALL {
                let idx = gather_indices(dir, dims);
                for level in peb_par::ctx::levels() {
                    for threads in [1, 3, 7] {
                        let at = peb_par::ExecCtx {
                            level,
                            threads,
                            ..peb_par::ctx::current()
                        };
                        let (y, grads) = peb_par::ctx::with(at, || run(&g, dir.walk(dims)));
                        let (want_y, want) =
                            peb_par::ctx::with(at, || run(&gather(&g, &idx), Walk::Forward));
                        let what = format!("ch={ch} {dir:?} {level:?} {threads} threads");
                        let want_y = scatter(&want_y, &idx);
                        assert_eq!(y.bit_digest(), want_y.bit_digest(), "{what}: y");
                        for (i, name) in ["u", "delta", "a", "b", "c", "d"].iter().enumerate() {
                            let (got, want) = (grads[i].bit_digest(), want[i].bit_digest());
                            assert_eq!(got, want, "{what}: d{name}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_recording_scan_is_bitwise_the_recording_one() {
        // 19 channels: two full lane groups plus a ragged tail, all of
        // which skip the trajectory when nothing records.
        let o = operands(13, 19, 5, 36);
        let with_trainable_u = || {
            let u = Var::parameter(o.u.clone());
            let rest = [&o.delta, &o.a, &o.b, &o.c, &o.d].map(|t| Var::constant(t.clone()));
            selective_scan(&u, &rest[0], &rest[1], &rest[2], &rest[3], &rest[4])
        };
        let recorded = with_trainable_u();
        assert!(recorded.requires_grad());
        // Nothing records when no operand requires a gradient …
        let constant = run(&o);
        // … or when the tape is off.
        let off_tape = peb_tensor::no_grad(with_trainable_u);
        assert!(!constant.requires_grad() && !off_tape.requires_grad());
        let want = recorded.value().bit_digest();
        assert_eq!(constant.value().bit_digest(), want);
        assert_eq!(off_tape.value().bit_digest(), want);
    }

    #[test]
    fn zero_delta_passes_skip_only() {
        let mut o = operands(4, 2, 2, 32);
        o.delta = Tensor::zeros(&[4, 2]);
        let y = run(&o).value_clone();
        // With Δ = 0 the state never moves from 0, so y = D ⊙ u.
        for t in 0..4 {
            for ci in 0..2 {
                let expect = o.d.data()[ci] * o.u.get(&[t, ci]);
                assert!((y.get(&[t, ci]) - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn decays_remember_less_with_more_negative_a() {
        // An impulse at t=0 read out at t=T decays as exp(T·Δ·a).
        let l = 8;
        let mut o = operands(l, 1, 1, 33);
        o.u = Tensor::zeros(&[l, 1]);
        o.u.set(&[0, 0], 1.0);
        o.delta = Tensor::full(&[l, 1], 0.5);
        o.b = Tensor::ones(&[l, 1]);
        o.c = Tensor::ones(&[l, 1]);
        o.d = Tensor::zeros(&[1]);
        o.a = Tensor::from_vec(vec![-0.5], &[1, 1]).unwrap();
        let slow = run(&o).value_clone().get(&[l - 1, 0]);
        o.a = Tensor::from_vec(vec![-3.0], &[1, 1]).unwrap();
        let fast = run(&o).value_clone().get(&[l - 1, 0]);
        assert!(slow > fast, "slow {slow} fast {fast}");
        assert!(fast > 0.0);
    }

    /// Gradient check against finite differences for every operand.
    #[test]
    fn gradcheck_all_operands() {
        let o = operands(4, 2, 2, 34);
        let weights = {
            let mut rng = StdRng::seed_from_u64(99);
            Tensor::randn(&[4, 2], &mut rng)
        };
        // Build loss as weighted sum to get a non-trivial output seed.
        let loss_of =
            |u: &Tensor, delta: &Tensor, a: &Tensor, b: &Tensor, c: &Tensor, d: &Tensor| {
                selective_scan(
                    &Var::constant(u.clone()),
                    &Var::constant(delta.clone()),
                    &Var::constant(a.clone()),
                    &Var::constant(b.clone()),
                    &Var::constant(c.clone()),
                    &Var::constant(d.clone()),
                )
            };
        // Analytic gradients.
        let (u, delta, a, b, c, d) = (
            Var::parameter(o.u.clone()),
            Var::parameter(o.delta.clone()),
            Var::parameter(o.a.clone()),
            Var::parameter(o.b.clone()),
            Var::parameter(o.c.clone()),
            Var::parameter(o.d.clone()),
        );
        selective_scan(&u, &delta, &a, &b, &c, &d)
            .weighted_sum(&weights)
            .backward();
        let checks: Vec<(&str, Tensor, Tensor)> = vec![
            (
                "u",
                u.grad().unwrap(),
                numeric_gradient(
                    &o.u,
                    |v| {
                        loss_of(&v.value_clone(), &o.delta, &o.a, &o.b, &o.c, &o.d)
                            .weighted_sum(&weights)
                    },
                    1e-2,
                ),
            ),
            (
                "delta",
                delta.grad().unwrap(),
                numeric_gradient(
                    &o.delta,
                    |v| {
                        loss_of(&o.u, &v.value_clone(), &o.a, &o.b, &o.c, &o.d)
                            .weighted_sum(&weights)
                    },
                    1e-3,
                ),
            ),
            (
                "a",
                a.grad().unwrap(),
                numeric_gradient(
                    &o.a,
                    |v| {
                        loss_of(&o.u, &o.delta, &v.value_clone(), &o.b, &o.c, &o.d)
                            .weighted_sum(&weights)
                    },
                    1e-2,
                ),
            ),
            (
                "b",
                b.grad().unwrap(),
                numeric_gradient(
                    &o.b,
                    |v| {
                        loss_of(&o.u, &o.delta, &o.a, &v.value_clone(), &o.c, &o.d)
                            .weighted_sum(&weights)
                    },
                    1e-2,
                ),
            ),
            (
                "c",
                c.grad().unwrap(),
                numeric_gradient(
                    &o.c,
                    |v| {
                        loss_of(&o.u, &o.delta, &o.a, &o.b, &v.value_clone(), &o.d)
                            .weighted_sum(&weights)
                    },
                    1e-2,
                ),
            ),
            (
                "d",
                d.grad().unwrap(),
                numeric_gradient(
                    &o.d,
                    |v| {
                        loss_of(&o.u, &o.delta, &o.a, &o.b, &o.c, &v.value_clone())
                            .weighted_sum(&weights)
                    },
                    1e-2,
                ),
            ),
        ];
        for (name, analytic, numeric) in checks {
            let mut max_rel = 0f32;
            for (av, nv) in analytic.data().iter().zip(numeric.data()) {
                max_rel = max_rel.max((av - nv).abs() / 1f32.max(av.abs()).max(nv.abs()));
            }
            assert!(max_rel < 3e-2, "{name}: rel err {max_rel}");
        }
    }

    #[test]
    fn long_sequence_stays_finite() {
        let o = operands(512, 4, 4, 35);
        let y = run(&o).value_clone();
        assert!(y.data().iter().all(|v| v.is_finite()));
    }
}
