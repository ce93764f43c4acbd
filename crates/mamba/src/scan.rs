//! The selective-scan recurrence as a fused autograd operation.

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
/// The backward pass recomputes nothing: a recording forward stores the
/// full state trajectory (`L·C·N` floats) and runs the adjoint recurrence
/// in reverse, producing exact gradients for all six operands. When
/// nothing records — inside `peb_tensor::no_grad`, or when no operand
/// requires a gradient — the trajectory is neither allocated nor
/// written; `y` is bit-equal either way.
///
/// # Panics
///
/// Panics on inconsistent operand shapes.
pub fn selective_scan(u: &Var, delta: &Var, a: &Var, b: &Var, c: &Var, d: &Var) -> Var {
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
    peb_obs::optrace::note("scan", || format!("l={l} c={ch} n={n}"));

    let record =
        peb_tensor::grad_enabled() && [u, delta, a, b, c, d].iter().any(|v| v.requires_grad());
    let (y, h_traj) = scan_forward(
        &u.value(),
        &delta.value(),
        &a.value(),
        &b.value(),
        &c.value(),
        &d.value(),
        l,
        ch,
        n,
        record,
    );
    let (uc, dc, ac, bc, cc, ddc) = (
        u.clone(),
        delta.clone(),
        a.clone(),
        b.clone(),
        c.clone(),
        d.clone(),
    );
    Var::from_op(
        y,
        vec![
            u.clone(),
            delta.clone(),
            a.clone(),
            b.clone(),
            c.clone(),
            d.clone(),
        ],
        move |g| {
            let grads = scan_backward(
                g,
                &uc.value(),
                &dc.value(),
                &ac.value(),
                &bc.value(),
                &cc.value(),
                &ddc.value(),
                &h_traj,
                l,
                ch,
                n,
            );
            grads.into_iter().map(Some).collect()
        },
    )
}

#[allow(clippy::too_many_arguments)]
fn scan_forward(
    u: &Tensor,
    delta: &Tensor,
    a: &Tensor,
    b: &Tensor,
    c: &Tensor,
    d: &Tensor,
    l: usize,
    ch: usize,
    n: usize,
    record: bool,
) -> (Tensor, peb_pool::PoolBuf<f32>) {
    let _span = peb_obs::span("scan.fwd");
    peb_obs::count(peb_obs::Counter::ScanLanes, ch as u64);
    let (ud, dd, ad, bd, cd, skip) = (
        u.data(),
        delta.data(),
        a.data(),
        b.data(),
        c.data(),
        d.data(),
    );
    // The trajectory is the big (L·C·N) scratch of the scan; pooled so
    // repeated forward/backward passes reuse one buffer. It is handed to
    // the backward closure and recycles when the graph node drops. Only
    // backward reads it, so a non-recording call keeps it empty.
    let mut h_traj = peb_pool::PoolBuf::<f32>::zeroed(if record { l * ch * n } else { 0 });
    let mut y = Tensor::zeros(&[l, ch]);
    {
        // Channel lanes are independent: the t-recurrence runs
        // sequentially per lane while lanes fan out over the pool. Every
        // y/h_traj position belongs to exactly one lane, so the result is
        // thread-count independent. Chunks align to 8-lane groups so each
        // worker feeds full groups to the vectorized `peb-simd` kernel;
        // the ragged tail (ch % 8 lanes, last chunk only) keeps the
        // scalar recurrence.
        let yslots = peb_par::UnsafeSlice::new(y.data_mut());
        let hslots = peb_par::UnsafeSlice::new(&mut h_traj);
        let traj = record.then_some(&hslots);
        let lane_cost = 12 * (l as u64) * (n as u64);
        let group_chunk = ch.div_ceil(8).next_multiple_of(8);
        peb_par::parallel_chunks_cost(ch, group_chunk, lane_cost, |lanes| {
            let mut h = peb_pool::PoolBuf::<f32>::zeroed(n * 8);
            let mut apack = peb_pool::PoolBuf::<f32>::cleared(n * 8);
            let mut ci0 = lanes.start;
            while ci0 + 8 <= lanes.end {
                // SAFETY: the group owns y columns ci0..ci0+8 and their
                // h_traj rows; groups are disjoint (chunks are 8-aligned).
                peb_simd::scan::pack_a_lanes8(ad, n, ci0, &mut apack);
                h.fill(0.0);
                unsafe {
                    peb_simd::scan::scan_forward_lanes8(
                        ud,
                        dd,
                        &apack,
                        bd,
                        cd,
                        &skip[ci0..],
                        &mut h,
                        &yslots,
                        traj,
                        l,
                        ch,
                        n,
                        ci0,
                    );
                }
                ci0 += 8;
            }
            for ci in ci0..lanes.end {
                let h = &mut h[..n];
                h.fill(0.0);
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
                    // SAFETY: lane `ci` owns y[t·ch+ci] and the
                    // h_traj[(t·ch+ci)·n..] block for every t.
                    unsafe { *yslots.get_mut(t * ch + ci) = acc + skip[ci] * ut };
                    if let Some(hslots) = traj {
                        unsafe { hslots.slice_mut((t * ch + ci) * n..(t * ch + ci + 1) * n) }
                            .copy_from_slice(h);
                    }
                }
            }
        });
    }
    (y, h_traj)
}

#[allow(clippy::too_many_arguments)]
fn scan_backward(
    g: &Tensor,
    u: &Tensor,
    delta: &Tensor,
    a: &Tensor,
    b: &Tensor,
    c: &Tensor,
    d: &Tensor,
    h_traj: &[f32],
    l: usize,
    ch: usize,
    n: usize,
) -> Vec<Tensor> {
    let _span = peb_obs::span("scan.bwd");
    peb_obs::count(peb_obs::Counter::ScanLanes, ch as u64);
    let (gd, ud, dd, ad, bd, cd, skip) = (
        g.data(),
        u.data(),
        delta.data(),
        a.data(),
        b.data(),
        c.data(),
        d.data(),
    );
    let mut du = Tensor::zeros(&[l, ch]);
    let mut ddelta = Tensor::zeros(&[l, ch]);
    let mut da = Tensor::zeros(&[ch, n]);
    let mut db = Tensor::zeros(&[l, n]);
    let mut dc = Tensor::zeros(&[l, n]);
    let mut dskip = Tensor::zeros(&[ch]);
    // du/ddelta/da/dskip are per-channel disjoint, so lanes write them
    // directly. db and dc reduce *across* channels: each fixed chunk of
    // lanes produces a partial, and the partials are summed in ascending
    // chunk order below — chunk boundaries depend only on `ch`, so the
    // reduction order (and bits) are identical at any thread count.
    let partials = {
        let duslots = peb_par::UnsafeSlice::new(du.data_mut());
        let ddslots = peb_par::UnsafeSlice::new(ddelta.data_mut());
        let daslots = peb_par::UnsafeSlice::new(da.data_mut());
        let dsslots = peb_par::UnsafeSlice::new(dskip.data_mut());
        peb_par::parallel_chunks_collect(ch, ch.div_ceil(8), |lanes| {
            let mut dbp = peb_pool::PoolBuf::<f32>::zeroed(l * n);
            let mut dcp = peb_pool::PoolBuf::<f32>::zeroed(l * n);
            // dh carried backward through the recurrence, per state.
            let mut dh = peb_pool::PoolBuf::<f32>::zeroed(n);
            for ci in lanes {
                dh.fill(0.0);
                for t in (0..l).rev() {
                    let gy = gd[t * ch + ci];
                    let dt = dd[t * ch + ci];
                    let ut = ud[t * ch + ci];
                    // SAFETY: lane `ci` owns dskip[ci], da row ci, and the
                    // strided du/ddelta positions `t·ch + ci`.
                    unsafe { *dsslots.get_mut(ci) += gy * ut };
                    let mut du_acc = gy * skip[ci];
                    let mut ddt_acc = 0f32;
                    for (ni, dhv) in dh.iter_mut().enumerate() {
                        let h_t = h_traj[(t * ch + ci) * n + ni];
                        // y contribution.
                        dcp[t * n + ni] += gy * h_t;
                        // Total gradient flowing into h_t: from y plus
                        // from h_{t+1} (already accumulated in dh).
                        let dht = gy * cd[t * n + ni] + *dhv;
                        // h_t = e·h_{t−1} + dt·u·b.
                        let av = ad[ci * n + ni];
                        let e = (dt * av).exp();
                        let h_prev = if t == 0 {
                            0.0
                        } else {
                            h_traj[((t - 1) * ch + ci) * n + ni]
                        };
                        // Through the decay factor e = exp(dt·a).
                        let de = dht * h_prev;
                        ddt_acc += de * av * e;
                        unsafe { *daslots.get_mut(ci * n + ni) += de * dt * e };
                        // Through the drive term dt·u·b.
                        let bv = bd[t * n + ni];
                        ddt_acc += dht * bv * ut;
                        du_acc += dht * dt * bv;
                        dbp[t * n + ni] += dht * dt * ut;
                        // Carry to h_{t−1}.
                        *dhv = dht * e;
                    }
                    unsafe { *duslots.get_mut(t * ch + ci) += du_acc };
                    unsafe { *ddslots.get_mut(t * ch + ci) += ddt_acc };
                }
            }
            (dbp, dcp)
        })
    };
    let (dbd, dcd) = (db.data_mut(), dc.data_mut());
    for (dbp, dcp) in partials {
        // Exact lane adds in the same ascending-chunk order as the scalar
        // loop — bitwise identical at any dispatch level.
        peb_simd::elementwise::vadd_assign(dbd, &dbp);
        peb_simd::elementwise::vadd_assign(dcd, &dcp);
    }
    vec![du, ddelta, da, db, dc, dskip]
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

    #[test]
    fn non_recording_scan_is_bitwise_the_recording_one() {
        // 19 channels: two vector groups plus a ragged scalar tail, both
        // of which skip the trajectory when nothing records.
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
