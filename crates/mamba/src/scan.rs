//! The selective-scan recurrence as a fused autograd operation.

use peb_simd::scan::Walk;
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
/// Both directions run whole 8-channel lane groups through
/// `peb_simd::scan`; a ragged tail of `C % 8` channels is zero-padded to
/// a full group. The backward pass recomputes only `exp(Δ·a)`: a
/// recording forward stores the full state trajectory in the kernels'
/// `[group][t][N][8]` layout (`⌈C/8⌉·8·L·N` floats — the pad lanes' zero
/// states included) and the backward runs the adjoint recurrence over
/// it in reverse, producing exact gradients for all six operands. When
/// nothing records — inside `peb_tensor::no_grad`, or when no operand
/// requires a gradient — the trajectory is neither allocated nor
/// written; `y` is bit-equal either way.
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

    let ops = [u, delta, a, b, c, d];
    let record = peb_tensor::grad_enabled() && ops.iter().any(|v| v.requires_grad());
    let dims = (l, ch, n, walk);
    let (y, h_traj) = {
        let values = ops.map(|v| v.value());
        scan_forward(values.each_ref().map(|v| &**v), dims, record)
    };
    let parents = ops.map(Var::clone).to_vec();
    let saved = parents.clone();
    Var::from_op(y, parents, move |g| {
        let values: Vec<_> = saved.iter().map(|v| v.value()).collect();
        let ops = std::array::from_fn(|i| &*values[i]);
        let grads = scan_backward(g, ops, &h_traj, dims);
        grads.into_iter().map(Some).collect()
    })
}

/// A scan's `(L, C, N)` and walk.
type Dims = (usize, usize, usize, Walk);

/// Lanes per channel group of the `peb-simd` scan kernels.
const LANES: usize = 8;

/// A lane group's `[L, ch]` inputs as its kernels address them: the
/// group's own columns in place, or — for the ragged tail of `ch % 8`
/// channels — zero-padded `[L, 8]` copies run as a full group
/// (`ch = 8`, `ci0 = 0`). The copies keep each row where it was, so the
/// group's walk serves them too.
struct GroupView<'a, const K: usize> {
    geom: peb_simd::scan::Group,
    inputs: [&'a [f32]; K],
    /// The tail's padded copies of `inputs`; empty for a full group.
    padded: Vec<peb_pool::PoolBuf<f32>>,
}

impl<'a, const K: usize> GroupView<'a, K> {
    fn new(dims: Dims, group: usize, inputs: [&'a [f32]; K]) -> Self {
        let (l, ch, n, walk) = dims;
        let ci0 = group * LANES;
        let lanes = (ch - ci0).min(LANES);
        if lanes == LANES {
            let geom = peb_simd::scan::Group {
                l,
                ch,
                n,
                ci0,
                lanes,
                walk,
            };
            return GroupView {
                geom,
                inputs,
                padded: Vec::new(),
            };
        }
        let padded = inputs
            .iter()
            .map(|x| {
                let mut pad = peb_pool::PoolBuf::<f32>::zeroed(l * LANES);
                for (t, row) in pad.chunks_exact_mut(LANES).enumerate() {
                    row[..lanes].copy_from_slice(&x[t * ch + ci0..t * ch + ch]);
                }
                pad
            })
            .collect();
        let geom = peb_simd::scan::Group {
            l,
            ch: LANES,
            n,
            ci0: 0,
            lanes,
            walk,
        };
        GroupView {
            geom,
            inputs,
            padded,
        }
    }

    /// The `i`-th input as the kernels read it.
    fn input(&self, i: usize) -> &[f32] {
        self.padded.get(i).map_or(self.inputs[i], |p| &p[..])
    }

    /// An `[L, 8]` scratch output for the tail, `None` for a full group
    /// (which writes the shared output in place).
    fn scratch(&self) -> Option<peb_pool::PoolBuf<f32>> {
        (!self.padded.is_empty()).then(|| peb_pool::PoolBuf::zeroed(self.geom.l * LANES))
    }
}

/// Stores the real lanes of a padded `[L, 8]` tail result into columns
/// `ci0..ch` of the `[L, ch]` output.
///
/// # Safety
///
/// The calling group must own those columns of `dst`.
unsafe fn store_tail(src: &[f32], dst: &peb_par::UnsafeSlice<f32>, ch: usize, ci0: usize) {
    for (t, row) in src.chunks_exact(LANES).enumerate() {
        // SAFETY: the caller's group owns columns ci0..ch of row t.
        unsafe { dst.slice_mut(t * ch + ci0..t * ch + ch) }.copy_from_slice(&row[..ch - ci0]);
    }
}

/// The skip weights of the group at `ci0`, zero in its pad lanes.
fn skip_lanes(skip: &[f32], ci0: usize) -> [f32; LANES] {
    let mut out = [0f32; LANES];
    let lanes = (skip.len() - ci0).min(LANES);
    out[..lanes].copy_from_slice(&skip[ci0..ci0 + lanes]);
    out
}

/// `[u, Δ, a, b, c, d]` of the forward: `y` and, when `record`, the
/// state trajectory.
fn scan_forward(ops: [&Tensor; 6], dims: Dims, record: bool) -> (Tensor, peb_pool::PoolBuf<f32>) {
    let (l, ch, n, _) = dims;
    let _span = peb_obs::span("scan.fwd");
    peb_obs::count(peb_obs::Counter::ScanLanes, ch as u64);
    let [ud, dd, ad, bd, cd, skip] = ops.map(Tensor::data);
    let groups = ch.div_ceil(LANES);
    let group_traj = l * n * LANES;
    // The trajectory is the big (L·8·N per group) scratch of the scan,
    // kept in the kernels' `[group][t][N][8]` layout; pooled so repeated
    // forward/backward passes reuse one buffer. It is handed to the
    // backward closure and recycles when the graph node drops. Only
    // backward reads it, so a non-recording call keeps it empty. The
    // kernel stores every (t, ni) vector of it, pad lanes included, so it
    // is checked out for overwrite.
    let mut h_traj =
        peb_pool::PoolBuf::<f32>::for_overwrite(if record { groups * group_traj } else { 0 });
    let mut y = Tensor::for_overwrite(&[l, ch]);
    {
        // Channel groups are independent: the t-recurrence runs
        // sequentially per group while groups fan out over the pool.
        // Every y/h_traj position belongs to exactly one group, so the
        // result is thread-count independent.
        let yslots = peb_par::UnsafeSlice::new(y.data_mut());
        let hslots = peb_par::UnsafeSlice::new(&mut h_traj);
        let group_cost = 12 * (LANES * l * n) as u64;
        peb_par::parallel_chunks_cost(groups, groups.div_ceil(8), group_cost, |chunk| {
            let mut h = peb_pool::PoolBuf::<f32>::zeroed(n * LANES);
            let mut apack = peb_pool::PoolBuf::<f32>::cleared(n * LANES);
            for gi in chunk {
                let view = GroupView::new(dims, gi, [ud, dd]);
                let ci0 = gi * LANES;
                peb_simd::scan::pack_a_lanes8(ad, n, ci0, view.geom.lanes, &mut apack);
                let skip8 = skip_lanes(skip, ci0);
                h.fill(0.0);
                // SAFETY: group gi owns trajectory block gi.
                let traj = record
                    .then(|| unsafe { hslots.slice_mut(gi * group_traj..(gi + 1) * group_traj) });
                let ops = peb_simd::scan::LaneOperands {
                    u: view.input(0),
                    delta: view.input(1),
                    a_pack: &apack,
                    b: bd,
                    c: cd,
                    skip8: &skip8,
                };
                let mut tail = view.scratch();
                let tail_slots = tail.as_deref_mut().map(|t| peb_par::UnsafeSlice::new(t));
                // SAFETY: the group owns y columns ci0..ci0+8 (or its own
                // tail scratch); groups are disjoint.
                unsafe {
                    peb_simd::scan::scan_forward_lanes8(
                        view.geom,
                        ops,
                        &mut h,
                        tail_slots.as_ref().unwrap_or(&yslots),
                        traj,
                    );
                }
                if let Some(tail) = &tail {
                    // SAFETY: the tail group owns columns ci0..ch.
                    unsafe { store_tail(tail, &yslots, ch, ci0) };
                }
            }
        });
    }
    (y, h_traj)
}

/// The gradients of `[u, Δ, a, b, c, d]` for the output gradient `g`.
fn scan_backward(g: &Tensor, ops: [&Tensor; 6], h_traj: &[f32], dims: Dims) -> Vec<Tensor> {
    let (l, ch, n, _) = dims;
    let _span = peb_obs::span("scan.bwd");
    peb_obs::count(peb_obs::Counter::ScanLanes, ch as u64);
    let gd = g.data();
    let [ud, dd, ad, bd, cd, skip] = ops.map(Tensor::data);
    let groups = ch.div_ceil(LANES);
    let group_traj = l * n * LANES;
    let ln = l * n;
    let mut du = Tensor::zeros(&[l, ch]);
    let mut ddelta = Tensor::zeros(&[l, ch]);
    let mut da = Tensor::zeros(&[ch, n]);
    let mut db = Tensor::zeros(&[l, n]);
    let mut dc = Tensor::zeros(&[l, n]);
    let mut dskip = Tensor::zeros(&[ch]);
    // du/ddelta/da/dskip are per-channel disjoint, so groups write them
    // directly. db and dc reduce *across* channels: each group sums its
    // lanes into its own `[db | dc]` partial of one pooled
    // `[groups, 2·L·N]` buffer, and the partials are summed in ascending
    // group order below — group boundaries depend only on `ch`, so the
    // reduction order (and bits) are identical at any thread count.
    let mut partials = peb_pool::PoolBuf::<f32>::zeroed(groups * 2 * ln);
    {
        let duslots = peb_par::UnsafeSlice::new(du.data_mut());
        let ddslots = peb_par::UnsafeSlice::new(ddelta.data_mut());
        let daslots = peb_par::UnsafeSlice::new(da.data_mut());
        let dsslots = peb_par::UnsafeSlice::new(dskip.data_mut());
        let pslots = peb_par::UnsafeSlice::new(&mut partials);
        // Calibrated in time rather than counted: a group costs ≈ 10 ns
        // per (t, state) on a 2-vCPU AVX2 box, and a call under ≈ 30 µs
        // runs faster inline (L = 64 × 48 channels: 28 µs inline, 34 µs
        // forked over two threads), while L = 256 × 36 still gains from
        // the split (101 → 78 µs).
        let group_cost = 16 * (l * n) as u64;
        peb_par::parallel_chunks_cost(groups, groups.div_ceil(8), group_cost, |chunk| {
            let mut dh = peb_pool::PoolBuf::<f32>::zeroed(n * LANES);
            let mut apack = peb_pool::PoolBuf::<f32>::cleared(n * LANES);
            let mut da8 = peb_pool::PoolBuf::<f32>::zeroed(n * LANES);
            for gi in chunk {
                let view = GroupView::new(dims, gi, [ud, dd, gd]);
                let (ci0, lanes) = (gi * LANES, view.geom.lanes);
                peb_simd::scan::pack_a_lanes8(ad, n, ci0, lanes, &mut apack);
                let skip8 = skip_lanes(skip, ci0);
                da8.fill(0.0);
                let mut dskip8 = [0f32; LANES];
                // SAFETY: group gi owns partial block gi.
                let part = unsafe { pslots.slice_mut(gi * 2 * ln..(gi + 1) * 2 * ln) };
                let (dbp, dcp) = part.split_at_mut(ln);
                let ops = peb_simd::scan::LaneOperands {
                    u: view.input(0),
                    delta: view.input(1),
                    a_pack: &apack,
                    b: bd,
                    c: cd,
                    skip8: &skip8,
                };
                let (mut du_tail, mut dd_tail) = (view.scratch(), view.scratch());
                let du_tail_slots = du_tail.as_deref_mut().map(|t| peb_par::UnsafeSlice::new(t));
                let dd_tail_slots = dd_tail.as_deref_mut().map(|t| peb_par::UnsafeSlice::new(t));
                let grads = peb_simd::scan::LaneGrads {
                    du: du_tail_slots.as_ref().unwrap_or(&duslots),
                    ddelta: dd_tail_slots.as_ref().unwrap_or(&ddslots),
                    da: &mut da8,
                    dskip: &mut dskip8,
                    db: dbp,
                    dc: dcp,
                };
                let traj = &h_traj[gi * group_traj..(gi + 1) * group_traj];
                // SAFETY: the group owns du/ddelta columns ci0..ci0+8 (or
                // its own tail scratch); groups are disjoint.
                unsafe {
                    peb_simd::scan::scan_backward_lanes8(
                        view.geom,
                        ops,
                        view.input(2),
                        traj,
                        &mut dh,
                        grads,
                    );
                }
                if let (Some(du_tail), Some(dd_tail)) = (&du_tail, &dd_tail) {
                    // SAFETY: the tail group owns columns ci0..ch.
                    unsafe {
                        store_tail(du_tail, &duslots, ch, ci0);
                        store_tail(dd_tail, &ddslots, ch, ci0);
                    }
                }
                for j in 0..lanes {
                    let ci = ci0 + j;
                    // SAFETY: the group owns dskip[ci] and da row ci.
                    unsafe {
                        *dsslots.get_mut(ci) = dskip8[j];
                        for ni in 0..n {
                            *daslots.get_mut(ci * n + ni) = da8[ni * LANES + j];
                        }
                    }
                }
            }
        });
    }
    let (dbd, dcd) = (db.data_mut(), dc.data_mut());
    for part in partials.chunks_exact(2 * ln) {
        // Exact lane adds in ascending group order — bitwise identical at
        // any dispatch level.
        let (dbp, dcp) = part.split_at(ln);
        peb_simd::elementwise::vadd_assign(dbd, dbp);
        peb_simd::elementwise::vadd_assign(dcd, dcp);
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

    /// The per-lane scalar recurrence every lane ran before the lane
    /// kernels — the ragged tail's loop until it was padded — with the
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
        // Padding is exact at the scalar level: every width — one
        // group, padded tails of 1..7 lanes, several groups — reproduces
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
        // every direction, a padded tail and several groups, at every
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
        // 19 channels: two full lane groups plus a padded tail, all of
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
