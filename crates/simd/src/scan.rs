//! Vectorized selective scan: the forward recurrence and its adjoint,
//! over whole `[L, C]` operands.
//!
//! [`forward`] and [`backward`] take a scan's [`Operands`], check every
//! length, and write every element of their outputs; the lane-group
//! layout below is theirs alone. The scan's channel lanes are mutually
//! independent, so eight adjacent channels ride in one vector in both
//! directions: each lane keeps exactly the per-lane expression order of
//! the scalar loops. The scalar backend is therefore **bitwise
//! identical** to the original per-lane code; the SIMD backend fuses the
//! multiply–adds and uses the polynomial `Simd8::exp` — the backward
//! recomputes `e = exp(Δ·a)` with the same lane `exp` the forward used —
//! so it is tolerance-class (but deterministic for a fixed level, at any
//! `PEB_THREADS`).
//!
//! These two are the crate's only entries that fan out over `peb-par`
//! themselves, because their partition is their lane layout: each lane
//! group runs its `t`-recurrence sequentially while the groups spread
//! over the pool in fixed chunks. Every output position belongs to one
//! group, and the backward's cross-channel `db`/`dc` sums one partial per
//! group in ascending group order (with `elementwise::vadd_assign`), so
//! the bits are the same at any thread count. Each group's kernel call
//! ticks `simd_dispatch` once on the vector path, and so does each of
//! those adds: two per group past the first.
//!
//! Layout contract (`[L, C]` row-major activations, as in `peb-mamba`):
//!
//! * step `t` of the recurrence reads `u`, `delta`, `b`, `c` (and writes
//!   their gradients) at row `t`, and stores `y` (and loads `g`) at row
//!   `walk.row(t)` of the scan's [`Walk`], so no reordered copy is made;
//! * lane group `k` is channels `8k..8k + 8`: it loads its columns of
//!   `u`, `Δ` and `g` in place with the lane trait's partial load, and
//!   stores into its columns of `y`, `du` and `dΔ` with its partial
//!   store, eight lanes in a full group;
//! * `a` is packed per group into `[N][8]` interleaved order, as are the
//!   running state `h`, the backward's carried `dh` and its `da`
//!   accumulator;
//! * the state trajectory ([`trajectory_len`] floats) is one contiguous
//!   `[L][N][8]` block per group in step order: the forward stores step
//!   `t`'s `h` as is and the backward loads it as is.
//!
//! **Pad lanes.** The last group of a width that is not a multiple of
//! eight (the ragged tail of `C % 8` lanes) loads only its real columns,
//! with zeros in the pad lanes, and the pad rows of `a` and the pad
//! skip weights are zero. A pad lane's state and gradients then stay
//! exactly zero, only the real lanes are stored, and the backward's lane
//! sums for `db`/`dc` stop at the last real lane.

use peb_par::UnsafeSlice;
use peb_pool::PoolBuf;

use crate::Simd8;

/// Channels per lane group.
const LANES: usize = 8;

/// A scan order: step `t` of a scan visits row [`Walk::row`]`(t)` of a
/// canonically ordered sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Row `t`.
    Forward,
    /// Row `len − 1 − t` of `len` rows.
    Reverse { len: usize },
    /// Depth-innermost over a depth-major volume of `d` levels of `hw`
    /// positions: all depths of position 0, then of position 1, …, so
    /// row `(t mod d)·hw + ⌊t / d⌋`.
    DepthInnermost { d: usize, hw: usize },
}

impl Walk {
    /// The row visited at step `t`.
    #[inline(always)]
    pub fn row(self, t: usize) -> usize {
        match self {
            Walk::Forward => t,
            Walk::Reverse { len } => len - 1 - t,
            Walk::DepthInnermost { d, hw } => t % d * hw + t / d,
        }
    }

    /// Whether the walk visits each of the rows `0..l` once.
    pub fn spans(self, l: usize) -> bool {
        match self {
            Walk::Forward => true,
            Walk::Reverse { len } => len == l,
            Walk::DepthInnermost { d, hw } => d * hw == l,
        }
    }
}

/// One selective scan: its six operands, row-major, its sizes and its
/// order.
#[derive(Debug, Clone, Copy)]
pub struct Operands<'a> {
    /// `[L, C]` drive, step `t` in row `t`.
    pub u: &'a [f32],
    /// `[L, C]` step sizes Δ, step `t` in row `t`.
    pub delta: &'a [f32],
    /// `[C, N]` state matrix.
    pub a: &'a [f32],
    /// `[L, N]` input projection, step `t` in row `t`.
    pub b: &'a [f32],
    /// `[L, N]` output projection, step `t` in row `t`.
    pub c: &'a [f32],
    /// `[C]` skip weights.
    pub d: &'a [f32],
    /// `(L, C, N)`.
    pub dims: (usize, usize, usize),
    /// The scan order: step `t`'s output `y` (and its gradient `g`) is
    /// row `walk.row(t)`.
    pub walk: Walk,
}

impl Operands<'_> {
    /// `(L, C, N)`, once `C > 0`, every operand's length and the walk are
    /// checked.
    fn checked_dims(&self) -> (usize, usize, usize) {
        let (l, ch, n) = self.dims;
        assert!(ch > 0, "a scan has at least one channel");
        for (name, x, len) in [
            ("u", self.u, l * ch),
            ("delta", self.delta, l * ch),
            ("a", self.a, ch * n),
            ("b", self.b, l * n),
            ("c", self.c, l * n),
            ("d", self.d, ch),
        ] {
            assert_eq!(x.len(), len, "scan operand {name}: length");
        }
        assert!(self.walk.spans(l), "{:?} does not span {l} rows", self.walk);
        self.dims
    }
}

/// Where [`backward`] writes the gradients of the six [`Operands`], each
/// shaped like its operand.
pub struct Grads<'a> {
    /// `[L, C]` ∂/∂u.
    pub du: &'a mut [f32],
    /// `[L, C]` ∂/∂Δ.
    pub ddelta: &'a mut [f32],
    /// `[C, N]` ∂/∂a.
    pub da: &'a mut [f32],
    /// `[L, N]` ∂/∂b.
    pub db: &'a mut [f32],
    /// `[L, N]` ∂/∂c.
    pub dc: &'a mut [f32],
    /// `[C]` ∂/∂d.
    pub dskip: &'a mut [f32],
}

/// Floats of the state trajectory that a recording [`forward`] of an
/// `[L, C]` scan with state size `N` stores and [`backward`] reads.
pub fn trajectory_len(l: usize, ch: usize, n: usize) -> usize {
    ch.div_ceil(LANES) * l * n * LANES
}

/// Runs the forward recurrence: per channel, time step `t` and state
/// index `ni`,
///
/// ```text
/// e  = exp(Δ_t · a[ni]);  h[ni] = e·h[ni] + (Δ_t·u_t)·b_t[ni]
/// y_t = Σ_ni c_t[ni]·h[ni] + d·u_t
/// ```
///
/// from `h = 0`, with `u_t`, `Δ_t`, `b_t` and `c_t` row `t` of their
/// operands and `y_t` written to row `walk.row(t)` of the `[L, C]` `y`.
/// When `traj` is `Some` ([`trajectory_len`] floats) the state after
/// every step is stored there for [`backward`]. Every element of `y`,
/// and of `traj`, is written.
///
/// # Panics
///
/// Panics on no channels, an operand or output of the wrong length, or
/// a walk that does not span `L`.
pub fn forward(ops: Operands<'_>, y: &mut [f32], traj: Option<&mut [f32]>) {
    let (l, ch, n) = ops.checked_dims();
    assert_eq!(y.len(), l * ch, "scan output y: length");
    let traj = traj.map(|t| {
        assert_eq!(t.len(), trajectory_len(l, ch, n), "scan trajectory: length");
        UnsafeSlice::new(t)
    });
    let y = UnsafeSlice::new(y);
    let group_traj = l * n * LANES;
    for_each_group(ch, 12 * group_traj as u64, 2 * n * LANES, |grp, scratch| {
        let at = grp.index * group_traj;
        // SAFETY: group `index` owns trajectory block `index`.
        let traj = traj
            .as_ref()
            .map(|t| unsafe { t.slice_mut(at..at + group_traj) });
        // SAFETY: the group owns its columns of `y`; groups are disjoint.
        unsafe { forward_group(ops, grp, scratch, &y, traj) }
    });
}

/// Runs the adjoint recurrence, `t` from `L − 1` down to 0, over the
/// trajectory `traj` a recording [`forward`] of the same operands
/// stored: `g` is the `[L, C]` gradient of `y` (step `t` in row
/// `walk.row(t)`), and every element of every gradient in `grads` is
/// written. Per channel and step, in this order,
///
/// ```text
/// dskip += g·u;  du = g·d;  dΔ = 0
/// for ni:  dc  = g·h_t;          dh_t = g·c_t + dh
///          e   = exp(Δ·a);       de   = dh_t·h_{t−1}
///          dΔ += (de·a)·e;       da  += (de·Δ)·e
///          dΔ += (dh_t·b_t)·u;   du  += (dh_t·Δ)·b_t
///          db  = (dh_t·Δ)·u;     dh   = dh_t·e
/// ```
///
/// with `e` from the forward's lane `exp`. `db` and `dc` sum over the
/// channels: each group adds its lanes in ascending order from `+0`, and
/// the group partials are added in ascending group order.
///
/// # Panics
///
/// Panics on no channels, an operand, gradient or trajectory of the
/// wrong length, or a walk that does not span `L`.
pub fn backward(ops: Operands<'_>, g: &[f32], traj: &[f32], grads: Grads<'_>) {
    let (l, ch, n) = ops.checked_dims();
    let Grads {
        du,
        ddelta,
        da,
        db,
        dc,
        dskip,
    } = grads;
    for (name, x, len) in [
        ("g", g, l * ch),
        ("traj", traj, trajectory_len(l, ch, n)),
        ("du", du, l * ch),
        ("ddelta", ddelta, l * ch),
        ("da", da, ch * n),
        ("db", db, l * n),
        ("dc", dc, l * n),
        ("dskip", dskip, ch),
    ] {
        assert_eq!(x.len(), len, "scan backward {name}: length");
    }
    let (ln, group_traj) = (l * n, l * n * LANES);
    // du/dΔ/da/dskip are per-channel, so groups write them directly. db
    // and dc reduce *across* channels: group 0 writes its lane sums to
    // them, every further group to its own `[db | dc]` partial, added
    // below.
    let further = ch.div_ceil(LANES) - 1;
    let mut partials = PoolBuf::<f32>::for_overwrite(further * 2 * ln);
    {
        let out = ChannelGrads {
            du: UnsafeSlice::new(du),
            ddelta: UnsafeSlice::new(ddelta),
            da: UnsafeSlice::new(da),
            dskip: UnsafeSlice::new(dskip),
        };
        let (db0, dc0) = (UnsafeSlice::new(db), UnsafeSlice::new(dc));
        let parts = UnsafeSlice::new(&mut partials);
        // Calibrated in time rather than counted: a group costs ≈ 10 ns
        // per (t, state) on a 2-vCPU AVX2 box, and a call under ≈ 30 µs
        // runs faster inline (L = 64 × 48 channels: 28 µs inline, 34 µs
        // forked over two threads), while L = 256 × 36 still gains from
        // the split (101 → 78 µs).
        for_each_group(ch, 16 * ln as u64, 3 * n * LANES, |grp, scratch| {
            // SAFETY: group 0 alone writes db and dc, group `k > 0` alone
            // partial block `k − 1`.
            let (dbp, dcp) = unsafe {
                match grp.index.checked_sub(1) {
                    None => (db0.slice_mut(0..ln), dc0.slice_mut(0..ln)),
                    Some(k) => parts
                        .slice_mut(2 * k * ln..2 * (k + 1) * ln)
                        .split_at_mut(ln),
                }
            };
            let traj = &traj[grp.index * group_traj..][..group_traj];
            // SAFETY: the group owns its channels of `out`; groups are
            // disjoint.
            unsafe { backward_group(ops, grp, g, traj, scratch, &out, dbp, dcp) }
        });
    }
    // The further groups' partials are added in ascending group order —
    // group boundaries depend only on `C`, so the bits are the same at any
    // thread count. A lane sum starts from `+0`, so it is never −0 and
    // group 0's stands for `+0 + partial`.
    for k in 0..further {
        let (dbp, dcp) = partials[2 * k * ln..2 * (k + 1) * ln].split_at(ln);
        crate::elementwise::vadd_assign(db, dbp);
        crate::elementwise::vadd_assign(dc, dcp);
    }
}

/// One lane group of a `C`-channel scan: channels `ci0..ci0 + lanes`.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// The group's position, `ci0 / 8`.
    index: usize,
    /// First channel.
    ci0: usize,
    /// Real lanes, `1..=8`; lanes past it are zero padding.
    lanes: usize,
}

impl Group {
    /// Packs the group's rows of the `[C, N]` matrix `a` into `out` in
    /// interleaved `[N][8]` order, `out[ni·8 + j] = a[(ci0 + j)·n + ni]`,
    /// with zeros in the pad lanes.
    #[inline(always)]
    fn pack_a(self, a: &[f32], n: usize, out: &mut [f32]) {
        for (ni, packed) in out.chunks_exact_mut(LANES).enumerate() {
            for (j, v) in packed.iter_mut().enumerate() {
                *v = if j < self.lanes {
                    a[(self.ci0 + j) * n + ni]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Runs `f` on every lane group of a `ch`-channel scan, the groups spread
/// over the pool in fixed chunks of `⌈groups / 8⌉` (cost hint
/// `group_cost` per group), with `scratch` floats of per-chunk scratch
/// that `f` writes before reading.
fn for_each_group(
    ch: usize,
    group_cost: u64,
    scratch: usize,
    f: impl Fn(Group, &mut [f32]) + Sync,
) {
    let groups = ch.div_ceil(LANES);
    peb_par::parallel_chunks_cost(groups, groups.div_ceil(8), group_cost, |chunk| {
        let mut buf = PoolBuf::<f32>::for_overwrite(scratch);
        for index in chunk {
            let ci0 = index * LANES;
            let lanes = (ch - ci0).min(LANES);
            f(Group { index, ci0, lanes }, &mut buf);
        }
    });
}

/// The backward's per-channel gradients, shared by the lane groups: a
/// group writes only its own channels.
struct ChannelGrads<'a> {
    /// `[L, C]` ∂/∂u.
    du: UnsafeSlice<'a, f32>,
    /// `[L, C]` ∂/∂Δ.
    ddelta: UnsafeSlice<'a, f32>,
    /// `[C, N]` ∂/∂a.
    da: UnsafeSlice<'a, f32>,
    /// `[C]` ∂/∂d.
    dskip: UnsafeSlice<'a, f32>,
}

dispatched! {
    /// [`forward`] for one lane group. `scratch` (`2·n·8` floats) holds
    /// the packed `a` and the running state `h`; `h_traj`, when `Some`,
    /// is the group's `[L][N][8]` trajectory block, every vector of which
    /// is stored, pad lanes included.
    ///
    /// # Safety
    ///
    /// The group must own its columns of `y` (positions `r·C + ci`)
    /// exclusively — the `UnsafeSlice` disjoint-writes contract.
    unsafe fn forward_group<V>(
        ops: Operands<'_>,
        grp: Group,
        scratch: &mut [f32],
        y: &UnsafeSlice<f32>,
        h_traj: Option<&mut [f32]>,
    ) {
        let Operands { u, delta, a, b, c, d, dims: (l, ch, n), walk } = ops;
        let Group { ci0, lanes, .. } = grp;
        let (a_pack, h) = scratch[..2 * n * LANES].split_at_mut(n * LANES);
        grp.pack_a(a, n, a_pack);
        h.fill(0.0);
        let mut h_traj = h_traj;
        let skipv = V::load_lanes(&d[ci0..ci0 + lanes], lanes);
        for t in 0..l {
            let row = t * ch + ci0;
            let dtv = V::load_lanes(&delta[row..row + lanes], lanes);
            let utv = V::load_lanes(&u[row..row + lanes], lanes);
            let dtu = dtv.mul(utv);
            let mut acc = V::zero();
            let mut traj_t = h_traj
                .as_deref_mut()
                .map(|tr| &mut tr[t * n * LANES..(t + 1) * n * LANES]);
            for ni in 0..n {
                let av = V::load(&a_pack[ni * LANES..(ni + 1) * LANES]);
                let e = dtv.mul(av).exp();
                let hs = &mut h[ni * LANES..(ni + 1) * LANES];
                // h = e·h + (Δ·u)·b — unfused on the scalar backend, matching
                // `e * *hv + dtu * bd[..]` bit for bit.
                let hv = e.mul_add(V::load(hs), dtu.mul(V::splat(b[t * n + ni])));
                hv.store(hs);
                if let Some(tr) = traj_t.as_deref_mut() {
                    hv.store(&mut tr[ni * LANES..(ni + 1) * LANES]);
                }
                acc = V::splat(c[t * n + ni]).mul_add(hv, acc);
            }
            let yv = skipv.mul_add(utv, acc);
            let out = walk.row(t) * ch + ci0;
            // SAFETY: the group owns y positions out..out+lanes (caller
            // contract).
            yv.store_lanes(unsafe { y.slice_mut(out..out + lanes) }, lanes);
        }
    }
}

dispatched! {
    /// [`backward`] for one lane group over its `[L][N][8]` trajectory
    /// block `h_traj`. `scratch` (`3·n·8` floats) holds the packed `a`,
    /// the carried `dh` and the `da` accumulator. Each step's `db`/`dc`
    /// lanes are summed with `Simd8::transpose8`, lanes `0..lanes` in
    /// ascending order from `+0`, into the group's partials `db`/`dc`.
    ///
    /// # Safety
    ///
    /// The group must own its channels of `out` exclusively (the
    /// `UnsafeSlice` disjoint-writes contract).
    unsafe fn backward_group<V>(
        ops: Operands<'_>,
        grp: Group,
        g: &[f32],
        h_traj: &[f32],
        scratch: &mut [f32],
        out: &ChannelGrads<'_>,
        db: &mut [f32],
        dc: &mut [f32],
    ) {
        let Operands { u, delta, a, b, c, d, dims: (l, ch, n), walk } = ops;
        let Group { ci0, lanes, .. } = grp;
        let (a_pack, rest) = scratch[..3 * n * LANES].split_at_mut(n * LANES);
        let (dh, da) = rest.split_at_mut(n * LANES);
        grp.pack_a(a, n, a_pack);
        dh.fill(0.0);
        da.fill(0.0);
        let skipv = V::load_lanes(&d[ci0..ci0 + lanes], lanes);
        let mut dskipv = V::zero();
        for t in (0..l).rev() {
            let row = t * ch + ci0;
            let gr = walk.row(t) * ch + ci0;
            let gy = V::load_lanes(&g[gr..gr + lanes], lanes);
            let dt = V::load_lanes(&delta[row..row + lanes], lanes);
            let ut = V::load_lanes(&u[row..row + lanes], lanes);
            dskipv = gy.mul_add(ut, dskipv);
            let mut du_acc = gy.mul(skipv);
            let mut ddt_acc = V::zero();
            let h_t = &h_traj[t * n * LANES..(t + 1) * n * LANES];
            let h_prev = t
                .checked_sub(1)
                .map(|tp| &h_traj[tp * n * LANES..t * n * LANES]);
            for ni0 in (0..n).step_by(LANES) {
                let m = (n - ni0).min(LANES);
                // Per-state lane contributions to db/dc, summed over lanes
                // after the block.
                let mut dcr = [V::zero(); LANES];
                let mut dbr = [V::zero(); LANES];
                for k in 0..m {
                    let ni = ni0 + k;
                    let s = ni * LANES;
                    dcr[k] = gy.mul(V::load(&h_t[s..s + LANES]));
                    // Total gradient into h_t: from y plus from h_{t+1}.
                    let dht = gy.mul_add(V::splat(c[t * n + ni]), V::load(&dh[s..s + LANES]));
                    let av = V::load(&a_pack[s..s + LANES]);
                    let e = dt.mul(av).exp();
                    let hp = h_prev.map_or(V::zero(), |hp| V::load(&hp[s..s + LANES]));
                    // Through the decay factor e = exp(Δ·a) …
                    let de = dht.mul(hp);
                    ddt_acc = de.mul(av).mul_add(e, ddt_acc);
                    de.mul(dt)
                        .mul_add(e, V::load(&da[s..s + LANES]))
                        .store(&mut da[s..s + LANES]);
                    // … and through the drive term Δ·u·b.
                    let bv = V::splat(b[t * n + ni]);
                    ddt_acc = dht.mul(bv).mul_add(ut, ddt_acc);
                    let dht_dt = dht.mul(dt);
                    du_acc = dht_dt.mul_add(bv, du_acc);
                    dbr[k] = dht_dt.mul(ut);
                    // Carry to h_{t−1}.
                    dht.mul(e).store(&mut dh[s..s + LANES]);
                }
                let at = t * n + ni0;
                lane_sums(dcr, lanes, &mut dc[at..at + m]);
                lane_sums(dbr, lanes, &mut db[at..at + m]);
            }
            // `+0 + value` turns a −0 into +0: the bits of an add into a
            // zeroed gradient.
            // SAFETY: the group owns du/ddelta positions row..row+lanes
            // (caller contract).
            let du = unsafe { out.du.slice_mut(row..row + lanes) };
            V::zero().add(du_acc).store_lanes(du, lanes);
            // SAFETY: as above.
            let ddelta = unsafe { out.ddelta.slice_mut(row..row + lanes) };
            V::zero().add(ddt_acc).store_lanes(ddelta, lanes);
        }
        for (j, &ds) in dskipv.to_array()[..lanes].iter().enumerate() {
            let ci = ci0 + j;
            // SAFETY: the group owns dskip[ci] and row ci of da (caller
            // contract).
            unsafe {
                *out.dskip.get_mut(ci) = ds;
                for (ni, v) in out.da.slice_mut(ci * n..(ci + 1) * n).iter_mut().enumerate() {
                    *v = da[ni * LANES + j];
                }
            }
        }
    }
}

/// Stores into `out[k]` the sum of lanes `0..lanes` of `rows[k]`, added
/// in ascending lane order from `+0` (`out.len() ≤ 8` rows).
#[inline(always)]
fn lane_sums<V: Simd8>(rows: [V; 8], lanes: usize, out: &mut [f32]) {
    let cols = V::transpose8(rows);
    let mut acc = V::zero();
    for col in &cols[..lanes] {
        acc = acc.add(*col);
    }
    if out.len() == LANES {
        acc.store(out);
    } else {
        out.copy_from_slice(&acc.to_array()[..out.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;
    use peb_par::ctx::at_level;

    /// The original per-lane scalar recurrence, as written in peb-mamba,
    /// with the trajectory in its old `[(t·ch + ci)·n + ni]` layout.
    #[allow(clippy::too_many_arguments)]
    fn reference(
        u: &[f32],
        delta: &[f32],
        a: &[f32],
        b: &[f32],
        c: &[f32],
        d: &[f32],
        l: usize,
        ch: usize,
        n: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut y = vec![0f32; l * ch];
        let mut traj = vec![0f32; l * ch * n];
        let mut h = vec![0f32; n];
        for ci in 0..ch {
            h.iter_mut().for_each(|v| *v = 0.0);
            for t in 0..l {
                let dt = delta[t * ch + ci];
                let ut = u[t * ch + ci];
                let dtu = dt * ut;
                let mut acc = 0f32;
                for (ni, hv) in h.iter_mut().enumerate() {
                    let e = (dt * a[ci * n + ni]).exp();
                    *hv = e * *hv + dtu * b[t * n + ni];
                    acc += c[t * n + ni] * *hv;
                }
                y[t * ch + ci] = acc + d[ci] * ut;
                traj[(t * ch + ci) * n..(t * ch + ci + 1) * n].copy_from_slice(&h);
            }
        }
        (y, traj)
    }

    fn pseudo(len: usize, salt: u32, lo: f32, hi: f32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                lo + (x as f32 / u32::MAX as f32) * (hi - lo)
            })
            .collect()
    }

    #[test]
    fn scalar_backend_matches_per_lane_loop_bitwise() {
        // Two full groups, and one full group plus a 5-lane tail whose
        // pad lanes' states are stored as zeros.
        for ch in [16, 13] {
            let (l, n) = (11, 5);
            let u = pseudo(l * ch, 1, -1.0, 1.0);
            let delta = pseudo(l * ch, 2, 0.05, 0.5);
            let a = pseudo(ch * n, 3, -1.5, -0.2);
            let b = pseudo(l * n, 4, -1.0, 1.0);
            let c = pseudo(l * n, 5, -1.0, 1.0);
            let d = pseudo(ch, 6, -1.0, 1.0);
            let (want_y, want_traj) = reference(&u, &delta, &a, &b, &c, &d, l, ch, n);

            let ops = Operands {
                u: &u,
                delta: &delta,
                a: &a,
                b: &b,
                c: &c,
                d: &d,
                dims: (l, ch, n),
                walk: Walk::Forward,
            };
            let mut y = vec![f32::NAN; l * ch];
            let mut traj = vec![f32::NAN; trajectory_len(l, ch, n)];
            at_level(Level::Scalar, || forward(ops, &mut y, Some(&mut traj)));
            for (w, g) in want_y.iter().zip(&y) {
                assert_eq!(w.to_bits(), g.to_bits(), "ch={ch}");
            }
            // Group layout [group][t][N][8] against the per-lane layout.
            for t in 0..l {
                for ci in 0..ch.next_multiple_of(8) {
                    for ni in 0..n {
                        let (gi, j) = (ci / 8, ci % 8);
                        let got = traj[((gi * l + t) * n + ni) * 8 + j];
                        let want = if ci < ch {
                            want_traj[(t * ch + ci) * n + ni]
                        } else {
                            0.0
                        };
                        assert_eq!(want.to_bits(), got.to_bits(), "ch={ch} t={t} c={ci} n={ni}");
                    }
                }
            }
        }
    }
}
