//! Vectorized selective scan: the forward recurrence and its adjoint.
//!
//! The scan's channel lanes are mutually independent, so eight adjacent
//! channels ride in one vector in both directions: each lane keeps
//! exactly the per-lane expression order of the scalar loops. The scalar
//! backend is therefore **bitwise identical** to the original per-lane
//! code; the SIMD backend fuses the multiply–adds and uses the
//! polynomial `Simd8::exp` — the backward recomputes `e = exp(Δ·a)`
//! with the same lane `exp` the forward used — so it is tolerance-class
//! (but deterministic for a fixed level, at any `PEB_THREADS`).
//!
//! Layout contract (`[L, C]` row-major activations, as in `peb-mamba`),
//! described per group by a [`Group`]:
//!
//! * step `t` of the recurrence reads `u`, `delta`, `b`, `c` (and writes
//!   their gradients) at row `t`, and stores `y` (and loads `g`) at row
//!   `walk.row(t)` of the group's [`Walk`], so no reordered copy is made;
//! * `u`/`delta` — and `y`, the output gradient `g`, `du`, `ddelta` —
//!   rows hold channels contiguously, so the group `ci0..ci0+8` loads
//!   directly;
//! * `a` is pre-packed per group by [`pack_a_lanes8`] into `[N][8]`
//!   interleaved order, as are the running state `h`, the backward's
//!   carried `dh` and its `da` accumulator;
//! * the state trajectory is kept in the group's own layout, one
//!   contiguous `[L][N][8]` block per group in step order: the forward
//!   stores step `t`'s `h` as is and the backward loads it as is;
//! * `y`, `du` and `ddelta` are written through [`peb_par::UnsafeSlice`]
//!   because a lane group owns strided positions of the shared output.
//!
//! **Pad lanes.** A group narrower than eight channels (the ragged tail
//! of `C % 8` lanes) runs the same kernels on zero-padded `[L, 8]`
//! copies of its `u`, `Δ` and `g` (`ch = 8`, `ci0 = 0`, rows where they
//! were, so the same walk serves them), with the pad
//! rows of `a` and the pad skip weights zero. A pad lane's state and
//! gradients then stay exactly zero; the caller stores only the real
//! lanes, and the backward's lane sums for `db`/`dc` stop at
//! [`Group::lanes`].

use peb_par::UnsafeSlice;

use crate::Simd8;

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

/// Geometry of one 8-lane channel group of a `[L, ch]` scan.
#[derive(Debug, Clone, Copy)]
pub struct Group {
    /// Sequence length `L`.
    pub l: usize,
    /// Row stride of the `[L, ch]` activations.
    pub ch: usize,
    /// State size `N`.
    pub n: usize,
    /// First channel: the group's lanes are columns `ci0..ci0 + 8`.
    pub ci0: usize,
    /// Real lanes, `1..=8`; lanes past it are zero padding.
    pub lanes: usize,
    /// The scan order: step `t`'s output (`y`, `g`) is row `walk.row(t)`.
    pub walk: Walk,
}

/// The read-only operands of one lane group, shared by both directions.
#[derive(Clone, Copy)]
pub struct LaneOperands<'a> {
    /// `[L, ch]` drive.
    pub u: &'a [f32],
    /// `[L, ch]` step sizes Δ.
    pub delta: &'a [f32],
    /// The group's rows of `a`, packed `[N][8]` by [`pack_a_lanes8`].
    pub a_pack: &'a [f32],
    /// `[L, N]` input projection.
    pub b: &'a [f32],
    /// `[L, N]` output projection.
    pub c: &'a [f32],
    /// The group's eight skip weights.
    pub skip8: &'a [f32],
}

/// Where [`scan_backward_lanes8`] puts one group's gradients.
pub struct LaneGrads<'s, 'a> {
    /// `[L, ch]` ∂/∂u, added into at the group's columns.
    pub du: &'s UnsafeSlice<'a, f32>,
    /// `[L, ch]` ∂/∂Δ, added into at the group's columns.
    pub ddelta: &'s UnsafeSlice<'a, f32>,
    /// `[N][8]` ∂/∂a in `a_pack` order, added into.
    pub da: &'s mut [f32],
    /// `[8]` ∂/∂d, added into.
    pub dskip: &'s mut [f32],
    /// `[L, N]` ∂/∂b: overwritten with the sum of the group's real
    /// lanes, in ascending lane order.
    pub db: &'s mut [f32],
    /// `[L, N]` ∂/∂c, likewise.
    pub dc: &'s mut [f32],
}

/// Packs rows `ci0..ci0+lanes` of the `[C, N]` state matrix into
/// interleaved `[N][8]` order, `out[ni·8 + j] = a[(ci0+j)·n + ni]`, with
/// zeros in the pad lanes `j ≥ lanes`.
pub fn pack_a_lanes8(a: &[f32], n: usize, ci0: usize, lanes: usize, out: &mut Vec<f32>) {
    out.clear();
    for ni in 0..n {
        for j in 0..8 {
            out.push(if j < lanes {
                a[(ci0 + j) * n + ni]
            } else {
                0.0
            });
        }
    }
}

dispatched! {
    /// Runs the forward recurrence for one lane group.
    ///
    /// Per time step `t` and state index `ni`, each lane computes the scalar
    /// recurrence
    ///
    /// ```text
    /// e  = exp(Δ_t · a[ni]);  h[ni] = e·h[ni] + (Δ_t·u_t)·b_t[ni]
    /// y_t = Σ_ni c_t[ni]·h[ni] + d·u_t
    /// ```
    ///
    /// with `u_t`, `Δ_t`, `b_t` and `c_t` row `t` of their operands and
    /// `y_t` stored at row `walk.row(t)`. `h` (length `n·8`, `[N][8]`
    /// interleaved) carries the state and must be zeroed by the caller
    /// before the first time step. When `h_traj` is `Some` (the group's
    /// `[L][N][8]` block, `l·n·8` floats), the state after step `t` is
    /// stored at `h_traj[t·n·8..]`, every vector of it, pad lanes
    /// included.
    ///
    /// # Safety
    ///
    /// The caller must own columns `ci0..ci0+8` of `y` (positions
    /// `t·ch+ci`) exclusively — the standard `UnsafeSlice` disjoint-writes
    /// contract of the lane-parallel scan. Requires `ci0 + 8 <= ch` and a
    /// walk that spans `l` ([`Walk::spans`]).
    pub unsafe fn scan_forward_lanes8<V>(
        geom: Group,
        ops: LaneOperands<'_>,
        h: &mut [f32],
        y: &UnsafeSlice<f32>,
        h_traj: Option<&mut [f32]>,
    ) {
        let Group { l, ch, n, ci0, .. } = geom;
        debug_assert!(ci0 + 8 <= ch && geom.walk.spans(l));
        debug_assert!(h.len() >= n * 8 && ops.a_pack.len() >= n * 8 && ops.skip8.len() >= 8);
        debug_assert!(h_traj.as_ref().is_none_or(|t| t.len() >= l * n * 8));
        let mut h_traj = h_traj;
        let LaneOperands {
            u,
            delta,
            a_pack,
            b,
            c,
            skip8,
        } = ops;
        let h = &mut h[..n * 8];
        let skipv = V::load(skip8);
        for t in 0..l {
            let row = t * ch + ci0;
            let dtv = V::load(&delta[row..row + 8]);
            let utv = V::load(&u[row..row + 8]);
            let dtu = dtv.mul(utv);
            let mut acc = V::zero();
            let mut traj_t = h_traj
                .as_deref_mut()
                .map(|tr| &mut tr[t * n * 8..(t + 1) * n * 8]);
            for ni in 0..n {
                let av = V::load(&a_pack[ni * 8..ni * 8 + 8]);
                let e = dtv.mul(av).exp();
                let hs = &mut h[ni * 8..ni * 8 + 8];
                // h = e·h + (Δ·u)·b — unfused on the scalar backend, matching
                // `e * *hv + dtu * bd[..]` bit for bit.
                let hv = e.mul_add(V::load(hs), dtu.mul(V::splat(b[t * n + ni])));
                hv.store(hs);
                if let Some(tr) = traj_t.as_deref_mut() {
                    hv.store(&mut tr[ni * 8..ni * 8 + 8]);
                }
                acc = V::splat(c[t * n + ni]).mul_add(hv, acc);
            }
            let yv = skipv.mul_add(utv, acc);
            let out = geom.walk.row(t) * ch + ci0;
            // SAFETY: lane group owns y positions out..out+8 (caller
            // contract).
            yv.store(unsafe { y.slice_mut(out..out + 8) });
        }
    }
}

dispatched! {
    /// Runs the adjoint recurrence for one lane group, `t` from `L − 1`
    /// down to 0.
    ///
    /// `g` is the `[L, ch]` gradient of `y`, and `h_traj` the group's
    /// `[L][N][8]` trajectory as [`scan_forward_lanes8`] recorded it, in
    /// step order. Step `t` loads `g` from row `walk.row(t)`; every other
    /// `[L, ·]` operand and gradient holds it in row `t`, as in the
    /// forward. Per step, each lane computes today's scalar adjoint in its
    /// order
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
    /// with `e` from the forward's lane `exp`. `dh` (`n·8` floats) is
    /// scratch the kernel zeroes. Each step's `db`/`dc` lanes are summed
    /// with `Simd8::transpose8`, lanes `0..lanes` in ascending order from
    /// `+0`, into `grads.db`/`grads.dc` — one partial per group.
    ///
    /// # Safety
    ///
    /// The caller must own columns `ci0..ci0+8` of `grads.du` and
    /// `grads.ddelta` exclusively (the `UnsafeSlice` disjoint-writes
    /// contract). Requires `ci0 + 8 <= ch` and a walk that spans `l`.
    pub unsafe fn scan_backward_lanes8<V>(
        geom: Group,
        ops: LaneOperands<'_>,
        g: &[f32],
        h_traj: &[f32],
        dh: &mut [f32],
        grads: LaneGrads<'_, '_>,
    ) {
        let Group {
            l,
            ch,
            n,
            ci0,
            lanes,
            walk,
        } = geom;
        debug_assert!(ci0 + 8 <= ch && (1..=8).contains(&lanes) && walk.spans(l));
        debug_assert!(h_traj.len() >= l * n * 8 && dh.len() >= n * 8);
        debug_assert!(
            grads.da.len() >= n * 8 && grads.db.len() >= l * n && grads.dc.len() >= l * n
        );
        let LaneOperands {
            u,
            delta,
            a_pack,
            b,
            c,
            skip8,
        } = ops;
        let LaneGrads {
            du,
            ddelta,
            da,
            dskip,
            db,
            dc,
        } = grads;
        let (dh, da) = (&mut dh[..n * 8], &mut da[..n * 8]);
        dh.fill(0.0);
        let skipv = V::load(skip8);
        let mut dskipv = V::load(dskip);
        for t in (0..l).rev() {
            let row = t * ch + ci0;
            let gr = walk.row(t) * ch + ci0;
            let gy = V::load(&g[gr..gr + 8]);
            let dt = V::load(&delta[row..row + 8]);
            let ut = V::load(&u[row..row + 8]);
            dskipv = gy.mul_add(ut, dskipv);
            let mut du_acc = gy.mul(skipv);
            let mut ddt_acc = V::zero();
            let h_t = &h_traj[t * n * 8..(t + 1) * n * 8];
            let h_prev = t.checked_sub(1).map(|tp| &h_traj[tp * n * 8..t * n * 8]);
            for ni0 in (0..n).step_by(8) {
                let m = (n - ni0).min(8);
                // Per-state lane contributions to db/dc, summed over lanes
                // after the block.
                let mut dcr = [V::zero(); 8];
                let mut dbr = [V::zero(); 8];
                for k in 0..m {
                    let ni = ni0 + k;
                    let s = ni * 8;
                    dcr[k] = gy.mul(V::load(&h_t[s..s + 8]));
                    // Total gradient into h_t: from y plus from h_{t+1}.
                    let dht = gy.mul_add(V::splat(c[t * n + ni]), V::load(&dh[s..s + 8]));
                    let av = V::load(&a_pack[s..s + 8]);
                    let e = dt.mul(av).exp();
                    let hp = h_prev.map_or(V::zero(), |hp| V::load(&hp[s..s + 8]));
                    // Through the decay factor e = exp(Δ·a) …
                    let de = dht.mul(hp);
                    ddt_acc = de.mul(av).mul_add(e, ddt_acc);
                    de.mul(dt)
                        .mul_add(e, V::load(&da[s..s + 8]))
                        .store(&mut da[s..s + 8]);
                    // … and through the drive term Δ·u·b.
                    let bv = V::splat(b[t * n + ni]);
                    ddt_acc = dht.mul(bv).mul_add(ut, ddt_acc);
                    let dht_dt = dht.mul(dt);
                    du_acc = dht_dt.mul_add(bv, du_acc);
                    dbr[k] = dht_dt.mul(ut);
                    // Carry to h_{t−1}.
                    dht.mul(e).store(&mut dh[s..s + 8]);
                }
                let at = t * n + ni0;
                lane_sums(dcr, lanes, &mut dc[at..at + m]);
                lane_sums(dbr, lanes, &mut db[at..at + m]);
            }
            // SAFETY: lane group owns du/ddelta positions row..row+8 (caller
            // contract).
            let dst = unsafe { du.slice_mut(row..row + 8) };
            V::load(dst).add(du_acc).store(dst);
            // SAFETY: as above.
            let dst = unsafe { ddelta.slice_mut(row..row + 8) };
            V::load(dst).add(ddt_acc).store(dst);
        }
        dskipv.store(dskip);
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
    if out.len() == 8 {
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
        let (l, ch, n) = (11, 16, 5);
        let u = pseudo(l * ch, 1, -1.0, 1.0);
        let delta = pseudo(l * ch, 2, 0.05, 0.5);
        let a = pseudo(ch * n, 3, -1.5, -0.2);
        let b = pseudo(l * n, 4, -1.0, 1.0);
        let c = pseudo(l * n, 5, -1.0, 1.0);
        let d = pseudo(ch, 6, -1.0, 1.0);
        let (want_y, want_traj) = reference(&u, &delta, &a, &b, &c, &d, l, ch, n);

        let mut y = vec![0f32; l * ch];
        let mut traj = vec![0f32; l * ch * n];
        {
            let ys = UnsafeSlice::new(&mut y);
            let mut apack = Vec::new();
            let mut h = vec![0f32; n * 8];
            for (gi, group_traj) in traj.chunks_exact_mut(l * n * 8).enumerate() {
                let ci0 = gi * 8;
                pack_a_lanes8(&a, n, ci0, 8, &mut apack);
                h.iter_mut().for_each(|v| *v = 0.0);
                let geom = Group {
                    l,
                    ch,
                    n,
                    ci0,
                    lanes: 8,
                    walk: Walk::Forward,
                };
                let ops = LaneOperands {
                    u: &u,
                    delta: &delta,
                    a_pack: &apack,
                    b: &b,
                    c: &c,
                    skip8: &d[ci0..],
                };
                // SAFETY: single-threaded test; groups disjoint.
                at_level(Level::Scalar, || unsafe {
                    scan_forward_lanes8(geom, ops, &mut h, &ys, Some(group_traj))
                });
            }
        }
        for (w, g) in want_y.iter().zip(&y) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
        // Group layout [group][t][N][8] against the per-lane layout.
        for t in 0..l {
            for ci in 0..ch {
                for ni in 0..n {
                    let (gi, j) = (ci / 8, ci % 8);
                    let got = traj[((gi * l + t) * n + ni) * 8 + j];
                    let want = want_traj[(t * ch + ci) * n + ni];
                    assert_eq!(want.to_bits(), got.to_bits(), "t={t} c={ci} n={ni}");
                }
            }
        }
    }
}
