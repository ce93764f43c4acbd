//! The planes-batched conv family against its oracles.
//!
//! `Conv2d`, `ConvTranspose2d` and `DwConv3d` run whole depth planes in
//! parallel over bounds-hoisted rows. The textbook scalar loops they
//! replaced — two bounds tests per element, one plane per call, the GEMM
//! through `Tensor::matmul` — live on here as [`oracle`], and the layers
//! must reproduce them: forward and input gradients to the bit, weight
//! and bias gradients (summed over planes in a different bracketing)
//! within `1e-5` relative; every path bitwise identical at 1, 3 and 4
//! threads; the scalar and vector dispatch levels within the GEMM
//! tolerance (the depthwise layer, which runs no GEMM, to the bit); and
//! analytic gradients against finite differences.

use peb_nn::{Conv2d, ConvTranspose2d, DwConv3d, OverlappedPatchEmbed, Parameterized};
use peb_par::ctx::{self, ExecCtx, Level};
use peb_tensor::{check_gradients, numeric_gradient, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The scalar loops deleted from `src/conv.rs`, and the layers as they
/// were computed from them: one `[C, H, W]` plane per call.
mod oracle {
    use peb_tensor::Tensor;

    pub fn out_extent(n: usize, k: usize, stride: usize, pad: usize) -> usize {
        (n + 2 * pad - k) / stride + 1
    }

    /// Unfolds `[Cin, H, W]` into a `[Cin·k·k, Ho·Wo]` patch matrix.
    pub fn im2col2(input: &Tensor, k: usize, stride: usize, pad: usize) -> Tensor {
        let (cin, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let (ho, wo) = (out_extent(h, k, stride, pad), out_extent(w, k, stride, pad));
        let src = input.data();
        let cols = ho * wo;
        let mut out = Tensor::zeros(&[cin * k * k, cols]);
        let dst = out.data_mut();
        for c in 0..cin {
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((c * k + ky) * k + kx) * cols;
                    for oy in 0..ho {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        for ox in 0..wo {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            let inside = iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize;
                            dst[row + oy * wo + ox] = if inside {
                                src[(c * h + iy as usize) * w + ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
        out
    }

    /// Adjoint of [`im2col2`]: folds a patch matrix back into
    /// `[Cin, H, W]`, accumulating overlaps.
    pub fn col2im2(
        cols_t: &Tensor,
        cin: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (ho, wo) = (out_extent(h, k, stride, pad), out_extent(w, k, stride, pad));
        let src = cols_t.data();
        let cols = ho * wo;
        let mut out = Tensor::zeros(&[cin, h, w]);
        let dst = out.data_mut();
        for c in 0..cin {
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((c * k + ky) * k + kx) * cols;
                    for oy in 0..ho {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..wo {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dst[(c * h + iy as usize) * w + ix as usize] += src[row + oy * wo + ox];
                        }
                    }
                }
            }
        }
        out
    }

    fn add_bias(out: &mut Tensor, b: &Tensor) {
        let per = out.len() / b.len();
        for (block, &bias) in out.data_mut().chunks_exact_mut(per).zip(b.data()) {
            for v in block {
                *v += bias;
            }
        }
    }

    /// Per-channel sum of `g`, sequentially in f64.
    pub fn bias_grad(g: &Tensor) -> Tensor {
        let c = g.shape()[0];
        let mut db = Tensor::zeros(&[c]);
        for (o, block) in db
            .data_mut()
            .iter_mut()
            .zip(g.data().chunks_exact(g.len() / c))
        {
            *o = block.iter().map(|&v| v as f64).sum::<f64>() as f32;
        }
        db
    }

    /// `Conv2d` on one plane: `W · im2col(x) + b`.
    pub fn conv2d(
        x: &Tensor,
        w: &Tensor,
        b: Option<&Tensor>,
        k: usize,
        s: usize,
        p: usize,
    ) -> Tensor {
        let (ho, wo) = (
            out_extent(x.shape()[1], k, s, p),
            out_extent(x.shape()[2], k, s, p),
        );
        let mut out = w.matmul(&im2col2(x, k, s, p)).unwrap();
        if let Some(b) = b {
            add_bias(&mut out, b);
        }
        out.reshape(&[w.shape()[0], ho, wo]).unwrap()
    }

    /// `(dx, dW)` of [`conv2d`] for the output gradient `g`.
    pub fn conv2d_backward(
        x: &Tensor,
        w: &Tensor,
        g: &Tensor,
        k: usize,
        s: usize,
        p: usize,
    ) -> (Tensor, Tensor) {
        let (cin, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let gm = g
            .reshape(&[g.shape()[0], g.shape()[1] * g.shape()[2]])
            .unwrap();
        let dw = gm.matmul(&im2col2(x, k, s, p).transpose2()).unwrap();
        let dcol = w.transpose2().matmul(&gm).unwrap();
        (col2im2(&dcol, cin, h, wd, k, s, p), dw)
    }

    /// `ConvTranspose2d` on one plane: `col2im(W_matᵀ · x) + b`, weight
    /// `[Cin, Cout, k, k]`.
    pub fn convt2d(x: &Tensor, w: &Tensor, b: &Tensor, k: usize, s: usize, p: usize) -> Tensor {
        let (cin, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let cout = w.shape()[1];
        let (ho, wo) = ((h - 1) * s + k - 2 * p, (wd - 1) * s + k - 2 * p);
        let wmat = w.reshape(&[cin, cout * k * k]).unwrap().transpose2();
        let col = wmat.matmul(&x.reshape(&[cin, h * wd]).unwrap()).unwrap();
        let mut out = col2im2(&col, cout, ho, wo, k, s, p);
        add_bias(&mut out, b);
        out
    }

    /// `(dx, dW)` of [`convt2d`] for the output gradient `g`.
    pub fn convt2d_backward(
        x: &Tensor,
        w: &Tensor,
        g: &Tensor,
        k: usize,
        s: usize,
        p: usize,
    ) -> (Tensor, Tensor) {
        let (cin, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let cout = w.shape()[1];
        let gcol = im2col2(g, k, s, p);
        let wmat = w.reshape(&[cin, cout * k * k]).unwrap();
        let dx = wmat.matmul(&gcol).unwrap().reshape(&[cin, h, wd]).unwrap();
        let xmat = x.reshape(&[cin, h * wd]).unwrap();
        let dw = gcol
            .matmul(&xmat.transpose2())
            .unwrap()
            .transpose2()
            .reshape(w.shape())
            .unwrap();
        (dx, dw)
    }

    /// Visits every in-range `(output index, input index, tap index)` of
    /// a same-padded depthwise 3-D correlation over channel `ci`, in the
    /// scalar loop order: voxels ascending, taps `(kz, ky, kx)` ascending.
    fn dw3_taps(
        ci: usize,
        (d, h, w): (usize, usize, usize),
        k: usize,
        mut visit: impl FnMut(usize, usize, usize),
    ) {
        let p = (k / 2) as isize;
        let inside = |i: isize, n: usize| i >= 0 && i < n as isize;
        for z in 0..d {
            for y in 0..h {
                for x in 0..w {
                    for kz in 0..k {
                        let iz = z as isize + kz as isize - p;
                        for ky in 0..k {
                            let iy = y as isize + ky as isize - p;
                            for kx in 0..k {
                                let ix = x as isize + kx as isize - p;
                                if inside(iz, d) && inside(iy, h) && inside(ix, w) {
                                    visit(
                                        ((ci * d + z) * h + y) * w + x,
                                        ((ci * d + iz as usize) * h + iy as usize) * w
                                            + ix as usize,
                                        (ci * k * k + kz * k + ky) * k + kx,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// `DwConv3d` forward: `acc = b; acc += w·x` per tap.
    pub fn dw3_forward(x: &Tensor, w: &Tensor, b: &Tensor, k: usize) -> Tensor {
        let s = x.shape();
        let mut out = Tensor::zeros(s);
        let per_c = s[1] * s[2] * s[3];
        let od = out.data_mut();
        for ci in 0..s[0] {
            od[ci * per_c..(ci + 1) * per_c].fill(b.data()[ci]);
            dw3_taps(ci, (s[1], s[2], s[3]), k, |o, i, t| {
                od[o] += w.data()[t] * x.data()[i];
            });
        }
        out
    }

    /// `(dx, dW)` of [`dw3_forward`]: both scattered in loop order.
    pub fn dw3_backward(x: &Tensor, w: &Tensor, g: &Tensor, k: usize) -> (Tensor, Tensor) {
        let s = x.shape();
        let (mut dx, mut dw) = (Tensor::zeros(s), Tensor::zeros(w.shape()));
        for ci in 0..s[0] {
            dw3_taps(ci, (s[1], s[2], s[3]), k, |o, i, t| {
                dx.data_mut()[i] += g.data()[o] * w.data()[t];
                dw.data_mut()[t] += g.data()[o] * x.data()[i];
            });
        }
        (dx, dw)
    }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Plane `z` of `[C, D, H, W]` as `[C, H, W]`.
fn plane(t: &Tensor, z: usize) -> Tensor {
    let s = t.shape();
    t.slice_axis(1, z, z + 1)
        .unwrap()
        .reshape(&[s[0], s[2], s[3]])
        .unwrap()
}

/// Stacks `[C, H, W]` planes into `[C, D, H, W]`.
fn stack(planes: &[Tensor]) -> Tensor {
    let lifted: Vec<Tensor> = planes
        .iter()
        .map(|p| {
            let s = p.shape();
            p.reshape(&[s[0], 1, s[1], s[2]]).unwrap()
        })
        .collect();
    Tensor::concat(&lifted.iter().collect::<Vec<_>>(), 1).unwrap()
}

/// Element-wise sum of per-plane gradients, ascending, in f64.
fn sum_planes(parts: &[Tensor]) -> Vec<f64> {
    let mut sum = vec![0f64; parts[0].len()];
    for part in parts {
        for (s, v) in sum.iter_mut().zip(part.data()) {
            *s += f64::from(*v);
        }
    }
    sum
}

/// `got` within `tol` of `want`, relative to the larger of the
/// reference's largest magnitude and 1.
fn assert_close(got: &Tensor, want: &[f64], tol: f64, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let scale = want.iter().fold(1f64, |m, v| m.max(v.abs()));
    for (i, (g, w)) in got.data().iter().zip(want).enumerate() {
        assert!(
            (f64::from(*g) - w).abs() <= tol * scale,
            "{what}[{i}]: {g} vs {w} (scale {scale})"
        );
    }
}

/// The GEMM differential-test tolerance (`peb_tensor::kernels`): tight
/// ULPs, or an absolute error small against the `k` products behind the
/// element.
fn assert_gemm_close(a: &Tensor, b: &Tensor, k: usize, what: &str) {
    for (x, y) in a.data().iter().zip(b.data()) {
        assert!(
            peb_simd::ulp_diff(*x, *y) <= 256 || (x - y).abs() <= k as f32 * 1e-5,
            "{what}: {x} vs {y}"
        );
    }
}

/// Forward output and every gradient of `loss = Σ layer(x) ⊙ r`.
struct Pass {
    y: Tensor,
    dx: Tensor,
    /// Parameter gradients in `parameters()` order.
    dparams: Vec<Tensor>,
}

fn pass(params: &[Var], x0: &Tensor, r: &Tensor, forward: impl Fn(&Var) -> Var) -> Pass {
    params.iter().for_each(Var::zero_grad);
    let x = Var::parameter(x0.clone());
    let y = forward(&x);
    y.weighted_sum(r).backward();
    Pass {
        y: y.value_clone(),
        dx: x.grad().expect("input gradient"),
        dparams: params
            .iter()
            .map(|p| p.grad().expect("parameter gradient"))
            .collect(),
    }
}

impl Pass {
    fn digests(&self) -> Vec<u64> {
        let mut d = vec![self.y.bit_digest(), self.dx.bit_digest()];
        d.extend(self.dparams.iter().map(Tensor::bit_digest));
        d
    }
}

/// `(kernel, stride, pad)` of every dense case.
const WINDOWS: [(usize, usize, usize); 8] = [
    (3, 1, 1),
    (3, 2, 1),
    (4, 2, 1),
    (7, 4, 3),
    (3, 1, 0),
    (4, 4, 0),
    (7, 2, 3),
    (3, 2, 0),
];

// ---------------------------------------------------------------------------
// Conv2d / ConvTranspose2d against the plane-by-plane oracle
// ---------------------------------------------------------------------------

/// `[y, dx, dW, db]` of one plane, from the oracle.
type PlaneOracle<'a> = &'a dyn Fn(&Tensor, &Tensor) -> [Tensor; 4];

/// Checks `forward` on the volume `x` (loss `Σ y ⊙ r`) against `oracle`
/// run plane by plane: forward and dX to the bit, dW and db within 1e-5
/// relative of the per-plane sum; then the rank-3 call on plane 0 — the
/// D = 1 case of the same kernel — to the bit in every output.
fn assert_matches_plane_oracle(
    what: &str,
    params: &[Var],
    (x, r): (&Tensor, &Tensor),
    forward: &dyn Fn(&Var) -> Var,
    oracle: PlaneOracle,
) {
    let d = x.shape()[1];
    let got = pass(params, x, r, forward);
    let planes: Vec<[Tensor; 4]> = (0..d).map(|z| oracle(&plane(x, z), &plane(r, z))).collect();
    let column = |i: usize| planes.iter().map(|p| p[i].clone()).collect::<Vec<_>>();
    assert_eq!(bits(&got.y), bits(&stack(&column(0))), "{what}: forward");
    assert_eq!(bits(&got.dx), bits(&stack(&column(1))), "{what}: dX");
    assert_close(&got.dparams[0], &sum_planes(&column(2)), 1e-5, what);
    assert_close(&got.dparams[1], &sum_planes(&column(3)), 1e-5, what);

    let one = pass(params, &plane(x, 0), &plane(r, 0), forward);
    assert_eq!(
        one.y.shape().len(),
        3,
        "{what}: [C, H, W] in, [C, H, W] out"
    );
    let got = [&one.y, &one.dx, &one.dparams[0], &one.dparams[1]];
    for (got, want) in got.into_iter().zip(&planes[0]) {
        assert_eq!(bits(got), bits(want), "{what}: [C, H, W] call");
    }
}

#[test]
fn conv2d_planes_match_the_plane_by_plane_oracle() {
    let mut rng = StdRng::seed_from_u64(301);
    for (case, &(k, s, p)) in WINDOWS.iter().enumerate() {
        for d in [1usize, 2, 5] {
            for cout in [1usize, 19] {
                let cin = 1 + (case + d) % 3;
                // Odd H ≠ W, at least two windows along each axis.
                let (h, w) = (2 * k + 1, 2 * k + 5);
                let conv = Conv2d::new(cin, cout, k, s, p, true, &mut rng);
                let params = conv.parameters();
                params[1].set_value(Tensor::randn(&[cout], &mut rng));
                let (wv, bv) = (params[0].value_clone(), params[1].value_clone());
                let x = Tensor::randn(&[cin, d, h, w], &mut rng);
                let (ho, wo) = conv.output_hw(h, w);
                let r = Tensor::randn(&[cout, d, ho, wo], &mut rng);
                assert_matches_plane_oracle(
                    &format!("conv2d k={k} s={s} p={p} d={d} cin={cin} cout={cout}"),
                    &params,
                    (&x, &r),
                    &|v| conv.forward(v),
                    &|xz, rz| {
                        let y = oracle::conv2d(xz, &wv, Some(&bv), k, s, p);
                        let (dx, dw) = oracle::conv2d_backward(xz, &wv, rz, k, s, p);
                        [y, dx, dw, oracle::bias_grad(rz)]
                    },
                );
            }
        }
    }
}

#[test]
fn convtranspose2d_planes_match_the_plane_by_plane_oracle() {
    let mut rng = StdRng::seed_from_u64(302);
    for (case, &(k, s, p)) in WINDOWS.iter().enumerate() {
        for d in [1usize, 2, 5] {
            for cout in [1usize, 19] {
                let cin = 1 + (case + d) % 3;
                let (h, w) = (3, 5);
                let up = ConvTranspose2d::new(cin, cout, k, s, p, &mut rng);
                let params = up.parameters();
                params[1].set_value(Tensor::randn(&[cout], &mut rng));
                let (wv, bv) = (params[0].value_clone(), params[1].value_clone());
                let x = Tensor::randn(&[cin, d, h, w], &mut rng);
                let (ho, wo) = up.output_hw(h, w);
                let r = Tensor::randn(&[cout, d, ho, wo], &mut rng);
                assert_matches_plane_oracle(
                    &format!("convT k={k} s={s} p={p} d={d} cin={cin} cout={cout}"),
                    &params,
                    (&x, &r),
                    &|v| up.forward(v),
                    &|xz, rz| {
                        let y = oracle::convt2d(xz, &wv, &bv, k, s, p);
                        let (dx, dw) = oracle::convt2d_backward(xz, &wv, rz, k, s, p);
                        [y, dx, dw, oracle::bias_grad(rz)]
                    },
                );
            }
        }
    }
}

#[test]
fn convtranspose2d_bands_never_change_a_bit() {
    // One-window-row bands against the unbanded plane, on a plane big
    // enough for several bands at either stride.
    let mut rng = StdRng::seed_from_u64(303);
    for &(k, s, p) in &[(4, 2, 1), (3, 1, 1), (7, 4, 3)] {
        let up = ConvTranspose2d::new(3, 5, k, s, p, &mut rng);
        let x = Var::constant(Tensor::randn(&[3, 2, 9, 6], &mut rng));
        let run = |tile_bytes| {
            let scoped = ExecCtx {
                tile_bytes,
                ..ctx::current()
            };
            ctx::with(scoped, || bits(&up.forward(&x).value()))
        };
        assert_eq!(run(1), run(usize::MAX), "k={k} s={s} p={p}");
    }
}

// ---------------------------------------------------------------------------
// DwConv3d against the scalar loops
// ---------------------------------------------------------------------------

#[test]
fn dwconv3d_rows_match_the_scalar_loops() {
    let mut rng = StdRng::seed_from_u64(304);
    // Rows shorter than, equal to and longer than a vector; W < k too.
    for (c, k, dims) in [
        (2, 3, [5, 7, 9]),
        (1, 3, [1, 1, 1]),
        (3, 5, [2, 3, 11]),
        (2, 7, [3, 9, 2]),
        (1, 3, [4, 5, 19]),
    ] {
        let dw = DwConv3d::new(c, k, &mut rng);
        let params = dw.parameters();
        params[1].set_value(Tensor::randn(&[c], &mut rng));
        let shape = [c, dims[0], dims[1], dims[2]];
        let (x, r) = (
            Tensor::randn(&shape, &mut rng),
            Tensor::randn(&shape, &mut rng),
        );
        let got = pass(&params, &x, &r, |v| dw.forward(v));
        let (wv, bv) = (params[0].value_clone(), params[1].value_clone());
        let what = format!("dw3 c={c} k={k} dims={dims:?}");
        assert_eq!(
            bits(&got.y),
            bits(&oracle::dw3_forward(&x, &wv, &bv, k)),
            "{what}: forward"
        );
        let (dx, dw_ref) = oracle::dw3_backward(&x, &wv, &r, k);
        assert_eq!(bits(&got.dx), bits(&dx), "{what}: dX");
        let want: Vec<f64> = dw_ref.data().iter().map(|&v| f64::from(v)).collect();
        assert_close(&got.dparams[0], &want, 1e-5, &what);
        assert_eq!(
            bits(&got.dparams[1]),
            bits(&oracle::bias_grad(&r)),
            "{what}: db"
        );
    }
}

// ---------------------------------------------------------------------------
// Thread counts and dispatch levels
// ---------------------------------------------------------------------------

/// One forward + backward of every family at shapes above the parallel
/// cutoff, as digests (plus the passes themselves).
fn family_passes() -> Vec<(&'static str, usize, Pass)> {
    let mut rng = StdRng::seed_from_u64(305);
    let mut out = Vec::new();
    for &(k, s, p) in &[(3, 2, 1), (7, 4, 3), (3, 1, 1)] {
        let conv = Conv2d::new(3, 19, k, s, p, true, &mut rng);
        let x = Tensor::randn(&[3, 5, 17, 13], &mut rng);
        let (ho, wo) = conv.output_hw(17, 13);
        let r = Tensor::randn(&[19, 5, ho, wo], &mut rng);
        out.push((
            "conv2d",
            3 * k * k,
            pass(&conv.parameters(), &x, &r, |v| conv.forward(v)),
        ));
    }
    for &(k, s, p) in &[(4, 2, 1), (3, 1, 1), (7, 4, 3)] {
        let up = ConvTranspose2d::new(3, 19, k, s, p, &mut rng);
        let x = Tensor::randn(&[3, 5, 7, 9], &mut rng);
        let (ho, wo) = up.output_hw(7, 9);
        let r = Tensor::randn(&[19, 5, ho, wo], &mut rng);
        out.push((
            "convT",
            19 * k * k,
            pass(&up.parameters(), &x, &r, |v| up.forward(v)),
        ));
    }
    let dw = DwConv3d::new(3, 3, &mut rng);
    let x = Tensor::randn(&[3, 5, 9, 11], &mut rng);
    let r = Tensor::randn(&[3, 5, 9, 11], &mut rng);
    out.push(("dw3", 27, pass(&dw.parameters(), &x, &r, |v| dw.forward(v))));
    out
}

#[test]
fn every_conv_path_is_bitwise_identical_at_1_3_and_4_threads() {
    let digests = |threads| {
        peb_par::with_thread_count(threads, || {
            family_passes()
                .iter()
                .map(|(_, _, p)| p.digests())
                .collect::<Vec<_>>()
        })
    };
    let one = digests(1);
    assert_eq!(one, digests(3), "1 vs 3 threads");
    assert_eq!(one, digests(4), "1 vs 4 threads");
}

#[test]
fn dispatch_levels_agree_within_the_gemm_tolerance() {
    let at = |level| {
        let scoped = ExecCtx {
            level,
            ..ctx::current()
        };
        ctx::with(scoped, family_passes)
    };
    let (scalar, best) = (at(Level::Scalar), at(ctx::best_level()));
    for ((name, k, s), (_, _, b)) in scalar.iter().zip(&best) {
        if *name == "dw3" {
            // No GEMM: exact-class rows only.
            assert_eq!(s.digests(), b.digests(), "dw3 across levels");
            continue;
        }
        assert_gemm_close(&s.y, &b.y, *k, name);
        // Gradient GEMMs sum over a plane's windows, not a kernel's taps.
        let windows = s.y.len().max(s.dx.len());
        assert_gemm_close(&s.dx, &b.dx, windows, name);
        for (sp, bp) in s.dparams.iter().zip(&b.dparams) {
            assert_gemm_close(sp, bp, windows, name);
        }
    }
}

// ---------------------------------------------------------------------------
// Patch embedding: one batched call ≡ its own D = 1 calls, stacked
// ---------------------------------------------------------------------------

#[test]
fn patch_embed_on_a_volume_is_its_planes_stacked() {
    let mut rng = StdRng::seed_from_u64(306);
    for &(cin, cout, k, s) in &[(1, 12, 7, 4), (3, 5, 3, 2), (2, 4, 2, 2)] {
        let embed = OverlappedPatchEmbed::new(cin, cout, k, s, &mut rng);
        let params = embed.parameters();
        let (d, h, w) = (5, 4 * s + 1, 6 * s + 1);
        let x = Tensor::randn(&[cin, d, h, w], &mut rng);
        let shape = embed.forward(&Var::constant(x.clone())).shape();
        let r = Tensor::randn(&shape, &mut rng);
        let whole = pass(&params, &x, &r, |v| embed.forward(v));
        let (mut ys, mut dxs) = (Vec::new(), Vec::new());
        for z in 0..d {
            let xz = x.slice_axis(1, z, z + 1).unwrap();
            let rz = r.slice_axis(1, z, z + 1).unwrap();
            let one = pass(&params, &xz, &rz, |v| embed.forward(v));
            ys.push(one.y);
            dxs.push(one.dx);
        }
        let cat = |parts: &[Tensor]| Tensor::concat(&parts.iter().collect::<Vec<_>>(), 1).unwrap();
        assert_eq!(
            bits(&whole.y),
            bits(&cat(&ys)),
            "embed k={k} s={s}: forward"
        );
        assert_eq!(bits(&whole.dx), bits(&cat(&dxs)), "embed k={k} s={s}: dX");
    }
}

// ---------------------------------------------------------------------------
// Gradient checks of the batched layers
// ---------------------------------------------------------------------------

/// Largest relative gap between `param`'s analytic gradient of `loss`
/// and central differences in its value.
fn param_gradcheck(param: &Var, loss: impl Fn() -> Var) -> f32 {
    let w0 = param.value_clone();
    let numeric = numeric_gradient(
        &w0,
        |wv| {
            param.set_value(wv.value_clone());
            loss()
        },
        1e-2,
    );
    param.set_value(w0);
    param.zero_grad();
    loss().backward();
    let analytic = param.grad().expect("parameter gradient");
    analytic
        .data()
        .iter()
        .zip(numeric.data())
        .map(|(a, n)| (a - n).abs() / 1f32.max(a.abs()).max(n.abs()))
        .fold(0.0, f32::max)
}

#[test]
fn batched_layers_pass_gradient_checks() {
    let mut rng = StdRng::seed_from_u64(307);
    let conv = Conv2d::new(2, 3, 3, 2, 1, true, &mut rng);
    let up = ConvTranspose2d::new(2, 3, 4, 2, 1, &mut rng);
    let dw = DwConv3d::new(2, 3, &mut rng);
    type Forward<'a> = Box<dyn Fn(&Var) -> Var + 'a>;
    let cases: [(&str, Forward, Vec<Var>, [usize; 4]); 3] = [
        (
            "Conv2d",
            Box::new(|v| conv.forward(v)),
            conv.parameters(),
            [2, 3, 5, 7],
        ),
        (
            "ConvTranspose2d",
            Box::new(|v| up.forward(v)),
            up.parameters(),
            [2, 3, 3, 4],
        ),
        (
            "DwConv3d",
            Box::new(|v| dw.forward(v)),
            dw.parameters(),
            [2, 3, 4, 5],
        ),
    ];
    for (name, forward, params, shape) in &cases {
        let x0 = Tensor::randn(shape, &mut rng);
        let report = check_gradients(
            &Var::parameter(x0.clone()),
            |v| forward(v).square().sum(),
            1e-2,
        );
        assert!(report.ok(3e-2), "{name} input gradient: {report:?}");
        let x = Var::constant(x0);
        for (i, param) in params.iter().enumerate() {
            let err = param_gradcheck(param, || forward(&x).square().sum());
            assert!(err < 3e-2, "{name} parameter {i}: relative error {err}");
        }
    }
}
