//! Convolution layers: dense 2-D/3-D (im2col + GEMM), depthwise 3-D, and
//! transposed 2-D for the decoder.
//!
//! All convolutions are implemented as custom autograd operations with
//! analytic backward passes; the gradient-check tests at the bottom verify
//! them against finite differences.

use rand::Rng;

use peb_tensor::{Tensor, Var};

use crate::init::kaiming_uniform;
use crate::Parameterized;

// ---------------------------------------------------------------------------
// Raw im2col machinery (2-D)
// ---------------------------------------------------------------------------

fn out_extent(n: usize, k: usize, stride: usize, pad: usize) -> usize {
    (n + 2 * pad).saturating_sub(k) / stride + 1
}

/// Unfolds `[Cin, H, W]` into a `[Cin·kh·kw, Ho·Wo]` patch matrix.
///
/// Channels unfold in parallel: each channel owns a disjoint `kh·kw·Ho·Wo`
/// block of the patch matrix, so the result is thread-count independent.
fn im2col2(input: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize) -> Tensor {
    let (cin, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (ho, wo) = (
        out_extent(h, kh, stride, pad),
        out_extent(w, kw, stride, pad),
    );
    let src = input.data();
    let cols = ho * wo;
    let per_c = kh * kw * cols;
    peb_obs::optrace::note("conv.im2col", || {
        format!("cin={cin} hw={h}x{w} k={kh}x{kw} stride={stride} pad={pad} cols={cols}")
    });
    // Pooled patch matrix: `zeros` checks the (large) buffer out of the
    // thread-local pool instead of allocating it on every forward and
    // backward pass.
    let mut out = Tensor::zeros(&[cin * kh * kw, cols]);
    peb_par::parallel_chunks_mut_cost(out.data_mut(), per_c, 4, |offset, chunk| {
        let c = offset / per_c;
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ky * kw + kx) * cols;
                for oy in 0..ho {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    for ox in 0..wo {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            src[(c * h + iy as usize) * w + ix as usize]
                        } else {
                            0.0
                        };
                        chunk[row + oy * wo + ox] = v;
                    }
                }
            }
        }
    });
    peb_obs::count(peb_obs::Counter::Im2colBytes, 4 * (cin * per_c) as u64);
    out
}

/// Adjoint of [`im2col2`]: folds a patch matrix back into `[Cin, H, W]`,
/// accumulating overlaps.
#[allow(clippy::too_many_arguments)]
fn col2im2(
    cols_t: &Tensor,
    cin: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (ho, wo) = (
        out_extent(h, kh, stride, pad),
        out_extent(w, kw, stride, pad),
    );
    let src = cols_t.data();
    let mut out = Tensor::zeros(&[cin, h, w]);
    let cols = ho * wo;
    let per_c = h * w;
    peb_obs::count(peb_obs::Counter::Im2colBytes, 4 * cols_t.len() as u64);
    // Overlap accumulation stays sequential *within* a channel, and
    // channels scatter into disjoint `[h·w]` planes — deterministic.
    peb_par::parallel_chunks_mut_cost(
        out.data_mut(),
        per_c,
        4 * (kh * kw) as u64,
        |offset, dst| {
            let c = offset / per_c;
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = ((c * kh + ky) * kw + kx) * cols;
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
                            dst[iy as usize * w + ix as usize] += src[row + oy * wo + ox];
                        }
                    }
                }
            }
        },
    );
    out
}

// ---------------------------------------------------------------------------
// Raw im2col machinery (3-D)
// ---------------------------------------------------------------------------

/// Unfolds `[Cin, D, H, W]` into `[Cin·kd·kh·kw, Do·Ho·Wo]`.
#[allow(clippy::too_many_arguments)]
fn im2col3(
    input: &Tensor,
    kd: usize,
    kh: usize,
    kw: usize,
    stride: (usize, usize, usize),
    pad: (usize, usize, usize),
) -> Tensor {
    let s = input.shape();
    let dd = out_extent(s[1], kd, stride.0, pad.0);
    im2col3_range(input, kd, kh, kw, stride, pad, 0, dd)
}

/// Unfolds the output-depth slab `[oz0, oz1)` of `[Cin, D, H, W]` into
/// `[Cin·kd·kh·kw, (oz1−oz0)·Ho·Wo]` — the corresponding column block of
/// the full [`im2col3`] matrix, filled with identical per-element loads.
#[allow(clippy::too_many_arguments)]
fn im2col3_range(
    input: &Tensor,
    kd: usize,
    kh: usize,
    kw: usize,
    stride: (usize, usize, usize),
    pad: (usize, usize, usize),
    oz0: usize,
    oz1: usize,
) -> Tensor {
    let s = input.shape();
    let (cin, d, h, w) = (s[0], s[1], s[2], s[3]);
    let (hh, ww) = (
        out_extent(h, kh, stride.1, pad.1),
        out_extent(w, kw, stride.2, pad.2),
    );
    let src = input.data();
    let cols = (oz1 - oz0) * hh * ww;
    let per_c = kd * kh * kw * cols;
    peb_obs::optrace::note("conv.im2col3", || {
        format!("cin={cin} dhw={d}x{h}x{w} k={kd}x{kh}x{kw} oz={oz0}..{oz1} cols={cols}")
    });
    // Pooled patch matrix, as in `im2col2`.
    let mut out = Tensor::zeros(&[cin * kd * kh * kw, cols]);
    peb_par::parallel_chunks_mut_cost(out.data_mut(), per_c, 4, |offset, chunk| {
        let c = offset / per_c;
        for kz in 0..kd {
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = ((kz * kh + ky) * kw + kx) * cols;
                    let mut col = 0usize;
                    for oz in oz0..oz1 {
                        let iz = (oz * stride.0 + kz) as isize - pad.0 as isize;
                        for oy in 0..hh {
                            let iy = (oy * stride.1 + ky) as isize - pad.1 as isize;
                            for ox in 0..ww {
                                let ix = (ox * stride.2 + kx) as isize - pad.2 as isize;
                                let v = if iz >= 0
                                    && iz < d as isize
                                    && iy >= 0
                                    && iy < h as isize
                                    && ix >= 0
                                    && ix < w as isize
                                {
                                    src[((c * d + iz as usize) * h + iy as usize) * w + ix as usize]
                                } else {
                                    0.0
                                };
                                chunk[row + col] = v;
                                col += 1;
                            }
                        }
                    }
                }
            }
        }
    });
    peb_obs::count(peb_obs::Counter::Im2colBytes, 4 * (cin * per_c) as u64);
    out
}

/// Adjoint of [`im2col3`].
#[allow(clippy::too_many_arguments)]
fn col2im3(
    cols_t: &Tensor,
    cin: usize,
    d: usize,
    h: usize,
    w: usize,
    kd: usize,
    kh: usize,
    kw: usize,
    stride: (usize, usize, usize),
    pad: (usize, usize, usize),
) -> Tensor {
    let (dd, hh, ww) = (
        out_extent(d, kd, stride.0, pad.0),
        out_extent(h, kh, stride.1, pad.1),
        out_extent(w, kw, stride.2, pad.2),
    );
    let src = cols_t.data();
    let mut out = Tensor::zeros(&[cin, d, h, w]);
    let cols = dd * hh * ww;
    let per_c = d * h * w;
    peb_obs::count(peb_obs::Counter::Im2colBytes, 4 * cols_t.len() as u64);
    peb_par::parallel_chunks_mut_cost(
        out.data_mut(),
        per_c,
        4 * (kd * kh * kw) as u64,
        |offset, dst| {
            let c = offset / per_c;
            for kz in 0..kd {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let row = (((c * kd + kz) * kh + ky) * kw + kx) * cols;
                        let mut col = 0usize;
                        for oz in 0..dd {
                            let iz = (oz * stride.0 + kz) as isize - pad.0 as isize;
                            for oy in 0..hh {
                                let iy = (oy * stride.1 + ky) as isize - pad.1 as isize;
                                for ox in 0..ww {
                                    let ix = (ox * stride.2 + kx) as isize - pad.2 as isize;
                                    if iz >= 0
                                        && iz < d as isize
                                        && iy >= 0
                                        && iy < h as isize
                                        && ix >= 0
                                        && ix < w as isize
                                    {
                                        dst[(iz as usize * h + iy as usize) * w + ix as usize] +=
                                            src[row + col];
                                    }
                                    col += 1;
                                }
                            }
                        }
                    }
                }
            }
        },
    );
    out
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// Dense 2-D convolution on `[Cin, H, W]` volumes.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Var, // [Cout, Cin·kh·kw] (GEMM layout)
    bias: Option<Var>,
    cin: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

impl Conv2d {
    /// Creates a square-kernel layer.
    pub fn new(
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = cin * kernel * kernel;
        let weight = Var::parameter(kaiming_uniform(&[cout, fan_in], fan_in, rng));
        let bias = bias.then(|| Var::parameter(Tensor::zeros(&[cout])));
        Conv2d {
            weight,
            bias,
            cin,
            cout,
            kernel,
            stride,
            pad,
        }
    }

    /// Output spatial extents for an input of `(h, w)`.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            out_extent(h, self.kernel, self.stride, self.pad),
            out_extent(w, self.kernel, self.stride, self.pad),
        )
    }

    /// Applies the convolution to `[Cin, H, W]`, producing `[Cout, Ho, Wo]`.
    ///
    /// # Panics
    ///
    /// Panics if the channel count mismatches.
    pub fn forward(&self, x: &Var) -> Var {
        let xs = x.shape();
        assert_eq!(xs[0], self.cin, "Conv2d expects {} channels", self.cin);
        let (h, w) = (xs[1], xs[2]);
        let (ho, wo) = self.output_hw(h, w);
        let (k, stride, pad, cin, cout) = (self.kernel, self.stride, self.pad, self.cin, self.cout);
        let _span = peb_obs::span("conv.conv2d_fwd");
        let col = im2col2(&x.value(), k, k, stride, pad);
        let mut out = self.weight.value().matmul(&col).expect("conv2d gemm");
        if let Some(b) = &self.bias {
            let bv = b.value();
            let data = out.data_mut();
            for c in 0..cout {
                let bias_c = bv.data()[c];
                for v in &mut data[c * ho * wo..(c + 1) * ho * wo] {
                    *v += bias_c;
                }
            }
        }
        let out = out.reshape(&[cout, ho, wo]).expect("conv2d reshape");
        let xc = x.clone();
        let wc = self.weight.clone();
        let has_bias = self.bias.is_some();
        let mut parents = vec![x.clone(), self.weight.clone()];
        if let Some(b) = &self.bias {
            parents.push(b.clone());
        }
        Var::from_op(out, parents, move |g| {
            let _span = peb_obs::span("conv.conv2d_bwd");
            let gm = g.reshape(&[cout, ho * wo]).expect("conv2d grad reshape");
            let col = im2col2(&xc.value(), k, k, stride, pad);
            // dW = G · colᵀ ; dX = col2im(Wᵀ · G) ; db = Σ_spatial G.
            let dw = gm.matmul(&col.transpose2()).expect("conv2d dw");
            let dcol = wc.value().transpose2().matmul(&gm).expect("conv2d dcol");
            let dx = col2im2(&dcol, cin, h, w, k, k, stride, pad);
            let mut grads = vec![Some(dx), Some(dw)];
            if has_bias {
                let db = gm.sum_axis(1).expect("conv2d db");
                grads.push(Some(db));
            }
            grads
        })
    }
}

impl Parameterized for Conv2d {
    fn parameters(&self) -> Vec<Var> {
        let mut p = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            p.push(b.clone());
        }
        p
    }
}

// ---------------------------------------------------------------------------
// Conv3d
// ---------------------------------------------------------------------------

/// Dense 3-D convolution on `[Cin, D, H, W]` volumes, with independent
/// stride/padding per axis.
#[derive(Debug, Clone)]
pub struct Conv3d {
    weight: Var, // [Cout, Cin·kd·kh·kw]
    bias: Option<Var>,
    cin: usize,
    cout: usize,
    kernel: (usize, usize, usize),
    stride: (usize, usize, usize),
    pad: (usize, usize, usize),
}

impl Conv3d {
    /// Creates a layer with per-axis kernel/stride/padding.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cin: usize,
        cout: usize,
        kernel: (usize, usize, usize),
        stride: (usize, usize, usize),
        pad: (usize, usize, usize),
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = cin * kernel.0 * kernel.1 * kernel.2;
        let weight = Var::parameter(kaiming_uniform(&[cout, fan_in], fan_in, rng));
        let bias = bias.then(|| Var::parameter(Tensor::zeros(&[cout])));
        Conv3d {
            weight,
            bias,
            cin,
            cout,
            kernel,
            stride,
            pad,
        }
    }

    /// Cubic-kernel, stride-1, same-padding convenience constructor.
    pub fn same(cin: usize, cout: usize, k: usize, rng: &mut impl Rng) -> Self {
        let p = k / 2;
        Self::new(cin, cout, (k, k, k), (1, 1, 1), (p, p, p), true, rng)
    }

    /// Output extents for an input of `(d, h, w)`.
    pub fn output_dhw(&self, d: usize, h: usize, w: usize) -> (usize, usize, usize) {
        (
            out_extent(d, self.kernel.0, self.stride.0, self.pad.0),
            out_extent(h, self.kernel.1, self.stride.1, self.pad.1),
            out_extent(w, self.kernel.2, self.stride.2, self.pad.2),
        )
    }

    /// Applies the convolution to `[Cin, D, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if the channel count mismatches.
    pub fn forward(&self, x: &Var) -> Var {
        let xs = x.shape();
        assert_eq!(xs[0], self.cin, "Conv3d expects {} channels", self.cin);
        let (d, h, w) = (xs[1], xs[2], xs[3]);
        let (dd, hh, ww) = self.output_dhw(d, h, w);
        let (kd, kh, kw) = self.kernel;
        let (stride, pad, cin, cout) = (self.stride, self.pad, self.cin, self.cout);
        let _span = peb_obs::span("conv.conv3d_fwd");
        let xv = x.value();
        let wv = self.weight.value();
        // Depth-slab tiling: build the patch matrix and run the GEMM one
        // output-depth slab at a time so the per-slab working set (patch
        // columns + output columns) stays cache-resident instead of
        // streaming the full `Do·Ho·Wo` column space per pass. Bitwise
        // identical to the untiled path: patch fill is pure per-element,
        // and GEMM accumulation order per output element depends only on
        // the K blocking, never on how columns are partitioned. Only the
        // forward tiles — the backward `dw` GEMM and `col2im3` accumulate
        // *across* columns, where slab splits would change bracketing.
        let col_rows = cin * kd * kh * kw;
        let plane = hh * ww;
        let bytes_per_oz = (col_rows + cout) * plane * 4;
        let mut out = match peb_pool::tile::slab_items(bytes_per_oz, dd) {
            Some(sd) if sd < dd => {
                let cols = dd * plane;
                let mut out = Tensor::zeros(&[cout, cols]);
                let mut d0 = 0usize;
                while d0 < dd {
                    let d1 = (d0 + sd).min(dd);
                    let slab = im2col3_range(&xv, kd, kh, kw, stride, pad, d0, d1);
                    let part = wv.matmul(&slab).expect("conv3d gemm slab");
                    let pdata = part.data();
                    let pcols = (d1 - d0) * plane;
                    let odata = out.data_mut();
                    for c in 0..cout {
                        odata[c * cols + d0 * plane..c * cols + d1 * plane]
                            .copy_from_slice(&pdata[c * pcols..(c + 1) * pcols]);
                    }
                    peb_obs::count(peb_obs::Counter::SlabPasses, 1);
                    d0 = d1;
                }
                out
            }
            _ => {
                let col = im2col3(&xv, kd, kh, kw, stride, pad);
                wv.matmul(&col).expect("conv3d gemm")
            }
        };
        drop(xv);
        if let Some(b) = &self.bias {
            let bv = b.value();
            let spatial = dd * hh * ww;
            let data = out.data_mut();
            for c in 0..cout {
                let bias_c = bv.data()[c];
                for v in &mut data[c * spatial..(c + 1) * spatial] {
                    *v += bias_c;
                }
            }
        }
        let out = out.reshape(&[cout, dd, hh, ww]).expect("conv3d reshape");
        let xc = x.clone();
        let wc = self.weight.clone();
        let has_bias = self.bias.is_some();
        let mut parents = vec![x.clone(), self.weight.clone()];
        if let Some(b) = &self.bias {
            parents.push(b.clone());
        }
        Var::from_op(out, parents, move |g| {
            let _span = peb_obs::span("conv.conv3d_bwd");
            let gm = g
                .reshape(&[cout, dd * hh * ww])
                .expect("conv3d grad reshape");
            let col = im2col3(&xc.value(), kd, kh, kw, stride, pad);
            let dw = gm.matmul(&col.transpose2()).expect("conv3d dw");
            let dcol = wc.value().transpose2().matmul(&gm).expect("conv3d dcol");
            let dx = col2im3(&dcol, cin, d, h, w, kd, kh, kw, stride, pad);
            let mut grads = vec![Some(dx), Some(dw)];
            if has_bias {
                grads.push(Some(gm.sum_axis(1).expect("conv3d db")));
            }
            grads
        })
    }
}

impl Parameterized for Conv3d {
    fn parameters(&self) -> Vec<Var> {
        let mut p = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            p.push(b.clone());
        }
        p
    }
}

// ---------------------------------------------------------------------------
// Depthwise Conv3d
// ---------------------------------------------------------------------------

/// Depthwise 3-D convolution (groups = channels), stride 1, same padding.
///
/// This is the `DW-Conv3D` block of the paper's Fig. 2/Fig. 5(a): a cheap
/// local refinement applied channel by channel.
#[derive(Debug, Clone)]
pub struct DwConv3d {
    weight: Var, // [C, k, k, k]
    bias: Var,   // [C]
    channels: usize,
    kernel: usize,
}

impl DwConv3d {
    /// Creates a depthwise layer with a cubic kernel (odd `k`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is even (same-padding needs odd kernels).
    pub fn new(channels: usize, kernel: usize, rng: &mut impl Rng) -> Self {
        assert!(kernel % 2 == 1, "DwConv3d requires an odd kernel");
        let fan_in = kernel * kernel * kernel;
        let weight = Var::parameter(kaiming_uniform(
            &[channels, kernel, kernel, kernel],
            fan_in,
            rng,
        ));
        let bias = Var::parameter(Tensor::zeros(&[channels]));
        DwConv3d {
            weight,
            bias,
            channels,
            kernel,
        }
    }

    /// Applies the layer to `[C, D, H, W]`, preserving the shape.
    ///
    /// # Panics
    ///
    /// Panics if the channel count mismatches.
    pub fn forward(&self, x: &Var) -> Var {
        let xs = x.shape();
        assert_eq!(
            xs[0], self.channels,
            "DwConv3d expects {} channels",
            self.channels
        );
        let (c, d, h, w) = (xs[0], xs[1], xs[2], xs[3]);
        let k = self.kernel;
        let p = k / 2;
        let out = dw3_forward(&x.value(), &self.weight.value(), &self.bias.value(), k, p);
        let xc = x.clone();
        let wc = self.weight.clone();
        Var::from_op(
            out,
            vec![x.clone(), self.weight.clone(), self.bias.clone()],
            move |g| {
                let (dx, dw) = dw3_backward(&xc.value(), &wc.value(), g, k, p);
                // Bias gradient: sum of g per channel.
                let mut db = Tensor::zeros(&[c]);
                let spatial = d * h * w;
                for ci in 0..c {
                    db.data_mut()[ci] = g.data()[ci * spatial..(ci + 1) * spatial]
                        .iter()
                        .map(|&v| v as f64)
                        .sum::<f64>() as f32;
                }
                vec![Some(dx), Some(dw), Some(db)]
            },
        )
    }
}

impl Parameterized for DwConv3d {
    fn parameters(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

fn dw3_forward(x: &Tensor, w: &Tensor, b: &Tensor, k: usize, p: usize) -> Tensor {
    let _span = peb_obs::span("conv.dw3_fwd");
    let s = x.shape();
    let (c, d, h, wd) = (s[0], s[1], s[2], s[3]);
    let mut out = Tensor::zeros(s);
    let xd = x.data();
    let wdat = w.data();
    let per_c = d * h * wd;
    let _ = c;
    // Depthwise by definition: channel `ci` reads and writes only its own
    // plane, so channels fan out with no cross-talk.
    peb_par::parallel_chunks_mut_cost(
        out.data_mut(),
        per_c,
        2 * (k * k * k) as u64,
        |offset, od| {
            let ci = offset / per_c;
            let wbase = ci * k * k * k;
            for z in 0..d {
                for y in 0..h {
                    for xx in 0..wd {
                        let mut acc = b.data()[ci];
                        for kz in 0..k {
                            let iz = z as isize + kz as isize - p as isize;
                            if iz < 0 || iz >= d as isize {
                                continue;
                            }
                            for ky in 0..k {
                                let iy = y as isize + ky as isize - p as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = xx as isize + kx as isize - p as isize;
                                    if ix < 0 || ix >= wd as isize {
                                        continue;
                                    }
                                    acc += wdat[wbase + (kz * k + ky) * k + kx]
                                        * xd[((ci * d + iz as usize) * h + iy as usize) * wd
                                            + ix as usize];
                                }
                            }
                        }
                        od[(z * h + y) * wd + xx] = acc;
                    }
                }
            }
        },
    );
    out
}

fn dw3_backward(x: &Tensor, w: &Tensor, g: &Tensor, k: usize, p: usize) -> (Tensor, Tensor) {
    let _span = peb_obs::span("conv.dw3_bwd");
    let s = x.shape();
    let (c, d, h, wd) = (s[0], s[1], s[2], s[3]);
    let mut dx = Tensor::zeros(s);
    let mut dw = Tensor::zeros(w.shape());
    let xd = x.data();
    let wdat = w.data();
    let gd = g.data();
    let per_c = d * h * wd;
    let _ = c;
    // dX: channel ci's gradient scatters only into its own plane.
    peb_par::parallel_chunks_mut_cost(
        dx.data_mut(),
        per_c,
        2 * (k * k * k) as u64,
        |offset, dxd| {
            let ci = offset / per_c;
            let wbase = ci * k * k * k;
            for z in 0..d {
                for y in 0..h {
                    for xx in 0..wd {
                        let gv = gd[((ci * d + z) * h + y) * wd + xx];
                        if gv == 0.0 {
                            continue;
                        }
                        for kz in 0..k {
                            let iz = z as isize + kz as isize - p as isize;
                            if iz < 0 || iz >= d as isize {
                                continue;
                            }
                            for ky in 0..k {
                                let iy = y as isize + ky as isize - p as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = xx as isize + kx as isize - p as isize;
                                    if ix < 0 || ix >= wd as isize {
                                        continue;
                                    }
                                    dxd[(iz as usize * h + iy as usize) * wd + ix as usize] +=
                                        gv * wdat[wbase + (kz * k + ky) * k + kx];
                                }
                            }
                        }
                    }
                }
            }
        },
    );
    // dW: each channel accumulates its own k³ taps, in the sequential
    // spatial order (accumulation order is thread-count independent).
    peb_par::parallel_chunks_mut_cost(
        dw.data_mut(),
        k * k * k,
        2 * (d * h * wd) as u64,
        |offset, dwd| {
            let ci = offset / (k * k * k);
            for z in 0..d {
                for y in 0..h {
                    for xx in 0..wd {
                        let gv = gd[((ci * d + z) * h + y) * wd + xx];
                        if gv == 0.0 {
                            continue;
                        }
                        for kz in 0..k {
                            let iz = z as isize + kz as isize - p as isize;
                            if iz < 0 || iz >= d as isize {
                                continue;
                            }
                            for ky in 0..k {
                                let iy = y as isize + ky as isize - p as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = xx as isize + kx as isize - p as isize;
                                    if ix < 0 || ix >= wd as isize {
                                        continue;
                                    }
                                    dwd[(kz * k + ky) * k + kx] += gv
                                        * xd[((ci * d + iz as usize) * h + iy as usize) * wd
                                            + ix as usize];
                                }
                            }
                        }
                    }
                }
            }
        },
    );
    (dx, dw)
}

// ---------------------------------------------------------------------------
// ConvTranspose2d
// ---------------------------------------------------------------------------

/// Transposed 2-D convolution (decoder upsampling).
///
/// Weight layout `[Cin, Cout, k, k]`; output extent
/// `(n − 1)·stride + k − 2·pad`.
#[derive(Debug, Clone)]
pub struct ConvTranspose2d {
    weight: Var,
    bias: Var,
    cin: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

impl ConvTranspose2d {
    /// Creates a layer.
    pub fn new(
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = cin * kernel * kernel;
        let weight = Var::parameter(kaiming_uniform(&[cin, cout, kernel, kernel], fan_in, rng));
        let bias = Var::parameter(Tensor::zeros(&[cout]));
        ConvTranspose2d {
            weight,
            bias,
            cin,
            cout,
            kernel,
            stride,
            pad,
        }
    }

    /// Output extents for an input of `(h, w)`.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h - 1) * self.stride + self.kernel - 2 * self.pad,
            (w - 1) * self.stride + self.kernel - 2 * self.pad,
        )
    }

    /// Applies the layer to `[Cin, H, W]`, producing `[Cout, Ho, Wo]`.
    ///
    /// # Panics
    ///
    /// Panics if the channel count mismatches.
    pub fn forward(&self, x: &Var) -> Var {
        let xs = x.shape();
        assert_eq!(
            xs[0], self.cin,
            "ConvTranspose2d expects {} channels",
            self.cin
        );
        let (h, w) = (xs[1], xs[2]);
        let (ho, wo) = self.output_hw(h, w);
        let (k, stride, pad, cin, cout) = (self.kernel, self.stride, self.pad, self.cin, self.cout);
        let out = convt2_forward(
            &x.value(),
            &self.weight.value(),
            &self.bias.value(),
            ho,
            wo,
            k,
            stride,
            pad,
        );
        let xc = x.clone();
        let wc = self.weight.clone();
        Var::from_op(
            out,
            vec![x.clone(), self.weight.clone(), self.bias.clone()],
            move |g| {
                let (dx, dw) = convt2_backward(&xc.value(), &wc.value(), g, k, stride, pad);
                let mut db = Tensor::zeros(&[cout]);
                let spatial = ho * wo;
                for co in 0..cout {
                    db.data_mut()[co] = g.data()[co * spatial..(co + 1) * spatial]
                        .iter()
                        .map(|&v| v as f64)
                        .sum::<f64>() as f32;
                }
                let _ = cin;
                vec![Some(dx), Some(dw), Some(db)]
            },
        )
    }
}

impl Parameterized for ConvTranspose2d {
    fn parameters(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// GEMM formulation of the transposed convolution: `col = Wᵀ·x` followed
/// by a strided [`col2im2`] scatter. Identical math to the direct scatter
/// loops, ~an order of magnitude faster on decoder-sized tensors.
#[allow(clippy::too_many_arguments)]
fn convt2_forward(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    ho: usize,
    wo: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let _span = peb_obs::span("conv.convt2_fwd");
    let (cin, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let cout = w.shape()[1];
    // W [cin, cout·k·k] → transpose → [cout·k·k, cin]; x as [cin, H·W].
    let wmat = w
        .reshape(&[cin, cout * k * k])
        .expect("convt weight mat")
        .transpose2();
    let xmat = x.reshape(&[cin, h * wd]).expect("convt input mat");
    let col = wmat.matmul(&xmat).expect("convt gemm");
    let mut out = col2im2(&col, cout, ho, wo, k, k, stride, pad);
    let od = out.data_mut();
    for (co, &bias_c) in b.data().iter().enumerate() {
        for v in &mut od[co * ho * wo..(co + 1) * ho * wo] {
            *v += bias_c;
        }
    }
    out
}

fn convt2_backward(
    x: &Tensor,
    w: &Tensor,
    g: &Tensor,
    k: usize,
    stride: usize,
    pad: usize,
) -> (Tensor, Tensor) {
    let _span = peb_obs::span("conv.convt2_bwd");
    let (cin, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let cout = w.shape()[1];
    // dX = W_mat · im2col(dY); dW = im2col(dY) · Xᵀ (transposed back).
    let gcol = im2col2(g, k, k, stride, pad); // [cout·k·k, H·W]
    let wmat = w.reshape(&[cin, cout * k * k]).expect("convt weight mat");
    let dx = wmat
        .matmul(&gcol)
        .expect("convt dx gemm")
        .reshape(&[cin, h, wd])
        .expect("convt dx reshape");
    let xmat = x.reshape(&[cin, h * wd]).expect("convt x mat");
    let dw = gcol
        .matmul(&xmat.transpose2())
        .expect("convt dw gemm")
        .transpose2()
        .reshape(w.shape())
        .expect("convt dw reshape");
    (dx, dw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_tensor::check_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conv2d_identity_kernel() {
        let mut rng = StdRng::seed_from_u64(5);
        let conv = Conv2d::new(1, 1, 1, 1, 0, false, &mut rng);
        conv.weight.set_value(Tensor::ones(&[1, 1]));
        let x = Var::constant(Tensor::from_fn(&[1, 4, 4], |i| i as f32));
        let y = conv.forward(&x);
        assert!(y.value().approx_eq(&x.value(), 1e-6));
    }

    #[test]
    fn conv2d_shapes_with_stride_and_pad() {
        let mut rng = StdRng::seed_from_u64(6);
        let conv = Conv2d::new(2, 3, 3, 2, 1, true, &mut rng);
        let x = Var::constant(Tensor::ones(&[2, 8, 8]));
        assert_eq!(conv.forward(&x).shape(), vec![3, 4, 4]);
    }

    #[test]
    fn conv2d_matches_direct_computation() {
        let mut rng = StdRng::seed_from_u64(7);
        let conv = Conv2d::new(1, 1, 3, 1, 1, false, &mut rng);
        let x = Var::constant(Tensor::randn(&[1, 5, 5], &mut rng));
        let y = conv.forward(&x);
        // Direct correlation at a middle pixel.
        let wv = conv.weight.value_clone();
        let xv = x.value_clone();
        let mut expect = 0f32;
        for ky in 0..3usize {
            for kx in 0..3usize {
                expect += wv.data()[ky * 3 + kx] * xv.get(&[0, 1 + ky, 1 + kx]);
            }
        }
        assert!((y.value().get(&[0, 2, 2]) - expect).abs() < 1e-4);
    }

    #[test]
    fn conv3d_tiled_forward_is_bitwise_identical_to_untiled() {
        let mut rng = StdRng::seed_from_u64(42);
        let conv = Conv3d::new(3, 5, (3, 3, 3), (1, 1, 1), (1, 1, 1), true, &mut rng);
        let x = Var::constant(Tensor::randn(&[3, 12, 10, 10], &mut rng));
        let run = |tile_bytes| {
            let scoped = peb_par::ExecCtx {
                tile_bytes,
                ..peb_par::ctx::current()
            };
            peb_par::ctx::with(scoped, || conv.forward(&x).value_clone())
        };
        // Tiny target → one output plane per slab.
        let (tiled, untiled) = (run(Some(1)), run(None));
        assert_eq!(tiled.shape(), untiled.shape());
        for (a, b) in tiled.data().iter().zip(untiled.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn conv2d_gradcheck() {
        let mut rng = StdRng::seed_from_u64(8);
        let conv = Conv2d::new(2, 2, 3, 2, 1, true, &mut rng);
        let x0 = Tensor::randn(&[2, 5, 5], &mut rng);
        let r = check_gradients(
            &Var::parameter(x0),
            |v| conv.forward(v).square().sum(),
            1e-2,
        );
        assert!(r.ok(3e-2), "input grad: {r:?}");
        // Weight gradient.
        let x = Var::constant(Tensor::randn(&[2, 5, 5], &mut rng));
        let w0 = conv.weight.value_clone();
        let r = check_gradients(
            &Var::parameter(w0.clone()),
            |wv| {
                conv.weight.set_value(wv.value_clone());
                let out = conv.forward(&x).square().sum();
                // Route gradient through the actual weight parameter by
                // rebuilding: from_op parents reference conv.weight, so copy
                // the computed gradient over.
                out
            },
            1e-2,
        );
        // The closure above can't rebind parents; instead check weight grad
        // directly against numeric differentiation of the loss in w:
        let numeric = peb_tensor::numeric_gradient(
            &w0,
            |wv| {
                conv.weight.set_value(wv.value_clone());
                conv.forward(&x).square().sum()
            },
            1e-2,
        );
        conv.weight.set_value(w0);
        conv.weight.zero_grad();
        conv.forward(&x).square().sum().backward();
        let analytic = conv.weight.grad().unwrap();
        let mut max_rel = 0f32;
        for (a, n) in analytic.data().iter().zip(numeric.data()) {
            max_rel = max_rel.max((a - n).abs() / 1f32.max(a.abs()).max(n.abs()));
        }
        assert!(max_rel < 3e-2, "weight grad rel err {max_rel}");
        let _ = r;
    }

    #[test]
    fn conv3d_shapes_and_gradcheck() {
        let mut rng = StdRng::seed_from_u64(9);
        let conv = Conv3d::new(2, 3, (3, 3, 3), (1, 2, 2), (1, 1, 1), true, &mut rng);
        let x = Var::constant(Tensor::ones(&[2, 4, 6, 6]));
        assert_eq!(conv.forward(&x).shape(), vec![3, 4, 3, 3]);
        let x0 = Tensor::randn(&[2, 3, 4, 4], &mut rng);
        let small = Conv3d::same(2, 2, 3, &mut rng);
        let r = check_gradients(
            &Var::parameter(x0),
            |v| small.forward(v).square().sum(),
            1e-2,
        );
        assert!(r.ok(3e-2), "{r:?}");
    }

    #[test]
    fn dwconv3d_preserves_shape_and_gradchecks() {
        let mut rng = StdRng::seed_from_u64(10);
        let dw = DwConv3d::new(3, 3, &mut rng);
        let x = Var::constant(Tensor::randn(&[3, 3, 4, 4], &mut rng));
        assert_eq!(dw.forward(&x).shape(), vec![3, 3, 4, 4]);
        let x0 = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let dw2 = DwConv3d::new(2, 3, &mut rng);
        let r = check_gradients(&Var::parameter(x0), |v| dw2.forward(v).square().sum(), 1e-2);
        assert!(r.ok(3e-2), "{r:?}");
    }

    #[test]
    fn dwconv3d_channels_are_independent() {
        let mut rng = StdRng::seed_from_u64(11);
        let dw = DwConv3d::new(2, 3, &mut rng);
        // Zeroing channel 1's input only changes channel 1's output.
        let x_full = Tensor::randn(&[2, 2, 4, 4], &mut rng);
        let mut x_zeroed = x_full.clone();
        for v in &mut x_zeroed.data_mut()[2 * 4 * 4..] {
            *v = 0.0;
        }
        let y_full = dw.forward(&Var::constant(x_full)).value_clone();
        let y_zero = dw.forward(&Var::constant(x_zeroed)).value_clone();
        let c0_full = y_full.slice_axis(0, 0, 1).unwrap();
        let c0_zero = y_zero.slice_axis(0, 0, 1).unwrap();
        assert!(c0_full.approx_eq(&c0_zero, 1e-6));
    }

    #[test]
    fn convtranspose_upsamples() {
        let mut rng = StdRng::seed_from_u64(12);
        let up = ConvTranspose2d::new(2, 3, 4, 2, 1, &mut rng);
        let x = Var::constant(Tensor::ones(&[2, 5, 5]));
        assert_eq!(up.forward(&x).shape(), vec![3, 10, 10]);
    }

    #[test]
    fn convtranspose_gradcheck() {
        let mut rng = StdRng::seed_from_u64(13);
        let up = ConvTranspose2d::new(2, 2, 3, 2, 1, &mut rng);
        let x0 = Tensor::randn(&[2, 3, 3], &mut rng);
        let r = check_gradients(&Var::parameter(x0), |v| up.forward(v).square().sum(), 1e-2);
        assert!(r.ok(3e-2), "{r:?}");
    }

    #[test]
    fn convtranspose_is_conv_adjoint() {
        // <conv(x), y> == <x, convT(y)> when sharing the same weight.
        let mut rng = StdRng::seed_from_u64(14);
        let k = 3;
        let stride = 2;
        let pad = 1;
        let conv = Conv2d::new(1, 1, k, stride, pad, false, &mut rng);
        let x = Tensor::randn(&[1, 7, 7], &mut rng);
        let cy = conv.forward(&Var::constant(x.clone())).value_clone();
        let y = Tensor::randn(cy.shape(), &mut rng);
        let lhs: f32 = cy.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        // Build a transpose layer sharing the weight (reshaped to
        // [Cin=1, Cout=1, k, k]).
        let up = ConvTranspose2d::new(1, 1, k, stride, pad, &mut rng);
        up.bias.set_value(Tensor::zeros(&[1]));
        up.weight
            .set_value(conv.weight.value().reshape(&[1, 1, k, k]).unwrap());
        let ty = up.forward(&Var::constant(y)).value_clone();
        // Output of convT on a 4×4 input is 7×7 here, matching x.
        let rhs: f32 = x.data().iter().zip(ty.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
