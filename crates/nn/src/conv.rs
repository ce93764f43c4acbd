//! Convolution layers: dense 2-D and transposed 2-D over depth planes,
//! dense 3-D, and depthwise 3-D.
//!
//! # The planes-batched family
//!
//! [`Conv2d`] and [`ConvTranspose2d`] work on `[C, D, H, W]` volumes whose
//! `D` planes share the weights (`[C, H, W]` is the `D = 1` case of the
//! same kernel); [`Conv3d`] computes plane `z` from a window of `k` input
//! planes; [`DwConv3d`] works on `[C, D, H, W]` channel by channel. Chunk
//! boundaries — plane `z`, a band of its output rows in the transposed
//! conv's forward, plane `(c, z)` for the depthwise layer — never depend
//! on the thread count, so every path is bitwise identical at any thread
//! count.
//!
//! A conv and a transposed conv with the same `(k, s, p)` are each
//! other's adjoint, so every dense layer runs on one kernel family, the
//! direct sub-pixel kernels of [`SubPixel`]: the transposed conv's forward
//! is the conv's `dx`, the conv's forward is the transposed conv's `dx`,
//! and one `dW` kernel serves both; the 3-D conv is the stride-1 2-D conv
//! over its depth window's `Cin·k` planes. The bias starts every lane
//! chain and the decoder's LeakyReLU is applied in the write-back. No
//! layer builds a patch matrix. [`DwConv3d`] runs the exact-class row
//! sweeps of [`peb_simd::conv`] (the textbook loops they replaced are the
//! oracle in `tests/conv_planes.rs`). Weight gradients are reduced over
//! planes in ascending plane order.
//!
//! All convolutions are custom autograd operations with analytic backward
//! passes, verified here and in `tests/conv_planes.rs` against finite
//! differences, the scalar and direct oracles and the adjoint identity.

use std::ops::Range;

use rand::Rng;

use peb_par::UnsafeSlice;
use peb_pool::tile::slab_items;
use peb_pool::PoolBuf;
use peb_simd::conv::{dw3_plane, dw3_weight_grad, Dw3, SubPixel};
use peb_simd::elementwise::vadd_assign;
use peb_tensor::{Tensor, Var};

use crate::init::kaiming_uniform;
use crate::Parameterized;

// ---------------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------------

/// Panics unless `value > 0`, naming the layer, the field and the value.
fn require_positive(layer: &str, field: &str, value: usize) {
    assert!(value > 0, "{layer}: {field}={value} must be positive");
}

/// Windows along one axis of extent `n`: `(n + 2·pad − k) / stride + 1`.
///
/// # Panics
///
/// Panics, naming the layer, the axis and its extent, when the axis is
/// empty or the kernel does not fit the padded axis.
fn out_extent(layer: &str, axis: &str, n: usize, k: usize, stride: usize, pad: usize) -> usize {
    require_positive(layer, axis, n);
    assert!(
        n + 2 * pad >= k,
        "{layer}: {axis}={n} padded by {pad} on each side is smaller than the kernel ({k})"
    );
    (n + 2 * pad - k) / stride + 1
}

/// Splits a `[C, H, W]` (one plane) or `[C, D, H, W]` (`D` planes sharing
/// the weights) shape into `(D, H, W)`.
fn plane_dims(layer: &str, shape: &[usize], channels: usize) -> (usize, usize, usize) {
    let (d, h, w) = match *shape {
        [_, h, w] => (1, h, w),
        [_, d, h, w] => (d, h, w),
        _ => panic!("{layer} expects [C, H, W] or [C, D, H, W], got {shape:?}"),
    };
    assert_eq!(shape[0], channels, "{layer} expects {channels} channels");
    require_positive(layer, "d", d);
    (d, h, w)
}

/// Splits a `[C, D, H, W]` volume's shape into `(D, H, W)`.
fn volume_dims(layer: &str, shape: &[usize], channels: usize) -> (usize, usize, usize) {
    let [c, d, h, w] = *shape else {
        panic!("{layer} expects [C, D, H, W], got {shape:?}")
    };
    assert_eq!(c, channels, "{layer} expects {channels} channels");
    for (axis, n) in [("d", d), ("h", h), ("w", w)] {
        require_positive(layer, axis, n);
    }
    (d, h, w)
}

/// `[C, H, W]` for a rank-3 input, `[C, D, H, W]` otherwise.
fn like_input(rank: usize, c: usize, d: usize, h: usize, w: usize) -> Vec<usize> {
    if rank == 3 {
        vec![c, h, w]
    } else {
        vec![c, d, h, w]
    }
}

/// Sums the per-plane partials `[D, len]` in ascending plane order.
fn reduce_planes(partials: &mut [f32], len: usize) -> &[f32] {
    let (sum, rest) = partials.split_at_mut(len);
    for partial in rest.chunks_exact(len) {
        vadd_assign(sum, partial);
    }
    sum
}

/// Bias gradient: the sum of `g` (`[C, …]`) per channel, accumulated
/// sequentially in `f64`.
fn channel_sums(g: &Tensor, channels: usize) -> Tensor {
    let mut db = Tensor::zeros(&[channels]);
    let blocks = g.data().chunks_exact(g.len() / channels);
    for (o, block) in db.data_mut().iter_mut().zip(blocks) {
        *o = block.iter().map(|&v| v as f64).sum::<f64>() as f32;
    }
    db
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// Dense 2-D convolution on `[Cin, H, W]` planes or `[Cin, D, H, W]`
/// volumes whose `D` planes share the weights.
///
/// Runs on the [`SubPixel`] kernels of the transposed conv with the same
/// `(k, s, p)` from this layer's output grid back onto its input — the
/// pair are each other's adjoint: the forward is that geometry's
/// strided direction (from the bias), `dx` its transposed direction and
/// `dW` its weight gradient with the roles of `x` and the output
/// gradient swapped.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// `[Cout, Cin·k·k]`: the adjoint geometry's `[cin, cout, k, k]`.
    weight: Var,
    bias: Var,
    cin: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

impl Conv2d {
    /// Creates a square-kernel layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        require_positive("Conv2d", "kernel", kernel);
        require_positive("Conv2d", "stride", stride);
        let fan_in = cin * kernel * kernel;
        let weight = Var::parameter(kaiming_uniform(&[cout, fan_in], fan_in, rng));
        let bias = Var::parameter(Tensor::zeros(&[cout]));
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
    ///
    /// # Panics
    ///
    /// Panics if an extent is zero or smaller than the kernel once padded.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            out_extent("Conv2d", "h", h, self.kernel, self.stride, self.pad),
            out_extent("Conv2d", "w", w, self.kernel, self.stride, self.pad),
        )
    }

    /// Applies the convolution to `[Cin, H, W]`, producing
    /// `[Cout, Ho, Wo]`, or to every depth plane of `[Cin, D, H, W]`,
    /// producing `[Cout, D, Ho, Wo]`.
    ///
    /// # Panics
    ///
    /// Panics on a channel mismatch, an empty axis or an input smaller
    /// than the kernel.
    pub fn forward(&self, x: &Var) -> Var {
        let xs = x.shape();
        let (d, h, w) = plane_dims("Conv2d", &xs, self.cin);
        let (ho, wo) = self.output_hw(h, w);
        let (cin, cout, k) = (self.cin, self.cout, self.kernel);
        let geom = SubPixel::new(cout, cin, (ho, wo), (h, w), k, self.stride, self.pad);
        let mut out = Tensor::for_overwrite(&like_input(xs.len(), cout, d, ho, wo));
        {
            let _span = peb_obs::span("conv.conv2d_fwd");
            peb_obs::optrace::note("conv.conv2d", || format!("planes={d} {geom}"));
            // The Cin·Cout·k²·Ho·Wo multiply-adds per plane of the GEMM
            // this replaced.
            peb_obs::count(
                peb_obs::Counter::GemmFlops,
                d as u64 * geom.input_grad_flops(),
            );
            let (weight, bias) = (self.weight.value(), self.bias.value());
            let (packed, init) = (geom.pack_input_grad(weight.data()), bias.data());
            let slots = [UnsafeSlice::new(out.data_mut())];
            for_each_split_plane(&geom, x.value().data(), (d, 1), |z, split| {
                // SAFETY: plane `z` of `out` belongs to this chunk alone.
                unsafe { strided_plane(&geom, (&packed, init), split, &slots, d, z) };
            });
        }
        let (xc, wc) = (x.clone(), self.weight.clone());
        let parents = vec![x.clone(), self.weight.clone(), self.bias.clone()];
        Var::from_op(out, parents, move |g| {
            let _span = peb_obs::span("conv.conv2d_bwd");
            peb_obs::optrace::note("conv.conv2d.bwd", || format!("planes={d} {geom}"));
            peb_obs::count(
                peb_obs::Counter::GemmFlops,
                2 * d as u64 * geom.input_grad_flops(),
            );
            let (xv, wv) = (xc.value(), wc.value());
            let mut dx = Tensor::zeros(xv.shape());
            let slots = [UnsafeSlice::new(dx.data_mut())];
            let (packed, zeros, gd) = (geom.pack(wv.data()), vec![0f32; cin], [g.data()]);
            let dw = backward_planes(&geom, &gd, xv.data(), wv.shape(), (d, 1), |z, _| {
                let fwd = (&packed[..], &zeros[..], None);
                // SAFETY: plane `z` of `dx` belongs to this chunk alone.
                unsafe { transposed_rows(&geom, fwd, &gd, &slots, (d, 1), z, 0..h) };
            });
            vec![Some(dx), Some(dw), Some(channel_sums(g, cout))]
        })
    }
}

impl Parameterized for Conv2d {
    fn parameters(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

// ---------------------------------------------------------------------------
// ConvTranspose2d
// ---------------------------------------------------------------------------

/// Transposed 2-D convolution (decoder upsampling) on `[Cin, H, W]`
/// planes or `[Cin, D, H, W]` volumes whose `D` planes share the weights.
///
/// Weight layout `[Cin, Cout, k, k]`; output extent
/// `(n − 1)·stride + k − 2·pad`. Runs as the direct sub-pixel kernels of
/// [`SubPixel`]: the forward is its transposed direction, `dx` its
/// strided direction and `dW` its weight gradient.
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
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        require_positive("ConvTranspose2d", "kernel", kernel);
        require_positive("ConvTranspose2d", "stride", stride);
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
    ///
    /// # Panics
    ///
    /// Panics if an input extent is zero or its output extent
    /// `(n − 1)·stride + k − 2·pad` is not positive.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let extent = |axis: &str, n: usize| {
            require_positive("ConvTranspose2d", axis, n);
            let full = (n - 1) * self.stride + self.kernel;
            assert!(
                full > 2 * self.pad,
                "ConvTranspose2d: {axis}={n} leaves no output: \
                 (n − 1)·stride + kernel = {full} ≤ 2·pad = {}",
                2 * self.pad
            );
            full - 2 * self.pad
        };
        (extent("h", h), extent("w", w))
    }

    /// Applies the layer to `[Cin, H, W]`, producing `[Cout, Ho, Wo]`,
    /// or to every depth plane of `[Cin, D, H, W]`, producing
    /// `[Cout, D, Ho, Wo]`.
    ///
    /// # Panics
    ///
    /// Panics on a channel mismatch, an empty axis or a non-positive
    /// output extent.
    pub fn forward(&self, x: &Var) -> Var {
        self.apply(&[x], None)
    }

    /// [`ConvTranspose2d::forward`] of the channel concatenation of
    /// `blocks`, read in place, then `leaky_relu(slope)` as each output is
    /// written: the bits of `Var::concat`, `forward` and
    /// `Var::leaky_relu`, whose derivative the backward reads off the
    /// sign of the saved output.
    ///
    /// # Panics
    ///
    /// Panics if `slope` is not positive, if the blocks disagree with the
    /// layer or each other, and as [`ConvTranspose2d::forward`].
    pub fn forward_leaky_relu(&self, blocks: &[&Var], slope: f32) -> Var {
        assert!(
            slope > 0.0,
            "ConvTranspose2d: LeakyReLU slope={slope} must be positive"
        );
        self.apply(blocks, Some(slope))
    }

    fn apply(&self, blocks: &[&Var], slope: Option<f32>) -> Var {
        let shapes: Vec<Vec<usize>> = blocks.iter().map(|b| b.shape()).collect();
        let mut whole = shapes[0].clone();
        whole[0] = shapes.iter().map(|s| s[0]).sum();
        assert!(
            shapes.iter().all(|s| s[1..] == whole[1..]),
            "ConvTranspose2d: channel blocks disagree: {shapes:?}"
        );
        let (d, h, w) = plane_dims("ConvTranspose2d", &whole, self.cin);
        let (ho, wo) = self.output_hw(h, w);
        let (cin, cout, k) = (self.cin, self.cout, self.kernel);
        let geom = SubPixel::new(cin, cout, (h, w), (ho, wo), k, self.stride, self.pad);
        let mut out = Tensor::for_overwrite(&like_input(whole.len(), cout, d, ho, wo));
        {
            let _span = peb_obs::span("conv.convt2_fwd");
            peb_obs::count(peb_obs::Counter::GemmFlops, d as u64 * geom.forward_flops());
            let values: Vec<_> = blocks.iter().map(|b| b.value()).collect();
            let x: Vec<&[f32]> = values.iter().map(|v| v.data()).collect();
            let (weight, bias) = (self.weight.value(), self.bias.value());
            transposed_planes(&geom, &x, weight.data(), (bias.data(), slope), d, &mut out);
        }
        let mut parents: Vec<Var> = blocks.iter().map(|&b| b.clone()).collect();
        parents.extend([self.weight.clone(), self.bias.clone()]);
        let nodes = parents.clone();
        Var::from_op_out(out, parents, move |g, y| {
            let _span = peb_obs::span("conv.convt2_bwd");
            peb_obs::optrace::note("conv.convt2.bwd", || format!("planes={d} {geom}"));
            peb_obs::count(
                peb_obs::Counter::GemmFlops,
                2 * d as u64 * geom.input_grad_flops(),
            );
            let masked = slope.map(|slope| leaky_relu_grad(g, y, slope));
            let g = masked.as_ref().unwrap_or(g);
            let values: Vec<_> = nodes.iter().map(Var::value).collect();
            let x: Vec<&[f32]> = values[..shapes.len()].iter().map(|v| v.data()).collect();
            let weight = &values[shapes.len()];
            let mut dxs: Vec<Tensor> = shapes.iter().map(|s| Tensor::zeros(s)).collect();
            let slots: Vec<_> = dxs
                .iter_mut()
                .map(|t| UnsafeSlice::new(t.data_mut()))
                .collect();
            let (packed, zeros) = (geom.pack_input_grad(weight.data()), vec![0f32; cin]);
            let dw = backward_planes(&geom, &x, g.data(), weight.shape(), (d, 1), |z, split| {
                // SAFETY: plane `z` of every block of `dx` belongs to this
                // chunk alone.
                unsafe { strided_plane(&geom, (&packed, &zeros), split, &slots, d, z) };
            });
            let mut grads: Vec<_> = dxs.into_iter().map(Some).collect();
            grads.extend([Some(dw), Some(channel_sums(g, cout))]);
            grads
        })
    }
}

impl Parameterized for ConvTranspose2d {
    fn parameters(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// `g` through LeakyReLU's derivative read off its output `y` (a positive
/// slope keeps the sign): `Var::leaky_relu`'s `1` or `slope`.
fn leaky_relu_grad(g: &Tensor, y: &Tensor, slope: f32) -> Tensor {
    let mut gx = g.clone();
    for (gv, &yv) in gx.data_mut().iter_mut().zip(y.data()) {
        *gv *= if yv >= 0.0 { 1.0 } else { slope };
    }
    gx
}

// ---------------------------------------------------------------------------
// SubPixel passes shared by the dense convolutions
// ---------------------------------------------------------------------------
//
// A `SubPixel` geometry runs between its transposed side (`h × w`
// planes) and its strided side (`ho × wo` planes). `ConvTranspose2d` reads
// the transposed side and writes the strided one; `Conv2d` and `Conv3d`
// the other way round. Every backward splits each plane of the strided
// side by column phase once, for `dx` and `dW` alike.
//
// A pass over `(d, kd)` computes `d` planes, each from a depth window of
// `kd` source planes: plane `z` reads planes `z … z + kd − 1` of every
// channel of a source with `d + kd − 1` planes, one geometry channel per
// (channel, window plane). The 2-D layers run at `kd = 1`, plane by
// plane; `Conv3d` at `kd = k` on sources padded by `k / 2` zero planes.

/// Planes `z … z + kd − 1` of every channel of `blocks` (each
/// `[C_b, d + kd − 1, n]`), channel by channel in concatenation order.
fn channel_planes<'a>(
    blocks: &[&'a [f32]],
    (d, kd): (usize, usize),
    z: usize,
    n: usize,
) -> Vec<&'a [f32]> {
    let chunks = blocks.iter().flat_map(|b| b.chunks_exact((d + kd - 1) * n));
    chunks
        .flat_map(|c| c[z * n..][..kd * n].chunks_exact(n))
        .collect()
}

/// Rows `rows` of plane `z` of `out` (`[cout, d, ho, wo]`, one slot) in
/// the transposed direction of `geom`: `init` + the transposed conv of
/// the window of plane `z` of `x` (blocks `[C_b, d + kd − 1, h, w]` in
/// concatenation order, read in place), through the LeakyReLU of `slope`
/// when given. `packed` is [`SubPixel::pack`]'s.
///
/// # Safety
///
/// No other thread may access those rows during the call.
unsafe fn transposed_rows(
    geom: &SubPixel,
    (packed, init, slope): (&[f32], &[f32], Option<f32>),
    x: &[&[f32]],
    out: &[UnsafeSlice<'_, f32>],
    (d, kd): (usize, usize),
    z: usize,
    rows: Range<usize>,
) {
    let ((h, w), (ho, wo)) = (geom.input(), geom.output());
    let within = rows.start * wo..rows.end * wo;
    // SAFETY: the caller's contract.
    let mut out_rows = unsafe { plane_rows(out, d, z, ho * wo, within) };
    let planes = channel_planes(x, (d, kd), z, h * w);
    geom.forward_rows(packed, init, slope, &planes, rows, &mut out_rows);
}

/// Plane `z` of `out` (blocks `[C_b, D, h, w]` in concatenation order) in
/// the strided direction of `geom`: `init` + the stride-`s` correlation of
/// `split` (one plane of [`for_each_split_plane`]). `packed` is
/// [`SubPixel::pack_input_grad`]'s.
///
/// # Safety
///
/// No other thread may access plane `z` of `out` during the call.
unsafe fn strided_plane(
    geom: &SubPixel,
    (packed, init): (&[f32], &[f32]),
    split: &[f32],
    out: &[UnsafeSlice<'_, f32>],
    d: usize,
    z: usize,
) {
    let (h, w) = geom.input();
    // SAFETY: the caller's contract.
    let mut rows = unsafe { plane_rows(out, d, z, h * w, 0..h * w) };
    geom.input_grad_rows(packed, init, split, geom.grad_plane_len(), 0..h, &mut rows);
}

/// The range `within` of plane `z` of every channel of `slots` (blocks
/// `[C_b, D, n]`), in concatenation order.
///
/// # Safety
///
/// No other thread may access those ranges while they are borrowed.
#[allow(clippy::mut_from_ref)]
unsafe fn plane_rows<'a>(
    slots: &'a [UnsafeSlice<'_, f32>],
    d: usize,
    z: usize,
    n: usize,
    within: Range<usize>,
) -> Vec<&'a mut [f32]> {
    let channels = slots
        .iter()
        .flat_map(|slot| (0..slot.len() / (d * n)).map(move |c| (slot, (c * d + z) * n)));
    // SAFETY: the caller's contract.
    channels
        .map(|(slot, at)| unsafe { slot.slice_mut(at + within.start..at + within.end) })
        .collect()
}

/// `ConvTranspose2d`'s forward: [`transposed_rows`] of every plane. One
/// chunk per (plane, band of output rows), a band an eighth of the tile
/// so a few-plane slab still splits evenly over the threads; each output
/// row is computed whole by one chunk, so the banding never changes a
/// bit.
fn transposed_planes(
    geom: &SubPixel,
    x: &[&[f32]],
    weight: &[f32],
    (init, slope): (&[f32], Option<f32>),
    d: usize,
    out: &mut Tensor,
) {
    let ho = geom.output().0;
    let (band, flops) = (
        slab_items(8 * geom.band_row_bytes(), ho),
        geom.forward_flops(),
    );
    let bands = ho.div_ceil(band);
    let packed = geom.pack(weight);
    let slots = [UnsafeSlice::new(out.data_mut())];
    peb_par::parallel_chunks_cost(d * bands, 1, flops / bands as u64, |chunks| {
        for chunk in chunks {
            let (z, r0) = (chunk / bands, chunk % bands * band);
            let rows = r0..(r0 + band).min(ho);
            // SAFETY: rows `rows` of plane `z` belong to this chunk alone.
            unsafe { transposed_rows(geom, (&packed, init, slope), x, &slots, (d, 1), z, rows) };
        }
    });
}

/// Runs `f(z, split)` for every plane `z` of `d`, in parallel, with
/// `split` holding the window of plane `z` of the strided side `src`
/// (`[C, d + kd − 1, ho, wo]`, `cout = C·kd` in `geom`'s roles) split by
/// column phase, [`SubPixel::grad_plane_len`] floats apart. The window
/// has exactly `cout` planes and [`SubPixel::split_grad`] writes every
/// slot of one, so the split is an overwrite checkout.
fn for_each_split_plane(
    geom: &SubPixel,
    src: &[f32],
    (d, kd): (usize, usize),
    f: impl Fn(usize, &[f32]) + Sync,
) {
    let ((_, cout), (ho, wo)) = (geom.channels(), geom.output());
    let plane = geom.grad_plane_len();
    peb_par::parallel_chunks_cost(d, 1, geom.input_grad_flops(), |planes| {
        for z in planes {
            let mut split = PoolBuf::for_overwrite(cout * plane);
            let window = channel_planes(&[src], (d, kd), z, ho * wo);
            assert_eq!(window.len(), cout, "one split plane per channel");
            for (g, dst) in window.into_iter().zip(split.chunks_exact_mut(plane)) {
                geom.split_grad(g, dst);
            }
            f(z, &split);
        }
    });
}

/// The backward of every dense conv: for every plane `z`, `dx(z, split)`
/// with the window of plane `z` of the strided side `strided`
/// (`[C, d + kd − 1, ho, wo]`) split by column phase, and that plane's
/// `dW` — of plane `z` of the transposed side `x` (blocks
/// `[C_b, d, h, w]`) against the split — into a partial; returns `dW`
/// (`[cin, cout, k, k]` in `geom`'s roles, shaped `shape`), the partials
/// summed in ascending plane order.
fn backward_planes(
    geom: &SubPixel,
    x: &[&[f32]],
    strided: &[f32],
    shape: &[usize],
    (d, kd): (usize, usize),
    dx: impl Fn(usize, &[f32]) + Sync,
) -> Tensor {
    let (h, w) = geom.input();
    let len = shape.iter().product::<usize>();
    let mut partials = PoolBuf::zeroed(d * len);
    let slots = UnsafeSlice::new(&mut partials);
    for_each_split_plane(geom, strided, (d, kd), |z, split| {
        dx(z, split);
        let planes = channel_planes(x, (d, 1), z, h * w);
        // SAFETY: partial `z` belongs to this chunk alone.
        let dw_z = unsafe { slots.slice_mut(z * len..(z + 1) * len) };
        geom.weight_grad(&planes, split, geom.grad_plane_len(), dw_z);
    });
    let sum = reduce_planes(&mut partials, len);
    Tensor::from_fn(shape, |i| sum[i])
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
        assert!(
            kernel % 2 == 1,
            "DwConv3d: kernel={kernel} must be odd (same padding)"
        );
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
    /// Panics on a channel mismatch or an empty axis.
    pub fn forward(&self, x: &Var) -> Var {
        volume_dims("DwConv3d", &x.shape(), self.channels);
        let (c, k) = (self.channels, self.kernel);
        let out = dw3_forward(&x.value(), &self.weight.value(), &self.bias.value(), k);
        let xc = x.clone();
        let wc = self.weight.clone();
        Var::from_op(
            out,
            vec![x.clone(), self.weight.clone(), self.bias.clone()],
            move |g| {
                let (dx, dw) = dw3_backward(&xc.value(), &wc.value(), g, k);
                vec![Some(dx), Some(dw), Some(channel_sums(g, c))]
            },
        )
    }
}

impl Parameterized for DwConv3d {
    fn parameters(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// Splits the flat offset of a plane in `[C, D, plane]` into `(c, z)`.
fn plane_at(offset: usize, d: usize, plane: usize) -> (usize, usize) {
    (offset / plane / d, offset / plane % d)
}

fn dw3_forward(x: &Tensor, w: &Tensor, b: &Tensor, k: usize) -> Tensor {
    let _span = peb_obs::span("conv.dw3_fwd");
    let s = x.shape();
    let (d, h, wd) = (s[1], s[2], s[3]);
    let geom = Dw3 { d, h, w: wd, k };
    let (plane, taps) = (h * wd, k * k * k);
    let mut out = Tensor::for_overwrite(s);
    let (xd, wdat, bd) = (x.data(), w.data(), b.data());
    // Depthwise by definition: plane `(c, z)` reads channel `c` only.
    peb_par::parallel_chunks_mut_cost(out.data_mut(), plane, 2 * taps as u64, |at, out_plane| {
        let (c, z) = plane_at(at, d, plane);
        let x_c = &xd[c * d * plane..][..d * plane];
        dw3_plane(
            geom,
            x_c,
            &wdat[c * taps..][..taps],
            false,
            bd[c],
            z,
            out_plane,
        );
    });
    out
}

/// `dx` is the mirrored-kernel correlation of `g`; `dW[c]` sums each
/// `(c, z)` plane's row dot products, then the planes in ascending `z`.
fn dw3_backward(x: &Tensor, w: &Tensor, g: &Tensor, k: usize) -> (Tensor, Tensor) {
    let _span = peb_obs::span("conv.dw3_bwd");
    let s = x.shape();
    let (c, d, h, wd) = (s[0], s[1], s[2], s[3]);
    let geom = Dw3 { d, h, w: wd, k };
    let (plane, taps) = (h * wd, k * k * k);
    let (xd, wdat, gd) = (x.data(), w.data(), g.data());
    let mut dx = Tensor::zeros(s);
    peb_par::parallel_chunks_mut_cost(dx.data_mut(), plane, 2 * taps as u64, |at, dx_plane| {
        let (ci, z) = plane_at(at, d, plane);
        let g_c = &gd[ci * d * plane..][..d * plane];
        dw3_plane(
            geom,
            g_c,
            &wdat[ci * taps..][..taps],
            true,
            0.0,
            z,
            dx_plane,
        );
    });
    let mut partials = PoolBuf::zeroed(c * d * taps);
    peb_par::parallel_chunks_mut_cost(&mut partials, taps, 2 * plane as u64, |at, dw_z| {
        let (ci, z) = plane_at(at, d, taps);
        let x_c = &xd[ci * d * plane..][..d * plane];
        dw3_weight_grad(geom, x_c, &gd[(ci * d + z) * plane..][..plane], z, dw_z);
    });
    let mut dw = Tensor::zeros(w.shape());
    for (sum, planes) in dw
        .data_mut()
        .chunks_exact_mut(taps)
        .zip(partials.chunks_exact_mut(d * taps))
    {
        sum.copy_from_slice(reduce_planes(planes, taps));
    }
    (dx, dw)
}

// ---------------------------------------------------------------------------
// Conv3d
// ---------------------------------------------------------------------------

/// Dense 3-D convolution on `[Cin, D, H, W]` volumes: a cubic odd kernel,
/// stride 1, same padding and a bias.
///
/// Output plane `z` is the stride-1 2-D correlation of the `Cin·k` input
/// planes `z − p … z + p` (zero past the volume), so the layer runs on the
/// [`SubPixel`] passes of [`Conv2d`] with a depth window of `k` planes:
/// the weight `[Cout, Cin·k³]` read as `[Cout, Cin·k, k, k]` for the
/// forward and `dW` (one partial per output plane), and `dx` plane `z`
/// gathering the `Cout·k` output-gradient planes `z − p … z + p` through
/// the depth-flipped kernel.
#[derive(Debug, Clone)]
pub struct Conv3d {
    /// `[Cout, Cin·k³]`.
    weight: Var,
    bias: Var,
    cin: usize,
    cout: usize,
    kernel: usize,
}

impl Conv3d {
    /// Creates a layer with a cubic kernel (odd `k`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is even (same padding needs odd kernels).
    pub fn new(cin: usize, cout: usize, kernel: usize, rng: &mut impl Rng) -> Self {
        assert!(
            kernel % 2 == 1,
            "Conv3d: kernel={kernel} must be odd (same padding)"
        );
        let fan_in = cin * kernel * kernel * kernel;
        let weight = Var::parameter(kaiming_uniform(&[cout, fan_in], fan_in, rng));
        let bias = Var::parameter(Tensor::zeros(&[cout]));
        Conv3d {
            weight,
            bias,
            cin,
            cout,
            kernel,
        }
    }

    /// Applies the convolution to `[Cin, D, H, W]`, producing
    /// `[Cout, D, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics on a channel mismatch or an empty axis.
    pub fn forward(&self, x: &Var) -> Var {
        let (d, h, w) = volume_dims("Conv3d", &x.shape(), self.cin);
        let (cin, cout, k) = (self.cin, self.cout, self.kernel);
        // Output planes from input windows (forward, `dW`), and input
        // planes from output-gradient windows (`dx`).
        let geom = SubPixel::new(cout, cin * k, (h, w), (h, w), k, 1, k / 2);
        let adjoint = SubPixel::new(cout * k, cin, (h, w), (h, w), k, 1, k / 2);
        let mut out = Tensor::for_overwrite(&[cout, d, h, w]);
        {
            let _span = peb_obs::span("conv.conv3d_fwd");
            peb_obs::optrace::note("conv.conv3d", || format!("planes={d} window={k} {geom}"));
            peb_obs::count(
                peb_obs::Counter::GemmFlops,
                d as u64 * geom.input_grad_flops(),
            );
            let (weight, bias) = (self.weight.value(), self.bias.value());
            let (packed, init) = (geom.pack_input_grad(weight.data()), bias.data());
            let src = pad_depth(x.value().data(), d, h * w, k / 2);
            let slots = [UnsafeSlice::new(out.data_mut())];
            for_each_split_plane(&geom, &src, (d, k), |z, split| {
                // SAFETY: plane `z` of `out` belongs to this chunk alone.
                unsafe { strided_plane(&geom, (&packed, init), split, &slots, d, z) };
            });
        }
        let (xc, wc) = (x.clone(), self.weight.clone());
        let parents = vec![x.clone(), self.weight.clone(), self.bias.clone()];
        Var::from_op(out, parents, move |g| {
            let _span = peb_obs::span("conv.conv3d_bwd");
            peb_obs::optrace::note("conv.conv3d.bwd", || {
                format!("planes={d} window={k} {geom}")
            });
            peb_obs::count(
                peb_obs::Counter::GemmFlops,
                2 * d as u64 * geom.input_grad_flops(),
            );
            let (xv, wv) = (xc.value(), wc.value());
            let mut dx = Tensor::zeros(xv.shape());
            let slots = [UnsafeSlice::new(dx.data_mut())];
            let packed = adjoint.pack(&depth_flipped(wv.data(), cin, k));
            let (zeros, gd) = (vec![0f32; cin], [g.data()]);
            let (src, g_src) = (
                pad_depth(xv.data(), d, h * w, k / 2),
                pad_depth(g.data(), d, h * w, k / 2),
            );
            let dw = backward_planes(&geom, &gd, &src, wv.shape(), (d, k), |z, _| {
                let fwd = (&packed[..], &zeros[..], None);
                // SAFETY: plane `z` of `dx` belongs to this chunk alone.
                unsafe { transposed_rows(&adjoint, fwd, &[&g_src], &slots, (d, k), z, 0..h) };
            });
            vec![Some(dx), Some(dw), Some(channel_sums(g, cout))]
        })
    }
}

impl Parameterized for Conv3d {
    fn parameters(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// `src` (`[C, D, n]`) with `p` zero planes before and after each
/// channel's `D`: the source of a depth window of `2p + 1` planes.
fn pad_depth(src: &[f32], d: usize, n: usize, p: usize) -> PoolBuf<f32> {
    let mut padded = PoolBuf::zeroed(src.len() / d * (d + 2 * p));
    for (dst, c) in padded
        .chunks_exact_mut((d + 2 * p) * n)
        .zip(src.chunks_exact(d * n))
    {
        dst[p * n..][..d * n].copy_from_slice(c);
    }
    padded
}

/// `Conv3d`'s weight `[Cout, Cin, k, k, k]` as its `dx` reads it,
/// `[Cout·k, Cin, k, k]`: window plane `j` of output channel `co` — the
/// output-gradient plane `j − p` away — takes depth tap `k − 1 − j`.
fn depth_flipped(weight: &[f32], cin: usize, k: usize) -> Vec<f32> {
    let taps = k * k;
    let mut flipped = Vec::with_capacity(weight.len());
    for per_co in weight.chunks_exact(cin * k * taps) {
        for j in 0..k {
            for c in 0..cin {
                flipped.extend_from_slice(&per_co[(c * k + k - 1 - j) * taps..][..taps]);
            }
        }
    }
    flipped
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
        let conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.weight.set_value(Tensor::ones(&[1, 1]));
        let x = Var::constant(Tensor::from_fn(&[1, 4, 4], |i| i as f32));
        let y = conv.forward(&x);
        assert!(y.value().approx_eq(&x.value(), 1e-6));
    }

    #[test]
    fn conv2d_shapes_with_stride_and_pad() {
        let mut rng = StdRng::seed_from_u64(6);
        let conv = Conv2d::new(2, 3, 3, 2, 1, &mut rng);
        let x = Var::constant(Tensor::ones(&[2, 8, 8]));
        assert_eq!(conv.forward(&x).shape(), vec![3, 4, 4]);
    }

    #[test]
    fn conv2d_matches_direct_computation() {
        let mut rng = StdRng::seed_from_u64(7);
        let conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
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
    fn conv2d_gradcheck() {
        let mut rng = StdRng::seed_from_u64(8);
        let conv = Conv2d::new(2, 2, 3, 2, 1, &mut rng);
        let x0 = Tensor::randn(&[2, 5, 5], &mut rng);
        let r = check_gradients(
            &Var::parameter(x0),
            |v| conv.forward(v).square().sum(),
            1e-2,
        );
        assert!(r.ok(3e-2), "input grad: {r:?}");
        // Weight gradient against central differences in the weight.
        let x = Var::constant(Tensor::randn(&[2, 5, 5], &mut rng));
        let w0 = conv.weight.value_clone();
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
    }

    #[test]
    fn conv3d_shapes_and_gradcheck() {
        let mut rng = StdRng::seed_from_u64(9);
        let conv = Conv3d::new(2, 3, 3, &mut rng);
        let x = Var::constant(Tensor::ones(&[2, 4, 6, 5]));
        assert_eq!(conv.forward(&x).shape(), vec![3, 4, 6, 5]);
        let x0 = Tensor::randn(&[2, 3, 4, 4], &mut rng);
        let small = Conv3d::new(2, 2, 3, &mut rng);
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

    fn dot(a: &Tensor, b: &Tensor) -> f64 {
        a.data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| f64::from(*x) * f64::from(*y))
            .sum()
    }

    #[test]
    fn convtranspose_is_conv_adjoint() {
        // <conv(x), y> == <x, convT(y)> when both layers share one weight
        // over every depth plane: an oracle independent of either
        // implementation. Odd extents with (n + 2·pad − k) divisible by
        // the stride, so convT maps conv's output grid back onto x's.
        let mut rng = StdRng::seed_from_u64(14);
        for (cin, cout, d, k, stride, pad) in
            [(1, 1, 1, 3, 2, 1), (2, 3, 3, 3, 2, 1), (3, 2, 2, 4, 1, 2)]
        {
            let conv = Conv2d::new(cin, cout, k, stride, pad, &mut rng);
            let (h, w) = (k + 2 * stride, k + 3 * stride);
            let x = Tensor::randn(&[cin, d, h, w], &mut rng);
            let cy = conv.forward(&Var::constant(x.clone())).value_clone();
            let y = Tensor::randn(cy.shape(), &mut rng);
            // The conv weight [cout, cin·k·k] read as convT's
            // [Cin = cout, Cout = cin, k, k].
            let up = ConvTranspose2d::new(cout, cin, k, stride, pad, &mut rng);
            up.weight
                .set_value(conv.weight.value().reshape(&[cout, cin, k, k]).unwrap());
            let ty = up.forward(&Var::constant(y.clone())).value_clone();
            assert_eq!(ty.shape(), x.shape());
            let (lhs, rhs) = (dot(&cy, &y), dot(&x, &ty));
            assert!(
                (lhs - rhs).abs() <= 1e-4 * lhs.abs().max(rhs.abs()).max(1.0),
                "cin={cin} cout={cout} d={d} k={k} stride={stride}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn dwconv3d_backward_is_its_adjoint() {
        // <Dw(x), y> == <x, Dwᵀ(y)> with Dwᵀ taken from `dw3_backward`.
        let mut rng = StdRng::seed_from_u64(15);
        for (c, k, dims) in [(2, 3, [3, 4, 5]), (1, 5, [2, 3, 7]), (3, 3, [1, 1, 2])] {
            let shape = [c, dims[0], dims[1], dims[2]];
            let w = Tensor::randn(&[c, k, k, k], &mut rng);
            let x = Tensor::randn(&shape, &mut rng);
            let y = Tensor::randn(&shape, &mut rng);
            let fx = dw3_forward(&x, &w, &Tensor::zeros(&[c]), k);
            let (ty, _) = dw3_backward(&x, &w, &y, k);
            let (lhs, rhs) = (dot(&fx, &y), dot(&x, &ty));
            assert!(
                (lhs - rhs).abs() <= 1e-4 * lhs.abs().max(rhs.abs()).max(1.0),
                "c={c} k={k} dims={dims:?}: {lhs} vs {rhs}"
            );
        }
    }

    /// Asserts that `f` panics with a message naming `layer`, `field`
    /// and `value`.
    fn assert_rejects(layer: &str, field: &str, value: usize, f: impl FnOnce()) {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err(&format!("{layer}: {field}={value} was accepted"));
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            msg.starts_with(&format!("{layer}: {field}={value} ")),
            "{layer}: {field}={value}: {msg}"
        );
    }

    /// `[1, dims…]` input for the rejection tables.
    fn input(dims: &[usize]) -> Var {
        let mut shape = vec![1];
        shape.extend_from_slice(dims);
        Var::constant(Tensor::zeros(&shape))
    }

    #[test]
    fn conv2d_rejects_impossible_geometry_by_name() {
        let rng = &mut StdRng::seed_from_u64(16);
        assert_rejects("Conv2d", "kernel", 0, || {
            Conv2d::new(1, 1, 0, 1, 0, rng);
        });
        assert_rejects("Conv2d", "stride", 0, || {
            Conv2d::new(1, 1, 3, 0, 1, rng);
        });
        let conv = Conv2d::new(1, 1, 7, 4, 1, rng);
        for (field, value, dims) in [
            ("h", 0, vec![0, 9]),
            ("w", 0, vec![9, 0]),
            ("d", 0, vec![0, 9, 9]),
            // 4 + 2·1 < 7: used to saturate to one garbage window.
            ("h", 4, vec![4, 9]),
            ("w", 4, vec![2, 9, 4]),
        ] {
            assert_rejects("Conv2d", field, value, || {
                conv.forward(&input(&dims));
            });
        }
    }

    #[test]
    fn convtranspose2d_rejects_impossible_geometry_by_name() {
        let rng = &mut StdRng::seed_from_u64(17);
        assert_rejects("ConvTranspose2d", "kernel", 0, || {
            ConvTranspose2d::new(1, 1, 0, 1, 0, rng);
        });
        assert_rejects("ConvTranspose2d", "stride", 0, || {
            ConvTranspose2d::new(1, 1, 3, 0, 1, rng);
        });
        // (n − 1)·2 + 3 − 2·3 ≤ 0 for n ≤ 2: used to wrap in release.
        let up = ConvTranspose2d::new(1, 1, 3, 2, 3, rng);
        for (field, value, dims) in [
            ("h", 0, vec![0, 5]),
            ("w", 0, vec![5, 0]),
            ("d", 0, vec![0, 5, 5]),
            ("h", 2, vec![2, 5]),
            ("w", 1, vec![3, 5, 1]),
        ] {
            assert_rejects("ConvTranspose2d", field, value, || {
                up.forward(&input(&dims));
            });
        }
    }

    #[test]
    fn dwconv3d_rejects_impossible_geometry_by_name() {
        let rng = &mut StdRng::seed_from_u64(18);
        for kernel in [0, 2] {
            assert_rejects("DwConv3d", "kernel", kernel, || {
                DwConv3d::new(1, kernel, rng);
            });
        }
        let dw = DwConv3d::new(1, 3, rng);
        for (field, dims) in [("d", [0, 2, 2]), ("h", [2, 0, 2]), ("w", [2, 2, 0])] {
            assert_rejects("DwConv3d", field, 0, || {
                dw.forward(&input(&dims));
            });
        }
    }

    #[test]
    fn conv3d_rejects_impossible_geometry_by_name() {
        let rng = &mut StdRng::seed_from_u64(19);
        // An even kernel has no same padding: k = 4 used to return D + 1
        // planes.
        for kernel in [0, 2, 4] {
            assert_rejects("Conv3d", "kernel", kernel, || {
                Conv3d::new(1, 1, kernel, rng);
            });
        }
        let conv = Conv3d::new(1, 1, 3, rng);
        for (field, dims) in [("d", [0, 4, 4]), ("h", [4, 0, 4]), ("w", [4, 4, 0])] {
            assert_rejects("Conv3d", field, 0, || {
                conv.forward(&input(&dims));
            });
        }
    }
}
