//! Direct kernels of the planes-batched convolution family.
//!
//! [`SubPixel`] is the one dense 2-D convolution kernel: the transposed
//! convolution as direct sub-pixel convolutions, whose adjoint routines
//! are the stride-`s` convolution of the same `(k, s, p)` — `peb-nn`'s
//! `ConvTranspose2d` and `Conv2d` both run on it, each in the other's
//! roles. Register-blocked `mul_add` chains: **tolerance-class** across
//! levels (fused on AVX2), deterministic per level, every output written
//! once.
//!
//! [`dw3_plane`] and [`dw3_weight_grad`] are the depthwise 3-D layer. Both
//! bounds tests of the textbook loops are hoisted into a range per tap,
//! so every inner loop is a contiguous row: a `+= w·x` or a dot product on
//! eight lanes. They are **exact-class**: unfused IEEE-exact lane
//! operations, per element in the accumulation order of the scalar loops
//! (kept as the oracle in `peb-nn`'s `tests/conv_planes.rs`), so both
//! backends — and the scalar loops — produce the same bits. The one
//! re-bracketed sum is the dot product of [`dw3_weight_grad`], whose eight
//! lane partials are the same on both backends.

use std::ops::Range;

use peb_pool::PoolBuf;

use crate::elementwise::axpy_generic;
use crate::Simd8;

/// The positions `o` in `0..n` whose tap `kk` lands inside a same-padded,
/// stride-1 axis of extent `n`, `0 ≤ o + kk − pad < n`; division-free:
/// it runs once per row and tap.
fn same_tap_range(n: usize, kk: usize, pad: usize) -> Range<usize> {
    let lo = pad.saturating_sub(kk);
    lo..(n + pad).saturating_sub(kk).min(n).max(lo)
}

/// `i + kk − pad` when it lands inside `0..n`.
fn tap_source(i: usize, kk: usize, pad: usize, n: usize) -> Option<usize> {
    (i + kk).checked_sub(pad).filter(|&v| v < n)
}

// ---------------------------------------------------------------------------
// Transposed 2-D convolution by output phases (sub-pixel form)
// ---------------------------------------------------------------------------

/// One output phase of one axis of a stride-`s` transposed convolution:
/// output `o = m·s + phase` (`m < count`) takes kernel taps
/// `first + j·s` (`j < taps`) from input `m + shift − j`.
#[derive(Debug, Clone, Copy)]
struct Phase {
    first: usize,
    taps: usize,
    shift: usize,
    count: usize,
}

/// The `s` phases of an axis with `n_out` outputs.
fn axis_phases(n_out: usize, k: usize, s: usize, p: usize) -> Vec<Phase> {
    (0..s)
        .map(|phase| {
            let first = (phase + p) % s;
            Phase {
                first,
                taps: if first < k {
                    (k - first).div_ceil(s)
                } else {
                    0
                },
                shift: (phase + p) / s,
                count: if phase < n_out {
                    (n_out - phase).div_ceil(s)
                } else {
                    0
                },
            }
        })
        .collect()
}

/// Channel blocks `(first, len)` of a register tile: sixes, then the
/// remainder as a 4, a 2 and a 1.
fn channel_blocks(n: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut at = 0;
    std::iter::from_fn(move || {
        let len = [6, 4, 2, 1].into_iter().find(|&b| b <= n - at)?;
        at += len;
        Some((at - len, len))
    })
}

/// A transposed 2-D convolution (`cin → cout` channels, `k × k` kernel,
/// `stride`, `pad`; weight `[cin, cout, k, k]`) of one `h × w` plane onto
/// `ho × wo`, run as `stride²` dense correlations — one per output phase
/// `(oy mod s, ox mod s)`, each a fixed `⌈k/s⌉²` slice of the kernel
/// (the whole kernel, flipped, at stride 1) — instead of a GEMM and a
/// col2im fold: the strided-transposed-conv ≡ sub-pixel-conv
/// equivalence of Shi et al. 2016 (arXiv:1609.05158). Every output is
/// written once.
///
/// The same geometry serves both directions of the pair
/// conv ⟷ transposed conv with one `(k, s, p)`, in three adjoint roles:
/// * [`SubPixel::forward_rows`] — the transposed conv `h × w → ho × wo`
///   (a `ConvTranspose2d`'s forward, a `Conv2d`'s `dx`), lane chains from
///   `init` with an optional LeakyReLU in the write-back;
/// * [`SubPixel::input_grad_rows`] — its adjoint, the stride-`s`
///   correlation `ho × wo → h × w` with the kernel over output channels
///   and all `k²` taps (a `ConvTranspose2d`'s `dx`, a `Conv2d`'s forward
///   with its `[cout, cin, k, k]` weight read as `[cin, cout, k, k]`),
///   lane chains from `init`, reading the strided side split by column
///   phase ([`SubPixel::split_grad`]);
/// * [`SubPixel::weight_grad`] — the `dW` both share: one `ho × wo` plane
///   of the split side against the `h × w` planes, one row dot product per
///   `(channel, tap)` with eight lane partials folded in lane order.
///
/// `forward_rows` and `input_grad_rows` share one register tile: an output
/// row on the lanes, six output channels × two vectors (four × two,
/// two × four or one × eight for the rest, then halved tiles down to one
/// vector at the row's end), each lane a chain of `+= w·x`
/// (`Simd8::mul_add`: fused on AVX2, two roundings on the scalar
/// level) over input channels ascending, then the taps in ascending
/// `(ky, kx)`, reading zero outside the plane. The tile never spans output
/// rows, so any banding of the rows gives the same bits. Tolerance-class
/// across levels (the fused chain), deterministic per level.
///
/// The output extent `n_out` of an axis of `n` inputs is any extent whose
/// stride-`s` windows number `n`, `⌊(n_out + 2·pad − k)/s⌋ + 1 = n`: from
/// the transposed conv's own `(n − 1)·s + k − 2·pad` (at least 1) up to
/// `s − 1` more — the conv input's trailing columns its last window does
/// not reach.
#[derive(Debug, Clone)]
pub struct SubPixel {
    cin: usize,
    cout: usize,
    h: usize,
    w: usize,
    ho: usize,
    wo: usize,
    k: usize,
    stride: usize,
    pad: usize,
    ys: Vec<Phase>,
    xs: Vec<Phase>,
    /// Zero columns before each input row of the forward's scratch.
    left: usize,
    /// Floats per input row of the forward's scratch.
    row_len: usize,
    /// Zero slots before each phase row of the split gradient.
    g_left: usize,
    /// Floats per phase row of the split gradient.
    g_sub: usize,
}

impl std::fmt::Display for SubPixel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let SubPixel {
            cin,
            cout,
            h,
            w,
            ho,
            wo,
            k,
            stride,
            pad,
            ..
        } = self;
        write!(
            f,
            "channels={cin}->{cout} image={h}x{w} out={ho}x{wo} k={k} stride={stride} pad={pad}"
        )
    }
}

impl SubPixel {
    /// The layer from an `h × w` plane onto `ho × wo`.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or an output extent is outside the range
    /// its input extent allows (see [`SubPixel`]).
    pub fn new(
        cin: usize,
        cout: usize,
        (h, w): (usize, usize),
        (ho, wo): (usize, usize),
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let windows = |n_out: usize| (n_out + 2 * pad).checked_sub(k).map(|r| r / stride + 1);
        assert!(
            stride > 0 && ho > 0 && wo > 0 && windows(ho) == Some(h) && windows(wo) == Some(w),
            "SubPixel: output {ho}x{wo} is not a k={k} stride={stride} pad={pad} window grid \
             of {h}x{w}"
        );
        let (ys, xs) = (
            axis_phases(ho, k, stride, pad),
            axis_phases(wo, k, stride, pad),
        );
        let left = xs
            .iter()
            .filter(|x| x.taps > 0)
            .map(|x| (x.taps - 1).saturating_sub(x.shift))
            .max()
            .unwrap_or(0);
        let shift_max = xs.iter().map(|x| x.shift).max().unwrap_or(0);
        let vectors = xs[0].count.div_ceil(8) * 8;
        // Column `ix` of the split gradient is read at `g_left + ix + shift`
        // for `shift = ⌊(kx − pad)/s⌋`, from `−⌈pad/s⌉` up.
        let g_left = pad.div_ceil(stride);
        let g_shift_max = (k - 1) as isize - pad as isize;
        let g_reach = (w.div_ceil(8) * 8) as isize + g_shift_max.div_euclid(stride as isize);
        SubPixel {
            cin,
            cout,
            h,
            w,
            ho,
            wo,
            k,
            stride,
            pad,
            ys,
            xs,
            left,
            row_len: left + w.max(vectors + shift_max),
            g_left,
            g_sub: g_left + (vectors as isize).max(g_reach) as usize,
        }
    }

    /// Channels `(cin, cout)`.
    pub fn channels(&self) -> (usize, usize) {
        (self.cin, self.cout)
    }

    /// Input extents `(h, w)`.
    pub fn input(&self) -> (usize, usize) {
        (self.h, self.w)
    }

    /// Output extents `(ho, wo)`.
    pub fn output(&self) -> (usize, usize) {
        (self.ho, self.wo)
    }

    /// Taps of phase `(py, px)`.
    fn phase_taps(&self, py: usize, px: usize) -> usize {
        self.ys[py].taps * self.xs[px].taps
    }

    /// Offset of phase `(py, px)` in the packed forward weights.
    fn phase_offset(&self, py: usize, px: usize) -> usize {
        let before: usize = (0..py * self.stride + px)
            .map(|i| self.phase_taps(i / self.stride, i % self.stride))
            .sum();
        before * self.cin * self.cout
    }

    /// Floats of the packed forward weights.
    fn packed_len(&self) -> usize {
        self.phase_offset(self.stride, 0)
    }

    /// Multiply-adds of one plane's forward pass, `×2` as flops.
    pub fn forward_flops(&self) -> u64 {
        let taps: usize = (0..self.stride * self.stride)
            .map(|i| {
                let (y, x) = (self.ys[i / self.stride], self.xs[i % self.stride]);
                y.count * x.count * y.taps * x.taps
            })
            .sum();
        2 * (self.cin * self.cout * taps) as u64
    }

    /// Multiply-adds of one plane's `dx` (or of its `dW`), `×2` as flops.
    pub fn input_grad_flops(&self) -> u64 {
        2 * (self.cin * self.cout * self.k * self.k * self.h * self.w) as u64
    }

    /// Weight `[cin, cout, k, k]` → per phase `(py, px)`, per output
    /// channel block, `[ci][tap][channel in block]`, taps in ascending
    /// `(ky, kx)`.
    ///
    /// # Panics
    ///
    /// Panics if `weight`'s length disagrees with the geometry.
    pub fn pack(&self, weight: &[f32]) -> PoolBuf<f32> {
        let (k, s) = (self.k, self.stride);
        assert_eq!(weight.len(), self.cin * self.cout * k * k);
        let mut packed = PoolBuf::zeroed(self.packed_len());
        for py in 0..s {
            for px in 0..s {
                let (y, x) = (self.ys[py], self.xs[px]);
                let taps = y.taps * x.taps;
                let phase = self.phase_offset(py, px);
                for (co0, nb) in channel_blocks(self.cout) {
                    let block =
                        &mut packed[phase + co0 * self.cin * taps..][..nb * self.cin * taps];
                    let mut at = 0;
                    for ci in 0..self.cin {
                        for jy in 0..y.taps {
                            for jx in 0..x.taps {
                                let (ky, kx) = (y.first + jy * s, x.first + jx * s);
                                for co in co0..co0 + nb {
                                    block[at] = weight[((ci * self.cout + co) * k + ky) * k + kx];
                                    at += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        packed
    }

    /// The input rows `lo..lo + n` output rows `rows` read.
    fn band_inputs(&self, rows: Range<usize>) -> (isize, usize) {
        let s = self.stride;
        let (mut lo, mut hi) = (isize::MAX, isize::MIN);
        for oy in rows {
            let y = self.ys[oy % s];
            if y.taps > 0 {
                let top = (oy / s + y.shift) as isize;
                lo = lo.min(top - (y.taps - 1) as isize);
                hi = hi.max(top + 1);
            }
        }
        if lo > hi {
            (0, 0)
        } else {
            (lo, (hi - lo) as usize)
        }
    }

    /// Bytes one output row of [`SubPixel::forward_rows`] touches: its
    /// outputs and its share of the input scratch.
    pub fn band_row_bytes(&self) -> usize {
        4 * (self.cout * self.wo + self.cin * self.row_len.div_ceil(self.stride))
    }

    /// Output rows `rows` of one plane: `out[co]` (`[rows.len(), wo]`) =
    /// `init[co]` + the transposed convolution of `planes` (`cin` slices of
    /// `[h, w]`), through LeakyReLU of `slope` when given (the fused
    /// stage: `x ≥ 0 ? x : slope·x`, `max(x, +0)` at slope 0). `packed`
    /// is [`SubPixel::pack`]'s layout.
    ///
    /// # Panics
    ///
    /// Panics if a slice length or a row disagrees with the geometry.
    pub fn forward_rows(
        &self,
        packed: &[f32],
        init: &[f32],
        slope: Option<f32>,
        planes: &[&[f32]],
        rows: Range<usize>,
        out: &mut [&mut [f32]],
    ) {
        assert_eq!(packed.len(), self.packed_len());
        assert!(init.len() == self.cout && out.len() == self.cout && planes.len() == self.cin);
        assert!(rows.start <= rows.end && rows.end <= self.ho);
        assert!(planes.iter().all(|p| p.len() == self.h * self.w));
        assert!(out.iter().all(|o| o.len() == rows.len() * self.wo));
        forward_rows_at(self, packed, init, slope, planes, rows, out)
    }

    /// Floats of one plane of [`SubPixel::split_grad`]: `(h − 1)·s + k`
    /// gradient rows (output rows `−pad…`), each as `s` phase rows.
    pub fn grad_plane_len(&self) -> usize {
        ((self.h - 1) * self.stride + self.k) * self.stride * self.g_sub
    }

    /// Splits one output-gradient plane `g` (`[ho, wo]`) by column phase
    /// into `dst` ([`SubPixel::grad_plane_len`] floats): row
    /// `oy + pad`, phase `px`, slot `g_left + m` holds `g[oy][m·s + px]`;
    /// every other slot is zero. Rows past the last window's reach are
    /// never read and not kept.
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with the geometry.
    pub fn split_grad(&self, g: &[f32], dst: &mut [f32]) {
        let s = self.stride;
        assert_eq!(g.len(), self.ho * self.wo);
        assert_eq!(dst.len(), self.grad_plane_len());
        for (r, row) in dst.chunks_exact_mut(s * self.g_sub).enumerate() {
            let Some(src) = r
                .checked_sub(self.pad)
                .filter(|&oy| oy < self.ho)
                .map(|oy| &g[oy * self.wo..][..self.wo])
            else {
                row.fill(0.0);
                continue;
            };
            for (px, sub) in row.chunks_exact_mut(self.g_sub).enumerate() {
                let (pad, sub) = sub.split_at_mut(self.g_left);
                let (sub, tail) = sub.split_at_mut(self.xs[px].count);
                pad.fill(0.0);
                tail.fill(0.0);
                if s == 1 {
                    sub.copy_from_slice(src);
                    continue;
                }
                for (d, v) in sub.iter_mut().zip(src[px..].iter().step_by(s)) {
                    *d = *v;
                }
            }
        }
    }

    /// Offset of tap `(ky, kx)` in a split-gradient plane, for input row 0
    /// and column 0.
    fn grad_tap(&self, ky: usize, kx: usize) -> usize {
        let s = self.stride as isize;
        let x = kx as isize - self.pad as isize;
        let (px, shift) = (x.rem_euclid(s) as usize, x.div_euclid(s));
        (ky * self.stride + px) * self.g_sub + (self.g_left as isize + shift) as usize
    }

    /// Weight `[cin, cout, k, k]` → per input-channel block
    /// `[co][tap][channel in block]`, taps in ascending `(ky, kx)`.
    ///
    /// # Panics
    ///
    /// Panics if `weight`'s length disagrees with the geometry.
    pub fn pack_input_grad(&self, weight: &[f32]) -> PoolBuf<f32> {
        let taps = self.k * self.k;
        assert_eq!(weight.len(), self.cin * self.cout * taps);
        let mut packed = PoolBuf::zeroed(weight.len());
        for (ci0, nb) in channel_blocks(self.cin) {
            let block = &mut packed[ci0 * self.cout * taps..][..nb * self.cout * taps];
            for co in 0..self.cout {
                for t in 0..taps {
                    for ci in ci0..ci0 + nb {
                        block[(co * taps + t) * nb + ci - ci0] =
                            weight[(ci * self.cout + co) * taps + t];
                    }
                }
            }
        }
        packed
    }

    /// Input rows `rows` of one plane's `dx`: `dx[ci]` (`[rows.len(), w]`)
    /// = `init[ci]` + the stride-`s` correlation of `split`, which holds
    /// the split gradient plane of output channel `co` at
    /// `co·chan_stride`. `packed` is [`SubPixel::pack_input_grad`]'s
    /// layout.
    ///
    /// # Panics
    ///
    /// Panics if a slice length or a row disagrees with the geometry.
    pub fn input_grad_rows(
        &self,
        packed: &[f32],
        init: &[f32],
        split: &[f32],
        chan_stride: usize,
        rows: Range<usize>,
        dx: &mut [&mut [f32]],
    ) {
        assert_eq!(packed.len(), self.cin * self.cout * self.k * self.k);
        assert!(init.len() == self.cin && chan_stride >= self.grad_plane_len());
        assert!(split.len() >= (self.cout - 1) * chan_stride + self.grad_plane_len());
        assert!(rows.start <= rows.end && rows.end <= self.h && dx.len() == self.cin);
        assert!(dx.iter().all(|d| d.len() == rows.len() * self.w));
        input_grad_rows_at(self, packed, init, split, chan_stride, rows, dx)
    }

    /// One plane's `dW` in the weight's layout: `dw[ci][co][ky·k + kx]`
    /// `= Σ_{iy, ix} x[ci][iy][ix] · g[co][iy·s + ky − pad][ix·s + kx − pad]`,
    /// with `x` the `cin` input planes and `split` holding the split
    /// gradient plane of output channel `co` at `co·chan_stride`. Ragged
    /// rows of `x` are zero-padded to a vector once per call.
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with the geometry.
    pub fn weight_grad(&self, x: &[&[f32]], split: &[f32], chan_stride: usize, dw: &mut [f32]) {
        assert!(x.len() == self.cin && x.iter().all(|p| p.len() == self.h * self.w));
        assert!(chan_stride >= self.grad_plane_len());
        assert!(split.len() >= (self.cout - 1) * chan_stride + self.grad_plane_len());
        assert_eq!(dw.len(), self.cout * self.cin * self.k * self.k);
        weight_grad_at(self, x, split, chan_stride, dw)
    }
}

/// LeakyReLU of `slope`, as [`crate::fused`]'s stage computes it.
#[inline(always)]
fn activate<V: Simd8>(v: V, slope: Option<f32>) -> V {
    match slope {
        None => v,
        Some(0.0) => v.max(V::zero()),
        Some(s) => v.select_nonneg(v, v.mul(V::splat(s))),
    }
}

/// `NB` channels × `MV` vectors of one output row, from column `src` on:
/// lane chains from `init`, over `chans` input channels `chan_stride`
/// apart, then the tap offsets `taps`, each a `+= w·x` with `w` the next
/// of `weights` (`[chan][tap][NB]`).
///
/// # Safety
///
/// `src + ch·chan_stride + tap + 8·MV` must stay inside one allocation
/// for every channel and tap, and `weights` must hold
/// `chans·taps.len()·NB` floats.
#[inline(always)]
unsafe fn tile<V: Simd8, const NB: usize, const MV: usize>(
    src: *const f32,
    chan_stride: usize,
    chans: usize,
    taps: &[usize],
    weights: *const f32,
    init: &[f32],
) -> [[V; MV]; NB] {
    // No closures here: they would not inherit the caller's target
    // features, and the lane ops would stop inlining.
    let mut acc = [[V::zero(); MV]; NB];
    for (row, &b) in acc.iter_mut().zip(init) {
        *row = [V::splat(b); MV];
    }
    let mut w = weights;
    let mut x = [V::zero(); MV];
    for ch in 0..chans {
        let base = src.wrapping_add(ch * chan_stride);
        for &t in taps {
            for (v, xv) in x.iter_mut().enumerate() {
                // SAFETY: in bounds by the caller's contract.
                *xv = V::load(unsafe { std::slice::from_raw_parts(base.add(t + 8 * v), 8) });
            }
            for (c, row) in acc.iter_mut().enumerate() {
                // SAFETY: `weights` holds this tap's `NB` floats.
                let wv = V::splat(unsafe { *w.add(c) });
                for (a, xv) in row.iter_mut().zip(&x) {
                    *a = wv.mul_add(*xv, *a);
                }
            }
            // SAFETY: as above.
            w = unsafe { w.add(NB) };
        }
    }
    acc
}

/// How a row's tiles land in the output row.
#[derive(Clone, Copy)]
enum Scatter {
    /// Lane `m` is column `m` (stride 1, and `dx`).
    Dense,
    /// Two column phases, interleaved in registers.
    Zip2,
    /// Phase `px` lane `m` is column `m·s + px`, stored one by one.
    Strided,
}

/// One output row of one channel block: everything its tiles share.
struct RowJob<'a> {
    src: *const f32,
    chan_stride: usize,
    chans: usize,
    /// Tap offsets per column phase.
    taps: &'a [&'a [usize]],
    /// Packed weights per column phase, this block's.
    weights: &'a [*const f32],
    init: &'a [f32],
    slope: Option<f32>,
    scatter: Scatter,
    /// Output row length.
    width: usize,
    /// Lanes per column phase.
    counts: &'a [usize],
    /// Where the row starts in each of the block's output slices.
    at: usize,
}

impl RowJob<'_> {
    /// The row's tiles into `outs` (the block's channels) from lane `m0`
    /// on, `MV` vectors at a time while a tile's last vector starts inside
    /// the row: returns the first lane left over.
    ///
    /// # Safety
    ///
    /// [`tile`]'s contract for every lane up to `counts[0]` rounded up
    /// to a vector.
    #[inline(always)]
    unsafe fn run<V: Simd8, const NB: usize, const MV: usize>(
        &self,
        mut m0: usize,
        outs: &mut [&mut [f32]],
    ) -> usize {
        while m0 + 8 * (MV - 1) < self.counts[0] {
            // SAFETY: this fn's contract covers lane `m0`.
            unsafe { self.emit::<V, NB, MV>(m0, outs) };
            m0 += 8 * MV;
        }
        m0
    }

    /// The tile of column phase `px` at lane `m0`.
    ///
    /// # Safety
    ///
    /// As [`RowJob::run`].
    #[inline(always)]
    unsafe fn tile<V: Simd8, const NB: usize, const MV: usize>(
        &self,
        px: usize,
        m0: usize,
    ) -> [[V; MV]; NB] {
        let src = self.src.wrapping_add(m0);
        let (taps, weights) = (self.taps[px], self.weights[px]);
        // SAFETY: [`tile`]'s contract, by this fn's.
        unsafe { tile::<V, NB, MV>(src, self.chan_stride, self.chans, taps, weights, self.init) }
    }

    /// Stores the tiles at lane `m0` of every column phase.
    ///
    /// # Safety
    ///
    /// As [`RowJob::run`].
    #[inline(always)]
    unsafe fn emit<V: Simd8, const NB: usize, const MV: usize>(
        &self,
        m0: usize,
        outs: &mut [&mut [f32]],
    ) {
        match self.scatter {
            Scatter::Dense => {
                // SAFETY: this fn's contract.
                let acc = unsafe { self.tile::<V, NB, MV>(0, m0) };
                for (out, row) in outs.iter_mut().zip(&acc) {
                    let out = &mut out[self.at..][..self.width];
                    for (v, a) in row.iter().enumerate() {
                        let m = m0 + 8 * v;
                        let a = activate(*a, self.slope);
                        if m + 8 <= self.width {
                            a.store(&mut out[m..m + 8]);
                        } else {
                            out[m..].copy_from_slice(&a.to_array()[..self.width - m]);
                        }
                    }
                }
            }
            Scatter::Zip2 => {
                // SAFETY: this fn's contract.
                let (even, odd) =
                    unsafe { (self.tile::<V, NB, MV>(0, m0), self.tile::<V, NB, MV>(1, m0)) };
                for (out, (re, ro)) in outs.iter_mut().zip(even.iter().zip(&odd)) {
                    let out = &mut out[self.at..][..self.width];
                    for (v, (e, o)) in re.iter().zip(ro).enumerate() {
                        let at = 2 * (m0 + 8 * v);
                        let (lo, hi) =
                            activate(*e, self.slope).interleave(activate(*o, self.slope));
                        if at + 16 <= self.width {
                            lo.store(&mut out[at..at + 8]);
                            hi.store(&mut out[at + 8..at + 16]);
                        } else {
                            let (lo, hi) = (lo.to_array(), hi.to_array());
                            let vals = lo.iter().chain(&hi);
                            for (d, v) in out[at..].iter_mut().zip(vals) {
                                *d = *v;
                            }
                        }
                    }
                }
            }
            Scatter::Strided => {
                let s = self.counts.len();
                for px in 0..s {
                    // SAFETY: this fn's contract.
                    let acc = unsafe { self.tile::<V, NB, MV>(px, m0) };
                    for (out, row) in outs.iter_mut().zip(&acc) {
                        let out = &mut out[self.at..][..self.width];
                        for (v, a) in row.iter().enumerate() {
                            let lanes = activate(*a, self.slope).to_array();
                            for (l, val) in lanes.iter().enumerate() {
                                let m = m0 + 8 * v + l;
                                if m < self.counts[px] {
                                    out[m * s + px] = *val;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// [`RowJob::run`] at the register tile of a block of `nb` channels —
    /// twelve accumulator chains for six channels, eight for the rest —
    /// then at halved tiles over what is left of the row, so a short row
    /// still keeps several chains in flight.
    ///
    /// # Safety
    ///
    /// As [`RowJob::run`].
    #[inline(always)]
    unsafe fn run_block<V: Simd8>(&self, outs: &mut [&mut [f32]]) {
        // SAFETY: every `run` starts at a lane its predecessor reached, so
        // this fn's contract covers it.
        unsafe {
            match outs.len() {
                6 => {
                    let m0 = self.run::<V, 6, 2>(0, outs);
                    self.run::<V, 6, 1>(m0, outs);
                }
                4 => {
                    let m0 = self.run::<V, 4, 2>(0, outs);
                    self.run::<V, 4, 1>(m0, outs);
                }
                2 => {
                    let m0 = self.run::<V, 2, 4>(0, outs);
                    let m0 = self.run::<V, 2, 2>(m0, outs);
                    self.run::<V, 2, 1>(m0, outs);
                }
                _ => {
                    let m0 = self.run::<V, 1, 8>(0, outs);
                    let m0 = self.run::<V, 1, 4>(m0, outs);
                    let m0 = self.run::<V, 1, 2>(m0, outs);
                    self.run::<V, 1, 1>(m0, outs);
                }
            }
        }
    }
}

/// Bytes of zero-padded input rows a sub-band of the forward copies at a
/// time: about an L1 data cache, reused from sub-band to sub-band.
const SCRATCH_BYTES: usize = 256 << 10;

dispatched! {
    /// [`SubPixel::forward_rows`] past its checks.
    fn forward_rows_at<V>(
        geom: &SubPixel,
        packed: &[f32],
        init: &[f32],
        slope: Option<f32>,
        planes: &[&[f32]],
        rows: Range<usize>,
        out: &mut [&mut [f32]],
    ) {
        let (s, row_len, cin) = (geom.stride, geom.row_len, geom.cin);
        // Per phase `(py, px)`, the tap offsets from the phase's top input
        // row; per (`py`, channel block, `px`), the block's packed weights.
        let taps: Vec<Vec<usize>> = (0..s * s)
            .map(|i| {
                let (y, x) = (geom.ys[i / s], geom.xs[i % s]);
                let mut taps = Vec::with_capacity(y.taps * x.taps);
                for jy in 0..y.taps {
                    for jx in 0..x.taps {
                        taps.push((y.taps - 1 - jy) * row_len + geom.left + x.shift - jx);
                    }
                }
                taps
            })
            .collect();
        let taps: Vec<Vec<&[usize]>> = taps
            .chunks(s)
            .map(|row| row.iter().map(Vec::as_slice).collect())
            .collect();
        let blocks: Vec<(usize, usize)> = channel_blocks(geom.cout).collect();
        let mut weights = Vec::with_capacity(s * blocks.len() * s);
        for py in 0..s {
            for &(co0, _) in &blocks {
                for px in 0..s {
                    let at = geom.phase_offset(py, px) + co0 * cin * geom.phase_taps(py, px);
                    weights.push(packed[at..].as_ptr());
                }
            }
        }
        let scatter = match s {
            1 => Scatter::Dense,
            2 => Scatter::Zip2,
            _ => Scatter::Strided,
        };
        let counts: Vec<usize> = geom.xs.iter().map(|x| x.count).collect();
        // Sub-bands of output rows whose zero-padded input rows stay in L1:
        // `left` zero columns before each row, zeros after it and for rows
        // outside the image.
        let sub = (SCRATCH_BYTES / (4 * cin * row_len)).max(1) * s;
        let subs = || {
            rows.clone()
                .step_by(sub)
                .map(|r0| r0..(r0 + sub).min(rows.end))
        };
        let most = subs().map(|b| geom.band_inputs(b).1).max().unwrap_or(0);
        // Every row a band reads is written below, padding included.
        let mut scratch = PoolBuf::<f32>::for_overwrite(cin * most * row_len);
        for band in subs() {
            let (lo, nrows) = geom.band_inputs(band.clone());
            let chan_stride = nrows * row_len;
            for (plane, chan) in planes
                .iter()
                .zip(scratch.chunks_exact_mut(chan_stride.max(1)))
            {
                for (r, dst) in chan.chunks_exact_mut(row_len).enumerate() {
                    let iy = lo + r as isize;
                    if !(0..geom.h as isize).contains(&iy) {
                        dst.fill(0.0);
                        continue;
                    }
                    let (pad, rest) = dst.split_at_mut(geom.left);
                    let (row, tail) = rest.split_at_mut(geom.w);
                    pad.fill(0.0);
                    row.copy_from_slice(&plane[iy as usize * geom.w..][..geom.w]);
                    tail.fill(0.0);
                }
            }
            for oy in band {
                let (py, my) = (oy % s, oy / s);
                let y = geom.ys[py];
                let top = if y.taps == 0 {
                    0
                } else {
                    ((my + y.shift + 1) as isize - y.taps as isize - lo) as usize
                };
                for (b, &(co0, nb)) in blocks.iter().enumerate() {
                    let job = RowJob {
                        src: scratch.as_ptr().wrapping_add(top * row_len),
                        chan_stride,
                        chans: cin,
                        taps: &taps[py],
                        weights: &weights[(py * blocks.len() + b) * s..][..s],
                        init: &init[co0..co0 + nb],
                        slope,
                        scatter,
                        width: geom.wo,
                        counts: &counts,
                        at: (oy - rows.start) * geom.wo,
                    };
                    // SAFETY: every tap addresses a scratch row of the
                    // sub-band (`top + taps − 1 − jy < nrows`), and a row holds
                    // `left + shift` plus the phase count rounded up to a
                    // vector (`row_len`); the packed block holds
                    // `cin · taps · nb` weights per phase.
                    unsafe { job.run_block::<V>(&mut out[co0..co0 + nb]) };
                }
            }
        }
    }
}

dispatched! {
    /// [`SubPixel::input_grad_rows`] past its checks.
    fn input_grad_rows_at<V>(
        geom: &SubPixel,
        packed: &[f32],
        init: &[f32],
        split: &[f32],
        chan_stride: usize,
        rows: Range<usize>,
        dx: &mut [&mut [f32]],
    ) {
        let (k, s) = (geom.k, geom.stride);
        let row_step = s * s * geom.g_sub;
        let taps: Vec<usize> = (0..k * k).map(|t| geom.grad_tap(t / k, t % k)).collect();
        let counts = [geom.w];
        for iy in rows.clone() {
            for (ci0, nb) in channel_blocks(geom.cin) {
                let weights = [packed[ci0 * geom.cout * k * k..].as_ptr()];
                let job = RowJob {
                    src: split.as_ptr().wrapping_add(iy * row_step),
                    chan_stride,
                    chans: geom.cout,
                    taps: &[&taps],
                    weights: &weights,
                    init: &init[ci0..ci0 + nb],
                    slope: None,
                    scatter: Scatter::Dense,
                    width: geom.w,
                    counts: &counts,
                    at: (iy - rows.start) * geom.w,
                };
                // SAFETY: tap `(ky, kx)` of input row `iy` addresses gradient
                // row `iy·s + ky < (h − 1)·s + k`, and a phase row holds
                // `g_left + shift` plus `w` rounded up to a vector (`g_sub`);
                // the packed block holds `cout · k² · nb` weights.
                unsafe { job.run_block::<V>(&mut dx[ci0..ci0 + nb]) };
            }
        }
    }
}

dispatched! {
    /// [`SubPixel::weight_grad`] past its checks.
    fn weight_grad_at<V>(
        geom: &SubPixel,
        x: &[&[f32]],
        split: &[f32],
        chan_stride: usize,
        dw: &mut [f32],
    ) {
        let (h, w, k) = (geom.h, geom.w, geom.k);
        // Every `(co, tap)` pair as one offset into `split`, in `dw`'s order:
        // a tile then takes four of them whichever channels they straddle.
        let taps: Vec<usize> = (0..geom.cout * k * k)
            .map(|j| j / (k * k) * chan_stride + geom.grad_tap(j / k % k, j % k))
            .collect();
        // Ragged rows zero-padded to whole vectors once per call: every tile
        // then loads whole vectors, and the zero lanes add nothing.
        let w8 = w.div_ceil(8) * 8;
        let padded = (w8 != w).then(|| {
            let mut buf = PoolBuf::<f32>::zeroed(x.len() * h * w8);
            let rows = x.iter().flat_map(|plane| plane.chunks_exact(w));
            for (dst, src) in buf.chunks_exact_mut(w8).zip(rows) {
                dst[..w].copy_from_slice(src);
            }
            buf
        });
        let x: Vec<&[f32]> = match &padded {
            Some(buf) => buf.chunks_exact(h * w8).collect(),
            None => x.to_vec(),
        };
        let row = taps.len();
        for j0 in (0..row).step_by(4) {
            let nt = (row - j0).min(4);
            for ci0 in (0..geom.cin).step_by(2) {
                let nc = (geom.cin - ci0).min(2);
                let (x, taps) = (&x[ci0..ci0 + nc], &taps[j0..j0 + nt]);
                let dw = &mut dw[ci0 * row + j0..];
                match (nc, nt) {
                    (2, 4) => weight_tile::<V, 2, 4>(geom, x, split, taps, dw, row),
                    (2, 3) => weight_tile::<V, 2, 3>(geom, x, split, taps, dw, row),
                    (2, 2) => weight_tile::<V, 2, 2>(geom, x, split, taps, dw, row),
                    (2, _) => weight_tile::<V, 2, 1>(geom, x, split, taps, dw, row),
                    (_, 4) => weight_tile::<V, 1, 4>(geom, x, split, taps, dw, row),
                    (_, 3) => weight_tile::<V, 1, 3>(geom, x, split, taps, dw, row),
                    (_, 2) => weight_tile::<V, 1, 2>(geom, x, split, taps, dw, row),
                    _ => weight_tile::<V, 1, 1>(geom, x, split, taps, dw, row),
                }
            }
        }
    }
}

/// `[NC][NT]` row dot products of [`SubPixel::weight_grad`] over the
/// planes `x` (rows padded to whole vectors), into `dw[c·row + t]`: eight
/// lane partials each, folded in lane order.
#[inline(always)]
fn weight_tile<V: Simd8, const NC: usize, const NT: usize>(
    geom: &SubPixel,
    x: &[&[f32]],
    split: &[f32],
    taps: &[usize],
    dw: &mut [f32],
    row: usize,
) {
    let (w8, s) = (geom.w.div_ceil(8) * 8, geom.stride);
    let row_step = s * s * geom.g_sub;
    let mut acc = [[V::zero(); NT]; NC];
    let reach = (geom.h - 1) * row_step + taps.iter().max().copied().unwrap_or(0) + w8;
    assert!(reach <= split.len(), "SubPixel: split gradient too short");
    let offsets: [usize; NT] = std::array::from_fn(|t| taps[t]);
    let (mut xv, mut gv) = ([V::zero(); NC], [V::zero(); NT]);
    for iy in 0..geom.h {
        let g = split[iy * row_step..].as_ptr();
        let mut rows = [[].as_slice(); NC];
        for (row, plane) in rows.iter_mut().zip(x) {
            *row = &plane[iy * w8..][..w8];
        }
        for ix in (0..w8).step_by(8) {
            for (xc, row) in xv.iter_mut().zip(&rows) {
                *xc = V::load(&row[ix..ix + 8]);
            }
            for (gt, &t) in gv.iter_mut().zip(&offsets) {
                // SAFETY: `t + ix + 8 ≤ reach − (h − 1 − iy)·row_step`,
                // inside `split` by the assertion above.
                *gt = V::load(unsafe { std::slice::from_raw_parts(g.add(t + ix), 8) });
            }
            for (row, xc) in acc.iter_mut().zip(&xv) {
                for (a, gt) in row.iter_mut().zip(&gv) {
                    *a = xc.mul_add(*gt, *a);
                }
            }
        }
    }
    // Transposed, the eight dots' lane partials fold in lane order with
    // one vector add per lane: per dot, the bits of a sequential fold
    // from zero.
    let mut dots = [V::zero(); 8];
    for (c, row) in acc.iter().enumerate() {
        dots[c * NT..][..NT].copy_from_slice(row);
    }
    let lanes = V::transpose8(dots);
    let sums = lanes.iter().fold(V::zero(), |sum, lane| sum.add(*lane));
    let sums = sums.to_array();
    for c in 0..NC {
        dw[c * row..][..NT].copy_from_slice(&sums[c * NT..][..NT]);
    }
}

// ---------------------------------------------------------------------------
// Depthwise 3-D rows
// ---------------------------------------------------------------------------

/// One channel of a same-padded, stride-1 depthwise 3-D correlation: a
/// `[d, h, w]` volume under a `k³` kernel (`k` odd).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dw3 {
    /// Depth planes.
    pub d: usize,
    /// Rows per plane.
    pub h: usize,
    /// Row length.
    pub w: usize,
    /// Kernel edge.
    pub k: usize,
}

impl Dw3 {
    fn check(&self, volume: &[f32], kernel: &[f32], plane: &[f32], z: usize) {
        assert!(
            volume.len() == self.d * self.h * self.w && plane.len() == self.h * self.w,
            "dw3: slice lengths disagree with {self:?}"
        );
        assert!(kernel.len() == self.k.pow(3) && z < self.d);
    }
}

dispatched! {
    /// Output plane `z` of the correlation of the channel volume `src` with
    /// `weights` (`[k, k, k]`): every row starts at `init` and takes one
    /// whole-row `+= w·x` per in-range tap, taps in ascending `(kz, ky, kx)`
    /// order. With `flip`, tap `t` carries weight `k³ − 1 − t` — the kernel
    /// mirrored on every axis, which turns the correlation into its own
    /// input-adjoint (per element, in the tap order of the scatter loop).
    ///
    /// # Panics
    ///
    /// Panics if a slice length or `z` disagrees with the geometry.
    pub fn dw3_plane<V>(
        geom: Dw3,
        src: &[f32],
        weights: &[f32],
        flip: bool,
        init: f32,
        z: usize,
        plane: &mut [f32],
    ) {
        geom.check(src, weights, plane, z);
        let Dw3 { d, h, w, k } = geom;
        let p = k / 2;
        for (y, row) in plane.chunks_exact_mut(w).enumerate() {
            row.fill(init);
            for kz in 0..k {
                let Some(iz) = tap_source(z, kz, p, d) else {
                    continue;
                };
                for ky in 0..k {
                    let Some(iy) = tap_source(y, ky, p, h) else {
                        continue;
                    };
                    let src_row = &src[(iz * h + iy) * w..][..w];
                    for kx in 0..k {
                        let xs = same_tap_range(w, kx, p);
                        if xs.is_empty() {
                            continue;
                        }
                        let tap = (kz * k + ky) * k + kx;
                        let weight = weights[if flip { k * k * k - 1 - tap } else { tap }];
                        let from = xs.start + kx - p;
                        axpy_generic::<V>(
                            &mut row[xs.clone()],
                            weight,
                            &src_row[from..][..xs.len()],
                        );
                    }
                }
            }
        }
    }
}

dispatched! {
    /// Adds plane `z`'s share of the kernel gradient into `dw` (`[k, k, k]`):
    /// `dw[kz, ky, kx] += Σ_{y,x} g[y, x] · x[z + kz − p, y + ky − p, x + kx − p]`,
    /// one row dot product per in-range tap, rows ascending.
    ///
    /// Each dot keeps eight lane partials (`acc + g·x`, unfused; a ragged
    /// tail joins lanes `0..len % 8`) folded sequentially in lane order —
    /// the same bits on both backends, and within rounding of a sequential
    /// sum.
    ///
    /// # Panics
    ///
    /// Panics if a slice length or `z` disagrees with the geometry.
    pub fn dw3_weight_grad<V>(geom: Dw3, x: &[f32], g_plane: &[f32], z: usize, dw: &mut [f32]) {
        geom.check(x, dw, g_plane, z);
        let Dw3 { d, h, w, k } = geom;
        let p = k / 2;
        for (y, g_row) in g_plane.chunks_exact(w).enumerate() {
            for kz in 0..k {
                let Some(iz) = tap_source(z, kz, p, d) else {
                    continue;
                };
                for ky in 0..k {
                    let Some(iy) = tap_source(y, ky, p, h) else {
                        continue;
                    };
                    let x_row = &x[(iz * h + iy) * w..][..w];
                    for kx in 0..k {
                        let xs = same_tap_range(w, kx, p);
                        if xs.is_empty() {
                            continue;
                        }
                        let from = xs.start + kx - p;
                        dw[(kz * k + ky) * k + kx] +=
                            dot::<V>(&g_row[xs.clone()], &x_row[from..][..xs.len()]);
                    }
                }
            }
        }
    }
}

#[inline(always)]
fn dot<V: Simd8>(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let (a, b) = (a.chunks_exact(8), b.chunks_exact(8));
    let tails = a.remainder().iter().zip(b.remainder());
    let mut acc = V::zero();
    for (x, y) in a.zip(b) {
        acc = acc.add(V::load(x).mul(V::load(y)));
    }
    let mut lanes = acc.to_array();
    for (lane, (x, y)) in lanes.iter_mut().zip(tails) {
        *lane += x * y;
    }
    lanes.iter().fold(0.0, |sum, lane| sum + lane)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{best_level, Level};
    use peb_par::ctx::at_level;

    fn pseudo(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn tap_ranges_match_the_two_bounds_tests() {
        for &(n, k, pad) in &[(7usize, 3usize, 1usize), (9, 5, 2), (2, 7, 3), (1, 7, 3)] {
            for kk in 0..k {
                let want: Vec<usize> = (0..n)
                    .filter(|o| (o + kk).checked_sub(pad).is_some_and(|i| i < n))
                    .collect();
                let got: Vec<usize> = same_tap_range(n, kk, pad).collect();
                assert_eq!(got, want, "n={n} k={k} pad={pad} kk={kk}");
            }
        }
    }

    #[test]
    fn sub_pixel_output_extents_are_those_with_the_inputs_window_count() {
        // From the transposed conv's own extent (at least 1) to s − 1 more:
        // 125..=128 for the stem embed's four windows, and a lone k3 s4 p2
        // window over padding for 1 or 2 pixels.
        for (n, k, s, p) in [
            (32, 7, 4, 3),
            (4, 3, 2, 1),
            (1, 3, 4, 2),
            (3, 2, 2, 0),
            (5, 3, 1, 1),
        ] {
            let own = ((n - 1) * s + k) as isize - 2 * p as isize;
            let fits = |e: usize| (own.max(1)..own + s as isize).contains(&(e as isize));
            for e in 1..(own + s as isize + 2) as usize {
                let made =
                    std::panic::catch_unwind(|| SubPixel::new(2, 3, (n, n), (e, e), k, s, p));
                assert_eq!(made.is_ok(), fits(e), "n={n} k={k} s={s} p={p} extent {e}");
            }
        }
    }

    #[test]
    fn split_grad_writes_every_slot_of_its_plane() {
        // Into NaN as into zeros, bit for bit: the split may be an
        // overwrite checkout. The stem's k7 s4 p3 embed, the s2 embeds,
        // a ragged width and the stride-1 geometry of the 3-D conv.
        for ((h, w), (ho, wo), k, s, p) in [
            ((32, 32), (128, 128), 7, 4, 3),
            ((32, 32), (125, 127), 7, 4, 3),
            ((16, 16), (32, 32), 3, 2, 1),
            ((4, 5), (8, 9), 3, 2, 1),
            ((3, 3), (6, 7), 2, 2, 0),
            ((5, 7), (5, 7), 3, 1, 1),
        ] {
            let geom = SubPixel::new(2, 3, (h, w), (ho, wo), k, s, p);
            let g = pseudo(ho * wo, 11);
            let mut zeroed = vec![0f32; geom.grad_plane_len()];
            let mut nan = vec![f32::NAN; geom.grad_plane_len()];
            geom.split_grad(&g, &mut zeroed);
            geom.split_grad(&g, &mut nan);
            assert_eq!(bits(&nan), bits(&zeroed), "{geom}");
        }
    }

    #[test]
    fn row_sweeps_are_bitwise_identical_across_backends() {
        let run = || {
            let mut out = Vec::new();
            let geom = Dw3 {
                d: 3,
                h: 5,
                w: 19,
                k: 3,
            };
            let (x, g, kernel) = (pseudo(3 * 5 * 19, 4), pseudo(5 * 19, 5), pseudo(27, 6));
            for z in 0..geom.d {
                for flip in [false, true] {
                    let mut plane = vec![0f32; 5 * 19];
                    dw3_plane(geom, &x, &kernel, flip, 0.5, z, &mut plane);
                    out.push(plane);
                }
                let mut dw = vec![0f32; 27];
                dw3_weight_grad(geom, &x, &g, z, &mut dw);
                out.push(dw);
            }
            out
        };
        let scalar = at_level(Level::Scalar, run);
        let best = at_level(best_level(), run);
        for (s, b) in scalar.iter().zip(&best) {
            assert_eq!(bits(s), bits(b));
        }
    }
}
