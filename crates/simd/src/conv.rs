//! Row sweeps of the planes-batched convolution family.
//!
//! The conv layers in `peb-nn` lower to one GEMM per depth plane plus the
//! data movement around it. This module is that movement, one image
//! plane per call: [`Windows::unfold`] (im2col) and [`Windows::fold`]
//! (col2im + bias) for the dense 2-D layers, [`dw3_plane`] and
//! [`dw3_weight_grad`] for the depthwise 3-D layer. Both bounds tests of
//! the textbook loops are hoisted into a range per tap, so every inner
//! loop is a contiguous row: a `copy`, a `+=`, a `+= w·x` or a dot
//! product on eight lanes.
//!
//! Everything here is **exact-class**: unfused IEEE-exact lane
//! operations, per element in the accumulation order of the scalar
//! loops (kept as the oracle in `peb-nn`'s `tests/conv_planes.rs`), so
//! both backends — and the scalar loops — produce the same bits. The one
//! re-bracketed sum is the dot product of [`dw3_weight_grad`], whose
//! eight lane partials are the same on both backends.

use std::ops::Range;

use crate::elementwise::{add_assign_generic, add_scalar_generic, axpy_generic};
use crate::{simd_active, ScalarX8, Simd8};

/// The window positions `o` in `0..n_out` whose tap `kk` lands inside an
/// axis of extent `n`: `0 ≤ o·stride + kk − pad < n`.
fn tap_range(n: usize, n_out: usize, kk: usize, stride: usize, pad: usize) -> Range<usize> {
    let lo = pad.saturating_sub(kk).div_ceil(stride);
    let hi = match (n + pad).checked_sub(kk + 1) {
        Some(last) => (last / stride + 1).min(n_out),
        None => 0,
    };
    lo..hi.max(lo)
}

/// [`tap_range`] at stride 1 over an axis that keeps its extent (same
/// padding), division-free: it runs once per row and tap.
fn same_tap_range(n: usize, kk: usize, pad: usize) -> Range<usize> {
    let lo = pad.saturating_sub(kk);
    lo..(n + pad).saturating_sub(kk).min(n).max(lo)
}

/// `i + kk − pad` when it lands inside `0..n`.
fn tap_source(i: usize, kk: usize, pad: usize, n: usize) -> Option<usize> {
    (i + kk).checked_sub(pad).filter(|&v| v < n)
}

// ---------------------------------------------------------------------------
// Dense 2-D windows: unfold / fold
// ---------------------------------------------------------------------------

/// The `k × k` windows of one image plane: `ho × wo` of them over an
/// `h × w` image. A conv *reads* its input through them
/// ([`Windows::unfold`]) and a transposed conv *writes* its output
/// through them ([`Windows::fold`]); each layer's backward pass is the
/// other's forward.
#[derive(Debug, Clone)]
pub struct Windows {
    h: usize,
    w: usize,
    ho: usize,
    wo: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// Per `kx`, the window columns whose tap lands inside the image.
    x_taps: Vec<Range<usize>>,
}

impl std::fmt::Display for Windows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Windows {
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
            "image={h}x{w} windows={ho}x{wo} k={k} stride={stride} pad={pad}"
        )
    }
}

impl Windows {
    /// `ho × wo` windows of `k × k` taps at `stride`, over an `h × w`
    /// image padded by `pad` on every side. The caller derives one
    /// extent pair from the other; nothing here indexes outside the
    /// slices it is given.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        h: usize,
        w: usize,
        ho: usize,
        wo: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(stride > 0, "Windows: stride must be positive");
        Windows {
            h,
            w,
            ho,
            wo,
            k,
            stride,
            pad,
            x_taps: (0..k).map(|kx| tap_range(w, wo, kx, stride, pad)).collect(),
        }
    }

    /// Image extents `(h, w)`.
    pub fn image(&self) -> (usize, usize) {
        (self.h, self.w)
    }

    /// Window-grid extents `(ho, wo)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.ho, self.wo)
    }

    /// Window stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Pixels per image plane, `h·w`.
    pub fn pixels(&self) -> usize {
        self.h * self.w
    }

    /// Windows per plane, `ho·wo`: the column count of the patch matrix.
    pub fn count(&self) -> usize {
        self.ho * self.wo
    }

    /// Taps per window, `k·k`: the patch-matrix rows per channel.
    pub fn taps(&self) -> usize {
        self.k * self.k
    }

    /// Scratch floats [`Windows::fold_rows`] needs: one lane of
    /// `⌈w / s⌉` slots per column phase.
    pub fn lanes_len(&self) -> usize {
        self.stride * self.w.div_ceil(self.stride)
    }

    /// Unfolds one channel plane `img` (`[h, w]`) into its `k·k` patch
    /// rows `col` (`[k·k, ho·wo]`). Padding taps are never written: the
    /// caller passes `col` zeroed.
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with the geometry.
    pub fn unfold(&self, img: &[f32], col: &mut [f32]) {
        let (k, s, n) = (self.k, self.stride, self.count());
        assert!(img.len() == self.pixels() && col.len() == self.taps() * n);
        for ky in 0..k {
            let oys = tap_range(self.h, self.ho, ky, s, self.pad);
            for (kx, oxs) in self.x_taps.iter().enumerate() {
                if oxs.is_empty() {
                    continue;
                }
                let row = &mut col[(ky * k + kx) * n..][..n];
                let x0 = oxs.start * s + kx - self.pad;
                for oy in oys.clone() {
                    let iy = oy * s + ky - self.pad;
                    let dst = &mut row[oy * self.wo..][oxs.clone()];
                    let src = &img[iy * self.w + x0..];
                    if s == 1 {
                        dst.copy_from_slice(&src[..dst.len()]);
                    } else {
                        for (d, v) in dst.iter_mut().zip(src.iter().step_by(s)) {
                            *d = *v;
                        }
                    }
                }
            }
        }
    }

    /// The window rows any tap of the image rows `rows` belongs to:
    /// what a band of [`Windows::fold_rows`] needs of the patch matrix.
    pub fn window_rows(&self, rows: Range<usize>) -> Range<usize> {
        let lo = (rows.start + self.pad + 1)
            .saturating_sub(self.k)
            .div_ceil(self.stride);
        let hi = match (rows.end + self.pad).checked_sub(1) {
            Some(last) => (last / self.stride + 1).min(self.ho),
            None => 0,
        };
        lo..hi.max(lo)
    }

    /// Adjoint of [`Windows::unfold`] plus a bias, for the band `rows` of
    /// one channel plane (`img_rows`, `[rows.len(), w]`):
    /// `img[oy·s + ky − pad][ox·s + kx − pad] = Σ col[(ky, kx)][oy][ox] + bias`,
    /// with `col` (`[k·k, oys.len()·wo]`) holding the window rows `oys`,
    /// which must cover [`Windows::window_rows`] of the band.
    ///
    /// Gathers one image row at a time while it is hot. The row's taps
    /// arrive in ascending `(ky, kx)` order — per element, the order of
    /// the scatter loop — as contiguous `+=` rows into `lanes`
    /// ([`Windows::lanes_len`] floats of scratch), one lane per column
    /// phase `ix mod s`; the lanes are then interleaved into the row with
    /// the bias added. A lane summed from `+0.0` is never `−0.0`, so
    /// `bias = 0.0` is exactly "no bias".
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with the geometry or `oys`
    /// misses a window row of the band.
    pub fn fold_rows(
        &self,
        col: &[f32],
        oys: Range<usize>,
        bias: f32,
        rows: Range<usize>,
        img_rows: &mut [f32],
        lanes: &mut [f32],
    ) {
        let need = self.window_rows(rows.clone());
        assert!(
            need.is_empty() || (oys.start <= need.start && need.end <= oys.end),
            "fold_rows: rows {rows:?} need window rows {need:?}, got {oys:?}"
        );
        assert!(rows.end <= self.h && img_rows.len() == rows.len() * self.w);
        assert_eq!(col.len(), self.taps() * oys.len() * self.wo);
        assert_eq!(lanes.len(), self.lanes_len());
        #[cfg(target_arch = "x86_64")]
        if simd_active() {
            crate::note_dispatch();
            // SAFETY: `simd_active()` implies AVX2+FMA were detected.
            unsafe { fold_rows_avx2(self, col, oys, bias, rows, img_rows, lanes) };
            return;
        }
        fold_rows_generic::<ScalarX8>(self, col, oys, bias, rows, img_rows, lanes)
    }

    /// [`Windows::fold_rows`] over the whole plane: `col` is the full
    /// `[k·k, ho·wo]` patch matrix, `img` the `[h, w]` plane.
    pub fn fold(&self, col: &[f32], bias: f32, img: &mut [f32], lanes: &mut [f32]) {
        self.fold_rows(col, 0..self.ho, bias, 0..self.h, img, lanes)
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fold_rows_avx2(
    win: &Windows,
    col: &[f32],
    oys: Range<usize>,
    bias: f32,
    rows: Range<usize>,
    img_rows: &mut [f32],
    lanes: &mut [f32],
) {
    fold_rows_generic::<crate::AvxX8>(win, col, oys, bias, rows, img_rows, lanes)
}

#[inline(always)]
fn fold_rows_generic<V: Simd8>(
    win: &Windows,
    col: &[f32],
    oys: Range<usize>,
    bias: f32,
    rows: Range<usize>,
    img_rows: &mut [f32],
    lanes: &mut [f32],
) {
    let (k, s, n) = (win.k, win.stride, oys.len() * win.wo);
    let lane_len = win.w.div_ceil(s);
    for (iy, row) in rows.zip(img_rows.chunks_exact_mut(win.w)) {
        lanes.fill(0.0);
        for ky in 0..k.min(iy + win.pad + 1) {
            let t = iy + win.pad - ky;
            if !t.is_multiple_of(s) || t / s >= win.ho {
                continue;
            }
            let taps = &col[ky * k * n + (t / s - oys.start) * win.wo..];
            for (kx, oxs) in win.x_taps.iter().enumerate() {
                if oxs.is_empty() {
                    continue;
                }
                let ix0 = oxs.start * s + kx - win.pad;
                let lane = &mut lanes[(ix0 % s) * lane_len + ix0 / s..][..oxs.len()];
                add_assign_generic::<V>(lane, &taps[kx * n..][oxs.clone()]);
            }
        }
        if s == 1 {
            add_scalar_generic::<V>(lanes, bias, row);
        } else {
            for (phase, lane) in lanes.chunks_exact(lane_len).enumerate() {
                for (o, v) in row[phase..].iter_mut().step_by(s).zip(lane) {
                    *o = *v + bias;
                }
            }
        }
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
pub fn dw3_plane(
    geom: Dw3,
    src: &[f32],
    weights: &[f32],
    flip: bool,
    init: f32,
    z: usize,
    plane: &mut [f32],
) {
    geom.check(src, weights, plane, z);
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        crate::note_dispatch();
        // SAFETY: `simd_active()` implies AVX2+FMA were detected.
        unsafe { dw3_plane_avx2(geom, src, weights, flip, init, z, plane) };
        return;
    }
    dw3_plane_generic::<ScalarX8>(geom, src, weights, flip, init, z, plane)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dw3_plane_avx2(
    geom: Dw3,
    src: &[f32],
    weights: &[f32],
    flip: bool,
    init: f32,
    z: usize,
    plane: &mut [f32],
) {
    dw3_plane_generic::<crate::AvxX8>(geom, src, weights, flip, init, z, plane)
}

#[inline(always)]
fn dw3_plane_generic<V: Simd8>(
    Dw3 { d, h, w, k }: Dw3,
    src: &[f32],
    weights: &[f32],
    flip: bool,
    init: f32,
    z: usize,
    plane: &mut [f32],
) {
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
                    axpy_generic::<V>(&mut row[xs.clone()], weight, &src_row[from..][..xs.len()]);
                }
            }
        }
    }
}

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
pub fn dw3_weight_grad(geom: Dw3, x: &[f32], g_plane: &[f32], z: usize, dw: &mut [f32]) {
    geom.check(x, dw, g_plane, z);
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        crate::note_dispatch();
        // SAFETY: `simd_active()` implies AVX2+FMA were detected.
        unsafe { dw3_weight_grad_avx2(geom, x, g_plane, z, dw) };
        return;
    }
    dw3_weight_grad_generic::<ScalarX8>(geom, x, g_plane, z, dw)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dw3_weight_grad_avx2(geom: Dw3, x: &[f32], g_plane: &[f32], z: usize, dw: &mut [f32]) {
    dw3_weight_grad_generic::<crate::AvxX8>(geom, x, g_plane, z, dw)
}

#[inline(always)]
fn dw3_weight_grad_generic<V: Simd8>(
    Dw3 { d, h, w, k }: Dw3,
    x: &[f32],
    g_plane: &[f32],
    z: usize,
    dw: &mut [f32],
) {
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

#[inline(always)]
fn dot<V: Simd8>(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n8 = a.len() - a.len() % 8;
    let mut acc = V::zero();
    let mut i = 0;
    while i < n8 {
        acc = acc.add(V::load(&a[i..]).mul(V::load(&b[i..])));
        i += 8;
    }
    let mut lanes = acc.to_array();
    for (lane, (x, y)) in lanes.iter_mut().zip(a[i..].iter().zip(&b[i..])) {
        *lane += x * y;
    }
    lanes.iter().fold(0.0, |sum, lane| sum + lane)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{at_level, best_level, Level};

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
        for &(n, k, stride, pad) in &[
            (7usize, 3usize, 2usize, 1usize),
            (9, 4, 2, 1),
            (5, 7, 4, 3),
            (1, 7, 1, 3),
        ] {
            let n_out = (n + 2 * pad - k) / stride + 1;
            for kk in 0..k {
                let want: Vec<usize> = (0..n_out)
                    .filter(|o| (o * stride + kk).checked_sub(pad).is_some_and(|i| i < n))
                    .collect();
                let got: Vec<usize> = tap_range(n, n_out, kk, stride, pad).collect();
                assert_eq!(got, want, "n={n} k={k} stride={stride} pad={pad} kk={kk}");
                if stride == 1 && n_out == n {
                    assert_eq!(same_tap_range(n, kk, pad).collect::<Vec<_>>(), want);
                }
            }
        }
    }

    #[test]
    fn fold_is_the_adjoint_of_unfold_on_ragged_geometry() {
        for &(h, w, k, stride, pad) in &[
            (7, 9, 3, 2, 1),
            (6, 11, 4, 2, 1),
            (5, 4, 7, 4, 3),
            (8, 3, 3, 1, 1),
        ] {
            let (ho, wo) = (
                (h + 2 * pad - k) / stride + 1,
                (w + 2 * pad - k) / stride + 1,
            );
            let win = Windows::new(h, w, ho, wo, k, stride, pad);
            let img = pseudo(win.pixels(), 1);
            let col = pseudo(win.taps() * win.count(), 2);
            let mut unfolded = vec![0f32; col.len()];
            win.unfold(&img, &mut unfolded);
            let mut folded = vec![f32::NAN; img.len()];
            win.fold(&col, 0.0, &mut folded, &mut vec![0f32; win.lanes_len()]);
            let dot = |a: &[f32], b: &[f32]| -> f64 {
                a.iter()
                    .zip(b)
                    .map(|(x, y)| f64::from(*x) * f64::from(*y))
                    .sum()
            };
            let (lhs, rhs) = (dot(&unfolded, &col), dot(&img, &folded));
            assert!((lhs - rhs).abs() < 1e-4, "{win:?}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn row_sweeps_are_bitwise_identical_across_backends() {
        let run = || {
            let mut out = Vec::new();
            for &(h, w, k, stride, pad) in &[(7, 19, 3, 2, 1), (6, 21, 4, 2, 1), (9, 17, 3, 1, 1)] {
                let (ho, wo) = (
                    (h + 2 * pad - k) / stride + 1,
                    (w + 2 * pad - k) / stride + 1,
                );
                let win = Windows::new(h, w, ho, wo, k, stride, pad);
                let col = pseudo(win.taps() * win.count(), 3);
                let mut img = vec![0f32; win.pixels()];
                win.fold(&col, 0.25, &mut img, &mut vec![0f32; win.lanes_len()]);
                out.push(img);
            }
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
