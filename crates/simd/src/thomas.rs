//! Shared-factorization Thomas solves for batches of tridiagonal lines.
//!
//! Every line of an ADI axis sweep shares one constant-coefficient
//! matrix, so the elimination pivots (`beta`) and modified super-diagonal
//! (`gamma`) can be factored **once** per axis and reused by every line.
//! [`factor_tridiagonal`] produces exactly the values the in-line
//! elimination of `peb-litho`'s `solve_tridiagonal` computes, and
//! [`solve_factored`] replays the per-line operations in the identical
//! order — so factored solves are bitwise identical to the original
//! solver.
//!
//! [`solve_factored_lines8`] runs eight interleaved lines at once (lines
//! that are adjacent in the innermost tensor dimension, so element `k` of
//! the group is eight contiguous floats). Each lane performs exactly the
//! scalar operation sequence with IEEE-exact ops (`+ − × ÷`), so the
//! SIMD path is **bitwise identical** to the scalar path.
//! [`solve_factored_rows8`] does the same for eight *contiguous* lines
//! (adjacent rows, the x-axis of a plane), transposing 8×8 blocks in
//! registers on the way in and out.

use peb_par::UnsafeSlice;

use crate::{simd_active, ScalarX8, Simd8};

/// Factors the constant-coefficient tridiagonal matrix `(a, b, c)` into
/// pivots `beta` and modified super-diagonal `gamma`
/// (`gamma[i] = c[i−1]/beta[i−1]`), matching the in-line elimination of
/// the classic Thomas solve bit for bit. `gamma[0]` is unused (0).
pub fn factor_tridiagonal(
    a: &[f32],
    b: &[f32],
    c: &[f32],
    beta: &mut Vec<f32>,
    gamma: &mut Vec<f32>,
) {
    let n = b.len();
    debug_assert!(a.len() == n && c.len() == n);
    beta.clear();
    gamma.clear();
    if n == 0 {
        return;
    }
    let mut bp = b[0];
    debug_assert!(bp != 0.0, "zero pivot at row 0");
    beta.push(bp);
    gamma.push(0.0);
    for i in 1..n {
        let g = c[i - 1] / bp;
        bp = b[i] - a[i] * g;
        debug_assert!(bp != 0.0, "zero pivot at row {i}");
        gamma.push(g);
        beta.push(bp);
    }
}

/// Solves one line in place against a precomputed factorization;
/// bitwise identical to `solve_tridiagonal` on the same system.
pub fn solve_factored(a: &[f32], beta: &[f32], gamma: &[f32], d: &mut [f32]) {
    let n = d.len();
    debug_assert!(a.len() == n && beta.len() == n && gamma.len() == n);
    if n == 0 {
        return;
    }
    d[0] /= beta[0];
    for i in 1..n {
        d[i] = (d[i] - a[i] * d[i - 1]) / beta[i];
    }
    for i in (0..n - 1).rev() {
        d[i] -= gamma[i + 1] * d[i + 1];
    }
}

/// Solves eight interleaved lines in place against one shared
/// factorization.
///
/// Element `k` of the group lives at `slots[base + k·stride .. +8]` (the
/// eight lines are adjacent in the innermost dimension). `bump_first` /
/// `bump_last` are added to the first/last right-hand-side element before
/// elimination (the Robin-boundary source term), matching the scalar
/// sweep's unconditional `line[0] += bump` adds.
///
/// # Safety
///
/// The caller must own every position `base + k·stride + j` (`k < n`,
/// `j < 8`) of `slots` exclusively — the standard `UnsafeSlice`
/// disjoint-writes contract of the line-parallel ADI sweep.
#[allow(clippy::too_many_arguments)]
pub unsafe fn solve_factored_lines8(
    a: &[f32],
    beta: &[f32],
    gamma: &[f32],
    slots: &UnsafeSlice<f32>,
    base: usize,
    stride: usize,
    n: usize,
    bump_first: f32,
    bump_last: f32,
) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        crate::note_dispatch();
        // SAFETY: `simd_active()` implies AVX2+FMA; aliasing is the
        // caller's contract.
        unsafe {
            solve8_avx2(
                a, beta, gamma, slots, base, stride, n, bump_first, bump_last,
            )
        };
        return;
    }
    // SAFETY: forwarded caller contract.
    unsafe {
        solve8_generic::<ScalarX8>(
            a, beta, gamma, slots, base, stride, n, bump_first, bump_last,
        )
    }
}

/// Forced scalar-backend variant of [`solve_factored_lines8`].
///
/// # Safety
///
/// Same contract as [`solve_factored_lines8`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn solve_factored_lines8_scalar(
    a: &[f32],
    beta: &[f32],
    gamma: &[f32],
    slots: &UnsafeSlice<f32>,
    base: usize,
    stride: usize,
    n: usize,
    bump_first: f32,
    bump_last: f32,
) {
    // SAFETY: forwarded caller contract.
    unsafe {
        solve8_generic::<ScalarX8>(
            a, beta, gamma, slots, base, stride, n, bump_first, bump_last,
        )
    }
}

/// Forced SIMD-backend variant of [`solve_factored_lines8`]; returns
/// `false` (no-op) without AVX2+FMA.
///
/// # Safety
///
/// Same contract as [`solve_factored_lines8`].
#[allow(clippy::too_many_arguments)]
pub unsafe fn solve_factored_lines8_simd(
    a: &[f32],
    beta: &[f32],
    gamma: &[f32],
    slots: &UnsafeSlice<f32>,
    base: usize,
    stride: usize,
    n: usize,
    bump_first: f32,
    bump_last: f32,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if crate::detected() {
        // SAFETY: guarded by `detected()`; aliasing is the caller's.
        unsafe {
            solve8_avx2(
                a, beta, gamma, slots, base, stride, n, bump_first, bump_last,
            )
        };
        return true;
    }
    let _ = (
        a, beta, gamma, slots, base, stride, n, bump_first, bump_last,
    );
    false
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn solve8_avx2(
    a: &[f32],
    beta: &[f32],
    gamma: &[f32],
    slots: &UnsafeSlice<f32>,
    base: usize,
    stride: usize,
    n: usize,
    bump_first: f32,
    bump_last: f32,
) {
    // SAFETY: forwarded caller contract.
    unsafe {
        solve8_generic::<crate::AvxX8>(
            a, beta, gamma, slots, base, stride, n, bump_first, bump_last,
        )
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn solve8_generic<V: Simd8>(
    a: &[f32],
    beta: &[f32],
    gamma: &[f32],
    slots: &UnsafeSlice<f32>,
    base: usize,
    stride: usize,
    n: usize,
    bump_first: f32,
    bump_last: f32,
) {
    debug_assert!(n >= 2, "degenerate lines are handled by the caller");
    assert_eq!(beta.len(), n, "factorization length");
    let sys = Factored {
        a,
        beta,
        gamma,
        bump_first,
        bump_last,
    };
    // SAFETY (all row accesses): caller owns the group's strided
    // positions exclusively; each borrow is transient and sequential.
    let row = |k: usize| unsafe { slots.slice_mut(base + k * stride..base + k * stride + 8) };
    let mut prev = V::zero();
    for k in 0..n {
        let rk = row(k);
        prev = sys.forward(k, V::load(rk), prev);
        prev.store(rk);
    }
    let mut next = prev;
    for k in (0..n - 1).rev() {
        let rk = row(k);
        next = sys.back(k, V::load(rk), next);
        next.store(rk);
    }
}

/// The shared factorization plus the per-line source terms: the one
/// place the eight-lane elimination arithmetic lives. Per lane it is
/// exactly [`solve_factored`] on a line whose first/last element got the
/// bumps added first.
#[derive(Clone, Copy)]
struct Factored<'a> {
    a: &'a [f32],
    beta: &'a [f32],
    gamma: &'a [f32],
    bump_first: f32,
    bump_last: f32,
}

impl Factored<'_> {
    /// Forward elimination of element `k` of eight lines: bump, then
    /// `d[k] = (d[k] − a[k]·d[k−1]) / beta[k]` (`d[0] /= beta[0]`).
    // A plain fn, not a closure: closures are not `inline(always)`, and
    // an out-of-line body would call every AVX lane op as a function.
    #[inline(always)]
    fn forward<V: Simd8>(&self, k: usize, dk: V, prev: V) -> V {
        if k == 0 {
            return dk
                .add(V::splat(self.bump_first))
                .div(V::splat(self.beta[0]));
        }
        let dk = if k == self.beta.len() - 1 {
            dk.add(V::splat(self.bump_last))
        } else {
            dk
        };
        dk.sub(V::splat(self.a[k]).mul(prev))
            .div(V::splat(self.beta[k]))
    }

    /// Back substitution of element `k`: `d[k] −= gamma[k+1]·d[k+1]`
    /// (the last element is already final).
    #[inline(always)]
    fn back<V: Simd8>(&self, k: usize, dk: V, next: V) -> V {
        if k == self.beta.len() - 1 {
            dk
        } else {
            dk.sub(V::splat(self.gamma[k + 1]).mul(next))
        }
    }
}

/// Solves eight *contiguous* lines in place against one shared
/// factorization: `rows` holds eight adjacent rows of `n = beta.len()`
/// floats each (the x-axis lines of a tensor plane). The rows are
/// interleaved through 8×8 in-register transposes into `scratch`
/// (`≥ 8·n` floats, clobbered), eliminated with exactly the lane
/// arithmetic of [`solve_factored_lines8`], and transposed back — per
/// line the operation order is that of [`solve_factored`], so the result
/// is bitwise identical to solving each row on its own. `bump_first` /
/// `bump_last` are added to each row's first/last element first.
///
/// # Panics
///
/// Panics if `n < 2` or any slice length disagrees with `n`.
pub fn solve_factored_rows8(
    a: &[f32],
    beta: &[f32],
    gamma: &[f32],
    rows: &mut [f32],
    scratch: &mut [f32],
    bump_first: f32,
    bump_last: f32,
) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        crate::note_dispatch();
        // SAFETY: `simd_active()` implies AVX2+FMA were detected.
        unsafe { rows8_avx2(a, beta, gamma, rows, scratch, bump_first, bump_last) };
        return;
    }
    rows8_generic::<ScalarX8>(a, beta, gamma, rows, scratch, bump_first, bump_last)
}

/// Forced scalar-backend variant of [`solve_factored_rows8`].
pub fn solve_factored_rows8_scalar(
    a: &[f32],
    beta: &[f32],
    gamma: &[f32],
    rows: &mut [f32],
    scratch: &mut [f32],
    bump_first: f32,
    bump_last: f32,
) {
    rows8_generic::<ScalarX8>(a, beta, gamma, rows, scratch, bump_first, bump_last)
}

/// Forced SIMD-backend variant of [`solve_factored_rows8`]; returns
/// `false` (no-op) without AVX2+FMA.
pub fn solve_factored_rows8_simd(
    a: &[f32],
    beta: &[f32],
    gamma: &[f32],
    rows: &mut [f32],
    scratch: &mut [f32],
    bump_first: f32,
    bump_last: f32,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if crate::detected() {
        // SAFETY: guarded by `detected()`.
        unsafe { rows8_avx2(a, beta, gamma, rows, scratch, bump_first, bump_last) };
        return true;
    }
    let _ = (a, beta, gamma, rows, scratch, bump_first, bump_last);
    false
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn rows8_avx2(
    a: &[f32],
    beta: &[f32],
    gamma: &[f32],
    rows: &mut [f32],
    scratch: &mut [f32],
    bump_first: f32,
    bump_last: f32,
) {
    rows8_generic::<crate::AvxX8>(a, beta, gamma, rows, scratch, bump_first, bump_last)
}

#[inline(always)]
fn rows8_generic<V: Simd8>(
    a: &[f32],
    beta: &[f32],
    gamma: &[f32],
    rows: &mut [f32],
    scratch: &mut [f32],
    bump_first: f32,
    bump_last: f32,
) {
    let n = beta.len();
    assert!(n >= 2 && a.len() == n && gamma.len() == n);
    assert!(rows.len() == 8 * n && scratch.len() >= 8 * n);
    let sys = Factored {
        a,
        beta,
        gamma,
        bump_first,
        bump_last,
    };
    // Columns `..full` move through register transposes, the ragged
    // column tail lane by lane.
    let full = n - n % 8;
    // Forward elimination into the interleaved scratch.
    let mut prev = V::zero();
    for k0 in (0..full).step_by(8) {
        let mut block = [V::zero(); 8];
        for (j, r) in block.iter_mut().enumerate() {
            *r = V::load(&rows[j * n + k0..]);
        }
        for (kk, dk) in V::transpose8(block).into_iter().enumerate() {
            prev = sys.forward(k0 + kk, dk, prev);
            prev.store(&mut scratch[(k0 + kk) * 8..]);
        }
    }
    for k in full..n {
        let mut lanes = [0f32; 8];
        for (j, v) in lanes.iter_mut().enumerate() {
            *v = rows[j * n + k];
        }
        prev = sys.forward(k, V::from_array(lanes), prev);
        prev.store(&mut scratch[k * 8..]);
    }
    // Back substitution, de-interleaving on the way out.
    let mut next = V::zero();
    for k in (full..n).rev() {
        next = sys.back(k, V::load(&scratch[k * 8..]), next);
        for (j, v) in next.to_array().into_iter().enumerate() {
            rows[j * n + k] = v;
        }
    }
    for k0 in (0..full).step_by(8).rev() {
        let mut cols = [V::zero(); 8];
        for kk in (0..8).rev() {
            next = sys.back(k0 + kk, V::load(&scratch[(k0 + kk) * 8..]), next);
            cols[kk] = next;
        }
        for (j, r) in V::transpose8(cols).into_iter().enumerate() {
            r.store(&mut rows[j * n + k0..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic in-line Thomas solve (the peb-litho reference).
    fn solve_reference(a: &[f32], b: &[f32], c: &[f32], d: &mut [f32]) {
        let n = d.len();
        let mut scratch = vec![0f32; n];
        let mut beta = b[0];
        d[0] /= beta;
        for i in 1..n {
            scratch[i] = c[i - 1] / beta;
            beta = b[i] - a[i] * scratch[i];
            d[i] = (d[i] - a[i] * d[i - 1]) / beta;
        }
        for i in (0..n - 1).rev() {
            d[i] -= scratch[i + 1] * d[i + 1];
        }
    }

    fn diffusion_system(n: usize, r: f32) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let a = vec![-r; n];
        let c = vec![-r; n];
        let mut b = vec![1.0 + 2.0 * r; n];
        b[0] = 1.0 + r;
        b[n - 1] = 1.0 + r;
        (a, b, c)
    }

    #[test]
    fn factored_solve_matches_inline_elimination_bitwise() {
        for n in [2usize, 3, 7, 33] {
            let (a, b, c) = diffusion_system(n, 0.37);
            let mut d: Vec<f32> = (0..n).map(|i| (i as f32 * 0.77).sin()).collect();
            let mut want = d.clone();
            solve_reference(&a, &b, &c, &mut want);
            let (mut beta, mut gamma) = (Vec::new(), Vec::new());
            factor_tridiagonal(&a, &b, &c, &mut beta, &mut gamma);
            solve_factored(&a, &beta, &gamma, &mut d);
            for (w, g) in want.iter().zip(&d) {
                assert_eq!(w.to_bits(), g.to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    fn interleaved_lines_match_scalar_lines_bitwise() {
        let n = 17;
        let stride = 8; // 8 lines, unit inner spacing
        let (a, b, c) = diffusion_system(n, 0.21);
        let (mut beta, mut gamma) = (Vec::new(), Vec::new());
        factor_tridiagonal(&a, &b, &c, &mut beta, &mut gamma);
        let mut field: Vec<f32> = (0..n * 8).map(|i| (i as f32 * 0.31).cos()).collect();
        let (bump_first, bump_last) = (0.05f32, 0.0f32);
        // Per-line reference with the same bump handling.
        let mut want = vec![0f32; n * 8];
        for j in 0..8 {
            let mut line: Vec<f32> = (0..n).map(|k| field[k * stride + j]).collect();
            line[0] += bump_first;
            line[n - 1] += bump_last;
            solve_factored(&a, &beta, &gamma, &mut line);
            for (k, v) in line.iter().enumerate() {
                want[k * stride + j] = *v;
            }
        }
        {
            let slots = UnsafeSlice::new(&mut field);
            // SAFETY: single-threaded test, one group owning everything.
            let used_simd = unsafe {
                solve_factored_lines8_simd(
                    &a, &beta, &gamma, &slots, 0, stride, n, bump_first, bump_last,
                )
            };
            if !used_simd {
                unsafe {
                    solve_factored_lines8_scalar(
                        &a, &beta, &gamma, &slots, 0, stride, n, bump_first, bump_last,
                    )
                };
            }
        }
        for (w, g) in want.iter().zip(&field) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
    }
}
