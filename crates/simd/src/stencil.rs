//! Vectorized explicit diffusion stencil (one z-slice per call).
//!
//! Computes the forward-Euler update of `peb-litho`'s `explicit_step` for
//! a single z-slice: 5/6-point Laplacian with mirror (zero-flux)
//! boundaries in x/y, a bottom mirror in z, and an optional Robin
//! exchange term at the top surface (`z == 0`).
//!
//! The x-interior is processed eight cells per vector with unaligned
//! shifted loads; the two x-edge columns and the vector tail fall back to
//! a scalar path with the identical expression. Every operation is an
//! IEEE-exact lane op in the scalar expression order (no FMA), so the
//! SIMD path is **bitwise identical** to the scalar path — and to the
//! pre-SIMD `explicit_step` loop.

use crate::{simd_active, ScalarX8, Simd8};

/// Parameters of one slice update, shared by all cells.
#[derive(Debug, Clone, Copy)]
pub struct StencilParams {
    /// `D_lateral·dt/dx²`.
    pub rx: f32,
    /// `D_lateral·dt/dy²`.
    pub ry: f32,
    /// `D_normal·dt/dz²`.
    pub rz: f32,
    /// Robin top-surface exchange `(h·dt/dz, saturation)`, if any.
    pub robin_top: Option<(f32, f32)>,
}

/// Applies one explicit Euler step to z-slice `z`.
///
/// `src` is the frozen full `[nz, ny, nx]` field; `dst` is the slice's
/// `ny·nx` output block.
#[allow(clippy::too_many_arguments)]
pub fn explicit_slice(
    src: &[f32],
    dst: &mut [f32],
    z: usize,
    nz: usize,
    ny: usize,
    nx: usize,
    p: StencilParams,
) {
    debug_assert_eq!(src.len(), nz * ny * nx);
    debug_assert_eq!(dst.len(), ny * nx);
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        crate::note_dispatch();
        // SAFETY: `simd_active()` implies AVX2+FMA were detected.
        unsafe { explicit_slice_avx2(src, dst, z, nz, ny, nx, p) };
        return;
    }
    explicit_slice_generic::<ScalarX8>(src, dst, z, nz, ny, nx, p)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn explicit_slice_avx2(
    src: &[f32],
    dst: &mut [f32],
    z: usize,
    nz: usize,
    ny: usize,
    nx: usize,
    p: StencilParams,
) {
    explicit_slice_generic::<crate::AvxX8>(src, dst, z, nz, ny, nx, p)
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn explicit_slice_generic<V: Simd8>(
    src: &[f32],
    dst: &mut [f32],
    z: usize,
    nz: usize,
    ny: usize,
    nx: usize,
    p: StencilParams,
) {
    let slice = ny * nx;
    let two = V::splat(2.0);
    let (rxv, ryv, rzv) = (V::splat(p.rx), V::splat(p.ry), V::splat(p.rz));
    let robin = p
        .robin_top
        .map(|(coeff, sat)| (V::splat(coeff), V::splat(sat)));
    for y in 0..ny {
        let base = (z * ny + y) * nx;
        // Mirror boundaries read the centre row/slice itself.
        let ym_base = if y == 0 { base } else { base - nx };
        let yp_base = if y + 1 == ny { base } else { base + nx };
        let zp_base = if z + 1 == nz { base } else { base + slice };
        let zm_base = if z == 0 { base } else { base - slice }; // unused at z == 0
        let out = &mut dst[y * nx..(y + 1) * nx];

        // Scalar cell with the exact reference expression.
        let scalar_cell = |x: usize, out: &mut [f32]| {
            let c = src[base + x];
            let xm = if x == 0 { c } else { src[base + x - 1] };
            let xp = if x + 1 == nx { c } else { src[base + x + 1] };
            let ym = src[ym_base + x];
            let yp = src[yp_base + x];
            let zp = src[zp_base + x];
            let mut acc = p.rx * (xm + xp - 2.0 * c) + p.ry * (ym + yp - 2.0 * c);
            if z == 0 {
                acc += p.rz * (zp - c);
                if let Some((coeff, sat)) = p.robin_top {
                    acc -= coeff * (c - sat);
                }
            } else {
                let zm = src[zm_base + x];
                acc += p.rz * (zm + zp - 2.0 * c);
            }
            out[x] = c + acc;
        };

        scalar_cell(0, out);
        // Vector interior: x ∈ [1, nx−1) in groups of 8 (both shifted
        // loads stay in bounds).
        let mut x = 1usize;
        while x + 8 < nx {
            let c = V::load(&src[base + x..]);
            let xm = V::load(&src[base + x - 1..]);
            let xp = V::load(&src[base + x + 1..]);
            let ym = V::load(&src[ym_base + x..]);
            let yp = V::load(&src[yp_base + x..]);
            let zp = V::load(&src[zp_base + x..]);
            let mut acc = rxv
                .mul(xm.add(xp).sub(two.mul(c)))
                .add(ryv.mul(ym.add(yp).sub(two.mul(c))));
            if z == 0 {
                acc = acc.add(rzv.mul(zp.sub(c)));
                if let Some((coeff, sat)) = robin {
                    acc = acc.sub(coeff.mul(c.sub(sat)));
                }
            } else {
                let zm = V::load(&src[zm_base + x..]);
                acc = acc.add(rzv.mul(zm.add(zp).sub(two.mul(c))));
            }
            c.add(acc).store(&mut out[x..]);
            x += 8;
        }
        for xt in x..nx {
            scalar_cell(xt, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{at_level, levels};

    fn pseudo(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x as f32 / u32::MAX as f32) * 0.9
            })
            .collect()
    }

    /// The original peb-litho explicit_step inner loop for one slice.
    fn reference(
        src: &[f32],
        dst: &mut [f32],
        z: usize,
        nz: usize,
        ny: usize,
        nx: usize,
        p: StencilParams,
    ) {
        let at = |zz: usize, y: usize, x: usize| (zz * ny + y) * nx + x;
        for y in 0..ny {
            for x in 0..nx {
                let c = src[at(z, y, x)];
                let xm = if x == 0 { c } else { src[at(z, y, x - 1)] };
                let xp = if x + 1 == nx { c } else { src[at(z, y, x + 1)] };
                let ym = if y == 0 { c } else { src[at(z, y - 1, x)] };
                let yp = if y + 1 == ny { c } else { src[at(z, y + 1, x)] };
                let zp = if z + 1 == nz { c } else { src[at(z + 1, y, x)] };
                let mut acc = p.rx * (xm + xp - 2.0 * c) + p.ry * (ym + yp - 2.0 * c);
                if z == 0 {
                    acc += p.rz * (zp - c);
                    if let Some((coeff, sat)) = p.robin_top {
                        acc -= coeff * (c - sat);
                    }
                } else {
                    let zm = src[at(z - 1, y, x)];
                    acc += p.rz * (zm + zp - 2.0 * c);
                }
                dst[y * nx + x] = c + acc;
            }
        }
    }

    #[test]
    fn both_backends_match_reference_bitwise() {
        let (nz, ny, nx) = (4usize, 5usize, 19usize);
        let src = pseudo(nz * ny * nx, 7);
        let p = StencilParams {
            rx: 0.11,
            ry: 0.13,
            rz: 0.17,
            robin_top: Some((0.021, 0.9)),
        };
        for z in 0..nz {
            let mut want = vec![0f32; ny * nx];
            reference(&src, &mut want, z, nz, ny, nx, p);
            for level in levels() {
                let mut got = vec![0f32; ny * nx];
                at_level(level, || explicit_slice(&src, &mut got, z, nz, ny, nx, p));
                for (w, g) in want.iter().zip(&got) {
                    assert_eq!(w.to_bits(), g.to_bits(), "{} z={z}", level.name());
                }
            }
        }
    }
}
