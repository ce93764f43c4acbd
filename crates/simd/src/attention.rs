//! Fused attention core: `softmax(q·kᵀ·scale)·v` for every head of one
//! depth plane, without writing the score matrix out.
//!
//! A lane group is eight query rows (lane `l` = row `r0 + l`), so a
//! row's scores, their maximum, the exponentials, the normalising sum
//! and the context all stay in one lane: per head and per block of eight
//! rows, the `keys` score vectors (2 KiB at 64 keys) live in an L1
//! scratch buffer, and only the head's `dh` context columns of the
//! `[rows, width]` output are stored. The head's keys are transposed
//! once per head, so each score step broadcasts from one contiguous
//! row. Rows past the end of the plane are zero-padded lanes and are
//! never stored.
//!
//! # Exact-class
//!
//! Per row the kernel replays the composition it replaced — two packed
//! GEMMs (`peb_simd::gemm`), a `× scale` pass and a softmax line — in
//! the same order, operation for operation:
//!
//! 1. `s_j = 0 + Σ_k q_k·K[j][k]`: one `mul_add` chain in ascending `k`
//!    per [`KC`] block, each block added to the running value (the
//!    GEMM's write-back onto a zeroed output);
//! 2. `s_j × scale`;
//! 3. the row maximum by the `v > a` rule (`Simd8::max`);
//! 4. `e_j = exp(s_j + (−m))` with the backend's `Simd8::exp`, as the
//!    softmax's `[+(−m), exp]` chain;
//! 5. `Σ_j e_j` in `f64`, ascending `j` (`Simd8::widen_add`);
//! 6. `p_j = e_j × (1 / Σ as f32)`;
//! 7. `ctx_c = 0 + Σ_j p_j·V[j][c]`: one `mul_add` chain in ascending `j`
//!    per [`KC`] block, as step 1.
//!
//! The result is therefore **bitwise identical** to the composition at
//! each dispatch level (which itself is tolerance-class across levels:
//! fused multiply–adds and the polynomial `exp` on AVX2+FMA), and a row's
//! bits depend neither on its lane nor on the rows it shares a group
//! with.

use peb_pool::PoolBuf;

use crate::gemm::KC;
use crate::Simd8;

/// Geometry of one plane's [`attention`] call.
#[derive(Debug, Clone, Copy)]
pub struct Heads {
    /// Query rows `P`: the rows of `q` and of the output.
    pub rows: usize,
    /// Key rows `pr`: the rows of `k` and `v`.
    pub keys: usize,
    /// Row width `C` of every operand; head `h` owns columns
    /// `h·dh..(h + 1)·dh`.
    pub width: usize,
    /// Head count; divides `width`.
    pub heads: usize,
}

impl Heads {
    /// Columns per head, `dh = width / heads`.
    pub fn head_dim(&self) -> usize {
        self.width / self.heads
    }

    /// The score scale `1/√dh`.
    pub fn scale(&self) -> f32 {
        1.0 / (self.head_dim() as f32).sqrt()
    }
}

dispatched! {
    /// `out[:, head h] = softmax(q_h·k_hᵀ·scale)·v_h` for every head of one
    /// plane. `q` and `out` are `[rows, width]`, `k` and `v` are
    /// `[keys, width]`, row-major. With `probs` (`[heads, rows, keys]`) the
    /// normalised scores are stored too — what a backward pass needs.
    ///
    /// # Panics
    ///
    /// Panics if `heads` does not divide `width`, or a slice length
    /// disagrees with the geometry.
    pub fn attention<V>(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        out: &mut [f32],
        probs: Option<&mut [f32]>,
        g: Heads,
    ) {
        assert!(
            g.heads > 0 && g.width.is_multiple_of(g.heads),
            "attention: {} heads do not divide width {}",
            g.heads,
            g.width
        );
        assert_eq!(q.len(), g.rows * g.width, "attention query length");
        assert_eq!(out.len(), g.rows * g.width, "attention output length");
        assert_eq!(k.len(), g.keys * g.width, "attention key length");
        assert_eq!(v.len(), g.keys * g.width, "attention value length");
        if let Some(p) = &probs {
            assert_eq!(p.len(), g.heads * g.rows * g.keys, "attention probs length");
        }
        let mut probs = probs;
        let (rows, keys, width, dh) = (g.rows, g.keys, g.width, g.head_dim());
        let scale = V::splat(g.scale());
        // The block's query vectors (`dh`), the head's keys transposed
        // (`kt[kk·keys + j] = k[j][col + kk]`), then the block's score /
        // probability vectors (`keys`).
        let mut scratch = PoolBuf::<f32>::zeroed((dh + keys) * 8 + dh * keys);
        let (qbuf, rest) = scratch.split_at_mut(dh * 8);
        let (kt, pbuf) = rest.split_at_mut(dh * keys);
        for h in 0..g.heads {
            let col = h * dh;
            for (j, row) in k.chunks_exact(width).enumerate() {
                for (kk, &x) in row[col..col + dh].iter().enumerate() {
                    kt[kk * keys + j] = x;
                }
            }
            for r0 in (0..rows).step_by(8) {
                let live = 8.min(rows - r0);
                for (l, row) in q[r0 * width..].chunks(width).take(live).enumerate() {
                    for (kk, &x) in row[col..col + dh].iter().enumerate() {
                        qbuf[kk * 8 + l] = x;
                    }
                }
                if live < 8 {
                    for lanes in qbuf.chunks_exact_mut(8) {
                        lanes[live..].fill(0.0);
                    }
                }
                // Steps 1–3: scaled scores and the row maxima.
                let mut mx = V::splat(f32::NEG_INFINITY);
                let mut j = 0;
                while j < keys {
                    let w = if keys - j >= 8 {
                        scores::<V, 8>(qbuf, kt, j, scale, pbuf, &mut mx)
                    } else if keys - j >= 4 {
                        scores::<V, 4>(qbuf, kt, j, scale, pbuf, &mut mx)
                    } else {
                        scores::<V, 1>(qbuf, kt, j, scale, pbuf, &mut mx)
                    };
                    j += w;
                }
                // Steps 4–6: the softmax of each lane's row.
                let neg = mx.mul(V::splat(-1.0));
                let mut sum = V::wide_zero();
                for lanes in pbuf.chunks_exact_mut(8) {
                    let e = V::load(lanes).add(neg).exp();
                    e.store(lanes);
                    sum = e.widen_add(sum);
                }
                let inv = V::splat(1.0).div(V::narrow(sum));
                for lanes in pbuf.chunks_exact_mut(8) {
                    V::load(lanes).mul(inv).store(lanes);
                }
                if let Some(p) = probs.as_deref_mut() {
                    let block = &mut p[(h * rows + r0) * keys..][..live * keys];
                    for (jj, lanes) in pbuf.chunks_exact(8).enumerate() {
                        for (l, &x) in lanes[..live].iter().enumerate() {
                            block[l * keys + jj] = x;
                        }
                    }
                }
                // Step 7: the context, stored into the head's columns.
                let mut c = 0;
                while c < dh {
                    let w = if dh - c >= 8 {
                        context::<V, 8>(pbuf, v, width, col + c, out, r0, live)
                    } else if dh - c >= 4 {
                        context::<V, 4>(pbuf, v, width, col + c, out, r0, live)
                    } else {
                        context::<V, 1>(pbuf, v, width, col + c, out, r0, live)
                    };
                    c += w;
                }
            }
        }
    }
}

/// Scores of keys `j0..j0 + W` for the block's query lanes, scaled,
/// stored into `pbuf` and folded into the lane maxima `mx`. `kt` is the
/// head's keys transposed, `[dh, keys]`. Returns `W`.
#[inline(always)]
fn scores<V: Simd8, const W: usize>(
    qbuf: &[f32],
    kt: &[f32],
    j0: usize,
    scale: V,
    pbuf: &mut [f32],
    mx: &mut V,
) -> usize {
    let (dh, keys) = (qbuf.len() / 8, pbuf.len() / 8);
    let mut s = [V::zero(); W];
    for kc in (0..dh).step_by(KC) {
        let mut acc = [V::zero(); W];
        for kk in kc..dh.min(kc + KC) {
            let qk = V::load(&qbuf[kk * 8..kk * 8 + 8]);
            let krow = &kt[kk * keys + j0..][..W];
            for (a, &x) in acc.iter_mut().zip(krow) {
                *a = qk.mul_add(V::splat(x), *a);
            }
        }
        for (sv, a) in s.iter_mut().zip(acc) {
            *sv = sv.add(a);
        }
    }
    for (t, sv) in s.into_iter().enumerate() {
        let sv = sv.mul(scale);
        let at = (j0 + t) * 8;
        sv.store(&mut pbuf[at..at + 8]);
        *mx = sv.max(*mx);
    }
    W
}

/// Context columns `c0..c0 + W` of the block's rows: `Σ_j p_j·v[j][c]`,
/// stored into the `live` rows of `out` from `r0`. Returns `W`.
#[inline(always)]
fn context<V: Simd8, const W: usize>(
    pbuf: &[f32],
    v: &[f32],
    width: usize,
    c0: usize,
    out: &mut [f32],
    r0: usize,
    live: usize,
) -> usize {
    let keys = pbuf.len() / 8;
    let mut o = [V::zero(); W];
    for jc in (0..keys).step_by(KC) {
        let mut acc = [V::zero(); W];
        for j in jc..keys.min(jc + KC) {
            let pj = V::load(&pbuf[j * 8..j * 8 + 8]);
            let vrow = &v[j * width + c0..][..W];
            for (a, &x) in acc.iter_mut().zip(vrow) {
                *a = pj.mul_add(V::splat(x), *a);
            }
        }
        for (ov, a) in o.iter_mut().zip(acc) {
            *ov = ov.add(a);
        }
    }
    for (t, ov) in o.into_iter().enumerate() {
        for (l, x) in ov.to_array().into_iter().take(live).enumerate() {
            out[(r0 + l) * width + c0 + t] = x;
        }
    }
    W
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elementwise::sum_f64_scalar;
    use crate::fused::{vchain, Stage};
    use crate::gemm::{gemm, Bias};
    use peb_par::ctx::{at_level, levels};

    fn pseudo(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x as f32 / u32::MAX as f32) * 4.0 - 2.0
            })
            .collect()
    }

    /// The composition the kernel replaces, per head: a GEMM into zeros,
    /// `× scale`, a softmax line per row (`v > a` maximum, the `[+(−m),
    /// exp]` chain, an ascending `f64` sum, `× 1/Σ`) and a second GEMM.
    fn composed(q: &[f32], k: &[f32], v: &[f32], g: Heads) -> (Vec<f32>, Vec<f32>) {
        let (p, pr, c, dh) = (g.rows, g.keys, g.width, g.head_dim());
        let head = |x: &[f32], n: usize, h: usize| -> Vec<f32> {
            x.chunks(c)
                .take(n)
                .flat_map(|r| r[h * dh..(h + 1) * dh].to_vec())
                .collect()
        };
        let mut out = vec![0f32; p * c];
        let mut probs = Vec::new();
        for h in 0..g.heads {
            let (qh, kh, vh) = (head(q, p, h), head(k, pr, h), head(v, pr, h));
            let kt: Vec<f32> = (0..dh * pr).map(|i| kh[(i % pr) * dh + i / pr]).collect();
            let mut s = vec![0f32; p * pr];
            gemm(&qh, &kt, &mut s, p, dh, pr, Bias::None);
            let scaled = s.clone();
            vchain(&scaled, &[Stage::MulScalar(g.scale())], &mut s);
            for row in s.chunks_mut(pr) {
                let m = row
                    .iter()
                    .fold(f32::NEG_INFINITY, |a, &x| if x > a { x } else { a });
                let src = row.to_vec();
                vchain(&src, &[Stage::AddScalar(-m), Stage::Exp], row);
                let zi = 1.0 / sum_f64_scalar(row) as f32;
                row.iter_mut().for_each(|x| *x *= zi);
            }
            let mut ctx = vec![0f32; p * dh];
            gemm(&s, &vh, &mut ctx, p, pr, dh, Bias::None);
            for (i, r) in ctx.chunks(dh).enumerate() {
                out[i * c + h * dh..][..dh].copy_from_slice(r);
            }
            probs.extend(s);
        }
        (out, probs)
    }

    #[test]
    fn kernel_is_the_composition_bitwise_at_every_level() {
        // Ragged row blocks, key counts on and off the 8/4/1 widths, head
        // widths on and off them, keys and head widths past one KC block.
        for (rows, keys, width, heads) in [
            (1, 1, 9, 1),
            (7, 5, 12, 2),
            (33, 64, 36, 4),
            (17, 300, 8, 1),
            (9, 3, 260, 1),
        ] {
            let g = Heads {
                rows,
                keys,
                width,
                heads,
            };
            let q = pseudo(rows * width, 1);
            let k = pseudo(keys * width, 2);
            let v = pseudo(keys * width, 3);
            for level in levels() {
                let (want, want_p) = at_level(level, || composed(&q, &k, &v, g));
                let mut out = vec![f32::NAN; rows * width];
                let mut probs = vec![f32::NAN; heads * rows * keys];
                at_level(level, || {
                    attention(&q, &k, &v, &mut out, Some(&mut probs), g)
                });
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&want), "{g:?} {level:?}");
                assert_eq!(bits(&probs), bits(&want_p), "{g:?} {level:?} probs");
            }
        }
    }
}
