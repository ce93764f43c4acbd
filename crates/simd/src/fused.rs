//! Fused elementwise chains: k stages applied per 8-lane block in one
//! memory sweep.
//!
//! A [`Stage`] list describes `acc = stage_k(… stage_1(x) …)` where each
//! stage is one of the elementwise kernels from
//! [`crate::elementwise`]. [`vchain`] streams the input once, applying
//! every stage while the block is still in registers, instead of writing
//! k−1 intermediate tensors back through memory.
//!
//! # Determinism contract
//!
//! Every stage is a per-element pure function using **exactly the lane
//! math of the corresponding unfused kernel** at the same dispatch
//! level: the exact stages (`+ − × ÷ √`, scalar affine, negate-via-sign)
//! are IEEE operations in the scalar expression order (`LeakyRelu` is a
//! lane select over one exact multiply), and `Exp` /
//! `Sigmoid` use the identical [`Simd8::exp`]-based formulation as
//! `vexp` / `vsigmoid`, including the padded-lane tail. Because an
//! element's value never depends on its neighbours, applying k stages to
//! one block before moving on is the same arithmetic, in the same
//! order, as k full-tensor sweeps — fused output is **bitwise
//! identical** to the unfused chain per dispatch level. Dead tail lanes
//! may compute garbage (e.g. `÷0`); they are never stored.

use crate::{simd_active, ScalarX8, Simd8};

/// One stage of a fused elementwise chain, applied to the running value.
///
/// Binary stages borrow the second operand, which must have the same
/// length as the chain input.
#[derive(Clone, Copy, Debug)]
pub enum Stage<'a> {
    /// `acc + b`
    AddT(&'a [f32]),
    /// `acc − b`
    SubT(&'a [f32]),
    /// `acc × b`
    MulT(&'a [f32]),
    /// `acc ÷ b`
    DivT(&'a [f32]),
    /// `acc + s`
    AddScalar(f32),
    /// `acc × s`
    MulScalar(f32),
    /// `s − acc`
    SubFromScalar(f32),
    /// `√acc`
    Sqrt,
    /// `exp(acc)` — same backend exp as `vexp` (tolerance-class on SIMD).
    Exp,
    /// Stable logistic sigmoid — same formulation as `vsigmoid`.
    Sigmoid,
    /// `−acc` (implemented as `acc × −1`, IEEE-exact sign flip).
    Neg,
    /// `if acc ≥ 0 { acc } else { slope × acc }` — exact-class: one IEEE
    /// multiply behind a lane select, so every backend agrees bit for
    /// bit on every finite input (for `slope ≥ 0` also on `−0.0`, which
    /// stays `−0.0` on either side of the select).
    ///
    /// `slope == 0` is ReLU proper, `max(acc, +0.0)` through
    /// [`Simd8::max`]: `−0.0`, `−∞` and NaN all give `+0.0`, as
    /// `x.max(0.0)` does (the product form would turn `−∞` into NaN).
    LeakyRelu(f32),
}

impl Stage<'_> {
    /// Stable stage descriptor, used by the op-trace capture in
    /// `peb-plan` recordings to describe a fused chain.
    pub fn name(&self) -> &'static str {
        match *self {
            Stage::AddT(_) => "add_t",
            Stage::SubT(_) => "sub_t",
            Stage::MulT(_) => "mul_t",
            Stage::DivT(_) => "div_t",
            Stage::AddScalar(_) => "add_scalar",
            Stage::MulScalar(_) => "mul_scalar",
            Stage::SubFromScalar(_) => "sub_from_scalar",
            Stage::Sqrt => "sqrt",
            Stage::Exp => "exp",
            Stage::Sigmoid => "sigmoid",
            Stage::Neg => "neg",
            Stage::LeakyRelu(_) => "leaky_relu",
        }
    }

    /// The borrowed operand, if this is a binary stage.
    fn operand(&self) -> Option<&[f32]> {
        match *self {
            Stage::AddT(b) | Stage::SubT(b) | Stage::MulT(b) | Stage::DivT(b) => Some(b),
            _ => None,
        }
    }
}

/// Applies every stage to one 8-lane block. `load` fetches a binary
/// operand's block (full loads in the body, padded loads in the tail).
#[inline(always)]
fn apply_block<V: Simd8>(mut v: V, stages: &[Stage<'_>], load: impl Fn(&[f32]) -> V) -> V {
    for st in stages {
        v = match *st {
            Stage::AddT(b) => v.add(load(b)),
            Stage::SubT(b) => v.sub(load(b)),
            Stage::MulT(b) => v.mul(load(b)),
            Stage::DivT(b) => v.div(load(b)),
            Stage::AddScalar(s) => v.add(V::splat(s)),
            Stage::MulScalar(s) => v.mul(V::splat(s)),
            Stage::SubFromScalar(s) => V::splat(s).sub(v),
            Stage::Sqrt => v.sqrt(),
            Stage::Exp => v.exp(),
            Stage::Sigmoid => crate::elementwise::sigmoid8(v),
            Stage::Neg => v.mul(V::splat(-1.0)),
            Stage::LeakyRelu(slope) => {
                if slope == 0.0 {
                    v.max(V::zero())
                } else {
                    v.select_nonneg(v, v.mul(V::splat(slope)))
                }
            }
        };
    }
    v
}

#[inline(always)]
fn chain_generic<V: Simd8>(x: &[f32], stages: &[Stage<'_>], out: &mut [f32]) {
    let n = x.len();
    assert_eq!(n, out.len(), "fused chain: output length mismatch");
    for st in stages {
        if let Some(b) = st.operand() {
            assert_eq!(b.len(), n, "fused chain: operand length mismatch");
        }
    }
    let n8 = n - n % 8;
    let mut i = 0;
    while i < n8 {
        apply_block(V::load(&x[i..]), stages, |b: &[f32]| V::load(&b[i..])).store(&mut out[i..]);
        i += 8;
    }
    if i < n {
        // Padded-lane tail, matching the unfused `vexp`/`vsigmoid` tail
        // convention so every element sees one exp implementation per
        // backend. Exact stages are lanewise plain-f32 either way.
        let tail = n - i;
        let pad = |src: &[f32]| {
            let mut p = [0f32; 8];
            p[..tail].copy_from_slice(&src[i..]);
            V::from_array(p)
        };
        let r = apply_block(pad(x), stages, |b: &[f32]| pad(b)).to_array();
        out[i..].copy_from_slice(&r[..tail]);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx {
    use super::*;
    use crate::AvxX8;

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn vchain(x: &[f32], stages: &[Stage<'_>], out: &mut [f32]) {
        chain_generic::<AvxX8>(x, stages, out)
    }
}

/// Applies a fused elementwise chain: `out[i] = stages(x[i])`, streaming
/// the input in one sweep at the current dispatch level.
pub fn vchain(x: &[f32], stages: &[Stage<'_>], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        crate::note_dispatch();
        // SAFETY: `simd_active()` implies AVX2+FMA were detected.
        unsafe { avx::vchain(x, stages, out) };
        return;
    }
    chain_generic::<ScalarX8>(x, stages, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{at_level, elementwise, levels};

    fn pseudo(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x as f32 / u32::MAX as f32) * 8.0 - 4.0
            })
            .collect()
    }

    /// Reference: run the same stages as separate unfused kernel sweeps
    /// at the calling thread's level.
    fn unfused(x: &[f32], stages: &[Stage<'_>]) -> Vec<f32> {
        let mut cur = x.to_vec();
        let mut nxt = vec![0f32; x.len()];
        for st in stages {
            match *st {
                Stage::AddT(b) => elementwise::vadd(&cur, b, &mut nxt),
                Stage::SubT(b) => elementwise::vsub(&cur, b, &mut nxt),
                Stage::MulT(b) => elementwise::vmul(&cur, b, &mut nxt),
                Stage::DivT(b) => elementwise::vdiv(&cur, b, &mut nxt),
                Stage::AddScalar(s) => {
                    for (o, &v) in nxt.iter_mut().zip(cur.iter()) {
                        *o = v + s;
                    }
                }
                Stage::MulScalar(s) => {
                    for (o, &v) in nxt.iter_mut().zip(cur.iter()) {
                        *o = v * s;
                    }
                }
                Stage::SubFromScalar(s) => {
                    for (o, &v) in nxt.iter_mut().zip(cur.iter()) {
                        *o = s - v;
                    }
                }
                Stage::Neg => {
                    for (o, &v) in nxt.iter_mut().zip(cur.iter()) {
                        *o = -v;
                    }
                }
                Stage::Sqrt => {
                    for (o, &v) in nxt.iter_mut().zip(cur.iter()) {
                        *o = v.sqrt();
                    }
                }
                Stage::LeakyRelu(slope) => {
                    for (o, &v) in nxt.iter_mut().zip(cur.iter()) {
                        *o = if slope == 0.0 {
                            if v > 0.0 {
                                v
                            } else {
                                0.0
                            }
                        } else if v >= 0.0 {
                            v
                        } else {
                            slope * v
                        };
                    }
                }
                Stage::Exp => elementwise::vexp(&cur, &mut nxt),
                Stage::Sigmoid => elementwise::vsigmoid(&cur, &mut nxt),
            }
            std::mem::swap(&mut cur, &mut nxt);
        }
        cur
    }

    #[test]
    fn fused_matches_unfused_bitwise_both_backends() {
        for len in [0usize, 1, 7, 8, 9, 64, 101] {
            let x = pseudo(len, 1);
            let b: Vec<f32> = pseudo(len, 2).iter().map(|v| v.abs() + 0.5).collect();
            let c = pseudo(len, 3);
            let chains: Vec<Vec<Stage<'_>>> = vec![
                vec![Stage::AddT(&b), Stage::MulT(&c), Stage::Sigmoid],
                vec![Stage::MulScalar(0.37), Stage::AddScalar(-1.25), Stage::Exp],
                vec![Stage::SubT(&c), Stage::DivT(&b), Stage::Neg],
                vec![Stage::SubFromScalar(2.0)],
                vec![Stage::MulT(&b), Stage::Sqrt],
                vec![
                    Stage::SubT(&c),
                    Stage::LeakyRelu(0.01),
                    Stage::AddScalar(0.0),
                ],
                vec![Stage::SubT(&c), Stage::LeakyRelu(0.0)],
            ];
            for stages in &chains {
                for level in levels() {
                    let mut got = vec![0f32; len];
                    let want = at_level(level, || {
                        vchain(&x, stages, &mut got);
                        unfused(&x, stages)
                    });
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.to_bits(), w.to_bits(), "{} len {len}", level.name());
                    }
                }
            }
        }
    }

    #[test]
    fn empty_chain_copies_input() {
        let x = pseudo(13, 9);
        let mut out = vec![0f32; 13];
        vchain(&x, &[], &mut out);
        assert_eq!(x, out);
    }
}
