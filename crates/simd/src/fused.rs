//! Elementwise chains: the one dense elementwise kernel, k stages applied
//! per register block in one memory sweep.
//!
//! A [`Stage`] list describes `acc = stage_k(… stage_1(x) …)`. [`vchain`]
//! streams the input once, applying every stage while the block is
//! still in registers, instead of writing k−1 intermediate tensors back
//! through memory. A one-stage chain is how the eager tensor ops
//! (`add_t`, `mul_scalar`, `exp`, `sigmoid`, …) run, so every
//! elementwise op has one lane implementation per dispatch level.
//!
//! The interpreter matches on each stage once per group of four 8-lane
//! vectors (32 lanes), each arm looping over the four. A remainder of
//! fewer than 32 elements runs through the same function on zero-padded
//! copies of the input and of each operand; only its live lanes are
//! stored.
//!
//! # Determinism contract
//!
//! Every stage is a per-element pure function. The exact stages
//! (`+ − × ÷ √`, scalar affine, negate-via-sign) are IEEE operations in
//! the scalar expression order (`LeakyRelu` is a lane select over one
//! exact multiply), so every backend agrees bit for bit. `Exp`,
//! `Sigmoid` and `Softplus` use the backend's `Simd8::exp` (and
//! `Simd8::ln1p`): libm at the scalar level, the polynomial lanes at
//! AVX2+FMA, a few ULP apart. An element's value depends neither on its
//! neighbours nor on its lane, so applying k stages to one block before
//! moving on is the same arithmetic, in the same order, as k one-stage
//! sweeps: a chain's output is **bitwise identical** to its stages run
//! one at a time, per dispatch level. Dead padding lanes may compute
//! garbage (e.g. `0 ÷ 0`); they are never stored.

use std::ops::Range;

use crate::Simd8;

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
    /// `exp(acc)` — the backend exp (tolerance-class on SIMD).
    Exp,
    /// Stable logistic sigmoid: `x ≥ 0: 1 / (1 + exp(−x))`,
    /// `x < 0: e / (1 + e)` with `e = exp(x)`.
    Sigmoid,
    /// Softplus `acc > 20 ? acc : ln(1 + exp(acc))` (tolerance-class on
    /// SIMD; the scalar level is that expression in libm, bit for bit).
    Softplus,
    /// `−acc` (implemented as `acc × −1`, IEEE-exact sign flip).
    Neg,
    /// `if acc ≥ 0 { acc } else { slope × acc }` — exact-class: one IEEE
    /// multiply behind a lane select, so every backend agrees bit for
    /// bit on every finite input (for `slope ≥ 0` also on `−0.0`, which
    /// stays `−0.0` on either side of the select).
    ///
    /// `slope == 0` is ReLU proper, `max(acc, +0.0)` through
    /// `Simd8::max`: `−0.0`, `−∞` and NaN all give `+0.0`, as
    /// `x.max(0.0)` does (the product form would turn `−∞` into NaN).
    LeakyRelu(f32),
}

impl<'a> Stage<'a> {
    /// Stable stage descriptor, used by the `peb_obs::optrace` op list
    /// to describe a fused chain.
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
            Stage::Softplus => "softplus",
            Stage::Neg => "neg",
            Stage::LeakyRelu(_) => "leaky_relu",
        }
    }

    /// This stage over elements `range` of the chain: a binary stage's
    /// operand is sliced to `range`, any other stage is itself. Running
    /// the windowed stages over `x[range]` gives `out[range]` of the
    /// whole chain, bit for bit (every stage is per-element).
    ///
    /// # Panics
    ///
    /// Panics if `range` leaves a binary stage's operand.
    pub fn window(self, range: Range<usize>) -> Stage<'a> {
        match self {
            Stage::AddT(b) => Stage::AddT(&b[range]),
            Stage::SubT(b) => Stage::SubT(&b[range]),
            Stage::MulT(b) => Stage::MulT(&b[range]),
            Stage::DivT(b) => Stage::DivT(&b[range]),
            other => other,
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

/// 8-lane vectors per stage dispatch.
const GROUP: usize = 4;
/// Elements per group: the interpreter's unit of work, and the unit a
/// caller that splits a chain into windows aligns them to.
pub const LANES: usize = 8 * GROUP;

/// `$v[k] = $body` for each vector of the group, with `$x` bound to
/// `$v[k]` (and `$k` to `k`). A macro, not a closure: an out-of-line lane
/// body would call every AVX lane op as a function.
macro_rules! each {
    ($v:ident, |$x:ident| $body:expr) => {
        for lane in $v.iter_mut() {
            let $x = *lane;
            *lane = $body;
        }
    };
    ($v:ident, |$x:ident, $k:ident| $body:expr) => {
        for ($k, lane) in $v.iter_mut().enumerate() {
            let $x = *lane;
            *lane = $body;
        }
    };
}

/// Applies every stage to the group at element `at`, dispatching on each
/// stage once. `padded` marks the remainder group, whose input and
/// operands are read as zero-padded copies.
#[inline(always)]
fn apply_group<V: Simd8>(x: &[f32], stages: &[Stage<'_>], at: usize, padded: bool) -> [V; GROUP] {
    let mut v = group_at::<V>(x, at, padded);
    for st in stages {
        match *st {
            Stage::AddT(b) => {
                let b = group_at::<V>(b, at, padded);
                each!(v, |x, k| x.add(b[k]));
            }
            Stage::SubT(b) => {
                let b = group_at::<V>(b, at, padded);
                each!(v, |x, k| x.sub(b[k]));
            }
            Stage::MulT(b) => {
                let b = group_at::<V>(b, at, padded);
                each!(v, |x, k| x.mul(b[k]));
            }
            Stage::DivT(b) => {
                let b = group_at::<V>(b, at, padded);
                each!(v, |x, k| x.div(b[k]));
            }
            Stage::AddScalar(s) => {
                let s = V::splat(s);
                each!(v, |x| x.add(s));
            }
            Stage::MulScalar(s) => {
                let s = V::splat(s);
                each!(v, |x| x.mul(s));
            }
            Stage::SubFromScalar(s) => {
                let s = V::splat(s);
                each!(v, |x| s.sub(x));
            }
            Stage::Sqrt => each!(v, |x| x.sqrt()),
            Stage::Exp | Stage::Sigmoid | Stage::Softplus => {
                let stage = *st;
                each!(v, |x| exp_stage(stage, x));
            }
            Stage::Neg => {
                let m = V::splat(-1.0);
                each!(v, |x| x.mul(m));
            }
            Stage::LeakyRelu(slope) => {
                if slope == 0.0 {
                    each!(v, |x| x.max(V::zero()));
                } else {
                    let s = V::splat(slope);
                    each!(v, |x| x.select_nonneg(x, x.mul(s)));
                }
            }
        }
    }
    v
}

/// `Exp`, `Sigmoid` or `Softplus` of one vector, through one `exp` call
/// site. With one inlined copy of the polynomial per stage, the AVX2
/// interpreter runs out of its 16 vector registers and keeps a group
/// vector on the stack in every arm, which made a one-stage `add` ≈ 1.5×
/// slower on L2-resident data; one copy does not.
///
/// * Sigmoid is the stable two-branch form, resolved lanewise:
///   `x ≥ 0: 1 / (1 + exp(−x))`, `x < 0: e / (1 + e)` with `e = exp(x)`.
///   Both branches share `e = exp(−|x|)` and one division.
/// * Softplus is `x > 20 ? x : ln(1 + exp(x))`. The branch is taken on
///   the sign of `x − 20⁺` (20⁺ the float after 20), so `x = 20` takes
///   the `ln1p` lane, and on the scalar backend so does NaN, as the
///   scalar `if x > 20.0` does.
#[inline(always)]
fn exp_stage<V: Simd8>(stage: Stage<'_>, x: V) -> V {
    const ABOVE_20: f32 = f32::from_bits(20f32.to_bits() + 1);
    let arg = match stage {
        Stage::Sigmoid => x.select_nonneg(V::zero().sub(x), x),
        _ => x,
    };
    let e = arg.exp();
    match stage {
        Stage::Sigmoid => {
            let one = V::splat(1.0);
            x.select_nonneg(one, e).div(one.add(e))
        }
        Stage::Softplus => x.sub(V::splat(ABOVE_20)).select_nonneg(x, e.ln1p()),
        // `Stage::Exp`.
        _ => e,
    }
}

/// The group of `src` at element `at`, zero-padded if `padded`. A plain
/// function, not a closure: a closure body is not compiled with the
/// wrapper's target features, so its loads would not inline.
#[inline(always)]
fn group_at<V: Simd8>(src: &[f32], at: usize, padded: bool) -> [V; GROUP] {
    if padded {
        pad_group(&src[at..])
    } else {
        load_group(&src[at..])
    }
}

/// The group at `src[..LANES]`.
#[inline(always)]
fn load_group<V: Simd8>(src: &[f32]) -> [V; GROUP] {
    // One bounds check for the group instead of one per vector.
    let src = &src[..LANES];
    [
        V::load(src),
        V::load(&src[8..]),
        V::load(&src[16..]),
        V::load(&src[24..]),
    ]
}

/// `src` (shorter than a group) zero-padded to one group.
#[inline(always)]
fn pad_group<V: Simd8>(src: &[f32]) -> [V; GROUP] {
    let mut p = [0f32; LANES];
    p[..src.len()].copy_from_slice(src);
    load_group(&p)
}

/// Stores a group into `dst[..LANES]`.
#[inline(always)]
fn store_group<V: Simd8>(v: [V; GROUP], dst: &mut [f32]) {
    let dst = &mut dst[..LANES];
    for (k, lanes) in v.into_iter().enumerate() {
        lanes.store(&mut dst[8 * k..]);
    }
}

dispatched! {
    /// Applies an elementwise chain: `out[i] = stages(x[i])`, streaming the
    /// input in one sweep at the current dispatch level.
    pub fn vchain<V>(x: &[f32], stages: &[Stage<'_>], out: &mut [f32]) {
        let n = x.len();
        assert_eq!(n, out.len(), "fused chain: output length mismatch");
        for st in stages {
            if let Some(b) = st.operand() {
                assert_eq!(b.len(), n, "fused chain: operand length mismatch");
            }
        }
        let whole = n - n % LANES;
        let mut i = 0;
        while i < whole {
            let r = apply_group::<V>(x, stages, i, false);
            store_group(r, &mut out[i..]);
            i += LANES;
        }
        if i < n {
            let r = apply_group::<V>(x, stages, i, true);
            let mut live = [0f32; LANES];
            store_group(r, &mut live);
            out[i..].copy_from_slice(&live[..n - i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Level;
    use peb_par::ctx::{at_level, levels};

    fn pseudo(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x as f32 / u32::MAX as f32) * 8.0 - 4.0
            })
            .collect()
    }

    /// Reference: the same stages as k one-stage sweeps at the calling
    /// thread's level.
    fn sweeps(x: &[f32], stages: &[Stage<'_>]) -> Vec<f32> {
        let mut cur = x.to_vec();
        for st in stages {
            let mut nxt = vec![0f32; x.len()];
            vchain(&cur, &[*st], &mut nxt);
            cur = nxt;
        }
        cur
    }

    /// A stage's per-element definition in plain f32 arithmetic and
    /// libm: what the scalar level computes, bit for bit.
    fn definition(st: Stage<'_>, v: f32, i: usize) -> f32 {
        match st {
            Stage::AddT(b) => v + b[i],
            Stage::SubT(b) => v - b[i],
            Stage::MulT(b) => v * b[i],
            Stage::DivT(b) => v / b[i],
            Stage::AddScalar(s) => v + s,
            Stage::MulScalar(s) => v * s,
            Stage::SubFromScalar(s) => s - v,
            Stage::Sqrt => v.sqrt(),
            Stage::Exp => v.exp(),
            Stage::Sigmoid if v >= 0.0 => 1.0 / (1.0 + (-v).exp()),
            Stage::Sigmoid => v.exp() / (1.0 + v.exp()),
            Stage::Softplus if v > 20.0 => v,
            Stage::Softplus => v.exp().ln_1p(),
            Stage::Neg => -v,
            Stage::LeakyRelu(0.0) => {
                if v > 0.0 {
                    v
                } else {
                    0.0
                }
            }
            Stage::LeakyRelu(_) if v >= 0.0 => v,
            Stage::LeakyRelu(slope) => slope * v,
        }
    }

    const LENGTHS: [usize; 13] = [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 101, 1027];

    #[test]
    fn fused_matches_unfused_bitwise_both_backends() {
        for len in LENGTHS {
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
                vec![Stage::MulScalar(8.0), Stage::Softplus, Stage::MulT(&c)],
            ];
            for stages in &chains {
                for level in levels() {
                    let mut got = vec![0f32; len];
                    let want = at_level(level, || {
                        vchain(&x, stages, &mut got);
                        sweeps(&x, stages)
                    });
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.to_bits(), w.to_bits(), "{} len {len}", level.name());
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_level_stages_are_their_plain_definitions_bitwise() {
        for len in LENGTHS {
            // Both signs, the zeros of either sign, and both sides of
            // softplus's x > 20 switch.
            let mut x: Vec<f32> = pseudo(len, 4).iter().map(|v| v * 6.0).collect();
            for (i, v) in x.iter_mut().enumerate() {
                match i % 9 {
                    2 => *v = 0.0,
                    5 => *v = -0.0,
                    7 => *v = 20.0,
                    _ => {}
                }
            }
            let b: Vec<f32> = pseudo(len, 5).iter().map(|v| v.abs() + 0.5).collect();
            let stages = [
                Stage::AddT(&b),
                Stage::SubT(&b),
                Stage::MulT(&b),
                Stage::DivT(&b),
                Stage::AddScalar(-1.25),
                Stage::MulScalar(0.37),
                Stage::SubFromScalar(2.0),
                Stage::Exp,
                Stage::Sigmoid,
                Stage::Softplus,
                Stage::Neg,
                Stage::LeakyRelu(0.01),
                Stage::LeakyRelu(0.0),
            ];
            let absx: Vec<f32> = x.iter().map(|v| v.abs()).collect();
            let cases = stages
                .iter()
                .map(|st| (*st, &x))
                .chain([(Stage::Sqrt, &absx)]);
            for (st, input) in cases {
                let mut got = vec![0f32; len];
                at_level(Level::Scalar, || vchain(input, &[st], &mut got));
                for (i, (g, v)) in got.iter().zip(input.iter()).enumerate() {
                    let want = definition(st, *v, i);
                    assert_eq!(g.to_bits(), want.to_bits(), "{}({v}) len {len}", st.name());
                }
            }
        }
    }

    #[test]
    fn windowed_stages_give_the_window_of_the_whole_chain() {
        let len = 1000;
        let x = pseudo(len, 6);
        let b: Vec<f32> = pseudo(len, 7).iter().map(|v| v.abs() + 0.5).collect();
        let c = pseudo(len, 8);
        let stages = [
            Stage::AddT(&c),
            Stage::DivT(&b),
            Stage::Exp,
            Stage::MulT(&c),
        ];
        for level in levels() {
            let mut whole = vec![0f32; len];
            at_level(level, || vchain(&x, &stages, &mut whole));
            let mut parts = vec![f32::NAN; len];
            for r in [0..32, 32..45, 45..512, 512..len] {
                let windowed: Vec<Stage<'_>> = stages.iter().map(|s| s.window(r.clone())).collect();
                at_level(level, || vchain(&x[r.clone()], &windowed, &mut parts[r]));
            }
            for (w, p) in whole.iter().zip(&parts) {
                assert_eq!(w.to_bits(), p.to_bits(), "{}", level.name());
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
