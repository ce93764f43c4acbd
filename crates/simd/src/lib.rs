//! `peb-simd`: runtime-dispatched SIMD microkernels for the workspace hot
//! paths.
//!
//! Every kernel is written once, as a body generic over the crate's
//! private 8-lane trait `Simd8`, and reaches its backend through one
//! seam: the `dispatched!` macro below. For each entry it emits an
//! AVX2+FMA instantiation of the body (8-lane `f32` vectors, `std::arch`
//! intrinsics) under `#[target_feature(enable = "avx2,fma")]`, the branch
//! that enters it, and the portable scalar instantiation (the same 8-lane
//! groups in plain `f32`) for everything else: one macro, one
//! `target_feature`, one SAFETY argument. The lane types are private to
//! the crate, so no code outside it can execute an AVX instruction
//! without passing that branch. The one entry with a branch of its own is
//! [`elementwise::vsum_f64`], whose levels run different bodies by
//! contract (the scalar level sums in index order).
//!
//! The branch reads [`level`], a field of the calling thread's execution
//! context (`peb_par::ctx`):
//!
//! * `PEB_SIMD=off` (or `0` / `scalar`) makes the scalar path the
//!   process default;
//! * otherwise AVX2+FMA is used when `is_x86_feature_detected!` reports
//!   both features, and the scalar path everywhere else (including
//!   non-x86_64 targets).
//!
//! The level is the only backend selector: no kernel has a second,
//! per-backend entry point. A test that compares the backends calls the
//! one entry under `peb_par::ctx::at_level` for each of
//! `peb_par::ctx::levels()`.
//!
//! # Determinism contract
//!
//! For a **fixed dispatch level** every kernel is a pure function of its
//! inputs: results are bitwise identical across runs, across
//! `PEB_THREADS` settings, and across how callers group work into 8-lane
//! batches. Two classes of kernel relate to the scalar reference
//! differently:
//!
//! * **Bit-exact kernels** (tridiagonal line solves, the PEB reaction
//!   half-step, the depthwise 3-D conv's row sweeps, the exact stages of
//!   the elementwise chain in [`fused`], the LayerNorm row pass in
//!   [`norm`], Adam updates, the [`transpose`]) use only
//!   IEEE-exact lane operations (`+ − × ÷ √`, `max`/`min`, `floor`,
//!   integer-built `2ⁿ`) or pure data movement, in exactly the
//!   per-element expression order of the scalar code, so the SIMD path
//!   reproduces the scalar path **to the bit**.
//! * **Tolerance kernels** (GEMM and the dense 2-D convolutions of
//!   `conv::SubPixel`, which fuse multiply–add, and the
//!   selective-scan recurrence in both directions and the `exp` /
//!   `sigmoid` / `softplus` chain stages, which use the polynomial lane
//!   `exp` and `ln1p` instead of libm) differ from
//!   scalar by bounded ULPs; the property suite in `tests/` pins those
//!   bounds. The fused attention core in [`attention`] is the GEMM →
//!   scale → softmax → GEMM composition replayed per query row in its
//!   own order: tolerance-class across levels like its parts, and
//!   bitwise equal to that composition at each level.
//!
//! Kernels whose lanes are rows ([`attention`], [`norm`]) accumulate
//! per-lane `f64` sums (`Simd8::widen_add`), so a row's bits do
//! not depend on the lane it rides in.
//!
//! The `simd_dispatch` counter in `peb-obs` ticks once per kernel call
//! that takes the vector path.

/// The dispatch seam: every kernel entry of the crate is one invocation.
///
/// ```text
/// dispatched! {
///     /// Docs of the entry.
///     pub fn name<V>(arg: Type, …) { /* body, generic over V: Simd8 */ }
/// }
/// ```
///
/// emits `pub fn name(arg: Type, …)`. Its body is instantiated at
/// [`AvxX8`] inside an `unsafe fn` with
/// `#[target_feature(enable = "avx2,fma")]`, which the entry enters when
/// [`simd_active`] holds (ticking `simd_dispatch` once), and at
/// [`ScalarX8`] otherwise. The `unsafe fn` form is for entries with a
/// safety contract: the body runs in the entry's unsafe context, so the
/// caller's contract reaches it unchanged. Arguments are plain
/// identifiers; a body that mutates one rebinds it.
///
/// The body is `#[inline(always)]`, and so must be every generic helper it
/// calls: a lane op that is not inlined into the `target_feature`
/// instantiation runs as an out-of-line call per operation, slower than
/// the scalar backend.
///
/// `rustfmt` leaves brace-delimited macro input alone: an invocation
/// renamed to `mod name {` formats like the module it then is.
macro_rules! dispatched {
    ($(#[$attr:meta])* $vis:vis fn $name:ident<$v:ident>($($arg:ident: $ty:ty),* $(,)?)
        $body:block) => {
        dispatched!(@emit [$(#[$attr])*] [$vis] [] $name $v ($($arg: $ty),*) $body);
    };
    ($(#[$attr:meta])* $vis:vis unsafe fn $name:ident<$v:ident>($($arg:ident: $ty:ty),* $(,)?)
        $body:block) => {
        dispatched!(@emit [$(#[$attr])*] [$vis] [unsafe] $name $v ($($arg: $ty),*) $body);
    };
    (@emit [$($attr:tt)*] [$vis:vis] [$($unsafe:tt)?] $name:ident $v:ident
        ($($arg:ident: $ty:ty),*) $body:block) => {
        $($attr)*
        #[allow(clippy::too_many_arguments)]
        $vis $($unsafe)? fn $name($($arg: $ty),*) {
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            $($unsafe)? fn body<$v: $crate::Simd8>($($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn avx($($arg: $ty),*) {
                body::<$crate::AvxX8>($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            if $crate::simd_active() {
                $crate::note_dispatch();
                // SAFETY: `simd_active()` means the calling thread's level
                // is `Level::Avx2Fma`, and no context holds that level on a
                // CPU without AVX2+FMA: the environment parser grants it
                // only where `detected()`, and `ctx::with` refuses it
                // elsewhere. So `avx`'s target features are present. An
                // `unsafe` entry's own contract is its caller's, forwarded
                // to the body unchanged.
                return unsafe { avx($($arg),*) };
            }
            body::<$crate::ScalarX8>($($arg),*)
        }
    };
}

pub mod attention;
pub mod conv;
pub mod elementwise;
pub mod fused;
pub mod gemm;
pub mod norm;
pub mod optim;
pub mod reaction;
pub mod scan;
pub mod thomas;
pub mod transpose;

// ---------------------------------------------------------------------------
// Dispatch level: a one-line read of the execution context
// ---------------------------------------------------------------------------

use peb_par::ctx;
pub use peb_par::ctx::{best_level, detected, Level};

/// Dispatch level of the calling thread's execution context.
#[inline]
pub fn level() -> Level {
    ctx::current().level
}

/// Whether kernels currently take the vector path.
#[inline]
pub(crate) fn simd_active() -> bool {
    level() == Level::Avx2Fma
}

/// Ticks the `simd_dispatch` counter; called by every kernel entry that
/// takes the vector path.
#[inline]
pub(crate) fn note_dispatch() {
    peb_obs::count(peb_obs::Counter::SimdDispatch, 1);
}

/// Vestige of the removed precision axis: compute is always f32.
/// `benchmark/src/env.rs` prints `peb_simd::prec().name()` in its
/// fingerprint and may not be edited; this enum, [`Prec::name`] and
/// [`prec`] exist only to keep it compiling and go when that field does.
#[derive(Debug, Clone, Copy)]
pub enum Prec {
    /// The only compute precision.
    F32,
}

impl Prec {
    /// `"f32"`.
    pub fn name(self) -> &'static str {
        "f32"
    }
}

/// Always [`Prec::F32`] (see [`Prec`]).
pub fn prec() -> Prec {
    Prec::F32
}

// ---------------------------------------------------------------------------
// ULP helper (shared by the property tests and benches)
// ---------------------------------------------------------------------------

/// Distance between two finite floats in units in the last place.
///
/// Maps each float onto the monotonic integer line (sign-magnitude →
/// two's-complement) and returns the absolute difference, saturating at
/// `u32::MAX` for NaN operands.
pub fn ulp_diff(a: f32, b: f32) -> u32 {
    if a.is_nan() || b.is_nan() {
        return u32::MAX;
    }
    fn key(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        // Fold negative floats below zero on the integer line.
        if bits < 0 {
            (i32::MIN as i64) - (bits as i64)
        } else {
            bits as i64
        }
    }
    (key(a) - key(b)).unsigned_abs().min(u32::MAX as u64) as u32
}

// ---------------------------------------------------------------------------
// The 8-lane abstraction
// ---------------------------------------------------------------------------

/// Eight `f32` lanes with the operations the workspace kernels need.
///
/// Implemented by [`ScalarX8`] (portable, libm `exp` / `ln_1p`, unfused
/// `mul_add`) and — on x86_64 — [`AvxX8`] (AVX2 vectors, fused
/// `mul_add`, polynomial `exp` / `ln1p`). Generic kernels written against
/// this trait are instantiated once per backend by [`dispatched!`].
pub(crate) trait Simd8: Copy {
    /// All lanes set to `v`.
    fn splat(v: f32) -> Self;
    /// All lanes zero.
    #[inline(always)]
    fn zero() -> Self {
        Self::splat(0.0)
    }
    /// Loads lanes from `src[0..8]`.
    fn load(src: &[f32]) -> Self;
    /// Stores lanes into `dst[0..8]`.
    fn store(self, dst: &mut [f32]);
    /// Loads lanes `0..lanes` from `src[0..lanes]` and zeros the rest
    /// (`lanes ≤ 8`), reading no element past `lanes`.
    fn load_lanes(src: &[f32], lanes: usize) -> Self;
    /// Stores lanes `0..lanes` into `dst[0..lanes]` (`lanes ≤ 8`), writing
    /// no element past `lanes`.
    fn store_lanes(self, dst: &mut [f32], lanes: usize);
    /// Lanewise `self + rhs`.
    fn add(self, rhs: Self) -> Self;
    /// Lanewise `self − rhs`.
    fn sub(self, rhs: Self) -> Self;
    /// Lanewise `self × rhs`.
    fn mul(self, rhs: Self) -> Self;
    /// Lanewise `self ÷ rhs`.
    fn div(self, rhs: Self) -> Self;
    /// Lanewise IEEE square root.
    fn sqrt(self) -> Self;
    /// Lanewise `self × m + a`; fused on the AVX backend, two rounded
    /// operations on the scalar backend.
    fn mul_add(self, m: Self, a: Self) -> Self;
    /// Lanewise natural exponential. Scalar backend: libm; AVX backend:
    /// Cephes-style polynomial, within a few ULP of libm.
    fn exp(self) -> Self;
    /// Lanewise `ln(1 + self)`. Scalar backend: libm `ln_1p`; AVX
    /// backend: Cephes-style `ln` of `u = 1 + self` plus the rounding
    /// correction `(self − (u − 1)) / u`, within a few ULP of libm on
    /// `(−1, +∞]`.
    fn ln1p(self) -> Self;
    /// Lanewise `if self >= 0 { if_nonneg } else { if_neg }`.
    fn select_nonneg(self, if_nonneg: Self, if_neg: Self) -> Self;
    /// Lanewise `if self > rhs { self } else { rhs }` (x86 `maxps`): a NaN
    /// in either operand, or two zeros of either sign, yield `rhs` — so
    /// `x.max(zero)` maps NaN and `−0.0` to `+0.0` on every backend.
    fn max(self, rhs: Self) -> Self;
    /// Lanewise `if self < rhs { self } else { rhs }` (x86 `minps`), with
    /// the same second-operand rule as `Simd8::max`.
    fn min(self, rhs: Self) -> Self;
    /// Lanewise round toward −∞ (IEEE-exact on every backend).
    fn floor(self) -> Self;
    /// Lanewise `2ⁿ` for integer-valued lanes `n ∈ [−127, 128]`, built
    /// through the exponent field (`(n + 127) << 23`): `n = −127` gives
    /// `+0.0` and `n = 128` gives `+∞`. Integer arithmetic only, so
    /// identical on every backend.
    fn pow2n(self) -> Self;
    /// Transposes an 8×8 block: lane `j` of `out[k]` is lane `k` of
    /// `rows[j]`. Pure data movement.
    fn transpose8(rows: [Self; 8]) -> [Self; 8];
    /// Alternates the lanes of `self` (`a`) and `rhs` (`b`):
    /// `(a0 b0 a1 b1 a2 b2 a3 b3, a4 b4 a5 b5 a6 b6 a7 b7)`. Pure data
    /// movement.
    fn interleave(self, rhs: Self) -> (Self, Self);
    /// Lanes as an array (lane order 0..8 = memory order).
    fn to_array(self) -> [f32; 8];
    /// Builds lanes from an array.
    fn from_array(a: [f32; 8]) -> Self;
    /// Eight `f64` lanes: the accumulator of `Simd8::widen_add`.
    type Wide: Copy;
    /// All eight `f64` lanes zero.
    fn wide_zero() -> Self::Wide;
    /// Lanewise `acc + self as f64`: one step of an `f64` running sum per
    /// lane (IEEE-exact widening, so identical on every backend).
    fn widen_add(self, acc: Self::Wide) -> Self::Wide;
    /// Lanewise `acc as f32` (round to nearest even on every backend).
    fn narrow(acc: Self::Wide) -> Self;
}

/// Portable scalar backend: 8 plain `f32` lanes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalarX8([f32; 8]);

impl Simd8 for ScalarX8 {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        ScalarX8([v; 8])
    }
    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        let mut a = [0f32; 8];
        a.copy_from_slice(&src[..8]);
        ScalarX8(a)
    }
    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[..8].copy_from_slice(&self.0);
    }
    #[inline(always)]
    fn load_lanes(src: &[f32], lanes: usize) -> Self {
        let mut a = [0f32; 8];
        a[..lanes].copy_from_slice(&src[..lanes]);
        ScalarX8(a)
    }
    #[inline(always)]
    fn store_lanes(self, dst: &mut [f32], lanes: usize) {
        dst[..lanes].copy_from_slice(&self.0[..lanes]);
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        ScalarX8(std::array::from_fn(|i| self.0[i] + rhs.0[i]))
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        ScalarX8(std::array::from_fn(|i| self.0[i] - rhs.0[i]))
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        ScalarX8(std::array::from_fn(|i| self.0[i] * rhs.0[i]))
    }
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        ScalarX8(std::array::from_fn(|i| self.0[i] / rhs.0[i]))
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        ScalarX8(std::array::from_fn(|i| self.0[i].sqrt()))
    }
    #[inline(always)]
    fn mul_add(self, m: Self, a: Self) -> Self {
        // Deliberately unfused: the scalar backend reproduces plain
        // `x*m + a` f32 arithmetic bit for bit.
        ScalarX8(std::array::from_fn(|i| self.0[i] * m.0[i] + a.0[i]))
    }
    #[inline(always)]
    fn exp(self) -> Self {
        ScalarX8(std::array::from_fn(|i| self.0[i].exp()))
    }
    #[inline(always)]
    fn ln1p(self) -> Self {
        ScalarX8(std::array::from_fn(|i| self.0[i].ln_1p()))
    }
    #[inline(always)]
    fn select_nonneg(self, if_nonneg: Self, if_neg: Self) -> Self {
        ScalarX8(std::array::from_fn(|i| {
            if self.0[i] >= 0.0 {
                if_nonneg.0[i]
            } else {
                if_neg.0[i]
            }
        }))
    }
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        ScalarX8(std::array::from_fn(|i| {
            if self.0[i] > rhs.0[i] {
                self.0[i]
            } else {
                rhs.0[i]
            }
        }))
    }
    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        ScalarX8(std::array::from_fn(|i| {
            if self.0[i] < rhs.0[i] {
                self.0[i]
            } else {
                rhs.0[i]
            }
        }))
    }
    #[inline(always)]
    fn floor(self) -> Self {
        ScalarX8(std::array::from_fn(|i| self.0[i].floor()))
    }
    #[inline(always)]
    fn pow2n(self) -> Self {
        ScalarX8(std::array::from_fn(|i| {
            f32::from_bits(((self.0[i] as i32 + 0x7f) as u32) << 23)
        }))
    }
    #[inline(always)]
    fn transpose8(rows: [Self; 8]) -> [Self; 8] {
        std::array::from_fn(|k| ScalarX8(std::array::from_fn(|j| rows[j].0[k])))
    }
    #[inline(always)]
    fn interleave(self, rhs: Self) -> (Self, Self) {
        let lane = |i: usize| {
            if i.is_multiple_of(2) {
                self.0[i / 2]
            } else {
                rhs.0[i / 2]
            }
        };
        (
            ScalarX8(std::array::from_fn(lane)),
            ScalarX8(std::array::from_fn(|i| lane(i + 8))),
        )
    }
    #[inline(always)]
    fn to_array(self) -> [f32; 8] {
        self.0
    }
    #[inline(always)]
    fn from_array(a: [f32; 8]) -> Self {
        ScalarX8(a)
    }
    type Wide = [f64; 8];
    #[inline(always)]
    fn wide_zero() -> [f64; 8] {
        [0.0; 8]
    }
    #[inline(always)]
    fn widen_add(self, acc: [f64; 8]) -> [f64; 8] {
        std::array::from_fn(|i| acc[i] + self.0[i] as f64)
    }
    #[inline(always)]
    fn narrow(acc: [f64; 8]) -> Self {
        ScalarX8(acc.map(|v| v as f32))
    }
}

/// AVX2+FMA backend.
///
/// # Soundness
///
/// Constructing and operating on `AvxX8` executes AVX instructions, so
/// every use must be dominated by a successful [`detected`] check. The
/// type is private to the crate, and its only instantiation outside
/// tests is the `target_feature` one [`dispatched!`] enters after that
/// check; the crate's tests instantiate it under `if detected()`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct AvxX8(std::arch::x86_64::__m256);

/// The [`AvxX8`] backend: `std::arch` intrinsics, in scope only here.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{AvxX8, Simd8};
    use std::arch::x86_64::*;

    /// `unsafe { $e }` for register-only AVX2/FMA intrinsics.
    macro_rules! lanes {
        ($e:expr) => {
            // SAFETY: an `AvxX8` exists only where the CPU has AVX2+FMA
            // (see its Soundness section), and the intrinsic touches
            // registers only.
            unsafe { $e }
        };
    }

    impl Simd8 for AvxX8 {
        #[inline(always)]
        fn splat(v: f32) -> Self {
            AvxX8(lanes!(_mm256_set1_ps(v)))
        }
        #[inline(always)]
        fn load(src: &[f32]) -> Self {
            assert!(src.len() >= 8);
            // SAFETY: AVX2+FMA as in `lanes!`; `src` holds the 8 floats
            // read.
            AvxX8(unsafe { _mm256_loadu_ps(src.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, dst: &mut [f32]) {
            assert!(dst.len() >= 8);
            // SAFETY: AVX2+FMA as in `lanes!`; `dst` holds the 8 floats
            // written.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn load_lanes(src: &[f32], lanes: usize) -> Self {
            assert!(lanes <= 8 && src.len() >= lanes);
            // SAFETY: AVX2+FMA as in `lanes!`; the mask enables the
            // `lanes` floats `src` holds, and a masked-off lane is neither
            // read nor faults.
            AvxX8(unsafe { _mm256_maskload_ps(src.as_ptr(), first_lanes(lanes)) })
        }
        #[inline(always)]
        fn store_lanes(self, dst: &mut [f32], lanes: usize) {
            assert!(lanes <= 8 && dst.len() >= lanes);
            // SAFETY: AVX2+FMA as in `lanes!`; the mask enables the
            // `lanes` floats `dst` holds, and a masked-off lane is neither
            // written nor faults.
            unsafe { _mm256_maskstore_ps(dst.as_mut_ptr(), first_lanes(lanes), self.0) }
        }
        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            AvxX8(lanes!(_mm256_add_ps(self.0, rhs.0)))
        }
        #[inline(always)]
        fn sub(self, rhs: Self) -> Self {
            AvxX8(lanes!(_mm256_sub_ps(self.0, rhs.0)))
        }
        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            AvxX8(lanes!(_mm256_mul_ps(self.0, rhs.0)))
        }
        #[inline(always)]
        fn div(self, rhs: Self) -> Self {
            AvxX8(lanes!(_mm256_div_ps(self.0, rhs.0)))
        }
        #[inline(always)]
        fn sqrt(self) -> Self {
            AvxX8(lanes!(_mm256_sqrt_ps(self.0)))
        }
        #[inline(always)]
        fn mul_add(self, m: Self, a: Self) -> Self {
            AvxX8(lanes!(_mm256_fmadd_ps(self.0, m.0, a.0)))
        }
        #[inline(always)]
        fn exp(self) -> Self {
            exp256(self)
        }
        #[inline(always)]
        fn ln1p(self) -> Self {
            ln1p256(self)
        }
        #[inline(always)]
        fn select_nonneg(self, if_nonneg: Self, if_neg: Self) -> Self {
            // blendv picks the second operand where the mask sign bit is
            // set, i.e. where `self < 0`.
            AvxX8(lanes!(_mm256_blendv_ps(if_nonneg.0, if_neg.0, self.0)))
        }
        #[inline(always)]
        fn max(self, rhs: Self) -> Self {
            AvxX8(lanes!(_mm256_max_ps(self.0, rhs.0)))
        }
        #[inline(always)]
        fn min(self, rhs: Self) -> Self {
            AvxX8(lanes!(_mm256_min_ps(self.0, rhs.0)))
        }
        #[inline(always)]
        fn floor(self) -> Self {
            AvxX8(lanes!(_mm256_floor_ps(self.0)))
        }
        #[inline(always)]
        fn pow2n(self) -> Self {
            lanes!({
                let n = _mm256_cvttps_epi32(self.0);
                let n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
                AvxX8(_mm256_castsi256_ps(_mm256_slli_epi32(n, 23)))
            })
        }
        #[inline(always)]
        fn transpose8(r: [Self; 8]) -> [Self; 8] {
            lanes!({
                // 2×2 blocks within each 128-bit half …
                let t0 = _mm256_unpacklo_ps(r[0].0, r[1].0);
                let t1 = _mm256_unpackhi_ps(r[0].0, r[1].0);
                let t2 = _mm256_unpacklo_ps(r[2].0, r[3].0);
                let t3 = _mm256_unpackhi_ps(r[2].0, r[3].0);
                let t4 = _mm256_unpacklo_ps(r[4].0, r[5].0);
                let t5 = _mm256_unpackhi_ps(r[4].0, r[5].0);
                let t6 = _mm256_unpacklo_ps(r[6].0, r[7].0);
                let t7 = _mm256_unpackhi_ps(r[6].0, r[7].0);
                // … 4×4 blocks within each half …
                let u0 = _mm256_shuffle_ps(t0, t2, 0x44);
                let u1 = _mm256_shuffle_ps(t0, t2, 0xee);
                let u2 = _mm256_shuffle_ps(t1, t3, 0x44);
                let u3 = _mm256_shuffle_ps(t1, t3, 0xee);
                let u4 = _mm256_shuffle_ps(t4, t6, 0x44);
                let u5 = _mm256_shuffle_ps(t4, t6, 0xee);
                let u6 = _mm256_shuffle_ps(t5, t7, 0x44);
                let u7 = _mm256_shuffle_ps(t5, t7, 0xee);
                // … then swap the off-diagonal 4×4 halves.
                [
                    AvxX8(_mm256_permute2f128_ps(u0, u4, 0x20)),
                    AvxX8(_mm256_permute2f128_ps(u1, u5, 0x20)),
                    AvxX8(_mm256_permute2f128_ps(u2, u6, 0x20)),
                    AvxX8(_mm256_permute2f128_ps(u3, u7, 0x20)),
                    AvxX8(_mm256_permute2f128_ps(u0, u4, 0x31)),
                    AvxX8(_mm256_permute2f128_ps(u1, u5, 0x31)),
                    AvxX8(_mm256_permute2f128_ps(u2, u6, 0x31)),
                    AvxX8(_mm256_permute2f128_ps(u3, u7, 0x31)),
                ]
            })
        }
        #[inline(always)]
        fn interleave(self, rhs: Self) -> (Self, Self) {
            lanes!({
                // (a0 b0 a1 b1 | a4 b4 a5 b5) and (a2 b2 a3 b3 | a6 b6 a7 b7),
                // then the halves regrouped.
                let lo = _mm256_unpacklo_ps(self.0, rhs.0);
                let hi = _mm256_unpackhi_ps(self.0, rhs.0);
                (
                    AvxX8(_mm256_permute2f128_ps(lo, hi, 0x20)),
                    AvxX8(_mm256_permute2f128_ps(lo, hi, 0x31)),
                )
            })
        }
        #[inline(always)]
        fn to_array(self) -> [f32; 8] {
            let mut a = [0f32; 8];
            // SAFETY: AVX2+FMA as in `lanes!`; `a` holds the 8 floats
            // written.
            unsafe { _mm256_storeu_ps(a.as_mut_ptr(), self.0) };
            a
        }
        #[inline(always)]
        fn from_array(a: [f32; 8]) -> Self {
            // SAFETY: AVX2+FMA as in `lanes!`; `a` holds the 8 floats
            // read.
            AvxX8(unsafe { _mm256_loadu_ps(a.as_ptr()) })
        }
        /// Lanes 0..4 and 4..8.
        type Wide = [__m256d; 2];
        #[inline(always)]
        fn wide_zero() -> [__m256d; 2] {
            lanes!([_mm256_setzero_pd(); 2])
        }
        #[inline(always)]
        fn widen_add(self, acc: [__m256d; 2]) -> [__m256d; 2] {
            lanes!({
                let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(self.0));
                let hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(self.0));
                [_mm256_add_pd(acc[0], lo), _mm256_add_pd(acc[1], hi)]
            })
        }
        #[inline(always)]
        fn narrow(acc: [__m256d; 2]) -> Self {
            lanes!({
                let lo = _mm256_cvtpd_ps(acc[0]);
                let hi = _mm256_cvtpd_ps(acc[1]);
                AvxX8(_mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi))
            })
        }
    }

    /// The mask of a masked load or store that enables lanes `0..lanes`.
    #[inline(always)]
    fn first_lanes(lanes: usize) -> __m256i {
        lanes!(_mm256_cmpgt_epi32(
            _mm256_set1_epi32(lanes as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)
        ))
    }

    /// Cephes-style `exp` on 8 lanes (cf. `avx_mathfun`): range-reduce by
    /// `ln 2` with a two-constant Cody–Waite split, degree-5 polynomial,
    /// exponent reconstruction through the IEEE bit pattern. Within a few
    /// ULP of libm over the finite range; inputs are clamped to
    /// `±88.376`, so overflow saturates and underflow flushes to 0.
    #[inline(always)]
    fn exp256(x: AvxX8) -> AvxX8 {
        const EXP_HI: f32 = 88.376_26;
        const EXP_LO: f32 = -88.376_26;
        const LOG2EF: f32 = std::f32::consts::LOG2_E;
        const C1: f32 = 0.693_359_4; // ln2 high part
        const C2: f32 = -2.121_944_4e-4; // ln2 low part
        const P0: f32 = 1.987_569_1e-4;
        const P1: f32 = 1.398_199_9e-3;
        const P2: f32 = 8.333_452e-3;
        const P3: f32 = 4.166_579_6e-2;
        const P4: f32 = 1.666_666_5e-1;
        const P5: f32 = 5.000_000_3e-1;
        lanes!({
            let x = _mm256_min_ps(x.0, _mm256_set1_ps(EXP_HI));
            let x = _mm256_max_ps(x, _mm256_set1_ps(EXP_LO));
            // n = round-to-floor(x / ln2 + 1/2)
            let fx = _mm256_fmadd_ps(x, _mm256_set1_ps(LOG2EF), _mm256_set1_ps(0.5));
            let fx = _mm256_floor_ps(fx);
            // r = x − n·ln2, split into high/low parts for accuracy.
            let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(C1), x);
            let x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(C2), x);
            // Polynomial for exp(r) on r ∈ [−ln2/2, ln2/2].
            let z = _mm256_mul_ps(x, x);
            let mut y = _mm256_set1_ps(P0);
            y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P1));
            y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P2));
            y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P3));
            y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P4));
            y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(P5));
            y = _mm256_fmadd_ps(y, z, x);
            y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
            // 2^n through the exponent field.
            let n = _mm256_cvttps_epi32(fx);
            let n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
            let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32(n, 23));
            AvxX8(_mm256_mul_ps(y, pow2n))
        })
    }

    /// `ln(1 + x)` on 8 lanes. `u = 1 + x` is rounded; its Cephes-style
    /// `ln` (cf. `avx_mathfun`: split `u = m·2ᵉ` with `m ∈ [√½, √2)`,
    /// degree-8 polynomial in `m − 1`, `e·ln 2` added back in two parts)
    /// is corrected by the lost low part, `ln(u + d) ≈ ln u + d/u` with
    /// `d = x − (u − 1)` exact. So `|x| < 2⁻²⁵` (subnormals, `−0.0`
    /// aside) returns `x`. `u = +∞` and NaN pass through, `u = 0` gives
    /// `−∞` and `u < 0` NaN.
    #[inline(always)]
    fn ln1p256(x: AvxX8) -> AvxX8 {
        const SQRTHF: f32 = std::f32::consts::FRAC_1_SQRT_2;
        const P: [f32; 9] = [
            7.037_683_6e-2,
            -1.151_461e-1,
            1.167_699_9e-1,
            -1.242_014_1e-1,
            1.424_932_3e-1,
            -1.666_805_8e-1,
            2.000_071_5e-1,
            -2.499_999_4e-1,
            3.333_333e-1,
        ];
        const Q1: f32 = -2.121_944_4e-4; // ln2 low part
        const Q2: f32 = 0.693_359_4; // ln2 high part
        lanes!({
            let one = _mm256_set1_ps(1.0);
            let u = _mm256_add_ps(one, x.0);
            let d = _mm256_div_ps(_mm256_sub_ps(x.0, _mm256_sub_ps(u, one)), u);
            // u = m·2^(e−1) with m ∈ [0.5, 1) from the IEEE fields.
            let bits = _mm256_castps_si256(u);
            let e = _mm256_sub_epi32(_mm256_srli_epi32(bits, 23), _mm256_set1_epi32(0x7f));
            let mut e = _mm256_add_ps(_mm256_cvtepi32_ps(e), one);
            let m = _mm256_or_ps(
                _mm256_and_ps(u, _mm256_castsi256_ps(_mm256_set1_epi32(0x007f_ffff))),
                _mm256_set1_ps(0.5),
            );
            // m < √½: use 2m − 1 and e − 1, so the argument sits in
            // [√½ − 1, √2 − 1).
            let small = _mm256_cmp_ps::<_CMP_LT_OQ>(m, _mm256_set1_ps(SQRTHF));
            let r = _mm256_add_ps(_mm256_sub_ps(m, one), _mm256_and_ps(m, small));
            e = _mm256_sub_ps(e, _mm256_and_ps(one, small));
            let z = _mm256_mul_ps(r, r);
            let mut y = _mm256_set1_ps(P[0]);
            for &p in &P[1..] {
                y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(p));
            }
            y = _mm256_mul_ps(_mm256_mul_ps(y, r), z);
            y = _mm256_fmadd_ps(e, _mm256_set1_ps(Q1), y);
            y = _mm256_fnmadd_ps(z, _mm256_set1_ps(0.5), y);
            let ln_u = _mm256_fmadd_ps(e, _mm256_set1_ps(Q2), _mm256_add_ps(r, y));
            let out = _mm256_add_ps(ln_u, d);
            // Special lanes: +∞ and NaN pass through, 0 → −∞, < 0 → NaN.
            let finite = _mm256_cmp_ps::<_CMP_LT_OQ>(u, _mm256_set1_ps(f32::INFINITY));
            let out = _mm256_blendv_ps(u, out, finite);
            let zero = _mm256_setzero_ps();
            let out = _mm256_blendv_ps(
                out,
                _mm256_set1_ps(f32::NEG_INFINITY),
                _mm256_cmp_ps::<_CMP_EQ_OQ>(u, zero),
            );
            let out = _mm256_blendv_ps(
                out,
                _mm256_set1_ps(f32::NAN),
                _mm256_cmp_ps::<_CMP_LT_OQ>(u, zero),
            );
            AvxX8(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_diff_basics() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_diff(-0.0, 0.0), 0);
        assert!(ulp_diff(1.0, -1.0) > 1_000_000);
        assert_eq!(ulp_diff(f32::NAN, 1.0), u32::MAX);
    }

    #[test]
    fn scalar_lane_ops_match_plain_f32() {
        let a = ScalarX8::from_array([1.0, -2.0, 0.5, 3.0, -0.25, 8.0, 1e-3, -7.5]);
        let b = ScalarX8::splat(3.0);
        let sum = a.add(b).to_array();
        let prod = a.mul(b).to_array();
        let fma = a.mul_add(b, b).to_array();
        for (i, x) in a.to_array().iter().enumerate() {
            assert_eq!(sum[i].to_bits(), (x + 3.0).to_bits());
            assert_eq!(prod[i].to_bits(), (x * 3.0).to_bits());
            assert_eq!(fma[i].to_bits(), (x * 3.0 + 3.0).to_bits());
        }
        let sel = a.select_nonneg(ScalarX8::splat(1.0), ScalarX8::splat(-1.0));
        assert_eq!(sel.to_array(), [1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0]);
    }

    /// `max`/`min`/`floor`/`pow2n`/`transpose8` on backend `V`, as bits.
    #[inline(always)]
    fn exact_lane_ops<V: Simd8>() -> Vec<[u32; 8]> {
        let x = V::from_array([f32::NAN, -0.0, 0.0, -1.5, 2.5, -127.0, 127.0, 1e-3]);
        let zero = V::zero();
        let mut out = vec![
            x.max(zero),
            x.min(zero),
            zero.max(x),
            x.floor(),
            V::from_array([-127.0, -126.0, -1.0, 0.0, 1.0, 23.0, 127.0, 128.0]).pow2n(),
        ];
        let rows: [V; 8] =
            std::array::from_fn(|j| V::from_array(std::array::from_fn(|k| (8 * j + k) as f32)));
        out.extend(V::transpose8(rows));
        let (lo, hi) = rows[0].interleave(rows[1]);
        out.extend([lo, hi]);
        out.into_iter()
            .map(|v| v.to_array().map(f32::to_bits))
            .collect()
    }

    #[test]
    fn exact_lane_ops_agree_with_their_definitions_on_every_backend() {
        let got = exact_lane_ops::<ScalarX8>();
        let bits = |a: [f32; 8]| a.map(f32::to_bits);
        // NaN and −0 clamp to the *second* operand, +0.
        assert_eq!(got[0], bits([0.0, 0.0, 0.0, 0.0, 2.5, 0.0, 127.0, 1e-3]));
        assert_eq!(got[1], bits([0.0, 0.0, 0.0, -1.5, 0.0, -127.0, 0.0, 0.0]));
        // … so with the operands swapped the NaN and the −0 survive.
        assert_eq!(got[2][0], f32::NAN.to_bits());
        assert_eq!(got[2][1], (-0.0f32).to_bits());
        assert_eq!(
            got[3][1..],
            [-0.0f32, 0.0, -2.0, 2.0, -127.0, 127.0, 0.0].map(f32::to_bits)
        );
        assert_eq!(
            got[4],
            bits([
                0.0,
                f32::MIN_POSITIVE,
                0.5,
                1.0,
                2.0,
                8_388_608.0,
                1.701_411_8e38,
                f32::INFINITY
            ])
        );
        for k in 0..8 {
            let column: [f32; 8] = std::array::from_fn(|j| (8 * j + k) as f32);
            assert_eq!(got[5 + k], bits(column));
        }
        let zipped: [f32; 16] = std::array::from_fn(|i| (i / 2 + 8 * (i % 2)) as f32);
        assert_eq!(got[13], bits(zipped[..8].try_into().unwrap()));
        assert_eq!(got[14], bits(zipped[8..].try_into().unwrap()));
        #[cfg(target_arch = "x86_64")]
        if detected() {
            #[target_feature(enable = "avx2,fma")]
            unsafe fn run() -> Vec<[u32; 8]> {
                exact_lane_ops::<AvxX8>()
            }
            // SAFETY: guarded by detected().
            assert_eq!(unsafe { run() }, got);
        }
    }

    /// `Simd8::ln1p` of every element of `xs` on backend `V`.
    #[inline(always)]
    fn ln1p_lanes<V: Simd8>(xs: &[f32]) -> Vec<f32> {
        xs.chunks(8)
            .flat_map(|c| {
                let mut a = [0f32; 8];
                a[..c.len()].copy_from_slice(c);
                V::from_array(a).ln1p().to_array()[..c.len()].to_vec()
            })
            .collect()
    }

    #[test]
    fn ln1p_tracks_libm_within_4_ulps() {
        // (−1, 1) densely, then log-spaced out to 1e30; −0.0, subnormals
        // and +∞ ride along.
        let mut xs: Vec<f32> = (1..400_000).map(|i| -1.0 + i as f32 * 5e-6).collect();
        xs.extend((0..=3000).map(|i| 10f32.powf(i as f32 * 0.01)));
        xs.extend([
            -0.0,
            0.0,
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE / 2.0,
            1e-30,
            3e-8,
        ]);
        xs.extend([1e30, f32::INFINITY]);
        let scalar = ln1p_lanes::<ScalarX8>(&xs);
        let mut backends = vec![("scalar", scalar)];
        #[cfg(target_arch = "x86_64")]
        if detected() {
            #[target_feature(enable = "avx2,fma")]
            unsafe fn run(xs: &[f32]) -> Vec<f32> {
                ln1p_lanes::<AvxX8>(xs)
            }
            // SAFETY: guarded by detected().
            backends.push(("avx", unsafe { run(&xs) }));
        }
        for (name, got) in backends {
            for (x, g) in xs.iter().zip(got) {
                let want = x.ln_1p();
                let ulps = ulp_diff(g, want);
                assert!(
                    ulps <= 4,
                    "{name} ln1p({x:e}): {g:e} vs libm {want:e} ({ulps} ulp)"
                );
            }
        }
    }

    /// For every `lanes` in `0..=8`: `load_lanes` of exactly `lanes`
    /// floats, and `store_lanes` of `1.0 ..= 8.0` into eight NaNs, as bits.
    #[inline(always)]
    fn partial_lanes<V: Simd8>() -> Vec<[u32; 8]> {
        let src: [f32; 8] = std::array::from_fn(|i| i as f32 + 1.0);
        (0..=8)
            .flat_map(|lanes| {
                let mut dst = [f32::NAN; 8];
                V::load(&src).store_lanes(&mut dst, lanes);
                [V::load_lanes(&src[..lanes], lanes).to_array(), dst]
            })
            .map(|a| a.map(f32::to_bits))
            .collect()
    }

    #[test]
    fn partial_lanes_touch_only_their_lanes_on_every_backend() {
        let got = partial_lanes::<ScalarX8>();
        for lanes in 0..=8 {
            let lane = |i: usize, pad: f32| if i < lanes { i as f32 + 1.0 } else { pad };
            let loaded: [f32; 8] = std::array::from_fn(|i| lane(i, 0.0));
            let stored: [f32; 8] = std::array::from_fn(|i| lane(i, f32::NAN));
            assert_eq!(got[2 * lanes], loaded.map(f32::to_bits), "load {lanes}");
            assert_eq!(
                got[2 * lanes + 1],
                stored.map(f32::to_bits),
                "store {lanes}"
            );
        }
        #[cfg(target_arch = "x86_64")]
        if detected() {
            #[target_feature(enable = "avx2,fma")]
            unsafe fn run() -> Vec<[u32; 8]> {
                partial_lanes::<AvxX8>()
            }
            // SAFETY: guarded by detected().
            assert_eq!(unsafe { run() }, got);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx_load_and_store_of_a_short_slice_panic_like_the_scalar_backend() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        if !detected() {
            return;
        }
        let mut short = [1f32; 7];
        for (name, panicked) in [
            (
                "scalar load",
                catch_unwind(|| ScalarX8::load(&short)).is_err(),
            ),
            ("avx load", catch_unwind(|| AvxX8::load(&short)).is_err()),
            (
                "scalar store",
                catch_unwind(AssertUnwindSafe(|| ScalarX8::zero().store(&mut short))).is_err(),
            ),
            (
                "avx store",
                catch_unwind(AssertUnwindSafe(|| AvxX8::zero().store(&mut short))).is_err(),
            ),
            (
                "scalar 8-lane partial load",
                catch_unwind(|| ScalarX8::load_lanes(&short, 8)).is_err(),
            ),
            (
                "avx 8-lane partial load",
                catch_unwind(|| AvxX8::load_lanes(&short, 8)).is_err(),
            ),
            (
                "scalar 8-lane partial store",
                catch_unwind(AssertUnwindSafe(|| {
                    ScalarX8::zero().store_lanes(&mut short, 8)
                }))
                .is_err(),
            ),
            (
                "avx 8-lane partial store",
                catch_unwind(AssertUnwindSafe(|| {
                    AvxX8::zero().store_lanes(&mut short, 8)
                }))
                .is_err(),
            ),
            (
                "scalar 9-lane partial load",
                catch_unwind(|| ScalarX8::load_lanes(&[0.0; 9], 9)).is_err(),
            ),
            (
                "avx 9-lane partial load",
                catch_unwind(|| AvxX8::load_lanes(&[0.0; 9], 9)).is_err(),
            ),
        ] {
            assert!(panicked, "{name} of 7 floats did not panic");
        }
        assert_eq!(short, [1.0; 7], "a short store wrote");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx_exp_tracks_libm_within_ulps() {
        if !detected() {
            return;
        }
        #[target_feature(enable = "avx2,fma")]
        unsafe fn run(xs: &[f32; 8]) -> [f32; 8] {
            AvxX8::from_array(*xs).exp().to_array()
        }
        let xs = [-30.0f32, -3.25, -0.5, 0.0, 1e-4, 0.5, 3.25, 30.0];
        // SAFETY: guarded by detected().
        let got = unsafe { run(&xs) };
        for (x, g) in xs.iter().zip(got) {
            let want = x.exp();
            assert!(
                ulp_diff(g, want) <= 16,
                "exp({x}): {g} vs libm {want} ({} ulp)",
                ulp_diff(g, want)
            );
        }
    }
}
