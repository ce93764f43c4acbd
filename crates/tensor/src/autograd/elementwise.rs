//! Differentiable elementwise operations on [`Var`].

use crate::{FusedChain, Tensor, Var};

/// `2·sqrt(2/π)`: the GELU tanh argument scale, doubled for the σ form.
const GELU_2C: f32 = 2.0 * 0.797_884_6;
const GELU_CUBIC: f32 = 0.044715;

/// The GELU gate `σ(2C·(x + 0.044715·x³))` as a pending chain on `x`.
fn gelu_gate(x: &Tensor) -> FusedChain<'_> {
    x.fused()
        .mul(x)
        .mul(x)
        .mul_scalar(GELU_CUBIC)
        .add(x)
        .mul_scalar(GELU_2C)
        .sigmoid()
}

impl Var {
    /// Broadcasting addition.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes do not broadcast.
    pub fn add(&self, other: &Var) -> Var {
        let out = self.value().add_t(&other.value()).expect("Var::add shapes");
        let (la, lb) = (self.shape(), other.shape());
        Var::from_op(out, vec![self.clone(), other.clone()], move |g| {
            vec![Some(g.reduce_to_shape(&la)), Some(g.reduce_to_shape(&lb))]
        })
    }

    /// Broadcasting subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes do not broadcast.
    pub fn sub(&self, other: &Var) -> Var {
        let out = self.value().sub_t(&other.value()).expect("Var::sub shapes");
        let (la, lb) = (self.shape(), other.shape());
        Var::from_op(out, vec![self.clone(), other.clone()], move |g| {
            vec![
                Some(g.reduce_to_shape(&la)),
                Some(g.map(|x| -x).reduce_to_shape(&lb)),
            ]
        })
    }

    /// Broadcasting elementwise product.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes do not broadcast.
    pub fn mul(&self, other: &Var) -> Var {
        let out = self.value().mul_t(&other.value()).expect("Var::mul shapes");
        let (la, lb) = (self.shape(), other.shape());
        let (a, b) = (self.clone(), other.clone());
        Var::from_op(out, vec![self.clone(), other.clone()], move |g| {
            let ga = g
                .mul_t(&b.value())
                .expect("mul backward")
                .reduce_to_shape(&la);
            let gb = g
                .mul_t(&a.value())
                .expect("mul backward")
                .reduce_to_shape(&lb);
            vec![Some(ga), Some(gb)]
        })
    }

    /// Broadcasting elementwise division.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes do not broadcast.
    pub fn div(&self, other: &Var) -> Var {
        let out = self.value().div_t(&other.value()).expect("Var::div shapes");
        let (la, lb) = (self.shape(), other.shape());
        let (a, b) = (self.clone(), other.clone());
        Var::from_op(out, vec![self.clone(), other.clone()], move |g| {
            let bv = b.value();
            let ga = g.div_t(&bv).expect("div backward").reduce_to_shape(&la);
            // d/db (a/b) = -a / b².
            let gb = g
                .mul_t(&a.value())
                .expect("div backward")
                .div_t(&bv.zip_map(&bv, |x, y| x * y).expect("square"))
                .expect("div backward")
                .map(|x| -x)
                .reduce_to_shape(&lb);
            vec![Some(ga), Some(gb)]
        })
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        self.mul_scalar(-1.0)
    }

    /// Adds a scalar.
    pub fn add_scalar(&self, s: f32) -> Var {
        let out = self.value().add_scalar(s);
        Var::from_op(out, vec![self.clone()], |g| vec![Some(g.clone())])
    }

    /// Multiplies by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Var {
        let out = self.value().mul_scalar(s);
        Var::from_op(out, vec![self.clone()], move |g| {
            vec![Some(g.mul_scalar(s))]
        })
    }

    /// Elementwise map with a user-supplied derivative.
    ///
    /// `f` is the function, `df` its derivative given `(x, f(x))`. A
    /// scalar sweep: the activations the models call run as fused SIMD
    /// chains instead (see [`Var::gelu`], [`Var::silu`],
    /// [`Var::leaky_relu`], [`Var::softplus`]); this stays for the
    /// loss-side and test-side ops below.
    fn map_unary(&self, f: impl Fn(f32) -> f32, df: impl Fn(f32, f32) -> f32 + 'static) -> Var {
        let out = self.value().map(&f);
        self.unary_node(out, df)
    }

    /// Wraps an already computed elementwise `out = f(self)` whose
    /// backward is `g · df(x, y)`, reading `x` from the parent handle and
    /// `y` from the node.
    fn unary_node(&self, out: Tensor, df: impl Fn(f32, f32) -> f32 + 'static) -> Var {
        let x = self.clone();
        Var::from_op_out(out, vec![self.clone()], move |g, y| {
            let mut gx = g.clone();
            let xv = x.value();
            for ((gv, &xv), &yv) in gx.data_mut().iter_mut().zip(xv.data()).zip(y.data()) {
                *gv *= df(xv, yv);
            }
            vec![Some(gx)]
        })
    }

    /// Natural exponential.
    pub fn exp(&self) -> Var {
        let out = self.value().exp();
        Var::from_op_out(out, vec![self.clone()], |g, y| {
            vec![Some(y.fused().mul(g).eval())]
        })
    }

    /// Natural logarithm of `x + eps` (eps guards against log(0)).
    pub fn ln_eps(&self, eps: f32) -> Var {
        self.map_unary(move |x| (x + eps).ln(), move |x, _| 1.0 / (x + eps))
    }

    /// Square root (the one-stage `Sqrt` chain, bit-exact with
    /// `f32::sqrt` at every level).
    pub fn sqrt(&self) -> Var {
        let out = self.value().sqrt_t();
        self.unary_node(out, |_, y| 0.5 / y.max(1e-12))
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        let out = {
            let xv = self.value();
            xv.mul_t(&xv).expect("square")
        };
        let x = self.clone();
        Var::from_op(out, vec![self.clone()], move |g| {
            // (x·2)·g — commutative reorder of g·(2·x), bitwise identical.
            vec![Some(x.value().fused().mul_scalar(2.0).mul(g).eval())]
        })
    }

    /// `|x|^p` with the correct signed gradient `p·|x|^{p-1}·sign(x)`.
    ///
    /// Used by the PEB focal loss, which weights squared errors by
    /// `|error|^γ` (Eq. 17 of the paper).
    pub fn abs_powf(&self, p: f32) -> Var {
        self.map_unary(
            move |x| x.abs().powf(p),
            move |x, _| {
                if x == 0.0 {
                    0.0
                } else {
                    p * x.abs().powf(p - 1.0) * x.signum()
                }
            },
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let out = self.value().sigmoid();
        Var::from_op_out(out, vec![self.clone()], |g, y| {
            // ((1−y)·y)·g in one fused sweep — commutative reorder of
            // g·(y·(1−y)), bitwise identical.
            vec![Some(y.fused().sub_from_scalar(1.0).mul(y).mul(g).eval())]
        })
    }

    /// SiLU (sigmoid-weighted linear unit), the activation used throughout
    /// the SDM unit.
    ///
    /// One fused sweep `σ(x)·x` with the dispatched sigmoid lane math
    /// (tolerance-class on SIMD, like [`Var::sigmoid`]). The backward
    /// recomputes `s = σ(x)` from the parent handle and runs
    /// `((((1−s)·x)+1)·s)·g` as one more sweep — a commutative reorder of
    /// `g·(s·(1+x·(1−s)))`.
    pub fn silu(&self) -> Var {
        let out = {
            let xv = self.value();
            xv.fused().sigmoid().mul(&xv).eval()
        };
        let x = self.clone();
        Var::from_op(out, vec![self.clone()], move |g| {
            let xv = x.value();
            let s = xv.sigmoid();
            vec![Some(
                s.fused()
                    .sub_from_scalar(1.0)
                    .mul(&xv)
                    .add_scalar(1.0)
                    .mul(&s)
                    .mul(g)
                    .eval(),
            )]
        })
    }

    /// Softplus `ln(1 + e^x)` (`x` itself above 20), used for the Δ
    /// parameter of the SSM (Eq. 11).
    ///
    /// The one-stage `Softplus` chain (tolerance-class on SIMD;
    /// libm `exp` + `ln_1p` on the scalar level). The backward is the
    /// fused sweep `σ(x)·g` — a commutative reorder of `g·σ(x)`.
    pub fn softplus(&self) -> Var {
        let out = self.value().softplus();
        let x = self.clone();
        Var::from_op(out, vec![self.clone()], move |g| {
            vec![Some(x.value().fused().sigmoid().mul(g).eval())]
        })
    }

    /// ReLU: the leaky stage at slope 0, which is `max(x, +0.0)` — every
    /// non-positive input, `−∞` and NaN included, gives `+0.0`, as
    /// `x.max(0.0)` does.
    pub fn relu(&self) -> Var {
        let out = self.value().fused().leaky_relu(0.0).eval();
        self.unary_node(out, |x, _| if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// Leaky ReLU with the given negative slope (decoder activation),
    /// one exact-class fused sweep.
    pub fn leaky_relu(&self, slope: f32) -> Var {
        let out = self.value().fused().leaky_relu(slope).eval();
        self.unary_node(out, move |x, _| if x >= 0.0 { 1.0 } else { slope })
    }

    /// GELU (tanh approximation), used by the MLP and FNO blocks.
    ///
    /// By the identity `0.5·(1 + tanh u) = σ(2u)` the forward is the fused
    /// sweep `x·σ(2C·(x + 0.044715·x³))` — no libm `tanh`; within
    /// `1e-5·max(1, |x|)` of the tanh formulation. The backward uses the
    /// same form: with `s = σ(2u)`, `d/dx = s·(1 + x·(1−s)·2u′)`.
    pub fn gelu(&self) -> Var {
        let out = {
            let xv = self.value();
            gelu_gate(&xv).mul(&xv).eval()
        };
        let x = self.clone();
        Var::from_op(out, vec![self.clone()], move |g| {
            let xv = x.value();
            let s = gelu_gate(&xv).eval();
            // 2u′ = 2C·(1 + 3·0.044715·x²)
            let du2 = xv
                .fused()
                .mul(&xv)
                .mul_scalar(3.0 * GELU_CUBIC * GELU_2C)
                .add_scalar(GELU_2C)
                .eval();
            vec![Some(
                s.fused()
                    .sub_from_scalar(1.0)
                    .mul(&xv)
                    .mul(&du2)
                    .add_scalar(1.0)
                    .mul(&s)
                    .mul(g)
                    .eval(),
            )]
        })
    }

    /// Clamp with straight-through gradient inside `[lo, hi]` and zero
    /// outside.
    pub fn clamp(&self, lo: f32, hi: f32) -> Var {
        self.map_unary(
            move |x| x.clamp(lo, hi),
            move |x, _| if (lo..=hi).contains(&x) { 1.0 } else { 0.0 },
        )
    }

    /// Elementwise absolute value (subgradient 0 at the kink).
    pub fn abs(&self) -> Var {
        self.map_unary(f32::abs, |x, _| if x == 0.0 { 0.0 } else { x.signum() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_gradients;
    use crate::Tensor;

    fn param(data: Vec<f32>) -> Var {
        let n = data.len();
        Var::parameter(Tensor::from_vec(data, &[n]).unwrap())
    }

    #[test]
    fn add_broadcast_gradients() {
        let a = Var::parameter(Tensor::ones(&[2, 3]));
        let b = Var::parameter(Tensor::ones(&[3]));
        let y = a.add(&b).sum();
        y.backward();
        assert_eq!(a.grad().unwrap().shape(), &[2, 3]);
        assert_eq!(b.grad().unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn div_gradients() {
        let a = param(vec![6.0]);
        let b = param(vec![2.0]);
        let y = a.div(&b);
        y.backward();
        assert!((a.grad().unwrap().item() - 0.5).abs() < 1e-6);
        assert!((b.grad().unwrap().item() + 1.5).abs() < 1e-6);
    }

    #[test]
    fn activations_gradcheck() {
        let x = vec![-1.5, -0.3, 0.05, 0.4, 2.0]; // avoid the leaky_relu kink at 0
        for (name, f) in [
            ("silu", (|v: &Var| v.silu().sum()) as fn(&Var) -> Var),
            ("sigmoid", |v| v.sigmoid().sum()),
            ("softplus", |v| v.softplus().sum()),
            ("gelu", |v| v.gelu().sum()),
            ("exp", |v| v.exp().sum()),
            ("square", |v| v.square().sum()),
            ("leaky", |v| v.leaky_relu(0.1).sum()),
        ] {
            let p = param(x.clone());
            let report = check_gradients(&p, f, 1e-2);
            assert!(report.ok(2e-2), "{name}: {report:?}");
        }
    }

    #[test]
    fn relu_is_max_with_zero_on_every_input() {
        // 19 elements: two full lanes and a ragged tail, at either level.
        let mut x = vec![-1.5, -0.0, 0.0, 0.25, f32::NAN, f32::NEG_INFINITY];
        x.extend([f32::INFINITY, -1e-30, 3.0]);
        x.extend((0..10).map(|i| i as f32 - 4.5));
        let want: Vec<u32> = x.iter().map(|v| v.max(0.0).to_bits()).collect();
        for level in [peb_simd::Level::Scalar, peb_simd::best_level()] {
            let scoped = peb_par::ExecCtx {
                level,
                ..peb_par::ctx::current()
            };
            let got = peb_par::ctx::with(scoped, || param(x.clone()).relu().value_clone());
            let got: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            // `f32::max` leaves the sign of max(−0, +0) open; ReLU gives +0.
            assert_eq!(got[1], 0, "{level:?}: relu(−0.0) is +0.0");
            assert_eq!(got[2..], want[2..], "{level:?}");
            assert_eq!(got[0], want[0], "{level:?}");
        }
        let p = param(vec![-2.0, 0.0, 3.0]);
        p.relu().sum().backward();
        assert_eq!(p.grad().unwrap().data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn abs_powf_gradient() {
        // |x|^3 has derivative 3 x |x|.
        let p = param(vec![-2.0, 0.5]);
        let y = p.abs_powf(3.0).sum();
        y.backward();
        let g = p.grad().unwrap();
        assert!((g.data()[0] - (3.0 * -2.0f32 * 2.0)).abs() < 1e-4);
        assert!((g.data()[1] - (3.0 * 0.5 * 0.5)).abs() < 1e-4);
    }

    #[test]
    fn ln_eps_is_safe_at_zero() {
        let p = param(vec![0.0, 1.0]);
        let y = p.ln_eps(1e-6).sum();
        y.backward();
        assert!(y.value().data()[0].is_finite());
        assert!(p.grad().unwrap().data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn clamp_gradient_masks_outside() {
        let p = param(vec![-2.0, 0.5, 3.0]);
        p.clamp(0.0, 1.0).sum().backward();
        assert_eq!(p.grad().unwrap().data(), &[0.0, 1.0, 0.0]);
    }
}
