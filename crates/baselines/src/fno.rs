//! 3-D Fourier Neural Operator baseline (Li et al. [19]).
//!
//! Each FNO block applies a learned filter to the lowest ±`m` Fourier
//! modes of the feature volume (channel-mixing complex weights), adds a
//! pointwise linear bypass, and applies GELU. The spectral convolution is
//! a custom autograd operation; its adjoint is derived from the identity
//! `y = Re(F⁻¹ W F x)` ⇒ `dx = Re(F Wᵀ F⁻¹ dy)` for the unscaled-forward
//! / `1/N`-scaled-inverse DFT convention used by `peb-fft` (the DFT
//! matrix is symmetric, so transposes — not conjugate transposes —
//! appear).

use rand::Rng;

use peb_fft::{fft3d, ifft3d, Complex, ComplexField};
use peb_nn::{kaiming_uniform, Linear, Parameterized};
use peb_tensor::{Tensor, Var};

use sdm_peb::PebPredictor;

/// Indices kept for one axis: frequencies `|k| < m`, i.e. `{0..m−1}` and
/// `{n−m+1..n−1}`.
fn kept_indices(n: usize, m: usize) -> Vec<usize> {
    let m = m.min(n.div_ceil(2));
    let mut idx: Vec<usize> = (0..m).collect();
    for k in n - m + 1..n {
        if k >= m {
            idx.push(k);
        }
    }
    idx
}

/// Spectral convolution over the lowest Fourier modes of `[C, D, H, W]`.
pub struct SpectralConv3d {
    w_re: Var,
    w_im: Var,
    kept_d: Vec<usize>,
    kept_h: Vec<usize>,
    kept_w: Vec<usize>,
    cin: usize,
    cout: usize,
}

impl SpectralConv3d {
    /// Creates a layer keeping `modes = (m_d, m_h, m_w)` frequencies per
    /// axis for a `(D, H, W)` volume.
    pub fn new(
        cin: usize,
        cout: usize,
        dims: (usize, usize, usize),
        modes: (usize, usize, usize),
        rng: &mut impl Rng,
    ) -> Self {
        let kept_d = kept_indices(dims.0, modes.0);
        let kept_h = kept_indices(dims.1, modes.1);
        let kept_w = kept_indices(dims.2, modes.2);
        let shape = [cout, cin, kept_d.len(), kept_h.len(), kept_w.len()];
        // FNO init: scale 1/(cin·cout) keeps early spectra tame.
        let scale = 1.0 / (cin as f32 * cout as f32).sqrt();
        let w_re = Var::parameter(kaiming_uniform(&shape, cin, rng).mul_scalar(scale));
        let w_im = Var::parameter(kaiming_uniform(&shape, cin, rng).mul_scalar(scale));
        SpectralConv3d {
            w_re,
            w_im,
            kept_d,
            kept_h,
            kept_w,
            cin,
            cout,
        }
    }

    /// Number of retained modes `(per-axis counts)`.
    fn mode_counts(&self) -> (usize, usize, usize) {
        (self.kept_d.len(), self.kept_h.len(), self.kept_w.len())
    }

    /// Applies the layer to `[Cin, D, H, W]`, producing `[Cout, D, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics on a channel mismatch or non-power-of-two extents.
    pub fn forward(&self, x: &Var) -> Var {
        let s = x.shape();
        assert_eq!(s[0], self.cin, "SpectralConv3d channel mismatch");
        let (d, h, w) = (s[1], s[2], s[3]);
        let vol = [d, h, w];
        // FFT per input channel.
        let xv = x.value();
        let spectra: Vec<ComplexField> = (0..self.cin)
            .map(|c| {
                let t =
                    Tensor::from_vec(xv.data()[c * d * h * w..(c + 1) * d * h * w].to_vec(), &vol)
                        .expect("channel slice");
                fft3d(&ComplexField::from_real(&t)).expect("fft3d")
            })
            .collect();
        let out = self.mix_and_invert(&spectra, vol);
        // Save the input spectra for the backward pass.
        let kept_d = self.kept_d.clone();
        let kept_h = self.kept_h.clone();
        let kept_w = self.kept_w.clone();
        let (cin, cout) = (self.cin, self.cout);
        let w_re_var = self.w_re.clone();
        let w_im_var = self.w_im.clone();
        Var::from_op(
            out,
            vec![x.clone(), self.w_re.clone(), self.w_im.clone()],
            move |g| {
                let (md, mh, mw) = (kept_d.len(), kept_h.len(), kept_w.len());
                // G_o = ifft3(g_o) for each output channel.
                let g_spectra: Vec<ComplexField> = (0..cout)
                    .map(|o| {
                        let t = Tensor::from_vec(
                            g.data()[o * d * h * w..(o + 1) * d * h * w].to_vec(),
                            &vol,
                        )
                        .expect("grad slice");
                        ifft3d(&ComplexField::from_real(&t)).expect("ifft3d")
                    })
                    .collect();
                let wre = w_re_var.value();
                let wim = w_im_var.value();
                let mut dw_re = Tensor::zeros(&[cout, cin, md, mh, mw]);
                let mut dw_im = Tensor::zeros(&[cout, cin, md, mh, mw]);
                // dX accumulated per input channel as a complex field.
                let mut dx_spectra: Vec<ComplexField> =
                    (0..cin).map(|_| ComplexField::zeros(&vol)).collect();
                for (id, &fd) in kept_d.iter().enumerate() {
                    for (ih, &fh) in kept_h.iter().enumerate() {
                        for (iw, &fw) in kept_w.iter().enumerate() {
                            let flat = (fd * h + fh) * w + fw;
                            for (o, g_spec) in g_spectra.iter().enumerate() {
                                let gv = g_spec.data()[flat];
                                for ci in 0..cin {
                                    let widx = (((o * cin + ci) * md + id) * mh + ih) * mw + iw;
                                    let xv = spectra[ci].data()[flat];
                                    // dW = conj(G · X).
                                    let gx = gv * xv;
                                    dw_re.data_mut()[widx] += gx.re;
                                    dw_im.data_mut()[widx] -= gx.im;
                                    // dX += Wᵀ G (no conjugation).
                                    let wv = Complex::new(wre.data()[widx], wim.data()[widx]);
                                    dx_spectra[ci].data_mut()[flat] += wv * gv;
                                }
                            }
                        }
                    }
                }
                // dx_c = Re(fft3(dX_c)).
                let mut dx = Tensor::zeros(&[cin, d, h, w]);
                for (ci, spec) in dx_spectra.iter().enumerate() {
                    let real = fft3d(spec).expect("fft3d backward").real();
                    dx.data_mut()[ci * d * h * w..(ci + 1) * d * h * w]
                        .copy_from_slice(real.data());
                }
                vec![Some(dx), Some(dw_re), Some(dw_im)]
            },
        )
    }

    /// Applies the spectral weights and inverse transform (forward path).
    fn mix_and_invert(&self, spectra: &[ComplexField], vol: [usize; 3]) -> Tensor {
        let (d, h, w) = (vol[0], vol[1], vol[2]);
        let (md, mh, mw) = self.mode_counts();
        let wre = self.w_re.value();
        let wim = self.w_im.value();
        let mut out = Tensor::zeros(&[self.cout, d, h, w]);
        for o in 0..self.cout {
            let mut mixed = ComplexField::zeros(&vol);
            for (id, &fd) in self.kept_d.iter().enumerate() {
                for (ih, &fh) in self.kept_h.iter().enumerate() {
                    for (iw, &fw) in self.kept_w.iter().enumerate() {
                        let flat = (fd * h + fh) * w + fw;
                        let mut acc = Complex::ZERO;
                        for (ci, spec) in spectra.iter().enumerate() {
                            let widx = (((o * self.cin + ci) * md + id) * mh + ih) * mw + iw;
                            let wv = Complex::new(wre.data()[widx], wim.data()[widx]);
                            acc += wv * spec.data()[flat];
                        }
                        mixed.data_mut()[flat] = acc;
                    }
                }
            }
            let real = ifft3d(&mixed).expect("ifft3d").real();
            out.data_mut()[o * d * h * w..(o + 1) * d * h * w].copy_from_slice(real.data());
        }
        out
    }
}

impl Parameterized for SpectralConv3d {
    fn parameters(&self) -> Vec<Var> {
        vec![self.w_re.clone(), self.w_im.clone()]
    }
}

/// FNO hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnoConfig {
    /// Input volume `(D, H, W)`.
    pub input_dims: (usize, usize, usize),
    /// Lifted channel width.
    pub width: usize,
    /// Retained modes per axis.
    pub modes: (usize, usize, usize),
    /// Number of spectral blocks.
    pub layers: usize,
}

impl FnoConfig {
    /// Experiment-scale defaults.
    pub fn for_grid(input_dims: (usize, usize, usize)) -> Self {
        FnoConfig {
            input_dims,
            width: 10,
            modes: (3, 6, 6),
            layers: 3,
        }
    }
}

/// The 3-D Fourier Neural Operator.
pub struct Fno {
    lift: Linear,
    blocks: Vec<(SpectralConv3d, Linear)>,
    project: Linear,
    config: FnoConfig,
}

impl Fno {
    /// Builds the operator.
    pub fn new(config: FnoConfig, rng: &mut impl Rng) -> Self {
        let w = config.width;
        let blocks = (0..config.layers)
            .map(|_| {
                (
                    SpectralConv3d::new(w, w, config.input_dims, config.modes, rng),
                    Linear::new(w, w, rng),
                )
            })
            .collect();
        Fno {
            lift: Linear::new(1, w, rng),
            blocks,
            project: Linear::new(w, 1, rng),
            config,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &FnoConfig {
        &self.config
    }
}

/// Applies a per-voxel linear layer to a `[C, D, H, W]` volume.
pub(crate) fn pointwise(x: &Var, lin: &Linear) -> Var {
    let s = x.shape();
    let (c, l) = (s[0], s[1] * s[2] * s[3]);
    let seq = x.reshape(&[c, l]).permute(&[1, 0]);
    let out = lin.forward(&seq);
    let co = out.shape()[1];
    out.permute(&[1, 0]).reshape(&[co, s[1], s[2], s[3]])
}

impl Parameterized for Fno {
    fn parameters(&self) -> Vec<Var> {
        let mut p = self.lift.parameters();
        for (s, l) in &self.blocks {
            p.extend(s.parameters());
            p.extend(l.parameters());
        }
        p.extend(self.project.parameters());
        p
    }
}

impl PebPredictor for Fno {
    fn name(&self) -> &'static str {
        "FNO"
    }

    fn forward_train(&self, acid: &Tensor) -> Var {
        let (d, h, w) = self.config.input_dims;
        assert_eq!(acid.shape(), [d, h, w], "FNO input dims mismatch");
        let x = Var::constant(acid.reshape(&[1, d, h, w]).expect("lift reshape"));
        let mut f = pointwise(&x, &self.lift);
        for (spectral, bypass) in &self.blocks {
            let s = spectral.forward(&f);
            let b = pointwise(&f, bypass);
            f = s.add(&b).gelu();
        }
        let out = pointwise(&f, &self.project); // [1, D, H, W]
        out.reshape(&[d, h, w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kept_indices_symmetric() {
        assert_eq!(kept_indices(8, 2), vec![0, 1, 7]);
        assert_eq!(kept_indices(8, 3), vec![0, 1, 2, 6, 7]);
        // Clamped to available frequencies.
        assert_eq!(kept_indices(4, 8), vec![0, 1, 3]);
    }

    #[test]
    fn spectral_conv_shapes() {
        let mut rng = StdRng::seed_from_u64(140);
        let sc = SpectralConv3d::new(2, 3, (4, 8, 8), (2, 2, 2), &mut rng);
        let x = Var::constant(Tensor::randn(&[2, 4, 8, 8], &mut rng));
        let y = sc.forward(&x);
        assert_eq!(y.shape(), vec![3, 4, 8, 8]);
        assert!(y.value().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn spectral_conv_is_translation_equivariant() {
        // Fourier filters commute with (circular) translation.
        let mut rng = StdRng::seed_from_u64(141);
        let sc = SpectralConv3d::new(1, 1, (2, 8, 8), (1, 3, 3), &mut rng);
        let x = Tensor::randn(&[1, 2, 8, 8], &mut rng);
        let y = sc.forward(&Var::constant(x.clone())).value_clone();
        // Roll x by 2 along W.
        let mut xr = Tensor::zeros(&[1, 2, 8, 8]);
        for dz in 0..2 {
            for yy in 0..8 {
                for xx in 0..8 {
                    xr.set(&[0, dz, yy, (xx + 2) % 8], x.get(&[0, dz, yy, xx]));
                }
            }
        }
        let yr = sc.forward(&Var::constant(xr)).value_clone();
        for dz in 0..2 {
            for yy in 0..8 {
                for xx in 0..8 {
                    let a = y.get(&[0, dz, yy, xx]);
                    let b = yr.get(&[0, dz, yy, (xx + 2) % 8]);
                    assert!((a - b).abs() < 1e-3, "equivariance broken: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn spectral_conv_gradcheck_input() {
        let mut rng = StdRng::seed_from_u64(142);
        let sc = SpectralConv3d::new(1, 1, (2, 4, 4), (1, 2, 2), &mut rng);
        let x0 = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let r = peb_tensor::check_gradients(
            &Var::parameter(x0),
            |v| sc.forward(v).square().sum(),
            1e-2,
        );
        assert!(r.ok(3e-2), "{r:?}");
    }

    #[test]
    fn spectral_conv_gradcheck_weights() {
        let mut rng = StdRng::seed_from_u64(143);
        let sc = SpectralConv3d::new(1, 1, (2, 4, 4), (1, 2, 2), &mut rng);
        let x = Var::constant(Tensor::randn(&[1, 2, 4, 4], &mut rng));
        for (label, var) in [("w_re", &sc.w_re), ("w_im", &sc.w_im)] {
            let w0 = var.value_clone();
            let numeric = peb_tensor::numeric_gradient(
                &w0,
                |v| {
                    var.set_value(v.value_clone());
                    sc.forward(&x).square().sum()
                },
                1e-2,
            );
            var.set_value(w0);
            var.zero_grad();
            sc.forward(&x).square().sum().backward();
            let analytic = var.grad().unwrap();
            let mut max_rel = 0f32;
            for (a, n) in analytic.data().iter().zip(numeric.data()) {
                max_rel = max_rel.max((a - n).abs() / 1f32.max(a.abs()).max(n.abs()));
            }
            assert!(max_rel < 3e-2, "{label}: rel err {max_rel}");
        }
    }

    #[test]
    fn fno_end_to_end() {
        let mut rng = StdRng::seed_from_u64(144);
        let model = Fno::new(
            FnoConfig {
                input_dims: (2, 8, 8),
                width: 4,
                modes: (1, 2, 2),
                layers: 2,
            },
            &mut rng,
        );
        let acid = Tensor::rand_uniform(&[2, 8, 8], 0.0, 0.9, &mut rng);
        let y = model.predict(&acid);
        assert_eq!(y.shape(), &[2, 8, 8]);
        model.forward_train(&acid).square().sum().backward();
        assert!(model.parameters().iter().all(|p| p.grad().is_some()));
    }
}
