//! Evaluation metrics (paper §II-C, Eqs. 12–14).

use peb_litho::ContactCd;
use peb_tensor::Tensor;

/// Root mean squared error `√(‖P̂ − P‖² / n)` (Eq. 12).
///
/// # Panics
///
/// Panics on shape mismatch or empty tensors.
pub fn rmse(pred: &Tensor, truth: &Tensor) -> f32 {
    assert_eq!(pred.shape(), truth.shape(), "rmse shape mismatch");
    assert!(!pred.is_empty(), "rmse of empty tensors");
    let mut acc = 0f64;
    for (a, b) in pred.data().iter().zip(truth.data()) {
        let e = (a - b) as f64;
        acc += e * e;
    }
    ((acc / pred.len() as f64) as f32).sqrt()
}

/// Normalised RMSE `‖P̂ − P‖_F / ‖P‖_F` (Eq. 13), as a fraction (multiply
/// by 100 for the paper's percentages).
///
/// # Panics
///
/// Panics on shape mismatch or an all-zero reference.
pub fn nrmse(pred: &Tensor, truth: &Tensor) -> f32 {
    assert_eq!(pred.shape(), truth.shape(), "nrmse shape mismatch");
    let mut num = 0f64;
    let mut den = 0f64;
    for (a, b) in pred.data().iter().zip(truth.data()) {
        let e = (a - b) as f64;
        num += e * e;
        den += (*b as f64) * (*b as f64);
    }
    assert!(den > 0.0, "nrmse reference norm is zero");
    (num / den).sqrt() as f32
}

/// Mean structural similarity between two `[Z, Y, X]` volumes, averaged
/// over per-z-slice SSIM maps computed with an 8×8 uniform window
/// (stride 1, interior windows only; slices smaller than the window
/// fall back to one full-slice window).
///
/// Uses the standard constants `C1 = (0.01·L)²`, `C2 = (0.03·L)²` with
/// the dynamic range `L` taken from the reference volume's value span
/// (`max − min`, floored at a tiny epsilon so constant volumes compare
/// equal → SSIM 1). Identical volumes score exactly 1; the score falls
/// toward 0 as structure decorrelates. This is the fidelity metric the
/// litho-simulation literature reports alongside RMSE, and the one the
/// checkpoint-quantization audit (`QuantBudgets`) consumes.
///
/// # Panics
///
/// Panics on shape mismatch, non-3-D input, or empty tensors.
pub fn ssim(pred: &Tensor, truth: &Tensor) -> f32 {
    assert_eq!(pred.shape(), truth.shape(), "ssim shape mismatch");
    assert_eq!(pred.rank(), 3, "ssim expects [Z, Y, X] volumes");
    assert!(!pred.is_empty(), "ssim of empty tensors");
    let (nz, ny, nx) = (pred.shape()[0], pred.shape()[1], pred.shape()[2]);
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in truth.data() {
        lo = lo.min(v as f64);
        hi = hi.max(v as f64);
    }
    let range = (hi - lo).max(1e-12);
    let c1 = (0.01 * range) * (0.01 * range);
    let c2 = (0.03 * range) * (0.03 * range);
    const WIN: usize = 8;
    let (wy, wx) = (WIN.min(ny), WIN.min(nx));
    let inv_n = 1.0 / (wy * wx) as f64;
    let plane = ny * nx;
    let mut acc = 0f64;
    let mut windows = 0u64;
    for z in 0..nz {
        let p = &pred.data()[z * plane..(z + 1) * plane];
        let t = &truth.data()[z * plane..(z + 1) * plane];
        for y0 in 0..=(ny - wy) {
            for x0 in 0..=(nx - wx) {
                let (mut sp, mut st, mut spp, mut stt, mut spt) = (0f64, 0f64, 0f64, 0f64, 0f64);
                for y in y0..y0 + wy {
                    for x in x0..x0 + wx {
                        let a = p[y * nx + x] as f64;
                        let b = t[y * nx + x] as f64;
                        sp += a;
                        st += b;
                        spp += a * a;
                        stt += b * b;
                        spt += a * b;
                    }
                }
                let (mp, mt) = (sp * inv_n, st * inv_n);
                let vp = (spp * inv_n - mp * mp).max(0.0);
                let vt = (stt * inv_n - mt * mt).max(0.0);
                let cov = spt * inv_n - mp * mt;
                let s = ((2.0 * mp * mt + c1) * (2.0 * cov + c2))
                    / ((mp * mp + mt * mt + c1) * (vp + vt + c2));
                acc += s;
                windows += 1;
            }
        }
    }
    (acc / windows as f64) as f32
}

/// Per-axis CD error statistics across a set of contacts (Eq. 14).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CdErrorStats {
    /// RMS CD error in x (nm).
    pub x_nm: f32,
    /// RMS CD error in y (nm).
    pub y_nm: f32,
    /// Number of contact pairs measured.
    pub count: usize,
}

/// Computes `CD Error_d = √(mean (ĈD_d − CD_d)²)` over all contacts that
/// are open in the reference profile (Eq. 14). A predicted-closed contact
/// contributes its full reference CD as error.
pub fn cd_error_nm(pred: &[ContactCd], truth: &[ContactCd]) -> CdErrorStats {
    let mut sx = 0f64;
    let mut sy = 0f64;
    let mut n = 0usize;
    for (p, t) in pred.iter().zip(truth) {
        if !t.open {
            continue;
        }
        let ex = (p.cd_x_nm - t.cd_x_nm) as f64;
        let ey = (p.cd_y_nm - t.cd_y_nm) as f64;
        sx += ex * ex;
        sy += ey * ey;
        n += 1;
    }
    if n == 0 {
        return CdErrorStats::default();
    }
    CdErrorStats {
        x_nm: ((sx / n as f64) as f32).sqrt(),
        y_nm: ((sy / n as f64) as f32).sqrt(),
        count: n,
    }
}

/// Bucket labels of the paper's Fig. 7 histogram.
pub const CD_BUCKET_LABELS: [&str; 5] = ["0~1", "1~2", "2~3", "3~4", ">4"];

/// Histograms per-contact absolute CD errors into the Fig. 7 buckets
/// (0–1, 1–2, 2–3, 3–4, >4 nm), returning `(x_buckets, y_buckets)` as
/// percentages.
pub fn cd_histogram(pred: &[ContactCd], truth: &[ContactCd]) -> ([f32; 5], [f32; 5]) {
    let mut bx = [0usize; 5];
    let mut by = [0usize; 5];
    let mut n = 0usize;
    for (p, t) in pred.iter().zip(truth) {
        if !t.open {
            continue;
        }
        n += 1;
        bx[bucket((p.cd_x_nm - t.cd_x_nm).abs())] += 1;
        by[bucket((p.cd_y_nm - t.cd_y_nm).abs())] += 1;
    }
    let to_pct = |b: [usize; 5]| {
        let mut out = [0f32; 5];
        if n > 0 {
            for (o, c) in out.iter_mut().zip(b) {
                *o = 100.0 * c as f32 / n as f32;
            }
        }
        out
    };
    (to_pct(bx), to_pct(by))
}

fn bucket(err_nm: f32) -> usize {
    match err_nm {
        e if e < 1.0 => 0,
        e if e < 2.0 => 1,
        e if e < 3.0 => 2,
        e if e < 4.0 => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cd(x: f32, y: f32, open: bool) -> ContactCd {
        ContactCd {
            cd_x_nm: x,
            cd_y_nm: y,
            open,
            centre: (0, 0),
        }
    }

    #[test]
    fn rmse_known_value() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![0.0, 0.0], &[2]).unwrap();
        assert!((rmse(&a, &b) - (2.5f32).sqrt()).abs() < 1e-6);
        assert_eq!(rmse(&a, &a), 0.0);
    }

    #[test]
    fn nrmse_scale_invariance() {
        let truth = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let pred = Tensor::from_vec(vec![1.1, 2.2, 3.3], &[3]).unwrap();
        let base = nrmse(&pred, &truth);
        let scaled = nrmse(&pred.mul_scalar(10.0), &truth.mul_scalar(10.0));
        assert!((base - scaled).abs() < 1e-6);
        assert!((base - 0.1).abs() < 1e-5);
    }

    #[test]
    fn ssim_bounds_and_sensitivity() {
        let v = Tensor::from_fn(&[3, 12, 12], |i| ((i * 37) % 97) as f32 / 97.0);
        // Identity scores exactly 1.
        assert!((ssim(&v, &v) - 1.0).abs() < 1e-6);
        // Mild noise stays high but below 1; gross distortion falls
        // well below the mild score.
        let mild = v.map(|x| x + 0.01 * (x * 31.0).sin());
        let gross = v.map(|x| 1.0 - x);
        let s_mild = ssim(&mild, &v);
        let s_gross = ssim(&gross, &v);
        assert!(s_mild < 1.0 && s_mild > 0.9, "mild {s_mild}");
        assert!(s_gross < s_mild - 0.2, "gross {s_gross} vs mild {s_mild}");
        // Constant volumes (zero range) compare equal.
        let flat = Tensor::full(&[2, 4, 4], 0.5);
        assert!((ssim(&flat, &flat) - 1.0).abs() < 1e-6);
        // Slices smaller than the window still work.
        let tiny = Tensor::from_fn(&[2, 3, 5], |i| i as f32);
        assert!((ssim(&tiny, &tiny) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cd_error_rms_over_open_contacts() {
        let truth = vec![
            cd(60.0, 60.0, true),
            cd(62.0, 58.0, true),
            cd(0.0, 0.0, false),
        ];
        let pred = vec![
            cd(61.0, 60.0, true),
            cd(59.0, 58.0, true),
            cd(50.0, 50.0, true),
        ];
        let stats = cd_error_nm(&pred, &truth);
        assert_eq!(stats.count, 2);
        // x errors: 1, −3 → RMS √5; y errors: 0, 0.
        assert!((stats.x_nm - 5f32.sqrt()).abs() < 1e-5);
        assert_eq!(stats.y_nm, 0.0);
    }

    #[test]
    fn predicted_closed_counts_as_full_error() {
        let truth = vec![cd(60.0, 60.0, true)];
        let pred = vec![cd(0.0, 0.0, false)];
        let stats = cd_error_nm(&pred, &truth);
        assert_eq!(stats.x_nm, 60.0);
    }

    #[test]
    fn histogram_buckets_and_percentages() {
        let truth = vec![
            cd(60.0, 60.0, true),
            cd(60.0, 60.0, true),
            cd(60.0, 60.0, true),
            cd(60.0, 60.0, true),
        ];
        let pred = vec![
            cd(60.5, 60.0, true), // 0–1
            cd(61.5, 62.5, true), // 1–2 (x), 2–3 (y)
            cd(63.5, 60.0, true), // 3–4
            cd(70.0, 66.0, true), // >4
        ];
        let (hx, hy) = cd_histogram(&pred, &truth);
        assert_eq!(hx, [25.0, 25.0, 0.0, 25.0, 25.0]);
        assert_eq!(hy, [50.0, 0.0, 25.0, 0.0, 25.0]);
        assert!((hx.iter().sum::<f32>() - 100.0).abs() < 1e-4);
    }

    #[test]
    fn empty_truth_yields_zeroes() {
        let stats = cd_error_nm(&[], &[]);
        assert_eq!(stats.count, 0);
        let (hx, _) = cd_histogram(&[], &[]);
        assert_eq!(hx, [0.0; 5]);
    }
}
