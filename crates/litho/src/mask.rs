//! Contact-layer mask clip generation.
//!
//! The paper uses 100 proprietary 2×2 µm² mask clips "designed with contact
//! sizes and distribution patterns suitable for technology nodes at 28 nm
//! and below" [42]. This module is the synthetic replacement: a rule-driven
//! generator that produces contact-hole layouts in the same family —
//! regular arrays, staggered arrays, random placements and mixtures — under
//! a minimum-spacing design rule, with every clip reproducible from a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use peb_tensor::Tensor;

use crate::{LithoError, Result};

/// Layout family of a generated clip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClipStyle {
    /// Contacts on a regular grid with small positional jitter.
    RegularArray,
    /// Regular rows with alternate rows offset by half a pitch.
    Staggered,
    /// Rejection-sampled random placement under the spacing rule.
    Random,
    /// Style chosen per clip from the other three (dataset diversity).
    Mixed,
}

/// A rectangular contact hole, in pixel coordinates of the clip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Contact {
    /// Centre row (y), in pixels.
    pub cy: f32,
    /// Centre column (x), in pixels.
    pub cx: f32,
    /// Opening width along x, in pixels.
    pub w: f32,
    /// Opening height along y, in pixels.
    pub h: f32,
}

/// A generated mask clip: transmission pattern plus contact bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaskClip {
    /// `[H, W]` transmission: 1.0 inside contact openings, 0.0 elsewhere.
    pub pattern: Tensor,
    /// The placed contacts (used later by CD metrology).
    pub contacts: Vec<Contact>,
    /// Style actually used (resolved from [`ClipStyle::Mixed`]).
    pub style: ClipStyle,
    /// Seed the clip was generated from.
    pub seed: u64,
}

/// Generator configuration.
///
/// All physical lengths are in pixels of the target grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaskConfig {
    /// Clip edge length in pixels (square clips, matching the paper).
    pub size: usize,
    /// Contact opening edge length in pixels.
    pub contact_px: f32,
    /// Centre-to-centre pitch for array styles, in pixels.
    pub pitch_px: f32,
    /// Minimum edge-to-edge spacing rule, in pixels.
    pub min_space_px: f32,
    /// Probability that an array site is populated (dense vs sparse).
    pub fill_probability: f64,
    /// Relative size jitter (± fraction of `contact_px`).
    pub size_jitter: f32,
    /// Positional jitter for array styles, in pixels.
    pub pos_jitter: f32,
    /// Layout family.
    pub style: ClipStyle,
}

impl MaskConfig {
    /// A 28 nm-class contact layer for a clip of `size` pixels at 4 nm/px:
    /// 60 nm contacts on a 120 nm pitch for 64-px-and-larger clips, scaled
    /// down proportionally for smaller demo grids.
    pub fn demo(size: usize) -> Self {
        let scale = (size as f32 / 64.0).min(1.0);
        MaskConfig {
            size,
            contact_px: 15.0 * scale,
            pitch_px: 30.0 * scale,
            min_space_px: 10.0 * scale,
            fill_probability: 0.7,
            size_jitter: 0.15,
            pos_jitter: 1.5 * scale,
            style: ClipStyle::Mixed,
        }
    }

    /// Builds a configuration from physical dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::Config`] if `dx_nm` is non-positive.
    #[cfg(test)]
    fn from_nm(
        size: usize,
        dx_nm: f32,
        contact_nm: f32,
        pitch_nm: f32,
        min_space_nm: f32,
        style: ClipStyle,
    ) -> Result<Self> {
        if dx_nm <= 0.0 {
            return Err(LithoError::Config {
                detail: format!("dx_nm must be positive, got {dx_nm}"),
            });
        }
        Ok(MaskConfig {
            size,
            contact_px: contact_nm / dx_nm,
            pitch_px: pitch_nm / dx_nm,
            min_space_px: min_space_nm / dx_nm,
            fill_probability: 0.7,
            size_jitter: 0.15,
            pos_jitter: 1.5,
            style,
        })
    }

    /// Generates a clip from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`LithoError::Config`] for degenerate configurations and
    /// [`LithoError::Layout`] if no contact can be placed.
    pub fn generate(&self, seed: u64) -> Result<MaskClip> {
        if self.size == 0 || self.contact_px <= 0.0 || self.pitch_px <= self.contact_px {
            return Err(LithoError::Config {
                detail: format!(
                    "degenerate mask config: size={} contact={} pitch={}",
                    self.size, self.contact_px, self.pitch_px
                ),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let style = match self.style {
            ClipStyle::Mixed => match rng.gen_range(0..3) {
                0 => ClipStyle::RegularArray,
                1 => ClipStyle::Staggered,
                _ => ClipStyle::Random,
            },
            s => s,
        };
        let place = |rng: &mut StdRng| match style {
            ClipStyle::RegularArray => self.array_contacts(rng, false),
            ClipStyle::Staggered => self.array_contacts(rng, true),
            ClipStyle::Random => self.random_contacts(rng),
            ClipStyle::Mixed => unreachable!("resolved above"),
        };
        let mut contacts = place(&mut rng);
        // Sparse fills on small clips can leave every array site
        // unpopulated (e.g. the Staggered family at seed 1011). Re-roll
        // placement from retry streams derived from the seed — still
        // reproducible, and seeds that succeed first try are unaffected.
        let mut attempt = 0u64;
        while contacts.is_empty() && attempt < 16 {
            attempt += 1;
            let mut retry =
                StdRng::seed_from_u64(seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            contacts = place(&mut retry);
        }
        if contacts.is_empty() {
            // Geometrically empty (no site fits inside the margins, so no
            // amount of re-rolling helps): fall back to one centred
            // contact when the clip can hold it at all.
            let centre = self.size as f32 * 0.5;
            if self.contact_px < self.size as f32 {
                contacts.push(Contact {
                    cy: centre,
                    cx: centre,
                    w: self.contact_px,
                    h: self.contact_px,
                });
            } else {
                return Err(LithoError::Layout {
                    detail: format!("no contacts placeable for style {style:?} seed {seed}"),
                });
            }
        }
        let pattern = rasterise(self.size, &contacts);
        Ok(MaskClip {
            pattern,
            contacts,
            style,
            seed,
        })
    }

    /// Margin that keeps whole contacts (plus jitter) inside the clip.
    fn margin(&self) -> f32 {
        self.contact_px * 0.5 * (1.0 + self.size_jitter) + self.pos_jitter + 1.0
    }

    fn array_contacts(&self, rng: &mut StdRng, staggered: bool) -> Vec<Contact> {
        let mut out = Vec::new();
        let pitch = self.pitch_px;
        let margin = self.margin();
        let mut row = 0usize;
        let mut cy = margin + self.contact_px * 0.5;
        while cy < self.size as f32 - margin {
            let offset = if staggered && row % 2 == 1 {
                pitch * 0.5
            } else {
                0.0
            };
            let mut cx = margin + self.contact_px * 0.5 + offset;
            while cx < self.size as f32 - margin {
                if rng.gen_bool(self.fill_probability) {
                    out.push(self.jittered_contact(rng, cy, cx));
                }
                cx += pitch;
            }
            cy += pitch;
            row += 1;
        }
        out
    }

    fn random_contacts(&self, rng: &mut StdRng) -> Vec<Contact> {
        // Aim for a density comparable to the arrays, thinned a little so
        // rejection sampling converges.
        let cell = self.pitch_px * self.pitch_px;
        let target =
            ((self.size * self.size) as f64 / cell as f64 * self.fill_probability * 0.8) as usize;
        let margin = self.margin();
        let mut out: Vec<Contact> = Vec::new();
        let mut attempts = 0usize;
        while out.len() < target.max(1) && attempts < target.max(1) * 60 {
            attempts += 1;
            let cy = rng.gen_range(margin..self.size as f32 - margin);
            let cx = rng.gen_range(margin..self.size as f32 - margin);
            let cand = self.jittered_contact(rng, cy, cx);
            let ok = out.iter().all(|c| {
                let gap_x = (c.cx - cand.cx).abs() - (c.w + cand.w) * 0.5;
                let gap_y = (c.cy - cand.cy).abs() - (c.h + cand.h) * 0.5;
                gap_x.max(gap_y) >= self.min_space_px
            });
            if ok {
                out.push(cand);
            }
        }
        out
    }

    fn jittered_contact(&self, rng: &mut StdRng, cy: f32, cx: f32) -> Contact {
        let jit = |rng: &mut StdRng| rng.gen_range(-self.pos_jitter..=self.pos_jitter);
        let size = |rng: &mut StdRng| {
            self.contact_px * (1.0 + rng.gen_range(-self.size_jitter..=self.size_jitter))
        };
        Contact {
            cy: cy + jit(rng),
            cx: cx + jit(rng),
            w: size(rng),
            h: size(rng),
        }
    }
}

/// Rasterises contacts into a binary `[size, size]` transmission map with
/// linear anti-aliasing at the edges (sub-pixel contact sizes matter at
/// 4 nm pixels).
fn rasterise(size: usize, contacts: &[Contact]) -> Tensor {
    let mut t = Tensor::zeros(&[size, size]);
    let data = t.data_mut();
    for c in contacts {
        let y0 = c.cy - c.h * 0.5;
        let y1 = c.cy + c.h * 0.5;
        let x0 = c.cx - c.w * 0.5;
        let x1 = c.cx + c.w * 0.5;
        let iy0 = y0.floor().max(0.0) as usize;
        let iy1 = (y1.ceil() as usize).min(size);
        let ix0 = x0.floor().max(0.0) as usize;
        let ix1 = (x1.ceil() as usize).min(size);
        for y in iy0..iy1 {
            // Coverage of pixel [y, y+1) by [y0, y1).
            let cov_y = (y1.min(y as f32 + 1.0) - y0.max(y as f32)).clamp(0.0, 1.0);
            for x in ix0..ix1 {
                let cov_x = (x1.min(x as f32 + 1.0) - x0.max(x as f32)).clamp(0.0, 1.0);
                let idx = y * size + x;
                data[idx] = (data[idx] + cov_y * cov_x).min(1.0);
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_reproducible() {
        let cfg = MaskConfig::demo(64);
        let a = cfg.generate(3).unwrap();
        let b = cfg.generate(3).unwrap();
        assert_eq!(a, b);
        let c = cfg.generate(4).unwrap();
        assert_ne!(a.pattern, c.pattern);
    }

    #[test]
    fn pattern_is_normalised_transmission() {
        let clip = MaskConfig::demo(64).generate(1).unwrap();
        assert_eq!(clip.pattern.shape(), &[64, 64]);
        assert!(clip.pattern.min_value() >= 0.0);
        assert!(clip.pattern.max_value() <= 1.0);
        assert!(clip.pattern.sum() > 0.0);
    }

    #[test]
    fn contact_area_matches_pattern_mass() {
        let mut cfg = MaskConfig::demo(64);
        cfg.style = ClipStyle::RegularArray;
        cfg.size_jitter = 0.0;
        cfg.pos_jitter = 0.0;
        cfg.fill_probability = 1.0;
        let clip = cfg.generate(5).unwrap();
        let expect: f32 = clip.contacts.iter().map(|c| c.w * c.h).sum();
        assert!(
            (clip.pattern.sum() - expect).abs() / expect < 0.02,
            "mass {} vs expected {expect}",
            clip.pattern.sum()
        );
    }

    #[test]
    fn random_respects_spacing_rule() {
        let mut cfg = MaskConfig::demo(128);
        cfg.style = ClipStyle::Random;
        let clip = cfg.generate(11).unwrap();
        for (i, a) in clip.contacts.iter().enumerate() {
            for b in clip.contacts.iter().skip(i + 1) {
                let gap_x = (a.cx - b.cx).abs() - (a.w + b.w) * 0.5;
                let gap_y = (a.cy - b.cy).abs() - (a.h + b.h) * 0.5;
                assert!(
                    gap_x.max(gap_y) >= cfg.min_space_px - 1e-3,
                    "contacts {i} violate spacing"
                );
            }
        }
    }

    #[test]
    fn staggered_offsets_alternate_rows() {
        let mut cfg = MaskConfig::demo(128);
        cfg.style = ClipStyle::Staggered;
        cfg.pos_jitter = 0.0;
        cfg.fill_probability = 1.0;
        let clip = cfg.generate(2).unwrap();
        // Collect distinct row (cy) values and check alternate x offsets.
        let mut rows: Vec<f32> = clip.contacts.iter().map(|c| c.cy).collect();
        rows.sort_by(f32::total_cmp);
        rows.dedup_by(|a, b| (*a - *b).abs() < 1e-3);
        assert!(rows.len() >= 2, "need at least two rows");
        let min_x = |row: f32| {
            clip.contacts
                .iter()
                .filter(|c| (c.cy - row).abs() < 1e-3)
                .map(|c| c.cx)
                .fold(f32::INFINITY, f32::min)
        };
        let d = (min_x(rows[0]) - min_x(rows[1])).abs();
        assert!((d - cfg.pitch_px * 0.5).abs() < 1e-3, "offset {d}");
    }

    #[test]
    fn every_seed_in_dataset_range_yields_contacts() {
        // Seeds 1011 (Staggered) and 1049 (RegularArray) used to place
        // zero contacts and abort table2 dataset generation. Sweep the
        // dataset seed range across sizes and styles: every clip must
        // come back non-empty, and retried clips must stay reproducible.
        for size in [48usize, 64] {
            for style in [
                ClipStyle::RegularArray,
                ClipStyle::Staggered,
                ClipStyle::Random,
                ClipStyle::Mixed,
            ] {
                let mut cfg = MaskConfig::demo(size);
                cfg.style = style;
                for seed in 1000..1100u64 {
                    let clip = cfg
                        .generate(seed)
                        .unwrap_or_else(|e| panic!("{style:?} size {size} seed {seed}: {e}"));
                    assert!(!clip.contacts.is_empty());
                    assert_eq!(
                        clip,
                        cfg.generate(seed).unwrap(),
                        "seed {seed} reproducible"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_config_rejected() {
        let mut cfg = MaskConfig::demo(64);
        cfg.pitch_px = cfg.contact_px; // holes would merge
        assert!(matches!(cfg.generate(0), Err(LithoError::Config { .. })));
    }

    #[test]
    fn from_nm_conversion() {
        let cfg = MaskConfig::from_nm(64, 4.0, 60.0, 120.0, 40.0, ClipStyle::RegularArray).unwrap();
        assert_eq!(cfg.contact_px, 15.0);
        assert_eq!(cfg.pitch_px, 30.0);
        assert_eq!(cfg.min_space_px, 10.0);
        assert!(MaskConfig::from_nm(64, 0.0, 60.0, 120.0, 40.0, ClipStyle::Random).is_err());
    }
}
