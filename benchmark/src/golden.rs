//! Committed golden probes and the tolerance compare.
//!
//! A probe condenses one output volume into 64 fixed voxels plus its
//! mean, L2 norm and range. The inputs behind the golden files are the
//! *canary* inputs (a fixed seed, independent of `--seed`), which every
//! run computes as its warm-up ops; see `README.md`, "Verification".

use std::path::{Path, PathBuf};

use crate::json::{obj, Json};

pub const PROBE_VOXELS: usize = 64;
/// Allowed deviation as a share of the golden output's range.
pub const VOLUME_TOL: f64 = 1e-3;
pub const CD_TOL_NM: f64 = 0.5;
pub const LOSS_REL_TOL: f64 = 0.01;

#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    pub len: usize,
    pub voxels: Vec<f64>,
    pub mean: f64,
    pub l2: f64,
    pub min: f64,
    pub max: f64,
}

/// The `k`-th probed index of a volume of `len` voxels: a fixed
/// multiplicative-hash walk, so probes spread over the whole volume and
/// never move between runs.
fn probe_index(k: usize, len: usize) -> usize {
    ((k as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) % len as u64) as usize
}

impl Probe {
    pub fn of(data: &[f32]) -> Probe {
        assert!(!data.is_empty(), "probe of an empty volume");
        let len = data.len();
        let (mut sum, mut sq) = (0.0f64, 0.0f64);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in data {
            let v = f64::from(v);
            sum += v;
            sq += v * v;
            min = min.min(v);
            max = max.max(v);
        }
        Probe {
            len,
            voxels: (0..PROBE_VOXELS)
                .map(|k| f64::from(data[probe_index(k, len)]))
                .collect(),
            mean: sum / len as f64,
            l2: sq.sqrt(),
            min,
            max,
        }
    }

    pub fn is_finite(&self) -> bool {
        self.l2.is_finite() && self.mean.is_finite()
    }

    /// Checks `self` (measured) against `golden` within `tol` of the
    /// golden range.
    pub fn matches(&self, golden: &Probe, tol: f64) -> Result<(), String> {
        if !self.is_finite() {
            return Err("output is not finite".into());
        }
        if self.len != golden.len {
            return Err(format!("length {} != golden {}", self.len, golden.len));
        }
        let band = tol * (golden.max - golden.min).max(f64::MIN_POSITIVE);
        for (k, (a, g)) in self.voxels.iter().zip(&golden.voxels).enumerate() {
            if (a - g).abs() > band {
                return Err(format!(
                    "voxel probe {k} (index {}): {a} vs golden {g}, band {band:.3e}",
                    probe_index(k, self.len)
                ));
            }
        }
        if (self.mean - golden.mean).abs() > band {
            return Err(format!("mean {} vs golden {}", self.mean, golden.mean));
        }
        // Every voxel off by `band` moves the norm by at most band·√len.
        let l2_band = band * (self.len as f64).sqrt();
        if (self.l2 - golden.l2).abs() > l2_band {
            return Err(format!("L2 {} vs golden {}", self.l2, golden.l2));
        }
        Ok(())
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("len", Json::Num(self.len as f64)),
            (
                "voxels",
                Json::Arr(self.voxels.iter().map(|&v| Json::Num(v)).collect()),
            ),
            ("mean", Json::Num(self.mean)),
            ("l2", Json::Num(self.l2)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Probe, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("golden probe lacks number {k:?}"))
        };
        let voxels = j
            .get("voxels")
            .and_then(Json::as_f64_vec)
            .filter(|v| v.len() == PROBE_VOXELS)
            .ok_or("golden probe lacks 64 voxels")?;
        Ok(Probe {
            len: num("len")? as usize,
            voxels,
            mean: num("mean")?,
            l2: num("l2")?,
            min: num("min")?,
            max: num("max")?,
        })
    }
}

/// One measured contact: `(cd_x_nm, cd_y_nm, open)`.
pub type Cd = (f64, f64, bool);

pub fn cds_match(measured: &[Cd], golden: &[Cd]) -> Result<(), String> {
    if measured.len() != golden.len() {
        return Err(format!(
            "{} contacts vs golden {}",
            measured.len(),
            golden.len()
        ));
    }
    for (i, (m, g)) in measured.iter().zip(golden).enumerate() {
        if m.2 != g.2 {
            return Err(format!("contact {i}: open={} vs golden {}", m.2, g.2));
        }
        if (m.0 - g.0).abs() > CD_TOL_NM || (m.1 - g.1).abs() > CD_TOL_NM {
            return Err(format!(
                "contact {i}: CD ({}, {}) nm vs golden ({}, {}) nm",
                m.0, m.1, g.0, g.1
            ));
        }
    }
    Ok(())
}

pub fn cds_to_json(cds: &[Cd]) -> Json {
    Json::Arr(
        cds.iter()
            .map(|&(x, y, open)| {
                obj([
                    ("cd_x_nm", Json::Num(x)),
                    ("cd_y_nm", Json::Num(y)),
                    ("open", Json::Bool(open)),
                ])
            })
            .collect(),
    )
}

pub fn cds_from_json(j: &Json) -> Result<Vec<Cd>, String> {
    j.as_arr()
        .ok_or("golden CDs are not an array")?
        .iter()
        .map(|c| {
            let n = |k: &str| c.get(k).and_then(Json::as_f64);
            match (n("cd_x_nm"), n("cd_y_nm"), c.get("open")) {
                (Some(x), Some(y), Some(Json::Bool(open))) => Ok((x, y, *open)),
                _ => Err("malformed golden contact".to_string()),
            }
        })
        .collect()
}

pub fn loss_matches(measured: f64, golden: f64) -> Result<(), String> {
    if !measured.is_finite() {
        return Err(format!("loss {measured} is not finite"));
    }
    if (measured - golden).abs() > LOSS_REL_TOL * golden.abs() {
        return Err(format!(
            "loss {measured} vs golden {golden} (> {LOSS_REL_TOL:.0e} rel)"
        ));
    }
    Ok(())
}

/// `benchmark/golden/<workload>.json`, next to this crate's manifest in
/// whichever checkout the binary was built from.
pub fn path(bench_dir: &Path, workload: &str) -> PathBuf {
    bench_dir.join("golden").join(format!("{workload}.json"))
}

pub fn load(bench_dir: &Path, workload: &str) -> Result<Json, String> {
    let p = path(bench_dir, workload);
    let text = std::fs::read_to_string(&p).map_err(|e| {
        format!(
            "cannot read {} ({e}); create it with --regen-golden",
            p.display()
        )
    })?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
}

pub fn store(bench_dir: &Path, workload: &str, doc: &Json) -> Result<(), String> {
    let p = path(bench_dir, workload);
    std::fs::write(&p, doc.render() + "\n").map_err(|e| format!("writing {}: {e}", p.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn volume() -> Vec<f32> {
        (0..4096)
            .map(|i| ((i as f32) * 0.013).sin() * 2.0)
            .collect()
    }

    #[test]
    fn probe_survives_a_json_round_trip() {
        let p = Probe::of(&volume());
        let back = Probe::from_json(&Json::parse(&p.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, p);
        assert!(p.matches(&back, VOLUME_TOL).is_ok());
    }

    #[test]
    fn tolerance_is_a_share_of_the_golden_range() {
        let base = volume();
        let golden = Probe::of(&base); // range ≈ 4
        let shifted = |d: f32| Probe::of(&base.iter().map(|v| v + d).collect::<Vec<_>>());
        assert!(shifted(0.002).matches(&golden, VOLUME_TOL).is_ok());
        assert!(shifted(0.01).matches(&golden, VOLUME_TOL).is_err());
        // One probed voxel off by far more than the band fails even
        // though mean and norm barely move.
        let mut one = base.clone();
        one[probe_index(5, base.len())] += 0.5;
        assert!(Probe::of(&one).matches(&golden, VOLUME_TOL).is_err());
        // NaN never passes.
        let mut nan = base.clone();
        nan[0] = f32::NAN;
        assert!(Probe::of(&nan).matches(&golden, VOLUME_TOL).is_err());
        // Wrong shape never passes.
        assert!(Probe::of(&base[..2048])
            .matches(&golden, VOLUME_TOL)
            .is_err());
    }

    #[test]
    fn cd_compare_needs_equal_count_state_and_half_a_nanometre() {
        let g = vec![(60.0, 58.0, true), (0.0, 0.0, false)];
        assert!(cds_match(&g, &g).is_ok());
        assert!(cds_match(&[(60.4, 58.0, true), (0.0, 0.0, false)], &g).is_ok());
        assert!(cds_match(&[(60.6, 58.0, true), (0.0, 0.0, false)], &g).is_err());
        assert!(cds_match(&[(60.0, 58.0, true), (0.0, 0.0, true)], &g).is_err());
        assert!(cds_match(&g[..1], &g).is_err());
        assert_eq!(cds_from_json(&cds_to_json(&g)).unwrap(), g);
    }

    #[test]
    fn loss_compare_is_relative() {
        assert!(loss_matches(100.5, 100.0).is_ok());
        assert!(loss_matches(101.5, 100.0).is_err());
        assert!(loss_matches(f64::NAN, 100.0).is_err());
    }
}
