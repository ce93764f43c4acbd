//! Binary cache for generated datasets.
//!
//! The rigorous solves are the expensive part of every experiment, so
//! datasets are written to disk after first generation. There is one
//! format, `PEBDATA3`, encoded and decoded through [`peb_guard::codec`] —
//! the bounds-checked codec the `PEBCKPT1` checkpoints use. Files are
//! written atomically (temp file + fsync + rename), so a crash mid-write
//! never leaves a torn cache behind.
//!
//! # Wire format (`PEBDATA3`, little-endian)
//!
//! | field | encoding |
//! |-------|----------|
//! | magic | 8 bytes `"PEBDATA3"` |
//! | grid | `u64` nx, ny, nz, then `f32` dx, dy, dz |
//! | train | `u64` count, then samples |
//! | test | `u64` count, then samples |
//! | crc | `u32` CRC-32 (IEEE) of **every** preceding byte, magic included |
//!
//! A sample is the clip pattern (a tensor: rank `u64`, dims `u64`…, data
//! `f32`…); a `u64` contact count, then per contact `f32` cy, cx, w, h;
//! `u64` clip style and `u64` clip seed; the acid0, inhibitor and label
//! tensors; a `u64` CD count, then per CD `f32` cd_x, cd_y and `u64`
//! open, centre y, centre x; and the rigorous PEB time as `u64` µs.
//!
//! [`load_dataset`] is the one reader, and it is strict: a short file, a
//! wrong magic, a checksum mismatch, a count the remaining bytes cannot
//! hold or a trailing byte is a [`PebError::Corrupt`], and callers
//! regenerate.

use std::path::Path;
use std::time::Duration;

use peb_guard::codec::{open_sealed, put_f32, put_tensor, put_u64, seal, Cursor, MIN_TENSOR_BYTES};
use peb_guard::{chaos, Context, PebError, Result};
use peb_litho::{ClipStyle, Contact, ContactCd, Grid, MaskClip};

use crate::dataset::{Dataset, Sample};

const MAGIC: &[u8; 8] = b"PEBDATA3";
/// Wire size of one contact: four `f32`s.
const CONTACT_BYTES: usize = 16;
/// Wire size of one CD record: two `f32`s and three `u64`s.
const CD_BYTES: usize = 32;
/// Smallest wire size of a sample: four tensor ranks and five `u64`s.
const MIN_SAMPLE_BYTES: usize = 4 * MIN_TENSOR_BYTES + 5 * 8;

/// Saves a dataset to `path` as `PEBDATA3`: CRC-32 footer, atomic
/// temp-file + fsync + rename write.
///
/// # Errors
///
/// Returns [`PebError::Io`] for any underlying I/O failure.
pub fn save_dataset(ds: &Dataset, path: &Path) -> Result<()> {
    let mut w = MAGIC.to_vec();
    put_grid(&mut w, &ds.grid);
    for split in [&ds.train, &ds.test] {
        put_u64(&mut w, split.len() as u64);
        for s in split {
            put_sample(&mut w, s);
        }
    }
    seal(&mut w);
    peb_guard::atomic_write(path, &w)
        .with_ctx(|| format!("saving dataset to {}", path.display()))?;
    chaos::mangle_dataset(path);
    Ok(())
}

/// Loads a dataset written by [`save_dataset`].
///
/// # Errors
///
/// [`PebError::Corrupt`] for any damage to the file (length, magic,
/// checksum, or a field the payload cannot hold), [`PebError::Io`] when
/// it cannot be read.
pub fn load_dataset(path: &Path) -> Result<Dataset> {
    let bytes = std::fs::read(path).with_ctx(|| format!("reading {}", path.display()))?;
    let decode = || -> Result<Dataset> {
        let (mut r, _) = open_sealed(&bytes, MAGIC, "dataset cache")?;
        let grid = read_grid(&mut r)?;
        let train = read_split(&mut r, "train")?;
        let test = read_split(&mut r, "test")?;
        r.finish("dataset cache")?;
        Ok(Dataset { grid, train, test })
    };
    decode().with_ctx(|| format!("decoding dataset cache {}", path.display()))
}

fn read_split(r: &mut Cursor<'_>, split: &str) -> Result<Vec<Sample>> {
    let n = r.count(split, MIN_SAMPLE_BYTES)?;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(read_sample(r).with_ctx(|| format!("decoding {split} sample {i}"))?);
    }
    Ok(out)
}

fn put_grid(w: &mut Vec<u8>, g: &Grid) {
    for n in [g.nx, g.ny, g.nz] {
        put_u64(w, n as u64);
    }
    for d in [g.dx, g.dy, g.dz] {
        put_f32(w, d);
    }
}

/// Reads a `u64` size or index that must fit a `usize`.
fn read_usize(r: &mut Cursor<'_>) -> Result<usize> {
    let v = r.u64()?;
    usize::try_from(v).map_err(|_| PebError::corrupt(format!("{v} does not fit a usize")))
}

fn read_grid(r: &mut Cursor<'_>) -> Result<Grid> {
    let (nx, ny, nz) = (read_usize(r)?, read_usize(r)?, read_usize(r)?);
    let (dx, dy, dz) = (r.f32()?, r.f32()?, r.f32()?);
    Grid::new(nx, ny, nz, dx, dy, dz)
        .map_err(|e| PebError::corrupt(format!("invalid dataset grid: {e}")))
}

fn style_code(s: ClipStyle) -> u64 {
    match s {
        ClipStyle::RegularArray => 0,
        ClipStyle::Staggered => 1,
        ClipStyle::Random => 2,
        ClipStyle::Mixed => 3,
    }
}

fn style_from(code: u64) -> Result<ClipStyle> {
    Ok(match code {
        0 => ClipStyle::RegularArray,
        1 => ClipStyle::Staggered,
        2 => ClipStyle::Random,
        3 => ClipStyle::Mixed,
        _ => return Err(PebError::corrupt(format!("unknown clip style {code}"))),
    })
}

fn put_sample(w: &mut Vec<u8>, s: &Sample) {
    put_tensor(w, &s.clip.pattern);
    put_u64(w, s.clip.contacts.len() as u64);
    for c in &s.clip.contacts {
        for v in [c.cy, c.cx, c.w, c.h] {
            put_f32(w, v);
        }
    }
    put_u64(w, style_code(s.clip.style));
    put_u64(w, s.clip.seed);
    for t in [&s.acid0, &s.inhibitor, &s.label] {
        put_tensor(w, t);
    }
    put_u64(w, s.cds.len() as u64);
    for cd in &s.cds {
        put_f32(w, cd.cd_x_nm);
        put_f32(w, cd.cd_y_nm);
        put_u64(w, cd.open as u64);
        put_u64(w, cd.centre.0 as u64);
        put_u64(w, cd.centre.1 as u64);
    }
    put_u64(w, s.rigorous_peb_time.as_micros() as u64);
}

fn read_sample(r: &mut Cursor<'_>) -> Result<Sample> {
    let pattern = r.tensor()?;
    let n_contacts = r.count("contact", CONTACT_BYTES)?;
    let mut contacts = Vec::with_capacity(n_contacts);
    for _ in 0..n_contacts {
        contacts.push(Contact {
            cy: r.f32()?,
            cx: r.f32()?,
            w: r.f32()?,
            h: r.f32()?,
        });
    }
    let style = style_from(r.u64()?)?;
    let seed = r.u64()?;
    let acid0 = r.tensor()?;
    let inhibitor = r.tensor()?;
    let label = r.tensor()?;
    let n_cds = r.count("CD", CD_BYTES)?;
    let mut cds = Vec::with_capacity(n_cds);
    for _ in 0..n_cds {
        cds.push(ContactCd {
            cd_x_nm: r.f32()?,
            cd_y_nm: r.f32()?,
            open: r.u64()? != 0,
            centre: (read_usize(r)?, read_usize(r)?),
        });
    }
    let micros = r.u64()?;
    Ok(Sample {
        clip: MaskClip {
            pattern,
            contacts,
            style,
            seed,
        },
        acid0,
        inhibitor,
        label,
        cds,
        rigorous_peb_time: Duration::from_micros(micros),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;

    fn tiny_dataset(seed: u64) -> Dataset {
        let mut grid = Grid::small();
        grid.nz = 3;
        let mut cfg = DatasetConfig::for_grid(grid, 2, 1);
        cfg.seed = seed;
        Dataset::generate(&cfg).expect("dataset generation")
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("peb_data_io_test");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(name)
    }

    #[test]
    fn roundtrip_preserves_dataset() {
        let ds = tiny_dataset(5);
        let path = temp_path("roundtrip.bin");
        save_dataset(&ds, &path).expect("save");
        let loaded = load_dataset(&path).expect("load");
        assert_eq!(loaded.grid, ds.grid);
        assert_eq!(loaded.train.len(), 2);
        assert_eq!(loaded.train[0].acid0, ds.train[0].acid0);
        assert_eq!(loaded.train[0].label, ds.train[0].label);
        assert_eq!(loaded.train[0].clip, ds.train[0].clip);
        assert_eq!(loaded.test[0].cds, ds.test[0].cds);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_magic() {
        let path = temp_path("bad_magic.bin");
        std::fs::write(&path, b"NOTDATA!extra").expect("write");
        let err = load_dataset(&path).expect_err("must reject");
        assert!(err.is_corrupt(), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncated_file() {
        let path = temp_path("truncated.bin");
        std::fs::write(&path, MAGIC).expect("write");
        let err = load_dataset(&path).expect_err("must reject");
        assert!(err.is_corrupt(), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn strict_load_detects_single_bit_flip() {
        let ds = tiny_dataset(7);
        let path = temp_path("bitflip.bin");
        save_dataset(&ds, &path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");
        let err = load_dataset(&path).expect_err("flip must be caught");
        assert!(err.is_corrupt(), "{err}");
    }

    #[test]
    fn save_is_atomic_no_temp_left_behind() {
        let ds = tiny_dataset(9);
        let path = temp_path("atomic.bin");
        save_dataset(&ds, &path).expect("save");
        let dir = path.parent().expect("parent");
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_file(&path).ok();
    }
}
