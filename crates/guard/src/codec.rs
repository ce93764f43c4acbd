//! The little-endian codec every file the workspace writes is built on:
//! `PEBCKPT1` checkpoints and the `PEBDATA3` dataset cache.
//!
//! Writers append to a `Vec<u8>` ([`put_u32`], [`put_u64`], [`put_f32`],
//! [`put_tensor`]) and close the frame with [`seal`], a CRC-32 footer over
//! every preceding byte. Readers go through [`open_sealed`] — the one
//! place a frame's length, magic and checksum are checked — and decode
//! the payload with a bounds-checked [`Cursor`].
//!
//! A CRC is not a MAC: anyone can craft a file with any field and a valid
//! checksum. So every length field a reader meets passes [`Cursor::fits`]
//! (count × wire bytes ≤ bytes remaining) before it drives a reservation
//! or a product, and a decoder never asks for more memory than a small
//! multiple of its input.

use peb_tensor::Tensor;

use crate::error::{PebError, Result};

/// Smallest wire size of a tensor: its `u64` rank field.
pub const MIN_TENSOR_BYTES: usize = 8;
/// Largest tensor rank the format carries.
const MAX_RANK: u64 = 8;

// --- CRC-32 (IEEE 802.3, reflected) ----------------------------------------

/// CRC-32 lookup table for the reflected IEEE polynomial `0xEDB88320`.
fn crc_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    })
}

/// CRC-32 (IEEE; the zlib/PNG variant) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- sealed frames ----------------------------------------------------------

/// Appends the CRC-32 footer over everything written so far.
pub fn seal(w: &mut Vec<u8>) {
    let crc = crc32(w);
    put_u32(w, crc);
}

/// Checks a sealed frame — `magic`, payload, `u32` CRC-32 footer over
/// every preceding byte — and returns a cursor over the payload just past
/// the magic. `what` names the frame in error messages.
///
/// # Errors
///
/// [`PebError::Corrupt`] when the frame is shorter than magic + footer,
/// the magic differs, or the checksum does not match.
pub fn open_sealed<'a>(bytes: &'a [u8], magic: &[u8; 8], what: &str) -> Result<Cursor<'a>> {
    if bytes.len() < magic.len() + 4 {
        return Err(PebError::corrupt(format!(
            "{what} too short ({} bytes)",
            bytes.len()
        )));
    }
    let (payload, footer) = bytes.split_at(bytes.len() - 4);
    if !payload.starts_with(magic) {
        return Err(PebError::corrupt(format!("bad {what} magic")));
    }
    let stored = Cursor::new(footer).u32()?;
    let actual = crc32(payload);
    if stored != actual {
        return Err(PebError::corrupt(format!(
            "{what} crc mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    let mut r = Cursor::new(payload);
    r.take(magic.len())?;
    Ok(r)
}

// --- writers ------------------------------------------------------------------

/// Appends a little-endian `u32`.
pub fn put_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f32` bit pattern (NaN payloads, ±inf, −0.0
/// and subnormals round-trip exactly).
pub fn put_f32(w: &mut Vec<u8>, v: f32) {
    w.extend_from_slice(&v.to_le_bytes());
}

/// Appends a tensor: `u64` rank, `u64` dims, then its `f32` data.
pub fn put_tensor(w: &mut Vec<u8>, t: &Tensor) {
    put_u64(w, t.rank() as u64);
    for &d in t.shape() {
        put_u64(w, d as u64);
    }
    for &v in t.data() {
        put_f32(w, v);
    }
}

// --- reader -------------------------------------------------------------------

/// A bounds-checked little-endian reader over an in-memory payload.
/// Every read that runs past the end, and every count or shape that
/// fails [`Cursor::fits`], is a [`PebError::Corrupt`].
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(PebError::corrupt(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Whether `n` elements of at least `wire_bytes` each still fit in
    /// the bytes that remain. A CRC is not a MAC — a crafted file can
    /// carry any count with a valid checksum — so every length field
    /// passes through here before it drives a reservation or a product.
    pub fn fits(&self, n: usize, wire_bytes: usize) -> bool {
        n.checked_mul(wire_bytes)
            .is_some_and(|b| b <= self.remaining())
    }

    /// Reads a `u64` element count that [`Cursor::fits`].
    pub fn count(&mut self, what: &str, wire_bytes: usize) -> Result<usize> {
        let n = self.u64()?;
        usize::try_from(n)
            .ok()
            .filter(|&n| self.fits(n, wire_bytes))
            .ok_or_else(|| {
                PebError::corrupt(format!(
                    "implausible {what} count {n}: only {} bytes remain",
                    self.remaining()
                ))
            })
    }

    /// Reads `n` little-endian `f32`s (`n` comes from [`Cursor::count`]
    /// or [`Cursor::shape`], so `4·n` cannot overflow).
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>> {
        Ok(self
            .take(4 * n)?
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Reads a rank (at most 8) and its dims; returns the shape and its
    /// element count, which — at `elem_bytes` per element — must
    /// [`Cursor::fits`].
    pub fn shape(&mut self, elem_bytes: usize) -> Result<(Vec<usize>, usize)> {
        let rank = self.u64()?;
        if rank > MAX_RANK {
            return Err(PebError::corrupt(format!(
                "implausible tensor rank {rank} (max {MAX_RANK})"
            )));
        }
        let mut shape = Vec::with_capacity(rank as usize);
        let mut total = 1usize;
        for _ in 0..rank {
            let d = self.u64()?;
            total = usize::try_from(d)
                .ok()
                .and_then(|d| total.checked_mul(d))
                .ok_or_else(|| {
                    PebError::corrupt(format!("tensor dim {d} overflows the element count"))
                })?;
            shape.push(d as usize);
        }
        if !self.fits(total, elem_bytes) {
            return Err(PebError::corrupt(format!(
                "implausible tensor shape {shape:?}: only {} bytes remain",
                self.remaining()
            )));
        }
        Ok((shape, total))
    }

    /// Reads a tensor written by [`put_tensor`].
    pub fn tensor(&mut self) -> Result<Tensor> {
        let (shape, n) = self.shape(4)?;
        Ok(Tensor::from_vec(self.f32s(n)?, &shape)?)
    }

    /// Checks that the payload was consumed exactly.
    pub fn finish(&self, what: &str) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(PebError::corrupt(format!(
                "{n} trailing bytes after {what} payload"
            ))),
        }
    }
}
