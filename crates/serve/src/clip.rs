//! Binary clip codec for `/infer` payloads.
//!
//! Requests carry a `PEBCLIP1` frame; responses a `PEBRESP2` frame —
//! same layout, little-endian throughout, with the response carrying a
//! CRC-32 footer so routers and clients can detect torn or corrupted
//! worker responses instead of silently forwarding them:
//!
//! ```text
//! [8]  magic          b"PEBCLIP1" / b"PEBRESP2"
//! [4]  u32 d
//! [4]  u32 h
//! [4]  u32 w
//! [d·h·w·4]  f32 data, row-major [D, H, W]
//! [4]  u32 CRC-32 (IEEE) of every preceding byte   (PEBRESP2 only)
//! ```
//!
//! Raw `f32` bits pass through untouched in both directions, so a
//! client can verify the serving layer's bitwise batching-invariance
//! contract end to end (`tests/batch_determinism.rs` does exactly that
//! with `Tensor::bit_digest`). The response format is version-bumped from
//! `PEBRESP1`: a v1 frame is rejected with a typed
//! [`ServeError::LegacyFrame`] (old writers cannot silently reach new
//! readers without integrity protection), and a CRC mismatch is a
//! typed [`ServeError::CorruptFrame`] — the `peb-fleet` router treats
//! it as a retryable worker failure.

use peb_tensor::Tensor;

use crate::error::ServeError;

/// Request frame magic.
pub const CLIP_MAGIC: &[u8; 8] = b"PEBCLIP1";
/// Response frame magic (v2: CRC-32 footer).
pub const RESP_MAGIC: &[u8; 8] = b"PEBRESP2";
/// Retired v1 response magic (no integrity footer) — rejected.
pub const LEGACY_RESP_MAGIC: &[u8; 8] = b"PEBRESP1";
/// Frame header size: magic + three u32 dims.
pub const HEADER_BYTES: usize = 8 + 3 * 4;
/// CRC-32 footer size on response frames.
pub const CRC_BYTES: usize = 4;

/// Encodes a `[D, H, W]` tensor as a frame with the given magic.
fn encode(magic: &[u8; 8], t: &Tensor, crc_footer: bool) -> Vec<u8> {
    let s = t.shape();
    debug_assert_eq!(s.len(), 3, "clip frames are rank-3");
    let mut out = Vec::with_capacity(HEADER_BYTES + t.len() * 4 + CRC_BYTES);
    out.extend_from_slice(magic);
    for &d in s {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for v in t.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    if crc_footer {
        let crc = peb_guard::crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
    }
    out
}

/// Encodes a request frame (`PEBCLIP1`).
pub fn encode_clip(t: &Tensor) -> Vec<u8> {
    encode(CLIP_MAGIC, t, false)
}

/// Encodes a response frame (`PEBRESP2`, CRC-32 footer included).
pub fn encode_resp(t: &Tensor) -> Vec<u8> {
    encode(RESP_MAGIC, t, true)
}

/// Decodes a frame with the given magic into a `[D, H, W]` tensor.
/// `crc_footer` demands (and verifies) the trailing CRC-32.
fn decode(magic: &[u8; 8], bytes: &[u8], crc_footer: bool) -> Result<Tensor, ServeError> {
    let bad = |detail: String| ServeError::BadClip { detail };
    if bytes.len() < HEADER_BYTES {
        return Err(bad(format!(
            "frame of {} bytes is shorter than the {HEADER_BYTES}-byte header",
            bytes.len()
        )));
    }
    if &bytes[..8] != magic {
        if crc_footer && &bytes[..8] == LEGACY_RESP_MAGIC {
            return Err(ServeError::LegacyFrame {
                got: "PEBRESP1".into(),
                want: "PEBRESP2".into(),
            });
        }
        return Err(bad(format!(
            "bad magic {:?} (expected {:?})",
            String::from_utf8_lossy(&bytes[..8]),
            String::from_utf8_lossy(magic)
        )));
    }
    let payload = if crc_footer {
        if bytes.len() < HEADER_BYTES + CRC_BYTES {
            return Err(bad(format!(
                "response frame of {} bytes has no room for the CRC footer",
                bytes.len()
            )));
        }
        let (payload, footer) = bytes.split_at(bytes.len() - CRC_BYTES);
        let stored = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
        let computed = peb_guard::crc32(payload);
        if stored != computed {
            return Err(ServeError::CorruptFrame { stored, computed });
        }
        payload
    } else {
        bytes
    };
    let dim = |i: usize| -> usize {
        let mut b = [0u8; 4];
        b.copy_from_slice(&payload[8 + 4 * i..8 + 4 * (i + 1)]);
        u32::from_le_bytes(b) as usize
    };
    let (d, h, w) = (dim(0), dim(1), dim(2));
    if d == 0 || h == 0 || w == 0 {
        return Err(bad(format!("zero dimension in {d}x{h}x{w}")));
    }
    let n = d
        .checked_mul(h)
        .and_then(|x| x.checked_mul(w))
        .ok_or_else(|| bad(format!("dimension overflow in {d}x{h}x{w}")))?;
    let want = n
        .checked_mul(4)
        .and_then(|b| b.checked_add(HEADER_BYTES))
        .ok_or_else(|| bad(format!("frame size overflow in {d}x{h}x{w}")))?;
    if payload.len() != want {
        return Err(bad(format!(
            "{d}x{h}x{w} needs {want} payload bytes, frame has {}",
            payload.len()
        )));
    }
    let data: Vec<f32> = payload[HEADER_BYTES..]
        .chunks_exact(4)
        .map(|c| {
            let mut b = [0u8; 4];
            b.copy_from_slice(c);
            f32::from_le_bytes(b)
        })
        .collect();
    Tensor::from_vec(data, &[d, h, w]).map_err(|e| bad(e.to_string()))
}

/// Decodes a request frame (`PEBCLIP1`).
pub fn decode_clip(bytes: &[u8]) -> Result<Tensor, ServeError> {
    decode(CLIP_MAGIC, bytes, false)
}

/// Decodes a response frame (`PEBRESP2`), verifying its CRC footer.
pub fn decode_resp(bytes: &[u8]) -> Result<Tensor, ServeError> {
    decode(RESP_MAGIC, bytes, true)
}

/// Cheap integrity check for a response frame without materialising the
/// tensor: magic + CRC footer only. The fleet router runs this on every
/// worker response before forwarding; a failure is a retryable worker
/// fault, not a client error.
pub fn resp_integrity_ok(bytes: &[u8]) -> Result<(), ServeError> {
    if bytes.len() < HEADER_BYTES + CRC_BYTES {
        return Err(ServeError::BadClip {
            detail: format!("response frame of {} bytes is truncated", bytes.len()),
        });
    }
    if &bytes[..8] != RESP_MAGIC {
        if &bytes[..8] == LEGACY_RESP_MAGIC {
            return Err(ServeError::LegacyFrame {
                got: "PEBRESP1".into(),
                want: "PEBRESP2".into(),
            });
        }
        return Err(ServeError::BadClip {
            detail: format!(
                "bad response magic {:?}",
                String::from_utf8_lossy(&bytes[..8])
            ),
        });
    }
    let (payload, footer) = bytes.split_at(bytes.len() - CRC_BYTES);
    let stored = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
    let computed = peb_guard::crc32(payload);
    if stored != computed {
        return Err(ServeError::CorruptFrame { stored, computed });
    }
    Ok(())
}

/// Exact wire size of a request frame for a `(d, h, w)` clip.
pub fn frame_bytes(dims: (usize, usize, usize)) -> usize {
    HEADER_BYTES + dims.0 * dims.1 * dims.2 * 4
}

/// Exact wire size of a response frame for a `(d, h, w)` clip (the
/// request size plus the CRC footer).
#[cfg(test)]
fn resp_frame_bytes(dims: (usize, usize, usize)) -> usize {
    frame_bytes(dims) + CRC_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_bitwise() {
        let t = Tensor::from_vec(
            (0..2 * 3 * 4).map(|i| (i as f32).sqrt() - 1.5).collect(),
            &[2, 3, 4],
        )
        .expect("tensor");
        let back = decode_clip(&encode_clip(&t)).expect("decode");
        assert_eq!(back.shape(), t.shape());
        assert_eq!(back.bit_digest(), t.bit_digest());
        let wire = encode_resp(&t);
        resp_integrity_ok(&wire).expect("integrity");
        let back = decode_resp(&wire).expect("decode");
        assert_eq!(back.bit_digest(), t.bit_digest());
    }

    #[test]
    fn rejects_malformed_frames() {
        // Too short.
        assert!(decode_clip(b"PEBCLIP1").is_err());
        // Wrong magic.
        let t = Tensor::zeros(&[1, 1, 1]);
        assert!(decode_clip(&encode_resp(&t)).is_err());
        // Zero dim.
        let mut frame = encode_clip(&t);
        frame[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_clip(&frame).is_err());
        // Length mismatch.
        let mut frame = encode_clip(&t);
        frame.push(0);
        assert!(decode_clip(&frame).is_err());
        // Dimension overflow must not panic.
        let mut frame = encode_clip(&t);
        for i in 0..3 {
            frame[8 + 4 * i..12 + 4 * i].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        assert!(decode_clip(&frame).is_err());
    }

    #[test]
    fn a_frame_size_past_usize_is_bad_clip() {
        // d·h·w = 2⁶² fits a usize; its byte count does not.
        let mut frame = CLIP_MAGIC.to_vec();
        for dim in [1u32 << 31, 1 << 31, 1] {
            frame.extend_from_slice(&dim.to_le_bytes());
        }
        let err = decode_clip(&frame).expect_err("overflowing frame");
        assert!(matches!(err, ServeError::BadClip { .. }), "{err:?}");
    }

    #[test]
    fn response_crc_detects_any_single_byte_corruption() {
        let t = Tensor::from_vec(
            (0..2 * 2 * 2).map(|i| i as f32 * 0.5 - 1.0).collect(),
            &[2, 2, 2],
        )
        .expect("tensor");
        let wire = encode_resp(&t);
        for i in 8..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x10;
            let err = decode_resp(&bad).expect_err("corruption must be detected");
            assert!(
                matches!(
                    err,
                    ServeError::CorruptFrame { .. } | ServeError::BadClip { .. }
                ),
                "byte {i}: unexpected error {err:?}"
            );
            assert!(resp_integrity_ok(&bad).is_err(), "byte {i} slipped through");
        }
    }

    #[test]
    fn legacy_v1_response_is_a_typed_reject() {
        let t = Tensor::zeros(&[1, 2, 2]);
        // Forge a v1 frame: clip layout with the old response magic.
        let mut v1 = encode_clip(&t);
        v1[..8].copy_from_slice(LEGACY_RESP_MAGIC);
        let err = decode_resp(&v1).expect_err("v1 must be rejected");
        assert!(matches!(err, ServeError::LegacyFrame { .. }), "{err:?}");
        assert!(matches!(
            resp_integrity_ok(&v1).expect_err("v1 reject"),
            ServeError::LegacyFrame { .. }
        ));
    }

    #[test]
    fn frame_bytes_matches_encoding() {
        let t = Tensor::zeros(&[4, 8, 8]);
        assert_eq!(encode_clip(&t).len(), frame_bytes((4, 8, 8)));
        assert_eq!(encode_resp(&t).len(), resp_frame_bytes((4, 8, 8)));
    }
}
