//! Property test: a `PEBCLIP1` request or `PEBRESP2` response frame with
//! hostile header or footer fields — a response's CRC recomputed over
//! them, so the dims reach the size check — can neither panic the
//! decoder nor make it request more than a small multiple of the frame,
//! and every rejection is `BadClip`, `CorruptFrame` or `LegacyFrame`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use peb_guard::crc32;
use peb_serve::clip::{
    decode_clip, decode_resp, encode_clip, encode_resp, resp_integrity_ok, CRC_BYTES,
};
use peb_serve::ServeError;
use peb_tensor::Tensor;

thread_local! {
    /// Largest single allocation this thread has requested since the
    /// last reset (tests run on their own threads, so cases do not mix).
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting the size of every request.
struct Noting;

fn note(size: usize) {
    // `try_with`: the allocator outlives the thread-local's destructor.
    let _ = LARGEST_REQUEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` allocates nothing.
unsafe impl GlobalAlloc for Noting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Noting = Noting;

/// Values a hostile dim, magic half or CRC field might hold. Products of
/// two of the large ones land on both sides of `usize::MAX / 4`.
const HOSTILE: [u32; 11] = [
    0,
    1,
    2,
    255,
    1 << 16,
    1 << 24,
    1 << 30,
    1 << 31,
    (1 << 31) + 1,
    u32::MAX - 1,
    u32::MAX,
];

/// The u32 header fields of a frame, four bytes each from offset 0: two
/// magic halves, `d`, `h` and `w`.
const HEADER_FIELDS: usize = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn hostile_frame_fields_never_panic_or_over_allocate(
        response in 0usize..2,
        dims in prop::collection::vec(1usize..5, 3),
        // One draw per header field: an index into HOSTILE overwrites
        // it, any larger index keeps it.
        picks in prop::collection::vec(0usize..2 * HOSTILE.len(), HEADER_FIELDS),
        // A response's footer: recomputed over the crafted header (0),
        // left stale (1), or overwritten with a hostile value.
        footer in 0usize..2 + HOSTILE.len(),
    ) {
        let clip = Tensor::from_fn(&dims, |i| i as f32 * 0.25 - 1.0);
        let response = response == 1;
        let mut bytes = if response { encode_resp(&clip) } else { encode_clip(&clip) };
        for (field, &pick) in picks.iter().enumerate() {
            if let Some(value) = HOSTILE.get(pick) {
                bytes[4 * field..4 * field + 4].copy_from_slice(&value.to_le_bytes());
            }
        }
        if response {
            let payload = bytes.len() - CRC_BYTES;
            let crc = match footer {
                0 => Some(crc32(&bytes[..payload])),
                1 => None,
                k => Some(HOSTILE[k - 2]),
            };
            if let Some(crc) = crc {
                bytes[payload..].copy_from_slice(&crc.to_le_bytes());
            }
        }

        LARGEST_REQUEST.with(|m| m.set(0));
        let outcomes = [
            decode_clip(&bytes).map(drop),
            decode_resp(&bytes).map(drop),
            resp_integrity_ok(&bytes),
        ];
        let largest = LARGEST_REQUEST.with(Cell::get);

        let cap = 2 * bytes.len() + 1024;
        prop_assert!(
            largest <= cap,
            "a {}-byte frame made the decoder request {} bytes at once",
            bytes.len(),
            largest
        );
        for outcome in outcomes {
            if let Err(e) = outcome {
                prop_assert!(
                    matches!(
                        e,
                        ServeError::BadClip { .. }
                            | ServeError::CorruptFrame { .. }
                            | ServeError::LegacyFrame { .. }
                    ),
                    "wrong error class: {:?}",
                    e
                );
            }
        }
    }
}
