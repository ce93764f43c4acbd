//! Property tests: checkpoint serialisation is bit-exact (including
//! non-finite and signed-zero payloads), corruption never passes the
//! CRC, and a frame crafted *with* a valid CRC can neither panic the
//! decoder nor make it reserve more than a small multiple of its input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use peb_guard::{
    crc32, peek_bytes, EpochRecord, OptKind, PebError, QuantSlot, QuantTensor, TrainCheckpoint,
};
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

/// Random tensor whose payload mixes ordinary values with the IEEE-754
/// specials a checkpoint must preserve exactly: NaN (several payloads),
/// ±inf, -0.0, and subnormals.
fn special_tensor(rng: &mut StdRng) -> Tensor {
    let rank = rng.gen_range(0..4usize);
    let shape: Vec<usize> = (0..rank).map(|_| rng.gen_range(1..5usize)).collect();
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n)
        .map(|_| match rng.gen_range(0..8u32) {
            0 => f32::NAN,
            1 => f32::from_bits(0x7fc0_dead), // NaN with payload
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => -0.0,
            5 => f32::from_bits(1), // smallest subnormal
            _ => rng.gen_range(-1e6..1e6),
        })
        .collect();
    Tensor::from_vec(data, &shape).expect("shape/data agree by construction")
}

fn random_checkpoint(seed: u64) -> TrainCheckpoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_params = rng.gen_range(0..5usize);
    let params: Vec<Tensor> = (0..n_params).map(|_| special_tensor(&mut rng)).collect();
    let opt_m: Vec<Option<Tensor>> = params
        .iter()
        .map(|_| {
            if rng.gen_range(0..3u32) == 0 {
                None
            } else {
                Some(special_tensor(&mut rng))
            }
        })
        .collect();
    let opt_v: Vec<Option<Tensor>> = params
        .iter()
        .map(|_| {
            if rng.gen_range(0..3u32) == 0 {
                None
            } else {
                Some(special_tensor(&mut rng))
            }
        })
        .collect();
    let epochs = rng.gen_range(0..6usize);
    TrainCheckpoint {
        epoch: rng.gen_range(0..10_000u64),
        seed: rng.next_u64(),
        opt_kind: if rng.gen_range(0..2u32) == 0 {
            OptKind::Adam
        } else {
            OptKind::Sgd
        },
        opt_t: rng.next_u64(),
        lr_scale: f32::from_bits(rng.next_u32()),
        rollbacks: rng.gen_range(0..100u64),
        epoch_stats: (0..epochs)
            .map(|_| EpochRecord {
                mean_loss: f32::from_bits(rng.next_u32()),
                skipped_batches: rng.gen_range(0..1000u64),
            })
            .collect(),
        params,
        opt_m,
        opt_v,
        quant: None,
    }
}

/// A serving (v2) frame: no f32 params or moments, one quantized or
/// passthrough slot per parameter.
fn random_quantized_checkpoint(seed: u64) -> TrainCheckpoint {
    let mut ckpt = random_checkpoint(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let slots = (0..rng.gen_range(1..5usize))
        .map(|_| {
            if rng.gen_range(0..3u32) == 0 {
                return QuantSlot::F32(special_tensor(&mut rng));
            }
            let (ch, row) = (rng.gen_range(1..5usize), rng.gen_range(1..7usize));
            QuantSlot::I8(QuantTensor {
                shape: vec![ch, row],
                scales: (0..ch).map(|_| rng.gen_range(0.0..2.0f32)).collect(),
                codes: (0..ch * row).map(|_| rng.gen_range(-127..=127i8)).collect(),
            })
        })
        .collect();
    ckpt.params.clear();
    ckpt.opt_m.clear();
    ckpt.opt_v.clear();
    ckpt.quant = Some(slots);
    ckpt
}

/// Values a hostile length, rank, dim or tag field might hold.
const HOSTILE: [u64; 12] = [
    0,
    1,
    9,
    255,
    1 << 20,
    1 << 24,
    (1 << 30) - 1,
    1 << 30,
    1 << 32,
    1 << 61,
    (1 << 63) + 1,
    u64::MAX,
];

fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    (
        t.shape().to_vec(),
        t.data().iter().map(|v| v.to_bits()).collect(),
    )
}

fn opt_bits(t: &Option<Tensor>) -> Option<(Vec<usize>, Vec<u32>)> {
    t.as_ref().map(bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode reproduces every field bit-for-bit, and encoding
    /// the decoded value reproduces the exact byte stream.
    #[test]
    fn roundtrip_is_bit_exact(seed in 0u64..10_000) {
        let ckpt = random_checkpoint(seed);
        let bytes = ckpt.to_bytes();
        let back = TrainCheckpoint::from_bytes(&bytes).expect("roundtrip decode");

        prop_assert_eq!(back.epoch, ckpt.epoch);
        prop_assert_eq!(back.seed, ckpt.seed);
        prop_assert_eq!(back.opt_kind, ckpt.opt_kind);
        prop_assert_eq!(back.opt_t, ckpt.opt_t);
        prop_assert_eq!(back.lr_scale.to_bits(), ckpt.lr_scale.to_bits());
        prop_assert_eq!(back.rollbacks, ckpt.rollbacks);
        prop_assert_eq!(back.epoch_stats.len(), ckpt.epoch_stats.len());
        for (a, b) in back.epoch_stats.iter().zip(&ckpt.epoch_stats) {
            prop_assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
            prop_assert_eq!(a.skipped_batches, b.skipped_batches);
        }
        for (a, b) in back.params.iter().zip(&ckpt.params) {
            prop_assert_eq!(bits(a), bits(b));
        }
        for (a, b) in back.opt_m.iter().zip(&ckpt.opt_m) {
            prop_assert_eq!(opt_bits(a), opt_bits(b));
        }
        for (a, b) in back.opt_v.iter().zip(&ckpt.opt_v) {
            prop_assert_eq!(opt_bits(a), opt_bits(b));
        }
        prop_assert_eq!(back.to_bytes(), bytes, "re-encode must be byte-identical");
    }

    /// Any single corrupted byte is caught — by the CRC footer, or (for
    /// damage inside the length-bearing header fields) by a decoder
    /// bounds check. Corruption must never pass silently.
    #[test]
    fn single_byte_corruption_is_always_detected(
        seed in 0u64..2_000,
        victim in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let ckpt = random_checkpoint(seed);
        let mut bytes = ckpt.to_bytes();
        let idx = victim % bytes.len();
        bytes[idx] ^= flip;
        match TrainCheckpoint::from_bytes(&bytes) {
            Err(e) => prop_assert!(
                matches!(e.root(), PebError::Corrupt { .. }),
                "wrong error class: {}", e
            ),
            Ok(_) => prop_assert!(false, "corrupt byte {} accepted", idx),
        }
    }
}

proptest! {
    // Only ~1 write in 5 lands on a count, rank, dim or tag field.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// A CRC is not a MAC: overwrite any payload field of a v1 or v2
    /// frame with a hostile value, **recompute the CRC**, and the decoder
    /// must neither panic nor reserve more than the input could stand
    /// for (the largest in-memory element one wire byte can buy is an
    /// absent optimiser slot).
    #[test]
    fn crafted_fields_with_valid_crc_never_panic_or_over_reserve(
        seed in 0u64..2_000,
        quantized in 0u8..2,
        victim in 0usize..4096,
        value in 0usize..HOSTILE.len(),
        width in 0usize..3,
    ) {
        let ckpt = if quantized == 1 {
            random_quantized_checkpoint(seed)
        } else {
            random_checkpoint(seed)
        };
        let mut bytes = ckpt.to_bytes();
        let payload = bytes.len() - 4;
        // Skip the magic; clip the write at the CRC footer.
        let at = 8 + victim % (payload - 8);
        let field = &HOSTILE[value].to_le_bytes()[..[1, 4, 8][width]];
        let end = (at + field.len()).min(payload);
        bytes[at..end].copy_from_slice(&field[..end - at]);
        let crc = crc32(&bytes[..payload]);
        bytes[payload..].copy_from_slice(&crc.to_le_bytes());

        LARGEST_REQUEST.with(|m| m.set(0));
        let decoded = TrainCheckpoint::from_bytes(&bytes);
        let peeked = peek_bytes(&bytes);
        let largest = LARGEST_REQUEST.with(Cell::get);

        let cap = bytes.len() * std::mem::size_of::<Option<Tensor>>() + 1024;
        prop_assert!(
            largest <= cap,
            "a {}-byte frame made the decoder request {} bytes at once",
            bytes.len(),
            largest
        );
        for e in decoded.err().iter().chain(peeked.err().iter()) {
            prop_assert!(
                matches!(e.root(), PebError::Corrupt { .. }),
                "wrong error class: {}", e
            );
        }
    }
}
