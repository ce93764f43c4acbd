//! Property test: a `PEBDATA3` dataset cache crafted *with* a valid CRC
//! can neither panic the loader nor make it reserve more than a small
//! multiple of the file, and every rejection is typed as corruption.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use peb_data::{load_dataset, save_dataset, Dataset, DatasetConfig, Sample};
use peb_guard::{crc32, PebError};
use peb_litho::Grid;

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

/// Fewest wire bytes a sample occupies: four tensor ranks and five
/// `u64` fields. A decoder may reserve one in-memory [`Sample`] per that
/// many input bytes, and no more.
const MIN_SAMPLE_WIRE_BYTES: usize = 72;

/// The saved image of a tiny dataset (two train clips, one test clip).
fn saved_image() -> &'static [u8] {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let mut grid = Grid::small();
        grid.nz = 3;
        let mut cfg = DatasetConfig::for_grid(grid, 2, 1);
        cfg.seed = 5;
        let ds = Dataset::generate(&cfg).expect("dataset generation");
        let path = temp_path("image");
        save_dataset(&ds, &path).expect("save");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        bytes
    })
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("peb_dataset_codec_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Byte offsets of every scalar field of a `PEBDATA3` image — grid,
/// counts, ranks, dims, contacts, style, seed, CDs, time, and the first
/// element of each tensor — walked from the documented layout.
fn field_offsets(bytes: &[u8]) -> Vec<usize> {
    let word = |at: usize| -> usize {
        let b: [u8; 8] = bytes[at..at + 8].try_into().expect("8 bytes");
        u64::from_le_bytes(b) as usize
    };
    /// Records one scalar field per width, stepping over each.
    fn scalars(at: &mut usize, out: &mut Vec<usize>, widths: &[usize]) {
        for w in widths {
            out.push(*at);
            *at += w;
        }
    }
    let mut out = Vec::new();
    let mut at = 8;
    scalars(&mut at, &mut out, &[8, 8, 8, 4, 4, 4]); // grid
    for _split in 0..2 {
        let n_samples = word(at);
        scalars(&mut at, &mut out, &[8]);
        for _ in 0..n_samples {
            for tensor in 0..4 {
                let rank = word(at);
                let n: usize = (1..=rank).map(|i| word(at + 8 * i)).product();
                scalars(&mut at, &mut out, &vec![8; rank + 1]);
                out.extend((n > 0).then_some(at));
                at += 4 * n;
                if tensor == 0 {
                    // Contacts, style and seed follow the clip pattern.
                    let n_contacts = word(at);
                    scalars(&mut at, &mut out, &[8]);
                    scalars(&mut at, &mut out, &vec![4; 4 * n_contacts]);
                    scalars(&mut at, &mut out, &[8, 8]);
                }
            }
            let n_cds = word(at);
            scalars(&mut at, &mut out, &[8]);
            for _ in 0..n_cds {
                scalars(&mut at, &mut out, &[4, 4, 8, 8, 8]);
            }
            scalars(&mut at, &mut out, &[8]); // rigorous PEB time
        }
    }
    assert_eq!(at + 4, bytes.len(), "walk must end at the CRC footer");
    out
}

#[test]
fn clean_image_loads_and_walks() {
    let bytes = saved_image();
    let path = temp_path("clean");
    std::fs::write(&path, bytes).expect("write");
    let ds = load_dataset(&path).expect("clean image loads");
    assert_eq!((ds.train.len(), ds.test.len()), (2, 1));
    assert!(field_offsets(bytes).len() > 50);
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A CRC is not a MAC: overwrite any field of a saved cache with a
    /// hostile value, **recompute the CRC**, and the loader must neither
    /// panic nor reserve more than a small multiple of the file, and
    /// must fail, if it fails, with `Corrupt`.
    #[test]
    fn crafted_fields_with_valid_crc_never_panic_or_over_reserve(
        victim in 0usize..4096,
        value in 0usize..HOSTILE.len(),
        width in 0usize..3,
    ) {
        let mut bytes = saved_image().to_vec();
        let fields = field_offsets(&bytes);
        let payload = bytes.len() - 4;
        let at = fields[victim % fields.len()];
        let field = &HOSTILE[value].to_le_bytes()[..[1, 4, 8][width]];
        let end = (at + field.len()).min(payload);
        bytes[at..end].copy_from_slice(&field[..end - at]);
        let crc = crc32(&bytes[..payload]);
        bytes[payload..].copy_from_slice(&crc.to_le_bytes());
        let path = temp_path("crafted");
        std::fs::write(&path, &bytes).expect("write");

        LARGEST_REQUEST.with(|m| m.set(0));
        let loaded = load_dataset(&path);
        let largest = LARGEST_REQUEST.with(Cell::get);

        let per_byte = std::mem::size_of::<Sample>().div_ceil(MIN_SAMPLE_WIRE_BYTES);
        let cap = bytes.len() * per_byte.max(1) + 1024;
        prop_assert!(
            largest <= cap,
            "a {}-byte cache made the loader request {} bytes at once",
            bytes.len(),
            largest
        );
        if let Err(e) = loaded {
            prop_assert!(
                matches!(e.root(), PebError::Corrupt { .. }),
                "wrong error class: {}", e
            );
        }
    }
}
