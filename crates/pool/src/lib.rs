//! Thread-local, size-bucketed scratch-buffer pool.
//!
//! Every hot path in the workspace (GEMM panels, im2col workspaces, ADI
//! line scratch, selective-scan lane state, FFT line buffers) used to
//! allocate fresh `Vec`s on every call. This crate recycles those
//! buffers: a checkout pops a previously-returned buffer of sufficient
//! capacity from a power-of-two size bucket, and a return pushes the
//! buffer back for the next caller on the same thread.
//!
//! # Determinism contract
//!
//! Pooling must never change a single bit of any result, at any thread
//! count. Two properties guarantee that:
//!
//! * every checkout hands back a buffer that is **zeroed**
//!   ([`take_zeroed`]) or **empty** ([`take_cleared`], [`take_copy`]) —
//!   recycled garbage is never observable;
//! * the pools are **thread-local** with no cross-thread stealing, so
//!   which buffer a thread reuses cannot depend on scheduling. (The
//!   `peb-par` workers are long-lived, so their pools stay warm across
//!   parallel regions.)
//!
//! The pool is always on, so the contract is checked directly:
//! `zero_on_checkout_hides_recycled_garbage` pins it per checkout, and
//! the bench crate's determinism suite runs a full training step on a
//! cold pool and again on one whose every buffer was filled with NaN
//! before recycling, and compares the bits.
//!
//! # Retention follows demand
//!
//! A bucket keeps at most as many buffers as its thread has had
//! **misses** in it (and never more than the bucket depth). A miss is
//! the only evidence that the thread needed one more buffer of that size
//! than it had; a thread that only *receives* buffers — a connection
//! thread dropping the response tensors an engine thread allocated, the
//! engine dropping the clips a connection thread parsed — has no misses
//! there and retains none. Without this rule such hand-offs were kept up
//! to the full bucket depth on the dropping thread, where nothing ever
//! checked them out again: resident memory grew linearly with requests
//! served.
//!
//! # Observability
//!
//! Checkouts count [`peb_obs::Counter::PoolHits`] /
//! [`peb_obs::Counter::PoolMisses`] (only while tracing is enabled, like
//! every other counter). Callers that account their storage — the tensor
//! crate's `tensor_allocs` — use the `bool` returned by the `take_*`
//! functions: `true` means fresh heap storage was allocated.

use std::ops::{Deref, DerefMut};

pub mod arena;
pub mod tile;

/// Largest pooled buffer: `2^MAX_BUCKET` elements. Checkouts above this
/// always allocate fresh and returns above it are dropped. Sized to
/// cover the 512×512×80 "paper-shape" volumes (≈21 M elements).
const MAX_BUCKET: usize = 26;

/// Retained bytes per bucket. Depth is the budget divided by the bucket's
/// maximum buffer size, so small buckets hold thousands of buffers (an
/// autograd graph keeps that many same-sized activations live at once and
/// drops them together at step end) while large buckets keep only a few.
const BUCKET_BYTE_BUDGET: usize = 64 << 20;

/// Floor on retained buffers per bucket. An autograd graph at the
/// 512×512×80 paper shape drops dozens of same-sized full-volume
/// activations (~84 MB each) at the end of every step; if the bucket is
/// shallower than that working set, each drop munmaps the pages and the
/// next checkout page-faults freshly kernel-zeroed ones — measured at
/// over 80% of total CPU in system time. Depth must cover the graph's
/// same-size churn, so the floor is sized to it rather than to a byte
/// budget. Within that depth, retention follows demand (see
/// [`recycle`]), so retained memory never exceeds what this thread
/// itself had checked out at once.
const MIN_PER_BUCKET: usize = 48;

/// Ceiling on retained buffers per bucket, bounding the tiny-buffer
/// bookkeeping.
const MAX_PER_BUCKET: usize = 8192;

/// Element types the pool can hold: plain-old-data with a zero default
/// (`f32`, the fft crate's `Complex`, …). The `Default` value is what
/// [`take_zeroed`] fills with.
///
/// Each implementor owns a dedicated `thread_local!` bucket array —
/// declared by [`impl_poolable!`] — so the checkout hot path is a direct
/// TLS access with no type-map lookup or dynamic dispatch. Downstream
/// crates pool their own element types with
/// `peb_pool::impl_poolable!(MyType);`.
pub trait Poolable: Copy + Default + 'static {
    /// Runs `f` on the calling thread's buckets for this element type.
    /// Returns `None` during thread-local teardown.
    #[doc(hidden)]
    fn with_buckets<R>(f: impl FnOnce(&mut Buckets<Self>) -> R) -> Option<R>;
}

/// Declares the thread-local bucket storage that makes a plain-old-data
/// (`Copy + Default + 'static`) element type poolable. Invoke once per
/// type, in the crate that owns the type (or here for primitives).
#[macro_export]
macro_rules! impl_poolable {
    ($ty:ty) => {
        impl $crate::Poolable for $ty {
            fn with_buckets<R>(f: impl FnOnce(&mut $crate::Buckets<Self>) -> R) -> Option<R> {
                ::std::thread_local! {
                    static POOL: ::std::cell::RefCell<$crate::Buckets<$ty>> =
                        ::std::cell::RefCell::new($crate::Buckets::new());
                }
                POOL.try_with(|p| f(&mut p.borrow_mut())).ok()
            }
        }
    };
}

impl_poolable!(f32);
impl_poolable!(f64);
impl_poolable!(u64);
impl_poolable!(u32);
impl_poolable!(usize);

/// Always `true`: every checkout goes through the pool. Kept because
/// the benchmark harness prints it in its environment fingerprint; no
/// context or variable turns pooling off.
pub fn enabled() -> bool {
    true
}

/// Per-type bucket array: `buckets[b]` holds returned buffers whose
/// capacity `c` satisfies `2^b ≤ c < 2^(b+1)`, so any buffer popped from
/// bucket `b` can serve a checkout of up to `2^b` elements. Public only
/// for the [`impl_poolable!`] macro.
#[doc(hidden)]
pub struct Buckets<T> {
    buckets: [Vec<Vec<T>>; MAX_BUCKET + 1],
    /// Checkouts per bucket that found it empty: this thread's
    /// demonstrated demand, and the cap on what [`recycle`] retains.
    misses: [usize; MAX_BUCKET + 1],
}

impl<T> Buckets<T> {
    /// Empty bucket array (one slot per power-of-two size class).
    #[doc(hidden)]
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Buckets {
            buckets: std::array::from_fn(|_| Vec::new()),
            misses: [0; MAX_BUCKET + 1],
        }
    }
}

/// Smallest `b` with `2^b ≥ len` (`len ≥ 1`).
fn bucket_for_len(len: usize) -> usize {
    usize::BITS as usize - (len - 1).leading_zeros() as usize
}

/// Largest `b` with `2^b ≤ cap` (`cap ≥ 1`).
fn bucket_for_cap(cap: usize) -> usize {
    usize::BITS as usize - 1 - cap.leading_zeros() as usize
}

fn bucket_depth<T>(b: usize) -> usize {
    // Buffers in bucket `b` have capacity < 2^(b+1).
    let max_bytes = (1usize << (b + 1)) * std::mem::size_of::<T>().max(1);
    (BUCKET_BYTE_BUDGET / max_bytes).clamp(MIN_PER_BUCKET, MAX_PER_BUCKET)
}

/// Pops a recycled buffer with capacity ≥ `len`, or allocates one.
/// The returned vector is always empty (`len() == 0`); the flag is
/// `true` when fresh heap storage was allocated.
fn take_raw<T: Poolable>(len: usize) -> (Vec<T>, bool) {
    if len == 0 {
        return (Vec::new(), false);
    }
    if arena::active() && !peb_par::in_parallel() {
        // A record or replay session is open on this thread. Replay
        // serves the checkout from its planned arena region; record
        // (and replay fall-through: escapes, divergence) takes the
        // normal path below and logs the event. Checkouts made while
        // executing a parallel chunk body stay on the ordinary pool
        // path: chunk claiming is dynamic, so which chunks (and hence
        // which allocations) land on the recording thread is not
        // reproducible across runs.
        if let Some(v) = arena::replay_checkout::<T>(len) {
            return (v, false);
        }
        let out = take_raw_pooled::<T>(len);
        arena::record_checkout::<T>(&out.0, len);
        return out;
    }
    take_raw_pooled(len)
}

/// The ordinary (non-arena) checkout path.
fn take_raw_pooled<T: Poolable>(len: usize) -> (Vec<T>, bool) {
    let b = bucket_for_len(len);
    if b > MAX_BUCKET {
        return (Vec::with_capacity(len), true);
    }
    let reused = T::with_buckets(|bk| {
        let hit = bk.buckets[b].pop();
        if hit.is_none() {
            bk.misses[b] += 1;
        }
        hit
    })
    .flatten();
    match reused {
        Some(v) => {
            debug_assert!(v.is_empty() && v.capacity() >= len);
            peb_obs::count(peb_obs::Counter::PoolHits, 1);
            (v, false)
        }
        None => {
            peb_obs::count(peb_obs::Counter::PoolMisses, 1);
            // Round fresh capacity up to the bucket size so the buffer
            // lands back in bucket `b` when recycled.
            (Vec::with_capacity(len.next_power_of_two()), true)
        }
    }
}

/// Checks out a buffer of exactly `len` elements, all `T::default()`
/// (zero for the numeric types used here). Returns `(buffer, fresh)`
/// where `fresh` is `true` when heap storage was allocated.
pub fn take_zeroed<T: Poolable>(len: usize) -> (Vec<T>, bool) {
    let (mut v, fresh) = take_raw(len);
    v.resize(len, T::default());
    (v, fresh)
}

/// Checks out an **empty** buffer with capacity ≥ `cap`, for callers
/// that fill every element themselves (`push` / `extend`). Returns
/// `(buffer, fresh)`.
pub fn take_cleared<T: Poolable>(cap: usize) -> (Vec<T>, bool) {
    take_raw(cap)
}

/// Checks out a buffer holding a copy of `src` (no intermediate
/// zero-fill). Returns `(buffer, fresh)`.
pub fn take_copy<T: Poolable>(src: &[T]) -> (Vec<T>, bool) {
    let (mut v, fresh) = take_raw(src.len());
    v.extend_from_slice(src);
    (v, fresh)
}

/// Returns a buffer to the current thread's pool. Contents are
/// discarded. The bucket keeps it only while it holds fewer buffers than
/// this thread has had misses in it (capped by the bucket depth);
/// otherwise, and for over-size buffers, the storage is freed.
/// Zero-capacity vectors (e.g. after `mem::take`) are ignored.
pub fn recycle<T: Poolable>(mut v: Vec<T>) {
    let cap = v.capacity();
    if cap == 0 {
        return;
    }
    if arena::active() && !peb_par::in_parallel() && arena::intercept_recycle(&mut v) {
        // Returned to its arena region (replay); nothing for the pool.
        return;
    }
    let b = bucket_for_cap(cap);
    if b > MAX_BUCKET {
        return;
    }
    v.clear();
    let _ = T::with_buckets(|bk| {
        let keep = bk.misses[b].min(bucket_depth::<T>(b));
        let slot = &mut bk.buckets[b];
        if slot.len() < keep {
            slot.push(v);
        }
    });
}

/// RAII checkout: a pooled `Vec<T>` that recycles itself on drop. Used
/// for function-local scratch (ADI lines, scan lane state, FFT line
/// buffers) where threading an explicit `recycle` through every return
/// path would be noise.
pub struct PoolBuf<T: Poolable> {
    buf: Vec<T>,
}

impl<T: Poolable> PoolBuf<T> {
    /// Checkout of `len` elements, all `T::default()`.
    pub fn zeroed(len: usize) -> Self {
        PoolBuf {
            buf: take_zeroed(len).0,
        }
    }

    /// Empty checkout with capacity ≥ `cap`.
    pub fn cleared(cap: usize) -> Self {
        PoolBuf {
            buf: take_cleared(cap).0,
        }
    }

    /// Checkout holding a copy of `src`.
    pub fn copy_of(src: &[T]) -> Self {
        PoolBuf {
            buf: take_copy(src).0,
        }
    }
}

impl<T: Poolable> Deref for PoolBuf<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.buf
    }
}

impl<T: Poolable> DerefMut for PoolBuf<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<T: Poolable> Drop for PoolBuf<T> {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_maths() {
        assert_eq!(bucket_for_len(1), 0);
        assert_eq!(bucket_for_len(2), 1);
        assert_eq!(bucket_for_len(3), 2);
        assert_eq!(bucket_for_len(4), 2);
        assert_eq!(bucket_for_len(5), 3);
        assert_eq!(bucket_for_cap(1), 0);
        assert_eq!(bucket_for_cap(4), 2);
        assert_eq!(bucket_for_cap(7), 2);
        assert_eq!(bucket_for_cap(8), 3);
    }

    #[test]
    fn bucket_reuse_returns_the_same_storage() {
        let (v, _) = take_zeroed::<f32>(1000);
        let ptr = v.as_ptr();
        let cap = v.capacity();
        recycle(v);
        // Any length that maps to the same bucket reuses the storage.
        let (v2, fresh) = take_zeroed::<f32>(600);
        assert!(!fresh, "second checkout must be served from the pool");
        assert_eq!(v2.as_ptr(), ptr);
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.len(), 600);
    }

    #[test]
    fn zero_on_checkout_hides_recycled_garbage() {
        let (mut v, _) = take_zeroed::<f32>(256);
        for x in v.iter_mut() {
            *x = f32::NAN;
        }
        recycle(v);
        let (v2, _) = take_zeroed::<f32>(256);
        assert!(v2.iter().all(|&x| x == 0.0), "checkout must be zeroed");
        let (v3, _) = take_cleared::<f32>(256);
        assert!(v3.is_empty(), "cleared checkout must be empty");
    }

    #[test]
    fn take_copy_matches_source() {
        let src: Vec<f32> = (0..77).map(|i| i as f32).collect();
        let (v, _) = take_copy(&src);
        assert_eq!(v, src);
    }

    #[test]
    fn cross_thread_pools_are_isolated() {
        let (v, _) = take_zeroed::<f32>(512);
        let ptr = v.as_ptr() as usize;
        recycle(v);
        let other = std::thread::spawn(move || {
            // A different thread must not see this thread's buffer.
            let (v2, fresh) = take_zeroed::<f32>(512);
            (v2.as_ptr() as usize, fresh)
        })
        .join()
        .unwrap();
        assert_ne!(other.0, ptr, "pools must be thread-local");
        // This thread still has its buffer.
        let (v3, fresh) = take_zeroed::<f32>(512);
        assert!(!fresh);
        assert_eq!(v3.as_ptr() as usize, ptr);
    }

    #[test]
    fn a_thread_that_only_receives_buffers_retains_none() {
        // Distinct size class so sibling tests on this thread (if any)
        // cannot have missed in it.
        let len = 3000;
        let handed_over: Vec<Vec<f32>> = (0..16).map(|_| take_zeroed::<f32>(len).0).collect();
        std::thread::spawn(move || {
            for v in handed_over {
                recycle(v);
            }
            let kept = f32::with_buckets(|bk| bk.buckets[bucket_for_len(len)].len());
            assert_eq!(kept, Some(0), "no miss here, so nothing is retained");
            // Its own first checkout is therefore a miss …
            let (v, fresh) = take_zeroed::<f32>(len);
            assert!(fresh);
            // … which entitles it to keep exactly that one buffer.
            recycle(v);
            recycle(take_zeroed::<f32>(len).0);
            let kept = f32::with_buckets(|bk| bk.buckets[bucket_for_len(len)].len());
            assert_eq!(kept, Some(1));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn same_bucket_churn_is_all_hits_on_the_second_pass() {
        std::thread::spawn(|| {
            let len = 700;
            let pass = || -> usize {
                let live: Vec<(Vec<f32>, bool)> = (0..32).map(|_| take_zeroed(len)).collect();
                let fresh = live.iter().filter(|(_, fresh)| *fresh).count();
                for (v, _) in live {
                    recycle(v);
                }
                fresh
            };
            assert_eq!(pass(), 32, "cold pool: every checkout allocates");
            assert_eq!(pass(), 0, "demand was recorded: every checkout hits");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn zero_length_checkout_is_free() {
        let (v, fresh) = take_zeroed::<f32>(0);
        assert!(v.is_empty() && !fresh);
        recycle(Vec::<f32>::new()); // no-op
    }

    #[test]
    fn distinct_element_types_do_not_collide() {
        let (v, _) = take_zeroed::<f32>(64);
        recycle(v);
        let (w, _) = take_zeroed::<u64>(64);
        assert_eq!(w.len(), 64);
        recycle(w);
        let (v2, fresh) = take_zeroed::<f32>(64);
        assert!(!fresh, "f32 bucket still holds the f32 buffer");
        assert_eq!(v2.len(), 64);
    }

    #[test]
    fn pool_buf_recycles_on_drop() {
        let ptr = {
            let mut b = PoolBuf::<f32>::zeroed(333);
            b[0] = 1.0;
            b.as_ptr()
        };
        let (v, fresh) = take_zeroed::<f32>(333);
        assert!(!fresh);
        assert_eq!(v.as_ptr(), ptr);
        assert_eq!(v[0], 0.0);
    }

    #[test]
    fn oversized_buffers_bypass_the_pool() {
        let huge = 1usize << (MAX_BUCKET + 1);
        let (v, fresh) = take_raw::<f32>(huge);
        assert!(fresh);
        assert!(v.capacity() >= huge);
        recycle(v); // dropped: over-size
    }
}
