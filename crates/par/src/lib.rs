//! `peb-par`: the workspace-wide parallel compute layer.
//!
//! A single long-lived pool of worker threads executes *deterministically
//! partitioned* loops for every hot path in the workspace — GEMM row
//! panels, convolution planes, ADI tridiagonal lines, selective-scan channel
//! lanes, FFT lines, and dataset generation.
//!
//! # Determinism contract
//!
//! Work is always split into **fixed chunk boundaries that depend only on
//! the problem size, never on the thread count**. Each output element is
//! written by exactly one chunk, and any cross-chunk reduction is combined
//! sequentially in ascending chunk order by the caller: each chunk writes
//! its own partial into a caller-owned buffer, which the caller then sums
//! in order (the selective-scan backward keeps one `db`/`dc` partial per
//! 8-lane channel group). Consequently every parallelised kernel in the
//! workspace produces **bitwise identical** results at any
//! `PEB_THREADS` setting — `PEB_THREADS=1` is an exact sequential
//! fallback, and the determinism suite asserts 1-thread and N-thread runs
//! agree to the bit.
//!
//! # Sizing
//!
//! The effective thread count is the `threads` field of the calling
//! thread's [`ExecCtx`] (see [`ctx`]): the innermost [`ctx::with`] /
//! [`with_thread_count`] scope, else `PEB_THREADS`, else
//! `available_parallelism()`.
//! The pool spawns workers lazily and keeps them parked between calls, so
//! a parallel loop costs roughly one atomic fetch-add per chunk plus one
//! condvar wake per idle worker.
//!
//! Nested parallel calls (for example a parallel conv backward whose GEMM
//! is itself parallel) run sequentially inside their worker: the outer
//! loop owns the pool. This keeps the scheduler trivially deadlock-free.
//!
//! # Example
//!
//! ```
//! let mut out = vec![0u64; 1000];
//! // ~10 scalar ops per element; smaller loops would run inline.
//! peb_par::parallel_chunks_mut_cost(&mut out, 64, 10, |offset, chunk| {
//!     for (i, slot) in chunk.iter_mut().enumerate() {
//!         *slot = ((offset + i) as u64).pow(2);
//!     }
//! });
//! assert_eq!(out[999], 999 * 999);
//! ```

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

pub mod ctx;

pub use ctx::ExecCtx;

// ---------------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------------

thread_local! {
    /// Set inside pool workers and inside caller-side chunk loops: nested
    /// parallel calls run inline.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// The thread count parallel loops on this thread will use right now.
fn current_threads() -> usize {
    ctx::current().threads
}

/// Runs `f` with the effective thread count forced to `n` on this thread
/// (the rest of the current [`ExecCtx`] unchanged).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    ctx::with(
        ExecCtx {
            threads: n,
            ..ctx::current()
        },
        f,
    )
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

struct Pool {
    shared: Arc<PoolShared>,
    spawned: Mutex<usize>,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
            }),
            spawned: Mutex::new(0),
        })
    }

    /// Makes sure at least `n` workers exist (they are never torn down).
    fn ensure_workers(&self, n: usize) {
        let mut spawned = self.spawned.lock().expect("pool spawn lock");
        while *spawned < n {
            let shared = Arc::clone(&self.shared);
            let idx = *spawned;
            std::thread::Builder::new()
                .name(format!("peb-par-{idx}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
            *spawned += 1;
        }
    }

    fn submit(&self, jobs: impl IntoIterator<Item = Job>) {
        let mut queue = self.shared.queue.lock().expect("pool queue lock");
        queue.extend(jobs);
        drop(queue);
        self.shared.available.notify_all();
    }
}

fn worker_loop(shared: &PoolShared) {
    IN_PARALLEL.with(|f| f.set(true));
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("worker queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.available.wait(queue).expect("worker queue wait");
            }
        };
        job();
    }
}

/// State shared between the caller and its helper jobs for one parallel
/// loop. The `task` pointer borrows the caller's stack; helpers only
/// dereference it *after* claiming a chunk index below `nchunks`, and the
/// caller only returns once `completed == nchunks`, so the borrow is live
/// for every dereference. Stale helpers (woken after completion) claim an
/// out-of-range index and exit without touching `task`.
struct LoopShared {
    task: *const (dyn Fn(usize) + Sync),
    nchunks: usize,
    next: AtomicUsize,
    completed: AtomicUsize,
    panicked: AtomicBool,
    lock: Mutex<()>,
    done: Condvar,
}

// SAFETY: `task` is only dereferenced while the owning `run_parallel` frame
// is alive (guaranteed by the completed-count barrier) and the closure it
// points to is `Sync`.
unsafe impl Send for LoopShared {}
// SAFETY: as for `Send`; every other field is `Sync`.
unsafe impl Sync for LoopShared {}

impl LoopShared {
    /// Claims and runs chunks until none remain. Returns whether any chunk
    /// panicked (the panic itself is captured, not propagated).
    fn run_chunks(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.nchunks {
                return;
            }
            // SAFETY: i < nchunks, so the caller frame (and the task
            // closure it borrows) is still alive.
            let task = unsafe { &*self.task };
            if catch_unwind(AssertUnwindSafe(|| task(i))).is_err() {
                self.panicked.store(true, Ordering::SeqCst);
            }
            let done = self.completed.fetch_add(1, Ordering::SeqCst) + 1;
            if done == self.nchunks {
                let _guard = self.lock.lock().expect("loop done lock");
                self.done.notify_all();
            }
        }
    }

    fn wait(&self) {
        let mut guard = self.lock.lock().expect("loop wait lock");
        while self.completed.load(Ordering::SeqCst) < self.nchunks {
            guard = self.done.wait(guard).expect("loop wait");
        }
    }
}

/// Runs `task(chunk_index)` for every index in `0..nchunks`, spreading
/// chunks over the pool. Falls back to a plain sequential loop when the
/// effective thread count is 1, when there is at most one chunk, or when
/// already inside a parallel loop (nested calls).
fn run_parallel(nchunks: usize, task: &(dyn Fn(usize) + Sync)) {
    let threads = current_threads();
    let nested = IN_PARALLEL.with(|f| f.get());
    if threads <= 1 || nchunks <= 1 || nested {
        for i in 0..nchunks {
            task(i);
        }
        return;
    }
    let pool = Pool::global();
    let helpers = (threads - 1).min(nchunks - 1);
    pool.ensure_workers(helpers);
    // SAFETY: erases the caller-stack borrow; see LoopShared's safety
    // notes for why the completed-count barrier makes this sound.
    let task: *const (dyn Fn(usize) + Sync + 'static) =
        unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync)) };
    let shared = Arc::new(LoopShared {
        task,
        nchunks,
        next: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        lock: Mutex::new(()),
        done: Condvar::new(),
    });
    // Helpers run this loop's chunks under the submitter's context, so a
    // `ctx::with` scope governs the whole parallel region.
    let submitter = ctx::current();
    pool.submit((0..helpers).map(|_| {
        let shared = Arc::clone(&shared);
        Box::new(move || {
            let _ctx = ctx::enter(submitter);
            shared.run_chunks()
        }) as Job
    }));
    // The caller participates too; mark it as inside a parallel region so
    // nested loops in its chunks run inline, like in the workers.
    IN_PARALLEL.with(|f| f.set(true));
    shared.run_chunks();
    IN_PARALLEL.with(|f| f.set(false));
    shared.wait();
    if shared.panicked.load(Ordering::SeqCst) {
        panic!("peb-par: a parallel chunk panicked");
    }
}

// ---------------------------------------------------------------------------
// Deterministic partitioning
// ---------------------------------------------------------------------------

/// Fixed chunk size for `total` items given a requested granularity.
///
/// Depends only on the problem size — never on the thread count — so chunk
/// boundaries (and therefore combination order) are stable across any
/// `PEB_THREADS`.
fn fixed_chunk(total: usize, chunk: usize) -> usize {
    chunk.max(1).min(total.max(1))
}

/// Minimum estimated work (items × per-item cost) below which the
/// `*_cost` loop variants skip the pool and run their chunks inline.
///
/// Dispatching helpers costs a queue lock, condvar wakes, and — on
/// oversubscribed machines — scheduler churn; for kernels doing less than
/// ~64 k scalar operations that overhead dominates the work itself (a
/// micro training loop regressed 40 % at `PEB_THREADS=4` from exactly
/// this). The cutoff only changes *where* chunks run, never how
/// the work is partitioned: the same chunks execute in ascending order on
/// the calling thread, so results stay bitwise identical.
pub const MIN_PARALLEL_WORK: u64 = 1 << 16;

/// Whether a cost-hinted loop over `total` items at `cost_per_item`
/// estimated scalar ops each stays below the parallel cutoff.
fn below_parallel_cutoff(total: usize, cost_per_item: u64) -> bool {
    (total as u64).saturating_mul(cost_per_item) < MIN_PARALLEL_WORK
}

/// Runs the identical chunk sequence either inline (ascending order) or
/// over the pool. Both paths visit every chunk exactly once with the same
/// boundaries.
fn run_maybe_parallel(nchunks: usize, sequential: bool, task: &(dyn Fn(usize) + Sync)) {
    if sequential {
        for i in 0..nchunks {
            task(i);
        }
    } else {
        run_parallel(nchunks, task);
    }
}

/// Number of chunks for `total` items at `chunk` granularity.
fn chunk_count(total: usize, chunk: usize) -> usize {
    total.div_ceil(fixed_chunk(total, chunk))
}

/// Runs `f(range)` over fixed `chunk`-sized slices of `0..total`, in
/// parallel unless the estimated work (`total` × `cost_per_item` scalar
/// ops) falls below [`MIN_PARALLEL_WORK`]: such a loop runs its chunks
/// inline in ascending order — same boundaries, same bits, no pool
/// overhead.
///
/// `f` must only write state disjoint per range (the caller's contract);
/// under that contract the result is bitwise identical at any thread
/// count.
pub fn parallel_chunks_cost(
    total: usize,
    chunk: usize,
    cost_per_item: u64,
    f: impl Fn(Range<usize>) + Sync,
) {
    if total == 0 {
        return;
    }
    let c = fixed_chunk(total, chunk);
    let sequential = below_parallel_cutoff(total, cost_per_item);
    run_maybe_parallel(chunk_count(total, chunk), sequential, &|i| {
        let start = i * c;
        f(start..(start + c).min(total));
    });
}

/// Splits `data` into fixed `chunk`-sized sub-slices and runs
/// `f(offset, sub_slice)` on each, in parallel unless the estimated work
/// (`data.len()` × `cost_per_item` scalar ops) falls below
/// [`MIN_PARALLEL_WORK`], as in [`parallel_chunks_cost`].
pub fn parallel_chunks_mut_cost<T: Send>(
    data: &mut [T],
    chunk: usize,
    cost_per_item: u64,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let total = data.len();
    if total == 0 {
        return;
    }
    let c = fixed_chunk(total, chunk);
    let sequential = below_parallel_cutoff(total, cost_per_item);
    let slice = UnsafeSlice::new(data);
    run_maybe_parallel(chunk_count(total, c), sequential, &|i| {
        let start = i * c;
        let end = (start + c).min(total);
        // SAFETY: chunk i covers exactly data[start..end]; chunks are
        // disjoint by construction.
        let sub = unsafe { slice.slice_mut(start..end) };
        f(start, sub);
    });
}

// ---------------------------------------------------------------------------
// UnsafeSlice
// ---------------------------------------------------------------------------

/// A `Sync` view over a mutable slice for kernels whose per-chunk writes
/// are disjoint but interleaved (strided lines, lane-major outputs), where
/// `chunks_mut` cannot express the partition.
///
/// All access is `unsafe`: the caller must guarantee that no index is
/// written by more than one chunk and that reads do not race writes.
pub struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: an `UnsafeSlice` is a `&mut [T]` in disguise, which is `Send`
// for `T: Send`.
unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}
// SAFETY: a shared `UnsafeSlice` reaches its elements only through its
// `unsafe` accessors, which hand out `&mut` to elements no other thread
// touches meanwhile (their callers' contract): in effect a `&mut T` sent
// to that thread, which `T: Send` allows.
unsafe impl<T: Send> Sync for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wraps a mutable slice.
    pub fn new(data: &'a mut [T]) -> Self {
        UnsafeSlice {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw pointer to the first element, for kernels whose disjoint
    /// per-chunk regions are not contiguous ranges (column blocks of a
    /// row-major matrix). Dereferencing it carries the same contract as
    /// [`UnsafeSlice::slice_mut`].
    pub fn as_mut_ptr(&self) -> *mut T {
        self.ptr
    }

    /// Returns a mutable reference to element `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds and must not be aliased by any concurrent
    /// read or write.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }

    /// Returns the sub-slice `range` as mutable.
    ///
    /// # Safety
    ///
    /// `range` must be in bounds and disjoint from every range accessed by
    /// other threads.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_is_visited_once() {
        let mut hits = vec![0u8; 1337];
        {
            let slice = UnsafeSlice::new(&mut hits);
            with_thread_count(4, || {
                parallel_chunks_cost(1337, 1337usize.div_ceil(64), MIN_PARALLEL_WORK, |r| {
                    for i in r {
                        // SAFETY: chunks are disjoint; `i` is in range.
                        unsafe { *slice.get_mut(i) += 1 };
                    }
                });
            });
        }
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn chunks_cover_exactly_without_overlap() {
        for total in [1usize, 7, 64, 65, 1000] {
            for chunk in [1usize, 3, 64, 2048] {
                let mut cover = vec![0u32; total];
                {
                    let slice = UnsafeSlice::new(&mut cover);
                    with_thread_count(3, || {
                        parallel_chunks_cost(total, chunk, MIN_PARALLEL_WORK, |r| {
                            for i in r {
                                // SAFETY: the chunks partition `0..total`.
                                unsafe { *slice.get_mut(i) += 1 };
                            }
                        });
                    });
                }
                assert!(cover.iter().all(|&c| c == 1), "total={total} chunk={chunk}");
            }
        }
    }

    #[test]
    fn chunks_mut_partitions_the_slice() {
        let mut data = vec![0usize; 500];
        with_thread_count(4, || {
            parallel_chunks_mut_cost(&mut data, 37, 1 << 20, |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = offset + i;
                }
            });
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn one_thread_equals_many_threads_bitwise() {
        let work = |threads: usize| {
            // A reduction whose result depends on summation order: one
            // partial per fixed chunk, combined in ascending chunk order.
            // Identical chunking must give identical bits.
            let (total, chunk) = (1000usize, 13usize);
            let mut partials = vec![0f32; total.div_ceil(chunk)];
            {
                let slots = UnsafeSlice::new(&mut partials);
                with_thread_count(threads, || {
                    parallel_chunks_cost(total, chunk, MIN_PARALLEL_WORK, |r| {
                        let mut acc = 0f32;
                        for i in r.clone() {
                            acc += (i as f32).sqrt() * 1e-3;
                        }
                        // SAFETY: each chunk writes only its own slot.
                        unsafe { *slots.get_mut(r.start / chunk) = acc };
                    })
                });
            }
            partials.into_iter().fold(0f32, |a, b| a + b)
        };
        assert_eq!(work(1).to_bits(), work(4).to_bits());
    }

    #[test]
    fn nested_parallelism_runs_inline_and_finishes() {
        let mut out = vec![0u32; 64];
        {
            let slice = UnsafeSlice::new(&mut out);
            with_thread_count(4, || {
                parallel_chunks_cost(64, 8, MIN_PARALLEL_WORK, |r| {
                    // Nested call: must run inline, on this chunk's
                    // thread, without deadlocking.
                    let outer = std::thread::current().id();
                    parallel_chunks_cost(4, 1, 1 << 20, |_| {
                        assert_eq!(std::thread::current().id(), outer);
                    });
                    for i in r {
                        // SAFETY: the chunks partition `0..64`.
                        unsafe { *slice.get_mut(i) = i as u32 };
                    }
                });
            });
        }
        assert_eq!(out[63], 63);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            with_thread_count(4, || {
                parallel_chunks_cost(100, 1, MIN_PARALLEL_WORK, |r| {
                    if r.start == 57 {
                        panic!("boom");
                    }
                });
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn with_thread_count_restores_on_exit() {
        let outer = current_threads();
        with_thread_count(7, || {
            assert_eq!(current_threads(), 7);
            with_thread_count(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 7);
        });
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn zero_total_is_a_no_op() {
        parallel_chunks_cost(0, 8, MIN_PARALLEL_WORK, |_| panic!("must not run"));
        parallel_chunks_mut_cost(&mut [] as &mut [u8], 8, 1, |_, _| panic!("must not run"));
    }

    #[test]
    fn cost_cutoff_keeps_chunk_boundaries_and_coverage() {
        // Below the cutoff (sequential) and far above it (parallel), the
        // chunk boundaries handed to the closure must be identical.
        for cost in [1u64, u64::MAX / 2] {
            let total = 100usize;
            let seen = Mutex::new(Vec::new());
            with_thread_count(3, || {
                parallel_chunks_cost(total, 32, cost, |r| {
                    seen.lock().unwrap().push((r.start, r.end));
                });
            });
            let mut got = seen.into_inner().unwrap();
            got.sort_unstable();
            assert_eq!(
                got,
                vec![(0, 32), (32, 64), (64, 96), (96, 100)],
                "cost={cost}"
            );
        }
    }

    #[test]
    fn cost_cutoff_runs_small_loops_on_the_calling_thread() {
        let caller = std::thread::current().id();
        with_thread_count(4, || {
            parallel_chunks_cost(64, 8, 1, |_| {
                assert_eq!(std::thread::current().id(), caller);
            });
            parallel_chunks_mut_cost(&mut [0u8; 64], 8, 1, |_, _| {
                assert_eq!(std::thread::current().id(), caller);
            });
        });
    }

    #[test]
    fn cost_variants_match_plain_variants_exactly() {
        let total = 513usize;
        for cost in [1u64, 1 << 20] {
            let mut plain = vec![0f32; total];
            let mut hinted = vec![0f32; total];
            let lens = Mutex::new(Vec::new());
            with_thread_count(4, || {
                let slice = UnsafeSlice::new(&mut plain);
                parallel_chunks_cost(total, 64, MIN_PARALLEL_WORK, |r| {
                    for i in r {
                        // SAFETY: chunks are disjoint; `i` is in range.
                        unsafe { *slice.get_mut(i) = (i as f32).sqrt() };
                    }
                });
                parallel_chunks_mut_cost(&mut hinted, 64, cost, |off, sub| {
                    for (i, v) in sub.iter_mut().enumerate() {
                        *v = ((off + i) as f32).sqrt();
                    }
                });
                parallel_chunks_cost(total, 100, cost, |r| {
                    lens.lock().unwrap().push((r.start, r.len()));
                });
            });
            assert_eq!(plain, hinted, "cost={cost}");
            let mut lens = lens.into_inner().unwrap();
            lens.sort_unstable();
            let b: Vec<usize> = lens.into_iter().map(|(_, len)| len).collect();
            assert_eq!(b, [100, 100, 100, 100, 100, 13], "cost={cost}");
        }
    }
}
