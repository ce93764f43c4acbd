//! Scoping of the execution context across the parallel seam: a
//! `ctx::with` scope governs every chunk body of a parallel loop, on
//! whichever pool thread runs it, and never outlives its closure.

use std::sync::{Barrier, Mutex};

use peb_par::ctx::{self, ExecCtx, Level};

/// A context no environment can resolve to (no variable sets the tile
/// target), so observing it proves the scope reached the observer.
fn marked(threads: usize) -> ExecCtx {
    ExecCtx {
        level: Level::Scalar,
        tile_bytes: 12_345,
        threads,
    }
}

/// Runs a 4-chunk loop at 4 threads whose chunk bodies rendezvous on a
/// barrier — so each runs on its own thread, caller and three helpers —
/// and returns the context each body observed.
fn observed_by_four_threads() -> Vec<ExecCtx> {
    let rendezvous = Barrier::new(4);
    let seen = Mutex::new(Vec::new());
    peb_par::parallel_chunks(4, 1, |_| {
        seen.lock().expect("seen lock").push(ctx::current());
        rendezvous.wait();
    });
    seen.into_inner().expect("seen lock")
}

#[test]
fn every_chunk_body_observes_the_submitters_context() {
    let scoped = marked(4);
    assert_eq!(ctx::with(scoped, observed_by_four_threads), [scoped; 4]);
    // The helpers adopted the scope for that loop only: a later loop
    // submitted outside it sees the process default on every thread.
    let outside = ExecCtx {
        threads: 4,
        ..ctx::process_default()
    };
    assert_eq!(
        peb_par::with_thread_count(4, observed_by_four_threads),
        [outside; 4]
    );
}

#[test]
fn nested_override_is_restored_after_a_panicking_closure() {
    let outer = marked(2);
    ctx::with(outer, || {
        let inner = ExecCtx {
            threads: 3,
            ..outer
        };
        let unwound = std::panic::catch_unwind(|| {
            ctx::with(inner, || {
                assert_eq!(ctx::current(), inner);
                panic!("boom");
            })
        });
        assert!(unwound.is_err());
        assert_eq!(ctx::current(), outer, "inner scope leaked past its unwind");
    });
    assert_eq!(ctx::current(), ctx::process_default());
}

#[test]
fn another_os_thread_never_sees_the_override() {
    ctx::with(marked(1), || {
        let seen = std::thread::spawn(ctx::current).join().expect("join");
        assert_eq!(seen, ctx::process_default());
    });
}

#[test]
#[should_panic(expected = "thread count must be positive")]
fn zero_threads_is_rejected() {
    ctx::with(marked(0), || {});
}
