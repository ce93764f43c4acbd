//! Reconciles the fusion counters with pool accounting.
//!
//! A k-stage fused chain must be *visible* in the counters exactly the
//! way it is in memory traffic: one pool checkout for the output (hit or
//! miss) and `k` `fused_ops` ticks. `tensor_allocs` must equal the pool
//! misses over the window — pooled checkouts that hit never tick an
//! alloc, and nothing double-counts. That holds for a chain short enough
//! to run inline and for one long enough to spread its windows over the
//! `peb-par` pool: the workers write into the caller's one checkout.
//!
//! This file holds a single `#[test]` so it gets its own process:
//! counter deltas would be racy if unrelated tests ran concurrently in
//! the same binary.

use peb_tensor::Tensor;

struct Deltas {
    hits: u64,
    misses: u64,
    fused: u64,
    allocs: u64,
}

fn counters() -> (u64, u64, u64, u64) {
    let p = peb_obs::snapshot();
    (
        p.counter("pool_hits"),
        p.counter("pool_misses"),
        p.counter("fused_ops"),
        p.counter("tensor_allocs"),
    )
}

fn window(f: impl FnOnce() -> Tensor) -> Deltas {
    let (h0, m0, f0, a0) = counters();
    let out = f();
    let (h1, m1, f1, a1) = counters();
    drop(out);
    Deltas {
        hits: h1 - h0,
        misses: m1 - m0,
        fused: f1 - f0,
        allocs: a1 - a0,
    }
}

/// Checks one warm window of `chain` (of `k` stages) against the
/// accounting contract.
fn assert_reconciles(what: &str, k: u64, chain: impl Fn() -> Tensor) {
    // Warm the pool so steady-state checkouts are hits, then measure.
    drop(chain());
    let fused = window(chain);

    assert_eq!(
        fused.fused, k,
        "{what}: fused eval must tick one fused_op per stage"
    );
    assert_eq!(
        fused.hits + fused.misses,
        1,
        "{what}: fused eval must make exactly one pool checkout"
    );
    assert_eq!(
        fused.allocs, fused.misses,
        "{what}: tensor_allocs must equal pool misses in the fused window"
    );
    assert_eq!(
        fused.misses, 0,
        "{what}: warm fused checkout should hit the pool"
    );
}

#[test]
fn fused_chain_counters_reconcile_with_pool_accounting() {
    peb_obs::set_mode(peb_obs::TraceMode::Summary);

    let k = 3; // add → mul → sigmoid
    let chain = |a: &Tensor, b: &Tensor| a.fused().add(b).mul(b).sigmoid().eval();
    // The second chain is long enough to spread over the pool, which
    // four threads make sure of wherever the test runs.
    for (what, len, threads) in [("inline chain", 4096, 1), ("spread chain", 1 << 17, 4)] {
        let a = Tensor::from_fn(&[len], |i| (i as f32).mul_add(1e-3, -2.0));
        let b = Tensor::from_fn(&[len], |i| (i as f32).mul_add(-2e-3, 4.0));
        peb_par::with_thread_count(threads, || assert_reconciles(what, k, || chain(&a, &b)));
    }
}
