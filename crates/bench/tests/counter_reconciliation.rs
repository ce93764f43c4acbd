//! Reconciles the fusion counters with pool accounting.
//!
//! A k-stage fused chain must be *visible* in the counters exactly the
//! way it is in memory traffic: one pool checkout for the output (hit or
//! miss) and `k` `fused_ops` ticks. `tensor_allocs` must equal the pool
//! misses over the window — pooled checkouts that hit never tick an
//! alloc, and nothing double-counts.
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

#[test]
fn fused_chain_counters_reconcile_with_pool_accounting() {
    peb_obs::set_mode(peb_obs::TraceMode::Summary);

    let a = Tensor::from_fn(&[4096], |i| (i as f32).mul_add(1e-3, -2.0));
    let b = Tensor::from_fn(&[4096], |i| (i as f32).mul_add(-2e-3, 4.0));
    let k = 3; // add → mul → sigmoid
    let chain = |a: &Tensor, b: &Tensor| a.fused().add(b).mul(b).sigmoid().eval();

    // Warm the pool so steady-state checkouts are hits, then measure.
    drop(chain(&a, &b));
    let fused = window(|| chain(&a, &b));

    assert_eq!(
        fused.fused, k,
        "fused eval must tick one fused_op per stage"
    );
    assert_eq!(
        fused.hits + fused.misses,
        1,
        "fused eval must make exactly one pool checkout"
    );
    assert_eq!(
        fused.allocs, fused.misses,
        "tensor_allocs must equal pool misses in the fused window"
    );
    assert_eq!(fused.misses, 0, "warm fused checkout should hit the pool");
}
