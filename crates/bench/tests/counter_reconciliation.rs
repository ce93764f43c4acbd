//! Reconciles the fusion counters with pool accounting.
//!
//! A k-stage fused chain must be *visible* in the counters exactly the
//! way it is in memory traffic: one pool checkout for the output (hit or
//! miss) and `k` `fused_ops` ticks. `tensor_allocs` must equal the pool
//! misses over the window — pooled checkouts that hit never tick an
//! alloc, and nothing double-counts.
//!
//! The same discipline covers execution plans: a replayed inference
//! must be invisible to the allocator — zero `pool_misses` and zero
//! `tensor_allocs` over the replay window (the arena serves every
//! planned intermediate; the escaping output hits the warm pool), one
//! `plan_replays` tick, and no `arena_bytes` growth (regions are sized
//! once at plan build). That accounting is exact at one thread; with
//! helper threads the arena leaves chunk-body scratch on the pool of
//! whichever thread claims the chunk, so there the promise is bits, zero
//! `tensor_allocs`, a fixed arena, and misses that are first touches
//! only.
//!
//! This file holds a single `#[test]` so it gets its own process:
//! counter deltas would be racy if unrelated tests ran concurrently in
//! the same binary.

use peb_par::ctx::{self, ExecCtx};
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{InferPlan, PebPredictor, SdmPeb, SdmPebConfig};

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

    plan_replay_counters_reconcile();
}

/// A replayed inference is allocation-free: the arena serves every
/// planned checkout, so the only pool traffic in the window is the
/// escaping output buffer hitting the warm pool.
fn plan_replay_counters_reconcile() {
    // Exact at one thread. With helpers the arena leaves chunk-body
    // scratch (GEMM pack panels) on the pool of whichever thread claims
    // the chunk, so a helper's first panel of a size class is a miss
    // whenever it happens — `plan_replay_with_helpers` pins what holds
    // there.
    let replaying = ExecCtx {
        threads: 1,
        ..ctx::current()
    };
    ctx::with(replaying, plan_replay_case);
    let with_helpers = ExecCtx {
        threads: 3,
        ..replaying
    };
    ctx::with(with_helpers, plan_replay_with_helpers)
}

fn plan_replay_case() {
    let mut rng = StdRng::seed_from_u64(17);
    let model = SdmPeb::new(SdmPebConfig::tiny((2, 16, 16)), &mut rng);
    let clip = Tensor::rand_uniform(&[2, 16, 16], 0.05, 0.9, &mut rng);
    let eager = model.predict(&clip).bit_digest();
    let (plan, _) = InferPlan::record(&model, &clip);

    // One throwaway replay warms the pool buckets the escapes land in.
    drop(plan.predict(&model, &clip));

    let snap = |name: &str| peb_obs::snapshot().counter(name);
    let (m0, a0, r0, b0) = (
        snap("pool_misses"),
        snap("tensor_allocs"),
        snap("plan_replays"),
        snap("arena_bytes"),
    );
    let (out, outcome) = plan.predict(&model, &clip);
    let (m1, a1, r1, b1) = (
        snap("pool_misses"),
        snap("tensor_allocs"),
        snap("plan_replays"),
        snap("arena_bytes"),
    );
    assert!(outcome.complete, "replay must complete: {outcome:?}");
    assert_eq!(out.bit_digest(), eager, "replay must stay bitwise eager");
    assert_eq!(m1 - m0, 0, "replay must make zero pool misses");
    assert_eq!(a1 - a0, 0, "replay must make zero fresh heap allocations");
    assert_eq!(
        r1 - r0,
        1,
        "one completed replay must tick plan_replays once"
    );
    assert_eq!(b1 - b0, 0, "a steady-state replay must not grow the arena");
    assert!(
        outcome.served > 0,
        "the arena, not the pool, serves planned intermediates"
    );
}

/// With helper threads a replay keeps every promise but one: same bits,
/// no fresh tensor storage, no arena growth — and pool misses that are
/// first touches only (at most one per helper and panel size class,
/// ten here), never one per replay, which is what a retention rule
/// that starves the workers or a hole in the arena would produce.
fn plan_replay_with_helpers() {
    const REPLAYS: u64 = 64;
    let mut rng = StdRng::seed_from_u64(17);
    let model = SdmPeb::new(SdmPebConfig::tiny((2, 16, 16)), &mut rng);
    let clip = Tensor::rand_uniform(&[2, 16, 16], 0.05, 0.9, &mut rng);
    let eager = model.predict(&clip).bit_digest();
    let (plan, _) = InferPlan::record(&model, &clip);
    drop(plan.predict(&model, &clip));

    let snap = |name: &str| peb_obs::snapshot().counter(name);
    let window = || {
        (
            snap("pool_misses"),
            snap("tensor_allocs"),
            snap("plan_replays"),
            snap("arena_bytes"),
        )
    };
    let (m0, a0, r0, b0) = window();
    for _ in 0..REPLAYS {
        let (out, outcome) = plan.predict(&model, &clip);
        assert!(outcome.complete, "replay must complete: {outcome:?}");
        assert_eq!(out.bit_digest(), eager, "replay must stay bitwise eager");
    }
    let (m1, a1, r1, b1) = window();
    assert_eq!(
        a1 - a0,
        0,
        "replays must make zero fresh tensor allocations"
    );
    assert_eq!(
        r1 - r0,
        REPLAYS,
        "every completed replay ticks plan_replays"
    );
    assert_eq!(b1 - b0, 0, "steady-state replays must not grow the arena");
    assert!(
        m1 - m0 < REPLAYS,
        "pool misses with helpers must be first touches, not one per replay: {} in {REPLAYS}",
        m1 - m0
    );
}
