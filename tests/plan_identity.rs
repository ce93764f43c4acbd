//! Execution plans must be invisible in the output: `Plan::replay` is
//! bitwise identical to the eager path at every dispatch level this
//! machine has, at 1 and 4 threads. A serving
//! hot-swap must invalidate the plan cache so the *new* model's bits
//! are served, and static memory planning must never assign two
//! simultaneously-live buffers to the same arena region for any valid
//! clip geometry.

use std::path::PathBuf;
use std::sync::atomic::Ordering;

use peb_guard::{OptKind, TrainCheckpoint};
use peb_nn::Parameterized;
use peb_par::ctx::{self, ExecCtx};
use peb_pool::arena::{Event, MemPlan, Placement};
use peb_serve::{Client, ServeConfig, Server};
use peb_simd::Level;
use peb_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdm_peb::{InferPlan, PebPredictor, SdmPeb, SdmPebConfig};

/// The dispatch levels available on this machine: scalar always, plus
/// the detected best level when it differs.
fn levels() -> Vec<Level> {
    let mut ls = vec![Level::Scalar];
    if peb_simd::best_level() != Level::Scalar {
        ls.push(peb_simd::best_level());
    }
    ls
}

fn model_and_clip(dims: (usize, usize, usize), seed: u64) -> (SdmPeb, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SdmPeb::new(SdmPebConfig::tiny(dims), &mut rng);
    let clip = Tensor::rand_uniform(&[dims.0, dims.1, dims.2], 0.05, 0.9, &mut rng);
    (model, clip)
}

#[test]
fn replay_is_bitwise_identical_across_levels_and_threads() {
    let (model, clip) = model_and_clip((4, 16, 16), 21);
    for level in levels() {
        for threads in [1usize, 4] {
            let scoped = ExecCtx {
                level,
                threads,
                plan: true,
                ..ctx::current()
            };
            ctx::with(scoped, || {
                let eager = model.predict(&clip).bit_digest();
                let (plan, recorded) = InferPlan::record(&model, &clip);
                assert_eq!(
                    recorded.bit_digest(),
                    eager,
                    "recording run diverged from eager: {scoped:?}"
                );
                let mem = plan.plan();
                assert!(
                    mem.arena_bytes() <= mem.logical_bytes(),
                    "aliasing lost bytes: {mem:?}"
                );
                for rep in 0..2 {
                    let (out, outcome) = plan.predict(&model, &clip);
                    assert!(
                        outcome.complete,
                        "replay {rep} incomplete: {outcome:?} under {scoped:?}"
                    );
                    assert!(outcome.served > 0, "arena must serve intermediates");
                    assert_eq!(
                        out.bit_digest(),
                        eager,
                        "replay {rep} diverged from eager: {scoped:?}"
                    );
                }
            });
        }
    }
}

const GRID: (usize, usize, usize) = (4, 16, 16);

fn serve_clip() -> Tensor {
    let (d, h, w) = GRID;
    Tensor::from_vec(
        (0..d * h * w)
            .map(|i| (i as f32 * 0.013).sin() * 0.3 + 0.5)
            .collect(),
        &[d, h, w],
    )
    .expect("clip")
}

/// Saves a checkpoint whose weights come from a differently-seeded
/// model and returns its path plus that model's prediction digest.
fn write_swap_checkpoint() -> (PathBuf, u64) {
    let model = SdmPeb::new(SdmPebConfig::tiny(GRID), &mut StdRng::seed_from_u64(999));
    let params: Vec<Tensor> = model.parameters().iter().map(|p| p.value_clone()).collect();
    let n = params.len();
    let ckpt = TrainCheckpoint {
        epoch: 3,
        seed: 999,
        opt_kind: OptKind::Adam,
        opt_t: 0,
        lr_scale: 1.0,
        rollbacks: 0,
        epoch_stats: vec![],
        params,
        opt_m: vec![None; n],
        opt_v: vec![None; n],
        quant: None,
    };
    let path = std::env::temp_dir().join(format!("peb_plan_swap_{}.ckpt", std::process::id()));
    ckpt.save(&path).expect("save checkpoint");
    (path, model.predict(&serve_clip()).bit_digest())
}

#[test]
fn hot_swap_invalidates_plans_and_serves_the_new_model() {
    // The engine thread adopts this context: replay on, whatever
    // `PEB_PLAN` says.
    let replaying = ExecCtx {
        plan: true,
        ..ctx::current()
    };
    ctx::with(replaying, hot_swap_case)
}

fn hot_swap_case() {
    let (path, swapped_digest) = write_swap_checkpoint();
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        grid: GRID,
        max_batch: 4,
        max_wait_us: 200,
        queue_cap: 32,
        conn_workers: 2,
        ..ServeConfig::default()
    })
    .expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // First request records a plan (miss); the repeat replays it (hit).
    let base = client.infer(&serve_clip()).expect("infer").bit_digest();
    let again = client.infer(&serve_clip()).expect("infer").bit_digest();
    assert_eq!(base, again, "plan replay changed served bits");
    assert_ne!(base, swapped_digest, "seeds must give distinct models");
    let stats = server.handle().stats();
    assert!(stats.plan_misses.load(Ordering::Relaxed) >= 1);
    assert!(stats.plan_hits.load(Ordering::Relaxed) >= 1);
    assert!(stats.arena_hwm_bytes.load(Ordering::Relaxed) > 0);

    client
        .swap(path.to_str().expect("utf8 path"))
        .expect("swap");
    assert!(
        stats.plan_invalidations.load(Ordering::Relaxed) >= 1,
        "hot-swap must drop cached plans"
    );

    // Post-swap inference must carry the *new* model's bits — a stale
    // plan would still replay correctly, but the cache counts it as a
    // fresh recording against the swapped weights.
    let after = client.infer(&serve_clip()).expect("infer").bit_digest();
    assert_eq!(
        after, swapped_digest,
        "post-swap prediction must match the checkpointed weights bitwise"
    );
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Records a real `predict` at the given geometry and checks the static
/// memory plan against the recorded event stream: at no point may two
/// live checkouts occupy the same arena region.
fn assert_no_live_aliasing(dims: (usize, usize, usize), seed: u64) -> Result<(), TestCaseError> {
    let (model, clip) = model_and_clip(dims, seed);
    let _warm = model.predict(&clip);
    peb_pool::arena::begin_record();
    let _out = model.predict(&clip);
    let trace = peb_pool::arena::end_record();
    let plan = MemPlan::from_trace(&trace);

    let mut occupied: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut placement_of: Vec<Option<u32>> = vec![None; plan.allocs.len()];
    let mut next = 0u32;
    for ev in &trace.events {
        match ev {
            Event::Alloc(_) => {
                let id = next;
                next += 1;
                let (_, placement) = plan.allocs[id as usize];
                if let Placement::Region(r) = placement {
                    if let Some(&other) = occupied.get(&r) {
                        prop_assert!(
                            false,
                            "allocs {other} and {id} live in region {r} simultaneously \
                             (dims {dims:?}, seed {seed})"
                        );
                    }
                    occupied.insert(r, id);
                    placement_of[id as usize] = Some(r);
                }
            }
            Event::Free { alloc } => {
                if let Some(r) = placement_of[*alloc as usize] {
                    occupied.remove(&r);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random valid clip geometries never alias two live buffers.
    #[test]
    fn random_clip_shapes_never_alias_two_live_buffers(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = (
            rng.gen_range(2..=4usize),
            4 * rng.gen_range(2..=5usize),
            4 * rng.gen_range(2..=5usize),
        );
        assert_no_live_aliasing(dims, seed)?;
    }
}
