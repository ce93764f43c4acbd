//! `PEB_PREC=f32` is a strict no-op: with the default precision the
//! full pipeline — rigorous litho solve plus SDM-PEB forward — must be
//! bitwise identical to a run with f32 named explicitly, at 1 and 4
//! threads, at every dispatch level this machine has.
//!
//! This pins the "default off" contract: threading precision through
//! tensor/nn/mamba/litho must not perturb a single bit of the f32 path.
//! Every test builds its own `ExecCtx`, so the three run concurrently
//! without sharing state.

use peb_litho::{Grid, LithoFlow, MaskConfig, PebSolver};
use peb_par::ctx::{self, ExecCtx};
use peb_simd::{Level, Prec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{PebPredictor, SdmPeb, SdmPebConfig};

fn micro_grid() -> Grid {
    Grid::new(16, 16, 4, 8.0, 8.0, 20.0).expect("micro grid")
}

/// One full pipeline pass: mask → optics → Dill → rigorous PEB bake →
/// model forward. Returns the bit digests of the solver state and the
/// prediction.
fn pipeline_digests() -> (u64, u64) {
    let grid = micro_grid();
    let clip = MaskConfig::demo(grid.nx).generate(11).expect("clip");
    let mut flow = LithoFlow::new(grid);
    flow.peb.duration = 4.0;
    let aerial = flow.optics.aerial_image(&grid, &clip).expect("aerial");
    let acid0 = flow.dill.photoacid(&aerial);
    let solver = PebSolver::new(flow.peb, grid, flow.scheme).expect("solver");
    let state = solver.run(&acid0).expect("bake");
    let mut rng = StdRng::seed_from_u64(3);
    let model = SdmPeb::new(SdmPebConfig::tiny((grid.nz, grid.ny, grid.nx)), &mut rng);
    let pred = model.predict(&acid0);
    (state.inhibitor.bit_digest(), pred.bit_digest())
}

/// The dispatch levels available on this machine: scalar always, plus
/// the detected best level when it differs.
fn levels() -> Vec<Level> {
    let mut ls = vec![Level::Scalar];
    if peb_simd::best_level() != Level::Scalar {
        ls.push(peb_simd::best_level());
    }
    ls
}

/// The pipeline digests under the current context with `level`,
/// `threads` and (when given) `prec` overridden.
fn digests_at(level: Level, threads: usize, prec: Option<Prec>) -> (u64, u64) {
    let base = ctx::current();
    let scoped = ExecCtx {
        level,
        threads,
        prec: prec.unwrap_or(base.prec),
        ..base
    };
    ctx::with(scoped, pipeline_digests)
}

#[test]
fn explicit_f32_is_bitwise_identical_across_threads_and_levels() {
    for level in levels() {
        for threads in [1usize, 4] {
            let (baseline_state, baseline_pred) = digests_at(level, threads, None);
            let (explicit_state, explicit_pred) = digests_at(level, threads, Some(Prec::F32));
            assert_eq!(
                baseline_state,
                explicit_state,
                "solver state diverged under explicit f32 (level {}, {threads} threads)",
                level.name()
            );
            assert_eq!(
                baseline_pred,
                explicit_pred,
                "prediction diverged under explicit f32 (level {}, {threads} threads)",
                level.name()
            );
        }
    }
}

/// ROADMAP item 0 as a regression: one thread pins `Scalar` while
/// another pins the best level, concurrently (the full pipeline is
/// level-dependent: optics FFT, Dill `exp`, GEMM). With a process-global
/// level the two clobbered each other and a run mixed levels.
#[test]
fn concurrent_threads_at_different_levels_each_match_their_sequential_digest() {
    let levels = [Level::Scalar, peb_simd::best_level()];
    let sequential = levels.map(|l| digests_at(l, 4, None));
    let start = std::sync::Barrier::new(levels.len());
    let concurrent = std::thread::scope(|s| {
        let runs = levels.map(|l| {
            let start = &start;
            s.spawn(move || {
                start.wait();
                // Several passes, so the two threads overlap for the
                // whole pipeline whatever their relative speed.
                [(); 3].map(|()| digests_at(l, 4, None))
            })
        });
        runs.map(|r| r.join().expect("pipeline thread"))
    });
    for ((level, want), got) in levels.iter().zip(sequential).zip(concurrent) {
        assert_eq!(
            got,
            [want; 3],
            "{} run diverged from its own sequential digest",
            level.name()
        );
    }
}

#[test]
fn f32_pipeline_is_thread_count_invariant_with_f32_explicit() {
    // 1-vs-4-thread bitwise identity was already pinned for the default
    // path; this keeps it true with the precision named.
    let best = peb_simd::best_level();
    assert_eq!(
        digests_at(best, 1, Some(Prec::F32)),
        digests_at(best, 4, Some(Prec::F32)),
        "explicit-f32 pipeline must not depend on PEB_THREADS"
    );
}

#[test]
fn reduced_precision_scopes_restore_the_f32_baseline() {
    // Running bf16/int8 scopes in between must not leak into later f32
    // work — the drop-guard restore is part of the no-op contract.
    let best = ExecCtx {
        level: peb_simd::best_level(),
        ..ctx::current()
    };
    ctx::with(best, || {
        let before = pipeline_digests();
        let _ = peb_simd::with_prec(Prec::Bf16, pipeline_digests);
        let _ = peb_simd::with_prec(Prec::Int8, pipeline_digests);
        let after = pipeline_digests();
        assert_eq!(
            before, after,
            "a completed reduced-precision scope must leave the baseline untouched"
        );
    });
}
