//! Paper-scale end-to-end benchmark: emits `BENCH_e2e.json`.
//!
//! Times the full pipeline — rigorous solve (optics → Dill → PEB bake),
//! one-or-more training steps, and inference — at three tiers:
//!
//! * `64x64x16` — the full SIMD × threads × fusion matrix;
//! * `256x256x32` — the CI perf-smoke tier (gate: ≥1.3× end-to-end for
//!   SIMD+fusion at 4 threads vs scalar single-thread);
//! * `512x512x80` — a paper-shape slice (gate: ≥2×), with the bake
//!   duration shortened so the run fits a bench budget; the *ratio* is
//!   what the gate checks, and every configuration runs the same steps.
//!
//! Besides wall times the run asserts the bitwise contracts: fusion
//! on/off, tiling on/off, and 1-vs-4 threads must not change a single
//! bit at a fixed dispatch level. Perf gates are skipped (with a loud
//! note) on machines without ≥4 cores unless `PEB_BENCH_STRICT=1`;
//! `PEB_E2E_MAX_TIER=small|medium` truncates the tier list.

use std::time::Instant;

use peb_litho::{Grid, LithoFlow, MaskConfig, PebSolver};
use peb_nn::{Adam, Optimizer, Parameterized};
use peb_par::ctx::{self, ExecCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{LabelTransform, PebLoss, PebPredictor, SdmPeb, SdmPebConfig};

const CLIP_SEED: u64 = 1;
const MODEL_SEED: u64 = 1;

#[derive(Clone, Copy)]
struct Cfg {
    level: peb_simd::Level,
    threads: usize,
    fuse: bool,
    /// Depth-slab tiling (the detected-L2 target) — disabled on
    /// the baseline config so the speedup measures the full optimised
    /// path (SIMD + fusion + tiling) against the pre-optimisation
    /// execution. Tiling is bitwise invariant, so digests still agree.
    tile: bool,
}

impl Cfg {
    fn label(&self) -> String {
        format!(
            "{}_{}t_fuse-{}{}",
            self.level.name(),
            self.threads,
            if self.fuse { "on" } else { "off" },
            if self.tile { "" } else { "_tile-off" }
        )
    }
}

struct Timing {
    solver_s: f64,
    train_s: f64,
    infer_s: f64,
    /// FNV-1a over the bit patterns of (inhibitor, last train pred, infer).
    digests: [u64; 3],
}

impl Timing {
    fn total(&self) -> f64 {
        self.solver_s + self.train_s + self.infer_s
    }
}

struct Tier {
    name: &'static str,
    grid: Grid,
    /// Shortened bake (seconds) so big tiers fit the bench budget; every
    /// configuration runs the identical schedule, so ratios are fair.
    bake_s: f32,
    train_steps: usize,
}

/// One full solver + train + infer pass under the given knobs.
fn run_cfg(tier: &Tier, cfg: Cfg, tile_target: Option<usize>) -> Timing {
    let scoped = ExecCtx {
        level: cfg.level,
        threads: cfg.threads,
        fuse: cfg.fuse,
        tile_bytes: if cfg.tile { tile_target } else { None },
        ..ctx::current()
    };
    let grid = tier.grid;
    ctx::with(scoped, || {
        let clip = MaskConfig::demo(grid.nx).generate(CLIP_SEED).expect("clip");
        let mut flow = LithoFlow::new(grid);
        flow.peb.duration = tier.bake_s;

        // Rigorous solve: optics → Dill → PEB bake (the paper's runtime
        // comparison point; development/metrology is not on the
        // accelerated path and is excluded).
        let t0 = Instant::now();
        let aerial = flow.optics.aerial_image(&grid, &clip).expect("aerial");
        let acid0 = flow.dill.photoacid(&aerial);
        let solver = PebSolver::new(flow.peb, grid, flow.scheme).expect("solver");
        let state = solver.run(&acid0).expect("bake");
        let solver_s = t0.elapsed().as_secs_f64();

        let label = LabelTransform::paper().encode(&state.inhibitor);
        let mut rng = StdRng::seed_from_u64(MODEL_SEED);
        let model = SdmPeb::new(
            SdmPebConfig::for_grid((grid.nz, grid.ny, grid.nx)),
            &mut rng,
        );
        let loss = PebLoss::paper();
        let mut opt = Adam::new(1e-3);
        let params = model.parameters();

        let t1 = Instant::now();
        let mut train_pred = None;
        for _ in 0..tier.train_steps {
            params.iter().for_each(|p| p.zero_grad());
            let pred = model.forward_train(&acid0);
            loss.combined(&pred, &label).backward();
            opt.step(&params);
            train_pred = Some(pred.value_clone());
        }
        let train_s = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let infer = model.forward(&acid0).value_clone();
        let infer_s = t2.elapsed().as_secs_f64();

        Timing {
            solver_s,
            train_s,
            infer_s,
            digests: [
                state.inhibitor.bit_digest(),
                train_pred.map_or(0, |p| p.bit_digest()),
                infer.bit_digest(),
            ],
        }
    })
}

fn main() {
    let exec = ctx::init_or_exit();
    // Counters (slab_passes, fused_ops) must tick for the A/B report.
    peb_obs::set_mode(peb_obs::TraceMode::Summary);
    let best = peb_simd::best_level();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let strict = std::env::var("PEB_BENCH_STRICT").as_deref() == Ok("1");
    let max_tier = std::env::var("PEB_E2E_MAX_TIER").unwrap_or_default();
    let tile_bytes = exec.tile_bytes;

    let scalar = peb_simd::Level::Scalar;
    let tiers = [
        Tier {
            name: "64x64x16",
            grid: Grid::new(64, 64, 16, 4.0, 4.0, 6.25).expect("grid"),
            bake_s: 4.0,
            train_steps: 2,
        },
        Tier {
            name: "256x256x32",
            grid: Grid::new(256, 256, 32, 7.8, 7.8, 3.2).expect("grid"),
            bake_s: 2.0,
            train_steps: 1,
        },
        Tier {
            name: "512x512x80",
            grid: Grid::new(512, 512, 80, 3.9, 3.9, 1.25).expect("grid"),
            bake_s: 1.0,
            train_steps: 1,
        },
    ];
    let n_tiers = match max_tier.as_str() {
        "small" => 1,
        "medium" => 2,
        _ => tiers.len(),
    };

    // Per-tier configuration matrices. The full cross product runs only
    // at the small tier; the bigger tiers time the configurations the
    // gates and the scaling story need.
    let matrix_small: Vec<Cfg> = {
        let mut m = Vec::new();
        for &level in &[scalar, best] {
            for &threads in &[1usize, 4, 8] {
                for &fuse in &[true, false] {
                    // The scalar_1t_fuse-off row is the pre-PR baseline:
                    // it also runs untiled.
                    let baseline = level.name() == scalar.name() && threads == 1 && !fuse;
                    m.push(Cfg {
                        level,
                        threads,
                        fuse,
                        tile: !baseline,
                    });
                }
            }
        }
        m.dedup_by(|a, b| a.label() == b.label());
        m
    };
    let matrix_medium = vec![
        Cfg {
            level: scalar,
            threads: 1,
            fuse: false,
            tile: false,
        },
        Cfg {
            level: scalar,
            threads: 1,
            fuse: true,
            tile: true,
        },
        Cfg {
            level: best,
            threads: 1,
            fuse: true,
            tile: true,
        },
        Cfg {
            level: best,
            threads: 4,
            fuse: false,
            tile: true,
        },
        Cfg {
            level: best,
            threads: 4,
            fuse: true,
            tile: true,
        },
        Cfg {
            level: best,
            threads: 8,
            fuse: true,
            tile: true,
        },
    ];
    let matrix_paper = vec![
        Cfg {
            level: scalar,
            threads: 1,
            fuse: false,
            tile: false,
        },
        Cfg {
            level: best,
            threads: 4,
            fuse: true,
            tile: true,
        },
    ];

    println!(
        "== bench_e2e (dispatch: {}, cores: {cores}, tile: {tile_bytes:?}) ==",
        best.name()
    );

    let mut tier_json = Vec::new();
    let mut tier_speedups = Vec::new();
    for (ti, tier) in tiers.iter().take(n_tiers).enumerate() {
        let matrix: &[Cfg] = match ti {
            0 => &matrix_small,
            1 => &matrix_medium,
            _ => &matrix_paper,
        };
        println!(
            "-- tier {} (bake {:.1}s, {} train step(s)) --",
            tier.name, tier.bake_s, tier.train_steps
        );
        // Single-core hosts and shared runners see transient noise; time
        // each config `repeats` times and keep the fastest run (digests
        // must agree across repeats — the pipeline is deterministic).
        // The paper tier defaults to one run for budget.
        let repeats = std::env::var("PEB_E2E_REPEATS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .map(|r| r.max(1))
            .unwrap_or(if ti < 2 { 2 } else { 1 });
        let mut rows = Vec::new();
        for cfg in matrix {
            let mut t = run_cfg(tier, *cfg, tile_bytes);
            for _ in 1..repeats {
                let r = run_cfg(tier, *cfg, tile_bytes);
                assert_eq!(
                    r.digests,
                    t.digests,
                    "repeat run diverged for {} at tier {}",
                    cfg.label(),
                    tier.name
                );
                if r.total() < t.total() {
                    t = r;
                }
            }
            println!(
                "  {:<24} solver {:8.3}s  train {:8.3}s  infer {:8.3}s  total {:8.3}s",
                cfg.label(),
                t.solver_s,
                t.train_s,
                t.infer_s,
                t.total()
            );
            rows.push((*cfg, t));
        }

        // Bitwise contracts within the tier: at a fixed dispatch level,
        // fusion and thread count must not change any digest.
        for (a, ta) in &rows {
            for (b, tb) in &rows {
                if a.level.name() == b.level.name() {
                    assert_eq!(
                        ta.digests,
                        tb.digests,
                        "bitwise mismatch between {} and {} at tier {}",
                        a.label(),
                        b.label(),
                        tier.name
                    );
                }
            }
        }
        println!("  bitwise identical across fusion/threads at fixed level: true");

        let find = |level: peb_simd::Level, threads: usize, fuse: bool| {
            rows.iter()
                .find(|(c, _)| {
                    c.level.name() == level.name() && c.threads == threads && c.fuse == fuse
                })
                .map(|(_, t)| t.total())
        };
        let base = find(scalar, 1, false).expect("baseline config");
        let fast = find(best, 4, true)
            .or_else(|| find(best, 4, false))
            .unwrap_or(base);
        let speedup = base / fast;
        println!("  e2e speedup (simd+fusion 4t vs scalar 1t): {speedup:.2}x");
        tier_speedups.push((tier.name, speedup));

        let row_json: Vec<String> = rows
            .iter()
            .map(|(c, t)| {
                format!(
                    concat!(
                        "      {{ \"level\": \"{}\", \"threads\": {}, \"fusion\": {}, ",
                        "\"tiling\": {}, ",
                        "\"solver_s\": {:.6}, \"train_s\": {:.6}, \"infer_s\": {:.6}, ",
                        "\"total_s\": {:.6} }}"
                    ),
                    c.level.name(),
                    c.threads,
                    c.fuse,
                    c.tile,
                    t.solver_s,
                    t.train_s,
                    t.infer_s,
                    t.total()
                )
            })
            .collect();
        tier_json.push(format!(
            concat!(
                "    {{\n",
                "      \"tier\": \"{}\",\n",
                "      \"bake_seconds\": {:.1},\n",
                "      \"train_steps\": {},\n",
                "      \"e2e_speedup_simd_fusion_4t_vs_scalar_1t\": {:.3},\n",
                "      \"bitwise_identical_within_level\": true,\n",
                "      \"configs\": [\n{}\n      ]\n",
                "    }}"
            ),
            tier.name,
            tier.bake_s,
            tier.train_steps,
            speedup,
            row_json.join(",\n")
        ));
    }

    // Tiled vs untiled A/B at the small tier: bitwise identity plus the
    // slab-pass counter actually ticking.
    let ab_tier = &tiers[0];
    let ab_cfg = Cfg {
        level: best,
        threads: 1,
        fuse: true,
        tile: true,
    };
    // Force a tile target small enough that the 64³-class volume
    // actually splits into slabs (it fits L2 whole under `auto`).
    let before = peb_obs::snapshot().counter("slab_passes");
    let tiled = run_cfg(ab_tier, ab_cfg, Some(32 << 10));
    let slab_passes = peb_obs::snapshot().counter("slab_passes") - before;
    let untiled = run_cfg(
        ab_tier,
        Cfg {
            tile: false,
            ..ab_cfg
        },
        None,
    );
    assert_eq!(tiled.digests, untiled.digests, "tiling changed the numbers");
    println!("  tiled vs untiled bitwise identical: true ({slab_passes} slab passes)");

    // Perf gates. Thread scaling cannot be demonstrated on a single
    // hardware core, so the gates require ≥4 cores (or PEB_BENCH_STRICT).
    let gates_apply = strict || cores >= 4;
    // Self-describing artifact: when the gates are off, say exactly why
    // instead of leaving `perf_gates_enforced: false` unexplained.
    let gate_skip_reason = if gates_apply {
        "null".to_string()
    } else {
        format!("\"hardware_cores {cores} < 4 and PEB_BENCH_STRICT unset\"")
    };
    for (name, speedup) in &tier_speedups {
        let floor = match *name {
            "256x256x32" => 1.3,
            "512x512x80" => 2.0,
            _ => continue,
        };
        if gates_apply {
            assert!(
                *speedup >= floor,
                "tier {name}: e2e speedup {speedup:.2}x below the {floor}x gate"
            );
        } else if *speedup < floor {
            println!(
                "  [gate skipped: {cores} core(s)] tier {name} speedup {speedup:.2}x < {floor}x"
            );
        }
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": \"solver + train + infer, per tier\",\n",
            "  \"exec\": {},\n",
            "  \"hardware_cores\": {},\n",
            "  \"perf_gates_enforced\": {},\n",
            "  \"gate_skip_reason\": {},\n",
            "  \"tiled_vs_untiled_bitwise_identical\": true,\n",
            "  \"slab_passes_small_tier\": {},\n",
            "  \"tiers\": [\n{}\n  ]\n",
            "}}\n"
        ),
        exec.to_json(),
        cores,
        gates_apply,
        gate_skip_reason,
        slab_passes,
        tier_json.join(",\n")
    );
    std::fs::write("BENCH_e2e.json", &json).expect("write BENCH_e2e.json");
    println!("  wrote BENCH_e2e.json");
}
