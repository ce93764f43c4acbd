//! Every public `peb-simd` entry ticks the `simd_dispatch` counter exactly
//! once per call on the vector path and never on the scalar path (DESIGN
//! §9) — the scan entries once per lane group, so once at 8 channels
//! (plus, in the backward, the cross-group `vadd_assign` calls).
//! The counters are process-global, so this binary holds one test.

use peb_obs::{counter_value, Counter, TraceMode};
use peb_par::ctx::{at_level, levels};
use peb_par::UnsafeSlice;
use peb_simd::attention::{attention, Heads};
use peb_simd::conv::{dw3_plane, dw3_weight_grad, Dw3, SubPixel};
use peb_simd::fused::{vchain, Stage};
use peb_simd::gemm::{gemm, gemm_cols, Bias};
use peb_simd::scan::{self, Grads, Operands, Walk};
use peb_simd::thomas::{solve_factored_lines8, solve_factored_rows8};
use peb_simd::{elementwise as ew, norm, optim, reaction, transpose, Level};

/// `simd_dispatch` ticks of one call of `f` at `level`.
fn ticks(level: Level, f: &dyn Fn()) -> u64 {
    let before = counter_value(Counter::SimdDispatch);
    at_level(level, f);
    counter_value(Counter::SimdDispatch) - before
}

fn ones(len: usize) -> Vec<f32> {
    vec![1.0; len]
}

/// One call of `scan::forward`, or of `scan::backward` when `backward`,
/// over `ch` channels (`L = 2`, `N = 2`).
fn scan_entries(ch: usize, backward: bool) {
    let (l, n) = (2, 2);
    let (u, a, bc) = (ones(l * ch), ones(ch * n), ones(l * n));
    let ops = Operands {
        u: &u,
        delta: &u,
        a: &a,
        b: &bc,
        c: &bc,
        d: &u[..ch],
        dims: (l, ch, n),
        walk: Walk::Forward,
    };
    if !backward {
        return scan::forward(ops, &mut ones(l * ch), None);
    }
    let traj = ones(scan::trajectory_len(l, ch, n));
    let grads = Grads {
        du: &mut ones(l * ch),
        ddelta: &mut ones(l * ch),
        da: &mut ones(ch * n),
        db: &mut ones(l * n),
        dc: &mut ones(l * n),
        dskip: &mut ones(ch),
    };
    scan::backward(ops, &u, &traj, grads)
}

/// A public entry by name, and one call of it on small valid inputs.
type Entry = (&'static str, Box<dyn Fn()>);

/// Every public entry.
fn entries() -> Vec<Entry> {
    let sub = SubPixel::new(2, 3, (4, 4), (8, 8), 3, 2, 1);
    let dw3 = Dw3 {
        d: 2,
        h: 3,
        w: 9,
        k: 3,
    };
    vec![
        ("vaxpy", Box::new(|| ew::vaxpy(&mut ones(9), 0.5, &ones(9)))),
        (
            "vadd_assign",
            Box::new(|| ew::vadd_assign(&mut ones(9), &ones(9))),
        ),
        ("vsum_f64", Box::new(|| _ = ew::vsum_f64(&ones(9)))),
        (
            "vchain",
            Box::new(|| vchain(&ones(9), &[Stage::Exp], &mut ones(9))),
        ),
        (
            "gemm",
            Box::new(|| gemm(&ones(6), &ones(6), &mut ones(4), 2, 3, 2, Bias::None)),
        ),
        (
            "gemm_cols",
            Box::new(|| {
                let mut out = ones(4);
                // SAFETY: `out` holds the whole 2×2 output; one call.
                unsafe {
                    gemm_cols(
                        &ones(6),
                        &ones(6),
                        out.as_mut_ptr(),
                        2,
                        3,
                        2,
                        0..1,
                        Bias::None,
                    )
                }
            }),
        ),
        (
            "attention",
            Box::new(|| {
                let g = Heads {
                    rows: 3,
                    keys: 2,
                    width: 4,
                    heads: 2,
                };
                attention(&ones(12), &ones(8), &ones(8), &mut ones(12), None, g)
            }),
        ),
        (
            "layer_norm",
            Box::new(|| norm::layer_norm(&ones(12), &ones(4), &ones(4), 1e-5, &mut ones(12))),
        ),
        (
            "adam_moments",
            Box::new(|| optim::adam_moments(&mut ones(9), &mut ones(9), &ones(9), 0.9, 0.999)),
        ),
        (
            "adam_apply",
            Box::new(|| optim::adam_apply(&mut ones(9), &ones(9), &ones(9), 1.0, 1.0, 1e-8, 0.1)),
        ),
        (
            "half_step",
            Box::new(|| {
                reaction::half_step(&mut ones(9), &mut ones(9), &mut ones(9), 1.0, 1.0, 0.1)
            }),
        ),
        ("scan::forward", Box::new(|| scan_entries(8, false))),
        ("scan::backward", Box::new(|| scan_entries(8, true))),
        (
            "solve_factored_lines8",
            Box::new(|| {
                let mut field = ones(24);
                let slots = UnsafeSlice::new(&mut field);
                let (a, beta) = (vec![0.1; 3], vec![2.0; 3]);
                // SAFETY: one group owning all of `field`, one thread.
                unsafe { solve_factored_lines8(&a, &beta, &a, &slots, 0, 8, 3, 0.0, 0.0) }
            }),
        ),
        (
            "solve_factored_rows8",
            Box::new(|| {
                let (a, beta) = (vec![0.1; 3], vec![2.0; 3]);
                solve_factored_rows8(&a, &beta, &a, &mut ones(24), &mut ones(24), 0.0, 0.0)
            }),
        ),
        (
            "SubPixel::forward_rows",
            Box::new({
                let sub = sub.clone();
                move || {
                    let packed = sub.pack(&ones(2 * 3 * 9));
                    let (plane, mut o) = (ones(16), [ones(64), ones(64), ones(64)]);
                    let mut out: Vec<&mut [f32]> = o.iter_mut().map(Vec::as_mut_slice).collect();
                    sub.forward_rows(&packed, &ones(3), None, &[&plane, &plane], 0..8, &mut out)
                }
            }),
        ),
        (
            "SubPixel::input_grad_rows",
            Box::new({
                let sub = sub.clone();
                move || {
                    let packed = sub.pack_input_grad(&ones(2 * 3 * 9));
                    let len = sub.grad_plane_len();
                    let mut d = [ones(16), ones(16)];
                    let mut dx: Vec<&mut [f32]> = d.iter_mut().map(Vec::as_mut_slice).collect();
                    sub.input_grad_rows(&packed, &ones(2), &ones(3 * len), len, 0..4, &mut dx)
                }
            }),
        ),
        (
            "SubPixel::weight_grad",
            Box::new(move || {
                let len = sub.grad_plane_len();
                let plane = ones(16);
                sub.weight_grad(&[&plane, &plane], &ones(3 * len), len, &mut ones(2 * 3 * 9))
            }),
        ),
        (
            "dw3_plane",
            Box::new(move || dw3_plane(dw3, &ones(54), &ones(27), false, 0.0, 1, &mut ones(27))),
        ),
        (
            "dw3_weight_grad",
            Box::new(move || dw3_weight_grad(dw3, &ones(54), &ones(27), 1, &mut ones(27))),
        ),
        (
            "transpose_into",
            Box::new(|| transpose::transpose_into(&ones(30), 5, 6, &mut ones(30))),
        ),
    ]
}

#[test]
fn every_entry_ticks_once_on_the_vector_path_and_never_on_the_scalar_path() {
    peb_obs::set_mode(TraceMode::Summary);
    let entries = entries();
    for level in levels() {
        let want = u64::from(level == Level::Avx2Fma);
        for (name, call) in &entries {
            assert_eq!(
                ticks(level, call.as_ref()),
                want,
                "{name} at {}",
                level.name()
            );
        }
        // The scan entries tick once per lane group: 20 channels are two
        // full groups and a 4-lane tail. The backward adds each group's
        // db and dc partials past the first with `vadd_assign`, two more
        // ticks per such group.
        for (backward, calls) in [(false, 3), (true, 3 + 2 * 2)] {
            let call = || scan_entries(20, backward);
            let what = format!("20-channel scan (backward: {backward})");
            assert_eq!(
                ticks(level, &call),
                calls * want,
                "{what} at {}",
                level.name()
            );
        }
    }
    peb_obs::set_mode(TraceMode::Off);
}
