//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use peb_tensor::{check_gradients, Tensor, Var};

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

fn finite_vals(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_commutes(shape in small_dims(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&shape, &mut rng);
        let b = Tensor::randn(&shape, &mut rng);
        let ab = a.add_t(&b).unwrap();
        let ba = b.add_t(&a).unwrap();
        prop_assert!(ab.approx_eq(&ba, 1e-6));
    }

    #[test]
    fn mul_distributes_over_add(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[3, 4], &mut rng);
        let b = Tensor::randn(&[3, 4], &mut rng);
        let c = Tensor::randn(&[3, 4], &mut rng);
        let lhs = a.mul_t(&b.add_t(&c).unwrap()).unwrap();
        let rhs = a.mul_t(&b).unwrap().add_t(&a.mul_t(&c).unwrap()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-4));
    }

    #[test]
    fn matmul_associative(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[3, 4], &mut rng);
        let b = Tensor::randn(&[4, 2], &mut rng);
        let c = Tensor::randn(&[2, 5], &mut rng);
        let lhs = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let rhs = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn matmul_transpose_identity(seed in 0u64..1000) {
        // (AB)ᵀ = Bᵀ Aᵀ
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[3, 4], &mut rng);
        let b = Tensor::randn(&[4, 2], &mut rng);
        let lhs = a.matmul(&b).unwrap().transpose2();
        let rhs = b.transpose2().matmul(&a.transpose2()).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn permute_roundtrip(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::randn(&[2, 3, 4], &mut rng);
        let p = t.permute(&[1, 2, 0]).unwrap();
        // Inverse of [1,2,0] is [2,0,1].
        let back = p.permute(&[2, 0, 1]).unwrap();
        prop_assert!(back.approx_eq(&t, 0.0));
    }

    #[test]
    fn slice_concat_roundtrip(split in 1usize..4, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::randn(&[3, 4, 2], &mut rng);
        let a = t.slice_axis(1, 0, split).unwrap();
        let b = t.slice_axis(1, split, 4).unwrap();
        let back = Tensor::concat(&[&a, &b], 1).unwrap();
        prop_assert!(back.approx_eq(&t, 0.0));
    }

    #[test]
    fn pad_preserves_sum(before in 0usize..3, after in 0usize..3, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::randn(&[2, 3], &mut rng);
        let p = t.pad(&[(before, after), (after, before)]).unwrap();
        prop_assert!((p.sum() - t.sum()).abs() < 1e-4);
        let c = p
            .slice_axis(0, before, before + 2)
            .and_then(|r| r.slice_axis(1, after, after + 3))
            .unwrap();
        prop_assert!(c.approx_eq(&t, 0.0));
    }

    #[test]
    fn reduce_to_shape_is_broadcast_adjoint(seed in 0u64..1000) {
        // <broadcast(x, S), g> == <x, reduce(g, shape(x))>
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[1, 3], &mut rng);
        let g = Tensor::randn(&[4, 3], &mut rng);
        let bx = Tensor::zeros(&[4, 3]).broadcast_zip(&x, |_, b| b).unwrap();
        let lhs: f32 = bx.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
        let rg = g.reduce_to_shape(&[1, 3]);
        let rhs: f32 = x.data().iter().zip(rg.data()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3);
    }

    #[test]
    fn composite_expression_gradcheck(vals in finite_vals(6)) {
        // f(x) = mean(silu(x)² + softplus(x)) exercises several backward
        // paths through a shared input.
        let x = Tensor::from_vec(vals, &[2, 3]).unwrap();
        let report = check_gradients(
            &Var::parameter(x),
            |v| v.silu().square().add(&v.softplus()).mean(),
            1e-2,
        );
        prop_assert!(report.ok(3e-2), "{:?}", report);
    }

    #[test]
    fn softmax_is_shift_invariant(shift in -5.0f32..5.0, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[2, 5], &mut rng);
        let a = Var::constant(x.clone()).softmax(1).value_clone();
        let b = Var::constant(x.add_scalar(shift)).softmax(1).value_clone();
        prop_assert!(a.approx_eq(&b, 1e-5));
    }
}

// ---------------------------------------------------------------------
// Structured kernels ≡ the per-element index definition, bit for bit.
//
// `broadcast_zip`/`add_t`…, `reduce_to_shape` and `permute` pick a row
// loop, a blocked transpose or the generic odometer walk from the shapes
// alone. The references below are the index definitions themselves
// (unravel the flat index, project the coordinates), so they agree with
// the odometer walk by construction; the shape generators produce both
// shapes the structured paths take and shapes only the walk handles.
// ---------------------------------------------------------------------

fn unravel(mut flat: usize, shape: &[usize]) -> Vec<usize> {
    let mut coords = vec![0; shape.len()];
    for i in (0..shape.len()).rev() {
        coords[i] = flat % shape[i];
        flat /= shape[i];
    }
    coords
}

/// Flat index into `shape` of the output coordinates `coords`, reading
/// `shape` right-aligned against them with size-1 axes expanded.
fn project(coords: &[usize], shape: &[usize]) -> usize {
    let offset = coords.len() - shape.len();
    shape.iter().enumerate().fold(0, |flat, (i, &extent)| {
        flat * extent + if extent == 1 { 0 } else { coords[offset + i] }
    })
}

/// Random rank-0..=4 shape: mostly small ragged extents, sometimes a
/// size-1 or zero-length axis, sometimes one long axis (past the
/// kernels' block width).
fn random_shape(rng: &mut StdRng) -> Vec<usize> {
    let rank = rng.gen_range(0..=4usize);
    let long_axis =
        (rank > 0 && rank <= 2 && rng.gen_range(0..4) == 0).then(|| rng.gen_range(0..rank));
    (0..rank)
        .map(|i| {
            if Some(i) == long_axis {
                return rng.gen_range(1000..1300usize);
            }
            match rng.gen_range(0..12) {
                0 => 0,
                1 | 2 => 1,
                _ => [2usize, 3, 5, 7, 8, 9, 13][rng.gen_range(0..7usize)],
            }
        })
        .collect()
}

/// An operand shape that broadcasts to `out`: each axis kept or 1 —
/// by row/column blocks (`split`) or independently per axis — with a
/// random number of leading size-1 axes left off.
fn random_operand(rng: &mut StdRng, out: &[usize], must_keep: &[bool]) -> Vec<usize> {
    let rank = out.len();
    let split = rng.gen_range(0..=rank);
    let (keep_rows, keep_cols) = (rng.gen_range(0..2) == 0, rng.gen_range(0..2) == 0);
    let per_axis = rng.gen_range(0..3) == 0;
    let mut shape: Vec<usize> = (0..rank)
        .map(|i| {
            let keep = if per_axis {
                rng.gen_range(0..2) == 0
            } else if i < split {
                keep_rows
            } else {
                keep_cols
            };
            if keep || must_keep[i] {
                out[i]
            } else {
                1
            }
        })
        .collect();
    let leading_ones = shape.iter().take_while(|&&e| e == 1).count();
    shape.drain(..rng.gen_range(0..=leading_ones));
    shape
}

fn random_tensor(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    // Mixed magnitudes so a reordered f32 sum would change bits.
    Tensor::from_vec(
        (0..n)
            .map(|_| rng.gen_range(-4.0f32..4.0) * [1.0f32, 1e-3, 1e3][rng.gen_range(0..3usize)])
            .collect(),
        shape,
    )
    .unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn broadcast_ops_match_the_index_definition_bitwise(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = random_shape(&mut rng);
        let lhs = random_operand(&mut rng, &out, &vec![false; out.len()]);
        // Every axis the lhs expanded must be present in the rhs.
        let offset = out.len() - lhs.len();
        let need: Vec<bool> = (0..out.len())
            .map(|i| i < offset || lhs[i - offset] != out[i])
            .collect();
        let rhs = random_operand(&mut rng, &out, &need);
        // Leading size-1 axes both operands left off are not in the result.
        let out = out[out.len() - lhs.len().max(rhs.len())..].to_vec();
        let (a, b) = (random_tensor(&mut rng, &lhs), random_tensor(&mut rng, &rhs));
        type Op = (fn(&Tensor, &Tensor) -> peb_tensor::Result<Tensor>, fn(f32, f32) -> f32);
        let ops: [Op; 4] = [
            (Tensor::add_t, |x, y| x + y),
            (Tensor::sub_t, |x, y| x - y),
            (Tensor::mul_t, |x, y| x * y),
            (Tensor::div_t, |x, y| x / y),
        ];
        let n: usize = out.iter().product();
        for (kernel, f) in ops {
            let want: Vec<u32> = (0..n)
                .map(|flat| {
                    let coords = unravel(flat, &out);
                    f(a.data()[project(&coords, &lhs)], b.data()[project(&coords, &rhs)]).to_bits()
                })
                .collect();
            let got = kernel(&a, &b).unwrap();
            prop_assert_eq!(got.shape(), &out[..], "{:?} ∘ {:?}", lhs, rhs);
            prop_assert_eq!(&bits(&got), &want, "kernel {:?} ∘ {:?}", lhs, rhs);
            let zipped = a.broadcast_zip(&b, f).unwrap();
            prop_assert_eq!(&bits(&zipped), &want, "closure {:?} ∘ {:?}", lhs, rhs);
        }
    }

    #[test]
    fn reduce_to_shape_matches_the_index_definition_bitwise(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src_shape = random_shape(&mut rng);
        let target = random_operand(&mut rng, &src_shape, &vec![false; src_shape.len()]);
        let src = random_tensor(&mut rng, &src_shape);
        // Ascending source order into each target element, in f32.
        let mut want = vec![0f32; target.iter().product()];
        for (flat, &v) in src.data().iter().enumerate() {
            want[project(&unravel(flat, &src_shape), &target)] += v;
        }
        let got = src.reduce_to_shape(&target);
        prop_assert_eq!(got.shape(), &target[..]);
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&bits(&got), &want, "{:?} -> {:?}", src_shape, target);
    }

    #[test]
    fn permute_matches_the_index_definition_bitwise(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = random_shape(&mut rng);
        let rank = shape.len();
        let mut perm: Vec<usize> = (0..rank).collect();
        // Fisher–Yates over a prefix: a third of the cases keep the
        // innermost axis in place, as the attention head split does.
        let shuffled = if rng.gen_range(0..3) == 0 { rank.saturating_sub(1) } else { rank };
        for i in (1..shuffled).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let src = random_tensor(&mut rng, &shape);
        let out_shape: Vec<usize> = perm.iter().map(|&p| shape[p]).collect();
        let got = src.permute(&perm).unwrap();
        prop_assert_eq!(got.shape(), &out_shape[..]);
        let want: Vec<u32> = (0..src.len())
            .map(|flat| {
                let out_coords = unravel(flat, &out_shape);
                let mut coords = vec![0; rank];
                for (i, &p) in perm.iter().enumerate() {
                    coords[p] = out_coords[i];
                }
                src.data()[project(&coords, &shape)].to_bits()
            })
            .collect();
        prop_assert_eq!(&bits(&got), &want, "{:?} perm {:?}", shape, perm);
    }
}

#[test]
fn gelu_sigmoid_form_tracks_the_tanh_formulation() {
    // 0.5·(1 + tanh u) = σ(2u): the fused forward must stay within
    // 1e-5·max(1, |x|) of the libm-tanh expression on [−8, 8].
    let n = 16_001;
    let x = Tensor::from_fn(&[n], |i| -8.0 + 16.0 * i as f32 / (n - 1) as f32);
    let y = Var::constant(x.clone()).gelu().value_clone();
    for (&xv, &got) in x.data().iter().zip(y.data()) {
        let u = 0.797_884_6 * (xv + 0.044715 * xv * xv * xv);
        let want = 0.5 * xv * (1.0 + u.tanh());
        assert!(
            (got - want).abs() <= 1e-5 * xv.abs().max(1.0),
            "gelu({xv}) = {got}, tanh form {want}"
        );
    }
}
