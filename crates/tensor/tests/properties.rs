//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
        // The 1e-3 budget is an f32 algebra property: chained multiplies
        // under PEB_PREC=bf16 round through storage twice (~2^-8
        // relative each), which the dedicated bf16 kernel suites cover.
        let (lhs, rhs) = peb_simd::with_prec(peb_simd::Prec::F32, || {
            (
                a.matmul(&b).unwrap().matmul(&c).unwrap(),
                a.matmul(&b.matmul(&c).unwrap()).unwrap(),
            )
        });
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
        let c = p.crop(&[(before, after), (after, before)]).unwrap();
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
    fn sum_axis_consistent_with_total(axis in 0usize..3, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::randn(&[2, 3, 4], &mut rng);
        let s = t.sum_axis(axis).unwrap();
        prop_assert!((s.sum() - t.sum()).abs() < 1e-3);
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
