//! Property-based tests for the PEB objectives and metrics.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use peb_tensor::{Tensor, Var};
use sdm_peb::{nrmse, rmse, LabelTransform, PebLoss};

fn volume(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(&[3, 4, 4], &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn loss_terms_are_nonnegative(seed in 0u64..1000, noise in 0.0f32..1.0) {
        let target = volume(seed);
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let pred = target.add_t(&Tensor::randn(&[3, 4, 4], &mut rng).mul_scalar(noise)).unwrap();
        let loss = PebLoss::paper();
        let p = Var::constant(pred);
        let max_se = loss.max_se(&p, &target).value().item();
        let focal = loss.focal(&p, &target).value().item();
        let divergence = loss.depth_divergence(&p, &target).value().item();
        let total = loss.combined(&p, &target).value().item();
        prop_assert!(max_se >= 0.0);
        prop_assert!(focal >= 0.0);
        prop_assert!(divergence >= -1e-4, "KL slightly negative: {divergence}");
        prop_assert!(total >= -1e-4);
    }

    #[test]
    fn focal_grows_with_error_scale(seed in 0u64..1000, scale in 1.1f32..3.0) {
        let target = volume(seed);
        let mut rng = StdRng::seed_from_u64(seed + 2);
        let err = Tensor::randn(&[3, 4, 4], &mut rng).mul_scalar(0.3);
        let loss = PebLoss::paper();
        let small = loss
            .focal(&Var::constant(target.add_t(&err).unwrap()), &target)
            .value()
            .item();
        let large = loss
            .focal(
                &Var::constant(target.add_t(&err.mul_scalar(scale)).unwrap()),
                &target,
            )
            .value()
            .item();
        // |s·e|³ = s³|e|³: strictly super-linear growth.
        prop_assert!(large > small * scale, "{large} vs {small} at scale {scale}");
    }

    #[test]
    fn max_se_bounds_mean_squared_error(seed in 0u64..1000) {
        let target = volume(seed);
        let mut rng = StdRng::seed_from_u64(seed + 3);
        let pred = target.add_t(&Tensor::randn(&[3, 4, 4], &mut rng)).unwrap();
        let loss = PebLoss::paper();
        let max_se = loss.max_se(&Var::constant(pred.clone()), &target).value().item();
        let mse = rmse(&pred, &target).powi(2);
        prop_assert!(max_se >= mse - 1e-5);
    }

    #[test]
    fn divergence_ignores_uniform_shifts(seed in 0u64..1000, shift in -3.0f32..3.0) {
        let target = volume(seed);
        let loss = PebLoss::paper();
        let v = loss
            .depth_divergence(&Var::constant(target.add_scalar(shift)), &target)
            .value()
            .item();
        prop_assert!(v.abs() < 1e-3, "uniform shift changed Δ maps: {v}");
    }

    #[test]
    fn label_transform_roundtrips_everywhere(i in 0.001f32..0.999) {
        let t = LabelTransform::paper();
        let x = Tensor::scalar(i);
        let back = t.decode(&t.encode(&x)).item();
        prop_assert!((back - i).abs() < 1e-4);
    }

    #[test]
    fn nrmse_is_a_relative_error(seed in 0u64..1000, eps in 0.01f32..0.2) {
        // pred = (1+ε)·truth gives NRMSE exactly ε.
        let truth = volume(seed).add_scalar(5.0); // keep away from zero norm
        let pred = truth.mul_scalar(1.0 + eps);
        prop_assert!((nrmse(&pred, &truth) - eps).abs() < 1e-4);
    }

    #[test]
    fn gradient_of_total_loss_is_finite(seed in 0u64..1000) {
        let target = volume(seed);
        let mut rng = StdRng::seed_from_u64(seed + 4);
        let pred = Var::parameter(
            target.add_t(&Tensor::randn(&[3, 4, 4], &mut rng).mul_scalar(0.5)).unwrap(),
        );
        PebLoss::paper().combined(&pred, &target).backward();
        let g = pred.grad().unwrap();
        prop_assert!(g.data().iter().all(|v| v.is_finite()));
    }
}
