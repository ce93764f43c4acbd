//! Property-based tests for the neural-network layers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use peb_nn::{Conv2d, EfficientSelfAttention, LayerNorm, Linear};
use peb_tensor::{Tensor, Var};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn linear_is_linear(seed in 0u64..500, alpha in -2.0f32..2.0) {
        // The layer is affine: with g(v) = f(v) − b,
        // g(αx + y) = α g(x) + g(y).
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Linear::new(4, 3, &mut rng);
        layer.bias().set_value(Tensor::randn(&[3], &mut rng));
        let b = layer.bias().value_clone();
        let g = |v: Tensor| {
            layer
                .forward(&Var::constant(v))
                .value_clone()
                .sub_t(&b)
                .unwrap()
        };
        let x = Tensor::randn(&[2, 4], &mut rng);
        let y = Tensor::randn(&[2, 4], &mut rng);
        let lhs = g(x.mul_scalar(alpha).add_t(&y).unwrap());
        let rhs = g(x).mul_scalar(alpha).add_t(&g(y)).unwrap();
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn conv_is_translation_equivariant_in_the_interior(seed in 0u64..500) {
        // Shifting the input shifts the output (away from borders),
        // stride 1, same padding.
        let mut rng = StdRng::seed_from_u64(seed);
        let conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        let mut x = Tensor::zeros(&[1, 9, 9]);
        x.set(&[0, 3, 3], 1.0);
        let y1 = conv.forward(&Var::constant(x)).value_clone();
        let mut xs = Tensor::zeros(&[1, 9, 9]);
        xs.set(&[0, 4, 5], 1.0);
        let y2 = conv.forward(&Var::constant(xs)).value_clone();
        for dy in 0..3usize {
            for dx in 0..3usize {
                let a = y1.get(&[0, 2 + dy, 2 + dx]);
                let b = y2.get(&[0, 3 + dy, 4 + dx]);
                prop_assert!((a - b).abs() < 1e-5, "impulse response shifted");
            }
        }
    }

    #[test]
    fn layernorm_is_invariant_to_input_affine(
        seed in 0u64..500,
        scale in 0.5f32..4.0,
        shift in -5.0f32..5.0,
    ) {
        // LayerNorm(a·x + b) == LayerNorm(x) for per-token affine maps.
        let mut rng = StdRng::seed_from_u64(seed);
        let ln = LayerNorm::new(6);
        let x = Tensor::randn(&[3, 6], &mut rng);
        let y1 = ln.forward(&Var::constant(x.clone())).value_clone();
        let y2 = ln
            .forward(&Var::constant(x.mul_scalar(scale).add_scalar(shift)))
            .value_clone();
        prop_assert!(y1.max_abs_diff(&y2) < 1e-3);
    }

    #[test]
    fn attention_is_permutation_equivariant_without_reduction(seed in 0u64..500) {
        // With r = 1 self-attention commutes with token permutations.
        let mut rng = StdRng::seed_from_u64(seed);
        let attn = EfficientSelfAttention::new(4, 2, 1, &mut rng);
        let x = Tensor::randn(&[5, 4], &mut rng);
        let y = attn.forward(&Var::constant(x.clone())).value_clone();
        // Rotate tokens by 2.
        let rot = |t: &Tensor| {
            Tensor::from_fn(&[5, 4], |i| {
                let (row, col) = (i / 4, i % 4);
                t.get(&[(row + 2) % 5, col])
            })
        };
        let y_rot_in = attn.forward(&Var::constant(rot(&x))).value_clone();
        prop_assert!(y_rot_in.max_abs_diff(&rot(&y)) < 1e-4);
    }

    #[test]
    fn adam_never_moves_parameters_without_gradients(seed in 0u64..500) {
        use peb_nn::{Adam, Optimizer};
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Var::parameter(Tensor::randn(&[4], &mut rng));
        let before = p.value_clone();
        let mut opt = Adam::new(0.1);
        opt.step(std::slice::from_ref(&p));
        prop_assert!(p.value_clone().approx_eq(&before, 0.0));
    }
}
