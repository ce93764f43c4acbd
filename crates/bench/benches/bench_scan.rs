//! Criterion benches for the SDM unit internals: selective-scan cost vs
//! sequence length, three-direction vs 2-D scan (the Table III row 2
//! design choice), and the attention reduction-ratio sweep (Eq. 15).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use peb_mamba::{selective_scan, LtiSsmBlock, ScanDirection, SdmUnit, SdmUnitConfig, SsmBlock};
use peb_nn::EfficientSelfAttention;
use peb_tensor::{Tensor, Var};

fn bench_selective_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("selective_scan_forward");
    group.sample_size(10);
    let (ch, n) = (16usize, 8usize);
    for l in [256usize, 1024, 4096] {
        let mut rng = StdRng::seed_from_u64(l as u64);
        let u = Var::constant(Tensor::randn(&[l, ch], &mut rng));
        let delta = Var::constant(Tensor::rand_uniform(&[l, ch], 0.05, 0.5, &mut rng));
        let a = Var::constant(Tensor::rand_uniform(&[ch, n], -1.5, -0.2, &mut rng));
        let b = Var::constant(Tensor::randn(&[l, n], &mut rng));
        let cc = Var::constant(Tensor::randn(&[l, n], &mut rng));
        let d = Var::constant(Tensor::randn(&[ch], &mut rng));
        group.bench_with_input(BenchmarkId::from_parameter(l), &l, |bench, _| {
            bench.iter(|| std::hint::black_box(selective_scan(&u, &delta, &a, &b, &cc, &d)))
        });
    }
    group.finish();
}

fn bench_scan_directions(c: &mut Criterion) {
    let mut group = c.benchmark_group("sdm_unit_directions");
    group.sample_size(10);
    let dims = (8usize, 16usize, 16usize);
    let l = dims.0 * dims.1 * dims.2;
    let mut rng = StdRng::seed_from_u64(11);
    let x = Var::constant(Tensor::randn(&[l, 16], &mut rng));
    for (label, dirs) in [
        ("three_direction", ScanDirection::ALL.to_vec()),
        ("bidirectional_2d", ScanDirection::BIDIRECTIONAL_2D.to_vec()),
    ] {
        let mut cfg = SdmUnitConfig::new(16, 16, 8);
        cfg.directions = dirs;
        let unit = SdmUnit::new(cfg, &mut rng);
        group.bench_function(label, |b| {
            b.iter(|| std::hint::black_box(unit.forward(&x, dims)))
        });
    }
    group.finish();
}

fn bench_attention_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("attention_reduction_sweep");
    group.sample_size(10);
    let l = 1024usize;
    let dim = 16usize;
    let mut rng = StdRng::seed_from_u64(12);
    let x = Var::constant(Tensor::randn(&[l, dim], &mut rng));
    for r in [1usize, 4, 16, 64] {
        let attn = EfficientSelfAttention::new(dim, 2, r, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |bench, _| {
            bench.iter(|| std::hint::black_box(attn.forward(&x)))
        });
    }
    group.finish();
}

fn bench_selective_vs_lti(c: &mut Criterion) {
    // The selectivity ablation: input-dependent (Mamba) vs constant (S4)
    // SSM parameterisation at equal state size.
    let mut group = c.benchmark_group("selective_vs_lti_ssm");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(15);
    let x = Var::constant(Tensor::randn(&[1024, 16], &mut rng));
    let selective = SsmBlock::new(16, 8, &mut rng);
    let lti = LtiSsmBlock::new(16, 8, &mut rng);
    group.bench_function("selective", |b| {
        b.iter(|| std::hint::black_box(selective.forward(&x)))
    });
    group.bench_function("lti", |b| b.iter(|| std::hint::black_box(lti.forward(&x))));
    group.finish();
}

criterion_group!(
    benches,
    bench_selective_scan,
    bench_scan_directions,
    bench_attention_reduction,
    bench_selective_vs_lti
);
criterion_main!(benches);
