//! Criterion benches for the substrate kernels: GEMM, convolutions, FFTs
//! and the rigorous solver's tridiagonal sweeps — the primitives whose
//! cost determines every number in the model-level benches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use peb_fft::{convolve2d_periodic, fft2d, ComplexField};
use peb_nn::Conv2d;
use peb_tensor::kernels::{matmul_naive, matmul_par};
use peb_tensor::{Tensor, Var};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(1);
    for n in [32usize, 64, 128] {
        let a = Tensor::randn(&[n, n], &mut rng);
        let b = Tensor::randn(&[n, n], &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(a.matmul(&b).unwrap()))
        });
    }
    group.finish();
}

fn bench_matmul_kernels(c: &mut Criterion) {
    // Packed-vs-naive single-thread GEMM: isolates the microkernel win
    // (packing + register tiling + SIMD) from the threading win.
    let mut group = c.benchmark_group("matmul_kernel");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(6);
    for n in [64usize, 128, 256, 512] {
        let a = Tensor::randn(&[n, n], &mut rng);
        let b = Tensor::randn(&[n, n], &mut rng);
        let mut out = vec![0f32; n * n];
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bench, _| {
            bench.iter(|| {
                out.fill(0.0);
                matmul_naive(a.data(), b.data(), &mut out, n, n, n);
                std::hint::black_box(out[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("packed", n), &n, |bench, _| {
            bench.iter(|| {
                out.fill(0.0);
                peb_par::with_thread_count(1, || matmul_par(a.data(), b.data(), &mut out, n, n, n));
                std::hint::black_box(out[0])
            })
        });
    }
    group.finish();
}

fn bench_matmul_threads(c: &mut Criterion) {
    // Thread scaling of the full parallel GEMM path.
    let mut group = c.benchmark_group("matmul_threads");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(7);
    let n = 256usize;
    let a = Tensor::randn(&[n, n], &mut rng);
    let b = Tensor::randn(&[n, n], &mut rng);
    let many = peb_par::ctx::process_default().threads.max(2);
    for threads in [1usize, many] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |bench, &t| {
                bench.iter(|| {
                    peb_par::with_thread_count(t, || std::hint::black_box(a.matmul(&b).unwrap()))
                })
            },
        );
    }
    group.finish();
}

fn bench_conv2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_forward");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(2);
    for (label, cin, cout, hw) in [
        ("8x8x32", 8usize, 8usize, 32usize),
        ("16x16x64", 16, 16, 64),
    ] {
        let conv = Conv2d::new(cin, cout, 3, 1, 1, true, &mut rng);
        let x = Var::constant(Tensor::randn(&[cin, hw, hw], &mut rng));
        group.bench_function(label, |b| b.iter(|| std::hint::black_box(conv.forward(&x))));
    }
    group.finish();
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft2d");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(3);
    for n in [32usize, 64, 128] {
        let f = ComplexField::from_real(&Tensor::randn(&[n, n], &mut rng));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(fft2d(&f).unwrap()))
        });
    }
    group.finish();
}

fn bench_periodic_convolution(c: &mut Criterion) {
    // The aerial-image kernel convolution: one per depth level per clip.
    let mut group = c.benchmark_group("aerial_convolution");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(4);
    for n in [32usize, 64] {
        let signal = Tensor::randn(&[n, n], &mut rng);
        let kernel = Tensor::randn(&[n, n], &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(convolve2d_periodic(&signal, &kernel).unwrap()))
        });
    }
    group.finish();
}

fn bench_backward_pass(c: &mut Criterion) {
    // Autograd overhead: forward+backward through a conv stack.
    let mut group = c.benchmark_group("autograd_conv_stack");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(5);
    let c1 = Conv2d::new(4, 8, 3, 1, 1, true, &mut rng);
    let c2 = Conv2d::new(8, 4, 3, 1, 1, true, &mut rng);
    let x = Tensor::randn(&[4, 32, 32], &mut rng);
    group.bench_function("fwd_only", |b| {
        b.iter(|| {
            let v = Var::constant(x.clone());
            std::hint::black_box(c2.forward(&c1.forward(&v).relu()))
        })
    });
    group.bench_function("fwd_bwd", |b| {
        b.iter(|| {
            let v = Var::constant(x.clone());
            let loss = c2.forward(&c1.forward(&v).relu()).square().mean();
            loss.backward();
            std::hint::black_box(loss)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_kernels,
    bench_matmul_threads,
    bench_conv2d,
    bench_fft,
    bench_periodic_convolution,
    bench_backward_pass
);
criterion_main!(benches);
