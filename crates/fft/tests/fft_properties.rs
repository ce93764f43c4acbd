//! Property-based tests for the FFT stack on arbitrary lengths.
//!
//! PR 2 replaced the power-of-two-only radix-2 entry points with a
//! dispatching kernel (radix-2 for powers of two, Bluestein chirp-z for
//! everything else). These properties pin the contract on *any* length,
//! with odd and prime lengths exercised explicitly since those take the
//! Bluestein path end to end.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

use peb_fft::{fft1d, ifft1d, Complex};

/// Lengths whose only divisors are themselves: pure Bluestein territory.
const PRIMES: [usize; 14] = [3, 5, 7, 11, 13, 17, 19, 23, 31, 37, 53, 61, 79, 97];

fn random_complex(n: usize, seed: u64) -> Vec<Complex> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// O(N²) reference DFT.
fn dft(data: &[Complex]) -> Vec<Complex> {
    let n = data.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (t, &x) in data.iter().enumerate() {
                let phase = -std::f32::consts::TAU * (k * t % n) as f32 / n as f32;
                acc += x * Complex::cis(phase);
            }
            acc
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn forward_inverse_roundtrip_any_length(len in 1usize..97, seed in 0u64..1000) {
        let x = random_complex(len, seed);
        let back = ifft1d(&fft1d(&x).unwrap()).unwrap();
        prop_assert_eq!(back.len(), len);
        for (a, b) in back.iter().zip(&x) {
            prop_assert!(
                (a.re - b.re).abs() < 2e-3 && (a.im - b.im).abs() < 2e-3,
                "len={} roundtrip {} vs {}", len, a, b
            );
        }
    }

    #[test]
    fn forward_matches_reference_dft(len in 1usize..49, seed in 0u64..1000) {
        let x = random_complex(len, seed);
        let fast = fft1d(&x).unwrap();
        let slow = dft(&x);
        let tol = 1e-3 * (len as f32).max(4.0);
        for (k, (a, b)) in fast.iter().zip(&slow).enumerate() {
            prop_assert!(
                (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol,
                "len={} bin {}: {} vs {}", len, k, a, b
            );
        }
    }

    #[test]
    fn roundtrip_on_prime_lengths(pi in 0usize..14, seed in 0u64..1000) {
        let len = PRIMES[pi];
        let x = random_complex(len, seed);
        let back = ifft1d(&fft1d(&x).unwrap()).unwrap();
        for (a, b) in back.iter().zip(&x) {
            prop_assert!(
                (a.re - b.re).abs() < 2e-3 && (a.im - b.im).abs() < 2e-3,
                "prime len={}: {} vs {}", len, a, b
            );
        }
    }

    #[test]
    fn plan_cache_is_bitwise_stable_on_prime_lengths(pi in 0usize..14, seed in 0u64..1000) {
        // The first transform of a given length builds the Bluestein plan;
        // subsequent transforms replay it from the thread-local cache. A
        // cached plan must reproduce the cold-path bits exactly, forward
        // and inverse, on pure Bluestein (prime) lengths.
        let len = PRIMES[pi];
        let x = random_complex(len, seed);
        let first = fft1d(&x).unwrap();
        for _ in 0..3 {
            let again = fft1d(&x).unwrap();
            for (k, (a, b)) in again.iter().zip(&first).enumerate() {
                prop_assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "cached fft differs at len={} bin {}: {} vs {}", len, k, a, b
                );
            }
        }
        let inv_first = ifft1d(&first).unwrap();
        let inv_again = ifft1d(&first).unwrap();
        for (k, (a, b)) in inv_again.iter().zip(&inv_first).enumerate() {
            prop_assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "cached ifft differs at len={} bin {}: {} vs {}", len, k, a, b
            );
        }
    }

    #[test]
    fn parseval_any_length(len in 1usize..97, seed in 0u64..1000) {
        let x = random_complex(len, seed);
        let spec = fft1d(&x).unwrap();
        let time_e: f32 = x.iter().map(|c| c.norm_sqr()).sum();
        let freq_e: f32 = spec.iter().map(|c| c.norm_sqr()).sum::<f32>() / len as f32;
        let tol = 2e-3 * time_e.max(1.0);
        prop_assert!(
            (time_e - freq_e).abs() < tol,
            "len={}: time {} vs freq {}", len, time_e, freq_e
        );
    }
}
