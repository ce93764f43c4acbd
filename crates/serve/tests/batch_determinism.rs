//! Batching invariance: a batch of N clips must be bitwise identical
//! to N sequential batch-1 inferences — at 1 and 4 kernel threads, on
//! the scalar and (where available) AVX2 paths.
//!
//! This is the contract `peb-serve`'s dynamic batcher rests on: the
//! batch a request happens to land in (a function of arrival timing)
//! must never change a single output bit, or serving results would be
//! load-dependent and irreproducible.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};

use peb_serve::{Client, ServeConfig, Server};
use peb_tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};
use sdm_peb::{PebPredictor, SdmPeb, SdmPebConfig};

/// Deterministic clip set with mixed sizes (some smaller than the
/// model grid, exercising the pad/crop path).
fn make_clips() -> Vec<Tensor> {
    let dims = [
        (4usize, 16usize, 16usize),
        (2, 8, 8),
        (3, 12, 16),
        (4, 16, 16),
        (1, 16, 9),
        (4, 5, 6),
    ];
    dims.iter()
        .enumerate()
        .map(|(k, &(d, h, w))| {
            let data = (0..d * h * w)
                .map(|i| ((i as f32) * 0.013 + k as f32 * 0.7).sin() * 0.4 + 0.5)
                .collect();
            Tensor::from_vec(data, &[d, h, w]).expect("clip tensor")
        })
        .collect()
}

fn config(threads: usize, batched: bool, n: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        grid: (4, 16, 16),
        max_batch: if batched { n } else { 1 },
        // Batched mode waits long enough that barrier-released clients
        // coalesce; sequential mode never waits.
        max_wait_us: if batched { 500_000 } else { 0 },
        queue_cap: 64,
        compute_threads: Some(threads),
        ..ServeConfig::default()
    }
}

/// Runs all clips through a server sequentially over one connection.
fn digests_sequential(threads: usize, clips: &[Tensor]) -> Vec<u64> {
    let server = Server::start(config(threads, false, clips.len())).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let out = clips
        .iter()
        .map(|c| client.infer(c).expect("infer").bit_digest())
        .collect();
    server.shutdown();
    out
}

/// Runs all clips concurrently (barrier-released) so they coalesce
/// into one engine batch; returns digests in clip order plus the
/// number of multi-clip batches the server saw.
fn digests_batched(threads: usize, clips: &[Tensor]) -> (Vec<u64>, u64) {
    let server = Server::start(config(threads, true, clips.len())).expect("start server");
    let addr: SocketAddr = server.addr();
    let barrier = Arc::new(Barrier::new(clips.len()));
    let workers: Vec<_> = clips
        .iter()
        .cloned()
        .map(|clip| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                client.infer(&clip).expect("infer").bit_digest()
            })
        })
        .collect();
    let digests = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();
    let multi = server
        .handle()
        .stats()
        .batch_hist_entries()
        .iter()
        .filter(|(size, _)| *size > 1)
        .map(|(_, count)| count)
        .sum();
    server.shutdown();
    (digests, multi)
}

#[test]
fn batching_is_bitwise_invariant_across_threads_and_levels() {
    let clips = make_clips();
    let mut levels = vec![peb_simd::Level::Scalar];
    if peb_simd::detected() {
        levels.push(peb_simd::Level::Avx2Fma);
    }
    for level in levels {
        // The server's engine thread adopts the context it is started
        // under, so the whole sweep for one level runs inside one scope.
        let scoped = peb_par::ExecCtx {
            level,
            ..peb_par::ctx::current()
        };
        peb_par::ctx::with(scoped, || {
            let baseline = digests_sequential(1, &clips);
            // The served bits are this scope's bits: clip 0 spans the
            // whole grid (no pad/crop), so it must match an in-process
            // `predict` of the same seed-initialised model at this level.
            let cfg = config(1, false, 1);
            let model = SdmPeb::new(
                SdmPebConfig::tiny(cfg.grid),
                &mut StdRng::seed_from_u64(cfg.seed),
            );
            assert_eq!(
                baseline[0],
                model.predict(&clips[0]).bit_digest(),
                "served bits differ from in-process predict ({})",
                level.name()
            );
            for threads in [1usize, 4] {
                let seq = digests_sequential(threads, &clips);
                assert_eq!(
                    seq,
                    baseline,
                    "sequential serving diverged at {threads} threads ({})",
                    level.name()
                );
                let (bat, multi_batches) = digests_batched(threads, &clips);
                assert_eq!(
                    bat,
                    baseline,
                    "batched serving diverged at {threads} threads ({})",
                    level.name()
                );
                assert!(
                    multi_batches >= 1,
                    "expected at least one multi-clip batch at {threads} threads ({}) — \
                     the batcher never coalesced, so batching was not actually exercised",
                    level.name()
                );
            }
        });
    }
}
