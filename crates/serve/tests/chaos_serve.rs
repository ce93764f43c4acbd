//! Hot-swap under fault: a corrupt or non-finite checkpoint must be
//! rejected with a typed error while the previous model keeps serving;
//! an int8-quantized (v2) checkpoint dequantizes at the swap; an armed
//! client disconnect must not take the server down; in-flight requests
//! must complete across a swap.
//!
//! The chaos latch is process-global one-shot state, so every test in
//! this binary serialises on one mutex (same pattern as peb-guard's own
//! chaos tests).

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier, Mutex};

use peb_guard::chaos::{self, Chaos};
use peb_guard::TrainCheckpoint;
use peb_nn::Parameterized;
use peb_serve::{Client, ClientError, ServeConfig, Server};
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{PebPredictor, QuantBudgets, SdmPeb, SdmPebConfig};

const GRID: (usize, usize, usize) = (4, 16, 16);

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        grid: GRID,
        max_batch: 4,
        max_wait_us: 200,
        queue_cap: 32,
        ..ServeConfig::default()
    }
}

fn test_clip() -> Tensor {
    let (d, h, w) = GRID;
    Tensor::from_vec(
        (0..d * h * w)
            .map(|i| (i as f32 * 0.01).cos() * 0.3 + 0.5)
            .collect(),
        &[d, h, w],
    )
    .expect("clip")
}

/// A differently-seeded model (so a successful swap visibly changes
/// predictions) and the checkpoint of its weights.
fn donor_checkpoint() -> (SdmPeb, TrainCheckpoint) {
    let model = SdmPeb::new(SdmPebConfig::tiny(GRID), &mut StdRng::seed_from_u64(999));
    let params: Vec<Tensor> = model.parameters().iter().map(|p| p.value_clone()).collect();
    let n = params.len();
    let ckpt = TrainCheckpoint {
        epoch: 5,
        seed: 999,
        opt_t: 0,
        lr_scale: 1.0,
        rollbacks: 0,
        epoch_stats: vec![],
        params,
        opt_m: vec![None; n],
        opt_v: vec![None; n],
        quant: None,
    };
    (model, ckpt)
}

fn save_checkpoint(ckpt: &TrainCheckpoint, tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("peb_serve_chaos_{tag}_{}.ckpt", std::process::id()));
    ckpt.save(&path).expect("save checkpoint");
    path
}

/// Saves [`donor_checkpoint`] and returns the path plus the prediction
/// digest that model produces.
fn write_swap_checkpoint(tag: &str) -> (PathBuf, u64) {
    let (model, ckpt) = donor_checkpoint();
    (
        save_checkpoint(&ckpt, tag),
        model.predict(&test_clip()).bit_digest(),
    )
}

#[test]
fn valid_swap_changes_the_served_model() {
    let _l = lock();
    chaos::disarm();
    let (path, swapped_digest) = write_swap_checkpoint("valid");
    let server = Server::start(config()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let base = client.infer(&test_clip()).expect("infer").bit_digest();
    assert_ne!(base, swapped_digest, "seeds 42 and 999 must differ");

    let v = client
        .swap(path.to_str().expect("utf8 path"))
        .expect("swap succeeds");
    assert_eq!(v.version, 1);
    assert_eq!(v.epoch, 5);

    let after = client.infer(&test_clip()).expect("infer").bit_digest();
    assert_eq!(
        after, swapped_digest,
        "post-swap prediction must match the checkpointed weights bitwise"
    );
    assert_eq!(server.handle().stats().hotswaps.load(Ordering::Relaxed), 1);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn swap_reports_the_crc_and_epoch_of_the_file_it_loaded() {
    let _l = lock();
    chaos::disarm();
    let (_, mut ckpt) = donor_checkpoint();
    ckpt.epoch = 11;
    let path = save_checkpoint(&ckpt, "version");
    let bytes = std::fs::read(&path).expect("read checkpoint");
    let footer: [u8; 4] = bytes[bytes.len() - 4..].try_into().expect("4-byte footer");
    let server = Server::start(config()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    let v = client
        .swap(path.to_str().expect("utf8 path"))
        .expect("swap succeeds");
    assert_eq!(
        v.crc,
        u32::from_le_bytes(footer),
        "crc is the file's footer"
    );
    assert_eq!(v.epoch, 11, "epoch is the checkpoint's");
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_swap_is_rejected_and_old_model_keeps_serving() {
    let _l = lock();
    // A fault mangles a good file on its way in; `None` is a file that
    // passes CRC and decodes but holds a NaN weight.
    for (tag, fault, reason) in [
        ("bitflip", Some(Chaos::BitflipCkpt { byte: None }), ""),
        ("truncate", Some(Chaos::TruncateCkpt { bytes: 16 }), ""),
        ("nan", None, "parameter 3 holds a non-finite value"),
    ] {
        chaos::disarm();
        let (_, mut ckpt) = donor_checkpoint();
        if fault.is_none() {
            ckpt.params[3].data_mut()[0] = f32::NAN;
        }
        let path = save_checkpoint(&ckpt, tag);
        let server = Server::start(config()).expect("start");
        let mut client = Client::connect(server.addr()).expect("connect");
        let base = client.infer(&test_clip()).expect("infer").bit_digest();

        if let Some(fault) = fault {
            chaos::arm(fault);
        }
        let err = client
            .swap(path.to_str().expect("utf8 path"))
            .expect_err("corrupt checkpoint must be rejected");
        match err {
            ClientError::Status(409, body) => {
                assert!(
                    body.contains("hot-swap rejected") && body.contains(reason),
                    "{tag}: typed rejection body, got {body:?}"
                );
            }
            other => panic!("{tag}: expected 409, got {other:?}"),
        }

        // The previous version keeps serving, bit-for-bit.
        let after = client.infer(&test_clip()).expect("infer").bit_digest();
        assert_eq!(after, base, "{tag}: old model must keep serving unchanged");
        let stats = server.handle().stats();
        assert_eq!(stats.hotswaps.load(Ordering::Relaxed), 0);
        assert_eq!(stats.swaps_rejected.load(Ordering::Relaxed), 1);
        assert_eq!(stats.version().version, 0, "version must not advance");

        // A later clean swap from a fresh file still works (the fault
        // was one-shot).
        let (path2, swapped) = write_swap_checkpoint("recover");
        let v = client
            .swap(path2.to_str().expect("utf8"))
            .expect("clean swap");
        assert_eq!(v.version, 1);
        assert_eq!(
            client.infer(&test_clip()).expect("infer").bit_digest(),
            swapped
        );

        server.shutdown();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }
    chaos::disarm();
}

#[test]
fn quantized_v2_checkpoint_swaps_in_and_serves() {
    let _l = lock();
    chaos::disarm();
    // Train-side artifact: the donor checkpoint, post-training-quantized
    // against a small held-out clip set.
    let (donor, ckpt) = donor_checkpoint();
    let budgets = QuantBudgets {
        max_rmse: 0.2,
        min_ssim: 0.5,
    };
    let (qckpt, report) =
        sdm_peb::quantize_checkpoint(&donor, &ckpt, &[test_clip()], budgets).expect("quantize");
    assert!(report.quant_bytes < report.f32_bytes, "{report:?}");
    let path = save_checkpoint(&qckpt, "quant");

    // Serving side: the swap dequantizes transparently; the served
    // prediction must match a local model restored from the same
    // dequantized parameters bitwise.
    let server = Server::start(config()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let v = client.swap(path.to_str().expect("utf8")).expect("swap");
    assert_eq!(v.version, 1);
    assert_eq!(v.epoch, 5);
    let served = client.infer(&test_clip()).expect("infer");
    server.shutdown();

    let local = SdmPeb::new(SdmPebConfig::tiny(GRID), &mut StdRng::seed_from_u64(1));
    let loaded = TrainCheckpoint::load(&path).expect("reload");
    let deq = sdm_peb::checkpoint_params(&loaded).expect("dequantize");
    sdm_peb::restore_parameters(&local, &deq).expect("restore");
    assert_eq!(
        served.bit_digest(),
        local.predict(&test_clip()).bit_digest(),
        "served prediction must come from the dequantized weights"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn client_disconnect_mid_response_leaves_server_healthy() {
    let _l = lock();
    chaos::disarm();
    let server = Server::start(config()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let base = client.infer(&test_clip()).expect("infer").bit_digest();

    chaos::arm(Chaos::Disconnect);
    let err = client
        .infer(&test_clip())
        .expect_err("dropped mid-response");
    assert!(
        matches!(err, ClientError::Io(_) | ClientError::BadResponse(_)),
        "expected a transport failure, got {err:?}"
    );

    // The server survives: a fresh connection serves the same bits.
    let mut client2 = Client::connect(server.addr()).expect("reconnect");
    let after = client2.infer(&test_clip()).expect("infer").bit_digest();
    assert_eq!(after, base);
    server.shutdown();
    chaos::disarm();
}

#[test]
fn inflight_requests_complete_across_a_swap() {
    let _l = lock();
    chaos::disarm();
    let (path, swapped_digest) = write_swap_checkpoint("inflight");
    let server = Server::start(config()).expect("start");
    let addr = server.addr();

    let mut probe = Client::connect(addr).expect("connect");
    let base_digest = probe.infer(&test_clip()).expect("infer").bit_digest();

    // Four clients stream inferences while the swap lands in the
    // middle; every request must complete with bits from exactly one
    // of the two model versions — never an error, never a mix.
    const CLIENTS: usize = 4;
    const REQS: usize = 6;
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                barrier.wait();
                (0..REQS)
                    .map(|_| c.infer(&test_clip()).expect("in-flight infer").bit_digest())
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    barrier.wait();
    let v = probe.swap(path.to_str().expect("utf8")).expect("swap");
    assert_eq!(v.version, 1);

    let mut saw_new = false;
    for w in workers {
        for d in w.join().expect("client thread") {
            assert!(
                d == base_digest || d == swapped_digest,
                "in-flight request returned bits from neither model version"
            );
            saw_new |= d == swapped_digest;
        }
    }
    // The swap happened mid-stream, so at least the probe confirms the
    // new model serves afterwards.
    let after = probe.infer(&test_clip()).expect("infer").bit_digest();
    assert_eq!(after, swapped_digest);
    // Not all runs interleave a post-swap request into the workers on a
    // single-core box; the probe assertion above is the hard guarantee.
    let _ = saw_new;

    server.shutdown();
    std::fs::remove_file(&path).ok();
}
