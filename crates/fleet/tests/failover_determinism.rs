//! Failover determinism (ISSUE satellite): for every chaos fault the
//! fleet supports — `kill-worker` (process aborts mid-batch),
//! `hang-worker` (process wedges, alive but unresponsive) and
//! `corrupt-resp` (response frame fails its CRC) — a request whose
//! owner shard faults must come back **bitwise identical** to the
//! no-fault run, at 1 and 4 compute threads.
//!
//! The reference is a literal no-fault fleet run (not an in-process
//! model): cross-process bitwise determinism is the contract that makes
//! idempotent retries safe, so the test holds the fleet to exactly
//! that. After `kill-worker` and `hang-worker` the supervisor must also
//! have brought the shard back, and the last case arms all three faults
//! at once on a three-worker fleet under load.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use peb_fleet::{clip_digest, Fleet, FleetConfig, Ring};
use peb_serve::clip::encode_clip;
use peb_serve::Client;
use peb_tensor::Tensor;

const GRID: (usize, usize, usize) = (4, 16, 16);

fn worker_env(threads: usize) -> Vec<(String, String)> {
    vec![
        ("PEB_SERVE_GRID".to_string(), "4x16x16".to_string()),
        ("PEB_SERVE_MODEL".to_string(), "tiny".to_string()),
        ("PEB_SERVE_SEED".to_string(), "42".to_string()),
        ("PEB_SERVE_MAX_BATCH".to_string(), "4".to_string()),
        ("PEB_SERVE_MAX_WAIT_US".to_string(), "200".to_string()),
        ("PEB_SERVE_THREADS".to_string(), threads.to_string()),
    ]
}

fn base_config(threads: usize) -> FleetConfig {
    FleetConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_peb_worker"))),
        worker_env: worker_env(threads),
        deadline_us: 60_000_000,
        probe_interval: Duration::from_millis(100),
        probe_timeout: Duration::from_millis(500),
        probe_fails: 2,
        // A hung worker must cost one bounded attempt, not the whole
        // deadline — this cap is what makes hang failover land in time.
        attempt_timeout: Some(Duration::from_secs(2)),
        drain_timeout: Duration::from_millis(1_000),
        ..FleetConfig::default()
    }
    .normalized()
}

fn test_clip(tag: u64) -> Tensor {
    let (d, h, w) = GRID;
    Tensor::from_vec(
        (0..d * h * w)
            .map(|i| ((i as f32 + tag as f32 * 37.0) * 0.01).cos() * 0.3 + 0.5)
            .collect(),
        &[d, h, w],
    )
    .expect("clip")
}

/// A clip owned by shard 0, so an armed shard-0 fault is on the
/// request's primary path, not a bystander.
fn shard0_clip() -> Tensor {
    let ring = Ring::new(2);
    for tag in 0..256u64 {
        let c = test_clip(tag);
        if ring.owner(clip_digest(&encode_clip(&c))) == 0 {
            return c;
        }
    }
    panic!("no tag in 0..256 hashes to shard 0");
}

/// Serves the clip through `fleet`, returning the output digest.
fn serve(fleet: &Fleet, clip: &Tensor) -> u64 {
    let mut client = Client::connect(fleet.addr()).expect("connect");
    client.infer(clip).expect("infer").bit_digest()
}

fn wait_for(mut cond: impl FnMut() -> bool, budget: Duration, what: &str) {
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

fn determinism_matrix(threads: usize) {
    let clip = shard0_clip();

    // Reference: the no-fault fleet's answer.
    let clean = Fleet::start(base_config(threads)).expect("clean fleet");
    let reference = serve(&clean, &clip);
    clean.shutdown();

    for fault in ["kill-worker", "hang-worker", "corrupt-resp"] {
        let mut cfg = base_config(threads);
        cfg.worker_chaos = vec![(0, fault.to_string())];
        if fault == "hang-worker" {
            // The wedge trips on the worker's *next parsed request*. A
            // long probe cadence makes that the supervisor's startup
            // probe, deterministically: our infer then always meets a
            // wedged-but-routable shard 0 and must fail over on the
            // attempt-timeout path (the supervisor is probed out of
            // cadence by the router's suspect flag afterwards).
            cfg.probe_interval = Duration::from_secs(10);
        }
        let fleet = Fleet::start(cfg).expect("chaos fleet");
        assert_eq!(
            serve(&fleet, &clip),
            reference,
            "{fault}/{threads}t: retried answer must be bitwise the no-fault answer"
        );
        let stats = fleet.stats();
        assert!(
            stats.retries.load(Ordering::Relaxed) >= 1,
            "{fault}/{threads}t: the faulted primary must have forced a retry"
        );
        if fault == "corrupt-resp" {
            assert!(
                stats.corrupt_rejected.load(Ordering::Relaxed) >= 1,
                "{fault}/{threads}t: the corrupt frame must be caught by the CRC gate"
            );
        } else {
            // The dead or wedged worker is replaced, not only routed
            // around.
            let shards = fleet.shards();
            let shard0 = &shards.slots()[0];
            wait_for(
                || shard0.routable() && shard0.restarts() >= 1,
                Duration::from_secs(30),
                &format!("{fault}/{threads}t: shard 0 restarted and up"),
            );
        }
        fleet.shutdown();
    }
}

#[test]
fn every_fault_is_bitwise_invisible_at_one_thread() {
    determinism_matrix(1);
}

#[test]
fn every_fault_is_bitwise_invisible_at_four_threads() {
    determinism_matrix(4);
}

/// All three faults armed at once on a three-worker fleet, firing under
/// closed-loop load: shard 0 aborts on its 10th batch, shard 1 wedges on
/// its 40th request (probes count), shard 2 corrupts its 5th response.
/// Requests are counted, not timed, and the 60 s deadline sheds none of
/// them, so every request must come back — with the no-fault bits — and
/// the supervisor must end with a full, restarted fleet.
#[test]
fn three_faults_at_once_under_load_are_all_recovered() {
    const CLIPS: u64 = 16;
    const CLIENTS: usize = 2;
    const REQUESTS_PER_CLIENT: usize = 200;
    let clips: Vec<Tensor> = (0..CLIPS).map(test_clip).collect();

    let clean = Fleet::start(base_config(1)).expect("clean fleet");
    let reference: Vec<u64> = clips.iter().map(|c| serve(&clean, c)).collect();
    clean.shutdown();

    let fleet = Fleet::start(
        FleetConfig {
            workers: 3,
            max_attempts: 0, // re-derived for three workers
            worker_chaos: vec![
                (0, "kill-worker:10".to_string()),
                (1, "hang-worker:40".to_string()),
                (2, "corrupt-resp:5".to_string()),
            ],
            ..base_config(1)
        }
        .normalized(),
    )
    .expect("chaos fleet");
    let addr = fleet.addr();

    let ok: usize = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (clips, reference) = (&clips, &reference);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut ok = 0;
                    // Offset so the clients do not march in lockstep.
                    for i in c..c + REQUESTS_PER_CLIENT {
                        let tag = i % clips.len();
                        match client.infer(&clips[tag]) {
                            Ok(y) => {
                                assert_eq!(
                                    y.bit_digest(),
                                    reference[tag],
                                    "clip {tag}: answer under chaos must be bitwise the no-fault answer"
                                );
                                ok += 1;
                            }
                            Err(_) => client = Client::connect(addr).expect("reconnect"),
                        }
                    }
                    ok
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .sum()
    });
    let attempted = CLIENTS * REQUESTS_PER_CLIENT;
    assert!(
        ok as f64 >= 0.99 * attempted as f64,
        "{ok} of {attempted} requests succeeded under chaos"
    );

    // The load may end mid-restart: give the supervisor its grace.
    let shards = fleet.shards();
    wait_for(
        || shards.total_restarts() >= 2 && shards.up_count() == 3,
        Duration::from_secs(30),
        "killed and hung workers restarted, all three shards up",
    );
    let outage = shards.worst_outage();
    assert!(
        Duration::ZERO < outage && outage < Duration::from_secs(30),
        "time to recovery is clocked by the restart path: {outage:?}"
    );
    assert!(
        fleet.stats().corrupt_rejected.load(Ordering::Relaxed) >= 1,
        "the corrupt frame must be caught by the CRC gate"
    );
    // The restarted fleet serves the same bits.
    for (clip, want) in clips.iter().zip(&reference) {
        assert_eq!(serve(&fleet, clip), *want, "post-recovery digest");
    }
    fleet.shutdown();
}
