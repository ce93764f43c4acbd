//! End-to-end fleet behaviour over real worker processes: sharded
//! routing with bitwise-identical answers, failover + supervised
//! restart after a worker crash, fleet-wide hot-swap with checkpoint
//! reload on restart, and router-side deadline shedding.
//!
//! Workers are spawned from the `peb_worker` binary cargo builds for
//! this test target (`CARGO_BIN_EXE_peb_worker`). Worker serving knobs
//! travel via `FleetConfig::worker_env`, never the parent's global
//! environment (parallel tests would race on it).

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use peb_fleet::{clip_digest, Fleet, FleetConfig, Ring};
use peb_guard::{OptKind, TrainCheckpoint};
use peb_nn::Parameterized;
use peb_serve::clip::{decode_resp, encode_clip};
use peb_serve::Client;
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{PebPredictor, SdmPeb, SdmPebConfig};

const GRID: (usize, usize, usize) = (4, 16, 16);
const SEED: u64 = 42;

fn worker_env() -> Vec<(String, String)> {
    [
        ("PEB_SERVE_GRID", "4x16x16"),
        ("PEB_SERVE_MODEL", "tiny"),
        ("PEB_SERVE_SEED", "42"),
        ("PEB_SERVE_MAX_BATCH", "4"),
        ("PEB_SERVE_MAX_WAIT_US", "200"),
        ("PEB_SERVE_THREADS", "1"),
    ]
    .iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect()
}

fn fleet_config(workers: usize) -> FleetConfig {
    FleetConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_peb_worker"))),
        worker_env: worker_env(),
        // Generous on a 1-core box: model build + batching + retries.
        deadline_us: 30_000_000,
        probe_interval: Duration::from_millis(100),
        probe_timeout: Duration::from_millis(500),
        probe_fails: 2,
        attempt_timeout: Some(Duration::from_secs(5)),
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

/// The single-process answer every fleet response must match bitwise.
fn reference_digest(clip: &Tensor) -> u64 {
    let model = SdmPeb::new(SdmPebConfig::tiny(GRID), &mut StdRng::seed_from_u64(SEED));
    model.predict(clip).bit_digest()
}

/// A clip whose ring owner is `shard` (searches tags deterministically).
fn clip_owned_by(ring: &Ring, shard: usize) -> Tensor {
    for tag in 0..256u64 {
        let c = test_clip(tag);
        if ring.owner(clip_digest(&encode_clip(&c))) == shard {
            return c;
        }
    }
    panic!("no tag in 0..256 hashes to shard {shard}");
}

fn wait_for(mut cond: impl FnMut() -> bool, budget: Duration, what: &str) {
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn fleet_serves_sharded_requests_bitwise_identical_to_single_process() {
    let fleet = Fleet::start(fleet_config(2)).expect("fleet start");
    let mut client = Client::connect(fleet.addr()).expect("connect");

    // Liveness, readiness, stats all answer at the router.
    let r = client.request("GET", "/healthz", b"").expect("healthz");
    assert_eq!(r.status, 200);
    let r = client.request("GET", "/readyz", b"").expect("readyz");
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
    let r = client.request("GET", "/stats", b"").expect("stats");
    let stats_json = String::from_utf8_lossy(&r.body).to_string();
    assert!(stats_json.contains("\"workers\":2"), "{stats_json}");
    assert!(stats_json.contains("\"up\":2"), "{stats_json}");

    // Clips spread across both shards; every answer matches the
    // single-process model bitwise.
    let ring = fleet.ring();
    let mut owners_seen = [false; 2];
    for tag in 0..8 {
        let clip = test_clip(tag);
        owners_seen[ring.owner(clip_digest(&encode_clip(&clip)))] = true;
        let served = client.infer(&clip).expect("fleet infer");
        assert_eq!(
            served.bit_digest(),
            reference_digest(&clip),
            "tag {tag}: fleet answer must be bitwise single-process"
        );
    }
    assert!(
        owners_seen[0] && owners_seen[1],
        "8 clips should span both shards"
    );
    assert_eq!(fleet.stats().corrupt_rejected.load(Ordering::Relaxed), 0);
    fleet.shutdown();
}

#[test]
fn killed_worker_fails_over_and_is_restarted() {
    // Arm a kill-worker fault on shard 0's first spawn: the first batch
    // that worker runs aborts the whole process mid-request.
    let mut cfg = fleet_config(2);
    cfg.worker_chaos = vec![(0, "kill-worker".to_string())];
    let fleet = Fleet::start(cfg).expect("fleet start");
    let ring = fleet.ring();
    let victim_clip = clip_owned_by(&ring, 0);
    let want = reference_digest(&victim_clip);

    let mut client = Client::connect(fleet.addr()).expect("connect");
    // The owner dies mid-batch; the router must fail over and still
    // return the right bits.
    let served = client.infer(&victim_clip).expect("failover infer");
    assert_eq!(
        served.bit_digest(),
        want,
        "failover answer must be bitwise identical"
    );
    let stats = fleet.stats();
    assert!(stats.retries.load(Ordering::Relaxed) >= 1, "retry counted");
    assert!(
        stats.failovers.load(Ordering::Relaxed) >= 1,
        "failover counted"
    );

    // The supervisor notices the crash and brings shard 0 back.
    let shards = fleet.shards();
    wait_for(
        || shards.total_restarts() >= 1 && shards.up_count() == 2,
        Duration::from_secs(30),
        "worker restart",
    );
    // The restarted worker serves the same bits (restarts are clean —
    // the fault spec does not re-arm).
    let served = client.infer(&victim_clip).expect("post-restart infer");
    assert_eq!(served.bit_digest(), want);
    fleet.shutdown();
}

#[test]
fn swap_fans_out_and_restarted_worker_reloads_checkpoint() {
    let donor = SdmPeb::new(SdmPebConfig::tiny(GRID), &mut StdRng::seed_from_u64(999));
    let params: Vec<Tensor> = donor.parameters().iter().map(|p| p.value_clone()).collect();
    let n = params.len();
    let ckpt = TrainCheckpoint {
        epoch: 5,
        seed: 999,
        opt_kind: OptKind::Adam,
        opt_t: 0,
        lr_scale: 1.0,
        rollbacks: 0,
        epoch_stats: vec![],
        params,
        opt_m: vec![None; n],
        opt_v: vec![None; n],
        quant: None,
    };
    let path = std::env::temp_dir().join(format!("peb_fleet_swap_{}.ckpt", std::process::id()));
    ckpt.save(&path).expect("save checkpoint");

    let mut cfg = fleet_config(2);
    // Shard 0 will abort on its first post-swap batch, forcing a
    // restart that must reload the swapped checkpoint.
    cfg.worker_chaos = vec![(0, "kill-worker".to_string())];
    let fleet = Fleet::start(cfg).expect("fleet start");
    let ring = fleet.ring();
    let shard0_clip = clip_owned_by(&ring, 0);
    let swapped_digest = donor.predict(&shard0_clip).bit_digest();
    assert_ne!(swapped_digest, reference_digest(&shard0_clip));

    let mut client = Client::connect(fleet.addr()).expect("connect");
    let r = client
        .request("POST", "/swap", path.display().to_string().as_bytes())
        .expect("swap request");
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));

    // First shard-0 infer: the armed fault kills the worker mid-batch;
    // the failover answer must already carry the *swapped* bits (the
    // fallback worker swapped too).
    let served = client.infer(&shard0_clip).expect("failover infer");
    assert_eq!(served.bit_digest(), swapped_digest);

    // The restarted shard 0 must reload the checkpoint before going
    // routable — wait for it, then check its bits too. (The clip owner
    // routes to shard 0 again once it is Up.)
    let shards = fleet.shards();
    wait_for(
        || shards.total_restarts() >= 1 && shards.up_count() == 2,
        Duration::from_secs(30),
        "worker restart",
    );
    let served = client.infer(&shard0_clip).expect("post-restart infer");
    assert_eq!(
        served.bit_digest(),
        swapped_digest,
        "restarted worker must serve the swapped checkpoint, not the seed model"
    );
    fleet.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn hopeless_deadline_is_shed_with_504() {
    let fleet = Fleet::start(fleet_config(1)).expect("fleet start");
    let mut client = Client::connect(fleet.addr()).expect("connect");
    let clip = test_clip(3);
    let r = client
        .request_with_headers(
            "POST",
            "/infer",
            &[("x-peb-deadline-us", "1")],
            &encode_clip(&clip),
        )
        .expect("request completes");
    assert_eq!(
        r.status,
        504,
        "a 1µs budget must shed, not serve: {}",
        String::from_utf8_lossy(&r.body)
    );
    // A sane budget on the same connection still serves.
    let served = client.infer(&clip).expect("infer after shed");
    assert_eq!(served.bit_digest(), reference_digest(&clip));
    let _ = decode_resp; // silence unused when assertions compile out
    fleet.shutdown();
}

#[test]
fn bad_deadline_header_is_a_400_and_bad_routes_stay_typed() {
    let fleet = Fleet::start(fleet_config(1)).expect("fleet start");
    let mut client = Client::connect(fleet.addr()).expect("connect");
    let r = client
        .request_with_headers(
            "POST",
            "/infer",
            &[("x-peb-deadline-us", "soon")],
            &encode_clip(&test_clip(0)),
        )
        .expect("request completes");
    assert_eq!(r.status, 400);
    let r = client.request("GET", "/nope", b"").expect("request");
    assert_eq!(r.status, 404);
    let r = client.request("POST", "/healthz", b"").expect("request");
    assert_eq!(r.status, 405);
    // A malformed clip is forwarded to the worker and comes back 400 —
    // deterministic client errors are not retried.
    let r = client
        .request("POST", "/infer", b"not a clip frame")
        .expect("request");
    assert_eq!(r.status, 400);
    // `?prec=` reaches the worker verbatim: f32 names what it does
    // anyway, any other selection is the worker's 400, and the
    // keep-alive connection through the router survives each one.
    let frame = encode_clip(&test_clip(0));
    let r = client
        .request("POST", "/infer?prec=f32", &frame)
        .expect("request");
    assert_eq!(r.status, 200);
    assert_eq!(
        decode_resp(&r.body).expect("frame").bit_digest(),
        reference_digest(&test_clip(0))
    );
    for target in ["/infer?prec=bf16", "/infer?prec=int8", "/infer?prec="] {
        let r = client.request("POST", target, &frame).expect("request");
        assert_eq!(r.status, 400, "{target}");
        let body = String::from_utf8_lossy(&r.body);
        assert!(body.contains("precision selection was removed"), "{body}");
    }
    assert_eq!(fleet.stats().retries.load(Ordering::Relaxed), 0);
    fleet.shutdown();
}

/// A connection that closes must leave nothing behind in the router:
/// its accept loop reaps finished connection threads. Before it did,
/// every closed connection kept a thread stack (about 2 MiB of address
/// space), and the supervisor's own probes open one per interval.
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_do_not_grow_the_router() {
    /// `VmData`: private writable mappings, which count every thread
    /// stack but not the inaccessible 64 MiB glibc reserves per malloc
    /// arena (`VmSize` does, and moved 330–750 MiB on that alone).
    fn vm_data_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmData:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kib| kib.parse().ok())
            .expect("VmData line")
    }
    const FRESH_CONNS: usize = 1000;
    let fleet = Fleet::start(fleet_config(1)).expect("fleet start");
    let before = vm_data_kib();
    for _ in 0..FRESH_CONNS {
        // Answered by the router itself; no worker is involved.
        let mut client = Client::connect(fleet.addr()).expect("connect");
        let r = client.request("GET", "/healthz", b"").expect("healthz");
        assert_eq!(r.status, 200);
    }
    let grown_kib = vm_data_kib().saturating_sub(before);
    fleet.shutdown();
    // The sibling tests of this binary share the process; their fleets
    // come and go inside the bound, 1000 leaked stacks (2 GiB) do not.
    assert!(
        grown_kib < 512 * 1024,
        "writable address space grew {grown_kib} KiB over {FRESH_CONNS} closed connections"
    );
}
