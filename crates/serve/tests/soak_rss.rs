//! Serving must not grow with requests served.
//!
//! Tensors cross threads on every request — the connection thread parses
//! a clip the engine drops, the engine allocates a response the
//! connection thread drops, the client decodes a reply it drops. The
//! pool's retention rule (a bucket keeps no more buffers than its thread
//! has had misses in it) is what keeps those hand-offs from piling up in
//! the dropping thread's buckets; before it, resident memory grew by
//! about 12 KiB per request. This soak pins the flat line.
//!
//! Nor with connections accepted: the accept loop reaps the handles of
//! finished connection threads, so a client that connects, asks once and
//! hangs up (every supervisor probe does) leaves nothing behind. Before
//! that, each closed connection kept its thread's stack until shutdown:
//! about 2 MiB of address space and 24 KiB resident. The second phase
//! pins it.
#![cfg(target_os = "linux")]

use std::sync::{Arc, Barrier};

use peb_serve::{Client, ServeConfig, Server};
use peb_tensor::Tensor;

/// One `kB` field of `/proc/self/status`: `"VmRSS:"`, or `"VmData:"` —
/// private writable mappings, which count every thread stack. (`VmSize`
/// also counts the 64 MiB of inaccessible address space glibc reserves
/// per malloc arena, up to 8 per core, as threads first overlap.)
fn vm_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .unwrap_or_else(|| panic!("{field} line"))
}

#[test]
fn rss_is_flat_between_request_500_and_3000() {
    const CONNS: usize = 2;
    const WARM_PER_CONN: usize = 250;
    const SOAK_PER_CONN: usize = 1250;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        grid: (4, 16, 16),
        conn_workers: CONNS,
        compute_threads: Some(1),
        ..ServeConfig::default()
    })
    .expect("start server");
    let addr = server.addr();
    let checkpoint = Arc::new(Barrier::new(CONNS + 1));
    let clients: Vec<_> = (0..CONNS)
        .map(|conn| {
            let checkpoint = Arc::clone(&checkpoint);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut serve = |count: usize, base: usize| {
                    for i in 0..count {
                        // A unique clip per request, as real traffic has.
                        let salt = (conn * 1_000_000 + base + i) as f32;
                        let clip = Tensor::from_fn(&[4, 16, 16], |k| {
                            ((k as f32) * 0.013 + salt * 0.37).sin() * 0.4 + 0.5
                        });
                        let out = client.infer(&clip).expect("infer");
                        assert_eq!(out.shape(), &[4, 16, 16]);
                    }
                };
                serve(WARM_PER_CONN, 0);
                checkpoint.wait(); // request 500 reached
                checkpoint.wait(); // baseline sampled
                serve(SOAK_PER_CONN, WARM_PER_CONN);
            })
        })
        .collect();
    checkpoint.wait();
    let at_500 = vm_kib("VmRSS:");
    checkpoint.wait();
    for c in clients {
        c.join().expect("client thread");
    }
    let at_3000 = vm_kib("VmRSS:");

    // Second phase, same server, after the first window has closed:
    // short-lived connections, one request each.
    const FRESH_CONNS: usize = 3000;
    let data_before = vm_kib("VmData:");
    for _ in 0..FRESH_CONNS {
        let mut client = Client::connect(addr).expect("connect");
        let r = client.request("GET", "/healthz", b"").expect("healthz");
        assert_eq!(r.status, 200);
    }
    let rss_grown_kib = vm_kib("VmRSS:").saturating_sub(at_3000);
    let data_grown_kib = vm_kib("VmData:").saturating_sub(data_before);
    server.shutdown();
    let grown_kib = at_3000.saturating_sub(at_500);
    assert!(
        grown_kib < 4 * 1024,
        "RSS grew {grown_kib} KiB over 2500 requests ({at_500} -> {at_3000} KiB)"
    );
    assert!(
        rss_grown_kib < 8 * 1024,
        "RSS grew {rss_grown_kib} KiB over {FRESH_CONNS} closed connections"
    );
    assert!(
        data_grown_kib < 256 * 1024,
        "writable address space grew {data_grown_kib} KiB over {FRESH_CONNS} closed connections"
    );
}
