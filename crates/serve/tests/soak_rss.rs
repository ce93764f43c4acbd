//! Serving must not grow with requests served.
//!
//! Tensors cross threads on every request — the connection thread parses
//! a clip the engine drops, the engine allocates a response the
//! connection thread drops, the client decodes a reply it drops. The
//! pool's retention rule (a bucket keeps no more buffers than its thread
//! has had misses in it) is what keeps those hand-offs from piling up in
//! the dropping thread's buckets; before it, resident memory grew by
//! about 12 KiB per request. This soak pins the flat line.
#![cfg(target_os = "linux")]

use std::sync::{Arc, Barrier};

use peb_serve::{Client, ServeConfig, Server};
use peb_tensor::Tensor;

fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("VmRSS line")
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
    let at_500 = vm_rss_kib();
    checkpoint.wait();
    for c in clients {
        c.join().expect("client thread");
    }
    let at_3000 = vm_rss_kib();
    server.shutdown();
    let grown_kib = at_3000.saturating_sub(at_500);
    assert!(
        grown_kib < 4 * 1024,
        "RSS grew {grown_kib} KiB over 2500 requests ({at_500} -> {at_3000} KiB)"
    );
}
