//! A peer that stops reading must not wedge the server.
//!
//! A connection thread blocks in `write_all` once the peer's receive
//! window and the server's send buffer are both full, and
//! `Server::shutdown` joins every connection thread. Without a write
//! timeout on accepted streams that join never returned: one peer that
//! pipelined requests and never read a response kept shutdown (and a
//! `peb_worker` whose supervisor had gone) waiting forever.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

use peb_serve::{ServeConfig, Server};

#[test]
fn a_peer_that_never_reads_cannot_wedge_shutdown() {
    const SHUTDOWN_BOUND: Duration = Duration::from_secs(20);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        grid: (4, 16, 16),
        ..ServeConfig::default()
    })
    .expect("start");
    let mut peer = TcpStream::connect(server.addr()).expect("connect");
    peer.set_write_timeout(Some(Duration::from_secs(1)))
        .expect("write timeout");
    // Pipeline until the peer's own write stalls: the server has stopped
    // reading because it is blocked writing responses nobody takes.
    let burst = b"GET /stats HTTP/1.1\r\nhost: x\r\n\r\n".repeat(256);
    let stalled = (0..1_000_000).any(|_| peer.write_all(&burst).is_err());
    assert!(
        stalled,
        "the server read every request without its writes ever blocking"
    );
    let (done_tx, done_rx) = mpsc::channel();
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    let returned = done_rx.recv_timeout(SHUTDOWN_BOUND).is_ok();
    drop(peer);
    assert!(
        returned,
        "Server::shutdown had not returned {SHUTDOWN_BOUND:?} after a peer stopped reading"
    );
    shutdown.join().expect("shutdown thread");
}
