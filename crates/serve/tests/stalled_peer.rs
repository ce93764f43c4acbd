//! A peer that stalls must not hold a connection thread.
//!
//! A connection thread blocks in `write_all` once the peer's receive
//! window and the server's send buffer are both full, and
//! `Server::shutdown` joins every connection thread. Without a write
//! timeout on accepted streams that join never returned: one peer that
//! pipelined requests and never read a response kept shutdown (and a
//! `peb_worker` whose supervisor had gone) waiting forever. A peer that
//! trickles a request head or body and never finishes it held its
//! thread the same way until requests got a deadline.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

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

#[test]
fn a_peer_that_trickles_a_head_is_dropped() {
    // One byte per 200 ms of a head that never ends: well under the head
    // size cap for as long as the bound lasts.
    let head = b"GET /healthz HTTP/1.1\r\nx-slow: "
        .iter()
        .copied()
        .chain(std::iter::repeat(b'a'));
    trickle_is_answered_408(b"", head, "head");
}

#[test]
fn a_peer_that_trickles_a_body_is_dropped() {
    // A complete head at once, then one body byte per 200 ms: the body
    // is declared far longer than the bound lets it grow.
    trickle_is_answered_408(
        b"POST /infer HTTP/1.1\r\ncontent-length: 1000\r\n\r\n",
        std::iter::repeat(b'a'),
        "body",
    );
}

/// Sends `prefix`, then `bytes` one every 200 ms, and asserts the server
/// answers 408 (or drops the peer) well within 15 s.
fn trickle_is_answered_408(prefix: &[u8], bytes: impl Iterator<Item = u8>, what: &str) {
    const BOUND: Duration = Duration::from_secs(15);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        grid: (4, 16, 16),
        ..ServeConfig::default()
    })
    .expect("start");
    let mut peer = TcpStream::connect(server.addr()).expect("connect");
    peer.set_read_timeout(Some(Duration::from_millis(200)))
        .expect("read timeout");
    peer.write_all(prefix).expect("prefix");
    let started = Instant::now();
    let mut answer = Vec::new();
    let mut dropped = false;
    for byte in bytes {
        if started.elapsed() > BOUND {
            break;
        }
        if peer.write_all(&[byte]).is_err() {
            dropped = true;
            break;
        }
        let mut buf = [0u8; 512];
        match peer.read(&mut buf) {
            Ok(0) => {
                dropped = true;
                break;
            }
            Ok(n) => answer.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                dropped = true;
                break;
            }
        }
    }
    let waited = started.elapsed();
    server.shutdown();
    assert!(
        dropped || !answer.is_empty(),
        "the server still held a trickled {what} {waited:?} after its first byte"
    );
    let answer = String::from_utf8_lossy(&answer);
    assert!(
        answer.is_empty() || answer.starts_with("HTTP/1.1 408 "),
        "{answer}"
    );
}
