//! Property fuzz for the HTTP/1.1-subset parser: arbitrary byte
//! streams, arbitrary read-boundary splits, oversized heads/bodies,
//! pipelining, and single-byte mutations of valid traffic must all
//! yield either a parsed request or a typed [`HttpError`] — never a
//! panic, and never a wrong framing decision. The client's side of the
//! same framing must hold against a hostile peer too.

use std::io::{Read as _, Write as _};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use peb_serve::http::{HttpError, Method, Request, RequestParser, MAX_HEAD_BYTES};
use peb_serve::{Client, ClientError, ClientTimeouts};
use proptest::prelude::*;

/// Feeds `bytes` through a parser in chunk sizes drawn from `chunks`
/// (cycled), polling after every feed — the worst-case interleaving a
/// slow network can produce.
fn parse_stream(bytes: &[u8], chunks: &[u8], max_body: usize) -> Result<Vec<Request>, HttpError> {
    let mut p = RequestParser::with_max_body(max_body);
    let mut out = Vec::new();
    let mut i = 0;
    let mut k = 0;
    while i < bytes.len() {
        let step = (chunks.get(k % chunks.len().max(1)).copied().unwrap_or(7) as usize).max(1);
        k += 1;
        let end = (i + step).min(bytes.len());
        p.feed(&bytes[i..end]);
        i = end;
        loop {
            match p.poll() {
                Ok(Some(r)) => out.push(r),
                Ok(None) => break,
                Err(e) => return Err(e),
            }
        }
    }
    Ok(out)
}

/// Derives a deterministic list of valid requests from raw spec bytes.
fn build_requests(spec: &[u8]) -> Vec<(Method, String, Vec<u8>)> {
    const PATH_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-._~/";
    spec.chunks(8)
        .map(|c| {
            let method = if c[0] % 2 == 0 {
                Method::Get
            } else {
                Method::Post
            };
            let target: String = std::iter::once('/')
                .chain(
                    c.iter()
                        .skip(1)
                        .map(|&b| PATH_CHARS[b as usize % PATH_CHARS.len()] as char),
                )
                .collect();
            let body_len = if method == Method::Post {
                c.iter().map(|&b| b as usize).sum::<usize>() % 100
            } else {
                0
            };
            let body: Vec<u8> = (0..body_len).map(|i| (i as u8).wrapping_mul(31)).collect();
            (method, target, body)
        })
        .collect()
}

fn encode_requests(reqs: &[(Method, String, Vec<u8>)]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (method, target, body) in reqs {
        let m = match method {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Other(s) => s.as_str(),
        };
        wire.extend_from_slice(
            format!(
                "{m} {target} HTTP/1.1\r\nhost: fuzz\r\ncontent-length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        wire.extend_from_slice(body);
    }
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_and_errors_are_typed(
        bytes in prop::collection::vec(0u8..=255, 0..1024),
        chunks in prop::collection::vec(1u8..=64, 1..32),
    ) {
        match parse_stream(&bytes, &chunks, 4096) {
            Ok(reqs) => {
                for r in &reqs {
                    prop_assert!(!r.target.is_empty());
                }
            }
            Err(e) => {
                let s = e.status();
                prop_assert!((400..=599).contains(&s), "status {s} for {e}");
            }
        }
    }

    #[test]
    fn pipelined_valid_requests_survive_any_split(
        spec in prop::collection::vec(0u8..=255, 8..160),
        chunks in prop::collection::vec(1u8..=64, 1..32),
    ) {
        let reqs = build_requests(&spec);
        let wire = encode_requests(&reqs);
        let parsed = match parse_stream(&wire, &chunks, 4096) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError(format!("valid traffic rejected: {e}"))),
        };
        prop_assert_eq!(parsed.len(), reqs.len());
        for ((method, target, body), got) in reqs.iter().zip(&parsed) {
            prop_assert_eq!(&got.method, method);
            prop_assert_eq!(&got.target, target);
            prop_assert_eq!(&got.body, body);
            prop_assert!(got.keep_alive);
        }
    }

    #[test]
    fn single_byte_mutations_never_panic(
        idx in 0usize..4096,
        val in 0u8..=255,
        chunks in prop::collection::vec(1u8..=16, 1..8),
    ) {
        let reqs = build_requests(&[3, 200, 41, 7, 99, 250, 12, 77, 8, 1, 2, 3, 4, 5, 6, 7]);
        let mut wire = encode_requests(&reqs);
        let i = idx % wire.len();
        wire[i] = val;
        match parse_stream(&wire, &chunks, 4096) {
            Ok(_) => {}
            Err(e) => prop_assert!((400..=599).contains(&e.status())),
        }
    }

    #[test]
    fn oversized_heads_are_431(
        pad in MAX_HEAD_BYTES..MAX_HEAD_BYTES * 2,
        chunks in prop::collection::vec(1u8..=64, 1..8),
    ) {
        let mut wire = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        wire.extend(std::iter::repeat_n(b'a', pad));
        // No terminator: the head just keeps growing past the cap.
        let err = match parse_stream(&wire, &chunks, 4096) {
            Err(e) => e,
            Ok(r) => return Err(TestCaseError(format!("accepted oversized head: {r:?}"))),
        };
        prop_assert_eq!(err.status(), 431);
    }

    #[test]
    fn declared_bodies_over_cap_are_413(
        max_body in 1usize..4096,
        over in 1usize..4096,
    ) {
        let wire = format!(
            "POST /infer HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            max_body + over
        );
        let err = match parse_stream(wire.as_bytes(), &[64], max_body) {
            Err(e) => e,
            Ok(r) => return Err(TestCaseError(format!("accepted oversized body: {r:?}"))),
        };
        prop_assert_eq!(err.status(), 413);
        prop_assert!(matches!(err, HttpError::BodyTooLarge { .. }));
    }
}

/// A response whose framing a [`Client`] cannot honour — a
/// `content-length` that overflows the body's end offset, or a head that
/// never terminates — is a typed `BadResponse`, reported within the read
/// timeout: never a panic on the calling thread, never an unbounded
/// buffer.
#[test]
fn client_rejects_hostile_response_framing() {
    let overflow = b"HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\n".to_vec();
    let mut endless = b"HTTP/1.1 200 OK\r\nx-pad: ".to_vec();
    endless.resize(20 * 1024, b'a');
    assert!(endless.len() > MAX_HEAD_BYTES);
    for (case, reply) in [
        ("overflowing content-length", overflow),
        ("unterminated head", endless),
    ] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // One-shot peer: read the request head, send `reply`, then hold
        // the connection open until the client hangs up.
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut head = Vec::new();
            let mut byte = [0u8];
            while !head.ends_with(b"\r\n\r\n") && conn.read(&mut byte).expect("read") == 1 {
                head.push(byte[0]);
            }
            conn.write_all(&reply).expect("reply");
            let _ = conn.read(&mut byte);
        });
        let timeout = Duration::from_secs(5);
        let mut client =
            Client::connect_with(addr, ClientTimeouts::uniform(timeout)).expect("connect");
        let started = Instant::now();
        let got = client.request("GET", "/healthz", b"");
        assert!(
            started.elapsed() < timeout,
            "{case}: waited out the read timeout"
        );
        assert!(
            matches!(got, Err(ClientError::BadResponse(_))),
            "{case}: {got:?}"
        );
        drop(client);
        peer.join().expect("peer thread");
    }
}
