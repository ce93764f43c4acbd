//! One fleet worker: a `peb-serve` server whose lifetime is its stdin.
//!
//! The supervisor spawns this binary with `PEB_SERVE_ADDR=127.0.0.1:0`
//! and a piped stdin/stdout. The worker binds, prints
//! `PEB_WORKER_READY <addr>` (the supervisor's ready handshake), then
//! blocks reading stdin. EOF on stdin — the supervisor dropping its
//! pipe end, or the parent dying — triggers a graceful
//! [`Server::shutdown`] (in-flight requests finish, the queue drains).
//! A hard stop is simply `kill(2)`; the protocol is stateless and
//! inference idempotent, so nothing needs cleanup.
//!
//! All serving knobs arrive as inherited `PEB_SERVE_*` environment
//! (see `peb_serve::ServeConfig`); chaos faults as `PEB_CHAOS`.

use std::io::{Read as _, Write as _};

use peb_serve::{ServeConfig, Server};

fn main() {
    peb_par::ctx::init_or_exit();
    let config = ServeConfig::from_env().unwrap_or_else(|e| peb_par::ctx::exit_invalid(&e));
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("peb_worker: failed to start: {e}");
            std::process::exit(1);
        }
    };
    // stderr: stdout carries only the supervisor's ready handshake.
    eprintln!("peb_worker exec {}", server.handle().stats().exec.to_json());
    println!("PEB_WORKER_READY {}", server.addr());
    let _ = std::io::stdout().flush();
    // Serve until the supervisor closes our stdin.
    let mut buf = [0u8; 256];
    let mut stdin = std::io::stdin();
    loop {
        match stdin.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    server.shutdown();
}
