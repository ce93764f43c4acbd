//! Standalone serving binary: `PEB_SERVE_* peb_serve`.
//!
//! Binds the configured address, prints it, and serves until killed.

use peb_serve::{ServeConfig, Server};

fn main() {
    peb_par::ctx::init_or_exit();
    let config = ServeConfig::from_env().unwrap_or_else(|e| peb_par::ctx::exit_invalid(&e));
    let server = match Server::start(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("peb-serve: failed to start on {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    println!(
        "peb-serve listening on {} (grid {}x{}x{}, max_batch {}, max_wait {}us, queue {})",
        server.addr(),
        config.grid.0,
        config.grid.1,
        config.grid.2,
        config.max_batch,
        config.max_wait_us,
        config.queue_cap,
    );
    println!("peb-serve exec {}", server.handle().stats().exec.to_json());
    // Serve forever; the process is stopped externally (CI kills it
    // after the smoke window).
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
