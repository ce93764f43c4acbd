//! Standalone fleet binary: `PEB_FLEET_* peb_fleet`.
//!
//! Spawns `PEB_FLEET_WORKERS` `peb_worker` child processes, binds the
//! router address, prints the topology, and serves until killed.

use peb_fleet::{Fleet, FleetConfig};

fn main() {
    // The router runs no kernels; resolving here rejects a bad variable
    // (its own, or a worker's `PEB_SERVE_*`) before any worker is
    // spawned to reject it again.
    peb_par::ctx::init_or_exit();
    let config = FleetConfig::from_env().unwrap_or_else(|e| peb_par::ctx::exit_invalid(&e));
    if let Err(e) = peb_serve::ServeConfig::from_env() {
        peb_par::ctx::exit_invalid(&e);
    }
    let fleet = match Fleet::start(config.clone()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("peb-fleet: failed to start on {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    println!(
        "peb-fleet routing on {} across {} workers (deadline {}us, {} attempts, probe {}ms)",
        fleet.addr(),
        config.workers,
        config.deadline_us,
        config.attempt_limit(),
        config.probe_interval.as_millis(),
    );
    for (shard, slot) in fleet.shards().slots().iter().enumerate() {
        match slot.addr() {
            Some(a) => println!("  shard {shard}: {a}"),
            None => println!("  shard {shard}: down"),
        }
    }
    // Serve forever; the process is stopped externally.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
