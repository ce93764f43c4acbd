//! Worker process lifecycle: spawn, ready handshake, health probing,
//! crash/hang detection, restart with checkpoint reload, graceful
//! drain.
//!
//! Each shard is one `peb_worker` child process (the serve binary
//! wrapped with a stdin-lifetime): the worker binds port 0, prints
//! `PEB_WORKER_READY <addr>` on stdout, serves until its stdin reaches
//! EOF, then drains gracefully. That gives the supervisor three
//! portable control channels with no signal handling:
//!
//! - **ready**: the stdout handshake line (parsed with a timeout);
//! - **graceful stop**: drop the stdin pipe and wait `drain_timeout`;
//! - **hard stop**: `Child::kill` when the drain budget runs out or the
//!   worker is wedged.
//!
//! Detection is two-pronged: `try_wait` catches *crashes* (the
//! `kill-worker` chaos abort) on the next tick, and `/healthz` probes
//! with a hard timeout catch *hangs* (the `hang-worker` wedge, which
//! leaves the process alive but unresponsive). Either path restarts the
//! worker and replays the fleet's current checkpoint into it, so a
//! restarted shard serves the same model version as its peers.

use std::io::{BufRead as _, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use peb_serve::{Client, ClientTimeouts};

use crate::config::FleetConfig;

/// How long a freshly-spawned worker gets to print its ready line.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Lifecycle state of one shard's worker process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardState {
    /// Spawned, ready handshake not yet seen.
    Starting = 0,
    /// Healthy and routable.
    Up = 1,
    /// Graceful drain in progress: no new routes, in-flight finishing.
    Draining = 2,
    /// Crashed, hung, or not yet respawned: skipped by the router (the
    /// ring shrinks around it).
    Down = 3,
}

impl ShardState {
    fn from_u8(v: u8) -> ShardState {
        match v {
            0 => ShardState::Starting,
            1 => ShardState::Up,
            2 => ShardState::Draining,
            _ => ShardState::Down,
        }
    }

    /// Stable lowercase name (`/stats` JSON).
    pub fn name(&self) -> &'static str {
        match self {
            ShardState::Starting => "starting",
            ShardState::Up => "up",
            ShardState::Draining => "draining",
            ShardState::Down => "down",
        }
    }
}

/// The router-visible half of one shard: state, address, counters.
#[derive(Debug)]
pub struct ShardSlot {
    state: AtomicU8,
    addr: Mutex<Option<SocketAddr>>,
    restarts: AtomicU64,
    /// Longest single outage (µs): from the supervisor declaring the
    /// shard down to its replacement going routable. Sampling can't
    /// measure this reliably on a loaded single-core box, so the
    /// restart path clocks itself.
    longest_outage_us: AtomicU64,
    /// Router hint: a request just failed against this shard; probe it
    /// ahead of the regular cadence.
    suspect: AtomicBool,
}

impl ShardSlot {
    fn new() -> Self {
        ShardSlot {
            state: AtomicU8::new(ShardState::Down as u8),
            addr: Mutex::new(None),
            restarts: AtomicU64::new(0),
            longest_outage_us: AtomicU64::new(0),
            suspect: AtomicBool::new(false),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ShardState {
        ShardState::from_u8(self.state.load(Ordering::Acquire))
    }

    fn set_state(&self, s: ShardState) {
        self.state.store(s as u8, Ordering::Release);
    }

    /// The worker's bound address, when one is live.
    pub fn addr(&self) -> Option<SocketAddr> {
        *self.addr.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set_addr(&self, a: Option<SocketAddr>) {
        *self.addr.lock().unwrap_or_else(|e| e.into_inner()) = a;
    }

    /// Times this shard's worker has been restarted.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Longest down-to-routable stretch this shard has seen.
    pub fn longest_outage(&self) -> Duration {
        Duration::from_micros(self.longest_outage_us.load(Ordering::Relaxed))
    }

    fn record_outage(&self, d: Duration) {
        self.longest_outage_us
            .fetch_max(d.as_micros() as u64, Ordering::Relaxed);
    }

    /// Flags this shard for an out-of-cadence health probe (the router
    /// calls this when an upstream attempt fails).
    pub fn mark_suspect(&self) {
        self.suspect.store(true, Ordering::Release);
    }

    fn take_suspect(&self) -> bool {
        self.suspect.swap(false, Ordering::AcqRel)
    }

    /// Whether the router may send new work here.
    pub fn routable(&self) -> bool {
        self.state() == ShardState::Up
    }
}

/// The shared shard table (router + supervisor + `/stats`).
#[derive(Debug)]
pub struct Shards {
    slots: Vec<ShardSlot>,
}

impl Shards {
    fn new(n: usize) -> Self {
        Shards {
            slots: (0..n).map(|_| ShardSlot::new()).collect(),
        }
    }

    /// All slots, indexed by shard id.
    pub fn slots(&self) -> &[ShardSlot] {
        &self.slots
    }

    /// Shards currently routable.
    pub fn up_count(&self) -> usize {
        self.slots.iter().filter(|s| s.routable()).count()
    }

    /// Total restarts across the fleet.
    pub fn total_restarts(&self) -> u64 {
        self.slots.iter().map(|s| s.restarts()).sum()
    }

    /// The fleet's worst single shard outage (time-to-recovery).
    pub fn worst_outage(&self) -> Duration {
        self.slots
            .iter()
            .map(|s| s.longest_outage())
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

/// One live worker process.
struct WorkerProc {
    child: Child,
    /// Held open while the worker serves; dropping it is the graceful
    /// stop signal (the worker drains and exits on stdin EOF).
    stdin: Option<ChildStdin>,
    stdout_reader: Option<JoinHandle<()>>,
}

impl WorkerProc {
    /// Spawns a worker and waits for its ready handshake.
    fn spawn(
        config: &FleetConfig,
        shard: usize,
        chaos: Option<&str>,
    ) -> std::io::Result<(WorkerProc, SocketAddr)> {
        let bin = config.worker_bin();
        let mut cmd = Command::new(&bin);
        cmd.env("PEB_SERVE_ADDR", "127.0.0.1:0")
            // Chaos must be opt-in per worker: the parent may itself run
            // under PEB_CHAOS (bench schedules, CI), and a blanket
            // inherit would arm every worker — and every *restart* —
            // with the same fault.
            .env_remove("PEB_CHAOS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in &config.worker_env {
            cmd.env(k, v);
        }
        if let Some(spec) = chaos {
            cmd.env("PEB_CHAOS", spec);
        }
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "worker stdout not piped")
        })?;
        // The reader thread owns stdout for the worker's whole life:
        // it forwards the ready line, then drains (so a chatty worker
        // can never block on a full pipe).
        let (tx, rx) = mpsc::channel::<SocketAddr>();
        let reader = std::thread::Builder::new()
            .name(format!("peb-fleet-wout-{shard}"))
            .spawn(move || {
                let mut lines = BufReader::new(stdout).lines();
                for line in &mut lines {
                    let Ok(line) = line else { return };
                    if let Some(rest) = line.strip_prefix("PEB_WORKER_READY ") {
                        if let Ok(addr) = rest.trim().parse() {
                            let _ = tx.send(addr);
                        }
                        break;
                    }
                }
                for line in lines {
                    if line.is_err() {
                        return;
                    }
                }
            })?;
        let addr = match rx.recv_timeout(READY_TIMEOUT) {
            Ok(a) => a,
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("worker {shard} ({}) never reported ready", bin.display()),
                ));
            }
        };
        Ok((
            WorkerProc {
                child,
                stdin,
                stdout_reader: Some(reader),
            },
            addr,
        ))
    }

    /// Whether the process has exited (crash detection).
    fn exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }

    /// Hard kill, reaping the zombie and the reader thread.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.stdout_reader.take() {
            let _ = r.join();
        }
    }

    /// Graceful stop: close stdin, wait up to `budget`, escalate to a
    /// kill if the worker does not exit in time.
    fn drain(mut self, budget: Duration) {
        drop(self.stdin.take());
        let deadline = Instant::now() + budget;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(r) = self.stdout_reader.take() {
            let _ = r.join();
        }
    }
}

/// The supervisor: owns every worker process and the probe thread.
pub struct Supervisor {
    shards: Arc<Shards>,
    ckpt: Arc<Mutex<Option<String>>>,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<Vec<Option<WorkerProc>>>>,
}

impl Supervisor {
    /// Spawns `config.workers` worker processes, waits for every ready
    /// handshake, and starts the probe/restart thread.
    ///
    /// # Errors
    ///
    /// Fails if any initial worker cannot spawn or never reports ready
    /// (already-spawned workers are killed on the way out).
    pub fn start(config: &FleetConfig) -> std::io::Result<Supervisor> {
        let shards = Arc::new(Shards::new(config.workers));
        let mut procs: Vec<Option<WorkerProc>> = Vec::with_capacity(config.workers);
        for shard in 0..config.workers {
            let chaos = config
                .worker_chaos
                .iter()
                .find(|(s, _)| *s == shard)
                .map(|(_, spec)| spec.as_str());
            shards.slots()[shard].set_state(ShardState::Starting);
            match WorkerProc::spawn(config, shard, chaos) {
                Ok((proc_, addr)) => {
                    shards.slots()[shard].set_addr(Some(addr));
                    shards.slots()[shard].set_state(ShardState::Up);
                    procs.push(Some(proc_));
                }
                Err(e) => {
                    for p in procs.into_iter().flatten() {
                        p.kill();
                    }
                    return Err(e);
                }
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let ckpt: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let join = {
            let shards = Arc::clone(&shards);
            let stop = Arc::clone(&stop);
            let ckpt = Arc::clone(&ckpt);
            let config = config.clone();
            std::thread::Builder::new()
                .name("peb-fleet-supervisor".to_string())
                .spawn(move || supervise(&config, &shards, &ckpt, &stop, procs))?
        };
        Ok(Supervisor {
            shards,
            ckpt,
            stop,
            join: Some(join),
        })
    }

    /// The shared shard table.
    pub fn shards(&self) -> &Arc<Shards> {
        &self.shards
    }

    /// The shared checkpoint record: the router writes the committed
    /// `/swap` path here; `restart` replays it into fresh workers.
    pub fn checkpoint_cell(&self) -> Arc<Mutex<Option<String>>> {
        Arc::clone(&self.ckpt)
    }

    /// Graceful fleet stop: mark every shard draining (the router stops
    /// routing), close each worker's stdin, wait out the drain budget,
    /// kill stragglers.
    pub fn shutdown(mut self, drain_timeout: Duration) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.join.take() {
            if let Ok(procs) = j.join() {
                for (shard, p) in procs.into_iter().enumerate() {
                    if let Some(p) = p {
                        self.shards.slots()[shard].set_state(ShardState::Draining);
                        p.drain(drain_timeout);
                    }
                    self.shards.slots()[shard].set_state(ShardState::Down);
                    self.shards.slots()[shard].set_addr(None);
                }
            }
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.join.take() {
            if let Ok(procs) = j.join() {
                for p in procs.into_iter().flatten() {
                    p.kill();
                }
            }
        }
    }
}

/// The probe/restart loop. Returns the final process table to the
/// shutdown path so it can drain gracefully.
fn supervise(
    config: &FleetConfig,
    shards: &Arc<Shards>,
    ckpt: &Arc<Mutex<Option<String>>>,
    stop: &AtomicBool,
    mut procs: Vec<Option<WorkerProc>>,
) -> Vec<Option<WorkerProc>> {
    let mut fails: Vec<u32> = vec![0; procs.len()];
    let mut last_probe = Instant::now() - config.probe_interval;
    while !stop.load(Ordering::Acquire) {
        // Crash detection is cheap (non-blocking waitpid) — every tick.
        for shard in 0..procs.len() {
            let crashed = match &mut procs[shard] {
                Some(p) => p.exited(),
                None => true,
            };
            if crashed && !stop.load(Ordering::Acquire) {
                restart(config, shards, ckpt, &mut procs, &mut fails, shard);
            }
        }
        // Health probes on the configured cadence, plus immediately for
        // any shard the router just flagged as suspect.
        let due = last_probe.elapsed() >= config.probe_interval;
        if due {
            last_probe = Instant::now();
        }
        for shard in 0..procs.len() {
            let slot = &shards.slots()[shard];
            let suspect = slot.take_suspect();
            if !(due || suspect) || slot.state() != ShardState::Up {
                continue;
            }
            if probe_ok(slot, config.probe_timeout) {
                fails[shard] = 0;
            } else {
                fails[shard] += 1;
                if fails[shard] >= config.probe_fails {
                    restart(config, shards, ckpt, &mut procs, &mut fails, shard);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    procs
}

/// One `/healthz` round-trip under the probe budget.
fn probe_ok(slot: &ShardSlot, timeout: Duration) -> bool {
    let Some(addr) = slot.addr() else {
        return false;
    };
    let Ok(mut c) = Client::connect_with(addr, ClientTimeouts::uniform(timeout)) else {
        return false;
    };
    matches!(c.request("GET", "/healthz", b""), Ok(r) if r.status == 200)
}

/// Kills (if needed) and respawns one shard's worker, replaying the
/// fleet's current checkpoint into the fresh process.
fn restart(
    config: &FleetConfig,
    shards: &Arc<Shards>,
    ckpt: &Arc<Mutex<Option<String>>>,
    procs: &mut [Option<WorkerProc>],
    fails: &mut [u32],
    shard: usize,
) {
    let slot = &shards.slots()[shard];
    let down_at = Instant::now();
    slot.set_state(ShardState::Down);
    slot.set_addr(None);
    if let Some(p) = procs[shard].take() {
        p.kill();
    }
    fails[shard] = 0;
    // Restarts come up chaos-free: a fault spec describes one planned
    // failure, not a permanently poisoned shard.
    match WorkerProc::spawn(config, shard, None) {
        Ok((p, addr)) => {
            // Replay the current checkpoint before the shard goes
            // routable, so it never serves the stale base model.
            let current = ckpt.lock().unwrap_or_else(|e| e.into_inner()).clone();
            if let Some(path) = current {
                let swapped = Client::connect_with(addr, ClientTimeouts::default())
                    .and_then(|mut c| c.swap(&path));
                if let Err(e) = swapped {
                    eprintln!("peb-fleet: shard {shard} checkpoint reload failed: {e}");
                }
            }
            procs[shard] = Some(p);
            slot.set_addr(Some(addr));
            slot.set_state(ShardState::Up);
            slot.record_outage(down_at.elapsed());
            slot.restarts.fetch_add(1, Ordering::Relaxed);
            peb_obs::count(peb_obs::Counter::FleetRestarts, 1);
        }
        Err(e) => {
            // Stay Down; the next tick retries the spawn.
            eprintln!("peb-fleet: shard {shard} respawn failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_state_roundtrips_and_names() {
        for s in [
            ShardState::Starting,
            ShardState::Up,
            ShardState::Draining,
            ShardState::Down,
        ] {
            assert_eq!(ShardState::from_u8(s as u8), s);
        }
        assert_eq!(ShardState::Up.name(), "up");
        assert_eq!(ShardState::Down.name(), "down");
    }

    #[test]
    fn slot_suspect_is_one_shot_and_routable_tracks_state() {
        let slot = ShardSlot::new();
        assert!(!slot.routable());
        slot.set_state(ShardState::Up);
        assert!(slot.routable());
        assert!(!slot.take_suspect());
        slot.mark_suspect();
        assert!(slot.take_suspect());
        assert!(!slot.take_suspect());
        slot.set_state(ShardState::Draining);
        assert!(!slot.routable());
    }
}
