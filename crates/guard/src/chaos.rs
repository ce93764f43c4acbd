//! Deterministic fault injection (`PEB_CHAOS`).
//!
//! The harness arms at most **one** fault per process, either from the
//! `PEB_CHAOS` environment variable (latched on first probe, exactly like
//! `PEB_TRACE`/`PEB_SIMD`) or programmatically via [`arm`] in tests. A
//! value that does not parse is rejected, never ignored: the first probe
//! panics with the one-line `invalid configuration: PEB_CHAOS=…` error. Every
//! fault is *one-shot*: the first site that matches consumes it, so an
//! injected NaN spike diverges one epoch, the rollback retries, and the
//! retry runs clean — which is precisely the recovery path under test.
//!
//! | `PEB_CHAOS` | fault |
//! |-------------|-------|
//! | `nan-spike[:EPOCH]` | poison the model parameters right after the first optimiser step of `EPOCH` (default 1), as an undetected numeric blow-up |
//! | `truncate-ckpt[:BYTES]` | after the next checkpoint write, truncate the file by `BYTES` (default 16) bytes |
//! | `bitflip-ckpt[:BYTE]` | after the next checkpoint write, flip one bit at offset `BYTE` (default the payload midpoint) |
//! | `kill[:EPOCH]` | abort the run with [`PebError::Injected`] right after the checkpoint of `EPOCH` (default 1) is written — the resume test then continues from disk |
//! | `truncate-data[:BYTES]` | after the next dataset write, truncate the file by `BYTES` (default 64) bytes |
//! | `disconnect` | drop the next `peb-serve` client connection mid-response (abrupt socket close after the headers, before the body) |
//! | `kill-worker[:N]` | abort the process (`SIGABRT`-style, no cleanup) at the start of the `N`th inference batch after arming (default 0 = the next one) — a serving worker dying mid-batch |
//! | `hang-worker[:N]` | wedge the serving process at the `N`th request after arming: every connection thread stops reading and writing, simulating a live-but-unresponsive worker (liveness probes time out, the process does not exit) |
//! | `corrupt-resp[:N]` | flip one payload byte of the `N`th inference response frame after arming, exercising the `PEBRESP2` CRC reject path in routers and clients |
//!
//! The three `*-worker`/`corrupt-resp` faults carry a *countdown*
//! rather than an epoch: each matching probe decrements it and the
//! fault fires when it reaches zero, so a chaos schedule can plant
//! "fail on the 50th request" into a worker's environment and drive a
//! deterministic failure mid-load.
//!
//! The checkpoint faults double as *hot-swap* faults: `peb-serve` probes
//! [`mangle_checkpoint`] on the file it is about to load, so an armed
//! `truncate-ckpt`/`bitflip-ckpt` corrupts the incoming model exactly
//! once and the registry's reject-and-keep-serving path is exercised.
//!
//! Production builds never consult this module unless `PEB_CHAOS` is set;
//! the disarmed fast path is one mutex-free atomic load.

use std::fs::OpenOptions;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// An armed fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Chaos {
    /// Poison parameters after the first optimiser step of `epoch`.
    NanSpike {
        /// 0-based epoch to poison.
        epoch: u64,
    },
    /// Truncate the next written checkpoint file by `bytes`.
    TruncateCkpt {
        /// Bytes to cut from the tail.
        bytes: u64,
    },
    /// Flip one bit of the next written checkpoint file.
    BitflipCkpt {
        /// Byte offset to flip (`None` → payload midpoint).
        byte: Option<u64>,
    },
    /// Return [`crate::PebError::Injected`] after the checkpoint of
    /// `epoch` is written.
    Kill {
        /// 0-based epoch after whose checkpoint the run dies.
        epoch: u64,
    },
    /// Truncate the next written dataset file by `bytes`.
    TruncateData {
        /// Bytes to cut from the tail.
        bytes: u64,
    },
    /// Drop the next served client connection mid-response.
    Disconnect,
    /// Abort the process at the start of an inference batch (the
    /// countdown is decremented once per batch, firing at zero).
    KillWorker {
        /// Matching probes remaining before the fault fires.
        after: u64,
    },
    /// Wedge the serving process: stop reading and writing on every
    /// connection without exiting (countdown per request).
    HangWorker {
        /// Matching probes remaining before the fault fires.
        after: u64,
    },
    /// Flip one payload byte of an inference response frame so its
    /// CRC-32 footer no longer verifies (countdown per response).
    CorruptResp {
        /// Matching probes remaining before the fault fires.
        after: u64,
    },
}

/// Fast disarm flag: `false` ⇒ nothing armed, probes return immediately.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Whether `PEB_CHAOS` has been latched; until then probes must take the
/// slow path so an env-armed fault can set [`ARMED`].
static INIT: AtomicBool = AtomicBool::new(false);
/// Lazily initialised armed fault (None after consumption/disarm).
static STATE: Mutex<ChaosState> = Mutex::new(ChaosState::Uninit);

/// Cheap probe gate: after the env latch has run, a plain atomic load;
/// before it, fall through to [`state`] so the latch happens.
fn probe() -> bool {
    if !INIT.load(Ordering::Acquire) {
        drop(state());
    }
    ARMED.load(Ordering::Relaxed)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ChaosState {
    /// `PEB_CHAOS` not read yet.
    Uninit,
    /// A fault is armed and unconsumed.
    Armed(Chaos),
    /// Nothing armed (unset/consumed/cleared).
    Disarmed,
}

/// The accepted `PEB_CHAOS` specs, as a rejected value's error names them.
const SPECS: &str = "nan-spike[:EPOCH]|truncate-ckpt[:BYTES]|bitflip-ckpt[:BYTE]|\
                     kill-resume[:EPOCH]|truncate-data[:BYTES]|disconnect|kill-worker[:N]|\
                     hang-worker[:N]|corrupt-resp[:N]";

/// Resolves `PEB_CHAOS` from `lookup`: `None` when unset or empty, else
/// the fault it names or the error a misspelt scenario must raise.
fn from_lookup(
    lookup: impl Fn(&str) -> Option<String>,
) -> Result<Option<Chaos>, peb_par::ctx::ConfigError> {
    peb_par::ctx::read_var(lookup, "PEB_CHAOS", SPECS, parse)
}

/// Latches `PEB_CHAOS` on first use, panicking with its one-line
/// `ConfigError` as `peb_par::ctx::process_default` does.
fn state() -> std::sync::MutexGuard<'static, ChaosState> {
    let mut s = STATE.lock().unwrap_or_else(|e| e.into_inner());
    if *s == ChaosState::Uninit {
        *s = match from_lookup(peb_par::ctx::process_env).unwrap_or_else(|e| panic!("{e}")) {
            Some(c) => {
                ARMED.store(true, Ordering::Relaxed);
                ChaosState::Armed(c)
            }
            None => ChaosState::Disarmed,
        };
        INIT.store(true, Ordering::Release);
    }
    s
}

/// Parses a `PEB_CHAOS` spec; `None` for an unknown scenario, an
/// argument that is not an unsigned integer, or a second argument.
pub fn parse(spec: &str) -> Option<Chaos> {
    let mut parts = spec.split(':');
    let head = parts.next()?;
    let arg = match parts.next() {
        Some(v) => Some(v.parse::<u64>().ok()?),
        None => None,
    };
    if parts.next().is_some() {
        return None;
    }
    match head {
        "nan-spike" => Some(Chaos::NanSpike {
            epoch: arg.unwrap_or(1),
        }),
        "truncate-ckpt" => Some(Chaos::TruncateCkpt {
            bytes: arg.unwrap_or(16),
        }),
        "bitflip-ckpt" => Some(Chaos::BitflipCkpt { byte: arg }),
        // The CI matrix name for the kill/resume scenario.
        "kill" | "kill-resume" => Some(Chaos::Kill {
            epoch: arg.unwrap_or(1),
        }),
        "truncate-data" => Some(Chaos::TruncateData {
            bytes: arg.unwrap_or(64),
        }),
        "disconnect" => Some(Chaos::Disconnect),
        "kill-worker" => Some(Chaos::KillWorker {
            after: arg.unwrap_or(0),
        }),
        "hang-worker" => Some(Chaos::HangWorker {
            after: arg.unwrap_or(0),
        }),
        "corrupt-resp" => Some(Chaos::CorruptResp {
            after: arg.unwrap_or(0),
        }),
        _ => None,
    }
}

/// Arms a fault programmatically (tests), replacing any armed one.
pub fn arm(c: Chaos) {
    *state() = ChaosState::Armed(c);
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms without firing.
pub fn disarm() {
    *state() = ChaosState::Disarmed;
    ARMED.store(false, Ordering::Relaxed);
}

/// The currently armed fault, if any (not consumed by peeking).
pub fn armed() -> Option<Chaos> {
    if !probe() {
        return None;
    }
    match &*state() {
        ChaosState::Armed(c) => Some(c.clone()),
        _ => None,
    }
}

/// Consumes the armed fault when `matches` approves it.
fn take_if(matches: impl FnOnce(&Chaos) -> bool) -> Option<Chaos> {
    if !probe() {
        return None;
    }
    let mut s = state();
    if let ChaosState::Armed(c) = &*s {
        if matches(c) {
            let taken = c.clone();
            *s = ChaosState::Disarmed;
            ARMED.store(false, Ordering::Relaxed);
            return Some(taken);
        }
    }
    None
}

/// True exactly once when a NaN spike is armed for `epoch` — the trainer
/// responds by poisoning the freshly-updated parameters.
pub fn take_nan_spike(epoch: u64) -> bool {
    take_if(|c| matches!(c, Chaos::NanSpike { epoch: e } if *e == epoch)).is_some()
}

/// True exactly once when a kill is armed for `epoch` (checked after the
/// epoch's checkpoint lands on disk).
pub fn take_kill(epoch: u64) -> bool {
    take_if(|c| matches!(c, Chaos::Kill { epoch: e } if *e == epoch)).is_some()
}

/// True exactly once when a client-disconnect fault is armed — the
/// server responds by closing the socket mid-response.
pub fn take_disconnect() -> bool {
    take_if(|c| matches!(c, Chaos::Disconnect)).is_some()
}

/// Decrements the countdown a matching armed fault carries; fires
/// (consuming the fault) when the countdown is already zero. Each call
/// is one "matching probe" in the `PEB_CHAOS` table: `fault:3` survives
/// three probes and fires on the fourth.
fn fire_after(select: impl Fn(&mut Chaos) -> Option<&mut u64>) -> bool {
    if !probe() {
        return false;
    }
    let mut s = state();
    if let ChaosState::Armed(c) = &mut *s {
        if let Some(after) = select(c) {
            if *after == 0 {
                *s = ChaosState::Disarmed;
                ARMED.store(false, Ordering::Relaxed);
                return true;
            }
            *after -= 1;
        }
    }
    false
}

/// True exactly once when a worker-kill fault reaches its countdown —
/// probed by `peb-serve` at the start of every inference batch; the
/// worker responds by aborting the whole process.
pub fn take_kill_worker() -> bool {
    fire_after(|c| match c {
        Chaos::KillWorker { after } => Some(after),
        _ => None,
    })
}

/// True exactly once when a worker-hang fault reaches its countdown —
/// probed by `peb-serve` per request; the worker responds by wedging
/// every connection thread (alive but unresponsive).
pub fn take_hang_worker() -> bool {
    fire_after(|c| match c {
        Chaos::HangWorker { after } => Some(after),
        _ => None,
    })
}

/// True exactly once when a corrupt-response fault reaches its
/// countdown — probed by `peb-serve` per inference response; the
/// worker responds by flipping a payload byte after the CRC footer was
/// computed.
pub fn take_corrupt_resp() -> bool {
    fire_after(|c| match c {
        Chaos::CorruptResp { after } => Some(after),
        _ => None,
    })
}

/// Applies any armed checkpoint-file corruption to `path` (called after
/// a checkpoint write, and by `peb-serve` *before* a hot-swap load).
/// Returns `true` when the file was mangled.
pub fn mangle_checkpoint(path: &Path) -> bool {
    match take_if(|c| matches!(c, Chaos::TruncateCkpt { .. } | Chaos::BitflipCkpt { .. })) {
        Some(Chaos::TruncateCkpt { bytes }) => truncate_tail(path, bytes),
        Some(Chaos::BitflipCkpt { byte }) => flip_bit(path, byte),
        _ => false,
    }
}

/// Applies any armed dataset-file corruption to `path` (called after a
/// dataset write). Returns `true` when the file was mangled.
pub fn mangle_dataset(path: &Path) -> bool {
    match take_if(|c| matches!(c, Chaos::TruncateData { .. })) {
        Some(Chaos::TruncateData { bytes }) => truncate_tail(path, bytes),
        _ => false,
    }
}

fn truncate_tail(path: &Path, bytes: u64) -> bool {
    let Ok(meta) = std::fs::metadata(path) else {
        return false;
    };
    let new_len = meta.len().saturating_sub(bytes.max(1));
    let Ok(f) = OpenOptions::new().write(true).open(path) else {
        return false;
    };
    let ok = f.set_len(new_len).is_ok();
    if ok {
        eprintln!(
            "[peb-chaos] truncated {} by {} bytes (now {new_len})",
            path.display(),
            meta.len() - new_len
        );
    }
    ok
}

fn flip_bit(path: &Path, byte: Option<u64>) -> bool {
    let Ok(mut f) = OpenOptions::new().read(true).write(true).open(path) else {
        return false;
    };
    let Ok(len) = f.seek(SeekFrom::End(0)) else {
        return false;
    };
    if len == 0 {
        return false;
    }
    let offset = byte.unwrap_or(len / 2).min(len - 1);
    let mut b = [0u8];
    if f.seek(SeekFrom::Start(offset)).is_err() || f.read_exact(&mut b).is_err() {
        return false;
    }
    b[0] ^= 0x20;
    let ok = f.seek(SeekFrom::Start(offset)).is_ok() && f.write_all(&b).is_ok();
    if ok {
        eprintln!(
            "[peb-chaos] flipped bit 5 of byte {offset} in {}",
            path.display()
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    // The armed fault is process-global; serialise the tests.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_specs() {
        assert_eq!(parse("nan-spike"), Some(Chaos::NanSpike { epoch: 1 }));
        assert_eq!(parse("nan-spike:3"), Some(Chaos::NanSpike { epoch: 3 }));
        assert_eq!(
            parse("truncate-ckpt:9"),
            Some(Chaos::TruncateCkpt { bytes: 9 })
        );
        assert_eq!(
            parse("bitflip-ckpt"),
            Some(Chaos::BitflipCkpt { byte: None })
        );
        assert_eq!(parse("kill-resume:2"), Some(Chaos::Kill { epoch: 2 }));
        assert_eq!(parse("kill"), Some(Chaos::Kill { epoch: 1 }));
        assert_eq!(
            parse("truncate-data"),
            Some(Chaos::TruncateData { bytes: 64 })
        );
        assert_eq!(parse("disconnect"), Some(Chaos::Disconnect));
        assert_eq!(parse("kill-worker"), Some(Chaos::KillWorker { after: 0 }));
        assert_eq!(parse("hang-worker:7"), Some(Chaos::HangWorker { after: 7 }));
        assert_eq!(
            parse("corrupt-resp:50"),
            Some(Chaos::CorruptResp { after: 50 })
        );
        assert_eq!(parse("meteor-strike"), None);
        assert_eq!(parse("nan-spike:x"), None);
        assert_eq!(parse("kill:1:2"), None);
    }

    #[test]
    fn env_spec_is_rejected_unless_it_parses() {
        let table = |v: &'static str| move |name: &str| (name == "PEB_CHAOS").then(|| v.into());
        assert_eq!(from_lookup(|_| None), Ok(None));
        // Set-but-empty counts as unset.
        assert_eq!(from_lookup(table("")), Ok(None));
        assert_eq!(
            from_lookup(table("truncate-data")),
            Ok(Some(Chaos::TruncateData { bytes: 64 }))
        );
        for typo in [
            "nan-spik",
            "truncate-data:",
            "kill-resume:one",
            "Disconnect",
        ] {
            let err = from_lookup(table(typo)).expect_err(typo);
            assert_eq!((err.var, err.value.as_str()), ("PEB_CHAOS", typo));
            assert!(err.to_string().contains("truncate-data[:BYTES]"), "{err}");
        }
    }

    #[test]
    fn countdown_faults_fire_at_zero_and_only_once() {
        let _l = lock();
        arm(Chaos::CorruptResp { after: 2 });
        assert!(!take_corrupt_resp(), "countdown 2 → no fire");
        assert!(!take_kill_worker(), "non-matching probe must not count");
        assert!(!take_corrupt_resp(), "countdown 1 → no fire");
        assert!(take_corrupt_resp(), "countdown 0 → fire");
        assert!(!take_corrupt_resp(), "already consumed");
        assert_eq!(armed(), None);
        arm(Chaos::KillWorker { after: 0 });
        assert!(take_kill_worker(), "default countdown fires immediately");
        arm(Chaos::HangWorker { after: 1 });
        assert!(!take_hang_worker());
        assert!(take_hang_worker());
        disarm();
    }

    #[test]
    fn faults_are_one_shot() {
        let _l = lock();
        arm(Chaos::NanSpike { epoch: 2 });
        assert!(!take_nan_spike(1), "wrong epoch must not consume");
        assert!(take_nan_spike(2));
        assert!(!take_nan_spike(2), "already consumed");
        assert_eq!(armed(), None);
        disarm();
    }

    #[test]
    fn mangle_truncates_files() {
        let _l = lock();
        let path = std::env::temp_dir().join(format!("peb_chaos_trunc_{}", std::process::id()));
        std::fs::write(&path, vec![0xABu8; 100]).expect("write");
        arm(Chaos::TruncateCkpt { bytes: 30 });
        assert!(mangle_checkpoint(&path));
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), 70);
        // Consumed: a second write stays intact.
        assert!(!mangle_checkpoint(&path));
        std::fs::remove_file(&path).ok();
        disarm();
    }

    #[test]
    fn mangle_flips_exactly_one_bit() {
        let _l = lock();
        let path = std::env::temp_dir().join(format!("peb_chaos_flip_{}", std::process::id()));
        let original = vec![0u8; 64];
        std::fs::write(&path, &original).expect("write");
        arm(Chaos::BitflipCkpt { byte: Some(10) });
        assert!(mangle_checkpoint(&path));
        let mangled = std::fs::read(&path).expect("read");
        let diff: u32 = original
            .iter()
            .zip(&mangled)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
        std::fs::remove_file(&path).ok();
        disarm();
    }
}
