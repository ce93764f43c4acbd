//! The execution context: every setting that decides *how* a kernel runs
//! (never *what* it computes), in one `Copy` struct.
//!
//! The process default is resolved **once** from the environment by
//! [`ExecCtx::from_lookup`], a pure parser that rejects invalid values
//! with a typed [`ConfigError`] (README "Execution context" lists the
//! variables and their accepted values). Binaries call [`init_or_exit`]
//! first thing in `main`; a library that reaches [`current`] first
//! resolves lazily and panics with the same line.
//!
//! [`current`] is the innermost [`with`] override on the calling thread,
//! else the process default. Overrides never leak: `with` restores the
//! previous context when its closure returns or unwinds, and another OS
//! thread never observes it. The two places that hand work to another
//! thread carry the context across explicitly — `run_parallel` installs
//! the submitter's context in its helpers for the duration of the loop,
//! and `peb_serve::Server::start` captures the caller's context for its
//! engine thread — so a scope governs everything computed on its behalf.

use std::cell::Cell;
use std::fmt;
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Dispatch level
// ---------------------------------------------------------------------------

/// Instruction-set level a kernel dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Portable scalar arithmetic (`PEB_SIMD=off`).
    Scalar,
    /// 8-lane AVX2 vectors with fused multiply–add.
    Avx2Fma,
}

impl Level {
    /// Stable name used in benchmark JSON and logs.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2Fma => "avx2+fma",
        }
    }
}

/// Whether this CPU supports the AVX2+FMA path (independent of
/// `PEB_SIMD`).
pub fn detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The best level this hardware supports.
pub fn best_level() -> Level {
    if detected() {
        Level::Avx2Fma
    } else {
        Level::Scalar
    }
}

// ---------------------------------------------------------------------------
// Configuration errors and the shared environment reader
// ---------------------------------------------------------------------------

/// A rejected environment variable: which one, what it held, and what it
/// may hold. Its `Display` is the one line binaries print before exiting
/// with status 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Variable name.
    pub var: &'static str,
    /// The offending value, verbatim.
    pub value: String,
    /// The accepted set, human-readable.
    pub expected: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid configuration: {}={:?} (expected {})",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for ConfigError {}

/// The process environment as a lookup closure (non-UTF-8 values read as
/// unset).
pub fn process_env(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The shared rejecting reader: `Ok(None)` when `var` is unset or empty,
/// `Ok(Some(v))` when `parse` accepts its value, otherwise a
/// [`ConfigError`] naming the variable, the value and `expected`.
pub fn read_var<T>(
    lookup: impl Fn(&str) -> Option<String>,
    var: &'static str,
    expected: &'static str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, ConfigError> {
    match lookup(var) {
        None => Ok(None),
        Some(v) if v.is_empty() => Ok(None),
        Some(v) => match parse(&v) {
            Some(t) => Ok(Some(t)),
            None => Err(ConfigError {
                var,
                value: v,
                expected,
            }),
        },
    }
}

/// [`read_var`] for `FromStr` values.
pub fn read_parsed<T: std::str::FromStr>(
    lookup: impl Fn(&str) -> Option<String>,
    var: &'static str,
    expected: &'static str,
) -> Result<Option<T>, ConfigError> {
    read_var(lookup, var, expected, |s| s.parse().ok())
}

/// Prints `err` and exits with status 2 — the process-edge policy for a
/// rejected configuration.
pub fn exit_invalid(err: &ConfigError) -> ! {
    eprintln!("{err}");
    std::process::exit(2)
}

// ---------------------------------------------------------------------------
// The context
// ---------------------------------------------------------------------------

/// How kernels execute on behalf of the current scope. Every field
/// combination produces the documented bits for its `level`;
/// `tile_bytes` and `threads` never change a bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecCtx {
    /// SIMD dispatch level.
    pub level: Level,
    /// Slab working-set target of the sliced passes (default 1 MiB);
    /// `usize::MAX` makes every volume one slab.
    pub tile_bytes: usize,
    /// Threads a parallel loop may use (1 = sequential on the caller).
    pub threads: usize,
}

/// Slab working-set target: 1 MiB, comfortably inside any modern
/// per-core L2/L3 share.
const DEFAULT_TILE_BYTES: usize = 1 << 20;

/// Variables that used to select modes which never diverged (fuse, pool,
/// tile), never won (reduced compute precision, plan replay) or only
/// counted accept loops (the servers' acceptor counts); setting one is an
/// error so a stale script cannot believe it changed anything.
const REMOVED: [&str; 8] = [
    "PEB_FUSE",
    "PEB_POOL",
    "PEB_TILE",
    "PEB_PREC",
    "PEB_SERVE_PREC",
    "PEB_PLAN",
    "PEB_SERVE_WORKERS",
    "PEB_FLEET_CONNS",
];

impl ExecCtx {
    /// Resolves a context from `lookup`. Pure: it reads nothing but
    /// `lookup` and CPU feature bits. A variable that is set but empty
    /// counts as unset.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<ExecCtx, ConfigError> {
        for var in REMOVED {
            read_var(
                &lookup,
                var,
                "the variable to be unset: it was removed (fusion, pooling and tiling are always \
                 on; compute is always f32; inference always runs eagerly; each server runs \
                 one accept thread)",
                |_| None::<()>,
            )?;
        }
        read_var(&lookup, "PEB_TRACE", "off|0|summary|json", |s| {
            matches!(s, "off" | "0" | "summary" | "json").then_some(())
        })?;
        let simd_values = "auto|avx2 (only on a CPU with AVX2+FMA)|off|0|scalar";
        let level = read_var(&lookup, "PEB_SIMD", simd_values, |s| match s {
            "auto" => Some(best_level()),
            "avx2" => detected().then_some(Level::Avx2Fma),
            "off" | "0" | "scalar" => Some(Level::Scalar),
            _ => None,
        })?;
        let threads = read_var(&lookup, "PEB_THREADS", "a positive integer", |s| {
            s.parse::<usize>().ok().filter(|&n| n > 0)
        })?;
        Ok(ExecCtx {
            level: level.unwrap_or_else(best_level),
            tile_bytes: DEFAULT_TILE_BYTES,
            threads: threads.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
        })
    }

    /// The context as one JSON object — the `"exec"` value in `/stats`
    /// and the start-up log line of the servers.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"level\":\"{}\",\"tile_bytes\":{},\"threads\":{}}}",
            self.level.name(),
            self.tile_bytes,
            self.threads
        )
    }
}

static PROCESS: OnceLock<ExecCtx> = OnceLock::new();

thread_local! {
    /// Innermost [`with`] override on this thread (or the submitter's
    /// context while a pool worker runs that submitter's chunks).
    static SCOPED: Cell<Option<ExecCtx>> = const { Cell::new(None) };
}

fn resolve(reject: fn(&ConfigError) -> !) -> ExecCtx {
    *PROCESS.get_or_init(|| ExecCtx::from_lookup(process_env).unwrap_or_else(|e| reject(&e)))
}

/// Resolves the process default from the environment, exiting with
/// status 2 and one line on stderr when a variable is rejected. Binaries
/// call this first thing in `main`; later calls return the same value.
pub fn init_or_exit() -> ExecCtx {
    resolve(exit_invalid)
}

/// The process default, resolved from the environment on first use.
///
/// # Panics
///
/// Panics with the [`ConfigError`] line when the environment is invalid
/// and [`init_or_exit`] did not run first.
pub fn process_default() -> ExecCtx {
    resolve(|e| panic!("{e}"))
}

/// The context governing work dispatched from this thread right now.
#[inline]
pub fn current() -> ExecCtx {
    match SCOPED.with(Cell::get) {
        Some(c) => c,
        None => process_default(),
    }
}

/// Installs `ctx` on this thread until the returned guard drops.
pub(crate) fn enter(ctx: ExecCtx) -> impl Drop {
    struct Restore(Option<ExecCtx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|s| s.set(self.0));
        }
    }
    Restore(SCOPED.with(|s| s.replace(Some(ctx))))
}

/// Runs `f` with `ctx` governing this thread, restoring the previous
/// context on return and on unwind. Overrides nest; the innermost wins.
///
/// # Panics
///
/// Panics when `ctx` asks for [`Level::Avx2Fma`] on a CPU without
/// AVX2+FMA (the vector kernels would be unsound), or for zero threads.
pub fn with<R>(ctx: ExecCtx, f: impl FnOnce() -> R) -> R {
    assert!(
        ctx.level != Level::Avx2Fma || detected(),
        "ExecCtx: AVX2+FMA requested but not supported by this CPU"
    );
    assert!(ctx.threads > 0, "ExecCtx: thread count must be positive");
    let _restore = enter(ctx);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table<'a>(rows: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            rows.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn unset_and_accepted_values_resolve() {
        let default = ExecCtx {
            level: best_level(),
            tile_bytes: DEFAULT_TILE_BYTES,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        assert_eq!(ExecCtx::from_lookup(table(&[])), Ok(default));
        // Set-but-empty counts as unset.
        let empty = [("PEB_SIMD", ""), ("PEB_THREADS", ""), ("PEB_FUSE", "")];
        assert_eq!(ExecCtx::from_lookup(table(&empty)), Ok(default));
        let rows = [
            ("PEB_SIMD", "off"),
            ("PEB_THREADS", "3"),
            ("PEB_TRACE", "summary"),
        ];
        let set = ExecCtx {
            level: Level::Scalar,
            threads: 3,
            ..default
        };
        assert_eq!(ExecCtx::from_lookup(table(&rows)), Ok(set));
        for (simd, level) in [("scalar", Level::Scalar), ("auto", best_level())] {
            let c = ExecCtx::from_lookup(table(&[("PEB_SIMD", simd)])).expect("valid");
            assert_eq!(c.level, level);
        }
    }

    #[test]
    fn invalid_values_name_variable_value_and_accepted_set() {
        for (var, value) in [
            ("PEB_THREADS", "0"),
            ("PEB_THREADS", "abc"),
            ("PEB_SIMD", "avx512"),
            ("PEB_PLAN", "maybe"),
            ("PEB_PLAN", "on"),
            ("PEB_PLAN", "off"),
            ("PEB_TRACE", "sumary"),
            ("PEB_FUSE", "off"),
            ("PEB_POOL", "on"),
            ("PEB_TILE", "auto"),
            ("PEB_PREC", "f32"),
            ("PEB_PREC", "bf16"),
            ("PEB_SERVE_PREC", "f32"),
            ("PEB_SERVE_PREC", "int8"),
            ("PEB_SERVE_WORKERS", "2"),
            ("PEB_FLEET_CONNS", "2"),
        ] {
            let err = ExecCtx::from_lookup(table(&[(var, value)])).expect_err(var);
            assert_eq!((err.var, err.value.as_str()), (var, value));
            let line = err.to_string();
            assert!(line.contains(var) && line.contains(value), "{line}");
            assert!(line.contains(err.expected), "{line}");
        }
    }

    #[test]
    fn avx2_request_is_an_error_exactly_when_the_cpu_lacks_it() {
        let got = ExecCtx::from_lookup(table(&[("PEB_SIMD", "avx2")]));
        if detected() {
            assert_eq!(got.expect("supported").level, Level::Avx2Fma);
        } else {
            assert_eq!(got.expect_err("unsupported").var, "PEB_SIMD");
        }
    }

    #[test]
    fn json_lists_every_field() {
        let c = ExecCtx {
            level: Level::Scalar,
            tile_bytes: 4096,
            threads: 4,
        };
        assert_eq!(
            c.to_json(),
            "{\"level\":\"scalar\",\"tile_bytes\":4096,\"threads\":4}"
        );
    }
}
