//! Zero-dependency observability layer for the SDM-PEB workspace.
//!
//! Every hot path in the workspace (GEMM, convolution lowering, selective
//! scan, FFT lines, ADI sweeps, the train loop) is instrumented with two
//! primitives from this crate:
//!
//! * [`span`] — an RAII scope guard that records hierarchical wall-time
//!   statistics (count / total / min / max) keyed by the `/`-joined path
//!   of enclosing spans on the current thread, merged across threads;
//! * [`count`] — monotonically-aggregated global counters ([`Counter`])
//!   for derived work metrics such as GEMM flops or FFT lines.
//!
//! Collection is gated on the `PEB_TRACE` environment variable, latched
//! on first use:
//!
//! | `PEB_TRACE` | behaviour |
//! |-------------|-----------|
//! | unset / `off` / `0` | disabled: every probe is one relaxed atomic load + a predictable branch |
//! | `summary`   | collect; print a human-readable table to stderr at process exit |
//! | `json`      | collect; write a JSON profile (with a chrome://tracing-compatible `traceEvents` stream) to `PEB_TRACE_OUT` (default `peb_trace.json`) at exit |
//!
//! Any other value is rejected: binaries exit 2 from
//! `peb_par::ctx::init_or_exit`, which validates the same set, and a
//! library's first probe panics.
//!
//! Tests and binaries can bypass the environment with [`set_mode`], read
//! the aggregate state with [`snapshot`], clear it with [`reset`], and
//! emit reports eagerly with [`write_json`] / [`render_summary`].
//!
//! The crate deliberately has no dependencies (not even the vendored
//! ones) so every other crate in the workspace can instrument itself
//! without cycles; see DESIGN.md §6 for the contract.

pub mod optrace;

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// Collection mode, latched from `PEB_TRACE` on first probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceMode {
    /// No collection; probes cost one relaxed load + branch.
    Off = 0,
    /// Collect spans/counters; print a table to stderr at exit.
    Summary = 1,
    /// Collect; additionally buffer trace events and write a JSON
    /// profile to `PEB_TRACE_OUT` at exit.
    Json = 2,
}

const MODE_UNINIT: u8 = u8::MAX;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

/// Set once an eager [`write_json`] has run, so the exit hook does not
/// overwrite the profile a binary already emitted.
static FLUSHED: AtomicBool = AtomicBool::new(false);

/// Upper bound on buffered trace events (JSON mode). Overflow is counted
/// in [`Profile::dropped_events`] rather than silently discarded.
const MAX_EVENTS: usize = 262_144;

/// Current trace mode, reading `PEB_TRACE` on first call.
#[inline]
pub fn mode() -> TraceMode {
    match MODE.load(Ordering::Relaxed) {
        0 => TraceMode::Off,
        1 => TraceMode::Summary,
        2 => TraceMode::Json,
        _ => init_mode(),
    }
}

/// Whether any collection is active.
#[inline]
pub fn enabled() -> bool {
    mode() != TraceMode::Off
}

#[cold]
fn init_mode() -> TraceMode {
    let m = match std::env::var("PEB_TRACE").as_deref() {
        Err(_) | Ok("" | "off" | "0") => TraceMode::Off,
        Ok("summary") => TraceMode::Summary,
        Ok("json") => TraceMode::Json,
        Ok(v) => panic!("invalid configuration: PEB_TRACE={v:?} (expected off|0|summary|json)"),
    };
    set_mode(m);
    m
}

/// Overrides the trace mode, bypassing `PEB_TRACE`. Used by tests and by
/// binaries that always want a profile.
pub fn set_mode(m: TraceMode) {
    if m != TraceMode::Off {
        // Anchor the event clock and make sure a report happens even if
        // the process exits without an eager flush.
        epoch();
        register_exit_hook();
    }
    MODE.store(m as u8, Ordering::Relaxed);
}

/// Start of the event clock (first enablement).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn register_exit_hook() {
    static REGISTERED: Once = Once::new();
    REGISTERED.call_once(|| {
        extern "C" fn peb_obs_exit_hook() {
            emit_at_exit();
        }
        extern "C" {
            fn atexit(cb: extern "C" fn()) -> i32;
        }
        // SAFETY: `atexit` is in libc (always linked by std on this
        // platform); the handler only touches `'static` state.
        unsafe {
            atexit(peb_obs_exit_hook);
        }
    });
}

/// The profile path `PEB_TRACE_OUT` names in `lookup`; `None` when it is
/// unset or empty, so the caller's default applies.
pub fn trace_out(lookup: impl Fn(&str) -> Option<String>) -> Option<String> {
    lookup("PEB_TRACE_OUT").filter(|p| !p.is_empty())
}

fn emit_at_exit() {
    match mode() {
        TraceMode::Off => {}
        TraceMode::Summary => {
            let _ = std::io::stderr().write_all(render_summary().as_bytes());
        }
        TraceMode::Json => {
            if !FLUSHED.load(Ordering::Relaxed) {
                let path = trace_out(|v| std::env::var(v).ok())
                    .unwrap_or_else(|| "peb_trace.json".to_string());
                match write_json(&path) {
                    Ok(()) => eprintln!("peb-obs: profile written to {path}"),
                    Err(e) => eprintln!("peb-obs: failed to write {path}: {e}"),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Monotonic global work counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Floating-point operations performed by dense GEMM/bmm (2·m·k·n).
    GemmFlops = 0,
    /// Bytes materialised by im2col/col2im lowering in the conv layers.
    Im2colBytes = 1,
    /// 1-D FFT lines executed (N-D transforms count one per line).
    FftLines = 2,
    /// Tridiagonal systems solved by the ADI diffusion sweeps.
    AdiLines = 3,
    /// Channel lanes processed by the selective scan (fwd + bwd).
    ScanLanes = 4,
    /// Gauss–Seidel sweep passes performed by the eikonal solver.
    EikonalSweeps = 5,
    /// Fresh heap allocations of tensor/scratch storage. With the
    /// `peb-pool` buffer pool active this counts only pool *misses*
    /// (checkouts that had to allocate); with the pool disabled it counts
    /// every `Tensor` constructor, matching the pre-pool semantics.
    TensorAllocs = 6,
    /// Optimiser steps applied.
    OptimSteps = 7,
    /// Buffer-pool checkouts served from a recycled buffer.
    PoolHits = 8,
    /// Buffer-pool checkouts that had to allocate fresh storage.
    PoolMisses = 9,
    /// FFT transforms served from a cached plan (twiddle tables,
    /// bit-reversal permutation, Bluestein chirp/filter spectra).
    FftPlanHits = 10,
    /// Kernel invocations that dispatched to the SIMD (AVX2+FMA) path in
    /// `peb-simd`; stays 0 under `PEB_SIMD=off` or on unsupported CPUs.
    SimdDispatch = 11,
    /// Micro-batches dropped by the trainer's non-finite loss guard.
    GuardSkippedBatches = 12,
    /// Divergence rollbacks performed by the trainer (restore last good
    /// weights + optimiser state).
    GuardRollbacks = 13,
    /// Epoch retries performed after a rollback (with LR backoff).
    GuardRetries = 14,
    /// Training checkpoints atomically written by `peb-guard`.
    GuardCheckpoints = 15,
    /// Elementwise stages collapsed into fused single-sweep loops by the
    /// `peb-tensor` fused-chain builder. A k-stage `eval()` ticks this by
    /// k while performing a single pool checkout instead of k.
    FusedOps = 16,
    /// Cache-sized depth slabs streamed by the tape-free decoder (0 when
    /// the volume is one slab).
    SlabPasses = 17,
    /// Inference requests accepted by `peb-serve` (shed requests are
    /// counted under [`Counter::ServeShed`] instead).
    ServeRequests = 18,
    /// Dynamic batches executed by the `peb-serve` inference engine (one
    /// tick per `predict_batch` invocation, regardless of batch size).
    ServeBatches = 19,
    /// Requests rejected by `peb-serve` load shedding (bounded queue
    /// full → 429 response).
    ServeShed = 20,
    /// Successful checkpoint hot-swaps performed by the `peb-serve`
    /// model registry (failed swaps keep the old model and do not tick).
    ServeHotswaps = 21,
    /// Inference requests served from a cached execution plan by the
    /// `peb-serve` plan cache (misses record a fresh plan and are not
    /// counted here).
    PlanHits = 22,
    /// Computations executed through `Plan::replay` that completed
    /// without diverging from the recorded checkout stream.
    PlanReplays = 23,
    /// Bytes materialised into record-and-replay arenas (aggregated
    /// across plans; the per-plan high-water mark lives in the plan).
    ArenaBytes = 24,
    /// Inference requests accepted by the `peb-fleet` router (sheds and
    /// upstream failures are still counted here; they are terminal
    /// router responses).
    FleetRequests = 25,
    /// Upstream attempts the router retried after a worker failure
    /// (connect refused/reset, response timeout, CRC-bad frame, 429).
    FleetRetries = 26,
    /// Requests ultimately served by a shard other than their hash-ring
    /// owner (degraded ring or mid-request failover).
    FleetFailovers = 27,
    /// Worker processes restarted by the fleet supervisor after a
    /// crash or a liveness-probe failure streak.
    FleetRestarts = 28,
    /// Requests shed by the router or the worker coalescer because the
    /// propagated deadline would have expired before service (504).
    FleetDeadlineShed = 29,
}

const N_COUNTERS: usize = 30;

const COUNTER_NAMES: [&str; N_COUNTERS] = [
    "gemm_flops",
    "im2col_bytes",
    "fft_lines",
    "adi_tridiag_solves",
    "scan_lanes",
    "eikonal_sweeps",
    "tensor_allocs",
    "optimizer_steps",
    "pool_hits",
    "pool_misses",
    "fft_plan_hits",
    "simd_dispatch",
    "guard_skipped_batches",
    "guard_rollbacks",
    "guard_retries",
    "guard_checkpoints",
    "fused_ops",
    "slab_passes",
    "serve_requests",
    "serve_batches",
    "serve_shed",
    "serve_hotswaps",
    "plan_hits",
    "plan_replays",
    "arena_bytes",
    "fleet_requests",
    "fleet_retries",
    "fleet_failovers",
    "fleet_restarts",
    "fleet_deadline_shed",
];

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_U64: AtomicU64 = AtomicU64::new(0);
static COUNTERS: [AtomicU64; N_COUNTERS] = [ZERO_U64; N_COUNTERS];

/// Adds `n` to a global counter when tracing is enabled; no-op otherwise.
#[inline]
pub fn count(c: Counter, n: u64) {
    if enabled() {
        COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Current value of a counter (0 while tracing is disabled).
pub fn counter_value(c: Counter) -> u64 {
    COUNTERS[c as usize].load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Aggregated wall-time statistics for one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total wall time in nanoseconds.
    pub total_ns: u64,
    /// Shortest single span in nanoseconds.
    pub min_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    fn absorb(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }
}

/// One completed chrome://tracing event ("X" phase).
#[derive(Debug, Clone)]
struct TraceEvent {
    path: String,
    start_us: u64,
    dur_us: u64,
    tid: u64,
}

#[derive(Default)]
struct Aggregates {
    spans: HashMap<String, SpanStat>,
    events: Vec<TraceEvent>,
    dropped_events: u64,
}

fn aggregates() -> &'static Mutex<Aggregates> {
    static AGG: OnceLock<Mutex<Aggregates>> = OnceLock::new();
    AGG.get_or_init(|| Mutex::new(Aggregates::default()))
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// RAII guard returned by [`span`]; records the span on drop.
#[must_use = "a span measures the scope it is alive in"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a named span on the current thread. Nested spans build a
/// `/`-joined hierarchical path (`train.fit/train.epoch/gemm.matmul`).
/// Disabled tracing returns an inert guard.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { name, start: None };
    }
    open_span(name)
}

#[cold]
fn open_span(name: &'static str) -> SpanGuard {
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        name,
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos().min(u64::MAX as u128) as u64;
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            debug_assert_eq!(stack.last().copied(), Some(self.name), "span nesting");
            let path = stack.join("/");
            stack.pop();
            path
        });
        let mut agg = aggregates().lock().expect("peb-obs aggregate lock");
        agg.spans
            .entry(path.clone())
            .or_insert(SpanStat {
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            })
            .absorb(ns);
        if mode() == TraceMode::Json {
            if agg.events.len() < MAX_EVENTS {
                let e = epoch();
                let start_us = start.duration_since(e).as_micros().min(u64::MAX as u128) as u64;
                let tid = THREAD_ID.with(|t| *t);
                agg.events.push(TraceEvent {
                    path,
                    start_us,
                    dur_us: ns / 1_000,
                    tid,
                });
            } else {
                agg.dropped_events += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots and reports
// ---------------------------------------------------------------------------

/// A named counter value in a [`Profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Stable counter name (e.g. `gemm_flops`).
    pub name: &'static str,
    /// Aggregated value.
    pub value: u64,
}

/// A span path with its aggregated statistics in a [`Profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// `/`-joined hierarchical path.
    pub path: String,
    /// Aggregated statistics.
    pub stat: SpanStat,
}

/// A point-in-time copy of all aggregated observability state.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// All counters, in declaration order.
    pub counters: Vec<CounterSnapshot>,
    /// All span paths, sorted lexicographically.
    pub spans: Vec<SpanSnapshot>,
    /// Events discarded after the buffer cap (JSON mode only).
    pub dropped_events: u64,
}

impl Profile {
    /// Value of a counter by stable name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Total span count over every path containing `needle` (substring
    /// match on the hierarchical path).
    pub fn span_count(&self, needle: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.path.contains(needle))
            .map(|s| s.stat.count)
            .sum()
    }
}

/// Copies the current aggregate state.
pub fn snapshot() -> Profile {
    let agg = aggregates().lock().expect("peb-obs aggregate lock");
    let mut spans: Vec<SpanSnapshot> = agg
        .spans
        .iter()
        .map(|(path, stat)| SpanSnapshot {
            path: path.clone(),
            stat: *stat,
        })
        .collect();
    spans.sort_by(|a, b| a.path.cmp(&b.path));
    Profile {
        counters: COUNTER_NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| CounterSnapshot {
                name,
                value: COUNTERS[i].load(Ordering::Relaxed),
            })
            .collect(),
        spans,
        dropped_events: agg.dropped_events,
    }
}

/// Clears all counters, span statistics and buffered events. The mode is
/// left untouched.
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    let mut agg = aggregates().lock().expect("peb-obs aggregate lock");
    agg.spans.clear();
    agg.events.clear();
    agg.dropped_events = 0;
    FLUSHED.store(false, Ordering::Relaxed);
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the human-readable summary table (what `PEB_TRACE=summary`
/// prints to stderr at exit).
pub fn render_summary() -> String {
    let p = snapshot();
    let mut out = String::new();
    let _ = writeln!(out, "== peb-obs profile ==");
    let _ = writeln!(out, "counters:");
    for c in &p.counters {
        if c.value > 0 {
            let _ = writeln!(out, "  {:<20} {}", c.name, c.value);
        }
    }
    let mut spans = p.spans.clone();
    spans.sort_by_key(|s| std::cmp::Reverse(s.stat.total_ns));
    let _ = writeln!(out, "spans (total · count · mean · min · max):");
    for s in &spans {
        let mean = s.stat.total_ns / s.stat.count.max(1);
        let _ = writeln!(
            out,
            "  {:<44} {:>9} · {:>7} · {:>9} · {:>9} · {:>9}",
            s.path,
            fmt_ns(s.stat.total_ns),
            s.stat.count,
            fmt_ns(mean),
            fmt_ns(s.stat.min_ns),
            fmt_ns(s.stat.max_ns),
        );
    }
    if p.dropped_events > 0 {
        let _ = writeln!(out, "(dropped {} trace events past cap)", p.dropped_events);
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialises the profile as a single JSON object. The top-level
/// `traceEvents` array makes the file directly loadable in
/// chrome://tracing / Perfetto (extra keys are ignored by both).
pub fn to_json() -> String {
    let p = snapshot();
    let agg = aggregates().lock().expect("peb-obs aggregate lock");
    let mut out = String::new();
    out.push_str("{\n  \"counters\": {");
    for (i, c) in p.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", c.name, c.value);
    }
    out.push_str("\n  },\n  \"spans\": [");
    for (i, s) in p.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"path\": \"{}\", \"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
            json_escape(&s.path),
            s.stat.count,
            s.stat.total_ns,
            s.stat.min_ns,
            s.stat.max_ns
        );
    }
    let _ = write!(
        out,
        "\n  ],\n  \"droppedEvents\": {},\n  \"traceEvents\": [",
        agg.dropped_events
    );
    for (i, e) in agg.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = e.path.rsplit('/').next().unwrap_or(&e.path);
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"cat\": \"peb\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{\"path\": \"{}\"}}}}",
            json_escape(name),
            e.start_us,
            e.dur_us,
            e.tid,
            json_escape(&e.path)
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes [`to_json`] to `path` and marks the profile as flushed so the
/// exit hook does not overwrite it.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json(path: &str) -> std::io::Result<()> {
    let json = to_json();
    std::fs::write(path, json)?;
    FLUSHED.store(true, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mode/counter state is process-global; serialise the tests.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn an_empty_trace_out_counts_as_unset() {
        for (value, want) in [
            (None, None),
            (Some(""), None),
            (Some("t.json"), Some("t.json")),
        ] {
            let got = trace_out(|name| {
                assert_eq!(name, "PEB_TRACE_OUT");
                value.map(str::to_string)
            });
            assert_eq!(got.as_deref(), want, "{value:?}");
        }
    }

    #[test]
    fn disabled_probes_collect_nothing() {
        let _g = lock();
        set_mode(TraceMode::Off);
        reset();
        {
            let _s = span("noop.outer");
            count(Counter::GemmFlops, 42);
        }
        let p = snapshot();
        assert_eq!(p.counter("gemm_flops"), 0);
        assert_eq!(p.span_count("noop"), 0);
    }

    #[test]
    fn spans_nest_into_hierarchical_paths() {
        let _g = lock();
        set_mode(TraceMode::Summary);
        reset();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
        }
        let p = snapshot();
        assert_eq!(p.span_count("outer/inner"), 2);
        assert_eq!(p.span_count("outer"), 3, "parent also counts");
        let inner = p.spans.iter().find(|s| s.path == "outer/inner").unwrap();
        assert!(inner.stat.min_ns <= inner.stat.max_ns);
        assert!(inner.stat.total_ns >= inner.stat.min_ns + inner.stat.max_ns - 1);
        set_mode(TraceMode::Off);
        reset();
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let _g = lock();
        set_mode(TraceMode::Summary);
        reset();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        count(Counter::FftLines, 1);
                    }
                    let _s = span("worker");
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let p = snapshot();
        assert_eq!(p.counter("fft_lines"), 400);
        assert_eq!(p.span_count("worker"), 4);
        set_mode(TraceMode::Off);
        reset();
    }

    #[test]
    fn json_report_contains_spans_counters_and_events() {
        let _g = lock();
        set_mode(TraceMode::Json);
        reset();
        {
            let _s = span("json.demo");
            count(Counter::AdiLines, 7);
        }
        let j = to_json();
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"json.demo\""));
        assert!(j.contains("\"adi_tridiag_solves\": 7"));
        assert!(j.contains("\"ph\": \"X\""));
        set_mode(TraceMode::Off);
        reset();
    }

    #[test]
    fn summary_renders_nonempty_table() {
        let _g = lock();
        set_mode(TraceMode::Summary);
        reset();
        {
            let _s = span("summary.demo");
            count(Counter::ScanLanes, 3);
        }
        let text = render_summary();
        assert!(text.contains("summary.demo"));
        assert!(text.contains("scan_lanes"));
        set_mode(TraceMode::Off);
        reset();
    }
}
