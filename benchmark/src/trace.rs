//! The benchmark's own spans, recorded around calls into each layer's
//! public API (no product file is edited; spans inside the product are
//! a later change).
//!
//! Spans stay in memory and are written at exit as chrome-trace JSON
//! plus a self-time table. A span's *self time* is its duration minus
//! the part of that interval its direct children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::{obj, Json};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// 0 = root.
    pub parent: u64,
    /// The workload op (request, step, clip) this span belongs to.
    pub op: u64,
    pub tid: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Turns span recording on or off. Off (the default, and the state of
/// every end-to-end run) makes [`span`] one relaxed load.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open span; records itself when dropped.
pub struct SpanGuard(Option<(&'static str, u64, u64, u64, u64)>);

/// Opens a span named `name` for workload op `op`, child of whatever
/// span is open on this thread.
pub fn span(name: &'static str, op: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start_ns = epoch().elapsed().as_nanos() as u64;
    SpanGuard(Some((name, start_ns, id, parent, op)))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((name, start_ns, id, parent, op)) = self.0.take() else {
            return;
        };
        let end_ns = epoch().elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&open| open == id) {
                s.truncate(pos);
            }
        });
        let tid = TID.with(|t| *t);
        // A poisoned lock means a recording thread panicked; the run is
        // already failing, so dropping this span is the right outcome.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(Span {
                name,
                start_ns,
                end_ns,
                id,
                parent,
                op,
                tid,
            });
        }
    }
}

/// Runs `f` inside a span and returns its result.
pub fn in_span<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    let _g = span(name, op);
    f()
}

/// Takes every span recorded so far, in completion order.
pub fn drain() -> Vec<Span> {
    SPANS
        .lock()
        .map(|mut s| std::mem::take(&mut *s))
        .unwrap_or_default()
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals (clipped to the parent, so a child that outlives
/// its parent on another thread cannot drive self time negative).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(cursor, s.end_ns);
                    let b = b.clamp(cursor, s.end_ns);
                    covered += b - a;
                    cursor = cursor.max(b);
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStat> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += selfs[&s.id];
    }
    out
}

/// Mean duration in milliseconds of the spans named `name` (0 if none).
pub fn mean_ms(stats: &BTreeMap<&'static str, NameStat>, name: &str) -> f64 {
    stats
        .get(name)
        .filter(|s| s.count > 0)
        .map_or(0.0, |s| s.total_ns as f64 / s.count as f64 / 1e6)
}

pub fn render_table(stats: &BTreeMap<&'static str, NameStat>) -> String {
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms", "mean_ms"
    );
    for (name, s) in stats {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>12.4}\n",
            name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.total_ns as f64 / s.count.max(1) as f64 / 1e6,
        ));
    }
    out
}

/// Chrome-trace ("Trace Event Format") document: one complete (`X`)
/// event per span, loadable in `chrome://tracing` and Perfetto.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            obj([
                ("name", Json::Str(s.name.to_string())),
                ("ph", Json::Str("X".into())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.tid as f64)),
                (
                    "args",
                    obj([
                        ("id", Json::Num(s.id as f64)),
                        ("parent", Json::Num(s.parent as f64)),
                        ("op", Json::Num(s.op as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: if parent == 0 { "root" } else { "child" },
            start_ns,
            end_ns,
            id,
            parent,
            op: 0,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children() {
        // root 0..100 with children 10..30 and 50..90 → self 40.
        let spans = [sp(1, 0, 0, 100), sp(2, 1, 10, 30), sp(3, 1, 50, 90)];
        let t = self_times(&spans);
        assert_eq!(t[&1], 40);
        assert_eq!(t[&2], 20);
        assert_eq!(t[&3], 40);
    }

    #[test]
    fn self_time_is_per_level_for_nested_children() {
        // root 0..100 ⊃ mid 20..80 ⊃ leaf 30..50: the grandchild is
        // charged to mid, not to root.
        let spans = [sp(1, 0, 0, 100), sp(2, 1, 20, 80), sp(3, 2, 30, 50)];
        let t = self_times(&spans);
        assert_eq!(t[&1], 40);
        assert_eq!(t[&2], 40);
        assert_eq!(t[&3], 20);
        assert_eq!(t.values().sum::<u64>(), 100, "self times sum to the root");
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        // Children 10..60 and 40..120 under root 0..100 cover 10..100.
        let spans = [sp(1, 0, 0, 100), sp(2, 1, 10, 60), sp(3, 1, 40, 120)];
        assert_eq!(self_times(&spans)[&1], 10);
    }

    #[test]
    fn guards_nest_on_a_thread_and_export_as_chrome_trace() {
        // The only test that touches the global recorder.
        set_enabled(true);
        {
            let _a = span("outer", 7);
            in_span("inner", 7, || std::hint::black_box(1 + 1));
        }
        set_enabled(false);
        let spans = drain();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.op, 7);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let doc = chrome_trace(&spans);
        let back = Json::parse(&doc.render()).unwrap();
        assert_eq!(back.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
        // Disabled: nothing is recorded.
        drop(span("ignored", 0));
        assert!(drain().is_empty());
    }
}
