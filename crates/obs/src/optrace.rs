//! Flat op-list capture.
//!
//! `peb_plan::Plan::record` opens an op-trace window on the calling
//! thread around one computation; instrumented kernels (GEMM, direct
//! convs, selective scan, ADI sweeps, stencils, fused elementwise
//! chains, FFT lines) call [`note`] to append one [`OpDesc`] per
//! dispatched stage with its resolved shapes/tile sizes. The result is a
//! human-readable record of exactly what the computation executed, in
//! order, with all dynamic decisions (dispatch level, tile geometry,
//! FFT plan handles) already resolved; the benchmark reads it for the
//! model's largest GEMM shape.
//!
//! The window is thread-local and off by default; [`note`] takes the
//! detail as a closure so call sites pay one `Cell` read and no
//! formatting when no window is open (the common case, including all
//! eager execution).

use std::cell::{Cell, RefCell};

/// One captured op: a static kind tag plus resolved-parameter detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpDesc {
    /// Op family, e.g. `"gemm"`, `"conv.conv2d"`, `"scan"`,
    /// `"adi.planes"` / `"adi.columns"` (the two phases of an implicit
    /// bake step), `"stencil"`, `"fused"`, `"fft.line"`.
    pub kind: &'static str,
    /// Resolved parameters, e.g. `"m=64 k=576 n=4096"` or
    /// `"chain=[mul_t,add_t,sigmoid] len=65536"`.
    pub detail: String,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static OPS: RefCell<Vec<OpDesc>> = const { RefCell::new(Vec::new()) };
}

/// Whether an op-trace window is open on this thread.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Opens an op-trace window on this thread, discarding any leftover ops.
pub fn begin() {
    OPS.with(|o| o.borrow_mut().clear());
    ACTIVE.with(|a| a.set(true));
}

/// Closes the window and returns the captured op list in call order.
pub fn finish() -> Vec<OpDesc> {
    ACTIVE.with(|a| a.set(false));
    OPS.with(|o| std::mem::take(&mut *o.borrow_mut()))
}

/// Appends one op when a window is open; `detail` is only evaluated
/// then, so instrumentation is free on eager paths.
#[inline]
pub fn note(kind: &'static str, detail: impl FnOnce() -> String) {
    if !active() {
        return;
    }
    OPS.with(|o| {
        o.borrow_mut().push(OpDesc {
            kind,
            detail: detail(),
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notes_outside_a_window_are_dropped_for_free() {
        let mut evaluated = false;
        note("gemm", || {
            evaluated = true;
            String::from("m=1")
        });
        assert!(!evaluated, "detail closure must not run when inactive");
    }

    #[test]
    fn window_captures_ops_in_order() {
        begin();
        note("gemm", || "m=2 k=3 n=4".to_string());
        note("fft.line", || "n=64".to_string());
        let ops = finish();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].kind, "gemm");
        assert_eq!(ops[0].detail, "m=2 k=3 n=4");
        assert_eq!(ops[1].kind, "fft.line");
        assert!(!active());
        note("gemm", || unreachable!());
        begin();
        let ops = finish();
        assert!(ops.is_empty(), "begin clears leftovers");
    }
}
