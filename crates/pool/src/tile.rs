//! Cache-sized slab targets for tiled execution.
//!
//! Tiled hot paths (the ADI/explicit diffusion sweeps in `peb-litho`,
//! the 3-D conv lowering in `peb-nn`) partition their depth axis into
//! slabs whose working set fits close to the core, so consecutive passes
//! over a slab hit cache instead of streaming the full volume per pass.
//! Tiling only reorders *whole-element* units of work — per-element
//! arithmetic and accumulation order are untouched — so tiled output is
//! bitwise identical to untiled.
//!
//! The target is the `tile_bytes` field of the calling thread's
//! execution context (`peb_par::ctx`): the detected per-core L2 size,
//! falling back to `DEFAULT_TILE_BYTES` when sysfs does not expose it.
//! `tile_bytes: None` runs the untiled full-volume path, the oracle the
//! identity suites compare against.

/// Number of depth items (e.g. z-planes) per slab so that
/// `items × bytes_per_item` stays within the tile target, clamped to
/// `[1, total_items]`. Returns `None` when tiling is off (callers run
/// the untiled full-volume path).
pub fn slab_items(bytes_per_item: usize, total_items: usize) -> Option<usize> {
    let target = peb_par::ctx::current().tile_bytes?;
    if total_items == 0 {
        return Some(0);
    }
    Some((target / bytes_per_item.max(1)).clamp(1, total_items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_par::ctx::{self, ExecCtx};

    #[test]
    fn slabs_follow_the_context_target() {
        let tiled = |tile_bytes| ExecCtx {
            tile_bytes,
            ..ctx::current()
        };
        ctx::with(tiled(Some(1 << 20)), || {
            // 256 KiB planes → 4 per slab under a 1 MiB target.
            assert_eq!(slab_items(256 << 10, 100), Some(4));
            // Oversized items still make one-item slabs.
            assert_eq!(slab_items(64 << 20, 100), Some(1));
            // Clamped to the total.
            assert_eq!(slab_items(1, 3), Some(3));
        });
        ctx::with(tiled(None), || assert_eq!(slab_items(1024, 10), None));
    }
}
