//! Cache-sized slab targets for sliced execution.
//!
//! Two hot paths walk their volume in slabs whose working set fits close
//! to the core: the `ConvTranspose2d` forward in `peb-nn` folds each
//! plane in bands of output rows, and the `sdm-peb` decoder walks depth
//! off the autograd tape in slabs of planes. Slicing only reorders
//! *whole-element* units of work — per-element arithmetic and
//! accumulation order are untouched — so any slab size gives the same
//! bits, and a volume that fits the target is simply one slab.
//!
//! The target is the `tile_bytes` field of the calling thread's
//! execution context (`peb_par::ctx`, 1 MiB by default). A scope that
//! sets it to `usize::MAX` runs every volume as one slab.

/// Number of depth items (e.g. z-planes) per slab so that
/// `items × bytes_per_item` stays within the tile target, clamped to
/// `[1, total_items]` (0 when there are no items).
pub fn slab_items(bytes_per_item: usize, total_items: usize) -> usize {
    let target = peb_par::ctx::current().tile_bytes;
    if total_items == 0 {
        return 0;
    }
    (target / bytes_per_item.max(1)).clamp(1, total_items)
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
        ctx::with(tiled(1 << 20), || {
            // 256 KiB planes → 4 per slab under a 1 MiB target.
            assert_eq!(slab_items(256 << 10, 100), 4);
            // Oversized items still make one-item slabs.
            assert_eq!(slab_items(64 << 20, 100), 1);
            // Clamped to the total.
            assert_eq!(slab_items(1, 3), 3);
        });
    }
}
