//! Pins the tiled-forward / untiled-backward round trip: the depth-slab
//! tiled `Conv3d` forward pass feeds an *untiled* backward pass, and the
//! resulting gradients must be bitwise identical to the fully untiled
//! path — plus a numeric gradcheck run entirely under aggressive tiling.
//!
//! This is the contract peb-serve's batched inference and the trainer
//! both rely on: tiling is a memory optimisation, never a numerics
//! change, in either direction of the graph.

use peb_nn::{Conv3d, Parameterized};
use peb_par::ctx::{self, ExecCtx};
use peb_tensor::{check_gradients, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Loss digest + input gradient digest + one digest per parameter
/// gradient, for one forward/backward run at the given tile setting.
fn run(conv: &Conv3d, x0: &Tensor, tile_bytes: Option<usize>) -> Vec<u64> {
    let scoped = ExecCtx {
        tile_bytes,
        ..ctx::current()
    };
    ctx::with(scoped, || {
        for p in conv.parameters() {
            p.zero_grad();
        }
        let x = Var::parameter(x0.clone());
        let loss = conv.forward(&x).square().sum();
        loss.backward();
        let mut digests = vec![
            loss.value().bit_digest(),
            x.grad().expect("input grad").bit_digest(),
        ];
        for p in conv.parameters() {
            digests.push(p.grad().expect("param grad").bit_digest());
        }
        digests
    })
}

#[test]
fn tiled_forward_untiled_backward_matches_fully_untiled_bitwise() {
    let mut rng = StdRng::seed_from_u64(4242);
    let conv = Conv3d::new(2, 3, (3, 3, 3), (1, 1, 1), (1, 1, 1), true, &mut rng);
    let x0 = Tensor::randn(&[2, 10, 8, 8], &mut rng);

    // Fully untiled reference.
    let reference = run(&conv, &x0, None);
    // Tile target of 1 byte → one output depth-plane per slab, the most
    // aggressive tiling possible; the backward pass stays untiled by
    // construction (col2im over the full volume).
    let tiled = run(&conv, &x0, Some(1));
    assert_eq!(
        tiled, reference,
        "gradients through a tiled forward must match the untiled path bitwise"
    );
    // An intermediate slab size must agree too (different tile boundary
    // placement, same bits).
    let mid = run(&conv, &x0, Some(64 * 1024));
    assert_eq!(mid, reference, "intermediate tile size diverged");
}

#[test]
fn conv3d_gradcheck_under_aggressive_tiling() {
    let mut rng = StdRng::seed_from_u64(77);
    let conv = Conv3d::new(2, 2, (3, 3, 3), (1, 2, 2), (1, 1, 1), true, &mut rng);
    let x0 = Tensor::randn(&[2, 6, 7, 7], &mut rng);
    let one_plane_slabs = ExecCtx {
        tile_bytes: Some(1),
        ..ctx::current()
    };
    let r = ctx::with(one_plane_slabs, || {
        check_gradients(
            &Var::parameter(x0),
            |v| conv.forward(v).square().sum(),
            1e-2,
        )
    });
    assert!(r.ok(3e-2), "tiled-forward gradcheck failed: {r:?}");
}
