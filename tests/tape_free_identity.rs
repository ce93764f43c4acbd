//! `predict` runs `forward_train` inside `peb_tensor::no_grad`: nothing
//! is recorded, intermediates are recycled as they die, the selective
//! scan keeps no state trajectory — and not one output bit may differ
//! from the taped forward. Pinned for SDM-PEB (tiny and the serving
//! configuration) and each Table II baseline, at 1 and 3 threads and at
//! every dispatch level this machine has.

use peb_bench::{build_model, ModelKind};
use peb_par::ctx::{self, levels, ExecCtx};
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{PebPredictor, SdmPeb, SdmPebConfig};

fn assert_tape_free_equals_taped(model: &dyn PebPredictor, dims: (usize, usize, usize)) {
    let mut rng = StdRng::seed_from_u64(17);
    let clip = Tensor::rand_uniform(&[dims.0, dims.1, dims.2], 0.0, 0.9, &mut rng);
    for level in levels() {
        for threads in [1usize, 3] {
            let scoped = ExecCtx {
                level,
                threads,
                ..ctx::current()
            };
            let (taped, tape_free) = ctx::with(scoped, || {
                let taped = model.forward_train(&clip);
                assert!(taped.requires_grad(), "forward_train stays on the tape");
                let taped = taped.value().bit_digest();
                (taped, model.predict(&clip).bit_digest())
            });
            assert_eq!(
                tape_free,
                taped,
                "{}: predict != forward_train (level {}, {threads} threads)",
                model.name(),
                level.name()
            );
        }
    }
    assert!(
        model.parameters().iter().all(|p| p.grad().is_none()),
        "{}: a forward pass left a gradient behind",
        model.name()
    );
}

#[test]
fn sdm_peb_predict_is_bitwise_forward_train() {
    let mut rng = StdRng::seed_from_u64(5);
    let tiny = SdmPeb::new(SdmPebConfig::tiny((4, 16, 16)), &mut rng);
    assert_tape_free_equals_taped(&tiny, (4, 16, 16));
    let served = SdmPeb::new(SdmPebConfig::for_grid((8, 32, 32)), &mut rng);
    assert_tape_free_equals_taped(&served, (8, 32, 32));
}

#[test]
fn baseline_predict_is_bitwise_forward_train() {
    let dims = (4, 16, 16);
    for kind in [
        ModelKind::DeepCnn,
        ModelKind::TempoResist,
        ModelKind::Fno,
        ModelKind::DeePeb,
    ] {
        assert_tape_free_equals_taped(build_model(kind, dims).as_ref(), dims);
    }
}
