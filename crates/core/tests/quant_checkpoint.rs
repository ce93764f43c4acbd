//! The one reduced-precision artefact the workspace keeps: the int8
//! `PEBCKPT1` v2 checkpoint. It must be less than half the f32 frame,
//! and a model restored from it must stay inside the calibration
//! budgets and within 1 nm CD of the f32 model through the development
//! chain.

use peb_guard::{OptKind, TrainCheckpoint};
use peb_litho::{Grid, LithoFlow, MaskConfig};
use peb_nn::Parameterized;
use peb_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sdm_peb::{
    cd_error_nm, checkpoint_params, quantize_checkpoint, restore_parameters, LabelTransform,
    PebPredictor, QuantBudgets, SdmPeb, SdmPebConfig,
};

#[test]
fn int8_frame_is_under_half_the_f32_bytes_and_within_budgets_and_one_nm_cd() {
    let grid = Grid::small(); // 8×32×32
    let clip = MaskConfig::demo(grid.nx).generate(7).expect("clip");
    let flow = LithoFlow::new(grid);
    let aerial = flow.optics.aerial_image(&grid, &clip).expect("aerial");
    let acid0 = flow.dill.photoacid(&aerial);
    let dims = (grid.nz, grid.ny, grid.nx);
    let model = SdmPeb::new(SdmPebConfig::for_grid(dims), &mut StdRng::seed_from_u64(42));

    let params: Vec<Tensor> = model.parameters().iter().map(|p| p.value_clone()).collect();
    let n = params.len();
    let ckpt = TrainCheckpoint {
        epoch: 0,
        seed: 42,
        opt_kind: OptKind::Adam,
        opt_t: 0,
        lr_scale: 1.0,
        rollbacks: 0,
        epoch_stats: vec![],
        params,
        opt_m: vec![None; n],
        opt_v: vec![None; n],
        quant: None,
    };
    let reference = model.predict(&acid0);

    // The audit itself: the default budgets must admit this model.
    let budgets = QuantBudgets::default();
    let (qckpt, _) =
        quantize_checkpoint(&model, &ckpt, std::slice::from_ref(&acid0), budgets).expect("audit");

    // Storage: what the format exists for.
    let (v1, v2) = (ckpt.to_bytes(), qckpt.to_bytes());
    assert!(
        2 * v2.len() < v1.len(),
        "int8 frame {} B is not under half the f32 frame {} B",
        v2.len(),
        v1.len()
    );

    // Accuracy: a second model restored from the decoded v2 frame, as
    // `/swap` restores it.
    let served = SdmPeb::new(SdmPebConfig::for_grid(dims), &mut StdRng::seed_from_u64(1));
    let decoded = TrainCheckpoint::from_bytes(&v2).expect("v2 decodes");
    restore_parameters(&served, &checkpoint_params(&decoded).expect("dequantise"))
        .expect("restore");
    let quantised = served.predict(&acid0);
    assert!(sdm_peb::rmse(&quantised, &reference) <= budgets.max_rmse);
    assert!(sdm_peb::ssim(&quantised, &reference) >= budgets.min_ssim);

    let label = LabelTransform {
        kc: flow.peb.kc,
        ..LabelTransform::paper()
    };
    let cds = |pred: &Tensor| {
        let (_, _, cds) = flow.develop(&label.decode(pred), &clip).expect("develop");
        cds
    };
    let (cds_f32, cds_int8) = (cds(&reference), cds(&quantised));
    let cd = cd_error_nm(&cds_int8, &cds_f32);
    assert!(
        cd.count > 0,
        "no open contact: the CD gate would be vacuous"
    );
    assert!(
        cd.x_nm.max(cd.y_nm) <= 1.0,
        "CD moved {cd:?} against the f32 model"
    );
}
