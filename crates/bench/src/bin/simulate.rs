//! `simulate` — command-line front-end for the rigorous lithography flow.
//!
//! ```text
//! cargo run --release -p peb-bench --bin simulate -- \
//!     [--seed N] [--size PX] [--depth N] [--style regular|staggered|random|mixed] \
//!     [--dose SCALE] [--out DIR]
//! ```
//!
//! Runs mask → aerial → Dill → PEB → development → metrology on one clip
//! and writes every artefact (PGM layers, OBJ profile, CSV metrology) to
//! the output directory.

use std::path::PathBuf;

use peb_bench::viz::{vertical_section, write_csv, write_pgm};
use peb_guard::{Context, PebError};
use peb_litho::{
    measure_contact_profiles, resist_profile_obj, ClipStyle, Grid, LithoFlow, MaskConfig,
};

struct Args {
    seed: u64,
    size: usize,
    depth: usize,
    style: ClipStyle,
    dose: f32,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        size: 32,
        depth: 8,
        style: ClipStyle::Mixed,
        dose: 1.0,
        out: PathBuf::from("target/simulate"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--size" => {
                args.size = value("--size")?
                    .parse()
                    .map_err(|e| format!("--size: {e}"))?
            }
            "--depth" => {
                args.depth = value("--depth")?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?
            }
            "--dose" => {
                args.dose = value("--dose")?
                    .parse()
                    .map_err(|e| format!("--dose: {e}"))?
            }
            "--style" => {
                args.style = match value("--style")?.as_str() {
                    "regular" => ClipStyle::RegularArray,
                    "staggered" => ClipStyle::Staggered,
                    "random" => ClipStyle::Random,
                    "mixed" => ClipStyle::Mixed,
                    other => return Err(format!("unknown style {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => {
                eprintln!(
                    "usage: simulate [--seed N] [--size PX] [--depth N] \
                     [--style regular|staggered|random|mixed] [--dose SCALE] [--out DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> Result<(), PebError> {
    peb_par::ctx::init_or_exit();
    let args = parse_args().map_err(PebError::config)?;
    let grid = Grid::new(
        args.size,
        args.size,
        args.depth,
        4.0,
        4.0,
        80.0 / args.depth as f32,
    )
    .map_err(PebError::from)
    .ctx("constructing simulation grid")?;
    let mut mask_cfg = MaskConfig::demo(grid.nx);
    mask_cfg.style = args.style;
    let clip = mask_cfg
        .generate(args.seed)
        .map_err(PebError::from)
        .ctx("generating mask clip")?;
    let mut flow = LithoFlow::new(grid);
    flow.dill.c_dose *= args.dose;
    eprintln!(
        "[simulate] clip seed {} ({:?}, {} contacts), grid {}x{}x{}, dose x{}",
        args.seed,
        clip.style,
        clip.contacts.len(),
        grid.nx,
        grid.ny,
        grid.nz,
        args.dose
    );
    let sim = flow
        .run(&clip)
        .map_err(PebError::from)
        .ctx("rigorous lithography flow")?;
    std::fs::create_dir_all(&args.out)
        .with_ctx(|| format!("creating output dir {}", args.out.display()))?;

    // Layer images.
    let save_layer =
        |volume: &peb_tensor::Tensor, name: &str, layer: usize| -> Result<(), PebError> {
            let s = volume.shape().to_vec();
            let plane = volume
                .slice_axis(0, layer, layer + 1)
                .and_then(|t| t.reshape(&[s[1], s[2]]))
                .map_err(PebError::from)
                .with_ctx(|| format!("extracting layer {layer} of {name}"))?;
            write_pgm(
                &plane,
                plane.min_value(),
                plane.max_value(),
                &args.out.join(format!("{name}_z{layer}.pgm")),
            )
            .ctx("writing pgm")
        };
    for layer in [0, grid.nz - 1] {
        save_layer(&sim.aerial, "aerial", layer)?;
        save_layer(&sim.acid0, "acid0", layer)?;
        save_layer(&sim.inhibitor, "inhibitor", layer)?;
    }
    write_pgm(
        &vertical_section(&sim.inhibitor, grid.ny / 2),
        0.0,
        1.0,
        &args.out.join("inhibitor_xz.pgm"),
    )
    .ctx("writing pgm")?;

    // 3-D profile + metrology.
    let obj = resist_profile_obj(&grid, &sim.arrival, flow.mack.duration)
        .map_err(PebError::from)
        .ctx("meshing resist profile")?;
    std::fs::write(args.out.join("resist_profile.obj"), obj).ctx("writing resist_profile.obj")?;
    let profiles =
        measure_contact_profiles(&grid, &sim.arrival, flow.mack.duration, &clip.contacts)
            .map_err(PebError::from)
            .ctx("measuring contact profiles")?;
    write_csv(
        &[
            ("cd_x_nm", sim.cds.iter().map(|c| c.cd_x_nm).collect()),
            ("cd_y_nm", sim.cds.iter().map(|c| c.cd_y_nm).collect()),
            ("top_cd_nm", profiles.iter().map(|p| p.top_cd_nm).collect()),
            (
                "bottom_cd_nm",
                profiles.iter().map(|p| p.bottom_cd_nm).collect(),
            ),
            (
                "sidewall_deg",
                profiles.iter().map(|p| p.sidewall_angle_deg).collect(),
            ),
        ],
        &args.out.join("metrology.csv"),
    )
    .ctx("writing metrology.csv")?;

    println!(
        "[simulate] PEB {:.2?}, total {:.2?}; {} contacts open; artefacts in {}",
        sim.peb_elapsed,
        sim.total_elapsed,
        sim.cds.iter().filter(|c| c.open).count(),
        args.out.display()
    );

    peb_bench::emit_profile("simulate");
    Ok(())
}
