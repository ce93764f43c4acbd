//! Resist-profile metrology: top/bottom CDs, CD ratio and sidewall angle
//! for every printed contact, plus a development-time sweep — the kind of
//! process-window exploration the rigorous substrate supports beyond the
//! paper's headline metrics.
//!
//! ```sh
//! cargo run --release -p sdm-peb --example profile_metrology
//! ```

use peb_litho::{
    developed_fraction, measure_contact_profiles, resist_profile_obj, Grid, LithoFlow, MaskConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grid = Grid::small();
    let clip = MaskConfig::demo(grid.nx).generate(21)?;
    let flow = LithoFlow::new(grid);
    println!("rigorous simulation of clip seed {}…", clip.seed);
    let sim = flow.run(&clip)?;

    // Vertical profile metrics per contact.
    println!(
        "\nper-contact vertical profiles at t_dev = {} s:",
        flow.mack.duration
    );
    println!(
        "{:<10} {:>8} {:>10} {:>9} {:>11} {:>8}",
        "contact", "top/nm", "bottom/nm", "ratio", "sidewall/°", "through"
    );
    let profiles =
        measure_contact_profiles(&grid, &sim.arrival, flow.mack.duration, &clip.contacts)?;
    for (i, p) in profiles.iter().enumerate() {
        println!(
            "{:<10} {:>8.1} {:>10.1} {:>9.2} {:>11.1} {:>8}",
            format!("#{i}"),
            p.top_cd_nm,
            p.bottom_cd_nm,
            p.cd_ratio,
            p.sidewall_angle_deg,
            p.through
        );
    }

    // Export the final 3-D profile as an OBJ mesh for any viewer.
    let obj = resist_profile_obj(&grid, &sim.arrival, flow.mack.duration)?;
    std::fs::create_dir_all("target/figures")?;
    std::fs::write("target/figures/resist_profile.obj", &obj)?;
    println!(
        "\nwrote target/figures/resist_profile.obj ({} faces)",
        obj.lines().filter(|l| l.starts_with("f ")).count()
    );

    // Development-time process window.
    println!("\ndeveloped volume fraction vs development time:");
    for t in (0..=6).map(|i| i as f32 * 10.0) {
        let f = developed_fraction(&sim.arrival, t) * 100.0;
        println!(
            "  t = {t:>4.0} s: {f:>5.1}%  {}",
            "#".repeat(f as usize / 2)
        );
    }
    Ok(())
}
