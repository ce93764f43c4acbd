//! End-to-end rigorous simulation flow (the S-Litho stand-in).

use std::time::{Duration, Instant};

use peb_tensor::Tensor;

use crate::{
    measure_contact_cds, solve_eikonal, ContactCd, DillParams, EikonalConfig, Grid, MackParams,
    MaskClip, OpticsParams, PebParams, PebSolver, PebState, Result, TimeScheme,
};

/// All artefacts of one rigorous simulation.
#[derive(Debug, Clone)]
pub struct Simulation {
    /// 3-D aerial image `[D, H, W]`.
    pub aerial: Tensor,
    /// Initial photoacid `[A]₀`.
    pub acid0: Tensor,
    /// Final photoacid after the bake.
    pub acid: Tensor,
    /// Final inhibitor `[I]` — the PEB latent image the models predict.
    pub inhibitor: Tensor,
    /// Development-rate field `R` (nm/s).
    pub rate: Tensor,
    /// Eikonal arrival-time field `S` (s).
    pub arrival: Tensor,
    /// Per-contact CDs at the bottom layer.
    pub cds: Vec<ContactCd>,
    /// Wall-clock time of the PEB step alone (the paper's runtime
    /// comparison point: learned models replace exactly this step).
    pub peb_elapsed: Duration,
    /// Wall-clock time of the entire flow.
    pub total_elapsed: Duration,
}

/// One-call pipeline from mask clip to resist profile.
///
/// # Example
///
/// ```
/// use peb_litho::{Grid, LithoFlow, MaskConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = Grid::small();
/// let clip = MaskConfig::demo(grid.nx).generate(42)?;
/// let sim = LithoFlow::new(grid).run(&clip)?;
/// assert!(sim.inhibitor.min_value() < 0.9); // deprotection happened
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LithoFlow {
    /// Simulation grid.
    pub grid: Grid,
    /// Optical model.
    pub optics: OpticsParams,
    /// Exposure model.
    pub dill: DillParams,
    /// Bake parameters.
    pub peb: PebParams,
    /// Development-rate model.
    pub mack: MackParams,
    /// Eikonal solver settings.
    pub eikonal: EikonalConfig,
    /// Time scheme for the PEB solver.
    pub scheme: TimeScheme,
    /// Depth layer at which CDs are measured (default: bottom).
    pub cd_layer: usize,
}

impl LithoFlow {
    /// Paper-parameter flow on the given grid.
    pub fn new(grid: Grid) -> Self {
        LithoFlow {
            grid,
            optics: OpticsParams::paper(),
            dill: DillParams::paper(),
            peb: PebParams::paper(),
            mack: MackParams::paper(),
            eikonal: EikonalConfig::default(),
            scheme: TimeScheme::ImplicitLod,
            cd_layer: grid.nz - 1,
        }
    }

    /// Runs the full chain on one mask clip.
    ///
    /// # Errors
    ///
    /// Propagates configuration and numeric errors from each stage.
    pub fn run(&self, clip: &MaskClip) -> Result<Simulation> {
        let t0 = Instant::now();
        let aerial = self.optics.aerial_image(&self.grid, clip)?;
        let acid0 = self.dill.photoacid(&aerial);
        let solver = PebSolver::new(self.peb, self.grid, self.scheme)?;
        let peb_start = Instant::now();
        // The spent base field is released here, before development
        // allocates its own volumes.
        let PebState {
            acid, inhibitor, ..
        } = solver.run(&acid0)?;
        let peb_elapsed = peb_start.elapsed();
        let (arrival, rate, cds) = self.develop(&inhibitor, clip)?;
        Ok(Simulation {
            aerial,
            acid0,
            acid,
            inhibitor,
            rate,
            arrival,
            cds,
            peb_elapsed,
            total_elapsed: t0.elapsed(),
        })
    }

    /// Development + metrology for an inhibitor field — used both on the
    /// rigorous output and on model predictions (the paper evaluates CD
    /// error by pushing predicted inhibitors through this same chain).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the eikonal and metrology
    /// stages.
    pub fn develop(
        &self,
        inhibitor: &Tensor,
        clip: &MaskClip,
    ) -> Result<(Tensor, Tensor, Vec<ContactCd>)> {
        let rate = self.mack.rate_field(inhibitor);
        let arrival = solve_eikonal(&self.grid, &rate, self.eikonal)?;
        let cds = measure_contact_cds(
            &self.grid,
            &arrival,
            self.mack.duration,
            &clip.contacts,
            self.cd_layer,
        )?;
        Ok((arrival, rate, cds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MaskConfig;

    #[test]
    fn full_flow_produces_consistent_artefacts() {
        let grid = Grid::small();
        let clip = MaskConfig::demo(grid.nx).generate(1).unwrap();
        let flow = LithoFlow::new(grid);
        let sim = flow.run(&clip).unwrap();
        assert_eq!(sim.inhibitor.shape(), &grid.shape3());
        // Concentrations stay physical.
        assert!(sim.inhibitor.min_value() >= 0.0);
        assert!(sim.inhibitor.max_value() <= 1.0 + 1e-5);
        assert!(sim.acid0.min_value() >= 0.0);
        // Deprotection happened under contacts, protection far away.
        assert!(sim.inhibitor.min_value() < 0.5);
        assert!(sim.inhibitor.max_value() > 0.9);
        // Development rates bounded by the Mack limits.
        assert!(sim.rate.max_value() <= flow.mack.r_max);
        assert!(sim.rate.min_value() >= flow.mack.r_min);
        assert!(!sim.cds.is_empty());
        assert!(sim.peb_elapsed <= sim.total_elapsed);
    }

    #[test]
    fn contacts_print_where_exposed() {
        let grid = Grid::small();
        let mut cfg = MaskConfig::demo(grid.nx);
        cfg.style = crate::ClipStyle::RegularArray;
        cfg.fill_probability = 1.0;
        let clip = cfg.generate(7).unwrap();
        let sim = LithoFlow::new(grid).run(&clip).unwrap();
        let opened = sim.cds.iter().filter(|c| c.open).count();
        assert!(
            opened * 2 >= sim.cds.len(),
            "expected most contacts open, got {opened}/{}",
            sim.cds.len()
        );
        for cd in sim.cds.iter().filter(|c| c.open) {
            assert!(cd.cd_x_nm > 0.0 && cd.cd_x_nm < grid.window_nm().0);
        }
    }

    /// A regular contact array under a shortened 30 s bake, so the
    /// dose and focus tests stay fast.
    fn process_window_setup() -> (LithoFlow, MaskClip) {
        let grid = Grid::small();
        let mut flow = LithoFlow::new(grid);
        flow.peb.duration = 30.0;
        let mut cfg = MaskConfig::demo(grid.nx);
        cfg.style = crate::ClipStyle::RegularArray;
        cfg.fill_probability = 1.0;
        (flow, cfg.generate(3).expect("clip"))
    }

    /// `(mean CD in x over open contacts, open fraction)` of one run; the
    /// mean is 0 when nothing opened.
    fn printed(flow: &LithoFlow, clip: &MaskClip) -> (f32, f32) {
        let sim = flow.run(clip).unwrap();
        let open: Vec<_> = sim.cds.iter().filter(|c| c.open).collect();
        let mean_cd_x_nm = if open.is_empty() {
            0.0
        } else {
            open.iter().map(|c| c.cd_x_nm as f64).sum::<f64>() as f32 / open.len() as f32
        };
        (
            mean_cd_x_nm,
            open.len() as f32 / sim.cds.len().max(1) as f32,
        )
    }

    fn at_dose(flow: &LithoFlow, scale: f32) -> LithoFlow {
        let mut f = flow.clone();
        f.dill.c_dose *= scale;
        f
    }

    #[test]
    fn cd_grows_with_dose() {
        let (flow, clip) = process_window_setup();
        // More dose → more acid → more deprotection → larger holes.
        let cds: Vec<f32> = [0.8, 1.0, 1.2]
            .iter()
            .map(|&s| printed(&at_dose(&flow, s), &clip).0)
            .filter(|&cd| cd > 0.0)
            .collect();
        assert!(cds.len() >= 2, "{cds:?}");
        for w in cds.windows(2) {
            assert!(
                w[1] >= w[0] - 1.0,
                "CD should not shrink with dose: {cds:?}"
            );
        }
    }

    #[test]
    fn underdose_closes_contacts() {
        let (flow, clip) = process_window_setup();
        let (_, under) = printed(&at_dose(&flow, 0.25), &clip);
        let (_, nominal) = printed(&flow, &clip);
        assert!(
            under <= nominal,
            "open fraction {under} at 0.25× dose vs {nominal}"
        );
    }

    #[test]
    fn defocus_changes_cd() {
        let (flow, clip) = process_window_setup();
        let mut defocused = flow.clone();
        defocused.optics.defocus_slope += 0.25;
        let (cd0, open0) = printed(&flow, &clip);
        let (cd1, open1) = printed(&defocused, &clip);
        // Strong defocus blurs the image; printed CD must move.
        assert!(
            (cd0 - cd1).abs() > 0.5 || open1 < open0,
            "in focus ({cd0}, {open0}), defocused ({cd1}, {open1})"
        );
    }

    #[test]
    fn develop_is_reusable_on_predictions() {
        // A slightly perturbed inhibitor must yield nearby CDs.
        let grid = Grid::small();
        let clip = MaskConfig::demo(grid.nx).generate(3).unwrap();
        let flow = LithoFlow::new(grid);
        let sim = flow.run(&clip).unwrap();
        let perturbed = sim.inhibitor.map(|v| (v + 0.01).min(1.0));
        let (_, _, cds) = flow.develop(&perturbed, &clip).unwrap();
        for (a, b) in sim.cds.iter().zip(&cds) {
            if a.open && b.open {
                assert!((a.cd_x_nm - b.cd_x_nm).abs() < 20.0);
            }
        }
    }
}
