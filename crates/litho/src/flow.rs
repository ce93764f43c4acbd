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
