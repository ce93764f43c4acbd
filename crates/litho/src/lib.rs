//! Rigorous lithography simulation substrate for the SDM-PEB reproduction.
//!
//! This crate stands in for the proprietary Synopsys S-Litho flow the paper
//! uses to generate ground truth. It implements the full positive-tone CAR
//! simulation chain of the paper's Fig. 1:
//!
//! ```text
//! mask ──optics──▶ 3-D aerial image ──Dill──▶ photoacid [A]₀
//!      ──PEB reaction–diffusion (Eqs. 1–4)──▶ inhibitor [I]
//!      ──Mack model (Eq. 5)──▶ development rate R
//!      ──eikonal |∇S| = 1/R──▶ resist profile ──▶ CD metrology
//! ```
//!
//! All physical quantities use nanometres and seconds; concentrations are
//! normalised to `[0, 1]`. Grids are `[D, H, W]` tensors with depth index
//! 0 at the resist *top* surface (where the Robin boundary condition of
//! Eq. 4 applies).
//!
//! # Example
//!
//! ```
//! use peb_litho::{Grid, LithoFlow, MaskConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = Grid::small(); // 32×32×8 demo grid
//! let mask = MaskConfig::demo(grid.nx).generate(7)?;
//! let flow = LithoFlow::new(grid);
//! let sim = flow.run(&mask)?;
//! assert_eq!(sim.inhibitor.shape(), &[8, 32, 32]);
//! // Exposed contact centres are deprotected: inhibitor well below 1.
//! # Ok(())
//! # }
//! ```

mod dill;
mod eikonal;
mod error;
mod export;
mod flow;
mod grid;
mod mack;
mod mask;
mod metrology;
mod optics;
mod peb;
mod profile;
mod tridiag;

pub use dill::DillParams;
pub use eikonal::{solve_eikonal, solve_eikonal_fim, EikonalConfig};
pub use error::LithoError;
pub use export::resist_profile_obj;
pub use flow::{LithoFlow, Simulation};
pub use grid::Grid;
pub use mack::MackParams;
pub use mask::{ClipStyle, Contact, MaskClip, MaskConfig};
pub use metrology::{measure_contact_cds, measure_contact_profiles, ContactCd, ContactProfile};
pub use optics::OpticsParams;
pub use peb::{PebParams, PebSolver, PebState, TimeScheme};
pub use profile::{developed_fraction, resist_profile};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LithoError>;
