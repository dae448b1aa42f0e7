//! Simulation parameters.

use cmosaic_materials::refrigerant::Refrigerant;
use cmosaic_materials::units::Kelvin;

/// Discretisation of the coolant energy-transport term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdvectionScheme {
    /// First-order upwind: the cell's outflow temperature equals the cell
    /// temperature. Unconditionally monotone; the default.
    #[default]
    Upwind,
    /// The 3D-ICE convention: a linear temperature profile inside the cell,
    /// `T_out = 2·T_cell − T_in`, which doubles the advective coupling
    /// coefficient and sharpens outlet-temperature prediction on coarse
    /// grids.
    LinearProfile,
}

/// Which linear-solver backend serves the model's steady and transient
/// solves.
///
/// * [`SolverBackend::DirectLu`] (default) — sparse LU with the
///   symbolic/numeric refactorisation split. Robust, bit-reproducible,
///   and the fastest at the paper's grids: `BENCH_iterative.json` has it
///   ahead on warm solves up to 32² per layer and level with multigrid at
///   48². Its factor fill grows superlinearly with grid resolution.
/// * [`SolverBackend::IterativeMg`] — BiCGSTAB preconditioned by a
///   geometric multigrid V-cycle over the **matrix-free**
///   [`StencilOperator`](crate::StencilOperator): the fine level is never
///   assembled, operating-point setup is O(nz) scalar updates, and
///   iteration counts stay (near-)resolution-independent as the grid
///   refines, so it wins from 64² up. If a solve breaks down or fails to
///   converge, the model **falls back to direct LU automatically** for
///   that operator (recorded in
///   [`SolverStats::iterative_fallbacks`](crate::SolverStats::iterative_fallbacks)),
///   so results are always delivered. In-plane grids the V-cycle cannot
///   coarsen (odd dimensions) run on direct LU from operator build,
///   counted the same way. Results are bit-reproducible across runs and
///   thread counts.
///
/// Two-phase (Dirichlet-fluid) fixed-point sweeps always use the direct
/// solver: their operator is re-factorised each sweep anyway and the
/// frozen-pattern refactorisation is already the cheap path there.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SolverBackend {
    /// Direct sparse LU (Gilbert–Peierls with refactorisation); the
    /// default.
    #[default]
    DirectLu,
    /// Matrix-free BiCGSTAB with a geometric-multigrid V-cycle
    /// preconditioner and automatic direct-LU fallback.
    IterativeMg {
        /// Relative residual tolerance (‖r‖/‖b‖) of the iteration.
        tolerance: f64,
        /// Iteration cap before the solve is declared non-convergent (and
        /// the direct fallback takes over).
        max_iterations: usize,
    },
}

impl SolverBackend {
    /// The multigrid backend at its default operating point (tolerance
    /// `1e-10`, cap 2000 — tight enough that steady fields agree with
    /// the direct backend to micro-kelvins).
    pub fn multigrid() -> Self {
        SolverBackend::IterativeMg {
            tolerance: 1e-10,
            max_iterations: 2000,
        }
    }

    /// `true` for the BiCGSTAB (multigrid) backend.
    pub fn is_iterative(&self) -> bool {
        matches!(self, SolverBackend::IterativeMg { .. })
    }

    /// The iterative operating point `(tolerance, max_iterations)`, or
    /// `None` for the direct backend.
    pub fn iteration_limits(&self) -> Option<(f64, usize)> {
        match *self {
            SolverBackend::DirectLu => None,
            SolverBackend::IterativeMg {
                tolerance,
                max_iterations,
            } => Some((tolerance, max_iterations)),
        }
    }
}

impl std::fmt::Display for SolverBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverBackend::DirectLu => f.write_str("direct-lu"),
            // The operating point is part of the label so two iterative
            // configurations (e.g. a tolerance axis) stay distinguishable
            // in study rows and optimizer reports.
            SolverBackend::IterativeMg {
                tolerance,
                max_iterations,
            } => write!(f, "bicgstab-mg(tol {tolerance:e}, cap {max_iterations})"),
        }
    }
}

/// The coolant circulating through the inter-tier cavities.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Coolant {
    /// Single-phase water (§II): sensible heat removal, flow set at run
    /// time via [`crate::ThermalModel::set_flow_rate`].
    #[default]
    Water,
    /// Two-phase refrigerant (§III): latent heat removal at the local
    /// saturation temperature, with a flux-dependent boiling HTC. The
    /// operating point is fixed at model construction.
    TwoPhase(TwoPhaseCoolant),
}

/// Operating point of a two-phase inter-tier coolant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPhaseCoolant {
    /// Working fluid.
    pub refrigerant: Refrigerant,
    /// Inlet saturation temperature.
    pub inlet_saturation: Kelvin,
    /// Channel mass flux, kg/(m²·s).
    pub mass_flux: f64,
    /// Inlet vapour quality.
    pub inlet_quality: f64,
    /// Dry-out quality bound.
    pub dryout_quality: f64,
}

impl TwoPhaseCoolant {
    /// An R134a operating point at 30 °C saturation — the §III
    /// recommendation for chip-scale stacks (moderate saturation pressure,
    /// dense vapour).
    pub fn r134a_30c(mass_flux: f64) -> Self {
        TwoPhaseCoolant {
            refrigerant: Refrigerant::R134a,
            inlet_saturation: Kelvin::from_celsius(30.0),
            mass_flux,
            inlet_quality: 0.05,
            dryout_quality: 0.65,
        }
    }
}

/// Global parameters of a [`crate::ThermalModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalParams {
    /// Coolant inlet temperature (single-phase stacks). Default 27 °C.
    pub inlet: Kelvin,
    /// Initial temperature of every cell for transient runs. Default
    /// 27 °C; simulations normally overwrite this with a steady-state
    /// solve first (§IV.A "we initialize the simulations with steady state
    /// temperature values").
    pub initial: Kelvin,
    /// Advection discretisation (single-phase only).
    pub advection: AdvectionScheme,
    /// Cavity coolant.
    pub coolant: Coolant,
    /// Linear-solver backend for the steady/transient solves.
    pub solver: SolverBackend,
}

impl Default for ThermalParams {
    fn default() -> Self {
        ThermalParams {
            inlet: Kelvin::from_celsius(27.0),
            initial: Kelvin::from_celsius(27.0),
            advection: AdvectionScheme::default(),
            coolant: Coolant::Water,
            solver: SolverBackend::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let p = ThermalParams::default();
        assert!((p.inlet.to_celsius().0 - 27.0).abs() < 1e-12);
        assert_eq!(p.advection, AdvectionScheme::Upwind);
        assert_eq!(p.solver, SolverBackend::DirectLu);
    }

    #[test]
    fn solver_backend_helpers() {
        assert!(!SolverBackend::DirectLu.is_iterative());
        assert_eq!(SolverBackend::DirectLu.to_string(), "direct-lu");
        assert_eq!(SolverBackend::DirectLu.iteration_limits(), None);
        let mg = SolverBackend::multigrid();
        assert!(mg.is_iterative());
        assert_eq!(mg.to_string(), "bicgstab-mg(tol 1e-10, cap 2000)");
        assert_eq!(mg.iteration_limits(), Some((1e-10, 2000)));
        // Distinct operating points get distinct labels.
        let loose = SolverBackend::IterativeMg {
            tolerance: 1e-6,
            max_iterations: 500,
        };
        assert_eq!(loose.to_string(), "bicgstab-mg(tol 1e-6, cap 500)");
        assert_ne!(loose.to_string(), mg.to_string());
    }
}
