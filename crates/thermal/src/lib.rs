//! Compact transient thermal model of 3D stacks with inter-tier
//! micro-channel liquid cooling — the 3D-ICE-style simulator (§II.D,
//! paper ref. \[17]) the CMOSAIC experiments run on.
//!
//! # Model
//!
//! Each stack layer is discretised into `nx × ny` finite-volume cells; the
//! stack becomes an RC network:
//!
//! * **Solid cells** exchange heat with their six neighbours through
//!   series-connected half-cell conductances and store heat in their
//!   volumetric capacitance.
//! * **Cavity cells** are porous-media-homogenised micro-channel cells: a
//!   fluid node exchanges heat with the layers above and below through a
//!   convective conductance `h·A_eff` (with `A_eff` including fin area at
//!   near-unit fin efficiency), the silicon walls add a parallel
//!   through-conductance between the neighbouring layers, and the coolant
//!   *advects* heat downstream with coefficient `ṁ·c_p` — the nonsymmetric
//!   coupling that distinguishes liquid-cooled stacks
//!   ([`AdvectionScheme::Upwind`] by default, the 3D-ICE linear-outlet
//!   profile as an option).
//! * **Air-cooled stacks** attach a lumped sink node (Table I: 10 W/K,
//!   140 J/K) above the top layer, grounded at the 45 °C ambient.
//!
//! Steady state solves `G·T = P`; transients use backward Euler
//! `(C/Δt + G)·T⁺ = C/Δt·T + P`.
//!
//! # Solver architecture: symbolic/numeric split + incremental assembly
//!
//! The sparsity pattern of the RC network is fixed by (stack, grid), so
//! the model separates what changes from what does not:
//!
//! * the flow-independent skeleton (conduction, wall through-paths, sink,
//!   one capacitance-diagonal slot per node) is assembled **once** at
//!   first solve, together with a triplet→CSC scatter map;
//! * every operating-point change — a new flow rate, a new transient Δt,
//!   each sweep of the two-phase fixed-point loop — is an O(nnz) value
//!   rewrite into the existing CSC operator;
//! * exactly **one full factorisation** is performed per model (per
//!   sparsity pattern: single-phase and two-phase operators differ): an
//!   `lu::analyse` that captures a `SymbolicLu`, keeping the operator's
//!   diagonal pivots after a margin check instead of searching for pivots
//!   whenever the check passes, as it does for these diagonally dominant
//!   operators; every later operator is produced by numeric
//!   refactorisation over that frozen pattern — the same trick 3D-ICE
//!   obtains by linking SuperLU. If a refactorisation trips the
//!   pivot-growth guard (it cannot for these diagonally-dominant
//!   operators under physical parameters, but the fallback is load-bearing
//!   for robustness), the model transparently re-pivots and re-captures
//!   the symbolic analysis.
//!
//! Factorised operators are held in small bounded LRU caches (one steady,
//! one transient), so a controller sweeping the discrete pump levels pays
//! solve-only cost at revisited operating points while continuous
//! modulation cannot grow memory without bound.
//! [`ThermalModel::solver_stats`] and [`ThermalModel::cached_operators`]
//! expose the full/refactor/fallback counters and cache evictions.
//!
//! # Solver backends
//!
//! [`ThermalParams::solver`] selects how each cached operator is solved:
//!
//! * [`SolverBackend::DirectLu`] (default) — the split direct solver
//!   described above. Fastest at the paper's 12×12-per-layer grids and,
//!   per `BENCH_iterative.json`, on warm solves up to 48²; level with
//!   multigrid at 64².
//! * [`SolverBackend::IterativeMg`] — BiCGSTAB over the **matrix-free**
//!   [`StencilOperator`], preconditioned by a geometric multigrid V-cycle
//!   built by re-discretising the stack physics on 2×-coarser in-plane
//!   grids. The fine level is never assembled: the operator is O(nz)
//!   scalars applied straight from the grid geometry (bit-identical to
//!   the assembled CSC product — the `LinearOperator` contract), so
//!   per-operating-point setup cost is independent of nnz, and iteration
//!   counts stay resolution-independent as the grid refines. Only the
//!   small coarsest level is assembled and LU-factored (reusing a frozen
//!   symbolic analysis across operating points). It wins warm solves
//!   from 96² up.
//!
//! **Fallback contract.** The multigrid backend never fails where the
//! direct backend would succeed, and it falls back along one direct
//! path: the skeleton value rewrite and factorisation the direct backend
//! itself runs. An operator whose hierarchy cannot be built (odd in-plane
//! dimensions, a singular coarse operator) takes that path from operator
//! build; on BiCGSTAB `Breakdown`/`NoConvergence` the model retires the
//! operator to it for the rest of the operator's cache lifetime and
//! re-solves. Either event counts in [`SolverStats::iterative_fallbacks`],
//! and a fallback solve returns the direct backend's bits, so every grid
//! is solvable under either backend. Both backends run through the same
//! persistent workspace, so the warm path stays allocation-free either
//! way, and each backend is bit-reproducible across runs and thread
//! counts (the backends agree with each other to the configured
//! iteration tolerance, not bitwise). Every iterative solve starts from
//! the zero guess, so its trajectory never depends on earlier solves.
//!
//! # Zero-allocation hot path and analysis sharing
//!
//! Every model owns a persistent workspace (operator values, RHS, the
//! transient ping-pong state buffer, dense refactorisation scratch and
//! the triangular-solve scratch). [`ThermalModel::step_into`] and the
//! internally workspace-routed steady solves reuse it, so once an
//! operating point's operator is cached the warm path performs **zero
//! heap allocation per solve** — observable through
//! [`SolverStats::workspace_grows`] (flat when warm) and
//! [`SolverStats::in_place_solves`]. Cache keys are exact bit patterns of
//! (flow, Δt), so nearby-but-distinct operating points never alias.
//!
//! For batch sweeps over many same-(stack, grid) models,
//! [`ThermalModel::export_analysis`] snapshots the frozen symbolic
//! analyses as an `Arc`-shared [`SharedAnalysis`] and
//! [`ThermalModel::adopt_analysis`] installs them in a fresh model, which
//! then skips its own full factorisation entirely (pattern
//! verified on every refactorisation, with a safe local fallback).
//!
//! # Example
//!
//! ```
//! use cmosaic_floorplan::{stack::presets, GridSpec};
//! use cmosaic_thermal::{ThermalModel, ThermalParams};
//! use cmosaic_materials::units::VolumetricFlow;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stack = presets::liquid_cooled_mpsoc(2)?;
//! let grid = GridSpec::new(12, 12)?;
//! let mut model = ThermalModel::new(&stack, grid, ThermalParams::default())?;
//! model.set_flow_rate(VolumetricFlow::from_ml_per_min(32.3))?;
//! // 30 W on the core tier, 10 W on the cache tier, uniformly spread.
//! let powers = vec![
//!     vec![30.0 / 144.0; 144],
//!     vec![10.0 / 144.0; 144],
//! ];
//! let field = model.steady_state(&powers)?;
//! assert!(field.max().to_celsius().0 < 85.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod field;
pub mod model;
pub mod params;
pub mod stencil;

pub use cache::LruCache;
pub use field::TemperatureField;
pub use model::{
    CacheStats, PatternSignature, SharedAnalysis, SolverStats, ThermalModel, TwoPhaseSummary,
};
pub use params::{AdvectionScheme, Coolant, SolverBackend, ThermalParams, TwoPhaseCoolant};
pub use stencil::{StencilInterface, StencilLayer, StencilLayerKind, StencilOperator, StencilSink};

use cmosaic_floorplan::FloorplanError;
use cmosaic_materials::MaterialError;
use cmosaic_sparse::SparseError;

use std::error::Error;
use std::fmt;

/// Errors produced by the thermal model.
#[derive(Debug)]
pub enum ThermalError {
    /// The stack description cannot be simulated (e.g. adjacent cavities).
    UnsupportedStack {
        /// Explanation.
        detail: String,
    },
    /// A power input had the wrong shape.
    PowerShape {
        /// Explanation.
        detail: String,
    },
    /// A flow rate was requested on an air-cooled stack, was non-positive,
    /// or produced an invalid channel operating point.
    InvalidFlow {
        /// Explanation.
        detail: String,
    },
    /// A non-positive timestep was requested.
    InvalidTimestep {
        /// The offending Δt.
        dt: f64,
    },
    /// The two-phase coolant dried out inside a cavity: the operating
    /// point cannot absorb the offered heat without exceeding the critical
    /// vapour quality.
    Dryout {
        /// Cavity layer index (bottom-up).
        cavity: usize,
        /// The quality reached at the worst channel exit.
        quality: f64,
    },
    /// The underlying linear solver failed.
    Solver(SparseError),
    /// A material-property query failed.
    Material(MaterialError),
    /// A floorplan/grid operation failed.
    Floorplan(FloorplanError),
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::UnsupportedStack { detail } => {
                write!(f, "unsupported stack: {detail}")
            }
            ThermalError::PowerShape { detail } => write!(f, "bad power input: {detail}"),
            ThermalError::InvalidFlow { detail } => write!(f, "invalid flow rate: {detail}"),
            ThermalError::InvalidTimestep { dt } => {
                write!(f, "timestep must be positive, got {dt}")
            }
            ThermalError::Dryout { cavity, quality } => write!(
                f,
                "two-phase dry-out in cavity {cavity} (quality {quality:.3})"
            ),
            ThermalError::Solver(e) => write!(f, "linear solver failed: {e}"),
            ThermalError::Material(e) => write!(f, "material property error: {e}"),
            ThermalError::Floorplan(e) => write!(f, "floorplan error: {e}"),
        }
    }
}

impl Error for ThermalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ThermalError::Solver(e) => Some(e),
            ThermalError::Material(e) => Some(e),
            ThermalError::Floorplan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for ThermalError {
    fn from(e: SparseError) -> Self {
        ThermalError::Solver(e)
    }
}

impl From<MaterialError> for ThermalError {
    fn from(e: MaterialError) -> Self {
        ThermalError::Material(e)
    }
}

impl From<FloorplanError> for ThermalError {
    fn from(e: FloorplanError) -> Self {
        ThermalError::Floorplan(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = ThermalError::InvalidTimestep { dt: -1.0 };
        assert!(e.to_string().contains("-1"));
        let e: ThermalError = SparseError::Singular { column: 2 }.into();
        assert!(e.source().is_some());
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ThermalError>();
    }
}
