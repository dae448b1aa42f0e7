//! `cmosaic` — thermally-aware design and run-time thermal management of 3D
//! MPSoCs with inter-tier liquid cooling.
//!
//! This crate is the top of the CMOSAIC (DATE 2011) reproduction stack. It
//! couples the workload, power, thermal and hydraulic substrates into the
//! co-simulation the paper's §IV evaluates, and implements its run-time
//! thermal-management policies:
//!
//! | Policy | Paper name | What it does |
//! |---|---|---|
//! | [`PolicyKind::AcLb`] | `AC_LB` | air-cooled, dynamic load balancing |
//! | [`PolicyKind::AcTdvfsLb`] | `AC_TDVFS_LB` | + temperature-triggered DVFS (down at 85 °C, up at 82 °C) |
//! | [`PolicyKind::LcLb`] | `LC_LB` | liquid-cooled at the maximum flow rate, load balancing |
//! | [`PolicyKind::LcFuzzy`] | `LC_FUZZY` | liquid-cooled, fuzzy joint control of coolant flow rate and per-core DVFS |
//!
//! The headline result reproduces only in part. `LC_FUZZY` keeps every
//! junction below the 85 °C threshold and saves energy against running the
//! pump at the worst-case maximum flow (`LC_LB`), but not by the paper's
//! figures: the paper reports cooling-energy savings of up to 67 % and
//! system-energy savings of up to 30 % (50 % / 52 % and 14 % / 18 % for 2 /
//! 4 tiers in its Fig. 7), while the `fig7_energy` bench measures 45.8 % /
//! 51.9 % and 29.7 % / 33.9 %. Item 1 of the repository's `ROADMAP.md`
//! tracks where the reproduction misses the paper.
//!
//! # The scenario API
//!
//! Every experiment is a [`scenario::ScenarioSpec`]: a typed, validated
//! description of stack geometry (preset tier counts or a custom
//! [`floorplan::stack::Stack3d`]), cooling medium (air, single-phase
//! water, two-phase refrigerant), thermal grid, workload (synthetic
//! benchmark classes or recorded traces), policy, an optional
//! [`scenario::FlowSchedule`] overriding the pump, duration and seed.
//! Cross-field mistakes fail at [`scenario::ScenarioSpec::build`] with a
//! [`CmosaicError::Config`], not deep inside the simulator.
//!
//! Scenario *families* are [`study::Study`] values: axis products over
//! policies, tier counts, workloads, coolants, flow schedules, solver
//! backends, seeds, grids or custom stacks, pruned with `retain` and
//! executed as one batch. The thermal linear solver itself is selectable
//! per scenario ([`scenario::ScenarioSpec::solver`]): direct sparse LU
//! (default), or multigrid-preconditioned BiCGSTAB with automatic direct
//! fallback for fine grids where LU fill bites (`BENCH_iterative.json`
//! has the two level on warm solves at 64², direct LU ahead below and
//! multigrid from 96²).
//! [`observe::Observer`] hooks ride along: per-epoch callbacks receiving
//! an [`observe::EpochCtx`] (temperature field, powers, flow, the policy's
//! action) without forking the simulation loop — built-ins cover peak
//! tracking ([`observe::PeakTemperature`]), energy breakdowns
//! ([`observe::EnergyBreakdown`]) and field snapshots
//! ([`observe::ThermalMap`]).
//!
//! On top of studies sits the [`optimize`] module — the paper's actual
//! point, thermally-aware *design*: a [`optimize::DesignSpace`] of
//! indexable axes (including placement axes built from the deterministic
//! floorplan/stack transformations of `cmosaic_floorplan::transform` via
//! [`optimize::DesignAxis::stack_transforms`]), [`optimize::Constraints`]
//! enforced in-loop by the early-abort [`optimize::ConstraintMonitor`],
//! and seeded deterministic [`optimize::SearchStrategy`]s
//! ([`optimize::GridSearch`], [`optimize::CoordinateDescent`], and the
//! neighbor-move-driven [`optimize::SimulatedAnnealing`]) returning the
//! minimum-cooling-energy design plus the [`optimize::ParetoFront`] of
//! (energy, peak-T, silicon-area) trade-offs.
//!
//! # Batch sweeps and the workspace-reuse contract
//!
//! Design-space exploration runs the same stack family at many operating
//! points. Two layers make that cheap:
//!
//! * **Zero-allocation hot path.** Every [`Simulator`] owns persistent
//!   scratch (a reused [`thermal::TemperatureField`] and sensor buffer)
//!   and drives the thermal model's in-place solve path
//!   ([`thermal::ThermalModel::step_into`]): once an operating point's
//!   operator is cached and the buffers have warmed up, a transient
//!   sub-step performs **no heap allocation** — RHS assembly, triangular
//!   solve and the state ping-pong all happen inside storage allocated at
//!   warm-up. The contract is observable:
//!   [`thermal::SolverStats::workspace_grows`] stays flat on a warm path
//!   (asserted by the test suites) and
//!   [`thermal::SolverStats::in_place_solves`] counts the solves served
//!   that way. Per control interval, only the policy observation and
//!   power-map assembly allocate (small, constant).
//! * **Parallel batch engine.** [`batch::BatchRunner`] fans a scenario
//!   matrix (e.g. [`experiments::fig6_study`]) across a scoped thread
//!   pool. Scenarios are grouped by operator pattern. The runner keeps a
//!   bounded LRU of frozen symbolic LU analyses
//!   ([`thermal::SharedAnalysis`], `Arc`-shared); before a batch runs,
//!   it analyses each pattern the LRU lacks once, and then every scenario
//!   adopts its pattern's analysis, so the expensive full factorisation
//!   runs once per (stack, grid, thermal parameters) pattern per runner.
//!   Outcomes are aggregated by scenario index, and every slot, solver
//!   counters included, is bit-identical at any thread count and cache
//!   warmth.
//!
//! # Fault tolerance and resumable studies
//!
//! Long sweeps must survive their worst cell. The batch engine makes
//! three promises:
//!
//! * **Partial reports.** [`batch::BatchReport`] (and
//!   [`study::StudyReport`]) always covers the whole matrix: each slot
//!   is a `Result`, so one scenario panicking (isolated per attempt via
//!   `catch_unwind`), tripping the per-epoch divergence guard
//!   ([`CmosaicError::Diverged`]) or otherwise failing leaves a
//!   structured [`batch::SlotError`] in its own slot while every healthy
//!   scenario completes and aggregates normally. A pattern whose
//!   analysis fails leaves its scenarios unshared (each analyses on its
//!   own), and no lock is held across a scenario, so nothing waits on a
//!   failed one.
//! * **A deterministic degradation ladder.** Retryable failures
//!   (divergence, linear-solver breakdown) re-run the scenario down a
//!   fixed ladder — backend demotion (multigrid → direct LU, sticky),
//!   then up to two thermal-timestep halvings — recorded per slot in
//!   [`batch::RecoveryRecord`]. The ladder depends only on the scenario,
//!   never on thread scheduling, so reports (including the errors) stay
//!   bit-identical across thread counts.
//! * **Checkpoint/resume.** [`study::Study::run_checkpointed`] journals
//!   every finished slot to an append-only, fingerprint-validated file
//!   ([`checkpoint::StudyJournal`]); a killed study resumes where it
//!   left off and the merged report is bit-identical to an uninterrupted
//!   run at any thread count. Deterministic fault *injection* for
//!   exercising all of this lives in [`fault::FaultPlan`].
//!
//! # Quick start
//!
//! ```
//! use cmosaic::scenario::ScenarioSpec;
//! use cmosaic::policy::PolicyKind;
//! use cmosaic_power::trace::WorkloadKind;
//!
//! # fn main() -> Result<(), cmosaic::CmosaicError> {
//! let metrics = ScenarioSpec::new()
//!     .tiers(2)
//!     .policy(PolicyKind::LcFuzzy)
//!     .workload(WorkloadKind::WebServer)
//!     .seconds(30)
//!     .seed(1)
//!     .build()?
//!     .run()?;
//! assert!(metrics.peak_temperature.to_celsius().0 < 85.0);
//! # Ok(())
//! # }
//! ```
//!
//! A family of scenarios — and a custom per-epoch observer — is a
//! [`study::Study`]:
//!
//! ```
//! use cmosaic::{BatchRunner, ScenarioSpec, Study};
//! use cmosaic::observe::PeakTemperature;
//! use cmosaic::policy::PolicyKind;
//! use cmosaic_floorplan::GridSpec;
//!
//! # fn main() -> Result<(), cmosaic::CmosaicError> {
//! let base = ScenarioSpec::new()
//!     .grid(GridSpec::new(6, 6).expect("static"))
//!     .seconds(2);
//! let runner = BatchRunner::new(2);
//! let (report, peaks) = Study::new(base)
//!     .over_tiers([2, 4])
//!     .over_policies([PolicyKind::LcLb, PolicyKind::LcFuzzy])
//!     .run_observed(&runner, |_, _| PeakTemperature::new())?;
//! assert_eq!(report.len(), 4);
//! assert_eq!(runner.analysis_cache_stats().misses, 2); // one per tier count
//! // Healthy slots keep their observers (`None` marks failed slots).
//! assert!(peaks.iter().all(|p| p.as_ref().is_some_and(|p| p.peak().is_some())));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod checkpoint;
pub mod experiments;
pub mod fault;
pub mod fuzzy;
pub mod metrics;
pub mod observe;
pub mod optimize;
pub mod policy;
pub mod scenario;
pub mod sim;
pub mod study;

pub use batch::{
    AnalysisCacheStats, BatchReport, BatchRunner, RecoveryRecord, ScenarioError, ScenarioOutcome,
    SlotError,
};
pub use checkpoint::StudyJournal;
pub use fault::{FaultKind, FaultPlan};
pub use fuzzy::FuzzyController;
pub use metrics::RunMetrics;
pub use observe::{EpochCtx, Observer};
pub use optimize::{
    ConstraintMonitor, Constraints, CoordinateDescent, DesignAxis, DesignSpace, GridSearch,
    NeighborMove, OptimizeReport, Optimizer, ParetoFront, SimulatedAnnealing,
};
pub use policy::PolicyKind;
pub use scenario::{CoolantChoice, FlowSchedule, Scenario, ScenarioSpec};
pub use sim::{SimConfig, Simulator};
pub use study::{Study, StudyReport};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use cmosaic_floorplan as floorplan;
pub use cmosaic_hydraulics as hydraulics;
pub use cmosaic_materials as materials;
pub use cmosaic_power as power;
pub use cmosaic_sparse as sparse;
pub use cmosaic_thermal as thermal;
pub use cmosaic_twophase as twophase;

use std::error::Error;
use std::fmt;

/// Top-level error type: wraps the substrate errors plus configuration
/// problems specific to the co-simulation.
#[derive(Debug)]
pub enum CmosaicError {
    /// Inconsistent simulation configuration.
    Config {
        /// Explanation.
        detail: String,
    },
    /// The simulation produced a non-finite or physically implausible
    /// temperature — the per-epoch divergence guard tripped (a NaN/Inf
    /// from a numerically broken solve, or a cell outside the plausible
    /// band). The field is reported at the first offending epoch, so the
    /// bad values never reach observers, metrics or Pareto fronts.
    Diverged {
        /// Control interval at which the guard tripped.
        epoch: usize,
        /// Lowest offending cell index (layer-major).
        cell: usize,
        /// The offending temperature, kelvin (may be NaN/Inf).
        value: f64,
    },
    /// A scenario inside a batch failed — the strict wrappers of the
    /// fault-tolerant batch API ([`Study::run`](study::Study::run))
    /// surface the lowest-indexed slot
    /// error this way. The fault-tolerant path itself
    /// ([`BatchRunner::run_scenarios`](batch::BatchRunner::run_scenarios))
    /// never returns this: it reports per-slot
    /// [`SlotError`]s instead.
    Scenario {
        /// Position of the failing scenario in the batch.
        index: usize,
        /// Rendered slot error.
        detail: String,
    },
    /// Reading or writing a study checkpoint journal failed, or an
    /// existing journal does not belong to the study being resumed
    /// (version, fingerprint or scenario-count mismatch).
    Journal {
        /// Explanation.
        detail: String,
    },
    /// Floorplan/stack construction failed.
    Floorplan(cmosaic_floorplan::FloorplanError),
    /// Power-model failure.
    Power(cmosaic_power::PowerError),
    /// Thermal-model failure.
    Thermal(cmosaic_thermal::ThermalError),
    /// Hydraulic-model failure.
    Hydraulics(cmosaic_hydraulics::HydraulicsError),
}

impl fmt::Display for CmosaicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmosaicError::Config { detail } => write!(f, "configuration error: {detail}"),
            CmosaicError::Diverged { epoch, cell, value } => write!(
                f,
                "simulation diverged at epoch {epoch}: cell {cell} reached {value} K"
            ),
            CmosaicError::Scenario { index, detail } => {
                write!(f, "scenario {index} failed: {detail}")
            }
            CmosaicError::Journal { detail } => write!(f, "journal error: {detail}"),
            CmosaicError::Floorplan(e) => write!(f, "floorplan error: {e}"),
            CmosaicError::Power(e) => write!(f, "power model error: {e}"),
            CmosaicError::Thermal(e) => write!(f, "thermal model error: {e}"),
            CmosaicError::Hydraulics(e) => write!(f, "hydraulics error: {e}"),
        }
    }
}

impl Error for CmosaicError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CmosaicError::Config { .. } => None,
            CmosaicError::Diverged { .. } => None,
            CmosaicError::Scenario { .. } => None,
            CmosaicError::Journal { .. } => None,
            CmosaicError::Floorplan(e) => Some(e),
            CmosaicError::Power(e) => Some(e),
            CmosaicError::Thermal(e) => Some(e),
            CmosaicError::Hydraulics(e) => Some(e),
        }
    }
}

impl From<cmosaic_floorplan::FloorplanError> for CmosaicError {
    fn from(e: cmosaic_floorplan::FloorplanError) -> Self {
        CmosaicError::Floorplan(e)
    }
}

impl From<cmosaic_power::PowerError> for CmosaicError {
    fn from(e: cmosaic_power::PowerError) -> Self {
        CmosaicError::Power(e)
    }
}

impl From<cmosaic_thermal::ThermalError> for CmosaicError {
    fn from(e: cmosaic_thermal::ThermalError) -> Self {
        CmosaicError::Thermal(e)
    }
}

impl From<cmosaic_hydraulics::HydraulicsError> for CmosaicError {
    fn from(e: cmosaic_hydraulics::HydraulicsError) -> Self {
        CmosaicError::Hydraulics(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_wrapping() {
        let e: CmosaicError = cmosaic_power::PowerError::InvalidUtilization { value: 2.0 }.into();
        assert!(e.to_string().contains("power model"));
        assert!(e.source().is_some());
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CmosaicError>();
    }
}
