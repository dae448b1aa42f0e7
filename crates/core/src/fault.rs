//! Seeded fault injection for exercising the fault-tolerance machinery.
//!
//! A [`FaultPlan`] is a deterministic list of faults fired inside
//! [`Simulator::run_observed`](crate::Simulator) at chosen control
//! intervals: a worker panic, a NaN poisoned into the temperature field
//! (tripping the per-epoch divergence guard), or an iterative-solver
//! breakdown (exercising the retry ladder's backend demotion). The plan
//! rides [`ScenarioSpec::fault_plan`](crate::ScenarioSpec::fault_plan)
//! into the frozen [`SimConfig`](crate::SimConfig), so a faulty scenario
//! is an ordinary batch citizen — same grouping, same determinism — which
//! is exactly what the failure-path integration suite needs: failures at
//! known indices and epochs, reproducible at any thread count.
//!
//! Production scenarios simply leave the plan empty (the default); an
//! empty plan is checked per epoch with two integer comparisons and never
//! allocates.

use cmosaic_thermal::SolverBackend;

/// One injected fault, anchored to a control interval.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Panic at the start of the epoch — models a bug in policy/observer
    /// code. Panics are non-retryable: the batch isolates them and
    /// reports [`ScenarioError::Panicked`](crate::ScenarioError).
    Panic,
    /// Poison one temperature cell with NaN at the end of the epoch's
    /// sub-steps, immediately before the divergence guard runs. Fires on
    /// every attempt regardless of solver backend or timestep, so a
    /// scenario carrying it exhausts the whole retry ladder.
    Nan {
        /// Cell (layer-major) to poison.
        cell: usize,
    },
    /// Like [`FaultKind::Nan`], but only while the thermal timestep is
    /// strictly above `dt_above` — cleared by the retry ladder's
    /// Δt-halving rung, the stand-in for a genuinely marginal operating
    /// point that converges under a finer step.
    NanAboveDt {
        /// Cell (layer-major) to poison.
        cell: usize,
        /// The fault fires only while `thermal_dt > dt_above`.
        dt_above: f64,
    },
    /// Surface an iterative-solver breakdown at the start of the epoch,
    /// but only while the configured backend is iterative
    /// ([`SolverBackend::IterativeMg`]) — cleared by the retry ladder's
    /// one demotion to the direct backend.
    IterativeBreakdown,
}

/// A deterministic schedule of injected faults (test harness; see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    faults: Vec<(usize, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; the default everywhere).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at control interval `epoch`.
    pub fn at(mut self, epoch: usize, kind: FaultKind) -> Self {
        self.faults.push((epoch, kind));
        self
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// `true` if a [`FaultKind::Panic`] is scheduled at `epoch`.
    pub(crate) fn panics_at(&self, epoch: usize) -> bool {
        self.faults
            .iter()
            .any(|(e, k)| *e == epoch && matches!(k, FaultKind::Panic))
    }

    /// `true` if an [`FaultKind::IterativeBreakdown`] is scheduled at
    /// `epoch` and the backend is currently iterative.
    pub(crate) fn breaks_down_at(&self, epoch: usize, backend: &SolverBackend) -> bool {
        backend.is_iterative()
            && self
                .faults
                .iter()
                .any(|(e, k)| *e == epoch && matches!(k, FaultKind::IterativeBreakdown))
    }

    /// The cell to poison with NaN at `epoch` under the current thermal
    /// timestep, if any NaN-class fault is armed.
    pub(crate) fn nan_cell_at(&self, epoch: usize, thermal_dt: f64) -> Option<usize> {
        self.faults.iter().find_map(|(e, k)| {
            if *e != epoch {
                return None;
            }
            match k {
                FaultKind::Nan { cell } => Some(*cell),
                FaultKind::NanAboveDt { cell, dt_above } if thermal_dt > *dt_above => Some(*cell),
                _ => None,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_fires_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.panics_at(0));
        assert!(!p.breaks_down_at(0, &SolverBackend::multigrid()));
        assert_eq!(p.nan_cell_at(0, 0.25), None);
    }

    #[test]
    fn faults_fire_only_under_their_arming_conditions() {
        let p = FaultPlan::none()
            .at(1, FaultKind::Panic)
            .at(2, FaultKind::IterativeBreakdown)
            .at(3, FaultKind::Nan { cell: 9 })
            .at(
                4,
                FaultKind::NanAboveDt {
                    cell: 5,
                    dt_above: 0.3,
                },
            );
        assert!(!p.is_empty());
        assert!(p.panics_at(1) && !p.panics_at(2));
        // Breakdown fires only under the iterative backend.
        assert!(p.breaks_down_at(2, &SolverBackend::multigrid()));
        assert!(!p.breaks_down_at(2, &SolverBackend::DirectLu));
        assert!(!p.breaks_down_at(1, &SolverBackend::multigrid()));
        // Plain NaN ignores the timestep; the dt-gated one clears when
        // the step is halved below its bound.
        assert_eq!(p.nan_cell_at(3, 0.5), Some(9));
        assert_eq!(p.nan_cell_at(3, 0.125), Some(9));
        assert_eq!(p.nan_cell_at(4, 0.5), Some(5));
        assert_eq!(p.nan_cell_at(4, 0.25), None);
    }
}
