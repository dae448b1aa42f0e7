//! Constrained design-space optimization over scenario axes: find the
//! stack configuration and cooling operating point that minimize cooling
//! energy subject to temperature ceilings — the "thermally-aware design"
//! loop the paper argues for.
//!
//! The pieces:
//!
//! * a [`DesignSpace`]: a base [`ScenarioSpec`](crate::ScenarioSpec) plus
//!   indexable axes (tier counts, coolants, flow rates/schedules, or any
//!   custom transformation — all built through the one generalized
//!   [`DesignAxis::over`] constructor) — unlike a
//!   [`Study`](crate::study::Study)'s flat expansion, designs stay
//!   addressable by per-axis level indices, so adaptive strategies can
//!   move coordinate-wise. [`DesignAxis::stack_transforms`] makes
//!   *physical design* an axis: levels are deterministic placement moves
//!   (block swaps, hot-spot spreads, per-gap cavity toggles from
//!   [`cmosaic_floorplan::transform`]) applied to the design's resolved
//!   stack;
//! * [`Constraints`]: the peak-temperature ceiling (85 °C in the paper)
//!   plus optional per-tier ceilings, enforced *inside* the loop by the
//!   early-abort [`ConstraintMonitor`] observer — an infeasible design
//!   costs only the epochs up to its first violation;
//! * an [`Evaluator`]: batches un-cached designs through the
//!   [`BatchRunner`] (inheriting one
//!   [`SharedAnalysis`](cmosaic_thermal::SharedAnalysis) per pattern,
//!   kept in the runner's analysis cache across evaluation batches and
//!   strategies, and any-thread-count bit-identity), memoizing every
//!   evaluation so revisits are free;
//! * [`SearchStrategy`] implementations sharing that evaluator:
//!   exhaustive [`GridSearch`], the adaptive, seeded
//!   [`CoordinateDescent`], and the seeded, bit-reproducible
//!   [`SimulatedAnnealing`] whose [`NeighborMove`] trait lets placement
//!   axes expose *moves* instead of exhaustively enumerated levels;
//! * an [`OptimizeReport`]: the best feasible design, the ranked
//!   [`ParetoFront`] of (cooling energy, peak temperature, silicon area)
//!   trade-offs, and the search-cost counters (evaluations,
//!   evaluations-to-optimum, memo hits, epochs saved by the early
//!   abort).
//!
//! Everything is deterministic: given the same space, constraints, seed
//! and strategy, the report is bit-identical across reruns and across
//! `BatchRunner` thread counts.
//!
//! ```
//! use cmosaic::batch::BatchRunner;
//! use cmosaic::optimize::{Constraints, DesignAxis, DesignSpace, GridSearch, Optimizer};
//! use cmosaic::policy::PolicyKind;
//! use cmosaic::scenario::ScenarioSpec;
//! use cmosaic_floorplan::GridSpec;
//! use cmosaic_materials::units::{Celsius, VolumetricFlow};
//!
//! # fn main() -> Result<(), cmosaic::CmosaicError> {
//! let ml = VolumetricFlow::from_ml_per_min;
//! let space = DesignSpace::new(
//!     ScenarioSpec::new()
//!         .policy(PolicyKind::LcLb)
//!         .grid(GridSpec::new(6, 6).expect("static"))
//!         .seconds(2),
//! )
//! .with_axis(DesignAxis::flow_rates([ml(8.0), ml(32.3)]));
//! let runner = BatchRunner::new(2);
//! let report = Optimizer::new(space, Constraints::peak_below(Celsius(85.0)), &runner)
//!     .run(&mut GridSearch)?;
//! let best = report.best.as_ref().expect("a feasible design exists");
//! assert!(best.feasible);
//! assert_eq!(report.front.min_energy().unwrap().design, best.design);
//! # Ok(())
//! # }
//! ```

mod anneal;
mod constraints;
mod descent;
mod grid;
mod pareto;
mod space;

pub use anneal::{AxisNudge, AxisStep, NeighborMove, SimulatedAnnealing};
pub use constraints::{ConstraintMonitor, Constraints, Violation};
pub use descent::CoordinateDescent;
pub use grid::GridSearch;
pub use pareto::{ParetoFront, ParetoPoint};
pub use space::{DesignAxis, DesignLevel, DesignPoint, DesignSpace, StackTransform};

use std::collections::{HashMap, HashSet};

use cmosaic_materials::units::Kelvin;

use crate::batch::{BatchRunner, SlotError};
use crate::metrics::RunMetrics;
use crate::observe::{EnergyBreakdown, PeakTemperature};
use crate::CmosaicError;

/// Everything one design evaluation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The design's level indices.
    pub design: DesignPoint,
    /// Human-readable design label.
    pub label: String,
    /// Cooling (pump) energy over the run, joules — the objective, from
    /// the [`EnergyBreakdown`] observer. Partial for aborted runs.
    pub pump_energy: f64,
    /// Peak junction temperature over the run (sub-step granularity).
    pub peak: Kelvin,
    /// Silicon/stack area of the design, m² (see
    /// [`Stack3d::silicon_area`](cmosaic_floorplan::Stack3d::silicon_area))
    /// — the third objective of the multi-objective front.
    pub area: f64,
    /// Per-tier peak junction temperatures at control-interval
    /// granularity (from [`PeakTemperature`]).
    pub per_tier_peak: Vec<Kelvin>,
    /// `true` when no constraint was violated over the whole run.
    pub feasible: bool,
    /// The first observed violation of an infeasible design.
    pub violation: Option<Violation>,
    /// Control intervals actually simulated (< budget after an early
    /// abort).
    pub epochs_run: usize,
    /// Control intervals a full run would have cost.
    pub epochs_budget: usize,
    /// The run's aggregate metrics (partial for aborted runs).
    pub metrics: RunMetrics,
}

impl Evaluation {
    /// Strategy-facing total order: feasible beats infeasible; among
    /// feasible designs lower cooling energy wins (ties: lower peak, then
    /// smaller silicon area, then lower level indices); among infeasible
    /// designs the cooler one wins (the gradient an adaptive search
    /// climbs back to feasibility on).
    pub fn better_than(&self, other: &Evaluation) -> bool {
        match (self.feasible, other.feasible) {
            (true, false) => true,
            (false, true) => false,
            (true, true) => {
                (
                    self.pump_energy,
                    self.peak.0,
                    self.area,
                    self.design.indices(),
                ) < (
                    other.pump_energy,
                    other.peak.0,
                    other.area,
                    other.design.indices(),
                )
            }
            (false, false) => {
                (self.peak.0, self.design.indices()) < (other.peak.0, other.design.indices())
            }
        }
    }
}

/// Where one design landed in the evaluator's bookkeeping.
enum Slot {
    /// Index into `evaluations`.
    Done(usize),
    /// Index into `skipped`: the spec failed build-time validation.
    Invalid(usize),
    /// Index into `failed`: the scenario failed at *run* time (panic,
    /// divergence, exhausted retry ladder) and the batch isolated it.
    Failed(usize),
}

/// Memoizing batch evaluator handed to a [`SearchStrategy`].
///
/// Un-cached designs are resolved, validated and executed as one
/// [`BatchRunner`] batch (the same engine a [`Study`](crate::study::Study)
/// runs on) with a `(PeakTemperature, EnergyBreakdown, ConstraintMonitor)`
/// observer apiece; designs whose spec fails validation (e.g. a two-phase
/// coolant crossed with a flow schedule) are recorded as *skipped*, not
/// errors — a design space may legitimately contain
/// invalid-by-construction corners.
pub struct Evaluator<'a> {
    space: &'a DesignSpace,
    constraints: &'a Constraints,
    runner: &'a BatchRunner,
    early_abort: bool,
    slots: HashMap<DesignPoint, Slot>,
    evaluations: Vec<Evaluation>,
    skipped: Vec<(DesignPoint, CmosaicError)>,
    failed: Vec<(DesignPoint, SlotError)>,
    eval_requests: usize,
    memo_hits: usize,
}

impl<'a> Evaluator<'a> {
    fn new(
        space: &'a DesignSpace,
        constraints: &'a Constraints,
        runner: &'a BatchRunner,
        early_abort: bool,
    ) -> Self {
        Evaluator {
            space,
            constraints,
            runner,
            early_abort,
            slots: HashMap::new(),
            evaluations: Vec::new(),
            skipped: Vec::new(),
            failed: Vec::new(),
            eval_requests: 0,
            memo_hits: 0,
        }
    }

    /// The space under search.
    pub fn space(&self) -> &DesignSpace {
        self.space
    }

    /// Evaluates every not-yet-seen design in `points` as one batch
    /// (cached, invalid and previously-failed designs cost nothing).
    ///
    /// # Errors
    ///
    /// Currently none: build-time validation failures are recorded as
    /// *skipped* designs, and run-time failures (the batch isolates
    /// panics/divergence per slot) as *failed* designs — both queryable
    /// afterwards, neither aborting the search. The signature stays
    /// fallible for [`SearchStrategy`] implementations.
    pub fn evaluate_all(&mut self, points: &[DesignPoint]) -> Result<(), CmosaicError> {
        let mut batch: Vec<DesignPoint> = Vec::new();
        let mut queued: HashSet<&DesignPoint> = HashSet::new();
        for p in points {
            self.eval_requests += 1;
            if !self.slots.contains_key(p) && queued.insert(p) {
                batch.push(p.clone());
            } else {
                self.memo_hits += 1;
            }
        }
        let mut valid = Vec::with_capacity(batch.len());
        let mut scenarios = Vec::with_capacity(batch.len());
        for p in batch {
            // Resolve and build once: the resolved Scenario is what the
            // runner executes (a rebuild would regenerate every workload
            // trace). A failing level transform (a placement move that
            // does not apply) is a skip, exactly like a build failure.
            match self.space.spec(&p).and_then(|spec| spec.build()) {
                Ok(scenario) => {
                    valid.push(p);
                    scenarios.push(scenario);
                }
                Err(e) => {
                    self.slots
                        .insert(p.clone(), Slot::Invalid(self.skipped.len()));
                    self.skipped.push((p, e));
                }
            }
        }
        if scenarios.is_empty() {
            return Ok(());
        }
        let constraints = self.constraints.clone();
        let abort = self.early_abort;
        let (report, observers) = self.runner.run_scenarios_observed(&scenarios, |_, _| {
            let monitor = ConstraintMonitor::new(constraints.clone());
            (
                PeakTemperature::new(),
                EnergyBreakdown::new(),
                if abort {
                    monitor
                } else {
                    monitor.observe_only()
                },
            )
        });
        let ceiling_k = self.constraints.peak_ceiling().to_kelvin();
        for (((point, slot), observer), scenario) in valid
            .into_iter()
            .zip(&report.slots)
            .zip(observers)
            .zip(&scenarios)
        {
            let (outcome, (peak_obs, energy, monitor)) = match (slot, observer) {
                (Ok(outcome), Some(obs)) => (outcome, obs),
                // The batch isolated a run-time failure to this design's
                // slot; record it and keep searching.
                (Err(e), _) => {
                    self.slots
                        .insert(point.clone(), Slot::Failed(self.failed.len()));
                    self.failed.push((point, e.clone()));
                    continue;
                }
                (Ok(_), None) => unreachable!("successful slots keep their observers"),
            };
            let budget = scenario.seconds();
            let metrics = outcome.metrics.clone();
            let peak = metrics.peak_temperature;
            let violation = monitor.violation().cloned();
            // Feasibility combines the monitor's epoch-granular verdict
            // with the metrics' sub-step-granular peak, so a transient
            // spike between interval ends still disqualifies a design.
            let feasible = violation.is_none() && peak.0 <= ceiling_k.0;
            let eval = Evaluation {
                label: self.space.label_of(&point),
                design: point.clone(),
                pump_energy: energy.pump_joules(),
                peak,
                area: scenario.stack().silicon_area(),
                per_tier_peak: peak_obs.per_tier().to_vec(),
                feasible,
                violation,
                epochs_run: monitor.epochs_seen(),
                epochs_budget: budget,
                metrics,
            };
            self.slots.insert(point, Slot::Done(self.evaluations.len()));
            self.evaluations.push(eval);
        }
        Ok(())
    }

    /// The cached evaluation of one design, if it ran to completion.
    pub fn evaluation(&self, point: &DesignPoint) -> Option<&Evaluation> {
        match self.slots.get(point)? {
            Slot::Done(i) => Some(&self.evaluations[*i]),
            Slot::Invalid(_) | Slot::Failed(_) => None,
        }
    }

    /// Why a design was skipped, if its spec failed validation.
    pub fn skip_reason(&self, point: &DesignPoint) -> Option<&CmosaicError> {
        match self.slots.get(point)? {
            Slot::Invalid(i) => Some(&self.skipped[*i].1),
            Slot::Done(_) | Slot::Failed(_) => None,
        }
    }

    /// Why a design failed at run time, if the batch isolated it.
    pub fn failure_reason(&self, point: &DesignPoint) -> Option<&SlotError> {
        match self.slots.get(point)? {
            Slot::Failed(i) => Some(&self.failed[*i].1),
            Slot::Done(_) | Slot::Invalid(_) => None,
        }
    }

    /// Every evaluation so far, in evaluation order.
    pub fn evaluations(&self) -> &[Evaluation] {
        &self.evaluations
    }

    /// Designs whose spec failed build-time validation, with the error.
    pub fn skipped(&self) -> &[(DesignPoint, CmosaicError)] {
        &self.skipped
    }

    /// Designs that failed at run time (panic, divergence, exhausted
    /// retry ladder), with the structured slot error.
    pub fn failures(&self) -> &[(DesignPoint, SlotError)] {
        &self.failed
    }

    /// Total designs requested through [`Evaluator::evaluate_all`]
    /// (including revisits).
    pub fn eval_requests(&self) -> usize {
        self.eval_requests
    }

    /// Requests satisfied from the memo (already-seen designs, including
    /// duplicates inside one batch) — the work the memoization saved.
    pub fn memo_hits(&self) -> usize {
        self.memo_hits
    }

    /// The best feasible evaluation so far (see
    /// [`Evaluation::better_than`]), if any design was feasible.
    pub fn best(&self) -> Option<&Evaluation> {
        self.evaluations
            .iter()
            .filter(|e| e.feasible)
            .fold(None, |best, e| match best {
                Some(b) if !e.better_than(b) => Some(b),
                _ => Some(e),
            })
    }

    fn into_report(self, strategy: &str) -> OptimizeReport {
        let best = self.best().cloned();
        let mut front = ParetoFront::new();
        for e in self.evaluations.iter().filter(|e| e.feasible) {
            front.insert(ParetoPoint {
                design: e.design.clone(),
                label: e.label.clone(),
                pump_energy: e.pump_energy,
                peak: e.peak,
                area: e.area,
            });
        }
        let evals_to_best = best.as_ref().map(|b| {
            1 + self
                .evaluations
                .iter()
                .position(|e| e.design == b.design)
                .expect("best came from evaluations")
        });
        OptimizeReport {
            strategy: strategy.to_string(),
            epochs_run: self.evaluations.iter().map(|e| e.epochs_run).sum(),
            epochs_budget: self.evaluations.iter().map(|e| e.epochs_budget).sum(),
            skipped: self.skipped.len(),
            failed: self.failed.len(),
            eval_requests: self.eval_requests,
            memo_hits: self.memo_hits,
            best,
            front,
            evals_to_best,
            evaluations: self.evaluations,
        }
    }
}

/// A search strategy: drives an [`Evaluator`] over the design space. The
/// surrounding [`Optimizer`] turns whatever the strategy explored into
/// the [`OptimizeReport`], so a strategy only decides *which* designs to
/// evaluate, in what order.
pub trait SearchStrategy {
    /// Short strategy name for reports ("grid", "coordinate-descent").
    fn name(&self) -> &str;

    /// Explores the space (all of it, or an adaptive subset).
    ///
    /// # Errors
    ///
    /// Forwards evaluation errors.
    fn explore(&mut self, evaluator: &mut Evaluator<'_>) -> Result<(), CmosaicError>;
}

/// The result of one optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeReport {
    /// Name of the strategy that produced it.
    pub strategy: String,
    /// The best feasible design found, if any.
    pub best: Option<Evaluation>,
    /// The (cooling energy, peak temperature, silicon area) Pareto front
    /// over every feasible design evaluated, cheapest cooling first.
    pub front: ParetoFront,
    /// Every design evaluated, in evaluation order.
    pub evaluations: Vec<Evaluation>,
    /// Designs skipped because their spec failed build-time validation.
    pub skipped: usize,
    /// Designs that failed at run time and were isolated to their slots
    /// by the fault-tolerant batch (never aborting the search).
    pub failed: usize,
    /// 1-based position of the best design in the evaluation order — the
    /// "evaluations-to-optimum" cost of the strategy.
    pub evals_to_best: Option<usize>,
    /// Total design evaluations the strategy requested (revisits
    /// included).
    pub eval_requests: usize,
    /// Requests the memoization satisfied without simulating anything.
    pub memo_hits: usize,
    /// Control intervals actually simulated across all evaluations.
    pub epochs_run: usize,
    /// Control intervals the same evaluations would have cost without the
    /// early abort.
    pub epochs_budget: usize,
}

impl OptimizeReport {
    /// Number of designs evaluated.
    pub fn n_evaluations(&self) -> usize {
        self.evaluations.len()
    }

    /// Fraction of evaluation requests the memoization satisfied without
    /// simulating anything (0 when nothing was requested).
    pub fn memo_hit_rate(&self) -> f64 {
        if self.eval_requests == 0 {
            0.0
        } else {
            self.memo_hits as f64 / self.eval_requests as f64
        }
    }

    /// Fraction of the epoch budget the early abort saved (0 when every
    /// evaluated design was feasible, or with the abort disabled).
    pub fn early_abort_savings(&self) -> f64 {
        if self.epochs_budget == 0 {
            0.0
        } else {
            1.0 - self.epochs_run as f64 / self.epochs_budget as f64
        }
    }
}

/// Ties a [`DesignSpace`], [`Constraints`] and a
/// [`BatchRunner`] together and runs
/// [`SearchStrategy`]s over them.
pub struct Optimizer<'a> {
    space: DesignSpace,
    constraints: Constraints,
    runner: &'a BatchRunner,
    early_abort: bool,
}

impl<'a> Optimizer<'a> {
    /// An optimizer with the infeasibility early abort enabled.
    pub fn new(space: DesignSpace, constraints: Constraints, runner: &'a BatchRunner) -> Self {
        Optimizer {
            space,
            constraints,
            runner,
            early_abort: true,
        }
    }

    /// Disables the early abort: infeasible designs run to completion
    /// (for measuring what the abort saves). Feasible designs are
    /// unaffected, so the best design and the front do not change.
    pub fn without_early_abort(mut self) -> Self {
        self.early_abort = false;
        self
    }

    /// The space under search.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The feasibility constraints.
    pub fn constraints(&self) -> &Constraints {
        &self.constraints
    }

    /// Runs one strategy from a fresh (empty) evaluation cache.
    ///
    /// # Errors
    ///
    /// Forwards evaluation errors.
    pub fn run(&self, strategy: &mut dyn SearchStrategy) -> Result<OptimizeReport, CmosaicError> {
        let mut evaluator = Evaluator::new(
            &self.space,
            &self.constraints,
            self.runner,
            self.early_abort,
        );
        strategy.explore(&mut evaluator)?;
        Ok(evaluator.into_report(strategy.name()))
    }

    /// Runs one strategy with the evaluation cache warm-started from a
    /// prior report — the in-memory resume path: designs the prior run
    /// already evaluated cost nothing, so an interrupted or extended
    /// search picks up where it stopped. The prior report must come from
    /// the same space, constraints and scenario parameters; cached
    /// evaluations are trusted verbatim.
    ///
    /// # Errors
    ///
    /// Forwards evaluation errors.
    pub fn run_seeded(
        &self,
        strategy: &mut dyn SearchStrategy,
        prior: &OptimizeReport,
    ) -> Result<OptimizeReport, CmosaicError> {
        let mut evaluator = Evaluator::new(
            &self.space,
            &self.constraints,
            self.runner,
            self.early_abort,
        );
        for e in &prior.evaluations {
            evaluator
                .slots
                .insert(e.design.clone(), Slot::Done(evaluator.evaluations.len()));
            evaluator.evaluations.push(e.clone());
        }
        strategy.explore(&mut evaluator)?;
        Ok(evaluator.into_report(strategy.name()))
    }
}
