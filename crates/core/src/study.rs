//! Scenario-family studies: expand axes into a matrix, execute it as one
//! batch.
//!
//! A [`Study`] starts from one base [`ScenarioSpec`] and grows a scenario
//! matrix by cartesian products: each `over_*` call multiplies the current
//! scenario list by one axis (policies, tier counts, workloads, coolants,
//! flow schedules, seeds, grids — or any custom transformation through
//! [`Study::over_with`]). [`Study::retain`] prunes cells the experiment
//! does not define (e.g. the paper's figures omit `AC_TDVFS_LB` at 4
//! tiers), and [`Study::chain`] concatenates independently-built families.
//!
//! [`Study::run`] executes the matrix through a
//! [`BatchRunner`], inheriting its guarantees:
//! scenarios sharing a thermal-operator pattern adopt **one** analysis
//! between them (a [`SharedAnalysis`](cmosaic_thermal::SharedAnalysis)
//! the runner analyses before the batch runs), and the runner analyses
//! nothing for a pattern it met in an earlier batch; the report is
//! bit-identical at any thread count and cache warmth, and run-time
//! failures (panics, divergence, exhausted retry ladders) stay in their
//! own slots ([`StudyReport::slots`]) instead of discarding the family's
//! healthy results. [`Study::run_observed`] additionally hooks one
//! [`Observer`] per scenario into the loop, and
//! [`Study::run_checkpointed`] journals every finished slot to disk so a
//! killed study resumes where it left off — bit-identical to the
//! uninterrupted run.
//!
//! ```
//! use cmosaic::scenario::ScenarioSpec;
//! use cmosaic::study::Study;
//! use cmosaic::batch::BatchRunner;
//! use cmosaic::policy::PolicyKind;
//! use cmosaic_power::trace::WorkloadKind;
//! use cmosaic_floorplan::GridSpec;
//!
//! # fn main() -> Result<(), cmosaic::CmosaicError> {
//! let base = ScenarioSpec::new()
//!     .grid(GridSpec::new(6, 6).expect("static"))
//!     .seconds(2);
//! let report = Study::new(base)
//!     .over_tiers([2, 4])
//!     .over_policies([PolicyKind::LcLb, PolicyKind::LcFuzzy])
//!     .over_workloads([WorkloadKind::WebServer])
//!     .run(&BatchRunner::new(2))?;
//! assert_eq!(report.len(), 4);
//! assert_eq!(report.pattern_groups(), 2); // one per tier count
//! # Ok(())
//! # }
//! ```

use cmosaic_floorplan::stack::Stack3d;
use cmosaic_floorplan::GridSpec;
use cmosaic_power::trace::WorkloadKind;
use cmosaic_power::AllocatorPreset;
use cmosaic_thermal::SolverBackend;

use std::path::Path;

use crate::batch::{BatchReport, BatchRunner, ScenarioOutcome, SlotError};
use crate::checkpoint::{self, StudyJournal};
use crate::metrics::RunMetrics;
use crate::observe::Observer;
use crate::policy::PolicyKind;
use crate::scenario::{CoolantChoice, FlowSchedule, Scenario, ScenarioSpec};
use crate::CmosaicError;

/// A family of scenarios built by axis expansion from one base spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Study {
    specs: Vec<ScenarioSpec>,
}

impl Study {
    /// A study containing just the base scenario.
    pub fn new(base: ScenarioSpec) -> Self {
        Study { specs: vec![base] }
    }

    /// A study over an explicit list of specs (for families no cartesian
    /// product expresses).
    pub fn from_specs(specs: Vec<ScenarioSpec>) -> Self {
        Study { specs }
    }

    /// Multiplies the matrix by a policy axis. For each existing scenario
    /// and each policy, the air/water coolant choice follows the policy's
    /// cooling mode (a two-phase coolant is preserved as-is and left to
    /// build-time validation).
    pub fn over_policies(self, policies: impl IntoIterator<Item = PolicyKind> + Clone) -> Self {
        self.over_with(|spec| {
            policies
                .clone()
                .into_iter()
                .map(|p| {
                    let s = spec.clone().policy(p);
                    match (p.is_liquid_cooled(), s.coolant_choice()) {
                        (false, CoolantChoice::Water) => s.air(),
                        (true, CoolantChoice::Air) => s.water(),
                        _ => s,
                    }
                })
                .collect()
        })
    }

    /// Multiplies the matrix by a power-allocator preset axis
    /// (homogeneous Niagara vs. the heterogeneous pricing presets).
    /// Usually paired with [`Study::over_stacks`] over the matching
    /// heterogeneous floorplans — the allocator prices whatever block
    /// kinds the stack declares.
    pub fn over_allocators(
        self,
        presets: impl IntoIterator<Item = AllocatorPreset> + Clone,
    ) -> Self {
        self.over_with(|spec| {
            presets
                .clone()
                .into_iter()
                .map(|a| spec.clone().allocator(a))
                .collect()
        })
    }

    /// Multiplies the matrix by a preset tier-count axis.
    pub fn over_tiers(self, tiers: impl IntoIterator<Item = usize> + Clone) -> Self {
        self.over_with(|spec| {
            tiers
                .clone()
                .into_iter()
                .map(|t| spec.clone().tiers(t))
                .collect()
        })
    }

    /// Multiplies the matrix by a workload axis.
    pub fn over_workloads(self, workloads: impl IntoIterator<Item = WorkloadKind> + Clone) -> Self {
        self.over_with(|spec| {
            workloads
                .clone()
                .into_iter()
                .map(|w| spec.clone().workload(w))
                .collect()
        })
    }

    /// Multiplies the matrix by a coolant axis (pair with
    /// [`Study::over_policies`] or a fixed policy of the matching cooling
    /// mode).
    pub fn over_coolants(self, coolants: impl IntoIterator<Item = CoolantChoice> + Clone) -> Self {
        self.over_with(|spec| {
            coolants
                .clone()
                .into_iter()
                .map(|c| spec.clone().coolant(c))
                .collect()
        })
    }

    /// Multiplies the matrix by a flow-schedule axis.
    pub fn over_flow_schedules(
        self,
        schedules: impl IntoIterator<Item = FlowSchedule> + Clone,
    ) -> Self {
        self.over_with(|spec| {
            schedules
                .clone()
                .into_iter()
                .map(|f| spec.clone().flow_schedule(f))
                .collect()
        })
    }

    /// Multiplies the matrix by a fixed per-cavity flow-rate axis
    /// (shorthand for [`FlowSchedule::Fixed`] schedules).
    pub fn over_flow_rates(
        self,
        rates: impl IntoIterator<Item = cmosaic_materials::units::VolumetricFlow> + Clone,
    ) -> Self {
        self.over_with(|spec| {
            rates
                .clone()
                .into_iter()
                .map(|q| spec.clone().flow_schedule(FlowSchedule::Fixed(q)))
                .collect()
        })
    }

    /// Multiplies the matrix by a thermal solver-backend axis
    /// (direct-vs-iterative comparison studies). Scenarios differing only
    /// in backend form separate operator-pattern groups, so each backend
    /// keeps its own bit-reproducibility guarantee.
    pub fn over_solvers(self, backends: impl IntoIterator<Item = SolverBackend> + Clone) -> Self {
        self.over_with(|spec| {
            backends
                .clone()
                .into_iter()
                .map(|b| spec.clone().solver(b))
                .collect()
        })
    }

    /// Multiplies the matrix by a seed axis (statistical replication).
    pub fn over_seeds(self, seeds: impl IntoIterator<Item = u64> + Clone) -> Self {
        self.over_with(|spec| {
            seeds
                .clone()
                .into_iter()
                .map(|s| spec.clone().seed(s))
                .collect()
        })
    }

    /// Multiplies the matrix by a thermal-grid axis (resolution studies).
    pub fn over_grids(self, grids: impl IntoIterator<Item = GridSpec> + Clone) -> Self {
        self.over_with(|spec| {
            grids
                .clone()
                .into_iter()
                .map(|g| spec.clone().grid(g))
                .collect()
        })
    }

    /// Multiplies the matrix by a custom-stack axis (e.g. a cavity-width
    /// sweep over hand-built stacks).
    pub fn over_stacks(self, stacks: impl IntoIterator<Item = Stack3d> + Clone) -> Self {
        self.over_with(|spec| {
            stacks
                .clone()
                .into_iter()
                .map(|st| spec.clone().stack(st))
                .collect()
        })
    }

    /// The general axis: replaces every scenario by `f(scenario)`,
    /// preserving order (scenario-major, axis-minor). Returning an empty
    /// vector drops the scenario.
    pub fn over_with<F>(mut self, f: F) -> Self
    where
        F: Fn(&ScenarioSpec) -> Vec<ScenarioSpec>,
    {
        self.specs = self.specs.iter().flat_map(&f).collect();
        self
    }

    /// Keeps only the scenarios the predicate accepts.
    pub fn retain<F>(mut self, f: F) -> Self
    where
        F: Fn(&ScenarioSpec) -> bool,
    {
        self.specs.retain(|s| f(s));
        self
    }

    /// Appends another study's scenarios after this one's.
    pub fn chain(mut self, other: Study) -> Self {
        self.specs.extend(other.specs);
        self
    }

    /// The scenario specs, in execution order.
    pub fn specs(&self) -> &[ScenarioSpec] {
        &self.specs
    }

    /// Number of scenarios in the matrix.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` if the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Validates and resolves every spec (the all-or-nothing step: the
    /// first invalid cell aborts with its error before anything runs).
    ///
    /// # Errors
    ///
    /// The build error of the first invalid scenario.
    pub fn build(&self) -> Result<Vec<Scenario>, CmosaicError> {
        self.specs.iter().map(ScenarioSpec::build).collect()
    }

    /// Builds and executes the whole matrix on `runner`.
    ///
    /// # Errors
    ///
    /// Only build errors abort (the first invalid cell, before anything
    /// runs). Run-time failures are isolated per slot: the report always
    /// covers the whole matrix, with [`StudyReport::slots`] carrying a
    /// structured [`SlotError`] for each failed scenario — deterministic
    /// regardless of thread count.
    pub fn run(&self, runner: &BatchRunner) -> Result<StudyReport, CmosaicError> {
        Ok(self.run_observed(runner, |_, _| ())?.0)
    }

    /// Like [`Study::run`], with one observer per scenario created by
    /// `factory` (called with the scenario index and the resolved
    /// scenario) and returned in scenario order alongside the report
    /// (`None` for failed slots).
    ///
    /// # Errors
    ///
    /// Same as [`Study::run`].
    pub fn run_observed<O, F>(
        &self,
        runner: &BatchRunner,
        factory: F,
    ) -> Result<(StudyReport, Vec<Option<O>>), CmosaicError>
    where
        O: Observer + Send,
        F: Fn(usize, &Scenario) -> O + Sync,
    {
        let scenarios = self.build()?;
        let (batch, observers) = runner.run_scenarios_observed(&scenarios, factory);
        Ok((self.report(batch), observers))
    }

    /// Like [`Study::run`], journaling every finished slot to
    /// `journal_path` (created on first use, validated against this
    /// study's fingerprint thereafter — see
    /// [`checkpoint`]). Slots already in the journal
    /// are not re-run; their recorded results merge into the report
    /// verbatim, so a study killed partway resumes where it left off and
    /// the final report is bit-identical to an uninterrupted run at any
    /// thread count. Returns the report plus how many slots were resumed
    /// from the journal.
    ///
    /// # Errors
    ///
    /// Build errors, or [`CmosaicError::Journal`] when the journal
    /// cannot be opened or belongs to a different study.
    pub fn run_checkpointed(
        &self,
        runner: &BatchRunner,
        journal_path: &Path,
    ) -> Result<(StudyReport, usize), CmosaicError> {
        let scenarios = self.build()?;
        let journal = StudyJournal::open(
            journal_path,
            checkpoint::fingerprint(&self.specs),
            scenarios.len(),
        )?;
        let resumed = journal.completed_count();
        let (batch, _) = runner.run_scenarios_resumed(
            &scenarios,
            journal.completed(),
            |_, _| (),
            |i, slot| journal.record(i, slot),
        );
        Ok((self.report(batch), resumed))
    }

    /// Pairs a batch run of this study's matrix with its specs.
    fn report(&self, batch: BatchReport) -> StudyReport {
        StudyReport {
            specs: self.specs.clone(),
            slots: batch.slots,
            pattern_groups: batch.pattern_groups,
            threads: batch.threads,
        }
    }
}

/// Results of one study, index-aligned with [`Study::specs`]. Always
/// complete: failed scenarios occupy their slots as [`SlotError`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyReport {
    specs: Vec<ScenarioSpec>,
    slots: Vec<Result<ScenarioOutcome, SlotError>>,
    pattern_groups: usize,
    threads: usize,
}

impl StudyReport {
    /// Scenario specs, in execution order.
    pub fn specs(&self) -> &[ScenarioSpec] {
        &self.specs
    }

    /// Per-scenario results, index-aligned with the specs.
    pub fn slots(&self) -> &[Result<ScenarioOutcome, SlotError>] {
        &self.slots
    }

    /// The successful outcomes, in execution order (failed slots are
    /// skipped; their indices live in [`ScenarioOutcome::index`]).
    pub fn outcomes(&self) -> Vec<&ScenarioOutcome> {
        self.slots.iter().filter_map(|s| s.as_ref().ok()).collect()
    }

    /// The lowest-indexed failure, if any.
    pub fn first_error(&self) -> Option<(usize, &SlotError)> {
        self.slots
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.as_ref().err().map(|e| (i, e)))
    }

    /// `true` when every scenario succeeded.
    pub fn all_ok(&self) -> bool {
        self.slots.iter().all(Result::is_ok)
    }

    /// Number of scenarios (successful or not).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the study was empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// `(spec, outcome)` pairs of the successful slots, in execution
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&ScenarioSpec, &ScenarioOutcome)> {
        self.specs
            .iter()
            .zip(&self.slots)
            .filter_map(|(s, slot)| slot.as_ref().ok().map(|o| (s, o)))
    }

    /// Metrics of the first successful scenario the predicate accepts.
    pub fn metrics_matching<F>(&self, pred: F) -> Option<&RunMetrics>
    where
        F: Fn(&ScenarioSpec) -> bool,
    {
        self.iter().find(|(s, _)| pred(s)).map(|(_, o)| &o.metrics)
    }

    /// Distinct thermal-operator pattern groups the study spanned.
    pub fn pattern_groups(&self) -> usize {
        self.pattern_groups
    }

    /// Worker threads used.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::PeakTemperature;
    use cmosaic_materials::units::VolumetricFlow;

    fn tiny_base() -> ScenarioSpec {
        ScenarioSpec::new()
            .grid(GridSpec::new(6, 6).expect("static"))
            .thermal_dt(0.5)
            .seconds(2)
            .seed(7)
    }

    #[test]
    fn axes_expand_scenario_major() {
        let study = Study::new(tiny_base())
            .over_tiers([2, 4])
            .over_policies([PolicyKind::AcLb, PolicyKind::LcFuzzy]);
        let axes: Vec<(Option<usize>, PolicyKind)> = study
            .specs()
            .iter()
            .map(|s| (s.preset_tiers(), s.policy_kind()))
            .collect();
        assert_eq!(
            axes,
            vec![
                (Some(2), PolicyKind::AcLb),
                (Some(2), PolicyKind::LcFuzzy),
                (Some(4), PolicyKind::AcLb),
                (Some(4), PolicyKind::LcFuzzy),
            ]
        );
        // The coolant followed each policy's cooling mode.
        assert!(study.specs()[0].coolant_choice() == &CoolantChoice::Air);
        assert!(study.specs()[1].coolant_choice() == &CoolantChoice::Water);
    }

    #[test]
    fn allocator_axis_expands_and_runs_in_one_pattern_group() {
        let study = Study::new(tiny_base())
            .over_allocators(AllocatorPreset::all())
            .over_policies([PolicyKind::LcLb]);
        assert_eq!(study.len(), 3);
        let presets: Vec<AllocatorPreset> =
            study.specs().iter().map(|s| s.allocator_preset()).collect();
        assert_eq!(
            presets,
            vec![
                AllocatorPreset::Niagara,
                AllocatorPreset::MemoryOnLogic,
                AllocatorPreset::MixedAccelerator,
            ]
        );
        // Same stack and thermal params: the allocator axis re-prices
        // power but shares the one analysis.
        let runner = BatchRunner::new(2);
        let report = study.run(&runner).unwrap();
        assert!(report.all_ok());
        assert_eq!(report.pattern_groups(), 1);
        assert_eq!(runner.analysis_cache_stats().misses, 1);
        for o in report.outcomes() {
            assert_eq!(o.solver.adopted_symbolics, 1, "scenario {}", o.index);
        }
        // On the homogeneous Niagara preset stack the three allocators
        // price core tiers identically and only differ on memory /
        // accelerator blocks — which this stack does not have — so the
        // physics agrees; the axis still fingerprints distinctly.
        let peaks: Vec<f64> = report
            .outcomes()
            .iter()
            .map(|o| o.metrics.peak_temperature.0)
            .collect();
        assert!((peaks[0] - peaks[1]).abs() < 1e-9);
    }

    #[test]
    fn solver_axis_expands_and_splits_pattern_groups() {
        let study = Study::new(tiny_base()).over_solvers([
            SolverBackend::DirectLu,
            SolverBackend::IterativeMg {
                tolerance: 1e-11,
                max_iterations: 500,
            },
            SolverBackend::multigrid(),
        ]);
        assert_eq!(study.len(), 3);
        assert!(!study.specs()[0].solver_backend().is_iterative());
        assert!(study.specs()[1].solver_backend().is_iterative());
        assert!(study.specs()[2].solver_backend().is_iterative());
        let runner = BatchRunner::new(2);
        let report = study.run(&runner).unwrap();
        assert_eq!(report.len(), 3);
        // Same stack/grid but different thermal params (two multigrid
        // operating points among them): three groups, each analysed once,
        // and only the direct cell has an analysis to adopt.
        assert_eq!(report.pattern_groups(), 3);
        assert_eq!(runner.analysis_cache_stats().misses, 3);
        let direct = &report.outcomes()[0].solver;
        let iterative = &report.outcomes()[1].solver;
        let mg = &report.outcomes()[2].solver;
        assert_eq!(direct.adopted_symbolics, 1, "{direct:?}");
        assert_eq!(iterative.adopted_symbolics, 0, "{iterative:?}");
        assert_eq!(mg.adopted_symbolics, 0, "{mg:?}");
        assert_eq!(direct.iterative_solves, 0);
        assert!(iterative.iterative_solves >= 1, "{iterative:?}");
        assert_eq!(iterative.iterative_fallbacks, 0, "{iterative:?}");
        assert!(mg.iterative_solves >= 1, "{mg:?}");
        assert_eq!(mg.iterative_fallbacks, 0, "{mg:?}");
        assert!(mg.mg_cycles >= 1, "{mg:?}");
        // The backends agree on the physics to solver tolerance.
        let pd = report.outcomes()[0].metrics.peak_temperature.0;
        let pi = report.outcomes()[1].metrics.peak_temperature.0;
        let pm = report.outcomes()[2].metrics.peak_temperature.0;
        assert!((pd - pi).abs() < 1e-4, "{pd} vs {pi}");
        assert!((pd - pm).abs() < 1e-4, "{pd} vs {pm}");
    }

    #[test]
    fn retain_prunes_and_chain_concatenates() {
        let study = Study::new(tiny_base())
            .over_tiers([2, 4])
            .over_policies(PolicyKind::paper_policies())
            .retain(|s| !(s.preset_tiers() == Some(4) && s.policy_kind() == PolicyKind::AcTdvfsLb));
        assert_eq!(study.len(), 7, "the paper's seven configurations");
        let extra = Study::new(tiny_base().policy(PolicyKind::LcFuzzyFlowOnly));
        assert_eq!(study.chain(extra).len(), 8);
    }

    #[test]
    fn study_runs_and_shares_analysis_per_pattern_group() {
        let runner = BatchRunner::new(2);
        let report = Study::new(tiny_base())
            .over_policies([PolicyKind::LcLb, PolicyKind::LcFuzzy])
            .over_workloads([WorkloadKind::WebServer, WorkloadKind::Database])
            .run(&runner)
            .unwrap();
        assert_eq!(report.len(), 4);
        assert_eq!(report.pattern_groups(), 1);
        assert_eq!(runner.analysis_cache_stats().misses, 1);
        for o in report.outcomes() {
            assert_eq!(o.solver.full_factorizations, 0, "scenario {}", o.index);
            assert_eq!(o.solver.adopted_symbolics, 1, "scenario {}", o.index);
        }
        let m = report
            .metrics_matching(|s| {
                s.policy_kind() == PolicyKind::LcLb && s.workload_kind() == WorkloadKind::Database
            })
            .expect("cell exists");
        assert_eq!(m.seconds, 2);
    }

    #[test]
    fn empty_axis_products_yield_empty_studies_that_still_run() {
        // An empty axis annihilates the whole matrix...
        let none = Study::new(tiny_base()).over_tiers([]);
        assert!(none.is_empty());
        assert_eq!(none.len(), 0);
        // ...and so does an `over_with` that drops every scenario.
        let dropped = Study::new(tiny_base())
            .over_policies([PolicyKind::LcLb, PolicyKind::LcFuzzy])
            .over_with(|_| vec![]);
        assert!(dropped.is_empty());
        // Empty studies execute as empty reports, not errors.
        let runner = BatchRunner::new(2);
        let report = none.run(&runner).expect("empty batch is fine");
        assert!(report.is_empty());
        assert_eq!(report.pattern_groups(), 0);
        assert_eq!(runner.analysis_cache_stats(), Default::default());
        assert!(report.iter().next().is_none());
        assert!(report.metrics_matching(|_| true).is_none());
        // Axes applied to an already-empty study keep it empty.
        let still_empty = dropped.over_tiers([2, 4]).over_seeds([1, 2, 3]);
        assert!(still_empty.is_empty());
    }

    #[test]
    fn retain_all_filtered_composes_with_chain() {
        let emptied = Study::new(tiny_base())
            .over_policies(PolicyKind::paper_policies())
            .retain(|_| false);
        assert!(emptied.is_empty());
        let (report, observers) = emptied
            .run_observed(&BatchRunner::new(2), |_, _| PeakTemperature::new())
            .expect("empty observed run is fine");
        assert!(report.is_empty() && observers.is_empty());
        // Chaining onto a fully-filtered study is just the other study...
        let survivor = Study::new(tiny_base());
        let chained = Study::new(tiny_base()).retain(|_| false).chain(survivor);
        assert_eq!(chained.len(), 1);
        // ...and chaining an emptied study onto a live one is a no-op.
        let unchanged = Study::new(tiny_base()).chain(Study::new(tiny_base()).retain(|_| false));
        assert_eq!(unchanged.len(), 1);
    }

    #[test]
    fn chained_studies_with_mismatched_grids_span_their_own_pattern_groups() {
        // Two independently-built families on different thermal grids:
        // chaining concatenates them in order, and the batch engine keeps
        // one pattern group (one analysis) per grid.
        let coarse = Study::new(tiny_base()).over_seeds([1, 2]);
        let fine =
            Study::new(tiny_base().grid(GridSpec::new(8, 8).expect("static"))).over_seeds([3, 4]);
        let chained = coarse.chain(fine);
        assert_eq!(chained.len(), 4);
        let grids: Vec<GridSpec> = chained.specs().iter().map(|s| s.grid_spec()).collect();
        assert_eq!(grids[0], grids[1]);
        assert_eq!(grids[2], grids[3]);
        assert_ne!(grids[1], grids[2], "chain preserves each family's grid");
        let runner = BatchRunner::new(2);
        let report = chained.run(&runner).expect("chained run");
        assert_eq!(report.pattern_groups(), 2);
        assert_eq!(runner.analysis_cache_stats().misses, 2);
        for o in report.outcomes() {
            assert_eq!(o.solver.adopted_symbolics, 1, "scenario {}", o.index);
        }
        // Outcomes stay index-aligned with the concatenated spec order.
        for (spec, outcome) in report.iter() {
            assert_eq!(spec.duration(), outcome.metrics.seconds);
        }
    }

    #[test]
    fn invalid_cells_abort_before_anything_runs() {
        let study = Study::new(tiny_base())
            .over_with(|s| vec![s.clone(), s.clone().policy(PolicyKind::AcLb).water()]);
        let r = study.run(&BatchRunner::new(1));
        assert!(matches!(r, Err(CmosaicError::Config { .. })));
    }

    #[test]
    fn runtime_failures_stay_in_their_slots() {
        use crate::fault::{FaultKind, FaultPlan};
        let study = Study::from_specs(vec![
            tiny_base(),
            tiny_base().fault_plan(FaultPlan::none().at(0, FaultKind::Panic)),
            tiny_base().seed(9),
        ]);
        let report = study.run(&BatchRunner::new(2)).expect("builds fine");
        assert_eq!(report.len(), 3);
        assert!(!report.all_ok());
        let (index, e) = report.first_error().expect("the panic is captured");
        assert_eq!(index, 1);
        assert!(e.to_string().contains("panicked"));
        assert_eq!(report.outcomes().len(), 2);
        // The healthy slots still share one analysis and the Ok-only
        // iterator skips the hole.
        assert_eq!(report.iter().count(), 2);
        assert!(report.metrics_matching(|s| s.trace_seed() == 9).is_some());
    }

    fn temp_journal_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "cmosaic-study-{}-{tag}-{}.log",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn interrupted_study_resumes_bit_identically() {
        let study = Study::new(tiny_base()).over_seeds([1, 2, 3, 4]);
        let baseline = study.run(&BatchRunner::new(2)).unwrap();
        assert!(baseline.all_ok());

        let path = temp_journal_path("resume");
        // "Kill" the first run after two jobs (the first two seeds)...
        let (partial, resumed_first) = study
            .run_checkpointed(&BatchRunner::new(2).with_job_limit(2), &path)
            .unwrap();
        assert_eq!(resumed_first, 0);
        assert_eq!(partial.outcomes().len(), 2);
        // ...then resume with a different thread count.
        let (full, resumed) = study.run_checkpointed(&BatchRunner::new(1), &path).unwrap();
        assert_eq!(resumed, 2, "journaled slots are skipped");
        assert!(full.all_ok());
        assert_eq!(
            full.slots(),
            baseline.slots(),
            "resumed report is bit-identical to the uninterrupted run"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_warm_runner_resumes_bit_identically() {
        // A runner that already ran the study holds both patterns, so the
        // resumed slots adopt its cached analysis and no analysis job
        // runs; every slot, solver counters included, still equals the
        // cold, uninterrupted run's.
        let study = Study::new(tiny_base())
            .over_tiers([2, 4])
            .over_seeds([1, 2, 3]);
        let baseline = study.run(&BatchRunner::new(2)).unwrap();
        assert!(baseline.all_ok());
        let runner = BatchRunner::new(2);
        study.run(&runner).unwrap();

        let path = temp_journal_path("warm-resume");
        // The three 2-tier scenarios finish before the "kill"; only the
        // 4-tier group is left for the warm runner to look up.
        study
            .run_checkpointed(&BatchRunner::new(2).with_job_limit(3), &path)
            .unwrap();
        let (full, resumed) = study.run_checkpointed(&runner, &path).unwrap();
        assert_eq!(resumed, 3);
        assert!(full.all_ok());
        assert_eq!(full.slots(), baseline.slots());
        let stats = runner.analysis_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2), "{stats:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journals_from_other_studies_are_refused() {
        let path = temp_journal_path("mismatch");
        let study = Study::new(tiny_base()).over_seeds([1, 2]);
        study.run_checkpointed(&BatchRunner::new(1), &path).unwrap();
        let other = Study::new(tiny_base()).over_seeds([1, 3]);
        assert!(matches!(
            other.run_checkpointed(&BatchRunner::new(1), &path),
            Err(CmosaicError::Journal { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn observers_ride_the_batch() {
        let (report, peaks) = Study::new(tiny_base())
            .over_flow_rates([
                VolumetricFlow::from_ml_per_min(12.0),
                VolumetricFlow::from_ml_per_min(32.3),
            ])
            .run_observed(&BatchRunner::new(2), |_, _| PeakTemperature::new())
            .unwrap();
        let peaks: Vec<PeakTemperature> = peaks
            .into_iter()
            .map(|p| p.expect("healthy scenarios keep their observers"))
            .collect();
        assert_eq!(peaks.len(), 2);
        for (o, p) in report.outcomes().iter().zip(&peaks) {
            // `EpochCtx::peak` max-accumulates over each interval's
            // sub-steps — the same sampling as the metrics — so the
            // observed peak matches the aggregate exactly.
            let seen = p.peak().expect("epochs observed");
            assert!(seen.0 > 300.0 && seen == o.metrics.peak_temperature);
        }
        // More coolant, cooler stack.
        assert!(peaks[0].peak().unwrap().0 > peaks[1].peak().unwrap().0);
    }
}
