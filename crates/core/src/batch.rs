//! Parallel batch sweep engine: fan a matrix of co-simulation scenarios
//! across a worker pool, sharing the thermal symbolic analysis of each
//! operator pattern within a batch and across the batches of one runner,
//! with results that are bit-identical at any thread count and any cache
//! warmth — and with every failure contained to its own slot.
//!
//! Design-space exploration (the paper's Figs. 6–8, a thermally-aware
//! floorplanner's inner loop) evaluates the same stack family at many
//! operating points: the [`Scenario`] matrices a
//! [`Study`](crate::study::Study) expands, the candidate designs an
//! [`Optimizer`](crate::optimize::Optimizer) evaluates batch after batch.
//! [`BatchRunner`] executes such a matrix on a `std::thread::scope` pool
//! with a work-stealing index cursor, and layers three guarantees on top:
//!
//! * **One analysis per pattern per runner.** Scenarios are grouped by
//!   thermal-operator pattern ([`Scenario::same_operator_pattern`]:
//!   stack, grid and thermal parameters). The runner keeps a bounded LRU
//!   of frozen [`SharedAnalysis`] values keyed by that same triple and
//!   matched by equality, never by a hash. Before any scenario runs, the
//!   batch looks up every group it has work for; each miss gets one
//!   analysis job, which builds and initialises the group's first
//!   scenario and caches the analysis that initialisation captured. Then
//!   every scenario adopts its group's analysis and goes straight to
//!   cheap numeric refactorisation. So the full factorisation runs once
//!   per distinct pattern for as long as the runner keeps it cached,
//!   however many scenarios, batches and threads are in play: every
//!   evaluation of a design search after the patterns were first met,
//!   every run of a study after the first and every served request of a
//!   known pattern runs no analysis job at all.
//! * **Deterministic aggregation.** Results land in slots indexed by
//!   scenario position, and each scenario is itself deterministic, so
//!   [`BatchRunner::run_scenarios`] returns bit-identical slots whether
//!   it ran on 1 thread or 8 (asserted by the tests). Every scenario
//!   adopts its group's analysis, cached or analysed for this batch, so
//!   a slot's [`SolverStats`] do not depend on the cache's warmth, on a
//!   resume point or on the slot's place in its group either. Adoption is
//!   bit-neutral besides: a fresh analysis
//!   ([`lu::analyse`](cmosaic_sparse::lu::analyse)) returns the numeric
//!   refactorisation sweep's values over the analysis it captured, never
//!   a pivoting factorisation's own, so a scenario computes the same bits
//!   whether it analysed on its own or adopted. Only
//!   [`BatchRunner::analysis_cache_stats`] sees the cache's warmth.
//! * **Fault isolation.** One scenario panicking, diverging or erroring
//!   never takes the batch down: every attempt runs under
//!   `catch_unwind`, retryable failures walk a deterministic
//!   degradation ladder (backend demotion multigrid → direct, then up to
//!   two Δt halvings — see [`RecoveryRecord`]), and the final
//!   [`BatchReport`] carries a per-slot `Result` so healthy outcomes
//!   survive alongside structured [`SlotError`]s. Because the ladder is
//!   a pure function of the scenario (never of thread scheduling), the
//!   per-slot results — including the errors — stay bit-identical
//!   across thread counts. An analysis job runs under `catch_unwind` as
//!   well: one that fails or panics leaves its group unshared, and each
//!   of the group's scenarios analyses on its own.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use cmosaic_thermal::{LruCache, SharedAnalysis, SolverStats, ThermalError};

use crate::metrics::RunMetrics;
use crate::observe::Observer;
use crate::scenario::{OperatorPattern, Scenario};
use crate::CmosaicError;

/// Patterns a runner's analysis cache holds unless
/// [`BatchRunner::with_analysis_cache`] sizes it otherwise.
pub const DEFAULT_ANALYSIS_CACHE: usize = 32;

/// Maximum Δt halvings the retry ladder applies to one scenario.
const MAX_DT_HALVINGS: u32 = 2;

/// How hard the retry/degradation ladder worked for one slot.
///
/// A clean run is `attempts: 1` with zero demotions and halvings. The
/// ladder is deterministic per scenario: after a retryable failure it
/// first demotes a multigrid backend to direct LU (sticky), then halves
/// the thermal timestep up to two times, re-running the whole scenario
/// from scratch at each rung. Non-retryable failures (panics, config
/// errors, dry-out) stop the ladder immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryRecord {
    /// Full scenario attempts made (1 = clean first try; 0 only for
    /// slots that were never scheduled).
    pub attempts: u32,
    /// Backend demotions taken (at most 1: multigrid → direct; direct
    /// starts at the bottom).
    pub backend_demotions: u32,
    /// Thermal-timestep halvings applied (at most two).
    pub dt_halvings: u32,
}

impl RecoveryRecord {
    /// `true` when the slot succeeded or failed on its first attempt
    /// with no degradation applied.
    pub fn clean(&self) -> bool {
        self.attempts <= 1 && self.backend_demotions == 0 && self.dt_halvings == 0
    }
}

/// Why one scenario of a batch failed — the structured taxonomy carried
/// per slot in a [`BatchReport`].
///
/// Equality is *bitwise* on the diverged value (`f64::to_bits`), so two
/// reports carrying the same NaN compare equal — required for the
/// bit-identity contract across thread counts and resumes.
#[derive(Debug, Clone)]
pub enum ScenarioError {
    /// The scenario's worker caught a panic (isolated via
    /// `catch_unwind`; the rest of the batch is unaffected). Panics are
    /// never retried.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The per-epoch divergence guard found a non-finite or physically
    /// implausible cell temperature, on every rung of the retry ladder.
    Diverged {
        /// Control interval at which the guard tripped (last attempt).
        epoch: usize,
        /// Offending cell (layer-major, lowest index wins).
        cell: usize,
        /// The offending temperature in kelvin (NaN, ±∞, or out of the
        /// physical band).
        value: f64,
    },
    /// Any other simulation failure, carried as its rendered message so
    /// the error stays `Clone`/`Send` across worker boundaries.
    Failed {
        /// The underlying error's display rendering.
        detail: String,
    },
}

impl PartialEq for ScenarioError {
    fn eq(&self, other: &Self) -> bool {
        use ScenarioError::*;
        match (self, other) {
            (Panicked { message: a }, Panicked { message: b }) => a == b,
            (
                Diverged {
                    epoch: e1,
                    cell: c1,
                    value: v1,
                },
                Diverged {
                    epoch: e2,
                    cell: c2,
                    value: v2,
                },
            ) => e1 == e2 && c1 == c2 && v1.to_bits() == v2.to_bits(),
            (Failed { detail: a }, Failed { detail: b }) => a == b,
            _ => false,
        }
    }
}

impl ScenarioError {
    /// Maps a simulation error into the slot taxonomy.
    fn from_error(e: CmosaicError) -> Self {
        match e {
            CmosaicError::Diverged { epoch, cell, value } => {
                ScenarioError::Diverged { epoch, cell, value }
            }
            other => ScenarioError::Failed {
                detail: other.to_string(),
            },
        }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Panicked { message } => write!(f, "scenario panicked: {message}"),
            ScenarioError::Diverged { epoch, cell, value } => write!(
                f,
                "simulation diverged at epoch {epoch}: cell {cell} reached {value} K"
            ),
            ScenarioError::Failed { detail } => f.write_str(detail),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A failed batch slot: the final error after the retry ladder gave up,
/// plus the ladder's footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotError {
    /// Why the last attempt failed.
    pub error: ScenarioError,
    /// What the ladder tried before giving up.
    pub recovery: RecoveryRecord,
}

impl std::fmt::Display for SlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (after {} attempts)",
            self.error, self.recovery.attempts
        )
    }
}

impl std::error::Error for SlotError {}

/// The outcome of one successful scenario of a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Position in the scenario slice handed to the runner.
    pub index: usize,
    /// The run's aggregated metrics.
    pub metrics: RunMetrics,
    /// Thermal solver-path counters. A direct-LU scenario that adopted
    /// its group's analysis shows zero full factorisations and one
    /// adopted symbolic, however warm the runner's cache was; a retried
    /// attempt, or a scenario of a group whose analysis failed, analyses
    /// on its own.
    pub solver: SolverStats,
    /// What the retry ladder did to get here (clean on the happy path).
    pub recovery: RecoveryRecord,
}

/// Results of one batch sweep, in scenario order. Always complete: a
/// failed scenario occupies its slot as a [`SlotError`] instead of
/// discarding the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// One result per scenario, index-aligned with the input slice.
    pub slots: Vec<Result<ScenarioOutcome, SlotError>>,
    /// Distinct operator-pattern groups the batch contained.
    pub pattern_groups: usize,
    /// Worker threads used.
    pub threads: usize,
}

impl BatchReport {
    /// The successful outcomes, in scenario order (indexable; failed
    /// slots are skipped — their indices live in
    /// [`ScenarioOutcome::index`]).
    pub fn outcomes(&self) -> Vec<&ScenarioOutcome> {
        self.slots.iter().filter_map(|s| s.as_ref().ok()).collect()
    }

    /// The failed slots as `(scenario index, error)`, in scenario order.
    pub fn errors(&self) -> Vec<(usize, &SlotError)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().err().map(|e| (i, e)))
            .collect()
    }

    /// The lowest-indexed failure, if any — deterministic regardless of
    /// thread count.
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

    /// Number of scenarios in the batch (successful or not).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Locks a mutex, recovering the guard even when another worker panicked
/// while holding it — the data is index-sloted and each slot is written
/// once, so a poisoned lock carries no torn state worth propagating.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a caught panic payload (string payloads verbatim).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// `true` for failures the degradation ladder may retry: divergence and
/// linear-solver breakdowns. Panics, config errors and physical limits
/// (e.g. two-phase dry-out) are final.
fn retryable(e: &CmosaicError) -> bool {
    matches!(
        e,
        CmosaicError::Diverged { .. } | CmosaicError::Thermal(ThermalError::Solver(_))
    )
}

/// Cumulative counters of a runner's analysis cache since the runner was
/// created: one hit or miss per pattern group that a batch had a
/// scenario to run for. They depend on what the runner ran before, so
/// they live on the runner and never enter a report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisCacheStats {
    /// Pattern groups whose analysis the cache held.
    pub hits: u64,
    /// Pattern groups analysed afresh: one analysis job each, the only
    /// full factorisations a healthy batch runs. The result is then
    /// cached.
    pub misses: u64,
    /// Analyses the LRU dropped to make room for newer ones.
    pub evictions: u64,
}

/// A runner's cross-batch analysis cache and its counters (evictions are
/// the LRU's own). A pattern maps to `None` when its initialisation
/// factorised nothing (a multigrid pattern), so it is not re-analysed.
#[derive(Debug)]
struct AnalysisCache {
    lru: LruCache<OperatorPattern, Option<SharedAnalysis>>,
    stats: AnalysisCacheStats,
}

impl AnalysisCache {
    fn new(capacity: usize) -> Self {
        AnalysisCache {
            lru: LruCache::new(capacity),
            stats: AnalysisCacheStats::default(),
        }
    }
}

/// Runs a set of independent co-simulation scenarios across a thread
/// pool, keeping the frozen analysis of every pattern it analysed for
/// its later batches. See the [module docs](self) for the sharing,
/// determinism and fault-isolation guarantees.
#[derive(Debug)]
pub struct BatchRunner {
    threads: usize,
    job_limit: Option<usize>,
    analyses: Mutex<AnalysisCache>,
}

impl BatchRunner {
    /// Creates a runner with `threads` workers (a batch's analysis jobs
    /// first, then its scenarios, both phases work-stealing) and an
    /// analysis cache of [`DEFAULT_ANALYSIS_CACHE`] patterns. A zero
    /// thread count is clamped to one worker, so
    /// `BatchRunner::new(available_parallelism_hint)` is always safe.
    pub fn new(threads: usize) -> Self {
        BatchRunner {
            threads: threads.max(1),
            job_limit: None,
            analyses: Mutex::new(AnalysisCache::new(DEFAULT_ANALYSIS_CACHE)),
        }
    }

    /// Sizes the cross-batch analysis cache to at most `capacity`
    /// patterns, least recently used evicted first. Zero disables reuse
    /// across batches; sharing within a batch stays on.
    pub fn with_analysis_cache(mut self, capacity: usize) -> Self {
        self.analyses = Mutex::new(AnalysisCache::new(capacity));
        self
    }

    /// Caps how many scenarios this run executes, leaving later
    /// scenarios unscheduled (their slots report a `Failed` error). The
    /// jobs are the pending scenarios in scenario order, so the executed
    /// set — and hence the report — is deterministic at any thread count;
    /// analysis jobs do not count against the cap. This is the
    /// checkpoint drill hook: it emulates a run killed partway so resume
    /// paths can be exercised exactly.
    pub fn with_job_limit(mut self, limit: usize) -> Self {
        self.job_limit = Some(limit);
        self
    }

    /// Worker threads this runner will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The analysis cache's cumulative counters.
    pub fn analysis_cache_stats(&self) -> AnalysisCacheStats {
        let cache = lock_unpoisoned(&self.analyses);
        AnalysisCacheStats {
            evictions: cache.lru.evictions(),
            ..cache.stats
        }
    }

    /// Executes every scenario and returns the per-slot results in
    /// scenario order. Never fails as a whole: panicking, diverging or
    /// erroring scenarios surface as [`SlotError`]s in their own slots
    /// while healthy scenarios complete normally.
    pub fn run_scenarios(&self, scenarios: &[Scenario]) -> BatchReport {
        self.run_scenarios_observed(scenarios, |_, _| ()).0
    }

    /// Executes every scenario with one observer apiece, created by
    /// `factory(index, scenario)` inside the worker that runs the
    /// scenario; the observers are returned in scenario order, `None`
    /// for slots that failed (each retry attempt gets a fresh observer;
    /// the returned one belongs to the successful attempt).
    pub fn run_scenarios_observed<O, F>(
        &self,
        scenarios: &[Scenario],
        factory: F,
    ) -> (BatchReport, Vec<Option<O>>)
    where
        O: Observer + Send,
        F: Fn(usize, &Scenario) -> O + Sync,
    {
        self.run_scenarios_resumed(scenarios, &[], factory, |_, _| {})
    }

    /// The engine behind every run flavour: optionally resumes from prior
    /// per-slot results (`completed`, index-aligned or empty) and reports
    /// each freshly finished slot through `record` from inside the worker
    /// — the hook the study journal appends from, so an interrupted
    /// process has every finished scenario on disk.
    ///
    /// Completed slots are not re-run; their prior results are merged
    /// into the report verbatim. The pending ones adopt their group's
    /// analysis exactly as in an uninterrupted run: an analysis job
    /// builds the group's first scenario even when that slot is
    /// completed.
    pub(crate) fn run_scenarios_resumed<O, F, R>(
        &self,
        scenarios: &[Scenario],
        completed: &[Option<Result<ScenarioOutcome, SlotError>>],
        factory: F,
        record: R,
    ) -> (BatchReport, Vec<Option<O>>)
    where
        O: Observer + Send,
        F: Fn(usize, &Scenario) -> O + Sync,
        R: Fn(usize, &Result<ScenarioOutcome, SlotError>) + Sync,
    {
        let n = scenarios.len();
        debug_assert!(completed.is_empty() || completed.len() == n);
        // Group scenarios by operator pattern over the full slice (not
        // just the pending scenarios), so a resumed run sees the
        // identical groups and analyses the same first scenarios.
        let mut group_reps: Vec<usize> = Vec::new();
        let mut group_of = vec![0usize; n];
        for (i, s) in scenarios.iter().enumerate() {
            match group_reps
                .iter()
                .position(|&r| scenarios[r].same_operator_pattern(s))
            {
                Some(g) => group_of[i] = g,
                None => {
                    group_of[i] = group_reps.len();
                    group_reps.push(i);
                }
            }
        }
        let mut jobs: Vec<usize> = (0..n)
            .filter(|&i| completed.get(i).is_none_or(Option::is_none))
            .collect();
        if let Some(limit) = self.job_limit {
            jobs.truncate(limit);
        }
        let analyses = self.group_analyses(scenarios, &group_reps, &group_of, &jobs);
        let results = self.par_map(&jobs, |&i| {
            let scenario = &scenarios[i];
            let adopt = analyses[group_of[i]].as_ref();
            let (slot, observer) = run_with_recovery(i, scenario, adopt, || factory(i, scenario));
            record(i, &slot);
            (slot, observer)
        });

        // A slot not run this time keeps its journaled result verbatim, or
        // reports that the job limit cut it off.
        let mut slots: Vec<_> = (0..n)
            .map(|i| {
                completed.get(i).and_then(Clone::clone).unwrap_or_else(|| {
                    Err(SlotError {
                        error: ScenarioError::Failed {
                            detail: "interrupted before the scenario was scheduled".to_string(),
                        },
                        recovery: RecoveryRecord::default(),
                    })
                })
            })
            .collect();
        let mut observers: Vec<Option<O>> = (0..n).map(|_| None).collect();
        for (i, (slot, observer)) in jobs.into_iter().zip(results) {
            slots[i] = slot;
            observers[i] = observer;
        }
        (
            BatchReport {
                slots,
                pattern_groups: group_reps.len(),
                threads: self.threads,
            },
            observers,
        )
    }

    /// Each pattern group's analysis for a batch running `jobs`, indexed
    /// by group. Looks up every group with a job once in the cache, in
    /// group order; runs one analysis job per miss on the worker pool,
    /// and caches the results in group order, so the LRU's contents
    /// depend on scenario order alone. A failed or panicking analysis job
    /// leaves its group unshared (`None`) and uncached.
    fn group_analyses(
        &self,
        scenarios: &[Scenario],
        group_reps: &[usize],
        group_of: &[usize],
        jobs: &[usize],
    ) -> Vec<Option<SharedAnalysis>> {
        let mut needed = vec![false; group_reps.len()];
        for &i in jobs {
            needed[group_of[i]] = true;
        }
        let mut analyses = vec![None; group_reps.len()];
        let mut misses = Vec::new();
        let mut cache = lock_unpoisoned(&self.analyses);
        for (g, &rep) in group_reps.iter().enumerate() {
            if !needed[g] {
                continue;
            }
            let key = scenarios[rep].operator_pattern();
            if let Some(analysis) = cache.lru.get(&key) {
                analyses[g] = analysis.clone();
                cache.stats.hits += 1;
            } else {
                misses.push((g, key));
                cache.stats.misses += 1;
            }
        }
        drop(cache);
        let analysed = self.par_map(&misses, |&(g, _)| {
            catch_unwind(AssertUnwindSafe(|| analyse(&scenarios[group_reps[g]])))
                .ok()
                .and_then(Result::ok)
        });
        let mut cache = lock_unpoisoned(&self.analyses);
        for ((g, key), analysis) in misses.into_iter().zip(analysed) {
            if let Some(analysis) = analysis {
                analyses[g] = analysis.clone();
                cache.lru.insert(key, analysis);
            }
        }
        analyses
    }

    /// Maps `f` over `items` on up to `self.threads` scoped workers with
    /// a shared work-stealing cursor, returning the results in item
    /// order.
    fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let results: Mutex<Vec<Option<U>>> = Mutex::new((0..items.len()).map(|_| None).collect());
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(items.len()) {
                s.spawn(|| loop {
                    let j = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(j) else { break };
                    let result = f(item);
                    lock_unpoisoned(&results)[j] = Some(result);
                });
            }
        });
        results
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(|r| r.expect("every item ran"))
            .collect()
    }
}

/// Runs scenario `index` through the deterministic retry/degradation
/// ladder, isolating panics per attempt. Returns the final result plus
/// the observer of the successful attempt (failed slots yield no
/// observer).
fn run_with_recovery<O, F>(
    index: usize,
    scenario: &Scenario,
    adopt: Option<&SharedAnalysis>,
    factory: F,
) -> (Result<ScenarioOutcome, SlotError>, Option<O>)
where
    O: Observer,
    F: Fn() -> O,
{
    let mut recovery = RecoveryRecord::default();
    let mut current = scenario.clone();
    let mut adopt = adopt;
    loop {
        recovery.attempts += 1;
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut observer = factory();
            let result = run_scenario(&current, adopt, &mut observer);
            (result, observer)
        }));
        let (result, observer) = match attempt {
            Err(payload) => {
                return (
                    Err(SlotError {
                        error: ScenarioError::Panicked {
                            message: panic_message(payload.as_ref()),
                        },
                        recovery,
                    }),
                    None,
                );
            }
            Ok(pair) => pair,
        };
        match result {
            Ok((metrics, solver)) => {
                let outcome = ScenarioOutcome {
                    index,
                    metrics,
                    solver,
                    recovery,
                };
                return (Ok(outcome), Some(observer));
            }
            Err(e) if retryable(&e) => {
                // Retries restart the scenario from scratch; the adopted
                // analysis belongs to the original configuration only.
                adopt = None;
                if let Some(demoted) = current.demoted_backend() {
                    current = demoted;
                    recovery.backend_demotions += 1;
                    continue;
                }
                if recovery.dt_halvings < MAX_DT_HALVINGS {
                    current = current.halved_dt();
                    recovery.dt_halvings += 1;
                    continue;
                }
                return (
                    Err(SlotError {
                        error: ScenarioError::from_error(e),
                        recovery,
                    }),
                    None,
                );
            }
            Err(e) => {
                return (
                    Err(SlotError {
                        error: ScenarioError::from_error(e),
                        recovery,
                    }),
                    None,
                );
            }
        }
    }
}

/// Runs one scenario end to end, optionally adopting its group's thermal
/// analysis before initialisation.
fn run_scenario<O: Observer>(
    scenario: &Scenario,
    adopt: Option<&SharedAnalysis>,
    observer: &mut O,
) -> Result<(RunMetrics, SolverStats), CmosaicError> {
    let mut sim = scenario.build_simulator()?;
    if let Some(analysis) = adopt {
        sim.adopt_thermal_analysis(analysis);
    }
    sim.initialize()?;
    let metrics = sim.run_observed(scenario.seconds(), observer)?;
    Ok((metrics, sim.solver_stats()))
}

/// An analysis job: builds and initialises `scenario` and exports the
/// frozen analysis its initialisation captured — `None` when it
/// factorised nothing (a multigrid pattern). The analysis is fixed at the
/// first factorisation and does not depend on the timestep, so every
/// scenario of the pattern can adopt it.
fn analyse(scenario: &Scenario) -> Result<Option<SharedAnalysis>, CmosaicError> {
    let mut sim = scenario.build_simulator()?;
    sim.initialize()?;
    Ok(sim.export_thermal_analysis())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::observe::EnergyBreakdown;
    use crate::policy::PolicyKind;
    use crate::scenario::ScenarioSpec;
    use cmosaic_floorplan::GridSpec;
    use cmosaic_power::trace::WorkloadKind;

    fn tiny_grid() -> GridSpec {
        GridSpec::new(6, 6).expect("static")
    }

    fn tiny_matrix() -> Vec<Scenario> {
        crate::experiments::fig6_study(2, 7, tiny_grid())
            .build()
            .expect("valid specs")
    }

    #[test]
    fn batch_is_bit_identical_across_thread_counts() {
        // The core guarantee: the fig6 scenario matrix at 1 thread and at
        // 8 threads yields bit-identical RunMetrics per scenario.
        let scenarios = tiny_matrix();
        let serial = BatchRunner::new(1).run_scenarios(&scenarios);
        let parallel = BatchRunner::new(8).run_scenarios(&scenarios);
        assert_eq!(serial.len(), scenarios.len());
        assert!(serial.all_ok());
        assert_eq!(
            serial.slots, parallel.slots,
            "scenario outcomes must not depend on thread count"
        );
        assert_eq!(serial.pattern_groups, parallel.pattern_groups);
    }

    #[test]
    fn shared_analysis_factorises_once_per_pattern() {
        // All four scenarios are 2-tier liquid-cooled on one grid: one
        // pattern group, so exactly one analysis job in the whole batch,
        // and every scenario adopts its analysis and rides refactor-only.
        let scenarios: Vec<Scenario> = [
            (PolicyKind::LcLb, WorkloadKind::WebServer),
            (PolicyKind::LcFuzzy, WorkloadKind::WebServer),
            (PolicyKind::LcLb, WorkloadKind::Database),
            (PolicyKind::LcFuzzy, WorkloadKind::Multimedia),
        ]
        .into_iter()
        .map(|(policy, workload)| {
            ScenarioSpec::new()
                .policy(policy)
                .workload(workload)
                .seconds(2)
                .seed(3)
                .grid(tiny_grid())
                .build()
                .expect("valid spec")
        })
        .collect();
        let runner = BatchRunner::new(4);
        let report = runner.run_scenarios(&scenarios);
        assert!(report.all_ok());
        assert_eq!(report.pattern_groups, 1);
        assert_eq!(runner.analysis_cache_stats().misses, 1);
        for o in report.outcomes() {
            assert_eq!(o.solver.full_factorizations, 0, "scenario {}", o.index);
            assert_eq!(o.solver.adopted_symbolics, 1, "scenario {}", o.index);
            assert!(o.solver.refactorizations >= 1);
            assert!(o.recovery.clean());
        }
    }

    #[test]
    fn per_group_release_keeps_identity_and_sharing_on_interleaved_groups() {
        // Scenarios deliberately interleave two pattern groups (2-tier and
        // 4-tier), so a group's first scenario is not the first entry of
        // the input order; every scenario must still adopt its own group's
        // analysis (another group's fails the signature check and would
        // factorise), with one analysis per group, bit-identically across
        // thread counts.
        let mk = |tiers: usize, seed: u64| {
            ScenarioSpec::new()
                .tiers(tiers)
                .seed(seed)
                .seconds(2)
                .grid(tiny_grid())
                .build()
                .expect("valid spec")
        };
        let scenarios = vec![mk(2, 1), mk(4, 1), mk(2, 2), mk(4, 2), mk(2, 3), mk(4, 3)];
        let runner = BatchRunner::new(1);
        let serial = runner.run_scenarios(&scenarios);
        let parallel = BatchRunner::new(4).run_scenarios(&scenarios);
        assert_eq!(serial.slots, parallel.slots);
        assert_eq!(serial.pattern_groups, 2);
        assert_eq!(runner.analysis_cache_stats().misses, 2);
        assert_eq!(serial.outcomes().len(), 6);
        for o in serial.outcomes() {
            assert_eq!(o.solver.full_factorizations, 0, "scenario {}", o.index);
            assert_eq!(o.solver.adopted_symbolics, 1, "scenario {}", o.index);
        }
    }

    fn two_pattern_batch() -> Vec<Scenario> {
        let mk = |tiers: usize, seed: u64| {
            ScenarioSpec::new()
                .tiers(tiers)
                .seed(seed)
                .seconds(2)
                .grid(tiny_grid())
                .build()
                .expect("valid spec")
        };
        vec![mk(2, 1), mk(4, 1), mk(2, 2), mk(4, 2)]
    }

    #[test]
    fn a_warm_runner_skips_every_full_factorisation_bit_identically() {
        // The same batch twice on one runner: the second run finds both
        // patterns cached and runs no analysis job, and its slots, solver
        // counters included, equal the first run's and a fresh runner's.
        let scenarios = two_pattern_batch();
        let fresh = BatchRunner::new(1).run_scenarios(&scenarios);
        for threads in [1, 8] {
            let runner = BatchRunner::new(threads);
            let cold = runner.run_scenarios(&scenarios);
            let warm = runner.run_scenarios(&scenarios);
            assert!(warm.all_ok(), "{:?}", warm.errors());
            for o in warm.outcomes() {
                assert_eq!(o.solver.full_factorizations, 0, "scenario {}", o.index);
                assert_eq!(o.solver.adopted_symbolics, 1, "scenario {}", o.index);
            }
            assert_eq!(cold.slots, fresh.slots);
            assert_eq!(warm.slots, cold.slots);
            assert_eq!(
                runner.analysis_cache_stats(),
                AnalysisCacheStats {
                    hits: 2,
                    misses: 2,
                    evictions: 0
                }
            );
        }
    }

    #[test]
    fn a_stack_differing_only_in_values_misses_the_cache() {
        // Table-1 and wide inter-tier channels have the same layer kinds,
        // hence the same `PatternSignature`, but they are different
        // stacks: the wide-channel scenario must not adopt the table-1
        // analysis, however warm the runner.
        use cmosaic_floorplan::stack::presets;
        use cmosaic_floorplan::transform::set_gap_cavity;
        use cmosaic_floorplan::{CavitySpec, Stack3d};
        use cmosaic_materials::solids::SolidMaterial;
        use cmosaic_thermal::{ThermalModel, ThermalParams};
        let base = presets::liquid_cooled_mpsoc(2).unwrap();
        let table1 = set_gap_cavity(&base, 0, Some(CavitySpec::table1())).unwrap();
        let wide_spec = CavitySpec::new(0.1e-3, 0.15e-3, 0.1e-3, SolidMaterial::silicon()).unwrap();
        let wide = set_gap_cavity(&base, 0, Some(wide_spec)).unwrap();
        let signature = |s: &Stack3d| {
            ThermalModel::new(s, tiny_grid(), ThermalParams::default())
                .unwrap()
                .pattern_signature()
        };
        assert_eq!(signature(&table1), signature(&wide));
        let mk = |stack: Stack3d| {
            vec![ScenarioSpec::new()
                .stack(stack)
                .seconds(2)
                .grid(tiny_grid())
                .build()
                .unwrap()]
        };
        let (table1, wide) = (mk(table1), mk(wide));
        assert!(!table1[0].same_operator_pattern(&wide[0]));

        let runner = BatchRunner::new(1);
        runner.run_scenarios(&table1);
        let warm = runner.run_scenarios(&wide);
        let stats = runner.analysis_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 2), "{stats:?}");
        assert_eq!(warm.slots, BatchRunner::new(1).run_scenarios(&wide).slots);
    }

    #[test]
    fn cache_capacity_bounds_reuse_across_batches() {
        let scenarios = two_pattern_batch();
        let (two, four) = (&scenarios[..1], &scenarios[1..2]);
        // Capacity 1, alternating patterns: each batch evicts the other
        // pattern's analysis, so every batch runs its own analysis job...
        let runner = BatchRunner::new(1).with_analysis_cache(1);
        for (k, batch) in [two, four, two, four].into_iter().enumerate() {
            runner.run_scenarios(batch);
            assert_eq!(runner.analysis_cache_stats().misses, k as u64 + 1);
        }
        assert_eq!(
            runner.analysis_cache_stats(),
            AnalysisCacheStats {
                hits: 0,
                misses: 4,
                evictions: 3
            }
        );
        // ...but the most recent pattern stays.
        runner.run_scenarios(four);
        let stats = runner.analysis_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 4));

        // Capacity 0 analyses every batch afresh; sharing within a batch
        // stays on.
        let off = BatchRunner::new(1).with_analysis_cache(0);
        for _ in 0..2 {
            for o in off.run_scenarios(&scenarios).outcomes() {
                assert_eq!(o.solver.adopted_symbolics, 1, "scenario {}", o.index);
            }
        }
        let stats = off.analysis_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 4, 0));
    }

    #[test]
    fn a_failing_pattern_group_stays_in_its_slots() {
        // A group whose scenarios fail must not take the batch down: the
        // failures stay in their own slots while the healthy group
        // completes.
        let good = ScenarioSpec::new()
            .seconds(2)
            .grid(tiny_grid())
            .build()
            .unwrap();
        // A two-phase scenario starved to dry-out fails inside the run —
        // a physical limit, so the retry ladder must not retry it.
        let failing = ScenarioSpec::new()
            .two_phase(cmosaic_thermal::TwoPhaseCoolant::r134a_30c(8.0))
            .policy(PolicyKind::LcLb)
            .seconds(2)
            .grid(tiny_grid())
            .build()
            .unwrap();
        // The failing group first (two scenarios), then a healthy group.
        let scenarios = vec![failing.clone(), failing, good];
        let parallel = BatchRunner::new(2).run_scenarios(&scenarios);
        let serial = BatchRunner::new(1).run_scenarios(&scenarios);
        assert_eq!(
            serial.slots, parallel.slots,
            "per-slot results (including errors) are thread-count invariant"
        );
        assert_eq!(serial.errors().len(), 2);
        let (index, first) = serial.first_error().expect("the dry-out surfaces");
        assert_eq!(index, 0);
        assert!(
            matches!(&first.error, ScenarioError::Failed { detail } if detail.contains("dry")),
            "dry-out is carried as a structured failure: {first}"
        );
        assert_eq!(
            first.recovery.attempts, 1,
            "physical limits are not retried"
        );
        // The healthy scenario still produced its outcome.
        let outcomes = serial.outcomes();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].index, 2);
    }

    #[test]
    fn panicking_scenario_is_isolated_to_its_slot() {
        let good = ScenarioSpec::new()
            .seconds(2)
            .grid(tiny_grid())
            .build()
            .unwrap();
        let panicking = ScenarioSpec::new()
            .seconds(2)
            .grid(tiny_grid())
            .fault_plan(FaultPlan::none().at(0, FaultKind::Panic))
            .build()
            .unwrap();
        let scenarios = vec![panicking, good];
        let report = BatchRunner::new(2).run_scenarios(&scenarios);
        let (index, e) = report.first_error().expect("the panic is captured");
        assert_eq!(index, 0);
        assert!(
            matches!(&e.error, ScenarioError::Panicked { message } if message.contains("injected")),
            "panic payload is carried: {e}"
        );
        assert_eq!(e.recovery.attempts, 1, "panics are never retried");
        assert_eq!(report.outcomes().len(), 1);
        assert_eq!(
            report.slots,
            BatchRunner::new(1).run_scenarios(&scenarios).slots
        );
    }

    #[test]
    fn iterative_breakdown_walks_the_stepwise_demotion_ladder() {
        // An injected breakdown fires while the backend is iterative, so
        // a multigrid scenario clears after its one demotion (mg →
        // direct) without burning a Δt halving, while a direct scenario
        // with the same fault plan never sees it.
        let mk = |backend| {
            ScenarioSpec::new()
                .seconds(2)
                .grid(tiny_grid())
                .solver(backend)
                .fault_plan(FaultPlan::none().at(0, FaultKind::IterativeBreakdown))
                .build()
                .unwrap()
        };
        let scenarios = vec![
            mk(cmosaic_thermal::SolverBackend::multigrid()),
            mk(cmosaic_thermal::SolverBackend::DirectLu),
        ];
        let report = BatchRunner::new(2).run_scenarios(&scenarios);
        assert!(report.all_ok(), "{:?}", report.errors());
        let outcomes = report.outcomes();
        let mg = &outcomes[0].recovery;
        assert_eq!(
            (mg.attempts, mg.backend_demotions, mg.dt_halvings),
            (2, 1, 0)
        );
        assert!(outcomes[1].recovery.clean(), "{:?}", outcomes[1].recovery);
        // The ladder depends only on the scenario, never on scheduling.
        assert_eq!(
            report.slots,
            BatchRunner::new(1).run_scenarios(&scenarios).slots
        );
    }

    #[test]
    fn multigrid_backend_rides_the_batch_bit_identically() {
        // A fig6-style LC_FUZZY scenario under the multigrid backend:
        // agrees with direct LU to solver tolerance, never assembles or
        // factorises the fine level, never falls back, and the outcomes
        // are bit-identical across thread counts.
        let mk = |backend| {
            ScenarioSpec::new()
                .policy(PolicyKind::LcFuzzy)
                .workload(WorkloadKind::WebServer)
                .seconds(4)
                .seed(11)
                .grid(tiny_grid())
                .solver(backend)
                .build()
                .unwrap()
        };
        let scenarios = vec![
            mk(cmosaic_thermal::SolverBackend::multigrid()),
            mk(cmosaic_thermal::SolverBackend::DirectLu),
        ];
        let serial = BatchRunner::new(1).run_scenarios(&scenarios);
        let parallel = BatchRunner::new(8).run_scenarios(&scenarios);
        assert!(serial.all_ok(), "{:?}", serial.errors());
        assert_eq!(
            serial.slots, parallel.slots,
            "multigrid outcomes must not depend on thread count"
        );
        // Different solver params split the pattern groups, so the mg
        // scenario has an empty analysis of its own and still pays no
        // fine factorisation.
        assert_eq!(serial.pattern_groups, 2);
        let outcomes = serial.outcomes();
        let (mg, direct) = (&outcomes[0], &outcomes[1]);
        assert!(mg.recovery.clean(), "{:?}", mg.recovery);
        assert_eq!(mg.solver.full_factorizations, 0, "{:?}", mg.solver);
        assert_eq!(mg.solver.iterative_fallbacks, 0, "{:?}", mg.solver);
        assert!(mg.solver.mg_cycles >= 1, "{:?}", mg.solver);
        assert!(mg.solver.iterative_solves >= 1, "{:?}", mg.solver);
        let (pm, pd) = (
            mg.metrics.peak_temperature.0,
            direct.metrics.peak_temperature.0,
        );
        assert!((pm - pd).abs() < 1e-4, "mg {pm} vs direct {pd}");
        assert!(
            (mg.metrics.pump_energy - direct.metrics.pump_energy).abs()
                < 1e-6 * direct.metrics.pump_energy.max(1.0),
            "the fuzzy controller must make the same decisions under mg"
        );
    }

    #[test]
    fn job_limit_leaves_trailing_slots_unscheduled() {
        let scenarios: Vec<Scenario> = (0..3)
            .map(|seed| {
                ScenarioSpec::new()
                    .seconds(2)
                    .seed(seed)
                    .grid(tiny_grid())
                    .build()
                    .unwrap()
            })
            .collect();
        let partial = BatchRunner::new(2)
            .with_job_limit(2)
            .run_scenarios(&scenarios);
        assert_eq!(partial.outcomes().len(), 2);
        let (index, e) = partial.first_error().expect("the cut-off slot errors");
        assert_eq!(index, 2);
        assert!(matches!(&e.error, ScenarioError::Failed { detail }
            if detail.contains("interrupted")));
        assert_eq!(e.recovery.attempts, 0, "never attempted");
        // Deterministic at any thread count.
        let serial = BatchRunner::new(1)
            .with_job_limit(2)
            .run_scenarios(&scenarios);
        assert_eq!(serial.slots, partial.slots);
    }

    #[test]
    fn fig6_matrix_spans_the_expected_pattern_groups() {
        // 7 configurations × 4 workloads, 4 distinct (tiers, cooling)
        // patterns on one grid.
        let scenarios = tiny_matrix();
        assert_eq!(scenarios.len(), 28);
        let runner = BatchRunner::new(2);
        let report = runner.run_scenarios(&scenarios);
        assert_eq!(report.pattern_groups, 4);
        assert_eq!(runner.analysis_cache_stats().misses, 4);
    }

    #[test]
    fn a_multigrid_pattern_is_analysed_once_per_runner() {
        // A multigrid pattern's initialisation factorises nothing. The
        // cache keeps that empty analysis as well, so a second batch of
        // the pattern runs no analysis job.
        let scenarios = vec![ScenarioSpec::new()
            .seconds(2)
            .grid(tiny_grid())
            .solver(cmosaic_thermal::SolverBackend::multigrid())
            .build()
            .unwrap()];
        let runner = BatchRunner::new(1);
        let first = runner.run_scenarios(&scenarios);
        let second = runner.run_scenarios(&scenarios);
        assert!(first.all_ok(), "{:?}", first.errors());
        assert_eq!(first.slots, second.slots);
        let solver = &first.outcomes()[0].solver;
        assert_eq!(solver.full_factorizations, 0, "{solver:?}");
        assert_eq!(solver.adopted_symbolics, 0, "{solver:?}");
        let stats = runner.analysis_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = BatchRunner::new(3).run_scenarios(&[]);
        assert!(report.is_empty());
        assert!(report.all_ok());
        assert_eq!(report.pattern_groups, 0);
    }

    #[test]
    fn zero_threads_clamp_to_one_worker() {
        // `BatchRunner::new(0)` used to panic — a footgun for callers
        // deriving the count from an `available_parallelism` hint that
        // can legitimately be zero.
        let runner = BatchRunner::new(0);
        assert_eq!(runner.threads(), 1);
        let scenarios = vec![ScenarioSpec::new()
            .seconds(2)
            .grid(tiny_grid())
            .build()
            .unwrap()];
        let report = runner.run_scenarios(&scenarios);
        assert_eq!(report.len(), 1);
        assert!(report.all_ok());
        assert_eq!(report.threads, 1);
    }

    #[test]
    fn observers_are_returned_in_scenario_order() {
        let scenarios: Vec<Scenario> = [4usize, 2]
            .into_iter()
            .map(|secs| {
                ScenarioSpec::new()
                    .seconds(secs)
                    .grid(tiny_grid())
                    .build()
                    .unwrap()
            })
            .collect();
        let (report, energies) =
            BatchRunner::new(2).run_scenarios_observed(&scenarios, |_, _| EnergyBreakdown::new());
        let energies: Vec<EnergyBreakdown> = energies
            .into_iter()
            .map(|e| e.expect("all scenarios succeed"))
            .collect();
        assert_eq!(energies.len(), 2);
        assert_eq!(energies[0].trajectory().len(), 4);
        assert_eq!(energies[1].trajectory().len(), 2);
        for (o, e) in report.outcomes().iter().zip(&energies) {
            assert_eq!(
                o.metrics.chip_energy,
                e.chip_joules(),
                "observer integration matches the run metrics"
            );
        }
    }
}
