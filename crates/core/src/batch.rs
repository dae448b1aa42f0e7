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
//! * **One full factorisation per pattern per runner.** Scenarios are
//!   grouped by thermal-operator pattern
//!   ([`Scenario::same_operator_pattern`]: stack, grid and thermal
//!   parameters). Before any job starts, the runner looks every group up
//!   in its bounded LRU of frozen [`SharedAnalysis`] values, keyed by that
//!   same triple and matched by equality, never by a hash: a cached
//!   pattern is adopted by every scenario of its group. Otherwise the
//!   first scenario of the group — the *donor*, fixed by scenario order,
//!   never by thread scheduling — runs first and exports its frozen
//!   analysis; every other scenario of the group adopts it and goes
//!   straight to cheap numeric refactorisation, and the runner keeps the
//!   analysis for later batches. So the expensive full factorisation
//!   runs once per distinct pattern for as long as the runner keeps it
//!   cached, however many scenarios, batches and threads are in play. The
//!   saving lands on batches whose pattern groups the same runner has
//!   analysed before: every evaluation of a design search after the
//!   patterns were first met, every run of a study after the first, every
//!   served request of a known pattern.
//! * **Deterministic aggregation.** Results land in slots indexed by
//!   scenario position; each scenario is itself deterministic, and the
//!   donor/adopter structure depends only on scenario order — so
//!   [`BatchRunner::run_scenarios`] returns bit-identical
//!   [`RunMetrics`] whether it ran on 1 thread or 8 (asserted by the
//!   tests). Reuse is bit-neutral too: a fresh analysis
//!   ([`lu::analyse`](cmosaic_sparse::lu::analyse)) returns the numeric
//!   refactorisation sweep's values over the analysis it captured, never
//!   a pivoting factorisation's own, so a scenario computes the same bits
//!   whether it analysed, adopted a donor's analysis or a cached one.
//!   Only the [`SolverStats`] counters and
//!   [`BatchRunner::analysis_cache_stats`] see the difference.
//! * **Fault isolation.** One scenario panicking, diverging or erroring
//!   never takes the batch down: every attempt runs under
//!   `catch_unwind`, retryable failures walk a deterministic
//!   degradation ladder (backend demotion multigrid → direct, then up to
//!   two Δt halvings — see [`RecoveryRecord`]), and the final
//!   [`BatchReport`] carries a per-slot `Result` so healthy outcomes
//!   survive alongside structured [`SlotError`]s. Because the ladder is
//!   a pure function of the scenario (never of thread scheduling), the
//!   per-slot results — including the errors — stay bit-identical
//!   across thread counts.
//!
//! Donor release is **per group**, not a global barrier: the job queue is
//! ordered donors-first, and an adopter of pattern group `g` waits (on a
//! condvar) only until donor `g` has published its analysis — adopters of
//! a fast group start while a slow group's donor (e.g. the 4-tier stacks
//! of the fig6 matrix) is still factorising. The wait is deadlock-free by
//! construction: every donor precedes every adopter in the queue, a
//! worker executing a donor never waits, and a failed or panicking donor
//! publishes an empty analysis (via a drop guard) so its adopters proceed
//! unshared. None of this changes the deterministic structure — who
//! donates to whom is fixed by scenario order alone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
    /// Thermal solver-path counters: donors show one full factorisation,
    /// adopters — and every scenario of a pattern the runner had cached —
    /// show zero (refactor-only).
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

    /// Total full pivoting factorisations across every successful
    /// scenario — with analysis sharing enabled and no failures this
    /// equals the pattern groups the runner's analysis cache missed
    /// (`pattern_groups` on a fresh runner).
    pub fn total_full_factorizations(&self) -> u64 {
        self.outcomes()
            .iter()
            .map(|o| o.solver.full_factorizations)
            .sum()
    }
}

/// What one successful attempt produces.
struct JobSuccess {
    metrics: RunMetrics,
    solver: SolverStats,
    analysis: Option<SharedAnalysis>,
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

/// One job of a batch run.
#[derive(Clone, Copy)]
enum Job {
    /// Run scenario `i` (donor or adopter by group structure).
    Run(usize),
    /// Rebuild and publish the frozen analysis of an already-completed
    /// donor (resumed runs whose pattern the runner has not cached):
    /// build + initialise reproduces the
    /// identical symbolic analysis the donor exported originally, so
    /// pending adopters of a resumed study adopt bit-identically.
    Regen(usize),
}

/// Cumulative counters of a runner's analysis cache since the runner was
/// created: one hit or miss per pattern group looked up (groups with
/// nothing left to run are not looked up). They depend on what the runner
/// ran before, so they live on the runner and never enter a report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisCacheStats {
    /// Pattern groups that adopted a cached analysis: zero full
    /// factorisations for the group.
    pub hits: u64,
    /// Pattern groups analysed afresh (their analysis is then cached).
    pub misses: u64,
    /// Analyses the LRU dropped to make room for newer ones.
    pub evictions: u64,
}

/// A runner's cross-batch analysis cache and its counters (evictions are
/// the LRU's own).
#[derive(Debug)]
struct AnalysisCache {
    lru: LruCache<OperatorPattern, SharedAnalysis>,
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
/// pool, keeping the frozen analysis of every pattern it factorised for
/// its later batches. See the [module docs](self) for the sharing,
/// determinism and fault-isolation guarantees.
#[derive(Debug)]
pub struct BatchRunner {
    threads: usize,
    share_analysis: bool,
    job_limit: Option<usize>,
    analyses: Mutex<AnalysisCache>,
}

impl BatchRunner {
    /// Creates a runner with `threads` workers (donor scenarios first,
    /// then everything else, both phases work-stealing) and an analysis
    /// cache of [`DEFAULT_ANALYSIS_CACHE`] patterns. A zero thread count
    /// is clamped to one worker, so
    /// `BatchRunner::new(available_parallelism_hint)` is always safe.
    pub fn new(threads: usize) -> Self {
        BatchRunner {
            threads: threads.max(1),
            share_analysis: true,
            job_limit: None,
            analyses: Mutex::new(AnalysisCache::new(DEFAULT_ANALYSIS_CACHE)),
        }
    }

    /// Disables symbolic-analysis sharing, within a batch and across
    /// batches: every scenario pays its own full factorisation and the
    /// analysis cache is neither read nor filled. Useful for measuring
    /// what the sharing buys.
    pub fn without_shared_analysis(mut self) -> Self {
        self.share_analysis = false;
        self
    }

    /// Sizes the cross-batch analysis cache to at most `capacity`
    /// patterns, least recently used evicted first. Zero disables reuse
    /// across batches; sharing within a batch stays on.
    pub fn with_analysis_cache(mut self, capacity: usize) -> Self {
        self.analyses = Mutex::new(AnalysisCache::new(capacity));
        self
    }

    /// Caps how many jobs this run executes, leaving later scenarios
    /// unscheduled (their slots report a `Failed` error). Because the
    /// job order is fixed by scenario order (donors first), the set of
    /// executed jobs — and hence the report — is deterministic at any
    /// thread count. This is the checkpoint drill hook: it emulates a
    /// run killed partway so resume paths can be exercised exactly.
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
    /// into the report verbatim. A completed *donor* whose group still
    /// has pending adopters and whose pattern the cache lacks gets a
    /// cheap regeneration job ([`Job::Regen`]) when its journaled result
    /// shows it had published (succeeded without backend demotion),
    /// keeping resumed adopters bit-identical to the uninterrupted run.
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
        let done = |i: usize| completed.get(i).is_some_and(Option::is_some);
        // Group scenarios by operator pattern; the first of each group is
        // its donor. Grouping runs over the full slice (not just pending
        // scenarios) so a resumed run sees the identical structure.
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
        let donors = &group_reps;

        type Slot<O> = Option<(Result<ScenarioOutcome, SlotError>, Option<O>)>;
        let slots: Mutex<Vec<Slot<O>>> = Mutex::new((0..n).map(|_| None).collect());
        let run_one = |i: usize, adopt: Option<&SharedAnalysis>| {
            run_with_recovery(&scenarios[i], adopt, || factory(i, &scenarios[i]))
        };
        // Converts an attempt result into the slot shape, reports it,
        // and stores it.
        let finish = |i: usize,
                      result: Result<(JobSuccess, RecoveryRecord), SlotError>,
                      observer: Option<O>| {
            let slot = result.map(|(success, recovery)| ScenarioOutcome {
                index: i,
                metrics: success.metrics,
                solver: success.solver,
                recovery,
            });
            record(i, &slot);
            lock_unpoisoned(&slots)[i] = Some((slot, observer));
        };

        if self.share_analysis {
            // Donors-first job order plus per-group release: an adopter
            // only ever waits for its *own* group's donor. `published[g]`
            // is `None` until donor `g` finishes, then `Some(analysis)`
            // (`Some(None)` for a donor that failed, panicked, demoted
            // its backend, or had nothing to share — adopters proceed
            // unshared instead of waiting forever). A group whose pattern
            // the runner's cache holds is published before any job runs,
            // and its donor takes the adopter path like everyone else.
            // `missed[g]` keeps the cache key of every group looked up in
            // vain: its donor (or regeneration) publishes a fresh analysis,
            // which the cache keeps once the batch is over.
            let mut prepublished = vec![None; group_reps.len()];
            let mut missed: Vec<Option<OperatorPattern>> = vec![None; group_reps.len()];
            let mut jobs: Vec<Job> = Vec::new();
            let mut cache = lock_unpoisoned(&self.analyses);
            for (g, &d) in donors.iter().enumerate() {
                if (0..n).all(|i| group_of[i] != g || done(i)) {
                    // Nothing of this group runs: nobody needs an analysis.
                    continue;
                }
                let key = scenarios[d].operator_pattern();
                if let Some(analysis) = cache.lru.get(&key) {
                    prepublished[g] = Some(Some(analysis.clone()));
                    cache.stats.hits += 1;
                } else {
                    missed[g] = Some(key);
                    cache.stats.misses += 1;
                }
                if !done(d) {
                    jobs.push(Job::Run(d));
                } else if missed[g].is_some() {
                    let had_published = matches!(
                        completed.get(d).and_then(Option::as_ref),
                        Some(Ok(o)) if o.recovery.backend_demotions == 0
                    );
                    if had_published {
                        jobs.push(Job::Regen(d));
                    } else {
                        // The donor never published: release the group
                        // up front, unshared.
                        prepublished[g] = Some(None);
                    }
                }
            }
            drop(cache);
            jobs.extend(
                (0..n)
                    .filter(|&i| donors[group_of[i]] != i && !done(i))
                    .map(Job::Run),
            );
            if let Some(limit) = self.job_limit {
                jobs.truncate(limit);
            }
            let published: Mutex<Vec<Option<Option<SharedAnalysis>>>> = Mutex::new(prepublished);
            let ready = Condvar::new();
            // Publishes a group's analysis on drop, so a donor that
            // *panics* mid-run (not just one that returns Err) still
            // releases its adopters — otherwise they would wait on the
            // condvar forever and the scoped join could never complete.
            struct PublishOnDrop<'a> {
                g: usize,
                table: &'a Mutex<Vec<Option<Option<SharedAnalysis>>>>,
                ready: &'a Condvar,
                analysis: Option<SharedAnalysis>,
            }
            impl Drop for PublishOnDrop<'_> {
                fn drop(&mut self) {
                    let mut guard = lock_unpoisoned(self.table);
                    guard[self.g] = Some(self.analysis.take());
                    drop(guard);
                    self.ready.notify_all();
                }
            }
            self.par_run(&jobs, |job| match *job {
                Job::Run(i) => {
                    let g = group_of[i];
                    if donors[g] == i && missed[g].is_some() {
                        let mut publish = PublishOnDrop {
                            g,
                            table: &published,
                            ready: &ready,
                            analysis: None,
                        };
                        let (mut result, observer) = run_one(i, None);
                        if let Ok((success, recovery)) = &mut result {
                            // A backend demotion changed the operator
                            // pattern mid-ladder; the exported analysis
                            // no longer matches the group, so publish
                            // nothing and let adopters run unshared.
                            if recovery.backend_demotions == 0 {
                                publish.analysis = success.analysis.take();
                            }
                        }
                        drop(publish);
                        finish(i, result, observer);
                    } else {
                        let guard = lock_unpoisoned(&published);
                        let guard = ready
                            .wait_while(guard, |p| p[g].is_none())
                            .unwrap_or_else(PoisonError::into_inner);
                        // SharedAnalysis is Arc-backed; the clone is
                        // cheap. `flatten` turns a failed donor's empty
                        // publication into an unshared run.
                        let analysis = guard[g].clone().flatten();
                        drop(guard);
                        let (result, observer) = run_one(i, analysis.as_ref());
                        finish(i, result, observer);
                    }
                }
                Job::Regen(d) => {
                    let mut publish = PublishOnDrop {
                        g: group_of[d],
                        table: &published,
                        ready: &ready,
                        analysis: None,
                    };
                    // Initialisation alone reproduces the donor's frozen
                    // symbolic analysis (it is fixed at the first
                    // factorisation and timestep-independent). If the
                    // rebuild fails — it succeeded in the original run —
                    // the guard releases the group unshared.
                    let regenerated =
                        catch_unwind(AssertUnwindSafe(|| regenerate_analysis(&scenarios[d])));
                    if let Ok(Ok(analysis)) = regenerated {
                        publish.analysis = analysis;
                    }
                    drop(publish);
                }
            });
            // Keep the fresh analyses for later batches, in group order
            // so the LRU's contents depend on scenario order alone.
            let published = published
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            let mut cache = lock_unpoisoned(&self.analyses);
            for (key, analysis) in missed.into_iter().zip(published) {
                if let (Some(key), Some(Some(analysis))) = (key, analysis) {
                    cache.lru.insert(key, analysis);
                }
            }
        } else {
            let mut jobs: Vec<Job> = (0..n).filter(|&i| !done(i)).map(Job::Run).collect();
            if let Some(limit) = self.job_limit {
                jobs.truncate(limit);
            }
            self.par_run(&jobs, |job| {
                if let Job::Run(i) = *job {
                    let (result, observer) = run_one(i, None);
                    finish(i, result, observer);
                }
            });
        }

        let mut report_slots = Vec::with_capacity(n);
        let mut observers = Vec::with_capacity(n);
        let slots = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
        for (index, slot) in slots.into_iter().enumerate() {
            match slot {
                Some((result, observer)) => {
                    report_slots.push(result);
                    observers.push(observer);
                }
                // Not run this time: either journaled earlier (merge the
                // prior result verbatim) or cut off by the job limit.
                None => {
                    let prior = completed.get(index).and_then(Clone::clone);
                    report_slots.push(prior.unwrap_or_else(|| {
                        Err(SlotError {
                            error: ScenarioError::Failed {
                                detail: "interrupted before the scenario was scheduled".to_string(),
                            },
                            recovery: RecoveryRecord::default(),
                        })
                    }));
                    observers.push(None);
                }
            }
        }
        (
            BatchReport {
                slots: report_slots,
                pattern_groups: group_reps.len(),
                threads: self.threads,
            },
            observers,
        )
    }

    /// Runs `f` over `jobs` on up to `self.threads` scoped workers with
    /// a shared work-stealing cursor.
    fn par_run<F>(&self, jobs: &[Job], f: F)
    where
        F: Fn(&Job) + Sync,
    {
        if jobs.is_empty() {
            return;
        }
        let workers = self.threads.min(jobs.len());
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let j = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(j) else { break };
                    f(job);
                });
            }
        });
    }
}

/// Runs one scenario through the deterministic retry/degradation ladder,
/// isolating panics per attempt. Returns the final result plus the
/// observer of the successful attempt (failed slots yield no observer).
fn run_with_recovery<O, F>(
    scenario: &Scenario,
    adopt: Option<&SharedAnalysis>,
    factory: F,
) -> (Result<(JobSuccess, RecoveryRecord), SlotError>, Option<O>)
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
            Ok(success) => return (Ok((success, recovery)), Some(observer)),
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

/// Runs one scenario end to end, optionally adopting a donor's thermal
/// analysis before initialisation.
fn run_scenario<O: Observer>(
    scenario: &Scenario,
    adopt: Option<&SharedAnalysis>,
    observer: &mut O,
) -> Result<JobSuccess, CmosaicError> {
    let mut sim = scenario.build_simulator()?;
    if let Some(analysis) = adopt {
        sim.adopt_thermal_analysis(analysis);
    }
    sim.initialize()?;
    let metrics = sim.run_observed(scenario.seconds(), observer)?;
    let analysis = sim.export_thermal_analysis();
    Ok(JobSuccess {
        metrics,
        solver: sim.solver_stats(),
        analysis,
    })
}

/// Rebuilds an already-completed donor's frozen analysis for a resumed
/// run's pending adopters (see [`Job::Regen`]).
fn regenerate_analysis(scenario: &Scenario) -> Result<Option<SharedAnalysis>, CmosaicError> {
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
        // pattern group, so exactly one full pivoting factorisation in
        // the whole batch — the donor's. Adopters ride refactor-only.
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
        let report = BatchRunner::new(4).run_scenarios(&scenarios);
        assert!(report.all_ok());
        assert_eq!(report.pattern_groups, 1);
        assert_eq!(report.total_full_factorizations(), 1);
        let outcomes = report.outcomes();
        assert_eq!(outcomes[0].solver.full_factorizations, 1);
        for o in &outcomes[1..] {
            assert_eq!(o.solver.full_factorizations, 0, "adopter {}", o.index);
            assert_eq!(o.solver.adopted_symbolics, 1);
            assert!(o.solver.refactorizations >= 1);
            assert!(o.recovery.clean());
        }

        // Without sharing, every scenario pays its own factorisation —
        // and the metrics still agree with the shared run to solver
        // round-off... but bitwise they are allowed to differ, so only
        // the counter is asserted here.
        let unshared = BatchRunner::new(2)
            .without_shared_analysis()
            .run_scenarios(&scenarios);
        assert_eq!(unshared.total_full_factorizations(), scenarios.len() as u64);
    }

    #[test]
    fn per_group_release_keeps_identity_and_sharing_on_interleaved_groups() {
        // Scenarios deliberately interleave two pattern groups (2-tier and
        // 4-tier) so the donors are not the first two entries of the input
        // order; per-group release must still hand each adopter its own
        // group's analysis, factorise once per group, and stay
        // bit-identical across thread counts.
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
        let serial = BatchRunner::new(1).run_scenarios(&scenarios);
        let parallel = BatchRunner::new(4).run_scenarios(&scenarios);
        assert_eq!(serial.slots, parallel.slots);
        assert_eq!(serial.pattern_groups, 2);
        assert_eq!(serial.total_full_factorizations(), 2);
        // Donors are the first scenario of each group in input order.
        for (idx, o) in serial.outcomes().iter().enumerate() {
            if idx < 2 {
                assert_eq!(o.solver.full_factorizations, 1, "donor {idx}");
            } else {
                assert_eq!(o.solver.full_factorizations, 0, "adopter {idx}");
                assert_eq!(o.solver.adopted_symbolics, 1, "adopter {idx}");
            }
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

    fn metrics_of(report: &BatchReport) -> Vec<RunMetrics> {
        report
            .outcomes()
            .iter()
            .map(|o| o.metrics.clone())
            .collect()
    }

    #[test]
    fn a_warm_runner_skips_every_full_factorisation_bit_identically() {
        // The same batch twice on one runner: the second run finds both
        // patterns cached, pays no pivoting factorisation at all, and its
        // metrics equal the first run's and a fresh runner's.
        let scenarios = two_pattern_batch();
        let fresh = BatchRunner::new(1).run_scenarios(&scenarios);
        for threads in [1, 8] {
            let runner = BatchRunner::new(threads);
            let first = runner.run_scenarios(&scenarios);
            let second = runner.run_scenarios(&scenarios);
            assert!(second.all_ok(), "{:?}", second.errors());
            assert_eq!(first.total_full_factorizations(), 2);
            assert_eq!(second.total_full_factorizations(), 0);
            for o in second.outcomes() {
                assert_eq!(o.solver.adopted_symbolics, 1, "scenario {}", o.index);
            }
            assert_eq!(metrics_of(&second), metrics_of(&first));
            assert_eq!(metrics_of(&second), metrics_of(&fresh));
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
        assert_eq!(warm.total_full_factorizations(), 1);
        let stats = runner.analysis_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 2), "{stats:?}");
        assert_eq!(warm.slots, BatchRunner::new(1).run_scenarios(&wide).slots);
    }

    #[test]
    fn cache_capacity_bounds_reuse_across_batches() {
        let scenarios = two_pattern_batch();
        let (two, four) = (&scenarios[..1], &scenarios[1..2]);
        // Capacity 1, alternating patterns: each batch evicts the other
        // pattern's analysis, so every batch pays its own factorisation...
        let runner = BatchRunner::new(1).with_analysis_cache(1);
        for batch in [two, four, two, four] {
            assert_eq!(runner.run_scenarios(batch).total_full_factorizations(), 1);
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
        assert_eq!(runner.run_scenarios(four).total_full_factorizations(), 0);
        assert_eq!(runner.analysis_cache_stats().hits, 1);

        // Capacity 0 always factorises; sharing within a batch stays on.
        let off = BatchRunner::new(1).with_analysis_cache(0);
        for _ in 0..2 {
            assert_eq!(off.run_scenarios(&scenarios).total_full_factorizations(), 2);
        }
        let stats = off.analysis_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 4, 0));

        // Without sharing, the cache is neither read nor filled.
        let unshared = BatchRunner::new(1).without_shared_analysis();
        for _ in 0..2 {
            assert_eq!(unshared.run_scenarios(two).total_full_factorizations(), 1);
        }
        assert_eq!(
            unshared.analysis_cache_stats(),
            AnalysisCacheStats::default()
        );
    }

    #[test]
    fn failed_donor_releases_its_adopters() {
        // A donor that fails at run time must publish an empty analysis
        // so its adopters are not stranded on the condvar; the failures
        // stay in their own slots while the healthy group completes.
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
        // Failing donor first, then its (also failing) group-mate, then a
        // healthy group.
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
        // scenario is its own donor and still pays no fine factorisation.
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
        let report = BatchRunner::new(2).run_scenarios(&scenarios);
        assert_eq!(report.pattern_groups, 4);
        assert_eq!(report.total_full_factorizations(), 4);
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
