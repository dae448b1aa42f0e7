//! The coalescing scheduler: answers fully cached requests at
//! submission, merges the rest into shared batches, and owns the
//! cross-request caches.
//!
//! [`Scheduler::submit`] fingerprints each spec once (the spec's
//! [`fingerprint`](cmosaic::ScenarioSpec::fingerprint)). When every
//! fingerprint is in the result LRU, the request is answered on the
//! caller's thread — cached epoch replays, then `done` — and never
//! reaches the worker: there is nothing left to merge, so it waits for no
//! window. Every other request goes to a single worker thread draining a
//! submission queue. A request arriving there opens a batch, which first
//! takes every submission already queued. Its *runnable* scenarios are
//! its distinct fingerprints the result LRU cannot answer. While they
//! number fewer than the runner's threads, the batch waits for more
//! requests, at most the *coalescing window*; as soon as every thread
//! has a scenario it dispatches, and so does a batch with no runnable
//! scenario at all (its specs entered the result LRU while it queued
//! behind the batch that computed them). The batch's scenarios are
//! deduplicated by fingerprint (two requests asking for the same scenario
//! share one simulation), resolved against the result LRU, and the remainder
//! executes as **one** [`BatchRunner`] batch, so one symbolic analysis
//! serves every request of the batch with the same operator pattern. The
//! worker owns a single runner for its whole life, and the runner keeps
//! the analysis of every pattern it analysed (sized by
//! [`SchedulerConfig::analysis_cache`]), so patterns an earlier batch
//! already met cost no analysis; that cache and the result LRU give later
//! batches the sharing a longer wait would have bought. The `stats`
//! endpoint reads the runner's
//! [`analysis_cache_stats`](cmosaic::BatchRunner::analysis_cache_stats):
//! its `analysis_misses` count every analysis the daemon ran.
//!
//! None of this machinery is observable in the run responses themselves:
//! analysis sharing is bit-neutral in the engine, so a scenario's
//! outcome — and the serialized slot payload built from it — is a pure
//! bitwise function of its spec, whatever the batching, window timing or
//! cache warmth did. Per-epoch streams are captured alongside the result
//! (including the epochs of retried attempts, which the deterministic
//! retry ladder replays identically), so a cache hit — answered at
//! submission or inside a batch — streams the same per-slot event
//! sequence a cold run streamed live.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cmosaic::batch::{RecoveryRecord, ScenarioError, SlotError};
use cmosaic::observe::{EpochCtx, Observer};
use cmosaic::{BatchRunner, Scenario, ScenarioSpec};
use cmosaic_thermal::{LruCache, SolverStats};

use crate::cache::CacheStats;
use crate::json::Json;
use crate::protocol::slot_json;

/// Tuning knobs of a [`Scheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads of the shared [`BatchRunner`].
    pub threads: usize,
    /// Coalescing window: the longest a batch waits, after its first
    /// request, for more requests to join it. A batch waits only while
    /// its runnable scenarios (distinct specs not in the result cache)
    /// number fewer than [`threads`](Self::threads) but at least one, and
    /// dispatches as soon as they don't. Only requests with an uncached
    /// spec wait; a fully cached one is answered at submission. Zero never
    /// waits: a batch takes whatever is already queued.
    pub window: Duration,
    /// Capacity of the runner's pattern →
    /// [`SharedAnalysis`](cmosaic_thermal::SharedAnalysis) cache (0
    /// disables reuse across batches).
    pub analysis_cache: usize,
    /// Capacity of the spec-fingerprint → result LRU (0 disables).
    pub result_cache: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            threads: 4,
            window: Duration::from_millis(10),
            analysis_cache: cmosaic::batch::DEFAULT_ANALYSIS_CACHE,
            result_cache: 256,
        }
    }
}

/// One captured control interval of a scenario — the payload of a
/// streamed `epoch` event, kept spec-pure so live streams and cached
/// replays are indistinguishable.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSnap {
    /// Control-interval index.
    pub epoch: usize,
    /// Simulated time at the end of the interval, seconds.
    pub time: f64,
    /// Hottest junction temperature over the interval, kelvin.
    pub peak_k: f64,
    /// Chip power over the interval, watts.
    pub chip_w: f64,
    /// Pump power over the interval, watts.
    pub pump_w: f64,
    /// Per-cavity coolant flow, m³/s, if any.
    pub flow_m3s: Option<f64>,
}

/// What a submission receives on its reply channel: any number of
/// [`Reply::Epoch`] events (streaming submissions only), then exactly one
/// [`Reply::Done`].
#[derive(Debug, Clone)]
pub enum Reply {
    /// One control interval of one scenario, keyed by spec fingerprint
    /// (the submitter maps fingerprints back to its own slot indices).
    Epoch {
        /// The scenario's spec fingerprint.
        fingerprint: u64,
        /// The captured interval.
        snap: EpochSnap,
    },
    /// Per-slot results in the submission's spec order; terminal.
    Done {
        /// One serialized slot payload per requested spec.
        slots: Vec<Json>,
    },
}

/// Point-in-time counters for the `stats` endpoint.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// Cache and coalescing counters.
    pub cache: CacheStats,
    /// Solver counters summed over every executed scenario.
    pub solver: SolverStats,
    /// Shape of the most recent coalesced batch (requests answered at
    /// submission form none).
    pub last_batch: BatchSummary,
}

/// Shape of one coalesced batch.
#[derive(Debug, Clone, Default)]
pub struct BatchSummary {
    /// Requests merged into the batch.
    pub requests: u64,
    /// Unique scenarios after fingerprint dedup (including cache hits).
    pub unique_scenarios: u64,
    /// Distinct operator patterns among the scenarios actually executed.
    pub pattern_groups: u64,
}

struct Submission {
    specs: Vec<ScenarioSpec>,
    /// `specs[i].fingerprint()`, computed once per request (by the
    /// transport or by [`Scheduler::submit`]).
    fingerprints: Vec<u64>,
    stream: bool,
    reply: Sender<Reply>,
}

enum Msg {
    Submit(Submission),
    Shutdown,
}

/// Everything memoized about one finished (or failed) scenario: the
/// serialized slot payload and the captured epoch stream.
#[derive(Clone)]
struct CachedResult {
    slot: Json,
    epochs: Arc<Vec<EpochSnap>>,
}

/// Sends a cached scenario's captured epoch stream to every subscriber:
/// the same events, in the same order, the cold run streamed live. Both
/// a request answered at submission and a batch's cache hit replay
/// through here.
fn replay(fingerprint: u64, epochs: &[EpochSnap], subs: &[Sender<Reply>]) {
    for sub in subs {
        for snap in epochs {
            let _ = sub.send(Reply::Epoch {
                fingerprint,
                snap: snap.clone(),
            });
        }
    }
}

/// The spec-fingerprint → result LRU, shared by the submitting threads
/// (which answer fully cached requests) and the worker (which fills it).
type ResultCache = Arc<Mutex<LruCache<u64, CachedResult>>>;

/// The coalescing scheduler. Create with [`Scheduler::start`], feed with
/// [`Scheduler::submit`], stop with [`Scheduler::shutdown`] (drains
/// everything already accepted).
pub struct Scheduler {
    tx: Sender<Msg>,
    worker: Mutex<Option<JoinHandle<()>>>,
    accepting: Arc<AtomicBool>,
    results: ResultCache,
    stats: Arc<Mutex<StatsSnapshot>>,
}

impl Scheduler {
    /// Spawns the worker thread and returns the handle.
    pub fn start(config: SchedulerConfig) -> Scheduler {
        let (tx, rx) = mpsc::channel();
        let accepting = Arc::new(AtomicBool::new(true));
        let results = Arc::new(Mutex::new(LruCache::new(config.result_cache)));
        let stats = Arc::new(Mutex::new(StatsSnapshot::default()));
        let worker = Worker {
            runner: BatchRunner::new(config.threads).with_analysis_cache(config.analysis_cache),
            window: config.window,
            results: Arc::clone(&results),
            stats: Arc::clone(&stats),
        };
        let worker = std::thread::spawn(move || worker.run(rx));
        Scheduler {
            tx,
            worker: Mutex::new(Some(worker)),
            accepting,
            results,
            stats,
        }
    }

    /// Submits one request's scenarios. Returns the reply channel, or
    /// `None` when the scheduler is shutting down (the caller should
    /// answer with a refusal). `stream` opts into per-epoch events.
    ///
    /// A request whose every spec is in the result cache is answered
    /// before this returns (the channel already holds its replies);
    /// any other joins a batch.
    pub fn submit(&self, specs: Vec<ScenarioSpec>, stream: bool) -> Option<Receiver<Reply>> {
        let fingerprints = specs.iter().map(ScenarioSpec::fingerprint).collect();
        self.submit_fingerprinted(specs, fingerprints, stream)
    }

    /// [`submit`](Self::submit) for a caller that already holds
    /// `fingerprints[i] == specs[i].fingerprint()`. Crate-private: a
    /// wrong fingerprint would key a result under another spec.
    pub(crate) fn submit_fingerprinted(
        &self,
        specs: Vec<ScenarioSpec>,
        fingerprints: Vec<u64>,
        stream: bool,
    ) -> Option<Receiver<Reply>> {
        debug_assert_eq!(specs.len(), fingerprints.len());
        if !self.accepting.load(Ordering::SeqCst) {
            return None;
        }
        let (reply, rx) = mpsc::channel();
        if !self.answer_cached(&fingerprints, stream, &reply) {
            let sub = Submission {
                specs,
                fingerprints,
                stream,
                reply,
            };
            self.tx.send(Msg::Submit(sub)).ok()?;
        }
        Some(rx)
    }

    /// Answers a request on the caller's thread when every fingerprint
    /// hits the result cache: replays (if `stream`) and `done`, exactly
    /// what a batch would send for it. Returns `false`, having sent
    /// nothing, when any spec misses.
    fn answer_cached(&self, fingerprints: &[u64], stream: bool, reply: &Sender<Reply>) -> bool {
        let mut slots = Vec::with_capacity(fingerprints.len());
        // Each unique spec's captured stream, in first-request order.
        let mut unique: Vec<(u64, Arc<Vec<EpochSnap>>)> = Vec::new();
        {
            let mut results = lock_unpoisoned(&self.results);
            for &fp in fingerprints {
                let Some(entry) = results.get(&fp) else {
                    return false;
                };
                slots.push(entry.slot.clone());
                if unique.iter().all(|(seen, _)| *seen != fp) {
                    unique.push((fp, Arc::clone(&entry.epochs)));
                }
            }
        }
        let hits = unique.len() as u64;
        {
            let mut stats = lock_unpoisoned(&self.stats);
            stats.cache.requests += 1;
            stats.cache.scenarios += hits;
            stats.cache.result_hits += hits;
            stats.cache.coalesced_duplicates += fingerprints.len() as u64 - hits;
        }
        if stream {
            for (fp, epochs) in &unique {
                replay(*fp, epochs, std::slice::from_ref(reply));
            }
        }
        let _ = reply.send(Reply::Done { slots });
        true
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        lock_unpoisoned(&self.stats).clone()
    }

    /// Graceful shutdown: stop accepting, let the worker drain every
    /// already-accepted submission, and join it. Idempotent.
    pub fn shutdown(&self) {
        self.accepting.store(false, Ordering::SeqCst);
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(worker) = lock_unpoisoned(&self.worker).take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-scenario observer: forwards every epoch to the live subscribers
/// and appends it to the scenario's capture log (shared across retry
/// attempts, so the log holds exactly what was streamed).
struct StreamObserver {
    fingerprint: u64,
    log: Arc<Mutex<Vec<EpochSnap>>>,
    subs: Arc<Vec<Sender<Reply>>>,
}

impl Observer for StreamObserver {
    fn on_epoch(&mut self, ctx: &EpochCtx<'_>) {
        let snap = EpochSnap {
            epoch: ctx.epoch,
            time: ctx.time,
            peak_k: ctx.peak.0,
            chip_w: ctx.chip_power,
            pump_w: ctx.pump_power,
            flow_m3s: ctx.flow.map(|q| q.0),
        };
        for sub in self.subs.iter() {
            let _ = sub.send(Reply::Epoch {
                fingerprint: self.fingerprint,
                snap: snap.clone(),
            });
        }
        lock_unpoisoned(&self.log).push(snap);
    }
}

struct Worker {
    runner: BatchRunner,
    window: Duration,
    results: ResultCache,
    stats: Arc<Mutex<StatsSnapshot>>,
}

impl Worker {
    fn run(mut self, rx: Receiver<Msg>) {
        let mut shutting_down = false;
        while !shutting_down {
            // Block for the batch opener.
            let first = match rx.recv() {
                Ok(Msg::Submit(sub)) => sub,
                Ok(Msg::Shutdown) | Err(_) => break,
            };
            let deadline = Instant::now() + self.window;
            let mut runnable = HashSet::new();
            self.note_runnable(&first, &mut runnable);
            let mut batch = vec![first];
            let mut full = false;
            // Coalesce: take every submission already queued, then wait
            // for more only while some runner thread would idle and the
            // batch has something to simulate; a batch the result cache
            // answers whole (its specs were cached while it queued)
            // dispatches at once.
            loop {
                let msg = match rx.try_recv() {
                    Ok(msg) => msg,
                    Err(TryRecvError::Empty) => {
                        if runnable.len() >= self.runner.threads() {
                            full = true;
                            break;
                        }
                        if runnable.is_empty() {
                            break;
                        }
                        let left = deadline.saturating_duration_since(Instant::now());
                        match rx.recv_timeout(left) {
                            Ok(msg) => msg,
                            Err(RecvTimeoutError::Timeout) => break,
                            Err(RecvTimeoutError::Disconnected) => Msg::Shutdown,
                        }
                    }
                    Err(TryRecvError::Disconnected) => Msg::Shutdown,
                };
                match msg {
                    Msg::Submit(sub) => {
                        self.note_runnable(&sub, &mut runnable);
                        batch.push(sub);
                    }
                    Msg::Shutdown => {
                        shutting_down = true;
                        break;
                    }
                }
            }
            self.execute(batch, full);
        }
        // Drain: everything already accepted still runs (one final
        // coalesced batch), then the worker exits.
        let leftovers: Vec<Submission> = rx
            .try_iter()
            .filter_map(|m| match m {
                Msg::Submit(sub) => Some(sub),
                Msg::Shutdown => None,
            })
            .collect();
        if !leftovers.is_empty() {
            self.execute(leftovers, false);
        }
    }

    /// Adds the fingerprints of `sub` that the result cache cannot
    /// answer to `runnable`, the distinct scenarios the batch will
    /// simulate. Only this thread fills the cache, so the count holds
    /// until the batch executes.
    fn note_runnable(&self, sub: &Submission, runnable: &mut HashSet<u64>) {
        let results = lock_unpoisoned(&self.results);
        runnable.extend(
            sub.fingerprints
                .iter()
                .filter(|fp| results.peek(fp).is_none()),
        );
    }

    /// Runs one batch; `full` marks a batch dispatched because its
    /// runnable scenarios filled every runner thread.
    fn execute(&mut self, submissions: Vec<Submission>, full: bool) {
        // 1. Deduplicate scenarios across the batch by spec fingerprint,
        //    registering each streaming submission once per fingerprint.
        struct UniqueJob {
            fingerprint: u64,
            spec: ScenarioSpec,
            subs: Vec<Sender<Reply>>,
        }
        let mut index_of: HashMap<u64, usize> = HashMap::new();
        let mut jobs: Vec<UniqueJob> = Vec::new();
        for sub in &submissions {
            let mut seen_here: HashSet<u64> = HashSet::new();
            for (spec, &fp) in sub.specs.iter().zip(&sub.fingerprints) {
                let j = *index_of.entry(fp).or_insert_with(|| {
                    jobs.push(UniqueJob {
                        fingerprint: fp,
                        spec: spec.clone(),
                        subs: Vec::new(),
                    });
                    jobs.len() - 1
                });
                // Subscribe a streaming submission once per unique spec,
                // even if it asked for the same spec twice.
                if sub.stream && seen_here.insert(fp) {
                    jobs[j].subs.push(sub.reply.clone());
                }
            }
        }
        let duplicates = submissions
            .iter()
            .map(|s| s.specs.len() as u64)
            .sum::<u64>()
            .saturating_sub(jobs.len() as u64);

        // 2. Resolve against the result cache (replaying hits to this
        //    batch's subscribers); build the rest.
        let mut resolved: HashMap<u64, CachedResult> = HashMap::new();
        {
            let mut results = lock_unpoisoned(&self.results);
            for job in &jobs {
                if let Some(entry) = results.get(&job.fingerprint) {
                    resolved.insert(job.fingerprint, entry.clone());
                }
            }
        }
        let result_hits = resolved.len() as u64;
        let result_misses = jobs.len() as u64 - result_hits;
        let mut fresh: Vec<(u64, CachedResult)> = Vec::new();
        let mut to_run: Vec<(usize, Scenario)> = Vec::new();
        for (j, job) in jobs.iter().enumerate() {
            if let Some(entry) = resolved.get(&job.fingerprint) {
                replay(job.fingerprint, &entry.epochs, &job.subs);
                continue;
            }
            match job.spec.build() {
                Ok(scenario) => to_run.push((j, scenario)),
                Err(e) => {
                    // A build failure is as deterministic as a simulated
                    // result: serialize and memoize it the same way.
                    let slot = slot_json(
                        &job.spec.display_label(),
                        job.fingerprint,
                        &Err(SlotError {
                            error: ScenarioError::Failed {
                                detail: e.to_string(),
                            },
                            recovery: RecoveryRecord::default(),
                        }),
                    );
                    let entry = CachedResult {
                        slot,
                        epochs: Arc::new(Vec::new()),
                    };
                    fresh.push((job.fingerprint, entry));
                }
            }
        }

        // 3. Execute the misses as one shared batch; the runner adopts
        //    the analyses of patterns it already knows.
        let mut summary = BatchSummary {
            requests: submissions.len() as u64,
            unique_scenarios: jobs.len() as u64,
            ..BatchSummary::default()
        };
        let mut solver_sum = SolverStats::default();
        if !to_run.is_empty() {
            let scenarios: Vec<Scenario> = to_run.iter().map(|(_, s)| s.clone()).collect();
            let logs: Vec<Arc<Mutex<Vec<EpochSnap>>>> = (0..scenarios.len())
                .map(|_| Arc::new(Mutex::new(Vec::new())))
                .collect();
            let subs: Vec<Arc<Vec<Sender<Reply>>>> = to_run
                .iter()
                .map(|(j, _)| Arc::new(jobs[*j].subs.clone()))
                .collect();
            let fps: Vec<u64> = to_run.iter().map(|(j, _)| jobs[*j].fingerprint).collect();
            let (report, _observers) =
                self.runner
                    .run_scenarios_observed(&scenarios, |i, _s| StreamObserver {
                        fingerprint: fps[i],
                        log: Arc::clone(&logs[i]),
                        subs: Arc::clone(&subs[i]),
                    });
            summary.pattern_groups = report.pattern_groups as u64;
            for outcome in report.outcomes() {
                accumulate(&mut solver_sum, &outcome.solver);
            }
            // Serialize.
            for (run_i, (j, scenario)) in to_run.iter().enumerate() {
                let fp = jobs[*j].fingerprint;
                let slot = slot_json(&scenario.label(), fp, &report.slots[run_i]);
                let epochs = Arc::new(lock_unpoisoned(&logs[run_i]).clone());
                fresh.push((fp, CachedResult { slot, epochs }));
            }
        }

        // 4. Memoize before replying, so a client that repeats its
        //    request right after `done` is answered from the cache.
        let result_evictions = {
            let mut results = lock_unpoisoned(&self.results);
            for (fp, entry) in &fresh {
                results.insert(*fp, entry.clone());
            }
            results.evictions()
        };
        resolved.extend(fresh);

        // 5. Publish counters *before* replying, so a client that reads
        //    `stats` right after its `done` event sees this batch.
        let analyses = self.runner.analysis_cache_stats();
        {
            let mut stats = lock_unpoisoned(&self.stats);
            stats.cache.requests += summary.requests;
            stats.cache.scenarios += jobs.len() as u64;
            stats.cache.batches += 1;
            stats.cache.batches_full += u64::from(full);
            stats.cache.coalesced_duplicates += duplicates;
            stats.cache.result_hits += result_hits;
            stats.cache.result_misses += result_misses;
            stats.cache.result_evictions = result_evictions;
            stats.cache.analysis_hits = analyses.hits;
            stats.cache.analysis_misses = analyses.misses;
            stats.cache.analysis_evictions = analyses.evictions;
            accumulate(&mut stats.solver, &solver_sum);
            stats.last_batch = summary;
        }

        // 6. Answer every submission in its own spec order.
        for sub in &submissions {
            let slots: Vec<Json> = sub
                .fingerprints
                .iter()
                .map(|fp| {
                    resolved
                        .get(fp)
                        .map(|e| e.slot.clone())
                        .expect("every fingerprint was resolved")
                })
                .collect();
            let _ = sub.reply.send(Reply::Done { slots });
        }
    }
}

fn accumulate(into: &mut SolverStats, from: &SolverStats) {
    into.full_factorizations += from.full_factorizations;
    into.refactorizations += from.refactorizations;
    into.pivot_fallbacks += from.pivot_fallbacks;
    into.value_updates += from.value_updates;
    into.in_place_solves += from.in_place_solves;
    into.workspace_grows += from.workspace_grows;
    into.adopted_symbolics += from.adopted_symbolics;
    into.iterative_solves += from.iterative_solves;
    into.iterative_iterations += from.iterative_iterations;
    into.iterative_fallbacks += from.iterative_fallbacks;
    into.mg_cycles += from.mg_cycles;
    into.mg_smooth_sweeps += from.mg_smooth_sweeps;
    into.mg_coarse_solves += from.mg_coarse_solves;
}
