//! The counters surfaced on the `stats` endpoint. The caches themselves
//! are the workspace's one LRU ([`cmosaic_thermal::LruCache`]): the
//! scheduler's result cache, keyed by spec
//! [`fingerprint`](cmosaic::ScenarioSpec::fingerprint), and the batch
//! runner's analysis cache, keyed by operator pattern.

/// Monotonic counters describing how well the cross-request caches and
/// the coalescer are doing. All counters are cumulative since server
/// start; they are scheduling-dependent by nature and therefore live on
/// the `stats` endpoint, never in a `run` response.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Scenario results served straight from the result LRU.
    pub result_hits: u64,
    /// Scenario results that had to be simulated.
    pub result_misses: u64,
    /// Pattern groups whose symbolic analysis came from the runner's
    /// analysis cache (no analysis job for that group).
    pub analysis_hits: u64,
    /// Pattern groups analysed fresh, one analysis job each (the
    /// analysis was then cached): every full factorisation the daemon's
    /// healthy batches ran.
    pub analysis_misses: u64,
    /// Evictions from the result LRU.
    pub result_evictions: u64,
    /// Evictions from the runner's analysis cache.
    pub analysis_evictions: u64,
    /// Requests answered: each request of a coalesced batch, plus each
    /// fully cached request answered at submission.
    pub requests: u64,
    /// Unique scenarios executed or replayed across all requests.
    pub scenarios: u64,
    /// Coalesced batches executed. A fully cached request is answered at
    /// submission and forms none.
    pub batches: u64,
    /// Batches dispatched because their runnable scenarios filled every
    /// runner thread, before the coalescing window ran out. A batch with
    /// no runnable scenario also dispatches at once but is not counted.
    pub batches_full: u64,
    /// Scenarios deduplicated away: a spec fingerprint requested more
    /// than once in one batch, or more than once in one request answered
    /// at submission.
    pub coalesced_duplicates: u64,
}
