//! Simulation-as-a-service: a long-running daemon over the CMOSAIC batch
//! engine.
//!
//! One-shot processes pay the whole cold-start bill — symbolic analysis,
//! operator caches, memoized evaluations — on every invocation. This
//! crate keeps a process warm and shares that work across callers:
//!
//! * **Coalescing** ([`scheduler`]): a request whose every spec is
//!   already in the result cache is answered at submission, on the
//!   caller's thread. The others are merged into
//!   [`BatchRunner`](cmosaic::BatchRunner) batches, so one symbolic
//!   analysis serves every request of a batch with the same (stack,
//!   grid, thermal parameters) operator pattern. A batch waits for more
//!   requests, at most the short coalescing window, only while its
//!   uncached specs leave a runner thread idle.
//! * **Cross-request caching** ([`cache`]): the daemon's one
//!   [`BatchRunner`](cmosaic::BatchRunner) keeps the
//!   [`SharedAnalysis`](cmosaic_thermal::SharedAnalysis) of every pattern
//!   it analysed, and the scheduler keeps finished per-scenario results
//!   keyed by the spec's stable
//!   [`fingerprint`](cmosaic::ScenarioSpec::fingerprint) — a warm pattern
//!   costs no analysis, a repeated spec costs zero simulation.
//! * **Protocol** ([`protocol`], [`server`]): newline-delimited JSON over
//!   a unix socket, plus HTTP/1.1 on localhost (`POST /run` streaming
//!   chunked NDJSON, `GET /stats`, `POST /shutdown`). The JSON itself is
//!   the hand-rolled [`json`] module with bit-exact `f64` round-trips.
//!
//! # Determinism contract
//!
//! An identical request yields a bit-identical `done` payload regardless
//! of batching, concurrency, coalescing-window timing, or cache warmth —
//! whether it is answered at submission or by a batch, since a cached
//! entry is exactly what the batch path would replay.
//! This leans on a property of the engine underneath: every scenario
//! adopts its pattern's analysis however warm the runner is, and adoption
//! is bit-neutral besides (an adopted analysis and a fresh one normalise
//! onto the same numeric sweep), so every scenario outcome is a pure
//! bitwise function of its spec. Run responses therefore carry only
//! spec-pure data — metrics, fingerprints, deterministic failure
//! reports; solver and cache counters, which *do* depend on scheduling,
//! live on the separate `stats` endpoint.
//!
//! # Fault isolation
//!
//! A panicking or diverging scenario fails only its own slot, through the
//! batch engine's retry ladder and `catch_unwind` isolation; co-batched
//! requests complete normally and the daemon keeps serving.

pub mod cache;
pub mod json;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use cache::CacheStats;
pub use json::Json;
pub use protocol::Request;
pub use scheduler::{Scheduler, SchedulerConfig, StatsSnapshot};
pub use server::{Server, ServerConfig};
