//! **Performance** — the `cmosaic-serve` daemon under concurrent load:
//! request coalescing and cross-request caching against the one-process-
//! per-request baseline.
//!
//! Three measurements:
//!
//! 1. *cold burst*: 8 concurrent NDJSON clients fire overlapping
//!    requests (72 scenario slots, 12 distinct specs, 2 distinct
//!    operator patterns) at a freshly started daemon over its unix
//!    socket — wall clock, requests/sec, batches (and how many closed
//!    early because they filled the runner threads), and the coalescing
//!    invariant: the whole burst runs exactly one analysis (one full
//!    factorisation, counted by the runner's analysis-cache misses) per
//!    distinct *pattern*, not per request, however it is batched;
//! 2. *warm burst*: the identical burst again — every slot must come out
//!    of the result cache with zero additional analyses, and every
//!    response byte must match the cold run (the determinism contract);
//! 3. *isolated baseline*: each distinct spec solo in a fresh
//!    `BatchRunner`, the way a one-shot process would run it; the
//!    amortisation ratio (isolated factorisations the burst *would* have
//!    paid / analyses the daemon actually ran) is the subsystem's reason
//!    to exist.
//!
//! Writes machine-readable results to `BENCH_serve.json` at the repo
//! root. Its fields are of two kinds:
//!
//! * *deterministic* — the burst's shape (`clients`, `requests`,
//!   `scenario_slots`, `distinct_specs`, `distinct_patterns`) and the
//!   factorisation counts (`served_full_factorizations`,
//!   `isolated_full_factorizations`, `amortization_ratio`): the same on
//!   every run and host, whatever the batching;
//! * *timing-dependent* — the wall clocks and rates (`cold_wall_ms`,
//!   `warm_wall_ms`, `*_requests_per_sec`, `solo_ms_per_spec`) and the
//!   counters that depend on how the cold burst's requests met the worker
//!   thread: `coalesced_batches`, `batches_full` and `result_cache_hits`
//!   (a request that reaches the daemon after another batch computed its
//!   specs is answered from the cache). The cold burst formed 1, 2 or 3
//!   batches across 36 runs of one build. `host_parallelism` is the
//!   host's.
//!
//! The factorisation/caching asserts below are deterministic and always
//! enforced; wall-clock numbers are recorded but never gated here. The
//! nightly job gates only deterministic fields of the JSON record.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use cmosaic::{BatchRunner, ScenarioSpec};
use cmosaic_bench::{banner, f, kv, section};
use cmosaic_floorplan::GridSpec;
use cmosaic_serve::json::Json;
use cmosaic_serve::scheduler::SchedulerConfig;
use cmosaic_serve::server::{Server, ServerConfig};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 3;
const SPECS_PER_REQUEST: usize = 3;
const SEEDS_PER_PATTERN: u64 = 6;
const PATTERNS: [usize; 2] = [2, 4]; // tiers — the pattern axis

/// The spec family: 2 operator patterns x 6 seeds = 12 distinct specs.
fn family_spec(k: usize) -> ScenarioSpec {
    let tiers = PATTERNS[k / SEEDS_PER_PATTERN as usize % PATTERNS.len()];
    let seed = 100 + (k as u64 % SEEDS_PER_PATTERN);
    ScenarioSpec::new()
        .tiers(tiers)
        .grid(GridSpec::new(6, 6).expect("static dims"))
        .seconds(2)
        .seed(seed)
}

fn family_size() -> usize {
    PATTERNS.len() * SEEDS_PER_PATTERN as usize
}

/// The spec indices of one request — overlapping slices of the family,
/// deterministic in (client, request).
fn request_specs(client: usize, request: usize) -> Vec<usize> {
    (0..SPECS_PER_REQUEST)
        .map(|s| (client * 5 + request * 7 + s * 3) % family_size())
        .collect()
}

/// The protocol line for one request.
fn request_line(client: usize, request: usize) -> String {
    let specs: Vec<String> = request_specs(client, request)
        .into_iter()
        .map(|k| {
            let tiers = PATTERNS[k / SEEDS_PER_PATTERN as usize % PATTERNS.len()];
            let seed = 100 + (k as u64 % SEEDS_PER_PATTERN);
            format!(r#"{{"tiers":{tiers},"grid":{{"nx":6,"ny":6}},"seconds":2,"seed":{seed}}}"#)
        })
        .collect();
    format!(
        r#"{{"op":"run","id":"c{client}r{request}","specs":[{}]}}"#,
        specs.join(",")
    )
}

/// Fires every client's requests concurrently; returns (wall, responses
/// in (client, request) order).
fn burst(path: &std::path::Path) -> (Duration, Vec<String>) {
    let started = Instant::now();
    let mut responses = vec![String::new(); CLIENTS * REQUESTS_PER_CLIENT];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..CLIENTS {
            handles.push(scope.spawn(move || {
                let mut stream = UnixStream::connect(path).expect("client connects");
                let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
                let mut done_lines = Vec::new();
                for request in 0..REQUESTS_PER_CLIENT {
                    writeln!(stream, "{}", request_line(client, request)).expect("request written");
                    stream.flush().expect("request flushed");
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("done line");
                    done_lines.push(line.trim().to_string());
                }
                done_lines
            }));
        }
        for (client, handle) in handles.into_iter().enumerate() {
            for (request, line) in handle
                .join()
                .expect("client thread")
                .into_iter()
                .enumerate()
            {
                responses[client * REQUESTS_PER_CLIENT + request] = line;
            }
        }
    });
    (started.elapsed(), responses)
}

fn main() {
    banner("Perf: cmosaic-serve coalescing daemon vs one-shot baseline");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    kv("host parallelism", host);

    let path = std::env::temp_dir().join(format!("cmosaic-perf-serve-{}.sock", std::process::id()));
    let server = Server::start(ServerConfig {
        socket: Some(path.clone()),
        http: None,
        scheduler: SchedulerConfig {
            threads: host.min(4),
            window: Duration::from_millis(20),
            ..SchedulerConfig::default()
        },
    })
    .expect("daemon starts");

    let total_requests = CLIENTS * REQUESTS_PER_CLIENT;
    let total_slots = total_requests * SPECS_PER_REQUEST;
    section("cold burst (daemon just started, every cache empty)");
    let (cold_wall, cold) = burst(&path);
    let cold_stats = server.stats();
    kv("requests", total_requests);
    kv("scenario slots requested", total_slots);
    kv("distinct specs", family_size());
    kv("distinct patterns", PATTERNS.len());
    kv(
        "wall",
        format!("{} ms", f(cold_wall.as_secs_f64() * 1e3, 1)),
    );
    kv(
        "requests/sec",
        f(total_requests as f64 / cold_wall.as_secs_f64(), 1),
    );
    kv("coalesced batches", cold_stats.cache.batches);
    kv(
        "batches that filled the threads",
        cold_stats.cache.batches_full,
    );
    kv(
        "analyses (full factorisations)",
        cold_stats.cache.analysis_misses,
    );
    kv("adopted symbolics", cold_stats.solver.adopted_symbolics);
    kv("result-cache misses", cold_stats.cache.result_misses);

    section("warm burst (identical requests, caches hot)");
    let (warm_wall, warm) = burst(&path);
    let warm_stats = server.stats();
    kv(
        "wall",
        format!("{} ms", f(warm_wall.as_secs_f64() * 1e3, 1)),
    );
    kv(
        "requests/sec",
        f(total_requests as f64 / warm_wall.as_secs_f64(), 1),
    );
    kv(
        "result-cache hits",
        warm_stats.cache.result_hits - cold_stats.cache.result_hits,
    );
    let warm_factorizations = warm_stats.cache.analysis_misses - cold_stats.cache.analysis_misses;
    kv("additional analyses", warm_factorizations);

    section("isolated baseline (one fresh BatchRunner per distinct spec)");
    let solo_started = Instant::now();
    let mut solo_factorizations = 0u64;
    for k in 0..family_size() {
        let scenario = family_spec(k).build().expect("spec builds");
        let runner = BatchRunner::new(1);
        runner.run_scenarios(std::slice::from_ref(&scenario));
        solo_factorizations += runner.analysis_cache_stats().misses;
    }
    let solo_wall = solo_started.elapsed();
    let solo_per_spec = solo_wall.as_secs_f64() / family_size() as f64;
    // What the burst would have cost one-shot: one factorisation per
    // requested slot, not per distinct pattern.
    let isolated_factorizations = total_slots as u64 * solo_factorizations / family_size() as u64;
    let amortization =
        isolated_factorizations as f64 / cold_stats.cache.analysis_misses.max(1) as f64;
    kv(
        "solo wall per spec",
        format!("{} ms", f(solo_per_spec * 1e3, 2)),
    );
    kv(
        "isolated factorisations for the burst",
        isolated_factorizations,
    );
    kv(
        "daemon analyses for the burst",
        cold_stats.cache.analysis_misses,
    );
    kv(
        "factorisation amortisation",
        format!("{}x", f(amortization, 1)),
    );

    // ---- Machine-readable record.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"host_parallelism\": {host},");
    let _ = writeln!(json, "  \"clients\": {CLIENTS},");
    let _ = writeln!(json, "  \"requests\": {total_requests},");
    let _ = writeln!(json, "  \"scenario_slots\": {total_slots},");
    let _ = writeln!(json, "  \"distinct_specs\": {},", family_size());
    let _ = writeln!(json, "  \"distinct_patterns\": {},", PATTERNS.len());
    let _ = writeln!(
        json,
        "  \"cold_wall_ms\": {:.3},",
        cold_wall.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        json,
        "  \"warm_wall_ms\": {:.3},",
        warm_wall.as_secs_f64() * 1e3
    );
    let _ = writeln!(
        json,
        "  \"cold_requests_per_sec\": {:.3},",
        total_requests as f64 / cold_wall.as_secs_f64()
    );
    let _ = writeln!(
        json,
        "  \"warm_requests_per_sec\": {:.3},",
        total_requests as f64 / warm_wall.as_secs_f64()
    );
    let _ = writeln!(
        json,
        "  \"coalesced_batches\": {},",
        cold_stats.cache.batches
    );
    let _ = writeln!(
        json,
        "  \"batches_full\": {},",
        cold_stats.cache.batches_full
    );
    let _ = writeln!(
        json,
        "  \"served_full_factorizations\": {},",
        cold_stats.cache.analysis_misses
    );
    let _ = writeln!(
        json,
        "  \"isolated_full_factorizations\": {isolated_factorizations},"
    );
    let _ = writeln!(json, "  \"amortization_ratio\": {amortization:.3},");
    let _ = writeln!(
        json,
        "  \"result_cache_hits\": {},",
        warm_stats.cache.result_hits
    );
    let _ = writeln!(json, "  \"solo_ms_per_spec\": {:.3}", solo_per_spec * 1e3);
    json.push_str("}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(out, &json).expect("write BENCH_serve.json");
    section("record");
    kv("written", out);

    // ---- Hard guarantees (all deterministic — never relaxed).
    assert_eq!(
        cold_stats.cache.analysis_misses,
        PATTERNS.len() as u64,
        "the cold burst must analyse once per distinct pattern, not per request"
    );
    assert_eq!(
        cold_stats.cache.result_misses,
        family_size() as u64,
        "each distinct spec must be simulated exactly once across the burst"
    );
    assert_eq!(
        warm_factorizations, 0,
        "the warm burst must be served entirely from the caches"
    );
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c, w, "warm responses must be byte-identical to cold ones");
    }
    // Spot-check the responses are real results, not errors.
    for line in &cold {
        let event = Json::parse(line).expect("done line parses");
        assert_eq!(event.get("event").and_then(Json::as_str), Some("done"));
        for slot in event
            .get("results")
            .and_then(Json::as_arr)
            .expect("results")
        {
            assert_eq!(slot.get("ok").and_then(Json::as_bool), Some(true));
        }
    }
    assert!(
        amortization >= PATTERNS.len() as f64,
        "amortisation collapsed: {amortization:.1}x"
    );

    // Clean shutdown, so the record is only written by healthy runs.
    server.shutdown();
    server.wait();
    assert!(!path.exists(), "socket removed on clean shutdown");
    println!(
        "\ncoalescing invariant held: {} slots, {} patterns, {} analyses",
        total_slots,
        PATTERNS.len(),
        cold_stats.cache.analysis_misses
    );
}
