//! Integration tests of the `cmosaic-serve` daemon:
//!
//! * concurrent overlapping requests coalesce into one batch with exactly
//!   one analysis per distinct operator pattern — not per request —
//!   asserted via the `stats` counters;
//! * a batch dispatches as soon as its runnable specs fill every runner
//!   thread (`batches_full`), or at once when it has none, and otherwise
//!   closes by the window, and same-pattern requests in separate full
//!   batches still analyse once, all asserted with counters (and, for
//!   the batch with nothing to simulate, a reply well inside a 60 s
//!   window);
//! * every served result is bit-identical (at the serialized-slot level)
//!   to an offline `BatchRunner` run of the same spec, cold or warm, and
//!   warm cache hits replay the identical per-epoch stream;
//! * a request whose every spec is cached is answered at submission: it
//!   forms no batch and no analysis, counts its hits and repeats,
//!   and is still refused after shutdown; a partly cached one still
//!   forms a batch;
//! * a panicking scenario fails only its own slot while co-batched
//!   requests complete, and the daemon keeps serving afterwards;
//! * both transports speak the protocol end to end: NDJSON over a unix
//!   socket and chunked NDJSON over HTTP/1.1, with graceful shutdown;
//!   an overlong NDJSON line, a spec beyond the size bounds, an overlong
//!   HTTP header line, an oversized HTTP body and an unparsable
//!   `Content-Length` are refused without harming the daemon.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use cmosaic::fault::{FaultKind, FaultPlan};
use cmosaic::{BatchRunner, ScenarioSpec};
use cmosaic_floorplan::GridSpec;
use cmosaic_serve::json::Json;
use cmosaic_serve::protocol::slot_json;
use cmosaic_serve::scheduler::{EpochSnap, Reply, Scheduler, SchedulerConfig};
use cmosaic_serve::server::{Server, ServerConfig};

/// All seeds share one `(stack, grid, thermal)` operator pattern.
fn spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::new()
        .tiers(2)
        .grid(GridSpec::new(6, 6).expect("static dims"))
        .seconds(3)
        .seed(seed)
}

fn config(window_ms: u64) -> SchedulerConfig {
    SchedulerConfig {
        threads: 2,
        window: Duration::from_millis(window_ms),
        analysis_cache: 8,
        result_cache: 32,
    }
}

/// The serialized slot an offline single-scenario batch produces — the
/// byte-level ground truth every daemon answer must match.
fn offline_slot(spec: &ScenarioSpec) -> String {
    let scenario = spec.build().expect("spec builds");
    let report = BatchRunner::new(1).run_scenarios(std::slice::from_ref(&scenario));
    slot_json(&scenario.label(), spec.fingerprint(), &report.slots[0]).encode()
}

/// Drains a reply channel into (epoch events, done slots).
fn drain(rx: std::sync::mpsc::Receiver<Reply>) -> (Vec<Reply>, Vec<Json>) {
    let mut epochs = Vec::new();
    for reply in rx {
        match reply {
            e @ Reply::Epoch { .. } => epochs.push(e),
            Reply::Done { slots } => return (epochs, slots),
        }
    }
    panic!("reply channel closed without a done event");
}

/// Epoch events grouped by fingerprint, each group in arrival order: the
/// per-slot streams a client sees, whatever the interleaving between
/// scenarios that ran in parallel.
fn streams(epochs: &[Reply]) -> BTreeMap<u64, Vec<EpochSnap>> {
    let mut out: BTreeMap<u64, Vec<EpochSnap>> = BTreeMap::new();
    for reply in epochs {
        let Reply::Epoch { fingerprint, snap } = reply else {
            unreachable!("drain only returns epoch events here");
        };
        out.entry(*fingerprint).or_default().push(snap.clone());
    }
    out
}

/// The replies already queued when `submit` returns, which must end with
/// `done`: proof that the request was answered at submission, without
/// waiting for the (long) coalescing window.
fn answered_at_submission(rx: std::sync::mpsc::Receiver<Reply>) -> (Vec<Reply>, Vec<Json>) {
    let mut replies: Vec<Reply> = rx.try_iter().collect();
    match replies.pop() {
        Some(Reply::Done { slots }) => (replies, slots),
        other => panic!("not answered at submission: last reply {other:?}"),
    }
}

#[test]
fn coalesced_requests_share_one_factorization_and_match_offline_runs() {
    // Four runner threads: the three distinct specs never fill them, so
    // the batch waits out the window and takes all four requests.
    let scheduler = Scheduler::start(SchedulerConfig {
        threads: 4,
        ..config(400)
    });
    // Four overlapping requests, three distinct specs, one pattern. The
    // fourth request asks for the same spec twice in one request.
    let rx_a = scheduler.submit(vec![spec(1), spec(2)], false).unwrap();
    let rx_b = scheduler.submit(vec![spec(2), spec(3)], false).unwrap();
    let rx_c = scheduler.submit(vec![spec(1)], false).unwrap();
    let rx_d = scheduler.submit(vec![spec(3), spec(3)], false).unwrap();

    let (_, a) = drain(rx_a);
    let (_, b) = drain(rx_b);
    let (_, c) = drain(rx_c);
    let (_, d) = drain(rx_d);

    // One coalesced batch: 4 requests, 7 requested slots, 3 unique
    // scenarios, 1 pattern group, exactly 1 analysis.
    let stats = scheduler.stats();
    assert_eq!(stats.cache.batches, 1, "requests must coalesce: {stats:?}");
    assert_eq!(stats.cache.batches_full, 0, "closed by the window");
    assert_eq!(stats.cache.requests, 4);
    assert_eq!(stats.cache.scenarios, 3);
    assert_eq!(stats.cache.coalesced_duplicates, 4);
    assert_eq!(stats.cache.result_misses, 3);
    assert_eq!(stats.cache.result_hits, 0);
    assert_eq!(stats.last_batch.pattern_groups, 1);
    assert_eq!(
        stats.cache.analysis_misses, 1,
        "one analysis per pattern, not per request: {stats:?}"
    );
    assert_eq!(stats.solver.full_factorizations, 0, "{stats:?}");
    assert_eq!(stats.solver.adopted_symbolics, 3, "{stats:?}");

    // Every slot is bit-identical to the offline ground truth.
    let (o1, o2, o3) = (
        offline_slot(&spec(1)),
        offline_slot(&spec(2)),
        offline_slot(&spec(3)),
    );
    assert_eq!(a[0].encode(), o1);
    assert_eq!(a[1].encode(), o2);
    assert_eq!(b[0].encode(), o2);
    assert_eq!(b[1].encode(), o3);
    assert_eq!(c[0].encode(), o1);
    assert_eq!(d[0].encode(), o3);
    assert_eq!(d[1].encode(), o3);

    scheduler.shutdown();
}

#[test]
fn two_single_spec_requests_fill_two_threads_as_one_full_batch() {
    // The first request leaves one of the two threads idle, so its batch
    // waits; the second fills it, and the batch dispatches.
    let scheduler = Scheduler::start(config(400));
    let rx_a = scheduler.submit(vec![spec(101)], false).unwrap();
    let rx_b = scheduler.submit(vec![spec(102)], false).unwrap();
    let (_, a) = drain(rx_a);
    let (_, b) = drain(rx_b);

    let stats = scheduler.stats();
    assert_eq!(stats.cache.batches, 1, "{stats:?}");
    assert_eq!(stats.cache.batches_full, 1, "{stats:?}");
    assert_eq!(stats.last_batch.requests, 2);
    assert_eq!(stats.cache.analysis_misses, 1);
    assert_eq!(a[0].encode(), offline_slot(&spec(101)));
    assert_eq!(b[0].encode(), offline_slot(&spec(102)));
    scheduler.shutdown();
}

#[test]
fn a_batch_with_one_runnable_spec_closes_by_the_window() {
    let scheduler = Scheduler::start(config(400));
    let (_, warm) = drain(scheduler.submit(vec![spec(111)], false).unwrap());
    let before = scheduler.stats();
    assert_eq!(before.cache.batches, 1, "{before:?}");
    assert_eq!(before.cache.batches_full, 0, "one spec fills one thread");

    // A cached spec and a fresh spec asked twice: two distinct specs, but
    // only one runnable, so the batch still leaves a thread idle.
    let rx = scheduler.submit(vec![spec(111), spec(112), spec(112)], false);
    let (_, slots) = drain(rx.unwrap());
    let after = scheduler.stats();
    assert_eq!(after.cache.batches, before.cache.batches + 1, "{after:?}");
    assert_eq!(after.cache.batches_full, before.cache.batches_full);
    assert_eq!(after.last_batch.unique_scenarios, 2);
    assert_eq!(after.cache.result_hits, before.cache.result_hits + 1);
    assert_eq!(after.cache.result_misses, before.cache.result_misses + 1);

    let (o111, o112) = (offline_slot(&spec(111)), offline_slot(&spec(112)));
    assert_eq!(warm[0].encode(), o111);
    assert_eq!(slots[0].encode(), o111);
    assert_eq!(slots[1].encode(), o112);
    assert_eq!(slots[2].encode(), o112);
    scheduler.shutdown();
}

#[test]
fn a_batch_with_nothing_to_simulate_dispatches_at_once() {
    // A window no answer may wait out.
    let scheduler = Scheduler::start(config(60_000));
    let long = |seed| spec(seed).seconds(30);
    // Two runnable specs fill both threads: this batch dispatches at once,
    // and its first epoch event shows it running.
    let rx_a = scheduler.submit(vec![long(131), long(132)], true).unwrap();
    assert!(matches!(rx_a.recv(), Ok(Reply::Epoch { .. })));
    // Asked for while that batch runs, spec 131 is not cached yet, so the
    // request goes to the worker; the batch it opens there finds every
    // spec cached and has nothing to simulate.
    let rx_b = scheduler.submit(vec![long(131)], false).unwrap();
    let (_, a) = drain(rx_a);
    let b = match rx_b.recv_timeout(Duration::from_secs(20)) {
        Ok(Reply::Done { slots }) => slots,
        other => panic!("the cached batch waited for its window: {other:?}"),
    };
    let stats = scheduler.stats();
    assert_eq!(stats.cache.batches, 2, "{stats:?}");
    assert_eq!(stats.cache.batches_full, 1, "only the first batch filled");
    assert_eq!(stats.cache.result_misses, 2);
    assert_eq!(stats.cache.result_hits, 1);
    assert_eq!(stats.last_batch.requests, 1);
    assert_eq!(stats.last_batch.pattern_groups, 0);
    assert_eq!(stats.cache.analysis_misses, 1, "{stats:?}");
    assert_eq!(a[0].encode(), offline_slot(&long(131)));
    assert_eq!(b[0].encode(), a[0].encode());
    scheduler.shutdown();
}

#[test]
fn same_pattern_requests_in_separate_full_batches_factorise_once() {
    let scheduler = Scheduler::start(config(400));
    let (_, first) = drain(scheduler.submit(vec![spec(121), spec(122)], false).unwrap());
    let (_, second) = drain(scheduler.submit(vec![spec(123), spec(124)], false).unwrap());

    // Each request fills both threads alone; the second batch adopts the
    // analysis the runner kept from the first.
    let stats = scheduler.stats();
    assert_eq!(stats.cache.batches, 2, "{stats:?}");
    assert_eq!(stats.cache.batches_full, 2, "{stats:?}");
    assert_eq!(
        stats.cache.analysis_misses, 1,
        "one analysis across both batches: {stats:?}"
    );
    assert_eq!(stats.cache.analysis_hits, 1);
    assert_eq!(stats.solver.full_factorizations, 0, "{stats:?}");
    assert_eq!(stats.solver.adopted_symbolics, 4, "{stats:?}");

    assert_eq!(first[0].encode(), offline_slot(&spec(121)));
    assert_eq!(first[1].encode(), offline_slot(&spec(122)));
    assert_eq!(second[0].encode(), offline_slot(&spec(123)));
    assert_eq!(second[1].encode(), offline_slot(&spec(124)));
    scheduler.shutdown();
}

#[test]
fn warm_cache_replays_bit_identical_results_and_epoch_streams() {
    let scheduler = Scheduler::start(config(5));
    let rx = scheduler.submit(vec![spec(11)], true).unwrap();
    let (cold_epochs, cold) = drain(rx);
    assert!(!cold_epochs.is_empty(), "streaming run emits epoch events");

    let rx = scheduler.submit(vec![spec(11)], true).unwrap();
    let (warm_epochs, warm) = drain(rx);

    // The warm answer comes from the result cache, with no batch and no
    // analysis beyond the cold run's ...
    let stats = scheduler.stats();
    assert_eq!(stats.cache.result_hits, 1, "{stats:?}");
    assert_eq!(stats.cache.result_misses, 1);
    assert_eq!(stats.cache.batches, 1, "the warm request formed no batch");
    assert_eq!(
        stats.cache.analysis_misses, 1,
        "the warm request analysed nothing"
    );
    assert_eq!(stats.solver.adopted_symbolics, 1, "ran no scenario");
    // ... and is indistinguishable from the cold one, epochs included.
    assert_eq!(cold[0].encode(), warm[0].encode());
    assert_eq!(cold_epochs.len(), warm_epochs.len());
    for (c, w) in cold_epochs.iter().zip(&warm_epochs) {
        let (
            Reply::Epoch {
                fingerprint: cf,
                snap: cs,
            },
            Reply::Epoch {
                fingerprint: wf,
                snap: ws,
            },
        ) = (c, w)
        else {
            unreachable!("drain only returns epoch events here");
        };
        assert_eq!(cf, wf);
        assert_eq!(cs, ws);
    }
    // Both equal the offline ground truth.
    assert_eq!(cold[0].encode(), offline_slot(&spec(11)));

    scheduler.shutdown();
}

#[test]
fn fully_cached_requests_are_answered_at_submission() {
    // A long window: a request that reached the worker would wait 400 ms,
    // so its replies could not be queued when `submit` returns.
    let scheduler = Scheduler::start(config(400));
    let specs = || vec![spec(61), spec(62)];
    let (cold_epochs, cold) = drain(scheduler.submit(specs(), true).unwrap());
    assert_eq!(cold[0].encode(), offline_slot(&spec(61)));
    assert_eq!(cold[1].encode(), offline_slot(&spec(62)));
    let cold_streams = streams(&cold_epochs);
    assert_eq!(cold_streams.len(), 2, "both specs streamed");
    let after_cold = scheduler.stats();
    assert_eq!(after_cold.cache.batches, 1, "{after_cold:?}");
    assert_eq!(after_cold.cache.analysis_misses, 1);

    for stream in [false, true] {
        let before = scheduler.stats();
        let rx = scheduler.submit(specs(), stream).unwrap();
        let (epochs, warm) = answered_at_submission(rx);
        let after = scheduler.stats();
        // No batch, no analysis, no scenario run, one hit per unique spec.
        assert_eq!(after.cache.batches, before.cache.batches, "{after:?}");
        assert_eq!(after.cache.analysis_misses, before.cache.analysis_misses);
        assert_eq!(after.solver, before.solver);
        assert_eq!(after.cache.result_hits, before.cache.result_hits + 2);
        assert_eq!(after.cache.result_misses, before.cache.result_misses);
        assert_eq!(after.cache.requests, before.cache.requests + 1);
        assert_eq!(after.cache.scenarios, before.cache.scenarios + 2);
        // Byte for byte the cold answer, epoch events included.
        assert_eq!(warm.len(), cold.len());
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(w.encode(), c.encode());
        }
        if stream {
            assert_eq!(epochs.len(), cold_epochs.len());
            assert_eq!(streams(&epochs), cold_streams);
        } else {
            assert!(epochs.is_empty(), "a plain request gets no epochs");
        }
    }
    scheduler.shutdown();
}

#[test]
fn partly_cached_request_still_forms_a_batch() {
    let scheduler = Scheduler::start(config(400));
    drain(scheduler.submit(vec![spec(71)], false).unwrap());
    let before = scheduler.stats();
    let (_, slots) = drain(scheduler.submit(vec![spec(71), spec(72)], false).unwrap());
    let after = scheduler.stats();
    assert_eq!(after.cache.batches, before.cache.batches + 1, "{after:?}");
    assert_eq!(after.cache.result_hits, before.cache.result_hits + 1);
    assert_eq!(after.cache.result_misses, before.cache.result_misses + 1);
    assert_eq!(after.last_batch.requests, 1);
    assert_eq!(after.last_batch.unique_scenarios, 2);
    assert_eq!(slots[0].encode(), offline_slot(&spec(71)));
    assert_eq!(slots[1].encode(), offline_slot(&spec(72)));
    scheduler.shutdown();
}

#[test]
fn fully_cached_repeat_counts_as_a_coalesced_duplicate() {
    let scheduler = Scheduler::start(config(400));
    let (cold_epochs, cold) = drain(scheduler.submit(vec![spec(81)], true).unwrap());
    let before = scheduler.stats();
    let rx = scheduler.submit(vec![spec(81), spec(81)], true).unwrap();
    let (epochs, warm) = answered_at_submission(rx);
    let after = scheduler.stats();
    assert_eq!(after.cache.batches, before.cache.batches, "{after:?}");
    assert_eq!(
        after.cache.coalesced_duplicates,
        before.cache.coalesced_duplicates + 1
    );
    assert_eq!(after.cache.result_hits, before.cache.result_hits + 1);
    assert_eq!(after.cache.scenarios, before.cache.scenarios + 1);
    assert_eq!(warm[0].encode(), cold[0].encode());
    assert_eq!(warm[1].encode(), cold[0].encode());
    // One replay per unique spec, as a batch subscribes a repeat once.
    assert_eq!(streams(&epochs), streams(&cold_epochs));
    scheduler.shutdown();
}

#[test]
fn fully_cached_request_is_refused_after_shutdown() {
    let scheduler = Scheduler::start(config(400));
    drain(scheduler.submit(vec![spec(91)], false).unwrap());
    let rx = scheduler.submit(vec![spec(91)], false).unwrap();
    answered_at_submission(rx);
    scheduler.shutdown();
    assert!(
        scheduler.submit(vec![spec(91)], false).is_none(),
        "a cached answer must not bypass shutdown"
    );
}

#[test]
fn panicking_scenario_fails_only_its_slot() {
    let scheduler = Scheduler::start(config(400));
    let faulty = spec(21).fault_plan(FaultPlan::none().at(1, FaultKind::Panic));
    let rx_bad = scheduler.submit(vec![faulty], false).unwrap();
    let rx_ok = scheduler.submit(vec![spec(22)], false).unwrap();

    let (_, bad) = drain(rx_bad);
    let (_, ok) = drain(rx_ok);

    // Same coalesced batch: the panic is isolated to its own slot.
    let stats = scheduler.stats();
    assert_eq!(stats.cache.batches, 1, "{stats:?}");
    assert_eq!(
        bad[0].get("ok").and_then(Json::as_bool),
        Some(false),
        "{}",
        bad[0].encode()
    );
    assert!(
        bad[0].get("error").is_some(),
        "failed slot reports its error: {}",
        bad[0].encode()
    );
    assert_eq!(
        ok[0].get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        ok[0].encode()
    );
    assert_eq!(ok[0].encode(), offline_slot(&spec(22)));

    // The daemon survives and keeps serving — including a warm replay of
    // the deterministic failure itself.
    let rx = scheduler.submit(
        vec![spec(21).fault_plan(FaultPlan::none().at(1, FaultKind::Panic))],
        false,
    );
    let (_, again) = drain(rx.expect("scheduler still accepts work"));
    assert_eq!(
        again[0].encode(),
        bad[0].encode(),
        "failures memoize deterministically"
    );
    assert_eq!(scheduler.stats().cache.result_hits, 1);

    scheduler.shutdown();
}

#[test]
fn shutdown_drains_inflight_work_and_refuses_new_submissions() {
    let scheduler = Scheduler::start(config(300));
    let rx = scheduler.submit(vec![spec(31)], false).unwrap();
    scheduler.shutdown(); // arrives inside the coalescing window
    let (_, slots) = drain(rx);
    assert_eq!(
        slots[0].encode(),
        offline_slot(&spec(31)),
        "drained, not dropped"
    );
    assert!(
        scheduler.submit(vec![spec(32)], false).is_none(),
        "new work is refused after shutdown"
    );
}

// ------------------------------------------------------------ transports --

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cmosaic-serve-{tag}-{}.sock", std::process::id()))
}

fn send_line(stream: &mut UnixStream, line: &str) {
    writeln!(stream, "{line}").expect("request written");
    stream.flush().expect("request flushed");
}

#[test]
fn unix_socket_ndjson_round_trip_with_graceful_shutdown() {
    let path = socket_path("ndjson");
    let server = Server::start(ServerConfig {
        socket: Some(path.clone()),
        http: None,
        scheduler: config(5),
    })
    .expect("server starts");

    let mut stream = UnixStream::connect(&path).expect("client connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    let mut next = |reader: &mut BufReader<UnixStream>| {
        line.clear();
        reader.read_line(&mut line).expect("response line");
        Json::parse(line.trim()).expect("response is valid JSON")
    };

    send_line(&mut stream, r#"{"op":"ping"}"#);
    assert_eq!(
        next(&mut reader).get("event").and_then(Json::as_str),
        Some("pong")
    );

    // Malformed request: error event, connection stays usable.
    send_line(&mut stream, "{nope");
    assert_eq!(
        next(&mut reader).get("event").and_then(Json::as_str),
        Some("error")
    );

    let run = r#"{"op":"run","id":"r1","specs":[
        {"tiers":2,"grid":{"nx":6,"ny":6},"seconds":3,"seed":41},
        {"tiers":2,"grid":{"nx":6,"ny":6},"seconds":3,"seed":42}]}"#
        .replace('\n', " ");
    send_line(&mut stream, &run);
    let done = next(&mut reader);
    assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
    assert_eq!(done.get("id").and_then(Json::as_str), Some("r1"));
    let results = done
        .get("results")
        .and_then(Json::as_arr)
        .expect("results array");
    let (o41, o42) = (offline_slot(&spec(41)), offline_slot(&spec(42)));
    assert_eq!(results[0].encode(), o41);
    assert_eq!(results[1].encode(), o42);

    // The identical request again: byte-identical answer off the cache.
    send_line(&mut stream, &run);
    let warm = next(&mut reader);
    assert_eq!(
        warm.encode(),
        done.encode(),
        "cache warmth must be invisible"
    );

    send_line(&mut stream, r#"{"op":"stats"}"#);
    let stats = next(&mut reader);
    assert_eq!(stats.get("event").and_then(Json::as_str), Some("stats"));
    let cache = stats.get("cache").expect("cache block");
    assert_eq!(cache.get("result_hits").and_then(Json::as_u64), Some(2));
    assert_eq!(cache.get("result_misses").and_then(Json::as_u64), Some(2));

    send_line(&mut stream, r#"{"op":"shutdown"}"#);
    assert_eq!(
        next(&mut reader).get("event").and_then(Json::as_str),
        Some("bye")
    );
    drop(stream);

    server.wait();
    assert!(!path.exists(), "socket file removed on clean shutdown");
}

/// Everything the daemon sends until it closes the connection. A daemon
/// refusing a request closes with the client's input unread, so the
/// close may arrive as a reset after the response.
fn read_until_closed(stream: &mut impl Read) -> String {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => panic!("connection not closed: {e}"),
        }
    }
    String::from_utf8(out).expect("UTF-8 response")
}

#[test]
fn unix_socket_refuses_an_overlong_line_and_keeps_serving() {
    let path = socket_path("overlong");
    let server = Server::start(ServerConfig {
        socket: Some(path.clone()),
        http: None,
        scheduler: config(5),
    })
    .expect("server starts");

    // 2 MiB without a newline: the daemon answers once the line passes
    // its 1 MiB bound and closes, so the rest of this write may fail.
    let mut stream = UnixStream::connect(&path).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let _ = stream.write_all(&vec![b'x'; 2 << 20]);
    let answer = read_until_closed(&mut stream);
    let lines: Vec<&str> = answer.lines().collect();
    assert_eq!(lines.len(), 1, "one event, then the close: {answer:?}");
    assert_eq!(
        Json::parse(lines[0])
            .expect("error event is valid JSON")
            .get("event")
            .and_then(Json::as_str),
        Some("error")
    );

    let mut stream = UnixStream::connect(&path).expect("client reconnects");
    send_line(&mut stream, r#"{"op":"ping"}"#);
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("pong line");
    assert_eq!(
        Json::parse(line.trim())
            .unwrap()
            .get("event")
            .and_then(Json::as_str),
        Some("pong")
    );
    server.shutdown();
    server.wait();
}

#[test]
fn unix_socket_refuses_an_oversized_spec_and_keeps_running_scenarios() {
    let path = socket_path("oversized");
    let server = Server::start(ServerConfig {
        socket: Some(path.clone()),
        http: None,
        scheduler: config(5),
    })
    .expect("server starts");
    let mut stream = UnixStream::connect(&path).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut next = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        Json::parse(line.trim()).expect("response is valid JSON")
    };

    // A duration whose workload trace no allocator could hold, in the
    // string form that passes the JSON number range: refused as a
    // request error before any scenario is built.
    send_line(
        &mut stream,
        r#"{"op":"run","id":"big","specs":[{"grid":{"nx":6,"ny":6},"seconds":"2305843009213693952"}]}"#,
    );
    let refused = next();
    assert_eq!(refused.get("event").and_then(Json::as_str), Some("error"));
    let detail = refused.get("detail").and_then(Json::as_str).unwrap_or("");
    assert!(detail.contains("seconds must be at most"), "{detail}");

    // The next request on the same server still runs its scenario.
    send_line(
        &mut stream,
        r#"{"op":"run","id":"ok","specs":[{"tiers":2,"grid":{"nx":6,"ny":6},"seconds":3,"seed":43}]}"#,
    );
    let done = next();
    assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
    let results = done
        .get("results")
        .and_then(Json::as_arr)
        .expect("results array");
    assert_eq!(results[0].encode(), offline_slot(&spec(43)));
    drop(stream);
    server.shutdown();
    server.wait();
}

/// Minimal HTTP client: one request, returns (status line, body with
/// chunked framing stripped when present).
fn http_roundtrip(addr: std::net::SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("tcp connect");
    stream
        .write_all(request.as_bytes())
        .expect("request written");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response read");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or_default().to_string();
    let body = if head.lines().any(|l| {
        l.to_ascii_lowercase()
            .contains("transfer-encoding: chunked")
    }) {
        let mut out = String::new();
        let mut rest = body;
        loop {
            let (size_line, tail) = rest.split_once("\r\n").expect("chunk size line");
            let n = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
            if n == 0 {
                break;
            }
            out.push_str(&tail[..n]);
            rest = tail[n..].strip_prefix("\r\n").expect("chunk terminator");
        }
        out
    } else {
        body.to_string()
    };
    (status, body)
}

#[test]
fn http_transport_streams_epochs_and_serves_stats() {
    let server = Server::start(ServerConfig {
        socket: None,
        http: Some("127.0.0.1:0".to_string()),
        scheduler: config(5),
    })
    .expect("server starts");
    let addr = server.http_addr().expect("bound http address");

    let (status, body) = http_roundtrip(
        addr,
        "GET /ping HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("event")
            .and_then(Json::as_str),
        Some("pong")
    );

    let payload =
        r#"{"stream":true,"specs":[{"tiers":2,"grid":{"nx":6,"ny":6},"seconds":3,"seed":51}]}"#;
    let request = format!(
        "POST /run HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    let (status, body) = http_roundtrip(addr, &request);
    assert_eq!(status, "HTTP/1.1 200 OK");
    let events: Vec<Json> = body
        .lines()
        .map(|l| Json::parse(l).expect("NDJSON event line"))
        .collect();
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("event").and_then(Json::as_str))
        .collect();
    assert!(kinds.len() >= 2, "epochs then done: {kinds:?}");
    assert!(
        kinds[..kinds.len() - 1].iter().all(|k| *k == "epoch"),
        "{kinds:?}"
    );
    assert_eq!(kinds[kinds.len() - 1], "done");
    let results = events[events.len() - 1]
        .get("results")
        .and_then(Json::as_arr)
        .expect("results array");
    assert_eq!(results[0].encode(), offline_slot(&spec(51)));

    let (status, body) = http_roundtrip(
        addr,
        "GET /stats HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    let stats = Json::parse(&body).unwrap();
    assert_eq!(
        stats
            .get("cache")
            .and_then(|c| c.get("analysis_misses"))
            .and_then(Json::as_u64),
        Some(1)
    );

    let (status, body) = http_roundtrip(
        addr,
        "POST /shutdown HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("event")
            .and_then(Json::as_str),
        Some("bye")
    );
    server.wait();
}

#[test]
fn http_refuses_an_oversized_body_and_keeps_serving() {
    let server = Server::start(ServerConfig {
        socket: None,
        http: Some("127.0.0.1:0".to_string()),
        scheduler: config(5),
    })
    .expect("server starts");
    let addr = server.http_addr().expect("bound http address");

    let (status, body) = http_roundtrip(
        addr,
        "POST /run HTTP/1.1\r\nHost: localhost\r\nContent-Length: 1000000000000\r\n\
         Connection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 413 Payload Too Large");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("event")
            .and_then(Json::as_str),
        Some("error")
    );

    let (status, body) = http_roundtrip(
        addr,
        "GET /ping HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("event")
            .and_then(Json::as_str),
        Some("pong")
    );
    server.shutdown();
    server.wait();
}

#[test]
fn http_refuses_an_overlong_header_line_and_a_bad_content_length() {
    let server = Server::start(ServerConfig {
        socket: None,
        http: Some("127.0.0.1:0".to_string()),
        scheduler: config(5),
    })
    .expect("server starts");
    let addr = server.http_addr().expect("bound http address");

    // A 16 KiB header line, twice the bound: refused, connection closed.
    let mut stream = TcpStream::connect(addr).expect("tcp connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let request = format!(
        "GET /ping HTTP/1.1\r\nX-Pad: {}\r\nConnection: close\r\n\r\n",
        "a".repeat(16 << 10)
    );
    let _ = stream.write_all(request.as_bytes());
    let raw = read_until_closed(&mut stream);
    assert_eq!(
        raw.lines().next(),
        Some("HTTP/1.1 431 Request Header Fields Too Large"),
        "{raw}"
    );
    let (_, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    assert_eq!(
        Json::parse(body)
            .unwrap()
            .get("event")
            .and_then(Json::as_str),
        Some("error")
    );

    // A Content-Length that is not a number is a bad request, not an
    // empty body.
    let (status, body) = http_roundtrip(
        addr,
        "POST /run HTTP/1.1\r\nHost: localhost\r\nContent-Length: lots\r\n\
         Connection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("event")
            .and_then(Json::as_str),
        Some("error")
    );

    let (status, _) = http_roundtrip(
        addr,
        "GET /ping HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    server.shutdown();
    server.wait();
}
