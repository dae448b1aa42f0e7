//! Simulation-as-a-service walkthrough: start the `cmosaic-serve` daemon
//! in-process on a unix socket, talk to it as a plain NDJSON client, and
//! shut it down gracefully.
//!
//! ```bash
//! cargo run --release --example serve_client
//! ```
//!
//! The same conversation works against a standalone daemon
//! (`cargo run --release --bin cmosaic-serve -- --socket /tmp/cmosaic.sock`)
//! with nothing but `nc -U /tmp/cmosaic.sock`; the in-process server here
//! keeps the example self-contained. CI runs this example as the daemon
//! smoke test — every `assert!` is part of the contract.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use cmosaic_serve::json::Json;
use cmosaic_serve::scheduler::SchedulerConfig;
use cmosaic_serve::server::{Server, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("cmosaic-serve: coalescing simulation daemon over a unix socket\n");

    let path =
        std::env::temp_dir().join(format!("cmosaic-serve-example-{}.sock", std::process::id()));
    let server = Server::start(ServerConfig {
        socket: Some(path.clone()),
        http: None,
        scheduler: SchedulerConfig {
            threads: 2,
            window: Duration::from_millis(5),
            ..SchedulerConfig::default()
        },
    })?;
    println!("daemon listening on {}\n", path.display());

    let mut stream = UnixStream::connect(&path)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let request = |stream: &mut UnixStream, line: &str| -> std::io::Result<()> {
        writeln!(stream, "{line}")?;
        stream.flush()
    };
    let next_event = |reader: &mut BufReader<UnixStream>| -> Result<Json, String> {
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        Json::parse(line.trim()).map_err(|e| e.to_string())
    };

    // Liveness first.
    request(&mut stream, r#"{"op":"ping"}"#)?;
    let pong = next_event(&mut reader)?;
    assert_eq!(pong.get("event").and_then(Json::as_str), Some("pong"));
    println!("ping -> pong");

    // A streamed two-scenario run: both specs share one operator pattern,
    // so the daemon factorises once and the second scenario adopts.
    let run = r#"{"op":"run","id":"demo","stream":true,"specs":[
        {"tiers":2,"grid":{"nx":8,"ny":8},"seconds":4,"seed":1,"policy":"lc-fuzzy"},
        {"tiers":2,"grid":{"nx":8,"ny":8},"seconds":4,"seed":2,"policy":"lc-fuzzy"}]}"#
        .replace('\n', " ");
    request(&mut stream, &run)?;
    println!("run (streaming, 2 scenarios, 1 operator pattern):");
    let done = loop {
        let event = next_event(&mut reader)?;
        match event.get("event").and_then(Json::as_str) {
            Some("epoch") => {
                let slot = event.get("slot").and_then(Json::as_u64).unwrap_or(0);
                let t = event.get("time_s").and_then(Json::as_f64).unwrap_or(0.0);
                let peak = event.get("peak_k").and_then(Json::as_f64).unwrap_or(0.0);
                println!(
                    "  epoch slot={slot} t={t:>4.1}s peak={:.1}degC",
                    peak - 273.15
                );
            }
            Some("done") => break event,
            other => panic!("unexpected event {other:?}"),
        }
    };
    let results = done.get("results").and_then(Json::as_arr).expect("results");
    assert_eq!(results.len(), 2);
    for slot in results {
        assert_eq!(slot.get("ok").and_then(Json::as_bool), Some(true));
        let label = slot.get("label").and_then(Json::as_str).unwrap_or("?");
        let peak = slot
            .get("metrics")
            .and_then(|m| m.get("peak_temperature_k"))
            .and_then(Json::as_f64)
            .expect("metrics present");
        println!("  done  {label}: peak {:.1}degC", peak - 273.15);
    }

    // The identical request again: answered from the result cache,
    // byte-identical by the determinism contract.
    request(&mut stream, &run)?;
    let warm = loop {
        let event = next_event(&mut reader)?;
        if event.get("event").and_then(Json::as_str) == Some("done") {
            break event;
        }
    };
    assert_eq!(
        warm.encode(),
        done.encode(),
        "cache warmth must be invisible"
    );
    println!("\nrepeated request: byte-identical answer off the result cache");

    // The stats endpoint tells the efficiency story the responses hide.
    request(&mut stream, r#"{"op":"stats"}"#)?;
    let stats = next_event(&mut reader)?;
    let cache = stats.get("cache").expect("cache stats");
    let solver = stats.get("solver").expect("solver stats");
    let n = |v: &Json, k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "stats: {} scenarios across {} requests, {} analysis (full factorisation), \
         {} adopted, {} result-cache hit(s)",
        n(cache, "scenarios"),
        n(cache, "requests"),
        n(cache, "analysis_misses"),
        n(solver, "adopted_symbolics"),
        n(cache, "result_hits"),
    );
    assert_eq!(n(cache, "analysis_misses"), 1, "one pattern, one analysis");
    assert_eq!(
        n(cache, "result_hits"),
        2,
        "the repeat was served from cache"
    );

    // Graceful shutdown: the daemon drains, acknowledges, and the accept
    // loops wind down.
    request(&mut stream, r#"{"op":"shutdown"}"#)?;
    let bye = next_event(&mut reader)?;
    assert_eq!(bye.get("event").and_then(Json::as_str), Some("bye"));
    drop(stream);
    server.wait();
    assert!(!path.exists(), "socket file removed on clean shutdown");
    println!("shutdown -> bye; daemon drained and stopped cleanly");
    Ok(())
}
