//! The daemon's listeners: newline-delimited JSON over a unix socket and
//! HTTP/1.1 on localhost, both hand-rolled over the standard library.
//!
//! Every connection speaks the [`protocol`](crate::protocol) event
//! vocabulary. The unix transport is symmetric NDJSON — one request per
//! line in, one event per line out. The HTTP transport maps the same
//! operations onto `POST /run` (response streamed as chunked NDJSON),
//! `GET /stats`, `GET /ping` and `POST /shutdown`.
//!
//! Every line either transport reads is bounded, so no client can make
//! the daemon buffer without limit. An NDJSON line over 1 MiB gets an
//! `error` event; an HTTP request line or header line over 8 KiB gets
//! `431 Request Header Fields Too Large`; either way the connection is
//! closed without reading the rest. An HTTP request body over 1 MiB is
//! refused with `413 Payload Too Large` before it is read, and a
//! `Content-Length` that is not a number with `400 Bad Request`.
//!
//! Shutdown is graceful by construction: the `shutdown` operation flips
//! the accept loops' stop flag, then drains the scheduler — every
//! already-accepted request still runs to completion and receives its
//! `done` event — before the acknowledgement is written. New submissions
//! arriving during the drain are refused with an `error` event.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use cmosaic::ScenarioSpec;

use crate::json::{obj, Json};
use crate::protocol::{done_event, epoch_event, error_event, solver_json, Request};
use crate::scheduler::{Reply, Scheduler, SchedulerConfig, StatsSnapshot};

/// Where and how a [`Server`] listens.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Unix-socket path (NDJSON transport). `None` disables it.
    pub socket: Option<PathBuf>,
    /// HTTP bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    /// `None` disables the HTTP transport.
    pub http: Option<String>,
    /// Scheduler tuning (threads, coalescing window, cache capacities).
    pub scheduler: SchedulerConfig,
}

/// A running daemon. Dropping it (or calling [`Server::shutdown`] then
/// [`Server::wait`]) stops the listeners and drains the scheduler.
pub struct Server {
    scheduler: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    socket: Option<PathBuf>,
    http_addr: Option<SocketAddr>,
    acceptors: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Binds the configured listeners and spawns their accept loops.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let scheduler = Arc::new(Scheduler::start(config.scheduler));
        let stop = Arc::new(AtomicBool::new(false));
        let mut acceptors = Vec::new();
        let mut http_addr = None;

        if let Some(path) = &config.socket {
            // A stale socket file from a previous run would fail the bind.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            let shared = Shared {
                scheduler: Arc::clone(&scheduler),
                stop: Arc::clone(&stop),
            };
            acceptors.push(std::thread::spawn(move || {
                accept_loop(|| listener.accept().map(|(s, _)| s), &shared, serve_ndjson);
            }));
        }

        if let Some(addr) = &config.http {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            http_addr = Some(listener.local_addr()?);
            let shared = Shared {
                scheduler: Arc::clone(&scheduler),
                stop: Arc::clone(&stop),
            };
            acceptors.push(std::thread::spawn(move || {
                accept_loop(|| listener.accept().map(|(s, _)| s), &shared, serve_http);
            }));
        }

        Ok(Server {
            scheduler,
            stop,
            socket: config.socket,
            http_addr,
            acceptors: Mutex::new(acceptors),
        })
    }

    /// The bound HTTP address (useful with an ephemeral `:0` port).
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The unix-socket path, when that transport is enabled.
    pub fn socket_path(&self) -> Option<&Path> {
        self.socket.as_deref()
    }

    /// Scheduler counters (what the `stats` operation reports).
    pub fn stats(&self) -> StatsSnapshot {
        self.scheduler.stats()
    }

    /// Initiates a graceful shutdown from the host process: stops the
    /// accept loops and drains the scheduler. Idempotent; also triggered
    /// remotely by the protocol's `shutdown` operation.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.scheduler.shutdown();
    }

    /// Blocks until the accept loops exit (after [`Server::shutdown`] or
    /// a remote `shutdown` request), then removes the socket file.
    pub fn wait(&self) {
        let handles: Vec<_> = self
            .acceptors
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
        if let Some(path) = &self.socket {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.wait();
    }
}

#[derive(Clone)]
struct Shared {
    scheduler: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
}

/// Polls a nonblocking listener until the stop flag flips, handing every
/// connection to its own thread. Connection threads are detached — they
/// exit when their client disconnects or the request completes, and the
/// scheduler drain guarantees in-flight runs finish before the daemon's
/// shutdown acknowledgement.
fn accept_loop<S, A, H>(mut accept: A, shared: &Shared, handle: H)
where
    S: Send + 'static,
    A: FnMut() -> io::Result<S>,
    H: Fn(S, Shared) + Copy + Send + 'static,
{
    while !shared.stop.load(Ordering::SeqCst) {
        match accept() {
            Ok(stream) => {
                let shared = shared.clone();
                std::thread::spawn(move || handle(stream, shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// One line read by [`read_bounded_line`].
enum Line {
    /// A line without its `\n` or `\r\n` terminator (the stream's last
    /// line may lack one).
    Text(String),
    /// The stream ended before another byte.
    End,
    /// The line runs past the bound; what was read of it is dropped.
    TooLong,
}

/// Reads one line of at most `max` bytes before its `\n`, holding at
/// most `max + 1` bytes of it in memory. A line that is not UTF-8 is an
/// `InvalidData` error, as with [`BufRead::lines`].
fn read_bounded_line(reader: &mut impl BufRead, max: usize) -> io::Result<Line> {
    let mut buf = Vec::new();
    let n = reader.take(max as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Line::End);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if n > max {
        return Ok(Line::TooLong);
    }
    String::from_utf8(buf)
        .map(Line::Text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The unix transport: one JSON request per line, events back as lines.
fn serve_ndjson(stream: UnixStream, shared: Shared) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let line = match read_bounded_line(&mut reader, MAX_BODY_BYTES) {
            Ok(Line::Text(line)) => line,
            Ok(Line::TooLong) => {
                let detail = format!("request line over {MAX_BODY_BYTES} bytes");
                let _ = writeln!(writer, "{}", error_event(None, &detail).encode());
                let _ = writer.flush();
                break;
            }
            Ok(Line::End) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let emit = &mut |event: &Json| writeln!(writer, "{}", event.encode());
        let done = dispatch_line(&line, &shared, emit);
        let _ = writer.flush();
        if done {
            break;
        }
    }
}

/// Parses one NDJSON line and runs the request, emitting events through
/// `emit`. Returns `true` when the connection should close (shutdown).
fn dispatch_line(
    line: &str,
    shared: &Shared,
    emit: &mut dyn FnMut(&Json) -> io::Result<()>,
) -> bool {
    let parsed = Json::parse(line)
        .map_err(|e| format!("malformed JSON: {e}"))
        .and_then(|v| Request::parse(&v));
    match parsed {
        Err(detail) => {
            let _ = emit(&error_event(None, &detail));
            false
        }
        Ok(Request::Ping) => {
            let _ = emit(&obj(vec![("event", Json::str("pong"))]));
            false
        }
        Ok(Request::Stats) => {
            let _ = emit(&stats_event(&shared.scheduler.stats()));
            false
        }
        Ok(Request::Shutdown) => {
            shared.stop.store(true, Ordering::SeqCst);
            shared.scheduler.shutdown(); // drains in-flight work
            let _ = emit(&obj(vec![("event", Json::str("bye"))]));
            true
        }
        Ok(Request::Run { id, stream, specs }) => {
            run_request(id.as_deref(), stream, specs, shared, emit);
            false
        }
    }
}

/// Submits a run and relays its reply stream to the client.
fn run_request(
    id: Option<&str>,
    stream: bool,
    specs: Vec<ScenarioSpec>,
    shared: &Shared,
    emit: &mut dyn FnMut(&Json) -> io::Result<()>,
) {
    let fingerprints: Vec<u64> = specs.iter().map(ScenarioSpec::fingerprint).collect();
    // A spec may occupy several slots of one request; every slot gets
    // the (identical) epoch events of its fingerprint. Only a streaming
    // request receives epoch events.
    let mut slots_of: HashMap<u64, Vec<usize>> = HashMap::new();
    if stream {
        for (i, &fp) in fingerprints.iter().enumerate() {
            slots_of.entry(fp).or_default().push(i);
        }
    }
    let submitted = shared
        .scheduler
        .submit_fingerprinted(specs, fingerprints, stream);
    let Some(rx) = submitted else {
        let _ = emit(&error_event(id, "server is shutting down"));
        return;
    };
    for reply in rx {
        match reply {
            Reply::Epoch { fingerprint, snap } => {
                for &slot in slots_of.get(&fingerprint).map(Vec::as_slice).unwrap_or(&[]) {
                    let event = epoch_event(
                        id,
                        slot,
                        snap.epoch,
                        snap.time,
                        snap.peak_k,
                        snap.chip_w,
                        snap.pump_w,
                        snap.flow_m3s,
                    );
                    if emit(&event).is_err() {
                        return;
                    }
                }
            }
            Reply::Done { slots } => {
                let _ = emit(&done_event(id, slots));
                return;
            }
        }
    }
    // Channel closed without a Done: the worker is gone mid-drain.
    let _ = emit(&error_event(id, "server is shutting down"));
}

/// A [`StatsSnapshot`] as a `stats` event.
fn stats_event(s: &StatsSnapshot) -> Json {
    obj(vec![
        ("event", Json::str("stats")),
        (
            "cache",
            obj(vec![
                ("result_hits", Json::u64(s.cache.result_hits)),
                ("result_misses", Json::u64(s.cache.result_misses)),
                ("analysis_hits", Json::u64(s.cache.analysis_hits)),
                ("analysis_misses", Json::u64(s.cache.analysis_misses)),
                ("result_evictions", Json::u64(s.cache.result_evictions)),
                ("analysis_evictions", Json::u64(s.cache.analysis_evictions)),
                ("requests", Json::u64(s.cache.requests)),
                ("scenarios", Json::u64(s.cache.scenarios)),
                ("batches", Json::u64(s.cache.batches)),
                ("batches_full", Json::u64(s.cache.batches_full)),
                (
                    "coalesced_duplicates",
                    Json::u64(s.cache.coalesced_duplicates),
                ),
            ]),
        ),
        ("solver", solver_json(&s.solver)),
        (
            "last_batch",
            obj(vec![
                ("requests", Json::u64(s.last_batch.requests)),
                ("unique_scenarios", Json::u64(s.last_batch.unique_scenarios)),
                ("pattern_groups", Json::u64(s.last_batch.pattern_groups)),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------- HTTP --

/// Largest request body the HTTP transport reads, and longest NDJSON
/// line. A spec object is about 150 bytes, so this holds thousands of
/// them; a larger `Content-Length` is refused with `413` before anything
/// is allocated for it.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest HTTP request line or header line the transport reads.
const MAX_HEADER_LINE_BYTES: usize = 8 << 10;

/// The HTTP transport: one request per connection (`Connection: close`).
fn serve_http(stream: TcpStream, shared: Shared) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;

    let Some(request_line) = http_head_line(&mut reader, &mut writer) else {
        return;
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return,
    };

    // Headers: we only care about Content-Length.
    let mut content_length = Some(0usize);
    loop {
        let Some(line) = http_head_line(&mut reader, &mut writer) else {
            return;
        };
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let Some(content_length) = content_length else {
        let payload = error_event(None, "Content-Length is not a byte count").encode();
        let _ = write_http_json(&mut writer, "400 Bad Request", &payload);
        return;
    };
    if content_length > MAX_BODY_BYTES {
        let detail = format!("request body over {MAX_BODY_BYTES} bytes");
        let payload = error_event(None, &detail).encode();
        let _ = write_http_json(&mut writer, "413 Payload Too Large", &payload);
        return;
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 && reader.read_exact(&mut body).is_err() {
        return;
    }
    let body = String::from_utf8_lossy(&body).into_owned();

    match (method.as_str(), path.as_str()) {
        ("POST", "/run") => http_run(&body, &shared, &mut writer),
        ("GET", "/stats") => {
            let payload = stats_event(&shared.scheduler.stats()).encode();
            let _ = write_http_json(&mut writer, "200 OK", &payload);
        }
        ("GET", "/ping") => {
            let payload = obj(vec![("event", Json::str("pong"))]).encode();
            let _ = write_http_json(&mut writer, "200 OK", &payload);
        }
        ("POST", "/shutdown") => {
            shared.stop.store(true, Ordering::SeqCst);
            shared.scheduler.shutdown();
            let payload = obj(vec![("event", Json::str("bye"))]).encode();
            let _ = write_http_json(&mut writer, "200 OK", &payload);
        }
        _ => {
            let payload = error_event(None, "no such endpoint").encode();
            let _ = write_http_json(&mut writer, "404 Not Found", &payload);
        }
    }
}

/// Reads the request line or one header line. An overlong line is
/// answered with `431`; `None` means the connection should close.
fn http_head_line(reader: &mut impl BufRead, writer: &mut TcpStream) -> Option<String> {
    match read_bounded_line(reader, MAX_HEADER_LINE_BYTES) {
        Ok(Line::Text(line)) => Some(line),
        Ok(Line::TooLong) => {
            let detail = format!("request or header line over {MAX_HEADER_LINE_BYTES} bytes");
            let payload = error_event(None, &detail).encode();
            let _ = write_http_json(writer, "431 Request Header Fields Too Large", &payload);
            None
        }
        Ok(Line::End) | Err(_) => None,
    }
}

/// `POST /run`: body is the run request object (the `op` field is
/// implied by the path and may be omitted); the response streams every
/// event as chunked NDJSON.
fn http_run(body: &str, shared: &Shared, writer: &mut TcpStream) {
    let parsed = Json::parse(body)
        .map_err(|e| format!("malformed JSON body: {e}"))
        .map(|v| match v {
            Json::Obj(mut fields) => {
                if !fields.iter().any(|(k, _)| k == "op") {
                    fields.push(("op".to_string(), Json::str("run")));
                }
                Json::Obj(fields)
            }
            other => other,
        })
        .and_then(|v| Request::parse(&v));

    let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
    if writer.write_all(head.as_bytes()).is_err() {
        return;
    }
    {
        let mut emit = |event: &Json| write_chunk(writer, &event.encode());
        match parsed {
            Ok(Request::Run { id, stream, specs }) => {
                run_request(id.as_deref(), stream, specs, shared, &mut emit);
            }
            Ok(_) => {
                let _ = emit(&error_event(None, "POST /run only accepts run requests"));
            }
            Err(detail) => {
                let _ = emit(&error_event(None, &detail));
            }
        }
    }
    let _ = writer.write_all(b"0\r\n\r\n");
    let _ = writer.flush();
}

fn write_chunk(writer: &mut TcpStream, line: &str) -> io::Result<()> {
    // One NDJSON line (payload + '\n') per HTTP chunk.
    write!(writer, "{:x}\r\n{line}\n\r\n", line.len() + 1)?;
    writer.flush()
}

/// Writes a whole `application/json` response from one buffer, not one
/// `write` per format piece. A refusal closes with the client's input
/// unread, which resets the connection and drops whatever is still
/// queued to send, so no part of the response may wait behind another.
fn write_http_json(writer: &mut TcpStream, status: &str, payload: &str) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    writer.write_all(response.as_bytes())?;
    writer.flush()
}
