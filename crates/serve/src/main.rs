//! `cmosaic-serve` — the simulation daemon. See the library crate docs
//! for the protocol; run with `--help` for the flags.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use cmosaic_serve::scheduler::SchedulerConfig;
use cmosaic_serve::server::{Server, ServerConfig};

const USAGE: &str = "\
cmosaic-serve — CMOSAIC simulation daemon

USAGE:
    cmosaic-serve [OPTIONS]

OPTIONS:
    --socket <PATH>        unix socket to listen on (NDJSON transport)
                           [default: cmosaic-serve.sock when --http is absent]
    --http <ADDR>          HTTP/1.1 bind address, e.g. 127.0.0.1:8191
                           (use port 0 for an ephemeral port)
    --threads <N>          batch worker threads [default: 4]
    --window-ms <N>        longest wait in ms for a batch of requests with
                           uncached specs to fill the batch threads; a batch
                           that fills them dispatches at once, 0 never waits,
                           and fully cached requests are answered at
                           submission [default: 10]
    --analysis-cache <N>   operator patterns whose analysis the batch runner
                           keeps across batches [default: 32]
    --result-cache <N>     spec->result LRU capacity [default: 256]
    --help                 print this help
";

fn main() -> ExitCode {
    let mut socket: Option<PathBuf> = None;
    let mut http: Option<String> = None;
    let mut scheduler = SchedulerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let parsed: Result<(), String> = match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--socket" => value("--socket").map(|v| socket = Some(PathBuf::from(v))),
            "--http" => value("--http").map(|v| http = Some(v)),
            "--threads" => {
                parse_num(value("--threads"), "--threads").map(|n| scheduler.threads = n)
            }
            "--window-ms" => parse_num(value("--window-ms"), "--window-ms")
                .map(|n: u64| scheduler.window = Duration::from_millis(n)),
            "--analysis-cache" => parse_num(value("--analysis-cache"), "--analysis-cache")
                .map(|n| scheduler.analysis_cache = n),
            "--result-cache" => parse_num(value("--result-cache"), "--result-cache")
                .map(|n| scheduler.result_cache = n),
            other => Err(format!("unknown flag '{other}'")),
        };
        if let Err(e) = parsed {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    if socket.is_none() && http.is_none() {
        socket = Some(PathBuf::from("cmosaic-serve.sock"));
    }

    let config = ServerConfig {
        socket,
        http,
        scheduler,
    };
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = server.socket_path() {
        println!("listening on unix socket {}", path.display());
    }
    if let Some(addr) = server.http_addr() {
        println!("listening on http://{addr}");
    }
    // Runs until a client sends the `shutdown` operation.
    server.wait();
    println!("drained and stopped");
    ExitCode::SUCCESS
}

fn parse_num<T: std::str::FromStr>(value: Result<String, String>, flag: &str) -> Result<T, String> {
    let v = value?;
    v.parse()
        .map_err(|_| format!("{flag}: '{v}' is not a valid number"))
}
