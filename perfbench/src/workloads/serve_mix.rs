//! `serve_mix` — the served-request entry path: an in-process daemon on a
//! unix socket (default scheduler settings, `threads` = the host's
//! parallelism) loaded by two closed-loop NDJSON clients, each sending,
//! after an untimed warm-up of the hot set, a seeded request sequence:
//! repeats of a 16-spec hot set, fresh 10 s specs
//! on the warm 2- and 4-tier patterns, streaming requests, three-spec
//! requests with an in-request duplicate, and a few first uses of new
//! grids (cold patterns).

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cmosaic::{BatchRunner, ScenarioSpec};
use cmosaic_serve::json::obj;
use cmosaic_serve::protocol::{done_event, parse_spec, slot_json};
use cmosaic_serve::{Json, SchedulerConfig, Server, ServerConfig};

use crate::common::{derived_seed, ms, push_rss, shuffle, splitmix, stream, Ctx, SETUP_REPS};
use crate::metrics::Outcome;
use crate::replay::{self, Res};
use crate::stats;
use crate::trace::SpanId;

/// Closed-loop clients (one per core of the reference 2-core host).
const CLIENTS: usize = 2;
/// Specs in the hot set.
const HOT: usize = 16;
/// Requests generated per client (more than any run sends).
const PER_CLIENT: usize = 4000;
/// Every this many requests a client sends one first use of a new grid.
const COLD_EVERY: usize = 240;
/// The classes of one block of 20 requests (60 % hot, 30 % fresh, 5 %
/// streaming, 5 % three-spec). Each client sends block after block, each
/// in its own seeded order, so every run meets the same mix and only the
/// order is drawn.
const BLOCK: [Class; 20] = {
    use Class::{Fresh as F, Hot as H, Multi as M, Stream as S};
    [H, H, H, H, H, H, H, H, H, H, H, H, F, F, F, F, F, F, S, M]
};
/// Simulated seconds per served spec.
const SECONDS: u64 = 10;

const POLICIES: [&str; 3] = ["lc-fuzzy", "lc-lb", "lc-fuzzy-flow-only"];
const WORKLOADS: [&str; 4] = ["web-server", "database", "multimedia", "max-utilization"];
/// Grids of the cold requests, each used once per run.
const COLD_GRIDS: [(u64, u64); 12] = [
    (10, 10),
    (10, 11),
    (11, 10),
    (11, 11),
    (10, 13),
    (13, 10),
    (13, 13),
    (14, 10),
    (10, 14),
    (14, 14),
    (13, 11),
    (11, 13),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot,
    Fresh,
    Stream,
    Multi,
    Cold,
}

/// One generated request: its wire line and the specs it asks for
/// (indices into the spec table).
struct Req {
    id: String,
    class: Class,
    specs: Vec<usize>,
    line: String,
}

/// What a client saw for one request.
struct Answer {
    req: usize,
    ms: f64,
    done: Option<String>,
    epochs: usize,
}

fn spec_json(tiers: u64, grid: (u64, u64), policy: &str, workload: &str, seed: u64) -> Json {
    obj(vec![
        ("tiers", Json::u64(tiers)),
        ("coolant", Json::str("water")),
        (
            "grid",
            obj(vec![("nx", Json::u64(grid.0)), ("ny", Json::u64(grid.1))]),
        ),
        ("workload", Json::str(workload)),
        ("policy", Json::str(policy)),
        ("seconds", Json::u64(SECONDS)),
        ("seed", Json::u64(seed)),
    ])
}

/// The `n`-th spec of a family on a warm pattern (12×12) with trace seed
/// `seed`, with 4 tiers on every `wide`-th spec (its miss costs about
/// three times a 2-tier one; `wide` 0: never). Policy and workload follow
/// `n`: the twelve (policy, workload) pairs take turns, so every run seed
/// gets the same cost mix, and with `wide` coprime to 12 every pair also
/// recurs at 4 tiers.
fn warm_spec(seed: u64, n: usize, wide: usize) -> Json {
    let tiers = if wide > 0 && n % wide == wide - 1 {
        4
    } else {
        2
    };
    let policy = POLICIES[n % POLICIES.len()];
    let workload = WORKLOADS[(n / POLICIES.len()) % WORKLOADS.len()];
    spec_json(tiers, (12, 12), policy, workload, seed)
}

/// The seeded request sequences of every client, over one spec table.
struct Mix {
    specs: Vec<Json>,
    clients: Vec<Vec<Req>>,
}

fn generate(seed: u64) -> Mix {
    let mut specs = Vec::new();
    let base = derived_seed(seed, 5) * 100_000;
    for i in 0..HOT {
        specs.push(warm_spec(base + i as u64, i, 7));
    }
    // Fresh and cold specs take consecutive trace seeds after the hot set.
    let mut next_seed = base + HOT as u64;
    let mut clients = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let mut rng = stream(seed, 10 + c as u64);
        let mut reqs = Vec::with_capacity(PER_CLIENT);
        let mut block = BLOCK;
        let mut fresh_n = 0;
        // Only the first client's fresh specs have 4 tiers, so two 4-tier
        // misses never run at once: whether they did was a timing
        // coincidence that moved peak memory by 10 MB from run to run.
        let wide = if c == 0 { 5 } else { 0 };
        for k in 0..PER_CLIENT {
            if k % BLOCK.len() == 0 {
                shuffle(&mut block, &mut rng);
            }
            let mut fresh = |specs: &mut Vec<Json>| {
                next_seed += 1;
                specs.push(warm_spec(next_seed, fresh_n, wide));
                fresh_n += 1;
                specs.len() - 1
            };
            let hot = |rng: &mut u64| (splitmix(rng) % HOT as u64) as usize;
            // Client c takes cold grids c, c + CLIENTS, c + 2·CLIENTS, ...
            let cold = c + CLIENTS * (k / COLD_EVERY);
            let class = if k % COLD_EVERY == COLD_EVERY / 2 && cold < COLD_GRIDS.len() {
                Class::Cold
            } else {
                block[k % BLOCK.len()]
            };
            let ids = match class {
                Class::Hot | Class::Stream => vec![hot(&mut rng)],
                Class::Fresh => vec![fresh(&mut specs)],
                Class::Multi => {
                    let a = fresh(&mut specs);
                    vec![a, hot(&mut rng), a]
                }
                Class::Cold => {
                    next_seed += 1;
                    specs.push(spec_json(
                        2,
                        COLD_GRIDS[cold],
                        "lc-fuzzy",
                        "web-server",
                        next_seed,
                    ));
                    vec![specs.len() - 1]
                }
            };
            let id = format!("c{c}-{k}");
            let line = obj(vec![
                ("op", Json::str("run")),
                ("id", Json::str(id.clone())),
                ("stream", Json::Bool(class == Class::Stream)),
                (
                    "specs",
                    Json::Arr(ids.iter().map(|&i| specs[i].clone()).collect()),
                ),
            ])
            .encode();
            reqs.push(Req {
                id,
                class,
                specs: ids,
                line,
            });
        }
        clients.push(reqs);
    }
    Mix { specs, clients }
}

/// The daemon's scheduler: defaults, one worker per core of the host.
fn scheduler_config() -> SchedulerConfig {
    SchedulerConfig {
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..SchedulerConfig::default()
    }
}

fn server_config(socket: &Path) -> ServerConfig {
    ServerConfig {
        socket: Some(socket.to_path_buf()),
        http: None,
        scheduler: scheduler_config(),
    }
}

/// A line-oriented client connection.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Client {
    fn connect(socket: &Path) -> Res<Client> {
        let writer = UnixStream::connect(socket)?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> Res<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        Ok(())
    }

    fn recv(&mut self) -> Res<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err("daemon closed the connection".into());
        }
        Ok(self.line.trim_end())
    }

    /// Sends a run request and reads up to its terminal event: the `done`
    /// line (`None` on an `error` event) and the epoch events before it.
    fn run(&mut self, line: &str) -> Res<(Option<String>, usize)> {
        self.send(line)?;
        let mut epochs = 0;
        loop {
            let l = self.recv()?;
            if l.contains("\"event\":\"done\"") {
                return Ok((Some(l.to_string()), epochs));
            }
            if l.contains("\"event\":\"error\"") {
                return Ok((None, epochs));
            }
            epochs += 1;
        }
    }

    fn ping(&mut self) -> Res<()> {
        self.send(r#"{"op":"ping"}"#)?;
        if self.recv()?.contains("pong") {
            Ok(())
        } else {
            Err("no pong".into())
        }
    }
}

/// Starts the daemon and connects (and pings) every client.
fn start(socket: &Path) -> Res<(Server, Vec<Client>)> {
    let server = Server::start(server_config(socket))?;
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(socket))
        .collect::<Res<Vec<_>>>()?;
    for c in &mut clients {
        c.ping()?;
    }
    Ok((server, clients))
}

/// Times one daemon start with both clients connected and answered.
fn sample_setup(socket: &Path, samples: &mut Vec<f64>) -> Res<()> {
    let t = Instant::now();
    let (server, clients) = start(socket)?;
    samples.push(t.elapsed().as_secs_f64());
    drop(clients);
    drop(server);
    Ok(())
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::default();
    let socket: PathBuf = ctx.run_dir.join("serve.sock");
    // Set-up samples straddle the timed phase (half before, half after,
    // on a socket of their own). During it, a daemon start would queue
    // behind the four busy threads and time the OS scheduler instead.
    let setup_socket = ctx.run_dir.join("setup.sock");
    let mut setup_s = Vec::new();
    while setup_s.len() < SETUP_REPS / 2 {
        sample_setup(&setup_socket, &mut setup_s)?;
    }
    let mix = generate(ctx.seed);
    let (server, mut clients) = start(&socket)?;
    // Warm-up: every hot spec once, so the timed phase meets the hot set
    // cached, as it stays (each hot spec recurs every few dozen requests).
    for spec in &mix.specs[..HOT] {
        let line = obj(vec![
            ("op", Json::str("run")),
            ("specs", Json::Arr(vec![spec.clone()])),
        ])
        .encode();
        clients[0].run(&line)?;
    }

    // Timed phase: both clients in a closed loop until the time is up.
    let begin = Instant::now();
    let answers: Vec<Result<Vec<Answer>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&mix.clients)
            .enumerate()
            .map(|(c, (mut client, reqs))| {
                let rec = &ctx.rec;
                s.spawn(move || -> Result<Vec<Answer>, String> {
                    let mut answers = Vec::new();
                    for (k, req) in reqs.iter().enumerate() {
                        if begin.elapsed() >= ctx.seconds {
                            break;
                        }
                        let id = (c * PER_CLIENT + k) as u64;
                        let t = Instant::now();
                        let (done_line, epochs) = rec
                            .span("serve.request", SpanId::NONE, id, |_| client.run(&req.line))
                            .map_err(|e| e.to_string())?;
                        answers.push(Answer {
                            req: k,
                            ms: ms(t.elapsed()),
                            done: done_line,
                            epochs,
                        });
                    }
                    Ok(answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = begin.elapsed();
    push_rss(&mut out);
    let answers: Vec<Vec<Answer>> = answers.into_iter().collect::<Result<_, _>>()?;
    let stats_snapshot = server.stats();
    while setup_s.len() < SETUP_REPS {
        sample_setup(&setup_socket, &mut setup_s)?;
    }
    let _ = std::fs::remove_file(&setup_socket);
    out.push("setup_s", stats::median(&setup_s), setup_s.len());

    // Output check: every answer against an offline single-worker run of
    // every distinct spec it asked for, byte for byte.
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for (c, list) in answers.iter().enumerate() {
        for a in list {
            used.extend(&mix.clients[c][a.req].specs);
        }
    }
    let order: Vec<usize> = used.into_iter().collect();
    let specs: Vec<ScenarioSpec> = order
        .iter()
        .map(|&i| parse_spec(&mix.specs[i]))
        .collect::<Result<_, _>>()?;
    let scenarios = specs
        .iter()
        .map(ScenarioSpec::build)
        .collect::<Result<Vec<_>, _>>()?;
    let offline = BatchRunner::new(1).run_scenarios(&scenarios);
    let mut expected: BTreeMap<usize, Json> = BTreeMap::new();
    for (k, &i) in order.iter().enumerate() {
        let slot = slot_json(
            &scenarios[k].label(),
            specs[k].fingerprint(),
            &offline.slots[k],
        );
        expected.insert(i, slot);
    }
    let mut ok = 0usize;
    let mut all_ms = Vec::new();
    for (c, list) in answers.iter().enumerate() {
        for a in list {
            let req = &mix.clients[c][a.req];
            out.attempted += 1;
            all_ms.push(a.ms);
            let want = done_event(
                Some(&req.id),
                req.specs.iter().map(|i| expected[i].clone()).collect(),
            )
            .encode();
            let streamed = req.class != Class::Stream || a.epochs == SECONDS as usize;
            if a.done.as_deref() == Some(want.as_str()) && streamed {
                ok += 1;
            } else {
                out.failed += 1;
                eprintln!("request {} ({:?}) answered wrongly", req.id, req.class);
            }
        }
    }
    println!(
        "{CLIENTS} clients, {} daemon threads: {} requests, {} distinct specs, {} batches, {} result evictions",
        scheduler_config().threads,
        out.attempted,
        order.len(),
        stats_snapshot.cache.batches,
        stats_snapshot.cache.result_evictions
    );
    out.push("request_p50_ms", stats::median(&all_ms), all_ms.len());
    out.push("goodput_rps", Some(ok as f64 / wall.as_secs_f64()), ok);
    drop(server);
    let _ = std::fs::remove_file(&socket);
    if ctx.traced() {
        let requests = out.attempted as usize;
        replay::push_sparse(&mut out, &stats_snapshot.solver, requests);
        let specs: Vec<ScenarioSpec> = mix.specs[..2 * HOT]
            .iter()
            .map(parse_spec)
            .collect::<Result<_, _>>()?;
        replay::lower_layers(&mut out, &ctx.rec, &specs)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_shaped() {
        let a = generate(3);
        let b = generate(3);
        assert_eq!(a.specs, b.specs);
        assert_eq!(a.clients[0][5].line, b.clients[0][5].line);
        assert_ne!(generate(4).specs, a.specs);
        let n = (CLIENTS * PER_CLIENT) as f64;
        let share = |class: Class| {
            a.clients
                .iter()
                .flatten()
                .filter(|r| r.class == class)
                .count() as f64
                / n
        };
        assert!((share(Class::Hot) - 0.60).abs() < 0.03);
        assert!((share(Class::Fresh) - 0.30).abs() < 0.03);
        assert!(share(Class::Cold) > 0.0);
        // Every generated spec parses, and fresh specs never repeat.
        let mut fps = std::collections::BTreeSet::new();
        for s in &a.specs {
            assert!(fps.insert(parse_spec(s).expect("valid spec").fingerprint()));
        }
        let multi = a.clients[0]
            .iter()
            .find(|r| r.class == Class::Multi)
            .unwrap();
        assert_eq!(multi.specs[0], multi.specs[2]);
    }
}
