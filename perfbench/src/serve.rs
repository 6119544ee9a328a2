//! `serve_hits`: an in-process `mvq serve` at its defaults, warm-started
//! from the cost-5 snapshot, under a closed loop of keep-alive
//! connections (one per core, at most 2). Every request is
//! `/synthesize` with `"cb":7,"strategy":"auto"` for one of the paper's
//! named gates of known cost ≤ 5 under a wire relabeling and a NOT
//! coset, so each is a warm-cache hit: the HTTP, JSON, host and server
//! layers set the time, and the search does almost nothing.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mvq_core::{known, Circuit, CostModel, SynthesisEngine};
use mvq_obs::{parse_scrape, Scrape};
use mvq_perm::Perm;
use mvq_serve::{
    read_request, write_response, HostConfig, HostRegistry, ModelSpec, ServeStrategy, Server,
    ServerHandle, SynthesizeReply, SynthesizeRequest,
};
use serde::{Content, Deserialize};

use crate::stats::{quantile, round_plan, us, Rng, Rounds, ROUND, SETUP_EVERY};
use crate::Report;

/// `mvq serve`'s default `--workers`.
const WORKERS: usize = 4;
/// Closed-loop connections, capped by the core count.
const MAX_CLIENTS: usize = 2;
const CB: u32 = 7;

/// One request of the mix: its bytes, its target and the known cost of
/// its named gate.
struct Request {
    bytes: Vec<u8>,
    target: Perm,
    cost: u32,
}

/// Bit-level form of a 3-wire function (wire A is the high bit).
fn image_fn(perm: &Perm) -> [usize; 8] {
    std::array::from_fn(|x| perm.image(x + 1) - 1)
}

/// The named gates of known cost ≤ 5, as bit functions.
fn named_gates() -> Vec<([usize; 8], u32)> {
    let not_a: [usize; 8] = std::array::from_fn(|x| x ^ 0b100);
    let feynman_ba: [usize; 8] = std::array::from_fn(|x| x ^ ((x >> 2) & 1) << 1);
    let swap_bc: [usize; 8] =
        std::array::from_fn(|x| (x & 0b100) | ((x & 1) << 1) | ((x >> 1) & 1));
    vec![
        (not_a, 0),
        (feynman_ba, 1),
        (swap_bc, 3),
        (image_fn(&known::peres_perm()), 4),
        (image_fn(&known::g2_perm()), 4),
        (image_fn(&known::g3_perm()), 4),
        (image_fn(&known::g4_perm()), 4),
        (image_fn(&known::toffoli_perm()), 5),
    ]
}

/// Moves the bit of wire `w` (0 = A, the high bit) to wire `sigma[w]`.
fn relabel(x: usize, sigma: [usize; 3]) -> usize {
    (0..3).fold(0, |acc, w| acc | ((x >> (2 - w)) & 1) << (2 - sigma[w]))
}

/// Every named gate under all 6 wire relabelings and all 8 NOT layers
/// applied first. Neither changes the minimal cost: the library holds
/// every gate on every wire pair, and NOT gates are free (Theorem 2).
/// The order is shuffled by `seed`.
fn requests(seed: u64) -> Vec<Request> {
    const SIGMAS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let mut out = Vec::new();
    for (gate, cost) in named_gates() {
        for sigma in SIGMAS {
            let mut inverse = [0; 3];
            for (w, &s) in sigma.iter().enumerate() {
                inverse[s] = w;
            }
            for not_mask in 0..8 {
                let images: Vec<usize> = (0..8)
                    .map(|x| relabel(gate[relabel(x ^ not_mask, inverse)], sigma) + 1)
                    .collect();
                let target = Perm::from_images(&images).expect("a relabeled gate is a permutation");
                let body = format!(r#"{{"target":"{target}","cb":{CB},"strategy":"auto"}}"#);
                let bytes = format!(
                    "POST /synthesize HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes();
                out.push(Request {
                    bytes,
                    target,
                    cost,
                });
            }
        }
    }
    Rng::new(seed).shuffle(&mut out);
    out
}

/// The fields of a `/synthesize` reply the check reads.
struct Reply {
    found: bool,
    cost: Option<u64>,
    circuit: Option<String>,
}

impl<'de> Deserialize<'de> for Reply {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        let entries = content
            .as_map()
            .ok_or_else(|| serde::Error::custom("reply is not an object"))?;
        let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        Ok(Self {
            found: matches!(get("found"), Some(Content::Bool(true))),
            cost: match get("cost") {
                Some(Content::U64(c)) => Some(*c),
                Some(Content::I64(c)) => u64::try_from(*c).ok(),
                _ => None,
            },
            circuit: get("circuit").and_then(Content::as_str).map(str::to_string),
        })
    }
}

/// A reply is right when it parses, its cost equals the named gate's,
/// and its circuit — parsed back and re-verified at the unitary level
/// on 3 wires — realizes the target at that cost.
fn reply_ok(body: &[u8], request: &Request) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let Ok(reply) = serde_json::from_str::<Reply>(text) else {
        return false;
    };
    let (true, Some(cost), Some(circuit)) = (reply.found, reply.cost, reply.circuit) else {
        return false;
    };
    let Ok(parsed) = circuit.parse::<Circuit>() else {
        return false;
    };
    let circuit = Circuit::new(3, parsed.gates().to_vec());
    cost == u64::from(request.cost)
        && u64::from(circuit.quantum_cost()) == cost
        && circuit.verify_against_binary_perm(&request.target)
}

/// A keep-alive HTTP/1.1 client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// Sends `request` and reads the reply body into `body`; returns
    /// the status code.
    fn round_trip(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.writer.write_all(request)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let status = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = 0usize;
        loop {
            self.line.clear();
            self.reader.read_line(&mut self.line)?;
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        body.resize(length, 0);
        self.reader.read_exact(body)?;
        Ok(status)
    }

    fn get(&mut self, path: &str, body: &mut Vec<u8>) -> io::Result<u16> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n");
        self.round_trip(request.as_bytes(), body)
    }
}

/// A running in-process server.
struct Running {
    handle: ServerHandle,
    runner: JoinHandle<io::Result<()>>,
    registry: Arc<HostRegistry>,
}

impl Running {
    /// Loads the snapshot, installs it, binds and serves; returns once
    /// `/healthz` answers, with the time that took.
    fn start(snapshot: &Path) -> Result<(Duration, Self), String> {
        let start = Instant::now();
        let threads = mvq_core::resolve_threads(None);
        let engine = SynthesisEngine::load_snapshot_with_threads(snapshot, threads)
            .map_err(|e| format!("{}: {e}", snapshot.display()))?;
        let registry = Arc::new(HostRegistry::new(HostConfig::default()));
        registry.install(engine).map_err(|e| e.to_string())?;
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&registry)).map_err(|e| e.to_string())?;
        let handle = server.handle().map_err(|e| e.to_string())?;
        let runner = std::thread::spawn(move || server.run(WORKERS));
        let running = Self {
            handle,
            runner,
            registry,
        };
        let ready = Client::connect(running.handle.addr())
            .and_then(|mut c| c.get("/healthz", &mut Vec::new()));
        match ready {
            Ok(200) => Ok((start.elapsed(), running)),
            other => {
                running.stop();
                Err(format!("the server did not become ready: {other:?}"))
            }
        }
    }

    fn scrape(&self) -> Result<Scrape, String> {
        let mut body = Vec::new();
        let status = Client::connect(self.handle.addr())
            .and_then(|mut c| c.get("/metrics", &mut body))
            .map_err(|e| format!("scraping /metrics: {e}"))?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        Ok(parse_scrape(&String::from_utf8_lossy(&body)))
    }

    fn stop(self) -> bool {
        self.handle.shutdown();
        matches!(self.runner.join(), Ok(Ok(())))
    }
}

/// What one closed-loop client saw.
#[derive(Default)]
struct ClientLog {
    latencies: Vec<Duration>,
    /// The first reply body per request index, and how many replies
    /// matched it byte for byte.
    first: Vec<Option<(Vec<u8>, u64)>>,
    /// Replies that differed from the first for their request.
    odd: Vec<(usize, Vec<u8>)>,
    errors: u64,
}

/// Runs the closed loop: `clients` connections, each sending its next
/// request as soon as the previous reply is read, until `seconds` pass.
fn closed_loop(
    addr: SocketAddr,
    requests: &[Request],
    clients: usize,
    seconds: Duration,
) -> Vec<ClientLog> {
    let deadline = Instant::now() + seconds;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut log = ClientLog {
                        first: vec![None; requests.len()],
                        ..ClientLog::default()
                    };
                    let mut client = None;
                    let mut body = Vec::new();
                    let start = c * requests.len() / clients;
                    let mut i = start;
                    while i == start || Instant::now() < deadline {
                        if client.is_none() {
                            match Client::connect(addr) {
                                Ok(c) => client = Some(c),
                                Err(_) => {
                                    log.errors += 1;
                                    i += 1;
                                    continue;
                                }
                            }
                        }
                        let t = i % requests.len();
                        i += 1;
                        let conn = client.as_mut().expect("connected above");
                        let start = Instant::now();
                        let result = conn.round_trip(&requests[t].bytes, &mut body);
                        let time = start.elapsed();
                        match result {
                            Ok(200) => {
                                log.latencies.push(time);
                                match &mut log.first[t] {
                                    Some((first, count)) if *first == body => *count += 1,
                                    Some(_) => log.odd.push((t, body.clone())),
                                    slot @ None => *slot = Some((body.clone(), 1)),
                                }
                            }
                            Ok(_) => log.errors += 1,
                            Err(_) => {
                                log.errors += 1;
                                client = None;
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a client thread panicked"))
            .collect()
    })
}

/// Counts the loop's ops into `report`, checking each distinct reply
/// once: `verified[t]` holds the reply body already checked for
/// request `t`. Returns all latencies.
fn check_logs(
    report: &mut Report,
    logs: Vec<ClientLog>,
    requests: &[Request],
    verified: &mut [Option<Vec<u8>>],
) -> Vec<Duration> {
    let mut check = |t: usize, body: &[u8]| {
        if verified[t].as_deref() == Some(body) {
            return true;
        }
        let ok = reply_ok(body, &requests[t]);
        if ok {
            verified[t] = Some(body.to_vec());
        }
        ok
    };
    let mut latencies = Vec::new();
    for log in logs {
        report.attempted += log.latencies.len() as u64 + log.errors;
        report.failed += log.errors;
        for (t, first) in log.first.iter().enumerate() {
            if let Some((body, count)) = first {
                if !check(t, body) {
                    report.failed += count;
                }
            }
        }
        for (t, body) in &log.odd {
            report.failed += u64::from(!check(*t, body));
        }
        latencies.extend(log.latencies);
    }
    latencies
}

fn counter(scrape: &Scrape, name: &str) -> u64 {
    scrape.counters.get(name).copied().unwrap_or(0)
}

/// Fails the run if the server left its warm cache: any expansion,
/// cache miss or shed means another layer did the work.
fn steady_guard(report: &mut Report, scrape: &Scrape) {
    for name in ["expansions_total", "cache_misses_total", "sheds_total"] {
        let value = counter(scrape, name);
        report.guard(
            value == 0,
            &format!("serve_hits: /metrics {name} = {value}"),
        );
    }
}

fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(MAX_CLIENTS)
}

/// Scrapes a server's `/metrics`, applies the steady-state guard and
/// stops it. Returns the scrape.
fn retire(report: &mut Report, server: Running) -> Result<Scrape, String> {
    let scrape = server.scrape();
    report.guard(
        server.stop(),
        "serve_hits: the server did not shut down cleanly",
    );
    let scrape = scrape?;
    steady_guard(report, &scrape);
    Ok(scrape)
}

/// Every `SETUP_EVERY` rounds the server is replaced by a freshly
/// started one, so `setup_s` samples the whole run with one server
/// resident at a time. After each start an untimed (but checked)
/// warm-up of `ROUND / 5` runs; each round then opens fresh connections
/// from fresh client threads.
pub fn run(snapshot: &Path, seed: u64, seconds: Duration) -> Result<Report, String> {
    let mut report = Report::new();
    let requests = requests(seed);
    let clients = clients();
    let (round_count, round_len) = round_plan(seconds, ROUND);
    let mut rounds = Rounds::default();
    let mut verified = vec![None; requests.len()];
    let mut setups = Vec::new();
    let mut server: Option<Running> = None;
    for round in 0..round_count {
        if round % SETUP_EVERY == 0 {
            if let Some(old) = server.take() {
                retire(&mut report, old)?;
            }
            let (setup, fresh) = Running::start(snapshot)?;
            setups.push(setup);
            let warm_up = closed_loop(fresh.handle.addr(), &requests, clients, ROUND / 5);
            check_logs(&mut report, warm_up, &requests, &mut verified);
            server = Some(fresh);
        }
        let addr = server.as_ref().expect("started above").handle.addr();
        let start = Instant::now();
        let logs = closed_loop(addr, &requests, clients, round_len);
        let elapsed = start.elapsed();
        let mut latencies = check_logs(&mut report, logs, &requests, &mut verified);
        rounds.record(&mut latencies, elapsed);
    }
    let server_p99 = retire(&mut report, server.expect("at least one round"))?
        .histograms
        .get("request_us")
        .map_or(0, |h| h.quantile(0.99));
    report.note(format!(
        "serve_hits clients={clients} workers={WORKERS} timed_requests={} distinct_targets={}",
        rounds.ops,
        requests.len()
    ));
    report.note(format!(
        "serve_hits server request_us p99 bucket <= {server_p99} us (recorded, not gated)"
    ));
    report.metric("setup_s", quantile(&mut setups, 0.5).as_secs_f64(), "s");
    report.rounds(&mut rounds);
    Ok(report)
}

/// Per-stage times of one in-process replay of a request.
#[derive(Default)]
struct Stages {
    read_request: Vec<Duration>,
    decode: Vec<Duration>,
    lookup: Vec<Duration>,
    synthesize: Vec<Duration>,
    render: Vec<Duration>,
    write_response: Vec<Duration>,
}

/// Replays `request` through the public functions the server calls,
/// with no socket, timing each stage from outside. Returns the response
/// body.
fn replay(
    registry: &HostRegistry,
    request: &[u8],
    out: &mut Vec<u8>,
    stages: &mut Stages,
) -> Result<String, String> {
    let t0 = Instant::now();
    let parsed = read_request(&mut &request[..])
        .map_err(|e| e.to_string())?
        .ok_or("empty request")?;
    let t1 = Instant::now();
    let body = String::from_utf8_lossy(&parsed.body);
    let decoded: SynthesizeRequest = serde_json::from_str(&body).map_err(|e| e.to_string())?;
    let target = known::parse_binary_target(&decoded.target)?;
    let strategy: ServeStrategy = decoded.strategy.as_deref().unwrap_or("auto").parse()?;
    let model = decoded
        .model
        .map_or(Ok(CostModel::unit()), ModelSpec::to_model)?;
    let cb = decoded.cb.unwrap_or(CB);
    let t2 = Instant::now();
    let host = registry.host_for(model).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let (synthesis, _) = host
        .synthesize_traced(&target, cb, strategy, decoded.deadline_ms)
        .map_err(|e| e.to_string())?;
    let t4 = Instant::now();
    let reply =
        serde_json::to_string(&SynthesizeReply { cb, synthesis }).map_err(|e| e.to_string())?;
    let t5 = Instant::now();
    out.clear();
    write_response(out, 200, &reply, true).map_err(|e| e.to_string())?;
    let t6 = Instant::now();
    stages.read_request.push(t1 - t0);
    stages.decode.push(t2 - t1);
    stages.lookup.push(t3 - t2);
    stages.synthesize.push(t4 - t3);
    stages.render.push(t5 - t4);
    stages.write_response.push(t6 - t5);
    Ok(reply)
}

/// The traced breakdown: half the budget is the untraced closed loop
/// (its round-trip median), half replays the same request bytes
/// in-process, stage by stage; the transport is what the stages do not
/// account for. The host counters come from the server's `/metrics`.
pub fn traced(snapshot: &Path, seed: u64, budget: Duration) -> Result<Report, String> {
    let mut report = Report::new();
    let requests = requests(seed);
    let (_, server) = Running::start(snapshot)?;
    let logs = closed_loop(server.handle.addr(), &requests, clients(), budget / 2);
    let mut round_trips = check_logs(
        &mut report,
        logs,
        &requests,
        &mut vec![None; requests.len()],
    );

    // Each request's first replay is verified in full; later replays
    // must repeat it byte for byte.
    let mut first: Vec<Option<String>> = vec![None; requests.len()];
    let mut stages = Stages::default();
    let mut out = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while i < requests.len() || start.elapsed() < budget / 2 {
        let t = i % requests.len();
        i += 1;
        report.attempted += 1;
        let ok = match (
            replay(&server.registry, &requests[t].bytes, &mut out, &mut stages),
            &first[t],
        ) {
            (Ok(reply), Some(seen)) => reply == *seen,
            (Ok(reply), None) => {
                let ok = reply_ok(reply.as_bytes(), &requests[t]);
                first[t] = Some(reply);
                ok
            }
            (Err(_), _) => false,
        };
        report.failed += u64::from(!ok);
    }
    let scrape = retire(&mut report, server)?;

    let p50 = |v: &mut Vec<Duration>| us(quantile(v, 0.5));
    let stage_p50 = [
        ("http.read_request_us", p50(&mut stages.read_request)),
        ("json.decode_us", p50(&mut stages.decode)),
        ("host.lookup_us", p50(&mut stages.lookup)),
        ("host.synthesize_us", p50(&mut stages.synthesize)),
        ("json.render_us", p50(&mut stages.render)),
        ("http.write_response_us", p50(&mut stages.write_response)),
    ];
    let in_process: f64 = stage_p50.iter().map(|(_, v)| v).sum();
    report.note(format!(
        "serve_hits traced: {} round trips, {i} replays",
        round_trips.len()
    ));
    for (name, value) in stage_p50 {
        report.metric(name, value, "us");
    }
    report.metric(
        "server.transport_us",
        us(quantile(&mut round_trips, 0.5)) - in_process,
        "us",
    );
    let requests_total = counter(&scrape, "synthesize_requests_total");
    report.metric(
        "host.cache_hit_frac",
        counter(&scrape, "cache_hits_total") as f64 / requests_total.max(1) as f64,
        "ratio",
    );
    report.metric(
        "host.expansions",
        counter(&scrape, "expansions_total") as f64,
        "count",
    );
    Ok(report)
}
