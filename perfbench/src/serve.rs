//! The serving workloads (`serve-warm`, `serve-cold`).
//!
//! The server is `repro serve --threads 2 --port 0`, run in a process of
//! its own: this binary's `repro` mode is the `repro` binary's entry
//! point (`tpe_bench::cli::dispatch`). The set-up loads the server as a
//! batch client does: each of two connections streams its share of the
//! set-up requests through `tpe_engine::serve::query_batch`, the client
//! `repro query` uses. The timed phase is a closed loop: two client
//! threads, each on one persistent connection with one request in
//! flight, as the shard client uses the protocol. Its figures are the
//! latency one waiting caller sees per request.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tpe_bench::experiments::smoke_batch;
use tpe_engine::serve::{handle_line, parse_flat_object, query_batch, JsonValue};
use tpe_engine::{roster, EngineCache};
use tpe_obs::HistogramSnapshot;
use tpe_workloads::NetworkModel;

use crate::check::{self, Ask};
use crate::trace::{self, span};
use crate::util::{cpu_ms, median, peak_rss_mb, quantile, Outcome, Rng, Start};

const CLIENTS: usize = 2;
/// Every `REASK_EVERY`-th serve-cold request re-asks one of the first
/// `REASKED` requests its client sent.
const REASK_EVERY: u64 = 5;
const REASKED: usize = 2000;
/// Lines of `smoke_batch`, the repository's mixed serving traffic, that
/// make up the serve-warm stream (the batch size `repro serve-smoke`
/// replays).
const WARM_LINES: usize = 1000;
/// The finite memory corners every serve-warm point request is also
/// asked at during set-up, to check it against its unbounded twin.
const CORNERS: [&str; 3] = ["edge", "mobile", "hbm"];
const IO_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The `smoke_batch` traffic, warmed during set-up, replayed in a
    /// seeded order.
    Warm,
    /// `layer` requests whose (shape, seed) is new every time.
    Cold,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Warm => "serve-warm",
            Kind::Cold => "serve-cold",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        [Kind::Warm, Kind::Cold]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Engine,
    Layer,
    Model,
    Sweep,
    Pareto,
}

impl Op {
    const ALL: [Op; 5] = [Op::Engine, Op::Layer, Op::Model, Op::Sweep, Op::Pareto];

    fn name(self) -> &'static str {
        match self {
            Op::Engine => "engine",
            Op::Layer => "layer",
            Op::Model => "model",
            Op::Sweep => "sweep",
            Op::Pareto => "pareto",
        }
    }
}

/// What a request asks for, and so what its reply must satisfy.
#[derive(Debug, Clone)]
enum Expect {
    Engine {
        freq_ghz: f64,
    },
    Layer {
        dims: [u64; 4],
        workload: String,
    },
    Model {
        name: String,
        layers: usize,
    },
    /// A `sweep`/`pareto` summary over the points `filter` selects.
    Slice {
        filter: String,
        points: usize,
    },
}

/// One request line and what its reply must satisfy.
#[derive(Debug, Clone)]
struct Req {
    id: u64,
    op: Op,
    line: String,
    ask: Ask,
    expect: Expect,
    /// The request's fields without its id and memory corner: pairs a
    /// finite-corner request with its unbounded twin.
    twin: String,
}

impl Req {
    /// Reads a request line and derives, apart from the program, what its
    /// reply must satisfy.
    fn parse(line: String, catalog: &[NetworkModel]) -> Result<Req, String> {
        let mut f = parse_flat_object(&line).map_err(|e| format!("request {line}: {e}"))?;
        let text = |k: &str| match f.get(k) {
            Some(JsonValue::Str(v)) => Some(v.clone()),
            _ => None,
        };
        let num = |k: &str| match f.get(k) {
            Some(JsonValue::Num(v)) => Some(*v as u64),
            _ => None,
        };
        let need = |v: Option<u64>, k: &str| v.ok_or_else(|| format!("request {line} lacks {k}"));
        let op_name = text("op").unwrap_or_default();
        let op = Op::ALL
            .into_iter()
            .find(|o| o.name() == op_name)
            .ok_or_else(|| format!("request {line}: unexpected op"))?;
        let engine = text("engine").unwrap_or_default();
        let (precision, memory) = (text("precision"), text("memory"));
        let expect = match op {
            Op::Engine => Expect::Engine {
                freq_ghz: check::label_freq_ghz(&engine)
                    .ok_or_else(|| format!("request {line}: engine label names no clock"))?,
            },
            Op::Layer => {
                let dims = [
                    need(num("m"), "m")?,
                    need(num("n"), "n")?,
                    need(num("k"), "k")?,
                    num("repeats").unwrap_or(1),
                ];
                let workload = text("workload").unwrap_or_else(|| check::layer_name(dims));
                Expect::Layer { dims, workload }
            }
            Op::Model => {
                let name = text("model").unwrap_or_default();
                let net = catalog
                    .iter()
                    .find(|n| n.name == name)
                    .ok_or_else(|| format!("request {line}: model not in the catalog"))?;
                Expect::Model {
                    name,
                    layers: net.layers.len(),
                }
            }
            // Each filter of the mixed traffic pins one engine and one
            // precision, so it selects one point per default workload.
            Op::Sweep | Op::Pareto => Expect::Slice {
                filter: text("filter").unwrap_or_default(),
                points: tpe_dse::space::default_workloads().len(),
            },
        };
        let macs = match &expect {
            Expect::Layer { dims, .. } => check::macs(*dims),
            Expect::Model { name, .. } => catalog
                .iter()
                .find(|n| &n.name == name)
                .map_or(0, |n| check::network_macs(&n.layers)),
            _ => 0,
        };
        let dense = match op {
            Op::Sweep | Op::Pareto => false,
            _ => !roster::find(&engine)
                .ok_or_else(|| format!("request {line}: engine not in the roster"))?
                .style
                .is_serial(),
        };
        // The server tags labels with every precision but the default.
        let tag = precision.filter(|p| !p.eq_ignore_ascii_case("W8"));
        let label = [Some(engine), tag, memory.clone()]
            .into_iter()
            .flatten()
            .collect::<Vec<_>>()
            .join("@");
        let (id, seed) = (need(num("id"), "id")?, num("seed").unwrap_or(0));
        f.remove("id");
        f.remove("memory");
        Ok(Req {
            id,
            op,
            ask: Ask {
                label,
                dense,
                bounded: memory.is_some(),
                seed,
                macs,
            },
            expect,
            twin: format!("{f:?}"),
            line,
        })
    }

    /// Checks a reply; returns the reported delay (0 for `engine` and
    /// slice ops).
    fn check(&self, reply: &str) -> Result<f64, String> {
        let ask = &self.ask;
        match &self.expect {
            Expect::Engine { freq_ghz } => {
                check::check_engine_reply(reply, &ask.label, ask.dense, *freq_ghz).map(|()| 0.0)
            }
            Expect::Layer { dims, workload } => {
                check::check_layer_reply(reply, ask, *dims, workload)
            }
            Expect::Model { name, layers } => check::check_model_reply(reply, ask, name, *layers),
            Expect::Slice { filter, points } => {
                check::check_slice_reply(reply, self.op.name(), filter, *points).map(|()| 0.0)
            }
        }
    }
}

/// A request line on `engine` with `fields` after it; a `precision` or
/// `memory` of `None` leaves the field out (W8, unbounded).
fn line(
    id: u64,
    op: Op,
    engine: &str,
    fields: &str,
    precision: Option<&str>,
    memory: Option<&str>,
) -> String {
    let mut line = format!(
        "{{\"id\":{id},\"op\":\"{}\",\"engine\":\"{engine}\"{fields}",
        op.name()
    );
    for (key, value) in [("precision", precision), ("memory", memory)] {
        if let Some(v) = value {
            line.push_str(&format!(",\"{key}\":\"{v}\""));
        }
    }
    line.push('}');
    line
}

/// The serve-warm key set (independent of the seed): the first
/// [`WARM_LINES`] lines of `smoke_batch`, ids 0.., which the timed phase
/// replays; then every distinct `layer`/`model` request among them at
/// each of the [`CORNERS`], which only the set-up asks.
fn warm_keys(catalog: &[NetworkModel]) -> Result<Vec<Req>, String> {
    let mut keys = smoke_batch(WARM_LINES)
        .into_iter()
        .map(|l| Req::parse(l, catalog))
        .collect::<Result<Vec<_>, _>>()?;
    let mut seen = std::collections::BTreeSet::new();
    let mut cornered = Vec::new();
    for r in keys
        .iter()
        .filter(|r| matches!(r.op, Op::Layer | Op::Model))
    {
        if !seen.insert(r.twin.clone()) {
            continue;
        }
        let body = r
            .line
            .split_once(',')
            .and_then(|(_, fields)| fields.strip_suffix('}'))
            .ok_or("a request line without fields")?;
        for corner in CORNERS {
            let id = WARM_LINES + cornered.len();
            let l = format!("{{\"id\":{id},{body},\"memory\":\"{corner}\"}}");
            cornered.push(Req::parse(l, catalog)?);
        }
    }
    keys.extend(cornered);
    Ok(keys)
}

/// The serve-cold set-up: every roster engine priced at {W8, W4, W16,
/// W8xW4} × {unbounded, edge, mobile, hbm}, the engines and corners its
/// requests use, so a server is ready before the first new request.
fn price_keys(catalog: &[NetworkModel]) -> Result<Vec<Req>, String> {
    let mut keys = Vec::new();
    for engine in roster::names() {
        for precision in [None, Some("W4"), Some("W16"), Some("W8xW4")] {
            for memory in [None, Some("edge"), Some("mobile"), Some("hbm")] {
                let l = line(
                    keys.len() as u64,
                    Op::Engine,
                    &engine,
                    "",
                    precision,
                    memory,
                );
                keys.push(Req::parse(l, catalog)?);
            }
        }
    }
    Ok(keys)
}

/// The `i`-th serve-cold request of `client`: a roster engine, a
/// precision in {W8, W4, W16, W8xW4}, a memory corner in {unbounded,
/// edge, mobile, hbm}, and m, n, k each log-uniform over 2^4..2^16. The
/// request seed is unique per (client, i), so no two requests share a
/// cache entry.
fn cold_req(rng: &mut Rng, engines: &[String], client: usize, i: u64) -> Result<Req, String> {
    let engine = &engines[rng.below(engines.len())];
    let precision = [None, Some("W4"), Some("W16"), Some("W8xW4")][rng.below(4)];
    let memory = [None, Some("edge"), Some("mobile"), Some("hbm")][rng.below(4)];
    let mut dim = || 2f64.powf(4.0 + 12.0 * rng.unit()).round() as u64;
    let (m, n, k) = (dim(), dim(), dim());
    let seed = ((client as u64 + 1) << 40) | i;
    let fields = format!(",\"m\":{m},\"n\":{n},\"k\":{k},\"repeats\":1,\"seed\":{seed}");
    Req::parse(line(i, Op::Layer, engine, &fields, precision, memory), &[])
}

/// A running `repro serve` child process.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn spawn() -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["repro", "serve", "--threads", "2", "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn repro serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        let server_addr = stdout
            .read_line(&mut first)
            .ok()
            .and_then(|_| first.split("listening on ").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let Some(addr) = server_addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("repro serve did not report an address: {first:?}"));
        };
        Ok(Server {
            child,
            stdout,
            addr,
        })
    }

    /// Sends `shutdown` and waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = Client::connect(&self.addr)?.call("{\"id\":0,\"op\":\"shutdown\"}")?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("shutdown refused: {reply}"));
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("repro serve exited {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("repro serve did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One persistent connection with one request in flight.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            buf: String::new(),
        })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        let mut msg = Vec::with_capacity(line.len() + 1);
        msg.extend_from_slice(line.as_bytes());
        msg.push(b'\n');
        self.writer
            .write_all(&msg)
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(self.buf.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// The server's own accounting, from one `metrics` poll.
struct Poll {
    fields: BTreeMap<String, JsonValue>,
}

impl Poll {
    fn take(client: &mut Client) -> Result<Poll, String> {
        let _s = span("engine.serve.metrics_poll", None);
        let reply = client.call("{\"id\":0,\"op\":\"metrics\"}")?;
        let fields = parse_flat_object(&reply).map_err(|e| format!("metrics reply: {e}"))?;
        Ok(Poll { fields })
    }

    fn num(&self, key: &str) -> u64 {
        match self.fields.get(key) {
            Some(JsonValue::Num(v)) => *v as u64,
            _ => 0,
        }
    }

    fn hist(&self, name: &str) -> HistogramSnapshot {
        let buckets = match self.fields.get(&format!("hist_{name}_buckets")) {
            Some(JsonValue::Str(csv)) if !csv.is_empty() => {
                csv.split(',').map(|c| c.parse().unwrap_or(0)).collect()
            }
            _ => Vec::new(),
        };
        HistogramSnapshot::from_parts(
            buckets,
            self.num(&format!("hist_{name}_sum")),
            self.num(&format!("hist_{name}_max")),
        )
    }

    fn misses(&self) -> u64 {
        ["price", "cycle", "model"]
            .iter()
            .map(|m| self.num(&format!("ctr_cache_{m}_misses")))
            .sum()
    }
}

/// One client's share of a phase.
#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    /// serve-cold: latencies of re-asked requests.
    reask_ms: Vec<f64>,
    sent: BTreeMap<Op, u64>,
    failed: u64,
    /// The first few failed requests and check failures, verbatim.
    failures: Vec<String>,
    wrong: Vec<String>,
    /// (request, reply) pairs checked after the phase.
    kept: Vec<(Req, String)>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.reask_ms.extend(other.reask_ms);
        for (op, n) in other.sent {
            *self.sent.entry(op).or_default() += n;
        }
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.wrong.extend(other.wrong);
        self.kept.extend(other.kept);
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(e);
        }
    }

    fn wrong(&mut self, e: String) {
        if self.wrong.len() < 10 {
            self.wrong.push(e);
        }
    }

    /// Adds this phase's counts and check failures to the run's outcome.
    fn report(&self, out: &mut Outcome) {
        out.attempted += self.sent.values().sum::<u64>();
        out.failed += self.failed;
        for f in &self.failures {
            eprintln!("request failed: {f}");
        }
        for w in &self.wrong {
            out.check(Err(w.clone()));
        }
    }
}

static REQ_IDS: AtomicU64 = AtomicU64::new(0);

/// Sends one request; returns the reply and its latency in ms.
fn timed_call(client: &mut Client, req: &Req, tally: &mut Tally) -> Option<(String, f64)> {
    let _s = span(
        "bench.client.request",
        Some(REQ_IDS.fetch_add(1, Ordering::Relaxed)),
    );
    let t = Instant::now();
    let reply = client.call(&req.line);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    *tally.sent.entry(req.op).or_default() += 1;
    match reply {
        Ok(r) if r.contains("\"ok\":true") => Some((r, ms)),
        Ok(r) => {
            tally.fail(format!("{} -> {r}", req.line));
            None
        }
        Err(e) => {
            tally.fail(format!("{} -> {e}", req.line));
            None
        }
    }
}

/// Answers every request once, split across the clients, each
/// streaming its share over one connection; keeps every (request, reply)
/// pair.
fn preload(addr: &str, reqs: &[Req]) -> Tally {
    let phase = trace::current();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    trace::adopt(phase);
                    let mut t = Tally::default();
                    let mine: Vec<&Req> = reqs.iter().skip(c).step_by(CLIENTS).collect();
                    for r in &mine {
                        *t.sent.entry(r.op).or_default() += 1;
                    }
                    let lines: Vec<String> = mine.iter().map(|r| r.line.clone()).collect();
                    match query_batch(addr, &lines) {
                        Ok(replies) => {
                            for (req, reply) in mine.iter().zip(replies) {
                                if reply.contains("\"ok\":true") {
                                    t.kept.push(((*req).clone(), reply));
                                } else {
                                    t.fail(format!("{} -> {reply}", req.line));
                                }
                            }
                        }
                        Err(e) => {
                            for req in &mine {
                                t.fail(format!("{} -> {e}", req.line));
                            }
                        }
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t);
    }
    all
}

/// Runs `body` on each of the two client connections in parallel.
fn on_clients(
    addr: &str,
    body: impl Fn(usize, &mut Client, &mut Tally) + Sync,
) -> Result<Tally, String> {
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(addr))
        .collect::<Result<_, _>>()?;
    let body = &body;
    let phase = trace::current();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    trace::adopt(phase);
                    let mut t = Tally::default();
                    body(c, client, &mut t);
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t);
    }
    Ok(all)
}

/// Median per-call time (µs) of `f` over `items`, each timed over a
/// small batch of calls.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    const BATCH: u32 = 8;
    if items.is_empty() {
        return 0.0;
    }
    let times: Vec<f64> = items
        .iter()
        .map(|item| {
            let t = Instant::now();
            for _ in 0..BATCH {
                f(item);
            }
            t.elapsed().as_secs_f64() * 1e6 / f64::from(BATCH)
        })
        .collect();
    median(&times)
}

/// In-process per-layer costs over the workload's own request lines.
fn in_process_layers(kind: Kind, reqs: &[Req], out: &mut Outcome) {
    let sample: Vec<&Req> = reqs.iter().take(2000).collect();
    out.metric(
        "engine.serve.parse_us",
        per_call_us(&sample, |r| {
            std::hint::black_box(parse_flat_object(&r.line).ok());
        }),
        "us",
    );
    out.metric(
        "engine.roster.find_us",
        per_call_us(&sample, |r| {
            std::hint::black_box(roster::find(&r.ask.label));
        }),
        "us",
    );
    out.metric(
        "workloads.models.catalog_us",
        per_call_us(&[(); 64], |_| {
            std::hint::black_box(NetworkModel::catalog());
        }),
        "us",
    );
    let cache = EngineCache::new();
    for (op, metric) in [
        (Op::Engine, "engine.serve.handle_engine_us"),
        (Op::Layer, "engine.serve.handle_layer_us"),
        (Op::Model, "engine.serve.handle_model_us"),
    ] {
        let lines: Vec<&str> = sample
            .iter()
            .filter(|r| r.op == op)
            .map(|r| r.line.as_str())
            .take(if kind == Kind::Cold { 200 } else { 2000 })
            .collect();
        let us = match kind {
            // Warm: every line answered once first, then timed.
            Kind::Warm => {
                for l in &lines {
                    handle_line(l, &cache);
                }
                per_call_us(&lines, |l| {
                    std::hint::black_box(handle_line(l, &cache));
                })
            }
            // Cold: each line timed on its first (only) evaluation.
            Kind::Cold => {
                let times: Vec<f64> = lines
                    .iter()
                    .map(|l| {
                        let t = Instant::now();
                        std::hint::black_box(handle_line(l, &cache));
                        t.elapsed().as_secs_f64() * 1e6
                    })
                    .collect();
                if times.is_empty() {
                    0.0
                } else {
                    median(&times)
                }
            }
        };
        out.metric(metric, us, "us");
    }
}

/// Checks that every finite-corner `layer`/`model` reply is no faster than
/// its unbounded twin: exactly (up to rendering) on dense engines, within
/// [`check::SAMPLED_CORNER_TOL`] on sampled serial ones.
fn check_twins(answered: &[(Req, f64)], out: &mut Outcome) {
    let point = |r: &Req| matches!(r.op, Op::Layer | Op::Model);
    let unbounded: BTreeMap<&str, f64> = answered
        .iter()
        .filter(|(r, _)| !r.ask.bounded && point(r))
        .map(|(r, d)| (r.twin.as_str(), *d))
        .collect();
    let mut pairs = 0;
    for (r, d) in answered.iter().filter(|(r, _)| r.ask.bounded && point(r)) {
        let Some(&u) = unbounded.get(r.twin.as_str()) else {
            continue;
        };
        let tol = if r.ask.dense {
            0.0
        } else {
            check::SAMPLED_CORNER_TOL
        };
        out.check(check::check_corner_pair(
            &r.line,
            *d,
            u,
            tol,
            check::half(4),
        ));
        pairs += 1;
    }
    if pairs == 0 {
        out.check(Err("no finite-corner reply had an unbounded twin".into()));
    }
}

pub fn run(kind: Kind, seed: u64, seconds: u64, start: Start) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(kind, seed, seconds, start, &mut out) {
        out.failed += 1;
        out.errors.push(e);
    }
    out
}

fn run_inner(
    kind: Kind,
    seed: u64,
    seconds: u64,
    start: Start,
    out: &mut Outcome,
) -> Result<(), String> {
    let server = {
        let _s = span("bench.serve.spawn", None);
        Server::spawn()?
    };
    let addr = server.addr.clone();
    let pid = server.child.id();
    let catalog = NetworkModel::catalog();
    let keys = match kind {
        Kind::Warm => warm_keys(&catalog)?,
        Kind::Cold => price_keys(&catalog)?,
    };

    // Set-up: serve-warm answers every key once; serve-cold prices the
    // engines its requests name. Its cost is CPU time, the benchmark's
    // and the server's, each from its process start.
    let warmup_cpu = cpu_ms(pid)?;
    let warmup = {
        let _s = span("bench.serve.warmup", None);
        preload(&addr, &keys)
    };
    let server_cpu = cpu_ms(pid)?;
    let setup_s = (start.cpu_ms()? + server_cpu) / 1e3;
    let setup_wall_s = start.wall.elapsed().as_secs_f64();
    let warmup_cpu = server_cpu - warmup_cpu;
    warmup.report(out);
    let mut expected: Vec<Option<&str>> = vec![None; keys.len()];
    let mut answered = Vec::new();
    for (req, reply) in &warmup.kept {
        match req.check(reply) {
            Ok(delay) => answered.push((req.clone(), delay)),
            Err(e) => out.check(Err(e)),
        }
        expected[req.id as usize] = Some(reply);
    }
    if kind == Kind::Warm {
        check_twins(&answered, out);
    }

    // The timed phase: each serve-warm client walks the smoke lines in a
    // seeded order of its own, again and again; serve-cold sends new
    // requests, with every REASK_EVERY-th one a re-ask over the grown
    // cache whose reply must repeat byte for byte.
    let mut control = Client::connect(&addr)?;
    let before = Poll::take(&mut control)?;
    let engines = roster::names();
    let timed_cpu = cpu_ms(pid)?;
    let timed_start = Instant::now();
    let end = timed_start + Duration::from_secs(seconds);
    let timed = {
        let _s = span("bench.serve.timed", None);
        on_clients(&addr, |c, client, t| {
            let mut rng = Rng::new(seed ^ (0x5EED_0000 + c as u64));
            let mut order: Vec<usize> = (0..WARM_LINES).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            let mut reasked: Vec<(Req, String)> = Vec::new();
            let mut i = 0u64;
            while Instant::now() < end {
                match kind {
                    Kind::Warm => {
                        let k = order[i as usize % WARM_LINES];
                        if let Some((reply, ms)) = timed_call(client, &keys[k], t) {
                            t.latencies_ms.push(ms);
                            if expected[k] != Some(reply.as_str()) {
                                t.wrong(format!(
                                    "{}: warm reply differs from its warm-up reply: {reply}",
                                    keys[k].line
                                ));
                            }
                        }
                    }
                    Kind::Cold if i % REASK_EVERY == REASK_EVERY - 1 && !reasked.is_empty() => {
                        let (req, first) = &reasked[(i / REASK_EVERY) as usize % reasked.len()];
                        if let Some((reply, ms)) = timed_call(client, req, t) {
                            t.reask_ms.push(ms);
                            if &reply != first {
                                t.wrong(format!("{}: re-asked reply differs", req.line));
                            }
                        }
                    }
                    Kind::Cold => {
                        let req = match cold_req(&mut rng, &engines, c, i) {
                            Ok(req) => req,
                            Err(e) => {
                                t.wrong(e);
                                break;
                            }
                        };
                        if let Some((reply, ms)) = timed_call(client, &req, t) {
                            t.latencies_ms.push(ms);
                            if let Err(e) = req.check(&reply) {
                                t.wrong(e);
                            }
                            if reasked.len() < REASKED {
                                reasked.push((req, reply));
                            }
                        }
                    }
                }
                i += 1;
            }
        })?
    };
    let timed_s = timed_start.elapsed().as_secs_f64();
    let timed_cpu = cpu_ms(pid)? - timed_cpu;
    let after = Poll::take(&mut control)?;
    timed.report(out);

    // The server counted exactly the requests the clients sent, per op.
    for op in Op::ALL {
        let counter = format!("ctr_serve_op_{}", op.name());
        let delta = after.num(&counter).saturating_sub(before.num(&counter));
        let sent = timed.sent.get(&op).copied().unwrap_or(0);
        if delta != sent {
            out.check(Err(format!(
                "server counted {delta} {} ops, clients sent {sent}",
                op.name()
            )));
        }
        let metric = match op {
            Op::Engine => Some("engine.serve.ops_engine"),
            Op::Layer => Some("engine.serve.ops_layer"),
            Op::Model => Some("engine.serve.ops_model"),
            Op::Sweep | Op::Pareto => None,
        };
        if let (Some(metric), true) = (metric, trace::enabled()) {
            out.metric(metric, delta as f64, "count");
        }
    }
    if kind == Kind::Warm && after.misses() != before.misses() {
        out.check(Err(format!(
            "the warm timed phase recorded {} cache misses",
            after.misses().saturating_sub(before.misses())
        )));
    }

    let rss = peak_rss_mb(&pid.to_string())?;
    let entries: u64 = ["priced", "cycle", "model"]
        .iter()
        .map(|m| after.num(&format!("gauge_cache_{m}_entries")))
        .sum();
    drop(control);
    server.shutdown()?;

    let lat = &timed.latencies_ms;
    // Cold work: serve-warm's warm-up, serve-cold's new requests (the
    // server CPU of the interleaved re-asks, about 1% of it, included).
    let (cold_requests, cold_cpu) = match kind {
        Kind::Warm => (warmup.kept.len(), warmup_cpu),
        Kind::Cold => (lat.len(), timed_cpu),
    };
    let warm_lat = match kind {
        Kind::Warm => lat,
        Kind::Cold => &timed.reask_ms,
    };
    if cold_requests == 0 || warm_lat.is_empty() {
        return Err("a phase completed no request".into());
    }
    if trace::enabled() {
        let eval = after
            .hist("serve_eval_ns")
            .since(&before.hist("serve_eval_ns"));
        let queue = after
            .hist("serve_queue_wait_ns")
            .since(&before.hist("serve_queue_wait_ns"));
        let us = |ns: u64| ns as f64 / 1e3;
        out.metric(
            "engine.serve.server_eval_p50_us",
            us(eval.quantile(0.5)),
            "us",
        );
        out.metric(
            "engine.serve.server_eval_p99_us",
            us(eval.quantile(0.99)),
            "us",
        );
        out.metric(
            "engine.serve.queue_wait_p50_us",
            us(queue.quantile(0.5)),
            "us",
        );
        out.metric(
            "engine.serve.queue_wait_p99_us",
            us(queue.quantile(0.99)),
            "us",
        );
        out.metric(
            "engine.serve.wire_p50_us",
            median(lat) * 1e3 - us(eval.quantile(0.5)) - us(queue.quantile(0.5)),
            "us",
        );
        out.metric("engine.cache.entries", entries as f64, "count");
        let reqs: Vec<Req> = match kind {
            Kind::Warm => keys.clone(),
            Kind::Cold => {
                let mut rng = Rng::new(seed ^ 0xC0DE);
                (0..2000)
                    .map(|i| cold_req(&mut rng, &engines, 7, i))
                    .collect::<Result<_, _>>()?
            }
        };
        in_process_layers(kind, &reqs, out);
    }
    out.metric("setup_s", setup_s, "s");
    out.metric("setup_wall_s", setup_wall_s, "s");
    out.metric("cold_cpu_ms", cold_cpu / cold_requests as f64, "ms");
    out.metric("warm_p50_ms", median(warm_lat), "ms");
    if kind == Kind::Cold {
        out.metric("cold_ms", lat.iter().sum::<f64>() / lat.len() as f64, "ms");
    }
    out.metric("p90_ms", quantile(lat, 0.9), "ms");
    out.metric("p99_ms", quantile(lat, 0.99), "ms");
    out.metric(
        "qps",
        (lat.len() + timed.reask_ms.len()) as f64 / timed_s,
        "1/s",
    );
    out.metric("peak_rss_mb", rss, "MB");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key sets have the sizes README.md states: the 1000 smoke lines
    /// plus 87 distinct point requests at three corners each for
    /// serve-warm, and 192 serve-cold prices; every smoke op is present.
    #[test]
    fn key_sets_have_the_documented_sizes() {
        let catalog = NetworkModel::catalog();
        let warm = warm_keys(&catalog).unwrap();
        let count = |op: Op| warm[..WARM_LINES].iter().filter(|r| r.op == op).count();
        assert_eq!(
            Op::ALL.map(count),
            [100, 700, 160, 20, 20],
            "engine/layer/model/sweep/pareto lines"
        );
        assert_eq!(warm.len(), WARM_LINES + 3 * 87);
        assert!(warm.iter().enumerate().all(|(i, r)| r.id == i as u64));
        assert_eq!(price_keys(&catalog).unwrap().len(), 192);
    }

    /// A corner twin differs from its unbounded request only in the id
    /// and the memory field, and pairs with it.
    #[test]
    fn corner_twins_pair_with_their_smoke_line() {
        let catalog = NetworkModel::catalog();
        let warm = warm_keys(&catalog).unwrap();
        let twin = &warm[WARM_LINES];
        assert!(twin.ask.bounded && twin.line.ends_with(",\"memory\":\"edge\"}"));
        let base = warm[..WARM_LINES]
            .iter()
            .find(|r| r.twin == twin.twin)
            .unwrap();
        assert!(!base.ask.bounded);
        assert_eq!(format!("{}@edge", base.ask.label), twin.ask.label);
    }
}
