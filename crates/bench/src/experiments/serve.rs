//! The `repro serve` / `repro query` / `repro metrics` /
//! `repro serve-smoke` commands: the batched NDJSON query front end over
//! the canonical evaluation stack.
//!
//! `serve` binds a TCP listener and answers engine/layer/model evaluation
//! queries plus `tpe-dse`'s server-side `sweep`/`pareto` batch ops
//! (protocol in [`tpe_engine::serve`], slice ops in
//! [`tpe_dse::serve_ops`]) until a `shutdown` request arrives; requests
//! pipeline across a bounded worker pool (`--threads`) and all
//! connections share the process-wide [`EngineCache`]. `query` is the
//! matching client; `metrics` fetches one observability snapshot (JSON or
//! Prometheus text) from a running server. `serve-smoke` is the
//! self-driving load test: it spins a pooled server thread over a
//! dedicated cache instance (so the measured hit rate is a property of
//! the batch alone, give or take cold-key races between pool workers)
//! and a dedicated `tpe-obs` registry (so its `metrics` polls count
//! this server's requests alone, whatever else the process serves),
//! fires a mixed 1000-query batch (sweep/pareto ops included), verifies
//! the batched responses byte-identical to sequential single-query
//! replies, cross-checks the server's own `tpe-obs` request accounting
//! and eval-latency histogram against the client-side replay, and
//! reports throughput, both latency views and the cache hit rate
//! (optionally as JSON via `--out`).

use std::fmt::Write as _;
use std::io::{BufRead, Write as _};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Below this batch size the >90% hit-rate bar is not enforced: a short
/// cold batch is dominated by first-touch misses, which says nothing
/// about steady-state serving (the property the bar guards). The
/// server-vs-client latency cross-check gates on the same floor: tiny
/// batches are connect-overhead noise.
const HIT_RATE_MIN_QUERIES: usize = 500;

use tpe_dse::space::default_workloads;
use tpe_dse::{merge_shard_responses, DseOps, SweepWorkload};
use tpe_engine::serve::{
    self as engine_serve, parse_flat_object, query_batch, BatchOps, JsonValue, ServeConfig,
    ServeObs, SnapshotOps, SERVE_CACHE_ENTRIES_PER_MAP,
};
use tpe_engine::{roster, snapshot, CacheStats, CycleModel, EngineCache};
use tpe_obs::{HistogramSnapshot, Registry};

/// Minimal flag parser shared by the serving commands (and the
/// snapshot smoke next door).
pub(crate) fn parse_flags(
    args: &[String],
    spec: &[(&str, bool)],
) -> Result<Vec<Option<String>>, String> {
    let mut values: Vec<Option<String>> = vec![None; spec.len()];
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(slot) = spec.iter().position(|(name, _)| name == flag) else {
            return Err(format!("unknown flag `{flag}`"));
        };
        let value = it
            .next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        values[slot] = Some(value);
    }
    for ((name, required), v) in spec.iter().zip(&values) {
        if *required && v.is_none() {
            return Err(format!("{name} is required"));
        }
    }
    Ok(values)
}

pub(crate) fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Builds a [`ServeConfig`] from optional `--threads` / `--max-line-bytes`
/// flag values.
fn serve_config(
    threads: Option<&str>,
    max_line_bytes: Option<&str>,
    cycle_model: Option<&str>,
) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::default();
    if let Some(v) = threads {
        config.threads = parse_num(v, "--threads")?;
    }
    if let Some(v) = max_line_bytes {
        config.max_line_bytes = parse_num(v, "--max-line-bytes")?;
        if config.max_line_bytes == 0 {
            return Err("--max-line-bytes must be positive".into());
        }
    }
    if let Some(v) = cycle_model {
        config.cycle_model = CycleModel::parse(v)
            .ok_or_else(|| format!("unknown cycle model `{v}` (sampled|analytic)"))?;
    }
    Ok(config)
}

/// Runs the blocking serve loop (`repro serve [--port N] [--threads N]
/// [--max-line-bytes N] [--cycle-model sampled|analytic]
/// [--cache-snapshot F.bin] [--snapshot-every N]`; port 0 binds an
/// ephemeral port). Prints the bound address before serving, so callers
/// can scrape it. The server evaluates through its own cache, bounded at
/// [`SERVE_CACHE_ENTRIES_PER_MAP`] entries per map (a fixed capacity, not
/// a flag). `--cache-snapshot` warm-starts that cache from
/// the snapshot file (missing file → cold start; corrupt file → warn and
/// start cold), enables the `snapshot` op against that path, saves every
/// `--snapshot-every` requests, and always saves once more on clean
/// shutdown.
pub fn serve(args: &[String]) -> String {
    match try_serve(args) {
        Ok(report) => report,
        Err(msg) => format!(
            "error: {msg}\nusage: repro serve [--port N] [--threads N] [--max-line-bytes N] \
             [--cycle-model sampled|analytic] [--cache-snapshot F.bin] [--snapshot-every N]\n"
        ),
    }
}

fn try_serve(args: &[String]) -> Result<String, String> {
    let values = parse_flags(
        args,
        &[
            ("--port", false),
            ("--threads", false),
            ("--max-line-bytes", false),
            ("--cycle-model", false),
            ("--cache-snapshot", false),
            ("--snapshot-every", false),
        ],
    )?;
    let port: u16 = values[0]
        .as_deref()
        .map(|v| parse_num(v, "--port"))
        .transpose()?
        .unwrap_or(0);
    let config = serve_config(
        values[1].as_deref(),
        values[2].as_deref(),
        values[3].as_deref(),
    )?;
    let snapshot_path = values[4].as_deref().map(std::path::PathBuf::from);
    let snapshot_every: Option<u64> = values[5]
        .as_deref()
        .map(|v| parse_num(v, "--snapshot-every"))
        .transpose()?;
    if snapshot_every == Some(0) {
        return Err("--snapshot-every must be positive".into());
    }
    if snapshot_every.is_some() && snapshot_path.is_none() {
        return Err("--snapshot-every needs --cache-snapshot".into());
    }

    let cache = &EngineCache::bounded(SERVE_CACHE_ENTRIES_PER_MAP);
    let warm_note = match &snapshot_path {
        Some(path) => match snapshot::load(cache, path) {
            Ok(Some(info)) => format!(
                "; warm-started from {} ({} entries, {} bytes)",
                path.display(),
                info.entries,
                info.bytes
            ),
            Ok(None) => format!("; cold start ({} not found yet)", path.display()),
            Err(e) => {
                eprintln!("warning: ignoring cache snapshot {}: {e}", path.display());
                "; cold start (snapshot rejected)".to_string()
            }
        },
        None => String::new(),
    };

    // With a snapshot path configured the op surface gains `snapshot`
    // (server-side save to that path — clients never choose the file).
    let snap_ops;
    let ops: &dyn BatchOps = match &snapshot_path {
        Some(path) => {
            snap_ops = SnapshotOps::new(&DseOps, path.clone());
            &snap_ops
        }
        None => &DseOps,
    };

    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    println!(
        "repro serve listening on {addr} ({} worker(s), max line {} bytes; NDJSON; \
         ops: engine|layer|metrics|model|roster|stats{}|shutdown; \
         default cycle model {}; cache {} entries per map{warm_note})",
        tpe_engine::effective_threads(config.threads),
        config.max_line_bytes,
        ops.op_names(),
        config.cycle_model.name(),
        SERVE_CACHE_ENTRIES_PER_MAP,
    );
    std::io::stdout().flush().ok();
    let hook = snapshot_path
        .clone()
        .zip(snapshot_every)
        .map(|(path, every)| {
            move |handled: u64| {
                if handled.is_multiple_of(every) {
                    if let Err(e) = snapshot::save(cache, &path) {
                        eprintln!("warning: periodic snapshot failed: {e}");
                    }
                }
            }
        });
    let hook = hook.as_ref().map(|h| h as &(dyn Fn(u64) + Sync));
    let outcome = engine_serve::serve(listener, cache, ops, config, ServeObs::global(), hook)
        .map_err(|e| e.to_string())?;
    let final_note = match &snapshot_path {
        Some(path) => match snapshot::save(cache, path) {
            Ok(info) => format!(
                "; final snapshot {} ({} entries, {} bytes)",
                path.display(),
                info.entries,
                info.bytes
            ),
            Err(e) => format!("; final snapshot FAILED: {e}"),
        },
        None => String::new(),
    };
    let stats = cache.stats();
    Ok(format!(
        "serve shut down cleanly: {} connection(s), {} request(s) on {} worker(s); \
         global cache {} hits / {} misses ({:.1}% hit rate){final_note}\n",
        outcome.connections,
        outcome.requests,
        outcome.workers,
        stats.hits(),
        stats.misses(),
        stats.hit_rate() * 100.0,
    ))
}

/// Sends NDJSON requests to a running server
/// (`repro query [--host H] --port N [--file F] [--precision P]
/// [--shards H:P,H:P,...]`; default input is stdin). `--precision`
/// stamps the given operand precision onto every request that does not
/// already carry a `precision` field — the client-side way to re-ask a
/// whole batch at W4/W16. `--shards` replaces `--port`: each
/// `sweep`/`pareto` request fans out across the listed servers with a
/// distinct `"shard":"k/n"` stamp and the responses are merged back
/// byte-identical to a single-node answer.
pub fn query(args: &[String]) -> String {
    match try_query(args) {
        Ok(report) => report,
        Err(msg) => format!(
            "error: {msg}\nusage: repro query [--host H] --port N [--file F] \
             [--precision W4|W8|W16|W8xW4] [--shards H:P,H:P,...]\n"
        ),
    }
}

/// Adds `"precision":"<p>"` to a flat request object that lacks one.
/// Requests already carrying the field (or non-object lines, which the
/// server will reject with a parse error anyway) pass through untouched.
fn stamp_precision(line: &str, precision: &str) -> String {
    let trimmed = line.trim_end();
    if line.contains("\"precision\"") {
        return line.to_string();
    }
    match trimmed.strip_suffix('}') {
        Some(head) => format!("{head},\"precision\":\"{precision}\"}}"),
        None => line.to_string(),
    }
}

fn try_query(args: &[String]) -> Result<String, String> {
    let values = parse_flags(
        args,
        &[
            ("--host", false),
            ("--port", false),
            ("--file", false),
            ("--precision", false),
            ("--shards", false),
        ],
    )?;
    let host = values[0].clone().unwrap_or_else(|| "127.0.0.1".into());
    let shards = values[4].as_deref();
    if shards.is_none() && values[1].is_none() {
        return Err("--port is required".into());
    }
    if shards.is_some() && values[1].is_some() {
        return Err("--shards and --port are mutually exclusive".into());
    }
    let lines: Vec<String> = match values[2].as_deref() {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))?
            .lines()
            .map(str::to_string)
            .collect(),
        None => std::io::stdin()
            .lock()
            .lines()
            .collect::<Result<_, _>>()
            .map_err(|e| format!("reading stdin: {e}"))?,
    };
    let precision = values[3]
        .as_deref()
        .map(|p| {
            tpe_engine::Precision::parse(p)
                .map(|v| v.label())
                .ok_or_else(|| format!("unknown precision `{p}`"))
        })
        .transpose()?;
    let requests: Vec<String> = lines
        .into_iter()
        .filter(|l| !l.trim().is_empty())
        .map(|l| match &precision {
            Some(p) => stamp_precision(&l, p),
            None => l,
        })
        .collect();
    if requests.is_empty() {
        return Err("no requests to send".into());
    }
    if let Some(list) = shards {
        return query_sharded(list, &requests);
    }
    let port: u16 = parse_num(values[1].as_deref().unwrap(), "--port")?;
    let responses =
        query_batch(&format!("{host}:{port}"), &requests).map_err(|e| format!("query: {e}"))?;
    Ok(responses.join("\n") + "\n")
}

/// Stamps `"shard":"k/n"` (and `"points":true` when absent — the merge
/// needs per-point rows) onto a flat slice request. Callers have already
/// rejected requests that carry a conflicting field.
fn stamp_shard(line: &str, k: usize, n: usize) -> String {
    let trimmed = line.trim_end();
    let head = trimmed.strip_suffix('}').unwrap_or(trimmed);
    let points = if line.contains("\"points\"") {
        ""
    } else {
        ",\"points\":true"
    };
    format!("{head},\"shard\":\"{k}/{n}\"{points}}}")
}

/// Pops one request's worth of lines off a shard's response stream: the
/// summary plus its `points_follow` rows (replies without the field —
/// error lines — are a single line).
fn take_response_group(responses: &[String], cursor: &mut usize) -> Option<Vec<String>> {
    let first = responses.get(*cursor)?;
    let follow = first
        .split("\"points_follow\":")
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse::<usize>()
                .ok()
        })
        .unwrap_or(0);
    let end = *cursor + 1 + follow;
    if end > responses.len() {
        return None;
    }
    let group = responses[*cursor..end].to_vec();
    *cursor = end;
    Some(group)
}

/// The shard-merge client: fans each slice request out across the `n`
/// servers in `--shards host:port,...`, stamping shard `k` of `n` onto
/// the copy sent to server `k`, then reassembles the per-shard replies
/// through [`merge_shard_responses`] — byte-identical to what one server
/// holding the whole slice would answer. Only `sweep`/`pareto` requests
/// are accepted: point ops have no shard semantics (send those to any
/// one server with `--port`).
fn query_sharded(list: &str, requests: &[String]) -> Result<String, String> {
    let addrs: Vec<&str> = list.split(',').filter(|s| !s.is_empty()).collect();
    if addrs.is_empty() {
        return Err("--shards needs at least one host:port".into());
    }
    let n = addrs.len();
    for r in requests {
        let fields = parse_flat_object(r).map_err(|e| format!("request {r}: {e}"))?;
        match fields.get("op") {
            Some(JsonValue::Str(op)) if op == "sweep" || op == "pareto" => {}
            _ => {
                return Err(format!(
                    "--shards only serves sweep/pareto requests, got: {r}"
                ))
            }
        }
        if fields.contains_key("shard") {
            return Err(format!("request already carries a shard field: {r}"));
        }
        if matches!(fields.get("points"), Some(JsonValue::Bool(false))) {
            return Err(format!(
                "--shards needs per-point rows (`points` must not be false): {r}"
            ));
        }
    }
    let mut per_shard: Vec<Vec<String>> = Vec::with_capacity(n);
    for (k, addr) in addrs.iter().enumerate() {
        let stamped: Vec<String> = requests.iter().map(|r| stamp_shard(r, k, n)).collect();
        let responses =
            query_batch(addr, &stamped).map_err(|e| format!("shard {k} ({addr}): {e}"))?;
        per_shard.push(responses);
    }
    // Regroup each shard's flat response stream per request (summary +
    // points_follow rows), merge each request's shard group, concatenate.
    let mut cursors = vec![0usize; n];
    let mut out = String::new();
    for i in 0..requests.len() {
        let mut groups: Vec<Vec<String>> = Vec::with_capacity(n);
        for (k, responses) in per_shard.iter().enumerate() {
            let group = take_response_group(responses, &mut cursors[k])
                .ok_or_else(|| format!("shard {k}: truncated response stream at request {i}"))?;
            groups.push(group);
        }
        if let Some(bad) = groups
            .iter()
            .find_map(|g| g.first().filter(|l| l.contains("\"ok\":false")))
        {
            return Err(format!("shard request failed: {bad}"));
        }
        let merged = merge_shard_responses(&groups).map_err(|e| format!("request {i}: {e}"))?;
        for line in merged {
            out.push_str(&line);
            out.push('\n');
        }
    }
    Ok(out)
}

/// Fetches one observability snapshot from a running server
/// (`repro metrics [--host H] --port N [--format json|prometheus]`).
/// The default prints the server's flat-JSON `metrics` reply verbatim;
/// `--format prometheus` unwraps the `text` field into the plain
/// Prometheus exposition, ready to pipe into a scrape file.
pub fn metrics(args: &[String]) -> String {
    match try_metrics(args) {
        Ok(report) => report,
        Err(msg) => format!(
            "error: {msg}\nusage: repro metrics [--host H] --port N [--format json|prometheus]\n"
        ),
    }
}

fn try_metrics(args: &[String]) -> Result<String, String> {
    let values = parse_flags(
        args,
        &[("--host", false), ("--port", true), ("--format", false)],
    )?;
    let host = values[0].clone().unwrap_or_else(|| "127.0.0.1".into());
    let port: u16 = parse_num(values[1].as_deref().unwrap(), "--port")?;
    let format = values[2].as_deref().unwrap_or("json");
    let request = match format {
        "json" => r#"{"id":0,"op":"metrics"}"#.to_string(),
        "prometheus" => r#"{"id":0,"op":"metrics","format":"prometheus"}"#.to_string(),
        other => {
            return Err(format!(
                "unknown format `{other}` (expected json|prometheus)"
            ))
        }
    };
    let reply = query_batch(&format!("{host}:{port}"), std::slice::from_ref(&request))
        .map_err(|e| format!("metrics query: {e}"))?
        .pop()
        .ok_or("empty metrics reply")?;
    if !reply.contains("\"ok\":true") {
        return Err(format!("metrics request failed: {reply}"));
    }
    if format == "prometheus" {
        // parse_flat_object undoes the wire's \u-escaping, so the `text`
        // field comes back as the plain multi-line exposition.
        let map = parse_flat_object(&reply).map_err(|e| format!("metrics reply: {e}"))?;
        match map.get("text") {
            Some(JsonValue::Str(text)) => Ok(text.clone()),
            _ => Err(format!("metrics reply carries no text field: {reply}")),
        }
    } else {
        Ok(reply + "\n")
    }
}

/// One parsed `metrics`-op reply: the server's own request accounting,
/// readable by name.
struct WireMetrics(std::collections::BTreeMap<String, JsonValue>);

impl WireMetrics {
    /// Polls `addr` once. The poll itself goes through the pool, but the
    /// snapshot is taken before the serving worker records it — so a
    /// fetched snapshot never includes its own request.
    fn fetch(addr: &str) -> Result<Self, String> {
        let reply = query_batch(addr, &[r#"{"id":0,"op":"metrics"}"#.to_string()])
            .map_err(|e| format!("metrics poll: {e}"))?
            .pop()
            .ok_or("empty metrics reply")?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("metrics poll failed: {reply}"));
        }
        parse_flat_object(&reply)
            .map(Self)
            .map_err(|e| format!("metrics reply: {e}"))
    }

    /// A `ctr_<name>` counter value (0 when the metric is not yet
    /// registered — nothing recorded into it either).
    fn counter(&self, name: &str) -> u64 {
        match self.0.get(&format!("ctr_{name}")) {
            Some(JsonValue::Num(v)) => *v as u64,
            _ => 0,
        }
    }

    /// Rebuilds a `hist_<name>_*` family into a [`HistogramSnapshot`]
    /// (the wire trims trailing zero buckets; `from_parts` re-pads).
    fn histogram(&self, name: &str) -> Result<HistogramSnapshot, String> {
        let num = |suffix: &str| -> Result<u64, String> {
            match self.0.get(&format!("hist_{name}_{suffix}")) {
                Some(JsonValue::Num(v)) => Ok(*v as u64),
                _ => Err(format!("metrics reply lacks hist_{name}_{suffix}")),
            }
        };
        let buckets = match self.0.get(&format!("hist_{name}_buckets")) {
            Some(JsonValue::Str(csv)) if csv.is_empty() => Vec::new(),
            Some(JsonValue::Str(csv)) => csv
                .split(',')
                .map(|c| c.parse::<u64>().map_err(|e| format!("hist_{name}: {e}")))
                .collect::<Result<_, _>>()?,
            _ => return Err(format!("metrics reply lacks hist_{name}_buckets")),
        };
        Ok(HistogramSnapshot::from_parts(
            buckets,
            num("sum")?,
            num("max")?,
        ))
    }
}

/// The deterministic mixed query batch the smoke fires: engine pricing
/// (cycling the W8/W4/W16/W8xW4 precision axis), layer evaluations over
/// the default dse workload slice, mixed-precision layer queries against
/// a fixed serial engine, whole-model queries (including the quantized
/// ResNet18-W4 preset) cycling the Table VII roster, **and server-side
/// `sweep`/`pareto` slice ops** (summary-only, so every request still
/// answers exactly one line and the byte-identity replay stays 1:1).
///
/// Precision-bearing and slice queries deliberately revisit a *bounded*
/// set of cache keys: the smoke's >90% hit-rate bar is a steady-state
/// property, and mixing the axes must prove the shared cache converges
/// just like the W8-only batch did.
pub fn smoke_batch(n: usize) -> Vec<String> {
    let engines = roster::names();
    let layers: Vec<(String, usize, usize, usize, usize)> = default_workloads()
        .iter()
        .filter_map(|w| match w {
            SweepWorkload::Layer(l) => Some((l.name.clone(), l.m, l.n, l.k, l.repeats)),
            SweepWorkload::Model(_) => None,
        })
        .collect();
    let models = ["ResNet18", "MobileNetV3"];
    let precisions = ["W8", "W4", "W16", "W8xW4"];
    // Bounded slice filters: one serial engine (7 workloads incl. the
    // whole-model point) and one dense engine across its corners.
    let slice_filters = [
        "OPT4E[EN-T]/28nm@2.00GHz,precision=w8",
        "OPT1(TPU)/28nm@1.50,precision=w8",
    ];
    (0..n)
        .map(|i| {
            // Engine cycles fastest, workload slowest, so the batch walks
            // the full (engine x workload) product instead of aliasing on
            // shared divisors.
            let engine = &engines[i % engines.len()];
            let slow = i / engines.len();
            // Every 50th line (offset to hit both early and late in the
            // batch) exercises a server-side slice op instead of a point
            // query — heavy enough to prove the path, rare enough to keep
            // the throughput figure a point-query number.
            if i % 50 == 19 {
                let filter = slice_filters[slow % slice_filters.len()];
                return format!(r#"{{"id":{i},"op":"sweep","filter":"{filter}","seed":42}}"#);
            }
            if i % 50 == 49 {
                let filter = slice_filters[slow % slice_filters.len()];
                return format!(
                    r#"{{"id":{i},"op":"pareto","filter":"{filter}","seed":42,"points":false}}"#
                );
            }
            match i % 10 {
                0 => {
                    let precision = precisions[slow % precisions.len()];
                    format!(
                        r#"{{"id":{i},"op":"engine","engine":"{engine}","precision":"{precision}"}}"#
                    )
                }
                1..=6 => {
                    let (name, m, nn, k, r) = &layers[slow % layers.len()];
                    format!(
                        r#"{{"id":{i},"op":"layer","engine":"{engine}","workload":"{name}","m":{m},"n":{nn},"k":{k},"repeats":{r},"seed":42}}"#
                    )
                }
                7 => {
                    // Mixed-precision serial streaming against one fixed
                    // engine/layer pair: two cycle keys, many revisits.
                    let precision = ["W4", "W16"][slow % 2];
                    let (name, m, nn, k, r) = &layers[0];
                    format!(
                        r#"{{"id":{i},"op":"layer","engine":"OPT4E[EN-T]/28nm@2.00GHz","precision":"{precision}","workload":"{name}","m":{m},"n":{nn},"k":{k},"repeats":{r},"seed":42}}"#
                    )
                }
                8 => {
                    let model = models[slow % models.len()];
                    format!(r#"{{"id":{i},"op":"model","engine":"{engine}","model":"{model}","seed":42}}"#)
                }
                _ => {
                    // The quantized preset streams W4 digit statistics —
                    // bounded to one fixed serial engine so its per-layer
                    // cycle keys converge to steady-state hits.
                    format!(
                        r#"{{"id":{i},"op":"model","engine":"OPT4E[EN-T]/28nm@2.00GHz","model":"ResNet18-W4","seed":42}}"#
                    )
                }
            }
        })
        .collect()
}

/// Latency distribution of the sequential replay phase, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LatencySummary {
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    max_us: f64,
}

impl LatencySummary {
    /// Nearest-rank percentiles over the per-query samples.
    fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "no latency samples");
        samples.sort_by(f64::total_cmp);
        let at = |p: f64| samples[((p * (samples.len() - 1) as f64).round()) as usize];
        Self {
            p50_us: at(0.50),
            p90_us: at(0.90),
            p99_us: at(0.99),
            max_us: *samples.last().unwrap(),
        }
    }

    /// Percentiles from a windowed server-side nanosecond histogram:
    /// each quantile is linearly interpolated within its log2 bucket
    /// (never above the bucket's upper bound, itself ≤2× the true order
    /// statistic); `max` is the histogram's all-time max, an upper bound
    /// on the window's.
    fn from_ns_window(w: &HistogramSnapshot) -> Self {
        Self {
            p50_us: w.quantile(0.50) as f64 / 1e3,
            p90_us: w.quantile(0.90) as f64 / 1e3,
            p99_us: w.quantile(0.99) as f64 / 1e3,
            max_us: w.max as f64 / 1e3,
        }
    }
}

/// Everything the smoke's drive phase measures.
struct SmokeMeasurement {
    elapsed: Duration,
    delta: CacheStats,
    divergences: usize,
    latency: LatencySummary,
    /// `sweep`/`pareto` requests the fired batch contained (0 for
    /// batches too short to reach a slice-op index).
    slice_ops: usize,
    /// Server-side per-request eval latency over the drive window, from
    /// the `serve_eval_ns` histogram via the `metrics` op.
    server_latency: LatencySummary,
    /// Point/slice op requests the server counted over the drive window
    /// (must be exactly batch + replay = 2 × queries).
    counted_ops: u64,
    /// `serve_eval_ns` records over the window (the 2 × queries drive
    /// plus the opening `metrics` poll itself).
    eval_records: u64,
    /// `serve_queue_wait_ns` records over the window (same expectation).
    queue_records: u64,
}

/// The self-driving load smoke
/// (`repro serve-smoke [--queries N] [--threads N] [--out F.json]
/// [--min-qps N]`). `--min-qps` turns the batch throughput figure into a
/// hard floor — the CI regression gate for the serving hot path.
pub fn serve_smoke(args: &[String]) -> String {
    match try_serve_smoke(args) {
        Ok(report) => report,
        Err(msg) => format!(
            "error: {msg}\nusage: repro serve-smoke [--queries N] [--threads N] [--out F.json] \
             [--min-qps N]\n"
        ),
    }
}

fn try_serve_smoke(args: &[String]) -> Result<String, String> {
    let values = parse_flags(
        args,
        &[
            ("--queries", false),
            ("--threads", false),
            ("--out", false),
            ("--min-qps", false),
        ],
    )?;
    let queries: usize = values[0]
        .as_deref()
        .map(|v| parse_num(v, "--queries"))
        .transpose()?
        .unwrap_or(1000);
    if queries == 0 {
        return Err("--queries must be positive".into());
    }
    let config = serve_config(values[1].as_deref(), None, None)?;
    let out_json = values[2].clone();
    let min_qps: Option<f64> = values[3]
        .as_deref()
        .map(|v| parse_num(v, "--min-qps"))
        .transpose()?;
    if min_qps.is_some_and(|f| !f.is_finite() || f <= 0.0) {
        return Err("--min-qps must be positive".into());
    }

    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    // A dedicated cache instance (same type the real server shares
    // process-wide): the measured hit rate is then a property of the
    // batch alone — no distortion from whatever else the process
    // evaluated before. (Under the worker pool two workers can race one
    // cold key and both count a miss, so the counters may wobble by a
    // few cold-start misses run-to-run; the >90% bar has ample slack.)
    let cache: &'static EngineCache = &*Box::leak(Box::new(EngineCache::new()));
    // A dedicated registry too: the `metrics` polls then count this
    // server's requests only, not those of any other server running in
    // the same process.
    let registry: &'static Registry = &*Box::leak(Box::new(Registry::new()));
    let obs: &'static ServeObs = &*Box::leak(Box::new(ServeObs::in_registry(registry)));
    let server = std::thread::spawn(move || {
        engine_serve::serve(listener, cache, &DseOps, config, obs, None)
    });

    // Whatever happens mid-smoke, the server must come down: run the
    // drive phase, then always send shutdown and join before reporting.
    let driven = drive_smoke(&addr.to_string(), queries, cache);
    let down = query_batch(
        &addr.to_string(),
        &[format!(r#"{{"id":{queries},"op":"shutdown"}}"#)],
    )
    .map_err(|e| format!("shutdown: {e}"))?;
    let outcome = server
        .join()
        .map_err(|_| "server thread panicked".to_string())
        .and_then(|r| r.map_err(|e| format!("serve loop: {e}")))?;
    let m = driven?;

    let hit_rate = m.delta.hit_rate();
    let qps = queries as f64 / m.elapsed.as_secs_f64().max(1e-9);
    let mut out = String::new();
    writeln!(
        out,
        "serve smoke — {} mixed queries (engine/layer/model over the {}-engine roster, \
         precisions mixed across W8/W4/W16/W8xW4{}) on {addr} with {} pool worker(s)",
        queries,
        roster::names().len(),
        if m.slice_ops > 0 {
            format!(", {} sweep/pareto slice ops in the mix", m.slice_ops)
        } else {
            String::new()
        },
        outcome.workers,
    )
    .unwrap();
    writeln!(
        out,
        "batch wall-clock: {:.1} ms ({:.0} queries/s over one pipelined connection)",
        m.elapsed.as_secs_f64() * 1e3,
        qps,
    )
    .unwrap();
    let model_hit_rate = if m.delta.model_lookups > 0 {
        m.delta.model_hits as f64 / m.delta.model_lookups as f64
    } else {
        0.0
    };
    writeln!(
        out,
        "serve cache over the batch: {} hits / {} misses ({:.1}% hit rate; \
         pricing {}h/{}m, workload cycles {}h/{}m, model reports {}h/{}m; \
         lookups consistent: {})",
        m.delta.hits(),
        m.delta.misses(),
        hit_rate * 100.0,
        m.delta.price_hits,
        m.delta.price_misses,
        m.delta.cycle_hits,
        m.delta.cycle_misses,
        m.delta.model_hits,
        m.delta.model_misses,
        m.delta.lookups() == m.delta.hits() + m.delta.misses(),
    )
    .unwrap();
    writeln!(
        out,
        "sequential-replay latency: p50 {:.0} µs, p90 {:.0} µs, p99 {:.0} µs, max {:.0} µs",
        m.latency.p50_us, m.latency.p90_us, m.latency.p99_us, m.latency.max_us,
    )
    .unwrap();
    writeln!(
        out,
        "server-side eval latency (metrics op, log2-bucket resolution): \
         p50 {:.0} µs, p90 {:.0} µs, p99 {:.0} µs, max {:.0} µs",
        m.server_latency.p50_us,
        m.server_latency.p90_us,
        m.server_latency.p99_us,
        m.server_latency.max_us,
    )
    .unwrap();
    let expected_ops = 2 * queries as u64;
    let accounting_ok = m.counted_ops == expected_ops
        && m.eval_records == expected_ops + 1
        && m.queue_records == expected_ops + 1;
    writeln!(
        out,
        "server-side accounting: {} point/slice ops counted (expected {}), \
         {} eval / {} queue-wait records (expected {} incl. the opening metrics poll) — {}",
        m.counted_ops,
        expected_ops,
        m.eval_records,
        m.queue_records,
        expected_ops + 1,
        if accounting_ok {
            "consistent"
        } else {
            "INCONSISTENT"
        },
    )
    .unwrap();
    writeln!(
        out,
        "batched vs sequential replies: {} / {} byte-identical",
        queries - m.divergences,
        queries
    )
    .unwrap();
    writeln!(
        out,
        "shutdown: {} ({} connection(s), {} request(s) served)",
        if down
            .first()
            .is_some_and(|r| r.contains("\"op\":\"shutdown\""))
        {
            "clean"
        } else {
            "NOT CLEAN"
        },
        outcome.connections,
        outcome.requests,
    )
    .unwrap();

    if let Some(path) = &out_json {
        let json = format!(
            "{{\n  \"queries\": {queries},\n  \"workers\": {},\n  \
             \"throughput_qps\": {:.1},\n  \"batch_ms\": {:.3},\n  \
             \"hit_rate\": {:.4},\n  \"hits\": {},\n  \"misses\": {},\n  \
             \"model_hit_rate\": {model_hit_rate:.4},\n  \
             \"model_hits\": {},\n  \"model_misses\": {},\n  \
             \"lookups_consistent\": {},\n  \"divergences\": {},\n  \
             \"server_accounting_consistent\": {accounting_ok},\n  \
             \"latency_us\": {{\"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \
             \"max\": {:.1}}},\n  \
             \"latency_us_server\": {{\"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \
             \"max\": {:.1}}}\n}}\n",
            outcome.workers,
            qps,
            m.elapsed.as_secs_f64() * 1e3,
            hit_rate,
            m.delta.hits(),
            m.delta.misses(),
            m.delta.model_hits,
            m.delta.model_misses,
            m.delta.lookups() == m.delta.hits() + m.delta.misses(),
            m.divergences,
            m.latency.p50_us,
            m.latency.p90_us,
            m.latency.p99_us,
            m.latency.max_us,
            m.server_latency.p50_us,
            m.server_latency.p90_us,
            m.server_latency.p99_us,
            m.server_latency.max_us,
        );
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(out, "latency-percentile summary written to {path}").unwrap();
    }

    if m.divergences > 0 {
        return Err(format!(
            "{} batched responses diverged from sequential replies\n{out}",
            m.divergences
        ));
    }
    if queries >= HIT_RATE_MIN_QUERIES && hit_rate <= 0.90 {
        return Err(format!(
            "serve-cache hit rate {:.1}% does not clear the 90% bar\n{out}",
            hit_rate * 100.0
        ));
    }
    if m.delta.lookups() != m.delta.hits() + m.delta.misses() {
        return Err(format!(
            "cache stats inconsistent: {} lookups vs {} hits + {} misses\n{out}",
            m.delta.lookups(),
            m.delta.hits(),
            m.delta.misses()
        ));
    }
    if !accounting_ok {
        return Err(format!(
            "server-side metrics accounting diverged from the drive\n{out}"
        ));
    }
    // Cross-check the two latency views: the server-side eval p50 omits
    // connect/socket overhead, so it must sit at or below the client
    // replay p50. Within-bucket interpolation tightened the histogram
    // quantiles, so the slack is 1.5× (down from the pre-interpolation
    // 2× bucket bound). Gated like the hit-rate bar: tiny batches are
    // all connect noise.
    if queries >= HIT_RATE_MIN_QUERIES && m.server_latency.p50_us > m.latency.p50_us * 1.5 {
        return Err(format!(
            "server-side p50 {:.0} µs exceeds 1.5x the client replay p50 {:.0} µs\n{out}",
            m.server_latency.p50_us, m.latency.p50_us
        ));
    }
    if let Some(floor) = min_qps {
        if qps < floor {
            return Err(format!(
                "throughput {qps:.0} queries/s is below the --min-qps floor {floor:.0}\n{out}"
            ));
        }
    }
    Ok(out)
}

/// The smoke's drive phase: fire the mixed batch over one pipelined
/// connection, validate every reply, then replay each request on its own
/// fresh connection (timing each for the latency percentiles) and count
/// byte divergences.
fn drive_smoke(
    addr: &str,
    queries: usize,
    cache: &EngineCache,
) -> Result<SmokeMeasurement, String> {
    let batch = smoke_batch(queries);
    let slice_ops = batch
        .iter()
        .filter(|r| r.contains("\"op\":\"sweep\"") || r.contains("\"op\":\"pareto\""))
        .count();
    // Opening metrics poll: the server snapshots *before* recording the
    // poll itself, so this window base excludes it — the drive window
    // then covers exactly (this poll) + batch + replay.
    let obs_before = WireMetrics::fetch(addr)?;
    let before = cache.stats();
    let start = Instant::now();
    let batched = query_batch(addr, &batch).map_err(|e| format!("batch: {e}"))?;
    let elapsed = start.elapsed();
    let delta = cache.stats().since(&before);

    if batched.len() != batch.len() {
        return Err(format!(
            "expected {} responses, got {}",
            batch.len(),
            batched.len()
        ));
    }
    if let Some(bad) = batched.iter().find(|r| !r.contains("\"ok\":true")) {
        return Err(format!("request failed: {bad}"));
    }

    // Property: batched responses are byte-identical to sequential
    // single-query responses (fresh connection per request). The replay
    // doubles as the latency probe: each single query is one full
    // connect → evaluate → respond round trip.
    let mut divergences = 0usize;
    let mut samples = Vec::with_capacity(batch.len());
    for (req, batched_resp) in batch.iter().zip(&batched) {
        let t0 = Instant::now();
        let single = query_batch(addr, std::slice::from_ref(req))
            .map_err(|e| format!("single query: {e}"))?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        if single.first() != Some(batched_resp) {
            divergences += 1;
        }
    }

    // Closing poll: workers record each request before replying, so with
    // every replay response read, the after-snapshot must already cover
    // the full 2 × queries drive.
    let obs_after = WireMetrics::fetch(addr)?;
    let counted_ops = ["engine", "layer", "model", "sweep", "pareto"]
        .iter()
        .map(|op| {
            let name = format!("serve_op_{op}");
            obs_after.counter(&name) - obs_before.counter(&name)
        })
        .sum();
    let eval_window = obs_after
        .histogram("serve_eval_ns")?
        .since(&obs_before.histogram("serve_eval_ns")?);
    let queue_window = obs_after
        .histogram("serve_queue_wait_ns")?
        .since(&obs_before.histogram("serve_queue_wait_ns")?);
    Ok(SmokeMeasurement {
        elapsed,
        delta,
        divergences,
        latency: LatencySummary::from_samples(samples),
        slice_ops,
        server_latency: LatencySummary::from_ns_window(&eval_window),
        counted_ops,
        eval_records: eval_window.count(),
        queue_records: queue_window.count(),
    })
}

/// In-process variant for tests: answers the batch through
/// [`tpe_engine::serve::handle_request`] with the same `sweep`/`pareto`
/// ops attached — the code path the server's pool workers run per
/// request.
#[cfg(test)]
fn answer_locally(requests: &[String], cache: &EngineCache) -> Vec<String> {
    requests
        .iter()
        .flat_map(|r| tpe_engine::serve::handle_request(r, cache, &DseOps).0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn smoke_batch_mixes_all_ops_deterministically() {
        let batch = smoke_batch(100);
        assert_eq!(batch.len(), 100);
        assert_eq!(batch, smoke_batch(100), "batch must be deterministic");
        for op in [
            "\"op\":\"engine\"",
            "\"op\":\"layer\"",
            "\"op\":\"model\"",
            "\"op\":\"sweep\"",
            "\"op\":\"pareto\"",
        ] {
            assert!(batch.iter().any(|r| r.contains(op)), "missing {op}");
        }
        // The batch exercises the precision axis on every op family.
        for needle in [
            "\"precision\":\"W4\"",
            "\"precision\":\"W16\"",
            "\"precision\":\"W8xW4\"",
            "\"model\":\"ResNet18-W4\"",
        ] {
            assert!(batch.iter().any(|r| r.contains(needle)), "missing {needle}");
        }
        // Every request parses and answers ok against a fresh cache
        // (covering a sweep op at index 19 and a pareto at 49).
        let cache = EngineCache::new();
        for resp in answer_locally(&batch[..50], &cache) {
            assert!(resp.contains("\"ok\":true"), "{resp}");
        }
    }

    /// The slice ops in the smoke batch answer exactly one line each —
    /// what keeps the byte-identity replay a 1:1 zip.
    #[test]
    fn smoke_slice_ops_are_summary_only() {
        let cache = EngineCache::new();
        let mut slices = 0usize;
        for r in smoke_batch(100)
            .iter()
            .filter(|r| r.contains("\"op\":\"sweep\"") || r.contains("\"op\":\"pareto\""))
        {
            let (lines, _) = tpe_engine::serve::handle_request(r, &cache, &DseOps);
            assert_eq!(lines.len(), 1, "{r} answered {} lines", lines.len());
            assert!(lines[0].contains("\"points_follow\":0"), "{}", lines[0]);
            slices += 1;
        }
        assert!(slices >= 2, "smoke must include slice ops");
    }

    #[test]
    fn latency_percentiles_are_order_statistics() {
        let s = LatencySummary::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(s.p50_us, 51.0);
        assert_eq!(s.p90_us, 90.0);
        assert_eq!(s.p99_us, 99.0);
        assert_eq!(s.max_us, 100.0);
    }

    /// The full smoke at the acceptance batch size (the default 1000):
    /// pooled server thread, TCP batch with sweep/pareto in the mix,
    /// >90% hit rate, byte-identity, latency percentiles, clean shutdown.
    #[test]
    fn serve_smoke_end_to_end() {
        let out_path = std::env::temp_dir().join("tpe_serve_smoke_test.json");
        let out = out_path.to_str().unwrap().to_string();
        let report = serve_smoke(&args(&["--threads", "4", "--out", &out]));
        assert!(!report.starts_with("error:"), "{report}");
        assert!(report.contains("1000 / 1000 byte-identical"), "{report}");
        assert!(report.contains("shutdown: clean"), "{report}");
        assert!(
            report.contains("sequential-replay latency: p50"),
            "{report}"
        );
        assert!(
            report.contains("server-side eval latency (metrics op"),
            "{report}"
        );
        assert!(
            report.contains("2000 point/slice ops counted (expected 2000)"),
            "{report}"
        );
        assert!(report.contains("— consistent"), "{report}");
        assert!(report.contains("4 pool worker(s)"), "{report}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        for field in [
            "\"throughput_qps\"",
            "\"latency_us\"",
            "\"latency_us_server\"",
            "\"p99\"",
            "\"model_hit_rate\"",
            "\"lookups_consistent\": true",
            "\"server_accounting_consistent\": true",
            "\"divergences\": 0",
        ] {
            assert!(json.contains(field), "{json}");
        }
        let _ = std::fs::remove_file(&out_path);
    }

    /// The wire-histogram helper rebuilds a snapshot a `metrics` reply
    /// carries: trimmed bucket CSV re-padded, quantiles usable.
    #[test]
    fn wire_metrics_rebuilds_histograms_and_counters() {
        // Two samples ~500 ns (bucket 9) and one 1500 ns (bucket 11).
        let reply = r#"{"id":0,"ok":true,"op":"metrics","uptime_ms":5,"ctr_serve_op_layer":7,"hist_serve_eval_ns_count":3,"hist_serve_eval_ns_sum":2500,"hist_serve_eval_ns_max":1500,"hist_serve_eval_ns_p50":511,"hist_serve_eval_ns_p90":1500,"hist_serve_eval_ns_p99":1500,"hist_serve_eval_ns_buckets":"0,0,0,0,0,0,0,0,0,2,0,1"}"#;
        let wire = WireMetrics(parse_flat_object(reply).unwrap());
        assert_eq!(wire.counter("serve_op_layer"), 7);
        assert_eq!(wire.counter("serve_op_sweep"), 0, "absent counters read 0");
        let h = wire.histogram("serve_eval_ns").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum, 2500);
        assert_eq!(h.quantile(0.5), 511, "log2 bucket upper bound");
        assert_eq!(h.quantile(0.99), 1500, "capped by the tracked max");
        assert!(wire.histogram("no_such_hist").is_err());
    }

    #[test]
    fn bad_flags_render_usage() {
        assert!(serve_smoke(&args(&["--bogus", "1"])).contains("usage:"));
        assert!(serve_smoke(&args(&["--queries", "0"])).contains("usage:"));
        assert!(serve_smoke(&args(&["--min-qps", "0"])).contains("usage:"));
        assert!(serve_smoke(&args(&["--min-qps", "x"])).contains("usage:"));
        assert!(query(&args(&[])).contains("usage:"), "--port is required");
        assert!(metrics(&args(&[])).contains("usage:"), "--port is required");
        assert!(metrics(&args(&["--port", "1", "--format", "xml"])).contains("usage:"));
        assert!(serve(&args(&["--port", "notaport"])).contains("usage:"));
        assert!(serve(&args(&["--threads", "x"])).contains("usage:"));
        assert!(serve(&args(&["--max-line-bytes", "0"])).contains("usage:"));
        assert!(serve(&args(&["--snapshot-every", "0"])).contains("usage:"));
        assert!(
            serve(&args(&["--snapshot-every", "5"])).contains("needs --cache-snapshot"),
            "periodic saves make no sense without a snapshot path"
        );
    }

    /// Shard stamping appends the shard spec (and `points:true` when the
    /// request does not pick) without disturbing existing fields.
    #[test]
    fn shard_stamping_and_response_grouping() {
        let plain = r#"{"id":3,"op":"sweep","filter":"f","seed":42}"#;
        assert_eq!(
            stamp_shard(plain, 1, 3),
            r#"{"id":3,"op":"sweep","filter":"f","seed":42,"shard":"1/3","points":true}"#
        );
        let explicit = r#"{"id":3,"op":"pareto","filter":"f","points":true}"#;
        assert_eq!(
            stamp_shard(explicit, 0, 2),
            r#"{"id":3,"op":"pareto","filter":"f","points":true,"shard":"0/2"}"#
        );

        // Grouping walks summary + points_follow rows, one group per
        // request; error lines (no points_follow) group alone.
        let stream = vec![
            r#"{"id":1,"ok":true,"points_follow":2}"#.to_string(),
            "row-a".to_string(),
            "row-b".to_string(),
            r#"{"id":2,"ok":false,"error":"nope"}"#.to_string(),
            r#"{"id":3,"ok":true,"points_follow":1}"#.to_string(),
        ];
        let mut cursor = 0;
        assert_eq!(take_response_group(&stream, &mut cursor).unwrap().len(), 3);
        assert_eq!(take_response_group(&stream, &mut cursor).unwrap().len(), 1);
        assert!(
            take_response_group(&stream, &mut cursor).is_none(),
            "id 3 promises one row the stream does not carry"
        );
    }

    /// `query_sharded` rejects requests the shard protocol cannot carry.
    #[test]
    fn query_sharded_rejects_unshardable_requests() {
        let sweep = |extra: &str| vec![format!(r#"{{"id":1,"op":"sweep","filter":"f"{extra}}}"#)];
        let point = vec![r#"{"id":1,"op":"engine","engine":"x"}"#.to_string()];
        assert!(query_sharded("", &sweep(""))
            .unwrap_err()
            .contains("at least one"));
        assert!(query_sharded("h:1", &point)
            .unwrap_err()
            .contains("only serves sweep/pareto"));
        assert!(query_sharded("h:1", &sweep(r#","shard":"0/2""#))
            .unwrap_err()
            .contains("already carries a shard field"));
        assert!(query_sharded("h:1", &sweep(r#","points":false"#))
            .unwrap_err()
            .contains("per-point rows"));
    }

    /// The full sharded round trip: two pooled servers over disjoint
    /// caches, one slice request fanned out via `query_sharded`, merged
    /// output byte-identical to the single-node answer for both ops.
    #[test]
    fn query_sharded_matches_single_node_bytes() {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..2 {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            addrs.push(listener.local_addr().unwrap().to_string());
            let cache: &'static EngineCache = &*Box::leak(Box::new(EngineCache::new()));
            handles.push(std::thread::spawn(move || {
                engine_serve::serve(
                    listener,
                    cache,
                    &DseOps,
                    ServeConfig::default(),
                    ServeObs::global(),
                    None,
                )
            }));
        }
        let shard_list = addrs.join(",");
        let filter = "OPT1(TPU)/28nm@1.50,precision=w8";
        for op in ["sweep", "pareto"] {
            let request = format!(r#"{{"id":7,"op":"{op}","filter":"{filter}","seed":42}}"#);
            let single_req =
                format!(r#"{{"id":7,"op":"{op}","filter":"{filter}","seed":42,"points":true}}"#);
            let merged = query_sharded(&shard_list, &[request]).unwrap();
            let single = answer_locally(&[single_req], &EngineCache::new()).join("\n") + "\n";
            assert_eq!(merged, single, "{op} shard merge must be byte-identical");
        }
        for addr in &addrs {
            query_batch(addr, &[r#"{"id":9,"op":"shutdown"}"#.to_string()]).unwrap();
        }
        for h in handles {
            h.join().unwrap().unwrap();
        }
    }

    /// `--precision` stamping: added when absent, never overrides an
    /// explicit field, and the stamped request evaluates at the new width.
    #[test]
    fn query_precision_stamping() {
        let plain = r#"{"id":1,"op":"engine","engine":"OPT4E[EN-T]"}"#;
        let stamped = stamp_precision(plain, "W4");
        assert_eq!(
            stamped,
            r#"{"id":1,"op":"engine","engine":"OPT4E[EN-T]","precision":"W4"}"#
        );
        let explicit = r#"{"id":1,"op":"engine","engine":"OPT4E[EN-T]","precision":"W16"}"#;
        assert_eq!(stamp_precision(explicit, "W4"), explicit);
        let cache = EngineCache::new();
        let resp = answer_locally(&[stamped], &cache);
        assert!(resp[0].contains("@W4\""), "{}", resp[0]);
    }
}
