//! The `repro serve` protocol: a std-only TCP/NDJSON batch query server
//! over the canonical evaluator and the process-wide cache.
//!
//! ## Wire format
//!
//! Newline-delimited JSON both ways: one flat JSON object per line in,
//! one (or, for batch ops, several) per line out, responses in request
//! order. A connection is a batch; clients may stream any number of
//! requests and close (or half-close) when done. Requests:
//!
//! ```text
//! {"id":1,"op":"engine","engine":"OPT4E[EN-T]/28nm@2.00GHz"}
//! {"id":2,"op":"layer","engine":"OPT3[EN-T]","m":64,"n":3136,"k":576,"repeats":1,"seed":42}
//! {"id":3,"op":"model","engine":"OPT4E[EN-T]","model":"ResNet18","seed":42}
//! {"id":4,"op":"engine","engine":"OPT4E[EN-T]","precision":"W4"}
//! {"id":5,"op":"roster"}
//! {"id":6,"op":"stats"}
//! {"id":7,"op":"metrics"}
//! {"id":8,"op":"metrics","format":"prometheus"}
//! {"id":9,"op":"shutdown"}
//! ```
//!
//! The `engine`/`layer`/`model` ops accept an optional `"precision"`
//! field (`"W4"` / `"W8"` / `"W16"` / `"W8xW4"`, or the generic
//! `"W{a}xW{b}a{acc}"` form): the engine is then priced and scheduled at
//! that operand precision, and response labels carry the `@W…` suffix.
//! Omitting it keeps the paper's W8 — byte-identical to the
//! pre-precision protocol.
//!
//! The same ops accept an optional `"memory"` field naming a
//! [`crate::MemorySpec`] corner (`"edge"` / `"mobile"` / `"hbm"`, or
//! `"unbounded"` explicitly): scheduling then bounds each layer by the
//! corner's roofline, response labels carry the `@corner` suffix, and
//! `layer`/`model` bodies append a `bytes_moved` /
//! `intensity_ops_per_byte` / `bound` group. Omitting it (or naming
//! `unbounded`) keeps the memory-free model — byte-identical to the
//! pre-memory protocol.
//!
//! Deployments can extend the op set through [`BatchOps`]: the `repro`
//! binary attaches `tpe-dse`'s `sweep`/`pareto` ops, which answer one
//! request with a summary line plus optional per-design-point lines
//! (each carrying `"points_follow"` so clients know how many extra lines
//! to read — [`query_batch`] does this automatically).
//!
//! Responses echo the `id` and carry `"ok":true` plus op-specific fields,
//! or `"ok":false` with an `"error"` string. All numeric fields render at
//! fixed precision, so a given request line maps to exactly one response
//! byte sequence — **batched responses are byte-identical to sequential
//! single-query responses** (property-tested), because every evaluation is
//! a deterministic function of the request (seeds are per-request, never
//! per-connection).
//!
//! ## Concurrency
//!
//! A bounded worker pool ([`ServeConfig::threads`], default one per core)
//! is shared by every connection. Each connection pipelines: its reader
//! parses lines in order and submits them to the pool, up to
//! [`ServeConfig::max_inflight`] outstanding at once; workers evaluate
//! concurrently; a per-connection writer reassembles completed responses
//! **in request order** before they touch the socket. Reordering can
//! therefore never be observed on the wire — on a 1-core box the pool
//! proves ordering rather than speedup, and the batched==sequential
//! byte-identity property holds at any pool size. A request whose
//! evaluation panics is answered with an `"ok":false` internal error; its
//! worker survives, so one request cannot shrink the pool.
//!
//! All connections evaluate through the same [`EngineCache`], so a mixed
//! batch converges to all-hit steady state no matter how clients shard
//! their queries. `repro serve` bounds that cache at
//! [`SERVE_CACHE_ENTRIES_PER_MAP`] entries per map, so a client sending
//! ever-new requests cannot grow the server's memory: a full shard evicts
//! by second chance, and an evicted entry is recomputed bit-identically
//! when it is asked for again.
//!
//! ## Observability
//!
//! Every run records into a [`ServeObs`] bundle of `tpe-obs` metrics
//! ([`ServeObs::global`] for the process-wide registry, or an isolated
//! one for exact-count tests): per-op request counters,
//! queue-wait vs evaluation latency histograms, an in-flight gauge, and
//! counters for drained / over-long / non-UTF-8 / unparseable lines.
//! The `metrics` op snapshots the registry of the server's [`ServeObs`]
//! (`repro serve` passes the global one, so it reports the
//! process-wide registry) — with the serving cache's counters folded in
//! — as a flat JSON object, or as Prometheus text exposition with
//! `"format":"prometheus"`. A server over an isolated registry thus
//! reports its own `serve_*` counters; the evaluator, dse-slice and
//! snapshot instruments still record into the global registry, so its
//! reply carries `serve_*` plus the folded `cache_*` only. Histograms
//! travel as log2 bucket-count CSVs, so clients can diff two snapshots
//! and compute windowed percentiles server-side data alone. The `stats` op
//! additionally reports `since_*` cache-counter deltas over its own
//! polling window plus process uptime (minus an optional caller-supplied
//! monotonic `origin`). Both read one list of cache fields,
//! [`cache_fields`]: `stats` renders it and `metrics` folds it in as
//! `cache_…` counters and gauges, so a field the two share reports one
//! value. Both report each map's entries and evictions
//! (`{records,prices,cycles,models}_{entries,evictions}` in `stats`,
//! `cache_…` gauges and counters in `metrics`); the older
//! `priced_entries`/`cycle_entries`/`model_entries` names (and their
//! `cache_…` gauges) are aliases of the `records`, `cycles` and `models`
//! counts, kept while existing clients still read them. Both ops are stateful
//! views of a running server, so — unlike every evaluation op — their
//! bytes are not replayable; they are deliberately excluded from the
//! byte-identity properties.
//!
//! ## Limits and lifecycle
//!
//! Request lines longer than [`ServeConfig::max_line_bytes`] are answered
//! with an error and the connection is closed (there is no way to resync
//! mid-line). A `shutdown` request stops the listener **the moment it is
//! parsed** (a slow client cannot postpone it by holding its connection
//! open) and then **drains gracefully**: in-flight work on every
//! connection finishes, and lines that follow the shutdown request *in
//! the same batch* are each answered with
//! `"ok":false,"error":"server draining"` (ids echoed) instead of being
//! silently dropped — for a bounded window (~5 s), so a peer trickling
//! lines forever cannot pin the drain either.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Instant;

use tpe_obs::{Counter, Gauge, Histogram, Registry};
use tpe_workloads::{LayerShape, NetworkModel};

use crate::cache::{cache_fields, EngineCache};
use crate::caps::CycleModel;
use crate::eval::Evaluator;
use crate::roster;
use crate::workload::SweepWorkload;

/// Default seed for sampled evaluations when a request omits `"seed"` —
/// the same default every `repro` experiment uses.
pub const DEFAULT_SEED: u64 = 42;

/// Entries per cache map `repro serve` keeps ([`EngineCache::bounded`]:
/// 256 per shard × 16 shards). Eight times the working set of the
/// repository's mixed serving traffic, so a warm mix never evicts, while a
/// stream of ever-new `layer` requests holds the server's memory flat.
pub const SERVE_CACHE_ENTRIES_PER_MAP: usize = 4096;

/// A parsed flat JSON value (the protocol never nests).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string.
    Str(String),
    /// Any JSON number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Parses one flat JSON object (`{"key": value, ...}`; string / number /
/// bool / null values only — the protocol is deliberately nesting-free).
pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    let skip_ws = |pos: &mut usize| {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    };
    let parse_string = |pos: &mut usize| -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = line.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|e| format!("\\u: {e}"))?;
                            *pos += 4;
                            // Standard JSON encodes non-BMP characters as
                            // UTF-16 surrogate pairs (🔥).
                            let scalar = if (0xD800..0xDC00).contains(&code) {
                                if line.get(*pos + 1..*pos + 3) != Some("\\u") {
                                    return Err("high surrogate without a low surrogate".into());
                                }
                                let hex2 =
                                    line.get(*pos + 3..*pos + 7).ok_or("truncated \\u escape")?;
                                let low = u32::from_str_radix(hex2, 16)
                                    .map_err(|e| format!("\\u: {e}"))?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("invalid low surrogate".into());
                                }
                                *pos += 6;
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(scalar).ok_or("\\u escape is not a scalar value")?,
                            );
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let s = &line[*pos..];
                    let c = s.chars().next().ok_or("bad utf-8")?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    };

    skip_ws(&mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Err("expected `{`".into());
    }
    pos += 1;
    let mut map = BTreeMap::new();
    skip_ws(&mut pos);
    if bytes.get(pos) == Some(&b'}') {
        return Ok(map);
    }
    loop {
        skip_ws(&mut pos);
        let key = parse_string(&mut pos)?;
        skip_ws(&mut pos);
        if bytes.get(pos) != Some(&b':') {
            return Err(format!("expected `:` after key {key:?}"));
        }
        pos += 1;
        skip_ws(&mut pos);
        let value = match bytes.get(pos) {
            Some(b'"') => JsonValue::Str(parse_string(&mut pos)?),
            Some(b't') if line[pos..].starts_with("true") => {
                pos += 4;
                JsonValue::Bool(true)
            }
            Some(b'f') if line[pos..].starts_with("false") => {
                pos += 5;
                JsonValue::Bool(false)
            }
            Some(b'n') if line[pos..].starts_with("null") => {
                pos += 4;
                JsonValue::Null
            }
            Some(b'{') | Some(b'[') => {
                return Err("nested values are not part of the protocol".into())
            }
            Some(_) => {
                let start = pos;
                while pos < bytes.len()
                    && matches!(bytes[pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    pos += 1;
                }
                let num: f64 = line[start..pos]
                    .parse()
                    .map_err(|e| format!("bad number {:?}: {e}", &line[start..pos]))?;
                JsonValue::Num(num)
            }
            None => return Err("truncated object".into()),
        };
        map.insert(key, value);
        skip_ws(&mut pos);
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => {
                pos += 1;
                break;
            }
            other => return Err(format!("expected `,` or `}}`, got {other:?}")),
        }
    }
    skip_ws(&mut pos);
    if pos != bytes.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(map)
}

/// JSON string-content escaping for response fields.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Best-effort recovery of a request's `"id"` from a line that failed to
/// parse as a flat object: a lenient scan for an `"id"` key followed by a
/// run of digits, so pipelined clients can still correlate the error
/// response with the request that caused it. Returns 0 when nothing
/// id-shaped is found (the historical behavior).
pub fn recover_id(line: &str) -> u64 {
    let bytes = line.as_bytes();
    let Some(pos) = line.find("\"id\"") else {
        return 0;
    };
    let mut i = pos + 4;
    while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    if bytes.get(i) != Some(&b':') {
        return 0;
    }
    i += 1;
    while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    let start = i;
    while bytes.get(i).is_some_and(u8::is_ascii_digit) {
        i += 1;
    }
    line[start..i].parse().unwrap_or(0)
}

/// The id of a request line, whether or not it parses: the parsed `"id"`
/// field when the object is well-formed, a [`recover_id`] scan otherwise.
fn request_id(line: &str) -> u64 {
    match parse_flat_object(line) {
        Ok(map) => Fields(map).uint_or("id", 0).unwrap_or(0),
        Err(_) => recover_id(line),
    }
}

/// Renders the standard error envelope.
fn error_line(id: u64, error: &str) -> String {
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":\"{}\"}}",
        json_escape(error)
    )
}

/// Typed field access over a parsed request object, shared with
/// [`BatchOps`] extensions.
pub struct Fields(pub BTreeMap<String, JsonValue>);

impl Fields {
    /// A required string field.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        match self.0.get(key) {
            Some(JsonValue::Str(s)) => Ok(s),
            Some(_) => Err(format!("field `{key}` must be a string")),
            None => Err(format!("missing field `{key}`")),
        }
    }

    /// An optional string field (`Ok(None)` when absent).
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        match self.0.get(key) {
            Some(JsonValue::Str(s)) => Ok(Some(s)),
            Some(_) => Err(format!("field `{key}` must be a string")),
            None => Ok(None),
        }
    }

    /// A required non-negative integer field.
    pub fn uint(&self, key: &str) -> Result<u64, String> {
        match self.0.get(key) {
            Some(JsonValue::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Ok(*n as u64)
            }
            Some(_) => Err(format!("field `{key}` must be a non-negative integer")),
            None => Err(format!("missing field `{key}`")),
        }
    }

    /// A non-negative integer field with a default.
    pub fn uint_or(&self, key: &str, default: u64) -> Result<u64, String> {
        if self.0.contains_key(key) {
            self.uint(key)
        } else {
            Ok(default)
        }
    }

    /// A boolean field with a default.
    pub fn bool_or(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.0.get(key) {
            Some(JsonValue::Bool(b)) => Ok(*b),
            Some(_) => Err(format!("field `{key}` must be a boolean")),
            None => Ok(default),
        }
    }
}

/// Server-side batch-op extensions (the `sweep`/`pareto` ops live in
/// `tpe-dse`, which sits above this crate, so the serve loop takes them
/// as a capability instead of depending upward).
///
/// One request may answer with **several** response lines (a summary plus
/// per-point lines); every returned body is wrapped in the standard
/// `{"id":N,"ok":true,…}` envelope and written contiguously, in order.
/// Extensions must be deterministic functions of (request, cache-agnostic
/// inputs) to preserve the batched==sequential byte-identity property.
pub trait BatchOps: Sync {
    /// Handles `op`, returning `None` when this extension does not define
    /// it, `Some(Ok(bodies))` with one or more response bodies (without
    /// the `id`/`ok` envelope), or `Some(Err(message))`.
    fn handle(
        &self,
        op: &str,
        fields: &Fields,
        cache: &EngineCache,
    ) -> Option<Result<Vec<String>, String>>;

    /// `|`-prefixed op names appended to the unknown-op error message
    /// (e.g. `"|sweep|pareto"`). Returns `String` so wrappers like
    /// [`SnapshotOps`] can compose their inner extension's names.
    fn op_names(&self) -> String {
        String::new()
    }
}

/// The empty extension set: the built-in ops only.
pub struct NoOps;

impl BatchOps for NoOps {
    fn handle(
        &self,
        _op: &str,
        _fields: &Fields,
        _cache: &EngineCache,
    ) -> Option<Result<Vec<String>, String>> {
        None
    }
}

/// Wraps an extension set with a `snapshot` op that persists the serve
/// cache to a fixed server-chosen path (the `repro serve
/// --cache-snapshot` wiring): `{"id":1,"op":"snapshot"}` answers
/// `"op":"snapshot","path":…,"entries":N,"bytes":M` after an atomic
/// [`crate::snapshot::save`]. The path is server configuration, not a
/// request field — a client must never choose where the server writes.
pub struct SnapshotOps<'a> {
    inner: &'a dyn BatchOps,
    path: std::path::PathBuf,
}

impl<'a> SnapshotOps<'a> {
    /// Wraps `inner`, saving on `snapshot` requests to `path`.
    pub fn new(inner: &'a dyn BatchOps, path: impl Into<std::path::PathBuf>) -> Self {
        Self {
            inner,
            path: path.into(),
        }
    }
}

impl BatchOps for SnapshotOps<'_> {
    fn handle(
        &self,
        op: &str,
        fields: &Fields,
        cache: &EngineCache,
    ) -> Option<Result<Vec<String>, String>> {
        if op != "snapshot" {
            return self.inner.handle(op, fields, cache);
        }
        Some(crate::snapshot::save(cache, &self.path).map(|info| {
            vec![format!(
                "\"op\":\"snapshot\",\"path\":\"{}\",\"entries\":{},\"bytes\":{}",
                json_escape(&self.path.display().to_string()),
                info.entries,
                info.bytes
            )]
        }))
    }

    fn op_names(&self) -> String {
        format!("{}|snapshot", self.inner.op_names())
    }
}

/// Handles one request line against `cache`, returning the response line
/// (no trailing newline) and whether the request asked for shutdown.
/// Built-in ops only (the multi-line capable generalization is
/// [`handle_request`]).
pub fn handle_line(line: &str, cache: &EngineCache) -> (String, bool) {
    let (lines, is_shutdown) = handle_request(line, cache, &NoOps);
    (lines.join("\n"), is_shutdown)
}

/// Handles one request line against `cache` with `ops` extensions,
/// returning the response lines (one for built-in ops, possibly several
/// for batch ops; no trailing newlines) and whether the request asked for
/// shutdown. Requests default to the sampled cycle model, and the
/// `metrics` op reads the process-wide registry; see
/// [`handle_request_classified`] for a server-level default and registry.
pub fn handle_request(line: &str, cache: &EngineCache, ops: &dyn BatchOps) -> (Vec<String>, bool) {
    let (lines, is_shutdown, _) =
        handle_request_classified(line, cache, ops, CycleModel::Sampled, Registry::global());
    (lines, is_shutdown)
}

/// How a request line classifies for per-op accounting — a byproduct of
/// the handler's single parse, so the serve hot path never re-parses a
/// line just to tick counters (feed it to [`ServeObs::record_class`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// A known op: index into [`COUNTED_OPS`].
    Counted(usize),
    /// Parsed fine, but the op is unknown, extension-defined, or missing.
    Other,
    /// The line failed JSON parsing.
    Malformed,
}

/// [`handle_request`] with a server-level default [`CycleModel`]
/// ([`ServeConfig::cycle_model`]) and registry, additionally returning
/// the line's [`RequestClass`] from the same parse that evaluated it.
/// Requests that do not spell a `cycle_model` field evaluate under
/// `default_model`; an explicit field always wins. The default is
/// injected as if the client had sent the field, so built-in ops and
/// batch-op extensions see one consistent request. The `metrics` op
/// snapshots `registry` — the serving instance's own (see
/// [`ServeObs::registry`]); [`handle_request`] passes
/// [`Registry::global`].
pub fn handle_request_classified(
    line: &str,
    cache: &EngineCache,
    ops: &dyn BatchOps,
    default_model: CycleModel,
    registry: &Registry,
) -> (Vec<String>, bool, RequestClass) {
    let fields = match parse_flat_object(line) {
        Ok(map) => Fields(map),
        Err(e) => {
            return (
                vec![error_line(recover_id(line), &e)],
                false,
                RequestClass::Malformed,
            )
        }
    };
    let mut fields = fields;
    if default_model != CycleModel::Sampled && !fields.0.contains_key("cycle_model") {
        fields.0.insert(
            "cycle_model".into(),
            JsonValue::Str(default_model.name().into()),
        );
    }
    let fields = fields;
    let class = match fields.0.get("op") {
        Some(JsonValue::Str(op)) => COUNTED_OPS
            .iter()
            .position(|o| o == op)
            .map_or(RequestClass::Other, RequestClass::Counted),
        _ => RequestClass::Other,
    };
    let id = fields.uint_or("id", 0).unwrap_or(0);
    match respond(&fields, cache, ops, registry) {
        Ok((bodies, is_shutdown)) => (
            bodies
                .into_iter()
                .map(|body| format!("{{\"id\":{id},\"ok\":true,{body}}}"))
                .collect(),
            is_shutdown,
            class,
        ),
        Err(e) => (vec![error_line(id, &e)], false, class),
    }
}

/// The op-specific response bodies (without the `id`/`ok` envelope);
/// `metrics` snapshots `registry`.
fn respond(
    fields: &Fields,
    cache: &EngineCache,
    ops: &dyn BatchOps,
    registry: &Registry,
) -> Result<(Vec<String>, bool), String> {
    let cycle_model = resolve_cycle_model(fields)?;
    let eval = Evaluator::new(cache).with_cycle_model(cycle_model);
    // Echoed in cycle-bearing bodies only when non-default, so every
    // sampled-mode response stays byte-identical to the pre-mode wire
    // format.
    let cycle_tag = match cycle_model {
        CycleModel::Sampled => String::new(),
        CycleModel::Analytic => ",\"cycle_model\":\"analytic\"".into(),
    };
    let op = fields.str("op")?;
    let one = |body: String| Ok((vec![body], false));
    match op {
        "engine" => {
            let spec = resolve_engine(fields)?;
            let head = format!("\"op\":\"engine\",\"engine\":\"{}\"", json_escape(&spec.label()));
            let body = match eval.price(&spec) {
                Some(p) => format!(
                    "{head},\"feasible\":true,\
                     \"area_um2\":{:.3},\"e_active_fj\":{:.4},\"e_idle_fj\":{:.4},\
                     \"instances\":{:.0},\"lanes_total\":{:.0},\"peak_tops\":{:.4}",
                    p.area_um2,
                    p.e_active_fj,
                    p.e_idle_fj,
                    p.instances,
                    p.lanes_total,
                    p.peak_tops
                ),
                None => format!("{head},\"feasible\":false"),
            };
            one(body)
        }
        "layer" => {
            let spec = resolve_engine(fields)?;
            let m = fields.uint("m")? as usize;
            let n = fields.uint("n")? as usize;
            let k = fields.uint("k")? as usize;
            if m == 0 || n == 0 || k == 0 {
                return Err("layer dimensions must be positive".into());
            }
            let repeats = fields.uint_or("repeats", 1)?.max(1) as usize;
            let seed = fields.uint_or("seed", DEFAULT_SEED)?;
            let name = match fields.0.get("workload") {
                Some(JsonValue::Str(s)) => s.clone(),
                Some(_) => return Err("field `workload` must be a string".into()),
                None => format!("{m}x{n}x{k}r{repeats}"),
            };
            let layer = LayerShape::new(&name, m, n, k, repeats);
            layer.validate().map_err(|e| e.to_string())?;
            let workload = SweepWorkload::Layer(layer);
            let head = format!(
                "\"op\":\"layer\",\"engine\":\"{}\",\"workload\":\"{}\",\"seed\":{seed}{cycle_tag}",
                json_escape(&spec.label()),
                json_escape(&name)
            );
            let body = match eval.metrics(&spec, &workload, seed) {
                Some(mt) => format!(
                    "{head},\"feasible\":true,{}",
                    metrics_body(&mt, !spec.memory.is_unbounded())
                ),
                None => format!("{head},\"feasible\":false"),
            };
            one(body)
        }
        "model" => {
            let spec = resolve_engine(fields)?;
            let model_name = fields.str("model")?;
            let seed = fields.uint_or("seed", DEFAULT_SEED)?;
            let net = NetworkModel::find(model_name)
                .ok_or_else(|| format!("unknown model `{model_name}`"))?;
            let head = format!(
                "\"op\":\"model\",\"engine\":\"{}\",\"model\":\"{}\",\"seed\":{seed}{cycle_tag}",
                json_escape(&spec.label()),
                json_escape(&net.name)
            );
            // Only the totals are rendered: the model map answers, and no
            // per-layer row is built or kept.
            let body = match eval.model_totals(&spec, net, seed) {
                Some(r) => {
                    let mut body = format!(
                        "{head},\
                         \"feasible\":true,\"layers\":{},\"macs\":{},\"cycles\":{:.0},\
                         \"delay_us\":{:.4},\"energy_uj\":{:.6},\"gops\":{:.3},\
                         \"peak_tops\":{:.4},\"utilization\":{:.5},\"power_w\":{:.5},\
                         \"tops_per_w\":{:.4},\"area_um2\":{:.3}",
                        net.layers.len(),
                        r.total_macs,
                        r.cycles,
                        r.delay_us,
                        r.energy_uj,
                        r.throughput_gops(),
                        r.peak_tops,
                        r.utilization,
                        r.power_w(),
                        r.tops_per_w(),
                        r.area_um2
                    );
                    // As in `metrics_body`: the roofline group appends
                    // only under a finite memory corner, keeping
                    // default-corner responses byte-identical to the
                    // pre-memory wire format.
                    if !spec.memory.is_unbounded() {
                        body.push_str(&format!(
                            ",\"bytes_moved\":{:.0},\"intensity_ops_per_byte\":{:.4},\
                             \"bound\":\"{}\"",
                            r.bytes_moved,
                            r.intensity_ops_per_byte,
                            r.bound.label()
                        ));
                    }
                    body
                }
                None => format!("{head},\"feasible\":false"),
            };
            one(body)
        }
        "roster" => {
            let names: Vec<String> = roster::names()
                .iter()
                .map(|n| format!("\"{}\"", json_escape(n)))
                .collect();
            one(format!(
                "\"op\":\"roster\",\"engines\":[{}]",
                names.join(",")
            ))
        }
        "stats" => {
            let origin = fields.uint_or("origin", 0)?;
            let (now, window) = (cache.stats(), cache.window_delta());
            let mut body = format!(
                "\"op\":\"stats\",\"hit_rate\":{:.4},\"since_hit_rate\":{:.4},\"uptime_ms\":{}",
                now.hit_rate(),
                window.hit_rate(),
                tpe_obs::uptime_ms().saturating_sub(origin)
            );
            for (name, value) in cache_fields(&now, Some(&window), cache.occupancy()) {
                body.push_str(&format!(",\"{name}\":{value}"));
            }
            one(body)
        }
        "metrics" => {
            let mut snap = registry.snapshot();
            for (name, value) in cache_fields(&cache.stats(), None, cache.occupancy()) {
                if name.ends_with("_entries") {
                    snap.set_gauge(&format!("cache_{name}"), value as i64);
                } else {
                    snap.set_counter(&format!("cache_{name}"), value);
                }
            }
            match fields.opt_str("format")? {
                Some("prometheus") => one(format!(
                    "\"op\":\"metrics\",\"format\":\"prometheus\",\"text\":\"{}\"",
                    json_escape(&snap.render_prometheus("tpe"))
                )),
                None | Some("json") => one(metrics_snapshot_body(&snap)),
                Some(other) => Err(format!(
                    "unknown metrics format `{other}` (expected json|prometheus)"
                )),
            }
        }
        "shutdown" => Ok((vec!["\"op\":\"shutdown\"".into()], true)),
        other => match ops.handle(other, fields, cache) {
            Some(Ok(bodies)) => Ok((bodies, false)),
            Some(Err(e)) => Err(e),
            None => Err(format!(
                "unknown op `{other}` (expected engine|layer|metrics|model|roster|stats|shutdown{})",
                ops.op_names()
            )),
        },
    }
}

/// Renders a registry snapshot as the `metrics` op's flat JSON body:
/// `ctr_<name>` / `gauge_<name>` scalars plus, per histogram,
/// `hist_<name>_{count,sum,max,p50,p90,p99}` and the raw log2 bucket
/// counts as a trailing-zero-trimmed CSV string (`hist_<name>_buckets`) —
/// enough for a client to rebuild the [`tpe_obs::HistogramSnapshot`] and
/// diff two polls into windowed percentiles.
fn metrics_snapshot_body(snap: &tpe_obs::Snapshot) -> String {
    let mut body = format!("\"op\":\"metrics\",\"uptime_ms\":{}", tpe_obs::uptime_ms());
    for (name, v) in snap.counters() {
        body.push_str(&format!(",\"ctr_{name}\":{v}"));
    }
    for (name, v) in snap.gauges() {
        body.push_str(&format!(",\"gauge_{name}\":{v}"));
    }
    for (name, h) in snap.histograms() {
        let trimmed = h.buckets.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
        let csv = h.buckets[..trimmed]
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        body.push_str(&format!(
            ",\"hist_{name}_count\":{},\"hist_{name}_sum\":{},\"hist_{name}_max\":{},\
             \"hist_{name}_p50\":{},\"hist_{name}_p90\":{},\"hist_{name}_p99\":{},\
             \"hist_{name}_buckets\":\"{csv}\"",
            h.count(),
            h.sum,
            h.max,
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99)
        ));
    }
    body
}

/// Resolves the request's engine: the `engine` label (which may itself
/// carry `@W4`-style precision and `@edge`-style memory suffixes),
/// overridden by the optional `precision` and `memory` fields when
/// present — so clients can sweep either axis without re-spelling labels.
fn resolve_engine(fields: &Fields) -> Result<crate::EngineSpec, String> {
    let name = fields.str("engine")?;
    let mut spec = roster::find(name).ok_or_else(|| format!("unknown engine `{name}`"))?;
    match fields.0.get("precision") {
        None => {}
        Some(JsonValue::Str(p)) => match tpe_arith::Precision::parse(p) {
            Some(precision) => spec = spec.with_precision(precision),
            None => return Err(format!("unknown precision `{p}`")),
        },
        Some(_) => return Err("field `precision` must be a string".into()),
    }
    match fields.0.get("memory") {
        None => Ok(spec),
        Some(JsonValue::Str(m)) => roster::find_memory(m)
            .map(|memory| spec.with_memory(memory))
            .ok_or_else(|| format!("unknown memory corner `{m}`")),
        Some(_) => Err("field `memory` must be a string".into()),
    }
}

/// Resolves the request's serial-cycle backend from the optional
/// `cycle_model` field (`"sampled"` / `"analytic"`, case-insensitive);
/// absent means sampled — the historical wire behavior.
fn resolve_cycle_model(fields: &Fields) -> Result<CycleModel, String> {
    match fields.0.get("cycle_model") {
        None => Ok(CycleModel::Sampled),
        Some(JsonValue::Str(m)) => CycleModel::parse(m)
            .ok_or_else(|| format!("unknown cycle_model `{m}` (expected sampled|analytic)")),
        Some(_) => Err("field `cycle_model` must be a string".into()),
    }
}

fn metrics_body(m: &crate::Metrics, roofline: bool) -> String {
    let mut body = format!(
        "\"area_um2\":{:.3},\"delay_us\":{:.4},\"energy_uj\":{:.6},\"fj_per_mac\":{:.4},\
         \"gops\":{:.3},\"peak_tops\":{:.4},\"utilization\":{:.5},\"power_w\":{:.5}",
        m.area_um2,
        m.delay_us,
        m.energy_uj,
        m.energy_per_mac_fj,
        m.throughput_gops,
        m.peak_tops,
        m.utilization,
        m.power_w
    );
    // The roofline group appends only under a finite memory corner (the
    // label already spells which one), so default-corner responses stay
    // byte-identical to the pre-memory wire format.
    if roofline {
        body.push_str(&format!(
            ",\"bytes_moved\":{:.0},\"intensity_ops_per_byte\":{:.4},\"bound\":\"{}\"",
            m.bytes_moved,
            m.intensity_ops_per_byte,
            m.bound.label()
        ));
    }
    body
}

/// Ops with dedicated `serve_op_<name>` request counters, in name order.
/// Anything else — unknown ops, a missing `op` field, unparseable lines —
/// counts under `serve_op_other`.
pub const COUNTED_OPS: [&str; 11] = [
    "engine", "fleet", "layer", "metrics", "model", "pareto", "roster", "shutdown", "snapshot",
    "stats", "sweep",
];

/// Shared handles to the serve layer's metrics, resolved once per run,
/// plus the [`Registry`] they live in: a server's `metrics` op snapshots
/// that registry, so an instance over an isolated registry reports its
/// own counters on the wire, never another server's.
///
/// Workers record per-op counters and the queue-wait/eval histograms
/// *before* sending each reply toward the socket — so a `metrics`
/// response never includes its own request, and a client that has read
/// a response knows the counters already cover it. Hot-path cost is a
/// handful of relaxed atomic RMWs per request: op classification rides
/// on the handler's own parse ([`RequestClass`]), never a second one.
#[derive(Debug)]
pub struct ServeObs<'r> {
    /// The registry the handles below were resolved in; the `metrics`
    /// op snapshots it.
    pub registry: &'r Registry,
    /// `serve_op_<name>` request counters, indexed as [`COUNTED_OPS`].
    pub op_requests: [Arc<Counter>; COUNTED_OPS.len()],
    /// `serve_op_other`: pool-processed requests with an unknown or
    /// missing op, or an unparseable line.
    pub other_requests: Arc<Counter>,
    /// `serve_queue_wait_ns`: submit → worker-pickup latency.
    pub queue_wait_ns: Arc<Histogram>,
    /// `serve_eval_ns`: per-request worker evaluation time.
    pub eval_ns: Arc<Histogram>,
    /// `serve_inflight`: requests submitted to the pool, not yet answered.
    pub inflight: Arc<Gauge>,
    /// `serve_connections`: connections accepted.
    pub connections: Arc<Counter>,
    /// `serve_drained_requests`: lines answered `server draining` after a
    /// shutdown request in the same batch.
    pub drained_requests: Arc<Counter>,
    /// `serve_overlong_lines`: lines over [`ServeConfig::max_line_bytes`].
    pub overlong_lines: Arc<Counter>,
    /// `serve_utf8_errors`: request lines that were not valid UTF-8.
    pub utf8_errors: Arc<Counter>,
    /// `serve_parse_errors`: pool-processed lines that failed JSON
    /// parsing (a subset of `serve_op_other`).
    pub parse_errors: Arc<Counter>,
}

impl<'r> ServeObs<'r> {
    /// Registers (or re-resolves) the serve metrics in `registry`, and
    /// keeps `registry` as the one the `metrics` op reports.
    pub fn in_registry(registry: &'r Registry) -> Self {
        Self {
            registry,
            op_requests: std::array::from_fn(|i| {
                registry.counter(&format!("serve_op_{}", COUNTED_OPS[i]))
            }),
            other_requests: registry.counter("serve_op_other"),
            queue_wait_ns: registry.histogram("serve_queue_wait_ns"),
            eval_ns: registry.histogram("serve_eval_ns"),
            inflight: registry.gauge("serve_inflight"),
            connections: registry.counter("serve_connections"),
            drained_requests: registry.counter("serve_drained_requests"),
            overlong_lines: registry.counter("serve_overlong_lines"),
            utf8_errors: registry.counter("serve_utf8_errors"),
            parse_errors: registry.counter("serve_parse_errors"),
        }
    }

    /// The process-wide instance, over [`Registry::global`].
    pub fn global() -> &'static ServeObs<'static> {
        static OBS: OnceLock<ServeObs<'static>> = OnceLock::new();
        OBS.get_or_init(|| ServeObs::in_registry(Registry::global()))
    }

    /// The request counter for one of the [`COUNTED_OPS`], if listed.
    pub fn op_counter(&self, op: &str) -> Option<&Counter> {
        COUNTED_OPS
            .iter()
            .position(|o| *o == op)
            .map(|i| &*self.op_requests[i])
    }

    /// Ticks the per-op counters for one classified request (the class is
    /// a byproduct of the handler's parse — see [`RequestClass`]; parse
    /// failures also tick `serve_parse_errors`).
    pub fn record_class(&self, class: RequestClass) {
        match class {
            RequestClass::Counted(i) => self.op_requests[i].inc(),
            RequestClass::Other => self.other_requests.inc(),
            RequestClass::Malformed => {
                self.parse_errors.inc();
                self.other_requests.inc();
            }
        }
    }
}

/// Operational limits and pool sizing for one [`serve`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads evaluating requests; 0 means one per available core.
    pub threads: usize,
    /// Maximum accepted request-line length in bytes (newline excluded).
    /// Longer lines are answered with an error and the connection closes.
    pub max_line_bytes: usize,
    /// Maximum requests a single connection may have in flight (submitted
    /// to the pool but not yet written back); the reader blocks past this.
    pub max_inflight: usize,
    /// Server-level default serial-cycle backend for requests that do not
    /// carry a `cycle_model` field (an explicit field always wins).
    pub cycle_model: CycleModel,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            max_line_bytes: 64 * 1024,
            max_inflight: 64,
            cycle_model: CycleModel::Sampled,
        }
    }
}

/// What one [`serve`] run handled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Connections accepted.
    pub connections: u64,
    /// Request lines answered.
    pub requests: u64,
    /// Worker-pool threads the run evaluated on.
    pub workers: usize,
}

/// One pipelined request: the raw line, its position in the connection's
/// response order, the channel its responses return on, and its
/// submission instant (queue-wait = submit → worker pickup).
struct Job {
    line: String,
    seq: u64,
    reply: mpsc::Sender<Reply>,
    submitted: Instant,
}

/// (sequence number, response lines).
type Reply = (u64, Vec<String>);

/// Runs the serve loop on `listener` until a `shutdown` request arrives:
/// a shared bounded worker pool, per-connection request pipelining with
/// in-order response reassembly, and `ops` batch-op extensions. Blocks
/// the calling thread; on shutdown the listener stops accepting and every
/// in-flight connection drains before this returns.
///
/// The run records into `obs` — [`ServeObs::global`] for the
/// process-wide registry, or an isolated [`Registry`]'s handles so
/// concurrent servers cannot pollute each other's counters; the
/// `metrics` op snapshots that bundle's [`ServeObs::registry`], so the
/// counters on the wire are this server's own. The optional
/// `after_request` hook is called by the answering worker after each
/// reply is sent toward the socket with the total requests handled so
/// far (1-based, monotonic across the run). This is how
/// `--snapshot-every N` piggybacks periodic cache saves on the serve
/// loop without a timer thread; the hook runs on a pool worker, so it
/// must be cheap or rare.
pub fn serve(
    listener: TcpListener,
    cache: &EngineCache,
    ops: &dyn BatchOps,
    config: ServeConfig,
    obs: &ServeObs<'_>,
    after_request: Option<&(dyn Fn(u64) + Sync)>,
) -> std::io::Result<ServeOutcome> {
    let local = listener.local_addr()?;
    let handled = AtomicU64::new(0);
    let workers = crate::effective_threads(config.threads);
    let shutdown = AtomicBool::new(false);
    let connections = AtomicU64::new(0);
    let requests = AtomicU64::new(0);
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Mutex::new(job_rx);
    std::thread::scope(|scope| {
        // The pool: workers claim jobs until the channel closes, which
        // happens only after the accept loop exits *and* every connection
        // thread (each holding a sender clone) has drained — so shutdown
        // finishes in-flight work before the pool winds down.
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = job_rx.lock().expect("serve pool poisoned").recv();
                let Ok(Job {
                    line,
                    seq,
                    reply,
                    submitted,
                }) = job
                else {
                    break;
                };
                // Shutdown is signaled by the connection reader at parse
                // time (see `handle_connection`), so the worker only
                // evaluates and answers.
                obs.queue_wait_ns.record_duration(submitted.elapsed());
                let eval_start = Instant::now();
                // A panicking request answers with a typed error instead of
                // killing its worker (and the scope re-raising at shutdown).
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_request_classified(&line, cache, ops, config.cycle_model, obs.registry)
                }));
                let (lines, class) = match outcome {
                    Ok((lines, _, class)) => (lines, class),
                    Err(_) => {
                        let e = error_line(recover_id(&line), "internal error: request panicked");
                        (vec![e], RequestClass::Other)
                    }
                };
                // All metrics for this request land before its reply can
                // reach the socket: a client that has read response N
                // knows the counters cover requests 1..=N (and a
                // `metrics` snapshot taken mid-eval excludes itself).
                obs.eval_ns.record_duration(eval_start.elapsed());
                obs.record_class(class);
                obs.inflight.dec();
                // The connection may already be gone; its writer dropping
                // the receiver is the cancellation signal.
                let _ = reply.send((seq, lines));
                if let Some(hook) = after_request {
                    hook(handled.fetch_add(1, Ordering::Relaxed) + 1);
                }
            });
        }
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                // A failed accept (client reset mid-handshake, transient
                // fd exhaustion) must not take the server down; back off
                // briefly so a persistent error cannot hot-spin.
                Err(_) => {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    continue;
                }
            };
            connections.fetch_add(1, Ordering::Relaxed);
            obs.connections.inc();
            let (shutdown, requests, pool) = (&shutdown, &requests, job_tx.clone());
            scope.spawn(move || {
                // Fired by the reader the moment it *parses* a shutdown
                // request — the listener must stop accepting right away,
                // not when this connection eventually closes (a client
                // trickling post-shutdown lines could postpone that
                // indefinitely).
                let notify_shutdown = || {
                    shutdown.store(true, Ordering::SeqCst);
                    // Wake the accept loop so it observes the flag.
                    let _ = TcpStream::connect(local);
                };
                handle_connection(&stream, &pool, config, requests, obs, &notify_shutdown);
            });
        }
        // Close the socket now: connections the kernel would otherwise
        // keep accepting into the backlog during the drain get refused
        // instead of hanging unanswered.
        drop(listener);
        drop(job_tx);
    });
    Ok(ServeOutcome {
        connections: connections.load(Ordering::Relaxed),
        requests: requests.load(Ordering::Relaxed),
        workers,
    })
}

/// One read attempt against the length-limited line reader.
enum LineRead {
    /// A complete request line (newline stripped).
    Line(String),
    /// Clean end of stream.
    Eof,
    /// The line exceeds the configured byte limit; `partial` holds the
    /// prefix read so far (for id recovery).
    TooLong { partial: Vec<u8> },
    /// The line is not valid UTF-8; `bytes` holds it (for id recovery).
    Utf8Error { bytes: Vec<u8> },
}

/// Reads one `\n`-terminated line of at most `max` content bytes — the
/// limit excludes the terminator, whether `\n` or `\r\n` (reading up to
/// `max + 2` raw bytes lets a max-length CRLF line through; the content
/// check after stripping is what enforces the cap).
fn read_limited_line<R: BufRead>(reader: &mut R, max: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let n = std::io::Read::take(reader, max as u64 + 2).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > max {
        return Ok(LineRead::TooLong { partial: buf });
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(LineRead::Line(line)),
        Err(e) => Ok(LineRead::Utf8Error {
            bytes: e.into_bytes(),
        }),
    }
}

/// Whether a request line is a well-formed `shutdown` request — the exact
/// predicate [`handle_request`] answers `is_shutdown` for, evaluated at
/// parse time so the reader can start draining deterministically.
fn is_shutdown_request(line: &str) -> bool {
    line.contains("shutdown")
        && parse_flat_object(line)
            .ok()
            .is_some_and(|map| matches!(map.get("op"), Some(JsonValue::Str(s)) if s == "shutdown"))
}

/// Serves one connection over the shared pool.
///
/// The calling thread is the reader: it parses lines in request order and
/// submits each to the pool (bounded by [`ServeConfig::max_inflight`]
/// tokens), while a scoped writer thread reassembles completed responses
/// in sequence order onto the socket. Once a `shutdown` request is read,
/// every later line in the batch is answered with a `server draining`
/// error instead of being evaluated — identical bytes to what a
/// sequential server would produce, regardless of pool timing.
fn handle_connection(
    stream: &TcpStream,
    pool: &mpsc::Sender<Job>,
    config: ServeConfig,
    requests: &AtomicU64,
    obs: &ServeObs<'_>,
    notify_shutdown: &dyn Fn(),
) {
    let Ok(writer_stream) = stream.try_clone() else {
        return;
    };
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    let (token_tx, token_rx) = mpsc::sync_channel::<()>(config.max_inflight.max(1));
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || write_in_order(writer_stream, reply_rx, token_rx));
        let mut reader = BufReader::new(stream);
        let mut seq: u64 = 0;
        let mut drain_deadline: Option<std::time::Instant> = None;
        // Acquire an in-flight token per answered request; the writer
        // releases one per response written. An error means the writer
        // is gone (client stopped reading), so the batch is over.
        let answer_inline =
            |reply: Reply| -> bool { token_tx.send(()).is_ok() && reply_tx.send(reply).is_ok() };
        while let Ok(read) = read_limited_line(&mut reader, config.max_line_bytes) {
            match read {
                LineRead::Eof => break,
                LineRead::TooLong { partial } => {
                    // There is no way to resync mid-line: answer (with a
                    // best-effort id from the prefix) and close.
                    let id = recover_id(&String::from_utf8_lossy(&partial));
                    requests.fetch_add(1, Ordering::Relaxed);
                    obs.overlong_lines.inc();
                    answer_inline((
                        seq,
                        vec![error_line(
                            id,
                            &format!(
                                "request line exceeds max line bytes ({})",
                                config.max_line_bytes
                            ),
                        )],
                    ));
                    break;
                }
                LineRead::Utf8Error { bytes } => {
                    // Same id recovery as TooLong: the id is usually in
                    // the readable ASCII prefix.
                    let id = recover_id(&String::from_utf8_lossy(&bytes));
                    requests.fetch_add(1, Ordering::Relaxed);
                    obs.utf8_errors.inc();
                    answer_inline((seq, vec![error_line(id, "request line is not valid UTF-8")]));
                    break;
                }
                LineRead::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    requests.fetch_add(1, Ordering::Relaxed);
                    if let Some(deadline) = drain_deadline {
                        if std::time::Instant::now() >= deadline {
                            // A peer trickling lines forever must not pin
                            // the drain; the window is generous for any
                            // real client flushing its already-written
                            // batch.
                            break;
                        }
                        obs.drained_requests.inc();
                        if !answer_inline((
                            seq,
                            vec![error_line(request_id(&line), "server draining")],
                        )) {
                            break;
                        }
                    } else {
                        if is_shutdown_request(&line) {
                            // Stop the listener *now* — waiting for this
                            // connection to close would let a slow client
                            // postpone shutdown indefinitely — then keep
                            // draining this batch's remaining lines for a
                            // bounded window.
                            notify_shutdown();
                            drain_deadline =
                                Some(std::time::Instant::now() + std::time::Duration::from_secs(5));
                            let _ =
                                stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
                        }
                        if token_tx.send(()).is_err() {
                            break;
                        }
                        let job = Job {
                            line,
                            seq,
                            reply: reply_tx.clone(),
                            submitted: Instant::now(),
                        };
                        obs.inflight.inc();
                        if pool.send(job).is_err() {
                            obs.inflight.dec();
                            break;
                        }
                    }
                    seq += 1;
                }
            }
        }
        drop(reply_tx);
        drop(token_tx);
        writer.join().expect("connection writer panicked");
    });
}

/// The per-connection writer: receives `(seq, lines)` replies in
/// completion order, holds them in a reorder buffer, and writes them to
/// the socket strictly in sequence order — the pipelining stays invisible
/// on the wire.
fn write_in_order(stream: TcpStream, replies: mpsc::Receiver<Reply>, tokens: mpsc::Receiver<()>) {
    let mut out = BufWriter::new(stream);
    let mut pending: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut next: u64 = 0;
    'recv: for (seq, lines) in replies.iter() {
        pending.insert(seq, lines);
        while let Some(lines) = pending.remove(&next) {
            next += 1;
            for line in &lines {
                if out
                    .write_all(line.as_bytes())
                    .and_then(|()| out.write_all(b"\n"))
                    .is_err()
                {
                    // Dropping the token receiver unblocks the reader.
                    break 'recv;
                }
            }
            let _ = tokens.recv();
        }
        // Flush once per completion burst, not per line.
        if out.flush().is_err() {
            break;
        }
    }
    let _ = out.flush();
}

/// Scans a response line for a `"points_follow":N` marker — how batch ops
/// announce extra per-point lines beyond the one-response-per-request
/// baseline.
fn points_follow(line: &str) -> usize {
    let needle = "\"points_follow\":";
    let Some(pos) = line.find(needle) else {
        return 0;
    };
    line[pos + needle.len()..]
        .bytes()
        .take_while(u8::is_ascii_digit)
        .fold(0usize, |acc, b| {
            acc.saturating_mul(10).saturating_add((b - b'0') as usize)
        })
}

/// Sends `lines` over one connection and returns the response lines, in
/// order. Writes from a helper thread so large batches cannot deadlock on
/// full socket buffers. Batch ops announcing per-point lines via
/// `"points_follow"` grow the expected response count automatically.
///
/// # Errors
///
/// Besides transport errors, returns [`std::io::ErrorKind::UnexpectedEof`]
/// when the server closes the connection before answering every request —
/// the error names the expected and received line counts, so pipelined
/// clients can tell a short batch from a complete one.
pub fn query_batch(addr: &str, lines: &[String]) -> std::io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut expected = lines.iter().filter(|l| !l.trim().is_empty()).count();
    std::thread::scope(|scope| -> std::io::Result<Vec<String>> {
        let sender = scope.spawn(move || -> std::io::Result<()> {
            for line in lines {
                writer.write_all(line.as_bytes())?;
                writer.write_all(b"\n")?;
            }
            writer.flush()?;
            stream_shutdown_write(&writer);
            Ok(())
        });
        let reader = BufReader::new(&stream);
        let mut responses = Vec::with_capacity(expected);
        for line in reader.lines() {
            let line = match line {
                Ok(line) => line,
                // A server that closes with request lines still unread
                // resets the connection: that is a short batch too.
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break,
                Err(e) => return Err(e),
            };
            expected += points_follow(&line);
            responses.push(line);
            if responses.len() >= expected {
                break;
            }
        }
        let sent = sender.join().expect("sender thread panicked");
        if responses.len() < expected {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "server closed the connection mid-batch: expected {expected} response \
                     line(s), received {}",
                    responses.len()
                ),
            ));
        }
        sent?;
        Ok(responses)
    })
}

fn stream_shutdown_write(stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_flat_objects() {
        let map = parse_flat_object(
            r#"{"op":"layer","engine":"OPT3[EN-T]","m":64,"seed":42,"deep":-1.5e2,"flag":true,"nil":null,"esc":"a\"b\\c\nd"}"#,
        )
        .unwrap();
        assert_eq!(map["op"], JsonValue::Str("layer".into()));
        assert_eq!(map["m"], JsonValue::Num(64.0));
        assert_eq!(map["deep"], JsonValue::Num(-150.0));
        assert_eq!(map["flag"], JsonValue::Bool(true));
        assert_eq!(map["nil"], JsonValue::Null);
        assert_eq!(map["esc"], JsonValue::Str("a\"b\\c\nd".into()));
        assert!(parse_flat_object("{}").unwrap().is_empty());
        // Standard JSON surrogate pairs decode to the non-BMP scalar.
        let fire = parse_flat_object(r#"{"w":"\ud83d\udd25!"}"#).unwrap();
        assert_eq!(fire["w"], JsonValue::Str("\u{1F525}!".into()));
        for bad in [r#"{"w":"\ud83d"}"#, r#"{"w":"\ud83dA"}"#] {
            assert!(parse_flat_object(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "[1]",
            "{\"a\":}",
            "{\"a\":{\"nested\":1}}",
            "{\"a\":[1]}",
            "{\"a\":1} trailing",
            "{\"a\":\"unterminated}",
            "{\"a\":01x}",
        ] {
            assert!(parse_flat_object(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn engine_and_roster_ops_answer() {
        let cache = EngineCache::new();
        let (resp, down) = handle_line(
            r#"{"id":7,"op":"engine","engine":"OPT4E[EN-T]/28nm@2.00GHz"}"#,
            &cache,
        );
        assert!(!down);
        assert!(resp.starts_with("{\"id\":7,\"ok\":true,"), "{resp}");
        assert!(resp.contains("\"feasible\":true"), "{resp}");
        assert!(resp.contains("\"peak_tops\":"), "{resp}");

        let (roster_resp, _) = handle_line(r#"{"id":8,"op":"roster"}"#, &cache);
        assert!(
            roster_resp.contains("OPT4E[EN-T]/28nm@2.00GHz"),
            "{roster_resp}"
        );
        assert_eq!(roster_resp.matches("GHz\"").count(), 12, "{roster_resp}");
    }

    #[test]
    fn layer_op_is_deterministic_per_request() {
        let cache = EngineCache::new();
        let req = r#"{"id":1,"op":"layer","engine":"OPT3[EN-T]/28nm@2.00GHz","m":64,"n":128,"k":64,"seed":9}"#;
        let (a, _) = handle_line(req, &cache);
        let (b, _) = handle_line(req, &cache);
        assert_eq!(a, b);
        assert!(a.contains("\"utilization\":"), "{a}");
        // A different seed is a different answer.
        let req2 = r#"{"id":1,"op":"layer","engine":"OPT3[EN-T]/28nm@2.00GHz","m":64,"n":128,"k":64,"seed":10}"#;
        let (c, _) = handle_line(req2, &cache);
        assert_ne!(a, c);
    }

    #[test]
    fn errors_echo_the_id_and_never_shutdown() {
        let cache = EngineCache::new();
        for (req, needle) in [
            (r#"{"id":3,"op":"warp"}"#, "unknown op"),
            (
                r#"{"id":3,"op":"engine","engine":"OPT9"}"#,
                "unknown engine",
            ),
            (
                r#"{"id":3,"op":"model","engine":"OPT3[EN-T]","model":"LeNet"}"#,
                "unknown model",
            ),
            (
                r#"{"id":3,"op":"layer","engine":"OPT3[EN-T]","m":0,"n":1,"k":1}"#,
                "positive",
            ),
            (
                r#"{"id":3,"op":"layer","engine":"OPT3[EN-T]","n":1,"k":1}"#,
                "missing field",
            ),
            ("not json", "expected"),
        ] {
            let (resp, down) = handle_line(req, &cache);
            assert!(!down);
            assert!(resp.contains("\"ok\":false"), "{req} -> {resp}");
            assert!(resp.contains(needle), "{req} -> {resp}");
        }
    }

    /// Parse errors recover the request's id with a lenient scan, so
    /// pipelined clients can correlate failures (the old behavior
    /// hardcoded `"id":0`).
    #[test]
    fn parse_errors_recover_the_request_id() {
        let cache = EngineCache::new();
        for (req, id) in [
            // Truncated object, id first.
            (r#"{"id":7,"op":"engine","engine":"#, 7),
            // Truncated object, id later.
            (r#"{"op":"engine","id": 12"#, 12),
            // Nested value (rejected), id present.
            (r#"{"id":31,"op":"engine","extra":{"nested":1}}"#, 31),
            // Trailing garbage after a complete object.
            (r#"{"id":5,"op":"roster"} trailing"#, 5),
            // No id anywhere: the historical 0.
            (r#"{"op":"engine""#, 0),
            ("not json at all", 0),
            // id is not a number: recovery cannot invent one.
            (r#"{"id":"seven","op":"#, 0),
        ] {
            let (resp, down) = handle_line(req, &cache);
            assert!(!down);
            assert!(
                resp.starts_with(&format!("{{\"id\":{id},\"ok\":false,")),
                "{req} -> {resp}"
            );
        }
        assert_eq!(recover_id(r#"{"id":  42 ,"op":"x"#), 42);
        assert_eq!(recover_id(r#"{"id":-3,"op":"x"#), 0, "negative ids stay 0");
    }

    /// The optional precision field reprices the engine and is reflected
    /// in the echoed label; omitting it is byte-identical to W8.
    #[test]
    fn precision_field_reprices_and_tags_the_label() {
        let cache = EngineCache::new();
        let base = r#"{"id":1,"op":"engine","engine":"OPT4E[EN-T]/28nm@2.00GHz"}"#;
        let w8 = r#"{"id":1,"op":"engine","engine":"OPT4E[EN-T]/28nm@2.00GHz","precision":"W8"}"#;
        let w4 = r#"{"id":1,"op":"engine","engine":"OPT4E[EN-T]/28nm@2.00GHz","precision":"W4"}"#;
        let (r_base, _) = handle_line(base, &cache);
        let (r_w8, _) = handle_line(w8, &cache);
        let (r_w4, _) = handle_line(w4, &cache);
        assert_eq!(r_base, r_w8, "explicit W8 must be the default");
        assert_ne!(r_base, r_w4);
        assert!(r_w4.contains("@W4\""), "{r_w4}");
        assert!(r_w4.contains("\"feasible\":true"), "{r_w4}");
        // Layer queries stream fewer digits at W4 on a serial engine.
        let layer = |p: &str| {
            let req = format!(
                r#"{{"id":2,"op":"layer","engine":"OPT3[EN-T]/28nm@2.00GHz","m":64,"n":128,"k":64,"seed":7{p}}}"#
            );
            handle_line(&req, &cache).0
        };
        let (d8, d4) = (layer(""), layer(r#","precision":"w4""#));
        let delay = |r: &str| {
            let tail = &r[r.find("\"delay_us\":").unwrap() + 11..];
            tail[..tail.find(',').unwrap()].parse::<f64>().unwrap()
        };
        assert!(delay(&d4) < delay(&d8), "W4 must be faster: {d4} vs {d8}");
        // Bad precision strings error without shutting down.
        let (bad, down) = handle_line(
            r#"{"id":3,"op":"engine","engine":"OPT3[EN-T]","precision":"W99"}"#,
            &cache,
        );
        assert!(!down);
        assert!(bad.contains("unknown precision"), "{bad}");
    }

    /// The optional memory field pins a roofline corner: the echoed label
    /// carries the `@corner` suffix, bounded bodies append the roofline
    /// group, and the explicit `unbounded` corner is byte-identical to
    /// omitting the field (the pre-memory wire format).
    #[test]
    fn memory_field_bounds_responses_and_tags_the_label() {
        let cache = EngineCache::new();
        let layer = |mem: &str| {
            let req = format!(
                r#"{{"id":2,"op":"layer","engine":"OPT3[EN-T]/28nm@2.00GHz","m":256,"n":1024,"k":1024,"seed":7{mem}}}"#
            );
            handle_line(&req, &cache).0
        };
        let free = layer("");
        assert_eq!(
            free,
            layer(r#","memory":"unbounded""#),
            "explicit unbounded must be the default"
        );
        assert!(
            !free.contains("\"bytes_moved\""),
            "default responses carry no roofline group: {free}"
        );
        let edge = layer(r#","memory":"edge""#);
        assert!(edge.contains("@edge\""), "{edge}");
        for key in [
            "\"bytes_moved\":",
            "\"intensity_ops_per_byte\":",
            "\"bound\":\"",
        ] {
            assert!(edge.contains(key), "{edge}");
        }
        let delay = |r: &str| {
            let tail = &r[r.find("\"delay_us\":").unwrap() + 11..];
            tail[..tail.find(',').unwrap()].parse::<f64>().unwrap()
        };
        assert!(
            delay(&edge) > delay(&free),
            "a finite corner must stretch delay: {edge} vs {free}"
        );
        // Model queries under a finite corner append the same group.
        let model = |mem: &str| {
            let req = format!(
                r#"{{"id":3,"op":"model","engine":"OPT4E[EN-T]/28nm@2.00GHz","model":"ResNet18","seed":7{mem}}}"#
            );
            handle_line(&req, &cache).0
        };
        let free_model = model("");
        assert!(!free_model.contains("\"bound\""), "{free_model}");
        let edge_model = model(r#","memory":"edge""#);
        assert!(
            edge_model.contains("\"bound\":\"") && edge_model.contains("@edge\""),
            "{edge_model}"
        );
        // Bad corner names error without shutting down.
        let (bad, down) = handle_line(
            r#"{"id":4,"op":"engine","engine":"OPT3[EN-T]","memory":"l9"}"#,
            &cache,
        );
        assert!(!down);
        assert!(bad.contains("unknown memory corner"), "{bad}");
    }

    #[test]
    fn infeasible_engines_answer_feasible_false() {
        let cache = EngineCache::new();
        let (resp, _) = handle_line(
            r#"{"id":2,"op":"engine","engine":"MAC(TPU)/28nm@2.00GHz"}"#,
            &cache,
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(resp.contains("\"feasible\":false"), "{resp}");
    }

    #[test]
    fn shutdown_op_flags_the_connection() {
        let cache = EngineCache::new();
        let (resp, down) = handle_line(r#"{"id":9,"op":"shutdown"}"#, &cache);
        assert!(down);
        assert!(resp.contains("\"op\":\"shutdown\""), "{resp}");
    }

    /// The parse-time shutdown predicate agrees with `handle_request`'s
    /// `is_shutdown` on every line shape — what makes drain behavior
    /// independent of pool timing.
    #[test]
    fn shutdown_predicate_matches_the_handler() {
        let cache = EngineCache::new();
        for line in [
            r#"{"id":9,"op":"shutdown"}"#,
            r#"{"op":"shutdown","id":9}"#,
            r#"{"op":"shutdown"}"#,
            // Mentions shutdown but is not a shutdown op.
            r#"{"id":1,"op":"layer","engine":"OPT3[EN-T]","workload":"shutdown","m":1,"n":1,"k":1}"#,
            r#"{"id":1,"op":"engine","engine":"shutdown"}"#,
            // Malformed line mentioning shutdown.
            r#"{"op":"shutdown""#,
            "shutdown",
        ] {
            let (_, down) = handle_line(line, &cache);
            assert_eq!(
                is_shutdown_request(line),
                down,
                "predicate drifted from handler on {line:?}"
            );
        }
    }

    /// The stats op surfaces the accounting invariant fields.
    #[test]
    fn stats_op_reports_lookup_consistency_fields() {
        let cache = EngineCache::new();
        handle_line(
            r#"{"id":1,"op":"engine","engine":"OPT4E[EN-T]/28nm@2.00GHz"}"#,
            &cache,
        );
        let (resp, _) = handle_line(r#"{"id":2,"op":"stats"}"#, &cache);
        for field in [
            "\"price_lookups\":",
            "\"cycle_lookups\":",
            "\"model_lookups\":",
            "\"priced_entries\":",
            "\"cycle_entries\":",
            "\"model_entries\":",
        ] {
            assert!(resp.contains(field), "{resp}");
        }
        let stats = cache.stats();
        assert_eq!(stats.lookups(), stats.hits() + stats.misses());
    }

    /// The numeric `field` of a reply line, as a u64.
    fn num(resp: &str, field: &str) -> u64 {
        match parse_flat_object(resp).unwrap().get(field) {
            Some(JsonValue::Num(v)) => *v as u64,
            other => panic!("{field} = {other:?} in {resp}"),
        }
    }

    /// The `model` op resolves its network from the shared catalog by
    /// reference; its reply bytes and its unknown-model error are pinned.
    #[test]
    fn model_replies_are_pinned() {
        let cache = EngineCache::new();
        for (req, pinned) in [
            (
                r#"{"id":4,"op":"model","engine":"OPT4E[EN-T]/28nm@2.00GHz","model":"resnet18-w4","seed":9,"cycle_model":"analytic"}"#,
                r#"{"id":4,"ok":true,"op":"model","engine":"OPT4E[EN-T]/28nm@2.00GHz","model":"ResNet18-W4","seed":9,"cycle_model":"analytic","feasible":true,"layers":18,"macs":1794805760,"cycles":817127,"delay_us":408.5635,"energy_uj":187.151984,"gops":8785.934,"peak_tops":7.0177,"utilization":0.96039,"power_w":0.45807,"tops_per_w":19.1802,"area_um2":475646.050}"#,
            ),
            (
                r#"{"id":5,"op":"model","engine":"OPT1(Ascend)","model":"MobileNetV2","memory":"edge"}"#,
                r#"{"id":5,"ok":true,"op":"model","engine":"OPT1(Ascend)/28nm@1.50GHz@edge","model":"MobileNetV2","seed":42,"feasible":true,"layers":53,"macs":266453888,"cycles":5297867,"delay_us":3531.9113,"energy_uj":156.453155,"gops":150.884,"peak_tops":3.0000,"utilization":0.05029,"power_w":0.04430,"tops_per_w":3.4062,"area_um2":350998.570,"bytes_moved":57112408,"intensity_ops_per_byte":9.3309,"bound":"dram"}"#,
            ),
            (
                r#"{"id":6,"op":"model","engine":"OPT4E[EN-T]","model":"LeNet"}"#,
                r#"{"id":6,"ok":false,"error":"unknown model `LeNet`"}"#,
            ),
        ] {
            let (reply, down) = handle_line(req, &cache);
            assert!(!down);
            assert_eq!(reply, pinned, "{req}");
        }
    }

    /// Model ops keep the model map's accounting invariant visible over
    /// the wire: after a cold + warm `model` request against an isolated
    /// cache, `model_hits + model_misses == model_lookups` in the stats
    /// response, and the warm repeat answered byte-identically from one
    /// model-map hit.
    #[test]
    fn model_op_accounting_balances_over_the_wire() {
        let cache = EngineCache::new();
        let req = r#"{"id":1,"op":"model","engine":"OPT4E[EN-T]/28nm@2.00GHz","model":"resnet18"}"#;
        let (cold, _) = handle_line(req, &cache);
        let (warm, _) = handle_line(req, &cache);
        assert_eq!(
            cold.replace("\"id\":1", ""),
            warm.replace("\"id\":1", ""),
            "warm model op must answer byte-identically"
        );
        let (stats, _) = handle_line(r#"{"id":2,"op":"stats"}"#, &cache);
        let (hits, misses, lookups) = (
            num(&stats, "model_hits"),
            num(&stats, "model_misses"),
            num(&stats, "model_lookups"),
        );
        assert_eq!(hits + misses, lookups, "{stats}");
        assert_eq!((hits, misses), (1, 1), "{stats}");
        assert_eq!(num(&stats, "model_entries"), 1, "{stats}");
    }

    /// The stats op reports per-window `since_*` deltas over its own
    /// polling cadence, plus uptime relative to a caller-supplied origin.
    #[test]
    fn stats_op_windows_cache_deltas_between_polls() {
        let cache = EngineCache::new();
        handle_line(
            r#"{"id":1,"op":"engine","engine":"OPT4E[EN-T]/28nm@2.00GHz"}"#,
            &cache,
        );
        let (first, _) = handle_line(r#"{"id":2,"op":"stats"}"#, &cache);
        assert_eq!(num(&first, "since_price_misses"), 1, "{first}");
        assert_eq!(
            num(&first, "since_price_lookups"),
            num(&first, "price_lookups"),
            "first window covers everything: {first}"
        );
        // Nothing between polls → an all-zero window, totals unchanged.
        let (second, _) = handle_line(r#"{"id":3,"op":"stats"}"#, &cache);
        assert_eq!(num(&second, "since_price_lookups"), 0, "{second}");
        assert_eq!(
            num(&second, "price_lookups"),
            num(&first, "price_lookups"),
            "{second}"
        );
        // A warm repeat lands one hit in the next window only.
        handle_line(
            r#"{"id":4,"op":"engine","engine":"OPT4E[EN-T]/28nm@2.00GHz"}"#,
            &cache,
        );
        let (third, _) = handle_line(r#"{"id":5,"op":"stats"}"#, &cache);
        assert_eq!(num(&third, "since_price_hits"), 1, "{third}");
        assert_eq!(num(&third, "since_price_misses"), 0, "{third}");
        // Uptime subtracts the caller's monotonic origin, saturating.
        let up = num(&third, "uptime_ms");
        let far_future = 1u64 << 52; // ~143k years in ms, within the 2^53 field cap
        let (offset, _) = handle_line(
            &format!(r#"{{"id":6,"op":"stats","origin":{far_future}}}"#),
            &cache,
        );
        assert_eq!(num(&offset, "uptime_ms"), 0, "{offset}");
        let (rel, _) = handle_line(r#"{"id":7,"op":"stats","origin":0}"#, &cache);
        assert!(num(&rel, "uptime_ms") >= up, "{rel}");
    }

    /// `stats` and `metrics` read the same cache instruments: after a
    /// mixed request sequence over a small bounded cache (so evictions
    /// move too), every cache field the two replies share carries one
    /// value, and each reply's cache field names are exactly the
    /// protocol's.
    #[test]
    fn stats_and_metrics_report_the_same_cache_fields() {
        let cache = EngineCache::bounded(16);
        for line in [
            r#"{"id":1,"op":"engine","engine":"OPT4E[EN-T]/28nm@2.00GHz"}"#,
            r#"{"id":2,"op":"layer","engine":"OPT3[EN-T]","m":16,"n":32,"k":64,"seed":3}"#,
            r#"{"id":3,"op":"engine","engine":"OPT4E[EN-T]/28nm@2.00GHz"}"#,
            r#"{"id":4,"op":"engine","engine":"OPT1(TPU)","precision":"W4"}"#,
            r#"{"id":5,"op":"layer","engine":"OPT4C[EN-T]","m":8,"n":8,"k":32,"memory":"edge"}"#,
            r#"{"id":6,"op":"model","engine":"OPT1(Ascend)","model":"resnet18","memory":"edge"}"#,
            r#"{"id":7,"op":"model","engine":"OPT1(Ascend)","model":"resnet18","memory":"edge"}"#,
            r#"{"id":8,"op":"engine","engine":"no-such-engine"}"#,
        ] {
            let (resp, _) = handle_line(line, &cache);
            assert!(
                resp.contains("\"ok\":true") != line.contains("no-such"),
                "{resp}"
            );
        }
        let reply = |line| parse_flat_object(&handle_line(line, &cache).0).unwrap();
        let stats = reply(r#"{"id":9,"op":"stats"}"#);
        let metrics = reply(r#"{"id":10,"op":"metrics"}"#);
        let folded: Vec<&String> = metrics.keys().filter(|k| k.contains("_cache_")).collect();
        for name in &folded {
            let field = name.split_once("_cache_").unwrap().1;
            assert_eq!(metrics[*name], stats[field], "{field}");
        }
        assert_ne!(stats["records_evictions"], JsonValue::Num(0.0));
        // The model op renders a record; it never builds or keeps rows.
        assert_eq!(stats["reports_entries"], JsonValue::Num(0.0));
        assert_eq!(stats["report_lookups"], JsonValue::Num(0.0));
        let names = |keys: Vec<&String>| keys.into_iter().cloned().collect::<Vec<_>>().join(" ");
        assert_eq!(
            names(stats.keys().collect()),
            "cycle_entries cycle_hits cycle_lookups cycle_misses cycles_entries \
             cycles_evictions hit_rate id model_entries model_hits model_lookups \
             model_misses models_entries models_evictions ok op price_hits price_lookups \
             price_misses priced_entries prices_entries prices_evictions records_entries \
             records_evictions report_hits report_lookups report_misses reports_entries \
             reports_evictions since_cycle_hits since_cycle_lookups since_cycle_misses \
             since_hit_rate since_model_hits since_model_lookups since_model_misses \
             since_price_hits since_price_lookups since_price_misses since_report_hits \
             since_report_lookups since_report_misses uptime_ms"
        );
        assert_eq!(
            names(folded),
            "ctr_cache_cycle_hits ctr_cache_cycle_lookups ctr_cache_cycle_misses \
             ctr_cache_cycles_evictions ctr_cache_model_hits ctr_cache_model_lookups \
             ctr_cache_model_misses ctr_cache_models_evictions ctr_cache_price_hits \
             ctr_cache_price_lookups ctr_cache_price_misses ctr_cache_prices_evictions \
             ctr_cache_records_evictions ctr_cache_report_hits ctr_cache_report_lookups \
             ctr_cache_report_misses ctr_cache_reports_evictions gauge_cache_cycle_entries \
             gauge_cache_cycles_entries gauge_cache_model_entries \
             gauge_cache_models_entries gauge_cache_priced_entries \
             gauge_cache_prices_entries gauge_cache_records_entries \
             gauge_cache_reports_entries"
        );
    }

    /// The metrics op folds the serving cache's counters into the registry
    /// snapshot, and histograms round-trip through the bucket CSV.
    #[test]
    fn metrics_op_snapshots_registry_and_cache() {
        let cache = EngineCache::new();
        handle_line(
            r#"{"id":1,"op":"engine","engine":"OPT4E[EN-T]/28nm@2.00GHz"}"#,
            &cache,
        );
        let (resp, down) = handle_line(r#"{"id":2,"op":"metrics"}"#, &cache);
        assert!(!down);
        assert!(
            resp.starts_with("{\"id\":2,\"ok\":true,\"op\":\"metrics\""),
            "{resp}"
        );
        for field in [
            "\"uptime_ms\":",
            "\"ctr_cache_price_hits\":0",
            "\"ctr_cache_price_misses\":1",
            "\"ctr_cache_price_lookups\":1",
            "\"ctr_cache_model_lookups\":0",
            "\"gauge_cache_priced_entries\":1",
            "\"gauge_cache_cycle_entries\":0",
            "\"gauge_cache_model_entries\":0",
        ] {
            assert!(resp.contains(field), "missing {field} in {resp}");
        }
        // The global eval instrumentation shows up as histograms with the
        // full wire shape (count/sum/max/quantiles/buckets).
        for field in [
            "\"hist_eval_synthesis_ns_count\":",
            "\"hist_eval_synthesis_ns_p50\":",
            "\"hist_eval_synthesis_ns_buckets\":\"",
        ] {
            assert!(resp.contains(field), "missing {field} in {resp}");
        }
        // The prometheus variant renders text exposition, escaped.
        let (prom, _) = handle_line(r#"{"id":3,"op":"metrics","format":"prometheus"}"#, &cache);
        assert!(prom.contains("\"format\":\"prometheus\""), "{prom}");
        assert!(
            prom.contains("# TYPE tpe_cache_price_hits counter"),
            "{prom}"
        );
        assert!(
            prom.contains("\\u000a"),
            "exposition newlines are escaped: {prom}"
        );
        // Unknown formats error without shutting down.
        let (bad, down) = handle_line(r#"{"id":4,"op":"metrics","format":"xml"}"#, &cache);
        assert!(!down);
        assert!(bad.contains("unknown metrics format"), "{bad}");
    }

    /// Unknown ops list any extension names, and extensions can answer
    /// with several enveloped lines per request.
    #[test]
    fn batch_ops_extensions_answer_multi_line() {
        struct Echo3;
        impl BatchOps for Echo3 {
            fn handle(
                &self,
                op: &str,
                fields: &Fields,
                _cache: &EngineCache,
            ) -> Option<Result<Vec<String>, String>> {
                (op == "echo3").then(|| {
                    let tag = fields.str("tag")?.to_string();
                    Ok((0..3)
                        .map(|i| format!("\"op\":\"echo3\",\"i\":{i},\"tag\":\"{tag}\""))
                        .collect())
                })
            }
            fn op_names(&self) -> String {
                "|echo3".to_string()
            }
        }
        let cache = EngineCache::new();
        let (lines, down) = handle_request(r#"{"id":4,"op":"echo3","tag":"t"}"#, &cache, &Echo3);
        assert!(!down);
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with("{\"id\":4,\"ok\":true,"), "{line}");
            assert!(line.contains(&format!("\"i\":{i}")), "{line}");
        }
        // Extension errors use the standard envelope.
        let (err_lines, _) = handle_request(r#"{"id":4,"op":"echo3"}"#, &cache, &Echo3);
        assert_eq!(err_lines.len(), 1);
        assert!(
            err_lines[0].contains("missing field `tag`"),
            "{err_lines:?}"
        );
        // Unknown ops name the extensions.
        let (unknown, _) = handle_request(r#"{"id":4,"op":"warp"}"#, &cache, &Echo3);
        assert!(unknown[0].contains("|echo3"), "{unknown:?}");
        // Without extensions the built-in op list is pinned.
        let (plain, _) = handle_request(r#"{"id":4,"op":"warp"}"#, &cache, &NoOps);
        assert!(
            plain[0].contains("(expected engine|layer|metrics|model|roster|stats|shutdown)"),
            "{plain:?}"
        );
    }

    /// `SnapshotOps` answers `snapshot` by saving the serve cache and
    /// composes with the wrapped extension set's ops and names.
    #[test]
    fn snapshot_ops_save_and_compose() {
        let path = std::env::temp_dir().join(format!("tpe-serve-snap-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cache = EngineCache::new();
        let ops = SnapshotOps::new(&NoOps, &path);
        handle_request(
            r#"{"id":1,"op":"engine","engine":"OPT4E[EN-T]/28nm@2.00GHz"}"#,
            &cache,
            &ops,
        );
        let (lines, down) = handle_request(r#"{"id":2,"op":"snapshot"}"#, &cache, &ops);
        assert!(!down);
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].starts_with("{\"id\":2,\"ok\":true,\"op\":\"snapshot\""),
            "{}",
            lines[0]
        );
        // The file is a loadable snapshot with the same entry count the
        // op reported (pricing one engine memoizes synthesis + price).
        let fresh = EngineCache::new();
        let info = crate::snapshot::load(&fresh, &path).unwrap().unwrap();
        assert!(info.entries > 0);
        assert!(
            lines[0].contains(&format!("\"entries\":{}", info.entries)),
            "{}",
            lines[0]
        );
        // Unknown ops list the composed name set.
        let (unknown, _) = handle_request(r#"{"id":3,"op":"warp"}"#, &cache, &ops);
        assert!(unknown[0].contains("|snapshot"), "{unknown:?}");
        let _ = std::fs::remove_file(&path);
    }

    /// Request classification comes out of the handler's own parse and
    /// drives the same counters `record_op` used to re-parse for.
    #[test]
    fn request_classification_matches_counted_ops() {
        let cache = EngineCache::new();
        let registry = Registry::new();
        let class = |line: &str| {
            handle_request_classified(line, &cache, &NoOps, CycleModel::Sampled, &registry).2
        };
        let stats_idx = COUNTED_OPS.iter().position(|o| *o == "stats").unwrap();
        assert_eq!(
            class(r#"{"id":1,"op":"stats"}"#),
            RequestClass::Counted(stats_idx)
        );
        assert_eq!(class(r#"{"id":1,"op":"nope"}"#), RequestClass::Other);
        assert_eq!(class(r#"{"id":1}"#), RequestClass::Other);
        assert_eq!(class("not json"), RequestClass::Malformed);
        // record_class ticks exactly the counters record_op used to.
        let obs = ServeObs::in_registry(&registry);
        obs.record_class(RequestClass::Counted(stats_idx));
        obs.record_class(RequestClass::Other);
        obs.record_class(RequestClass::Malformed);
        assert_eq!(obs.op_requests[stats_idx].get(), 1);
        assert_eq!(obs.other_requests.get(), 2, "malformed counts as other");
        assert_eq!(obs.parse_errors.get(), 1);
    }

    #[test]
    fn points_follow_scans_only_genuine_markers() {
        assert_eq!(
            points_follow(r#"{"id":1,"ok":true,"points_follow":21}"#),
            21
        );
        assert_eq!(points_follow(r#"{"id":1,"ok":true,"points_follow":0}"#), 0);
        assert_eq!(points_follow(r#"{"id":1,"ok":true}"#), 0);
        // An escaped occurrence inside a string value does not match.
        assert_eq!(
            points_follow(r#"{"id":1,"ok":false,"error":"bad \"points_follow\": field"}"#),
            0
        );
    }

    #[test]
    fn read_limited_line_enforces_the_cap() {
        let data = b"short\nexactly8\nway too long line\nlast";
        let mut reader = BufReader::new(&data[..]);
        let line = |r: &mut BufReader<&[u8]>, max| match read_limited_line(r, max).unwrap() {
            LineRead::Line(l) => l,
            other => panic!(
                "expected a line, got {}",
                match other {
                    LineRead::Eof => "eof",
                    LineRead::TooLong { .. } => "too long",
                    _ => "utf8 error",
                }
            ),
        };
        assert_eq!(line(&mut reader, 16), "short");
        assert_eq!(line(&mut reader, 8), "exactly8", "max-length line passes");
        match read_limited_line(&mut reader, 8).unwrap() {
            LineRead::TooLong { partial } => assert_eq!(&partial, b"way too lo"),
            _ => panic!("over-long line must be rejected"),
        }
        // A final line without a newline still reads (like `lines()`).
        let mut tail = BufReader::new(&b"last"[..]);
        assert_eq!(line(&mut tail, 16), "last");
        assert!(matches!(
            read_limited_line(&mut tail, 16).unwrap(),
            LineRead::Eof
        ));
        // The limit excludes the terminator for CRLF lines too: exactly
        // max content + "\r\n" passes, one more content byte does not.
        let mut crlf = BufReader::new(&b"exactly8\r\nnowitsover\r\n"[..]);
        assert_eq!(line(&mut crlf, 8), "exactly8");
        assert!(matches!(
            read_limited_line(&mut crlf, 8).unwrap(),
            LineRead::TooLong { .. }
        ));
    }
}
