//! Socket-level integration and property tests for the serve layer:
//! batched responses are byte-identical to sequential single-query
//! responses under the worker pool, concurrent connections share the
//! cache consistently, mid-batch shutdown drains instead of dropping
//! lines, short server batches surface as typed errors, and per-line
//! limits are enforced.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::thread::JoinHandle;

use proptest::prelude::*;
use tpe_engine::serve::{
    parse_flat_object, query_batch, serve, BatchOps, Fields, JsonValue, NoOps, ServeConfig,
    ServeObs, ServeOutcome,
};
use tpe_engine::EngineCache;
use tpe_obs::Registry;

/// A 4-worker pool even on the 1-core CI box: the pool there proves
/// ordering (responses must reassemble in request order regardless of
/// which worker finishes first), not speedup.
fn pool_config() -> ServeConfig {
    ServeConfig {
        threads: 4,
        ..ServeConfig::default()
    }
}

/// Binds an ephemeral pooled server backed by `cache`; returns its
/// address and the join handle resolving to the serve outcome.
fn spawn_server_with(
    cache: &'static EngineCache,
    config: ServeConfig,
) -> (String, JoinHandle<std::io::Result<ServeOutcome>>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || {
        serve(listener, cache, &NoOps, config, ServeObs::global(), None)
    });
    (addr, handle)
}

fn spawn_server() -> (String, JoinHandle<std::io::Result<ServeOutcome>>) {
    spawn_server_with(EngineCache::global(), pool_config())
}

fn shutdown(addr: &str) {
    query_batch(addr, &[r#"{"id":0,"op":"shutdown"}"#.to_string()]).expect("shutdown");
}

#[test]
fn batched_and_sequential_and_concurrent_replies_are_byte_identical() {
    let (addr, handle) = spawn_server();
    let requests: Vec<String> = vec![
        r#"{"id":1,"op":"roster"}"#.into(),
        r#"{"id":2,"op":"engine","engine":"OPT3[EN-T]/28nm@2.00GHz"}"#.into(),
        r#"{"id":3,"op":"layer","engine":"OPT4E[EN-T]","m":64,"n":256,"k":128,"seed":7}"#.into(),
        r#"{"id":4,"op":"layer","engine":"MAC(TPU)/28nm@1.00GHz","m":32,"n":32,"k":32}"#.into(),
        r#"{"id":5,"op":"engine","engine":"MAC(TPU)/28nm@2.00GHz"}"#.into(),
        r#"{"id":6,"op":"layer","engine":"OPT4E[EN-T]","m":64,"n":256,"k":128,"seed":7}"#.into(),
    ];

    let batched = query_batch(&addr, &requests).expect("batch");
    assert_eq!(batched.len(), requests.len());

    // Sequential: one fresh connection per request.
    let sequential: Vec<String> = requests
        .iter()
        .map(|r| {
            let mut resp = query_batch(&addr, std::slice::from_ref(r)).expect("single");
            assert_eq!(resp.len(), 1);
            resp.pop().unwrap()
        })
        .collect();
    assert_eq!(batched, sequential);

    // Concurrent: several client threads firing the same batch get the
    // same bytes (the shared cache changes timing, never values).
    let concurrent: Vec<Vec<String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| query_batch(&addr, &requests).expect("concurrent batch")))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for replies in concurrent {
        assert_eq!(replies, batched);
    }

    // Identical requests (ids 3 and 6) got identical replies.
    assert_eq!(
        batched[2].replace("\"id\":3", "\"id\":6"),
        batched[5],
        "same question, same answer"
    );

    shutdown(&addr);
    let outcome = handle.join().unwrap().expect("serve loop");
    assert!(outcome.connections >= 10, "{outcome:?}");
    assert!(outcome.requests >= requests.len() as u64, "{outcome:?}");
    assert_eq!(outcome.workers, 4, "{outcome:?}");
}

/// One client's distinct mixed batch across ops, engines and precisions
/// (seeds differ per client so batches do not alias): per client of the
/// four, 3 `engine`, 6 `layer`, and 3 `model` requests.
fn client_batch(c: usize) -> Vec<String> {
    let engines = [
        "OPT3[EN-T]/28nm@2.00GHz",
        "OPT4E[EN-T]",
        "OPT4C[EN-T]",
        "MAC(Trapezoid)",
    ];
    let precisions = ["W8", "W4", "W16"];
    (0..12)
        .map(|i| {
            let engine = engines[(c + i) % engines.len()];
            match i % 4 {
                0 => format!(
                    r#"{{"id":{i},"op":"engine","engine":"{engine}","precision":"{}"}}"#,
                    precisions[(c + i) % precisions.len()]
                ),
                1 | 2 => format!(
                    r#"{{"id":{i},"op":"layer","engine":"{engine}","m":{m},"n":64,"k":64,"seed":{s}}}"#,
                    m = 16 + 8 * ((c + i) % 4),
                    s = c
                ),
                _ => format!(
                    r#"{{"id":{i},"op":"model","engine":"OPT4E[EN-T]","model":"ResNet18","seed":{c}}}"#
                ),
            }
        })
        .collect()
}

/// Satellite: N simultaneous client connections with mixed
/// engine/layer/model/precision ops against one pooled server. Each
/// client's responses must be byte-identical to its own sequential
/// baseline, and the shared cache's counters must stay consistent
/// (hits + misses == lookups) under the concurrent increments.
#[test]
fn concurrent_clients_match_their_sequential_baselines_and_stats_stay_consistent() {
    // A dedicated instance so the consistency check sees exactly this
    // test's traffic (leaked: the server thread wants 'static).
    let cache: &'static EngineCache = &*Box::leak(Box::new(EngineCache::new()));
    let (addr, handle) = spawn_server_with(cache, pool_config());

    let concurrent: Vec<Vec<String>> = std::thread::scope(|scope| {
        let addr = addr.as_str();
        let workers: Vec<_> = (0..4)
            .map(|c| scope.spawn(move || query_batch(addr, &client_batch(c)).expect("client")))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    for (c, replies) in concurrent.iter().enumerate() {
        let baseline: Vec<String> = client_batch(c)
            .iter()
            .map(|r| {
                query_batch(&addr, std::slice::from_ref(r))
                    .expect("baseline")
                    .pop()
                    .unwrap()
            })
            .collect();
        assert_eq!(replies, &baseline, "client {c} diverged from its baseline");
        assert!(
            replies.iter().all(|r| r.contains("\"ok\":true")),
            "client {c}: {replies:?}"
        );
    }

    shutdown(&addr);
    handle.join().unwrap().expect("serve loop");
    // Quiescent now: every lookup must have been accounted exactly once.
    let stats = cache.stats();
    assert!(stats.lookups() > 0);
    assert_eq!(
        stats.lookups(),
        stats.hits() + stats.misses(),
        "cache accounting drifted under concurrency: {stats:?}"
    );
    assert_eq!(stats.price_lookups, stats.price_hits + stats.price_misses);
    assert_eq!(stats.cycle_lookups, stats.cycle_hits + stats.cycle_misses);
}

/// The numeric field `key` of a one-line JSON reply, as a u64.
fn field_u64(reply: &str, key: &str) -> u64 {
    match parse_flat_object(reply).expect("reply parses").get(key) {
        Some(JsonValue::Num(v)) => *v as u64,
        other => panic!("{key} = {other:?} in {reply}"),
    }
}

/// Satellite: the observability layer's own accounting under a mixed
/// 4-client load. Into an isolated registry (so parallel test binaries
/// cannot pollute the counts): per-op request counters sum to the total
/// pool-processed requests, the queue-wait and eval histograms saw
/// exactly one record per request, the in-flight gauge returns to zero,
/// and the serving cache's hits + misses == lookups invariant holds as
/// reported over the wire by the `metrics` op — whose per-op counters
/// come from the serving instance's own registry.
#[test]
fn observability_counters_stay_consistent_under_concurrent_load() {
    let cache: &'static EngineCache = &*Box::leak(Box::new(EngineCache::new()));
    let registry: &'static Registry = &*Box::leak(Box::new(Registry::new()));
    let obs: &'static ServeObs = &*Box::leak(Box::new(ServeObs::in_registry(registry)));
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle =
        std::thread::spawn(move || serve(listener, cache, &NoOps, pool_config(), obs, None));

    // 4 clients × 12 mixed requests, concurrently.
    std::thread::scope(|scope| {
        let addr = addr.as_str();
        for c in 0..4 {
            scope.spawn(move || {
                let replies = query_batch(addr, &client_batch(c)).expect("client");
                assert!(replies.iter().all(|r| r.contains("\"ok\":true")));
            });
        }
    });

    // Workers record metrics *before* replying, so with all 48 client
    // replies read, a metrics poll now must already cover them. Its
    // cache counters come from the serving instance, so the invariant
    // check over the wire is exact.
    let metrics = query_batch(&addr, &[r#"{"id":1,"op":"metrics"}"#.to_string()])
        .expect("metrics")
        .pop()
        .unwrap();
    for kind in ["price", "cycle"] {
        assert_eq!(
            field_u64(&metrics, &format!("ctr_cache_{kind}_lookups")),
            field_u64(&metrics, &format!("ctr_cache_{kind}_hits"))
                + field_u64(&metrics, &format!("ctr_cache_{kind}_misses")),
            "{kind} accounting drifted over the wire: {metrics}"
        );
    }
    assert!(
        field_u64(&metrics, "ctr_cache_price_lookups") > 0,
        "{metrics}"
    );
    // The reply reflects the serving instance's own registry: its
    // per-op counters are exactly this server's client requests (the
    // poll excludes itself), whatever other servers in the process do.
    for (op, want) in [("engine", 4 * 3), ("layer", 4 * 6), ("model", 4 * 3)] {
        assert_eq!(
            field_u64(&metrics, &format!("ctr_serve_op_{op}")),
            want,
            "op {op} over the wire: {metrics}"
        );
    }

    shutdown(&addr);
    handle.join().unwrap().expect("serve loop");

    // Quiescent: 48 client requests + 1 metrics + 1 shutdown went
    // through the pool. Every one was classified into exactly one op
    // counter and recorded in both latency histograms.
    let total = 4 * 12 + 2;
    let counted: u64 = obs.op_requests.iter().map(|c| c.get()).sum();
    assert_eq!(counted + obs.other_requests.get(), total);
    assert_eq!(obs.other_requests.get(), 0);
    assert_eq!(obs.parse_errors.get(), 0);
    for (op, want) in [
        ("engine", 4 * 3),
        ("layer", 4 * 6),
        ("model", 4 * 3),
        ("metrics", 1),
        ("shutdown", 1),
    ] {
        assert_eq!(
            obs.op_counter(op).expect("counted op").get(),
            want,
            "op {op}"
        );
    }
    assert_eq!(obs.queue_wait_ns.snapshot().count(), total);
    assert_eq!(obs.eval_ns.snapshot().count(), total);
    assert_eq!(obs.inflight.get(), 0, "in-flight gauge must return to 0");
    // 4 client connections + the metrics poll + the shutdown.
    assert_eq!(obs.connections.get(), 6);
}

/// A capacity-bounded server evicts instead of growing: fed several
/// times more distinct `layer` requests than one map holds, no map ever
/// exceeds its capacity (as `stats` and `metrics` report it), evictions
/// are counted, and a re-ask of an evicted request is recomputed to the
/// byte-identical reply.
#[test]
fn bounded_server_cache_evicts_and_recomputes_identical_replies() {
    let cache: &'static EngineCache = &*Box::leak(Box::new(EngineCache::bounded(32)));
    let capacity = cache.capacity_per_map().expect("bounded") as u64;
    let (addr, handle) = spawn_server_with(cache, pool_config());
    let layer = |i: u64| {
        format!(
            r#"{{"id":{i},"op":"layer","engine":"OPT4E[EN-T]","m":{},"n":48,"k":64,"seed":{i}}}"#,
            8 + i
        )
    };
    let ask = |line: String| query_batch(&addr, &[line]).expect("reply").pop().unwrap();
    let mut originals = vec![ask(layer(0))];
    assert!(originals[0].contains("\"ok\":true"), "{originals:?}");

    for batch in 0..4 {
        let lines: Vec<String> = (1..=capacity)
            .map(|i| layer(batch * capacity + i))
            .collect();
        let replies = query_batch(&addr, &lines).expect("batch");
        assert!(replies.iter().all(|r| r.contains("\"ok\":true")));
        if batch == 0 {
            originals.extend(replies);
        }
        let stats = ask(r#"{"id":0,"op":"stats"}"#.to_string());
        for map in ["records", "prices", "cycles", "models"] {
            let entries = field_u64(&stats, &format!("{map}_entries"));
            assert!(
                entries <= capacity,
                "{map}: {entries} > {capacity}: {stats}"
            );
        }
    }
    let metrics = ask(r#"{"id":0,"op":"metrics"}"#.to_string());
    assert!(field_u64(&metrics, "gauge_cache_cycles_entries") <= capacity);
    assert!(
        field_u64(&metrics, "ctr_cache_cycles_evictions") > 0,
        "{metrics}"
    );
    assert_eq!(field_u64(&metrics, "ctr_cache_records_evictions"), 0);

    // The first `capacity + 1` requests cannot all still be cached (the
    // cycle map holds at most `capacity`), so re-asking them recomputes
    // at least one, and every re-ask answers its first reply's bytes.
    let misses = |s: &str| field_u64(s, "cycle_misses");
    let before = ask(r#"{"id":0,"op":"stats"}"#.to_string());
    let early: Vec<String> = (0..=capacity).map(layer).collect();
    assert_eq!(query_batch(&addr, &early).expect("re-ask"), originals);
    let after = ask(r#"{"id":0,"op":"stats"}"#.to_string());
    assert!(misses(&after) > misses(&before), "a re-ask recomputed");

    shutdown(&addr);
    handle.join().unwrap().expect("serve loop");
}

/// A `layer` request whose MAC count leaves the exact range is answered
/// with an error naming the limit, never with wrapped `"ok":true` numbers;
/// the server keeps serving.
#[test]
fn out_of_range_layer_shapes_are_rejected() {
    let cache: &'static EngineCache = &*Box::leak(Box::new(EngineCache::new()));
    let (addr, handle) = spawn_server_with(cache, pool_config());
    for dim in [1u64 << 22, 1 << 23, 1 << 40] {
        for engine in ["OPT1(Trapezoid)", "OPT1(TPU)", "OPT4E[EN-T]"] {
            let line = format!(
                r#"{{"id":1,"op":"layer","engine":"{engine}","m":{dim},"n":{dim},"k":{dim}}}"#
            );
            let reply = query_batch(&addr, &[line]).expect("reply").pop().unwrap();
            assert!(reply.contains("\"ok\":false"), "{reply}");
            assert!(reply.contains("out of range"), "{reply}");
        }
    }
    let ok = query_batch(
        &addr,
        &[r#"{"id":2,"op":"layer","engine":"OPT1(Trapezoid)","m":64,"n":64,"k":64}"#.to_string()],
    )
    .expect("reply");
    assert!(ok[0].contains("\"ok\":true"), "{ok:?}");
    shutdown(&addr);
    handle.join().unwrap().expect("serve loop");
}

/// The weight-stationary estimator is a closed form, so a huge but valid
/// `layer` costs the same as a small one: 2^44 MACs (m = 1, n = k = 2^22;
/// 2^28 weight tiles under the old per-tile loop) and 2^52 MACs answer
/// well under a second once the engine is priced.
#[test]
fn huge_valid_layers_answer_in_bounded_time() {
    let cache: &'static EngineCache = &*Box::leak(Box::new(EngineCache::new()));
    let (addr, handle) = spawn_server_with(cache, pool_config());
    let warm = r#"{"id":1,"op":"layer","engine":"OPT1(TPU)","m":64,"n":64,"k":64}"#;
    let reply = query_batch(&addr, &[warm.to_string()]).expect("reply");
    assert!(reply[0].contains("\"feasible\":true"), "{reply:?}");
    for log_nk in [22u32, 26] {
        let line = format!(
            r#"{{"id":2,"op":"layer","engine":"OPT1(TPU)","m":1,"n":{0},"k":{0}}}"#,
            1u64 << log_nk
        );
        let started = std::time::Instant::now();
        let reply = query_batch(&addr, &[line]).expect("reply").pop().unwrap();
        let took = started.elapsed();
        assert!(reply.contains("\"feasible\":true"), "{reply}");
        assert!(
            took < std::time::Duration::from_secs(1),
            "2^{} MACs took {took:?}",
            2 * log_nk
        );
    }
    shutdown(&addr);
    handle.join().unwrap().expect("serve loop");
}

/// Satellite: a shutdown in the middle of a batch answers the remaining
/// lines with `server draining` errors (ids echoed) instead of leaving
/// them unanswered, then the server comes down cleanly.
#[test]
fn mid_batch_shutdown_drains_the_remaining_lines() {
    let cache: &'static EngineCache = &*Box::leak(Box::new(EngineCache::new()));
    let (addr, handle) = spawn_server_with(cache, pool_config());
    let batch: Vec<String> = vec![
        r#"{"id":10,"op":"engine","engine":"OPT4E[EN-T]"}"#.into(),
        r#"{"id":11,"op":"shutdown"}"#.into(),
        r#"{"id":12,"op":"layer","engine":"OPT3[EN-T]","m":8,"n":8,"k":8}"#.into(),
        "definitely not json".into(),
        r#"{"id":14,"op":"roster"}"#.into(),
    ];
    let replies = query_batch(&addr, &batch).expect("batch with mid-batch shutdown");
    assert_eq!(
        replies.len(),
        batch.len(),
        "every line answered: {replies:?}"
    );
    assert!(replies[0].contains("\"ok\":true"), "{}", replies[0]);
    assert!(replies[1].contains("\"op\":\"shutdown\""), "{}", replies[1]);
    for (reply, id) in [(&replies[2], 12), (&replies[3], 0), (&replies[4], 14)] {
        assert!(
            reply.starts_with(&format!("{{\"id\":{id},\"ok\":false")),
            "{reply}"
        );
        assert!(reply.contains("server draining"), "{reply}");
    }
    let outcome = handle.join().unwrap().expect("serve loop");
    assert_eq!(outcome.requests, batch.len() as u64, "{outcome:?}");
}

/// A shutdown stops the listener the moment it is parsed: a client that
/// sends shutdown but holds its connection open cannot postpone it, and
/// new connections are refused while the holdout drains.
#[test]
fn shutdown_stops_the_listener_before_the_connection_closes() {
    let cache: &'static EngineCache = &*Box::leak(Box::new(EngineCache::new()));
    let (addr, handle) = spawn_server_with(cache, pool_config());

    let mut holdout = std::net::TcpStream::connect(&addr).expect("connect");
    holdout
        .write_all(b"{\"id\":1,\"op\":\"shutdown\"}\n")
        .expect("send shutdown");
    let mut reply = String::new();
    BufReader::new(holdout.try_clone().expect("clone"))
        .read_line(&mut reply)
        .expect("shutdown reply");
    assert!(reply.contains("\"op\":\"shutdown\""), "{reply}");

    // The holdout is still open, yet the listener must go down promptly.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match std::net::TcpStream::connect(&addr) {
            Err(_) => break,
            Ok(_) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "listener still accepting while a shutdown holdout is open"
                );
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
    }

    drop(holdout);
    let outcome = handle.join().unwrap().expect("serve loop");
    assert!(outcome.requests >= 1, "{outcome:?}");
}

/// Satellite: when the server dies before answering every line,
/// `query_batch` returns a typed error naming expected vs. received
/// counts instead of silently handing back a short vector.
#[test]
fn short_server_batches_error_with_expected_vs_received_counts() {
    // A fake listener that answers exactly one line, then closes.
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Read a line so the client is committed, answer once, drop.
        let mut line = String::new();
        BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut line)
            .expect("read");
        stream
            .write_all(b"{\"id\":0,\"ok\":true,\"op\":\"roster\",\"engines\":[]}\n")
            .expect("write");
        // Dropping the stream closes the connection mid-batch.
    });
    let requests: Vec<String> = (0..3)
        .map(|i| format!(r#"{{"id":{i},"op":"roster"}}"#))
        .collect();
    let err = query_batch(&addr, &requests).expect_err("short batch must error");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    let msg = err.to_string();
    assert!(msg.contains("expected 3"), "{msg}");
    assert!(msg.contains("received 1"), "{msg}");
    fake.join().unwrap();
}

/// A server that closes with request lines still unread resets the
/// connection instead of ending it; `query_batch` still names expected
/// vs. received counts rather than passing the reset through.
#[test]
fn reset_mid_batch_errors_with_expected_vs_received_counts() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Read only the first line, byte by byte, so the later lines stay
        // unread; give them time to arrive, answer once, and drop.
        let mut byte = [0u8; 1];
        while stream.read(&mut byte).expect("read") == 1 && byte[0] != b'\n' {}
        std::thread::sleep(std::time::Duration::from_millis(50));
        stream
            .write_all(b"{\"id\":0,\"ok\":true,\"op\":\"roster\",\"engines\":[]}\n")
            .expect("write");
    });
    let requests: Vec<String> = (0..3)
        .map(|i| format!(r#"{{"id":{i},"op":"roster"}}"#))
        .collect();
    let err = query_batch(&addr, &requests).expect_err("short batch must error");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    let msg = err.to_string();
    assert!(msg.contains("expected 3"), "{msg}");
    assert!(msg.contains("received 1"), "{msg}");
    fake.join().unwrap();
}

/// Over-long request lines are answered with an error (id recovered from
/// the readable prefix) and the connection closes; the server survives.
#[test]
fn over_long_lines_are_rejected_and_the_server_survives() {
    let cache: &'static EngineCache = &*Box::leak(Box::new(EngineCache::new()));
    let config = ServeConfig {
        threads: 2,
        max_line_bytes: 256,
        ..ServeConfig::default()
    };
    let (addr, handle) = spawn_server_with(cache, config);

    let long = format!(
        r#"{{"id":77,"op":"layer","engine":"OPT3[EN-T]","workload":"{}","m":8,"n":8,"k":8}}"#,
        "x".repeat(400)
    );
    let replies = query_batch(&addr, &[long]).expect("one error line before close");
    assert_eq!(replies.len(), 1);
    assert!(
        replies[0].starts_with("{\"id\":77,\"ok\":false"),
        "id recovered from the prefix: {}",
        replies[0]
    );
    assert!(
        replies[0].contains("max line bytes (256)"),
        "{}",
        replies[0]
    );

    // A short line on a fresh connection still answers: the limit is
    // per-connection, not fatal to the server.
    let ok = query_batch(&addr, &[r#"{"id":1,"op":"roster"}"#.to_string()]).expect("short line");
    assert!(ok[0].contains("\"ok\":true"), "{}", ok[0]);

    // Invalid UTF-8 after a readable prefix: the error echoes the
    // recovered id from the ASCII part.
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    raw.write_all(b"{\"id\":9,\"op\":\"engine\",\"engine\":\"\xff\xfe\"}\n")
        .expect("write");
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    BufReader::new(&raw).read_line(&mut reply).expect("reply");
    assert!(
        reply.starts_with("{\"id\":9,\"ok\":false"),
        "id recovered from the readable prefix: {reply}"
    );
    assert!(reply.contains("not valid UTF-8"), "{reply}");

    shutdown(&addr);
    handle.join().unwrap().expect("serve loop");
}

/// An extension whose `boom` op panics, standing in for any evaluation
/// bug a request can reach.
struct PanicOps;

impl BatchOps for PanicOps {
    fn handle(
        &self,
        op: &str,
        _fields: &Fields,
        _cache: &EngineCache,
    ) -> Option<Result<Vec<String>, String>> {
        (op == "boom").then(|| panic!("injected panic"))
    }
}

/// A panicking request answers with a typed error and leaves its worker
/// alive: after more panics than the pool has workers, every worker still
/// answers (a batch as wide as the pool, all in flight at once), the pool's
/// accounting stays consistent, and `shutdown` still returns.
#[test]
fn a_panicking_request_leaves_the_pool_at_full_size() {
    let cache: &'static EngineCache = &*Box::leak(Box::new(EngineCache::new()));
    let registry: &'static Registry = &*Box::leak(Box::new(Registry::new()));
    let obs: &'static ServeObs = &*Box::leak(Box::new(ServeObs::in_registry(registry)));
    let config = pool_config();
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || serve(listener, cache, &PanicOps, config, obs, None));

    // Twice as many panics as workers; a raw socket with a read timeout so
    // a dead pool fails the test instead of hanging it.
    let booms = 2 * config.threads;
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("timeout");
    for id in 0..booms {
        writeln!(raw, r#"{{"id":{id},"op":"boom"}}"#).expect("write");
    }
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    for id in 0..booms {
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .expect("every panic is answered");
        assert!(
            reply.starts_with(&format!(
                "{{\"id\":{id},\"ok\":false,\"error\":\"internal error"
            )),
            "{reply}"
        );
    }
    let pool_wide: Vec<String> = (0..config.threads)
        .map(|id| format!(r#"{{"id":{id},"op":"roster"}}"#))
        .collect();
    for line in &pool_wide {
        writeln!(raw, "{line}").expect("write");
    }
    for _ in &pool_wide {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("the full pool answers");
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");

    shutdown(&addr);
    handle
        .join()
        .expect("shutdown does not re-raise the panics")
        .expect("serve loop");
    let total = (booms + config.threads + 1) as u64;
    assert_eq!(obs.eval_ns.snapshot().count(), total);
    assert_eq!(obs.other_requests.get(), booms as u64);
    assert_eq!(obs.inflight.get(), 0, "in-flight gauge must return to 0");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: for arbitrary layer-query batches evaluated across the
    /// worker pool, the batched replies equal the per-connection
    /// sequential replies byte for byte (pipelining reassembles in
    /// request order; per-request determinism does the rest).
    #[test]
    fn arbitrary_layer_batches_are_batch_order_invariant(
        shapes in prop::collection::vec(
            (1usize..96, 1usize..96, 1usize..96, 0u64..4, 0usize..3),
            1..5,
        ),
    ) {
        let engines = ["OPT3[EN-T]", "OPT4C[EN-T]", "MAC(Trapezoid)"];
        let requests: Vec<String> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(m, n, k, seed, e))| {
                format!(
                    r#"{{"id":{i},"op":"layer","engine":"{}","m":{m},"n":{n},"k":{k},"seed":{seed}}}"#,
                    engines[e]
                )
            })
            .collect();
        let (addr, handle) = spawn_server();
        let batched = query_batch(&addr, &requests).expect("batch");
        let sequential: Vec<String> = requests
            .iter()
            .map(|r| query_batch(&addr, std::slice::from_ref(r)).expect("single").pop().unwrap())
            .collect();
        shutdown(&addr);
        handle.join().unwrap().expect("serve loop");
        prop_assert_eq!(batched, sequential);
    }
}
