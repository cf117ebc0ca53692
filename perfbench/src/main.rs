//! `perfbench` — the evaluation stack's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! runs one workload (`dse-sampled`, `dse-analytic-wide`, `serve-warm`,
//! `serve-cold`), checks the program's outputs, and prints one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run records
//! spans (written to `perfbench/out/`) and reports the per-layer ones.
//! A failed check exits 1. See `perfbench/README.md`.
//!
//! Two internal modes serve the workloads' child processes:
//! `perfbench repro <args>` is the `repro` binary's entry point (the
//! serve workloads run `repro serve` through it), and
//! `perfbench dse-pass --workload <name> --seed <n>` runs one cold
//! design-space pass in a fresh process.

mod check;
mod dse;
mod serve;
mod trace;
mod util;

use std::path::Path;
use std::time::Instant;

use tpe_bench::cli::{dispatch, CliOutcome};

use crate::util::{Outcome, Start};

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [&str; 4] = ["setup_s", "cold_cpu_ms", "warm_p50_ms", "peak_rss_mb"];

/// Every figure a workload measures, and the name the traced run reports
/// it under. Wall times of CPU-bound work, throughput and tail latency are
/// measured on every run but reported only by the traced run: on a
/// virtual machine they follow the host's steal time and do not repeat
/// within a bound (see README.md). The traced figures' distance from the
/// untraced ones is the tracing overhead.
const MEASURED: [(&str, &str); 9] = [
    ("setup_s", "bench.traced.setup_s"),
    ("setup_wall_s", "bench.traced.setup_wall_s"),
    ("cold_cpu_ms", "bench.traced.cold_cpu_ms"),
    ("warm_p50_ms", "bench.traced.warm_p50_ms"),
    ("peak_rss_mb", "bench.traced.peak_rss_mb"),
    ("cold_ms", "bench.traced.cold_ms"),
    ("qps", "bench.traced.qps"),
    ("p90_ms", "bench.traced.p90_ms"),
    ("p99_ms", "bench.traced.p99_ms"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload does not exercise reads 0 on it.
const PER_LAYER: [(&str, &str); 49] = [
    ("dse.space.enumerate_ms", "ms"),
    ("dse.sweep.cold_ms", "ms"),
    ("dse.pareto.front_ms", "ms"),
    ("dse.emit.csv_ms", "ms"),
    ("engine.eval.serial_sample_ms", "ms"),
    ("engine.eval.serial_analytic_ms", "ms"),
    ("engine.eval.model_assemble_ms", "ms"),
    ("engine.eval.traffic_ms", "ms"),
    ("engine.eval.synthesis_ms", "ms"),
    ("engine.eval.price_assemble_ms", "ms"),
    ("engine.eval.point_dense_us", "us"),
    ("engine.eval.point_serial_us", "us"),
    ("engine.eval.point_model_us", "us"),
    ("engine.cache.price_misses", "count"),
    ("engine.cache.cycle_misses", "count"),
    ("engine.cache.model_misses", "count"),
    ("engine.cache.hit_ratio", "ratio"),
    ("engine.cache.entries", "count"),
    ("engine.snapshot.save_ms", "ms"),
    ("engine.snapshot.load_ms", "ms"),
    ("engine.snapshot.kb", "kB"),
    ("engine.serve.parse_us", "us"),
    ("engine.roster.find_us", "us"),
    ("workloads.models.catalog_us", "us"),
    ("engine.serve.handle_engine_us", "us"),
    ("engine.serve.handle_layer_us", "us"),
    ("engine.serve.handle_model_us", "us"),
    ("engine.serve.server_eval_p50_us", "us"),
    ("engine.serve.server_eval_p99_us", "us"),
    ("engine.serve.queue_wait_p50_us", "us"),
    ("engine.serve.queue_wait_p99_us", "us"),
    ("engine.serve.wire_p50_us", "us"),
    ("engine.serve.ops_engine", "count"),
    ("engine.serve.ops_layer", "count"),
    ("engine.serve.ops_model", "count"),
    ("bench.traced.setup_s", "s"),
    ("bench.traced.setup_wall_s", "s"),
    ("bench.traced.cold_cpu_ms", "ms"),
    ("bench.traced.warm_p50_ms", "ms"),
    ("bench.traced.peak_rss_mb", "MB"),
    ("bench.traced.cold_ms", "ms"),
    ("bench.traced.qps", "1/s"),
    ("bench.traced.p90_ms", "ms"),
    ("bench.traced.p99_ms", "ms"),
    ("bench.trace.spans", "count"),
    ("bench.trace.span_ns", "ns"),
    ("bench.trace.untraced_span_ns", "ns"),
    ("bench.trace.overhead_ms", "ms"),
    ("bench.trace.overhead_pct", "%"),
];

const WORKLOADS: [&str; 4] = [
    "dse-sampled",
    "dse-analytic-wide",
    "serve-warm",
    "serve-cold",
];

/// The directory runs write their snapshots and span files to.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values = [None, None, None, None];
    let names = ["--workload", "--seed", "--seconds", "--trace"];
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let slot = names
            .iter()
            .position(|n| n == flag)
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        values[slot] = Some(
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .clone(),
        );
    }
    let get = |i: usize, default: Option<&str>| {
        values[i]
            .clone()
            .or(default.map(str::to_string))
            .ok_or_else(|| format!("{} is required", names[i]))
    };
    let num = |i: usize, default: Option<&str>| -> Result<u64, String> {
        get(i, default)?
            .parse()
            .map_err(|e| format!("{}: {e}", names[i]))
    };
    let workload = get(0, None)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected {})",
            WORKLOADS.join("|")
        ));
    }
    let trace = match num(3, Some("0"))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: num(1, Some("1"))?,
        seconds: num(2, Some("10"))?.max(1),
        trace,
    })
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

/// Cost of one span on this machine with the recorder on and paused
/// (the path every span of an untraced run takes): 10k spans each, timed
/// in a throwaway thread so they stay out of the run's own trace.
fn span_cost_ns() -> (f64, f64) {
    const N: u32 = 10_000;
    let time = |recording: bool| {
        trace::set_recording(recording);
        let ns = std::thread::spawn(move || {
            let t = Instant::now();
            for _ in 0..N {
                drop(std::hint::black_box(trace::span(
                    "bench.trace.calibrate",
                    None,
                )));
            }
            t.elapsed().as_nanos() as f64 / f64::from(N)
        })
        .join()
        .expect("calibration thread");
        trace::set_recording(true);
        ns
    };
    (time(true), time(false))
}

fn bench(args: Args, start: Start) -> Outcome {
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        usage(&format!("create {OUT_DIR}: {e}"));
    }
    if args.trace {
        trace::enable();
    }
    let mut out = match (
        dse::Kind::parse(&args.workload),
        serve::Kind::parse(&args.workload),
    ) {
        (Some(kind), _) => dse::run(kind, args.seed, args.seconds, start, out_dir),
        (_, Some(kind)) => serve::run(kind, args.seed, args.seconds, start),
        _ => unreachable!("workload names are validated"),
    };
    let measured = END_TO_END.iter().all(|name| out.metrics.contains_key(name));
    if !measured && out.correct() {
        out.errors
            .push("an end-to-end metric was not measured".into());
    }
    for (name, traced) in MEASURED {
        if let Some(v) = out.metrics.remove(name) {
            if args.trace {
                out.metrics.insert(traced, v);
            } else if END_TO_END.contains(&name) {
                out.metrics.insert(name, v);
            }
        }
    }
    if args.trace {
        let spans = trace::spans();
        let recorded = spans
            .iter()
            .filter(|s| s.name != "bench.trace.calibrate")
            .count();
        let (with, without) = span_cost_ns();
        let overhead_ms = recorded as f64 * (with - without) / 1e6;
        out.metric("bench.trace.spans", recorded as f64, "count");
        out.metric("bench.trace.span_ns", with, "ns");
        out.metric("bench.trace.untraced_span_ns", without, "ns");
        out.metric("bench.trace.overhead_ms", overhead_ms, "ms");
        out.metric(
            "bench.trace.overhead_pct",
            overhead_ms / (start.wall.elapsed().as_secs_f64() * 1e3) * 100.0,
            "%",
        );
        for (name, unit) in PER_LAYER {
            out.metrics.entry(name).or_insert((0.0, unit));
        }
        let path = out_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::write_jsonl(&path) {
            out.errors.push(format!("write {}: {e}", path.display()));
        }
    }
    out
}

fn main() {
    let start = Start::now().unwrap_or_else(|e| usage(&e));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("repro") => match dispatch(&args[1..]) {
            CliOutcome::Ok(text) => println!("{text}"),
            CliOutcome::Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        },
        Some("dse-pass") => {
            let parsed = parse_args(&args[1..]).unwrap_or_else(|e| usage(&e));
            let kind = dse::Kind::parse(&parsed.workload)
                .unwrap_or_else(|| usage("dse-pass needs a dse workload"));
            match dse::pass_main(kind, parsed.seed) {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => {
            let parsed = parse_args(&args).unwrap_or_else(|e| usage(&e));
            let out = bench(parsed, start);
            for e in &out.errors {
                eprintln!("check failed: {e}");
            }
            println!("{}", out.to_json());
            if !out.correct() {
                std::process::exit(1);
            }
        }
    }
}
