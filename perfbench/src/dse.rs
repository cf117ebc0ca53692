//! The design-space workloads (`dse-sampled`, `dse-analytic-wide`).
//!
//! A cold pass is what a `repro dse` user waits for: enumerate the space,
//! sweep it on two threads over a fresh `EngineCache`, extract the
//! per-(workload, precision) Pareto front and render the CSV. The
//! process-wide memos in `tpe-core` survive a new cache, so a cold pass
//! is only cold in a fresh process: the run's own first pass (its set-up)
//! and every timed cold pass each run in a process of their own. The
//! set-up then saves the cache to a snapshot and loads it into a fresh
//! cache; the warm re-sweeps run over that restored cache.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use tpe_dse::emit::to_csv;
use tpe_dse::pareto::{pareto_front_per_workload, Objective};
use tpe_dse::space::{default_workloads, DesignPoint, DesignSpace, SweepWorkload};
use tpe_dse::sweep::{sweep_with_cache, SweepConfig, SweepOutcome};
use tpe_dse::{evaluate_with_model, PointResult};
use tpe_engine::{fnv1a, roster, snapshot, CycleModel, EngineCache, MemorySpec};
use tpe_obs::Registry;
use tpe_workloads::NetworkModel;

use crate::check::{self, Row, RowMetrics};
use crate::trace::{self, span};
use crate::util::{cpu_ms, median, peak_rss_mb, quantile, Outcome, Start};

/// Worker threads for every sweep: the machine's two cores.
const THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 2016-point paper space under the sampled serial-cycle model.
    Sampled,
    /// Layers plus every catalog network at all four memory corners,
    /// under the closed-form cycle model.
    AnalyticWide,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sampled => "dse-sampled",
            Kind::AnalyticWide => "dse-analytic-wide",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        [Kind::Sampled, Kind::AnalyticWide]
            .into_iter()
            .find(|k| k.name() == name)
    }

    fn cycle_model(self) -> CycleModel {
        match self {
            Kind::Sampled => CycleModel::Sampled,
            Kind::AnalyticWide => CycleModel::Analytic,
        }
    }

    /// Warm re-sweeps per timed round (one cold pass per round).
    fn warm_per_round(self) -> usize {
        match self {
            Kind::Sampled => 200,
            Kind::AnalyticWide => 20,
        }
    }

    fn space(self) -> DesignSpace {
        match self {
            Kind::Sampled => DesignSpace::paper_default(),
            Kind::AnalyticWide => {
                let mut workloads = default_workloads();
                for net in NetworkModel::catalog() {
                    if !workloads.iter().any(|w| w.name() == net.name) {
                        workloads.push(SweepWorkload::Model(net));
                    }
                }
                DesignSpace {
                    memories: roster::memory_corners(),
                    workloads,
                    ..DesignSpace::paper_default()
                }
            }
        }
    }

    fn config(self, seed: u64) -> SweepConfig {
        SweepConfig {
            threads: THREADS,
            seed,
            cycle_model: self.cycle_model(),
        }
    }
}

/// One cold pass and its stage times.
pub struct ColdPass {
    pub points: Vec<DesignPoint>,
    pub outcome: SweepOutcome,
    pub front: Vec<usize>,
    pub csv: String,
    pub cache: EngineCache,
    /// Enumeration through the CSV render.
    pub total: Duration,
}

/// Enumerate → cold sweep → Pareto front → CSV, over a fresh cache.
pub fn cold_pass(kind: Kind, seed: u64) -> ColdPass {
    let start = Instant::now();
    let points = {
        let _s = span("dse.space.enumerate", None);
        kind.space().enumerate()
    };
    let cache = EngineCache::new();
    let outcome = {
        let _s = span("dse.sweep.cold", None);
        sweep_with_cache(&points, kind.config(seed), &cache)
    };
    let front = {
        let _s = span("dse.pareto.front", None);
        pareto_front_per_workload(&outcome.results, &Objective::DEFAULT)
    };
    let csv = {
        let _s = span("dse.emit.csv", None);
        to_csv(&outcome.results, &front)
    };
    ColdPass {
        points,
        outcome,
        front,
        csv,
        cache,
        total: start.elapsed(),
    }
}

/// The child-process entry: one cold pass, reported as one line.
pub fn pass_main(kind: Kind, seed: u64) -> Result<String, String> {
    let cpu_before = cpu_ms(std::process::id())?;
    let pass = cold_pass(kind, seed);
    Ok(format!(
        "pass cold_ns={} cpu_ms={} rss_mb={} csv_hash={} points={}",
        pass.total.as_nanos(),
        cpu_ms(std::process::id())? - cpu_before,
        peak_rss_mb("self")?,
        fnv1a(&pass.csv),
        pass.points.len()
    ))
}

/// What one cold pass in a fresh process reported.
struct ChildPass {
    wall_s: f64,
    cpu_ms: f64,
    rss_mb: f64,
    csv_hash: u64,
}

fn child_pass(kind: Kind, seed: u64) -> Result<ChildPass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "dse-pass",
            "--workload",
            kind.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn cold pass: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("cold pass exited {}: {text}", out.status));
    }
    let field = |key: &str| -> Result<&str, String> {
        text.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .ok_or_else(|| format!("cold pass output lacks {key}: {text}"))
    };
    let parse = |key: &str| -> Result<f64, String> {
        field(key)?
            .parse()
            .map_err(|e| format!("cold pass {key}: {e}"))
    };
    Ok(ChildPass {
        wall_s: parse("cold_ns")? / 1e9,
        cpu_ms: parse("cpu_ms")?,
        rss_mb: parse("rss_mb")?,
        csv_hash: field("csv_hash")?
            .parse()
            .map_err(|e| format!("cold pass csv_hash: {e}"))?,
    })
}

fn rows_of(results: &[PointResult]) -> Vec<Row> {
    results
        .iter()
        .map(|r| {
            let p = &r.point;
            Row {
                group: (p.workload.name().to_string(), p.precision().label()),
                twin: format!(
                    "{}/{}",
                    p.engine
                        .clone()
                        .with_memory(MemorySpec::unbounded())
                        .label(),
                    p.workload.name()
                ),
                unbounded: p.memory().is_unbounded(),
                dense: !p.style().is_serial(),
                macs: match &p.workload {
                    SweepWorkload::Layer(l) => check::macs(check::dims(l)),
                    SweepWorkload::Model(net) => check::network_macs(&net.layers),
                },
                metrics: r.metrics.map(|m| RowMetrics {
                    area_um2: m.area_um2,
                    delay_us: m.delay_us,
                    fj_per_mac: m.energy_per_mac_fj,
                    gops: m.throughput_gops,
                    utilization: m.utilization,
                    peak_tops: m.peak_tops,
                }),
            }
        })
        .collect()
}

/// The checks on one cold pass. Sampled serial points are compared with
/// the closed-form cycle model within the tolerances of
/// `crates/engine/tests/cycle_oracle.rs` (Sweep profile 5% for layers,
/// Model profile 10% for whole networks).
fn check_cold(kind: Kind, pass: &ColdPass, seed: u64, out: &mut Outcome) {
    let rows = rows_of(&pass.outcome.results);
    let mut on_front = vec![false; rows.len()];
    for &i in &pass.front {
        on_front[i] = true;
    }
    for row in &rows {
        out.check(check::check_row(row).map_err(|e| format!("{}: {e}", row.twin)));
    }
    out.check(check::check_front(&rows, &on_front));
    out.check(check::check_csv(&pass.csv, &rows, &on_front));
    if rows.iter().all(|r| r.metrics.is_none()) {
        out.check(Err("no design point closed timing".into()));
    }
    match kind {
        Kind::AnalyticWide => match check::check_corners(&rows) {
            Ok(0) => out.check(Err("no finite-corner point had an unbounded twin".into())),
            Ok(_) => {}
            Err(e) => out.check(Err(e)),
        },
        Kind::Sampled => {
            let closed_form = EngineCache::new();
            for r in &pass.outcome.results {
                let (Some(sampled), true) = (r.metrics, r.point.style().is_serial()) else {
                    continue;
                };
                let analytic =
                    evaluate_with_model(&r.point, &closed_form, seed, CycleModel::Analytic);
                let tol = match r.point.workload {
                    SweepWorkload::Layer(_) => 0.05,
                    SweepWorkload::Model(_) => 0.10,
                };
                out.check(match analytic.metrics {
                    Some(a) => {
                        check::check_oracle(&r.point.label(), sampled.delay_us, a.delay_us, tol)
                    }
                    None => Err(format!("{}: closed form infeasible", r.point.label())),
                });
            }
        }
    }
}

fn hist_ms(delta: &tpe_obs::Snapshot, name: &str) -> f64 {
    delta.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e6)
}

/// Median fresh-cache evaluation time (µs) of up to eight points picked
/// evenly from those `select` accepts.
fn point_us(
    points: &[DesignPoint],
    kind: Kind,
    seed: u64,
    select: impl Fn(&DesignPoint) -> bool,
) -> f64 {
    let picked: Vec<&DesignPoint> = points.iter().filter(|p| select(p)).collect();
    if picked.is_empty() {
        return 0.0;
    }
    let step = picked.len().div_ceil(8);
    let times: Vec<f64> = picked
        .iter()
        .step_by(step)
        .map(|p| {
            let cache = EngineCache::new();
            let t = Instant::now();
            std::hint::black_box(evaluate_with_model(p, &cache, seed, kind.cycle_model()));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

pub fn run(kind: Kind, seed: u64, seconds: u64, start: Start, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let reg_before = Registry::global().snapshot();
    let cpu_before = cpu_ms(std::process::id());
    let pass = cold_pass(kind, seed);
    let cold_cpu = cpu_before.and_then(|before| Ok(cpu_ms(std::process::id())? - before));
    let reg_delta = Registry::global().snapshot().since(&reg_before);
    let snap_path: PathBuf = out_dir.join(format!(
        "snapshot-{}-{}.bin",
        kind.name(),
        std::process::id()
    ));
    let warm = EngineCache::new();
    let saved = {
        let _s = span("engine.snapshot.save", None);
        snapshot::save(&pass.cache, &snap_path)
    };
    let loaded = {
        let _s = span("engine.snapshot.load", None);
        snapshot::load(&warm, &snap_path)
    };
    // Set-up cost is the process's CPU time from its start: the cold
    // pass's two sweep threads are CPU-bound, and the host's steal time
    // moves their wall time by more than any bound.
    let setup_s = start.cpu_ms().map(|ms| ms / 1e3);
    let setup_wall_s = start.wall.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&snap_path);
    out.attempted += 1;
    let snap_kb = match (&saved, &loaded) {
        (Ok(s), Ok(Some(l))) if s.entries == l.entries && l.entries == pass.cache.entry_count() => {
            s.bytes as f64 / 1024.0
        }
        (s, l) => {
            out.failed += 1;
            out.errors
                .push(format!("snapshot round trip: saved {s:?}, loaded {l:?}"));
            return out;
        }
    };
    check_cold(kind, &pass, seed, &mut out);

    let cold_hash = fnv1a(&pass.csv);
    let config = kind.config(seed);
    let mut cold_s = vec![pass.total.as_secs_f64()];
    let (mut cold_cpu_ms, setup_s) = match (cold_cpu, setup_s) {
        (Ok(ms), Ok(setup_s)) => (vec![ms], setup_s),
        (Err(e), _) | (_, Err(e)) => {
            out.errors.push(e);
            return out;
        }
    };
    let mut rss = Vec::new();
    let mut warm_ms = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    loop {
        out.attempted += 1;
        {
            let _s = span("bench.dse.child_pass", None);
            match child_pass(kind, seed) {
                Ok(child) => {
                    cold_s.push(child.wall_s);
                    cold_cpu_ms.push(child.cpu_ms);
                    rss.push(child.rss_mb);
                    if child.csv_hash != cold_hash {
                        out.check(Err(
                            "a cold pass in a fresh process rendered other bytes".into()
                        ));
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(e);
                }
            }
        }
        for i in 0..kind.warm_per_round() {
            out.attempted += 1;
            let t = Instant::now();
            let sweep = {
                let _s = span("dse.sweep.warm", None);
                sweep_with_cache(&pass.points, config, &warm)
            };
            warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
            // The byte comparison renders a CSV: once per round is enough;
            // every re-sweep is compared structurally.
            let same_rows = if i == 0 {
                to_csv(&sweep.results, &pass.front) == pass.csv
            } else {
                sweep.results == pass.outcome.results
            };
            out.check(check::check_warm(sweep.cache.misses(), same_rows));
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if rss.is_empty() || warm_ms.is_empty() {
        out.errors.push("no timed operation completed".into());
        return out;
    }

    let points = pass.points.len() as f64;
    let cold = median(&cold_s);
    if trace::enabled() {
        let stage = |name: &str| trace::durations_ms(name).first().copied().unwrap_or(0.0);
        let stats = pass.outcome.cache;
        let m = &mut out;
        m.metric("dse.space.enumerate_ms", stage("dse.space.enumerate"), "ms");
        m.metric("dse.sweep.cold_ms", stage("dse.sweep.cold"), "ms");
        m.metric("dse.pareto.front_ms", stage("dse.pareto.front"), "ms");
        m.metric("dse.emit.csv_ms", stage("dse.emit.csv"), "ms");
        for (metric, hist) in [
            ("engine.eval.serial_sample_ms", "eval_serial_sample_ns"),
            ("engine.eval.serial_analytic_ms", "eval_serial_analytic_ns"),
            ("engine.eval.model_assemble_ms", "eval_model_assemble_ns"),
            ("engine.eval.traffic_ms", "eval_traffic_ns"),
            ("engine.eval.synthesis_ms", "eval_synthesis_ns"),
            ("engine.eval.price_assemble_ms", "eval_price_assemble_ns"),
        ] {
            m.metric(metric, hist_ms(&reg_delta, hist), "ms");
        }
        let model = |p: &DesignPoint| matches!(p.workload, SweepWorkload::Model(_));
        m.metric(
            "engine.eval.point_dense_us",
            point_us(&pass.points, kind, seed, |p| {
                !model(p) && !p.style().is_serial()
            }),
            "us",
        );
        m.metric(
            "engine.eval.point_serial_us",
            point_us(&pass.points, kind, seed, |p| {
                !model(p) && p.style().is_serial()
            }),
            "us",
        );
        m.metric(
            "engine.eval.point_model_us",
            point_us(&pass.points, kind, seed, model),
            "us",
        );
        m.metric(
            "engine.cache.price_misses",
            stats.price_misses as f64,
            "count",
        );
        m.metric(
            "engine.cache.cycle_misses",
            stats.cycle_misses as f64,
            "count",
        );
        m.metric(
            "engine.cache.model_misses",
            stats.model_misses as f64,
            "count",
        );
        m.metric("engine.cache.hit_ratio", stats.hit_rate(), "ratio");
        m.metric(
            "engine.cache.entries",
            pass.cache.entry_count() as f64,
            "count",
        );
        m.metric(
            "engine.snapshot.save_ms",
            stage("engine.snapshot.save"),
            "ms",
        );
        m.metric(
            "engine.snapshot.load_ms",
            stage("engine.snapshot.load"),
            "ms",
        );
        m.metric("engine.snapshot.kb", snap_kb, "kB");
    }
    out.metric("setup_s", setup_s, "s");
    out.metric("setup_wall_s", setup_wall_s, "s");
    out.metric("cold_cpu_ms", median(&cold_cpu_ms), "ms");
    out.metric("warm_p50_ms", median(&warm_ms), "ms");
    out.metric("cold_ms", cold * 1e3, "ms");
    out.metric("p90_ms", quantile(&warm_ms, 0.9), "ms");
    out.metric("p99_ms", quantile(&warm_ms, 0.99), "ms");
    out.metric("qps", points / cold, "1/s");
    out.metric("peak_rss_mb", median(&rss), "MB");
    out
}
