//! Criterion benchmark (vendored shim) for the `tpe-engine` evaluator hot
//! path: cold vs cached pricing (per operand precision — the `price_*`
//! scenarios are the W8 baseline, `*_w4`/`*_w16` track the precision-keyed
//! cache) and the dense/serial cycle estimates — the unit of work every
//! sweep point, grid cell and serve query pays.
//!
//! Each scenario is timed once: the median printed as
//! `evaluator/name: N ns/iter` is the number written to
//! `BENCH_evaluator.json` (flat JSON, median ns per scenario), so CI and
//! future changes can track the perf trajectory mechanically.

use std::hint::black_box;
use std::time::Instant;

use tpe_arith::encode::EncodingKind;
use tpe_arith::Precision;
use tpe_core::arch::PeStyle;
use tpe_engine::schedule::cached_serial_cycles;
use tpe_engine::{
    CycleModel, EngineCache, EngineSpec, Evaluator, SampleProfile, SerialSampleCaps, SweepWorkload,
};
use tpe_sim::array::ClassicArch;
use tpe_workloads::{models, LayerShape, NetworkModel};

fn serial_spec() -> EngineSpec {
    EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0)
}

fn dense_spec() -> EngineSpec {
    EngineSpec::dense(PeStyle::Opt1, ClassicArch::Tpu, 1.5)
}

fn probe_layer() -> LayerShape {
    LayerShape::new("bench-probe", 64, 256, 128, 1)
}

/// One benchmark scenario: a named closure performing one unit of the
/// hot path.
type Scenario = (&'static str, Box<dyn FnMut() -> f64>);

/// The benchmark scenarios.
fn scenarios() -> Vec<Scenario> {
    let caps = SampleProfile::Sweep.caps();
    let net: &'static NetworkModel = &*Box::leak(Box::new(models::resnet18()));
    let warm = EngineCache::new();
    // Warm the shared cache once so the `_cached` scenarios measure pure
    // lookup + assembly (per precision: W4/W8/W16 are distinct keys).
    for p in [Precision::W8, Precision::W4, Precision::W16] {
        Evaluator::new(&warm).price(&serial_spec().with_precision(p));
    }
    Evaluator::new(&warm).price(&dense_spec());
    cached_serial_cycles(&warm, &serial_spec(), &probe_layer(), 42, caps);
    Evaluator::new(&warm).model_report(&serial_spec(), net, 42);
    let warm: &'static EngineCache = &*Box::leak(Box::new(warm));

    let price_cold = |p: Precision| -> Scenario {
        let name = match p {
            Precision::W4 => "price_cold_w4",
            Precision::W16 => "price_cold_w16",
            _ => "price_cold",
        };
        (
            name,
            Box::new(move || {
                let cache = EngineCache::new();
                let spec = serial_spec().with_precision(p);
                let price = Evaluator::new(&cache).price(&spec).unwrap();
                black_box(price.area_um2)
            }),
        )
    };
    let price_cached = |p: Precision| -> Scenario {
        let name = match p {
            Precision::W4 => "price_cached_w4",
            Precision::W16 => "price_cached_w16",
            _ => "price_cached",
        };
        (
            name,
            Box::new(move || {
                let spec = serial_spec().with_precision(p);
                let price = Evaluator::new(warm).price(&spec).unwrap();
                black_box(price.area_um2)
            }),
        )
    };

    vec![
        price_cold(Precision::W8),
        price_cached(Precision::W8),
        (
            // The tpe-obs overhead pin: identical to `price_cached` minus
            // the per-call counter increment. The delta between the two
            // medians is the instrumentation cost of the warm path.
            "price_cached_uninstr",
            Box::new(|| {
                let price = Evaluator::new(warm)
                    .price_uninstrumented(&serial_spec())
                    .unwrap();
                black_box(price.area_um2)
            }),
        ),
        price_cold(Precision::W4),
        price_cached(Precision::W4),
        price_cold(Precision::W16),
        price_cached(Precision::W16),
        (
            "dense_layer_metrics",
            Box::new(|| {
                let w = SweepWorkload::Layer(probe_layer());
                let m = Evaluator::new(warm).metrics(&dense_spec(), &w, 42).unwrap();
                black_box(m.delay_us)
            }),
        ),
        (
            "serial_cycles_cold",
            Box::new(move || {
                let cache = EngineCache::new();
                let rec = cached_serial_cycles(&cache, &serial_spec(), &probe_layer(), 42, caps);
                black_box(rec.cycles)
            }),
        ),
        (
            "serial_cycles_cached",
            Box::new(move || {
                let rec = cached_serial_cycles(warm, &serial_spec(), &probe_layer(), 42, caps);
                black_box(rec.cycles)
            }),
        ),
        (
            // A whole ResNet-18 report from an empty cache: synthesis +
            // the dedup'd per-layer walk. The model-map counterpart below
            // must beat this by ≥ 10× (CI-pinned).
            "model_report_cold",
            Box::new(move || {
                let cache = EngineCache::new();
                let r = Evaluator::new(&cache)
                    .model_report(&serial_spec(), net, 42)
                    .unwrap();
                black_box(r.totals.delay_us)
            }),
        ),
        (
            // Same request against the pre-warmed cache: one model-map
            // lookup handing out Arc-backed rows — no per-layer rewalk,
            // no row re-clones.
            "model_report_warm",
            Box::new(move || {
                let r = Evaluator::new(warm)
                    .model_report(&serial_spec(), net, 42)
                    .unwrap();
                black_box(r.totals.delay_us)
            }),
        ),
        (
            // The closed-form replacement for `serial_cycles_cold`: same
            // cold cache, same probe layer, `--cycle-model analytic`. The
            // ratio between the two cold medians is the headline speedup
            // of this cycle model (CI pins it at ≥ 50×).
            "serial_cycles_cold_analytic",
            Box::new(move || {
                let cache = EngineCache::new();
                let analytic_caps = SerialSampleCaps {
                    model: CycleModel::Analytic,
                    ..caps
                };
                let rec =
                    cached_serial_cycles(&cache, &serial_spec(), &probe_layer(), 42, analytic_caps);
                black_box(rec.cycles)
            }),
        ),
        (
            // The pure traffic model: per-layer operand/weight/output
            // bytes from the tiling geometry, no cache involved — the
            // marginal cost the roofline adds to every layer row.
            "traffic_cold",
            Box::new(|| {
                let t = tpe_engine::layer_traffic(&serial_spec(), &probe_layer());
                black_box(t.total_bytes())
            }),
        ),
        (
            // `model_report_cold` under a DRAM-starved corner: the same
            // synthesis + layer walk plus a roofline application per
            // layer. Its overhead over the unbounded cold median is the
            // full memory-hierarchy tax on whole-model evaluation.
            "model_report_membound",
            Box::new(move || {
                let cache = EngineCache::new();
                let spec = serial_spec().with_memory(tpe_engine::MemorySpec::edge());
                let r = Evaluator::new(&cache).model_report(&spec, net, 42).unwrap();
                black_box(r.totals.delay_us)
            }),
        ),
    ]
}

/// Median ns/iter over `samples` timed samples after a short warm-up.
fn measure(f: &mut dyn FnMut() -> f64, samples: usize) -> f64 {
    for _ in 0..3 {
        black_box(f());
    }
    // Scale iterations so one sample is ~1 ms or at least one call.
    let probe = Instant::now();
    black_box(f());
    let per_iter = probe.elapsed();
    let iters = (1_000_000u128 / per_iter.as_nanos().max(1)).clamp(1, 10_000) as usize;
    let mut medians: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    medians.sort_by(|a, b| a.total_cmp(b));
    medians[medians.len() / 2]
}

/// Times every scenario, prints its median and writes the same medians
/// to `BENCH_evaluator.json`: the perf-trajectory artifact.
fn main() {
    let mut entries = Vec::new();
    for (name, mut f) in scenarios() {
        let ns = measure(&mut f, 9);
        println!("evaluator/{name}: {ns:.1} ns/iter");
        entries.push(format!(
            "    {{\"name\": \"{name}\", \"ns_per_iter\": {ns:.1}}}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"evaluator\",\n  \"unit\": \"ns/iter\",\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    // Default to the workspace root regardless of cargo's bench CWD.
    let path = std::env::var("BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_evaluator.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, &json).expect("writing BENCH_evaluator.json");
    println!("wrote {path}");
}
