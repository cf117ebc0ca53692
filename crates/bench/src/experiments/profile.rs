//! The `repro profile` command: a cold + warm instrumented workload over
//! a fresh [`EngineCache`], reporting where evaluation time actually goes
//! from the `tpe-obs` per-stage histograms the evaluator records into
//! (`eval_synthesis_ns`, `eval_price_assemble_ns`, `eval_serial_sample_ns`,
//! `eval_serial_analytic_ns`, `eval_model_assemble_ns`, `eval_traffic_ns`).
//!
//! The cold phase prices the full Table VII roster, evaluates the default
//! sweep layer slice across it, and runs ResNet18 end to end on a serial
//! and a dense engine. The warm phase reruns the identical workload on the
//! now-hot cache — the cold-only spans live inside the cache-miss
//! closures, so their per-stage deltas collapse to (near) zero and the
//! wall-clock ratio is the cache's speedup. A warm micro-loop then times
//! cached pricing with and without instrumentation
//! (`Evaluator::price` vs `price_uninstrumented`) to pin the
//! observability overhead of the hot path in ns/call.
//!
//! `--out F.json` archives the stage table as `BENCH_profile.json`
//! (CI asserts `dominant_cold_stage` stays `serial_sample` — the paper's
//! serial-cycle sampling is the workload-dependent cost center).
//! `--cycle-model analytic` swaps the Monte-Carlo sampler for the
//! closed-form convolution path; CI runs a second profile in that mode
//! and asserts serial-cycle evaluation no longer dominates the cold
//! path (the `eval_serial_analytic_ns` stage is orders of magnitude
//! cheaper than the sampled one it replaces).

use std::fmt::Write as _;
use std::time::Instant;

use tpe_dse::space::default_workloads;
use tpe_engine::{roster, CycleModel, EngineCache, Evaluator, SweepWorkload};
use tpe_obs::{Registry, Snapshot};
use tpe_workloads::models;

/// The evaluator stages profiled, as registered in `tpe-engine::eval`
/// (name in the registry = `eval_<stage>_ns`). `model_assemble` is the
/// dedup'd whole-model walk behind the model map's miss path;
/// `traffic` is the roofline's per-layer byte accounting (recorded on
/// model-record assembly and on every bare-layer metrics call).
const STAGES: [&str; 6] = [
    "synthesis",
    "price_assemble",
    "serial_sample",
    "serial_analytic",
    "model_assemble",
    "traffic",
];

/// One stage's windowed numbers, pulled from a snapshot delta.
struct StageWindow {
    name: &'static str,
    calls: u64,
    total_ms: f64,
    mean_us: f64,
    p99_us: f64,
}

/// Extracts the stage windows from a `Registry` snapshot delta.
fn stage_windows(delta: &Snapshot) -> Vec<StageWindow> {
    STAGES
        .iter()
        .map(|stage| {
            let h = delta
                .histogram(&format!("eval_{stage}_ns"))
                .cloned()
                .unwrap_or_default();
            StageWindow {
                name: stage,
                calls: h.count(),
                total_ms: h.sum as f64 / 1e6,
                mean_us: h.mean() / 1e3,
                p99_us: h.quantile(0.99) as f64 / 1e3,
            }
        })
        .collect()
}

/// The profiled workload: every roster engine priced, the default sweep
/// layer slice evaluated across the roster, and ResNet18 end to end on
/// one serial and one dense engine. `quick` shrinks every axis so tests
/// stay fast while still touching each stage.
fn run_workload(
    cache: &EngineCache,
    seed: u64,
    quick: bool,
    cycle_model: CycleModel,
) -> (usize, usize, usize) {
    let eval = Evaluator::new(cache).with_cycle_model(cycle_model);
    let all = roster::paper_roster();
    // Quick keeps two dense + two serial engines so every stage still
    // sees calls (serial_sample only runs on serial-style engines).
    let engines: Vec<_> = if quick {
        vec![
            all[0].clone(),
            all[4].clone(),
            all[10].clone(),
            all[11].clone(),
        ]
    } else {
        all
    };
    let layers: Vec<SweepWorkload> = default_workloads()
        .into_iter()
        .filter(|w| matches!(w, SweepWorkload::Layer(_)))
        .take(if quick { 2 } else { usize::MAX })
        .collect();

    let mut priced = 0usize;
    for spec in &engines {
        priced += usize::from(eval.price(spec).is_some());
    }
    let mut layer_points = 0usize;
    for spec in &engines {
        for w in &layers {
            layer_points += usize::from(eval.metrics(spec, w, seed).is_some());
        }
    }
    // ResNet18 end to end: the serial engine drives `serial_sample` +
    // `model_assemble`, the dense one is the assembly-only contrast.
    let net = models::resnet18();
    let model_engines: Vec<&str> = if quick {
        vec!["OPT4E[EN-T]/28nm@2.00GHz"]
    } else {
        vec!["OPT4E[EN-T]/28nm@2.00GHz", "MAC(TPU)/28nm@1.00GHz"]
    };
    let mut model_runs = 0usize;
    for name in model_engines {
        let spec = roster::find(name).expect("roster engine");
        model_runs += usize::from(eval.model_report(&spec, &net, seed).is_some());
    }
    (priced, layer_points, model_runs)
}

/// Median ns/call of `f` over `iters`-call samples (median of 5).
fn time_ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Runs the cold/warm profile (`repro profile [--quick] [--seed S]
/// [--cycle-model sampled|analytic] [--out F.json]`).
pub fn profile(args: &[String]) -> String {
    match try_profile(args) {
        Ok(report) => report,
        Err(msg) => {
            format!(
                "error: {msg}\nusage: repro profile [--quick] [--seed S] \
                 [--cycle-model sampled|analytic] [--out F.json]\n"
            )
        }
    }
}

fn try_profile(args: &[String]) -> Result<String, String> {
    let mut quick = false;
    let mut seed: u64 = 42;
    let mut cycle_model = CycleModel::Sampled;
    let mut out_json: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--cycle-model" => {
                let v = it.next().ok_or("--cycle-model needs a value")?;
                cycle_model = CycleModel::parse(v)
                    .ok_or_else(|| format!("unknown cycle model `{v}` (sampled|analytic)"))?;
            }
            "--out" => out_json = Some(it.next().ok_or("--out needs a value")?.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }

    // A fresh cache so "cold" means cold; the stage histograms live in the
    // process-wide registry, so the windows below are snapshot deltas.
    let cache = EngineCache::new();
    let registry = Registry::global();

    let snap0 = registry.snapshot();
    let t0 = Instant::now();
    let (priced, layer_points, model_runs) = run_workload(&cache, seed, quick, cycle_model);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snap1 = registry.snapshot();
    let t1 = Instant::now();
    run_workload(&cache, seed, quick, cycle_model);
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
    let snap2 = registry.snapshot();

    let cold = stage_windows(&snap1.since(&snap0));
    let warm = stage_windows(&snap2.since(&snap1));
    let instrumented_ms: f64 = cold.iter().map(|s| s.total_ms).sum();
    let dominant = cold
        .iter()
        .max_by(|a, b| a.total_ms.total_cmp(&b.total_ms))
        .expect("stages");
    let dominant_share = if instrumented_ms > 0.0 {
        dominant.total_ms / instrumented_ms
    } else {
        0.0
    };
    // The serial-cycle cost center across both backends: the share CI
    // gates on (sampled mode must stay dominated by it, analytic mode
    // must not be).
    let serial_ms: f64 = cold
        .iter()
        .filter(|s| s.name.starts_with("serial_"))
        .map(|s| s.total_ms)
        .sum();
    let serial_cold_share = if instrumented_ms > 0.0 {
        serial_ms / instrumented_ms
    } else {
        0.0
    };

    // Warm hot-path micro-loop: cached pricing with vs without the
    // per-call instrumentation (one relaxed counter inc).
    let eval = Evaluator::new(&cache);
    let spec = &roster::paper_roster()[0];
    let iters = if quick { 2_000 } else { 20_000 };
    let warm_price_ns = time_ns_per_call(iters, || {
        std::hint::black_box(eval.price(std::hint::black_box(spec)));
    });
    let warm_price_uninstr_ns = time_ns_per_call(iters, || {
        std::hint::black_box(eval.price_uninstrumented(std::hint::black_box(spec)));
    });
    let overhead_ns = warm_price_ns - warm_price_uninstr_ns;

    let mut out = String::new();
    writeln!(
        out,
        "repro profile — cold vs warm instrumented workload over a fresh cache \
         (seed {seed}, cycle model {}{})",
        cycle_model.name(),
        if quick { ", --quick" } else { "" }
    )
    .unwrap();
    writeln!(
        out,
        "cold: {priced} engines priced, {layer_points} layer points, \
         {model_runs} ResNet18 run(s) in {cold_ms:.1} ms; \
         warm rerun of the same workload: {warm_ms:.1} ms ({:.0}x)",
        cold_ms / warm_ms.max(1e-9),
    )
    .unwrap();
    writeln!(
        out,
        "\nper-stage (cold window, from the tpe-obs eval histograms):\n\
         {:<16} {:>7} {:>11} {:>10} {:>10}",
        "stage", "calls", "total ms", "mean µs", "p99 µs"
    )
    .unwrap();
    for s in &cold {
        writeln!(
            out,
            "{:<16} {:>7} {:>11.2} {:>10.1} {:>10.1}",
            s.name, s.calls, s.total_ms, s.mean_us, s.p99_us
        )
        .unwrap();
    }
    writeln!(
        out,
        "dominant cold stage: {} ({:.1}% of the {:.1} ms instrumented time)",
        dominant.name,
        dominant_share * 100.0,
        instrumented_ms,
    )
    .unwrap();
    writeln!(
        out,
        "serial-cycle share of the cold path: {:.1}% ({serial_ms:.2} ms)",
        serial_cold_share * 100.0,
    )
    .unwrap();
    // Every cold-only stage span lives inside a cache-miss closure (the
    // model map covers whole-model assembly too), so the warm rerun
    // records nothing for them. `traffic` is the exception: bare-layer
    // metrics recompute their allocation-free byte accounting per call,
    // so it records warm too and stays out of this zero check.
    let warm_cold_path_calls: u64 = warm
        .iter()
        .filter(|s| s.name != "traffic")
        .map(|s| s.calls)
        .sum();
    writeln!(
        out,
        "warm window cold-path records (all stages incl. model_assemble): {} \
         — cache hits skip the spans entirely",
        warm_cold_path_calls,
    )
    .unwrap();
    writeln!(
        out,
        "warm cached price: {warm_price_ns:.1} ns/call instrumented vs \
         {warm_price_uninstr_ns:.1} ns/call uninstrumented ({overhead_ns:+.1} ns observability \
         overhead)",
    )
    .unwrap();

    if let Some(path) = &out_json {
        let stages_json: Vec<String> = cold
            .iter()
            .map(|s| {
                format!(
                    "    \"{}\": {{\"calls\": {}, \"total_ms\": {:.3}, \"mean_us\": {:.2}, \
                     \"p99_us\": {:.2}}}",
                    s.name, s.calls, s.total_ms, s.mean_us, s.p99_us
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"seed\": {seed},\n  \"quick\": {quick},\n  \
             \"cycle_model\": \"{}\",\n  \"cold_ms\": {cold_ms:.3},\n  \
             \"warm_ms\": {warm_ms:.3},\n  \"stages_cold\": {{\n{}\n  }},\n  \
             \"dominant_cold_stage\": \"{}\",\n  \"dominant_share\": {dominant_share:.4},\n  \
             \"serial_cold_share\": {serial_cold_share:.4},\n  \
             \"serial_cold_ms\": {serial_ms:.3},\n  \
             \"warm_price_ns_instrumented\": {warm_price_ns:.1},\n  \
             \"warm_price_ns_uninstrumented\": {warm_price_uninstr_ns:.1},\n  \
             \"warm_price_overhead_ns\": {overhead_ns:.1}\n}}\n",
            cycle_model.name(),
            stages_json.join(",\n"),
            dominant.name,
        );
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(out, "profile written to {path}").unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Structural check on the quick profile: every stage row renders,
    /// the workload exercised each cold stage, and the JSON artifact
    /// carries the fields CI pins. (Dominance itself is asserted by CI
    /// on a standalone full run — inside this parallel test binary other
    /// tests record into the same global histograms.)
    #[test]
    fn quick_profile_renders_stages_and_json() {
        let out_path = std::env::temp_dir().join("tpe_profile_test.json");
        let out = out_path.to_str().unwrap().to_string();
        let report = profile(&args(&["--quick", "--out", &out]));
        assert!(!report.starts_with("error:"), "{report}");
        for stage in STAGES {
            assert!(report.contains(stage), "missing stage {stage}: {report}");
        }
        assert!(report.contains("dominant cold stage:"), "{report}");
        assert!(report.contains("warm cached price:"), "{report}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        for field in [
            "\"dominant_cold_stage\"",
            "\"stages_cold\"",
            "\"serial_sample\"",
            "\"warm_price_overhead_ns\"",
            "\"quick\": true",
        ] {
            assert!(json.contains(field), "missing {field}: {json}");
        }
        let _ = std::fs::remove_file(&out_path);
    }

    /// The analytic profile runs the same workload through the
    /// closed-form path: the report and JSON carry the mode, and the
    /// cold window records into `serial_analytic` instead of
    /// `serial_sample` rows (dominance itself is a CI assertion on a
    /// standalone run, as above).
    #[test]
    fn analytic_profile_records_the_analytic_stage() {
        let out_path = std::env::temp_dir().join("tpe_profile_analytic_test.json");
        let out = out_path.to_str().unwrap().to_string();
        let report = profile(&args(&[
            "--quick",
            "--cycle-model",
            "analytic",
            "--out",
            &out,
        ]));
        assert!(!report.starts_with("error:"), "{report}");
        assert!(report.contains("cycle model analytic"), "{report}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.contains("\"cycle_model\": \"analytic\""), "{json}");
        assert!(json.contains("\"serial_analytic\""), "{json}");
        let _ = std::fs::remove_file(&out_path);
    }

    #[test]
    fn bad_flags_render_usage() {
        assert!(profile(&args(&["--bogus"])).contains("usage:"));
        assert!(profile(&args(&["--seed", "x"])).contains("usage:"));
        assert!(profile(&args(&["--seed"])).contains("usage:"));
        assert!(profile(&args(&["--cycle-model", "warp"])).contains("usage:"));
    }
}
