//! The `repro models` experiment: run every network of the Figure 12/13
//! sweep end-to-end through the `tpe-dse` model grid on the full Table
//! VII engine roster, and render per-model reports.
//!
//! ```text
//! repro models [--model SUBSTR] [--arch SUBSTR] [--threads N] [--seed S]
//!              [--out models.csv] [--json models.json]
//! ```
//!
//! Like `repro dse`, the grid runs twice — once on one thread, once on
//! `--threads` workers — to measure scaling and *prove* the parallel run
//! emits byte-identical CSV to the serial reference.

use std::fmt::Write as _;

use tpe_dse::emit::{model_csv, model_json};
use tpe_dse::{run_grid, ModelRun, SweepConfig};
use tpe_engine::{CycleModel, EngineCache, EngineSpec};
use tpe_workloads::NetworkModel;

/// Parsed CLI options for the model grid.
struct ModelOptions {
    model_filter: String,
    arch_filter: String,
    precision: Option<tpe_dse::Precision>,
    config: SweepConfig,
    out_csv: Option<String>,
    out_json: Option<String>,
    cache_load: Option<String>,
    cache_save: Option<String>,
}

fn parse_options(args: &[String]) -> Result<ModelOptions, String> {
    let mut opts = ModelOptions {
        model_filter: String::new(),
        arch_filter: String::new(),
        precision: None,
        config: SweepConfig::default(),
        out_csv: None,
        out_json: None,
        cache_load: None,
        cache_save: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--model" => opts.model_filter = value("--model")?,
            "--arch" => opts.arch_filter = value("--arch")?,
            "--precision" => {
                let v = value("--precision")?;
                opts.precision = Some(
                    tpe_dse::Precision::parse(&v)
                        .ok_or_else(|| format!("unknown precision `{v}`"))?,
                );
            }
            "--threads" => {
                opts.config.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--seed" => {
                opts.config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--cycle-model" => {
                let v = value("--cycle-model")?;
                opts.config.cycle_model = CycleModel::parse(&v)
                    .ok_or_else(|| format!("unknown cycle model `{v}` (sampled|analytic)"))?;
            }
            "--out" => opts.out_csv = Some(value("--out")?),
            "--json" => opts.out_json = Some(value("--json")?),
            "--cache-load" => opts.cache_load = Some(value("--cache-load")?),
            "--cache-save" => opts.cache_save = Some(value("--cache-save")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

/// Runs the model-level pipeline grid and renders the report.
pub fn models(args: &[String]) -> String {
    match try_models(args) {
        Ok(report) => report,
        Err(msg) => format!(
            "error: {msg}\nusage: repro models [--model SUBSTR] [--arch SUBSTR] \
             [--precision W4|W8|W16|W8xW4] [--cycle-model sampled|analytic] \
             [--threads N] [--seed S] [--out FILE.csv] [--json FILE.json] \
             [--cache-load F.bin] [--cache-save F.bin]\n"
        ),
    }
}

fn try_models(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    let model_needle = opts.model_filter.to_ascii_lowercase();
    // The catalog: the ten Figure 12/13 networks when unfiltered, with the
    // mixed-precision presets (ResNet18-W4) reachable by name.
    let pool = if model_needle.is_empty() {
        NetworkModel::all()
    } else {
        NetworkModel::catalog()
    };
    let nets: Vec<NetworkModel> = pool
        .into_iter()
        .filter(|n| model_needle.is_empty() || n.name.to_ascii_lowercase().contains(&model_needle))
        .collect();
    if nets.is_empty() {
        return Err(format!("no network matches `{}`", opts.model_filter));
    }
    let arch_needle = opts.arch_filter.to_ascii_lowercase();
    // `--precision` reprices the whole roster at that operand width (the
    // default W8 keeps the Table VII roster byte-identical).
    let engines: Vec<EngineSpec> = EngineSpec::paper_roster()
        .into_iter()
        .map(|e| match opts.precision {
            Some(p) => e.with_precision(p),
            None => e,
        })
        .filter(|e| arch_needle.is_empty() || e.label().to_ascii_lowercase().contains(&arch_needle))
        .collect();
    if engines.is_empty() {
        return Err(format!("no engine matches `{}`", opts.arch_filter));
    }

    // Each grid runs over its own fresh cache, so the N-thread grid
    // recomputes every record instead of reading the 1-thread grid's, and
    // the equality check below compares two independent computations. A
    // `--cache-load` snapshot warms the N-thread grid's cache, which is
    // also the one `--cache-save` writes.
    let serial_cache = EngineCache::new();
    let parallel_cache = EngineCache::new();
    let load_note = super::dse::cache_load_note(opts.cache_load.as_deref(), &parallel_cache)?;

    let serial = run_grid(
        &nets,
        &engines,
        SweepConfig {
            threads: 1,
            ..opts.config
        },
        &serial_cache,
    );
    let parallel = run_grid(&nets, &engines, opts.config, &parallel_cache);
    let csv = model_csv(&parallel.runs);
    assert_eq!(
        model_csv(&serial.runs),
        csv,
        "parallel model grid diverged from the serial reference"
    );
    let save_note = super::dse::cache_save_note(opts.cache_save.as_deref(), &parallel_cache)?;

    if let Some(path) = &opts.out_csv {
        std::fs::write(path, &csv).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = &opts.out_json {
        std::fs::write(path, model_json(&parallel.runs))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }

    let mut out = String::new();
    writeln!(
        out,
        "Model-level scheduling pipeline — {} network(s) × {} engine(s) \
         (img2col tiling → per-layer cycle/energy model → end-to-end aggregation)",
        nets.len(),
        engines.len()
    )
    .unwrap();
    if opts.config.cycle_model != CycleModel::Sampled {
        writeln!(
            out,
            "cycle model: {} (closed-form serial cycles; seed-independent)",
            opts.config.cycle_model.name()
        )
        .unwrap();
    }
    if !opts.model_filter.is_empty() || !opts.arch_filter.is_empty() {
        writeln!(
            out,
            "filters: model `{}`, arch `{}`",
            opts.model_filter, opts.arch_filter
        )
        .unwrap();
    }
    out.push_str(&load_note);
    out.push_str(&save_note);
    writeln!(
        out,
        "grid wall-clock: {:.0} ms on 1 thread, {:.0} ms on {} threads \
         (outputs byte-identical)",
        serial.elapsed.as_secs_f64() * 1e3,
        parallel.elapsed.as_secs_f64() * 1e3,
        parallel.threads,
    )
    .unwrap();

    for net in &nets {
        let runs: Vec<&ModelRun> = parallel
            .runs
            .iter()
            .filter(|r| r.model == net.name)
            .collect();
        writeln!(
            out,
            "\n{} — {} layers, {:.2} GMACs:",
            net.name,
            net.layers.len(),
            net.total_macs() as f64 / 1e9
        )
        .unwrap();
        writeln!(
            out,
            "| {:<26} | {:>10} | {:>8} | {:>9} | {:>6} | {:>9} | {:>7} |",
            "engine", "delay(ms)", "GOPS", "peak TOPS", "util", "energy(mJ)", "TOPS/W"
        )
        .unwrap();
        writeln!(
            out,
            "|{:-<28}|{:-<12}|{:-<10}|{:-<11}|{:-<8}|{:-<11}|{:-<9}|",
            "", "", "", "", "", "", ""
        )
        .unwrap();
        let mut best: Option<(&ModelRun, f64)> = None;
        for run in runs {
            match run.report.as_ref().map(|r| &r.totals) {
                Some(r) => {
                    writeln!(
                        out,
                        "| {:<26} | {:>10.3} | {:>8.1} | {:>9.2} | {:>6.3} | {:>9.3} | {:>7.2} |",
                        run.engine.label(),
                        r.delay_us / 1e3,
                        r.throughput_gops(),
                        r.peak_tops,
                        r.utilization,
                        r.energy_uj / 1e3,
                        r.tops_per_w(),
                    )
                    .unwrap();
                    if best.as_ref().is_none_or(|&(_, d)| r.delay_us < d) {
                        best = Some((run, r.delay_us));
                    }
                }
                None => {
                    writeln!(
                        out,
                        "| {:<26} | {:>10} | {:>8} | {:>9} | {:>6} | {:>9} | {:>7} |",
                        run.engine.label(),
                        "— fails",
                        "timing",
                        "—",
                        "—",
                        "—",
                        "—"
                    )
                    .unwrap();
                }
            }
        }
        if let Some((run, _)) = best {
            writeln!(out, "fastest: {}", run.engine.label()).unwrap();
        }
    }
    if let Some(path) = &opts.out_csv {
        writeln!(out, "\nfull grid written to {path}").unwrap();
    }
    if let Some(path) = &opts.out_json {
        writeln!(out, "grid + per-layer JSON written to {path}").unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// A filtered grid renders the full report structure (dense engines
    /// only, to stay fast in debug test runs).
    #[test]
    fn filtered_models_report_renders() {
        let report = models(&args(&[
            "--model",
            "resnet18",
            "--arch",
            "OPT1",
            "--threads",
            "2",
        ]));
        assert!(report.contains("ResNet18"), "{report}");
        assert!(report.contains("fastest:"), "{report}");
        assert!(report.contains("byte-identical"), "{report}");
        assert!(report.contains("TOPS/W"), "{report}");
    }

    /// `--precision` reprices the roster (labels carry the suffix) and the
    /// quantized preset resolves through the catalog.
    #[test]
    fn precision_flag_and_quantized_preset_render() {
        let report = models(&args(&[
            "--model",
            "resnet18",
            "--arch",
            "OPT1(TPU)",
            "--precision",
            "w16",
            "--threads",
            "2",
        ]));
        assert!(report.contains("@W16"), "{report}");
        assert!(report.contains("ResNet18-W4"), "catalog preset: {report}");
        assert!(report.contains("fastest:"), "{report}");
    }

    /// `--cycle-model analytic` runs the whole grid through the
    /// closed-form serial-cycle path and reports the mode (default
    /// sampled output stays byte-identical — no mode line at all).
    #[test]
    fn analytic_cycle_model_flag_reports_the_mode() {
        let report = models(&args(&[
            "--model",
            "resnet18",
            "--arch",
            "OPT4E[EN-T]",
            "--cycle-model",
            "analytic",
            "--threads",
            "2",
        ]));
        assert!(report.contains("cycle model: analytic"), "{report}");
        assert!(report.contains("fastest:"), "{report}");
    }

    /// `--cache-save`/`--cache-load` thread the shared snapshot helpers
    /// through the grid command.
    #[test]
    fn cache_flags_save_and_load() {
        let path = std::env::temp_dir().join(format!("tpe-models-snap-{}.bin", std::process::id()));
        let p = path.to_str().unwrap();
        let grid = &[
            "--model",
            "resnet18",
            "--arch",
            "OPT1(TPU)",
            "--threads",
            "2",
        ];
        let saved = models(&args(&[grid as &[&str], &["--cache-save", p]].concat()));
        assert!(
            saved.contains(&format!("cache snapshot saved to {p}")),
            "{saved}"
        );
        let loaded = models(&args(&[grid as &[&str], &["--cache-load", p]].concat()));
        assert!(
            loaded.contains(&format!("cache snapshot loaded from {p}")),
            "{loaded}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_flags_render_usage() {
        assert!(models(&args(&["--bogus"])).contains("usage:"));
        assert!(models(&args(&["--cycle-model", "fast"])).contains("usage:"));
        assert!(models(&args(&["--model", "no-such-net"])).contains("no network"));
        assert!(models(&args(&["--arch", "no-such-engine"])).contains("no engine"));
        assert!(models(&args(&["--precision", "w99"])).contains("usage:"));
    }
}
