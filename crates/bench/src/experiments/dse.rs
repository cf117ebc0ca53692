//! The `repro dse` experiment: sweep the full design space in parallel,
//! extract the Pareto front, and report cache + scaling behaviour.
//!
//! ```text
//! repro dse [--filter SUBSTR] [--objectives area,delay,energy]
//!           [--model SUBSTR] [--threads N] [--seed S]
//!           [--out sweep.csv] [--json sweep.json]
//! ```
//!
//! The sweep runs twice — once on one thread, once on `--threads` workers
//! — both to measure the parallel speedup and to *prove* the parallel run
//! is byte-identical to the serial one (the executor's determinism
//! contract).
//!
//! `--model` swaps the workload axis for whole networks (matched by name
//! substring; `--model all` keeps every Figure 12/13 network), so the
//! Pareto front is extracted over *end-to-end model* objectives instead
//! of single layers. The default space also carries ResNet-18 end-to-end
//! as its seventh workload.
//!
//! `--memory` grows the memory axis beyond the default `Unbounded`
//! corner: a comma list of roster corner names (`edge,hbm`) or `all` for
//! every named corner. Each point then carries the roofline-bounded
//! delay, its `bytes_moved`/`intensity_ops_per_byte` traffic numbers and
//! a `bound` column, and `--filter memory=<name>` slices the axis
//! exactly.

use std::fmt::Write as _;

use tpe_dse::emit::{to_csv, to_json};
use tpe_dse::{
    pareto_front_per_workload, sweep, sweep_with_cache, CycleModel, EngineCache, Objective,
    SweepConfig,
};

/// Parsed CLI options for the sweep.
struct DseOptions {
    filter: String,
    objectives: Vec<Objective>,
    model: Option<String>,
    precisions: Option<Vec<tpe_dse::Precision>>,
    memories: Option<Vec<tpe_engine::MemorySpec>>,
    threads: usize,
    seed: u64,
    cycle_model: CycleModel,
    out_csv: Option<String>,
    out_json: Option<String>,
    cache_load: Option<String>,
    cache_save: Option<String>,
}

/// Parses a comma-separated precision list ("w4,w8,w16").
fn parse_precisions(list: &str) -> Result<Vec<tpe_dse::Precision>, String> {
    let precisions: Vec<tpe_dse::Precision> = list
        .split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| {
            tpe_dse::Precision::parse(part.trim())
                .ok_or_else(|| format!("unknown precision `{part}`"))
        })
        .collect::<Result<_, _>>()?;
    if precisions.is_empty() {
        return Err("--precision needs at least one value".into());
    }
    Ok(precisions)
}

/// Parses a comma-separated memory-corner list ("edge,hbm"), or "all"
/// for every named roster corner (including `unbounded`).
fn parse_memories(list: &str) -> Result<Vec<tpe_engine::MemorySpec>, String> {
    if list.trim().eq_ignore_ascii_case("all") {
        return Ok(tpe_engine::roster::memory_corners());
    }
    let memories: Vec<tpe_engine::MemorySpec> = list
        .split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| {
            tpe_engine::roster::find_memory(part.trim())
                .ok_or_else(|| format!("unknown memory corner `{part}`"))
        })
        .collect::<Result<_, _>>()?;
    if memories.is_empty() {
        return Err("--memory needs at least one value".into());
    }
    Ok(memories)
}

fn parse_options(args: &[String]) -> Result<DseOptions, String> {
    let mut opts = DseOptions {
        filter: String::new(),
        objectives: Objective::DEFAULT.to_vec(),
        model: None,
        precisions: None,
        memories: None,
        threads: 0,
        seed: 42,
        cycle_model: CycleModel::Sampled,
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
            "--filter" => opts.filter = value("--filter")?,
            "--objectives" => opts.objectives = Objective::parse_list(&value("--objectives")?)?,
            "--model" => opts.model = Some(value("--model")?),
            "--precision" => opts.precisions = Some(parse_precisions(&value("--precision")?)?),
            "--memory" => opts.memories = Some(parse_memories(&value("--memory")?)?),
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--cycle-model" => {
                let v = value("--cycle-model")?;
                opts.cycle_model = CycleModel::parse(&v)
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

/// Warm-starts `cache` from a snapshot file when `--cache-load`
/// is given (missing file → note a cold run; corrupt file → hard error —
/// a CI gate that silently ran cold would pass for the wrong reason).
/// Returns the report note.
pub(crate) fn cache_load_note(path: Option<&str>, cache: &EngineCache) -> Result<String, String> {
    let Some(path) = path else {
        return Ok(String::new());
    };
    let info = tpe_engine::snapshot::load(cache, std::path::Path::new(path))
        .map_err(|e| format!("loading cache snapshot {path}: {e}"))?;
    Ok(match info {
        Some(info) => format!(
            "cache snapshot loaded from {path} ({} entries, {} bytes)\n",
            info.entries, info.bytes
        ),
        None => format!("cache snapshot {path} not found — running cold\n"),
    })
}

/// Saves `cache` to a snapshot file when `--cache-save` is given.
/// Returns the report note.
pub(crate) fn cache_save_note(path: Option<&str>, cache: &EngineCache) -> Result<String, String> {
    let Some(path) = path else {
        return Ok(String::new());
    };
    let info = tpe_engine::snapshot::save(cache, std::path::Path::new(path))
        .map_err(|e| format!("saving cache snapshot {path}: {e}"))?;
    Ok(format!(
        "cache snapshot saved to {path} ({} entries, {} bytes)\n",
        info.entries, info.bytes
    ))
}

/// Topology axis value of a point, for the report's coverage breakdown.
fn topology_key(p: &tpe_dse::DesignPoint) -> String {
    tpe_dse::emit::topology_name(p.kind()).to_string()
}

/// Runs the design-space sweep and renders the report.
pub fn dse(args: &[String]) -> String {
    match try_dse(args) {
        Ok(report) => report,
        Err(msg) => format!(
            "error: {msg}\nusage: repro dse [--filter SUBSTR[,precision=W4][,memory=edge]] \
             [--objectives area,delay,energy,power,throughput,utilization] [--model SUBSTR|all] \
             [--precision W4,W8,W16,W8xW4] [--memory edge,mobile,hbm|all] \
             [--cycle-model sampled|analytic] [--threads N] \
             [--seed S] [--out FILE.csv] [--json FILE.json] [--cache-load F.bin] \
             [--cache-save F.bin]\n"
        ),
    }
}

fn try_dse(args: &[String]) -> Result<String, String> {
    let opts = parse_options(args)?;
    // `--model all` (or any matching substring) swaps the workload axis
    // for whole networks: the front becomes model-level. `slice_space` is
    // shared with the serve `sweep`/`pareto` ops, so a filter addresses
    // the same points over the wire as here.
    let mut space = tpe_dse::slice_space(opts.model.as_deref())?;
    if let Some(precisions) = &opts.precisions {
        space.precisions = precisions.clone();
    }
    if let Some(memories) = &opts.memories {
        space.memories = memories.clone();
    }
    let points = space.enumerate_filtered(&opts.filter);
    if points.is_empty() {
        return Err(format!("no design points match filter `{}`", opts.filter));
    }

    // `--cache-load` warm-starts the global cache the parallel run uses;
    // the serial reference below stays on an isolated cache, so the
    // reported 1-thread timing remains an honest cold figure either way.
    let load_note = cache_load_note(opts.cache_load.as_deref(), EngineCache::global())?;

    // Serial reference on an isolated cache (honest cold timing), the
    // parallel run against the process-wide global cache every other
    // consumer shares. Memoization cannot change values, so the equality
    // assertion below also pins global-vs-isolated agreement.
    let serial = sweep_with_cache(
        &points,
        SweepConfig {
            threads: 1,
            seed: opts.seed,
            cycle_model: opts.cycle_model,
        },
        &EngineCache::new(),
    );
    let parallel = sweep(
        &points,
        SweepConfig {
            threads: opts.threads,
            seed: opts.seed,
            cycle_model: opts.cycle_model,
        },
    );
    assert_eq!(
        serial.results, parallel.results,
        "parallel sweep diverged from the serial reference"
    );

    let save_note = cache_save_note(opts.cache_save.as_deref(), EngineCache::global())?;

    let front = pareto_front_per_workload(&parallel.results, &opts.objectives);
    let csv = to_csv(&parallel.results, &front);

    if let Some(path) = &opts.out_csv {
        std::fs::write(path, &csv).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = &opts.out_json {
        let json = to_json(&parallel.results, &front, &opts.objectives);
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    }

    let mut out = String::new();
    let objective_names: Vec<&str> = opts.objectives.iter().map(|o| o.name()).collect();
    // Axis breakdown of the points actually swept (a --filter can narrow
    // any axis, so counting the full space here would misreport coverage).
    let distinct = |f: &dyn Fn(&tpe_dse::DesignPoint) -> String| {
        let mut values: Vec<String> = points.iter().map(f).collect();
        values.sort();
        values.dedup();
        values.len()
    };
    writeln!(
        out,
        "Design-space exploration — {} points (legality-pruned cross product spanning {} styles, \
         {} topologies, {} encodings, {} precisions, {} memories, {} corners, {} workloads)",
        points.len(),
        distinct(&|p| p.style().name().to_string()),
        distinct(&topology_key),
        distinct(&|p| p.encoding().to_string()),
        distinct(&|p| p.precision().label()),
        distinct(&|p| p.memory().name.to_string()),
        distinct(&|p| p.corner().label()),
        distinct(&|p| p.workload.name().to_string())
    )
    .unwrap();
    if !opts.filter.is_empty() {
        writeln!(out, "filter: `{}`", opts.filter).unwrap();
    }
    if opts.cycle_model != CycleModel::Sampled {
        writeln!(
            out,
            "cycle model: {} (closed-form serial cycles; seed-independent)",
            opts.cycle_model.name()
        )
        .unwrap();
    }
    if let Some(name) = &opts.model {
        writeln!(
            out,
            "whole-model workloads (`--model {name}`): every point evaluates a \
             complete network through the model scheduler"
        )
        .unwrap();
    }
    writeln!(
        out,
        "feasible: {} / {} (the rest fail timing at their corner)",
        parallel.feasible_count(),
        points.len()
    )
    .unwrap();
    writeln!(
        out,
        "eval cache (global, this run): {} hits / {} misses ({:.1}% hit rate; \
         pricing {}h/{}m, workload cycles {}h/{}m)",
        parallel.cache.hits(),
        parallel.cache.misses(),
        parallel.cache.hit_rate() * 100.0,
        parallel.cache.price_hits,
        parallel.cache.price_misses,
        parallel.cache.cycle_hits,
        parallel.cache.cycle_misses,
    )
    .unwrap();
    out.push_str(&load_note);
    out.push_str(&save_note);
    let speedup = serial.elapsed.as_secs_f64() / parallel.elapsed.as_secs_f64().max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    writeln!(
        out,
        "sweep wall-clock: {:.0} ms on 1 thread, {:.0} ms on {} threads — speedup ×{:.2} \
         ({} core(s) available; outputs byte-identical)",
        serial.elapsed.as_secs_f64() * 1e3,
        parallel.elapsed.as_secs_f64() * 1e3,
        parallel.threads,
        speedup,
        cores
    )
    .unwrap();

    writeln!(
        out,
        "\nPareto front over [{}], extracted per workload — {} of {} feasible points:",
        objective_names.join(", "),
        front.len(),
        parallel.feasible_count()
    )
    .unwrap();
    writeln!(
        out,
        "| {:<42} | {:>10} | {:>9} | {:>8} | {:>8} | {:>6} | {:>6} |",
        "design point", "area(um2)", "delay(us)", "fJ/MAC", "GOPS", "util", "W"
    )
    .unwrap();
    writeln!(
        out,
        "|{:-<44}|{:-<12}|{:-<11}|{:-<10}|{:-<10}|{:-<8}|{:-<8}|",
        "", "", "", "", "", "", ""
    )
    .unwrap();
    let mut rows: Vec<usize> = front.clone();
    rows.sort_by(|&a, &b| {
        let (ma, mb) = (
            parallel.results[a].metrics.as_ref().unwrap(),
            parallel.results[b].metrics.as_ref().unwrap(),
        );
        ma.area_um2.total_cmp(&mb.area_um2)
    });
    const MAX_ROWS: usize = 40;
    for &i in rows.iter().take(MAX_ROWS) {
        let r = &parallel.results[i];
        let m = r.metrics.as_ref().unwrap();
        writeln!(
            out,
            "| {:<42} | {:>10.0} | {:>9.2} | {:>8.2} | {:>8.1} | {:>6.3} | {:>6.3} |",
            r.point.label(),
            m.area_um2,
            m.delay_us,
            m.energy_per_mac_fj,
            m.throughput_gops,
            m.utilization,
            m.power_w
        )
        .unwrap();
    }
    if rows.len() > MAX_ROWS {
        writeln!(
            out,
            "… {} more front points (use --out to dump all)",
            rows.len() - MAX_ROWS
        )
        .unwrap();
    }
    if let Some(path) = &opts.out_csv {
        writeln!(out, "\nfull sweep written to {path}").unwrap();
    }
    if let Some(path) = &opts.out_json {
        writeln!(out, "front + sweep JSON written to {path}").unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// A filtered sweep renders the full report structure. (Filtered to
    /// the dense family to stay fast in debug test runs.)
    #[test]
    fn filtered_dse_report_renders() {
        let report = dse(&args(&["--filter", "(TPU)", "--threads", "2"]));
        assert!(report.contains("Pareto front"), "{report}");
        assert!(report.contains("eval cache"), "{report}");
        assert!(report.contains("hit rate"), "{report}");
        assert!(report.contains("speedup"), "{report}");
    }

    /// `--model` puts whole networks on the Pareto front (dense-only
    /// filter keeps the debug-profile run fast; model cycles are
    /// closed-form there).
    #[test]
    fn model_mode_sweeps_whole_networks() {
        let report = dse(&args(&[
            "--model",
            "resnet18",
            "--filter",
            "OPT1(",
            "--threads",
            "2",
        ]));
        assert!(report.contains("whole-model workloads"), "{report}");
        assert!(report.contains("/ResNet18"), "{report}");
        assert!(report.contains("Pareto front"), "{report}");
    }

    /// `--precision` restricts the axis and `precision=` filter terms
    /// select it (the CI smoke's `--filter precision=w4` path).
    #[test]
    fn precision_flag_and_filter_narrow_the_axis() {
        let report = dse(&args(&["--filter", "(TPU),precision=w4", "--threads", "2"]));
        assert!(report.contains("1 precisions"), "{report}");
        assert!(report.contains("@W4"), "{report}");
        let report = dse(&args(&[
            "--precision",
            "w16",
            "--filter",
            "OPT1(Trapezoid)",
            "--threads",
            "2",
        ]));
        assert!(report.contains("1 precisions"), "{report}");
        assert!(report.contains("@W16"), "{report}");
    }

    /// `--memory` grows the memory axis and `memory=` filter terms slice
    /// it: a corner-pinned sweep labels its points `@edge` and reports a
    /// single memory value, while the default axis stays `unbounded`.
    #[test]
    fn memory_flag_and_filter_grow_and_slice_the_axis() {
        let report = dse(&args(&[
            "--memory",
            "edge",
            "--filter",
            "OPT1(TPU)/28nm@1.50,precision=w8",
            "--threads",
            "2",
        ]));
        assert!(report.contains("1 memories"), "{report}");
        assert!(report.contains("@edge"), "{report}");
        let sliced = dse(&args(&[
            "--memory",
            "all",
            "--filter",
            "OPT1(TPU)/28nm@1.50,precision=w8,memory=hbm",
            "--threads",
            "2",
        ]));
        assert!(sliced.contains("1 memories"), "{sliced}");
        assert!(sliced.contains("@hbm"), "{sliced}");
        let default = dse(&args(&[
            "--filter",
            "OPT1(TPU)/28nm@1.50,precision=w8",
            "--threads",
            "2",
        ]));
        assert!(default.contains("1 memories"), "{default}");
        for corner in ["@edge", "@mobile", "@hbm"] {
            assert!(!default.contains(corner), "{default}");
        }
    }

    /// `--cycle-model analytic` sweeps the closed-form path and reports
    /// the mode; its objective values differ from the sampled run only in
    /// cycle-derived columns (checked in the golden projection tests).
    #[test]
    fn analytic_cycle_model_flag_reports_the_mode() {
        let report = dse(&args(&[
            "--filter",
            "OPT3[EN-T]/28nm@2.00,precision=w8",
            "--cycle-model",
            "analytic",
            "--threads",
            "2",
        ]));
        assert!(report.contains("cycle model: analytic"), "{report}");
        assert!(report.contains("Pareto front"), "{report}");
        let sampled = dse(&args(&[
            "--filter",
            "OPT3[EN-T]/28nm@2.00,precision=w8",
            "--threads",
            "2",
        ]));
        assert!(!sampled.contains("cycle model:"), "{sampled}");
    }

    /// `--cache-save` then `--cache-load` round-trips the warm state: the
    /// second run reports the loaded snapshot, and a corrupt file is a
    /// hard error (never a silent cold run).
    #[test]
    fn cache_save_load_round_trip() {
        let path = std::env::temp_dir().join(format!("tpe-dse-snap-{}.bin", std::process::id()));
        let p = path.to_str().unwrap();
        let saved = dse(&args(&[
            "--filter",
            "OPT1(TPU)/28nm@1.50,precision=w8",
            "--cache-save",
            p,
        ]));
        assert!(
            saved.contains(&format!("cache snapshot saved to {p}")),
            "{saved}"
        );
        let loaded = dse(&args(&[
            "--filter",
            "OPT1(TPU)/28nm@1.50,precision=w8",
            "--cache-load",
            p,
        ]));
        assert!(
            loaded.contains(&format!("cache snapshot loaded from {p}")),
            "{loaded}"
        );
        std::fs::write(&path, b"not a snapshot").unwrap();
        let corrupt = dse(&args(&["--filter", "(TPU)", "--cache-load", p]));
        assert!(
            corrupt.contains("error: loading cache snapshot"),
            "{corrupt}"
        );
        let _ = std::fs::remove_file(&path);
        let missing = dse(&args(&[
            "--filter",
            "OPT1(TPU)/28nm@1.50,precision=w8",
            "--cache-load",
            p,
        ]));
        assert!(missing.contains("not found — running cold"), "{missing}");
    }

    #[test]
    fn bad_flags_render_usage() {
        assert!(dse(&args(&["--bogus"])).contains("usage:"));
        assert!(dse(&args(&["--cycle-model", "turbo"])).contains("usage:"));
        assert!(dse(&args(&["--objectives", "area"])).contains("usage:"));
        assert!(dse(&args(&["--filter", "no-such-point-anywhere"])).contains("no design points"));
        assert!(dse(&args(&["--model", "no-such-net"])).contains("usage:"));
        assert!(dse(&args(&["--precision", "w99"])).contains("usage:"));
        assert!(dse(&args(&["--precision", ""])).contains("usage:"));
        assert!(dse(&args(&["--memory", "l9"])).contains("usage:"));
        assert!(dse(&args(&["--memory", ""])).contains("usage:"));
    }
}
