//! CSV / JSON emission of sweep results.
//!
//! Formatting is fixed-precision and locale-independent, so a
//! deterministic sweep emits **byte-identical** text across runs and
//! thread counts (pinned by the determinism tests). No serde: the
//! environment vendors no serialization crates, and the schema is flat.

use std::fmt::{self, Write};

use tpe_core::arch::ArchKind;

use crate::eval::PointResult;
use crate::grid::ModelRun;
use crate::pareto::Objective;
use crate::space::{classic_name, SweepWorkload};
use tpe_engine::serve::json_escape;
use tpe_engine::ModelReport;

/// CSV header matching the per-point row layout. `workload_kind` is
/// `layer` or `model`; the `m,n,k,repeats` shape columns are empty for
/// whole-model rows (their shape is the `layers`/`macs` aggregate). New
/// axis columns append strictly on the right so historical rows are a
/// prefix of today's: `precision` (every W8 row is the historical row
/// plus `,W8`), then the memory-hierarchy group `memory,bytes_moved,\
/// intensity_ops_per_byte,bound` (an `Unbounded` row is the precision-era
/// row plus `,unbounded,<bytes>,<intensity>,compute` — the
/// golden-compatibility invariant strips appended columns, never
/// reorders).
pub const CSV_HEADER: &str =
    "label,style,topology,encoding,node,freq_ghz,workload,workload_kind,layers,macs,\
     m,n,k,repeats,feasible,pareto,\
     area_um2,delay_us,energy_uj,fj_per_mac,gops,peak_tops,utilization,power_w,precision,\
     memory,bytes_moved,intensity_ops_per_byte,bound";

/// Display name of a point's topology axis ("TPU", ..., or "Serial").
pub fn topology_name(kind: ArchKind) -> &'static str {
    match kind {
        ArchKind::Dense(arch) => classic_name(arch),
        ArchKind::Serial => "Serial",
    }
}

/// Appends the field `write` renders (into `scratch`, cleared first) to
/// `out`, RFC-4180 escaped: a field containing a comma, quote or newline
/// is quoted (free-form workload names would otherwise shift columns).
fn push_csv_field(
    out: &mut String,
    scratch: &mut String,
    write: impl FnOnce(&mut String) -> fmt::Result,
) -> fmt::Result {
    scratch.clear();
    write(scratch)?;
    if scratch.contains([',', '"', '\n', '\r']) {
        write!(out, "\"{}\"", scratch.replace('"', "\"\""))
    } else {
        out.push_str(scratch);
        Ok(())
    }
}

/// `workload_kind` column value.
fn workload_kind(w: &SweepWorkload) -> &'static str {
    match w {
        SweepWorkload::Layer(_) => "layer",
        SweepWorkload::Model(_) => "model",
    }
}

/// Renders one result as its CSV row (no trailing newline) — the exact
/// bytes [`to_csv`] emits for that point. Public so the serve layer's
/// `sweep`/`pareto` ops can ship per-point rows that are byte-identical
/// to a `repro dse` dump of the same slice (golden-tested in
/// `tpe-bench`).
pub fn point_csv_row(result: &PointResult, on_front: bool) -> String {
    let mut row = String::with_capacity(192);
    write_csv_row(&mut row, &mut String::new(), result, on_front).expect(WRITE);
    row
}

/// Why a `write!` into a `String` is unwrapped: it cannot fail.
const WRITE: &str = "writing to a String cannot fail";

/// Appends one result's CSV row (no trailing newline) to `out`; its
/// labels escape through `scratch`, so the row builds no string.
fn write_csv_row(
    out: &mut String,
    scratch: &mut String,
    result: &PointResult,
    on_front: bool,
) -> fmt::Result {
    let (e, w) = (&result.point.engine, &result.point.workload);
    push_csv_field(out, scratch, |s| {
        e.write_label(s)?;
        write!(s, "/{}", w.name())
    })?;
    write!(out, ",{},{},", e.style.name(), topology_name(e.kind))?;
    push_csv_field(out, scratch, |s| write!(s, "{}", e.encoding))?;
    write!(out, ",{},{:.2},", e.node_name, e.freq_ghz)?;
    push_csv_field(out, scratch, |s| s.write_str(w.name()))?;
    let (kind, layers, macs) = (workload_kind(w), w.layer_count(), w.macs());
    write!(out, ",{kind},{layers},{macs},")?;
    match w {
        SweepWorkload::Layer(l) => write!(out, "{},{},{},{}", l.m, l.n, l.k, l.repeats)?,
        SweepWorkload::Model(_) => out.push_str(",,,"),
    }
    let (feasible, front) = (u8::from(result.feasible()), u8::from(on_front));
    let (precision, memory) = (e.precision.label(), e.memory.name);
    match &result.metrics {
        Some(m) => write!(
            out,
            ",{feasible},{front},{:.3},{:.4},{:.6},{:.4},{:.3},{:.4},{:.5},{:.5},{precision},\
             {memory},{:.0},{:.4},{}",
            m.area_um2,
            m.delay_us,
            m.energy_uj,
            m.energy_per_mac_fj,
            m.throughput_gops,
            m.peak_tops,
            m.utilization,
            m.power_w,
            m.bytes_moved,
            m.intensity_ops_per_byte,
            m.bound.label(),
        ),
        None => write!(out, ",{feasible},{front},,,,,,,,,{precision},{memory},,,"),
    }
}

/// Renders all results as CSV; `front` holds the indices on the Pareto
/// front (from [`crate::pareto::pareto_front`]).
pub fn to_csv(results: &[PointResult], front: &[usize]) -> String {
    let mut out = String::with_capacity(results.len() * 160);
    let mut scratch = String::new();
    out.push_str(CSV_HEADER);
    out.push('\n');
    for (i, r) in results.iter().enumerate() {
        write_csv_row(&mut out, &mut scratch, r, front.binary_search(&i).is_ok()).expect(WRITE);
        out.push('\n');
    }
    out
}

/// Renders results + front + objectives as a JSON document.
pub fn to_json(results: &[PointResult], front: &[usize], objectives: &[Objective]) -> String {
    let mut out = String::with_capacity(results.len() * 260);
    out.push_str("{\n  \"objectives\": [");
    for (i, o) in objectives.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", o.name()));
    }
    out.push_str("],\n  \"points\": [\n");
    for (i, r) in results.iter().enumerate() {
        let p = &r.point;
        let w = &p.workload;
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"style\": \"{}\", \"topology\": \"{}\", \
             \"encoding\": \"{}\", \"precision\": \"{}\", \"node\": \"{}\", \
             \"freq_ghz\": {:.2}, \"memory\": \"{}\", \
             \"workload\": \"{}\", \"workload_kind\": \"{}\", \"layers\": {}, \
             \"macs\": {}, \"feasible\": {}, \"pareto\": {}",
            json_escape(&p.label()),
            p.engine.style.name(),
            topology_name(p.engine.kind),
            json_escape(&p.engine.encoding.to_string()),
            p.engine.precision.label(),
            p.engine.node_name,
            p.engine.freq_ghz,
            p.engine.memory.name,
            json_escape(w.name()),
            workload_kind(w),
            w.layer_count(),
            w.macs(),
            r.feasible(),
            front.binary_search(&i).is_ok(),
        ));
        if let Some(m) = &r.metrics {
            out.push_str(&format!(
                ", \"area_um2\": {:.3}, \"delay_us\": {:.4}, \"energy_uj\": {:.6}, \
                 \"fj_per_mac\": {:.4}, \"gops\": {:.3}, \"peak_tops\": {:.4}, \
                 \"utilization\": {:.5}, \"power_w\": {:.5}, \"bytes_moved\": {:.0}, \
                 \"intensity_ops_per_byte\": {:.4}, \"bound\": \"{}\"",
                m.area_um2,
                m.delay_us,
                m.energy_uj,
                m.energy_per_mac_fj,
                m.throughput_gops,
                m.peak_tops,
                m.utilization,
                m.power_w,
                m.bytes_moved,
                m.intensity_ops_per_byte,
                m.bound.label(),
            ));
        }
        out.push_str(if i + 1 == results.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// CSV header matching [`model_csv`]'s per-(model, engine) row layout.
/// As in [`CSV_HEADER`], new columns append strictly on the right:
/// `precision` (W8 rows are the historical bytes plus `,W8`), then
/// `memory,bytes_moved,intensity_ops_per_byte,bound`.
pub const MODEL_CSV_HEADER: &str =
    "model,engine,style,topology,encoding,node,freq_ghz,feasible,layers,macs,\
     cycles,delay_us,energy_uj,gops,peak_tops,utilization,power_w,tops_per_w,area_um2,precision,\
     memory,bytes_moved,intensity_ops_per_byte,bound";

/// Renders a [`crate::grid`] model grid as CSV (same fixed-precision,
/// locale-independent discipline as [`to_csv`], so deterministic grids
/// emit byte-identical text across runs and thread counts).
pub fn model_csv(runs: &[ModelRun]) -> String {
    let mut out = String::with_capacity(runs.len() * 180 + MODEL_CSV_HEADER.len());
    let mut scratch = String::new();
    out.push_str(MODEL_CSV_HEADER);
    out.push('\n');
    for run in runs {
        write_model_row(&mut out, &mut scratch, run).expect(WRITE);
    }
    out
}

/// Appends one grid cell's [`model_csv`] row, newline included.
fn write_model_row(out: &mut String, scratch: &mut String, run: &ModelRun) -> fmt::Result {
    let e = &run.engine;
    push_csv_field(out, scratch, |s| s.write_str(&run.model))?;
    out.push(',');
    push_csv_field(out, scratch, |s| e.write_label(s))?;
    write!(out, ",{},{},", e.style.name(), topology_name(e.kind))?;
    push_csv_field(out, scratch, |s| write!(s, "{}", e.encoding))?;
    let feasible = u8::from(run.feasible());
    write!(out, ",{},{:.2},{feasible}", e.node_name, e.freq_ghz)?;
    let (precision, memory) = (e.precision.label(), e.memory.name);
    match &run.report {
        Some(ModelReport {
            layers, totals: r, ..
        }) => writeln!(
            out,
            ",{},{},{:.0},{:.4},{:.6},{:.3},{:.4},{:.5},{:.5},{:.4},{:.3},{precision},\
             {memory},{:.0},{:.4},{}",
            layers.len(),
            r.total_macs,
            r.cycles,
            r.delay_us,
            r.energy_uj,
            r.throughput_gops(),
            r.peak_tops,
            r.utilization,
            r.power_w(),
            r.tops_per_w(),
            r.area_um2,
            r.bytes_moved,
            r.intensity_ops_per_byte,
            r.bound.label(),
        ),
        None => writeln!(out, ",,,,,,,,,,,,{precision},{memory},,,"),
    }
}

/// Renders a [`crate::grid`] model grid as a JSON document (one object per
/// (model, engine) cell, plus the per-layer breakdown).
pub fn model_json(runs: &[ModelRun]) -> String {
    let mut out = String::with_capacity(runs.len() * 400);
    out.push_str("{\n  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        let e = &run.engine;
        out.push_str(&format!(
            "    {{\"model\": \"{}\", \"engine\": \"{}\", \"style\": \"{}\", \
             \"topology\": \"{}\", \"encoding\": \"{}\", \"precision\": \"{}\", \
             \"node\": \"{}\", \"freq_ghz\": {:.2}, \"memory\": \"{}\", \"feasible\": {}",
            json_escape(&run.model),
            json_escape(&e.label()),
            e.style.name(),
            topology_name(e.kind),
            json_escape(&e.encoding.to_string()),
            e.precision.label(),
            e.node_name,
            e.freq_ghz,
            e.memory.name,
            run.feasible(),
        ));
        if let Some(ModelReport {
            layers, totals: r, ..
        }) = &run.report
        {
            out.push_str(&format!(
                ", \"layers\": {}, \"macs\": {}, \"cycles\": {:.0}, \
                 \"delay_us\": {:.4}, \"energy_uj\": {:.6}, \"gops\": {:.3}, \
                 \"peak_tops\": {:.4}, \"utilization\": {:.5}, \"power_w\": {:.5}, \
                 \"tops_per_w\": {:.4}, \"area_um2\": {:.3}, \"bytes_moved\": {:.0}, \
                 \"intensity_ops_per_byte\": {:.4}, \"bound\": \"{}\", \"per_layer\": [",
                layers.len(),
                r.total_macs,
                r.cycles,
                r.delay_us,
                r.energy_uj,
                r.throughput_gops(),
                r.peak_tops,
                r.utilization,
                r.power_w(),
                r.tops_per_w(),
                r.area_um2,
                r.bytes_moved,
                r.intensity_ops_per_byte,
                r.bound.label(),
            ));
            for (j, l) in layers.iter().enumerate() {
                out.push_str(&format!(
                    "{}{{\"name\": \"{}\", \"macs\": {}, \"cycles\": {:.0}, \
                     \"delay_us\": {:.4}, \"utilization\": {:.5}, \"energy_uj\": {:.6}, \
                     \"bytes_moved\": {:.0}, \"bound\": \"{}\"}}",
                    if j > 0 { ", " } else { "" },
                    json_escape(&l.name),
                    l.cost.macs,
                    l.cost.cycles,
                    l.cost.delay_us,
                    l.cost.utilization,
                    l.cost.energy_uj,
                    l.cost.bytes_moved,
                    l.cost.bound.label(),
                ));
            }
            out.push(']');
        }
        out.push_str(if i + 1 == runs.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::pareto::pareto_front;
    use crate::space::DesignSpace;
    use tpe_engine::EngineCache;

    fn sample() -> (Vec<PointResult>, Vec<usize>) {
        let cache = EngineCache::new();
        let results: Vec<PointResult> = DesignSpace::quick()
            .enumerate()
            .iter()
            .map(|p| evaluate(p, &cache, 2))
            .collect();
        let front = pareto_front(&results, &Objective::DEFAULT);
        (results, front)
    }

    #[test]
    fn csv_has_header_and_one_row_per_point() {
        let (results, front) = sample();
        let csv = to_csv(&results, &front);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), results.len() + 1);
        let columns = CSV_HEADER.split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), columns, "bad row: {line}");
        }
        assert!(csv.contains(",1,"), "some point must be on the front");
    }

    #[test]
    fn json_is_structurally_balanced() {
        let (results, front) = sample();
        let json = to_json(&results, &front, &Objective::DEFAULT);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"objectives\": [\"area\", \"delay\", \"energy\"]"));
        assert_eq!(json.matches("\"label\"").count(), results.len());
    }

    #[test]
    fn csv_fields_with_delimiters_are_quoted() {
        let field = |s: &str| {
            let mut out = String::from("x,");
            push_csv_field(&mut out, &mut String::from("stale"), |f| f.write_str(s)).unwrap();
            out
        };
        assert_eq!(field("plain-name"), "x,plain-name");
        assert_eq!(field("a,b"), "x,\"a,b\"");
        assert_eq!(field("say \"hi\""), "x,\"say \"\"hi\"\"\"");
        assert_eq!(field("\"\""), "x,\"\"\"\"\"\"");
        assert_eq!(field("two\nlines"), "x,\"two\nlines\"");
    }

    #[test]
    fn model_csv_and_json_render_the_grid() {
        use crate::{run_grid, SweepConfig};
        use tpe_core::arch::PeStyle;
        use tpe_engine::EngineSpec;
        use tpe_sim::array::ClassicArch;

        let models = vec![tpe_workloads::models::resnet18()];
        let engines = vec![
            EngineSpec::dense(PeStyle::Opt1, ClassicArch::Tpu, 1.5),
            EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 2.0), // walls
        ];
        let config = SweepConfig {
            threads: 1,
            seed: 2,
            ..SweepConfig::default()
        };
        let outcome = run_grid(&models, &engines, config, tpe_engine::EngineCache::global());
        let csv = model_csv(&outcome.runs);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], MODEL_CSV_HEADER);
        assert_eq!(lines.len(), outcome.runs.len() + 1);
        let columns = MODEL_CSV_HEADER.split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), columns, "bad row: {line}");
        }
        assert!(
            lines[2].ends_with(",,,,,,,,,,,W8,unbounded,,,"),
            "infeasible row: {}",
            lines[2]
        );

        let json = model_json(&outcome.runs);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches("\"model\"").count(), outcome.runs.len());
        assert_eq!(
            json.matches("\"name\"").count(),
            models[0].layers.len(),
            "feasible cell emits one per-layer object per layer"
        );
    }

    #[test]
    fn model_workload_rows_emit_aggregates_not_shape() {
        let cache = EngineCache::new();
        let space = DesignSpace::with_models("resnet18").unwrap();
        let points = space.enumerate_filtered("OPT1(TPU)/28nm@1.50");
        let results: Vec<PointResult> = points.iter().map(|p| evaluate(p, &cache, 2)).collect();
        let csv = to_csv(&results, &[]);
        let row = csv.lines().nth(1).unwrap();
        assert!(row.contains(",model,"), "kind column: {row}");
        assert!(row.contains(",ResNet18,"), "workload name: {row}");
        // m,n,k,repeats stay empty for whole-model rows.
        assert!(row.contains(",,,,1,0,"), "empty shape cells: {row}");
    }

    #[test]
    fn infeasible_rows_have_empty_metric_cells() {
        let cache = EngineCache::new();
        let points = DesignSpace::paper_default().enumerate_filtered("MAC(TPU)/28nm@2.00");
        let results: Vec<PointResult> = points.iter().map(|p| evaluate(p, &cache, 2)).collect();
        assert!(results.iter().all(|r| !r.feasible()));
        let csv = to_csv(&results, &[]);
        for line in csv.lines().skip(1) {
            let tail: Vec<&str> = line.rsplit(',').take(4).collect();
            let [bound, intensity, bytes, memory] = tail[..] else {
                panic!("short row: {line}");
            };
            assert_eq!(memory, "unbounded", "memory column: {line}");
            assert!(
                bytes.is_empty() && intensity.is_empty() && bound.is_empty(),
                "roofline cells stay empty when infeasible: {line}"
            );
            let precision = line.rsplit(',').nth(4).unwrap();
            assert!(
                tpe_engine::Precision::parse(precision).is_some(),
                "precision column: {line}"
            );
            assert!(
                line.ends_with(&format!(",,,,,,,,,{precision},unbounded,,,")),
                "infeasible row: {line}"
            );
        }
    }
}
