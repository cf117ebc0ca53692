//! Correctness checks on the program's outputs.
//!
//! Every expected value here is computed by the benchmark itself, apart
//! from the program: MAC counts are products of the dims it generated (or
//! sums over the `tpe-workloads` layer lists), Pareto membership is
//! re-derived with this file's own dominance test, and the remaining
//! checks are properties the method must have (throughput is
//! 2·MACs/delay, utilization is in (0, 1], a finite memory corner is never
//! faster than the unbounded one). Rendered numbers are compared as
//! intervals: a value printed with `d` decimals may be off by half a unit
//! in its last place.

use std::collections::BTreeMap;

use tpe_engine::serve::{parse_flat_object, JsonValue};
use tpe_workloads::LayerShape;

/// A parsed reply line.
pub type Reply = BTreeMap<String, JsonValue>;

/// A layer's (m, n, k, repeats).
pub fn dims(l: &LayerShape) -> [u64; 4] {
    [l.m, l.n, l.k, l.repeats].map(|d| d as u64)
}

/// The benchmark's own MAC count of a GEMM: its dims multiplied in
/// `u128`, which cannot wrap for `u64` dims of this size.
pub fn macs(dims: [u64; 4]) -> u128 {
    dims.iter().map(|&d| u128::from(d)).product()
}

/// The MAC count of a network: the sum over its layer list.
pub fn network_macs(layers: &[LayerShape]) -> u128 {
    layers.iter().map(|l| macs(dims(l))).sum()
}

/// Relative slack for comparisons between unrounded `f64` values.
const REL: f64 = 1e-9;

/// Half a unit in the last place of a value rendered with `decimals`.
pub fn half(decimals: i32) -> f64 {
    0.5 * 10f64.powi(-decimals)
}

pub fn parse_reply(line: &str) -> Result<Reply, String> {
    parse_flat_object(line).map_err(|e| format!("unparseable reply {line:?}: {e}"))
}

fn num(r: &Reply, key: &str) -> Result<f64, String> {
    match r.get(key) {
        Some(JsonValue::Num(v)) => Ok(*v),
        _ => Err(format!("reply lacks number `{key}`")),
    }
}

fn text<'r>(r: &'r Reply, key: &str) -> Result<&'r str, String> {
    match r.get(key) {
        Some(JsonValue::Str(s)) => Ok(s),
        _ => Err(format!("reply lacks string `{key}`")),
    }
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {want:?}"))
    }
}

/// The envelope every successful reply carries.
fn check_ok(r: &Reply, op: &str, engine: &str) -> Result<(), String> {
    if r.get("ok") != Some(&JsonValue::Bool(true)) {
        return Err(format!(
            "{op} on {engine} failed: {}",
            text(r, "error").unwrap_or("no error text")
        ));
    }
    expect_eq("op", text(r, "op")?, op)?;
    expect_eq("engine label", text(r, "engine")?, engine)?;
    if r.get("feasible") != Some(&JsonValue::Bool(true)) {
        return Err(format!("{op} on {engine}: engine reported infeasible"));
    }
    Ok(())
}

/// `gops` = 2·macs / delay (delay in µs). `delay_half` and `gops_half`
/// are the rendering half-units (0 for unrounded values).
pub fn check_gops(
    macs: u128,
    delay_us: f64,
    delay_half: f64,
    gops: f64,
    gops_half: f64,
) -> Result<(), String> {
    if delay_us.is_nan() || delay_us <= 0.0 {
        return Err(format!("delay_us {delay_us} is not positive"));
    }
    let ops = 2.0 * macs as f64 / 1e3;
    let lo = ops / (delay_us + delay_half) * (1.0 - REL) - gops_half;
    let hi = if delay_us > delay_half {
        ops / (delay_us - delay_half) * (1.0 + REL) + gops_half
    } else {
        f64::INFINITY
    };
    if (lo..=hi).contains(&gops) {
        Ok(())
    } else {
        Err(format!(
            "gops {gops} disagrees with 2*macs/delay = 2*{macs}/{delay_us}us (allowed {lo}..{hi})"
        ))
    }
}

/// 0 < utilization ≤ 1.
pub fn check_utilization(u: f64) -> Result<(), String> {
    if u > 0.0 && u <= 1.0 {
        Ok(())
    } else {
        Err(format!("utilization {u} is outside (0, 1]"))
    }
}

/// Dense engines: `gops` = utilization · peak (TOPS → GOPS), within the
/// rendering half-units of the three values.
pub fn check_gops_peak(
    gops: f64,
    gops_half: f64,
    util: f64,
    util_half: f64,
    peak_tops: f64,
    peak_half: f64,
) -> Result<(), String> {
    let lo = (util - util_half).max(0.0) * (peak_tops - peak_half).max(0.0) * 1e3 * (1.0 - REL)
        - gops_half;
    let hi = (util + util_half) * (peak_tops + peak_half) * 1e3 * (1.0 + REL) + gops_half;
    if (lo..=hi).contains(&gops) {
        Ok(())
    } else {
        Err(format!(
            "gops {gops} disagrees with utilization*peak = {util}*{peak_tops}TOPS (allowed {lo}..{hi})"
        ))
    }
}

/// What the benchmark asked for in one `layer`/`model` request.
#[derive(Debug, Clone)]
pub struct Ask {
    /// Full engine label the reply must echo (with `@W…`/`@corner`
    /// suffixes where the request set them).
    pub label: String,
    /// Dense engine (the utilization·peak law applies).
    pub dense: bool,
    /// A finite memory corner was requested (the reply must carry the
    /// roofline group).
    pub bounded: bool,
    pub seed: u64,
    /// MACs the benchmark computed for the workload.
    pub macs: u128,
}

/// Checks the metric group shared by `layer` and `model` replies; returns
/// `delay_us`.
fn check_metrics(r: &Reply, ask: &Ask) -> Result<f64, String> {
    let delay = num(r, "delay_us")?;
    let gops = num(r, "gops")?;
    let util = num(r, "utilization")?;
    let peak = num(r, "peak_tops")?;
    check_gops(ask.macs, delay, half(4), gops, half(3))?;
    check_utilization(util)?;
    if ask.dense {
        check_gops_peak(gops, half(3), util, half(5), peak, half(4))?;
    }
    match (ask.bounded, r.get("bound")) {
        (true, Some(JsonValue::Str(b))) if ["compute", "sram", "dram"].contains(&b.as_str()) => {}
        (false, None) => {}
        (_, b) => {
            return Err(format!(
                "roofline bound field {b:?} under bounded={}",
                ask.bounded
            ))
        }
    }
    Ok(delay)
}

/// The workload name the server gives an unnamed (m, n, k, repeats)
/// layer request.
pub fn layer_name(dims: [u64; 4]) -> String {
    let [m, n, k, rep] = dims;
    format!("{m}x{n}x{k}r{rep}")
}

/// Checks a `layer` reply for an (m, n, k, repeats) request named
/// `workload`; returns its delay in µs.
pub fn check_layer_reply(
    line: &str,
    ask: &Ask,
    dims: [u64; 4],
    workload: &str,
) -> Result<f64, String> {
    let r = parse_reply(line)?;
    check_ok(&r, "layer", &ask.label)?;
    let [m, n, k, _] = dims;
    expect_eq("workload", text(&r, "workload")?, workload)?;
    expect_eq("seed", num(&r, "seed")?, ask.seed as f64)?;
    check_metrics(&r, ask).map_err(|e| format!("{} {m}x{n}x{k}: {e}", ask.label))
}

/// Checks a `model` reply against the benchmark's own layer count and
/// MAC sum; returns its delay in µs.
pub fn check_model_reply(line: &str, ask: &Ask, model: &str, layers: usize) -> Result<f64, String> {
    let r = parse_reply(line)?;
    check_ok(&r, "model", &ask.label)?;
    expect_eq("model", text(&r, "model")?, model)?;
    expect_eq("seed", num(&r, "seed")?, ask.seed as f64)?;
    expect_eq("layers", num(&r, "layers")?, layers as f64)?;
    expect_eq("macs", num(&r, "macs")?, ask.macs as f64)
        .map_err(|e| format!("{} {model}: {e}", ask.label))?;
    check_metrics(&r, ask).map_err(|e| format!("{} {model}: {e}", ask.label))
}

/// Checks an `engine` reply. Dense peak throughput must equal
/// lanes × 2 ops × clock; `freq_ghz` is the clock the label names.
pub fn check_engine_reply(
    line: &str,
    label: &str,
    dense: bool,
    freq_ghz: f64,
) -> Result<(), String> {
    let r = parse_reply(line)?;
    check_ok(&r, "engine", label)?;
    for key in ["area_um2", "instances", "lanes_total", "peak_tops"] {
        let v = num(&r, key)?;
        if v.is_nan() || v <= 0.0 {
            return Err(format!("{label}: {key} {v} is not positive"));
        }
    }
    if dense {
        let want = num(&r, "lanes_total")? * 2.0 * freq_ghz / 1e3;
        let peak = num(&r, "peak_tops")?;
        if (peak - want).abs() > half(4) + want * REL {
            return Err(format!("{label}: peak_tops {peak}, lanes imply {want}"));
        }
    }
    Ok(())
}

/// Checks a `sweep`/`pareto` summary reply (`"points":false`, or a sweep
/// without point lines): the echoed filter, `points` equal to the
/// benchmark's own count of the points the filter selects, and
/// 1 ≤ front ≤ feasible ≤ points.
pub fn check_slice_reply(line: &str, op: &str, filter: &str, points: usize) -> Result<(), String> {
    let r = parse_reply(line)?;
    if r.get("ok") != Some(&JsonValue::Bool(true)) {
        return Err(format!(
            "{op} {filter} failed: {}",
            text(&r, "error").unwrap_or("no error text")
        ));
    }
    expect_eq("op", text(&r, "op")?, op)?;
    expect_eq("filter", text(&r, "filter")?, filter)?;
    expect_eq("points_follow", num(&r, "points_follow")?, 0.0)?;
    let what = format!("{op} {filter}");
    expect_eq(
        &format!("{what}: points"),
        num(&r, "points")?,
        points as f64,
    )?;
    let (feasible, front) = (num(&r, "feasible")?, num(&r, "front")?);
    if 1.0 <= front && front <= feasible && feasible <= points as f64 {
        Ok(())
    } else {
        Err(format!(
            "{what}: front {front}, feasible {feasible}, points {points} are out of order"
        ))
    }
}

/// The clock a full engine label names (`…/28nm@1.50GHz…`).
pub fn label_freq_ghz(label: &str) -> Option<f64> {
    let tail = label.split_once('@')?.1;
    tail.split_once("GHz")?.0.parse().ok()
}

/// One evaluated design point, reduced to what the checks need.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Dominance group: (workload name, precision label).
    pub group: (String, String),
    /// Engine label without its memory suffix, plus the workload: the
    /// key that pairs a finite corner with its unbounded twin.
    pub twin: String,
    pub unbounded: bool,
    pub dense: bool,
    /// MACs the benchmark computed for the workload.
    pub macs: u128,
    /// `None` when the point failed timing.
    pub metrics: Option<RowMetrics>,
}

/// The unrounded metrics of one feasible point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowMetrics {
    pub area_um2: f64,
    pub delay_us: f64,
    pub fj_per_mac: f64,
    pub gops: f64,
    pub utilization: f64,
    pub peak_tops: f64,
}

/// Per-row laws: throughput from delay, utilization range, and the dense
/// utilization·peak law, on unrounded values.
pub fn check_row(row: &Row) -> Result<(), String> {
    let Some(m) = &row.metrics else {
        return Ok(());
    };
    check_gops(row.macs, m.delay_us, 0.0, m.gops, 0.0)?;
    check_utilization(m.utilization)?;
    if row.dense {
        check_gops_peak(m.gops, 0.0, m.utilization, 0.0, m.peak_tops, 0.0)?;
    }
    Ok(())
}

/// This benchmark's dominance test over (area, delay, energy per MAC),
/// lower is better: no worse on all, strictly better on one.
pub fn dominates(a: &RowMetrics, b: &RowMetrics) -> bool {
    let (sa, sb) = (
        [a.area_um2, a.delay_us, a.fj_per_mac],
        [b.area_um2, b.delay_us, b.fj_per_mac],
    );
    sa.iter().zip(&sb).all(|(x, y)| x <= y) && sa.iter().zip(&sb).any(|(x, y)| x < y)
}

/// Every front point is non-dominated within its group, every feasible
/// point off the front is dominated within its group, and infeasible
/// points are never on it.
pub fn check_front(rows: &[Row], on_front: &[bool]) -> Result<(), String> {
    let mut groups: BTreeMap<&(String, String), Vec<usize>> = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        match (&row.metrics, on_front[i]) {
            (Some(_), _) => groups.entry(&row.group).or_default().push(i),
            (None, true) => return Err(format!("infeasible row {i} is on the front")),
            (None, false) => {}
        }
    }
    for (group, members) in groups {
        for &i in &members {
            let mi = rows[i].metrics.as_ref().expect("grouped rows are feasible");
            let dominated = members
                .iter()
                .any(|&j| dominates(rows[j].metrics.as_ref().expect("feasible"), mi));
            if dominated == on_front[i] {
                return Err(format!(
                    "row {i} in group {group:?}: on_front={} but dominated={dominated}",
                    on_front[i]
                ));
            }
        }
    }
    Ok(())
}

/// Relative slack of a corner pair on a sampled serial engine. The two
/// corners sample different operands (the sampling seed mixes in the
/// memory-suffixed engine label), so each delay is pinned only to within
/// the Sweep-profile tolerance of `crates/engine/tests/cycle_oracle.rs`.
pub const SAMPLED_CORNER_TOL: f64 = 0.05;

/// A finite memory corner's delay is not below its unbounded twin's by
/// more than `tol` (relative) plus `half` (absolute, for rendered values).
pub fn check_corner_pair(
    what: &str,
    finite: f64,
    unbounded: f64,
    tol: f64,
    half: f64,
) -> Result<(), String> {
    if finite + half >= unbounded * (1.0 - tol - REL) {
        Ok(())
    } else {
        Err(format!(
            "{what}: finite-corner delay {finite} is below the unbounded delay {unbounded} \
             (allowed slack {:.0}%)",
            tol * 100.0
        ))
    }
}

/// A finite memory corner never reports a lower delay than the
/// unbounded corner for the same engine and workload (exactly: the rows
/// come from the closed-form cycle model); returns how many pairs were
/// compared.
pub fn check_corners(rows: &[Row]) -> Result<usize, String> {
    let unbounded: BTreeMap<&str, f64> = rows
        .iter()
        .filter(|r| r.unbounded)
        .filter_map(|r| r.metrics.map(|m| (r.twin.as_str(), m.delay_us)))
        .collect();
    let mut pairs = 0;
    for row in rows.iter().filter(|r| !r.unbounded) {
        let (Some(m), Some(&base)) = (row.metrics, unbounded.get(row.twin.as_str())) else {
            continue;
        };
        check_corner_pair(&row.twin, m.delay_us, base, 0.0, 0.0)?;
        pairs += 1;
    }
    Ok(pairs)
}

/// A sampled serial delay agrees with the closed-form one within `tol`
/// (relative).
pub fn check_oracle(what: &str, sampled: f64, analytic: f64, tol: f64) -> Result<(), String> {
    let err = (sampled - analytic).abs() / analytic.abs().max(1e-12);
    if err <= tol {
        Ok(())
    } else {
        Err(format!(
            "{what}: sampled delay {sampled} vs closed form {analytic} differ by {:.2}% (> {:.0}%)",
            err * 100.0,
            tol * 100.0
        ))
    }
}

/// A warm re-sweep records no cache miss and reproduces the cold rows.
pub fn check_warm(misses: u64, same_rows: bool) -> Result<(), String> {
    if misses != 0 {
        return Err(format!("warm re-sweep recorded {misses} cache misses"));
    }
    if !same_rows {
        return Err("warm re-sweep rows differ from the cold rows".into());
    }
    Ok(())
}

/// Splits one CSV line into fields (RFC-4180 quoting).
pub fn csv_fields(line: &str) -> Vec<String> {
    let mut fields = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match (c, quoted) {
            ('"', true) if chars.peek() == Some(&'"') => {
                chars.next();
                fields.last_mut().expect("one field").push('"');
            }
            ('"', _) => quoted = !quoted,
            (',', false) => fields.push(String::new()),
            (c, _) => fields.last_mut().expect("one field").push(c),
        }
    }
    fields
}

/// The rendered CSV carries one row per point, in order, whose `macs`
/// column is the benchmark's own count and whose `feasible`/`pareto`
/// columns agree with the rows and the front.
pub fn check_csv(csv: &str, rows: &[Row], on_front: &[bool]) -> Result<(), String> {
    let mut lines = csv.lines();
    let header = csv_fields(lines.next().ok_or("empty CSV")?);
    let col = |name: &str| {
        header
            .iter()
            .position(|h| h == name)
            .ok_or(format!("CSV header lacks `{name}`"))
    };
    let (macs, feasible, pareto) = (col("macs")?, col("feasible")?, col("pareto")?);
    let mut count = 0;
    for (i, line) in lines.enumerate() {
        let row = rows.get(i).ok_or("CSV has more rows than points")?;
        let f = csv_fields(line);
        let field = |c: usize| f.get(c).map(String::as_str).unwrap_or("");
        expect_eq(
            &format!("CSV row {i} macs"),
            field(macs),
            &row.macs.to_string(),
        )?;
        expect_eq(
            &format!("CSV row {i} feasible"),
            field(feasible),
            if row.metrics.is_some() { "1" } else { "0" },
        )?;
        expect_eq(
            &format!("CSV row {i} pareto"),
            field(pareto),
            if on_front[i] { "1" } else { "0" },
        )?;
        count += 1;
    }
    expect_eq("CSV rows", count, rows.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ask(dense: bool, bounded: bool, macs: u128) -> Ask {
        Ask {
            label: "OPT1(Trapezoid)/28nm@1.50GHz".into(),
            dense,
            bounded,
            seed: 7,
            macs,
        }
    }

    /// A consistent dense layer reply for 64×64×64 (262144 MACs).
    fn layer_line(delay: &str, gops: &str, util: &str, peak: &str) -> String {
        format!(
            "{{\"id\":1,\"ok\":true,\"op\":\"layer\",\"engine\":\"OPT1(Trapezoid)/28nm@1.50GHz\",\
             \"workload\":\"64x64x64r1\",\"seed\":7,\"feasible\":true,\"area_um2\":1.000,\
             \"delay_us\":{delay},\"energy_uj\":0.1,\"fj_per_mac\":1.0,\"gops\":{gops},\
             \"peak_tops\":{peak},\"utilization\":{util},\"power_w\":0.1}}"
        )
    }

    const DIMS: [u64; 4] = [64, 64, 64, 1];
    const NAME: &str = "64x64x64r1";

    #[test]
    fn a_named_layer_must_echo_its_name() {
        let line = layer_line("0.2048", "2560.000", "0.83333", "3.0720");
        assert_eq!(layer_name(DIMS), NAME);
        let a = ask(true, false, 262_144);
        assert!(check_layer_reply(&line, &a, DIMS, NAME).is_ok());
        let named = line.replace(NAME, "conv");
        assert!(check_layer_reply(&named, &a, DIMS, "conv").is_ok());
        assert!(check_layer_reply(&named, &a, DIMS, NAME).is_err());
    }

    #[test]
    fn a_consistent_layer_reply_passes() {
        // 2*262144/0.2048us = 2560 GOPS; peak 3.072 TOPS → util 0.83333.
        let line = layer_line("0.2048", "2560.000", "0.83333", "3.0720");
        assert_eq!(
            check_layer_reply(&line, &ask(true, false, 262_144), DIMS, NAME),
            Ok(0.2048)
        );
    }

    /// The silent-wrap fault: `ok` with zero throughput and utilization.
    #[test]
    fn a_wrapped_layer_reply_with_zero_gops_fails() {
        let line = layer_line("0.2048", "0.000", "0.00000", "3.0720");
        let err = check_layer_reply(&line, &ask(true, false, 262_144), DIMS, NAME).unwrap_err();
        assert!(err.contains("gops"), "{err}");
    }

    /// A wrapped MAC count also shows as a delay far too short for the
    /// requested dims.
    #[test]
    fn a_wrapped_delay_fails_against_the_benchmarks_own_mac_count() {
        let huge: u128 = 1 << 69; // 2^23 cubed
        let err = check_gops(huge, 0.0033, half(4), 2560.0, half(3)).unwrap_err();
        assert!(err.contains("disagrees"), "{err}");
    }

    #[test]
    fn utilization_must_be_in_the_unit_interval() {
        assert!(check_utilization(0.5).is_ok());
        assert!(check_utilization(1.0).is_ok());
        assert!(check_utilization(0.0).is_err());
        assert!(check_utilization(1.2).is_err());
        assert!(check_utilization(f64::NAN).is_err());
    }

    #[test]
    fn dense_gops_must_match_utilization_times_peak() {
        let line = layer_line("0.2048", "2560.000", "0.50000", "3.0720");
        assert!(check_layer_reply(&line, &ask(true, false, 262_144), DIMS, NAME).is_err());
        // Serial engines divide peak by expected digits: the law is not
        // applied to them.
        assert!(check_layer_reply(&line, &ask(false, false, 262_144), DIMS, NAME).is_ok());
    }

    #[test]
    fn an_error_reply_or_a_wrong_label_fails() {
        let err = "{\"id\":1,\"ok\":false,\"error\":\"unknown engine\"}";
        assert!(check_layer_reply(err, &ask(true, false, 1), DIMS, NAME).is_err());
        let line =
            layer_line("0.2048", "2560.000", "0.83333", "3.0720").replace("Trapezoid", "TPU");
        assert!(check_layer_reply(&line, &ask(true, false, 262_144), DIMS, NAME).is_err());
    }

    #[test]
    fn a_bounded_request_needs_the_roofline_group() {
        let line = layer_line("0.2048", "2560.000", "0.83333", "3.0720");
        assert!(check_layer_reply(&line, &ask(true, true, 262_144), DIMS, NAME).is_err());
        let bounded = line.replace(
            "}",
            ",\"bytes_moved\":1,\"intensity_ops_per_byte\":1.0,\"bound\":\"dram\"}",
        );
        assert!(check_layer_reply(&bounded, &ask(true, true, 262_144), DIMS, NAME).is_ok());
    }

    fn model_line(macs: u64) -> String {
        format!(
            "{{\"id\":3,\"ok\":true,\"op\":\"model\",\"engine\":\"OPT1(Trapezoid)/28nm@1.50GHz\",\
             \"model\":\"Tiny\",\"seed\":7,\"feasible\":true,\"layers\":2,\"macs\":{macs},\
             \"cycles\":100,\"delay_us\":0.2048,\"energy_uj\":0.1,\"gops\":2560.000,\
             \"peak_tops\":3.0720,\"utilization\":0.83333,\"power_w\":0.1,\"tops_per_w\":1.0,\
             \"area_um2\":1.000}}"
        )
    }

    #[test]
    fn a_model_reply_whose_macs_are_off_by_one_layer_fails() {
        let a = ask(true, false, 262_144);
        assert!(check_model_reply(&model_line(262_144), &a, "Tiny", 2).is_ok());
        // The reply dropped a 4096-MAC layer from its sum.
        let err = check_model_reply(&model_line(262_144 - 4096), &a, "Tiny", 2).unwrap_err();
        assert!(err.contains("macs"), "{err}");
        assert!(check_model_reply(&model_line(262_144), &a, "Tiny", 3).is_err());
    }

    #[test]
    fn engine_replies_need_positive_prices_and_the_dense_peak_law() {
        let line = |peak: &str| {
            format!(
                "{{\"id\":1,\"ok\":true,\"op\":\"engine\",\"engine\":\"MAC(TPU)/28nm@1.00GHz\",\
                 \"feasible\":true,\"area_um2\":10.0,\"e_active_fj\":1.0,\"e_idle_fj\":0.1,\
                 \"instances\":1024,\"lanes_total\":1024,\"peak_tops\":{peak}}}"
            )
        };
        let label = "MAC(TPU)/28nm@1.00GHz";
        assert_eq!(label_freq_ghz(label), Some(1.0));
        assert!(check_engine_reply(&line("2.0480"), label, true, 1.0).is_ok());
        assert!(check_engine_reply(&line("4.0960"), label, true, 1.0).is_err());
        assert!(check_engine_reply(&line("0.0000"), label, false, 1.0).is_err());
    }

    fn row(group: &str, twin: &str, unbounded: bool, m: Option<(f64, f64, f64)>) -> Row {
        Row {
            group: (group.into(), "W8".into()),
            twin: twin.into(),
            unbounded,
            dense: false,
            macs: 1000,
            metrics: m.map(|(area, delay, fj)| RowMetrics {
                area_um2: area,
                delay_us: delay,
                fj_per_mac: fj,
                gops: 2.0 * 1000.0 / delay / 1e3,
                utilization: 0.5,
                peak_tops: 1.0,
            }),
        }
    }

    #[test]
    fn a_front_with_a_dominated_point_fails() {
        let rows = vec![
            row("a", "x", true, Some((1.0, 2.0, 3.0))),
            row("a", "y", true, Some((2.0, 1.0, 3.0))),
            row("a", "z", true, Some((2.0, 2.0, 3.0))), // dominated by both
            row("b", "z", true, Some((9.0, 9.0, 9.0))), // alone in its group
            row("a", "w", true, None),
        ];
        assert!(check_front(&rows, &[true, true, false, true, false]).is_ok());
        let err = check_front(&rows, &[true, true, true, true, false]).unwrap_err();
        assert!(err.contains("row 2"), "{err}");
        // A non-dominated point left off the front fails too.
        assert!(check_front(&rows, &[true, false, false, true, false]).is_err());
        // So does an infeasible point on it.
        assert!(check_front(&rows, &[true, true, false, true, true]).is_err());
    }

    #[test]
    fn a_finite_corner_faster_than_unbounded_fails() {
        let ok = vec![
            row("a", "e/w", true, Some((1.0, 2.0, 3.0))),
            row("a", "e/w", false, Some((1.0, 2.5, 3.0))),
        ];
        assert_eq!(check_corners(&ok), Ok(1));
        let bad = vec![
            row("a", "e/w", true, Some((1.0, 2.0, 3.0))),
            row("a", "e/w", false, Some((1.0, 1.5, 3.0))),
        ];
        assert!(check_corners(&bad).is_err());
    }

    /// Serial corner pairs carry the sampling slack: the 0.02% inversion
    /// seen on `OPT3[EN-T]` passes, an inversion beyond 5% (a corner that
    /// ran faster than compute alone allows) fails. Dense pairs get only
    /// the rendering half-unit.
    #[test]
    fn a_serial_corner_inversion_beyond_the_sampling_tolerance_fails() {
        let tol = SAMPLED_CORNER_TOL;
        assert!(check_corner_pair("s", 69.3333, 69.3476, tol, half(4)).is_ok());
        assert!(check_corner_pair("s", 70.0, 69.3476, tol, half(4)).is_ok());
        let err = check_corner_pair("s", 64.0, 69.3476, tol, half(4)).unwrap_err();
        assert!(err.contains("below"), "{err}");
        assert!(check_corner_pair("d", 69.3333, 69.3476, 0.0, half(4)).is_err());
        assert!(check_corner_pair("d", 69.3476, 69.34764, 0.0, half(4)).is_ok());
    }

    #[test]
    fn slice_replies_need_the_benchmarks_point_count_and_an_ordered_front() {
        let line = |points: u32, feasible: u32, front: u32| {
            format!(
                "{{\"id\":19,\"ok\":true,\"op\":\"sweep\",\"filter\":\"OPT4E,precision=w8\",\
                 \"seed\":42,\"objectives\":\"area,delay,energy\",\"points\":{points},\
                 \"feasible\":{feasible},\"front\":{front},\"csv_header\":\"label\",\
                 \"points_follow\":0}}"
            )
        };
        let f = "OPT4E,precision=w8";
        assert!(check_slice_reply(&line(7, 7, 3), "sweep", f, 7).is_ok());
        assert!(check_slice_reply(&line(6, 6, 3), "sweep", f, 7).is_err());
        assert!(check_slice_reply(&line(7, 5, 6), "sweep", f, 7).is_err());
        assert!(check_slice_reply(&line(7, 7, 0), "sweep", f, 7).is_err());
        assert!(check_slice_reply(&line(7, 7, 3), "pareto", f, 7).is_err());
        assert!(check_slice_reply(&line(7, 7, 3), "sweep", "OPT1", 7).is_err());
    }

    #[test]
    fn rows_with_wrong_throughput_or_utilization_fail() {
        let good = row("a", "x", true, Some((1.0, 2.0, 3.0)));
        assert!(check_row(&good).is_ok());
        let mut bad = good.clone();
        bad.metrics.as_mut().unwrap().gops *= 1.01;
        assert!(check_row(&bad).is_err());
        let mut bad = good.clone();
        bad.metrics.as_mut().unwrap().utilization = 0.0;
        assert!(check_row(&bad).is_err());
    }

    #[test]
    fn a_warm_re_sweep_that_records_a_miss_fails() {
        assert!(check_warm(0, true).is_ok());
        assert!(check_warm(1, true).is_err());
        assert!(check_warm(0, false).is_err());
    }

    #[test]
    fn the_oracle_tolerance_is_relative() {
        assert!(check_oracle("p", 104.0, 100.0, 0.05).is_ok());
        assert!(check_oracle("p", 106.0, 100.0, 0.05).is_err());
    }

    #[test]
    fn csv_columns_must_match_the_rows_and_the_front() {
        let rows = vec![
            row("a", "x", true, Some((1.0, 2.0, 3.0))),
            row("a", "y", true, None),
        ];
        let csv = "label,macs,feasible,pareto\n\"p,1\",1000,1,1\np2,1000,0,0\n";
        assert_eq!(csv_fields("\"p,1\",\"q\"\"\",3"), vec!["p,1", "q\"", "3"]);
        assert!(check_csv(csv, &rows, &[true, false]).is_ok());
        assert!(check_csv(csv, &rows, &[false, false]).is_err());
        assert!(check_csv(&csv.replace(",1000,0", ",999,0"), &rows, &[true, false]).is_err());
        assert!(check_csv("label,macs,feasible,pareto\n", &rows, &[true, false]).is_err());
    }
}
