//! Golden test for the serve layer's `sweep`/`pareto` batch ops: the
//! per-point lines a `sweep` op answers carry the **exact CSV rows**
//! `repro dse` writes for the same slice (same filter, same seed, same
//! objectives) — so the dse CSV pipeline is queryable over the wire with
//! no loss of fidelity, batched through the pooled server included.

use std::net::TcpListener;

use tpe_dse::emit::{to_csv, CSV_HEADER};
use tpe_dse::{pareto_front_per_workload, sweep_with_cache, DseOps, Objective, SweepConfig};
use tpe_engine::serve::{handle_request, query_batch, serve, ServeConfig, ServeObs};
use tpe_engine::EngineCache;

/// A three-precision slice of the default space: one serial engine × 7
/// workloads (6 layers + ResNet-18 end-to-end) × W8/W4/W16.
const FILTER: &str = "OPT4E[EN-T]/28nm@2.00GHz";
const SEED: u64 = 42;

/// Extracts a JSON string field's raw value from a response line,
/// undoing the protocol's `\"`/`\\` escaping.
fn string_field(line: &str, key: &str) -> String {
    let marker = format!("\"{key}\":\"");
    let start = line
        .find(&marker)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + marker.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return out,
            '\\' => out.push(chars.next().expect("dangling escape")),
            c => out.push(c),
        }
    }
    panic!("unterminated {key} field in {line}");
}

/// The `repro dse` reference CSV for the slice: filtered enumeration,
/// 1-thread sweep, per-workload front over the default objectives.
fn reference_csv() -> String {
    let points = tpe_dse::slice_space(None)
        .unwrap()
        .enumerate_filtered(FILTER);
    assert_eq!(points.len(), 21, "slice shape changed");
    let outcome = sweep_with_cache(
        &points,
        SweepConfig {
            threads: 1,
            seed: SEED,
            ..SweepConfig::default()
        },
        &EngineCache::new(),
    );
    let front = pareto_front_per_workload(&outcome.results, &Objective::DEFAULT);
    to_csv(&outcome.results, &front)
}

/// Reassembles a full CSV document from a sweep op's response lines.
fn csv_from_sweep_lines(lines: &[String]) -> String {
    let header = string_field(&lines[0], "csv_header");
    assert_eq!(header, CSV_HEADER, "served schema drifted");
    let mut csv = header;
    csv.push('\n');
    for line in &lines[1..] {
        csv.push_str(&string_field(line, "csv"));
        csv.push('\n');
    }
    csv
}

#[test]
fn sweep_op_point_rows_are_byte_identical_to_repro_dse() {
    let cache = EngineCache::new();
    let req = format!(r#"{{"id":1,"op":"sweep","filter":"{FILTER}","seed":{SEED},"points":true}}"#);
    let (lines, down) = handle_request(&req, &cache, &DseOps);
    assert!(!down);
    assert_eq!(lines.len(), 22, "summary + 21 point lines: {}", lines.len());
    assert!(lines[0].contains("\"points_follow\":21"), "{}", lines[0]);

    let reference = reference_csv();
    assert_eq!(
        csv_from_sweep_lines(&lines),
        reference,
        "served sweep rows drifted from the repro dse CSV"
    );
}

#[test]
fn pareto_op_front_rows_are_the_reference_front() {
    let cache = EngineCache::new();
    let req = format!(r#"{{"id":2,"op":"pareto","filter":"{FILTER}","seed":{SEED}}}"#);
    let (lines, _) = handle_request(&req, &cache, &DseOps);

    let reference = reference_csv();
    let front_rows: Vec<&str> = reference
        .lines()
        .skip(1)
        .filter(|row| {
            // The `pareto` column sits right before the 9 metric cells
            // and the 4-cell memory group.
            let cells: Vec<&str> = row.split(',').collect();
            cells[cells.len() - 14] == "1"
        })
        .collect();
    assert_eq!(
        lines.len(),
        1 + front_rows.len(),
        "summary + one line per front point: {lines:?}"
    );
    for (line, row) in lines[1..].iter().zip(&front_rows) {
        assert_eq!(&string_field(line, "csv"), row, "front row drifted");
        assert!(line.contains("\"pareto\":true"), "{line}");
    }
}

/// The same sweep through a real pooled server: `query_batch` reads the
/// announced per-point lines, responses stay contiguous and in request
/// order, and the bytes equal the in-process answer.
#[test]
fn sweep_op_round_trips_through_a_pooled_server() {
    let cache: &'static EngineCache = &*Box::leak(Box::new(EngineCache::new()));
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let config = ServeConfig {
        threads: 4,
        ..ServeConfig::default()
    };
    let server = std::thread::spawn(move || {
        serve(listener, cache, &DseOps, config, ServeObs::global(), None)
    });

    let sweep_req =
        format!(r#"{{"id":1,"op":"sweep","filter":"{FILTER}","seed":{SEED},"points":true}}"#);
    let tail_req = r#"{"id":2,"op":"engine","engine":"OPT4E[EN-T]"}"#.to_string();
    let replies = query_batch(&addr, &[sweep_req.clone(), tail_req]).expect("batch");
    assert_eq!(replies.len(), 1 + 21 + 1, "{}", replies.len());

    let (local, _) = handle_request(&sweep_req, &EngineCache::new(), &DseOps);
    assert_eq!(&replies[..22], &local[..], "socket bytes diverged");
    assert!(
        replies[22].starts_with("{\"id\":2,\"ok\":true,\"op\":\"engine\""),
        "the next request's reply follows the sweep block: {}",
        replies[22]
    );

    query_batch(&addr, &[r#"{"id":0,"op":"shutdown"}"#.to_string()]).expect("shutdown");
    server.join().unwrap().expect("serve loop");
}
