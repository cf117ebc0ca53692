//! Golden tests: the `tpe-engine` refactor is pinned **byte-identical**
//! to the pre-refactor evaluation paths.
//!
//! The CSV snapshots under `tests/golden/` were generated by the last
//! commit in which `dse::eval`, the model grid's engine pricing and the
//! experiment pricing were three separate implementations (`repro dse
//! --out` / `repro models --out` at seed 42). Every future change to the canonical
//! evaluator must either keep these bytes or consciously regenerate them.

use tpe_dse::emit::{model_csv, to_csv};
use tpe_dse::{pareto_front_per_workload, run_grid, sweep, DesignSpace, Objective, SweepConfig};
use tpe_engine::{EngineCache, EngineSpec, Evaluator};
use tpe_workloads::NetworkModel;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Line-wise comparison so a regression reports the first drifted row,
/// not a 100 KB diff.
fn assert_lines_identical(actual: &str, expected: &str, what: &str) {
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "{what}: line {} drifted", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "{what}: line count drifted"
    );
    assert_eq!(actual, expected, "{what}: byte-level drift (line endings?)");
}

/// Strips the trailing memory-hierarchy column group
/// (`memory,bytes_moved,intensity_ops_per_byte,bound`) from every line of
/// a CSV, asserting each data row carried the default `unbounded` corner
/// and (when feasible) a `compute` bound — the projection that maps the
/// roofline-era schema back onto the pre-memory snapshots. Composes with
/// [`strip_w8_precision_column`], which then peels the `precision` column
/// the same way.
fn strip_unbounded_memory_columns(csv: &str) -> String {
    const GROUP: [&str; 4] = ["memory", "bytes_moved", "intensity_ops_per_byte", "bound"];
    let mut out = String::with_capacity(csv.len());
    for (i, line) in csv.lines().enumerate() {
        let mut rest = line;
        let mut tail = [""; 4];
        for slot in tail.iter_mut().rev() {
            let (head, last) = rest.rsplit_once(',').expect("csv row");
            *slot = last;
            rest = head;
        }
        if i == 0 {
            assert_eq!(tail, GROUP, "memory group must be the last four columns");
        } else {
            let [memory, bytes, _intensity, bound] = tail;
            assert_eq!(memory, "unbounded", "row {}: {line}", i + 1);
            if bytes.is_empty() {
                assert_eq!(
                    bound,
                    "",
                    "row {}: infeasible row with a bound: {line}",
                    i + 1
                );
            } else {
                assert_eq!(
                    bound,
                    "compute",
                    "row {}: unbounded row not compute-bound: {line}",
                    i + 1
                );
            }
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

/// Strips the trailing `precision` column from every line of a CSV,
/// asserting each data row carried `w8` there — the projection that maps
/// the extended schema back onto the pre-precision snapshots.
fn strip_w8_precision_column(csv: &str) -> String {
    let mut out = String::with_capacity(csv.len());
    for (i, line) in csv.lines().enumerate() {
        let (head, last) = line.rsplit_once(',').expect("csv row");
        if i == 0 {
            assert_eq!(last, "precision", "precision must be the last column");
        } else {
            assert!(
                last.eq_ignore_ascii_case("w8"),
                "row {} is not a W8 row: {line}",
                i + 1
            );
        }
        out.push_str(head);
        out.push('\n');
    }
    out
}

/// `repro dse` (default space, seed 42): the sweep now spans the
/// W8/W4/W16 precision ladder (2016 points), and its **W8 slice projects
/// byte-identically onto the pre-precision 672-point snapshot** — labels,
/// metrics and Pareto markers included (fronts are extracted per
/// workload × precision, so new precisions can never evict a W8 front
/// point).
#[test]
fn repro_dse_default_space_csv_matches_pre_refactor_snapshot() {
    let points = DesignSpace::paper_default().enumerate();
    assert_eq!(points.len(), 672 * 3, "default space size changed");
    let outcome = sweep(
        &points,
        SweepConfig {
            threads: 1,
            seed: 42,
            ..SweepConfig::default()
        },
    );
    let front = pareto_front_per_workload(&outcome.results, &Objective::DEFAULT);
    let csv = strip_unbounded_memory_columns(&to_csv(&outcome.results, &front));

    // Every precision contributes its full slice.
    for (precision, expected) in [("W8", 672), ("W4", 672), ("W16", 672)] {
        let n = csv
            .lines()
            .skip(1)
            .filter(|l| l.rsplit_once(',').unwrap().1 == precision)
            .count();
        assert_eq!(n, expected, "{precision} row count");
    }

    let header = csv.lines().next().unwrap().to_string();
    let w8_rows: Vec<&str> = csv.lines().skip(1).filter(|l| l.ends_with(",W8")).collect();
    let w8_csv = format!("{header}\n{}\n", w8_rows.join("\n"));
    assert_lines_identical(
        &strip_w8_precision_column(&w8_csv),
        &golden("dse_default.csv"),
        "repro dse CSV (W8 slice)",
    );
}

/// `repro models` (seed 42): the full 10-network × 12-engine grid CSV —
/// the default grid stays at W8, so the whole file projects onto the
/// pre-precision snapshot.
#[test]
fn repro_models_full_grid_csv_matches_pre_refactor_snapshot() {
    let nets = NetworkModel::all();
    let engines = EngineSpec::paper_roster();
    assert_eq!((nets.len(), engines.len()), (10, 12), "grid shape changed");
    let outcome = run_grid(
        &nets,
        &engines,
        SweepConfig {
            threads: 1,
            seed: 42,
            ..SweepConfig::default()
        },
        EngineCache::global(),
    );
    let csv = model_csv(&outcome.runs);
    assert_lines_identical(
        &strip_w8_precision_column(&strip_unbounded_memory_columns(&csv)),
        &golden("models_grid.csv"),
        "repro models CSV",
    );
}

/// Every Table VII roster engine prices bit-identically to the
/// pre-refactor snapshot: (label, area_um2, e_active_fj, e_idle_fj,
/// peak_tops) as IEEE-754 bit patterns.
#[test]
fn table7_roster_prices_are_bit_identical_to_snapshot() {
    const SNAPSHOT: &[(&str, u64, u64, u64, u64)] = &[
        (
            "MAC(TPU)/28nm@1.00GHz",
            0x411877f895fa6a59,
            0x406ed57622de1492,
            0x400c48448f8cc1f0,
            0x4000624dd2f1a9fc,
        ),
        (
            "MAC(Ascend)/28nm@1.00GHz",
            0x41138f76e7ed1bd5,
            0x4069acc70396f1bb,
            0x401906f0214356c0,
            0x4000000000000000,
        ),
        (
            "MAC(Trapezoid)/28nm@1.00GHz",
            0x411130ee141f335f,
            0x40660840907b3d55,
            0x4014508c1118e5be,
            0x4000624dd2f1a9fc,
        ),
        (
            "MAC(FlexFlow)/28nm@1.00GHz",
            0x41175236069e4164,
            0x406d43284fec6a96,
            0x4001b4cfd32242f5,
            0x4000624dd2f1a9fc,
        ),
        (
            "OPT1(TPU)/28nm@1.50GHz",
            0x411a3516fa052b56,
            0x406d23d03752415c,
            0x4027f87d752da7b8,
            0x40089374bc6a7efa,
        ),
        (
            "OPT1(Ascend)/28nm@1.50GHz",
            0x41156c5a479d0c5a,
            0x4068f69c9c088dbc,
            0x40233fb409500b10,
            0x4008000000000000,
        ),
        (
            "OPT1(Trapezoid)/28nm@1.50GHz",
            0x4111e78cc5fe8fd9,
            0x40661ec00cd2108c,
            0x4021d24db1904715,
            0x40089374bc6a7efa,
        ),
        (
            "OPT1(FlexFlow)/28nm@1.50GHz",
            0x411a3516fa052b56,
            0x406d23d03752415c,
            0x4027f87d752da7b8,
            0x40089374bc6a7efa,
        ),
        (
            "OPT2(FlexFlow)/28nm@1.50GHz",
            0x411cd437084290ed,
            0x406918533e3e0eb0,
            0x402602174e460c75,
            0x40089374bc6a7efa,
        ),
        (
            "OPT3[EN-T]/28nm@2.00GHz",
            0x4119c013320d2c2c,
            0x4071528ea8162624,
            0x4033fe2ad231ce28,
            0x3ffc12229e3e08d9,
        ),
        (
            "OPT4C[EN-T]/28nm@2.50GHz",
            0x40fe9fdf70448673,
            0x405180c2f2983976,
            0x40120943dcb06bf8,
            0x40018b55a2e6c587,
        ),
        (
            "OPT4E[EN-T]/28nm@2.00GHz",
            0x411d07f832e90ff0,
            0x406d0b979a03c162,
            0x4029c7cc71633754,
            0x401c12229e3e08d9,
        ),
    ];
    let roster = EngineSpec::paper_roster();
    assert_eq!(roster.len(), SNAPSHOT.len());
    let eval = Evaluator::global();
    for (spec, &(label, area, active, idle, peak)) in roster.iter().zip(SNAPSHOT) {
        assert_eq!(spec.label(), label, "roster order changed");
        let p = eval
            .price(spec)
            .unwrap_or_else(|| panic!("{label} fails timing"));
        assert_eq!(p.area_um2.to_bits(), area, "{label}: area drifted");
        assert_eq!(
            p.e_active_fj.to_bits(),
            active,
            "{label}: active energy drifted"
        );
        assert_eq!(p.e_idle_fj.to_bits(), idle, "{label}: idle energy drifted");
        assert_eq!(p.peak_tops.to_bits(), peak, "{label}: peak TOPS drifted");
    }
}
