//! Property tests for the model-level pipeline: per-model aggregates are
//! exactly the sum (or delay-weighted mean) of their per-layer rows, and
//! the parallel grid is byte-identical across runs and thread counts.

use proptest::prelude::*;
use tpe_arith::encode::EncodingKind;
use tpe_core::arch::PeStyle;
use tpe_engine::EngineCache;
use tpe_pipeline::{run_grid, EngineSpec, GridConfig, MODEL_SAMPLE_CAPS};
use tpe_sim::array::ClassicArch;
use tpe_workloads::models;
use tpe_workloads::{LayerShape, NetworkModel};

/// A small synthetic network whose layer shapes are drawn by proptest.
fn synthetic_net(shapes: &[(usize, usize, usize, usize)]) -> NetworkModel {
    NetworkModel {
        name: "synthetic".into(),
        layers: shapes
            .iter()
            .enumerate()
            .map(|(i, &(m, n, k, r))| LayerShape::new(format!("l{i}"), m, n, k, r))
            .collect(),
    }
}

fn engines_under_test() -> Vec<EngineSpec> {
    vec![
        EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0),
        EngineSpec::dense(PeStyle::Opt1, ClassicArch::Ascend, 1.5),
        EngineSpec::serial(PeStyle::Opt3, EncodingKind::EnT, 2.0),
        EngineSpec::serial(PeStyle::Opt4E, EncodingKind::Mbe, 2.0),
    ]
}

/// [`engines_under_test`] plus each engine pinned to the `edge` memory
/// corner — the aggregate identities must hold with rooflines applied too.
fn engines_under_test_with_memory_corners() -> Vec<EngineSpec> {
    let free = engines_under_test();
    let edge: Vec<EngineSpec> = free
        .iter()
        .map(|e| e.clone().with_memory(tpe_engine::MemorySpec::edge()))
        .collect();
    free.into_iter().chain(edge).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Per-model aggregate cycles / delay / energy / MACs / bytes moved
    /// equal the sum of the per-layer results, and utilization is their
    /// delay-weighted mean, on every engine family — with and without a
    /// finite memory corner bounding the layers.
    #[test]
    fn aggregates_equal_sum_of_per_layer_results(
        shapes in prop::collection::vec(
            (1usize..48, 1usize..64, 1usize..96, 1usize..4),
            1..6,
        ),
        seed in 0u64..1000,
    ) {
        let net = synthetic_net(&shapes);
        for engine in engines_under_test_with_memory_corners() {
            let price = engine.price().expect("paper clocks close timing");
            let report =
                tpe_pipeline::evaluate_model(&engine, &price, &net, seed, MODEL_SAMPLE_CAPS);
            prop_assert_eq!(report.layers.len(), net.layers.len());

            let cycles: f64 = report.layers.iter().map(|l| l.cycles).sum();
            let delay: f64 = report.layers.iter().map(|l| l.delay_us).sum();
            let energy: f64 = report.layers.iter().map(|l| l.energy_uj).sum();
            let macs: u64 = report.layers.iter().map(|l| l.macs).sum();
            let bytes: f64 = report.layers.iter().map(|l| l.bytes_moved).sum();
            prop_assert_eq!(report.cycles.to_bits(), cycles.to_bits());
            prop_assert_eq!(report.delay_us.to_bits(), delay.to_bits());
            prop_assert_eq!(report.energy_uj.to_bits(), energy.to_bits());
            prop_assert_eq!(report.bytes_moved.to_bits(), bytes.to_bits());
            prop_assert_eq!(report.total_macs, macs);
            prop_assert_eq!(report.total_macs, net.total_macs());
            prop_assert_eq!(
                report.intensity_ops_per_byte.to_bits(),
                (2.0 * macs as f64 / bytes).to_bits()
            );

            let weighted: f64 = report
                .layers
                .iter()
                .map(|l| l.utilization * l.delay_us)
                .sum();
            prop_assert!((report.utilization - weighted / delay).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&report.utilization));
        }
    }
}

/// The grid emits byte-identical CSV across runs and thread counts — the
/// determinism contract `repro models` asserts on every invocation.
#[test]
fn model_grid_csv_is_byte_identical_across_runs_and_thread_counts() {
    let nets = vec![models::resnet18(), models::mobilenet_v3()];
    let engines = engines_under_test();
    let emit = |threads: usize| {
        let config = GridConfig::quick_test(threads, 77);
        let outcome = run_grid(&nets, &engines, config, EngineCache::global());
        tpe_dse::emit::model_csv(&outcome.runs)
    };
    let once = emit(1);
    assert_eq!(once, emit(1), "same thread count must reproduce");
    for threads in [2, 3, 8] {
        assert_eq!(
            once,
            emit(threads),
            "CSV bytes diverged at {threads} threads"
        );
    }
    assert_eq!(once.lines().count(), nets.len() * engines.len() + 1);
}

/// Whole-model workloads inside the `tpe-dse` sweep obey the same
/// contract: serial vs N-thread sweeps over model points emit identical
/// CSV, and different seeds actually reach the per-layer samplers.
#[test]
fn dse_model_points_are_thread_count_invariant() {
    use tpe_dse::{pareto_front, sweep, DesignSpace, Objective, SweepConfig};

    let space = DesignSpace::with_models("mobilenetv3").unwrap();
    // Serial points only: they are the ones that sample RNG streams.
    let points = space.enumerate_filtered("OPT4E[EN-T]/28nm");
    assert!(!points.is_empty());
    let emit = |threads: usize, seed: u64| {
        let outcome = sweep(
            &points,
            SweepConfig {
                threads,
                seed,
                ..SweepConfig::default()
            },
        );
        let front = pareto_front(&outcome.results, &Objective::DEFAULT);
        tpe_dse::emit::to_csv(&outcome.results, &front)
    };
    let reference = emit(1, 5);
    assert_eq!(
        reference,
        emit(4, 5),
        "model-point sweep must be thread-invariant"
    );
    assert_ne!(reference, emit(1, 6), "seed must reach the model sampler");
    assert!(reference.contains(",model,"), "rows must be whole-model");
}
