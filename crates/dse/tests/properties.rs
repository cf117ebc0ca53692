//! Property tests for the DSE subsystem: Pareto extraction returns only
//! non-dominated points and is permutation-invariant; seeded parallel
//! sweeps and model grids are byte-identical across runs and thread
//! counts; the evaluation cache hits on workload-heavy sweeps; per-model
//! aggregates are exactly the sum (or delay-weighted mean) of their
//! per-layer rows.

use proptest::prelude::*;
use tpe_dse::emit::{model_csv, to_csv};
use tpe_dse::eval::{Metrics, PointResult};
use tpe_dse::pareto::dominates;
use tpe_dse::shard::{group_key, merge_front, scores_of, FrontCandidate};
use tpe_dse::{
    pareto_front, pareto_front_per_workload, run_grid, sweep, sweep_with_cache, DesignPoint,
    DesignSpace, EngineCache, Objective, SweepConfig,
};

use tpe_arith::encode::EncodingKind;
use tpe_core::arch::{ArchKind, PeStyle};
use tpe_engine::schedule::evaluate_model_with;
use tpe_engine::{EngineSpec, MODEL_SAMPLE_CAPS};
use tpe_sim::array::ClassicArch;
use tpe_workloads::models;
use tpe_workloads::{LayerShape, NetworkModel};

/// Builds a synthetic feasible result from a raw objective triple.
fn synthetic(area: f64, delay: f64, energy: f64) -> PointResult {
    synthetic_in_group("synthetic", area, delay, energy)
}

/// [`synthetic`] under an explicit workload name, so tests can span
/// several dominance groups (dominance is per workload × precision).
fn synthetic_in_group(name: &str, area: f64, delay: f64, energy: f64) -> PointResult {
    let point = DesignPoint::new(
        EngineSpec::serial(PeStyle::Opt3, EncodingKind::EnT, 2.0),
        LayerShape::new(name, 4, 4, 4, 1),
    );
    PointResult {
        point,
        metrics: Some(Metrics {
            area_um2: area,
            delay_us: delay,
            energy_uj: energy,
            energy_per_mac_fj: energy,
            throughput_gops: 1.0 / delay,
            peak_tops: 1.0,
            utilization: 0.5,
            power_w: energy / delay,
            bytes_moved: 192.0,
            intensity_ops_per_byte: 2.0 * 64.0 / 192.0,
            bound: tpe_engine::Bound::Compute,
        }),
    }
}

const OBJECTIVES: [Objective; 3] = [Objective::Area, Objective::Delay, Objective::Energy];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every point on the front is non-dominated, and every point off the
    /// front is dominated by someone.
    #[test]
    fn front_is_exactly_the_non_dominated_set(
        triples in prop::collection::vec((1u32..1000, 1u32..1000, 1u32..1000), 1..40),
    ) {
        let results: Vec<PointResult> = triples
            .iter()
            .map(|&(a, d, e)| synthetic(f64::from(a), f64::from(d), f64::from(e)))
            .collect();
        let front = pareto_front(&results, &OBJECTIVES);
        prop_assert!(!front.is_empty());
        let metric = |i: usize| results[i].metrics.as_ref().unwrap();
        for &i in &front {
            for (j, _) in results.iter().enumerate() {
                prop_assert!(
                    !dominates(metric(j), metric(i), &OBJECTIVES),
                    "front point {i} dominated by {j}"
                );
            }
        }
        for i in 0..results.len() {
            if !front.contains(&i) {
                prop_assert!(
                    (0..results.len()).any(|j| dominates(metric(j), metric(i), &OBJECTIVES)),
                    "off-front point {i} dominated by nobody"
                );
            }
        }
    }

    /// Permuting the input permutes the front: the same *set* of points
    /// comes back regardless of order.
    #[test]
    fn front_is_invariant_under_permutation(
        triples in prop::collection::vec((1u32..50, 1u32..50, 1u32..50), 1..30),
        rotation in 0usize..30,
    ) {
        let results: Vec<PointResult> = triples
            .iter()
            .map(|&(a, d, e)| synthetic(f64::from(a), f64::from(d), f64::from(e)))
            .collect();
        let rotation = rotation % results.len().max(1);
        let mut rotated = results.clone();
        rotated.rotate_left(rotation);

        let key = |r: &PointResult| {
            let m = r.metrics.as_ref().unwrap();
            (m.area_um2.to_bits(), m.delay_us.to_bits(), m.energy_uj.to_bits())
        };
        let mut front_a: Vec<_> = pareto_front(&results, &OBJECTIVES)
            .into_iter()
            .map(|i| key(&results[i]))
            .collect();
        let mut front_b: Vec<_> = pareto_front(&rotated, &OBJECTIVES)
            .into_iter()
            .map(|i| key(&rotated[i]))
            .collect();
        front_a.sort_unstable();
        front_b.sort_unstable();
        prop_assert_eq!(front_a, front_b);
    }

    /// Front size never exceeds input size and front indices are sorted.
    #[test]
    fn front_indices_sorted_and_bounded(
        triples in prop::collection::vec((1u32..100, 1u32..100, 1u32..100), 1..25),
    ) {
        let results: Vec<PointResult> = triples
            .iter()
            .map(|&(a, d, e)| synthetic(f64::from(a), f64::from(d), f64::from(e)))
            .collect();
        let front = pareto_front(&results, &OBJECTIVES);
        prop_assert!(front.len() <= results.len());
        prop_assert!(front.windows(2).all(|w| w[0] < w[1]));
    }

    /// The shard-merge theorem: for ANY partition of the result set into
    /// any number of shards, the front of the union of shard-local fronts
    /// equals the whole-set front — front-then-merge == merge-then-front.
    /// This is what lets `repro query --shards` reassemble Pareto answers
    /// without re-evaluating anything.
    #[test]
    fn merged_local_fronts_equal_the_global_front(
        points in prop::collection::vec(
            ((1u32..60, 1u32..60, 1u32..60), 0u8..3), 1..40),
        assignment_seed in prop::collection::vec(0usize..8, 1..40),
        n in 1usize..6,
    ) {
        let results: Vec<PointResult> = points
            .iter()
            .map(|&((a, d, e), g)| {
                synthetic_in_group(&format!("g{g}"), f64::from(a), f64::from(d), f64::from(e))
            })
            .collect();
        // Partition by an arbitrary (not hash-based) assignment: the
        // theorem must hold for every partition, of which the label-hash
        // one is a special case.
        let shard_of = |i: usize| assignment_seed[i % assignment_seed.len()] % n;
        let mut candidates: Vec<FrontCandidate> = Vec::new();
        for k in 0..n {
            let member_indices: Vec<usize> =
                (0..results.len()).filter(|&i| shard_of(i) == k).collect();
            let local: Vec<PointResult> =
                member_indices.iter().map(|&i| results[i].clone()).collect();
            for pos in pareto_front_per_workload(&local, &OBJECTIVES) {
                let global = member_indices[pos];
                candidates.push(FrontCandidate {
                    index: global,
                    group: group_key(&results[global]),
                    scores: scores_of(&results[global], &OBJECTIVES).unwrap(),
                });
            }
        }
        let merged = merge_front(&candidates);
        let whole = pareto_front_per_workload(&results, &OBJECTIVES);
        prop_assert_eq!(merged, whole);
    }
}

/// The global front is always a subset of the per-workload union: a point
/// non-dominated against everyone is non-dominated within its workload.
#[test]
fn global_front_is_subset_of_per_workload_union() {
    let points = DesignSpace::quick().enumerate();
    let outcome = sweep(
        &points,
        SweepConfig {
            threads: 2,
            seed: 11,
            ..SweepConfig::default()
        },
    );
    let global = pareto_front(&outcome.results, &Objective::DEFAULT);
    let per_wl = tpe_dse::pareto_front_per_workload(&outcome.results, &Objective::DEFAULT);
    assert!(
        global.iter().all(|i| per_wl.contains(i)),
        "global {global:?} not within per-workload {per_wl:?}"
    );
    assert!(
        per_wl.windows(2).all(|w| w[0] < w[1]),
        "union must be sorted"
    );
}

/// A seeded sweep emits byte-identical CSV across runs and thread counts —
/// the property that makes sharded/parallel sweeps trustworthy.
#[test]
fn sweep_csv_is_byte_identical_across_runs_and_thread_counts() {
    let points = DesignSpace::quick().enumerate();
    let emit = |threads: usize| {
        let outcome = sweep(
            &points,
            SweepConfig {
                threads,
                seed: 1234,
                ..SweepConfig::default()
            },
        );
        let front = pareto_front(&outcome.results, &Objective::DEFAULT);
        to_csv(&outcome.results, &front)
    };
    let once = emit(1);
    let again = emit(1);
    assert_eq!(once, again, "same thread count must reproduce");
    for threads in [2, 3, 8] {
        let parallel = emit(threads);
        assert_eq!(
            once.len(),
            parallel.len(),
            "CSV length diverged at {threads} threads"
        );
        assert_eq!(once, parallel, "CSV bytes diverged at {threads} threads");
    }
}

/// Different seeds must actually change the sampled serial workloads
/// (guards against the seed being dropped on the floor).
#[test]
fn sweep_seed_reaches_the_workload_model() {
    let points = DesignSpace::quick().enumerate_filtered("OPT3");
    let a = sweep(
        &points,
        SweepConfig {
            threads: 2,
            seed: 1,
            ..SweepConfig::default()
        },
    );
    let b = sweep(
        &points,
        SweepConfig {
            threads: 2,
            seed: 2,
            ..SweepConfig::default()
        },
    );
    assert_ne!(a.results, b.results);
}

/// The evaluation cache reports a nonzero hit rate on a workload-heavy
/// sweep: (PE, corner) pairs repeat across workloads and are priced once.
#[test]
fn cache_hit_rate_is_nonzero_and_bounded() {
    let points = DesignSpace::quick().enumerate();
    let cache = EngineCache::new();
    let outcome = sweep_with_cache(
        &points,
        SweepConfig {
            threads: 4,
            seed: 7,
            ..SweepConfig::default()
        },
        &cache,
    );
    let stats = outcome.cache;
    assert!(stats.hits() > 0, "expected hits: {stats:?}");
    assert!(stats.misses() > 0, "at least one real pricing: {stats:?}");
    assert_eq!(
        stats.price_hits + stats.price_misses,
        points.len() as u64,
        "one pricing lookup per point"
    );
    let price_rate = stats.price_hits as f64 / (stats.price_hits + stats.price_misses) as f64;
    assert!(price_rate > 0.4, "pricing hit rate {price_rate:.3} too low");
    // Per-point cycle seeds are unique inside one sweep, so cycle lookups
    // all miss here — they only hit across repeated sweeps/queries.
    assert_eq!(stats.cycle_hits, 0);
}

/// Sharded serve responses merge byte-identical to the single-node
/// answer, for several shard counts and any response-group order (the
/// merge keys on the `shard:k/n` echo, not on position).
#[test]
fn sharded_serve_responses_merge_byte_identical() {
    use tpe_engine::serve::handle_request;
    const FILTER: &str = "OPT1(TPU)/28nm@1.50,precision=w8";
    let cache = EngineCache::new();
    for op in ["sweep", "pareto"] {
        let single_req =
            format!(r#"{{"id":7,"op":"{op}","filter":"{FILTER}","seed":42,"points":true}}"#);
        let (single, _) = handle_request(&single_req, &cache, &tpe_dse::DseOps);
        for n in 1..=4usize {
            let mut groups: Vec<Vec<String>> = (0..n)
                .map(|k| {
                    let req = format!(
                        r#"{{"id":7,"op":"{op}","filter":"{FILTER}","seed":42,"points":true,"shard":"{k}/{n}"}}"#
                    );
                    handle_request(&req, &cache, &tpe_dse::DseOps).0
                })
                .collect();
            // Any shard→process assignment: rotate the group order.
            groups.rotate_left(n / 2);
            let merged = tpe_dse::merge_shard_responses(&groups)
                .unwrap_or_else(|e| panic!("merge failed for {op} n={n}: {e}"));
            assert_eq!(merged, single, "{op} with {n} shards diverged");
        }
    }
}

/// The paper-default space satisfies the sweep-scale acceptance bar.
#[test]
fn paper_default_space_is_large_and_mostly_feasible() {
    let points = DesignSpace::paper_default().enumerate();
    assert!(points.len() >= 200, "{} points", points.len());
    // Sweep a fast serial-free slice to keep the debug-profile test quick.
    let dense: Vec<_> = points
        .iter()
        .filter(|p| matches!(p.kind(), ArchKind::Dense(_)))
        .cloned()
        .collect();
    let outcome = sweep(
        &dense,
        SweepConfig {
            threads: 4,
            seed: 3,
            ..SweepConfig::default()
        },
    );
    assert!(outcome.feasible_count() > dense.len() / 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Warm state survives the disk round trip intact: a sweep re-run
    /// from a saved-then-loaded snapshot misses the cache zero times and
    /// emits byte-identical CSV to the in-process warm sweep, for any
    /// seed and thread count.
    #[test]
    fn snapshot_round_trip_preserves_sweep_bytes(
        seed in 0u64..u64::MAX,
        threads in 1usize..4,
    ) {
        let points = DesignSpace::quick().enumerate();
        let config = SweepConfig { threads, seed, ..SweepConfig::default() };
        let csv_of = |outcome: &tpe_dse::SweepOutcome| {
            let front = pareto_front(&outcome.results, &Objective::DEFAULT);
            to_csv(&outcome.results, &front)
        };
        let cold_cache = EngineCache::new();
        let cold = sweep_with_cache(&points, config, &cold_cache);

        let path = std::env::temp_dir().join(format!(
            "tpe-prop-snap-{}-{seed:x}.bin",
            std::process::id()
        ));
        tpe_engine::snapshot::save(&cold_cache, &path).unwrap();
        let warm_cache = EngineCache::new();
        let info = tpe_engine::snapshot::load(&warm_cache, &path).unwrap().unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert!(info.entries > 0);

        let warm = sweep_with_cache(&points, config, &warm_cache);
        prop_assert_eq!(
            warm.cache.misses(), 0,
            "snapshot-warmed sweep must be all hits: {:?}", warm.cache
        );
        prop_assert_eq!(csv_of(&cold), csv_of(&warm));
    }
}

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
            let cache = EngineCache::global();
            let report = evaluate_model_with(cache, &engine, &price, &net, seed, MODEL_SAMPLE_CAPS);
            prop_assert_eq!(report.layers.len(), net.layers.len());

            let cycles: f64 = report.layers.iter().map(|l| l.cost.cycles).sum();
            let delay: f64 = report.layers.iter().map(|l| l.cost.delay_us).sum();
            let energy: f64 = report.layers.iter().map(|l| l.cost.energy_uj).sum();
            let macs: u64 = report.layers.iter().map(|l| l.cost.macs).sum();
            let bytes: f64 = report.layers.iter().map(|l| l.cost.bytes_moved).sum();
            prop_assert_eq!(report.totals.cycles.to_bits(), cycles.to_bits());
            prop_assert_eq!(report.totals.delay_us.to_bits(), delay.to_bits());
            prop_assert_eq!(report.totals.energy_uj.to_bits(), energy.to_bits());
            prop_assert_eq!(report.totals.bytes_moved.to_bits(), bytes.to_bits());
            prop_assert_eq!(report.totals.total_macs, macs);
            prop_assert_eq!(report.totals.total_macs, net.total_macs());
            prop_assert_eq!(
                report.totals.intensity_ops_per_byte.to_bits(),
                (2.0 * macs as f64 / bytes).to_bits()
            );

            let weighted: f64 = report
                .layers
                .iter()
                .map(|l| l.cost.utilization * l.cost.delay_us)
                .sum();
            prop_assert!((report.totals.utilization - weighted / delay).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&report.totals.utilization));
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
        let config = SweepConfig {
            threads,
            seed: 77,
            ..SweepConfig::default()
        };
        let outcome = run_grid(&nets, &engines, config, EngineCache::global());
        model_csv(&outcome.runs)
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
        to_csv(&outcome.results, &front)
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
