//! Evaluation of a single design point — a thin binding of the canonical
//! [`tpe_engine::Evaluator`] to the sweep's [`DesignPoint`] shape.
//!
//! The actual composition — cached synthesis, node scaling, array support
//! logic, dense closed-form / serial sampled cycle models — lives in
//! `tpe-engine` and is shared with the [`crate::grid`] model grid, the
//! `repro` experiments and `repro serve`. This module only pairs the outcome with
//! the point for Pareto extraction and emission.

use tpe_engine::{CycleModel, EngineCache, Evaluator};

pub use tpe_engine::eval::{effective_numpps, Metrics};

use crate::space::DesignPoint;

/// A design point with its evaluation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// The evaluated point.
    pub point: DesignPoint,
    /// Metrics, or `None` when the PE cannot close timing at the corner.
    pub metrics: Option<Metrics>,
}

impl PointResult {
    /// Whether the point closed timing.
    pub fn feasible(&self) -> bool {
        self.metrics.is_some()
    }
}

/// Evaluates one design point through `cache`. Synthesis and serial
/// sampling are memoized; the workload model draws from an RNG seeded by
/// `seed ^` [`tpe_engine::fnv1a`] of the point's engine/workload label,
/// so results do not depend on evaluation order.
pub fn evaluate(point: &DesignPoint, cache: &EngineCache, seed: u64) -> PointResult {
    evaluate_with_model(point, cache, seed, CycleModel::Sampled)
}

/// [`evaluate`] under an explicit serial-cycle backend — the hook the
/// sweep executor and serve slice ops use to honor `--cycle-model` /
/// `cycle_model` requests. The analytic backend ignores the seed for
/// serial cycle statistics (they are closed-form), but the seed still
/// flows so dense paths and labels stay byte-identical across modes.
///
/// Whole-network points ([`SweepWorkload::Model`](tpe_engine::SweepWorkload))
/// resolve through the engine cache's model map: a repeated point is one
/// model-record hit, not an O(layers) rewalk (see
/// `tpe_engine::cache::ModelKey`).
pub fn evaluate_with_model(
    point: &DesignPoint,
    cache: &EngineCache,
    seed: u64,
    cycle_model: CycleModel,
) -> PointResult {
    PointResult {
        point: point.clone(),
        metrics: Evaluator::new(cache).with_cycle_model(cycle_model).metrics(
            &point.engine,
            &point.workload,
            seed,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DesignSpace;

    fn eval_first(filter: &str) -> PointResult {
        let cache = EngineCache::new();
        let points = DesignSpace::paper_default().enumerate_filtered(filter);
        assert!(!points.is_empty(), "no points match {filter}");
        evaluate(&points[0], &cache, 42)
    }

    #[test]
    fn dense_and_serial_points_produce_finite_metrics() {
        for filter in ["MAC(TPU)/28nm@1.00", "OPT3[EN-T]/28nm@2.00"] {
            let r = eval_first(filter);
            let m = r.metrics.expect("feasible");
            for (name, v) in [
                ("area", m.area_um2),
                ("delay", m.delay_us),
                ("energy", m.energy_uj),
                ("GOPS", m.throughput_gops),
            ] {
                assert!(v.is_finite() && v > 0.0, "{filter}: {name} = {v}");
            }
            assert!((0.0..=1.0).contains(&m.utilization));
        }
    }

    #[test]
    fn mac_is_infeasible_beyond_its_frequency_wall() {
        let r = eval_first("MAC(TPU)/28nm@2.00");
        assert!(!r.feasible(), "the traditional MAC walls at 1.5 GHz");
    }

    /// The sweep evaluator and the engine pricing path are one
    /// implementation; pin them bit-identical so the "model report and
    /// layer sweep price one engine identically" invariant can't drift.
    #[test]
    fn evaluator_and_engine_price_agree() {
        let cache = EngineCache::new();
        let space = DesignSpace::paper_default();
        for filter in [
            "MAC(TPU)/28nm@1.00",
            "OPT1(Ascend)/28nm@1.50",
            "OPT3[CSD]/28nm@2.00",
            "OPT4E[EN-T]/16nm@1.50",
        ] {
            let point = &space.enumerate_filtered(filter)[0];
            let metrics = evaluate(point, &cache, 1).metrics.unwrap();
            let price = Evaluator::new(&cache).price(&point.engine).unwrap();
            assert_eq!(
                metrics.area_um2.to_bits(),
                price.area_um2.to_bits(),
                "{filter}: area drifted between dse eval and engine pricing"
            );
            assert_eq!(
                metrics.peak_tops.to_bits(),
                price.peak_tops.to_bits(),
                "{filter}: peak TOPS drifted"
            );
        }
    }

    /// Pricing memoizes across workloads: one synthesis per (PE, corner,
    /// precision) no matter how many workloads score it.
    #[test]
    fn cache_prices_each_corner_once_across_workloads() {
        let cache = EngineCache::new();
        let points =
            DesignSpace::paper_default().enumerate_filtered("OPT4C[EN-T]/28nm@2.00,precision=w8");
        assert!(points.len() >= 2, "need several workloads");
        for p in &points {
            evaluate(p, &cache, 3);
        }
        let stats = cache.stats();
        assert_eq!(stats.price_misses, 1);
        assert_eq!(stats.price_hits, points.len() as u64 - 1);
    }

    /// A repeated whole-network dse point is one model-map hit — no
    /// per-layer cycle-map traffic on the warm pass — and bit-identical
    /// to the cold answer, under both cycle backends.
    #[test]
    fn repeated_model_points_warm_hit_the_model_map() {
        let space = DesignSpace::with_models("resnet18").unwrap();
        let point = &space.enumerate_filtered("OPT4E[EN-T]/28nm@2.00")[0];
        for model in [CycleModel::Sampled, CycleModel::Analytic] {
            let cache = EngineCache::new();
            let cold = evaluate_with_model(point, &cache, 42, model);
            let before = cache.stats();
            let warm = evaluate_with_model(point, &cache, 42, model);
            assert_eq!(cold, warm, "{model:?}: warm answer drifted");
            let delta = cache.stats().since(&before);
            assert_eq!(
                (delta.model_hits, delta.model_misses),
                (1, 0),
                "{model:?}: warm point must be one model-map hit"
            );
            assert_eq!(delta.cycle_lookups, 0, "{model:?}: no per-layer rewalk");
        }
    }
}
