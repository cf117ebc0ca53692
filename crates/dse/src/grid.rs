//! The deterministic (model × engine) grid behind `repro models`.
//!
//! The paper's end-to-end results (Figures 11–13) score architectures on
//! *complete networks*: per-layer utilization dips (depthwise K = 9/25 in
//! Figure 11(B)), tiling residue on skinny GEMV tails, and the delay mix
//! across dozens of layers are what separate the designs in practice.
//! [`run_grid`] evaluates every model on every engine into full
//! per-layer [`ModelReport`]s, through the same executor as
//! [`crate::sweep::sweep_with_cache`]: cells are claimed from an atomic
//! cursor by scoped workers, every cell's RNG is seeded from the grid seed
//! and the cell's own `(engine, model)` label, and results land back in
//! input order — so the output is **byte-identical across runs and thread
//! counts** (pinned by the determinism tests and asserted on every `repro
//! models` run).
//!
//! Every cell samples at the whole-model budget of a
//! [`crate::SweepWorkload::Model`] design point, so a grid cell and the
//! matching `repro dse --model` point share one record in the
//! [`EngineCache`]'s model map: a repeated cell is one lookup, not an
//! O(layers) rewalk.
//!
//! ```
//! use tpe_dse::{run_grid, EngineCache, SweepConfig};
//! use tpe_engine::EngineSpec;
//! use tpe_workloads::models;
//!
//! let models = vec![models::resnet18()];
//! let engines = EngineSpec::paper_roster();
//! let config = SweepConfig { threads: 2, ..SweepConfig::default() };
//! let outcome = run_grid(&models, &engines, config, EngineCache::global());
//! assert_eq!(outcome.runs.len(), engines.len());
//! let best = outcome
//!     .runs
//!     .iter()
//!     .filter_map(|r| r.report.as_ref())
//!     .min_by(|a, b| a.totals.delay_us.total_cmp(&b.totals.delay_us))
//!     .unwrap();
//! assert!(best.totals.delay_us > 0.0);
//! ```

use std::time::{Duration, Instant};

use tpe_engine::{EngineCache, EngineSpec, Evaluator, ModelReport};
use tpe_workloads::NetworkModel;

use crate::sweep::{par_map_indexed, SweepConfig};

/// One (model × engine) cell's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRun {
    /// Network name.
    pub model: String,
    /// The engine the model was scheduled onto.
    pub engine: EngineSpec,
    /// The end-to-end report, or `None` when the engine fails timing.
    pub report: Option<ModelReport>,
}

impl ModelRun {
    /// Whether the engine closed timing.
    pub fn feasible(&self) -> bool {
        self.report.is_some()
    }
}

/// Everything a grid run produces.
#[derive(Debug)]
pub struct GridOutcome {
    /// One run per (model, engine) cell, model-major, in input order.
    pub runs: Vec<ModelRun>,
    /// Wall-clock spent evaluating.
    pub elapsed: Duration,
    /// Worker threads actually used.
    pub threads: usize,
}

impl GridOutcome {
    /// Number of cells whose engine closed timing.
    pub fn feasible_count(&self) -> usize {
        self.runs.iter().filter(|r| r.feasible()).count()
    }
}

/// Evaluates every model on every engine (model-major cell order) with
/// `config.threads` workers, through `cache`: [`EngineCache::global`]
/// shares records with every other default evaluation path, and an
/// isolated one gives an honest cold run whose records no earlier grid
/// computed.
pub fn run_grid(
    models: &[NetworkModel],
    engines: &[EngineSpec],
    config: SweepConfig,
    cache: &EngineCache,
) -> GridOutcome {
    let start = Instant::now();
    let evaluator = Evaluator::new(cache).with_cycle_model(config.cycle_model);
    let cells = models.len() * engines.len();
    let (runs, threads) = par_map_indexed(cells, config.threads, |i| {
        let (model, engine) = (&models[i / engines.len()], &engines[i % engines.len()]);
        ModelRun {
            model: model.name.clone(),
            engine: engine.clone(),
            report: evaluator.model_report(engine, model, config.seed),
        }
    });
    GridOutcome {
        runs,
        elapsed: start.elapsed(),
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpe_arith::encode::EncodingKind;
    use tpe_core::arch::PeStyle;
    use tpe_sim::array::ClassicArch;
    use tpe_workloads::models;

    fn small_grid() -> (Vec<NetworkModel>, Vec<EngineSpec>) {
        (
            vec![models::resnet18()],
            vec![
                EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0),
                EngineSpec::dense(PeStyle::Opt1, ClassicArch::Trapezoid, 1.5),
                EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0),
            ],
        )
    }

    fn config(threads: usize, seed: u64) -> SweepConfig {
        SweepConfig {
            threads,
            seed,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn grid_covers_all_cells_in_model_major_order() {
        let (ms, es) = small_grid();
        let outcome = run_grid(&ms, &es, config(2, 5), EngineCache::global());
        assert_eq!(outcome.runs.len(), ms.len() * es.len());
        for (i, run) in outcome.runs.iter().enumerate() {
            assert_eq!(run.model, ms[i / es.len()].name);
            assert_eq!(run.engine.label(), es[i % es.len()].label());
            let r = run.report.as_ref().expect("paper clocks are feasible");
            assert_eq!(r.layer_count(), ms[i / es.len()].layers.len());
            assert!(r.totals.delay_us > 0.0 && r.totals.energy_uj > 0.0);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (ms, es) = small_grid();
        let serial = run_grid(&ms, &es, config(1, 3), &EngineCache::new());
        let parallel = run_grid(&ms, &es, config(4, 3), &EngineCache::new());
        assert_eq!(serial.runs, parallel.runs);
    }

    #[test]
    fn infeasible_engines_yield_empty_reports() {
        let engines = vec![EngineSpec::dense(
            PeStyle::TraditionalMac,
            ClassicArch::Tpu,
            2.0, // beyond the MAC's 1.5 GHz wall
        )];
        let outcome = run_grid(
            &[models::resnet18()],
            &engines,
            config(1, 1),
            EngineCache::global(),
        );
        assert_eq!(outcome.feasible_count(), 0);
        assert!(!outcome.runs[0].feasible());
    }

    /// The memory-hierarchy acceptance bar: pinning the paper roster to a
    /// finite memory corner flips at least one (engine × model) cell to a
    /// non-compute bound, and every flipped cell's end-to-end delay
    /// strictly exceeds its compute-only (unbounded) delay. The unbounded
    /// grid itself stays all-compute — the default numbers carry no
    /// roofline tax.
    #[test]
    fn finite_memory_corner_flips_grid_cells_off_the_compute_bound() {
        use tpe_engine::Bound;
        let models = vec![models::resnet18()];
        let free_engines = EngineSpec::paper_roster();
        let edge_engines: Vec<EngineSpec> = free_engines
            .iter()
            .map(|e| e.clone().with_memory(tpe_engine::MemorySpec::edge()))
            .collect();
        let free = run_grid(&models, &free_engines, config(2, 42), EngineCache::global());
        let edge = run_grid(&models, &edge_engines, config(2, 42), EngineCache::global());

        assert!(free
            .runs
            .iter()
            .filter_map(|r| r.report.as_ref())
            .all(|r| r.totals.bound == Bound::Compute));

        let mut flipped = 0usize;
        for (f, e) in free.runs.iter().zip(&edge.runs) {
            assert_eq!(f.feasible(), e.feasible(), "memory never affects timing");
            let (Some(fr), Some(er)) = (&f.report, &e.report) else {
                continue;
            };
            let (fr, er) = (&fr.totals, &er.totals);
            assert_eq!(fr.bytes_moved, er.bytes_moved, "traffic is corner-free");
            if er.bound != Bound::Compute {
                flipped += 1;
                assert!(
                    er.delay_us > fr.delay_us,
                    "{}: memory-bound delay {} must exceed compute-only {}",
                    e.engine.label(),
                    er.delay_us,
                    fr.delay_us
                );
            }
        }
        assert!(flipped > 0, "no roster cell hit a memory wall at `edge`");
    }

    /// Repeated identical grids are served from the global cache: the
    /// second run is byte-identical and every feasible cell answers from
    /// the whole-model reports map — one report hit per cell, no
    /// per-layer rewalk. (Sibling tests share the process-global counters and may
    /// add their own misses concurrently, so no zero-miss assertion —
    /// the isolated-cache equivalent is pinned in `tpe-engine`'s suite.)
    #[test]
    fn repeated_grids_hit_the_global_cache() {
        let (ms, es) = small_grid();
        let first = run_grid(&ms, &es, config(1, 77), EngineCache::global());
        let before = EngineCache::global().stats();
        let second = run_grid(&ms, &es, config(1, 77), EngineCache::global());
        let delta = EngineCache::global().stats().since(&before);
        assert_eq!(first.runs, second.runs);
        assert!(delta.hits() > 0, "warm rerun must hit: {delta:?}");
        assert!(
            delta.report_hits >= second.feasible_count() as u64,
            "each feasible cell must be a reports-map hit: {delta:?}"
        );
    }
}
