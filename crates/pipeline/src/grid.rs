//! The deterministic parallel (model × engine) grid executor.
//!
//! Same discipline as `tpe-dse`'s sweep: cells are claimed from an atomic
//! cursor by scoped worker threads, every cell's RNG is seeded from the
//! grid seed and the cell's own `(engine, model)` label, and results merge
//! back into input order — so the output is **byte-identical across runs
//! and thread counts** (pinned by the determinism tests and asserted on
//! every `repro models` run). Cells evaluate through
//! [`tpe_engine::Evaluator`] against the process-wide cache, so engines
//! are priced once per process and repeated (engine, model, seed) cells —
//! across grid runs, dse sweeps and serve queries — are served from
//! memory: one whole-model record lookup per warm cell
//! ([`tpe_engine::ModelKey`]), not an O(layers) rewalk.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tpe_engine::caps::{SampleProfile, SerialSampleCaps};
use tpe_engine::{EngineCache, EngineSpec, Evaluator, ModelReport};
use tpe_workloads::NetworkModel;

/// Grid parameters.
#[derive(Debug, Clone, Copy)]
pub struct GridConfig {
    /// Worker threads; 0 means one per available core.
    pub threads: usize,
    /// Global seed mixed into every cell's layer sampling.
    pub seed: u64,
    /// Serial-layer sampling caps.
    pub caps: SerialSampleCaps,
}

impl Default for GridConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            seed: 42,
            caps: SampleProfile::Model.caps(),
        }
    }
}

impl GridConfig {
    /// A config for debug-profile tests: explicit threads/seed, very tight
    /// sampling caps so whole-model cells stay fast unoptimized.
    pub fn quick_test(threads: usize, seed: u64) -> Self {
        Self {
            threads,
            seed,
            caps: SampleProfile::Quick.caps(),
        }
    }

    /// The effective worker count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

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

/// Evaluates every model on every engine (model-major cell order),
/// through `cache`: [`EngineCache::global`] shares records with every
/// other default evaluation path, and an isolated one gives an honest
/// cold run whose records no earlier grid computed.
pub fn run_grid(
    models: &[NetworkModel],
    engines: &[EngineSpec],
    config: GridConfig,
    cache: &EngineCache,
) -> GridOutcome {
    let start = Instant::now();
    // The evaluator is authoritative about the cycle model: it stamps its
    // own mode onto the caps it evaluates with, so the grid must hand the
    // config's choice over instead of relying on the caps field alone.
    let evaluator = Evaluator::new(cache).with_cycle_model(config.caps.model);
    let cells: Vec<(usize, usize)> = (0..models.len())
        .flat_map(|mi| (0..engines.len()).map(move |ei| (mi, ei)))
        .collect();
    let threads = config.effective_threads().min(cells.len()).max(1);

    let eval_cell = |&(mi, ei): &(usize, usize)| -> ModelRun {
        let (model, engine) = (&models[mi], &engines[ei]);
        ModelRun {
            model: model.name.clone(),
            engine: engine.clone(),
            report: evaluator.model_report(engine, model, config.seed, config.caps),
        }
    };

    let mut runs: Vec<Option<ModelRun>> = vec![None; cells.len()];
    if threads == 1 {
        for (slot, cell) in runs.iter_mut().zip(&cells) {
            *slot = Some(eval_cell(cell));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let mut collected: Vec<Vec<(usize, ModelRun)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= cells.len() {
                                break;
                            }
                            local.push((i, eval_cell(&cells[i])));
                        }
                        local
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("grid worker panicked"))
                .collect()
        });
        for (i, run) in collected.drain(..).flatten() {
            runs[i] = Some(run);
        }
    }

    GridOutcome {
        runs: runs
            .into_iter()
            .map(|r| r.expect("every cell evaluated exactly once"))
            .collect(),
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

    #[test]
    fn grid_covers_all_cells_in_model_major_order() {
        let (ms, es) = small_grid();
        let outcome = run_grid(
            &ms,
            &es,
            GridConfig::quick_test(2, 5),
            EngineCache::global(),
        );
        assert_eq!(outcome.runs.len(), ms.len() * es.len());
        for (i, run) in outcome.runs.iter().enumerate() {
            assert_eq!(run.model, ms[i / es.len()].name);
            assert_eq!(run.engine.label(), es[i % es.len()].label());
            let r = run.report.as_ref().expect("paper clocks are feasible");
            assert_eq!(r.layer_count(), ms[i / es.len()].layers.len());
            assert!(r.delay_us > 0.0 && r.energy_uj > 0.0);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (ms, es) = small_grid();
        let serial = run_grid(&ms, &es, GridConfig::quick_test(1, 3), &EngineCache::new());
        let parallel = run_grid(&ms, &es, GridConfig::quick_test(4, 3), &EngineCache::new());
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
            GridConfig::quick_test(1, 1),
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
        let config = GridConfig::quick_test(2, 42);
        let free = run_grid(&models, &free_engines, config, EngineCache::global());
        let edge = run_grid(&models, &edge_engines, config, EngineCache::global());

        assert!(free
            .runs
            .iter()
            .filter_map(|r| r.report.as_ref())
            .all(|r| r.bound == Bound::Compute));

        let mut flipped = 0usize;
        for (f, e) in free.runs.iter().zip(&edge.runs) {
            assert_eq!(f.feasible(), e.feasible(), "memory never affects timing");
            let (Some(fr), Some(er)) = (&f.report, &e.report) else {
                continue;
            };
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
    /// the whole-model map — one record hit per cell, no per-layer
    /// rewalk. (Sibling tests share the process-global counters and may
    /// add their own misses concurrently, so no zero-miss assertion —
    /// the isolated-cache equivalent is pinned in `tpe-engine`'s suite.)
    #[test]
    fn repeated_grids_hit_the_global_cache() {
        let (ms, es) = small_grid();
        let config = GridConfig::quick_test(1, 77);
        let first = run_grid(&ms, &es, config, EngineCache::global());
        let before = EngineCache::global().stats();
        let second = run_grid(&ms, &es, config, EngineCache::global());
        let delta = EngineCache::global().stats().since(&before);
        assert_eq!(first.runs, second.runs);
        assert!(delta.hits() > 0, "warm rerun must hit: {delta:?}");
        assert!(
            delta.model_hits >= second.feasible_count() as u64,
            "each feasible cell must be a model-map hit: {delta:?}"
        );
    }
}
