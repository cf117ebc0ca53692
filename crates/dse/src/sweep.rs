//! The parallel sweep executor.
//!
//! A sweep evaluates every design point of an enumerated space through
//! `par_map_indexed`, the crate's one parallel executor (the
//! [`crate::grid`] model grid runs on it too). Indices are claimed from a
//! shared atomic cursor by scoped worker threads (work-stealing in the
//! only sense that matters for this workload: whichever worker is free
//! takes the next item, so heterogeneous costs balance automatically).
//! Each worker accumulates `(index, result)` pairs locally; the results
//! are placed back by index at the end, and every point's RNG is seeded
//! from the sweep seed and the point's own label — so the output is
//! **byte-identical across runs and thread counts**, which the
//! determinism tests pin.
//!
//! Synthesis, serial sampling and whole-model reports memoize into a
//! [`EngineCache`]: [`sweep`] shares the process-wide global instance
//! (so later grids, experiments and serve queries reuse this sweep's
//! work), while [`sweep_with_cache`] takes an explicit instance for
//! isolation. Whole-network points land in the cache's model map, so a
//! re-sweep (or a later `repro models` grid over the same cells) answers
//! each repeated point with one lookup instead of an O(layers) rewalk.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tpe_engine::{effective_threads, CacheStats, CycleModel, EngineCache};

use crate::eval::{evaluate_with_model, PointResult};
use crate::space::DesignPoint;

/// Sweep and grid parameters.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Worker threads; 0 means one per available core.
    pub threads: usize,
    /// Global seed mixed into every point's (or grid cell's) workload
    /// sampling.
    pub seed: u64,
    /// Serial-cycle backend every point evaluates under (`--cycle-model`).
    pub cycle_model: CycleModel,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            seed: 42,
            cycle_model: CycleModel::Sampled,
        }
    }
}

/// Maps `f` over `0..n` on scoped workers that claim indices from a
/// shared atomic cursor, returning the results in index order plus the
/// worker count used: `threads` (0 = one per core, see
/// [`effective_threads`]) clamped to `1..=n`. One worker runs inline on
/// the calling thread.
pub(crate) fn par_map_indexed<R: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> R + Sync,
) -> (Vec<R>, usize) {
    let threads = effective_threads(threads).min(n).max(1);
    if threads == 1 {
        return ((0..n).map(f).collect(), 1);
    }
    let cursor = AtomicUsize::new(0);
    let collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("parallel map worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, result) in collected.into_iter().flatten() {
        slots[i] = Some(result);
    }
    let results = slots
        .into_iter()
        .map(|r| r.expect("every index mapped exactly once"))
        .collect();
    (results, threads)
}

/// Everything a sweep produces.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One result per input point, in input order.
    pub results: Vec<PointResult>,
    /// Cache-counter deltas over this sweep (hits/misses this run added
    /// against the cache it ran on).
    pub cache: CacheStats,
    /// Wall-clock spent evaluating.
    pub elapsed: Duration,
    /// Worker threads actually used.
    pub threads: usize,
}

impl SweepOutcome {
    /// Number of points that closed timing.
    pub fn feasible_count(&self) -> usize {
        self.results.iter().filter(|r| r.feasible()).count()
    }
}

/// Evaluates all `points` against the process-wide global cache.
pub fn sweep(points: &[DesignPoint], config: SweepConfig) -> SweepOutcome {
    sweep_with_cache(points, config, EngineCache::global())
}

/// Evaluates all `points` with `config.threads` workers against an
/// explicit cache instance.
pub fn sweep_with_cache(
    points: &[DesignPoint],
    config: SweepConfig,
    cache: &EngineCache,
) -> SweepOutcome {
    let baseline = cache.stats();
    let start = Instant::now();
    let (results, threads) = par_map_indexed(points.len(), config.threads, |i| {
        evaluate_with_model(&points[i], cache, config.seed, config.cycle_model)
    });
    SweepOutcome {
        results,
        cache: cache.stats().since(&baseline),
        elapsed: start.elapsed(),
        threads,
    }
}

/// One filtered slice of the design space, evaluated in enumeration order
/// through `cache` — the public slice-evaluation entry point behind the
/// serve layer's `sweep`/`pareto` ops and any other consumer that wants
/// "the points `repro dse --filter F [--model M]` would sweep" without
/// the CLI.
///
/// Evaluation is single-threaded (callers that want parallelism already
/// sit inside a worker pool or can use [`sweep_with_cache`]); results are
/// byte-identical to what the parallel sweep executor produces for the
/// same points and seed, because per-point seeding depends only on the
/// point label.
///
/// `max_points` bounds the evaluation cost *before* any point is priced:
/// a slice larger than the cap is rejected with an error naming both
/// numbers. `None` means unbounded (the CLI, which owns its own process).
///
/// # Errors
///
/// Returns the same errors as the CLI — an unknown `model` selector or a
/// filter matching no design points — plus the over-cap rejection.
pub fn evaluate_slice(
    filter: &str,
    model: Option<&str>,
    seed: u64,
    max_points: Option<usize>,
    cache: &EngineCache,
    cycle_model: CycleModel,
) -> Result<Vec<PointResult>, String> {
    let indexed = evaluate_slice_shard(filter, model, seed, max_points, cache, cycle_model, None)?;
    Ok(indexed.into_iter().map(|(_, r)| r).collect())
}

/// [`evaluate_slice`] restricted to one shard of a label-hash partition,
/// keeping each evaluated point's **global** slice index — the server
/// half of `repro query --shards`.
///
/// The partition is deterministic in the point labels alone
/// ([`crate::shard::ShardSpec::contains`]), so `n` servers given the same
/// filter and `shard:k/n` stamps evaluate disjoint subsets whose union is
/// exactly the unsharded slice, and the global indices let a merge client
/// reassemble single-node point order without re-enumerating.
///
/// `max_points` bounds the points *this* shard evaluates (each server pays
/// only for its own share); the filter-matches-nothing error still refers
/// to the pre-shard slice, while a shard that happens to select zero of a
/// non-empty slice legitimately returns no rows.
pub fn evaluate_slice_shard(
    filter: &str,
    model: Option<&str>,
    seed: u64,
    max_points: Option<usize>,
    cache: &EngineCache,
    cycle_model: CycleModel,
    shard: Option<&crate::shard::ShardSpec>,
) -> Result<Vec<(usize, PointResult)>, String> {
    let space = crate::space::slice_space(model)?;
    let points = space.enumerate_filtered(filter);
    if points.is_empty() {
        return Err(format!("no design points match filter `{filter}`"));
    }
    let selected: Vec<(usize, &DesignPoint)> = match shard {
        None => points.iter().enumerate().collect(),
        Some(spec) => points
            .iter()
            .enumerate()
            .filter(|(_, p)| spec.contains(&p.label()))
            .collect(),
    };
    if let Some(cap) = max_points {
        if selected.len() > cap {
            return Err(format!(
                "slice matches {} points, over the cap of {cap} — narrow the filter \
                 or raise `max_points`",
                selected.len()
            ));
        }
    }
    Ok(selected
        .into_iter()
        .map(|(i, p)| (i, evaluate_with_model(p, cache, seed, cycle_model)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DesignSpace;

    #[test]
    fn sweep_preserves_input_order_and_covers_all_points() {
        let points = DesignSpace::quick().enumerate();
        let outcome = sweep(
            &points,
            SweepConfig {
                threads: 3,
                seed: 9,
                ..SweepConfig::default()
            },
        );
        assert_eq!(outcome.results.len(), points.len());
        for (r, p) in outcome.results.iter().zip(&points) {
            assert_eq!(r.point.label(), p.label());
        }
        assert!(outcome.feasible_count() > 0);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let points = DesignSpace::quick().enumerate();
        let serial = sweep(
            &points,
            SweepConfig {
                threads: 1,
                seed: 4,
                ..SweepConfig::default()
            },
        );
        let parallel = sweep(
            &points,
            SweepConfig {
                threads: 4,
                seed: 4,
                ..SweepConfig::default()
            },
        );
        assert_eq!(serial.results, parallel.results);
    }

    #[test]
    fn cache_hits_accumulate_on_workload_heavy_sweeps() {
        let points = DesignSpace::quick().enumerate();
        let cache = EngineCache::new();
        let outcome = sweep_with_cache(
            &points,
            SweepConfig {
                threads: 2,
                seed: 1,
                ..SweepConfig::default()
            },
            &cache,
        );
        assert!(
            outcome.cache.hits() > 0,
            "multiple workloads per (PE, corner) must hit: {:?}",
            outcome.cache
        );
        assert!(outcome.cache.hit_rate() > 0.0);
    }

    /// The slice entry point selects exactly the filtered enumeration and
    /// agrees with the parallel executor byte for byte.
    #[test]
    fn evaluate_slice_matches_the_sweep_executor() {
        let cache = EngineCache::new();
        let slice = evaluate_slice(
            "OPT1(TPU)/28nm@1.50,precision=w8",
            None,
            9,
            None,
            &cache,
            CycleModel::Sampled,
        )
        .unwrap();
        let points =
            DesignSpace::paper_default().enumerate_filtered("OPT1(TPU)/28nm@1.50,precision=w8");
        assert_eq!(slice.len(), points.len());
        let swept = sweep_with_cache(
            &points,
            SweepConfig {
                threads: 2,
                seed: 9,
                ..SweepConfig::default()
            },
            &EngineCache::new(),
        );
        assert_eq!(slice, swept.results);
        // CLI-shaped errors surface as messages, not panics.
        assert!(
            evaluate_slice("no-such-point", None, 9, None, &cache, CycleModel::Sampled)
                .unwrap_err()
                .contains("no design points")
        );
        assert!(evaluate_slice(
            "",
            Some("no-such-net"),
            9,
            None,
            &cache,
            CycleModel::Sampled
        )
        .is_err());
    }

    /// The serial-cycle tables belong to the cache, not the process: after
    /// a sweep fills one cache's tables a fresh cache has none, and a sweep
    /// over it — paying the same price and cycle misses, table builds
    /// included — returns bit-identical results under both cycle models.
    /// One thread, so no two workers race on a cold key and the miss
    /// counts are exact.
    #[test]
    fn fresh_caches_start_with_empty_serial_tables() {
        let points = DesignSpace::quick().enumerate();
        for cycle_model in [CycleModel::Analytic, CycleModel::Sampled] {
            let config = SweepConfig {
                threads: 1,
                seed: 5,
                cycle_model,
            };
            let first_cache = EngineCache::new();
            let first = sweep_with_cache(&points, config, &first_cache);
            assert!(!first_cache.serial_tables().is_empty());
            let fresh = EngineCache::new();
            assert!(fresh.serial_tables().is_empty(), "{cycle_model:?}");
            let second = sweep_with_cache(&points, config, &fresh);
            assert_eq!(first.results, second.results, "{cycle_model:?}");
            assert_eq!(first.cache, second.cache, "{cycle_model:?}");
        }
    }

    /// A global-cache sweep reports only its own counter deltas, and its
    /// results match an isolated-cache sweep byte for byte (memoization
    /// can never change values).
    #[test]
    fn global_and_isolated_caches_agree() {
        let points = DesignSpace::quick().enumerate();
        let config = SweepConfig {
            threads: 2,
            seed: 31,
            ..SweepConfig::default()
        };
        let isolated = sweep_with_cache(&points, config, &EngineCache::new());
        let global = sweep(&points, config);
        assert_eq!(isolated.results, global.results);
        let total = global.cache.hits() + global.cache.misses();
        assert!(total > 0, "deltas must reflect this sweep only");
    }
}
