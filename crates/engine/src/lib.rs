#![warn(missing_docs)]

//! # tpe-engine
//!
//! The canonical evaluation stack for the bit-weight TPE workspace.
//!
//! The paper's comparisons (Tables I–VII, Figures 9–14) all reduce to
//! pricing one (engine × workload) pair. Before this crate existed the
//! workspace computed that in three independently-maintained paths —
//! `tpe-dse`'s point evaluator, the model grid's engine pricing, and the
//! hand-rolled figure/table experiments in `tpe-bench` — each with its own
//! sample caps, engine roster and per-run cache. `tpe-engine` is the single
//! implementation they now all consume:
//!
//! ```text
//!            ┌───────────────────────────────────────────────┐
//!            │                 tpe-engine                    │
//!  queries   │  spec ── EngineSpec / EnginePrice / Corner    │
//!  ───────►  │  roster ─ Table VII registry + label lookup   │
//!  dse       │  caps ─── SerialSampleCaps profile table      │
//!  models    │  eval ─── Evaluator: synthesis → node scaling │
//!  bench     │           → array support → cycle models      │
//!  serve     │  cache ── process-wide sharded memo cache     │
//!            │  serve ── NDJSON batch query server           │
//!            └───────────────────────────────────────────────┘
//! ```
//!
//! * [`spec`] — [`EngineSpec`]: the architecture half of a design point
//!   (PE style × array × encoding × operand [`Precision`] × corner ×
//!   [`MemorySpec`] memory corner), its stable label grammar (`@W4` /
//!   `@edge`-style suffixes), and [`EnginePrice`], the array-level cost
//!   assembly.
//! * [`roster`] — the named Table VII registry (12 engines), the default
//!   sweep corners, and label → spec lookup for serve queries.
//! * [`caps`] — the [`caps::SampleProfile`] table unifying every
//!   serial-sampling budget the workspace uses.
//! * [`cache`] — [`EngineCache`]: the process-wide concurrent memo cache,
//!   sharded `RwLock` maps keyed on [`cache::PeKey`] (synthesis),
//!   [`cache::CycleKey`] (sampled workload cycles) and [`ModelKey`]
//!   (whole-model records, and separately the reports that keep their
//!   per-layer rows, so repeated `model` queries are one lookup).
//! * [`snapshot`] — versioned binary persistence of every cache map but
//!   the reports (atomic save, checksummed strict-reject load), so warm
//!   state survives restarts and seeds fresh replicas.
//! * [`eval`] — [`Evaluator`]: one (engine, workload, seed) →
//!   [`eval::Metrics`] / [`report::ModelReport`], bit-identical no matter
//!   which consumer asks.
//! * [`schedule`] / [`report`] — layer tiling onto array geometries and
//!   the per-layer/end-to-end report schema.
//! * [`serve`] — the `repro serve` protocol: a std-only TCP/NDJSON batch
//!   query server over the global cache, instrumented end to end with
//!   `tpe-obs` metrics ([`serve::ServeObs`]) and exposing them through
//!   its `metrics` op (JSON snapshot or Prometheus text exposition).
//!
//! ## Quickstart
//!
//! ```
//! use tpe_engine::{Evaluator, SweepWorkload};
//! use tpe_workloads::LayerShape;
//!
//! let engine = tpe_engine::roster::find("OPT4E[EN-T]/28nm@2.00GHz").unwrap();
//! let workload = SweepWorkload::Layer(LayerShape::new("fc1", 1, 3072, 768, 1));
//! let metrics = Evaluator::global().metrics(&engine, &workload, 42).unwrap();
//! assert!(metrics.throughput_gops > 0.0);
//! // Same question, same answer — served from the global cache.
//! let again = Evaluator::global().metrics(&engine, &workload, 42).unwrap();
//! assert_eq!(metrics, again);
//! ```

pub mod cache;
pub mod caps;
pub mod eval;
pub mod report;
pub mod roster;
pub mod schedule;
pub mod serve;
pub mod snapshot;
pub mod spec;
pub mod workload;

pub use cache::{CacheContents, CacheStats, EngineCache, ModelKey};
pub use caps::{CycleModel, SampleProfile, SerialSampleCaps};
pub use eval::{Evaluator, Metrics};
pub use report::{LayerCost, LayerReport, ModelRecord, ModelReport};
pub use schedule::{dense_tiles, LayerSchedule, MODEL_SAMPLE_CAPS};
pub use schedule::{layer_traffic, LayerTraffic};
pub use snapshot::{SnapshotInfo, SNAPSHOT_VERSION};
pub use spec::{classic_name, Bound, Corner, EnginePrice, EngineSpec, MemorySpec};
pub use tpe_arith::Precision;
/// The workspace's one stable hash, defined with the layer lists that
/// carry it.
pub use tpe_workloads::{fnv1a, Fnv1a};
pub use workload::SweepWorkload;

/// The worker count a `threads` setting resolves to: the setting itself,
/// or one worker per available core when it is 0 — shared by the sweep
/// and grid executors and the serve pool.
pub fn effective_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable_and_label_sensitive() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("ResNet18/OPT4E"), fnv1a("ResNet18/OPT4E"));
        assert_ne!(fnv1a("ResNet18/OPT4E"), fnv1a("ResNet18/OPT3"));
    }
}
