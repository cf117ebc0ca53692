#![warn(missing_docs)]

//! # tpe-dse
//!
//! Parallel design-space exploration over the bit-weight TPE workspace.
//!
//! The paper's contribution is a *space* of MAC transformations — OPT1
//! through OPT4E crossed with encoders, array topologies, synthesis
//! corners and workloads — but each `repro` experiment evaluates
//! hand-picked points. This crate turns the reproduction into the tool
//! the paper implies: enumerate the legal cross product, evaluate every
//! point in parallel, and extract the Pareto surface.
//!
//! * [`space`] — [`DesignPoint`] / [`DesignSpace`]: the five axes
//!   (PE style, topology, encoding, corner, workload), legality rules and
//!   deterministic enumeration. A point is a [`tpe_engine::EngineSpec`]
//!   plus a [`SweepWorkload`] — single GEMM layers *and whole networks*,
//!   the latter evaluated end-to-end through the model scheduler, so
//!   Pareto fronts can carry whole-model objectives
//!   (`repro dse --model resnet50`).
//! * [`eval`] — one point → [`eval::Metrics`], a thin binding of the
//!   canonical [`tpe_engine::Evaluator`] (shared with the model grid, the
//!   `repro` experiments and `repro serve`). Synthesis and serial
//!   sampling memoize into the process-wide
//!   [`tpe_engine::EngineCache`].
//! * [`mod@sweep`] — the scoped-thread executor: work is claimed from an
//!   atomic cursor, results merge back into input order, and per-point
//!   seeding makes output byte-identical across thread counts.
//! * [`grid`] — [`run_grid`]: every network × every engine into full
//!   per-layer [`tpe_engine::ModelReport`]s (`repro models`, Figures
//!   11–13), on the same executor and at the same whole-model sampling
//!   budget as [`SweepWorkload::Model`] points.
//! * [`pareto`] — [`Objective`] and non-dominated-set extraction.
//! * [`emit`] — deterministic CSV / JSON emission, for both point sweeps
//!   ([`emit::to_csv`]) and model grids ([`emit::model_csv`]).
//! * [`serve_ops`] — [`DseOps`]: the `sweep`/`pareto`/`fleet` batch ops
//!   `repro serve` attaches, answering a filtered slice (via
//!   [`sweep::evaluate_slice`]) as a summary line plus per-point `repro
//!   dse` CSV rows over the wire.
//! * [`shard`] — deterministic label-hash partitioning of sweep slices
//!   (`"shard":"k/n"` on the slice ops) and
//!   [`shard::merge_shard_responses`], the client-side merge that
//!   reassembles shard responses byte-identical to a single-node answer.
//! * [`fleet`] — the `fleet` op's allocator: pick engine/replica counts
//!   meeting a traffic mix's throughput and latency targets at minimum
//!   area or power.
//!
//! ## Quickstart
//!
//! ```
//! use tpe_dse::{sweep, DesignSpace, Objective, SweepConfig};
//!
//! let points = DesignSpace::quick().enumerate();
//! let outcome = sweep(&points, SweepConfig { threads: 2, ..SweepConfig::default() });
//! let front = tpe_dse::pareto_front(&outcome.results, &Objective::DEFAULT);
//! assert!(!front.is_empty());
//! let csv = tpe_dse::emit::to_csv(&outcome.results, &front);
//! assert!(csv.lines().count() > points.len());
//! ```

pub mod emit;
pub mod eval;
pub mod fleet;
pub mod grid;
pub mod pareto;
pub mod serve_ops;
pub mod shard;
pub mod space;
pub mod sweep;

pub use eval::{evaluate, evaluate_with_model, Metrics, PointResult};
pub use grid::{run_grid, GridOutcome, ModelRun};
pub use pareto::{pareto_front, pareto_front_per_workload, Objective};
pub use serve_ops::DseOps;
pub use shard::{merge_shard_responses, ShardSpec};
pub use space::{slice_space, Corner, DesignPoint, DesignSpace, Precision, SweepWorkload};
pub use sweep::{
    evaluate_slice, evaluate_slice_shard, sweep, sweep_with_cache, SweepConfig, SweepOutcome,
};
pub use tpe_engine::{CacheStats, CycleModel, EngineCache};
