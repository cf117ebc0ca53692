#![warn(missing_docs)]

//! # tpe-pipeline
//!
//! Model-level scheduling pipeline: whole-DNN evaluation on bit-weight TPE
//! arrays.
//!
//! The paper's end-to-end results (Figures 11–13) score architectures on
//! *complete networks*, not isolated layers: per-layer utilization dips
//! (depthwise K = 9/25 in Figure 11(B)), tiling residue on skinny GEMV
//! tails, and the delay mix across dozens of layers are what separate the
//! designs in practice. This crate owns the **grid executor** — the
//! deterministic parallel (model × engine) sweep behind `repro models` —
//! while the evaluation stack it drives (engine specs, pricing, layer
//! scheduling, reports) lives in [`tpe_engine`], the canonical
//! implementation shared with `tpe-dse` and `repro serve`:
//!
//! ```text
//! workloads::models ──► img2col-lowered GEMM layers (tpe-workloads)
//!        │
//!        ▼  per (model × engine) cell
//! tpe_engine::Evaluator ── pricing (cached) + per-layer scheduling
//!        │                 → end-to-end ModelReport
//!        ▼
//! [`grid`] ── deterministic parallel executor; results are
//!              byte-identical across runs and thread counts.
//! ```
//!
//! Every cell's RNG is seeded from the grid seed and the cell's own
//! `(engine, model)` label, so results never depend on evaluation order,
//! and all synthesis/sampling is memoized in the
//! [`tpe_engine::EngineCache`] the caller passes — through the
//! process-wide [`tpe_engine::EngineCache::global`], a grid run after a
//! `repro dse` sweep reuses everything the sweep already priced.
//!
//! ## Quickstart
//!
//! ```
//! use tpe_engine::EngineCache;
//! use tpe_pipeline::{run_grid, EngineSpec, GridConfig};
//! use tpe_workloads::models;
//!
//! let models = vec![models::resnet18()];
//! let engines = EngineSpec::paper_roster();
//! let config = GridConfig::quick_test(2, 42);
//! let outcome = run_grid(&models, &engines, config, EngineCache::global());
//! assert_eq!(outcome.runs.len(), engines.len());
//! let best = outcome
//!     .runs
//!     .iter()
//!     .filter_map(|r| r.report.as_ref())
//!     .min_by(|a, b| a.delay_us.total_cmp(&b.delay_us))
//!     .unwrap();
//! assert!(best.delay_us > 0.0);
//! ```

pub mod grid;

/// The canonical engine-spec module (re-exported from `tpe-engine`, where
/// the implementation moved).
pub use tpe_engine::spec as engine;

pub use grid::{run_grid, GridConfig, GridOutcome, ModelRun};
pub use tpe_engine::fnv1a;
pub use tpe_engine::report::{LayerReport, ModelReport};
pub use tpe_engine::schedule::{
    dense_model_cycles, dense_tiles, evaluate_model, schedule_layer, serial_model_cycles,
    MODEL_SAMPLE_CAPS,
};
pub use tpe_engine::spec::{EnginePrice, EngineSpec};
