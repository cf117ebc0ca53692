#![warn(missing_docs)]

//! # Bit-Weight TPE
//!
//! Facade crate for the bit-weight tensor-processing-engine workspace — a
//! full-system reproduction of *"Exploring the Performance Improvement of
//! Tensor Processing Engines through Transformation in the Bit-weight
//! Dimension of MACs"* (HPCA 2025).
//!
//! The workspace models, at the bit level, how a multiply–accumulate unit is
//! decomposed into encoders, candidate-partial-product generators, shifters,
//! compressor trees, full adders and accumulators — and how reordering those
//! components across the loop nest of a matrix multiplication (the *bit-weight
//! dimension* transformation) yields the paper's OPT1–OPT4E processing
//! elements.
//!
//! ## Crates
//!
//! * [`arith`] — bit-accurate arithmetic substrate (encodings, partial
//!   products, compressor trees, carry-save accumulation, multipliers).
//! * [`cost`] — SMIC-28nm-calibrated area/delay/power model standing in for
//!   logic synthesis.
//! * [`workloads`] — matrices, distributions, img2col and a DNN/LLM layer
//!   shape database.
//! * [`sim`] — cycle-level simulators for the classic TPE array topologies
//!   and the bit-slice column-synchronous engine.
//! * [`core`] — the paper's contribution: the compute-centric loop-nest
//!   notation, legality-checked transformations, the OPT1–OPT4E processing
//!   element architectures, analytic models and published baselines.
//! * [`engine`] — the canonical evaluation stack: engine specs and the
//!   Table VII roster, the process-wide concurrent cache, the single
//!   evaluator every consumer shares, and the `repro serve` NDJSON batch
//!   query protocol.
//! * [`obs`] — std-only observability: atomic counters/gauges, log2
//!   latency histograms, a process-wide metric registry and scoped span
//!   timers, surfaced through the serve `metrics` op and `repro profile`.
//! * [`dse`] — parallel design-space exploration over all of the above:
//!   enumerate (PE style × topology × encoding × operand precision ×
//!   corner × workload) points — workloads being single layers *or whole
//!   networks*, precisions spanning the W4/W8/W16 ladder plus asymmetric
//!   presets — sweep them on scoped worker threads with a memoized
//!   synthesis cache, and extract area/delay/energy Pareto fronts
//!   (`repro dse [--model NAME] [--precision W4,..]`,
//!   `examples/design_space_sweep.rs`). The same executor runs the
//!   model-level grid ([`dse::run_grid`]): whole networks from the layer
//!   database end-to-end (img2col tiling → per-layer cycle/energy models
//!   → aggregated latency, TOPS/W and utilization) on any dense or serial
//!   engine (`repro models`).
//!
//! ## Quickstart
//!
//! ```
//! use tpe::arith::encode::{Encoder, EntEncoder};
//! use tpe::arith::pp::reduce_partial_products;
//!
//! // Encode the multiplicand 91 into radix-4 signed digits; the paper's
//! // Figure 3 example yields digits {1, 2, -1, -1} on weights 2^6..2^0.
//! let digits = EntEncoder.encode_i8(91);
//! let product = reduce_partial_products(&digits, 113);
//! assert_eq!(product, 91 * 113);
//! ```

pub use tpe_arith as arith;
pub use tpe_core as core;
pub use tpe_cost as cost;
pub use tpe_dse as dse;
pub use tpe_engine as engine;
pub use tpe_obs as obs;
pub use tpe_sim as sim;
pub use tpe_workloads as workloads;
