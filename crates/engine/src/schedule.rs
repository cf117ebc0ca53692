//! Layer → array scheduling: img2col-lowered GEMMs tiled onto an engine's
//! geometry, with cycle, utilization and tiling accounting.
//!
//! The model database (`tpe_workloads::models`) stores every layer already
//! lowered to its GEMM via img2col (`ConvShape::gemm_dims`, §IV-C's
//! K = C·k² reduction). Scheduling then depends only on the engine family:
//!
//! * **Dense** — the layer is cut into output/reduction tiles matching the
//!   array grid (32×32 planes, the 10×10×10 cube) and cycles come from the
//!   simulator-validated closed-form models in [`tpe_sim::array`]. Dense
//!   arrays clock every PE every cycle, so the busy fraction is 1 and
//!   utilization is useful MACs over lane-cycles.
//! * **Serial** — the layer maps multiplicand rows across the MP columns
//!   and cycles are sampled from the shared encoder-parameterized
//!   [`sample_serial_cycles`] model (Eq. 7's `sync` barrier: the slowest
//!   column bounds each round), memoized in the [`EngineCache`] on the
//!   exact (geometry, encoding, shape, seed, caps) key and computed
//!   through that cache's serial-cycle tables. Utilization is the
//!   sampled busy fraction.
//!
//! Per-layer RNG seeds are derived from [`fnv1a`](crate::fnv1a()) over the
//! layer's index and name, so whole-model results never depend on
//! evaluation order — the property the grid executor's byte-identical
//! determinism rests on.
//!
//! [`sample_serial_cycles`]: tpe_core::arch::workload::sample_serial_cycles

use std::fmt::Write;

use tpe_core::arch::workload::{serial_cycle_stats, SerialCycleStats};
use tpe_core::arch::ArchKind;
use tpe_sim::array::{ClassicArch, DenseArray};
use tpe_sim::BitsliceConfig;
use tpe_workloads::{LayerShape, NetworkModel};

use crate::cache::{CycleKey, EngineCache, SerialLayerRecord};
use crate::caps::{CycleModel, SampleProfile, SerialSampleCaps};
use crate::report::{LayerCost, LayerReport, ModelRecord, ModelReport};
use crate::spec::{Bound, EnginePrice, EngineSpec, MemorySpec};

/// Sampling caps for whole-model serial evaluation
/// ([`SampleProfile::Model`]; see the profile table for the rationale).
pub const MODEL_SAMPLE_CAPS: SerialSampleCaps = SampleProfile::Model.caps();

/// Number of img2col tiles a dense array cuts one GEMM layer into — the
/// scheduling granularity of the dense pipelines (weight tiles for the
/// weight-stationary systolic array, output blocks for the broadcast
/// matrix, unit batches for the adder tree, 3-D blocks for the cube).
///
/// Every product is checked; each count is at most the layer's MAC
/// count, so it fits for any shape that passes [`LayerShape::validate`].
///
/// # Panics
///
/// Panics when the count overflows a `u64`, instead of wrapping.
pub fn dense_tiles(arch: ClassicArch, layer: &LayerShape) -> u64 {
    let [m, n, k, repeats] = [layer.m, layer.n, layer.k, layer.repeats].map(|d| d as u64);
    let product = |dims: &[u64]| dims.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d));
    let per_repeat = match arch {
        // Weight-stationary: one 32×32 weight tile per (k, n) block.
        ClassicArch::Tpu => product(&[k.div_ceil(32), n.div_ceil(32)]),
        // 10×10×10 cube: 3-D blocks over all of m, n, k.
        ClassicArch::Ascend => product(&[m.div_ceil(10), n.div_ceil(10), k.div_ceil(10)]),
        // 32 dot-product units × 32-lane reduction chunks.
        ClassicArch::Trapezoid => product(&[m, n, k.div_ceil(32)]).map(|t| t.div_ceil(32)),
        // Output-stationary 32×32 blocks, K streamed.
        ClassicArch::FlexFlow => product(&[m.div_ceil(32), n.div_ceil(32)]),
    };
    per_repeat
        .and_then(|t| t.checked_mul(repeats))
        .expect("dense tile count overflows u64")
}

/// The output-tile width an array sweeps the N dimension with — how many
/// weight-tile column passes the streamed activations pay for in the
/// traffic model (32-wide planes everywhere except the 10-wide cube).
fn traffic_tile_n(engine: &EngineSpec) -> usize {
    match engine.kind {
        ArchKind::Dense(ClassicArch::Ascend) => 10,
        _ => 32,
    }
}

/// Per-layer memory traffic of one img2col-lowered GEMM under the tile
/// reuse discipline of the dense schedules (and the serial arrays' row
/// mapping, which streams the same operands):
///
/// * **weights** are resident per tile pass — each of the `k×n` weight
///   elements is fetched once per repeat;
/// * **activations** are streamed — the `m×k` operand panel is re-read
///   once per output-tile column pass (`⌈n / tile_n⌉` passes);
/// * **outputs** are written once.
///
/// Byte widths scale with the layer's effective precision
/// ([`layer_a_bits`]), which is how the precision axis expresses the
/// T-MAC observation that narrower operands shrink bytes moved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTraffic {
    /// Weight bytes fetched (resident per tile pass: fetched once).
    pub weight_bytes: f64,
    /// Activation bytes streamed (once per output-tile column pass).
    pub act_bytes: f64,
    /// Output bytes written back.
    pub out_bytes: f64,
    /// Working-set footprint: every distinct operand/output byte once.
    pub footprint_bytes: f64,
}

impl LayerTraffic {
    /// Total bytes crossing the on-chip memory boundary.
    pub fn total_bytes(&self) -> f64 {
        self.weight_bytes + self.act_bytes + self.out_bytes
    }

    /// Bytes crossing the DRAM boundary: the working-set footprint when
    /// it fits in SRAM (each distinct byte fetched once, reuse on-chip),
    /// the full streamed traffic when it spills.
    pub fn dram_bytes(&self, mem: &MemorySpec) -> f64 {
        match mem.sram_bytes() {
            Some(cap) if self.footprint_bytes > cap => self.total_bytes(),
            _ => self.footprint_bytes,
        }
    }

    /// Arithmetic intensity: ops per byte moved (2 ops per MAC).
    pub fn intensity(&self, macs: u64) -> f64 {
        let bytes = self.total_bytes();
        if bytes > 0.0 {
            2.0 * macs as f64 / bytes
        } else {
            0.0
        }
    }

    /// Roofline-bounded effective cycles and the binding resource:
    /// `max(compute, sram traffic / sram bw, dram traffic / dram bw)`.
    /// The `Unbounded` corner returns `compute_cycles` untouched — the
    /// golden-projection identity every pre-refactor snapshot rests on.
    pub fn roofline(&self, mem: &MemorySpec, compute_cycles: f64) -> (f64, Bound) {
        if mem.is_unbounded() {
            return (compute_cycles, Bound::Compute);
        }
        let sram_cycles = if mem.sram_bw > 0 {
            self.total_bytes() / f64::from(mem.sram_bw)
        } else {
            0.0
        };
        let dram_cycles = if mem.dram_bw > 0 {
            self.dram_bytes(mem) / f64::from(mem.dram_bw)
        } else {
            0.0
        };
        let cycles = compute_cycles.max(sram_cycles).max(dram_cycles);
        let bound = if cycles <= compute_cycles {
            Bound::Compute
        } else if dram_cycles >= sram_cycles {
            Bound::Dram
        } else {
            Bound::Sram
        };
        (cycles, bound)
    }
}

/// Computes the memory traffic of one layer on one engine (see
/// [`LayerTraffic`] for the reuse model). Pure arithmetic over the GEMM
/// dims — no cache interaction, no sampling.
pub fn layer_traffic(engine: &EngineSpec, layer: &LayerShape) -> LayerTraffic {
    let bpe = f64::from(layer_a_bits(engine, layer)) / 8.0;
    let repeats = layer.repeats as f64;
    let (weights, acts, outs) = layer.operand_elems();
    let passes = layer.n.div_ceil(traffic_tile_n(engine)) as f64;
    LayerTraffic {
        weight_bytes: weights as f64 * bpe * repeats,
        act_bytes: acts as f64 * bpe * passes * repeats,
        out_bytes: outs as f64 * bpe * repeats,
        footprint_bytes: (weights + acts + outs) as f64 * bpe * repeats,
    }
}

/// One layer scheduled onto one engine: cycles, busy fraction, tiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSchedule {
    /// Array cycles for the full layer (all repeats).
    pub cycles: f64,
    /// Fraction of PE-cycles doing useful work (1.0 for dense arrays,
    /// which clock every PE every cycle).
    pub busy_frac: f64,
    /// Scheduling granularity: dense img2col tiles or serial sync rounds.
    pub tiles: f64,
    /// Busy cycles summed over the serial array's columns (0 for dense
    /// arrays, which never pool busy cycles).
    pub busy_sum: f64,
}

/// The encoded-multiplicand width `layer` streams at on `spec`: the
/// layer's precision override when present (mixed-precision schedules),
/// the engine's synthesized precision otherwise.
pub fn layer_a_bits(spec: &EngineSpec, layer: &LayerShape) -> u32 {
    layer.precision.map_or(spec.precision.a_bits, |p| p.a_bits)
}

/// Rescales caller caps from the engine's operand width to the layer's
/// effective width: callers budget operands for the *engine* precision
/// ([`SampleProfile::caps_for`]), but a mixed-precision layer override
/// streams digits at its own width — so the operand budget is corrected
/// by `engine_a / layer_a` to keep the sampled cycle mass (and hence
/// estimate variance) at the profile's intended level. No override, no
/// change.
fn caps_for_layer(
    spec: &EngineSpec,
    layer: &LayerShape,
    caps: SerialSampleCaps,
) -> SerialSampleCaps {
    let (engine_a, layer_a) = (spec.precision.a_bits, layer_a_bits(spec, layer));
    if engine_a == layer_a {
        return caps;
    }
    SerialSampleCaps {
        max_operands: (caps.max_operands * engine_a as usize / layer_a as usize).max(1_000),
        ..caps
    }
}

/// The serial-layer outcome for `spec`, through `cache`.
///
/// This is the single entry point to the statistical sync model: the dse
/// evaluator, the model scheduler and the figure experiments all draw
/// from here, so one (engine, layer, seed, caps) evaluation runs at
/// most once per process. Digit statistics are drawn at
/// [`layer_a_bits`] — the precision axis's hook into the cycle model —
/// and the operand budget is width-corrected per layer
/// (`caps_for_layer`); the cache keys on the corrected caps, i.e. on
/// what the backend actually ran with.
///
/// `caps.model` selects the backend: the Monte-Carlo sampler (the
/// original path and test oracle, timed under `eval_serial_sample_ns`) or
/// the closed-form analytic evaluation (seed-independent, timed under
/// `eval_serial_analytic_ns`). The mode is part of the [`CycleKey`], so
/// both kinds of record coexist in one cache without cross-contamination.
pub fn cached_serial_cycles(
    cache: &EngineCache,
    spec: &EngineSpec,
    layer: &LayerShape,
    seed: u64,
    caps: SerialSampleCaps,
) -> SerialLayerRecord {
    let caps = caps_for_layer(spec, layer, caps);
    let key = CycleKey::of(spec, layer, seed, caps);
    cache.serial_record(key, || {
        let (cfg, encoder) = (serial_config(spec), spec.encoding.encoder());
        let a_bits = layer_a_bits(spec, layer);
        let obs = crate::eval::eval_obs();
        let span = match caps.model {
            CycleModel::Sampled => obs.serial_sample_ns.span(),
            CycleModel::Analytic => obs.serial_analytic_ns.span(),
        };
        let tables = cache.serial_tables();
        let stats = serial_cycle_stats(tables, &cfg, encoder.as_ref(), a_bits, layer, seed, caps);
        drop(span);
        record_of(&stats)
    })
}

/// Collapses per-column stats into the memoized record (bit-identically
/// to the original `SerialCycleStats` expressions).
fn record_of(stats: &SerialCycleStats) -> SerialLayerRecord {
    // One pass over the busy vector. Bit-identical to the three separate
    // passes it replaces: each accumulator applies the same operation to
    // the same elements in the same order (`Sum for f64` is a fold from
    // 0.0 over `+`).
    let (busy_sum, busy_min, busy_max) = stats
        .busy
        .iter()
        .fold((0.0_f64, f64::INFINITY, 0.0_f64), |(sum, lo, hi), &b| {
            (sum + b, lo.min(b), hi.max(b))
        });
    SerialLayerRecord {
        cycles: stats.cycles,
        busy_sum,
        busy_min,
        busy_max,
        rounds: stats.rounds,
        columns: stats.busy.len() as u32,
    }
}

/// Schedules one img2col-lowered layer onto `engine`, through `cache`.
pub fn schedule_layer_with(
    cache: &EngineCache,
    engine: &EngineSpec,
    layer: &LayerShape,
    seed: u64,
    caps: SerialSampleCaps,
) -> LayerSchedule {
    match engine.kind {
        ArchKind::Dense(arch) => dense_schedule(arch, arch.at_paper_config().as_ref(), layer),
        ArchKind::Serial => {
            let rec = cached_serial_cycles(cache, engine, layer, seed, caps);
            LayerSchedule {
                cycles: rec.cycles,
                busy_frac: rec.utilization(),
                tiles: rec.rounds,
                busy_sum: rec.busy_sum,
            }
        }
    }
}

/// A dense layer's schedule on `sim`, the `arch` array at its paper
/// configuration: closed-form cycles, every PE busy every cycle.
fn dense_schedule(arch: ClassicArch, sim: &dyn DenseArray, layer: &LayerShape) -> LayerSchedule {
    LayerSchedule {
        cycles: sim.estimate_cycles(layer.m, layer.n, layer.k) as f64 * layer.repeats as f64,
        busy_frac: 1.0,
        tiles: dense_tiles(arch, layer) as f64,
        busy_sum: 0.0,
    }
}

/// The engine's bit-slice configuration with its encoding swapped in.
///
/// # Panics
///
/// Panics if the engine is dense.
pub fn serial_config(engine: &EngineSpec) -> BitsliceConfig {
    let mut cfg = engine
        .style
        .bitslice_config()
        .unwrap_or_else(|| panic!("{} is not a serial engine", engine.label()));
    cfg.encoding = engine.encoding;
    cfg
}

/// Stable per-layer seed: mixes the caller's seed with the layer's index
/// and name so results are independent of evaluation order.
///
/// Formats `"{index}/{name}"` straight into the hasher, without
/// allocating; the golden CSVs pin the derived seeds, so equivalence with
/// the `format!` form is load-bearing (tested below).
fn layer_seed(seed: u64, index: usize, layer: &LayerShape) -> u64 {
    let mut h = crate::Fnv1a::default();
    write!(h, "{index}/{}", layer.name).expect("hashing cannot fail");
    seed ^ h.finish()
}

/// Costs one scheduled layer. Shared between the naive per-layer walk
/// ([`evaluate_model_with`]) and the model caches' walk (`walk_model`) so
/// the two paths stay bit-identical by construction. Pure arithmetic: no
/// timer, no counter and no allocation per layer.
fn layer_cost(
    engine: &EngineSpec,
    price: &EnginePrice,
    layer: &LayerShape,
    s: LayerSchedule,
) -> LayerCost {
    let macs = layer.macs();
    let traffic = layer_traffic(engine, layer);
    let bytes_moved = traffic.total_bytes();
    let intensity_ops_per_byte = traffic.intensity(macs);
    let (eff_cycles, bound) = traffic.roofline(&engine.memory, s.cycles);
    let (cycles, delay_us, utilization, energy_uj) = if engine.memory.is_unbounded() {
        // The pre-memory arithmetic, expression for expression: the golden
        // CSVs pin these f64 bit patterns, so the unbounded corner must
        // not re-associate a single operation.
        let delay_us = s.cycles / (engine.freq_ghz * 1e3);
        let pe_cycles = s.cycles * price.instances;
        let energy_uj = (pe_cycles * s.busy_frac * price.e_active_fj
            + pe_cycles * (1.0 - s.busy_frac) * price.e_idle_fj)
            * 1e-9;
        let utilization = match engine.kind {
            ArchKind::Dense(_) => (macs as f64 / (s.cycles * price.lanes_total)).min(1.0),
            ArchKind::Serial => s.busy_frac,
        };
        (s.cycles, delay_us, utilization, energy_uj)
    } else {
        // Roofline-bounded: the array occupies `eff_cycles` wall-clock
        // cycles but only `s.cycles` of them compute — stall cycles burn
        // idle power, and utilization dilutes by the stall fraction.
        let delay_us = eff_cycles / (engine.freq_ghz * 1e3);
        let active = s.cycles * s.busy_frac;
        let energy_uj = (active * price.e_active_fj + (eff_cycles - active) * price.e_idle_fj)
            * price.instances
            * 1e-9;
        let utilization = match engine.kind {
            ArchKind::Dense(_) => (macs as f64 / (eff_cycles * price.lanes_total)).min(1.0),
            ArchKind::Serial => s.busy_frac * (s.cycles / eff_cycles),
        };
        (eff_cycles, delay_us, utilization, energy_uj)
    };
    LayerCost {
        macs,
        tiles: s.tiles,
        cycles,
        delay_us,
        utilization,
        energy_uj,
        bytes_moved,
        intensity_ops_per_byte,
        bound,
        busy_sum: s.busy_sum,
    }
}

/// Evaluates one whole model on one priced engine, through `cache`: every
/// layer scheduled, costed and aggregated into an end-to-end
/// [`ModelReport`].
///
/// This is the naive per-layer oracle — one schedule per layer, no shape
/// dedup, no `ctr_layers_*_bound` counting. The cached model path
/// (`walk_model` behind [`EngineCache::model_record`] and
/// [`EngineCache::model_report`]) must stay bit-identical to it; the
/// equality is pinned by unit tests and a proptest across cycle models,
/// precisions and memory corners.
pub fn evaluate_model_with(
    cache: &EngineCache,
    engine: &EngineSpec,
    price: &EnginePrice,
    net: &NetworkModel,
    seed: u64,
    caps: SerialSampleCaps,
) -> ModelReport {
    let layers: Vec<LayerReport> = net
        .layers
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let s = schedule_layer_with(cache, engine, layer, layer_seed(seed, i, layer), caps);
            LayerReport {
                name: layer.name.as_str().into(),
                cost: layer_cost(engine, price, layer, s),
            }
        })
        .collect();
    ModelReport::aggregate(net.name.as_str(), engine, price, layers)
}

/// The model caches' miss path: one walk that costs each layer and folds
/// it into the returned record, bit-identical to [`evaluate_model_with`].
/// With `keep_rows` (a report) it also names each layer into a returned
/// row; a record builds no row.
///
/// * The dense simulator (`at_paper_config`) is built once per walk; its
///   closed-form cycle estimate is cheaper than any dedup lookup.
/// * Each distinct [`CycleKey`] costs at most one cycle-cache lookup per
///   walk. Sampled keys carry a seed derived from the layer's index, so
///   they never repeat within a walk. Analytic keys zero the seed and the
///   sampling caps, so within one engine they reduce to (effective
///   `a_bits`, `m`, `n`, `k`, `repeats`), found by a scan over the walk's
///   distinct shapes.
///
/// No per-row timer runs (the caller times the whole walk under
/// `eval_model_assemble_ns`), and the rows' roofline bounds are added to
/// the `ctr_layers_*_bound` counters once per walk.
pub(crate) fn walk_model(
    cache: &EngineCache,
    spec: &EngineSpec,
    price: &EnginePrice,
    net: &NetworkModel,
    seed: u64,
    caps: SerialSampleCaps,
    keep_rows: bool,
) -> (ModelRecord, Vec<LayerReport>) {
    let dense = match spec.kind {
        ArchKind::Dense(arch) => Some((arch, arch.at_paper_config())),
        ArchKind::Serial => None,
    };
    let mut shapes: Vec<([usize; 5], LayerSchedule)> = Vec::new();
    let mut rows = Vec::with_capacity(if keep_rows { net.layers.len() } else { 0 });
    let mut bounds = [0u64; 3];
    let costs = net.layers.iter().enumerate().map(|(i, layer)| {
        let s = match (&dense, caps.model) {
            (Some((arch, sim)), _) => dense_schedule(*arch, sim.as_ref(), layer),
            (None, CycleModel::Sampled) => {
                schedule_layer_with(cache, spec, layer, layer_seed(seed, i, layer), caps)
            }
            (None, CycleModel::Analytic) => {
                let a_bits = layer_a_bits(spec, layer) as usize;
                let shape = [a_bits, layer.m, layer.n, layer.k, layer.repeats];
                match shapes.iter().find(|(seen, _)| *seen == shape) {
                    Some(&(_, s)) => s,
                    None => {
                        let s = schedule_layer_with(cache, spec, layer, 0, caps);
                        shapes.push((shape, s));
                        s
                    }
                }
            }
        };
        let cost = layer_cost(spec, price, layer, s);
        bounds[cost.bound as usize] += 1;
        if keep_rows {
            let name = layer.name.as_str().into();
            rows.push(LayerReport { name, cost });
        }
        cost
    });
    let record = ModelRecord::fold(net.name.as_str(), price, costs);
    let obs = crate::eval::eval_obs();
    let classes = [Bound::Compute, Bound::Sram, Bound::Dram];
    for (bound, n) in classes.into_iter().zip(bounds) {
        obs.bound_counter(bound).add(n);
    }
    (record, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv1a;
    use tpe_arith::encode::EncodingKind;
    use tpe_core::arch::workload::{sample_serial_cycles, SerialTables};
    use tpe_core::arch::PeStyle;
    use tpe_workloads::img2col::ConvShape;
    use tpe_workloads::models;

    fn opt4e() -> EngineSpec {
        EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0)
    }

    /// Total cycles and aggregate busy fraction of a whole model on a serial
    /// array: every layer goes through the shared sampled sync model with its
    /// own order-independent seed, and busy cycles are pooled across layers
    /// (the delay-weighted utilization) — the oracle a model record's
    /// pooled busy fraction must reproduce.
    fn serial_model_cycles(
        cache: &EngineCache,
        spec: &EngineSpec,
        net: &NetworkModel,
        seed: u64,
        caps: SerialSampleCaps,
    ) -> (f64, f64) {
        let mp = serial_config(spec).mp;
        let mut cycles = 0.0;
        let mut busy_sum = 0.0;
        for (i, layer) in net.layers.iter().enumerate() {
            let rec = cached_serial_cycles(cache, spec, layer, layer_seed(seed, i, layer), caps);
            busy_sum += rec.busy_sum;
            cycles += rec.cycles;
        }
        // Guard the degenerate empty network (0 cycles would divide to NaN).
        let busy_frac = if cycles > 0.0 {
            busy_sum / (cycles * mp as f64)
        } else {
            0.0
        };
        (cycles, busy_frac)
    }

    #[test]
    fn dense_tiles_cover_every_topology() {
        let layer = LayerShape::new("t", 64, 56 * 56, 576, 1);
        for arch in ClassicArch::ALL {
            assert!(dense_tiles(arch, &layer) > 0, "{arch:?}");
        }
        // The §IV-C layer cuts into ⌈576/32⌉ × ⌈3136/32⌉ = 18 × 98 weight
        // tiles on the systolic array.
        assert_eq!(dense_tiles(ClassicArch::Tpu, &layer), 18 * 98);
        // Depthwise repeats multiply.
        let dw = LayerShape::new("dw", 1, 28 * 28, 9, 672);
        assert_eq!(
            dense_tiles(ClassicArch::FlexFlow, &dw),
            672 * 25,
            "1×784 output per channel = 25 blocks of 32"
        );
    }

    #[test]
    fn img2col_lowered_conv_schedules_like_its_gemm() {
        // The pipeline ingests pre-lowered layers: a conv fed through
        // img2col (§IV-C) and its explicit GEMM shape schedule identically.
        let conv = ConvShape::standard(64, 64, 56, 3, 1, 1);
        let lowered = LayerShape::from_conv("l1", &conv);
        assert_eq!((lowered.m, lowered.n, lowered.k), (64, 56 * 56, 576));
        let explicit = LayerShape::new("l1", 64, 56 * 56, 576, 1);
        let engine = EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0);
        let cache = EngineCache::new();
        let a = schedule_layer_with(&cache, &engine, &lowered, 1, MODEL_SAMPLE_CAPS);
        let b = schedule_layer_with(&cache, &engine, &explicit, 1, MODEL_SAMPLE_CAPS);
        assert_eq!(a, b);
    }

    #[test]
    fn serial_schedule_matches_shared_sync_model() {
        let engine = opt4e();
        let layer = LayerShape::new("fc1", 1, 4 * 768, 768, 1);
        let cache = EngineCache::new();
        let s = schedule_layer_with(&cache, &engine, &layer, 7, MODEL_SAMPLE_CAPS);
        assert!(s.cycles > 0.0);
        assert!((0.0..=1.0).contains(&s.busy_frac));
        assert!(s.busy_frac > 0.9, "K=768 keeps columns busy (Fig. 11(A))");
        assert!(s.tiles >= 1.0);
    }

    #[test]
    fn model_cycles_sum_layer_cycles() {
        let net = models::resnet18();
        let engine = EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0);
        let cache = EngineCache::new();
        let per_layer: f64 = net
            .layers
            .iter()
            .map(|l| schedule_layer_with(&cache, &engine, l, 0, MODEL_SAMPLE_CAPS).cycles)
            .sum();
        let price = engine.price().unwrap();
        let whole = walk_model(&cache, &engine, &price, &net, 0, MODEL_SAMPLE_CAPS, false).0;
        assert_eq!(per_layer.to_bits(), whole.cycles.to_bits());
    }

    #[test]
    fn serial_model_cycles_are_seed_deterministic_and_order_independent() {
        let engine = opt4e();
        let cache = EngineCache::new();
        let net = models::mobilenet_v3();
        let (c1, b1) = serial_model_cycles(&cache, &engine, &net, 9, MODEL_SAMPLE_CAPS);
        let (c2, b2) = serial_model_cycles(&cache, &engine, &net, 9, MODEL_SAMPLE_CAPS);
        assert_eq!(c1.to_bits(), c2.to_bits());
        assert_eq!(b1.to_bits(), b2.to_bits());
        let (c3, _) = serial_model_cycles(&cache, &engine, &net, 10, MODEL_SAMPLE_CAPS);
        assert_ne!(c1.to_bits(), c3.to_bits(), "seed must reach the sampler");
        assert!((0.0..=1.0).contains(&b1));
    }

    /// Mixed-precision schedules: a layer's precision override reaches the
    /// digit sampler (W4 layers stream fewer digits on a serial engine),
    /// dense engines schedule the override identically, and the override
    /// is part of the cycle-cache identity.
    #[test]
    fn layer_precision_overrides_drive_serial_digit_streaming() {
        use tpe_arith::Precision;
        let serial = opt4e();
        let layer = LayerShape::new("blk", 64, 784, 576, 1);
        let quant = layer.clone().with_precision(Precision::W4);
        assert_eq!(layer_a_bits(&serial, &layer), 8, "inherits the engine");
        assert_eq!(layer_a_bits(&serial, &quant), 4, "override wins");

        let caps = SampleProfile::Quick.caps();
        let cache = EngineCache::new();
        let s8 = schedule_layer_with(&cache, &serial, &layer, 3, caps);
        let s4 = schedule_layer_with(&cache, &serial, &quant, 3, caps);
        assert!(
            s4.cycles < s8.cycles,
            "W4 layer must stream fewer digits: {} vs {}",
            s4.cycles,
            s8.cycles
        );
        assert_eq!(
            cache.stats().cycle_misses,
            2,
            "override must be its own cycle-cache entry"
        );

        // Dense parallel engines do one full-width MAC per lane-cycle:
        // the override changes nothing in their schedule.
        let dense = EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0);
        assert_eq!(
            schedule_layer_with(&cache, &dense, &layer, 3, caps),
            schedule_layer_with(&cache, &dense, &quant, 3, caps),
        );

        // End to end: the quantized ResNet-18 preset beats the plain one
        // on a serial engine.
        let (plain, _) = serial_model_cycles(&cache, &serial, &models::resnet18(), 9, caps);
        let (q, _) = serial_model_cycles(&cache, &serial, &models::resnet18_quantized(), 9, caps);
        assert!(q < plain, "quantized preset must be faster: {q} vs {plain}");
    }

    /// A layer override corrects the operand budget to its own width:
    /// W4 layers on a W8 engine sample 2× the operands (same cycle mass),
    /// W16 layers half; no override leaves caller caps untouched.
    #[test]
    fn layer_override_rescales_sampling_caps() {
        use tpe_arith::Precision;
        let engine = opt4e(); // W8
        let base = SampleProfile::Sweep.caps();
        let plain = LayerShape::new("p", 8, 8, 8, 1);
        assert_eq!(caps_for_layer(&engine, &plain, base), base);
        let w4 = plain.clone().with_precision(Precision::W4);
        assert_eq!(
            caps_for_layer(&engine, &w4, base).max_operands,
            base.max_operands * 2
        );
        let w16 = plain.clone().with_precision(Precision::W16);
        let corrected = caps_for_layer(&engine, &w16, base);
        assert_eq!(corrected.max_operands, base.max_operands / 2);
        assert_eq!(corrected.max_rounds, base.max_rounds);
        // On a W16 engine, a W4 layer gets the full 4× correction even
        // though the caller budgeted for W16.
        let engine16 = engine.with_precision(Precision::W16);
        assert_eq!(
            caps_for_layer(&engine16, &w4, base).max_operands,
            base.max_operands * 4
        );
    }

    /// The streaming seed must reproduce the `format!` bytes exactly: the
    /// derived sampled seeds feed pinned golden CSVs.
    #[test]
    fn layer_seed_streams_the_exact_format_bytes() {
        for (i, name) in [
            (0usize, "conv1"),
            (7, "l2.0-3x3s2"),
            (19, ""),
            (9_876_543_210, "weird/τ—name"),
            (usize::MAX, "max"),
        ] {
            let layer = LayerShape::new(name, 1, 1, 1, 1);
            assert_eq!(
                layer_seed(42, i, &layer),
                42 ^ fnv1a(&format!("{i}/{}", layer.name)),
                "index {i} name {name:?}"
            );
        }
    }

    /// Every field of two records, floats compared by bit pattern (a
    /// `PartialEq` match would let −0.0 and 0.0 pass as equal).
    fn assert_same_record(stored: &ModelRecord, naive: &ModelRecord, what: &str) {
        assert_eq!(stored.model, naive.model, "{what}");
        assert_eq!(stored.total_macs, naive.total_macs, "{what}");
        assert_eq!(stored.bound, naive.bound, "{what}");
        let bits = |r: &ModelRecord| {
            [
                r.cycles,
                r.delay_us,
                r.energy_uj,
                r.utilization,
                r.area_um2,
                r.peak_tops,
                r.bytes_moved,
                r.intensity_ops_per_byte,
                r.busy_sum,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(bits(stored), bits(naive), "{what}");
    }

    /// The model walk's record and rows, against the naive oracle's at one
    /// engine and caps: the record the model map stores must equal
    /// `ModelRecord::aggregate` of the naive rows bit for bit, and the
    /// kept rows must equal the naive rows.
    fn assert_walk_matches_naive(
        cache: &EngineCache,
        engine: &EngineSpec,
        net: &NetworkModel,
        seed: u64,
        caps: SerialSampleCaps,
    ) {
        let what = format!("{} {:?} {}", engine.label(), caps.model, net.name);
        let price = engine.price().expect("paper clocks close timing");
        let naive = evaluate_model_with(cache, engine, &price, net, seed, caps);
        let (stored, _) = walk_model(cache, engine, &price, net, seed, caps, false);
        let aggregated = ModelRecord::aggregate(net.name.as_str(), &price, &naive.layers);
        assert_same_record(&stored, &aggregated, &what);
        // The fold must equal plain per-field `Iterator::sum`s, bit for bit.
        let sum = |f: fn(&LayerCost) -> f64| naive.layers.iter().map(|l| f(&l.cost)).sum::<f64>();
        let sums = [
            sum(|c| c.cycles),
            sum(|c| c.delay_us),
            sum(|c| c.energy_uj),
            sum(|c| c.bytes_moved),
            sum(|c| c.busy_sum),
        ];
        let fields = [
            stored.cycles,
            stored.delay_us,
            stored.energy_uj,
            stored.bytes_moved,
            stored.busy_sum,
        ];
        assert_eq!(fields.map(f64::to_bits), sums.map(f64::to_bits), "{what}");
        let (totals, rows) = walk_model(cache, engine, &price, net, seed, caps, true);
        assert_same_record(&totals, &stored, &what);
        assert_eq!(*naive.layers, rows[..], "{what}");
    }

    /// The model walk behind the model caches must be bit-identical to the
    /// naive per-layer oracle — dense and serial, repeated shapes,
    /// mixed-precision overrides, an empty network, at every memory
    /// corner — and under the unbounded corner the busy pool must
    /// reproduce [`serial_model_cycles`]' aggregate exactly.
    #[test]
    fn assembled_record_matches_the_naive_walk() {
        // Repeat shapes on purpose: layers 0/2 share (shape, a_bits) and
        // dedup in analytic mode; the W4 override forces its own group.
        let dups = NetworkModel {
            name: "dup-heavy".into(),
            layers: vec![
                LayerShape::new("a0", 64, 784, 576, 1),
                LayerShape::new("b", 32, 196, 288, 2),
                LayerShape::new("a1", 64, 784, 576, 1),
                LayerShape::new("a4", 64, 784, 576, 1).with_precision(tpe_arith::Precision::W4),
            ]
            .into(),
        };
        // `Iterator::sum` over `f64` folds from −0.0: so must the record.
        let empty = NetworkModel {
            name: "empty".into(),
            layers: Vec::new().into(),
        };
        let engines = [
            opt4e(),
            EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0),
        ];
        for base in &engines {
            for memory in crate::roster::memory_corners() {
                let engine = base.clone().with_memory(memory);
                for model in [CycleModel::Sampled, CycleModel::Analytic] {
                    let caps = SerialSampleCaps {
                        model,
                        ..SampleProfile::Quick.caps()
                    };
                    let cache = EngineCache::new();
                    for net in [&dups, &empty] {
                        assert_walk_matches_naive(&cache, &engine, net, 9, caps);
                    }
                    if !matches!(engine.kind, ArchKind::Serial) || !memory.is_unbounded() {
                        continue;
                    }
                    let price = engine.price().unwrap();
                    let mp = serial_config(&engine).mp;
                    let t = walk_model(&cache, &engine, &price, &dups, 9, caps, false).0;
                    let (cycles, busy_frac) = serial_model_cycles(&cache, &engine, &dups, 9, caps);
                    assert_eq!(t.cycles.to_bits(), cycles.to_bits());
                    assert_eq!(
                        (t.busy_sum / (t.cycles * mp as f64)).to_bits(),
                        busy_frac.to_bits(),
                        "pooled busy cycles must reproduce the dse aggregate"
                    );
                }
            }
        }
        let price = opt4e().price().unwrap();
        let cache = EngineCache::new();
        let t = walk_model(
            &cache,
            &opt4e(),
            &price,
            &empty,
            9,
            MODEL_SAMPLE_CAPS,
            false,
        )
        .0;
        assert!(t.cycles.is_sign_negative() && t.delay_us == 0.0 && t.total_macs == 0);
    }

    /// In analytic mode the walk schedules each distinct (shape, a_bits)
    /// once: the duplicate layers above must not add cycle-cache entries.
    #[test]
    fn analytic_assembly_dedups_repeated_shapes() {
        let net = NetworkModel {
            name: "dups".into(),
            layers: (0..6)
                .map(|i| LayerShape::new(format!("l{i}"), 64, 784, 576, 1))
                .collect(),
        };
        let caps = SerialSampleCaps {
            model: CycleModel::Analytic,
            ..SampleProfile::Quick.caps()
        };
        let engine = opt4e();
        let price = engine.price().unwrap();
        let cache = EngineCache::new();
        walk_model(&cache, &engine, &price, &net, 3, caps, false);
        let stats = cache.stats();
        assert_eq!(cache.cycles_len(), 1, "six identical layers, one entry");
        assert_eq!(
            (stats.cycle_lookups, stats.cycle_misses),
            (1, 1),
            "the walk's shape scan must absorb the other five lookups"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

        /// Property form of the equivalence: random small networks (with
        /// deliberate shape repetition, random per-layer precision
        /// overrides and the empty network), both cycle models, every
        /// precision preset and every memory corner — the model walk's
        /// stored record and rows reproduce the naive walk bit for bit.
        #[test]
        fn assembly_equivalence_holds_for_random_networks(
            shapes in proptest::collection::vec(
                (1usize..32, 1usize..48, 1usize..64, 1usize..3, 0u8..4),
                0..5,
            ),
            dup in proptest::bool::ANY,
            seed in 0u64..500,
        ) {
            use tpe_arith::Precision;
            let mut layers: Vec<LayerShape> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(m, n, k, r, p))| {
                    let l = LayerShape::new(format!("l{i}"), m, n, k, r);
                    match p {
                        1 => l.with_precision(Precision::W4),
                        2 => l.with_precision(Precision::W8),
                        3 => l.with_precision(Precision::W16),
                        _ => l,
                    }
                })
                .collect();
            if let (true, Some(first)) = (dup, layers.first()) {
                // Re-append the first layer under a new name: same shape
                // and override, different per-layer seed.
                let mut copy = first.clone();
                copy.name = "dup".into();
                layers.push(copy);
            }
            let net = NetworkModel { name: "prop".into(), layers: layers.into() };
            for engine in [
                opt4e(),
                EngineSpec::serial(PeStyle::Opt3, EncodingKind::Csd, 2.0),
                EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0),
            ] {
                for model in [CycleModel::Sampled, CycleModel::Analytic] {
                    for precision in [Precision::W4, Precision::W8, Precision::W16] {
                        let caps = SerialSampleCaps {
                            model,
                            ..SampleProfile::Quick.caps_for(precision)
                        };
                        // One cache across the corners: the cycle model
                        // never sees the memory corner.
                        let cache = EngineCache::new();
                        for memory in crate::roster::memory_corners() {
                            let engine =
                                engine.clone().with_precision(precision).with_memory(memory);
                            assert_walk_matches_naive(&cache, &engine, &net, seed, caps);
                        }
                    }
                }
            }
        }
    }

    /// The traffic model's reuse accounting: weights fetched once,
    /// activations once per output-tile column pass, outputs once — and
    /// the cube's 10-wide tiles pay more activation passes than the
    /// 32-wide planes.
    #[test]
    fn layer_traffic_counts_tile_reuse() {
        let layer = LayerShape::new("t", 64, 96, 128, 1);
        let tpu = EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0);
        let t = layer_traffic(&tpu, &layer);
        assert_eq!(t.weight_bytes, (128 * 96) as f64, "W8: 1 byte/elem");
        assert_eq!(t.act_bytes, (64 * 128 * 3) as f64, "⌈96/32⌉ = 3 passes");
        assert_eq!(t.out_bytes, (64 * 96) as f64);
        assert_eq!(
            t.footprint_bytes,
            (128 * 96 + 64 * 128 + 64 * 96) as f64,
            "footprint counts every distinct byte once"
        );
        let cube = EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Ascend, 1.0);
        let c = layer_traffic(&cube, &layer);
        assert_eq!(c.act_bytes, (64 * 128 * 10) as f64, "⌈96/10⌉ = 10 passes");
        assert!(t.intensity(layer.macs()) > 0.0);
        // Serial engines stream the same GEMM operands as the 32-wide
        // planes.
        assert_eq!(layer_traffic(&opt4e(), &layer), t);
    }

    /// With `Unbounded` memory the roofline is the identity — compute
    /// cycles pass through bit-for-bit and every layer is compute-bound.
    #[test]
    fn unbounded_roofline_is_the_identity() {
        let layer = LayerShape::new("t", 64, 784, 576, 1);
        let engine = opt4e();
        let t = layer_traffic(&engine, &layer);
        let compute = 12_345.678_f64;
        let (eff, bound) = t.roofline(&MemorySpec::unbounded(), compute);
        assert_eq!(eff.to_bits(), compute.to_bits());
        assert_eq!(bound, Bound::Compute);
    }

    /// A starved corner flips a fat layer off the compute roof: effective
    /// delay exceeds compute-only delay and the bound reports the binding
    /// resource. SRAM-resident working sets bind on SRAM bandwidth;
    /// spilled ones on DRAM.
    #[test]
    fn finite_corners_bind_layers_on_bandwidth() {
        let layer = LayerShape::new("fat", 256, 1024, 1024, 1);
        let base = EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0);
        let t = layer_traffic(&base, &layer);
        let compute = 1_000.0; // far under the traffic's bandwidth demand

        // Huge SRAM, starved DRAM: footprint fits, so DRAM sees only the
        // footprint — but 1 B/cycle still dominates.
        let starved_dram = MemorySpec {
            sram_kib: 1 << 20,
            sram_bw: 1 << 20,
            dram_bw: 1,
            name: "starved-dram",
        };
        let (eff, bound) = t.roofline(&starved_dram, compute);
        assert_eq!(bound, Bound::Dram);
        assert!(eff > compute);
        assert_eq!(eff, t.footprint_bytes, "resident set crosses DRAM once");

        // Tiny SRAM: the working set spills and full streamed traffic
        // crosses DRAM.
        let spilled = MemorySpec {
            sram_kib: 1,
            ..starved_dram
        };
        let (eff_spill, _) = t.roofline(&spilled, compute);
        assert_eq!(eff_spill, t.total_bytes());
        assert!(eff_spill > eff);

        // Starved SRAM port, generous DRAM: SRAM is the roof.
        let starved_sram = MemorySpec {
            sram_kib: 1 << 20,
            sram_bw: 1,
            dram_bw: 1 << 20,
            name: "starved-sram",
        };
        let (eff_s, bound_s) = t.roofline(&starved_sram, compute);
        assert_eq!(bound_s, Bound::Sram);
        assert_eq!(eff_s, t.total_bytes());
    }

    /// A bounded layer row reports a longer delay, diluted utilization
    /// and the extra idle-energy of its stall cycles — while the
    /// unbounded row on the same engine is untouched.
    #[test]
    fn bounded_layer_rows_stretch_delay_and_dilute_utilization() {
        let layer = LayerShape::new("fat", 256, 1024, 1024, 1);
        let base = EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0);
        let price = base.price().unwrap();
        let cache = EngineCache::new();
        let s = schedule_layer_with(&cache, &base, &layer, 0, MODEL_SAMPLE_CAPS);
        let free = layer_cost(&base, &price, &layer, s);
        assert_eq!(free.bound, Bound::Compute);
        assert!(free.bytes_moved > 0.0);
        assert!(free.intensity_ops_per_byte > 0.0);

        let edge = base.clone().with_memory(MemorySpec::edge());
        let bounded = layer_cost(&edge, &price, &layer, s);
        assert!(
            bounded.delay_us > free.delay_us,
            "edge corner must stretch the fat layer: {} vs {}",
            bounded.delay_us,
            free.delay_us
        );
        assert_ne!(bounded.bound, Bound::Compute);
        assert!(bounded.utilization < free.utilization);
        assert!(
            bounded.energy_uj > free.energy_uj,
            "stall cycles burn idle power"
        );
        assert_eq!(bounded.bytes_moved, free.bytes_moved, "traffic is traffic");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

        /// Narrower operands never move more bytes: per layer,
        /// `bytes_moved` is monotonically non-increasing W16 → W8 → W4.
        #[test]
        fn bytes_moved_shrinks_with_precision(
            m in 1usize..128,
            n in 1usize..256,
            k in 1usize..256,
            r in 1usize..3,
            serial in proptest::bool::ANY,
        ) {
            use tpe_arith::Precision;
            let layer = LayerShape::new("p", m, n, k, r);
            let base = if serial {
                opt4e()
            } else {
                EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0)
            };
            let bytes = |p: Precision| {
                layer_traffic(&base.clone().with_precision(p), &layer).total_bytes()
            };
            let (w16, w8, w4) = (bytes(Precision::W16), bytes(Precision::W8), bytes(Precision::W4));
            proptest::prop_assert!(w16 >= w8 && w8 >= w4, "{w16} {w8} {w4}");
            proptest::prop_assert!(w4 > 0.0);
        }
    }

    /// The memoized record reproduces the raw sampler bit-for-bit, and a
    /// repeated evaluation is served from memory.
    #[test]
    fn cached_serial_cycles_match_the_raw_sampler() {
        let engine = opt4e();
        let cache = EngineCache::new();
        let layer = LayerShape::new("probe", 64, 128, 64, 1);
        let caps = SampleProfile::Quick.caps();
        let rec = cached_serial_cycles(&cache, &engine, &layer, 11, caps);

        let cfg = serial_config(&engine);
        let encoder = engine.encoding.encoder();
        let tables = SerialTables::default();
        let stats = sample_serial_cycles(&tables, &cfg, encoder.as_ref(), 8, &layer, 11, caps);
        assert_eq!(rec.cycles.to_bits(), stats.cycles.to_bits());
        assert_eq!(
            rec.busy_sum.to_bits(),
            stats.busy.iter().sum::<f64>().to_bits()
        );
        assert_eq!(rec.utilization().to_bits(), stats.utilization().to_bits());
        assert_eq!(rec.columns as usize, stats.busy.len());
        assert!(rec.busy_min <= rec.busy_max);

        let before = cache.stats();
        let again = cached_serial_cycles(&cache, &engine, &layer, 11, caps);
        assert_eq!(again, rec);
        let delta = cache.stats().since(&before);
        assert_eq!((delta.cycle_hits, delta.cycle_misses), (1, 0));
    }
}
