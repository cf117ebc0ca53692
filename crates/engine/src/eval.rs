//! The canonical evaluator: one (engine × workload) pair → one
//! [`Metrics`] row, through the process-wide cache.
//!
//! Every comparison in the paper (Tables I–VII, Figures 9–14) reduces to
//! pricing an (engine, workload) pair. The [`Evaluator`] is the single
//! implementation of that composition — synthesis (memoized on
//! [`PeKey`]) → node scaling → array support logic →
//! dense closed-form / serial sampled cycle models — consumed by the
//! `tpe-dse` sweep and model grid, the `repro` figure/table
//! experiments and the `repro serve` query front end. Results are
//! deterministic functions of (engine, workload, seed), so any two paths
//! that ask the same question get byte-identical answers.

use std::fmt::Write;
use std::sync::{Arc, OnceLock};

use tpe_core::arch::{ArchKind, ArrayModel};
use tpe_cost::process::{scale_area_um2, scale_power_w, ProcessNode};
use tpe_obs::{Counter, Histogram, Registry};
use tpe_workloads::NetworkModel;

#[cfg(doc)]
use crate::cache::PriceKey;
use crate::cache::{EngineCache, ModelKey, PeKey, PeRecord};
use crate::caps::{CycleModel, SampleProfile, SerialSampleCaps};
use crate::report::{ModelRecord, ModelReport};
use crate::schedule::{cached_serial_cycles, layer_traffic, walk_model};
use crate::spec::{Bound, EnginePrice, EngineSpec};
use crate::workload::SweepWorkload;
use crate::Fnv1a;

/// Re-exported from `tpe-core`: expected digits per operand of an encoder
/// on quantized-normal INT8 data (the serial peak-throughput divisor),
/// plus the width-generic variant behind the precision axis.
pub use tpe_core::arch::workload::{effective_numpps, effective_numpps_at};

/// Handles to the evaluator's process-wide stage metrics, resolved once
/// from [`Registry::global`] (see [`eval_obs`]). The cold stages —
/// synthesis, price assembly, serial-cycle sampling, model assembly —
/// get span timers *inside* their miss closures, so warm (cached) paths
/// pay nothing beyond one relaxed counter increment.
pub(crate) struct EvalObs {
    /// `eval_synthesis_ns`: PE synthesis + node scaling (cold only).
    pub synthesis_ns: Arc<Histogram>,
    /// `eval_price_assemble_ns`: full engine-price assembly (cold only).
    pub price_assemble_ns: Arc<Histogram>,
    /// `eval_serial_sample_ns`: one serial-cycle sampling run (cold only).
    pub serial_sample_ns: Arc<Histogram>,
    /// `eval_serial_analytic_ns`: one closed-form serial-cycle evaluation
    /// (cold only, analytic mode).
    pub serial_analytic_ns: Arc<Histogram>,
    /// `eval_model_assemble_ns`: one whole-model record assembly — the
    /// model walk behind the model cache's miss path, timed as a whole
    /// (cold only; a model-map hit never runs it).
    pub model_assemble_ns: Arc<Histogram>,
    /// `eval_traffic_ns`: one bare-layer memory-traffic computation (the
    /// roofline's byte accounting), recomputed on every layer-workload
    /// metrics call. A model walk's layers are not timed one by one.
    pub traffic_ns: Arc<Histogram>,
    /// `eval_price_calls`: total [`Evaluator::price`] calls, hot or cold.
    pub price_calls: Arc<Counter>,
    /// `eval_metrics_calls`: total [`Evaluator::metrics`] calls.
    pub metrics_calls: Arc<Counter>,
    /// `ctr_layers_compute_bound`: layer rows whose roofline bound was
    /// compute (the only bound the `Unbounded` corner ever produces).
    pub layers_compute_bound: Arc<Counter>,
    /// `ctr_layers_sram_bound`: layer rows bound on SRAM bandwidth.
    pub layers_sram_bound: Arc<Counter>,
    /// `ctr_layers_dram_bound`: layer rows bound on DRAM bandwidth.
    pub layers_dram_bound: Arc<Counter>,
}

impl EvalObs {
    /// The per-bound layer counter (`ctr_layers_{compute,sram,dram}_bound`).
    pub fn bound_counter(&self, bound: Bound) -> &Counter {
        match bound {
            Bound::Compute => &self.layers_compute_bound,
            Bound::Sram => &self.layers_sram_bound,
            Bound::Dram => &self.layers_dram_bound,
        }
    }
}

/// The process-wide evaluator metric handles (registered on first use).
pub(crate) fn eval_obs() -> &'static EvalObs {
    static OBS: OnceLock<EvalObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = Registry::global();
        EvalObs {
            synthesis_ns: reg.histogram("eval_synthesis_ns"),
            price_assemble_ns: reg.histogram("eval_price_assemble_ns"),
            serial_sample_ns: reg.histogram("eval_serial_sample_ns"),
            serial_analytic_ns: reg.histogram("eval_serial_analytic_ns"),
            model_assemble_ns: reg.histogram("eval_model_assemble_ns"),
            traffic_ns: reg.histogram("eval_traffic_ns"),
            price_calls: reg.counter("eval_price_calls"),
            metrics_calls: reg.counter("eval_metrics_calls"),
            layers_compute_bound: reg.counter("layers_compute_bound"),
            layers_sram_bound: reg.counter("layers_sram_bound"),
            layers_dram_bound: reg.counter("layers_dram_bound"),
        }
    })
}

/// The objective vector of one feasible (engine, workload) evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Total array area (µm², node-scaled).
    pub area_um2: f64,
    /// Workload wall-clock (µs).
    pub delay_us: f64,
    /// Workload energy (µJ).
    pub energy_uj: f64,
    /// Energy per MAC (fJ).
    pub energy_per_mac_fj: f64,
    /// Sustained throughput on this workload (GOPS, 2 ops per MAC).
    pub throughput_gops: f64,
    /// Peak throughput (TOPS).
    pub peak_tops: f64,
    /// Average compute-lane utilization (busy fraction, 0–1;
    /// roofline-aware — stall cycles dilute it on finite corners).
    pub utilization: f64,
    /// Average power over the workload (W).
    pub power_w: f64,
    /// Total bytes moved across the memory boundary (workload sum).
    pub bytes_moved: f64,
    /// Arithmetic intensity: ops per byte moved (2 ops per MAC).
    pub intensity_ops_per_byte: f64,
    /// The binding roofline resource over the workload (always
    /// [`Bound::Compute`] on the `Unbounded` corner).
    pub bound: Bound,
}

/// The canonical evaluation stack, bound to a cache instance.
///
/// Most callers want [`Evaluator::global`]; isolated instances exist for
/// exact-count cache tests and honest cold-timing measurements.
#[derive(Debug, Clone, Copy)]
pub struct Evaluator<'c> {
    cache: &'c EngineCache,
    cycle_model: CycleModel,
}

impl<'c> Evaluator<'c> {
    /// An evaluator over an explicit cache instance (sampled cycle model).
    pub fn new(cache: &'c EngineCache) -> Self {
        Self {
            cache,
            cycle_model: CycleModel::Sampled,
        }
    }

    /// The evaluator over the process-wide global cache (sampled cycle
    /// model).
    pub fn global() -> Evaluator<'static> {
        Evaluator::new(EngineCache::global())
    }

    /// The same evaluator with the serial-cycle backend switched. The
    /// evaluator's mode is authoritative: it is stamped onto the sampling
    /// caps of every serial evaluation it issues, for [`Self::metrics`]
    /// and [`Self::model_report`] alike.
    pub fn with_cycle_model(self, model: CycleModel) -> Self {
        Self {
            cycle_model: model,
            ..self
        }
    }

    /// The serial-cycle backend this evaluator selects.
    pub fn cycle_model(&self) -> CycleModel {
        self.cycle_model
    }

    /// The cache this evaluator memoizes into.
    pub fn cache(&self) -> &'c EngineCache {
        self.cache
    }

    /// Prices the PE of an engine at its corner, through the cache.
    ///
    /// OPT3 carries its encoder inside the PE, so its design is built with
    /// the engine's encoding (`PeStyle::design_with_encoding_for`, and the
    /// cache key includes the encoding's recoder class). OPT4's encoders
    /// live in the array support logic, priced in [`Self::price`]. Every
    /// datapath width scales with the engine's precision — the cache key
    /// carries it, so W4/W8/W16 variants synthesize independently.
    pub fn pe_record(&self, spec: &EngineSpec) -> Option<PeRecord> {
        let key = PeKey::of(spec);
        self.cache.pe_record(key, || {
            let _span = eval_obs().synthesis_ns.span();
            let design = match spec.kind {
                ArchKind::Dense(_) => spec.arch_model().pe_design_for(spec.precision),
                ArchKind::Serial => spec
                    .style
                    .design_with_encoding_for(spec.encoding, spec.precision),
            };
            let report = design.synthesize(spec.freq_ghz)?;
            Some(PeRecord {
                area_um2: scale_area_um2(report.area_um2, ProcessNode::SMIC28, spec.node),
                // Busy/idle activity points are the shared
                // `tpe_cost::power` constants, so every consumer accounts
                // energy identically.
                active_power_uw: scale_power_w(
                    report.busy_power_uw(),
                    ProcessNode::SMIC28,
                    spec.node,
                ),
                idle_power_uw: scale_power_w(
                    report.idle_power_uw(),
                    ProcessNode::SMIC28,
                    spec.node,
                ),
                lanes: report.lanes,
            })
        })
    }

    /// Node-scaled area of the engine's support logic outside the PEs
    /// (SIMD lanes at the accumulator width, shared encoders at the
    /// multiplicand width, prefetch).
    pub fn support_area_um2(&self, spec: &EngineSpec) -> f64 {
        scale_area_um2(
            ArrayModel::new(spec.arch_model()).support_area_um2_with(spec.encoding, spec.precision),
            ProcessNode::SMIC28,
            spec.node,
        )
    }

    /// Prices the whole engine: cached PE synthesis, node scaling, array
    /// support logic. `None` when the PE cannot close timing.
    ///
    /// The assembled price is itself memoized (on the full
    /// [`PriceKey`]): the support-logic and
    /// effective-NumPPs arithmetic runs once per engine per process, so a
    /// warm price query is a single sharded map read.
    pub fn price(&self, spec: &EngineSpec) -> Option<EnginePrice> {
        eval_obs().price_calls.inc();
        self.price_uninstrumented(spec)
    }

    /// [`Self::price`] without the call counter — the criterion baseline
    /// that pins the instrumentation overhead of the warm path. Not part
    /// of the public API surface.
    #[doc(hidden)]
    pub fn price_uninstrumented(&self, spec: &EngineSpec) -> Option<EnginePrice> {
        let key = crate::cache::PriceKey::of(spec);
        self.cache.engine_price(key, || {
            let _span = eval_obs().price_assemble_ns.span();
            let record = self.pe_record(spec)?;
            Some(EnginePrice::from_record(
                spec,
                &record,
                self.support_area_um2(spec),
                self.cache.serial_tables(),
            ))
        })
    }

    /// Evaluates one (engine, workload) pair with the sweep seeding
    /// convention: the workload model draws from an RNG seeded by
    /// `seed ^ fnv1a(label)`, where the label is
    /// `"{engine}/{workload}"` with the engine's
    /// [`EngineSpec::seed_label`] — so results do not depend on evaluation
    /// order, two consumers asking about the same pair with the same
    /// sweep seed get bit-identical metrics, and every memory corner of an
    /// engine samples the same cycles.
    ///
    /// Layer workloads sample under [`SampleProfile::Sweep`], whole-model
    /// workloads under [`SampleProfile::Model`] (see [`crate::caps`]).
    pub fn metrics(
        &self,
        spec: &EngineSpec,
        workload: &SweepWorkload,
        seed: u64,
    ) -> Option<Metrics> {
        eval_obs().metrics_calls.inc();
        let price = self.price(spec)?;

        let freq = spec.freq_ghz;
        // Dense layer points never sample, so only the other two arms
        // derive a seed.
        let (cycles, busy_frac, model_rec) = match (workload, spec.kind) {
            (SweepWorkload::Model(net), kind) => {
                // One model-map lookup. The serial busy fraction pools busy
                // cycles across layers (pinned bit for bit against a
                // per-layer oracle in the schedule tests); dense arrays
                // clock every PE every cycle, useful or not.
                let point_seed = self.sample_seed(seed, spec, &net.name);
                let rec = self.model_record(spec, &price, net, point_seed);
                let busy_frac = match kind {
                    ArchKind::Dense(_) => 1.0,
                    ArchKind::Serial if rec.cycles > 0.0 => {
                        let mp = crate::schedule::serial_config(spec).mp;
                        rec.busy_sum / (rec.cycles * mp as f64)
                    }
                    ArchKind::Serial => 0.0,
                };
                (rec.cycles, busy_frac, Some(rec))
            }
            (SweepWorkload::Layer(w), ArchKind::Dense(arch)) => (
                arch.at_paper_config().estimate_cycles(w.m, w.n, w.k) as f64 * w.repeats as f64,
                1.0,
                None,
            ),
            (SweepWorkload::Layer(layer), ArchKind::Serial) => {
                let caps = SerialSampleCaps {
                    model: self.cycle_model,
                    ..SampleProfile::Sweep.caps_for(spec.precision)
                };
                let point_seed = self.sample_seed(seed, spec, &layer.name);
                let rec = cached_serial_cycles(self.cache, spec, layer, point_seed, caps);
                (rec.cycles, rec.utilization(), None)
            }
        };

        // A model record carries its network's MAC total: reading it keeps
        // a warm model point from re-walking the layer list.
        let macs = model_rec
            .as_ref()
            .map_or_else(|| workload.macs(), |rec| rec.total_macs) as f64;

        // The memory side: model records carry their roofline aggregates
        // (every layer row already bounded); a bare layer computes its
        // traffic here. `cycles` for a model workload is already the sum
        // of effective (bounded) layer cycles.
        let (eff_cycles, bytes_moved, intensity_ops_per_byte, bound) = match (&model_rec, workload)
        {
            (Some(rec), _) => (
                cycles,
                rec.bytes_moved,
                rec.intensity_ops_per_byte,
                rec.bound,
            ),
            (None, SweepWorkload::Layer(layer)) => {
                let traffic = {
                    let _span = eval_obs().traffic_ns.span();
                    layer_traffic(spec, layer)
                };
                let (eff, bound) = traffic.roofline(&spec.memory, cycles);
                eval_obs().bound_counter(bound).inc();
                (
                    eff,
                    traffic.total_bytes(),
                    traffic.intensity(workload.macs()),
                    bound,
                )
            }
            (None, SweepWorkload::Model(_)) => unreachable!("model workloads carry a record"),
        };

        let (delay_us, energy_uj, utilization) = if spec.memory.is_unbounded() {
            // The pre-memory arithmetic, expression for expression — the
            // sweep goldens pin these bit patterns. A model point reads
            // the record's summed per-layer delay, so it reports exactly
            // what `model_report` does.
            let delay_us = model_rec
                .as_ref()
                .map_or(cycles / (freq * 1e3), |r| r.delay_us);
            // Energy: fJ per PE instance-cycle at the record's activity
            // levels.
            let pe_cycles = cycles * price.instances;
            let energy_uj = (pe_cycles * busy_frac * price.e_active_fj
                + pe_cycles * (1.0 - busy_frac) * price.e_idle_fj)
                * 1e-9;
            let utilization = match spec.kind {
                ArchKind::Dense(_) => (macs / (cycles * price.lanes_total)).min(1.0),
                ArchKind::Serial => busy_frac,
            };
            (delay_us, energy_uj, utilization)
        } else if let Some(rec) = &model_rec {
            // Bounded model workload: the per-layer rooflines already
            // shaped the record's aggregates — use them directly.
            (rec.delay_us, rec.energy_uj, rec.utilization)
        } else {
            // Bounded single layer: the array occupies `eff_cycles`
            // wall-clock cycles, `cycles` of them computing; stalls burn
            // idle power and dilute utilization.
            let delay_us = eff_cycles / (freq * 1e3);
            let active = cycles * busy_frac;
            let energy_uj = (active * price.e_active_fj + (eff_cycles - active) * price.e_idle_fj)
                * price.instances
                * 1e-9;
            let utilization = match spec.kind {
                ArchKind::Dense(_) => (macs / (eff_cycles * price.lanes_total)).min(1.0),
                ArchKind::Serial => busy_frac * (cycles / eff_cycles),
            };
            (delay_us, energy_uj, utilization)
        };

        Some(Metrics {
            area_um2: price.area_um2,
            delay_us,
            energy_uj,
            energy_per_mac_fj: energy_uj * 1e9 / macs,
            throughput_gops: 2.0 * macs / delay_us / 1e3,
            peak_tops: price.peak_tops,
            utilization,
            power_w: energy_uj / delay_us,
            bytes_moved,
            intensity_ops_per_byte,
            bound,
        })
    }

    /// Evaluates one whole model on one engine with the sweep seeding
    /// convention (`seed ^ fnv1a("{engine}/{model}")` over the engine's
    /// [`EngineSpec::seed_label`], per-layer seeds mixed inside), at the
    /// same [`SampleProfile::Model`] budget as a [`SweepWorkload::Model`]
    /// point — so the report's totals and that point's [`Self::metrics`]
    /// are one model record. `None` when the engine fails timing.
    ///
    /// Served from the reports map, the only map that keeps per-layer
    /// rows: a repeated report for the same (engine, model content, seed,
    /// cycle model) is that one lookup plus `Arc` refcount bumps — no
    /// price probe, no per-layer path. A miss walks the layers (through
    /// the cycle map), keeps the rows, and fills the model map too.
    pub fn model_report(
        &self,
        spec: &EngineSpec,
        net: &NetworkModel,
        seed: u64,
    ) -> Option<ModelReport> {
        let cell_seed = self.sample_seed(seed, spec, &net.name);
        let caps = self.model_caps(spec);
        let key = ModelKey::of(spec, net, cell_seed, caps);
        let report = self.cache.model_report(key.clone(), || {
            let price = self.price(spec)?;
            let (totals, rows) = {
                let _span = eval_obs().model_assemble_ns.span();
                walk_model(self.cache, spec, &price, net, cell_seed, caps, true)
            };
            let report = ModelReport {
                engine: spec.clone(),
                layers: rows.into(),
                totals,
            };
            self.cache.model_record(key, || report.totals.clone());
            Some(report)
        })?;
        // The key rounds the engine's clock and node; the report names
        // the engine exactly as asked.
        Some(ModelReport {
            engine: spec.clone(),
            ..report
        })
    }

    /// The totals of [`Self::model_report`] without its rows: one price
    /// probe and one model-map lookup, never a reports-map one. `None`
    /// when the engine fails timing.
    pub fn model_totals(
        &self,
        spec: &EngineSpec,
        net: &NetworkModel,
        seed: u64,
    ) -> Option<ModelRecord> {
        let price = self.price(spec)?;
        let cell_seed = self.sample_seed(seed, spec, &net.name);
        Some(self.model_record(spec, &price, net, cell_seed))
    }

    /// The seed a serial-layer or whole-model evaluation of `workload` on
    /// `spec` draws from: [`point_seed`] under the sampled cycle model,
    /// and 0 under the analytic one, whose cache keys zero the seed and
    /// whose closed forms never read it.
    fn sample_seed(&self, seed: u64, spec: &EngineSpec, workload: &str) -> u64 {
        match self.cycle_model {
            CycleModel::Sampled => point_seed(seed, spec, workload),
            CycleModel::Analytic => 0,
        }
    }

    /// The sampling caps of every whole-model evaluation: the
    /// [`SampleProfile::Model`] caps at the engine's precision, under this
    /// evaluator's cycle model.
    fn model_caps(&self, spec: &EngineSpec) -> SerialSampleCaps {
        SerialSampleCaps {
            model: self.cycle_model,
            ..SampleProfile::Model.caps_for(spec.precision)
        }
    }

    /// The cached whole-model record for `(spec, net, seed)`. One
    /// model-map lookup; a miss runs the model walk
    /// ([`crate::schedule::walk_model`]) under the
    /// `eval_model_assemble_ns` span, keeping no row.
    fn model_record(
        &self,
        spec: &EngineSpec,
        price: &EnginePrice,
        net: &NetworkModel,
        seed: u64,
    ) -> ModelRecord {
        let caps = self.model_caps(spec);
        let key = ModelKey::of(spec, net, seed, caps);
        self.cache.model_record(key, || {
            let _span = eval_obs().model_assemble_ns.span();
            walk_model(self.cache, spec, price, net, seed, caps, false).0
        })
    }
}

/// The seed of one (engine, workload) evaluation:
/// `seed ^ fnv1a("{seed_label}/{workload}")`, with the label written
/// straight into the hasher instead of being formatted into a string.
fn point_seed(seed: u64, spec: &EngineSpec, workload: &str) -> u64 {
    let mut h = Fnv1a::default();
    spec.write_seed_label(&mut h)
        .and_then(|()| write!(h, "/{workload}"))
        .expect("hashing cannot fail");
    seed ^ h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv1a;
    use tpe_arith::encode::EncodingKind;
    use tpe_core::arch::PeStyle;
    use tpe_sim::array::ClassicArch;
    use tpe_workloads::{models, LayerShape};

    fn layer_workload() -> SweepWorkload {
        SweepWorkload::Layer(LayerShape::new("l2.0-3x3s2", 128, 28 * 28, 1152, 1))
    }

    #[test]
    fn dense_and_serial_specs_produce_finite_metrics() {
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        for spec in [
            EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0),
            EngineSpec::serial(PeStyle::Opt3, EncodingKind::EnT, 2.0),
        ] {
            let m = eval
                .metrics(&spec, &layer_workload(), 42)
                .expect("feasible");
            for (name, v) in [
                ("area", m.area_um2),
                ("delay", m.delay_us),
                ("energy", m.energy_uj),
                ("fJ/MAC", m.energy_per_mac_fj),
                ("GOPS", m.throughput_gops),
                ("TOPS", m.peak_tops),
                ("power", m.power_w),
            ] {
                assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", spec.label());
            }
            assert!((0.0..=1.0).contains(&m.utilization));
        }
    }

    /// The analytic cycle model never reads the point seed: serial-layer
    /// and whole-model answers are bit-equal across seeds, each from its
    /// own cold cache, while the sampled model still follows the seed.
    #[test]
    fn analytic_metrics_are_bit_equal_across_seeds() {
        let spec = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0);
        let net = models::resnet18_quantized();
        let model = SweepWorkload::Model(net.clone());
        let answers = |cycle_model: CycleModel, seed: u64| {
            let cache = EngineCache::new();
            let eval = Evaluator::new(&cache).with_cycle_model(cycle_model);
            let layer = eval.metrics(&spec, &layer_workload(), seed).unwrap();
            let model = eval.metrics(&spec, &model, seed).unwrap();
            let report = eval.model_report(&spec, &net, seed).unwrap();
            // `Debug` prints every f64 in its shortest round-trip form, so
            // equal strings mean equal bits.
            format!("{layer:?}\n{model:?}\n{:?}", report.totals)
        };
        let base = answers(CycleModel::Analytic, 0);
        for seed in [1, 42] {
            assert_eq!(answers(CycleModel::Analytic, seed), base, "seed {seed}");
        }
        assert_ne!(
            answers(CycleModel::Sampled, 1),
            answers(CycleModel::Sampled, 42),
            "sampled answers follow the seed"
        );
    }

    #[test]
    fn mac_is_infeasible_beyond_its_frequency_wall() {
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let spec = EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 2.0);
        assert!(eval.metrics(&spec, &layer_workload(), 42).is_none());
    }

    #[test]
    fn effective_numpps_orders_encoders_as_table3() {
        let ent = effective_numpps(EncodingKind::EnT.encoder().as_ref());
        let mbe = effective_numpps(EncodingKind::Mbe.encoder().as_ref());
        let bsc = effective_numpps(EncodingKind::BitSerialComplement.encoder().as_ref());
        assert!(ent < mbe, "EN-T {ent} must beat MBE {mbe}");
        assert!(mbe < bsc, "MBE {mbe} must beat bit-serial {bsc}");
        assert!(
            (2.0..2.5).contains(&ent),
            "EN-T effective NumPPs {ent} vs paper 2.22-2.27"
        );
    }

    #[test]
    fn encoding_axis_changes_serial_delay() {
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let w = layer_workload();
        let ent = EngineSpec::serial(PeStyle::Opt3, EncodingKind::EnT, 2.0);
        let bss = EngineSpec::serial(PeStyle::Opt3, EncodingKind::BitSerialComplement, 2.0);
        let (e, b) = (
            eval.metrics(&ent, &w, 7).unwrap(),
            eval.metrics(&bss, &w, 7).unwrap(),
        );
        assert!(
            e.delay_us < b.delay_us,
            "EN-T ({}) must stream fewer digits than bit-serial ({})",
            e.delay_us,
            b.delay_us
        );
    }

    #[test]
    fn encoding_axis_prices_encoder_hardware() {
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let area = |style, enc| {
            eval.price(&EngineSpec::serial(style, enc, 2.0))
                .unwrap()
                .area_um2
        };
        // OPT3 carries the encoder in-PE: the plain Booth recoder and the
        // bit-serial zero-skip unit are both cheaper than EN-T's
        // carry-chained recoder.
        let opt3_ent = area(PeStyle::Opt3, EncodingKind::EnT);
        assert!(area(PeStyle::Opt3, EncodingKind::Mbe) < opt3_ent);
        assert!(area(PeStyle::Opt3, EncodingKind::BitSerialComplement) < opt3_ent);
        // OPT4C's shared encoders reprice in the support logic too.
        let opt4c_ent = area(PeStyle::Opt4C, EncodingKind::EnT);
        assert!(area(PeStyle::Opt4C, EncodingKind::Mbe) < opt4c_ent);
    }

    #[test]
    fn opt3_cache_key_distinguishes_encodings_but_opt4_shares() {
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        eval.price(&EngineSpec::serial(PeStyle::Opt3, EncodingKind::EnT, 2.0));
        eval.price(&EngineSpec::serial(PeStyle::Opt3, EncodingKind::Mbe, 2.0));
        assert_eq!(
            cache.stats().price_misses,
            2,
            "in-PE encoder is cost-relevant"
        );
        eval.price(&EngineSpec::serial(PeStyle::Opt4C, EncodingKind::EnT, 2.0));
        eval.price(&EngineSpec::serial(PeStyle::Opt4C, EncodingKind::Mbe, 2.0));
        assert_eq!(
            cache.stats().price_misses,
            3,
            "OPT4C's PE has no encoder; encodings share one synthesis"
        );
    }

    /// The five-encoding OPT3 axis prices only three distinct recoders:
    /// EN-T/CSD share the carry-chained recoder and the two bit-serial
    /// kinds share the zero-skip unit, so canonicalizing the price key
    /// lifts the hit rate from 0/5 to 2/5 on this slice.
    #[test]
    fn opt3_encoding_hardware_classes_share_cache_entries() {
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        for kind in EncodingKind::ALL {
            eval.price(&EngineSpec::serial(PeStyle::Opt3, kind, 2.0));
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.price_hits, stats.price_misses),
            (2, 3),
            "EN-T+CSD and the two bit-serial kinds must share entries"
        );
        assert!(stats.hit_rate() > 0.39);
    }

    /// The acceptance invariant of the precision axis: for a fixed engine,
    /// array area and serial cycle counts strictly increase W4 → W8 → W16
    /// (wider operands synthesize bigger PEs and stream more digits), and
    /// the precision-keyed cache treats each width as its own entry.
    #[test]
    fn area_and_serial_cycles_strictly_increase_with_precision() {
        use tpe_arith::Precision;
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let ladder = [Precision::W4, Precision::W8, Precision::W16];
        for base in [
            EngineSpec::serial(PeStyle::Opt3, EncodingKind::EnT, 2.0),
            EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0),
            EngineSpec::dense(PeStyle::Opt1, ClassicArch::Tpu, 1.5),
            EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Ascend, 1.0),
        ] {
            let areas: Vec<f64> = ladder
                .iter()
                .map(|&p| {
                    eval.price(&base.clone().with_precision(p))
                        .unwrap_or_else(|| panic!("{} fails timing", base.label()))
                        .area_um2
                })
                .collect();
            assert!(
                areas[0] < areas[1] && areas[1] < areas[2],
                "{}: areas not strictly increasing over W4/W8/W16: {areas:?}",
                base.label()
            );
        }
        for base in [
            EngineSpec::serial(PeStyle::Opt3, EncodingKind::EnT, 2.0),
            EngineSpec::serial(PeStyle::Opt4C, EncodingKind::Csd, 2.5),
        ] {
            let w = layer_workload();
            let delays: Vec<f64> = ladder
                .iter()
                .map(|&p| {
                    eval.metrics(&base.clone().with_precision(p), &w, 7)
                        .unwrap()
                        .delay_us
                })
                .collect();
            assert!(
                delays[0] < delays[1] && delays[1] < delays[2],
                "{}: serial delay not strictly increasing over W4/W8/W16: {delays:?}",
                base.label()
            );
        }
        // Peak throughput moves the other way: fewer digits per operand.
        let peak = |p| {
            eval.price(
                &EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0).with_precision(p),
            )
            .unwrap()
            .peak_tops
        };
        assert!(peak(tpe_arith::Precision::W4) > peak(tpe_arith::Precision::W8));
        assert!(peak(tpe_arith::Precision::W8) > peak(tpe_arith::Precision::W16));
    }

    /// Distinct precisions never share cache entries; identical precision
    /// queries do.
    #[test]
    fn precision_is_part_of_every_cache_key() {
        use tpe_arith::Precision;
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let base = EngineSpec::serial(PeStyle::Opt4C, EncodingKind::EnT, 2.5);
        for p in [Precision::W8, Precision::W4, Precision::W16] {
            eval.price(&base.clone().with_precision(p));
        }
        assert_eq!(
            cache.stats().price_misses,
            3,
            "each precision must synthesize its own PE"
        );
        eval.price(&base.clone().with_precision(Precision::W4));
        assert_eq!(cache.stats().price_misses, 3, "repeat W4 must hit");
    }

    #[test]
    fn node_scaling_shrinks_area_and_power() {
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let w = layer_workload();
        let p28 = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 1.5);
        let p16 = p28.at_corner(crate::spec::Corner::n16(1.5));
        let m28 = eval.metrics(&p28, &w, 1).unwrap();
        let m16 = eval.metrics(&p16, &w, 1).unwrap();
        assert!(m16.area_um2 < m28.area_um2 * 0.5);
        assert!(m16.energy_uj < m28.energy_uj);
    }

    #[test]
    fn cache_prices_each_corner_once_across_workloads() {
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let spec = EngineSpec::serial(PeStyle::Opt4C, EncodingKind::EnT, 2.0);
        let workloads = [
            SweepWorkload::Layer(LayerShape::new("a", 64, 64, 64, 1)),
            SweepWorkload::Layer(LayerShape::new("b", 128, 64, 64, 1)),
            SweepWorkload::Model(models::resnet18()),
        ];
        for w in &workloads {
            eval.metrics(&spec, w, 3);
        }
        let stats = cache.stats();
        assert_eq!(stats.price_misses, 1);
        assert_eq!(stats.price_hits, workloads.len() as u64 - 1);
    }

    /// The metrics path and the price path are one implementation: pinned
    /// bit-identical so they can never drift apart again.
    #[test]
    fn metrics_and_price_agree_bit_for_bit() {
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        for spec in [
            EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0),
            EngineSpec::dense(PeStyle::Opt1, ClassicArch::Ascend, 1.5),
            EngineSpec::serial(PeStyle::Opt3, EncodingKind::Csd, 2.0),
            EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0),
        ] {
            let m = eval.metrics(&spec, &layer_workload(), 1).unwrap();
            let p = eval.price(&spec).unwrap();
            assert_eq!(m.area_um2.to_bits(), p.area_um2.to_bits());
            assert_eq!(m.peak_tops.to_bits(), p.peak_tops.to_bits());
        }
    }

    /// A warm rerun of an identical model evaluation is served entirely
    /// from memory: zero synthesis, zero sampling (isolated cache, so the
    /// counters are exact).
    #[test]
    fn warm_model_rerun_adds_zero_misses() {
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let spec = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0);
        let net = models::resnet18();
        let first = eval.model_report(&spec, &net, 77).unwrap();
        let before = cache.stats();
        let second = eval.model_report(&spec, &net, 77).unwrap();
        let delta = cache.stats().since(&before);
        assert_eq!(first, second);
        assert_eq!(delta.misses(), 0, "warm rerun must be all hits: {delta:?}");
        assert!(delta.hits() > 0);
    }

    /// A warm model report is exactly one reports-map hit and no other
    /// lookup at all: no price probe, no model-map read, no per-layer
    /// cycle lookup.
    #[test]
    fn warm_model_report_is_a_single_reports_map_hit() {
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let spec = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0);
        let net = models::resnet18();
        let first = eval.model_report(&spec, &net, 77).unwrap();
        let before = cache.stats();
        let report = eval.model_report(&spec, &net, 77).unwrap();
        let delta = cache.stats().since(&before);
        assert_eq!((delta.report_hits, delta.report_misses), (1, 0));
        assert_eq!(delta.lookups(), 1, "one lookup in all: {delta:?}");
        assert_eq!(report, first);
        assert_eq!(report.layer_count(), net.layers.len());
        assert_eq!(cache.reports_len(), 1);
    }

    /// The point seed is hashed without building its label, and equals
    /// the `format!` form the goldens were generated with — at the
    /// default precision, off it, and on a finite memory corner (which
    /// the seed label leaves out).
    #[test]
    fn point_seed_streams_the_exact_format_bytes() {
        use crate::spec::MemorySpec;
        use tpe_arith::Precision;
        let serial = EngineSpec::serial(PeStyle::Opt4C, EncodingKind::Csd, 2.5);
        for spec in [
            serial.clone(),
            serial.clone().with_precision(Precision::W4),
            serial.with_precision(Precision::W8X4),
            EngineSpec::dense(PeStyle::Opt1, ClassicArch::Ascend, 1.5)
                .with_precision(Precision::new(6, 10, 28))
                .with_memory(MemorySpec::edge()),
        ] {
            for name in ["ResNet18", "l2.0-3x3s2", "", "weird/τ—name"] {
                assert_eq!(
                    point_seed(42, &spec, name),
                    42 ^ fnv1a(&format!("{}/{name}", spec.seed_label())),
                    "{} {name:?}",
                    spec.label()
                );
            }
        }
    }

    /// Repeated `SweepWorkload::Model` metrics collapse to one model-map
    /// lookup — dense and serial engines alike — and reproduce the first
    /// answer bit for bit.
    #[test]
    fn model_workload_metrics_hit_the_model_map() {
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let w = SweepWorkload::Model(models::mobilenet_v3());
        for spec in [
            EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0),
            EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0),
        ] {
            let m1 = eval.metrics(&spec, &w, 3).unwrap();
            let before = cache.stats();
            let m2 = eval.metrics(&spec, &w, 3).unwrap();
            assert_eq!(m1, m2);
            let delta = cache.stats().since(&before);
            assert_eq!(
                (delta.model_hits, delta.model_misses),
                (1, 0),
                "{}",
                spec.label()
            );
            assert_eq!(delta.cycle_lookups, 0, "{}", spec.label());
        }
    }

    /// A model point reads its MAC total from the model record instead of
    /// re-walking the network, so every record must carry its network's
    /// total: checked over the catalog × the Table VII roster (analytic,
    /// which keeps the walks cheap; the total does not depend on cycles).
    #[test]
    fn model_records_carry_their_networks_mac_totals() {
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache).with_cycle_model(CycleModel::Analytic);
        for net in NetworkModel::catalog() {
            for spec in EngineSpec::paper_roster() {
                let rec = eval
                    .model_totals(&spec, &net, 0)
                    .expect("roster engines close timing");
                assert_eq!(rec.total_macs, net.total_macs(), "{}", spec.label());
            }
        }
    }

    /// A whole-model report and a `SweepWorkload::Model` point share one
    /// sampling budget at every precision, so after the point's `metrics`
    /// call the report reads the point's model record and every cycle
    /// record its rows need: the report's own lookup is the only miss —
    /// the `repro models` grid and `repro dse --model` agree off W8 too.
    #[test]
    fn model_report_reuses_the_model_point_record_off_w8() {
        use tpe_arith::Precision;
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let net = models::resnet18();
        for precision in [Precision::W16, Precision::W4] {
            let spec = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0)
                .with_precision(precision);
            let point = eval
                .metrics(&spec, &SweepWorkload::Model(net.clone()), 42)
                .unwrap();
            let before = cache.stats();
            let report = eval.model_report(&spec, &net, 42).unwrap();
            let delta = cache.stats().since(&before);
            assert_eq!(
                (delta.model_hits, delta.model_misses),
                (1, 0),
                "{}",
                spec.label()
            );
            assert_eq!(
                delta.misses(),
                delta.report_misses,
                "{}: {delta:?}",
                spec.label()
            );
            assert_eq!(delta.report_misses, 1, "{}", spec.label());
            let rel = (report.totals.delay_us - point.delay_us).abs() / point.delay_us;
            assert!(rel < 1e-12, "{}: {rel}", spec.label());
        }
    }

    /// A model point and the model's report read one record, and report
    /// one delay to the bit, over the serial roster at W8 and W16.
    #[test]
    fn model_point_delay_is_bit_equal_to_the_report() {
        use tpe_arith::Precision;
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let net = models::resnet18();
        let serial = crate::roster::paper_roster()
            .into_iter()
            .filter(|spec| spec.kind == ArchKind::Serial);
        for spec in serial {
            for precision in [Precision::W8, Precision::W16] {
                let spec = spec.clone().with_precision(precision);
                let point = eval.metrics(&spec, &SweepWorkload::Model(net.clone()), 42);
                let report = eval.model_report(&spec, &net, 42).unwrap();
                let (p, r) = (point.unwrap().delay_us, report.totals.delay_us);
                assert_eq!(p.to_bits(), r.to_bits(), "{}", spec.label());
            }
        }
    }

    /// The memory axis end to end: unbounded metrics report compute-bound
    /// with positive traffic; a starved corner flips the bound, stretches
    /// delay, and keys its own cache entries.
    #[test]
    fn finite_memory_corners_flip_the_metrics_bound() {
        use crate::spec::MemorySpec;
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let base = EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0);
        let w = layer_workload();
        let free = eval.metrics(&base, &w, 42).unwrap();
        assert_eq!(free.bound, Bound::Compute);
        assert!(free.bytes_moved > 0.0);
        assert!(free.intensity_ops_per_byte > 0.0);

        let starved = base.clone().with_memory(MemorySpec {
            sram_kib: 64,
            sram_bw: 1,
            dram_bw: 1,
            name: "starved",
        });
        let bound = eval.metrics(&starved, &w, 42).unwrap();
        assert_ne!(bound.bound, Bound::Compute);
        assert!(
            bound.delay_us > free.delay_us,
            "roofline must stretch the delay: {} vs {}",
            bound.delay_us,
            free.delay_us
        );
        assert!(bound.utilization < free.utilization);
        assert_eq!(bound.bytes_moved, free.bytes_moved);
        assert_eq!(
            bound.area_um2.to_bits(),
            free.area_um2.to_bits(),
            "pricing is memory-independent"
        );

        // Model workloads flip too, via the per-layer rooflines.
        let net = SweepWorkload::Model(models::resnet18());
        let m_free = eval.metrics(&base, &net, 42).unwrap();
        let m_bound = eval.metrics(&starved, &net, 42).unwrap();
        assert_eq!(m_free.bound, Bound::Compute);
        assert_ne!(m_bound.bound, Bound::Compute);
        assert!(m_bound.delay_us > m_free.delay_us);
    }

    /// An `edge`-corner model report stays internally consistent: layer
    /// bound classes are delay-weighted into the model bound, and bytes
    /// aggregate as sums.
    #[test]
    fn bounded_model_report_aggregates_layer_rooflines() {
        use crate::spec::MemorySpec;
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let spec = EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0)
            .with_memory(MemorySpec::edge());
        let net = models::resnet18();
        let r = eval.model_report(&spec, &net, 7).unwrap();
        let bytes: f64 = r.layers.iter().map(|l| l.cost.bytes_moved).sum();
        assert_eq!(r.totals.bytes_moved.to_bits(), bytes.to_bits());
        for l in r.layers.iter() {
            assert!(l.cost.bytes_moved > 0.0, "{}", l.name);
        }
    }

    /// Sampled serial engines seed from the memory-free label, so every
    /// memory corner samples the same operands as the unbounded one and
    /// the roofline can only add stalls: each finite corner's delay is at
    /// least the unbounded delay, exactly, for layers and whole models.
    #[test]
    fn finite_memory_corners_never_undercut_the_unbounded_delay() {
        use crate::spec::MemorySpec;
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let layers = [
            LayerShape::new("conv", 128, 784, 576, 1),
            LayerShape::new("dw", 1, 784, 9, 96),
            LayerShape::new("fc", 1, 1000, 512, 1),
        ];
        let net = models::resnet18();
        for spec in EngineSpec::paper_roster()
            .into_iter()
            .filter(|s| s.kind == ArchKind::Serial)
        {
            for memory in [MemorySpec::edge(), MemorySpec::mobile(), MemorySpec::hbm()] {
                let bounded = spec.clone().with_memory(memory);
                assert_eq!(bounded.seed_label(), spec.label());
                for layer in &layers {
                    let w = SweepWorkload::Layer(layer.clone());
                    let free = eval.metrics(&spec, &w, 7).unwrap().delay_us;
                    let corner = eval.metrics(&bounded, &w, 7).unwrap().delay_us;
                    assert!(
                        corner >= free,
                        "{} on {}: {corner} < {free}",
                        bounded.label(),
                        layer.name
                    );
                }
                let free = eval.model_report(&spec, &net, 7).unwrap().totals.delay_us;
                let corner = eval
                    .model_report(&bounded, &net, 7)
                    .unwrap()
                    .totals
                    .delay_us;
                assert!(corner >= free, "{}: {corner} < {free}", bounded.label());
            }
        }
    }

    /// The model-report path agrees with the naive per-layer oracle at
    /// the whole-model sampling budget.
    #[test]
    fn model_report_matches_grid_composition() {
        let cache = EngineCache::new();
        let eval = Evaluator::new(&cache);
        let spec = EngineSpec::dense(PeStyle::Opt1, ClassicArch::Tpu, 1.5);
        let net = models::resnet18();
        let caps = crate::MODEL_SAMPLE_CAPS;
        let r = eval.model_report(&spec, &net, 5).unwrap();
        let price = eval.price(&spec).unwrap();
        let seed = 5 ^ fnv1a(&format!("{}/{}", spec.label(), net.name));
        let direct = crate::schedule::evaluate_model_with(&cache, &spec, &price, &net, seed, caps);
        assert_eq!(r, direct);
    }
}
