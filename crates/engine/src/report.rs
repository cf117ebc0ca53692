//! Per-layer and end-to-end model reports: the model scheduler's output
//! schema.
//!
//! A [`ModelRecord`] is the model-level analogue of a sweep
//! [`Metrics`](crate::eval::Metrics) row — the quantities Figures 12–13
//! compare across networks: end-to-end latency, sustained throughput,
//! energy, TOPS/W and delay-weighted utilization. A [`ModelReport`] adds
//! the per-layer rows. Aggregates are pure sums/weighted means of those
//! rows (property-tested in `tpe-dse`'s suite), folded by one function
//! ([`ModelRecord::fold`]) whether the rows are kept (a report) or not (a
//! record's model walk), so layer and model views can never drift apart.

use std::sync::Arc;

use crate::spec::{Bound, EnginePrice, EngineSpec};

/// One layer's costed outcome on one engine, without its name: what a
/// model walk folds into its record. It is `Copy`, so costing a layer
/// allocates nothing; only a report names its rows ([`LayerReport`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCost {
    /// Useful multiply–accumulates.
    pub macs: u64,
    /// Scheduling granularity: dense img2col tiles or serial sync rounds.
    pub tiles: f64,
    /// Array cycles.
    pub cycles: f64,
    /// Wall-clock (µs).
    pub delay_us: f64,
    /// Lane utilization (busy fraction for serial, MAC occupancy for dense).
    pub utilization: f64,
    /// Energy (µJ).
    pub energy_uj: f64,
    /// Bytes moved across the memory boundary (see
    /// [`LayerTraffic`](crate::schedule::LayerTraffic)).
    pub bytes_moved: f64,
    /// Arithmetic intensity: ops per byte moved (2 ops per MAC).
    pub intensity_ops_per_byte: f64,
    /// The binding roofline resource for this layer.
    pub bound: Bound,
    /// Busy cycles summed over the serial array's columns (0 for dense
    /// engines, which never pool busy cycles).
    pub busy_sum: f64,
}

/// One layer's scheduled outcome on one engine: its label and its cost.
///
/// The label is `Arc`-backed so a report served from the cache shares
/// the rows instead of re-cloning every name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer label (the figure x-axis names).
    pub name: Arc<str>,
    /// The layer's costed outcome.
    pub cost: LayerCost,
}

/// The end-to-end aggregates of one model on one engine: everything a
/// [`ModelReport`] holds except the engine and the per-layer rows. It is
/// what the cache's model map memoizes, what a whole-network design point
/// projects and what the serve `model` op renders; only a report keeps
/// the rows it was summed from.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRecord {
    /// Network name (Figure 12/13 labels).
    pub model: Arc<str>,
    /// Total useful MACs.
    pub total_macs: u64,
    /// Total array cycles (sum over layers).
    pub cycles: f64,
    /// End-to-end latency (µs, sum over layers).
    pub delay_us: f64,
    /// Total energy (µJ, sum over layers).
    pub energy_uj: f64,
    /// Delay-weighted average utilization.
    pub utilization: f64,
    /// Total array area (µm²), from the engine price.
    pub area_um2: f64,
    /// Peak throughput (TOPS), from the engine price.
    pub peak_tops: f64,
    /// Total bytes moved (sum over layers).
    pub bytes_moved: f64,
    /// Whole-model arithmetic intensity: `2·total_macs / bytes_moved`.
    pub intensity_ops_per_byte: f64,
    /// The dominant roofline bound: the bound class holding the largest
    /// share of end-to-end delay (ties prefer compute, then SRAM).
    pub bound: Bound,
    /// Busy cycles pooled across layers (in layer order) — what an
    /// unbounded-corner dse model point divides by `cycles × MP` for its
    /// busy fraction.
    pub busy_sum: f64,
}

impl ModelRecord {
    /// Sums per-layer rows into the end-to-end aggregates ([`Self::fold`]
    /// over their costs). The model label accepts anything
    /// `Arc<str>`-able, so callers with a shared name pass it without
    /// re-allocating.
    pub fn aggregate(
        model: impl Into<Arc<str>>,
        price: &EnginePrice,
        layers: &[LayerReport],
    ) -> Self {
        Self::fold(model, price, layers.iter().map(|l| l.cost))
    }

    /// Folds per-layer costs, in layer order, into the end-to-end record:
    /// the one accumulation behind every model record, with or without
    /// rows kept. Each sum starts from −0.0 and adds in order, exactly as
    /// `Iterator::sum` over `f64` does. The bound is the class holding the
    /// largest share of end-to-end delay; ties resolve in
    /// `Compute > Sram > Dram` order, so an all-compute model (the
    /// `Unbounded` corner, always) reads as compute-bound even when empty.
    pub fn fold(
        model: impl Into<Arc<str>>,
        price: &EnginePrice,
        costs: impl IntoIterator<Item = LayerCost>,
    ) -> Self {
        let (mut total_macs, mut bound_delay) = (0u64, [0.0_f64; 3]);
        let [mut cycles, mut delay_us, mut energy_uj] = [-0.0_f64; 3];
        let [mut util_weighted, mut bytes_moved, mut busy_sum] = [-0.0_f64; 3];
        for c in costs {
            total_macs += c.macs;
            cycles += c.cycles;
            delay_us += c.delay_us;
            energy_uj += c.energy_uj;
            util_weighted += c.utilization * c.delay_us;
            bytes_moved += c.bytes_moved;
            busy_sum += c.busy_sum;
            bound_delay[c.bound as usize] += c.delay_us;
        }
        let mut bound = Bound::Compute;
        for b in [Bound::Sram, Bound::Dram] {
            if bound_delay[b as usize] > bound_delay[bound as usize] {
                bound = b;
            }
        }
        Self {
            model: model.into(),
            total_macs,
            cycles,
            delay_us,
            energy_uj,
            utilization: if delay_us > 0.0 {
                util_weighted / delay_us
            } else {
                0.0
            },
            area_um2: price.area_um2,
            peak_tops: price.peak_tops,
            bytes_moved,
            intensity_ops_per_byte: if bytes_moved > 0.0 {
                2.0 * total_macs as f64 / bytes_moved
            } else {
                0.0
            },
            bound,
            busy_sum,
        }
    }

    /// Sustained throughput over the whole model (GOPS, 2 ops per MAC).
    /// Zero for a degenerate empty model (no layers, no delay).
    pub fn throughput_gops(&self) -> f64 {
        if self.delay_us > 0.0 {
            2.0 * self.total_macs as f64 / self.delay_us / 1e3
        } else {
            0.0
        }
    }

    /// Average power over the run (W). Zero for a degenerate empty model.
    pub fn power_w(&self) -> f64 {
        if self.delay_us > 0.0 {
            self.energy_uj / self.delay_us
        } else {
            0.0
        }
    }

    /// Sustained energy efficiency (TOPS/W). Zero for a degenerate empty
    /// model.
    pub fn tops_per_w(&self) -> f64 {
        let power = self.power_w();
        if power > 0.0 {
            self.throughput_gops() / 1e3 / power
        } else {
            0.0
        }
    }
}

/// End-to-end evaluation of one model on one engine: its aggregates and
/// the per-layer rows they sum.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelReport {
    /// The engine evaluated.
    pub engine: EngineSpec,
    /// Per-layer breakdown, in execution order (shared slice: warm cache
    /// hits hand out refcount bumps, not row clones).
    pub layers: Arc<[LayerReport]>,
    /// The end-to-end aggregates over `layers`.
    pub totals: ModelRecord,
}

impl ModelReport {
    /// Builds the report from per-layer rows ([`ModelRecord::aggregate`]
    /// sums them). `engine` is borrowed (its clone is allocation-free —
    /// every field is scalar or `&'static`).
    pub fn aggregate(
        model: impl Into<Arc<str>>,
        engine: &EngineSpec,
        price: &EnginePrice,
        layers: Vec<LayerReport>,
    ) -> Self {
        Self {
            totals: ModelRecord::aggregate(model, price, &layers),
            engine: engine.clone(),
            layers: layers.into(),
        }
    }

    /// Layer count.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpe_core::arch::PeStyle;
    use tpe_sim::array::ClassicArch;

    fn layer(name: &str, macs: u64, cycles: f64, util: f64, energy: f64) -> LayerReport {
        LayerReport {
            name: name.into(),
            cost: LayerCost {
                macs,
                tiles: 1.0,
                cycles,
                delay_us: cycles / 1e3,
                utilization: util,
                energy_uj: energy,
                bytes_moved: macs as f64,
                intensity_ops_per_byte: 2.0,
                bound: Bound::Compute,
                busy_sum: 0.0,
            },
        }
    }

    fn price() -> EnginePrice {
        EnginePrice {
            area_um2: 100.0,
            e_active_fj: 2.0,
            e_idle_fj: 0.1,
            instances: 4.0,
            lanes_total: 4.0,
            peak_tops: 1.0,
        }
    }

    #[test]
    fn aggregate_sums_and_weights() {
        let engine = EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0);
        let r = ModelReport::aggregate(
            "toy",
            &engine,
            &price(),
            vec![
                layer("a", 1000, 100.0, 1.0, 3.0),
                layer("b", 500, 300.0, 0.5, 1.0),
            ],
        );
        assert_eq!(r.layer_count(), 2);
        let t = &r.totals;
        assert_eq!(t.total_macs, 1500);
        assert_eq!(t.cycles, 400.0);
        assert_eq!(t.energy_uj, 4.0);
        // Delay-weighted: (1.0·0.1 + 0.5·0.3) / 0.4 = 0.625.
        assert!((t.utilization - 0.625).abs() < 1e-12);
        assert!((t.throughput_gops() - 2.0 * 1500.0 / 0.4 / 1e3).abs() < 1e-9);
        assert!((t.power_w() - 4.0 / 0.4).abs() < 1e-12);
        assert!(t.tops_per_w() > 0.0);
        assert_eq!(t.bytes_moved, 1500.0, "bytes sum over layers");
        assert!((t.intensity_ops_per_byte - 2.0).abs() < 1e-12);
        assert_eq!(t.bound, Bound::Compute);
    }

    #[test]
    fn dominant_bound_is_delay_weighted_with_compute_preference() {
        let engine = EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 1.0);
        let mut rows = vec![
            layer("a", 10, 100.0, 1.0, 1.0),
            layer("b", 10, 300.0, 1.0, 1.0),
            layer("c", 10, 100.0, 1.0, 1.0),
        ];
        rows[1].cost.bound = Bound::Dram;
        let r = ModelRecord::aggregate("toy", &price(), &rows);
        assert_eq!(r.bound, Bound::Dram, "300 of 500 delay units are DRAM");
        rows[1].cost.bound = Bound::Compute;
        rows[2].cost.bound = Bound::Sram;
        let r = ModelRecord::aggregate("toy", &price(), &rows);
        assert_eq!(r.bound, Bound::Compute);
        // Exact tie: compute wins over sram.
        rows[1].cost.delay_us = 0.0;
        let r = ModelRecord::aggregate("toy", &price(), &rows);
        assert_eq!(r.bound, Bound::Compute);
        // Degenerate empty model.
        let empty = ModelReport::aggregate("empty", &engine, &price(), vec![]);
        assert_eq!(empty.totals.bound, Bound::Compute);
        assert_eq!(empty.totals.intensity_ops_per_byte, 0.0);
    }
}
