//! The process-wide concurrent evaluation cache.
//!
//! Every evaluation path — design-space sweeps, model grids, the figure
//! experiments, `repro serve` queries — reduces to memoizable pure
//! computations:
//!
//! 1. **PE synthesis** (+ node scaling), keyed on the cost-relevant
//!    subset of an engine ([`PeKey`]);
//! 2. **assembled engine prices** (support logic, overhead, peak
//!    throughput), keyed on the full engine identity ([`PriceKey`]) as a
//!    derived layer over the synthesis map;
//! 3. **serial workload cycles** (the sampled sync model), keyed on the
//!    cycle-relevant subset plus the exact seed and sampling caps
//!    ([`CycleKey`]);
//! 4. **whole-model records** (the end-to-end aggregates of the
//!    per-layer walk, without its rows), keyed on the engine's
//!    price/cycle-relevant subset plus the model's identity and content
//!    hash, the cell seed and the sampling caps ([`ModelKey`]) — so a
//!    repeated `model` serve op or dse model point collapses to one
//!    lookup instead of an O(layers) rewalk;
//! 5. **whole-model reports** (the records plus their per-layer rows),
//!    under the same [`ModelKey`], filled only by
//!    [`Evaluator::model_report`](crate::Evaluator::model_report): a sweep
//!    over whole networks never holds a row, and a repeated report is
//!    still one lookup.
//!
//! All maps are sharded: each shard is an independent
//! [`RwLock`]`<HashMap>` selected by key hash, so concurrent sweep workers
//! and serve connections contend only when they touch the same shard, and
//! reads (the overwhelming majority once warm) take a shared lock. The
//! five maps share one sharded memo type, which can also bound each shard
//! ([`EngineCache::bounded`]) and evict by second chance (CLOCK): a hit
//! sets the entry's reference bit under the read lock, and a full shard's
//! insert sweeps a hand over the map's slots, clearing the bits of
//! referenced entries, to the first unreferenced one. Entries start
//! referenced, so none is evicted before the hand has passed it once.
//! `repro serve` uses a bounded cache; sweeps and grids do not. A
//! single process-wide instance ([`EngineCache::global`]) replaces the
//! old per-sweep `EvalCache`: a `repro models` grid reuses synthesis the
//! preceding `repro dse` sweep already paid for, and a long-running
//! `repro serve` process converges to all-hit steady state.
//!
//! Each memo owns the counters of its one counted lookup, so
//! `EngineCache` keeps none: [`EngineCache::stats`] reads them, and
//! [`cache_fields`] is the one field list the serve `stats` and `metrics`
//! ops both report.
//!
//! Memoized values are outputs of deterministic functions of their key,
//! so caching can never change results — the byte-identical golden tests
//! in `tpe-bench` pin this.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

use tpe_arith::encode::EncodingKind;
use tpe_arith::Precision;
use tpe_core::arch::{ArchKind, PeStyle};
use tpe_sim::array::ClassicArch;
use tpe_workloads::{LayerShape, NetworkModel};

use crate::caps::{CycleModel, SerialSampleCaps};
use crate::report::{ModelRecord, ModelReport};
use crate::spec::{EnginePrice, EngineSpec};

/// Number of independent lock shards per map. 16 keeps the footprint
/// trivial while making same-shard contention unlikely at realistic
/// worker counts.
const SHARDS: usize = 16;

/// The cost-relevant subset of an engine: everything synthesis sees.
///
/// Frequencies are keyed in integer MHz and feature sizes in integer
/// tenths of a nm so the key is `Eq + Hash` without float edge cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PeKey {
    /// PE microarchitecture.
    pub style: PeStyle,
    /// Dense topology, if any (changes the per-PE reduction logic).
    pub dense: Option<ClassicArch>,
    /// Encoding, when it lives *inside* the PE (OPT3 carries its encoder;
    /// dense multipliers bake in Booth and OPT4's encoders sit out of the
    /// array in support logic, so those styles key as `None`).
    pub in_pe_encoding: Option<EncodingKind>,
    /// Operand/accumulator precision: every datapath width synthesis sees
    /// scales with it, so engines at different precisions never share a
    /// synthesis record.
    pub precision: Precision,
    /// Clock constraint in MHz.
    pub freq_mhz: u32,
    /// Process feature size in tenths of a nm.
    pub node_dnm: u32,
}

/// Canonical representative of an encoding's *in-PE recoder hardware*.
///
/// Several encodings map onto the same physical recoder
/// (`tpe_core::arch::designs::encoder_component`): CSD is priced as the
/// EN-T carry-chained Booth recoder, and both radix-2 bit-serial
/// decompositions need only the same zero-skip unit. Synthesis outcomes
/// for such encodings are identical, so the cache keys them together —
/// only the workload model (digit statistics) distinguishes them, and
/// that is keyed separately ([`CycleKey`] uses the raw encoding).
pub fn canonical_encoding(encoding: EncodingKind) -> EncodingKind {
    match encoding {
        EncodingKind::Csd => EncodingKind::EnT,
        EncodingKind::BitSerialSignMagnitude => EncodingKind::BitSerialComplement,
        other => other,
    }
}

impl PeKey {
    /// Extracts the key from an engine spec: the synthesis subset of its
    /// [`PriceKey`]. The encoding enters the key only for OPT3 (whose
    /// recoder is inside the PE), and then only as its
    /// [`canonical_encoding`] hardware class.
    pub fn of(spec: &EngineSpec) -> Self {
        let engine = PriceKey::of(spec);
        Self {
            style: engine.style,
            dense: engine.dense,
            in_pe_encoding: (engine.style == PeStyle::Opt3)
                .then_some(canonical_encoding(engine.encoding)),
            precision: engine.precision,
            freq_mhz: engine.freq_mhz,
            node_dnm: engine.node_dnm,
        }
    }
}

/// The full identity of a priced *engine* (as opposed to [`PeKey`], the
/// synthesis subset): support logic and peak throughput depend on the raw
/// encoding, so EN-T and CSD share a [`PeKey`] but not a `PriceKey`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PriceKey {
    /// PE microarchitecture.
    pub style: PeStyle,
    /// Dense topology, if any.
    pub dense: Option<ClassicArch>,
    /// Raw multiplicand encoding (prices support encoders and the peak
    /// NumPPs divisor).
    pub encoding: EncodingKind,
    /// Operand/accumulator precision (scales synthesis, support logic and
    /// the effective-NumPPs peak divisor).
    pub precision: Precision,
    /// Clock constraint in MHz.
    pub freq_mhz: u32,
    /// Process feature size in tenths of a nm.
    pub node_dnm: u32,
    /// On-chip SRAM capacity in KiB (0 = unbounded). The price itself is
    /// memory-independent today, but the key carries the full engine
    /// identity so a future memory-priced corner can never alias a
    /// compute-only entry.
    pub sram_kib: u32,
    /// SRAM bandwidth in bytes/cycle (0 = unbounded).
    pub sram_bw: u32,
    /// DRAM bandwidth in bytes/cycle (0 = unbounded).
    pub dram_bw: u32,
}

impl PriceKey {
    /// Extracts the key from an engine spec — the one place an engine's
    /// float corner is turned into integer key fields ([`PeKey::of`] and
    /// [`ModelKey::of`] start from it).
    pub fn of(spec: &EngineSpec) -> Self {
        Self {
            style: spec.style,
            dense: match spec.kind {
                ArchKind::Dense(a) => Some(a),
                ArchKind::Serial => None,
            },
            encoding: spec.encoding,
            precision: spec.precision,
            freq_mhz: (spec.freq_ghz * 1e3).round() as u32,
            node_dnm: (spec.node.nm * 10.0).round() as u32,
            sram_kib: spec.memory.sram_kib,
            sram_bw: spec.memory.sram_bw,
            dram_bw: spec.memory.dram_bw,
        }
    }
}

/// A priced PE at one corner (node scaling already applied).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeRecord {
    /// PE (or PE-group) cell area in µm².
    pub area_um2: f64,
    /// Power at full datapath activity, µW.
    pub active_power_uw: f64,
    /// Clock-gated idle power, µW.
    pub idle_power_uw: f64,
    /// MAC-equivalent lanes the design provides.
    pub lanes: u32,
}

/// The cycle-relevant subset of a (serial engine, layer, seed, caps)
/// evaluation — everything [`sample_serial_cycles`] sees.
///
/// The serial array geometry is a pure function of the PE style, the
/// digit statistics are a pure function of the *raw* encoding (EN-T and
/// CSD price identically but stream different digit counts, so no
/// canonicalization here), and the layer enters by shape only (its name
/// seasons the seed at the caller).
///
/// [`sample_serial_cycles`]: tpe_core::arch::workload::sample_serial_cycles
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CycleKey {
    /// Serial PE style (fixes the bit-slice geometry).
    pub style: PeStyle,
    /// Multiplicand encoding (fixes the digit-count distribution).
    pub encoding: EncodingKind,
    /// Encoded-multiplicand width the digit statistics are drawn at — the
    /// cycle-relevant subset of the precision: a layer-level precision
    /// override (mixed-precision schedules) or the engine's own. `b_bits`
    /// and `acc_bits` never reach the cycle model, so they stay out of the
    /// key.
    pub a_bits: u32,
    /// GEMM rows.
    pub m: usize,
    /// GEMM columns.
    pub n: usize,
    /// Reduction dimension.
    pub k: usize,
    /// Layer repeat count.
    pub repeats: usize,
    /// The exact RNG seed the sampler is driven with.
    pub seed: u64,
    /// Sampled-round cap.
    pub max_rounds: usize,
    /// Sampled-operand budget.
    pub max_operands: usize,
    /// Which cycle backend produced the record. Keeping the mode in the
    /// key lets sampled and analytic results coexist in one cache without
    /// cross-contamination.
    pub model: CycleModel,
}

impl CycleKey {
    /// Builds the key for scheduling `layer` on `spec` with `seed`/`caps`.
    /// The digit width is the layer's precision override when present
    /// (mixed-precision schedules), the engine's precision otherwise.
    ///
    /// Analytic results are a pure function of (engine, layer): the seed
    /// and the numeric sampling budgets are canonicalized to zero in the
    /// key, so every seed/caps combination shares one analytic record —
    /// which is also what makes analytic cold results seed-independent.
    pub fn of(spec: &EngineSpec, layer: &LayerShape, seed: u64, caps: SerialSampleCaps) -> Self {
        let analytic = caps.model == CycleModel::Analytic;
        Self {
            style: spec.style,
            encoding: spec.encoding,
            a_bits: crate::schedule::layer_a_bits(spec, layer),
            m: layer.m,
            n: layer.n,
            k: layer.k,
            repeats: layer.repeats,
            seed: if analytic { 0 } else { seed },
            max_rounds: if analytic { 0 } else { caps.max_rounds },
            max_operands: if analytic { 0 } else { caps.max_operands },
            model: caps.model,
        }
    }
}

/// The memoized outcome of one serial-layer sampling run: the per-column
/// busy vector collapsed to the aggregates every consumer derives from it
/// (bit-identically to the original `SerialCycleStats` expressions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerialLayerRecord {
    /// Total array cycles (sync barriers included).
    pub cycles: f64,
    /// Sum of per-column busy cycles (in column order, as the stats
    /// struct sums them).
    pub busy_sum: f64,
    /// Busy cycles of the fastest column.
    pub busy_min: f64,
    /// Busy cycles of the slowest column.
    pub busy_max: f64,
    /// Sync rounds × output passes (the serial tile count).
    pub rounds: f64,
    /// Columns in the array (the busy vector's length).
    pub columns: u32,
}

impl SerialLayerRecord {
    /// Average busy fraction across columns — identical arithmetic to
    /// `SerialCycleStats::utilization`.
    pub fn utilization(&self) -> f64 {
        self.busy_sum / (self.cycles * f64::from(self.columns))
    }
}

/// The identity of one whole-model evaluation — everything the model
/// walk ([`crate::schedule::evaluate_model_with`]) sees: the engine's
/// full [`PriceKey`] (memory corner included — the roofline changes
/// per-layer delays, so corners must never share a record), the model's
/// name and layer-content hash, the exact cell seed and sampling caps,
/// and the cycle backend.
///
/// Mirroring [`CycleKey`], analytic evaluations canonicalize the seed
/// and the numeric sampling budgets to zero: the closed-form walk is a
/// pure function of (engine, model), so every seed/caps combination
/// shares one analytic record.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// The engine (per-layer precision overrides are content-hashed with
    /// the layers).
    pub engine: PriceKey,
    /// Network name (the identity half of the model axis).
    pub model: String,
    /// The layer list's content hash (the content half), computed once
    /// when the list was built ([`tpe_workloads::LayerList::content_hash`]).
    pub layers_hash: u64,
    /// The exact cell seed the per-layer seeds are derived from
    /// (0 when analytic).
    pub seed: u64,
    /// Sampled-round cap (0 when analytic).
    pub max_rounds: usize,
    /// Sampled-operand budget (0 when analytic).
    pub max_operands: usize,
    /// Which cycle backend produced the record.
    pub cycle_model: CycleModel,
}

impl ModelKey {
    /// Builds the key for evaluating `net` on `spec` with the given cell
    /// `seed` and sampling `caps`.
    pub fn of(spec: &EngineSpec, net: &NetworkModel, seed: u64, caps: SerialSampleCaps) -> Self {
        let analytic = caps.model == CycleModel::Analytic;
        Self {
            engine: PriceKey::of(spec),
            model: net.name.clone(),
            layers_hash: net.layers.content_hash(),
            seed: if analytic { 0 } else { seed },
            max_rounds: if analytic { 0 } else { caps.max_rounds },
            max_operands: if analytic { 0 } else { caps.max_operands },
            cycle_model: caps.model,
        }
    }
}

/// Cache hit/miss counters at one observation point, per lookup family
/// (see [`EngineCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// PE-pricing lookups served from memory.
    pub price_hits: u64,
    /// PE-pricing lookups that ran synthesis.
    pub price_misses: u64,
    /// Workload-cycle lookups served from memory.
    pub cycle_hits: u64,
    /// Workload-cycle lookups that ran the sampler.
    pub cycle_misses: u64,
    /// Accounted pricing lookups, counted independently of the hit/miss
    /// branch. At quiescence `price_lookups == price_hits + price_misses`
    /// — the consistency invariant the serve `stats` op exposes so clients
    /// can detect broken accounting (a counting site added on one side but
    /// not the other).
    pub price_lookups: u64,
    /// Accounted cycle lookups; at quiescence
    /// `cycle_lookups == cycle_hits + cycle_misses`.
    pub cycle_lookups: u64,
    /// Whole-model lookups served from memory.
    pub model_hits: u64,
    /// Whole-model lookups that ran the full per-layer walk.
    pub model_misses: u64,
    /// Accounted whole-model lookups; at quiescence
    /// `model_lookups == model_hits + model_misses`.
    pub model_lookups: u64,
    /// Whole-model report (per-layer rows) lookups served from memory.
    pub report_hits: u64,
    /// Whole-model report lookups that built the rows.
    pub report_misses: u64,
    /// Accounted report lookups; at quiescence
    /// `report_lookups == report_hits + report_misses`.
    pub report_lookups: u64,
}

impl CacheStats {
    /// Every counter under its wire name, in reply order — the one list
    /// the serve `stats` and `metrics` ops render ([`cache_fields`]).
    pub fn counters(&self) -> [(&'static str, u64); 12] {
        [
            ("price_hits", self.price_hits),
            ("price_misses", self.price_misses),
            ("cycle_hits", self.cycle_hits),
            ("cycle_misses", self.cycle_misses),
            ("model_hits", self.model_hits),
            ("model_misses", self.model_misses),
            ("price_lookups", self.price_lookups),
            ("cycle_lookups", self.cycle_lookups),
            ("model_lookups", self.model_lookups),
            ("report_hits", self.report_hits),
            ("report_misses", self.report_misses),
            ("report_lookups", self.report_lookups),
        ]
    }

    /// Total lookups served from memory.
    pub fn hits(&self) -> u64 {
        self.price_hits + self.cycle_hits + self.model_hits + self.report_hits
    }

    /// Total lookups that computed.
    pub fn misses(&self) -> u64 {
        self.price_misses + self.cycle_misses + self.model_misses + self.report_misses
    }

    /// Total accounted lookups across all maps. At quiescence this equals
    /// [`Self::hits`]` + `[`Self::misses`] — each lookup increments its
    /// map's lookup counter and then exactly one of that map's hit/miss
    /// counters.
    pub fn lookups(&self) -> u64 {
        self.price_lookups + self.cycle_lookups + self.model_lookups + self.report_lookups
    }

    /// Fraction of lookups served from memory (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Counter deltas since an earlier snapshot — how a single sweep, grid
    /// or query batch behaved against the shared global cache.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            price_hits: self.price_hits.saturating_sub(earlier.price_hits),
            price_misses: self.price_misses.saturating_sub(earlier.price_misses),
            cycle_hits: self.cycle_hits.saturating_sub(earlier.cycle_hits),
            cycle_misses: self.cycle_misses.saturating_sub(earlier.cycle_misses),
            price_lookups: self.price_lookups.saturating_sub(earlier.price_lookups),
            cycle_lookups: self.cycle_lookups.saturating_sub(earlier.cycle_lookups),
            model_hits: self.model_hits.saturating_sub(earlier.model_hits),
            model_misses: self.model_misses.saturating_sub(earlier.model_misses),
            model_lookups: self.model_lookups.saturating_sub(earlier.model_lookups),
            report_hits: self.report_hits.saturating_sub(earlier.report_hits),
            report_misses: self.report_misses.saturating_sub(earlier.report_misses),
            report_lookups: self.report_lookups.saturating_sub(earlier.report_lookups),
        }
    }
}

/// A plain-data export of every memoized entry across the four persisted
/// maps — the unit of cache persistence ([`crate::snapshot`]) and of bulk
/// warm-start import. The reports map is not exported: its rows are
/// rebuilt from the cycle map by the first report that asks for them.
/// Entry order is unspecified (shard hashing is not stable across
/// processes); the snapshot codec canonicalizes it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheContents {
    /// PE synthesis outcomes (`None` = cannot close timing).
    pub records: Vec<(PeKey, Option<PeRecord>)>,
    /// Assembled engine prices (`None` = infeasible corner).
    pub prices: Vec<(PriceKey, Option<EnginePrice>)>,
    /// Serial-cycle evaluations.
    pub cycles: Vec<(CycleKey, SerialLayerRecord)>,
    /// Whole-model walks.
    pub models: Vec<(ModelKey, ModelRecord)>,
}

impl CacheContents {
    /// Total entries across the four maps.
    pub fn len(&self) -> usize {
        self.records.len() + self.prices.len() + self.cycles.len() + self.models.len()
    }

    /// Whether all four maps are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One memoized value and its CLOCK reference bit (set on insert and by
/// hits on the read-lock path, cleared by the eviction hand).
#[derive(Debug)]
struct Slot<V> {
    value: V,
    referenced: AtomicBool,
}

/// One lock shard of a [`Memo`]: the map plus the CLOCK hand of a
/// bounded memo.
#[derive(Debug)]
struct Shard<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Position of the hand in the map's slot order.
    hand: usize,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    /// Rebuilds the map at the size `capacity` entries need, with the
    /// same hasher, once it cannot take another entry without
    /// reallocating. Evictions leave deleted-slot markers behind that use
    /// up the table's free room; without the rebuild the next insert
    /// would double the table, although a bounded shard never holds more
    /// than `capacity` entries.
    fn compact(&mut self, capacity: usize) {
        if self.map.capacity() <= self.map.len() {
            let hasher = self.map.hasher().clone();
            let old = std::mem::replace(
                &mut self.map,
                HashMap::with_capacity_and_hasher(capacity, hasher),
            );
            self.map.extend(old);
        }
    }

    /// Second-chance (CLOCK) eviction over the map's own slot order — the
    /// clock face — so no second copy of the keys is kept: the hand
    /// sweeps on from where it stopped, clearing the bits of referenced
    /// entries, and removes the first entry whose bit is already clear.
    /// Entries are inserted referenced, so each one survives at least one
    /// pass of the hand, and one hit again since that pass survives the
    /// next. Ends within two revolutions. A new entry takes the slot its
    /// hash picks, wherever that is relative to the hand, and the slot
    /// order follows the map's per-process hash seed, so which entry goes
    /// can differ between runs; the values recomputed after an eviction
    /// cannot.
    fn evict_one(&mut self) {
        loop {
            let victim =
                self.map
                    .iter_mut()
                    .enumerate()
                    .skip(self.hand)
                    .find_map(|(at, (key, slot))| {
                        (!std::mem::take(slot.referenced.get_mut())).then(|| (at, key.clone()))
                    });
            match victim {
                Some((at, key)) => {
                    self.map.remove(&key);
                    // The next entry now holds this position.
                    self.hand = at;
                    return;
                }
                None => self.hand = 0,
            }
        }
    }
}

/// One sharded, counted memo map: `SHARDS` independent `RwLock`ed shards
/// selected by key hash, an optional per-shard entry capacity, and the
/// counters of its one counted lookup ([`Memo::get_or_insert_with`]). A
/// bounded memo evicts by second chance (CLOCK); hits only set a
/// reference bit, so a warm hit never takes the write lock.
#[derive(Debug)]
struct Memo<K, V> {
    shards: [RwLock<Shard<K, V>>; SHARDS],
    /// Entries per shard before eviction (`usize::MAX`: unbounded).
    shard_capacity: usize,
    evictions: AtomicU64,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> Memo<K, V> {
    fn new(shard_capacity: usize) -> Self {
        Self {
            shards: std::array::from_fn(|_| {
                RwLock::new(Shard {
                    map: HashMap::new(),
                    hand: 0,
                })
            }),
            shard_capacity,
            evictions: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn bounded(&self) -> bool {
        self.shard_capacity != usize::MAX
    }

    fn shard(&self, key: &K) -> &RwLock<Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// The memoized value for `key`, marking it referenced.
    fn get(&self, key: &K) -> Option<V> {
        let shard = self.shard(key).read().expect("cache poisoned");
        let slot = shard.map.get(key)?;
        if self.bounded() && !slot.referenced.load(Ordering::Relaxed) {
            slot.referenced.store(true, Ordering::Relaxed);
        }
        Some(slot.value.clone())
    }

    /// The memoized value for `key`, running `compute` on a miss: the one
    /// counted lookup (the lookup, then the hit or the miss). `compute`
    /// runs outside any lock; racing threads may both compute a cold key,
    /// and the first insert wins ([`Self::insert`]).
    fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(value) = self.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return value;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.insert(key, compute())
    }

    /// Inserts `value` unless `key` is already present (first insert
    /// wins; values are deterministic, so the winner is identical) and
    /// returns the stored value. A full bounded shard evicts one entry.
    fn insert(&self, key: K, value: V) -> V {
        let mut shard = self.shard(&key).write().expect("cache poisoned");
        if let Some(slot) = shard.map.get(&key) {
            return slot.value.clone();
        }
        if shard.map.len() >= self.shard_capacity {
            shard.evict_one();
            shard.compact(self.shard_capacity);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let slot = Slot {
            value: value.clone(),
            referenced: AtomicBool::new(true),
        };
        shard.map.insert(key, slot);
        value
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache poisoned").map.len())
            .sum()
    }

    /// Inserts every entry, uncounted (first insert wins).
    fn import(&self, entries: Vec<(K, V)>) {
        for (key, value) in entries {
            self.insert(key, value);
        }
    }

    fn export(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().expect("cache poisoned");
            out.extend(shard.map.iter().map(|(k, s)| (k.clone(), s.value.clone())));
        }
        out
    }

    fn occupancy(&self) -> MapOccupancy {
        MapOccupancy {
            entries: self.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Entries held and evictions made by one memo map.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapOccupancy {
    /// Entries currently memoized.
    pub entries: usize,
    /// Entries evicted to make room since the cache was built (always 0
    /// for an unbounded cache).
    pub evictions: u64,
}

/// The cache's `(name, value)` reply fields, one list for both serve
/// ops: every counter of `now`; every counter of a `stats` polling
/// `window` as `since_*`; then each map's entries (plus the older
/// `priced`/`cycle`/`model` aliases of the records, cycles and models
/// counts) and evictions, from [`EngineCache::occupancy`]. The
/// `*_entries` fields are levels; all others are counts.
pub fn cache_fields(
    now: &CacheStats,
    window: Option<&CacheStats>,
    occupancy: [(&'static str, MapOccupancy); 5],
) -> Vec<(String, u64)> {
    let mut fields: Vec<(String, u64)> = now
        .counters()
        .map(|(name, v)| (name.to_string(), v))
        .to_vec();
    if let Some(window) = window {
        fields.extend(
            window
                .counters()
                .map(|(name, v)| (format!("since_{name}"), v)),
        );
    }
    let [(_, records), _, (_, cycles), (_, models), _] = occupancy;
    for (alias, o) in [("priced", records), ("cycle", cycles), ("model", models)] {
        fields.push((format!("{alias}_entries"), o.entries as u64));
    }
    for (map, o) in occupancy {
        fields.push((format!("{map}_entries"), o.entries as u64));
        fields.push((format!("{map}_evictions"), o.evictions));
    }
    fields
}

/// Sharded concurrent memoization of pricing and cycle outcomes.
///
/// `None` pricing values record corners where the design cannot close
/// timing, so infeasibility is cached too.
///
/// [`EngineCache::new`] (and [`EngineCache::global`]) never evict: a
/// sweep or grid holds every entry it computed. A long-running server
/// builds its cache with [`EngineCache::bounded`], so clients sending
/// ever-new requests cannot grow it without limit; an evicted entry is
/// recomputed bit-identically on its next lookup.
#[derive(Debug)]
pub struct EngineCache {
    records: Memo<PeKey, Option<PeRecord>>,
    prices: Memo<PriceKey, Option<EnginePrice>>,
    cycles: Memo<CycleKey, SerialLayerRecord>,
    models: Memo<ModelKey, ModelRecord>,
    /// Whole reports, rows included; `None` = the engine cannot close
    /// timing.
    reports: Memo<ModelKey, Option<ModelReport>>,
    /// Counter levels at the last [`Self::window_delta`] call — the
    /// observation window the serve `stats` op reports per-window rates
    /// over.
    last_window: Mutex<CacheStats>,
}

impl Default for EngineCache {
    fn default() -> Self {
        Self::with_shard_capacity(usize::MAX)
    }
}

impl EngineCache {
    /// An empty, isolated, unbounded cache (tests and honest cold-timing
    /// runs).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most about `entries_per_map` entries in
    /// each of its five maps: the capacity is split evenly over the
    /// shards (at least one entry each), and a full shard evicts by
    /// second chance.
    pub fn bounded(entries_per_map: usize) -> Self {
        Self::with_shard_capacity((entries_per_map / SHARDS).max(1))
    }

    fn with_shard_capacity(shard_capacity: usize) -> Self {
        Self {
            records: Memo::new(shard_capacity),
            prices: Memo::new(shard_capacity),
            cycles: Memo::new(shard_capacity),
            models: Memo::new(shard_capacity),
            reports: Memo::new(shard_capacity),
            last_window: Mutex::new(CacheStats::default()),
        }
    }

    /// The most entries any one map can hold (`None`: unbounded).
    pub fn capacity_per_map(&self) -> Option<usize> {
        self.records
            .bounded()
            .then(|| self.records.shard_capacity * SHARDS)
    }

    /// The process-wide instance every default evaluation path shares.
    pub fn global() -> &'static EngineCache {
        static GLOBAL: OnceLock<EngineCache> = OnceLock::new();
        GLOBAL.get_or_init(EngineCache::new)
    }

    /// Returns the pricing record for `key`, running `price` on a miss.
    ///
    /// The computation runs outside any lock; when two threads race on the
    /// same cold key both may price, and the first insert wins — pricing
    /// is deterministic, so the outcome is identical either way and
    /// readers never block on synthesis.
    pub fn pe_record(
        &self,
        key: PeKey,
        price: impl FnOnce() -> Option<PeRecord>,
    ) -> Option<PeRecord> {
        self.records.get_or_insert_with(key, price)
    }

    /// Returns the assembled engine price for `key`, running `assemble` on
    /// a miss.
    ///
    /// A derived layer over [`Self::pe_record`]: a miss's `assemble`
    /// consults `pe_record` exactly once, which accounts the miss (see
    /// [`Self::stats`]).
    pub fn engine_price(
        &self,
        key: PriceKey,
        assemble: impl FnOnce() -> Option<EnginePrice>,
    ) -> Option<EnginePrice> {
        self.prices.get_or_insert_with(key, assemble)
    }

    /// Returns the serial-cycle record for `key`, running `sample` on a
    /// miss.
    pub fn serial_record(
        &self,
        key: CycleKey,
        sample: impl FnOnce() -> SerialLayerRecord,
    ) -> SerialLayerRecord {
        self.cycles.get_or_insert_with(key, sample)
    }

    /// Returns the whole-model record for `key`, running `assemble` (the
    /// full per-layer walk) on a miss; the returned record is a cheap
    /// clone (an `Arc` bump and plain copies).
    ///
    /// Accounting note: a miss's `assemble` closure consults the price
    /// and cycle maps internally — those lookups keep counting in their
    /// own families, so on a model-map *hit* the per-layer cycle counters
    /// no longer move at all (the whole point of the map).
    pub fn model_record(
        &self,
        key: ModelKey,
        assemble: impl FnOnce() -> ModelRecord,
    ) -> ModelRecord {
        self.models.get_or_insert_with(key, assemble)
    }

    /// Returns the whole-model report for `key`, rows included, running
    /// `assemble` on a miss (`None`: the engine cannot close timing).
    /// A hit is `Arc` bumps and plain copies; a miss's lookups count in
    /// their own families, as for [`Self::model_record`].
    pub fn model_report(
        &self,
        key: ModelKey,
        assemble: impl FnOnce() -> Option<ModelReport>,
    ) -> Option<ModelReport> {
        self.reports.get_or_insert_with(key, assemble)
    }

    /// Counters at this instant, read from the memos. The price family
    /// reads as if only the synthesis map existed: a price-map hit is one
    /// price lookup and hit, and a price-map miss is accounted by the one
    /// synthesis lookup its assembly makes.
    pub fn stats(&self) -> CacheStats {
        let n = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let (records, prices) = (&self.records, &self.prices);
        CacheStats {
            price_hits: n(&records.hits) + n(&prices.hits),
            price_misses: n(&records.misses),
            price_lookups: n(&records.lookups) + n(&prices.hits),
            cycle_hits: n(&self.cycles.hits),
            cycle_misses: n(&self.cycles.misses),
            cycle_lookups: n(&self.cycles.lookups),
            model_hits: n(&self.models.hits),
            model_misses: n(&self.models.misses),
            model_lookups: n(&self.models.lookups),
            report_hits: n(&self.reports.hits),
            report_misses: n(&self.reports.misses),
            report_lookups: n(&self.reports.lookups),
        }
    }

    /// Counter deltas since the previous `window_delta` call (the full
    /// totals on the first), then resets the window — so a long-running
    /// server polling this sees per-window rates rather than
    /// ever-growing totals. The window is advanced under a mutex, so
    /// concurrent pollers each get a disjoint slice of the counters.
    pub fn window_delta(&self) -> CacheStats {
        let mut last = self.last_window.lock().expect("cache window poisoned");
        let now = self.stats();
        let delta = now.since(&last);
        *last = now;
        delta
    }

    /// Copies every memoized entry out of the four persisted maps (not
    /// the reports, see [`CacheContents`]). Only memoized *values* are
    /// exported — hit/miss counters describe this process's
    /// history, not the cache contents, so they stay behind.
    pub fn export(&self) -> CacheContents {
        CacheContents {
            records: self.records.export(),
            prices: self.prices.export(),
            cycles: self.cycles.export(),
            models: self.models.export(),
        }
    }

    /// Bulk-inserts exported entries (a warm-start import). First insert
    /// wins, exactly like the per-lookup race discipline — a concurrently
    /// computed value is identical by determinism, so imports can never
    /// change results. Counters are untouched: imported entries surface
    /// as *hits* on their first lookup, which is what makes a
    /// warm-from-snapshot replay read ≈100% hit rate. A bounded cache
    /// keeps at most its capacity, evicting as lookups would.
    pub fn import(&self, contents: CacheContents) {
        self.records.import(contents.records);
        self.prices.import(contents.prices);
        self.cycles.import(contents.cycles);
        self.models.import(contents.models);
    }

    /// Number of distinct PE/corner pairs priced.
    pub fn priced_len(&self) -> usize {
        self.records.len()
    }

    /// Number of distinct serial-cycle evaluations memoized.
    pub fn cycles_len(&self) -> usize {
        self.cycles.len()
    }

    /// Number of distinct whole-model records memoized.
    pub fn models_len(&self) -> usize {
        self.models.len()
    }

    /// Number of whole-model reports (with their rows) memoized.
    pub fn reports_len(&self) -> usize {
        self.reports.len()
    }

    /// Entries held and evictions made by each map, under its metric
    /// name: `records`, `prices`, `cycles`, `models`, `reports`, in that
    /// order.
    pub fn occupancy(&self) -> [(&'static str, MapOccupancy); 5] {
        [
            ("records", self.records.occupancy()),
            ("prices", self.prices.occupancy()),
            ("cycles", self.cycles.occupancy()),
            ("models", self.models.occupancy()),
            ("reports", self.reports.occupancy()),
        ]
    }

    /// Total entries across the four persisted maps: what a snapshot
    /// carries ([`Self::export`]).
    pub fn entry_count(&self) -> usize {
        self.occupancy()[..4].iter().map(|(_, o)| o.entries).sum()
    }

    /// Whether nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.entry_count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(freq_mhz: u32) -> PeKey {
        PeKey {
            style: PeStyle::Opt1,
            dense: Some(ClassicArch::Tpu),
            in_pe_encoding: None,
            precision: Precision::W8,
            freq_mhz,
            node_dnm: 280,
        }
    }

    fn record() -> PeRecord {
        PeRecord {
            area_um2: 1.0,
            active_power_uw: 2.0,
            idle_power_uw: 0.1,
            lanes: 1,
        }
    }

    #[test]
    fn second_lookup_hits() {
        let cache = EngineCache::new();
        let mut priced = 0;
        for _ in 0..3 {
            cache.pe_record(key(1500), || {
                priced += 1;
                Some(record())
            });
        }
        assert_eq!(priced, 1);
        let stats = cache.stats();
        assert_eq!((stats.price_hits, stats.price_misses), (2, 1));
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cache.priced_len(), 1);
        assert_eq!(stats.lookups(), stats.hits() + stats.misses());
    }

    #[test]
    fn infeasible_outcomes_are_cached() {
        let cache = EngineCache::new();
        assert_eq!(cache.pe_record(key(9000), || None), None);
        assert_eq!(
            cache.pe_record(key(9000), || panic!("must not re-price")),
            None
        );
        assert_eq!(cache.stats().price_hits, 1);
    }

    #[test]
    fn distinct_corners_miss() {
        let cache = EngineCache::new();
        cache.pe_record(key(1000), || None);
        cache.pe_record(key(1500), || None);
        assert_eq!(cache.stats().price_misses, 2);
        assert_eq!(cache.priced_len(), 2);
    }

    #[test]
    fn cycle_records_memoize_and_key_on_raw_encoding() {
        let cache = EngineCache::new();
        let spec = EngineSpec::serial(PeStyle::Opt3, EncodingKind::EnT, 2.0);
        let layer = LayerShape::new("t", 8, 8, 64, 1);
        let k = CycleKey::of(&spec, &layer, 7, crate::caps::SampleProfile::Quick.caps());
        let rec = SerialLayerRecord {
            cycles: 10.0,
            busy_sum: 9.0,
            busy_min: 0.2,
            busy_max: 0.9,
            rounds: 1.0,
            columns: 32,
        };
        assert_eq!(cache.serial_record(k, || rec), rec);
        assert_eq!(cache.serial_record(k, || panic!("must hit")), rec);
        // CSD prices like EN-T but streams different digits: the cycle key
        // must distinguish what the price key canonicalizes together.
        let csd = EngineSpec::serial(PeStyle::Opt3, EncodingKind::Csd, 2.0);
        let kc = CycleKey::of(&csd, &layer, 7, crate::caps::SampleProfile::Quick.caps());
        assert_ne!(k, kc);
        assert_eq!(
            canonical_encoding(EncodingKind::Csd),
            canonical_encoding(EncodingKind::EnT)
        );
        let stats = cache.stats();
        assert_eq!((stats.cycle_hits, stats.cycle_misses), (1, 1));
        assert_eq!(cache.cycles_len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn stats_deltas_subtract_fieldwise() {
        let cache = EngineCache::new();
        cache.pe_record(key(1000), || Some(record()));
        let before = cache.stats();
        cache.pe_record(key(1000), || unreachable!());
        cache.pe_record(key(2000), || None);
        let delta = cache.stats().since(&before);
        assert_eq!((delta.price_hits, delta.price_misses), (1, 1));
        assert_eq!(delta.hits() + delta.misses(), 2);
        assert_eq!(delta.lookups(), 2, "deltas keep the lookup invariant");
    }

    #[test]
    fn window_delta_advances_and_resets() {
        let cache = EngineCache::new();
        cache.pe_record(key(1000), || Some(record()));
        cache.pe_record(key(1000), || unreachable!());
        let w1 = cache.window_delta();
        assert_eq!((w1.price_hits, w1.price_misses), (1, 1));
        let w2 = cache.window_delta();
        assert_eq!(w2, CacheStats::default(), "nothing between polls");
        cache.pe_record(key(1000), || unreachable!());
        let w3 = cache.window_delta();
        assert_eq!((w3.price_hits, w3.price_misses), (1, 0));
        assert_eq!(w3.lookups(), 1, "window keeps the lookup invariant");
    }

    /// The derived price layer keeps the accounting invariant: every
    /// `engine_price` call lands exactly one accounted lookup and one
    /// hit-or-miss, whether it hits its own map, delegates to `pe_record`,
    /// or finds the synthesis already cached under a sibling price key.
    #[test]
    fn lookup_counters_match_hits_plus_misses_through_the_derived_layer() {
        let cache = EngineCache::new();
        let price_key = |f| crate::cache::PriceKey {
            style: PeStyle::Opt1,
            dense: Some(ClassicArch::Tpu),
            encoding: EncodingKind::Mbe,
            precision: Precision::W8,
            freq_mhz: f,
            node_dnm: 280,
            sram_kib: 0,
            sram_bw: 0,
            dram_bw: 0,
        };
        let assemble = |cache: &EngineCache, f| {
            cache.pe_record(key(f), || Some(record()));
            None
        };
        cache.engine_price(price_key(1000), || assemble(&cache, 1000)); // cold
        cache.engine_price(price_key(1000), || unreachable!()); // price hit
        cache.engine_price(price_key(1500), || assemble(&cache, 1500)); // cold again
        cache.serial_record(
            CycleKey::of(
                &EngineSpec::serial(PeStyle::Opt3, EncodingKind::EnT, 2.0),
                &LayerShape::new("t", 8, 8, 64, 1),
                7,
                crate::caps::SampleProfile::Quick.caps(),
            ),
            || SerialLayerRecord {
                cycles: 1.0,
                busy_sum: 1.0,
                busy_min: 1.0,
                busy_max: 1.0,
                rounds: 1.0,
                columns: 1,
            },
        );
        let stats = cache.stats();
        assert_eq!(stats.lookups(), stats.hits() + stats.misses());
        assert_eq!(stats.price_lookups, stats.price_hits + stats.price_misses);
        assert_eq!(stats.cycle_lookups, stats.cycle_hits + stats.cycle_misses);
    }

    fn model_fixture() -> ModelRecord {
        ModelRecord {
            model: "toy".into(),
            total_macs: 64,
            cycles: 10.0,
            delay_us: 0.005,
            energy_uj: 0.25,
            utilization: 0.5,
            area_um2: 1.0e6,
            peak_tops: 2.0,
            bytes_moved: 192.0,
            intensity_ops_per_byte: 2.0 * 64.0 / 192.0,
            bound: crate::spec::Bound::Compute,
            busy_sum: 9.0,
        }
    }

    #[test]
    fn model_records_memoize_and_keep_the_lookup_invariant() {
        let cache = EngineCache::new();
        let spec = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0);
        let net = tpe_workloads::models::resnet18();
        let caps = crate::caps::SampleProfile::Model.caps();
        let k = ModelKey::of(&spec, &net, 42, caps);
        let rec = model_fixture();
        let before = cache.stats();
        assert_eq!(cache.model_record(k.clone(), || rec.clone()), rec);
        assert_eq!(cache.model_record(k.clone(), || panic!("must hit")), rec);
        let stats = cache.stats();
        assert_eq!((stats.model_hits, stats.model_misses), (1, 1));
        assert_eq!(stats.model_lookups, stats.model_hits + stats.model_misses);
        assert_eq!(stats.lookups(), stats.hits() + stats.misses());
        assert_eq!(cache.models_len(), 1);
        assert_eq!(cache.entry_count(), 1, "entry_count covers the model map");
        let delta = stats.since(&before);
        assert_eq!((delta.model_hits, delta.model_misses), (1, 1));
        assert_eq!(delta.lookups(), 2, "deltas carry the model family");
    }

    /// The key must separate identity from content: a layer edit under the
    /// same network name misses, while analytic caps canonicalize the seed
    /// and budgets so every analytic query shares one entry.
    #[test]
    fn model_keys_hash_content_and_canonicalize_analytic_seeds() {
        let spec = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0);
        let net = tpe_workloads::models::resnet18();
        let caps = crate::caps::SampleProfile::Model.caps();
        let k = ModelKey::of(&spec, &net, 42, caps);
        // A layer list has no in-place mutator: an edit builds a new list.
        let edit = |f: fn(&mut LayerShape)| {
            let mut layers = net.layers.to_vec();
            f(&mut layers[0]);
            NetworkModel {
                layers: layers.into(),
                ..net.clone()
            }
        };
        let edited = edit(|l| l.k += 1);
        assert_ne!(k, ModelKey::of(&spec, &edited, 42, caps));
        let requantized = edit(|l| l.precision = Some(Precision::W4));
        assert_ne!(k, ModelKey::of(&spec, &requantized, 42, caps));
        assert_ne!(k, ModelKey::of(&spec, &net, 43, caps), "sampled seeds key");
        let analytic = SerialSampleCaps {
            model: CycleModel::Analytic,
            ..caps
        };
        assert_eq!(
            ModelKey::of(&spec, &net, 1, analytic),
            ModelKey::of(&spec, &net, 2, analytic),
            "analytic mode is seed-free"
        );
    }

    /// Memory corners are part of the price and model identities: the
    /// roofline changes per-layer delays, so an `edge` evaluation must
    /// never alias the unbounded one (PeKey and CycleKey stay
    /// memory-free — synthesis and sampling never see the corner).
    #[test]
    fn memory_corner_is_part_of_price_and_model_keys() {
        let spec = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0);
        let edge = spec.clone().with_memory(crate::spec::MemorySpec::edge());
        assert_ne!(PriceKey::of(&spec), PriceKey::of(&edge));
        let net = tpe_workloads::models::resnet18();
        let caps = crate::caps::SampleProfile::Model.caps();
        assert_ne!(
            ModelKey::of(&spec, &net, 42, caps),
            ModelKey::of(&edge, &net, 42, caps)
        );
        let layer = LayerShape::new("t", 8, 8, 64, 1);
        assert_eq!(PeKey::of(&spec), PeKey::of(&edge));
        assert_eq!(
            CycleKey::of(&spec, &layer, 7, caps),
            CycleKey::of(&edge, &layer, 7, caps),
            "the cycle model is memory-independent"
        );
    }

    #[test]
    fn model_records_survive_export_import() {
        let cache = EngineCache::new();
        let spec = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0);
        let net = tpe_workloads::models::resnet18();
        let k = ModelKey::of(&spec, &net, 42, crate::caps::SampleProfile::Model.caps());
        let rec = model_fixture();
        cache.model_record(k.clone(), || rec.clone());
        let contents = cache.export();
        assert_eq!(contents.models.len(), 1);
        let fresh = EngineCache::new();
        fresh.import(contents);
        assert_eq!(fresh.models_len(), 1);
        assert_eq!(fresh.model_record(k, || panic!("import must hit")), rec);
    }

    /// The first `n` keys that share key 0's shard.
    fn same_shard(memo: &Memo<u64, u64>, n: usize) -> Vec<u64> {
        let home = memo.shard(&0) as *const _;
        let same = (0..).filter(|k| std::ptr::eq(memo.shard(k), home));
        same.take(n).collect()
    }

    /// Second chance: entries start referenced, so the first eviction
    /// from a full shard sweeps a whole revolution, clearing every bit,
    /// before it evicts exactly one. After that, an insert evicts the
    /// entry no hit referenced since the hand passed it, and spares the
    /// fresh and the re-referenced ones.
    #[test]
    fn bounded_memo_evicts_unreferenced_entries_first() {
        let memo: Memo<u64, u64> = Memo::new(4);
        let same = same_shard(&memo, 6);
        let present = |k: &u64| memo.shard(k).read().unwrap().map.contains_key(k);
        for &k in &same[..4] {
            assert_eq!(memo.insert(k, k * 10), k * 10);
        }
        memo.insert(same[4], 0);
        let survivors: Vec<u64> = same[..4].iter().copied().filter(present).collect();
        assert_eq!(survivors.len(), 3, "exactly one entry goes");
        assert!(present(&same[4]), "a fresh entry survives its insert");
        for k in &survivors[..2] {
            assert_eq!(memo.get(k), Some(k * 10));
        }
        memo.insert(same[5], 0);
        assert!(!present(&survivors[2]), "the unreferenced entry goes first");
        assert!([survivors[0], survivors[1], same[4], same[5]]
            .iter()
            .all(present));
        assert_eq!(memo.len(), 4);
        assert_eq!(memo.occupancy().evictions, 2);
        // First insert still wins on a present key.
        assert_eq!(memo.insert(survivors[0], 99), survivors[0] * 10);
        assert_eq!(memo.get(&survivors[0]), Some(survivors[0] * 10));
    }

    /// At two entries per shard, a stream of keys never asked for again
    /// passes through: each key is gone three inserts later, whatever hash
    /// slots the keys take. (A hand that restarts at the lowest slot and
    /// skips fresh entries' sweep would keep the key in the highest
    /// occupied slot forever.)
    #[test]
    fn bounded_memo_at_two_entries_per_shard_evicts_every_stale_key() {
        let memo: Memo<u64, u64> = Memo::new(2);
        let same = same_shard(&memo, 48);
        let present = |k: &u64| memo.shard(k).read().unwrap().map.contains_key(k);
        for (i, &k) in same.iter().enumerate() {
            memo.insert(k, k);
            assert!(present(&k));
            assert!(memo.len() <= 2);
            if i >= 3 {
                assert!(!present(&same[i - 3]), "key {i}-3 outlived three inserts");
            }
        }
        assert_eq!(memo.occupancy().evictions, 46);
    }

    /// Eviction churn never grows a full shard's table past the size its
    /// capacity needs, so a bounded memo's memory stays flat.
    #[test]
    fn bounded_memo_tables_keep_their_size_under_churn() {
        let memo: Memo<u64, u64> = Memo::new(256);
        let fresh = HashMap::<u64, Slot<u64>>::with_capacity(256).capacity();
        for k in same_shard(&memo, 4096) {
            memo.insert(k, k);
            let shard = memo.shard(&k).read().unwrap();
            assert!(shard.map.len() <= 256);
            assert!(shard.map.capacity() <= fresh, "the table grew");
        }
    }

    /// A bounded cache holds at most its capacity per map, counts its
    /// evictions, and keeps no more than that of an import either; the
    /// default cache never evicts.
    #[test]
    fn bounded_cache_caps_every_map_and_default_never_evicts() {
        let bounded = EngineCache::bounded(32);
        assert_eq!(bounded.capacity_per_map(), Some(32));
        assert_eq!(EngineCache::new().capacity_per_map(), None);
        let unbounded = EngineCache::new();
        for f in 0..200 {
            bounded.pe_record(key(f), || Some(record()));
            unbounded.pe_record(key(f), || Some(record()));
            assert!(bounded.priced_len() <= 32);
        }
        let [(_, occ), ..] = bounded.occupancy();
        assert!(occ.evictions >= 200 - 32);
        assert_eq!(occ.evictions as usize + occ.entries, 200);
        assert_eq!(unbounded.occupancy()[0].1.evictions, 0);
        assert_eq!(unbounded.priced_len(), 200);
        let imported = EngineCache::bounded(32);
        imported.import(unbounded.export());
        assert!(imported.priced_len() <= 32);
        // An evicted key recomputes on its next lookup.
        let evicted = (0..200)
            .find(|&f| bounded.records.get(&key(f)).is_none())
            .unwrap();
        let mut priced = false;
        bounded.pe_record(key(evicted), || {
            priced = true;
            Some(record())
        });
        assert!(priced);
    }

    /// The canonical map must mirror the hardware: encodings keyed together
    /// synthesize to bit-identical OPT3 PE reports (CSD prices as the EN-T
    /// recoder; both bit-serial kinds price as the zero-skip unit), while
    /// MBE's plain Booth recoder stays distinct.
    #[test]
    fn canonical_encodings_share_identical_recoder_hardware() {
        for (a, b) in [
            (EncodingKind::Csd, EncodingKind::EnT),
            (
                EncodingKind::BitSerialSignMagnitude,
                EncodingKind::BitSerialComplement,
            ),
        ] {
            assert_eq!(canonical_encoding(a), canonical_encoding(b));
            let ra = PeStyle::Opt3
                .design_with_encoding(a)
                .synthesize(2.0)
                .unwrap();
            let rb = PeStyle::Opt3
                .design_with_encoding(b)
                .synthesize(2.0)
                .unwrap();
            assert_eq!(ra.area_um2.to_bits(), rb.area_um2.to_bits());
            assert_eq!(
                ra.busy_power_uw().to_bits(),
                rb.busy_power_uw().to_bits(),
                "{a:?}/{b:?} must price identically to share a cache entry"
            );
        }
        assert_ne!(
            canonical_encoding(EncodingKind::Mbe),
            canonical_encoding(EncodingKind::EnT)
        );
    }

    /// The per-lookup walk every `ModelKey` used to run: the slow oracle
    /// for the hash a layer list computes once, when it is built.
    fn model_content_hash(net: &NetworkModel) -> u64 {
        let mut h = crate::Fnv1a::default();
        h.write_u64(net.layers.len() as u64);
        for layer in net.layers.iter() {
            h.write(layer.name.as_bytes());
            h.write(&[0]);
            for dim in [layer.m, layer.n, layer.k, layer.repeats] {
                h.write_u64(dim as u64);
            }
            match layer.precision {
                None => h.write(&[0]),
                Some(p) => {
                    h.write(&[1]);
                    for bits in [p.a_bits, p.b_bits, p.acc_bits] {
                        h.write_u64(u64::from(bits));
                    }
                }
            }
        }
        h.finish()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The stored hash equals the streaming walk on random lists:
        /// empty and non-ASCII names, preset and free-form precision
        /// overrides, 0 to 80 layers.
        #[test]
        fn layer_list_hash_equals_the_walk(
            shapes in proptest::collection::vec(
                (
                    proptest::collection::vec(0usize..8, 0..6),
                    1usize..1 << 20,
                    1usize..1 << 20,
                    1usize..1 << 20,
                    1usize..4,
                    0u8..6,
                    (2u32..17, 2u32..17, 0u32..8),
                ),
                0..81,
            ),
        ) {
            const CHARS: [char; 8] = ['a', 'Z', '0', '-', 'é', 'λ', '日', '🙂'];
            let layers: Vec<LayerShape> = shapes
                .iter()
                .map(|(name, m, n, k, r, p, (a, b, extra))| {
                    let name: String = name.iter().map(|&c| CHARS[c]).collect();
                    let l = LayerShape::new(name, *m, *n, *k, *r);
                    match p {
                        1 => l.with_precision(Precision::W4),
                        2 => l.with_precision(Precision::W8),
                        3 => l.with_precision(Precision::W16),
                        4 => l.with_precision(Precision::new(*a, *b, a + b + extra)),
                        _ => l,
                    }
                })
                .collect();
            let net = NetworkModel { name: "prop".into(), layers: layers.into() };
            proptest::prop_assert_eq!(net.layers.content_hash(), model_content_hash(&net));
        }
    }
}
