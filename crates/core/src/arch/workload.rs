//! Workload-level evaluation: per-layer delay / utilization / energy for
//! the Figure 11–13 comparisons (OPT4E vs an equal-area parallel-MAC TPE).
//!
//! ## Layer mapping model
//!
//! The serial array maps the *multiplicand* operand — weights for linear /
//! conv layers, the cached K/V matrices for attention — across its MP
//! columns: each sync round assigns one multiplicand row (or a batch of
//! small-K rows, so a round always covers ≥ [`KT_MIN_OPERANDS`] operands)
//! to every column. A column's round time is the total number of non-zero
//! EN-T digits in its rows; the `sync` barrier waits for the slowest
//! column (Eq. 7), and §VI's broadcast argument makes all lanes within a
//! column finish together. Utilization is therefore governed by the
//! digit-count variance across rows — high for K = 9 depthwise layers,
//! negligible for K ≥ 768 transformer layers — reproducing Figure 11's
//! texture.
//!
//! This is a statistical layer model; the bit-exact engine for full GEMMs
//! is [`tpe_sim::BitsliceArray`], validated separately.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use super::designs::PeStyle;
use super::{ArchKind, ArchModel};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use tpe_arith::encode::Encoder;
use tpe_sim::array::{DenseArray, SystolicArray};
use tpe_sim::BitsliceConfig;
use tpe_workloads::LayerShape;

/// Minimum operands per synchronization round: small-K rows (depthwise
/// kernels) are batched until a round covers at least this many operands,
/// matching the paper's `Tsync ≤ KT × KP` granularity.
pub const KT_MIN_OPERANDS: usize = 32;

/// Operand count per sync round above which [`analytic_serial_cycles`]
/// hands the exact digit-sum convolution over to the CLT tail
/// approximation. Batching guarantees ≥ [`KT_MIN_OPERANDS`] operands per
/// round, so the exact path only ever convolves 32..=64 operands; beyond
/// that the Berry–Esseen bound on the normalized digit-sum CDF error
/// (≈ `0.47·ρ/(σ³√n)` < 0.4% at n = 64 for every supported encoder ×
/// width) is far below the sampler's own Monte-Carlo noise.
pub const CONV_CROSSOVER_OPERANDS: usize = 64;

/// Which backend evaluates the statistical serial-cycle model.
///
/// Both produce [`SerialCycleStats`] for the same layer mapping; they
/// differ only in how the per-round column maximum of digit sums is
/// obtained. `Sampled` is the original Monte-Carlo path and serves as the
/// test oracle; `Analytic` evaluates the same distribution in closed form
/// (exact convolution, CLT above [`CONV_CROSSOVER_OPERANDS`]) and is both
/// seed-independent and orders of magnitude faster on cold evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CycleModel {
    /// Monte-Carlo digit sampling ([`sample_serial_cycles`]) — the oracle.
    #[default]
    Sampled,
    /// Closed-form convolution/CLT evaluation ([`analytic_serial_cycles`]).
    Analytic,
}

impl CycleModel {
    /// Every mode, in display order.
    pub const ALL: [CycleModel; 2] = [CycleModel::Sampled, CycleModel::Analytic];

    /// Stable lower-case label (`"sampled"` / `"analytic"`), used by CLI
    /// flags, serve requests, and cache-key displays.
    pub const fn name(self) -> &'static str {
        match self {
            CycleModel::Sampled => "sampled",
            CycleModel::Analytic => "analytic",
        }
    }

    /// Parses a case-insensitive mode label.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "sampled" => Some(CycleModel::Sampled),
            "analytic" => Some(CycleModel::Analytic),
            _ => None,
        }
    }
}

/// Sampling caps for the statistical serial-layer model. Rounds are
/// i.i.d., so capping keeps the estimate unbiased; totals are rescaled.
/// The defaults suit single experiments; `tpe-dse` sweeps hundreds of
/// points and passes tighter caps.
///
/// The caps also carry the [`CycleModel`]: the analytic backend ignores
/// the numeric budgets (it evaluates the full distribution), but keeping
/// the mode here lets every existing caps-threading path — profiles,
/// grids, serve requests — select the backend without new plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SerialSampleCaps {
    /// Cap on sampled sync rounds per layer.
    pub max_rounds: usize,
    /// Budget of sampled operands per layer.
    pub max_operands: usize,
    /// Which backend evaluates the serial-cycle statistics.
    pub model: CycleModel,
}

impl Default for SerialSampleCaps {
    fn default() -> Self {
        Self {
            max_rounds: 128,
            max_operands: 1_500_000,
            model: CycleModel::Sampled,
        }
    }
}

/// Digit-count statistics of one (encoder, width): the Gaussian-weighted
/// histogram, its normalized pmf and moments, and the table-driven
/// sampler built from its CDF.
#[derive(Debug)]
struct DigitStats {
    /// Unnormalized `P(NumPPs = j)` weights, `j` in `0..=a_bits`.
    probs: Vec<f64>,
    /// Sum of `probs`.
    total: f64,
    /// Normalized pmf `probs / total` — the analytic path's per-operand
    /// digit-count distribution.
    pmf: Vec<f64>,
    /// Mean and variance of `pmf` ([`pmf_moments`]).
    moments: (f64, f64),
    /// Inverse-CDF sampler over `probs / total`.
    sampler: DigitSampler,
}

impl DigitStats {
    /// Gaussian-weighted digit-count statistics of `encoder` on max-abs-
    /// quantized N(0, 1) data at `a_bits` operand width (index range
    /// `0..=a_bits` — radix-2 bit-serial produces one digit per bit, the
    /// worst case). The single source of truth for the sampler, the
    /// effective-NumPPs statistic and the analytic pmf; it costs a full
    /// range enumeration (2^16 encodes at W16).
    fn of(encoder: &dyn Encoder, a_bits: u32) -> Self {
        let max = (1i64 << (a_bits - 1)) - 1;
        // The INT8 pipeline's effective scale: 127 / (max|z| ≈ 4.2σ) = 30,
        // so σ = max · 30 / 127 (exactly 30.0 at the default 8-bit width).
        let sigma_int = max as f64 * 30.0 / 127.0;
        let max_digits = a_bits as usize;
        let mut probs = vec![0f64; max_digits + 1];
        let mut total = 0f64;
        for v in -max..=max {
            let w = (-0.5 * (v as f64 / sigma_int).powi(2)).exp();
            let n = encoder.num_pps(v, a_bits).min(max_digits);
            probs[n] += w;
            total += w;
        }
        let pmf: Vec<f64> = probs.iter().map(|w| w / total).collect();
        let moments = pmf_moments(&pmf);
        let sampler = DigitSampler::from_cdf(&cdf_of(&pmf));
        Self {
            probs,
            total,
            pmf,
            moments,
            sampler,
        }
    }
}

/// The serial-cycle model's derived constants, each computed on first use
/// under its table's lock: digit-count statistics per (encoder name,
/// width), the normal-max constant per column count, and exact-convolution
/// round maxima per (encoder, width, 32..=[`CONV_CROSSOVER_OPERANDS`]
/// operands per round, column count). Every key domain is finite, and the
/// values are pure functions of their keys, so a fresh instance recomputes
/// them bit-identically.
#[derive(Debug, Default)]
pub struct SerialTables {
    digits: Table<(&'static str, u32), Arc<DigitStats>>,
    /// [`std_normal_max_mean`] per column count.
    normal_max: Table<usize, f64>,
    /// `E[round max]` of the exact-convolution branch of
    /// [`analytic_serial_cycles`] — the one part of the analytic path whose
    /// cost is worth skipping. The point-mass and CLT branches are a few
    /// flops over the stored moments, so they store nothing.
    exact_rounds: Table<(&'static str, u32, usize, usize), f64>,
}

/// One of [`SerialTables`]' maps.
type Table<K, V> = Mutex<HashMap<K, V>>;

impl SerialTables {
    /// Whether no table has been filled yet (every fill starts by
    /// reading a digit table).
    pub fn is_empty(&self) -> bool {
        self.digits.lock().expect("tables poisoned").is_empty()
    }

    /// The [`DigitStats`] of (`encoder`, `a_bits`).
    fn digit_stats(&self, encoder: &dyn Encoder, a_bits: u32) -> Arc<DigitStats> {
        let mut digits = self.digits.lock().expect("tables poisoned");
        Arc::clone(
            digits
                .entry((encoder.name(), a_bits))
                .or_insert_with(|| Arc::new(DigitStats::of(encoder, a_bits))),
        )
    }
}

/// Cumulative table of a pmf: its running sums, with the last entry
/// pinned to exactly 1.0 so every uniform draw lands.
fn cdf_of(pmf: &[f64]) -> Vec<f64> {
    let mut cdf = vec![0f64; pmf.len()];
    let mut acc = 0.0;
    for (i, p) in pmf.iter().enumerate() {
        acc += p;
        cdf[i] = acc;
    }
    *cdf.last_mut().expect("non-empty cdf") = 1.0;
    cdf
}

/// log2 of the guide table's bucket count.
const GUIDE_BITS: u32 = 10;

/// Bits of a uniform draw: the 53-bit mantissa `rng.random::<f64>()` uses.
const DRAW_BITS: u32 = 53;

/// Table-driven inverse-CDF sampler for the per-operand digit count.
///
/// The float form draws `u = (w >> 11) · 2⁻⁵³` from a 64-bit word `w` and
/// walks the CDF while `cdf[n] < u`. With `y = w >> 11` and integer
/// thresholds `T[j] = ⌊cdf[j] · 2⁵³⌋`, `cdf[j] < y · 2⁻⁵³ ⇔ T[j] < y`
/// exactly (scaling by a power of two is exact, and `x < y ⇔ ⌊x⌋ < y` for
/// integer `y`), so the integer walk returns the same count for every
/// word. A 2¹⁰-bucket guide table indexed by the top bits of `y` starts
/// the walk at the answer for the bucket's lowest word; the count is
/// non-decreasing in `y`, so the walk only steps forward, and only in the
/// few buckets a threshold falls inside.
#[derive(Debug)]
struct DigitSampler {
    /// `T[j] = ⌊cdf[j] · 2⁵³⌋`; the last is 2⁵³, above every `y`.
    thresholds: Box<[u64]>,
    /// Digit count drawn for the lowest `y` of each bucket.
    guide: Box<[u8; 1 << GUIDE_BITS]>,
}

impl DigitSampler {
    fn from_cdf(cdf: &[f64]) -> Self {
        let scale = (1u64 << DRAW_BITS) as f64;
        let thresholds: Box<[u64]> = cdf.iter().map(|&c| (c * scale).floor() as u64).collect();
        let mut guide = Box::new([0u8; 1 << GUIDE_BITS]);
        for (bucket, g) in guide.iter_mut().enumerate() {
            let y = (bucket as u64) << (DRAW_BITS - GUIDE_BITS);
            let n = thresholds
                .iter()
                .position(|&t| t >= y)
                .expect("the last threshold is 2^53");
            *g = u8::try_from(n).expect("digit counts fit a byte");
        }
        Self { thresholds, guide }
    }

    /// The digit count the random word `word` draws.
    #[inline]
    fn draw(&self, word: u64) -> u64 {
        let y = word >> (64 - DRAW_BITS);
        let mut n = usize::from(self.guide[(y >> (DRAW_BITS - GUIDE_BITS)) as usize]);
        while self.thresholds[n] < y {
            n += 1;
        }
        n as u64
    }
}

/// Expected digits per operand of `encoder` on quantized-normal INT8 data
/// — the divisor in a serial design's peak-throughput accounting (Table
/// III's effective NumPPs, generalized to any encoder).
pub fn effective_numpps(encoder: &dyn Encoder) -> f64 {
    effective_numpps_at(&SerialTables::default(), encoder, 8)
}

/// [`effective_numpps`] at an arbitrary operand width: the precision
/// axis's serial cost law (digit slots scale with `a_bits`, so expected
/// digits — and serial cycles/MAC — grow roughly linearly with width).
pub fn effective_numpps_at(tables: &SerialTables, encoder: &dyn Encoder, a_bits: u32) -> f64 {
    let stats = tables.digit_stats(encoder, a_bits);
    stats
        .probs
        .iter()
        .enumerate()
        .map(|(n, w)| n as f64 * w)
        .sum::<f64>()
        / stats.total
}

/// Result of running one layer on one architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerResult {
    /// Layer label.
    pub name: String,
    /// Wall-clock delay in microseconds.
    pub delay_us: f64,
    /// Average column-PE utilization (busy fraction).
    pub utilization: f64,
    /// Busy fraction of the fastest column.
    pub busy_min: f64,
    /// Busy fraction of the slowest column.
    pub busy_max: f64,
    /// Energy in microjoules.
    pub energy_uj: f64,
}

/// Runs a layer on a serial (bit-slice) architecture with synthetic
/// normally-distributed INT8 multiplicands.
///
/// # Panics
///
/// Panics if the architecture is not serial or cannot close timing.
pub fn serial_layer(arch: &ArchModel, layer: &LayerShape, seed: u64) -> LayerResult {
    assert!(
        matches!(arch.kind, ArchKind::Serial),
        "serial architectures only"
    );
    let cfg = arch.bitslice_config();
    let pe = arch.pe_design().synthesize(arch.freq_ghz).expect("timing");
    let encoder = cfg.encoding.encoder();

    let stats = sample_serial_cycles(
        &SerialTables::default(),
        &cfg,
        encoder.as_ref(),
        8,
        layer,
        seed,
        SerialSampleCaps::default(),
    );
    let (cycles, busy) = (stats.cycles, stats.busy);

    let delay_us = cycles / (arch.freq_ghz * 1e3);
    let busy_total: f64 = busy.iter().sum();
    let utilization = busy_total / (cycles * cfg.mp as f64);

    // Energy: busy columns switch their NP PE instances; idle (waiting)
    // columns are clock-gated (§VI: early finishers "enter an idle state,
    // saving power").
    let pes_per_column = cfg.np as f64;
    let e_busy_fj = pe.busy_power_uw() / arch.freq_ghz; // per PE instance-cycle
    let e_idle_fj = pe.idle_power_uw() / arch.freq_ghz;
    let idle_total = cycles * cfg.mp as f64 - busy_total;
    let energy_uj = (busy_total * e_busy_fj + idle_total * e_idle_fj) * pes_per_column * 1e-9;

    let busy_max = busy.iter().cloned().fold(0.0, f64::max);
    let busy_min = busy.iter().cloned().fold(f64::INFINITY, f64::min);
    LayerResult {
        name: layer.name.clone(),
        delay_us,
        utilization,
        busy_min: busy_min / cycles,
        busy_max: busy_max / cycles,
        energy_uj,
    }
}

/// Sampled cycle/busy statistics of a serial layer (already rescaled to
/// the full layer).
#[derive(Debug, Clone, PartialEq)]
pub struct SerialCycleStats {
    /// Total array cycles (sync barriers included).
    pub cycles: f64,
    /// Busy cycles per column.
    pub busy: Vec<f64>,
    /// Scheduling granularity: total sync rounds × output passes the layer
    /// maps to (the serial analogue of a dense array's tile count; always
    /// the full-layer figure, independent of sampling caps).
    pub rounds: f64,
}

impl SerialCycleStats {
    /// Average busy fraction across columns.
    pub fn utilization(&self) -> f64 {
        self.busy.iter().sum::<f64>() / (self.cycles * self.busy.len() as f64)
    }
}

/// The statistical serial-layer model shared by [`serial_layer`] and the
/// `tpe-dse` sweep: maps the layer onto `cfg`'s columns, samples per-column
/// digit sums round by round from the categorical digit-count distribution
/// of quantized-normal `a_bits`-wide operands under `encoder`, and applies
/// the `sync` barrier (the slowest column bounds each round, Eq. 7).
///
/// `a_bits` is the encoded-multiplicand width — the precision axis's only
/// input to the cycle model: a serial PE streams one digit per cycle, so
/// wider operands (more digit slots at near-constant digit sparsity) cost
/// proportionally more cycles while the array geometry stays fixed.
pub fn sample_serial_cycles(
    tables: &SerialTables,
    cfg: &BitsliceConfig,
    encoder: &dyn Encoder,
    a_bits: u32,
    layer: &LayerShape,
    seed: u64,
    caps: SerialSampleCaps,
) -> SerialCycleStats {
    let stats = tables.digit_stats(encoder, a_bits);
    sample_serial_cycles_with(cfg, layer, seed, caps, |rng| {
        stats.sampler.draw(rng.next_u64())
    })
}

/// The sampling loop of [`sample_serial_cycles`], generic over how one
/// operand's digit count is drawn from the RNG (the table-driven sampler
/// in production, the float CDF walk as the test oracle).
fn sample_serial_cycles_with(
    cfg: &BitsliceConfig,
    layer: &LayerShape,
    seed: u64,
    caps: SerialSampleCaps,
    draw: impl Fn(&mut StdRng) -> u64,
) -> SerialCycleStats {
    // Multiplicand matrix: the operand that gets encoded. Weights for
    // conv/linear layers (rows = output features), cached K/V rows for
    // attention. Heuristic: the larger non-reduction dim indexes it.
    let rows_total = layer.m.max(layer.n) * layer.repeats;
    let streamed = layer.m.min(layer.n);
    let passes = streamed.div_ceil(cfg.n_per_pass()).max(1) as f64;

    // Rows per column per sync round (batch tiny-K rows).
    let rows_per_round = KT_MIN_OPERANDS.div_ceil(layer.k).max(1);
    let rounds = rows_total.div_ceil(cfg.mp * rows_per_round).max(1);
    let ops_per_round = rows_per_round * layer.k;
    let budget_rounds = (caps.max_operands / (cfg.mp * ops_per_round)).max(1);
    let sampled = rounds.min(caps.max_rounds).min(budget_rounds);
    let scale = rounds as f64 / sampled as f64;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut busy = vec![0f64; cfg.mp];
    let mut cycles = 0f64;
    for _ in 0..sampled {
        let mut round_max = 0f64;
        for b in busy.iter_mut() {
            let mut t = 0u64;
            for _ in 0..ops_per_round {
                t += draw(&mut rng);
            }
            *b += t as f64;
            round_max = round_max.max(t as f64);
        }
        cycles += round_max;
    }
    cycles *= scale * passes;
    for b in busy.iter_mut() {
        *b *= scale * passes;
    }
    SerialCycleStats {
        cycles,
        busy,
        rounds: rounds as f64 * passes,
    }
}

/// Mean and variance of a small non-negative integer pmf indexed by value.
fn pmf_moments(pmf: &[f64]) -> (f64, f64) {
    let mean: f64 = pmf.iter().enumerate().map(|(v, p)| v as f64 * p).sum();
    let var: f64 = pmf
        .iter()
        .enumerate()
        .map(|(v, p)| (v as f64 - mean).powi(2) * p)
        .sum();
    (mean, var.max(0.0))
}

/// Exact pmf of the sum of `n` i.i.d. draws from `pmf`, by iterative
/// convolution. Cost is `O(n² · d²)` for digit-slot support `d ≤ 17`,
/// which at the crossover bound (`n ≤ 64`) stays ~10⁵ multiply-adds —
/// cheaper than a single sampled round at typical caps.
fn convolve_digit_sum(pmf: &[f64], n: usize) -> Vec<f64> {
    let mut acc = pmf.to_vec();
    for _ in 1..n {
        let mut next = vec![0.0; acc.len() + pmf.len() - 1];
        for (i, &a) in acc.iter().enumerate() {
            // Skipping sub-1e-15 mass prunes the Gaussian tails the sum
            // concentrates away from; the total mass lost stays below
            // n·d·1e-15 ≈ 1e-11 — far under every pinned tolerance, and
            // point masses (the exactness tests) are never truncated.
            if a < 1e-15 {
                continue;
            }
            for (j, &p) in pmf.iter().enumerate() {
                next[i + j] += a * p;
            }
        }
        acc = next;
    }
    acc
}

/// `E[max of mp i.i.d. draws]` from an integer-valued pmf indexed by
/// value, via the tail identity `E[max] = Σ_{t≥1} (1 − F(t−1)^mp)`.
fn expected_max_of_iid(pmf: &[f64], mp: usize) -> f64 {
    let mut cdf = 0.0;
    let mut e = 0.0;
    for &p in &pmf[..pmf.len().saturating_sub(1)] {
        cdf += p;
        e += 1.0 - cdf.clamp(0.0, 1.0).powi(mp as i32);
    }
    e
}

/// `E[max of mp i.i.d. standard normals]`, by trapezoidal integration of
/// `∫ z · mp · φ(z) · Φ(z)^{mp−1} dz` over `z ∈ [−8, 8]`, accumulating
/// `Φ` incrementally (std has no `erf`). The constant depends only on the
/// column count, not on encoder, width, or layer; [`SerialTables`] keeps
/// it per `mp`.
fn std_normal_max_mean(mp: usize) -> f64 {
    if mp <= 1 {
        return 0.0;
    }
    const Z: f64 = 8.0;
    const STEPS: usize = 4_000;
    let h = 2.0 * Z / STEPS as f64;
    let phi = |z: f64| (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let m = mp as f64;
    let mut z = -Z;
    let mut pdf = phi(z);
    let mut cdf = 0.0; // Φ(−8) ≈ 6e−16: below the integration error
    let mut integrand = 0.0; // z·m·φ(z)·Φ^{m−1}, zero at the left edge
    let mut acc = 0.0;
    for _ in 0..STEPS {
        let z2 = z + h;
        let pdf2 = phi(z2);
        let cdf2 = (cdf + 0.5 * h * (pdf + pdf2)).min(1.0);
        let integrand2 = z2 * m * pdf2 * cdf2.powi(mp as i32 - 1);
        acc += 0.5 * h * (integrand + integrand2);
        z = z2;
        pdf = pdf2;
        cdf = cdf2;
        integrand = integrand2;
    }
    acc
}

/// Closed-form counterpart of [`sample_serial_cycles`]: the same layer
/// mapping (rows per round, tiny-K batching, output passes), but the
/// per-round sync time — the max over `cfg.mp` columns of the sum of
/// `ops_per_round` i.i.d. digit counts — is evaluated from the digit-count
/// distribution directly instead of being Monte-Carlo sampled.
///
/// For `ops_per_round ≤` [`CONV_CROSSOVER_OPERANDS`] the column digit-sum
/// pmf is convolved exactly and `E[max]` read off the tail identity; above
/// the crossover the sum is CLT-normal to well under the sampler's noise
/// floor, so `E[max] ≈ n·μ + σ·√n · E[max of mp standard normals]`.
/// Degenerate (deterministic) digit distributions short-circuit to the
/// exact value on either path, making analytic == sampled bit-exact there.
///
/// The result is independent of seeds and sampling caps: all rounds are
/// i.i.d., so expectation over one round scales to the full layer without
/// subsampling. Busy time per column is `n·μ` per round — every column
/// sums the same number of operand draws in expectation.
pub fn analytic_serial_cycles(
    tables: &SerialTables,
    cfg: &BitsliceConfig,
    encoder: &dyn Encoder,
    a_bits: u32,
    layer: &LayerShape,
) -> SerialCycleStats {
    // Identical mapping arithmetic to the sampler (kept in lockstep by the
    // oracle property tests).
    let rows_total = layer.m.max(layer.n) * layer.repeats;
    let streamed = layer.m.min(layer.n);
    let passes = streamed.div_ceil(cfg.n_per_pass()).max(1) as f64;
    let rows_per_round = KT_MIN_OPERANDS.div_ceil(layer.k).max(1);
    let rounds = rows_total.div_ceil(cfg.mp * rows_per_round).max(1);
    let ops_per_round = rows_per_round * layer.k;

    // The expected max over `mp` columns of the sum of `ops_per_round`
    // i.i.d. digit counts: the layer only enters through `ops_per_round`.
    let stats = tables.digit_stats(encoder, a_bits);
    let (mean, var) = stats.moments;
    let n = ops_per_round as f64;
    let round_max = if var <= 0.0 {
        // Point mass: every column finishes in exactly n·mean.
        n * mean
    } else if ops_per_round <= CONV_CROSSOVER_OPERANDS {
        let mut exact = tables.exact_rounds.lock().expect("tables poisoned");
        *exact
            .entry((encoder.name(), a_bits, ops_per_round, cfg.mp))
            .or_insert_with(|| {
                expected_max_of_iid(&convolve_digit_sum(&stats.pmf, ops_per_round), cfg.mp)
            })
    } else {
        let mut normal_max = tables.normal_max.lock().expect("tables poisoned");
        let c = *normal_max
            .entry(cfg.mp)
            .or_insert_with(|| std_normal_max_mean(cfg.mp));
        n * mean + (n * var).sqrt() * c
    };

    let scale = rounds as f64 * passes;
    let busy_per_column = n * mean * scale;
    SerialCycleStats {
        cycles: round_max * scale,
        busy: vec![busy_per_column; cfg.mp],
        rounds: rounds as f64 * passes,
    }
}

/// Evaluates the serial-cycle statistics with the backend selected by
/// `caps.model`: the Monte-Carlo oracle or the closed-form path. This is
/// the single dispatch point the engine's cached evaluation goes through.
pub fn serial_cycle_stats(
    tables: &SerialTables,
    cfg: &BitsliceConfig,
    encoder: &dyn Encoder,
    a_bits: u32,
    layer: &LayerShape,
    seed: u64,
    caps: SerialSampleCaps,
) -> SerialCycleStats {
    match caps.model {
        CycleModel::Sampled => {
            sample_serial_cycles(tables, cfg, encoder, a_bits, layer, seed, caps)
        }
        CycleModel::Analytic => analytic_serial_cycles(tables, cfg, encoder, a_bits, layer),
    }
}

/// Runs a layer on a dense parallel-MAC systolic array (the Figure 11
/// baseline), with `lane_scale` extra lanes for area equalization
/// (`lane_scale = 1.0` means the plain 32×32 array).
pub fn dense_layer(layer: &LayerShape, freq_ghz: f64, lane_scale: f64) -> LayerResult {
    let arr = SystolicArray::new(32, 32);
    // Weight-load stalls are included (the paper's Fig. 11 MAC-baseline
    // delay magnitudes imply a load-stalled systolic sweep; decode GEMVs
    // re-stream every weight tile per token, so loads cannot amortize).
    // `SystolicArray::estimate_cycles_pipelined` models the double-buffered
    // alternative for sensitivity studies.
    let cycles = arr.estimate_cycles(layer.m, layer.n, layer.k) as f64 * layer.repeats as f64
        / lane_scale.max(1e-9);
    let delay_us = cycles / (freq_ghz * 1e3);
    let pe = PeStyle::TraditionalMac
        .design()
        .synthesize(freq_ghz)
        .expect("MAC timing");
    let e_cycle_fj = pe.busy_power_uw() / freq_ghz;
    // Dense arrays clock every PE every cycle, useful or not.
    let energy_uj = cycles * 1024.0 * lane_scale * e_cycle_fj * 1e-9;
    let useful = layer.macs() as f64;
    let utilization = (useful / (cycles * 1024.0 * lane_scale)).min(1.0);
    LayerResult {
        name: layer.name.clone(),
        delay_us,
        utilization,
        busy_min: utilization,
        busy_max: utilization,
        energy_uj,
    }
}

/// Area-equalization factor: how many MAC-array lanes fit in the target
/// architecture's silicon (Figure 11/12 compare "a systolic array and the
/// OPT4E architecture of the same area").
pub fn equal_area_lane_scale(target: &ArchModel) -> f64 {
    let target_row = super::ArrayModel::new(target.clone()).table7_row();
    let mac = ArchModel::table7_baselines().remove(0);
    let mac_row = super::ArrayModel::new(mac).table7_row();
    target_row.area_um2 / mac_row.area_um2
}

/// Average serial cycles per MAC when the encoded operand stream contains
/// a `zero_frac` fraction of exact zeros (ReLU activations) — the §VI
/// operand-selection lever: "prioritizing operands with high sparsity
/// enhances acceleration". Zero operands are skipped entirely by the
/// prefetcher (0 cycles).
pub fn cycles_per_mac_with_zeros(arch: &ArchModel, zero_frac: f64, seed: u64) -> f64 {
    let cfg = arch.bitslice_config();
    let stats = DigitStats::of(cfg.encoding.encoder().as_ref(), 8);
    zero_skip_cycles_per_mac_with(zero_frac, seed, |rng| stats.sampler.draw(rng.next_u64()))
}

/// The sampling loop of [`cycles_per_mac_with_zeros`], generic over the
/// digit-count draw like [`sample_serial_cycles_with`].
fn zero_skip_cycles_per_mac_with(
    zero_frac: f64,
    seed: u64,
    draw: impl Fn(&mut StdRng) -> u64,
) -> f64 {
    assert!((0.0..=1.0).contains(&zero_frac));
    let mut rng = StdRng::seed_from_u64(seed);
    let samples = 200_000usize;
    let mut total = 0u64;
    for _ in 0..samples {
        if rng.random::<f64>() < zero_frac {
            continue; // prefetcher skips the all-zero operand
        }
        total += draw(&mut rng);
    }
    total as f64 / samples as f64
}

/// Network-level summary for Figures 12–13.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkResult {
    /// Network name.
    pub name: String,
    /// Speedup of the serial architecture over the equal-area MAC array.
    pub speedup: f64,
    /// Energy ratio (serial / MAC) — below 1.0 means savings.
    pub energy_ratio: f64,
    /// Average serial-array utilization across layers (weighted by delay).
    pub utilization: f64,
}

/// Evaluates a whole network on `arch` vs the equal-area dense baseline.
pub fn evaluate_network(
    arch: &ArchModel,
    net: &tpe_workloads::NetworkModel,
    seed: u64,
) -> NetworkResult {
    let scale = equal_area_lane_scale(arch);
    let mut serial_delay = 0.0;
    let mut serial_energy = 0.0;
    let mut dense_delay = 0.0;
    let mut dense_energy = 0.0;
    let mut util_weighted = 0.0;
    for (i, layer) in net.layers.iter().enumerate() {
        let s = serial_layer(arch, layer, seed + i as u64);
        let d = dense_layer(layer, 1.0, scale);
        util_weighted += s.utilization * s.delay_us;
        serial_delay += s.delay_us;
        serial_energy += s.energy_uj;
        dense_delay += d.delay_us;
        dense_energy += d.energy_uj;
    }
    NetworkResult {
        name: net.name.clone(),
        speedup: dense_delay / serial_delay,
        energy_ratio: serial_energy / dense_energy,
        utilization: util_weighted / serial_delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpe_arith::encode::{EncodingKind, SignedDigit};
    use tpe_workloads::models;

    /// Test encoder with a *deterministic* digit count: every operand
    /// produces exactly `D` non-zero digits. Each `D` needs a distinct
    /// name because [`SerialTables`] keys its digit tables on
    /// `encoder.name()`, and one test may run both through one instance.
    struct ConstDigits<const D: usize>;

    impl<const D: usize> Encoder for ConstDigits<D> {
        fn name(&self) -> &'static str {
            match D {
                1 => "test-const-1",
                8 => "test-const-8",
                _ => "test-const-other",
            }
        }
        fn radix(&self) -> u8 {
            2
        }
        fn encode(&self, _value: i64, _width: u32) -> Vec<SignedDigit> {
            (0..D as u8).map(|w| SignedDigit::new(1, w)).collect()
        }
    }

    fn opt4e() -> ArchModel {
        ArchModel::table7_ours()
            .into_iter()
            .find(|a| a.name == "OPT4E")
            .unwrap()
    }

    /// GPT-2 linear sublayers (K ∈ {768, 3072}) keep OPT4E columns >95%
    /// busy — Figure 11(A) reports 96.0–98.2%. Attention sublayers with
    /// K = 64 sit lower.
    #[test]
    fn gpt2_sublayer_utilization_high() {
        let arch = opt4e();
        for layer in models::gpt2_decode_sublayers("L0", 1024) {
            let r = serial_layer(&arch, &layer, 42);
            let floor = if layer.k >= 512 { 0.95 } else { 0.85 };
            assert!(
                r.utilization > floor,
                "{}: utilization {:.3} (K={})",
                r.name,
                r.utilization,
                layer.k
            );
            assert!(r.busy_max * 1.0001 >= r.utilization && r.utilization >= r.busy_min * 0.9999);
        }
    }

    /// MobileNetV3: DW layers (K = 9/25) utilize worse than wide PW layers
    /// — the Figure 11(B) dip (92.3–94.7% vs 97.3–98.4%).
    #[test]
    fn mobilenet_dw_dips_below_pw() {
        let arch = opt4e();
        let net = models::mobilenet_v3();
        let dw = net.layers.iter().find(|l| l.name == "b13-dw5x5").unwrap();
        let pw = net.layers.iter().find(|l| l.name == "b13-pw-proj").unwrap();
        let rd = serial_layer(&arch, dw, 7);
        let rp = serial_layer(&arch, pw, 7);
        assert!(
            rd.utilization < rp.utilization,
            "DW {:.3} should dip below PW {:.3}",
            rd.utilization,
            rp.utilization
        );
        assert!(
            (0.85..0.97).contains(&rd.utilization),
            "DW util {:.3}",
            rd.utilization
        );
        assert!(rp.utilization > 0.95, "PW util {:.3}", rp.utilization);
    }

    /// The equal-area OPT4E beats the MAC array on a GPT-2 layer — the
    /// Figure 13 speedup family (paper: ×2.16 for GPT-2 overall).
    #[test]
    fn opt4e_beats_equal_area_mac_on_gpt2_layer() {
        let arch = opt4e();
        let scale = equal_area_lane_scale(&arch);
        let layer = &models::gpt2_decode_sublayers("L0", 1024)[4]; // fc1
        let s = serial_layer(&arch, layer, 3);
        let d = dense_layer(layer, 1.0, scale);
        assert!(
            d.delay_us / s.delay_us > 1.2,
            "speedup {:.2} too small",
            d.delay_us / s.delay_us
        );
    }

    /// Degenerate (deterministic) digit distributions make the analytic
    /// path *exactly* equal to the sampled oracle — zero tolerance. Two
    /// boundaries: single-digit operands (D = 1) and the max-width 8-digit
    /// bit-serial worst case (D = 8). The shapes are chosen so the sampler
    /// covers every round (`scale == 1`), where both paths reduce to the
    /// same exact integer arithmetic in f64.
    #[test]
    fn degenerate_distributions_match_sampler_exactly() {
        let cfg = opt4e().bitslice_config();
        let shapes = [
            LayerShape::new("sq", 64, 64, 64, 1),
            LayerShape::new("tiny-k", 96, 32, 9, 2),
            LayerShape::new("skinny", 1, 128, 768, 1),
        ];
        let tables = SerialTables::default();
        for layer in &shapes {
            for (enc, a_bits) in [
                (&ConstDigits::<1> as &dyn Encoder, 4u32),
                (&ConstDigits::<8> as &dyn Encoder, 8u32),
            ] {
                let a = analytic_serial_cycles(&tables, &cfg, enc, a_bits, layer);
                let caps = SerialSampleCaps::default();
                let s = sample_serial_cycles(&tables, &cfg, enc, a_bits, layer, 99, caps);
                assert_eq!(a.cycles, s.cycles, "{}: cycles differ", layer.name);
                assert_eq!(a.rounds, s.rounds, "{}: rounds differ", layer.name);
                assert_eq!(
                    a.busy.iter().sum::<f64>(),
                    s.busy.iter().sum::<f64>(),
                    "{}: busy totals differ",
                    layer.name
                );
            }
        }
    }

    /// Convolution boundaries: one operand leaves the pmf unchanged, and
    /// the tail-identity `E[max]` matches brute-force enumeration for one
    /// and two columns (`mp = 1` is the plain mean).
    #[test]
    fn convolution_and_max_identities_at_the_boundaries() {
        let stats = SerialTables::default().digit_stats(EncodingKind::EnT.encoder().as_ref(), 8);
        let pmf = &stats.pmf;
        assert_eq!(&convolve_digit_sum(pmf, 1), pmf);

        let (mean, _) = stats.moments;
        assert!((expected_max_of_iid(pmf, 1) - mean).abs() < 1e-12);

        // mp = 2 against O(d²) brute force over the joint distribution.
        let brute: f64 = pmf
            .iter()
            .enumerate()
            .flat_map(|(i, &p)| {
                pmf.iter()
                    .enumerate()
                    .map(move |(j, &q)| i.max(j) as f64 * p * q)
            })
            .sum();
        assert!((expected_max_of_iid(pmf, 2) - brute).abs() < 1e-12);
    }

    /// The CLT constant: `E[max of 2 standard normals] = 1/√π` exactly;
    /// the integration must hit it to ~1e-6, and more columns push the
    /// constant up.
    #[test]
    fn normal_max_constant_matches_closed_form() {
        assert_eq!(std_normal_max_mean(1), 0.0);
        let c2 = std_normal_max_mean(2);
        assert!(
            (c2 - 1.0 / std::f64::consts::PI.sqrt()).abs() < 1e-6,
            "c2 = {c2}"
        );
        assert!(std_normal_max_mean(32) > std_normal_max_mean(8));
    }

    /// The analytic backend is seed- and caps-independent: the dispatcher
    /// returns bit-identical stats for different seeds, equal to a direct
    /// `analytic_serial_cycles` call, with utilization in (0, 1].
    #[test]
    fn analytic_dispatch_is_seed_independent() {
        let arch = opt4e();
        let cfg = arch.bitslice_config();
        let enc = cfg.encoding.encoder();
        let layer = LayerShape::new("probe", 64, 256, 128, 1);
        let caps = SerialSampleCaps {
            model: CycleModel::Analytic,
            ..SerialSampleCaps::default()
        };
        let tables = SerialTables::default();
        let a = serial_cycle_stats(&tables, &cfg, enc.as_ref(), 8, &layer, 1, caps);
        let b = serial_cycle_stats(&tables, &cfg, enc.as_ref(), 8, &layer, 2, caps);
        assert_eq!(a, b, "analytic stats must not depend on the seed");
        assert_eq!(
            a,
            analytic_serial_cycles(&tables, &cfg, enc.as_ref(), 8, &layer)
        );
        // The tables hold derived constants: a fresh instance agrees.
        let fresh = SerialTables::default();
        assert_eq!(
            a,
            analytic_serial_cycles(&fresh, &cfg, enc.as_ref(), 8, &layer)
        );
        let u = a.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    /// Only the exact-convolution branch stores round results, and its keys
    /// are bounded by the crossover: 200 layers with distinct reductions
    /// above it add nothing to the tables after the first (which fills the
    /// CLT constant), so a client sending ever-new `k` cannot grow them.
    #[test]
    fn round_tables_stay_bounded_over_distinct_wide_reductions() {
        let cfg = opt4e().bitslice_config();
        let enc = cfg.encoding.encoder();
        let tables = SerialTables::default();
        let sizes = |t: &SerialTables| {
            [
                t.digits.lock().unwrap().len(),
                t.normal_max.lock().unwrap().len(),
                t.exact_rounds.lock().unwrap().len(),
            ]
        };
        let wide = |k| LayerShape::new("wide", 64, 256, k, 1);
        analytic_serial_cycles(&tables, &cfg, enc.as_ref(), 8, &wide(65));
        let after_first = sizes(&tables);
        assert_eq!(after_first, [1, 1, 0]);
        for k in 66..265 {
            analytic_serial_cycles(&tables, &cfg, enc.as_ref(), 8, &wide(k));
        }
        assert_eq!(sizes(&tables), after_first);
    }

    /// Mode labels round-trip through `parse` case-insensitively and
    /// unknown labels are rejected — the contract CLI flags and serve
    /// requests rely on.
    #[test]
    fn cycle_model_labels_round_trip() {
        for m in CycleModel::ALL {
            assert_eq!(CycleModel::parse(m.name()), Some(m));
            assert_eq!(CycleModel::parse(&m.name().to_uppercase()), Some(m));
        }
        assert_eq!(CycleModel::parse("monte-carlo"), None);
        assert_eq!(CycleModel::default(), CycleModel::Sampled);
    }

    /// The float CDF walk the table-driven [`DigitSampler`] replaces — the
    /// slow oracle: draw `u` exactly as `rng.random::<f64>()` does and
    /// step while `cdf[n] < u`.
    fn oracle_walk(cdf: &[f64], u: f64) -> u64 {
        let mut n = 0usize;
        while cdf[n] < u {
            n += 1;
        }
        n as u64
    }

    fn oracle_cdf(stats: &DigitStats) -> Vec<f64> {
        cdf_of(&stats.pmf)
    }

    /// An RNG that yields one fixed word, so the oracle converts a chosen
    /// word to `f64` through the real `random::<f64>()` path.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    const WIDTHS: [u32; 3] = [4, 8, 16];

    /// The digit table of every encoder × width, with its label and
    /// oracle CDF: a test fixture built once per test binary, because the
    /// fifteen range enumerations take a quarter second in a debug build
    /// and the random-word proptest checks all of them in every case.
    fn every_digit_table() -> &'static [(String, DigitStats, Vec<f64>)] {
        static FIXTURE: std::sync::OnceLock<Vec<(String, DigitStats, Vec<f64>)>> =
            std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let mut out = Vec::new();
            for kind in EncodingKind::ALL {
                for a_bits in WIDTHS {
                    let stats = DigitStats::of(kind.encoder().as_ref(), a_bits);
                    let cdf = oracle_cdf(&stats);
                    out.push((
                        format!("{} at W{a_bits}", kind.encoder().name()),
                        stats,
                        cdf,
                    ));
                }
            }
            out
        })
    }

    /// Checks `DigitSampler::from_cdf(cdf)` against the float walk on
    /// adversarial words: one below, at and above every integer threshold
    /// (where `⌊cdf·2⁵³⌋` rounding would show) and every guide-bucket edge
    /// (where the walk starts), with all-zero and all-one discarded low
    /// bits.
    fn assert_sampler_matches_walk_at_edges(cdf: &[f64]) {
        let sampler = DigitSampler::from_cdf(cdf);
        let top = (1u64 << DRAW_BITS) - 1;
        let mut ys: Vec<u64> = vec![0, top];
        for &t in sampler.thresholds.iter() {
            ys.extend([t.saturating_sub(1), t, t.saturating_add(1)]);
        }
        for bucket in 0..1u64 << GUIDE_BITS {
            let edge = bucket << (DRAW_BITS - GUIDE_BITS);
            ys.extend([edge.saturating_sub(1), edge, edge + 1]);
        }
        for y in ys.into_iter().filter(|&y| y <= top) {
            for low in [0, (1u64 << (64 - DRAW_BITS)) - 1] {
                let word = (y << (64 - DRAW_BITS)) | low;
                let expected = oracle_walk(cdf, Word(word).random::<f64>());
                assert_eq!(sampler.draw(word), expected, "{cdf:?}: word {word:#x}");
            }
        }
    }

    /// Every encoder × width's sampler agrees with the oracle at the
    /// adversarial words.
    #[test]
    fn digit_sampler_matches_the_oracle_at_thresholds_and_bucket_edges() {
        for (_, _, cdf) in every_digit_table() {
            assert_sampler_matches_walk_at_edges(cdf);
        }
    }

    /// Synthetic tables the encoders never produce: thresholds exactly on
    /// bucket edges (binary fractions), zero-probability counts (repeated
    /// CDF values, including a zero first entry) and a running sum that
    /// overshoots the pinned final 1.0.
    #[test]
    fn digit_sampler_matches_the_oracle_on_edge_aligned_tables() {
        for cdf in [
            vec![0.0, 0.25, 0.5, 1.0],
            vec![0.0, 0.0, 0.125, 0.125, 0.75, 1.0],
            vec![0.5, 0.5, 0.5, 1.0],
            vec![1.0],
            vec![0.3, 1.0000000000000002, 1.0],
        ] {
            assert_sampler_matches_walk_at_edges(&cdf);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random words draw the oracle's digit count for every encoder ×
        /// width.
        #[test]
        fn digit_sampler_matches_the_oracle_on_random_words(
            words in proptest::prelude::prop::collection::vec(0u64..=u64::MAX, 1..256),
        ) {
            for (label, stats, cdf) in every_digit_table() {
                for &word in &words {
                    let expected = oracle_walk(cdf, Word(word).random::<f64>());
                    assert_eq!(stats.sampler.draw(word), expected, "{label}: word {word:#x}");
                }
            }
        }

        /// Both call sites reproduce the oracle-driven loops exactly: the
        /// same `SerialCycleStats` from `sample_serial_cycles`, the same
        /// cycles/MAC from the zero-skip sampler.
        #[test]
        fn sampler_call_sites_match_the_oracle_loops(
            enc_idx in 0usize..5,
            width_idx in 0usize..3,
            m in 1usize..300,
            n in 1usize..300,
            k in 1usize..200,
            seed in 0u64..=u64::MAX,
            zero_pct in 0u32..=100,
        ) {
            let kind = EncodingKind::ALL[enc_idx];
            let encoder = kind.encoder();
            let a_bits = WIDTHS[width_idx];
            let tables = SerialTables::default();
            let stats = tables.digit_stats(encoder.as_ref(), a_bits);
            let cdf = oracle_cdf(&stats);
            let oracle = |rng: &mut StdRng| oracle_walk(&cdf, rng.random());
            let cfg = opt4e().bitslice_config();
            let layer = LayerShape::new("probe", m, n, k, 1);
            let caps = SerialSampleCaps {
                max_rounds: 6,
                max_operands: 20_000,
                model: CycleModel::Sampled,
            };
            proptest::prelude::prop_assert_eq!(
                sample_serial_cycles(&tables, &cfg, encoder.as_ref(), a_bits, &layer, seed, caps),
                sample_serial_cycles_with(&cfg, &layer, seed, caps, oracle)
            );
            let zero_frac = f64::from(zero_pct) / 100.0;
            let sampler = &stats.sampler;
            let fast = zero_skip_cycles_per_mac_with(zero_frac, seed, |rng| {
                sampler.draw(rng.next_u64())
            });
            proptest::prelude::prop_assert_eq!(
                fast.to_bits(),
                zero_skip_cycles_per_mac_with(zero_frac, seed, oracle).to_bits()
            );
        }
    }

    /// The public zero-skip entry point is the table-driven loop at the
    /// architecture's encoding and INT8 width.
    #[test]
    fn zero_skip_entry_point_matches_the_oracle() {
        let arch = opt4e();
        let cdf = oracle_cdf(&DigitStats::of(
            arch.bitslice_config().encoding.encoder().as_ref(),
            8,
        ));
        for zero_frac in [0.0, 0.5] {
            let oracle =
                zero_skip_cycles_per_mac_with(zero_frac, 42, |rng| oracle_walk(&cdf, rng.random()));
            assert_eq!(
                cycles_per_mac_with_zeros(&arch, zero_frac, 42).to_bits(),
                oracle.to_bits()
            );
        }
    }

    /// Network evaluation produces sane aggregates.
    #[test]
    fn resnet18_network_eval() {
        let arch = opt4e();
        let r = evaluate_network(&arch, &models::resnet18(), 11);
        assert!(r.speedup > 1.0, "speedup {}", r.speedup);
        assert!(r.energy_ratio < 1.0, "energy ratio {}", r.energy_ratio);
        assert!((0.5..=1.0).contains(&r.utilization));
    }
}
