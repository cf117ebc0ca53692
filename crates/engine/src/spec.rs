//! Execution engines: the (PE style × array × encoding × corner) targets a
//! workload is priced and scheduled onto.
//!
//! An [`EngineSpec`] is the architecture half of a design point —
//! everything except the workload. It is the single identity every
//! evaluation path keys on: `repro dse` points, `repro models` grid cells,
//! the `repro` figure/table experiments and `repro serve` queries all
//! resolve to an `EngineSpec` before anything is priced, so one engine is
//! priced exactly once per process (see [`crate::cache::EngineCache`]).

use std::fmt;

use tpe_arith::encode::EncodingKind;
use tpe_arith::Precision;
use tpe_core::arch::array::ARRAY_OVERHEAD_FRAC;
use tpe_core::arch::workload::{effective_numpps_at, SerialTables};
use tpe_core::arch::{ArchKind, ArchModel, PeStyle};
use tpe_cost::process::ProcessNode;
use tpe_sim::array::ClassicArch;

use crate::cache::PeRecord;

/// SRAM port width in bytes per bank per cycle.
///
/// The on-chip bandwidth corners below are all `banks ×
/// SRAM_PORT_BYTES`: the bank geometry is the diagonally skewed layout of
/// `tpe_sim::memory::SkewedBankLayout` (§IV-C), where each of the array's
/// columns owns a private bank port per cycle. A 32-bank layout at this
/// port width therefore sustains 128 B/cycle — the arithmetic the
/// `memory_corners_tie_to_bank_geometry` test pins.
pub const SRAM_PORT_BYTES: u32 = 4;

/// An on-chip memory-hierarchy corner: SRAM capacity plus the SRAM and
/// DRAM bandwidths the roofline bounds effective delay against.
///
/// The default [`MemorySpec::unbounded`] corner models the pre-memory
/// evaluator exactly: no bandwidth ceiling, no capacity pressure, every
/// layer compute-bound — all historical numbers, labels and seeds are
/// reproduced bit-for-bit. Finite corners are named (see
/// [`crate::roster::memory_corners`]) and appear as a `@<name>` label
/// suffix after any precision suffix, parsed back by
/// [`crate::roster::find`].
///
/// All fields are integers so the corner can ride inside `Copy + Eq +
/// Hash` cache keys ([`crate::cache::PriceKey`],
/// [`crate::cache::ModelKey`]) without float-identity hazards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemorySpec {
    /// On-chip SRAM capacity in KiB; 0 means unbounded (everything fits).
    pub sram_kib: u32,
    /// SRAM bandwidth in bytes per cycle (`banks × SRAM_PORT_BYTES` for
    /// the banked corners); 0 means unbounded.
    pub sram_bw: u32,
    /// DRAM bandwidth in bytes per cycle; 0 means unbounded.
    pub dram_bw: u32,
    /// Corner name (`"unbounded"`, `"edge"`, …) — the label suffix and
    /// filter/CSV key.
    pub name: &'static str,
}

impl Default for MemorySpec {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl MemorySpec {
    /// The default corner: no memory-hierarchy limits. Reproduces the
    /// pre-memory evaluator byte-identically.
    pub fn unbounded() -> Self {
        Self {
            sram_kib: 0,
            sram_bw: 0,
            dram_bw: 0,
            name: "unbounded",
        }
    }

    /// A banked-SRAM corner: `banks` skewed banks at [`SRAM_PORT_BYTES`]
    /// each (the §IV-C geometry), over a `dram_bw` bytes/cycle external
    /// interface.
    pub fn banked(name: &'static str, banks: u32, sram_kib: u32, dram_bw: u32) -> Self {
        Self {
            sram_kib,
            sram_bw: banks * SRAM_PORT_BYTES,
            dram_bw,
            name,
        }
    }

    /// An edge-class corner: 16 banks (64 B/cycle), 256 KiB SRAM, 8
    /// B/cycle DRAM.
    pub fn edge() -> Self {
        Self::banked("edge", 16, 256, 8)
    }

    /// A mobile-class corner: 32 banks (128 B/cycle), 2 MiB SRAM, 16
    /// B/cycle DRAM.
    pub fn mobile() -> Self {
        Self::banked("mobile", 32, 2048, 16)
    }

    /// A datacenter-class corner: 64 banks (256 B/cycle), 24 MiB SRAM,
    /// 64 B/cycle DRAM.
    pub fn hbm() -> Self {
        Self::banked("hbm", 64, 24576, 64)
    }

    /// Whether this is the unlimited default (the identity projection).
    pub fn is_unbounded(&self) -> bool {
        self.sram_bw == 0 && self.dram_bw == 0 && self.sram_kib == 0
    }

    /// SRAM capacity in bytes; `None` when unbounded.
    pub fn sram_bytes(&self) -> Option<f64> {
        (self.sram_kib > 0).then(|| f64::from(self.sram_kib) * 1024.0)
    }
}

/// Which roofline ceiling bounds a layer's effective delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Bound {
    /// Compute cycles dominate (always the case under
    /// [`MemorySpec::unbounded`]).
    #[default]
    Compute,
    /// On-chip SRAM bandwidth dominates.
    Sram,
    /// External DRAM bandwidth dominates.
    Dram,
}

impl Bound {
    /// Stable lowercase label (`compute` / `sram` / `dram`) — the CSV,
    /// JSON and serve wire value.
    pub fn label(self) -> &'static str {
        match self {
            Bound::Compute => "compute",
            Bound::Sram => "sram",
            Bound::Dram => "dram",
        }
    }

    /// Parses a [`Bound::label`] back (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "compute" => Some(Bound::Compute),
            "sram" => Some(Bound::Sram),
            "dram" => Some(Bound::Dram),
            _ => None,
        }
    }
}

/// A synthesis corner: clock constraint + process node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Clock constraint in GHz.
    pub freq_ghz: f64,
    /// Process node costs are scaled to (the model is calibrated at
    /// SMIC 28 nm; other nodes use first-order scaling).
    pub node: ProcessNode,
    /// Display name of the node.
    pub node_name: &'static str,
}

impl Corner {
    /// SMIC 28 nm (the paper's node) at `freq_ghz`.
    pub fn smic28(freq_ghz: f64) -> Self {
        Self {
            freq_ghz,
            node: ProcessNode::SMIC28,
            node_name: "28nm",
        }
    }

    /// 16 nm FinFET at `freq_ghz` (first-order scaled).
    pub fn n16(freq_ghz: f64) -> Self {
        Self {
            freq_ghz,
            node: ProcessNode::N16,
            node_name: "16nm",
        }
    }

    /// Stable display label ("28nm@1.50GHz").
    pub fn label(&self) -> String {
        format!("{}@{:.2}GHz", self.node_name, self.freq_ghz)
    }
}

/// One fully-specified execution engine (a design point minus workload).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    /// PE microarchitecture (Figure 9).
    pub style: PeStyle,
    /// Array organization (Table VII).
    pub kind: ArchKind,
    /// Multiplicand encoding (serial datapaths; dense multipliers carry
    /// their built-in Booth encoding).
    pub encoding: EncodingKind,
    /// Operand/accumulator precision the datapath is synthesized for
    /// ([`Precision::W8`] is the paper's configuration and the default;
    /// labels carry a `@W4`-style suffix for anything else).
    pub precision: Precision,
    /// Clock in GHz.
    pub freq_ghz: f64,
    /// Process node costs are scaled to.
    pub node: ProcessNode,
    /// Display name of the node.
    pub node_name: &'static str,
    /// Memory-hierarchy corner the roofline bounds delay against
    /// ([`MemorySpec::unbounded`] is the paper's configuration and the
    /// default; labels carry a `@edge`-style suffix for anything else).
    pub memory: MemorySpec,
}

impl EngineSpec {
    /// A dense engine (classic topology) at SMIC 28 nm, W8 precision.
    pub fn dense(style: PeStyle, arch: ClassicArch, freq_ghz: f64) -> Self {
        Self {
            style,
            kind: ArchKind::Dense(arch),
            encoding: EncodingKind::Mbe,
            precision: Precision::W8,
            freq_ghz,
            node: ProcessNode::SMIC28,
            node_name: "28nm",
            memory: MemorySpec::unbounded(),
        }
    }

    /// A serial (column-synchronous) engine at SMIC 28 nm, W8 precision.
    pub fn serial(style: PeStyle, encoding: EncodingKind, freq_ghz: f64) -> Self {
        Self {
            style,
            kind: ArchKind::Serial,
            encoding,
            precision: Precision::W8,
            freq_ghz,
            node: ProcessNode::SMIC28,
            node_name: "28nm",
            memory: MemorySpec::unbounded(),
        }
    }

    /// The same engine synthesized for a different operand precision.
    pub fn with_precision(self, precision: Precision) -> Self {
        Self { precision, ..self }
    }

    /// The same engine under a different memory-hierarchy corner.
    pub fn with_memory(self, memory: MemorySpec) -> Self {
        Self { memory, ..self }
    }

    /// The Table VII roster (see [`crate::roster`] for the named registry).
    pub fn paper_roster() -> Vec<EngineSpec> {
        crate::roster::paper_roster()
    }

    /// The engine's synthesis corner.
    pub fn corner(&self) -> Corner {
        Corner {
            freq_ghz: self.freq_ghz,
            node: self.node,
            node_name: self.node_name,
        }
    }

    /// The same architecture at a different corner.
    pub fn at_corner(&self, corner: Corner) -> Self {
        Self {
            freq_ghz: corner.freq_ghz,
            node: corner.node,
            node_name: corner.node_name,
            ..self.clone()
        }
    }

    /// Architecture half of the label ("OPT1(TPU)", "OPT3\[EN-T\]").
    pub fn arch_label(&self) -> String {
        let mut label = String::new();
        self.write_arch_label(&mut label)
            .expect("writing to a String cannot fail");
        label
    }

    fn write_arch_label(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self.kind {
            ArchKind::Dense(arch) => write!(out, "{}({})", self.style.name(), classic_name(arch)),
            ArchKind::Serial => write!(out, "{}[{}]", self.style.name(), self.encoding),
        }
    }

    /// Full engine label, stable across runs — the seed/filter/CSV key
    /// ("OPT4E\[EN-T\]/28nm\@2.00GHz"). Non-default precisions append a
    /// `@W4`-style suffix ("OPT3\[EN-T\]/28nm\@2.00GHz\@W4") and finite
    /// memory corners a `@edge`-style one after it, both parsed back by
    /// [`crate::roster::find`]; the default W8/unbounded stays suffix-free
    /// so every historical label (and seed derived from it) is unchanged.
    pub fn label(&self) -> String {
        let mut label = self.seed_label();
        if !self.memory.is_unbounded() {
            label.push('@');
            label.push_str(self.memory.name);
        }
        label
    }

    /// [`Self::label`] without the memory-corner suffix: the label that
    /// seeds sampled evaluations. The cycle model never sees the memory
    /// corner, so every corner of an engine samples the same operands and
    /// shares one cycle record; the roofline then only adds stalls, and a
    /// finite corner can never report less delay than the unbounded one.
    pub fn seed_label(&self) -> String {
        let mut label = String::new();
        self.write_seed_label(&mut label)
            .expect("writing to a String cannot fail");
        label
    }

    /// Writes [`Self::seed_label`] to `out` piece by piece, so a hasher
    /// can take the label without a string being built for it.
    pub fn write_seed_label(&self, out: &mut impl fmt::Write) -> fmt::Result {
        self.write_arch_label(out)?;
        write!(out, "/{}@{:.2}GHz", self.node_name, self.freq_ghz)?;
        if !self.precision.is_default() {
            write!(out, "@{}", self.precision)?;
        }
        Ok(())
    }

    /// PE instances at the paper's array sizes (10×10×10 Cube, else 32×32).
    pub fn pe_instances(&self) -> usize {
        match self.kind {
            ArchKind::Dense(ClassicArch::Ascend) => 1000,
            _ => 1024,
        }
    }

    /// The equivalent `tpe-core` architecture model.
    pub fn arch_model(&self) -> ArchModel {
        ArchModel {
            name: self.arch_label(),
            style: self.style,
            kind: self.kind,
            pe_instances: self.pe_instances(),
            freq_ghz: self.freq_ghz,
        }
    }

    /// Prices the engine through the process-wide cache: PE synthesis at
    /// the clock (memoized on [`crate::cache::PeKey`]), node scaling,
    /// array support logic. `None` when the PE cannot close timing.
    pub fn price(&self) -> Option<EnginePrice> {
        crate::eval::Evaluator::global().price(self)
    }
}

/// Display name of a classic dense topology.
pub fn classic_name(arch: ClassicArch) -> &'static str {
    match arch {
        ClassicArch::Tpu => "TPU",
        ClassicArch::Ascend => "Ascend",
        ClassicArch::Trapezoid => "Trapezoid",
        ClassicArch::FlexFlow => "FlexFlow",
    }
}

/// A priced engine: everything the scheduler needs to turn cycles into
/// delay, energy and efficiency figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnginePrice {
    /// Total array area (µm², node-scaled, support + overhead included).
    pub area_um2: f64,
    /// Energy per PE-instance-cycle while busy (fJ, [`tpe_cost::power::PE_BUSY`]).
    pub e_active_fj: f64,
    /// Energy per PE-instance-cycle while clock-gated (fJ,
    /// [`tpe_cost::power::PE_IDLE`]).
    pub e_idle_fj: f64,
    /// PE (or PE-group) instances in the array.
    pub instances: f64,
    /// Total MAC-equivalent lanes (instances × lanes per instance).
    pub lanes_total: f64,
    /// Peak throughput (TOPS; serial engines divide by effective NumPPs).
    pub peak_tops: f64,
}

impl EnginePrice {
    /// Assembles the array-level price from a cached per-PE record.
    ///
    /// This is the single place PE-level synthesis becomes array-level
    /// cost: support-logic area, the 2% interconnect overhead and the
    /// peak-throughput accounting live here and nowhere else.
    pub fn from_record(
        spec: &EngineSpec,
        record: &PeRecord,
        support_um2: f64,
        tables: &SerialTables,
    ) -> Self {
        let instances = spec.pe_instances() as f64;
        let area_um2 = (record.area_um2 * instances + support_um2) * (1.0 + ARRAY_OVERHEAD_FRAC);
        let lanes_total = instances * f64::from(record.lanes);
        let freq = spec.freq_ghz;
        let raw_tops = lanes_total * 2.0 * freq * 1e9 / 1e12;
        let peak_tops = match spec.kind {
            ArchKind::Dense(_) => raw_tops,
            // Serial peak divides by the expected digits per operand at
            // the engine's multiplicand width — the precision axis's
            // linear serial cost law.
            ArchKind::Serial => {
                let encoder = spec.encoding.encoder();
                raw_tops / effective_numpps_at(tables, encoder.as_ref(), spec.precision.a_bits)
            }
        };
        Self {
            area_um2,
            e_active_fj: record.active_power_uw / freq,
            e_idle_fj: record.idle_power_uw / freq,
            instances,
            lanes_total,
            peak_tops,
        }
    }

    /// Table VII's array power convention: every PE toggles at full
    /// datapath activity (dense sweeps keep all PEs busy; serial designs
    /// only skip *zero* digits), plus the interconnect overhead share.
    pub fn table7_power_w(&self, freq_ghz: f64) -> f64 {
        self.e_active_fj * freq_ghz * self.instances * 1e-6 * (1.0 + ARRAY_OVERHEAD_FRAC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_covers_all_topologies_and_serial_styles() {
        let roster = EngineSpec::paper_roster();
        for arch in ClassicArch::ALL {
            assert!(
                roster.iter().any(|e| e.kind == ArchKind::Dense(arch)),
                "{arch:?} missing from roster"
            );
        }
        for style in [PeStyle::Opt3, PeStyle::Opt4C, PeStyle::Opt4E] {
            assert!(roster.iter().any(|e| e.style == style));
        }
        let mut labels: Vec<String> = roster.iter().map(EngineSpec::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), roster.len(), "duplicate engine labels");
    }

    #[test]
    fn every_roster_engine_prices_at_its_paper_clock() {
        for engine in EngineSpec::paper_roster() {
            let price = engine
                .price()
                .unwrap_or_else(|| panic!("{} fails timing", engine.label()));
            assert!(price.area_um2 > 0.0 && price.area_um2.is_finite());
            assert!(price.e_active_fj > price.e_idle_fj);
            assert!(price.peak_tops > 0.0);
        }
    }

    #[test]
    fn mac_engine_walls_beyond_1p5_ghz() {
        let mut e = EngineSpec::dense(PeStyle::TraditionalMac, ClassicArch::Tpu, 2.0);
        assert!(e.price().is_none());
        e.freq_ghz = 1.0;
        assert!(e.price().is_some());
    }

    #[test]
    fn serial_peak_tops_divides_by_effective_numpps() {
        let opt3 = EngineSpec::serial(PeStyle::Opt3, EncodingKind::EnT, 2.0)
            .price()
            .unwrap();
        // 1024 lanes × 2 ops × 2 GHz = 4.096 raw TOPS; EN-T's ~2.27
        // effective NumPPs lands near Table VII's 1.80 TOPS.
        assert!((1.6..2.1).contains(&opt3.peak_tops), "{}", opt3.peak_tops);
    }

    #[test]
    fn corner_round_trips_through_the_spec() {
        let spec = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0);
        let corner = spec.corner();
        assert_eq!(corner.label(), "28nm@2.00GHz");
        let moved = spec.at_corner(Corner::n16(1.5));
        assert_eq!(moved.label(), "OPT4E[EN-T]/16nm@1.50GHz");
        assert_eq!(moved.arch_label(), spec.arch_label());
    }

    /// The default memory corner is the identity projection: suffix-free
    /// labels, compute-bound roofline, every historical seed unchanged.
    #[test]
    fn unbounded_memory_keeps_labels_suffix_free() {
        let spec = EngineSpec::serial(PeStyle::Opt4E, EncodingKind::EnT, 2.0);
        assert!(spec.memory.is_unbounded());
        assert_eq!(spec.label(), "OPT4E[EN-T]/28nm@2.00GHz");
        let bounded = spec.clone().with_memory(MemorySpec::edge());
        assert_eq!(bounded.label(), "OPT4E[EN-T]/28nm@2.00GHz@edge");
        let both = bounded.with_precision(tpe_arith::Precision::W4);
        assert_eq!(both.label(), "OPT4E[EN-T]/28nm@2.00GHz@W4@edge");
    }

    /// §IV-C promotion: every finite SRAM bandwidth corner is `banks ×
    /// SRAM_PORT_BYTES` over the skewed bank layout of
    /// `tpe_sim::memory::SkewedBankLayout` — the bank count recovered from
    /// the corner drives a conflict-free aligned access pattern.
    #[test]
    fn memory_corners_tie_to_bank_geometry() {
        for (mem, banks) in [
            (MemorySpec::edge(), 16u32),
            (MemorySpec::mobile(), 32),
            (MemorySpec::hbm(), 64),
        ] {
            assert_eq!(mem.sram_bw, banks * SRAM_PORT_BYTES, "{}", mem.name);
            let layout =
                tpe_sim::memory::SkewedBankLayout::new((mem.sram_bw / SRAM_PORT_BYTES) as usize);
            assert_eq!(layout.banks() as u32, banks, "{}", mem.name);
            let accesses: Vec<(usize, usize)> = (0..layout.banks()).map(|c| (c, 7)).collect();
            assert_eq!(layout.conflicts(&accesses), 0, "{}", mem.name);
        }
    }
}
