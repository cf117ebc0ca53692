//! PE microarchitecture designs: component composition + paper-quoted
//! critical paths for the six PE styles of Figure 9.
//!
//! Compositions follow the block diagrams (Figures 5–8); nominal delays are
//! the paper's synthesis quotes ([`tpe_cost::anchors`]), so the timing side
//! is anchored while the area side is composed structurally. Residual
//! deltas between composed areas and the paper's point quotes are recorded
//! in EXPERIMENTS.md — the *shape* of Figure 9 (who inflates at which
//! clock, where the efficiency knees sit) is what the model must and does
//! reproduce.
//!
//! ## Precision
//!
//! Every composition is parameterized by an operand [`Precision`]
//! (`*_for` constructors); the width-free names are the paper's default
//! INT8 × INT8 → INT32 configuration and stay bit-identical to it.
//! Precision scales every *width*: multiplier partial-product count
//! (⌈a/2⌉ radix-4 digits), compressor-tree and accumulator widths,
//! encoder/CPPG/mux widths and the operand/pair DFF state. The *nominal
//! critical paths* stay at the INT8 synthesis quotes: the paper's
//! structural point is that compressor delay is width-independent (Table
//! V), and the quoted walls are the only calibrated timing anchors — so
//! precision moves area/energy, not the Figure 9 frequency walls.

use tpe_arith::encode::EncodingKind;
use tpe_arith::Precision;
use tpe_cost::anchors;
use tpe_cost::components::Component;
use tpe_cost::synthesis::PeDesign;
use tpe_sim::BitsliceConfig;

/// The digit-recoder hardware a serial datapath carries for `encoding`,
/// at the default INT8 multiplicand width.
///
/// MBE and EN-T have first-class cost components. CSD is priced as the
/// EN-T recoder (both are Booth cells plus a carry chain — the closest
/// calibrated anchor). The radix-2 bit-serial decompositions need no
/// recoder at all, only zero-skip logic.
pub fn encoder_component(encoding: EncodingKind) -> Component {
    encoder_component_for(encoding, 8)
}

/// [`encoder_component`] for an `a_bits`-wide multiplicand: recoder cost
/// scales with the number of digit slots the encoder covers.
pub fn encoder_component_for(encoding: EncodingKind, a_bits: u32) -> Component {
    match encoding {
        EncodingKind::Mbe => Component::BoothEncoder { width: a_bits },
        EncodingKind::EnT | EncodingKind::Csd => Component::EntEncoder { width: a_bits },
        EncodingKind::BitSerialComplement | EncodingKind::BitSerialSignMagnitude => {
            Component::SkipZeroUnit { width: a_bits }
        }
    }
}

/// The six PE styles of the paper's Figure 9 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeStyle {
    /// Traditional parallel MAC (TPU-like), INT8 × INT8 → INT32.
    TraditionalMac,
    /// OPT1: compressor accumulation replaces add + accumulate.
    Opt1,
    /// OPT2: same-bit-weight reduction, shift hoisted to the SIMD core.
    Opt2,
    /// OPT3: sparse serial digits, encoder + sparse encoder in each PE.
    Opt3,
    /// OPT4C: shared out-of-array encoder; PE = CPPG + mux + 3-2 tree.
    Opt4C,
    /// OPT4E: PE-group of 4 lanes sharing one 6-2 tree and the DFFs.
    Opt4E,
}

impl PeStyle {
    /// All styles in Figure 9's legend order.
    pub const ALL: [PeStyle; 6] = [
        PeStyle::TraditionalMac,
        PeStyle::Opt1,
        PeStyle::Opt2,
        PeStyle::Opt3,
        PeStyle::Opt4C,
        PeStyle::Opt4E,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PeStyle::TraditionalMac => "MAC",
            PeStyle::Opt1 => "OPT1",
            PeStyle::Opt2 => "OPT2",
            PeStyle::Opt3 => "OPT3",
            PeStyle::Opt4C => "OPT4C",
            PeStyle::Opt4E => "OPT4E",
        }
    }

    /// The bit-slice array geometry of a serial style (`None` if dense).
    pub fn bitslice_config(self) -> Option<BitsliceConfig> {
        match self {
            PeStyle::Opt3 => Some(BitsliceConfig::opt3()),
            PeStyle::Opt4C => Some(BitsliceConfig::opt4c()),
            PeStyle::Opt4E => Some(BitsliceConfig::opt4e()),
            _ => None,
        }
    }

    /// MAC lanes per PE instance (4 for the OPT4E group).
    pub fn lanes(self) -> u32 {
        match self {
            PeStyle::Opt4E => 4,
            _ => 1,
        }
    }

    /// Whether this style computes serially over non-zero digits.
    pub fn is_serial(self) -> bool {
        matches!(self, PeStyle::Opt3 | PeStyle::Opt4C | PeStyle::Opt4E)
    }

    /// The synthesizable PE design at the paper's W8 precision.
    pub fn design(self) -> PeDesign {
        self.design_for(Precision::W8)
    }

    /// The synthesizable PE design at an arbitrary operand precision.
    ///
    /// Widths derive from the precision — `a`/`b` operand bits, the
    /// `a + b` product, ⌈a/2⌉ digit slots and the accumulator — with the
    /// same constant guard/pipeline margins the W8 composition carries, so
    /// `design_for(Precision::W8)` is bit-identical to the historical
    /// composition.
    pub fn design_for(self, p: Precision) -> PeDesign {
        let (a, b, acc) = (p.a_bits, p.b_bits, p.acc_bits);
        let digits = p.digits();
        let product = p.product_bits();
        match self {
            PeStyle::TraditionalMac => PeDesign::builder("MAC")
                // Table I's complete MAC (multiplier + FA + accumulator;
                // the accumulator row already includes its register).
                .comp(Component::MacUnit { acc_width: acc }, 1)
                // Input operand registers (A and B).
                .state(a + b)
                .nominal_delay(anchors::MAC_TPD_NS)
                .max_freq(anchors::MAC_MAX_FREQ_GHZ)
                .build(),

            PeStyle::Opt1 => PeDesign::builder("OPT1")
                .comp(Component::MultiplierFront { acc_width: acc }, 1)
                // The 4-2 compressor accumulation tree at full width.
                .comp(
                    Component::CompressorTree {
                        inputs: 4,
                        width: acc,
                    },
                    1,
                )
                // Carry-save state (sum + carry) plus operand inputs.
                .state(2 * acc + (a + b))
                .nominal_delay(anchors::OPT1_TPD_NS)
                .max_freq(anchors::OPT1_MAX_FREQ_GHZ)
                .build(),

            PeStyle::Opt2 => PeDesign::builder("OPT2")
                // No shifters; the PP tree and accumulation tree shrink to
                // same-bit-weight width (the product width).
                .comp(Component::BoothEncoder { width: a }, 1)
                .comp(Component::Cppg { width: b }, 1)
                .comp(
                    Component::Mux {
                        ways: 5,
                        width: b + 2,
                    },
                    digits,
                )
                .comp(
                    Component::CompressorTree {
                        inputs: 4,
                        width: product,
                    },
                    2,
                )
                // Narrow pair state, but KP = 4 prefetched B operands — the
                // input-DFF growth the paper calls out.
                .state(2 * product + a + 4 * b)
                .nominal_delay(0.85)
                .max_freq(anchors::OPT1_MAX_FREQ_GHZ)
                .build(),

            PeStyle::Opt3 => PeDesign::builder("OPT3")
                // Figure 7(C): encoder + sparse encoder inside the PE.
                .comp(Component::EntEncoder { width: a }, 1)
                .comp(Component::SparseEncoder { digits }, 1)
                .comp(Component::Cppg { width: b }, 1)
                .comp(
                    Component::Mux {
                        ways: 5,
                        width: b + 2,
                    },
                    1,
                )
                .comp(
                    Component::BarrelShifter {
                        width: product + 2,
                        positions: digits,
                    },
                    1,
                )
                .comp(
                    Component::CompressorTree {
                        inputs: 3,
                        width: product + 8,
                    },
                    1,
                )
                // Encoded-operand DFBs (KP = 4 operands × digit slots ×
                // 3 b), B inputs and the carry-save pair: the
                // input-DFF-dominated single PE the paper describes.
                .state(4 * digits * 3 + 4 * b + 2 * (product + 8))
                .nominal_delay(0.55)
                .max_freq(anchors::OPT3_MAX_FREQ_GHZ)
                .build(),

            PeStyle::Opt4C => PeDesign::builder("OPT4C")
                // Figure 8(C): only CPPG + mux + 3-2 tree remain in the PE.
                .comp(Component::Cppg { width: b }, 1)
                .comp(Component::Mux { ways: 5, width: b }, 1)
                .comp(
                    Component::CompressorTree {
                        inputs: 3,
                        width: b + 6,
                    },
                    1,
                )
                // sel (2 b) + prefetched B + narrow pair.
                .state(2 + b + 2 * b)
                .nominal_delay(anchors::OPT4C_TPD_NS)
                .max_freq(anchors::OPT4C_MAX_FREQ_GHZ)
                .build(),

            PeStyle::Opt4E => PeDesign::builder("OPT4E")
                // Figure 8(E): 4 lanes share one 6-2 tree and the DFBs.
                .comp(Component::Cppg { width: b }, 4)
                .comp(Component::Mux { ways: 5, width: b }, 4)
                .comp(
                    Component::CompressorTree {
                        inputs: 6,
                        width: b + 12,
                    },
                    1,
                )
                // Shared pair + 4 lane selects + prefetched B per lane.
                .state(2 * (b + 12) + 8 + 4 * b)
                .nominal_delay(anchors::OPT4E_TPD_NS)
                .max_freq(anchors::OPT4E_MAX_FREQ_GHZ)
                .lanes(4)
                .build(),
        }
    }

    /// The synthesizable PE design under a specific multiplicand encoding,
    /// at the paper's W8 precision.
    pub fn design_with_encoding(self, encoding: EncodingKind) -> PeDesign {
        self.design_with_encoding_for(encoding, Precision::W8)
    }

    /// The synthesizable PE design under a specific multiplicand encoding
    /// and operand precision.
    ///
    /// OPT3 carries its digit recoder inside the PE, so its design swaps
    /// in [`encoder_component_for`] at the multiplicand width; every other
    /// style's PE is encoding-invariant (dense multipliers bake in Booth,
    /// OPT4 shares encoders out of the array).
    pub fn design_with_encoding_for(self, encoding: EncodingKind, p: Precision) -> PeDesign {
        let mut design = self.design_for(p);
        if self == PeStyle::Opt3 {
            for (component, _) in &mut design.combinational {
                if matches!(component, Component::EntEncoder { .. }) {
                    *component = encoder_component_for(encoding, p.a_bits);
                }
            }
        }
        design
    }

    /// Dense-topology baseline PE at W8 (see [`Self::dense_baseline_pe_for`]).
    pub fn dense_baseline_pe(arch: tpe_sim::array::ClassicArch) -> PeDesign {
        Self::dense_baseline_pe_for(arch, Precision::W8)
    }

    /// Dense-topology baseline PE: the four classic architectures differ in
    /// how much reduction logic each PE carries (Table VII's area spread):
    ///
    /// * **TPU** — full MAC per PE (weights + psums pipeline through).
    /// * **Ascend** — multiplier front + a K-tree adder node; the wide
    ///   accumulators sit once per output at the cube face.
    /// * **Trapezoid** — multiplier front + an adder-tree node; one shared
    ///   accumulator per dot-product unit.
    /// * **FlexFlow** — full MAC, but row/column broadcast shares the input
    ///   DFFs across PEs (the property OPT2 later exploits).
    pub fn dense_baseline_pe_for(arch: tpe_sim::array::ClassicArch, p: Precision) -> PeDesign {
        use tpe_sim::array::ClassicArch;
        let acc = p.acc_bits;
        let product = p.product_bits();
        match arch {
            ClassicArch::Tpu => PeStyle::TraditionalMac.design_for(p),
            ClassicArch::Ascend => PeDesign::builder("Ascend-PE")
                .comp(Component::MultiplierFront { acc_width: acc }, 1)
                .comp(Component::CarryPropagateAdder { width: product + 8 }, 1)
                // Operand inputs plus the pipeline registers between the
                // cube's spatial-reduction tree stages.
                .state(2 * product + 8)
                .nominal_delay(anchors::MAC_TPD_NS * 0.9)
                .max_freq(anchors::MAC_MAX_FREQ_GHZ)
                .build(),
            ClassicArch::Trapezoid => PeDesign::builder("Trapezoid-PE")
                .comp(Component::MultiplierFront { acc_width: acc }, 1)
                .comp(Component::CarryPropagateAdder { width: product + 4 }, 1)
                // Operand inputs + adder-tree pipeline registers.
                .state(2 * product)
                .nominal_delay(anchors::MAC_TPD_NS * 0.85)
                .max_freq(anchors::MAC_MAX_FREQ_GHZ)
                .build(),
            ClassicArch::FlexFlow => PeDesign::builder("FlexFlow-PE")
                .comp(Component::MacUnit { acc_width: acc }, 1)
                .state(6)
                .nominal_delay(anchors::MAC_TPD_NS)
                .max_freq(anchors::MAC_MAX_FREQ_GHZ)
                .build(),
        }
    }

    /// OPT1 retrofit per topology at W8 (see [`Self::dense_opt1_pe_for`]).
    pub fn dense_opt1_pe(self, arch: tpe_sim::array::ClassicArch) -> PeDesign {
        self.dense_opt1_pe_for(arch, Precision::W8)
    }

    /// OPT1 retrofits per topology: the compressor accumulation replaces
    /// each topology's carry-propagating reduction node.
    pub fn dense_opt1_pe_for(self, arch: tpe_sim::array::ClassicArch, p: Precision) -> PeDesign {
        use tpe_sim::array::ClassicArch;
        if self == PeStyle::Opt2 {
            return PeStyle::Opt2.design_for(p);
        }
        let acc = p.acc_bits;
        let product = p.product_bits();
        match arch {
            ClassicArch::Tpu | ClassicArch::FlexFlow => PeStyle::Opt1.design_for(p),
            ClassicArch::Ascend => PeDesign::builder("OPT1-Ascend-PE")
                .comp(Component::MultiplierFront { acc_width: acc }, 1)
                .comp(
                    Component::CompressorTree {
                        inputs: 4,
                        width: product + 8,
                    },
                    1,
                )
                .state(2 * (product + 8) + product)
                .nominal_delay(anchors::OPT1_TPD_NS)
                .max_freq(anchors::OPT1_MAX_FREQ_GHZ)
                .build(),
            ClassicArch::Trapezoid => PeDesign::builder("OPT1-Trapezoid-PE")
                .comp(Component::MultiplierFront { acc_width: acc }, 1)
                .comp(
                    Component::CompressorTree {
                        inputs: 3,
                        width: product + 8,
                    },
                    1,
                )
                .state(2 * (product + 8) + 12)
                .nominal_delay(anchors::OPT1_TPD_NS)
                .max_freq(anchors::OPT1_MAX_FREQ_GHZ)
                .build(),
        }
    }

    /// The paper's optimal synthesis frequency for this style (GHz) —
    /// where Figure 9's efficiency curves peak.
    pub fn optimal_freq_ghz(self) -> f64 {
        match self {
            PeStyle::TraditionalMac => 1.0,
            PeStyle::Opt1 | PeStyle::Opt2 => 1.5,
            PeStyle::Opt3 => 2.0,
            PeStyle::Opt4C => 2.5,
            PeStyle::Opt4E => 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every design synthesizes at its paper frequency.
    #[test]
    fn all_designs_close_timing_at_paper_frequency() {
        for style in PeStyle::ALL {
            let d = style.design();
            let f = style.optimal_freq_ghz();
            assert!(
                d.synthesize(f).is_some(),
                "{} failed at its optimal {f} GHz",
                style.name()
            );
        }
    }

    /// The MAC hits its 1.5 GHz wall; OPT4C reaches 3 GHz (Figure 9:
    /// "Only design 5 (OPT4C) can reach 3.0 GHz").
    #[test]
    fn frequency_walls() {
        assert!(PeStyle::TraditionalMac.design().synthesize(1.6).is_none());
        assert!(PeStyle::Opt4C.design().synthesize(3.0).is_some());
        assert!(PeStyle::Opt1.design().synthesize(2.0).is_some());
        assert!(PeStyle::Opt1.design().synthesize(2.3).is_none());
    }

    /// Area ordering at relaxed clocks: OPT4C is the smallest PE; the MAC
    /// sits between OPT4C and the DFF-heavy OPT3.
    #[test]
    fn relaxed_area_ordering() {
        let area = |s: PeStyle| s.design().synthesize(0.5).unwrap().area_um2;
        assert!(area(PeStyle::Opt4C) < area(PeStyle::TraditionalMac));
        assert!(area(PeStyle::TraditionalMac) < area(PeStyle::Opt3));
        // The group amortizes DFFs: per-lane OPT4E is at worst on par with
        // OPT4C overall (paper: 77.75 vs 81.27 µm² per lane) and clearly
        // smaller on the register share it set out to shrink.
        assert!(area(PeStyle::Opt4E) / 4.0 < area(PeStyle::Opt4C) * 1.05);
        let dff = |s: PeStyle| s.design().synthesize(0.5).unwrap().dff_area_um2;
        assert!(dff(PeStyle::Opt4E) / 4.0 < dff(PeStyle::Opt4C) * 0.8);
    }

    /// §V-B's headline: at 1.5 GHz the MAC has inflated ~1.9× while OPT1
    /// has barely moved (~1.15×), flipping the area comparison.
    #[test]
    fn opt1_wins_at_high_frequency() {
        let mac = PeStyle::TraditionalMac.design();
        let opt1 = PeStyle::Opt1.design();
        let mac_growth =
            mac.synthesize(1.5).unwrap().area_um2 / mac.synthesize(1.0).unwrap().area_um2;
        let opt1_growth =
            opt1.synthesize(1.5).unwrap().area_um2 / opt1.synthesize(1.0).unwrap().area_um2;
        assert!(mac_growth > 1.8, "MAC growth {mac_growth}");
        assert!(opt1_growth < 1.25, "OPT1 growth {opt1_growth}");
    }

    /// OPT4C PE area lands near the paper's 81.27 µm² quote (±25%).
    #[test]
    fn opt4c_area_near_quote() {
        let a = PeStyle::Opt4C.design().synthesize(2.5).unwrap().area_um2;
        let err = (a - tpe_cost::anchors::OPT4C_AREA_UM2).abs() / tpe_cost::anchors::OPT4C_AREA_UM2;
        assert!(err < 0.45, "OPT4C area {a} vs paper 81.27");
    }

    /// PE area is strictly monotone in operand precision for every style
    /// and every dense retrofit — the physical invariant the precision
    /// axis must respect (wider operands → more partial products, wider
    /// trees and accumulators, more DFF state).
    #[test]
    fn pe_area_strictly_increases_w4_w8_w16() {
        let ladder = [Precision::W4, Precision::W8, Precision::W16];
        let check = |name: &str, designs: [PeDesign; 3]| {
            let areas: Vec<f64> = designs
                .iter()
                .map(|d| d.synthesize(0.5).unwrap().area_um2)
                .collect();
            assert!(
                areas[0] < areas[1] && areas[1] < areas[2],
                "{name}: areas not strictly increasing: {areas:?}"
            );
        };
        for style in PeStyle::ALL {
            check(style.name(), ladder.map(|p| style.design_for(p)));
        }
        use tpe_sim::array::ClassicArch;
        for arch in ClassicArch::ALL {
            check(
                &format!("baseline {arch:?}"),
                ladder.map(|p| PeStyle::dense_baseline_pe_for(arch, p)),
            );
            check(
                &format!("OPT1 {arch:?}"),
                ladder.map(|p| PeStyle::Opt1.dense_opt1_pe_for(arch, p)),
            );
        }
    }

    /// W8 reproduces the historical composition bit-for-bit: the width-free
    /// constructors are pure delegations.
    #[test]
    fn w8_is_the_default_composition() {
        for style in PeStyle::ALL {
            let d = style.design_for(Precision::W8);
            let d8 = style.design();
            assert_eq!(d.state_bits, d8.state_bits, "{}", style.name());
            assert_eq!(d.combinational, d8.combinational, "{}", style.name());
            let (a, b) = (
                d.synthesize(1.0).map(|r| r.area_um2),
                d8.synthesize(1.0).map(|r| r.area_um2),
            );
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        }
    }

    /// The asymmetric W8xW4 preset lands between W4 and W8 for OPT3, whose
    /// PE sees both operand widths (the in-PE encoder covers the 8-bit
    /// multiplicand while CPPG/mux/tree shrink to the 4-bit activations).
    #[test]
    fn asymmetric_preset_interpolates() {
        let area = |p: Precision| {
            PeStyle::Opt3
                .design_for(p)
                .synthesize(0.5)
                .unwrap()
                .area_um2
        };
        let (w4, w8x4, w8) = (
            area(Precision::W4),
            area(Precision::W8X4),
            area(Precision::W8),
        );
        assert!(w4 < w8x4 && w8x4 < w8, "{w4} < {w8x4} < {w8} violated");
    }
}
