//! The paper's processing-element architectures and their array-level
//! assembly: the machinery behind Figure 9 and Table VII.

pub mod array;
pub mod designs;
pub mod simd_core;
pub mod workload;

pub use array::{ArrayModel, Table7Row};
pub use designs::PeStyle;

use tpe_cost::PeDesign;
use tpe_sim::array::ClassicArch;
use tpe_sim::BitsliceConfig;

/// What kind of array an architecture model drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchKind {
    /// A dense classic topology (optionally retrofitted with OPT1/OPT2).
    Dense(ClassicArch),
    /// A column-synchronous bit-slice array (OPT3/OPT4C/OPT4E).
    Serial,
}

/// A complete architecture: PE design + array organization.
#[derive(Debug, Clone)]
pub struct ArchModel {
    /// Display name ("OPT1(TPU)", "OPT4E", ...).
    pub name: String,
    /// The PE (or PE-group) microarchitecture.
    pub style: PeStyle,
    /// Array organization.
    pub kind: ArchKind,
    /// Number of PE (or PE-group) instances in the array.
    pub pe_instances: usize,
    /// The clock the paper synthesizes this design at (GHz).
    pub freq_ghz: f64,
}

impl ArchModel {
    /// The PE design, ready for synthesis, at the paper's W8 precision.
    /// Dense topologies get their per-architecture composition (the
    /// reduction logic each PE carries differs across the four classic
    /// arrays).
    pub fn pe_design(&self) -> PeDesign {
        self.pe_design_for(tpe_arith::Precision::W8)
    }

    /// [`Self::pe_design`] at an arbitrary operand precision.
    pub fn pe_design_for(&self, precision: tpe_arith::Precision) -> PeDesign {
        match (self.style, self.kind) {
            (PeStyle::TraditionalMac, ArchKind::Dense(arch)) => {
                PeStyle::dense_baseline_pe_for(arch, precision)
            }
            (PeStyle::Opt1, ArchKind::Dense(arch)) => {
                PeStyle::Opt1.dense_opt1_pe_for(arch, precision)
            }
            _ => self.style.design_for(precision),
        }
    }

    /// Total MAC lanes (PE instances × lanes per instance).
    pub fn lanes(&self) -> usize {
        self.pe_instances * self.style.lanes() as usize
    }

    /// The bit-slice configuration for serial architectures.
    ///
    /// # Panics
    ///
    /// Panics if called on a dense architecture.
    pub fn bitslice_config(&self) -> BitsliceConfig {
        self.style
            .bitslice_config()
            .unwrap_or_else(|| panic!("{} is not a serial architecture", self.name))
    }

    /// All sixteen Table VII configurations (8 baseline + 8 "ours").
    pub fn table7_ours() -> Vec<ArchModel> {
        use ClassicArch::*;
        let dense = |name: &str, style, arch, pes, f| ArchModel {
            name: name.into(),
            style,
            kind: ArchKind::Dense(arch),
            pe_instances: pes,
            freq_ghz: f,
        };
        let serial = |name: &str, style, pes, f| ArchModel {
            name: name.into(),
            style,
            kind: ArchKind::Serial,
            pe_instances: pes,
            freq_ghz: f,
        };
        vec![
            dense("OPT1(TPU)", PeStyle::Opt1, Tpu, 1024, 1.5),
            dense("OPT1(Ascend)", PeStyle::Opt1, Ascend, 1000, 1.5),
            dense("OPT1(Trapezoid)", PeStyle::Opt1, Trapezoid, 1024, 1.5),
            dense("OPT1(FlexFlow)", PeStyle::Opt1, FlexFlow, 1024, 1.5),
            dense("OPT2(FlexFlow)", PeStyle::Opt2, FlexFlow, 1024, 1.5),
            serial("OPT3", PeStyle::Opt3, 1024, 2.0),
            serial("OPT4C", PeStyle::Opt4C, 1024, 2.5),
            serial("OPT4E", PeStyle::Opt4E, 1024, 2.0),
        ]
    }

    /// The four classic dense baselines at their Table VII configurations.
    pub fn table7_baselines() -> Vec<ArchModel> {
        use ClassicArch::*;
        [Tpu, Ascend, Trapezoid, FlexFlow]
            .into_iter()
            .map(|arch| ArchModel {
                name: match arch {
                    Tpu => "TPU",
                    Ascend => "Ascend",
                    Trapezoid => "Trapezoid",
                    FlexFlow => "FlexFlow",
                }
                .into(),
                style: PeStyle::TraditionalMac,
                kind: ArchKind::Dense(arch),
                pe_instances: if arch == Ascend { 1000 } else { 1024 },
                freq_ghz: 1.0,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_configs_match_paper() {
        let ours = ArchModel::table7_ours();
        assert_eq!(ours.len(), 8);
        let opt4e = ours.iter().find(|a| a.name == "OPT4E").unwrap();
        assert_eq!(opt4e.lanes(), 4096, "32×32 groups × 4 lanes");
        assert_eq!(opt4e.freq_ghz, 2.0);
        let opt1 = &ours[0];
        assert_eq!(opt1.freq_ghz, 1.5);
        assert_eq!(opt1.lanes(), 1024);
    }

    #[test]
    #[should_panic(expected = "not a serial architecture")]
    fn dense_arch_has_no_bitslice_config() {
        ArchModel::table7_baselines()[0].bitslice_config();
    }
}
