//! The `SerialSampleCaps` profile table: every sampling budget the
//! workspace uses, in one place.
//!
//! The statistical serial-layer model
//! ([`tpe_core::arch::workload::sample_serial_cycles`]) caps how many sync
//! rounds and operands it samples; rounds are i.i.d., so capping keeps the
//! estimate unbiased while bounding cost. Before this table existed, each
//! consumer hard-coded its own caps (`SWEEP_SAMPLE_CAPS` in `tpe-dse`,
//! `MODEL_SAMPLE_CAPS` in the model grid) — a drift hazard the profile
//! table closes: callers name the budget they want and the values live
//! here only.

pub use tpe_core::arch::workload::{CycleModel, SerialSampleCaps};

/// A named sampling budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleProfile {
    /// Single-experiment default: one layer under the microscope
    /// (Figures 11–13's per-sublayer views).
    Single,
    /// Design-space sweeps: hundreds of points, one layer each
    /// (`repro dse`'s layer workloads).
    Sweep,
    /// Whole-model scheduling: dozens of layers per cell, sampling noise
    /// averages out (`repro models`, `repro dse --model`).
    Model,
    /// Debug-profile tests: tight enough that unoptimized whole-model
    /// cells stay fast.
    Quick,
}

impl SampleProfile {
    /// Every profile, in decreasing budget order.
    pub const ALL: [SampleProfile; 4] = [
        SampleProfile::Single,
        SampleProfile::Sweep,
        SampleProfile::Model,
        SampleProfile::Quick,
    ];

    /// The profile's sampling caps.
    pub const fn caps(self) -> SerialSampleCaps {
        match self {
            SampleProfile::Single => SerialSampleCaps {
                max_rounds: 128,
                max_operands: 1_500_000,
                model: CycleModel::Sampled,
            },
            SampleProfile::Sweep => SerialSampleCaps {
                max_rounds: 48,
                max_operands: 400_000,
                model: CycleModel::Sampled,
            },
            SampleProfile::Model => SerialSampleCaps {
                max_rounds: 24,
                max_operands: 30_000,
                model: CycleModel::Sampled,
            },
            SampleProfile::Quick => SerialSampleCaps {
                max_rounds: 6,
                max_operands: 4_000,
                model: CycleModel::Sampled,
            },
        }
    }

    /// The profile's sampling caps scaled to an operand precision: each
    /// sampled operand contributes digit cycles proportional to its width,
    /// so the operand budget scales inversely with the multiplicand width
    /// to keep the sampled *cycle mass* — what the estimate's variance
    /// rides on — roughly constant across the precision axis (W4 samples
    /// twice the operands of W8, W16 half). Round caps are
    /// width-independent. At the default W8 this is exactly
    /// [`Self::caps`], so every historical cycle-cache key is unchanged.
    pub fn caps_for(self, precision: tpe_arith::Precision) -> SerialSampleCaps {
        let base = self.caps();
        if precision.a_bits == 8 {
            return base;
        }
        SerialSampleCaps {
            max_operands: (base.max_operands * 8 / precision.a_bits as usize).max(1_000),
            ..base
        }
    }

    /// Stable display name.
    pub const fn name(self) -> &'static str {
        match self {
            SampleProfile::Single => "single",
            SampleProfile::Sweep => "sweep",
            SampleProfile::Model => "model",
            SampleProfile::Quick => "quick",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The documented budgets: `single` matches the core model's default,
    /// and the table is strictly decreasing so a bigger scope never means
    /// a bigger per-layer budget.
    #[test]
    fn profile_table_matches_documented_budgets() {
        assert_eq!(SampleProfile::Single.caps(), SerialSampleCaps::default());
        assert_eq!(
            SampleProfile::Sweep.caps(),
            SerialSampleCaps {
                max_rounds: 48,
                max_operands: 400_000,
                model: CycleModel::Sampled,
            }
        );
        assert_eq!(
            SampleProfile::Model.caps(),
            SerialSampleCaps {
                max_rounds: 24,
                max_operands: 30_000,
                model: CycleModel::Sampled,
            }
        );
        for pair in SampleProfile::ALL.windows(2) {
            let (a, b) = (pair[0].caps(), pair[1].caps());
            assert!(
                a.max_rounds > b.max_rounds && a.max_operands > b.max_operands,
                "{:?} must out-budget {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    /// Precision-scaled budgets: W8 is exactly the base table, W4 doubles
    /// the operand budget, W16 halves it, rounds never change.
    #[test]
    fn caps_scale_inversely_with_operand_width() {
        use tpe_arith::Precision;
        for profile in SampleProfile::ALL {
            let base = profile.caps();
            assert_eq!(profile.caps_for(Precision::W8), base);
            let w4 = profile.caps_for(Precision::W4);
            let w16 = profile.caps_for(Precision::W16);
            assert_eq!(w4.max_operands, base.max_operands * 2);
            assert_eq!(w16.max_operands, (base.max_operands / 2).max(1_000));
            assert_eq!(w4.max_rounds, base.max_rounds);
            assert_eq!(w16.max_rounds, base.max_rounds);
        }
    }
}
