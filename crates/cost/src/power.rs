//! Activity-based power model.
//!
//! Power decomposes as the paper's §V-B discussion does:
//!
//! * **clock network** — 30–60% of total, growing with frequency; modeled
//!   as a frequency-dependent share of the sequential + logic power;
//! * **DFF internal** — per-bit clock-toggle energy every cycle (clock
//!   gating reduces this when a PE idles);
//! * **combinational** — per-component switching energy, scaled by
//!   *activity* (the fraction of cycles the logic actually toggles — for
//!   sparse designs this is where skipped partial products save energy);
//! * **leakage** — proportional to area, frequency-independent.

use crate::gates::LEAKAGE_UW_PER_UM2;

/// An activity operating point of a PE datapath: combinational toggle
/// `activity` and clock-enable `clock_duty`, both ∈ [0, 1]. These are the
/// arguments of [`EnergyBreakdown::power_uw`] /
/// [`SynthReport::power_uw`](crate::SynthReport::power_uw).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityPoint {
    /// Fraction of cycles the combinational logic toggles.
    pub activity: f64,
    /// Fraction of cycles the clock is enabled.
    pub clock_duty: f64,
}

/// A PE actively computing: full combinational switching, clock always on.
/// Single source of truth for every busy-energy account in the workspace
/// (`tpe-core`'s layer models, `tpe-engine`'s evaluator behind the dse sweep and model grid).
pub const PE_BUSY: ActivityPoint = ActivityPoint {
    activity: 1.0,
    clock_duty: 1.0,
};

/// A PE waiting at a `sync` barrier: combinational logic quiescent, clock
/// gated down to a 10% residual duty (§VI: early finishers "enter an idle
/// state, saving power" — gating is never perfect, so a residual clock
/// share and leakage remain).
pub const PE_IDLE: ActivityPoint = ActivityPoint {
    activity: 0.0,
    clock_duty: 0.1,
};

/// Fraction of total power consumed by the clock network at `freq_ghz`.
///
/// §V-B: "the clock network accounts for 30%∼60% of total power".
pub fn clock_network_share(freq_ghz: f64) -> f64 {
    (0.30 + 0.10 * freq_ghz).min(0.60)
}

/// Per-cycle energy accounting for one PE (or PE group).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Combinational switching energy at full activity (fJ/cycle).
    pub comb_fj: f64,
    /// DFF clock + data energy (fJ/cycle), paid whenever the clock runs.
    pub dff_fj: f64,
    /// Leakage power (µW), frequency-independent.
    pub leakage_uw: f64,
}

impl EnergyBreakdown {
    /// Average power in µW at `freq_ghz` with the given combinational
    /// `activity` ∈ [0, 1] and clock-enable duty `clock_duty` ∈ [0, 1]
    /// (idle PEs with gated clocks pay only leakage).
    ///
    /// The clock-network share inflates the dynamic portion:
    /// `P_dyn_total = P_dyn_logic / (1 − share)`.
    pub fn power_uw(&self, freq_ghz: f64, activity: f64, clock_duty: f64) -> f64 {
        assert!((0.0..=1.0).contains(&activity), "activity {activity}");
        assert!((0.0..=1.0).contains(&clock_duty), "clock duty {clock_duty}");
        let logic_fj = self.comb_fj * activity + self.dff_fj * clock_duty;
        let share = clock_network_share(freq_ghz);
        let dynamic_uw = logic_fj * freq_ghz / (1.0 - share);
        dynamic_uw + self.leakage_uw
    }

    /// Energy per cycle (fJ) at the given activity/duty, including the
    /// clock-network share and leakage.
    pub fn energy_per_cycle_fj(&self, freq_ghz: f64, activity: f64, clock_duty: f64) -> f64 {
        self.power_uw(freq_ghz, activity, clock_duty) / freq_ghz
    }

    /// Leakage for `area_um2` of standard cells.
    pub fn leakage_for_area(area_um2: f64) -> f64 {
        area_um2 * LEAKAGE_UW_PER_UM2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_share_band() {
        assert!((clock_network_share(0.5) - 0.35).abs() < 1e-9);
        assert!((clock_network_share(1.0) - 0.40).abs() < 1e-9);
        assert_eq!(clock_network_share(4.0), 0.60);
    }

    #[test]
    fn idle_pe_pays_leakage_only_when_gated() {
        let e = EnergyBreakdown {
            comb_fj: 100.0,
            dff_fj: 50.0,
            leakage_uw: 2.0,
        };
        let idle = e.power_uw(1.0, 0.0, 0.0);
        assert!((idle - 2.0).abs() < 1e-9);
        let busy = e.power_uw(1.0, 1.0, 1.0);
        assert!(busy > 10.0 * idle);
    }

    #[test]
    fn power_scales_with_frequency_and_activity() {
        let e = EnergyBreakdown {
            comb_fj: 80.0,
            dff_fj: 40.0,
            leakage_uw: 0.5,
        };
        let p1 = e.power_uw(1.0, 0.5, 1.0);
        let p2 = e.power_uw(2.0, 0.5, 1.0);
        assert!(p2 > 1.9 * p1, "frequency scaling plus rising clock share");
        assert!(e.power_uw(1.0, 1.0, 1.0) > p1);
    }

    /// Energy per cycle rises with frequency only through the clock-network
    /// share (the paper's reason energy efficiency eventually drops).
    #[test]
    fn energy_per_cycle_rises_slowly_with_f() {
        let e = EnergyBreakdown {
            comb_fj: 80.0,
            dff_fj: 40.0,
            leakage_uw: 0.0,
        };
        let e1 = e.energy_per_cycle_fj(1.0, 1.0, 1.0);
        let e25 = e.energy_per_cycle_fj(2.5, 1.0, 1.0);
        assert!(e25 > e1 && e25 < e1 * 1.5);
    }
}
