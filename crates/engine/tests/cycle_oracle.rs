//! The analytic-vs-sampled serial-cycle oracle suite.
//!
//! [`analytic_serial_cycles`] replaces the Monte-Carlo sampler on the hot
//! path; [`sample_serial_cycles`] stays as the test oracle. Both evaluate
//! the same layer-mapping model, so for every encoder × operand width ×
//! layer shape the analytic expectation must sit inside the sampler's
//! concentration band — and the band must *tighten* as the sampling caps
//! grow (the consistency half of the contract: agreement that did not
//! improve with more samples would mean the two paths model different
//! distributions, not that one estimates the other).
//!
//! The tolerance ladder is pinned per [`SampleProfile`], in increasing
//! budget order: Quick 15% → Model 10% → Sweep 5% → Single 4%. Each rung
//! averages the sampled estimate over a few fixed seeds so the bound
//! checks the estimator's mean, not one unlucky draw.

use proptest::prelude::*;
use tpe_arith::encode::EncodingKind;
use tpe_arith::Precision;
use tpe_core::arch::workload::{analytic_serial_cycles, sample_serial_cycles, SerialTables};
use tpe_engine::caps::SampleProfile;
use tpe_sim::BitsliceConfig;
use tpe_workloads::LayerShape;

/// The precision presets the paper sweeps (W8xW4's encoded-multiplicand
/// width is 8; its narrow multiplier does not enter the cycle model).
const PRECISIONS: [Precision; 4] = [
    Precision::W4,
    Precision::W8,
    Precision::W16,
    Precision::W8X4,
];

/// The pinned tolerance ladder: `(profile, relative tolerance, seeds
/// averaged)`. Budgets grow down the list and the tolerance tightens
/// with them.
const LADDER: [(SampleProfile, f64, u64); 4] = [
    (SampleProfile::Quick, 0.15, 2),
    (SampleProfile::Model, 0.10, 2),
    (SampleProfile::Sweep, 0.05, 3),
    (SampleProfile::Single, 0.04, 4),
];

fn rel_err(analytic: f64, sampled: f64) -> f64 {
    (analytic - sampled).abs() / sampled.abs().max(1e-12)
}

/// Checks one (encoder, width, layer) point against the full ladder;
/// returns a description of the first violated rung.
fn check_ladder(
    cfg: &BitsliceConfig,
    kind: EncodingKind,
    a_bits: u32,
    layer: &LayerShape,
) -> Result<(), String> {
    let encoder = kind.encoder();
    let tables = SerialTables::default();
    let analytic = analytic_serial_cycles(&tables, cfg, encoder.as_ref(), a_bits, layer);
    for (profile, tol, seeds) in LADDER {
        let caps = profile.caps();
        let mut cycles = 0.0;
        let mut busy = 0.0;
        for seed in 0..seeds {
            let seed = 0xC0FFEE + seed;
            let s = sample_serial_cycles(&tables, cfg, encoder.as_ref(), a_bits, layer, seed, caps);
            // The mapping arithmetic (rounds × passes) must be identical,
            // not just close — both paths derive it without sampling.
            if s.rounds != analytic.rounds {
                return Err(format!(
                    "{kind:?} W{a_bits} {layer:?}: rounds diverged \
                     (analytic {}, sampled {})",
                    analytic.rounds, s.rounds
                ));
            }
            cycles += s.cycles;
            busy += s.busy.iter().sum::<f64>();
        }
        cycles /= seeds as f64;
        busy /= seeds as f64;
        let cycle_err = rel_err(analytic.cycles, cycles);
        let busy_err = rel_err(analytic.busy.iter().sum(), busy);
        if cycle_err > tol || busy_err > tol {
            return Err(format!(
                "{kind:?} W{a_bits} {layer:?} @ {profile:?}: cycle err {:.4}, \
                 busy err {:.4} exceed tolerance {tol}",
                cycle_err, busy_err
            ));
        }
    }
    Ok(())
}

/// Builds one of the three layer families the paper prices from raw
/// randomized dimensions: skinny decode-style GEMVs (`m = 1`),
/// `k < KT_MIN_OPERANDS` tiny-K batching (depthwise kernels), and
/// general tiles — all with `repeats > 1` reachable.
fn shape_from(family: usize, m: usize, n: usize, k: usize, repeats: usize) -> LayerShape {
    match family {
        0 => LayerShape::new("decode", 1, 64 + n % 448, 128 + k % 896, repeats),
        1 => LayerShape::new("tinyk", 8 + m % 120, 8 + n % 120, 1 + k % 31, repeats),
        _ => LayerShape::new("tile", 16 + m % 240, 16 + n % 240, 32 + k % 480, repeats),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The oracle property: for random shapes, encoders and widths the
    /// analytic statistics agree with the sampled oracle at every rung
    /// of the (tightening) tolerance ladder.
    #[test]
    fn analytic_tracks_the_sampled_oracle(
        family in 0usize..3,
        m in 0usize..4096,
        n in 0usize..4096,
        k in 0usize..4096,
        repeats in 1usize..4,
        enc_idx in 0usize..5,
        prec_idx in 0usize..4,
    ) {
        let layer = shape_from(family, m, n, k, repeats);
        let cfg = BitsliceConfig::opt3();
        let kind = EncodingKind::ALL[enc_idx];
        let a_bits = PRECISIONS[prec_idx].a_bits;
        if let Err(msg) = check_ladder(&cfg, kind, a_bits, &layer) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Exhaustive coverage backstop: every encoder × every precision preset
/// on one representative shape per family, at the Model rung (the
/// proptest above randomizes over this grid; this test guarantees no
/// combination is ever skipped in a given `cargo test` run).
#[test]
fn every_encoder_and_precision_clears_the_model_rung() {
    let cfg = BitsliceConfig::opt3();
    let shapes = [
        LayerShape::new("decode", 1, 128, 768, 1),
        LayerShape::new("tinyk", 96, 32, 9, 2),
        LayerShape::new("tile", 64, 64, 256, 1),
    ];
    let mut failures = Vec::new();
    let tables = SerialTables::default();
    for kind in EncodingKind::ALL {
        for precision in PRECISIONS {
            for layer in &shapes {
                let encoder = kind.encoder();
                let a_bits = precision.a_bits;
                let analytic =
                    analytic_serial_cycles(&tables, &cfg, encoder.as_ref(), a_bits, layer);
                let caps = SampleProfile::Model.caps();
                let sampled =
                    sample_serial_cycles(&tables, &cfg, encoder.as_ref(), a_bits, layer, 7, caps);
                assert_eq!(analytic.rounds, sampled.rounds, "{kind:?} {layer:?}");
                let err = rel_err(analytic.cycles, sampled.cycles);
                if err > 0.10 {
                    failures.push(format!(
                        "{kind:?} W{} {}: cycle err {err:.4}",
                        precision.a_bits, layer.name
                    ));
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "oracle violations:\n{}",
        failures.join("\n")
    );
}
