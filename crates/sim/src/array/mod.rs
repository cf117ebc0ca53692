//! Dense TPE array topologies: the four classic architectures the paper
//! retrofits and compares against (Table VII, §II-B).
//!
//! * [`SystolicArray`] — weight-stationary systolic array (TPU-like,
//!   Jouppi et al.): weights pre-load column by column, activations skew
//!   through the wavefront. Simulated cycle-accurately, including the
//!   load/drain phases the Figure 11 baseline pays on every tile.
//! * [`CubeArray`] — 3D-Cube (Ascend-like): a 10×10×10 block of
//!   multipliers with a spatial K-reduction tree (`tree_depth` drain).
//! * [`AdderTreeArray`] — multiplier–adder-tree (Trapezoid-like): dot
//!   product units of 32 lanes, one output element per unit-round.
//! * [`OsSystolicArray`] / [`Matrix2dArray`] — output-stationary and
//!   broadcast 2D-Matrix (FlexFlow-like) organizations; the row/column
//!   operand broadcast is the property OPT2's same-bit-weight reduction
//!   exploits (§IV-B).
//!
//! Every engine implements [`DenseArray`]: an exact `simulate` (validated
//! against the reference GEMM) plus a closed-form `estimate_cycles`
//! pinned to simulation in tests — the cycle model the engine's scheduler uses to
//! schedule whole networks, layer by img2col-lowered layer.

mod adder_tree;
mod cube;
mod matrix2d;
mod os_systolic;
mod systolic;

pub use adder_tree::AdderTreeArray;
pub use cube::CubeArray;
pub use matrix2d::Matrix2dArray;
pub use os_systolic::OsSystolicArray;
pub use systolic::SystolicArray;

use crate::stats::SimStats;
use tpe_workloads::Matrix;

/// A dense GEMM engine: simulates `C = A·B` exactly and reports cycles.
pub trait DenseArray {
    /// Architecture name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Number of processing elements.
    fn pe_count(&self) -> usize;

    /// Simulates the full GEMM, returning the exact product and statistics.
    fn simulate(&self, a: &Matrix<i8>, b: &Matrix<i8>) -> (Matrix<i32>, SimStats);

    /// Closed-form cycle estimate for an `m × n × k` GEMM (validated
    /// against `simulate` in tests).
    fn estimate_cycles(&self, m: usize, n: usize, k: usize) -> u64;
}

/// The four classic architectures at the paper's Table VII configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassicArch {
    /// Weight-stationary systolic array (TPU).
    Tpu,
    /// 3D-Cube (Ascend), 10×10×10.
    Ascend,
    /// Multiplier–adder tree (Trapezoid).
    Trapezoid,
    /// Broadcast 2D-Matrix (FlexFlow).
    FlexFlow,
}

impl ClassicArch {
    /// All four, in Table VII order.
    pub const ALL: [ClassicArch; 4] = [
        ClassicArch::Tpu,
        ClassicArch::Ascend,
        ClassicArch::Trapezoid,
        ClassicArch::FlexFlow,
    ];

    /// Instantiates the architecture at its Table VII size (32×32 PEs;
    /// 10×10×10 for the Cube).
    pub fn at_paper_config(self) -> Box<dyn DenseArray> {
        match self {
            ClassicArch::Tpu => Box::new(SystolicArray::new(32, 32)),
            ClassicArch::Ascend => Box::new(CubeArray::new(10, 10, 10)),
            ClassicArch::Trapezoid => Box::new(AdderTreeArray::new(32, 32)),
            ClassicArch::FlexFlow => Box::new(Matrix2dArray::new(32, 32)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpe_workloads::distributions::uniform_int8_matrix;
    use tpe_workloads::matrix::matmul_i8;

    /// Every classic architecture computes the exact GEMM on shapes that
    /// exercise partial tiles.
    #[test]
    fn all_architectures_exact() {
        let a = uniform_int8_matrix(13, 17, 1);
        let b = uniform_int8_matrix(17, 11, 2);
        let expect = matmul_i8(&a, &b);
        for arch in ClassicArch::ALL {
            let engine = arch.at_paper_config();
            let (c, stats) = engine.simulate(&a, &b);
            assert_eq!(c, expect, "{} wrong result", engine.name());
            assert!(stats.cycles > 0);
            assert_eq!(stats.macs, 13 * 17 * 11);
        }
    }

    /// Closed-form estimates match simulation for every architecture.
    #[test]
    fn estimates_match_simulation() {
        let a = uniform_int8_matrix(9, 21, 3);
        let b = uniform_int8_matrix(21, 14, 4);
        for arch in ClassicArch::ALL {
            let engine = arch.at_paper_config();
            let (_, stats) = engine.simulate(&a, &b);
            assert_eq!(
                stats.cycles,
                engine.estimate_cycles(9, 14, 21),
                "{} estimate drift",
                engine.name()
            );
        }
    }

    #[test]
    fn pe_counts_match_paper_configs() {
        assert_eq!(ClassicArch::Tpu.at_paper_config().pe_count(), 1024);
        assert_eq!(ClassicArch::Ascend.at_paper_config().pe_count(), 1000);
        assert_eq!(ClassicArch::Trapezoid.at_paper_config().pe_count(), 1024);
        assert_eq!(ClassicArch::FlexFlow.at_paper_config().pe_count(), 1024);
    }
}
