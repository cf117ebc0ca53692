//! Weight-stationary systolic array (TPU-like), simulated cycle-accurately.
//!
//! The array holds a `KP × NP` tile of `B` stationary. Rows of `A` stream
//! in from the left with one cycle of skew per array row; partial sums flow
//! downward, one full MAC per PE per cycle. An `M`-row sweep over one
//! weight tile takes `M + KP + NP − 1` cycles from first input to last
//! drained output; weight tiles load in `KP` cycles (double-buffered loads
//! are not modeled, as the paper's dense sweeps are compute-bound).

use super::DenseArray;
use crate::stats::SimStats;
use tpe_workloads::Matrix;

/// A weight-stationary `KP × NP` systolic array.
#[derive(Debug, Clone, Copy)]
pub struct SystolicArray {
    kp: usize,
    np: usize,
}

impl SystolicArray {
    /// Creates the array with `kp` rows (reduction) and `np` columns.
    pub fn new(kp: usize, np: usize) -> Self {
        assert!(kp > 0 && np > 0);
        Self { kp, np }
    }

    /// Cycle-accurately streams `M` rows of one `kp × np` weight tile.
    ///
    /// Returns the per-row dot products accumulated into `out` and the
    /// number of cycles the sweep took.
    fn sweep_tile(
        &self,
        a: &Matrix<i8>,
        b: &Matrix<i8>,
        k0: usize,
        n0: usize,
        out: &mut Matrix<i32>,
    ) -> u64 {
        let m_dim = a.rows();
        let kk = (a.cols() - k0).min(self.kp);
        let nn = (b.cols() - n0).min(self.np);

        // PE state: stationary weight, moving activation, moving psum.
        let mut a_reg = vec![vec![0i8; nn]; kk];
        let mut psum = vec![vec![0i32; nn]; kk];
        let total_cycles = m_dim + kk + nn - 1;

        for t in 0..total_cycles {
            // Registers update simultaneously: sweep right-to-left,
            // bottom-to-top so reads see previous-cycle values.
            for i in (0..kk).rev() {
                for j in (0..nn).rev() {
                    let a_in = if j == 0 {
                        // Row i receives A[t − i][k0 + i] (skewed feed).
                        let m = t as isize - i as isize;
                        if m >= 0 && (m as usize) < m_dim {
                            a[(m as usize, k0 + i)]
                        } else {
                            0
                        }
                    } else {
                        a_reg[i][j - 1]
                    };
                    let psum_in = if i == 0 { 0 } else { psum[i - 1][j] };
                    // This PE's weight is B[k0+i][n0+j].
                    let w = i32::from(b[(k0 + i, n0 + j)]);
                    psum[i][j] = psum_in + i32::from(a_in) * w;
                    a_reg[i][j] = a_in;
                }
            }
            // Row m's result for column j drains from PE row kk−1 at
            // t = m + (kk − 1) + j.
            for j in 0..nn {
                let m = t as isize - (kk as isize - 1) - j as isize;
                if m >= 0 && (m as usize) < m_dim {
                    out[(m as usize, n0 + j)] += psum[kk - 1][j];
                }
            }
        }
        total_cycles as u64
    }
}

impl DenseArray for SystolicArray {
    fn name(&self) -> &'static str {
        "TPU(systolic-WS)"
    }

    fn pe_count(&self) -> usize {
        self.kp * self.np
    }

    fn simulate(&self, a: &Matrix<i8>, b: &Matrix<i8>) -> (Matrix<i32>, SimStats) {
        assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
        let (m, n, k) = (a.rows(), b.cols(), a.cols());
        let mut out = Matrix::<i32>::zeros(m, n);
        let mut cycles = 0u64;
        let mut k0 = 0;
        while k0 < k {
            let kk = (k - k0).min(self.kp);
            let mut n0 = 0;
            while n0 < n {
                cycles += kk as u64; // weight tile load
                cycles += self.sweep_tile(a, b, k0, n0, &mut out);
                n0 += self.np;
            }
            k0 += self.kp;
        }
        let macs = (m * n * k) as u64;
        let stats = SimStats {
            cycles,
            macs,
            partial_products: macs * 4, // parallel radix-4 MACs reduce 4 PPs
            busy_per_column: vec![cycles.saturating_sub(self.kp as u64 + self.np as u64); self.np],
            sync_events: 0,
            lanes: self.pe_count() as u64,
        };
        (out, stats)
    }

    /// Closed form of the per-tile sum (the loop survives as the test
    /// oracle): every (k, n) tile pays a `kk`-cycle load plus an
    /// `m + kk + nn − 1`-cycle sweep, so over all tiles the loads and the
    /// sweeps' `kk` terms sum to `2·n_tiles·k`, the `nn` terms to
    /// `k_tiles·n`, and the rest to `k_tiles·n_tiles·(m − 1)`.
    fn estimate_cycles(&self, m: usize, n: usize, k: usize) -> u64 {
        let [m, n, k] = [m, n, k].map(|d| d as u64);
        let k_tiles = k.div_ceil(self.kp as u64);
        let n_tiles = n.div_ceil(self.np as u64);
        let tiles = k_tiles * n_tiles;
        // `tiles·(m − 1)` written so that `m = 0` cannot underflow: each
        // tile's sweep is at least one cycle.
        2 * n_tiles * k + tiles * m + k_tiles * n - tiles
    }
}

impl SystolicArray {
    /// Cycle estimate with double-buffered weight loads: tile loads overlap
    /// the previous tile's sweep, as production systolic arrays do. This is
    /// the fair baseline for the paper's §V-D workload comparisons.
    pub fn estimate_cycles_pipelined(&self, m: usize, n: usize, k: usize) -> u64 {
        let base = self.estimate_cycles(m, n, k);
        // Remove the serialized load cycles (one kk per tile, `n_tiles·k`
        // in all), keeping the first tile's cold load.
        let loads = n.div_ceil(self.np) as u64 * k as u64;
        let first = (k.min(self.kp)) as u64;
        base - loads + first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpe_workloads::distributions::uniform_int8_matrix;
    use tpe_workloads::matrix::matmul_i8;

    #[test]
    fn exact_on_square_tile() {
        let a = uniform_int8_matrix(8, 8, 10);
        let b = uniform_int8_matrix(8, 8, 20);
        let arr = SystolicArray::new(8, 8);
        let (c, stats) = arr.simulate(&a, &b);
        assert_eq!(c, matmul_i8(&a, &b));
        // One tile: load 8 + sweep (8 + 8 + 8 − 1) = 31 cycles.
        assert_eq!(stats.cycles, 8 + 23);
    }

    #[test]
    fn exact_when_dims_exceed_array() {
        let a = uniform_int8_matrix(5, 19, 30);
        let b = uniform_int8_matrix(19, 9, 40);
        let arr = SystolicArray::new(4, 4);
        let (c, _) = arr.simulate(&a, &b);
        assert_eq!(c, matmul_i8(&a, &b));
    }

    #[test]
    fn exact_on_gemv() {
        // M = 1 (the GPT-2 decode shape).
        let a = uniform_int8_matrix(1, 16, 50);
        let b = uniform_int8_matrix(16, 7, 60);
        let arr = SystolicArray::new(8, 8);
        let (c, _) = arr.simulate(&a, &b);
        assert_eq!(c, matmul_i8(&a, &b));
    }

    #[test]
    fn estimate_matches_simulation_across_shapes() {
        let arr = SystolicArray::new(4, 8);
        for (m, n, k) in [(3, 5, 7), (16, 16, 16), (1, 9, 33), (10, 24, 4)] {
            let a = uniform_int8_matrix(m, k, (m * n) as u64);
            let b = uniform_int8_matrix(k, n, (n * k) as u64);
            let (_, stats) = arr.simulate(&a, &b);
            assert_eq!(stats.cycles, arr.estimate_cycles(m, n, k), "{m}x{n}x{k}");
        }
    }

    /// The per-tile loops the closed forms replace.
    fn estimate_cycles_loop(arr: &SystolicArray, m: usize, n: usize, k: usize) -> u64 {
        let k_tiles = k.div_ceil(arr.kp);
        let n_tiles = n.div_ceil(arr.np);
        let mut cycles = 0u64;
        for kt in 0..k_tiles {
            let kk = (k - kt * arr.kp).min(arr.kp);
            for nt in 0..n_tiles {
                let nn = (n - nt * arr.np).min(arr.np);
                cycles += kk as u64 + (m + kk + nn - 1) as u64;
            }
        }
        cycles
    }

    fn pipelined_loads_loop(arr: &SystolicArray, n: usize, k: usize) -> u64 {
        let k_tiles = k.div_ceil(arr.kp);
        let n_tiles = n.div_ceil(arr.np);
        let mut loads = 0u64;
        for kt in 0..k_tiles {
            let kk = (k - kt * arr.kp).min(arr.kp) as u64;
            loads += kk * n_tiles as u64;
        }
        loads
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The closed forms equal the per-tile loops on random shapes and
        /// array sizes, ragged tiles and empty dimensions included.
        #[test]
        fn closed_forms_match_the_tile_loops(
            kp in 1usize..40,
            np in 1usize..40,
            m in 0usize..300,
            n in 0usize..300,
            k in 0usize..300,
        ) {
            let arr = SystolicArray::new(kp, np);
            let expected = estimate_cycles_loop(&arr, m, n, k);
            proptest::prop_assert_eq!(arr.estimate_cycles(m, n, k), expected);
            if k > 0 && n > 0 {
                let loads = pipelined_loads_loop(&arr, n, k);
                proptest::prop_assert_eq!(
                    arr.estimate_cycles_pipelined(m, n, k),
                    expected - loads + k.min(kp) as u64
                );
            }
        }
    }

    /// Pipeline arithmetic: per-tile latency is M + KP + NP − 1, so the
    /// array approaches one output row per cycle for large M.
    #[test]
    fn throughput_approaches_one_row_per_cycle() {
        let arr = SystolicArray::new(32, 32);
        let cycles = arr.estimate_cycles(10_000, 32, 32);
        let per_row = cycles as f64 / 10_000.0;
        assert!(per_row < 1.02, "rows/cycle {per_row}");
    }
}
