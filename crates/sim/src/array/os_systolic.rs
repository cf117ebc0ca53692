//! Output-stationary systolic array: the OS dataflow variant the paper's
//! survey cites alongside weight-stationary ([13], [20], [21], [33]).
//!
//! Each PE owns one output element; `A` streams in from the left (skewed
//! by row) while `B` streams down from the top (skewed by column), and the
//! operands for `C[i][j]`'s k-th product meet at PE (i, j) at cycle
//! `k + i + j`. After the reduction the psums drain over the output bus.

use super::DenseArray;
use crate::stats::SimStats;
use tpe_workloads::Matrix;

/// An output-stationary `MP × NP` systolic array.
#[derive(Debug, Clone, Copy)]
pub struct OsSystolicArray {
    mp: usize,
    np: usize,
}

impl OsSystolicArray {
    /// Creates the array with `mp` rows (M) and `np` columns (N).
    pub fn new(mp: usize, np: usize) -> Self {
        assert!(mp > 0 && np > 0);
        Self { mp, np }
    }

    /// Cycle-accurate sweep of one `mm × nn` output tile over the full
    /// reduction; returns cycles spent.
    fn sweep_tile(
        &self,
        a: &Matrix<i8>,
        b: &Matrix<i8>,
        m0: usize,
        n0: usize,
        out: &mut Matrix<i32>,
    ) -> u64 {
        let k_dim = a.cols();
        let mm = (a.rows() - m0).min(self.mp);
        let nn = (b.cols() - n0).min(self.np);

        let mut a_reg = vec![vec![0i8; nn]; mm];
        let mut b_reg = vec![vec![0i8; nn]; mm];
        let mut psum = vec![vec![0i32; nn]; mm];
        // Operands for k meet at (i, j) at cycle k + i + j; the last pair
        // lands at k_dim − 1 + (mm − 1) + (nn − 1).
        let total = k_dim + mm + nn - 2 + 1;

        for t in 0..total {
            for i in (0..mm).rev() {
                for j in (0..nn).rev() {
                    let a_in = if j == 0 {
                        // Row i receives A[m0+i][t − i].
                        let k = t as isize - i as isize;
                        if k >= 0 && (k as usize) < k_dim {
                            a[(m0 + i, k as usize)]
                        } else {
                            0
                        }
                    } else {
                        a_reg[i][j - 1]
                    };
                    let b_in = if i == 0 {
                        // Column j receives B[t − j][n0+j].
                        let k = t as isize - j as isize;
                        if k >= 0 && (k as usize) < k_dim {
                            b[(k as usize, n0 + j)]
                        } else {
                            0
                        }
                    } else {
                        b_reg[i - 1][j]
                    };
                    psum[i][j] += i32::from(a_in) * i32::from(b_in);
                    a_reg[i][j] = a_in;
                    b_reg[i][j] = b_in;
                }
            }
        }
        for i in 0..mm {
            for j in 0..nn {
                out[(m0 + i, n0 + j)] = psum[i][j];
            }
        }
        // Drain: one column of outputs per cycle over the result bus.
        (total + nn) as u64
    }
}

impl DenseArray for OsSystolicArray {
    fn name(&self) -> &'static str {
        "Systolic-OS"
    }

    fn pe_count(&self) -> usize {
        self.mp * self.np
    }

    fn simulate(&self, a: &Matrix<i8>, b: &Matrix<i8>) -> (Matrix<i32>, SimStats) {
        assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
        let (m, n, k) = (a.rows(), b.cols(), a.cols());
        let mut out = Matrix::<i32>::zeros(m, n);
        let mut cycles = 0u64;
        let mut m0 = 0;
        while m0 < m {
            let mut n0 = 0;
            while n0 < n {
                cycles += self.sweep_tile(a, b, m0, n0, &mut out);
                n0 += self.np;
            }
            m0 += self.mp;
        }
        let macs = (m * n * k) as u64;
        let stats = SimStats {
            cycles,
            macs,
            partial_products: macs * 4,
            busy_per_column: vec![cycles; self.np],
            sync_events: 0,
            lanes: self.pe_count() as u64,
        };
        (out, stats)
    }

    /// Closed form of the per-tile sum (the loop survives as the test
    /// oracle): every (m, n) output tile takes `k + mm + nn − 1` cycles to
    /// stream and `nn` to drain, so over all tiles the `mm` terms sum to
    /// `n_tiles·m`, the `nn` terms to `2·m_tiles·n`, and the rest to
    /// `m_tiles·n_tiles·(k − 1)`.
    fn estimate_cycles(&self, m: usize, n: usize, k: usize) -> u64 {
        let [m, n, k] = [m, n, k].map(|d| d as u64);
        let m_tiles = m.div_ceil(self.mp as u64);
        let n_tiles = n.div_ceil(self.np as u64);
        let tiles = m_tiles * n_tiles;
        // `tiles·(k − 1)` written so that `k = 0` cannot underflow: each
        // tile takes at least two cycles.
        tiles * k + n_tiles * m + 2 * m_tiles * n - tiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::SystolicArray;
    use tpe_workloads::distributions::uniform_int8_matrix;
    use tpe_workloads::matrix::matmul_i8;

    #[test]
    fn exact_on_square_tile() {
        let a = uniform_int8_matrix(8, 12, 60);
        let b = uniform_int8_matrix(12, 8, 61);
        let arr = OsSystolicArray::new(8, 8);
        let (c, _) = arr.simulate(&a, &b);
        assert_eq!(c, matmul_i8(&a, &b));
    }

    #[test]
    fn exact_with_ragged_tiles() {
        let a = uniform_int8_matrix(11, 7, 62);
        let b = uniform_int8_matrix(7, 13, 63);
        let arr = OsSystolicArray::new(4, 4);
        let (c, _) = arr.simulate(&a, &b);
        assert_eq!(c, matmul_i8(&a, &b));
    }

    #[test]
    fn estimate_matches_simulation() {
        let arr = OsSystolicArray::new(4, 8);
        for (m, n, k) in [(4, 8, 16), (5, 9, 7), (12, 4, 20)] {
            let a = uniform_int8_matrix(m, k, (m + n) as u64);
            let b = uniform_int8_matrix(k, n, (n + k) as u64);
            let (_, stats) = arr.simulate(&a, &b);
            assert_eq!(stats.cycles, arr.estimate_cycles(m, n, k), "{m}x{n}x{k}");
        }
    }

    /// The per-tile loop the closed form replaces.
    fn estimate_cycles_loop(arr: &OsSystolicArray, m: usize, n: usize, k: usize) -> u64 {
        let mut cycles = 0u64;
        let m_tiles = m.div_ceil(arr.mp);
        let n_tiles = n.div_ceil(arr.np);
        for mt in 0..m_tiles {
            let mm = (m - mt * arr.mp).min(arr.mp);
            for nt in 0..n_tiles {
                let nn = (n - nt * arr.np).min(arr.np);
                cycles += (k + mm + nn - 1 + nn) as u64;
            }
        }
        cycles
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The closed form equals the per-tile loop on random shapes and
        /// array sizes, ragged tiles and empty dimensions included.
        #[test]
        fn closed_form_matches_the_tile_loop(
            mp in 1usize..40,
            np in 1usize..40,
            m in 0usize..300,
            n in 0usize..300,
            k in 0usize..300,
        ) {
            let arr = OsSystolicArray::new(mp, np);
            proptest::prop_assert_eq!(
                arr.estimate_cycles(m, n, k),
                estimate_cycles_loop(&arr, m, n, k)
            );
        }
    }

    /// OS amortizes the reduction: for deep K and one output tile it
    /// approaches one MAC per PE per cycle without reloading weights,
    /// beating WS when K ≫ tile size.
    #[test]
    fn os_beats_ws_on_deep_k() {
        let os = OsSystolicArray::new(32, 32);
        let ws = SystolicArray::new(32, 32);
        let (m, n, k) = (32, 32, 4096);
        assert!(os.estimate_cycles(m, n, k) < ws.estimate_cycles(m, n, k));
    }

    /// WS wins on shallow K with many output rows (weights loaded once,
    /// rows streamed) — the dataflow trade-off is workload-dependent.
    #[test]
    fn ws_beats_os_on_many_rows_shallow_k() {
        let os = OsSystolicArray::new(32, 32);
        let ws = SystolicArray::new(32, 32);
        let (m, n, k) = (4096, 32, 32);
        assert!(ws.estimate_cycles(m, n, k) < os.estimate_cycles(m, n, k));
    }
}
