//! Relation-based memory analysis (paper §IV-D).
//!
//! Data distribution switches let LEGO keep the L1 memory system decoupled
//! from the FU array: the only constraint is that concurrent accesses from
//! different data nodes never collide on a bank. Because all relations are
//! affine, the index difference between two data nodes is time-invariant,
//! so examining `t = 0` suffices (Equation 8). Banks per tensor dimension
//! follow Equation 9: `B_i = max|Δd_i| / gcd({|Δd_i|}) + 1`, with the GCD
//! folding strided accesses onto fewer banks.

use lego_ir::{Dataflow, TensorAccess};
use lego_linalg::{gcd, AffineMap};

/// Bank geometry of one tensor under one dataflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankShape {
    /// Banks per tensor dimension (`B_i`).
    pub counts: Vec<i64>,
    /// Stride divisor per dimension (`g_i` in `b_i = (d_i / g_i) mod B_i`).
    pub gcds: Vec<i64>,
}

impl BankShape {
    /// Total bank count (product over dimensions).
    pub fn total(&self) -> i64 {
        self.counts.iter().product()
    }

    /// Maps a tensor index to its bank coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches the shape.
    pub fn bank_of(&self, index: &[i64]) -> Vec<i64> {
        assert_eq!(index.len(), self.counts.len(), "bank_of: rank mismatch");
        index
            .iter()
            .zip(&self.counts)
            .zip(&self.gcds)
            .map(|((&d, &b), &g)| (d.div_euclid(g)).rem_euclid(b))
            .collect()
    }
}

/// Banked L1 plan for one tensor across all fused dataflows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPlan {
    /// Per-dataflow bank geometry.
    pub per_dataflow: Vec<BankShape>,
}

impl MemoryPlan {
    /// Physical banks needed by the fused design: the maximum bank count
    /// over dataflows (each dataflow views the pool in its own geometry, as
    /// in paper Figure 6c where 4 banks serve both 4×1 and 2×2 views).
    pub fn fused_banks(&self) -> i64 {
        self.per_dataflow
            .iter()
            .map(BankShape::total)
            .max()
            .unwrap_or(1)
    }
}

/// Computes the bank shape for one tensor under one dataflow given the FU
/// coordinates of its data nodes.
///
/// Follows §IV-D: evaluate the composed relation at `t = 0` for every data
/// node, collect per-dimension index deltas, and size banks by
/// `max|Δ| / gcd + 1`.
pub fn bank_shape(
    dataflow: &Dataflow,
    access: &TensorAccess,
    data_node_coords: &[Vec<i64>],
) -> BankShape {
    let f = dataflow.composed_map(access);
    let t_zero = vec![0i64; dataflow.temporal_sizes.len()];
    let indexes: Vec<Vec<i64>> = data_node_coords
        .iter()
        .map(|s| {
            let ts: Vec<i64> = t_zero.iter().chain(s).copied().collect();
            f.apply(&ts)
        })
        .collect();
    shape_from_indexes(&access.map, &indexes)
}

fn shape_from_indexes(map: &AffineMap, indexes: &[Vec<i64>]) -> BankShape {
    let nd = map.out_dim();
    let mut counts = vec![1i64; nd];
    let mut gcds = vec![1i64; nd];
    let Some(first) = indexes.first() else {
        return BankShape { counts, gcds };
    };
    for dim in 0..nd {
        // Every pairwise delta is a difference of two deltas to the first
        // index, so those have the same GCD; the largest delta is max − min.
        let (mut g, mut lo, mut hi) = (0, first[dim], first[dim]);
        for index in indexes {
            g = gcd(g, index[dim] - first[dim]);
            lo = lo.min(index[dim]);
            hi = hi.max(index[dim]);
        }
        if g != 0 {
            counts[dim] = (hi - lo) / g + 1;
            gcds[dim] = g;
        }
    }
    BankShape { counts, gcds }
}

/// Checks Equation 8 directly: no two data nodes may hit the same bank at
/// the same timestamp. Exposed for tests and ablations.
pub fn conflict_free(
    dataflow: &Dataflow,
    access: &TensorAccess,
    data_node_coords: &[Vec<i64>],
    shape: &BankShape,
) -> bool {
    let f = dataflow.composed_map(access);
    let t_zero = vec![0i64; dataflow.temporal_sizes.len()];
    let mut seen = std::collections::HashSet::new();
    for s in data_node_coords {
        let ts: Vec<i64> = t_zero.iter().chain(s).copied().collect();
        let idx = f.apply(&ts);
        if !seen.insert(shape.bank_of(&idx)) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_ir::kernels::{self, dataflows};
    use lego_linalg::gcd_all;
    use proptest::prelude::*;

    /// Equation 9 as written: GCD and maximum over all pairwise deltas.
    fn pairwise_shape(nd: usize, indexes: &[Vec<i64>]) -> BankShape {
        let mut shape = BankShape {
            counts: vec![1; nd],
            gcds: vec![1; nd],
        };
        for dim in 0..nd {
            let mut deltas = Vec::new();
            for (a, x) in indexes.iter().enumerate() {
                for y in &indexes[a + 1..] {
                    deltas.push((x[dim] - y[dim]).abs());
                }
            }
            let g = gcd_all(&deltas);
            if g != 0 {
                shape.counts[dim] = deltas.iter().max().expect("g != 0") / g + 1;
                shape.gcds[dim] = g;
            }
        }
        shape
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Index sets with a random stride and offset per draw, so all-equal
        // (stride 0), strided and dense columns all occur.
        #[test]
        fn bank_shape_equals_the_pairwise_form(
            rows in proptest::collection::vec((0i64..6, 0i64..6, -8i64..8), 0..24),
            stride in 0i64..5,
            offset in -20i64..20,
        ) {
            let indexes: Vec<Vec<i64>> = rows
                .iter()
                .map(|&(a, b, c)| vec![offset + stride * a, b - a, 3 * c])
                .collect();
            let map = AffineMap::linear(lego_linalg::IMat::zeros(3, 1));
            prop_assert_eq!(shape_from_indexes(&map, &indexes), pairwise_shape(3, &indexes));
        }
    }

    #[test]
    fn figure6a_khoh_banking() {
        // Paper Figure 6(a): spatial [kh, oh] on a 2×2 array; data nodes
        // access X[0,0], X[1,0], X[2,0] at t=0 → 3 banks along IH, 1 along
        // IW.
        let conv = kernels::conv2d(1, 1, 1, 4, 4, 2, 2, 1);
        let df = dataflows::conv_khoh(&conv, 2, 2);
        let x = conv.access("X").unwrap();
        // Data nodes mirror the figure: (0,0), (1,0), (1,1) reach rows 0,1,2.
        let coords = vec![vec![0, 0], vec![1, 0], vec![1, 1]];
        let shape = bank_shape(&df, x, &coords);
        // X dims: [n, ic, ih, iw]; ih = oh + kh.
        assert_eq!(shape.counts, vec![1, 1, 3, 1]);
        assert!(conflict_free(&df, x, &coords, &shape));
    }

    #[test]
    fn figure6b_ohow_banking() {
        // Figure 6(b): spatial [ow, oh], 2×2 → 2×2 banks on (ih, iw).
        let conv = kernels::conv2d(1, 1, 1, 4, 4, 3, 3, 1);
        let df = dataflows::conv_ohow(&conv, 2);
        let x = conv.access("X").unwrap();
        let coords: Vec<Vec<i64>> = df.fu_coords();
        let shape = bank_shape(&df, x, &coords);
        assert_eq!(shape.counts, vec![1, 1, 2, 2]);
        assert!(conflict_free(&df, x, &coords, &shape));
    }

    #[test]
    fn fused_banks_take_maximum() {
        let plan = MemoryPlan {
            per_dataflow: vec![
                BankShape {
                    counts: vec![3, 1],
                    gcds: vec![1, 1],
                },
                BankShape {
                    counts: vec![2, 2],
                    gcds: vec![1, 1],
                },
            ],
        };
        // Figure 6(c): 3 banks vs 4 banks → fused pool of 4.
        assert_eq!(plan.fused_banks(), 4);
    }

    #[test]
    fn gcd_reduces_strided_banks() {
        // Strided access X[2i]: deltas {2, 4} → gcd 2 → 3 banks, not 5.
        let gemm = kernels::gemm(8, 2, 2);
        let df = lego_ir::DataflowBuilder::new(&gemm)
            .par("i", 3)
            .seq("i", 1)
            .build("strided")
            .unwrap_err(); // 3 does not divide 8 — construct a valid one:
        let _ = df;
        let gemm = kernels::gemm(9, 2, 2);
        let df = lego_ir::DataflowBuilder::new(&gemm)
            .par("i", 3)
            .build("i-par")
            .unwrap();
        let x = gemm.access("X").unwrap();
        // Data nodes at i ∈ {0, 1, 2}; X row index = i. Scale deltas by
        // choosing every other FU: {0, 2} → deltas {2} → gcd 2 → 2 banks.
        let coords = vec![vec![0], vec![2]];
        let shape = bank_shape(&df, x, &coords);
        assert_eq!(shape.counts[0], 2);
        assert_eq!(shape.gcds[0], 2);
        assert!(conflict_free(&df, x, &coords, &shape));
    }

    #[test]
    fn single_data_node_needs_one_bank() {
        let gemm = kernels::gemm(4, 4, 4);
        let df = dataflows::gemm_ij(&gemm, 2);
        let y = gemm.access("Y").unwrap();
        let shape = bank_shape(&df, y, &[vec![0, 0]]);
        assert_eq!(shape.total(), 1);
    }

    #[test]
    fn bank_of_handles_negative_indexes() {
        let shape = BankShape {
            counts: vec![4],
            gcds: vec![1],
        };
        assert_eq!(shape.bank_of(&[-1]), vec![3]);
        assert_eq!(shape.bank_of(&[7]), vec![3]);
    }
}
