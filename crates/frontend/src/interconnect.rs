//! Relation-based interconnection analysis (paper §IV-A).
//!
//! Two FUs can share a tensor element when the composed relation
//! `f_{TS→D}` maps their (timestamp, coordinate) pairs to the same index:
//!
//! * **direct** (Equation 6): `M_{I→D}·M_{S→I}·Δs = 0` — same data at the
//!   same local timestamp;
//! * **delay** (Equation 7): `M_{I→D}·(M_{T→I}·Δt + M_{S→I}·Δs) = 0` — same
//!   data after a constant timestamp gap, realizable as a FIFO.
//!
//! Because timestamps are *local* to each FU (§III-C), the physical FIFO
//! depth of a connection is the difference in absolute cycles:
//! `depth = scalar(Δt) + Δsᵀ·c ≥ 0`, where `scalar` linearizes the loop
//! index per Equation 3. A systolic control flow (`c = [1,1]`) thus turns a
//! same-timestamp broadcast into a depth-1 store-and-forward, exactly the
//! conversion the paper describes.
//!
//! The temporal shift must additionally stay inside the loop bounds
//! (`|Δt_j| ≤ R_j − 1`), otherwise the solution lattice contains shifts
//! whose iteration overlap is empty — algebraically valid but physically
//! meaningless. The solver enumerates the lattice inside that box.

use lego_ir::{Dataflow, TensorAccess};
use lego_linalg::{dot, solve, IMat};

/// Kind of data-reuse interconnection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseKind {
    /// Same local timestamp (`Δt = 0`).
    Direct,
    /// Constant positive timestamp gap, implemented as a FIFO.
    Delay,
    /// Same FU across time (`Δs = 0`): the operand is stationary in a
    /// local register; no interconnection is created but the reuse matters
    /// for memory-traffic modeling.
    Stationary,
}

/// One solution of the reuse equations for a given tensor and dataflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseSolution {
    /// Spatial displacement `Δs` (receiver = sender + Δs).
    pub delta_s: Vec<i64>,
    /// Temporal displacement `Δt` in loop-index space (zero for direct).
    pub delta_t: Vec<i64>,
    /// Physical FIFO depth `scalar(Δt) + Δsᵀ·c` (0 = plain wire).
    pub depth: i64,
    /// Classification of the solution.
    pub kind: ReuseKind,
}

/// Scalarizes a temporal displacement per Equation 3: the constant cycle
/// gap between local timestamps `t` and `t + Δt`.
fn scalar_gap(delta_t: &[i64], sizes: &[i64]) -> i64 {
    let mut stride = 1i64;
    let mut gap = 0i64;
    for (dt, r) in delta_t.iter().zip(sizes).rev() {
        gap += dt * stride;
        stride *= r;
    }
    gap
}

/// Enumerates all non-zero `Δs` within the `‖Δs‖∞ ≤ d` box of the array.
fn spatial_deltas(rank: usize, d: i64) -> Vec<Vec<i64>> {
    let mut out = vec![vec![]];
    for _ in 0..rank {
        let mut next = Vec::new();
        for v in &out {
            for x in -d..=d {
                let mut v2 = v.clone();
                v2.push(x);
                next.push(v2);
            }
        }
        out = next;
    }
    out.retain(|v| v.iter().any(|&x| x != 0));
    out
}

/// Finds all direct, delay, and stationary reuse solutions for one tensor
/// access under one dataflow (paper Equations 6–7).
///
/// `max_distance` is the `d_S` bound on `‖Δs‖∞`. For each spatial
/// displacement the minimal-depth in-bounds temporal shift is returned;
/// displacements with no non-negative-depth realization are discarded
/// (data cannot flow backward in absolute time).
///
/// # Examples
///
/// ```
/// use lego_frontend::{analyze_tensor, ReuseKind};
/// use lego_ir::kernels::{self, dataflows};
///
/// let gemm = kernels::gemm(4, 4, 4);
/// let df = dataflows::gemm_kj(&gemm, 2); // systolic: c = [1, 1]
/// let x = gemm.access("X").unwrap();
/// let sols = analyze_tensor(&df, x, 1);
/// // X is invariant along j: forward (0,1) is a depth-1 systolic wire.
/// assert!(sols.iter().any(|s| s.delta_s == vec![0, 1]
///     && s.depth == 1 && s.kind == ReuseKind::Direct));
/// ```
pub fn analyze_tensor(
    dataflow: &Dataflow,
    access: &TensorAccess,
    max_distance: i64,
) -> Vec<ReuseSolution> {
    let m_sd = dataflow.m_sd(access);
    let m_td = dataflow.m_td(access);
    let sizes = &dataflow.temporal_sizes;
    let mut solutions = Vec::new();

    // Stationary reuse: Δs = 0, minimal positive in-bounds Δt with
    // M_td·Δt = 0.
    if let Some((delta_t, gap)) = minimal_shift(&m_td, &vec![0; m_td.rows()], sizes, 1) {
        solutions.push(ReuseSolution {
            delta_s: vec![0; dataflow.spatial_rank()],
            delta_t,
            depth: gap,
            kind: ReuseKind::Stationary,
        });
    }

    for delta_s in spatial_deltas(dataflow.spatial_rank(), max_distance) {
        let bias = dot(&delta_s, &dataflow.control);
        let rhs: Vec<i64> = m_sd.mul_vec(&delta_s).iter().map(|&x| -x).collect();

        if bias >= 0 && rhs.iter().all(|&x| x == 0) {
            // Direct interconnection (Δt = 0), systolic depth = bias.
            solutions.push(ReuseSolution {
                delta_s,
                delta_t: vec![0; sizes.len()],
                depth: bias,
                kind: ReuseKind::Direct,
            });
            continue;
        }

        // Delay interconnection: minimal in-bounds Δt, depth = gap + bias.
        // This also takes a direct form with negative bias, which would
        // flow backward in absolute time (the paper's Δs = (0,−1) example
        // in §IV-A).
        if let Some((delta_t, gap)) = minimal_shift(&m_td, &rhs, sizes, -bias) {
            let depth = gap + bias;
            debug_assert!(depth >= 0);
            solutions.push(ReuseSolution {
                delta_s,
                delta_t,
                depth,
                kind: ReuseKind::Delay,
            });
        }
    }
    solutions
}

/// Solves `M·Δt = rhs` over the integers, subject to the loop-bound box
/// `|Δt_j| ≤ R_j − 1`, returning the solution minimizing the scalar gap
/// under `gap ≥ min_gap` (ties broken by L1 norm). `None` if infeasible.
///
/// The solution set is a lattice `p + span(B)`; `p` is first reduced into
/// the box by Babai-style rounding along the basis, then the lattice is
/// enumerated in a small coefficient window around the reduced point.
fn minimal_shift(m: &IMat, rhs: &[i64], sizes: &[i64], min_gap: i64) -> Option<(Vec<i64>, i64)> {
    let sol = solve(m, rhs)?;
    let mut p = sol.particular.clone();
    let basis = &sol.basis;

    // Babai-style reduction of the particular solution toward the box.
    for _ in 0..3 {
        for b in basis {
            let (j, bj) = b
                .iter()
                .enumerate()
                .max_by_key(|(_, v)| v.unsigned_abs())
                .map(|(j, &v)| (j, v))
                .unwrap_or((0, 0));
            if bj == 0 {
                continue;
            }
            let t0 = (p[j] as f64 / bj as f64).round() as i64;
            let mut best_t = 0i64;
            let mut best_pen = penalty(&p, sizes);
            for t in t0 - 2..=t0 + 2 {
                if t == 0 {
                    continue;
                }
                let cand: Vec<i64> = p.iter().zip(b).map(|(x, y)| x - t * y).collect();
                let pen = penalty(&cand, sizes);
                if pen < best_pen {
                    best_pen = pen;
                    best_t = t;
                }
            }
            if best_t != 0 {
                for (x, y) in p.iter_mut().zip(b) {
                    *x -= best_t * y;
                }
            }
        }
    }

    // Enumerate lattice coefficients in a window; dimensions beyond the
    // first four stay at zero (LEGO loop nests are shallow, so the reduced
    // basis dimensions beyond that never help).
    let dims = basis.len().min(4);
    let range: i64 = match dims {
        0 => 0,
        1 => 12,
        2 => 8,
        3 => 6,
        _ => 4,
    };
    let mut best: Option<(i64, i64, Vec<i64>)> = None; // (gap, l1, Δt)
    let mut k = vec![0i64; dims];
    loop {
        let mut cand = p.clone();
        for (ki, b) in k.iter().zip(basis) {
            if *ki != 0 {
                for (x, y) in cand.iter_mut().zip(b) {
                    *x += ki * y;
                }
            }
        }
        let in_box = cand.iter().zip(sizes).all(|(x, &r)| x.abs() < r);
        if in_box {
            let gap = scalar_gap(&cand, sizes);
            if gap >= min_gap {
                let l1: i64 = cand.iter().map(|x| x.abs()).sum();
                if best
                    .as_ref()
                    .is_none_or(|(bg, bl, _)| (gap, l1) < (*bg, *bl))
                {
                    best = Some((gap, l1, cand));
                }
            }
        }
        // Odometer over k.
        let mut d = 0;
        loop {
            if d == dims {
                return best.map(|(gap, _, dt)| {
                    debug_assert_eq!(m.mul_vec(&dt), rhs.to_vec());
                    (dt, gap)
                });
            }
            k[d] += 1;
            if k[d] <= range {
                break;
            }
            k[d] = -range;
            d += 1;
        }
    }
}

/// Out-of-box violation plus a small norm term, used by the reduction.
fn penalty(v: &[i64], sizes: &[i64]) -> i64 {
    let mut pen = 0i64;
    for (x, r) in v.iter().zip(sizes) {
        let excess = (x.abs() - (r - 1)).max(0);
        pen += excess * 1_000 + x.abs();
    }
    pen
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_ir::kernels::{self, dataflows};
    use lego_ir::DataflowBuilder;

    #[test]
    fn figure3_gemm_systolic_solutions() {
        let gemm = kernels::gemm(8, 4, 4);
        let df = dataflows::gemm_kj(&gemm, 2);
        // Tensor X = [i, k]: invariant along s_j.
        let x = gemm.access("X").unwrap();
        let sols = analyze_tensor(&df, x, 1);
        let direct: Vec<_> = sols
            .iter()
            .filter(|s| s.kind == ReuseKind::Direct)
            .collect();
        // (0,1) kept with depth 1 (systolic); (0,-1) has Δt_bias = -1 and is
        // realized instead through the delay equation: advancing the j loop
        // by one (2 cycles here, k is innermost) minus the bias → depth 1.
        assert!(direct
            .iter()
            .any(|s| s.delta_s == vec![0, 1] && s.depth == 1));
        assert!(!direct.iter().any(|s| s.delta_s == vec![0, -1]));
        let back = sols
            .iter()
            .find(|s| s.delta_s == vec![0, -1] && s.kind == ReuseKind::Delay)
            .expect("backward reuse via delay");
        assert_eq!(back.depth, 1);

        // Tensor Y = [i, j]: invariant along s_k → reduction along k.
        let y = gemm.access("Y").unwrap();
        let sols = analyze_tensor(&df, y, 1);
        assert!(sols
            .iter()
            .any(|s| s.kind == ReuseKind::Direct && s.delta_s == vec![1, 0] && s.depth == 1));

        // Tensor W = [k, j]: no spatial reuse at all (fully partitioned),
        // but W is stationary over the i loop.
        let w = gemm.access("W").unwrap();
        let sols = analyze_tensor(&df, w, 1);
        assert!(
            sols.iter().all(|s| s.delta_s.iter().all(|&d| d == 0)),
            "unexpected spatial reuse for W: {sols:?}"
        );
        assert!(sols.iter().any(|s| s.kind == ReuseKind::Stationary));
    }

    #[test]
    fn paper_tiling_backward_reuse_needs_full_tile_revisit() {
        // With the paper's exact Figure 3 tiling, X's backward reuse along
        // −j only recurs when the j loop advances: gap = R0_k·R0_i = 8
        // cycles, minus the systolic bias −1 → a 7-deep FIFO. The cheap
        // forward direct wire (depth 1) is what the MST will pick instead.
        let gemm = kernels::gemm(8, 4, 4);
        let df = DataflowBuilder::new(&gemm)
            .par("k", 2)
            .par("j", 2)
            .seq("i", 2) // t1_i
            .seq("j", 2) // t0_j
            .seq("k", 2) // t0_k
            .seq("i", 4) // t0_i (innermost)
            .control(vec![1, 1])
            .build("fig3")
            .unwrap();
        let x = gemm.access("X").unwrap();
        let sols = analyze_tensor(&df, x, 1);
        let back = sols
            .iter()
            .find(|s| s.delta_s == vec![0, -1] && s.kind == ReuseKind::Delay)
            .expect("backward reuse via delay");
        assert_eq!(back.depth, 7);
        assert_eq!(back.delta_t, vec![0, 1, 0, 0]);
        let fwd = sols
            .iter()
            .find(|s| s.delta_s == vec![0, 1] && s.kind == ReuseKind::Direct)
            .expect("forward systolic wire");
        assert_eq!(fwd.depth, 1);
    }

    #[test]
    fn figure4_conv_ohow_solutions() {
        // ShiDianNao: spatial [ow, oh], broadcast control c = [0,0].
        let conv = kernels::conv2d(1, 2, 2, 4, 4, 3, 3, 1);
        let df = dataflows::conv_ohow(&conv, 2);
        // W = [oc, ic, kh, kw]: invariant along both spatial dims → direct
        // interconnections in all four directions (depth 0).
        let w = conv.access("W").unwrap();
        let sols = analyze_tensor(&df, w, 1);
        for ds in [[0, 1], [0, -1], [1, 0], [-1, 0]] {
            assert!(
                sols.iter()
                    .any(|s| s.kind == ReuseKind::Direct && s.delta_s == ds && s.depth == 0),
                "missing direct solution {ds:?}"
            );
        }

        // X = [n, ic, oh+kh, ow+kw]: moving one FU along s_oh is compensated
        // by kh → delay interconnection (Figure 4's table) with positive
        // depth (the kh loop advances by one).
        let x = conv.access("X").unwrap();
        let sols = analyze_tensor(&df, x, 1);
        let delayed: Vec<_> = sols
            .iter()
            .filter(|s| s.kind == ReuseKind::Delay && s.delta_s == vec![0, -1])
            .collect();
        assert_eq!(delayed.len(), 1, "{sols:?}");
        assert!(delayed[0].depth > 0, "got {:?}", delayed[0]);
        // The shift advances kh by exactly one.
        let kh_slot = 5; // temporal order [n, oc, ic, oh, ow, kh, kw]
        assert_eq!(delayed[0].delta_t[kh_slot], 1, "{:?}", delayed[0]);

        // Y = [n, oc, oh, ow]: output moves with the array → no spatial
        // reuse; accumulation is stationary over ic/kh/kw.
        let y = conv.access("Y").unwrap();
        let sols = analyze_tensor(&df, y, 1);
        assert!(sols.iter().all(|s| s.kind == ReuseKind::Stationary));
    }

    #[test]
    fn broadcast_gemm_ij_shares_x_along_j() {
        let gemm = kernels::gemm(4, 4, 4);
        let df = dataflows::gemm_ij(&gemm, 2);
        let x = gemm.access("X").unwrap();
        let sols = analyze_tensor(&df, x, 1);
        // X = [i, k] is invariant along s_j (axis 1): both directions direct
        // with depth 0 (true broadcast, c = 0).
        assert!(sols
            .iter()
            .any(|s| s.kind == ReuseKind::Direct && s.delta_s == vec![0, 1] && s.depth == 0));
        assert!(sols
            .iter()
            .any(|s| s.kind == ReuseKind::Direct && s.delta_s == vec![0, -1] && s.depth == 0));
    }

    #[test]
    fn stationary_output_detected_for_ij() {
        let gemm = kernels::gemm(4, 4, 4);
        let df = dataflows::gemm_ij(&gemm, 2);
        let y = gemm.access("Y").unwrap();
        let sols = analyze_tensor(&df, y, 1);
        // Output-stationary: Y reused across the whole k loop.
        assert!(sols
            .iter()
            .any(|s| s.kind == ReuseKind::Stationary && s.depth == 1));
    }

    #[test]
    fn depth_respects_larger_distance() {
        let gemm = kernels::gemm(4, 4, 4);
        let df = dataflows::gemm_ij(&gemm, 4);
        let x = gemm.access("X").unwrap();
        let sols = analyze_tensor(&df, x, 2);
        // Distance-2 jumps along j are also valid reuse.
        assert!(sols
            .iter()
            .any(|s| s.kind == ReuseKind::Direct && s.delta_s == vec![0, 2]));
    }

    #[test]
    fn scalar_gap_is_mixed_radix() {
        assert_eq!(scalar_gap(&[0, 0, 1], &[2, 3, 4]), 1);
        assert_eq!(scalar_gap(&[0, 1, 0], &[2, 3, 4]), 4);
        assert_eq!(scalar_gap(&[1, 0, 0], &[2, 3, 4]), 12);
        assert_eq!(scalar_gap(&[1, -1, 2], &[2, 3, 4]), 12 - 4 + 2);
    }

    #[test]
    fn out_of_box_shifts_rejected() {
        // A shift that algebraically exists but exceeds the loop bounds must
        // not be reported: gemm with tiny loops where the only solution
        // would need |Δt| ≥ R.
        let gemm = kernels::gemm(2, 2, 2);
        let df = dataflows::gemm_ij(&gemm, 2);
        let x = gemm.access("X").unwrap();
        let sols = analyze_tensor(&df, x, 1);
        for s in &sols {
            for (dt, r) in s.delta_t.iter().zip(&df.temporal_sizes) {
                assert!(dt.abs() < *r, "out-of-box Δt in {s:?}");
            }
        }
    }

    #[test]
    fn all_solutions_satisfy_reuse_equation() {
        // Defining property (Equations 6-7) checked exhaustively across
        // kernels and dataflows.
        let cases: Vec<(lego_ir::Workload, lego_ir::Dataflow)> = vec![
            {
                let w = kernels::gemm(8, 4, 4);
                let d = dataflows::gemm_kj(&w, 2);
                (w, d)
            },
            {
                let w = kernels::conv2d(1, 2, 2, 4, 4, 3, 3, 1);
                let d = dataflows::conv_ohow(&w, 2);
                (w, d)
            },
            {
                let w = kernels::mttkrp(4, 4, 4, 4);
                let d = dataflows::mttkrp_kj(&w, 2);
                (w, d)
            },
        ];
        for (w, df) in &cases {
            for access in &w.accesses {
                for s in analyze_tensor(df, access, 1) {
                    let lhs = df.m_td(access).mul_vec(&s.delta_t);
                    let rhs = df.m_sd(access).mul_vec(&s.delta_s);
                    for (a, b) in lhs.iter().zip(&rhs) {
                        assert_eq!(a + b, 0, "reuse equation violated: {s:?}");
                    }
                    assert!(s.depth >= 0, "negative absolute delay: {s:?}");
                }
            }
        }
    }

    #[test]
    fn interleaved_temporal_order_affects_depth() {
        // Same spatial layout, different loop orders: the FIFO depth of the
        // X delay connection follows the position of kh in the loop nest.
        let conv = kernels::conv2d(1, 1, 1, 4, 4, 3, 3, 1);
        let inner = DataflowBuilder::new(&conv)
            .par("ow", 2)
            .par("oh", 2)
            .seq("kw", 3)
            .seq("kh", 3) // kh innermost → small gap
            .build("kh-inner")
            .unwrap();
        let outer = DataflowBuilder::new(&conv)
            .par("ow", 2)
            .par("oh", 2)
            .seq("kh", 3) // kh outermost of the declared pair → larger gap
            .seq("kw", 3)
            .build("kh-outer")
            .unwrap();
        let x = conv.access("X").unwrap();
        let d_inner = analyze_tensor(&inner, x, 1)
            .into_iter()
            .find(|s| s.kind == ReuseKind::Delay && s.delta_s == vec![0, -1])
            .expect("delay solution");
        let d_outer = analyze_tensor(&outer, x, 1)
            .into_iter()
            .find(|s| s.kind == ReuseKind::Delay && s.delta_s == vec![0, -1])
            .expect("delay solution");
        assert!(
            d_inner.depth < d_outer.depth,
            "inner {} vs outer {}",
            d_inner.depth,
            d_outer.depth
        );
    }
}
