//! Property-based tests of the front end's core guarantees over randomized
//! dataflows: reuse solutions satisfy their defining equations, every FU is
//! fed under every dataflow of a single or fused design, memory plans are
//! conflict-free, and output partial sums always reach a committer.

use std::collections::HashSet;

use lego_frontend::{analyze_tensor, build_adg, memory, FrontendConfig};
use lego_ir::{kernels, Dataflow, DataflowBuilder, TensorRole, Workload};
use proptest::prelude::*;

fn gemm_dataflow_strategy() -> impl Strategy<Value = (lego_ir::Workload, lego_ir::Dataflow)> {
    // Random GEMM shape with random divisor parallelization and control.
    (
        1usize..3,
        1usize..3,
        1usize..3,
        0usize..2,
        0usize..2,
        proptest::bool::ANY,
    )
        .prop_map(|(mi, ni, ki, pi, pj, systolic)| {
            let dims = [4i64, 8];
            let (m, n, k) = (dims[mi % 2], dims[ni % 2], dims[ki % 2]);
            let g = kernels::gemm(m, n, k);
            let ps = [2i64, 4];
            let p_i = ps[pi].min(m);
            let p_j = ps[pj].min(n);
            let c = if systolic { vec![1, 1] } else { vec![0, 0] };
            let df = DataflowBuilder::new(&g)
                .par("i", p_i)
                .par("j", p_j)
                .control(c)
                .build("rand")
                .expect("divisor parallelization is valid");
            (g, df)
        })
}

/// A random GEMM dataflow alone or, when `fused`, paired with a second one
/// that parallelizes two of `i`, `j`, `k` by the first one's factors, so
/// both run on the same FUs.
fn gemm_design_strategy() -> impl Strategy<Value = (Workload, Vec<Dataflow>)> {
    (
        gemm_dataflow_strategy(),
        0usize..3,
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|((g, df), dims, swap, systolic, fused)| {
            let [a, b] = [["i", "j"], ["i", "k"], ["k", "j"]][dims];
            let [mut pa, mut pb] = [df.spatial_sizes[0], df.spatial_sizes[1]];
            if swap {
                std::mem::swap(&mut pa, &mut pb);
            }
            let second = DataflowBuilder::new(&g)
                .par(a, pa)
                .par(b, pb)
                .control(if systolic { vec![1, 1] } else { vec![0, 0] })
                .build("rand2")
                .expect("divisor parallelization is valid");
            let dfs = if fused { vec![df, second] } else { vec![df] };
            (g, dfs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reuse_solutions_satisfy_equations((w, df) in gemm_dataflow_strategy()) {
        for access in &w.accesses {
            for s in analyze_tensor(&df, access, 1) {
                // M_td·Δt + M_sd·Δs = 0 (Equations 6-7).
                let lhs = df.m_td(access).mul_vec(&s.delta_t);
                let rhs = df.m_sd(access).mul_vec(&s.delta_s);
                for (a, b) in lhs.iter().zip(&rhs) {
                    prop_assert_eq!(a + b, 0);
                }
                // Physically realizable: non-negative absolute delay and
                // in-bounds temporal shift.
                prop_assert!(s.depth >= 0);
                for (dt, r) in s.delta_t.iter().zip(&df.temporal_sizes) {
                    prop_assert!(dt.abs() < *r);
                }
            }
        }
    }

    #[test]
    fn every_fu_is_fed_and_outputs_drain((w, dfs) in gemm_design_strategy()) {
        let adg = build_adg(&w, &dfs, &FrontendConfig::default()).unwrap();
        // Each dataflow on its own: only the ports and edges active in it.
        for k in 0..dfs.len() {
            for plan in &adg.tensors {
                let ports: HashSet<usize> = plan.data_nodes_in(k).map(|d| d.fu).collect();
                let edges = || adg.edges_for(&plan.tensor).filter(|e| e.active_in(k));
                if plan.role == TensorRole::Input {
                    // Reachability from ports over the tensor's edges.
                    let mut fed = ports;
                    let mut changed = true;
                    while changed {
                        changed = false;
                        for e in edges() {
                            if fed.contains(&e.from) && fed.insert(e.to) {
                                changed = true;
                            }
                        }
                    }
                    prop_assert_eq!(fed.len(), adg.num_fus, "{} in dataflow {}", plan.tensor, k);
                } else {
                    // Every FU's partial sums reach a committer acyclically.
                    for start in 0..adg.num_fus {
                        let mut cur = start;
                        let mut steps = 0;
                        while !ports.contains(&cur) {
                            let next = edges().find(|e| e.from == cur);
                            prop_assert!(next.is_some(), "FU {cur} cannot drain in dataflow {k}");
                            cur = next.unwrap().to;
                            steps += 1;
                            prop_assert!(steps <= adg.num_fus, "cycle in drain path");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn memory_plans_have_no_bank_conflicts((w, df) in gemm_dataflow_strategy()) {
        let adg = build_adg(&w, std::slice::from_ref(&df), &FrontendConfig::default()).unwrap();
        for plan in &adg.tensors {
            let access = w.access(&plan.tensor).unwrap();
            let coords: Vec<Vec<i64>> = plan
                .data_nodes_in(0)
                .map(|d| df.fu_coords()[d.fu].clone())
                .collect();
            prop_assert!(memory::conflict_free(
                &df,
                access,
                &coords,
                &plan.memory.per_dataflow[0]
            ));
        }
    }

    #[test]
    fn fifo_depth_bound_by_tile_volume((w, df) in gemm_dataflow_strategy()) {
        // A reuse FIFO can never need to hold more than one full temporal
        // tile of data.
        let adg = build_adg(&w, std::slice::from_ref(&df), &FrontendConfig::default()).unwrap();
        let total = df.total_steps();
        for e in &adg.edges {
            prop_assert!(e.max_depth() <= total, "{e:?} deeper than a tile");
        }
    }
}
