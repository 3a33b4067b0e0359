//! Property-based tests of the front end's core guarantees over randomized
//! dataflows: reuse solutions satisfy their defining equations, every FU is
//! fed under every dataflow, memory plans are conflict-free, and output
//! partial sums always reach a committer.

use lego_frontend::{analyze_tensor, build_adg, memory, FrontendConfig};
use lego_ir::{kernels, DataflowBuilder, TensorRole};
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
    fn every_fu_is_fed_and_outputs_drain((w, df) in gemm_dataflow_strategy()) {
        let adg = build_adg(&w, &[df], &FrontendConfig::default()).unwrap();
        for plan in &adg.tensors {
            if plan.role == TensorRole::Input {
                // Reachability from ports over the tensor's edges.
                let mut fed: std::collections::HashSet<usize> =
                    plan.data_nodes.iter().map(|d| d.fu).collect();
                let mut changed = true;
                while changed {
                    changed = false;
                    for e in adg.edges_for(&plan.tensor) {
                        if fed.contains(&e.from) && fed.insert(e.to) {
                            changed = true;
                        }
                    }
                }
                prop_assert_eq!(fed.len(), adg.num_fus);
            } else {
                // Every FU's partial sums reach a committer acyclically.
                let committers: std::collections::HashSet<usize> =
                    plan.data_nodes.iter().map(|d| d.fu).collect();
                for start in 0..adg.num_fus {
                    let mut cur = start;
                    let mut steps = 0;
                    while !committers.contains(&cur) {
                        let next = adg
                            .edges_for(&plan.tensor)
                            .find(|e| e.from == cur);
                        prop_assert!(next.is_some(), "FU {cur} cannot drain");
                        cur = next.unwrap().to;
                        steps += 1;
                        prop_assert!(steps <= adg.num_fus, "cycle in drain path");
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
