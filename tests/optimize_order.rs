//! `optimize` with default options is its public passes in one fixed
//! order. The benchmark's generator workloads time each pass by replaying
//! that order through the public pass functions
//! (`benchmark/src/workloads/gen.rs`, `replay_optimize`), so this test
//! fails the day `optimize` changes order and the replay does not follow.

use lego::backend::passes::{
    apply_power_gating, extract_reduction_trees, infer_bitwidths, match_delays, reuse_pins,
    rewire_broadcasts,
};
use lego::backend::{lower, optimize, BackendConfig, Dag, NodeId, OptimizeOptions, PassStats};
use lego_bench::{harness, kernel_designs};

/// The benchmark's replay: returns the baseline and final stats.
fn replay_optimize(dag: &mut Dag) -> (PassStats, PassStats) {
    fn rematch(dag: &mut Dag) -> PassStats {
        infer_bitwidths(dag);
        match_delays(dag).expect("generated DAG is schedulable");
        PassStats::capture(dag)
    }
    let baseline = rematch(dag);
    extract_reduction_trees(dag);
    rematch(dag);
    rewire_broadcasts(dag);
    reuse_pins(dag);
    rematch(dag);
    apply_power_gating(dag);
    (baseline, PassStats::capture(dag))
}

type EdgeRow = (NodeId, NodeId, u32, i64, Vec<bool>);

fn edges(dag: &Dag) -> Vec<EdgeRow> {
    dag.edges
        .iter()
        .map(|e| (e.from, e.to, e.width, e.extra_regs, e.active.clone()))
        .collect()
}

#[test]
fn optimize_is_its_public_passes_in_order() {
    for d in kernel_designs(8) {
        let adg = harness::adg(&d.workload, &d.dataflows);
        let mut optimized = lower(&adg, &BackendConfig::default());
        let mut replayed = lower(&adg, &BackendConfig::default());
        let report = optimize(&mut optimized, &OptimizeOptions::default());
        let (baseline, final_stats) = replay_optimize(&mut replayed);
        assert_eq!(report.baseline, baseline, "{}", d.name);
        assert_eq!(report.final_stats, final_stats, "{}", d.name);
        assert_eq!(edges(&optimized), edges(&replayed), "{}", d.name);
    }
}
