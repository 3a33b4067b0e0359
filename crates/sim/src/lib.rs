//! Performance and energy simulator for LEGO designs (paper §VI-A).
//!
//! The paper pairs its generator with a fast performance model for the FU
//! array, memory system and NoC, verified against RTL simulation, and uses
//! it both for evaluation and to drive the mapping search. This crate is
//! that model: analytic cycle counts from spatial utilization and DRAM
//! traffic (double-buffered, so compute and memory overlap), an energy
//! roll-up from access counts, and a post-processing-unit model for the
//! non-tensor operators (Figure 12b).
//!
//! All costs are priced through the unified cost stack in `lego-model`:
//! a [`lego_model::CostContext`] is built once per
//! [`HwConfig`](lego_model::HwConfig) and consumed by
//! [`simulate_layer_ctx`] / [`best_mapping_ctx`]. Multi-cluster
//! configurations charge modeled L2 wormhole-mesh *latency* (serialized
//! head cycles plus a stream that competes with the compute/memory body),
//! not just transport energy, so the cluster axis is an honest
//! latency/energy/area trade-off.
//!
//! `HwConfig`, `SpatialMapping` and the rest of the configuration live in
//! `lego-model` (the configuration is what the cost stack prices); import
//! them from there.

pub mod perf;

pub use perf::{
    aggregate_iter, best_mapping_ctx, simulate_layer_ctx, tiled_dram_traffic, EnergyBreakdown,
    LayerPerf, ModelPerf,
};
#[cfg(test)]
mod tests {
    use lego_model::HwConfig;

    #[test]
    fn reference_configs() {
        assert_eq!(HwConfig::lego_256().num_fus(), 256);
        assert_eq!(HwConfig::lego_icoc_1k().num_fus(), 1024);
    }

    #[test]
    fn clusters_multiply_fus() {
        let mut hw = HwConfig::lego_256();
        hw.clusters = (2, 3);
        assert_eq!(hw.num_fus(), 256 * 6);
        assert_eq!(hw.l2_mesh().routers(), 6);
    }
}
