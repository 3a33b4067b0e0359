//! The top-level LEGO generator API: workload + dataflows in, optimized
//! hardware out.
//!
//! This crate ties the front end (§IV), back end (§V), RTL emission, cost
//! model, and functional simulation together behind one builder:
//!
//! ```
//! use lego_core::Lego;
//! use lego_ir::kernels::{self, dataflows};
//!
//! let gemm = kernels::gemm(8, 4, 4);
//! let design = Lego::new(gemm.clone())
//!     .dataflow(dataflows::gemm_kj(&gemm, 2))
//!     .generate()
//!     .expect("generation succeeds");
//! assert_eq!(design.adg.num_fus, 4);
//! let verilog = design.verilog("gemm_top");
//! assert!(verilog.contains("module gemm_top"));
//! ```

use lego_backend::{lower, optimize, BackendConfig, Dag, OptimizeOptions, OptimizeReport};
use lego_eval::{EvalReport, EvalRequest, EvalSession};
use lego_explorer::{DesignSpace, ExplorationResult, ExploreOptions, ShardedExplorationResult};
use lego_frontend::{build_adg, Adg, FrontendConfig, FrontendError};
use lego_ir::{tensor::TensorData, Dataflow, Workload};
use lego_model::{dag_cost, DagCost, TechModel};
use lego_rtl::{emit_verilog, simulate, SimOutput};
use lego_workloads::Model;

/// Builder for generating a spatial accelerator from a tensor workload.
#[derive(Debug, Clone)]
pub struct Lego {
    workload: Workload,
    dataflows: Vec<Dataflow>,
    options: OptimizeOptions,
}

impl Lego {
    /// Starts a generation session for one workload.
    pub fn new(workload: Workload) -> Self {
        Lego {
            workload,
            dataflows: Vec::new(),
            options: OptimizeOptions::default(),
        }
    }

    /// Adds a spatial dataflow (call several times to fuse designs).
    #[must_use]
    pub fn dataflow(mut self, df: Dataflow) -> Self {
        self.dataflows.push(df);
        self
    }

    /// Selects which optimization passes run.
    #[must_use]
    pub fn optimize_options(mut self, opts: OptimizeOptions) -> Self {
        self.options = opts;
        self
    }

    /// Prices one evaluation request through a one-shot [`EvalSession`] —
    /// the canonical workload-on-configuration evaluation of the stack.
    ///
    /// Sweeps that evaluate many requests should hold their own session
    /// (`EvalSession::new()`) so the memoized evaluation cache and worker
    /// pool are shared; this convenience exists for the single-question
    /// case ("what does ResNet50 cost on this configuration?").
    ///
    /// ```
    /// use lego_core::Lego;
    /// use lego_eval::EvalRequest;
    /// use lego_model::HwConfig;
    ///
    /// let report = Lego::evaluate(&EvalRequest::new(
    ///     lego_workloads::zoo::lenet(),
    ///     HwConfig::lego_256(),
    /// ));
    /// assert!(report.model.gops > 0.0);
    /// ```
    pub fn evaluate(request: &EvalRequest) -> EvalReport {
        EvalSession::new().evaluate(request)
    }

    /// Searches the joint hardware design space (array shape, L2 cluster
    /// grid, buffer, bandwidth, dataflow set, tiling) for `model` with the
    /// standard `lego-explorer` portfolio — exhaustive grid, seeded random
    /// sampling, and a (μ+λ) evolution strategy sharing one memoized cache.
    ///
    /// Every candidate is priced through one `lego_model::CostContext`
    /// (multi-cluster designs pay modeled L2-mesh latency and router
    /// area), and `opts.constraints` applies hard area/power feasibility
    /// budgets before a design may reach the frontier.
    ///
    /// This is the configuration-level complement of [`Lego::generate`]:
    /// explore first to pick a hardware configuration, then generate RTL
    /// for the winner's dataflows. `seed` makes the run reproducible.
    pub fn explore(
        model: &Model,
        space: &DesignSpace,
        seed: u64,
        opts: &ExploreOptions,
    ) -> ExplorationResult {
        let mut strategies = lego_explorer::default_strategies(seed);
        lego_explorer::explore(model, space, &mut strategies, opts)
    }

    /// Like [`Lego::explore`], but splits the space into `shards` disjoint
    /// slices (`DesignSpace::shard`), explores each with its own
    /// seed-split strategy portfolio on the worker thread pool, and merges
    /// the per-shard Pareto frontiers and evaluation caches — the
    /// in-process form of the distributed shard → checkpoint → merge
    /// workflow (each shard's result can be serialized with
    /// `ShardRunResult::snapshot` for the cross-process form). For a grid
    /// partition the merged frontier is dominance-equal to what
    /// [`Lego::explore`] finds in one process, provided
    /// `opts.budget_per_strategy` covers the whole space — the budget
    /// applies per shard, so a budget between `size/shards` and `size`
    /// leaves the shards exhaustive while the single process truncates.
    pub fn explore_sharded(
        model: &Model,
        space: &DesignSpace,
        shards: u32,
        seed: u64,
        opts: &ExploreOptions,
    ) -> ShardedExplorationResult {
        lego_explorer::explore_sharded(model, space, shards, seed, opts)
    }

    /// Runs the full pipeline: interconnect planning, memory synthesis,
    /// lowering, and back-end optimization.
    ///
    /// # Errors
    ///
    /// Propagates [`FrontendError`] for invalid dataflow combinations.
    pub fn generate(&self) -> Result<Design, FrontendError> {
        let adg = build_adg(&self.workload, &self.dataflows, &FrontendConfig::default())?;
        let mut dag = lower(&adg, &BackendConfig::default());
        let report = optimize(&mut dag, &self.options);
        Ok(Design { adg, dag, report })
    }
}

/// A generated accelerator design.
#[derive(Debug, Clone)]
pub struct Design {
    /// FU-level architecture description graph.
    pub adg: Adg,
    /// Optimized primitive-level graph.
    pub dag: Dag,
    /// Per-pass optimization statistics (Figures 13/14 raw data).
    pub report: OptimizeReport,
}

impl Design {
    /// Emits synthesizable Verilog for the design.
    pub fn verilog(&self, module: &str) -> String {
        emit_verilog(&self.dag, module)
    }

    /// ASIC/FPGA cost under a technology model.
    pub fn cost(&self, tech: &TechModel) -> DagCost {
        dag_cost(&self.dag, tech, 1.0)
    }

    /// Runs the edge-accurate functional simulation under one dataflow.
    ///
    /// # Panics
    ///
    /// Panics if `df` is out of range or inputs mismatch the workload.
    pub fn simulate(&self, df: usize, inputs: &[&TensorData]) -> SimOutput {
        simulate(&self.adg, df, inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_ir::kernels::{self, dataflows};
    use lego_ir::tensor::reference_execute;

    #[test]
    fn end_to_end_generation_and_verification() {
        let gemm = kernels::gemm(8, 4, 4);
        let design = Lego::new(gemm.clone())
            .dataflow(dataflows::gemm_kj(&gemm, 2))
            .generate()
            .unwrap();
        design.dag.check().unwrap();

        let x = TensorData::from_fn(&[8, 4], |i| i as i64 % 7 - 3);
        let w = TensorData::from_fn(&[4, 4], |i| i as i64 % 5 - 2);
        let out = design.simulate(0, &[&x, &w]);
        let expect = reference_execute(&gemm, &[&x, &w]);
        assert_eq!(out.output, expect);

        let cost = design.cost(&TechModel::default());
        assert!(cost.area_um2 > 0.0);
    }

    #[test]
    fn fused_design_generates() {
        let gemm = kernels::gemm(8, 8, 8);
        let design = Lego::new(gemm.clone())
            .dataflow(dataflows::gemm_ij(&gemm, 2))
            .dataflow(dataflows::gemm_kj(&gemm, 2))
            .generate()
            .unwrap();
        assert_eq!(design.adg.dataflows.len(), 2);
        assert!(design.report.final_stats.register_bits <= design.report.baseline.register_bits);
    }

    #[test]
    fn explore_finds_a_design_for_lenet() {
        let result = Lego::explore(
            &lego_workloads::zoo::lenet(),
            &DesignSpace::tiny(),
            42,
            &lego_explorer::ExploreOptions {
                budget_per_strategy: 16,
                ..Default::default()
            },
        );
        assert!(result.best_by_edp().is_some());
        assert!(result.cache_hits > 0);
    }

    #[test]
    fn explore_sharded_agrees_with_single_process_grid() {
        let model = lego_workloads::zoo::lenet();
        let space = DesignSpace::tiny();
        // Budget covers the whole space, so the grid strategy inside each
        // portfolio is exhaustive over its shard and the union frontier
        // must be dominance-equal to the single-process one.
        let opts = lego_explorer::ExploreOptions::default();
        let single = Lego::explore(&model, &space, 42, &opts);
        let sharded = Lego::explore_sharded(&model, &space, 4, 42, &opts);
        assert!(sharded.frontier.dominance_equal(&single.frontier));
        assert_eq!(
            sharded.best_by_edp().unwrap().genome,
            single.best_by_edp().unwrap().genome
        );
        assert_eq!(sharded.shards.len(), 4);
    }

    #[test]
    fn baseline_options_respected() {
        let gemm = kernels::gemm(4, 4, 4);
        let design = Lego::new(gemm.clone())
            .dataflow(dataflows::gemm_ij(&gemm, 2))
            .optimize_options(OptimizeOptions::baseline())
            .generate()
            .unwrap();
        assert!(design.report.after_reduction.is_none());
    }
}
