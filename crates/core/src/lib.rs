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
//!
//! Pricing a workload on a configuration is `lego_eval::EvalSession`'s
//! job and searching the configuration space is `lego_explorer`'s; this
//! crate only generates.

use lego_backend::{lower, optimize, BackendConfig, Dag, OptimizeOptions, OptimizeReport};
use lego_frontend::{build_adg, Adg, FrontendConfig, FrontendError};
use lego_ir::{tensor::TensorData, Dataflow, Workload};
use lego_model::{dag_cost, DagCost, TechModel};
use lego_rtl::{emit_verilog, simulate, SimOutput};

/// Builder for generating a spatial accelerator from a tensor workload.
#[derive(Debug, Clone)]
pub struct Lego {
    workload: Workload,
    dataflows: Vec<Dataflow>,
}

impl Lego {
    /// Starts a generation session for one workload.
    pub fn new(workload: Workload) -> Self {
        Lego {
            workload,
            dataflows: Vec::new(),
        }
    }

    /// Adds a spatial dataflow (call several times to fuse designs).
    #[must_use]
    pub fn dataflow(mut self, df: Dataflow) -> Self {
        self.dataflows.push(df);
        self
    }

    /// Runs the full pipeline: interconnect planning, memory synthesis,
    /// lowering, and every back-end optimization pass.
    ///
    /// # Errors
    ///
    /// Propagates [`FrontendError`] for invalid dataflow combinations.
    pub fn generate(&self) -> Result<Design, FrontendError> {
        let adg = build_adg(&self.workload, &self.dataflows, &FrontendConfig::default())?;
        let mut dag = lower(&adg, &BackendConfig::default());
        let report = optimize(&mut dag, &OptimizeOptions::default());
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
    /// Cost after mandatory delay matching and after optimization.
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
    /// This executes the ADG (`self.adg`), not the lowered and optimized
    /// DAG and not the emitted Verilog: nothing here checks that the
    /// Verilog computes what the ADG does.
    ///
    /// # Panics
    ///
    /// Panics if `df` is out of range or the inputs mismatch the workload in
    /// count or shape (`"shape mismatch"`, as `reference_execute` does).
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
}
