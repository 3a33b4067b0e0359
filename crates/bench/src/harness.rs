//! Shared harness for the table/figure binaries: pretty-printing, the one
//! evaluation entry point and the one generate-and-price path.
//!
//! Every binary that prices a workload on a configuration builds an
//! [`EvalRequest`] and prices it through one [`EvalSession`], so repeated
//! model/hardware pairs share the memoized cache and every table exercises
//! the same API a multi-host driver would ship over the wire. Every table
//! that prices generated hardware goes [`adg`] → [`price`].

use lego_backend::{lower, optimize, BackendConfig, OptimizeOptions};
use lego_eval::{EvalReport, EvalRequest, EvalSession};
use lego_frontend::{build_adg, Adg, FrontendConfig};
use lego_ir::{Dataflow, Workload};
use lego_model::{dag_cost, DagCost, TechModel};
use lego_model::{HwConfig, SpatialMapping};
use lego_workloads::Model;

/// Prices `model` on `hw` under `tech` through the shared request/response
/// evaluation layer.
pub fn evaluate(
    session: &EvalSession,
    model: &Model,
    hw: &HwConfig,
    tech: &TechModel,
) -> EvalReport {
    let request = EvalRequest::new(model.clone(), hw.clone()).with_tech(*tech);
    request.validate().expect("table inputs are valid requests");
    session.evaluate(&request)
}

/// Front end with the default configuration: the ADG of `workload` with
/// `dataflows` fused into it.
///
/// # Panics
///
/// Panics if the dataflows do not form a valid design; the tables only name
/// valid ones.
pub fn adg(workload: &Workload, dataflows: &[Dataflow]) -> Adg {
    build_adg(workload, dataflows, &FrontendConfig::default()).expect("table designs are valid")
}

/// Back end and cost model: lowers `adg`, runs the passes `opts` selects and
/// prices the result under `tech` at the given switching `activity`.
pub fn price(adg: &Adg, opts: &OptimizeOptions, tech: &TechModel, activity: f64) -> DagCost {
    let mut dag = lower(adg, &BackendConfig::default());
    optimize(&mut dag, opts);
    dag_cost(&dag, tech, activity)
}

/// The 16-FU LEGO-MNICOC-Tiny of the SODA comparison (Tables VI and VII).
pub fn mnicoc_tiny() -> HwConfig {
    HwConfig {
        array: (4, 4),
        clusters: (1, 1),
        buffer_kb: 64,
        dram_gbps: 8.0,
        num_ppus: 4,
        dataflows: vec![
            SpatialMapping::GemmMN,
            SpatialMapping::ConvIcOc,
            SpatialMapping::ConvOhOw,
        ],
        static_mw: 18.0,
        dynamic_mw: 70.0,
    }
}

/// FreePDK 45 nm at 500 MHz, the SODA comparison's technology point.
pub fn tech_45nm() -> TechModel {
    let mut tech = TechModel::default().scaled_to(45.0);
    tech.freq_ghz = 0.5;
    tech
}

/// Prints a row of right-aligned cells under a fixed-width layout.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Formats a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Prints a section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}
