//! End-to-end neural-network evaluation (paper Figure 11): price every
//! layer of MobileNetV2 on the Gemmini-comparable LEGO configuration
//! through the canonical `EvalSession` request/response API, watch the
//! mapper switch dataflows per layer, and compare against the Gemmini
//! baseline.
//!
//! Run with: `cargo run --release --example end_to_end_nn`

use lego::baselines::simulate_model_gemmini;
use lego::eval::{EvalRequest, EvalSession};
use lego::model::HwConfig;
use lego::model::TechModel;
use lego::workloads::zoo;

fn main() {
    let tech = TechModel::default();
    let hw = HwConfig::lego_256();
    let model = zoo::mobilenet_v2();

    let session = EvalSession::new();
    let request = EvalRequest::new(model.clone(), hw.clone());
    request
        .validate()
        .expect("zoo model on stock hardware is a valid request");
    let report = session.evaluate(&request);
    println!(
        "MobileNetV2 on LEGO-256: {:.0} GOP/s at {:.0} GOPS/W ({:.1}% utilization)",
        report.model.gops,
        report.model.gops_per_watt,
        100.0 * report.model.utilization
    );
    println!(
        "per-layer dataflow choices: {:?}",
        report.dataflow_histogram()
    );

    // Show a few interesting layers: depthwise picks OHOW, pointwise ICOC.
    for l in report.per_layer.iter().filter(|l| l.name.contains("b3.0")) {
        println!(
            "  {:<18} -> {:<5} {:>9} cycles, util {:.2}",
            l.name,
            l.perf.mapping.name(),
            l.perf.cycles,
            l.perf.utilization
        );
    }

    let gemmini = simulate_model_gemmini(&model, &tech);
    println!(
        "Gemmini baseline: {:.0} GOP/s at {:.0} GOPS/W",
        gemmini.gops, gemmini.gops_per_watt
    );
    println!(
        "LEGO speedup: {:.1}x, energy-efficiency gain: {:.1}x (paper MobileNetV2: ~12.9x / ~9.6x)",
        report.model.gops / gemmini.gops,
        report.model.gops_per_watt / gemmini.gops_per_watt
    );
}
