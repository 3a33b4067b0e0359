//! Quickstart: the two halves of LEGO in one sitting.
//!
//! 1. **Evaluate** — price a whole network on a hardware configuration
//!    through the canonical request/response API (`EvalRequest` in,
//!    `EvalReport` out; the request is serializable, so the same bytes
//!    evaluate identically on any host).
//! 2. **Generate** — produce the paper's Figure 3 design (a 2×2 systolic
//!    GEMM array), verify it functionally, and emit Verilog.
//!
//! Along the way: attach a deterministic `Obs` handle to the session to
//! see where an evaluation spends its work without perturbing any result.
//!
//! Run with: `cargo run --example quickstart`

use lego::core::Lego;
use lego::eval::{EvalRequest, EvalSession};
use lego::ir::kernels::{self, dataflows};
use lego::ir::{tensor::reference_execute, TensorData};
use lego::model::HwConfig;
use lego::model::TechModel;
use lego::obs::Obs;

fn main() {
    // ── 1. Evaluate a workload on a configuration ──────────────────────
    // One session owns the cost model, the memoized evaluation cache, and
    // batch threading; requests describe *what* to price.
    let session = EvalSession::new();
    let request = EvalRequest::new(lego::workloads::zoo::resnet50(), HwConfig::lego_256());
    request
        .validate()
        .expect("zoo model on stock hardware is a valid request");
    let report = session.evaluate(&request);
    println!(
        "ResNet50 on LEGO-256: {:.0} GOP/s at {:.0} GOPS/W, {:.2} mm^2, EDP {:.3e}",
        report.model.gops,
        report.model.gops_per_watt,
        report.cost.objectives.area_um2 / 1e6,
        report.cost.edp(),
    );
    println!(
        "per-layer dataflow choices: {:?}",
        report.dataflow_histogram()
    );

    // Requests and reports are versioned wire payloads: encode → decode →
    // re-evaluate reproduces the report bit-for-bit on any host. A fresh
    // session matches the sender's cold cache, which provenance records.
    let wire = request.encode();
    let decoded = EvalRequest::decode(&wire).expect("own encoding decodes");
    assert_eq!(EvalSession::new().evaluate(&decoded), report);
    println!(
        "request round-trips through {} bytes (fingerprint {:#018x})",
        wire.len(),
        request.fingerprint(),
    );

    // ── Observability ──────────────────────────────────────────────────
    // Attach an `Obs` handle to see where the evaluation spends its work.
    // `Obs::deterministic()` counts work but never reads the clock, so the
    // rendered summary is byte-identical across runs; instrumentation never
    // changes a report. (`Obs::wall_clock()` fills in real durations.)
    let obs = Obs::deterministic();
    let observed = EvalSession::new().with_obs(obs.clone()).evaluate(&request);
    assert_eq!(observed, report);
    let summary = obs.summary();
    println!(
        "observed: {} request(s), {} layer(s), {} cache misses, {} spans recorded",
        summary.counter("eval.requests"),
        summary.counter("eval.layers"),
        summary.counter("cache.misses"),
        summary.spans.len(),
    );

    // ── 2. Generate the paper's Figure 3 accelerator ───────────────────
    // Describe the workload relation-centrically: GEMM Y += X·W, then pick
    // a spatial dataflow (parallel k and j on a 2×2 systolic array).
    let gemm = kernels::gemm(8, 4, 4);
    let df = dataflows::gemm_kj(&gemm, 2);
    println!(
        "\nDataflow `{}`: {} FUs, {} temporal steps, control {:?}",
        df.name,
        df.num_fus(),
        df.total_steps(),
        df.control
    );
    let design = Lego::new(gemm.clone()).dataflow(df).generate().unwrap();
    println!("{}", design.adg.summary());
    println!("{}", design.dag.summary());

    // Verify cycle-accurately against the reference loop nest.
    let x = TensorData::from_fn(&[8, 4], |i| (i as i64 * 7 + 1) % 13 - 6);
    let w = TensorData::from_fn(&[4, 4], |i| (i as i64 * 5 + 2) % 11 - 5);
    let out = design.simulate(0, &[&x, &w]);
    assert_eq!(out.output, reference_execute(&gemm, &[&x, &w]));
    println!(
        "Verified: output matches the reference ({} FU ops, {} edge deliveries, {} port reads)",
        out.stats.fu_ops, out.stats.edge_deliveries, out.stats.port_reads
    );

    // Cost it and emit Verilog.
    let cost = design.cost(&TechModel::default());
    println!(
        "Cost @28nm: {:.0} um^2 logic, {:.2} mW, {:.0} FF bits",
        cost.area_um2,
        cost.total_mw(),
        cost.ff_bits
    );
    let verilog = design.verilog("gemm_systolic_2x2");
    println!(
        "Emitted {} lines of Verilog (module gemm_systolic_2x2)",
        verilog.lines().count()
    );
}
