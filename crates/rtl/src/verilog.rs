//! Structural Verilog-2001 emission from the backend DAG.
//!
//! Each DAG node becomes a localized block (continuous assignment or a
//! clocked `always` block); each edge becomes a wire, with the pipeline
//! registers from delay matching expanded into shift stages. Mux selects
//! and FIFO depths hang off a `cfg_dataflow` configuration register, so one
//! emitted module serves every fused dataflow — exactly the paper's
//! "programmable during runtime" semantics.

use std::fmt::Write as _;

use lego_backend::{Dag, Prim};

/// Emits a self-contained Verilog module named `top` for the DAG.
///
/// The output is deterministic for a given DAG, which the tests rely on.
///
/// # Examples
///
/// ```
/// use lego_backend::{lower, BackendConfig};
/// use lego_frontend::{build_adg, FrontendConfig};
/// use lego_ir::kernels::{self, dataflows};
///
/// let gemm = kernels::gemm(4, 4, 4);
/// let df = dataflows::gemm_ij(&gemm, 2);
/// let adg = build_adg(&gemm, &[df], &FrontendConfig::default()).unwrap();
/// let dag = lower(&adg, &BackendConfig::default());
/// let v = lego_rtl::emit_verilog(&dag, "lego_top");
/// assert!(v.contains("module lego_top"));
/// assert!(v.trim_end().ends_with("endmodule"));
/// ```
pub fn emit_verilog(dag: &Dag, module: &str) -> String {
    let mut v = String::new();
    let _ = writeln!(v, "// Generated by the LEGO reproduction back end.");
    let _ = writeln!(v, "// {}", dag.summary());
    let _ = writeln!(v, "module {module} (");
    let _ = writeln!(v, "  input  wire clk,");
    let _ = writeln!(v, "  input  wire rst,");
    let _ = writeln!(
        v,
        "  input  wire [{}:0] cfg_dataflow,",
        bits_for(dag.n_dataflows) - 1
    );

    // Ports: one data input per ReadPort, one data output per WritePort.
    let mut ports = Vec::new();
    for (id, n) in dag.nodes.iter().enumerate() {
        match &n.prim {
            Prim::ReadPort { .. } => {
                ports.push(format!(
                    "  input  wire [{}:0] in_{id} /* {} */",
                    n.width.max(1) - 1,
                    n.label
                ));
            }
            Prim::WritePort { .. } => {
                ports.push(format!(
                    "  output wire [{}:0] out_{id} /* {} */",
                    n.width.max(1) - 1,
                    n.label
                ));
            }
            _ => {}
        }
    }
    let _ = writeln!(v, "{}", ports.join(",\n"));
    let _ = writeln!(v, ");");

    // One wire per node output; pipeline stages per edge.
    for (id, n) in dag.nodes.iter().enumerate() {
        let w = n.width.max(1) - 1;
        let _ = writeln!(v, "  wire [{w}:0] n{id}; // {}", n.label);
    }
    for (ei, e) in dag.edges.iter().enumerate() {
        let w = e.width.max(1) - 1;
        if e.extra_regs > 0 {
            let _ = writeln!(v, "  reg  [{w}:0] e{ei}_pipe [0:{}];", e.extra_regs - 1);
            let _ = writeln!(v, "  wire [{w}:0] e{ei};");
            let _ = writeln!(v, "  always @(posedge clk) begin");
            let _ = writeln!(v, "    e{ei}_pipe[0] <= n{};", e.from);
            for s in 1..e.extra_regs {
                let _ = writeln!(v, "    e{ei}_pipe[{s}] <= e{ei}_pipe[{}];", s - 1);
            }
            let _ = writeln!(v, "  end");
            let _ = writeln!(v, "  assign e{ei} = e{ei}_pipe[{}];", e.extra_regs - 1);
        } else {
            let _ = writeln!(v, "  wire [{w}:0] e{ei} = n{};", e.from);
        }
    }

    // Node logic.
    let index = dag.edge_index();
    for (id, n) in dag.nodes.iter().enumerate() {
        // The lowest-numbered edge into the pin drives it.
        let pin = |p: usize| -> String {
            index
                .ins(id)
                .iter()
                .find(|&&ei| dag.edges[ei].to_pin == p)
                .map(|ei| format!("e{ei}"))
                .unwrap_or_else(|| "'0".to_string())
        };
        match &n.prim {
            Prim::Mul => {
                let _ = writeln!(v, "  reg [{}:0] r{id};", n.width.max(1) - 1);
                let _ = writeln!(
                    v,
                    "  always @(posedge clk) r{id} <= {} * {};",
                    pin(0),
                    pin(1)
                );
                let _ = writeln!(v, "  assign n{id} = r{id};");
            }
            Prim::Add => {
                let _ = writeln!(v, "  reg [{}:0] r{id};", n.width.max(1) - 1);
                if n.accumulate {
                    let _ = writeln!(
                        v,
                        "  always @(posedge clk) r{id} <= rst ? '0 : r{id} + {} + {};",
                        pin(0),
                        pin(1)
                    );
                } else {
                    let _ = writeln!(
                        v,
                        "  always @(posedge clk) r{id} <= {} + {};",
                        pin(0),
                        pin(1)
                    );
                }
                let _ = writeln!(v, "  assign n{id} = r{id};");
            }
            Prim::Shift => {
                let _ = writeln!(v, "  reg [{}:0] r{id};", n.width.max(1) - 1);
                let _ = writeln!(
                    v,
                    "  always @(posedge clk) r{id} <= {} <<< {};",
                    pin(0),
                    pin(1)
                );
                let _ = writeln!(v, "  assign n{id} = r{id};");
            }
            Prim::Max => {
                let _ = writeln!(v, "  reg [{}:0] r{id};", n.width.max(1) - 1);
                let _ = writeln!(
                    v,
                    "  always @(posedge clk) r{id} <= ({p} > r{id}) ? {p} : r{id};",
                    p = pin(0)
                );
                let _ = writeln!(v, "  assign n{id} = r{id};");
            }
            Prim::Mux { inputs } => {
                let arms: Vec<String> = (0..*inputs)
                    .map(|p| format!("cfg_sel_{id} == {p} ? {} : ", pin(p)))
                    .collect();
                let _ = writeln!(
                    v,
                    "  wire [{}:0] cfg_sel_{id} = cfg_dataflow; // per-config select",
                    bits_for(*inputs).max(1) - 1
                );
                let _ = writeln!(v, "  assign n{id} = {}'0;", arms.join(""));
            }
            Prim::Fifo { depth } => {
                let max = depth.iter().flatten().copied().max().unwrap_or(1).max(1);
                let _ = writeln!(v, "  reg [{}:0] f{id} [0:{}];", n.width.max(1) - 1, max - 1);
                let _ = writeln!(v, "  integer i{id};");
                let _ = writeln!(v, "  always @(posedge clk) begin");
                let _ = writeln!(v, "    f{id}[0] <= {};", pin(0));
                let _ = writeln!(
                    v,
                    "    for (i{id} = 1; i{id} < {max}; i{id} = i{id} + 1) f{id}[i{id}] <= f{id}[i{id}-1];"
                );
                let _ = writeln!(v, "  end");
                let _ = writeln!(
                    v,
                    "  assign n{id} = f{id}[cfg_depth_{id}]; // programmed depth"
                );
                let _ = writeln!(
                    v,
                    "  wire [{}:0] cfg_depth_{id} = '0;",
                    bits_for(max as usize).max(1) - 1
                );
            }
            Prim::Reducer { inputs } => {
                let terms: Vec<String> = (0..*inputs).map(pin).collect();
                let _ = writeln!(v, "  reg [{}:0] r{id};", n.width.max(1) - 1);
                if n.accumulate {
                    let _ = writeln!(
                        v,
                        "  always @(posedge clk) r{id} <= rst ? '0 : r{id} + {};",
                        terms.join(" + ")
                    );
                } else {
                    let _ = writeln!(v, "  always @(posedge clk) r{id} <= {};", terms.join(" + "));
                }
                let _ = writeln!(v, "  assign n{id} = r{id};");
            }
            Prim::Counter { levels } => {
                let _ = writeln!(v, "  reg [{}:0] c{id};", n.width.max(1) - 1);
                let _ = writeln!(
                    v,
                    "  always @(posedge clk) c{id} <= rst ? '0 : c{id} + 1; // {levels}-level nest"
                );
                let _ = writeln!(v, "  assign n{id} = c{id};");
            }
            Prim::AddrGen { terms } => {
                let _ = writeln!(v, "  reg [{}:0] a{id};", n.width.max(1) - 1);
                let _ = writeln!(
                    v,
                    "  always @(posedge clk) a{id} <= {} * cfg_stride_{id}; // {terms} affine terms",
                    pin(0)
                );
                let _ = writeln!(v, "  wire [{}:0] cfg_stride_{id} = 1;", n.width.max(1) - 1);
                let _ = writeln!(v, "  assign n{id} = a{id};");
            }
            Prim::CtrlFwd => {
                let _ = writeln!(v, "  reg [{}:0] r{id};", n.width.max(1) - 1);
                let _ = writeln!(v, "  always @(posedge clk) r{id} <= {};", pin(0));
                let _ = writeln!(v, "  assign n{id} = r{id};");
            }
            Prim::ReadPort { .. } => {
                let _ = writeln!(v, "  assign n{id} = in_{id};");
            }
            Prim::WritePort { .. } => {
                let _ = writeln!(v, "  assign out_{id} = {};", pin(0));
                let _ = writeln!(v, "  assign n{id} = {};", pin(0));
            }
            Prim::Const { value } => {
                let _ = writeln!(v, "  assign n{id} = {value};");
            }
        }
    }

    let _ = writeln!(v, "endmodule");
    v
}

fn bits_for(n: usize) -> usize {
    (usize::BITS - n.max(2).saturating_sub(1).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_backend::{lower, optimize, BackendConfig, OptimizeOptions};
    use lego_frontend::{build_adg, FrontendConfig};
    use lego_ir::kernels::{self, dataflows};

    fn verilog_for(w: &lego_ir::Workload, dfs: &[lego_ir::Dataflow]) -> String {
        let adg = build_adg(w, dfs, &FrontendConfig::default()).unwrap();
        let mut dag = lower(&adg, &BackendConfig::default());
        optimize(&mut dag, &OptimizeOptions::default());
        emit_verilog(&dag, "lego_top")
    }

    #[test]
    fn structure_is_balanced() {
        let gemm = kernels::gemm(8, 4, 4);
        let v = verilog_for(&gemm, &[dataflows::gemm_kj(&gemm, 2)]);
        assert_eq!(v.matches("module ").count(), v.matches("endmodule").count());
        assert!(v.contains("input  wire clk"));
        assert!(v.contains("cfg_dataflow"));
    }

    #[test]
    fn every_node_has_a_wire() {
        let gemm = kernels::gemm(4, 4, 4);
        let adg = build_adg(
            &gemm,
            &[dataflows::gemm_ij(&gemm, 2)],
            &FrontendConfig::default(),
        )
        .unwrap();
        let dag = lower(&adg, &BackendConfig::default());
        let v = emit_verilog(&dag, "t");
        for id in 0..dag.nodes.len() {
            assert!(v.contains(&format!("n{id}")), "node {id} missing");
        }
    }

    #[test]
    fn emission_is_deterministic() {
        let gemm = kernels::gemm(8, 4, 4);
        let a = verilog_for(&gemm, &[dataflows::gemm_kj(&gemm, 2)]);
        let b = verilog_for(&gemm, &[dataflows::gemm_kj(&gemm, 2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn ports_follow_data_nodes() {
        let gemm = kernels::gemm(8, 4, 4);
        let adg = build_adg(
            &gemm,
            &[dataflows::gemm_kj(&gemm, 2)],
            &FrontendConfig::default(),
        )
        .unwrap();
        let dag = lower(&adg, &BackendConfig::default());
        let v = emit_verilog(&dag, "t");
        let read_ports = dag.count_nodes(|p| matches!(p, lego_backend::Prim::ReadPort { .. }));
        assert_eq!(v.matches("input  wire [").count() - 1, read_ports); // -1: cfg_dataflow
    }

    #[test]
    fn pipeline_registers_expand_to_shift_stages() {
        let gemm = kernels::gemm(16, 4, 4);
        let df = dataflows::par2(&gemm, "k", 4, "j", 4, "KJ").unwrap();
        let adg = build_adg(&gemm, &[df], &FrontendConfig::default()).unwrap();
        let mut dag = lower(&adg, &BackendConfig::default());
        optimize(&mut dag, &OptimizeOptions::baseline());
        if dag.edges.iter().any(|e| e.extra_regs > 0) {
            let v = emit_verilog(&dag, "t");
            assert!(v.contains("_pipe ["), "pipeline arrays emitted");
        }
    }
}
