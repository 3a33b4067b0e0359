//! Cross-crate integration: every kernel family × dataflow × array size is
//! generated end-to-end and verified cycle-accurately against the reference
//! loop nest — the strongest correctness statement this repository makes.

use std::hash::Hasher;

use lego::core::Lego;
use lego::eval::FnvHasher;
use lego::ir::kernels::{self, dataflows};
use lego::ir::{tensor::reference_execute, DataflowBuilder, TensorData, Workload};
use lego::model::TechModel;
use lego_bench::kernel_designs;

fn verify(workload: &Workload, dfs: Vec<lego::ir::Dataflow>) {
    let mut builder = Lego::new(workload.clone());
    let n_df = dfs.len();
    for df in dfs {
        builder = builder.dataflow(df);
    }
    let design = builder.generate().expect("generation succeeds");
    design.dag.check().expect("valid DAG");

    let inputs: Vec<TensorData> = workload
        .inputs()
        .enumerate()
        .map(|(i, a)| {
            let shape = workload.tensor_shape(&a.tensor);
            TensorData::from_fn(&shape, |k| ((k * 13 + i * 7 + 3) % 17) as i64 - 8)
        })
        .collect();
    let refs: Vec<&TensorData> = inputs.iter().collect();
    let expect = reference_execute(workload, &refs);
    for df in 0..n_df {
        let out = design.simulate(df, &refs);
        assert_eq!(out.output, expect, "{} df {df} diverged", workload.name);
    }

    // Cost and Verilog must also be producible for every design.
    let cost = design.cost(&TechModel::default());
    assert!(cost.area_um2 > 0.0);
    let v = design.verilog("t");
    assert!(v.contains("endmodule"));
}

#[test]
fn gemm_all_dataflows_2x2_and_4x4() {
    for p in [2, 4] {
        let g = kernels::gemm(2 * p, 2 * p, 2 * p);
        verify(&g, vec![dataflows::gemm_ij(&g, p)]);
        verify(&g, vec![dataflows::gemm_ik(&g, p)]);
        verify(&g, vec![dataflows::gemm_kj(&g, p)]);
    }
}

#[test]
fn gemm_fused_mj() {
    let g = kernels::gemm(8, 8, 8);
    verify(
        &g,
        vec![dataflows::gemm_ij(&g, 2), dataflows::gemm_kj(&g, 2)],
    );
}

#[test]
fn conv_all_dataflows() {
    let c = kernels::conv2d(1, 4, 4, 4, 4, 3, 3, 1);
    verify(&c, vec![dataflows::conv_icoc(&c, 2)]);
    verify(&c, vec![dataflows::conv_ohow(&c, 2)]);
    verify(&c, vec![dataflows::conv_khoh(&c, 3, 2)]);
}

#[test]
fn conv_fused_mnicoc() {
    let c = kernels::conv2d(1, 4, 4, 4, 4, 3, 3, 1);
    verify(
        &c,
        vec![dataflows::conv_icoc(&c, 2), dataflows::conv_ohow(&c, 2)],
    );
}

#[test]
fn strided_and_depthwise_convs() {
    let c = kernels::conv2d(1, 2, 4, 3, 3, 3, 3, 2);
    verify(&c, vec![dataflows::conv_ohow(&c, 3)]);
    let dw = kernels::depthwise_conv2d(1, 4, 4, 4, 3, 3, 1);
    let df = DataflowBuilder::new(&dw)
        .par("oh", 2)
        .par("ow", 2)
        .build("DW-OHOW")
        .unwrap();
    verify(&dw, vec![df]);
}

#[test]
fn mttkrp_dataflows() {
    let m = kernels::mttkrp(4, 4, 4, 4);
    verify(&m, vec![dataflows::mttkrp_ij(&m, 2)]);
    verify(&m, vec![dataflows::mttkrp_kj(&m, 2)]);
    verify(
        &m,
        vec![dataflows::mttkrp_ij(&m, 2), dataflows::mttkrp_kj(&m, 2)],
    );
}

#[test]
fn attention_fused() {
    let a = kernels::attention_scores(8, 8, 4);
    let qp = dataflows::par2(&a, "q", 2, "p", 2, "QP").unwrap();
    let pd = dataflows::par2(&a, "p", 2, "d", 2, "PD").unwrap();
    verify(&a, vec![qp, pd]);
}

#[test]
fn systolic_with_paper_exact_tiling() {
    // The paper's Figure 3 dataflow, including the two-level i tiling.
    let g = kernels::gemm(8, 4, 4);
    let df = DataflowBuilder::new(&g)
        .par("k", 2)
        .par("j", 2)
        .seq("i", 2)
        .seq("j", 2)
        .seq("k", 2)
        .seq("i", 4)
        .control(vec![1, 1])
        .build("fig3")
        .unwrap();
    verify(&g, vec![df]);
}

#[test]
fn rectangular_arrays() {
    let g = kernels::gemm(8, 6, 4);
    let df = DataflowBuilder::new(&g)
        .par("i", 4)
        .par("j", 3)
        .build("rect")
        .unwrap();
    verify(&g, vec![df]);
}

#[test]
fn asymmetric_control_flow() {
    // Systolic along one dimension only: c = [1, 0].
    let g = kernels::gemm(8, 4, 4);
    let df = DataflowBuilder::new(&g)
        .par("k", 2)
        .par("j", 2)
        .control(vec![1, 0])
        .build("half-systolic")
        .unwrap();
    verify(&g, vec![df]);
}

#[test]
fn bitfusion_mixed_precision_gemm() {
    // Paper §II: the user-defined FU example Y += (A·B) << S.
    let g = kernels::bitfusion_gemm(4, 4, 4);
    verify(&g, vec![dataflows::gemm_ij(&g, 2)]);
}

#[test]
fn max_pooling_layer() {
    let p = kernels::max_pool2d(1, 4, 4, 4, 2, 2, 2);
    let df = DataflowBuilder::new(&p)
        .par("oh", 2)
        .par("ow", 2)
        .build("POOL-OHOW")
        .unwrap();
    verify(&p, vec![df]);
}

/// Seeded pseudo-random operands in `-16..16`, one stream per input.
fn seeded_inputs(workload: &Workload, seed: u64) -> Vec<TensorData> {
    workload
        .inputs()
        .enumerate()
        .map(|(i, a)| {
            let shape = workload.tensor_shape(&a.tensor);
            TensorData::from_fn(&shape, |k| {
                let mut x = seed ^ ((i as u64) << 40) ^ k as u64;
                x = (x ^ (x >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                x = (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                ((x >> 59) as i64) - 16
            })
        })
        .collect()
}

/// Every dataflow of the eleven 64-FU Figure 10 designs and of Attention
/// on 256 FUs simulates to the reference, and an FNV-1a of its five
/// `SimStats` counters plus the output tensor is pinned: a change to the
/// simulator must reproduce every delivery count, not only the result.
#[test]
fn simulation_of_the_paper_designs_is_pinned() {
    let mut designs = kernel_designs(8);
    designs.extend(
        kernel_designs(16)
            .into_iter()
            .filter(|d| d.name == "Attention"),
    );
    let mut got = Vec::new();
    for (n, d) in designs.iter().enumerate() {
        let mut lego = Lego::new(d.workload.clone());
        for df in &d.dataflows {
            lego = lego.dataflow(df.clone());
        }
        let design = lego.generate().expect("paper design generates");
        let inputs = seeded_inputs(&d.workload, 0x5eed + n as u64);
        let refs: Vec<&TensorData> = inputs.iter().collect();
        let expect = reference_execute(&d.workload, &refs);
        for (df, dataflow) in d.dataflows.iter().enumerate() {
            let out = design.simulate(df, &refs);
            assert_eq!(out.output, expect, "{} {} diverged", d.name, dataflow.name);
            let s = out.stats;
            let mut h = FnvHasher::new();
            h.write_i64(s.cycles);
            for c in [s.port_reads, s.edge_deliveries, s.fallback_reads, s.fu_ops] {
                h.write_u64(c);
            }
            for &v in out.output.as_slice() {
                h.write_i64(v);
            }
            got.push((
                d.name,
                dataflow.num_fus(),
                dataflow.name.as_str(),
                h.finish(),
            ));
        }
    }
    assert_eq!(got, PINS);
}

/// `(design, FUs, dataflow, FNV)`. Re-pin only from a release build of a
/// known-good parent commit, never to make a simulator rewrite pass.
const PINS: [(&str, i64, &str, u64); 17] = [
    ("Attention", 64, "Attn-QP", 0x98ffb4da71152bd7),
    ("Attention", 64, "Attn-PD", 0xfa3b24be586c0037),
    ("Conv2d-ICOC", 64, "Conv2d-ICOC", 0x2f68ce0bc8e6cc8d),
    ("Conv2d-MNICOC", 64, "Conv2d-ICOC", 0xa2d9c051c4f6e410),
    ("Conv2d-MNICOC", 64, "Conv2d-OHOW", 0xac495e2168e05fd8),
    ("Conv2d-OHOW", 64, "Conv2d-OHOW", 0xb2787d70fea65c73),
    ("GEMM-IJ", 64, "GEMM-IJ", 0xf2e17946d99e7252),
    ("GEMM-IK", 64, "GEMM-IK", 0x4bb7c2c7260dbc1c),
    ("GEMM-KJ", 64, "GEMM-KJ", 0x13b6aed330042fcd),
    ("GEMM-MJ", 64, "GEMM-IJ", 0xd07ea4afe022a453),
    ("GEMM-MJ", 64, "GEMM-KJ", 0x4d5d56c580f0c8c9),
    ("MTTKRP-IJ", 64, "MTTKRP-IJ", 0xce1604bb7c5a6b18),
    ("MTTKRP-KJ", 64, "MTTKRP-KJ", 0xb43895d1d619639e),
    ("MTTKRP-MJ", 64, "MTTKRP-IJ", 0x8c9a5a4e71609bb3),
    ("MTTKRP-MJ", 64, "MTTKRP-KJ", 0xd5db8e953f155ca9),
    ("Attention", 256, "Attn-QP", 0x482aad03dd51d419),
    ("Attention", 256, "Attn-PD", 0xaa766556a3e6d319),
];
