//! The eleven kernel/dataflow design points of Figures 10, 13 and 14.

use lego_ir::kernels::{self, dataflows};
use lego_ir::{Dataflow, DataflowBuilder, Workload};

/// One named design point: a workload and the dataflows fused into it.
pub struct KernelDesign {
    /// Name as it appears on the paper's x-axis (Operation-Dataflow).
    pub name: &'static str,
    /// Workload.
    pub workload: Workload,
    /// Spatial dataflows fused into the design.
    pub dataflows: Vec<Dataflow>,
}

/// Builds all eleven designs on a `p × p` array.
///
/// # Panics
///
/// Panics if `p` does not divide the fixed problem sizes (use 4, 8, or 16).
pub fn kernel_designs(p: i64) -> Vec<KernelDesign> {
    let d = 4 * p; // problem dimension, divisible by p
    let gemm = kernels::gemm(d, d, d);
    let conv = kernels::conv2d(1, p, p, d, d, 3, 3, 1);
    let mtt = kernels::mttkrp(d, d, p, p);
    let attn = kernels::attention_scores(d, d, d);

    let gemm_ik = DataflowBuilder::new(&gemm)
        .par("i", p)
        .par("k", p)
        .control(vec![1, 1])
        .build("GEMM-IK")
        .expect("valid GEMM-IK");
    let attn_qp = dataflows::par2(&attn, "q", p, "p", p, "Attn-QP").expect("valid Attn-QP");
    let attn_pd = dataflows::par2(&attn, "p", p, "d", p, "Attn-PD").expect("valid Attn-PD");
    let icoc = dataflows::conv_icoc(&conv, p);
    let ohow = dataflows::conv_ohow(&conv, p);
    let (gemm_ij, gemm_kj) = (dataflows::gemm_ij(&gemm, p), dataflows::gemm_kj(&gemm, p));
    let (mtt_ij, mtt_kj) = (dataflows::mttkrp_ij(&mtt, p), dataflows::mttkrp_kj(&mtt, p));

    let design = |name, workload: &Workload, dataflows: &[&Dataflow]| KernelDesign {
        name,
        workload: workload.clone(),
        dataflows: dataflows.iter().map(|df| (*df).clone()).collect(),
    };
    vec![
        design("Attention", &attn, &[&attn_qp, &attn_pd]),
        design("Conv2d-ICOC", &conv, &[&icoc]),
        design("Conv2d-MNICOC", &conv, &[&icoc, &ohow]),
        design("Conv2d-OHOW", &conv, &[&ohow]),
        design("GEMM-IJ", &gemm, &[&gemm_ij]),
        design("GEMM-IK", &gemm, &[&gemm_ik]),
        design("GEMM-KJ", &gemm, &[&gemm_kj]),
        design("GEMM-MJ", &gemm, &[&gemm_ij, &gemm_kj]),
        design("MTTKRP-IJ", &mtt, &[&mtt_ij]),
        design("MTTKRP-KJ", &mtt, &[&mtt_kj]),
        design("MTTKRP-MJ", &mtt, &[&mtt_ij, &mtt_kj]),
    ]
}
