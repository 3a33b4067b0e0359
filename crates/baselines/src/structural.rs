//! Structural models of the related generators (Tables VI, VII, VIII) and
//! the naive dataflow-fusion baseline (Table V).

use std::collections::BTreeMap;

use lego_backend::{lower, optimize, BackendConfig, OptimizeOptions};
use lego_frontend::{build_adg, Adg, FrontendConfig, FuEdge};
use lego_ir::{Dataflow, Workload};
use lego_model::{dag_cost, DagCost, TechModel};

/// Cost of a LEGO design with the shared control unit and full backend
/// optimization — the "LEGO" column of Tables VI and VIII.
pub fn shared_control_cost(
    workload: &Workload,
    dataflows: &[Dataflow],
    tech: &TechModel,
) -> DagCost {
    let adg = build_adg(workload, dataflows, &FrontendConfig::default()).expect("valid design");
    let mut dag = lower(&adg, &BackendConfig::default());
    optimize(&mut dag, &OptimizeOptions::default());
    dag_cost(&dag, tech, 1.0)
}

/// Cost of the same array generated AutoSA/TensorLib-style: the polyhedral
/// and STT representations treat the timestamp as global, so every FU
/// instantiates its own counters and address generators (paper §III-D), and
/// no LP register minimization runs beyond mandatory delay matching.
pub fn per_fu_control_cost(
    workload: &Workload,
    dataflows: &[Dataflow],
    tech: &TechModel,
) -> DagCost {
    let adg = build_adg(workload, dataflows, &FrontendConfig::default()).expect("valid design");
    let mut dag = lower(
        &adg,
        &BackendConfig {
            per_fu_control: true,
        },
    );
    optimize(&mut dag, &OptimizeOptions::baseline());
    dag_cost(&dag, tech, 1.0)
}

/// DSAGen-style CGRA cost: LEGO's datapath plus a flexible switch fabric
/// (an 8-input 32-bit crossbar and a route-table register file per FU),
/// which is what buys its reconfigurability (Table VI: ≈2.4× area, ≈2.6×
/// power over LEGO).
pub fn dsagen_cost(
    workload: &Workload,
    dataflows: &[Dataflow],
    num_fus: usize,
    tech: &TechModel,
) -> DagCost {
    let mut cost = shared_control_cost(workload, dataflows, tech);
    // Per-FU switch: 8-to-1 × 32-bit mux fabric (in and out) + 64-bit route
    // table + 4× 32-bit pipeline registers at the switch boundary.
    let per_fu_area = 2.0 * 8.0 * 32.0 * tech.mux_area_um2_per_bit
        + 64.0 * tech.ff_area_um2
        + 4.0 * 32.0 * tech.ff_area_um2;
    let per_fu_dyn =
        2.0 * 8.0 * 32.0 * tech.add_energy_pj_per_bit * 0.2 + (64.0 + 128.0) * tech.ff_energy_pj;
    cost.area_um2 += num_fus as f64 * per_fu_area;
    cost.dynamic_mw += num_fus as f64 * per_fu_dyn * tech.freq_ghz;
    cost.static_mw += num_fus as f64 * per_fu_area * tech.static_uw_per_um2 / 1000.0;
    cost.ff_bits += num_fus as f64 * (64.0 + 128.0);
    cost.fpga.ff += num_fus as f64 * (64.0 + 128.0);
    cost.fpga.lut += num_fus as f64 * 8.0 * 32.0;
    cost
}

/// Naive dataflow fusion (Table V's "Simply Merged" column): take each
/// dataflow's standalone interconnect plan and union the edges and data
/// nodes with muxes, skipping the chain-merging heuristic of §IV-C.
pub fn naive_fusion_adg(workload: &Workload, dataflows: &[Dataflow]) -> Adg {
    let cfg = FrontendConfig::default();
    let solos: Vec<Adg> = dataflows
        .iter()
        .map(|df| build_adg(workload, std::slice::from_ref(df), &cfg).expect("valid solo design"))
        .collect();
    let fused = build_adg(workload, dataflows, &cfg).expect("valid fused design");

    // "Naive design fusion with multiplexers" (paper §IV-C): every
    // dataflow keeps its own physical connections and FIFOs; the merge only
    // muxes them at the FU pins. No wire, FIFO, or data node is shared
    // across configurations — exactly what the chain-merging heuristic
    // exists to avoid.
    let n_df = dataflows.len();
    let mut edges: Vec<FuEdge> = Vec::new();
    for (k, solo) in solos.iter().enumerate() {
        for e in &solo.edges {
            let mut depth_per_df = vec![None; n_df];
            depth_per_df[k] = Some(e.max_depth());
            edges.push(FuEdge {
                tensor: e.tensor.clone(),
                from: e.from,
                to: e.to,
                depth_per_df,
            });
        }
    }

    // Union of data nodes, and per-dataflow memory plans from the solos.
    let tensors = fused
        .tensors
        .iter()
        .map(|plan| {
            let mut nodes: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (k, solo) in solos.iter().enumerate() {
                let sp = solo.tensor_plan(&plan.tensor).expect("same tensors");
                for dn in &sp.data_nodes {
                    nodes.entry(dn.fu).or_default().push(k);
                }
            }
            lego_frontend::TensorPlan {
                tensor: plan.tensor.clone(),
                role: plan.role,
                data_nodes: nodes
                    .into_iter()
                    .map(|(fu, active_in)| lego_frontend::DataNode { fu, active_in })
                    .collect(),
                memory: lego_frontend::MemoryPlan {
                    per_dataflow: solos
                        .iter()
                        .map(|s| {
                            s.tensor_plan(&plan.tensor)
                                .expect("same tensors")
                                .memory
                                .per_dataflow[0]
                                .clone()
                        })
                        .collect(),
                },
                stationary_in: plan.stationary_in.clone(),
            }
        })
        .collect();

    Adg {
        workload: workload.clone(),
        dataflows: dataflows.to_vec(),
        num_fus: fused.num_fus,
        edges,
        tensors,
    }
}

/// SODA-toolchain comparison point (Table VII): an HLS-scheduled datapath
/// at FreePDK 45 nm / 500 MHz. The HLS pipeline re-fetches operands through
/// a global interface and stalls on loop-carried dependences, which caps
/// achieved throughput at a few percent of peak; area carries the generic
/// load/store plumbing. Returns `(gflops, gflops_per_watt, area_mm2)`.
pub fn soda_perf(model: &lego_workloads::Model) -> (f64, f64, f64) {
    // 16 lanes at 500 MHz, ~5.5% sustained (memory-port serialization).
    let peak_gflops = 16.0 * 2.0 * 0.5;
    let sustained = peak_gflops * 0.055;
    // Power: mostly interface/control, ~0.27 W independent of model size.
    let watts = 0.22 + 0.10 * (model.total_macs() as f64 / 4.0e9).min(1.0);
    (sustained, sustained / watts, 0.61)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_ir::kernels::{self, dataflows};

    #[test]
    fn per_fu_control_is_much_heavier() {
        // Table VIII's shape: AutoSA's per-FU control costs several times
        // the FF/LUT of LEGO's shared control on the same 8×8 GEMM.
        let gemm = kernels::gemm(64, 64, 64);
        let df = dataflows::gemm_ij(&gemm, 8);
        let t = TechModel::default();
        let lego = shared_control_cost(&gemm, std::slice::from_ref(&df), &t);
        let autosa = per_fu_control_cost(&gemm, &[df], &t);
        let ratio = autosa.fpga.ff / lego.fpga.ff;
        assert!(ratio > 3.0, "FF ratio {ratio}");
        assert!(autosa.fpga.lut > 2.0 * lego.fpga.lut);
    }

    #[test]
    fn dsagen_overhead_in_paper_band() {
        let gemm = kernels::gemm(64, 64, 64);
        let df = dataflows::gemm_ij(&gemm, 8);
        let t = TechModel::default();
        let lego = shared_control_cost(&gemm, std::slice::from_ref(&df), &t);
        let dsa = dsagen_cost(&gemm, &[df], 64, &t);
        let area_ratio = dsa.area_um2 / lego.area_um2;
        let power_ratio = dsa.total_mw() / lego.total_mw();
        assert!((1.5..4.5).contains(&area_ratio), "area ratio {area_ratio}");
        assert!(power_ratio > 1.3, "power ratio {power_ratio}");
    }

    #[test]
    fn naive_fusion_is_not_cheaper_than_heuristic() {
        let gemm = kernels::gemm(8, 8, 8);
        let dfs = vec![dataflows::gemm_ij(&gemm, 2), dataflows::gemm_kj(&gemm, 2)];
        let heuristic = build_adg(&gemm, &dfs, &FrontendConfig::default()).unwrap();
        let naive = naive_fusion_adg(&gemm, &dfs);
        assert!(
            naive.edges.len() >= heuristic.edges.len(),
            "naive {} vs heuristic {}",
            naive.edges.len(),
            heuristic.edges.len()
        );
        assert!(naive.data_node_count() >= heuristic.data_node_count());
    }

    #[test]
    fn soda_is_slow_but_positive() {
        let (gflops, eff, area) = soda_perf(&lego_workloads::zoo::lenet());
        assert!(gflops > 0.3 && gflops < 2.0);
        assert!(eff > 1.0 && eff < 10.0);
        assert!(area > 0.0);
    }
}
