//! ADG → DAG lowering (the paper's translation/codegen pass, §V).
//!
//! Naive codegen reproduces the paper's starting point deliberately:
//! reductions become *long adder chains*, zero-depth distribution becomes a
//! *star* from the producing driver (the broadcast pins of Figure 8), a pin
//! that several drivers reach before it resolves gets a mux (a driver that
//! arrives later is dropped; see [`lower`]), and FIFOs carry their
//! per-dataflow programmed depths. The optimization passes then earn their
//! savings from exactly these structures, as in the paper.

use std::collections::VecDeque;

use crate::dag::{Dag, NodeId, Prim};
use crate::BackendConfig;
use lego_frontend::{Adg, FuEdge, TensorPlan};
use lego_ir::{FuOp, TensorRole};

/// Width of the operand words entering the FU array (the paper evaluates
/// 8-bit MACs).
const INPUT_WIDTH: u32 = 8;
/// Accumulator width (partial-sum precision cap).
const ACC_WIDTH: u32 = 32;
/// Address and control signal width.
const ADDR_WIDTH: u32 = 16;

/// Lowers an ADG into the primitive-level DAG.
///
/// The result is unoptimized: run [`crate::passes::optimize`] (or
/// [`crate::passes::match_delays`] alone for the paper's mandatory
/// baseline) before costing or emission.
///
/// Each input tensor is delivered by one breadth-first walk from its
/// data-node FUs. An FU resolves its operand pin the first time the walk
/// dequeues it, from whatever drivers have reached it by then; a driver
/// that arrives later is dropped, and the FIFO built for it feeds nothing.
/// Conv2d-MNICOC delivers X along a graph that is cyclic across its two
/// dataflows, so this happens there; `tests/generator_pins.rs` pins how
/// often.
///
/// # Examples
///
/// ```
/// use lego_backend::{lower, BackendConfig};
/// use lego_frontend::{build_adg, FrontendConfig};
/// use lego_ir::kernels::{self, dataflows};
///
/// let gemm = kernels::gemm(8, 4, 4);
/// let df = dataflows::gemm_kj(&gemm, 2);
/// let adg = build_adg(&gemm, &[df], &FrontendConfig::default()).unwrap();
/// let dag = lower(&adg, &BackendConfig::default());
/// assert_eq!(dag.count_nodes(|p| matches!(p, lego_backend::Prim::Mul)), 4);
/// dag.check().unwrap();
/// ```
pub fn lower(adg: &Adg, config: &BackendConfig) -> Dag {
    let mut dag = Dag::new(adg.dataflows.len());
    let addr = lower_control(&mut dag, adg, config.per_fu_control);
    let operands: Vec<Vec<NodeId>> = adg
        .tensors
        .iter()
        .zip(&addr)
        .filter(|(plan, _)| plan.role == TensorRole::Input)
        .map(|(plan, addr)| lower_input_delivery(&mut dag, adg, plan, addr))
        .collect();
    let product = lower_compute(&mut dag, adg.workload.op, adg.num_fus, &operands);
    let (plan, addr) = adg
        .tensors
        .iter()
        .zip(&addr)
        .find(|(plan, _)| plan.role == TensorRole::Output)
        .expect("workload has an output");
    lower_output(&mut dag, adg, plan, addr, &product);
    dag
}

/// Activity of a memory port: live in the dataflows that use it.
fn port_activity(active_in: &[usize], n_df: usize) -> Vec<bool> {
    (0..n_df).map(|k| active_in.contains(&k)).collect()
}

/// Activity of an ADG edge: live in the dataflows that use it.
fn edge_activity(e: &FuEdge, n_df: usize) -> Vec<bool> {
    (0..n_df).map(|k| e.active_in(k)).collect()
}

/// `src` carried along the ADG edge `e`: through a FIFO at `e.to` programmed
/// with `e`'s per-dataflow depths, or, where `e` has depth 0 in every
/// dataflow, `src` itself (a star wire from the driver).
fn delayed(dag: &mut Dag, src: NodeId, e: &FuEdge, act: &[bool], width: u32) -> NodeId {
    let depth = e.max_depth();
    if depth == 0 {
        return src;
    }
    let fifo = dag.add_node(
        Prim::Fifo {
            depth: e.depth_per_df.clone(),
        },
        Some(e.to),
        width,
        format!("fifo_{}_{}to{}", e.tensor, e.from, e.to),
    );
    dag.add_edge(src, fifo, 0, width, act.to_vec(), depth);
    fifo
}

/// Builds the control network and returns the address source of every
/// tensor at every FU, as `addr[tensor][fu]`.
///
/// LEGO shares one counter and one address generator per tensor, and taps a
/// store-and-forward register chain at each FU when any dataflow is
/// systolic (paper §III-C/D). With `per_fu_control`, every FU re-derives
/// indices with its own counter and address generators behind HLS
/// handshake FIFOs, as the polyhedral/STT generators of the related-work
/// baselines do (§III-D).
fn lower_control(dag: &mut Dag, adg: &Adg, per_fu_control: bool) -> Vec<Vec<NodeId>> {
    let n_df = adg.dataflows.len();
    let all = vec![true; n_df];
    let levels = adg
        .dataflows
        .iter()
        .map(|d| d.temporal_sizes.len())
        .max()
        .unwrap_or(1);
    let ctr_width = ADDR_WIDTH * levels as u32;
    let mut addr = vec![Vec::new(); adg.tensors.len()];

    if per_fu_control {
        for fu in 0..adg.num_fus {
            let ctr = dag.add_node(
                Prim::Counter { levels },
                Some(fu),
                ADDR_WIDTH,
                format!("ctr_fu{fu}"),
            );
            for (plan, at) in adg.tensors.iter().zip(&mut addr) {
                let ag = dag.add_node(
                    Prim::AddrGen { terms: levels },
                    Some(fu),
                    ADDR_WIDTH,
                    format!("ag_{}_fu{fu}", plan.tensor),
                );
                dag.add_edge(ctr, ag, 0, ctr_width, all.clone(), 0);
                let hs = dag.add_node(
                    Prim::Fifo {
                        depth: vec![Some(2); n_df],
                    },
                    Some(fu),
                    ADDR_WIDTH,
                    format!("hs_{}_fu{fu}", plan.tensor),
                );
                dag.add_edge(ag, hs, 0, ADDR_WIDTH, all.clone(), 2);
                at.push(hs);
            }
        }
        return addr;
    }

    let systolic = adg
        .dataflows
        .iter()
        .any(|d| d.control.iter().any(|&c| c != 0));
    let ctr = dag.add_node(Prim::Counter { levels }, None, ADDR_WIDTH, "ctr");
    for (plan, at) in adg.tensors.iter().zip(&mut addr) {
        let ag = dag.add_node(
            Prim::AddrGen { terms: levels },
            None,
            ADDR_WIDTH,
            format!("ag_{}", plan.tensor),
        );
        dag.add_edge(ctr, ag, 0, ctr_width, all.clone(), 0);
        let mut tap = ag;
        for fu in 0..adg.num_fus {
            if systolic {
                // One forwarding register per FU hop; ports tap the chain at
                // their FU instead of each owning an address unit.
                let fwd = dag.add_node(
                    Prim::CtrlFwd,
                    Some(fu),
                    ADDR_WIDTH,
                    format!("ctl_{}_{fu}", plan.tensor),
                );
                dag.add_edge(tap, fwd, 0, ADDR_WIDTH, all.clone(), 0);
                tap = fwd;
            }
            at.push(tap);
        }
    }
    addr
}

/// Builds the delivery network for one input tensor and returns each FU's
/// operand pin: read ports at data nodes, FIFOs on delayed edges, star
/// wiring for zero-depth distribution, and muxes. The walk is seeded with
/// the data-node FUs in FU order; a resolved FU drives its out-edges in
/// ADG edge order.
fn lower_input_delivery(
    dag: &mut Dag,
    adg: &Adg,
    plan: &TensorPlan,
    addr: &[NodeId],
) -> Vec<NodeId> {
    let n_df = adg.dataflows.len();
    let tensor = &plan.tensor;
    let mut out: Vec<Vec<&FuEdge>> = vec![Vec::new(); adg.num_fus];
    for e in adg.edges_for(tensor) {
        out[e.from].push(e);
    }

    // Drivers per FU, `(node, activity)` in arrival order.
    let mut drivers: Vec<Vec<(NodeId, Vec<bool>)>> = vec![Vec::new(); adg.num_fus];
    for dn in &plan.data_nodes {
        let port = dag.add_node(
            Prim::ReadPort {
                tensor: tensor.clone(),
            },
            Some(dn.fu),
            INPUT_WIDTH,
            format!("rd_{tensor}_fu{}", dn.fu),
        );
        let act = port_activity(&dn.active_in, n_df);
        dag.add_edge(addr[dn.fu], port, 0, ADDR_WIDTH, act.clone(), 0);
        drivers[dn.fu].push((port, act));
    }

    let mut pin: Vec<Option<NodeId>> = vec![None; adg.num_fus];
    let mut queue: VecDeque<usize> = (0..adg.num_fus)
        .filter(|&fu| !drivers[fu].is_empty())
        .collect();
    while let Some(fu) = queue.pop_front() {
        if pin[fu].is_some() {
            continue;
        }
        let srcs = std::mem::take(&mut drivers[fu]);
        let node = if srcs.len() == 1 {
            srcs[0].0
        } else {
            let mux = dag.add_node(
                Prim::Mux { inputs: srcs.len() },
                Some(fu),
                INPUT_WIDTH,
                format!("mux_{tensor}_fu{fu}"),
            );
            for (i, (src, act)) in srcs.into_iter().enumerate() {
                dag.add_edge(src, mux, i, INPUT_WIDTH, act, 0);
            }
            mux
        };
        pin[fu] = Some(node);

        for e in &out[fu] {
            let act = edge_activity(e, n_df);
            drivers[e.to].push((delayed(dag, node, e, &act, INPUT_WIDTH), act));
            queue.push_back(e.to);
        }
    }

    // An FU no walk reaches would be a front-end bug.
    pin.into_iter()
        .enumerate()
        .map(|(fu, p)| p.unwrap_or_else(|| panic!("tensor {tensor} undelivered at FU {fu}")))
        .collect()
}

/// Builds each FU's operator from its operand pins (`operands[i][fu]` is
/// the `i`-th input's pin) and returns each FU's product.
fn lower_compute(dag: &mut Dag, op: FuOp, num_fus: usize, operands: &[Vec<NodeId>]) -> Vec<NodeId> {
    let w = INPUT_WIDTH;
    (0..num_fus)
        .map(|fu| {
            let x = |i: usize| (operands[i][fu], w);
            match op {
                FuOp::MulAcc => stage(dag, fu, Prim::Mul, 2 * w, "mul", &[x(0), x(1)]),
                FuOp::TripleMulAcc => {
                    let m = stage(dag, fu, Prim::Mul, 2 * w, "mul1", &[x(0), x(1)]);
                    stage(dag, fu, Prim::Mul, 3 * w, "mul2", &[(m, 2 * w), x(2)])
                }
                FuOp::MulShiftAcc => {
                    let m = stage(dag, fu, Prim::Mul, 2 * w, "mul", &[x(0), x(1)]);
                    let shifted = [(m, 2 * w), x(2)];
                    stage(dag, fu, Prim::Shift, ACC_WIDTH, "shift", &shifted)
                }
                FuOp::MaxAcc => stage(dag, fu, Prim::Max, w, "max", &[x(0)]),
            }
        })
        .collect()
}

/// Adds one operator node `{name}_fu{fu}`, fed on pins 0, 1, … by
/// `inputs`, each a `(driver, width)` live in every dataflow.
fn stage(
    dag: &mut Dag,
    fu: usize,
    prim: Prim,
    width: u32,
    name: &str,
    inputs: &[(NodeId, u32)],
) -> NodeId {
    let node = dag.add_node(prim, Some(fu), width, format!("{name}_fu{fu}"));
    for (pin, &(src, src_width)) in inputs.iter().enumerate() {
        dag.add_edge(src, node, pin, src_width, vec![true; dag.n_dataflows], 0);
    }
    node
}

/// Builds the partial-sum network: per-FU adders (chained per the ADG's
/// output edges, forming the naive "long adder chain"), local accumulators
/// for stationary outputs, FIFOs on delayed partial-sum hops, and write
/// ports at committing FUs.
fn lower_output(dag: &mut Dag, adg: &Adg, plan: &TensorPlan, addr: &[NodeId], product: &[NodeId]) {
    let n_df = adg.dataflows.len();
    let all = vec![true; n_df];
    let tensor = &plan.tensor;

    // Partial-sum edges into each FU and targets out of it, in edge order.
    let mut incoming: Vec<Vec<&FuEdge>> = vec![Vec::new(); adg.num_fus];
    let mut outgoing: Vec<Vec<usize>> = vec![Vec::new(); adg.num_fus];
    for e in adg.edges_for(tensor) {
        incoming[e.to].push(e);
        outgoing[e.from].push(e.to);
    }

    // Kahn order over the partial-sum forest, leaves first.
    let mut waiting: Vec<usize> = incoming.iter().map(Vec::len).collect();
    let mut queue: VecDeque<usize> = (0..adg.num_fus).filter(|&f| waiting[f] == 0).collect();
    let mut order = Vec::with_capacity(adg.num_fus);
    while let Some(f) = queue.pop_front() {
        order.push(f);
        for &to in &outgoing[f] {
            waiting[to] -= 1;
            if waiting[to] == 0 {
                queue.push_back(to);
            }
        }
    }
    assert_eq!(order.len(), adg.num_fus, "cyclic partial-sum network");

    // Each FU's accumulated output: its product plus the incoming partials,
    // chained in one binary adder at a time.
    let stationary = plan.stationary_in.iter().any(|&s| s);
    let mut acc_out: Vec<Option<NodeId>> = vec![None; adg.num_fus];
    for fu in order {
        let mut head = dag.add_node(Prim::Add, Some(fu), ACC_WIDTH, format!("acc_fu{fu}"));
        dag.nodes[head].accumulate = stationary;
        dag.add_edge(product[fu], head, 0, 2 * INPUT_WIDTH, all.clone(), 0);
        for (idx, e) in incoming[fu].iter().enumerate() {
            let act = edge_activity(e, n_df);
            let partial = acc_out[e.from].expect("Kahn order");
            let src = delayed(dag, partial, e, &act, ACC_WIDTH);
            if idx == 0 {
                dag.add_edge(src, head, 1, ACC_WIDTH, act, 0);
            } else {
                let next =
                    dag.add_node(Prim::Add, Some(fu), ACC_WIDTH, format!("acc_fu{fu}_{idx}"));
                dag.add_edge(head, next, 0, ACC_WIDTH, all.clone(), 0);
                dag.add_edge(src, next, 1, ACC_WIDTH, act, 0);
                head = next;
            }
        }
        acc_out[fu] = Some(head);
    }

    for dn in &plan.data_nodes {
        let port = dag.add_node(
            Prim::WritePort {
                tensor: tensor.clone(),
            },
            Some(dn.fu),
            ACC_WIDTH,
            format!("wr_{tensor}_fu{}", dn.fu),
        );
        let act = port_activity(&dn.active_in, n_df);
        let acc = acc_out[dn.fu].expect("every FU accumulates");
        dag.add_edge(acc, port, 0, ACC_WIDTH, act.clone(), 0);
        dag.add_edge(addr[dn.fu], port, 1, ADDR_WIDTH, act, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_frontend::{build_adg, FrontendConfig};
    use lego_ir::kernels::{self, dataflows};

    fn dag_for(w: &lego_ir::Workload, dfs: &[lego_ir::Dataflow], cfg: &BackendConfig) -> Dag {
        let adg = build_adg(w, dfs, &FrontendConfig::default()).unwrap();
        let dag = lower(&adg, cfg);
        dag.check().expect("valid DAG");
        dag
    }

    #[test]
    fn systolic_gemm_structure() {
        let gemm = kernels::gemm(8, 4, 4);
        let dag = dag_for(
            &gemm,
            &[dataflows::gemm_kj(&gemm, 2)],
            &BackendConfig::default(),
        );
        // 4 FUs: 4 muls, 4+ adds (reduction chain), FIFOs on X forward and
        // Y forward edges, one shared counter, 3 address generators.
        assert_eq!(dag.count_nodes(|p| matches!(p, Prim::Mul)), 4);
        assert!(dag.count_nodes(|p| matches!(p, Prim::Add)) >= 4);
        assert!(dag.count_nodes(|p| matches!(p, Prim::Fifo { .. })) >= 4);
        assert_eq!(dag.count_nodes(|p| matches!(p, Prim::Counter { .. })), 1);
        assert_eq!(dag.count_nodes(|p| matches!(p, Prim::AddrGen { .. })), 3);
        // Systolic: control forwarded along the array per tensor.
        assert_eq!(dag.count_nodes(|p| matches!(p, Prim::CtrlFwd)), 3 * 4);
    }

    #[test]
    fn broadcast_gemm_has_no_ctrl_chain() {
        let gemm = kernels::gemm(4, 4, 4);
        let dag = dag_for(
            &gemm,
            &[dataflows::gemm_ij(&gemm, 2)],
            &BackendConfig::default(),
        );
        assert_eq!(dag.count_nodes(|p| matches!(p, Prim::CtrlFwd)), 0);
        assert_eq!(dag.count_nodes(|p| matches!(p, Prim::Counter { .. })), 1);
    }

    #[test]
    fn per_fu_control_replicates_generators() {
        let gemm = kernels::gemm(4, 4, 4);
        let cfg = BackendConfig {
            per_fu_control: true,
        };
        let dag = dag_for(&gemm, &[dataflows::gemm_ij(&gemm, 2)], &cfg);
        // AutoSA/TensorLib-style: counters and address generators per FU.
        assert_eq!(dag.count_nodes(|p| matches!(p, Prim::Counter { .. })), 4);
        assert_eq!(dag.count_nodes(|p| matches!(p, Prim::AddrGen { .. })), 12);
    }

    #[test]
    fn fused_design_inserts_muxes() {
        let gemm = kernels::gemm(8, 8, 8);
        let ij = dataflows::gemm_ij(&gemm, 2);
        let kj = dataflows::gemm_kj(&gemm, 2);
        let solo = dag_for(&gemm, std::slice::from_ref(&ij), &BackendConfig::default());
        let fused = dag_for(&gemm, &[ij, kj], &BackendConfig::default());
        assert!(
            fused.count_nodes(|p| matches!(p, Prim::Mux { .. }))
                > solo.count_nodes(|p| matches!(p, Prim::Mux { .. })),
            "fusion must add muxes: {} vs {}",
            fused.summary(),
            solo.summary()
        );
    }

    #[test]
    fn mttkrp_uses_two_multipliers_per_fu() {
        let m = kernels::mttkrp(4, 4, 4, 4);
        let dag = dag_for(
            &m,
            &[dataflows::mttkrp_ij(&m, 2)],
            &BackendConfig::default(),
        );
        assert_eq!(dag.count_nodes(|p| matches!(p, Prim::Mul)), 8);
    }

    #[test]
    fn every_fu_product_feeds_an_adder() {
        let conv = kernels::conv2d(1, 2, 2, 4, 4, 3, 3, 1);
        let dag = dag_for(
            &conv,
            &[dataflows::conv_ohow(&conv, 2)],
            &BackendConfig::default(),
        );
        let index = dag.edge_index();
        for (id, n) in dag.nodes.iter().enumerate() {
            if matches!(n.prim, Prim::Mul) {
                assert!(
                    index.outs(id).iter().any(|&e| matches!(
                        dag.nodes[dag.edges[e].to].prim,
                        Prim::Add | Prim::Mul | Prim::Shift
                    )),
                    "dangling multiplier {id}"
                );
            }
        }
    }

    #[test]
    fn stationary_output_sets_accumulate() {
        let gemm = kernels::gemm(4, 4, 4);
        let dag = dag_for(
            &gemm,
            &[dataflows::gemm_ij(&gemm, 2)],
            &BackendConfig::default(),
        );
        assert!(dag
            .nodes
            .iter()
            .any(|n| matches!(n.prim, Prim::Add) && n.accumulate));
    }
}
