//! ADG → DAG lowering (the paper's translation/codegen pass, §V).
//!
//! Naive codegen reproduces the paper's starting point deliberately:
//! reductions become *long adder chains*, zero-depth distribution becomes a
//! *star* from the producing driver (the broadcast pins of Figure 8), every
//! multi-source pin gets a mux, and FIFOs carry their per-dataflow
//! programmed depths. The optimization passes then earn their savings from
//! exactly these structures, as in the paper.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::dag::{Dag, NodeId, Prim};
use crate::BackendConfig;
use lego_frontend::{Adg, FuEdge, TensorPlan};
use lego_ir::{FuOp, TensorRole};

/// Lowers an ADG into the primitive-level DAG.
///
/// The result is unoptimized: run [`crate::passes::optimize`] (or
/// [`crate::passes::match_delays`] alone for the paper's mandatory
/// baseline) before costing or emission.
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
    let n_df = adg.dataflows.len();
    let mut dag = Dag::new(n_df);
    let all = vec![true; n_df];

    // ------------------------------------------------------------------
    // Control: shared counters + one address generator per tensor, with a
    // store-and-forward register chain when any dataflow is systolic
    // (paper §III-C/D); or the per-FU replica used by the related-work
    // structural baselines.
    // ------------------------------------------------------------------
    let max_levels = adg
        .dataflows
        .iter()
        .map(|d| d.temporal_sizes.len())
        .max()
        .unwrap_or(1);
    let systolic = adg
        .dataflows
        .iter()
        .any(|d| d.control.iter().any(|&c| c != 0));

    // Address source node per (tensor, fu) — shared mode points every FU at
    // the same generator (possibly through the forwarding chain).
    let mut addr_at: HashMap<(String, usize), NodeId> = HashMap::new();

    if config.per_fu_control {
        // Polyhedral/STT-style generation (paper §III-D): the timestamp is
        // global, so every PE re-derives indices with its own counters and
        // address generators, and PE boundaries carry HLS handshake FIFOs.
        for fu in 0..adg.num_fus {
            let ctr = dag.add_node(
                Prim::Counter { levels: max_levels },
                Some(fu),
                config.addr_width,
                format!("ctr_fu{fu}"),
            );
            for plan in &adg.tensors {
                let ag = dag.add_node(
                    Prim::AddrGen { terms: max_levels },
                    Some(fu),
                    config.addr_width,
                    format!("ag_{}_fu{fu}", plan.tensor),
                );
                dag.add_edge(
                    ctr,
                    ag,
                    0,
                    config.addr_width * max_levels as u32,
                    all.clone(),
                    0,
                );
                let hs = dag.add_node(
                    Prim::Fifo {
                        depth: vec![Some(2); n_df],
                    },
                    Some(fu),
                    config.addr_width,
                    format!("hs_{}_fu{fu}", plan.tensor),
                );
                dag.add_edge(ag, hs, 0, config.addr_width, all.clone(), 2);
                addr_at.insert((plan.tensor.clone(), fu), hs);
            }
        }
    } else {
        let ctr = dag.add_node(
            Prim::Counter { levels: max_levels },
            None,
            config.addr_width,
            "ctr",
        );
        for plan in &adg.tensors {
            let ag = dag.add_node(
                Prim::AddrGen { terms: max_levels },
                None,
                config.addr_width,
                format!("ag_{}", plan.tensor),
            );
            dag.add_edge(
                ctr,
                ag,
                0,
                config.addr_width * max_levels as u32,
                all.clone(),
                0,
            );
            let mut tap = ag;
            if systolic {
                // One forwarding register per FU hop; ports tap the chain at
                // their FU position instead of each owning an address unit.
                for fu in 0..adg.num_fus {
                    let fwd = dag.add_node(
                        Prim::CtrlFwd,
                        Some(fu),
                        config.addr_width,
                        format!("ctl_{}_{fu}", plan.tensor),
                    );
                    dag.add_edge(tap, fwd, 0, config.addr_width, all.clone(), 0);
                    addr_at.insert((plan.tensor.clone(), fu), fwd);
                    tap = fwd;
                }
            } else {
                for fu in 0..adg.num_fus {
                    addr_at.insert((plan.tensor.clone(), fu), ag);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Input operand delivery per tensor.
    // ------------------------------------------------------------------
    let mut pin: HashMap<(String, usize), NodeId> = HashMap::new();
    for plan in &adg.tensors {
        if plan.role != TensorRole::Input {
            continue;
        }
        lower_input_delivery(&mut dag, adg, plan, config, &addr_at, &mut pin);
    }

    // ------------------------------------------------------------------
    // Compute per FU.
    // ------------------------------------------------------------------
    let inputs: Vec<&str> = adg.workload.inputs().map(|a| a.tensor.as_str()).collect();
    let mut product: Vec<NodeId> = Vec::with_capacity(adg.num_fus);
    for fu in 0..adg.num_fus {
        let operand = |_dag: &mut Dag, name: &str| -> NodeId {
            *pin.get(&(name.to_string(), fu))
                .unwrap_or_else(|| panic!("operand {name} undelivered at FU {fu}"))
        };
        let out = match adg.workload.op {
            FuOp::MulAcc => {
                let a = operand(&mut dag, inputs[0]);
                let b = operand(&mut dag, inputs[1]);
                let m = dag.add_node(
                    Prim::Mul,
                    Some(fu),
                    config.input_width * 2,
                    format!("mul_fu{fu}"),
                );
                dag.add_edge(a, m, 0, config.input_width, all.clone(), 0);
                dag.add_edge(b, m, 1, config.input_width, all.clone(), 0);
                m
            }
            FuOp::TripleMulAcc => {
                let a = operand(&mut dag, inputs[0]);
                let b = operand(&mut dag, inputs[1]);
                let c = operand(&mut dag, inputs[2]);
                let m1 = dag.add_node(
                    Prim::Mul,
                    Some(fu),
                    config.input_width * 2,
                    format!("mul1_fu{fu}"),
                );
                dag.add_edge(a, m1, 0, config.input_width, all.clone(), 0);
                dag.add_edge(b, m1, 1, config.input_width, all.clone(), 0);
                let m2 = dag.add_node(
                    Prim::Mul,
                    Some(fu),
                    config.input_width * 3,
                    format!("mul2_fu{fu}"),
                );
                dag.add_edge(m1, m2, 0, config.input_width * 2, all.clone(), 0);
                dag.add_edge(c, m2, 1, config.input_width, all.clone(), 0);
                m2
            }
            FuOp::MulShiftAcc => {
                let a = operand(&mut dag, inputs[0]);
                let b = operand(&mut dag, inputs[1]);
                let c = operand(&mut dag, inputs[2]);
                let m = dag.add_node(
                    Prim::Mul,
                    Some(fu),
                    config.input_width * 2,
                    format!("mul_fu{fu}"),
                );
                dag.add_edge(a, m, 0, config.input_width, all.clone(), 0);
                dag.add_edge(b, m, 1, config.input_width, all.clone(), 0);
                let sh = dag.add_node(
                    Prim::Shift,
                    Some(fu),
                    config.acc_width,
                    format!("shift_fu{fu}"),
                );
                dag.add_edge(m, sh, 0, config.input_width * 2, all.clone(), 0);
                dag.add_edge(c, sh, 1, config.input_width, all.clone(), 0);
                sh
            }
            FuOp::MaxAcc => {
                let a = operand(&mut dag, inputs[0]);
                let mx = dag.add_node(
                    Prim::Max,
                    Some(fu),
                    config.input_width,
                    format!("max_fu{fu}"),
                );
                dag.add_edge(a, mx, 0, config.input_width, all.clone(), 0);
                mx
            }
        };
        product.push(out);
    }

    // ------------------------------------------------------------------
    // Output accumulation and commit: adder chains along the ADG's partial
    // sum edges, local accumulators where the output is stationary.
    // ------------------------------------------------------------------
    let out_plan = adg
        .tensors
        .iter()
        .find(|t| t.role == TensorRole::Output)
        .expect("workload has an output");
    lower_output(&mut dag, adg, out_plan, config, &addr_at, &product);

    dag
}

/// Builds the delivery network for one input tensor: read ports at data
/// nodes, FIFOs on delayed edges, star wiring for zero-depth distribution,
/// muxes where several sources feed one FU.
fn lower_input_delivery(
    dag: &mut Dag,
    adg: &Adg,
    plan: &TensorPlan,
    config: &BackendConfig,
    addr_at: &HashMap<(String, usize), NodeId>,
    pin: &mut HashMap<(String, usize), NodeId>,
) {
    let n_df = adg.dataflows.len();
    let tensor = plan.tensor.clone();

    // Drivers per FU: (node, activity) — filled in delivery order.
    let mut drivers: BTreeMap<usize, Vec<(NodeId, Vec<bool>)>> = BTreeMap::new();

    for dn in &plan.data_nodes {
        let port = dag.add_node(
            Prim::ReadPort {
                tensor: tensor.clone(),
            },
            Some(dn.fu),
            config.input_width,
            format!("rd_{tensor}_fu{}", dn.fu),
        );
        let addr = addr_at[&(tensor.clone(), dn.fu)];
        let mut act = vec![false; n_df];
        for &k in &dn.active_in {
            act[k] = true;
        }
        dag.add_edge(addr, port, 0, config.addr_width, act.clone(), 0);
        drivers.entry(dn.fu).or_default().push((port, act));
    }

    // Deliver along edges in BFS order from data nodes so upstream pins
    // exist before downstream consumers.
    let mut resolved: HashMap<usize, NodeId> = HashMap::new();
    let mut pending: Vec<&lego_frontend::FuEdge> = adg.edges_for(&tensor).collect();
    let mut queue: VecDeque<usize> = drivers.keys().copied().collect();
    let mut guard = 0usize;
    while !queue.is_empty() || !pending.is_empty() {
        guard += 1;
        assert!(
            guard <= 4 * (adg.num_fus + pending.len() + 1),
            "delivery for {tensor} did not converge"
        );
        let fu = match queue.pop_front() {
            Some(fu) => fu,
            None => break,
        };
        if resolved.contains_key(&fu) {
            continue;
        }
        // Resolve this FU's pin from its accumulated drivers.
        let Some(srcs) = drivers.get(&fu) else {
            // Not ready yet; skip (will be re-queued by its feeding edge).
            continue;
        };
        let node = if srcs.len() == 1 {
            srcs[0].0
        } else {
            let mux = dag.add_node(
                Prim::Mux { inputs: srcs.len() },
                Some(fu),
                config.input_width,
                format!("mux_{tensor}_fu{fu}"),
            );
            for (i, (src, act)) in srcs.iter().enumerate() {
                dag.add_edge(*src, mux, i, config.input_width, act.clone(), 0);
            }
            mux
        };
        resolved.insert(fu, node);
        pin.insert((tensor.clone(), fu), node);

        // Push downstream deliveries whose source is now resolved.
        let mut i = 0;
        while i < pending.len() {
            if pending[i].from == fu {
                let e = pending.remove(i);
                let act: Vec<bool> = (0..n_df).map(|k| e.active_in(k)).collect();
                let max_depth = e.max_depth();
                let drv = if max_depth > 0 {
                    let fifo = dag.add_node(
                        Prim::Fifo {
                            depth: e.depth_per_df.clone(),
                        },
                        Some(e.to),
                        config.input_width,
                        format!("fifo_{tensor}_{}to{}", e.from, e.to),
                    );
                    dag.add_edge(node, fifo, 0, config.input_width, act.clone(), max_depth);
                    fifo
                } else {
                    // Zero-depth: star wire from the resolved driver.
                    node
                };
                drivers.entry(e.to).or_default().push((drv, act));
                queue.push_back(e.to);
            } else {
                i += 1;
            }
        }
        // An FU with several incoming edges resolves once all arrived; the
        // queue may hold it multiple times, which is harmless.
    }

    // Any FU not reached has no delivery in any dataflow — that would be a
    // front-end bug; fail loudly.
    for fu in 0..adg.num_fus {
        assert!(
            resolved.contains_key(&fu),
            "tensor {tensor} undelivered at FU {fu}"
        );
    }
}

/// Builds the partial-sum network: per-FU adders (chained per the ADG's
/// output edges, forming the naive "long adder chain"), local accumulators
/// for stationary outputs, FIFOs on delayed partial-sum hops, and write
/// ports at committing FUs.
fn lower_output(
    dag: &mut Dag,
    adg: &Adg,
    plan: &TensorPlan,
    config: &BackendConfig,
    addr_at: &HashMap<(String, usize), NodeId>,
    product: &[NodeId],
) {
    let n_df = adg.dataflows.len();
    let tensor = plan.tensor.clone();
    let stationary_any = plan.stationary_in.iter().any(|&s| s);

    // Incoming partial-sum sources and outgoing targets per FU (from ADG
    // output edges, both in edge order).
    let mut incoming: BTreeMap<usize, Vec<(&FuEdge, Vec<bool>)>> = BTreeMap::new();
    let mut outgoing: Vec<Vec<usize>> = vec![Vec::new(); adg.num_fus];
    for e in adg.edges_for(&tensor) {
        let act: Vec<bool> = (0..n_df).map(|k| e.active_in(k)).collect();
        incoming.entry(e.to).or_default().push((e, act));
        outgoing[e.from].push(e.to);
    }

    // The accumulated output of each FU: local product + incoming partials,
    // realized as a chain of binary adders (naive codegen).
    let mut acc_out: Vec<Option<NodeId>> = vec![None; adg.num_fus];
    // Topological order over the partial-sum forest (leaves first).
    let order = {
        let mut fanin = vec![0usize; adg.num_fus];
        for (to, srcs) in &incoming {
            fanin[*to] += srcs.len();
        }
        let mut q: VecDeque<usize> = (0..adg.num_fus).filter(|&f| fanin[f] == 0).collect();
        let mut order = Vec::new();
        let mut consumed = vec![0usize; adg.num_fus];
        while let Some(f) = q.pop_front() {
            order.push(f);
            for &to in &outgoing[f] {
                consumed[to] += 1;
                if consumed[to] == fanin[to] {
                    q.push_back(to);
                }
            }
        }
        assert_eq!(order.len(), adg.num_fus, "cyclic partial-sum network");
        order
    };

    let all = vec![true; n_df];
    for fu in order {
        let mut acc = dag.add_node(Prim::Add, Some(fu), config.acc_width, format!("acc_fu{fu}"));
        dag.nodes[acc].accumulate = stationary_any;
        dag.add_edge(product[fu], acc, 0, config.input_width * 2, all.clone(), 0);
        // Chain in incoming partials one binary adder at a time.
        let mut chain_head = acc;
        let mut pin_idx = 1usize;
        if let Some(srcs) = incoming.get(&fu) {
            for (idx, (e, act)) in srcs.iter().enumerate() {
                let (from, depth) = (e.from, e.max_depth());
                let src_node = acc_out[from].expect("topological order");
                let src = if depth > 0 {
                    let fifo = dag.add_node(
                        Prim::Fifo {
                            depth: e.depth_per_df.clone(),
                        },
                        Some(fu),
                        config.acc_width,
                        format!("fifo_{tensor}_{from}to{fu}"),
                    );
                    dag.add_edge(src_node, fifo, 0, config.acc_width, act.clone(), depth);
                    fifo
                } else {
                    src_node
                };
                if idx == 0 {
                    dag.add_edge(src, chain_head, pin_idx, config.acc_width, act.clone(), 0);
                    pin_idx += 1;
                } else {
                    // Extend the adder chain.
                    let next = dag.add_node(
                        Prim::Add,
                        Some(fu),
                        config.acc_width,
                        format!("acc_fu{fu}_{idx}"),
                    );
                    dag.add_edge(chain_head, next, 0, config.acc_width, all.clone(), 0);
                    dag.add_edge(src, next, 1, config.acc_width, act.clone(), 0);
                    chain_head = next;
                }
            }
        }
        let _ = pin_idx;
        acc = chain_head;
        acc_out[fu] = Some(acc);
    }

    for dn in &plan.data_nodes {
        let port = dag.add_node(
            Prim::WritePort {
                tensor: tensor.clone(),
            },
            Some(dn.fu),
            config.acc_width,
            format!("wr_{tensor}_fu{}", dn.fu),
        );
        let mut act = vec![false; n_df];
        for &k in &dn.active_in {
            act[k] = true;
        }
        dag.add_edge(
            acc_out[dn.fu].expect("committing FU accumulates"),
            port,
            0,
            config.acc_width,
            act.clone(),
            0,
        );
        let addr = addr_at[&(tensor.clone(), dn.fu)];
        dag.add_edge(addr, port, 1, config.addr_width, act, 0);
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
            ..Default::default()
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
