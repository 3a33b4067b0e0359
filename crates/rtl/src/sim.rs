//! Edge-accurate functional simulation of an ADG.
//!
//! Every input operand an FU consumes must arrive through the architecture:
//! from the FU's own read port (a data node), from a zero-depth wire, or
//! from a delay FIFO whose programmed depth and systolic bias place the
//! value at exactly the right absolute cycle. Data is carried as
//! `(tensor index, value)` pairs, so a mis-planned connection cannot pass
//! by accidental value equality.
//!
//! Tile-boundary cycles whose operands were never seen by any upstream FU
//! fall back to a direct L1 fetch (real LEGO handles these with validity
//! windows on the distribution switches); the simulator counts them so
//! tests can assert that steady-state reuse dominates.
//!
//! Cost: time O(cycles × (FUs + active edges)), as each FU scans only its
//! own incoming FIFOs and wires; memory beyond the tensors is O(FUs ×
//! (temporal rank + operands) + active edges + FIFO slots). Each FU keeps
//! a temporal odometer and its operands' flat offsets (the tags).

use std::collections::VecDeque;

use lego_frontend::Adg;
use lego_ir::tensor::{advance, checked_inputs, TensorData};
use lego_linalg::dot;

/// Counters describing how operands were delivered during simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Absolute cycles simulated, including systolic skew:
    /// `total steps + max bias − min bias`, where a negative control
    /// vector starts the horizon before cycle 0.
    pub cycles: i64,
    /// Operand deliveries through planned data-node ports.
    pub port_reads: u64,
    /// Operand deliveries through FU-to-FU interconnections.
    pub edge_deliveries: u64,
    /// Boundary fetches not covered by the reuse network.
    pub fallback_reads: u64,
    /// Loop-body evaluations executed.
    pub fu_ops: u64,
}

/// Simulation result: the output tensor plus delivery statistics.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// Computed output tensor.
    pub output: TensorData,
    /// Delivery statistics.
    pub stats: SimStats,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Datum {
    /// Flat offset of the tensor element (the tag).
    tag: usize,
    value: i64,
}

/// Simulates the ADG running dataflow `df` on the given inputs and returns
/// the output tensor computed purely from network-delivered operands.
///
/// # Panics
///
/// Panics if `df` is out of range, the inputs mismatch the workload in
/// count or shape, or the dataflow indexes a tensor out of bounds.
pub fn simulate(adg: &Adg, df: usize, inputs: &[&TensorData]) -> SimOutput {
    let dataflow = &adg.dataflows[df];
    let workload = &adg.workload;
    let input_accesses = checked_inputs(workload, inputs);

    let n_fus = adg.num_fus;
    let coords = dataflow.fu_coords();
    let bias: Vec<i64> = coords.iter().map(|s| dataflow.t_bias(s)).collect();
    let min_bias = bias.iter().copied().min().unwrap_or(0);
    let max_bias = bias.iter().copied().max().unwrap_or(0);
    let total = dataflow.total_steps();
    let mut stats = SimStats {
        cycles: total + max_bias - min_bias,
        ..SimStats::default()
    };

    // Tags as flat offsets: operand `j` of the FU at `s` and step `t` has
    // tag `coefs[j]·[t; s] + base[j]`. Each FU keeps its own odometer over
    // `t` and its operands' offsets (inputs, then the output).
    let out_access = workload.output();
    let mut output = TensorData::zeros(&workload.tensor_shape(&out_access.tensor));
    let sizes = &dataflow.temporal_sizes;
    let extents = [&sizes[..], &dataflow.spatial_sizes].concat();
    let data = inputs.iter().copied().chain([&output]);
    let maps = input_accesses.iter().copied().chain([out_access]);
    let (coefs, bases): (Vec<_>, Vec<_>) = data
        .zip(maps)
        .map(|(t, a)| t.offset_map(&dataflow.composed_map(a), &extents))
        .unzip();
    let (n_ops, rank) = (coefs.len(), sizes.len());
    let mut digits = vec![0i64; n_fus * rank];
    let mut offsets = Vec::with_capacity(n_fus * n_ops);
    for s in &coords {
        for (c, b) in coefs.iter().zip(&bases) {
            offsets.push(b + dot(&c[rank..], s));
        }
    }

    // Per input tensor: per-FU current datum, FIFOs and per-FU in-lists.
    struct TensorNet<'a> {
        data: &'a [i64],
        value_at: Vec<Option<Datum>>,
        // Active FIFOs `(source FU, head, ring of depth slots)`: each cycle
        // reads `ring[head]`, written `depth` cycles ago, then overwrites
        // it and moves `head` on.
        fifos: Vec<(usize, usize, Vec<Option<Datum>>)>,
        // Per FU, its incoming FIFOs and depth-0 wire sources, both in
        // `adg.edges` order (the delivery match order).
        fifo_in: Vec<Vec<usize>>,
        wire_in: Vec<Vec<usize>>,
        order: Vec<usize>, // FU resolution order honoring depth-0 wires
        is_port: Vec<bool>,
    }

    let mut nets: Vec<TensorNet> = Vec::new();
    for (access, data) in input_accesses.iter().zip(inputs) {
        let plan = adg.tensor_plan(&access.tensor).expect("tensor plan exists");
        let mut is_port = vec![false; n_fus];
        for dn in plan.data_nodes_in(df) {
            is_port[dn.fu] = true;
        }
        let mut fifos = Vec::new();
        let mut fifo_in: Vec<Vec<usize>> = vec![Vec::new(); n_fus];
        let mut wire_in: Vec<Vec<usize>> = vec![Vec::new(); n_fus];
        let mut wire_adj: Vec<Vec<usize>> = vec![Vec::new(); n_fus];
        let mut indeg = vec![0usize; n_fus];
        for e in &adg.edges {
            if e.tensor != access.tensor || !e.active_in(df) {
                continue;
            }
            let depth = e.depth_per_df[df].expect("active edge has depth");
            if depth > 0 {
                fifo_in[e.to].push(fifos.len());
                fifos.push((e.from, 0, vec![None; depth as usize]));
            } else {
                wire_in[e.to].push(e.from);
                wire_adj[e.from].push(e.to);
                indeg[e.to] += 1;
            }
        }
        // Topological order over depth-0 wires (delivery trees ⇒ acyclic).
        let mut queue: VecDeque<usize> = (0..n_fus).filter(|&f| indeg[f] == 0).collect();
        let mut order = Vec::with_capacity(n_fus);
        while let Some(f) = queue.pop_front() {
            order.push(f);
            for &t in &wire_adj[f] {
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push_back(t);
                }
            }
        }
        assert_eq!(order.len(), n_fus, "cyclic zero-depth delivery");
        nets.push(TensorNet {
            data: data.as_slice(),
            value_at: vec![None; n_fus],
            fifos,
            fifo_in,
            wire_in,
            order,
            is_port,
        });
    }

    let mut operand_buf = vec![0i64; inputs.len()];
    let active = |fu: usize, tau: i64| (0..total).contains(&(tau - bias[fu]));
    for tau in min_bias..total + max_bias {
        // 1. Resolve each tensor's network for this cycle.
        for (j, net) in nets.iter_mut().enumerate() {
            for &fu in &net.order {
                if !active(fu, tau) {
                    net.value_at[fu] = None;
                    continue;
                }
                let tag = offsets[fu * n_ops + j] as usize;
                // Delivery priority: FIFO arrivals, then wires, then the
                // planned port, then a boundary fallback.
                let arrivals = (net.fifo_in[fu].iter())
                    .map(|&q| &net.fifos[q])
                    .map(|(_, head, ring)| ring[*head]);
                let wired = net.wire_in[fu].iter().map(|&src| net.value_at[src]);
                let found = arrivals.chain(wired).flatten().find(|d| d.tag == tag);
                let counter = match (found, net.is_port[fu]) {
                    (Some(_), _) => &mut stats.edge_deliveries,
                    (None, true) => &mut stats.port_reads,
                    (None, false) => &mut stats.fallback_reads,
                };
                *counter += 1;
                net.value_at[fu] = Some(found.unwrap_or_else(|| Datum {
                    tag,
                    value: net.data[tag],
                }));
            }
            // Push this cycle's values into the FIFOs.
            for (from, head, ring) in &mut net.fifos {
                ring[*head] = net.value_at[*from];
                *head = if *head + 1 < ring.len() { *head + 1 } else { 0 };
            }
        }

        // 2. Compute: every valid FU evaluates the loop body once, then
        // steps its odometer.
        for fu in (0..n_fus).filter(|&fu| active(fu, tau)) {
            for (slot, net) in operand_buf.iter_mut().zip(&nets) {
                let Some(d) = net.value_at[fu] else {
                    panic!("valid FU {fu} missing an operand at cycle {tau}");
                };
                *slot = d.value;
            }
            let fu_offsets = &mut offsets[fu * n_ops..][..n_ops];
            let y = &mut output.as_mut_slice()[fu_offsets[n_ops - 1] as usize];
            *y = workload.op.apply(*y, &operand_buf);
            stats.fu_ops += 1;
            advance(&mut digits[fu * rank..][..rank], sizes, &coefs, fu_offsets);
        }
    }

    SimOutput { output, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_frontend::{build_adg, FrontendConfig};
    use lego_ir::kernels::{self, dataflows};
    use lego_ir::tensor::reference_execute;

    /// Element `k` of input `i`: one of 23 values.
    fn spread(i: usize, k: usize) -> i64 {
        ((k * 31 + i * 17 + 7) % 23) as i64 - 11
    }

    /// Element `k` of input `i`: a pseudo-random bit, so a datum with the
    /// wrong tag usually carries the right value.
    fn coin(i: usize, k: usize) -> i64 {
        ((((i as u64) << 32) ^ k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63) as i64
    }

    fn inputs_for(workload: &lego_ir::Workload, value: fn(usize, usize) -> i64) -> Vec<TensorData> {
        workload
            .inputs()
            .enumerate()
            .map(|(i, a)| TensorData::from_fn(&workload.tensor_shape(&a.tensor), |k| value(i, k)))
            .collect()
    }

    /// Simulates dataflow `df` of `adg` on inputs drawn from `value` and
    /// checks it against the reference.
    fn run_on(adg: &Adg, df: usize, value: fn(usize, usize) -> i64) -> SimStats {
        let workload = &adg.workload;
        let inputs = inputs_for(workload, value);
        let refs: Vec<&TensorData> = inputs.iter().collect();
        let expect = reference_execute(workload, &refs);
        let out = simulate(adg, df, &refs);
        assert_eq!(out.output, expect, "simulation diverged from reference");
        assert_eq!(out.stats.fu_ops as i64, workload.domain_size());
        out.stats
    }

    fn run_and_check(
        workload: &lego_ir::Workload,
        dfs: &[lego_ir::Dataflow],
        df: usize,
    ) -> SimStats {
        run_on(
            &build_adg(workload, dfs, &FrontendConfig::default()).unwrap(),
            df,
            spread,
        )
    }

    /// Simulates `df` as planned and then with its first active FIFO one
    /// stage deeper, returning `(edge deliveries, fallback reads)` of both.
    /// A deepened FIFO delivers each value a cycle late, tagged with the
    /// previous step's element, so the receiver must reject it by tag and
    /// fetch the operand another way; the output still matches. The
    /// inputs are mostly repeated values, so a matcher that compared
    /// values instead of tags would count different deliveries.
    fn deepened_first_fifo(workload: &lego_ir::Workload, df: lego_ir::Dataflow) -> [(u64, u64); 2] {
        let mut adg = build_adg(workload, &[df], &FrontendConfig::default()).unwrap();
        let planned = run_on(&adg, 0, coin);
        let edge = adg
            .edges
            .iter_mut()
            .find(|e| matches!(e.depth_per_df[0], Some(d) if d > 0))
            .expect("design has a FIFO");
        *edge.depth_per_df[0].as_mut().unwrap() += 1;
        let deepened = run_on(&adg, 0, coin);
        assert_eq!(deepened.cycles, planned.cycles);
        assert_eq!(deepened.port_reads, planned.port_reads);
        [planned, deepened].map(|s| (s.edge_deliveries, s.fallback_reads))
    }

    #[test]
    fn a_late_fifo_value_is_rejected_by_its_tag() {
        let gemm = kernels::gemm(32, 32, 32);
        assert_eq!(
            deepened_first_fifo(&gemm, dataflows::gemm_kj(&gemm, 8)),
            [(28_672, 0), (28_160, 512)]
        );
        let conv = kernels::conv2d(1, 8, 8, 32, 32, 3, 3, 1);
        assert_eq!(
            deepened_first_fifo(&conv, dataflows::conv_ohow(&conv, 8)),
            [(953_344, 207_872), (947_200, 214_016)]
        );
    }

    #[test]
    fn negative_control_runs_every_step() {
        // Negative biases start FUs before cycle 0; none may lose a step.
        let gemm = kernels::gemm(4, 4, 4);
        for control in [vec![1, -1], vec![-1, 0], vec![0, -2]] {
            let df = lego_ir::DataflowBuilder::new(&gemm)
                .par("i", 2)
                .par("k", 2)
                .control(control.clone())
                .build("GEMM-IK-skewed")
                .unwrap();
            let stats = run_and_check(&gemm, &[df], 0);
            assert_eq!(stats.fallback_reads, 0, "{control:?}: {stats:?}");
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mis_shaped_input_panics() {
        let gemm = kernels::gemm(4, 4, 4);
        let adg = build_adg(
            &gemm,
            &[dataflows::gemm_ij(&gemm, 2)],
            &FrontendConfig::default(),
        );
        let mut inputs = inputs_for(&gemm, spread);
        inputs[0] = TensorData::zeros(&[4, 5]);
        simulate(&adg.unwrap(), 0, &inputs.iter().collect::<Vec<_>>());
    }

    #[test]
    fn systolic_gemm_matches_reference() {
        let gemm = kernels::gemm(8, 4, 4);
        let stats = run_and_check(&gemm, &[dataflows::gemm_kj(&gemm, 2)], 0);
        // X forwarding delivers data across FUs.
        assert!(stats.edge_deliveries > 0);
    }

    #[test]
    fn broadcast_gemm_matches_reference() {
        let gemm = kernels::gemm(4, 4, 4);
        let stats = run_and_check(&gemm, &[dataflows::gemm_ij(&gemm, 2)], 0);
        // Broadcast: 3 of 4 FUs get X and W over wires every cycle.
        assert!(stats.edge_deliveries >= stats.port_reads);
    }

    #[test]
    fn conv_ohow_matches_reference() {
        let conv = kernels::conv2d(1, 2, 2, 4, 4, 3, 3, 1);
        let stats = run_and_check(&conv, &[dataflows::conv_ohow(&conv, 2)], 0);
        // Steady-state reuse must dominate boundary fallbacks.
        assert!(stats.edge_deliveries > stats.fallback_reads, "{stats:?}");
    }

    #[test]
    fn conv_icoc_matches_reference() {
        let conv = kernels::conv2d(1, 4, 4, 3, 3, 3, 3, 1);
        run_and_check(&conv, &[dataflows::conv_icoc(&conv, 2)], 0);
    }

    #[test]
    fn mttkrp_matches_reference() {
        let m = kernels::mttkrp(4, 4, 2, 2);
        run_and_check(&m, &[dataflows::mttkrp_ij(&m, 2)], 0);
    }

    #[test]
    fn fused_design_runs_both_dataflows() {
        let gemm = kernels::gemm(8, 8, 8);
        let dfs = vec![dataflows::gemm_ij(&gemm, 2), dataflows::gemm_kj(&gemm, 2)];
        run_and_check(&gemm, &dfs, 0);
        run_and_check(&gemm, &dfs, 1);
    }

    #[test]
    fn depthwise_conv_matches_reference() {
        let dw = kernels::depthwise_conv2d(1, 4, 4, 4, 3, 3, 1);
        let df = lego_ir::DataflowBuilder::new(&dw)
            .par("oh", 2)
            .par("ow", 2)
            .build("DW-OHOW")
            .unwrap();
        run_and_check(&dw, &[df], 0);
    }

    #[test]
    fn strided_conv_matches_reference() {
        let conv = kernels::conv2d(1, 2, 2, 3, 3, 3, 3, 2);
        run_and_check(&conv, &[dataflows::conv_ohow(&conv, 3)], 0);
    }
}
