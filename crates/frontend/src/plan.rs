//! Interconnection planning: MST pruning and multi-dataflow fusion
//! (paper §IV-B and §IV-C, Figure 5).
//!
//! Per tensor and per dataflow, FUs are partitioned into *chains* — the
//! equivalence classes of the direct-reuse relation. Data reaches a chain
//! either from memory (a data node on the chain root) or from another chain
//! through a delay FIFO; choosing the cheapest set of deliveries is a
//! minimum spanning arborescence over chains with a virtual memory root
//! (Chu-Liu/Edmonds, weight = FIFO depth, constant penalty per data node).
//!
//! When several spatial dataflows are fused into one design, the direct
//! interconnections are re-established with the paper's heuristic: chains
//! are processed longest-first; the chain root is picked among delivery
//! points (or all members) by fewest possible input direct interconnections
//! with preference for FUs already carrying a data node; and the chain is
//! grown outward from the root by a Prim/BFS sweep that prefers reusing
//! connections already present in the merged design.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use crate::adg::{Adg, DataNode, FuEdge, TensorPlan};
use crate::interconnect::{analyze_tensor, ReuseKind, ReuseSolution};
use crate::memory::{bank_shape, MemoryPlan};
use lego_graph::{min_spanning_arborescence, Edge, UnionFind};
use lego_ir::{Dataflow, TensorAccess, TensorRole, Workload};

/// Largest spatial distance `d_S` of an interconnection (Equation 6's
/// `‖Δs‖∞ ≤ d_S` constraint): nearest neighbours, as in the paper.
const MAX_SPATIAL_DISTANCE: i64 = 1;
/// Arborescence weight of feeding a chain from memory (a data node); larger
/// values trade FIFO depth for fewer data-distribution switches.
const ROOT_COST: i64 = 64;
/// Arborescence weight per FIFO stage of a delay delivery.
const DEPTH_COST: i64 = 8;

/// One tensor's merged edges: physical flow `(from, to)` → FIFO depth per
/// dataflow (`None` where the edge is inactive).
type TensorEdges = BTreeMap<(usize, usize), Vec<Option<i64>>>;

/// How a chain receives (input) or disposes of (output) its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainLink {
    /// Chain root carries a data node (memory port).
    Memory,
    /// Data crosses from/to another chain through a FIFO of `depth` between
    /// the given FUs (physical flow `from_fu → to_fu`).
    Delay {
        from_fu: usize,
        to_fu: usize,
        depth: i64,
    },
}

struct DfPlan {
    /// Partial sums flow against the direct solutions' `Δs`.
    is_output: bool,
    directs: Vec<ReuseSolution>,
    chains: Vec<Vec<usize>>,
    links: Vec<ChainLink>,
    stationary: bool,
}

/// Runs planning for every tensor and assembles the ADG.
pub(crate) fn plan_architecture(workload: &Workload, dataflows: &[Dataflow]) -> Adg {
    let num_fus = dataflows[0].num_fus() as usize;
    let grids: Vec<FuGrid> = dataflows.iter().map(FuGrid::new).collect();
    let mut edges: Vec<FuEdge> = Vec::new();
    let tensors = workload
        .accesses
        .iter()
        .map(|access| plan_tensor(&grids, access, num_fus, &mut edges))
        .collect();
    // `adg.edges` is sorted by tensor name, then by `(from, to)`: each
    // tensor appends its edges in that order, and the sort is stable.
    edges.sort_by(|a, b| a.tensor.cmp(&b.tensor));

    Adg {
        workload: workload.clone(),
        dataflows: dataflows.to_vec(),
        num_fus,
        edges,
        tensors,
    }
}

/// One dataflow with its FU coordinate table, built once per
/// [`plan_architecture`] and borrowed by every planning step.
struct FuGrid<'a> {
    df: &'a Dataflow,
    coords: Vec<Vec<i64>>,
}

impl<'a> FuGrid<'a> {
    fn new(df: &'a Dataflow) -> Self {
        FuGrid {
            df,
            coords: df.fu_coords(),
        }
    }

    /// Index of the FU one step of `sign · delta_s` from FU `u` (row-major,
    /// as [`Dataflow::fu_index`]); `None` if the step leaves the array.
    fn step(&self, u: usize, delta_s: &[i64], sign: i64) -> Option<usize> {
        let mut index = 0i64;
        for ((&c, &d), &p) in self.coords[u]
            .iter()
            .zip(delta_s)
            .zip(&self.df.spatial_sizes)
        {
            let v = c + sign * d;
            if v < 0 || v >= p {
                return None;
            }
            index = index * p + v;
        }
        Some(index as usize)
    }
}

/// Plans one tensor and appends its edges to `adg_edges`.
fn plan_tensor(
    grids: &[FuGrid],
    access: &TensorAccess,
    num_fus: usize,
    adg_edges: &mut Vec<FuEdge>,
) -> TensorPlan {
    let n_df = grids.len();
    let is_output = access.role == TensorRole::Output;

    // Per-dataflow analysis: solutions, chains, delivery links.
    let df_plans: Vec<DfPlan> = grids
        .iter()
        .map(|grid| analyze_dataflow(grid, access))
        .collect();

    // Static possible-input-direct-interconnection degree per FU, over all
    // dataflows (the root-selection metric of Figure 5).
    let mut static_in = vec![0usize; num_fus];
    for (grid, plan) in grids.iter().zip(&df_plans) {
        for u in 0..num_fus {
            for sol in &plan.directs {
                if let Some(v) = grid.step(u, &sol.delta_s, 1) {
                    let recv = if is_output { u } else { v };
                    static_in[recv] += 1;
                }
            }
        }
    }

    // Merged planning state, indexed by FU: the dataflows each data node
    // serves, the length of the longest chain each FU roots, and each FU's
    // position in the chain being planned (`usize::MAX` if not in it).
    let mut data_nodes: Vec<Vec<usize>> = vec![Vec::new(); num_fus];
    let mut root_len = vec![0usize; num_fus];
    let mut pos = vec![usize::MAX; num_fus];
    let mut edges = TensorEdges::new();

    // Work list: (df, chain members, link), longest chains first; leftover
    // fragments are appended with a Memory link. Every item plans at least
    // its root, so leftovers shrink and the list drains.
    let mut work: Vec<(usize, Vec<usize>, ChainLink)> = df_plans
        .iter()
        .enumerate()
        .flat_map(|(k, p)| {
            p.chains
                .iter()
                .zip(&p.links)
                .map(move |(c, &l)| (k, c.clone(), l))
        })
        .collect();
    work.sort_by_key(|(_, members, _)| Reverse(members.len()));
    let mut work = VecDeque::from(work);

    while let Some((k, members, link)) = work.pop_front() {
        let grid = &grids[k];
        let plan = &df_plans[k];
        for (i, &fu) in members.iter().enumerate() {
            pos[fu] = i;
        }

        // Root candidates per Figure 5 steps 2-3. A delay delivery enters
        // its chain at a member.
        let mut candidates: Vec<usize> = match link {
            ChainLink::Delay { from_fu, to_fu, .. } => {
                vec![if is_output { from_fu } else { to_fu }]
            }
            ChainLink::Memory => members.clone(),
        };
        // Step 4: fewest possible input direct interconnections, preferring
        // FUs already labeled with a data node.
        candidates.sort_by_key(|&fu| (static_in[fu], usize::from(data_nodes[fu].is_empty()), fu));

        // Grow the chain from the best candidate that spans it fully;
        // otherwise take the best partial cover and re-queue the leftovers.
        #[allow(clippy::type_complexity)]
        let mut best: Option<(usize, Vec<(usize, usize, i64)>, Vec<bool>)> = None;
        for &root in &candidates {
            let (chosen, visited) = grow_chain(grid, plan, &members, &pos, root, &edges, &root_len);
            let spans = chosen.len() + 1 == members.len();
            if best
                .as_ref()
                .is_none_or(|(_, best_chosen, _)| chosen.len() > best_chosen.len())
            {
                best = Some((root, chosen, visited));
            }
            if spans {
                break;
            }
        }
        let (root, mut chosen, visited) =
            best.expect("chain always has at least one candidate root");
        let len = chosen.len() + 1;
        root_len[root] = root_len[root].max(len);
        match link {
            ChainLink::Memory => {
                if !data_nodes[root].contains(&k) {
                    data_nodes[root].push(k);
                }
            }
            ChainLink::Delay {
                from_fu,
                to_fu,
                depth,
            } => chosen.push((from_fu, to_fu, depth)),
        }
        for (from, to, depth) in chosen {
            let slot = &mut edges.entry((from, to)).or_insert_with(|| vec![None; n_df])[k];
            *slot = (*slot).max(Some(depth));
        }

        // Leftovers (unreachable under the directed direct solutions from
        // the chosen root) become memory-fed fragments.
        if len < members.len() {
            for frag in fragments(grid, plan, &members, &visited, &pos) {
                work.push_back((k, frag, ChainLink::Memory));
            }
        }
        for &fu in &members {
            pos[fu] = usize::MAX;
        }
    }

    let data_nodes: Vec<DataNode> = data_nodes
        .into_iter()
        .enumerate()
        .filter(|(_, active_in)| !active_in.is_empty())
        .map(|(fu, active_in)| DataNode { fu, active_in })
        .collect();

    // Memory analysis per dataflow over the data nodes active in it.
    let per_dataflow = (0..n_df)
        .map(|k| {
            let coords: Vec<Vec<i64>> = data_nodes
                .iter()
                .filter(|d| d.active_in.contains(&k))
                .map(|d| grids[k].coords[d.fu].clone())
                .collect();
            bank_shape(grids[k].df, access, &coords)
        })
        .collect();

    adg_edges.extend(edges.into_iter().map(|((from, to), depth_per_df)| FuEdge {
        tensor: access.tensor.clone(),
        from,
        to,
        depth_per_df,
    }));
    TensorPlan {
        tensor: access.tensor.clone(),
        role: access.role,
        data_nodes,
        memory: MemoryPlan { per_dataflow },
        stationary_in: df_plans.iter().map(|p| p.stationary).collect(),
    }
}

/// Analysis of one tensor under one dataflow: reuse solutions, chains from
/// the direct relation, and the chain-level spanning arborescence that
/// assigns each chain a data node or a delay delivery.
fn analyze_dataflow(grid: &FuGrid, access: &TensorAccess) -> DfPlan {
    let is_output = access.role == TensorRole::Output;
    let solutions = analyze_tensor(grid.df, access, MAX_SPATIAL_DISTANCE);
    let stationary = solutions.iter().any(|s| s.kind == ReuseKind::Stationary);
    let (directs, delays): (Vec<ReuseSolution>, Vec<ReuseSolution>) = solutions
        .into_iter()
        .filter(|s| s.kind != ReuseKind::Stationary)
        .partition(|s| s.kind == ReuseKind::Direct);

    let n = grid.coords.len();
    let mut uf = UnionFind::new(n);
    for u in 0..n {
        for sol in &directs {
            if let Some(v) = grid.step(u, &sol.delta_s, 1) {
                uf.union(u, v);
            }
        }
    }
    let chains = uf.groups();
    let mut chain_of = vec![0usize; n];
    for (c, members) in chains.iter().enumerate() {
        for &fu in members {
            chain_of[fu] = c;
        }
    }

    // Chain-level arborescence with a virtual memory root: edges `0..virt`
    // feed each chain from memory, and edge `virt + i` is delay delivery
    // `deliveries[i]` (physical flow from→to, depth). For outputs the graph
    // is reversed so the arborescence root side is the committer.
    let virt = chains.len();
    let mut edges: Vec<Edge> = (0..virt)
        .map(|c| Edge {
            from: virt,
            to: c,
            weight: ROOT_COST,
        })
        .collect();
    let mut deliveries: Vec<(usize, usize, i64)> = Vec::new();
    for u in 0..n {
        for sol in &delays {
            if let Some(v) = grid.step(u, &sol.delta_s, 1) {
                let (cu, cv) = (chain_of[u], chain_of[v]);
                if cu == cv {
                    continue;
                }
                let (from, to) = if is_output { (cv, cu) } else { (cu, cv) };
                edges.push(Edge {
                    from,
                    to,
                    weight: sol.depth * DEPTH_COST + 1,
                });
                deliveries.push((u, v, sol.depth));
            }
        }
    }

    let arb = min_spanning_arborescence(virt + 1, &edges, virt)
        .expect("the virtual root has an edge to every chain");
    let mut links = vec![ChainLink::Memory; chains.len()];
    for id in arb.edges.into_iter().filter(|&id| id >= virt) {
        let (from_fu, to_fu, depth) = deliveries[id - virt];
        // For input the arborescence edge enters the receiving chain; for
        // output it enters the *sending* chain of the physical flow.
        links[edges[id].to] = ChainLink::Delay {
            from_fu,
            to_fu,
            depth,
        };
    }

    DfPlan {
        is_output,
        directs,
        chains,
        links,
        stationary,
    }
}

/// Prim/BFS growth of one chain from `root` (Figure 5 step 5): repeatedly
/// attach the unvisited member reachable through a valid direct solution,
/// preferring edges that already exist in the merged design, then smaller
/// forwarding depth, then targets that root longer previously-built chains.
/// `pos` maps each FU to its position in `members` (`usize::MAX` if not a
/// member), and `root` is a member.
///
/// Returns the chosen physical edges `(from, to, depth)` and the visit mask
/// (parallel to `members`).
fn grow_chain(
    grid: &FuGrid,
    plan: &DfPlan,
    members: &[usize],
    pos: &[usize],
    root: usize,
    merged: &TensorEdges,
    root_len: &[usize],
) -> (Vec<(usize, usize, i64)>, Vec<bool>) {
    let is_output = plan.is_output;
    let mut visited = vec![false; members.len()];
    visited[pos[root]] = true;
    let mut chosen = Vec::new();
    // Input: data flows u → w, so w = u + Δs.
    // Output: partial sums flow w → u, so w = u − Δs.
    let sign = if is_output { -1 } else { 1 };
    let physical = |u: usize, w: usize| if is_output { (w, u) } else { (u, w) };

    // Prim over a heap. A move's rank — `(not yet merged, depth, −length of
    // the chain the target roots, target)`, then the position of the member
    // it leaves from and the solution it follows — is fixed for the whole
    // call, so a move is queued once, when the member it leaves from is
    // attached, and one whose target got attached meanwhile is skipped.
    let mut moves = BinaryHeap::new();
    let mut newest = pos[root];
    loop {
        let u = members[newest];
        for (si, sol) in plan.directs.iter().enumerate() {
            let Some(w) = grid.step(u, &sol.delta_s, sign) else {
                continue;
            };
            if pos[w] == usize::MAX || visited[pos[w]] {
                continue;
            }
            moves.push(Reverse((
                usize::from(!merged.contains_key(&physical(u, w))),
                sol.depth,
                -(root_len[w] as i64),
                w,
                newest,
                si,
            )));
        }
        let next = std::iter::from_fn(|| moves.pop())
            .map(|Reverse((_, depth, _, w, from_pos, _))| (depth, w, members[from_pos]))
            .find(|&(_, w, _)| !visited[pos[w]]);
        let Some((depth, w, u)) = next else {
            break;
        };
        let (pf, pt) = physical(u, w);
        chosen.push((pf, pt, depth));
        newest = pos[w];
        visited[newest] = true;
    }
    (chosen, visited)
}

/// Splits the members `visited` leaves out into connected fragments under
/// the undirected direct relation, so each fragment can be re-planned as
/// its own memory-fed chain. `pos` maps each FU to its position in
/// `members` (`usize::MAX` if not a member).
fn fragments(
    grid: &FuGrid,
    plan: &DfPlan,
    members: &[usize],
    visited: &[bool],
    pos: &[usize],
) -> Vec<Vec<usize>> {
    let leftover = |fu: usize| pos[fu] != usize::MAX && !visited[pos[fu]];
    let mut uf = UnionFind::new(members.len());
    for &u in members.iter().filter(|&&u| leftover(u)) {
        for sol in &plan.directs {
            for sign in [1i64, -1] {
                if let Some(v) = grid.step(u, &sol.delta_s, sign) {
                    if leftover(v) {
                        uf.union(pos[u], pos[v]);
                    }
                }
            }
        }
    }
    // A visited member is never united with anything: it is a group alone.
    uf.groups()
        .into_iter()
        .filter(|g| !visited[g[0]])
        .map(|g| g.into_iter().map(|i| members[i]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_adg, FrontendConfig, FrontendError};
    use lego_ir::kernels::{self, dataflows};
    use std::collections::HashSet;

    fn cfg() -> FrontendConfig {
        FrontendConfig::default()
    }

    #[test]
    fn tpu_systolic_gemm_topology() {
        // Paper Figure 3(c): 2×2 systolic array. X forwarded along j (depth
        // 1), Y reduced along k (depth 1), W fully partitioned (no edges,
        // 4 data nodes).
        let gemm = kernels::gemm(8, 4, 4);
        let df = dataflows::gemm_kj(&gemm, 2);
        let adg = build_adg(&gemm, &[df], &cfg()).unwrap();

        let x_edges: Vec<_> = adg.edges_for("X").collect();
        assert_eq!(x_edges.len(), 2, "{}", adg.summary());
        for e in &x_edges {
            assert_eq!(e.max_depth(), 1, "systolic X forward has depth 1");
        }
        // X ports on the first column (s_j = 0): FUs 0 and 2.
        let x_plan = adg.tensor_plan("X").unwrap();
        let ports: Vec<usize> = x_plan.data_nodes.iter().map(|d| d.fu).collect();
        assert_eq!(ports, vec![0, 2]);

        let y_edges: Vec<_> = adg.edges_for("Y").collect();
        assert_eq!(y_edges.len(), 2);
        let y_plan = adg.tensor_plan("Y").unwrap();
        assert_eq!(y_plan.data_nodes.len(), 2, "one committer per column");

        let w_plan = adg.tensor_plan("W").unwrap();
        assert_eq!(adg.edges_for("W").count(), 0, "W has no spatial reuse");
        assert_eq!(w_plan.data_nodes.len(), 4, "every FU fetches its own W");
        // W is weight-stationary over the inner i loop.
        assert!(w_plan.stationary_in[0]);
    }

    #[test]
    fn shidiannao_conv_topology() {
        // Paper Figure 4(c): 2×2 array, oh/ow parallel. W broadcast (one
        // port), X forwarded with delay FIFOs, Y committed per FU.
        let conv = kernels::conv2d(1, 2, 2, 4, 4, 3, 3, 1);
        let df = dataflows::conv_ohow(&conv, 2);
        let adg = build_adg(&conv, &[df], &cfg()).unwrap();

        let w_plan = adg.tensor_plan("W").unwrap();
        assert_eq!(w_plan.data_nodes.len(), 1, "W is broadcast from one port");
        assert_eq!(adg.edges_for("W").count(), 3, "broadcast chain spans 4 FUs");
        for e in adg.edges_for("W") {
            assert_eq!(e.max_depth(), 0, "broadcast chain is wires");
        }

        // X: delay interconnections let neighbors reuse shifted rows.
        assert!(adg.edges_for("X").count() >= 2);
        assert!(adg.edges_for("X").any(|e| e.max_depth() > 0));

        let y_plan = adg.tensor_plan("Y").unwrap();
        assert_eq!(y_plan.data_nodes.len(), 4, "output-parallel commit");
        assert!(
            y_plan.stationary_in[0],
            "Y accumulates locally over ic/kh/kw"
        );
    }

    #[test]
    fn gemm_ij_broadcast_rows_and_columns() {
        let gemm = kernels::gemm(4, 4, 4);
        let df = dataflows::gemm_ij(&gemm, 2);
        let adg = build_adg(&gemm, &[df], &cfg()).unwrap();
        // X invariant along j: one port per row; W invariant along i: one
        // port per column; Y stationary with a port per FU.
        assert_eq!(adg.tensor_plan("X").unwrap().data_nodes.len(), 2);
        assert_eq!(adg.tensor_plan("W").unwrap().data_nodes.len(), 2);
        assert_eq!(adg.tensor_plan("Y").unwrap().data_nodes.len(), 4);
        assert!(adg.tensor_plan("Y").unwrap().stationary_in[0]);
    }

    #[test]
    fn every_fu_is_reachable_per_dataflow() {
        // Spanning property: under each dataflow, every FU must receive
        // every input tensor (through a port or a chain of edges).
        let gemm = kernels::gemm(8, 8, 8);
        for df in [
            dataflows::gemm_ij(&gemm, 2),
            dataflows::gemm_ik(&gemm, 2),
            dataflows::gemm_kj(&gemm, 2),
        ] {
            let adg = build_adg(&gemm, &[df], &cfg()).unwrap();
            for plan in &adg.tensors {
                if plan.role == TensorRole::Output {
                    continue;
                }
                let mut fed: HashSet<usize> = plan.data_nodes.iter().map(|d| d.fu).collect();
                let mut changed = true;
                while changed {
                    changed = false;
                    for e in adg.edges_for(&plan.tensor) {
                        if fed.contains(&e.from) && fed.insert(e.to) {
                            changed = true;
                        }
                    }
                }
                assert_eq!(
                    fed.len(),
                    adg.num_fus,
                    "tensor {} not delivered to all FUs: {}",
                    plan.tensor,
                    adg.summary()
                );
            }
        }
    }

    #[test]
    fn output_edges_point_toward_committer() {
        let gemm = kernels::gemm(8, 4, 4);
        let df = dataflows::gemm_kj(&gemm, 2);
        let adg = build_adg(&gemm, &[df], &cfg()).unwrap();
        let y_plan = adg.tensor_plan("Y").unwrap();
        let committers: HashSet<usize> = y_plan.data_nodes.iter().map(|d| d.fu).collect();
        // Follow edges from any FU: must reach a committer.
        for start in 0..adg.num_fus {
            let mut cur = start;
            let mut steps = 0;
            while !committers.contains(&cur) {
                let next = adg
                    .edges_for("Y")
                    .find(|e| e.from == cur)
                    .unwrap_or_else(|| panic!("FU {cur} has no Y path"));
                cur = next.to;
                steps += 1;
                assert!(steps <= adg.num_fus, "cycle in Y reduction path");
            }
        }
    }

    #[test]
    fn fusing_two_dataflows_shares_edges() {
        // GEMM-IJ and GEMM-KJ fused: the merged design must not duplicate
        // connections both dataflows can share, and every dataflow stays
        // fully fed.
        let gemm = kernels::gemm(8, 8, 8);
        let ij = dataflows::gemm_ij(&gemm, 2);
        let kj = dataflows::gemm_kj(&gemm, 2);
        let fused = build_adg(&gemm, &[ij.clone(), kj.clone()], &cfg()).unwrap();
        let solo_ij = build_adg(&gemm, &[ij], &cfg()).unwrap();
        let solo_kj = build_adg(&gemm, &[kj], &cfg()).unwrap();

        // Fusion is no worse than disjoint union (the heuristic's goal).
        assert!(
            fused.edges.len() <= solo_ij.edges.len() + solo_kj.edges.len(),
            "fused {} vs {} + {}",
            fused.edges.len(),
            solo_ij.edges.len(),
            solo_kj.edges.len()
        );
        // Both dataflows are active somewhere.
        assert!(fused.edges.iter().any(|e| e.active_in(0)));
        assert!(fused.edges.iter().any(|e| e.active_in(1)));
    }

    #[test]
    fn fu_count_mismatch_is_rejected() {
        let gemm = kernels::gemm(8, 8, 8);
        let small = dataflows::gemm_ij(&gemm, 2);
        let large = dataflows::gemm_ij(&gemm, 4);
        let err = build_adg(&gemm, &[small, large], &cfg()).unwrap_err();
        assert!(matches!(err, FrontendError::FuCountMismatch { .. }));
    }

    #[test]
    fn no_dataflows_rejected() {
        let gemm = kernels::gemm(4, 4, 4);
        assert!(matches!(
            build_adg(&gemm, &[], &cfg()),
            Err(FrontendError::NoDataflows)
        ));
    }

    #[test]
    fn mttkrp_three_inputs_all_planned() {
        let m = kernels::mttkrp(4, 4, 4, 4);
        let df = dataflows::mttkrp_ij(&m, 2);
        let adg = build_adg(&m, &[df], &cfg()).unwrap();
        assert_eq!(adg.tensors.len(), 4);
        for t in ["A", "B", "C", "Y"] {
            assert!(adg.tensor_plan(t).is_some(), "missing plan for {t}");
        }
        // B = [k, j] is invariant along i → shared along the i axis.
        assert!(adg.tensor_plan("B").unwrap().data_nodes.len() < adg.num_fus);
    }

    #[test]
    fn memory_plans_are_conflict_free() {
        use crate::memory::conflict_free;
        let conv = kernels::conv2d(1, 2, 2, 4, 4, 3, 3, 1);
        let df = dataflows::conv_ohow(&conv, 2);
        let adg = build_adg(&conv, std::slice::from_ref(&df), &cfg()).unwrap();
        for plan in &adg.tensors {
            let access = conv.access(&plan.tensor).unwrap();
            let coords: Vec<Vec<i64>> = plan
                .data_nodes_in(0)
                .map(|d| df.fu_coords()[d.fu].clone())
                .collect();
            assert!(
                conflict_free(&df, access, &coords, &plan.memory.per_dataflow[0]),
                "bank conflict for {}",
                plan.tensor
            );
        }
    }
}
