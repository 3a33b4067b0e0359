//! DAG transformation passes (paper §V-A through §V-D).

use std::collections::{BTreeMap, BTreeSet};

use crate::dag::{Dag, DagEdge, DelayMemo, NodeId, Prim};
use crate::OptimizeOptions;
use lego_graph::{undirected_mst, Edge};
use lego_lp::{optimize_pin_remap, solve_delay_matching, DelayEdge, DelayError};

/// Structural cost snapshot taken between passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// Pipeline-register bits inserted by delay matching.
    pub register_bits: i64,
    /// FIFO storage bits (programmed worst-case depth × width).
    pub fifo_bits: i64,
    /// Number of adder nodes (chains count each stage).
    pub adders: usize,
    /// Total reducer input pins.
    pub reducer_inputs: usize,
    /// Number of mux nodes.
    pub muxes: usize,
    /// Edges with clock gating.
    pub gated_edges: usize,
    /// Total node count.
    pub nodes: usize,
}

impl PassStats {
    /// Captures the current cost structure of a DAG.
    pub fn capture(dag: &Dag) -> Self {
        PassStats {
            register_bits: dag.pipeline_register_bits(),
            fifo_bits: dag.fifo_bits(),
            adders: dag.count_nodes(|p| matches!(p, Prim::Add)),
            reducer_inputs: dag
                .nodes
                .iter()
                .filter_map(|n| match n.prim {
                    Prim::Reducer { inputs } => Some(inputs),
                    _ => None,
                })
                .sum(),
            muxes: dag.count_nodes(|p| matches!(p, Prim::Mux { .. })),
            gated_edges: dag.edges.iter().filter(|e| e.gated).count(),
            nodes: dag.nodes.len(),
        }
    }
}

/// Per-pass cost trajectory returned by [`optimize`].
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    /// After mandatory delay matching only (the paper's baseline).
    pub baseline: PassStats,
    /// After reduction tree extraction (+ re-matching), if enabled.
    pub after_reduction: Option<PassStats>,
    /// After broadcast rewiring (+ re-matching), if enabled.
    pub after_rewire: Option<PassStats>,
    /// After pin reusing (+ re-matching), if enabled.
    pub after_pin_reuse: Option<PassStats>,
    /// Final state (including power gating).
    pub final_stats: PassStats,
}

/// Runs the full optimization pipeline in the paper's order and reports the
/// cost after each stage.
///
/// # Panics
///
/// Panics if the DAG fails its structural check after any pass (this would
/// be a bug in the pass, not in user input).
pub fn optimize(dag: &mut Dag, opts: &OptimizeOptions) -> OptimizeReport {
    infer_bitwidths(dag);
    match_delays(dag).expect("generated DAG must be schedulable");
    let baseline = PassStats::capture(dag);

    let after_reduction = opts.reduction_tree.then(|| {
        extract_reduction_trees(dag);
        infer_bitwidths(dag);
        match_delays(dag).expect("reduction extraction preserves schedulability");
        debug_assert_eq!(dag.check(), Ok(()));
        PassStats::capture(dag)
    });

    let after_rewire = opts.broadcast_rewire.then(|| {
        rewire_broadcasts(dag);
        debug_assert_eq!(dag.check(), Ok(()));
        PassStats::capture(dag)
    });

    let after_pin_reuse = opts.pin_reuse.then(|| {
        reuse_pins(dag);
        infer_bitwidths(dag);
        match_delays(dag).expect("pin reuse preserves schedulability");
        debug_assert_eq!(dag.check(), Ok(()));
        PassStats::capture(dag)
    });

    if opts.power_gating {
        apply_power_gating(dag);
    }
    let final_stats = PassStats::capture(dag);

    OptimizeReport {
        baseline,
        after_reduction,
        after_rewire,
        after_pin_reuse,
        final_stats,
    }
}

// ---------------------------------------------------------------------
// Bit-width inference (§V-D).
// ---------------------------------------------------------------------

/// Forward value-range propagation: recomputes node output widths from
/// their input widths and updates edge widths to match their drivers.
///
/// Runs to a fixpoint (widths are monotone and clamped, so this always
/// terminates); handles the zero-latency mux cycles of fused designs.
pub fn infer_bitwidths(dag: &mut Dag) {
    const MAX_ITERS: usize = 64;
    const CLAMP: u32 = 48;
    let index = dag.edge_index();
    for _ in 0..MAX_ITERS {
        let mut changed = false;
        for id in 0..dag.nodes.len() {
            let in_widths = index
                .ins(id)
                .iter()
                .map(|&ei| dag.nodes[dag.edges[ei].from].width);
            let max_in = in_widths.clone().max().unwrap_or(0);
            let new = match &dag.nodes[id].prim {
                Prim::Mul => in_widths.take(2).sum::<u32>().clamp(1, CLAMP),
                Prim::Add | Prim::Max => (max_in + 1).clamp(1, CLAMP),
                Prim::Shift => (max_in + 4).clamp(1, CLAMP),
                Prim::Reducer { inputs } => {
                    let grow = usize::BITS - inputs.max(&1).leading_zeros();
                    (max_in + grow).clamp(1, CLAMP)
                }
                Prim::Mux { .. } | Prim::Fifo { .. } => {
                    max_in.max(dag.nodes[id].width.min(CLAMP)).max(1)
                }
                // Fixed-width primitives keep their declared width.
                _ => dag.nodes[id].width,
            };
            if new != dag.nodes[id].width {
                dag.nodes[id].width = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for i in 0..dag.edges.len() {
        let w = dag.nodes[dag.edges[i].from].width;
        dag.edges[i].width = w;
    }
}

// ---------------------------------------------------------------------
// Delay matching (§V-A).
// ---------------------------------------------------------------------

#[cfg(test)]
thread_local! {
    /// Whole-graph LP solves `match_delays` ran on this thread.
    static SOLVES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Solves the delay-matching LP and writes `extra_regs` onto the edges.
///
/// Edges with a positive semantic delay are runtime-programmable FIFOs: the
/// skew between their endpoints folds into the programmed depth, so they
/// impose no register constraint — one of the reasons LEGO's data paths are
/// lighter than template-generated ones. If the remaining constraint graph
/// is cyclic (possible only for multi-dataflow fusions whose configurations
/// wire opposite directions), the LP is solved per dataflow on its active
/// subgraph and the per-edge maximum is kept.
///
/// `optimize` re-matches after every pass, and on most designs most passes
/// change nothing, so the constraint list and solution of the last
/// whole-graph solve stay on the [`Dag`] (and travel with its clones). A
/// call whose constraint list equals the remembered one, compared in full,
/// writes the remembered registers back without solving; any edit to a
/// constrained edge's endpoints, width or latency changes the list and
/// solves afresh. The per-dataflow fallback is not remembered.
///
/// # Errors
///
/// Propagates [`DelayError`] when even a single dataflow's subgraph is
/// cyclic, which indicates a malformed DAG.
pub fn match_delays(dag: &mut Dag) -> Result<i64, DelayError> {
    fn build(dag: &Dag, filter: &dyn Fn(&DagEdge) -> bool) -> (Vec<DelayEdge>, Vec<usize>) {
        let mut edges = Vec::new();
        let mut ids = Vec::new();
        for (i, e) in dag.edges.iter().enumerate() {
            if e.sem_delay > 0 || !filter(e) {
                continue;
            }
            edges.push(DelayEdge {
                from: e.from,
                to: e.to,
                width: i64::from(e.width),
                latency: dag.nodes[e.to].prim.latency(),
            });
            ids.push(i);
        }
        (edges, ids)
    }

    let n = dag.nodes.len();
    let (all_edges, ids) = build(dag, &|_| true);
    let memo = match dag.delay_memo.take() {
        Some(memo) if memo.edges == all_edges => Ok(memo),
        _ => {
            #[cfg(test)]
            SOLVES.with(|c| c.set(c.get() + 1));
            solve_delay_matching(n, &all_edges).map(|sol| DelayMemo {
                edges: all_edges,
                extra_latency: sol.extra_latency,
            })
        }
    };
    for e in dag.edges.iter_mut() {
        e.extra_regs = 0;
    }
    match memo {
        Ok(memo) => {
            for (&id, &el) in ids.iter().zip(&memo.extra_latency) {
                dag.edges[id].extra_regs = el;
            }
            dag.delay_memo = Some(memo);
            Ok(dag.pipeline_register_bits())
        }
        Err(DelayError::Cyclic) => {
            // Per-dataflow fallback.
            for k in 0..dag.n_dataflows {
                let (edges, ids) = build(dag, &|e: &DagEdge| e.active[k]);
                let sol = solve_delay_matching(n, &edges)?;
                for (i, &id) in ids.iter().enumerate() {
                    dag.edges[id].extra_regs = dag.edges[id].extra_regs.max(sol.extra_latency[i]);
                }
            }
            Ok(dag.pipeline_register_bits())
        }
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------
// Reduction tree extraction (§V-C).
// ---------------------------------------------------------------------

/// Collapses chains of directly-connected adders into balanced reduction
/// trees. The naive codegen's "long adder chain" makes delay matching pad
/// every chain entry to a different depth; a balanced tree aligns all
/// leaves, which is where the register savings come from.
pub fn extract_reduction_trees(dag: &mut Dag) {
    // consumer count per node over direct (non-FIFO) edges.
    let mut consumers = vec![0usize; dag.nodes.len()];
    for e in &dag.edges {
        consumers[e.from] += 1;
    }

    // A chain link: an Add feeding another Add through a zero-delay edge,
    // the upstream Add consumed only by the downstream one, and the
    // downstream Add fed by exactly one such upstream (merge points of
    // several chains stay put and become reducer leaves of each chain).
    let is_add = |dag: &Dag, id: NodeId| matches!(dag.nodes[id].prim, Prim::Add);
    let mut add_preds = vec![0usize; dag.nodes.len()];
    for e in &dag.edges {
        if e.sem_delay == 0 && is_add(dag, e.from) && is_add(dag, e.to) && consumers[e.from] == 1 {
            add_preds[e.to] += 1;
        }
    }
    let mut chain_next: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let mut has_prev: BTreeSet<NodeId> = BTreeSet::new();
    for e in &dag.edges {
        if e.sem_delay == 0
            && is_add(dag, e.from)
            && is_add(dag, e.to)
            && consumers[e.from] == 1
            && add_preds[e.to] == 1
        {
            chain_next.insert(e.from, e.to);
            has_prev.insert(e.to);
        }
    }

    // Walk maximal chains from their heads, in node order: the order sets
    // the reducers' node ids, which reach the emitted text.
    let heads: Vec<NodeId> = chain_next
        .keys()
        .copied()
        .filter(|id| !has_prev.contains(id))
        .collect();

    let mut dead: BTreeSet<NodeId> = BTreeSet::new();
    for head in heads {
        let mut chain = vec![head];
        let mut cur = head;
        while let Some(&next) = chain_next.get(&cur) {
            chain.push(next);
            cur = next;
        }
        if chain.len() < 2 {
            continue;
        }
        let tail = *chain.last().expect("non-empty chain");
        let chain_set: BTreeSet<NodeId> = chain.iter().copied().collect();

        // Leaves: every edge into a chain member that is not the chain link.
        let leaf_edges: Vec<usize> = dag
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| chain_set.contains(&e.to) && !chain_set.contains(&e.from))
            .map(|(i, _)| i)
            .collect();

        let fu = dag.nodes[tail].fu;
        let acc = chain.iter().any(|&id| dag.nodes[id].accumulate);
        let width = dag.nodes[tail].width;
        let reducer = dag.add_node(
            Prim::Reducer {
                inputs: leaf_edges.len(),
            },
            fu,
            width,
            format!("red_{}", dag.nodes[tail].label),
        );
        dag.nodes[reducer].accumulate = acc;

        for (pin, &ei) in leaf_edges.iter().enumerate() {
            dag.edges[ei].to = reducer;
            dag.edges[ei].to_pin = pin;
        }
        // Output edges of the tail move to the reducer.
        for e in dag.edges.iter_mut() {
            if chain_set.contains(&e.from) && !chain_set.contains(&e.to) && e.to != reducer {
                e.from = reducer;
            }
        }
        dead.extend(chain);
    }

    compact(dag, &dead);
}

/// Removes dead nodes (and their residual edges), remapping ids.
fn compact(dag: &mut Dag, dead: &BTreeSet<NodeId>) {
    if dead.is_empty() {
        return;
    }
    let mut remap = vec![usize::MAX; dag.nodes.len()];
    let mut nodes = Vec::with_capacity(dag.nodes.len() - dead.len());
    for (id, node) in dag.nodes.drain(..).enumerate() {
        if !dead.contains(&id) {
            remap[id] = nodes.len();
            nodes.push(node);
        }
    }
    dag.nodes = nodes;
    dag.edges
        .retain(|e| !dead.contains(&e.from) && !dead.contains(&e.to));
    for e in dag.edges.iter_mut() {
        e.from = remap[e.from];
        e.to = remap[e.to];
    }
}

// ---------------------------------------------------------------------
// Broadcast pin rewiring (§V-B, Figure 8).
// ---------------------------------------------------------------------

/// Three-stage broadcast rewiring: (1) delay matching with an optimistic
/// cost that charges a broadcast source only its deepest branch, (2) an
/// undirected MST per broadcast source over direct-vs-forwarded edges
/// (Kruskal over `rewiring_graph`'s class-level edge set), (3) a final
/// exact re-matching; the rewiring is kept only if it reduces register bits.
pub fn rewire_broadcasts(dag: &mut Dag) {
    let before = dag.pipeline_register_bits();
    let saved = dag.clone();

    // Stage 1: optimistic matching — divide the width of broadcast branches
    // by the fan-out so the LP prefers placing registers before the split.
    let mut fanout = vec![0usize; dag.nodes.len()];
    for e in &dag.edges {
        if e.sem_delay == 0 {
            fanout[e.from] += 1;
        }
    }
    let originals: Vec<u32> = dag.edges.iter().map(|e| e.width).collect();
    for e in dag.edges.iter_mut() {
        if e.sem_delay == 0 && fanout[e.from] >= 3 {
            e.width = (e.width / fanout[e.from] as u32).max(1);
        }
    }
    let _ = match_delays(dag);
    for (e, w) in dag.edges.iter_mut().zip(originals) {
        e.width = w;
    }

    // Stage 2: MST rewiring per broadcast source with register-demanding
    // branches.
    // Rewiring a source touches only that source's own out-edges, so one
    // index taken here serves every source.
    let index = dag.edge_index();
    for s in 0..dag.nodes.len() {
        let branch_ids: Vec<usize> = index
            .outs(s)
            .iter()
            .copied()
            .filter(|&i| dag.edges[i].sem_delay == 0)
            .collect();
        let padded = branch_ids.iter().filter(|&&i| dag.edges[i].extra_regs > 0);
        if branch_ids.len() < 3 || padded.count() < 2 {
            continue;
        }
        let lat: Vec<i64> = branch_ids
            .iter()
            .map(|&i| dag.edges[i].extra_regs)
            .collect();

        let g = rewiring_graph(&lat);
        let mst = undirected_mst(lat.len() + 1, &g);

        // Build forwarding taps: a zero-latency pass-through node per branch
        // that forwards the (delayed) source value onward.
        let mut tap: Vec<Option<NodeId>> = vec![None; branch_ids.len()];
        let ensure_tap = |dag: &mut Dag, tap: &mut Vec<Option<NodeId>>, bi: usize| -> NodeId {
            if let Some(t) = tap[bi] {
                return t;
            }
            let e = dag.edges[branch_ids[bi]].clone();
            let t = dag.add_node(
                Prim::CtrlFwd,
                dag.nodes[e.to].fu,
                e.width,
                format!("tap_{}", dag.nodes[e.from].label),
            );
            // Reroute the original branch through the tap.
            let act = e.active.clone();
            dag.edges[branch_ids[bi]].from = t;
            dag.add_edge(e.from, t, 0, e.width, act, 0);
            tap[bi] = Some(t);
            t
        };

        // Order forwarding edges so parents are wired before children.
        let mut adj: Vec<(usize, usize)> = Vec::new();
        for id in mst {
            let e = g[id];
            if e.from != 0 && e.to != 0 {
                adj.push((e.from - 1, e.to - 1));
            }
        }
        // Determine orientation: anchor = smaller latency side.
        let mut pending = adj;
        pending.sort_by_key(|&(a, b)| lat[a].min(lat[b]));
        for (a, b) in pending {
            let (src, dst) = if lat[a] <= lat[b] { (a, b) } else { (b, a) };
            let t = ensure_tap(dag, &mut tap, src);
            let dst_edge = branch_ids[dst];
            // Re-drive the destination branch from the tap instead of the
            // source (sharing the registers up to the tap).
            if dag.edges[dst_edge].from == s {
                dag.edges[dst_edge].from = t;
            }
        }
    }

    // Stage 3: exact re-matching; revert when not profitable. Every rewiring
    // adds a tap node, so without one stage 2 changed nothing and the exact
    // match is `saved`'s own. `saved` remembers its own solve, so matching it
    // again costs nothing when the caller had matched it.
    let rewired = dag.nodes.len() > saved.nodes.len();
    if rewired {
        // A tap forwards to every branch re-driven from it, so its input
        // must be active whenever one of its outputs is. A child tap is fed
        // by its parent and created after it, so settling the taps newest
        // first carries the union up every tap-to-tap chain.
        let index = dag.edge_index();
        for t in (saved.nodes.len()..dag.nodes.len()).rev() {
            let mut active = vec![false; dag.n_dataflows];
            for &o in index.outs(t) {
                for (a, &b) in active.iter_mut().zip(&dag.edges[o].active) {
                    *a |= b;
                }
            }
            dag.edges[index.ins(t)[0]].active = active;
        }
        let _ = match_delays(dag);
    }
    if !rewired || dag.pipeline_register_bits() > before || dag.check().is_err() {
        *dag = saved;
        let _ = match_delays(dag);
    }
}

/// Rewiring graph of one broadcast source whose branches need `lat`
/// registers: node 0 = source, 1.. = branches. A direct edge costs the
/// branch latency (at least 1), a forwarding edge between two branches
/// their latency difference plus 1.
///
/// Of the complete graph — direct edges in branch order, then every pair
/// `a < b` in lexicographic order — only the edges Kruskal can take are
/// built, in that same order, so `(weight, id)` sorts them as it sorts the
/// complete graph's and the MST comes out edge for edge. Equal-latency
/// pairs cost 1, and the first of them Kruskal meets are the star around
/// each class's lowest branch, which makes every class one component before
/// any dearer edge is looked at (a class of latency ≤ 1 already hangs off
/// the source). From then on all edges between two classes join the same
/// two components at the same weight, so only the first in order — the one
/// between the two lowest branches — can be taken.
fn rewiring_graph(lat: &[i64]) -> Vec<Edge> {
    let mut g = Vec::new();
    let mut classes: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for (bi, &l) in lat.iter().enumerate() {
        g.push(Edge {
            from: 0,
            to: bi + 1,
            weight: l.max(1),
        });
        classes.entry(l).or_default().push(bi);
    }
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (i, members) in classes.values().enumerate() {
        let lowest = members[0];
        pairs.extend(members[1..].iter().map(|&m| (lowest, m)));
        pairs.extend(
            classes
                .values()
                .skip(i + 1)
                .map(|other| (lowest.min(other[0]), lowest.max(other[0]))),
        );
    }
    pairs.sort_unstable();
    g.extend(pairs.into_iter().map(|(a, b)| Edge {
        from: a + 1,
        to: b + 1,
        weight: (lat[a] - lat[b]).abs() + 1,
    }));
    g
}

// ---------------------------------------------------------------------
// Pin reusing (§V-C, Figure 9).
// ---------------------------------------------------------------------

/// Shrinks reducers whose pins are never all live simultaneously: liveness
/// per dataflow feeds the 0-1 remapping program; remapped pins that collide
/// across dataflows get a mux (cheap next to an adder).
pub fn reuse_pins(dag: &mut Dag) {
    let reducers: Vec<NodeId> = (0..dag.nodes.len())
        .filter(|&id| matches!(dag.nodes[id].prim, Prim::Reducer { .. }))
        .collect();
    // Remapping a reducer moves only that reducer's own in-edges, so one
    // index taken here serves every reducer.
    let index = dag.edge_index();

    for r in reducers {
        let Prim::Reducer { inputs } = dag.nodes[r].prim else {
            continue;
        };
        let n_df = dag.n_dataflows;
        // Liveness: pin is live in dataflow k if any active edge drives it.
        let mut live: Vec<Vec<usize>> = vec![Vec::new(); n_df];
        for e in index.ins(r).iter().map(|&i| &dag.edges[i]) {
            for (k, &a) in e.active.iter().enumerate() {
                if a && !live[k].contains(&e.to_pin) {
                    live[k].push(e.to_pin);
                }
            }
        }
        for pins in live.iter_mut() {
            pins.sort_unstable();
        }
        let q = live.iter().map(Vec::len).max().unwrap_or(0);
        if q == 0 || q >= inputs {
            continue;
        }
        let remap = optimize_pin_remap(&live);

        // Physical pin → (original pin, dataflows) groups.
        let mut phys: BTreeMap<usize, BTreeMap<usize, Vec<usize>>> = BTreeMap::new();
        for (k, pairs) in remap.mapping.iter().enumerate() {
            for &(orig, p) in pairs {
                phys.entry(p).or_default().entry(orig).or_default().push(k);
            }
        }

        dag.nodes[r].prim = Prim::Reducer { inputs: q };
        // Collect the driving edges per original pin.
        let mut by_orig: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &i in index.ins(r) {
            by_orig.entry(dag.edges[i].to_pin).or_default().push(i);
        }

        for (p, origs) in phys {
            if origs.len() == 1 {
                let (&orig, _) = origs.iter().next().expect("non-empty");
                for &ei in by_orig.get(&orig).map(Vec::as_slice).unwrap_or(&[]) {
                    dag.edges[ei].to_pin = p;
                }
            } else {
                // Several original pins share a physical pin: mux them.
                let width = dag.nodes[r].width;
                let mux = dag.add_node(
                    Prim::Mux {
                        inputs: origs.len(),
                    },
                    dag.nodes[r].fu,
                    width,
                    format!("pinmux_{}_{p}", dag.nodes[r].label),
                );
                for (slot, (orig, dfs)) in origs.iter().enumerate() {
                    for &ei in by_orig.get(orig).map(Vec::as_slice).unwrap_or(&[]) {
                        dag.edges[ei].to = mux;
                        dag.edges[ei].to_pin = slot;
                        // Restrict activity to the dataflows this mapping
                        // serves.
                        let act = dag.edges[ei].active.clone();
                        dag.edges[ei].active = act
                            .iter()
                            .enumerate()
                            .map(|(k, &a)| a && dfs.contains(&k))
                            .collect();
                    }
                }
                let act = (0..dag.n_dataflows)
                    .map(|k| origs.values().any(|dfs| dfs.contains(&k)))
                    .collect();
                dag.add_edge(mux, r, p, width, act, 0);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Power gating (§V-D).
// ---------------------------------------------------------------------

/// Marks every connection that is idle in at least one dataflow as
/// clock-gated: the power model then drops its toggle power in the
/// configurations that do not use it.
pub fn apply_power_gating(dag: &mut Dag) {
    for e in dag.edges.iter_mut() {
        if e.active.iter().any(|&a| !a) {
            e.gated = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lower, BackendConfig, OptimizeOptions};
    use lego_frontend::{build_adg, FrontendConfig};
    use lego_ir::kernels::{self, dataflows};

    fn dag_for(w: &lego_ir::Workload, dfs: &[lego_ir::Dataflow]) -> Dag {
        let adg = build_adg(w, dfs, &FrontendConfig::default()).unwrap();
        lower(&adg, &BackendConfig::default())
    }

    #[test]
    fn figure8_broadcast_example() {
        // Reproduce paper Figure 8: a 10-bit source broadcast to four logic
        // blocks with latencies 4,3,2,1 feeding a reducer with 8-bit inputs.
        let mut dag = Dag::new(1);
        let src = dag.add_node(Prim::Const { value: 0 }, None, 10, "src");
        let red = dag.add_node(Prim::Reducer { inputs: 4 }, None, 8, "red");
        for (i, l) in [4i64, 3, 2, 1].into_iter().enumerate() {
            // Logic block of latency l: chain of l adders (latency 1 each).
            let mut prev = src;
            let mut w = 10;
            for stage in 0..l {
                let n = dag.add_node(Prim::Add, None, 8, format!("lb{i}_{stage}"));
                dag.add_edge(prev, n, 0, w, vec![true], 0);
                prev = n;
                w = 8;
            }
            dag.add_edge(prev, red, i, 8, vec![true], 0);
        }
        // NOTE: widths here are pinned by construction; skip inference.
        match_delays(&mut dag).unwrap();
        let naive = dag.pipeline_register_bits();
        // Naive matching pads the three short branches at 8 bits on the
        // reducer side or 10 bits on the source side; Figure 8(a) reports
        // 48 bits for the reducer-side padding, and the LP can do no better
        // than min(48, padding the broadcast at 10 bits = 60) = 48... but
        // the exact optimum rebalances inside the blocks; we only require
        // the rewiring to improve on whatever the plain LP found.
        rewire_broadcasts(&mut dag);
        let rewired = dag.pipeline_register_bits();
        assert!(rewired <= naive, "rewired {rewired} vs naive {naive}");
        assert!(rewired < 48, "sharing must beat per-branch padding");
        dag.check().unwrap();
    }

    #[test]
    fn class_level_rewiring_mst_equals_the_complete_graph_mst() {
        // The complete rewiring graph `rewiring_graph` stands in for.
        fn complete(lat: &[i64]) -> Vec<Edge> {
            let mut g = Vec::new();
            for (bi, &l) in lat.iter().enumerate() {
                g.push(Edge {
                    from: 0,
                    to: bi + 1,
                    weight: l.max(1),
                });
            }
            for a in 0..lat.len() {
                for b in a + 1..lat.len() {
                    g.push(Edge {
                        from: a + 1,
                        to: b + 1,
                        weight: (lat[a] - lat[b]).abs() + 1,
                    });
                }
            }
            g
        }
        fn mst_endpoints(n: usize, g: &[Edge]) -> Vec<(usize, usize)> {
            let ids = undirected_mst(n, g);
            ids.into_iter().map(|id| (g[id].from, g[id].to)).collect()
        }
        // A pair of endpoints names one edge of the complete graph, so equal
        // endpoint sequences are equal edge ids in equal order.
        let mut state = 24u64;
        let mut draw = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for trial in 0..600 {
            let b = 1 + draw(40) as usize;
            let span = 1 + draw(7);
            let lat: Vec<i64> = (0..b).map(|_| draw(span) as i64).collect();
            assert_eq!(
                mst_endpoints(b + 1, &rewiring_graph(&lat)),
                mst_endpoints(b + 1, &complete(&lat)),
                "trial {trial}: latencies {lat:?}"
            );
        }
    }

    #[test]
    fn reduction_extraction_shrinks_registers() {
        // GEMM-KJ with broadcast control: Y is reduced along k through a
        // combinational adder chain → extraction must cut register bits.
        let gemm = kernels::gemm(16, 4, 4);
        let df = lego_ir::kernels::dataflows::par2(&gemm, "k", 4, "j", 4, "GEMM-KJ-bcast").unwrap();
        let mut dag = dag_for(&gemm, &[df]);
        infer_bitwidths(&mut dag);
        match_delays(&mut dag).unwrap();
        let before = dag.pipeline_register_bits();
        let adders_before = dag.count_nodes(|p| matches!(p, Prim::Add));
        extract_reduction_trees(&mut dag);
        infer_bitwidths(&mut dag);
        match_delays(&mut dag).unwrap();
        dag.check().unwrap();
        let after = dag.pipeline_register_bits();
        assert!(
            dag.count_nodes(|p| matches!(p, Prim::Reducer { .. })) > 0,
            "chains extracted"
        );
        assert!(
            dag.count_nodes(|p| matches!(p, Prim::Add)) < adders_before,
            "adder count drops"
        );
        assert!(after < before, "register bits {after} !< {before}");
    }

    #[test]
    fn pin_reuse_shrinks_fused_reducers() {
        let mut dag = Dag::new(3);
        // A reducer with 3 pins, only 2 live per dataflow (Figure 9).
        let red = dag.add_node(Prim::Reducer { inputs: 3 }, None, 16, "red");
        let srcs: Vec<NodeId> = (0..3)
            .map(|i| dag.add_node(Prim::Const { value: i }, None, 16, format!("s{i}")))
            .collect();
        let live = [
            [true, true, false],
            [true, false, true],
            [false, true, true],
        ];
        for (pin, &s) in srcs.iter().enumerate() {
            let act: Vec<bool> = (0..3).map(|k| live[k][pin]).collect();
            dag.add_edge(s, red, pin, 16, act, 0);
        }
        reuse_pins(&mut dag);
        dag.check().unwrap();
        let Prim::Reducer { inputs } = dag.nodes[red].prim else {
            panic!()
        };
        assert_eq!(inputs, 2, "max two live pins");
        // At least one mux appears for the shared physical pin.
        assert!(dag.count_nodes(|p| matches!(p, Prim::Mux { .. })) >= 1);
    }

    #[test]
    fn power_gating_marks_partially_active_edges() {
        let gemm = kernels::gemm(8, 8, 8);
        let ij = dataflows::gemm_ij(&gemm, 2);
        let kj = dataflows::gemm_kj(&gemm, 2);
        let mut dag = dag_for(&gemm, &[ij, kj]);
        apply_power_gating(&mut dag);
        assert!(
            dag.edges.iter().any(|e| e.gated),
            "fused design has idle paths"
        );
        // A single-dataflow design has nothing to gate.
        let gemm2 = kernels::gemm(4, 4, 4);
        let mut solo = dag_for(&gemm2, &[dataflows::gemm_ij(&gemm2, 2)]);
        apply_power_gating(&mut solo);
        assert_eq!(solo.edges.iter().filter(|e| e.gated).count(), 0);
    }

    #[test]
    fn full_pipeline_monotonically_improves() {
        for (w, dfs) in [
            (
                kernels::gemm(16, 4, 4),
                vec![dataflows::par2(&kernels::gemm(16, 4, 4), "k", 4, "j", 4, "KJ").unwrap()],
            ),
            (
                kernels::gemm(8, 8, 8),
                vec![
                    dataflows::gemm_ij(&kernels::gemm(8, 8, 8), 2),
                    dataflows::gemm_kj(&kernels::gemm(8, 8, 8), 2),
                ],
            ),
        ] {
            let mut dag = dag_for(&w, &dfs);
            let report = optimize(&mut dag, &OptimizeOptions::default());
            dag.check().unwrap();
            assert!(
                report.final_stats.register_bits <= report.baseline.register_bits,
                "optimization must not add registers: {report:?}"
            );
        }
    }

    #[test]
    fn baseline_options_skip_everything() {
        let gemm = kernels::gemm(4, 4, 4);
        let mut dag = dag_for(&gemm, &[dataflows::gemm_ij(&gemm, 2)]);
        let report = optimize(&mut dag, &OptimizeOptions::baseline());
        assert!(report.after_reduction.is_none());
        assert!(report.after_rewire.is_none());
        assert!(report.after_pin_reuse.is_none());
        assert_eq!(report.final_stats.gated_edges, 0);
    }

    #[test]
    fn bitwidth_inference_grows_through_multipliers() {
        let gemm = kernels::gemm(4, 4, 4);
        let mut dag = dag_for(&gemm, &[dataflows::gemm_ij(&gemm, 2)]);
        infer_bitwidths(&mut dag);
        for (id, n) in dag.nodes.iter().enumerate() {
            if matches!(n.prim, Prim::Mul) {
                assert_eq!(n.width, 16, "8x8 multiply produces 16 bits");
                let _ = id;
            }
        }
    }

    #[test]
    fn match_delays_solves_again_only_when_a_constraint_changed() {
        let solves = || SOLVES.with(std::cell::Cell::get);
        let gemm = kernels::gemm(16, 4, 4);
        let df = dataflows::par2(&gemm, "k", 4, "j", 4, "KJ").unwrap();
        let mut dag = dag_for(&gemm, &[df]);
        infer_bitwidths(&mut dag);
        let bits = match_delays(&mut dag).unwrap();
        assert!(bits > 0, "the chain design needs registers");
        assert_eq!(solves(), 1);

        // Untouched graph, and its clone: the remembered solution.
        let regs: Vec<i64> = dag.edges.iter().map(|e| e.extra_regs).collect();
        dag.edges.iter_mut().for_each(|e| e.extra_regs = 7);
        assert_eq!(match_delays(&mut dag), Ok(bits));
        assert_eq!(match_delays(&mut dag.clone()), Ok(bits));
        assert_eq!(solves(), 1);
        let again: Vec<i64> = dag.edges.iter().map(|e| e.extra_regs).collect();
        assert_eq!(again, regs);
        // Nor do fields outside the constraint list force a solve.
        dag.edges[0].gated = true;
        match_delays(&mut dag).unwrap();
        assert_eq!(solves(), 1);

        // A width, an endpoint, a latency: each is a new constraint list,
        // and each result equals a from-scratch solve.
        let ei = (0..dag.edges.len())
            .find(|&i| dag.edges[i].sem_delay == 0)
            .unwrap();
        let edits: [&dyn Fn(&mut Dag); 3] = [
            &|d| d.edges[ei].width += 1,
            &|d| {
                let spare = d.add_node(Prim::Const { value: 0 }, None, 8, "spare");
                d.edges[ei].from = spare;
            },
            &|d| {
                let to = d.edges[ei].to;
                d.nodes[to].prim = Prim::Reducer { inputs: 3 };
            },
        ];
        for (k, edit) in edits.iter().enumerate() {
            let before = solves();
            edit(&mut dag);
            let bits = match_delays(&mut dag).unwrap();
            assert_eq!(solves(), before + 1, "edit {k} must solve");
            let mut fresh = dag.clone();
            fresh.delay_memo = None;
            assert_eq!(match_delays(&mut fresh), Ok(bits));
            for (a, b) in dag.edges.iter().zip(&fresh.edges) {
                assert_eq!(a.extra_regs, b.extra_regs, "edit {k}");
            }
        }
    }

    #[test]
    fn rewiring_that_adds_no_tap_solves_only_the_optimistic_stage() {
        let solves = || SOLVES.with(std::cell::Cell::get);
        let gemm = kernels::gemm(8, 8, 8);
        let mut dag = dag_for(&gemm, &[dataflows::gemm_ij(&gemm, 2)]);
        infer_bitwidths(&mut dag);
        let bits = match_delays(&mut dag).unwrap();
        let matched = dag.clone();
        let before = solves();
        rewire_broadcasts(&mut dag);
        assert_eq!(dag.nodes.len(), matched.nodes.len(), "nothing rewired");
        assert_eq!(solves(), before + 1, "stage 1 only");
        assert_eq!(dag.pipeline_register_bits(), bits);
        for (a, b) in dag.edges.iter().zip(&matched.edges) {
            assert_eq!((a.from, a.to, a.extra_regs), (b.from, b.to, b.extra_regs));
        }
    }

    #[test]
    fn delay_matching_ignores_fifo_edges() {
        let mut dag = Dag::new(1);
        let a = dag.add_node(Prim::Const { value: 0 }, None, 8, "a");
        let f = dag.add_node(
            Prim::Fifo {
                depth: vec![Some(5)],
            },
            None,
            8,
            "f",
        );
        let b = dag.add_node(Prim::Add, None, 8, "b");
        dag.add_edge(a, f, 0, 8, vec![true], 5);
        dag.add_edge(f, b, 0, 8, vec![true], 0);
        dag.add_edge(a, b, 1, 8, vec![true], 0);
        match_delays(&mut dag).unwrap();
        // The FIFO edge absorbs its own skew: no registers on it.
        assert_eq!(dag.edges[0].extra_regs, 0);
    }

    #[test]
    fn opposite_wiring_across_dataflows_falls_back_to_per_dataflow_solves() {
        // Dataflow 0 wires p → q and dataflow 1 wires q → p, so the whole
        // constraint graph is cyclic. Each dataflow alone is reconvergent:
        // s reaches its far adder directly and through the near one.
        let mut dag = Dag::new(2);
        let s = dag.add_node(Prim::Const { value: 0 }, None, 8, "s");
        let p = dag.add_node(Prim::Add, None, 8, "p");
        let q = dag.add_node(Prim::Add, None, 8, "q");
        dag.add_edge(s, p, 0, 8, vec![true, true], 0);
        dag.add_edge(s, q, 0, 8, vec![true, true], 0);
        dag.add_edge(p, q, 1, 8, vec![true, false], 0);
        dag.add_edge(q, p, 1, 8, vec![false, true], 0);
        let whole: Vec<DelayEdge> = dag
            .edges
            .iter()
            .map(|e| DelayEdge {
                from: e.from,
                to: e.to,
                width: i64::from(e.width),
                latency: dag.nodes[e.to].prim.latency(),
            })
            .collect();
        assert_eq!(solve_delay_matching(3, &whole), Err(DelayError::Cyclic));

        let mut want = vec![0; whole.len()];
        for k in 0..2 {
            let ids: Vec<usize> = (0..whole.len())
                .filter(|&i| dag.edges[i].active[k])
                .collect();
            let edges: Vec<DelayEdge> = ids.iter().map(|&i| whole[i]).collect();
            let sol = solve_delay_matching(3, &edges).unwrap();
            for (&i, &el) in ids.iter().zip(&sol.extra_latency) {
                want[i] = want[i].max(el);
            }
        }
        assert_eq!(want, [1, 1, 0, 0]);
        assert_eq!(match_delays(&mut dag), Ok(16));
        let got: Vec<i64> = dag.edges.iter().map(|e| e.extra_regs).collect();
        assert_eq!(got, want);
    }
}
