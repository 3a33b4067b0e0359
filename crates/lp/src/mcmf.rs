//! Min-cost max-flow with node potentials.
//!
//! Primal–dual implementation. One Bellman-Ford pass initializes the
//! potentials `π` (the networks built by [`crate::delay`] contain negative
//! arc costs but never negative cycles). Then two steps alternate until `t`
//! is unreachable:
//!
//! 1. **Primal:** a max-flow over the *admissible* residual arcs — those
//!    with capacity left and zero reduced cost `c_uv + π_u − π_v` — by
//!    Dinic's blocking flows (BFS levels, current-arc DFS). Every unit
//!    pushed travels a shortest path, so the flow stays min-cost for its
//!    value.
//! 2. **Dual:** one Dijkstra over reduced costs, stopped when `t` is
//!    settled, and `π_v += min(dist_v, dist_t)`. The admissible graph was
//!    saturated, so `dist_t > 0` and new arcs become admissible.
//!
//! A solve costs one Dijkstra per *distinct* `s`–`t` distance (tens on the
//! delay networks of a 256-FU design) instead of one per augmenting path
//! (a thousand and more).
//!
//! # The potentials do not depend on the flow chosen
//!
//! Delay matching reads its answer off the final potentials — they are the
//! dual variables of the flow LP — so they must not move with the order in
//! which paths are found. They do not. If `f` is a min-cost flow of value
//! `F`, then `π` has non-negative reduced costs on the residual graph of
//! `f` exactly when `π` is an optimal dual for value `F` (complementary
//! slackness), a set that does not mention `f`. The shortest residual
//! distance to `v` is the largest `π_v − π_s` over that set (shortest-path
//! duality), so it is the same for every min-cost flow of value `F`. The
//! `s`–`t` distance is therefore a function of the flow value alone, it
//! rises at the same values `F_1 < F_2 < …` for every augmentation order,
//! and at each of them the update `π_v += min(dist_v, dist_t)` adds the
//! same numbers. In between, `dist_t = 0` in reduced costs and the update
//! adds nothing. Successive shortest paths — one Dijkstra per path, kept
//! as the `#[cfg(test)]` reference `run_reference` — and this solver thus
//! end on identical potentials; `delay`'s differential test checks it on
//! random delay networks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

const INF: i64 = i64::MAX / 4;

#[derive(Debug, Clone, Copy)]
struct Arc {
    to: usize,
    cap: i64,
    cost: i64,
    /// Index of the reverse arc in `arcs`.
    rev: usize,
}

/// A min-cost max-flow network over dense node indices.
///
/// # Examples
///
/// ```
/// use lego_lp::MinCostFlow;
///
/// let mut net = MinCostFlow::new(3);
/// let a = net.add_arc(0, 1, 10, 1);
/// let _ = net.add_arc(1, 2, 10, 1);
/// let (flow, cost) = net.run(0, 2);
/// assert_eq!((flow, cost), (10, 20));
/// assert_eq!(net.flow_on(a), 10);
/// ```
#[derive(Debug, Clone)]
pub struct MinCostFlow {
    graph: Vec<Vec<usize>>,
    arcs: Vec<Arc>,
    /// Original capacity per public arc id, used to report flow.
    caps: Vec<i64>,
    potentials: Vec<i64>,
}

/// Scratch buffers of [`MinCostFlow::saturate_admissible`], allocated once
/// per [`MinCostFlow::run`].
struct BlockingFlow {
    /// BFS level per node in the admissible graph (`u32::MAX` = not in it).
    level: Vec<u32>,
    /// Current-arc pointer per node into its adjacency list.
    next_arc: Vec<usize>,
    queue: Vec<usize>,
    /// Arc ids of the DFS path from `s` to the current node.
    path: Vec<usize>,
}

impl BlockingFlow {
    fn new(n: usize) -> Self {
        BlockingFlow {
            level: vec![u32::MAX; n],
            next_arc: vec![0; n],
            queue: Vec::with_capacity(n),
            path: Vec::new(),
        }
    }
}

impl MinCostFlow {
    /// Creates an empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        MinCostFlow {
            graph: vec![Vec::new(); n],
            arcs: Vec::new(),
            caps: Vec::new(),
            potentials: vec![0; n],
        }
    }

    /// Adds a directed arc and returns its public id.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `cap < 0`.
    pub fn add_arc(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> usize {
        assert!(
            from < self.graph.len() && to < self.graph.len(),
            "arc endpoint out of range"
        );
        assert!(cap >= 0, "negative capacity");
        let fwd = self.arcs.len();
        self.arcs.push(Arc {
            to,
            cap,
            cost,
            rev: fwd + 1,
        });
        self.arcs.push(Arc {
            to: from,
            cap: 0,
            cost: -cost,
            rev: fwd,
        });
        self.graph[from].push(fwd);
        self.graph[to].push(fwd + 1);
        self.caps.push(cap);
        fwd / 2
    }

    /// Flow currently routed through the arc with the given public id.
    pub fn flow_on(&self, arc_id: usize) -> i64 {
        self.caps[arc_id] - self.arcs[arc_id * 2].cap
    }

    /// Node potentials (shortest-path duals) after [`Self::run`].
    pub fn potentials(&self) -> &[i64] {
        &self.potentials
    }

    /// Computes a min-cost max-flow from `s` to `t`.
    ///
    /// Returns `(total_flow, total_cost)`. Arc costs may be negative as long
    /// as the network has no negative-cost directed cycle (true for all
    /// networks LEGO builds, which are DAG-shaped plus source/sink arcs).
    pub fn run(&mut self, s: usize, t: usize) -> (i64, i64) {
        let n = self.graph.len();
        self.bellman_ford_init(s);
        let mut total_flow = 0i64;
        let mut total_cost = 0i64;
        let mut dist = vec![INF; n];
        let mut heap = BinaryHeap::new();
        let mut scratch = BlockingFlow::new(n);

        loop {
            // Saturate the admissible graph: every unit costs π_t − π_s.
            let pushed = self.saturate_admissible(s, t, &mut scratch);
            total_flow += pushed;
            total_cost += pushed * (self.potentials[t] - self.potentials[s]);

            // Dijkstra over reduced costs, stopped once `t` is settled:
            // whatever is still queued or unseen is at least as far as `t`
            // and is clamped to `dist[t]` below either way.
            dist.fill(INF);
            heap.clear();
            dist[s] = 0;
            heap.push(Reverse((0i64, s)));
            while let Some(Reverse((d, v))) = heap.pop() {
                if d > dist[v] {
                    continue;
                }
                if v == t {
                    break;
                }
                for &ai in &self.graph[v] {
                    let arc = self.arcs[ai];
                    if arc.cap <= 0 {
                        continue;
                    }
                    let rc = arc.cost + self.potentials[v] - self.potentials[arc.to];
                    debug_assert!(rc >= 0, "negative reduced cost: potentials invalid");
                    let nd = d + rc;
                    if nd < dist[arc.to] {
                        dist[arc.to] = nd;
                        heap.push(Reverse((nd, arc.to)));
                    }
                }
            }
            if dist[t] >= INF {
                break;
            }
            // Update potentials; unreached nodes keep validity via clamping.
            for v in 0..n {
                self.potentials[v] += dist[v].min(dist[t]);
            }
        }
        (total_flow, total_cost)
    }

    /// `true` for a residual arc out of `from` with zero reduced cost.
    fn admissible(&self, from: usize, arc: &Arc) -> bool {
        arc.cap > 0 && arc.cost + self.potentials[from] - self.potentials[arc.to] == 0
    }

    /// Max-flow from `s` to `t` over admissible arcs only (Dinic: BFS
    /// levels, then current-arc DFS until the level graph is blocked, until
    /// `t` leaves the admissible graph). Returns the flow pushed.
    fn saturate_admissible(&mut self, s: usize, t: usize, bf: &mut BlockingFlow) -> i64 {
        let mut pushed = 0i64;
        loop {
            bf.level.fill(u32::MAX);
            bf.level[s] = 0;
            bf.queue.clear();
            bf.queue.push(s);
            let mut head = 0;
            while head < bf.queue.len() && bf.level[t] == u32::MAX {
                let v = bf.queue[head];
                head += 1;
                for &ai in &self.graph[v] {
                    let arc = &self.arcs[ai];
                    if bf.level[arc.to] == u32::MAX && self.admissible(v, arc) {
                        bf.level[arc.to] = bf.level[v] + 1;
                        bf.queue.push(arc.to);
                    }
                }
            }
            if bf.level[t] == u32::MAX {
                return pushed;
            }

            bf.next_arc.fill(0);
            bf.path.clear();
            let mut v = s;
            loop {
                if v == t {
                    let bottleneck = bf
                        .path
                        .iter()
                        .map(|&ai| self.arcs[ai].cap)
                        .min()
                        .expect("s != t, so the path has an arc");
                    for &ai in &bf.path {
                        self.arcs[ai].cap -= bottleneck;
                        let rev = self.arcs[ai].rev;
                        self.arcs[rev].cap += bottleneck;
                    }
                    pushed += bottleneck;
                    bf.path.clear();
                    v = s;
                    continue;
                }
                let step = self.graph[v][bf.next_arc[v]..].iter().position(|&ai| {
                    let arc = &self.arcs[ai];
                    bf.level[arc.to] == bf.level[v] + 1 && self.admissible(v, arc)
                });
                match step {
                    Some(k) => {
                        bf.next_arc[v] += k;
                        let ai = self.graph[v][bf.next_arc[v]];
                        bf.path.push(ai);
                        v = self.arcs[ai].to;
                    }
                    None => {
                        // Dead end: drop `v` from the level graph and retreat.
                        bf.next_arc[v] = self.graph[v].len();
                        bf.level[v] = u32::MAX;
                        let Some(ai) = bf.path.pop() else { break };
                        v = self.arcs[self.arcs[ai].rev].to;
                    }
                }
            }
        }
    }

    /// Initializes potentials with Bellman-Ford distances from `s` so the
    /// first Dijkstra sees non-negative reduced costs.
    fn bellman_ford_init(&mut self, s: usize) {
        let n = self.graph.len();
        let mut dist = vec![INF; n];
        dist[s] = 0;
        // SPFA-style relaxation.
        let mut in_queue = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s);
        in_queue[s] = true;
        let mut relaxations = 0usize;
        let budget = n.saturating_mul(self.arcs.len()).max(64);
        while let Some(v) = queue.pop_front() {
            in_queue[v] = false;
            for &ai in &self.graph[v] {
                let arc = self.arcs[ai];
                if arc.cap <= 0 || dist[v] >= INF {
                    continue;
                }
                let nd = dist[v] + arc.cost;
                if nd < dist[arc.to] {
                    dist[arc.to] = nd;
                    relaxations += 1;
                    assert!(
                        relaxations <= budget,
                        "negative cycle detected in flow network"
                    );
                    if !in_queue[arc.to] {
                        in_queue[arc.to] = true;
                        queue.push_back(arc.to);
                    }
                }
            }
        }
        for (pot, &d) in self.potentials.iter_mut().zip(&dist).take(n) {
            // Unreachable nodes get potential 0; they are never on a path.
            *pot = if d >= INF { 0 } else { d };
        }
        // Clamp so reduced costs stay provably non-negative for arcs leaving
        // reachable nodes into unreachable ones (cap > 0 can't occur there:
        // if an arc with capacity existed, the head would be reachable).
    }
}

#[cfg(test)]
impl MinCostFlow {
    /// The successive-shortest-path loop [`Self::run`] replaced — one full
    /// Dijkstra per augmenting path — kept as the differential-test oracle.
    pub(crate) fn run_reference(&mut self, s: usize, t: usize) -> (i64, i64) {
        let n = self.graph.len();
        self.bellman_ford_init(s);
        let mut total_flow = 0i64;
        let mut total_cost = 0i64;
        loop {
            let mut dist = vec![INF; n];
            let mut prev_arc = vec![usize::MAX; n];
            let mut heap = BinaryHeap::new();
            dist[s] = 0;
            heap.push(Reverse((0i64, s)));
            while let Some(Reverse((d, v))) = heap.pop() {
                if d > dist[v] {
                    continue;
                }
                for &ai in &self.graph[v] {
                    let arc = self.arcs[ai];
                    if arc.cap <= 0 {
                        continue;
                    }
                    let nd = d + arc.cost + self.potentials[v] - self.potentials[arc.to];
                    if nd < dist[arc.to] {
                        dist[arc.to] = nd;
                        prev_arc[arc.to] = ai;
                        heap.push(Reverse((nd, arc.to)));
                    }
                }
            }
            if dist[t] >= INF {
                break;
            }
            for v in 0..n {
                self.potentials[v] += dist[v].min(dist[t]);
            }
            let mut bottleneck = INF;
            let mut v = t;
            while v != s {
                let ai = prev_arc[v];
                bottleneck = bottleneck.min(self.arcs[ai].cap);
                v = self.arcs[self.arcs[ai].rev].to;
            }
            let mut v = t;
            while v != s {
                let ai = prev_arc[v];
                self.arcs[ai].cap -= bottleneck;
                let rev = self.arcs[ai].rev;
                self.arcs[rev].cap += bottleneck;
                total_cost += bottleneck * self.arcs[ai].cost;
                v = self.arcs[rev].to;
            }
            total_flow += bottleneck;
        }
        (total_flow, total_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_path() {
        let mut net = MinCostFlow::new(4);
        net.add_arc(0, 1, 5, 1);
        net.add_arc(1, 3, 5, 1);
        net.add_arc(0, 2, 5, 2);
        net.add_arc(2, 3, 5, 2);
        let (flow, cost) = net.run(0, 3);
        assert_eq!(flow, 10);
        assert_eq!(cost, 5 * 2 + 5 * 4);
    }

    #[test]
    fn prefers_cheap_route_first() {
        let mut net = MinCostFlow::new(3);
        let cheap = net.add_arc(0, 1, 3, 0);
        let pricey = net.add_arc(0, 1, 3, 10);
        net.add_arc(1, 2, 4, 0);
        let (flow, cost) = net.run(0, 2);
        assert_eq!(flow, 4);
        assert_eq!(cost, 10);
        assert_eq!(net.flow_on(cheap), 3);
        assert_eq!(net.flow_on(pricey), 1);
    }

    #[test]
    fn negative_costs_handled() {
        // DAG with a negative arc: still no negative cycle.
        let mut net = MinCostFlow::new(4);
        net.add_arc(0, 1, 2, 4);
        net.add_arc(0, 2, 2, 1);
        net.add_arc(2, 1, 2, -3);
        net.add_arc(1, 3, 4, 0);
        let (flow, cost) = net.run(0, 3);
        assert_eq!(flow, 4);
        // 2 units via 0→2→1 (cost -2 each), 2 units via 0→1 (cost 4 each).
        assert_eq!(cost, 2 * (1 - 3) + 2 * 4);
    }

    #[test]
    fn rerouting_through_residual_arcs() {
        // Classic case where a later augmentation must undo earlier flow.
        let mut net = MinCostFlow::new(4);
        net.add_arc(0, 1, 1, 1);
        net.add_arc(0, 2, 1, 5);
        net.add_arc(1, 2, 1, -4);
        net.add_arc(1, 3, 1, 5);
        net.add_arc(2, 3, 1, 1);
        let (flow, cost) = net.run(0, 3);
        assert_eq!(flow, 2);
        // Optimal: 0→1→2→3 (1-4+1=-2) and 0→2... cap(2→3)=1. So
        // 0→1→2→3 = -2 and 0→2 is blocked at 2→3; use 0→1? cap used.
        // Best pair: 0→1→2→3 (-2) + rerouted 0→2→(residual 2→1)→1→3:
        // 5 + 4 + 5 = 14; total 12. Alternative 0→1→3 (6) + 0→2→3 (6) = 12.
        assert_eq!(cost, 12);
    }

    #[test]
    fn disconnected_sink_gives_zero_flow() {
        let mut net = MinCostFlow::new(3);
        net.add_arc(0, 1, 1, 1);
        let (flow, cost) = net.run(0, 2);
        assert_eq!((flow, cost), (0, 0));
    }

    #[test]
    fn potentials_satisfy_reduced_cost_optimality() {
        let mut net = MinCostFlow::new(5);
        let arcs = [
            (0usize, 1usize, 3i64, 2i64),
            (0, 2, 2, 4),
            (1, 2, 2, 1),
            (1, 3, 2, 7),
            (2, 3, 4, 2),
            (3, 4, 5, 0),
        ];
        let mut ids = Vec::new();
        for &(u, v, c, w) in &arcs {
            ids.push((net.add_arc(u, v, c, w), u, v, c, w));
        }
        net.run(0, 4);
        let pi = net.potentials().to_vec();
        for &(id, u, v, _c, w) in &ids {
            let f = net.flow_on(id);
            let rc = w + pi[u] - pi[v];
            // Arcs with leftover capacity must have non-negative reduced cost;
            // arcs carrying flow must have non-positive reduced cost.
            if f < _c {
                assert!(rc >= 0, "arc {u}->{v} violates optimality");
            }
            if f > 0 {
                assert!(rc <= 0, "arc {u}->{v} with flow has positive reduced cost");
            }
        }
    }
}
