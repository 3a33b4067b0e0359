//! Min-cost transshipment with node potentials.
//!
//! Every node carries a supply (positive) or a demand (negative), and
//! [`MinCostFlow::run`] routes as much supply to demand as the arcs allow,
//! at least cost. The arcs must form a DAG (a delay network's do; its
//! residual graph need not). Primal–dual: the potentials `π` start at the
//! ASAP schedule `π_v = min(0, min_u π_u + c_uv)`, one topological pass,
//! so every reduced cost `c_uv + π_u − π_v` is non-negative. Then two steps
//! alternate until no supply can reach a demand:
//!
//! 1. **Primal:** Dinic's blocking flows over the *admissible* residual
//!    arcs (capacity left, reduced cost zero). A node's level is its hop
//!    distance to the nearest node with demand left (a BFS backward from
//!    all of them, stopped at the first node with supply left it pops); the
//!    current-arc DFS runs from each supply node on that level and only
//!    steps to the next smaller level. The s–t form's arcs from a
//!    super-source and into a super-sink would be admissible whenever they
//!    had capacity, so they are neither stored nor priced: supply and demand
//!    left are per-node counters. Every unit travels a shortest path.
//! 2. **Dual:** one Dijkstra over reduced costs on a monotone queue (a
//!    radix heap: 65 buckets whatever the cost magnitude), seeded at 0 from
//!    every node with supply left, and `π_v += min(dist_v, d)` for `d` the
//!    distance of the nearest demand, which is `> 0` because the admissible
//!    graph was saturated. The search drops every relaxation with `nd ≥ d`
//!    (the tentative `d`) and stops at the first popped key `≥ d`. That
//!    cannot change `min(dist_v, d)`: a node nearer than the final `d` has a
//!    shortest path whose every prefix is shorter, so its `dist_v` is exact;
//!    any other node ends on a value at least its true distance `≥ d`.
//!
//! # The answer does not depend on the flow chosen
//!
//! When every supply is routed, the potentials with non-negative reduced
//! costs on the residual graph of a min-cost flow are exactly the optimal
//! duals, a set that does not mention the flow (complementary slackness),
//! but where in it the loop ends depends on the order paths were found in.
//! So `run` ends with one more Dijkstra over the residual graph, seeded at
//! `max π − π_v`: it sets `π` to the shortest residual distances from a
//! root joined to every node at cost 0, which shortest-path duality makes
//! the pointwise greatest optimal duals with `π ≤ 0`. Delay matching reads
//! `−π` as the earliest optimal schedule. Tests hold `run` to the
//! `#[cfg(test)]` successive shortest paths `run_reference` on random and
//! array-shaped delay networks: other flows, equal potentials.

const INF: i64 = i64::MAX / 4;

/// One residual arc. Arcs `2i` and `2i + 1` are public arc `i` and its
/// reverse, whose capacity is the flow on arc `i`.
#[derive(Debug, Clone, Copy)]
struct Arc {
    to: usize,
    cap: i64,
    cost: i64,
}

/// A min-cost transshipment network over dense node indices.
///
/// # Examples
///
/// ```
/// use lego_lp::MinCostFlow;
///
/// let mut net = MinCostFlow::new(3);
/// let a = net.add_arc(0, 1, 10, 1);
/// let _ = net.add_arc(1, 2, 10, 1);
/// net.add_supply(0, 10);
/// net.add_supply(2, -10);
/// assert_eq!(net.run(), Some((10, 20)));
/// assert_eq!(net.flow_on(a), 10);
/// assert_eq!(net.potentials(), [-2, -1, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct MinCostFlow {
    arcs: Vec<Arc>,
    /// Supply (> 0) or demand (< 0) not yet routed, per node.
    excess: Vec<i64>,
    potentials: Vec<i64>,
}

/// The buffers of one [`MinCostFlow::run`], allocated once per solve.
struct Scratch {
    /// Residual arc ids grouped by tail: node `v`'s are
    /// `adj[start[v]..start[v + 1]]`.
    start: Vec<usize>,
    adj: Vec<usize>,
    /// Admissible hops from each node to a demand (`u32::MAX` = none).
    level: Vec<u32>,
    /// Current-arc pointer per node into `adj`.
    next_arc: Vec<usize>,
    queue: Vec<usize>,
    /// Arc ids of the DFS path from the supply node to the current node.
    path: Vec<usize>,
    dist: Vec<i64>,
    heap: RadixHeap,
}

impl Scratch {
    fn new(net: &MinCostFlow) -> Self {
        let n = net.excess.len();
        let mut start = vec![0; n + 1];
        for ai in 0..net.arcs.len() {
            start[net.tail(ai) + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut next_arc = start[..n].to_vec();
        let mut adj = vec![0; net.arcs.len()];
        for ai in 0..net.arcs.len() {
            let v = net.tail(ai);
            adj[next_arc[v]] = ai;
            next_arc[v] += 1;
        }
        Scratch {
            start,
            adj,
            level: vec![u32::MAX; n],
            next_arc,
            queue: Vec::with_capacity(n),
            path: Vec::new(),
            dist: vec![INF; n],
            heap: RadixHeap::new(),
        }
    }
}

/// Monotone priority queue of `(distance, node)` for the dual step: popped
/// keys never decrease and no pushed key is below the last popped one, so
/// an entry can wait in the bucket numbered by the highest bit in which its
/// key differs from that last key, and bucket 0 holds the minimum.
struct RadixHeap {
    last: i64,
    buckets: [Vec<(i64, usize)>; 65],
}

impl RadixHeap {
    fn new() -> Self {
        RadixHeap {
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Empties the queue for a search whose keys start at 0.
    fn clear(&mut self) {
        self.last = 0;
        self.buckets.iter_mut().for_each(Vec::clear);
    }

    fn push(&mut self, d: i64, v: usize) {
        debug_assert!(d >= self.last, "radix heap keys must not decrease");
        let bucket = 64 - ((d ^ self.last) as u64).leading_zeros();
        self.buckets[bucket as usize].push((d, v));
    }

    fn pop(&mut self) -> Option<(i64, usize)> {
        if self.buckets[0].is_empty() {
            // Advance `last` to the minimum of the first occupied bucket;
            // its entries then differ from `last` in a lower bit or not at
            // all, so they all move down.
            let i = self.buckets.iter().position(|b| !b.is_empty())?;
            let mut moved = std::mem::take(&mut self.buckets[i]);
            self.last = moved.iter().map(|&(d, _)| d).min().expect("non-empty");
            for &(d, v) in &moved {
                self.push(d, v);
            }
            moved.clear();
            self.buckets[i] = moved;
        }
        self.buckets[0].pop()
    }
}

impl MinCostFlow {
    /// Creates an empty network with `n` nodes, none with supply or demand.
    pub fn new(n: usize) -> Self {
        MinCostFlow {
            arcs: Vec::new(),
            excess: vec![0; n],
            potentials: vec![0; n],
        }
    }

    /// Adds a directed arc and returns its public id.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `cap < 0`.
    pub fn add_arc(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> usize {
        let n = self.excess.len();
        assert!(from < n && to < n, "arc endpoint out of range");
        assert!(cap >= 0, "negative capacity");
        self.arcs.push(Arc { to, cap, cost });
        self.arcs.push(Arc {
            to: from,
            cap: 0,
            cost: -cost,
        });
        self.arcs.len() / 2 - 1
    }

    /// Adds `amount` to node `v`'s supply; a negative amount is demand.
    pub fn add_supply(&mut self, v: usize, amount: i64) {
        self.excess[v] += amount;
    }

    /// Flow currently routed through the arc with the given public id.
    pub fn flow_on(&self, arc_id: usize) -> i64 {
        self.arcs[2 * arc_id + 1].cap
    }

    /// Node potentials after [`Self::run`]: the greatest optimal duals with
    /// `π ≤ 0` (see the module docs).
    pub fn potentials(&self) -> &[i64] {
        &self.potentials
    }

    /// Routes as much supply to demand as the arcs allow, at least cost.
    ///
    /// Returns `(flow, cost)`, or `None` if the arcs contain a directed
    /// cycle. Arc costs may be negative.
    pub fn run(&mut self) -> Option<(i64, i64)> {
        let mut sc = Scratch::new(self);
        self.asap(&mut sc)?;
        let mut flow = self.saturate_admissible(&mut sc);
        while self.dual_step(&mut sc) {
            flow += self.saturate_admissible(&mut sc);
        }
        self.snap(&mut sc);
        Some((flow, self.cost()))
    }

    fn tail(&self, ai: usize) -> usize {
        self.arcs[ai ^ 1].to
    }

    fn cost(&self) -> i64 {
        self.arcs.chunks(2).map(|p| p[0].cost * p[1].cap).sum()
    }

    /// Sets the potentials to the shortest distances from every node at 0
    /// over the forward arcs, in one topological pass (Kahn's, with
    /// `next_arc` as the in-degree count); `None` on a directed cycle.
    fn asap(&mut self, sc: &mut Scratch) -> Option<()> {
        let n = self.excess.len();
        sc.next_arc.fill(0);
        for arc in self.arcs.iter().step_by(2) {
            sc.next_arc[arc.to] += 1;
        }
        sc.queue.clear();
        sc.queue.extend((0..n).filter(|&v| sc.next_arc[v] == 0));
        let mut head = 0;
        while let Some(&u) = sc.queue.get(head) {
            head += 1;
            for &ai in sc.adj[sc.start[u]..sc.start[u + 1]]
                .iter()
                .filter(|&&ai| ai % 2 == 0)
            {
                let Arc { to, cost, .. } = self.arcs[ai];
                self.potentials[to] = self.potentials[to].min(self.potentials[u] + cost);
                sc.next_arc[to] -= 1;
                if sc.next_arc[to] == 0 {
                    sc.queue.push(to);
                }
            }
        }
        (sc.queue.len() == n).then_some(())
    }

    /// `true` for a residual arc out of `from` with zero reduced cost.
    fn admissible(&self, from: usize, arc: &Arc) -> bool {
        arc.cap > 0 && arc.cost + self.potentials[from] - self.potentials[arc.to] == 0
    }

    /// Max-flow from supply to demand over admissible arcs only (Dinic:
    /// levels by BFS backward from the demand nodes, then current-arc DFS
    /// from the nearest supply nodes until the level graph is blocked,
    /// until no supply node reaches a demand). Returns the flow pushed.
    fn saturate_admissible(&mut self, sc: &mut Scratch) -> i64 {
        let mut pushed = 0;
        loop {
            // Each arc out of `v` is paired with the arc `u → v` that the
            // backward search follows. Levels past the first supply node's
            // are never read (the DFS only steps down), so the search stops
            // once it pops one.
            sc.level.fill(u32::MAX);
            sc.queue.clear();
            for (v, &x) in self.excess.iter().enumerate() {
                if x < 0 {
                    sc.level[v] = 0;
                    sc.queue.push(v);
                }
            }
            let mut head = 0;
            let top = loop {
                let Some(&v) = sc.queue.get(head) else {
                    return pushed;
                };
                head += 1;
                if self.excess[v] > 0 {
                    break sc.level[v];
                }
                for &ai in &sc.adj[sc.start[v]..sc.start[v + 1]] {
                    let u = self.arcs[ai].to;
                    if sc.level[u] == u32::MAX && self.admissible(u, &self.arcs[ai ^ 1]) {
                        sc.level[u] = sc.level[v] + 1;
                        sc.queue.push(u);
                    }
                }
            };

            sc.next_arc.copy_from_slice(&sc.start[..self.excess.len()]);
            for i in head - 1..sc.queue.len() {
                let x = sc.queue[i];
                if sc.level[x] == top && self.excess[x] > 0 {
                    pushed += self.augment_from(x, sc);
                }
            }
        }
    }

    /// Pushes supply from `x` down the level graph until `x` is empty or
    /// cut off from every demand. Returns the flow pushed.
    fn augment_from(&mut self, x: usize, sc: &mut Scratch) -> i64 {
        let mut pushed = 0;
        sc.path.clear();
        let mut v = x;
        while self.excess[x] > 0 {
            if self.excess[v] < 0 {
                let bottleneck = sc
                    .path
                    .iter()
                    .map(|&ai| self.arcs[ai].cap)
                    .fold(self.excess[x].min(-self.excess[v]), i64::min);
                for &ai in &sc.path {
                    self.arcs[ai].cap -= bottleneck;
                    self.arcs[ai ^ 1].cap += bottleneck;
                }
                self.excess[x] -= bottleneck;
                self.excess[v] += bottleneck;
                pushed += bottleneck;
                sc.path.clear();
                v = x;
                continue;
            }
            let end = sc.start[v + 1];
            let step = sc.adj[sc.next_arc[v]..end].iter().position(|&ai| {
                let arc = &self.arcs[ai];
                sc.level[v] > 0 && sc.level[arc.to] == sc.level[v] - 1 && self.admissible(v, arc)
            });
            match step {
                Some(k) => {
                    sc.next_arc[v] += k;
                    let ai = sc.adj[sc.next_arc[v]];
                    sc.path.push(ai);
                    v = self.arcs[ai].to;
                }
                None => {
                    // Dead end: drop `v` from the level graph and retreat.
                    sc.next_arc[v] = end;
                    sc.level[v] = u32::MAX;
                    let Some(ai) = sc.path.pop() else { break };
                    v = self.tail(ai);
                }
            }
        }
        pushed
    }

    /// Dijkstra over reduced costs from every node `v` at distance
    /// `seed(v)` (`INF`: not a seed). With `to_demand`, it is pruned at the
    /// tentative distance of the nearest node with demand left, which it
    /// returns (`INF` if none is reachable).
    fn shortest_paths(
        &self,
        sc: &mut Scratch,
        seed: impl Fn(usize) -> i64,
        to_demand: bool,
    ) -> i64 {
        sc.heap.clear();
        for v in 0..self.excess.len() {
            sc.dist[v] = seed(v);
            if sc.dist[v] < INF {
                sc.heap.push(sc.dist[v], v);
            }
        }
        let mut best = INF;
        while let Some((d, v)) = sc.heap.pop() {
            if d >= best {
                break;
            }
            if d > sc.dist[v] {
                continue;
            }
            for &ai in &sc.adj[sc.start[v]..sc.start[v + 1]] {
                let arc = self.arcs[ai];
                if arc.cap <= 0 {
                    continue;
                }
                let rc = arc.cost + self.potentials[v] - self.potentials[arc.to];
                debug_assert!(rc >= 0, "negative reduced cost: potentials invalid");
                let nd = d + rc;
                if nd < sc.dist[arc.to].min(best) {
                    sc.dist[arc.to] = nd;
                    sc.heap.push(nd, arc.to);
                    if to_demand && self.excess[arc.to] < 0 {
                        best = nd;
                    }
                }
            }
        }
        best
    }

    /// The dual step; `false` when no supply left reaches a demand.
    fn dual_step(&mut self, sc: &mut Scratch) -> bool {
        let supply = |v: usize| if self.excess[v] > 0 { 0 } else { INF };
        let d = self.shortest_paths(sc, supply, true);
        if d >= INF {
            return false;
        }
        for (p, &dv) in self.potentials.iter_mut().zip(&sc.dist) {
            *p += dv.min(d);
        }
        true
    }

    /// Replaces the potentials by the greatest optimal duals with `π ≤ 0`:
    /// shortest residual distances from a root joined to every node at 0.
    fn snap(&mut self, sc: &mut Scratch) {
        let top = self.potentials.iter().copied().max().unwrap_or(0);
        self.shortest_paths(sc, |v| top - self.potentials[v], false);
        for (p, &dv) in self.potentials.iter_mut().zip(&sc.dist) {
            *p += dv - top;
        }
    }
}

#[cfg(test)]
impl MinCostFlow {
    /// Successive shortest paths — one full Dijkstra from every node with
    /// supply left per augmenting path — ending on the same snap as
    /// [`Self::run`]; kept as the differential-test oracle.
    pub(crate) fn run_reference(&mut self) -> Option<(i64, i64)> {
        use std::{cmp::Reverse, collections::BinaryHeap};
        let mut sc = Scratch::new(self);
        self.asap(&mut sc)?;
        let n = self.excess.len();
        let mut flow = 0;
        loop {
            let mut dist = vec![INF; n];
            let mut prev_arc = vec![usize::MAX; n];
            let mut heap = BinaryHeap::new();
            for v in (0..n).filter(|&v| self.excess[v] > 0) {
                dist[v] = 0;
                heap.push(Reverse((0, v)));
            }
            while let Some(Reverse((d, v))) = heap.pop() {
                if d > dist[v] {
                    continue;
                }
                for &ai in &sc.adj[sc.start[v]..sc.start[v + 1]] {
                    let arc = self.arcs[ai];
                    let nd = d + arc.cost + self.potentials[v] - self.potentials[arc.to];
                    if arc.cap > 0 && nd < dist[arc.to] {
                        dist[arc.to] = nd;
                        prev_arc[arc.to] = ai;
                        heap.push(Reverse((nd, arc.to)));
                    }
                }
            }
            let demands = (0..n).filter(|&v| self.excess[v] < 0 && dist[v] < INF);
            let Some(t) = demands.min_by_key(|&v| dist[v]) else {
                break;
            };
            for v in 0..n {
                self.potentials[v] += dist[v].min(dist[t]);
            }
            let mut path = Vec::new();
            let mut x = t;
            while prev_arc[x] != usize::MAX {
                path.push(prev_arc[x]);
                x = self.tail(prev_arc[x]);
            }
            let bottleneck = path
                .iter()
                .map(|&ai| self.arcs[ai].cap)
                .fold(self.excess[x].min(-self.excess[t]), i64::min);
            for &ai in &path {
                self.arcs[ai].cap -= bottleneck;
                self.arcs[ai ^ 1].cap += bottleneck;
            }
            self.excess[x] -= bottleneck;
            self.excess[t] += bottleneck;
            flow += bottleneck;
        }
        self.snap(&mut sc);
        Some((flow, self.cost()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A network whose node `s` supplies `amount` and node `t` demands it.
    fn st_network(
        n: usize,
        arcs: &[(usize, usize, i64, i64)],
        s: usize,
        t: usize,
        amount: i64,
    ) -> (MinCostFlow, Vec<usize>) {
        let mut net = MinCostFlow::new(n);
        let ids = arcs
            .iter()
            .map(|&(u, v, cap, cost)| net.add_arc(u, v, cap, cost))
            .collect();
        net.add_supply(s, amount);
        net.add_supply(t, -amount);
        (net, ids)
    }

    #[test]
    fn simple_path() {
        let arcs = [(0, 1, 5, 1), (1, 3, 5, 1), (0, 2, 5, 2), (2, 3, 5, 2)];
        let (mut net, _) = st_network(4, &arcs, 0, 3, 10);
        assert_eq!(net.run(), Some((10, 5 * 2 + 5 * 4)));
    }

    #[test]
    fn prefers_cheap_route_first() {
        let arcs = [(0, 1, 3, 0), (0, 1, 3, 10), (1, 2, 4, 0)];
        let (mut net, ids) = st_network(3, &arcs, 0, 2, 4);
        assert_eq!(net.run(), Some((4, 10)));
        assert_eq!((net.flow_on(ids[0]), net.flow_on(ids[1])), (3, 1));
    }

    #[test]
    fn negative_costs_handled() {
        // DAG with a negative arc: still no negative cycle.
        let arcs = [(0, 1, 2, 4), (0, 2, 2, 1), (2, 1, 2, -3), (1, 3, 4, 0)];
        let (mut net, _) = st_network(4, &arcs, 0, 3, 4);
        // 2 units via 0→2→1 (cost -2 each), 2 units via 0→1 (cost 4 each).
        assert_eq!(net.run(), Some((4, 2 * (1 - 3) + 2 * 4)));
    }

    #[test]
    fn rerouting_through_residual_arcs() {
        // Classic case where a later augmentation must undo earlier flow:
        // 0→1→2→3 costs −2 but blocks both other routes; 0→1→3 plus
        // 0→2→3 costs 6 + 6 = 12, as does rerouting through 2→1.
        let arcs = [
            (0, 1, 1, 1),
            (0, 2, 1, 5),
            (1, 2, 1, -4),
            (1, 3, 1, 5),
            (2, 3, 1, 1),
        ];
        let (mut net, _) = st_network(4, &arcs, 0, 3, 2);
        assert_eq!(net.run(), Some((2, 12)));
    }

    #[test]
    fn a_huge_arc_cost_is_a_key_not_a_bucket_count() {
        // The cheap arc saturates first, so the dual step has to carry the
        // distance 2^40 through its queue: memory must not scale with it.
        let big = 1i64 << 40;
        let arcs = [(0, 1, 1, 0), (0, 1, 1, big), (1, 2, 2, 0)];
        let (mut net, ids) = st_network(3, &arcs, 0, 2, 2);
        assert_eq!(net.run(), Some((2, big)));
        assert_eq!((net.flow_on(ids[0]), net.flow_on(ids[1])), (1, 1));
        assert_eq!(net.potentials(), [-big, 0, 0]);
    }

    #[test]
    fn disconnected_sink_gives_zero_flow() {
        let (mut net, _) = st_network(3, &[(0, 1, 1, 1)], 0, 2, 1);
        assert_eq!(net.run(), Some((0, 0)));
    }

    #[test]
    fn potentials_satisfy_reduced_cost_optimality() {
        let arcs = [
            (0, 1, 3, 2),
            (0, 2, 2, 4),
            (1, 2, 2, 1),
            (1, 3, 2, 7),
            (2, 3, 4, 2),
            (3, 4, 5, 0),
        ];
        let (mut net, ids) = st_network(5, &arcs, 0, 4, 5);
        assert_eq!(net.run().map(|(flow, _)| flow), Some(5));
        let pi = net.potentials().to_vec();
        assert!(pi.iter().all(|&p| p <= 0) && pi.contains(&0));
        for (&id, &(u, v, cap, cost)) in ids.iter().zip(&arcs) {
            let f = net.flow_on(id);
            let rc = cost + pi[u] - pi[v];
            // Arcs with leftover capacity must have non-negative reduced cost;
            // arcs carrying flow must have non-positive reduced cost.
            if f < cap {
                assert!(rc >= 0, "arc {u}->{v} violates optimality");
            }
            if f > 0 {
                assert!(rc <= 0, "arc {u}->{v} with flow has positive reduced cost");
            }
        }
    }

    #[test]
    fn a_directed_cycle_is_rejected() {
        let (mut net, _) = st_network(2, &[(0, 1, 1, 0), (1, 0, 1, 0)], 0, 1, 1);
        assert_eq!(net.run(), None);
    }
}
