//! Min-cost max-flow with node potentials.
//!
//! Primal–dual implementation. One Bellman-Ford pass initializes the
//! potentials `π` (the networks built by [`crate::delay`] contain negative
//! arc costs but never negative cycles). Then two steps alternate until `t`
//! is unreachable:
//!
//! 1. **Primal:** a max-flow over the *admissible* residual arcs — those
//!    with capacity left and zero reduced cost `c_uv + π_u − π_v` — by
//!    Dinic's blocking flows. A node's level is its hop distance *to `t`*
//!    (a BFS backward from `t` over the paired reverse arcs, stopped once
//!    `s` has a level), and the current-arc DFS only steps to the next
//!    smaller level, so it never enters a node that cannot reach the sink:
//!    `s` feeds every supply node of a delay network, and levels counted
//!    from `s` would send the DFS into each of them. Every unit pushed
//!    travels a shortest path, so the flow stays min-cost for its value.
//! 2. **Dual:** one Dijkstra over reduced costs on a monotone queue (a
//!    radix heap: 65 buckets whatever the cost magnitude), and
//!    `π_v += min(dist_v, dist_t)`. The admissible graph was saturated, so
//!    `dist_t > 0` and new arcs become admissible. The search drops every
//!    relaxation with `nd ≥ dist_t` (the tentative `dist_t`, an upper bound
//!    on the final one) and stops at the first popped key `≥ dist_t`. That
//!    cannot change `min(dist_v, dist_t)`: a node nearer than the final
//!    `dist_t` has a shortest path whose every prefix is shorter than
//!    `dist_t`, so none of its relaxations is dropped and its `dist_v` is
//!    exact; any other node ends on a tentative value or on `INF`, both at
//!    least its true distance `≥ dist_t`, and is clamped to `dist_t`.
//!
//! A solve costs one dual step per *distinct* `s`–`t` distance (tens on the
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
//! end on identical potentials; `delay`'s differential tests check it on
//! random and on array-shaped delay networks.

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
    /// Admissible hops from each node to `t` (`u32::MAX` = not labelled).
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
        let mut heap = RadixHeap::new();
        let mut scratch = BlockingFlow::new(n);

        loop {
            // Saturate the admissible graph: every unit costs π_t − π_s.
            let pushed = self.saturate_admissible(s, t, &mut scratch);
            total_flow += pushed;
            total_cost += pushed * (self.potentials[t] - self.potentials[s]);

            // Dijkstra over reduced costs, pruned at `dist[t]`: whatever is
            // dropped, still queued or unseen is at least as far as `t` and
            // is clamped to `dist[t]` below either way.
            dist.fill(INF);
            heap.clear();
            dist[s] = 0;
            heap.push(0, s);
            while let Some((d, v)) = heap.pop() {
                if d >= dist[t] {
                    break;
                }
                if d > dist[v] {
                    continue;
                }
                for &ai in &self.graph[v] {
                    let arc = self.arcs[ai];
                    if arc.cap <= 0 {
                        continue;
                    }
                    let rc = arc.cost + self.potentials[v] - self.potentials[arc.to];
                    debug_assert!(rc >= 0, "negative reduced cost: potentials invalid");
                    let nd = d + rc;
                    if nd < dist[arc.to].min(dist[t]) {
                        dist[arc.to] = nd;
                        heap.push(nd, arc.to);
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

    /// Max-flow from `s` to `t` over admissible arcs only (Dinic: levels by
    /// BFS backward from `t`, then current-arc DFS until the level graph is
    /// blocked, until `s` no longer reaches `t`). Returns the flow pushed.
    fn saturate_admissible(&mut self, s: usize, t: usize, bf: &mut BlockingFlow) -> i64 {
        let mut pushed = 0i64;
        loop {
            // Each arc out of `v` is paired with the arc `u → v` that the
            // backward search follows. Levels past `s`'s are never read (the
            // DFS only steps down), so the search stops once `s` has one.
            bf.level.fill(u32::MAX);
            bf.level[t] = 0;
            bf.queue.clear();
            bf.queue.push(t);
            let mut head = 0;
            while head < bf.queue.len() && bf.level[s] == u32::MAX {
                let v = bf.queue[head];
                head += 1;
                for &ai in &self.graph[v] {
                    let Arc { to: u, rev, .. } = self.arcs[ai];
                    if bf.level[u] == u32::MAX && self.admissible(u, &self.arcs[rev]) {
                        bf.level[u] = bf.level[v] + 1;
                        bf.queue.push(u);
                    }
                }
            }
            if bf.level[s] == u32::MAX {
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
                    bf.level[arc.to] == bf.level[v] - 1 && self.admissible(v, arc)
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
        use std::{cmp::Reverse, collections::BinaryHeap};
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
    fn a_huge_arc_cost_is_a_key_not_a_bucket_count() {
        // The cheap arc saturates first, so the dual step has to carry the
        // distance 2^40 through its queue: memory must not scale with it.
        let big = 1i64 << 40;
        let mut net = MinCostFlow::new(3);
        let cheap = net.add_arc(0, 1, 1, 0);
        let pricey = net.add_arc(0, 1, 1, big);
        net.add_arc(1, 2, 2, 0);
        assert_eq!(net.run(0, 2), (2, big));
        assert_eq!((net.flow_on(cheap), net.flow_on(pricey)), (1, 1));
        assert_eq!(net.potentials(), [0, big, big]);
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
