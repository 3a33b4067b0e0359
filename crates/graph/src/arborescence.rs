//! Minimum spanning arborescence (directed MST) — Chu-Liu/Edmonds.
//!
//! The LEGO front end models every feasible FU interconnection as a directed
//! edge weighted by its delay-FIFO depth, then extracts the cheapest set of
//! connections that still gives each FU exactly one valid data source: a
//! minimum spanning arborescence rooted at a virtual memory node
//! (paper §IV-B, citing Tarjan's formulation of Chu-Liu/Edmonds).

use crate::Edge;

/// Result of a minimum spanning arborescence computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arborescence {
    /// Total weight of the selected edges.
    pub cost: i64,
    /// Selected edges as indices into the input slice (exactly one incoming
    /// edge per non-root node).
    pub edges: Vec<usize>,
}

/// Computes a minimum spanning arborescence over nodes `0..n` and `edges`,
/// rooted at `root`.
///
/// Returns `None` if some node is unreachable from the root. Self-loops are
/// ignored; parallel edges are allowed.
///
/// # Examples
///
/// ```
/// use lego_graph::{min_spanning_arborescence, Edge};
///
/// let edges = [
///     Edge { from: 0, to: 1, weight: 5 },
///     Edge { from: 0, to: 2, weight: 1 },
///     Edge { from: 2, to: 1, weight: 1 },
/// ];
/// let arb = min_spanning_arborescence(3, &edges, 0).unwrap();
/// assert_eq!(arb.cost, 2); // 0→2 (1) then 2→1 (1) beats 0→1 (5)
/// assert_eq!(arb.edges, [2, 1]);
/// ```
pub fn min_spanning_arborescence(n: usize, edges: &[Edge], root: usize) -> Option<Arborescence> {
    let chosen = mst_rec(n, edges, root)?;
    let cost = chosen.iter().map(|&i| edges[i].weight).sum();
    Some(Arborescence {
        cost,
        edges: chosen,
    })
}

/// Recursive Chu-Liu/Edmonds. Returns indices into `edges` forming a minimum
/// arborescence over nodes `0..n` rooted at `root`.
fn mst_rec(n: usize, edges: &[Edge], root: usize) -> Option<Vec<usize>> {
    if n <= 1 {
        return Some(Vec::new());
    }
    // 1. Cheapest incoming edge per non-root node.
    let mut best: Vec<Option<usize>> = vec![None; n];
    for (i, e) in edges.iter().enumerate() {
        if e.to == root || e.from == e.to {
            continue;
        }
        if best[e.to].is_none_or(|b| e.weight < edges[b].weight) {
            best[e.to] = Some(i);
        }
    }
    if (0..n).any(|v| v != root && best[v].is_none()) {
        return None;
    }

    // 2. Look for a cycle among the chosen parent pointers.
    let mut state = vec![0u8; n]; // 0 = unseen, 1 = on current path, 2 = done
    state[root] = 2;
    let mut cycle: Option<Vec<usize>> = None;
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut v = start;
        while state[v] == 0 {
            state[v] = 1;
            path.push(v);
            v = edges[best[v].expect("non-root has best edge")].from;
        }
        if state[v] == 1 {
            let pos = path.iter().position(|&x| x == v).expect("v on path");
            cycle = Some(path[pos..].to_vec());
        }
        for &u in &path {
            state[u] = 2;
        }
        if cycle.is_some() {
            break;
        }
    }

    let Some(cyc) = cycle else {
        // Acyclic: the greedy choice is the optimum.
        return Some(
            (0..n)
                .filter(|&v| v != root)
                .map(|v| best[v].expect("non-root has best edge"))
                .collect(),
        );
    };

    // 3. Contract the cycle into a super node.
    let mut in_cycle = vec![false; n];
    for &v in &cyc {
        in_cycle[v] = true;
    }
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    for (v, slot) in comp.iter_mut().enumerate() {
        if !in_cycle[v] {
            *slot = next;
            next += 1;
        }
    }
    let super_id = next;
    next += 1;
    for &v in &cyc {
        comp[v] = super_id;
    }

    // Each contracted edge remembers the edge it stands for.
    let mut new_edges = Vec::new();
    let mut parent = Vec::new();
    for (i, e) in edges.iter().enumerate() {
        let (cu, cv) = (comp[e.from], comp[e.to]);
        if cu == cv {
            continue;
        }
        // Edges entering the cycle are re-weighted by the cycle edge they
        // would displace (the classic Chu-Liu reduction).
        let weight = if cv == super_id {
            e.weight - edges[best[e.to].expect("cycle node has best edge")].weight
        } else {
            e.weight
        };
        new_edges.push(Edge {
            from: cu,
            to: cv,
            weight,
        });
        parent.push(i);
    }

    let sub = mst_rec(next, &new_edges, comp[root])?;
    let mut result: Vec<usize> = sub.iter().map(|&j| parent[j]).collect();

    // 4. Expand: keep all cycle edges except the one displaced by the single
    // chosen edge that enters the contracted node.
    let enter = result
        .iter()
        .copied()
        .find(|&i| in_cycle[edges[i].to])
        .expect("arborescence must enter the contracted cycle");
    let v_star = edges[enter].to;
    for &v in &cyc {
        if v != v_star {
            result.push(best[v].expect("cycle node has best edge"));
        }
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(from: usize, to: usize, weight: i64) -> Edge {
        Edge { from, to, weight }
    }

    /// Exhaustive minimum arborescence for small graphs (test oracle).
    fn brute_force(n: usize, edges: &[Edge], root: usize) -> Option<i64> {
        let mut per_node: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, e) in edges.iter().enumerate() {
            if e.to != root && e.from != e.to {
                per_node[e.to].push(id);
            }
        }
        let non_root: Vec<usize> = (0..n).filter(|&v| v != root).collect();
        if non_root.iter().any(|&v| per_node[v].is_empty()) {
            return None;
        }
        let mut best: Option<i64> = None;
        let mut pick = vec![0usize; non_root.len()];
        loop {
            // Check this combination forms an arborescence (all reach root).
            let mut parent = vec![usize::MAX; n];
            let mut cost = 0i64;
            for (slot, &v) in non_root.iter().enumerate() {
                let e = edges[per_node[v][pick[slot]]];
                parent[v] = e.from;
                cost += e.weight;
            }
            let ok = non_root.iter().all(|&v| {
                let mut cur = v;
                let mut steps = 0;
                while cur != root && steps <= n {
                    cur = parent[cur];
                    steps += 1;
                }
                cur == root
            });
            if ok {
                best = Some(best.map_or(cost, |b: i64| b.min(cost)));
            }
            // Next combination.
            let mut k = 0;
            loop {
                if k == pick.len() {
                    return best;
                }
                pick[k] += 1;
                if pick[k] < per_node[non_root[k]].len() {
                    break;
                }
                pick[k] = 0;
                k += 1;
            }
        }
    }

    fn validate(n: usize, edges: &[Edge], root: usize, arb: &Arborescence) {
        // One incoming edge per non-root node.
        let mut indeg = vec![0usize; n];
        let mut parent = vec![usize::MAX; n];
        for &id in &arb.edges {
            let e = edges[id];
            indeg[e.to] += 1;
            parent[e.to] = e.from;
        }
        assert_eq!(indeg[root], 0);
        for (v, &deg) in indeg.iter().enumerate() {
            if v != root {
                assert_eq!(deg, 1, "node {v} in-degree");
            }
        }
        // Everything reaches the root.
        for v in 0..n {
            let mut cur = v;
            let mut steps = 0;
            while cur != root {
                cur = parent[cur];
                steps += 1;
                assert!(steps <= n, "cycle detected");
            }
        }
    }

    #[test]
    fn chain_beats_direct() {
        let g = [edge(0, 1, 5), edge(0, 2, 1), edge(2, 1, 1)];
        let arb = min_spanning_arborescence(3, &g, 0).unwrap();
        validate(3, &g, 0, &arb);
        assert_eq!(arb.cost, 2);
    }

    #[test]
    fn cycle_contraction_case() {
        // Classic case that forces a contraction: 1 and 2 prefer each other.
        let g = [edge(1, 2, 1), edge(2, 1, 1), edge(0, 1, 10), edge(0, 2, 12)];
        let arb = min_spanning_arborescence(3, &g, 0).unwrap();
        validate(3, &g, 0, &arb);
        assert_eq!(arb.cost, 11); // 0→1 (10) + 1→2 (1)
    }

    #[test]
    fn unreachable_returns_none() {
        assert!(min_spanning_arborescence(3, &[edge(0, 1, 1)], 0).is_none());
    }

    #[test]
    fn single_node_is_trivial() {
        let arb = min_spanning_arborescence(1, &[], 0).unwrap();
        assert_eq!(arb.cost, 0);
        assert!(arb.edges.is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xd1_5ea5e);
        for trial in 0..300 {
            let n = rng.gen_range(2..=5);
            let m = rng.gen_range(1..=9);
            let mut g = Vec::new();
            for _ in 0..m {
                let from = rng.gen_range(0..n);
                let to = rng.gen_range(0..n);
                let w = rng.gen_range(0..=8);
                g.push(edge(from, to, w));
            }
            let root = rng.gen_range(0..n);
            let expected = brute_force(n, &g, root);
            let actual = min_spanning_arborescence(n, &g, root);
            match (expected, actual) {
                (None, None) => {}
                (Some(c), Some(arb)) => {
                    validate(n, &g, root, &arb);
                    assert_eq!(arb.cost, c, "trial {trial}: wrong cost");
                }
                (e, a) => panic!(
                    "trial {trial}: feasibility mismatch {e:?} vs {:?}",
                    a.map(|x| x.cost)
                ),
            }
        }
    }
}
