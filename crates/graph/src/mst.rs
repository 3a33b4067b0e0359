//! Undirected minimum spanning forest (Kruskal).
//!
//! Used by the back end's broadcast pin rewiring (paper §V-B): for each
//! broadcast source, direct edges to every destination and forwarding edges
//! between spatially adjacent destinations compete; the MST picks the
//! cheapest mix of broadcast and forwarding.

use crate::unionfind::UnionFind;
use crate::Edge;

/// Computes a minimum spanning forest over nodes `0..n` and `edges`, with
/// every edge taken as undirected.
///
/// Returns the selected edges as indices into `edges`, in the order Kruskal
/// takes them (by weight, ties by index). If the graph is connected, the
/// result is a spanning tree with `n - 1` edges; otherwise one tree per
/// component. Self-loops are never selected.
///
/// # Examples
///
/// ```
/// use lego_graph::{undirected_mst, Edge};
///
/// let edges = [
///     Edge { from: 0, to: 1, weight: 4 },
///     Edge { from: 1, to: 2, weight: 1 },
///     Edge { from: 0, to: 2, weight: 2 },
/// ];
/// let mst = undirected_mst(3, &edges);
/// assert_eq!(mst, [1, 2]);
/// ```
pub fn undirected_mst(n: usize, edges: &[Edge]) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..edges.len())
        .filter(|&id| edges[id].from != edges[id].to)
        .collect();
    ids.sort_by_key(|&id| (edges[id].weight, id));
    let mut uf = UnionFind::new(n);
    let mut chosen = Vec::new();
    for id in ids {
        let e = edges[id];
        if uf.union(e.from, e.to) {
            chosen.push(id);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(from: usize, to: usize, weight: i64) -> Edge {
        Edge { from, to, weight }
    }

    #[test]
    fn spanning_tree_of_connected_graph() {
        let g = [
            edge(0, 1, 1),
            edge(1, 2, 2),
            edge(2, 3, 3),
            edge(0, 3, 10),
            edge(0, 2, 10),
        ];
        let mst = undirected_mst(4, &g);
        assert_eq!(mst.len(), 3);
        let cost: i64 = mst.iter().map(|&id| g[id].weight).sum();
        assert_eq!(cost, 6);
    }

    #[test]
    fn forest_for_disconnected_graph() {
        let mst = undirected_mst(4, &[edge(0, 1, 1), edge(2, 3, 1)]);
        assert_eq!(mst.len(), 2);
    }

    #[test]
    fn self_loops_ignored() {
        let g = [edge(0, 0, 0), edge(0, 1, 5)];
        let mst = undirected_mst(2, &g);
        assert_eq!(mst.len(), 1);
        assert_eq!(g[mst[0]].weight, 5);
    }

    #[test]
    fn matches_brute_force_cost_on_random_graphs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let n = rng.gen_range(2..=6);
            let mut g = Vec::new();
            // Random connected graph: a random spanning path plus extras.
            for v in 1..n {
                g.push(edge(v - 1, v, rng.gen_range(1..=9)));
            }
            for _ in 0..rng.gen_range(0..6) {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                g.push(edge(a, b, rng.gen_range(1..=9)));
            }
            let mst = undirected_mst(n, &g);
            assert_eq!(mst.len(), n - 1);
            let cost: i64 = mst.iter().map(|&id| g[id].weight).sum();
            // Oracle: Prim's algorithm.
            let mut in_tree = vec![false; n];
            in_tree[0] = true;
            let mut oracle = 0i64;
            for _ in 1..n {
                let mut best: Option<(i64, usize)> = None;
                for e in &g {
                    if e.from == e.to {
                        continue;
                    }
                    for (a, b) in [(e.from, e.to), (e.to, e.from)] {
                        if in_tree[a] && !in_tree[b] && best.is_none_or(|(w, _)| e.weight < w) {
                            best = Some((e.weight, b));
                        }
                    }
                }
                let (w, v) = best.expect("graph is connected");
                oracle += w;
                in_tree[v] = true;
            }
            assert_eq!(cost, oracle);
        }
    }
}
