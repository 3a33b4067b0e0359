//! A small directed multigraph with integer edge weights.

/// Node identifier (dense index into the graph's node set).
pub type NodeId = usize;

/// Edge identifier (dense index into the graph's edge list).
pub type EdgeId = usize;

/// A borrowed view of one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Edge identifier.
    pub id: EdgeId,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Weight (FIFO depth, latency, or any cost the caller chooses).
    pub weight: i64,
}

/// A directed multigraph over dense node indices `0..n`.
///
/// Parallel edges and self-loops are allowed; algorithms that cannot handle
/// them filter them out explicitly.
///
/// # Examples
///
/// ```
/// use lego_graph::DiGraph;
///
/// let mut g = DiGraph::new(2);
/// let e = g.add_edge(0, 1, 7);
/// assert_eq!(g.edge(e).weight, 7);
/// assert_eq!(g.edges().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    n: usize,
    edges: Vec<EdgeRef>,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.n += 1;
        self.n - 1
    }

    /// Adds a directed edge and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, weight: i64) -> EdgeId {
        assert!(from < self.n && to < self.n, "edge endpoint out of range");
        let id = self.edges.len();
        self.edges.push(EdgeRef {
            id,
            from,
            to,
            weight,
        });
        id
    }

    /// Returns the edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> EdgeRef {
        self.edges[id]
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.edges.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_bookkeeping() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 2, 2);
        g.add_edge(2, 1, 3);
        let from_0: Vec<_> = g.edges().filter(|e| e.from == 0).map(|e| e.to).collect();
        assert_eq!(from_0, vec![1, 2]);
    }

    #[test]
    fn parallel_edges_and_loops_allowed() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1, 1);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 1, 3);
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = DiGraph::new(0);
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, 5);
        assert_eq!(g.node_count(), 2);
    }
}
