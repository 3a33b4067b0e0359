//! Graph algorithms for LEGO's interconnection planning.
//!
//! The front end prunes the over-complete set of FU interconnections with a
//! *directed* minimum spanning tree — a minimum spanning arborescence — using
//! the Chu-Liu/Edmonds algorithm (the paper cites Tarjan's formulation,
//! §IV-B). The back end's broadcast rewiring (paper §V-B) uses an undirected
//! MST per broadcast source. Both algorithms take a node count `n` and a
//! slice of [`Edge`]s over nodes `0..n`, and return the chosen edges as
//! indices into that slice. Union-find supports them and the front end's
//! chain partition.

pub mod arborescence;
pub mod mst;
pub mod unionfind;

pub use arborescence::{min_spanning_arborescence, Arborescence};
pub use mst::undirected_mst;
pub use unionfind::UnionFind;

/// A weighted directed edge between dense node indices. Parallel edges and
/// self-loops are allowed; both algorithms skip self-loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// Weight (FIFO depth, latency, or any cost the caller chooses).
    pub weight: i64,
}
