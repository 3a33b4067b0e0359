//! Graph algorithms for LEGO's interconnection planning.
//!
//! The front end prunes the over-complete set of FU interconnections with a
//! *directed* minimum spanning tree — a minimum spanning arborescence — using
//! the Chu-Liu/Edmonds algorithm (the paper cites Tarjan's formulation,
//! §IV-B). The back end's broadcast rewiring (paper §V-B) uses an undirected
//! MST per broadcast source. This crate supplies those algorithms plus the
//! small supporting structures (a directed multigraph, union-find).

pub mod arborescence;
pub mod digraph;
pub mod mst;
pub mod unionfind;

pub use arborescence::{min_spanning_arborescence, Arborescence};
pub use digraph::{DiGraph, EdgeId, EdgeRef, NodeId};
pub use mst::undirected_mst;
pub use unionfind::UnionFind;
