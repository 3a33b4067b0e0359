//! Network-on-chip models (paper §II): multi-stage butterfly and wormhole
//! mesh with X-Y routing.
//!
//! LEGO uses the L1 NoC for strided access and tensor transpose between L1
//! memories and the L2, and a wormhole NoC to scale beyond 1024 FUs by
//! tiling PEs (Table IV shows < 10 % overhead for the L2 NoC). Deadlock in
//! the mesh is prevented by dimension-ordered (X-Y) routing.

pub mod butterfly;
pub mod mesh;

pub use butterfly::Butterfly;
pub use mesh::{Mesh, XyRoute};

/// Latency/energy summary of a modeled transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Cycles from head injection to tail delivery.
    pub cycles: u64,
    /// Router/link hops traversed.
    pub hops: u64,
}
