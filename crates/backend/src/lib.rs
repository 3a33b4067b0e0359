//! LEGO back end (paper §V): lowers the FU-level ADG to a primitive-level
//! Detailed Architecture Graph (DAG) and optimizes it.
//!
//! The DAG's nodes are hardware primitives (multipliers, adders, muxes,
//! FIFOs, counters, affine address generators, memory ports); its edges
//! carry bit-widths, per-dataflow activity, and pipeline registers. The
//! transformation passes are:
//!
//! * **bit-width inference** — forward value-range propagation ([`passes::infer_bitwidths`]);
//! * **delay matching** — the LP of §V-A, solved exactly through its
//!   min-cost-flow dual ([`passes::match_delays`]);
//! * **reduction tree extraction** — §V-C, collapsing accumulation chains
//!   into balanced reducers ([`passes::extract_reduction_trees`]);
//! * **broadcast pin rewiring** — §V-B's three-stage heuristic
//!   ([`passes::rewire_broadcasts`]);
//! * **pin reusing** — §V-C's 0-1 program over reducer pins
//!   ([`passes::reuse_pins`]);
//! * **power gating** — §V-D, clock-enables on conditionally-unused paths
//!   ([`passes::apply_power_gating`]).
//!
//! [`lower`] performs naive codegen (the paper's "delay matching only"
//! baseline once matched); [`optimize`] runs the full pipeline and returns
//! per-pass statistics that the evaluation harness turns into Figures 13/14.

pub mod codegen;
pub mod dag;
pub mod passes;

pub use codegen::lower;
pub use dag::{Dag, DagEdge, DagNode, EdgeIndex, NodeId, Prim};
pub use passes::{optimize, OptimizeReport, PassStats};

/// Structural configuration for lowering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendConfig {
    /// Replicate the control unit per FU instead of sharing one and
    /// forwarding along the control-flow vector. LEGO keeps this `false`;
    /// setting it models AutoSA/TensorLib-style per-FU control for the
    /// related-work comparisons (Tables VI and VIII).
    pub per_fu_control: bool,
}

/// Which optimization passes to run (ablation switch for Figures 13/14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeOptions {
    /// Extract balanced reduction trees from adder chains.
    pub reduction_tree: bool,
    /// Rewire broadcast pins through MST forwarding.
    pub broadcast_rewire: bool,
    /// Remap reducer pins across dataflows.
    pub pin_reuse: bool,
    /// Add clock-enable gating on conditionally-unused connections.
    pub power_gating: bool,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            reduction_tree: true,
            broadcast_rewire: true,
            pin_reuse: true,
            power_gating: true,
        }
    }
}

impl OptimizeOptions {
    /// The paper's mandatory baseline: delay matching only.
    pub fn baseline() -> Self {
        OptimizeOptions {
            reduction_tree: false,
            broadcast_rewire: false,
            pin_reuse: false,
            power_gating: false,
        }
    }
}
