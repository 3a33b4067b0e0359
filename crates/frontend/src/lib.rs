//! LEGO front end (paper §IV): from relation-centric workload + dataflows to
//! an FU-level Architecture Description Graph (ADG).
//!
//! The pipeline is:
//!
//! 1. [`interconnect`] — solve the integer linear systems of Equations 6–7
//!    to find every feasible direct and delay interconnection per tensor;
//! 2. [`plan`] — partition FUs into *chains* (sets reachable through direct
//!    interconnections), prune delay connections with a minimum spanning
//!    arborescence over chains (Chu-Liu/Edmonds, §IV-B), and fuse multiple
//!    spatial dataflows with the BFS heuristic of Figure 5 (§IV-C);
//! 3. [`memory`] — derive conflict-free bank counts from index deltas at
//!    `t = 0` with the GCD reduction of Equation 9 (§IV-D);
//! 4. [`adg`] — assemble the result into an [`adg::Adg`].
//!
//! # Examples
//!
//! ```
//! use lego_frontend::{build_adg, FrontendConfig};
//! use lego_ir::kernels::{self, dataflows};
//!
//! // The 2×2 systolic array of paper Figure 3.
//! let gemm = kernels::gemm(4, 4, 4);
//! let df = dataflows::gemm_kj(&gemm, 2);
//! let adg = build_adg(&gemm, &[df], &FrontendConfig::default()).unwrap();
//! assert_eq!(adg.num_fus, 4);
//! // X is forwarded along j, Y reduced along k: 2 edges each.
//! assert_eq!(adg.edges_for("X").count(), 2);
//! assert_eq!(adg.edges_for("Y").count(), 2);
//! ```

pub mod adg;
pub mod interconnect;
pub mod memory;
pub mod plan;

pub use adg::{Adg, DataNode, FuEdge, TensorPlan};
pub use interconnect::{analyze_tensor, ReuseKind, ReuseSolution};
pub use memory::{BankShape, MemoryPlan};

use lego_ir::{Dataflow, Workload};

/// The front end's settings: none. Its interconnection distance and
/// spanning-tree weights are constants of [`plan`]. The struct and
/// [`build_adg`]'s parameter remain only because the benchmark names them;
/// ROADMAP items 1 and 4 drop both together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendConfig {}

/// Errors raised by [`build_adg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrontendError {
    /// Fused dataflows must run on the same number of FUs.
    FuCountMismatch {
        /// FU count of the first dataflow.
        first: i64,
        /// The offending dataflow's FU count.
        other: i64,
    },
    /// At least one dataflow is required.
    NoDataflows,
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendError::FuCountMismatch { first, other } => {
                write!(f, "dataflows disagree on FU count: {first} vs {other}")
            }
            FrontendError::NoDataflows => write!(f, "at least one dataflow is required"),
        }
    }
}

impl std::error::Error for FrontendError {}

/// Runs the complete front end and returns the architecture description
/// graph for the given workload and (possibly multiple) spatial dataflows.
///
/// # Errors
///
/// Returns [`FrontendError::NoDataflows`] for an empty dataflow list and
/// [`FrontendError::FuCountMismatch`] when dataflows cannot share one array.
pub fn build_adg(
    workload: &Workload,
    dataflows: &[Dataflow],
    _config: &FrontendConfig,
) -> Result<Adg, FrontendError> {
    let Some(first) = dataflows.first() else {
        return Err(FrontendError::NoDataflows);
    };
    for df in dataflows {
        if df.num_fus() != first.num_fus() {
            return Err(FrontendError::FuCountMismatch {
                first: first.num_fus(),
                other: df.num_fus(),
            });
        }
    }
    Ok(plan::plan_architecture(workload, dataflows))
}
