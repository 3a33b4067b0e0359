//! The Architecture Description Graph — the front end's output (paper §IV).
//!
//! The ADG describes hardware at the FU level: functional units, the pruned
//! set of direct/delay interconnections per tensor, data nodes (memory
//! ports), and the banked L1 memory plan. The back end lowers it to the
//! primitive-level DAG.

use crate::memory::MemoryPlan;
use lego_ir::{Dataflow, TensorRole, Workload};

/// One FU-to-FU interconnection in the fused design.
///
/// `from` produces the value, `to` consumes it. For output tensors the
/// connection carries a partial sum toward the committing FU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuEdge {
    /// Tensor whose data travels on this connection.
    pub tensor: String,
    /// Producing FU (dense index).
    pub from: usize,
    /// Consuming FU (dense index).
    pub to: usize,
    /// FIFO depth per dataflow (`None` = inactive in that dataflow). Depth 0
    /// means the connection degenerates to a wire in that configuration.
    pub depth_per_df: Vec<Option<i64>>,
}

impl FuEdge {
    /// Maximum FIFO depth over the dataflows that activate this edge.
    pub fn max_depth(&self) -> i64 {
        self.depth_per_df
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// `true` if the edge carries data under dataflow `df`.
    pub fn active_in(&self, df: usize) -> bool {
        self.depth_per_df.get(df).copied().flatten().is_some()
    }
}

/// A memory port: an FU that fetches (input) or commits (output) a tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataNode {
    /// The FU carrying the port.
    pub fu: usize,
    /// Dataflows in which this port is active.
    pub active_in: Vec<usize>,
}

/// Everything the front end decided about one tensor.
#[derive(Debug, Clone)]
pub struct TensorPlan {
    /// Tensor name.
    pub tensor: String,
    /// Input or output.
    pub role: TensorRole,
    /// Memory ports.
    pub data_nodes: Vec<DataNode>,
    /// Banked L1 memory plan.
    pub memory: MemoryPlan,
    /// Per dataflow: whether the operand is stationary (reused in a local
    /// register across time) — drives the energy model's buffer traffic.
    pub stationary_in: Vec<bool>,
}

impl TensorPlan {
    /// Data nodes active under dataflow `df`.
    pub fn data_nodes_in(&self, df: usize) -> impl Iterator<Item = &DataNode> {
        self.data_nodes
            .iter()
            .filter(move |d| d.active_in.contains(&df))
    }
}

/// The FU-level architecture description graph.
#[derive(Debug, Clone)]
pub struct Adg {
    /// The workload this architecture executes.
    pub workload: Workload,
    /// The spatial dataflows fused into the design.
    pub dataflows: Vec<Dataflow>,
    /// Number of functional units.
    pub num_fus: usize,
    /// All FU-to-FU interconnections (all tensors).
    pub edges: Vec<FuEdge>,
    /// Per-tensor plans, in workload access order.
    pub tensors: Vec<TensorPlan>,
}

impl Adg {
    /// Interconnections carrying the named tensor.
    pub fn edges_for<'a>(&'a self, tensor: &'a str) -> impl Iterator<Item = &'a FuEdge> {
        self.edges.iter().filter(move |e| e.tensor == tensor)
    }

    /// The plan for the named tensor.
    pub fn tensor_plan(&self, tensor: &str) -> Option<&TensorPlan> {
        self.tensors.iter().find(|t| t.tensor == tensor)
    }

    /// Total number of data nodes (memory ports) across tensors.
    pub fn data_node_count(&self) -> usize {
        self.tensors.iter().map(|t| t.data_nodes.len()).sum()
    }

    /// Sum of FIFO stages over all delay connections (a proxy for the data
    /// path register cost the MST minimizes).
    pub fn total_fifo_depth(&self) -> i64 {
        self.edges.iter().map(FuEdge::max_depth).sum()
    }

    /// A compact human-readable summary (FUs, edges, ports, banks).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "ADG `{}`: {} FUs, {} dataflow(s), {} edges ({} delay stages), {} data nodes\n",
            self.workload.name,
            self.num_fus,
            self.dataflows.len(),
            self.edges.len(),
            self.total_fifo_depth(),
            self.data_node_count(),
        );
        for t in &self.tensors {
            s.push_str(&format!(
                "  {}: {} ports, {} banks\n",
                t.tensor,
                t.data_nodes.len(),
                t.memory.fused_banks(),
            ));
        }
        s
    }
}
