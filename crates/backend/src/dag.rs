//! The Detailed Architecture Graph: primitive-level hardware description.
//!
//! Unlike the ADG, the DAG opens the FU black boxes (paper Figure 7): its
//! nodes are elementary hardware primitives and its edges carry bit-width,
//! per-dataflow activity, and the pipeline registers inserted by delay
//! matching.

use std::collections::BTreeMap;

use lego_lp::DelayEdge;

/// Node identifier within a [`Dag`].
pub type NodeId = usize;

/// Hardware primitives, the node vocabulary of the DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prim {
    /// Integer multiplier.
    Mul,
    /// Integer adder (optionally with an internal accumulation register,
    /// modeled by [`DagNode::accumulate`]).
    Add,
    /// Barrel shifter (BitFusion-style scaling).
    Shift,
    /// Max unit (pooling-style reduction).
    Max,
    /// Configuration-selected multiplexer with `inputs` data pins.
    Mux {
        /// Number of selectable inputs.
        inputs: usize,
    },
    /// Run-time-programmable delay FIFO. `depth[k]` is the configured depth
    /// in dataflow `k` (`None` = unused).
    Fifo {
        /// Programmed depth per dataflow.
        depth: Vec<Option<i64>>,
    },
    /// Balanced reduction tree over `inputs` operands.
    Reducer {
        /// Number of input pins.
        inputs: usize,
    },
    /// Loop counter bank of the shared control unit.
    Counter {
        /// Number of counter levels (temporal loop depth).
        levels: usize,
    },
    /// Affine address generator: one matrix-vector product per tensor.
    AddrGen {
        /// Number of matrix terms (temporal loops feeding the address).
        terms: usize,
    },
    /// Control-signal forwarding register (store-and-forward along `c`).
    CtrlFwd,
    /// L1 read port of a data node.
    ReadPort {
        /// Tensor fetched by this port.
        tensor: String,
    },
    /// L1 write port of a data node.
    WritePort {
        /// Tensor committed by this port.
        tensor: String,
    },
    /// Constant driver.
    Const {
        /// Constant value.
        value: i64,
    },
}

impl Prim {
    /// Internal latency in cycles (paper §V-A's `L_v`).
    pub fn latency(&self) -> i64 {
        match self {
            Prim::Mul => 1,
            Prim::Add | Prim::Max | Prim::Shift => 1,
            Prim::Reducer { inputs } => (usize::BITS - inputs.max(&1).leading_zeros()) as i64,
            Prim::Mux { .. } | Prim::Const { .. } | Prim::CtrlFwd => 0,
            Prim::Fifo { .. } => 0, // semantic depth handled on the edge
            Prim::Counter { .. } => 0,
            Prim::AddrGen { .. } => 1,
            Prim::ReadPort { .. } => 1,
            Prim::WritePort { .. } => 0,
        }
    }
}

/// One DAG node.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// The primitive.
    pub prim: Prim,
    /// Owning FU (dense index), if the node sits inside the array.
    pub fu: Option<usize>,
    /// Output bit-width (filled/updated by bit-width inference).
    pub width: u32,
    /// `true` for adders that keep a local accumulation register
    /// (output-stationary partial sums).
    pub accumulate: bool,
    /// Human-readable label for Verilog emission and debugging.
    pub label: String,
}

/// One DAG edge: a wire from `from`'s output to input pin `to_pin` of `to`.
#[derive(Debug, Clone)]
pub struct DagEdge {
    /// Driving node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Input pin position on the receiver.
    pub to_pin: usize,
    /// Bit-width of the wire.
    pub width: u32,
    /// Active per dataflow.
    pub active: Vec<bool>,
    /// Semantic delay provided by this wire (FIFO programmed depth in the
    /// worst-case dataflow); contributes latency without register cost.
    pub sem_delay: i64,
    /// Extra pipeline registers inserted by delay matching (`EL_uv`).
    pub extra_regs: i64,
    /// Clock-gated when inactive (set by the power-gating pass).
    pub gated: bool,
}

/// The primitive-level detailed architecture graph.
#[derive(Debug, Clone)]
pub struct Dag {
    /// Nodes, indexed by [`NodeId`].
    pub nodes: Vec<DagNode>,
    /// Edges (arbitrary order; stable across passes unless rewired).
    pub edges: Vec<DagEdge>,
    /// Number of fused dataflow configurations.
    pub n_dataflows: usize,
    /// What `passes::match_delays` last solved on this graph.
    pub(crate) delay_memo: Option<DelayMemo>,
}

/// The constraint list of a whole-graph delay-matching solve and the
/// registers it put on each constraint, in list order.
#[derive(Debug, Clone)]
pub(crate) struct DelayMemo {
    pub(crate) edges: Vec<DelayEdge>,
    pub(crate) extra_latency: Vec<i64>,
}

/// In- and out-edge ids per node (CSR layout), from [`Dag::edge_index`].
///
/// Ids within a node ascend, so walking a list visits edges in the order a
/// filter over `dag.edges` would.
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    in_start: Vec<usize>,
    in_ids: Vec<usize>,
    out_start: Vec<usize>,
    out_ids: Vec<usize>,
}

impl EdgeIndex {
    /// Ids of the edges into `node`, ascending.
    pub fn ins(&self, node: NodeId) -> &[usize] {
        &self.in_ids[self.in_start[node]..self.in_start[node + 1]]
    }

    /// Ids of the edges out of `node`, ascending.
    pub fn outs(&self, node: NodeId) -> &[usize] {
        &self.out_ids[self.out_start[node]..self.out_start[node + 1]]
    }
}

impl Dag {
    /// Creates an empty DAG for `n_dataflows` configurations.
    pub fn new(n_dataflows: usize) -> Self {
        Dag {
            nodes: Vec::new(),
            edges: Vec::new(),
            n_dataflows,
            delay_memo: None,
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(
        &mut self,
        prim: Prim,
        fu: Option<usize>,
        width: u32,
        label: impl Into<String>,
    ) -> NodeId {
        self.nodes.push(DagNode {
            prim,
            fu,
            width,
            accumulate: false,
            label: label.into(),
        });
        self.nodes.len() - 1
    }

    /// Adds an edge active in the given dataflows.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        to_pin: usize,
        width: u32,
        active: Vec<bool>,
        sem_delay: i64,
    ) {
        assert!(
            from < self.nodes.len() && to < self.nodes.len(),
            "edge endpoint out of range"
        );
        assert_eq!(active.len(), self.n_dataflows, "activity vector arity");
        self.edges.push(DagEdge {
            from,
            to,
            to_pin,
            width,
            active,
            sem_delay,
            extra_regs: 0,
            gated: false,
        });
    }

    /// Total pipeline-register bits inserted by delay matching.
    pub fn pipeline_register_bits(&self) -> i64 {
        self.edges
            .iter()
            .map(|e| e.extra_regs * i64::from(e.width))
            .sum()
    }

    /// Total FIFO storage bits (worst-case programmed depth × width).
    pub fn fifo_bits(&self) -> i64 {
        self.edges
            .iter()
            .map(|e| e.sem_delay * i64::from(e.width))
            .sum()
    }

    /// Counts nodes matching a predicate.
    pub fn count_nodes(&self, pred: impl Fn(&Prim) -> bool) -> usize {
        self.nodes.iter().filter(|n| pred(&n.prim)).count()
    }

    /// Builds the per-node edge index of the graph as it is now, in
    /// O(nodes + edges).
    ///
    /// The index is a snapshot, not a field: the passes rewire by writing
    /// `dag.edges[i].to = …` directly, so a maintained index would go stale
    /// behind their backs. Build one where a pass or emitter starts, and
    /// again after the pass has rewired.
    pub fn edge_index(&self) -> EdgeIndex {
        let (in_start, in_ids) = self.group_edges(|e| e.to);
        let (out_start, out_ids) = self.group_edges(|e| e.from);
        EdgeIndex {
            in_start,
            in_ids,
            out_start,
            out_ids,
        }
    }

    /// Counting sort of edge ids by `key`: node `v`'s ids are
    /// `ids[start[v]..start[v + 1]]`, ascending.
    fn group_edges(&self, key: fn(&DagEdge) -> NodeId) -> (Vec<usize>, Vec<usize>) {
        let mut start = vec![0usize; self.nodes.len() + 1];
        for e in &self.edges {
            start[key(e) + 1] += 1;
        }
        for v in 0..self.nodes.len() {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let mut ids = vec![0usize; self.edges.len()];
        for (i, e) in self.edges.iter().enumerate() {
            ids[next[key(e)]] = i;
            next[key(e)] += 1;
        }
        (start, ids)
    }

    /// Validates structural invariants; returns a description of the first
    /// violation. Checked by tests after every pass.
    pub fn check(&self) -> Result<(), String> {
        for (i, e) in self.edges.iter().enumerate() {
            if e.from >= self.nodes.len() || e.to >= self.nodes.len() {
                return Err(format!("edge {i} endpoint out of range"));
            }
            if e.extra_regs < 0 {
                return Err(format!("edge {i} has negative registers"));
            }
            if e.active.len() != self.n_dataflows {
                return Err(format!("edge {i} activity arity mismatch"));
            }
        }
        // Pin arity: every Mux/Reducer input pin in range and at most one
        // driver per (node, pin, dataflow).
        let mut seen: BTreeMap<(NodeId, usize, usize), usize> = BTreeMap::new();
        for (i, e) in self.edges.iter().enumerate() {
            let pins = match &self.nodes[e.to].prim {
                Prim::Mux { inputs } | Prim::Reducer { inputs } => *inputs,
                Prim::Mul | Prim::Add | Prim::Max | Prim::Shift => 3,
                Prim::WritePort { .. } => 2, // data, address
                Prim::Fifo { .. } | Prim::CtrlFwd => 1,
                Prim::AddrGen { terms } => *terms,
                Prim::ReadPort { .. } => 1, // address

                Prim::Counter { .. } | Prim::Const { .. } => 0,
            };
            if pins > 0 && e.to_pin >= pins {
                return Err(format!(
                    "edge {i} drives pin {} of node {} (`{}`) with only {pins} pins",
                    e.to_pin, e.to, self.nodes[e.to].label
                ));
            }
            for (k, &a) in e.active.iter().enumerate() {
                if a {
                    if let Some(prev) = seen.insert((e.to, e.to_pin, k), i) {
                        // Multiple drivers on one pin in one dataflow are only
                        // legal through a mux.
                        if !matches!(self.nodes[e.to].prim, Prim::Mux { .. }) {
                            return Err(format!(
                                "pin ({}, {}) double-driven in dataflow {k} by edges {prev} and {i}",
                                e.to, e.to_pin
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// A one-line structural summary.
    pub fn summary(&self) -> String {
        format!(
            "DAG: {} nodes, {} edges, {} muls, {} adds, {} muxes, {} fifos, {} reducers, {} pipeline bits, {} fifo bits",
            self.nodes.len(),
            self.edges.len(),
            self.count_nodes(|p| matches!(p, Prim::Mul)),
            self.count_nodes(|p| matches!(p, Prim::Add)),
            self.count_nodes(|p| matches!(p, Prim::Mux { .. })),
            self.count_nodes(|p| matches!(p, Prim::Fifo { .. })),
            self.count_nodes(|p| matches!(p, Prim::Reducer { .. })),
            self.pipeline_register_bits(),
            self.fifo_bits(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_follow_paper_model() {
        assert_eq!(Prim::Mul.latency(), 1);
        assert_eq!(Prim::Mux { inputs: 4 }.latency(), 0);
        // Balanced tree of 8 inputs: 3 levels; of 5 inputs: 3 levels.
        assert_eq!(Prim::Reducer { inputs: 8 }.latency(), 4); // ceil(log2(8))+1 levels of registers? see note
        assert_eq!(Prim::Reducer { inputs: 4 }.latency(), 3);
        assert_eq!(Prim::Reducer { inputs: 2 }.latency(), 2);
    }

    #[test]
    fn register_bit_accounting() {
        let mut dag = Dag::new(1);
        let a = dag.add_node(Prim::Mul, Some(0), 16, "m");
        let b = dag.add_node(Prim::Add, Some(0), 32, "a");
        dag.add_edge(a, b, 0, 16, vec![true], 0);
        dag.edges[0].extra_regs = 3;
        assert_eq!(dag.pipeline_register_bits(), 48);
        assert!(dag.check().is_ok());
    }

    #[test]
    fn edge_index_lists_what_a_scan_would() {
        let mut dag = Dag::new(1);
        let ids: Vec<NodeId> = (0..4)
            .map(|i| dag.add_node(Prim::Add, None, 8, format!("n{i}")))
            .collect();
        for (from, to) in [(2, 1), (0, 1), (0, 3), (2, 3), (0, 1)] {
            dag.add_edge(ids[from], ids[to], 0, 8, vec![true], 0);
        }
        dag.edges[3].to = ids[0]; // a pass's direct rewiring
        let index = dag.edge_index();
        for &v in &ids {
            let scan = |key: fn(&DagEdge) -> NodeId| -> Vec<usize> {
                (0..dag.edges.len())
                    .filter(|&i| key(&dag.edges[i]) == v)
                    .collect()
            };
            assert_eq!(index.ins(v), scan(|e| e.to));
            assert_eq!(index.outs(v), scan(|e| e.from));
        }
    }

    #[test]
    fn check_catches_double_drive() {
        let mut dag = Dag::new(1);
        let a = dag.add_node(Prim::Const { value: 1 }, None, 8, "c1");
        let b = dag.add_node(Prim::Const { value: 2 }, None, 8, "c2");
        let add = dag.add_node(Prim::Add, None, 8, "add");
        dag.add_edge(a, add, 0, 8, vec![true], 0);
        dag.add_edge(b, add, 0, 8, vec![true], 0);
        assert!(dag.check().is_err());
    }

    #[test]
    fn check_catches_pin_overflow() {
        let mut dag = Dag::new(1);
        let a = dag.add_node(Prim::Const { value: 1 }, None, 8, "c");
        let mux = dag.add_node(Prim::Mux { inputs: 2 }, None, 8, "mux");
        dag.add_edge(a, mux, 5, 8, vec![true], 0);
        assert!(dag.check().is_err());
    }
}
