//! `gen_kernels8` and `gen_fused16`: the generator pipeline, front end to
//! Verilog, over the paper's own design points.

use super::{sweep_cases, SweepStats, Tally, Workload};
use crate::roster::{seeded_tensor, shuffle};
use crate::stats::{geomean, residual_share};
use crate::trace::{replay_share_per_op, Span, Tracer};
use lego_backend::passes::{
    apply_power_gating, extract_reduction_trees, infer_bitwidths, match_delays, reuse_pins,
    rewire_broadcasts,
};
use lego_backend::{lower, BackendConfig, Dag, PassStats};
use lego_bench::designs::{kernel_designs, KernelDesign};
use lego_core::{Design, Lego};
use lego_explorer::SplitMix64;
use lego_frontend::{build_adg, FrontendConfig};
use lego_ir::tensor::{reference_execute, TensorData};
use lego_lp::{solve_delay_matching, DelayEdge, DelayError};
use lego_model::{dag_cost, TechModel};
use lego_rtl::emit_verilog;

const MODULE: &str = "lego_top";

/// What must repeat from one generation of a design to the next. Not the
/// Verilog text: reduction-tree extraction visits a `HashMap`, so two of
/// the eleven designs (Conv2d-ICOC, MTTKRP-KJ) come out as differently
/// arranged, equally sized netlists from run to run.
#[derive(PartialEq)]
struct Shape {
    stats: PassStats,
    dag_edges: usize,
    verilog_bytes: usize,
}

impl Shape {
    fn of(dag: &Dag, stats: PassStats, verilog: &str) -> Self {
        Shape {
            stats,
            dag_edges: dag.edges.len(),
            verilog_bytes: verilog.len(),
        }
    }
}

struct GenDesign {
    design: KernelDesign,
    lego: Lego,
    /// Seeded input tensors, one list shared by every dataflow.
    inputs: Vec<TensorData>,
    /// Structure of the first generation, which every later one must equal.
    shape: Shape,
    /// `final_stats.register_bits / baseline.register_bits`.
    register_ratio: f64,
}

pub struct Gen {
    designs: Vec<GenDesign>,
    setup_failures: u64,
    tally: Tally,
}

impl Gen {
    pub fn kernels8(seed: u64, smoke: bool) -> Self {
        let mut designs = kernel_designs(8);
        if smoke {
            // One of each kernel family that fuses two dataflows.
            designs.retain(|d| matches!(d.name, "Attention" | "GEMM-MJ" | "MTTKRP-MJ"));
        }
        Gen::new(designs, seed)
    }

    pub fn fused16(seed: u64, smoke: bool) -> Self {
        let mut designs: Vec<KernelDesign> = kernel_designs(16)
            .into_iter()
            .filter(|d| matches!(d.name, "Attention" | "Conv2d-MNICOC"))
            .collect();
        if smoke {
            designs.truncate(1);
        }
        Gen::new(designs, seed)
    }

    fn new(mut designs: Vec<KernelDesign>, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        shuffle(&mut designs, &mut rng);
        let mut setup_failures = 0;
        let designs = designs
            .into_iter()
            .map(|design| {
                let mut lego = Lego::new(design.workload.clone());
                for df in &design.dataflows {
                    lego = lego.dataflow(df.clone());
                }
                let inputs: Vec<TensorData> = design
                    .workload
                    .inputs()
                    .map(|a| seeded_tensor(&design.workload.tensor_shape(&a.tensor), &mut rng))
                    .collect();
                let generated = lego.generate().expect("paper design generates");
                if generated.dag.check().is_err()
                    || (simulated(&design) && !simulates(&generated, &inputs))
                {
                    setup_failures += 1;
                }
                let report = &generated.report;
                GenDesign {
                    shape: Shape::of(
                        &generated.dag,
                        report.final_stats,
                        &generated.verilog(MODULE),
                    ),
                    register_ratio: report.final_stats.register_bits as f64
                        / report.baseline.register_bits as f64,
                    design,
                    lego,
                    inputs,
                }
            })
            .collect();
        Gen {
            designs,
            setup_failures,
            tally: Tally::default(),
        }
    }
}

/// Largest iteration domain the functional simulation is run on. It walks
/// every point per dataflow, so Conv2d-MNICOC at 256 FUs (9.4 M points,
/// ten seconds) is left to its 64-FU version in `gen_kernels8`.
const MAX_SIMULATED_DOMAIN: i64 = 1 << 20;

fn simulated(design: &KernelDesign) -> bool {
    design.workload.domain_size() <= MAX_SIMULATED_DOMAIN
}

/// The functional simulation of every fused dataflow equals the reference
/// execution of the workload on the same tensors.
fn simulates(design: &Design, inputs: &[TensorData]) -> bool {
    let refs: Vec<&TensorData> = inputs.iter().collect();
    let expect = reference_execute(&design.adg.workload, &refs);
    (0..design.adg.dataflows.len()).all(|df| design.simulate(df, &refs).output == expect)
}

/// `optimize` with default options, pass by pass through the public pass
/// functions, a span around each.
fn replay_optimize(tr: &mut Tracer, dag: &mut Dag) -> (PassStats, PassStats) {
    fn rematch(tr: &mut Tracer, dag: &mut Dag) -> PassStats {
        tr.span("backend.infer_bitwidths", |_| infer_bitwidths(dag));
        tr.span("backend.match_delays", |_| {
            match_delays(dag).expect("generated DAG is schedulable")
        });
        tr.span("backend.pass_stats", |_| PassStats::capture(dag))
    }
    let baseline = rematch(tr, dag);
    tr.span("backend.extract_reduction_trees", |_| {
        extract_reduction_trees(dag)
    });
    rematch(tr, dag);
    tr.span("backend.rewire_broadcasts", |_| rewire_broadcasts(dag));
    tr.span("backend.pass_stats", |_| PassStats::capture(dag));
    tr.span("backend.reuse_pins", |_| reuse_pins(dag));
    rematch(tr, dag);
    tr.span("backend.power_gating", |_| apply_power_gating(dag));
    let final_stats = tr.span("backend.pass_stats", |_| PassStats::capture(dag));
    (baseline, final_stats)
}

/// The delay-matching constraint list of `dag`, rebuilt from its public
/// fields by the rule `match_delays` documents: runtime-programmable FIFO
/// edges (`sem_delay > 0`) impose no constraint, and an edge's latency is
/// its consumer's.
fn delay_edges(dag: &Dag, dataflow: Option<usize>) -> Vec<DelayEdge> {
    dag.edges
        .iter()
        .filter(|e| e.sem_delay == 0 && dataflow.is_none_or(|k| e.active[k]))
        .map(|e| DelayEdge {
            from: e.from,
            to: e.to,
            width: i64::from(e.width),
            latency: dag.nodes[e.to].prim.latency(),
        })
        .collect()
}

/// Times the LP on its own, on the constraint graph of the final DAG; a
/// cyclic fused graph is solved per dataflow as `match_delays` does.
fn lp_probe(tally: &mut Tally, tr: &mut Tracer, dag: &Dag) {
    let n = dag.nodes.len();
    let all = delay_edges(dag, None);
    tally.add("lp.delay_nodes", n as f64);
    tally.add("lp.delay_edges", all.len() as f64);
    let solved = tr.span("lp.solve_delay_matching", |_| solve_delay_matching(n, &all));
    let cost = match solved {
        Ok(solution) => solution.register_cost,
        Err(DelayError::Cyclic) => (0..dag.n_dataflows)
            .map(|k| {
                let edges = delay_edges(dag, Some(k));
                tr.span("lp.solve_delay_matching", |_| {
                    solve_delay_matching(n, &edges)
                })
                .map_or(0, |s| s.register_cost)
            })
            .sum(),
        Err(_) => 0,
    };
    tally.add("lp.register_cost", cost as f64);
}

/// `Lego::generate` again through `build_adg`, `lower` and the passes;
/// returns whether it built the design the entry point built.
fn replay(tally: &mut Tally, tr: &mut Tracer, d: &GenDesign, verilog: &str) -> bool {
    let (adg, replayed, baseline, final_stats, lowered_nodes) = tr.span("core.replay", |tr| {
        let adg = tr
            .span("frontend.build_adg", |_| {
                build_adg(
                    &d.design.workload,
                    &d.design.dataflows,
                    &FrontendConfig::default(),
                )
            })
            .expect("paper design plans");
        let mut dag = tr.span("backend.lower", |_| lower(&adg, &BackendConfig::default()));
        let lowered_nodes = dag.nodes.len();
        let (baseline, final_stats) = replay_optimize(tr, &mut dag);
        (adg, dag, baseline, final_stats, lowered_nodes)
    });
    let t = tally;
    t.add("frontend.adg_fus", adg.num_fus as f64);
    t.add("frontend.adg_edges", adg.edges.len() as f64);
    t.add("frontend.fifo_depth_total", adg.total_fifo_depth() as f64);
    t.add("backend.dag_nodes_lowered", lowered_nodes as f64);
    t.add("backend.dag_nodes_final", final_stats.nodes as f64);
    t.add("backend.dag_edges_final", replayed.edges.len() as f64);
    t.add(
        "backend.register_bits_baseline",
        baseline.register_bits as f64,
    );
    t.add(
        "backend.register_bits_final",
        final_stats.register_bits as f64,
    );
    t.add("backend.gated_edges", final_stats.gated_edges as f64);
    t.add("rtl.verilog_bytes", verilog.len() as f64);
    Shape::of(&replayed, final_stats, &emit_verilog(&replayed, MODULE)) == d.shape
}

impl Workload for Gen {
    fn sweep(&mut self, tr: &mut Tracer, lat_ms: &mut Vec<f64>) -> SweepStats {
        let tally = &mut self.tally;
        sweep_cases(
            &self.designs,
            tr,
            lat_ms,
            |tr, d| {
                let generated = tr
                    .span("core.generate", |_| d.lego.generate())
                    .expect("paper design generates");
                let verilog = tr.span("rtl.emit_verilog", |_| emit_verilog(&generated.dag, MODULE));
                (generated, verilog)
            },
            |d, (generated, verilog)| {
                let same = generated.dag.check().is_ok()
                    && Shape::of(&generated.dag, generated.report.final_stats, verilog) == d.shape;
                same.then_some(1)
            },
            |tr, d, (_, verilog)| replay(tally, tr, d, verilog),
        )
    }

    /// The layers beside the generate path, once per design: functional
    /// simulation, the cost model, and the LP on its own.
    fn probe(&mut self, tr: &mut Tracer) -> u64 {
        for d in &self.designs {
            let generated = d.lego.generate().expect("paper design generates");
            tr.next_op();
            if simulated(&d.design) {
                let refs: Vec<&TensorData> = d.inputs.iter().collect();
                tr.span("rtl.simulate", |_| generated.simulate(0, &refs));
            }
            tr.span("model.dag_cost", |_| {
                dag_cost(&generated.dag, &TechModel::default(), 1.0)
            });
            lp_probe(&mut self.tally, tr, &generated.dag);
        }
        0
    }

    fn quality_ratio(&self) -> f64 {
        // Name order, not roster order: the seed must not reorder the sum.
        let mut by_name: Vec<(&str, f64)> = self
            .designs
            .iter()
            .map(|d| (d.design.name, d.register_ratio))
            .collect();
        by_name.sort_unstable_by_key(|&(name, _)| name);
        geomean(&by_name.iter().map(|&(_, r)| r).collect::<Vec<_>>())
    }

    fn layer_values(&self, spans: &[Span]) -> Vec<(&'static str, f64)> {
        let mut values = self.tally.per_op();
        values.push((
            "core.replay_residual_share",
            residual_share(&replay_share_per_op(spans, "core.replay", "core.generate")),
        ));
        values
    }

    fn setup_failures(&self) -> u64 {
        self.setup_failures
    }
}
