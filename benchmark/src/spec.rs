//! The benchmark's contract in one place: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the end-to-end
//! metric each should move. `BENCHMARK.json` at the repository root is
//! [`render_manifest`] of these tables; `check` fails when they differ.

/// Seconds one run measures; `BENCHMARK.json` carries the same number.
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "gen_kernels8",
        why: "The paper's eleven Fig. 10 designs at 64 FUs through build_adg, lower, optimize and emit_verilog: the back end does most of the work and the evaluator none.",
    },
    WorkloadSpec {
        name: "gen_fused16",
        why: "Attention and Conv2d-MNICOC at 256 FUs, two fused dataflows each: front-end merge, pin reuse and gating, and an optimize cost that grows faster than the FU count.",
    },
    WorkloadSpec {
        name: "eval_cold_zoo",
        why: "One-shot decode, fresh session, evaluate, encode over zoo models x hardware: context build and mapping search dominate, every lookup misses, search and serve are bypassed.",
    },
    WorkloadSpec {
        name: "dse_sharded",
        why: "explore_sharded over the 1458-genome paper space, then snapshot encode, decode and absorb: the hit-heavy warm path, the worker pool and the snapshot codec; sim does little.",
    },
    WorkloadSpec {
        name: "mapspace_zoo",
        why: "A fresh session and MapSearch::run per model x hardware cell: e-graph saturation and extraction, the slowest surface; small BERT cells against budget-capped CNN cells.",
    },
    WorkloadSpec {
        name: "serve_pingpong",
        why: "Loopback lego-serve, one connection, one request in flight, warm unbounded cache: per-request latency is mostly thread hand-offs and pricing is a small part of it.",
    },
    WorkloadSpec {
        name: "serve_pipelined",
        why: "The same server with its cache at half the working set, a connection per thread, 32 in flight, 80/20 hot/cold draws: codec, frame, pricing and eviction carry the cost.",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "quality_ratio",
        unit: "ratio",
        better: Better::Lower,
        // Deterministic on every workload; a thousandth leaves room for
        // nothing but a change in the last digits.
        bound: 0.001,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `end-to-end metric@workload` pairs this layer metric should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const GEN_BOTH: &str = "throughput_per_s@gen_kernels8 op_p50_ms@gen_kernels8 throughput_per_s@gen_fused16 op_p50_ms@gen_fused16";
const GEN_FUSED: &str = "op_p50_ms@gen_fused16";
const GEN_QUALITY: &str = "quality_ratio@gen_kernels8 quality_ratio@gen_fused16";
const CODEC: &str = "op_p50_ms@eval_cold_zoo throughput_per_s@serve_pipelined";
const EVAL_COLD: &str = "op_p50_ms@eval_cold_zoo throughput_per_s@eval_cold_zoo";
const EVAL_WARM: &str = "throughput_per_s@dse_sharded throughput_per_s@serve_pipelined";
const DSE: &str = "op_p50_ms@dse_sharded throughput_per_s@dse_sharded";
const MAPSPACE: &str = "op_p50_ms@mapspace_zoo throughput_per_s@mapspace_zoo";
const MAP_QUALITY: &str = "quality_ratio@mapspace_zoo";
const PINGPONG: &str = "op_p50_ms@serve_pingpong throughput_per_s@serve_pingpong";
const PIPELINED: &str = "throughput_per_s@serve_pipelined op_p50_ms@serve_pipelined";
const ALL_P50: &str = "op_p50_ms@gen_kernels8 op_p50_ms@eval_cold_zoo op_p50_ms@mapspace_zoo op_p50_ms@serve_pingpong op_p50_ms@serve_pipelined";

pub const PER_LAYER: &[PerLayer] = &[
    layer("frontend.build_adg_ms", "ms", Lower, GEN_FUSED),
    layer("frontend.adg_fus", "count", Lower, GEN_FUSED),
    layer("frontend.adg_edges", "count", Lower, GEN_FUSED),
    layer("frontend.fifo_depth_total", "count", Lower, GEN_FUSED),
    layer("backend.lower_ms", "ms", Lower, GEN_BOTH),
    layer("backend.infer_bitwidths_ms", "ms", Lower, GEN_BOTH),
    layer("backend.match_delays_ms", "ms", Lower, GEN_BOTH),
    layer("backend.extract_reduction_trees_ms", "ms", Lower, GEN_BOTH),
    layer("backend.rewire_broadcasts_ms", "ms", Lower, GEN_BOTH),
    layer("backend.reuse_pins_ms", "ms", Lower, GEN_BOTH),
    layer("backend.power_gating_ms", "ms", Lower, GEN_BOTH),
    layer("backend.pass_stats_ms", "ms", Lower, GEN_BOTH),
    layer("backend.dag_nodes_lowered", "count", Lower, GEN_BOTH),
    layer("backend.dag_nodes_final", "count", Lower, GEN_BOTH),
    layer("backend.dag_edges_final", "count", Lower, GEN_BOTH),
    layer(
        "backend.register_bits_baseline",
        "count",
        Lower,
        GEN_QUALITY,
    ),
    layer("backend.register_bits_final", "count", Lower, GEN_QUALITY),
    layer("backend.gated_edges", "count", Higher, GEN_QUALITY),
    layer("lp.solve_delay_matching_ms", "ms", Lower, GEN_FUSED),
    layer("lp.delay_nodes", "count", Lower, GEN_FUSED),
    layer("lp.delay_edges", "count", Lower, GEN_FUSED),
    layer("lp.register_cost", "count", Lower, GEN_QUALITY),
    layer("rtl.emit_verilog_ms", "ms", Lower, GEN_BOTH),
    layer("rtl.verilog_bytes", "bytes", Lower, GEN_BOTH),
    layer(
        "rtl.simulate_ms",
        "ms",
        Lower,
        "setup_s@gen_kernels8 setup_s@gen_fused16",
    ),
    layer("model.dag_cost_ms", "ms", Lower, GEN_BOTH),
    layer("core.generate_ms", "ms", Lower, GEN_BOTH),
    layer("core.replay_residual_share", "ratio", Lower, GEN_BOTH),
    layer("eval.request_decode_us", "us", Lower, CODEC),
    layer("eval.request_encode_us", "us", Lower, CODEC),
    layer("eval.report_encode_us", "us", Lower, CODEC),
    layer("eval.report_decode_us", "us", Lower, CODEC),
    layer("eval.request_bytes", "bytes", Lower, CODEC),
    layer("eval.report_bytes", "bytes", Lower, CODEC),
    layer("eval.session_new_us", "us", Lower, EVAL_COLD),
    layer("eval.evaluate_cold_us", "us", Lower, EVAL_COLD),
    layer("eval.layer_key_us", "us", Lower, EVAL_COLD),
    layer("model.context_new_us", "us", Lower, EVAL_COLD),
    layer(
        "model.context_update_us",
        "us",
        Lower,
        "throughput_per_s@dse_sharded",
    ),
    layer("sim.best_mapping_us", "us", Lower, EVAL_COLD),
    layer("sim.aggregate_us", "us", Lower, EVAL_COLD),
    layer("sim.layers_per_op", "count", Lower, EVAL_COLD),
    layer("sim.distinct_layers_per_op", "count", Lower, EVAL_COLD),
    layer("eval.replay_residual_share", "ratio", Lower, EVAL_COLD),
    layer("eval.evaluate_warm_us", "us", Lower, EVAL_WARM),
    layer("eval.evaluate_pristine_us", "us", Lower, EVAL_WARM),
    layer(
        "eval.run_batch_dispatch_us",
        "us",
        Lower,
        "throughput_per_s@dse_sharded",
    ),
    layer("eval.cache_hit_ratio", "ratio", Higher, EVAL_WARM),
    layer("eval.cache_misses", "count", Lower, EVAL_WARM),
    layer(
        "eval.cache_evictions",
        "count",
        Lower,
        "throughput_per_s@serve_pipelined",
    ),
    layer(
        "eval.cache_resident_bytes",
        "bytes",
        Lower,
        "peak_rss_mb@serve_pipelined peak_rss_mb@dse_sharded",
    ),
    layer("explorer.explore_sharded_ms", "ms", Lower, DSE),
    layer("explorer.snapshot_build_ms", "ms", Lower, DSE),
    layer("explorer.snapshot_encode_ms", "ms", Lower, DSE),
    layer("explorer.snapshot_decode_ms", "ms", Lower, DSE),
    layer("explorer.snapshot_absorb_ms", "ms", Lower, DSE),
    layer("explorer.snapshot_bytes", "bytes", Lower, DSE),
    layer("explorer.cache_entries", "count", Lower, DSE),
    layer("explorer.evaluated", "count", Lower, DSE),
    layer("explorer.evals_per_s", "1/s", Higher, DSE),
    layer("explorer.cache_hit_ratio", "ratio", Higher, DSE),
    layer("explorer.duplicate_evals", "count", Lower, DSE),
    layer(
        "explorer.frontier_points",
        "count",
        Higher,
        "quality_ratio@dse_sharded",
    ),
    layer("explorer.replay_residual_share", "ratio", Lower, DSE),
    layer("mapspace.search_ms", "ms", Lower, MAPSPACE),
    layer("mapspace.baseline_eval_ms", "ms", Lower, MAPSPACE),
    layer("mapspace.seed_ms", "ms", Lower, MAPSPACE),
    layer("mapspace.saturate_ms", "ms", Lower, MAPSPACE),
    layer("mapspace.lowerings_ms", "ms", Lower, MAPSPACE),
    layer("mapspace.price_ms", "ms", Lower, MAPSPACE),
    layer("mapspace.egraph_nodes", "count", Lower, MAPSPACE),
    layer("mapspace.egraph_classes", "count", Lower, MAPSPACE),
    layer("mapspace.rounds", "count", Lower, MAPSPACE),
    layer("mapspace.unions", "count", Lower, MAPSPACE),
    layer("mapspace.dedup_hits", "count", Higher, MAPSPACE),
    layer("mapspace.candidates", "count", Lower, MAPSPACE),
    layer("mapspace.pricer_evals", "count", Lower, MAPSPACE),
    layer("mapspace.cells_improved", "count", Higher, MAP_QUALITY),
    layer("mapspace.replay_residual_share", "ratio", Lower, MAPSPACE),
    layer("serve.frame_encode_us", "us", Lower, PIPELINED),
    layer("serve.frame_decode_us", "us", Lower, PIPELINED),
    layer("serve.reply_encode_us", "us", Lower, PIPELINED),
    layer("serve.reply_decode_us", "us", Lower, PIPELINED),
    layer("serve.scheduler_submit_to_reply_us", "us", Lower, PINGPONG),
    layer("serve.roundtrip_p50_us", "us", Lower, PINGPONG),
    layer("serve.roundtrip_p99_us", "us", Lower, PINGPONG),
    layer("serve.handoff_us", "us", Lower, PINGPONG),
    layer("serve.status_reply_share", "ratio", Lower, PIPELINED),
    layer("serve.cache_hit_ratio", "ratio", Higher, PIPELINED),
    layer("serve.cache_evictions", "count", Lower, PIPELINED),
    layer("serve.connections", "count", Higher, PIPELINED),
    layer("serve.window", "count", Higher, PIPELINED),
    layer("e2e.op_p90_ms", "ms", Lower, ALL_P50),
    layer(
        "e2e.op_p99_ms",
        "ms",
        Lower,
        "op_p50_ms@eval_cold_zoo op_p50_ms@serve_pingpong op_p50_ms@serve_pipelined",
    ),
    layer("trace.overhead_share", "ratio", Lower, ALL_P50),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn json_number(v: f64) -> String {
    if v == v.trunc() {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// The text of `BENCHMARK.json`.
pub fn render_manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            json_number(m.bound)
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
