//! Sparse-scenario design-space exploration: dense vs gating vs skipping.
//!
//! For each pruned/masked model (ResNet50 @ 2:4 structured weights,
//! BERT @ 90 % unstructured weight sparsity, GPT-2 prefill with a causal
//! attention mask), the explorer's full portfolio searches the paper
//! space three times — once per sparse datapath (dense, gating,
//! skipping) — under the same 10 mm² / 3 W budget as `table_dse`, and
//! the per-datapath EDP winners are compared. The three per-class Pareto
//! frontiers are then merged (every global non-dominated point is
//! non-dominated within its class, so the union-then-refilter *is* the
//! full-space frontier) to report how the combined frontier splits
//! between datapaths.
//!
//! The run is deterministic: fixed seed, shared memoized caches,
//! order-preserving parallel evaluation — byte-identical across runs.

use lego_bench::harness::{f, row, section};
use lego_eval::{EvalRequest, EvalSession};
use lego_explorer::{
    default_strategies, explore, Constraints, DesignSpace, ExploreOptions, Genome, ParetoFrontier,
};
use lego_model::{SparseAccel, SparseHw};
use lego_workloads::zoo;

const SEED: u64 = 0x5BA5;

fn main() {
    // Same hard feasibility budget as `table_dse`, so dense numbers are
    // directly comparable.
    let constraints = Constraints::none()
        .with_max_area_mm2(10.0)
        .with_max_power_mw(3000.0);

    section(&format!(
        "Sparse DSE: dense vs gating vs skipping datapaths ({} configs per class; \
         grid+random+ES, seed {SEED:#x}; budget 10 mm2 / 3 W)",
        DesignSpace::paper().size()
    ));
    row(&[
        "model".into(),
        "dense EDP".into(),
        "gate EDP".into(),
        "gate gain".into(),
        "skip EDP".into(),
        "skip gain".into(),
        "best skip config".into(),
        "frontier d/g/s".into(),
    ]);

    let mut format_probes: Vec<(lego_workloads::Model, Genome)> = Vec::new();
    for model in zoo::sparse_models() {
        let mut class_best = Vec::new();
        let mut merged = ParetoFrontier::new();
        for accel in SparseAccel::ALL {
            let space = DesignSpace {
                sparse_accels: vec![accel],
                ..DesignSpace::paper()
            };
            let opts = ExploreOptions {
                budget_per_strategy: space.size(),
                constraints,
                ..Default::default()
            };
            let result = explore(&model, &space, &mut default_strategies(SEED), &opts);
            let best = result.best_by_edp().expect("non-empty frontier").clone();
            for p in result.frontier.points() {
                merged.insert(p.clone());
            }
            class_best.push(best);
        }
        let count = |accel: SparseAccel| {
            merged
                .points()
                .iter()
                .filter(|p| p.genome.sparse == accel)
                .count()
        };
        let [dense, gate, skip] = &class_best[..] else {
            unreachable!("one best per datapath class");
        };
        let dense_edp = dense.objectives.edp();
        row(&[
            model.name.clone(),
            format!("{dense_edp:.3e}"),
            format!("{:.3e}", gate.objectives.edp()),
            f(dense_edp / gate.objectives.edp(), 2),
            format!("{:.3e}", skip.objectives.edp()),
            f(dense_edp / skip.objectives.edp(), 2),
            skip.genome.to_string(),
            format!(
                "{}/{}/{}",
                count(SparseAccel::None),
                count(SparseAccel::Gating),
                count(SparseAccel::Skipping)
            ),
        ]);
        // The paper-level claim this table exists to check: on 2:4-pruned
        // ResNet50, a skipping datapath must beat the best dense design.
        if model.name.starts_with("ResNet50") {
            assert!(
                skip.objectives.edp() < dense_edp,
                "skipping must beat dense on ResNet50 @ 2:4"
            );
        }
        format_probes.push((model, skip.genome));
    }
    println!("\ngain > 1.00 means the sparse datapath beat the best dense design on the");
    println!("same model and budget; gating saves only datapath energy, skipping also");
    println!("saves cycles and compressed traffic (minus frontend area/energy overhead).");
    println!("frontier d/g/s = dense/gating/skipping members of the merged Pareto frontier.");

    // Per-layer representation choices of each model's best skipping
    // design, straight from the session's LayerReport (the frontend picks
    // the smallest format it can index into, per operand, per layer).
    section("Per-layer compressed-format selection (best skipping design per model)");
    row(&[
        "model".into(),
        "weights".into(),
        "inputs".into(),
        "layers".into(),
    ]);
    let session = EvalSession::new();
    for (model, genome) in &format_probes {
        let request = EvalRequest::new(model.clone(), genome.to_hw_config())
            .with_sparse(SparseHw::with_accel(genome.sparse))
            .with_tile_cap(genome.tile_cap);
        request.validate().expect("genomes encode valid requests");
        let report = session.evaluate(&request);
        let mut combos: std::collections::BTreeMap<(&str, &str), i64> = Default::default();
        for l in &report.per_layer {
            *combos
                .entry((l.weight_format.name(), l.input_format.name()))
                .or_default() += l.count;
        }
        for ((w, i), layers) in combos {
            row(&[model.name.clone(), w.into(), i.into(), layers.to_string()]);
        }
    }
    println!("\nlayers = repetition-weighted layer instances streaming that (weights, inputs)");
    println!("format pair; dense layers inside a pruned model keep dense operands, which is");
    println!("why per-layer (not per-chip) selection matters.");
}
