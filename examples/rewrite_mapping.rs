//! Rewrite-based mapping search: enumerate → saturate → extract →
//! warm-start the explorer.
//!
//! The mapper's enumeration picks each layer's best mapping from the
//! hardware's dataflow menu independently. This example searches the
//! *rewrite space* instead: seed an e-graph with the enumerated
//! assignment, saturate the loop-interchange / tile-split /
//! spatial↔temporal / fusion-regrouping rules, and extract the
//! minimum-EDP assignment priced through the same warm `EvalSession`.
//! The rewrite search can never lose to enumeration (its descent starts
//! there) and strictly wins where the menu is restrictive — here
//! MobileNetV2 on `lego_icoc_1k`, whose menu lacks the depthwise-friendly
//! `OHOW` template.
//!
//! Run with: `cargo run --example rewrite_mapping`

use lego::eval::EvalSession;
use lego::explorer::{
    DesignSpace, Evaluator, EvolutionarySearch, Genome, ParetoFrontier, SearchStrategy,
};
use lego::mapspace::MapSearch;
use lego::model::HwConfig;
use lego::model::TechModel;

fn main() {
    let model = lego::workloads::zoo::mobilenet_v2();
    let tech = TechModel::default();
    let session = EvalSession::new();

    // ── 1. Enumerate, saturate, extract ────────────────────────────────
    // One call runs the whole pipeline: the enumerated baseline prices
    // first (that EDP is `enumerated_edp`), then the e-graph saturates
    // the rewrite rules and the extractor descends to the cheapest
    // assignment it can price. Both share the session's EvalCache, so a
    // candidate the baseline already priced costs nothing to revisit.
    let hw = HwConfig::lego_icoc_1k();
    let out = MapSearch::new(&model, hw, tech).run(&session);
    println!("{}", out.render());
    assert!(
        out.rewrite_edp <= out.enumerated_edp,
        "the rewrite search never loses to enumeration"
    );
    assert!(
        out.improved(),
        "on a menu without OHOW the rewrite search must strictly win"
    );
    println!(
        "\nsaturation: {} rounds, {} nodes, {} classes, {} unions ({} dedup hits)",
        out.stats.rounds,
        out.stats.nodes,
        out.stats.classes,
        out.stats.unions,
        out.stats.dedup_hits,
    );

    // ── 2. Fold the outcome back into the explorer ─────────────────────
    // `suggest_genome` turns the extracted dataflow set and modal tile
    // cap into a genome; warm-starting the evolutionary search with it
    // hands the ES the rewrite search's head start. The ES is elitist,
    // so its best can never be worse than the seed itself.
    let suggested = out.suggest_genome(&Genome::lego_256_baseline());
    println!("\nsuggested warm-start genome: {suggested}");

    let evaluator = Evaluator::new(&model, tech);
    let mut es = EvolutionarySearch {
        seed: 7,
        mu: 4,
        lambda: 4,
        ..Default::default()
    };
    es.warm_start(&[suggested]);
    let mut frontier = ParetoFrontier::new();
    let report = es.run(&DesignSpace::paper().full(), &evaluator, &mut frontier, 16);
    let best = report.best.expect("non-empty search");
    let seed_edp = evaluator.eval(&suggested).objectives.edp();
    assert!(
        best.objectives.edp() <= seed_edp,
        "elitist ES retains (or beats) its warm-start seed"
    );
    println!(
        "warm-started ES best: EDP {:.3e} (seed genome priced at {:.3e})",
        best.objectives.edp(),
        seed_edp,
    );
}
