//! Differential test of the evaluator's row pricing against the session's
//! cached pricing.
//!
//! `Evaluator` prices a genome into one row (each distinct layer shape
//! simulated once or read from its warm list) and builds the shard's cache
//! list from the rows. An `EvalSession` pricing the same requests through
//! its `EvalCache` is the reference: every point must equal the session's
//! numbers bit for bit, the list must equal the cache's entries, and the
//! hit/miss counts must equal the cache's counters, whatever the warm list
//! holds.

use lego_eval::codec::{Enc, Wire};
use lego_eval::{EvalRequestRef, EvalSession, Objective};
use lego_explorer::{Constraints, DesignSpace, Evaluator, Genome, SharedEntries, SplitMix64};
use lego_model::{SparseHw, TechModel};
use lego_workloads::{zoo, Model};
use std::sync::Arc;

type Entries = Vec<((u64, u64), lego_sim::LayerPerf)>;

fn bits<T: Wire>(value: &T) -> Vec<u8> {
    let mut e = Enc::default();
    value.put(&mut e);
    e.into_bytes()
}

/// The request `Evaluator` prices `genome` with.
fn price(
    session: &EvalSession,
    model: &Model,
    genome: &Genome,
    tech: TechModel,
) -> lego_eval::Priced {
    let hw = genome.to_hw_config();
    session.price(EvalRequestRef {
        workload: model,
        hw: &hw,
        sparse: SparseHw::with_accel(genome.sparse),
        tech,
        objective: Objective::EDP,
        tile_cap: genome.tile_cap,
        hw_key: Some(genome.key()),
        layer_keys: None,
    })
}

/// Seeded genomes of `space`, with repeats inside and across the halves
/// the evaluator gets as two batches.
fn genomes(space: &DesignSpace, seed: u64) -> Vec<Genome> {
    let mut rng = SplitMix64::new(seed);
    let g: Vec<Genome> = (0..4).map(|_| space.sample(&mut rng)).collect();
    vec![g[0], g[1], g[0], g[2], g[1], g[3], g[3], g[0]]
}

/// Prices `genomes` through an evaluator and through a session, both
/// warmed with `warm`, and holds them equal. Returns the shard list and
/// the misses.
fn check(
    model: &Model,
    genomes: &[Genome],
    (node, tech): (&str, TechModel),
    warm: &SharedEntries,
) -> (Entries, u64) {
    let case = format!("{} at {node}, {} warm entries", model.name, warm.len());
    let ev = Evaluator::new(model, tech)
        .with_threads(2)
        .with_warm_cache(Arc::clone(warm));
    let session = EvalSession::new();
    session.cache().absorb(warm.iter().copied());
    let (first, second) = genomes.split_at(genomes.len() / 2);
    let points = [ev.eval_batch(first), ev.eval_batch(second)].concat();
    for (g, p) in genomes.iter().zip(&points) {
        let priced = price(&session, model, g, tech);
        assert_eq!(p.genome, *g, "{case}");
        assert_eq!(bits(&p.perf), bits(&priced.model), "{case}: {g}");
        assert_eq!(
            bits(&p.objectives),
            bits(&priced.cost.objectives),
            "{case}: {g}"
        );
        assert_eq!(
            p.peak_power_mw.to_bits(),
            priced.cost.peak_power_mw.to_bits()
        );
        assert!(p.feasible, "no constraints");
    }
    let entries = ev.entries();
    assert_eq!(bits(&entries), bits(&session.cache().entries()), "{case}");
    assert_eq!(ev.cache_hits(), session.cache().hits(), "{case}");
    assert_eq!(ev.cache_misses(), session.cache().misses(), "{case}");
    let misses = ev.cache_misses();

    // Priced again after `with_constraints`, every genome is served from
    // the memo: no row is added, no shape simulated, and the verdicts
    // follow the new budget.
    let budget = Constraints::none().with_max_area_mm2(2.5);
    let ev = ev.with_constraints(budget);
    let again = ev.eval_batch(genomes);
    let lone = ev.eval(&genomes[0]);
    for (g, p) in genomes
        .iter()
        .chain([&genomes[0]])
        .zip(again.iter().chain([&lone]))
    {
        price(&session, model, g, tech);
        assert_eq!(
            p.feasible,
            budget.admits(p.objectives.area_um2, p.peak_power_mw)
        );
    }
    assert_eq!(
        bits(&ev.entries()),
        bits(&entries),
        "{case}: a row was added"
    );
    assert_eq!(ev.cache_misses(), misses, "{case}");
    assert_eq!(ev.cache_hits(), session.cache().hits(), "{case}");
    assert_eq!(ev.cache_misses(), session.cache().misses(), "{case}");
    (entries, misses)
}

#[test]
fn row_pricing_equals_the_session_under_every_warm_list() {
    let models = ["lenet", "mobilenet_v2", "resnet50_2to4"]
        .map(|name| zoo::by_name(name).expect("a zoo model"));
    let techs = [
        ("28 nm", TechModel::default()),
        ("45 nm", TechModel::default().scaled_to(45.0)),
    ];
    for model in &models {
        for (space, seed) in [(DesignSpace::paper(), 11), (DesignSpace::sparse(), 12)] {
            let genomes = genomes(&space, seed);
            let cold = techs.map(|tech| check(model, &genomes, tech, &SharedEntries::default()));
            for (t, tech) in techs.into_iter().enumerate() {
                let (full, cold_misses) = &cold[t];
                assert!(*cold_misses > 0);
                let full = Arc::new(full.clone());
                let (_, misses) = check(model, &genomes, tech, &full);
                assert_eq!(misses, 0, "a full warm list answers every lookup");

                let partial: SharedEntries = Arc::new(full.iter().step_by(3).copied().collect());
                let (list, misses) = check(model, &genomes, tech, &partial);
                assert!(
                    0 < misses && misses < *cold_misses,
                    "{misses} of {cold_misses}"
                );
                assert_eq!(list, *full);

                let foreign = Arc::new(cold[1 - t].0.clone());
                let (list, misses) = check(model, &genomes, tech, &foreign);
                assert_eq!(misses, *cold_misses, "foreign-tech entries must miss");
                assert_eq!(list.len(), full.len() + foreign.len());
            }
        }
    }
}
