//! Property-based tests of the search strategies: on any sub-space,
//! exhaustive grid search is at least as good (by EDP) as any budget of
//! random sampling, because the grid visits every point random sampling
//! can draw.

use lego_explorer::{
    DesignSpace, Evaluator, GridSearch, ParetoFrontier, RandomSearch, SearchStrategy,
};
use lego_model::TechModel;
use lego_workloads::zoo;
use proptest::prelude::*;

/// A random non-trivial sub-space of the paper space: each axis keeps a
/// prefix of its choices.
fn subspace(r: usize, c: usize, cl: usize, b: usize, w: usize, d: usize, t: usize) -> DesignSpace {
    let full = DesignSpace::paper();
    DesignSpace {
        rows: full.rows[..r].to_vec(),
        cols: full.cols[..c].to_vec(),
        clusters: full.clusters[..cl].to_vec(),
        buffer_kb: full.buffer_kb[..b].to_vec(),
        dram_gbps: full.dram_gbps[..w].to_vec(),
        dataflow_sets: full.dataflow_sets[..d].to_vec(),
        tile_caps: full.tile_caps[..t].to_vec(),
        sparse_accels: full.sparse_accels.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn exhaustive_never_loses_to_random_sampling(
        r in 1usize..=2,
        c in 1usize..=2,
        cl in 1usize..=2,
        b in 1usize..=2,
        w in 1usize..=2,
        d in 1usize..=2,
        t in 1usize..=2,
        seed in 0u64..1_000_000,
        budget in 1usize..48,
    ) {
        let space = subspace(r, c, cl, b, w, d, t);
        let model = zoo::lenet();
        let evaluator = Evaluator::new(&model, TechModel::default());

        let mut grid_frontier = ParetoFrontier::new();
        let grid = GridSearch.run(&space.full(), &evaluator, &mut grid_frontier, space.size());
        let grid_best = grid.best.expect("grid evaluated the whole space");
        let misses_after_grid = evaluator.cache_misses();

        let mut rand_frontier = ParetoFrontier::new();
        let random =
            RandomSearch { seed }.run(&space.full(), &evaluator, &mut rand_frontier, budget);
        let rand_best = random.best.expect("random evaluated at least one point");

        prop_assert!(
            grid_best.objectives.edp() <= rand_best.objectives.edp() * (1.0 + 1e-12),
            "grid EDP {} must be <= random EDP {} (seed {}, budget {})",
            grid_best.objectives.edp(),
            rand_best.objectives.edp(),
            seed,
            budget
        );
        // Both strategies share one evaluator, so the random pass after
        // the grid pass must be answered entirely from memory: it runs no
        // simulation at all.
        prop_assert_eq!(evaluator.cache_misses(), misses_after_grid);
    }
}
