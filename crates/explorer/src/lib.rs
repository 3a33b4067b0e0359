//! # lego-explorer — hardware design-space exploration for LEGO
//!
//! The paper's mapping search (§VI-A) picks a per-layer dataflow for a
//! *fixed* hardware configuration. This crate searches the hardware itself:
//! the joint space of array shape × buffer capacity × DRAM bandwidth ×
//! fused-dataflow set × tiling, for a target [`Model`] from
//! `lego-workloads`.
//!
//! The moving parts:
//!
//! * [`DesignSpace`] / [`Genome`] — the axes and one candidate configuration
//!   ([`Genome::to_hw_config`] materializes the simulator's `HwConfig`);
//! * [`SearchStrategy`] — pluggable search: [`GridSearch`] (exhaustive),
//!   [`RandomSearch`] (seeded sampling), and [`EvolutionarySearch`]
//!   ((μ+λ) with mutation and crossover over config genomes);
//! * [`Evaluator`] — batch evaluation through `EvalSession::run_batch` on
//!   scoped threads, deterministic regardless of interleaving. Every
//!   strategy shares its memo, which prices each genome once into one row
//!   (a layer result per distinct layer shape); the rows become the
//!   shard's key-sorted cache list;
//! * [`ParetoFrontier`] — the surviving (latency, energy, area) trade-offs,
//!   with EDP/EDAP scalarizations for ranking.
//!
//! ```
//! use lego_explorer::{explore, DesignSpace, ExploreOptions, Genome};
//!
//! let model = lego_workloads::zoo::lenet();
//! let result = explore(
//!     &model,
//!     &DesignSpace::tiny(),
//!     &mut lego_explorer::default_strategies(7),
//!     &ExploreOptions { budget_per_strategy: 16, ..Default::default() },
//! );
//! let best = result.frontier.best_by_edp().unwrap();
//! assert!(best.objectives.edp() > 0.0);
//! assert!(result.cache_hits > 0); // strategies shared evaluations
//! ```
//!
//! # Sharded exploration
//!
//! Production-size sweeps split the space across processes or hosts.
//! [`DesignSpace::shard`] deterministically partitions the genome
//! enumeration (and keeps each strategy inside its slice), a worker explores
//! its shard with [`explore_shard`] and checkpoints the resulting
//! frontier + evaluation cache as a [`Snapshot`] file, and a coordinator
//! merges snapshots with [`ParetoFrontier::merge`] /
//! [`EvalCache::absorb`](lego_eval::EvalCache::absorb) (or
//! [`Snapshot::absorb`]). For a disjoint grid partition, the merged
//! frontier is dominance-equal to the single-process frontier — pinned by
//! tests and by the `dse_shard` CI job. The same workflow runs in-process
//! through [`explore_sharded`]:
//!
//! ```
//! use lego_explorer::{explore_sharded, DesignSpace, ExploreOptions};
//!
//! let model = lego_workloads::zoo::lenet();
//! let result = explore_sharded(
//!     &model,
//!     &DesignSpace::tiny(),
//!     4, // shards
//!     7, // seed
//!     &ExploreOptions { budget_per_strategy: 8, ..Default::default() },
//! );
//! assert_eq!(result.shards.len(), 4);
//! assert!(result.frontier.is_mutually_non_dominated());
//! // Shard 2's checkpoint, exactly as a worker process would write it:
//! let snap = result.shards[2].snapshot(&model.name, 7);
//! let bytes = snap.encode();
//! assert_eq!(
//!     lego_explorer::Snapshot::decode(&bytes).unwrap().encode(),
//!     bytes,
//! );
//! ```

pub mod eval;
pub mod pareto;
pub mod rng;
pub mod snapshot;
pub mod space;
pub mod strategy;

pub use eval::{DesignPoint, Evaluator};
pub use pareto::{Constraints, ParetoFrontier};
pub use rng::SplitMix64;
pub use snapshot::{CacheUnion, SharedEntries, Snapshot};
pub use space::{DataflowSet, DesignSpace, Genome, SpaceShard};
pub use strategy::{EvolutionarySearch, GridSearch, RandomSearch, SearchReport, SearchStrategy};

use lego_eval::Objective;
use lego_model::TechModel;
use lego_obs::Obs;
use lego_workloads::Model;
use std::sync::Arc;

/// Exploration-wide knobs.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Evaluation budget handed to each strategy.
    pub budget_per_strategy: usize,
    /// Worker threads (0 = automatic).
    pub threads: usize,
    /// Technology model used for every evaluation.
    pub tech: TechModel,
    /// Hard area/power feasibility budgets (default: unconstrained).
    pub constraints: Constraints,
    /// The scalarization strategies minimize (default: plain EDP). Soft
    /// budgets go here as [`Objective::Penalized`]; they compose with the
    /// hard `constraints` filter.
    pub objective: Objective,
    /// Genomes seeding the search — typically
    /// [`ParetoFrontier::genomes`] from a previous run. They are evaluated
    /// into the frontier up front and offered to every strategy via
    /// [`SearchStrategy::warm_start`] (the evolutionary search starts its
    /// population from them). Empty = cold start, bit-identical to the
    /// pre-warm-start behavior.
    pub warm_start: Vec<Genome>,
    /// Evaluation-cache entries that answer layer lookups before anything
    /// is simulated — typically a merged [`Snapshot`]'s `cache` from a
    /// previous (possibly distributed) run. Where
    /// [`ExploreOptions::warm_start`] warm-starts the *frontier*, this
    /// warm-starts the *cache*: layer simulations a peer already ran are
    /// answered as hits instead of recomputed.
    /// Results are unchanged either way (entries are deterministic), only
    /// the work is. Empty = cold cache. The list is shared, so handing a
    /// decoded snapshot's list over copies no entry.
    pub warm_cache: SharedEntries,
    /// Observability handle threaded through the evaluator (and the
    /// session inside it) and the strategies: per-phase evaluation spans,
    /// cache hit/miss counters, an `explore/shard` span per shard run
    /// with `explore/shard/strategy` children and `explore.evaluated`
    /// counts, end-of-run `cache.resident_entries`/`cache.resident_bytes`
    /// gauges, ES `explore/generation` spans.
    /// Default: [`Obs::disabled`] — a near-no-op handle. Instrumentation
    /// never changes search results.
    pub obs: Obs,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            budget_per_strategy: 512,
            threads: 0,
            tech: TechModel::default(),
            constraints: Constraints::none(),
            objective: Objective::EDP,
            warm_start: Vec::new(),
            warm_cache: SharedEntries::default(),
            obs: Obs::disabled(),
        }
    }
}

/// Outcome of an exploration: the frontier, per-strategy reports, and the
/// shared-cache statistics.
#[derive(Debug, Clone)]
pub struct ExplorationResult {
    /// Mutually non-dominated design points over (latency, energy, area).
    pub frontier: ParetoFrontier,
    /// One report per strategy, in execution order.
    pub reports: Vec<SearchReport>,
    /// Layer lookups answered without simulating, memo-served genomes'
    /// layers included ([`Evaluator::cache_hits`]).
    pub cache_hits: u64,
    /// Layer evaluations that ran the simulator.
    pub cache_misses: u64,
}

impl ExplorationResult {
    /// The globally best point by energy-delay product.
    pub fn best_by_edp(&self) -> Option<&DesignPoint> {
        self.frontier.best_by_edp()
    }
}

/// The standard strategy portfolio: exhaustive grid, seeded random
/// sampling, and a (μ+λ) evolution strategy, all sharing one cache.
pub fn default_strategies(seed: u64) -> Vec<Box<dyn SearchStrategy>> {
    vec![
        Box::new(GridSearch),
        Box::new(RandomSearch { seed }),
        Box::new(EvolutionarySearch {
            seed: seed ^ 0x5eed,
            ..Default::default()
        }),
    ]
}

/// Runs every strategy over `space` against `model`, accumulating one
/// shared [`ParetoFrontier`] through one shared [`Evaluator`], which
/// prices each genome once.
pub fn explore(
    model: &Model,
    space: &DesignSpace,
    strategies: &mut [Box<dyn SearchStrategy>],
    opts: &ExploreOptions,
) -> ExplorationResult {
    let run = explore_shard(model, &space.full(), strategies, opts);
    ExplorationResult {
        frontier: run.frontier,
        reports: run.reports,
        cache_hits: run.cache_hits,
        cache_misses: run.cache_misses,
    }
}

/// One shard's exploration outcome: everything [`ExplorationResult`]
/// carries, plus the shard coordinates and the evaluation-cache entries a
/// worker checkpoints ([`ShardRunResult::snapshot`]).
#[derive(Debug, Clone)]
pub struct ShardRunResult {
    /// This shard's index in `0..shard_count`.
    pub shard_index: u32,
    /// Total shards in the partition.
    pub shard_count: u32,
    /// The shard's feasible Pareto frontier.
    pub frontier: ParetoFrontier,
    /// One report per strategy, in execution order.
    pub reports: Vec<SearchReport>,
    /// Layer lookups answered without simulating, memo-served genomes'
    /// layers included ([`Evaluator::cache_hits`]).
    pub cache_hits: u64,
    /// Layer evaluations that ran the simulator.
    pub cache_misses: u64,
    /// The shard's memoized evaluations ([`Evaluator::entries`]) in
    /// canonical (sorted-key) order: the one copy its
    /// [`snapshot`](Self::snapshot) and the
    /// [`ShardedExplorationResult::cache`] union share.
    pub cache: SharedEntries,
}

impl ShardRunResult {
    /// Candidate evaluations the shard's strategies spent (the per-strategy
    /// [`SearchReport::evaluated`] counts summed; cache hits included).
    pub fn evaluated(&self) -> u64 {
        self.reports.iter().map(|r| r.evaluated as u64).sum()
    }

    /// Packages the shard's results as a serializable [`Snapshot`]. The
    /// snapshot shares this shard's cache list instead of cloning it;
    /// [`Snapshot::absorb`] copies the list before its first change, so
    /// merging into the snapshot never changes this shard's entries.
    pub fn snapshot(&self, model: &str, seed: u64) -> Snapshot {
        Snapshot {
            shard_index: self.shard_index,
            shard_count: self.shard_count,
            seed,
            model: model.to_string(),
            evaluated: self.evaluated(),
            frontier: self.frontier.clone(),
            cache: Arc::clone(&self.cache),
        }
    }
}

/// Runs every strategy over one [`SpaceShard`] — the unit of work a
/// distributed sweep hands to each process. The full shard
/// ([`DesignSpace::full`]) reproduces [`explore`] exactly; any other shard
/// enumerates its strided slice, splits the stochastic strategies' RNG
/// streams deterministically and snaps their genomes into the slice.
pub fn explore_shard(
    model: &Model,
    shard: &SpaceShard<'_>,
    strategies: &mut [Box<dyn SearchStrategy>],
    opts: &ExploreOptions,
) -> ShardRunResult {
    // The warm cache answers lookups before anything is computed, so even
    // the warm-start genome batch below hits.
    let mut evaluator = Evaluator::new(model, opts.tech)
        .with_constraints(opts.constraints)
        .with_objective(opts.objective)
        .with_obs(opts.obs.clone())
        .with_warm_cache(Arc::clone(&opts.warm_cache));
    if opts.threads > 0 {
        evaluator = evaluator.with_threads(opts.threads);
    }
    let mut frontier = ParetoFrontier::new();
    // Warm start: fold the seed genomes (usually a previous frontier) into
    // this run's frontier immediately, and hand them to every strategy.
    if !opts.warm_start.is_empty() {
        for p in evaluator.eval_batch(&opts.warm_start) {
            if p.feasible {
                frontier.insert(p);
            }
        }
        for s in strategies.iter_mut() {
            s.warm_start(&opts.warm_start);
        }
    }
    let reports: Vec<SearchReport> = {
        let shard_span = opts.obs.span("explore/shard");
        strategies
            .iter_mut()
            .map(|s| {
                let _span = shard_span.child("strategy");
                let report = s.run(shard, &evaluator, &mut frontier, opts.budget_per_strategy);
                opts.obs.count("explore.evaluated", report.evaluated as u64);
                report
            })
            .collect()
    };
    // End-of-run cache gauges: entry count and resident bytes are pure
    // functions of the evaluations this shard performed, so they are safe
    // for deterministic summaries.
    let cache = evaluator.entries();
    opts.obs
        .record("cache.resident_entries", cache.len() as f64);
    let resident_bytes = lego_eval::estimated_resident_bytes_for(cache.len());
    opts.obs
        .record("cache.resident_bytes", resident_bytes as f64);
    ShardRunResult {
        shard_index: shard.index(),
        shard_count: shard.count(),
        frontier,
        reports,
        cache_hits: evaluator.cache_hits(),
        cache_misses: evaluator.cache_misses(),
        cache: Arc::new(cache),
    }
}

/// Outcome of an in-process sharded exploration: the merged frontier and
/// cache, plus each shard's individual result.
#[derive(Debug)]
pub struct ShardedExplorationResult {
    /// The merged (union) Pareto frontier over all shards. For a grid
    /// partition whose budget covers every shard, this is dominance-equal
    /// to an *exhaustive* single-process frontier — note the per-shard
    /// budget caveat on [`explore_sharded`].
    pub frontier: ParetoFrontier,
    /// The merged evaluation cache: the set union of every shard's
    /// entries under their stable fingerprint keys, as a read-only view
    /// over the shards' own lists ([`ShardRunResult::cache`]). No entry is
    /// copied. Its `len` and `estimated_resident_bytes` are those of an
    /// [`EvalCache`](lego_eval::EvalCache) that absorbed every shard in
    /// shard order, and [`entries`](CacheUnion::entries) merges that
    /// cache's list on demand.
    pub cache: CacheUnion,
    /// Per-shard results, in shard order (shard `i` at index `i`).
    pub shards: Vec<ShardRunResult>,
    /// Cache hits summed over all shards.
    pub cache_hits: u64,
    /// Cache misses summed over all shards: the distinct entries of the
    /// merged `cache` plus the [`duplicate_evals`](Self::duplicate_evals).
    pub cache_misses: u64,
}

impl ShardedExplorationResult {
    /// The globally best point by energy-delay product.
    pub fn best_by_edp(&self) -> Option<&DesignPoint> {
        self.frontier.best_by_edp()
    }

    /// Simulations shards re-ran that a peer had already computed. Every
    /// strategy keeps to its own shard's slice ([`SpaceShard::snap`]), so
    /// this is 0 unless [`ExploreOptions::warm_start`] genomes, which every
    /// shard prices, are set.
    pub fn duplicate_evals(&self) -> u64 {
        self.cache_misses.saturating_sub(self.cache.len() as u64)
    }
}

/// Explores `space` split into `shards` disjoint slices — each with its
/// own [`default_strategies`] portfolio seeded from `seed` and split per
/// shard — then merges the per-shard frontiers and caches, exactly as a
/// coordinator merging worker snapshot files would. Every strategy prices
/// only its own shard's genomes, so no shard pays for a peer's work. Every
/// shard's evaluation batch still runs on the session's threads, so this
/// is the in-process rehearsal of the distributed workflow (and the
/// reference the `dse_shard` binary's `verify` mode checks against).
///
/// `opts.budget_per_strategy` applies **per shard**: `n` shards spend up
/// to `n ×` the budget of one [`explore`] call. In particular, comparing
/// the merged grid frontier against a single-process run is only
/// apples-to-apples when the budget covers the grid on both sides (each
/// shard holds ~`size/n` genomes vs the full `size` in one process —
/// with a budget in between, the shards are exhaustive while the single
/// process truncates).
pub fn explore_sharded(
    model: &Model,
    space: &DesignSpace,
    shards: u32,
    seed: u64,
    opts: &ExploreOptions,
) -> ShardedExplorationResult {
    let shards = shards.max(1);
    let mut outcomes = Vec::with_capacity(shards as usize);
    for i in 0..shards {
        let shard = space.shard(i, shards);
        outcomes.push(explore_shard(
            model,
            &shard,
            &mut default_strategies(seed),
            opts,
        ));
    }
    let mut frontier = ParetoFrontier::new();
    let (mut hits, mut misses) = (0, 0);
    for run in &outcomes {
        frontier.merge(&run.frontier);
        hits += run.cache_hits;
        misses += run.cache_misses;
    }
    let cache = CacheUnion::new(outcomes.iter().map(|run| Arc::clone(&run.cache)).collect());
    ShardedExplorationResult {
        frontier,
        cache,
        shards: outcomes,
        cache_hits: hits,
        cache_misses: misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_model::SparseAccel;
    use lego_workloads::zoo;

    #[test]
    fn strategies_share_the_eval_cache() {
        // Grid covers the whole tiny space; random sampling afterwards can
        // only revisit configurations, so every one of its layer lookups —
        // and therefore some lookups overall — must hit the shared cache.
        let model = zoo::lenet();
        let mut strategies: Vec<Box<dyn SearchStrategy>> =
            vec![Box::new(GridSearch), Box::new(RandomSearch { seed: 3 })];
        let result = explore(
            &model,
            &DesignSpace::tiny(),
            &mut strategies,
            &ExploreOptions {
                budget_per_strategy: 32,
                ..Default::default()
            },
        );
        assert!(
            result.cache_hits > 0,
            "overlapping strategies must share work"
        );
        assert!(result.cache_misses > 0);
        assert_eq!(result.reports.len(), 2);
        assert!(result.frontier.is_mutually_non_dominated());
    }

    #[test]
    fn exploration_is_deterministic_end_to_end() {
        let model = zoo::lenet();
        let run = || {
            let result = explore(
                &model,
                &DesignSpace::tiny(),
                &mut default_strategies(11),
                &ExploreOptions {
                    budget_per_strategy: 24,
                    ..Default::default()
                },
            );
            let best = result.best_by_edp().unwrap();
            (best.genome, best.objectives.edp())
        };
        let (g1, e1) = run();
        let (g2, e2) = run();
        assert_eq!(g1, g2);
        assert!((e1 - e2).abs() < 1e-9);
    }

    #[test]
    fn constraints_are_hard_feasibility_filters() {
        let model = zoo::lenet();
        let space = DesignSpace::tiny();
        // A tight area budget: big multi-cluster designs must be excluded
        // from the frontier even when they dominate on latency.
        let constrained = explore(
            &model,
            &space,
            &mut [Box::new(GridSearch) as Box<dyn SearchStrategy>],
            &ExploreOptions {
                constraints: Constraints::none().with_max_area_mm2(2.5),
                ..Default::default()
            },
        );
        assert!(
            !constrained.frontier.is_empty(),
            "budget admits small designs"
        );
        for p in constrained.frontier.points() {
            assert!(p.feasible);
            assert!(p.objectives.area_um2 <= 2.5e6, "{:?}", p.genome);
        }
        // The unconstrained frontier keeps designs the budget rejects.
        let free = explore(
            &model,
            &space,
            &mut [Box::new(GridSearch) as Box<dyn SearchStrategy>],
            &ExploreOptions::default(),
        );
        assert!(free
            .frontier
            .points()
            .iter()
            .any(|p| p.objectives.area_um2 > 2.5e6));
        // Constrained best can never beat the unconstrained best.
        let cb = constrained.best_by_edp().unwrap().objectives.edp();
        let fb = free.best_by_edp().unwrap().objectives.edp();
        assert!(fb <= cb + 1e-9);
    }

    #[test]
    fn cluster_axis_is_searched() {
        // The tiny space carries (2,2) cluster genomes; the grid must
        // evaluate them and the frontier must record feasibility for all.
        let model = zoo::resnet50();
        let result = explore(
            &model,
            &DesignSpace::tiny(),
            &mut [Box::new(GridSearch) as Box<dyn SearchStrategy>],
            &ExploreOptions::default(),
        );
        assert_eq!(result.reports[0].evaluated, DesignSpace::tiny().size());
        // Multi-cluster designs genuinely traded off: at least one reached
        // the unconstrained frontier on a compute-heavy model (they buy
        // latency with area/NoC overhead).
        assert!(result
            .frontier
            .points()
            .iter()
            .any(|p| p.genome.clusters != (1, 1)));
    }

    #[test]
    fn sparse_axis_pays_off_only_on_sparse_models() {
        // Tiny space × the sparse axis, on a pruned model: grid search must
        // put a skipping design on the frontier (it dominates on EDP), and
        // the combined-space best must beat the dense-only best.
        let sparse_space = DesignSpace {
            sparse_accels: SparseAccel::ALL.to_vec(),
            ..DesignSpace::tiny()
        };
        let pruned = zoo::prune_weights(
            zoo::lenet(),
            lego_model::DensityModel::two_to_four(),
            "@2:4",
        );
        let run = |model: &lego_workloads::Model, space: &DesignSpace| {
            explore(
                model,
                space,
                &mut [Box::new(GridSearch) as Box<dyn SearchStrategy>],
                &ExploreOptions::default(),
            )
        };
        let sparse_result = run(&pruned, &sparse_space);
        assert!(sparse_result
            .frontier
            .points()
            .iter()
            .any(|p| p.genome.sparse == SparseAccel::Skipping));
        let dense_space_result = run(&pruned, &DesignSpace::tiny());
        assert!(
            sparse_result.best_by_edp().unwrap().objectives.edp()
                < dense_space_result.best_by_edp().unwrap().objectives.edp(),
            "skipping hardware must win on a 2:4 model"
        );
        // On the *dense* model the sparse frontends are pure area overhead:
        // the best design must not carry one.
        let dense_model_result = run(&zoo::lenet(), &sparse_space);
        assert_eq!(
            dense_model_result.best_by_edp().unwrap().genome.sparse,
            SparseAccel::None
        );
    }

    #[test]
    fn warm_start_seeds_the_search_and_never_hurts() {
        let model = zoo::lenet();
        let space = DesignSpace::tiny();
        // A first exploration produces a frontier…
        let first = explore(
            &model,
            &space,
            &mut default_strategies(7),
            &ExploreOptions {
                budget_per_strategy: 24,
                ..Default::default()
            },
        );
        let seed_genomes = first.frontier.genomes();
        assert!(!seed_genomes.is_empty());
        // …which warm-starts an ES-only follow-up run with a tiny budget.
        let es_only = || {
            vec![Box::new(EvolutionarySearch {
                seed: 99,
                mu: 4,
                lambda: 4,
                ..Default::default()
            }) as Box<dyn SearchStrategy>]
        };
        let warm_opts = ExploreOptions {
            budget_per_strategy: 8,
            warm_start: seed_genomes.clone(),
            ..Default::default()
        };
        let warm = explore(&model, &space, &mut es_only(), &warm_opts);
        let cold = explore(
            &model,
            &space,
            &mut es_only(),
            &ExploreOptions {
                budget_per_strategy: 8,
                ..Default::default()
            },
        );
        // The warm run starts from the previous frontier, so its best can
        // never be worse than what that frontier already achieved…
        let prev_best = first.best_by_edp().unwrap().objectives.edp();
        let warm_best = warm.best_by_edp().unwrap().objectives.edp();
        assert!(warm_best <= prev_best + 1e-9);
        // …and in particular not worse than the cold tiny-budget run.
        assert!(warm_best <= cold.best_by_edp().unwrap().objectives.edp() + 1e-9);
        // Warm starting is deterministic, too.
        let warm2 = explore(&model, &space, &mut es_only(), &warm_opts);
        assert_eq!(
            warm.best_by_edp().unwrap().genome,
            warm2.best_by_edp().unwrap().genome
        );
    }

    #[test]
    fn warm_cache_answers_a_repeat_run_without_simulating() {
        let model = zoo::lenet();
        let space = DesignSpace::tiny();
        let opts = ExploreOptions {
            budget_per_strategy: 16,
            ..Default::default()
        };
        let cold = explore(&model, &space, &mut default_strategies(7), &opts);
        assert!(cold.cache_misses > 0);
        // Checkpoint the cold run exactly as a shard worker would…
        let snap = explore_shard(&model, &space.full(), &mut default_strategies(7), &opts)
            .snapshot(&model.name, 7);
        // …and absorb the snapshot's cache into a fresh run's evaluator.
        let warm = explore(
            &model,
            &space,
            &mut default_strategies(7),
            &ExploreOptions {
                warm_cache: snap.cache.clone(),
                ..opts
            },
        );
        // Same seed, same budget: every layer evaluation is already in the
        // absorbed cache, so the warm run never touches the simulator…
        assert_eq!(warm.cache_misses, 0, "warm cache must answer everything");
        assert!(warm.cache_hits > 0);
        // …and the results are bit-identical to the cold run.
        assert_eq!(warm.frontier.genome_keys(), cold.frontier.genome_keys());
        let (w, c) = (warm.best_by_edp().unwrap(), cold.best_by_edp().unwrap());
        assert_eq!(w.genome, c.genome);
        assert_eq!(w.perf, c.perf);
    }

    #[test]
    fn penalized_objective_steers_without_disqualifying() {
        let model = zoo::resnet50();
        let space = DesignSpace::tiny();
        let run = |objective: Objective| {
            explore(
                &model,
                &space,
                &mut [Box::new(GridSearch) as Box<dyn SearchStrategy>],
                &ExploreOptions {
                    objective,
                    ..Default::default()
                },
            )
        };
        let plain = run(Objective::EDP);
        // Soft 2.5 mm² budget: the EDP-best big design gets penalized, so
        // the reported best shrinks — but unlike the hard constraint, the
        // big design is still on the frontier.
        let soft = run(Objective::penalized_edp(Some(2.5), None, 8.0));
        let plain_best = plain.reports[0].best.as_ref().unwrap();
        let soft_best = soft.reports[0].best.as_ref().unwrap();
        assert!(plain_best.objectives.area_um2 > 2.5e6, "EDP-best is big");
        assert!(
            soft_best.objectives.area_um2 < plain_best.objectives.area_um2,
            "soft budget must steer toward smaller designs"
        );
        assert!(soft
            .frontier
            .points()
            .iter()
            .any(|p| p.objectives.area_um2 > 2.5e6));
    }

    #[test]
    fn four_shard_union_is_dominance_equal_on_mobilenet_v2() {
        // The acceptance invariant of the sharded workflow: a 4-shard grid
        // search, merged, describes exactly the trade-off surface the
        // single-process grid finds on MobileNetV2.
        let model = zoo::mobilenet_v2();
        let space = DesignSpace::tiny();
        let grid_only = || vec![Box::new(GridSearch) as Box<dyn SearchStrategy>];
        let single = explore(&model, &space, &mut grid_only(), &ExploreOptions::default());
        let mut merged = ParetoFrontier::new();
        let mut covered = 0;
        for i in 0..4 {
            let run = explore_shard(
                &model,
                &space.shard(i, 4),
                &mut grid_only(),
                &ExploreOptions::default(),
            );
            covered += run.reports[0].evaluated;
            merged.merge(&run.frontier);
        }
        assert_eq!(covered, space.size(), "4 shards cover the space exactly");
        assert!(merged.dominance_equal(&single.frontier));
        assert_eq!(merged.genome_keys(), single.frontier.genome_keys());
        assert_eq!(
            merged.best_by_edp().unwrap().genome,
            single.best_by_edp().unwrap().genome
        );
    }

    #[test]
    fn explore_finds_a_design_for_lenet() {
        let opts = ExploreOptions {
            budget_per_strategy: 16,
            ..Default::default()
        };
        let result = explore(
            &zoo::lenet(),
            &DesignSpace::tiny(),
            &mut default_strategies(42),
            &opts,
        );
        assert!(result.best_by_edp().is_some());
        assert!(result.cache_hits > 0);
    }

    #[test]
    fn explore_sharded_agrees_with_single_process_grid() {
        let model = zoo::lenet();
        let space = DesignSpace::tiny();
        // Budget covers the whole space, so the grid strategy inside each
        // portfolio is exhaustive over its shard and the union frontier
        // must be dominance-equal to the single-process one.
        let opts = ExploreOptions::default();
        let single = explore(&model, &space, &mut default_strategies(42), &opts);
        let sharded = explore_sharded(&model, &space, 4, 42, &opts);
        assert!(sharded.frontier.dominance_equal(&single.frontier));
        assert_eq!(
            sharded.best_by_edp().unwrap().genome,
            single.best_by_edp().unwrap().genome
        );
        assert_eq!(sharded.shards.len(), 4);
    }

    #[test]
    fn explore_sharded_merges_frontiers_and_caches() {
        let model = zoo::lenet();
        let space = DesignSpace::tiny();
        let opts = ExploreOptions {
            budget_per_strategy: 12,
            ..Default::default()
        };
        let sharded = explore_sharded(&model, &space, 3, 7, &opts);
        assert_eq!(sharded.shards.len(), 3);
        assert!(sharded.frontier.is_mutually_non_dominated());
        // The merged cache is the union of the shard caches, so it can
        // only shrink relative to the summed misses (duplicate work).
        assert!(sharded.cache.len() as u64 <= sharded.cache_misses);
        for run in &sharded.shards {
            assert_eq!(run.shard_count, 3);
            // Every shard frontier point survives into the union or is
            // dominated by a point that did.
            for p in run.frontier.points() {
                assert!(
                    sharded
                        .frontier
                        .points()
                        .iter()
                        .any(|q| q.objectives == p.objectives
                            || q.objectives.dominates(&p.objectives))
                );
            }
        }
        // Deterministic end to end: a second run reproduces the frontier.
        let again = explore_sharded(&model, &space, 3, 7, &opts);
        assert_eq!(again.frontier.genome_keys(), sharded.frontier.genome_keys());
        assert_eq!(again.cache.entries(), sharded.cache.entries());
    }

    fn lenet_sharded(shards: u32) -> ShardedExplorationResult {
        let opts = ExploreOptions {
            budget_per_strategy: 12,
            ..Default::default()
        };
        explore_sharded(&zoo::lenet(), &DesignSpace::tiny(), shards, 7, &opts)
    }

    #[test]
    fn shard_lists_are_shared_not_copied() {
        let sharded = lenet_sharded(3);
        for run in &sharded.shards {
            assert!(!run.cache.is_empty());
            assert!(Arc::ptr_eq(&run.snapshot("LeNet", 7).cache, &run.cache));
        }
        // The union view reads the shards' own lists, in shard order.
        let lists = sharded.cache.lists();
        assert_eq!(lists.len(), sharded.shards.len());
        for (list, run) in lists.iter().zip(&sharded.shards) {
            assert!(Arc::ptr_eq(list, &run.cache));
        }
    }

    #[test]
    fn absorbing_into_a_snapshot_never_changes_its_shard() {
        let sharded = lenet_sharded(2);
        let (first, second) = (&sharded.shards[0], &sharded.shards[1]);
        let before = first.cache.to_vec();
        let union_before = sharded.cache.entries();
        // The snapshot's list is still the shard's when the merge adds to
        // it, so the merge must copy it first.
        let mut merged = first.snapshot("LeNet", 7);
        let (_, added) = merged.absorb(&second.snapshot("LeNet", 7));
        assert!(added > 0);
        assert_eq!(
            *first.cache, before,
            "the merge wrote into the shard's list"
        );
        assert_eq!(sharded.cache.entries(), union_before);
        assert_eq!(*merged.cache, union_before);
        // A list nobody else holds is merged where it is.
        let mut owned = first.snapshot("LeNet", 7);
        owned.cache = Arc::new(before);
        let resident = Arc::as_ptr(&owned.cache);
        owned.absorb(&second.snapshot("LeNet", 7));
        assert_eq!(Arc::as_ptr(&owned.cache), resident);
        assert_eq!(*owned.cache, union_before);
        // A merge that adds nothing copies nothing, shared or not.
        let mut again = first.snapshot("LeNet", 7);
        assert_eq!(again.absorb(&first.snapshot("LeNet", 7)).1, 0);
        assert!(Arc::ptr_eq(&again.cache, &first.cache));
    }

    #[test]
    fn sharded_portfolios_never_overlap() {
        use std::collections::HashSet;
        use std::hash::Hasher;
        let model = zoo::lenet();
        let grid_only = || vec![Box::new(GridSearch) as Box<dyn SearchStrategy>];
        for (space, shards) in [(DesignSpace::tiny(), 3), (DesignSpace::paper(), 2)] {
            let opts = ExploreOptions {
                budget_per_strategy: space.size(),
                ..Default::default()
            };
            let sharded = explore_sharded(&model, &space, shards, 7, &opts);
            assert_eq!(sharded.duplicate_evals(), 0);
            let mut keys: Vec<(u64, u64)> = Vec::new();
            for run in &sharded.shards {
                keys.extend(run.cache.iter().map(|(k, _)| *k));
                let owned: HashSet<Genome> = space
                    .shard(run.shard_index, shards)
                    .enumerate()
                    .into_iter()
                    .collect();
                assert!(run
                    .frontier
                    .points()
                    .iter()
                    .all(|p| owned.contains(&p.genome)));
            }
            let total = keys.len();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), total, "shard caches are pairwise disjoint");
            let grid = explore_shard(&model, &space.full(), &mut grid_only(), &opts);
            assert_eq!(sharded.cache.entries(), *grid.cache);
            if shards == 3 {
                // The merged snapshot is byte-identical to the one shards
                // that sampled the whole space produced.
                let mut merged = sharded.shards[0].snapshot(&model.name, 7);
                for run in &sharded.shards[1..] {
                    merged.absorb(&run.snapshot(&model.name, 7));
                }
                let mut h = lego_eval::FnvHasher::new();
                h.write(&merged.encode());
                assert_eq!(h.finish(), 7242034134556262160);
            }
        }
        // A shard that owns no genome evaluates nothing, under any strategy.
        let space = DesignSpace::tiny();
        let empty = explore_shard(
            &model,
            &space.shard(40, 41),
            &mut default_strategies(7),
            &ExploreOptions::default(),
        );
        assert!(empty.reports.iter().all(|r| r.evaluated == 0));
        assert!(empty.cache.is_empty());
    }

    #[test]
    fn infinite_penalty_weight_searches_like_its_base_objective() {
        let model = zoo::lenet();
        let run = |objective| {
            explore(
                &model,
                &DesignSpace::tiny(),
                &mut default_strategies(7),
                &ExploreOptions {
                    budget_per_strategy: 24,
                    objective,
                    ..Default::default()
                },
            )
        };
        let edp = run(Objective::EDP);
        let wall = run(Objective::penalized_edp(Some(1e9), None, f64::INFINITY));
        assert_eq!(wall.frontier.genome_keys(), edp.frontier.genome_keys());
        let bests = |r: &ExplorationResult| -> Vec<Option<Genome>> {
            r.reports
                .iter()
                .map(|s| s.best.as_ref().map(|p| p.genome))
                .collect()
        };
        assert_eq!(bests(&wall), bests(&edp));
    }

    #[test]
    fn frontier_holds_genuine_tradeoffs() {
        // With area in the objective vector, the small and large arrays
        // cannot dominate each other on a compute-heavy model: the frontier
        // must keep more than one point.
        let model = zoo::resnet50();
        let mut strategies: Vec<Box<dyn SearchStrategy>> = vec![Box::new(GridSearch)];
        let result = explore(
            &model,
            &DesignSpace::tiny(),
            &mut strategies,
            &ExploreOptions::default(),
        );
        assert!(
            result.frontier.len() > 1,
            "expected latency/area trade-offs"
        );
    }
}
