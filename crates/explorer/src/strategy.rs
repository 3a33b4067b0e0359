//! Pluggable search strategies over the design space.

use crate::eval::{DesignPoint, Evaluator};
use crate::pareto::ParetoFrontier;
use crate::rng::SplitMix64;
#[cfg(test)]
use crate::space::DesignSpace;
use crate::space::{Genome, SpaceShard};
use std::cmp::Ordering;

/// What one strategy did with its evaluation budget.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Strategy name.
    pub strategy: String,
    /// Candidates evaluated (cache hits included).
    pub evaluated: usize,
    /// The strategy's own best candidate under the evaluator's
    /// [`Objective`](lego_eval::Objective) (plain EDP by default).
    pub best: Option<DesignPoint>,
}

/// A search procedure spending an evaluation budget on (a shard of) the
/// space.
///
/// Strategies receive the shared [`Evaluator`] (and through it the memo of
/// priced genomes and the active
/// [`Objective`](lego_eval::Objective)), push every candidate they score into
/// the common [`ParetoFrontier`], and report their scalar best. All
/// randomness must come from strategy-owned seeds — split per shard via
/// [`SpaceShard::split_seed`], which is the identity on the full shard —
/// so runs replay exactly, sharded or not.
pub trait SearchStrategy {
    /// Display name (used in reports and tables).
    fn name(&self) -> String;

    /// Offers genomes (typically a previous run's Pareto frontier) to seed
    /// the search. The default implementation ignores them; population
    /// strategies may start from them instead of uniform samples.
    fn warm_start(&mut self, _genomes: &[Genome]) {}

    /// Spends up to `budget` evaluations on `shard` (use
    /// [`DesignSpace::full`](crate::DesignSpace::full) for a
    /// single-process search over the whole space).
    fn run(
        &mut self,
        shard: &SpaceShard<'_>,
        evaluator: &Evaluator<'_>,
        frontier: &mut ParetoFrontier,
        budget: usize,
    ) -> SearchReport;
}

/// Evaluates a batch, folds it into the frontier, and tracks the best
/// score under the evaluator's objective.
///
/// Infeasible candidates (violating the evaluator's hard area/power
/// budgets) are returned for the caller's bookkeeping but never join the
/// frontier or the reported best.
fn score_batch(
    evaluator: &Evaluator<'_>,
    frontier: &mut ParetoFrontier,
    genomes: &[Genome],
    best: &mut Option<DesignPoint>,
) -> Vec<DesignPoint> {
    evaluator.obs().count("explore.evals", genomes.len() as u64);
    let points = evaluator.eval_batch(genomes);
    for p in &points {
        if !p.feasible {
            continue;
        }
        frontier.insert(p.clone());
        let better = best
            .as_ref()
            .is_none_or(|b| evaluator.key(p) < evaluator.key(b));
        if better {
            *best = Some(p.clone());
        }
    }
    points
}

/// Exhaustive sweep of the shard (truncated at the budget), in the
/// space's canonical enumeration order.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridSearch;

impl SearchStrategy for GridSearch {
    fn name(&self) -> String {
        "grid".into()
    }

    fn run(
        &mut self,
        shard: &SpaceShard<'_>,
        evaluator: &Evaluator<'_>,
        frontier: &mut ParetoFrontier,
        budget: usize,
    ) -> SearchReport {
        let mut genomes = shard.enumerate();
        genomes.truncate(budget);
        let mut best = None;
        score_batch(evaluator, frontier, &genomes, &mut best);
        SearchReport {
            strategy: self.name(),
            evaluated: genomes.len(),
            best,
        }
    }
}

/// Seeded uniform random sampling, snapped into the shard.
#[derive(Debug, Clone, Copy)]
pub struct RandomSearch {
    /// RNG seed (same seed ⇒ same samples).
    pub seed: u64,
}

impl SearchStrategy for RandomSearch {
    fn name(&self) -> String {
        format!("random(seed={})", self.seed)
    }

    fn run(
        &mut self,
        shard: &SpaceShard<'_>,
        evaluator: &Evaluator<'_>,
        frontier: &mut ParetoFrontier,
        budget: usize,
    ) -> SearchReport {
        let mut rng = SplitMix64::new(shard.split_seed(self.seed));
        let budget = if shard.size() == 0 { 0 } else { budget };
        let genomes: Vec<Genome> = (0..budget)
            .map(|_| shard.snap(&shard.space().sample(&mut rng)))
            .collect();
        let mut best = None;
        score_batch(evaluator, frontier, &genomes, &mut best);
        SearchReport {
            strategy: self.name(),
            evaluated: genomes.len(),
            best,
        }
    }
}

/// (μ+λ) evolutionary strategy over config genomes.
///
/// Keeps the μ best-scoring parents, breeds λ children per generation by
/// uniform crossover of two tournament-selected parents followed by a
/// per-axis mutation, and selects the next parents from parents ∪ children.
/// SparseMap drives accelerator configuration with the same family of
/// evolution strategies; the evaluator's scalarization (plain EDP by
/// default, optionally penalty-constrained) is the fitness here.
///
/// A [`SearchStrategy::warm_start`] population — e.g. a previous run's
/// Pareto frontier — replaces the uniform initial samples, so a follow-up
/// search (new model, tightened budget) starts from proven designs
/// instead of from scratch.
#[derive(Debug, Clone)]
pub struct EvolutionarySearch {
    /// RNG seed.
    pub seed: u64,
    /// Parent population size μ.
    pub mu: usize,
    /// Children per generation λ.
    pub lambda: usize,
    /// Warm-start genomes evaluated as the initial population (topped up
    /// with uniform samples below μ). Usually set through
    /// [`SearchStrategy::warm_start`].
    pub warm: Vec<Genome>,
}

/// Probability that an [`EvolutionarySearch`] child is additionally
/// mutated.
const MUTATION_RATE: f64 = 0.6;

impl Default for EvolutionarySearch {
    fn default() -> Self {
        EvolutionarySearch {
            seed: 1,
            mu: 8,
            lambda: 16,
            warm: Vec::new(),
        }
    }
}

impl EvolutionarySearch {
    fn cmp_fitness(evaluator: &Evaluator<'_>, a: &DesignPoint, b: &DesignPoint) -> Ordering {
        // Deterministic total order: the objective's ranking key (score
        // plus tie-breakers under a lexicographic objective) under
        // `total_cmp`, then the genome fingerprint. Infeasible designs
        // sort behind every feasible one (but stay in the population, so
        // search can cross the infeasible region).
        let key = |p: &DesignPoint| match p.feasible {
            true => evaluator.key(p),
            false => [f64::INFINITY; 3],
        };
        let (ka, kb) = (key(a), key(b));
        ka.iter()
            .zip(&kb)
            .fold(Ordering::Equal, |o, (x, y)| o.then(x.total_cmp(y)))
            .then_with(|| a.genome.key().cmp(&b.genome.key()))
    }
}

impl SearchStrategy for EvolutionarySearch {
    fn name(&self) -> String {
        let warm = if self.warm.is_empty() { "" } else { ",warm" };
        format!(
            "evolutionary(μ={},λ={},seed={}{warm})",
            self.mu, self.lambda, self.seed
        )
    }

    fn warm_start(&mut self, genomes: &[Genome]) {
        self.warm = genomes.to_vec();
    }

    fn run(
        &mut self,
        shard: &SpaceShard<'_>,
        evaluator: &Evaluator<'_>,
        frontier: &mut ParetoFrontier,
        budget: usize,
    ) -> SearchReport {
        let budget = if shard.size() == 0 { 0 } else { budget };
        let mu = self.mu.max(2);
        let lambda = self.lambda.max(1);
        // Sampling, crossover and mutation draw from the full space; every
        // genome they generate is then snapped into the shard's slice.
        let space = shard.space();
        let mut rng = SplitMix64::new(shard.split_seed(self.seed));
        let mut best = None;

        // Initial population: warm-start genomes first (a previous
        // frontier, re-evaluated here — usually cache hits), topped up to
        // μ with uniform samples; a warm set larger than μ is truncated so
        // the budget goes to evolution, not to re-scoring known points.
        // An empty warm set draws exactly the samples it always did, so
        // cold runs replay bit-for-bit.
        let init_size = mu.min(budget);
        let mut init: Vec<Genome> = self.warm.iter().copied().take(init_size).collect();
        while init.len() < init_size {
            init.push(shard.snap(&space.sample(&mut rng)));
        }
        let mut evaluated = init.len();
        let mut population = {
            let _span = evaluator.obs().span("explore/generation");
            score_batch(evaluator, frontier, &init, &mut best)
        };

        while evaluated < budget {
            // One span per generation: with a wall-clock recorder, the
            // span's total time over the `explore.evals` counter is the
            // search's evaluations-per-second figure.
            let _gen_span = evaluator.obs().span("explore/generation");
            evaluator.obs().count("explore.generations", 1);
            let brood = lambda.min(budget - evaluated);
            evaluator
                .obs()
                .record("explore.generation_size", brood as f64);
            let children: Vec<Genome> = (0..brood)
                .map(|_| {
                    // Binary tournament per parent slot.
                    let pick = |rng: &mut SplitMix64, pop: &[DesignPoint]| -> Genome {
                        let a = &pop[rng.below(pop.len())];
                        let b = &pop[rng.below(pop.len())];
                        if Self::cmp_fitness(evaluator, a, b).is_le() {
                            a.genome
                        } else {
                            b.genome
                        }
                    };
                    let pa = pick(&mut rng, &population);
                    let pb = pick(&mut rng, &population);
                    let mut child = space.crossover(&pa, &pb, &mut rng);
                    if rng.chance(MUTATION_RATE) {
                        child = space.mutate(&child, &mut rng);
                    }
                    shard.snap(&child)
                })
                .collect();
            evaluated += children.len();
            let scored = score_batch(evaluator, frontier, &children, &mut best);
            // (μ+λ) selection: keep the best μ of parents ∪ children.
            population.extend(scored);
            population.sort_by(|a, b| Self::cmp_fitness(evaluator, a, b));
            population.truncate(mu);
        }

        SearchReport {
            strategy: self.name(),
            evaluated,
            best,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_eval::Objective;
    use lego_model::TechModel;
    use lego_workloads::zoo;

    fn run(strategy: &mut dyn SearchStrategy, budget: usize) -> (SearchReport, ParetoFrontier) {
        let model = zoo::lenet();
        let ev = Evaluator::new(&model, TechModel::default());
        let mut frontier = ParetoFrontier::new();
        let space = DesignSpace::tiny();
        let report = strategy.run(&space.full(), &ev, &mut frontier, budget);
        (report, frontier)
    }

    #[test]
    fn grid_covers_the_whole_tiny_space() {
        let (report, frontier) = run(&mut GridSearch, 1 << 20);
        assert_eq!(report.evaluated, DesignSpace::tiny().size());
        assert!(report.best.is_some());
        assert!(frontier.is_mutually_non_dominated());
        assert!(!frontier.is_empty());
    }

    #[test]
    fn random_is_reproducible_per_seed() {
        let (a, _) = run(&mut RandomSearch { seed: 9 }, 20);
        let (b, _) = run(&mut RandomSearch { seed: 9 }, 20);
        let (c, _) = run(&mut RandomSearch { seed: 10 }, 20);
        let edp = |r: &SearchReport| r.best.as_ref().unwrap().objectives.edp();
        assert_eq!(
            a.best.as_ref().unwrap().genome,
            b.best.as_ref().unwrap().genome
        );
        assert!((edp(&a) - edp(&b)).abs() < 1e-9);
        // Different seed may find the same best, but must at least replay
        // its own run deterministically.
        let (c2, _) = run(&mut RandomSearch { seed: 10 }, 20);
        assert_eq!(
            c.best.as_ref().unwrap().genome,
            c2.best.as_ref().unwrap().genome
        );
    }

    #[test]
    fn evolutionary_respects_budget_and_replays() {
        let mut es = EvolutionarySearch {
            seed: 4,
            mu: 4,
            lambda: 6,
            ..Default::default()
        };
        let (a, _) = run(&mut es, 30);
        assert_eq!(a.evaluated, 30);
        let mut es2 = EvolutionarySearch {
            seed: 4,
            mu: 4,
            lambda: 6,
            ..Default::default()
        };
        let (b, _) = run(&mut es2, 30);
        assert_eq!(
            a.best.as_ref().unwrap().genome,
            b.best.as_ref().unwrap().genome
        );
    }

    #[test]
    fn sharded_grid_unions_to_the_full_grid() {
        let model = zoo::lenet();
        let space = DesignSpace::tiny();
        let ev = Evaluator::new(&model, TechModel::default());
        let mut full = ParetoFrontier::new();
        let full_report = GridSearch.run(&space.full(), &ev, &mut full, usize::MAX);
        let mut merged = ParetoFrontier::new();
        let mut evaluated = 0;
        for i in 0..3 {
            let shard = space.shard(i, 3);
            evaluated += GridSearch
                .run(&shard, &ev, &mut merged, usize::MAX)
                .evaluated;
        }
        assert_eq!(evaluated, full_report.evaluated);
        assert!(merged.dominance_equal(&full));
    }

    #[test]
    fn sharded_stochastic_strategies_draw_distinct_streams() {
        // Same base seed, different shards: the random strategy must not
        // replay the same sample sequence (that would duplicate work
        // across workers), yet each shard must replay itself exactly.
        let model = zoo::lenet();
        let space = DesignSpace::tiny();
        let ev = Evaluator::new(&model, TechModel::default());
        let sample_trace = |i: u32, n: u32| -> Vec<Genome> {
            let shard = space.shard(i, n);
            let mut rng = SplitMix64::new(shard.split_seed(17));
            (0..8).map(|_| space.sample(&mut rng)).collect()
        };
        assert_ne!(sample_trace(0, 4), sample_trace(1, 4));
        assert_eq!(sample_trace(2, 4), sample_trace(2, 4));
        // And the full shard replays the historical unsharded stream.
        let mut rng = SplitMix64::new(17);
        let unsharded: Vec<Genome> = (0..8).map(|_| space.sample(&mut rng)).collect();
        assert_eq!(sample_trace(0, 1), unsharded);
        // The ES is reproducible per shard, too.
        let es_best = |i: u32| {
            let shard = space.shard(i, 2);
            let mut es = EvolutionarySearch {
                seed: 5,
                mu: 4,
                lambda: 4,
                ..Default::default()
            };
            let mut f = ParetoFrontier::new();
            es.run(&shard, &ev, &mut f, 16).best.unwrap().genome
        };
        assert_eq!(es_best(0), es_best(0));
    }

    #[test]
    fn evolutionary_never_loses_to_its_own_population_start() {
        // ES best can only improve over generations (elitist μ+λ).
        let mut es = EvolutionarySearch::default();
        let (report, frontier) = run(&mut es, 40);
        let best = report.best.unwrap();
        assert!(frontier
            .points()
            .iter()
            .all(|p| best.objectives.edp() <= p.objectives.edp() + 1e-9));
    }

    #[test]
    fn lexicographic_objective_minimizes_latency_first() {
        let model = zoo::lenet();
        let space = DesignSpace::tiny();
        let ev =
            Evaluator::new(&model, TechModel::default()).with_objective(Objective::Lexicographic);
        let mut frontier = ParetoFrontier::new();
        let report = GridSearch.run(&space.full(), &ev, &mut frontier, 1 << 20);
        let best = report.best.expect("grid finds a best");
        // The winner has the minimum latency over the whole frontier …
        for p in frontier.points() {
            assert!(
                best.objectives.latency_cycles <= p.objectives.latency_cycles,
                "lexicographic best must lead on latency"
            );
            // … and among latency ties, the minimum energy.
            if p.objectives.latency_cycles == best.objectives.latency_cycles {
                assert!(best.objectives.energy_pj <= p.objectives.energy_pj);
            }
        }
        // The scalar score reported for it is its latency.
        assert_eq!(ev.score(&best), best.objectives.latency_cycles);
        // Replays identically.
        let mut f2 = ParetoFrontier::new();
        let again = GridSearch.run(&space.full(), &ev, &mut f2, 1 << 20);
        assert_eq!(again.best.unwrap().genome, best.genome);
    }
}
