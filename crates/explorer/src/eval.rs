//! Candidate evaluation: genome → objectives, in parallel, through the
//! shared session.
//!
//! The explorer does not price hardware itself — it owns the *search*
//! (genomes, constraints, frontiers) and routes every evaluation through
//! one [`EvalSession`] from `lego-eval`, the same request/response layer
//! the bench harness and the facade speak. The session owns the
//! `CostContext`, the memoized [`EvalCache`], and the
//! worker pool; the evaluator adds the genome↔request translation, the
//! feasibility check, and a per-genome memo over batches.

use crate::pareto::Constraints;
use crate::space::Genome;
use lego_eval::{EvalCache, EvalRequestRef, EvalSession, Objective, Objectives};
use lego_model::{SparseHw, TechModel};
use lego_obs::Obs;
use lego_sim::{LayerPerf, ModelPerf};
use lego_workloads::Model;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One fully evaluated candidate.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// The hardware configuration genome.
    pub genome: Genome,
    /// Latency / energy / area scores.
    pub objectives: Objectives,
    /// The underlying whole-model simulation result.
    pub perf: ModelPerf,
    /// Peak power draw (static + full-activity dynamic) in mW — the
    /// quantity power budgets constrain.
    pub peak_power_mw: f64,
    /// Whether the design fits the evaluator's [`Constraints`].
    pub feasible: bool,
}

/// Evaluates genomes against one target model.
///
/// Wraps an [`EvalSession`] (which owns the shared [`EvalCache`] and the
/// `std::thread` worker pool): a genome is materialized into a borrowed
/// request view keyed by [`Genome::key`], so session cache entries line up
/// with snapshot checkpoints and warm-started caches. Evaluation is pure,
/// so batches return in input order and the whole exploration is
/// deterministic regardless of thread interleaving.
///
/// Batches also keep every point they priced, by genome, for the
/// evaluator's lifetime (one shard in [`explore_shard`](crate::explore_shard)):
/// sampling and evolution mostly re-request genomes already priced.
pub struct Evaluator<'m> {
    model: &'m Model,
    /// Memoized `lego_eval::layer_key` per model layer: the model is fixed
    /// for the evaluator's lifetime, so layer shapes are hashed once here
    /// instead of once per genome evaluation.
    layer_keys: Box<[u64]>,
    tech: TechModel,
    session: EvalSession,
    constraints: Constraints,
    objective: Objective,
    /// Points `eval_batch` priced; locked only outside the pool's lanes.
    memo: Mutex<HashMap<Genome, DesignPoint>>,
    /// Genomes `eval_batch` served from `memo`.
    memo_hits: AtomicU64,
}

impl<'m> Evaluator<'m> {
    /// Evaluator for `model` with a fresh session (empty cache, automatic
    /// thread count).
    pub fn new(model: &'m Model, tech: TechModel) -> Self {
        Evaluator {
            model,
            layer_keys: model.layers.iter().map(lego_eval::layer_key).collect(),
            tech,
            session: EvalSession::new(),
            constraints: Constraints::none(),
            objective: Objective::EDP,
            memo: Mutex::default(),
            memo_hits: AtomicU64::new(0),
        }
    }

    /// Overrides the worker-pool width (0 means one thread).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.session = self.session.with_threads(threads);
        self
    }

    /// Attaches an observability handle; it is forwarded to the underlying
    /// [`EvalSession`], so every genome evaluation records the session's
    /// per-phase spans and cache counters, and the strategies record
    /// search-level series (`explore.evals`, `explore/generation`).
    /// Instrumentation never changes search results.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.session = self.session.with_obs(obs);
        self
    }

    /// The observability handle evaluations and strategies record into.
    pub fn obs(&self) -> &Obs {
        self.session.obs()
    }

    /// Applies hard feasibility budgets to every evaluation. Memoized
    /// points carry the old verdict, so the memo starts over.
    #[must_use]
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self.memo = Mutex::default();
        self
    }

    /// Sets the scalarization strategies minimize (default: plain EDP).
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Scores a point under the active scalarization (lower is better).
    pub fn score(&self, point: &DesignPoint) -> f64 {
        self.objective.score(&point.objectives, point.peak_power_mw)
    }

    /// The full ranking key of a point (lower is better, compared
    /// lexicographically). For scalar objectives this ranks exactly like
    /// [`score`](Evaluator::score); for [`Objective::Lexicographic`] it
    /// carries the latency → energy → area tie-break chain.
    pub fn key(&self, point: &DesignPoint) -> [f64; 3] {
        self.objective.key(&point.objectives, point.peak_power_mw)
    }

    /// The shared memo table.
    pub fn cache(&self) -> &EvalCache {
        self.session.cache()
    }

    /// The cache's hits plus, per genome the batch memo served, the
    /// `model.layers.len()` all-hit lookups pricing it again would make.
    pub fn cache_hits(&self) -> u64 {
        let layers = self.model.layers.len() as u64;
        self.cache().hits() + self.memo_hits.load(Ordering::Relaxed) * layers
    }

    /// Preloads the session cache with entries from a previous run —
    /// typically a merged snapshot's cache
    /// ([`ExploreOptions::warm_cache`](crate::ExploreOptions)). Returns
    /// the number of entries actually added (resident entries win
    /// collisions).
    pub fn warm_cache<I: IntoIterator<Item = ((u64, u64), LayerPerf)>>(&self, entries: I) -> usize {
        self.session.warm_cache(entries)
    }

    /// Evaluates one genome through the session, memoizing every per-layer
    /// simulation under the genome's stable fingerprint. This one-off path
    /// neither reads nor fills the [`eval_batch`](Evaluator::eval_batch) memo.
    ///
    /// The genome's `CostContext` is built once per evaluation and
    /// threaded through every per-layer simulation, the area roll-up
    /// (which includes L2 router area for multi-cluster designs), and the
    /// peak-power figure the feasibility budgets check — all inside
    /// [`EvalSession::price`].
    pub fn eval(&self, genome: &Genome) -> DesignPoint {
        let hw = genome.to_hw_config();
        let priced = self.session.price(EvalRequestRef {
            workload: self.model,
            hw: &hw,
            sparse: SparseHw::with_accel(genome.sparse),
            tech: self.tech,
            objective: self.objective,
            tile_cap: genome.tile_cap,
            hw_key: Some(genome.key()),
            layer_keys: Some(&self.layer_keys),
        });
        DesignPoint {
            genome: *genome,
            feasible: self
                .constraints
                .admits(priced.cost.objectives.area_um2, priced.cost.peak_power_mw),
            objectives: priced.cost.objectives,
            perf: priced.model,
            peak_power_mw: priced.cost.peak_power_mw,
        }
    }

    /// Evaluates a batch in input order. Only the first occurrence of each
    /// genome not priced before goes to the session's worker pool; pricing
    /// is pure, so the memo serves the rest exactly as they would price.
    pub fn eval_batch(&self, genomes: &[Genome]) -> Vec<DesignPoint> {
        let fresh: Vec<Genome> = {
            let memo = self.memo.lock().expect("evaluator memo poisoned");
            let mut seen = HashSet::new();
            genomes
                .iter()
                .filter(|g| !memo.contains_key(g) && seen.insert(**g))
                .copied()
                .collect()
        };
        let priced = self.session.run_batch(&fresh, |g| self.eval(g));
        let served = (genomes.len() - fresh.len()) as u64;
        self.memo_hits.fetch_add(served, Ordering::Relaxed);
        let mut memo = self.memo.lock().expect("evaluator memo poisoned");
        memo.extend(fresh.into_iter().zip(priced));
        genomes.iter().map(|g| memo[g].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_model::CostContext;
    use lego_model::HwConfig;
    use lego_workloads::zoo;

    #[test]
    fn baseline_matches_direct_simulation() {
        let model = zoo::mobilenet_v2();
        let tech = TechModel::default();
        let ev = Evaluator::new(&model, tech);
        let point = ev.eval(&Genome::lego_256_baseline());
        let direct =
            lego_mapper::map_model_ctx(&model, &CostContext::new(HwConfig::lego_256(), tech), None);
        assert_eq!(point.perf.cycles, direct.perf.cycles);
        assert!((point.perf.gops - direct.perf.gops).abs() < 1e-9);
        assert!(point.objectives.area_um2 > 0.0);
        assert!(point.objectives.energy_pj > 0.0);
    }

    #[test]
    fn eval_batch_is_deterministic_and_ordered() {
        let model = zoo::lenet();
        let mut rng = crate::rng::SplitMix64::new(5);
        let space = crate::space::DesignSpace::tiny();
        let genomes: Vec<Genome> = (0..12).map(|_| space.sample(&mut rng)).collect();
        let ev_par = Evaluator::new(&model, TechModel::default()).with_threads(4);
        let ev_seq = Evaluator::new(&model, TechModel::default()).with_threads(1);
        let par = ev_par.eval_batch(&genomes);
        let seq = ev_seq.eval_batch(&genomes);
        assert_eq!(par.len(), genomes.len());
        for ((p, s), g) in par.iter().zip(&seq).zip(&genomes) {
            assert_eq!(p.genome, *g);
            assert_eq!(p.perf.cycles, s.perf.cycles);
            assert!((p.objectives.edp() - s.objectives.edp()).abs() < 1e-6);
        }
    }

    #[test]
    fn a_repeated_genome_is_priced_once_per_evaluator() {
        let model = zoo::lenet();
        let obs = Obs::deterministic();
        let ev = Evaluator::new(&model, TechModel::default())
            .with_threads(4)
            .with_obs(obs.clone());
        let g = Genome::lego_256_baseline();
        let other = crate::space::DesignSpace::tiny().enumerate()[0];
        assert_ne!(g, other);
        let batch = [g, g, other, g, g, g];
        let points = ev.eval_batch(&batch);
        assert_eq!(obs.summary().counter("eval.requests"), 2, "g priced once");
        let lone = Evaluator::new(&model, TechModel::default()).eval(&g);
        for (p, q) in points.iter().zip(&batch) {
            assert_eq!(p.genome, *q, "input order");
            if p.genome == g {
                assert_eq!((p.perf, p.objectives), (lone.perf, lone.objectives));
            }
        }
        // A later batch is served entirely from the memo, and every served
        // genome counts its layers as hits.
        ev.eval_batch(&[other, g]);
        assert_eq!(obs.summary().counter("eval.requests"), 2);
        let layers = model.layers.len() as u64;
        assert_eq!(ev.cache_hits(), ev.cache().hits() + 6 * layers);
    }

    #[test]
    fn the_batch_memo_changes_no_result_and_no_count() {
        // Differential: every genome the portfolio requested, priced
        // through a fresh evaluator's one-off `eval`, gives the memoized
        // points, frontier, best, cache entries and misses; and a repeat
        // counts the all-hit lookups pricing it again would have made.
        let model = zoo::lenet();
        let space = crate::DesignSpace::tiny();
        let ev = Evaluator::new(&model, TechModel::default());
        let mut frontier = crate::ParetoFrontier::new();
        let reports: Vec<crate::SearchReport> = crate::default_strategies(7)
            .iter_mut()
            .map(|s| s.run(&space.full(), &ev, &mut frontier, 24))
            .collect();
        let requested: usize = reports.iter().map(|r| r.evaluated).sum();
        let mut memo: Vec<DesignPoint> = ev.memo.lock().unwrap().values().cloned().collect();
        memo.sort_by_key(|p| p.genome.key());
        assert!(memo.len() < requested, "the portfolio repeats genomes");

        let fresh = Evaluator::new(&model, TechModel::default());
        let mut fresh_frontier = crate::ParetoFrontier::new();
        let mut priced = HashMap::new();
        for p in &memo {
            let q = fresh.eval(&p.genome);
            assert_eq!((p.perf, p.objectives), (q.perf, q.objectives));
            assert_eq!((p.peak_power_mw, p.feasible), (q.peak_power_mw, q.feasible));
            if q.feasible {
                fresh_frontier.insert(q.clone());
            }
            priced.insert(q.genome, q);
        }
        for r in &reports {
            let best = r.best.as_ref().unwrap();
            assert_eq!(
                best.objectives, priced[&best.genome].objectives,
                "{}",
                r.strategy
            );
        }
        assert_eq!(frontier.genome_keys(), fresh_frontier.genome_keys());
        assert_eq!(ev.cache().entries(), fresh.cache().entries());
        assert_eq!(ev.cache().misses(), fresh.cache().misses());
        let repeats = (requested - memo.len()) as u64 * model.layers.len() as u64;
        assert_eq!(ev.cache_hits(), fresh.cache().hits() + repeats);
        // `explore` runs the same portfolio and reports the same counts.
        let explored = crate::explore(
            &model,
            &space,
            &mut crate::default_strategies(7),
            &crate::ExploreOptions {
                budget_per_strategy: 24,
                ..Default::default()
            },
        );
        assert_eq!(explored.frontier.genome_keys(), frontier.genome_keys());
        assert_eq!(explored.cache_hits, ev.cache_hits());
        assert_eq!(explored.cache_misses, ev.cache().misses());
    }

    #[test]
    fn repeated_shapes_hit_the_cache() {
        // ResNet50 repeats bottleneck shapes: a second eval of the same
        // genome must be answered entirely from the cache.
        let model = zoo::resnet50();
        let ev = Evaluator::new(&model, TechModel::default());
        let g = Genome::lego_256_baseline();
        ev.eval(&g);
        let misses_after_first = ev.cache().misses();
        ev.eval(&g);
        assert_eq!(ev.cache().misses(), misses_after_first);
        assert!(ev.cache().hits() > 0);
    }

    #[test]
    fn warm_cache_from_a_different_tech_model_never_lies() {
        // Genome fingerprints hash only genome fields, but the session
        // folds the technology model into its cache keys — so entries
        // checkpointed under one tech can never be served as another
        // tech's results.
        let model = zoo::lenet();
        let g = Genome::lego_256_baseline();
        let t28 = Evaluator::new(&model, TechModel::default());
        let p28 = t28.eval(&g);
        let t45 = Evaluator::new(&model, TechModel::default().scaled_to(45.0));
        assert!(t45.warm_cache(t28.cache().entries()) > 0);
        let p45 = t45.eval(&g);
        assert!(t45.cache().misses() > 0, "foreign-tech entries must miss");
        assert_ne!(
            p45.perf.cycles, p28.perf.cycles,
            "45 nm pricing must be recomputed, not replayed from 28 nm"
        );
    }

    #[test]
    fn warm_cache_answers_without_simulating() {
        let model = zoo::lenet();
        let g = Genome::lego_256_baseline();
        let first = Evaluator::new(&model, TechModel::default());
        let point = first.eval(&g);
        // A fresh evaluator warmed with the first one's entries answers
        // the same genome entirely from the cache — and identically.
        let second = Evaluator::new(&model, TechModel::default());
        assert!(second.warm_cache(first.cache().entries()) > 0);
        let again = second.eval(&g);
        assert_eq!(second.cache().misses(), 0);
        assert_eq!(again.perf, point.perf);
        assert_eq!(again.objectives, point.objectives);
    }
}
