//! Candidate evaluation: genome → objectives, in parallel, through the
//! shared session.
//!
//! The explorer does not price hardware itself — it owns the *search*
//! (genomes, constraints, frontiers) and routes every evaluation through
//! one [`EvalSession`] from `lego-eval`, the same request/response layer
//! the bench harness and the facade speak. The session owns the
//! `CostContext`, the memoized [`EvalCache`], and the
//! worker pool; the evaluator adds the genome↔request translation and the
//! feasibility check.

use crate::pareto::{Constraints, Objective};
use crate::space::Genome;
use lego_eval::{EvalCache, EvalRequestRef, EvalSession, Objectives};
use lego_model::{SparseHw, TechModel};
use lego_obs::Obs;
use lego_sim::{LayerPerf, ModelPerf};
use lego_workloads::Model;

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

    /// Applies hard feasibility budgets to every evaluation.
    #[must_use]
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
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

    /// Preloads the session cache with entries from a previous run —
    /// typically a merged snapshot's cache
    /// ([`ExploreOptions::warm_cache`](crate::ExploreOptions)). Returns
    /// the number of entries actually added (resident entries win
    /// collisions).
    pub fn warm_cache<I: IntoIterator<Item = ((u64, u64), LayerPerf)>>(&self, entries: I) -> usize {
        self.session.warm_cache(entries)
    }

    /// Evaluates one genome through the session, memoizing every per-layer
    /// simulation under the genome's stable fingerprint.
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

    /// Evaluates a batch on the session's worker pool; results come back
    /// in input order.
    pub fn eval_batch(&self, genomes: &[Genome]) -> Vec<DesignPoint> {
        self.session.run_batch(genomes, |g| self.eval(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_model::CostContext;
    use lego_sim::HwConfig;
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
