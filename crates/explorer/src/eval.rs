//! Candidate evaluation: genome → objectives, in parallel, through the
//! shared session.
//!
//! The explorer does not price hardware itself — it owns the *search*
//! (genomes, constraints, frontiers) and routes every evaluation through
//! one [`EvalSession`] from `lego-eval`, the same pricing core the bench
//! harness and the facade use. The session owns the `CostContext` build,
//! the roll-up and the batch threads; the evaluator adds the genome↔request
//! translation, the feasibility check, and a per-genome memo of points
//! and their layer rows, from which the shard's cache list is built.

use crate::pareto::Constraints;
use crate::snapshot::{canonical_shared, count_new_keys, merge_from_back, Entry, SharedEntries};
use crate::space::Genome;
use lego_eval::{EvalRequestRef, EvalSession, Objective, Objectives};
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

/// A priced genome's `((cache key, layer key), perf)` entries, one per
/// distinct layer shape of the model, in key order.
type Row = Box<[Entry]>;

/// Evaluates genomes against one target model.
///
/// The model's layers are mapped to their distinct shapes once, here. A
/// genome not priced before is priced into one row through
/// [`EvalSession::price_with`], each shape read from the warm list by
/// binary search or simulated once. The row is memoized beside the
/// genome's [`DesignPoint`] for the evaluator's lifetime (one shard in
/// [`explore_shard`](crate::explore_shard)), since sampling and evolution
/// mostly re-request genomes. Evaluation is pure, so batches return in
/// input order and the whole exploration is deterministic regardless of
/// thread interleaving.
pub struct Evaluator<'m> {
    model: &'m Model,
    /// Each distinct `lego_eval::layer_key` of the model, sorted, with the
    /// index of its first layer (the one simulated).
    shapes: Box<[(u64, usize)]>,
    /// Per model layer, its index in `shapes`.
    shape_of: Box<[usize]>,
    tech: TechModel,
    session: EvalSession,
    constraints: Constraints,
    objective: Objective,
    /// Strictly key-sorted entries that answer lookups without simulating.
    warm: SharedEntries,
    /// Points `eval_batch` priced; locked only outside the batch's lanes.
    memo: Mutex<HashMap<Genome, (DesignPoint, Row)>>,
    /// Genomes requested, repeats included.
    requested: AtomicU64,
    /// Layer shapes simulated.
    misses: AtomicU64,
}

impl<'m> Evaluator<'m> {
    /// Evaluator for `model` with a fresh session (no warm entries,
    /// automatic thread count).
    pub fn new(model: &'m Model, tech: TechModel) -> Self {
        let keys: Vec<u64> = model.layers.iter().map(lego_eval::layer_key).collect();
        let mut shapes: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        shapes.sort_by_key(|&(key, _)| key); // Stable: a shape's first layer stays first.
        shapes.dedup_by_key(|&mut (key, _)| key);
        let shape_of = keys
            .iter()
            .map(|k| shapes.partition_point(|s| s.0 < *k))
            .collect();
        Evaluator {
            model,
            shapes: shapes.into(),
            shape_of,
            tech,
            session: EvalSession::new(),
            constraints: Constraints::none(),
            objective: Objective::EDP,
            warm: SharedEntries::default(),
            memo: Mutex::default(),
            requested: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Overrides the batch thread count (0 means one thread; see
    /// `EvalSession::with_threads`).
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

    /// Applies hard feasibility budgets to every evaluation, memoized
    /// points included.
    #[must_use]
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        let memo = self.memo.get_mut().expect("evaluator memo poisoned");
        for (p, _) in memo.values_mut() {
            p.feasible = constraints.admits(p.objectives.area_um2, p.peak_power_mw);
        }
        self
    }

    /// Sets the scalarization strategies minimize (default: plain EDP).
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Answers layer lookups from a previous run's entries — typically a
    /// merged snapshot's cache
    /// ([`ExploreOptions::warm_cache`](crate::ExploreOptions)). The list
    /// is shared, not copied, unless its keys are out of order. Entries
    /// priced under another technology or SRAM model carry other keys, so
    /// they never answer a lookup.
    #[must_use]
    pub fn with_warm_cache(mut self, warm: SharedEntries) -> Self {
        self.warm = canonical_shared(warm);
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

    /// Layer lookups answered without simulating: one per model layer for
    /// every requested genome, memo-served repeats included, less the
    /// [`cache_misses`](Evaluator::cache_misses).
    pub fn cache_hits(&self) -> u64 {
        let lookups = self.requested.load(Ordering::Relaxed) * self.model.layers.len() as u64;
        lookups - self.cache_misses()
    }

    /// Layer simulations run: the distinct shapes of each priced genome
    /// that the warm list did not hold.
    pub fn cache_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The rows' `((cache key, layer key), perf)` entries merged with the
    /// warm list, in key order: what an
    /// [`EvalCache`](lego_eval::EvalCache) warmed with that list and asked
    /// for the same genomes would return from its `entries`.
    pub fn entries(&self) -> Vec<((u64, u64), LayerPerf)> {
        let memo = self.memo.lock().expect("evaluator memo poisoned");
        let mut rows: Vec<&[Entry]> = memo.values().map(|(_, row)| &**row).collect();
        rows.sort_unstable_by_key(|row| row.first().map(|(key, _)| *key));
        let mut list = rows.concat();
        let added = count_new_keys(&list, &self.warm);
        if added > 0 {
            merge_from_back(&mut list, &self.warm, added);
        }
        list
    }

    /// Evaluates one genome: [`eval_batch`](Evaluator::eval_batch) of it
    /// alone.
    ///
    /// The genome's `CostContext` is built once per evaluation and
    /// threaded through every per-layer simulation, the area roll-up
    /// (which includes L2 router area for multi-cluster designs), and the
    /// peak-power figure the feasibility budgets check — all inside
    /// [`EvalSession::price_with`].
    pub fn eval(&self, genome: &Genome) -> DesignPoint {
        let mut points = self.eval_batch(std::slice::from_ref(genome));
        points.pop().expect("one point per genome")
    }

    /// Prices `genome` into its point and row, and the shapes it simulated.
    fn price(&self, genome: &Genome) -> (DesignPoint, Row, u64) {
        let hw = genome.to_hw_config();
        let request = EvalRequestRef {
            workload: self.model,
            hw: &hw,
            sparse: SparseHw::with_accel(genome.sparse),
            tech: self.tech,
            objective: self.objective,
            tile_cap: genome.tile_cap,
            hw_key: Some(genome.key()),
            layer_keys: None,
        };
        let mut row = Box::default();
        let priced = self.session.price_with(request, |key, simulate| {
            row = self
                .shapes
                .iter()
                .map(|&(shape, first)| {
                    match self.warm.binary_search_by_key(&(key, shape), |e| e.0) {
                        Ok(at) => self.warm[at],
                        Err(_) => ((key, shape), simulate(&self.model.layers[first])),
                    }
                })
                .collect();
            self.shape_of.iter().map(|&s| row[s].1).collect()
        });
        let cost = priced.cost;
        let point = DesignPoint {
            genome: *genome,
            feasible: self
                .constraints
                .admits(cost.objectives.area_um2, cost.peak_power_mw),
            objectives: cost.objectives,
            perf: priced.model,
            peak_power_mw: cost.peak_power_mw,
        };
        (point, row, priced.cache_misses)
    }

    /// Evaluates a batch in input order. Only the first occurrence of each
    /// genome not priced before goes to the session's `run_batch`; pricing
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
        let priced = self.session.run_batch(&fresh, |g| self.price(g));
        self.requested
            .fetch_add(genomes.len() as u64, Ordering::Relaxed);
        let mut memo = self.memo.lock().expect("evaluator memo poisoned");
        for (genome, (point, row, misses)) in fresh.into_iter().zip(priced) {
            self.misses.fetch_add(misses, Ordering::Relaxed);
            memo.insert(genome, (point, row));
        }
        genomes.iter().map(|g| memo[g].0.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_model::CostContext;
    use lego_model::HwConfig;
    use lego_workloads::zoo;
    use std::sync::Arc;

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
        let priced_hits = 2 * layers - ev.cache_misses();
        assert_eq!(ev.cache_hits(), priced_hits + 6 * layers);
    }

    #[test]
    fn the_batch_memo_changes_no_result_and_no_count() {
        // Differential: every genome the portfolio requested, priced once
        // each through a fresh evaluator, gives the memoized points,
        // frontier, best, cache entries and misses; and a repeat counts
        // the all-hit lookups pricing it again would have made.
        let model = zoo::lenet();
        let space = crate::DesignSpace::tiny();
        let ev = Evaluator::new(&model, TechModel::default());
        let mut frontier = crate::ParetoFrontier::new();
        let reports: Vec<crate::SearchReport> = crate::default_strategies(7)
            .iter_mut()
            .map(|s| s.run(&space.full(), &ev, &mut frontier, 24))
            .collect();
        let requested: usize = reports.iter().map(|r| r.evaluated).sum();
        let mut memo: Vec<DesignPoint> = ev
            .memo
            .lock()
            .unwrap()
            .values()
            .map(|(p, _)| p.clone())
            .collect();
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
        assert_eq!(ev.entries(), fresh.entries());
        assert_eq!(ev.cache_misses(), fresh.cache_misses());
        let repeats = (requested - memo.len()) as u64 * model.layers.len() as u64;
        assert_eq!(ev.cache_hits(), fresh.cache_hits() + repeats);
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
        assert_eq!(explored.cache_misses, ev.cache_misses());
    }

    #[test]
    fn repeated_shapes_hit_the_cache() {
        // ResNet50 repeats bottleneck shapes: a second eval of the same
        // genome must be answered entirely without simulating.
        let model = zoo::resnet50();
        let ev = Evaluator::new(&model, TechModel::default());
        let g = Genome::lego_256_baseline();
        ev.eval(&g);
        let misses_after_first = ev.cache_misses();
        ev.eval(&g);
        assert_eq!(ev.cache_misses(), misses_after_first);
        assert!(ev.cache_hits() > 0);
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
        let entries = t28.entries();
        assert!(!entries.is_empty());
        let t45 = Evaluator::new(&model, TechModel::default().scaled_to(45.0))
            .with_warm_cache(Arc::new(entries));
        let p45 = t45.eval(&g);
        assert!(t45.cache_misses() > 0, "foreign-tech entries must miss");
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
        // the same genome entirely from them — and identically.
        let entries = first.entries();
        assert!(!entries.is_empty());
        let second =
            Evaluator::new(&model, TechModel::default()).with_warm_cache(Arc::new(entries));
        let again = second.eval(&g);
        assert_eq!(second.cache_misses(), 0);
        assert_eq!(again.perf, point.perf);
        assert_eq!(again.objectives, point.objectives);
    }
}
