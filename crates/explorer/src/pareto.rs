//! Multi-objective bookkeeping: dominance, the Pareto frontier, and hard
//! feasibility constraints ([`Constraints`]).
//!
//! The objective vector and the scalarizations used for ranking
//! ([`Objectives`], [`BaseObjective`](lego_eval::BaseObjective),
//! [`Objective`](lego_eval::Objective), including penalty-based *soft*
//! budgets that compose with the hard filter) live in `lego-eval` with the
//! evaluation layer: a request names the objective it is scored under.

use crate::eval::DesignPoint;
use crate::space::Genome;

use lego_eval::Objectives;

/// Hard feasibility budgets applied to every candidate before it may join
/// the frontier or be reported as a best design.
///
/// Unlike the frontier's objectives (which trade off), a violated budget
/// disqualifies outright — SparseMap-style constrained search. Infeasible
/// candidates are still evaluated and cached (the evolutionary strategy
/// keeps them in its population with infinite fitness so search can walk
/// through them), they just cannot win.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Constraints {
    /// Maximum accelerator area in µm² (`None` = unconstrained).
    pub max_area_um2: Option<f64>,
    /// Maximum peak power in mW (`None` = unconstrained).
    pub max_power_mw: Option<f64>,
}

impl Constraints {
    /// No budgets: every design is feasible.
    pub fn none() -> Self {
        Constraints::default()
    }

    /// An area budget in mm² (the natural unit for chip budgets).
    #[must_use]
    pub fn with_max_area_mm2(mut self, mm2: f64) -> Self {
        self.max_area_um2 = Some(mm2 * 1e6);
        self
    }

    /// A peak-power budget in mW.
    #[must_use]
    pub fn with_max_power_mw(mut self, mw: f64) -> Self {
        self.max_power_mw = Some(mw);
        self
    }

    /// Whether a design with this area and peak power fits every budget.
    pub fn admits(&self, area_um2: f64, power_mw: f64) -> bool {
        self.max_area_um2.is_none_or(|cap| area_um2 <= cap)
            && self.max_power_mw.is_none_or(|cap| power_mw <= cap)
    }
}

/// The set of mutually non-dominated design points found so far.
///
/// Insertion maintains the invariant that no member dominates another:
/// a dominated candidate is rejected, and an accepted candidate evicts
/// every member it dominates.
#[derive(Debug, Clone, Default)]
pub struct ParetoFrontier {
    points: Vec<DesignPoint>,
}

impl ParetoFrontier {
    /// An empty frontier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a candidate. Returns `true` if it joined the frontier
    /// (evicting any members it dominates), `false` if an existing member
    /// dominates it or an identical genome is already present.
    pub fn insert(&mut self, candidate: DesignPoint) -> bool {
        if self
            .points
            .iter()
            .any(|p| p.genome == candidate.genome || p.objectives.dominates(&candidate.objectives))
        {
            return false;
        }
        self.points
            .retain(|p| !candidate.objectives.dominates(&p.objectives));
        self.points.push(candidate);
        true
    }

    /// The frontier members, in insertion order.
    pub fn points(&self) -> &[DesignPoint] {
        &self.points
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the frontier is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Member minimizing an arbitrary scalarization.
    pub fn best_by<F: Fn(&Objectives) -> f64>(&self, score: F) -> Option<&DesignPoint> {
        self.points.iter().min_by(|a, b| {
            score(&a.objectives)
                .partial_cmp(&score(&b.objectives))
                .expect("finite scores")
                .then_with(|| a.genome.key().cmp(&b.genome.key()))
        })
    }

    /// Member minimizing energy-delay product.
    pub fn best_by_edp(&self) -> Option<&DesignPoint> {
        self.best_by(Objectives::edp)
    }

    /// The members' genomes in insertion order — the natural warm-start
    /// seed for a follow-up exploration
    /// ([`ExploreOptions::warm_start`](crate::ExploreOptions)).
    pub fn genomes(&self) -> Vec<Genome> {
        self.points.iter().map(|p| p.genome).collect()
    }

    /// Folds another frontier into this one, point by point. This is how
    /// shard results combine: because [`ParetoFrontier::insert`] keeps
    /// exactly the non-dominated subset of everything ever offered —
    /// independent of offer order — merging the per-shard frontiers of a
    /// disjoint grid partition reproduces the single-process frontier
    /// ([`ParetoFrontier::dominance_equal`] pins this). Merge is
    /// commutative, associative, and idempotent up to dominance equality.
    ///
    /// Returns the number of points that joined.
    pub fn merge(&mut self, other: &ParetoFrontier) -> usize {
        other
            .points
            .iter()
            .filter(|p| self.insert((*p).clone()))
            .count()
    }

    /// Whether two frontiers describe the same trade-off surface: every
    /// point of each is matched by a point of the other with identical
    /// objectives. Genome-level ties (distinct designs with exactly equal
    /// objectives) may differ between runs that evaluated different
    /// subsets, so this — not `Vec` equality — is the equivalence the
    /// shard-merge invariant promises.
    pub fn dominance_equal(&self, other: &ParetoFrontier) -> bool {
        let covered = |a: &[DesignPoint], b: &[DesignPoint]| {
            a.iter()
                .all(|p| b.iter().any(|q| q.objectives == p.objectives))
        };
        covered(&self.points, &other.points) && covered(&other.points, &self.points)
    }

    /// The members' genome fingerprints, sorted — a canonical identity for
    /// set-level comparisons in tests and merge reports.
    pub fn genome_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.points.iter().map(|p| p.genome.key()).collect();
        keys.sort_unstable();
        keys
    }

    /// Checks the defining invariant: no member dominates another.
    pub fn is_mutually_non_dominated(&self) -> bool {
        self.points.iter().enumerate().all(|(i, a)| {
            self.points
                .iter()
                .enumerate()
                .all(|(j, b)| i == j || !a.objectives.dominates(&b.objectives))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::space::Genome;
    use lego_eval::Objective;
    use lego_sim::ModelPerf;

    fn point(lat: f64, en: f64, area: f64) -> DesignPoint {
        // Distinct genomes so duplicate-genome rejection doesn't interfere.
        let mut genome = Genome::lego_256_baseline();
        genome.rows = (lat as i64) * 1000 + (en as i64) * 10 + area as i64 + 1;
        DesignPoint {
            genome,
            feasible: true,
            peak_power_mw: 0.0,
            objectives: Objectives {
                latency_cycles: lat,
                energy_pj: en,
                area_um2: area,
            },
            perf: ModelPerf {
                cycles: lat as i64,
                ops: 0,
                gops: 0.0,
                watts: 0.0,
                gops_per_watt: 0.0,
                utilization: 0.0,
                ppu_fraction: 0.0,
                instr_gbps: 0.0,
            },
        }
    }

    #[test]
    fn insertion_rejects_dominated_and_evicts_dominated() {
        let mut f = ParetoFrontier::new();
        assert!(f.insert(point(2.0, 2.0, 2.0)));
        // Dominated candidate rejected.
        assert!(!f.insert(point(3.0, 3.0, 3.0)));
        assert_eq!(f.len(), 1);
        // Incomparable candidate accepted.
        assert!(f.insert(point(1.0, 5.0, 1.0)));
        assert_eq!(f.len(), 2);
        // A dominator evicts everything it beats.
        assert!(f.insert(point(1.0, 1.0, 1.0)));
        assert_eq!(f.len(), 1);
        assert!((f.points()[0].objectives.latency_cycles - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_dominated_survivors_under_random_insertion() {
        let mut rng = SplitMix64::new(77);
        let mut f = ParetoFrontier::new();
        for _ in 0..500 {
            let p = point(
                (1 + rng.below(10)) as f64,
                (1 + rng.below(10)) as f64,
                (1 + rng.below(10)) as f64,
            );
            f.insert(p);
            assert!(f.is_mutually_non_dominated());
        }
        assert!(!f.is_empty());
    }

    #[test]
    fn constraints_admit_and_reject() {
        let none = Constraints::none();
        assert!(none.admits(f64::MAX, f64::MAX));
        let c = Constraints::none()
            .with_max_area_mm2(2.0)
            .with_max_power_mw(300.0);
        assert!(c.admits(1.9e6, 299.0));
        assert!(!c.admits(2.1e6, 299.0), "area budget must bind");
        assert!(!c.admits(1.9e6, 301.0), "power budget must bind");
    }

    #[test]
    fn penalized_objective_reorders_the_frontier_ranking() {
        let mut f = ParetoFrontier::new();
        // Small design: worse EDP, tiny area. Big design: better EDP, huge.
        f.insert(point(4.0, 4.0, 1.0e6)); // edp 16
        f.insert(point(2.0, 5.0, 9.0e6)); // edp 10
        assert!((f.best_by_edp().unwrap().objectives.edp() - 10.0).abs() < 1e-12);
        // Soft 2 mm² budget at weight 2: big design pays ×(1+2·3.5) = 8.
        let soft = Objective::penalized_edp(Some(2.0), None, 2.0);
        let best = f.best_by(|o| soft.score(o, 0.0)).unwrap();
        assert!((best.objectives.edp() - 16.0).abs() < 1e-12, "small wins");
        // genomes() exposes the members for warm starts.
        assert_eq!(f.genomes().len(), 2);
    }

    #[test]
    fn merge_reproduces_order_independent_union() {
        // Build two frontiers from interleaved halves of one point stream;
        // merging them (either way) must equal inserting the whole stream.
        let mut rng = SplitMix64::new(13);
        let stream: Vec<DesignPoint> = (0..60)
            .map(|_| {
                point(
                    (1 + rng.below(8)) as f64,
                    (1 + rng.below(8)) as f64,
                    (1 + rng.below(8)) as f64,
                )
            })
            .collect();
        let mut whole = ParetoFrontier::new();
        let mut even = ParetoFrontier::new();
        let mut odd = ParetoFrontier::new();
        for (i, p) in stream.iter().enumerate() {
            whole.insert(p.clone());
            if i % 2 == 0 {
                even.insert(p.clone());
            } else {
                odd.insert(p.clone());
            }
        }
        let mut ab = even.clone();
        ab.merge(&odd);
        let mut ba = odd.clone();
        ba.merge(&even);
        assert!(ab.dominance_equal(&whole));
        assert!(ba.dominance_equal(&whole));
        assert!(ab.dominance_equal(&ba));
        assert!(ab.is_mutually_non_dominated());
        // Idempotence: merging a frontier into itself adds nothing.
        let before = ab.genome_keys();
        assert_eq!(ab.clone().merge(&ab), 0);
        assert_eq!(ab.genome_keys(), before);
    }

    #[test]
    fn dominance_equal_distinguishes_real_differences() {
        let mut a = ParetoFrontier::new();
        a.insert(point(1.0, 5.0, 1.0));
        let mut b = a.clone();
        assert!(a.dominance_equal(&b));
        b.insert(point(5.0, 1.0, 1.0));
        assert!(!a.dominance_equal(&b), "b has an unmatched trade-off");
        // Equal objectives under different genomes still count as matched.
        let mut c = ParetoFrontier::new();
        let mut twin = point(1.0, 5.0, 1.0);
        twin.genome.cols = 999;
        c.insert(twin);
        assert!(a.dominance_equal(&c));
        assert_ne!(a.genome_keys(), c.genome_keys());
    }

    #[test]
    fn scalarizations_rank_as_expected() {
        let mut f = ParetoFrontier::new();
        f.insert(point(10.0, 1.0, 100.0)); // edp 10, edap 1000
        f.insert(point(1.0, 8.0, 1.0)); // edp 8, edap 8
        assert!((f.best_by_edp().unwrap().objectives.edp() - 8.0).abs() < 1e-12);
    }
}
