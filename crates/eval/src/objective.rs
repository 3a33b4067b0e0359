//! Objective vectors and the scalarizations a request is scored under.
//!
//! These types moved down from `lego-explorer` when the evaluation layer
//! became its own crate: an [`EvalRequest`](crate::EvalRequest) names the
//! [`Objective`] it wants scored, the
//! [`CostSummary`](crate::CostSummary) echoes the score back, and the
//! explorer's search strategies minimize the same scalar — so a request
//! shipped to a remote worker and a local search agree on what "best"
//! means by construction.

/// The three objectives every candidate is scored on. Lower is better for
/// all of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// End-to-end model latency in cycles.
    pub latency_cycles: f64,
    /// End-to-end model energy in pJ.
    pub energy_pj: f64,
    /// Accelerator area in µm².
    pub area_um2: f64,
}

impl Objectives {
    /// Pareto dominance: no worse on every objective, strictly better on at
    /// least one.
    pub fn dominates(&self, other: &Objectives) -> bool {
        let no_worse = self.latency_cycles <= other.latency_cycles
            && self.energy_pj <= other.energy_pj
            && self.area_um2 <= other.area_um2;
        let better = self.latency_cycles < other.latency_cycles
            || self.energy_pj < other.energy_pj
            || self.area_um2 < other.area_um2;
        no_worse && better
    }

    /// Energy-delay product (cycles · pJ). The clock frequency is a
    /// constant of the technology model across the whole space, so this is
    /// a monotone transform of J·s and ranks identically.
    pub fn edp(&self) -> f64 {
        self.latency_cycles * self.energy_pj
    }

    /// Energy-delay-area product (cycles · pJ · µm²).
    pub fn edap(&self) -> f64 {
        self.edp() * self.area_um2
    }
}

/// A scalarization without penalties — the base of [`Objective`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BaseObjective {
    /// Energy-delay product (the default search fitness).
    #[default]
    Edp,
    /// Energy-delay-area product.
    Edap,
    /// Latency alone.
    Latency,
    /// Energy alone.
    Energy,
}

impl BaseObjective {
    /// Every base scalarization, in canonical order.
    pub const ALL: [BaseObjective; 4] = [
        BaseObjective::Edp,
        BaseObjective::Edap,
        BaseObjective::Latency,
        BaseObjective::Energy,
    ];

    /// The scalar score (lower is better).
    pub fn score(&self, o: &Objectives) -> f64 {
        match self {
            BaseObjective::Edp => o.edp(),
            BaseObjective::Edap => o.edap(),
            BaseObjective::Latency => o.latency_cycles,
            BaseObjective::Energy => o.energy_pj,
        }
    }
}

/// The scalarization a search minimizes (lower is better).
///
/// [`Objective::Penalized`] adds **soft** area/power budgets: a design
/// over budget is not disqualified (hard feasibility filtering is the
/// explorer's `Constraints`) but its score inflates in proportion to the
/// relative overshoot, steering a search toward the budget boundary
/// instead of walling it off. The two compose naturally — a hard outer
/// budget with a softer inner target is the SparseMap-style constrained
/// scalarization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// A plain base scalarization.
    Base(BaseObjective),
    /// `base` multiplied by `1 + weight · Σ relative-overshoot` over the
    /// soft budgets.
    Penalized {
        /// The underlying scalarization.
        base: BaseObjective,
        /// Soft area budget in µm² (`None` = no area penalty).
        area_budget: Option<f64>,
        /// Soft peak-power budget in mW (`None` = no power penalty).
        power_budget: Option<f64>,
        /// Penalty strength: score multiplier per 100 % overshoot.
        weight: f64,
    },
    /// Latency, then energy, then area: candidates compare on latency
    /// first and fall through to the next objective only on exact ties.
    /// Rank with [`Objective::key`]; the scalar [`Objective::score`] of a
    /// lexicographic objective is its leading component (latency), which
    /// is what a scalar-only consumer should see.
    Lexicographic,
}

impl Default for Objective {
    fn default() -> Self {
        Objective::EDP
    }
}

impl Objective {
    /// Plain energy-delay product (the historical default fitness).
    pub const EDP: Objective = Objective::Base(BaseObjective::Edp);

    /// Convenience constructor with budgets in engineering units
    /// (mm² / W) rather than the µm² / mW the score works in.
    pub fn penalized_edp(area_mm2: Option<f64>, power_w: Option<f64>, weight: f64) -> Self {
        Objective::Penalized {
            base: BaseObjective::Edp,
            area_budget: area_mm2.map(|a| a * 1e6),
            power_budget: power_w.map(|p| p * 1e3),
            weight,
        }
    }

    /// The scalar score of an evaluated design (lower is better).
    /// Penalties need the design's peak power, not just its objective
    /// vector.
    pub fn score(&self, objectives: &Objectives, peak_power_mw: f64) -> f64 {
        match *self {
            Objective::Base(base) => base.score(objectives),
            Objective::Lexicographic => objectives.latency_cycles,
            Objective::Penalized {
                base,
                area_budget,
                power_budget,
                weight,
            } => {
                let overshoot = |value: f64, budget: Option<f64>| match budget {
                    Some(cap) if cap > 0.0 => ((value - cap) / cap).max(0.0),
                    _ => 0.0,
                };
                let penalty = overshoot(objectives.area_um2, area_budget)
                    + overshoot(peak_power_mw, power_budget);
                let score = base.score(objectives);
                // An in-budget design scores its base exactly, even under
                // an infinite weight (where `∞ · 0` would be NaN).
                if penalty == 0.0 {
                    score
                } else {
                    score * (1.0 + weight.max(0.0) * penalty)
                }
            }
        }
    }

    /// The full ranking key (lower is better, compared element-wise
    /// left to right — `[f64; 3]`'s `PartialOrd` is exactly that).
    ///
    /// Scalar objectives put their score in the leading slot and zero the
    /// tie-breakers, so ranking by key ranks identically to ranking by
    /// [`score`](Objective::score) for them; the lexicographic objective
    /// fills all three slots with latency, energy, and area.
    pub fn key(&self, objectives: &Objectives, peak_power_mw: f64) -> [f64; 3] {
        match *self {
            Objective::Lexicographic => [
                objectives.latency_cycles,
                objectives.energy_pj,
                objectives.area_um2,
            ],
            _ => [self.score(objectives, peak_power_mw), 0.0, 0.0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(lat: f64, en: f64, area: f64) -> Objectives {
        Objectives {
            latency_cycles: lat,
            energy_pj: en,
            area_um2: area,
        }
    }

    #[test]
    fn dominance_is_strict_and_partial() {
        let a = o(1.0, 1.0, 1.0);
        let b = o(2.0, 2.0, 2.0);
        let c = o(0.5, 3.0, 1.0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        // Equal objectives dominate in neither direction.
        assert!(!a.dominates(&a));
        // Trade-offs are incomparable.
        assert!(!a.dominates(&c) && !c.dominates(&a));
    }

    #[test]
    fn scalarizations_rank_as_expected() {
        let small = o(10.0, 1.0, 100.0); // edp 10, edap 1000
        let big = o(1.0, 8.0, 1.0); // edp 8, edap 8
        assert!(BaseObjective::Edp.score(&big) < BaseObjective::Edp.score(&small));
        assert!(BaseObjective::Edap.score(&big) < BaseObjective::Edap.score(&small));
        assert!(BaseObjective::Latency.score(&big) < BaseObjective::Latency.score(&small));
        assert!(BaseObjective::Energy.score(&small) < BaseObjective::Energy.score(&big));
    }

    #[test]
    fn penalized_objective_matches_base_inside_budget() {
        let p = o(10.0, 2.0, 1.5e6);
        let base = Objective::EDP;
        let soft = Objective::penalized_edp(Some(2.0), Some(1.0), 4.0);
        // Inside both budgets (1.5 mm², 0 mW): no penalty.
        assert!((soft.score(&p, 0.0) - base.score(&p, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn penalized_objective_scales_with_overshoot() {
        let over = o(10.0, 2.0, 3.0e6); // 3 mm² vs a 2 mm² soft cap
        let power = 1500.0; // 1.5 W vs a 1 W soft cap
        let soft = Objective::penalized_edp(Some(2.0), Some(1.0), 4.0);
        // Overshoots: area 50 %, power 50 % → ×(1 + 4·1.0).
        let expect = over.edp() * 5.0;
        assert!((soft.score(&over, power) - expect).abs() < 1e-9 * expect);
        // A stronger weight penalizes harder; weight 0 is the base again.
        let hard = Objective::penalized_edp(Some(2.0), Some(1.0), 10.0);
        assert!(hard.score(&over, power) > soft.score(&over, power));
        let zero = Objective::penalized_edp(Some(2.0), Some(1.0), 0.0);
        assert!((zero.score(&over, power) - over.edp()).abs() < 1e-12);
    }

    #[test]
    fn infinite_weight_scores_in_budget_designs_at_their_base() {
        let inside = o(10.0, 2.0, 1.5e6);
        let wall = Objective::penalized_edp(Some(2.0), None, f64::INFINITY);
        assert_eq!(wall.score(&inside, 0.0), inside.edp());
        assert_eq!(wall.score(&o(10.0, 2.0, 3.0e6), 0.0), f64::INFINITY);
    }

    #[test]
    fn lexicographic_breaks_latency_ties_on_energy_then_area() {
        let lex = Objective::Lexicographic;
        let slow = o(20.0, 1.0, 1.0);
        let fast_hot = o(10.0, 9.0, 1.0);
        let fast_cool = o(10.0, 2.0, 5.0);
        let fast_cool_small = o(10.0, 2.0, 3.0);
        // Latency decides first …
        assert!(lex.key(&fast_hot, 0.0) < lex.key(&slow, 0.0));
        // … energy breaks latency ties …
        assert!(lex.key(&fast_cool, 0.0) < lex.key(&fast_hot, 0.0));
        // … and area breaks (latency, energy) ties.
        assert!(lex.key(&fast_cool_small, 0.0) < lex.key(&fast_cool, 0.0));
        // The scalar view of a lexicographic objective is its leading
        // component.
        assert_eq!(lex.score(&fast_hot, 0.0), 10.0);
    }

    #[test]
    fn scalar_objectives_rank_identically_by_key_and_score() {
        let a = o(10.0, 2.0, 1.0);
        let b = o(3.0, 5.0, 1.0);
        for obj in [
            Objective::EDP,
            Objective::Base(BaseObjective::Latency),
            Objective::penalized_edp(Some(2.0), Some(1.0), 4.0),
        ] {
            let by_key = obj.key(&a, 0.0) < obj.key(&b, 0.0);
            let by_score = obj.score(&a, 0.0) < obj.score(&b, 0.0);
            assert_eq!(by_key, by_score, "{obj:?}");
        }
    }
}
