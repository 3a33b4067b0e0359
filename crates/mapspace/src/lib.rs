//! `lego-mapspace` — equality-saturation mapping search over
//! dataflow/tiling rewrites.
//!
//! The mapper and explorer *enumerate*: the mapper sweeps the hardware's
//! dataflow menu per layer, the explorer sweeps genomes. Whole families of
//! mappings — spatializations outside the menu, per-shape tile caps,
//! regrouped fusion chains — are never visited. This crate searches that
//! space by rewriting instead of enumerating:
//!
//! 1. **Seed.** Each distinct layer shape's enumerated-best nest becomes a
//!    mapping term (spatial pair + temporal loops with the enumerated tile
//!    cap) in a hash-consed [`EGraph`]; per-layer nests compose into a
//!    model-level [`ENode::Seq`] chain.
//! 2. **Saturate.** The rewrite-rule set ([`rewrite`]) — loop interchange,
//!    tile split/merge, spatial↔temporal swap, fusion regrouping — runs to
//!    a fixpoint under a node budget, unioning every reachable equivalent
//!    nest into the seed's e-class.
//! 3. **Extract.** Every lowerable candidate in each shape's class
//!    ([`extract::lowerings`]) is priced through a warm
//!    [`EvalSession`] (one whole-model evaluation
//!    per distinct `(mapping, tile cap)` point, all sharing the session's
//!    [`EvalCache`](lego_eval::EvalCache)), and a coordinate descent over
//!    per-shape choices — initialized at the enumerated assignment, so the
//!    result can never be worse — minimizes whole-model EDP.
//!
//! The search is byte-deterministic: e-class ids are minted in insertion
//! order, representatives are class minima, the rules and extraction
//! walk sorted classes, and pricing reuses the deterministic evaluation
//! stack. [`RewriteOutcome::suggest_genome`]
//! closes the loop back to the explorer by warm-starting the ES from the
//! extracted dataflow set and tile cap.

#![deny(missing_docs)]

pub mod egraph;
pub mod extract;
pub mod rewrite;
pub mod term;

pub use egraph::{EGraph, UnionFind};
pub use extract::{lowerings, Candidate, Pricer};
pub use rewrite::{saturate, RewriteConfig, SaturationStats};
pub use term::{layer_axes, lower_spatial, seed_spatial_pair, Axis, ENode, Id};

use lego_eval::{layer_key, EvalRequestRef, EvalSession, Objective};
use lego_explorer::{DataflowSet, Genome};
use lego_model::{HwConfig, SparseHw, SpatialMapping, TechModel};
use lego_sim::{aggregate_iter, LayerPerf, ModelPerf};
use lego_workloads::Model;
use std::sync::Arc;

/// Knobs for one [`MapSearch`] run.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Saturation node budget (growth stops at this many e-nodes).
    pub node_budget: usize,
    /// Saturation round cap.
    pub max_rounds: usize,
    /// Tile edges the split rule may introduce; edges outside
    /// `1..=u16::MAX` are ignored (see [`RewriteConfig::tile_ladder`]).
    pub tile_ladder: Vec<i64>,
    /// Cap on distinct partial lowerings kept per e-class.
    pub max_class_lowerings: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            node_budget: 6144,
            max_rounds: 8,
            tile_ladder: vec![32, 64, 128, 256],
            max_class_lowerings: 64,
        }
    }
}

/// The mapping chosen for one distinct layer shape.
#[derive(Debug, Clone)]
pub struct LayerChoice {
    /// Name of the first layer with this shape.
    pub name: Arc<str>,
    /// Total repetitions of this shape across the model.
    pub count: i64,
    /// The extracted spatial mapping.
    pub mapping: SpatialMapping,
    /// The extracted L1 tile cap (`None` = uncapped).
    pub tile_cap: Option<i64>,
    /// Per-instance performance under the choice.
    pub perf: LayerPerf,
}

/// What one rewrite search found.
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    /// Model name searched.
    pub model: String,
    /// Per-shape choices, in first-occurrence order.
    pub layers: Vec<LayerChoice>,
    /// Whole-model performance under the extracted assignment.
    pub perf: ModelPerf,
    /// EDP (cycles × pJ) of the extracted assignment.
    pub rewrite_edp: f64,
    /// EDP of the enumerated baseline (the mapper's per-layer best over
    /// the hardware's dataflow menu at the seed tile cap).
    pub enumerated_edp: f64,
    /// Saturation statistics.
    pub stats: SaturationStats,
    /// Distinct mappings the extracted assignment uses, sorted.
    pub dataflows: Vec<SpatialMapping>,
}

impl RewriteOutcome {
    /// Whether the rewrite search strictly beat the enumerated baseline.
    pub fn improved(&self) -> bool {
        self.rewrite_edp < self.enumerated_edp
    }

    /// Fractional EDP improvement over the enumerated baseline (0 when
    /// the search only matched it).
    pub fn gain(&self) -> f64 {
        if self.enumerated_edp <= 0.0 {
            return 0.0;
        }
        1.0 - self.rewrite_edp / self.enumerated_edp
    }

    /// Warm-starts an explorer genome from the extraction: the genome's
    /// dataflow menu becomes the mappings the assignment actually uses
    /// and its tile cap the assignment's (count-weighted) modal cap.
    /// Everything else is carried over from `base`.
    pub fn suggest_genome(&self, base: &Genome) -> Genome {
        let mut g = *base;
        if !self.dataflows.is_empty() {
            g.dataflows = DataflowSet::new(&self.dataflows);
        }
        // Count-weighted modal tile cap; ties resolve to the smaller cap
        // (None sorts first), deterministically.
        let mut caps: Vec<(Option<i64>, i64)> = Vec::new();
        for l in &self.layers {
            match caps.iter_mut().find(|(c, _)| *c == l.tile_cap) {
                Some((_, w)) => *w += l.count,
                None => caps.push((l.tile_cap, l.count)),
            }
        }
        caps.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        if let Some(&(cap, _)) = caps.first() {
            g.tile_cap = cap;
        }
        g
    }

    /// Deterministic fixed-width report: one row per shape choice plus
    /// the enumerated-vs-rewrite EDP summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("mapspace {}\n", self.model));
        out.push_str(&format!(
            "{:<28} {:>6} {:>8} {:>6} {:>14}\n",
            "layer", "count", "mapping", "tile", "cycles"
        ));
        for l in &self.layers {
            let tile = l.tile_cap.map_or("-".to_string(), |t| t.to_string());
            out.push_str(&format!(
                "{:<28} {:>6} {:>8} {:>6} {:>14}\n",
                l.name,
                l.count,
                l.mapping.name(),
                tile,
                l.perf.cycles
            ));
        }
        out.push_str(&format!(
            "enumerated_edp {:.6e}  rewrite_edp {:.6e}  gain {:.4}  rounds {}  nodes {}  classes {}\n",
            self.enumerated_edp,
            self.rewrite_edp,
            self.gain(),
            self.stats.rounds,
            self.stats.nodes,
            self.stats.classes,
        ));
        out
    }
}

/// The equality-saturation mapping search over one model and hardware
/// configuration.
#[derive(Debug, Clone)]
pub struct MapSearch<'a> {
    model: &'a Model,
    hw: HwConfig,
    tech: TechModel,
    tile_cap: Option<i64>,
    config: SearchConfig,
}

impl<'a> MapSearch<'a> {
    /// A search over `model` on `hw` under `tech`, seeded from the
    /// mapper's enumerated-best assignment with no tile cap.
    pub fn new(model: &'a Model, hw: HwConfig, tech: TechModel) -> Self {
        MapSearch {
            model,
            hw,
            tech,
            tile_cap: None,
            config: SearchConfig::default(),
        }
    }

    /// Seeds the search from an explorer genome: the genome's hardware
    /// config replaces `hw` and its tile cap seeds the baseline nests —
    /// the explorer → e-graph direction of the warm-start loop.
    #[must_use]
    pub fn seed_genome(mut self, genome: &Genome) -> Self {
        self.hw = genome.to_hw_config();
        self.tile_cap = genome.tile_cap;
        self
    }

    /// Replaces the seed tile cap (the enumerated baseline's cap).
    #[must_use]
    pub fn with_tile_cap(mut self, tile_cap: Option<i64>) -> Self {
        self.tile_cap = tile_cap;
        self
    }

    /// Replaces the search knobs.
    #[must_use]
    pub fn with_config(mut self, config: SearchConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs seed → saturate → extract → select against `session`,
    /// returning the priced outcome. Deterministic for a fixed
    /// (model, hardware, tech, config); the session's cache only changes
    /// how fast the answer arrives, never what it is. Spans
    /// (`mapspace/search`, `mapspace/saturate`, `mapspace/extract`) and
    /// `mapspace.*` counters go to `session.obs()`.
    pub fn run(&self, session: &EvalSession) -> RewriteOutcome {
        let obs = session.obs();
        let _span = obs.span("mapspace/search");

        // Distinct layer shapes, first-occurrence order.
        let layer_keys: Vec<u64> = self.model.layers.iter().map(layer_key).collect();
        let mut shape_keys: Vec<u64> = Vec::new();
        let mut shape_first: Vec<usize> = Vec::new(); // shape → first layer index
        let mut shape_count: Vec<i64> = Vec::new();
        let mut layer_shape: Vec<usize> = Vec::with_capacity(self.model.layers.len());
        for (i, (layer, &key)) in self.model.layers.iter().zip(&layer_keys).enumerate() {
            let s = match shape_keys.iter().position(|&k| k == key) {
                Some(s) => s,
                None => {
                    shape_keys.push(key);
                    shape_first.push(i);
                    shape_count.push(0);
                    shape_keys.len() - 1
                }
            };
            shape_count[s] += layer.count;
            layer_shape.push(s);
        }

        // Enumerated baseline: the mapper's per-layer best over the
        // hardware's own dataflow menu at the seed tile cap.
        let baseline = session.price(EvalRequestRef {
            workload: self.model,
            hw: &self.hw,
            sparse: SparseHw::dense(),
            tech: self.tech,
            objective: Objective::EDP,
            tile_cap: self.tile_cap,
            hw_key: None,
            layer_keys: Some(&layer_keys),
        });
        let enumerated_edp = baseline.cost.objectives.edp();

        // Seed one nest per distinct shape from its enumerated mapping,
        // then chain them into a model-level fusion term.
        let mut eg = EGraph::new();
        let seed_tile: u16 = match self.tile_cap {
            Some(t) if t > 0 && t <= i64::from(u16::MAX) => t as u16,
            _ => 0,
        };
        let mut roots: Vec<Id> = Vec::with_capacity(shape_keys.len());
        for (s, &first) in shape_first.iter().enumerate() {
            let kind = &self.model.layers[first].kind;
            let seed_mapping = baseline.per_layer[first].mapping;
            let (sa, sb) = seed_spatial_pair(kind, seed_mapping);
            let mut id = eg.add(ENode::Access { shape: s as u32 });
            for &axis in layer_axes(kind).iter().rev() {
                if axis == sa || axis == sb {
                    continue;
                }
                id = eg.add(ENode::Temporal {
                    axis,
                    tile: seed_tile,
                    body: id,
                });
            }
            id = eg.add(ENode::Spatial { axis: sb, body: id });
            id = eg.add(ENode::Spatial { axis: sa, body: id });
            roots.push(id);
        }
        // The model-level fusion chain is seeded for the regrouping rule
        // to work on; extraction walks the per-shape roots directly.
        let mut chain = *roots.last().expect("model has at least one layer");
        for &root in roots.iter().rev().skip(1) {
            chain = eg.add(ENode::Seq { a: root, b: chain });
        }

        let rw = RewriteConfig {
            node_budget: self.config.node_budget,
            max_rounds: self.config.max_rounds,
            tile_ladder: self.config.tile_ladder.clone(),
        };
        let stats = saturate(&mut eg, &rw, obs);

        // Extract the lowerable candidate set of every shape's class.
        let extract_span = obs.span("mapspace/extract");
        let hits_before = session.cache().hits();
        let mut candidates: Vec<Vec<Candidate>> = Vec::with_capacity(roots.len());
        let mut seeds: Vec<Candidate> = Vec::with_capacity(roots.len());
        for (s, &root) in roots.iter().enumerate() {
            let (mut cands, truncated) = lowerings(&eg, root, self.config.max_class_lowerings);
            if truncated > 0 {
                obs.count("mapspace.lowerings_truncated", truncated);
            }
            // The enumerated seed choice is always a candidate, so the
            // descent below starts exactly at the baseline assignment.
            let seed = Candidate {
                mapping: baseline.per_layer[shape_first[s]].mapping,
                tile_cap: self.tile_cap,
            };
            if !cands.contains(&seed) {
                cands.push(seed);
                cands.sort_unstable();
            }
            obs.count("mapspace.extract_candidates", cands.len() as u64);
            candidates.push(cands);
            seeds.push(seed);
        }

        // Price every distinct candidate point once into a table of
        // per-layer EDP terms, then run a coordinate descent over per-shape
        // choices (indices into `points`), minimizing whole-model EDP.
        let mut points: Vec<Candidate> = candidates.concat();
        points.sort_unstable();
        points.dedup();
        let mut pricer = Pricer::new(session, self.model, &self.hw, self.tech);
        let n_layers = self.model.layers.len();
        let mut terms: Vec<(i64, f64)> = Vec::with_capacity(points.len() * n_layers);
        for &point in &points {
            for (l, p) in self.model.layers.iter().zip(pricer.price(point, obs)) {
                terms.push((l.count * p.cycles, l.count as f64 * p.energy.total_pj()));
            }
        }
        let index = |c: &Candidate| points.binary_search(c).expect("every candidate is a point");
        let options: Vec<Vec<usize>> = candidates
            .iter()
            .map(|cands| cands.iter().map(index).collect())
            .collect();
        let mut choice: Vec<usize> = seeds.iter().map(index).collect();
        // Summed in layer order, exactly as pricing the layers one by one.
        let edp_of = |choice: &[usize]| -> f64 {
            let mut cycles: i64 = 0;
            let mut energy_pj: f64 = 0.0;
            for (i, &s) in layer_shape.iter().enumerate() {
                let (c, e) = terms[choice[s] * n_layers + i];
                cycles += c;
                energy_pj += e;
            }
            cycles as f64 * energy_pj
        };
        let mut best_edp = edp_of(&choice);
        for _pass in 0..8 {
            let mut changed = false;
            for s in 0..choice.len() {
                for &cand in &options[s] {
                    if cand == choice[s] {
                        continue;
                    }
                    let prev = choice[s];
                    choice[s] = cand;
                    let edp = edp_of(&choice);
                    if edp < best_edp {
                        best_edp = edp;
                        changed = true;
                    } else {
                        choice[s] = prev;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let choice: Vec<Candidate> = choice.into_iter().map(|p| points[p]).collect();
        obs.count(
            "mapspace.extract_cache_hits",
            session.cache().hits() - hits_before,
        );
        drop(extract_span);

        // Assemble the outcome under the final assignment.
        let per_layer: Vec<LayerPerf> = self
            .model
            .layers
            .iter()
            .enumerate()
            .map(|(i, _)| pricer.price(choice[layer_shape[i]], obs)[i])
            .collect();
        let perf = aggregate_iter(
            self.model,
            self.model
                .layers
                .iter()
                .zip(per_layer.iter())
                .map(|(l, p)| (l.count, p)),
            &self.tech,
        );
        let layers: Vec<LayerChoice> = (0..roots.len())
            .map(|s| {
                let first = shape_first[s];
                LayerChoice {
                    name: self.model.layers[first].name.clone(),
                    count: shape_count[s],
                    mapping: choice[s].mapping,
                    tile_cap: choice[s].tile_cap,
                    perf: per_layer[first],
                }
            })
            .collect();
        let mut dataflows: Vec<SpatialMapping> = layers.iter().map(|l| l.mapping).collect();
        dataflows.sort_unstable_by_key(|m| *m as u8);
        dataflows.dedup();

        RewriteOutcome {
            model: self.model.name.clone(),
            layers,
            perf,
            rewrite_edp: best_edp,
            enumerated_edp,
            stats,
            dataflows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_workloads::zoo;

    #[test]
    fn rewrite_never_loses_to_enumeration() {
        let session = EvalSession::new();
        for hw in [HwConfig::lego_256(), HwConfig::lego_icoc_1k()] {
            let model = zoo::lenet();
            let out = MapSearch::new(&model, hw, TechModel::default()).run(&session);
            assert!(
                out.rewrite_edp <= out.enumerated_edp,
                "descent starts at the enumerated assignment"
            );
            assert!(out.stats.rounds > 0);
            assert!(!out.layers.is_empty());
        }
    }

    #[test]
    fn beats_enumeration_where_the_menu_is_restricted() {
        // `lego_icoc_1k` has no OHOW template in its menu; depthwise
        // convolutions map badly onto what remains, so the rewrite
        // search (which reaches all five templates) must win.
        let session = EvalSession::new();
        let model = zoo::mobilenet_v2();
        let out =
            MapSearch::new(&model, HwConfig::lego_icoc_1k(), TechModel::default()).run(&session);
        assert!(out.improved(), "gain {:.4}", out.gain());
    }

    #[test]
    fn outcome_replays_byte_identically_even_on_a_warm_session() {
        let session = EvalSession::new();
        let model = zoo::mobilenet_v2();
        let run = || {
            MapSearch::new(&model, HwConfig::lego_icoc_1k(), TechModel::default())
                .run(&session)
                .render()
        };
        let cold = run();
        let warm = run();
        assert_eq!(cold, warm);
    }

    #[test]
    fn search_records_into_the_session_obs_without_changing_the_outcome() {
        let model = zoo::lenet();
        let search = MapSearch::new(&model, HwConfig::lego_256(), TechModel::default());
        let plain = search.run(&EvalSession::new());
        let session = EvalSession::new().with_obs(lego_obs::Obs::deterministic());
        let observed = search.run(&session);
        assert_eq!(observed.render(), plain.render());
        assert_eq!(observed.stats, plain.stats);
        let summary = session.obs().summary();
        for span in ["mapspace/search", "mapspace/saturate", "mapspace/extract"] {
            assert!(summary.spans.contains_key(span), "missing span {span}");
        }
        assert!(summary.counter("mapspace.extract_evals") > 0);
    }

    #[test]
    fn suggest_genome_carries_the_extracted_dataflows() {
        let session = EvalSession::new();
        let model = zoo::mobilenet_v2();
        let out =
            MapSearch::new(&model, HwConfig::lego_icoc_1k(), TechModel::default()).run(&session);
        let base = Genome::lego_256_baseline();
        let suggested = out.suggest_genome(&base);
        for m in &out.dataflows {
            assert!(suggested.dataflows.contains(*m));
        }
    }
}
