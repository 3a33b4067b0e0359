//! `mapspace_zoo`: equality-saturation mapping search, one cold cell at a
//! time — the slowest surface of the stack.

use super::{hit_ratio, sweep_cases, SweepStats, Tally, Workload};
use crate::roster::shuffle;
use crate::stats::{geomean, residual_share};
use crate::trace::{replay_share_per_op, Span, Tracer};
use lego_eval::{layer_key, EvalRequestRef, EvalSession, Objective};
use lego_explorer::SplitMix64;
use lego_mapspace::{
    layer_axes, lowerings, saturate, seed_spatial_pair, Candidate, EGraph, ENode, Id, LayerChoice,
    MapSearch, Pricer, RewriteConfig, RewriteOutcome, SearchConfig,
};
use lego_model::{HwConfig, SparseHw, SpatialMapping, TechModel};
use lego_obs::Obs;
use lego_sim::{aggregate_iter, LayerPerf};
use lego_workloads::{zoo, Model};

struct Cell {
    /// `model@hardware`, the canonical order of `quality_ratio`.
    name: String,
    model: Model,
    hw: HwConfig,
    /// `RewriteOutcome::render()` of the first search.
    rendered: String,
    /// `rewrite_edp / enumerated_edp`.
    edp_ratio: f64,
}

pub struct MapspaceZoo {
    cells: Vec<Cell>,
    setup_failures: u64,
    tally: Tally,
}

fn search(model: &Model, hw: &HwConfig) -> RewriteOutcome {
    MapSearch::new(model, hw.clone(), TechModel::default()).run(&EvalSession::new())
}

impl MapspaceZoo {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let mut models = vec![
            zoo::lenet(),
            zoo::mobilenet_v2(),
            zoo::resnet50(),
            zoo::bert_base(),
            zoo::efficientnet_v2(),
            zoo::stable_diffusion(),
        ];
        if smoke {
            models.truncate(2);
        }
        let mut setup_failures = 0;
        let mut cells = Vec::new();
        for model in models {
            for (hw_name, hw) in [
                ("lego_256", HwConfig::lego_256()),
                ("lego_icoc_1k", HwConfig::lego_icoc_1k()),
            ] {
                let outcome = search(&model, &hw);
                if outcome.rewrite_edp > outcome.enumerated_edp {
                    setup_failures += 1;
                }
                cells.push(Cell {
                    name: format!("{}@{hw_name}", model.name),
                    rendered: outcome.render(),
                    edp_ratio: outcome.rewrite_edp / outcome.enumerated_edp,
                    model: model.clone(),
                    hw,
                });
            }
        }
        shuffle(&mut cells, &mut SplitMix64::new(seed));
        MapspaceZoo {
            cells,
            setup_failures,
            tally: Tally::default(),
        }
    }
}

/// `MapSearch::run` with default knobs and no seed tile cap, rebuilt from
/// the public pieces it is made of — baseline evaluation, seeding,
/// `saturate`, `lowerings`, `Pricer` — a span around each stage.
fn replay_search(
    tr: &mut Tracer,
    tally: &mut Tally,
    model: &Model,
    hw: &HwConfig,
    session: &EvalSession,
) -> RewriteOutcome {
    let tech = TechModel::default();
    let config = SearchConfig::default();
    let obs = Obs::disabled();

    // Distinct layer shapes, first-occurrence order.
    let layer_keys: Vec<u64> = model.layers.iter().map(layer_key).collect();
    let mut shape_keys: Vec<u64> = Vec::new();
    let mut shape_first: Vec<usize> = Vec::new();
    let mut shape_count: Vec<i64> = Vec::new();
    let mut layer_shape: Vec<usize> = Vec::with_capacity(model.layers.len());
    for (i, layer) in model.layers.iter().enumerate() {
        let key = layer_keys[i];
        let s = shape_keys
            .iter()
            .position(|&k| k == key)
            .unwrap_or_else(|| {
                shape_keys.push(key);
                shape_first.push(i);
                shape_count.push(0);
                shape_keys.len() - 1
            });
        shape_count[s] += layer.count;
        layer_shape.push(s);
    }

    let baseline = tr.span("mapspace.baseline_eval", |_| {
        session.evaluate_view(EvalRequestRef {
            workload: model,
            hw,
            sparse: SparseHw::dense(),
            tech,
            objective: Objective::EDP,
            tile_cap: None,
            hw_key: None,
            layer_keys: Some(&layer_keys),
        })
    });
    let enumerated_edp = baseline.cost.objectives.edp();
    let seed_of = |s: usize| Candidate {
        mapping: baseline.per_layer[shape_first[s]].perf.mapping,
        tile_cap: None,
    };

    let (mut eg, roots) = tr.span("mapspace.seed", |_| {
        let mut eg = EGraph::new();
        let mut roots: Vec<Id> = Vec::with_capacity(shape_keys.len());
        for (s, &first) in shape_first.iter().enumerate() {
            let kind = &model.layers[first].kind;
            let (sa, sb) = seed_spatial_pair(kind, seed_of(s).mapping);
            let mut id = eg.add(ENode::Access { shape: s as u32 });
            for &axis in layer_axes(kind).iter().rev() {
                if axis != sa && axis != sb {
                    id = eg.add(ENode::Temporal {
                        axis,
                        tile: 0,
                        body: id,
                    });
                }
            }
            id = eg.add(ENode::Spatial { axis: sb, body: id });
            roots.push(eg.add(ENode::Spatial { axis: sa, body: id }));
        }
        let mut chain = *roots.last().expect("model has at least one layer");
        for &root in roots.iter().rev().skip(1) {
            chain = eg.add(ENode::Seq { a: root, b: chain });
        }
        (eg, roots)
    });

    let stats = tr.span("mapspace.saturate", |_| {
        saturate(
            &mut eg,
            &RewriteConfig {
                node_budget: config.node_budget,
                max_rounds: config.max_rounds,
                tile_ladder: config.tile_ladder.clone(),
            },
            &obs,
        )
    });

    let candidates: Vec<Vec<Candidate>> = tr.span("mapspace.lowerings", |_| {
        roots
            .iter()
            .enumerate()
            .map(|(s, &root)| {
                let (mut cands, _truncated) = lowerings(&eg, root, config.max_class_lowerings);
                if !cands.contains(&seed_of(s)) {
                    cands.push(seed_of(s));
                    cands.sort_unstable();
                }
                cands
            })
            .collect()
    });

    // Coordinate descent over per-shape choices from the enumerated
    // assignment, then the outcome under the final assignment.
    let (choice, best_edp, per_layer, evals) = tr.span("mapspace.price", |_| {
        let mut pricer = Pricer::new(session, model, hw, tech);
        let mut choice: Vec<Candidate> = (0..roots.len()).map(seed_of).collect();
        let edp_of = |pricer: &mut Pricer<'_>, choice: &[Candidate]| -> f64 {
            let mut cycles: i64 = 0;
            let mut energy_pj: f64 = 0.0;
            for (i, layer) in model.layers.iter().enumerate() {
                let perf = pricer.price(choice[layer_shape[i]], &obs)[i];
                cycles += layer.count * perf.cycles;
                energy_pj += layer.count as f64 * perf.energy.total_pj();
            }
            cycles as f64 * energy_pj
        };
        let mut best_edp = edp_of(&mut pricer, &choice);
        for _pass in 0..8 {
            let mut changed = false;
            for s in 0..choice.len() {
                for &cand in &candidates[s] {
                    if cand == choice[s] {
                        continue;
                    }
                    let prev = choice[s];
                    choice[s] = cand;
                    let edp = edp_of(&mut pricer, &choice);
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
        let per_layer: Vec<LayerPerf> = (0..model.layers.len())
            .map(|i| pricer.price(choice[layer_shape[i]], &obs)[i])
            .collect();
        (choice, best_edp, per_layer, pricer.evals())
    });

    tally.add(
        "mapspace.candidates",
        candidates.iter().map(Vec::len).sum::<usize>() as f64,
    );
    tally.add("mapspace.pricer_evals", evals as f64);

    let perf = aggregate_iter(
        model,
        model
            .layers
            .iter()
            .zip(&per_layer)
            .map(|(l, p)| (l.count, p)),
        &tech,
    );
    let layers: Vec<LayerChoice> = (0..roots.len())
        .map(|s| LayerChoice {
            name: model.layers[shape_first[s]].name.clone(),
            count: shape_count[s],
            mapping: choice[s].mapping,
            tile_cap: choice[s].tile_cap,
            perf: per_layer[shape_first[s]],
        })
        .collect();
    let mut dataflows: Vec<SpatialMapping> = layers.iter().map(|l| l.mapping).collect();
    dataflows.sort_unstable_by_key(|m| *m as u8);
    dataflows.dedup();
    RewriteOutcome {
        model: model.name.clone(),
        layers,
        perf,
        rewrite_edp: best_edp,
        enumerated_edp,
        stats,
        dataflows,
    }
}

impl Workload for MapspaceZoo {
    fn sweep(&mut self, tr: &mut Tracer, lat_ms: &mut Vec<f64>) -> SweepStats {
        let tally = &mut self.tally;
        if tr.enabled() {
            tally.add("sweeps", 1.0);
        }
        sweep_cases(
            &self.cells,
            tr,
            lat_ms,
            |tr, cell| tr.span("mapspace.search", |_| search(&cell.model, &cell.hw)),
            |cell, outcome| {
                let same = outcome.rewrite_edp <= outcome.enumerated_edp
                    && outcome.render() == cell.rendered;
                same.then_some(1)
            },
            |tr, cell, outcome| {
                let session = EvalSession::new();
                let replayed = tr.span("mapspace.replay", |tr| {
                    replay_search(tr, tally, &cell.model, &cell.hw, &session)
                });
                let t = &mut *tally;
                t.add("mapspace.egraph_nodes", outcome.stats.nodes as f64);
                t.add("mapspace.egraph_classes", outcome.stats.classes as f64);
                t.add("mapspace.rounds", outcome.stats.rounds as f64);
                t.add("mapspace.unions", outcome.stats.unions as f64);
                t.add("mapspace.dedup_hits", outcome.stats.dedup_hits as f64);
                t.add("cells_improved", f64::from(u8::from(outcome.improved())));
                let gauges = session.cache().gauges();
                t.add("eval.cache_hits", gauges.hits as f64);
                t.add("eval.cache_misses", gauges.misses as f64);
                t.add("eval.cache_resident_bytes", gauges.resident_bytes as f64);
                replayed.render() == cell.rendered
            },
        )
    }

    fn probe(&mut self, _tr: &mut Tracer) -> u64 {
        // Nothing lies beside the search path.
        0
    }

    fn quality_ratio(&self) -> f64 {
        // Cell-name order, not roster order: the seed must not reorder it.
        let mut by_name: Vec<(&str, f64)> = self
            .cells
            .iter()
            .map(|c| (c.name.as_str(), c.edp_ratio))
            .collect();
        by_name.sort_unstable_by_key(|&(name, _)| name);
        geomean(&by_name.iter().map(|&(_, r)| r).collect::<Vec<_>>())
    }

    fn layer_values(&self, spans: &[Span]) -> Vec<(&'static str, f64)> {
        let t = &self.tally;
        let hits = t.sum("eval.cache_hits");
        let mut values = t.per_op();
        // Cells of one sweep that beat enumeration: a count per sweep.
        values.push((
            "mapspace.cells_improved",
            t.sum("cells_improved") / t.sum("sweeps").max(1.0),
        ));
        values.push((
            "eval.cache_hit_ratio",
            hit_ratio(hits, t.sum("eval.cache_misses")),
        ));
        values.push((
            "mapspace.replay_residual_share",
            residual_share(&replay_share_per_op(
                spans,
                "mapspace.replay",
                "mapspace.search",
            )),
        ));
        values
    }

    fn setup_failures(&self) -> u64 {
        self.setup_failures
    }
}
