//! The rewrite-rule set and the saturation loop.
//!
//! Four rule families, all semantic equalities over a layer's iteration
//! space (they never change *what* is computed, only how the loops are
//! arranged — which is exactly what lets the e-graph union them and the
//! extractor pick the cheapest arrangement):
//!
//! 1. **Loop interchange** — adjacent temporal loops commute:
//!    `for a { for b { … } } ≡ for b { for a { … } }`.
//! 2. **Tile split / merge** — an untiled temporal sweep equals the same
//!    sweep split into tiles of any ladder edge, and vice versa:
//!    `for a { … } ≡ for a.tile(T) { … }`.
//! 3. **Spatial ↔ temporal swap** — which axes are bound to the PE array
//!    is a mapping choice, not a semantic one; a spatial loop may trade
//!    places with a temporal loop beneath it.
//! 4. **Fusion regrouping** — sequential composition reassociates:
//!    `(a; b); c ≡ a; (b; c)`.
//!
//! [`saturate`] applies all families to a fixpoint under a node budget,
//! recording rounds/nodes/classes/unions through `lego-obs`.

use crate::egraph::EGraph;
use crate::term::{ENode, Id};
use lego_obs::Obs;

/// Knobs for [`saturate`].
#[derive(Debug, Clone)]
pub struct RewriteConfig {
    /// Stop growing once the graph holds this many nodes.
    pub node_budget: usize,
    /// Upper bound on saturation rounds (a safety net; small mapping
    /// spaces saturate in 3–5 rounds).
    pub max_rounds: usize,
    /// Tile edges the split rule may introduce; an edge outside
    /// `1..=u16::MAX` is not a tile an [`ENode::Temporal`] can carry and
    /// is ignored.
    pub tile_ladder: Vec<i64>,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig {
            node_budget: 6144,
            max_rounds: 8,
            tile_ladder: vec![32, 64, 128, 256],
        }
    }
}

/// What one saturation run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaturationStats {
    /// Rounds executed before the fixpoint (or a stop condition).
    pub rounds: u64,
    /// Resident distinct nodes after saturation.
    pub nodes: u64,
    /// Distinct e-classes after saturation.
    pub classes: u64,
    /// Class merges performed (rule unions + congruence-induced).
    pub unions: u64,
    /// Structurally equal nodes deduplicated by hash-consing.
    pub dedup_hits: u64,
    /// Whether growth stopped because the node budget was reached.
    pub budget_hit: bool,
    /// Whether a true fixpoint was reached (no new facts in a round).
    pub saturated: bool,
}

/// Applies the rule set to saturation under `config.node_budget`,
/// returning the run's statistics. Deterministic: rules match over the
/// classes in id order, each class's nodes sorted, and all unions apply
/// in match order. A round matches in the class table itself: while it
/// runs, `add` only appends new classes and unions wait in `pending`, so
/// the lists of the ids minted before the round cannot change under the
/// walk. Ids minted during the round read as empty, as in a snapshot.
pub fn saturate(eg: &mut EGraph, config: &RewriteConfig, obs: &Obs) -> SaturationStats {
    let _span = obs.span("mapspace/saturate");
    let ladder: Vec<u16> = config
        .tile_ladder
        .iter()
        .filter_map(|&edge| u16::try_from(edge).ok().filter(|&e| e > 0))
        .collect();
    let mut stats = SaturationStats::default();
    for _ in 0..config.max_rounds {
        stats.rounds += 1;
        obs.count("mapspace.rounds", 1);
        let before_nodes = eg.node_count();
        let before_unions = eg.union_count();
        let minted = eg.minted();
        let mut pending: Vec<(Id, Id)> = Vec::new();
        'matching: for class in (0..minted as u32).map(Id) {
            for i in 0..eg.nodes_below(class, minted).len() {
                if eg.node_count() >= config.node_budget {
                    stats.budget_hit = true;
                    break 'matching;
                }
                match eg.nodes_below(class, minted)[i] {
                    ENode::Temporal { axis, tile, body } => {
                        // Tile split: introduce each ladder edge.
                        if tile == 0 {
                            for &edge in &ladder {
                                let split = eg.add(ENode::Temporal {
                                    axis,
                                    tile: edge,
                                    body,
                                });
                                queue(&mut pending, class, split);
                            }
                        } else {
                            // Tile merge: fuse the tiles back into one sweep.
                            let merged = eg.add(ENode::Temporal {
                                axis,
                                tile: 0,
                                body,
                            });
                            queue(&mut pending, class, merged);
                        }
                        // Loop interchange with the temporal loop below.
                        let below = eg.find(body);
                        for j in 0..eg.nodes_below(below, minted).len() {
                            if let ENode::Temporal {
                                axis: b_axis,
                                tile: b_tile,
                                body: inner_body,
                            } = eg.nodes_below(below, minted)[j]
                            {
                                if b_axis == axis {
                                    continue;
                                }
                                let new_inner = eg.add(ENode::Temporal {
                                    axis,
                                    tile,
                                    body: inner_body,
                                });
                                let swapped = eg.add(ENode::Temporal {
                                    axis: b_axis,
                                    tile: b_tile,
                                    body: new_inner,
                                });
                                queue(&mut pending, class, swapped);
                            }
                        }
                    }
                    ENode::Spatial { axis, body } => {
                        let below = eg.find(body);
                        for j in 0..eg.nodes_below(below, minted).len() {
                            match eg.nodes_below(below, minted)[j] {
                                // Spatial ↔ temporal swap one level down.
                                ENode::Temporal {
                                    axis: t_axis,
                                    body: t_body,
                                    ..
                                } if t_axis != axis => {
                                    let demoted = eg.add(ENode::Temporal {
                                        axis,
                                        tile: 0,
                                        body: t_body,
                                    });
                                    let swapped = eg.add(ENode::Spatial {
                                        axis: t_axis,
                                        body: demoted,
                                    });
                                    queue(&mut pending, class, swapped);
                                }
                                // Swap across the inner spatial loop, so the
                                // *outer* spatial axis can change too.
                                ENode::Spatial {
                                    axis: s_axis,
                                    body: s_body,
                                } => {
                                    let below2 = eg.find(s_body);
                                    for k in 0..eg.nodes_below(below2, minted).len() {
                                        if let ENode::Temporal {
                                            axis: t_axis,
                                            body: t_body,
                                            ..
                                        } = eg.nodes_below(below2, minted)[k]
                                        {
                                            if t_axis == axis || t_axis == s_axis {
                                                continue;
                                            }
                                            let demoted = eg.add(ENode::Temporal {
                                                axis,
                                                tile: 0,
                                                body: t_body,
                                            });
                                            let mid = eg.add(ENode::Spatial {
                                                axis: s_axis,
                                                body: demoted,
                                            });
                                            let swapped = eg.add(ENode::Spatial {
                                                axis: t_axis,
                                                body: mid,
                                            });
                                            queue(&mut pending, class, swapped);
                                        }
                                    }
                                }
                                _ => {}
                            }
                        }
                    }
                    ENode::Seq { a, b } => {
                        // (x; y); b ≡ x; (y; b)
                        let below = eg.find(a);
                        for j in 0..eg.nodes_below(below, minted).len() {
                            if let ENode::Seq { a: x, b: y } = eg.nodes_below(below, minted)[j] {
                                let tail = eg.add(ENode::Seq { a: y, b });
                                let rot = eg.add(ENode::Seq { a: x, b: tail });
                                queue(&mut pending, class, rot);
                            }
                        }
                        // a; (x; y) ≡ (a; x); y
                        let below = eg.find(b);
                        for j in 0..eg.nodes_below(below, minted).len() {
                            if let ENode::Seq { a: x, b: y } = eg.nodes_below(below, minted)[j] {
                                let head = eg.add(ENode::Seq { a, b: x });
                                let rot = eg.add(ENode::Seq { a: head, b: y });
                                queue(&mut pending, class, rot);
                            }
                        }
                    }
                    ENode::Access { .. } => {}
                }
            }
        }
        for (a, b) in pending {
            eg.union(a, b);
        }
        eg.rebuild();
        let grew = eg.node_count() != before_nodes || eg.union_count() != before_unions;
        if !grew {
            stats.saturated = true;
            break;
        }
        if stats.budget_hit {
            break;
        }
    }
    stats.nodes = eg.node_count() as u64;
    stats.classes = eg.class_count() as u64;
    stats.unions = eg.union_count();
    stats.dedup_hits = eg.dedup_hits();
    obs.count("mapspace.nodes", stats.nodes);
    obs.count("mapspace.classes", stats.classes);
    obs.count("mapspace.unions", stats.unions);
    obs.count("mapspace.dedup_hits", stats.dedup_hits);
    stats
}

/// Queues `class ≡ rewritten` unless `add` returned `class` itself.
fn queue(pending: &mut Vec<(Id, Id)>, class: Id, rewritten: Id) {
    if rewritten != class {
        pending.push((class, rewritten));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Axis;

    fn nest(eg: &mut EGraph, spatial: &[Axis], temporal: &[Axis]) -> Id {
        let mut id = eg.add(ENode::Access { shape: 0 });
        for &axis in temporal.iter().rev() {
            id = eg.add(ENode::Temporal {
                axis,
                tile: 0,
                body: id,
            });
        }
        for &axis in spatial.iter().rev() {
            id = eg.add(ENode::Spatial { axis, body: id });
        }
        id
    }

    #[test]
    fn interchange_merges_permuted_nests() {
        let mut eg = EGraph::new();
        let a = nest(&mut eg, &[], &[Axis::M, Axis::N, Axis::K]);
        let b = nest(&mut eg, &[], &[Axis::K, Axis::N, Axis::M]);
        assert_ne!(eg.find(a), eg.find(b));
        let stats = saturate(&mut eg, &RewriteConfig::default(), &Obs::disabled());
        assert!(stats.saturated);
        assert_eq!(eg.find(a), eg.find(b), "all permutations are one class");
    }

    #[test]
    fn swap_reaches_every_spatial_pair() {
        let mut eg = EGraph::new();
        let mn = nest(&mut eg, &[Axis::M, Axis::N], &[Axis::K]);
        let kn = nest(&mut eg, &[Axis::K, Axis::N], &[Axis::M]);
        let mk = nest(&mut eg, &[Axis::M, Axis::K], &[Axis::N]);
        saturate(&mut eg, &RewriteConfig::default(), &Obs::disabled());
        assert_eq!(eg.find(mn), eg.find(kn));
        assert_eq!(eg.find(mn), eg.find(mk));
    }

    #[test]
    fn seq_regrouping_merges_associations() {
        let mut eg = EGraph::new();
        let l: Vec<Id> = (0..3).map(|i| eg.add(ENode::Access { shape: i })).collect();
        let ab = eg.add(ENode::Seq { a: l[0], b: l[1] });
        let left = eg.add(ENode::Seq { a: ab, b: l[2] });
        let bc = eg.add(ENode::Seq { a: l[1], b: l[2] });
        let right = eg.add(ENode::Seq { a: l[0], b: bc });
        saturate(&mut eg, &RewriteConfig::default(), &Obs::disabled());
        assert_eq!(eg.find(left), eg.find(right));
    }

    #[test]
    fn budget_caps_growth() {
        let mut eg = EGraph::new();
        nest(
            &mut eg,
            &[Axis::Ic, Axis::Oc],
            &[Axis::Oh, Axis::Ow, Axis::Kh],
        );
        let tight = RewriteConfig {
            node_budget: 12,
            ..Default::default()
        };
        let stats = saturate(&mut eg, &tight, &Obs::disabled());
        assert!(stats.budget_hit);
        // The budget is a growth cap, not a hard ceiling: one matching
        // sweep may overshoot by the rewrites already queued.
        assert!(eg.node_count() < 64, "{}", eg.node_count());
    }

    #[test]
    fn ladder_edges_outside_u16_are_ignored() {
        let run = |tile_ladder: Vec<i64>| {
            let mut eg = EGraph::new();
            nest(&mut eg, &[Axis::Ic, Axis::Oc], &[Axis::Oh, Axis::Kh]);
            let config = RewriteConfig {
                tile_ladder,
                ..Default::default()
            };
            let stats = saturate(&mut eg, &config, &Obs::disabled());
            (stats, eg.class_snapshot())
        };
        // Cast to `u16`, 65536 would be an untiled split and 70000 and -32
        // would be tiles of 4464 and 65504.
        assert_eq!(run(vec![0, -32, 65536, 70000, 64]), run(vec![64]));
    }

    #[test]
    fn saturation_replays_byte_identically() {
        let run = || {
            let mut eg = EGraph::new();
            let a = nest(
                &mut eg,
                &[Axis::Ic, Axis::Oc],
                &[Axis::Oh, Axis::Ow, Axis::Kh],
            );
            let b = nest(&mut eg, &[Axis::M, Axis::N], &[Axis::K]);
            let root = eg.add(ENode::Seq { a, b });
            let stats = saturate(&mut eg, &RewriteConfig::default(), &Obs::disabled());
            (
                format!("{stats:?}"),
                format!("{:?}", eg.class_snapshot()),
                eg.find(root),
            )
        };
        assert_eq!(run(), run());
    }
}
