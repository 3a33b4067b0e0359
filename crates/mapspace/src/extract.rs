//! Cost extraction: lowering saturated e-classes to priced mappings.
//!
//! Extraction happens in two stages. [`lowerings`] walks one shape's
//! e-class bottom-up and enumerates every *lowerable* nest it contains —
//! a nest whose spatial axis pair the simulator has a hardware template
//! for ([`lower_spatial`]) — as a [`Candidate`] (template + tile cap).
//! [`Pricer`] then prices candidates through a warm [`EvalSession`]: each
//! distinct `(mapping, tile_cap)` point costs one whole-model evaluation
//! under a hardware variant whose dataflow menu is pinned to exactly that
//! mapping, which reuses the shared [`EvalCache`](lego_eval::EvalCache)
//! and is byte-deterministic. Because the menu only steers *mapping
//! selection* (never area, peak power, or per-layer simulation), the
//! forced variant prices each layer exactly as the original hardware
//! would under that mapping.

use crate::egraph::EGraph;
use crate::term::{lower_spatial, Axis, ENode, Id};
use lego_eval::{EvalRequestRef, EvalSession, Objective};
use lego_model::{HwConfig, SparseHw, SpatialMapping, TechModel};
use lego_obs::Obs;
use lego_sim::LayerPerf;
use lego_workloads::Model;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<lego_eval::FnvHasher>>;

/// One lowerable mapping choice extracted from an e-class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Candidate {
    /// The hardware template the nest's spatial pair lowers to.
    pub mapping: SpatialMapping,
    /// L1 tile-edge cap: the tightest tile annotation in the nest
    /// (`None` = every temporal loop is a full sweep).
    pub tile_cap: Option<i64>,
}

/// A partial lowering of the nest below some class, packed so that integer
/// order compares the fields from the top: bits 21 and up hold `1 + axis`
/// of the first spatial binding and bits 17–20 that of the second (0 =
/// unbound); the low 17 bits hold the tightest tile plus one (0 = uncapped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct State(u32);

/// Every axis, indexed by its declaration order (`axis as u32`).
const AXES: [Axis; 8] = {
    use Axis::*;
    [M, N, K, Oh, Ow, Ic, Oc, Kh]
};
const TILE_BITS: u32 = 0x1_FFFF;

impl State {
    const LEAF: State = State(0);

    /// The `1 + axis` codes of the two spatial bindings (0 = unbound).
    fn spatial(self) -> (u32, u32) {
        (self.0 >> 21, (self.0 >> 17) & 0xF)
    }

    fn bind(self, axis: Axis) -> Option<State> {
        let code = 1 + axis as u32;
        match self.spatial() {
            (0, _) => Some(State(self.0 | (code << 21))),
            (first, 0) if first != code => Some(State(self.0 | (code << 17))),
            // Three spatial bindings (or a duplicate) never lower.
            _ => None,
        }
    }

    fn cap(self, tile: u16) -> State {
        let prev = self.0 & TILE_BITS;
        let code = 1 + u32::from(tile);
        if tile == 0 || (prev != 0 && prev <= code) {
            return self;
        }
        State((self.0 & !TILE_BITS) | code)
    }

    /// The template both spatial bindings lower to, with the tile cap.
    fn candidate(self) -> Option<Candidate> {
        let (a, b) = match self.spatial() {
            (0, _) | (_, 0) => return None,
            (a, b) => (AXES[a as usize - 1], AXES[b as usize - 1]),
        };
        let tile = self.0 & TILE_BITS;
        Some(Candidate {
            mapping: lower_spatial(a, b)?,
            tile_cap: (tile != 0).then(|| i64::from(tile - 1)),
        })
    }
}

/// Enumerates the lowerable candidates of `root`'s class, capped at
/// `max` distinct partial states per class. Returns the sorted candidate
/// set and how many states were dropped to the cap (0 = exhaustive).
pub fn lowerings(eg: &EGraph, root: Id, max: usize) -> (Vec<Candidate>, u64) {
    let mut memo: FnvMap<u32, Option<Vec<State>>> = FnvMap::default();
    let mut truncated = 0u64;
    let root = class_states(eg, root, max, &mut memo, &mut truncated);
    let mut out: Vec<Candidate> = states_of(&memo, root)
        .iter()
        .filter_map(|s| s.candidate())
        .collect();
    out.sort_unstable();
    out.dedup();
    (out, truncated)
}

/// The memoized states of a visited class; empty while it is still in
/// progress, since a cyclic path contributes no finite nest.
fn states_of(memo: &FnvMap<u32, Option<Vec<State>>>, class: u32) -> &[State] {
    memo[&class].as_deref().unwrap_or(&[])
}

/// Memoizes the states of `class` (unless already visited or in
/// progress) and returns its canonical id, the key to read them under.
fn class_states(
    eg: &EGraph,
    class: Id,
    max: usize,
    memo: &mut FnvMap<u32, Option<Vec<State>>>,
    truncated: &mut u64,
) -> u32 {
    let class = eg.find(class).0;
    if memo.contains_key(&class) {
        return class;
    }
    // In-progress marker, until the class's states are complete.
    memo.insert(class, None);
    let mut states: Vec<State> = Vec::new();
    for node in eg.nodes_of(Id(class)) {
        match *node {
            ENode::Access { .. } => states.push(State::LEAF),
            ENode::Temporal { tile, body, .. } => {
                let body = class_states(eg, body, max, memo, truncated);
                states.extend(states_of(memo, body).iter().map(|s| s.cap(tile)));
            }
            ENode::Spatial { axis, body } => {
                let body = class_states(eg, body, max, memo, truncated);
                states.extend(states_of(memo, body).iter().filter_map(|s| s.bind(axis)));
            }
            // Fusion groups are model-level terms, not layer nests.
            ENode::Seq { .. } => {}
        }
    }
    states.sort_unstable();
    states.dedup();
    if states.len() > max {
        *truncated += (states.len() - max) as u64;
        states.truncate(max);
    }
    memo.insert(class, Some(states));
    class
}

/// Prices `(mapping, tile_cap)` points through a warm [`EvalSession`] by
/// pinning the hardware's dataflow menu to one mapping per evaluation.
pub struct Pricer<'a> {
    session: &'a EvalSession,
    model: &'a Model,
    hw: &'a HwConfig,
    tech: TechModel,
    layer_keys: Vec<u64>,
    /// `(mapping, tile_cap)` → per-layer performance, memoized.
    priced: FnvMap<(SpatialMapping, Option<i64>), Vec<LayerPerf>>,
    evals: u64,
}

impl<'a> Pricer<'a> {
    /// A pricer for `model` on `hw` under `tech`.
    pub fn new(
        session: &'a EvalSession,
        model: &'a Model,
        hw: &'a HwConfig,
        tech: TechModel,
    ) -> Self {
        Pricer {
            session,
            model,
            hw,
            tech,
            layer_keys: model.layers.iter().map(lego_eval::layer_key).collect(),
            priced: FnvMap::default(),
            evals: 0,
        }
    }

    /// Whole-model evaluations issued (cache-hit or not).
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Per-layer performance of every layer priced under `candidate`,
    /// index-aligned with `model.layers`.
    pub fn price(&mut self, candidate: Candidate, obs: &Obs) -> &[LayerPerf] {
        self.priced
            .entry((candidate.mapping, candidate.tile_cap))
            .or_insert_with(|| {
                let variant = HwConfig {
                    dataflows: vec![candidate.mapping],
                    ..self.hw.clone()
                };
                let priced = self.session.price(EvalRequestRef {
                    workload: self.model,
                    hw: &variant,
                    sparse: SparseHw::dense(),
                    tech: self.tech,
                    objective: Objective::EDP,
                    tile_cap: candidate.tile_cap,
                    hw_key: None,
                    layer_keys: Some(&self.layer_keys),
                });
                self.evals += 1;
                obs.count("mapspace.extract_evals", 1);
                priced.per_layer
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::{saturate, RewriteConfig};

    fn seed_conv_nest(eg: &mut EGraph, tile: u16) -> Id {
        let leaf = eg.add(ENode::Access { shape: 0 });
        let mut id = leaf;
        for axis in [Axis::Kh, Axis::Ow, Axis::Oh] {
            id = eg.add(ENode::Temporal {
                axis,
                tile,
                body: id,
            });
        }
        for axis in [Axis::Oc, Axis::Ic] {
            id = eg.add(ENode::Spatial { axis, body: id });
        }
        id
    }

    #[test]
    fn seed_nest_lowers_to_its_seed_mapping() {
        let mut eg = EGraph::new();
        let root = seed_conv_nest(&mut eg, 64);
        let (cands, truncated) = lowerings(&eg, root, 64);
        assert_eq!(truncated, 0);
        assert_eq!(
            cands,
            vec![Candidate {
                mapping: SpatialMapping::ConvIcOc,
                tile_cap: Some(64),
            }]
        );
    }

    #[test]
    fn saturation_reaches_every_conv_template() {
        let mut eg = EGraph::new();
        let root = seed_conv_nest(&mut eg, 0);
        saturate(&mut eg, &RewriteConfig::default(), &Obs::disabled());
        let (cands, _) = lowerings(&eg, root, 4096);
        let mappings: Vec<SpatialMapping> = {
            let mut m: Vec<_> = cands.iter().map(|c| c.mapping).collect();
            m.sort_unstable_by_key(|m| *m as u8);
            m.dedup();
            m
        };
        for want in SpatialMapping::ALL {
            assert!(mappings.contains(&want), "missing {want:?} in {mappings:?}");
        }
        // The tile ladder is reachable too.
        for cap in [None, Some(32), Some(64), Some(128), Some(256)] {
            assert!(
                cands.iter().any(|c| c.tile_cap == cap),
                "missing cap {cap:?}"
            );
        }
    }
}
