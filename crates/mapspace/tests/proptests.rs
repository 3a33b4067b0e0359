//! Property tests for the `lego-mapspace` e-graph invariants
//! (satellite 3): union-find find/union laws under arbitrary op
//! sequences, hash-consing identity, congruence closure against a naive
//! reference, byte-identical saturation replay, and rewrite soundness —
//! every extracted candidate lowers to a real hardware template and
//! prices to a finite EDP no worse than enumeration. On nests small
//! enough to brute-force, extraction equals a BFS over concrete trees.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use lego_eval::EvalSession;
use lego_mapspace::{
    layer_axes, lower_spatial, lowerings, saturate, Axis, Candidate, EGraph, ENode, Id, MapSearch,
    RewriteConfig, SearchConfig, UnionFind,
};
use lego_model::HwConfig;
use lego_model::TechModel;
use lego_obs::Obs;
use lego_workloads::zoo;
use proptest::prelude::*;
use proptest::{collection, sample};

const CONV_AXES: [Axis; 5] = [Axis::Oh, Axis::Ow, Axis::Ic, Axis::Oc, Axis::Kh];

/// One loop wrapped around the nest under construction: which axis,
/// whether it binds spatially, and (for temporal loops) the tile edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Wrap {
    axis: Axis,
    spatial: bool,
    tile: u16,
}

fn wrap_strategy() -> impl Strategy<Value = Wrap> {
    (
        sample::select(CONV_AXES.to_vec()),
        sample::select(vec![false, true]),
        sample::select(vec![0u16, 32, 64, 128, 256]),
    )
        .prop_map(|(axis, spatial, tile)| Wrap {
            axis,
            spatial,
            tile,
        })
}

/// Builds a nest from the wrap sequence, innermost (the access leaf)
/// outward, returning the root class.
fn build_nest(eg: &mut EGraph, shape: u32, wraps: &[Wrap]) -> Id {
    let mut body = eg.add(ENode::Access { shape });
    for w in wraps {
        body = if w.spatial {
            eg.add(ENode::Spatial { axis: w.axis, body })
        } else {
            eg.add(ENode::Temporal {
                axis: w.axis,
                tile: w.tile,
                body,
            })
        };
    }
    body
}

/// Congruence closure the naive way, the reference for
/// `EGraph::rebuild`: from `unions`, repeatedly merge the classes of any
/// two nodes whose children are in the same classes, until nothing
/// changes. Returns every id's label: the minimum id of its class.
fn naive_closure(nodes: &[(ENode, Id)], unions: &[(Id, Id)], n: usize) -> Vec<u32> {
    let mut label: Vec<u32> = (0..n as u32).collect();
    let merge = |label: &mut [u32], a: Id, b: Id| {
        let (x, y) = (label[a.0 as usize], label[b.0 as usize]);
        for l in label.iter_mut() {
            if *l == x.max(y) {
                *l = x.min(y);
            }
        }
        x != y
    };
    for &(a, b) in unions {
        merge(&mut label, a, b);
    }
    loop {
        let canon: Vec<ENode> = nodes
            .iter()
            .map(|(node, _)| node.map_children(|c| Id(label[c.0 as usize])))
            .collect();
        let mut changed = false;
        for i in 0..nodes.len() {
            for j in i + 1..nodes.len() {
                if canon[i] == canon[j] {
                    changed |= merge(&mut label, nodes[i].1, nodes[j].1);
                }
            }
        }
        if !changed {
            return label;
        }
    }
}

/// The class table rebuilt from scratch: every node of `classes`
/// canonicalized under `eg`'s partition, grouped by representative, each
/// class sorted and deduplicated.
fn regroup(eg: &EGraph, classes: &[(Id, Vec<ENode>)]) -> Vec<(Id, Vec<ENode>)> {
    let mut grouped: BTreeMap<Id, BTreeSet<ENode>> = BTreeMap::new();
    for (id, nodes) in classes {
        let canon = nodes.iter().map(|n| n.map_children(|c| eg.find(c)));
        grouped.entry(eg.find(*id)).or_default().extend(canon);
    }
    grouped
        .into_iter()
        .map(|(id, nodes)| (id, nodes.into_iter().collect()))
        .collect()
}

/// Every nest one rule application away from `nest` (innermost loop
/// first), at any depth: the four rule families of `rewrite`, minus
/// fusion regrouping, which needs `Seq` terms.
fn rewrites(nest: &[Wrap], ladder: &[i64]) -> Vec<Vec<Wrap>> {
    let temporal = |axis, tile| Wrap {
        axis,
        spatial: false,
        tile,
    };
    let spatial = |axis| Wrap {
        axis,
        spatial: true,
        tile: 0,
    };
    let mut out = Vec::new();
    // Replaces the loops that end at `outer` with `loops`.
    let mut edit = |outer: usize, loops: &[Wrap]| {
        let mut next = nest.to_vec();
        next[outer + 1 - loops.len()..=outer].copy_from_slice(loops);
        out.push(next);
    };
    for o in 0..nest.len() {
        // Tile split / merge.
        match nest[o] {
            Wrap {
                axis,
                spatial: false,
                tile: 0,
            } => {
                for &edge in ladder {
                    edit(o, &[temporal(axis, edge as u16)]);
                }
            }
            Wrap {
                axis,
                spatial: false,
                ..
            } => edit(o, &[temporal(axis, 0)]),
            _ => {}
        }
        match nest[..=o] {
            // Loop interchange.
            [.., inner @ Wrap { spatial: false, .. }, outer @ Wrap { spatial: false, .. }]
                if inner.axis != outer.axis =>
            {
                edit(o, &[outer, inner]);
            }
            // Spatial ↔ temporal swap one level down.
            [.., t @ Wrap { spatial: false, .. }, s @ Wrap { spatial: true, .. }]
                if t.axis != s.axis =>
            {
                edit(o, &[temporal(s.axis, 0), spatial(t.axis)]);
            }
            // The same swap across an inner spatial loop.
            [.., t @ Wrap { spatial: false, .. }, mid @ Wrap { spatial: true, .. }, s @ Wrap { spatial: true, .. }]
                if t.axis != s.axis && t.axis != mid.axis =>
            {
                edit(o, &[temporal(s.axis, 0), mid, spatial(t.axis)]);
            }
            _ => {}
        }
    }
    out
}

/// What extraction reports for one concrete nest: exactly two distinct
/// spatial axes that lower to a template, capped by the tightest tile.
fn concrete_candidate(nest: &[Wrap]) -> Option<Candidate> {
    let spatial: Vec<Axis> = nest.iter().filter(|w| w.spatial).map(|w| w.axis).collect();
    let tile_cap = nest
        .iter()
        .filter(|w| !w.spatial && w.tile > 0)
        .map(|w| i64::from(w.tile))
        .min();
    match spatial[..] {
        [a, b] if a != b => lower_spatial(a, b).map(|mapping| Candidate { mapping, tile_cap }),
        _ => None,
    }
}

/// Brute force against extraction: BFS every concrete nest reachable from
/// an untiled seed (innermost first) — its tiles stay in `ladder`, so
/// every rule's inverse is reachable too — and require an unbudgeted
/// saturation to extract exactly their lowerable points.
fn assert_extraction_matches_brute_force(temporal: &[Axis], spatial: &[Axis], ladder: &[i64]) {
    let loops = |axes: &[Axis], spatial| {
        axes.iter()
            .map(move |&axis| Wrap {
                axis,
                spatial,
                tile: 0,
            })
            .collect::<Vec<_>>()
    };
    let seed = [loops(temporal, false), loops(spatial, true)].concat();
    let mut seen = BTreeSet::from([seed.clone()]);
    let mut queue = VecDeque::from([seed.clone()]);
    while let Some(nest) = queue.pop_front() {
        for next in rewrites(&nest, ladder) {
            if seen.insert(next.clone()) {
                queue.push_back(next);
            }
        }
    }
    let want: BTreeSet<Candidate> = seen.iter().filter_map(|n| concrete_candidate(n)).collect();

    let mut eg = EGraph::new();
    let root = build_nest(&mut eg, 0, &seed);
    let config = RewriteConfig {
        node_budget: usize::MAX,
        tile_ladder: ladder.to_vec(),
        ..RewriteConfig::default()
    };
    let stats = saturate(&mut eg, &config, &Obs::disabled());
    assert!(stats.saturated, "{} nests; {stats:?}", seen.len());
    let (got, truncated) = lowerings(&eg, root, usize::MAX);
    assert_eq!(truncated, 0);
    assert_eq!(got, Vec::from_iter(want), "{} nests", seen.len());
}

#[test]
fn gemm_extraction_equals_brute_force() {
    let ladder = RewriteConfig::default().tile_ladder;
    assert_extraction_matches_brute_force(&[Axis::K], &[Axis::N, Axis::M], &ladder);
}

#[test]
fn conv_extraction_equals_brute_force() {
    let temporal = [Axis::Kh, Axis::Ow, Axis::Oh];
    assert_extraction_matches_brute_force(&temporal, &[Axis::Oc, Axis::Ic], &[64]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Union-find laws under arbitrary make_set/union sequences:
    // find is idempotent, union is commutative in effect, re-unioning
    // an already-merged pair reports no change, and every member of a
    // merged pair resolves to the same representative.
    #[test]
    fn union_find_laws_hold_under_arbitrary_merges(
        n in 1usize..32,
        pairs in collection::vec((0usize..32, 0usize..32), 0usize..48),
    ) {
        let mut uf = UnionFind::new();
        let ids: Vec<_> = (0..n).map(|_| uf.make_set()).collect();
        prop_assert_eq!(uf.len(), n);
        for &(a, b) in &pairs {
            let (a, b) = (ids[a % n], ids[b % n]);
            let (root, merged) = uf.union(a, b);
            prop_assert_eq!(uf.find(a), root);
            prop_assert_eq!(uf.find(b), root);
            // Idempotence: a second union of the same pair is a no-op
            // with the same representative.
            let (root2, merged2) = uf.union(a, b);
            prop_assert_eq!(root2, root);
            prop_assert!(!merged2);
            let _ = merged;
            // find is idempotent and agrees with the non-mutating probe
            // after path compression.
            let r = uf.find(a);
            prop_assert_eq!(uf.find(r), r);
            prop_assert_eq!(uf.probe(a), r);
            prop_assert!(uf.same(a, b));
        }
    }

    // Hash-consing: re-adding any node of the graph returns its
    // existing class id and counts a dedup hit instead of minting a
    // new id.
    #[test]
    fn hash_consing_returns_the_same_id(
        wraps in collection::vec(wrap_strategy(), 0usize..10),
    ) {
        let mut eg = EGraph::new();
        let root = build_nest(&mut eg, 0, &wraps);
        let nodes_before = eg.node_count();
        let hits_before = eg.dedup_hits();
        let replay = build_nest(&mut eg, 0, &wraps);
        prop_assert_eq!(eg.find(replay), eg.find(root));
        prop_assert_eq!(eg.node_count(), nodes_before, "no new nodes on replay");
        prop_assert_eq!(
            eg.dedup_hits(),
            hits_before + wraps.len() as u64 + 1,
            "every re-added node is a dedup hit"
        );
    }

    // Congruence closure: after a budgeted saturation and arbitrary
    // unions, rebuild yields the naive closure's partition with every
    // class represented by its minimum id, one memo key per canonical
    // node, and a sorted class snapshot that covers every node. It is a
    // fixpoint — running it again finds nothing new — and identical
    // replays produce byte-identical class snapshots.
    #[test]
    fn rebuild_reaches_a_deterministic_fixpoint(
        wrap_sets in collection::vec(collection::vec(wrap_strategy(), 0usize..6), 1usize..5),
        unions in collection::vec((0usize..64, 0usize..64), 0usize..8),
        budget in 0usize..256,
    ) {
        let config = RewriteConfig {
            node_budget: budget,
            ..RewriteConfig::default()
        };
        let run = || {
            let mut eg = EGraph::new();
            for (i, ws) in wrap_sets.iter().enumerate() {
                build_nest(&mut eg, i as u32, ws);
            }
            saturate(&mut eg, &config, &Obs::disabled());
            let before: Vec<(ENode, Id)> = eg
                .class_snapshot()
                .into_iter()
                .flat_map(|(id, nodes)| nodes.into_iter().map(move |n| (n, id)))
                .collect();
            let classes: Vec<Id> = before.iter().map(|&(_, id)| id).collect();
            let merged: Vec<(Id, Id)> = unions
                .iter()
                .map(|&(a, b)| (classes[a % classes.len()], classes[b % classes.len()]))
                .collect();
            for &(a, b) in &merged {
                eg.union(a, b);
            }
            eg.rebuild();
            (eg, before, merged)
        };
        let (mut eg, before, merged) = run();

        let n = before.iter().map(|&(_, id)| id.0 as usize + 1).max().unwrap_or(0);
        let label = naive_closure(&before, &merged, n);
        for &(_, id) in &before {
            // The naive labels are class minima, so this checks the
            // partition and the representative rule at once.
            prop_assert_eq!(eg.find(id), Id(label[id.0 as usize]));
        }
        let snapshot = eg.class_snapshot();
        prop_assert!(snapshot.windows(2).all(|w| w[0].0 < w[1].0), "classes sorted");
        let mut class_of: BTreeMap<ENode, Id> = BTreeMap::new();
        for (id, nodes) in &snapshot {
            prop_assert_eq!(eg.find(*id), *id);
            prop_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes sorted");
            for node in nodes {
                prop_assert_eq!(node.map_children(|c| eg.find(c)), *node, "keys are canonical");
                prop_assert!(class_of.insert(*node, *id).is_none(), "one class per node");
            }
        }
        for &(node, id) in &before {
            let canon = node.map_children(|c| eg.find(c));
            prop_assert_eq!(class_of.get(&canon), Some(&eg.find(id)), "snapshot covers every node");
        }
        prop_assert_eq!(eg.node_count(), class_of.len(), "one resident node per canonical node");

        prop_assert_eq!(eg.rebuild(), 0, "rebuild must be a fixpoint");
        prop_assert_eq!(eg.class_snapshot(), snapshot.clone(), "rebuild at fixpoint is a no-op");
        let (eg2, _, _) = run();
        prop_assert_eq!(eg2.class_snapshot(), snapshot, "identical replays converge identically");
    }

    // The incrementally kept class table equals a full regroup: after
    // every one-round saturation and every rebuild after arbitrary
    // unions, the snapshot is every node seen so far, canonicalized,
    // grouped by representative, sorted and deduplicated, and the class
    // counter agrees with it.
    #[test]
    fn class_table_equals_a_full_regroup(
        wrap_sets in collection::vec(collection::vec(wrap_strategy(), 0usize..6), 1usize..4),
        steps in collection::vec(collection::vec((0usize..64, 0usize..64), 0usize..6), 1usize..4),
        budget in 0usize..512,
    ) {
        let mut eg = EGraph::new();
        for (i, ws) in wrap_sets.iter().enumerate() {
            build_nest(&mut eg, i as u32, ws);
        }
        let mut seen = eg.class_snapshot();
        let config = RewriteConfig {
            node_budget: budget,
            max_rounds: 1,
            ..RewriteConfig::default()
        };
        for unions in &steps {
            saturate(&mut eg, &config, &Obs::disabled());
            seen.extend(eg.class_snapshot());
            prop_assert_eq!(eg.class_snapshot(), regroup(&eg, &seen));
            prop_assert_eq!(eg.class_count(), eg.class_snapshot().len());
            let classes: Vec<Id> = seen.iter().map(|&(id, _)| id).collect();
            for &(a, b) in unions {
                eg.union(classes[a % classes.len()], classes[b % classes.len()]);
            }
            eg.rebuild();
            prop_assert_eq!(eg.class_snapshot(), regroup(&eg, &seen));
            prop_assert_eq!(eg.class_count(), eg.class_snapshot().len());
        }
    }

    // Saturation is deterministic: two runs over the same seed nest
    // produce byte-identical stats and class snapshots, and never
    // exceed the node budget by more than one matching round's growth.
    #[test]
    fn saturation_replays_byte_identically(
        wraps in collection::vec(wrap_strategy(), 1usize..6),
        budget in 64usize..512,
    ) {
        let config = RewriteConfig {
            node_budget: budget,
            ..RewriteConfig::default()
        };
        let run = || {
            let mut eg = EGraph::new();
            build_nest(&mut eg, 0, &wraps);
            let stats = saturate(&mut eg, &config, &Obs::disabled());
            (stats, eg.class_snapshot())
        };
        let (stats_a, snap_a) = run();
        let (stats_b, snap_b) = run();
        prop_assert_eq!(stats_a, stats_b);
        prop_assert_eq!(snap_a, snap_b);
    }

    // Rewrite soundness at the term level: every candidate extracted
    // from a saturated nest names a template the simulator really has
    // for some axis pair, and its tile cap (if any) is a positive edge
    // drawn from the nest's annotations or the split ladder.
    #[test]
    fn extracted_candidates_are_lowerable(
        wraps in collection::vec(wrap_strategy(), 1usize..6),
    ) {
        let mut eg = EGraph::new();
        let root = build_nest(&mut eg, 0, &wraps);
        saturate(&mut eg, &RewriteConfig::default(), &Obs::disabled());
        let (candidates, _truncated) = lowerings(&eg, root, 64);
        for c in &candidates {
            let pair_exists = CONV_AXES.iter().enumerate().any(|(i, &a)| {
                CONV_AXES[i + 1..]
                    .iter()
                    .any(|&b| lower_spatial(a, b) == Some(c.mapping))
            });
            prop_assert!(pair_exists, "{:?} has no conv axis pair", c.mapping);
            if let Some(t) = c.tile_cap {
                prop_assert!(t > 0, "tile caps are positive edges");
                let ladder = RewriteConfig::default().tile_ladder;
                let seeded = wraps.iter().any(|w| i64::from(w.tile) == t);
                prop_assert!(
                    seeded || ladder.contains(&t),
                    "cap {t} must come from the nest or the split ladder"
                );
            }
        }
        // Sanity on the harness itself: the conv axes cover every
        // native template, so a fully-saturated nest has candidates.
        prop_assert!(layer_axes(&lego_workloads::LayerKind::Conv {
            n: 1, ic: 8, oc: 8, oh: 8, ow: 8, kh: 3, kw: 3, stride: 1,
        }).iter().all(|a| CONV_AXES.contains(a)));
    }
}

proptest! {
    // End-to-end pricing is slow per case, so keep the case count low;
    // the cheap structural properties above carry the volume.
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Rewrite soundness end to end: whatever the budget, lowering cap,
    // and tile cap, the extracted assignment prices to a finite
    // positive EDP that never loses to enumeration, and the whole
    // outcome replays byte-identically on a fresh session.
    #[test]
    fn search_is_sound_and_deterministic_for_any_config(
        node_budget in 512usize..4096,
        max_class_lowerings in 4usize..64,
        tile_cap in sample::select(vec![None, Some(32i64), Some(64), Some(128)]),
    ) {
        let model = zoo::lenet();
        let config = SearchConfig {
            node_budget,
            max_class_lowerings,
            ..SearchConfig::default()
        };
        let run = || {
            let session = EvalSession::new();
            MapSearch::new(&model, HwConfig::lego_256(), TechModel::default())
                .with_tile_cap(tile_cap)
                .with_config(config.clone())
                .run(&session)
        };
        let out = run();
        prop_assert!(out.rewrite_edp.is_finite() && out.rewrite_edp > 0.0);
        prop_assert!(out.rewrite_edp <= out.enumerated_edp, "never lose to enumeration");
        for l in &out.layers {
            prop_assert!(HwConfig::lego_256().dataflows.contains(&l.mapping));
            prop_assert!(l.perf.cycles > 0);
        }
        prop_assert_eq!(run().render(), out.render(), "byte-identical replay");
    }
}
