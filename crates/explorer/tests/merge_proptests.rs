//! Property-based tests of the shard-merge algebra: frontier `merge` is
//! commutative, associative, and idempotent; cache `absorb` is a set
//! union that never rewrites a resident entry; the in-place
//! `Snapshot::absorb` and the `CacheUnion` view both equal an `EvalCache`
//! that absorbs the same lists; and the snapshot codec round-trips
//! whatever those operations produce.
//!
//! These are the laws that make distributed search trustworthy: a
//! coordinator may receive shard snapshots in any order, retry a merge
//! after a crash, or absorb the same snapshot twice, and the result must
//! not depend on any of it.

use lego_eval::{EvalCache, Objectives};
use lego_explorer::{
    explore_sharded, CacheUnion, DesignPoint, DesignSpace, ExploreOptions, Genome, ParetoFrontier,
    SharedEntries, Snapshot, SplitMix64,
};
use lego_model::SpatialMapping;
use lego_sim::{EnergyBreakdown, LayerPerf, ModelPerf};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// A synthetic design point on a small integer objective lattice. The
/// genome is derived injectively from the objectives, so equal values
/// mean the *same* design (set semantics), and small values force heavy
/// domination/tie traffic — the regime where ordering bugs would show.
fn point(lat: u8, en: u8, area: u8) -> DesignPoint {
    let mut genome = Genome::lego_256_baseline();
    genome.rows = i64::from(lat) * 10_000 + i64::from(en) * 100 + i64::from(area) + 1;
    DesignPoint {
        genome,
        feasible: true,
        peak_power_mw: f64::from(en) * 10.0,
        objectives: Objectives {
            latency_cycles: f64::from(lat),
            energy_pj: f64::from(en),
            area_um2: f64::from(area),
        },
        perf: ModelPerf {
            cycles: i64::from(lat),
            ops: 2,
            gops: 1.0,
            watts: 0.5,
            gops_per_watt: 2.0,
            utilization: 0.5,
            ppu_fraction: 0.1,
            instr_gbps: 0.01,
        },
    }
}

fn frontier_of(stream: &[(u8, u8, u8)]) -> ParetoFrontier {
    let mut f = ParetoFrontier::new();
    for &(l, e, a) in stream {
        f.insert(point(l, e, a));
    }
    f
}

fn merged(a: &ParetoFrontier, b: &ParetoFrontier) -> ParetoFrontier {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// A synthetic cache entry; the value is derived from the key plus `salt`
/// so colliding keys can carry conflicting values on demand.
fn entry(hw: u8, layer: u8, salt: i64) -> ((u64, u64), LayerPerf) {
    (
        (u64::from(hw), u64::from(layer)),
        LayerPerf {
            cycles: i64::from(hw) * 1000 + i64::from(layer) + salt,
            utilization: 0.5,
            macs: 64,
            dram_bytes: 128,
            l1_accesses: 256,
            ppu_cycles: 4,
            noc_cycles: 0,
            energy: EnergyBreakdown::default(),
            mapping: SpatialMapping::GemmMN,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative(
        xs in vec((1u8..6, 1u8..6, 1u8..6), 0..30),
        ys in vec((1u8..6, 1u8..6, 1u8..6), 0..30),
    ) {
        let (a, b) = (frontier_of(&xs), frontier_of(&ys));
        let ab = merged(&a, &b);
        let ba = merged(&b, &a);
        prop_assert!(ab.dominance_equal(&ba));
        prop_assert_eq!(ab.genome_keys(), ba.genome_keys());
        prop_assert!(ab.is_mutually_non_dominated());
    }

    #[test]
    fn merge_is_associative(
        xs in vec((1u8..6, 1u8..6, 1u8..6), 0..20),
        ys in vec((1u8..6, 1u8..6, 1u8..6), 0..20),
        zs in vec((1u8..6, 1u8..6, 1u8..6), 0..20),
    ) {
        let (a, b, c) = (frontier_of(&xs), frontier_of(&ys), frontier_of(&zs));
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert!(left.dominance_equal(&right));
        prop_assert_eq!(left.genome_keys(), right.genome_keys());
    }

    #[test]
    fn merge_is_idempotent(
        xs in vec((1u8..6, 1u8..6, 1u8..6), 0..30),
    ) {
        let a = frontier_of(&xs);
        let mut twice = a.clone();
        prop_assert_eq!(twice.merge(&a), 0, "self-merge must add nothing");
        prop_assert_eq!(twice.genome_keys(), a.genome_keys());
        // And merging equals inserting the concatenated stream.
        let mut doubled = xs.clone();
        doubled.extend_from_slice(&xs);
        prop_assert!(twice.dominance_equal(&frontier_of(&doubled)));
    }

    #[test]
    fn merge_equals_single_process_insertion(
        xs in vec((1u8..6, 1u8..6, 1u8..6), 0..40),
        split in 0usize..40,
    ) {
        // Any way of cutting one evaluation stream into two "shards"
        // merges back to the frontier of the whole stream.
        let cut = split.min(xs.len());
        let whole = frontier_of(&xs);
        let shards = merged(&frontier_of(&xs[..cut]), &frontier_of(&xs[cut..]));
        prop_assert!(shards.dominance_equal(&whole));
        prop_assert_eq!(shards.genome_keys(), whole.genome_keys());
    }

    #[test]
    fn absorb_never_changes_a_resident_entry(
        keys in vec((0u8..8, 0u8..8), 1..24),
        foreign in vec((0u8..8, 0u8..8), 0..24),
    ) {
        let cache = EvalCache::new();
        // Residents carry salt 0; absorbed entries carry a conflicting
        // salt, so any overwrite would be visible.
        prop_assume!(!keys.is_empty());
        cache.absorb(keys.iter().map(|&(h, l)| entry(h, l, 0)));
        let len_before = cache.len();
        let added = cache.absorb(foreign.iter().map(|&(h, l)| entry(h, l, 7777)));
        prop_assert_eq!(cache.len(), len_before + added);
        for &(h, l) in &keys {
            let resident = cache
                .peek(u64::from(h), u64::from(l))
                .expect("resident stays");
            prop_assert_eq!(resident, entry(h, l, 0).1, "absorb rewrote ({h},{l})");
        }
        // Absorbing the cache into itself is a no-op.
        prop_assert_eq!(cache.absorb(cache.entries()), 0);
    }

    #[test]
    fn snapshot_absorb_equals_the_cache_union(
        ours in vec((0u8..6, 0u8..6, 0i64..3), 0..24),
        theirs in vec((0u8..6, 0u8..6, 3i64..6), 0..24),
        sort_ours in proptest::bool::ANY,
        sort_theirs in proptest::bool::ANY,
        share_ours in proptest::bool::ANY,
    ) {
        // Arbitrary lists: unsorted, with duplicate keys whose values
        // differ by salt, unless the flag asks for the canonical form a
        // snapshot normally carries.
        let list = |xs: &[(u8, u8, i64)], canonical: bool| {
            let raw: Vec<_> = xs.iter().map(|&(h, l, salt)| entry(h, l, salt)).collect();
            if canonical {
                let cache = EvalCache::new();
                cache.absorb(raw);
                cache.entries()
            } else {
                raw
            }
        };
        let (a, b) = (list(&ours, sort_ours), list(&theirs, sort_theirs));
        let original = a.clone();
        // The reference: both lists absorbed into one cache, resident first.
        let union = EvalCache::new();
        union.absorb(a.iter().cloned());
        let expected_added = union.absorb(b.iter().cloned());
        let snapshot = |cache| Snapshot {
            shard_index: 0,
            shard_count: 1,
            seed: 0,
            model: "synthetic".into(),
            evaluated: 0,
            frontier: ParetoFrontier::new(),
            cache: Arc::new(cache),
        };
        let mut merged = snapshot(a);
        // Another holder of the resident list, as a shard holds the list
        // its snapshot shares: the merge must not show through it.
        let holder = share_ours.then(|| Arc::clone(&merged.cache));
        let (_, added) = merged.absorb(&snapshot(b));
        prop_assert_eq!(added, expected_added);
        prop_assert_eq!(&*merged.cache, &union.entries());
        prop_assert!(merged.cache.windows(2).all(|w| w[0].0 < w[1].0));
        if let Some(holder) = holder {
            prop_assert_eq!(&*holder, &original);
        }
    }

    #[test]
    fn cache_union_equals_absorbing_every_list(
        lists in vec((vec((0u8..6, 0u8..6, 0i64..3), 0..16), proptest::bool::ANY), 0..5),
    ) {
        // Each list carries its own salts, so a key several lists hold has
        // a different value in each and the winner shows. Unsorted lists
        // with repeated keys are allowed unless the flag asks for the
        // canonical form a shard produces.
        let lists: Vec<SharedEntries> = lists
            .iter()
            .enumerate()
            .map(|(i, (xs, canonical))| {
                let raw: Vec<_> = xs
                    .iter()
                    .map(|&(h, l, salt)| entry(h, l, salt + 10 * i as i64))
                    .collect();
                if *canonical {
                    let cache = EvalCache::new();
                    cache.absorb(raw);
                    Arc::new(cache.entries())
                } else {
                    Arc::new(raw)
                }
            })
            .collect();
        // The reference: every list absorbed into one cache, first list
        // first, so on an equal key the lowest index wins.
        let reference = EvalCache::new();
        for list in &lists {
            reference.absorb(list.iter().copied());
        }
        let union = CacheUnion::new(lists);
        prop_assert_eq!(union.len(), reference.len());
        prop_assert_eq!(union.is_empty(), reference.is_empty());
        prop_assert_eq!(
            union.estimated_resident_bytes(),
            reference.estimated_resident_bytes()
        );
        prop_assert_eq!(union.entries(), reference.entries());
    }


    #[test]
    fn snapshot_roundtrips_any_merge_result(
        xs in vec((1u8..6, 1u8..6, 1u8..6), 0..20),
        ys in vec((1u8..6, 1u8..6, 1u8..6), 0..20),
        keys in vec((0u8..8, 0u8..8), 0..16),
        seed in 0u64..u64::MAX,
    ) {
        let cache = EvalCache::new();
        cache.absorb(keys.iter().map(|&(h, l)| entry(h, l, 3)));
        let snap = Snapshot {
            shard_index: 0,
            shard_count: 1,
            seed,
            model: "synthetic".into(),
            evaluated: (xs.len() + ys.len()) as u64,
            frontier: merged(&frontier_of(&xs), &frontier_of(&ys)),
            cache: Arc::new(cache.entries()),
        };
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded.encode(), bytes);
        prop_assert_eq!(decoded.frontier.genome_keys(), snap.frontier.genome_keys());
        prop_assert_eq!(decoded.cache, snap.cache);
        prop_assert_eq!(decoded.seed, seed);
        prop_assert_eq!(decoded.evaluated, snap.evaluated);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_union_view_equals_an_eval_cache_of_every_shard(
        seed in 0u64..1_000,
        shards in 2u32..5,
        picks in vec(0usize..64, 1..5),
    ) {
        // Warm-start genomes are priced by every shard, so the shard
        // caches overlap and the union has duplicates to drop.
        let space = DesignSpace::tiny();
        let genomes = space.enumerate();
        let opts = ExploreOptions {
            budget_per_strategy: 8,
            warm_start: picks.iter().map(|&i| genomes[i % genomes.len()]).collect(),
            ..Default::default()
        };
        let sharded = explore_sharded(&lego_workloads::zoo::lenet(), &space, shards, seed, &opts);
        let reference = EvalCache::new();
        for run in &sharded.shards {
            reference.absorb(run.cache.iter().copied());
        }
        prop_assert_eq!(sharded.cache.len(), reference.len());
        prop_assert_eq!(sharded.cache.entries(), reference.entries());
        let duplicates = sharded.cache_misses - reference.len() as u64;
        prop_assert!(duplicates > 0, "warm-start genomes overlap the shards");
        prop_assert_eq!(sharded.duplicate_evals(), duplicates);
    }
}

/// Deterministic cross-check outside the proptest macro: a long random
/// stream split across 7 shards in round-robin order merges to the same
/// frontier as single-process insertion (the in-the-large version of the
/// laws above).
#[test]
fn round_robin_sharding_matches_single_process() {
    let mut rng = SplitMix64::new(2026);
    let stream: Vec<(u8, u8, u8)> = (0..500)
        .map(|_| {
            (
                (1 + rng.below(9)) as u8,
                (1 + rng.below(9)) as u8,
                (1 + rng.below(9)) as u8,
            )
        })
        .collect();
    let whole = frontier_of(&stream);
    let mut union = ParetoFrontier::new();
    for i in 0..7 {
        let slice: Vec<(u8, u8, u8)> = stream.iter().copied().skip(i).step_by(7).collect();
        union.merge(&frontier_of(&slice));
    }
    assert!(union.dominance_equal(&whole));
    assert_eq!(union.genome_keys(), whole.genome_keys());
}
