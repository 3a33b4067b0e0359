//! Sharded design-space exploration: the distributed shard → checkpoint →
//! merge workflow, end to end in one process.
//!
//! Each of four "workers" explores a disjoint slice of the space
//! (`DesignSpace::shard` splits the grid enumeration and the stochastic
//! strategies' RNG streams, and `SpaceShard::snap` keeps every sampled or
//! evolved genome inside the slice), checkpoints its Pareto frontier +
//! evaluation cache to a snapshot file through the dependency-free binary
//! codec, and a "coordinator" reads the snapshots back and union-merges
//! them. The shard caches are disjoint, so each merge absorbs the next
//! shard's whole cache. The merged frontier is then checked against a
//! single-process run of the same grid — they must describe the same
//! trade-off surface (`ParetoFrontier::dominance_equal`).
//!
//! Run with: `cargo run --release --example sharded_exploration`

use lego::explorer::{
    default_strategies, explore, explore_shard, DesignSpace, ExploreOptions, GridSearch,
    SearchStrategy, Snapshot,
};

fn main() {
    let model = lego::workloads::zoo::mobilenet_v2();
    let space = DesignSpace::paper();
    let shards = 4u32;
    let seed = 0xDE5E;
    let dir = std::env::temp_dir().join("lego_sharded_exploration");
    std::fs::create_dir_all(&dir).expect("temp snapshot dir");

    println!(
        "sharding {} genomes across {shards} workers for {} (seed {seed:#x})\n",
        space.size(),
        model.name
    );

    // --- Worker side: explore one shard each, checkpoint to disk. -------
    let mut paths = Vec::new();
    for i in 0..shards {
        let shard = space.shard(i, shards);
        let run = explore_shard(
            &model,
            &shard,
            &mut default_strategies(seed),
            &ExploreOptions {
                budget_per_strategy: shard.size(),
                ..Default::default()
            },
        );
        let path = dir.join(format!("shard_{i}_of_{shards}.bin"));
        run.snapshot(&model.name, seed)
            .write_to(&path)
            .expect("snapshot writes");
        println!(
            "worker {i}: {:>4} genomes, frontier {:>2} points, cache {:>5} entries -> {}",
            shard.size(),
            run.frontier.len(),
            run.cache.len(),
            path.display()
        );
        paths.push(path);
    }

    // --- Coordinator side: read the checkpoints back and merge. ---------
    let mut merged = Snapshot::read_from(&paths[0]).expect("snapshot reads");
    for path in &paths[1..] {
        let next = Snapshot::read_from(path).expect("snapshot reads");
        let (joined, absorbed) = merged.absorb(&next);
        assert_eq!(
            absorbed,
            next.cache.len(),
            "shards never price a peer's genomes"
        );
        println!(
            "merge {}: +{joined} frontier points, +{absorbed} cache entries",
            path.file_name().unwrap().to_string_lossy()
        );
    }
    println!(
        "\nmerged: frontier {} points, cache {} unique evaluations",
        merged.frontier.len(),
        merged.cache.len()
    );
    let best = merged.frontier.best_by_edp().expect("non-empty frontier");
    println!(
        "merged-best EDP {:.3e} ({})",
        best.objectives.edp(),
        best.genome
    );

    // --- The invariant that makes sharding trustworthy. -----------------
    // A disjoint grid partition, merged, must find exactly the trade-off
    // surface a single process finds.
    // (The budget must cover the whole space: grid search truncates at
    // `budget_per_strategy`, and a truncated single-process grid would
    // see fewer genomes than the union of full shards.)
    let exhaustive = ExploreOptions {
        budget_per_strategy: space.size(),
        ..Default::default()
    };
    let single = explore(
        &model,
        &space,
        &mut [Box::new(GridSearch) as Box<dyn SearchStrategy>],
        &exhaustive,
    );
    let mut grid_union = lego::explorer::ParetoFrontier::new();
    for i in 0..shards {
        let run = explore_shard(
            &model,
            &space.shard(i, shards),
            &mut [Box::new(GridSearch) as Box<dyn SearchStrategy>],
            &exhaustive,
        );
        grid_union.merge(&run.frontier);
    }
    assert!(
        grid_union.dominance_equal(&single.frontier),
        "union of shard frontiers must match the single-process frontier"
    );
    println!(
        "\nverified: union of {shards} grid-shard frontiers is dominance-equal \
         to the single-process frontier ({} points)",
        single.frontier.len()
    );
}
