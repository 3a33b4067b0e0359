//! Sharded design-space exploration driver — the worker/coordinator pair
//! of the distributed DSE workflow, in one binary.
//!
//! ```text
//! dse_shard run --shard I/N --out SNAP [--model M] [--space S] [--seed X] [--budget B]
//!              [--warm SNAP]
//!     Explore shard I of N and checkpoint the frontier + eval cache.
//!     `--warm` preloads the evaluation cache from a previous (merged)
//!     snapshot, so layer simulations a peer already ran are answered as
//!     cache hits — results are identical either way, only the work
//!     changes. The warm entries ride along into the checkpoint (cache
//!     merging is a union).
//!
//! dse_shard merge SNAP... [--out SNAP] [--report]
//!     Union-merge shard snapshots (frontier merge + cache absorb).
//!
//! dse_shard verify [--shards N] [--model M] [--space S]
//!     Run N grid shards and the single-process grid in-process and
//!     assert the merged frontier is dominance-equal (exit 1 if not) —
//!     the CI determinism gate. (Grid search is seed-free, so verify
//!     takes no --seed.)
//! ```
//!
//! Everything is deterministic: fixed seeds, canonical snapshot encoding,
//! order-preserving parallel evaluation. Running the same command twice
//! produces byte-identical snapshots and output.

use lego_bench::harness::{row, section};
use lego_eval::cli::{exit_code, file_ctx, no_more_args, take_flag, take_parsed, take_switch};
use lego_eval::EvalError;
use lego_explorer::{
    default_strategies, explore, explore_shard, DesignSpace, ExploreOptions, GridSearch,
    ParetoFrontier, SearchStrategy, Snapshot,
};
use lego_workloads::{zoo, Model};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 0xDE5E;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        _ => Err(EvalError::Usage(USAGE.to_string())),
    };
    exit_code("dse_shard", result)
}

const USAGE: &str = "usage:
  dse_shard run --shard I/N --out SNAP [--model M] [--space paper|sparse|tiny] [--seed X] [--budget B] [--warm SNAP]
  dse_shard merge SNAP... [--out SNAP] [--report]
  dse_shard verify [--shards N] [--model M] [--space paper|sparse|tiny]";

/// `--model M` (default `mobilenet_v2`), looked up in the zoo.
fn take_model(args: &mut Vec<String>) -> Result<Model, EvalError> {
    let name = take_flag(args, "--model", USAGE)?.unwrap_or("mobilenet_v2".into());
    zoo::by_name(&name).ok_or(EvalError::Unknown {
        what: "model",
        name,
    })
}

fn space_by_name(name: &str) -> Result<DesignSpace, EvalError> {
    Ok(match name {
        "paper" => DesignSpace::paper(),
        "sparse" => DesignSpace::sparse(),
        "tiny" => DesignSpace::tiny(),
        _ => {
            return Err(EvalError::Unknown {
                what: "space",
                name: name.to_string(),
            })
        }
    })
}

fn parse_seed(text: Option<String>) -> Result<u64, EvalError> {
    match text {
        None => Ok(DEFAULT_SEED),
        Some(s) => {
            let digits = s.trim_start_matches("0x");
            let radix = if digits.len() < s.len() { 16 } else { 10 };
            u64::from_str_radix(digits, radix)
                .map_err(|_| EvalError::Usage(format!("bad seed {s:?}")))
        }
    }
}

fn cmd_run(args: &[String]) -> Result<(), EvalError> {
    let mut args = args.to_vec();
    let shard_spec = take_flag(&mut args, "--shard", USAGE)?
        .ok_or_else(|| EvalError::Usage(format!("--shard I/N required\n{USAGE}")))?;
    let out = take_flag(&mut args, "--out", USAGE)?
        .ok_or_else(|| EvalError::Usage(format!("--out SNAP required\n{USAGE}")))?;
    let model = take_model(&mut args)?;
    let space = space_by_name(&take_flag(&mut args, "--space", USAGE)?.unwrap_or("paper".into()))?;
    let seed = parse_seed(take_flag(&mut args, "--seed", USAGE)?)?;
    let budget: Option<usize> = take_parsed(&mut args, "--budget", "budget", USAGE)?;
    let warm = take_flag(&mut args, "--warm", USAGE)?;
    no_more_args(&args, USAGE)?;

    let (index, count) = shard_spec
        .split_once('/')
        .and_then(|(i, n)| Some((i.parse::<u32>().ok()?, n.parse::<u32>().ok()?)))
        .filter(|&(i, n)| n > 0 && i < n)
        .ok_or_else(|| {
            EvalError::Usage(format!("--shard wants I/N with I < N, got {shard_spec:?}"))
        })?;

    let shard = space.shard(index, count);
    let mut opts = ExploreOptions {
        budget_per_strategy: budget.unwrap_or_else(|| shard.size().max(1)),
        ..Default::default()
    };
    if let Some(warm_path) = &warm {
        let warm_snap =
            Snapshot::read_from(Path::new(warm_path)).map_err(|e| file_ctx(warm_path, e))?;
        if warm_snap.model != model.name {
            return Err(EvalError::Usage(format!(
                "warm snapshot is for {:?}, run targets {:?}",
                warm_snap.model, model.name
            )));
        }
        println!(
            "warm start: preloading {} cache entries from {warm_path}",
            warm_snap.cache.len()
        );
        opts.warm_cache = warm_snap.cache;
    }
    section(&format!(
        "dse_shard run: {} shard {index}/{count} ({} of {} genomes; seed {seed:#x})",
        model.name,
        shard.size(),
        space.size(),
    ));
    let run = explore_shard(&model, &shard, &mut default_strategies(seed), &opts);
    let snapshot = run.snapshot(&model.name, seed);
    snapshot
        .write_to(Path::new(&out))
        .map_err(|e| file_ctx(&out, e))?;
    println!(
        "{} genomes evaluated: frontier {} points, cache {} entries ({} hits / {} misses) -> {out}",
        run.evaluated(),
        run.frontier.len(),
        run.cache.len(),
        run.cache_hits,
        run.cache_misses,
    );
    if let Some(best) = run.frontier.best_by_edp() {
        println!(
            "shard-best EDP {:.3e} ({})",
            best.objectives.edp(),
            best.genome
        );
    }
    Ok(())
}

/// What `merge --report` prints of one input snapshot, kept once its
/// cache is merged.
struct MergeInput {
    /// `index/count`.
    shard: String,
    evaluated: u64,
    frontier: ParetoFrontier,
    /// Cache entries the snapshot carried.
    cache: usize,
    /// (frontier points joined, cache entries added) at merge.
    contributed: (usize, usize),
}

fn cmd_merge(args: &[String]) -> Result<(), EvalError> {
    let mut args = args.to_vec();
    let out = take_flag(&mut args, "--out", USAGE)?;
    let report = take_switch(&mut args, "--report");
    if args.is_empty() {
        return Err(EvalError::Usage(format!(
            "merge needs at least one snapshot\n{USAGE}"
        )));
    }
    let paths: Vec<PathBuf> = args.iter().map(PathBuf::from).collect();
    // One file is decoded at a time and merged at once; the first moves
    // into `merged`. Of each input only what the report prints is kept.
    let mut merged: Option<Snapshot> = None;
    let mut inputs = Vec::with_capacity(paths.len());
    for p in &paths {
        let s = Snapshot::read_from(p).map_err(|e| file_ctx(&p.display().to_string(), e))?;
        let mut input = MergeInput {
            shard: format!("{}/{}", s.shard_index, s.shard_count),
            evaluated: s.evaluated,
            frontier: s.frontier.clone(),
            cache: s.cache.len(),
            // The first snapshot seeds everything it carries; each later
            // one contributes what `absorb` actually added.
            contributed: (s.frontier.len(), s.cache.len()),
        };
        match merged.as_mut() {
            None => merged = Some(s),
            Some(m) if s.model != m.model => {
                return Err(EvalError::Usage(format!(
                    "snapshot models disagree: {:?} vs {:?}",
                    m.model, s.model
                )));
            }
            Some(m) => input.contributed = m.absorb(&s),
        }
        inputs.push(input);
    }
    let mut merged = merged.expect("at least one snapshot");
    let (joined, absorbed) = inputs[1..].iter().fold((0, 0), |(j, a), input| {
        (j + input.contributed.0, a + input.contributed.1)
    });
    // The merged snapshot stands for the whole space, not one slice.
    merged.shard_index = 0;
    merged.shard_count = 1;

    if report {
        section("dse_shard merge");
        // Which shard frontier points made it into the merged frontier.
        let surviving: std::collections::HashSet<u64> =
            merged.frontier.genome_keys().into_iter().collect();
        row(&[
            "snapshot".into(),
            "shard".into(),
            "evaluated".into(),
            "frontier".into(),
            "survived".into(),
            "cache".into(),
            "contributed".into(),
        ]);
        for (p, input) in paths.iter().zip(&inputs) {
            let survived = input
                .frontier
                .points()
                .iter()
                .filter(|pt| surviving.contains(&pt.genome.key()))
                .count();
            row(&[
                p.file_name()
                    .map_or_else(String::new, |n| n.to_string_lossy().into_owned()),
                input.shard.clone(),
                format!("{}", input.evaluated),
                format!("{}/{}", input.contributed.0, input.frontier.len()),
                format!("{}", survived),
                format!("{}", input.cache),
                format!("{}", input.contributed.1),
            ]);
        }
        println!(
            "({} genomes evaluated across the partition; \"frontier\" is \
             points joined at merge / points checkpointed)",
            merged.evaluated
        );
        let shard_bytes: usize = inputs
            .iter()
            .map(|input| lego_eval::estimated_resident_bytes_for(input.cache))
            .sum();
        let merged_bytes = lego_eval::estimated_resident_bytes_for(merged.cache.len());
        println!(
            "cache residency: {} bytes across shards -> {} bytes merged \
             ({} bytes deduplicated)",
            shard_bytes,
            merged_bytes,
            shard_bytes.saturating_sub(merged_bytes),
        );
    }

    println!(
        "merged {} snapshots: frontier {} points (+{joined}), cache {} entries (+{absorbed})",
        paths.len(),
        merged.frontier.len(),
        merged.cache.len(),
    );
    if let Some(best) = merged.frontier.best_by_edp() {
        println!(
            "merged-best EDP {:.3e} ({})",
            best.objectives.edp(),
            best.genome
        );
    }
    if let Some(out) = out {
        merged
            .write_to(Path::new(&out))
            .map_err(|e| file_ctx(&out, e))?;
        println!("wrote merged snapshot -> {out}");
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), EvalError> {
    let mut args = args.to_vec();
    let shards: u32 = take_parsed(&mut args, "--shards", "shard count", USAGE)?.unwrap_or(4);
    let model = take_model(&mut args)?;
    let space = space_by_name(&take_flag(&mut args, "--space", USAGE)?.unwrap_or("paper".into()))?;
    no_more_args(&args, USAGE)?;
    // No --seed here: both sides are pure grid search, which is
    // deterministic and seed-free by construction.
    let grid_only = || vec![Box::new(GridSearch) as Box<dyn SearchStrategy>];
    // Grid search truncates at the budget, so the budget must cover the
    // whole space on both sides of the comparison.
    let exhaustive = ExploreOptions {
        budget_per_strategy: space.size(),
        ..Default::default()
    };

    section(&format!(
        "dse_shard verify: {} on {} genomes, {shards} grid shards vs single process",
        model.name,
        space.size(),
    ));
    let single = explore(&model, &space, &mut grid_only(), &exhaustive);
    let mut merged = ParetoFrontier::new();
    let mut covered = 0;
    for i in 0..shards {
        let shard = space.shard(i, shards);
        let run = explore_shard(&model, &shard, &mut grid_only(), &exhaustive);
        covered += run.reports[0].evaluated;
        merged.merge(&run.frontier);
        println!(
            "  shard {i}/{shards}: {} genomes, frontier {}",
            run.reports[0].evaluated,
            run.frontier.len()
        );
    }
    if covered != space.size() {
        return Err(EvalError::Internal(format!(
            "VERIFY FAILED: shards covered {covered} of {} genomes",
            space.size()
        )));
    }
    if !merged.dominance_equal(&single.frontier) {
        return Err(EvalError::Internal(format!(
            "VERIFY FAILED: merged frontier ({} points) is not dominance-equal \
             to the single-process frontier ({} points)",
            merged.len(),
            single.frontier.len()
        )));
    }
    println!(
        "OK: union of {shards} shard frontiers is dominance-equal to the \
         single-process frontier ({} points, best EDP {:.3e})",
        single.frontier.len(),
        single
            .frontier
            .best_by_edp()
            .expect("non-empty")
            .objectives
            .edp(),
    );
    Ok(())
}
