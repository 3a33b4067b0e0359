//! `dse_sharded`: sharded design-space exploration and the snapshot
//! checkpoint path a coordinator merges — the warm, hit-heavy side of the
//! evaluation cache.

use super::{hit_ratio, sweep_cases, threads, SweepStats, Tally, Workload};
use crate::stats::{geomean, residual_share};
use crate::trace::{replay_share_per_op, total_ns, Span, Tracer};
use lego_eval::{EvalCache, EvalRequest, EvalSession};
use lego_explorer::{
    default_strategies, explore, explore_shard, explore_sharded, DesignSpace, Evaluator,
    ExploreOptions, Genome, ParetoFrontier, ShardedExplorationResult, Snapshot,
};
use lego_model::{CostContext, SramModel, TechModel};
use lego_workloads::{zoo, Model};

struct Case {
    model: Model,
    /// Frontier of a single-process `explore` over the whole space.
    reference: ParetoFrontier,
    /// Best reference EDP over the `lego_256` baseline genome's EDP.
    edp_ratio: f64,
}

/// What every exploration of a run shares.
struct Setting {
    space: DesignSpace,
    opts: ExploreOptions,
    seed: u64,
    /// A session kept warm across ops for the warm-path probes.
    warm: EvalSession,
}

pub struct DseSharded {
    cases: Vec<Case>,
    setting: Setting,
    tally: Tally,
}

impl DseSharded {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let space = DesignSpace::paper();
        let opts = ExploreOptions {
            budget_per_strategy: space.size(),
            threads: threads(),
            ..Default::default()
        };
        let mut models = vec![zoo::mobilenet_v2(), zoo::resnet50(), zoo::bert_base()];
        if smoke {
            models.truncate(1);
        }
        let cases = models
            .into_iter()
            .map(|model| {
                let reference = explore(&model, &space, &mut default_strategies(seed), &opts);
                let baseline = Evaluator::new(&model, TechModel::default())
                    .eval(&Genome::lego_256_baseline())
                    .objectives
                    .edp();
                let best = reference
                    .best_by_edp()
                    .expect("the paper space has feasible designs")
                    .objectives
                    .edp();
                Case {
                    reference: reference.frontier,
                    edp_ratio: best / baseline,
                    model,
                }
            })
            .collect();
        DseSharded {
            cases,
            setting: Setting {
                space,
                opts,
                seed,
                warm: EvalSession::new().with_threads(threads()),
            },
            tally: Tally::default(),
        }
    }
}

/// Every shard checkpointed, shipped as bytes, and merged into one
/// snapshot, as a coordinator merging worker files does. Returns the merged
/// snapshot and the bytes shipped.
fn checkpoint_and_merge(
    tr: &mut Tracer,
    result: &ShardedExplorationResult,
    model: &str,
    seed: u64,
) -> Option<(Snapshot, usize)> {
    let mut merged: Option<Snapshot> = None;
    let mut shipped = 0;
    for shard in &result.shards {
        let snapshot = tr.span("explorer.snapshot_build", |_| shard.snapshot(model, seed));
        let bytes = tr.span("explorer.snapshot_encode", |_| snapshot.encode());
        shipped += bytes.len();
        let decoded = tr
            .span("explorer.snapshot_decode", |_| Snapshot::decode(&bytes))
            .ok()?;
        match merged.as_mut() {
            None => merged = Some(decoded),
            Some(m) => {
                tr.span("explorer.snapshot_absorb", |_| m.absorb(&decoded));
            }
        }
    }
    merged.map(|m| (m, shipped))
}

impl Setting {
    /// `explore_sharded` again as the shard runs and the merge it is made
    /// of; returns whether it found the entry point's frontier and cache.
    fn replay(&self, tr: &mut Tracer, case: &Case, result: &ShardedExplorationResult) -> bool {
        let shards = threads() as u32;
        let (frontier, cache_entries) = tr.span("explorer.replay", |tr| {
            let runs: Vec<_> = (0..shards)
                .map(|i| {
                    tr.span("explorer.explore_shard", |_| {
                        explore_shard(
                            &case.model,
                            &self.space.shard(i, shards),
                            &mut default_strategies(self.seed),
                            &self.opts,
                        )
                    })
                })
                .collect();
            tr.span("explorer.merge", |_| {
                let mut frontier = ParetoFrontier::new();
                let cache = EvalCache::new();
                for run in &runs {
                    frontier.merge(&run.frontier);
                    cache.absorb(run.cache.iter().cloned());
                }
                (frontier, cache.len())
            })
        });
        frontier.genome_keys() == result.frontier.genome_keys()
            && cache_entries == result.cache.len()
    }

    /// The warm path under the explorer: a fully warm evaluate, an in-place
    /// context update, and the pool's own dispatch cost.
    fn probe(&self, tr: &mut Tracer, case: &Case) {
        tr.next_op();
        let baseline = Genome::lego_256_baseline().to_hw_config();
        let request = EvalRequest::new(case.model.clone(), baseline);
        self.warm.evaluate(&request);
        tr.span("eval.evaluate_warm", |_| self.warm.evaluate(&request));
        let mut ctx = CostContext::new(request.hw.clone(), request.tech);
        let other = self.space.enumerate()[self.space.size() / 2].to_hw_config();
        tr.span("model.context_update", |_| {
            ctx.update(&other, request.tech, SramModel::default(), request.sparse)
        });
        let no_ops = [(); 64];
        tr.span("eval.run_batch_dispatch", |_| {
            self.warm.run_batch(&no_ops, |_| ())
        });
    }
}

impl Workload for DseSharded {
    fn sweep(&mut self, tr: &mut Tracer, lat_ms: &mut Vec<f64>) -> SweepStats {
        let (setting, tally) = (&self.setting, &mut self.tally);
        sweep_cases(
            &self.cases,
            tr,
            lat_ms,
            |tr, case| {
                let result = tr.span("explorer.explore_sharded", |_| {
                    explore_sharded(
                        &case.model,
                        &setting.space,
                        threads() as u32,
                        setting.seed,
                        &setting.opts,
                    )
                });
                let merged = checkpoint_and_merge(tr, &result, &case.model.name, setting.seed);
                (result, merged)
            },
            |case, (_, merged)| {
                let (merged, _) = merged.as_ref()?;
                merged
                    .frontier
                    .dominance_equal(&case.reference)
                    .then_some(merged.evaluated)
            },
            |tr, case, (result, merged)| {
                let t = &mut *tally;
                if let Some((merged, shipped)) = merged {
                    t.add("explorer.snapshot_bytes", *shipped as f64);
                    t.add("explorer.frontier_points", merged.frontier.len() as f64);
                }
                let evaluated: u64 = result.shards.iter().map(|s| s.evaluated()).sum();
                t.add("explorer.cache_entries", result.cache.len() as f64);
                t.add("explorer.evaluated", evaluated as f64);
                t.add("explorer.duplicate_evals", result.duplicate_evals() as f64);
                t.add("eval.cache_hits", result.cache_hits as f64);
                t.add("eval.cache_misses", result.cache_misses as f64);
                t.add(
                    "eval.cache_resident_bytes",
                    result.cache.estimated_resident_bytes() as f64,
                );
                setting.replay(tr, case, result)
            },
        )
    }

    fn probe(&mut self, tr: &mut Tracer) -> u64 {
        for case in &self.cases {
            self.setting.probe(tr, case);
        }
        0
    }

    fn quality_ratio(&self) -> f64 {
        // Model order is fixed, and the grid strategy covers the whole
        // space, so the best EDP does not depend on the seed.
        geomean(&self.cases.iter().map(|c| c.edp_ratio).collect::<Vec<_>>())
    }

    fn layer_values(&self, spans: &[Span]) -> Vec<(&'static str, f64)> {
        let t = &self.tally;
        let hits = t.sum("eval.cache_hits");
        let hit_ratio = hit_ratio(hits, t.sum("eval.cache_misses"));
        let explore_s = total_ns(spans, "explorer.explore_sharded") as f64 / 1e9;
        let mut values = t.per_op();
        values.push(("explorer.cache_hit_ratio", hit_ratio));
        values.push(("eval.cache_hit_ratio", hit_ratio));
        values.push((
            "explorer.evals_per_s",
            t.sum("explorer.evaluated") / explore_s.max(f64::MIN_POSITIVE),
        ));
        values.push((
            "explorer.replay_residual_share",
            residual_share(&replay_share_per_op(
                spans,
                "explorer.replay",
                "explorer.explore_sharded",
            )),
        ));
        values
    }

    fn setup_failures(&self) -> u64 {
        0
    }
}
