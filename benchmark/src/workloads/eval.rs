//! `eval_cold_zoo`: the one-shot `Lego::evaluate` path, wire bytes in and
//! wire bytes out, with a fresh session per request.

use super::{hit_ratio, sweep_cases, SweepStats, Tally, Workload};
use crate::roster::eval_roster;
use crate::stats::residual_share;
use crate::trace::{replay_share_per_op, Span, Tracer};
use lego_eval::{
    CostSummary, EvalCache, EvalReport, EvalRequest, EvalSession, LayerReport, Objectives,
    Provenance, CODEC_VERSION,
};
use lego_model::{CompressedFormat, CostContext, HwConfig, SramModel};
use lego_sim::{aggregate_iter, best_mapping_ctx};
use std::collections::HashSet;
use std::sync::Arc;

struct Case {
    request_bytes: Vec<u8>,
    /// `EvalSession::new().evaluate(&request).encode()` from setup.
    report_bytes: Vec<u8>,
}

pub struct EvalColdZoo {
    cases: Vec<Case>,
    setup_failures: u64,
    tally: Tally,
}

impl EvalColdZoo {
    pub fn new(seed: u64) -> Self {
        let mut setup_failures = 0;
        let cases = eval_roster(seed)
            .into_iter()
            .map(|request| {
                let request_bytes = request.encode();
                let report_bytes = EvalSession::new().evaluate(&request).encode();
                let request_round_trips =
                    EvalRequest::decode(&request_bytes).is_ok_and(|r| r.encode() == request_bytes);
                let report_round_trips =
                    EvalReport::decode(&report_bytes).is_ok_and(|r| r.encode() == report_bytes);
                if !(request_round_trips && report_round_trips) {
                    setup_failures += 1;
                }
                Case {
                    request_bytes,
                    report_bytes,
                }
            })
            .collect();
        EvalColdZoo {
            cases,
            setup_failures,
            tally: Tally::default(),
        }
    }
}

/// `EvalSession::evaluate` on a fresh session, rebuilt from the public
/// pieces it is made of, a span around each: layer keys, hardware key, cost
/// context, the cached mapping search, the aggregate and the cost summary.
fn replay_evaluate(tr: &mut Tracer, request: &EvalRequest, version: &str) -> (EvalReport, usize) {
    let model = &request.workload;
    let cache = EvalCache::new();
    // The request memoizes its layer keys, as it does for the entry point.
    let keys = tr.span("eval.layer_key", |_| {
        request
            .as_view()
            .layer_keys
            .expect("a view carries the keys")
    });
    let hw_key = tr.span("eval.hw_key", |_| request.hw_key());
    let ctx = tr.span("model.context_new", |_| {
        CostContext::new(request.hw.clone(), request.tech)
            .with_sram(SramModel::default())
            .with_sparse(request.sparse)
    });
    // A fresh cache: the first occurrence of a shape is priced, repeats
    // hit. One span for the whole loop: a span per priced layer would cost
    // as much as a tenth of the pricing it times; `probe` times that alone.
    let per_layer: Vec<LayerReport> = tr.span("eval.mapping_search", |_| {
        model
            .layers
            .iter()
            .zip(keys)
            .map(|(layer, &key)| {
                let perf = cache.get_or_compute(hw_key, key, || {
                    best_mapping_ctx(layer, &ctx, request.tile_cap)
                });
                let (weight_format, input_format) = ctx
                    .sparse_effects(&layer.sparsity)
                    .map_or((CompressedFormat::Dense, CompressedFormat::Dense), |e| {
                        (e.weight_format, e.input_format)
                    });
                LayerReport {
                    name: Arc::clone(&layer.name),
                    count: layer.count,
                    perf,
                    weight_format,
                    input_format,
                }
            })
            .collect()
    });
    let perf = tr.span("sim.aggregate", |_| {
        aggregate_iter(
            model,
            per_layer.iter().map(|l| (l.count, &l.perf)),
            &request.tech,
        )
    });
    let distinct = cache.misses() as usize;
    let report = tr.span("eval.cost_summary", |_| {
        let latency_cycles = perf.cycles as f64;
        let time_s = latency_cycles / (request.tech.freq_ghz * 1e9);
        let area = ctx.area((request.hw.array.0 + request.hw.array.1).max(1) as u64);
        let objectives = Objectives {
            latency_cycles,
            energy_pj: perf.watts * time_s * 1e12,
            area_um2: area.total_um2(),
        };
        let peak_power_mw = ctx.peak_power_mw();
        EvalReport {
            model: perf,
            cost: CostSummary {
                objectives,
                area,
                peak_power_mw,
                objective: request.objective,
                score: request.objective.score(&objectives, peak_power_mw),
            },
            provenance: Provenance {
                request_id: 1,
                version: version.to_string(),
                codec_version: CODEC_VERSION,
                request_fingerprint: request.fingerprint(),
                hw_key,
                cache_hits: (per_layer.len() - distinct) as u64,
                cache_misses: distinct as u64,
            },
            per_layer,
        }
    });
    (report, distinct)
}

/// Replays one op's evaluation; returns whether the replay's report
/// encodes to the entry point's bytes.
fn replay(
    tally: &mut Tally,
    tr: &mut Tracer,
    case: &Case,
    report: &EvalReport,
    out: &[u8],
) -> bool {
    // A fresh decode, so the replay hashes layer shapes itself instead of
    // reading the memo the entry point filled.
    let fresh = EvalRequest::decode(&case.request_bytes).expect("decoded by the op");
    let (replayed, distinct) = tr.span("eval.replay", |tr| {
        replay_evaluate(tr, &fresh, &report.provenance.version)
    });
    tally.add("sim.layers_per_op", fresh.workload.layers.len() as f64);
    tally.add("sim.distinct_layers_per_op", distinct as f64);
    tally.add("eval.cache_misses", report.provenance.cache_misses as f64);
    tally.add("eval.cache_hits", report.provenance.cache_hits as f64);
    tally.add("eval.request_bytes", case.request_bytes.len() as f64);
    tally.add("eval.report_bytes", out.len() as f64);
    replayed.encode() == out
}

impl Workload for EvalColdZoo {
    fn sweep(&mut self, tr: &mut Tracer, lat_ms: &mut Vec<f64>) -> SweepStats {
        let tally = &mut self.tally;
        sweep_cases(
            &self.cases,
            tr,
            lat_ms,
            |tr, case| {
                let request = tr
                    .span("eval.request_decode", |_| {
                        EvalRequest::decode(&case.request_bytes)
                    })
                    .ok()?;
                let session = tr.span("eval.session_new", |_| EvalSession::new());
                let report = tr.span("eval.evaluate_cold", |_| session.evaluate(&request));
                let out = tr.span("eval.report_encode", |_| report.encode());
                Some((request, report, out))
            },
            |case, done| {
                let (_, _, out) = done.as_ref()?;
                (*out == case.report_bytes).then_some(1)
            },
            |tr, case, done| {
                done.as_ref()
                    .is_some_and(|(_, report, out)| replay(tally, tr, case, report, out))
            },
        )
    }

    /// Once per request: the codec directions and the context fast path
    /// the one-shot op does not take, and the pricing inside the mapping
    /// search on its own.
    fn probe(&mut self, tr: &mut Tracer) -> u64 {
        let mut failed = 0;
        for case in &self.cases {
            let request = EvalRequest::decode(&case.request_bytes).expect("encoded by setup");
            tr.next_op();
            tr.span("eval.request_encode", |_| request.encode());
            let decoded = tr.span("eval.report_decode", |_| {
                EvalReport::decode(&case.report_bytes)
            });
            failed += u64::from(!decoded.is_ok_and(|d| d.encode() == case.report_bytes));
            let mut ctx = CostContext::new(HwConfig::lego_256(), request.tech);
            tr.span("model.context_update", |_| {
                ctx.update(
                    &request.hw,
                    request.tech,
                    SramModel::default(),
                    request.sparse,
                )
            });
            // `ctx` now prices the request's hardware. Each distinct shape
            // once, as a fresh session's cache leaves it.
            let mut seen = HashSet::new();
            let distinct: Vec<_> = request
                .workload
                .layers
                .iter()
                .zip(
                    request
                        .as_view()
                        .layer_keys
                        .expect("a view carries the keys"),
                )
                .filter(|(_, key)| seen.insert(**key))
                .map(|(layer, _)| layer)
                .collect();
            tr.span("sim.best_mapping", |_| {
                for layer in &distinct {
                    std::hint::black_box(best_mapping_ctx(layer, &ctx, request.tile_cap));
                }
            });
        }
        failed
    }

    fn quality_ratio(&self) -> f64 {
        // Every report is checked byte for byte against its reference, so
        // reported cost over reference cost is exactly one.
        1.0
    }

    fn layer_values(&self, spans: &[Span]) -> Vec<(&'static str, f64)> {
        let hits = self.tally.sum("eval.cache_hits");
        let misses = self.tally.sum("eval.cache_misses");
        let mut values = self.tally.per_op();
        values.push(("eval.cache_hit_ratio", hit_ratio(hits, misses)));
        values.push((
            "eval.replay_residual_share",
            residual_share(&replay_share_per_op(
                spans,
                "eval.replay",
                "eval.evaluate_cold",
            )),
        ));
        values
    }

    fn setup_failures(&self) -> u64 {
        self.setup_failures
    }
}
