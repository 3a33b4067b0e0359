//! Tracing & profiling: capture where an evaluation spends its time.
//!
//! Attach a wall-clock `Obs` handle with a bounded trace ring to an
//! `EvalSession`, evaluate a model, then export the run two ways:
//!
//! * **Chrome trace-event JSON** — load `trace_eval.json` in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing` to see the
//!   `eval/*` span tree on a timeline, with each span tagged by the
//!   `RequestId` the session minted for the evaluation;
//! * **folded stacks** — feed `trace_eval.folded` to any flamegraph
//!   tool (`flamegraph.pl`, inferno, speedscope).
//!
//! The summary printed at the end carries log-bucketed p50/p90/p99
//! latency percentiles per span and the cache residency gauges. Swap
//! `Obs::wall_clock()` for `Obs::deterministic()` and the same code
//! produces byte-identical exports on every run (all timestamps zeroed)
//! — that is what CI diffs.
//!
//! Run with: `cargo run --example trace_eval`

use lego::eval::{EvalRequest, EvalSession};
use lego::model::HwConfig;
use lego::obs::Obs;

fn main() {
    // A wall-clock recorder with a 64Ki-event trace ring. The ring is
    // bounded: if a run overflows it, the oldest events are dropped and
    // the exporters still emit a well-formed trace.
    let obs = Obs::wall_clock().traced(65536);
    let session = EvalSession::new().with_obs(obs.clone());

    // Evaluate twice: the first request runs cold, the second hits the
    // session cache — both visible in the trace as separate request ids.
    let request = EvalRequest::new(lego::workloads::zoo::mobilenet_v2(), HwConfig::lego_256());
    request
        .validate()
        .expect("zoo model on stock hardware is a valid request");
    let cold = session.evaluate(&request);
    let warm = session.evaluate(&request);
    // Same prices either way — only provenance records the cache warmth.
    assert_eq!(cold.cost, warm.cost);
    assert_eq!(cold.per_layer, warm.per_layer);
    println!(
        "request {} ran cold ({} misses); request {} ran warm ({} hits)",
        cold.provenance.request_id,
        cold.provenance.cache_misses,
        warm.provenance.request_id,
        warm.provenance.cache_hits,
    );

    // Export the ring. Spans become B/E duration events, counters become
    // C events; `args.request_id` ties every span to its evaluation.
    let snapshot = obs.trace_snapshot().expect("tracing is enabled");
    let out_dir = std::env::temp_dir();
    let trace_path = out_dir.join("trace_eval.json");
    let folded_path = out_dir.join("trace_eval.folded");
    std::fs::write(&trace_path, snapshot.chrome_trace_json()).expect("write trace");
    std::fs::write(&folded_path, snapshot.folded_stacks()).expect("write stacks");
    println!(
        "{} trace events ({} dropped) -> {}",
        snapshot.events.len(),
        snapshot.dropped,
        trace_path.display(),
    );
    println!("folded stacks -> {}", folded_path.display());

    // The cache gauges price what the session is holding resident.
    let gauges = session.cache().gauges();
    println!(
        "cache: {} entries resident (~{} bytes), hit rate {:.0}%",
        gauges.entries,
        gauges.resident_bytes,
        gauges.hit_rate() * 100.0,
    );

    // And the summary aggregates every span into p50/p90/p99 histograms.
    println!("\n{}", obs.summary().render());
}
