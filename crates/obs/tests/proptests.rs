//! Property tests for the determinism contract of `lego-obs`: a
//! `Deterministic`-mode summary must be byte-identical across two
//! identical runs, whatever sequence of operations produced it, and the
//! bench-row JSON must round-trip exactly.

use lego_obs::bench::{parse_bench_json, render_bench_json, BenchRow};
use lego_obs::{Obs, TraceEvent, TraceKind, TraceLog};
use proptest::prelude::*;
use proptest::{collection, sample};
use std::collections::BTreeMap;

/// One recorded operation, replayable onto any recorder.
#[derive(Debug, Clone)]
enum Op {
    Count(String, u64),
    Record(String, f64),
    Span(String),
    NestedSpan(String, String),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let name = sample::select(vec![
        "eval/context_build".to_string(),
        "eval.requests".to_string(),
        "sim.mappings_tried".to_string(),
        "cache.resident_bytes".to_string(),
        "codec/encode".to_string(),
    ]);
    (name, 0u8..4, 0u64..1000).prop_map(|(name, kind, raw)| match kind {
        0 => Op::Count(name, raw),
        1 => Op::Record(name, raw as f64 / 8.0),
        2 => Op::Span(name),
        _ => Op::NestedSpan(name, format!("sub{}", raw % 3)),
    })
}

fn replay(obs: &Obs, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Count(name, n) => obs.count(name, *n),
            Op::Record(name, v) => obs.record(name, *v),
            Op::Span(name) => drop(obs.span(name)),
            Op::NestedSpan(name, child) => {
                let span = obs.span(name);
                span.time(child, || ());
            }
        }
    }
}

/// An arbitrary trace event kind over a small name vocabulary, so the
/// generated sequences contain plenty of enters/exits that do and do not
/// match up (orphans, still-open spans, cross-thread interleavings).
fn kind_strategy() -> impl Strategy<Value = TraceKind> {
    let name = sample::select(vec![
        "eval/evaluate".to_string(),
        "eval/context_build".to_string(),
        "explore/shard".to_string(),
        "cache.hits".to_string(),
    ]);
    (name, 0u8..3, 0u64..10).prop_map(|(name, kind, delta)| match kind {
        0 => TraceKind::Enter(name.into()),
        1 => TraceKind::Exit(name.into()),
        _ => TraceKind::Count(name.into(), delta),
    })
}

/// Assert that a Chrome-trace JSON export has balanced `B`/`E` events per
/// thread: scanning each event line in order, a thread's open-span depth
/// never goes negative and ends at zero.
fn assert_balanced_per_tid(json: &str) -> Result<(), TestCaseError> {
    let mut depth: BTreeMap<String, i64> = BTreeMap::new();
    for line in json.lines() {
        let delta = if line.contains("\"ph\": \"B\"") {
            1
        } else if line.contains("\"ph\": \"E\"") {
            -1
        } else {
            continue;
        };
        let tid: String = line
            .split("\"tid\": ")
            .nth(1)
            .map(|rest| rest.chars().take_while(|c| c.is_ascii_digit()).collect())
            .unwrap_or_default();
        prop_assert!(!tid.is_empty(), "event line missing tid: {line}");
        let d = depth.entry(tid).or_default();
        *d += delta;
        prop_assert!(*d >= 0, "exit before enter on a thread: {line}");
    }
    for (tid, d) in depth {
        prop_assert_eq!(d, 0, "unbalanced spans on tid {}", tid);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Satellite 3: any event sequence pushed through a bounded ring —
    // including ones whose enters were overwritten — exports Chrome-trace
    // JSON that parses with the crate's own JSON parser and stays
    // enter/exit balanced per thread.
    #[test]
    fn chrome_trace_export_parses_and_balances(
        kinds in collection::vec((kind_strategy(), 0u32..3), 0usize..48),
        capacity in 1usize..32,
    ) {
        let mut log = TraceLog::new(capacity);
        for (i, (kind, tid)) in kinds.iter().enumerate() {
            log.push(TraceEvent {
                ts_ns: i as u64,
                tid: *tid,
                request_id: (i % 3) as u64,
                kind: kind.clone(),
            });
        }
        let snap = log.snapshot();
        let json = snap.chrome_trace_json();
        prop_assert!(
            parse_bench_json(&json).is_ok(),
            "export must be valid JSON: {json}"
        );
        assert_balanced_per_tid(&json)?;
        // The folded exporter never panics on the same inputs.
        let _ = snap.folded_stacks();
    }

    // The real recorder path: spans/counters replayed onto a traced
    // deterministic recorder export parseable JSON, byte-identical across
    // two identical replays (same thread → same logical tid, ts always 0).
    #[test]
    fn traced_deterministic_exports_are_byte_identical(
        ops in collection::vec(op_strategy(), 0usize..40),
    ) {
        let a = Obs::deterministic().traced(64);
        let b = Obs::deterministic().traced(64);
        replay(&a, &ops);
        replay(&b, &ops);
        let ja = a.trace_snapshot().unwrap().chrome_trace_json();
        let jb = b.trace_snapshot().unwrap().chrome_trace_json();
        prop_assert!(parse_bench_json(&ja).is_ok());
        assert_balanced_per_tid(&ja)?;
        prop_assert_eq!(&ja, &jb);
        prop_assert_eq!(
            a.trace_snapshot().unwrap().folded_stacks(),
            b.trace_snapshot().unwrap().folded_stacks()
        );
    }

    // Satellite 3: every-prefix truncation. After each push, the ring
    // holds exactly the newest min(pushed, capacity) events in order and
    // accounts for every overwritten event.
    #[test]
    fn ring_truncates_correctly_at_every_prefix(
        n in 0usize..80,
        capacity in 1usize..16,
    ) {
        let mut log = TraceLog::new(capacity);
        prop_assert!(log.is_empty());
        for i in 0..n {
            log.push(TraceEvent {
                ts_ns: i as u64,
                tid: 0,
                request_id: 0,
                kind: TraceKind::Count("c".into(), 1),
            });
            let pushed = i + 1;
            let expect_len = pushed.min(capacity);
            prop_assert_eq!(log.len(), expect_len);
            prop_assert_eq!(log.dropped(), (pushed - expect_len) as u64);
            let resident: Vec<u64> = log.events().iter().map(|e| e.ts_ns).collect();
            let expected: Vec<u64> = ((pushed - expect_len)..pushed).map(|x| x as u64).collect();
            prop_assert_eq!(resident, expected, "prefix of {} events", pushed);
        }
    }

    // The satellite-3 contract: replaying any op sequence onto two fresh
    // deterministic recorders yields byte-identical summary renders.
    #[test]
    fn deterministic_summary_is_byte_identical_across_runs(
        ops in collection::vec(op_strategy(), 0usize..40),
    ) {
        let a = Obs::deterministic();
        let b = Obs::deterministic();
        replay(&a, &ops);
        replay(&b, &ops);
        prop_assert_eq!(a.summary().render(), b.summary().render());
        // And the snapshot itself compares equal.
        prop_assert_eq!(a.summary(), b.summary());
    }

    // Deterministic renders never contain clock-derived nanoseconds.
    #[test]
    fn deterministic_spans_always_render_zero_ns(
        ops in collection::vec(op_strategy(), 1usize..40),
    ) {
        let obs = Obs::deterministic();
        replay(&obs, &ops);
        for stat in obs.summary().spans.values() {
            prop_assert_eq!(stat.total_ns, 0);
        }
    }

    // Bench-row JSON round-trips exactly for arbitrary row contents.
    #[test]
    fn bench_rows_roundtrip(
        rows in collection::vec(
            (
                sample::select(vec![
                    "evaluate_single".to_string(),
                    "batch_throughput".to_string(),
                    "odd \"quoted\"\\name".to_string(),
                ]),
                -1_000_000i64..1_000_000,
                0u8..3,
            )
                .prop_map(|(metric, v, unit)| BenchRow::new(
                    metric,
                    v as f64 / 16.0,
                    ["ns", "evals/s", "bytes"][unit as usize],
                    format!("cfg{}", v % 7),
                )),
            0usize..12,
        ),
    ) {
        let text = render_bench_json(&rows);
        prop_assert_eq!(parse_bench_json(&text).unwrap(), rows);
    }
}
