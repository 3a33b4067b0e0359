//! # lego-obs — zero-dependency observability for the evaluation stack
//!
//! Every hot path in the workspace (the `EvalSession` request/response
//! layer, the explorer's batch lanes, the bench bins) threads an [`Obs`]
//! handle: a cheap, cloneable reference to a shared [`Recorder`] that
//! accumulates **counters**, **value histograms** (count/sum plus
//! log-bucketed p50/p90/p99), and **named timed spans**. The design constraint that shapes the whole
//! crate is the repository's byte-identical determinism CI: observability
//! must never perturb results, and in [`ObsMode::Deterministic`] the
//! summary itself must be byte-identical across runs.
//!
//! Three modes:
//!
//! * [`Obs::disabled`] — a `None` handle; every operation is a single
//!   branch and no allocation. This is the default everywhere.
//! * [`Obs::deterministic`] — records counts, values, and span *counts*,
//!   but never reads the clock (all durations render as `0`), so
//!   [`Summary::render`] is byte-stable across identical runs of a
//!   workload whose recorded counts and values do not depend on thread
//!   interleaving.
//! * [`Obs::wall_clock`] — the same series with real durations; for perf
//!   runs, not for CI diffing.
//!
//! The mode decides only whether the clock is read, never which series
//! exist.
//!
//! # Quickstart
//!
//! ```
//! use lego_obs::{Obs, ObsMode};
//!
//! let obs = Obs::deterministic();
//! {
//!     let _span = obs.span("eval/mapping_search");
//!     obs.count("sim.mappings_tried", 12);
//!     obs.record("codec.report_bytes", 3.0);
//! } // span closes on drop
//!
//! let summary = obs.summary();
//! assert_eq!(summary.mode, ObsMode::Deterministic);
//! assert_eq!(summary.counter("sim.mappings_tried"), 12);
//! assert_eq!(summary.spans["eval/mapping_search"].count, 1);
//! // Deterministic mode never reads the clock:
//! assert_eq!(summary.spans["eval/mapping_search"].total_ns, 0);
//! // The render is a stable JSON document (sorted keys, fixed layout),
//! // safe to byte-compare across runs in CI.
//! let text = summary.render();
//! assert_eq!(text, obs.summary().render());
//! ```
//!
//! Timing a closure and nesting spans:
//!
//! ```
//! use lego_obs::Obs;
//!
//! let obs = Obs::wall_clock();
//! let span = obs.span("explore/generation");
//! let value = span.time("score_batch", || 6 * 7); // "explore/generation/score_batch"
//! assert_eq!(value, 42);
//! drop(span);
//! assert!(obs.summary().spans["explore/generation/score_batch"].total_ns > 0);
//! ```
//!
//! Every value and span series additionally feeds a log-bucketed
//! histogram ([`mod@hist`]), so summaries report p50/p90/p99 estimates
//! instead of min/max — and a recorder can carry an optional bounded
//! [`TraceLog`] of typed events ([`Obs::traced`]) with
//! Chrome-trace and folded-stack exporters; see [`mod@trace`].
//!
//! The [`mod@bench`] module holds the machine-readable row format
//! (`{metric, value, unit, config}`) that the repo benchmark writes to
//! `benchmark/RESULTS.json` and its `compare` / `check` commands re-parse.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod bench;
pub mod hist;
pub mod trace;

pub use bench::BenchRow;
pub use hist::Hist;
pub use trace::{TraceEvent, TraceKind, TraceLog, TraceSnapshot};

/// What a [`Recorder`] is allowed to observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsMode {
    /// No recorder attached; every operation is a no-op.
    Disabled,
    /// Record counts and values, but never read the clock: every
    /// duration is `0`, so the summary of a workload whose counts do not
    /// depend on thread interleaving is byte-identical across runs.
    Deterministic,
    /// Record everything, including real wall-clock durations.
    WallClock,
}

impl ObsMode {
    /// Stable lowercase name: `disabled` / `deterministic` / `wall_clock`.
    pub fn label(self) -> &'static str {
        match self {
            ObsMode::Disabled => "disabled",
            ObsMode::Deterministic => "deterministic",
            ObsMode::WallClock => "wall_clock",
        }
    }
}

/// Statistics for one recorded value series: count, sum, and a
/// log-bucketed percentile histogram ([`Hist`]) over the samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValueStat {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Log-bucketed distribution of the samples.
    hist: Hist,
}

impl ValueStat {
    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.hist.record(value);
    }

    /// Folds another stat into this one (used when a summary merges the
    /// per-thread recorder stripes).
    fn merge(&mut self, other: &ValueStat) {
        self.count += other.count;
        self.sum += other.sum;
        self.hist.merge(&other.hist);
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated quantile of the samples (see [`Hist::percentile`]).
    pub fn percentile(&self, q: f64) -> f64 {
        self.hist.percentile(q)
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.hist.p50()
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.hist.p90()
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.hist.p99()
    }
}

/// Aggregate statistics for one named span: entry count, total
/// nanoseconds, and a log-bucketed duration histogram. In
/// [`ObsMode::Deterministic`] durations are recorded as `0`, so the
/// bucket counts survive but every wall value (total and percentiles)
/// renders as exactly `0`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// How many times the span was entered.
    pub count: u64,
    /// Total nanoseconds across all entries; always `0` in
    /// [`ObsMode::Deterministic`].
    pub total_ns: u64,
    /// Log-bucketed distribution of per-entry durations.
    hist: Hist,
}

impl SpanStat {
    fn observe(&mut self, elapsed_ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(elapsed_ns);
        self.hist.record(elapsed_ns as f64);
    }

    fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.hist.merge(&other.hist);
    }

    /// Median duration estimate in nanoseconds.
    pub fn p50_ns(&self) -> f64 {
        self.hist.p50()
    }

    /// 90th-percentile duration estimate in nanoseconds.
    pub fn p90_ns(&self) -> f64 {
        self.hist.p90()
    }

    /// 99th-percentile duration estimate in nanoseconds.
    pub fn p99_ns(&self) -> f64 {
        self.hist.p99()
    }
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    values: BTreeMap<String, ValueStat>,
    spans: BTreeMap<String, SpanStat>,
}

/// One stripe of recorder state on its own cache line, so two threads
/// recording into different stripes never bounce a line between cores.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Stripe(Mutex<State>);

/// Stripe count. Threads are spread across stripes round-robin by a
/// per-thread index, so the lanes of one batch, spawned one after
/// another, take consecutive stripes and rarely contend.
const STRIPES: usize = 16;

/// Monotonic per-thread index, assigned on a thread's first recording.
static NEXT_THREAD: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
thread_local! {
    static THREAD_STRIPE: usize =
        NEXT_THREAD.fetch_add(1, std::sync::atomic::Ordering::Relaxed) % STRIPES;
}

/// Process-logical trace thread ids, assigned on a thread's first traced
/// event: the main thread of a fresh process is `0`, the next thread to
/// trace is `1`, and so on. Unlike OS thread ids these are stable across
/// runs of a single-threaded workload, which is what keeps deterministic
/// trace exports byte-identical.
static NEXT_TID: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
thread_local! {
    static TRACE_TID: u32 = NEXT_TID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

thread_local! {
    /// The request id active on this thread (see [`Obs::request_scope`]);
    /// `0` = none.
    static CURRENT_REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// The trace half of a recorder: the bounded event ring plus the epoch
/// timestamps are measured from.
#[derive(Debug)]
struct TraceState {
    log: Mutex<TraceLog>,
    epoch: Instant,
}

/// The shared sink behind an [`Obs`] handle. Interior-mutable and
/// thread-safe. State is striped per recording thread (summaries merge
/// the stripes), so concurrent workers do not serialize on one lock; all
/// maps are `BTreeMap`s so summaries iterate in a stable order.
#[derive(Debug)]
pub struct Recorder {
    mode: ObsMode,
    stripes: [Stripe; STRIPES],
    /// `Some` when tracing is enabled ([`Obs::traced`]).
    trace: Option<TraceState>,
}

impl Recorder {
    fn new(mode: ObsMode) -> Self {
        Recorder {
            mode,
            stripes: Default::default(),
            trace: None,
        }
    }

    /// Append a trace event, if tracing is enabled. The timestamp is read
    /// only in [`ObsMode::WallClock`]; deterministic traces carry `0`.
    fn trace_push(&self, kind: TraceKind) {
        if let Some(trace) = &self.trace {
            let ts_ns = if self.mode == ObsMode::WallClock {
                u64::try_from(trace.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
            } else {
                0
            };
            let event = TraceEvent {
                ts_ns,
                tid: TRACE_TID.with(|t| *t),
                request_id: CURRENT_REQUEST.with(|c| c.get()),
                kind,
            };
            trace
                .log
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(event);
        }
    }

    /// Locks the calling thread's stripe.
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        let i = THREAD_STRIPE.with(|i| *i);
        // Observability must never take the process down: if another
        // thread panicked while holding the lock, keep recording into
        // whatever state it left behind.
        self.stripes[i].0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Locks every stripe in order and folds it into `f`.
    fn fold_stripes(&self, mut f: impl FnMut(&State)) {
        for stripe in &self.stripes {
            f(&stripe.0.lock().unwrap_or_else(|e| e.into_inner()));
        }
    }

    fn end_span(&self, name: &str, elapsed_ns: u64) {
        let mut state = self.lock();
        // `get_mut` first: the common case is a hot span name recorded
        // thousands of times, which must not allocate a key per entry.
        let stat = match state.spans.get_mut(name) {
            Some(stat) => stat,
            None => state.spans.entry(name.to_string()).or_default(),
        };
        stat.observe(elapsed_ns);
    }
}

/// A cheap, cloneable observability handle: `None` when disabled, a
/// shared [`Recorder`] otherwise. See the crate docs for the quickstart.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    rec: Option<Arc<Recorder>>,
}

impl Obs {
    /// A handle that records nothing; every operation is a single branch.
    /// This is also what [`Obs::default`] returns.
    pub fn disabled() -> Self {
        Obs { rec: None }
    }

    /// A recorder that never reads the clock: counts and values are
    /// recorded, every duration is `0`.
    pub fn deterministic() -> Self {
        Obs {
            rec: Some(Arc::new(Recorder::new(ObsMode::Deterministic))),
        }
    }

    /// A recorder that also measures real wall-clock durations. Use for
    /// perf runs, not CI diffing.
    pub fn wall_clock() -> Self {
        Obs {
            rec: Some(Arc::new(Recorder::new(ObsMode::WallClock))),
        }
    }

    /// Enables structured event tracing on this handle: span enter/exit
    /// and counter events are appended to a bounded ring of `capacity`
    /// events (oldest overwritten first; see [`TraceLog`]). Call at
    /// construction time — the recorder is rebuilt, so clones taken
    /// before this call keep recording into the untraced recorder, and
    /// any already-recorded data is discarded. No-op when disabled.
    #[must_use]
    pub fn traced(self, capacity: usize) -> Self {
        match self.rec {
            None => self,
            Some(rec) => Obs {
                rec: Some(Arc::new(Recorder {
                    trace: Some(TraceState {
                        log: Mutex::new(TraceLog::new(capacity)),
                        epoch: Instant::now(),
                    }),
                    ..Recorder::new(rec.mode)
                })),
            },
        }
    }

    /// Snapshot the trace ring for export ([`TraceSnapshot`]); `None`
    /// when this handle is untraced or disabled.
    pub fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        let trace = self.rec.as_ref()?.trace.as_ref()?;
        Some(
            trace
                .log
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .snapshot(),
        )
    }

    /// Marks the calling thread as working on request `id` until the
    /// returned guard drops: every trace event recorded on this thread in
    /// between (span enter/exit, counter deltas) carries the id, which is
    /// how an exported trace attributes spans to the
    /// [`EvalSession`]-minted `RequestId` in a report's provenance.
    /// Scopes nest — the guard restores the previous id on drop. No-op
    /// when disabled.
    ///
    /// [`EvalSession`]: https://docs.rs/lego-eval
    pub fn request_scope(&self, id: u64) -> RequestScope {
        if self.rec.is_none() {
            return RequestScope {
                prev: 0,
                active: false,
                _not_send: std::marker::PhantomData,
            };
        }
        let prev = CURRENT_REQUEST.with(|c| c.replace(id));
        RequestScope {
            prev,
            active: true,
            _not_send: std::marker::PhantomData,
        }
    }

    /// The mode of the attached recorder ([`ObsMode::Disabled`] if none).
    pub fn mode(&self) -> ObsMode {
        self.rec.as_ref().map_or(ObsMode::Disabled, |r| r.mode)
    }

    /// `true` unless this handle is [`Obs::disabled`].
    pub fn is_enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Add `n` to the named counter.
    pub fn count(&self, name: &str, n: u64) {
        if let Some(rec) = &self.rec {
            {
                let mut state = rec.lock();
                match state.counters.get_mut(name) {
                    Some(c) => *c += n,
                    None => {
                        state.counters.insert(name.to_string(), n);
                    }
                }
            }
            if rec.trace.is_some() {
                rec.trace_push(TraceKind::Count(name.into(), n));
            }
        }
    }

    /// Record one sample of the named value series (count/sum plus the
    /// percentile histogram). Non-finite samples are dropped: they cannot
    /// render as JSON and a single NaN would poison the sum forever.
    pub fn record(&self, name: &str, value: f64) {
        if !value.is_finite() {
            return;
        }
        if let Some(rec) = &self.rec {
            let mut state = rec.lock();
            let stat = match state.values.get_mut(name) {
                Some(stat) => stat,
                None => state
                    .values
                    .entry(name.to_string())
                    .or_insert_with(ValueStat::default),
            };
            stat.observe(value);
        }
    }

    /// Open a named span; it closes (and records) when the returned guard
    /// drops. In [`ObsMode::Deterministic`] the entry is counted but the
    /// clock is never read, so the recorded duration is `0`.
    ///
    /// The guard borrows both this handle and the name, so opening a span
    /// on the hot path allocates nothing.
    pub fn span<'a>(&'a self, name: &'a str) -> Span<'a> {
        match &self.rec {
            None => Span {
                rec: None,
                name: Cow::Borrowed(""),
                start: None,
            },
            Some(rec) => {
                if rec.trace.is_some() {
                    rec.trace_push(TraceKind::Enter(name.into()));
                }
                Span {
                    rec: Some(rec),
                    name: Cow::Borrowed(name),
                    start: if rec.mode == ObsMode::WallClock {
                        Some(Instant::now())
                    } else {
                        None
                    },
                }
            }
        }
    }

    /// Run `f` inside a span of the given name and return its result.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }

    /// Snapshot the recorder into an immutable [`Summary`].
    pub fn summary(&self) -> Summary {
        let mut summary = Summary {
            mode: self.mode(),
            counters: BTreeMap::new(),
            values: BTreeMap::new(),
            spans: BTreeMap::new(),
        };
        if let Some(rec) = &self.rec {
            rec.fold_stripes(|state| {
                fold_series(&mut summary.counters, &state.counters, |a, b| *a += b);
                fold_series(&mut summary.values, &state.values, ValueStat::merge);
                fold_series(&mut summary.spans, &state.spans, SpanStat::merge);
            });
        }
        summary
    }

    /// Clear all recorded data (mode is kept; the trace ring is emptied
    /// too, keeping its capacity).
    pub fn reset(&self) {
        if let Some(rec) = &self.rec {
            for stripe in &rec.stripes {
                let mut state = stripe.0.lock().unwrap_or_else(|e| e.into_inner());
                state.counters.clear();
                state.values.clear();
                state.spans.clear();
            }
            if let Some(trace) = &rec.trace {
                let mut log = trace.log.lock().unwrap_or_else(|e| e.into_inner());
                *log = TraceLog::new(log.capacity());
            }
        }
    }
}

/// Folds one stripe's series into a summary's, merging the stats of a
/// name that more than one stripe recorded.
fn fold_series<V: Clone>(
    into: &mut BTreeMap<String, V>,
    stripe: &BTreeMap<String, V>,
    merge: impl Fn(&mut V, &V),
) {
    for (name, stat) in stripe {
        match into.get_mut(name) {
            Some(mine) => merge(mine, stat),
            None => {
                into.insert(name.clone(), stat.clone());
            }
        }
    }
}

/// Drop guard from [`Obs::request_scope`]: restores the thread's previous
/// request id when dropped. Deliberately `!Send` — the guard manipulates
/// thread-local state, so it must drop on the thread that created it.
#[derive(Debug)]
pub struct RequestScope {
    prev: u64,
    active: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        if self.active {
            CURRENT_REQUEST.with(|c| c.set(self.prev));
        }
    }
}

/// Drop guard for one entry into a named span. Created by [`Obs::span`].
/// Borrows the recorder and (usually) the name, so the guard itself is
/// allocation-free; only [`Span::child`] builds an owned composed name.
#[derive(Debug)]
pub struct Span<'a> {
    rec: Option<&'a Recorder>,
    name: Cow<'a, str>,
    start: Option<Instant>,
}

impl<'a> Span<'a> {
    /// Open a nested span named `parent/child`.
    pub fn child(&self, name: &str) -> Span<'a> {
        match self.rec {
            None => Span {
                rec: None,
                name: Cow::Borrowed(""),
                start: None,
            },
            Some(rec) => {
                let composed = format!("{}/{}", self.name, name);
                if rec.trace.is_some() {
                    rec.trace_push(TraceKind::Enter(composed.as_str().into()));
                }
                Span {
                    rec: Some(rec),
                    name: Cow::Owned(composed),
                    start: if rec.mode == ObsMode::WallClock {
                        Some(Instant::now())
                    } else {
                        None
                    },
                }
            }
        }
    }

    /// Run `f` inside a nested span named `parent/child`.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _span = self.child(name);
        f()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(rec) = self.rec {
            let ns = self
                .start
                .map(|s| u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX))
                .unwrap_or(0);
            rec.end_span(&self.name, ns);
            if rec.trace.is_some() {
                rec.trace_push(TraceKind::Exit(self.name.as_ref().into()));
            }
        }
    }
}

/// An immutable snapshot of a [`Recorder`], with a byte-stable
/// [`Summary::render`].
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Mode of the recorder this was snapshotted from.
    pub mode: ObsMode,
    /// Counter totals, keyed by name.
    pub counters: BTreeMap<String, u64>,
    /// Value series statistics, keyed by name.
    pub values: BTreeMap<String, ValueStat>,
    /// Span statistics, keyed by name.
    pub spans: BTreeMap<String, SpanStat>,
}

impl Summary {
    /// Counter total by name (`0` if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.values.is_empty() && self.spans.is_empty()
    }

    /// Render as a stable JSON document: sorted keys, fixed layout, no
    /// clock-derived content in [`ObsMode::Deterministic`]. Two identical
    /// runs produce byte-identical output, so CI can `diff` it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode.label()));
        out.push_str("  \"counters\": {");
        render_map(&mut out, &self.counters, |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\n  \"values\": {");
        render_map(&mut out, &self.values, |out, v| {
            out.push_str(&format!(
                "{{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                v.count,
                bench::fmt_f64(v.sum),
                bench::fmt_f64(v.p50()),
                bench::fmt_f64(v.p90()),
                bench::fmt_f64(v.p99()),
            ))
        });
        out.push_str("},\n  \"spans\": {");
        render_map(&mut out, &self.spans, |out, v| {
            out.push_str(&format!(
                "{{\"count\": {}, \"total_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}",
                v.count,
                v.total_ns,
                bench::fmt_f64(v.p50_ns()),
                bench::fmt_f64(v.p90_ns()),
                bench::fmt_f64(v.p99_ns()),
            ))
        });
        out.push_str("}\n}\n");
        out
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

fn render_map<V>(
    out: &mut String,
    map: &BTreeMap<String, V>,
    mut render_value: impl FnMut(&mut String, &V),
) {
    if map.is_empty() {
        return;
    }
    out.push('\n');
    for (i, (k, v)) in map.iter().enumerate() {
        out.push_str("    \"");
        bench::escape_into(out, k);
        out.push_str("\": ");
        render_value(out, v);
        if i + 1 < map.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let obs = Obs::disabled();
        obs.count("a", 1);
        obs.record("b", 2.0);
        let _span = obs.span("c");
        drop(_span);
        let s = obs.summary();
        assert_eq!(s.mode, ObsMode::Disabled);
        assert!(s.is_empty());
        assert!(!obs.is_enabled());
    }

    #[test]
    fn deterministic_counts_but_never_times() {
        let obs = Obs::deterministic();
        obs.count("eval.requests", 2);
        obs.count("eval.requests", 1);
        obs.record("bytes", 10.0);
        obs.record("bytes", 4.0);
        obs.time("phase", || ());
        obs.time("phase", || ());

        let s = obs.summary();
        assert_eq!(s.counter("eval.requests"), 3);
        assert_eq!(s.values["bytes"].count, 2);
        assert_eq!(s.values["bytes"].sum, 14.0);
        assert_eq!(s.values["bytes"].p50(), 4.0); // bucket [4, 8)
        assert_eq!(s.values["bytes"].p99(), 8.0); // 10 lands in [8, 16)
        assert_eq!(s.values["bytes"].mean(), 7.0);
        assert_eq!(s.spans["phase"].count, 2);
        assert_eq!(s.spans["phase"].total_ns, 0);
        // Zero durations keep their counts but report zero percentiles.
        assert_eq!(s.spans["phase"].p99_ns(), 0.0);
    }

    #[test]
    fn wall_clock_times_spans() {
        let obs = Obs::wall_clock();
        obs.time("phase", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let s = obs.summary();
        assert_eq!(s.spans["phase"].count, 1);
        assert!(s.spans["phase"].total_ns >= 1_000_000);
    }

    #[test]
    fn nested_spans_compose_names() {
        let obs = Obs::deterministic();
        let outer = obs.span("a");
        let v = outer.time("b", || 7);
        assert_eq!(v, 7);
        drop(outer);
        let s = obs.summary();
        assert_eq!(s.spans["a"].count, 1);
        assert_eq!(s.spans["a/b"].count, 1);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let obs = Obs::deterministic();
        obs.record("v", f64::NAN);
        obs.record("v", f64::INFINITY);
        obs.record("v", 1.5);
        let s = obs.summary();
        assert_eq!(s.values["v"].count, 1);
        assert_eq!(s.values["v"].sum, 1.5);
    }

    #[test]
    fn render_is_stable_and_sorted() {
        let obs = Obs::deterministic();
        obs.count("zeta", 1);
        obs.count("alpha", 2);
        obs.record("mid", 3.5);
        obs.time("span", || ());
        let a = obs.summary().render();
        let b = obs.summary().render();
        assert_eq!(a, b);
        let alpha = a.find("\"alpha\"").unwrap();
        let zeta = a.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "keys must render sorted");
        assert!(a.contains("\"mode\": \"deterministic\""));
        assert!(a.contains("\"sum\": 3.5"));
    }

    #[test]
    fn reset_clears_everything() {
        let obs = Obs::deterministic();
        obs.count("a", 1);
        obs.time("s", || ());
        obs.reset();
        assert!(obs.summary().is_empty());
        assert_eq!(obs.mode(), ObsMode::Deterministic);
    }

    #[test]
    fn clones_share_one_recorder() {
        // Every recording call from every thread lands exactly once,
        // whichever stripe it went through.
        let obs = Obs::deterministic();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let h = obs.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        h.count("shared", 1);
                        h.record("value", f64::from(t * 100 + i));
                        h.time("span", || ());
                    }
                });
            }
        });
        let s = obs.summary();
        assert_eq!(s.counter("shared"), 400);
        assert_eq!(s.values["value"].count, 400);
        assert_eq!(s.values["value"].sum, f64::from((0..400u32).sum::<u32>()));
        assert_eq!(s.spans["span"].count, 400);
    }
}
