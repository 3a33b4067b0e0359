//! The benchmark's own tracer: spans recorded in memory around each call
//! into a layer's public functions, reduced to per-layer self times and
//! written out through `lego_obs::TraceLog` when the run ends.
//!
//! No span lives inside any `crates/*` source; everything here wraps calls
//! made from the benchmark's files.

use lego_obs::{TraceEvent, TraceKind, TraceLog, TraceSnapshot};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Spans of one op share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Events kept for the exported files: the newest spans' enters and exits.
const EXPORT_EVENTS: usize = 60_000;

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A tracer that records. An untraced run passes [`Tracer::off`]
    /// through the same code, where `span` only calls its closure.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next op; spans recorded until the next call carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.now_ns();
        let result = f(self);
        self.spans[id as usize].end_ns = self.now_ns();
        self.open.pop();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The newest recorded spans as enter/exit events in a `TraceLog` ring.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut log = TraceLog::new(EXPORT_EVENTS);
        // Only what the ring can hold is turned into events, from the first
        // top-level span on, so every parent of an exported span is exported.
        let tail = self.spans.len().saturating_sub(EXPORT_EVENTS / 2);
        let first = (tail..self.spans.len())
            .find(|&i| self.spans[i].parent.is_none())
            .unwrap_or(self.spans.len());
        let event = |ts_ns: u64, span: &Span, enter: bool| TraceEvent {
            ts_ns,
            tid: 1,
            request_id: span.op,
            kind: if enter {
                TraceKind::Enter(span.name.into())
            } else {
                TraceKind::Exit(span.name.into())
            },
        };
        let mut open: Vec<u32> = Vec::new();
        for (i, span) in self.spans.iter().enumerate().skip(first) {
            while open.last().copied() != span.parent {
                let done = &self.spans[open.pop().expect("parent is open") as usize];
                log.push(event(done.end_ns, done, false));
            }
            log.push(event(span.start_ns, span, true));
            open.push(i as u32);
        }
        while let Some(id) = open.pop() {
            let done = &self.spans[id as usize];
            log.push(event(done.end_ns, done, false));
        }
        log.snapshot()
    }
}

/// Per op, the summed self time of the spans called `name` — a span's
/// duration minus the part its direct children cover — for the ops in which
/// one occurs.
pub fn self_ns_per_op(spans: &[Span], name: &str) -> Vec<f64> {
    let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans {
        if span.name == name {
            *per_op.entry(span.op).or_default() += span.duration_ns();
        }
    }
    // Children follow their parents, so every total is in before the parts
    // its children cover are taken out.
    for span in spans {
        let parent = span.parent.map(|p| &spans[p as usize]);
        if let Some(parent) = parent.filter(|p| p.name == name) {
            let own = per_op.get_mut(&parent.op).expect("parent was counted");
            *own = own.saturating_sub(span.duration_ns());
        }
    }
    per_op.into_values().map(|ns| ns as f64).collect()
}

/// Per op, the share of an entry point's time its replay accounts for:
/// `Σ direct children of the `replay` span / the `whole` span`. The caller
/// takes the median, in which interference that hit one of the two more
/// than the other cancels, and reports its distance from one.
pub fn replay_share_per_op(spans: &[Span], replay: &str, whole: &str) -> Vec<f64> {
    let mut per_op: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for span in spans {
        if span.name == whole {
            per_op.entry(span.op).or_default().1 += span.duration_ns();
        } else if span
            .parent
            .is_some_and(|p| spans[p as usize].name == replay)
        {
            per_op.entry(span.op).or_default().0 += span.duration_ns();
        }
    }
    per_op
        .into_values()
        .filter(|&(_, whole)| whole > 0)
        .map(|(parts, whole)| parts as f64 / whole as f64)
        .collect()
}

/// Summed duration of the spans called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, op: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    fn sample() -> Vec<Span> {
        vec![
            span("whole", 0, 100, None, 1),
            span("a", 10, 40, Some(0), 1),
            span("leaf", 15, 25, Some(1), 1),
            span("b", 50, 90, Some(0), 1),
            span("whole", 200, 260, None, 2),
            span("a", 210, 230, Some(4), 2),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children_summed_per_op() {
        // whole(100) − a(30) − b(40) in op 1, whole(60) − a(20) in op 2.
        assert_eq!(self_ns_per_op(&sample(), "whole"), vec![30.0, 40.0]);
        // a(30) − leaf(10); grandchildren are not taken out twice.
        assert_eq!(self_ns_per_op(&sample(), "a"), vec![20.0, 20.0]);
        assert_eq!(self_ns_per_op(&sample(), "leaf"), vec![10.0]);
        assert_eq!(self_ns_per_op(&sample(), "b"), vec![40.0]);
        assert!(self_ns_per_op(&sample(), "absent").is_empty());
    }

    #[test]
    fn replay_share_compares_direct_children_to_the_whole_per_op() {
        let spans = vec![
            span("entry", 0, 100, None, 1),
            span("replay", 100, 215, None, 1),
            span("part", 100, 150, Some(1), 1),
            span("inner", 110, 120, Some(2), 1),
            span("part", 160, 200, Some(1), 1),
            span("entry", 300, 400, None, 2),
            span("replay", 400, 520, None, 2),
            span("part", 400, 510, Some(6), 2),
        ];
        // Op 1: parts 50 + 40 against 100; op 2: 110 against 100. The
        // replay's own glue and grandchildren do not count twice.
        assert_eq!(
            replay_share_per_op(&spans, "replay", "entry"),
            vec![0.9, 1.1]
        );
        assert_eq!(total_ns(&spans, "entry"), 200);
    }

    #[test]
    fn nested_spans_record_parents_and_export_matched_pairs() {
        let mut off = Tracer::off();
        assert_eq!(off.span("unrecorded", |_| 7), 7);
        assert!(off.spans().is_empty());

        let mut tr = Tracer::on();
        tr.next_op();
        tr.span("outer", |tr| {
            tr.span("inner", |_| ());
            tr.span("inner", |_| ());
        });
        tr.next_op();
        tr.span("outer", |_| ());
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!((spans[0].op, spans[3].op), (1, 2));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let snap = tr.snapshot();
        assert_eq!(snap.events.len(), 8);
        let names: Vec<String> = snap
            .events
            .iter()
            .map(|e| match &e.kind {
                TraceKind::Enter(n) => format!("+{n}"),
                TraceKind::Exit(n) => format!("-{n}"),
                TraceKind::Count(n, _) => n.to_string(),
            })
            .collect();
        assert_eq!(
            names,
            ["+outer", "+inner", "-inner", "+inner", "-inner", "-outer", "+outer", "-outer"]
        );
        assert!(snap.folded_stacks().contains("outer;inner "));
    }
}
