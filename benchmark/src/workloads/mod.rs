//! The seven workloads behind one interface: a sweep is one pass over the
//! workload's seeded roster, and a run repeats whole sweeps so every sample
//! sees the same mix of ops.

mod dse;
mod eval;
mod gen;
mod mapspace;
mod serve;

use crate::trace::{Span, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// What one sweep did.
#[derive(Debug, Default, Clone, Copy)]
pub struct SweepStats {
    /// Operations attempted.
    pub ops: u64,
    /// Units of work completed, the numerator of `throughput_per_s`:
    /// designs, requests, genome evaluations or cells.
    pub units: u64,
    /// Operations that failed, were refused, or whose output was wrong.
    pub failed: u64,
    /// Seconds spent inside the measured entry points, without the
    /// benchmark's own output checks (the wall for concurrent sweeps).
    pub busy_s: f64,
}

impl SweepStats {
    pub fn add(&mut self, other: SweepStats) {
        self.ops += other.ops;
        self.units += other.units;
        self.failed += other.failed;
        self.busy_s += other.busy_s;
    }
}

pub trait Workload {
    /// One sweep: every op of the roster through its public entry points,
    /// inside an `op` span, pushing each op's latency in milliseconds.
    /// With the tracer on, each op is then replayed layer by layer through
    /// public functions; the replay does not count in `busy_s`, and a
    /// replay that does not reproduce the op's output fails the op.
    fn sweep(&mut self, tr: &mut Tracer, lat_ms: &mut Vec<f64>) -> SweepStats;

    /// Once per traced run, after its sweeps: times the layers that lie
    /// beside the ops' path (the other codec direction, the warm path, the
    /// LP on its own), a span around each. Kept out of the sweeps so that
    /// traced and untraced sweeps alternate with nothing else in between.
    /// Returns the checks that failed.
    fn probe(&mut self, tr: &mut Tracer) -> u64;

    /// The deterministic `quality_ratio` of this workload's outputs.
    fn quality_ratio(&self) -> f64;

    /// Per-layer metrics that are not span self times: counts per op,
    /// ratios and derived times, from the traced sweeps and the probe.
    fn layer_values(&self, spans: &[Span]) -> Vec<(&'static str, f64)>;

    /// Output checks that failed while setting up.
    fn setup_failures(&self) -> u64;
}

/// One sweep over a sequential roster: each case through `op` inside an
/// `op` span, timed, its output judged by `check` (the units of work it
/// completed, or `None` for a wrong output). With the tracer on, `replay`
/// follows each op at once — it does the op's work over, so the next op
/// starts from the state an op would have left — and returning `false`
/// fails the op.
pub fn sweep_cases<C, O>(
    cases: &[C],
    tr: &mut Tracer,
    lat_ms: &mut Vec<f64>,
    mut op: impl FnMut(&mut Tracer, &C) -> O,
    mut check: impl FnMut(&C, &O) -> Option<u64>,
    mut replay: impl FnMut(&mut Tracer, &C, &O) -> bool,
) -> SweepStats {
    let mut stats = SweepStats::default();
    for case in cases {
        tr.next_op();
        let start = Instant::now();
        let output = tr.span("op", |tr| op(tr, case));
        let ms = ms_since(start);
        let mut units = check(case, &output);
        if tr.enabled() && !replay(tr, case, &output) {
            units = None;
        }
        lat_ms.push(ms);
        stats.busy_s += ms / 1e3;
        stats.ops += 1;
        match units {
            Some(n) => stats.units += n,
            None => stats.failed += 1,
        }
    }
    stats
}

/// Worker, shard and connection count of every threaded workload.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Sets the workload up from `seed`. `smoke` shortens the roster.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "gen_kernels8" => Box::new(gen::Gen::kernels8(seed, smoke)),
        "gen_fused16" => Box::new(gen::Gen::fused16(seed, smoke)),
        "eval_cold_zoo" => Box::new(eval::EvalColdZoo::new(seed)),
        "dse_sharded" => Box::new(dse::DseSharded::new(seed, smoke)),
        "mapspace_zoo" => Box::new(mapspace::MapspaceZoo::new(seed, smoke)),
        "serve_pingpong" => Box::new(serve::Serve::pingpong(seed, smoke)),
        "serve_pipelined" => Box::new(serve::Serve::pipelined(seed, smoke)),
        _ => return None,
    })
}

/// Counts gathered from traced ops and probes. A name is added once per op
/// it is measured on, and whole sweeps keep the op mix fixed, so the means
/// repeat exactly wherever the counts do.
#[derive(Default)]
pub struct Tally {
    sums: BTreeMap<&'static str, (f64, u64)>,
}

impl Tally {
    pub fn add(&mut self, name: &'static str, value: f64) {
        let (sum, count) = self.sums.entry(name).or_default();
        *sum += value;
        *count += 1;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).map_or(0.0, |&(sum, _)| sum)
    }

    /// The mean of every name over the ops it was added for.
    pub fn per_op(&self) -> Vec<(&'static str, f64)> {
        self.sums
            .iter()
            .map(|(&name, &(sum, count))| (name, sum / count as f64))
            .collect()
    }
}

/// `hits / (hits + misses)`, or zero before any lookup.
pub fn hit_ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
