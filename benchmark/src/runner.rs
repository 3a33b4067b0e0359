//! One run of one workload: set up from the seed, run whole sweeps for the
//! asked seconds, check every output, and reduce the per-sweep samples to
//! the metrics `BENCHMARK.json` names.

use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, sweep_stat, SweepStat};
use crate::trace::{self_ns_per_op, Tracer};
use crate::workloads::{self, SweepStats, Workload};
use std::path::Path;
use std::time::Instant;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One sweep per phase, one set-up, shortened rosters.
    pub smoke: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Interquartile range over median of the sweeps the value was taken from.
    pub spread: Option<f64>,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// A workload is set up at least this many times in one run, and again
/// until [`SETUP_BUDGET_S`] is spent or [`MAX_SETUPS`] is reached, so a
/// set-up of milliseconds is sampled often enough for its median to hold
/// still; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.5;

/// Per-sweep samples of one tracer mode.
#[derive(Default)]
struct Samples {
    stats: SweepStats,
    /// Units of work per second of each sweep's wall time.
    throughput: Vec<f64>,
    /// Median op latency of each sweep.
    op_p50_ms: Vec<f64>,
    /// Seconds inside the entry points per op, of each sweep.
    busy_per_op_s: Vec<f64>,
    /// Every op latency.
    lat_ms: Vec<f64>,
}

impl Samples {
    fn sweep(&mut self, workload: &mut dyn Workload, tr: &mut Tracer) -> f64 {
        let first = self.lat_ms.len();
        let start = Instant::now();
        let stats = workload.sweep(tr, &mut self.lat_ms);
        let sweep_s = start.elapsed().as_secs_f64();
        self.stats.add(stats);
        self.throughput.push(stats.units as f64 / sweep_s);
        self.busy_per_op_s
            .push(stats.busy_s / stats.ops.max(1) as f64);
        if self.lat_ms.len() > first {
            self.op_p50_ms.push(median(&self.lat_ms[first..]));
        }
        sweep_s
    }
}

/// Whole sweeps until the one that ends nearest `seconds`; a smoke run
/// stops after the first. With a tracer, untraced and traced sweeps
/// alternate, so both meet the same interference; returns the untraced and
/// the traced samples.
fn measure(
    workload: &mut dyn Workload,
    mut tracer: Option<&mut Tracer>,
    seconds: f64,
    smoke: bool,
) -> (Samples, Samples) {
    let start = Instant::now();
    let (mut untraced, mut traced) = (Samples::default(), Samples::default());
    loop {
        let mut round_s = untraced.sweep(workload, &mut Tracer::off());
        if let Some(tracer) = tracer.as_deref_mut() {
            round_s += traced.sweep(workload, tracer);
        }
        if smoke || start.elapsed().as_secs_f64() + round_s / 2.0 >= seconds {
            return (untraced, traced);
        }
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut built = None;
    loop {
        // The previous set-up is torn down first, so servers and caches of
        // two set-ups never coexist.
        drop(built.take());
        let start = Instant::now();
        built = Some(
            workloads::build(&args.workload, args.seed, args.smoke)
                .ok_or_else(|| format!("unknown workload `{}`", args.workload))?,
        );
        setup_s.push(start.elapsed().as_secs_f64());
        let enough = setup_s.len() >= MIN_SETUPS && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S;
        if args.smoke || enough || setup_s.len() >= MAX_SETUPS {
            break;
        }
    }
    let mut workload = built.expect("the loop sets up at least once");
    let setup_failures = workload.setup_failures();

    let (attempted, failed, metrics) = if args.trace {
        let mut tracer = Tracer::on();
        let (untraced, traced) = measure(
            workload.as_mut(),
            Some(&mut tracer),
            args.seconds,
            args.smoke,
        );
        let probe_failures = workload.probe(&mut tracer);
        write_trace_files(&args.workload, &tracer)?;

        let mut values = workload.layer_values(tracer.spans());
        // Each traced sweep against the untraced one just before it, which
        // met the same interference; the median round speaks for the run.
        let overheads: Vec<f64> = traced
            .busy_per_op_s
            .iter()
            .zip(&untraced.busy_per_op_s)
            .map(|(traced, untraced)| traced / untraced - 1.0)
            .collect();
        values.extend([
            ("trace.overhead_share", median(&overheads)),
            (
                "e2e.op_p90_ms",
                percentile(&untraced.lat_ms, 0.90).unwrap_or(0.0),
            ),
            (
                "e2e.op_p99_ms",
                percentile(&untraced.lat_ms, 0.99).unwrap_or(0.0),
            ),
        ]);
        let metrics = PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                unit: m.unit,
                value: values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map(|&(_, v)| v)
                    .or_else(|| span_self_time(&tracer, m.name, m.unit))
                    // A layer this workload bypasses spends nothing there.
                    .unwrap_or(0.0),
                spread: None,
            })
            .collect();
        (
            untraced.stats.ops + traced.stats.ops,
            untraced.stats.failed + traced.stats.failed + probe_failures,
            metrics,
        )
    } else {
        let (samples, _) = measure(workload.as_mut(), None, args.seconds, args.smoke);
        if samples.op_p50_ms.is_empty() {
            return Err("no operation completed".to_string());
        }
        let single = |value| SweepStat { value, spread: 0.0 };
        let rss = single(peak_rss_mb()?);
        let quality = single(workload.quality_ratio());
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let higher = m.better == Better::Higher;
                let stat = match m.name {
                    "setup_s" => SweepStat {
                        value: median(&setup_s),
                        ..sweep_stat(&setup_s, higher)
                    },
                    "throughput_per_s" => sweep_stat(&samples.throughput, higher),
                    "op_p50_ms" => sweep_stat(&samples.op_p50_ms, higher),
                    "peak_rss_mb" => rss,
                    "quality_ratio" => quality,
                    other => unreachable!("end-to-end metric `{other}` has no measurement"),
                };
                Metric {
                    name: m.name,
                    unit: m.unit,
                    value: stat.value,
                    spread: Some(stat.spread),
                }
            })
            .collect();
        (samples.stats.ops, samples.stats.failed, metrics)
    };
    // Tear the workload down (servers stop, threads join) before reporting.
    drop(workload);
    Ok(RunResult {
        attempted,
        failed: failed + setup_failures,
        metrics,
    })
}

/// Median over ops of the self time of the spans a `*_ms` / `*_us` metric
/// is named after.
fn span_self_time(tracer: &Tracer, metric: &str, unit: &str) -> Option<f64> {
    let (span, per_ns) = match unit {
        "ms" => (metric.strip_suffix("_ms")?, 1e6),
        "us" => (metric.strip_suffix("_us")?, 1e3),
        _ => return None,
    };
    let per_op = self_ns_per_op(tracer.spans(), span);
    (!per_op.is_empty()).then(|| median(&per_op) / per_ns)
}

/// Perfetto and folded-stack files of the traced sweeps.
fn write_trace_files(workload: &str, tracer: &Tracer) -> Result<(), String> {
    let dir = Path::new("benchmark/out");
    let snapshot = tracer.snapshot();
    std::fs::create_dir_all(dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{workload}.perfetto.json")),
                snapshot.chrome_trace_json(),
            )
        })
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{workload}.folded")),
                snapshot.folded_stacks(),
            )
        })
        .map_err(|e| format!("cannot write trace files under {}: {e}", dir.display()))
}
