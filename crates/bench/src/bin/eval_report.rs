//! Canonical `EvalRequest` → `EvalReport` codec driver — the determinism
//! gate for the request/response evaluation layer, and the smallest
//! possible multi-host worker: decode a request, price it, encode the
//! report.
//!
//! ```text
//! eval_report [--model M] [--hw lego_256|lego_icoc_1k] [--sparse dense|gate|skip]
//!             [--out REPORT.bin] [--request-out REQUEST.bin] [--in REQUEST.bin]
//! ```
//!
//! With `--in`, the request is decoded from a file instead of built from
//! flags (what a worker fed over a byte transport would do). Everything is
//! deterministic by default: the same request encodes and evaluates to
//! byte-identical files across runs — CI pins this with `cmp`. The run
//! records an observability summary (codec and evaluation spans, cache
//! warmth and residency gauges) and prints it at the end; instrumentation
//! never changes the emitted bytes.
//!
//! `--wallclock` switches the recorder to real timestamps for profiling.
//! `--trace-out PATH` writes a Chrome trace-event JSON file of the run
//! (load it in Perfetto / `chrome://tracing`); `--folded-out PATH` writes
//! folded stacks for flamegraph tools. Either flag enables the bounded
//! trace ring; in deterministic mode the exported trace still has zeroed
//! timestamps and is byte-identical across runs.

use lego_bench::harness::section;
use lego_eval::cli::{exit_code, file_ctx, no_more_args, take_flag, take_switch};
use lego_eval::{CodecError, EvalError, EvalRequest, EvalSession};
use lego_model::HwConfig;
use lego_model::{SparseAccel, SparseHw};
use lego_obs::Obs;
use lego_workloads::zoo;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage:
  eval_report [--model M] [--hw lego_256|lego_icoc_1k] [--sparse dense|gate|skip]
              [--out REPORT.bin] [--request-out REQUEST.bin] [--in REQUEST.bin]
              [--wallclock] [--trace-out TRACE.json] [--folded-out STACKS.txt]";

/// Ring capacity for `--trace-out` / `--folded-out` runs: enough for every
/// span of the largest zoo model with plenty of headroom.
const TRACE_CAPACITY: usize = 65536;

fn run() -> Result<(), EvalError> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let input = take_flag(&mut args, "--in", USAGE)?;
    let model = take_flag(&mut args, "--model", USAGE)?;
    let hw = take_flag(&mut args, "--hw", USAGE)?;
    let sparse = take_flag(&mut args, "--sparse", USAGE)?;
    let out = take_flag(&mut args, "--out", USAGE)?;
    let request_out = take_flag(&mut args, "--request-out", USAGE)?;
    let trace_out = take_flag(&mut args, "--trace-out", USAGE)?;
    let folded_out = take_flag(&mut args, "--folded-out", USAGE)?;
    let wallclock = take_switch(&mut args, "--wallclock");
    no_more_args(&args, USAGE)?;

    let mut obs = if wallclock {
        Obs::wall_clock()
    } else {
        Obs::deterministic()
    };
    if trace_out.is_some() || folded_out.is_some() {
        obs = obs.traced(TRACE_CAPACITY);
    }
    let request = match input {
        Some(path) => {
            if model.is_some() || hw.is_some() || sparse.is_some() {
                return Err(EvalError::Usage(format!(
                    "--in replaces the request flags\n{USAGE}"
                )));
            }
            obs.time("codec/request_decode", || {
                EvalRequest::read_from(Path::new(&path))
            })
            .map_err(|e| file_ctx(&path, e))?
        }
        None => {
            let name = model.unwrap_or("resnet50_2to4".into());
            let model = zoo::by_name(&name).ok_or(EvalError::Unknown {
                what: "model",
                name,
            })?;
            let hw = match hw.as_deref().unwrap_or("lego_256") {
                "lego_256" => HwConfig::lego_256(),
                "lego_icoc_1k" => HwConfig::lego_icoc_1k(),
                other => {
                    return Err(EvalError::Unknown {
                        what: "hw",
                        name: other.to_string(),
                    })
                }
            };
            let accel = match sparse.as_deref().unwrap_or("skip") {
                "dense" => SparseAccel::None,
                "gate" => SparseAccel::Gating,
                "skip" => SparseAccel::Skipping,
                other => {
                    return Err(EvalError::Unknown {
                        what: "sparse feature",
                        name: other.to_string(),
                    })
                }
            };
            let request = EvalRequest::new(model, hw).with_sparse(SparseHw::with_accel(accel));
            request.validate()?;
            request
        }
    };

    section(&format!(
        "eval_report: {} on {}x{} ({}), fingerprint {:#018x}",
        request.workload.name,
        request.hw.array.0,
        request.hw.array.1,
        request.sparse.accel,
        request.fingerprint(),
    ));
    if let Some(path) = &request_out {
        obs.time("codec/request_encode", || request.write_to(Path::new(path)))
            .map_err(|e| file_ctx(path, e))?;
        println!("request ({} bytes) -> {path}", request.encode().len());
    }

    let session = EvalSession::new().with_obs(obs.clone());
    let report = session.evaluate(&request);
    println!(
        "{} layers, {} cycles, {:.1} GOP/s, EDP {:.3e}, score {:.3e}",
        report.per_layer.len(),
        report.model.cycles,
        report.model.gops,
        report.cost.edp(),
        report.cost.score,
    );
    println!(
        "cache: {} hits / {} misses ({})",
        report.provenance.cache_hits,
        report.provenance.cache_misses,
        if report.provenance.warm() {
            "warm"
        } else {
            "cold"
        },
    );
    if let Some(path) = &out {
        obs.time("codec/report_encode", || report.write_to(Path::new(path)))
            .map_err(|e| file_ctx(path, e))?;
        println!("report ({} bytes) -> {path}", report.encode().len());
    }

    let gauges = session.cache().gauges();
    section("cache gauges");
    println!(
        "resident: {} entries, {} bytes; hit rate {:.1}% ({} hits / {} misses)",
        gauges.entries,
        gauges.resident_bytes,
        gauges.hit_rate() * 100.0,
        gauges.hits,
        gauges.misses,
    );

    if let Some(snapshot) = obs.trace_snapshot() {
        if let Some(path) = &trace_out {
            std::fs::write(path, snapshot.chrome_trace_json())
                .map_err(|e| file_ctx(path, CodecError::Io(e)))?;
            println!("chrome trace ({} events) -> {path}", snapshot.events.len());
        }
        if let Some(path) = &folded_out {
            std::fs::write(path, snapshot.folded_stacks())
                .map_err(|e| file_ctx(path, CodecError::Io(e)))?;
            println!("folded stacks -> {path}");
        }
        if snapshot.dropped > 0 {
            println!(
                "warning: trace ring overflowed, {} oldest events dropped",
                snapshot.dropped
            );
        }
    }

    section("observability summary");
    print!("{}", obs.summary().render());
    Ok(())
}

fn main() -> ExitCode {
    exit_code("eval_report", run())
}
