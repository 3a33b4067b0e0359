//! The repository's benchmark: seven workloads over the generator, the
//! evaluator, the search loops and the server, with end-to-end metrics
//! measured tracer-off and per-layer metrics from an outside-in replay.
//!
//! ```text
//! lego-benchmark --workload W --seed N --seconds S --trace 0|1   one run, JSON on the last line
//! lego-benchmark run [--seed N] [--workload W] [--seconds S] [--smoke] [--out FILE]
//! lego-benchmark compare A.json B.json
//! lego-benchmark check [RESULTS.json]
//! lego-benchmark manifest
//! ```
//!
//! See `benchmark/README.md` for what each metric means.

mod report;
mod roster;
mod runner;
mod spec;
mod stats;
mod trace;
mod workloads;

use runner::{RunArgs, RunResult};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => report::run_all(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        Some("check") => report::check(&args[1..]),
        Some("manifest") => {
            print!("{}", spec::render_manifest());
            Ok(())
        }
        _ => parse_run_args(&args).and_then(|a| single_run(&a)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("lego-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `--workload W --seed N --seconds S --trace 0|1 [--smoke]`, in any order.
fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            run.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(run.seconds > 0.0 && run.seconds <= 60.0) {
                    return Err(bad("between 0 and 60 seconds"));
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if run.workload.is_empty() {
        return Err("`--workload <name>` is required; see BENCHMARK.json for the names".into());
    }
    Ok(run)
}

/// Runs one workload once and prints every metric as
/// `workload <tab> metric <tab> unit <tab> value [<tab> sweep spread]`,
/// then the result object on the last line.
fn single_run(args: &RunArgs) -> Result<(), String> {
    let result = runner::run(args)?;
    for m in &result.metrics {
        match m.spread {
            Some(spread) => println!(
                "{}\t{}\t{}\t{}\t{}",
                args.workload, m.name, m.unit, m.value, spread
            ),
            None => println!("{}\t{}\t{}\t{}", args.workload, m.name, m.unit, m.value),
        }
    }
    println!("{}", result_json(&result)?);
    Ok(())
}

fn result_json(result: &RunResult) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(result.metrics.len());
    for m in &result.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric `{}` is not a finite number", m.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(", ")
    ))
}
