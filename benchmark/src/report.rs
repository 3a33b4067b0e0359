//! The commands around single runs: `run` (every workload, both passes,
//! one results file), `compare` (two results files against the bounds) and
//! `check` (the manifest and a results file against the contract).

use crate::spec::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::threads;
use lego_obs::bench::{parse_bench_json, render_bench_json, BenchRow};
use std::process::{Command, Stdio};

/// Where `run` leaves the latest full set of numbers.
const RESULTS: &str = "benchmark/RESULTS.json";
const PARTIAL_RESULTS: &str = "benchmark/out/partial.json";
const MANIFEST: &str = "BENCHMARK.json";
/// Suffix of the row that stores a metric's sweep spread beside it.
const SPREAD: &str = ".sweep_spread";
/// Largest replay residual and tracing overhead `check` accepts.
const MAX_RESIDUAL: f64 = 0.10;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// `run [--seed N] [--workload W] [--seconds S] [--smoke] [--out FILE]`:
/// re-executes this program once per workload and pass, so set-up time and
/// peak memory are per workload, and writes every number to one file.
pub fn run_all(args: &[String]) -> Result<(), String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let only = flag_value(args, "--workload");
    if let Some(name) = only {
        spec::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    }
    // Only a full run of every workload replaces the committed numbers.
    let out = flag_value(args, "--out").unwrap_or(if smoke || only.is_some() {
        PARTIAL_RESULTS
    } else {
        RESULTS
    });
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;

    let mut rows = vec![BenchRow::new(
        "threads",
        threads() as f64,
        "count",
        "machine",
    )];
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child.args(["--workload", w.name, "--trace", trace]);
            for flag in ["--seed", "--seconds"] {
                if let Some(value) = flag_value(args, flag) {
                    child.args([flag, value]);
                }
            }
            if smoke {
                child.arg("--smoke");
            }
            let output = child
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            if !output.status.success() {
                return Err(format!(
                    "{} (trace {trace}) failed: {}",
                    w.name, output.status
                ));
            }
            let (lines, json) = stdout
                .trim_end()
                .rsplit_once('\n')
                .ok_or_else(|| format!("{} printed no metrics", w.name))?;
            println!("{lines}");
            rows.extend(metric_rows(lines)?);
            let failed_share = json_count(json, "failed")? / json_count(json, "attempted")?;
            let name = if trace == "0" {
                "failed_share"
            } else {
                "trace.failed_share"
            };
            println!("{}\t{name}\tratio\t{failed_share}", w.name);
            rows.push(BenchRow::new(name, failed_share, "ratio", w.name));
        }
    }
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, render_bench_json(&rows))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// `workload <tab> metric <tab> unit <tab> value [<tab> spread]` lines as
/// results rows, the spread as a row of its own beside its metric.
fn metric_rows(lines: &str) -> Result<Vec<BenchRow>, String> {
    let mut rows = Vec::new();
    for line in lines.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        let number = |s: &str| {
            s.parse::<f64>()
                .map_err(|_| format!("not a number in `{line}`"))
        };
        match fields[..] {
            [workload, metric, unit, value] => {
                rows.push(BenchRow::new(metric, number(value)?, unit, workload));
            }
            [workload, metric, unit, value, spread] => {
                rows.push(BenchRow::new(metric, number(value)?, unit, workload));
                rows.push(BenchRow::new(
                    format!("{metric}{SPREAD}"),
                    number(spread)?,
                    "ratio",
                    workload,
                ));
            }
            _ => return Err(format!("not a metric line: `{line}`")),
        }
    }
    Ok(rows)
}

/// The whole number after `"key": ` in a result object.
fn json_count(json: &str, key: &str) -> Result<f64, String> {
    let tail = json
        .split_once(&format!("\"{key}\": "))
        .ok_or_else(|| format!("no `{key}` in `{json}`"))?
        .1;
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .map_err(|_| format!("`{key}` is not a whole number in `{json}`"))
}

fn read_rows(path: &str) -> Result<Vec<BenchRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_bench_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn lookup(rows: &[BenchRow], workload: &str, metric: &str) -> Option<f64> {
    rows.iter()
        .find(|r| r.config == workload && r.metric == metric)
        .map(|r| r.value)
}

/// How one end-to-end metric moved between two run sets.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The sweep spread of either side is wider than the bound.
    Unresolved,
}

/// Judges `after` against `before`: worse by more than `bound` of `before`
/// is a regression, unless either side's spread exceeds the bound.
pub fn judge(before: f64, after: f64, spread: f64, better: Better, bound: f64) -> Verdict {
    let worsening = match better {
        Better::Lower => (after - before) / before,
        Better::Higher => (before - after) / before,
    };
    if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `compare A.json B.json`: one row per (workload, end-to-end metric).
pub fn compare(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare A.json B.json".into());
    };
    let (a, b) = (read_rows(a_path)?, read_rows(b_path)?);
    println!("workload\tmetric\tunit\tA\tB\tB/A\tbound\tverdict");
    let mut regressed = 0;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (Some(before), Some(after)) =
                (lookup(&a, w.name, m.name), lookup(&b, w.name, m.name))
            else {
                continue;
            };
            let spread_of = |rows| lookup(rows, w.name, &format!("{}{SPREAD}", m.name));
            let spread = spread_of(&a)
                .unwrap_or(0.0)
                .max(spread_of(&b).unwrap_or(0.0));
            let verdict = judge(before, after, spread, m.better, m.bound);
            println!(
                "{}\t{}\t{}\t{before}\t{after}\t{:.4} of A\t{}\t{}",
                w.name,
                m.name,
                m.unit,
                after / before,
                m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
            regressed += usize::from(verdict == Verdict::Regressed);
        }
    }
    if regressed > 0 {
        return Err(format!("{regressed} metric(s) regressed"));
    }
    Ok(())
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// What is wrong with the spec tables, if anything.
pub fn spec_problems() -> Vec<String> {
    let mut problems = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    let mut claim = |name: &'static str, problems: &mut Vec<String>| {
        if !valid_name(name) {
            problems.push(format!("`{name}` is not a valid name"));
        }
        if names.contains(&name) {
            problems.push(format!("`{name}` is used twice"));
        }
        names.push(name);
    };
    if !(2..=8).contains(&WORKLOADS.len()) {
        problems.push(format!("{} workloads; 2 to 8 allowed", WORKLOADS.len()));
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        problems.push(format!("{} end-to-end metrics", END_TO_END.len()));
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        problems.push(format!("{} per-layer metrics", PER_LAYER.len()));
    }
    for w in WORKLOADS {
        claim(w.name, &mut problems);
        if w.why.is_empty() || w.why.len() > 200 || w.why.contains('\n') {
            problems.push(format!(
                "`{}`: the why must be one line of at most 200",
                w.name
            ));
        }
    }
    for m in END_TO_END {
        claim(m.name, &mut problems);
        if m.unit.is_empty() || !(0.0..=0.25).contains(&m.bound) {
            problems.push(format!("`{}` needs a unit and a bound within 0.25", m.name));
        }
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower)
    {
        problems.push("no `setup_s` in seconds, lower is better".into());
    }
    for m in PER_LAYER {
        claim(m.name, &mut problems);
        if m.unit.is_empty() || m.moves.is_empty() {
            problems.push(format!("`{}` needs a unit and what it moves", m.name));
        }
        for target in m.moves.split_whitespace() {
            let known = target.split_once('@').is_some_and(|(metric, workload)| {
                END_TO_END.iter().any(|e| e.name == metric) && spec::workload(workload).is_some()
            });
            if !known {
                problems.push(format!("`{}` moves unknown `{target}`", m.name));
            }
        }
    }
    problems
}

/// `check [RESULTS.json]`: the spec tables are well formed, `BENCHMARK.json`
/// is their rendering, and in the results every replay residual and tracing
/// overhead is within a tenth and nothing failed.
pub fn check(args: &[String]) -> Result<(), String> {
    let mut problems = spec_problems();
    match std::fs::read_to_string(MANIFEST) {
        Ok(text) if text == spec::render_manifest() => {}
        Ok(_) => problems.push(format!(
            "{MANIFEST} differs from the spec; regenerate it with `manifest`"
        )),
        Err(e) => problems.push(format!("cannot read {MANIFEST}: {e}")),
    }
    let results = args.first().map_or(RESULTS, String::as_str);
    for row in read_rows(results)? {
        let limit = if row.metric.ends_with("failed_share") {
            0.0
        } else if row.metric.ends_with("replay_residual_share")
            || row.metric == "trace.overhead_share"
        {
            MAX_RESIDUAL
        } else {
            continue;
        };
        if row.value > limit {
            problems.push(format!(
                "{results}: {} on {} is {} (limit {limit})",
                row.metric, row.config, row.value
            ));
        }
    }
    if problems.is_empty() {
        println!("ok: {MANIFEST} and {results} meet the contract");
        return Ok(());
    }
    Err(problems.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_spec_tables_meet_the_contract() {
        assert_eq!(spec_problems(), Vec::<String>::new());
        assert_eq!(WORKLOADS.len(), 7);
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("backend.match_delays_ms"));
        assert!(valid_name("1-a_b.c"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
    }

    #[test]
    fn judging_follows_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(judge(100.0, 109.0, 0.01, Lower, 0.1), Verdict::Ok);
        assert_eq!(judge(100.0, 111.0, 0.01, Lower, 0.1), Verdict::Regressed);
        assert_eq!(judge(100.0, 50.0, 0.01, Lower, 0.1), Verdict::Ok);
        assert_eq!(judge(100.0, 89.0, 0.01, Higher, 0.1), Verdict::Regressed);
        assert_eq!(judge(100.0, 120.0, 0.01, Higher, 0.1), Verdict::Ok);
        assert_eq!(judge(100.0, 111.0, 0.2, Lower, 0.1), Verdict::Unresolved);
        assert_eq!(judge(0.5, 0.5, 0.0, Lower, 0.0), Verdict::Ok);
        assert_eq!(judge(0.5, 0.5001, 0.0, Lower, 0.0), Verdict::Regressed);
    }

    #[test]
    fn metric_lines_become_rows_with_their_spread_beside_them() {
        let rows = metric_rows("w\top_p50_ms\tms\t1.5\t0.02\nw\tsim.layers\tcount\t7").unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(lookup(&rows, "w", "op_p50_ms"), Some(1.5));
        assert_eq!(lookup(&rows, "w", "op_p50_ms.sweep_spread"), Some(0.02));
        assert_eq!(lookup(&rows, "w", "sim.layers"), Some(7.0));
        assert!(metric_rows("only\ttwo").is_err());
        let text = render_bench_json(&rows);
        assert_eq!(parse_bench_json(&text).unwrap(), rows);
    }

    #[test]
    fn counts_are_read_from_the_result_object() {
        let json = "{\"correct\": true, \"attempted\": 1200, \"failed\": 3, \"metrics\": {}}";
        assert_eq!(json_count(json, "attempted"), Ok(1200.0));
        assert_eq!(json_count(json, "failed"), Ok(3.0));
        assert!(json_count(json, "absent").is_err());
    }

    #[test]
    fn the_manifest_lists_every_table_entry() {
        let text = spec::render_manifest();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(text.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        assert!(text.len() < 64 * 1024);
    }
}
