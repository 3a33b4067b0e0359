//! Golden byte-identity tests: the artifacts this repo publishes — the
//! paper's tables with their scorecard, the DSE tables, the rewrite-search
//! table, the eval_report request and report encodings, and a DSE shard
//! snapshot — are pinned to committed golden bytes. Performance work on the hot path (cache sharding,
//! allocation elimination) must never move a single byte of any of them;
//! a diff here means a pricing or encoding change, not a speedup.
//!
//! Each test drives the real binary (`CARGO_BIN_EXE_*`), so the goldens
//! cover the full CLI path, anchored to a committed reference — which is why
//! CI has no run-vs-run `diff` of the same binaries.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read golden {}: {e}", path.display()))
}

fn run(bin: &str, args: &[&str]) -> Vec<u8> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lego_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn assert_bytes_eq(actual: &[u8], name: &str) {
    let expected = golden(name);
    assert!(
        actual == expected.as_slice(),
        "{name} drifted from the committed golden ({} vs {} bytes); \
         pricing or encoding changed — this is not a performance regression, \
         it is a semantic one",
        actual.len(),
        expected.len()
    );
}

#[test]
fn paper_tables_text_is_byte_identical() {
    let stdout = run(env!("CARGO_BIN_EXE_paper_tables"), &[]);
    assert_bytes_eq(&stdout, "paper_tables.txt");
}

#[test]
fn table_dse_text_is_byte_identical() {
    let stdout = run(env!("CARGO_BIN_EXE_table_dse"), &[]);
    assert_bytes_eq(&stdout, "table_dse.txt");
}

#[test]
fn table_sparse_text_is_byte_identical() {
    let stdout = run(env!("CARGO_BIN_EXE_table_sparse"), &[]);
    assert_bytes_eq(&stdout, "table_sparse.txt");
}

#[test]
fn mapspace_search_text_is_byte_identical() {
    let stdout = run(env!("CARGO_BIN_EXE_mapspace_search"), &[]);
    assert_bytes_eq(&stdout, "mapspace_search.txt");
}

#[test]
fn eval_report_request_and_report_bytes_are_byte_identical() {
    let req = tmp_path("eval_request.bin");
    let rep = tmp_path("eval_report.bin");
    run(
        env!("CARGO_BIN_EXE_eval_report"),
        &[
            "--request-out",
            req.to_str().unwrap(),
            "--out",
            rep.to_str().unwrap(),
        ],
    );
    assert_bytes_eq(
        &std::fs::read(&req).expect("read request"),
        "eval_request.bin",
    );
    assert_bytes_eq(
        &std::fs::read(&rep).expect("read report"),
        "eval_report.bin",
    );
}

#[test]
fn dse_shard_snapshot_is_byte_identical() {
    let out = tmp_path("shard0.bin");
    run(
        env!("CARGO_BIN_EXE_dse_shard"),
        &[
            "run",
            "--shard",
            "0/2",
            "--out",
            out.to_str().unwrap(),
            "--model",
            "lenet",
            "--space",
            "tiny",
            "--seed",
            "7",
            "--budget",
            "24",
        ],
    );
    assert_bytes_eq(&std::fs::read(&out).expect("read shard"), "shard0.bin");
}
