//! Smoke test: every example in `examples/` compiles.
//!
//! `cargo test` already builds all workspace examples as part of its
//! default target selection, so reaching this test at all proves they
//! compile with the current API. The explicit build below additionally
//! fails loudly (rather than silently skipping) if an example is ever
//! excluded from the default build, and the listing pins the expected set.

use std::path::Path;
use std::process::Command;

const EXAMPLES: &[&str] = &[
    "attention_accelerator",
    "end_to_end_nn",
    "explore_design_space",
    "fused_accelerator",
    "gen_verilog",
    "quickstart",
    "rewrite_mapping",
    "serve_roundtrip",
    "sharded_exploration",
    "trace_eval",
];

#[test]
fn all_examples_are_present() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples/ exists")
        .filter_map(|e| {
            let path = e.expect("readable dir entry").path();
            (path.extension()? == "rs").then(|| path.file_stem()?.to_str().map(String::from))?
        })
        .collect();
    found.sort();
    assert_eq!(found, EXAMPLES, "examples/ drifted from the pinned list");
}

#[test]
fn all_examples_compile() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--examples", "--offline"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .status()
        .expect("cargo runs");
    assert!(status.success(), "cargo build --examples failed");
}
