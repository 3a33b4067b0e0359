//! The generator on the paper's Figure 10 designs: the register bits
//! delay matching inserts before and after optimization are pinned (the
//! benchmark's `quality_ratio` is their geomean), and generating a design
//! twice renders the same Verilog byte for byte. An FNV-1a hash of what
//! `examples/gen_verilog` prints per design — every DAG edge with its
//! `extra_regs`, then the Verilog — pins each register and each emitted
//! byte where it is: the eleven p = 8 designs, and the two fused ones at
//! p = 16 and, in release builds, p = 32. The paper tables price designs
//! through `lego_bench::harness`; it must price exactly what
//! `Lego::generate` builds.

use std::hash::Hasher;

use lego::backend::{OptimizeOptions, Prim};
use lego::core::{Design, Lego};
use lego::eval::FnvHasher;
use lego::model::TechModel;
use lego_bench::{harness, kernel_designs, KernelDesign};

fn generate(d: &KernelDesign) -> Design {
    let mut lego = Lego::new(d.workload.clone());
    for df in &d.dataflows {
        lego = lego.dataflow(df.clone());
    }
    lego.generate().expect("paper design generates")
}

/// The two fused designs at `p × p` FUs.
fn fused_designs(p: i64) -> Vec<KernelDesign> {
    let mut fused = kernel_designs(p);
    fused.retain(|d| matches!(d.name, "Attention" | "Conv2d-MNICOC"));
    fused
}

fn register_bits(designs: &[KernelDesign]) -> Vec<(&'static str, i64, i64)> {
    designs
        .iter()
        .map(|d| {
            let report = generate(d).report;
            (
                d.name,
                report.baseline.register_bits,
                report.final_stats.register_bits,
            )
        })
        .collect()
}

#[test]
fn register_bits_of_the_64_fu_designs_are_pinned() {
    assert_eq!(
        register_bits(&kernel_designs(8)),
        [
            ("Attention", 5808, 2256),
            ("Conv2d-ICOC", 2400, 96),
            ("Conv2d-MNICOC", 4464, 1305),
            ("Conv2d-OHOW", 48, 48),
            ("GEMM-IJ", 48, 48),
            ("GEMM-IK", 48, 48),
            ("GEMM-KJ", 48, 48),
            ("GEMM-MJ", 48, 48),
            ("MTTKRP-IJ", 80, 80),
            ("MTTKRP-KJ", 4224, 128),
            ("MTTKRP-MJ", 6672, 2752),
        ]
    );
}

#[test]
fn register_bits_of_the_fused_256_fu_designs_are_pinned() {
    assert_eq!(
        register_bits(&fused_designs(16)),
        [("Attention", 48608, 16272), ("Conv2d-MNICOC", 35168, 5143)]
    );
}

/// FNV-1a of `gen_verilog`'s per-design text below its header line.
fn text_hash(design: &Design) -> u64 {
    let mut h = FnvHasher::new();
    for e in &design.dag.edges {
        let line = format!(
            "// edge {} {} {} {} {}\n",
            e.from, e.to, e.to_pin, e.width, e.extra_regs
        );
        h.write(line.as_bytes());
    }
    h.write(design.verilog("lego_top").as_bytes());
    h.finish()
}

fn text_hashes(designs: &[KernelDesign]) -> Vec<(&'static str, u64)> {
    designs
        .iter()
        .map(|d| (d.name, text_hash(&generate(d))))
        .collect()
}

#[test]
fn edges_and_verilog_of_the_64_fu_designs_are_pinned() {
    assert_eq!(
        text_hashes(&kernel_designs(8)),
        [
            ("Attention", 4851851442413246180),
            ("Conv2d-ICOC", 6666098921852369511),
            ("Conv2d-MNICOC", 14783566554639293249),
            ("Conv2d-OHOW", 11761423356137520740),
            ("GEMM-IJ", 6542881114199961848),
            ("GEMM-IK", 16080581845591941643),
            ("GEMM-KJ", 1828855776978630809),
            ("GEMM-MJ", 14769709916692819656),
            ("MTTKRP-IJ", 10127480067791399936),
            ("MTTKRP-KJ", 1516600510775329650),
            ("MTTKRP-MJ", 5462929149597452403)
        ]
    );
}

#[test]
fn edges_and_verilog_of_the_fused_256_fu_designs_are_pinned() {
    assert_eq!(
        text_hashes(&fused_designs(16)),
        [
            ("Attention", 7764881003389078129),
            ("Conv2d-MNICOC", 11519110171863134539)
        ]
    );
}

/// The p = 32 designs are the costliest generation in this file, so this
/// pin runs in release builds only (CI's determinism job runs it):
/// `cargo test --release --test generator_pins`.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn edges_and_verilog_of_the_fused_1024_fu_designs_are_pinned() {
    assert_eq!(
        text_hashes(&fused_designs(32)),
        [
            ("Attention", 5164900069016068632),
            ("Conv2d-MNICOC", 11473778929952033752)
        ]
    );
}

/// A tap forwards its input to every branch rewiring re-drove from it, so
/// its input must be active in every dataflow one of its outputs is, or
/// power gating prices a live forwarded branch as idle there.
#[test]
fn every_tap_input_is_active_whenever_one_of_its_outputs_is() {
    let mut designs = kernel_designs(8);
    designs.retain(|d| d.dataflows.len() > 1);
    designs.extend(fused_designs(16));
    let mut taps = 0;
    for d in &designs {
        let dag = generate(d).dag;
        for (t, node) in dag.nodes.iter().enumerate() {
            if !matches!(node.prim, Prim::CtrlFwd) || !node.label.starts_with("tap_") {
                continue;
            }
            let mut union = vec![false; dag.n_dataflows];
            for e in dag.edges.iter().filter(|e| e.from == t) {
                for (u, &a) in union.iter_mut().zip(&e.active) {
                    *u |= a;
                }
            }
            let inputs: Vec<_> = dag.edges.iter().filter(|e| e.to == t).collect();
            assert_eq!(inputs.len(), 1, "{}: tap {t} has one input", d.name);
            assert_eq!(inputs[0].active, union, "{}: tap {t}", d.name);
            taps += 1;
        }
    }
    assert!(taps > 0, "rewiring added no tap to any fused design");
}

#[test]
fn generating_twice_renders_identical_verilog() {
    for d in kernel_designs(8) {
        let first = generate(&d).verilog("lego_top");
        let second = generate(&d).verilog("lego_top");
        assert!(first == second, "{}: Verilog differs between runs", d.name);
    }
}

#[test]
fn the_bench_harness_prices_what_generate_builds() {
    let (full, tech) = (OptimizeOptions::default(), TechModel::default());
    let mut designs = kernel_designs(8);
    designs.extend(fused_designs(16));
    for d in &designs {
        let adg = harness::adg(&d.workload, &d.dataflows);
        let priced = harness::price(&adg, &full, &tech, 1.0);
        assert_eq!(priced, generate(d).cost(&tech), "{}", d.name);
    }
}
