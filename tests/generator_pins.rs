//! The generator on the paper's Figure 10 designs: the register bits
//! delay matching inserts before and after optimization are pinned (the
//! benchmark's `quality_ratio` is their geomean), and generating a design
//! twice renders the same Verilog byte for byte. An FNV-1a hash of what
//! `examples/gen_verilog` prints per design — every DAG edge with its
//! `extra_regs`, then the Verilog — pins each register and each emitted
//! byte where it is: the eleven p = 8 designs, the same eleven lowered
//! with per-FU control, the shift and max operators, and the two fused
//! designs at p = 16 and, in release builds, p = 32 and 64. The paper
//! tables price designs through `lego_bench::harness`; it must price
//! exactly what `Lego::generate` builds.

use std::collections::HashMap;
use std::hash::Hasher;

use lego::backend::{lower, optimize, BackendConfig, Dag, OptimizeOptions, Prim};
use lego::core::{Design, Lego};
use lego::eval::FnvHasher;
use lego::ir::kernels::{self, dataflows};
use lego::ir::{DataflowBuilder, TensorRole};
use lego::model::TechModel;
use lego::rtl::emit_verilog;
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
fn text_hash(dag: &Dag) -> u64 {
    let mut h = FnvHasher::new();
    for e in &dag.edges {
        let line = format!(
            "// edge {} {} {} {} {}\n",
            e.from, e.to, e.to_pin, e.width, e.extra_regs
        );
        h.write(line.as_bytes());
    }
    h.write(emit_verilog(dag, "lego_top").as_bytes());
    h.finish()
}

fn text_hashes(designs: &[KernelDesign]) -> Vec<(&'static str, u64)> {
    designs
        .iter()
        .map(|d| (d.name, text_hash(&generate(d).dag)))
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

/// Like the p = 32 pin, release builds only:
/// `cargo test --release --test generator_pins`.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn edges_and_verilog_of_the_fused_4096_fu_designs_are_pinned() {
    assert_eq!(
        text_hashes(&fused_designs(64)),
        [
            ("Attention", 13563630227032362902),
            ("Conv2d-MNICOC", 15194653602434873484)
        ]
    );
}

/// The AutoSA/TensorLib-style baseline of Tables VI and VIII, built as
/// `lego_baselines::per_fu_control_cost` builds it: per-FU counters,
/// address generators and handshake FIFOs, delay matching only.
#[test]
fn edges_and_verilog_of_the_per_fu_control_designs_are_pinned() {
    let hashes: Vec<_> = kernel_designs(8)
        .iter()
        .map(|d| {
            let adg = harness::adg(&d.workload, &d.dataflows);
            let mut dag = lower(
                &adg,
                &BackendConfig {
                    per_fu_control: true,
                },
            );
            optimize(&mut dag, &OptimizeOptions::baseline());
            (d.name, text_hash(&dag))
        })
        .collect();
    assert_eq!(
        hashes,
        [
            ("Attention", 18253282966902803981),
            ("Conv2d-ICOC", 8123445913432127737),
            ("Conv2d-MNICOC", 9936919350803073274),
            ("Conv2d-OHOW", 8239057722206520583),
            ("GEMM-IJ", 6666562303092718567),
            ("GEMM-IK", 10479601671947065317),
            ("GEMM-KJ", 16072081884452505695),
            ("GEMM-MJ", 1690151031770767430),
            ("MTTKRP-IJ", 7717382551475741943),
            ("MTTKRP-KJ", 1315930335041654008),
            ("MTTKRP-MJ", 13010441655419157462)
        ]
    );
}

/// The two FU operators no Figure 10 design uses: Bit Fusion's
/// `Y += (A·B) << S` and max pooling, with `tests/full_pipeline.rs`'s
/// dataflows.
#[test]
fn edges_and_verilog_of_the_shift_and_max_operators_are_pinned() {
    let bitfusion = kernels::bitfusion_gemm(4, 4, 4);
    let pool = kernels::max_pool2d(1, 4, 4, 4, 2, 2, 2);
    let pool_ohow = DataflowBuilder::new(&pool)
        .par("oh", 2)
        .par("ow", 2)
        .build("POOL-OHOW")
        .unwrap();
    let designs = [
        KernelDesign {
            name: "BitFusion-IJ",
            dataflows: vec![dataflows::gemm_ij(&bitfusion, 2)],
            workload: bitfusion,
        },
        KernelDesign {
            name: "MaxPool-OHOW",
            workload: pool,
            dataflows: vec![pool_ohow],
        },
    ];
    assert_eq!(
        text_hashes(&designs),
        [
            ("BitFusion-IJ", 8686275322388337876),
            ("MaxPool-OHOW", 17481984243196468507)
        ]
    );
}

/// `lower` resolves an FU's operand pin the first time the delivery walk
/// dequeues it, from whatever drivers have reached it by then. Conv2d-MNICOC
/// delivers X along a graph that is cyclic across its two dataflows, so
/// some drivers arrive after their FU has resolved: the mux lacks those
/// inputs, and the FIFOs built for them feed nothing. This pins that known
/// gap (ROADMAP item 2) as measured, and that no other design has it; a
/// lowering that delivers every driver changes the design and moves these
/// counts to zero on purpose.
#[test]
fn only_conv2d_mnicoc_drops_late_deliveries() {
    let mut designs: Vec<_> = kernel_designs(8).into_iter().map(|d| (8, d)).collect();
    designs.extend(fused_designs(16).into_iter().map(|d| (16, d)));
    let mut gaps = Vec::new();
    for (p, d) in &designs {
        let adg = harness::adg(&d.workload, &d.dataflows);
        let dag = lower(&adg, &BackendConfig::default());
        let mux_inputs: HashMap<&str, usize> = dag
            .nodes
            .iter()
            .filter_map(|n| match n.prim {
                Prim::Mux { inputs } => Some((n.label.as_str(), inputs)),
                _ => None,
            })
            .collect();
        let mut missing = 0;
        for plan in adg.tensors.iter().filter(|t| t.role == TensorRole::Input) {
            for fu in 0..adg.num_fus {
                let ports = plan.data_nodes.iter().filter(|n| n.fu == fu).count();
                let edges = adg.edges_for(&plan.tensor).filter(|e| e.to == fu).count();
                let mux = format!("mux_{}_fu{fu}", plan.tensor);
                missing += ports + edges - mux_inputs.get(mux.as_str()).copied().unwrap_or(1);
            }
        }
        let mut consumed = vec![false; dag.nodes.len()];
        for e in &dag.edges {
            consumed[e.from] = true;
        }
        let unconsumed = (0..dag.nodes.len())
            .filter(|&v| matches!(dag.nodes[v].prim, Prim::Fifo { .. }) && !consumed[v])
            .count();
        if missing > 0 || unconsumed > 0 {
            gaps.push((d.name, *p, missing, unconsumed));
        }
    }
    assert_eq!(
        gaps,
        [
            ("Conv2d-MNICOC", 8, 56, 50),
            ("Conv2d-MNICOC", 16, 240, 212)
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
