//! Generates the paper's eleven Figure 10 designs and prints, per design,
//! the `(baseline, final)` register bits, every DAG edge as
//! `from to to_pin width extra_regs`, and the emitted Verilog. The output
//! is byte-identical from run to run; CI generates it in two processes and
//! `cmp`s them.
//!
//! Run with: `cargo run --release --example gen_verilog [P] [DESIGN...]` —
//! array side `P` (default 8) and design names (default: all eleven).

use lego::core::Lego;
use lego_bench::kernel_designs;

fn main() {
    let mut names: Vec<String> = std::env::args().skip(1).collect();
    let p = match names.first().and_then(|a| a.parse().ok()) {
        Some(p) => {
            names.remove(0);
            p
        }
        None => 8,
    };

    for d in kernel_designs(p) {
        if !names.is_empty() && !names.iter().any(|n| n == d.name) {
            continue;
        }
        let mut lego = Lego::new(d.workload);
        for df in d.dataflows {
            lego = lego.dataflow(df);
        }
        let design = lego.generate().expect("paper design generates");
        println!(
            "// design {} p={p} register_bits {} -> {}",
            d.name, design.report.baseline.register_bits, design.report.final_stats.register_bits
        );
        for e in &design.dag.edges {
            println!(
                "// edge {} {} {} {} {}",
                e.from, e.to, e.to_pin, e.width, e.extra_regs
            );
        }
        print!("{}", design.verilog("lego_top"));
    }
}
