//! A deterministic sweep of the generator over single and fused GEMM
//! dataflows: every design that generates must compute the reference
//! result under each of its dataflows, and the counts of what generates,
//! what is refused and what panics are pinned.
//!
//! Some fused pairs spatialise the reduction axis in opposite directions.
//! Lowering takes one order over the union of both dataflows' partial-sum
//! chains, which is then cyclic, and `lower` panics on it. Those panics are
//! caught and counted here. Any other panic fails the test: in particular
//! one from delay matching, which would mean a lowering change produced a
//! cyclic constraint graph that `match_delays` now refuses.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lego::core::Lego;
use lego::ir::{kernels, tensor::reference_execute, Dataflow, DataflowBuilder, TensorData};

/// What became of one generator call.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    /// Designs that generated and matched the reference on every dataflow.
    correct: usize,
    /// Designs that generated but diverged on some dataflow.
    wrong: usize,
    /// `Lego::generate` returned an error.
    refused: usize,
    /// `Lego::generate` panicked on a cyclic partial-sum network.
    cyclic_panics: usize,
}

/// Every GEMM 4×6×4 dataflow over an ordered pair of spatial axes, sized
/// (2 or 4, 2), with a control vector in {−1, 0, 1, 2}², kept when it is
/// buildable and bijective.
fn gemm_dataflows(g: &lego::ir::Workload) -> Vec<Dataflow> {
    let axes = ["i", "j", "k"];
    let mut out = Vec::new();
    for a in axes {
        for b in axes.into_iter().filter(|&b| b != a) {
            for size in [2, 4] {
                for c0 in -1..=2 {
                    for c1 in -1..=2 {
                        let name = format!("{a}{size}{b}2_{c0}_{c1}");
                        let built = DataflowBuilder::new(g)
                            .par(a, size)
                            .par(b, 2)
                            .control(vec![c0, c1])
                            .build(name);
                        if let Ok(df) = built {
                            if df.verify_bijective(g) {
                                out.push(df);
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn run(g: &lego::ir::Workload, dfs: &[&Dataflow], tally: &mut Tally) {
    let x = TensorData::from_fn(&g.tensor_shape("X"), |i| (i as i64 % 11) - 5);
    let w = TensorData::from_fn(&g.tensor_shape("W"), |i| (i as i64 % 7) - 3);
    let expect = reference_execute(g, &[&x, &w]);
    let generated = catch_unwind(AssertUnwindSafe(|| {
        let mut lego = Lego::new(g.clone());
        for &df in dfs {
            lego = lego.dataflow(df.clone());
        }
        lego.generate()
    }));
    match generated {
        Ok(Ok(design)) => {
            let all_match = (0..dfs.len()).all(|k| design.simulate(k, &[&x, &w]).output == expect);
            if all_match {
                tally.correct += 1;
            } else {
                tally.wrong += 1;
            }
        }
        Ok(Err(_)) => tally.refused += 1,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            let names: Vec<&str> = dfs.iter().map(|df| df.name.as_str()).collect();
            assert!(
                msg.contains("cyclic partial-sum network"),
                "{names:?} panicked outside partial-sum lowering: {msg}"
            );
            tally.cyclic_panics += 1;
        }
    }
}

#[test]
fn gemm_fusion_sweep_is_pinned() {
    let g = kernels::gemm(4, 6, 4);
    let singles = gemm_dataflows(&g);
    assert_eq!(singles.len(), 160);

    let mut single = Tally::default();
    for df in &singles {
        run(&g, &[df], &mut single);
    }
    assert_eq!(
        single,
        Tally {
            correct: 160,
            ..Tally::default()
        }
    );

    // Fused pairs of equal FU count, every `stride`-th in enumeration order.
    let pairs: Vec<(&Dataflow, &Dataflow)> = singles
        .iter()
        .enumerate()
        .flat_map(|(i, a)| singles[i + 1..].iter().map(move |b| (a, b)))
        .filter(|(a, b)| a.num_fus() == b.num_fus())
        .collect();
    let stride = pairs.len() / 175;
    let mut fused = Tally::default();
    for &(a, b) in pairs.iter().step_by(stride).take(175) {
        run(&g, &[a, b], &mut fused);
    }
    assert_eq!(
        fused,
        Tally {
            correct: 162,
            cyclic_panics: 13,
            ..Tally::default()
        }
    );
}
