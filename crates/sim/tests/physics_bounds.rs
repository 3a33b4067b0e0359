//! Physics lower bounds on `simulate_layer_ctx`, over zoo layers × both
//! presets × tile caps × every sparse feature × every mapping in the menu:
//!
//! 1. `0 < utilization ≤ 1`;
//! 2. no layer beats its compute roofline: `cycles ≥ ⌈macs · compute_scale⌉
//!    / num_fus` (the MACs the datapath actually issues, on every FU);
//! 3. no layer beats its bandwidth roofline: `cycles ≥ dram_bytes /
//!    (dram_gbps / freq_ghz)`.
//!
//! The compulsory-traffic bound (DRAM bytes ≥ each operand's footprint read
//! once) does not hold yet; see the evaluator-oracle item in ROADMAP.md.

use lego_model::{CostContext, HwConfig, SparseAccel, SparseEffects, SparseHw, TechModel};
use lego_sim::simulate_layer_ctx;
use lego_workloads::zoo;

#[test]
fn every_layer_respects_the_compute_and_bandwidth_rooflines() {
    let mut models: Vec<_> = [
        "lenet",
        "mobilenet_v2",
        "resnet50",
        "bert_base",
        "resnet50_2to4",
        "bert_base_pruned90",
        "gpt2_prefill_causal",
    ]
    .iter()
    .map(|name| zoo::by_name(name).expect("a zoo model"))
    .collect();
    models.extend([zoo::llama7b_decode(1), zoo::llama7b_decode(32)]);
    let tech = TechModel::default();
    let mut cases = 0;
    for hw in [HwConfig::lego_256(), HwConfig::lego_icoc_1k()] {
        let num_fus = hw.num_fus() as f64;
        let bytes_per_cycle = hw.dram_gbps / tech.freq_ghz;
        for accel in SparseAccel::ALL {
            let ctx = CostContext::new(hw.clone(), tech).with_sparse(SparseHw::with_accel(accel));
            for model in &models {
                for layer in &model.layers {
                    let e = ctx
                        .sparse_effects(&layer.sparsity)
                        .unwrap_or(SparseEffects::DENSE);
                    let issued = (layer.macs() as f64 * e.compute_scale).ceil();
                    for &mapping in &hw.dataflows {
                        for tile_cap in [None, Some(16), Some(64)] {
                            let p = simulate_layer_ctx(layer, mapping, &ctx, tile_cap);
                            let case = format!(
                                "{} {} on {:?} {accel} {mapping:?} cap {tile_cap:?}: {p:?}",
                                model.name, layer.name, hw.array
                            );
                            assert!(
                                p.utilization > 0.0 && p.utilization <= 1.0,
                                "utilization, {case}"
                            );
                            let cycles = p.cycles as f64;
                            assert!(cycles >= issued / num_fus, "compute roofline, {case}");
                            assert!(
                                cycles >= p.dram_bytes as f64 / bytes_per_cycle,
                                "bandwidth roofline, {case}"
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cases, 32_850);
}
