//! Gemmini-style weight-stationary systolic baseline.
//!
//! Gemmini (DAC'21) generates a 16×16 systolic array with two templates
//! (output/weight stationary) and a fixed interconnect: the contraction
//! dimension maps to rows and output channels to columns. Convolutions run
//! through im2col. There is no output-plane dataflow, so depthwise
//! convolutions collapse to ~1/16 column utilization — the effect behind
//! MobileNetV2's gap in the paper's Figure 11. Non-tensor operators run on
//! the host and are *excluded* from its cycle counts, matching the paper's
//! methodology ("only counting the #cycles of the tensor kernel itself").

use lego_model::{CostContext, HwConfig, SpatialMapping, TechModel};
use lego_sim::{aggregate_iter, simulate_layer_ctx, LayerPerf, ModelPerf};
use lego_workloads::Model;

/// The Gemmini-comparable hardware configuration.
pub fn gemmini_hw() -> HwConfig {
    HwConfig {
        array: (16, 16),
        clusters: (1, 1),
        buffer_kb: 256,
        dram_gbps: 16.0,
        num_ppus: 1,
        // Fixed systolic dataflow: contraction on rows, outputs on columns.
        dataflows: vec![SpatialMapping::GemmKN],
        static_mw: 50.0,
        dynamic_mw: 250.0,
    }
}

/// Dataflow-rigidity and scheduling overhead of the template design:
/// per-tile fill/drain of the 16-deep systolic pipe plus mvin/mvout
/// serialization that LEGO's decoupled distribution switches avoid.
const SCHEDULING_OVERHEAD: f64 = 1.22;

/// Simulates one layer on the Gemmini baseline.
pub fn simulate_layer_gemmini(layer: &lego_workloads::Layer, tech: &TechModel) -> LayerPerf {
    let hw = gemmini_hw();
    // Host handles non-tensor work; strip it for the kernel-only count.
    let mut kernel_only = layer.clone();
    kernel_only.nonlinear.clear();
    let ctx = CostContext::new(hw.clone(), *tech);
    let mut perf = simulate_layer_ctx(&kernel_only, SpatialMapping::GemmKN, &ctx, None);

    // Convolutions run through im2col: the expanded activation matrix is
    // materialized through the scratchpad (written once, read once), losing
    // LEGO's halo reuse. Depthwise additionally decomposes into per-channel
    // GEMMs, each paying the 16-deep fill/drain and mvin/mvout latency.
    use lego_workloads::LayerKind;
    let (extra_bytes, instances) = match layer.kind {
        LayerKind::Conv {
            n,
            ic,
            oh,
            ow,
            kh,
            kw,
            ..
        } => {
            let im2col = n * oh * ow * ic * kh * kw;
            (
                2 * (im2col - layer.input_elems().min(im2col)),
                n * div_ceil(oh * ow, 256),
            )
        }
        LayerKind::DwConv {
            n,
            c,
            oh,
            ow,
            kh,
            kw,
            ..
        } => {
            let im2col = n * c * oh * ow * kh * kw;
            (2 * im2col, n * c * div_ceil(oh * ow, 256))
        }
        LayerKind::Gemm { m, n, k } => (0, div_ceil(m, 16) * div_ceil(n, 16) * div_ceil(k, 16) / 8),
        LayerKind::Attention { heads, seq_q, .. } => (0, heads * div_ceil(seq_q, 16)),
    };
    // The host CPU performs the im2col expansion; it moves data at a
    // fraction of DRAM stream bandwidth (load + index arithmetic + store).
    let bytes_per_cycle = hw.dram_gbps / tech.freq_ghz / 4.0;
    let im2col_cycles = (extra_bytes as f64 / bytes_per_cycle).ceil() as i64;
    let setup_cycles = instances * 48; // fill + drain + mvin per tile batch

    perf.cycles =
        (perf.cycles as f64 * SCHEDULING_OVERHEAD).ceil() as i64 + im2col_cycles + setup_cycles;
    perf.dram_bytes += extra_bytes;
    perf.energy.dram_pj += extra_bytes as f64 * tech.dram_pj_per_byte;
    perf.energy.static_pj = hw.static_mw * perf.cycles as f64 / tech.freq_ghz;
    perf.utilization = perf.macs as f64 / (256.0 * perf.cycles.max(1) as f64);
    perf
}

fn div_ceil(a: i64, b: i64) -> i64 {
    (a + b - 1) / b
}

/// Simulates a whole model on the Gemmini baseline.
pub fn simulate_model_gemmini(model: &Model, tech: &TechModel) -> ModelPerf {
    let perfs: Vec<(i64, LayerPerf)> = model
        .layers
        .iter()
        .map(|l| (l.count, simulate_layer_gemmini(l, tech)))
        .collect();
    aggregate_iter(model, perfs.iter().map(|(c, p)| (*c, p)), tech)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_eval::{EvalRequest, EvalSession};
    use lego_workloads::zoo;

    /// LEGO-side reference numbers, through the canonical session API.
    fn simulate_model(m: &Model, hw: &HwConfig, tech: &TechModel) -> ModelPerf {
        EvalSession::new()
            .evaluate(&EvalRequest::new(m.clone(), hw.clone()).with_tech(*tech))
            .model
    }

    #[test]
    fn lego_beats_gemmini_on_every_figure11_model() {
        let tech = TechModel::default();
        let lego = HwConfig::lego_256();
        for m in zoo::figure11_models() {
            let g = simulate_model_gemmini(&m, &tech);
            let l = simulate_model(&m, &lego, &tech);
            assert!(
                l.gops >= g.gops,
                "{}: LEGO {} vs Gemmini {} GOP/s",
                m.name,
                l.gops,
                g.gops
            );
        }
    }

    #[test]
    fn mobilenet_gap_is_large() {
        // Figure 11's standout: depthwise layers crush the fixed dataflow.
        let tech = TechModel::default();
        let m = zoo::mobilenet_v2();
        let g = simulate_model_gemmini(&m, &tech);
        let l = simulate_model(&m, &HwConfig::lego_256(), &tech);
        assert!(
            l.gops > 4.0 * g.gops,
            "expected a large MobileNetV2 gap: {} vs {}",
            l.gops,
            g.gops
        );
    }

    #[test]
    fn gpt2_is_memory_bound_for_both() {
        // Figure 11: "Both Gemmini and LEGO are bounded by memory bandwidth
        // on GPT2" — neither should get anywhere near peak (512 GOP/s).
        let tech = TechModel::default();
        let m = zoo::gpt2_decode();
        let g = simulate_model_gemmini(&m, &tech);
        let l = simulate_model(&m, &HwConfig::lego_256(), &tech);
        assert!(g.gops < 80.0, "Gemmini GPT-2 {}", g.gops);
        assert!(l.gops < 80.0, "LEGO GPT-2 {}", l.gops);
        assert!(
            l.gops < 3.5 * g.gops,
            "gap should be modest when DRAM-bound"
        );
    }
}
