//! Mapping search (paper §VI-A): "a simple mapping search tool that
//! identifies the best mapping (dataflow and tiling) for every neural
//! network layer based on the simulated #cycles and energy".
//!
//! The per-layer dataflow choice lives in `lego-sim`'s
//! [`lego_sim::best_mapping_ctx`]; this crate adds the whole-model form
//! [`map_model_ctx`], the uncached layer loop that tests compare an
//! [`lego_eval::EvalSession`] against. The e-graph search that starts
//! from it is `lego_mapspace::MapSearch`.

use lego_model::CostContext;
use lego_sim::{aggregate_iter, best_mapping_ctx, LayerPerf, ModelPerf};
use lego_workloads::Model;
use std::sync::Arc;

/// One mapped layer: the layer, its repetition count, and its performance.
#[derive(Debug, Clone)]
pub struct MappedLayer {
    /// Layer name (shared with the workload's interned name).
    pub name: Arc<str>,
    /// Repetition count.
    pub count: i64,
    /// Chosen mapping and predicted performance.
    pub perf: LayerPerf,
}

/// Full mapping of a model onto a hardware configuration.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// Per-layer decisions in execution order.
    pub layers: Vec<MappedLayer>,
    /// Aggregated model performance.
    pub perf: ModelPerf,
}

/// Maps every layer against a prebuilt [`CostContext`] with an optional L1
/// tile-edge cap.
///
/// The context is built **once** per configuration (its NoC models and
/// SRAM fit are part of the price of the hardware, not of any one layer).
/// This is the layer loop an [`lego_eval::EvalSession`] runs per request,
/// without the cache: the reference its reports are tested against.
///
/// # Examples
///
/// ```
/// use lego_mapper::map_model_ctx;
/// use lego_model::{CostContext, TechModel};
/// use lego_model::HwConfig;
///
/// let model = lego_workloads::zoo::resnet50();
/// let ctx = CostContext::new(HwConfig::lego_256(), TechModel::default());
/// let mapping = map_model_ctx(&model, &ctx, None);
/// assert!(mapping.perf.gops > 0.0);
/// assert_eq!(mapping.layers.len(), model.layers.len());
/// ```
pub fn map_model_ctx(model: &Model, ctx: &CostContext, tile_cap: Option<i64>) -> Mapping {
    let layers: Vec<MappedLayer> = model
        .layers
        .iter()
        .map(|l| MappedLayer {
            name: Arc::clone(&l.name),
            count: l.count,
            perf: best_mapping_ctx(l, ctx, tile_cap),
        })
        .collect();
    let perf = aggregate_iter(model, layers.iter().map(|m| (m.count, &m.perf)), &ctx.tech);
    Mapping { layers, perf }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_eval::{EvalRequest, EvalSession};
    use lego_mapspace::MapSearch;
    use lego_model::TechModel;
    use lego_model::{HwConfig, SpatialMapping};
    use lego_workloads::zoo;

    fn ctx(hw: &HwConfig) -> CostContext {
        CostContext::new(hw.clone(), TechModel::default())
    }

    #[test]
    fn mobilenet_switches_dataflows() {
        let hw = HwConfig::lego_256();
        let mapping = map_model_ctx(&zoo::mobilenet_v2(), &ctx(&hw), None);
        let chosen: Vec<&str> = mapping
            .layers
            .iter()
            .map(|l| l.perf.mapping.name())
            .collect();
        // Depthwise layers pick OHOW, pointwise convs pick ICOC or MN.
        assert!(chosen.contains(&"OHOW"), "{chosen:?}");
        assert!(
            chosen.contains(&"ICOC") || chosen.contains(&"MN"),
            "{chosen:?}"
        );
    }

    #[test]
    fn restricted_hardware_maps_worse() {
        let full = HwConfig::lego_256();
        let mut icoc_only = HwConfig::lego_256();
        icoc_only.dataflows = vec![SpatialMapping::ConvIcOc, SpatialMapping::GemmMN];
        let m = zoo::mobilenet_v2();
        let a = map_model_ctx(&m, &ctx(&full), None);
        let b = map_model_ctx(&m, &ctx(&icoc_only), None);
        assert!(
            a.perf.cycles < b.perf.cycles,
            "fused dataflows must win on MobileNetV2"
        );
    }

    #[test]
    fn session_path_matches_the_ctx_path() {
        // The golden equivalence the retired shims used to pin, kept on
        // the supported surfaces: a one-shot session over a request is
        // byte-identical to the context path per layer and in aggregate.
        let hw = HwConfig::lego_256();
        let t = TechModel::default();
        let m = zoo::mobilenet_v2();
        let report =
            EvalSession::new().evaluate(&EvalRequest::new(m.clone(), hw.clone()).with_tech(t));
        let b = map_model_ctx(&m, &ctx(&hw), None);
        assert_eq!(report.model, b.perf);
        assert_eq!(report.per_layer.len(), b.layers.len());
        for (x, y) in report.per_layer.iter().zip(&b.layers) {
            assert_eq!(x.perf, y.perf, "{}", x.name);
        }
    }

    #[test]
    fn rewrite_entry_point_baselines_at_the_enumerated_mapping() {
        let hw = HwConfig::lego_256();
        let t = TechModel::default();
        let m = zoo::mobilenet_v2();
        let session = EvalSession::new();
        let out = MapSearch::new(&m, hw.clone(), t).run(&session);
        // The outcome's baseline is exactly the enumerated mapping's EDP.
        let enumerated = map_model_ctx(&m, &ctx(&hw), None);
        let time_s = enumerated.perf.cycles as f64 / (t.freq_ghz * 1e9);
        let energy_pj = enumerated.perf.watts * time_s * 1e12;
        let edp = enumerated.perf.cycles as f64 * energy_pj;
        assert!((out.enumerated_edp - edp).abs() <= 1e-6 * edp);
        assert!(out.rewrite_edp <= out.enumerated_edp);
    }

    #[test]
    fn per_layer_counts_preserved() {
        let hw = HwConfig::lego_256();
        let m = zoo::bert_base();
        let mapping = map_model_ctx(&m, &ctx(&hw), None);
        let total: i64 = mapping.layers.iter().map(|l| l.count).sum();
        let expect: i64 = m.layers.iter().map(|l| l.count).sum();
        assert_eq!(total, expect);
    }
}
