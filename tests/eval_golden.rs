//! Golden equivalence: `EvalSession::evaluate` is byte-identical to the
//! uncached reference loop (`map_model_ctx`) on the model zoo, dense and
//! sparse.
//!
//! The session is a *packaging* of `best_mapping_ctx` + `aggregate_iter` —
//! not a reimplementation — so every per-layer `LayerPerf` and the
//! aggregated `ModelPerf` must compare exactly equal (f64 bit equality via
//! derived `PartialEq`), on every zoo model, on both reference
//! configurations, with and without sparse datapaths and tile caps.

use lego::eval::{EvalRequest, EvalSession};
use lego::mapper::map_model_ctx;
use lego::model::HwConfig;
use lego::model::{CostContext, SparseAccel, SparseHw, TechModel};
use lego::workloads::{zoo, Model};

fn dense_zoo() -> Vec<Model> {
    vec![
        zoo::lenet(),
        zoo::mobilenet_v2(),
        zoo::resnet50(),
        zoo::bert_base(),
        zoo::gpt2_decode(),
    ]
}

fn assert_matches_legacy(
    session: &EvalSession,
    model: &Model,
    hw: &HwConfig,
    accel: SparseAccel,
    tile_cap: Option<i64>,
) {
    let tech = TechModel::default();
    let report = session.evaluate(
        &EvalRequest::new(model.clone(), hw.clone())
            .with_sparse(SparseHw::with_accel(accel))
            .with_tile_cap(tile_cap),
    );
    let ctx = CostContext::new(hw.clone(), tech).with_sparse(SparseHw::with_accel(accel));
    let legacy = map_model_ctx(model, &ctx, tile_cap);
    assert_eq!(
        report.model, legacy.perf,
        "{} on {:?} ({accel:?}, cap {tile_cap:?}): ModelPerf must be byte-identical",
        model.name, hw.array,
    );
    assert_eq!(report.per_layer.len(), legacy.layers.len());
    for (got, want) in report.per_layer.iter().zip(&legacy.layers) {
        assert_eq!(got.name, want.name);
        assert_eq!(got.count, want.count);
        assert_eq!(
            got.perf, want.perf,
            "{}/{}: LayerPerf must be byte-identical",
            model.name, want.name,
        );
    }
}

#[test]
fn session_matches_legacy_ctx_on_the_dense_zoo() {
    let session = EvalSession::new();
    for model in dense_zoo() {
        for hw in [HwConfig::lego_256(), HwConfig::lego_icoc_1k()] {
            assert_matches_legacy(&session, &model, &hw, SparseAccel::None, None);
        }
    }
}

#[test]
fn session_matches_legacy_ctx_on_the_sparse_zoo() {
    let session = EvalSession::new();
    for model in zoo::sparse_models() {
        for accel in SparseAccel::ALL {
            assert_matches_legacy(&session, &model, &HwConfig::lego_256(), accel, None);
        }
    }
}

#[test]
fn session_matches_legacy_ctx_under_tile_caps_and_clusters() {
    let session = EvalSession::new();
    let mut clustered = HwConfig::lego_256();
    clustered.clusters = (2, 2);
    for model in [zoo::mobilenet_v2(), zoo::resnet50_2to4()] {
        for hw in [HwConfig::lego_256(), clustered.clone()] {
            for tile_cap in [None, Some(32), Some(64)] {
                assert_matches_legacy(&session, &model, &hw, SparseAccel::Skipping, tile_cap);
            }
        }
    }
}

#[test]
fn session_cost_summary_matches_the_explorer_arithmetic() {
    // The explorer's DesignPoint objectives historically came from its own
    // roll-up; they now come from CostSummary. Pin the formulas.
    let tech = TechModel::default();
    let hw = HwConfig::lego_256();
    let model = zoo::resnet50();
    let report = EvalSession::new().evaluate(&EvalRequest::new(model.clone(), hw.clone()));
    let ctx = CostContext::new(hw.clone(), tech);
    let legacy = map_model_ctx(&model, &ctx, None);
    let latency = legacy.perf.cycles as f64;
    let time_s = latency / (tech.freq_ghz * 1e9);
    let energy_pj = legacy.perf.watts * time_s * 1e12;
    let banks = (hw.array.0 + hw.array.1).max(1) as u64;
    assert_eq!(report.cost.objectives.latency_cycles, latency);
    assert_eq!(report.cost.objectives.energy_pj, energy_pj);
    assert_eq!(report.cost.objectives.area_um2, ctx.area(banks).total_um2());
    assert_eq!(report.cost.peak_power_mw, ctx.peak_power_mw());
    assert_eq!(report.cost.score, report.cost.edp(), "default objective");
}
